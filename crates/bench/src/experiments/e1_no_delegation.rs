//! **E1 — "No delegation, no overhead"** (§4.2, first claim).
//!
//! "In the absence of delegation ARIES/RH reduces to the original
//! algorithm, so no penalty is incurred due to the extra functionality
//! when it is not used."
//!
//! A boring (delegation-free) workload runs on ARIES/RH, on the lazy
//! variant (identical normal processing), and on the eager engine (whose
//! delegation machinery is pay-per-use too, making it a plain-ARIES
//! stand-in). Normal-processing throughput, log traffic, and recovery
//! cost must be indistinguishable, and the delegation-only counters must
//! be exactly zero.

use super::Scale;
use crate::harness::timed;
use crate::table::{ms, Table};
use rh_common::{Lsn, ObjectId, TxnId, UpdateOp};
use rh_core::eager::EagerDb;
use rh_core::engine::{RhDb, Strategy};
use rh_core::history::replay_engine;
use rh_core::TxnEngine;
use rh_wal::{LogManager, RecordBody, StableLog};
use rh_workload::{boring, WorkloadSpec};

/// Runs E1.
pub fn run(scale: Scale) -> Vec<Table> {
    let spec = WorkloadSpec {
        txns: scale.pick(50, 5_000),
        updates_per_txn: 8,
        straggler_rate: 0.05,
        abort_rate: 0.05,
        ..WorkloadSpec::default()
    };
    let events = boring(&spec);
    let updates = spec.txns * spec.updates_per_txn;

    let mut table = Table::new(
        format!(
            "E1: zero-delegation workload ({} txns x {} updates) — RH vs baselines",
            spec.txns, spec.updates_per_txn
        ),
        &[
            "engine",
            "normal ms",
            "us/update",
            "log appends",
            "rewrites",
            "recovery ms",
            "fwd reads",
            "bwd visited",
        ],
    );

    // --- ARIES/RH ---------------------------------------------------------
    for (name, strategy) in [("ARIES/RH", Strategy::Rh), ("lazy-rewrite", Strategy::LazyRewrite)] {
        let engine = RhDb::new(strategy);
        let (engine, normal) = timed(|| replay_engine(engine, &events).unwrap());
        engine.log().flush_all().unwrap();
        let normal_log = engine.log().metrics().snapshot();
        let (engine, rec_wall) = timed(|| engine.crash_and_recover().unwrap());
        let report = engine.last_recovery().unwrap();
        table.row(vec![
            name.into(),
            ms(normal),
            format!("{:.2}", normal.as_secs_f64() * 1e6 / updates as f64),
            normal_log.appends.to_string(),
            (normal_log.in_place_rewrites + report.undo.rewrites).to_string(),
            ms(rec_wall),
            report.forward.records_scanned.to_string(),
            report.undo.visited.to_string(),
        ]);
    }

    // --- eager (plain-ARIES stand-in) --------------------------------------
    let engine = EagerDb::new();
    let (engine, normal) = timed(|| replay_engine(engine, &events).unwrap());
    engine.log().flush_all().unwrap();
    let normal_log = engine.log().metrics().snapshot();
    let (engine, rec_wall) = timed(|| engine.crash_and_recover().unwrap());
    let rec_log = engine.log().metrics().snapshot();
    table.row(vec![
        "eager (≈ARIES)".into(),
        ms(normal),
        format!("{:.2}", normal.as_secs_f64() * 1e6 / updates as f64),
        normal_log.appends.to_string(),
        normal_log.in_place_rewrites.to_string(),
        ms(rec_wall),
        rec_log.records_read.to_string(),
        "-".into(),
    ]);

    vec![table, backend_table(scale)]
}

/// **E1b** — the same append+force traffic against both stable-log
/// backends. The in-memory log is the unit-test default and the upper
/// bound; the file-backed log pays real frames and real `fdatasync`s,
/// and the fsync column shows group commit holding the sync count to one
/// per force (and fewer than one per force once callers overlap).
fn backend_table(scale: Scale) -> Table {
    let txns = scale.pick(50, 2_000);
    let updates_per_txn = 8usize;

    let mut table = Table::new(
        format!("E1b: log backend — append+force, {txns} txns x {updates_per_txn} updates"),
        &["backend", "wall ms", "us/txn", "appends", "fsyncs", "bytes flushed", "MB/s"],
    );

    let mut run_backend = |name: &str, log: LogManager| {
        let (log, wall) = timed(|| {
            for t in 0..txns {
                let mut prev = Lsn::NULL;
                for u in 0..updates_per_txn {
                    prev = log.append(
                        TxnId(t as u64),
                        prev,
                        RecordBody::Update {
                            ob: ObjectId((t * updates_per_txn + u) as u64 % 512),
                            op: UpdateOp::Add { delta: 1 },
                        },
                    );
                }
                let commit = log.append(TxnId(t as u64), prev, RecordBody::Commit);
                log.flush_to(commit).expect("force");
            }
            log
        });
        let snap = log.metrics().snapshot();
        let secs = wall.as_secs_f64();
        table.row(vec![
            name.into(),
            ms(wall),
            format!("{:.2}", secs * 1e6 / txns as f64),
            snap.appends.to_string(),
            snap.fsyncs.to_string(),
            snap.bytes_flushed.to_string(),
            format!("{:.1}", snap.bytes_flushed as f64 / 1e6 / secs.max(1e-9)),
        ]);
    };

    run_backend("in-memory", LogManager::new());

    // One directory per call: the unit tests run this table concurrently.
    static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let run = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("rh-bench-e1b-{}-{txns}-{run}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    run_backend(
        "file-backed",
        LogManager::attach(StableLog::open_dir(&dir).expect("open log dir")),
    );
    let _ = std::fs::remove_dir_all(&dir);

    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_smoke() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        let text = tables[0].render().join("\n");
        // The rewrite column must be zero for every engine on a
        // delegation-free workload.
        for line in tables[0].render().iter().skip(3) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cells[cells.len() - 4], "0", "rewrites must be 0 in: {text}");
        }
    }

    #[test]
    fn e1b_backends_report_sane_numbers() {
        let table = backend_table(Scale::Quick);
        let text = table.render().join("\n");
        assert!(text.contains("in-memory"), "{text}");
        assert!(text.contains("file-backed"), "{text}");
        // The file backend must report real durability work; the mem
        // backend must report none.
        let rendered = table.render();
        let rows: Vec<&str> = rendered.iter().skip(3).map(String::as_str).map(str::trim).collect();
        let fsyncs = |row: &str| -> u64 {
            let cells: Vec<&str> = row.split_whitespace().collect();
            cells[cells.len() - 3].parse().unwrap()
        };
        let mem = rows.iter().find(|r| r.starts_with("in-memory")).unwrap();
        let file = rows.iter().find(|r| r.starts_with("file-backed")).unwrap();
        assert_eq!(fsyncs(mem), 0, "{text}");
        assert!(fsyncs(file) >= 1, "{text}");
    }
}
