//! The workloads and one run of a workload: set-up, timed restarts, the
//! timed window, the oracle checks and the metrics.

use crate::gen::{Mix, HOT};
use crate::image::{marker_object, restart, Db, History, Image, Plan, RestartLayers, Shards};
use crate::replay::{loopback_echo, replay, ReplayLayers};
use crate::serve::{run_count, run_window, AsofReader, Record, ServerStats, Writer, SLICE};
use crate::spans::Spans;
use crate::stats::{Samples, Tally};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rh_client::Connection;
use rh_server::Server;
use rh_storage::SLOTS_PER_PAGE;
use rh_workload::WorkloadSpec;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Writer clients, one thread and one connection each: as many as the
/// 2-core host the benchmark is sized for.
pub const WRITERS: usize = 2;
/// Set-ups per run; `setup_s` is their median and the last one serves.
pub const SETUPS: usize = 3;
/// Transactions each writer runs during a set-up's warm-up.
pub const WARMUP_TXNS: usize = 300;
/// Time-travel reads the timed reader issues during a set-up's warm-up
/// (each replays the log, so a few suffice).
pub const WARMUP_READS: usize = 4;
/// Objects of the pre-crash history read back after each timed restart.
pub const DURABILITY_SAMPLE: usize = 64;
/// Transactions per client stream replayed in-process by the traced run.
pub const REPLAY_TXNS: usize = 1000;
/// Spans a traced run writes out (the first ones recorded; every span
/// feeds the metrics).
pub const SPANS_WRITTEN: usize = 20_000;
/// Value the first post-restart commit writes.
const MARKER: i64 = 0x5eed;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Engine shards.
    pub shards: Shards,
    /// Pre-crash history every set-up and restart starts from.
    pub history: History,
    /// Mix of the served writers.
    pub mix: Mix,
    /// Timed restarts after the set-ups.
    pub restarts: usize,
    /// Timed time-travel reads, an equal number at each of the 256
    /// probes. A read's cost is set by its probe (how far it replays,
    /// and whether a scope live at the checkpoint covers its object), so
    /// the p99 (rank 254 of 256, 507 of 512) falls among the reads of the
    /// three dearest probes; with this many probes which of a seed's
    /// objects are probed moves it little.
    pub asof_reads: usize,
}

/// Every workload.
pub fn workloads() -> [Workload; 2] {
    [
        Workload {
            name: "oltp_plain",
            shards: 1,
            history: History::DelegationMix(WorkloadSpec {
                seed: 0,
                txns: 8000,
                updates_per_txn: 8,
                objects_per_txn: 4,
                delegation_rate: 0.3,
                chain_len: 2,
                abort_rate: 0.05,
                straggler_rate: 0.1,
                write_ratio: 0.5,
            }),
            mix: Mix::PLAIN,
            restarts: 15,
            // A read replays tens of thousands of records here; two per
            // probe would take longer than the window.
            asof_reads: 256,
        },
        Workload {
            name: "oltp_deleg_xshard",
            shards: 2,
            history: History::Served { txns: 1500 },
            mix: Mix::DELEG_XSHARD,
            restarts: 60,
            asof_reads: 512,
        },
    ]
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every oracle agreed and nothing errored.
    pub correct: bool,
    /// Operations attempted and checked.
    pub attempted: u64,
    /// Operations failed, refused or diverging.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

/// The served instance of the last set-up.
struct Live {
    server: Server,
    writers: Vec<Writer>,
    /// Connected and warmed up in set-up; issues the timed reads.
    timed_reader: AsofReader,
    image: Image,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reads a seeded sample of the history back after a restart: every
/// acked pre-crash effect must be there and no loser's effect may be.
fn check_durability(
    conn: &mut Connection,
    expected: &[(rh_common::ObjectId, i64)],
    seed: u64,
) -> Tally {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tally::default();
    let mut check = |ob, want| {
        t.attempted += 1;
        match conn.value_of(ob) {
            Ok(got) if got == want => {}
            Ok(_) => t.divergences += 1,
            Err(_) => t.errors += 1,
        }
    };
    check(marker_object(), MARKER);
    for _ in 0..DURABILITY_SAMPLE.min(expected.len()) {
        let (ob, want) = expected[rng.random_range(0..expected.len())];
        check(ob, want);
    }
    t
}

/// Adds a phase's tally to the run's, naming the phase on standard
/// error when anything in it failed.
fn absorb(total: &mut Tally, phase: &str, t: &Tally) {
    if t.failed() > 0 {
        eprintln!("perfbench: {phase}: {t:?}");
    }
    total.absorb(t);
}

fn shard_dirs(root: &Path, shards: Shards) -> Vec<PathBuf> {
    (0..shards).map(|k| root.join(format!("shard-{k}"))).collect()
}

fn median_of(restarts: &[RestartLayers], f: impl Fn(&RestartLayers) -> f64) -> f64 {
    let mut s = Samples::default();
    for r in restarts {
        s.push(f(r));
    }
    s.median()
}

/// Runs workload `w` once. `work` is a scratch directory inside the
/// checkout; spans of a traced run are written there.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool, work: &Path) -> Outcome {
    let epoch = Instant::now();
    let root = work.join(format!("{}-{seed}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create run directory");
    // The oracle's view of the history is computed before anything is
    // timed: it is the benchmark's work, not the program's.
    let plan = Plan::new(&w.history, w.mix, w.shards, seed);
    let mut tally = Tally::default();
    let mut setup = Samples::default();
    let mut restarts: Vec<RestartLayers> = Vec::new();

    let mut live: Option<Live> = None;
    for i in 0..SETUPS {
        if let Some(old) = live.take() {
            old.server.force_stop();
            let _ = std::fs::remove_dir_all(root.join(format!("image-{}", i - 1)));
            let _ = std::fs::remove_dir_all(root.join(format!("serve-{}", i - 1)));
        }
        let t0 = Instant::now();
        let image = Image::build(&plan, &root.join(format!("image-{i}")));
        let r = restart(image.copy_to(&plan, &root.join(format!("serve-{i}"))), MARKER);
        let addr = r.server.local_addr();
        let mut writers: Vec<Writer> =
            (0..WRITERS).map(|k| Writer::connect(addr, seed, 2 + k as u32, w.mix)).collect();
        let mut timed_reader = AsofReader::connect(addr, image.probes.clone());
        let warm = run_count(&mut writers, &mut timed_reader, WARMUP_TXNS, WARMUP_READS);
        absorb(&mut tally, "warm-up", &warm);
        setup.push(t0.elapsed().as_secs_f64());
        restarts.push(r.layers);
        live = Some(Live { server: r.server, writers, timed_reader, image });
    }
    let Live { server, mut writers, mut timed_reader, image } = live.expect("at least one set-up");
    let addr = server.local_addr();
    let stats = || ServerStats::fetch(&mut Connection::connect(addr).expect("stats connect"));

    // The timed restarts and the timed time-travel reads run between the
    // window's slices, so each of them samples the whole window's span
    // of time without overlapping its load. The traced run reads the
    // past after the window instead, so the server's counters over the
    // window cover the writers only.
    let slices_n = (seconds / SLICE.as_secs_f64()).ceil().max(1.0) as usize;
    let due = |total: usize, k: usize| (total * (k + 1)).div_ceil(slices_n);
    let mut asof = Record::default();
    let mut restart_tally = Tally::default();
    let mut timed_restart = |k: usize, restarts: &mut Vec<RestartLayers>| {
        let dir = root.join(format!("restart-{k}"));
        let mut r = restart(image.copy_to(&plan, &dir), MARKER);
        restarts.push(r.layers);
        restart_tally.absorb(&check_durability(&mut r.conn, &plan.expected, seed ^ k as u64));
        restart_tally.attempted += 1;
        drop(r.conn);
        r.server.force_stop();
        let _ = std::fs::remove_dir_all(&dir);
    };
    let before = stats();
    let (mut restarted, mut read) = (0, 0);
    let slices = run_window(&mut writers, seconds, trace, epoch, |k| {
        while restarted < due(w.restarts, k) {
            timed_restart(restarted, &mut restarts);
            restarted += 1;
        }
        while !trace && read < due(w.asof_reads, k) {
            timed_reader.read_one(&mut asof);
            read += 1;
        }
    });
    let delta = stats().since(&before);
    absorb(&mut tally, "restart durability", &restart_tally);
    let mut window_seconds = [0.0f64; 2];
    let mut untraced = Record::default();
    let mut traced = Record::default();
    for slice in slices {
        window_seconds[usize::from(slice.traced)] += slice.seconds;
        if slice.traced {
            traced.absorb(slice.record);
        } else {
            untraced.absorb(slice.record);
        }
    }
    absorb(&mut tally, "window", &untraced.tally);
    absorb(&mut tally, "traced window", &traced.tally);

    for wr in &mut writers {
        absorb(&mut tally, "acked effects", &wr.verify());
    }
    if trace {
        // Idle through the whole window, the traced run's reader can
        // outlive the server's idle timeout (30 s); it reads on a fresh
        // connection.
        timed_reader = AsofReader::connect(addr, image.probes.clone());
    }
    while read < w.asof_reads {
        timed_reader.read_one(&mut asof);
        read += 1;
    }
    absorb(&mut tally, "time travel", &asof.tally);
    let records = image.records;
    let probes = image.probes.clone();
    drop(writers);
    drop(timed_reader);
    let mut db = if w.shards == 1 {
        Db::Single(server.shutdown().expect("drain"))
    } else {
        Db::Sharded(server.shutdown_sharded().expect("drain"))
    };
    // Durability of the whole pre-crash history on the served engine.
    let mut durable = Tally::default();
    for &(ob, want) in &plan.expected {
        durable.attempted += 1;
        match db.value_of(ob) {
            Ok(got) if got == want => {}
            Ok(_) => durable.divergences += 1,
            Err(_) => durable.errors += 1,
        }
    }
    absorb(&mut tally, "history durability", &durable);

    let mut metrics = Vec::new();
    let mut m = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit });
    };
    eprintln!(
        "perfbench: sizes: history {records} log records on {} pages against a {}-page \
         pool, hot set {} pages",
        plan.pages(),
        rh_core::engine::DbConfig::default().pool_pages,
        WRITERS as u64 * HOT / SLOTS_PER_PAGE as u64
    );
    if !trace {
        let mut asof_us = asof.asof_us.clone();
        let mut txn_us = untraced.txn_us.clone();
        let mut commit_us = untraced.commit_us.clone();
        m("setup_s", setup.median(), "s");
        m("txn_per_s", ratio(untraced.tally.committed as f64, window_seconds[0]), "1/s");
        m("txn_p50_us", txn_us.median(), "us");
        m("txn_p99_us", txn_us.quantile(0.99), "us");
        m("commit_p50_us", commit_us.median(), "us");
        m("commit_p99_us", commit_us.quantile(0.99), "us");
        m(
            "log_bytes_per_txn",
            ratio(delta.counter("log.bytes_flushed") as f64, untraced.tally.committed as f64),
            "B",
        );
        m("peak_rss_mb", peak_rss_mb(), "MB");
        // A mean, not a median: the accept loop's sleep-poll makes the
        // samples bimodal, and a median would flip between the modes.
        m(
            "restart_s",
            restarts.iter().map(|r| r.restart_s).sum::<f64>() / restarts.len() as f64,
            "s",
        );
        m("asof_p50_us", asof_us.median(), "us");
        m("asof_p99_us", asof_us.quantile(0.99), "us");
        eprintln!(
            "perfbench: samples: {} set-ups, {} transactions in {:.1} s, {} restarts, {} \
             time-travel reads",
            setup.len(),
            txn_us.len(),
            window_seconds[0],
            restarts.len(),
            asof_us.len()
        );
    } else {
        let mut replay_spans = Spans::new(epoch);
        let layers = replay(
            w.mix,
            seed,
            &(0..WRITERS as u32).map(|k| 2 + k).collect::<Vec<_>>(),
            REPLAY_TXNS,
            &shard_dirs(&root.join("replay"), w.shards),
            &mut replay_spans,
        );
        let echo = loopback_echo(&layers.frames);
        let reenact = reenact_in_process(&db, &probes);
        absorb(&mut tally, "in-process time travel", &reenact.tally);
        let mut spans = per_layer(
            &mut m,
            Traced {
                w,
                untraced,
                traced,
                seconds: window_seconds,
                asof,
                delta: &delta,
                restarts: &restarts,
                layers: &layers,
                echo,
                reenact,
            },
        );
        spans.absorb(replay_spans);
        eprintln!("perfbench: samples: {} spans", spans.all().len());
        m("failed_frac", tally.failed_frac(), "frac");
        let dump = work.join(format!("spans-{}.jsonl", w.name));
        if let Err(e) = spans.dump(&dump, SPANS_WRITTEN) {
            eprintln!("could not write {}: {e}", dump.display());
        }
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&root);
    Outcome {
        correct: tally.correct(),
        attempted: tally.attempted.max(1),
        failed: tally.failed(),
        metrics,
    }
}

/// In-process `read_as_of` at the probe LSNs.
struct Reenact {
    query_us: Samples,
    records_per_query: f64,
    seeded_frac: f64,
    tally: Tally,
}

fn reenact_in_process(db: &Db, probes: &[crate::image::Probe]) -> Reenact {
    let mut tally = Tally::default();
    let before = db.stats();
    let mut query_us = Samples::default();
    for p in probes {
        tally.attempted += 1;
        let t0 = Instant::now();
        let got = db.read_as_of(p.ob, p.lsn);
        query_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match got {
            Ok(v) if v == p.want => {}
            Ok(_) => tally.divergences += 1,
            Err(_) => tally.errors += 1,
        }
    }
    let after = db.stats();
    let d = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let queries = d(rh_obs::names::M_REENACT_QUERIES);
    Reenact {
        query_us,
        records_per_query: ratio(d(rh_obs::names::M_REENACT_RECORDS), queries),
        seeded_frac: ratio(d(rh_obs::names::M_REENACT_SEEDED), queries),
        tally,
    }
}

/// Everything the traced run measured.
struct Traced<'a> {
    w: &'a Workload,
    untraced: Record,
    traced: Record,
    seconds: [f64; 2],
    asof: Record,
    delta: &'a ServerStats,
    restarts: &'a [RestartLayers],
    layers: &'a ReplayLayers,
    echo: Samples,
    reenact: Reenact,
}

/// Slack within which the blocking path's layers must add up to the
/// untraced median transaction (`trace.path_residual_frac`) on a
/// workload of uniform transactions (`oltp_plain`).
pub const PATH_SLACK: f64 = 0.25;

/// Emits the per-layer metrics of a traced run and returns the client
/// spans it recorded.
fn per_layer(m: &mut impl FnMut(&'static str, f64, &'static str), t: Traced<'_>) -> Spans {
    let Traced {
        w,
        untraced,
        mut traced,
        seconds,
        asof,
        delta,
        restarts,
        layers,
        echo,
        mut reenact,
    } = t;
    let commits = delta.counter("server.commits") as f64;
    let per_txn = |name: &str| ratio(delta.counter(name) as f64, commits);
    let mut writes = traced.op_us.get("write").cloned().unwrap_or_default();
    writes.extend(&traced.op_us.get("add").cloned().unwrap_or_default());
    let mut delegates = traced.op_us.get("delegate").cloned().unwrap_or_default();
    let mut asof_us = asof.asof_us.clone();

    // Mean client round trip over every request of the window, against
    // the server's own service time for the same requests.
    let mut rtt = Samples::default();
    for rec in [&untraced, &traced] {
        for s in rec.op_us.values() {
            rtt.extend(s);
        }
        rtt.extend(&rec.asof_us);
    }
    let request_us = delta.mean("server.request_us");
    let wire_gap_us = rtt.mean() - request_us;
    let rtts_per_txn = ratio(traced.rtts as f64, traced.tally.committed as f64);

    m("client.rtts_per_txn", rtts_per_txn, "count");
    m("client.write_us", writes.median(), "us");
    m("client.commit_us", traced.commit_us.median(), "us");
    m("client.delegate_us", delegates.median(), "us");
    m("client.asof_us", asof_us.median(), "us");
    m("server.queue_us", delta.mean("server.queue_us"), "us");
    m("server.engine_us", delta.mean("server.engine_us"), "us");
    m("server.flush_us", delta.mean("server.flush_us"), "us");
    m("server.request_us", request_us, "us");
    m("server.wire_gap_us", wire_gap_us, "us");
    m(
        "server.busy_frac",
        ratio(delta.counter("server.replies.busy") as f64, delta.counter("server.requests") as f64),
        "frac",
    );
    m("wire.codec_ns", layers.codec_ns.mean(), "ns");
    m("engine.op_us", layers.op_us.mean(), "us");
    m("engine.commit_prepare_us", layers.commit_prepare_us.mean(), "us");
    m("scope.ops_per_txn", per_txn("scope.opens") + per_txn("scope.extends"), "count");
    m("scope.delegates_per_txn", per_txn("scope.delegates"), "count");
    m("twopc.commit_frac", per_txn("shard.twopc.commits"), "frac");
    m("twopc.prepare_us", delta.mean("shard.twopc.prepare_us"), "us");
    m("twopc.coord_us", delta.mean("shard.twopc.coord_us"), "us");
    m("lock.acquisitions_per_txn", per_txn("lock.acquisitions"), "count");
    m("lock.transfers_per_txn", per_txn("lock.transfers"), "count");
    m("lock.wait_us_per_txn", per_txn("lock.wait_micros"), "us");
    m("wal.fsyncs_per_commit", per_txn("log.fsyncs"), "count");
    m("wal.fsync_us", layers.flush_us.mean(), "us");
    m("wal.appends_per_txn", per_txn("log.appends"), "count");
    m("wal.open_s", median_of(restarts, |r| r.wal_open_s), "s");
    m("wal.records_read", median_of(restarts, |r| r.records_read as f64), "count");
    m("recovery.forward_s", median_of(restarts, |r| r.forward_s), "s");
    m("recovery.undo_s", median_of(restarts, |r| r.undo_s), "s");
    m("recovery.pages_redone", median_of(restarts, |r| r.pages_redone as f64), "count");
    m("recovery.undo_visits", median_of(restarts, |r| r.undo_visits as f64), "count");
    m("recovery.gap_skips", median_of(restarts, |r| r.gap_skips as f64), "count");
    m("disk.page_reads_per_restart", median_of(restarts, |r| r.page_reads as f64), "count");
    m("disk.page_writes_per_restart", median_of(restarts, |r| r.page_writes as f64), "count");
    m("disk.page_reads_per_txn", per_txn("disk.page_reads"), "count");
    m("disk.page_writes_per_txn", per_txn("disk.page_writes"), "count");
    m("reenact.records_per_query", reenact.records_per_query, "count");
    m("reenact.seeded_frac", reenact.seeded_frac, "frac");
    m("reenact.query_us", reenact.query_us.median(), "us");

    let untraced_tps = ratio(untraced.tally.committed as f64, seconds[0]);
    let traced_tps = ratio(traced.tally.committed as f64, seconds[1]);
    m("trace.overhead", ratio(untraced_tps, traced_tps), "ratio");
    // The blocking path of one transaction, each step measured on its
    // own: the client's work between calls (self time of the `txn`
    // span); per round trip the loopback wire alone and the server's
    // reader-to-worker handoff; the engine calls and the commit record
    // on identical inputs in-process; and the commit's wait for
    // durability as the server saw it under load (group-commit flush
    // for a local commit, the two 2PC forces for a cross-shard one).
    // What it leaves out is the server's dispatch around the engine.
    let spans = traced.spans.take().unwrap_or_else(|| Spans::new(Instant::now()));
    let mut client_self = Samples::default();
    for (s, self_ns) in spans.all().iter().zip(spans.self_times()) {
        if s.name == "txn" {
            client_self.push(self_ns as f64 / 1e3);
        }
    }
    let queue_us = delta.mean("server.queue_us");
    let twopc = per_txn("shard.twopc.commits");
    let durable_wait = (1.0 - twopc) * delta.mean("server.flush_us")
        + twopc * (delta.mean("shard.twopc.prepare_us") + delta.mean("shard.twopc.coord_us"));
    let path_us = client_self.median()
        + rtts_per_txn * (echo.mean() + queue_us)
        + layers.txn_ops_us.clone().median()
        + layers.commit_prepare_us.mean()
        + durable_wait;
    let txn_p50 = untraced.txn_us.clone().median();
    m("wire.echo_rtt_us", echo.mean(), "us");
    m("trace.client_self_us", client_self.median(), "us");
    m("trace.path_sum_us", path_us, "us");
    let residual = ratio(txn_p50 - path_us, txn_p50);
    m("trace.path_residual_frac", residual, "frac");
    // The path is that of one typical transaction; only a workload whose
    // transactions all take it (no delegation, no second shard) is held
    // to the slack.
    let uniform = w.mix.delegation == 0.0 && w.shards == 1;
    if uniform && residual.abs() > PATH_SLACK {
        eprintln!(
            "perfbench: the blocking path's layers ({path_us:.1} us) miss the median \
             transaction ({txn_p50:.1} us) by more than {PATH_SLACK}"
        );
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload shrunk so a whole traced run takes a few seconds.
    fn smoke(w: Workload) -> Workload {
        let history = match w.history {
            History::Served { .. } => History::Served { txns: 40 },
            History::DelegationMix(spec) => {
                History::DelegationMix(WorkloadSpec { txns: 300, ..spec })
            }
        };
        Workload { history, restarts: 2, ..w }
    }

    fn per_layer_names() -> Vec<String> {
        let doc =
            rh_obs::json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let Some(rh_obs::json::JsonValue::Arr(items)) = doc.get("per_layer") else {
            panic!("per_layer list");
        };
        items
            .iter()
            .map(|m| match m.get("name") {
                Some(rh_obs::json::JsonValue::Str(s)) => s.clone(),
                other => panic!("metric name {other:?}"),
            })
            .collect()
    }

    #[test]
    fn traced_runs_emit_every_per_layer_metric() {
        let want = per_layer_names();
        let work = Path::new(".perfbench_run").join("test");
        for w in workloads() {
            let out = run(&smoke(w), 7, 1.0, true, &work);
            assert!(out.correct, "{}: {out:?}", w.name);
            assert_eq!(out.failed, 0, "{}", w.name);
            let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            assert_eq!(got, want, "{}: per-layer metric names", w.name);
            let value = |name: &str| out.metrics.iter().find(|m| m.name == name).map(|m| m.value);
            let delegation = [
                "scope.delegates_per_txn",
                "twopc.commit_frac",
                "twopc.prepare_us",
                "twopc.coord_us",
            ];
            for name in delegation {
                let v = value(name).expect(name);
                match w.name {
                    "oltp_plain" => assert_eq!(v, 0.0, "{name} on oltp_plain"),
                    "oltp_deleg_xshard" => assert!(v > 0.0, "{name} on oltp_deleg_xshard"),
                    _ => {}
                }
            }
            assert!(value("recovery.gap_skips").is_some());
            if w.name == "oltp_plain" {
                let residual = value("trace.path_residual_frac").expect("path residual");
                assert!(
                    residual.abs() <= PATH_SLACK,
                    "oltp_plain: the blocking path misses the median transaction by {residual}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&work);
    }
}
