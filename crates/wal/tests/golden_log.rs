//! Golden on-disk format: a segment directory and master record written
//! by an earlier build of this crate are checked in under `golden/`, and
//! this build must open them and read back the same records, and write
//! the same script to the same bytes. Any change to the frame layout, the
//! CRC or the record codec breaks it — on purpose: the bytes on disk are
//! a format, not an implementation detail.

use rh_common::{Lsn, ObjectId, TxnId, UpdateOp};
use rh_wal::record::{DelegateBody, LogRecord, RecordBody};
use rh_wal::{FileLogConfig, LogManager, StableLog};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Segment-roll threshold the golden log was written with: small, so the
/// script spans several segment files.
const SEGMENT_BYTES: u64 = 512;

/// The record script the golden log holds, as `(txn, prev_lsn, body)`
/// appended in order (LSNs are assigned densely from 0). Every record
/// type appears, both delegate forms, both update operations, an empty
/// and a non-empty checkpoint payload, and enough updates to roll.
fn golden_script() -> Vec<(TxnId, Lsn, RecordBody)> {
    let upd = |ob: u64, op: UpdateOp| RecordBody::Update { ob: ObjectId(ob), op };
    let mut s = vec![
        (TxnId(1), Lsn::NULL, RecordBody::Begin),
        (TxnId(1), Lsn(0), upd(3, UpdateOp::Write { before: 0, after: 7 })),
        (TxnId(1), Lsn(1), upd(4, UpdateOp::Add { delta: -5 })),
        (TxnId(2), Lsn::NULL, RecordBody::Begin),
        (
            TxnId(1),
            Lsn(2),
            RecordBody::Delegate {
                tee: TxnId(2),
                tee_bc: Lsn(3),
                body: DelegateBody::Objects(vec![ObjectId(3), ObjectId(4)]),
            },
        ),
        (
            TxnId(2),
            Lsn(4),
            RecordBody::Clr {
                ob: ObjectId(4),
                op: UpdateOp::Add { delta: 5 },
                compensated: Lsn(2),
                undo_next: Lsn::NULL,
            },
        ),
        (TxnId(2), Lsn(5), RecordBody::Commit),
        (TxnId(2), Lsn(6), RecordBody::End),
        (TxnId(1), Lsn(4), RecordBody::Abort),
        (TxnId(1), Lsn(8), RecordBody::End),
        (TxnId::NONE, Lsn::NULL, RecordBody::CheckpointBegin),
        (
            TxnId::NONE,
            Lsn(10),
            RecordBody::CheckpointEnd { payload: (0..=255u8).cycle().take(300).collect() },
        ),
        (TxnId(3), Lsn::NULL, RecordBody::Begin),
        (
            TxnId(3),
            Lsn(12),
            RecordBody::Delegate { tee: TxnId(4), tee_bc: Lsn::NULL, body: DelegateBody::All },
        ),
        (TxnId(4), Lsn(13), RecordBody::Prepare),
        (TxnId(4), Lsn(14), RecordBody::CoordCommit { participants: vec![0, 2, 5] }),
        (TxnId::NONE, Lsn::NULL, RecordBody::CheckpointBegin),
        (TxnId::NONE, Lsn(16), RecordBody::CheckpointEnd { payload: Vec::new() }),
    ];
    let mut prev = Lsn::NULL;
    for i in 0..40u64 {
        let lsn = Lsn(s.len() as u64);
        s.push((TxnId(5), prev, upd(i % 6, UpdateOp::Add { delta: i as i64 * 3 - 50 })));
        prev = lsn;
    }
    s.push((TxnId(5), prev, RecordBody::Commit));
    s
}

/// The master record points at the first checkpoint's begin record.
const MASTER: Lsn = Lsn(10);

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn scratch(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rh-wal-golden-{}-{}-{}",
        std::process::id(),
        name,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// File name → bytes for every file in `dir`.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let p = e.unwrap().path();
            (p.file_name().unwrap().to_string_lossy().into_owned(), std::fs::read(&p).unwrap())
        })
        .collect();
    out.sort();
    out
}

fn expected() -> Vec<LogRecord> {
    golden_script()
        .into_iter()
        .enumerate()
        .map(|(i, (txn, prev_lsn, body))| LogRecord { lsn: Lsn(i as u64), txn, prev_lsn, body })
        .collect()
}

#[test]
fn golden_log_opens_and_reads_back_record_for_record() {
    // Open a copy: opening may repair a directory, and the golden bytes
    // must stay pristine.
    let dir = scratch("open");
    for (name, bytes) in files(&golden_dir()) {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let stable =
        StableLog::open_file(FileLogConfig::new(&dir).segment_bytes(SEGMENT_BYTES)).unwrap();
    let report = stable.open_report().unwrap();
    let want = expected();
    assert_eq!(report.records, want.len() as u64);
    assert_eq!((report.torn_bytes, report.segments_removed), (0, 0));
    assert_eq!(stable.master(), MASTER);

    let log = LogManager::attach(stable);
    for rec in &want {
        assert_eq!(&log.read(rec.lsn).unwrap(), rec, "record {}", rec.lsn.raw());
    }
    let mut scanned = Vec::new();
    log.scan_forward(Lsn::FIRST, log.last_lsn(), |rec| {
        scanned.push(rec.clone());
        Ok(())
    })
    .unwrap();
    assert_eq!(scanned, want);

    // The checkpoint directory is rebuilt from the opened frames.
    assert_eq!(log.checkpoint_end_at_or_below(log.last_lsn()), Some(Lsn(17)));
    assert_eq!(log.checkpoint_end_at_or_below(Lsn(16)), Some(Lsn(11)));
    assert_eq!(log.checkpoint_end_at_or_below(Lsn(11)), Some(Lsn(11)));
    assert_eq!(log.checkpoint_end_at_or_below(Lsn(10)), None);
}

#[test]
fn this_build_writes_the_golden_bytes() {
    let dir = scratch("write");
    let stable =
        StableLog::open_file(FileLogConfig::new(&dir).segment_bytes(SEGMENT_BYTES)).unwrap();
    let log = LogManager::attach(stable);
    for (txn, prev, body) in golden_script() {
        log.append(txn, prev, body);
    }
    log.flush_all().unwrap();
    log.stable().set_master(MASTER).unwrap();
    let golden = files(&golden_dir());
    let written = files(&dir);
    let names = |fs: &[(String, Vec<u8>)]| fs.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&written), names(&golden));
    for ((name, got), (_, want)) in written.iter().zip(&golden) {
        assert!(got == want, "{name} differs from the golden bytes");
    }
}
