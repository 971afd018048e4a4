//! Reenactment seeds from the WAL's checkpoint directory instead of
//! searching the log backward. The directory must give the seed the
//! backward search gives — the newest *decodable* `CheckpointEnd` at or
//! below the target and at or above the log's first retained LSN — for
//! every target, across several checkpoints, a prefix truncation, a crash
//! and reopen (the directory is rebuilt from the opened frames), a
//! `CheckpointEnd` whose snapshot does not decode, and one still in the
//! volatile tail.
//!
//! Values and versions are checked against a replay of the same records
//! on an in-memory mirror log, read a record at a time.

use rh_common::codec::Codec;
use rh_common::{Lsn, ObjectId, TxnId};
use rh_core::checkpoint::CheckpointSnapshot;
use rh_core::engine::{DbConfig, RhDb, Strategy};
use rh_core::reenact::replay;
use rh_core::TxnEngine;
use rh_wal::record::RecordBody;
use rh_wal::{FileLogConfig, LogManager, StableLog};
use std::path::PathBuf;

const A: ObjectId = ObjectId(0);
const B: ObjectId = ObjectId(1);
const C: ObjectId = ObjectId(2);
const D: ObjectId = ObjectId(3);
const E: ObjectId = ObjectId(4);
const OBJECTS: [ObjectId; 5] = [A, B, C, D, E];

/// Small segments, so truncation (whole segments only) drops records.
const SEGMENT_BYTES: u64 = 1024;

fn config(dir: &PathBuf) -> FileLogConfig {
    FileLogConfig::new(dir).segment_bytes(SEGMENT_BYTES)
}

/// A few committed and aborted transactions with a delegation.
fn round(db: &mut RhDb, r: i64) {
    let t1 = db.begin().unwrap();
    db.write(t1, A, r * 10 + 1).unwrap();
    db.add(t1, B, r + 1).unwrap();
    let t2 = db.begin().unwrap();
    db.add(t2, C, 2).unwrap();
    db.delegate(t1, t2, &[B]).unwrap();
    db.commit(t1).unwrap();
    if r % 2 == 1 {
        db.abort(t2).unwrap();
    } else {
        db.commit(t2).unwrap();
    }
}

/// Appends a `CheckpointEnd` whose snapshot does not decode.
fn bad_checkpoint_end(db: &RhDb) -> Lsn {
    db.log().append(TxnId::NONE, Lsn::NULL, RecordBody::CheckpointEnd { payload: vec![0xFF; 5] })
}

/// The seed by the old rule: search backward from the target for the
/// newest decodable `CheckpointEnd`, stopping at the first retained LSN.
fn backward_seed(log: &LogManager, target: Lsn) -> Option<Lsn> {
    let first = log.first_lsn();
    let mut l = target;
    while !l.is_null() && l >= first {
        if let RecordBody::CheckpointEnd { payload } = log.read(l).unwrap().body {
            if CheckpointSnapshot::from_bytes(&payload).is_ok() {
                return Some(l);
            }
        }
        l = l.prev();
    }
    None
}

/// An in-memory log holding the same records at the same LSNs, with the
/// same first retained LSN and the same stable/volatile split.
fn mirror(log: &LogManager) -> LogManager {
    let m = LogManager::new();
    let first = log.first_lsn().raw();
    for _ in 0..first {
        m.append(TxnId::NONE, Lsn::NULL, RecordBody::CheckpointBegin);
    }
    m.flush_all().unwrap();
    assert_eq!(m.truncate_prefix(Lsn(first)).unwrap(), first);
    for l in first..log.len() as u64 {
        let rec = log.read(Lsn(l)).unwrap();
        m.append(rec.txn, rec.prev_lsn, rec.body);
    }
    m.flush_to(Lsn(log.stable_len() as u64 - 1)).unwrap();
    assert_eq!(m.stable_len(), log.stable_len());
    m
}

#[test]
fn directory_seed_matches_the_backward_search_for_every_target() {
    let dir = std::env::temp_dir().join(format!("rh-ckpt-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = RhDb::with_stable_log(
        Strategy::Rh,
        DbConfig::default(),
        StableLog::open_file(config(&dir)).unwrap(),
    );

    round(&mut db, 0);
    // A scope straddling a checkpoint: its update sits behind the seed.
    let s = db.begin().unwrap();
    db.write(s, D, 5).unwrap();
    db.checkpoint().unwrap();
    let first_checkpoint_end = db.log().last_lsn();
    round(&mut db, 1);
    db.commit(s).unwrap();
    round(&mut db, 2);
    db.checkpoint().unwrap();
    // The newest CheckpointEnd does not decode: seeds fall back past it.
    let bad = bad_checkpoint_end(&db);
    db.log().flush_all().unwrap();
    round(&mut db, 3);
    let l = db.begin().unwrap();
    db.add(l, E, 9).unwrap();
    db.checkpoint().unwrap();
    round(&mut db, 4);
    db.abort(l).unwrap();
    assert!(db.truncate_log().unwrap() > 0, "truncation must drop a segment");
    // The dropped checkpoints left the directory with the records.
    assert!(first_checkpoint_end < db.log().first_lsn(), "truncation must drop a checkpoint");
    assert_eq!(db.log().checkpoint_end_at_or_below(db.log().first_lsn().prev()), None);
    round(&mut db, 5);
    db.checkpoint().unwrap();
    round(&mut db, 6);

    // Crash, reopen the directory (rebuilding the checkpoint directory
    // from the opened frames), recover, and keep going.
    let (stable, disk) = db.crash();
    drop(stable);
    let stable = StableLog::open_file(config(&dir)).unwrap();
    let mut db = RhDb::recover(Strategy::Rh, DbConfig::default(), stable, disk).unwrap();
    round(&mut db, 7);
    db.checkpoint().unwrap();
    round(&mut db, 8);
    // An active transaction and an undecodable CheckpointEnd, both still
    // in the volatile tail.
    let t = db.begin().unwrap();
    db.write(t, A, 77).unwrap();
    let tail_bad = bad_checkpoint_end(&db);

    let log = db.log();
    assert!(log.first_lsn() > Lsn::FIRST);
    assert!(tail_bad.raw() >= log.stable_len() as u64, "the last record must be volatile");
    assert_eq!(log.checkpoint_end_at_or_below(tail_bad), Some(tail_bad));
    assert_eq!(log.checkpoint_end_at_or_below(bad), Some(bad));
    let reference = mirror(log);

    let mut seeded = 0;
    let mut fell_back = 0;
    for target in 0..log.len() as u64 {
        let target = Lsn(target);
        for ob in OBJECTS {
            let file = replay(log, ob, target);
            let mem = replay(&reference, ob, target);
            if target < log.first_lsn() {
                assert!(file.is_err() && mem.is_err(), "target {target} precedes the log");
                continue;
            }
            let (file, mem) = (file.unwrap(), mem.unwrap());
            let want = backward_seed(log, target);
            assert_eq!(file.seeded_from, want, "seed for {ob} at {target}");
            assert_eq!(mem.seeded_from, want, "mirror seed for {ob} at {target}");
            assert_eq!(file.value(), mem.value(), "value of {ob} at {target}");
            assert_eq!(file.versions(), mem.versions(), "versions of {ob} at {target}");
            // Truncation trimmed the directory: it names no dropped record.
            let newest = log.checkpoint_end_at_or_below(target);
            assert!(newest.is_none_or(|c| c >= log.first_lsn()), "stale entry at {target}");
            seeded += usize::from(want.is_some());
            fell_back += usize::from(newest.is_some_and(|c| Some(c) != want));
        }
    }
    assert!(seeded > 0, "some targets must seed");
    assert!(fell_back > 0, "some targets must fall back past an undecodable CheckpointEnd");
    let _ = std::fs::remove_dir_all(&dir);
}
