//! The flight recorder's durable side channel: a small segment stream
//! next to the main log.
//!
//! A [`SidecarLog`] reuses the whole [`SegmentedFileLog`] machinery —
//! CRC32 frames, LSN-named segments, torn-tail truncation on open — for
//! a stream of *observability* records (the black-box payloads encoded
//! by `rh_obs::blackbox`) that must survive the process that wrote them.
//! It lives in an `obs/` subdirectory of the log directory:
//!
//! ```text
//! wal/
//!   00000000000000000000.seg    the real log
//!   master
//!   obs/
//!     00000000000000000000.seg  black-box records (this module)
//! ```
//!
//! The main log's open scan never sees the sidecar (it only lists
//! *files*, and only `<20-digit>.seg` names at that), and vice versa —
//! the two streams are fully independent: a torn sidecar tail is
//! truncated on open exactly like a torn log tail, and can never fail
//! recovery of the main log.
//!
//! Differences from the main log, all deliberate:
//!
//! * **Sequence numbers, not LSNs.** Records are numbered densely from
//!   0 by the stream itself; they have no relationship to log LSNs.
//! * **Every append syncs.** A black box that loses its newest record to
//!   a crash is useless; the stream is low-rate (commit cadence plus
//!   checkpoints), so one fsync per record is cheap — and it is paid on
//!   the flight recorder's writer thread, never under the engine mutex.
//! * **Records name their own position.** [`SidecarLog::append_with`]
//!   encodes a payload under the append lock, so a record's embedded
//!   sequence number always equals its position in the stream.
//! * **Bounded retention.** Only the most recent
//!   [`SIDECAR_KEEP_RECORDS`] records matter; older whole segments are
//!   pruned opportunistically after each append.

use crate::filelog::{FileLogConfig, OpenReport, SegmentedFileLog};
use crate::io::{StdIo, WalIo};
use parking_lot::Mutex;
use rh_common::{Lsn, Result};
use rh_obs::names;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Subdirectory (inside a log directory) holding the sidecar stream.
pub const SIDECAR_SUBDIR: &str = "obs";

/// Retention target: pruning keeps at least this many newest records
/// (more survive in practice — pruning drops whole segments only).
pub const SIDECAR_KEEP_RECORDS: u64 = 64;

/// Sidecar segment-roll threshold. Small, so retention pruning gets
/// segment boundaries to work with.
pub const SIDECAR_SEGMENT_BYTES: u64 = 256 << 10;

/// The durable observability side channel. See the module docs.
#[derive(Debug)]
pub struct SidecarLog {
    log: SegmentedFileLog,
    /// Serializes append+sync+prune so sequence numbers stay dense even
    /// with racing writers.
    append: Mutex<()>,
}

impl SidecarLog {
    /// The sidecar directory for a given main-log directory.
    pub fn dir_for(log_dir: &Path) -> PathBuf {
        log_dir.join(SIDECAR_SUBDIR)
    }

    /// Opens (creating if needed) the sidecar stream in `dir` over the
    /// real filesystem, truncating any torn tail.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with(Arc::new(StdIo), dir)
    }

    /// Opens the stream through an explicit I/O layer (crash tests
    /// inject faults here, sharing the injector with the main log).
    pub fn open_with(io: Arc<dyn WalIo>, dir: impl Into<PathBuf>) -> Result<Self> {
        Self::open_cfg(io, FileLogConfig::new(dir).segment_bytes(SIDECAR_SEGMENT_BYTES))
    }

    /// Opens with full configuration control (tests shrink segments to
    /// exercise pruning).
    pub fn open_cfg(io: Arc<dyn WalIo>, cfg: FileLogConfig) -> Result<Self> {
        Ok(SidecarLog {
            log: SegmentedFileLog::open_with(io, cfg)?,
            append: Mutex::named((), names::LS_WAL_APPEND),
        })
    }

    /// What the open scan found and repaired (torn black-box tails show
    /// up here).
    pub fn open_report(&self) -> OpenReport {
        self.log.open_report()
    }

    /// The directory holding the stream.
    pub fn dir(&self) -> &Path {
        self.log.dir()
    }

    /// Records currently retained.
    pub fn len(&self) -> u64 {
        self.log.len() as u64
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.log.len() == 0
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.log.horizon()
    }

    /// Appends one record, syncs it to stable storage, and prunes old
    /// segments past the retention target. Returns the record's sequence
    /// number. Pruning is best-effort: a failed prune never fails the
    /// append that triggered it.
    pub fn append(&self, payload: &[u8]) -> Result<u64> {
        self.append_with(|_| payload)
    }

    /// [`SidecarLog::append`] for a payload that embeds its own sequence
    /// number: `encode` runs under the append lock with the number the
    /// record will get, so racing writers can never embed the same one.
    pub fn append_with<P: AsRef<[u8]>>(&self, encode: impl FnOnce(u64) -> P) -> Result<u64> {
        // The whole record-append — encode, write, sync, prune — is
        // serialized under the sidecar's own append mutex on purpose:
        // black-box records are rare, must be whole on disk, and must
        // never interleave. Nothing else ever nests inside this lock.
        let _guard = self.append.lock();
        let seq = self.log.horizon();
        let payload = encode(seq);
        self.log.append_encoded(Lsn(seq), payload.as_ref())?; // rh-analyze: allow(L6)
        self.log.sync()?; // rh-analyze: allow(L6)
        let retained = self.log.len() as u64;
        if retained > SIDECAR_KEEP_RECORDS {
            // rh-analyze: allow(L6)
            let _ = self.log.truncate_prefix(Lsn(self.log.horizon() - SIDECAR_KEEP_RECORDS));
        }
        Ok(seq)
    }

    /// Reads the record with sequence number `seq` (errors when pruned
    /// or never written).
    pub fn read(&self, seq: u64) -> Result<Arc<[u8]>> {
        self.log.read_encoded(Lsn(seq))
    }

    /// The newest retained record, as `(seq, payload)`; `None` when the
    /// stream is empty or the newest record is unreadable.
    pub fn last(&self) -> Option<(u64, Arc<[u8]>)> {
        let horizon = self.log.horizon();
        if self.log.len() == 0 {
            return None;
        }
        let seq = horizon - 1;
        self.read(seq).ok().map(|payload| (seq, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rh-wal-sidecar-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_read_last_and_reopen() {
        let dir = scratch("basic");
        let side = SidecarLog::open(&dir).unwrap();
        assert!(side.is_empty());
        assert!(side.last().is_none());
        for i in 0..5u64 {
            assert_eq!(side.append(format!("bb-{i}").as_bytes()).unwrap(), i);
        }
        assert_eq!(side.len(), 5);
        assert_eq!(&*side.read(2).unwrap(), b"bb-2");
        let (seq, payload) = side.last().unwrap();
        assert_eq!(seq, 4);
        assert_eq!(&*payload, b"bb-4");
        drop(side);

        let side2 = SidecarLog::open(&dir).unwrap();
        assert_eq!(side2.open_report().records, 5);
        assert_eq!(side2.next_seq(), 5);
        assert_eq!(side2.last().unwrap().0, 4);
    }

    #[test]
    fn racing_append_with_embeds_each_records_own_position() {
        let dir = scratch("race");
        let side = SidecarLog::open(&dir).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..8 {
                        side.append_with(|seq| seq.to_string()).unwrap();
                    }
                });
            }
        });
        assert_eq!(side.len(), 32);
        for seq in 0..32u64 {
            assert_eq!(&*side.read(seq).unwrap(), seq.to_string().as_bytes());
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_last_falls_back() {
        let dir = scratch("torn");
        let side = SidecarLog::open(&dir).unwrap();
        for i in 0..3u64 {
            side.append(format!("record-{i}").as_bytes()).unwrap();
        }
        drop(side);

        // Chop bytes off the active segment: record 2 becomes torn.
        let seg = crate::segment::segment_path(&dir, 0);
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let side2 = SidecarLog::open(&dir).unwrap();
        let report = side2.open_report();
        assert_eq!(report.records, 2);
        assert!(report.torn_bytes > 0);
        // The newest *intact* record is what a postmortem sees.
        let (seq, payload) = side2.last().unwrap();
        assert_eq!(seq, 1);
        assert_eq!(&*payload, b"record-1");
        // The stream keeps working after the repair.
        assert_eq!(side2.append(b"record-2-again").unwrap(), 2);
    }

    #[test]
    fn retention_prunes_old_segments_but_keeps_the_target() {
        let dir = scratch("prune");
        // Tiny segments so pruning has boundaries to drop.
        let cfg = FileLogConfig::new(&dir).segment_bytes(64);
        let side = SidecarLog::open_cfg(Arc::new(StdIo), cfg).unwrap();
        let total = SIDECAR_KEEP_RECORDS * 3;
        for i in 0..total {
            side.append(format!("record-{i:05}").as_bytes()).unwrap();
        }
        assert!(side.len() < total, "old segments should have been pruned");
        assert!(side.len() >= SIDECAR_KEEP_RECORDS, "retention target violated");
        // The newest records always survive; the oldest are gone.
        assert_eq!(side.last().unwrap().0, total - 1);
        assert!(side.read(0).is_err());
    }

    #[test]
    fn sidecar_is_invisible_to_the_main_log() {
        let dir = scratch("invisible");
        let main = SegmentedFileLog::open(FileLogConfig::new(&dir)).unwrap();
        main.append_encoded(Lsn(0), b"real-log-record").unwrap();
        main.sync().unwrap();
        drop(main);

        let side = SidecarLog::open(SidecarLog::dir_for(&dir)).unwrap();
        side.append(b"black-box").unwrap();
        drop(side);

        // Reopening the main log neither sees nor disturbs the sidecar.
        let main2 = SegmentedFileLog::open(FileLogConfig::new(&dir)).unwrap();
        assert_eq!(main2.open_report().records, 1);
        assert_eq!(main2.horizon(), 1);
        let side2 = SidecarLog::open(SidecarLog::dir_for(&dir)).unwrap();
        assert_eq!(side2.last().unwrap().0, 0);
    }
}
