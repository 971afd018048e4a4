//! The file backend's run reader behind `LogManager::scan_forward`:
//! records fetched a run at a time must be exactly the records a
//! per-record `read` returns — across segment rolls, into the volatile
//! tail, for frames larger than the run buffer — and must be counted the
//! same way. A corrupted frame mid-run must fail the scan at exactly that
//! record, with a read no larger than the run bound.

use rh_common::{Lsn, ObjectId, RhError, TxnId, UpdateOp};
use rh_wal::filelog::RUN_BYTES;
use rh_wal::frame::HEADER_LEN;
use rh_wal::io::{StdIo, WalFile, WalIo};
use rh_wal::record::{LogRecord, RecordBody};
use rh_wal::{FileLogConfig, LogManager, StableLog};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rh-wal-run-{}-{}-{}",
        std::process::id(),
        name,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &PathBuf, segment_bytes: u64) -> LogManager {
    LogManager::attach(
        StableLog::open_file(FileLogConfig::new(dir).segment_bytes(segment_bytes)).unwrap(),
    )
}

fn upd(i: u64) -> RecordBody {
    RecordBody::Update { ob: ObjectId(i % 7), op: UpdateOp::Add { delta: i as i64 } }
}

fn scan(log: &LogManager, from: u64, to: u64) -> Vec<LogRecord> {
    let mut out = Vec::new();
    log.scan_forward(Lsn(from), Lsn(to), |rec| {
        out.push(rec.clone());
        Ok(())
    })
    .unwrap();
    out
}

fn read_each(log: &LogManager, from: u64, to: u64) -> Vec<LogRecord> {
    (from..=to).map(|l| log.read(Lsn(l)).unwrap()).collect()
}

#[test]
fn scan_forward_crosses_segment_boundaries() {
    let dir = scratch("segments");
    {
        let log = open(&dir, 200);
        for i in 0..300 {
            log.append(TxnId(1 + i % 3), Lsn::NULL, upd(i));
        }
        log.flush_all().unwrap();
    }
    // Reopen so every record comes from disk.
    let log = open(&dir, 200);
    let segments = std::fs::read_dir(&dir).unwrap().count();
    assert!(segments > 20, "expected many segments, got {segments}");

    for (from, to) in [(0, 299), (37, 251), (5, 5), (298, 299)] {
        log.metrics().reset();
        let runs = scan(&log, from, to);
        let by_runs = log.metrics().snapshot();
        log.metrics().reset();
        let singles = read_each(&log, from, to);
        let by_reads = log.metrics().snapshot();
        assert_eq!(runs, singles, "[{from}, {to}]");
        assert_eq!(runs.len() as u64, to - from + 1);
        // Run reads count exactly what per-record reads count.
        assert_eq!(by_runs.records_read, to - from + 1);
        assert_eq!(by_runs.records_read, by_reads.records_read);
        assert_eq!(by_runs.seeks, by_reads.seeks);
    }

    // An identical scan counts identically.
    log.metrics().reset();
    scan(&log, 0, 299);
    let first = log.metrics().snapshot().records_read;
    log.metrics().reset();
    scan(&log, 0, 299);
    assert_eq!(log.metrics().snapshot().records_read, first);
}

#[test]
fn run_ends_in_the_volatile_tail() {
    let dir = scratch("tail");
    let log = open(&dir, 4 << 20);
    for i in 0..50 {
        log.append(TxnId(1), Lsn::NULL, upd(i));
    }
    log.flush_to(Lsn(29)).unwrap();
    assert_eq!(log.stable_len(), 30);

    log.metrics().reset();
    let runs = scan(&log, 10, 49);
    assert_eq!(log.metrics().snapshot().records_read, 40);
    assert_eq!(runs, read_each(&log, 10, 49));

    // The callback may flush: no log lock is held while it runs, and the
    // scan keeps going across the moving stable horizon.
    let mut seen = Vec::new();
    log.scan_forward(Lsn(0), Lsn(49), |rec| {
        if rec.lsn == Lsn(35) {
            log.flush_all()?;
        }
        seen.push(rec.lsn.raw());
        Ok(())
    })
    .unwrap();
    assert_eq!(seen, (0..50).collect::<Vec<_>>());
    assert_eq!(log.stable_len(), 50);
}

#[test]
fn frame_larger_than_the_run_buffer_is_read_whole() {
    let dir = scratch("big");
    {
        let log = open(&dir, 4 << 20);
        // Enough small records on both sides to need several runs.
        for i in 0..6_000 {
            log.append(TxnId(1), Lsn::NULL, upd(i));
        }
        let payload: Vec<u8> = (0..RUN_BYTES + 1_000).map(|i| (i % 251) as u8).collect();
        log.append(TxnId::NONE, Lsn::NULL, RecordBody::CheckpointEnd { payload });
        for i in 0..6_000 {
            log.append(TxnId(1), Lsn::NULL, upd(i));
        }
        log.flush_all().unwrap();
    }
    let log = open(&dir, 4 << 20);
    let last = log.last_lsn().raw();
    let runs = scan(&log, 0, last);
    assert_eq!(runs, read_each(&log, 0, last));
    match &runs[6_000].body {
        RecordBody::CheckpointEnd { payload } => assert_eq!(payload.len(), RUN_BYTES + 1_000),
        other => panic!("expected the large checkpoint record, got {}", other.kind()),
    }
    // A run may also start at the large frame itself.
    assert_eq!(scan(&log, 6_000, 6_001), read_each(&log, 6_000, 6_001));
}

#[test]
fn mem_backend_scans_the_same_records() {
    let log = LogManager::new();
    for i in 0..40 {
        log.append(TxnId(1), Lsn::NULL, upd(i));
    }
    log.flush_to(Lsn(19)).unwrap();
    log.metrics().reset();
    assert_eq!(scan(&log, 3, 39), read_each(&log, 3, 39));
    assert_eq!(log.metrics().snapshot().records_read, 2 * 37);
}

/// Real I/O that records the largest buffer any positioned read filled.
/// The run reader sizes its buffer from the index, read for read, so
/// this is also the largest buffer a scan allocates.
#[derive(Debug, Default)]
struct ReadRecorder {
    largest: Arc<AtomicUsize>,
}

#[derive(Debug)]
struct RecordingFile {
    inner: Arc<dyn WalFile>,
    largest: Arc<AtomicUsize>,
}

impl WalFile for RecordingFile {
    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
        self.largest.fetch_max(buf.len(), Ordering::Relaxed);
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> std::io::Result<usize> {
        self.inner.write_at(offset, data)
    }
    fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.inner.set_len(len)
    }
    fn sync(&self) -> std::io::Result<()> {
        self.inner.sync()
    }
}

impl WalIo for ReadRecorder {
    fn open(&self, path: &Path) -> std::io::Result<Arc<dyn WalFile>> {
        let inner = StdIo.open(path)?;
        Ok(Arc::new(RecordingFile { inner, largest: Arc::clone(&self.largest) }))
    }
    fn create(&self, path: &Path) -> std::io::Result<Arc<dyn WalFile>> {
        let inner = StdIo.create(path)?;
        Ok(Arc::new(RecordingFile { inner, largest: Arc::clone(&self.largest) }))
    }
    fn list(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        StdIo.list(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        StdIo.rename(from, to)
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        StdIo.remove(path)
    }
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        StdIo.create_dir_all(dir)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        StdIo.sync_dir(dir)
    }
}

#[test]
fn flipped_byte_mid_run_is_a_typed_error_at_that_lsn() {
    const RECORDS: u64 = 2_000;
    const VICTIM: u64 = 1_000;
    let dir = scratch("corrupt");
    let io = ReadRecorder::default();
    let largest = Arc::clone(&io.largest);
    let log = LogManager::attach(
        StableLog::open_file_with(Arc::new(io), FileLogConfig::new(&dir)).unwrap(),
    );
    for i in 0..RECORDS {
        log.append(TxnId(1), Lsn::NULL, upd(i));
    }
    log.flush_all().unwrap();

    // Locate the victim's frame by walking the segment's length headers.
    let seg_path = dir.join(format!("{:020}.seg", 0));
    let bytes = std::fs::read(&seg_path).unwrap();
    assert!(bytes.len() < RUN_BYTES, "the scan must be a single run");
    let mut offset = 0usize;
    for _ in 0..VICTIM {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        offset += HEADER_LEN + len;
    }
    let payload_len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
    let frame_len = HEADER_LEN + payload_len;
    let seg = std::fs::OpenOptions::new().write(true).open(&seg_path).unwrap();

    // Every header byte (length and CRC), and payload bytes at both ends
    // and in the middle, each flipped at its low and at its high bit. The
    // high bit of length byte 3 claims a ~2 GiB frame: the worst case for
    // a reader that trusted the header.
    let positions =
        (0..HEADER_LEN).chain([HEADER_LEN, HEADER_LEN + payload_len / 2, frame_len - 1]);
    for pos in positions {
        for mask in [0x01u8, 0x80] {
            let at = (offset + pos) as u64;
            seg.write_at(&[bytes[offset + pos] ^ mask], at).unwrap();

            largest.store(0, Ordering::Relaxed);
            let mut delivered = Vec::new();
            let result = log.scan_forward(Lsn::FIRST, log.last_lsn(), |rec| {
                delivered.push(rec.lsn.raw());
                Ok(())
            });
            match result {
                Err(RhError::CorruptLog { lsn, .. }) => {
                    assert_eq!(lsn, Lsn(VICTIM), "byte {pos} mask {mask:#x}")
                }
                other => panic!("byte {pos} mask {mask:#x}: expected CorruptLog, got {other:?}"),
            }
            // Everything before the victim was delivered, nothing after.
            assert_eq!(delivered, (0..VICTIM).collect::<Vec<_>>(), "byte {pos} mask {mask:#x}");
            let read = largest.load(Ordering::Relaxed);
            assert!(read <= RUN_BYTES, "byte {pos} mask {mask:#x}: read {read} bytes at once");

            seg.write_at(&[bytes[offset + pos]], at).unwrap();
        }
    }
    // Restored: the same scan reads everything again.
    assert_eq!(scan(&log, 0, RECORDS - 1).len() as u64, RECORDS);
}
