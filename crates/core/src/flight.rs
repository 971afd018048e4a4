//! The flight recorder: periodic black-box snapshots to a durable
//! sidecar stream.
//!
//! A [`FlightRecorder`] freezes the engine's observability context —
//! metric registry, the tail of the trace ring, the slow-op log — into
//! `rh_obs::blackbox` records and persists them through an `rh-wal`
//! [`SidecarLog`] (CRC-framed, fsynced, torn-tail-truncating) living in
//! an `obs/` subdirectory next to the log. After a crash, the *next*
//! incarnation's recovery reads the predecessor's last record and diffs
//! it against its own post-recovery state (the `postmortem` section of
//! [`crate::recovery::RecoveryReport`]).
//!
//! Recording is split in two so the commit path never waits on the
//! sidecar:
//!
//! * **Capture**, under the engine mutex: a [`Capture`] of the registry,
//!   the newest [`BLACKBOX_TRACE_EVENTS`] trace events and the slow-op
//!   log. It copies a few dozen kilobytes and touches no file.
//! * **Persist**, on the recorder's own writer thread: encode, sidecar
//!   append, fsync and prune, timed as `blackbox.persist_us`.
//!
//! Commit-cadence and checkpoint captures go into one latest-wins slot:
//! a capture the writer has not yet started is replaced by the next one
//! (counted as `blackbox.superseded`). Explicit records
//! ([`FlightRecorder::record`] — recovery, server start and drain,
//! promotion) use the same slot but wait until their own record has
//! landed, and are never replaced. Records land in capture order, and
//! each embeds its own sidecar position. A crash loses at most the
//! captures still pending; every record on disk is whole and in order.
//! Dropping the recorder drains the slot and joins the writer.
//!
//! Everything here is **best-effort by construction**: a black box must
//! never take the plane down. Append failures (including simulated
//! crashes from `FaultIo` — the recorder shares the main log's I/O
//! layer, so crash injection covers both streams) only bump
//! `blackbox.errors`; no error ever propagates into the engine. A writer
//! thread that dies (a panic in the I/O layer, say) marks itself gone on
//! the way out: a record waiting on it then fails instead of waiting
//! forever, and later records fail at once, each counted as an error.

use parking_lot::{Condvar, Mutex};
use rh_common::RhError;
use rh_obs::blackbox::Capture;
use rh_obs::{names, Obs, Stopwatch};
use rh_wal::sidecar::SidecarLog;
use rh_wal::{StableLog, WalIo};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A black box is recorded every this-many commits (plus on every
/// checkpoint, recovery, and explicit [`crate::RhDb::record_blackbox`]).
pub const COMMIT_PERIOD: u64 = 32;

/// At most this many trailing trace events are frozen per record — the
/// full default ring (65k events) would make records megabytes large,
/// and a postmortem replays only the final spans anyway.
pub const BLACKBOX_TRACE_EVENTS: usize = 512;

/// The engine-side flight recorder. See the module docs.
#[derive(Debug)]
pub struct FlightRecorder {
    shared: Arc<Shared>,
    commits: AtomicU64,
    writer: Option<JoinHandle<()>>,
}

/// What the engine and the writer thread share.
#[derive(Debug)]
struct Shared {
    sidecar: SidecarLog,
    obs: Arc<Obs>,
    epoch: Stopwatch,
    blackbox_slot: Mutex<Slot>,
    /// Signalled whenever the slot changes: a capture arrived, the
    /// writer finished one, or the recorder is shutting down.
    changed: Condvar,
}

/// Captures waiting for the writer, plus the outcomes waiters collect.
#[derive(Debug, Default)]
struct Slot {
    /// Oldest first. At most one entry is unwaited, and it is the last:
    /// a new capture replaces it.
    queue: VecDeque<Pending>,
    /// `(ticket, landed)` for waited-for records their waiter has not
    /// collected yet.
    outcomes: Vec<(u64, bool)>,
    /// The last ticket handed out; tickets number captures in order.
    last_ticket: u64,
    stop: bool,
    /// The writer thread has exited; nothing queued will land.
    writer_gone: bool,
}

#[derive(Debug)]
struct Pending {
    capture: Capture,
    ticket: u64,
    /// A caller waits for this record's outcome.
    waited: bool,
}

impl FlightRecorder {
    /// Opens (creating if needed) the sidecar stream for the log
    /// directory `log_dir`, through the same I/O layer as the main log,
    /// and starts the writer thread. Records freeze `obs`.
    pub fn attach(io: Arc<dyn WalIo>, log_dir: &Path, obs: Arc<Obs>) -> rh_common::Result<Self> {
        let sidecar = SidecarLog::open_with(io, SidecarLog::dir_for(log_dir))?;
        // Both series exist from the start, so `/metrics` shows them at 0.
        obs.registry.counter(names::M_BLACKBOX_SUPERSEDED);
        obs.registry.histogram(names::M_BLACKBOX_PERSIST_US);
        let shared = Arc::new(Shared {
            sidecar,
            obs,
            epoch: Stopwatch::start(),
            blackbox_slot: Mutex::named(Slot::default(), names::LS_CORE_BLACKBOX_SLOT),
            changed: Condvar::new(),
        });
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rh-blackbox".into())
                .spawn(move || shared.run_writer())
                .map_err(|_| RhError::Storage("flight recorder: writer thread did not start"))?
        };
        Ok(FlightRecorder { shared, commits: AtomicU64::new(0), writer: Some(writer) })
    }

    /// The recorder for a file-backed `stable` log, or `None` for an
    /// in-memory log. A recorder that cannot attach counts under
    /// `blackbox.errors` and yields `None`: the engine runs without one.
    pub fn for_log(stable: &StableLog, obs: &Arc<Obs>) -> Option<Self> {
        let (dir, io) = (stable.dir()?, stable.io()?);
        match Self::attach(io, dir, Arc::clone(obs)) {
            Ok(flight) => Some(flight),
            Err(_) => {
                obs.registry.inc(names::M_BLACKBOX_ERRORS);
                None
            }
        }
    }

    /// The underlying stream (tests inspect retention and tear repair).
    pub fn sidecar(&self) -> &SidecarLog {
        &self.shared.sidecar
    }

    /// Counts one commit; true when the cadence says "record now".
    pub fn commit_due(&self) -> bool {
        self.commits.fetch_add(1, Ordering::Relaxed) % COMMIT_PERIOD == COMMIT_PERIOD - 1
    }

    /// Captures one record and returns at once; the writer thread
    /// persists it unless a newer capture replaces it first.
    pub fn capture(&self, reason: &str) {
        let _ = self.shared.submit(&mut self.shared.blackbox_slot.lock(), reason, false);
    }

    /// Captures one record and waits until it is durable. Returns
    /// whether it landed; failures bump `blackbox.errors` and are
    /// otherwise swallowed — the flight recorder must never fail the
    /// engine.
    pub fn record(&self, reason: &str) -> bool {
        let mut slot = self.shared.blackbox_slot.lock();
        let Some(ticket) = self.shared.submit(&mut slot, reason, true) else { return false };
        loop {
            if let Some(i) = slot.outcomes.iter().position(|&(t, _)| t == ticket) {
                return slot.outcomes.swap_remove(i).1;
            }
            if slot.writer_gone {
                // The writer died before this record landed.
                slot.queue.retain(|p| p.ticket != ticket);
                self.shared.obs.registry.inc(names::M_BLACKBOX_ERRORS);
                return false;
            }
            self.shared.changed.wait(&mut slot);
        }
    }
}

impl Shared {
    /// Freezes the context into `slot`. The caller holds the slot lock
    /// across the capture, so queue order is capture order. Returns the
    /// capture's ticket, or `None` (counted as an error) when the writer
    /// is gone.
    fn submit(&self, slot: &mut Slot, reason: &str, waited: bool) -> Option<u64> {
        if slot.writer_gone {
            self.obs.registry.inc(names::M_BLACKBOX_ERRORS);
            return None;
        }
        let capture =
            Capture::take(&self.obs, self.epoch.elapsed_micros(), reason, BLACKBOX_TRACE_EVENTS);
        if slot.queue.back().is_some_and(|p| !p.waited) {
            slot.queue.pop_back();
            self.obs.registry.inc(names::M_BLACKBOX_SUPERSEDED);
        }
        slot.last_ticket += 1;
        let ticket = slot.last_ticket;
        slot.queue.push_back(Pending { capture, ticket, waited });
        self.changed.notify_all();
        Some(ticket)
    }

    /// The writer thread: persists captures in order until the recorder
    /// is dropped, draining whatever is still pending first.
    fn run_writer(&self) {
        let _gone = WriterGone(self);
        loop {
            let next = {
                let mut slot = self.blackbox_slot.lock();
                loop {
                    if let Some(p) = slot.queue.pop_front() {
                        break Some(p);
                    }
                    if slot.stop {
                        break None;
                    }
                    self.changed.wait(&mut slot);
                }
            };
            let Some(Pending { capture, ticket, waited }) = next else { return };
            let landed = self.persist(&capture);
            if waited {
                self.blackbox_slot.lock().outcomes.push((ticket, landed));
                self.changed.notify_all();
            }
        }
    }

    /// Encodes, appends and syncs one record.
    fn persist(&self, capture: &Capture) -> bool {
        let clock = Stopwatch::start();
        let mut len = 0;
        let appended = self.sidecar.append_with(|seq| {
            let bytes = capture.encode(seq);
            len = bytes.len();
            bytes
        });
        let registry = &self.obs.registry;
        match appended {
            Ok(seq) => {
                registry.observe(names::M_BLACKBOX_PERSIST_US, clock.elapsed_micros());
                registry.inc(names::M_BLACKBOX_RECORDS);
                registry.add(names::M_BLACKBOX_BYTES, len as u64);
                self.obs.tracer.point(
                    names::EV_BLACKBOX_RECORD,
                    seq,
                    seq,
                    rh_obs::trace::NONE,
                    len as u64,
                );
                true
            }
            Err(_) => {
                registry.inc(names::M_BLACKBOX_ERRORS);
                false
            }
        }
    }
}

/// Marks the writer gone however its thread exits, unwinding included,
/// and wakes every waiter so none waits for it forever.
struct WriterGone<'a>(&'a Shared);

impl Drop for WriterGone<'_> {
    fn drop(&mut self) {
        self.0.blackbox_slot.lock().writer_gone = true;
        self.0.changed.notify_all();
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        self.shared.blackbox_slot.lock().stop = true;
        self.shared.changed.notify_all();
        if let Some(writer) = self.writer.take() {
            // A writer that panicked has already failed its records.
            let _ = writer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_obs::BlackBoxRecord;
    use rh_wal::{FaultInjector, FaultIo, StdIo, WalFile};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rh-core-flight-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn records_land_and_parse_back() {
        let dir = scratch("roundtrip");
        let obs = Arc::new(Obs::new());
        let fr = FlightRecorder::attach(Arc::new(StdIo), &dir, Arc::clone(&obs)).unwrap();
        obs.registry.add("log.appends", 7);
        obs.tracer.point("e", 1, 1, 1, 0);
        obs.slowops.set_threshold_us(0);
        obs.record_slow_op("commit", 1, 9, 1500, vec![(names::PH_FLUSH_WAIT, 1400)]);
        assert!(fr.record("unit-test"));
        assert_eq!(obs.registry.snapshot().counter(names::M_BLACKBOX_RECORDS), 1);

        let (_, payload) = fr.sidecar().last().unwrap();
        let rec = BlackBoxRecord::parse(&payload).unwrap();
        assert_eq!(rec.reason, "unit-test");
        assert_eq!(rec.counter("log.appends"), 7);
        assert_eq!(rec.events().len(), 1);
        // The slow-op log rides into the black box with the record.
        let slow = rec.slow_ops();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].get("op").and_then(rh_obs::JsonValue::as_str), Some("commit"));
    }

    #[test]
    fn trace_tail_is_capped() {
        let dir = scratch("cap");
        let obs = Arc::new(Obs::new());
        let fr = FlightRecorder::attach(Arc::new(StdIo), &dir, Arc::clone(&obs)).unwrap();
        for i in 0..(BLACKBOX_TRACE_EVENTS as u64 + 100) {
            obs.tracer.point("e", i, i, rh_obs::trace::NONE, 0);
        }
        assert!(fr.record("cap-test"));
        let (_, payload) = fr.sidecar().last().unwrap();
        let rec = BlackBoxRecord::parse(&payload).unwrap();
        assert_eq!(rec.events().len(), BLACKBOX_TRACE_EVENTS);
    }

    #[test]
    fn commit_cadence() {
        let dir = scratch("cadence");
        let fr = FlightRecorder::attach(Arc::new(StdIo), &dir, Arc::new(Obs::new())).unwrap();
        let due: u64 = (0..(3 * COMMIT_PERIOD)).filter(|_| fr.commit_due()).count() as u64;
        assert_eq!(due, 3);
    }

    #[test]
    fn every_record_embeds_its_own_position() {
        let dir = scratch("seq");
        let obs = Arc::new(Obs::new());
        let fr = FlightRecorder::attach(Arc::new(StdIo), &dir, Arc::clone(&obs)).unwrap();
        // Cadence captures race waited-for records from other threads.
        std::thread::scope(|s| {
            s.spawn(|| (0..200).for_each(|_| fr.capture("cadence")));
            for _ in 0..2 {
                s.spawn(|| (0..10).for_each(|_| assert!(fr.record("explicit"))));
            }
        });
        drop(fr);
        let side = SidecarLog::open(SidecarLog::dir_for(&dir)).unwrap();
        let snap = obs.registry.snapshot();
        let records = snap.counter(names::M_BLACKBOX_RECORDS);
        assert_eq!(side.next_seq(), records);
        assert_eq!(records + snap.counter(names::M_BLACKBOX_SUPERSEDED), 220);
        let mut last_at = 0;
        let mut explicit = 0;
        for seq in side.next_seq() - side.len()..side.next_seq() {
            let rec = BlackBoxRecord::parse(&side.read(seq).unwrap()).unwrap();
            assert_eq!(rec.seq, seq, "embedded seq differs from the sidecar position");
            assert!(rec.at_us >= last_at, "records landed out of capture order");
            last_at = rec.at_us;
            explicit += u64::from(rec.reason == "explicit");
        }
        // Waited-for records are never superseded.
        if side.len() == records {
            assert_eq!(explicit, 20);
        }
        assert_eq!(snap.histogram(names::M_BLACKBOX_PERSIST_US).count, records);
    }

    #[test]
    fn drop_lands_the_pending_capture() {
        let dir = scratch("drop");
        let obs = Arc::new(Obs::new());
        let fr = FlightRecorder::attach(Arc::new(StdIo), &dir, Arc::clone(&obs)).unwrap();
        fr.capture("last-words");
        drop(fr);
        let side = SidecarLog::open(SidecarLog::dir_for(&dir)).unwrap();
        let rec = BlackBoxRecord::parse(&side.last().unwrap().1).unwrap();
        assert_eq!(rec.reason, "last-words");
    }

    #[test]
    fn a_crash_loses_the_pending_capture_whole() {
        let dir = scratch("pending-crash");
        let injector = FaultInjector::unlimited();
        let obs = Arc::new(Obs::new());
        let io = Arc::new(FaultIo::std(Arc::clone(&injector)));
        let fr = FlightRecorder::attach(io, &dir, Arc::clone(&obs)).unwrap();
        assert!(fr.record("before"));
        // The process dies with a capture still pending: the writer's
        // append fails and nothing of the record reaches the stream.
        injector.trip();
        fr.capture("pending");
        drop(fr);
        assert_eq!(obs.registry.snapshot().counter(names::M_BLACKBOX_ERRORS), 1);
        let side = SidecarLog::open(SidecarLog::dir_for(&dir)).unwrap();
        assert_eq!(side.open_report().torn_bytes, 0);
        assert_eq!(side.len(), 1);
        let rec = BlackBoxRecord::parse(&side.last().unwrap().1).unwrap();
        assert_eq!((rec.seq, rec.reason.as_str()), (0, "before"));
    }

    #[test]
    fn recorder_series_show_in_metrics() {
        let dir = scratch("metrics");
        let obs = Arc::new(Obs::new());
        let fr = FlightRecorder::attach(Arc::new(StdIo), &dir, Arc::clone(&obs)).unwrap();
        let text = rh_obs::promtext::render(&obs.registry.snapshot());
        assert!(text.contains("rh_blackbox_superseded 0"), "{text}");
        assert!(text.contains("rh_blackbox_persist_us_count 0"), "{text}");
        assert!(fr.record("one"));
        let text = rh_obs::promtext::render(&obs.registry.snapshot());
        assert!(text.contains("rh_blackbox_persist_us_count 1"), "{text}");
        assert!(rh_obs::promtext::validate(&text).is_ok());
    }

    /// Real I/O whose file syncs panic once `armed` is set.
    #[derive(Debug, Default)]
    struct PanicIo {
        armed: Arc<std::sync::atomic::AtomicBool>,
    }

    #[derive(Debug)]
    struct PanicFile {
        inner: Arc<dyn WalFile>,
        armed: Arc<std::sync::atomic::AtomicBool>,
    }

    impl WalFile for PanicFile {
        fn len(&self) -> std::io::Result<u64> {
            self.inner.len()
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
            self.inner.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, data: &[u8]) -> std::io::Result<usize> {
            self.inner.write_at(offset, data)
        }
        fn set_len(&self, len: u64) -> std::io::Result<()> {
            self.inner.set_len(len)
        }
        fn sync(&self) -> std::io::Result<()> {
            assert!(!self.armed.load(Ordering::Relaxed), "injected panic in sync");
            self.inner.sync()
        }
    }

    impl PanicIo {
        fn wrap(&self, file: Arc<dyn WalFile>) -> Arc<dyn WalFile> {
            Arc::new(PanicFile { inner: file, armed: Arc::clone(&self.armed) })
        }
    }

    impl WalIo for PanicIo {
        fn open(&self, path: &Path) -> std::io::Result<Arc<dyn WalFile>> {
            Ok(self.wrap(StdIo.open(path)?))
        }
        fn create(&self, path: &Path) -> std::io::Result<Arc<dyn WalFile>> {
            Ok(self.wrap(StdIo.create(path)?))
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
    fn a_dead_writer_fails_records_instead_of_hanging() {
        let dir = scratch("dead-writer");
        let io = Arc::new(PanicIo::default());
        let armed = Arc::clone(&io.armed);
        let obs = Arc::new(Obs::new());
        let fr = FlightRecorder::attach(io, &dir, Arc::clone(&obs)).unwrap();
        assert!(fr.record("before"));
        // The writer panics in the sidecar fsync: the record it was
        // writing fails, and so does every later one, without waiting.
        armed.store(true, Ordering::Relaxed);
        assert!(!fr.record("during"));
        fr.capture("cadence");
        assert!(!fr.record("after"));
        assert_eq!(obs.registry.snapshot().counter(names::M_BLACKBOX_ERRORS), 3);
        drop(fr);
    }

    #[test]
    fn post_crash_appends_fail_softly() {
        let dir = scratch("crash");
        let injector = FaultInjector::unlimited();
        let io = Arc::new(FaultIo::std(Arc::clone(&injector)));
        let obs = Arc::new(Obs::new());
        let fr = FlightRecorder::attach(io, &dir, Arc::clone(&obs)).unwrap();
        assert!(fr.record("before"));
        injector.trip();
        // The dead process's record vanishes; the engine never hears
        // about it beyond a counter.
        assert!(!fr.record("after"));
        assert_eq!(obs.registry.snapshot().counter(names::M_BLACKBOX_ERRORS), 1);
    }
}
