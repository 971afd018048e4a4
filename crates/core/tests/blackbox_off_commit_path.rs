//! The flight recorder never puts the sidecar on the commit path.
//!
//! The engine's log and its black-box stream share one I/O layer. Here
//! that layer holds every sidecar fsync at a gate: with the gate shut,
//! commits must keep finishing (the cadence only captures; the writer
//! thread is the one stuck in the fsync), captures that arrive while the
//! writer is busy replace each other in the pending slot, and once the
//! gate opens the pending record lands.

use rh_common::ObjectId;
use rh_core::engine::{DbConfig, RhDb, Strategy};
use rh_core::flight::COMMIT_PERIOD;
use rh_core::TxnEngine;
use rh_obs::{names, BlackBoxRecord};
use rh_wal::sidecar::{SidecarLog, SIDECAR_SUBDIR};
use rh_wal::{FileLogConfig, StableLog, StdIo, WalFile, WalIo};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

/// Gate state: whether sidecar fsyncs block, and how many are blocked.
#[derive(Debug, Default)]
struct Gate {
    state: Mutex<(bool, u32)>,
    changed: Condvar,
}

impl Gate {
    fn set_shut(&self, shut: bool) {
        self.state.lock().unwrap().0 = shut;
        self.changed.notify_all();
    }

    fn pass(&self) {
        let mut st = self.state.lock().unwrap();
        st.1 += 1;
        self.changed.notify_all();
        while st.0 {
            st = self.changed.wait(st).unwrap();
        }
        st.1 -= 1;
    }

    fn wait_blocked(&self, n: u32) {
        let mut st = self.state.lock().unwrap();
        while st.1 < n {
            st = self.changed.wait(st).unwrap();
        }
    }
}

/// Real I/O, except that files under the sidecar directory sync
/// through the gate.
#[derive(Debug)]
struct GatedIo {
    gate: Arc<Gate>,
}

#[derive(Debug)]
struct GatedFile {
    inner: Arc<dyn WalFile>,
    gate: Arc<Gate>,
}

impl WalFile for GatedFile {
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
        self.gate.pass();
        self.inner.sync()
    }
}

impl GatedIo {
    fn wrap(&self, path: &Path, file: Arc<dyn WalFile>) -> Arc<dyn WalFile> {
        let in_sidecar =
            path.parent().and_then(Path::file_name).is_some_and(|d| d == SIDECAR_SUBDIR);
        if in_sidecar {
            Arc::new(GatedFile { inner: file, gate: Arc::clone(&self.gate) })
        } else {
            file
        }
    }
}

impl WalIo for GatedIo {
    fn open(&self, path: &Path) -> std::io::Result<Arc<dyn WalFile>> {
        Ok(self.wrap(path, StdIo.open(path)?))
    }
    fn create(&self, path: &Path) -> std::io::Result<Arc<dyn WalFile>> {
        Ok(self.wrap(path, StdIo.create(path)?))
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

fn commit_one(db: &mut RhDb, i: u64) {
    let t = db.begin().unwrap();
    db.write(t, ObjectId(i % 16), i as i64).unwrap();
    db.commit(t).unwrap();
}

#[test]
fn commits_never_wait_on_the_sidecar() {
    let dir = std::env::temp_dir().join(format!("rh-bb-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gate = Arc::new(Gate::default());
    let io = Arc::new(GatedIo { gate: Arc::clone(&gate) });
    let stable = StableLog::open_file_with(io, FileLogConfig::new(&dir)).unwrap();
    let mut db = RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), stable);
    let obs = Arc::clone(db.obs());
    gate.set_shut(true);

    // The first cadence capture reaches the writer, which blocks in the
    // sidecar fsync.
    for i in 0..COMMIT_PERIOD {
        commit_one(&mut db, i);
    }
    gate.wait_blocked(1);
    // Two more cadence captures arrive while the writer is stuck: the
    // second replaces the first in the pending slot. All commits finish
    // with the gate still shut.
    for i in COMMIT_PERIOD..3 * COMMIT_PERIOD {
        commit_one(&mut db, i);
    }
    let snap = obs.registry.snapshot();
    assert_eq!(snap.counter(names::M_BLACKBOX_RECORDS), 0);
    assert_eq!(snap.counter(names::M_BLACKBOX_SUPERSEDED), 1);

    // Open the gate: the blocked record and the pending one both land
    // (dropping the engine joins the writer after it drains the slot).
    gate.set_shut(false);
    drop(db);
    let snap = obs.registry.snapshot();
    assert_eq!(snap.counter(names::M_BLACKBOX_RECORDS), 2);
    assert_eq!(snap.counter(names::M_BLACKBOX_ERRORS), 0);
    assert_eq!(snap.histogram(names::M_BLACKBOX_PERSIST_US).count, 2);

    let side = SidecarLog::open(SidecarLog::dir_for(&dir)).unwrap();
    assert_eq!(side.len(), 2);
    let recs: Vec<BlackBoxRecord> =
        (0..2).map(|seq| BlackBoxRecord::parse(&side.read(seq).unwrap()).unwrap()).collect();
    for (seq, rec) in recs.iter().enumerate() {
        assert_eq!((rec.seq, rec.reason.as_str()), (seq as u64, "commit-cadence"));
    }
    // Every commit appends the same records, so the log had three times
    // as many at the third capture (commit 96) as at the first (commit
    // 32): the record that landed is the newest capture, not the one it
    // replaced.
    let appends = |r: &BlackBoxRecord| r.counter(names::M_LOG_APPENDS);
    assert!(appends(&recs[0]) > 0);
    assert_eq!(appends(&recs[1]), 3 * appends(&recs[0]));
    let _ = std::fs::remove_dir_all(&dir);
}
