//! The pre-crash history every workload starts from, the crashed image
//! it leaves, and the timed restart that brings a server back up on a
//! fresh copy of that image.
//!
//! An image is the stable state a crash leaves: the WAL directory (one
//! per shard) and the page store. The page store of this engine lives in
//! memory, so an image keeps the crashed [`Disk`] and copies the pages
//! the history touched into a new one for every restart; the WAL
//! directory is copied file by file.

use crate::gen::{Mix, Stream, TxnPlan};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rh_client::Connection;
use rh_common::{Lsn, ObjectId, PageId, TxnId};
use rh_core::engine::{DbConfig, RhDb, Strategy};
use rh_core::history::{Event, Label, Oracle};
use rh_core::recovery::RecoveryReport;
use rh_core::{ShardMap, ShardedDb, TxnEngine};
use rh_server::{Server, ServerConfig};
use rh_storage::{slot_of, Disk};
use rh_wal::StableLog;
use rh_workload::WorkloadSpec;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Shards behind the served engine (1 = the single-engine backend).
pub type Shards = usize;

/// What the pre-crash history is made of.
#[derive(Debug, Clone, Copy)]
pub enum History {
    /// The workload's own transactions on history streams 0 and 1, one
    /// transaction of each stream left open at the crash.
    Served {
        /// Transactions per history stream.
        txns: usize,
    },
    /// `rh_workload::delegation_mix` with a checkpoint halfway through.
    DelegationMix(WorkloadSpec),
}

/// A time-travel read with a known answer: the committed value of `ob`
/// as of `lsn`, taken from the semantic oracle at that instant.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Object read.
    pub ob: ObjectId,
    /// Fixed pre-crash LSN of the object's shard.
    pub lsn: Lsn,
    /// Oracle answer.
    pub want: i64,
}

/// The engine under construction or after recovery.
#[allow(clippy::large_enum_variant)] // one per run, never moved on a hot path
pub enum Db {
    /// One engine.
    Single(RhDb),
    /// A range-sharded router.
    Sharded(ShardedDb),
}

impl Db {
    /// A fresh file-backed engine with one WAL directory per shard.
    pub fn create(dirs: &[PathBuf]) -> Self {
        let stables: Vec<Arc<StableLog>> =
            dirs.iter().map(|d| StableLog::open_dir(d).expect("open WAL directory")).collect();
        if stables.len() == 1 {
            let stable = stables.into_iter().next().expect("one shard");
            Db::Single(RhDb::with_stable_log(Strategy::Rh, DbConfig::default(), stable))
        } else {
            let db = ShardedDb::with_stable_logs(
                Strategy::Rh,
                DbConfig::default(),
                stables,
                ShardMap::RANGE_SHIFT,
            )
            .expect("open sharded engine");
            Db::Sharded(db)
        }
    }

    /// Runs one history event; `ids` maps labels to engine ids.
    pub fn apply(&mut self, ev: &Event, ids: &mut HashMap<Label, TxnId>) {
        match self {
            Db::Single(db) => apply_event(db, ev, ids),
            Db::Sharded(db) => apply_event(db, ev, ids),
        }
    }

    /// Current last LSN of the log owning `ob`.
    pub fn last_lsn(&self, ob: ObjectId) -> Lsn {
        match self {
            Db::Single(db) => db.log().last_lsn(),
            Db::Sharded(db) => {
                db.shard_log(db.shard_of(ob)).expect("shard of a routed object").last_lsn()
            }
        }
    }

    /// Committed value of `ob` as of `lsn`, replayed in-process.
    pub fn read_as_of(&self, ob: ObjectId, lsn: Lsn) -> rh_common::Result<i64> {
        match self {
            Db::Single(db) => db.read_as_of(ob, lsn),
            Db::Sharded(db) => db.read_as_of(ob, lsn),
        }
    }

    /// Current value of `ob`.
    pub fn value_of(&mut self, ob: ObjectId) -> rh_common::Result<i64> {
        match self {
            Db::Single(db) => db.value_of(ob),
            Db::Sharded(db) => ShardedDb::value_of(db, ob),
        }
    }

    /// Counters and histograms of the engine (all shards merged).
    pub fn stats(&self) -> rh_obs::RegistrySnapshot {
        match self {
            Db::Single(db) => db.stats(),
            Db::Sharded(db) => db.stats(),
        }
    }

    /// Simulates a crash; returns each shard's surviving stable state.
    pub fn crash(self) -> Vec<(Arc<StableLog>, Arc<Disk>)> {
        match self {
            Db::Single(db) => vec![db.crash()],
            Db::Sharded(db) => db.crash(),
        }
    }
}

fn apply_event<E: TxnEngine>(db: &mut E, ev: &Event, ids: &mut HashMap<Label, TxnId>) {
    let done = match ev {
        Event::Begin(t) => db.begin().map(|id| {
            ids.insert(*t, id);
        }),
        Event::Write(t, ob, v) => db.write(ids[t], *ob, *v),
        Event::Add(t, ob, d) => db.add(ids[t], *ob, *d),
        Event::Delegate(a, b, obs) => db.delegate(ids[a], ids[b], obs),
        Event::DelegateAll(a, b) => db.delegate_all(ids[a], ids[b]),
        Event::Commit(t) => db.commit(ids[t]),
        Event::Abort(t) => db.abort(ids[t]),
        Event::Checkpoint => db.checkpoint(),
        other => panic!("history generators emit no {other:?}"),
    };
    done.expect("pre-crash history event");
}

/// Every event of the pre-crash history, generated from `seed`; a
/// served history uses `mix`.
pub fn history_events(history: &History, mix: Mix, seed: u64) -> Vec<Event> {
    match *history {
        History::Served { txns } => {
            let mut streams = [Stream::new(seed, 0, mix), Stream::new(seed, 1, mix)];
            let mut events = Vec::new();
            let mut label: Label = 0;
            let mut next = |plan: &TxnPlan, events: &mut Vec<Event>| {
                events.extend(plan.events([label, label + 1]));
                label += 2;
            };
            for _ in 0..txns {
                for s in &mut streams {
                    let plan = s.next_txn();
                    next(&plan, &mut events);
                }
            }
            // One transaction per stream is in flight when the crash
            // hits: everything but its final commit has run.
            for s in &mut streams {
                let mut plan = s.next_txn();
                plan.steps.pop();
                next(&plan, &mut events);
            }
            events
        }
        History::DelegationMix(spec) => {
            let mut events = rh_workload::delegation_mix(&spec.seed(seed));
            events.insert(events.len() / 2, Event::Checkpoint);
            events
        }
    }
}

/// Time-travel probes taken per probe point.
const PROBES_PER_POINT: usize = 8;
/// Probe points spread over the first 80% of the history, so a later
/// commit has made each probe LSN durable before the crash.
const PROBE_POINTS: usize = 32;

/// The generated history and everything the oracle says about it,
/// computed once per run before any timing starts.
pub struct Plan {
    events: Vec<Event>,
    shards: Shards,
    /// `(event index, object, answer)`: after event `index`, the
    /// committed value of the object is the answer.
    probe_at: Vec<(usize, ObjectId, i64)>,
    /// Post-restart value of every object the history touched: acked
    /// effects present, losers' effects undone.
    pub expected: Vec<(ObjectId, i64)>,
    pages: Vec<Vec<PageId>>,
}

impl Plan {
    /// Generates the history from `seed` and runs the semantic oracle
    /// over it, crash included.
    pub fn new(history: &History, mix: Mix, shards: Shards, seed: u64) -> Plan {
        let events = history_events(history, mix, seed);
        let map = ShardMap::new(shards, ShardMap::RANGE_SHIFT);
        let mut oracle = Oracle::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0a50_f0a5);
        let mut probe_at = Vec::new();
        let every = (events.len() * 4 / 5 / PROBE_POINTS).max(1);
        for (i, ev) in events.iter().enumerate() {
            oracle.apply(ev);
            if (i + 1) % every == 0 && probe_at.len() < PROBE_POINTS * PROBES_PER_POINT {
                let touched = oracle.touched();
                for _ in 0..PROBES_PER_POINT {
                    let ob = touched[rng.random_range(0..touched.len())];
                    probe_at.push((i, ob, oracle.value_as_of(ob)));
                }
            }
        }
        oracle.apply(&Event::Crash);
        let touched = oracle.touched();
        let mut pages: Vec<BTreeSet<PageId>> = vec![BTreeSet::new(); shards];
        for &ob in &touched {
            pages[map.shard_of(ob)].insert(slot_of(ob).0);
        }
        Plan {
            events,
            shards,
            probe_at,
            expected: touched.iter().map(|&ob| (ob, oracle.value(ob))).collect(),
            pages: pages.into_iter().map(|p| p.into_iter().collect()).collect(),
        }
    }

    /// Pages the history touched, over all shards.
    pub fn pages(&self) -> usize {
        self.pages.iter().map(Vec::len).sum()
    }
}

/// A crashed image: the bytes a crash left behind.
pub struct Image {
    dirs: Vec<PathBuf>,
    disks: Vec<Arc<Disk>>,
    /// Time-travel reads at fixed pre-crash LSNs with their answers.
    pub probes: Vec<Probe>,
    /// Log records on stable storage at the crash (all shards).
    pub records: u64,
}

impl Image {
    /// Runs the planned history in-process on a fresh engine under
    /// `root`, crashes it and keeps the crashed state.
    pub fn build(plan: &Plan, root: &Path) -> Image {
        let dirs: Vec<PathBuf> =
            (0..plan.shards).map(|k| root.join(format!("shard-{k}"))).collect();
        let mut db = Db::create(&dirs);
        let mut ids = HashMap::new();
        let mut probes = Vec::with_capacity(plan.probe_at.len());
        let mut next_probe = plan.probe_at.iter().peekable();
        for (i, ev) in plan.events.iter().enumerate() {
            db.apply(ev, &mut ids);
            while let Some(&(_, ob, want)) = next_probe.next_if(|p| p.0 == i) {
                probes.push(Probe { ob, lsn: db.last_lsn(ob), want });
            }
        }
        let parts = db.crash();
        let records = parts.iter().map(|(s, _)| s.len() as u64).sum();
        let disks = parts.into_iter().map(|(_, d)| d).collect();
        Image { dirs, disks, probes, records }
    }

    /// Copies the crashed state under `root`: WAL directories file by
    /// file, the planned history's pages into a new page store per
    /// shard.
    pub fn copy_to(&self, plan: &Plan, root: &Path) -> Vec<(PathBuf, Arc<Disk>)> {
        self.dirs
            .iter()
            .zip(&self.disks)
            .zip(&plan.pages)
            .enumerate()
            .map(|(k, ((dir, disk), pages))| {
                let dst = root.join(format!("shard-{k}"));
                copy_dir(dir, &dst).expect("copy crashed WAL directory");
                let fresh = Disk::new();
                for &id in pages {
                    fresh
                        .write_page(&disk.read_page(id).expect("crashed page"))
                        .expect("copy page");
                }
                (dst, fresh)
            })
            .collect()
    }
}

fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            // Forced here, so the copy's write-back does not land in a
            // later fsync of the timed window.
            std::fs::copy(entry.path(), &to)?;
            std::fs::File::open(&to)?.sync_all()?;
        }
    }
    Ok(())
}

/// What one restart cost, layer by layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct RestartLayers {
    /// Crash to first acked commit, seconds.
    pub restart_s: f64,
    /// `StableLog::open_dir` on every shard, seconds.
    pub wal_open_s: f64,
    /// Forward pass wall time (slowest shard), seconds.
    pub forward_s: f64,
    /// Backward pass wall time (slowest shard), seconds.
    pub undo_s: f64,
    /// Log records read by recovery.
    pub records_read: u64,
    /// Updates and CLRs redone to pages.
    pub pages_redone: u64,
    /// Log records the backward pass examined.
    pub undo_visits: u64,
    /// Backward jumps over records outside every loser cluster.
    pub gap_skips: u64,
    /// Pages read by recovery.
    pub page_reads: u64,
    /// Pages written by recovery.
    pub page_writes: u64,
}

impl RestartLayers {
    fn add_report(&mut self, r: &RecoveryReport, lsn_jumps: rh_obs::HistogramSnapshot) {
        self.forward_s = self.forward_s.max(r.forward_wall.as_secs_f64());
        self.undo_s = self.undo_s.max(r.undo_wall.as_secs_f64());
        self.records_read += r.log_delta.records_read;
        self.pages_redone += r.forward.redone;
        self.undo_visits += r.undo.visited;
        // A jump of one record is the sweep moving on; anything longer
        // skipped a gap between clusters.
        self.gap_skips += lsn_jumps.count - lsn_jumps.buckets[0];
        self.page_reads += r.disk_delta.page_reads;
        self.page_writes += r.disk_delta.page_writes;
    }
}

/// Object the first post-restart commit writes.
pub fn marker_object() -> ObjectId {
    ObjectId(crate::gen::range_base(64))
}

/// A server brought up on a copy of a crashed image.
pub struct Restarted {
    /// The serving instance.
    pub server: Server,
    /// The connection that made the first commit.
    pub conn: Connection,
    /// Cost of the restart.
    pub layers: RestartLayers,
}

/// Crash to first acked commit: open each shard's WAL on the copied
/// bytes, recover, bind a server, connect, and commit one write.
pub fn restart(parts: Vec<(PathBuf, Arc<Disk>)>, marker: i64) -> Restarted {
    let t0 = Instant::now();
    let shards = parts.len();
    let opened: Vec<(Arc<StableLog>, Arc<Disk>)> = parts
        .into_iter()
        .map(|(dir, disk)| (StableLog::open_dir(dir).expect("open copied WAL"), disk))
        .collect();
    let wal_open_s = t0.elapsed().as_secs_f64();
    let mut layers = RestartLayers { wal_open_s, ..RestartLayers::default() };
    let cfg = ServerConfig::default();
    // Reading the recovery reports is bookkeeping of the benchmark, so
    // its time is taken out of the restart figure.
    let mut bookkeeping = std::time::Duration::ZERO;
    let server = if shards == 1 {
        let (stable, disk) = opened.into_iter().next().expect("one shard");
        let db = RhDb::recover(Strategy::Rh, DbConfig::default(), stable, disk).expect("recover");
        let b = Instant::now();
        let report = db.last_recovery().expect("recovery report");
        layers.add_report(report, db.stats().histogram(rh_obs::names::M_UNDO_LSN_JUMP));
        bookkeeping += b.elapsed();
        Server::bind("127.0.0.1:0", db, cfg).expect("bind")
    } else {
        let db =
            ShardedDb::recover(Strategy::Rh, DbConfig::default(), opened, ShardMap::RANGE_SHIFT)
                .expect("recover shards");
        let b = Instant::now();
        for k in 0..shards {
            let report = db.shard_recovery(k).expect("shard recovery report");
            let obs = db.shard_obs(k).expect("shard obs");
            let jumps = obs.registry.snapshot().histogram(rh_obs::names::M_UNDO_LSN_JUMP);
            layers.add_report(&report, jumps);
        }
        bookkeeping += b.elapsed();
        Server::bind_sharded("127.0.0.1:0", db, cfg).expect("bind")
    };
    let mut conn = Connection::connect(server.local_addr()).expect("connect after restart");
    let t = conn.begin().expect("first begin");
    conn.write(t, marker_object(), marker).expect("first write");
    conn.commit(t).expect("first commit");
    layers.restart_s = (t0.elapsed() - bookkeeping).as_secs_f64();
    Restarted { server, conn, layers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_history_leaves_one_open_transaction_per_stream() {
        let events = history_events(&History::Served { txns: 3 }, Mix::PLAIN, 5);
        let begins = events.iter().filter(|e| matches!(e, Event::Begin(_))).count();
        let ends =
            events.iter().filter(|e| matches!(e, Event::Commit(_) | Event::Abort(_))).count();
        assert_eq!(begins, 8);
        assert_eq!(ends, 6);
        let oracle = Oracle::run(&events);
        assert_eq!(oracle.active().len(), 2);
    }

    #[test]
    fn delegation_history_has_one_checkpoint() {
        let spec = WorkloadSpec {
            txns: 50,
            delegation_rate: 0.3,
            chain_len: 2,
            ..WorkloadSpec::default()
        };
        let events = history_events(&History::DelegationMix(spec), Mix::PLAIN, 9);
        assert_eq!(events.iter().filter(|e| matches!(e, Event::Checkpoint)).count(), 1);
        assert!(events.iter().any(|e| matches!(e, Event::Delegate(..))));
    }
}
