//! Seeded transaction generator. The benchmark drives the program only
//! with what this module generates from `--seed`.
//!
//! A transaction has the shape the served load already uses: `begin`,
//! then updates alternating `write`/`add`, optionally one write to a
//! remote object that routes to another shard, then either `commit` or
//! the delegation idiom (`begin` a delegatee, `delegate` the touched
//! objects to it, abort the delegator, one more `add` by the delegatee,
//! commit the delegatee).
//!
//! Each stream (one per client, or per history builder) owns a private
//! hot range of objects and runs one transaction at a time, so the
//! expected value of every object follows exactly from the acknowledged
//! transactions of its stream.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rh_common::ObjectId;
use rh_core::history::{Event, Label};
use rh_core::ShardMap;

/// Which transaction of a plan a step belongs to: 0 is the invoker, 1
/// the delegatee of the delegation idiom.
pub type Slot = usize;

/// One call of a transaction plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Begin the slot's transaction.
    Begin(Slot),
    /// Overwrite an object.
    Write(Slot, ObjectId, i64),
    /// Add to an object.
    Add(Slot, ObjectId, i64),
    /// Delegate objects from the first slot to the second.
    Delegate(Slot, Slot, Vec<ObjectId>),
    /// Abort the slot's transaction.
    Abort(Slot),
    /// Commit the slot's transaction.
    Commit(Slot),
}

impl Step {
    /// Short name used for span and sample keys.
    pub fn kind(&self) -> &'static str {
        match self {
            Step::Begin(_) => "begin",
            Step::Write(..) => "write",
            Step::Add(..) => "add",
            Step::Delegate(..) => "delegate",
            Step::Abort(_) => "abort",
            Step::Commit(_) => "commit",
        }
    }
}

/// Updates per transaction, alternating write/add.
pub const UPDATES: usize = 4;
/// Objects in each stream's private hot range: 64 pages, so the two
/// writers of a workload fill half of the engine's 256-page pool.
pub const HOT: u64 = 4096;

/// The traffic mix of a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Probability a transaction commits through the delegation idiom.
    pub delegation: f64,
    /// Probability a transaction also writes an object of its remote
    /// range, which routes to the other shard of a two-shard target.
    pub cross_shard: f64,
}

impl Mix {
    /// No delegation, one shard.
    pub const PLAIN: Mix = Mix { delegation: 0.0, cross_shard: 0.0 };
    /// 30% delegation idiom, 25% cross-shard.
    pub const DELEG_XSHARD: Mix = Mix { delegation: 0.3, cross_shard: 0.25 };
}

/// A generated transaction.
#[derive(Debug, Clone)]
pub struct TxnPlan {
    /// Calls in order.
    pub steps: Vec<Step>,
}

impl TxnPlan {
    /// Every object the plan updates, without repeats.
    pub fn objects(&self) -> Vec<ObjectId> {
        let mut obs: Vec<ObjectId> = self
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Write(_, ob, _) | Step::Add(_, ob, _) => Some(*ob),
                _ => None,
            })
            .collect();
        obs.sort_unstable();
        obs.dedup();
        obs
    }

    /// Applies the plan's updates to `state`, as an acknowledged commit
    /// makes them permanent (the delegation idiom keeps the delegator's
    /// updates alive through the delegatee).
    pub fn apply_committed(&self, state: &mut std::collections::HashMap<ObjectId, i64>) {
        for s in &self.steps {
            match s {
                Step::Write(_, ob, v) => {
                    state.insert(*ob, *v);
                }
                Step::Add(_, ob, d) => *state.entry(*ob).or_insert(0) += d,
                _ => {}
            }
        }
    }

    /// The plan as history events, slot `k` labelled `labels[k]`.
    pub fn events(&self, labels: [Label; 2]) -> Vec<Event> {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Begin(k) => Event::Begin(labels[*k]),
                Step::Write(k, ob, v) => Event::Write(labels[*k], *ob, *v),
                Step::Add(k, ob, d) => Event::Add(labels[*k], *ob, *d),
                Step::Delegate(a, b, obs) => Event::Delegate(labels[*a], labels[*b], obs.clone()),
                Step::Abort(k) => Event::Abort(labels[*k]),
                Step::Commit(k) => Event::Commit(labels[*k]),
            })
            .collect()
    }
}

/// Index of stream `s`'s home range (a block of 2^26 object ids).
/// Consecutive streams alternate between the two shards of a
/// two-shard target.
pub fn home_range(stream: u32) -> u64 {
    2 + 2 * stream as u64 + (stream as u64 % 2)
}

/// Index of stream `s`'s remote range: the neighbour of its home range,
/// which always routes to the other shard of a two-shard target.
pub fn remote_range(stream: u32) -> u64 {
    home_range(stream) ^ 1
}

/// First object id of range `r`.
pub fn range_base(r: u64) -> u64 {
    r << ShardMap::RANGE_SHIFT
}

/// A seeded stream of transactions over one private hot range.
#[derive(Debug)]
pub struct Stream {
    rng: StdRng,
    home: u64,
    remote: u64,
    mix: Mix,
}

impl Stream {
    /// Stream `stream` of the run seeded with `seed`.
    pub fn new(seed: u64, stream: u32, mix: Mix) -> Self {
        let rng = StdRng::seed_from_u64(
            seed ^ (u64::from(stream) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        Stream {
            rng,
            home: range_base(home_range(stream)),
            remote: range_base(remote_range(stream)),
            mix,
        }
    }

    fn hot_object(&mut self, base: u64, avoid: &[ObjectId]) -> ObjectId {
        loop {
            let ob = ObjectId(base + self.rng.random_range(0..HOT));
            if !avoid.contains(&ob) {
                return ob;
            }
        }
    }

    /// The next transaction of the stream.
    pub fn next_txn(&mut self) -> TxnPlan {
        let mut steps = vec![Step::Begin(0)];
        let mut touched: Vec<ObjectId> = Vec::with_capacity(UPDATES + 2);
        for k in 0..UPDATES {
            let ob = self.hot_object(self.home, &touched);
            let v = self.rng.random_range(1..1_000_000i64);
            steps.push(if k % 2 == 0 { Step::Write(0, ob, v) } else { Step::Add(0, ob, v) });
            touched.push(ob);
        }
        if self.rng.random_bool(self.mix.cross_shard) {
            let ob = self.hot_object(self.remote, &touched);
            let v = self.rng.random_range(1..1_000_000i64);
            steps.push(Step::Write(0, ob, v));
            touched.push(ob);
        }
        if self.rng.random_bool(self.mix.delegation) {
            let extra = self.hot_object(self.home, &touched);
            steps.push(Step::Begin(1));
            steps.push(Step::Delegate(0, 1, touched));
            steps.push(Step::Abort(0));
            steps.push(Step::Add(1, extra, 1));
            steps.push(Step::Commit(1));
        } else {
            steps.push(Step::Commit(0));
        }
        TxnPlan { steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_core::history::Oracle;
    use std::collections::HashMap;

    fn delegates(t: &TxnPlan) -> bool {
        t.steps.iter().any(|s| matches!(s, Step::Delegate(..)))
    }

    #[test]
    fn same_seed_same_transactions() {
        let mut a = Stream::new(7, 2, Mix::DELEG_XSHARD);
        let mut b = Stream::new(7, 2, Mix::DELEG_XSHARD);
        for _ in 0..50 {
            assert_eq!(a.next_txn().steps, b.next_txn().steps);
        }
        let mut c = Stream::new(8, 2, Mix::DELEG_XSHARD);
        let differs = (0..50).any(|_| a.next_txn().steps != c.next_txn().steps);
        assert!(differs);
    }

    #[test]
    fn ranges_are_private_and_remote_crosses_shards() {
        let map = ShardMap::new(2, ShardMap::RANGE_SHIFT);
        let mut seen = std::collections::HashSet::new();
        for s in 0..4u32 {
            assert!(seen.insert(home_range(s)));
            assert!(seen.insert(remote_range(s)));
            let home = map.shard_of(ObjectId(range_base(home_range(s))));
            let remote = map.shard_of(ObjectId(range_base(remote_range(s))));
            assert_ne!(home, remote);
        }
        // Streams 0 and 1 (and 2 and 3) live on different shards.
        assert_ne!(home_range(0) % 2, home_range(1) % 2);
        assert_ne!(home_range(2) % 2, home_range(3) % 2);
    }

    #[test]
    fn plain_mix_never_delegates_or_crosses() {
        let mut s = Stream::new(1, 0, Mix::PLAIN);
        for _ in 0..500 {
            let t = s.next_txn();
            assert_eq!(t.steps.len(), 6);
            assert!(!delegates(&t));
            assert_eq!(t.objects().len(), 4);
        }
    }

    #[test]
    fn committed_effects_match_the_semantic_oracle() {
        let mut s = Stream::new(3, 1, Mix::DELEG_XSHARD);
        let mut state = HashMap::new();
        let mut oracle = Oracle::new();
        let mut delegated = 0;
        for i in 0..300u32 {
            let t = s.next_txn();
            delegated += delegates(&t) as u32;
            t.apply_committed(&mut state);
            for ev in t.events([2 * i, 2 * i + 1]) {
                oracle.apply(&ev);
            }
        }
        assert!(delegated > 50, "{delegated}");
        for (ob, v) in &state {
            assert_eq!(oracle.value(*ob), *v, "{ob}");
        }
    }
}
