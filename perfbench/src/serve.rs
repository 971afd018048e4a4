//! Closed-loop clients over loopback: each client sends its next request
//! only after the previous reply arrived. Every latency is recorded as a
//! raw sample by the client itself.

use crate::gen::{Mix, Step, Stream};
use crate::image::Probe;
use crate::spans::Spans;
use crate::stats::{Samples, Tally};
use rh_client::{ClientError, Connection};
use rh_common::{ObjectId, TxnId};
use rh_obs::json::{self, JsonValue};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What the clients observed while running in one mode (tracing off or
/// on).
#[derive(Debug, Default)]
pub struct Record {
    /// Whole-transaction latency, `begin` sent to `commit` acked, µs.
    pub txn_us: Samples,
    /// Commit round trips, µs.
    pub commit_us: Samples,
    /// Round trips by call kind, µs.
    pub op_us: BTreeMap<&'static str, Samples>,
    /// Time-travel reads over the wire, µs.
    pub asof_us: Samples,
    /// Round trips of committed transactions.
    pub rtts: u64,
    /// Attempts and failures.
    pub tally: Tally,
    /// Spans, when tracing.
    pub spans: Option<Spans>,
}

impl Record {
    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: Record) {
        self.txn_us.extend(&other.txn_us);
        self.commit_us.extend(&other.commit_us);
        for (k, v) in &other.op_us {
            self.op_us.entry(k).or_default().extend(v);
        }
        self.asof_us.extend(&other.asof_us);
        self.rtts += other.rtts;
        self.tally.absorb(&other.tally);
        if let Some(s) = other.spans {
            match &mut self.spans {
                Some(mine) => mine.absorb(s),
                None => self.spans = Some(s),
            }
        }
    }
}

fn rtt_span(kind: &str) -> &'static str {
    match kind {
        "begin" => "rtt.begin",
        "write" => "rtt.write",
        "add" => "rtt.add",
        "delegate" => "rtt.delegate",
        "abort" => "rtt.abort",
        _ => "rtt.commit",
    }
}

fn count_failure(tally: &mut Tally, e: &ClientError) {
    match e {
        ClientError::Busy => tally.busy += 1,
        _ => tally.errors += 1,
    }
}

/// A client writing transactions of one stream, keeping the value every
/// object must have after its acknowledged commits.
pub struct Writer {
    conn: Connection,
    stream: Stream,
    key: u64,
    expected: HashMap<ObjectId, i64>,
    uncertain: HashSet<ObjectId>,
}

impl Writer {
    /// Connects stream `stream` of the run seeded with `seed`.
    pub fn connect(addr: SocketAddr, seed: u64, stream: u32, mix: Mix) -> Writer {
        Writer {
            conn: Connection::connect(addr).expect("writer connect"),
            stream: Stream::new(seed, stream, mix),
            key: u64::from(stream) << 40,
            expected: HashMap::new(),
            uncertain: HashSet::new(),
        }
    }

    /// Runs the stream's next transaction.
    pub fn run_txn(&mut self, rec: &mut Record) {
        let plan = self.stream.next_txn();
        self.key += 1;
        let key = self.key;
        rec.tally.attempted += 1;
        let t0 = Instant::now();
        let root = rec.spans.as_mut().map(|s| s.open("txn", None, key));
        let mut ids = [TxnId::NONE; 2];
        let mut open = [false; 2];
        let mut rtts = 0;
        let mut failure = None;
        for step in &plan.steps {
            let span = rec.spans.as_mut().map(|s| s.open(rtt_span(step.kind()), root, key));
            let s0 = Instant::now();
            let done = match step {
                Step::Begin(k) => self.conn.begin().map(|t| {
                    ids[*k] = t;
                    open[*k] = true;
                }),
                Step::Write(k, ob, v) => self.conn.write(ids[*k], *ob, *v),
                Step::Add(k, ob, d) => self.conn.add(ids[*k], *ob, *d),
                Step::Delegate(a, b, obs) => self.conn.delegate(ids[*a], ids[*b], obs),
                Step::Abort(k) => self.conn.abort(ids[*k]).map(|()| open[*k] = false),
                Step::Commit(k) => self.conn.commit(ids[*k]).map(|()| open[*k] = false),
            };
            let us = s0.elapsed().as_secs_f64() * 1e6;
            if let (Some(s), Some(id)) = (rec.spans.as_mut(), span) {
                s.close(id);
            }
            rtts += 1;
            rec.op_us.entry(step.kind()).or_default().push(us);
            if matches!(step, Step::Commit(_)) {
                rec.commit_us.push(us);
            }
            if let Err(e) = done {
                failure = Some(e);
                break;
            }
        }
        if let (Some(s), Some(id)) = (rec.spans.as_mut(), root) {
            s.close(id);
        }
        match failure {
            None => {
                rec.txn_us.push(t0.elapsed().as_secs_f64() * 1e6);
                rec.tally.committed += 1;
                rec.rtts += rtts;
                plan.apply_committed(&mut self.expected);
            }
            Some(e) => {
                count_failure(&mut rec.tally, &e);
                // The outcome of a failed transaction is not asserted:
                // its objects leave the oracle, and whatever it still
                // holds open is rolled back.
                self.uncertain.extend(plan.objects());
                for k in 0..2 {
                    if open[k] {
                        let _ = self.conn.abort(ids[k]);
                    }
                }
            }
        }
    }

    /// Reads back every object this client committed and counts the
    /// ones whose served value contradicts the acknowledged effects.
    pub fn verify(&mut self) -> Tally {
        let mut t = Tally::default();
        for (&ob, &want) in &self.expected {
            if self.uncertain.contains(&ob) {
                continue;
            }
            t.attempted += 1;
            match self.conn.value_of(ob) {
                Ok(got) if got == want => {}
                Ok(_) => t.divergences += 1,
                Err(e) => count_failure(&mut t, &e),
            }
        }
        t
    }
}

/// A client issuing time-travel reads at fixed pre-crash LSNs, each
/// checked against the oracle's answer.
pub struct AsofReader {
    conn: Connection,
    probes: Vec<Probe>,
    next: usize,
}

impl AsofReader {
    /// Connects a reader cycling through `probes`. A probe's cost grows
    /// with its LSN and the probes come in LSN order, so the reader
    /// visits them in bit-reversed index order: every run of consecutive
    /// reads then spans the whole history evenly, and a sample of a few
    /// reads does not lean towards cheap or dear probes.
    pub fn connect(addr: SocketAddr, mut probes: Vec<Probe>) -> AsofReader {
        let mut order: Vec<usize> = (0..probes.len()).collect();
        order.sort_by_key(|&i| (i as u32).reverse_bits());
        probes = order.into_iter().map(|i| probes[i]).collect();
        AsofReader { conn: Connection::connect(addr).expect("reader connect"), probes, next: 0 }
    }

    /// Issues the next read.
    pub fn read_one(&mut self, rec: &mut Record) {
        let p = self.probes[self.next % self.probes.len()];
        self.next += 1;
        rec.tally.attempted += 1;
        let span = rec.spans.as_mut().map(|s| s.open("rtt.asof", None, self.next as u64));
        let s0 = Instant::now();
        let got = self.conn.read_as_of(p.ob, p.lsn);
        let us = s0.elapsed().as_secs_f64() * 1e6;
        if let (Some(s), Some(id)) = (rec.spans.as_mut(), span) {
            s.close(id);
        }
        match got {
            Ok(v) => {
                rec.asof_us.push(us);
                if v != p.want {
                    rec.tally.divergences += 1;
                }
            }
            Err(e) => count_failure(&mut rec.tally, &e),
        }
    }
}

/// Runs `txns` transactions on every writer, each on a thread of its
/// own, while `reader` makes `reads` time-travel reads (warm-up).
pub fn run_count(
    writers: &mut [Writer],
    reader: &mut AsofReader,
    txns: usize,
    reads: usize,
) -> Tally {
    std::thread::scope(|s| {
        let handles: Vec<_> = writers
            .iter_mut()
            .map(|w| {
                s.spawn(move || {
                    let mut rec = Record::default();
                    (0..txns).for_each(|_| w.run_txn(&mut rec));
                    rec.tally
                })
            })
            .collect();
        let mut rec = Record::default();
        (0..reads).for_each(|_| reader.read_one(&mut rec));
        let mut t = rec.tally;
        for h in handles {
            t.absorb(&h.join().expect("warm-up client panicked"));
        }
        t
    })
}

/// One slice of the timed window.
pub struct Slice {
    /// Whether tracing was on during the slice.
    pub traced: bool,
    /// Wall time of the slice.
    pub seconds: f64,
    /// What the clients observed in it (an operation belongs to the
    /// slice in which it started).
    pub record: Record,
}

/// Length of one slice of the window. The work done between slices
/// (timed restarts and reads) is spread over the window's span of time
/// in steps this fine; in the traced run slices alternate tracing off
/// and on, so both modes see the same drift.
pub const SLICE: Duration = Duration::from_millis(500);

/// Value of the slice index while the writers are parked between
/// slices.
const PARKED: usize = usize::MAX;

/// Drives every writer closed-loop for `seconds`, cut into slices. With
/// `trace`, every second slice is traced. After each slice the writers
/// finish the transaction they are in and park, `between(k)` runs with
/// the window quiet, and the next slice starts; so work measured by
/// `between` is spread over the whole window without overlapping it.
pub fn run_window(
    writers: &mut [Writer],
    seconds: f64,
    trace: bool,
    epoch: Instant,
    mut between: impl FnMut(usize),
) -> Vec<Slice> {
    let stop = AtomicBool::new(false);
    let current = AtomicUsize::new(0);
    let parked = AtomicUsize::new(0);
    let traced = |k: usize| trace && k % 2 == 1;
    let n = (seconds / SLICE.as_secs_f64()).ceil().max(1.0) as usize;
    let mut lengths = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = writers
            .iter_mut()
            .map(|w| {
                let (stop, current, parked) = (&stop, &current, &parked);
                s.spawn(move || {
                    let mut recs: Vec<Record> = Vec::new();
                    let mut is_parked = false;
                    while !stop.load(Ordering::SeqCst) {
                        let k = current.load(Ordering::SeqCst);
                        if k == PARKED {
                            if !is_parked {
                                is_parked = true;
                                parked.fetch_add(1, Ordering::SeqCst);
                            }
                            std::thread::sleep(Duration::from_micros(50));
                            continue;
                        }
                        is_parked = false;
                        while recs.len() <= k {
                            let spans = traced(recs.len()).then(|| Spans::new(epoch));
                            recs.push(Record { spans, ..Record::default() });
                        }
                        w.run_txn(&mut recs[k]);
                    }
                    recs
                })
            })
            .collect();
        for k in 0..n {
            let slice_start = Instant::now();
            std::thread::sleep(SLICE);
            current.store(PARKED, Ordering::SeqCst);
            // The slice ends here: the transactions still in flight
            // finish in it, but the wait for them is not time the
            // writers had.
            lengths.push(slice_start.elapsed().as_secs_f64());
            while parked.load(Ordering::SeqCst) < handles.len() {
                std::thread::sleep(Duration::from_micros(50));
            }
            between(k);
            // After the last slice the writers stay parked until they
            // see `stop`: a slice `n` they could start would have no
            // place in the result.
            if k + 1 < n {
                parked.store(0, Ordering::SeqCst);
                current.store(k + 1, Ordering::SeqCst);
            }
        }
        stop.store(true, Ordering::SeqCst);
        let mut slices: Vec<Slice> = lengths
            .iter()
            .enumerate()
            .map(|(k, &seconds)| Slice { traced: traced(k), seconds, record: Record::default() })
            .collect();
        for h in handles {
            let recs = h.join().expect("window writer panicked");
            for (k, rec) in recs.into_iter().enumerate() {
                slices[k].record.absorb(rec);
            }
        }
        slices
    })
}

/// Counter values and histogram `(count, sum)` pairs from the server's
/// stats document.
#[derive(Debug, Default, Clone)]
pub struct ServerStats {
    counters: HashMap<String, u64>,
    hists: HashMap<String, (u64, u64)>,
}

impl ServerStats {
    /// Fetches the server's stats over `conn`.
    pub fn fetch(conn: &mut Connection) -> ServerStats {
        let doc = json::parse(&conn.stats_json().expect("stats")).expect("stats document");
        let mut out = ServerStats::default();
        if let Some(JsonValue::Obj(fields)) = doc.get("counters") {
            for (k, v) in fields {
                out.counters.insert(k.clone(), v.as_u64().unwrap_or(0));
            }
        }
        if let Some(JsonValue::Obj(fields)) = doc.get("histograms") {
            for (k, v) in fields {
                let read = |f: &str| v.get(f).and_then(JsonValue::as_u64).unwrap_or(0);
                out.hists.insert(k.clone(), (read("count"), read("sum")));
            }
        }
        out
    }

    /// Growth of every counter and histogram since `earlier`.
    pub fn since(&self, earlier: &ServerStats) -> ServerStats {
        ServerStats {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, &(c, s))| {
                    let (c0, s0) = earlier.hists.get(k).copied().unwrap_or((0, 0));
                    (k.clone(), (c.saturating_sub(c0), s.saturating_sub(s0)))
                })
                .collect(),
        }
    }

    /// A counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Mean of a histogram's observations (zero when empty).
    pub fn mean(&self, name: &str) -> f64 {
        match self.hists.get(name) {
            Some(&(c, s)) if c > 0 => s as f64 / c as f64,
            _ => 0.0,
        }
    }
}
