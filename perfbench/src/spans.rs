//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span has a name, a start and end on a shared clock, the span
//! that caused it, and the id of the transaction it belongs to. Spans
//! are kept in memory and written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span wraps (`rtt.write`, `engine.op`, ...).
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Index of the causing span in the same recorder.
    pub parent: Option<usize>,
    /// Shared by every span of one transaction (or restart, or query).
    pub txn: u64,
}

/// A per-thread span buffer. Threads record into their own buffer and
/// the buffers are merged after the threads are joined.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty buffer measuring from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Spans { epoch, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, txn: u64) -> usize {
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, txn });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Spans::open`].
    pub fn close(&mut self, id: usize) {
        let end = self.now();
        self.spans[id].end = end;
    }

    /// Records an already-measured interval.
    #[cfg(test)]
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Moves every span of `other` into `self`, re-basing parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in recording order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| self_time(s.start, s.end, kids))
            .collect()
    }

    /// Writes the first `limit` spans to `path`, one JSON object each.
    pub fn dump(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans.iter().zip(self.self_times()).take(limit);
        for (i, (s, t)) in spans.enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{t},\"parent\":{parent},\"txn\":{}}}",
                s.name, s.start, s.end, s.txn
            )?;
        }
        out.flush()
    }
}

/// A span's duration minus the part of `[start, end]` covered by its
/// children (overlapping children count once; parts of a child outside
/// the parent do not count).
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_part_once() {
        assert_eq!(self_time(0, 100, &mut []), 100);
        assert_eq!(self_time(0, 100, &mut [(10, 30)]), 80);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &mut [(60, 70), (10, 30)]), 70);
        // Overlapping children cover their union once.
        assert_eq!(self_time(0, 100, &mut [(10, 50), (40, 60)]), 50);
        // A child nested in another child.
        assert_eq!(self_time(0, 100, &mut [(10, 50), (20, 30)]), 60);
        // Parts outside the parent are ignored.
        assert_eq!(self_time(10, 20, &mut [(0, 15), (18, 40)]), 3);
        // Fully covered.
        assert_eq!(self_time(0, 10, &mut [(0, 10)]), 0);
    }

    #[test]
    fn recorder_links_children_and_merges_buffers() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch);
        let root = a.record(Span { name: "txn", start: 0, end: 100, parent: None, txn: 1 });
        a.record(Span { name: "rtt.write", start: 10, end: 40, parent: Some(root), txn: 1 });
        a.record(Span { name: "rtt.commit", start: 50, end: 90, parent: Some(root), txn: 1 });
        let mut b = Spans::new(epoch);
        let r2 = b.record(Span { name: "txn", start: 0, end: 10, parent: None, txn: 2 });
        b.record(Span { name: "rtt.write", start: 2, end: 6, parent: Some(r2), txn: 2 });
        a.absorb(b);
        assert_eq!(a.self_times(), vec![30, 30, 40, 6, 4]);
        assert_eq!(a.all()[4].parent, Some(3));
        let open = a.open("live", None, 3);
        a.close(open);
        assert!(a.all()[open].end >= a.all()[open].start);
    }
}
