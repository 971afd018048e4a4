//! Exact sample statistics and failure accounting.
//!
//! Every latency the benchmark reports is computed here from the raw
//! samples it recorded itself, never from the program's power-of-two
//! histograms.

/// The `q`-quantile of `sorted` by the nearest-rank rule: the smallest
/// sample such that at least `q` of all samples are at or below it
/// (rank `ceil(q * n)`, 1-based). `q` is clamped to `[0, 1]`; `q = 0`
/// yields the minimum. Zero for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Raw samples of one quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank quantile (see [`nearest_rank`]).
    pub fn quantile(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        nearest_rank(&self.values, q)
    }

    /// Median by nearest rank.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

/// What a run attempted and what went wrong. Every failed, refused
/// (BUSY) or diverging operation counts against the attempts, so
/// `failed_frac` is the share of attempted work that did not meet its
/// contract.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted: timed transactions, time-travel reads and
    /// restarts.
    pub attempted: u64,
    /// Transactions acknowledged as committed.
    pub committed: u64,
    /// Requests refused with BUSY.
    pub busy: u64,
    /// Requests answered with an error or lost to a transport failure.
    pub errors: u64,
    /// Served values that contradicted an oracle (acked effects,
    /// durability across a restart, or a time-travel read).
    pub divergences: u64,
}

impl Tally {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.busy += other.busy;
        self.errors += other.errors;
        self.divergences += other.divergences;
    }

    /// Operations that failed in any way.
    pub fn failed(&self) -> u64 {
        self.busy + self.errors + self.divergences
    }

    /// Failed operations over attempted ones (zero when nothing was
    /// attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// True when every output matched its oracle and nothing errored.
    pub fn correct(&self) -> bool {
        self.errors == 0 && self.divergences == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&v, 0.001), 1.0);
        assert_eq!(nearest_rank(&v, 0.011), 2.0);
    }

    #[test]
    fn nearest_rank_small_and_empty() {
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        // Ten samples: p50 is the 5th, p99 the 10th (ceil(9.9) = 10).
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.99), 10.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
    }

    #[test]
    fn samples_sort_lazily_and_exactly() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        s.push(0.5);
        assert_eq!(s.quantile(0.0), 0.5);
        assert_eq!(s.median(), 2.0);
        assert!((s.mean() - 15.5 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn failed_frac_counts_busy_errors_and_divergences() {
        let mut t = Tally { attempted: 200, committed: 190, busy: 3, errors: 2, divergences: 5 };
        assert_eq!(t.failed(), 10);
        assert_eq!(t.failed_frac(), 0.05);
        assert!(!t.correct());
        // BUSY alone is a failure but not an incorrect output.
        t = Tally { attempted: 10, committed: 9, busy: 1, ..Tally::default() };
        assert_eq!(t.failed_frac(), 0.1);
        assert!(t.correct());
        assert_eq!(Tally::default().failed_frac(), 0.0);
        let mut sum = Tally::default();
        sum.absorb(&t);
        sum.absorb(&Tally { attempted: 10, divergences: 1, ..Tally::default() });
        assert_eq!(sum.attempted, 20);
        assert_eq!(sum.failed(), 2);
        assert!(!sum.correct());
    }
}
