//! Percentiles and the digest every pass folds its results into.

use cd_core::rng::splitmix64;

/// The `q`-quantile (`0 < q ≤ 1`) of an ascending sample by nearest
/// rank: the smallest value with at least `⌈q·n⌉` samples at or below
/// it. `None` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(q > 0.0 && q <= 1.0, "quantile {q} out of (0, 1]");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(sorted[rank(n, q).clamp(1, n) - 1])
}

/// `⌈q·n⌉`, immune to `q·n` landing a rounding error above an integer.
fn rank(n: usize, q: f64) -> usize {
    (q * n as f64 * (1.0 - 1e-12)).ceil() as usize
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).min(n)
}

/// The quantiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];

/// The highest quantile of [`TAIL_LADDER`] with at least 10 samples
/// beyond it — the deepest tail `n` samples can honestly show.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&q| beyond(n, q) >= 10)
}

/// A timing sample reduced to what the report prints: the median, the
/// deepest honest tail, and the sample count.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The 99th percentile (nearest rank; see [`Self::p99_honest`]).
    pub p99: f64,
    /// The deepest quantile with ≥ 10 samples beyond it, and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `samples` (sorted in place).
    pub fn of(samples: &mut [f64]) -> Summary {
        samples.sort_unstable_by(f64::total_cmp);
        let n = samples.len();
        let q = |q| percentile(samples, q).unwrap_or(0.0);
        Summary {
            n,
            p50: q(0.5),
            p99: q(0.99),
            tail: tail_quantile(n).map(|t| (t, q(t))),
        }
    }

    /// Whether the p99 has at least 10 samples beyond it.
    pub fn p99_honest(&self) -> bool {
        beyond(self.n, 0.99) >= 10
    }

    /// `p50 = …, p99.9 = …, n = …` in `unit`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((q, v)) => format!(", p{} = {v:.2} {unit}", (q * 10_000.0).round() / 100.0),
            None => ", (no tail: < 20 samples)".to_string(),
        };
        format!("p50 = {:.2} {unit}{tail}, n = {}", self.p50, self.n)
    }
}

/// An order-sensitive 64-bit fold of everything a pass observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one value in.
    pub fn fold(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v);
    }

    /// Fold one op: key, success, wire cost, completion tick and the
    /// hash of the value read or written.
    pub fn op(&mut self, key: u64, ok: bool, msgs: u64, bytes: u64, at: Option<u64>, value: u64) {
        for v in [
            key,
            u64::from(ok),
            msgs,
            bytes,
            at.unwrap_or(u64::MAX),
            value,
        ] {
            self.fold(v);
        }
    }
}

/// A 64-bit hash of a byte string (0 is reserved for "no value").
pub fn hash_bytes(b: &[u8]) -> u64 {
    let mut h = splitmix64(b.len() as u64) | 1;
    let mut chunks = b.chunks_exact(8);
    for c in &mut chunks {
        h = splitmix64(h ^ u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    for &x in chunks.remainder() {
        h = splitmix64(h ^ u64::from(x));
    }
    h | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_indexing() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.001), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(100_000), Some(0.9999));
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(19), None);
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let mut v: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let s = Summary::of(&mut v);
        assert_eq!((s.n, s.p50, s.p99), (2000, 999.0, 1979.0));
        assert_eq!(s.tail, Some((0.99, 1979.0)));
        assert!(s.p99_honest());
        assert!(s.describe("us").contains("p99 = 1979.00 us"));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.fold(1);
        a.fold(2);
        b.fold(2);
        b.fold(1);
        assert_ne!(a, b);
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abd"));
        assert_ne!(hash_bytes(b""), 0);
    }
}
