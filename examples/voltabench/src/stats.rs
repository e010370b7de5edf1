//! Order statistics and the seeded shuffle.

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Smallest of `values`.
///
/// The benchmark is deterministic and single-threaded, so other
/// processes on a shared host can only slow a step, never speed it up.
/// The fastest of a step's samples across passes is therefore its time
/// without contention, as long as one of them ran in a quiet moment;
/// a median moves whenever contention covers half of a run.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match
/// the ones computed from the JSON results. A single sample is its own
/// quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return (s[0], s[0]);
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "percentile of no samples");
    s[rank(s.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    n - rank(n, p)
}

/// The highest whole percentile that still has at least ten samples
/// beyond it, or `None` when `n` is too small for even the median.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| n > 0 && beyond(n, p) >= 10)
}

fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle of `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The seed of one stream (a set-up repetition or a pass) derived from
/// the run's `--seed`, so every stream of a run is distinct and every
/// run with the same seed repeats them.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(120), Some(91));
        assert_eq!(tail_percentile(1200), Some(99));
        for n in [20, 53, 100, 106, 150, 576, 600, 1200] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(beyond(n, p + 1) < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&[3.0], 90), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(fastest(&[4.0, 1.5, 3.0]), 1.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn shuffle_is_a_seeded_deterministic_permutation() {
        let base: Vec<u32> = (0..120).collect();
        let order = |seed| {
            let mut v = base.clone();
            SplitMix64::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, base);
        assert_ne!(stream_seed(1, 0), stream_seed(1, 1));
        assert_ne!(stream_seed(1, 0), stream_seed(2, 0));
        assert_eq!(stream_seed(5, 3), stream_seed(5, 3));
    }
}
