//! Order statistics of latency samples.
//!
//! Timings are reported as a median plus a tail: the highest of p99, p95
//! and p90 that still leaves at least [`MIN_BEYOND`] samples above it, so a
//! tail is never read off a handful of outliers. The chosen percentile and
//! the sample count beyond it are reported beside the value.

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles, highest first.
const TAIL_PERCENTILES: [u32; 3] = [99, 95, 90];

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` percent of the sample at or below it. Returns the position
/// of that value in `sorted`.
fn rank(len: usize, p: u32) -> usize {
    debug_assert!(len > 0);
    let rank = (len * p as usize).div_ceil(100);
    rank.clamp(1, len) - 1
}

/// Nearest-rank percentile `p` (0..=100) of an ascending sample.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p)]
}

/// A reported tail: which percentile was chosen and how many samples lie
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value was read at (99, 95 or 90).
    pub percentile: u32,
    /// The percentile's value.
    pub value: f64,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
    /// Whether `beyond` meets [`MIN_BEYOND`]. A sample too small for even
    /// p90 reports p90 with `qualified: false`.
    pub qualified: bool,
}

/// The highest of p99/p95/p90 of an ascending sample that keeps at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn tail(sorted: &[f64]) -> Tail {
    if sorted.is_empty() {
        return Tail {
            percentile: 90,
            value: 0.0,
            beyond: 0,
            qualified: false,
        };
    }
    let n = sorted.len();
    let at = |p: u32| {
        let r = rank(n, p);
        Tail {
            percentile: p,
            value: sorted[r],
            beyond: n - 1 - r,
            qualified: n - 1 - r >= MIN_BEYOND,
        }
    };
    TAIL_PERCENTILES
        .iter()
        .map(|&p| at(p))
        .find(|t| t.qualified)
        .unwrap_or_else(|| at(90))
}

/// A latency sample in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    pub fn p50(&self) -> f64 {
        percentile(&self.sorted(), 50)
    }

    pub fn tail(&self) -> Tail {
        tail(&self.sorted())
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }
}

/// Median of an unsorted list (mean of the two middle values for an even
/// count) — used for repeated set-up timings.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50), 50.0);
        assert_eq!(percentile(&s, 99), 99.0);
        assert_eq!(percentile(&s, 100), 100.0);
        assert_eq!(percentile(&s, 0), 1.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }

    #[test]
    fn tail_picks_p99_once_ten_samples_lie_beyond_it() {
        // 1100 samples: p99 is rank 1089, leaving 11 beyond.
        let t = tail(&ramp(1100));
        assert_eq!(t.percentile, 99);
        assert_eq!(t.value, 1089.0);
        assert_eq!(t.beyond, 11);
        assert!(t.qualified);
        // 1000 samples: p99 leaves exactly 10 — still enough.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.beyond), (99, 10));
    }

    #[test]
    fn tail_falls_back_to_p95_then_p90() {
        // 999 samples: p99 (rank 990) leaves 9, p95 (rank 950) leaves 49.
        let t = tail(&ramp(999));
        assert_eq!((t.percentile, t.value, t.beyond), (95, 950.0, 49));
        // 150 samples: p95 leaves 7, p90 (rank 135) leaves 15.
        let t = tail(&ramp(150));
        assert_eq!((t.percentile, t.value, t.beyond), (90, 135.0, 15));
        assert!(t.qualified);
    }

    #[test]
    fn tail_of_a_tiny_sample_is_marked_unqualified() {
        let t = tail(&ramp(50));
        assert_eq!(t.percentile, 90);
        assert_eq!(t.value, 45.0);
        assert_eq!(t.beyond, 5);
        assert!(!t.qualified);
        assert!(!tail(&[]).qualified);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
