//! Order statistics for latency samples.

/// The percentiles a tail is read at, highest first, in tenths of a
/// percent (integer, so ranks are exact).
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The fewest samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest rank (1-based) of the percentile `per_mille / 10` among `n`
/// samples: `ceil(per_mille * n / 1000)`.
fn rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// A tail latency: the highest ladder percentile, up to a cap, with at
/// least [`TAIL_MIN_BEYOND`] samples ranked beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value was read at.
    pub percentile: f64,
    /// The value at that percentile.
    pub value: f64,
    /// How many samples the percentile was read from.
    pub samples: usize,
}

/// The tail of `values` by the [`TAIL_MIN_BEYOND`] rule, read at no
/// higher percentile than `cap_per_mille` (in tenths of a percent). The cap
/// keeps the percentile fixed for a workload: without it, a run that a
/// fast host lets do more operations would cross a ladder step and read a
/// higher percentile than a slow run. With too few samples for even the
/// median to have that many beyond it, the median is reported (its
/// `percentile` says so).
pub fn tail(values: &[f64], cap_per_mille: usize) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail { percentile: 50.0, value: 0.0, samples: 0 };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let per_mille = TAIL_LADDER
        .into_iter()
        .filter(|&pm| pm <= cap_per_mille)
        .find(|&pm| n - rank(pm, n) >= TAIL_MIN_BEYOND)
        .unwrap_or(500);
    Tail { percentile: per_mille as f64 / 10.0, value: sorted[rank(per_mille, n) - 1], samples: n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1..=100: p90 sits at rank 90 with exactly 10 samples beyond;
        // p95 would leave only 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 999);
        assert_eq!((t.percentile, t.value, t.samples), (90.0, 90.0, 100));

        // 1000 samples support p99 (10 beyond) but not p99.9 (1 beyond).
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&v, 999);
        assert_eq!((t.percentile, t.value), (99.0, 990.0));

        // 10 000 samples support p99.9.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v, 999).percentile, 99.9);
    }

    #[test]
    fn tail_boundaries_and_fallback() {
        // 40 samples: p75 is rank 30 (10 beyond); p90 is rank 36 (4 beyond).
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v, 999).percentile, 75.0);
        // 39 samples: p75 is rank 30 (9 beyond), so the median is the tail.
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        let t = tail(&v, 999);
        assert_eq!((t.percentile, t.value), (50.0, 20.0));
        // Too few for any rule: the median is reported.
        let t = tail(&[5.0, 1.0, 3.0], 999);
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 3.0, 3));
        assert_eq!(tail(&[], 999).samples, 0);
    }

    #[test]
    fn tail_never_reads_above_its_cap() {
        // 10 000 samples would support p99.9; a p99 cap reads p99.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&v, 990);
        assert_eq!((t.percentile, t.value), (99.0, 9900.0));
        // A cap between ladder steps reads the step below it.
        assert_eq!(tail(&v, 980).percentile, 95.0);
        // The ten-beyond rule still applies under the cap.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 990).percentile, 90.0);
        // A median cap always reads the median.
        assert_eq!(tail(&v, 500).percentile, 50.0);
    }
}
