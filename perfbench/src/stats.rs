//! Order statistics for latency samples and per-run repetitions.

/// Percentiles the tail is picked from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported tail percentile must leave beyond it, so the tail is
/// never read off a handful of outliers.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// Zero-based index of the nearest-rank `p`-th percentile among `n`
/// samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    // The small slack keeps decimal percentiles such as 99.9 from landing
    // one rank high through binary rounding.
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Median of unsorted values (the lower middle value for even counts, as
/// nearest-rank gives it).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest reportable percentile of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile it is.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples above it.
    pub beyond: usize,
    /// Samples in all.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when even the median
/// does not (fewer than 20 samples).
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&p| {
        if n == 0 {
            return None;
        }
        let beyond = n - 1 - rank(n, p);
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: sorted[rank(n, p)],
            beyond,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = one_to(10);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&one_to(19)), None);
        let t = tail(&one_to(20)).expect("median qualifies");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        let t = tail(&one_to(40)).expect("p75 qualifies");
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 30.0, 10));
        let t = tail(&one_to(100)).expect("p90 qualifies");
        assert_eq!((t.percentile, t.beyond), (90.0, 10));
        let t = tail(&one_to(1000)).expect("p99 qualifies");
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        let t = tail(&one_to(10_000)).expect("p99.9 qualifies");
        assert_eq!((t.percentile, t.beyond, t.samples), (99.9, 10, 10_000));
    }

    #[test]
    fn misses_rank_above_every_completed_sample() {
        // A failed session enters the sample at the client deadline, so
        // it lands in the tail instead of vanishing from it.
        let mut v = one_to(30);
        v.extend([60_000.0; 12]);
        let t = tail(&sorted(&v)).expect("p75 qualifies");
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 60_000.0, 10));
        assert_eq!(percentile(&sorted(&v), 50.0), 21.0);
    }
}
