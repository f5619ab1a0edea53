//! Aggregation of run samples: medians, nearest-rank percentiles, the
//! rule for which percentile a sample count can support, and geometric
//! means.

/// Percentiles the benchmark may report, lowest first.
const CANDIDATES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank percentile `p` (0 < p <= 100) of `samples`: the
/// smallest sample with at least `p`% of all samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside (0, 100].
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (99.9% of 10 000 is 9990.000…02)
    // from pushing an exact rank up by one.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Whether `p` has at least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    n >= rank(n, p) + MIN_BEYOND
}

/// The highest candidate percentile (p50, p90, p99, p99.9) that has at
/// least [`MIN_BEYOND`] samples beyond it, or `None` when even the
/// median has not.
pub fn highest_supported(n: usize) -> Option<f64> {
    CANDIDATES.into_iter().rev().find(|&p| supports(n, p))
}

/// The median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean of non-positive value {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// `part / whole` as a percentage, 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// `events` per thousand guest instructions, 0 without instructions.
pub fn per_kinsn(events: u64, insns: u64) -> f64 {
    if insns > 0 {
        1000.0 * events as f64 / insns as f64
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p50 of 19 samples is rank 10: 9 beyond, not enough.
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        // p90 of 99 samples is rank 90: 9 beyond.
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert!(supports(100, 90.0) && !supports(99, 90.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0], 1.0), 1.0);
    }

    #[test]
    fn aggregation() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(pct(1.0, 4.0), 25.0);
        assert_eq!(pct(1.0, 0.0), 0.0);
        assert_eq!(per_kinsn(3, 1500), 2.0);
        assert_eq!(per_kinsn(3, 0), 0.0);
    }
}
