//! Order statistics used by every metric: nearest-rank percentiles, the
//! geometric mean, and the rule that picks the highest percentile a sample
//! can support.

/// The 1-based nearest rank of percentile `p` in `n` samples. The small
/// slack keeps `0.999 * 10000` from rounding up past 9990.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(p, sorted.len()).min(sorted.len()) - 1])
}

/// Nearest-rank median (the lower middle for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Geometric mean of positive values; `None` when empty or when a value
/// is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Samples that must lie above a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest of the usual tail percentiles that leaves at least
/// [`TAIL_SAMPLES`] samples above it in a sample of `n`.
pub fn supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n >= rank(p, n) + TAIL_SAMPLES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn geometric_mean() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(2000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(15), None);
        assert_eq!(supported_percentile(20), Some(50.0));
    }
}
