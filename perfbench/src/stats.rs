//! Percentiles with the sample-count rule: a percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it (p99 needs 1,000
//! samples, p95 200, p90 100, p50 20); otherwise it is unresolved.
//! Failed requests enter as `f64::INFINITY` — a miss, never a dropped
//! sample.

/// Samples that must lie beyond a percentile for it to be resolved.
const MIN_BEYOND: f64 = 10.0;

/// The fewest samples that resolve quantile `q` (`0 < q < 1`).
pub fn samples_needed(q: f64) -> usize {
    (MIN_BEYOND / (1.0 - q)).round() as usize
}

/// Nearest-rank quantile of `samples` (any order), or `None` when the
/// sample count does not resolve it. `Some(INFINITY)` means failures
/// reach the quantile.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.len() < samples_needed(q) {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(nearest_rank(&v, q))
}

/// Nearest-rank quantile of an ascending, non-empty slice.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of per-call timings (no count rule: per-layer medians are
/// reported with their call count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Mean of `samples`; `Some(INFINITY)` when a failure is among them.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_match_ten_samples_beyond() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.95), 200);
        assert_eq!(samples_needed(0.90), 100);
        assert_eq!(samples_needed(0.50), 20);
    }

    #[test]
    fn quantiles_resolve_only_with_enough_samples() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), None);
        assert_eq!(quantile(&v, 0.95), Some(950.0));
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), Some(990.0));
        assert_eq!(quantile(&v, 0.50), Some(500.0));
        assert_eq!(quantile(&v[..19], 0.50), None);
    }

    #[test]
    fn failures_count_as_misses() {
        // 989 fast requests and 11 failures: the p99 is a miss, the p50
        // is not moved down by dropping them.
        let mut v = vec![1.0; 989];
        v.extend([f64::INFINITY; 11]);
        assert_eq!(quantile(&v, 0.99), Some(f64::INFINITY));
        assert_eq!(quantile(&v, 0.50), Some(1.0));
        let mut w = vec![1.0; 500];
        w.extend(vec![2.0; 400]);
        w.extend([f64::INFINITY; 100]);
        assert_eq!(quantile(&w, 0.50), Some(1.0));
        assert_eq!(quantile(&w, 0.90), Some(2.0));
        assert_eq!(quantile(&w, 0.95), Some(f64::INFINITY));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mean_counts_failures_as_misses() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[1.0, f64::INFINITY]), Some(f64::INFINITY));
        assert_eq!(mean(&[]), None);
    }
}
