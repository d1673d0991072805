//! Percentiles with a sample-count guard, and the run-level summary
//! helpers built on them.

/// How many samples must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of quantile `q` in `n` samples:
/// `ceil(q · n)`, clamped to `1..=n`.
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
pub fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank `q`-quantile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — the run then refuses
/// to report that percentile.
#[must_use]
pub fn guarded_percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = nearest_rank(sorted.len(), q);
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Sorts latencies (nanoseconds; `u64::MAX` marks a failed request,
/// which misses every limit).
#[must_use]
pub fn sorted(mut samples: Vec<u64>) -> Vec<u64> {
    samples.sort_unstable();
    samples
}

/// The median of a non-empty slice of floats (mean of the middle two on
/// an even count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of `values` with linear interpolation between order
/// statistics (the "type 7" estimator), for `q` in `[0, 1]`.
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (at.floor() as usize, at.fract());
    match v.get(lo + 1) {
        Some(hi) => v[lo] + (hi - v[lo]) * frac,
        None => v[lo],
    }
}

/// Splits `n` samples into as many consecutive, nearly equal windows as
/// keep at least `min_size` samples each (at most `max_windows`, at least
/// one); returns each window's index range.
#[must_use]
pub fn windows(n: usize, min_size: usize, max_windows: usize) -> Vec<std::ops::Range<usize>> {
    let count = (n / min_size.max(1)).clamp(1, max_windows.max(1));
    (0..count)
        .map(|w| (w * n / count)..((w + 1) * n / count))
        .collect()
}

/// Completion rate over consecutive windows of `per_window` completions:
/// `per_window / (t[end] − t[start])` for sorted completion times in
/// seconds. Count-based windows give continuous rates even when few
/// requests complete per second.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn windowed_rates(sorted_times: &[f64], per_window: usize) -> Vec<f64> {
    let k = per_window.max(1);
    (0..sorted_times.len().saturating_sub(1) / k)
        .map(|w| k as f64 / (sorted_times[(w + 1) * k] - sorted_times[w * k]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        assert_eq!(nearest_rank(100, 0.5), 50);
        assert_eq!(nearest_rank(100, 0.99), 99);
        assert_eq!(nearest_rank(101, 0.5), 51);
        assert_eq!(nearest_rank(10, 0.9), 9);
        assert_eq!(nearest_rank(1, 0.99), 1);
        assert_eq!(nearest_rank(5, 0.0), 1);
        assert_eq!(nearest_rank(5, 1.0), 5);
    }

    #[test]
    fn the_guard_needs_ten_samples_beyond_the_percentile() {
        let samples: Vec<u64> = (1..=1009).collect();
        // p99 of 1009: rank 999, 10 beyond — reportable.
        assert_eq!(guarded_percentile(&samples, 0.99), Some(999));
        // p99 of 1008: rank 998, also 10 beyond.
        assert_eq!(guarded_percentile(&samples[..1008], 0.99), Some(998));
        // p99 of 999: rank 990, only 9 beyond — refused.
        assert_eq!(guarded_percentile(&samples[..999], 0.99), None);
        // p90 needs 100 samples.
        assert_eq!(guarded_percentile(&samples[..100], 0.9), Some(90));
        assert_eq!(guarded_percentile(&samples[..99], 0.9), None);
        // The median needs 20.
        assert_eq!(guarded_percentile(&samples[..20], 0.5), Some(10));
        assert_eq!(guarded_percentile(&samples[..19], 0.5), None);
        assert_eq!(guarded_percentile(&[], 0.5), None);
    }

    #[test]
    fn failures_sort_last_and_count_as_missing_the_limit() {
        let mut samples: Vec<u64> = (1..=180).rev().collect();
        samples.extend([u64::MAX; 20]);
        let s = sorted(samples);
        assert_eq!(guarded_percentile(&s, 0.9), Some(180));
        assert_eq!(guarded_percentile(&s, 0.95), Some(u64::MAX));
        assert_eq!(guarded_percentile(&s, 0.5), Some(100));
    }

    #[test]
    fn windows_keep_their_minimum_size() {
        assert_eq!(windows(250, 100, 16), vec![0..125, 125..250]);
        assert_eq!(windows(99, 100, 16), vec![0..99]);
        assert_eq!(windows(10_000, 100, 4).len(), 4);
        assert!(windows(1_234, 100, 16).iter().all(|w| w.len() >= 100));
    }

    #[test]
    fn windowed_rates_divide_counts_by_spans() {
        let times: Vec<f64> = (0..=10).map(|i| f64::from(i) * 0.5).collect();
        assert_eq!(windowed_rates(&times, 5), vec![2.0, 2.0]);
        assert!(windowed_rates(&times[..3], 5).is_empty());
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
