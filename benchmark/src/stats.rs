//! Order statistics and the *quiet-slice* estimator.
//!
//! The host this benchmark runs on slows down for seconds to minutes at a
//! time (the same deterministic cold query ran between 230 ms and 560 ms),
//! so a whole-run median moves by a third from run to run. The quiet-slice
//! estimator keeps a metric's samples in arrival order, cuts them into
//! slices of consecutive samples, computes the statistic inside each slice,
//! and reports the best slice: the one taken while the host was quiet.

/// The `q`-quantile (0..=1) of an ascending-sorted series, by linear
/// interpolation between the two nearest ranks. `NaN` for an empty series.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted {
        [] => f64::NAN,
        [only] => *only,
        _ => {
            let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let below = rank.floor() as usize;
            let above = rank.ceil() as usize;
            let weight = rank - below as f64;
            sorted[below] * (1.0 - weight) + sorted[above] * weight
        }
    }
}

fn sorted_copy(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The `q`-quantile of an unsorted series.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted_copy(samples), q)
}

/// The median of an unsorted series.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The fastest of a series of timings (`NaN` for an empty series): the
/// quiet-slice estimate with slices of one. What `setup_s` reports — a
/// set-up is one deterministic computation repeated a few dozen times, and
/// this host is busy for all but moments of some runs: only the best repeat
/// is sure to be one of those moments.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

/// The arithmetic mean (`NaN` for an empty series).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The highest percentile a series supports: the largest of
/// p50/p75/p90/p95/p99/p99.9 that still has at least ten samples beyond it.
/// Returns `(percentile, value)`; the median when even p75 is unsupported.
pub fn highest_supported_percentile(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted_copy(samples);
    // Per-mille integers: `100 * (1.0 - 0.9)` is 9.999… in floating point.
    let per_mille = [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|p| sorted.len() * (1000 - p) / 1000 >= 10)
        .unwrap_or(500);
    (per_mille as f64 / 10.0, quantile_sorted(&sorted, per_mille as f64 / 1000.0))
}

/// The fewest slices a series is cut into: a requested slice size is
/// shrunk, down to a single sample, until there are this many.
pub const MIN_SLICES: usize = 100;

/// Start offsets and common length of the slices a series of `n` samples is
/// cut into for a requested slice `size`.
///
/// Slices are disjoint runs of consecutive samples. The requested size is
/// an upper limit: a quiet stretch of this host lasts seconds at best, so a
/// slice must stay short in *time*, and a series too short for
/// [`MIN_SLICES`] slices of the requested size gets smaller slices — one
/// sample each when it has fewer than `2 * MIN_SLICES` samples, which makes
/// the estimate the series' best single sample.
pub fn slice_bounds(n: usize, size: usize) -> (Vec<usize>, usize) {
    if n == 0 {
        return (Vec::new(), 0);
    }
    let size = size.min(n / MIN_SLICES).max(1);
    ((0..=n - size).step_by(size).collect(), size)
}

/// What the quiet-slice estimator saw in one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceSummary {
    /// The best slice's statistic — the reported value.
    pub best: f64,
    /// The statistic over all samples, ignoring slices (printed unguarded).
    pub overall: f64,
    /// Inter-quartile range of the per-slice statistics.
    pub slice_iqr: f64,
    /// How many slices the series was cut into (summed over series).
    pub slices: usize,
    /// How many samples went in (summed over series).
    pub samples: usize,
}

/// Which way is better for a sliced statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Latencies: the best slice is the one with the lowest statistic.
    Lower,
    /// Rates: the best slice is the one with the highest statistic.
    Higher,
}

/// Quiet-slice estimate of `stat` over one or more arrival-ordered series
/// (one per connection): every series is sliced on its own, the best slice
/// over all of them is reported. `None` when there are no samples at all.
pub fn quiet_slice(
    series: &[&[f64]],
    size: usize,
    better: Better,
    stat: impl Fn(&[f64]) -> f64,
) -> Option<SliceSummary> {
    let mut per_slice: Vec<f64> = Vec::new();
    let mut all: Vec<f64> = Vec::new();
    for samples in series {
        let (starts, len) = slice_bounds(samples.len(), size);
        per_slice.extend(starts.iter().map(|&s| stat(&samples[s..s + len])));
        all.extend_from_slice(samples);
    }
    if per_slice.is_empty() {
        return None;
    }
    let sorted = sorted_copy(&per_slice);
    let best = match better {
        Better::Lower => sorted[0],
        Better::Higher => sorted[sorted.len() - 1],
    };
    Some(SliceSummary {
        best,
        overall: stat(&all),
        slice_iqr: quantile_sorted(&sorted, 0.75) - quantile_sorted(&sorted, 0.25),
        slices: per_slice.len(),
        samples: all.len(),
    })
}

/// Completed operations in the busiest whole window of `window_ns`, given
/// every operation's completion time (ns since the phase began, any order)
/// and the phase length. Windows are aligned to the phase start; the
/// trailing partial window is ignored. Returns operations per second.
pub fn best_window_rate(completions_ns: &[u64], phase_ns: u64, window_ns: u64) -> Option<f64> {
    let windows = (phase_ns / window_ns) as usize;
    if windows == 0 {
        return None;
    }
    let mut counts = vec![0u64; windows];
    for &t in completions_ns {
        if let Some(slot) = counts.get_mut((t / window_ns) as usize) {
            *slot += 1;
        }
    }
    counts.iter().max().map(|&c| c as f64 / (window_ns as f64 * 1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let series = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&series), 2.5);
        assert_eq!(quantile(&series, 0.0), 1.0);
        assert_eq!(quantile(&series, 1.0), 4.0);
        assert_eq!(quantile(&series, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(fastest(&[0.9, 0.2, 0.8, 0.21]), 0.2);
        assert!(fastest(&[]).is_nan());
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        // 100 samples: p90 leaves exactly ten beyond it, p95 only five.
        assert_eq!(highest_supported_percentile(&hundred).0, 90.0);
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&thousand).0, 99.0);
        let ten_thousand: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&ten_thousand).0, 99.9);
        assert_eq!(highest_supported_percentile(&[1.0, 2.0, 3.0]), (50.0, 2.0));
    }

    #[test]
    fn long_series_is_cut_into_disjoint_slices_of_the_requested_size() {
        let (starts, len) = slice_bounds(10_000, 50);
        assert_eq!(len, 50);
        assert_eq!(starts, (0..200).map(|i| i * 50).collect::<Vec<_>>());
        // A trailing partial slice is dropped.
        let (starts, len) = slice_bounds(10_049, 50);
        assert_eq!((starts.len(), len), (200, 50));
    }

    #[test]
    fn short_series_shrinks_the_slice_never_the_slice_count() {
        // 1800 samples at a requested 50: 100 slices need a slice of 18.
        let (starts, len) = slice_bounds(1800, 50);
        assert_eq!((starts.len(), len), (100, 18));
        // Fewer than 200 samples: one sample per slice, i.e. the best sample.
        assert_eq!(slice_bounds(199, 50), ((0..199).collect(), 1));
        assert_eq!(slice_bounds(12, 50), ((0..12).collect(), 1));
        assert_eq!(slice_bounds(1, 8), (vec![0], 1));
        assert_eq!(slice_bounds(0, 8), (vec![], 0));
        // A requested size of one is honoured however long the series.
        assert_eq!(slice_bounds(5000, 1).1, 1);
        for n in 1..1000 {
            for size in [1, 8, 50, 500] {
                let (starts, len) = slice_bounds(n, size);
                assert!((1..=size).contains(&len), "n={n} size={size}");
                assert!(starts.len() >= MIN_SLICES.min(n), "n={n} size={size}");
                assert!(starts.iter().all(|s| s + len <= n), "n={n} size={size}");
            }
        }
    }

    #[test]
    fn quiet_slice_reports_the_best_slice_not_the_whole_run() {
        // A noisy first half (20 ms), a quiet stretch (10 ms) with one
        // straggler that a slice median ignores.
        let mut series = vec![20.0; 500];
        series.extend([10.0; 500]);
        series[700] = 40.0;
        series[100] = 10.0;
        let summary = quiet_slice(&[&series], 5, Better::Lower, median).expect("non-empty");
        assert_eq!(summary.best, 10.0);
        assert_eq!(summary.overall, 15.0);
        assert_eq!(summary.slices, 200);
        assert_eq!(summary.samples, 1000);
        assert_eq!(summary.slice_iqr, 10.0);
        // For rates the best slice is the highest one.
        let summary = quiet_slice(&[&series], 5, Better::Higher, median).expect("non-empty");
        assert_eq!(summary.best, 20.0);
        // A short series: the best single sample.
        let summary =
            quiet_slice(&[&[3.0, 2.0, 4.0][..]], 5, Better::Lower, median).expect("non-empty");
        assert_eq!((summary.best, summary.slices), (2.0, 3));
    }

    #[test]
    fn quiet_slice_slices_each_connection_on_its_own() {
        let a = [5.0; 300];
        let b = [3.0; 300];
        let summary = quiet_slice(&[&a, &b], 3, Better::Lower, median).expect("non-empty");
        // A hundred slices per connection, never one straddling both.
        assert_eq!(summary.slices, 200);
        assert_eq!(summary.best, 3.0);
        assert_eq!(summary.overall, 4.0);
        let empty: &[f64] = &[];
        assert!(quiet_slice(&[], 5, Better::Lower, median).is_none());
        assert!(quiet_slice(&[empty], 5, Better::Lower, median).is_none());
    }

    #[test]
    fn best_window_counts_completions_in_whole_windows_only() {
        let second = 1_000_000_000u64;
        // Three completions in window 0, one in window 1, five in the
        // trailing half window (ignored).
        let mut completions = vec![10, 20, 30, second + 5];
        completions.extend((0..5).map(|i| 2 * second + i));
        assert_eq!(best_window_rate(&completions, 2 * second + second / 2, second), Some(3.0));
        assert_eq!(best_window_rate(&completions, second / 2, second), None);
        // Half-second windows report per-second rates.
        assert_eq!(best_window_rate(&[1, 2, 3], second, second / 2), Some(6.0));
    }
}
