//! Order statistics over raw samples: every timing the benchmark reports is
//! a median or a percentile of the samples of one run, never a mean.
//!
//! Timings are taken per segment of a run. On a small shared host each vCPU
//! flips, for fractions of a second to minutes at a time, between a quiet
//! state and one where the same work takes up to 1.8 times as long, and the
//! share of a run spent in the slow state differs from run to run: from
//! none to nearly all of it. A run therefore reports the [`TYPICAL_RANK`]
//! quantile over its segments of each segment's median (or percentile):
//! the quiet state's figure whenever at least that share of the run was
//! quiet. Set-ups, spread through the run, are reported the same way (see
//! `LAYERS.md`).

use std::time::{Duration, Instant};

/// The `q`-quantile (`q` in `[0, 1]`) of `samples`, linearly interpolated
/// between the two nearest order statistics. Returns 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over samples already sorted ascending.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `samples` (0 for no samples).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The rank, over samples spread through a run, of the figure the run
/// reports. The lower quartile reads the slow state in every run that spends
/// more than three quarters of its time in it, which spread the
/// reconfig-cycle switch time by up to half its median over ten runs.
pub const TYPICAL_RANK: f64 = 0.05;

/// The [`TYPICAL_RANK`] quantile of `samples` (0 for no samples): the figure
/// a run reports over samples spread through it.
pub fn typical(samples: &[f64]) -> f64 {
    quantile(samples, TYPICAL_RANK)
}

/// Median absolute deviation from the median (0 for no samples).
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    let deviations: Vec<f64> = samples.iter().map(|x| (x - m).abs()).collect();
    median(&deviations)
}

/// Largest value (0 for no samples).
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// Samples bucketed by when they were taken into fixed-length segments of
/// a run.
pub struct Segmented {
    origin: Instant,
    segment: Duration,
    buckets: Vec<Vec<f64>>,
}

impl Segmented {
    /// Segments of length `segment`, counted from `origin`.
    pub fn new(origin: Instant, segment: Duration) -> Self {
        Self {
            origin,
            segment,
            buckets: Vec::new(),
        }
    }

    /// Adds a sample taken at `at`.
    pub fn push(&mut self, at: Instant, value: f64) {
        let k = (at.saturating_duration_since(self.origin).as_secs_f64()
            / self.segment.as_secs_f64()) as usize;
        if self.buckets.len() <= k {
            self.buckets.resize_with(k + 1, Vec::new);
        }
        self.buckets[k].push(value);
    }

    /// Every sample, in segment order.
    pub fn all(&self) -> Vec<f64> {
        self.buckets.concat()
    }

    /// Each segment's `q`-quantile, over segments holding at least
    /// `min_samples` samples, in segment order.
    pub fn per_segment(&self, q: f64, min_samples: usize) -> Vec<f64> {
        self.buckets
            .iter()
            .filter(|b| b.len() >= min_samples)
            .map(|b| quantile(b, q))
            .collect()
    }

    /// The [`typical`] figure over segments of the per-segment
    /// `q`-quantiles (segments with at least `min_samples` samples); the
    /// `q`-quantile of all samples when no segment qualifies.
    pub fn typical(&self, q: f64, min_samples: usize) -> f64 {
        let segments = self.per_segment(q, min_samples);
        if segments.is_empty() {
            quantile(&self.all(), q)
        } else {
            typical(&segments)
        }
    }
}

/// One human-readable line: sample count, median, MAD and the quartiles,
/// p90 and p99 of `samples`.
pub fn describe(samples: &[f64]) -> String {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = |p: f64| quantile_sorted(&sorted, p);
    format!(
        "n={} median={:.4} mad={:.4} p25={:.4} p75={:.4} p90={:.4} p99={:.4}",
        sorted.len(),
        q(0.5),
        mad(&sorted),
        q(0.25),
        q(0.75),
        q(0.9),
        q(0.99)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(typical(&v), 1.2);
    }

    #[test]
    fn segments_report_the_typical_figure_of_their_figures() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut s = Segmented::new(t0, Duration::from_secs(1));
        for (ms, v) in [
            (10, 9.0),
            (20, 8.0),
            (30, 7.0),
            (1_100, 3.0),
            (1_200, 5.0),
            (2_500, 1.0),
            (3_100, 6.0),
            (3_200, 6.0),
        ] {
            s.push(at(ms), v);
        }
        assert_eq!(s.all(), vec![9.0, 8.0, 7.0, 3.0, 5.0, 1.0, 6.0, 6.0]);
        assert_eq!(s.per_segment(0.5, 2), vec![8.0, 4.0, 6.0]);
        // 0.05 quantile of 4, 6, 8
        assert_eq!(s.typical(0.5, 2), 4.2);
        // 0.05 quantile of 8, 4, 1, 6
        assert!((s.typical(0.5, 1) - 1.45).abs() < 1e-12);
        assert_eq!(s.typical(1.0, 3), 9.0, "one full segment");
        assert_eq!(s.typical(0.5, 4), 6.0, "no full segment: all samples");
    }

    #[test]
    fn median_and_mad_on_fixed_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 100.0]), 2.5);
        // deviations from 2.5: 0.5, 1.5, 0.5, 97.5 -> median 1.0
        assert_eq!(mad(&[3.0, 1.0, 2.0, 100.0]), 1.0);
        assert_eq!(mad(&[4.0, 4.0, 4.0]), 0.0);
        // 1 2 3 4 5 6 7 8 9 -> median 5, deviations 4 3 2 1 0 1 2 3 4 -> 2
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(median(&nine), 5.0);
        assert_eq!(mad(&nine), 2.0);
        assert_eq!(max(&nine), 9.0);
    }
}
