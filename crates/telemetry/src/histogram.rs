//! Log-bucketed streaming histogram: bounded memory, lock-free recording,
//! associative merging and quantiles within one bucket of the true value.
//!
//! The bucketing is **log-linear in base 2** (the HdrHistogram layout): each
//! power-of-two octave between `2^MIN_EXP` and `2^MAX_EXP` is divided into
//! [`SUB_BUCKETS`] linear sub-buckets, so a value's bucket index is computed
//! straight from its IEEE-754 bits — no `ln`, no platform-dependent libm,
//! bit-identical on every machine. The relative bucket width is
//! `1/SUB_BUCKETS ≈ 3%`, which bounds the quantile error: the reported
//! quantile lands in the same bucket as the exact nearest-rank value.

/// Linear sub-buckets per power-of-two octave; the relative resolution of
/// the histogram is `1/SUB_BUCKETS`.
const SUB_BUCKETS: usize = 32;
/// Smallest representable exponent: values below `2^-10` (≈ 0.001 ms when
/// recording milliseconds) collapse into the first bucket.
const MIN_EXP: i32 = -10;
/// Largest representable exponent: values at or above `2^20` (≈ 17 minutes
/// in milliseconds) count in the overflow bucket, reported as the max.
const MAX_EXP: i32 = 20;
const OCTAVES: usize = (MAX_EXP - MIN_EXP) as usize;
const BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// Fixed-layout log-bucketed histogram of non-negative samples (latencies,
/// service times, batch sizes). `counts` stores only the *occupied* slice
/// of the conceptual `BUCKETS`-long array: `counts[i]` is bucket
/// `base + i`, and the slice is trimmed so `counts.first()` and
/// `counts.last()` are both nonzero (empty histograms hold an empty `Vec`
/// and `base == 0`). Real metric streams occupy a narrow band of the
/// 960-bucket range, so snapshot clones and delta scans touch tens of
/// slots instead of the full array — that is what keeps the per-window
/// observability scrape inside the full-telemetry overhead budget. Bucket
/// counts only ever grow, so the trimmed bounds are a pure function of the
/// recorded multiset and the derived `PartialEq` stays honest.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingHistogram {
    /// Absolute bucket index of `counts[0]`.
    base: usize,
    counts: Vec<u64>,
    /// Samples at or above `2^MAX_EXP`.
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            base: 0,
            counts: Vec::new(),
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The relative width of one bucket: quantiles are exact up to this
    /// fraction of the reported value.
    pub const fn relative_error() -> f64 {
        1.0 / SUB_BUCKETS as f64
    }

    /// Records one sample. Negative and sub-minimum values collapse into the
    /// first bucket; non-finite samples are ignored (they carry no
    /// information a bounded histogram can hold).
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        match bucket_index(value) {
            Some(i) => *self.slot(i) += 1,
            None => self.overflow += 1,
        }
    }

    /// A mutable reference to the conceptual bucket `idx`, growing the
    /// trimmed slice to cover it. Growth happens at most once per newly
    /// occupied boundary bucket, so the amortised cost over a histogram's
    /// lifetime is bounded by the occupied span.
    fn slot(&mut self, idx: usize) -> &mut u64 {
        debug_assert!(idx < BUCKETS, "bucket index inside the layout");
        if self.counts.is_empty() {
            self.base = idx;
            self.counts.push(0);
        } else if idx < self.base {
            let grow = self.base - idx;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = idx;
        } else if idx >= self.base + self.counts.len() {
            self.counts.resize(idx - self.base + 1, 0);
        }
        &mut self.counts[idx - self.base]
    }

    /// The conceptual bucket `idx`'s count (0 outside the occupied slice).
    fn bucket(&self, idx: usize) -> u64 {
        idx.checked_sub(self.base)
            .and_then(|i| self.counts.get(i).copied())
            .unwrap_or(0)
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`: the smallest bucket boundary
    /// with at least `q` of the mass at or below it, clamped to the observed
    /// maximum. Within one bucket width (≈ 3% relative) of the exact
    /// nearest-rank sample; returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(self.base + i).min(self.max).max(self.min);
            }
        }
        // the rank falls in the overflow bucket
        self.max
    }

    /// Merges another histogram into this one. Associative and commutative:
    /// `(a ∪ b) ∪ c` and `a ∪ (b ∪ c)` hold identical buckets, which is
    /// what lets per-worker and per-device histograms aggregate in any
    /// order.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        if other.count == 0 {
            return;
        }
        if !other.counts.is_empty() {
            if self.counts.is_empty() {
                self.base = other.base;
                self.counts = other.counts.clone();
            } else {
                // grow once to the union of the two occupied spans, then add
                let lo = self.base.min(other.base);
                let hi = (self.base + self.counts.len()).max(other.base + other.counts.len());
                if lo < self.base {
                    let grow = self.base - lo;
                    self.counts.splice(0..0, std::iter::repeat_n(0, grow));
                    self.base = lo;
                }
                self.counts.resize(hi - lo, 0);
                let offset = other.base - lo;
                for (i, &theirs) in other.counts.iter().enumerate() {
                    self.counts[offset + i] += theirs;
                }
            }
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The inclusive lower / exclusive upper boundaries of the bucket a
    /// value falls into (the quantile's uncertainty interval).
    pub fn bucket_bounds(value: f64) -> (f64, f64) {
        match bucket_index(value) {
            Some(i) => (bucket_lower(i), bucket_upper(i)),
            None => (two_pow(MAX_EXP), f64::INFINITY),
        }
    }

    /// The per-window delta between this snapshot and an earlier snapshot
    /// `prev` of the same cumulative histogram, or `None` when `self` is not
    /// a superset of `prev` (a counter reset: the histogram was replaced,
    /// not extended — bucket counts went backwards).
    ///
    /// The delta carries the window's bucket increments (sparse) *and* the
    /// end-state scalars (`count`/`overflow`/`sum`/`min`/`max` of `self`),
    /// so [`StreamingHistogram::apply_delta`] reconstructs `self` from
    /// `prev` bit-exactly: the floating-point fields travel as absolutes
    /// and are never re-derived by arithmetic that could round differently.
    pub fn delta_since(&self, prev: &StreamingHistogram) -> Option<HistogramDelta> {
        if self.count < prev.count || self.overflow < prev.overflow {
            return None;
        }
        if prev.count > 0 && (self.min > prev.min || self.max < prev.max) {
            return None;
        }
        // a trimmed histogram has nonzero boundary buckets, so any part of
        // `prev`'s occupied span outside `self`'s means a bucket shrank
        if !prev.counts.is_empty()
            && (self.counts.is_empty()
                || prev.base < self.base
                || prev.base + prev.counts.len() > self.base + self.counts.len())
        {
            return None;
        }
        let mut buckets = Vec::new();
        for (i, &cur) in self.counts.iter().enumerate() {
            let idx = self.base + i;
            let before = prev.bucket(idx);
            if cur < before {
                return None;
            }
            if cur > before {
                buckets.push((idx as u32, cur - before));
            }
        }
        Some(HistogramDelta {
            buckets,
            overflow: self.overflow - prev.overflow,
            count: self.count - prev.count,
            end_count: self.count,
            end_overflow: self.overflow,
            end_sum: self.sum,
            end_min: self.min,
            end_max: self.max,
        })
    }

    /// Re-merges a delta produced by [`StreamingHistogram::delta_since`]
    /// onto the snapshot it was diffed against, reconstructing the later
    /// snapshot **bit-exactly** (the delta's end-state scalars are copied,
    /// not recomputed).
    pub fn apply_delta(&self, delta: &HistogramDelta) -> StreamingHistogram {
        let mut merged = self.clone();
        for &(i, inc) in &delta.buckets {
            *merged.slot(i as usize) += inc;
        }
        merged.overflow = delta.end_overflow;
        merged.count = delta.end_count;
        merged.sum = delta.end_sum;
        merged.min = delta.end_min;
        merged.max = delta.end_max;
        merged
    }
}

/// One scrape window's worth of a cumulative [`StreamingHistogram`]: the
/// sparse bucket increments recorded during the window plus the end-state
/// scalars needed to re-merge the delta bit-exactly (see
/// [`StreamingHistogram::delta_since`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramDelta {
    /// `(bucket index, added count)` pairs, ascending by index.
    buckets: Vec<(u32, u64)>,
    /// Overflow samples added during the window.
    overflow: u64,
    /// Samples added during the window.
    count: u64,
    end_count: u64,
    end_overflow: u64,
    end_sum: f64,
    end_min: f64,
    end_max: f64,
}

impl HistogramDelta {
    /// Samples recorded during the window.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the window recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// A standalone histogram of just this window's samples, for per-window
    /// quantiles. Bucket counts are exact; when the window is the
    /// histogram's entire history the scalars are exact too, otherwise
    /// `min`/`max` are widened to the occupied bucket boundaries and `sum`
    /// is estimated from bucket midpoints (documented ±one-bucket error,
    /// same as every quantile read).
    pub fn window_histogram(&self) -> StreamingHistogram {
        if self.count == 0 {
            return StreamingHistogram::new();
        }
        let mut base = 0;
        let mut counts = Vec::new();
        if let (Some(&(first, _)), Some(&(last, _))) = (self.buckets.first(), self.buckets.last()) {
            base = first as usize;
            counts = vec![0; (last - first) as usize + 1];
            for &(i, inc) in &self.buckets {
                counts[i as usize - base] += inc;
            }
        }
        let exact = self.count == self.end_count;
        let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        if exact {
            (min, max, sum) = (self.end_min, self.end_max, self.end_sum);
        } else {
            for &(i, inc) in &self.buckets {
                min = min.min(bucket_lower(i as usize));
                max = max.max(bucket_upper(i as usize));
                sum += inc as f64 * 0.5 * (bucket_lower(i as usize) + bucket_upper(i as usize));
            }
            if self.overflow > 0 {
                // overflow samples are bounded below by the layout maximum
                // and above by the cumulative maximum
                min = min.min(two_pow(MAX_EXP));
                max = max.max(self.end_max);
                sum += self.overflow as f64 * two_pow(MAX_EXP);
            }
        }
        StreamingHistogram {
            base,
            counts,
            overflow: self.overflow,
            count: self.count,
            sum,
            min,
            max,
        }
    }
}

/// `2^e` as an exact f64, for the exponent range the layout uses.
fn two_pow(e: i32) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Bucket index of a finite value, or `None` for the overflow range.
fn bucket_index(value: f64) -> Option<usize> {
    if value < two_pow(MIN_EXP) {
        // negative, zero and sub-minimum values share the first bucket
        return Some(0);
    }
    if value >= two_pow(MAX_EXP) {
        return None;
    }
    let bits = value.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as i32 - 1023;
    // top bits of the mantissa select the linear sub-bucket inside the octave
    let sub = (bits >> (52 - SUB_BUCKETS.trailing_zeros() as u64)) as usize & (SUB_BUCKETS - 1);
    Some(((exponent - MIN_EXP) as usize) * SUB_BUCKETS + sub)
}

/// Inclusive lower boundary of bucket `i`.
fn bucket_lower(i: usize) -> f64 {
    let exponent = MIN_EXP + (i / SUB_BUCKETS) as i32;
    let sub = (i % SUB_BUCKETS) as f64;
    two_pow(exponent) * (1.0 + sub / SUB_BUCKETS as f64)
}

/// Exclusive upper boundary of bucket `i`.
fn bucket_upper(i: usize) -> f64 {
    let exponent = MIN_EXP + (i / SUB_BUCKETS) as i32;
    let sub = (i % SUB_BUCKETS) as f64 + 1.0;
    two_pow(exponent) * (1.0 + sub / SUB_BUCKETS as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_boundary_exact() {
        let values = [0.001, 0.5, 1.0, 1.03, 2.0, 3.999, 4.0, 100.0, 1e5];
        let mut last = 0usize;
        for v in values {
            let i = bucket_index(v).expect("in range");
            assert!(i >= last, "bucket index must be monotone at {v}");
            assert!(bucket_lower(i) <= v && v < bucket_upper(i), "bounds at {v}");
            last = i;
        }
        // powers of two start a fresh octave exactly
        let i = bucket_index(2.0).unwrap();
        assert_eq!(bucket_lower(i), 2.0);
    }

    #[test]
    fn quantiles_track_exact_nearest_rank_within_a_bucket() {
        let mut h = StreamingHistogram::new();
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 / 7.0).collect();
        for &s in &samples {
            h.record(s);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let exact = samples[rank - 1];
            let (lo, hi) = StreamingHistogram::bucket_bounds(exact);
            let approx = h.quantile(q);
            assert!(
                (lo..=hi).contains(&approx),
                "q={q}: {approx} outside [{lo}, {hi}] around exact {exact}"
            );
        }
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let mut h = StreamingHistogram::new();
        for _ in 0..8 {
            h.record(100.0);
        }
        // the max clamp collapses the bucket to the one observed value
        assert_eq!(h.quantile(0.5), 100.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.min(), 100.0);
        assert_eq!(h.mean(), 100.0);
    }

    #[test]
    fn empty_and_edge_inputs_are_safe() {
        let mut h = StreamingHistogram::new();
        assert_eq!(h.quantile(0.95), 0.0);
        assert_eq!(h.max(), 0.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0, "non-finite samples are ignored");
        h.record(-5.0);
        h.record(0.0);
        assert_eq!(h.count(), 2, "sub-minimum samples are clamped, not lost");
        assert!(h.quantile(1.0) <= 0.0);
        h.record(1e9); // overflow range
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(1.0), 1e9, "overflow reports the observed max");
    }

    #[test]
    fn delta_apply_reconstructs_the_later_snapshot_bit_exactly() {
        let mut earlier = StreamingHistogram::new();
        for i in 0..100 {
            earlier.record((i as f64 * 7.3) % 250.0 + 0.5);
        }
        let mut later = earlier.clone();
        for i in 0..37 {
            later.record((i as f64 * 3.1) % 90.0 + 1.0);
        }
        later.record(1e9); // one overflow sample in the window
        let delta = later.delta_since(&earlier).expect("monotone growth");
        assert_eq!(delta.count(), 38);
        let rebuilt = earlier.apply_delta(&delta);
        assert_eq!(rebuilt, later);
        assert_eq!(rebuilt.sum().to_bits(), later.sum().to_bits());
        assert_eq!(rebuilt.min().to_bits(), later.min().to_bits());
        assert_eq!(rebuilt.max().to_bits(), later.max().to_bits());
        // the window histogram holds exactly the window's samples
        let window = delta.window_histogram();
        assert_eq!(window.count(), 38);
        assert!(window.quantile(1.0) >= 1e9);
    }

    #[test]
    fn delta_since_detects_resets_and_handles_empty_ends() {
        let mut a = StreamingHistogram::new();
        a.record(5.0);
        a.record(9.0);
        let fresh = StreamingHistogram::new();
        assert!(
            fresh.delta_since(&a).is_none(),
            "shrinking counts mean a reset, not a window"
        );
        let delta = a.delta_since(&fresh).expect("everything is new");
        assert_eq!(delta.count(), 2);
        assert_eq!(fresh.apply_delta(&delta), a);
        let idle = a.delta_since(&a).expect("identical snapshots diff");
        assert!(idle.is_empty());
        assert_eq!(idle.window_histogram().count(), 0);
        assert_eq!(a.apply_delta(&idle), a);
        let none = fresh.delta_since(&fresh).expect("empty to empty");
        assert_eq!(fresh.apply_delta(&none), fresh, "stays canonical-empty");
    }

    #[test]
    fn partial_window_histogram_stats_stay_within_a_bucket() {
        let mut earlier = StreamingHistogram::new();
        earlier.record(100.0);
        let mut later = earlier.clone();
        later.record(4.0);
        later.record(64.0);
        let window = later.delta_since(&earlier).unwrap().window_histogram();
        assert_eq!(window.count(), 2);
        let (lo4, hi4) = StreamingHistogram::bucket_bounds(4.0);
        let (_, hi64) = StreamingHistogram::bucket_bounds(64.0);
        assert!(window.min() >= lo4 && window.min() <= hi4);
        assert!(window.max() >= 64.0 && window.max() <= hi64);
        assert!(window.quantile(0.5) >= lo4);
    }

    #[test]
    fn merge_equals_recording_everything_in_one_histogram() {
        let mut all = StreamingHistogram::new();
        let mut a = StreamingHistogram::new();
        let mut b = StreamingHistogram::new();
        for i in 0..500 {
            let v = (i as f64 * 13.7) % 400.0 + 0.01;
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        // the sum differs by summation order only — compare it with a
        // relative tolerance, everything else must be bit-identical
        assert!((a.sum() - all.sum()).abs() <= 1e-9 * all.sum());
        a.sum = all.sum;
        assert_eq!(a, all, "merge must be exactly bucket-wise addition");
    }
}
