//! The measured cost model: the fixed batch-amortisation α is replaced by a
//! per-V/F-level piecewise-linear curve timed on the *real* sparse-inference
//! worker pool. Wall-clock latency of the build machine obviously differs
//! from the simulated Cortex-A7, but the amortisation *ratio* — how much a
//! micro-batch of `b` costs relative to a batch of one on the very kernels
//! the pool executes — is dimensionless and transfers: the calibrated model
//! applies the measured ratio to the predictor's single-request latency.

use super::{CostModel, BATCH_ALPHA};
use crate::bank::ModelBank;
use crate::pool;
use rt3_transformer::Model;

/// Piecewise-linear batch-amortisation curve: `multiplier(b)` is the service
/// time of a micro-batch of `b` requests relative to a batch of one.
///
/// Invariants enforced at construction: `multiplier(1) == 1.0` exactly (a
/// batch of one always costs the predicted latency) and the curve is
/// monotone non-decreasing in the batch size (a bigger batch can never be
/// predicted cheaper than a smaller one, whatever timing noise said).
#[derive(Debug, Clone, PartialEq)]
pub struct AmortisationCurve {
    /// `multipliers[b - 1]` is the multiplier for batch size `b`.
    multipliers: Vec<f64>,
}

impl AmortisationCurve {
    /// Builds a curve from raw measured multipliers (`raw[i]` for batch size
    /// `i + 1`). The first point is forced to exactly 1.0 and later points
    /// are clamped monotone non-decreasing, which is how one noisy sample
    /// is kept from inverting the curve.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is empty or contains a non-finite value.
    pub fn from_raw(raw: &[f64]) -> Self {
        assert!(!raw.is_empty(), "a curve needs at least one point");
        assert!(
            raw.iter().all(|m| m.is_finite()),
            "curve multipliers must be finite"
        );
        let mut multipliers = Vec::with_capacity(raw.len());
        multipliers.push(1.0);
        for &m in &raw[1..] {
            let floor = *multipliers.last().expect("non-empty");
            multipliers.push(m.max(floor));
        }
        Self { multipliers }
    }

    /// The fixed-α affine curve `α + (1 − α) · b` sampled at batch sizes
    /// `1..=max_batch`: the analytic model's curve, and the baseline the
    /// calibration report compares the measurements with.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero or `alpha` is outside `[0, 1)`.
    pub fn fixed_alpha(alpha: f64, max_batch: usize) -> Self {
        assert!(max_batch > 0, "a curve needs at least one point");
        assert!((0.0..1.0).contains(&alpha), "alpha must be in [0, 1)");
        let raw: Vec<f64> = (1..=max_batch)
            .map(|b| alpha + (1.0 - alpha) * b as f64)
            .collect();
        Self::from_raw(&raw)
    }

    /// Number of measured batch sizes (`1..=len`).
    pub fn len(&self) -> usize {
        self.multipliers.len()
    }

    /// Whether the curve has no points (never true for a constructed curve).
    pub fn is_empty(&self) -> bool {
        self.multipliers.is_empty()
    }

    /// The stored multipliers, indexed by `batch − 1`.
    pub fn multipliers(&self) -> &[f64] {
        &self.multipliers
    }

    /// The amortisation multiplier for a batch of `batch` requests: a direct
    /// lookup inside the measured range, linear extrapolation along the last
    /// measured segment beyond it (with a single measured point, each extra
    /// request costs one more full base latency, matching α = 0).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn multiplier(&self, batch: usize) -> f64 {
        assert!(batch > 0, "batch must be non-empty");
        let n = self.multipliers.len();
        if batch <= n {
            return self.multipliers[batch - 1];
        }
        let last = self.multipliers[n - 1];
        let slope = if n >= 2 {
            last - self.multipliers[n - 2]
        } else {
            last
        };
        last + slope * (batch - n) as f64
    }
}

/// Parameters of the measurement pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrationOptions {
    /// Largest micro-batch size to measure (every size `1..=max_batch` is
    /// timed; the scheduler's `max_batch` is the natural choice).
    pub max_batch: usize,
    /// Micro-batches per timed pool run — the wall clock is divided by this,
    /// amortising thread-spawn overhead out of the per-batch estimate.
    pub repetitions: usize,
    /// Timed runs per `(level, batch)` point; the best (minimum) is kept —
    /// wall-clock noise is strictly additive, so the fastest sample is the
    /// least-polluted estimate.
    pub samples: usize,
    /// Worker threads during timing (1 measures a single worker's service
    /// time, which is what the scheduler charges per micro-batch).
    pub workers: usize,
}

impl Default for CalibrationOptions {
    fn default() -> Self {
        Self {
            max_batch: 4,
            repetitions: 8,
            samples: 3,
            workers: 1,
        }
    }
}

impl CalibrationOptions {
    /// A cheap pass for CI and tests: fewer repetitions per sample. The
    /// sample count stays at 3 — the best-of-samples estimator needs more
    /// than one draw to shed scheduling noise, and a noisy batch-of-one
    /// anchor would skew the whole curve.
    pub fn quick() -> Self {
        Self {
            repetitions: 4,
            ..Self::default()
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_batch == 0 {
            return Err("max_batch must be positive".into());
        }
        if self.repetitions == 0 {
            return Err("repetitions must be positive".into());
        }
        if self.samples == 0 {
            return Err("samples must be positive".into());
        }
        if self.workers == 0 {
            return Err("at least one worker is required".into());
        }
        Ok(())
    }
}

/// One measured `(batch size, wall clock)` point of a level's curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationPoint {
    /// Micro-batch size.
    pub batch: usize,
    /// Best-of-samples wall-clock milliseconds of one micro-batch of this
    /// size.
    pub measured_ms: f64,
    /// Raw measured multiplier relative to the batch-of-one point (before
    /// the monotone clamp).
    pub raw_multiplier: f64,
}

/// The measured curve of one governor level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelCalibration {
    /// Governor level position (0 = lowest frequency).
    pub level_pos: usize,
    /// Achieved sparsity of the banked variant that was timed.
    pub sparsity: f64,
    /// Raw measurements, one per batch size `1..=max_batch`.
    pub points: Vec<CalibrationPoint>,
    /// The clamped curve [`CostModel::calibrated`] serves from.
    pub curve: AmortisationCurve,
}

/// Measured cost of one V/F switch: in a capacity-1 bank holding the warm
/// `from` variant, the wall-clock cost of [`ModelBank::get`] on `to` —
/// evicting `from` and refilling its buffers with every prunable weight's
/// kept values under `to`'s kept layouts — which is exactly what a
/// governor transition to a non-resident level pays before it can serve.
/// The one-off block scoring of a level's first build is not part of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchCalibration {
    /// Source governor level position (resident until the switch evicts it).
    pub from_level: usize,
    /// Destination governor level position (the one being built).
    pub to_level: usize,
    /// Best-of-samples wall-clock milliseconds of the switch.
    pub switch_cost_ms: f64,
}

/// Outcome of a [`calibrate`] pass: per-level measurements plus the curves.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// One entry per governor level position.
    pub levels: Vec<LevelCalibration>,
    /// Measured V/F switch costs, one entry per ordered level pair
    /// (`from != to`).
    pub switches: Vec<SwitchCalibration>,
    /// The options the pass ran with.
    pub options: CalibrationOptions,
}

impl CalibrationReport {
    /// The measured switch cost for an ordered level pair, if that pair was
    /// timed.
    pub fn switch_cost_ms(&self, from_level: usize, to_level: usize) -> Option<f64> {
        self.switches
            .iter()
            .find(|s| s.from_level == from_level && s.to_level == to_level)
            .map(|s| s.switch_cost_ms)
    }

    /// Mean absolute deviation between the *raw* measured multipliers
    /// (before the monotone clamp) and the analytic fixed-α curve
    /// ([`BATCH_ALPHA`]) over every `(level, batch)` point — how far reality
    /// sits from the assumed amortisation.
    pub fn mean_abs_deviation_from_alpha(&self) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for level in &self.levels {
            if level.points.is_empty() {
                continue;
            }
            let max_batch = level.points.iter().map(|p| p.batch).max().expect("points");
            let fixed = AmortisationCurve::fixed_alpha(BATCH_ALPHA, max_batch);
            for point in &level.points {
                total += (point.raw_multiplier - fixed.multiplier(point.batch)).abs();
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// Best (minimum) of a non-empty sample set — the standard robust estimator
/// for wall-clock timing, where noise (scheduling, cache pollution) is
/// strictly additive.
fn best_sample(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The calibration pass: times the real worker pool on every banked variant
/// at every micro-batch size `1..=max_batch` and fits one monotone
/// piecewise-linear [`AmortisationCurve`] per governor level, the curves of
/// a [`CostModel::calibrated`]. Variants are
/// rebuilt cold (bypassing the bank's LRU cache) so the pass leaves the
/// bank's residency statistics untouched.
///
/// # Panics
///
/// Panics if the options are invalid.
pub fn calibrate<M: Model>(
    bank: &ModelBank<'_, M>,
    options: CalibrationOptions,
) -> (CostModel, CalibrationReport) {
    options.validate().expect("invalid calibration options");
    let mut levels = Vec::with_capacity(bank.levels());
    let mut curves = Vec::with_capacity(bank.levels());
    for level_pos in 0..bank.levels() {
        let variant = bank.rebuild_cold(level_pos);
        // untimed warm-up: fault the weights in and warm the caches so the
        // first timed point (the batch-of-one anchor) is not the cold run
        let _ = pool::run_batches(&variant, &[1, options.max_batch], options.workers, None);
        let mut points = Vec::with_capacity(options.max_batch);
        let mut raw = Vec::with_capacity(options.max_batch);
        let mut single_ms = 0.0;
        for batch in 1..=options.max_batch {
            let batches = vec![batch; options.repetitions];
            let samples: Vec<f64> = (0..options.samples)
                .map(|_| {
                    let (_, wall_ms) = pool::time_batches(&variant, &batches, options.workers);
                    wall_ms / options.repetitions as f64
                })
                .collect();
            let measured_ms = best_sample(&samples);
            if batch == 1 {
                single_ms = measured_ms;
            }
            // a clock too coarse to resolve the batch-of-one anchor would
            // blow every later ratio up to nonsense; fall back to the
            // conservative linear curve (each extra request costs one full
            // base latency, i.e. α = 0) instead of dividing by ~zero
            let raw_multiplier = if single_ms > 0.0 {
                measured_ms / single_ms
            } else {
                batch as f64
            };
            raw.push(raw_multiplier);
            points.push(CalibrationPoint {
                batch,
                measured_ms,
                raw_multiplier,
            });
        }
        let curve = AmortisationCurve::from_raw(&raw);
        curves.push(curve.clone());
        levels.push(LevelCalibration {
            level_pos,
            sparsity: variant.sparsity,
            points,
            curve,
        });
    }
    let switches = calibrate_switches(bank, &options);
    (
        CostModel::calibrated(curves),
        CalibrationReport {
            levels,
            switches,
            options,
        },
    )
}

/// Times every ordered V/F level pair on a throwaway capacity-1 bank that
/// shares `bank`'s lowerings: each sample makes the `from` variant
/// resident and warm (one batch-of-one inference) so the machine state
/// resembles steady serving at that level, then times the `get` of `to`,
/// best-of-samples. [`calibrate`] has built every level once before this
/// runs, so each sample is the evict-and-refill gather a serving bank pays
/// on a cold switch, with no block scoring. Faster switching shows up
/// directly in these numbers, which is why the pass re-measures them
/// instead of reusing the analytic [`ModelBank::switch_cost`].
fn calibrate_switches<M: Model>(
    bank: &ModelBank<'_, M>,
    options: &CalibrationOptions,
) -> Vec<SwitchCalibration> {
    let mut spare = bank.spare(1);
    let mut switches = Vec::with_capacity(bank.levels().saturating_sub(1) * bank.levels());
    for from_level in 0..bank.levels() {
        for to_level in 0..bank.levels() {
            if to_level == from_level {
                continue;
            }
            let samples: Vec<f64> = (0..options.samples)
                .map(|_| {
                    let _ = pool::run_batches(spare.get(from_level), &[1], options.workers, None);
                    let start = std::time::Instant::now();
                    let built = spare.get(to_level);
                    let elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0;
                    assert!(built.stored_values() > 0, "switch built an empty variant");
                    elapsed_ms
                })
                .collect();
            switches.push(SwitchCalibration {
                from_level,
                to_level,
                switch_cost_ms: best_sample(&samples),
            });
        }
    }
    switches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_clamps_noise_monotone_and_pins_batch_one() {
        let curve = AmortisationCurve::from_raw(&[1.3, 1.8, 1.6, 2.4]);
        assert_eq!(curve.multiplier(1), 1.0, "batch of one is exact");
        assert_eq!(curve.multiplier(2), 1.8);
        assert_eq!(curve.multiplier(3), 1.8, "noisy dip is clamped");
        assert_eq!(curve.multiplier(4), 2.4);
    }

    #[test]
    fn curve_extrapolates_along_the_last_segment() {
        let curve = AmortisationCurve::from_raw(&[1.0, 1.5, 2.0]);
        assert!((curve.multiplier(4) - 2.5).abs() < 1e-12);
        assert!((curve.multiplier(6) - 3.5).abs() < 1e-12);
        let single = AmortisationCurve::from_raw(&[1.0]);
        assert!((single.multiplier(3) - 3.0).abs() < 1e-12, "α = 0 fallback");
    }

    #[test]
    fn fixed_alpha_curve_matches_the_analytic_expression() {
        let alpha = 0.45;
        let curve = AmortisationCurve::fixed_alpha(alpha, 6);
        for b in 1..=6usize {
            let expected = alpha + (1.0 - alpha) * b as f64;
            assert!((curve.multiplier(b) - expected).abs() < 1e-12);
        }
        // extrapolation continues the same affine curve
        assert!((curve.multiplier(9) - (alpha + (1.0 - alpha) * 9.0)).abs() < 1e-9);
    }

    #[test]
    fn calibrated_model_applies_the_per_level_curve() {
        let curves = vec![
            AmortisationCurve::from_raw(&[1.0, 1.2]),
            AmortisationCurve::from_raw(&[1.0, 1.9]),
        ];
        let cost = CostModel::calibrated(curves);
        assert_eq!(cost.label(), "calibrated");
        assert!((cost.service_from_base_ms(0, 100.0, 2) - 120.0).abs() < 1e-9);
        assert!((cost.service_from_base_ms(1, 100.0, 2) - 190.0).abs() < 1e-9);
        // out-of-range level clamps to the last curve
        assert!((cost.service_from_base_ms(9, 100.0, 2) - 190.0).abs() < 1e-9);
        // batch of one is exact at every level
        for level_pos in 0..3 {
            assert_eq!(cost.service_from_base_ms(level_pos, 37.5, 1), 37.5);
        }
    }

    #[test]
    fn report_measures_deviation_of_the_raw_measurements() {
        let point = |batch: usize, raw_multiplier: f64| CalibrationPoint {
            batch,
            measured_ms: 0.1 * raw_multiplier,
            raw_multiplier,
        };
        let raw = [1.0, 2.0, 1.4]; // noisy dip at batch 3
        let report = CalibrationReport {
            levels: vec![LevelCalibration {
                level_pos: 0,
                sparsity: 0.5,
                points: raw
                    .iter()
                    .enumerate()
                    .map(|(i, &m)| point(i + 1, m))
                    .collect(),
                curve: AmortisationCurve::from_raw(&raw), // clamps to [1, 2, 2]
            }],
            switches: Vec::new(),
            options: CalibrationOptions::quick(),
        };
        // fixed α = 0.45 gives multipliers [1.0, 1.55, 2.1]; the deviation
        // is computed against the RAW measurements (|1-1| + |2-1.55| +
        // |1.4-2.1|) — not the clamped curve, which would hide the batch-3 dip
        let expected = (0.0 + 0.45 + 0.7) / 3.0;
        assert!((report.mean_abs_deviation_from_alpha() - expected).abs() < 1e-12);
        // no points, no deviation
        let empty = CalibrationReport {
            levels: Vec::new(),
            switches: Vec::new(),
            options: CalibrationOptions::quick(),
        };
        assert_eq!(empty.mean_abs_deviation_from_alpha(), 0.0);
    }

    #[test]
    fn switch_cost_lookup_finds_only_measured_pairs() {
        let report = CalibrationReport {
            levels: Vec::new(),
            switches: vec![
                SwitchCalibration {
                    from_level: 0,
                    to_level: 1,
                    switch_cost_ms: 2.5,
                },
                SwitchCalibration {
                    from_level: 1,
                    to_level: 0,
                    switch_cost_ms: 1.75,
                },
            ],
            options: CalibrationOptions::quick(),
        };
        assert_eq!(report.switch_cost_ms(0, 1), Some(2.5));
        assert_eq!(report.switch_cost_ms(1, 0), Some(1.75));
        assert_eq!(report.switch_cost_ms(0, 0), None, "self-pairs not timed");
        assert_eq!(report.switch_cost_ms(0, 2), None);
    }

    #[test]
    fn options_validate() {
        assert!(CalibrationOptions::default().validate().is_ok());
        assert!(CalibrationOptions::quick().validate().is_ok());
        let bad = CalibrationOptions {
            max_batch: 0,
            ..CalibrationOptions::default()
        };
        assert!(bad.validate().is_err());
    }
}
