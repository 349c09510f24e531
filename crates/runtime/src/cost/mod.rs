//! The rt3-cost layer: every service-time *prediction* the runtime makes
//! — scheduler deadline accounting, engine admission estimates, fleet
//! routing scores — goes through one [`CostModel`]. A prediction is the
//! single-request latency of [`LatencyModel::base_latency_ms`] (built by
//! `Rt3Config::latency_model()`, the formula the offline search prices
//! with) times the model's batch-amortisation multiplier.
//!
//! The model holds only the amortisation, one [`AmortisationCurve`] per
//! V/F level:
//!
//! * [`CostModel::analytic`] — the default: the fixed-α curve
//!   `α + (1 − α) · b` with α = [`BATCH_ALPHA`], shared by every level;
//! * [`CostModel::calibrated`] — per-level curves *measured* by
//!   [`calibrate`], which times the real sparse-inference worker pool
//!   ([`crate::pool`]) at every micro-batch size and V/F level.
//!
//! A different model is swapped in whole (`ServeEngine::set_cost_model`,
//! `Fleet::with_cost_model`).

mod calibrated;

pub use calibrated::{
    calibrate, AmortisationCurve, CalibrationOptions, CalibrationPoint, CalibrationReport,
    LevelCalibration, SwitchCalibration,
};

pub use rt3_hardware::LatencyModel;

/// Fraction of a single-request inference that the analytic model amortises
/// across a micro-batch (weight streaming); the rest scales per request.
pub const BATCH_ALPHA: f64 = 0.45;

/// Batch sizes the analytic curve tabulates. Every scheduler `max_batch` in
/// the repo is 16 or less, and the scheduler never builds a batch larger
/// than its `max_batch`, so every dispatched batch is a table lookup of the
/// exact f64 `α + (1 − α) · b`. Past this size the curve extrapolates along
/// its last segment, which can differ from that expression in the last bits.
const ANALYTIC_BATCHES: usize = 64;

/// The runtime's one service-time model: per-V/F-level batch-amortisation
/// curves (a level past the last curve clamps to it) and a report label.
#[derive(Debug, Clone)]
pub struct CostModel {
    curves: Vec<AmortisationCurve>,
    label: &'static str,
}

impl CostModel {
    /// The default model: one fixed-α curve ([`BATCH_ALPHA`]) for every
    /// level, so a micro-batch of `b` costs `base · (α + (1 − α) · b)`.
    pub fn analytic() -> Self {
        Self {
            curves: vec![AmortisationCurve::fixed_alpha(
                BATCH_ALPHA,
                ANALYTIC_BATCHES,
            )],
            label: "analytic",
        }
    }

    /// A model over measured per-level curves (index = governor level
    /// position), as [`calibrate`] fits them.
    ///
    /// # Panics
    ///
    /// Panics if `curves` is empty.
    pub fn calibrated(curves: Vec<AmortisationCurve>) -> Self {
        assert!(!curves.is_empty(), "at least one level curve is required");
        Self {
            curves,
            label: "calibrated",
        }
    }

    /// Short label for reports (`"analytic"` / `"calibrated"`).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Service time of a micro-batch of `batch` requests at governor level
    /// position `level_pos`, given the level's single-request latency
    /// (callers cache [`LatencyModel::base_latency_ms`] between level
    /// switches instead of rebuilding the workload per batch).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn service_from_base_ms(
        &self,
        level_pos: usize,
        base_latency_ms: f64,
        batch: usize,
    ) -> f64 {
        let curve = &self.curves[level_pos.min(self.curves.len() - 1)];
        base_latency_ms * curve.multiplier(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt3_hardware::{PerformancePredictor, VfLevel};
    use rt3_sparse::SparseFormat;
    use rt3_transformer::TransformerConfig;

    #[test]
    fn batch_of_one_costs_exactly_the_base_latency() {
        let cost = CostModel::analytic();
        for base in [0.1, 37.25, 113.0] {
            assert_eq!(cost.service_from_base_ms(3, base, 1), base);
        }
    }

    #[test]
    fn amortisation_is_the_documented_affine_curve() {
        let cost = CostModel::analytic();
        let expected = 100.0 * (0.45 + 0.55 * 4.0);
        assert_eq!(cost.service_from_base_ms(0, 100.0, 4), expected);
        assert_eq!(cost.label(), "analytic");
    }

    #[test]
    #[should_panic(expected = "batch must be non-empty")]
    fn zero_batch_panics() {
        let _ = CostModel::analytic().service_from_base_ms(0, 100.0, 0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1)")]
    fn invalid_alpha_panics_at_construction() {
        let _ = AmortisationCurve::fixed_alpha(1.0, 4);
    }

    #[test]
    fn latency_model_matches_the_predictor() {
        let latency = LatencyModel {
            predictor: PerformancePredictor::cortex_a7(),
            workload_config: TransformerConfig::paper_transformer(256),
            seq_len: 24,
        };
        let level = VfLevel::odroid_level(4);
        let workload = rt3_hardware::ModelWorkload::from_config(
            &latency.workload_config,
            0.5,
            24,
            SparseFormat::BlockPruned,
        );
        assert_eq!(
            latency.base_latency_ms(0.5, &level),
            latency.predictor.latency_ms(&workload, &level),
        );
    }
}
