//! The rt3-cost layer: every latency/energy *prediction* the runtime makes
//! — scheduler deadline accounting, engine admission estimates, fleet
//! routing scores — flows through one [`CostModel`] abstraction instead of
//! being re-derived (and re-configured) per subsystem.
//!
//! Two implementations ship:
//!
//! * [`Analytic`] — the paper's [`rt3_hardware::PerformancePredictor`]
//!   single-request latency plus the fixed batch-amortisation factor α
//!   (`service = base · (α + (1 − α) · batch)`), reproducing the
//!   pre-refactor `ServiceModel` math bit-for-bit. This is the default, so
//!   default-configured runs replay the PR 2 golden scenarios unchanged.
//! * [`Calibrated`] — the same single-request predictor, but the
//!   amortisation curve is *measured*: [`calibrate`] times the real
//!   sparse-inference worker pool ([`crate::pool`]) at every micro-batch
//!   size and V/F level and fits a per-level piecewise-linear
//!   [`AmortisationCurve`], closing the loop between the simulated batching
//!   model and what the compiled sparse kernels actually do.
//!
//! [`CostConfig`] holds [`Analytic`]'s batch-amortisation α. The serving
//! engine, the fleet and the socket server all build their analytic model
//! from its default; a different model is swapped in whole
//! (`ServeEngine::set_cost_model`, `Fleet::with_cost_model`).

mod analytic;
mod calibrated;

pub use analytic::Analytic;
pub use calibrated::{
    calibrate, AmortisationCurve, Calibrated, CalibrationOptions, CalibrationPoint,
    CalibrationReport, LevelCalibration, SwitchCalibration,
};

pub use rt3_hardware::LatencyModel;
use rt3_hardware::VfLevel;

/// The analytic cost model's configuration: its batch-amortisation α.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConfig {
    /// Fraction of a single-request inference that is amortised across a
    /// micro-batch (weight streaming); the rest scales per request. In
    /// `[0, 1)`; a batch of 1 always costs exactly the predicted latency.
    pub batch_alpha: f64,
}

impl Default for CostConfig {
    fn default() -> Self {
        Self { batch_alpha: 0.45 }
    }
}

impl CostConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.batch_alpha) {
            return Err("batch_alpha must be in [0, 1)".into());
        }
        Ok(())
    }
}

/// One prediction surface for the whole runtime: single-request latency and
/// micro-batch service time. The scheduler's deadline accounting, the
/// engine's admission estimate, and the router's predicted-latency score
/// all call the *same* object, so the three layers can never drift apart.
pub trait CostModel: Send + Sync {
    /// Short label for reports (`"analytic"` / `"calibrated"`).
    fn label(&self) -> &'static str;

    /// The shared single-request latency model.
    fn latency_model(&self) -> &LatencyModel;

    /// Predicted latency of a single request at `sparsity` on `level`.
    fn base_latency_ms(&self, sparsity: f64, level: &VfLevel) -> f64 {
        self.latency_model().base_latency_ms(sparsity, level)
    }

    /// Service time of a micro-batch of `batch` requests at governor level
    /// position `level_pos`, given a precomputed single-request latency
    /// (callers cache [`CostModel::base_latency_ms`] between level switches
    /// instead of rebuilding the workload per batch).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    fn service_from_base_ms(&self, level_pos: usize, base_latency_ms: f64, batch: usize) -> f64;

    /// Service time of a micro-batch of `batch` requests at `sparsity` on
    /// `level` (position `level_pos`).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    fn service_ms(&self, level_pos: usize, sparsity: f64, level: &VfLevel, batch: usize) -> f64 {
        self.service_from_base_ms(level_pos, self.base_latency_ms(sparsity, level), batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt3_hardware::PerformancePredictor;
    use rt3_sparse::SparseFormat;
    use rt3_transformer::TransformerConfig;

    #[test]
    fn cost_config_validates_alpha_range() {
        assert!(CostConfig::default().validate().is_ok());
        assert!(CostConfig { batch_alpha: 0.0 }.validate().is_ok());
        let err = CostConfig { batch_alpha: 1.0 }.validate().unwrap_err();
        assert_eq!(err, "batch_alpha must be in [0, 1)");
        assert!(CostConfig { batch_alpha: -0.1 }.validate().is_err());
        assert!(CostConfig {
            batch_alpha: f64::NAN
        }
        .validate()
        .is_err());
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
