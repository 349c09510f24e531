//! Property-based tests for the rt3-cost layer:
//!
//! 1. the fixed-α [`AmortisationCurve`] holds the bits of the old
//!    `ServiceModel` multiplier `α + (1 − α) · b` for every α and tabulated
//!    batch size, and [`CostModel::analytic`] charges the old service time
//!    **bit-for-bit** (the golden-scenario suite pins the end-to-end
//!    consequence);
//! 2. any [`AmortisationCurve`] — however noisy the raw measurements — is
//!    monotone non-decreasing in the batch size and exact at a batch of
//!    one, including beyond the measured range;
//! 3. [`rt3_hardware::DrainRateTracker::time_to_death_ms`] is monotone
//!    *decreasing* in the observed drain rate, so predictive routing ranks
//!    faster-draining devices strictly lower;
//! 4. a real [`calibrate`] pass over the worker pool yields curves that
//!    satisfy the same invariants on every level.

use proptest::prelude::*;
use rt3_hardware::{DrainRateTracker, MemoryModel, PerformancePredictor, VfLevel};
use rt3_pruning::{
    block_prune_model, generate_pattern_space, BlockPruningConfig, PatternSpaceConfig,
};
use rt3_runtime::{
    calibrate, AmortisationCurve, CalibrationOptions, CostModel, LatencyModel, ModelBank,
};
use rt3_transformer::{TransformerConfig, TransformerLm};

fn latency_model() -> LatencyModel {
    LatencyModel {
        predictor: PerformancePredictor::cortex_a7(),
        workload_config: TransformerConfig::paper_transformer(512),
        seq_len: 24,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The old `ServiceModel` charged `base · (α + (1 − α) · batch)`. The
    /// fixed-α curve must hold that multiplier's *identical bits* for every
    /// α and every batch size the analytic model tabulates (64), exactly
    /// 1.0 at a batch of one; and [`CostModel::analytic`] must charge
    /// `base · (0.45 + 0.55 · batch)` bit for bit at every level position
    /// (the analytic curve is level-independent).
    #[test]
    fn analytic_reproduces_the_old_service_model_bit_for_bit(
        batch_alpha in 0.0f64..1.0,
        sparsity in 0.0f64..0.95,
        level_index in 1usize..=6,
        batch in 1usize..=64,
        level_pos in 0usize..8,
    ) {
        let curve = AmortisationCurve::fixed_alpha(batch_alpha, 64);
        prop_assert!(curve.multiplier(1).to_bits() == 1.0f64.to_bits());
        for b in 1..=64usize {
            // the pre-refactor multiplier, verbatim
            let old = batch_alpha + (1.0 - batch_alpha) * b as f64;
            prop_assert!(
                curve.multiplier(b).to_bits() == old.to_bits(),
                "fixed_alpha({batch_alpha}) at batch {b}: {} vs {old}",
                curve.multiplier(b)
            );
        }
        let level = VfLevel::odroid_level(level_index);
        let base = latency_model().base_latency_ms(sparsity, &level);
        let old_service_model = base * (0.45 + 0.55 * batch as f64);
        let new = CostModel::analytic().service_from_base_ms(level_pos, base, batch);
        prop_assert!(
            new.to_bits() == old_service_model.to_bits(),
            "analytic ({new}) must equal the old ServiceModel math \
             ({old_service_model}) bit-for-bit"
        );
    }

    /// However noisy the raw measurements, the clamped curve is monotone
    /// non-decreasing in the batch size, starts at exactly 1.0, and stays
    /// monotone through the extrapolated region.
    #[test]
    fn amortisation_curves_are_monotone_non_decreasing(
        raw in proptest::collection::vec(0.01f64..10.0, 1..12),
    ) {
        let curve = AmortisationCurve::from_raw(&raw);
        prop_assert_eq!(curve.multiplier(1), 1.0);
        let horizon = raw.len() + 6; // cover extrapolation too
        for b in 1..horizon {
            prop_assert!(
                curve.multiplier(b + 1) >= curve.multiplier(b),
                "multiplier({}) = {} dips below multiplier({}) = {}",
                b + 1, curve.multiplier(b + 1), b, curve.multiplier(b)
            );
        }
    }

    /// For any fixed remaining energy, a tracker that observed a *faster*
    /// drain predicts a *shorter* (or equal, at saturation) time to death:
    /// the predictive router's ranking direction.
    #[test]
    fn time_to_death_is_monotone_decreasing_in_the_drain_rate(
        remaining_j in 0.1f64..100.0,
        slow_w in 0.001f64..5.0,
        faster_by_w in 0.001f64..5.0,
        start_j in 100.0f64..200.0,
    ) {
        let fast_w = slow_w + faster_by_w;
        let mut slow = DrainRateTracker::new(0.25);
        let mut fast = DrainRateTracker::new(0.25);
        slow.observe(1.0, start_j);
        fast.observe(1.0, start_j);
        slow.observe(1.0, start_j - slow_w);
        fast.observe(1.0, start_j - fast_w);
        let slow_ttd = slow.time_to_death_ms(remaining_j);
        let fast_ttd = fast.time_to_death_ms(remaining_j);
        prop_assert!(
            fast_ttd < slow_ttd,
            "draining at {fast_w} W must predict death ({fast_ttd} ms) strictly \
             before draining at {slow_w} W ({slow_ttd} ms)"
        );
        // and the prediction is the exact linear extrapolation of the
        // tracker's own smoothed rate
        prop_assert!(slow_ttd == remaining_j / slow.drain_rate_w() * 1_000.0);
    }
}

/// One real measurement pass over the worker pool: every level's curve must
/// come out monotone with an exact batch-of-one anchor, and the calibrated
/// model must serve batches of one at exactly the predictor's latency.
#[test]
fn real_calibration_pass_yields_monotone_curves() {
    let model = TransformerLm::new(TransformerConfig::tiny(32), 9);
    let backbone = block_prune_model(&model, &BlockPruningConfig::default());
    let space = generate_pattern_space(
        &model,
        &backbone,
        &[0.4, 0.7],
        &PatternSpaceConfig {
            pattern_size: 4,
            patterns_per_set: 2,
            sample_fraction: 0.5,
            seed: 4,
        },
    );
    let bank = ModelBank::new(
        &model,
        backbone,
        &space,
        &[0, 1],
        MemoryModel::odroid_xu3(),
        2,
    );
    let (calibrated, report) = calibrate(&bank, CalibrationOptions::quick());
    assert_eq!(report.levels.len(), 2);
    for level in &report.levels {
        assert_eq!(level.curve.multiplier(1), 1.0);
        for b in 1..level.curve.len() + 4 {
            assert!(
                level.curve.multiplier(b + 1) >= level.curve.multiplier(b),
                "level {} curve must be monotone",
                level.level_pos
            );
        }
        for point in &level.points {
            assert!(point.measured_ms.is_finite() && point.measured_ms >= 0.0);
        }
    }
    // the model serves each level's measured curve, and a batch of one
    // costs exactly the predictor's latency under calibration
    let base = latency_model().base_latency_ms(0.5, &VfLevel::odroid_level(3));
    for level in &report.levels {
        assert_eq!(
            calibrated.service_from_base_ms(level.level_pos, base, 1),
            base
        );
        for b in 1..=level.curve.len() {
            assert_eq!(
                calibrated.service_from_base_ms(level.level_pos, base, b),
                base * level.curve.multiplier(b)
            );
        }
    }
    assert_eq!(calibrated.label(), "calibrated");
}
