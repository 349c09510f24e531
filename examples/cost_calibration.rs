//! Cost-model calibration and the predictive-routing comparison — the
//! measurement half of the rt3-cost layer.
//!
//! The pass:
//!
//! 1. run the offline two-level RT3 search and bank one sparse model per
//!    governor level;
//! 2. **calibrate**: time the real sparse-inference worker pool at every
//!    micro-batch size and level, fitting a per-level piecewise-linear
//!    amortisation curve (`rt3::runtime::calibrate`) — the measured
//!    replacement for the fixed batch-amortisation α;
//! 3. replay the bursty acceptance trace on one device under the fixed-α
//!    analytic cost model and under the measured calibrated one;
//! 4. replay the heterogeneous-cliff fleet trace under the PR 2 baseline
//!    (battery-headroom router + fixed α) and under the predictive router
//!    (time-to-death from the EWMA drain tracker) + calibrated model.
//!
//! Every result is emitted as a single-line JSON object (the committed
//! `BENCH_calibration.json`); the process exits non-zero — failing CI — if
//! the calibrated model misses more deadlines than fixed α on the bursty
//! trace, or if predictive routing loses to headroom routing on miss rate
//! or device deaths on the cliff trace.
//!
//! Environment knobs: `RT3_SEED` (traffic seed), `RT3_CALIB_QUICK=1`
//! (fewer timing repetitions, for CI).
//!
//! Run with `cargo run --release --example cost_calibration`.

use rt3::core::{
    build_search_space, run_level1, run_level2_search, Rt3Config, SurrogateEvaluator, TaskProfile,
};
use rt3::hardware::MemoryModel;
use rt3::runtime::cost::BATCH_ALPHA;
use rt3::runtime::{
    calibrate, AmortisationCurve, CalibrationOptions, CostModel, Fleet, FleetConfig, FleetReport,
    FleetScenario, ModelBank, RoutingPolicy, Scenario, ServeConfig, ServeEngine,
};
use rt3::transformer::{TransformerConfig, TransformerLm};
use std::sync::Arc;

fn json_array(values: impl Iterator<Item = f64>) -> String {
    let inner: Vec<String> = values.map(|v| format!("{v:.4}")).collect();
    format!("[{}]", inner.join(","))
}

fn main() {
    let seed = rt3::env::parsed("RT3_SEED", ServeConfig::default().seed);
    let quick = std::env::var("RT3_CALIB_QUICK").is_ok();

    // ---- offline: the two-level RT3 search -------------------------------
    let mut config = Rt3Config::wikitext_default();
    config.timing_constraint_ms = 115.0;
    config.episodes = 16;
    let model = TransformerLm::new(TransformerConfig::paper_transformer(256), 11);
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
    println!("offline search: Level 1 (block pruning) + Level 2 (pattern sets per V/F level)...");
    let backbone = run_level1(&model, &config, &mut evaluator);
    let space = build_search_space(&model, &backbone, &config);
    let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
    let best = outcome.best.as_ref().expect("feasible solution");

    // ---- measure: the real worker pool at every (level, batch) -----------
    let levels = config.governor.levels().len();
    let bank = ModelBank::new(
        &model,
        backbone.masks.clone(),
        &space,
        &best.actions,
        MemoryModel::odroid_xu3(),
        levels,
    );
    let options = if quick {
        CalibrationOptions::quick()
    } else {
        CalibrationOptions::default()
    };
    println!(
        "calibrating: {} levels x batch 1..={} ({} reps x {} samples per point, 1 worker)...",
        levels, options.max_batch, options.repetitions, options.samples
    );
    let (calibrated, report) = calibrate(&bank, options);
    for level in &report.levels {
        let fixed = AmortisationCurve::fixed_alpha(BATCH_ALPHA, level.curve.len());
        println!(
            "{{\"bench\": \"cost_calibration/curve\", \"level\": {}, \"sparsity\": {:.4}, \
             \"measured_ms\": {}, \"multipliers\": {}, \"fixed_alpha_multipliers\": {}}}",
            level.level_pos,
            level.sparsity,
            json_array(level.points.iter().map(|p| p.measured_ms)),
            json_array((1..=level.curve.len()).map(|b| level.curve.multiplier(b))),
            json_array((1..=fixed.len()).map(|b| fixed.multiplier(b))),
        );
    }
    println!(
        "{{\"bench\": \"cost_calibration/deviation\", \"alpha\": {BATCH_ALPHA}, \
         \"mean_abs_deviation\": {:.4}}}",
        report.mean_abs_deviation_from_alpha(),
    );
    // measured V/F switch costs (cold rebuild of the destination variant
    // with the source resident), one JSON entry per ordered level pair
    let switch_entries: Vec<String> = report
        .switches
        .iter()
        .map(|s| {
            format!(
                "{{\"from\": {}, \"to\": {}, \"switch_cost_ms\": {:.4}}}",
                s.from_level, s.to_level, s.switch_cost_ms
            )
        })
        .collect();
    println!(
        "{{\"bench\": \"cost_calibration/switches\", \"backend\": \"{}\", \"pairs\": [{}]}}",
        rt3::sparse::Backend::detect().label(),
        switch_entries.join(",")
    );
    for s in &report.switches {
        println!(
            "switch {} -> {}: {:.2} ms (measured cold rebuild)",
            s.from_level, s.to_level, s.switch_cost_ms
        );
    }

    // ---- compare: fixed alpha vs measured curve on the bursty trace ------
    let scenario = Scenario::default_bursty();
    let serve_config = ServeConfig {
        battery_capacity_j: 29.0,
        real_inference: false,
        seed,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(
        &model,
        backbone.masks.clone(),
        &space,
        &outcome,
        config.clone(),
        serve_config,
    );
    let fixed_report = engine.run(&scenario);
    engine.set_cost_model(Arc::new(calibrated.clone()));
    let calibrated_report = engine.run(&scenario);
    println!(
        "{{\"bench\": \"cost_calibration/bursty\", \"analytic_miss_rate\": {:.6}, \
         \"calibrated_miss_rate\": {:.6}, \"analytic_p95_ms\": {:.2}, \
         \"calibrated_p95_ms\": {:.2}, \"analytic_completed\": {}, \
         \"calibrated_completed\": {}}}",
        fixed_report.miss_rate(),
        calibrated_report.miss_rate(),
        fixed_report.p95_ms(),
        calibrated_report.p95_ms(),
        fixed_report.completed,
        calibrated_report.completed,
    );

    // ---- compare: headroom+fixed vs predictive+calibrated on the cliff ---
    let fleet_scenario = FleetScenario::heterogeneous_cliff();
    let fleet_run = |policy: RoutingPolicy, cost: Option<Arc<CostModel>>| -> FleetReport {
        let fleet_config = FleetConfig {
            routing: policy,
            deadline_budget_ms: 250.0,
            scheduler: rt3::runtime::SchedulerConfig {
                queue_capacity: 64,
                max_batch: 4,
                workers: 2,
            },
            real_inference: false,
            seed,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(
            &model,
            backbone.masks.clone(),
            &space,
            &outcome,
            &config,
            &fleet_scenario,
            fleet_config,
        );
        if let Some(cost) = cost {
            fleet = fleet.with_cost_model(cost);
        }
        fleet.run()
    };
    let headroom_fixed = fleet_run(RoutingPolicy::BatteryAware, None);
    let predictive_calibrated = fleet_run(
        RoutingPolicy::Predictive,
        Some(Arc::new(calibrated.clone())),
    );
    println!(
        "{{\"bench\": \"cost_calibration/fleet_cliff\", \"headroom_fixed_miss_rate\": {:.6}, \
         \"predictive_calibrated_miss_rate\": {:.6}, \"headroom_fixed_deaths\": {}, \
         \"predictive_calibrated_deaths\": {}, \"headroom_fixed_completed\": {}, \
         \"predictive_calibrated_completed\": {}}}",
        headroom_fixed.miss_rate(),
        predictive_calibrated.miss_rate(),
        headroom_fixed.deaths(),
        predictive_calibrated.deaths(),
        headroom_fixed.completed(),
        predictive_calibrated.completed(),
    );

    println!(
        "\nbursty: fixed-alpha miss {:.2}% vs calibrated miss {:.2}%",
        100.0 * fixed_report.miss_rate(),
        100.0 * calibrated_report.miss_rate(),
    );
    println!(
        "cliff fleet: headroom+fixed miss {:.2}% ({} deaths) vs predictive+calibrated \
         miss {:.2}% ({} deaths)",
        100.0 * headroom_fixed.miss_rate(),
        headroom_fixed.deaths(),
        100.0 * predictive_calibrated.miss_rate(),
        predictive_calibrated.deaths(),
    );

    // ---- gates (CI fails on regression) ----------------------------------
    let mut failed = false;
    if calibrated_report.miss_rate() > fixed_report.miss_rate() {
        eprintln!(
            "GATE FAILED: calibrated model misses more than fixed alpha on the bursty trace \
             ({:.4} > {:.4})",
            calibrated_report.miss_rate(),
            fixed_report.miss_rate(),
        );
        failed = true;
    }
    if predictive_calibrated.miss_rate() > headroom_fixed.miss_rate() {
        eprintln!(
            "GATE FAILED: predictive+calibrated misses more than headroom+fixed on the cliff \
             trace ({:.4} > {:.4})",
            predictive_calibrated.miss_rate(),
            headroom_fixed.miss_rate(),
        );
        failed = true;
    }
    if predictive_calibrated.deaths() > headroom_fixed.deaths() {
        eprintln!(
            "GATE FAILED: predictive+calibrated kills more devices than headroom+fixed ({} > {})",
            predictive_calibrated.deaths(),
            headroom_fixed.deaths(),
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("\nall cost-model gates passed");
}
