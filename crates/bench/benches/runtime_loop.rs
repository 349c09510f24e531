//! Criterion bench: the online serving engine — steady-state serve
//! throughput under the bursty-traffic scenario, pattern-set switch latency
//! (cold bank rebuild), raw worker-pool sparse-inference throughput, and
//! fleet routing over four simulated devices.
//!
//! Besides the per-benchmark timing lines, a `{"bench": "runtime_loop/...",
//! ...}` JSON summary of the simulated serving metrics (miss rate, p95,
//! switches) is printed for the perf trajectory.

use criterion::{criterion_group, criterion_main, Criterion};
use rt3_core::{
    build_search_space, run_level1, run_level2_search, Rt3Config, SearchOutcome,
    SurrogateEvaluator, TaskProfile,
};
use rt3_hardware::MemoryModel;
use rt3_pruning::PatternSpace;
use rt3_runtime::{
    pool, Fleet, FleetConfig, FleetScenario, ModelBank, RuntimePolicy, Scenario, ServeConfig,
    ServeEngine,
};
use rt3_transformer::{MaskSet, TransformerConfig, TransformerLm};

fn offline() -> (
    TransformerLm,
    MaskSet,
    PatternSpace,
    SearchOutcome,
    Rt3Config,
) {
    let mut config = Rt3Config::wikitext_default();
    config.timing_constraint_ms = 115.0;
    config.episodes = 10;
    let model = TransformerLm::new(TransformerConfig::paper_transformer(256), 3);
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
    let backbone = run_level1(&model, &config, &mut evaluator);
    let space = build_search_space(&model, &backbone, &config);
    let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
    (model, backbone.masks, space, outcome, config)
}

fn serve_config(real_inference: bool) -> ServeConfig {
    ServeConfig {
        battery_capacity_j: 29.0,
        policy: RuntimePolicy::Adaptive,
        real_inference,
        ..ServeConfig::default()
    }
}

fn bench_runtime(c: &mut Criterion) {
    let (model, masks, space, outcome, config) = offline();
    let mut group = c.benchmark_group("runtime_loop");
    group.sample_size(10);

    // steady-state serving: one 10-second bursty slice per iteration, with
    // every dispatched micro-batch replayed as real sparse inference
    let burst_slice = Scenario::BurstyTraffic {
        duration_s: 10,
        base_rps: 30.0,
        burst_rps: 60.0,
        period_s: 20,
        burst_len_s: 6,
        background_w: 0.08,
    };
    group.bench_function("steady_state_serve_10s_slice", |b| {
        b.iter(|| {
            let mut engine = ServeEngine::new(
                &model,
                masks.clone(),
                &space,
                &outcome,
                config.clone(),
                serve_config(true),
            );
            engine.run(&burst_slice)
        })
    });

    // pattern-set switch latency: what a cache-miss switch really costs the
    // host (mask rebuild + block-sparse re-materialisation)
    let actions = &outcome.best.as_ref().expect("feasible solution").actions;
    group.bench_function("pattern_switch_cold_rebuild", |b| {
        let bank = ModelBank::new(
            &model,
            masks.clone(),
            &space,
            actions,
            MemoryModel::odroid_xu3(),
            1,
        );
        b.iter(|| bank.rebuild_cold(0))
    });

    // fleet cold start + serve: one 20-second slice of the heterogeneous
    // cliff trace over four simulated devices. Each iteration pays the
    // whole fleet lifecycle — four bank constructions with lazy sparse
    // builds on first use, then routing, scheduling and simulated serving
    // (real inference off) — i.e. what bringing a fleet up and playing a
    // short trace costs, not routing overhead alone.
    let mut fleet_slice = FleetScenario::heterogeneous_cliff();
    if let Scenario::ConstantDrain { duration_s, .. } = &mut fleet_slice.arrivals {
        *duration_s = 20;
    }
    group.bench_function("fleet_cold_serve_4dev_20s_slice", |b| {
        b.iter(|| {
            let fleet = Fleet::new(
                &model,
                masks.clone(),
                &space,
                &outcome,
                &config,
                &fleet_slice,
                FleetConfig {
                    real_inference: false,
                    ..FleetConfig::default()
                },
            );
            fleet.run()
        })
    });

    // raw worker-pool throughput on the sparsest banked variant
    group.bench_function("worker_pool_32_batches", |b| {
        let mut bank = ModelBank::new(
            &model,
            masks.clone(),
            &space,
            actions,
            MemoryModel::odroid_xu3(),
            actions.len(),
        );
        let banked = bank.get(0).clone();
        let batches = vec![4usize; 32];
        b.iter(|| pool::run_batches(&banked, &batches, 4, None))
    });
    group.finish();

    // simulated serving metrics for the perf trajectory
    let mut engine = ServeEngine::new(
        &model,
        masks.clone(),
        &space,
        &outcome,
        config.clone(),
        serve_config(false),
    );
    let report = engine.run(&Scenario::default_bursty());
    println!(
        "{{\"bench\": \"runtime_loop/bursty_90s_simulated\", \"completed\": {}, \
         \"miss_rate\": {:.4}, \"p50_ms\": {:.2}, \"p95_ms\": {:.2}, \"p99_ms\": {:.2}, \
         \"switches\": {}, \"switch_time_ms\": {:.2}, \"energy_j\": {:.2}}}",
        report.completed,
        report.miss_rate(),
        report.p50_ms(),
        report.p95_ms(),
        report.p99_ms(),
        report.switches,
        report.switch_time_ms,
        report.total_energy_j(),
    );

    // fleet serving metrics on the full acceptance trace
    let fleet_scenario = FleetScenario::heterogeneous_cliff();
    let fleet = Fleet::new(
        &model,
        masks.clone(),
        &space,
        &outcome,
        &config,
        &fleet_scenario,
        FleetConfig {
            real_inference: false,
            ..FleetConfig::default()
        },
    );
    let fleet_report = fleet.run();
    println!(
        "{{\"bench\": \"runtime_loop/fleet_cliff_150s_simulated\", \"completed\": {}, \
         \"miss_rate\": {:.4}, \"p95_ms\": {:.2}, \"switches\": {}, \"energy_j\": {:.2}, \
         \"load_imbalance\": {:.3}, \"deaths\": {}, \"unroutable\": {}}}",
        fleet_report.completed(),
        fleet_report.miss_rate(),
        fleet_report.latency_percentile_ms(0.95),
        fleet_report.total_switches(),
        fleet_report.total_energy_j(),
        fleet_report.load_imbalance(),
        fleet_report.deaths(),
        fleet_report.unroutable,
    );
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
