//! Criterion bench: convergence of the pluggable Level-2 optimizers — how
//! fast each `rt3-search` optimizer runs one budget-matched search over the
//! surrogate task (wall-clock of propose/evaluate/observe through the
//! memoizing driver), plus a `{"bench": "search_convergence/...", ...}`
//! JSON summary per optimizer with the best reward reached at budget and
//! the distinct evaluations spent to first reach it, for the search-quality
//! trajectory.
//!
//! Set `BENCH_QUICK=1` (CI) to shrink the budget and sample counts.

use criterion::{criterion_group, criterion_main, Criterion};
use rt3_core::{
    build_optimizer, build_search_space, level2_assignment_space, run_level1, BackboneResult,
    CandidateTable, OptimizerKind, Rt3Config, SurrogateEvaluator, TaskProfile,
};
use rt3_pruning::PatternSpace;
use rt3_search::{DriverConfig, SearchDriver};
use rt3_transformer::{TransformerConfig, TransformerLm};

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok()
}

fn budget() -> usize {
    if quick() {
        16
    } else {
        48
    }
}

fn offline() -> (TransformerLm, BackboneResult, PatternSpace, Rt3Config) {
    let model = TransformerLm::new(TransformerConfig::tiny(32), 13);
    let mut config = Rt3Config::tiny_test();
    config.candidate_sparsities = 8;
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
    let backbone = run_level1(&model, &config, &mut evaluator);
    let space = build_search_space(&model, &backbone, &config);
    (model, backbone, space, config)
}

fn bench_search_convergence(c: &mut Criterion) {
    let (model, backbone, space, config) = offline();
    let assignment_space = level2_assignment_space(&space, &config);
    // one table for every run, as one search holds one: the timed loop
    // measures search + per-assignment evaluation, not lowering
    let table = CandidateTable::new(&model, &backbone, &space, &config);
    let budget = budget();
    let mut group = c.benchmark_group("search_convergence");
    group.sample_size(10);
    for kind in OptimizerKind::all() {
        if kind == OptimizerKind::Exhaustive {
            // not budget-matched; its cost is just `size` evaluations
            continue;
        }
        group.bench_function(format!("{kind}_budget{budget}"), |b| {
            b.iter(|| {
                let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
                let mut optimizer = build_optimizer(kind, assignment_space, config.seed);
                let driver = SearchDriver::new(DriverConfig::budget(budget));
                driver.run(optimizer.as_mut(), |actions| {
                    table.evaluate(&mut evaluator, actions, true)
                })
            })
        });
    }
    group.finish();

    // one instrumented run per optimizer for the convergence-quality JSON
    for kind in OptimizerKind::all() {
        if kind == OptimizerKind::Exhaustive {
            continue;
        }
        let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
        let mut optimizer = build_optimizer(kind, assignment_space, config.seed);
        let driver = SearchDriver::new(DriverConfig::budget(budget));
        let outcome = driver.run(optimizer.as_mut(), |actions| {
            table.evaluate(&mut evaluator, actions, true)
        });
        let best = outcome.best().expect("non-empty search");
        println!(
            "{{\"bench\": \"search_convergence/{kind}\", \"budget\": {budget}, \
             \"best_reward\": {:.6}, \"evals_to_best\": {}, \"proposals\": {}, \
             \"cache_hit_rate\": {:.4}}}",
            best.reward,
            outcome.evals_to_best,
            outcome.proposals,
            outcome.cache_hit_rate(),
        );
    }
}

criterion_group!(benches, bench_search_convergence);
criterion_main!(benches);
