//! Criterion bench: throughput of the RL controller (episode sampling +
//! policy-gradient update) and of one Level-2 evaluation with the surrogate
//! evaluator against a search's candidate table (lowered on the first
//! iteration, so the timed loop is prediction, scoring and reward).

use criterion::{criterion_group, criterion_main, Criterion};
use rt3_core::{
    build_search_space, run_level1, CandidateTable, Rt3Config, SurrogateEvaluator, TaskProfile,
};
use rt3_search::{Controller, ControllerConfig};
use rt3_transformer::{TransformerConfig, TransformerLm};

fn bench_rl(c: &mut Criterion) {
    let mut group = c.benchmark_group("rl_search");
    group.sample_size(10);
    group.bench_function("controller_episode_and_update", |b| {
        let mut controller = Controller::new(ControllerConfig::default());
        b.iter(|| {
            let e = controller.sample_episode();
            controller.update(&e, 0.5);
        })
    });
    let model = TransformerLm::new(TransformerConfig::tiny(32), 5);
    let config = Rt3Config::tiny_test();
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
    let backbone = run_level1(&model, &config, &mut evaluator);
    let space = build_search_space(&model, &backbone, &config);
    let table = CandidateTable::new(&model, &backbone, &space, &config);
    group.bench_function("evaluate_one_assignment", |b| {
        b.iter(|| table.evaluate(&mut evaluator, &[0, 1, 2], true))
    });
    group.finish();
}

criterion_group!(benches, bench_rl);
criterion_main!(benches);
