//! Criterion bench: pattern-set switch vs full model reload (the Table III
//! "Interrupt" comparison). The switch is what serving pays on a cold V/F
//! change: a capacity-1 `ModelBank::get` of the evicted level, which
//! gathers the level's kept values into the evicted variant's buffers under
//! pack layouts scored once, offline. Beside it: the cost model's reload
//! comparison, the lowering of one candidate pattern set to its combined
//! (backbone ∧ pattern) masks on its own (squaring the weights for it),
//! and the offline search's lowering of every candidate of the space
//! through one `CandidateTable`, which squares the weights once and
//! lowers each candidate to its pack layouts and a bit-counted sparsity
//! (the surrogate evaluator reads no dense mask).

use criterion::{criterion_group, criterion_main, Criterion};
use rt3_core::{
    run_level1, switch_time_comparison, CandidateTable, Rt3Config, SurrogateEvaluator, TaskProfile,
};
use rt3_hardware::MemoryModel;
use rt3_pruning::BlockPruningConfig;
use rt3_pruning::{combined_masks_for_model, generate_pattern_space, PatternSpaceConfig};
use rt3_runtime::ModelBank;
use rt3_transformer::{Model, TransformerConfig, TransformerLm};

fn bench_switch(c: &mut Criterion) {
    let model = TransformerLm::new(TransformerConfig::paper_transformer(256), 3);
    let mut config = Rt3Config::wikitext_default();
    config.block_pruning = BlockPruningConfig::default();
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
    let level1 = run_level1(&model, &config, &mut evaluator);
    let backbone = &level1.masks;
    let space = generate_pattern_space(
        &model,
        backbone,
        &[0.5, 0.75],
        &PatternSpaceConfig {
            pattern_size: 8,
            patterns_per_set: 2,
            sample_fraction: 0.5,
            seed: 1,
        },
    );
    let prunable = model.prunable_parameter_names();
    let mut bank = ModelBank::new(
        &model,
        backbone.clone(),
        &space,
        &[0, 1],
        MemoryModel::odroid_xu3(),
        1,
    );
    // score both levels once, as the first build of each level does, so
    // every timed access is a cold switch into the other level's buffers
    for level in [0, 1] {
        bank.get(level);
    }
    let mut level = 0;
    let mut group = c.benchmark_group("reconfiguration");
    group.sample_size(20);
    group.bench_function("pattern_set_switch_bank_get", |b| {
        b.iter(|| {
            level ^= 1;
            bank.get(level).sparsity
        })
    });
    group.bench_function("offline_candidate_lowering", |b| {
        b.iter(|| combined_masks_for_model(&model, backbone, &prunable, &space.candidates()[0].set))
    });
    // one evaluation per candidate, every level on that candidate: the
    // table lowers each candidate once, from squares built in `new`, to
    // layouts and a sparsity; the surrogate builds no mask
    let levels = config.num_levels();
    group.bench_function("offline_search_lowering", |b| {
        b.iter(|| {
            let table = CandidateTable::new(&model, &level1, &space, &config);
            (0..space.len())
                .map(|c| {
                    table
                        .evaluate(&mut evaluator, &vec![c; levels], true)
                        .reward
                })
                .sum::<f64>()
        })
    });
    group.bench_function("switch_cost_model_distilbert_scale", |b| {
        b.iter(|| switch_time_comparison(100, 4, 66_000_000))
    });
    group.finish();
    assert_eq!(
        bank.stats().evictions + 1,
        bank.stats().builds,
        "every timed access must be a cold switch"
    );
}

criterion_group!(benches, bench_switch);
criterion_main!(benches);
