//! The offline search and the serving engine price every V/F level from
//! the same formula: for each governor level position `p` of `n`, the
//! engine's single-request latency equals the latency the search recorded
//! for the level (`latencies_ms[n - 1 - p]`, the search orders levels from
//! the highest frequency down), and the banked variant's achieved sparsity
//! equals the search's, bit for bit. Checked under the test configuration
//! and under the paper model the `serve_trace` example serves.

use rt3_core::{
    build_search_space, run_level1, run_level2_search, Rt3Config, SurrogateEvaluator, TaskProfile,
};
use rt3_runtime::{ServeConfig, ServeEngine};
use rt3_transformer::{TransformerConfig, TransformerLm};

fn assert_levels_priced_alike(model: &TransformerLm, config: Rt3Config) {
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
    let backbone = run_level1(model, &config, &mut evaluator);
    let space = build_search_space(model, &backbone, &config);
    let outcome = run_level2_search(model, &backbone, &space, &config, &mut evaluator);
    let best = outcome.best.clone().expect("a feasible solution");
    let n = config.num_levels();
    assert_eq!(best.latencies_ms.len(), n);
    let serve = ServeConfig {
        real_inference: false,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(model, backbone.masks, &space, &outcome, config, serve);
    for p in 0..n {
        assert_eq!(
            engine.level_latency_ms(p).to_bits(),
            best.latencies_ms[n - 1 - p].to_bits(),
            "latency of level position {p}"
        );
        assert_eq!(
            engine.bank().rebuild_cold(p).sparsity.to_bits(),
            best.sparsities[n - 1 - p].to_bits(),
            "sparsity of level position {p}"
        );
    }
}

#[test]
fn search_and_serving_price_the_test_config_alike() {
    let model = TransformerLm::new(TransformerConfig::tiny(32), 13);
    assert_levels_priced_alike(&model, Rt3Config::tiny_test());
}

#[test]
fn search_and_serving_price_the_paper_model_alike() {
    let mut config = Rt3Config::wikitext_default();
    config.timing_constraint_ms = 115.0;
    config.episodes = 20;
    let model = TransformerLm::new(TransformerConfig::paper_transformer(512), 7);
    assert_levels_priced_alike(&model, config);
}
