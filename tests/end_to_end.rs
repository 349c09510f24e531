//! Cross-crate integration tests: the full RT3 pipeline wired through the
//! facade crate, with both the surrogate and the real-training evaluators.

use rt3::core::{
    build_search_space, compute_reward, joint_train_lm, run_level1, run_level2_search,
    AccuracyEvaluator, CandidateMasks, PruningSpec, RewardParams, Rt3Config, SurrogateEvaluator,
    TaskProfile, TrainedLmEvaluator,
};
use rt3::data::{CorpusConfig, MarkovCorpus};
use rt3::hardware::{ModelWorkload, PerformancePredictor, VfLevel};
use rt3::pruning::combined_masks_for_model;
use rt3::sparse::SparseFormat;
use rt3::transformer::{Model, TrainOptions, TransformerConfig, TransformerLm};

fn tiny_model() -> TransformerLm {
    TransformerLm::new(TransformerConfig::tiny(48), 11)
}

#[test]
fn full_pipeline_with_surrogate_produces_feasible_reconfigurable_solution() {
    let model = tiny_model();
    let mut config = Rt3Config::tiny_test();
    config.episodes = 10;
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());

    let backbone = run_level1(&model, &config, &mut evaluator);
    assert!(backbone.sparsity > 0.2 && backbone.sparsity < 0.9);

    let space = build_search_space(&model, &backbone, &config);
    assert_eq!(space.len(), config.candidate_sparsities);

    let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
    let best = outcome.best.expect("feasible solution expected");
    assert_eq!(best.sparsities.len(), config.num_levels());
    assert!(best.meets_constraint);
    // every sub-model is at least as sparse as the backbone
    for s in &best.sparsities {
        assert!(*s >= backbone.sparsity - 1e-6);
    }
    // accuracy decreases (weakly) towards lower-frequency levels in the best
    // solution, because Eq. (1) penalises the opposite ordering
    assert!(best.accuracies[0] >= *best.accuracies.last().unwrap() - 0.05);
}

#[test]
fn pipeline_masks_compose_and_predict_lower_latency_at_higher_sparsity() {
    let model = tiny_model();
    let config = Rt3Config::tiny_test();
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
    let backbone = run_level1(&model, &config, &mut evaluator);
    let space = build_search_space(&model, &backbone, &config);
    let prunable = model.prunable_parameter_names();

    let predictor = PerformancePredictor::cortex_a7();
    let level = VfLevel::odroid_level(6);
    let mut previous_latency = f64::INFINITY;
    for candidate in space.candidates() {
        let masks = combined_masks_for_model(&model, &backbone.masks, &prunable, &candidate.set);
        assert!(masks.overall_sparsity() >= backbone.masks.overall_sparsity() - 1e-9);
        let workload = ModelWorkload::from_config(
            &config.workload_config,
            masks.overall_sparsity(),
            config.seq_len,
            SparseFormat::BlockPruned,
        );
        let latency = predictor.latency_ms(&workload, &level);
        assert!(
            latency <= previous_latency + 1e-9,
            "latency must not grow with sparsity"
        );
        previous_latency = latency;
    }
}

#[test]
fn trained_evaluator_and_joint_training_run_end_to_end() {
    // Small but real: BP on a real model, masked evaluation by real
    // fine-tuning, and joint training under two pattern sets.
    let corpus = MarkovCorpus::generate(&CorpusConfig {
        vocab_size: 48,
        train_tokens: 1_500,
        valid_tokens: 300,
        branching: 3,
        seed: 9,
    });
    let model = tiny_model();
    let options = TrainOptions {
        epochs: 1,
        learning_rate: 5e-3,
        batch_size: 4,
        seq_len: 8,
        max_batches_per_epoch: Some(6),
        seed: 2,
    };
    let mut config = Rt3Config::tiny_test();
    config.candidate_sparsities = 2;
    let mut evaluator = TrainedLmEvaluator::new(model.clone(), corpus.clone(), options.clone());
    let backbone = run_level1(&model, &config, &mut evaluator);
    assert!((0.0..=1.0).contains(&backbone.accuracy));

    let space = build_search_space(&model, &backbone, &config);
    let prunable = model.prunable_parameter_names();
    let level_masks: Vec<_> = space
        .candidates()
        .iter()
        .map(|c| combined_masks_for_model(&model, &backbone.masks, &prunable, &c.set))
        .collect();
    let mut shared = model.clone();
    let report = joint_train_lm(
        &mut shared,
        &corpus,
        &level_masks,
        &vec![1.0 / level_masks.len() as f64; level_masks.len()],
        &options,
    );
    assert_eq!(report.per_level_scores.len(), level_masks.len());
    assert!(report.final_loss.is_finite());
}

#[test]
fn reward_shapes_the_search_away_from_deadline_misses() {
    let params = RewardParams::uniform(3, 0.8, 0.3);
    let miss = compute_reward(
        &params,
        0.97,
        &[0.95, 0.9, 0.85],
        &[200.0, 90.0, 80.0],
        0.5,
        100.0,
    );
    let hit = compute_reward(
        &params,
        0.97,
        &[0.95, 0.9, 0.85],
        &[95.0, 90.0, 80.0],
        0.5,
        100.0,
    );
    assert!(hit.reward > miss.reward + 0.5);
}

#[test]
fn surrogate_evaluator_is_consistent_with_its_profile() {
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::rte());
    let unpruned = evaluator.unpruned_score();
    let pruned = evaluator.evaluate(
        CandidateMasks::ready(&rt3::transformer::MaskSet::new()),
        &PruningSpec {
            sparsity: 0.6,
            level1_guided: true,
            level2: Some(true),
        },
    );
    assert!(pruned < unpruned);
    assert_eq!(evaluator.task_name(), "RTE");
}
