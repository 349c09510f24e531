//! Joint training of the shared backbone under multiple pattern sets
//! (Fig. 2 of the paper, component ④).
//!
//! In every step the batch loss is computed once per mask set (forward
//! propagation "goes through each pattern set"), the sub-losses are combined
//! with the per-level weights `α_i`, and a single backward pass updates the
//! shared weights. Because the masks of level *i* zero the gradient of
//! positions pruned at level *i*, a weight shared by several levels receives
//! the sum of their contributions — exactly the weighted accumulation the
//! paper describes.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rt3_data::{lm_batches, MarkovCorpus};
use rt3_tensor::{Adam, Graph, Matrix, Optimizer, Var};
use rt3_transformer::{evaluate_lm, MaskSet, Model, TrainOptions, TransformerLm};

/// Result of joint training: one score per level plus the final training
/// loss.
#[derive(Debug, Clone, PartialEq)]
pub struct JointTrainingReport {
    /// Validation score of the shared backbone under each level's masks.
    pub per_level_scores: Vec<f64>,
    /// Mean weighted loss of the last epoch.
    pub final_loss: f32,
    /// Number of gradient steps taken.
    pub steps: usize,
}

/// Jointly trains the shared language-model backbone under several mask sets
/// and returns the per-level validation scores (the "RT3 accuracy" row of
/// Table III).
///
/// # Panics
///
/// Panics if `level_masks` is empty, `weights` has a different length, or
/// the corpus is too short for one batch.
pub fn joint_train_lm(
    model: &mut TransformerLm,
    corpus: &MarkovCorpus,
    level_masks: &[MaskSet],
    weights: &[f64],
    options: &TrainOptions,
) -> JointTrainingReport {
    assert!(!level_masks.is_empty(), "at least one mask set is required");
    assert_eq!(
        level_masks.len(),
        weights.len(),
        "one weight per mask set is required"
    );
    let mut batches = lm_batches(corpus.train(), options.seq_len, options.batch_size);
    assert!(!batches.is_empty(), "corpus too short for one batch");
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut optimizer = Adam::new(options.learning_rate);
    let mut final_loss = f32::NAN;
    let mut steps = 0;
    for _ in 0..options.epochs {
        batches.shuffle(&mut rng);
        let limit = options.max_batches_per_epoch.unwrap_or(batches.len());
        let mut epoch_loss = 0.0;
        let mut used = 0;
        for batch in batches.iter().take(limit) {
            let mut g = Graph::new();
            // one binding per level: each clones the shared weights and
            // applies that level's masks
            let bindings: Vec<_> = level_masks
                .iter()
                .map(|masks| model.bind(&mut g, Some(masks)))
                .collect();
            let mut total: Option<Var> = None;
            for (binding, &alpha) in bindings.iter().zip(weights) {
                let sub_loss = model.batch_loss(&mut g, binding, batch);
                let weighted = g.scale(sub_loss, alpha as f32);
                total = Some(match total {
                    Some(acc) => g.add(acc, weighted),
                    None => weighted,
                });
            }
            let total = total.expect("at least one mask set");
            epoch_loss += g.scalar(total);
            g.backward(total);
            // accumulate gradients across bindings for each shared parameter
            let names: Vec<String> = bindings[0].names().to_vec();
            let mut grads: Vec<Matrix> = Vec::with_capacity(names.len());
            for name in &names {
                let mut grad: Option<Matrix> = None;
                for binding in &bindings {
                    let g_leaf = g.grad(binding.leaf(name));
                    grad = Some(match grad {
                        Some(mut acc) => {
                            acc.add_scaled_assign(g_leaf, 1.0);
                            acc
                        }
                        None => g_leaf.clone(),
                    });
                }
                grads.push(grad.expect("at least one binding"));
            }
            for (slot, ((name, param), grad)) in
                model.parameters_mut().into_iter().zip(grads).enumerate()
            {
                debug_assert_eq!(&name, &names[slot]);
                optimizer.step(slot, param, &grad);
            }
            used += 1;
            steps += 1;
        }
        final_loss = epoch_loss / used.max(1) as f32;
    }
    let per_level_scores = level_masks
        .iter()
        .map(|masks| evaluate_lm(model, corpus, options.seq_len, Some(masks)))
        .collect();
    JointTrainingReport {
        per_level_scores,
        final_loss,
        steps,
    }
}

/// Trains one independent copy of the model per mask set (the "UB" upper
/// bound of Table III, which requires a full model switch at run time) and
/// returns the per-level validation scores.
pub fn individually_train_lm(
    model: &TransformerLm,
    corpus: &MarkovCorpus,
    level_masks: &[MaskSet],
    options: &TrainOptions,
) -> Vec<f64> {
    level_masks
        .iter()
        .map(|masks| {
            let mut copy = model.clone();
            let report = rt3_transformer::train_lm(&mut copy, corpus, options, Some(masks));
            report.metric
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt3_data::CorpusConfig;
    use rt3_pruning::{block_prune_model, BlockPruningConfig, PruneCriterion};
    use rt3_transformer::TransformerConfig;

    fn quick_options() -> TrainOptions {
        TrainOptions {
            epochs: 1,
            learning_rate: 5e-3,
            batch_size: 4,
            seq_len: 8,
            max_batches_per_epoch: Some(6),
            seed: 1,
        }
    }

    fn two_mask_sets(model: &TransformerLm) -> Vec<MaskSet> {
        let light = block_prune_model(
            model,
            &BlockPruningConfig {
                num_blocks: 2,
                criterion: PruneCriterion::Fraction(0.25),
            },
        );
        let heavy = block_prune_model(
            model,
            &BlockPruningConfig {
                num_blocks: 2,
                criterion: PruneCriterion::Fraction(0.6),
            },
        );
        vec![light, heavy]
    }

    #[test]
    fn joint_training_returns_one_score_per_level_and_makes_progress() {
        let corpus = MarkovCorpus::generate(&CorpusConfig::tiny());
        let mut model = TransformerLm::new(TransformerConfig::tiny(48), 2);
        let masks = two_mask_sets(&model);
        let before: Vec<f64> = masks
            .iter()
            .map(|m| evaluate_lm(&model, &corpus, 8, Some(m)))
            .collect();
        let report = joint_train_lm(&mut model, &corpus, &masks, &[0.5, 0.5], &quick_options());
        assert_eq!(report.per_level_scores.len(), 2);
        assert!(report.steps > 0);
        assert!(report.final_loss.is_finite());
        // at least one level should improve over the untrained model
        let improved = report
            .per_level_scores
            .iter()
            .zip(&before)
            .any(|(after, before)| after >= before);
        assert!(improved, "joint training should not degrade every level");
    }

    #[test]
    fn individual_training_returns_one_score_per_mask_set() {
        let corpus = MarkovCorpus::generate(&CorpusConfig::tiny());
        let model = TransformerLm::new(TransformerConfig::tiny(48), 3);
        let masks = two_mask_sets(&model);
        let scores = individually_train_lm(&model, &corpus, &masks, &quick_options());
        assert_eq!(scores.len(), 2);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    #[should_panic(expected = "one weight per mask set")]
    fn weight_count_must_match_mask_sets() {
        let corpus = MarkovCorpus::generate(&CorpusConfig::tiny());
        let mut model = TransformerLm::new(TransformerConfig::tiny(48), 2);
        let masks = two_mask_sets(&model);
        let _ = joint_train_lm(&mut model, &corpus, &masks, &[1.0], &quick_options());
    }
}
