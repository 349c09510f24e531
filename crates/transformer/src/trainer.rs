//! Training and evaluation loops for the language model, with optional
//! weight masks (masked fine-tuning is how both the Level-1 BP decision and
//! the Level-2 pattern sets are trained).

use crate::masks::MaskSet;
use crate::model::{Model, TransformerLm};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rt3_data::{lm_batches, MarkovCorpus};
use rt3_tensor::{Adam, Graph, Matrix, Optimizer};

/// Options of the language-model training loop.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOptions {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Sequences per gradient step.
    pub batch_size: usize,
    /// Sequence length for language-model batching.
    pub seq_len: usize,
    /// Optional cap on the number of batches per epoch (keeps the RL search
    /// loop fast); `None` uses every batch.
    pub max_batches_per_epoch: Option<usize>,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            epochs: 2,
            learning_rate: 5e-3,
            batch_size: 8,
            seq_len: 12,
            max_batches_per_epoch: None,
            seed: 0,
        }
    }
}

impl TrainOptions {
    /// A very small budget used inside search loops (one epoch, few batches).
    pub fn quick() -> Self {
        Self {
            epochs: 1,
            max_batches_per_epoch: Some(8),
            ..Self::default()
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss over the final epoch.
    pub final_loss: f32,
    /// Validation next-token accuracy after training.
    pub metric: f64,
    /// Number of gradient steps taken.
    pub steps: usize,
}

fn apply_gradients<M: Model>(
    model: &mut M,
    graph: &Graph,
    bindings: &crate::model::ParamBindings,
    optimizer: &mut dyn Optimizer,
) {
    let grads: Vec<Matrix> = bindings
        .names()
        .iter()
        .map(|name| graph.grad(bindings.leaf(name)).clone())
        .collect();
    for (slot, ((name, param), grad)) in model.parameters_mut().into_iter().zip(grads).enumerate() {
        debug_assert_eq!(name, bindings.names()[slot]);
        optimizer.step(slot, param, &grad);
    }
}

/// Trains the language model on the synthetic corpus and returns the final
/// loss and validation next-token accuracy.
///
/// # Panics
///
/// Panics if the corpus is too short to produce a single batch.
pub fn train_lm(
    model: &mut TransformerLm,
    corpus: &MarkovCorpus,
    options: &TrainOptions,
    masks: Option<&MaskSet>,
) -> TrainReport {
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
            let bindings = model.bind(&mut g, masks);
            let loss = model.batch_loss(&mut g, &bindings, batch);
            epoch_loss += g.scalar(loss);
            g.backward(loss);
            apply_gradients(model, &g, &bindings, &mut optimizer);
            used += 1;
            steps += 1;
        }
        final_loss = epoch_loss / used.max(1) as f32;
    }
    let metric = evaluate_lm(model, corpus, options.seq_len, masks);
    TrainReport {
        final_loss,
        metric,
        steps,
    }
}

/// Next-token prediction accuracy of the language model on the validation
/// stream.
pub fn evaluate_lm(
    model: &TransformerLm,
    corpus: &MarkovCorpus,
    seq_len: usize,
    masks: Option<&MaskSet>,
) -> f64 {
    let batches = lm_batches(corpus.valid(), seq_len, 1);
    let mut correct = 0usize;
    let mut total = 0usize;
    for batch in &batches {
        for (input, target) in batch.inputs.iter().zip(&batch.targets) {
            let predictions = model.predict(input, masks);
            for (p, t) in predictions.iter().zip(target) {
                if p == t {
                    correct += 1;
                }
                total += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransformerConfig;
    use rt3_data::CorpusConfig;

    #[test]
    fn lm_training_beats_unigram_baseline() {
        let corpus = MarkovCorpus::generate(&CorpusConfig {
            vocab_size: 32,
            train_tokens: 3_000,
            valid_tokens: 400,
            branching: 2,
            seed: 3,
        });
        let mut model = TransformerLm::new(TransformerConfig::tiny(32), 1);
        let options = TrainOptions {
            epochs: 2,
            learning_rate: 5e-3,
            batch_size: 8,
            seq_len: 8,
            max_batches_per_epoch: Some(20),
            seed: 1,
        };
        let report = train_lm(&mut model, &corpus, &options, None);
        assert!(report.steps > 0);
        assert!(
            report.metric > corpus.unigram_baseline_accuracy(),
            "trained accuracy {:.3} should beat unigram baseline {:.3}",
            report.metric,
            corpus.unigram_baseline_accuracy()
        );
    }

    #[test]
    fn masked_training_keeps_pruned_weights_at_zero() {
        let corpus = MarkovCorpus::generate(&CorpusConfig::tiny());
        let mut model = TransformerLm::new(TransformerConfig::tiny(48), 4);
        // fully prune one FFN matrix
        let shape = model.parameter("encoder.0.ffn.w1").unwrap().shape();
        let mut masks = MaskSet::new();
        masks.insert("encoder.0.ffn.w1", Matrix::zeros(shape.0, shape.1));
        model.apply_masks_permanently(&masks);
        let options = TrainOptions {
            epochs: 1,
            max_batches_per_epoch: Some(4),
            seq_len: 8,
            ..TrainOptions::default()
        };
        let _ = train_lm(&mut model, &corpus, &options, Some(&masks));
        let w = model.parameter("encoder.0.ffn.w1").unwrap();
        assert_eq!(w.count_nonzero(), 0, "pruned weights must stay zero");
    }
}
