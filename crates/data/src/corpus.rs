//! Synthetic "WikiText-like" language-modelling corpus.
//!
//! The paper evaluates the small Transformer on WikiText-2 next-word
//! prediction. That dataset is not redistributable here, so this module
//! generates a deterministic Markov-chain corpus over a synthetic
//! vocabulary: token transition probabilities are sparse and skewed, which
//! gives the corpus learnable local structure (a trained model beats the
//! unigram baseline by a wide margin) while remaining fully reproducible
//! from a seed. See DESIGN.md for the substitution rationale.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the synthetic corpus generator.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// Vocabulary size (including the `<unk>` token at id 0).
    pub vocab_size: usize,
    /// Number of training tokens to generate.
    pub train_tokens: usize,
    /// Number of validation tokens to generate.
    pub valid_tokens: usize,
    /// Number of successor tokens each token can transition to.
    pub branching: usize,
    /// RNG seed controlling both the chain and the sampled text.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            vocab_size: 256,
            train_tokens: 20_000,
            valid_tokens: 2_000,
            branching: 4,
            seed: 0x5eed,
        }
    }
}

impl CorpusConfig {
    /// A small configuration suitable for unit tests.
    pub fn tiny() -> Self {
        Self {
            vocab_size: 48,
            train_tokens: 2_000,
            valid_tokens: 400,
            branching: 3,
            seed: 7,
        }
    }
}

/// A generated language-modelling corpus: train/validation token streams over
/// a shared synthetic vocabulary.
///
/// # Examples
///
/// ```
/// use rt3_data::{CorpusConfig, MarkovCorpus};
///
/// let corpus = MarkovCorpus::generate(&CorpusConfig::tiny());
/// assert_eq!(corpus.train().len(), 2_000);
/// assert!(corpus.train().iter().all(|&t| t < corpus.vocab_size()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovCorpus {
    vocab_size: usize,
    train: Vec<usize>,
    valid: Vec<usize>,
}

impl MarkovCorpus {
    /// Generates a corpus from the configuration. The same configuration
    /// always produces the same corpus.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_size < 2` or `branching == 0`.
    pub fn generate(config: &CorpusConfig) -> Self {
        assert!(
            config.vocab_size >= 2,
            "vocabulary must have at least 2 tokens"
        );
        assert!(config.branching > 0, "branching must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Build a sparse, skewed transition table: each token can be followed
        // by `branching` successors with geometric-ish probabilities.
        let branching = config.branching.min(config.vocab_size - 1);
        let transitions: Vec<Vec<(usize, f64)>> = (0..config.vocab_size)
            .map(|_| {
                let mut succ = Vec::with_capacity(branching);
                let mut remaining = 1.0;
                for k in 0..branching {
                    let next = rng.gen_range(0..config.vocab_size);
                    let p = if k + 1 == branching {
                        remaining
                    } else {
                        remaining * rng.gen_range(0.4..0.8)
                    };
                    succ.push((next, p));
                    remaining -= p;
                }
                succ
            })
            .collect();
        let sample_stream = |len: usize, rng: &mut StdRng| -> Vec<usize> {
            let mut out = Vec::with_capacity(len);
            let mut current = rng.gen_range(0..config.vocab_size);
            for _ in 0..len {
                out.push(current);
                let r: f64 = rng.gen();
                let mut acc = 0.0;
                let mut next = transitions[current][0].0;
                for &(tok, p) in &transitions[current] {
                    acc += p;
                    if r <= acc {
                        next = tok;
                        break;
                    }
                }
                current = next;
            }
            out
        };
        let train = sample_stream(config.train_tokens, &mut rng);
        let valid = sample_stream(config.valid_tokens, &mut rng);
        Self {
            vocab_size: config.vocab_size,
            train,
            valid,
        }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Training token stream.
    pub fn train(&self) -> &[usize] {
        &self.train
    }

    /// Validation token stream.
    pub fn valid(&self) -> &[usize] {
        &self.valid
    }

    /// Accuracy of always predicting the most frequent token — the unigram
    /// floor a trained model must beat.
    pub fn unigram_baseline_accuracy(&self) -> f64 {
        let mut counts = vec![0usize; self.vocab_size];
        for &t in &self.valid {
            counts[t] += 1;
        }
        let max = counts.iter().max().copied().unwrap_or(0);
        if self.valid.is_empty() {
            0.0
        } else {
            max as f64 / self.valid.len() as f64
        }
    }
}

/// A batch of language-modelling sequences: inputs and next-token targets.
#[derive(Debug, Clone, PartialEq)]
pub struct LmBatch {
    /// Input token sequences, each of the configured sequence length.
    pub inputs: Vec<Vec<usize>>,
    /// Target token sequences (inputs shifted by one).
    pub targets: Vec<Vec<usize>>,
}

impl LmBatch {
    /// Number of sequences in the batch.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Returns `true` if the batch holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }
}

/// Splits a token stream into fixed-length language-modelling batches.
///
/// Sequences are non-overlapping windows of `seq_len + 1` tokens; the first
/// `seq_len` are the input and the last `seq_len` the target. Any remainder
/// shorter than `seq_len + 1` is dropped.
///
/// # Panics
///
/// Panics if `seq_len == 0` or `batch_size == 0`.
///
/// # Examples
///
/// ```
/// use rt3_data::lm_batches;
///
/// let stream: Vec<usize> = (0..10).collect();
/// let batches = lm_batches(&stream, 3, 2);
/// assert_eq!(batches[0].inputs[0], vec![0, 1, 2]);
/// assert_eq!(batches[0].targets[0], vec![1, 2, 3]);
/// ```
pub fn lm_batches(stream: &[usize], seq_len: usize, batch_size: usize) -> Vec<LmBatch> {
    assert!(seq_len > 0, "sequence length must be positive");
    assert!(batch_size > 0, "batch size must be positive");
    let mut sequences = Vec::new();
    let mut start = 0;
    while start + seq_len < stream.len() {
        let input = stream[start..start + seq_len].to_vec();
        let target = stream[start + 1..start + seq_len + 1].to_vec();
        sequences.push((input, target));
        start += seq_len;
    }
    sequences
        .chunks(batch_size)
        .map(|chunk| LmBatch {
            inputs: chunk.iter().map(|(i, _)| i.clone()).collect(),
            targets: chunk.iter().map(|(_, t)| t.clone()).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let config = CorpusConfig::tiny();
        let a = MarkovCorpus::generate(&config);
        let b = MarkovCorpus::generate(&config);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_corpora() {
        let mut config = CorpusConfig::tiny();
        let a = MarkovCorpus::generate(&config);
        config.seed += 1;
        let b = MarkovCorpus::generate(&config);
        assert_ne!(a.train(), b.train());
    }

    #[test]
    fn tokens_stay_in_vocabulary() {
        let corpus = MarkovCorpus::generate(&CorpusConfig::tiny());
        assert!(corpus.train().iter().all(|&t| t < corpus.vocab_size()));
        assert!(corpus.valid().iter().all(|&t| t < corpus.vocab_size()));
    }

    #[test]
    fn corpus_has_learnable_structure() {
        // A bigram oracle (predict the most frequent successor seen in
        // training) must clearly beat the unigram baseline; otherwise the
        // corpus would be pure noise and useless as a WikiText stand-in.
        let corpus = MarkovCorpus::generate(&CorpusConfig::tiny());
        let v = corpus.vocab_size();
        let mut bigram = vec![vec![0usize; v]; v];
        for w in corpus.train().windows(2) {
            bigram[w[0]][w[1]] += 1;
        }
        let predict = |prev: usize| -> usize {
            bigram[prev]
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .unwrap_or(0)
        };
        let valid = corpus.valid();
        let correct = valid.windows(2).filter(|w| predict(w[0]) == w[1]).count();
        let bigram_acc = correct as f64 / (valid.len() - 1) as f64;
        let unigram_acc = corpus.unigram_baseline_accuracy();
        assert!(
            bigram_acc > unigram_acc + 0.15,
            "bigram {:.3} should beat unigram {:.3}",
            bigram_acc,
            unigram_acc
        );
    }

    #[test]
    fn lm_batches_shift_targets_by_one() {
        let stream: Vec<usize> = (0..20).collect();
        let batches = lm_batches(&stream, 4, 3);
        for batch in &batches {
            for (input, target) in batch.inputs.iter().zip(&batch.targets) {
                for k in 0..input.len() {
                    assert_eq!(target[k], input[k] + 1);
                }
            }
        }
    }

    #[test]
    fn lm_batches_drop_short_remainder() {
        let stream: Vec<usize> = (0..10).collect();
        let batches = lm_batches(&stream, 4, 8);
        let total: usize = batches.iter().map(LmBatch::len).sum();
        assert_eq!(total, 2);
    }

    #[test]
    #[should_panic(expected = "sequence length must be positive")]
    fn lm_batches_reject_zero_seq_len() {
        let _ = lm_batches(&[1, 2, 3], 0, 1);
    }
}
