//! # rt3-data
//!
//! Synthetic data substrate for the RT3 reproduction.
//!
//! The paper's experiments use WikiText-2 (next-word prediction for the
//! small Transformer) and the GLUE benchmark (DistilBERT). Neither dataset
//! is bundled here (see DESIGN.md for the substitution rationale):
//!
//! * [`MarkovCorpus`] — a deterministic "WikiText-like" language-modelling
//!   corpus drawn from a sparse Markov chain with planted, learnable
//!   structure, batched with [`lm_batches`]. The LM is trained on it.
//! * [`GlueTask`] — the names of the nine GLUE tasks. No GLUE-style data
//!   is generated: their accuracies come from surrogate profiles in
//!   `rt3-core`.
//!
//! # Examples
//!
//! ```
//! use rt3_data::{lm_batches, CorpusConfig, MarkovCorpus};
//!
//! let corpus = MarkovCorpus::generate(&CorpusConfig::tiny());
//! let batches = lm_batches(corpus.train(), 8, 16);
//! assert!(!batches.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod glue;

pub use corpus::{lm_batches, CorpusConfig, LmBatch, MarkovCorpus};
pub use glue::GlueTask;
