//! # rt3-transformer
//!
//! From-scratch Transformer language model — the substrate that RT3 prunes
//! and reconfigures.
//!
//! The paper evaluates two models: a small encoder–decoder Transformer
//! (WikiText-2 next-word prediction) and DistilBERT (GLUE). This crate
//! implements the first on top of the [`rt3_tensor`] autograd engine; the
//! DistilBERT shape ([`TransformerConfig::distilbert_full`]) is kept for
//! latency accounting only.
//!
//! * [`TransformerLm`] — encoder–decoder language model
//!   ([`TransformerConfig::paper_transformer`] reproduces the 2-encoder /
//!   1-decoder layout). Every attention is causal, the decoder's
//!   cross-attention included, so no position sees a later token.
//! * [`MaskSet`] — named binary weight masks; the contract between the
//!   pruning algorithms (`rt3-pruning`) and masked training here.
//! * [`train_lm`] / [`evaluate_lm`] — the fine-tuning loop with optional
//!   masks, used by the RT3 joint-training procedure, and its validation
//!   accuracy.
//!
//! # Examples
//!
//! ```
//! use rt3_transformer::{Model, TransformerConfig, TransformerLm};
//!
//! let model = TransformerLm::new(TransformerConfig::tiny(32), 0);
//! let next = model.predict(&[1, 2, 3], None);
//! assert_eq!(next.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod layers;
mod masks;
mod model;
mod trainer;

pub use config::TransformerConfig;
pub use layers::{DecoderLayer, EncoderLayer, FeedForward, LayerNormParams, MultiHeadAttention};
pub use masks::MaskSet;
pub use model::{Model, ParamBindings, TransformerLm};
pub use trainer::{evaluate_lm, train_lm, TrainOptions, TrainReport};
