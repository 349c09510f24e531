//! # rt3-pruning
//!
//! The pruning algorithms of RT3 ("Dancing along Battery", DAC 2021):
//!
//! * **Level 1 — block-structured pruning (BP)**: [`block_prune_matrix`]
//!   implements Algorithm 1 (per-block column removal by l2 norm);
//!   [`block_prune_model`] applies it to every prunable Transformer weight.
//!   [`random_block_prune_matrix`] is the rBP ablation baseline and
//!   [`reweighted_group_lasso_penalty`] the sparsity regulariser.
//! * **Level 2 — pattern pruning (PP)**: [`generate_pattern_space`] builds
//!   the shrunken search space of candidate pattern sets from the backbone
//!   (component ③), [`random_pattern_set`] is the rPP baseline, and
//!   [`combined_masks_for_model`] turns a chosen pattern set into trainable
//!   weight masks composed with the backbone mask.
//!
//! # Examples
//!
//! ```
//! use rt3_pruning::{block_prune_model, BlockPruningConfig};
//! use rt3_transformer::{Model, TransformerConfig, TransformerLm};
//!
//! let model = TransformerLm::new(TransformerConfig::tiny(32), 0);
//! let backbone = block_prune_model(&model, &BlockPruningConfig::default());
//! assert!(backbone.overall_sparsity() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod pattern_apply;
mod pattern_space;

pub use block::{
    block_prune_matrix, block_prune_model, random_block_prune_matrix, random_block_prune_model,
    reweighted_group_lasso_penalty, BlockPruningConfig, PruneCriterion,
};
pub use pattern_apply::{
    combined_masks, combined_masks_for_model, resolve_prunable, Lowering, PatternScorer,
    PrunableWeight,
};
pub use pattern_space::{
    generate_pattern_space, importance_map, random_pattern_set, CandidatePatternSet, PatternSpace,
    PatternSpaceConfig,
};
