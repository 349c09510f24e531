//! Applying a pattern set to a model: builds the per-parameter masks that a
//! chosen pattern set induces, optionally composed with the fixed Level-1
//! backbone mask.

use rt3_sparse::{PatternPrunedMatrix, PatternSet};
use rt3_tensor::Matrix;
use rt3_transformer::{MaskSet, Model};

/// Builds the mask set induced by assigning, for every `psize x psize` block
/// of each listed parameter, the pattern from `set` that preserves the
/// largest l2 norm (the paper's block→pattern assignment rule).
///
/// Parameters not in `names` are left unmasked.
pub fn pattern_masks_for_model<M: Model>(model: &M, names: &[String], set: &PatternSet) -> MaskSet {
    let mut masks = MaskSet::new();
    for (name, weight) in model.parameters() {
        if !names.contains(&name) {
            continue;
        }
        let pruned = PatternPrunedMatrix::from_dense(weight, set);
        masks.insert(name, pruned.mask());
    }
    masks
}

/// Builds the combined Level-1 + Level-2 mask set: the pattern masks are
/// computed on the *backbone-masked* weights and then intersected with the
/// backbone mask, so a weight survives only if both levels keep it.
pub fn combined_masks_for_model<M: Model>(
    model: &M,
    backbone: &MaskSet,
    names: &[String],
    set: &PatternSet,
) -> MaskSet {
    let mut pattern_masks = MaskSet::new();
    for (name, weight) in model.parameters() {
        if !names.contains(&name) {
            continue;
        }
        // pattern assignment happens on the backbone-masked weight, exactly
        // as the offline search evaluated it
        let effective: Matrix = match backbone.get(&name) {
            Some(mask) => weight.zip(mask, |w, m| w * m),
            None => weight.clone(),
        };
        let lowered = PatternPrunedMatrix::from_dense(&effective, set);
        pattern_masks.insert(name, lowered.mask());
    }
    backbone.intersect(&pattern_masks)
}

/// Sparsity the combined mask set achieves over the listed parameters.
pub fn effective_sparsity(masks: &MaskSet) -> f64 {
    masks.overall_sparsity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{block_prune_model, BlockPruningConfig, PruneCriterion};
    use crate::pattern_space::{generate_pattern_space, PatternSpaceConfig};
    use rt3_transformer::{TransformerConfig, TransformerLm};

    fn setup() -> (TransformerLm, MaskSet, PatternSet) {
        let model = TransformerLm::new(TransformerConfig::tiny(32), 11);
        let backbone = block_prune_model(
            &model,
            &BlockPruningConfig {
                num_blocks: 2,
                criterion: PruneCriterion::Fraction(0.25),
            },
        );
        let config = PatternSpaceConfig {
            pattern_size: 4,
            patterns_per_set: 2,
            sample_fraction: 0.5,
            seed: 3,
        };
        let space = generate_pattern_space(&model, &backbone, &[0.5], &config);
        let set = space.candidates()[0].set.clone();
        (model, backbone, set)
    }

    #[test]
    fn pattern_masks_cover_only_requested_parameters() {
        let (model, _, set) = setup();
        let names = vec!["encoder.0.attn.wq".to_string()];
        let masks = pattern_masks_for_model(&model, &names, &set);
        assert_eq!(masks.len(), 1);
        assert!(masks.get("encoder.0.attn.wq").is_some());
        let sparsity = masks.overall_sparsity();
        assert!((sparsity - 0.5).abs() < 0.15, "sparsity {}", sparsity);
    }

    #[test]
    fn combined_masks_are_at_least_as_sparse_as_each_level() {
        let (model, backbone, set) = setup();
        let names = model.prunable_parameter_names();
        let combined = combined_masks_for_model(&model, &backbone, &names, &set);
        let pattern_only = pattern_masks_for_model(&model, &names, &set);
        assert!(combined.overall_sparsity() >= backbone.overall_sparsity() - 1e-9);
        assert!(combined.overall_sparsity() >= pattern_only.overall_sparsity() - 1e-9);
    }

    #[test]
    fn combined_masks_keep_only_positions_kept_by_both() {
        let (model, backbone, set) = setup();
        let names = vec!["encoder.0.ffn.w1".to_string()];
        let combined = combined_masks_for_model(&model, &backbone, &names, &set);
        let cm = combined.get("encoder.0.ffn.w1").unwrap();
        let bm = backbone.get("encoder.0.ffn.w1").unwrap();
        for (c, b) in cm.as_slice().iter().zip(bm.as_slice()) {
            if *c != 0.0 {
                assert_ne!(*b, 0.0, "combined mask kept a position the backbone pruned");
            }
        }
    }
}
