//! Applying a pattern set to a model: lowers a chosen pattern set over the
//! backbone-masked prunable weights ([`PatternScorer`]) and builds the
//! per-parameter masks it induces, composed with the fixed Level-1
//! backbone mask.

use rt3_sparse::{Backend, BlockSquares, CompiledSet, MaskBits, PackLayout, PatternSet};
use rt3_tensor::Matrix;
use rt3_transformer::{MaskSet, Model};
use std::sync::Arc;

/// One prunable weight resolved once against the backbone: its name, the
/// weight and its backbone mask, if any.
#[derive(Debug, Clone)]
pub struct PrunableWeight<'a> {
    /// Parameter name.
    pub name: String,
    /// The model's weight.
    pub weight: &'a Matrix,
    /// The weight's backbone (Level-1) mask.
    pub backbone: Option<&'a Matrix>,
}

/// Resolves every parameter of `model` listed in `names`, in model
/// parameter order, with its `backbone` mask. Callers that lower many
/// pattern sets over the same weights resolve them once and pass the
/// result to [`PatternScorer::new`] and [`combined_masks`].
pub fn resolve_prunable<'a, M: Model>(
    model: &'a M,
    backbone: &'a MaskSet,
    names: &[String],
) -> Vec<PrunableWeight<'a>> {
    model
        .parameters()
        .into_iter()
        .filter(|(name, _)| names.contains(name))
        .map(|(name, weight)| {
            let backbone = backbone.get(&name);
            PrunableWeight {
                name,
                weight,
                backbone,
            }
        })
        .collect()
}

/// Builds the combined Level-1 + Level-2 mask set: every `psize x psize`
/// block of each listed parameter gets the pattern from `set` preserving
/// the largest l2 norm of the *backbone-masked* weight (the paper's
/// block→pattern assignment rule), and a weight survives only if both
/// levels keep it. Parameters not in `names` keep their backbone mask, or
/// stay unmasked.
pub fn combined_masks_for_model<M: Model>(
    model: &M,
    backbone: &MaskSet,
    names: &[String],
    set: &PatternSet,
) -> MaskSet {
    let weights = resolve_prunable(model, backbone, names);
    let layouts = pattern_layouts(&block_squares(&weights, set.size()), set);
    combined_masks(&weights, &layouts, backbone)
}

/// One pattern set lowered over a list of prunable weights.
#[derive(Debug, Clone)]
pub struct Lowering {
    /// One pack layout per weight, in the weights' order, all sharing one
    /// compiled copy of the set (of the restricted patterns, from
    /// [`PatternScorer::lower_restricted`]).
    pub layouts: Vec<Arc<PackLayout>>,
    /// Overall sparsity of the combined (backbone ∧ pattern) masks; equals
    /// `MaskSet::overall_sparsity` of [`combined_masks`] bit for bit.
    pub sparsity: f64,
}

/// The lowering rule of RT3's Level 2, shared by the offline search and the
/// model bank: what lowering a pattern set over a fixed list of
/// backbone-masked prunable weights needs that does not depend on the set.
/// Per weight it holds the squares of the backbone-masked weight, laid out
/// for scoring ([`BlockSquares`]), and the backbone mask as per-block
/// bitmasks ([`MaskBits`]); it also holds what the combined masks cover
/// besides the patterns' kept positions. [`Self::lower`] then scores every
/// block of every weight against a set and counts the kept positions, and
/// builds no mask.
#[derive(Debug)]
pub struct PatternScorer {
    squares: Vec<BlockSquares>,
    mask_bits: Vec<MaskBits>,
    coverage: MaskCoverage,
}

impl PatternScorer {
    /// The scorer of pattern sets of size `psize` over `weights`, resolved
    /// by [`resolve_prunable`] against `backbone`.
    pub fn new(weights: &[PrunableWeight<'_>], backbone: &MaskSet, psize: usize) -> Self {
        Self {
            squares: block_squares(weights, psize),
            mask_bits: weights
                .iter()
                .map(|w| MaskBits::new(w.weight.shape(), w.backbone, psize))
                .collect(),
            coverage: MaskCoverage::new(
                weights.iter().map(|w| (w.name.as_str(), w.weight.len())),
                backbone,
            ),
        }
    }

    /// Lowers `set`: one pack layout per weight and the overall sparsity,
    /// from the layouts' kept positions bit-counted against the backbone
    /// masks ([`MaskBits::kept`]).
    ///
    /// # Panics
    ///
    /// Panics if `set`'s pattern size is not the scorer's.
    pub fn lower(&self, set: &PatternSet) -> Lowering {
        let layouts = pattern_layouts(&self.squares, set);
        let kept = self.mask_bits.iter().zip(&layouts);
        let sparsity = self
            .coverage
            .sparsity(kept.map(|(bits, layout)| bits.kept(layout)).sum());
        Lowering { layouts, sparsity }
    }

    /// [`Self::lower`] with every layout narrowed to the positions its
    /// weight's backbone mask keeps too ([`PackLayout::restrict`]), all
    /// sharing one compiled set of the restricted patterns: the layouts a
    /// plan packs, which store and multiply only the values both levels
    /// keep. The sparsity is [`Self::lower`]'s.
    ///
    /// # Panics
    ///
    /// Same as [`Self::lower`], and if the scorer holds no weight.
    pub fn lower_restricted(&self, set: &PatternSet) -> Lowering {
        let Lowering { layouts, sparsity } = self.lower(set);
        let pairs = layouts.iter().map(|layout| &**layout).zip(&self.mask_bits);
        Lowering {
            layouts: PackLayout::restrict(pairs)
                .into_iter()
                .map(Arc::new)
                .collect(),
            sparsity,
        }
    }
}

/// The squares of each backbone-masked weight, laid out for scoring
/// pattern sets of size `psize`, in `weights` order.
fn block_squares(weights: &[PrunableWeight<'_>], psize: usize) -> Vec<BlockSquares> {
    let backend = Backend::detect();
    weights
        .iter()
        .map(|w| BlockSquares::new(w.weight, w.backbone, psize, backend))
        .collect()
}

/// Scores every table of `squares` against `set`: one pack layout per
/// weight, all sharing one compiled copy of the set.
///
/// # Panics
///
/// Panics if a table was laid out for another pattern size than the
/// set's.
fn pattern_layouts(squares: &[BlockSquares], set: &PatternSet) -> Vec<Arc<PackLayout>> {
    let set = Arc::new(CompiledSet::new(set));
    squares
        .iter()
        .map(|squares| Arc::new(PackLayout::assign(squares, &set)))
        .collect()
}

/// The combined masks of [`combined_masks_for_model`] over weights resolved
/// by [`resolve_prunable`] against the same `backbone`, from their
/// [`Lowering::layouts`] (in `weights` order). Each weight's layout is read
/// back as a keep-mask (backbone ∧ pattern), with no weight clone and no
/// value gather; the backbone's other entries are copied as they are.
///
/// # Panics
///
/// Panics if `layouts` does not hold one layout per weight, shaped like it.
pub fn combined_masks(
    weights: &[PrunableWeight<'_>],
    layouts: &[Arc<PackLayout>],
    backbone: &MaskSet,
) -> MaskSet {
    assert_eq!(weights.len(), layouts.len(), "one layout per weight");
    let mut masks: MaskSet = weights
        .iter()
        .zip(layouts)
        .map(|(w, layout)| (w.name.clone(), layout.keep_mask(w.backbone)))
        .collect();
    for (name, mask) in backbone.iter() {
        if masks.get(name).is_none() {
            masks.insert(name, mask.clone());
        }
    }
    masks
}

/// The element counts of a combined (backbone ∧ pattern) mask set that do
/// not depend on the pattern set: the elements it covers — every patterned
/// weight plus every backbone mask of another parameter — and the
/// non-zeros of those other backbone masks, which no pattern touches.
/// With the patterned weights' kept count (the sum of [`MaskBits::kept`]
/// over their layouts) it gives the set's overall sparsity without
/// building it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MaskCoverage {
    covered: usize,
    unpatterned_kept: usize,
}

impl MaskCoverage {
    /// The coverage of the combined masks of the `patterned` weights, given
    /// as `(name, elements)`, over `backbone`.
    fn new<'n>(patterned: impl IntoIterator<Item = (&'n str, usize)>, backbone: &MaskSet) -> Self {
        let mut names = Vec::new();
        let mut covered = 0;
        for (name, elements) in patterned {
            names.push(name);
            covered += elements;
        }
        let mut unpatterned_kept = 0;
        for (_, mask) in backbone.iter().filter(|(name, _)| !names.contains(name)) {
            covered += mask.len();
            unpatterned_kept += mask.count_nonzero();
        }
        Self {
            covered,
            unpatterned_kept,
        }
    }

    /// Overall sparsity of the combined masks whose patterned weights keep
    /// `patterned_kept` positions: pruned over covered elements, both
    /// integers until the one division, so it equals
    /// `MaskSet::overall_sparsity` of the built masks bit for bit.
    fn sparsity(&self, patterned_kept: usize) -> f64 {
        if self.covered == 0 {
            return 0.0;
        }
        let kept = patterned_kept + self.unpatterned_kept;
        (self.covered - kept) as f64 / self.covered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{block_prune_model, BlockPruningConfig, PruneCriterion};
    use crate::pattern_space::{generate_pattern_space, PatternSpaceConfig};
    use rt3_sparse::MaskBits;
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
        let masks = combined_masks_for_model(&model, &MaskSet::new(), &names, &set);
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
        let pattern_only = combined_masks_for_model(&model, &MaskSet::new(), &names, &set);
        assert!(combined.overall_sparsity() >= backbone.overall_sparsity() - 1e-9);
        assert!(combined.overall_sparsity() >= pattern_only.overall_sparsity() - 1e-9);
    }

    /// The lowering `combined_masks_for_model` replaced: clone each
    /// backbone-masked weight, compile it into a full pattern-pruned
    /// matrix, read its kept positions back and intersect with the
    /// backbone.
    fn clone_and_compile_masks(
        model: &TransformerLm,
        backbone: &MaskSet,
        names: &[String],
        set: &PatternSet,
    ) -> MaskSet {
        let mut pattern_masks = MaskSet::new();
        for (name, weight) in model.parameters() {
            if !names.contains(&name) {
                continue;
            }
            let effective = match backbone.get(&name) {
                Some(mask) => weight.zip(mask, |w, m| w * m),
                None => weight.clone(),
            };
            let lowered = rt3_sparse::PatternPrunedMatrix::from_dense(&effective, set);
            pattern_masks.insert(name, lowered.mask());
        }
        backbone.intersect(&pattern_masks)
    }

    fn bits(masks: &MaskSet) -> Vec<(String, Vec<u32>)> {
        masks
            .iter()
            .map(|(name, m)| {
                (
                    name.to_string(),
                    m.as_slice().iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect()
    }

    /// Mask-only lowering equals the clone → compile → mask → intersect
    /// path bit for bit, sparsity included, both through
    /// `combined_masks_for_model` and through one set of square tables
    /// built before any candidate and shared by all of them (the search's
    /// path), and the layouts' bit-counted kept positions give that
    /// sparsity through `MaskCoverage` without the masks: over every
    /// prunable weight and over a subset of them (so
    /// backbone entries fall outside `names`), with the backbone, with an
    /// empty one, and with a backbone entry no model parameter has.
    /// Pattern size 3 leaves edge blocks.
    #[test]
    fn mask_only_lowering_matches_clone_and_compile() {
        let model = TransformerLm::new(TransformerConfig::tiny(32), 11);
        let mut backbone = block_prune_model(&model, &BlockPruningConfig::default());
        backbone.insert(
            "not.a.parameter",
            Matrix::from_vec(1, 3, vec![1.0, 0.0, 2.0]),
        );
        let all = model.prunable_parameter_names();
        let subset: Vec<String> = all.iter().step_by(2).cloned().collect();
        for pattern_size in [3, 4, 8] {
            let config = PatternSpaceConfig {
                pattern_size,
                patterns_per_set: 3,
                sample_fraction: 0.5,
                seed: 5,
            };
            let space = generate_pattern_space(&model, &backbone, &[0.3, 0.7], &config);
            for backbone in [&backbone, &MaskSet::new()] {
                for names in [&all, &subset] {
                    let weights = resolve_prunable(&model, backbone, names);
                    let squares = block_squares(&weights, pattern_size);
                    let coverage = MaskCoverage::new(
                        weights.iter().map(|w| (w.name.as_str(), w.weight.len())),
                        backbone,
                    );
                    for candidate in space.candidates() {
                        let old = clone_and_compile_masks(&model, backbone, names, &candidate.set);
                        let layouts = pattern_layouts(&squares, &candidate.set);
                        for new in [
                            combined_masks_for_model(&model, backbone, names, &candidate.set),
                            combined_masks(&weights, &layouts, backbone),
                        ] {
                            assert_eq!(bits(&new), bits(&old), "psize {pattern_size}");
                            assert_eq!(
                                new.overall_sparsity().to_bits(),
                                old.overall_sparsity().to_bits()
                            );
                        }
                        let kept = weights
                            .iter()
                            .zip(&layouts)
                            .map(|(w, l)| {
                                MaskBits::new(w.weight.shape(), w.backbone, pattern_size).kept(l)
                            })
                            .sum();
                        assert_eq!(
                            coverage.sparsity(kept).to_bits(),
                            old.overall_sparsity().to_bits()
                        );
                    }
                }
            }
        }
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
