//! Component ③ of RT3: heuristic generation of the pattern-pruning search
//! space from the Level-1 backbone model.
//!
//! The paper's construction: divide the backbone `C` into `psize x psize`
//! blocks, sample half of them, point-wise add their absolute values to get a
//! per-position importance map, then for every target sparsity keep only the
//! most important positions. Repeating the sampling `m` times yields `m`
//! representative patterns per sparsity — a *candidate pattern set*. The RL
//! controller later picks one candidate set per V/F level.

use crate::pattern_apply::{resolve_prunable, PrunableWeight};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rt3_sparse::{PatternMask, PatternSet};
use rt3_tensor::Matrix;
use rt3_transformer::{MaskSet, Model};

/// Configuration of the pattern search-space generator.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternSpaceConfig {
    /// Pattern side length (the paper uses 100; experiments here use 4–10).
    pub pattern_size: usize,
    /// Number of representative patterns per candidate set (`m`).
    pub patterns_per_set: usize,
    /// Fraction of blocks sampled when building each importance map (the
    /// paper samples half).
    pub sample_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PatternSpaceConfig {
    fn default() -> Self {
        Self {
            pattern_size: 8,
            patterns_per_set: 4,
            sample_fraction: 0.5,
            seed: 0xbeef,
        }
    }
}

impl PatternSpaceConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.pattern_size == 0 {
            return Err("pattern_size must be positive".into());
        }
        if self.patterns_per_set == 0 {
            return Err("patterns_per_set must be positive".into());
        }
        if !(0.0 < self.sample_fraction && self.sample_fraction <= 1.0) {
            return Err("sample_fraction must be in (0, 1]".into());
        }
        Ok(())
    }
}

/// One candidate pattern set with its target sparsity.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePatternSet {
    /// Target sparsity of every pattern in the set.
    pub sparsity: f64,
    /// The patterns.
    pub set: PatternSet,
}

/// The shrunken Level-2 search space: one candidate set per explored sparsity
/// ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternSpace {
    candidates: Vec<CandidatePatternSet>,
    pattern_size: usize,
}

impl PatternSpace {
    /// The candidate sets, ordered by ascending sparsity.
    pub fn candidates(&self) -> &[CandidatePatternSet] {
        &self.candidates
    }

    /// Number of candidate sets.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Returns `true` if the space holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Pattern side length shared by all candidates.
    pub fn pattern_size(&self) -> usize {
        self.pattern_size
    }
}

/// Builds the per-position importance map by sampling blocks of the
/// backbone-masked prunable `weights` (resolved by [`resolve_prunable`],
/// once for all maps of a space) and accumulating their absolute values
/// (point-wise addition, as in the paper).
///
/// Block origins are `(weight index, row, column)` triples, so the shuffle
/// draws and the accumulation order depend only on the block grid.
pub fn importance_map(
    weights: &[PrunableWeight<'_>],
    config: &PatternSpaceConfig,
    rng: &mut StdRng,
) -> Matrix {
    let psize = config.pattern_size;
    let mut importance = Matrix::zeros(psize, psize);
    // collect all block origins across prunable parameters
    let mut origins: Vec<(usize, usize, usize)> = Vec::new();
    for (k, weight) in weights.iter().map(|w| w.weight).enumerate() {
        let grid_rows = weight.rows() / psize;
        let grid_cols = weight.cols() / psize;
        for br in 0..grid_rows {
            for bc in 0..grid_cols {
                origins.push((k, br * psize, bc * psize));
            }
        }
    }
    if origins.is_empty() {
        // weights smaller than one pattern: fall back to accumulating the
        // top-left corner of every prunable weight
        for weight in weights.iter().map(|w| w.weight) {
            let block = weight.block(0, 0, psize, psize);
            for i in 0..block.rows() {
                for j in 0..block.cols() {
                    let v = importance.get(i, j) + block.get(i, j).abs();
                    importance.set(i, j, v);
                }
            }
        }
        return importance;
    }
    origins.shuffle(rng);
    let sample = ((origins.len() as f64) * config.sample_fraction).ceil() as usize;
    for (k, r0, c0) in origins.into_iter().take(sample.max(1)) {
        let (weight, mask) = (weights[k].weight, weights[k].backbone);
        for i in 0..psize {
            let w = &weight.row(r0 + i)[c0..c0 + psize];
            let kept = mask.map(|m| &m.row(r0 + i)[c0..c0 + psize]);
            for (j, acc) in importance.row_mut(i).iter_mut().enumerate() {
                *acc += (w[j] * kept.map_or(1.0, |m| m[j])).abs();
            }
        }
    }
    importance
}

/// Generates the shrunken pattern search space: for every target sparsity, a
/// candidate set of `patterns_per_set` importance-guided patterns.
///
/// # Panics
///
/// Panics if the configuration is invalid or `sparsities` is empty.
pub fn generate_pattern_space<M: Model>(
    model: &M,
    backbone: &MaskSet,
    sparsities: &[f64],
    config: &PatternSpaceConfig,
) -> PatternSpace {
    config
        .validate()
        .expect("invalid pattern space configuration");
    assert!(
        !sparsities.is_empty(),
        "at least one target sparsity is required"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let weights = resolve_prunable(model, backbone, &model.prunable_parameter_names());
    let mut sorted: Vec<f64> = sparsities.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    // a fresh block sample per pattern gives m distinct but correlated
    // importance-guided patterns; every target sparsity is carved out of the
    // SAME m maps, so the patterns of a sparser candidate are subsets of the
    // denser candidate's patterns and combined sparsity grows monotonically
    // with the target (which keeps predicted latency monotone as well)
    let maps: Vec<Matrix> = (0..config.patterns_per_set)
        .map(|_| importance_map(&weights, config, &mut rng))
        .collect();
    let mut candidates = Vec::with_capacity(sorted.len());
    for &sparsity in &sorted {
        let patterns = maps
            .iter()
            .map(|importance| PatternMask::from_importance(importance, sparsity))
            .collect();
        let set = PatternSet::new(patterns).expect("patterns_per_set is positive");
        candidates.push(CandidatePatternSet { sparsity, set });
    }
    PatternSpace {
        candidates,
        pattern_size: config.pattern_size,
    }
}

/// Generates a purely random pattern set (the "rPP" ablation baseline).
///
/// # Panics
///
/// Panics if `patterns_per_set == 0`.
pub fn random_pattern_set<R: Rng + ?Sized>(
    pattern_size: usize,
    sparsity: f64,
    patterns_per_set: usize,
    rng: &mut R,
) -> PatternSet {
    assert!(patterns_per_set > 0, "patterns_per_set must be positive");
    let patterns = (0..patterns_per_set)
        .map(|_| PatternMask::random(pattern_size, sparsity, rng))
        .collect();
    PatternSet::new(patterns).expect("patterns_per_set is positive")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{block_prune_model, BlockPruningConfig};
    use rt3_transformer::{TransformerConfig, TransformerLm};

    fn backbone() -> (TransformerLm, MaskSet) {
        let model = TransformerLm::new(TransformerConfig::tiny(32), 3);
        let masks = block_prune_model(&model, &BlockPruningConfig::default());
        (model, masks)
    }

    #[test]
    fn importance_map_has_pattern_shape_and_nonnegative_entries() {
        let (model, masks) = backbone();
        let config = PatternSpaceConfig {
            pattern_size: 4,
            ..PatternSpaceConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let weights = resolve_prunable(&model, &masks, &model.prunable_parameter_names());
        let imp = importance_map(&weights, &config, &mut rng);
        assert_eq!(imp.shape(), (4, 4));
        assert!(imp.as_slice().iter().all(|&x| x >= 0.0));
        assert!(imp.sum() > 0.0);
    }

    /// The per-block lookup `importance_map` replaced: every sampled block
    /// finds its weight by name through `Model::parameter` and its mask
    /// through `MaskSet::get`.
    fn per_block_lookup_importance_map<M: Model>(
        model: &M,
        backbone: &MaskSet,
        config: &PatternSpaceConfig,
        rng: &mut StdRng,
    ) -> Matrix {
        let psize = config.pattern_size;
        let mut importance = Matrix::zeros(psize, psize);
        let prunable = model.prunable_parameter_names();
        let mut origins: Vec<(String, usize, usize)> = Vec::new();
        for (name, weight) in model.parameters() {
            if !prunable.contains(&name) {
                continue;
            }
            for br in 0..weight.rows() / psize {
                for bc in 0..weight.cols() / psize {
                    origins.push((name.clone(), br * psize, bc * psize));
                }
            }
        }
        if origins.is_empty() {
            for (name, weight) in model.parameters() {
                if !prunable.contains(&name) {
                    continue;
                }
                let block = weight.block(0, 0, psize, psize);
                for i in 0..block.rows() {
                    for j in 0..block.cols() {
                        let v = importance.get(i, j) + block.get(i, j).abs();
                        importance.set(i, j, v);
                    }
                }
            }
            return importance;
        }
        origins.shuffle(rng);
        let sample = ((origins.len() as f64) * config.sample_fraction).ceil() as usize;
        for (name, r0, c0) in origins.into_iter().take(sample.max(1)) {
            let weight = model.parameter(&name).unwrap();
            let mask = backbone.get(&name);
            for i in 0..psize {
                for j in 0..psize {
                    let w = weight.get(r0 + i, c0 + j);
                    let kept = mask.map_or(1.0, |m| m.get(r0 + i, c0 + j));
                    let v = importance.get(i, j) + (w * kept).abs();
                    importance.set(i, j, v);
                }
            }
        }
        importance
    }

    #[test]
    fn importance_map_matches_the_per_block_lookup_bit_for_bit() {
        let (model, full) = backbone();
        // leave the first prunable weight unmasked so both the masked and
        // the unmasked accumulation run
        let prunable = model.prunable_parameter_names();
        let mut masks = MaskSet::new();
        for (name, mask) in full.iter().filter(|(name, _)| *name != prunable[0]) {
            masks.insert(name, mask.clone());
        }
        assert!(masks.get(&prunable[0]).is_none());
        assert!(masks.get(&prunable[1]).is_some());
        // pattern side 64 exceeds every weight of the tiny model: the
        // top-left-corner fallback
        for (pattern_size, sample_fraction) in [(4, 0.5), (4, 1.0), (64, 0.5)] {
            for seed in 0..3 {
                let config = PatternSpaceConfig {
                    pattern_size,
                    patterns_per_set: 1,
                    sample_fraction,
                    seed,
                };
                let mut rng = StdRng::seed_from_u64(seed);
                let mut reference_rng = StdRng::seed_from_u64(seed);
                let weights = resolve_prunable(&model, &masks, &model.prunable_parameter_names());
                let got = importance_map(&weights, &config, &mut rng);
                let want =
                    per_block_lookup_importance_map(&model, &masks, &config, &mut reference_rng);
                assert_eq!(got.shape(), want.shape());
                for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "psize {pattern_size} seed {seed}");
                }
                // the same number of RNG draws was consumed
                assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());
            }
        }
    }

    #[test]
    fn generated_space_is_sorted_and_respects_sparsities() {
        let (model, masks) = backbone();
        let config = PatternSpaceConfig {
            pattern_size: 4,
            patterns_per_set: 3,
            sample_fraction: 0.5,
            seed: 9,
        };
        let space = generate_pattern_space(&model, &masks, &[0.75, 0.25, 0.5], &config);
        assert_eq!(space.len(), 3);
        let sparsities: Vec<f64> = space.candidates().iter().map(|c| c.sparsity).collect();
        assert_eq!(sparsities, vec![0.25, 0.5, 0.75]);
        for c in space.candidates() {
            assert_eq!(c.set.len(), 3);
            assert!((c.set.mean_sparsity() - c.sparsity).abs() < 0.1);
        }
    }

    #[test]
    fn importance_guided_patterns_share_structure_across_sparsities() {
        // Fig. 4 observation: patterns searched for different V/F levels keep
        // the same important positions.
        let (model, masks) = backbone();
        let config = PatternSpaceConfig {
            pattern_size: 4,
            patterns_per_set: 1,
            sample_fraction: 1.0,
            seed: 4,
        };
        let space = generate_pattern_space(&model, &masks, &[0.25, 0.75], &config);
        let sparse = &space.candidates()[1].set.patterns()[0];
        let dense = &space.candidates()[0].set.patterns()[0];
        // the sparser pattern's kept positions should (almost) all be kept in
        // the denser pattern too: containment, not symmetric overlap
        let contained = sparse
            .kept_positions()
            .iter()
            .filter(|&&(r, c)| dense.is_kept(r, c))
            .count();
        let containment = contained as f64 / sparse.ones() as f64;
        assert!(containment > 0.9, "containment {containment}");
    }

    #[test]
    fn random_pattern_set_matches_requested_sparsity() {
        let mut rng = StdRng::seed_from_u64(5);
        let set = random_pattern_set(6, 0.5, 4, &mut rng);
        assert_eq!(set.len(), 4);
        assert!((set.mean_sparsity() - 0.5).abs() < 0.05);
    }

    #[test]
    fn config_validation() {
        assert!(PatternSpaceConfig::default().validate().is_ok());
        assert!(PatternSpaceConfig {
            pattern_size: 0,
            ..PatternSpaceConfig::default()
        }
        .validate()
        .is_err());
        assert!(PatternSpaceConfig {
            sample_fraction: 0.0,
            ..PatternSpaceConfig::default()
        }
        .validate()
        .is_err());
    }
}
