//! Level-1 block-structured pruning (BP) — Algorithm 1 of the paper.
//!
//! The weight matrix is divided into row-wise blocks; within each block the
//! l2 norm of every column is computed and columns falling below a threshold
//! (or the lowest-norm fraction) are removed. The result is expressed as a
//! binary [`MaskSet`] over the model's prunable parameters, so it can be
//! fine-tuned with masked training and later frozen into the backbone model.

use rand::seq::SliceRandom;
use rand::Rng;
use rt3_sparse::BlockPartition;
use rt3_tensor::Matrix;
use rt3_transformer::{MaskSet, Model};

/// How columns are selected for removal inside each block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PruneCriterion {
    /// Remove every column whose in-block l2 norm is below this threshold
    /// (the paper's "pre-set threshold" variant).
    Threshold(f32),
    /// Remove the fraction of columns with the smallest in-block l2 norm
    /// (the paper's "percentile" variant); value in `[0, 1)`.
    Fraction(f64),
}

/// Configuration of the Level-1 block-structured pruning pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockPruningConfig {
    /// Number of row-wise blocks each weight matrix is divided into.
    pub num_blocks: usize,
    /// Column-removal criterion.
    pub criterion: PruneCriterion,
}

impl Default for BlockPruningConfig {
    fn default() -> Self {
        Self {
            num_blocks: 4,
            criterion: PruneCriterion::Fraction(0.5),
        }
    }
}

impl BlockPruningConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_blocks == 0 {
            return Err("num_blocks must be positive".into());
        }
        match self.criterion {
            PruneCriterion::Threshold(t) if !(t.is_finite() && t >= 0.0) => {
                Err("threshold must be a non-negative finite number".into())
            }
            PruneCriterion::Fraction(f) if !(0.0..1.0).contains(&f) => {
                Err("fraction must be in [0, 1)".into())
            }
            _ => Ok(()),
        }
    }
}

/// Algorithm 1: produces the binary keep-mask for one weight matrix.
///
/// The matrix is split into `num_blocks` row blocks (clamped to the row
/// count); inside each block whole columns are pruned by the configured
/// criterion.
///
/// # Panics
///
/// Panics if the configuration is invalid.
///
/// # Examples
///
/// ```
/// use rt3_pruning::{block_prune_matrix, BlockPruningConfig, PruneCriterion};
/// use rt3_tensor::Matrix;
///
/// let w = Matrix::from_rows(&[vec![5.0, 0.1], vec![5.0, 0.1]]);
/// let cfg = BlockPruningConfig { num_blocks: 1, criterion: PruneCriterion::Fraction(0.5) };
/// let mask = block_prune_matrix(&w, &cfg);
/// assert_eq!(mask.col(0), vec![1.0, 1.0]);
/// assert_eq!(mask.col(1), vec![0.0, 0.0]);
/// ```
pub fn block_prune_matrix(weight: &Matrix, config: &BlockPruningConfig) -> Matrix {
    config
        .validate()
        .expect("invalid block pruning configuration");
    let (rows, cols) = weight.shape();
    let blocks = config.num_blocks.min(rows).max(1);
    let partition = BlockPartition::even(rows, blocks);
    let mut mask = Matrix::zeros(rows, cols);
    let mut norms = vec![0.0; cols];
    let mut order = Vec::with_capacity(cols);
    let mut keep = vec![true; cols];
    for &(start, end) in partition.ranges() {
        column_norms_into(&mut norms, weight, start, end);
        match config.criterion {
            PruneCriterion::Threshold(t) => {
                for (k, &n) in keep.iter_mut().zip(&norms) {
                    *k = n >= t;
                }
            }
            PruneCriterion::Fraction(f) => {
                let prune_count = ((cols as f64) * f).floor() as usize;
                order.clear();
                order.extend(0..cols);
                order.sort_by(|&a, &b| {
                    norms[a]
                        .partial_cmp(&norms[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                keep.fill(true);
                for &c in order.iter().take(prune_count) {
                    keep[c] = false;
                }
            }
        }
        for r in start..end {
            for (m, &k) in mask.row_mut(r).iter_mut().zip(&keep) {
                if k {
                    *m = 1.0;
                }
            }
        }
    }
    mask
}

/// The l2 norm of every column of rows `start..end` of `weight`, into
/// `norms`: one row-major pass adds each row's squares to its columns'
/// sums, so each column's squares are summed in row order, as
/// `Matrix::col_l2_norm` sums them.
fn column_norms_into(norms: &mut [f32], weight: &Matrix, start: usize, end: usize) {
    norms.fill(0.0);
    for r in start..end {
        for (n, &v) in norms.iter_mut().zip(weight.row(r)) {
            *n += v * v;
        }
    }
    for n in norms.iter_mut() {
        *n = n.sqrt();
    }
}

/// Random block pruning (the "rBP" ablation baseline): removes the same
/// number of columns per block as [`block_prune_matrix`] would under a
/// `Fraction` criterion, but chooses them uniformly at random.
///
/// # Panics
///
/// Panics if `prune_fraction` is outside `[0, 1)` or `num_blocks == 0`.
pub fn random_block_prune_matrix<R: Rng + ?Sized>(
    weight: &Matrix,
    num_blocks: usize,
    prune_fraction: f64,
    rng: &mut R,
) -> Matrix {
    assert!(num_blocks > 0, "num_blocks must be positive");
    assert!(
        (0.0..1.0).contains(&prune_fraction),
        "prune fraction must be in [0, 1)"
    );
    let blocks = num_blocks.min(weight.rows()).max(1);
    let partition = BlockPartition::even(weight.rows(), blocks);
    let mut mask = Matrix::zeros(weight.rows(), weight.cols());
    for &(start, end) in partition.ranges() {
        let prune_count = ((weight.cols() as f64) * prune_fraction).floor() as usize;
        let mut cols: Vec<usize> = (0..weight.cols()).collect();
        cols.shuffle(rng);
        let pruned: std::collections::HashSet<usize> = cols.into_iter().take(prune_count).collect();
        for r in start..end {
            for c in 0..weight.cols() {
                if !pruned.contains(&c) {
                    mask.set(r, c, 1.0);
                }
            }
        }
    }
    mask
}

/// Applies [`block_prune_matrix`] to every prunable parameter of a model and
/// returns the resulting mask set (the Level-1 output `C`).
pub fn block_prune_model<M: Model>(model: &M, config: &BlockPruningConfig) -> MaskSet {
    let prunable = model.prunable_parameter_names();
    let mut masks = MaskSet::new();
    for (name, weight) in model.parameters() {
        if prunable.contains(&name) {
            masks.insert(name, block_prune_matrix(weight, config));
        }
    }
    masks
}

/// Applies [`random_block_prune_matrix`] to every prunable parameter (the
/// "rBP only" ablation row).
pub fn random_block_prune_model<M: Model, R: Rng + ?Sized>(
    model: &M,
    num_blocks: usize,
    prune_fraction: f64,
    rng: &mut R,
) -> MaskSet {
    let prunable = model.prunable_parameter_names();
    let mut masks = MaskSet::new();
    for (name, weight) in model.parameters() {
        if prunable.contains(&name) {
            masks.insert(
                name,
                random_block_prune_matrix(weight, num_blocks, prune_fraction, rng),
            );
        }
    }
    masks
}

/// Reweighted group-lasso penalty used to regularise training towards
/// block-column sparsity: the sum over blocks and columns of the in-block
/// column l2 norms, each divided by its previous value (reweighting) so that
/// already-small groups are pushed harder towards zero.
///
/// `previous_norms` may be `None` on the first iteration (plain group lasso).
///
/// # Panics
///
/// Panics if `previous_norms` is provided with the wrong length.
pub fn reweighted_group_lasso_penalty(
    weight: &Matrix,
    num_blocks: usize,
    previous_norms: Option<&[f32]>,
) -> (f32, Vec<f32>) {
    let blocks = num_blocks.min(weight.rows()).max(1);
    let partition = BlockPartition::even(weight.rows(), blocks);
    let cols = weight.cols();
    let mut norms = vec![0.0; blocks * cols];
    for (k, &(start, end)) in partition.ranges().iter().enumerate() {
        column_norms_into(&mut norms[k * cols..(k + 1) * cols], weight, start, end);
    }
    if let Some(prev) = previous_norms {
        assert_eq!(prev.len(), norms.len(), "previous norm count mismatch");
    }
    let penalty = norms
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let weight = match previous_norms {
                Some(prev) => 1.0 / (prev[i] + 1e-6),
                None => 1.0,
            };
            weight * n
        })
        .sum();
    (penalty, norms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rt3_transformer::{TransformerConfig, TransformerLm};

    fn structured_weight() -> Matrix {
        // columns 0..4 strong in the top block, columns 4..8 strong in the
        // bottom block
        Matrix::from_fn(8, 8, |r, c| {
            let top = r < 4;
            let strong = if top { c < 4 } else { c >= 4 };
            if strong {
                1.0
            } else {
                0.01
            }
        })
    }

    #[test]
    fn fraction_criterion_prunes_weak_columns_per_block() {
        let w = structured_weight();
        let cfg = BlockPruningConfig {
            num_blocks: 2,
            criterion: PruneCriterion::Fraction(0.5),
        };
        let mask = block_prune_matrix(&w, &cfg);
        // top block keeps the first four columns
        for c in 0..4 {
            assert_eq!(mask.get(0, c), 1.0);
            assert_eq!(mask.get(0, c + 4), 0.0);
        }
        // bottom block keeps the last four columns
        for c in 4..8 {
            assert_eq!(mask.get(7, c), 1.0);
            assert_eq!(mask.get(7, c - 4), 0.0);
        }
        assert!((mask.sparsity() - 0.5).abs() < 1e-9);
    }

    /// Algorithm 1 as it was first written: copy each row block out and
    /// take every column's norm with `Matrix::col_l2_norm`.
    fn sliced_block_prune_matrix(weight: &Matrix, config: &BlockPruningConfig) -> Matrix {
        let blocks = config.num_blocks.min(weight.rows()).max(1);
        let partition = BlockPartition::even(weight.rows(), blocks);
        let mut mask = Matrix::zeros(weight.rows(), weight.cols());
        for &(start, end) in partition.ranges() {
            let block = weight.slice_rows(start, end);
            let norms: Vec<f32> = (0..block.cols()).map(|c| block.col_l2_norm(c)).collect();
            let keep: Vec<bool> = match config.criterion {
                PruneCriterion::Threshold(t) => norms.iter().map(|&n| n >= t).collect(),
                PruneCriterion::Fraction(f) => {
                    let prune_count = ((block.cols() as f64) * f).floor() as usize;
                    let mut order: Vec<usize> = (0..block.cols()).collect();
                    order.sort_by(|&a, &b| {
                        norms[a]
                            .partial_cmp(&norms[b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    let mut keep = vec![true; block.cols()];
                    for &c in order.iter().take(prune_count) {
                        keep[c] = false;
                    }
                    keep
                }
            };
            for r in start..end {
                for (c, &k) in keep.iter().enumerate() {
                    if k {
                        mask.set(r, c, 1.0);
                    }
                }
            }
        }
        mask
    }

    /// The one-pass column norms give the sliced `col_l2_norm` masks bit
    /// for bit: random weights, weights whose columns tie in norm (equal
    /// and sign-flipped columns, an all-zero column) so the stable sort's
    /// tie order decides, a threshold equal to a column's norm, 1-row
    /// blocks and more blocks than rows, under both criteria. The group
    /// lasso norms match `col_l2_norm` too.
    #[test]
    fn one_pass_norms_match_the_sliced_column_norms() {
        let mut rng = StdRng::seed_from_u64(9);
        let random = Matrix::xavier(13, 11, &mut rng);
        // 48 columns in four tied classes, more than a small-slice sort
        // takes in order
        let tied = Matrix::from_fn(9, 48, |r, c| match c % 4 {
            0 => 0.5 + r as f32 * 0.1,
            1 => -(0.5 + r as f32 * 0.1),
            2 => 0.0,
            _ => random.get(r, c % 11),
        });
        let tied_norm = tied.slice_rows(0, 3).col_l2_norm(0);
        for weight in [&random, &tied] {
            for num_blocks in [1, 3, weight.rows(), weight.rows() + 4] {
                for criterion in [
                    PruneCriterion::Fraction(0.0),
                    PruneCriterion::Fraction(0.5),
                    PruneCriterion::Fraction(0.9),
                    PruneCriterion::Threshold(0.3),
                    PruneCriterion::Threshold(tied_norm),
                ] {
                    let config = BlockPruningConfig {
                        num_blocks,
                        criterion,
                    };
                    let got = block_prune_matrix(weight, &config);
                    let want = sliced_block_prune_matrix(weight, &config);
                    assert_eq!(got, want, "{num_blocks} blocks, {criterion:?}");
                }
                let (_, norms) = reweighted_group_lasso_penalty(weight, num_blocks, None);
                let blocks = num_blocks.min(weight.rows());
                let partition = BlockPartition::even(weight.rows(), blocks);
                let want: Vec<u32> = partition
                    .ranges()
                    .iter()
                    .flat_map(|&(start, end)| {
                        let block = weight.slice_rows(start, end);
                        (0..block.cols())
                            .map(move |c| block.col_l2_norm(c).to_bits())
                            .collect::<Vec<_>>()
                    })
                    .collect();
                let got: Vec<u32> = norms.iter().map(|n| n.to_bits()).collect();
                assert_eq!(got, want, "{num_blocks} blocks");
            }
        }
    }

    #[test]
    fn threshold_criterion_matches_explicit_cutoff() {
        let w = structured_weight();
        let cfg = BlockPruningConfig {
            num_blocks: 2,
            criterion: PruneCriterion::Threshold(0.5),
        };
        let mask = block_prune_matrix(&w, &cfg);
        assert!((mask.sparsity() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn higher_fraction_gives_higher_sparsity() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Matrix::xavier(20, 30, &mut rng);
        let sparsities: Vec<f64> = [0.2, 0.5, 0.8]
            .iter()
            .map(|&f| {
                let cfg = BlockPruningConfig {
                    num_blocks: 4,
                    criterion: PruneCriterion::Fraction(f),
                };
                block_prune_matrix(&w, &cfg).sparsity()
            })
            .collect();
        assert!(sparsities[0] < sparsities[1] && sparsities[1] < sparsities[2]);
    }

    #[test]
    fn block_pruning_preserves_more_energy_than_random() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = Matrix::xavier(24, 24, &mut rng);
        let cfg = BlockPruningConfig {
            num_blocks: 4,
            criterion: PruneCriterion::Fraction(0.5),
        };
        let bp_mask = block_prune_matrix(&w, &cfg);
        let rbp_mask = random_block_prune_matrix(&w, 4, 0.5, &mut rng);
        let energy = |mask: &Matrix| {
            w.zip(mask, |v, m| v * m)
                .as_slice()
                .iter()
                .map(|x| x * x)
                .sum::<f32>()
        };
        assert!(
            energy(&bp_mask) > energy(&rbp_mask),
            "BP should preserve more weight energy than random pruning"
        );
        // both prune the same number of elements
        assert!((bp_mask.sparsity() - rbp_mask.sparsity()).abs() < 0.05);
    }

    #[test]
    fn model_level_pruning_covers_only_prunable_parameters() {
        let model = TransformerLm::new(TransformerConfig::tiny(32), 0);
        let cfg = BlockPruningConfig::default();
        let masks = block_prune_model(&model, &cfg);
        let prunable = model.prunable_parameter_names();
        assert_eq!(masks.len(), prunable.len());
        assert!(masks.get("token_embedding").is_none());
        assert!(masks.get("encoder.0.attn.wq").is_some());
        assert!(masks.overall_sparsity() > 0.3);
    }

    #[test]
    fn reweighted_penalty_pushes_small_groups_harder() {
        let w = structured_weight();
        let (p0, norms) = reweighted_group_lasso_penalty(&w, 2, None);
        let (p1, _) = reweighted_group_lasso_penalty(&w, 2, Some(&norms));
        assert!(p0 > 0.0);
        // reweighting divides by previous norms, so small groups dominate and
        // the penalty value changes
        assert!(p1 > 0.0);
        assert_ne!(p0, p1);
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        assert!(BlockPruningConfig {
            num_blocks: 0,
            criterion: PruneCriterion::Fraction(0.5)
        }
        .validate()
        .is_err());
        assert!(BlockPruningConfig {
            num_blocks: 2,
            criterion: PruneCriterion::Fraction(1.0)
        }
        .validate()
        .is_err());
        assert!(BlockPruningConfig {
            num_blocks: 2,
            criterion: PruneCriterion::Threshold(-1.0)
        }
        .validate()
        .is_err());
    }
}
