//! Pattern pruning (PP) primitives: pattern masks and pattern sets.
//!
//! RT3's Level-2 software reconfiguration assigns, to every `psize x psize`
//! block of a weight matrix, one pattern chosen from a small *pattern set*.
//! Switching the active pattern set at run time changes the model's sparsity
//! (and therefore its latency) without touching the backbone weights — that
//! is what makes the switch lightweight enough to track DVFS. The matrix
//! format a set prunes into is [`crate::PatternPrunedMatrix`].

use rand::seq::SliceRandom;
use rand::Rng;
use rt3_tensor::Matrix;

/// A square binary mask applied to one block of a weight matrix.
///
/// The paper uses `psize = 100`; tests and examples use smaller sizes.
///
/// # Examples
///
/// ```
/// use rt3_sparse::PatternMask;
/// use rt3_tensor::Matrix;
///
/// let importance = Matrix::from_rows(&[vec![5.0, 1.0], vec![0.5, 4.0]]);
/// let p = PatternMask::from_importance(&importance, 0.5);
/// assert_eq!(p.ones(), 2);
/// assert!(p.is_kept(0, 0) && p.is_kept(1, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternMask {
    size: usize,
    bits: Vec<bool>,
}

impl PatternMask {
    /// Creates a mask from explicit bits (`true` = keep).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != size * size`.
    pub fn new(size: usize, bits: Vec<bool>) -> Self {
        assert_eq!(bits.len(), size * size, "pattern bit count mismatch");
        Self { size, bits }
    }

    /// The all-ones (dense) pattern.
    pub fn dense(size: usize) -> Self {
        Self {
            size,
            bits: vec![true; size * size],
        }
    }

    /// Builds a pattern that keeps the `(1 - sparsity)` most important
    /// positions of `importance` (the paper's component ③: positions with
    /// the largest accumulated block weight survive).
    ///
    /// # Panics
    ///
    /// Panics if `importance` is not square or `sparsity` is outside `[0, 1]`.
    pub fn from_importance(importance: &Matrix, sparsity: f64) -> Self {
        assert_eq!(
            importance.rows(),
            importance.cols(),
            "importance map must be square"
        );
        assert!(
            (0.0..=1.0).contains(&sparsity),
            "sparsity must be in [0, 1]"
        );
        let size = importance.rows();
        let total = size * size;
        let keep = ((1.0 - sparsity) * total as f64).round() as usize;
        let mut order: Vec<usize> = (0..total).collect();
        order.sort_by(|&a, &b| {
            let va = importance.as_slice()[a].abs();
            let vb = importance.as_slice()[b].abs();
            vb.partial_cmp(&va).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut bits = vec![false; total];
        for &idx in order.iter().take(keep) {
            bits[idx] = true;
        }
        Self { size, bits }
    }

    /// Builds a uniformly random pattern with the requested sparsity (the
    /// "rPP" ablation baseline).
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` is outside `[0, 1]`.
    pub fn random<R: Rng + ?Sized>(size: usize, sparsity: f64, rng: &mut R) -> Self {
        assert!(
            (0.0..=1.0).contains(&sparsity),
            "sparsity must be in [0, 1]"
        );
        let total = size * size;
        let keep = ((1.0 - sparsity) * total as f64).round() as usize;
        let mut idx: Vec<usize> = (0..total).collect();
        idx.shuffle(rng);
        let mut bits = vec![false; total];
        for &i in idx.iter().take(keep) {
            bits[i] = true;
        }
        Self { size, bits }
    }

    /// Pattern side length.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of kept positions.
    pub fn ones(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Fraction of positions that are pruned.
    pub fn sparsity(&self) -> f64 {
        if self.bits.is_empty() {
            return 0.0;
        }
        1.0 - self.ones() as f64 / self.bits.len() as f64
    }

    /// Returns `true` if position `(row, col)` is kept.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn is_kept(&self, row: usize, col: usize) -> bool {
        assert!(row < self.size && col < self.size, "index out of bounds");
        self.bits[row * self.size + col]
    }

    /// Coordinates of the kept positions in row-major order (the PatDNN-style
    /// precomputed offset list reused by every block with this pattern).
    pub fn kept_positions(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.ones());
        for r in 0..self.size {
            for c in 0..self.size {
                if self.bits[r * self.size + c] {
                    out.push((r, c));
                }
            }
        }
        out
    }

    /// ASCII rendering for Fig. 4-style visualisation: `#` = kept, `.` =
    /// pruned.
    pub fn render_ascii(&self) -> String {
        let mut out = String::with_capacity(self.size * (self.size + 1));
        for r in 0..self.size {
            for c in 0..self.size {
                out.push(if self.is_kept(r, c) { '#' } else { '.' });
            }
            out.push('\n');
        }
        out
    }

    /// Dominant column structure: for each column, the fraction of kept rows.
    /// Used to compare column characteristics across patterns (Fig. 4's blue
    /// box observation).
    pub fn column_density(&self) -> Vec<f64> {
        (0..self.size)
            .map(|c| {
                (0..self.size).filter(|&r| self.is_kept(r, c)).count() as f64 / self.size as f64
            })
            .collect()
    }
}

/// A set of [`PatternMask`]s that share a size and target sparsity; one set
/// is searched per V/F level.
///
/// # Examples
///
/// ```
/// use rt3_sparse::{PatternMask, PatternSet};
///
/// let set = PatternSet::new(vec![PatternMask::dense(4)])?;
/// assert_eq!(set.len(), 1);
/// assert_eq!(set.size(), 4);
/// # Ok::<(), rt3_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PatternSet {
    patterns: Vec<PatternMask>,
}

/// Errors produced by sparse-format constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// A pattern set was constructed with no patterns.
    EmptyPatternSet,
    /// Patterns in a set have inconsistent sizes.
    MixedPatternSizes {
        /// Size of the first pattern.
        expected: usize,
        /// Conflicting size encountered.
        found: usize,
    },
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::EmptyPatternSet => {
                write!(f, "pattern set must contain at least one pattern")
            }
            SparseError::MixedPatternSizes { expected, found } => write!(
                f,
                "pattern sizes are inconsistent: expected {}, found {}",
                expected, found
            ),
        }
    }
}

impl std::error::Error for SparseError {}

impl PatternSet {
    /// Creates a pattern set.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::EmptyPatternSet`] if `patterns` is empty and
    /// [`SparseError::MixedPatternSizes`] if the patterns disagree on size.
    pub fn new(patterns: Vec<PatternMask>) -> Result<Self, SparseError> {
        let first = patterns.first().ok_or(SparseError::EmptyPatternSet)?;
        let size = first.size();
        for p in &patterns {
            if p.size() != size {
                return Err(SparseError::MixedPatternSizes {
                    expected: size,
                    found: p.size(),
                });
            }
        }
        Ok(Self { patterns })
    }

    /// The patterns in the set.
    pub fn patterns(&self) -> &[PatternMask] {
        &self.patterns
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Returns `true` if the set has no patterns (never true for a
    /// successfully constructed set).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Pattern side length.
    pub fn size(&self) -> usize {
        self.patterns[0].size()
    }

    /// Mean sparsity over the patterns in the set.
    pub fn mean_sparsity(&self) -> f64 {
        self.patterns.iter().map(|p| p.sparsity()).sum::<f64>() / self.patterns.len() as f64
    }

    /// Index of the pattern that preserves the largest l2 norm of `block`
    /// (the selection rule of component ④: "choose the pattern with the
    /// largest l2-norm for each block").
    ///
    /// `block` may be smaller than the pattern (partial edge block); only
    /// the overlapping region is scored. This is the per-block reference:
    /// each pattern's norm is a fold over the block's squares (computed
    /// through the detected SIMD backend), and ties keep the lowest index.
    /// Bulk assignment goes through [`crate::PackLayout::assign`], which
    /// scores every block of a weight at once from a [`crate::BlockSquares`]
    /// table and picks the same pattern for every block.
    pub fn best_pattern_for(&self, block: &Matrix) -> usize {
        crate::plan::best_pattern_for_block(
            &crate::plan::compile_set(self),
            self.size(),
            block,
            crate::Backend::detect(),
        )
    }

    /// Bytes needed to ship this pattern set to the device: one bit per
    /// pattern position. This is what gets swapped in/out of off-chip memory
    /// when the V/F level changes.
    pub fn storage_bytes(&self) -> usize {
        self.patterns.len() * (self.size() * self.size() + 7) / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PatternPrunedMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn checkerboard(size: usize) -> PatternMask {
        let bits = (0..size * size)
            .map(|i| (i / size + i % size).is_multiple_of(2))
            .collect();
        PatternMask::new(size, bits)
    }

    #[test]
    fn from_importance_keeps_top_positions() {
        let imp = Matrix::from_rows(&[
            vec![9.0, 1.0, 8.0],
            vec![0.1, 7.0, 0.2],
            vec![0.3, 0.4, 6.0],
        ]);
        let p = PatternMask::from_importance(&imp, 1.0 - 4.0 / 9.0);
        assert_eq!(p.ones(), 4);
        assert!(p.is_kept(0, 0) && p.is_kept(0, 2) && p.is_kept(1, 1) && p.is_kept(2, 2));
    }

    #[test]
    fn random_pattern_hits_requested_sparsity() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = PatternMask::random(10, 0.75, &mut rng);
        assert_eq!(p.ones(), 25);
        assert!((p.sparsity() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn render_ascii_has_one_char_per_cell() {
        let p = checkerboard(4);
        let s = p.render_ascii();
        assert_eq!(s.lines().count(), 4);
        assert!(s.lines().all(|l| l.len() == 4));
        assert_eq!(s.matches('#').count(), p.ones());
    }

    #[test]
    fn pattern_set_rejects_empty_and_mixed_sizes() {
        assert_eq!(
            PatternSet::new(vec![]).unwrap_err(),
            SparseError::EmptyPatternSet
        );
        let err = PatternSet::new(vec![PatternMask::dense(2), PatternMask::dense(3)]).unwrap_err();
        assert!(matches!(err, SparseError::MixedPatternSizes { .. }));
    }

    #[test]
    fn best_pattern_maximises_preserved_norm() {
        let left = PatternMask::new(2, vec![true, false, true, false]);
        let right = PatternMask::new(2, vec![false, true, false, true]);
        let set = PatternSet::new(vec![left, right]).unwrap();
        let block = Matrix::from_rows(&[vec![0.0, 5.0], vec![0.0, 5.0]]);
        assert_eq!(set.best_pattern_for(&block), 1);
    }

    #[test]
    fn edge_blocks_score_only_their_in_shape_positions() {
        // reference: sum the squares of the in-shape kept positions alone,
        // row-major, first strict maximum wins
        let mut rng = StdRng::seed_from_u64(5);
        let mut patterns: Vec<PatternMask> = (0..6)
            .map(|_| PatternMask::random(4, 0.5, &mut rng))
            .collect();
        // a duplicate, so every block has a tie the lower index must win
        patterns.push(patterns[2].clone());
        let set = PatternSet::new(patterns).unwrap();
        for (h, w) in [(4, 4), (4, 1), (1, 4), (3, 2), (2, 3), (1, 1)] {
            let block = Matrix::xavier(h, w, &mut rng);
            let mut best = (0, f32::NEG_INFINITY);
            for (pi, p) in set.patterns().iter().enumerate() {
                let mut norm = 0.0f32;
                for r in 0..h {
                    for c in 0..w {
                        if p.is_kept(r, c) {
                            norm += block.get(r, c) * block.get(r, c);
                        }
                    }
                }
                if norm > best.1 {
                    best = (pi, norm);
                }
            }
            assert_eq!(set.best_pattern_for(&block), best.0, "{h}x{w} block");
        }
    }

    #[test]
    fn pattern_pruned_roundtrip_matches_mask() {
        let mut rng = StdRng::seed_from_u64(9);
        let dense = Matrix::xavier(10, 10, &mut rng);
        let set = PatternSet::new(vec![
            PatternMask::random(5, 0.5, &mut rng),
            PatternMask::random(5, 0.5, &mut rng),
        ])
        .unwrap();
        let pp = PatternPrunedMatrix::from_dense(&dense, &set);
        let rebuilt = pp.to_dense();
        let expected = dense.zip(&pp.mask(), |v, m| v * m);
        assert!(rebuilt.approx_eq(&expected, 0.0));
        // blocks tile the matrix exactly, so overall sparsity equals the
        // mean sparsity of the assigned patterns (both patterns keep the
        // same number of positions here).
        assert!((pp.sparsity() - set.mean_sparsity()).abs() < 1e-9);
    }

    #[test]
    fn pattern_pruned_matmul_matches_masked_dense() {
        let mut rng = StdRng::seed_from_u64(10);
        let dense = Matrix::xavier(9, 7, &mut rng);
        let set = PatternSet::new(vec![
            PatternMask::random(4, 0.25, &mut rng),
            PatternMask::random(4, 0.25, &mut rng),
            PatternMask::random(4, 0.25, &mut rng),
        ])
        .unwrap();
        let pp = PatternPrunedMatrix::from_dense(&dense, &set);
        let rhs = Matrix::xavier(7, 3, &mut rng);
        let expected = pp.to_dense().matmul(&rhs);
        assert!(pp.matmul_dense(&rhs).approx_eq(&expected, 1e-4));
    }

    #[test]
    fn partial_edge_blocks_are_handled() {
        let mut rng = StdRng::seed_from_u64(11);
        let dense = Matrix::xavier(7, 5, &mut rng);
        let set = PatternSet::new(vec![PatternMask::random(4, 0.5, &mut rng)]).unwrap();
        let pp = PatternPrunedMatrix::from_dense(&dense, &set);
        assert_eq!(pp.block_grid(), (2, 2));
        let rebuilt = pp.to_dense();
        assert_eq!(rebuilt.shape(), (7, 5));
        let expected = dense.zip(&pp.mask(), |v, m| v * m);
        assert!(rebuilt.approx_eq(&expected, 0.0));
    }

    #[test]
    fn storage_accounts_for_pattern_reuse() {
        let mut rng = StdRng::seed_from_u64(12);
        let dense = Matrix::xavier(20, 20, &mut rng);
        let set = PatternSet::new(vec![
            PatternMask::random(5, 0.6, &mut rng),
            PatternMask::random(5, 0.6, &mut rng),
        ])
        .unwrap();
        let pp = PatternPrunedMatrix::from_dense(&dense, &set);
        assert_eq!(pp.stored_values(), 16 * 10);
    }

    #[test]
    fn lowering_backend_is_bit_stable() {
        // the SIMD squared-element precompute used during block scoring
        // must produce the exact assignments and packed values the scalar
        // lowering produces — rebuild_cold cost drops, results do not move
        let mut rng = StdRng::seed_from_u64(77);
        let dense = Matrix::xavier(37, 29, &mut rng);
        let set = PatternSet::new(
            (0..4)
                .map(|_| PatternMask::random(8, 0.75, &mut rng))
                .collect(),
        )
        .unwrap();
        let detected = PatternPrunedMatrix::from_dense(&dense, &set);
        let scalar =
            PatternPrunedMatrix::from_dense_with_backend(&dense, &set, crate::Backend::Scalar);
        assert_eq!(detected.assignments(), scalar.assignments());
        assert_eq!(detected.stored_values(), scalar.stored_values());
        for bi in 0..detected.assignments().len() {
            let d = detected.block_values(bi);
            let s = scalar.block_values(bi);
            assert_eq!(d.len(), s.len());
            for (a, b) in d.iter().zip(s) {
                assert_eq!(a.to_bits(), b.to_bits(), "block {bi} values diverged");
            }
        }
        // and the per-call path agrees with the bulk path on every block
        let (grid_rows, grid_cols) = detected.block_grid();
        for br in 0..grid_rows {
            for bc in 0..grid_cols {
                let h = 8.min(dense.rows() - br * 8);
                let w = 8.min(dense.cols() - bc * 8);
                let block = dense.block(br * 8, bc * 8, h, w);
                assert_eq!(
                    detected.assignments()[br * grid_cols + bc] as usize,
                    set.best_pattern_for(&block),
                    "block ({br},{bc})"
                );
            }
        }
    }

    #[test]
    fn column_density_sums_match_ones() {
        let p = checkerboard(6);
        let total: f64 = p.column_density().iter().sum::<f64>() * 6.0;
        assert!((total - p.ones() as f64) < 1e-9);
    }
}
