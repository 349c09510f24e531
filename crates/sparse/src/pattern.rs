//! Pattern pruning (PP) primitives: pattern masks, pattern sets and the
//! pattern-pruned matrix format.
//!
//! RT3's Level-2 software reconfiguration assigns, to every `psize x psize`
//! block of a weight matrix, one pattern chosen from a small *pattern set*.
//! Switching the active pattern set at run time changes the model's sparsity
//! (and therefore its latency) without touching the backbone weights — that
//! is what makes the switch lightweight enough to track DVFS.

use crate::plan::{PackLayout, PatternPlan};
use rand::seq::SliceRandom;
use rand::Rng;
use rt3_tensor::Matrix;
use std::sync::Arc;

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

    /// The mask as a 0/1 matrix.
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(self.size, self.size, |i, j| {
            if self.is_kept(i, j) {
                1.0
            } else {
                0.0
            }
        })
    }

    /// Fraction of kept positions shared with `other` (relative to the larger
    /// kept count); used to reproduce the Fig. 4 observation that patterns
    /// for different V/F levels share important positions.
    ///
    /// # Panics
    ///
    /// Panics if sizes differ.
    pub fn overlap(&self, other: &PatternMask) -> f64 {
        assert_eq!(self.size, other.size, "pattern size mismatch");
        let shared = self
            .bits
            .iter()
            .zip(other.bits.iter())
            .filter(|(&a, &b)| a && b)
            .count();
        let denom = self.ones().max(other.ones());
        if denom == 0 {
            return 0.0;
        }
        shared as f64 / denom as f64
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

/// A matrix stored as pattern-pruned blocks: every `psize x psize` block
/// carries the index of its assigned pattern, and only the kept values.
///
/// Construction immediately lowers the matrix into a [`PatternPlan`] — a
/// flat value arena plus shared per-pattern offset tables — and every
/// kernel (`matmul_dense`, `to_dense`, `mask`) executes the plan, so no
/// per-call layout or indexing work remains on the hot path. The seed's
/// scalar kernel is retained in [`crate::reference`] for bit-level
/// cross-checking.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternPrunedMatrix {
    plan: PatternPlan,
}

impl PatternPrunedMatrix {
    /// Prunes `dense` with the given pattern set: each block is assigned the
    /// pattern that preserves the largest l2 norm, then only kept values are
    /// stored — compiled directly into the execution plan.
    ///
    /// # Panics
    ///
    /// Panics if the pattern set has more than `u16::MAX` patterns.
    pub fn from_dense(dense: &Matrix, set: &PatternSet) -> Self {
        Self {
            plan: PatternPlan::compile(dense, set),
        }
    }

    /// [`Self::from_dense`] with an explicit kernel backend (clamped to
    /// CPU support); used by the bit-exactness suites to force the scalar
    /// reference path on SIMD hosts.
    pub fn from_dense_with_backend(
        dense: &Matrix,
        set: &PatternSet,
        backend: crate::Backend,
    ) -> Self {
        Self {
            plan: PatternPlan::compile_with_backend(dense, set, backend),
        }
    }

    /// Packs `weight`, masked element-wise by `mask` if given, under a
    /// layout kept from an earlier [`PackLayout::assign`], without scoring
    /// a block. Equals [`Self::from_dense`] of the masked weight when the
    /// layout was assigned on it.
    ///
    /// # Panics
    ///
    /// Panics if `weight` or `mask` is not shaped like the layout's weight.
    pub fn pack(layout: &Arc<PackLayout>, weight: &Matrix, mask: Option<&Matrix>) -> Self {
        Self {
            plan: PatternPlan::pack(layout, weight, mask, crate::Backend::detect()),
        }
    }

    /// [`Self::pack`] into this matrix's existing arena (see
    /// [`PatternPlan::pack_into`]): allocation-free once the arena has held
    /// a layout at least as large.
    ///
    /// # Panics
    ///
    /// Same as [`Self::pack`].
    pub fn pack_into(&mut self, layout: &Arc<PackLayout>, weight: &Matrix, mask: Option<&Matrix>) {
        self.plan.pack_into(layout, weight, mask);
    }

    /// Logical number of rows.
    pub fn rows(&self) -> usize {
        self.plan.shape().0
    }

    /// Logical number of columns.
    pub fn cols(&self) -> usize {
        self.plan.shape().1
    }

    /// Pattern side length.
    pub fn pattern_size(&self) -> usize {
        self.plan.pattern_size()
    }

    /// `(block rows, block cols)` of the block grid.
    pub fn block_grid(&self) -> (usize, usize) {
        self.plan.block_grid()
    }

    /// Per-block pattern assignment (row-major over the block grid).
    pub fn assignments(&self) -> &[u16] {
        self.plan.assignments()
    }

    /// The pattern set used.
    pub fn pattern_set(&self) -> &PatternSet {
        self.plan.pattern_set()
    }

    /// The compiled execution plan backing every kernel of this matrix.
    pub fn plan(&self) -> &PatternPlan {
        &self.plan
    }

    /// Number of stored values (including zeros that happen to be kept).
    pub fn stored_values(&self) -> usize {
        self.plan.stored_values()
    }

    /// Fraction of logical elements pruned away by the pattern assignment.
    pub fn sparsity(&self) -> f64 {
        self.mask().sparsity()
    }

    /// Reconstructs the dense matrix with pruned positions zeroed.
    pub fn to_dense(&self) -> Matrix {
        let (rows, cols) = self.plan.shape();
        let mut out = Matrix::zeros(rows, cols);
        self.plan
            .for_each_kept(|r, c, v| out.as_mut_slice()[r * cols + c] = v);
        out
    }

    /// The binary keep-mask with the logical matrix shape.
    pub fn mask(&self) -> Matrix {
        let (rows, cols) = self.plan.shape();
        let mut mask = Matrix::zeros(rows, cols);
        self.plan
            .for_each_kept(|r, c, _| mask.as_mut_slice()[r * cols + c] = 1.0);
        mask
    }

    /// Sparse × dense product `self * rhs`, executing the compiled plan
    /// (flat arena, shared per-pattern offset tables, full/edge block
    /// dispatch — see [`PatternPlan::matmul_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_dense(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), rhs.cols());
        self.plan.matmul_into(rhs, &mut out);
        out
    }

    /// Zero-allocation variant of [`Self::matmul_dense`]: writes into a
    /// caller-provided output matrix (zeroed first), so steady-state
    /// serving can reuse its buffers across calls.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()` or `out` is not shaped
    /// `(self.rows(), rhs.cols())`.
    pub fn matmul_dense_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.plan.matmul_into(rhs, out);
    }

    /// Intra-matmul parallel variant of [`Self::matmul_dense_into`]:
    /// contiguous block-row ranges on scoped threads over disjoint output
    /// slices, bit-identical to the serial kernel for every worker count
    /// (see [`PatternPlan::par_matmul_into`]).
    ///
    /// # Panics
    ///
    /// Same shape requirements as [`Self::matmul_dense_into`].
    pub fn par_matmul_dense_into(&self, rhs: &Matrix, out: &mut Matrix, workers: usize) {
        self.plan.par_matmul_into(rhs, out, workers);
    }

    /// Bytes to store the matrix: packed values + one `u16` pattern id per
    /// block + the pattern bitmaps themselves.
    pub fn storage_bytes(&self) -> usize {
        self.stored_values() * std::mem::size_of::<f32>() + self.index_bytes()
    }

    /// Bytes spent on metadata (assignments + pattern bitmaps). The
    /// compiled plan's derived offset tables are not counted: they are
    /// working-set state rebuilt from the bitmaps, not shipped storage
    /// (see [`PatternPlan::table_bytes`] for their footprint).
    pub fn index_bytes(&self) -> usize {
        std::mem::size_of_val(self.assignments()) + self.pattern_set().storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn overlap_is_one_for_identical_patterns() {
        let p = checkerboard(6);
        assert!((p.overlap(&p) - 1.0).abs() < 1e-12);
        let dense = PatternMask::dense(6);
        // against the dense pattern the overlap is bounded by the denser
        // pattern's kept count
        let expected = p.ones() as f64 / dense.ones() as f64;
        assert!((p.overlap(&dense) - expected).abs() < 1e-12);
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
        // metadata: 16 blocks * 2 bytes + 2 patterns * ceil(25/8) bytes
        assert_eq!(pp.index_bytes(), 16 * 2 + 2 * 4);
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
            let d = detected.plan().block_values(bi);
            let s = scalar.plan().block_values(bi);
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
