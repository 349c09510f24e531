//! Block-structured pruned storage (the Level-1 "BP" format of RT3).
//!
//! The weight matrix is divided into row-wise blocks; inside each block whole
//! columns are pruned. Storage therefore needs only the surviving column
//! indices per block plus a dense packed value buffer — far less index
//! metadata than COO, and the packed buffer keeps the regular access pattern
//! that mobile SIMD/parallel kernels want (the paper's "hardware friendly"
//! argument).
//!
//! Row pruning inside column-wise blocks is the transpose of this layout;
//! callers that need it can transpose before and after.

use rt3_tensor::Matrix;

/// An even partition of a dimension into contiguous blocks.
///
/// # Examples
///
/// ```
/// use rt3_sparse::BlockPartition;
///
/// let p = BlockPartition::even(10, 3);
/// assert_eq!(p.ranges(), &[(0, 4), (4, 7), (7, 10)]);
/// assert_eq!(p.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPartition {
    ranges: Vec<(usize, usize)>,
}

impl BlockPartition {
    /// Splits `dimension` into `blocks` contiguous ranges of (nearly) equal
    /// size. The first `dimension % blocks` ranges get one extra element.
    ///
    /// # Panics
    ///
    /// Panics if `blocks == 0` or `blocks > dimension` (for a non-zero
    /// dimension).
    pub fn even(dimension: usize, blocks: usize) -> Self {
        assert!(blocks > 0, "at least one block is required");
        assert!(
            dimension == 0 || blocks <= dimension,
            "cannot split {} elements into {} blocks",
            dimension,
            blocks
        );
        let base = dimension / blocks;
        let extra = dimension % blocks;
        let mut ranges = Vec::with_capacity(blocks);
        let mut start = 0;
        for b in 0..blocks {
            let size = base + usize::from(b < extra);
            ranges.push((start, start + size));
            start += size;
        }
        Self { ranges }
    }

    /// The half-open `(start, end)` ranges.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Returns `true` if the partition has no blocks.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total number of elements covered.
    pub fn total(&self) -> usize {
        self.ranges.last().map_or(0, |&(_, end)| end)
    }
}

/// One row block of a [`BlockPrunedMatrix`]: the surviving columns and their
/// packed values.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedBlock {
    /// First row (inclusive) of the block in the logical matrix.
    pub row_start: usize,
    /// Last row (exclusive) of the block in the logical matrix.
    pub row_end: usize,
    /// Column indices that survived pruning, ascending.
    pub kept_cols: Vec<u32>,
    /// Packed values, shape `(row_end - row_start) x kept_cols.len()`.
    pub values: Matrix,
}

/// A matrix stored in block-structured pruned form: row-wise blocks with
/// per-block column pruning.
///
/// # Examples
///
/// ```
/// use rt3_sparse::{BlockPartition, BlockPrunedMatrix};
/// use rt3_tensor::Matrix;
///
/// let dense = Matrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![3.0, 0.0, 4.0]]);
/// let bp = BlockPrunedMatrix::from_dense(&dense, &BlockPartition::even(2, 1));
/// assert_eq!(bp.nnz(), 4);
/// assert!(bp.to_dense().approx_eq(&dense, 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPrunedMatrix {
    rows: usize,
    cols: usize,
    blocks: Vec<PrunedBlock>,
}

impl BlockPrunedMatrix {
    /// Builds the pruned representation from a dense matrix, keeping, inside
    /// each row block, only the columns that contain at least one non-zero.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover exactly `dense.rows()` rows.
    pub fn from_dense(dense: &Matrix, partition: &BlockPartition) -> Self {
        assert_eq!(
            partition.total(),
            dense.rows(),
            "partition must cover all {} rows",
            dense.rows()
        );
        let mut blocks = Vec::with_capacity(partition.len());
        for &(row_start, row_end) in partition.ranges() {
            let mut kept_cols = Vec::new();
            for c in 0..dense.cols() {
                let nonzero = (row_start..row_end).any(|r| dense.get(r, c) != 0.0);
                if nonzero {
                    kept_cols.push(c as u32);
                }
            }
            let values = Matrix::from_fn(row_end - row_start, kept_cols.len(), |i, j| {
                dense.get(row_start + i, kept_cols[j] as usize)
            });
            blocks.push(PrunedBlock {
                row_start,
                row_end,
                kept_cols,
                values,
            });
        }
        Self {
            rows: dense.rows(),
            cols: dense.cols(),
            blocks,
        }
    }

    /// Builds the representation keeping an explicit set of columns per block
    /// (the output of the Level-1 pruning decision).
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover `dense.rows()`, if
    /// `kept_cols_per_block.len() != partition.len()`, or if any kept column
    /// index is out of bounds or not strictly ascending.
    pub fn from_dense_with_kept(
        dense: &Matrix,
        partition: &BlockPartition,
        kept_cols_per_block: &[Vec<u32>],
    ) -> Self {
        assert_eq!(partition.total(), dense.rows(), "partition must cover rows");
        assert_eq!(
            kept_cols_per_block.len(),
            partition.len(),
            "one kept-column list per block"
        );
        let mut blocks = Vec::with_capacity(partition.len());
        for (&(row_start, row_end), kept) in partition.ranges().iter().zip(kept_cols_per_block) {
            for w in kept.windows(2) {
                assert!(w[0] < w[1], "kept columns must be strictly ascending");
            }
            if let Some(&last) = kept.last() {
                assert!((last as usize) < dense.cols(), "kept column out of bounds");
            }
            let values = Matrix::from_fn(row_end - row_start, kept.len(), |i, j| {
                dense.get(row_start + i, kept[j] as usize)
            });
            blocks.push(PrunedBlock {
                row_start,
                row_end,
                kept_cols: kept.clone(),
                values,
            });
        }
        Self {
            rows: dense.rows(),
            cols: dense.cols(),
            blocks,
        }
    }

    /// Logical number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The row blocks.
    pub fn blocks(&self) -> &[PrunedBlock] {
        &self.blocks
    }

    /// Number of stored (kept) elements.
    pub fn nnz(&self) -> usize {
        self.blocks.iter().map(|b| b.values.len()).sum()
    }

    /// Fraction of logical elements that were pruned away.
    pub fn sparsity(&self) -> f64 {
        if self.rows * self.cols == 0 {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// Reconstructs the dense matrix (pruned positions become zero).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for b in &self.blocks {
            for i in 0..b.values.rows() {
                for (j, &c) in b.kept_cols.iter().enumerate() {
                    out.set(b.row_start + i, c as usize, b.values.get(i, j));
                }
            }
        }
        out
    }

    /// Sparse × dense product `self * rhs`, operating block by block on the
    /// packed buffers (the regular inner loop the paper calls
    /// hardware-friendly).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_dense(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows(), "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols());
        for b in &self.blocks {
            for i in 0..b.values.rows() {
                let out_row_index = b.row_start + i;
                for (j, &c) in b.kept_cols.iter().enumerate() {
                    let v = b.values.get(i, j);
                    if v == 0.0 {
                        continue;
                    }
                    let rhs_row = rhs.row(c as usize);
                    let out_row = out.row_mut(out_row_index);
                    for (o, &r) in out_row.iter_mut().zip(rhs_row.iter()) {
                        *o += v * r;
                    }
                }
            }
        }
        out
    }

    /// The binary keep-mask (1.0 = kept) with the logical matrix shape; used
    /// to apply the pruning decision during masked training.
    pub fn mask(&self) -> Matrix {
        let mut mask = Matrix::zeros(self.rows, self.cols);
        for b in &self.blocks {
            for r in b.row_start..b.row_end {
                for &c in &b.kept_cols {
                    mask.set(r, c as usize, 1.0);
                }
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dense(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn even_partition_distributes_remainder() {
        let p = BlockPartition::even(7, 3);
        assert_eq!(p.ranges(), &[(0, 3), (3, 5), (5, 7)]);
        assert_eq!(p.total(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn even_partition_rejects_zero_blocks() {
        let _ = BlockPartition::even(5, 0);
    }

    #[test]
    fn from_dense_with_kept_respects_explicit_columns() {
        let dense = random_dense(6, 8, 21);
        let partition = BlockPartition::even(6, 2);
        let kept = vec![vec![0, 2, 5], vec![1, 7]];
        let bp = BlockPrunedMatrix::from_dense_with_kept(&dense, &partition, &kept);
        assert_eq!(bp.nnz(), 3 * 3 + 3 * 2);
        let rebuilt = bp.to_dense();
        // kept position survives
        assert_eq!(rebuilt.get(0, 2), dense.get(0, 2));
        // pruned position is zeroed
        assert_eq!(rebuilt.get(0, 1), 0.0);
        assert_eq!(rebuilt.get(5, 0), 0.0);
    }

    #[test]
    fn matmul_matches_masked_dense_reference() {
        let dense = random_dense(9, 12, 22);
        let partition = BlockPartition::even(9, 3);
        let kept = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9, 10, 11]];
        let bp = BlockPrunedMatrix::from_dense_with_kept(&dense, &partition, &kept);
        let rhs = random_dense(12, 5, 23);
        let expected = bp.to_dense().matmul(&rhs);
        assert!(bp.matmul_dense(&rhs).approx_eq(&expected, 1e-4));
    }

    #[test]
    fn kept_columns_store_as_many_values_as_coo() {
        // 60x60 matrix, keep half the columns in each of 6 blocks.
        let dense = random_dense(60, 60, 24);
        let partition = BlockPartition::even(60, 6);
        let kept: Vec<Vec<u32>> = (0..6).map(|_| (0..30).collect()).collect();
        let bp = BlockPrunedMatrix::from_dense_with_kept(&dense, &partition, &kept);
        let coo = CooMatrix::from_dense(&bp.to_dense());
        assert_eq!(bp.nnz(), coo.nnz());
    }

    #[test]
    fn mask_matches_kept_positions() {
        let dense = random_dense(4, 4, 25);
        let partition = BlockPartition::even(4, 2);
        let kept = vec![vec![0, 3], vec![1]];
        let bp = BlockPrunedMatrix::from_dense_with_kept(&dense, &partition, &kept);
        let mask = bp.mask();
        assert_eq!(mask.get(0, 0), 1.0);
        assert_eq!(mask.get(0, 1), 0.0);
        assert_eq!(mask.get(3, 1), 1.0);
        assert_eq!(mask.get(3, 0), 0.0);
        assert!((mask.sparsity() - bp.sparsity()).abs() < 1e-9);
    }

    #[test]
    fn from_dense_keeps_only_nonzero_columns_per_block() {
        let mut dense = Matrix::zeros(4, 3);
        dense.set(0, 0, 1.0);
        dense.set(3, 2, 2.0);
        let bp = BlockPrunedMatrix::from_dense(&dense, &BlockPartition::even(4, 2));
        assert_eq!(bp.blocks()[0].kept_cols, vec![0]);
        assert_eq!(bp.blocks()[1].kept_cols, vec![2]);
        assert!(bp.to_dense().approx_eq(&dense, 0.0));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn kept_columns_must_be_sorted() {
        let dense = Matrix::zeros(2, 4);
        let partition = BlockPartition::even(2, 1);
        let _ = BlockPrunedMatrix::from_dense_with_kept(&dense, &partition, &[vec![2, 1]]);
    }
}
