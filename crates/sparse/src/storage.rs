//! Storage accounting across sparse formats.
//!
//! The paper motivates block-structured pruning by the index overhead of
//! irregular (COO) storage. [`StorageReport`] quantifies that comparison for
//! any pruned matrix so the claim can be reproduced numerically (it also
//! feeds the memory-traffic term of the latency model in `rt3-hardware`).

use crate::block::{BlockPartition, BlockPrunedMatrix};
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use rt3_tensor::Matrix;

/// Identifies a sparse storage format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SparseFormat {
    /// Dense row-major storage (no pruning benefit, no index overhead).
    Dense,
    /// Coordinate format: one `(row, col)` pair per non-zero.
    Coo,
    /// Compressed sparse row.
    Csr,
    /// Block-structured pruned storage (RT3 Level 1).
    BlockPruned,
}

impl std::fmt::Display for SparseFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SparseFormat::Dense => "dense",
            SparseFormat::Coo => "coo",
            SparseFormat::Csr => "csr",
            SparseFormat::BlockPruned => "block-pruned",
        };
        f.write_str(name)
    }
}

/// Storage cost of one matrix in one format.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatCost {
    /// The format being measured.
    pub format: SparseFormat,
    /// Bytes of value payload.
    pub value_bytes: usize,
    /// Bytes of index/metadata overhead.
    pub index_bytes: usize,
}

impl FormatCost {
    /// Total bytes (values + indices).
    pub fn total_bytes(&self) -> usize {
        self.value_bytes + self.index_bytes
    }
}

/// Side-by-side storage comparison of a pruned matrix in every format.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageReport {
    /// Logical shape of the matrix.
    pub shape: (usize, usize),
    /// Number of non-zero values.
    pub nnz: usize,
    /// Sparsity in `[0, 1]`.
    pub sparsity: f64,
    /// Cost per format.
    pub costs: Vec<FormatCost>,
}

impl StorageReport {
    /// Measures the storage cost of `dense` (assumed already pruned, i.e.
    /// containing structural zeros) in each format. The block-pruned entry
    /// uses `block_partition` over the rows.
    pub fn measure(dense: &Matrix, block_partition: &BlockPartition) -> Self {
        let coo = CooMatrix::from_dense(dense);
        let csr = CsrMatrix::from_dense(dense);
        let bp = BlockPrunedMatrix::from_dense(dense, block_partition);
        let costs = vec![
            FormatCost {
                format: SparseFormat::Dense,
                value_bytes: dense.len() * std::mem::size_of::<f32>(),
                index_bytes: 0,
            },
            FormatCost {
                format: SparseFormat::Coo,
                value_bytes: coo.nnz() * std::mem::size_of::<f32>(),
                index_bytes: coo.index_bytes(),
            },
            FormatCost {
                format: SparseFormat::Csr,
                value_bytes: csr.nnz() * std::mem::size_of::<f32>(),
                index_bytes: csr.index_bytes(),
            },
            FormatCost {
                format: SparseFormat::BlockPruned,
                value_bytes: bp.nnz() * std::mem::size_of::<f32>(),
                index_bytes: bp.index_bytes(),
            },
        ];
        Self {
            shape: dense.shape(),
            nnz: coo.nnz(),
            sparsity: dense.sparsity(),
            costs,
        }
    }

    /// Cost entry for a specific format.
    pub fn cost(&self, format: SparseFormat) -> Option<&FormatCost> {
        self.costs.iter().find(|c| c.format == format)
    }

    /// The cheapest format by total bytes.
    pub fn best_format(&self) -> SparseFormat {
        self.costs
            .iter()
            .min_by_key(|c| c.total_bytes())
            .map(|c| c.format)
            .unwrap_or(SparseFormat::Dense)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A block-column-pruned matrix: in each of 4 row blocks, half of the
    /// columns are zeroed entirely.
    fn block_pruned_dense(seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Matrix::from_fn(40, 40, |_, _| rng.gen_range(-1.0..1.0f32));
        for (b, range) in BlockPartition::even(40, 4).ranges().iter().enumerate() {
            for c in 0..40 {
                if (c + b) % 2 == 0 {
                    for r in range.0..range.1 {
                        m.set(r, c, 0.0);
                    }
                }
            }
        }
        m
    }

    #[test]
    fn report_covers_all_formats() {
        let dense = block_pruned_dense(1);
        let report = StorageReport::measure(&dense, &BlockPartition::even(40, 4));
        assert_eq!(report.costs.len(), 4);
        assert!((report.sparsity - 0.5).abs() < 1e-9);
        for fmt in [
            SparseFormat::Dense,
            SparseFormat::Coo,
            SparseFormat::Csr,
            SparseFormat::BlockPruned,
        ] {
            assert!(report.cost(fmt).is_some(), "missing {}", fmt);
        }
    }

    #[test]
    fn block_pruned_structure_prefers_block_format() {
        let dense = block_pruned_dense(2);
        let report = StorageReport::measure(&dense, &BlockPartition::even(40, 4));
        assert_eq!(report.best_format(), SparseFormat::BlockPruned);
        let coo = report.cost(SparseFormat::Coo).unwrap();
        let bp = report.cost(SparseFormat::BlockPruned).unwrap();
        assert_eq!(coo.value_bytes, bp.value_bytes);
        assert!(bp.index_bytes < coo.index_bytes / 10);
    }

    #[test]
    fn dense_wins_when_nothing_is_pruned() {
        let mut rng = StdRng::seed_from_u64(3);
        let dense = Matrix::xavier(20, 20, &mut rng);
        let report = StorageReport::measure(&dense, &BlockPartition::even(20, 2));
        assert_eq!(report.best_format(), SparseFormat::Dense);
    }

    #[test]
    fn format_display_names() {
        assert_eq!(SparseFormat::Coo.to_string(), "coo");
        assert_eq!(SparseFormat::BlockPruned.to_string(), "block-pruned");
    }
}
