//! The sparse storage formats a weight can be priced in.
//!
//! The paper motivates block-structured pruning by the index overhead of
//! irregular (COO) storage. The latency model in `rt3-hardware` prices that
//! overhead per format (`LayerWorkload::weight_bytes`); [`SparseFormat`]
//! names the format it prices.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_display_names() {
        assert_eq!(SparseFormat::Coo.to_string(), "coo");
        assert_eq!(SparseFormat::BlockPruned.to_string(), "block-pruned");
    }
}
