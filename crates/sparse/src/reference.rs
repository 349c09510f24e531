//! Retained scalar reference kernel for pattern-pruned matmul.
//!
//! This is the seed implementation of `PatternPrunedMatrix::matmul_dense`
//! kept verbatim in behaviour — including its per-call costs: it re-derives
//! every pattern's `kept_positions()` (a heap allocation per block per
//! call), walks positions as `(usize, usize)` pairs and re-checks matrix
//! bounds per element. It exists for two reasons:
//!
//! * **Bit-level cross-checking.** The compiled kernels of
//!   [`crate::PatternPrunedMatrix`] accumulate into each output element in the
//!   same order as this kernel, so property tests assert exact equality
//!   between the two (`tests/proptest_formats.rs`). The one intentional
//!   divergence: the reference skips stored values that are exactly `0.0`
//!   while the compiled kernels multiply them through branch-free; with finite
//!   right-hand sides that changes nothing but the sign of a zero partial
//!   sum, which compares equal.
//! * **Before/after benchmarking.** `benches/sparse_matmul.rs` times this
//!   kernel next to the compiled kernels, so the committed bench JSON carries
//!   the seed baseline the speedup is measured against.
//!
//! Not for production use: every serving path goes through the compiled
//! kernels.

use crate::PatternPrunedMatrix;
use rt3_tensor::Matrix;

/// Scalar seed kernel: sparse × dense product `m * rhs`, re-deriving the
/// pattern offset lists on every call exactly as the pre-plan
/// implementation did.
///
/// # Panics
///
/// Panics if `m.cols() != rhs.rows()`.
pub fn matmul_dense_scalar(m: &PatternPrunedMatrix, rhs: &Matrix) -> Matrix {
    assert_eq!(m.cols(), rhs.rows(), "matmul shape mismatch");
    let mut out = Matrix::zeros(m.rows(), rhs.cols());
    let psize = m.pattern_size();
    let (_, grid_cols) = m.block_grid();
    for bi in 0..m.assignments().len() {
        let vals = m.block_values(bi);
        let br = bi / grid_cols;
        let bc = bi % grid_cols;
        let pattern = &m.pattern_set().patterns()[m.assignments()[bi] as usize];
        for ((r, c), &v) in pattern.kept_positions().iter().zip(vals.iter()) {
            if v == 0.0 {
                continue;
            }
            let rr = br * psize + r;
            let cc = bc * psize + c;
            if rr >= m.rows() || cc >= m.cols() {
                continue;
            }
            let rhs_row = rhs.row(cc);
            let out_row = out.row_mut(rr);
            for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                *o += v * b;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{PatternMask, PatternSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reference_agrees_with_masked_dense_matmul() {
        let mut rng = StdRng::seed_from_u64(41);
        let dense = Matrix::xavier(11, 9, &mut rng);
        let set = PatternSet::new(vec![
            PatternMask::random(4, 0.5, &mut rng),
            PatternMask::random(4, 0.5, &mut rng),
        ])
        .unwrap();
        let pp = PatternPrunedMatrix::from_dense(&dense, &set);
        let rhs = Matrix::xavier(9, 5, &mut rng);
        let expected = pp.to_dense().matmul(&rhs);
        assert!(matmul_dense_scalar(&pp, &rhs).approx_eq(&expected, 1e-4));
    }
}
