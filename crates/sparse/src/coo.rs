//! Coordinate (COO) sparse format.
//!
//! The paper's Challenge 1 argues that irregular (non-structured) pruning
//! must fall back to COO storage — three parallel arrays `row`, `col`,
//! `data` — whose index overhead hurts both memory footprint and mobile
//! inference speed. This module implements that format so the comparison can
//! be measured rather than asserted.

use rt3_tensor::Matrix;

/// Sparse matrix in coordinate format: one `(row, col, value)` triple per
/// non-zero element.
///
/// # Examples
///
/// ```
/// use rt3_sparse::CooMatrix;
/// use rt3_tensor::Matrix;
///
/// let dense = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]);
/// let coo = CooMatrix::from_dense(&dense);
/// assert_eq!(coo.nnz(), 2);
/// assert!(coo.to_dense().approx_eq(&dense, 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    row_indices: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<f32>,
}

impl CooMatrix {
    /// Builds a COO matrix from every non-zero element of `dense`.
    pub fn from_dense(dense: &Matrix) -> Self {
        let mut row_indices = Vec::new();
        let mut col_indices = Vec::new();
        let mut values = Vec::new();
        for i in 0..dense.rows() {
            for j in 0..dense.cols() {
                let v = dense.get(i, j);
                if v != 0.0 {
                    row_indices.push(i as u32);
                    col_indices.push(j as u32);
                    values.push(v);
                }
            }
        }
        Self {
            rows: dense.rows(),
            cols: dense.cols(),
            row_indices,
            col_indices,
            values,
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

    /// Number of stored non-zero elements.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of elements that are zero.
    pub fn sparsity(&self) -> f64 {
        if self.rows * self.cols == 0 {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// Reconstructs the dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for k in 0..self.values.len() {
            out.set(
                self.row_indices[k] as usize,
                self.col_indices[k] as usize,
                self.values[k],
            );
        }
        out
    }

    /// Sparse × dense product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_dense(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows(), "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols());
        for k in 0..self.values.len() {
            let i = self.row_indices[k] as usize;
            let c = self.col_indices[k] as usize;
            let v = self.values[k];
            for j in 0..rhs.cols() {
                let cur = out.get(i, j);
                out.set(i, j, cur + v * rhs.get(c, j));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| {
            if rng.gen::<f64>() < density {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        })
    }

    #[test]
    fn roundtrip_preserves_dense_matrix() {
        let dense = random_sparse(13, 7, 0.3, 1);
        let coo = CooMatrix::from_dense(&dense);
        assert!(coo.to_dense().approx_eq(&dense, 0.0));
    }

    #[test]
    fn matmul_matches_dense_reference() {
        let a = random_sparse(9, 11, 0.25, 2);
        let b = random_sparse(11, 5, 0.8, 3);
        let coo = CooMatrix::from_dense(&a);
        assert!(coo.matmul_dense(&b).approx_eq(&a.matmul(&b), 1e-4));
    }

    #[test]
    fn nnz_and_sparsity_are_consistent() {
        let dense = Matrix::from_rows(&[vec![0.0, 1.0, 0.0, 2.0]]);
        let coo = CooMatrix::from_dense(&dense);
        assert_eq!(coo.nnz(), 2);
        assert!((coo.sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_handled() {
        let dense = Matrix::zeros(4, 4);
        let coo = CooMatrix::from_dense(&dense);
        assert_eq!(coo.nnz(), 0);
        assert!(coo.to_dense().approx_eq(&dense, 0.0));
    }
}
