//! Compressed sparse row (CSR) format.
//!
//! CSR is the classic middle ground between COO and structured storage: it
//! removes the explicit row index array but still pays one column index per
//! non-zero. It is included as an additional baseline for the storage and
//! kernel benchmarks (`sparse_matmul` bench).

use rt3_tensor::Matrix;

/// Sparse matrix in compressed sparse row format.
///
/// # Examples
///
/// ```
/// use rt3_sparse::CsrMatrix;
/// use rt3_tensor::Matrix;
///
/// let dense = Matrix::from_rows(&[vec![0.0, 3.0], vec![4.0, 0.0]]);
/// let csr = CsrMatrix::from_dense(&dense);
/// assert_eq!(csr.nnz(), 2);
/// assert!(csr.to_dense().approx_eq(&dense, 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from every non-zero element of `dense`.
    pub fn from_dense(dense: &Matrix) -> Self {
        let mut row_ptr = Vec::with_capacity(dense.rows() + 1);
        let mut col_indices = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in 0..dense.rows() {
            for j in 0..dense.cols() {
                let v = dense.get(i, j);
                if v != 0.0 {
                    col_indices.push(j as u32);
                    values.push(v);
                }
            }
            row_ptr.push(values.len() as u32);
        }
        Self {
            rows: dense.rows(),
            cols: dense.cols(),
            row_ptr,
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
        for i in 0..self.rows {
            let start = self.row_ptr[i] as usize;
            let end = self.row_ptr[i + 1] as usize;
            for k in start..end {
                out.set(i, self.col_indices[k] as usize, self.values[k]);
            }
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
        for i in 0..self.rows {
            let start = self.row_ptr[i] as usize;
            let end = self.row_ptr[i + 1] as usize;
            let out_row = out.row_mut(i);
            for k in start..end {
                let c = self.col_indices[k] as usize;
                let v = self.values[k];
                let rhs_row = rhs.row(c);
                for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += v * b;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
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
        let dense = random_sparse(10, 17, 0.2, 11);
        let csr = CsrMatrix::from_dense(&dense);
        assert!(csr.to_dense().approx_eq(&dense, 0.0));
    }

    #[test]
    fn matmul_matches_dense_reference() {
        let a = random_sparse(8, 12, 0.3, 12);
        let b = random_sparse(12, 6, 0.9, 13);
        let csr = CsrMatrix::from_dense(&a);
        assert!(csr.matmul_dense(&b).approx_eq(&a.matmul(&b), 1e-4));
    }

    #[test]
    fn csr_and_coo_store_the_same_nonzeros() {
        let dense = random_sparse(30, 30, 0.2, 14);
        let coo = CooMatrix::from_dense(&dense);
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(coo.nnz(), csr.nnz());
    }

    #[test]
    fn empty_rows_are_represented() {
        let dense = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 0.0]]);
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.nnz(), 1);
        assert!(csr.to_dense().approx_eq(&dense, 0.0));
    }
}
