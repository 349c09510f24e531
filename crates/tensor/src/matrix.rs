//! Dense row-major `f32` matrix used throughout the RT3 reproduction.
//!
//! The matrix is deliberately simple: a contiguous `Vec<f32>` with explicit
//! `rows`/`cols`. All higher-level behaviour (autograd, sparsity, pruning)
//! is layered on top of this type.

use rand::Rng;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use rt3_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.shape(), (2, 2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.iter_mut().for_each(|x| *x = value);
        m
    }

    /// Creates an identity matrix of size `n x n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or the input is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Creates a matrix with elements drawn uniformly from `[-limit, limit]`.
    pub fn uniform<R: Rng + ?Sized>(rows: usize, cols: usize, limit: f32, rng: &mut R) -> Self {
        let mut m = Self::zeros(rows, cols);
        for x in m.data.iter_mut() {
            *x = rng.gen_range(-limit..=limit);
        }
        m
    }

    /// Creates a matrix using Xavier/Glorot uniform initialisation, the
    /// standard initialisation for the Transformer weights pruned by RT3.
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0_f32 / (rows + cols) as f32).sqrt();
        Self::uniform(rows, cols, limit, rng)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "column out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Element-wise map.
    pub fn map<F: FnMut(f32) -> f32>(&self, mut f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise combination of two equally shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip<F: FnMut(f32, f32) -> f32>(&self, other: &Matrix, mut f: F) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Adds `other * scale` to `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled_assign(&mut self, other: &Matrix, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * scale;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_assign(&mut self, s: f32) {
        self.data.iter_mut().for_each(|x| *x *= s);
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// l2 norm of column `c`.
    pub fn col_l2_norm(&self, c: usize) -> f32 {
        assert!(c < self.cols, "column out of bounds");
        (0..self.rows)
            .map(|r| {
                let v = self.get(r, c);
                v * v
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Number of non-zero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// Fraction of elements that are exactly zero, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        1.0 - self.count_nonzero() as f64 / self.data.len() as f64
    }

    /// Extracts a rectangular sub-matrix starting at `(row, col)` with the
    /// given shape, clamped to the matrix bounds (partial blocks at the edge
    /// are returned with their true, smaller shape).
    pub fn block(&self, row: usize, col: usize, height: usize, width: usize) -> Matrix {
        let h = height.min(self.rows.saturating_sub(row));
        let w = width.min(self.cols.saturating_sub(col));
        Matrix::from_fn(h, w, |i, j| self.get(row + i, col + j))
    }

    /// Writes `block` back into the matrix at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, row: usize, col: usize, block: &Matrix) {
        assert!(row + block.rows <= self.rows && col + block.cols <= self.cols);
        for i in 0..block.rows {
            for j in 0..block.cols {
                self.set(row + i, col + j, block.get(i, j));
            }
        }
    }

    /// Concatenates matrices horizontally (all must have equal row counts).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols requires at least one part");
        let rows = parts[0].rows;
        let total: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, total);
        let mut offset = 0;
        for p in parts {
            assert_eq!(p.rows, rows, "concat_cols row mismatch");
            for i in 0..rows {
                for j in 0..p.cols {
                    out.set(i, offset + j, p.get(i, j));
                }
            }
            offset += p.cols;
        }
        out
    }

    /// Concatenates matrices vertically (all must have equal column counts).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts differ.
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows requires at least one part");
        let cols = parts[0].cols;
        let total: usize = parts.iter().map(|p| p.rows).sum();
        let mut out = Matrix::zeros(total, cols);
        let mut offset = 0;
        for p in parts {
            assert_eq!(p.cols, cols, "concat_rows column mismatch");
            for i in 0..p.rows {
                for j in 0..cols {
                    out.set(offset + i, j, p.get(i, j));
                }
            }
            offset += p.rows;
        }
        out
    }

    /// Columns `[start, end)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols, "invalid column range");
        Matrix::from_fn(self.rows, end - start, |i, j| self.get(i, start + j))
    }

    /// Rows `[start, end)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "invalid row range");
        Matrix::from_fn(end - start, self.cols, |i, j| self.get(start + i, j))
    }

    /// Index of the maximum element of row `r` (first occurrence on ties).
    pub fn row_argmax(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Returns `true` if all elements of two matrices differ by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for i in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for j in 0..max_cols {
                write!(f, "{:8.4}", self.get(i, j))?;
                if j + 1 < max_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_cols {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f32) -> Matrix {
        self.map(|x| x * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_has_expected_shape_and_values() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::xavier(5, 5, &mut rng);
        let id = Matrix::identity(5);
        assert!(m.matmul(&id).approx_eq(&m, 1e-6));
        assert!(id.matmul(&m).approx_eq(&m, 1e-6));
    }

    #[test]
    fn matmul_matches_hand_computed_result() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert!(t.transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn sparsity_counts_zero_fraction() {
        let mut m = Matrix::filled(2, 2, 1.0);
        assert_eq!(m.sparsity(), 0.0);
        m.set(0, 0, 0.0);
        m.set(1, 1, 0.0);
        assert!((m.sparsity() - 0.5).abs() < 1e-9);
        assert_eq!(m.count_nonzero(), 2);
    }

    #[test]
    fn row_and_col_norms() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert!((m.col_l2_norm(1) - 4.0).abs() < 1e-6);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn block_extraction_and_writeback_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Matrix::xavier(6, 6, &mut rng);
        let b = m.block(2, 2, 3, 3);
        assert_eq!(b.shape(), (3, 3));
        let mut copy = Matrix::zeros(6, 6);
        copy.set_block(2, 2, &b);
        assert_eq!(copy.get(3, 3), m.get(3, 3));
        // partial block at the edge is clamped
        let edge = m.block(5, 5, 3, 3);
        assert_eq!(edge.shape(), (1, 1));
    }

    #[test]
    fn concat_and_slice_cols_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0], vec![6.0]]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert!(c.slice_cols(0, 2).approx_eq(&a, 0.0));
        assert!(c.slice_cols(2, 3).approx_eq(&b, 0.0));
    }

    #[test]
    fn concat_rows_stacks_vertically() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let c = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.get(2, 1), 6.0);
        assert!(c.slice_rows(1, 3).approx_eq(&b, 0.0));
    }

    #[test]
    fn row_argmax_returns_first_maximum() {
        let m = Matrix::from_rows(&[vec![0.0, 3.0, 3.0, 1.0]]);
        assert_eq!(m.row_argmax(0), 1);
    }

    #[test]
    fn operator_overloads() {
        let a = Matrix::filled(2, 2, 2.0);
        let b = Matrix::filled(2, 2, 1.0);
        assert!((&a + &b).approx_eq(&Matrix::filled(2, 2, 3.0), 0.0));
        assert!((&a - &b).approx_eq(&Matrix::filled(2, 2, 1.0), 0.0));
        assert!((&a * 3.0).approx_eq(&Matrix::filled(2, 2, 6.0), 0.0));
    }

    #[test]
    fn matrix_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Matrix>();
    }
}
