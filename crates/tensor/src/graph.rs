//! Tape-based reverse-mode automatic differentiation.
//!
//! The RT3 framework fine-tunes a shared backbone Transformer under multiple
//! pruning masks (Fig. 2 of the paper). That joint training is expressed on
//! top of this small autograd engine: a [`Graph`] records every operation of
//! a forward pass, [`Graph::backward`] then propagates gradients from a
//! scalar loss back to every leaf.
//!
//! A [`Var`] is a cheap copyable handle into the graph's tape. Parameters are
//! introduced with [`Graph::leaf`], constants (inputs, masks) with
//! [`Graph::constant`]; after `backward` the gradient of any variable can be
//! read with [`Graph::grad`].
//!
//! # Examples
//!
//! ```
//! use rt3_tensor::{Graph, Matrix};
//!
//! let mut g = Graph::new();
//! let w = g.leaf(Matrix::from_rows(&[vec![2.0]]));
//! let x = g.constant(Matrix::from_rows(&[vec![3.0]]));
//! let y = g.mul(w, x);
//! let loss = g.sum_all(y);
//! g.backward(loss);
//! assert_eq!(g.grad(w).get(0, 0), 3.0);
//! ```

use crate::matrix::Matrix;

/// Handle to a node in a [`Graph`] tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    /// Leaf parameter or constant input; no backward propagation beyond it.
    Leaf,
    Add(Var, Var),
    Mul(Var, Var),
    MulConst(Var, Matrix),
    Scale(Var, f32),
    AddRowBroadcast(Var, Var),
    MatMul(Var, Var),
    Transpose(Var),
    Gelu(Var),
    Tanh(Var),
    SoftmaxRows(Var),
    LayerNormRows {
        input: Var,
        gamma: Var,
        beta: Var,
        normalized: Matrix,
        inv_std: Vec<f32>,
    },
    Gather {
        table: Var,
        indices: Vec<usize>,
    },
    ConcatCols(Vec<Var>),
    SliceCols {
        input: Var,
        start: usize,
    },
    SliceRows {
        input: Var,
        start: usize,
    },
    SumAll(Var),
    MeanAll(Var),
    CrossEntropyLogits {
        logits: Var,
        targets: Vec<usize>,
        softmax: Matrix,
    },
    MseLoss {
        pred: Var,
        target: Matrix,
    },
}

#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    grad: Matrix,
    op: Op,
    requires_grad: bool,
}

/// Reverse-mode autodiff tape.
///
/// See the `graph` module documentation for an overview and example.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op, requires_grad: bool) -> Var {
        let grad = Matrix::zeros(value.rows(), value.cols());
        self.nodes.push(Node {
            value,
            grad,
            op,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Registers a trainable leaf (gradients will be accumulated for it).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Registers a constant input (no gradient is accumulated for it).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Value of a variable.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of a variable, valid after [`Graph::backward`].
    pub fn grad(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].grad
    }

    /// Element-wise sum of two variables.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x + y);
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::Add(a, b), rg)
    }

    /// Element-wise (Hadamard) product of two variables.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x * y);
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::Mul(a, b), rg)
    }

    /// Element-wise product with a constant matrix (used to apply pruning
    /// masks to weights: the mask never receives a gradient).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul_const(&mut self, a: Var, mask: &Matrix) -> Var {
        let value = self.nodes[a.0].value.zip(mask, |x, y| x * y);
        let rg = self.requires(a);
        self.push(value, Op::MulConst(a, mask.clone()), rg)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.nodes[a.0].value.map(|x| x * s);
        let rg = self.requires(a);
        self.push(value, Op::Scale(a, s), rg)
    }

    /// Adds a `1 x cols` bias row to every row of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x a.cols()`.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let am = &self.nodes[a.0].value;
        let bm = &self.nodes[bias.0].value;
        assert_eq!(bm.rows(), 1, "bias must be a single row");
        assert_eq!(bm.cols(), am.cols(), "bias width mismatch");
        let mut value = am.clone();
        for i in 0..value.rows() {
            for j in 0..value.cols() {
                let v = value.get(i, j) + bm.get(0, j);
                value.set(i, j, v);
            }
        }
        let rg = self.requires(a) || self.requires(bias);
        self.push(value, Op::AddRowBroadcast(a, bias), rg)
    }

    /// Matrix product `a * b`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::MatMul(a, b), rg)
    }

    /// Transpose of `a`.
    pub fn transpose(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.transpose();
        let rg = self.requires(a);
        self.push(value, Op::Transpose(a), rg)
    }

    /// Gaussian error linear unit (tanh approximation), the Transformer FFN
    /// activation used by BERT-family models.
    pub fn gelu(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(gelu_scalar);
        let rg = self.requires(a);
        self.push(value, Op::Gelu(a), rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|x| x.tanh());
        let rg = self.requires(a);
        self.push(value, Op::Tanh(a), rg)
    }

    /// Row-wise numerically stable softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let value = softmax_rows_matrix(&self.nodes[a.0].value);
        let rg = self.requires(a);
        self.push(value, Op::SoftmaxRows(a), rg)
    }

    /// Row-wise layer normalisation with learnable `gamma` and `beta`
    /// (each `1 x cols`).
    ///
    /// # Panics
    ///
    /// Panics if `gamma`/`beta` are not `1 x a.cols()`.
    pub fn layer_norm_rows(&mut self, a: Var, gamma: Var, beta: Var) -> Var {
        const EPS: f32 = 1e-5;
        let input = self.nodes[a.0].value.clone();
        let gm = &self.nodes[gamma.0].value;
        let bm = &self.nodes[beta.0].value;
        assert_eq!(gm.rows(), 1, "gamma must be a single row");
        assert_eq!(bm.rows(), 1, "beta must be a single row");
        assert_eq!(gm.cols(), input.cols(), "gamma width mismatch");
        assert_eq!(bm.cols(), input.cols(), "beta width mismatch");
        let mut normalized = Matrix::zeros(input.rows(), input.cols());
        let mut inv_std = Vec::with_capacity(input.rows());
        let mut value = Matrix::zeros(input.rows(), input.cols());
        for i in 0..input.rows() {
            let row = input.row(i);
            let mean = row.iter().sum::<f32>() / row.len() as f32;
            let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / row.len() as f32;
            let istd = 1.0 / (var + EPS).sqrt();
            inv_std.push(istd);
            for j in 0..input.cols() {
                let n = (input.get(i, j) - mean) * istd;
                normalized.set(i, j, n);
                value.set(i, j, n * gm.get(0, j) + bm.get(0, j));
            }
        }
        let rg = self.requires(a) || self.requires(gamma) || self.requires(beta);
        self.push(
            value,
            Op::LayerNormRows {
                input: a,
                gamma,
                beta,
                normalized,
                inv_std,
            },
            rg,
        )
    }

    /// Gathers rows of `table` at `indices` (embedding lookup).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&mut self, table: Var, indices: &[usize]) -> Var {
        let t = &self.nodes[table.0].value;
        for &i in indices {
            assert!(i < t.rows(), "gather index {} out of bounds", i);
        }
        let value = Matrix::from_fn(indices.len(), t.cols(), |i, j| t.get(indices[i], j));
        let rg = self.requires(table);
        self.push(
            value,
            Op::Gather {
                table,
                indices: indices.to_vec(),
            },
            rg,
        )
    }

    /// Horizontal concatenation of variables with equal row counts.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols requires at least one part");
        let mats: Vec<&Matrix> = parts.iter().map(|v| &self.nodes[v.0].value).collect();
        let value = Matrix::concat_cols(&mats);
        let rg = parts.iter().any(|&p| self.requires(p));
        self.push(value, Op::ConcatCols(parts.to_vec()), rg)
    }

    /// Columns `[start, end)` of `a`.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let value = self.nodes[a.0].value.slice_cols(start, end);
        let rg = self.requires(a);
        self.push(value, Op::SliceCols { input: a, start }, rg)
    }

    /// Rows `[start, end)` of `a`.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid.
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let value = self.nodes[a.0].value.slice_rows(start, end);
        let rg = self.requires(a);
        self.push(value, Op::SliceRows { input: a, start }, rg)
    }

    /// Sum of all elements as a `1 x 1` matrix.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_rows(&[vec![self.nodes[a.0].value.sum()]]);
        let rg = self.requires(a);
        self.push(value, Op::SumAll(a), rg)
    }

    /// Mean of all elements as a `1 x 1` matrix.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_rows(&[vec![self.nodes[a.0].value.mean()]]);
        let rg = self.requires(a);
        self.push(value, Op::MeanAll(a), rg)
    }

    /// Softmax cross-entropy between `logits` (one row per example) and the
    /// target class indices; returns the mean loss as a `1 x 1` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != logits.rows()` or a target is out of range.
    pub fn cross_entropy_logits(&mut self, logits: Var, targets: &[usize]) -> Var {
        let lm = &self.nodes[logits.0].value;
        assert_eq!(targets.len(), lm.rows(), "one target per logits row");
        for &t in targets {
            assert!(t < lm.cols(), "target class {} out of range", t);
        }
        let softmax = softmax_rows_matrix(lm);
        let n = targets.len() as f32;
        let mut loss = 0.0;
        for (i, &t) in targets.iter().enumerate() {
            loss -= softmax.get(i, t).max(1e-12).ln();
        }
        let value = Matrix::from_rows(&[vec![loss / n]]);
        let rg = self.requires(logits);
        self.push(
            value,
            Op::CrossEntropyLogits {
                logits,
                targets: targets.to_vec(),
                softmax,
            },
            rg,
        )
    }

    /// Mean-squared error between `pred` and a constant `target`; returns the
    /// mean loss as a `1 x 1` matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse_loss(&mut self, pred: Var, target: &Matrix) -> Var {
        let pm = &self.nodes[pred.0].value;
        assert_eq!(pm.shape(), target.shape(), "mse shape mismatch");
        let n = pm.len() as f32;
        let loss = pm
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f32>()
            / n;
        let value = Matrix::from_rows(&[vec![loss]]);
        let rg = self.requires(pred);
        self.push(
            value,
            Op::MseLoss {
                pred,
                target: target.clone(),
            },
            rg,
        )
    }

    /// Scalar value of a `1 x 1` variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable is not `1 x 1`.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar() requires a 1x1 variable");
        m.get(0, 0)
    }

    fn requires(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Runs reverse-mode differentiation from the scalar variable `loss`.
    ///
    /// All gradients stored in the tape are reset, then gradients are
    /// propagated from `loss` to every reachable node; read them with
    /// [`Graph::grad`]. To differentiate a weighted combination of several
    /// sub-losses (the multi-pattern joint loss of Fig. 2), combine them
    /// in-graph with [`Graph::scale`] and [`Graph::add`] and call `backward`
    /// once on the combined scalar.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a `1 x 1` variable.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward requires a scalar loss"
        );
        for node in self.nodes.iter_mut() {
            node.grad.fill_zero();
        }
        self.nodes[loss.0].grad.set(0, 0, 1.0);
        for idx in (0..=loss.0).rev() {
            if !self.nodes[idx].requires_grad {
                continue;
            }
            let grad = self.nodes[idx].grad.clone();
            if grad.as_slice().iter().all(|&g| g == 0.0) {
                continue;
            }
            let op = self.nodes[idx].op.clone();
            match op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    self.accumulate(a, &grad);
                    self.accumulate(b, &grad);
                }
                Op::Mul(a, b) => {
                    let ga = grad.zip(&self.nodes[b.0].value, |g, y| g * y);
                    let gb = grad.zip(&self.nodes[a.0].value, |g, x| g * x);
                    self.accumulate(a, &ga);
                    self.accumulate(b, &gb);
                }
                Op::MulConst(a, mask) => {
                    let ga = grad.zip(&mask, |g, m| g * m);
                    self.accumulate(a, &ga);
                }
                Op::Scale(a, s) => {
                    let ga = grad.map(|g| g * s);
                    self.accumulate(a, &ga);
                }
                Op::AddRowBroadcast(a, bias) => {
                    self.accumulate(a, &grad);
                    let mut gb = Matrix::zeros(1, grad.cols());
                    for i in 0..grad.rows() {
                        for j in 0..grad.cols() {
                            let v = gb.get(0, j) + grad.get(i, j);
                            gb.set(0, j, v);
                        }
                    }
                    self.accumulate(bias, &gb);
                }
                Op::MatMul(a, b) => {
                    let bt = self.nodes[b.0].value.transpose();
                    let at = self.nodes[a.0].value.transpose();
                    let ga = grad.matmul(&bt);
                    let gb = at.matmul(&grad);
                    self.accumulate(a, &ga);
                    self.accumulate(b, &gb);
                }
                Op::Transpose(a) => {
                    let ga = grad.transpose();
                    self.accumulate(a, &ga);
                }
                Op::Gelu(a) => {
                    let ga = grad.zip(&self.nodes[a.0].value, |g, x| g * gelu_grad_scalar(x));
                    self.accumulate(a, &ga);
                }
                Op::Tanh(a) => {
                    let ga = grad.zip(&self.nodes[idx].value, |g, y| g * (1.0 - y * y));
                    self.accumulate(a, &ga);
                }
                Op::SoftmaxRows(a) => {
                    let y = &self.nodes[idx].value;
                    let mut ga = Matrix::zeros(y.rows(), y.cols());
                    for i in 0..y.rows() {
                        let dot: f32 = (0..y.cols()).map(|j| grad.get(i, j) * y.get(i, j)).sum();
                        for j in 0..y.cols() {
                            ga.set(i, j, y.get(i, j) * (grad.get(i, j) - dot));
                        }
                    }
                    self.accumulate(a, &ga);
                }
                Op::LayerNormRows {
                    input,
                    gamma,
                    beta,
                    normalized,
                    inv_std,
                } => {
                    let cols = normalized.cols() as f32;
                    let gm = self.nodes[gamma.0].value.clone();
                    let mut g_input = Matrix::zeros(normalized.rows(), normalized.cols());
                    let mut g_gamma = Matrix::zeros(1, normalized.cols());
                    let mut g_beta = Matrix::zeros(1, normalized.cols());
                    #[allow(clippy::needless_range_loop)]
                    for i in 0..normalized.rows() {
                        // dL/dxhat per element
                        let dxhat: Vec<f32> = (0..normalized.cols())
                            .map(|j| grad.get(i, j) * gm.get(0, j))
                            .collect();
                        let sum_dxhat: f32 = dxhat.iter().sum();
                        let sum_dxhat_xhat: f32 = dxhat
                            .iter()
                            .enumerate()
                            .map(|(j, d)| d * normalized.get(i, j))
                            .sum();
                        #[allow(clippy::needless_range_loop)]
                        for j in 0..normalized.cols() {
                            let xhat = normalized.get(i, j);
                            let gi = inv_std[i] / cols
                                * (cols * dxhat[j] - sum_dxhat - xhat * sum_dxhat_xhat);
                            g_input.set(i, j, gi);
                            let gg = g_gamma.get(0, j) + grad.get(i, j) * xhat;
                            g_gamma.set(0, j, gg);
                            let gb = g_beta.get(0, j) + grad.get(i, j);
                            g_beta.set(0, j, gb);
                        }
                    }
                    self.accumulate(input, &g_input);
                    self.accumulate(gamma, &g_gamma);
                    self.accumulate(beta, &g_beta);
                }
                Op::Gather { table, indices } => {
                    let t_shape = self.nodes[table.0].value.shape();
                    let mut gt = Matrix::zeros(t_shape.0, t_shape.1);
                    for (i, &row) in indices.iter().enumerate() {
                        for j in 0..t_shape.1 {
                            let v = gt.get(row, j) + grad.get(i, j);
                            gt.set(row, j, v);
                        }
                    }
                    self.accumulate(table, &gt);
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for p in parts {
                        let w = self.nodes[p.0].value.cols();
                        let gp = grad.slice_cols(offset, offset + w);
                        self.accumulate(p, &gp);
                        offset += w;
                    }
                }
                Op::SliceCols { input, start } => {
                    let shape = self.nodes[input.0].value.shape();
                    let mut gi = Matrix::zeros(shape.0, shape.1);
                    gi.set_block(0, start, &grad);
                    self.accumulate(input, &gi);
                }
                Op::SliceRows { input, start } => {
                    let shape = self.nodes[input.0].value.shape();
                    let mut gi = Matrix::zeros(shape.0, shape.1);
                    gi.set_block(start, 0, &grad);
                    self.accumulate(input, &gi);
                }
                Op::SumAll(a) => {
                    let g = grad.get(0, 0);
                    let shape = self.nodes[a.0].value.shape();
                    let ga = Matrix::filled(shape.0, shape.1, g);
                    self.accumulate(a, &ga);
                }
                Op::MeanAll(a) => {
                    let shape = self.nodes[a.0].value.shape();
                    let g = grad.get(0, 0) / (shape.0 * shape.1) as f32;
                    let ga = Matrix::filled(shape.0, shape.1, g);
                    self.accumulate(a, &ga);
                }
                Op::CrossEntropyLogits {
                    logits,
                    targets,
                    softmax,
                } => {
                    let g = grad.get(0, 0);
                    let n = targets.len() as f32;
                    let mut gl = softmax.clone();
                    for (i, &t) in targets.iter().enumerate() {
                        let v = gl.get(i, t) - 1.0;
                        gl.set(i, t, v);
                    }
                    gl.scale_assign(g / n);
                    self.accumulate(logits, &gl);
                }
                Op::MseLoss { pred, target } => {
                    let g = grad.get(0, 0);
                    let n = target.len() as f32;
                    let gp = self.nodes[pred.0]
                        .value
                        .zip(&target, |p, t| 2.0 * (p - t) * g / n);
                    self.accumulate(pred, &gp);
                }
            }
        }
    }

    fn accumulate(&mut self, v: Var, grad: &Matrix) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        self.nodes[v.0].grad.add_scaled_assign(grad, 1.0);
    }
}

/// Row-wise numerically stable softmax of a plain matrix (shared by the
/// forward op and the fused cross-entropy loss).
pub fn softmax_rows_matrix(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for i in 0..m.rows() {
        let row = m.row(i);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        for (j, e) in exps.iter().enumerate() {
            out.set(i, j, e / sum);
        }
    }
    out
}

fn gelu_scalar(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)).tanh())
}

fn gelu_grad_scalar(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    let inner = SQRT_2_OVER_PI * (x + 0.044715 * x * x * x);
    let tanh_inner = inner.tanh();
    let sech2 = 1.0 - tanh_inner * tanh_inner;
    0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_mul_gradients() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[vec![2.0, 3.0]]));
        let b = g.leaf(Matrix::from_rows(&[vec![4.0, 5.0]]));
        let s = g.mul(a, b);
        let loss = g.sum_all(s);
        g.backward(loss);
        assert_eq!(g.grad(a).row(0), &[4.0, 5.0]);
        assert_eq!(g.grad(b).row(0), &[2.0, 3.0]);
    }

    #[test]
    fn matmul_gradients_match_analytic_form() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let b = g.leaf(Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]));
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        g.backward(loss);
        // dL/dA = ones * B^T
        assert_eq!(g.grad(a).row(0), &[11.0, 15.0]);
        assert_eq!(g.grad(a).row(1), &[11.0, 15.0]);
        // dL/dB = A^T * ones
        assert_eq!(g.grad(b).row(0), &[4.0, 4.0]);
        assert_eq!(g.grad(b).row(1), &[6.0, 6.0]);
    }

    #[test]
    fn constants_do_not_accumulate_gradients() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::filled(1, 2, 2.0));
        let mask = g.constant(Matrix::from_rows(&[vec![1.0, 0.0]]));
        let masked = g.mul(a, mask);
        let loss = g.sum_all(masked);
        g.backward(loss);
        assert_eq!(g.grad(a).row(0), &[1.0, 0.0]);
        assert!(g.grad(mask).as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn mask_through_mul_const_blocks_gradient() {
        let mut g = Graph::new();
        let w = g.leaf(Matrix::filled(2, 2, 3.0));
        let mask = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let masked = g.mul_const(w, &mask);
        let loss = g.sum_all(masked);
        g.backward(loss);
        assert_eq!(g.grad(w).get(0, 0), 1.0);
        assert_eq!(g.grad(w).get(0, 1), 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![-1.0, 0.0, 1.0],
        ]));
        let s = g.softmax_rows(a);
        for i in 0..2 {
            let sum: f32 = g.value(s).row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_decreases_for_correct_logit() {
        let mut g = Graph::new();
        let good = g.leaf(Matrix::from_rows(&[vec![5.0, 0.0]]));
        let l_good = g.cross_entropy_logits(good, &[0]);
        let bad = g.leaf(Matrix::from_rows(&[vec![0.0, 5.0]]));
        let l_bad = g.cross_entropy_logits(bad, &[0]);
        assert!(g.scalar(l_good) < g.scalar(l_bad));
    }

    #[test]
    fn gather_rows_scatters_gradient_back() {
        let mut g = Graph::new();
        let table = g.leaf(Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![2.0, 2.0],
        ]));
        let e = g.gather_rows(table, &[2, 2, 0]);
        let loss = g.sum_all(e);
        g.backward(loss);
        assert_eq!(g.grad(table).row(2), &[2.0, 2.0]);
        assert_eq!(g.grad(table).row(0), &[1.0, 1.0]);
        assert_eq!(g.grad(table).row(1), &[0.0, 0.0]);
    }

    #[test]
    fn layer_norm_output_is_normalised() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]));
        let gamma = g.leaf(Matrix::filled(1, 4, 1.0));
        let beta = g.leaf(Matrix::zeros(1, 4));
        let y = g.layer_norm_rows(x, gamma, beta);
        let row = g.value(y).row(0);
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-4);
        assert!((var - 1.0).abs() < 1e-2);
    }

    #[test]
    fn mse_loss_gradient_points_towards_target() {
        let mut g = Graph::new();
        let pred = g.leaf(Matrix::from_rows(&[vec![2.0]]));
        let target = Matrix::from_rows(&[vec![5.0]]);
        let loss = g.mse_loss(pred, &target);
        g.backward(loss);
        assert!(g.grad(pred).get(0, 0) < 0.0);
        assert!((g.scalar(loss) - 9.0).abs() < 1e-5);
    }

    #[test]
    fn weighted_sum_of_sub_losses_accumulates_in_graph() {
        // Mirrors the weighted multi-pattern-set loss of Fig. 2: the total
        // loss is built in-graph and differentiated once.
        let mut g = Graph::new();
        let w = g.leaf(Matrix::from_rows(&[vec![1.0]]));
        let x = g.constant(Matrix::from_rows(&[vec![2.0]]));
        let y1 = g.mul(w, x);
        let l1 = g.sum_all(y1);
        let y2 = g.mul(w, x);
        let l2 = g.sum_all(y2);
        let l1_weighted = g.scale(l1, 0.5);
        let l2_weighted = g.scale(l2, 0.5);
        let total = g.add(l1_weighted, l2_weighted);
        g.backward(total);
        assert_eq!(g.grad(w).get(0, 0), 2.0);
    }

    #[test]
    fn second_backward_resets_previous_gradients() {
        let mut g = Graph::new();
        let w = g.leaf(Matrix::from_rows(&[vec![1.0]]));
        let x = g.constant(Matrix::from_rows(&[vec![2.0]]));
        let y = g.mul(w, x);
        let l = g.sum_all(y);
        g.backward(l);
        g.backward(l);
        assert_eq!(g.grad(w).get(0, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "backward requires a scalar loss")]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::zeros(2, 2));
        g.backward(a);
    }
}
