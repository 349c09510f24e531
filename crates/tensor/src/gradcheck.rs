//! Finite-difference gradient checking utilities.
//!
//! Used by the test suites of `rt3-tensor` and `rt3-transformer` to verify
//! that every analytic backward rule in [`crate::Graph`] matches a central
//! finite-difference estimate.

use crate::matrix::Matrix;

/// Result of comparing an analytic gradient against a numeric estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Largest absolute difference over all elements.
    pub max_abs_error: f32,
    /// Largest relative difference over all elements.
    pub max_rel_error: f32,
    /// Number of elements compared.
    pub elements: usize,
}

impl GradCheckReport {
    /// Returns `true` if both error measures are under `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_error <= tol || self.max_rel_error <= tol
    }
}

/// Estimates `d f / d param` with central differences and compares against
/// `analytic`.
///
/// `f` must be a deterministic scalar function of the parameter matrix.
/// `epsilon` is the perturbation size (1e-2 to 1e-3 works well for `f32`).
///
/// # Panics
///
/// Panics if `analytic` and `param` shapes differ.
pub fn check_gradient<F>(
    param: &Matrix,
    analytic: &Matrix,
    epsilon: f32,
    mut f: F,
) -> GradCheckReport
where
    F: FnMut(&Matrix) -> f32,
{
    assert_eq!(
        param.shape(),
        analytic.shape(),
        "analytic gradient shape mismatch"
    );
    let mut max_abs: f32 = 0.0;
    let mut max_rel: f32 = 0.0;
    for i in 0..param.rows() {
        for j in 0..param.cols() {
            let mut plus = param.clone();
            plus.set(i, j, param.get(i, j) + epsilon);
            let mut minus = param.clone();
            minus.set(i, j, param.get(i, j) - epsilon);
            let numeric = (f(&plus) - f(&minus)) / (2.0 * epsilon);
            let a = analytic.get(i, j);
            let abs = (numeric - a).abs();
            let rel = abs / numeric.abs().max(a.abs()).max(1e-6);
            max_abs = max_abs.max(abs);
            max_rel = max_rel.max(rel);
        }
    }
    GradCheckReport {
        max_abs_error: max_abs,
        max_rel_error: max_rel,
        elements: param.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_op<F>(rows: usize, cols: usize, tol: f32, build: F)
    where
        F: Fn(&mut Graph, crate::graph::Var) -> crate::graph::Var,
    {
        let mut rng = StdRng::seed_from_u64(42);
        let param = Matrix::xavier(rows, cols, &mut rng);
        let mut g = Graph::new();
        let w = g.leaf(param.clone());
        let loss = build(&mut g, w);
        g.backward(loss);
        let analytic = g.grad(w).clone();
        let report = check_gradient(&param, &analytic, 1e-2, |p| {
            let mut g = Graph::new();
            let w = g.leaf(p.clone());
            let loss = build(&mut g, w);
            g.scalar(loss)
        });
        assert!(report.passes(tol), "gradient check failed: {:?}", report);
    }

    #[test]
    fn gelu_gradient_matches_finite_differences() {
        check_op(3, 4, 2e-2, |g, w| {
            let y = g.gelu(w);
            g.sum_all(y)
        });
    }

    #[test]
    fn tanh_gradient_matches_finite_differences() {
        check_op(2, 5, 1e-2, |g, w| {
            let t = g.tanh(w);
            g.sum_all(t)
        });
    }

    #[test]
    fn softmax_cross_entropy_gradient_matches_finite_differences() {
        check_op(4, 5, 1e-2, |g, w| g.cross_entropy_logits(w, &[0, 2, 4, 1]));
    }

    #[test]
    fn matmul_chain_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let other = Matrix::xavier(4, 3, &mut rng);
        let other2 = other.clone();
        let mut rng2 = StdRng::seed_from_u64(42);
        let param = Matrix::xavier(3, 4, &mut rng2);
        let mut g = Graph::new();
        let w = g.leaf(param.clone());
        let c = g.constant(other.clone());
        let y = g.matmul(w, c);
        let loss = g.mean_all(y);
        g.backward(loss);
        let analytic = g.grad(w).clone();
        let report = check_gradient(&param, &analytic, 1e-2, |p| {
            let mut g = Graph::new();
            let w = g.leaf(p.clone());
            let c = g.constant(other2.clone());
            let y = g.matmul(w, c);
            let loss = g.mean_all(y);
            g.scalar(loss)
        });
        assert!(report.passes(1e-2), "{:?}", report);
    }

    #[test]
    fn layer_norm_gradient_matches_finite_differences() {
        check_op(2, 6, 3e-2, |g, w| {
            let gamma = g.constant(Matrix::filled(1, 6, 1.2));
            let beta = g.constant(Matrix::filled(1, 6, 0.1));
            let y = g.layer_norm_rows(w, gamma, beta);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
    }

    #[test]
    fn softmax_attention_like_composition_matches_finite_differences() {
        check_op(3, 3, 2e-2, |g, w| {
            let t = g.transpose(w);
            let scores = g.matmul(w, t);
            let scaled = g.scale(scores, 0.57);
            let attn = g.softmax_rows(scaled);
            let out = g.matmul(attn, w);
            let sq = g.mul(out, out);
            g.mean_all(sq)
        });
    }
}
