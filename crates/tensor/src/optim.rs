//! Gradient-descent optimizers used to train and fine-tune the Transformer
//! backbone during RT3's joint training (component ④ of the framework).

use crate::matrix::Matrix;
use std::collections::HashMap;

/// A gradient-based parameter update rule.
///
/// Each trainable matrix is identified by a stable `slot` index chosen by the
/// caller (e.g. the position of the parameter in the model's parameter list),
/// so optimizers can keep per-parameter state such as momentum buffers.
///
/// # Examples
///
/// ```
/// use rt3_tensor::{Matrix, Optimizer, Sgd};
///
/// let mut opt = Sgd::new(0.1);
/// let mut w = Matrix::from_rows(&[vec![1.0]]);
/// let grad = Matrix::from_rows(&[vec![2.0]]);
/// opt.step(0, &mut w, &grad);
/// assert!((w.get(0, 0) - 0.8).abs() < 1e-6);
/// ```
pub trait Optimizer {
    /// Applies one update to `param` given its gradient.
    ///
    /// # Panics
    ///
    /// Implementations panic if `param` and `grad` shapes differ.
    fn step(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (used by warm-up / decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: HashMap<usize, Matrix>,
}

impl Sgd {
    /// Creates SGD with learning rate `lr` and no momentum.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// Creates SGD with momentum in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive or `momentum` is out of range.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(param.shape(), grad.shape(), "optimizer shape mismatch");
        if self.momentum == 0.0 {
            param.add_scaled_assign(grad, -self.lr);
            return;
        }
        let v = self
            .velocity
            .entry(slot)
            .or_insert_with(|| Matrix::zeros(param.rows(), param.cols()));
        v.scale_assign(self.momentum);
        v.add_scaled_assign(grad, 1.0);
        param.add_scaled_assign(v, -self.lr);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba), the fine-tuning optimizer used for the
/// Transformer experiments.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step_count: HashMap<usize, u64>,
    first_moment: HashMap<usize, Matrix>,
    second_moment: HashMap<usize, Matrix>,
}

impl Adam {
    /// Creates Adam with the standard `beta1 = 0.9`, `beta2 = 0.999`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999)
    }

    /// Creates Adam with explicit betas.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive or the betas are out of `[0, 1)`.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0, 1)");
        Self {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            step_count: HashMap::new(),
            first_moment: HashMap::new(),
            second_moment: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(param.shape(), grad.shape(), "optimizer shape mismatch");
        let t = self.step_count.entry(slot).or_insert(0);
        *t += 1;
        let t = *t;
        let m = self
            .first_moment
            .entry(slot)
            .or_insert_with(|| Matrix::zeros(param.rows(), param.cols()));
        m.scale_assign(self.beta1);
        m.add_scaled_assign(grad, 1.0 - self.beta1);
        let v = self
            .second_moment
            .entry(slot)
            .or_insert_with(|| Matrix::zeros(param.rows(), param.cols()));
        let grad_sq = grad.map(|g| g * g);
        v.scale_assign(self.beta2);
        v.add_scaled_assign(&grad_sq, 1.0 - self.beta2);

        let m = &self.first_moment[&slot];
        let v = &self.second_moment[&slot];
        let bias1 = 1.0 - self.beta1.powi(t as i32);
        let bias2 = 1.0 - self.beta2.powi(t as i32);
        let lr = self.lr;
        let eps = self.eps;
        let update = m.zip(v, |mi, vi| {
            let m_hat = mi / bias1;
            let v_hat = vi / bias2;
            lr * m_hat / (v_hat.sqrt() + eps)
        });
        param.add_scaled_assign(&update, -1.0);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_moves_against_gradient() {
        let mut opt = Sgd::new(0.5);
        let mut w = Matrix::from_rows(&[vec![1.0, -1.0]]);
        let g = Matrix::from_rows(&[vec![1.0, -1.0]]);
        opt.step(0, &mut w, &g);
        assert_eq!(w.row(0), &[0.5, -0.5]);
    }

    #[test]
    fn sgd_momentum_accelerates_repeated_direction() {
        let mut plain = Sgd::new(0.1);
        let mut momentum = Sgd::with_momentum(0.1, 0.9);
        let g = Matrix::from_rows(&[vec![1.0]]);
        let mut w_plain = Matrix::from_rows(&[vec![0.0]]);
        let mut w_mom = Matrix::from_rows(&[vec![0.0]]);
        for _ in 0..5 {
            plain.step(0, &mut w_plain, &g);
            momentum.step(0, &mut w_mom, &g);
        }
        assert!(w_mom.get(0, 0) < w_plain.get(0, 0));
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // minimise f(w) = (w - 3)^2
        let mut opt = Adam::new(0.1);
        let mut w = Matrix::from_rows(&[vec![0.0]]);
        for _ in 0..500 {
            let grad = Matrix::from_rows(&[vec![2.0 * (w.get(0, 0) - 3.0)]]);
            opt.step(0, &mut w, &grad);
        }
        assert!((w.get(0, 0) - 3.0).abs() < 0.05, "w = {}", w.get(0, 0));
    }

    #[test]
    fn learning_rate_can_be_rescheduled() {
        let mut opt = Adam::new(0.1);
        opt.set_learning_rate(0.01);
        assert!((opt.learning_rate() - 0.01).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn sgd_rejects_non_positive_lr() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    #[should_panic(expected = "optimizer shape mismatch")]
    fn step_rejects_mismatched_shapes() {
        let mut opt = Sgd::new(0.1);
        let mut w = Matrix::zeros(2, 2);
        let g = Matrix::zeros(1, 2);
        opt.step(0, &mut w, &g);
    }
}
