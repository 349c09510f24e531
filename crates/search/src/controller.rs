//! RNN-based reinforcement-learning controller (component ② of RT3).
//!
//! The controller predicts one action per step — in RT3, one candidate
//! pattern set per V/F level — from a softmax head on top of a small
//! recurrent cell, and is trained with REINFORCE (policy gradient with a
//! moving-average baseline), following the NAS-style controller of Zoph &
//! Le that the paper cites. The Level-2 search drives it through
//! [`Reinforce`](crate::Reinforce), the [`Optimizer`](crate::Optimizer)
//! adapter that makes this controller one pluggable optimizer among
//! several; the controller itself knows nothing about that boundary.
//!
//! # Examples
//!
//! ```
//! use rt3_search::{Controller, ControllerConfig};
//!
//! let mut controller = Controller::new(ControllerConfig {
//!     steps: 3,
//!     actions_per_step: 6,
//!     ..ControllerConfig::default()
//! });
//! let episode = controller.sample_episode();
//! controller.update(&episode, 0.42);
//! assert!(controller.baseline() > 0.0);
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt3_tensor::{softmax_rows_matrix, Adam, Graph, Matrix, Optimizer, Var};

/// Configuration of the RNN controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Number of decision steps per episode (one per V/F level).
    pub steps: usize,
    /// Number of discrete actions available at every step (candidate pattern
    /// sets).
    pub actions_per_step: usize,
    /// Hidden size of the recurrent cell.
    pub hidden_dim: usize,
    /// Learning rate of the policy-gradient update.
    pub learning_rate: f32,
    /// Exponential moving-average factor of the reward baseline.
    pub baseline_decay: f64,
    /// RNG seed for parameter initialisation and action sampling.
    pub seed: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            steps: 3,
            actions_per_step: 5,
            hidden_dim: 16,
            learning_rate: 5e-2,
            baseline_decay: 0.8,
            seed: 0x71,
        }
    }
}

impl ControllerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.steps == 0 || self.actions_per_step == 0 || self.hidden_dim == 0 {
            return Err("steps, actions_per_step and hidden_dim must be positive".into());
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err("learning rate must be positive".into());
        }
        if !(0.0..1.0).contains(&self.baseline_decay) {
            return Err("baseline_decay must be in [0, 1)".into());
        }
        Ok(())
    }
}

/// One sampled episode: the chosen action per step and the policy
/// probabilities they were drawn from.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    /// Chosen action index per step.
    pub actions: Vec<usize>,
    /// Probability the policy assigned to each chosen action.
    pub probabilities: Vec<f64>,
}

/// The RNN policy controller.
///
/// # Examples
///
/// ```
/// use rt3_search::{Controller, ControllerConfig};
///
/// let mut controller = Controller::new(ControllerConfig::default());
/// let episode = controller.sample_episode();
/// assert_eq!(episode.actions.len(), 3);
/// controller.update(&episode, 0.7);
/// ```
#[derive(Debug, Clone)]
pub struct Controller {
    config: ControllerConfig,
    /// Input embedding of the previous action (one row per action + one
    /// initial "start" row).
    action_embedding: Matrix,
    /// Recurrent input weight.
    w_in: Matrix,
    /// Recurrent hidden weight.
    w_hidden: Matrix,
    /// Recurrent bias.
    b_hidden: Matrix,
    /// Softmax output head.
    w_out: Matrix,
    b_out: Matrix,
    baseline: f64,
    baseline_initialised: bool,
    optimizer: Adam,
    rng: StdRng,
}

impl Controller {
    /// Creates a controller with randomly initialised policy parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ControllerConfig) -> Self {
        config.validate().expect("invalid controller configuration");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let h = config.hidden_dim;
        let a = config.actions_per_step;
        Self {
            action_embedding: Matrix::xavier(a + 1, h, &mut rng),
            w_in: Matrix::xavier(h, h, &mut rng),
            w_hidden: Matrix::xavier(h, h, &mut rng),
            b_hidden: Matrix::zeros(1, h),
            w_out: Matrix::xavier(h, a, &mut rng),
            b_out: Matrix::zeros(1, a),
            baseline: 0.0,
            baseline_initialised: false,
            optimizer: Adam::new(config.learning_rate),
            rng,
            config,
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Current reward baseline (exponential moving average of rewards).
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// Logits at every step given a fixed action history (teacher-forced),
    /// as a differentiable graph for the update. Step `t + 1`'s input is
    /// `actions[t]`'s embedding row; a history shorter than the episode
    /// feeds the start row after its end.
    fn rollout_logits(&self, g: &mut Graph, actions: &[usize]) -> (Vec<Var>, Vec<Var>) {
        let embed = g.leaf(self.action_embedding.clone());
        let w_in = g.leaf(self.w_in.clone());
        let w_hidden = g.leaf(self.w_hidden.clone());
        let b_hidden = g.leaf(self.b_hidden.clone());
        let w_out = g.leaf(self.w_out.clone());
        let b_out = g.leaf(self.b_out.clone());
        let params = vec![embed, w_in, w_hidden, b_hidden, w_out, b_out];
        let mut hidden = g.constant(Matrix::zeros(1, self.config.hidden_dim));
        let mut logits_per_step = Vec::with_capacity(self.config.steps);
        let mut previous_action: Option<usize> = None;
        for step in 0..self.config.steps {
            let input_row = match previous_action {
                Some(a) => a + 1,
                None => 0,
            };
            let input = g.gather_rows(embed, &[input_row]);
            let from_input = g.matmul(input, w_in);
            let from_hidden = g.matmul(hidden, w_hidden);
            let pre = g.add(from_input, from_hidden);
            let pre = g.add_row_broadcast(pre, b_hidden);
            hidden = g.tanh(pre);
            let logits = g.matmul(hidden, w_out);
            let logits = g.add_row_broadcast(logits, b_out);
            logits_per_step.push(logits);
            previous_action = actions.get(step).copied();
        }
        (logits_per_step, params)
    }

    /// Runs the policy forward once, step by step: each step's action
    /// probabilities go to `choose(step, probs)`, and its pick is the next
    /// step's input. The cell runs the graph forward pass's own `Matrix`
    /// operations in its order (row gather, input and hidden products,
    /// their sum, bias, `tanh`, output product and bias, softmax), so the
    /// probabilities are bit-identical to reading them off
    /// [`Self::rollout_logits`] with the chosen history, without building
    /// a graph or re-running earlier steps.
    fn rollout(&self, mut choose: impl FnMut(usize, &Matrix) -> usize) -> Episode {
        let h = self.config.hidden_dim;
        let mut hidden = Matrix::zeros(1, h);
        let mut input_row = 0;
        let mut actions = Vec::with_capacity(self.config.steps);
        let mut probabilities = Vec::with_capacity(self.config.steps);
        for step in 0..self.config.steps {
            let input = Matrix::from_vec(1, h, self.action_embedding.row(input_row).to_vec());
            let pre = input
                .matmul(&self.w_in)
                .zip(&hidden.matmul(&self.w_hidden), |x, y| x + y);
            hidden = add_bias(pre, &self.b_hidden).map(|x| x.tanh());
            let logits = add_bias(hidden.matmul(&self.w_out), &self.b_out);
            let probs = softmax_rows_matrix(&logits);
            let action = choose(step, &probs);
            probabilities.push(probs.get(0, action) as f64);
            actions.push(action);
            input_row = action + 1;
        }
        Episode {
            actions,
            probabilities,
        }
    }

    /// Samples one episode from the current policy: one uniform draw per
    /// step, each step conditioned on the previous choice.
    pub fn sample_episode(&mut self) -> Episode {
        let draws: Vec<f64> = (0..self.config.steps).map(|_| self.rng.gen()).collect();
        let last = self.config.actions_per_step - 1;
        self.rollout(|step, probs| {
            let mut acc = 0.0;
            for a in 0..last {
                acc += probs.get(0, a) as f64;
                if draws[step] <= acc {
                    return a;
                }
            }
            last
        })
    }

    /// Greedy (argmax) episode from the current policy, used to read out the
    /// best architecture after the search finishes.
    pub fn best_episode(&self) -> Episode {
        self.rollout(|_, probs| probs.row_argmax(0))
    }

    /// REINFORCE update: increases the probability of the episode's actions
    /// in proportion to the advantage `reward - baseline`, then updates the
    /// baseline.
    pub fn update(&mut self, episode: &Episode, reward: f64) {
        assert_eq!(
            episode.actions.len(),
            self.config.steps,
            "episode length mismatch"
        );
        let advantage = if self.baseline_initialised {
            reward - self.baseline
        } else {
            0.0
        };
        // baseline update happens regardless of whether we step the policy
        if self.baseline_initialised {
            self.baseline = self.config.baseline_decay * self.baseline
                + (1.0 - self.config.baseline_decay) * reward;
        } else {
            self.baseline = reward;
            self.baseline_initialised = true;
        }
        if advantage == 0.0 {
            return;
        }
        let mut g = Graph::new();
        let (logits, params) = self.rollout_logits(&mut g, &episode.actions);
        // loss = -advantage * sum_t log pi(a_t); cross_entropy gives -log pi
        let mut nll_total: Option<Var> = None;
        for (step, logit) in logits.iter().enumerate() {
            let nll = g.cross_entropy_logits(*logit, &[episode.actions[step]]);
            nll_total = Some(match nll_total {
                Some(acc) => g.add(acc, nll),
                None => nll,
            });
        }
        let loss = g.scale(nll_total.expect("at least one step"), advantage as f32);
        g.backward(loss);
        let grads: Vec<Matrix> = params.iter().map(|&p| g.grad(p).clone()).collect();
        let mut targets: Vec<&mut Matrix> = vec![
            &mut self.action_embedding,
            &mut self.w_in,
            &mut self.w_hidden,
            &mut self.b_hidden,
            &mut self.w_out,
            &mut self.b_out,
        ];
        for (slot, (target, grad)) in targets.iter_mut().zip(grads.iter()).enumerate() {
            self.optimizer.step(slot, target, grad);
        }
    }

    /// Probability distribution over actions at the first step (useful for
    /// inspecting what the policy has learnt).
    pub fn first_step_distribution(&self) -> Vec<f64> {
        let mut first = Vec::new();
        self.rollout(|step, probs| {
            if step == 0 {
                first = probs.row(0).iter().map(|&p| p as f64).collect();
            }
            0
        });
        first
    }
}

/// `m` plus the single-row `bias` on every row: the graph's
/// `add_row_broadcast` forward value.
fn add_bias(mut m: Matrix, bias: &Matrix) -> Matrix {
    for i in 0..m.rows() {
        for (v, &b) in m.row_mut(i).iter_mut().zip(bias.row(0)) {
            *v += b;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The graph-built rollout the one-pass cell replaced: a fresh graph
    /// per step that re-runs every earlier step, reading the step's
    /// probabilities off the teacher-forced logits. `draw` supplies the
    /// step's uniform draw, or `None` for the greedy readout.
    fn graph_episode(c: &Controller, mut draw: impl FnMut() -> Option<f64>) -> Episode {
        let mut actions = Vec::new();
        let mut probabilities = Vec::new();
        for step in 0..c.config.steps {
            let mut g = Graph::new();
            let (logits, _) = c.rollout_logits(&mut g, &actions);
            let probs = softmax_rows_matrix(g.value(logits[step]));
            let action = match draw() {
                Some(r) => {
                    let mut acc = 0.0;
                    let mut action = c.config.actions_per_step - 1;
                    for a in 0..c.config.actions_per_step {
                        acc += probs.get(0, a) as f64;
                        if r <= acc {
                            action = a;
                            break;
                        }
                    }
                    action
                }
                None => probs.row_argmax(0),
            };
            probabilities.push(probs.get(0, action) as f64);
            actions.push(action);
        }
        Episode {
            actions,
            probabilities,
        }
    }

    fn bits(p: &[f64]) -> Vec<u64> {
        p.iter().map(|v| v.to_bits()).collect()
    }

    /// Sampling, the greedy readout and the first-step distribution from
    /// the one-pass rollout equal the graph-built reference — the same
    /// actions, bit-equal probabilities, the same random draws — over 60
    /// episodes with a policy update between them, for two shapes.
    #[test]
    fn one_pass_rollout_matches_the_graph_built_sampler() {
        let shapes = [
            ControllerConfig::default(),
            ControllerConfig {
                steps: 5,
                actions_per_step: 7,
                hidden_dim: 6,
                seed: 9,
                ..ControllerConfig::default()
            },
        ];
        for config in shapes {
            let mut fast = Controller::new(config);
            let mut reference = fast.clone();
            for _ in 0..60 {
                let e = fast.sample_episode();
                let mut rng = reference.rng.clone();
                let r = graph_episode(&reference, || Some(rng.gen()));
                reference.rng = rng;
                assert_eq!(e.actions, r.actions);
                assert_eq!(bits(&e.probabilities), bits(&r.probabilities));
                let best = fast.best_episode();
                let graph_best = graph_episode(&reference, || None);
                assert_eq!(best.actions, graph_best.actions);
                assert_eq!(bits(&best.probabilities), bits(&graph_best.probabilities));
                let mut g = Graph::new();
                let (logits, _) = reference.rollout_logits(&mut g, &[]);
                let first = softmax_rows_matrix(g.value(logits[0]));
                let first: Vec<f64> = first.row(0).iter().map(|&p| p as f64).collect();
                assert_eq!(bits(&fast.first_step_distribution()), bits(&first));
                // reward the episodes that pick action 1 most, so the
                // policy keeps moving
                let reward = e.actions.iter().filter(|&&a| a == 1).count() as f64;
                fast.update(&e, reward);
                reference.update(&r, reward);
            }
        }
    }

    #[test]
    fn sampled_episodes_have_valid_actions_and_probabilities() {
        let mut c = Controller::new(ControllerConfig::default());
        for _ in 0..5 {
            let e = c.sample_episode();
            assert_eq!(e.actions.len(), 3);
            assert!(e.actions.iter().all(|&a| a < 5));
            assert!(e.probabilities.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn first_step_distribution_sums_to_one() {
        let c = Controller::new(ControllerConfig::default());
        let dist = c.first_step_distribution();
        let sum: f64 = dist.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn policy_learns_to_prefer_the_rewarded_action() {
        // bandit-style check: action 2 at every step yields reward 1, all
        // other actions reward 0; the policy must shift mass towards 2.
        let config = ControllerConfig {
            steps: 2,
            actions_per_step: 4,
            hidden_dim: 8,
            learning_rate: 0.08,
            baseline_decay: 0.7,
            seed: 5,
        };
        let mut c = Controller::new(config);
        let before = c.first_step_distribution()[2];
        for _ in 0..120 {
            let e = c.sample_episode();
            let reward = if e.actions.iter().all(|&a| a == 2) {
                1.0
            } else {
                0.0
            };
            c.update(&e, reward);
        }
        let after = c.first_step_distribution()[2];
        assert!(
            after > before && after > 0.5,
            "probability of the rewarded action should grow: {:.3} -> {:.3}",
            before,
            after
        );
        let best = c.best_episode();
        assert!(best.actions.iter().all(|&a| a == 2));
    }

    #[test]
    fn baseline_tracks_recent_rewards() {
        let mut c = Controller::new(ControllerConfig::default());
        let e = c.sample_episode();
        c.update(&e, 1.0);
        assert!((c.baseline() - 1.0).abs() < 1e-9);
        let e2 = c.sample_episode();
        c.update(&e2, 0.0);
        assert!(c.baseline() < 1.0 && c.baseline() > 0.0);
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        assert!(ControllerConfig {
            steps: 0,
            ..ControllerConfig::default()
        }
        .validate()
        .is_err());
        assert!(ControllerConfig {
            baseline_decay: 1.0,
            ..ControllerConfig::default()
        }
        .validate()
        .is_err());
    }
}
