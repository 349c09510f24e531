//! [`Reinforce`]: the paper's RL search (component ②) behind the
//! [`Optimizer`] trait — a thin adapter over the RNN [`Controller`], so
//! `rt3-core::run_level2_search` routed through the driver stays
//! bit-identical to the pre-trait implementation.

use crate::controller::{Controller, ControllerConfig, Episode};
use crate::optimizer::{AssignmentSpace, Optimizer};

/// REINFORCE policy-gradient optimizer wrapping the RNN controller.
#[derive(Debug, Clone)]
pub struct Reinforce {
    controller: Controller,
    /// The episode of the last `propose`, kept so `observe` can hand the
    /// controller the action probabilities its update needs.
    pending: Option<Episode>,
    space: AssignmentSpace,
    /// Whether anything has been observed yet — the trait contract says
    /// `best()` is `None` before the first observation, and an untrained
    /// policy's greedy roll-out is noise anyway.
    observed: bool,
}

impl Reinforce {
    /// Wraps a controller built from an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ControllerConfig) -> Self {
        let space = AssignmentSpace::new(config.steps, config.actions_per_step);
        Self {
            controller: Controller::new(config),
            pending: None,
            space,
            observed: false,
        }
    }

    /// The Level-2 default: the exact controller hyper-parameters
    /// `run_level2_search` has always used (hidden 16, learning rate 5e-2,
    /// baseline decay 0.8).
    pub fn for_space(space: AssignmentSpace, seed: u64) -> Self {
        Self::new(ControllerConfig {
            steps: space.num_levels,
            actions_per_step: space.num_candidates,
            hidden_dim: 16,
            learning_rate: 5e-2,
            baseline_decay: 0.8,
            seed,
        })
    }

    /// The wrapped controller (read-only; mutating it would desynchronise
    /// the pending episode).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }
}

impl Optimizer for Reinforce {
    fn name(&self) -> &'static str {
        "reinforce"
    }

    fn space(&self) -> AssignmentSpace {
        self.space
    }

    fn propose(&mut self) -> Vec<usize> {
        let episode = self.controller.sample_episode();
        let actions = episode.actions.clone();
        self.pending = Some(episode);
        actions
    }

    fn observe(&mut self, actions: &[usize], reward: f64, _meets_constraint: bool) {
        self.observed = true;
        // REINFORCE ignores the constraint flag: infeasibility is already
        // priced into the Eq. (1) reward, exactly as in the original loop.
        match self.pending.take() {
            Some(episode) if episode.actions == actions => {
                self.controller.update(&episode, reward);
            }
            // an observation for an assignment this policy never sampled
            // (e.g. a replayed history) carries no action probabilities, so
            // no policy-gradient step is possible
            _ => {}
        }
    }

    fn best(&self) -> Option<Vec<usize>> {
        if !self.observed {
            return None;
        }
        Some(self.controller.best_episode().actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propose_matches_the_raw_controller_stream() {
        let space = AssignmentSpace::new(3, 5);
        let mut wrapped = Reinforce::for_space(space, 0x11);
        let mut raw = Controller::new(*wrapped.controller().config());
        for round in 0..4 {
            let via_trait = wrapped.propose();
            let direct = raw.sample_episode();
            assert_eq!(via_trait, direct.actions, "round {round}");
            let reward = 0.1 * round as f64;
            wrapped.observe(&via_trait, reward, true);
            raw.update(&direct, reward);
        }
        assert_eq!(wrapped.best(), Some(raw.best_episode().actions));
        assert_eq!(wrapped.controller().baseline(), raw.baseline());
    }

    #[test]
    fn foreign_observations_do_not_step_the_policy() {
        let space = AssignmentSpace::new(2, 3);
        let mut optimizer = Reinforce::for_space(space, 7);
        let proposed = optimizer.propose();
        let mut foreign = proposed.clone();
        foreign[0] = (foreign[0] + 1) % space.num_candidates;
        let baseline_before = optimizer.controller().baseline();
        optimizer.observe(&foreign, 1.0, true);
        assert_eq!(optimizer.controller().baseline(), baseline_before);
    }
}
