//! [`DecomposedBandit`]: per-level multi-armed bandits over the shared
//! candidate space. The joint assignment problem factorises into one bandit
//! per V/F level — each level keeps count/mean statistics per candidate and
//! picks its arm with UCB1 or ε-greedy, with the shared Eq. (1) reward
//! credited to every level's chosen arm.

use crate::optimizer::{AssignmentSpace, BestTracker, Optimizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Arm-selection policy of each per-level bandit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BanditPolicy {
    /// UCB1: `mean + exploration · sqrt(ln(total) / count)`, unexplored arms
    /// first. Because every level is credited with the one shared reward, a
    /// fully deterministic per-level argmax can lock the levels into a
    /// correlated proposal cycle whose conditional means are self-consistent
    /// but wrong; `dither` mixes in a small per-level probability of a
    /// uniformly random arm, which decorrelates the credit estimates.
    Ucb1 {
        /// Exploration coefficient (√2 is the textbook value; the Eq. (1)
        /// rewards live in roughly `[0, 2]`, so 1.0 works well).
        exploration: f64,
        /// Per-level probability of proposing a random arm instead of the
        /// UCB argmax.
        dither: f64,
    },
    /// ε-greedy: a random arm with probability ε, else the best mean
    /// (unexplored arms first).
    EpsilonGreedy {
        /// Exploration probability per level and proposal.
        epsilon: f64,
    },
}

/// Configuration of the decomposed bandit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BanditConfig {
    /// Arm-selection policy shared by every level.
    pub policy: BanditPolicy,
}

impl Default for BanditConfig {
    fn default() -> Self {
        Self {
            policy: BanditPolicy::Ucb1 {
                exploration: 1.0,
                dither: 0.1,
            },
        }
    }
}

impl BanditConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match self.policy {
            BanditPolicy::Ucb1 {
                exploration,
                dither,
            } => {
                if !(exploration.is_finite() && exploration >= 0.0) {
                    return Err("UCB1 exploration must be finite and non-negative".into());
                }
                if !(0.0..=1.0).contains(&dither) {
                    return Err("UCB1 dither must be in [0, 1]".into());
                }
            }
            BanditPolicy::EpsilonGreedy { epsilon } => {
                if !(0.0..=1.0).contains(&epsilon) {
                    return Err("epsilon must be in [0, 1]".into());
                }
            }
        }
        Ok(())
    }
}

/// Count/mean statistics of one level's arms.
#[derive(Debug, Clone)]
struct LevelArms {
    counts: Vec<u64>,
    means: Vec<f64>,
}

impl LevelArms {
    fn new(num_candidates: usize) -> Self {
        Self {
            counts: vec![0; num_candidates],
            means: vec![0.0; num_candidates],
        }
    }

    /// Arm with the highest mean among explored arms (lowest index on
    /// ties), `None` while every arm is unexplored.
    fn greedy(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (arm, (&count, &mean)) in self.counts.iter().zip(&self.means).enumerate() {
            if count == 0 {
                continue;
            }
            match best {
                Some((_, best_mean)) if mean <= best_mean => {}
                _ => best = Some((arm, mean)),
            }
        }
        best.map(|(arm, _)| arm)
    }
}

/// Per-level UCB1 / ε-greedy bandit optimizer.
#[derive(Debug, Clone)]
pub struct DecomposedBandit {
    space: AssignmentSpace,
    config: BanditConfig,
    rng: StdRng,
    levels: Vec<LevelArms>,
    observations: u64,
    tracker: BestTracker,
}

impl DecomposedBandit {
    /// Creates the optimizer with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(space: AssignmentSpace, config: BanditConfig, seed: u64) -> Self {
        config.validate().expect("invalid bandit configuration");
        Self {
            space,
            config,
            rng: StdRng::seed_from_u64(seed),
            levels: (0..space.num_levels)
                .map(|_| LevelArms::new(space.num_candidates))
                .collect(),
            observations: 0,
            tracker: BestTracker::new(),
        }
    }

    /// UCB1 with the default exploration coefficient.
    pub fn for_space(space: AssignmentSpace, seed: u64) -> Self {
        Self::new(space, BanditConfig::default(), seed)
    }

    /// A random arm among the still-unexplored ones of `level`, `None` when
    /// all are explored.
    fn random_unexplored(&mut self, level: usize) -> Option<usize> {
        let unexplored: Vec<usize> = self.levels[level]
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == 0)
            .map(|(arm, _)| arm)
            .collect();
        if unexplored.is_empty() {
            None
        } else {
            Some(unexplored[self.rng.gen_range(0..unexplored.len())])
        }
    }

    fn pick_arm(&mut self, level: usize) -> usize {
        match self.config.policy {
            BanditPolicy::Ucb1 {
                exploration,
                dither,
            } => {
                if dither > 0.0 && self.rng.gen::<f64>() < dither {
                    return self.rng.gen_range(0..self.space.num_candidates);
                }
                if let Some(arm) = self.random_unexplored(level) {
                    return arm;
                }
                let total = self.observations.max(1) as f64;
                let arms = &self.levels[level];
                let mut best_arm = 0;
                let mut best_score = f64::NEG_INFINITY;
                for (arm, (&count, &mean)) in arms.counts.iter().zip(&arms.means).enumerate() {
                    let bonus = exploration * (total.ln() / count as f64).sqrt();
                    let score = mean + bonus;
                    if score > best_score {
                        best_score = score;
                        best_arm = arm;
                    }
                }
                best_arm
            }
            BanditPolicy::EpsilonGreedy { epsilon } => {
                if self.rng.gen::<f64>() < epsilon {
                    return self.rng.gen_range(0..self.space.num_candidates);
                }
                if let Some(arm) = self.random_unexplored(level) {
                    return arm;
                }
                self.levels[level].greedy().unwrap_or(0)
            }
        }
    }
}

impl Optimizer for DecomposedBandit {
    fn name(&self) -> &'static str {
        "bandit"
    }

    fn space(&self) -> AssignmentSpace {
        self.space
    }

    fn propose(&mut self) -> Vec<usize> {
        (0..self.space.num_levels)
            .map(|level| self.pick_arm(level))
            .collect()
    }

    fn observe(&mut self, actions: &[usize], reward: f64, meets_constraint: bool) {
        self.tracker.offer(actions, reward, meets_constraint);
        self.observations += 1;
        for (level, &arm) in actions.iter().enumerate() {
            if level >= self.levels.len() || arm >= self.space.num_candidates {
                continue;
            }
            let arms = &mut self.levels[level];
            arms.counts[arm] += 1;
            let count = arms.counts[arm] as f64;
            arms.means[arm] += (reward - arms.means[arm]) / count;
        }
    }

    /// The decomposed read-out: each level's greedy arm — a combination the
    /// bandit may never have proposed jointly, which is exactly what the
    /// factorised statistics buy. Falls back to the best observed assignment
    /// while some level is still fully unexplored.
    fn best(&self) -> Option<Vec<usize>> {
        let greedy: Option<Vec<usize>> = self.levels.iter().map(LevelArms::greedy).collect();
        greedy.or_else(|| self.tracker.best_actions().map(<[usize]>::to_vec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy objective: per level, the reward contribution of arm `a` is
    /// highest for the middle arm, so the optimum is not on the boundary.
    fn reward_of(actions: &[usize], num_candidates: usize) -> f64 {
        let target = num_candidates / 2;
        actions
            .iter()
            .map(|&a| 1.0 - (a as f64 - target as f64).abs() / num_candidates as f64)
            .sum::<f64>()
    }

    fn drive(mut bandit: DecomposedBandit, rounds: usize) -> DecomposedBandit {
        let n = bandit.space.num_candidates;
        for _ in 0..rounds {
            let a = bandit.propose();
            let r = reward_of(&a, n);
            bandit.observe(&a, r, true);
        }
        bandit
    }

    #[test]
    fn ucb_explores_every_arm_then_exploits_the_target() {
        let space = AssignmentSpace::new(3, 5);
        let bandit = drive(DecomposedBandit::for_space(space, 17), 600);
        for level in &bandit.levels {
            assert!(level.counts.iter().all(|&c| c > 0), "all arms explored");
        }
        assert_eq!(bandit.best(), Some(vec![2, 2, 2]));
    }

    #[test]
    fn epsilon_greedy_also_finds_the_target() {
        let space = AssignmentSpace::new(2, 5);
        let bandit = DecomposedBandit::new(
            space,
            BanditConfig {
                policy: BanditPolicy::EpsilonGreedy { epsilon: 0.2 },
            },
            23,
        );
        let bandit = drive(bandit, 150);
        assert_eq!(bandit.best(), Some(vec![2, 2]));
    }

    #[test]
    fn greedy_readout_breaks_ties_towards_the_lowest_index() {
        let mut arms = LevelArms::new(3);
        arms.counts = vec![2, 2, 0];
        arms.means = vec![0.5, 0.5, 0.0];
        assert_eq!(arms.greedy(), Some(0));
    }
}
