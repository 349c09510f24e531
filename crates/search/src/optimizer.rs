//! The [`Optimizer`] trait and the [`AssignmentSpace`] it searches.

/// Shape of the Level-2 assignment space: one decision per V/F level, each
/// picking one of the shared candidate pattern sets. An assignment is a
/// `Vec<usize>` of length [`num_levels`](Self::num_levels) whose entries are
/// `< num_candidates`, ordered from the highest-frequency level (M1) to the
/// lowest, exactly as `rt3-core` evaluates them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignmentSpace {
    /// Number of decisions per assignment (one per V/F level).
    pub num_levels: usize,
    /// Number of candidate pattern sets available at every level.
    pub num_candidates: usize,
}

impl AssignmentSpace {
    /// Creates the space, panicking on degenerate shapes.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn new(num_levels: usize, num_candidates: usize) -> Self {
        assert!(
            num_levels > 0 && num_candidates > 0,
            "assignment space must have at least one level and one candidate"
        );
        Self {
            num_levels,
            num_candidates,
        }
    }

    /// Total number of assignments, `None` when it overflows `usize`.
    pub fn size(&self) -> Option<usize> {
        self.num_candidates.checked_pow(self.num_levels as u32)
    }

    /// Whether `actions` is a valid assignment of this space.
    pub fn contains(&self, actions: &[usize]) -> bool {
        actions.len() == self.num_levels && actions.iter().all(|&a| a < self.num_candidates)
    }
}

/// A Level-2 search strategy: proposes assignments, learns from their
/// rewards, and recommends a final assignment.
///
/// The contract the [`SearchDriver`](crate::SearchDriver) relies on:
///
/// * [`propose`](Self::propose) returns a valid assignment of
///   [`space`](Self::space) (the driver asserts this);
/// * [`observe`](Self::observe) is called exactly once after every
///   `propose`, with the proposed assignment and its reward — repeated
///   assignments are served from the driver's cache, so `observe` may see
///   the same `(actions, reward)` pair many times;
/// * [`best`](Self::best) is the optimizer's recommendation given
///   everything observed so far. It need not be an assignment that was ever
///   proposed: [`Reinforce`](crate::Reinforce) returns the greedy policy
///   read-out (matching the paper's final architecture derivation) and
///   [`DecomposedBandit`](crate::DecomposedBandit) combines each level's
///   greedy arm; the remaining implementations return the best observed
///   assignment (feasible preferred).
///
/// All implementations in this crate are deterministic for a fixed seed and
/// a fixed sequence of observed rewards.
pub trait Optimizer {
    /// Short stable identifier, used in reports and JSON output.
    fn name(&self) -> &'static str;

    /// The space this optimizer proposes assignments from.
    fn space(&self) -> AssignmentSpace;

    /// Proposes the next assignment to evaluate.
    fn propose(&mut self) -> Vec<usize>;

    /// Feeds back the reward of a proposed assignment and whether it met
    /// the timing constraint.
    fn observe(&mut self, actions: &[usize], reward: f64, meets_constraint: bool);

    /// The optimizer's current recommendation, `None` before any
    /// observation.
    fn best(&self) -> Option<Vec<usize>>;
}

/// Tracks the best observed assignment with feasibility-first ordering: a
/// constraint-meeting assignment always beats an infeasible one, ties in
/// feasibility are broken by strictly greater reward, and exact reward ties
/// keep the earliest assignment (deterministic).
#[derive(Debug, Clone, Default)]
pub struct BestTracker {
    best: Option<(Vec<usize>, f64, bool)>,
}

impl BestTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers one observation; returns `true` when it became the new best.
    pub fn offer(&mut self, actions: &[usize], reward: f64, meets_constraint: bool) -> bool {
        let improves = match &self.best {
            None => true,
            Some((_, best_reward, best_feasible)) => {
                (meets_constraint, reward) > (*best_feasible, *best_reward)
            }
        };
        if improves {
            self.best = Some((actions.to_vec(), reward, meets_constraint));
        }
        improves
    }

    /// The best assignment so far.
    pub fn best_actions(&self) -> Option<&[usize]> {
        self.best.as_ref().map(|(a, _, _)| a.as_slice())
    }

    /// Reward of the best assignment so far.
    pub fn best_reward(&self) -> Option<f64> {
        self.best.as_ref().map(|(_, r, _)| *r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_size_and_membership() {
        let space = AssignmentSpace::new(3, 4);
        assert_eq!(space.size(), Some(64));
        assert!(space.contains(&[0, 3, 2]));
        assert!(!space.contains(&[0, 4, 2]));
        assert!(!space.contains(&[0, 1]));
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn degenerate_space_is_rejected() {
        let _ = AssignmentSpace::new(0, 4);
    }

    #[test]
    fn tracker_prefers_feasible_then_reward_then_first() {
        let mut t = BestTracker::new();
        assert!(t.offer(&[0], 5.0, false));
        // feasible beats higher infeasible reward
        assert!(t.offer(&[1], 1.0, true));
        assert!(!t.offer(&[2], 9.0, false));
        // higher feasible reward wins
        assert!(t.offer(&[3], 2.0, true));
        // exact tie keeps the earlier assignment
        assert!(!t.offer(&[4], 2.0, true));
        assert_eq!(t.best_actions(), Some(&[3][..]));
        assert_eq!(t.best_reward(), Some(2.0));
    }
}
