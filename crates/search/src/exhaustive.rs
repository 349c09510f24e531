//! [`Exhaustive`]: lexicographic enumeration of the whole assignment space.
//! Feasible only for small spaces, where it supplies the ground-truth
//! optimum the comparison report measures every other optimizer against.

use crate::optimizer::{AssignmentSpace, BestTracker, Optimizer};

/// Exhaustive lexicographic enumeration (last level advances fastest).
/// After the full space has been proposed once the counter wraps around;
/// the driver's proposal cap (or its cache, which makes revisits free)
/// bounds the run.
#[derive(Debug, Clone)]
pub struct Exhaustive {
    space: AssignmentSpace,
    next: Vec<usize>,
    tracker: BestTracker,
}

impl Exhaustive {
    /// Starts the enumeration at the all-zeros assignment.
    pub fn new(space: AssignmentSpace) -> Self {
        Self {
            space,
            next: vec![0; space.num_levels],
            tracker: BestTracker::new(),
        }
    }
}

impl Optimizer for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn space(&self) -> AssignmentSpace {
        self.space
    }

    fn propose(&mut self) -> Vec<usize> {
        let current = self.next.clone();
        // mixed-radix increment, least-significant (last) level first
        for level in (0..self.space.num_levels).rev() {
            self.next[level] += 1;
            if self.next[level] < self.space.num_candidates {
                return current;
            }
            self.next[level] = 0;
        }
        current
    }

    fn observe(&mut self, actions: &[usize], reward: f64, meets_constraint: bool) {
        self.tracker.offer(actions, reward, meets_constraint);
    }

    fn best(&self) -> Option<Vec<usize>> {
        self.tracker.best_actions().map(<[usize]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn enumerates_every_assignment_exactly_once_then_wraps() {
        let space = AssignmentSpace::new(3, 3);
        let mut exhaustive = Exhaustive::new(space);
        let mut seen = HashSet::new();
        for _ in 0..27 {
            let a = exhaustive.propose();
            assert!(space.contains(&a));
            assert!(seen.insert(a), "no repeats inside the first sweep");
        }
        assert_eq!(seen.len(), 27);
        assert_eq!(exhaustive.propose(), vec![0, 0, 0], "wraps to the start");
    }

    #[test]
    fn finds_the_exact_optimum_of_a_toy_objective() {
        let space = AssignmentSpace::new(2, 4);
        let mut exhaustive = Exhaustive::new(space);
        for _ in 0..16 {
            let a = exhaustive.propose();
            // unique optimum at [1, 3]
            let r = -((a[0] as f64 - 1.0).powi(2) + (a[1] as f64 - 3.0).powi(2));
            exhaustive.observe(&a, r, true);
        }
        assert_eq!(exhaustive.best(), Some(vec![1, 3]));
    }
}
