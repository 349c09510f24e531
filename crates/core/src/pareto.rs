//! Pareto-frontier extraction over the explored solutions (Fig. 3a).

/// A point in the (weighted accuracy, number of runs) objective space.
pub trait ParetoPoint {
    /// First objective (maximised): weighted accuracy.
    fn accuracy_objective(&self) -> f64;
    /// Second objective (maximised): number of runs.
    fn runs_objective(&self) -> f64;
}

/// A plain objective pair, for callers that only have the two scalars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectivePair {
    /// Weighted accuracy.
    pub accuracy: f64,
    /// Number of runs.
    pub runs: f64,
}

impl ParetoPoint for ObjectivePair {
    fn accuracy_objective(&self) -> f64 {
        self.accuracy
    }

    fn runs_objective(&self) -> f64 {
        self.runs
    }
}

/// Returns the indices of the Pareto-optimal points (maximising both
/// objectives). A point is kept if no other point is at least as good in
/// both objectives and strictly better in one.
pub fn pareto_front_indices<P: ParetoPoint>(points: &[P]) -> Vec<usize> {
    let mut front = Vec::new();
    'outer: for (i, p) in points.iter().enumerate() {
        for (j, q) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            let q_at_least_as_good = q.accuracy_objective() >= p.accuracy_objective()
                && q.runs_objective() >= p.runs_objective();
            let q_strictly_better = q.accuracy_objective() > p.accuracy_objective()
                || q.runs_objective() > p.runs_objective();
            if q_at_least_as_good && q_strictly_better {
                continue 'outer;
            }
        }
        front.push(i);
    }
    front
}

/// Returns `true` if every point of `inner` is dominated by or equal to some
/// point of `outer` — used to verify that the loose-constraint frontier
/// covers the tight-constraint frontier (Fig. 3a's observation).
pub fn frontier_covers<P: ParetoPoint, Q: ParetoPoint>(outer: &[P], inner: &[Q]) -> bool {
    inner.iter().all(|p| {
        outer.iter().any(|q| {
            q.accuracy_objective() >= p.accuracy_objective() - 1e-9
                && q.runs_objective() >= p.runs_objective() - 1e-9
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(accuracy: f64, runs: f64) -> ObjectivePair {
        ObjectivePair { accuracy, runs }
    }

    #[test]
    fn dominated_points_are_excluded() {
        let points = vec![pt(0.9, 1.0), pt(0.8, 2.0), pt(0.7, 1.5), pt(0.85, 0.5)];
        let front = pareto_front_indices(&points);
        assert_eq!(front, vec![0, 1]);
    }

    #[test]
    fn identical_points_are_both_kept() {
        let points = vec![pt(0.9, 1.0), pt(0.9, 1.0)];
        let front = pareto_front_indices(&points);
        assert_eq!(front.len(), 2);
    }

    #[test]
    fn single_point_is_its_own_front() {
        let points = vec![pt(0.5, 0.5)];
        assert_eq!(pareto_front_indices(&points), vec![0]);
    }

    #[test]
    fn loose_frontier_covers_tight_frontier() {
        let loose = vec![pt(0.95, 2.0), pt(0.9, 3.0)];
        let tight = vec![pt(0.93, 1.8), pt(0.88, 2.5)];
        assert!(frontier_covers(&loose, &tight));
        assert!(!frontier_covers(&tight, &loose));
    }
}
