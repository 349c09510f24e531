//! The reward function of the RL search — Eq. (1) of the paper.

use crate::config::RewardParams;

/// Which branch of Eq. (1) produced the reward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewardCase {
    /// At least one sub-model missed the timing constraint: `R = -1 + R_runs`
    /// and no fine-tuning is performed.
    DeadlineMiss,
    /// All deadlines met and accuracy decreases monotonically towards lower
    /// V/F levels (`cond = True`).
    Monotone,
    /// All deadlines met but the accuracy ordering is violated
    /// (`cond = False`): the penalty is applied.
    PenaltyApplied,
}

/// Result of evaluating Eq. (1) for one episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardBreakdown {
    /// The scalar reward handed to the controller.
    pub reward: f64,
    /// The weighted accuracy `A_w`.
    pub weighted_accuracy: f64,
    /// The normalised number-of-runs term `R_runs` in `[0, 1]`.
    pub runs_term: f64,
    /// Which branch of the formula applied.
    pub case: RewardCase,
}

/// Evaluates Eq. (1).
///
/// * `accuracies` — accuracy of each sub-model, ordered from the
///   highest-frequency level (M1) to the lowest (Mn);
/// * `latencies_ms` — predicted latency of each sub-model at its own level;
/// * `backbone_accuracy` — `A_o`, the accuracy of the Level-1 output model;
/// * `runs_term` — `R_runs`, already normalised to `[0, 1]`.
///
/// # Panics
///
/// Panics if the slices have different lengths or do not match the number of
/// level weights in `params`.
pub fn compute_reward(
    params: &RewardParams,
    backbone_accuracy: f64,
    accuracies: &[f64],
    latencies_ms: &[f64],
    runs_term: f64,
    timing_constraint_ms: f64,
) -> RewardBreakdown {
    assert_eq!(accuracies.len(), latencies_ms.len(), "length mismatch");
    assert_eq!(
        accuracies.len(),
        params.level_weights.len(),
        "one accuracy per level weight"
    );
    let runs_term = runs_term.clamp(0.0, 1.0);
    let weighted_accuracy: f64 = accuracies
        .iter()
        .zip(&params.level_weights)
        .map(|(a, w)| a * w)
        .sum();
    // Case 1: any deadline miss.
    if latencies_ms.iter().any(|&l| l > timing_constraint_ms) {
        return RewardBreakdown {
            reward: -1.0 + runs_term,
            weighted_accuracy,
            runs_term,
            case: RewardCase::DeadlineMiss,
        };
    }
    // cond: accuracy must not increase towards lower V/F levels.
    let monotone = accuracies.windows(2).all(|w| w[0] >= w[1]);
    let denom = (backbone_accuracy - params.min_accuracy).max(1e-9);
    let normalised_accuracy = (weighted_accuracy - params.min_accuracy) / denom;
    let (reward, case) = if monotone {
        (normalised_accuracy + runs_term, RewardCase::Monotone)
    } else {
        (
            normalised_accuracy - params.penalty + runs_term,
            RewardCase::PenaltyApplied,
        )
    };
    RewardBreakdown {
        reward,
        weighted_accuracy,
        runs_term,
        case,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> RewardParams {
        RewardParams::uniform(3, 0.8, 0.3)
    }

    #[test]
    fn deadline_miss_returns_negative_reward_without_accuracy_term() {
        let b = compute_reward(
            &params(),
            0.97,
            &[0.95, 0.94, 0.93],
            &[90.0, 120.0, 80.0],
            0.4,
            100.0,
        );
        assert_eq!(b.case, RewardCase::DeadlineMiss);
        assert!((b.reward - (-0.6)).abs() < 1e-9);
    }

    #[test]
    fn monotone_accuracies_get_the_full_reward() {
        let b = compute_reward(
            &params(),
            0.97,
            &[0.96, 0.95, 0.92],
            &[90.0, 85.0, 70.0],
            0.5,
            100.0,
        );
        assert_eq!(b.case, RewardCase::Monotone);
        assert!(b.reward > 0.5);
        assert!((b.weighted_accuracy - (0.96 + 0.95 + 0.92) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn inverted_accuracy_ordering_is_penalised() {
        let good = compute_reward(
            &params(),
            0.97,
            &[0.96, 0.95, 0.92],
            &[90.0, 85.0, 70.0],
            0.5,
            100.0,
        );
        let bad = compute_reward(
            &params(),
            0.97,
            &[0.92, 0.95, 0.96],
            &[90.0, 85.0, 70.0],
            0.5,
            100.0,
        );
        assert_eq!(bad.case, RewardCase::PenaltyApplied);
        assert!(bad.reward < good.reward);
        assert!((good.reward - bad.reward - 0.3).abs() < 0.1);
    }

    #[test]
    fn higher_runs_term_increases_reward_in_every_case() {
        for latencies in [&[90.0, 85.0, 70.0][..], &[90.0, 120.0, 70.0][..]] {
            let low = compute_reward(&params(), 0.97, &[0.95, 0.94, 0.93], latencies, 0.1, 100.0);
            let high = compute_reward(&params(), 0.97, &[0.95, 0.94, 0.93], latencies, 0.9, 100.0);
            assert!(high.reward > low.reward);
        }
    }

    #[test]
    fn runs_term_is_clamped_to_unit_interval() {
        let b = compute_reward(
            &params(),
            0.97,
            &[0.9, 0.9, 0.9],
            &[10.0, 10.0, 10.0],
            7.0,
            100.0,
        );
        assert!(b.runs_term <= 1.0);
    }
}
