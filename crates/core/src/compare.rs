//! Budget-matched comparison of Level-2 optimizers (the Table III
//! experiment, generalised): every optimizer searches the same candidate
//! pattern sets, through its own memoizing driver, at the same distinct-
//! evaluation budget, against the same seed — so the only degree of freedom
//! is the search strategy.

use crate::evaluator::AccuracyEvaluator;
use crate::search::{level2_assignment_space, BackboneResult, CandidateTable, SolutionPoint};
use crate::Rt3Config;
use rt3_pruning::PatternSpace;
use rt3_search::{build_optimizer, DriverConfig, OptimizerKind, SearchDriver};
use rt3_transformer::Model;
use std::collections::HashMap;

/// Configuration of one comparison run.
#[derive(Debug, Clone)]
pub struct ComparisonConfig {
    /// Distinct-evaluation budget every optimizer gets (cache hits are
    /// free).
    pub budget: usize,
    /// Seed shared by every optimizer.
    pub seed: u64,
    /// The optimizers to compare.
    pub optimizers: Vec<OptimizerKind>,
    /// When the full assignment space holds at most this many assignments,
    /// an [`OptimizerKind::Exhaustive`] pass over the *whole* space (not
    /// budget-matched) is appended as the ground-truth optimum.
    pub exhaustive_optimum_limit: usize,
}

impl ComparisonConfig {
    /// The default Table III-style line-up: REINFORCE, evolutionary and
    /// bandit against the random baseline, with the exhaustive optimum for
    /// spaces up to 4096 assignments.
    pub fn new(budget: usize, seed: u64) -> Self {
        Self {
            budget,
            seed,
            optimizers: vec![
                OptimizerKind::Reinforce,
                OptimizerKind::Evolutionary,
                OptimizerKind::Bandit,
                OptimizerKind::Random,
            ],
            exhaustive_optimum_limit: 4096,
        }
    }
}

/// One optimizer's results at budget.
#[derive(Debug, Clone)]
pub struct OptimizerReport {
    /// Stable optimizer name (`reinforce`, `evolutionary`, …).
    pub name: String,
    /// Best solution found (feasible preferred), if anything was evaluated.
    pub best: Option<SolutionPoint>,
    /// Distinct evaluations spent when the best solution was first reached.
    pub evals_to_best: usize,
    /// Proposals made inside the search loop.
    pub proposals: usize,
    /// Distinct assignments evaluated inside the search loop (≤ budget).
    pub unique_evaluations: usize,
    /// 1 when the final recommendation needed one extra evaluation.
    pub readout_evaluations: usize,
    /// Proposals answered from the memoized cache.
    pub cache_hits: usize,
    /// Fraction of lookups answered from the cache.
    pub cache_hit_rate: f64,
}

impl OptimizerReport {
    /// Reward of the best solution, `-inf` when nothing was evaluated (so
    /// comparisons never panic).
    pub fn best_reward(&self) -> f64 {
        self.best.as_ref().map_or(f64::NEG_INFINITY, |b| b.reward)
    }
}

/// The full Table III-style comparison.
#[derive(Debug, Clone)]
pub struct ComparisonReport {
    /// Task the accuracies refer to.
    pub task: String,
    /// Distinct-evaluation budget of every row.
    pub budget: usize,
    /// Shared optimizer seed.
    pub seed: u64,
    /// Number of V/F levels (decisions per assignment).
    pub num_levels: usize,
    /// Number of candidate pattern sets per level.
    pub num_candidates: usize,
    /// One row per compared optimizer, in configuration order.
    pub rows: Vec<OptimizerReport>,
    /// Ground-truth optimum from a full exhaustive sweep, when the space
    /// was small enough (not budget-matched).
    pub optimum: Option<OptimizerReport>,
}

impl ComparisonReport {
    /// The row of one optimizer, by stable name.
    pub fn row(&self, name: &str) -> Option<&OptimizerReport> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Runs every configured optimizer at the same budget over the same
/// candidate sets and collects the Table III-style report.
pub fn compare_optimizers<M: Model, E: AccuracyEvaluator>(
    model: &M,
    backbone: &BackboneResult,
    space: &PatternSpace,
    config: &Rt3Config,
    evaluator: &mut E,
    comparison: &ComparisonConfig,
) -> ComparisonReport {
    let assignment_space = level2_assignment_space(space, config);
    // every row draws its lowerings from one table (the exhaustive-optimum
    // pass alone evaluates the whole space)
    let table = CandidateTable::new(model, backbone, space, config);
    // evaluations are deterministic per assignment, so rows share one memo:
    // each driver still charges its own budget through its private cache
    // (the per-row accounting below is untouched), but an assignment another
    // row already evaluated costs nothing to re-evaluate — which matters for
    // trained evaluators that fine-tune a model clone per evaluation
    let mut memo: HashMap<Vec<usize>, SolutionPoint> = HashMap::new();
    let mut run_kind = |kind: OptimizerKind, driver_config: DriverConfig| -> OptimizerReport {
        let mut optimizer = build_optimizer(kind, assignment_space, comparison.seed);
        let driver = SearchDriver::new(driver_config);
        let outcome = driver.run(optimizer.as_mut(), |actions| {
            if let Some(point) = memo.get(actions) {
                return point.clone();
            }
            let point = table.evaluate(evaluator, actions, true);
            memo.insert(actions.to_vec(), point.clone());
            point
        });
        OptimizerReport {
            name: kind.name().to_string(),
            best: outcome.best().cloned(),
            evals_to_best: outcome.evals_to_best,
            proposals: outcome.proposals,
            unique_evaluations: outcome.unique_evaluations,
            readout_evaluations: outcome.readout_evaluations,
            cache_hits: outcome.cache_hits,
            cache_hit_rate: outcome.cache_hit_rate(),
        }
    };
    let rows: Vec<OptimizerReport> = comparison
        .optimizers
        .iter()
        .map(|&kind| run_kind(kind, DriverConfig::budget(comparison.budget)))
        .collect();
    let optimum = assignment_space
        .size()
        .filter(|&size| size <= comparison.exhaustive_optimum_limit)
        .map(|size| {
            run_kind(
                OptimizerKind::Exhaustive,
                DriverConfig::exact_proposals(size),
            )
        });
    ComparisonReport {
        task: evaluator.task_name(),
        budget: comparison.budget,
        seed: comparison.seed,
        num_levels: assignment_space.num_levels,
        num_candidates: assignment_space.num_candidates,
        rows,
        optimum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{SurrogateEvaluator, TaskProfile};
    use crate::search::{build_search_space, run_level1};
    use rt3_transformer::{TransformerConfig, TransformerLm};

    fn setup() -> (TransformerLm, Rt3Config, SurrogateEvaluator) {
        let model = TransformerLm::new(TransformerConfig::tiny(32), 7);
        let config = Rt3Config::tiny_test();
        let evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
        (model, config, evaluator)
    }

    #[test]
    fn comparison_is_budget_matched_and_complete() {
        let (model, config, mut evaluator) = setup();
        let backbone = run_level1(&model, &config, &mut evaluator);
        let space = build_search_space(&model, &backbone, &config);
        let comparison = ComparisonConfig::new(12, config.seed);
        let report = compare_optimizers(
            &model,
            &backbone,
            &space,
            &config,
            &mut evaluator,
            &comparison,
        );
        assert_eq!(report.rows.len(), 4);
        for row in &report.rows {
            assert!(row.unique_evaluations <= comparison.budget, "{}", row.name);
            assert!(row.best.is_some(), "{}", row.name);
            assert!(row.evals_to_best <= row.unique_evaluations + row.readout_evaluations);
        }
        // tiny_test: 3 candidates × 3 levels = 27 assignments → optimum runs
        let optimum = report.optimum.as_ref().expect("small space");
        assert_eq!(optimum.unique_evaluations, 27);
        // nothing beats the exhaustive optimum
        for row in &report.rows {
            assert!(
                row.best_reward() <= optimum.best_reward() + 1e-12,
                "{}",
                row.name
            );
        }
    }

    #[test]
    fn comparison_is_deterministic() {
        let (model, config, mut evaluator) = setup();
        let backbone = run_level1(&model, &config, &mut evaluator);
        let space = build_search_space(&model, &backbone, &config);
        let comparison = ComparisonConfig::new(10, 99);
        let a = compare_optimizers(
            &model,
            &backbone,
            &space,
            &config,
            &mut evaluator,
            &comparison,
        );
        let b = compare_optimizers(
            &model,
            &backbone,
            &space,
            &config,
            &mut evaluator,
            &comparison,
        );
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.name, rb.name);
            assert_eq!(ra.best_reward().to_bits(), rb.best_reward().to_bits());
            assert_eq!(ra.evals_to_best, rb.evals_to_best);
        }
    }
}
