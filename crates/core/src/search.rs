//! The two optimisation levels of RT3.
//!
//! * [`run_level1`] applies block-structured pruning to the model, evaluates
//!   the backbone and freezes it (the paper's component ①).
//! * [`run_level2_search`] runs the Level-2 search over the shrunken pattern
//!   search space (components ②–④): an optimizer proposes one candidate
//!   pattern set per V/F level, the performance predictor supplies latency
//!   and number-of-runs, the accuracy evaluator supplies the software
//!   metric, and Eq. (1) turns them into the reward. The paper's RL
//!   controller is the default optimizer; [`run_level2_search_with`] accepts
//!   any [`rt3_search::Optimizer`] (evolutionary, bandit, random,
//!   exhaustive) over the same candidate sets, driven through the
//!   budget-matched memoizing [`rt3_search::SearchDriver`].

use crate::config::Rt3Config;
use crate::evaluator::{AccuracyEvaluator, CandidateMasks, PruningSpec};
use crate::pareto::{pareto_front_indices, ParetoPoint};
use crate::reward::{compute_reward, RewardCase};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rt3_hardware::{number_of_runs, LatencyModel, ModelWorkload, PowerModel, VfLevel};
use rt3_pruning::{
    block_prune_model, combined_masks, generate_pattern_space, random_block_prune_model,
    resolve_prunable, Lowering, PatternScorer, PatternSpace, PrunableWeight,
};
use rt3_search::{AssignmentSpace, DriverConfig, Fitness, Optimizer, Reinforce, SearchDriver};
use rt3_sparse::{PackLayout, SparseFormat};
use rt3_transformer::{MaskSet, Model};
use std::cell::OnceCell;
use std::sync::Arc;

/// Output of Level 1: the frozen backbone masks and their evaluation.
#[derive(Debug, Clone)]
pub struct BackboneResult {
    /// Per-parameter keep masks of the backbone model `C`.
    pub masks: MaskSet,
    /// Overall sparsity of the backbone.
    pub sparsity: f64,
    /// Task score of the backbone (`A_o` in Eq. (1)).
    pub accuracy: f64,
    /// Task score of the original, unpruned model.
    pub unpruned_accuracy: f64,
    /// Whether Level 1 used importance-guided BP (`true`) or the random rBP
    /// baseline (`false`).
    pub guided: bool,
}

/// Runs Level 1 (block-structured pruning) and evaluates the backbone.
pub fn run_level1<M: Model, E: AccuracyEvaluator>(
    model: &M,
    config: &Rt3Config,
    evaluator: &mut E,
) -> BackboneResult {
    let masks = block_prune_model(model, &config.block_pruning);
    let sparsity = masks.overall_sparsity();
    let unpruned_accuracy = evaluator.unpruned_score();
    let spec = PruningSpec {
        sparsity,
        level1_guided: true,
        level2: None,
    };
    let accuracy = evaluator.evaluate(CandidateMasks::ready(&masks), &spec);
    BackboneResult {
        masks,
        sparsity,
        accuracy,
        unpruned_accuracy,
        guided: true,
    }
}

/// Runs the random Level-1 baseline (rBP) at approximately the same sparsity
/// as the guided pass would reach.
pub fn run_level1_random<M: Model, E: AccuracyEvaluator>(
    model: &M,
    config: &Rt3Config,
    evaluator: &mut E,
    prune_fraction: f64,
) -> BackboneResult {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5bad);
    let masks = random_block_prune_model(
        model,
        config.block_pruning.num_blocks,
        prune_fraction,
        &mut rng,
    );
    let sparsity = masks.overall_sparsity();
    let unpruned_accuracy = evaluator.unpruned_score();
    let spec = PruningSpec {
        sparsity,
        level1_guided: false,
        level2: None,
    };
    let accuracy = evaluator.evaluate(CandidateMasks::ready(&masks), &spec);
    BackboneResult {
        masks,
        sparsity,
        accuracy,
        unpruned_accuracy,
        guided: false,
    }
}

/// One explored solution: a full assignment of pattern sets to V/F levels.
#[derive(Debug, Clone)]
pub struct SolutionPoint {
    /// Chosen candidate index per level (ordered from the highest-frequency
    /// level, M1, to the lowest, Mn).
    pub actions: Vec<usize>,
    /// Combined (backbone ∧ pattern) sparsity per level.
    pub sparsities: Vec<f64>,
    /// Predicted latency per level in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Task score per level.
    pub accuracies: Vec<f64>,
    /// Weighted accuracy `A_w`.
    pub weighted_accuracy: f64,
    /// Total number of runs within the energy budget.
    pub number_of_runs: f64,
    /// Reward assigned by Eq. (1).
    pub reward: f64,
    /// Whether every level met the timing constraint.
    pub meets_constraint: bool,
}

impl ParetoPoint for SolutionPoint {
    fn accuracy_objective(&self) -> f64 {
        self.weighted_accuracy
    }

    fn runs_objective(&self) -> f64 {
        self.number_of_runs
    }
}

impl Fitness for SolutionPoint {
    fn reward(&self) -> f64 {
        self.reward
    }

    fn meets_constraint(&self) -> bool {
        self.meets_constraint
    }
}

/// Outcome of the Level-2 RL search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best feasible solution found (highest reward among solutions that
    /// meet the timing constraint), if any.
    pub best: Option<SolutionPoint>,
    /// Every explored solution, in episode order.
    pub history: Vec<SolutionPoint>,
    /// Indices into `history` of the Pareto-optimal feasible solutions.
    pub pareto_indices: Vec<usize>,
    /// The candidate pattern-set sparsities that were available to the
    /// controller.
    pub candidate_sparsities: Vec<f64>,
}

impl SearchOutcome {
    /// The Pareto-optimal solutions themselves.
    pub fn pareto_front(&self) -> Vec<&SolutionPoint> {
        self.pareto_indices
            .iter()
            .map(|&i| &self.history[i])
            .collect()
    }
}

/// The per-search table of candidate lowerings: each candidate pattern
/// set's pack layouts (one per prunable weight), the overall sparsity of
/// its combined (backbone ∧ pattern) masks and, per V/F level, the predicted latency and energy per inference at
/// that sparsity — lowered at most once, the first time an assignment picks
/// the candidate.
///
/// The lowering is a fixed function of (model, backbone, candidate), so
/// every Level-2 evaluation goes through one table per search instead of
/// lowering each level's candidate again per evaluation. The prunable
/// weights and their backbone masks are resolved once, when the table is
/// built, and so is the [`PatternScorer`] over them, which holds what
/// does not depend on the candidate: a lowering ([`PatternScorer::lower`])
/// scores from its squares and bit-counts the sparsity, building no mask
/// — the same rule the model bank lowers its levels with. The dense masks
/// are built from the layouts ([`combined_masks`])
/// only when an evaluator reads them ([`CandidateMasks::masks`]), once per
/// candidate. The evaluator is still called once per level per evaluation,
/// in level order, with masks equal to a fresh
/// [`rt3_pruning::combined_masks_for_model`] lowering, so stateful
/// evaluators see the same call sequence either way.
pub struct CandidateTable<'a> {
    backbone: &'a BackboneResult,
    space: &'a PatternSpace,
    config: &'a Rt3Config,
    weights: Vec<PrunableWeight<'a>>,
    scorer: PatternScorer,
    latency: LatencyModel,
    power: PowerModel,
    /// V/F levels ordered high frequency -> low frequency (M1 first, as in
    /// the paper).
    levels: Vec<VfLevel>,
    lowered: Vec<OnceCell<Lowered>>,
    runs_reference: OnceCell<f64>,
}

/// One candidate's lowering.
struct Lowered {
    /// One pack layout per prunable weight, in the table's weight order.
    layouts: Vec<Arc<PackLayout>>,
    sparsity: f64,
    /// Predicted latency (ms) and energy per inference (J) on each level,
    /// in the table's level order.
    per_level: Vec<(f64, f64)>,
    /// The combined masks, built the first time an evaluator reads them.
    masks: OnceCell<MaskSet>,
}

impl<'a> CandidateTable<'a> {
    /// An empty table over `space`: resolves the model's prunable weights
    /// and their backbone masks, builds their scorer for the space's
    /// pattern size, and lowers nothing until an evaluation needs it.
    pub fn new<M: Model>(
        model: &'a M,
        backbone: &'a BackboneResult,
        space: &'a PatternSpace,
        config: &'a Rt3Config,
    ) -> Self {
        let mut levels = config.governor.levels().to_vec();
        levels.reverse();
        let weights = resolve_prunable(model, &backbone.masks, &model.prunable_parameter_names());
        Self {
            backbone,
            space,
            config,
            scorer: PatternScorer::new(&weights, &backbone.masks, space.pattern_size()),
            weights,
            latency: config.latency_model(),
            power: PowerModel::cortex_a7(),
            levels,
            lowered: (0..space.len()).map(|_| OnceCell::new()).collect(),
            runs_reference: OnceCell::new(),
        }
    }

    /// One candidate's layouts, the overall sparsity of its combined masks
    /// and its latency and energy on every level.
    fn lowered(&self, candidate: usize) -> &Lowered {
        self.lowered[candidate].get_or_init(|| {
            let Lowering { layouts, sparsity } =
                self.scorer.lower(&self.space.candidates()[candidate].set);
            let per_level = self
                .levels
                .iter()
                .map(|level| {
                    let latency = self.latency.base_latency_ms(sparsity, level);
                    (latency, self.power.energy_per_inference_j(level, latency))
                })
                .collect();
            Lowered {
                layouts,
                sparsity,
                per_level,
                masks: OnceCell::new(),
            }
        })
    }

    /// Upper bound on the number of runs: every level uses the sparsest
    /// candidate. Used to normalise `R_runs` into `[0, 1]`.
    fn runs_reference(&self) -> f64 {
        *self.runs_reference.get_or_init(|| {
            let budget_per_level = self.config.energy_budget_j / self.levels.len() as f64;
            self.lowered(self.space.len() - 1)
                .per_level
                .iter()
                .map(|&(_, energy)| number_of_runs(budget_per_level, energy))
                .sum()
        })
    }

    /// Evaluates one assignment of candidate pattern sets to V/F levels;
    /// `level2_guided = false` marks the rPP baseline.
    pub fn evaluate<E: AccuracyEvaluator>(
        &self,
        evaluator: &mut E,
        actions: &[usize],
        level2_guided: bool,
    ) -> SolutionPoint {
        let mut sparsities = Vec::with_capacity(actions.len());
        let mut latencies = Vec::with_capacity(actions.len());
        let mut accuracies = Vec::with_capacity(actions.len());
        let mut total_runs = 0.0;
        let budget_per_level = self.config.energy_budget_j / actions.len() as f64;
        for (level_pos, &action) in actions.iter().enumerate().take(self.levels.len()) {
            let lowered = self.lowered(action);
            let build = || combined_masks(&self.weights, &lowered.layouts, &self.backbone.masks);
            let masks = CandidateMasks::lazy(&lowered.masks, &build);
            let (latency, energy) = lowered.per_level[level_pos];
            total_runs += number_of_runs(budget_per_level, energy);
            let spec = PruningSpec {
                sparsity: lowered.sparsity,
                level1_guided: self.backbone.guided,
                level2: Some(level2_guided),
            };
            accuracies.push(evaluator.evaluate(masks, &spec));
            sparsities.push(lowered.sparsity);
            latencies.push(latency);
        }
        let reference = self.runs_reference();
        let runs_term = if reference > 0.0 {
            total_runs / reference
        } else {
            0.0
        };
        let breakdown = compute_reward(
            &self.config.reward,
            self.backbone.accuracy,
            &accuracies,
            &latencies,
            runs_term,
            self.config.timing_constraint_ms,
        );
        SolutionPoint {
            actions: actions.to_vec(),
            sparsities,
            latencies_ms: latencies,
            accuracies,
            weighted_accuracy: breakdown.weighted_accuracy,
            number_of_runs: total_runs,
            reward: breakdown.reward,
            meets_constraint: breakdown.case != RewardCase::DeadlineMiss,
        }
    }
}

/// Generates a uniform candidate sparsity grid between the backbone sparsity
/// and 0.95 (a simple fallback used by tests and ablations).
pub fn candidate_sparsities(backbone_sparsity: f64, count: usize) -> Vec<f64> {
    assert!(count > 0, "at least one candidate sparsity is required");
    let low = backbone_sparsity.clamp(0.05, 0.9);
    let high = 0.95;
    (0..count)
        .map(|i| {
            if count == 1 {
                (low + high) / 2.0
            } else {
                low + (high - low) * i as f64 / (count - 1) as f64
            }
        })
        .collect()
}

/// The paper's constraint-guided candidate selection (component ③): for every
/// selected V/F level, find the smallest pattern sparsity whose predicted
/// latency meets the timing constraint `T` (starting from a nearly dense
/// pattern), then gradually tighten the constraint to fill
/// `config.candidate_sparsities` ratios in total.
pub fn constraint_guided_sparsities(config: &Rt3Config) -> Vec<f64> {
    let predictor = config.predictor;
    let low = 0.05;
    // one workload, re-priced at each probe's sparsity
    let mut workload = ModelWorkload::from_config(
        &config.workload_config,
        low,
        config.seq_len,
        SparseFormat::BlockPruned,
    );
    let mut latency_at = |sparsity: f64, level: &rt3_hardware::VfLevel| {
        workload.set_sparsity(sparsity);
        predictor.latency_ms(&workload, level)
    };
    // minimal sparsity meeting T at each level (bisection over [low, 0.97])
    let mut candidates: Vec<f64> = Vec::new();
    for level in config.governor.levels() {
        let needed = if latency_at(low, level) <= config.timing_constraint_ms {
            low
        } else if latency_at(0.97, level) > config.timing_constraint_ms {
            0.97
        } else {
            let (mut lo, mut hi) = (low, 0.97);
            for _ in 0..24 {
                let mid = 0.5 * (lo + hi);
                if latency_at(mid, level) <= config.timing_constraint_ms {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi
        };
        candidates.push(needed);
    }
    // gradually tighten: add slightly sparser variants until θ·N distinct
    // ratios exist
    candidates.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    candidates.dedup_by(|a, b| (*a - *b).abs() < 1e-3);
    let mut step = 0.04;
    while candidates.len() < config.candidate_sparsities {
        let base = *candidates.last().expect("at least one candidate");
        let next = (base + step).min(0.97);
        if (next - base).abs() < 1e-3 {
            break;
        }
        candidates.push(next);
        step = 0.04;
    }
    candidates.truncate(config.candidate_sparsities.max(1));
    candidates
}

/// Builds the shrunken pattern search space for a backbone (component ③),
/// using the constraint-guided sparsity ratios.
pub fn build_search_space<M: Model>(
    model: &M,
    backbone: &BackboneResult,
    config: &Rt3Config,
) -> PatternSpace {
    let sparsities = constraint_guided_sparsities(config);
    generate_pattern_space(model, &backbone.masks, &sparsities, &config.pattern_space)
}

/// The Level-2 assignment space of a pattern search space under `config`:
/// one decision per V/F level, each over the shared candidate sets.
pub fn level2_assignment_space(space: &PatternSpace, config: &Rt3Config) -> AssignmentSpace {
    AssignmentSpace::new(config.num_levels(), space.len())
}

/// Runs the Level-2 search (components ②–④) with the paper's RL controller
/// and returns the explored history, the Pareto frontier and the best
/// feasible solution.
///
/// This is a thin wrapper over [`run_level2_search_with`] with a
/// [`Reinforce`] optimizer at the controller hyper-parameters this function
/// has always used; `tests/golden_level2.rs` pins the outcome bit-identical
/// to the pre-`rt3-search` implementation.
pub fn run_level2_search<M: Model, E: AccuracyEvaluator>(
    model: &M,
    backbone: &BackboneResult,
    space: &PatternSpace,
    config: &Rt3Config,
    evaluator: &mut E,
) -> SearchOutcome {
    let mut optimizer = Reinforce::for_space(level2_assignment_space(space, config), config.seed);
    run_level2_search_with(&mut optimizer, model, backbone, space, config, evaluator)
}

/// Runs the Level-2 search with any [`Optimizer`] over the candidate
/// pattern sets.
///
/// The optimizer runs for exactly `config.episodes` proposals (the
/// episode-count semantics of the original RL loop) through the memoizing
/// [`SearchDriver`], followed by one evaluation of its final
/// recommendation; every proposal lands in the history whether or not it
/// repeats an assignment, so `history.len() == config.episodes + 1`
/// whenever the optimizer recommends something.
///
/// # Panics
///
/// Panics when the configuration is invalid or when the optimizer's
/// [`AssignmentSpace`] does not match `space`/`config`.
pub fn run_level2_search_with<M: Model, E: AccuracyEvaluator>(
    optimizer: &mut dyn Optimizer,
    model: &M,
    backbone: &BackboneResult,
    space: &PatternSpace,
    config: &Rt3Config,
    evaluator: &mut E,
) -> SearchOutcome {
    config.validate().expect("invalid RT3 configuration");
    assert_eq!(
        optimizer.space(),
        level2_assignment_space(space, config),
        "optimizer space does not match the pattern search space"
    );
    let table = CandidateTable::new(model, backbone, space, config);
    search_through(optimizer, &table, evaluator)
}

/// The search loop of [`run_level2_search_with`] over an existing table.
fn search_through<E: AccuracyEvaluator>(
    optimizer: &mut dyn Optimizer,
    table: &CandidateTable<'_>,
    evaluator: &mut E,
) -> SearchOutcome {
    let driver = SearchDriver::new(DriverConfig::exact_proposals(table.config.episodes));
    let outcome = driver.run(optimizer, |actions| {
        table.evaluate(evaluator, actions, true)
    });
    let history = outcome.history;
    let feasible: Vec<usize> = history
        .iter()
        .enumerate()
        .filter(|(_, p)| p.meets_constraint)
        .map(|(i, _)| i)
        .collect();
    let best = feasible
        .iter()
        .max_by(|&&a, &&b| {
            history[a]
                .reward
                .partial_cmp(&history[b].reward)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|&i| history[i].clone());
    let feasible_points: Vec<SolutionPoint> =
        feasible.iter().map(|&i| history[i].clone()).collect();
    let front_local = pareto_front_indices(&feasible_points);
    let pareto_indices: Vec<usize> = front_local.into_iter().map(|i| feasible[i]).collect();
    SearchOutcome {
        best,
        history,
        pareto_indices,
        candidate_sparsities: table
            .space
            .candidates()
            .iter()
            .map(|c| c.sparsity)
            .collect(),
    }
}

/// Evaluates a single externally chosen assignment (used by the heuristic and
/// random baselines); `level2_guided = false` marks the rPP baseline.
///
/// Builds a one-off [`CandidateTable`]; callers evaluating many assignments
/// should build the table once and call [`CandidateTable::evaluate`].
pub fn evaluate_assignment<M: Model, E: AccuracyEvaluator>(
    model: &M,
    backbone: &BackboneResult,
    space: &PatternSpace,
    config: &Rt3Config,
    evaluator: &mut E,
    actions: &[usize],
    level2_guided: bool,
) -> SolutionPoint {
    CandidateTable::new(model, backbone, space, config).evaluate(evaluator, actions, level2_guided)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{SurrogateEvaluator, TaskProfile};
    use rt3_pruning::combined_masks_for_model;
    use rt3_transformer::{TransformerConfig, TransformerLm};

    fn setup() -> (TransformerLm, Rt3Config, SurrogateEvaluator) {
        let model = TransformerLm::new(TransformerConfig::tiny(32), 7);
        let config = Rt3Config::tiny_test();
        let evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
        (model, config, evaluator)
    }

    #[test]
    fn level1_produces_a_sparse_backbone_with_small_accuracy_loss() {
        let (model, config, mut evaluator) = setup();
        let backbone = run_level1(&model, &config, &mut evaluator);
        assert!(backbone.sparsity > 0.3);
        assert!(backbone.accuracy < backbone.unpruned_accuracy);
        assert!(backbone.unpruned_accuracy - backbone.accuracy < 0.05);
    }

    #[test]
    fn random_level1_loses_more_accuracy_than_guided() {
        let (model, config, mut evaluator) = setup();
        let guided = run_level1(&model, &config, &mut evaluator);
        let random = run_level1_random(&model, &config, &mut evaluator, 0.5);
        assert!(random.accuracy < guided.accuracy);
    }

    #[test]
    fn candidate_sparsity_grid_is_increasing_and_bounded() {
        let grid = candidate_sparsities(0.6, 5);
        assert_eq!(grid.len(), 5);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert!(grid[0] >= 0.6 - 1e-9 && *grid.last().unwrap() <= 0.95 + 1e-9);
    }

    #[test]
    fn search_finds_a_feasible_solution_and_pareto_front() {
        let (model, config, mut evaluator) = setup();
        let backbone = run_level1(&model, &config, &mut evaluator);
        let space = build_search_space(&model, &backbone, &config);
        let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
        assert_eq!(outcome.history.len(), config.episodes + 1);
        let best = outcome
            .best
            .clone()
            .expect("a feasible solution should exist");
        assert!(best.meets_constraint);
        assert_eq!(best.accuracies.len(), config.num_levels());
        assert!(!outcome.pareto_indices.is_empty());
        // every pareto point is feasible and not dominated by the best
        for p in outcome.pareto_front() {
            assert!(p.meets_constraint);
        }
    }

    /// Passes every call through to `inner` and records its masks and spec.
    struct Recording<E> {
        inner: E,
        calls: Vec<(MaskSet, PruningSpec)>,
    }

    impl<E: AccuracyEvaluator> AccuracyEvaluator for Recording<E> {
        fn unpruned_score(&mut self) -> f64 {
            self.inner.unpruned_score()
        }

        fn evaluate(&mut self, masks: CandidateMasks<'_>, spec: &PruningSpec) -> f64 {
            self.calls.push((masks.masks().clone(), *spec));
            self.inner.evaluate(masks, spec)
        }

        fn task_name(&self) -> String {
            self.inner.task_name()
        }
    }

    #[test]
    fn table_keeps_the_evaluator_sequence_and_lowers_each_candidate_once() {
        let (model, mut config, mut evaluator) = setup();
        // more candidates than the search picks, so an eager lowering of
        // the whole space would show
        config.candidate_sparsities = 8;
        let backbone = run_level1(&model, &config, &mut evaluator);
        let space = build_search_space(&model, &backbone, &config);
        let mut recording = Recording {
            inner: evaluator,
            calls: Vec::new(),
        };
        let table = CandidateTable::new(&model, &backbone, &space, &config);
        let mut optimizer =
            Reinforce::for_space(level2_assignment_space(&space, &config), config.seed);
        let outcome = search_through(&mut optimizer, &table, &mut recording);
        // the driver evaluates each distinct assignment once, in the order
        // it is first proposed: the unique evaluations, then the read-out
        // when it was not already cached
        let mut evaluated: Vec<&SolutionPoint> = Vec::new();
        for point in &outcome.history {
            if !evaluated.iter().any(|p| p.actions == point.actions) {
                evaluated.push(point);
            }
        }
        let levels = config.num_levels();
        assert_eq!(recording.calls.len(), levels * evaluated.len());
        let prunable = model.prunable_parameter_names();
        for (point, calls) in evaluated.iter().zip(recording.calls.chunks(levels)) {
            for (&action, (masks, spec)) in point.actions.iter().zip(calls) {
                let set = &space.candidates()[action].set;
                let fresh = combined_masks_for_model(&model, &backbone.masks, &prunable, set);
                assert_eq!(masks, &fresh);
                let want = PruningSpec {
                    sparsity: fresh.overall_sparsity(),
                    level1_guided: backbone.guided,
                    level2: Some(true),
                };
                assert_eq!(spec, &want);
            }
        }
        // one lowering per candidate some assignment picked, plus the
        // sparsest one the runs reference uses
        let mut used: Vec<usize> = evaluated
            .iter()
            .flat_map(|p| p.actions.iter().copied())
            .chain([space.len() - 1])
            .collect();
        used.sort_unstable();
        used.dedup();
        let lowered: Vec<usize> = (0..space.len())
            .filter(|&i| table.lowered[i].get().is_some())
            .collect();
        assert_eq!(lowered, used);
        assert!(lowered.len() <= space.len());
        // the recording evaluator read the masks of every candidate an
        // assignment picked, which built them once, in the candidate's cell
        for &action in evaluated.iter().flat_map(|p| &p.actions) {
            assert!(table.lowered[action].get().unwrap().masks.get().is_some());
        }
    }

    /// A search under the surrogate, which reads only the sparsity, lowers
    /// every candidate it picks to layouts and a bit-counted sparsity and
    /// builds no dense mask.
    #[test]
    fn surrogate_search_builds_no_mask() {
        let (model, config, mut evaluator) = setup();
        let backbone = run_level1(&model, &config, &mut evaluator);
        let space = build_search_space(&model, &backbone, &config);
        let table = CandidateTable::new(&model, &backbone, &space, &config);
        let mut optimizer =
            Reinforce::for_space(level2_assignment_space(&space, &config), config.seed);
        let outcome = search_through(&mut optimizer, &table, &mut evaluator);
        assert_eq!(outcome.history.len(), config.episodes + 1);
        let lowered: Vec<&Lowered> = table.lowered.iter().filter_map(OnceCell::get).collect();
        assert!(!lowered.is_empty());
        for lowered in lowered {
            assert_eq!(lowered.layouts.len(), table.weights.len());
            assert!(lowered.masks.get().is_none(), "a dense mask was built");
        }
    }

    #[test]
    fn tighter_constraint_never_increases_the_best_accuracy() {
        let (model, mut config, mut evaluator) = setup();
        let backbone = run_level1(&model, &config, &mut evaluator);
        let space = build_search_space(&model, &backbone, &config);
        config.timing_constraint_ms = 120.0;
        let loose = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
        config.timing_constraint_ms = 60.0;
        let tight = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
        let loose_best = loose.best.map(|b| b.weighted_accuracy).unwrap_or(0.0);
        let tight_best = tight.best.map(|b| b.weighted_accuracy).unwrap_or(0.0);
        assert!(tight_best <= loose_best + 1e-6);
    }
}
