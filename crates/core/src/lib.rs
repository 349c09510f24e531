//! # rt3-core
//!
//! The RT3 framework — the primary contribution of "Dancing along Battery:
//! Enabling Transformer with Run-time Reconfigurability on Mobile Devices"
//! (DAC 2021) — wired end-to-end on top of the substrate crates:
//!
//! 1. **Level 1** ([`run_level1`]): block-structured pruning produces the
//!    fixed backbone model and its accuracy `A_o`.
//! 2. **Level 2** ([`build_search_space`], [`run_level2_search`]): an RNN
//!    RL controller picks one candidate pattern set per V/F level; latency,
//!    number-of-runs and accuracy feed the Eq. (1) reward
//!    ([`compute_reward`]); the explored solutions form the Fig. 3 Pareto
//!    frontier. The controller is one `rt3-search` [`Optimizer`] among
//!    several — [`run_level2_search_with`] runs the same search under any
//!    of them, and [`compare_optimizers`] races them at equal evaluation
//!    budget (Table III, generalised).
//! 3. **Joint training** ([`joint_train_lm`]): the shared backbone is
//!    fine-tuned under all selected pattern sets at once (Fig. 2), against
//!    the individually trained upper bound ([`individually_train_lm`]).
//! 4. **Baselines & experiments** ([`run_motivation_experiment`],
//!    [`run_ablation`], [`run_heuristic_baseline`], [`run_bp_evaluation`],
//!    [`switch_time_comparison`]) regenerate Tables II–IV and Figs. 3–5.
//!
//! Accuracy comes from an [`AccuracyEvaluator`]: either real fine-tuning of
//! the small Transformer models ([`TrainedLmEvaluator`]) or the calibrated
//! analytic surrogate ([`SurrogateEvaluator`]) used for full table sweeps
//! (see DESIGN.md).
//!
//! # Examples
//!
//! ```
//! use rt3_core::{run_level1, Rt3Config, SurrogateEvaluator, TaskProfile};
//! use rt3_transformer::{TransformerConfig, TransformerLm};
//!
//! let model = TransformerLm::new(TransformerConfig::tiny(32), 0);
//! let config = Rt3Config::tiny_test();
//! let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
//! let backbone = run_level1(&model, &config, &mut evaluator);
//! assert!(backbone.sparsity > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
mod compare;
mod config;
mod evaluator;
mod joint;
mod pareto;
mod reward;
mod search;

pub use baselines::{
    run_ablation, run_bp_evaluation, run_heuristic_baseline, run_motivation_experiment,
    switch_time_comparison, AblationRow, AblationVariant, BpEvaluationRow, MotivationRow,
    SwitchComparison,
};
pub use compare::{compare_optimizers, ComparisonConfig, ComparisonReport, OptimizerReport};
pub use config::{RewardParams, Rt3Config};
pub use evaluator::{
    AccuracyEvaluator, CandidateMasks, PruningSpec, SurrogateEvaluator, TaskProfile,
    TrainedLmEvaluator,
};
pub use joint::{individually_train_lm, joint_train_lm, JointTrainingReport};
pub use pareto::{frontier_covers, pareto_front_indices, ObjectivePair, ParetoPoint};
pub use reward::{compute_reward, RewardBreakdown, RewardCase};
pub use search::{
    build_search_space, candidate_sparsities, constraint_guided_sparsities, evaluate_assignment,
    level2_assignment_space, run_level1, run_level1_random, run_level2_search,
    run_level2_search_with, BackboneResult, CandidateTable, SearchOutcome, SolutionPoint,
};
// the optimizer vocabulary Level-2 callers need, re-exported so downstream
// code can stay on the `rt3-core` facade
pub use rt3_search::{build_optimizer, AssignmentSpace, Optimizer, OptimizerKind};
