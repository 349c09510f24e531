//! Baselines and paper-table experiments: the Table II motivation study, the
//! Table IV ablation, the Fig. 3 heuristic baseline, the Fig. 5 BP
//! evaluation and the switch-time comparison behind Table III's "Interrupt"
//! rows.

use crate::config::Rt3Config;
use crate::evaluator::{
    AccuracyEvaluator, CandidateMasks, PruningSpec, SurrogateEvaluator, TaskProfile,
};
use crate::search::{
    build_search_space, evaluate_assignment, run_level1, run_level1_random, run_level2_search,
    BackboneResult, SolutionPoint,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rt3_data::GlueTask;
use rt3_hardware::{
    number_of_runs, simulate_battery_lifetime, simulate_fixed_level, ExecutionProfile, MemoryModel,
    PowerModel, SimulationReport, VfLevel,
};
use rt3_pruning::{combined_masks_for_model, random_pattern_set, PatternSpace};
use rt3_sparse::PatternSet;
use rt3_transformer::Model;

/// One row of the Table II motivation experiment.
#[derive(Debug, Clone)]
pub struct MotivationRow {
    /// Approach label (E1/E2/E3).
    pub approach: &'static str,
    /// Battery-discharge simulation outcome.
    pub report: SimulationReport,
    /// Improvement over E1's number of runs.
    pub improvement: f64,
}

/// Reproduces the Table II motivation experiment: E1 (no reconfiguration),
/// E2 (DVFS only — same model at every level) and E3 (DVFS + software
/// reconfiguration — a sparser model per level).
pub fn run_motivation_experiment(
    config: &Rt3Config,
    base_sparsity: f64,
    per_level_sparsities: &[f64],
) -> Vec<MotivationRow> {
    let latency = config.latency_model();
    let power = PowerModel::cortex_a7();
    let governor = &config.governor;
    let top_level = *governor.levels().last().expect("non-empty governor");
    // E1: always the top level, one model
    let e1_profile = ExecutionProfile {
        latency_ms: latency.base_latency_ms(base_sparsity, &top_level),
        power_w: power.power_w(&top_level),
    };
    let e1 = simulate_fixed_level(
        &top_level,
        config.energy_budget_j,
        e1_profile,
        config.timing_constraint_ms,
    );
    // E2: DVFS, same model at every level
    let e2_profiles: Vec<ExecutionProfile> = governor
        .levels()
        .iter()
        .map(|l| ExecutionProfile {
            latency_ms: latency.base_latency_ms(base_sparsity, l),
            power_w: power.power_w(l),
        })
        .collect();
    let e2 = simulate_battery_lifetime(
        governor,
        config.energy_budget_j,
        &e2_profiles,
        config.timing_constraint_ms,
    );
    // E3: DVFS + per-level sparsity (software reconfiguration)
    assert_eq!(
        per_level_sparsities.len(),
        governor.levels().len(),
        "one sparsity per governor level is required"
    );
    let e3_profiles: Vec<ExecutionProfile> = governor
        .levels()
        .iter()
        .zip(per_level_sparsities)
        .map(|(l, &s)| ExecutionProfile {
            latency_ms: latency.base_latency_ms(s, l),
            power_w: power.power_w(l),
        })
        .collect();
    let e3 = simulate_battery_lifetime(
        governor,
        config.energy_budget_j,
        &e3_profiles,
        config.timing_constraint_ms,
    );
    let e1_runs = e1.runs;
    vec![
        MotivationRow {
            approach: "E1",
            improvement: 1.0,
            report: e1,
        },
        MotivationRow {
            approach: "E2",
            improvement: e2.improvement_over(e1_runs),
            report: e2,
        },
        MotivationRow {
            approach: "E3",
            improvement: e3.improvement_over(e1_runs),
            report: e3,
        },
    ]
}

/// The ablation variants of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AblationVariant {
    /// Original model, no pruning, no reconfiguration.
    NoOpt,
    /// Random block pruning only.
    RandomBpOnly,
    /// Random block pruning followed by random pattern pruning.
    RandomBpRandomPp,
    /// Random block pruning followed by importance-guided pattern pruning.
    RandomBpGuidedPp,
    /// Importance-guided block pruning only.
    BpOnly,
    /// The full RT3 pipeline (BP + RL-searched PP).
    Rt3,
}

impl AblationVariant {
    /// All variants in the column order of Table IV.
    pub fn all() -> [AblationVariant; 6] {
        [
            AblationVariant::NoOpt,
            AblationVariant::RandomBpOnly,
            AblationVariant::RandomBpRandomPp,
            AblationVariant::RandomBpGuidedPp,
            AblationVariant::BpOnly,
            AblationVariant::Rt3,
        ]
    }

    /// Column label used in Table IV.
    pub fn label(&self) -> &'static str {
        match self {
            AblationVariant::NoOpt => "No-Opt",
            AblationVariant::RandomBpOnly => "rBP only",
            AblationVariant::RandomBpRandomPp => "rBP+rPP",
            AblationVariant::RandomBpGuidedPp => "rBP+PP",
            AblationVariant::BpOnly => "BP only",
            AblationVariant::Rt3 => "RT3",
        }
    }
}

/// One column of Table IV.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which variant this row describes.
    pub variant: AblationVariant,
    /// Average sparsity across the sub-models.
    pub average_sparsity: f64,
    /// Total number of runs within the energy budget.
    pub number_of_runs: f64,
    /// Improvement over the No-Opt run count.
    pub improvement: f64,
    /// Average score across the sub-models.
    pub average_accuracy: f64,
    /// Score loss relative to No-Opt.
    pub accuracy_loss: f64,
}

/// Runs the full Table IV ablation for one task profile using the surrogate
/// evaluator (the paper's table reports three tasks; call this once per
/// task).
pub fn run_ablation<M: Model>(
    model: &M,
    config: &Rt3Config,
    profile: TaskProfile,
) -> Vec<AblationRow> {
    // The minimum-accuracy floor A_m of Eq. (1) must sit below the task's
    // achievable score range, otherwise the normalised accuracy term is
    // meaningless for low-score tasks such as RTE.
    let mut config = config.clone();
    config.reward.min_accuracy = (profile.base_score * 0.6).min(config.reward.min_accuracy);
    let config = &config;
    let mut evaluator = SurrogateEvaluator::new(profile);
    let unpruned = evaluator.unpruned_score();
    let latency_model = config.latency_model();
    let power = PowerModel::cortex_a7();
    let mut levels: Vec<VfLevel> = config.governor.levels().to_vec();
    levels.reverse(); // M1 = highest frequency
    let budget_per_level = config.energy_budget_j / levels.len() as f64;
    let runs_for = |sparsities: &[f64]| -> f64 {
        levels
            .iter()
            .zip(sparsities)
            .map(|(level, &s)| {
                let latency = latency_model.base_latency_ms(s, level);
                let energy = power.energy_per_inference_j(level, latency);
                number_of_runs(budget_per_level, energy)
            })
            .sum()
    };

    // shared ingredients
    let guided_backbone = run_level1(model, config, &mut evaluator);
    let random_backbone =
        run_level1_random(model, config, &mut evaluator, guided_backbone.sparsity);
    let space = build_search_space(model, &guided_backbone, config);
    let prunable = model.prunable_parameter_names();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xab1a);

    let mut rows = Vec::new();
    let no_opt_runs = runs_for(&vec![0.0; levels.len()]);
    rows.push(AblationRow {
        variant: AblationVariant::NoOpt,
        average_sparsity: 0.0,
        number_of_runs: no_opt_runs,
        improvement: 1.0,
        average_accuracy: unpruned,
        accuracy_loss: 0.0,
    });

    let push_row = |variant: AblationVariant,
                    sparsities: Vec<f64>,
                    accuracies: Vec<f64>,
                    rows: &mut Vec<AblationRow>| {
        let avg_sparsity = sparsities.iter().sum::<f64>() / sparsities.len() as f64;
        let avg_accuracy = accuracies.iter().sum::<f64>() / accuracies.len() as f64;
        let runs = runs_for(&sparsities);
        rows.push(AblationRow {
            variant,
            average_sparsity: avg_sparsity,
            number_of_runs: runs,
            improvement: if no_opt_runs > 0.0 {
                runs / no_opt_runs
            } else {
                0.0
            },
            average_accuracy: avg_accuracy,
            accuracy_loss: unpruned - avg_accuracy,
        });
    };

    // rBP only / BP only: one model, no level-2 pruning
    for (variant, backbone) in [
        (AblationVariant::RandomBpOnly, &random_backbone),
        (AblationVariant::BpOnly, &guided_backbone),
    ] {
        let sparsities = vec![backbone.sparsity; levels.len()];
        let accuracies = vec![backbone.accuracy; levels.len()];
        push_row(variant, sparsities, accuracies, &mut rows);
    }

    // variants with level-2 pruning on top of the random backbone
    for (variant, guided_pp) in [
        (AblationVariant::RandomBpRandomPp, false),
        (AblationVariant::RandomBpGuidedPp, true),
    ] {
        let mut sparsities = Vec::new();
        let mut accuracies = Vec::new();
        for candidate in pick_per_level_candidates(&space, levels.len()) {
            let set: PatternSet = if guided_pp {
                candidate.set.clone()
            } else {
                random_pattern_set(
                    config.pattern_space.pattern_size,
                    candidate.sparsity,
                    config.pattern_space.patterns_per_set,
                    &mut rng,
                )
            };
            let masks = combined_masks_for_model(model, &random_backbone.masks, &prunable, &set);
            let sparsity = masks.overall_sparsity();
            let spec = PruningSpec {
                sparsity,
                level1_guided: false,
                level2: Some(guided_pp),
            };
            accuracies.push(evaluator.evaluate(CandidateMasks::ready(&masks), &spec));
            sparsities.push(sparsity);
        }
        push_row(variant, sparsities, accuracies, &mut rows);
    }

    // full RT3: guided BP + RL-searched PP
    let outcome = run_level2_search(model, &guided_backbone, &space, config, &mut evaluator);
    if let Some(best) = outcome.best {
        push_row(
            AblationVariant::Rt3,
            best.sparsities.clone(),
            best.accuracies.clone(),
            &mut rows,
        );
    }
    // keep Table IV's column order
    rows.sort_by_key(|r| {
        AblationVariant::all()
            .iter()
            .position(|v| *v == r.variant)
            .unwrap_or(usize::MAX)
    });
    rows
}

/// Picks one candidate per level spread across the space (densest for the
/// fastest level, sparsest for the slowest) — the heuristic baseline of
/// Fig. 3(b)(c) and the fixed assignment used by the non-RL ablation rows.
fn pick_per_level_candidates(
    space: &PatternSpace,
    levels: usize,
) -> Vec<rt3_pruning::CandidatePatternSet> {
    (0..levels)
        .map(|i| {
            let idx = if levels == 1 {
                0
            } else {
                i * (space.len() - 1) / (levels - 1)
            };
            space.candidates()[idx].clone()
        })
        .collect()
}

/// The heuristic baseline of Fig. 3: for every level, pick the candidate
/// whose predicted latency just satisfies the timing constraint (no RL).
pub fn run_heuristic_baseline<M: Model, E: AccuracyEvaluator>(
    model: &M,
    backbone: &BackboneResult,
    space: &PatternSpace,
    config: &Rt3Config,
    evaluator: &mut E,
) -> SolutionPoint {
    let latency = config.latency_model();
    let mut levels: Vec<VfLevel> = config.governor.levels().to_vec();
    levels.reverse();
    let actions: Vec<usize> = levels
        .iter()
        .map(|level| {
            // choose the *densest* candidate that still meets the constraint
            let mut choice = space.len() - 1;
            for (idx, candidate) in space.candidates().iter().enumerate() {
                if latency.base_latency_ms(candidate.sparsity, level) <= config.timing_constraint_ms
                {
                    choice = idx;
                    break;
                }
            }
            choice
        })
        .collect();
    evaluate_assignment(model, backbone, space, config, evaluator, &actions, true)
}

/// One bar pair of the Fig. 5 BP evaluation.
#[derive(Debug, Clone)]
pub struct BpEvaluationRow {
    /// Task label ("WikiText-2" or a GLUE task).
    pub task: String,
    /// Score of the original model.
    pub original_score: f64,
    /// Score after block-structured pruning.
    pub bp_score: f64,
    /// Compression ratio achieved by BP (1 / kept fraction).
    pub compression_ratio: f64,
}

/// Reproduces Fig. 5: original vs BP score on the nine GLUE tasks plus the
/// WikiText-2 LM task, using each task's surrogate profile and the
/// compression ratios reported in the figure.
pub fn run_bp_evaluation() -> Vec<BpEvaluationRow> {
    // compression ratios annotated in Fig. 5, per task
    let glue_ratios: &[(GlueTask, f64)] = &[
        (GlueTask::Mnli, 1.7),
        (GlueTask::Qqp, 2.0),
        (GlueTask::Qnli, 1.7),
        (GlueTask::Sst2, 1.7),
        (GlueTask::Cola, 1.2),
        (GlueTask::StsB, 1.7),
        (GlueTask::Mrpc, 1.2),
        (GlueTask::Rte, 2.0),
        (GlueTask::Wnli, 2.8),
    ];
    let mut rows: Vec<BpEvaluationRow> = glue_ratios
        .iter()
        .map(|&(task, ratio)| {
            let profile = TaskProfile::glue(task);
            let sparsity = 1.0 - 1.0 / ratio;
            let bp_score = profile.score(&PruningSpec {
                sparsity,
                level1_guided: true,
                level2: None,
            });
            BpEvaluationRow {
                task: task.name().to_string(),
                original_score: profile.base_score,
                bp_score,
                compression_ratio: ratio,
            }
        })
        .collect();
    let wikitext = TaskProfile::wikitext2();
    let ratio = 2.0;
    rows.push(BpEvaluationRow {
        task: "WikiText-2".to_string(),
        original_score: wikitext.base_score,
        bp_score: wikitext.score(&PruningSpec {
            sparsity: 1.0 - 1.0 / ratio,
            level1_guided: true,
            level2: None,
        }),
        compression_ratio: ratio,
    });
    rows
}

/// Switch-time comparison behind the "Interrupt" rows of Table III: RT3 swaps
/// a pattern set while the upper bound reloads a whole model.
#[derive(Debug, Clone, Copy)]
pub struct SwitchComparison {
    /// RT3 pattern-set switch time in milliseconds.
    pub rt3_switch_ms: f64,
    /// Upper-bound full model reload time in milliseconds.
    pub upper_bound_switch_ms: f64,
    /// Speed-up of RT3 over the upper bound.
    pub speedup: f64,
}

/// Computes the switch-time comparison for a model with `model_parameters`
/// weights and pattern sets of `pattern_size`.
pub fn switch_time_comparison(
    pattern_size: usize,
    patterns_per_set: usize,
    model_parameters: usize,
) -> SwitchComparison {
    let memory = MemoryModel::odroid_xu3();
    let set = random_pattern_set(
        pattern_size,
        0.5,
        patterns_per_set,
        &mut StdRng::seed_from_u64(1),
    );
    let blocks = model_parameters / (pattern_size * pattern_size).max(1);
    let switch = memory.pattern_switch_cost(&set, blocks);
    let reload = memory.full_model_reload_cost(model_parameters * 4);
    SwitchComparison {
        rt3_switch_ms: switch.time_ms,
        upper_bound_switch_ms: reload.time_ms,
        speedup: reload.time_ms / switch.time_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt3_transformer::{TransformerConfig, TransformerLm};

    fn tiny_model() -> TransformerLm {
        TransformerLm::new(TransformerConfig::tiny(32), 5)
    }

    fn fast_config() -> Rt3Config {
        let mut cfg = Rt3Config::tiny_test();
        // keep the battery simulation short
        cfg.energy_budget_j = 50.0;
        cfg
    }

    #[test]
    fn motivation_experiment_reproduces_table_two_shape() {
        let mut config = Rt3Config::wikitext_default();
        config.energy_budget_j = 300.0;
        config.timing_constraint_ms = 115.0;
        // base model just meets the deadline at the top level; per-level
        // sparsities keep every level under it
        let rows = run_motivation_experiment(&config, 0.55, &[0.85, 0.75, 0.55]);
        assert_eq!(rows.len(), 3);
        let e1 = &rows[0];
        let e2 = &rows[1];
        let e3 = &rows[2];
        assert!(e1.report.constraint_satisfied);
        assert!(
            e2.report.runs > e1.report.runs,
            "E2 must extend battery life"
        );
        assert!(
            !e2.report.constraint_satisfied,
            "E2 must violate the deadline at low frequency"
        );
        assert!(
            e3.report.constraint_satisfied,
            "E3 must meet every deadline"
        );
        assert!(e3.report.runs > e2.report.runs);
        assert!(e3.improvement > 1.5);
    }

    #[test]
    fn ablation_reproduces_table_four_ordering() {
        let model = tiny_model();
        let config = fast_config();
        let rows = run_ablation(&model, &config, TaskProfile::wikitext2());
        assert_eq!(rows.len(), 6);
        let by_variant = |v: AblationVariant| {
            rows.iter()
                .find(|r| r.variant == v)
                .unwrap_or_else(|| panic!("missing {:?}", v))
        };
        let no_opt = by_variant(AblationVariant::NoOpt);
        let rbp = by_variant(AblationVariant::RandomBpOnly);
        let rbp_rpp = by_variant(AblationVariant::RandomBpRandomPp);
        let rbp_pp = by_variant(AblationVariant::RandomBpGuidedPp);
        let bp = by_variant(AblationVariant::BpOnly);
        let rt3 = by_variant(AblationVariant::Rt3);
        // accuracy ordering: No-Opt best; BP beats rBP; PP beats rPP; RT3
        // close to BP-only despite much higher sparsity
        assert!(no_opt.average_accuracy >= bp.average_accuracy);
        assert!(bp.average_accuracy > rbp.average_accuracy);
        assert!(rbp_pp.average_accuracy > rbp_rpp.average_accuracy);
        assert!(rt3.average_accuracy > rbp_rpp.average_accuracy);
        // hardware ordering: everything beats No-Opt; the PP variants beat
        // BP-only because they are sparser
        assert!(bp.improvement > 1.2);
        assert!(rt3.improvement > bp.improvement);
        assert!(rbp_rpp.improvement > 1.0);
        // sparsity ordering
        assert!(rt3.average_sparsity > bp.average_sparsity);
    }

    #[test]
    fn heuristic_baseline_is_feasible_but_not_better_than_search() {
        let model = tiny_model();
        let mut config = fast_config();
        config.episodes = 25;
        let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
        let backbone = run_level1(&model, &config, &mut evaluator);
        let space = build_search_space(&model, &backbone, &config);
        let heuristic = run_heuristic_baseline(&model, &backbone, &space, &config, &mut evaluator);
        assert!(heuristic.meets_constraint);
        let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
        let best = outcome.best.expect("search should find a feasible point");
        // the search's chosen solution must not be strictly dominated by the
        // heuristic in the (accuracy, runs) objective space
        let dominated = heuristic.weighted_accuracy > best.weighted_accuracy + 1e-9
            && heuristic.number_of_runs > best.number_of_runs + 1e-9;
        assert!(
            !dominated,
            "heuristic (acc {:.3}, runs {:.0}) strictly dominates the searched solution (acc {:.3}, runs {:.0})",
            heuristic.weighted_accuracy,
            heuristic.number_of_runs,
            best.weighted_accuracy,
            best.number_of_runs
        );
    }

    #[test]
    fn bp_evaluation_covers_all_ten_tasks_with_small_loss() {
        let rows = run_bp_evaluation();
        assert_eq!(rows.len(), 10);
        for row in &rows {
            assert!(row.bp_score <= row.original_score);
            assert!(row.compression_ratio >= 1.2);
            let loss = row.original_score - row.bp_score;
            assert!(loss < 0.10, "{}: loss {:.3} too large", row.task, loss);
        }
        // average loss should be small, echoing the paper's 1.74% average
        let avg_loss: f64 = rows
            .iter()
            .map(|r| r.original_score - r.bp_score)
            .sum::<f64>()
            / rows.len() as f64;
        assert!(avg_loss < 0.05, "average loss {:.3}", avg_loss);
    }

    #[test]
    fn switch_comparison_shows_three_orders_of_magnitude() {
        // DistilBERT-scale parameters
        let cmp = switch_time_comparison(100, 4, 66_000_000);
        assert!(cmp.rt3_switch_ms < 60.0);
        assert!(cmp.speedup > 1000.0);
    }
}
