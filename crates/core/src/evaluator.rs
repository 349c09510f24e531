//! Accuracy evaluators: how the search learns the accuracy of a pruned
//! sub-model.
//!
//! Two interchangeable implementations stand behind the same trait:
//!
//! * [`TrainedLmEvaluator`] really fine-tunes the (small) language model
//!   under the candidate masks — the faithful but slow path, used by the
//!   examples and integration tests;
//! * [`SurrogateEvaluator`] uses an analytic accuracy-vs-sparsity curve per
//!   task, calibrated to the operating points reported in the paper, so the
//!   full table sweeps finish in seconds on a CPU (see DESIGN.md for the
//!   substitution rationale). The curve distinguishes importance-guided
//!   pruning from the random baselines, which is what the ablation study
//!   needs.

use rt3_data::{GlueTask, MarkovCorpus};
use rt3_transformer::{evaluate_lm, train_lm, MaskSet, TrainOptions, TransformerLm};
use std::cell::OnceCell;

/// Describes how a mask set was produced, so surrogate evaluators can model
/// the quality difference between guided and random pruning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruningSpec {
    /// Overall sparsity of the evaluated masks, in `[0, 1]`.
    pub sparsity: f64,
    /// Whether Level-1 pruning was importance-guided (BP) or random (rBP).
    pub level1_guided: bool,
    /// Whether Level-2 pattern pruning was applied, and if so whether it was
    /// importance-guided (PP) or random (rPP).
    pub level2: Option<bool>,
}

impl PruningSpec {
    /// Spec for an unpruned model.
    pub fn unpruned() -> Self {
        Self {
            sparsity: 0.0,
            level1_guided: true,
            level2: None,
        }
    }
}

/// The masks of one evaluated sub-model, as an [`AccuracyEvaluator`] reads
/// them ([`CandidateMasks::masks`]); the [`PruningSpec`] carries their
/// sparsity, and masks handed over built can also be measured without
/// building lazy ones ([`CandidateMasks::ready_masks`]).
///
/// Level 1 and the baselines hand over masks they already built
/// ([`CandidateMasks::ready`]). The Level-2 search lowers each candidate
/// only to its pack layouts and a bit-counted sparsity, so its handles
/// build the dense masks on the first `masks()` call and keep them in the
/// candidate's cell of the search's table: an evaluator that reads only
/// the spec — the [`SurrogateEvaluator`] — never builds one, and every
/// later evaluation of the candidate reuses the first build.
#[derive(Clone, Copy)]
pub struct CandidateMasks<'a>(Source<'a>);

#[derive(Clone, Copy)]
enum Source<'a> {
    Ready(&'a MaskSet),
    Lazy {
        cell: &'a OnceCell<MaskSet>,
        build: &'a dyn Fn() -> MaskSet,
    },
}

impl<'a> CandidateMasks<'a> {
    /// A handle on masks that are already built.
    pub fn ready(masks: &'a MaskSet) -> Self {
        Self(Source::Ready(masks))
    }

    /// A handle on masks that `build` makes, into `cell`, the first time a
    /// handle over `cell` is asked for them.
    pub(crate) fn lazy(cell: &'a OnceCell<MaskSet>, build: &'a dyn Fn() -> MaskSet) -> Self {
        Self(Source::Lazy { cell, build })
    }

    /// The masks if they were handed over built ([`CandidateMasks::ready`]),
    /// without building lazy ones.
    pub fn ready_masks(&self) -> Option<&'a MaskSet> {
        match self.0 {
            Source::Ready(masks) => Some(masks),
            Source::Lazy { .. } => None,
        }
    }

    /// The dense masks, built on the first call for a lazy handle.
    pub fn masks(&self) -> &'a MaskSet {
        match self.0 {
            Source::Ready(masks) => masks,
            Source::Lazy { cell, build } => cell.get_or_init(build),
        }
    }
}

/// Produces the task score of the backbone model under a candidate mask set.
pub trait AccuracyEvaluator {
    /// Score of the unpruned model (`A_o`'s upper reference, "No-Opt").
    fn unpruned_score(&mut self) -> f64;

    /// Score of the model under `masks`. `spec` carries the sparsity and
    /// pruning-quality information surrogate implementations need; trained
    /// implementations may ignore it. An implementation that does not call
    /// [`CandidateMasks::masks`] keeps the search from building dense
    /// masks.
    fn evaluate(&mut self, masks: CandidateMasks<'_>, spec: &PruningSpec) -> f64;

    /// Human-readable name of the underlying task (for reports).
    fn task_name(&self) -> String;
}

/// Analytic accuracy-vs-sparsity profile of one task.
///
/// `score(s) = base − sensitivity · s^exponent · quality`, where `quality`
/// is 1 for fully guided pruning and grows when Level 1 and/or Level 2 are
/// random. Constants are calibrated so the guided curve passes near the
/// operating points reported in the paper (Tables III/IV, Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskProfile {
    /// Unpruned score.
    pub base_score: f64,
    /// Loss scale.
    pub sensitivity: f64,
    /// Loss exponent (how sharply the task degrades at high sparsity).
    pub exponent: f64,
    /// Multiplier applied to the loss when Level-1 pruning is random.
    pub random_level1_factor: f64,
    /// Multiplier applied to the loss when Level-2 pruning is random.
    pub random_level2_factor: f64,
    /// Task label.
    pub name: &'static str,
}

impl TaskProfile {
    /// WikiText-2 next-word accuracy profile (paper: 97.45% unpruned, 0.64%
    /// loss at 64% BP sparsity, ~1% loss at 75% RT3 sparsity).
    pub fn wikitext2() -> Self {
        Self {
            base_score: 0.9745,
            sensitivity: 0.021,
            exponent: 2.6,
            random_level1_factor: 2.8,
            random_level2_factor: 3.5,
            name: "WikiText-2",
        }
    }

    /// RTE accuracy profile (paper: 59.20% unpruned, no loss at 49% BP
    /// sparsity, ~4.9% loss at 68% RT3 sparsity).
    pub fn rte() -> Self {
        Self {
            base_score: 0.592,
            sensitivity: 0.47,
            exponent: 5.9,
            random_level1_factor: 2.0,
            random_level2_factor: 2.5,
            name: GlueTask::Rte.name(),
        }
    }

    /// STS-B Spearman profile (paper: 86.50 unpruned, 2.8 points at 40% BP
    /// sparsity, ~8.8 points at 49% RT3 sparsity).
    pub fn stsb() -> Self {
        Self {
            base_score: 0.865,
            sensitivity: 6.6,
            exponent: 6.0,
            random_level1_factor: 3.0,
            random_level2_factor: 2.0,
            name: GlueTask::StsB.name(),
        }
    }

    /// Profile for any GLUE task, with base scores near published DistilBERT
    /// numbers; used by the Fig. 5 reproduction.
    pub fn glue(task: GlueTask) -> Self {
        match task {
            GlueTask::Rte => Self::rte(),
            GlueTask::StsB => Self::stsb(),
            GlueTask::Mnli => Self::generic(task, 0.82, 0.10, 3.0),
            GlueTask::Qqp => Self::generic(task, 0.88, 0.08, 3.0),
            GlueTask::Qnli => Self::generic(task, 0.89, 0.09, 3.0),
            GlueTask::Sst2 => Self::generic(task, 0.91, 0.07, 3.0),
            GlueTask::Cola => Self::generic(task, 0.51, 0.30, 3.5),
            GlueTask::Mrpc => Self::generic(task, 0.89, 0.12, 3.2),
            GlueTask::Wnli => Self::generic(task, 0.56, 0.20, 4.0),
        }
    }

    fn generic(task: GlueTask, base: f64, sensitivity: f64, exponent: f64) -> Self {
        Self {
            base_score: base,
            sensitivity,
            exponent,
            random_level1_factor: 2.5,
            random_level2_factor: 3.0,
            name: task.name(),
        }
    }

    /// Score predicted for a pruning specification.
    pub fn score(&self, spec: &PruningSpec) -> f64 {
        let mut quality = 1.0;
        if !spec.level1_guided {
            quality *= self.random_level1_factor;
        }
        if spec.level2 == Some(false) {
            quality *= self.random_level2_factor;
        }
        let loss = self.sensitivity * spec.sparsity.max(0.0).powf(self.exponent) * quality;
        (self.base_score - loss).max(0.0)
    }
}

/// Surrogate evaluator built on a [`TaskProfile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogateEvaluator {
    profile: TaskProfile,
}

impl SurrogateEvaluator {
    /// Creates a surrogate for the given task profile.
    pub fn new(profile: TaskProfile) -> Self {
        Self { profile }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &TaskProfile {
        &self.profile
    }
}

impl AccuracyEvaluator for SurrogateEvaluator {
    fn unpruned_score(&mut self) -> f64 {
        self.profile.base_score
    }

    fn evaluate(&mut self, masks: CandidateMasks<'_>, spec: &PruningSpec) -> f64 {
        // prefer the measured sparsity of masks handed over built; the
        // search's lazy masks carry their bit-counted sparsity in the spec
        let sparsity = match masks.ready_masks() {
            Some(masks) if !masks.is_empty() => masks.overall_sparsity(),
            _ => spec.sparsity,
        };
        self.profile.score(&PruningSpec { sparsity, ..*spec })
    }

    fn task_name(&self) -> String {
        self.profile.name.to_string()
    }
}

/// Evaluator that really fine-tunes the language model under each mask set.
#[derive(Debug, Clone)]
pub struct TrainedLmEvaluator {
    model: TransformerLm,
    corpus: MarkovCorpus,
    options: TrainOptions,
}

impl TrainedLmEvaluator {
    /// Creates an evaluator that fine-tunes a copy of `model` on `corpus`
    /// for every candidate mask set.
    pub fn new(model: TransformerLm, corpus: MarkovCorpus, options: TrainOptions) -> Self {
        Self {
            model,
            corpus,
            options,
        }
    }
}

impl AccuracyEvaluator for TrainedLmEvaluator {
    fn unpruned_score(&mut self) -> f64 {
        evaluate_lm(&self.model, &self.corpus, self.options.seq_len, None)
    }

    fn evaluate(&mut self, masks: CandidateMasks<'_>, _spec: &PruningSpec) -> f64 {
        let mut candidate = self.model.clone();
        let report = train_lm(
            &mut candidate,
            &self.corpus,
            &self.options,
            Some(masks.masks()),
        );
        report.metric
    }

    fn task_name(&self) -> String {
        "WikiText-2 (trained)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surrogate_score_decreases_with_sparsity() {
        let profile = TaskProfile::wikitext2();
        let scores: Vec<f64> = [0.0, 0.4, 0.7, 0.9]
            .iter()
            .map(|&s| {
                profile.score(&PruningSpec {
                    sparsity: s,
                    level1_guided: true,
                    level2: Some(true),
                })
            })
            .collect();
        for w in scores.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn surrogate_matches_paper_operating_points_approximately() {
        let wikitext = TaskProfile::wikitext2();
        // BP only: 64.26% sparsity, 0.64% loss in the paper
        let bp_only = wikitext.score(&PruningSpec {
            sparsity: 0.6426,
            level1_guided: true,
            level2: None,
        });
        let loss = wikitext.base_score - bp_only;
        assert!((0.002..0.015).contains(&loss), "BP-only loss {loss}");
        // RT3: 75.24% sparsity, 0.95% loss
        let rt3 = wikitext.score(&PruningSpec {
            sparsity: 0.7524,
            level1_guided: true,
            level2: Some(true),
        });
        let loss = wikitext.base_score - rt3;
        assert!((0.004..0.025).contains(&loss), "RT3 loss {loss}");
    }

    #[test]
    fn random_pruning_loses_more_than_guided_pruning() {
        for profile in [
            TaskProfile::wikitext2(),
            TaskProfile::rte(),
            TaskProfile::stsb(),
        ] {
            let guided = profile.score(&PruningSpec {
                sparsity: 0.5,
                level1_guided: true,
                level2: Some(true),
            });
            let random1 = profile.score(&PruningSpec {
                sparsity: 0.5,
                level1_guided: false,
                level2: Some(true),
            });
            let random_both = profile.score(&PruningSpec {
                sparsity: 0.5,
                level1_guided: false,
                level2: Some(false),
            });
            assert!(guided > random1, "{}", profile.name);
            assert!(random1 > random_both, "{}", profile.name);
        }
    }

    #[test]
    fn glue_profiles_exist_for_all_tasks() {
        for task in GlueTask::all() {
            let p = TaskProfile::glue(task);
            assert_eq!(p.name, task.name());
            assert!(p.base_score > 0.3 && p.base_score <= 1.0, "{}", p.name);
        }
    }

    #[test]
    fn surrogate_evaluator_uses_measured_mask_sparsity() {
        use rt3_tensor::Matrix;
        let mut eval = SurrogateEvaluator::new(TaskProfile::wikitext2());
        let mut masks = MaskSet::new();
        masks.insert("w", Matrix::zeros(4, 4)); // fully pruned
        let spec = PruningSpec {
            sparsity: 0.0, // contradicts the masks; the masks win
            level1_guided: true,
            level2: None,
        };
        let score = eval.evaluate(CandidateMasks::ready(&masks), &spec);
        assert!(score < eval.unpruned_score());
    }

    /// The surrogate scores a lazy handle from the spec's sparsity without
    /// building the masks, and the masks are built once, on the first
    /// `masks()` call, however many handles share the cell.
    #[test]
    fn lazy_masks_are_built_once_and_only_when_read() {
        use rt3_tensor::Matrix;
        use std::cell::Cell;
        let builds = Cell::new(0);
        let build = || {
            builds.set(builds.get() + 1);
            let mut masks = MaskSet::new();
            masks.insert("w", Matrix::from_vec(1, 4, vec![1.0, 0.0, 0.0, 0.0]));
            masks
        };
        let cell = OnceCell::new();
        let masks = CandidateMasks::lazy(&cell, &build);
        let mut eval = SurrogateEvaluator::new(TaskProfile::wikitext2());
        let spec = PruningSpec {
            sparsity: 0.75,
            level1_guided: true,
            level2: Some(true),
        };
        let score = eval.evaluate(masks, &spec);
        assert_eq!(builds.get(), 0);
        assert_eq!(score, eval.profile().score(&spec));
        assert!(masks.ready_masks().is_none());
        assert_eq!(masks.masks().overall_sparsity(), 0.75);
        let again = CandidateMasks::lazy(&cell, &build);
        assert!(std::ptr::eq(again.masks(), masks.masks()));
        assert_eq!(builds.get(), 1);
    }
}
