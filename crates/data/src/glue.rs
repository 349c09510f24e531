//! Synthetic GLUE-style task generators.
//!
//! The paper evaluates DistilBERT on the nine GLUE tasks. Those datasets are
//! not available here, so each task is replaced by a *synthetic* counterpart
//! with a planted, learnable decision rule over a synthetic vocabulary:
//!
//! * single-sentence classification (SST-2, CoLA): class-indicative keyword
//!   tokens are injected into otherwise random sequences;
//! * sentence-pair classification (MRPC, QQP, QNLI, RTE, WNLI, MNLI): the
//!   label is determined by the degree of token overlap between the two
//!   segments (entailment/paraphrase ⇔ high overlap);
//! * similarity regression (STS-B): the target score is proportional to the
//!   Jaccard overlap of the two segments, scaled to `[0, 5]`.
//!
//! Tasks differ in how much signal is injected, which mirrors the spread of
//! scores across GLUE tasks in the paper's Fig. 5.

use crate::metrics::MetricKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Token id reserved for the segment separator in sentence-pair tasks.
pub const SEP_TOKEN: usize = 1;

/// The nine GLUE tasks plus the WikiText-style LM task used in Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlueTask {
    /// Multi-genre natural language inference (3-way classification).
    Mnli,
    /// Quora question pairs (binary, F1).
    Qqp,
    /// Question answering NLI (binary, accuracy).
    Qnli,
    /// Stanford sentiment treebank (binary, accuracy).
    Sst2,
    /// Corpus of linguistic acceptability (binary, Matthews correlation).
    Cola,
    /// Semantic textual similarity benchmark (regression, Spearman).
    StsB,
    /// Microsoft research paraphrase corpus (binary, F1).
    Mrpc,
    /// Recognising textual entailment (binary, accuracy).
    Rte,
    /// Winograd NLI (binary, accuracy).
    Wnli,
}

impl GlueTask {
    /// All nine tasks, in the order of the paper's Fig. 5.
    pub fn all() -> [GlueTask; 9] {
        [
            GlueTask::Mnli,
            GlueTask::Qqp,
            GlueTask::Qnli,
            GlueTask::Sst2,
            GlueTask::Cola,
            GlueTask::StsB,
            GlueTask::Mrpc,
            GlueTask::Rte,
            GlueTask::Wnli,
        ]
    }

    /// Canonical short name.
    pub fn name(&self) -> &'static str {
        match self {
            GlueTask::Mnli => "MNLI",
            GlueTask::Qqp => "QQP",
            GlueTask::Qnli => "QNLI",
            GlueTask::Sst2 => "SST-2",
            GlueTask::Cola => "CoLA",
            GlueTask::StsB => "STS-B",
            GlueTask::Mrpc => "MRPC",
            GlueTask::Rte => "RTE",
            GlueTask::Wnli => "WNLI",
        }
    }

    /// The metric reported for this task, following the GLUE conventions the
    /// paper uses.
    pub fn metric(&self) -> MetricKind {
        match self {
            GlueTask::Cola => MetricKind::MatthewsCorrelation,
            GlueTask::Qqp | GlueTask::Mrpc => MetricKind::F1,
            GlueTask::StsB => MetricKind::SpearmanCorrelation,
            _ => MetricKind::Accuracy,
        }
    }

    /// Number of classes, or `None` for the regression task.
    pub fn num_classes(&self) -> Option<usize> {
        match self {
            GlueTask::StsB => None,
            GlueTask::Mnli => Some(3),
            _ => Some(2),
        }
    }

    /// Returns `true` for the regression task (STS-B).
    pub fn is_regression(&self) -> bool {
        matches!(self, GlueTask::StsB)
    }

    /// Returns `true` for sentence-pair tasks.
    pub fn is_sentence_pair(&self) -> bool {
        !matches!(self, GlueTask::Sst2 | GlueTask::Cola)
    }

    /// How many class-indicative keyword tokens are injected per example.
    /// Larger values make the synthetic task easier; the spread mirrors the
    /// relative difficulty of the real GLUE tasks (WNLI/RTE hard, SST-2
    /// easy).
    fn signal_tokens(&self) -> usize {
        match self {
            GlueTask::Sst2 | GlueTask::Qqp | GlueTask::Qnli => 4,
            GlueTask::Mnli | GlueTask::Mrpc | GlueTask::Cola | GlueTask::StsB => 3,
            GlueTask::Rte => 2,
            GlueTask::Wnli => 1,
        }
    }
}

impl std::fmt::Display for GlueTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Label of a synthetic example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Label {
    /// Classification target.
    Class(usize),
    /// Regression target (STS-B score in `[0, 5]`).
    Score(f32),
}

impl Label {
    /// The class index.
    ///
    /// # Panics
    ///
    /// Panics if the label is a regression score.
    pub fn class(&self) -> usize {
        match self {
            Label::Class(c) => *c,
            Label::Score(_) => panic!("label is a regression score, not a class"),
        }
    }

    /// The regression score.
    ///
    /// # Panics
    ///
    /// Panics if the label is a class.
    pub fn score(&self) -> f32 {
        match self {
            Label::Score(s) => *s,
            Label::Class(_) => panic!("label is a class, not a regression score"),
        }
    }
}

/// One synthetic example: a token sequence (pair tasks contain a
/// [`SEP_TOKEN`]) and its label.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// Token ids of fixed length [`TaskConfig::seq_len`].
    pub tokens: Vec<usize>,
    /// Ground-truth label.
    pub label: Label,
}

/// Configuration for synthetic task generation.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskConfig {
    /// Vocabulary size (ids `0` and [`SEP_TOKEN`] are reserved).
    pub vocab_size: usize,
    /// Fixed sequence length of every example.
    pub seq_len: usize,
    /// Number of training examples.
    pub train_examples: usize,
    /// Number of development (evaluation) examples.
    pub dev_examples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TaskConfig {
    fn default() -> Self {
        Self {
            vocab_size: 128,
            seq_len: 24,
            train_examples: 600,
            dev_examples: 200,
            seed: 0x61_u64,
        }
    }
}

impl TaskConfig {
    /// Small configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            vocab_size: 64,
            seq_len: 12,
            train_examples: 160,
            dev_examples: 80,
            seed: 11,
        }
    }
}

/// A generated synthetic task: train and dev splits plus task metadata.
///
/// # Examples
///
/// ```
/// use rt3_data::{GlueTask, TaskConfig, TaskDataset};
///
/// let ds = TaskDataset::generate(GlueTask::Rte, &TaskConfig::tiny());
/// assert_eq!(ds.task(), GlueTask::Rte);
/// assert_eq!(ds.train().len(), 160);
/// assert!(ds.dev().iter().all(|e| e.tokens.len() == 12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDataset {
    task: GlueTask,
    vocab_size: usize,
    seq_len: usize,
    train: Vec<Example>,
    dev: Vec<Example>,
}

impl TaskDataset {
    /// Generates the synthetic dataset for `task`. The same configuration
    /// always yields the same dataset.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_size < 8` or `seq_len < 4`.
    pub fn generate(task: GlueTask, config: &TaskConfig) -> Self {
        assert!(config.vocab_size >= 8, "vocabulary too small");
        assert!(config.seq_len >= 4, "sequence length too small");
        let mut rng = StdRng::seed_from_u64(config.seed ^ task_seed(task));
        // class-indicative keyword pools (disjoint per class)
        let classes = task.num_classes().unwrap_or(2);
        let pool_size = 6;
        let mut keywords: Vec<Vec<usize>> = Vec::with_capacity(classes);
        let mut available: Vec<usize> = (2..config.vocab_size).collect();
        available.shuffle(&mut rng);
        for c in 0..classes {
            keywords.push(available[c * pool_size..(c + 1) * pool_size].to_vec());
        }
        let make_split = |n: usize, rng: &mut StdRng| -> Vec<Example> {
            (0..n)
                .map(|_| generate_example(task, config, &keywords, rng))
                .collect()
        };
        let train = make_split(config.train_examples, &mut rng);
        let dev = make_split(config.dev_examples, &mut rng);
        Self {
            task,
            vocab_size: config.vocab_size,
            seq_len: config.seq_len,
            train,
            dev,
        }
    }

    /// The task this dataset was generated for.
    pub fn task(&self) -> GlueTask {
        self.task
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Fixed sequence length.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Training examples.
    pub fn train(&self) -> &[Example] {
        &self.train
    }

    /// Development (evaluation) examples.
    pub fn dev(&self) -> &[Example] {
        &self.dev
    }

    /// Majority-class accuracy (or score variance for STS-B) — the floor a
    /// trained model must beat.
    pub fn majority_baseline(&self) -> f64 {
        if self.task.is_regression() {
            return 0.0;
        }
        let classes = self.task.num_classes().unwrap_or(2);
        let mut counts = vec![0usize; classes];
        for e in &self.dev {
            counts[e.label.class()] += 1;
        }
        let max = counts.iter().max().copied().unwrap_or(0);
        if self.dev.is_empty() {
            0.0
        } else {
            max as f64 / self.dev.len() as f64
        }
    }
}

fn task_seed(task: GlueTask) -> u64 {
    match task {
        GlueTask::Mnli => 101,
        GlueTask::Qqp => 102,
        GlueTask::Qnli => 103,
        GlueTask::Sst2 => 104,
        GlueTask::Cola => 105,
        GlueTask::StsB => 106,
        GlueTask::Mrpc => 107,
        GlueTask::Rte => 108,
        GlueTask::Wnli => 109,
    }
}

fn generate_example(
    task: GlueTask,
    config: &TaskConfig,
    keywords: &[Vec<usize>],
    rng: &mut StdRng,
) -> Example {
    let random_token = |rng: &mut StdRng| rng.gen_range(2..config.vocab_size);
    if task.is_regression() {
        // STS-B: two segments with controlled overlap; score = 5 * overlap.
        let seg_len = (config.seq_len - 1) / 2;
        let overlap_frac: f32 = rng.gen();
        let shared = ((seg_len as f32) * overlap_frac).round() as usize;
        let first: Vec<usize> = (0..seg_len).map(|_| random_token(rng)).collect();
        let mut second: Vec<usize> = first.iter().take(shared).cloned().collect();
        while second.len() < seg_len {
            second.push(random_token(rng));
        }
        second.shuffle(rng);
        let mut tokens = first;
        tokens.push(SEP_TOKEN);
        tokens.extend(second);
        tokens.resize(config.seq_len, SEP_TOKEN);
        let score = 5.0 * shared as f32 / seg_len as f32;
        return Example {
            tokens,
            label: Label::Score(score),
        };
    }
    let classes = task.num_classes().unwrap_or(2);
    let class = rng.gen_range(0..classes);
    let signal = task.signal_tokens();
    if task.is_sentence_pair() {
        // pair task: class 1 (or the "entailment" class 0 for MNLI-style
        // 3-way) is indicated both by keyword injection and token overlap.
        let seg_len = (config.seq_len - 1) / 2;
        let first: Vec<usize> = (0..seg_len).map(|_| random_token(rng)).collect();
        let mut second: Vec<usize> = Vec::with_capacity(seg_len);
        // overlap proportional to class index (higher class = more overlap)
        let overlap = (seg_len * class) / classes.max(1);
        second.extend(first.iter().take(overlap).cloned());
        while second.len() < seg_len {
            second.push(random_token(rng));
        }
        // inject class keywords into the second segment
        for k in 0..signal.min(seg_len) {
            let pos = rng.gen_range(0..seg_len);
            second[pos] = keywords[class][k % keywords[class].len()];
        }
        let mut tokens = first;
        tokens.push(SEP_TOKEN);
        tokens.extend(second);
        tokens.resize(config.seq_len, SEP_TOKEN);
        Example {
            tokens,
            label: Label::Class(class),
        }
    } else {
        // single-sentence task: random tokens with injected class keywords
        let mut tokens: Vec<usize> = (0..config.seq_len).map(|_| random_token(rng)).collect();
        for k in 0..signal.min(config.seq_len) {
            let pos = rng.gen_range(0..config.seq_len);
            tokens[pos] = keywords[class][k % keywords[class].len()];
        }
        Example {
            tokens,
            label: Label::Class(class),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tasks_have_consistent_metadata() {
        for task in GlueTask::all() {
            if task.is_regression() {
                assert_eq!(task.num_classes(), None);
                assert_eq!(task.metric(), MetricKind::SpearmanCorrelation);
            } else {
                assert!(task.num_classes().unwrap_or(0) >= 2);
            }
            assert!(!task.name().is_empty());
        }
        assert_eq!(GlueTask::Mnli.num_classes(), Some(3));
        assert_eq!(GlueTask::Cola.metric(), MetricKind::MatthewsCorrelation);
        assert_eq!(GlueTask::Qqp.metric(), MetricKind::F1);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TaskDataset::generate(GlueTask::Sst2, &TaskConfig::tiny());
        let b = TaskDataset::generate(GlueTask::Sst2, &TaskConfig::tiny());
        assert_eq!(a, b);
    }

    #[test]
    fn different_tasks_get_different_data() {
        let a = TaskDataset::generate(GlueTask::Sst2, &TaskConfig::tiny());
        let b = TaskDataset::generate(GlueTask::Cola, &TaskConfig::tiny());
        assert_ne!(a.train(), b.train());
    }

    #[test]
    fn examples_have_fixed_length_and_valid_tokens() {
        for task in GlueTask::all() {
            let ds = TaskDataset::generate(task, &TaskConfig::tiny());
            for e in ds.train().iter().chain(ds.dev()) {
                assert_eq!(e.tokens.len(), 12);
                assert!(e.tokens.iter().all(|&t| t < ds.vocab_size()));
            }
        }
    }

    #[test]
    fn pair_tasks_contain_separator() {
        let ds = TaskDataset::generate(GlueTask::Rte, &TaskConfig::tiny());
        assert!(ds.train().iter().all(|e| e.tokens.contains(&SEP_TOKEN)));
    }

    #[test]
    fn stsb_scores_are_in_range() {
        let ds = TaskDataset::generate(GlueTask::StsB, &TaskConfig::tiny());
        for e in ds.train() {
            let s = e.label.score();
            assert!((0.0..=5.0).contains(&s));
        }
    }

    #[test]
    fn classification_labels_are_in_range() {
        for task in GlueTask::all() {
            if task.is_regression() {
                continue;
            }
            let classes = task.num_classes().unwrap();
            let ds = TaskDataset::generate(task, &TaskConfig::tiny());
            assert!(ds.train().iter().all(|e| e.label.class() < classes));
        }
    }

    #[test]
    fn keyword_signal_makes_task_learnable_without_a_model() {
        // A simple keyword-counting classifier must beat the majority
        // baseline on SST-2-like data; otherwise the planted rule is broken.
        let config = TaskConfig {
            train_examples: 400,
            dev_examples: 200,
            ..TaskConfig::tiny()
        };
        let ds = TaskDataset::generate(GlueTask::Sst2, &config);
        // learn keyword association from training split
        let mut token_class_counts = vec![[0usize; 2]; ds.vocab_size()];
        for e in ds.train() {
            for &t in &e.tokens {
                token_class_counts[t][e.label.class()] += 1;
            }
        }
        let mut correct = 0;
        for e in ds.dev() {
            let mut votes = [0i64; 2];
            for &t in &e.tokens {
                let counts = token_class_counts[t];
                if counts[0] + counts[1] > 0 {
                    votes[0] += counts[0] as i64 - counts[1] as i64;
                    votes[1] += counts[1] as i64 - counts[0] as i64;
                }
            }
            let pred = if votes[1] > votes[0] { 1 } else { 0 };
            if pred == e.label.class() {
                correct += 1;
            }
        }
        let acc = correct as f64 / ds.dev().len() as f64;
        assert!(
            acc > ds.majority_baseline() + 0.1,
            "keyword classifier accuracy {:.3} vs baseline {:.3}",
            acc,
            ds.majority_baseline()
        );
    }

    #[test]
    #[should_panic(expected = "label is a class")]
    fn score_accessor_panics_on_class_label() {
        let _ = Label::Class(1).score();
    }
}
