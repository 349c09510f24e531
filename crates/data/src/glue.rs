//! The nine GLUE tasks of the paper's DistilBERT experiments.
//!
//! No GLUE data or classifier is reproduced here: the tasks only name the
//! surrogate accuracy profiles and the Fig. 5 rows (`rt3-core`).

/// The nine GLUE tasks, one per row of the paper's Fig. 5.
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
}

impl std::fmt::Display for GlueTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_tasks_have_consistent_metadata() {
        let names: HashSet<&str> = GlueTask::all().iter().map(GlueTask::name).collect();
        assert_eq!(names.len(), 9, "task names must be distinct");
        for task in GlueTask::all() {
            assert!(!task.name().is_empty());
            assert_eq!(task.to_string(), task.name());
        }
    }
}
