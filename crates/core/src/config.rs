//! Configuration of the end-to-end RT3 framework.

use rt3_hardware::{DvfsGovernor, LatencyModel, PerformancePredictor};
use rt3_pruning::{BlockPruningConfig, PatternSpaceConfig};
use rt3_transformer::TransformerConfig;

/// Parameters of the reward function, Eq. (1) of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct RewardParams {
    /// Per-level accuracy weights `α_i` (must sum to 1; one per V/F level,
    /// ordered from the highest-frequency level to the lowest).
    pub level_weights: Vec<f64>,
    /// `A_m`: the pre-set lowest acceptable accuracy.
    pub min_accuracy: f64,
    /// `pen`: penalty applied when the accuracy ordering across levels is
    /// violated (`cond = False`).
    pub penalty: f64,
}

impl RewardParams {
    /// Equal weights over `levels` sub-models with a minimum accuracy floor.
    pub fn uniform(levels: usize, min_accuracy: f64, penalty: f64) -> Self {
        Self {
            level_weights: vec![1.0 / levels as f64; levels],
            min_accuracy,
            penalty,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.level_weights.is_empty() {
            return Err("at least one level weight is required".into());
        }
        let sum: f64 = self.level_weights.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(format!("level weights must sum to 1, got {sum}"));
        }
        if !(0.0..1.0).contains(&self.min_accuracy) {
            return Err("min_accuracy must be in [0, 1)".into());
        }
        if self.penalty < 0.0 {
            return Err("penalty must be non-negative".into());
        }
        Ok(())
    }
}

/// Full configuration of an RT3 run: the problem definition of Section II-C
/// (timing constraint `T`, energy budget `E`, V/F levels `L`) plus the
/// hyper-parameters of both optimisation levels.
#[derive(Debug, Clone, PartialEq)]
pub struct Rt3Config {
    /// Real-time latency constraint `T` in milliseconds.
    pub timing_constraint_ms: f64,
    /// Battery energy budget `E` in joules.
    pub energy_budget_j: f64,
    /// The DVFS governor (selected V/F levels and step-down thresholds).
    pub governor: DvfsGovernor,
    /// Level-1 block-structured pruning configuration.
    pub block_pruning: BlockPruningConfig,
    /// Level-2 pattern search-space configuration.
    pub pattern_space: PatternSpaceConfig,
    /// Number of candidate sparsity ratios explored (`θ × N` in the paper);
    /// candidates are spread between the backbone sparsity and ~0.95.
    pub candidate_sparsities: usize,
    /// Number of RL episodes.
    pub episodes: usize,
    /// Reward parameters (Eq. 1).
    pub reward: RewardParams,
    /// Sequence length used by the latency predictor.
    pub seq_len: usize,
    /// Model shape used by the latency predictor (may be the full-size paper
    /// shape even when the trained model is smaller).
    pub workload_config: TransformerConfig,
    /// The latency predictor calibration (single core for the small
    /// Transformer, full cluster for DistilBERT-scale models).
    pub predictor: PerformancePredictor,
    /// Master RNG seed.
    pub seed: u64,
}

impl Rt3Config {
    /// A configuration mirroring the paper's WikiText-2 experiment at
    /// reduced model scale: three V/F levels {l3, l4, l6}, 104 ms timing
    /// constraint, and the full-size Transformer shape for latency
    /// prediction.
    pub fn wikitext_default() -> Self {
        let governor = DvfsGovernor::paper_default();
        let levels = governor.levels().len();
        Self {
            timing_constraint_ms: 104.0,
            energy_budget_j: 200_000.0,
            governor,
            block_pruning: BlockPruningConfig::default(),
            pattern_space: PatternSpaceConfig::default(),
            candidate_sparsities: 6,
            episodes: 30,
            reward: RewardParams::uniform(levels, 0.80, 0.3),
            seq_len: 24,
            workload_config: TransformerConfig {
                vocab_size: 28_785,
                hidden_dim: 800,
                num_heads: 8,
                ffn_dim: 1600,
                num_encoder_layers: 2,
                num_decoder_layers: 1,
                max_seq_len: 64,
            },
            predictor: PerformancePredictor::cortex_a7(),
            seed: 0x52_54_33,
        }
    }

    /// A configuration mirroring the DistilBERT GLUE experiments (RTE: 200 ms
    /// constraint).
    pub fn distilbert_default(timing_constraint_ms: f64) -> Self {
        let mut cfg = Self::wikitext_default();
        cfg.timing_constraint_ms = timing_constraint_ms;
        cfg.workload_config = TransformerConfig::distilbert_full(30_522);
        cfg.seq_len = 64;
        cfg.predictor = PerformancePredictor::cortex_a7_cluster();
        cfg
    }

    /// A small configuration for tests: few episodes, few candidates.
    pub fn tiny_test() -> Self {
        let mut cfg = Self::wikitext_default();
        cfg.episodes = 6;
        cfg.candidate_sparsities = 3;
        cfg.pattern_space.pattern_size = 4;
        cfg.pattern_space.patterns_per_set = 2;
        cfg.workload_config = TransformerConfig::paper_transformer(256);
        cfg
    }

    /// The single-request latency model of this configuration: its
    /// predictor on its workload shape and sequence length, the formula
    /// both the search and the serving path price a level with.
    pub fn latency_model(&self) -> LatencyModel {
        LatencyModel {
            predictor: self.predictor,
            workload_config: self.workload_config.clone(),
            seq_len: self.seq_len,
        }
    }

    /// Number of V/F levels (= number of sub-models searched).
    pub fn num_levels(&self) -> usize {
        self.governor.levels().len()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.timing_constraint_ms <= 0.0 {
            return Err("timing constraint must be positive".into());
        }
        if self.energy_budget_j <= 0.0 {
            return Err("energy budget must be positive".into());
        }
        if self.candidate_sparsities == 0 {
            return Err("at least one candidate sparsity is required".into());
        }
        if self.episodes == 0 {
            return Err("at least one episode is required".into());
        }
        if self.reward.level_weights.len() != self.num_levels() {
            return Err(format!(
                "{} level weights provided for {} V/F levels",
                self.reward.level_weights.len(),
                self.num_levels()
            ));
        }
        self.reward.validate()?;
        self.block_pruning.validate()?;
        self.pattern_space.validate()?;
        self.workload_config.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configurations_validate() {
        assert!(Rt3Config::wikitext_default().validate().is_ok());
        assert!(Rt3Config::distilbert_default(200.0).validate().is_ok());
        assert!(Rt3Config::tiny_test().validate().is_ok());
    }

    #[test]
    fn paper_workload_shape_matches_the_reported_dimensions() {
        let cfg = Rt3Config::wikitext_default();
        // the paper mentions weights as large as 28785 x 800
        assert_eq!(cfg.workload_config.vocab_size, 28_785);
        assert_eq!(cfg.workload_config.hidden_dim, 800);
        assert_eq!(cfg.num_levels(), 3);
    }

    #[test]
    fn reward_params_must_sum_to_one() {
        let mut p = RewardParams::uniform(3, 0.8, 0.3);
        assert!(p.validate().is_ok());
        p.level_weights[0] = 0.9;
        assert!(p.validate().is_err());
    }

    #[test]
    fn mismatched_weight_count_is_rejected() {
        let mut cfg = Rt3Config::wikitext_default();
        cfg.reward.level_weights = vec![0.5, 0.5];
        assert!(cfg.validate().is_err());
    }
}
