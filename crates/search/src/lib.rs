//! # rt3-search
//!
//! Pluggable Level-2 optimizers for RT3. The paper's Level-2 search assigns
//! one candidate pattern set per V/F level with an RL controller and argues
//! that choice against alternatives (Table III); this crate turns the
//! assignment problem into a subsystem boundary so those alternatives are
//! first-class:
//!
//! * the [`Optimizer`] trait — `propose` / `observe` / `best` over an
//!   [`AssignmentSpace`];
//! * the budget-matched [`SearchDriver`], which runs any optimizer for a
//!   fixed number of *distinct* evaluations through a memoized
//!   [`EvaluationCache`] (repeated proposals are free, so comparisons are
//!   fair);
//! * five implementations: [`Reinforce`] (the REINFORCE-trained RNN
//!   [`Controller`] behind the trait, still the default of
//!   `rt3-core::run_level2_search`),
//!   [`Evolutionary`] (seeded μ+λ with per-level mutation and uniform
//!   crossover), [`DecomposedBandit`] (per-level UCB1 / ε-greedy arms),
//!   [`RandomSearch`] (the equal-budget baseline) and [`Exhaustive`]
//!   (ground truth for small spaces).
//!
//! The crate knows nothing about models, masks or rewards — evaluation is a
//! closure the caller supplies (`rt3-core` plugs in its `SolutionPoint`
//! evaluation), which is what keeps the dependency arrow pointing from
//! `rt3-core` to here.
//!
//! # Examples
//!
//! ```
//! use rt3_search::{
//!     AssignmentSpace, DriverConfig, Evolutionary, Optimizer, SearchDriver,
//! };
//!
//! // maximise a toy separable objective over 3 levels × 4 candidates
//! let space = AssignmentSpace::new(3, 4);
//! let mut optimizer = Evolutionary::for_space(space, 42);
//! let driver = SearchDriver::new(DriverConfig::budget(40));
//! let outcome = driver.run(&mut optimizer, |actions| {
//!     actions.iter().map(|&a| a as f64).sum::<f64>()
//! });
//! assert!(outcome.unique_evaluations <= 40);
//! assert_eq!(outcome.best().map(|r| r.round()), Some(9.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandit;
mod cache;
mod controller;
mod driver;
mod evolutionary;
mod exhaustive;
mod optimizer;
mod random;
mod reinforce;

pub use bandit::{BanditConfig, BanditPolicy, DecomposedBandit};
pub use cache::EvaluationCache;
pub use controller::{Controller, ControllerConfig, Episode};
pub use driver::{DriverConfig, DriverOutcome, Fitness, SearchDriver};
pub use evolutionary::{Evolutionary, EvolutionaryConfig};
pub use exhaustive::Exhaustive;
pub use optimizer::{AssignmentSpace, BestTracker, Optimizer};
pub use random::RandomSearch;
pub use reinforce::Reinforce;

/// The optimizers this crate can build by name — the unit of the Table
/// III-style comparison and of the `RT3_OPTIMIZER` environment selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// REINFORCE policy gradient (the paper's choice).
    Reinforce,
    /// Elitist (μ+λ) evolution.
    Evolutionary,
    /// Per-level UCB1 bandit.
    Bandit,
    /// Uniform random baseline.
    Random,
    /// Lexicographic enumeration (ground truth for small spaces).
    Exhaustive,
}

impl OptimizerKind {
    /// Stable name, matching [`Optimizer::name`] of the built optimizer.
    pub fn name(self) -> &'static str {
        match self {
            Self::Reinforce => "reinforce",
            Self::Evolutionary => "evolutionary",
            Self::Bandit => "bandit",
            Self::Random => "random",
            Self::Exhaustive => "exhaustive",
        }
    }

    /// Parses a kind from a case-insensitive name (aliases: `rl`, `evo`,
    /// `ucb`).
    ///
    /// # Errors
    ///
    /// Returns the unknown name with the accepted spellings.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name.to_ascii_lowercase().as_str() {
            "reinforce" | "rl" => Ok(Self::Reinforce),
            "evolutionary" | "evo" => Ok(Self::Evolutionary),
            "bandit" | "ucb" => Ok(Self::Bandit),
            "random" => Ok(Self::Random),
            "exhaustive" => Ok(Self::Exhaustive),
            other => Err(format!(
                "unknown optimizer {other:?} (expected reinforce|evolutionary|bandit|random|exhaustive)"
            )),
        }
    }

    /// The learning optimizers that must beat [`RandomSearch`] at equal
    /// budget (the CI gate of `examples/search_comparison.rs`).
    pub fn tuned() -> [Self; 3] {
        [Self::Reinforce, Self::Evolutionary, Self::Bandit]
    }

    /// Every kind, in comparison-report order.
    pub fn all() -> [Self; 5] {
        [
            Self::Reinforce,
            Self::Evolutionary,
            Self::Bandit,
            Self::Random,
            Self::Exhaustive,
        ]
    }
}

impl std::fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds a default-configured optimizer of `kind` over `space`. All kinds
/// are deterministic for a fixed `seed` ([`Exhaustive`] ignores it).
pub fn build_optimizer(
    kind: OptimizerKind,
    space: AssignmentSpace,
    seed: u64,
) -> Box<dyn Optimizer> {
    match kind {
        OptimizerKind::Reinforce => Box::new(Reinforce::for_space(space, seed)),
        OptimizerKind::Evolutionary => Box::new(Evolutionary::for_space(space, seed)),
        OptimizerKind::Bandit => Box::new(DecomposedBandit::for_space(space, seed)),
        OptimizerKind::Random => Box::new(RandomSearch::new(space, seed)),
        OptimizerKind::Exhaustive => Box::new(Exhaustive::new(space)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_parse_and_name() {
        for kind in OptimizerKind::all() {
            assert_eq!(OptimizerKind::parse(kind.name()), Ok(kind));
            assert_eq!(
                build_optimizer(kind, AssignmentSpace::new(2, 3), 7).name(),
                kind.name()
            );
        }
        assert_eq!(OptimizerKind::parse("RL"), Ok(OptimizerKind::Reinforce));
        assert_eq!(OptimizerKind::parse("evo"), Ok(OptimizerKind::Evolutionary));
        assert_eq!(OptimizerKind::parse("ucb"), Ok(OptimizerKind::Bandit));
        assert!(OptimizerKind::parse("annealing").is_err());
    }
}
