//! # rt3
//!
//! Facade crate of the RT3 reproduction ("Dancing along Battery: Enabling
//! Transformer with Run-time Reconfigurability on Mobile Devices", DAC
//! 2021). It re-exports the public API of every subsystem so applications
//! can depend on a single crate:
//!
//! * [`tensor`] — matrices, autograd and optimizers;
//! * [`sparse`] — COO/CSR/block/pattern sparse formats and storage reports;
//! * [`data`] — the synthetic WikiText-like corpus and the GLUE task names;
//! * [`transformer`] — the Transformer language model and its training loop;
//! * [`pruning`] — block-structured pruning and pattern-space generation;
//! * [`hardware`] — DVFS, power/battery, latency prediction, reconfiguration;
//! * [`search`] — pluggable Level-2 optimizers (REINFORCE over the RNN
//!   policy controller, evolutionary, bandit, random, exhaustive) behind
//!   one trait, with a budget-matched memoizing search driver;
//! * [`core`] — the two-level RT3 framework, baselines and experiments;
//! * [`runtime`] — the battery-aware online serving engine (model bank,
//!   deadline scheduler, trace-driven scenarios), the fleet layer
//!   (battery-headroom routing across simulated devices) and the chaos
//!   harness (closed-loop retrying clients, compositional fault
//!   scenarios, global invariant checks);
//! * [`server`] — the real-socket serving front-end (rt3-serve): a
//!   length-prefixed binary protocol over `TcpListener`, admission mapped
//!   to explicit reject codes, graceful drain on battery death, read and
//!   write deadlines reaping hung peers, a closed-loop load generator
//!   (bounded outstanding jobs, timeout-retry with backoff) measuring
//!   wall-clock latency, and a seeded fault injector for the server
//!   boundary;
//! * [`telemetry`] — zero-dependency observability primitives: sharded
//!   counters/gauges/streaming histograms, the request-lifecycle trace
//!   ring, the controller decision audit and JSONL export (wired into the
//!   runtime behind `ServeConfig::telemetry` / `FleetConfig::telemetry`).
//!
//! # Examples
//!
//! ```
//! use rt3::core::{run_level1, Rt3Config, SurrogateEvaluator, TaskProfile};
//! use rt3::transformer::{TransformerConfig, TransformerLm};
//!
//! let model = TransformerLm::new(TransformerConfig::tiny(32), 0);
//! let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
//! let backbone = run_level1(&model, &Rt3Config::tiny_test(), &mut evaluator);
//! assert!(backbone.sparsity > 0.0);
//! ```
//!
//! Runnable end-to-end examples live in `examples/` (`quickstart`,
//! `battery_runtime`, `automl_search`, `search_comparison`,
//! `ablation_study`, `serve_trace`, `serve_fleet`, `serve_chaos`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rt3_core as core;

/// Environment-variable helpers shared by the runnable examples (the
/// `RT3_BUDGET` / `RT3_SEED` / `RT3_OPTIMIZER` / `RT3_TELEMETRY` knobs).
pub mod env {
    /// Reads `name` from the process environment, parsed into `T`;
    /// returns `default` when the variable is unset.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but does not parse as `T`.
    pub fn parsed<T: std::str::FromStr>(name: &str, default: T) -> T {
        match std::env::var(name) {
            Ok(raw) => raw
                .parse()
                .unwrap_or_else(|_| panic!("{name}={raw:?} could not be parsed")),
            Err(_) => default,
        }
    }

    /// Parses `RT3_TELEMETRY=jsonl:<path>` into the JSONL sink path, `None`
    /// when the variable is unset.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but is not `jsonl:<path>`.
    pub fn jsonl_sink() -> Option<std::path::PathBuf> {
        match std::env::var("RT3_TELEMETRY") {
            Ok(raw) => match raw.strip_prefix("jsonl:") {
                Some(path) if !path.is_empty() => Some(path.into()),
                _ => panic!("RT3_TELEMETRY={raw:?} (expected jsonl:<path>)"),
            },
            Err(_) => None,
        }
    }
}

pub use rt3_data as data;
pub use rt3_hardware as hardware;
pub use rt3_pruning as pruning;
pub use rt3_runtime as runtime;
pub use rt3_search as search;
pub use rt3_server as server;
pub use rt3_sparse as sparse;
pub use rt3_telemetry as telemetry;
pub use rt3_tensor as tensor;
pub use rt3_transformer as transformer;
