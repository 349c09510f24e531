//! # rt3-hardware
//!
//! Mobile-hardware substrate for the RT3 reproduction: DVFS, power, battery,
//! latency prediction and run-time reconfiguration costs.
//!
//! The paper's hardware-efficiency metric is the *number of runs* — how many
//! inferences fit in a battery charge while meeting a latency constraint —
//! measured on an Odroid-XU3 board. That board is replaced here by
//! calibrated analytical models (see DESIGN.md):
//!
//! * [`VfLevel`] / [`DvfsGovernor`] — Table I's V/F levels and the
//!   battery-driven governor (F/N/E modes).
//! * [`PowerModel`] / [`Battery`] / [`number_of_runs`] — CMOS power and
//!   energy accounting, plus the [`DrainRateTracker`] EWMA drain observer
//!   behind the runtime's predictive (time-to-death) battery reasoning.
//! * [`PerformancePredictor`] / [`ModelWorkload`] — the latency predictor
//!   (component ④'s hardware feedback), and [`LatencyModel`], the one
//!   single-request formula the search and the serving path price with.
//! * [`MemoryModel`] / [`simulate_battery_lifetime`] — pattern-set switch
//!   cost vs full model reload, and the Table II battery simulation.
//!
//! # Examples
//!
//! ```
//! use rt3_hardware::{ModelWorkload, PerformancePredictor, VfLevel};
//! use rt3_sparse::SparseFormat;
//! use rt3_transformer::TransformerConfig;
//!
//! let config = TransformerConfig::distilbert_full(30522);
//! let workload = ModelWorkload::from_config(&config, 0.6, 64, SparseFormat::BlockPruned);
//! let predictor = PerformancePredictor::cortex_a7();
//! let latency = predictor.latency_ms(&workload, &VfLevel::odroid_level(6));
//! assert!(latency > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dvfs;
mod latency;
mod power;
mod reconfig;

pub use dvfs::{DvfsGovernor, DvfsMode, VfLevel};
pub use latency::{LatencyModel, LayerWorkload, ModelWorkload, PerformancePredictor};
pub use power::{number_of_runs, Battery, DrainRateTracker, PowerModel};
pub use reconfig::{
    simulate_battery_lifetime, simulate_fixed_level, ExecutionProfile, MemoryModel,
    SimulationReport, SwitchCost,
};
