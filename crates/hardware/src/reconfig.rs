//! Run-time reconfiguration: pattern-set switching costs and the battery
//! lifetime simulation behind the paper's motivation experiment (Table II)
//! and the "number of runs" columns of Tables III/IV.

use crate::dvfs::{DvfsGovernor, DvfsMode, VfLevel};
use crate::power::Battery;
use rt3_sparse::PatternSet;
use std::collections::BTreeMap;

/// Cost of one software reconfiguration event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchCost {
    /// Bytes moved between off-chip memory and the working set.
    pub bytes_moved: usize,
    /// Wall-clock time of the switch in milliseconds.
    pub time_ms: f64,
}

/// Memory-system model used to convert switch traffic into time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Sustained off-chip DRAM bandwidth in bytes per millisecond (pattern
    /// sets are swapped between DRAM and the working set).
    pub bandwidth_bytes_per_ms: f64,
    /// Sustained flash/eMMC bandwidth in bytes per millisecond (full model
    /// checkpoints live in storage, not DRAM).
    pub storage_bandwidth_bytes_per_ms: f64,
    /// Fixed software overhead per pattern-set switch (driver call,
    /// remapping) in milliseconds.
    pub fixed_overhead_ms: f64,
    /// Framework overhead of loading and re-initialising a full model
    /// checkpoint, in milliseconds.
    pub model_load_overhead_ms: f64,
}

impl MemoryModel {
    /// LPDDR3-class memory of the Odroid-XU3 (~2.1 GB/s sustained for the
    /// little cluster), eMMC storage around 80 MB/s, 2 ms switch overhead
    /// and roughly one second of framework model-initialisation time.
    pub fn odroid_xu3() -> Self {
        Self {
            bandwidth_bytes_per_ms: 2.1e6,
            storage_bandwidth_bytes_per_ms: 8.0e4,
            fixed_overhead_ms: 2.0,
            model_load_overhead_ms: 1_000.0,
        }
    }

    /// Cost of swapping one pattern set in from off-chip memory (and the old
    /// one out): pattern bitmaps plus one assignment id per block for every
    /// pattern-pruned weight.
    ///
    /// `total_blocks` is the number of `psize x psize` blocks across all
    /// pattern-pruned weights.
    pub fn pattern_switch_cost(&self, set: &PatternSet, total_blocks: usize) -> SwitchCost {
        let bytes = 2 * (set.storage_bytes() + total_blocks * std::mem::size_of::<u16>());
        SwitchCost {
            bytes_moved: bytes,
            time_ms: self.fixed_overhead_ms + bytes as f64 / self.bandwidth_bytes_per_ms,
        }
    }

    /// Cost of reloading an entire model of `model_bytes` bytes (the
    /// upper-bound baseline, which keeps one separately trained model per
    /// V/F level and must read the full checkpoint back from storage and
    /// re-initialise it).
    pub fn full_model_reload_cost(&self, model_bytes: usize) -> SwitchCost {
        SwitchCost {
            bytes_moved: model_bytes,
            time_ms: self.model_load_overhead_ms
                + model_bytes as f64 / self.storage_bandwidth_bytes_per_ms,
        }
    }
}

/// Execution profile of the model variant used at one governor level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionProfile {
    /// Inference latency in milliseconds at that level.
    pub latency_ms: f64,
    /// Core power draw in watts at that level.
    pub power_w: f64,
}

/// Outcome of simulating a full battery discharge.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Total inferences completed before the battery emptied.
    pub runs: u64,
    /// Inferences whose latency exceeded the timing constraint.
    pub deadline_violations: u64,
    /// Number of V/F (and pattern-set) switches performed.
    pub switches: u64,
    /// Runs per DVFS mode.
    pub runs_per_mode: BTreeMap<String, u64>,
    /// Whether every inference met the timing constraint.
    pub constraint_satisfied: bool,
}

impl SimulationReport {
    /// Improvement factor of this run count over a baseline run count.
    pub fn improvement_over(&self, baseline_runs: u64) -> f64 {
        if baseline_runs == 0 {
            return 0.0;
        }
        self.runs as f64 / baseline_runs as f64
    }
}

/// Simulates repeatedly running inference until the battery is empty.
///
/// `profiles` holds one [`ExecutionProfile`] per governor level (ordered as
/// [`DvfsGovernor::levels`], i.e. lowest frequency first); the governor picks
/// the level from the battery's state of charge before every inference, which
/// is exactly the paper's coupling of hardware reconfiguration (DVFS) with
/// software reconfiguration (the per-level model variant).
///
/// # Panics
///
/// Panics if `profiles.len() != governor.levels().len()` or any profile has a
/// non-positive latency or power.
pub fn simulate_battery_lifetime(
    governor: &DvfsGovernor,
    battery_capacity_j: f64,
    profiles: &[ExecutionProfile],
    timing_constraint_ms: f64,
) -> SimulationReport {
    assert_eq!(
        profiles.len(),
        governor.levels().len(),
        "one execution profile per governor level is required"
    );
    for p in profiles {
        assert!(
            p.latency_ms > 0.0 && p.power_w > 0.0,
            "profiles must have positive latency and power"
        );
    }
    let mut battery = Battery::new(battery_capacity_j);
    let mut runs = 0u64;
    let mut violations = 0u64;
    let mut switches = 0u64;
    let mut runs_per_mode: BTreeMap<String, u64> = BTreeMap::new();
    let mut previous_mode: Option<DvfsMode> = None;
    loop {
        let mode = governor.mode_for_battery(battery.state_of_charge());
        let position = governor.level_position(mode);
        let profile = profiles[position];
        let energy = profile.power_w * profile.latency_ms / 1000.0;
        if !battery.drain(energy) {
            break;
        }
        if previous_mode.is_some() && previous_mode != Some(mode) {
            switches += 1;
        }
        previous_mode = Some(mode);
        runs += 1;
        if profile.latency_ms > timing_constraint_ms {
            violations += 1;
        }
        *runs_per_mode.entry(mode.to_string()).or_insert(0) += 1;
    }
    SimulationReport {
        runs,
        deadline_violations: violations,
        switches,
        runs_per_mode,
        constraint_satisfied: violations == 0,
    }
}

/// Simulates the no-reconfiguration baseline (approach E1 of Table II): the
/// device always runs at `level` with the single profile given.
pub fn simulate_fixed_level(
    level: &VfLevel,
    battery_capacity_j: f64,
    profile: ExecutionProfile,
    timing_constraint_ms: f64,
) -> SimulationReport {
    let governor = DvfsGovernor::new(vec![*level], 0.66, 0.33);
    simulate_battery_lifetime(
        &governor,
        battery_capacity_j,
        &[profile],
        timing_constraint_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerModel;
    use rt3_sparse::PatternMask;

    fn profiles_scaled_by_frequency(
        gov: &DvfsGovernor,
        base_latency_ms: f64,
    ) -> Vec<ExecutionProfile> {
        // same model at every level: latency scales inversely with frequency
        let power = PowerModel::cortex_a7();
        let top = gov.levels().last().unwrap().frequency_mhz;
        gov.levels()
            .iter()
            .map(|l| ExecutionProfile {
                latency_ms: base_latency_ms * top / l.frequency_mhz,
                power_w: power.power_w(l),
            })
            .collect()
    }

    #[test]
    fn dvfs_extends_battery_but_violates_deadlines_without_sw_reconfig() {
        // Reproduces the qualitative Table II result: E2 (DVFS only) gets
        // more runs than E1 but misses the deadline at low frequency.
        let gov = DvfsGovernor::paper_default();
        let power = PowerModel::cortex_a7();
        let budget = 500.0;
        let constraint = 115.0;
        let base_latency = 114.0; // just meets the constraint at l6
        let e1 = simulate_fixed_level(
            &VfLevel::odroid_level(6),
            budget,
            ExecutionProfile {
                latency_ms: base_latency,
                power_w: power.power_w(&VfLevel::odroid_level(6)),
            },
            constraint,
        );
        let e2 = simulate_battery_lifetime(
            &gov,
            budget,
            &profiles_scaled_by_frequency(&gov, base_latency),
            constraint,
        );
        assert!(e2.runs > e1.runs, "DVFS must extend the number of runs");
        assert!(e1.constraint_satisfied);
        assert!(
            !e2.constraint_satisfied,
            "same model at low V/F must violate the deadline"
        );
    }

    #[test]
    fn software_reconfiguration_restores_deadlines_and_extends_runs_further() {
        // E3: per-level (sparser) model variants keep every latency under the
        // constraint, so more runs than E1 with no violations.
        let gov = DvfsGovernor::paper_default();
        let power = PowerModel::cortex_a7();
        let budget = 500.0;
        let constraint = 115.0;
        let e1 = simulate_fixed_level(
            &VfLevel::odroid_level(6),
            budget,
            ExecutionProfile {
                latency_ms: 114.0,
                power_w: power.power_w(&VfLevel::odroid_level(6)),
            },
            constraint,
        );
        // sparser models at lower levels: latency stays under the constraint
        let profiles: Vec<ExecutionProfile> = gov
            .levels()
            .iter()
            .map(|l| ExecutionProfile {
                latency_ms: 90.0 + 20.0 * (l.index as f64 / 6.0),
                power_w: power.power_w(l),
            })
            .collect();
        let e3 = simulate_battery_lifetime(&gov, budget, &profiles, constraint);
        assert!(e3.constraint_satisfied);
        assert!(e3.runs > e1.runs);
        assert!(e3.improvement_over(e1.runs) > 1.3);
        assert!(e3.switches >= 2, "mode should change as the battery drains");
        assert_eq!(e3.runs_per_mode.len(), 3);
    }

    #[test]
    fn pattern_switch_is_orders_of_magnitude_cheaper_than_model_reload() {
        let memory = MemoryModel::odroid_xu3();
        let set = rt3_sparse::PatternSet::new(vec![
            PatternMask::dense(100),
            PatternMask::dense(100),
            PatternMask::dense(100),
            PatternMask::dense(100),
        ])
        .unwrap();
        // DistilBERT-scale: ~66M parameters, 4 bytes each; ~5700 blocks of
        // 100x100 across the prunable projections
        let switch = memory.pattern_switch_cost(&set, 5_700);
        let reload = memory.full_model_reload_cost(66_000_000 * 4);
        assert!(
            switch.time_ms < 60.0,
            "pattern switch {:.1} ms",
            switch.time_ms
        );
        assert!(
            reload.time_ms / switch.time_ms > 1000.0,
            "reload {:.0} ms should be >1000x the pattern switch {:.2} ms",
            reload.time_ms,
            switch.time_ms
        );
    }

    #[test]
    fn simulation_respects_energy_budget_exactly() {
        let gov = DvfsGovernor::paper_default();
        let profiles = vec![
            ExecutionProfile {
                latency_ms: 100.0,
                power_w: 1.0
            };
            3
        ];
        // 1 J budget, 0.1 J per run -> exactly 10 runs
        let report = simulate_battery_lifetime(&gov, 1.0, &profiles, 200.0);
        assert_eq!(report.runs, 10);
        assert!(report.constraint_satisfied);
    }

    #[test]
    #[should_panic(expected = "one execution profile per governor level")]
    fn profile_count_must_match_levels() {
        let gov = DvfsGovernor::paper_default();
        let _ = simulate_battery_lifetime(
            &gov,
            10.0,
            &[ExecutionProfile {
                latency_ms: 1.0,
                power_w: 1.0,
            }],
            100.0,
        );
    }
}
