//! DVFS model: the voltage/frequency levels of the target mobile SoC.
//!
//! Table I of the paper lists six V/F levels of the ARM Cortex-A7 cluster of
//! the Odroid-XU3 board. [`VfLevel::odroid_xu3_a7`] reproduces that table;
//! the rest of this module maps battery state to the operating mode and
//! level, mirroring the F-Mode / N-Mode / E-Mode setup of the motivation
//! experiment (Table II).

/// One voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VfLevel {
    /// Level index `l1..l6` (1-based, as in the paper).
    pub index: usize,
    /// Core clock frequency in MHz.
    pub frequency_mhz: f64,
    /// Supply voltage in millivolts.
    pub voltage_mv: f64,
}

impl VfLevel {
    /// The six levels of Table I (Odroid-XU3, Cortex-A7 cluster).
    pub fn odroid_xu3_a7() -> Vec<VfLevel> {
        let freq = [400.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0];
        let volt = [916.25, 917.5, 992.5, 1066.25, 1141.25, 1240.0];
        freq.iter()
            .zip(volt.iter())
            .enumerate()
            .map(|(i, (&frequency_mhz, &voltage_mv))| VfLevel {
                index: i + 1,
                frequency_mhz,
                voltage_mv,
            })
            .collect()
    }

    /// Looks up level `l<index>` (1-based) in the Odroid table.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not in `1..=6`.
    pub fn odroid_level(index: usize) -> VfLevel {
        assert!((1..=6).contains(&index), "Odroid-XU3 levels are l1..l6");
        VfLevel::odroid_xu3_a7()[index - 1]
    }

    /// Voltage in volts.
    pub fn voltage_v(&self) -> f64 {
        self.voltage_mv / 1000.0
    }

    /// Frequency in Hz.
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_mhz * 1e6
    }
}

/// The three execution modes used in the motivation experiment (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DvfsMode {
    /// Fast execution (highest selected level).
    Fast,
    /// Normal-speed execution.
    Normal,
    /// Energy-saving execution (lowest selected level).
    EnergySaving,
}

impl std::fmt::Display for DvfsMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DvfsMode::Fast => "F-Mode",
            DvfsMode::Normal => "N-Mode",
            DvfsMode::EnergySaving => "E-Mode",
        };
        f.write_str(name)
    }
}

/// A DVFS governor: the set of V/F levels the device may use at run time and
/// the battery thresholds at which it steps down.
///
/// The paper's evaluation selects levels `{l3, l4, l6}`; that is the default.
///
/// # Examples
///
/// ```
/// use rt3_hardware::{DvfsGovernor, DvfsMode};
///
/// let gov = DvfsGovernor::paper_default();
/// assert_eq!(gov.levels().len(), 3);
/// assert_eq!(gov.mode_for_battery(0.9), DvfsMode::Fast);
/// assert_eq!(gov.mode_for_battery(0.1), DvfsMode::EnergySaving);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsGovernor {
    levels: Vec<VfLevel>,
    /// Battery fraction below which the governor leaves Fast mode.
    normal_threshold: f64,
    /// Battery fraction below which the governor enters EnergySaving mode.
    saving_threshold: f64,
}

impl DvfsGovernor {
    /// Creates a governor over `levels` (ordered from lowest to highest
    /// frequency) with battery thresholds for stepping down.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or the thresholds are not in `(0, 1)` with
    /// `saving_threshold < normal_threshold`.
    pub fn new(mut levels: Vec<VfLevel>, normal_threshold: f64, saving_threshold: f64) -> Self {
        assert!(!levels.is_empty(), "at least one V/F level is required");
        assert!(
            0.0 < saving_threshold && saving_threshold < normal_threshold && normal_threshold < 1.0,
            "thresholds must satisfy 0 < saving < normal < 1"
        );
        levels.sort_by(|a, b| {
            a.frequency_mhz
                .partial_cmp(&b.frequency_mhz)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Self {
            levels,
            normal_threshold,
            saving_threshold,
        }
    }

    /// The paper's configuration: levels `{l3, l4, l6}` with step-downs at
    /// 50% and 20% battery (the iPhone-style energy-saving threshold the
    /// paper mentions).
    pub fn paper_default() -> Self {
        Self::new(
            vec![
                VfLevel::odroid_level(3),
                VfLevel::odroid_level(4),
                VfLevel::odroid_level(6),
            ],
            0.5,
            0.2,
        )
    }

    /// Selected levels, ordered from lowest to highest frequency.
    pub fn levels(&self) -> &[VfLevel] {
        &self.levels
    }

    /// Mode chosen for a battery state of charge in `[0, 1]`.
    pub fn mode_for_battery(&self, state_of_charge: f64) -> DvfsMode {
        if state_of_charge <= self.saving_threshold {
            DvfsMode::EnergySaving
        } else if state_of_charge <= self.normal_threshold {
            DvfsMode::Normal
        } else {
            DvfsMode::Fast
        }
    }

    /// V/F level used in a given mode: Fast = highest frequency, EnergySaving
    /// = lowest, Normal = middle (rounded down).
    pub fn level_for_mode(&self, mode: DvfsMode) -> VfLevel {
        match mode {
            DvfsMode::Fast => *self.levels.last().expect("non-empty"),
            DvfsMode::EnergySaving => self.levels[0],
            DvfsMode::Normal => self.levels[self.levels.len() / 2],
        }
    }

    /// Index (into [`DvfsGovernor::levels`]) of the level used in `mode`.
    pub fn level_position(&self, mode: DvfsMode) -> usize {
        match mode {
            DvfsMode::Fast => self.levels.len() - 1,
            DvfsMode::EnergySaving => 0,
            DvfsMode::Normal => self.levels.len() / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_values_match_the_paper() {
        let levels = VfLevel::odroid_xu3_a7();
        assert_eq!(levels.len(), 6);
        assert_eq!(levels[0].frequency_mhz, 400.0);
        assert_eq!(levels[0].voltage_mv, 916.25);
        assert_eq!(levels[5].frequency_mhz, 1400.0);
        assert_eq!(levels[5].voltage_mv, 1240.0);
        assert_eq!(levels[2].voltage_mv, 992.5);
    }

    #[test]
    fn voltage_and_frequency_unit_conversions() {
        let l6 = VfLevel::odroid_level(6);
        assert!((l6.voltage_v() - 1.24).abs() < 1e-9);
        assert!((l6.frequency_hz() - 1.4e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "l1..l6")]
    fn out_of_range_level_is_rejected() {
        let _ = VfLevel::odroid_level(7);
    }

    #[test]
    fn governor_steps_down_with_battery() {
        let gov = DvfsGovernor::paper_default();
        assert_eq!(gov.mode_for_battery(1.0), DvfsMode::Fast);
        assert_eq!(gov.mode_for_battery(0.5), DvfsMode::Normal);
        assert_eq!(gov.mode_for_battery(0.21), DvfsMode::Normal);
        assert_eq!(gov.mode_for_battery(0.2), DvfsMode::EnergySaving);
        assert_eq!(gov.mode_for_battery(0.0), DvfsMode::EnergySaving);
    }

    #[test]
    fn governor_maps_modes_to_expected_levels() {
        let gov = DvfsGovernor::paper_default();
        assert_eq!(gov.level_for_mode(DvfsMode::Fast).index, 6);
        assert_eq!(gov.level_for_mode(DvfsMode::Normal).index, 4);
        assert_eq!(gov.level_for_mode(DvfsMode::EnergySaving).index, 3);
        assert_eq!(gov.level_position(DvfsMode::EnergySaving), 0);
    }

    #[test]
    fn governor_sorts_levels_by_frequency() {
        let gov = DvfsGovernor::new(
            vec![VfLevel::odroid_level(6), VfLevel::odroid_level(3)],
            0.6,
            0.3,
        );
        assert_eq!(gov.levels()[0].index, 3);
        assert_eq!(gov.levels()[1].index, 6);
    }

    #[test]
    fn mode_display_names_match_table_two() {
        assert_eq!(DvfsMode::Fast.to_string(), "F-Mode");
        assert_eq!(DvfsMode::Normal.to_string(), "N-Mode");
        assert_eq!(DvfsMode::EnergySaving.to_string(), "E-Mode");
    }
}
