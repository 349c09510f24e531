//! CMOS power model, energy accounting and the battery abstraction.
//!
//! The paper measures "number of runs" — how many inferences fit in a fixed
//! battery energy budget — as its hardware-efficiency metric. This module
//! derives that number from a standard dynamic-power model
//! `P = C_eff · V² · f + P_static` evaluated at the DVFS level in use.

use crate::dvfs::VfLevel;

/// Dynamic + static power model of the target core.
///
/// # Examples
///
/// ```
/// use rt3_hardware::{PowerModel, VfLevel};
///
/// let power = PowerModel::cortex_a7();
/// let low = power.power_w(&VfLevel::odroid_level(1));
/// let high = power.power_w(&VfLevel::odroid_level(6));
/// assert!(high > 2.0 * low, "high V/F level must cost much more power");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Effective switched capacitance in farads.
    pub switched_capacitance_f: f64,
    /// Frequency-independent (leakage + uncore) power in watts.
    pub static_power_w: f64,
}

impl PowerModel {
    /// Calibrated so the Cortex-A7 cluster draws roughly 0.75 W at l6
    /// (1.4 GHz, 1.24 V) and about 0.25 W at l1, consistent with published
    /// Odroid-XU3 measurements.
    pub fn cortex_a7() -> Self {
        Self {
            switched_capacitance_f: 3.3e-10,
            static_power_w: 0.04,
        }
    }

    /// Power draw in watts at a V/F level.
    pub fn power_w(&self, level: &VfLevel) -> f64 {
        let v = level.voltage_v();
        self.switched_capacitance_f * v * v * level.frequency_hz() + self.static_power_w
    }

    /// Energy in joules of one inference that takes `latency_ms` at `level`.
    pub fn energy_per_inference_j(&self, level: &VfLevel, latency_ms: f64) -> f64 {
        self.power_w(level) * latency_ms / 1000.0
    }
}

/// Number of inferences that fit in `budget_j` joules when each inference
/// costs `energy_per_inference_j` joules.
///
/// Returns 0.0 when the per-inference energy is not positive.
pub fn number_of_runs(budget_j: f64, energy_per_inference_j: f64) -> f64 {
    if energy_per_inference_j <= 0.0 {
        return 0.0;
    }
    (budget_j / energy_per_inference_j).floor()
}

/// A battery with a fixed energy capacity that is drained by inferences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity_j: f64,
    remaining_j: f64,
}

impl Battery {
    /// Creates a fully charged battery.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_j` is not positive and finite.
    pub fn new(capacity_j: f64) -> Self {
        assert!(
            capacity_j.is_finite() && capacity_j > 0.0,
            "battery capacity must be positive"
        );
        Self {
            capacity_j,
            remaining_j: capacity_j,
        }
    }

    /// Total capacity in joules.
    pub fn capacity_j(&self) -> f64 {
        self.capacity_j
    }

    /// Remaining energy in joules.
    pub fn remaining_j(&self) -> f64 {
        self.remaining_j
    }

    /// State of charge in `[0, 1]`.
    pub fn state_of_charge(&self) -> f64 {
        self.remaining_j / self.capacity_j
    }

    /// Returns `true` if no usable energy remains.
    pub fn is_empty(&self) -> bool {
        self.remaining_j <= 0.0
    }

    /// Attempts to draw `energy_j`; returns `false` (leaving the battery
    /// unchanged) if not enough energy remains.
    pub fn drain(&mut self, energy_j: f64) -> bool {
        if energy_j > self.remaining_j {
            return false;
        }
        self.remaining_j -= energy_j;
        true
    }

    /// Draws `energy_j`, or empties the battery when less remains.
    pub fn drain_saturating(&mut self, energy_j: f64) {
        if !self.drain(energy_j) {
            self.remaining_j = 0.0;
        }
    }

    /// Adds `energy_j` of charge, saturating at the battery's capacity.
    /// Used by the runtime's charge-while-serving scenario.
    ///
    /// # Panics
    ///
    /// Panics if `energy_j` is negative or not finite.
    pub fn charge(&mut self, energy_j: f64) {
        assert!(
            energy_j.is_finite() && energy_j >= 0.0,
            "charge energy must be non-negative"
        );
        self.remaining_j = (self.remaining_j + energy_j).min(self.capacity_j);
    }
}

/// Exponentially weighted drain-rate estimator over periodic battery
/// observations — the runtime's hook for *predictive* battery reasoning.
///
/// The fleet router's original headroom score ranked devices by raw state of
/// charge, which confuses "large battery" with "long life": a full battery
/// draining at 2 W dies before a half battery on a charger. Feeding the
/// tracker one `(elapsed, remaining)` observation per window turns the raw
/// trajectory into a smoothed drain rate (watts), and
/// [`DrainRateTracker::time_to_death_ms`] converts that into the quantity a
/// router actually cares about: how long until this battery is gone.
///
/// Charging shows up as a negative drain rate, which maps to an infinite
/// time to death — exactly the "lean on the device with the charger"
/// behaviour predictive routing wants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrainRateTracker {
    /// EWMA weight of the newest observation, in `(0, 1]`.
    smoothing: f64,
    /// Remaining energy at the previous observation, `None` before the
    /// first.
    last_remaining_j: Option<f64>,
    /// Smoothed drain rate in watts (negative while charging), `None` until
    /// two observations have been made.
    rate_w: Option<f64>,
}

impl Default for DrainRateTracker {
    /// Smoothing of 0.25: roughly the last four windows dominate the
    /// estimate, fast enough to track a burst, slow enough not to flap on
    /// one idle window.
    fn default() -> Self {
        Self::new(0.25)
    }
}

impl DrainRateTracker {
    /// Creates a tracker with the given EWMA `smoothing` weight.
    ///
    /// # Panics
    ///
    /// Panics unless `smoothing` is in `(0, 1]`.
    pub fn new(smoothing: f64) -> Self {
        assert!(
            smoothing > 0.0 && smoothing <= 1.0,
            "EWMA smoothing must be in (0, 1]"
        );
        Self {
            smoothing,
            last_remaining_j: None,
            rate_w: None,
        }
    }

    /// Records that `elapsed_s` seconds after the previous observation the
    /// battery holds `remaining_j` joules. The first observation only seeds
    /// the baseline; every later one updates the smoothed rate.
    ///
    /// # Panics
    ///
    /// Panics unless `elapsed_s` is positive and finite.
    pub fn observe(&mut self, elapsed_s: f64, remaining_j: f64) {
        assert!(
            elapsed_s.is_finite() && elapsed_s > 0.0,
            "observation interval must be positive"
        );
        if let Some(prev) = self.last_remaining_j {
            let instantaneous_w = (prev - remaining_j) / elapsed_s;
            self.rate_w = Some(match self.rate_w {
                Some(rate) => rate + self.smoothing * (instantaneous_w - rate),
                None => instantaneous_w,
            });
        }
        self.last_remaining_j = Some(remaining_j);
    }

    /// Smoothed drain rate in watts; negative while charging, 0 until two
    /// observations have been made.
    pub fn drain_rate_w(&self) -> f64 {
        self.rate_w.unwrap_or(0.0)
    }

    /// Predicted milliseconds until a battery holding `remaining_j` joules
    /// dies at the current smoothed drain rate. Returns 0 for an empty
    /// battery and `f64::INFINITY` while the battery is charging, holding
    /// steady, or the rate is still unobserved — a monotone *decreasing*
    /// function of the drain rate for any fixed positive `remaining_j`.
    pub fn time_to_death_ms(&self, remaining_j: f64) -> f64 {
        if remaining_j <= 0.0 {
            return 0.0;
        }
        match self.rate_w {
            Some(rate) if rate > 0.0 => remaining_j / rate * 1_000.0,
            _ => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_grows_superlinearly_with_level() {
        let model = PowerModel::cortex_a7();
        let levels = VfLevel::odroid_xu3_a7();
        let powers: Vec<f64> = levels.iter().map(|l| model.power_w(l)).collect();
        for w in powers.windows(2) {
            assert!(w[1] > w[0], "power must increase with the V/F level");
        }
        // l6 vs l1: frequency grows 3.5x but power grows faster because the
        // voltage also rises (the whole point of DVFS energy saving)
        let energy_ratio_same_work =
            (powers[5] / levels[5].frequency_mhz) / (powers[0] / levels[0].frequency_mhz);
        assert!(
            energy_ratio_same_work > 1.2,
            "per-cycle energy at l6 should exceed l1, got ratio {:.2}",
            energy_ratio_same_work
        );
    }

    #[test]
    fn cortex_calibration_is_in_a_plausible_range() {
        let model = PowerModel::cortex_a7();
        let p6 = model.power_w(&VfLevel::odroid_level(6));
        let p1 = model.power_w(&VfLevel::odroid_level(1));
        assert!((0.5..1.2).contains(&p6), "l6 power {:.3} W", p6);
        assert!((0.1..0.4).contains(&p1), "l1 power {:.3} W", p1);
    }

    #[test]
    fn energy_and_runs_accounting() {
        let model = PowerModel::cortex_a7();
        let l6 = VfLevel::odroid_level(6);
        let e = model.energy_per_inference_j(&l6, 100.0);
        assert!(e > 0.0);
        let runs = number_of_runs(1000.0, e);
        assert!((runs - (1000.0 / e).floor()).abs() < 1e-9);
        assert_eq!(number_of_runs(100.0, 0.0), 0.0);
    }

    #[test]
    fn battery_drains_and_refuses_overdraw() {
        let mut b = Battery::new(10.0);
        assert!(b.drain(4.0));
        assert!((b.state_of_charge() - 0.6).abs() < 1e-9);
        assert!(!b.drain(7.0));
        assert!((b.remaining_j() - 6.0).abs() < 1e-9);
        assert!(b.drain(6.0));
        assert!(b.is_empty());
    }

    #[test]
    fn saturating_drain_empties_on_overdraw_and_matches_an_exact_drain() {
        let mut b = Battery::new(10.0);
        b.drain_saturating(3.0);
        let mut exact = Battery::new(10.0);
        assert!(exact.drain(3.0));
        assert_eq!(b, exact);
        b.drain_saturating(100.0);
        assert_eq!(b.remaining_j().to_bits(), 0.0f64.to_bits());
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn battery_rejects_non_positive_capacity() {
        let _ = Battery::new(0.0);
    }

    #[test]
    fn battery_charges_and_saturates_at_capacity() {
        let mut b = Battery::new(10.0);
        assert!(b.drain(8.0));
        b.charge(5.0);
        assert!((b.remaining_j() - 7.0).abs() < 1e-9);
        b.charge(100.0);
        assert!((b.remaining_j() - 10.0).abs() < 1e-9);
        assert!((b.state_of_charge() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn drain_tracker_smooths_towards_the_observed_rate() {
        let mut tracker = DrainRateTracker::new(0.5);
        assert_eq!(tracker.drain_rate_w(), 0.0);
        assert_eq!(tracker.time_to_death_ms(10.0), f64::INFINITY);
        tracker.observe(1.0, 10.0); // baseline only
        assert_eq!(tracker.drain_rate_w(), 0.0);
        tracker.observe(1.0, 9.0); // 1 W observed: first rate is taken as-is
        assert!((tracker.drain_rate_w() - 1.0).abs() < 1e-12);
        tracker.observe(1.0, 6.0); // 3 W observed: EWMA 0.5 → 2 W
        assert!((tracker.drain_rate_w() - 2.0).abs() < 1e-12);
        assert!((tracker.time_to_death_ms(6.0) - 3_000.0).abs() < 1e-9);
    }

    #[test]
    fn charging_yields_infinite_time_to_death() {
        let mut tracker = DrainRateTracker::default();
        tracker.observe(1.0, 5.0);
        tracker.observe(1.0, 6.0); // net charge
        assert!(tracker.drain_rate_w() < 0.0);
        assert_eq!(tracker.time_to_death_ms(6.0), f64::INFINITY);
        assert_eq!(tracker.time_to_death_ms(0.0), 0.0, "empty is dead now");
    }

    #[test]
    #[should_panic(expected = "smoothing must be in (0, 1]")]
    fn tracker_rejects_zero_smoothing() {
        let _ = DrainRateTracker::new(0.0);
    }
}
