//! Trace-driven serving scenarios. A [`Scenario`] is a single-device
//! trace: request traffic and background power draw, plus at most one
//! device event (a battery cliff, a charger or a thermal cap), so a new
//! workload is one enum value away.
//!
//! Device events live in one type, [`DeviceProfile`], which carries a
//! device's battery size, initial charge, charger, thermal-cap window and
//! cliff. A fleet trace ([`FleetScenario`]) is one fleet-wide arrival curve
//! feeding the router plus one profile per device; a single-device trace
//! hands its event to its device through [`Scenario::device_profile`], and
//! the engine plays it as a one-device fleet.
//!
//! Traffic is generated deterministically from the engine seed: each window
//! draws `rate × window` arrivals (with the fractional part resolved by a
//! Bernoulli draw) at uniform offsets, which approximates a Poisson process
//! closely enough for scheduler studies while staying replayable.

use rand::rngs::StdRng;
use rand::Rng;

/// A serving scenario to play against the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// Steady request rate and steady background drain — the paper's
    /// Table II setting as an online trace.
    ConstantDrain {
        /// Trace length in seconds.
        duration_s: u32,
        /// Request arrivals per second.
        rps: f64,
        /// Non-inference device power draw in watts.
        background_w: f64,
    },
    /// A base rate with periodic traffic bursts (the acceptance scenario).
    BurstyTraffic {
        /// Trace length in seconds.
        duration_s: u32,
        /// Baseline arrivals per second.
        base_rps: f64,
        /// Arrivals per second while a burst is active.
        burst_rps: f64,
        /// Seconds between burst starts.
        period_s: u32,
        /// Length of each burst in seconds.
        burst_len_s: u32,
        /// Non-inference device power draw in watts.
        background_w: f64,
    },
    /// Steady traffic with a sudden loss of battery charge mid-trace
    /// (voltage-sag cliff as the pack ages or the weather turns cold).
    CliffDischarge {
        /// Trace length in seconds.
        duration_s: u32,
        /// Request arrivals per second.
        rps: f64,
        /// Non-inference device power draw in watts.
        background_w: f64,
        /// Second at which the cliff hits.
        cliff_at_s: u32,
        /// Fraction of *capacity* lost instantly, in `[0, 1]`.
        cliff_drop: f64,
    },
    /// The device is plugged in partway through and charges while serving.
    ChargeWhileServing {
        /// Trace length in seconds.
        duration_s: u32,
        /// Request arrivals per second.
        rps: f64,
        /// Non-inference device power draw in watts.
        background_w: f64,
        /// Second at which the charger is plugged in.
        charge_from_s: u32,
        /// Charging power in watts (net of background once plugged).
        charge_w: f64,
    },
    /// A thermal governor caps the maximum V/F level for part of the trace.
    ThermalCap {
        /// Trace length in seconds.
        duration_s: u32,
        /// Request arrivals per second.
        rps: f64,
        /// Non-inference device power draw in watts.
        background_w: f64,
        /// Second at which the cap engages.
        cap_from_s: u32,
        /// Second at which the cap releases.
        cap_until_s: u32,
        /// Maximum allowed level position while capped (0 = lowest).
        cap_level_pos: usize,
    },
    /// A diurnal arrival curve: the rate swings sinusoidally from a
    /// night-time trough (at `t = 0`) to a midday peak (at `period_s / 2`)
    /// and back, one full cycle per `period_s`. With `period_s = 86_400`
    /// this is a 24 h day; tests compress the same shape into shorter
    /// periods.
    Diurnal {
        /// Trace length in seconds.
        duration_s: u32,
        /// Arrivals per second at the trough of the curve.
        trough_rps: f64,
        /// Arrivals per second at the peak of the curve.
        peak_rps: f64,
        /// Seconds per full day cycle (86 400 for real time).
        period_s: u32,
        /// Non-inference device power draw in watts.
        background_w: f64,
    },
}

impl Scenario {
    /// The acceptance-criteria bursty trace: 90 simulated seconds, 30 req/s
    /// baseline with 60 req/s bursts for 6 s out of every 20 s, 0.08 W
    /// background draw (inference, not idle power, dominates the battery).
    pub fn default_bursty() -> Self {
        Scenario::BurstyTraffic {
            duration_s: 90,
            base_rps: 30.0,
            burst_rps: 60.0,
            period_s: 20,
            burst_len_s: 6,
            background_w: 0.08,
        }
    }

    /// Short human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::ConstantDrain { .. } => "constant-drain",
            Scenario::BurstyTraffic { .. } => "bursty-traffic",
            Scenario::CliffDischarge { .. } => "cliff-discharge",
            Scenario::ChargeWhileServing { .. } => "charge-while-serving",
            Scenario::ThermalCap { .. } => "thermal-cap",
            Scenario::Diurnal { .. } => "diurnal",
        }
    }

    /// Trace length in seconds.
    pub fn duration_s(&self) -> u32 {
        match *self {
            Scenario::ConstantDrain { duration_s, .. }
            | Scenario::BurstyTraffic { duration_s, .. }
            | Scenario::CliffDischarge { duration_s, .. }
            | Scenario::ChargeWhileServing { duration_s, .. }
            | Scenario::ThermalCap { duration_s, .. }
            | Scenario::Diurnal { duration_s, .. } => duration_s,
        }
    }

    /// Request rate in effect at `t_s` seconds into the trace.
    pub fn rate_at(&self, t_s: u32) -> f64 {
        match *self {
            Scenario::ConstantDrain { rps, .. }
            | Scenario::CliffDischarge { rps, .. }
            | Scenario::ChargeWhileServing { rps, .. }
            | Scenario::ThermalCap { rps, .. } => rps,
            Scenario::BurstyTraffic {
                base_rps,
                burst_rps,
                period_s,
                burst_len_s,
                ..
            } => {
                if period_s > 0 && t_s % period_s < burst_len_s {
                    burst_rps
                } else {
                    base_rps
                }
            }
            Scenario::Diurnal {
                trough_rps,
                peak_rps,
                period_s,
                ..
            } => {
                if period_s == 0 {
                    return trough_rps;
                }
                let phase = (t_s % period_s) as f64 / period_s as f64;
                let swing = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
                trough_rps + (peak_rps - trough_rps) * swing
            }
        }
    }

    /// Non-inference device power draw at `t_s`, in watts.
    pub fn background_w(&self, _t_s: u32) -> f64 {
        match *self {
            Scenario::ConstantDrain { background_w, .. }
            | Scenario::BurstyTraffic { background_w, .. }
            | Scenario::CliffDischarge { background_w, .. }
            | Scenario::ChargeWhileServing { background_w, .. }
            | Scenario::ThermalCap { background_w, .. }
            | Scenario::Diurnal { background_w, .. } => background_w,
        }
    }

    /// The one device this trace plays on, as a fleet [`DeviceProfile`]:
    /// named after the scenario, full at the start, and carrying the
    /// trace's cliff, charger or thermal cap.
    pub fn device_profile(&self, battery_capacity_j: f64) -> DeviceProfile {
        let profile = DeviceProfile::new(self.name(), battery_capacity_j, 1.0);
        match *self {
            Scenario::CliffDischarge {
                cliff_at_s,
                cliff_drop,
                ..
            } => profile.with_cliff(cliff_at_s, cliff_drop),
            Scenario::ChargeWhileServing {
                charge_from_s,
                charge_w,
                ..
            } => profile.with_charger(charge_from_s, charge_w),
            Scenario::ThermalCap {
                cap_from_s,
                cap_until_s,
                cap_level_pos,
                ..
            } => profile.with_thermal_cap(cap_from_s, cap_until_s, cap_level_pos),
            _ => profile,
        }
    }

    /// Arrival offsets (milliseconds into the window) for the one-second
    /// window starting at `t_s`, sorted ascending.
    pub fn arrivals_in_second(&self, t_s: u32, rng: &mut StdRng) -> Vec<f64> {
        Self::draw_arrivals(self.rate_at(t_s), rng)
    }

    /// Arrival offsets for one window at an explicit `rate`, sorted
    /// ascending. [`Scenario::arrivals_in_second`] is this at
    /// [`Scenario::rate_at`]; chaos overlays call it directly with a
    /// multiplied rate. The RNG call sequence (one Bernoulli draw for the
    /// fractional part, then one uniform draw per arrival) is part of the
    /// replay contract — golden traces depend on it.
    pub fn draw_arrivals(rate: f64, rng: &mut StdRng) -> Vec<f64> {
        if rate <= 0.0 {
            return Vec::new();
        }
        let whole = rate.floor() as usize;
        let fractional = rate - rate.floor();
        let count = whole + usize::from(rng.gen_bool(fractional));
        let mut offsets: Vec<f64> = (0..count).map(|_| rng.gen_range(0.0..1_000.0)).collect();
        offsets.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        offsets
    }
}

/// One simulated device of a fleet: its battery and the local events
/// (charger, thermal cap, cliff) that hit *this* device, independent of the
/// fleet-wide arrival curve.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device name used in reports.
    pub name: String,
    /// Battery capacity in joules.
    pub battery_capacity_j: f64,
    /// Initial state of charge in `(0, 1]` (fleets are heterogeneous: some
    /// devices start the trace half empty).
    pub initial_soc: f64,
    /// Charging power in watts once the charger is plugged, 0 for none.
    pub charge_w: f64,
    /// Second at which this device's charger is plugged in.
    pub charge_from_s: u32,
    /// Thermal cap on this device as `(from_s, until_s, max_level_pos)`.
    pub thermal_cap: Option<(u32, u32, usize)>,
    /// Instant battery loss as `(at_s, fraction_of_capacity)`.
    pub cliff: Option<(u32, f64)>,
}

impl DeviceProfile {
    /// A device with no charger, cap or cliff.
    pub fn new(name: &str, battery_capacity_j: f64, initial_soc: f64) -> Self {
        Self {
            name: name.to_string(),
            battery_capacity_j,
            initial_soc,
            charge_w: 0.0,
            charge_from_s: 0,
            thermal_cap: None,
            cliff: None,
        }
    }

    /// Plugs a charger of `charge_w` watts in at `from_s`.
    pub fn with_charger(mut self, from_s: u32, charge_w: f64) -> Self {
        self.charge_from_s = from_s;
        self.charge_w = charge_w;
        self
    }

    /// Caps the device at `max_level_pos` during `[from_s, until_s)`.
    pub fn with_thermal_cap(mut self, from_s: u32, until_s: u32, max_level_pos: usize) -> Self {
        self.thermal_cap = Some((from_s, until_s, max_level_pos));
        self
    }

    /// Drops `fraction` of the battery capacity instantly at `at_s`.
    pub fn with_cliff(mut self, at_s: u32, fraction: f64) -> Self {
        self.cliff = Some((at_s, fraction));
        self
    }

    /// Charging power flowing into this device's battery at `t_s`, in watts.
    pub fn charge_w_at(&self, t_s: u32) -> f64 {
        if self.charge_w > 0.0 && t_s >= self.charge_from_s {
            self.charge_w
        } else {
            0.0
        }
    }

    /// Thermal cap on the level position in effect at `t_s`, if any.
    pub fn thermal_cap_at(&self, t_s: u32) -> Option<usize> {
        match self.thermal_cap {
            Some((from_s, until_s, pos)) if (from_s..until_s).contains(&t_s) => Some(pos),
            _ => None,
        }
    }

    /// Instantaneous battery loss (fraction of capacity) during `t_s`.
    pub fn battery_cliff_at(&self, t_s: u32) -> Option<f64> {
        match self.cliff {
            Some((at_s, drop)) if t_s == at_s => Some(drop),
            _ => None,
        }
    }

    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.battery_capacity_j > 0.0 && self.battery_capacity_j.is_finite()) {
            return Err(format!(
                "{}: battery_capacity_j must be positive",
                self.name
            ));
        }
        if !(self.initial_soc > 0.0 && self.initial_soc <= 1.0) {
            return Err(format!("{}: initial_soc must be in (0, 1]", self.name));
        }
        if !(self.charge_w >= 0.0 && self.charge_w.is_finite()) {
            return Err(format!("{}: charge_w must be non-negative", self.name));
        }
        if let Some((_, drop)) = self.cliff {
            if !(0.0..=1.0).contains(&drop) {
                return Err(format!("{}: cliff drop must be in [0, 1]", self.name));
            }
        }
        Ok(())
    }
}

/// A fleet trace: one fleet-wide arrival curve (requests hit the *router*,
/// not a particular device) plus per-device profiles for the batteries and
/// local events.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenario {
    /// Trace name for reports.
    pub name: String,
    /// Fleet-wide arrival curve; only its rate, duration and background
    /// draw are used (per-device events come from the profiles).
    pub arrivals: Scenario,
    /// One profile per simulated device.
    pub devices: Vec<DeviceProfile>,
}

impl FleetScenario {
    /// The acceptance fleet trace: four heterogeneous devices under steady
    /// traffic, where battery headroom — not queue depth alone — decides
    /// who should serve:
    ///
    /// * `d0-cliff` starts full but loses 50% of its capacity in a
    ///   voltage-sag cliff at 40 s;
    /// * `d1-low` starts at 45% charge;
    /// * `d2-charging` starts at 60% but sits on a 2.5 W charger the whole
    ///   time;
    /// * `d3-throttled` starts full (on a slightly smaller battery) yet is
    ///   thermally capped to the lowest level during `[30, 90)` s.
    ///
    /// The numbers are tuned as a set with `examples/serve_fleet.rs`
    /// (72 req/s over 150 s, two workers per device, 250 ms deadline): the
    /// fleet has enough total energy to survive the trace only if routing
    /// leans on the charger and rations the batteries, which is what makes
    /// battery-headroom routing strictly beat round-robin and sticky there.
    pub fn heterogeneous_cliff() -> Self {
        let duration_s = 150;
        Self {
            name: "fleet-cliff-discharge".to_string(),
            arrivals: Scenario::ConstantDrain {
                duration_s,
                rps: 72.0,
                background_w: 0.03,
            },
            devices: vec![
                DeviceProfile::new("d0-cliff", 30.0, 1.0).with_cliff(40, 0.5),
                DeviceProfile::new("d1-low", 30.0, 0.45),
                DeviceProfile::new("d2-charging", 30.0, 0.60).with_charger(0, 2.5),
                DeviceProfile::new("d3-throttled", 26.0, 1.0).with_thermal_cap(30, 90, 0),
            ],
        }
    }

    /// A compressed 24 h diurnal trace over the same heterogeneous fleet:
    /// `seconds_per_hour` simulated seconds stand in for each hour of the
    /// day, so `seconds_per_hour = 3600` replays a real day and smaller
    /// values keep tests fast. The charger plugs in "overnight" (the last
    /// quarter of the day) and the thermal cap hits in the "afternoon".
    pub fn diurnal(seconds_per_hour: u32) -> Self {
        let period_s = 24 * seconds_per_hour;
        let hour = |h: u32| h * seconds_per_hour;
        Self {
            name: "fleet-diurnal-24h".to_string(),
            arrivals: Scenario::Diurnal {
                duration_s: period_s,
                trough_rps: 6.0,
                peak_rps: 48.0,
                period_s,
                background_w: 0.08,
            },
            devices: vec![
                DeviceProfile::new("d0-cliff", 30.0, 0.9).with_cliff(hour(10), 0.4),
                DeviceProfile::new("d1-low", 30.0, 0.45),
                DeviceProfile::new("d2-charging", 30.0, 0.7).with_charger(hour(18), 2.0),
                DeviceProfile::new("d3-throttled", 30.0, 1.0).with_thermal_cap(
                    hour(12),
                    hour(16),
                    0,
                ),
            ],
        }
    }

    /// Number of devices in the fleet.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Trace length in seconds.
    pub fn duration_s(&self) -> u32 {
        self.arrivals.duration_s()
    }

    /// Validates the trace.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices.is_empty() {
            return Err("a fleet needs at least one device".into());
        }
        for device in &self.devices {
            device.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn bursty_rate_alternates() {
        let s = Scenario::default_bursty();
        assert_eq!(s.rate_at(0), 60.0, "burst at window start");
        assert_eq!(s.rate_at(6), 30.0);
        assert_eq!(s.rate_at(20), 60.0);
        assert!(
            s.duration_s() >= 60,
            "acceptance trace is at least a minute"
        );
    }

    #[test]
    fn arrivals_match_rate_on_average_and_are_sorted() {
        let s = Scenario::ConstantDrain {
            duration_s: 60,
            rps: 5.5,
            background_w: 0.2,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut total = 0usize;
        for t in 0..400 {
            let a = s.arrivals_in_second(t, &mut rng);
            assert!(a.windows(2).all(|w| w[0] <= w[1]));
            assert!(a.iter().all(|&x| (0.0..1_000.0).contains(&x)));
            total += a.len();
        }
        let mean = total as f64 / 400.0;
        assert!(
            (mean - 5.5).abs() < 0.4,
            "mean arrivals {mean} should track 5.5"
        );
    }

    #[test]
    fn cliff_charge_and_cap_fire_at_the_right_times() {
        let cliff = Scenario::CliffDischarge {
            duration_s: 60,
            rps: 2.0,
            background_w: 0.2,
            cliff_at_s: 30,
            cliff_drop: 0.25,
        }
        .device_profile(20.0);
        assert_eq!(cliff.battery_cliff_at(29), None);
        assert_eq!(cliff.battery_cliff_at(30), Some(0.25));
        let charge = Scenario::ChargeWhileServing {
            duration_s: 60,
            rps: 2.0,
            background_w: 0.2,
            charge_from_s: 20,
            charge_w: 2.0,
        }
        .device_profile(20.0);
        assert_eq!(charge.charge_w_at(19), 0.0);
        assert_eq!(charge.charge_w_at(20), 2.0);
        let cap = Scenario::ThermalCap {
            duration_s: 60,
            rps: 2.0,
            background_w: 0.2,
            cap_from_s: 10,
            cap_until_s: 40,
            cap_level_pos: 0,
        }
        .device_profile(20.0);
        assert_eq!(cap.thermal_cap_at(9), None);
        assert_eq!(cap.thermal_cap_at(10), Some(0));
        assert_eq!(cap.thermal_cap_at(40), None);
        for profile in [&cliff, &charge, &cap] {
            assert!(profile.validate().is_ok());
            assert_eq!(
                (profile.battery_capacity_j, profile.initial_soc),
                (20.0, 1.0)
            );
        }
        assert_eq!(cap.name, "thermal-cap");
        assert_eq!(
            Scenario::default_bursty().device_profile(20.0),
            DeviceProfile::new("bursty-traffic", 20.0, 1.0),
            "a trace without device events has a plain profile"
        );
    }

    #[test]
    fn diurnal_rate_troughs_at_midnight_and_peaks_at_noon() {
        let day = Scenario::Diurnal {
            duration_s: 240,
            trough_rps: 4.0,
            peak_rps: 40.0,
            period_s: 240,
            background_w: 0.1,
        };
        assert!((day.rate_at(0) - 4.0).abs() < 1e-9, "midnight trough");
        assert!((day.rate_at(120) - 40.0).abs() < 1e-9, "noon peak");
        let morning = day.rate_at(60);
        assert!((morning - 22.0).abs() < 1e-9, "quarter-day midpoint");
        // the curve is periodic and symmetric around noon
        assert!((day.rate_at(180) - morning).abs() < 1e-9);
        assert_eq!(day.name(), "diurnal");
    }

    #[test]
    fn device_profile_events_fire_at_their_windows() {
        let d = DeviceProfile::new("d", 20.0, 0.8)
            .with_charger(30, 2.0)
            .with_thermal_cap(10, 20, 0)
            .with_cliff(15, 0.3);
        assert!(d.validate().is_ok());
        assert_eq!(d.charge_w_at(29), 0.0);
        assert_eq!(d.charge_w_at(30), 2.0);
        assert_eq!(d.thermal_cap_at(9), None);
        assert_eq!(d.thermal_cap_at(10), Some(0));
        assert_eq!(d.thermal_cap_at(20), None);
        assert_eq!(d.battery_cliff_at(14), None);
        assert_eq!(d.battery_cliff_at(15), Some(0.3));
    }

    #[test]
    fn fleet_scenarios_validate_and_cover_the_issue_shapes() {
        let cliff = FleetScenario::heterogeneous_cliff();
        assert!(cliff.validate().is_ok());
        assert_eq!(cliff.device_count(), 4);
        // heterogeneous initial charge, one charger, a stagger of caps and
        // a cliff — the shapes the fleet acceptance trace must exercise
        assert!(cliff.devices.iter().any(|d| d.initial_soc < 0.5));
        assert!(cliff.devices.iter().any(|d| d.charge_w > 0.0));
        assert!(cliff.devices.iter().any(|d| d.thermal_cap.is_some()));
        assert!(cliff.devices.iter().any(|d| d.cliff.is_some()));

        let day = FleetScenario::diurnal(10);
        assert!(day.validate().is_ok());
        assert_eq!(day.duration_s(), 240);
        assert!(matches!(day.arrivals, Scenario::Diurnal { .. }));

        let empty = FleetScenario {
            name: "empty".into(),
            arrivals: Scenario::default_bursty(),
            devices: Vec::new(),
        };
        assert!(empty.validate().is_err());
        let bad = FleetScenario {
            name: "bad".into(),
            arrivals: Scenario::default_bursty(),
            devices: vec![DeviceProfile::new("d", 10.0, 0.0)],
        };
        assert!(bad.validate().is_err());
    }
}
