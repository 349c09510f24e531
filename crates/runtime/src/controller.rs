//! The online governor policy: battery/DVFS telemetry in, level decisions
//! out.
//!
//! The paper's governor steps the V/F level down as the battery drains
//! ([`DvfsGovernor::mode_for_battery`]). Applied naively online, a state of
//! charge hovering around a threshold makes the device ping-pong between
//! adjacent levels, paying a pattern-set switch each time. The
//! [`RuntimeController`] therefore wraps the governor with two pieces of
//! hysteresis:
//!
//! * a **dwell window** — once switched, the policy holds the level for at
//!   least [`HysteresisConfig::min_dwell_ms`];
//! * a **state-of-charge margin** — a threshold crossing only counts once
//!   the battery is at least [`HysteresisConfig::soc_margin`] beyond it.
//!
//! A thermal cap (from the scenario) is hardware-mandated and clamps the
//! decision downward regardless of hysteresis.

use rt3_hardware::DvfsGovernor;

/// Hysteresis parameters of the online policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisConfig {
    /// Minimum time between two policy-initiated switches, in milliseconds.
    pub min_dwell_ms: f64,
    /// State-of-charge margin (fraction of capacity) a threshold must be
    /// crossed by before the policy follows it.
    pub soc_margin: f64,
}

impl Default for HysteresisConfig {
    fn default() -> Self {
        Self {
            min_dwell_ms: 2_000.0,
            soc_margin: 0.01,
        }
    }
}

impl HysteresisConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.min_dwell_ms >= 0.0 && self.min_dwell_ms.is_finite()) {
            return Err("min_dwell_ms must be non-negative and finite".into());
        }
        if !(0.0..0.5).contains(&self.soc_margin) {
            return Err("soc_margin must be in [0, 0.5)".into());
        }
        Ok(())
    }
}

/// One telemetry sample fed to the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Telemetry {
    /// Simulated time of the sample in milliseconds.
    pub now_ms: f64,
    /// Battery state of charge in `[0, 1]`.
    pub state_of_charge: f64,
    /// Hardware-mandated maximum level position, if a thermal governor is
    /// active (`0` = lowest frequency).
    pub thermal_cap: Option<usize>,
}

/// Outcome of one controller decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelDecision {
    /// Chosen governor level position (index into [`DvfsGovernor::levels`]).
    pub level_pos: usize,
    /// Whether this decision changed the level (and therefore requires a
    /// pattern-set switch).
    pub switched: bool,
}

/// Battery-aware level selection with hysteresis.
#[derive(Debug, Clone)]
pub struct RuntimeController {
    governor: DvfsGovernor,
    hysteresis: HysteresisConfig,
    current: Option<usize>,
    last_switch_ms: f64,
    switches: u64,
}

impl RuntimeController {
    /// Creates a controller over `governor`.
    ///
    /// # Panics
    ///
    /// Panics if the hysteresis configuration is invalid.
    pub fn new(governor: DvfsGovernor, hysteresis: HysteresisConfig) -> Self {
        hysteresis
            .validate()
            .expect("invalid hysteresis configuration");
        Self {
            governor,
            hysteresis,
            current: None,
            last_switch_ms: f64::NEG_INFINITY,
            switches: 0,
        }
    }

    /// The wrapped governor.
    pub fn governor(&self) -> &DvfsGovernor {
        &self.governor
    }

    /// Number of level switches performed so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Milliseconds since the last switch — the dwell the hysteresis
    /// compares against. Infinite before the first decision.
    pub fn ms_since_last_switch(&self, now_ms: f64) -> f64 {
        now_ms - self.last_switch_ms
    }

    /// Raw governor target for a state of charge, without hysteresis.
    pub fn raw_target(&self, state_of_charge: f64) -> usize {
        self.governor
            .level_position(self.governor.mode_for_battery(state_of_charge))
    }

    /// Decides the level for one telemetry sample.
    ///
    /// The first decision always switches (there is no previous level). A
    /// thermal cap clamps the outcome downward immediately — thermal safety
    /// outranks hysteresis — but policy moves (battery-driven) honour both
    /// the dwell window and the state-of-charge margin.
    pub fn decide(&mut self, telemetry: Telemetry) -> LevelDecision {
        let soc = telemetry.state_of_charge.clamp(0.0, 1.0);
        let raw = self.raw_target(soc);
        let mut target = match self.current {
            None => raw,
            Some(current) if raw == current => current,
            Some(current) => {
                let dwell_ok =
                    telemetry.now_ms - self.last_switch_ms >= self.hysteresis.min_dwell_ms;
                // the crossing is confirmed only if the governor still picks
                // the new level when the state of charge is pushed back
                // towards the old one by the margin
                let margin = self.hysteresis.soc_margin;
                let probe = if raw < current {
                    soc + margin
                } else {
                    soc - margin
                };
                let margin_ok = self.raw_target(probe.clamp(0.0, 1.0)) == raw;
                if dwell_ok && margin_ok {
                    raw
                } else {
                    current
                }
            }
        };
        if let Some(cap) = telemetry.thermal_cap {
            target = target.min(cap);
        }
        let switched = self.current != Some(target);
        if switched {
            self.current = Some(target);
            self.last_switch_ms = telemetry.now_ms;
            self.switches += 1;
        }
        LevelDecision {
            level_pos: target,
            switched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(min_dwell_ms: f64, soc_margin: f64) -> RuntimeController {
        RuntimeController::new(
            DvfsGovernor::paper_default(),
            HysteresisConfig {
                min_dwell_ms,
                soc_margin,
            },
        )
    }

    fn sample(now_ms: f64, soc: f64) -> Telemetry {
        Telemetry {
            now_ms,
            state_of_charge: soc,
            thermal_cap: None,
        }
    }

    #[test]
    fn follows_the_governor_as_the_battery_drains() {
        let mut c = controller(0.0, 0.0);
        assert_eq!(c.decide(sample(0.0, 0.9)).level_pos, 2);
        assert_eq!(c.decide(sample(1.0, 0.4)).level_pos, 1);
        let d = c.decide(sample(2.0, 0.1));
        assert_eq!(d.level_pos, 0);
        assert!(d.switched);
        assert_eq!(c.switches(), 3);
    }

    #[test]
    fn dwell_window_suppresses_rapid_switching() {
        let mut c = controller(1_000.0, 0.0);
        assert!(c.decide(sample(0.0, 0.9)).switched);
        // crossing right after the first switch is held back
        let held = c.decide(sample(100.0, 0.45));
        assert_eq!(held.level_pos, 2);
        assert!(!held.switched);
        // once the dwell window has passed, the crossing goes through
        let moved = c.decide(sample(1_200.0, 0.45));
        assert_eq!(moved.level_pos, 1);
        assert!(moved.switched);
    }

    #[test]
    fn soc_margin_debounces_threshold_hover() {
        let mut c = controller(0.0, 0.05);
        assert!(c.decide(sample(0.0, 0.6)).switched);
        // 0.49 is within the 0.05 margin of the 0.5 threshold: hold
        let d = c.decide(sample(1.0, 0.49));
        assert!(!d.switched);
        assert_eq!(d.level_pos, 2);
        // 0.44 is beyond the margin: switch
        let d = c.decide(sample(2.0, 0.44));
        assert!(d.switched);
        assert_eq!(d.level_pos, 1);
        // hovering back up to 0.52 (within margin) does not bounce back
        let d = c.decide(sample(3.0, 0.52));
        assert!(!d.switched);
        assert_eq!(d.level_pos, 1);
    }

    #[test]
    fn thermal_cap_clamps_immediately_and_releases() {
        let mut c = controller(10_000.0, 0.0);
        assert_eq!(c.decide(sample(0.0, 0.9)).level_pos, 2);
        let capped = c.decide(Telemetry {
            now_ms: 1.0,
            state_of_charge: 0.9,
            thermal_cap: Some(0),
        });
        assert_eq!(capped.level_pos, 0, "thermal cap outranks hysteresis");
        assert!(capped.switched);
        let released = c.decide(sample(20_000.0, 0.9));
        assert_eq!(released.level_pos, 2);
    }

    #[test]
    fn charging_back_up_recovers_higher_levels() {
        let mut c = controller(0.0, 0.02);
        assert_eq!(c.decide(sample(0.0, 0.15)).level_pos, 0);
        assert_eq!(c.decide(sample(1.0, 0.30)).level_pos, 1);
        assert_eq!(c.decide(sample(2.0, 0.80)).level_pos, 2);
    }

    #[test]
    fn exact_threshold_soc_is_inclusive_on_the_lower_level() {
        // paper_default thresholds sit at 0.5 (normal) and 0.2 (saving);
        // mode_for_battery treats them inclusively, so a state of charge of
        // exactly 0.5 is already Normal, not Fast
        let c = controller(0.0, 0.0);
        assert_eq!(c.raw_target(0.5 + f64::EPSILON), 2);
        assert_eq!(c.raw_target(0.5), 1);
        assert_eq!(c.raw_target(0.2 + f64::EPSILON), 1);
        assert_eq!(c.raw_target(0.2), 0);
        // with no margin, a decision at exactly the threshold steps down
        let mut c = controller(0.0, 0.0);
        assert_eq!(c.decide(sample(0.0, 0.9)).level_pos, 2);
        let d = c.decide(sample(1.0, 0.5));
        assert_eq!(d.level_pos, 1, "exact threshold crossing takes effect");
        assert!(d.switched);
    }

    #[test]
    fn margin_confirms_a_crossing_exactly_at_soc_plus_margin() {
        // the crossing is confirmed when the governor still picks the new
        // level with the state of charge pushed back by the margin: at
        // soc + margin == threshold the probe is *at* the threshold, which
        // is inclusive, so the switch goes through — one epsilon above holds
        let mut c = controller(0.0, 0.05);
        assert_eq!(c.decide(sample(0.0, 0.9)).level_pos, 2);
        let held = c.decide(sample(1.0, 0.45 + 1e-9));
        assert_eq!(held.level_pos, 2, "probe above the threshold holds");
        assert!(!held.switched);
        let moved = c.decide(sample(2.0, 0.45));
        assert_eq!(moved.level_pos, 1, "probe at the threshold confirms");
        assert!(moved.switched);
    }

    #[test]
    fn dwell_expiring_on_the_same_tick_as_a_thermal_clamp() {
        let mut c = controller(1_000.0, 0.0);
        assert_eq!(c.decide(sample(0.0, 0.9)).level_pos, 2);
        // the dwell window ends exactly now (1000 - 0 >= 1000) while a
        // thermal cap engages on the same tick: the battery move to l1 is
        // permitted and the cap clamps it further down to l0
        let d = c.decide(Telemetry {
            now_ms: 1_000.0,
            state_of_charge: 0.45,
            thermal_cap: Some(0),
        });
        assert_eq!(d.level_pos, 0);
        assert!(d.switched);
        // the clamp restarted the dwell window: releasing the cap half a
        // window later holds l0 even though the battery wants l1
        let held = c.decide(sample(1_500.0, 0.45));
        assert_eq!(held.level_pos, 0, "dwell suppresses the post-cap rebound");
        assert!(!held.switched);
        // at exact dwell expiry the suppressed move finally goes through
        let released = c.decide(sample(2_000.0, 0.45));
        assert_eq!(released.level_pos, 1);
        assert!(released.switched);
    }

    #[test]
    fn thermal_cap_clamps_the_very_first_decision() {
        let mut c = controller(10_000.0, 0.05);
        let d = c.decide(Telemetry {
            now_ms: 0.0,
            state_of_charge: 1.0,
            thermal_cap: Some(1),
        });
        assert_eq!(d.level_pos, 1, "first activation honours the cap");
        assert!(d.switched);
        assert_eq!(c.switches(), 1);
    }
}
