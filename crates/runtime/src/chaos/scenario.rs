//! The chaos scenario DSL: composable overlays over a base fleet trace.
//!
//! A [`ChaosScenario`] is a base [`FleetScenario`] plus an ordered list of
//! [`ChaosOverlay`]s. Overlays are *declarative*: traffic overlays scale
//! the arrival rate window-by-window, device overlays rewrite the matching
//! [`DeviceProfile`] slot (charger, thermal cap, cliff) when the scenario
//! is materialised by [`ChaosScenario::fleet_scenario`]. Because each
//! profile has one slot per event kind, a later overlay touching the same
//! slot of the same device wins — compositions read top-to-bottom.

use crate::fleet::{FleetConfig, RoutingPolicy};
use crate::scenario::{DeviceProfile, FleetScenario, Scenario};
use crate::scheduler::SchedulerConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt3_telemetry::TelemetryConfig;

use super::clients::ClientPolicy;

/// One layer of trouble composed onto a base fleet trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosOverlay {
    /// A flash crowd: the fleet-wide arrival rate is multiplied by
    /// `multiplier` during `[at_s, at_s + len_s)`. Overlapping flash
    /// crowds compound (multipliers multiply).
    FlashCrowd {
        /// Second the crowd arrives.
        at_s: u32,
        /// How long it stays, in seconds.
        len_s: u32,
        /// Rate multiplier while active (> 0; 2.0 doubles traffic).
        multiplier: f64,
    },
    /// A correlated regional charge cycle: every listed device plugs into
    /// a charger at the same instant (the diurnal "whole cell charges
    /// overnight" shape — exactly when sticky routing herds traffic).
    RegionalChargeCycle {
        /// Device indices into the base scenario's profile list; indices
        /// past the fleet are ignored.
        devices: Vec<usize>,
        /// Second the region plugs in.
        from_s: u32,
        /// Charging power per device, watts.
        charge_w: f64,
    },
    /// Mid-burst device death: the device loses its entire remaining
    /// battery at `at_s` (materialised as a 100% capacity cliff), dropping
    /// its queue and bouncing its traffic — with closed-loop clients, the
    /// seed of a retry storm.
    DeviceDeath {
        /// Device index into the base scenario's profile list.
        device: usize,
        /// Second the battery dies.
        at_s: u32,
    },
    /// A thermal wave rolling across the fleet: device `i` is capped at
    /// `cap_level_pos` during `[from_s + i·stagger_s, … + len_s)`, so the
    /// cap sweeps the fleet in index order instead of hitting everyone at
    /// once.
    ThermalWave {
        /// Second the wave reaches device 0.
        from_s: u32,
        /// Cap duration per device, seconds.
        len_s: u32,
        /// Delay between consecutive devices, seconds.
        stagger_s: u32,
        /// Maximum allowed level position while capped (0 = lowest).
        cap_level_pos: usize,
    },
}

/// A composed chaos scenario: base trace, overlays and the closed-loop
/// client policy that replays it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// Scenario name for reports (`fleet_scenario()` carries it through).
    pub name: String,
    /// The open-loop fleet trace the overlays modify.
    pub base: FleetScenario,
    /// Overlays in composition order (later wins on slot conflicts).
    pub overlays: Vec<ChaosOverlay>,
    /// The client population's retry/backoff/abandon behaviour.
    pub clients: ClientPolicy,
}

impl ChaosScenario {
    /// A chaos scenario with no overlays and the default client policy.
    pub fn new(name: &str, base: FleetScenario) -> Self {
        Self {
            name: name.to_string(),
            base,
            overlays: Vec::new(),
            clients: ClientPolicy::default(),
        }
    }

    /// Adds one overlay (combinator style: `.with(…).with(…)`).
    #[must_use]
    pub fn with(mut self, overlay: ChaosOverlay) -> Self {
        self.overlays.push(overlay);
        self
    }

    /// Replaces the client policy.
    #[must_use]
    pub fn with_clients(mut self, clients: ClientPolicy) -> Self {
        self.clients = clients;
        self
    }

    /// The arrival-rate multiplier in effect at `t_s`: the product of every
    /// active [`ChaosOverlay::FlashCrowd`] (1.0 when none is active).
    pub fn rate_multiplier_at(&self, t_s: u32) -> f64 {
        let mut multiplier = 1.0;
        for overlay in &self.overlays {
            if let ChaosOverlay::FlashCrowd {
                at_s,
                len_s,
                multiplier: m,
            } = *overlay
            {
                if (at_s..at_s.saturating_add(len_s)).contains(&t_s) {
                    multiplier *= m;
                }
            }
        }
        multiplier
    }

    /// Materialises the device-side overlays into a plain
    /// [`FleetScenario`] a [`crate::Fleet`] can be built from: chargers,
    /// caps and cliffs are written into the profile slots in overlay
    /// order. Traffic overlays (flash crowds) do not appear here — the
    /// chaos driver applies [`ChaosScenario::rate_multiplier_at`] at
    /// replay time.
    pub fn fleet_scenario(&self) -> FleetScenario {
        let mut scenario = self.base.clone();
        scenario.name = self.name.clone();
        for overlay in &self.overlays {
            match overlay {
                ChaosOverlay::FlashCrowd { .. } => {}
                ChaosOverlay::RegionalChargeCycle {
                    devices,
                    from_s,
                    charge_w,
                } => {
                    for &i in devices {
                        if let Some(profile) = scenario.devices.get_mut(i) {
                            profile.charge_from_s = *from_s;
                            profile.charge_w = *charge_w;
                        }
                    }
                }
                ChaosOverlay::DeviceDeath { device, at_s } => {
                    if let Some(profile) = scenario.devices.get_mut(*device) {
                        profile.cliff = Some((*at_s, 1.0));
                    }
                }
                ChaosOverlay::ThermalWave {
                    from_s,
                    len_s,
                    stagger_s,
                    cap_level_pos,
                } => {
                    for (i, profile) in scenario.devices.iter_mut().enumerate() {
                        let start = from_s.saturating_add(stagger_s.saturating_mul(i as u32));
                        profile.thermal_cap =
                            Some((start, start.saturating_add(*len_s), *cap_level_pos));
                    }
                }
            }
        }
        scenario
    }

    /// Validates the composition.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        self.clients.validate()?;
        let n = self.base.devices.len();
        for overlay in &self.overlays {
            match overlay {
                ChaosOverlay::FlashCrowd {
                    multiplier, len_s, ..
                } => {
                    if !(multiplier.is_finite() && *multiplier > 0.0) {
                        return Err("flash-crowd multiplier must be positive".into());
                    }
                    if *len_s == 0 {
                        return Err("flash-crowd length must be at least one window".into());
                    }
                }
                ChaosOverlay::RegionalChargeCycle { charge_w, .. } => {
                    if !(charge_w.is_finite() && *charge_w > 0.0) {
                        return Err("regional charge power must be positive".into());
                    }
                }
                ChaosOverlay::DeviceDeath { device, .. } => {
                    if *device >= n {
                        return Err(format!("device-death index {device} out of fleet (n={n})"));
                    }
                }
                ChaosOverlay::ThermalWave { len_s, .. } => {
                    if *len_s == 0 {
                        return Err("thermal-wave length must be at least one window".into());
                    }
                }
            }
        }
        // materialised profiles must still be valid (cliff in range etc.)
        self.fleet_scenario().validate()
    }

    /// The base trace chaos compositions stress: four heterogeneous
    /// devices under steady traffic, short enough for tests, hot enough
    /// that routing quality matters. Small batteries mean the fleet
    /// survives only if routing rations them.
    fn chaos_base(duration_s: u32, rps: f64) -> FleetScenario {
        FleetScenario {
            name: "chaos-base".to_string(),
            arrivals: Scenario::ConstantDrain {
                duration_s,
                rps,
                background_w: 0.03,
            },
            devices: vec![
                DeviceProfile::new("d0", 30.0, 1.0),
                DeviceProfile::new("d1", 30.0, 0.8),
                DeviceProfile::new("d2", 30.0, 0.6).with_charger(0, 2.0),
                DeviceProfile::new("d3", 26.0, 0.9),
            ],
        }
    }

    /// The serving configuration the chaos benchmarks run under: one
    /// worker and a 32-deep queue per device, a 200 ms deadline budget and
    /// counter-level telemetry (the invariant harness reconciles against
    /// it). Small on purpose — under [`ChaosScenario::retry_storm`] the
    /// flash crowd genuinely exceeds what the surviving devices can admit,
    /// so routing quality shows up in the client retry counters instead of
    /// being absorbed by slack capacity.
    pub fn storm_fleet_config(policy: RoutingPolicy, seed: u64) -> FleetConfig {
        FleetConfig {
            routing: policy,
            deadline_budget_ms: 200.0,
            scheduler: SchedulerConfig {
                workers: 1,
                queue_capacity: 32,
                ..SchedulerConfig::default()
            },
            real_inference: false,
            seed,
            telemetry: TelemetryConfig::counters(),
        }
    }

    /// The base trace for the retry storm: three healthy devices and one
    /// with a nearly shot battery that *reads* fully charged (`d3`: 0.1 J
    /// at 100%). Background drain is negligible, so d3's time of death is
    /// decided by how much traffic the router sends it — the policy-
    /// sensitive capacity loss the storm is built around.
    fn storm_base(duration_s: u32, rps: f64) -> FleetScenario {
        FleetScenario {
            name: "storm-base".to_string(),
            arrivals: Scenario::ConstantDrain {
                duration_s,
                rps,
                background_w: 0.001,
            },
            devices: vec![
                DeviceProfile::new("d0", 30.0, 1.0),
                DeviceProfile::new("d1", 30.0, 0.9),
                DeviceProfile::new("d2", 30.0, 0.6).with_charger(0, 2.0),
                DeviceProfile::new("d3", 0.1, 1.0),
            ],
        }
    }

    /// Named composition: a flash crowd that outgrows the fleet's admission
    /// capacity, a mid-crowd death of the strongest device, and aggressive
    /// clients — the retry-storm shape. Run it under
    /// [`ChaosScenario::storm_fleet_config`]: once `d0` dies, the crowd
    /// exceeds what the survivors can admit per window, rejected attempts
    /// retry into the next window, and the storm feeds itself until backoff
    /// and abandonment bleed it off. How hard it blows depends on `d3`,
    /// whose tiny battery dies when it is fed: predictive routing reads its
    /// EWMA time-to-death and starves it through the crowd, round-robin
    /// keeps feeding it and loses a second device mid-storm, and
    /// battery-aware — which ranks by state-of-charge *fraction* — is
    /// actively fooled by the full-reading battery.
    pub fn retry_storm() -> Self {
        Self::new("chaos-retry-storm", Self::storm_base(60, 56.0))
            .with(ChaosOverlay::FlashCrowd {
                at_s: 15,
                len_s: 20,
                multiplier: 2.0,
            })
            .with(ChaosOverlay::DeviceDeath {
                device: 0,
                at_s: 25,
            })
            .with_clients(ClientPolicy {
                max_attempts: 5,
                backoff_base_ms: 150.0,
                backoff_factor: 2.0,
                jitter_ms: 120.0,
                ..ClientPolicy::default()
            })
    }

    /// Named composition: a 3× flash crowd on an otherwise calm fleet.
    pub fn flash_crowd() -> Self {
        Self::new("chaos-flash-crowd", Self::chaos_base(60, 32.0)).with(ChaosOverlay::FlashCrowd {
            at_s: 20,
            len_s: 15,
            multiplier: 3.0,
        })
    }

    /// Named composition: a thermal wave sweeping the fleet while traffic
    /// holds steady — capacity shrinks one device at a time.
    pub fn thermal_wave() -> Self {
        Self::new("chaos-thermal-wave", Self::chaos_base(60, 40.0)).with(
            ChaosOverlay::ThermalWave {
                from_s: 10,
                len_s: 20,
                stagger_s: 8,
                cap_level_pos: 0,
            },
        )
    }

    /// Named composition: a correlated regional charge cycle — half the
    /// fleet plugs in at once mid-trace, flipping who the battery-aware
    /// router should prefer.
    pub fn charge_cycle() -> Self {
        Self::new("chaos-charge-cycle", Self::chaos_base(60, 40.0)).with(
            ChaosOverlay::RegionalChargeCycle {
                devices: vec![0, 1],
                from_s: 30,
                charge_w: 2.5,
            },
        )
    }

    /// Looks a named composition up (`retry-storm`, `flash-crowd`,
    /// `thermal-wave`, `charge-cycle`) — the `RT3_CHAOS_SCENARIO` values.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "retry-storm" => Some(Self::retry_storm()),
            "flash-crowd" => Some(Self::flash_crowd()),
            "thermal-wave" => Some(Self::thermal_wave()),
            "charge-cycle" => Some(Self::charge_cycle()),
            _ => None,
        }
    }

    /// Draws a random composition from `seed` for property fuzzing: 1–3
    /// overlays of random kinds over the chaos base trace, with a random
    /// (but sane) client policy. Every generated scenario validates; the
    /// invariant harness replays them in bulk.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let duration_s = rng.gen_range(20..35u32);
        let rps = rng.gen_range(16.0..48.0f64);
        let mut chaos = Self::new(
            &format!("chaos-gen-{seed:#x}"),
            Self::chaos_base(duration_s, rps),
        );
        let n = chaos.base.devices.len();
        let overlay_count = rng.gen_range(1..=3usize);
        for _ in 0..overlay_count {
            let overlay = match rng.gen_range(0..4u32) {
                0 => ChaosOverlay::FlashCrowd {
                    at_s: rng.gen_range(0..duration_s / 2),
                    len_s: rng.gen_range(3..duration_s / 2),
                    multiplier: rng.gen_range(1.2..3.0),
                },
                1 => {
                    let count = rng.gen_range(1..=n);
                    ChaosOverlay::RegionalChargeCycle {
                        devices: (0..count).collect(),
                        from_s: rng.gen_range(0..duration_s),
                        charge_w: rng.gen_range(1.0..3.0),
                    }
                }
                2 => ChaosOverlay::DeviceDeath {
                    device: rng.gen_range(0..n),
                    at_s: rng.gen_range(duration_s / 4..duration_s),
                },
                _ => ChaosOverlay::ThermalWave {
                    from_s: rng.gen_range(0..duration_s / 2),
                    len_s: rng.gen_range(5..duration_s),
                    stagger_s: rng.gen_range(0..8),
                    cap_level_pos: 0,
                },
            };
            chaos = chaos.with(overlay);
        }
        chaos.clients = ClientPolicy {
            population: rng.gen_range(32..256),
            max_outstanding: 1,
            max_attempts: rng.gen_range(2..6),
            backoff_base_ms: rng.gen_range(100.0..400.0),
            backoff_factor: rng.gen_range(1.5..2.5),
            jitter_ms: rng.gen_range(0.0..150.0),
            retry_on_late: rng.gen_bool(0.8),
        };
        debug_assert!(chaos.validate().is_ok(), "generated scenario must validate");
        chaos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_crowds_compound_and_expire() {
        let chaos = ChaosScenario::new("t", ChaosScenario::chaos_base(30, 10.0))
            .with(ChaosOverlay::FlashCrowd {
                at_s: 5,
                len_s: 10,
                multiplier: 2.0,
            })
            .with(ChaosOverlay::FlashCrowd {
                at_s: 10,
                len_s: 10,
                multiplier: 3.0,
            });
        assert_eq!(chaos.rate_multiplier_at(4), 1.0);
        assert_eq!(chaos.rate_multiplier_at(5), 2.0);
        assert_eq!(chaos.rate_multiplier_at(10), 6.0, "overlaps compound");
        assert_eq!(chaos.rate_multiplier_at(14), 6.0);
        assert_eq!(chaos.rate_multiplier_at(15), 3.0);
        assert_eq!(chaos.rate_multiplier_at(20), 1.0);
    }

    #[test]
    fn overlays_materialise_into_profiles() {
        let chaos = ChaosScenario::new("t", ChaosScenario::chaos_base(40, 10.0))
            .with(ChaosOverlay::DeviceDeath {
                device: 1,
                at_s: 12,
            })
            .with(ChaosOverlay::RegionalChargeCycle {
                devices: vec![0, 3],
                from_s: 20,
                charge_w: 2.5,
            })
            .with(ChaosOverlay::ThermalWave {
                from_s: 5,
                len_s: 10,
                stagger_s: 2,
                cap_level_pos: 0,
            });
        let scenario = chaos.fleet_scenario();
        assert_eq!(scenario.name, "t");
        assert_eq!(
            scenario.devices[1].cliff,
            Some((12, 1.0)),
            "death = 100% cliff"
        );
        assert_eq!(scenario.devices[0].charge_from_s, 20);
        assert_eq!(scenario.devices[0].charge_w, 2.5);
        assert_eq!(scenario.devices[3].charge_w, 2.5);
        assert_eq!(scenario.devices[1].charge_w, 0.0);
        assert_eq!(
            scenario.devices[2].thermal_cap,
            Some((9, 19, 0)),
            "staggered"
        );
        assert!(chaos.validate().is_ok());
        // the base itself is untouched — materialisation is pure
        assert_eq!(chaos.base.devices[1].cliff, None);
    }

    #[test]
    fn named_scenarios_validate_and_resolve_by_name() {
        for name in ["retry-storm", "flash-crowd", "thermal-wave", "charge-cycle"] {
            let chaos = ChaosScenario::by_name(name).expect("known name");
            assert!(chaos.validate().is_ok(), "{name} must validate");
        }
        assert!(ChaosScenario::by_name("nope").is_none());
    }

    #[test]
    fn generated_scenarios_are_deterministic_and_valid() {
        for seed in 0..24u64 {
            let a = ChaosScenario::generate(seed);
            let b = ChaosScenario::generate(seed);
            assert_eq!(a, b, "same seed, same scenario");
            assert!(a.validate().is_ok(), "seed {seed} must validate");
            assert!(!a.overlays.is_empty());
        }
        assert_ne!(
            ChaosScenario::generate(1),
            ChaosScenario::generate(2),
            "different seeds should differ"
        );
    }

    #[test]
    fn invalid_compositions_are_rejected() {
        let base = ChaosScenario::chaos_base(30, 10.0);
        let bad_mult = ChaosScenario::new("t", base.clone()).with(ChaosOverlay::FlashCrowd {
            at_s: 0,
            len_s: 5,
            multiplier: 0.0,
        });
        assert!(bad_mult.validate().is_err());
        let bad_device = ChaosScenario::new("t", base).with(ChaosOverlay::DeviceDeath {
            device: 99,
            at_s: 5,
        });
        assert!(bad_device.validate().is_err());
    }
}
