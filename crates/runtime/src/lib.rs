//! # rt3-runtime
//!
//! The battery-aware **online serving engine** of the RT3 reproduction: it
//! turns the offline artifacts (Level-1 backbone, Level-2 pattern search
//! outcome) into a running service that "dances along the battery" —
//! switching pattern sets as the state of charge, charger and thermal state
//! change, while meeting per-request deadlines. See DESIGN.md for the
//! architecture.
//!
//! * [`ModelBank`] — one pre-materialised block-sparse model per V/F level,
//!   built lazily from the search's best solution with LRU eviction and
//!   switch-cost accounting from [`rt3_hardware::MemoryModel`].
//! * [`RuntimeController`] — the paper's battery governor plus dwell-window
//!   and state-of-charge hysteresis, with thermal-cap clamping.
//! * [`DeviceGovernor`] — one device's battery, drain observer, controller,
//!   active level and scheduler: the window-boundary decision and switch,
//!   admission, dispatch with inference energy, and the death drain that
//!   the simulated device and the socket server share, together with the
//!   [`DeviceMetricIds`] schema.
//! * [`cost`] — the unified cost-model layer behind every prediction:
//!   the [`CostModel`] trait with the default fixed-α [`Analytic`] model
//!   and the pool-measured [`Calibrated`] model (see [`calibrate`]).
//! * [`DeadlineScheduler`] — bounded queue, admission control, greedy
//!   micro-batching and simulated workers whose service times come from
//!   the shared cost model over the paper's
//!   [`rt3_hardware::PerformancePredictor`].
//! * [`pool`] — a real multi-threaded worker pool that replays every
//!   dispatched micro-batch as actual pattern-pruned sparse matmuls.
//! * [`Scenario`] — trace-driven workloads (constant drain, bursty traffic,
//!   cliff discharge, charge-while-serving, thermal cap, diurnal day curve).
//! * [`ServeEngine`] — one device tying it together, played through the
//!   fleet's window loop as a one-device fleet, producing a
//!   [`ServeReport`] with p50/p95/p99 latency, deadline-miss rate, energy
//!   and switch counts.
//! * [`Fleet`] / [`Router`] — cross-device sharding: N simulated devices
//!   (each with its own battery, controller, bank and scheduler) behind a
//!   battery-headroom or predictive (time-to-death) router with failover,
//!   played from a [`FleetScenario`] into a [`FleetReport`].
//! * [`TelemetryConfig`] — opt-in observability from `rt3-telemetry`:
//!   streaming counters/gauges/histograms per device and router, a
//!   request-lifecycle trace (admit → queue → batch → infer → complete) and
//!   a controller decision audit with prediction-vs-actual residuals, all
//!   exportable as JSONL via [`TelemetrySnapshot`]. `Off` (the default)
//!   keeps the engine byte-identical to the uninstrumented build.
//!
//! # Examples
//!
//! ```
//! use rt3_core::{build_search_space, run_level1, run_level2_search};
//! use rt3_core::{Rt3Config, SurrogateEvaluator, TaskProfile};
//! use rt3_runtime::{RuntimePolicy, Scenario, ServeConfig, ServeEngine};
//! use rt3_transformer::{TransformerConfig, TransformerLm};
//!
//! let model = TransformerLm::new(TransformerConfig::tiny(32), 0);
//! let config = Rt3Config::tiny_test();
//! let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
//! let backbone = run_level1(&model, &config, &mut evaluator);
//! let space = build_search_space(&model, &backbone, &config);
//! let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
//!
//! let mut engine = ServeEngine::new(
//!     &model,
//!     backbone.masks.clone(),
//!     &space,
//!     &outcome,
//!     config,
//!     ServeConfig { real_inference: false, ..ServeConfig::default() },
//! );
//! let report = engine.run(&Scenario::ConstantDrain {
//!     duration_s: 5,
//!     rps: 2.0,
//!     background_w: 0.1,
//! });
//! assert!(report.completed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
pub mod chaos;
mod controller;
pub mod cost;
mod engine;
mod fleet;
mod governor;
pub mod pool;
mod report;
mod scenario;
mod scheduler;
mod telemetry;

pub use bank::{BankStats, BankedModel, InferScratch, ModelBank};
pub use chaos::{
    check_invariants, ChaosOverlay, ChaosReport, ChaosScenario, ClientPolicy, ClientReport,
};
pub use controller::{HysteresisConfig, LevelDecision, RuntimeController, Telemetry};
pub use cost::{
    calibrate, AmortisationCurve, Analytic, Calibrated, CalibrationOptions, CalibrationReport,
    CostConfig, CostModel, LatencyModel, SwitchCalibration,
};
pub use engine::{RuntimePolicy, ServeConfig, ServeEngine};
pub use fleet::{DeviceSnapshot, Fleet, FleetConfig, Router, RoutingPolicy};
pub use governor::{DeviceGovernor, DeviceMetrics};
pub use report::{FleetReport, ServeReport, WindowReport};
pub use rt3_telemetry::{TelemetryConfig, TelemetryLevel, TelemetrySnapshot};
pub use scenario::{DeviceProfile, FleetScenario, Scenario};
pub use scheduler::{Completion, DeadlineScheduler, RejectReason, Request, SchedulerConfig};
pub use telemetry::DeviceMetricIds;

#[cfg(test)]
mod tests {
    use super::*;
    use rt3_core::{
        build_search_space, run_level1, run_level2_search, Rt3Config, SearchOutcome,
        SurrogateEvaluator, TaskProfile,
    };
    use rt3_pruning::PatternSpace;
    use rt3_transformer::{TransformerConfig, TransformerLm};

    fn offline_artifacts() -> (
        TransformerLm,
        rt3_transformer::MaskSet,
        PatternSpace,
        SearchOutcome,
        Rt3Config,
    ) {
        let model = TransformerLm::new(TransformerConfig::tiny(32), 13);
        let config = Rt3Config::tiny_test();
        let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
        let backbone = run_level1(&model, &config, &mut evaluator);
        let space = build_search_space(&model, &backbone, &config);
        let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
        (model, backbone.masks, space, outcome, config)
    }

    fn serve_config() -> ServeConfig {
        ServeConfig {
            battery_capacity_j: 40.0,
            real_inference: false,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn adaptive_run_serves_a_constant_trace_end_to_end() {
        let (model, masks, space, outcome, config) = offline_artifacts();
        let mut engine = ServeEngine::new(&model, masks, &space, &outcome, config, serve_config());
        let report = engine.run(&Scenario::ConstantDrain {
            duration_s: 30,
            rps: 3.0,
            background_w: 0.2,
        });
        assert_eq!(report.windows.len(), 30);
        assert!(report.completed > 0);
        assert!(report.arrivals >= report.completed);
        assert!(report.p95_ms() >= report.p50_ms());
        assert!(
            report.final_state_of_charge < 1.0,
            "serving must drain the battery"
        );
        assert!(report.inference_energy_j > 0.0);
    }

    #[test]
    fn real_inference_pool_produces_a_stable_checksum() {
        let (model, masks, space, outcome, config) = offline_artifacts();
        let serve = ServeConfig {
            battery_capacity_j: 40.0,
            real_inference: true,
            ..ServeConfig::default()
        };
        let scenario = Scenario::ConstantDrain {
            duration_s: 5,
            rps: 2.0,
            background_w: 0.1,
        };
        let mut engine = ServeEngine::new(
            &model,
            masks.clone(),
            &space,
            &outcome,
            config.clone(),
            serve.clone(),
        );
        let a = engine.run(&scenario);
        let mut engine2 = ServeEngine::new(&model, masks, &space, &outcome, config, serve);
        let b = engine2.run(&scenario);
        assert!(a.real_batches > 0);
        assert_eq!(a.inference_checksum, b.inference_checksum);
        assert_eq!(a.completed, b.completed, "simulation must be deterministic");
    }

    #[test]
    fn adaptive_switches_levels_as_the_battery_drains() {
        let (model, masks, space, outcome, config) = offline_artifacts();
        let serve = ServeConfig {
            battery_capacity_j: 13.0, // small battery: the trace crosses both thresholds
            real_inference: false,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&model, masks, &space, &outcome, config, serve);
        let report = engine.run(&Scenario::ConstantDrain {
            duration_s: 60,
            rps: 4.0,
            background_w: 0.2,
        });
        assert!(
            report.switches >= 2,
            "expected level step-downs, got {}",
            report.switches
        );
        assert!(report.switch_time_ms > 0.0);
        assert!(
            report.runs_per_level.iter().filter(|&&r| r > 0).count() >= 2,
            "work should spread over multiple levels: {:?}",
            report.runs_per_level
        );
    }

    #[test]
    fn fixed_level_baseline_never_switches() {
        let (model, masks, space, outcome, config) = offline_artifacts();
        let top = config.governor.levels().len() - 1;
        let serve = ServeConfig {
            battery_capacity_j: 40.0,
            policy: RuntimePolicy::FixedLevel(top),
            real_inference: false,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&model, masks, &space, &outcome, config, serve);
        let report = engine.run(&Scenario::ConstantDrain {
            duration_s: 20,
            rps: 3.0,
            background_w: 0.2,
        });
        assert_eq!(report.switches, 0);
        assert_eq!(report.policy, "fixed-l6");
        assert!(report.runs_per_level[top] > 0);
        assert!(report.runs_per_level[..top].iter().all(|&r| r == 0));
    }

    #[test]
    fn dead_battery_drops_requests_and_is_reported() {
        let (model, masks, space, outcome, config) = offline_artifacts();
        let serve = ServeConfig {
            battery_capacity_j: 3.0, // dies mid-trace
            real_inference: false,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&model, masks, &space, &outcome, config, serve);
        let report = engine.run(&Scenario::ConstantDrain {
            duration_s: 40,
            rps: 4.0,
            background_w: 0.3,
        });
        let died = report.died_at_s.expect("a 3 J battery cannot survive 40 s");
        assert!(died < 40);
        assert!(report.dropped_dead_battery > 0);
        assert!(report.miss_rate() > 0.2);
    }

    #[test]
    fn thermal_cap_scenario_clamps_the_level() {
        let (model, masks, space, outcome, config) = offline_artifacts();
        let mut engine = ServeEngine::new(&model, masks, &space, &outcome, config, serve_config());
        let report = engine.run(&Scenario::ThermalCap {
            duration_s: 30,
            rps: 3.0,
            background_w: 0.1,
            cap_from_s: 5,
            cap_until_s: 25,
            cap_level_pos: 0,
        });
        for w in &report.windows {
            if (5..25).contains(&w.t_s) {
                assert_eq!(w.level_pos, Some(0), "cap must clamp window {}", w.t_s);
            }
        }
        assert!(report.completed > 0);
    }

    fn fleet_config() -> FleetConfig {
        FleetConfig {
            real_inference: false,
            ..FleetConfig::default()
        }
    }

    fn run_fleet(policy: RoutingPolicy, scenario: &FleetScenario) -> FleetReport {
        let (model, masks, space, outcome, config) = offline_artifacts();
        let fleet_cfg = FleetConfig {
            routing: policy,
            ..fleet_config()
        };
        let fleet = Fleet::new(
            &model, masks, &space, &outcome, &config, scenario, fleet_cfg,
        );
        fleet.run()
    }

    fn run_chaos(policy: RoutingPolicy, chaos: &ChaosScenario, seed: u64) -> ChaosReport {
        let (model, masks, space, outcome, config) = offline_artifacts();
        let fleet_cfg = ChaosScenario::storm_fleet_config(policy, seed);
        let scenario = chaos.fleet_scenario();
        let fleet = Fleet::new(
            &model, masks, &space, &outcome, &config, &scenario, fleet_cfg,
        );
        fleet.run_chaos(chaos)
    }

    #[test]
    fn chaos_retry_storm_serves_and_satisfies_every_invariant() {
        let chaos = ChaosScenario::retry_storm();
        let report = run_chaos(RoutingPolicy::Predictive, &chaos, 11);
        assert!(report.clients.jobs > 0, "the storm issued jobs");
        assert!(report.clients.succeeded > 0, "some jobs succeeded");
        assert!(
            report.fleet.deaths() >= 1,
            "the death overlay killed a device"
        );
        assert!(
            report.clients.retries > 0,
            "a death under load must trigger retries"
        );
        if let Err(violations) = check_invariants(&chaos, &report) {
            panic!("invariant violations:\n{}", violations.join("\n"));
        }
    }

    #[test]
    fn chaos_runs_are_deterministic_under_a_seed() {
        let chaos = ChaosScenario::flash_crowd();
        let mut a = run_chaos(RoutingPolicy::BatteryAware, &chaos, 7);
        let mut b = run_chaos(RoutingPolicy::BatteryAware, &chaos, 7);
        // everything except real wall-clock timings is a function of the
        // seed: the scrubbed reports must be bit-exact
        a.scrub_wall_clock();
        b.scrub_wall_clock();
        assert_eq!(a, b, "same seed, same replay");
        let mut c = run_chaos(RoutingPolicy::BatteryAware, &chaos, 8);
        c.scrub_wall_clock();
        // at an integer arrival rate the per-window counts are
        // seed-independent, but the offsets (and so latencies) are not
        assert_ne!(a, c, "a different seed draws different traffic");
    }

    #[test]
    fn predictive_routing_rides_out_the_retry_storm_best() {
        let chaos = ChaosScenario::retry_storm();
        let predictive = run_chaos(RoutingPolicy::Predictive, &chaos, 42);
        let round_robin = run_chaos(RoutingPolicy::RoundRobin, &chaos, 42);
        assert!(
            predictive.clients.retry_amplification() < round_robin.clients.retry_amplification(),
            "predictive {} must amplify less than round-robin {}",
            predictive.clients.retry_amplification(),
            round_robin.clients.retry_amplification()
        );
        // the mechanism: round-robin keeps feeding d3's nearly-dead battery
        // and loses it mid-crowd; predictive starves it and keeps it alive
        let d3_pred = &predictive.fleet.devices[3];
        let d3_rr = &round_robin.fleet.devices[3];
        match (d3_pred.died_at_s, d3_rr.died_at_s) {
            (None, Some(_)) => {}
            (Some(pred_death), Some(rr_death)) => assert!(
                pred_death > rr_death,
                "predictive must keep d3 alive longer ({pred_death} vs {rr_death})"
            ),
            (pred, rr) => panic!("round-robin must kill d3 (predictive {pred:?}, rr {rr:?})"),
        }
    }

    #[test]
    fn calibrated_cost_model_swaps_into_the_engine() {
        use std::sync::Arc;
        let (model, masks, space, outcome, config) = offline_artifacts();
        let scenario = Scenario::ConstantDrain {
            duration_s: 20,
            rps: 3.0,
            background_w: 0.2,
        };
        let mut engine = ServeEngine::new(
            &model,
            masks,
            &space,
            &outcome,
            config.clone(),
            serve_config(),
        );
        let analytic = engine.run(&scenario);
        assert_eq!(analytic.cost_model, "analytic");
        // a synthetic measured curve (flat amortisation: batches are cheap)
        let curves = vec![
            AmortisationCurve::from_raw(&[1.0, 1.1, 1.15, 1.18]);
            config.governor.levels().len()
        ];
        let latency = LatencyModel {
            predictor: config.predictor,
            workload_config: config.workload_config.clone(),
            seq_len: config.seq_len,
        };
        engine.set_cost_model(Arc::new(Calibrated::new(latency, curves)));
        let calibrated = engine.run(&scenario);
        assert_eq!(calibrated.cost_model, "calibrated");
        assert!(calibrated.completed > 0);
        assert_eq!(
            calibrated.arrivals, analytic.arrivals,
            "the arrival process is independent of the cost model"
        );
        // cheaper batches can only speed the tail up
        assert!(calibrated.p95_ms() <= analytic.p95_ms());
    }

    #[test]
    fn predictive_fleet_run_is_deterministic_and_serves() {
        let scenario = FleetScenario::heterogeneous_cliff();
        let a = run_fleet(RoutingPolicy::Predictive, &scenario);
        let b = run_fleet(RoutingPolicy::Predictive, &scenario);
        assert_eq!(a, b, "same seed and trace must replay identically");
        assert_eq!(a.routing, "predictive");
        assert!(a.completed() > 0);
        let routed: u64 = a.devices.iter().map(|d| d.arrivals).sum();
        assert_eq!(routed + a.unroutable, a.arrivals);
    }

    #[test]
    fn fleet_serves_the_heterogeneous_cliff_trace_end_to_end() {
        let scenario = FleetScenario::heterogeneous_cliff();
        let report = run_fleet(RoutingPolicy::BatteryAware, &scenario);
        assert_eq!(report.devices.len(), 4);
        assert_eq!(report.routing, "battery-aware");
        assert!(report.arrivals > 0);
        assert!(report.completed() > 0);
        // every device carries the full window trace, named by its profile
        for (device, profile) in report.devices.iter().zip(&scenario.devices) {
            assert_eq!(device.scenario, profile.name);
            assert_eq!(device.windows.len(), scenario.duration_s() as usize);
        }
        // routed traffic + unroutable covers every arrival
        let routed: u64 = report.devices.iter().map(|d| d.arrivals).sum();
        assert_eq!(routed + report.unroutable, report.arrivals);
        assert!(report.load_imbalance() >= 1.0);
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let scenario = FleetScenario::heterogeneous_cliff();
        let a = run_fleet(RoutingPolicy::BatteryAware, &scenario);
        let b = run_fleet(RoutingPolicy::BatteryAware, &scenario);
        assert_eq!(a, b, "same seed and trace must replay identically");
    }

    #[test]
    fn dead_fleet_devices_receive_no_traffic() {
        // a tiny battery guarantees at least one death under steady load
        let mut scenario = FleetScenario::heterogeneous_cliff();
        scenario.devices[0].battery_capacity_j = 2.0;
        scenario.devices[0].cliff = None;
        let report = run_fleet(RoutingPolicy::BatteryAware, &scenario);
        let d0 = &report.devices[0];
        let died_at = d0.died_at_s.expect("a 2 J battery cannot survive");
        for w in &d0.windows {
            if w.t_s >= died_at {
                assert_eq!(
                    w.arrivals, 0,
                    "router must not send traffic to a dead device (window {})",
                    w.t_s
                );
            }
        }
        // the fleet as a whole keeps serving through the death
        assert!(report.completed() > 0);
        assert!(report.deaths() >= 1);
    }

    #[test]
    fn diurnal_fleet_trace_swings_load_across_the_day() {
        let scenario = FleetScenario::diurnal(5); // 120 s compressed day
        let report = run_fleet(RoutingPolicy::BatteryAware, &scenario);
        assert_eq!(report.scenario, "fleet-diurnal-24h");
        assert!(report.arrivals > 0);
        // midday windows must carry more fleet traffic than the midnight edge
        let window_total = |t: u32| -> u64 {
            report
                .devices
                .iter()
                .flat_map(|d| &d.windows)
                .filter(|w| w.t_s == t)
                .map(|w| w.arrivals)
                .sum()
        };
        let trough: u64 = (0..5).map(window_total).sum();
        let peak: u64 = (58..63).map(window_total).sum();
        assert!(
            peak > trough,
            "noon traffic ({peak}) must exceed midnight traffic ({trough})"
        );
    }

    #[test]
    fn charge_while_serving_recovers_state_of_charge() {
        let (model, masks, space, outcome, config) = offline_artifacts();
        let serve = ServeConfig {
            battery_capacity_j: 25.0,
            real_inference: false,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&model, masks, &space, &outcome, config, serve);
        let report = engine.run(&Scenario::ChargeWhileServing {
            duration_s: 40,
            rps: 3.0,
            background_w: 0.2,
            charge_from_s: 20,
            charge_w: 3.0,
        });
        let soc_at = |t: u32| {
            report
                .windows
                .iter()
                .find(|w| w.t_s == t)
                .map(|w| w.state_of_charge)
                .expect("window exists")
        };
        assert!(
            soc_at(19) < soc_at(39),
            "charging must raise the state of charge"
        );
        assert!(report.died_at_s.is_none());
    }
}
