//! Golden regression suite: each of the six single-device scenarios is
//! played with a fixed seed and its [`ServeReport`] aggregates are pinned
//! against checked-in expected values, so a refactor of the engine, the
//! scheduler or the controller cannot silently change serving behaviour.
//! The fleet paths are pinned the same way: the heterogeneous cliff fleet
//! under every routing policy, and the four named chaos scenarios under
//! predictive and round-robin routing, down to every device's report, the
//! router's unroutable count and every client counter.
//!
//! The values depend only on deterministic simulation (the vendored
//! splitmix64 `StdRng` and IEEE-754 arithmetic), so they are stable across
//! machines. If an *intentional* behaviour change moves them, re-run with
//! `GOLDEN_PRINT=1` (`GOLDEN_PRINT=1 cargo test -p rt3-runtime --test
//! golden_scenarios -- --nocapture`) and update the table — in the same
//! change that explains why.

use rt3_core::{
    build_search_space, run_level1, run_level2_search, Rt3Config, SearchOutcome,
    SurrogateEvaluator, TaskProfile,
};
use rt3_pruning::PatternSpace;
use rt3_runtime::{
    ChaosScenario, ClientReport, Fleet, FleetConfig, FleetReport, FleetScenario, RoutingPolicy,
    Scenario, SchedulerConfig, ServeConfig, ServeEngine, ServeReport,
};
use rt3_transformer::{MaskSet, TransformerConfig, TransformerLm};
use std::fmt::Debug;
use std::sync::OnceLock;

/// The pinned aggregates of one scenario run.
///
/// The latency percentiles are the *bucket uppers* of the streaming
/// log-bucketed histogram (base-2, 32 sub-buckets, ≈3.1% relative error),
/// not exact nearest-rank values: the report computes them from the merged
/// histogram, so they are deterministic and pinnable exactly, but an update
/// that moves one by a single bucket (one ≈3.1% step) is within the
/// documented quantisation, not a behaviour change.
#[derive(Debug, PartialEq)]
struct Golden {
    scenario: &'static str,
    arrivals: u64,
    completed: u64,
    missed_deadline: u64,
    rejected: u64,
    dropped_dead_battery: u64,
    dropped_at_trace_end: u64,
    switches: u64,
    died_at_s: Option<u32>,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// Every scenario, fleet and device name a pinned report may carry; fleet
/// device reports carry their device name as the scenario.
const PINNED_NAMES: &[&str] = &[
    "constant-drain",
    "bursty-traffic",
    "cliff-discharge",
    "charge-while-serving",
    "thermal-cap",
    "fleet-cliff-discharge",
    "d0-cliff",
    "d1-low",
    "d2-charging",
    "d3-throttled",
    "chaos-retry-storm",
    "chaos-flash-crowd",
    "chaos-thermal-wave",
    "chaos-charge-cycle",
    "d0",
    "d1",
    "d2",
    "d3",
];

fn pinned_name(name: &str) -> &'static str {
    PINNED_NAMES
        .iter()
        .copied()
        .find(|&pinned| pinned == name)
        .unwrap_or_else(|| panic!("unexpected scenario {name}"))
}

impl Golden {
    fn of(report: &ServeReport) -> Self {
        Self {
            scenario: pinned_name(&report.scenario),
            arrivals: report.arrivals,
            completed: report.completed,
            missed_deadline: report.missed_deadline,
            rejected: report.rejected,
            dropped_dead_battery: report.dropped_dead_battery,
            dropped_at_trace_end: report.dropped_at_trace_end,
            switches: report.switches,
            died_at_s: report.died_at_s,
            p50_ms: report.p50_ms(),
            p95_ms: report.p95_ms(),
            p99_ms: report.p99_ms(),
        }
    }
}

/// The pinned outcome of one fleet run: the router's counts, every
/// device's [`Golden`] and, for a chaos run, every client counter.
#[derive(Debug, PartialEq)]
struct FleetGolden {
    scenario: &'static str,
    routing: &'static str,
    arrivals: u64,
    unroutable: u64,
    devices: Vec<Golden>,
    clients: Option<ClientReport>,
}

impl FleetGolden {
    fn of(report: &FleetReport, policy: RoutingPolicy, clients: Option<&ClientReport>) -> Self {
        assert_eq!(report.routing, policy.label());
        Self {
            scenario: pinned_name(&report.scenario),
            routing: policy.label(),
            arrivals: report.arrivals,
            unroutable: report.unroutable,
            devices: report.devices.iter().map(Golden::of).collect(),
            clients: clients.cloned(),
        }
    }
}

type Artifacts = (
    TransformerLm,
    MaskSet,
    PatternSpace,
    SearchOutcome,
    Rt3Config,
);

/// The offline pipeline, built once and shared by every test here.
fn offline_artifacts() -> &'static Artifacts {
    static CELL: OnceLock<Artifacts> = OnceLock::new();
    CELL.get_or_init(|| {
        let model = TransformerLm::new(TransformerConfig::tiny(32), 13);
        let config = Rt3Config::tiny_test();
        let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
        let backbone = run_level1(&model, &config, &mut evaluator);
        let space = build_search_space(&model, &backbone, &config);
        let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
        (model, backbone.masks, space, outcome, config)
    })
}

/// Prints `actual` under `GOLDEN_PRINT` (for re-capture), otherwise
/// asserts it equals `expected` entry by entry.
fn check_goldens<T: Debug + PartialEq>(actual: &[T], expected: &[T]) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for golden in actual {
            println!("{golden:#?},");
        }
        return;
    }
    assert_eq!(actual.len(), expected.len(), "one golden per run");
    for (actual, expected) in actual.iter().zip(expected) {
        assert_eq!(
            actual, expected,
            "a run drifted from its golden aggregates — if the change is \
             intentional, re-capture with GOLDEN_PRINT=1"
        );
    }
}

/// The six fixed traces of the regression suite; every parameter is pinned
/// on purpose — do not "tidy" them.
fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::ConstantDrain {
            duration_s: 60,
            rps: 4.0,
            background_w: 0.2,
        },
        Scenario::default_bursty(),
        Scenario::CliffDischarge {
            duration_s: 60,
            rps: 4.0,
            background_w: 0.2,
            cliff_at_s: 25,
            cliff_drop: 0.6,
        },
        Scenario::ChargeWhileServing {
            duration_s: 60,
            rps: 4.0,
            background_w: 0.2,
            charge_from_s: 30,
            charge_w: 2.0,
        },
        Scenario::ThermalCap {
            duration_s: 60,
            rps: 4.0,
            background_w: 0.2,
            cap_from_s: 10,
            cap_until_s: 45,
            cap_level_pos: 0,
        },
        // overload: 200 arrivals per window against a 64-deep queue, so
        // queue-full rejections and dead-window arrivals both count; its
        // golden was captured while the engine still ran its own window
        // loop. Its rejections come from admitting a whole window's
        // arrivals before the window dispatches anything; admitting at the
        // arrival instant (ROADMAP item 13) re-pins this case by design
        Scenario::CliffDischarge {
            duration_s: 60,
            rps: 200.0,
            background_w: 0.2,
            cliff_at_s: 25,
            cliff_drop: 0.6,
        },
    ]
}

/// Expected aggregates, in `scenarios()` order. Captured from the seed
/// behaviour of the engine (PR 1) via `GOLDEN_PRINT=1`; the latency
/// percentiles were captured when the reports moved to the shared streaming
/// histogram (values are bucket uppers clamped to the observed max, hence
/// the near-identical-but-distinct p50s across scenarios).
fn expected() -> Vec<Golden> {
    vec![
        Golden {
            scenario: "constant-drain",
            arrivals: 240,
            completed: 240,
            missed_deadline: 0,
            rejected: 0,
            dropped_dead_battery: 0,
            dropped_at_trace_end: 0,
            switches: 1,
            died_at_s: None,
            p50_ms: 0.22265625,
            p95_ms: 0.32097733399132267,
            p99_ms: 0.32097733399132267,
        },
        Golden {
            scenario: "bursty-traffic",
            arrivals: 3600,
            completed: 3600,
            missed_deadline: 0,
            rejected: 0,
            dropped_dead_battery: 0,
            dropped_at_trace_end: 0,
            switches: 0,
            died_at_s: None,
            p50_ms: 0.22245718238991685,
            p95_ms: 0.22245718238991685,
            p99_ms: 0.22245718238991685,
        },
        Golden {
            scenario: "cliff-discharge",
            arrivals: 240,
            completed: 160,
            missed_deadline: 0,
            rejected: 0,
            dropped_dead_battery: 80,
            dropped_at_trace_end: 0,
            switches: 1,
            died_at_s: Some(40),
            p50_ms: 0.22265625,
            p95_ms: 0.38930006917144055,
            p99_ms: 0.38930006917144055,
        },
        Golden {
            scenario: "charge-while-serving",
            arrivals: 240,
            completed: 240,
            missed_deadline: 0,
            rejected: 0,
            dropped_dead_battery: 0,
            dropped_at_trace_end: 0,
            switches: 0,
            died_at_s: None,
            p50_ms: 0.22245718238286827,
            p95_ms: 0.22245718238286827,
            p99_ms: 0.22245718238286827,
        },
        Golden {
            scenario: "thermal-cap",
            arrivals: 240,
            completed: 240,
            missed_deadline: 0,
            rejected: 0,
            dropped_dead_battery: 0,
            dropped_at_trace_end: 0,
            switches: 3,
            died_at_s: None,
            p50_ms: 0.38930006917144055,
            p95_ms: 0.38930006917144055,
            p99_ms: 0.38930006917144055,
        },
        Golden {
            scenario: "cliff-discharge",
            arrivals: 12000,
            completed: 2560,
            missed_deadline: 0,
            rejected: 5440,
            dropped_dead_battery: 4000,
            dropped_at_trace_end: 0,
            switches: 1,
            died_at_s: Some(40),
            p50_ms: 0.22265625,
            p95_ms: 0.38930006917144055,
            p99_ms: 0.38930006917144055,
        },
    ]
}

#[test]
fn five_scenarios_match_their_golden_aggregates() {
    let (model, masks, space, outcome, config) = offline_artifacts();
    let mut actual = Vec::new();
    for scenario in scenarios() {
        let serve = ServeConfig {
            battery_capacity_j: 20.0,
            real_inference: false,
            ..ServeConfig::default()
        };
        let mut engine =
            ServeEngine::new(model, masks.clone(), space, outcome, config.clone(), serve);
        let report = engine.run(&scenario);
        actual.push(Golden::of(&report));
    }
    check_goldens(&actual, &expected());
}

const ALL_POLICIES: [RoutingPolicy; 4] = [
    RoutingPolicy::BatteryAware,
    RoutingPolicy::Predictive,
    RoutingPolicy::RoundRobin,
    RoutingPolicy::Sticky,
];

/// The open-loop fleet: the heterogeneous cliff trace under every routing
/// policy, with the serving knobs of `examples/serve_fleet.rs` and the
/// default fleet seed.
#[test]
fn fleet_runs_match_their_golden_aggregates() {
    let (model, masks, space, outcome, config) = offline_artifacts();
    let scenario = FleetScenario::heterogeneous_cliff();
    let actual: Vec<FleetGolden> = ALL_POLICIES
        .into_iter()
        .map(|policy| {
            let fleet_config = FleetConfig {
                routing: policy,
                deadline_budget_ms: 250.0,
                scheduler: SchedulerConfig {
                    queue_capacity: 64,
                    max_batch: 4,
                    workers: 2,
                },
                real_inference: false,
                ..FleetConfig::default()
            };
            let fleet = Fleet::new(
                model,
                masks.clone(),
                space,
                outcome,
                config,
                &scenario,
                fleet_config,
            );
            FleetGolden::of(&fleet.run(), policy, None)
        })
        .collect();
    check_goldens(&actual, &expected_fleet());
}

/// The closed-loop fleet: the four named chaos scenarios under predictive
/// and round-robin routing, with the chaos benchmark's serving knobs and
/// its default seed.
#[test]
fn chaos_runs_match_their_golden_aggregates() {
    let (model, masks, space, outcome, config) = offline_artifacts();
    let mut actual = Vec::new();
    for chaos in [
        ChaosScenario::retry_storm(),
        ChaosScenario::flash_crowd(),
        ChaosScenario::thermal_wave(),
        ChaosScenario::charge_cycle(),
    ] {
        for policy in [RoutingPolicy::Predictive, RoutingPolicy::RoundRobin] {
            let fleet = Fleet::new(
                model,
                masks.clone(),
                space,
                outcome,
                config,
                &chaos.fleet_scenario(),
                ChaosScenario::storm_fleet_config(policy, 42),
            );
            let report = fleet.run_chaos(&chaos);
            actual.push(FleetGolden::of(
                &report.fleet,
                policy,
                Some(&report.clients),
            ));
        }
    }
    check_goldens(&actual, &expected_chaos());
}

/// Expected fleet outcomes, in `ALL_POLICIES` order.
fn expected_fleet() -> Vec<FleetGolden> {
    vec![
        FleetGolden {
            scenario: "fleet-cliff-discharge",
            routing: "battery-aware",
            arrivals: 10800,
            unroutable: 0,
            devices: vec![
                Golden {
                    scenario: "d0-cliff",
                    arrivals: 997,
                    completed: 997,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 1,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                Golden {
                    scenario: "d1-low",
                    arrivals: 0,
                    completed: 0,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.0,
                    p95_ms: 0.0,
                    p99_ms: 0.0,
                },
                Golden {
                    scenario: "d2-charging",
                    arrivals: 6049,
                    completed: 6049,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.22265625,
                    p99_ms: 0.22265625,
                },
                Golden {
                    scenario: "d3-throttled",
                    arrivals: 3754,
                    completed: 3754,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917507853,
                    p99_ms: 0.38930006917507853,
                },
            ],
            clients: None,
        },
        FleetGolden {
            scenario: "fleet-cliff-discharge",
            routing: "predictive",
            arrivals: 10800,
            unroutable: 0,
            devices: vec![
                Golden {
                    scenario: "d0-cliff",
                    arrivals: 2380,
                    completed: 2380,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 1,
                    died_at_s: None,
                    p50_ms: 0.32097733399132267,
                    p95_ms: 0.32097733399132267,
                    p99_ms: 0.32097733399132267,
                },
                Golden {
                    scenario: "d1-low",
                    arrivals: 2470,
                    completed: 2470,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.32097733399223216,
                    p95_ms: 0.32097733399223216,
                    p99_ms: 0.32097733399223216,
                },
                Golden {
                    scenario: "d2-charging",
                    arrivals: 3280,
                    completed: 3280,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238991685,
                    p95_ms: 0.22245718238991685,
                    p99_ms: 0.22245718238991685,
                },
                Golden {
                    scenario: "d3-throttled",
                    arrivals: 2670,
                    completed: 2670,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917507853,
                    p99_ms: 0.38930006917507853,
                },
            ],
            clients: None,
        },
        FleetGolden {
            scenario: "fleet-cliff-discharge",
            routing: "round-robin",
            arrivals: 10800,
            unroutable: 0,
            devices: vec![
                Golden {
                    scenario: "d0-cliff",
                    arrivals: 2700,
                    completed: 2700,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 1,
                    died_at_s: None,
                    p50_ms: 0.32097733399132267,
                    p95_ms: 0.32097733399132267,
                    p99_ms: 0.32097733399132267,
                },
                Golden {
                    scenario: "d1-low",
                    arrivals: 2700,
                    completed: 2700,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.32097733399223216,
                    p95_ms: 0.32097733399223216,
                    p99_ms: 0.32097733399223216,
                },
                Golden {
                    scenario: "d2-charging",
                    arrivals: 2700,
                    completed: 2700,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238991685,
                    p95_ms: 0.22245718238991685,
                    p99_ms: 0.22245718238991685,
                },
                Golden {
                    scenario: "d3-throttled",
                    arrivals: 2700,
                    completed: 2700,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917507853,
                    p99_ms: 0.38930006917507853,
                },
            ],
            clients: None,
        },
        FleetGolden {
            scenario: "fleet-cliff-discharge",
            routing: "sticky",
            arrivals: 10800,
            unroutable: 0,
            devices: vec![
                Golden {
                    scenario: "d0-cliff",
                    arrivals: 2728,
                    completed: 2728,
                    missed_deadline: 0,
                    rejected: 38,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 1,
                    died_at_s: None,
                    p50_ms: 0.32097733399132267,
                    p95_ms: 0.32097733399132267,
                    p99_ms: 0.32097733399132267,
                },
                Golden {
                    scenario: "d1-low",
                    arrivals: 2736,
                    completed: 2736,
                    missed_deadline: 0,
                    rejected: 38,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.32097733399223216,
                    p95_ms: 0.32097733399223216,
                    p99_ms: 0.32097733399223216,
                },
                Golden {
                    scenario: "d2-charging",
                    arrivals: 2672,
                    completed: 2672,
                    missed_deadline: 0,
                    rejected: 37,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.22265625,
                    p99_ms: 0.22265625,
                },
                Golden {
                    scenario: "d3-throttled",
                    arrivals: 2664,
                    completed: 2664,
                    missed_deadline: 0,
                    rejected: 37,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917507853,
                    p99_ms: 0.38930006917507853,
                },
            ],
            clients: None,
        },
    ]
}

/// Expected chaos outcomes: retry storm, flash crowd, thermal wave and
/// charge cycle, each under predictive then round-robin routing.
fn expected_chaos() -> Vec<FleetGolden> {
    vec![
        FleetGolden {
            scenario: "chaos-retry-storm",
            routing: "predictive",
            arrivals: 6880,
            unroutable: 2400,
            devices: vec![
                Golden {
                    scenario: "d0",
                    arrivals: 600,
                    completed: 600,
                    missed_deadline: 0,
                    rejected: 149,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: Some(25),
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                Golden {
                    scenario: "d1",
                    arrivals: 1700,
                    completed: 1700,
                    missed_deadline: 0,
                    rejected: 2869,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 4.25,
                    p99_ms: 4.716092266520718,
                },
                Golden {
                    scenario: "d2",
                    arrivals: 1686,
                    completed: 1686,
                    missed_deadline: 0,
                    rejected: 2869,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 4.25,
                    p99_ms: 4.716092266520718,
                },
                Golden {
                    scenario: "d3",
                    arrivals: 494,
                    completed: 494,
                    missed_deadline: 0,
                    rejected: 880,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: Some(35),
                    p50_ms: 0.328125,
                    p95_ms: 6.25,
                    p99_ms: 8.253161466389429,
                },
            ],
            clients: Some(ClientReport {
                jobs: 4480,
                suppressed: 0,
                attempts: 6880,
                retries: 2400,
                succeeded: 4480,
                succeeded_late: 0,
                abandoned: 0,
                pending_at_end: 0,
                attempt_completed: 4480,
                attempt_late: 0,
                attempt_rejected: 2400,
                attempt_dropped_dead: 0,
                attempt_outstanding: 0,
            }),
        },
        FleetGolden {
            scenario: "chaos-retry-storm",
            routing: "round-robin",
            arrivals: 7901,
            unroutable: 3679,
            devices: vec![
                Golden {
                    scenario: "d0",
                    arrivals: 490,
                    completed: 490,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: Some(25),
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                Golden {
                    scenario: "d1",
                    arrivals: 1610,
                    completed: 1610,
                    missed_deadline: 0,
                    rejected: 4232,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.59375,
                    p95_ms: 4.716092266520718,
                    p99_ms: 4.716092266520718,
                },
                Golden {
                    scenario: "d2",
                    arrivals: 1600,
                    completed: 1600,
                    missed_deadline: 0,
                    rejected: 3687,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 4.716092266520718,
                    p99_ms: 4.716092266520718,
                },
                Golden {
                    scenario: "d3",
                    arrivals: 522,
                    completed: 522,
                    missed_deadline: 0,
                    rejected: 16,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: Some(26),
                    p50_ms: 0.328125,
                    p95_ms: 0.38930006917144055,
                    p99_ms: 0.38930006917144055,
                },
            ],
            clients: Some(ClientReport {
                jobs: 4227,
                suppressed: 253,
                attempts: 7901,
                retries: 3674,
                succeeded: 4222,
                succeeded_late: 0,
                abandoned: 5,
                pending_at_end: 0,
                attempt_completed: 4222,
                attempt_late: 0,
                attempt_rejected: 3679,
                attempt_dropped_dead: 0,
                attempt_outstanding: 0,
            }),
        },
        FleetGolden {
            scenario: "chaos-flash-crowd",
            routing: "predictive",
            arrivals: 2880,
            unroutable: 0,
            devices: vec![
                Golden {
                    scenario: "d0",
                    arrivals: 720,
                    completed: 720,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                Golden {
                    scenario: "d1",
                    arrivals: 720,
                    completed: 720,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                Golden {
                    scenario: "d2",
                    arrivals: 720,
                    completed: 720,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                Golden {
                    scenario: "d3",
                    arrivals: 720,
                    completed: 720,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
            ],
            clients: Some(ClientReport {
                jobs: 2880,
                suppressed: 0,
                attempts: 2880,
                retries: 0,
                succeeded: 2880,
                succeeded_late: 0,
                abandoned: 0,
                pending_at_end: 0,
                attempt_completed: 2880,
                attempt_late: 0,
                attempt_rejected: 0,
                attempt_dropped_dead: 0,
                attempt_outstanding: 0,
            }),
        },
        FleetGolden {
            scenario: "chaos-flash-crowd",
            routing: "round-robin",
            arrivals: 2880,
            unroutable: 0,
            devices: vec![
                Golden {
                    scenario: "d0",
                    arrivals: 720,
                    completed: 720,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                Golden {
                    scenario: "d1",
                    arrivals: 720,
                    completed: 720,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                Golden {
                    scenario: "d2",
                    arrivals: 720,
                    completed: 720,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                Golden {
                    scenario: "d3",
                    arrivals: 720,
                    completed: 720,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
            ],
            clients: Some(ClientReport {
                jobs: 2880,
                suppressed: 0,
                attempts: 2880,
                retries: 0,
                succeeded: 2880,
                succeeded_late: 0,
                abandoned: 0,
                pending_at_end: 0,
                attempt_completed: 2880,
                attempt_late: 0,
                attempt_rejected: 0,
                attempt_dropped_dead: 0,
                attempt_outstanding: 0,
            }),
        },
        FleetGolden {
            scenario: "chaos-thermal-wave",
            routing: "predictive",
            arrivals: 2400,
            unroutable: 0,
            devices: vec![
                Golden {
                    scenario: "d0",
                    arrivals: 608,
                    completed: 608,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917144055,
                    p99_ms: 0.38930006917144055,
                },
                Golden {
                    scenario: "d1",
                    arrivals: 604,
                    completed: 604,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917144055,
                    p99_ms: 0.38930006917144055,
                },
                Golden {
                    scenario: "d2",
                    arrivals: 592,
                    completed: 592,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917144055,
                    p99_ms: 0.38930006917144055,
                },
                Golden {
                    scenario: "d3",
                    arrivals: 596,
                    completed: 596,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.3893000691678026,
                    p99_ms: 0.3893000691678026,
                },
            ],
            clients: Some(ClientReport {
                jobs: 2400,
                suppressed: 0,
                attempts: 2400,
                retries: 0,
                succeeded: 2400,
                succeeded_late: 0,
                abandoned: 0,
                pending_at_end: 0,
                attempt_completed: 2400,
                attempt_late: 0,
                attempt_rejected: 0,
                attempt_dropped_dead: 0,
                attempt_outstanding: 0,
            }),
        },
        FleetGolden {
            scenario: "chaos-thermal-wave",
            routing: "round-robin",
            arrivals: 2400,
            unroutable: 0,
            devices: vec![
                Golden {
                    scenario: "d0",
                    arrivals: 600,
                    completed: 600,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917144055,
                    p99_ms: 0.38930006917144055,
                },
                Golden {
                    scenario: "d1",
                    arrivals: 600,
                    completed: 600,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917144055,
                    p99_ms: 0.38930006917144055,
                },
                Golden {
                    scenario: "d2",
                    arrivals: 600,
                    completed: 600,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917144055,
                    p99_ms: 0.38930006917144055,
                },
                Golden {
                    scenario: "d3",
                    arrivals: 600,
                    completed: 600,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.3893000691678026,
                    p99_ms: 0.3893000691678026,
                },
            ],
            clients: Some(ClientReport {
                jobs: 2400,
                suppressed: 0,
                attempts: 2400,
                retries: 0,
                succeeded: 2400,
                succeeded_late: 0,
                abandoned: 0,
                pending_at_end: 0,
                attempt_completed: 2400,
                attempt_late: 0,
                attempt_rejected: 0,
                attempt_dropped_dead: 0,
                attempt_outstanding: 0,
            }),
        },
        FleetGolden {
            scenario: "chaos-charge-cycle",
            routing: "predictive",
            arrivals: 2400,
            unroutable: 0,
            devices: vec![
                Golden {
                    scenario: "d0",
                    arrivals: 600,
                    completed: 600,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                Golden {
                    scenario: "d1",
                    arrivals: 600,
                    completed: 600,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                Golden {
                    scenario: "d2",
                    arrivals: 600,
                    completed: 600,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                Golden {
                    scenario: "d3",
                    arrivals: 600,
                    completed: 600,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
            ],
            clients: Some(ClientReport {
                jobs: 2400,
                suppressed: 0,
                attempts: 2400,
                retries: 0,
                succeeded: 2400,
                succeeded_late: 0,
                abandoned: 0,
                pending_at_end: 0,
                attempt_completed: 2400,
                attempt_late: 0,
                attempt_rejected: 0,
                attempt_dropped_dead: 0,
                attempt_outstanding: 0,
            }),
        },
        FleetGolden {
            scenario: "chaos-charge-cycle",
            routing: "round-robin",
            arrivals: 2400,
            unroutable: 0,
            devices: vec![
                Golden {
                    scenario: "d0",
                    arrivals: 600,
                    completed: 600,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                Golden {
                    scenario: "d1",
                    arrivals: 600,
                    completed: 600,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                Golden {
                    scenario: "d2",
                    arrivals: 600,
                    completed: 600,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                Golden {
                    scenario: "d3",
                    arrivals: 600,
                    completed: 600,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
            ],
            clients: Some(ClientReport {
                jobs: 2400,
                suppressed: 0,
                attempts: 2400,
                retries: 0,
                succeeded: 2400,
                succeeded_late: 0,
                abandoned: 0,
                pending_at_end: 0,
                attempt_completed: 2400,
                attempt_late: 0,
                attempt_rejected: 0,
                attempt_dropped_dead: 0,
                attempt_outstanding: 0,
            }),
        },
    ]
}
