//! Fleet-scale sharded serving: the offline RT3 search runs once, then a
//! fleet of four simulated devices — heterogeneous initial charge, one on a
//! charger, a staggered thermal cap and a mid-trace battery cliff — serves
//! one arrival stream under four routing policies. Battery-headroom
//! routing must beat both the round-robin and the sticky baseline on
//! deadline-miss rate, and *predictive* routing (time-to-death from each
//! device's EWMA drain rate, via the shared cost layer) must do at least as
//! well as raw headroom: the drain tracker sees that the charging device is
//! effectively bottomless and that a fast-draining full battery is not, and
//! shifts load accordingly.
//!
//! Environment knobs (shared `rt3::env::parsed` helper, as in
//! `search_comparison`):
//!
//! * `RT3_SEED` — fleet traffic seed (default the `FleetConfig` default);
//! * `RT3_SCENARIO` — `cliff` (default) or `diurnal`;
//! * `RT3_SPH` — seconds per simulated hour for the diurnal trace
//!   (default 5);
//! * `RT3_TELEMETRY` — `jsonl:<path>`: record the runs at the `Full`
//!   telemetry level and dump the predictive run's per-device metrics,
//!   request traces, decision audits and router counters to `<path>` as
//!   JSONL (one `"device"` label per line, the router as `"router"`, the
//!   fleet-wide merged aggregate as `"fleet"`).
//!
//! The pass/fail assertions only run in the default configuration — with
//! overrides the example is exploratory.
//!
//! Run with `cargo run --release --example serve_fleet`.

use rt3::core::{
    build_search_space, run_level1, run_level2_search, Rt3Config, SurrogateEvaluator, TaskProfile,
};
use rt3::runtime::{
    Fleet, FleetConfig, FleetReport, FleetScenario, RoutingPolicy, TelemetryConfig,
};
use rt3::transformer::{TransformerConfig, TransformerLm};

fn main() {
    let seed = rt3::env::parsed("RT3_SEED", FleetConfig::default().seed);
    let scenario_name: String = rt3::env::parsed("RT3_SCENARIO", "cliff".to_string());
    let sink = rt3::env::jsonl_sink();
    let default_run = seed == FleetConfig::default().seed && scenario_name == "cliff";

    // ---- offline: the two-level RT3 search (shared by every device) ------
    let mut config = Rt3Config::wikitext_default();
    config.timing_constraint_ms = 115.0;
    config.episodes = 16;
    let model = TransformerLm::new(TransformerConfig::paper_transformer(256), 11);
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
    println!("offline search: Level 1 (block pruning) + Level 2 (pattern sets per V/F level)...");
    let backbone = run_level1(&model, &config, &mut evaluator);
    let space = build_search_space(&model, &backbone, &config);
    let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
    println!(
        "  backbone sparsity {:.0}%, feasible: {}",
        100.0 * backbone.sparsity,
        outcome.best.is_some(),
    );

    // ---- online: the selected fleet trace --------------------------------
    let scenario = match scenario_name.as_str() {
        "cliff" => FleetScenario::heterogeneous_cliff(),
        "diurnal" => FleetScenario::diurnal(rt3::env::parsed("RT3_SPH", 5)),
        other => panic!("RT3_SCENARIO={other:?} (expected cliff|diurnal)"),
    };
    println!(
        "\nscenario: {} ({} devices, {} s, fleet arrivals {} req/s, seed {seed:#x})",
        scenario.name,
        scenario.device_count(),
        scenario.duration_s(),
        scenario.arrivals.rate_at(0),
    );
    for device in &scenario.devices {
        println!(
            "  {:<14} battery {:>4.0} J at {:>3.0}%{}{}{}",
            device.name,
            device.battery_capacity_j,
            100.0 * device.initial_soc,
            match device.cliff {
                Some((at_s, drop)) => format!(", cliff −{:.0}% at {at_s} s", 100.0 * drop),
                None => String::new(),
            },
            if device.charge_w > 0.0 {
                format!(
                    ", charger {:.1} W from {} s",
                    device.charge_w, device.charge_from_s
                )
            } else {
                String::new()
            },
            match device.thermal_cap {
                Some((from_s, until_s, pos)) =>
                    format!(", thermal cap to l-pos {pos} during [{from_s}, {until_s}) s"),
                None => String::new(),
            },
        );
    }

    let serve = |policy: RoutingPolicy| -> FleetReport {
        let fleet_config = FleetConfig {
            routing: policy,
            // two cores per device and a tight deadline: the fleet only has
            // headroom while most devices are alive, so routing that burns a
            // battery down early pays for it in misses later
            deadline_budget_ms: 250.0,
            scheduler: rt3::runtime::SchedulerConfig {
                queue_capacity: 64,
                max_batch: 4,
                workers: 2,
            },
            seed,
            // with a JSONL sink the runs also record traces + audits; the
            // routing behaviour itself is identical either way
            telemetry: if sink.is_some() {
                TelemetryConfig::full()
            } else {
                TelemetryConfig::default()
            },
            ..FleetConfig::default()
        };
        let fleet = Fleet::new(
            &model,
            backbone.masks.clone(),
            &space,
            &outcome,
            &config,
            &scenario,
            fleet_config,
        );
        fleet.run()
    };

    let battery_aware = serve(RoutingPolicy::BatteryAware);
    let predictive = serve(RoutingPolicy::Predictive);
    let round_robin = serve(RoutingPolicy::RoundRobin);
    let sticky = serve(RoutingPolicy::Sticky);

    println!("\nper-device outcome (battery-aware):");
    for line in battery_aware.device_summaries() {
        println!("{line}");
    }
    println!("per-device outcome (predictive):");
    for line in predictive.device_summaries() {
        println!("{line}");
    }
    println!("per-device outcome (round-robin):");
    for line in round_robin.device_summaries() {
        println!("{line}");
    }
    println!("per-device outcome (sticky):");
    for line in sticky.device_summaries() {
        println!("{line}");
    }

    println!("\nrouting        served   miss-rate  p95      switches  energy    imbalance  deaths");
    for report in [&battery_aware, &predictive, &round_robin, &sticky] {
        println!(
            "{:<13} {:>6}   {:>7.2}%  {:>6.1}  {:>8}  {:>6.1} J  {:>8.2}  {:>6}",
            report.routing,
            report.completed(),
            100.0 * report.miss_rate(),
            report.latency_percentile_ms(0.95),
            report.total_switches(),
            report.total_energy_j(),
            report.load_imbalance(),
            report.deaths(),
        );
    }

    println!(
        "\npredictive miss rate {:.2}% vs battery-aware {:.2}% vs round-robin {:.2}% vs sticky {:.2}%",
        100.0 * predictive.miss_rate(),
        100.0 * battery_aware.miss_rate(),
        100.0 * round_robin.miss_rate(),
        100.0 * sticky.miss_rate(),
    );
    println!(
        "real sparse inference (predictive): {} micro-batches across the fleet",
        predictive
            .devices
            .iter()
            .map(|d| d.real_batches)
            .sum::<u64>(),
    );
    if let Some(path) = &sink {
        let mut jsonl = String::new();
        for (device, profile) in predictive.devices.iter().zip(&scenario.devices) {
            let snapshot = device
                .telemetry
                .as_ref()
                .expect("Full telemetry attaches a snapshot to every device");
            jsonl.push_str(&snapshot.to_jsonl(&[("device", &profile.name)]));
        }
        let router = predictive
            .telemetry
            .as_ref()
            .expect("Full telemetry attaches the router snapshot");
        jsonl.push_str(&router.to_jsonl(&[("device", "router")]));
        // the fleet-wide aggregate: counters added, histograms
        // bucket-merged, traces concatenated — one stream a dashboard can
        // consume without re-implementing the merge
        let merged = predictive
            .merged_device_telemetry()
            .expect("every device ran with telemetry");
        jsonl.push_str(&merged.to_jsonl(&[("device", "fleet")]));
        std::fs::write(path, &jsonl).expect("write telemetry JSONL");
        println!(
            "telemetry: {} JSONL lines written to {}",
            jsonl.lines().count(),
            path.display()
        );
    }
    if !default_run {
        println!("(overrides active — skipping the acceptance assertions)");
        return;
    }
    assert!(
        battery_aware.miss_rate() < round_robin.miss_rate(),
        "battery-headroom routing must beat round-robin on deadline-miss rate"
    );
    assert!(
        battery_aware.miss_rate() < sticky.miss_rate(),
        "battery-headroom routing must beat sticky routing on deadline-miss rate"
    );
    assert!(
        predictive.miss_rate() < battery_aware.miss_rate(),
        "predictive (time-to-death) routing must beat raw headroom routing \
         on deadline-miss rate"
    );
    assert!(
        predictive.deaths() <= battery_aware.deaths(),
        "predictive routing must not kill more devices than headroom routing"
    );
}
