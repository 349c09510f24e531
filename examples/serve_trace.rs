//! Online serving scenario: play a bursty-traffic trace against the RT3
//! runtime — offline search first (Level 1 + Level 2), then the battery-aware
//! serving engine switches pattern sets as the battery drains, while a
//! fixed-level baseline burns through the same battery without
//! reconfiguration.
//!
//! Environment knobs (shared `rt3::env::parsed` helper, as in
//! `search_comparison`):
//!
//! * `RT3_SEED` — traffic seed (default the `ServeConfig` default);
//! * `RT3_SCENARIO` — `bursty` (default), `constant`, `cliff`, `charge` or
//!   `thermal`, each the canned 60 s variant;
//! * `RT3_BATTERY_J` — battery capacity in joules (default 29);
//! * `RT3_TELEMETRY` — `jsonl:<path>`: record the runs at the `Full`
//!   telemetry level and dump the adaptive run's metrics, request trace and
//!   controller decision audit to `<path>` as JSONL.
//!
//! The pass/fail assertions only run in the default configuration — with
//! overrides the example is exploratory.
//!
//! Run with `cargo run --example serve_trace`.

use rt3::core::{
    build_search_space, run_level1, run_level2_search, Rt3Config, SurrogateEvaluator, TaskProfile,
};
use rt3::runtime::{
    RuntimePolicy, Scenario, ServeConfig, ServeEngine, ServeReport, TelemetryConfig,
};
use rt3::transformer::{TransformerConfig, TransformerLm};

/// Compact per-window level timeline, e.g. `l6 ×34 → l4 ×21 → l3 ×35`.
fn timeline(report: &ServeReport, config: &Rt3Config) -> String {
    let mut spans: Vec<(String, u32)> = Vec::new();
    for w in &report.windows {
        let label = match w.level_pos {
            Some(p) => format!("l{}", config.governor.levels()[p].index),
            None => "DEAD".to_string(),
        };
        match spans.last_mut() {
            Some((last, n)) if *last == label => *n += 1,
            _ => spans.push((label, 1)),
        }
    }
    spans
        .into_iter()
        .map(|(l, n)| format!("{l} ×{n}"))
        .collect::<Vec<_>>()
        .join(" → ")
}

/// The canned scenario selected by `RT3_SCENARIO`.
fn scenario_of(name: &str) -> Scenario {
    match name {
        "bursty" => Scenario::default_bursty(),
        "constant" => Scenario::ConstantDrain {
            duration_s: 60,
            rps: 4.0,
            background_w: 0.2,
        },
        "cliff" => Scenario::CliffDischarge {
            duration_s: 60,
            rps: 4.0,
            background_w: 0.2,
            cliff_at_s: 25,
            cliff_drop: 0.6,
        },
        "charge" => Scenario::ChargeWhileServing {
            duration_s: 60,
            rps: 4.0,
            background_w: 0.2,
            charge_from_s: 30,
            charge_w: 2.0,
        },
        "thermal" => Scenario::ThermalCap {
            duration_s: 60,
            rps: 4.0,
            background_w: 0.2,
            cap_from_s: 10,
            cap_until_s: 45,
            cap_level_pos: 0,
        },
        other => panic!("RT3_SCENARIO={other:?} (expected bursty|constant|cliff|charge|thermal)"),
    }
}

fn main() {
    let seed = rt3::env::parsed("RT3_SEED", ServeConfig::default().seed);
    let scenario_name: String = rt3::env::parsed("RT3_SCENARIO", "bursty".to_string());
    let battery_j = rt3::env::parsed("RT3_BATTERY_J", 29.0);
    let sink = rt3::env::jsonl_sink();
    let default_run =
        seed == ServeConfig::default().seed && scenario_name == "bursty" && battery_j == 29.0;

    // ---- offline: the two-level RT3 search ------------------------------
    let mut config = Rt3Config::wikitext_default();
    config.timing_constraint_ms = 115.0;
    config.episodes = 20;
    let model = TransformerLm::new(TransformerConfig::paper_transformer(512), 7);
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
    println!("offline search: Level 1 (block pruning) + Level 2 (pattern sets per V/F level)...");
    let backbone = run_level1(&model, &config, &mut evaluator);
    let space = build_search_space(&model, &backbone, &config);
    let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
    let best = outcome
        .best
        .clone()
        .expect("search found a feasible solution");
    println!(
        "  backbone sparsity {:.0}%, best solution: sparsities {:?} latencies {:?} ms",
        100.0 * backbone.sparsity,
        best.sparsities
            .iter()
            .map(|s| (s * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        best.latencies_ms
            .iter()
            .map(|l| l.round())
            .collect::<Vec<_>>(),
    );

    // ---- online: the selected trace (>= 60 s bursty by default) ----------
    let scenario = scenario_of(&scenario_name);
    println!(
        "\nscenario: {} ({} s, timing constraint {} ms, deadline budget 400 ms, seed {seed:#x})",
        scenario.name(),
        scenario.duration_s(),
        config.timing_constraint_ms
    );

    let serve = |policy: RuntimePolicy| -> ServeReport {
        let serve_config = ServeConfig {
            battery_capacity_j: battery_j,
            deadline_budget_ms: 400.0,
            policy,
            seed,
            // with a JSONL sink the runs also record the trace + audit; the
            // serving behaviour itself is identical either way
            telemetry: if sink.is_some() {
                TelemetryConfig::full()
            } else {
                TelemetryConfig::default()
            },
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(
            &model,
            backbone.masks.clone(),
            &space,
            &outcome,
            config.clone(),
            serve_config,
        );
        engine.run(&scenario)
    };

    let adaptive = serve(RuntimePolicy::Adaptive);
    let top = config.governor.levels().len() - 1;
    let fixed_top = serve(RuntimePolicy::FixedLevel(top));
    let fixed_low = serve(RuntimePolicy::FixedLevel(0));

    println!(
        "\nper-window level choices (adaptive): {}",
        timeline(&adaptive, &config)
    );
    println!(
        "per-window level choices (fixed-l6): {}",
        timeline(&fixed_top, &config)
    );

    println!(
        "\npolicy      served  miss-rate  p50      p95      vs T     switches  energy  outcome"
    );
    for report in [&adaptive, &fixed_top, &fixed_low] {
        println!(
            "{:<11} {:>5}   {:>6.2}%   {:>6.1}  {:>6.1}  {:>6}  {:>8}  {:>5.1} J  {}",
            report.policy,
            report.completed,
            100.0 * report.miss_rate(),
            report.p50_ms(),
            report.p95_ms(),
            if report.p95_ms() <= config.timing_constraint_ms {
                "OK"
            } else {
                "MISS"
            },
            report.switches,
            report.total_energy_j(),
            match report.died_at_s {
                Some(t) => format!("battery died at {t} s"),
                None => format!(
                    "survived at {:.0}% charge",
                    100.0 * report.final_state_of_charge
                ),
            }
        );
    }

    println!(
        "\nadaptive deadline-miss rate: {:.2}% (target < 5%)",
        100.0 * adaptive.miss_rate()
    );
    println!(
        "fixed-l{} baseline miss rate: {:.2}% ({:+.2} points worse than adaptive)",
        config.governor.levels()[top].index,
        100.0 * fixed_top.miss_rate(),
        100.0 * (fixed_top.miss_rate() - adaptive.miss_rate())
    );
    println!(
        "real sparse inference: {} micro-batches executed on the worker pool (checksum {:.3})",
        adaptive.real_batches, adaptive.inference_checksum
    );
    if let Some(path) = &sink {
        let snapshot = adaptive
            .telemetry
            .as_ref()
            .expect("Full telemetry attaches a snapshot to the report");
        let jsonl = snapshot.to_jsonl(&[("run", "adaptive"), ("scenario", scenario.name())]);
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
        adaptive.miss_rate() < 0.05,
        "adaptive reconfiguration must keep the deadline-miss rate under 5%"
    );
    assert!(
        fixed_top.miss_rate() > adaptive.miss_rate(),
        "the fixed-level baseline must be worse than adaptive reconfiguration"
    );
}
