//! Acceptance test for the `Full` telemetry level: a fleet run over the
//! heterogeneous-cliff trace must export JSONL from which an external
//! consumer — here, this test parsing the text lines — can reconstruct
//! every controller level switch and every deadline miss, the latter with
//! its queue/infer latency breakdown. This pins the JSONL schema of
//! DESIGN.md §9: if a field is renamed or dropped, the reconstruction
//! fails.

use rt3_core::{
    build_search_space, run_level1, run_level2_search, Rt3Config, SurrogateEvaluator, TaskProfile,
};
use rt3_runtime::{
    Fleet, FleetConfig, FleetReport, FleetScenario, Scenario, SchedulerConfig, ServeConfig,
    ServeEngine, ServeReport, TelemetryConfig, TelemetryLevel,
};
use rt3_transformer::{TransformerConfig, TransformerLm};

/// Plays the heterogeneous-cliff trace at `Full` telemetry with a single
/// slow worker per device (seq_len raised to 256 so service times are
/// milliseconds, not microseconds) and a deadline budget tight enough
/// that greedy micro-batching pushes some admitted requests past their
/// deadline: admission replays the backlog it can see, so the only
/// remaining miss source is a batch growing *after* admission — requests
/// that arrive later in the window and ride the same batch stretch its
/// service time beyond the admit-time estimate. The trace therefore
/// contains genuine misses without any backlog-blind optimism.
fn run_cliff_fleet() -> (FleetReport, FleetScenario) {
    let model = TransformerLm::new(TransformerConfig::tiny(32), 13);
    let mut config = Rt3Config::tiny_test();
    config.seq_len = 256;
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
    let backbone = run_level1(&model, &config, &mut evaluator);
    let space = build_search_space(&model, &backbone, &config);
    let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);

    let scenario = FleetScenario::heterogeneous_cliff();
    let fleet_cfg = FleetConfig {
        real_inference: false,
        deadline_budget_ms: 16.0,
        scheduler: SchedulerConfig {
            workers: 1,
            max_batch: 16,
            ..SchedulerConfig::default()
        },
        telemetry: TelemetryConfig::full(),
        ..FleetConfig::default()
    };
    let fleet = Fleet::new(
        &model,
        backbone.masks,
        &space,
        &outcome,
        &config,
        &scenario,
        fleet_cfg,
    );
    (fleet.run(), scenario)
}

/// Pulls `"key":value` out of a JSONL line (numbers/bools only).
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .find([',', '}'])
        .expect("JSON value is followed by , or }");
    Some(&rest[..end])
}

#[test]
fn full_telemetry_jsonl_reconstructs_switches_and_misses() {
    let (report, scenario) = run_cliff_fleet();

    // a run worth auditing: traffic was served, at least one device stepped
    // its level down as the cliff drained it, and the batching pressure
    // produced real deadline misses — without them the breakdown checks
    // below would be vacuous
    assert!(report.completed() > 0);
    assert!(report.total_switches() > 0);
    assert!(
        report.missed_deadline() > 0,
        "the acceptance scenario must exercise the miss path"
    );

    let mut switch_lines = 0u64;
    let mut miss_lines = 0u64;
    let mut complete_lines = 0u64;
    for (device, profile) in report.devices.iter().zip(&scenario.devices) {
        let snapshot = device
            .telemetry
            .as_ref()
            .expect("Full level must attach a snapshot to every device");
        assert_eq!(snapshot.level, TelemetryLevel::Full);
        assert_eq!(
            snapshot.trace_overwritten, 0,
            "the default ring must hold this trace in full"
        );
        let jsonl = snapshot.to_jsonl(&[("device", &profile.name)]);
        for line in jsonl.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "every line must be a JSON object: {line}"
            );
            assert!(line.contains(&format!("\"device\":\"{}\"", profile.name)));
            if line.contains("\"type\":\"decision\"")
                && json_field(line, "switched") == Some("true")
            {
                switch_lines += 1;
            }
            if line.contains("\"event\":\"complete\"") {
                complete_lines += 1;
                if json_field(line, "met_deadline") == Some("false") {
                    miss_lines += 1;
                    // the breakdown an SLO dashboard needs: where the
                    // missed request spent its time
                    let queue_ms: f64 = json_field(line, "queue_ms")
                        .expect("complete carries queue_ms")
                        .parse()
                        .expect("queue_ms is a number");
                    let infer_ms: f64 = json_field(line, "infer_ms")
                        .expect("complete carries infer_ms")
                        .parse()
                        .expect("infer_ms is a number");
                    assert!(queue_ms >= 0.0 && infer_ms > 0.0);
                }
            }
        }
    }

    assert_eq!(
        switch_lines,
        report.total_switches(),
        "every counted level switch must be reconstructible from decision lines"
    );
    assert_eq!(
        complete_lines,
        report.completed(),
        "one complete event per served request"
    );
    assert_eq!(
        miss_lines,
        report.missed_deadline(),
        "every deadline miss must be reconstructible from complete lines"
    );

    // the router's own snapshot accounts for every arrival
    let router = report
        .telemetry
        .as_ref()
        .expect("fleet report carries the router snapshot");
    let routed: u64 = scenario
        .devices
        .iter()
        .filter_map(|p| router.metrics.counter(&format!("routed_to:{}", p.name)))
        .sum();
    assert_eq!(
        router.metrics.counter("router_arrivals"),
        Some(report.arrivals)
    );
    assert_eq!(
        routed + router.metrics.counter("router_unroutable").unwrap_or(0),
        report.arrivals
    );
}

#[test]
fn span_forest_attributes_every_miss_and_reconciles_with_histograms() {
    let (report, scenario) = run_cliff_fleet();
    assert!(
        report.missed_deadline() > 0,
        "the scenario must produce misses for the attribution to bite"
    );

    let mut merged = rt3_telemetry::SpanForest::default();
    for (device, profile) in report.devices.iter().zip(&scenario.devices) {
        let snapshot = device.telemetry.as_ref().expect("Full snapshot");
        let forest = snapshot.spans();

        // one request span per served request, reconciling with the
        // recorded per-request histograms down to summation order
        assert_eq!(forest.requests.len() as u64, device.completed);
        let queue_hist = snapshot
            .metrics
            .histogram("queue_wait_ms")
            .expect("queue_wait_ms histogram");
        let infer_hist = snapshot
            .metrics
            .histogram("infer_ms")
            .expect("infer_ms histogram");
        let span_queue: f64 = forest.requests.iter().map(|r| r.queue_ms()).sum();
        let span_infer: f64 = forest.requests.iter().map(|r| r.infer_ms()).sum();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(1.0);
        assert!(
            close(span_queue, queue_hist.sum()),
            "span queue total {span_queue} vs histogram {} on {}",
            queue_hist.sum(),
            profile.name
        );
        assert!(
            close(span_infer, infer_hist.sum()),
            "span infer total {span_infer} vs histogram {} on {}",
            infer_hist.sum(),
            profile.name
        );

        // every switch the engine counted appears as a switch span
        assert_eq!(forest.switches.len() as u64, device.switches);

        // 100% of this device's misses attribute to exactly one segment
        let attribution = forest.miss_attribution();
        assert_eq!(
            attribution.total(),
            device.missed_deadline,
            "every miss on {} is attributed to a dominant segment",
            profile.name
        );
        merged.merge(&forest);
    }

    // fleet-level merge preserves the attribution totals exactly
    let fleet_attribution = merged.miss_attribution();
    assert_eq!(fleet_attribution.total(), report.missed_deadline());
    assert_eq!(
        merged.requests.len() as u64,
        report.completed(),
        "merged forest holds every served request across devices"
    );

    // arrivals are sorted after the merge, so downstream consumers can
    // stream the fleet-wide timeline without re-sorting
    assert!(merged
        .requests
        .windows(2)
        .all(|w| w[0].arrival_ms <= w[1].arrival_ms));
}

/// A single-device engine that dies under overload, at `Counters`: one
/// worker (seq_len raised to 512, so a request takes tens of milliseconds)
/// behind a 64-deep queue and a generous deadline, so the device holds
/// queued requests when the cliff empties its battery.
fn run_dying_engine() -> ServeReport {
    let model = TransformerLm::new(TransformerConfig::tiny(32), 13);
    let mut config = Rt3Config::tiny_test();
    config.seq_len = 512;
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
    let backbone = run_level1(&model, &config, &mut evaluator);
    let space = build_search_space(&model, &backbone, &config);
    let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
    let serve = ServeConfig {
        battery_capacity_j: 20.0,
        deadline_budget_ms: 5_000.0,
        scheduler: SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        },
        real_inference: false,
        telemetry: TelemetryConfig::counters(),
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(&model, backbone.masks, &space, &outcome, config, serve);
    engine.run(&Scenario::CliffDischarge {
        duration_s: 60,
        rps: 200.0,
        background_w: 0.2,
        cliff_at_s: 25,
        cliff_drop: 0.6,
    })
}

/// Every device's counters reconcile with its report. The dead-window rule:
/// `requests_dropped_dead` counts the requests a device held when its
/// battery died, and `dropped_dead_battery` adds the arrivals of its dead
/// windows. A fleet never routes to a dead device, so there the two are
/// equal; the engine plays a one-device fleet, so its dead windows'
/// arrivals are the router's unroutable ones, less the rejections, and its
/// snapshot carries `router_unroutable` to reconcile on its own.
#[test]
fn device_counters_reconcile_with_the_report() {
    let (fleet, _) = run_cliff_fleet();
    let engine = run_dying_engine();
    let dead_window_arrivals = |device: &ServeReport| -> u64 {
        device
            .windows
            .iter()
            .filter(|w| w.level_pos.is_none())
            .map(|w| w.arrivals)
            .sum()
    };
    let snapshot = engine.telemetry.as_ref().expect("Counters snapshot");
    assert_eq!(snapshot.level, TelemetryLevel::Counters);
    let metrics = &snapshot.metrics;
    assert!(engine.died_at_s.is_some(), "the engine's device must die");
    assert!(
        dead_window_arrivals(&engine) > 0 && metrics.counter("requests_dropped_dead") > Some(0),
        "the death must drop both held requests and dead-window arrivals"
    );
    let counter = |name: &str| {
        metrics
            .counter(name)
            .unwrap_or_else(|| panic!("the engine's snapshot has no `{name}` counter"))
    };
    assert_eq!(
        counter("requests_dropped_dead") + counter("router_unroutable")
            - counter("requests_rejected_queue_full")
            - counter("requests_rejected_certain_miss"),
        engine.dropped_dead_battery,
        "the snapshot alone reconciles the dead-battery drops"
    );
    for device in fleet.devices.iter().chain([&engine]) {
        let metrics = &device
            .telemetry
            .as_ref()
            .expect("telemetry snapshot")
            .metrics;
        assert_eq!(
            metrics.counter("requests_completed"),
            Some(device.completed)
        );
        assert_eq!(
            metrics.counter("deadline_missed"),
            Some(device.missed_deadline)
        );
        assert_eq!(metrics.counter("switches"), Some(device.switches));
        assert_eq!(
            metrics
                .counter("requests_dropped_dead")
                .map(|held| held + dead_window_arrivals(device)),
            Some(device.dropped_dead_battery)
        );
        assert_eq!(
            metrics.counter("requests_dropped_trace_end"),
            Some(device.dropped_at_trace_end)
        );
        let latency = metrics.histogram("latency_ms").expect("latency histogram");
        assert_eq!(latency.count(), device.completed);
    }
}
