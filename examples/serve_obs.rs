//! Observability-plane acceptance run: the heterogeneous-cliff fleet under
//! *round-robin* routing (which burns three batteries down — the failure
//! the obs plane must predict), with every device at the `Full` telemetry
//! level so the per-device [`rt3::telemetry::ObsPlane`] scrapes series and
//! evaluates the default alert rules each governor window.
//!
//! Two gates, both asserted here and re-checked by CI from the emitted
//! `BENCH_obs.json` line:
//!
//! 1. **Alert lead time.** For every device that dies, the `battery_cliff`
//!    burn-rate rule (time-to-death below eight windows, sustained for
//!    two) must have entered `Firing` at least **two governor windows
//!    before the death it predicts** — an operator paging on it has time
//!    to shed load before the battery is gone.
//! 2. **Miss attribution.** Under battery-aware routing (the
//!    `telemetry_trace` fixture configuration: load concentrates on
//!    healthy devices, so greedy micro-batching produces genuine deadline
//!    misses) the cross-layer span forest rebuilt from the request trace
//!    must attribute **100% of deadline misses** to a dominant queue /
//!    switch / infer segment, and the per-device span totals must
//!    reconcile with the recorded latency histograms.
//!
//! `BENCH_QUICK=1` (CI smoke mode) skips the informational predictive
//! comparison run and keeps only the two gated runs.
//!
//! Run with `cargo run --release --example serve_obs`.

use rt3::core::{
    build_search_space, run_level1, run_level2_search, Rt3Config, SurrogateEvaluator, TaskProfile,
};
use rt3::runtime::{
    Fleet, FleetConfig, FleetReport, FleetScenario, RoutingPolicy, SchedulerConfig, TelemetryConfig,
};
use rt3::telemetry::SpanForest;
use rt3::transformer::{TransformerConfig, TransformerLm};

fn main() {
    let quick: u32 = rt3::env::parsed("BENCH_QUICK", 0);

    // ---- offline: a tiny search so service times are milliseconds -------
    let model = TransformerLm::new(TransformerConfig::tiny(32), 13);
    let mut config = Rt3Config::tiny_test();
    config.seq_len = 256;
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
    let backbone = run_level1(&model, &config, &mut evaluator);
    let space = build_search_space(&model, &backbone, &config);
    let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);

    let scenario = FleetScenario::heterogeneous_cliff();
    let serve = |policy: RoutingPolicy| -> FleetReport {
        let fleet_cfg = FleetConfig {
            routing: policy,
            real_inference: false,
            // tight budget: greedy micro-batching produces genuine misses
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
            backbone.masks.clone(),
            &space,
            &outcome,
            &config,
            &scenario,
            fleet_cfg,
        );
        fleet.run()
    };

    println!(
        "scenario: {} ({} devices, {} s), round-robin routing",
        scenario.name,
        scenario.device_count(),
        scenario.duration_s(),
    );
    let report = serve(RoutingPolicy::RoundRobin);
    for line in report.device_summaries() {
        println!("{line}");
    }

    // ---- gate 1: the cliff alert fires before every death ---------------
    let deaths = report.deaths();
    assert!(
        deaths > 0,
        "round-robin on the cliff scenario must kill batteries — \
         otherwise the lead-time gate is vacuous"
    );
    let mut min_lead: Option<u32> = None;
    for (device, profile) in report.devices.iter().zip(&scenario.devices) {
        let Some(died_at_s) = device.died_at_s else {
            continue;
        };
        let obs = device
            .telemetry
            .as_ref()
            .expect("Full telemetry on every device")
            .obs
            .as_ref()
            .expect("Full telemetry carries the obs plane");
        let fired_at = obs.first_firing("battery_cliff").unwrap_or_else(|| {
            panic!(
                "{} died at {died_at_s} s but battery_cliff never fired",
                profile.name
            )
        });
        assert!(
            fired_at < died_at_s,
            "{}: battery_cliff fired at window {fired_at}, at or after the death at {died_at_s} s",
            profile.name
        );
        let lead = died_at_s - fired_at;
        println!(
            "  {:<14} died at {died_at_s:>3} s, battery_cliff fired at window {fired_at:>3} \
             (lead {lead} windows)",
            profile.name
        );
        assert!(
            lead >= 2,
            "{}: alert lead of {lead} windows is below the 2-window gate",
            profile.name
        );
        min_lead = Some(min_lead.map_or(lead, |m| m.min(lead)));
    }
    let min_lead = min_lead.expect("at least one death was checked above");

    // ---- gate 2: spans attribute 100% of deadline misses ----------------
    // battery-aware routing concentrates load on healthy devices, which is
    // what pushes admitted requests past the tight 16 ms budget — and,
    // being the default policy, doubles as the survival comparison
    let aware = serve(RoutingPolicy::BatteryAware);
    println!(
        "battery-aware comparison: {} deaths, {} deadline misses",
        aware.deaths(),
        aware.missed_deadline(),
    );
    assert!(
        aware.missed_deadline() > 0,
        "the fixture configuration must produce misses — \
         otherwise the attribution gate is vacuous"
    );
    let mut merged = SpanForest::default();
    for device in &aware.devices {
        let snapshot = device.telemetry.as_ref().expect("Full snapshot");
        let forest = snapshot.spans();
        let queue_sum: f64 = forest.requests.iter().map(|r| r.queue_ms()).sum();
        let hist_sum = snapshot
            .metrics
            .histogram("queue_wait_ms")
            .map_or(0.0, |h| h.sum());
        assert!(
            (queue_sum - hist_sum).abs() <= 1e-6 * hist_sum.abs().max(1.0),
            "span queue total {queue_sum} disagrees with the recorded histogram {hist_sum}"
        );
        merged.merge(&forest);
    }
    let attribution = merged.miss_attribution();
    assert_eq!(
        attribution.total(),
        aware.missed_deadline(),
        "every deadline miss must be attributed to a dominant segment"
    );
    println!(
        "miss attribution: {} queue, {} switch, {} infer ({} total misses)",
        attribution.queue,
        attribution.switch,
        attribution.infer,
        attribution.total(),
    );

    // informational: predictive routing on the same trace, and how often
    // the same rule set pages when the fleet stays healthy
    if quick == 0 {
        let predictive = serve(RoutingPolicy::Predictive);
        let fired = predictive
            .devices
            .iter()
            .filter_map(|d| {
                d.telemetry
                    .as_ref()?
                    .obs
                    .as_ref()?
                    .first_firing("battery_cliff")
            })
            .count();
        println!(
            "predictive comparison: {} deaths, battery_cliff fired on {fired}/{} devices",
            predictive.deaths(),
            predictive.devices.len(),
        );
    }

    println!(
        concat!(
            "{{\"bench\": \"obs/heterogeneous_cliff\", \"routing\": \"round-robin\", ",
            "\"deaths\": {deaths}, \"alert_lead_windows\": {lead}, ",
            "\"completed\": {completed}, \"missed_deadline\": {missed}, ",
            "\"miss_queue\": {queue}, \"miss_switch\": {switch}, \"miss_infer\": {infer}}}"
        ),
        deaths = deaths,
        lead = min_lead,
        completed = aware.completed(),
        missed = aware.missed_deadline(),
        queue = attribution.queue,
        switch = attribution.switch,
        infer = attribution.infer,
    );
    println!("serve_obs OK: alert lead {min_lead} windows, 100% of misses attributed");
}
