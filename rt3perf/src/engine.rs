//! The simulated serving engine's layers, read by replaying the
//! `serve_trace` acceptance configuration (`Scenario::default_bursty`,
//! adaptive policy, 29 J battery, analytic cost model, default scheduler,
//! real inference on) in process.
//!
//! The replay is not a timed workload: its wall time moved by up to 1.6×
//! between identical runs on a 2-vCPU host (the worker pool fans each
//! dispatch window out to 4 threads), more than any bound allows. The
//! replays pin the engine's behaviour in every `reconfig-cycle` run, give it
//! the micro-batch width mix of its follow-up inferences, and give the pool,
//! scheduler and engine metrics of its traced run.

use crate::layers::scheduler_replay;
use crate::offline::Offline;
use crate::report::Outcome;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rt3_runtime::{
    RuntimePolicy, Scenario, SchedulerConfig, ServeConfig, ServeEngine, ServeReport,
    TelemetryConfig,
};
use rt3_telemetry::StreamingHistogram;
use rt3_transformer::TransformerLm;
use std::time::Instant;

/// Replays of the traced run's Counters engine.
const REPLAYS: u64 = 3;

/// The acceptance replay at `ServeConfig::default().seed`, pinned: a change
/// to any of these is a change of serving behaviour, not of speed.
const PINNED: Pin = Pin {
    arrivals: 3_600,
    completed: 3_600,
    missed_deadline: 0,
    rejected: 0,
    dropped_dead_battery: 0,
    switches: 2,
    energy_j_bits: 0x403c_2336_8aca_e342,
    checksum_bits: 0x40f2_d0d2_4846_1000,
};

/// The deterministic outcome of one replay: counts, energy and the real
/// inference checksum, compared bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    arrivals: u64,
    completed: u64,
    missed_deadline: u64,
    rejected: u64,
    dropped_dead_battery: u64,
    switches: u64,
    energy_j_bits: u64,
    checksum_bits: u64,
}

impl Pin {
    fn of(report: &ServeReport) -> Self {
        Self {
            arrivals: report.arrivals,
            completed: report.completed,
            missed_deadline: report.missed_deadline,
            rejected: report.rejected,
            dropped_dead_battery: report.dropped_dead_battery,
            switches: report.switches,
            energy_j_bits: report.total_energy_j().to_bits(),
            checksum_bits: report.inference_checksum.to_bits(),
        }
    }
}

fn engine(off: &Offline, seed: u64, telemetry: TelemetryConfig) -> ServeEngine<'_, TransformerLm> {
    let serve = ServeConfig {
        battery_capacity_j: 29.0,
        deadline_budget_ms: 400.0,
        policy: RuntimePolicy::Adaptive,
        seed,
        telemetry,
        ..ServeConfig::default()
    };
    ServeEngine::new(
        &off.model,
        off.backbone.masks.clone(),
        &off.space,
        &off.outcome,
        off.config.clone(),
        serve,
    )
}

/// Replays the acceptance trace twice, checks both replays against the
/// pins, and returns how many micro-batches of each width (index 0 = width
/// 1) the first replay dispatched, from its Counters snapshot.
pub fn acceptance_replay(off: &Offline, out: &mut Outcome) -> Vec<u64> {
    let scenario = Scenario::default_bursty();
    let mut acceptance = engine(
        off,
        ServeConfig::default().seed,
        TelemetryConfig::counters(),
    );
    let mut widths = Vec::new();
    for _ in 0..2 {
        let report = acceptance.run(&scenario);
        let got = Pin::of(&report);
        out.check(got == PINNED, || {
            format!("acceptance replay {got:?} differs from the pinned {PINNED:?}")
        });
        if widths.is_empty() {
            widths = report
                .telemetry
                .as_ref()
                .and_then(|snapshot| snapshot.metrics.histogram("batch_size"))
                .map(|h| width_counts(h, SchedulerConfig::default().max_batch))
                .unwrap_or_default();
        }
    }
    out.check(widths.iter().sum::<u64>() > 0, || {
        "the acceptance replay recorded no batch sizes".into()
    });
    widths
}

/// Micro-batches of each width `1..=max_width` in a `batch_size` histogram
/// (index 0 = width 1). Each small integer has a histogram bucket of its
/// own, so the nearest-rank quantile at every rank recovers it exactly.
pub fn width_counts(h: &StreamingHistogram, max_width: usize) -> Vec<u64> {
    let n = h.count();
    let mut counts = vec![0; max_width];
    for rank in 1..=n {
        let width = h.quantile((rank as f64 - 0.5) / n as f64).round() as usize;
        if let Some(count) = width.checked_sub(1).and_then(|i| counts.get_mut(i)) {
            *count += 1;
        }
    }
    counts
}

/// Replays the bursty trace with traffic drawn from `seed` through an
/// engine that records the Counters snapshot, one span per
/// `ServeEngine::run`, and sets the pool, scheduler, controller and engine
/// metrics. Every replay must equal the first bit for bit.
pub fn engine_layers(off: &Offline, seed: u64, out: &mut Outcome, tracer: &mut Tracer) {
    let scenario = Scenario::default_bursty();
    let mut counted = engine(off, seed, TelemetryConfig::counters());
    let mut replays = Vec::new();
    for replay in 0..REPLAYS {
        let t0 = Instant::now();
        let report = counted.run(&scenario);
        let t1 = Instant::now();
        tracer.record("engine.run", 0, replay, t0, t1);
        replays.push((report, (t1 - t0).as_secs_f64() * 1e3));
    }
    let first = Pin::of(&replays[0].0);
    out.check(replays.iter().all(|(r, _)| Pin::of(r) == first), || {
        "replays of one seed differ".into()
    });
    let (last, wall_ms) = replays.last().expect("REPLAYS > 0");
    out.set("engine.sim_miss_ratio", last.miss_rate());
    out.set("engine.sim_latency_p99_ms", last.p99_ms());
    out.set("engine.runs_per_joule", last.runs_per_joule());
    out.set("controller.switches", last.switches as f64);
    match &last.telemetry {
        Some(snapshot) => {
            let metrics = &snapshot.metrics;
            if let Some(h) = metrics.histogram("pool_batch_wall_ms") {
                out.set("pool.batch_wall_us_p50", h.quantile(0.5) * 1e3);
                out.set("pool.batch_wall_us_p99", h.quantile(0.99) * 1e3);
                out.set("pool.busy_share", h.sum() / wall_ms);
            }
            if let Some(h) = metrics.histogram("batch_size") {
                out.set("scheduler.batch_mean", h.mean());
            }
            if let Some(h) = metrics.histogram("queue_wait_ms") {
                out.set("scheduler.queue_wait_ms", h.quantile(0.5));
            }
        }
        None => out.check(false, || "the Counters engine attached no snapshot".into()),
    }

    // the trace's arrivals, drawn exactly as the engine draws them, through
    // the scheduler at the top level
    let mut rng = StdRng::seed_from_u64(seed);
    let arrivals: Vec<f64> = (0..scenario.duration_s())
        .flat_map(|t| {
            let offsets = scenario.arrivals_in_second(t, &mut rng);
            offsets.into_iter().map(move |o| t as f64 * 1e3 + o)
        })
        .collect();
    let top = off.config.governor.levels().len() - 1;
    let base = counted.level_latency_ms(top);
    let cost = counted.cost_model().clone();
    scheduler_replay(out, &arrivals, 1_000.0, 400.0, top, |batch| {
        cost.service_from_base_ms(top, base, batch)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_counts_recover_integer_batch_sizes() {
        let mut h = StreamingHistogram::new();
        for (width, times) in [(1.0, 5), (3.0, 2), (4.0, 7), (9.0, 1)] {
            for _ in 0..times {
                h.record(width);
            }
        }
        // 9 is wider than the largest batch and counts nowhere
        assert_eq!(width_counts(&h, 4), vec![5, 0, 2, 7]);
        assert_eq!(width_counts(&StreamingHistogram::new(), 4), vec![0; 4]);
    }
}
