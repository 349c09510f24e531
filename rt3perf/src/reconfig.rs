//! `reconfig-cycle`: the paper's pattern-set switch on a memory-starved
//! device. A capacity-1 `ModelBank` holds one level at a time, so every V/F
//! level change is a cold rebuild; the walk takes every ordered pair of
//! levels once per cycle, and each switch is followed by a few inferences
//! at the new level. The scheduler and the server do no work here.
//!
//! Before timing, every run replays the `serve_trace` acceptance trace
//! against its pins; the micro-batch widths that replay dispatched are the
//! mix the follow-up widths are drawn from. A traced run also reads the
//! engine's layers from the trace (see `engine`).

use crate::engine::{acceptance_replay, engine_layers};
use crate::layers::kernel_layers;
use crate::offline::{best_actions, Offline, Setups};
use crate::report::Outcome;
use crate::schedule::{follow_up_widths, switch_cycle};
use crate::stats::{describe, median, Segmented};
use crate::trace::Tracer;
use rt3_hardware::MemoryModel;
use rt3_runtime::{InferScratch, ModelBank};
use rt3_transformer::TransformerLm;
use std::time::{Duration, Instant};

/// Set-ups per run, spread over it; `setup_s` is their `typical` figure.
const SETUP_REPS: usize = 61;
/// Inferences after the first one at each new level. The first one is a
/// single request (width 1), so the seed changes only the order of the
/// switches and the follow-up widths, never the work a switch times.
const FOLLOW_UPS: usize = 3;
/// Segment length of the per-segment statistics (see `stats`); short,
/// because the host's slow state flickers within a quarter second.
const SEGMENT: Duration = Duration::from_millis(100);
/// Fewest switches a segment needs to count: it drops the run's last,
/// partial segment, but no segment of the slow state (about 40 switches
/// in 100 ms against 70 in the quiet state).
const MIN_SEGMENT_SAMPLES: usize = 20;

fn capacity_one_bank(off: &Offline) -> ModelBank<'_, TransformerLm> {
    ModelBank::new(
        &off.model,
        off.backbone.masks.clone(),
        &off.space,
        &best_actions(off),
        MemoryModel::odroid_xu3(),
        1,
    )
}

fn ms(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

/// Runs the workload for `seconds` and returns its metrics and checks.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    // set-up: offline search + bank construction
    let mut setups = Setups::new(SETUP_REPS);
    let off = setups.run(tracer, |off| drop(capacity_one_bank(off)));
    let mut bank = capacity_one_bank(&off);

    // inputs
    let walk = switch_cycle(bank.levels(), seed);
    let width_counts = acceptance_replay(&off, &mut out);
    eprintln!("rt3perf: acceptance replay micro-batches by width 1..: {width_counts:?}");
    let widths = follow_up_widths(seed, walk.len() - 1, FOLLOW_UPS, &width_counts);

    let mut scratch = InferScratch::new();
    let _ = bank.get(walk[0]);
    // one untimed cycle fills the scratch buffers and pins the reference
    // first-inference checksum of every switch position
    let reference: Vec<f64> = walk[1..]
        .iter()
        .map(|&level| bank.get(level).infer_with(1, &mut scratch))
        .collect();

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    setups.spread_over(started, seconds);
    let mut switch_ms = Segmented::new(started, SEGMENT);
    let mut traced_switch_ms = Segmented::new(started, SEGMENT);
    // a switch with its follow-up inferences, for throughput
    let mut step_ms = Segmented::new(started, SEGMENT);
    let mut first_us = Vec::new();
    let mut warm_us = Vec::new();
    let mut switches = 0u64;
    let mut mismatches = 0u64;
    let mut cycle = 0u64;
    while Instant::now() < deadline {
        setups.run_if_due(tracer, |off| drop(capacity_one_bank(off)));
        // in a traced run every other cycle records its spans inside the
        // timed switch, so the gap between the two halves is the cost of
        // tracing
        let traced = tracer.enabled() && cycle % 2 == 1;
        for (k, &level) in walk.iter().enumerate().skip(1) {
            let t0 = Instant::now();
            let model = bank.get(level);
            let t1 = Instant::now();
            let first = model.infer_with(1, &mut scratch);
            let t2 = Instant::now();
            if traced {
                let switch = tracer.record("reconfig.switch", 0, cycle, t0, t2);
                tracer.record("bank.get", switch, cycle, t0, t1);
                tracer.record("sparse.infer_with", switch, cycle, t1, t2);
            }
            let switched = Instant::now();
            if first.to_bits() != reference[k - 1].to_bits() {
                mismatches += 1;
            }
            for &width in &widths[k - 1] {
                let a = Instant::now();
                std::hint::black_box(model.infer_with(width, &mut scratch));
                let b = Instant::now();
                warm_us.push(ms(a, b) * 1e3);
                if traced {
                    tracer.record("sparse.infer_with", 0, cycle, a, b);
                }
            }
            if traced {
                traced_switch_ms.push(switched, ms(t0, switched));
            } else {
                switch_ms.push(switched, ms(t0, switched));
                let t3 = Instant::now();
                step_ms.push(t3, ms(t0, t3));
            }
            first_us.push(ms(t1, t2) * 1e3);
            switches += 1;
        }
        cycle += 1;
    }
    eprintln!("rt3perf: switch ms {}", describe(&switch_ms.all()));

    out.attempted = switches;
    out.failed = mismatches;
    out.check(mismatches == 0, || {
        format!("{mismatches} first-inference checksums differ from the reference cycle")
    });
    out.check(switches > 0, || "no switch completed".into());

    setups.report(&mut out, tracer.enabled());
    // untraced cycles only, so the end-to-end figures never carry spans
    out.set(
        "latency_p50_ms",
        switch_ms.typical(0.5, MIN_SEGMENT_SAMPLES),
    );
    out.set(
        "latency_p75_ms",
        switch_ms.typical(0.75, MIN_SEGMENT_SAMPLES),
    );
    out.set(
        "throughput_rps",
        (1 + FOLLOW_UPS) as f64 * 1e3 / step_ms.typical(0.5, MIN_SEGMENT_SAMPLES),
    );

    if tracer.enabled() {
        let stats = bank.stats();
        out.set("bank.builds", stats.builds as f64);
        out.set("bank.evictions", stats.evictions as f64);
        out.set("sparse.first_infer_us", median(&first_us));
        out.set("sparse.warm_infer_us", median(&warm_us));
        out.set(
            "telemetry.overhead_pct",
            100.0 * (median(&traced_switch_ms.all()) / median(&switch_ms.all()) - 1.0),
        );
        drop(bank);
        engine_layers(&off, seed, &mut out, tracer);
        kernel_layers(&off, &mut out, tracer);
    }
    out
}
