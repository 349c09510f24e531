//! Per-layer measurements made by replaying a workload's inputs through a
//! layer's public functions, for layers whose work happens inside the
//! engine or the server where the benchmark cannot put a span.

use crate::offline::{best_actions, Offline};
use crate::report::Outcome;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use rt3_hardware::MemoryModel;
use rt3_runtime::{DeadlineScheduler, InferScratch, ModelBank, Request, SchedulerConfig};
use rt3_sparse::PatternPrunedMatrix;
use rt3_transformer::Model;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each kernel-layer probe.
const KERNEL_REPS: usize = 7;
/// The micro-batch widths the serving paths run (`max_batch` 4).
const WIDTHS: [usize; 3] = [1, 2, 4];
/// Per-level infer metric names, indexed `[level][width]`.
const INFER_US: [[&str; 3]; 3] = [
    [
        "sparse.infer_us.lvl0.w1",
        "sparse.infer_us.lvl0.w2",
        "sparse.infer_us.lvl0.w4",
    ],
    [
        "sparse.infer_us.lvl1.w1",
        "sparse.infer_us.lvl1.w2",
        "sparse.infer_us.lvl1.w4",
    ],
    [
        "sparse.infer_us.lvl2.w1",
        "sparse.infer_us.lvl2.w2",
        "sparse.infer_us.lvl2.w4",
    ],
];

fn us(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e6
}

/// Bank rebuild, plan lowering and banked inference at every level and
/// served width: `bank.rebuild_ms_*` (`ModelBank::rebuild_cold`),
/// `sparse.lower_ms` (`PatternPrunedMatrix::from_dense` over one level's
/// backbone-masked weights) and `sparse.infer_us.*`
/// (`BankedModel::infer_with`).
pub fn kernel_layers(offline: &Offline, out: &mut Outcome, tracer: &mut Tracer) {
    let actions = best_actions(offline);
    let bank = ModelBank::new(
        &offline.model,
        offline.backbone.masks.clone(),
        &offline.space,
        &actions,
        MemoryModel::odroid_xu3(),
        actions.len(),
    );
    let levels = bank.levels();
    out.check(levels == INFER_US.len(), || {
        format!(
            "expected {} governor levels, found {levels}",
            INFER_US.len()
        )
    });
    let prunable = offline.model.prunable_parameter_names();
    let effective: Vec<_> = offline
        .model
        .parameters()
        .into_iter()
        .filter(|(name, _)| prunable.contains(name))
        .map(|(name, w)| match offline.backbone.masks.get(&name) {
            Some(mask) => w.zip(mask, |w, m| w * m),
            None => w.clone(),
        })
        .collect();

    let mut rebuild_ms = Vec::new();
    let mut lower_ms = Vec::new();
    let mut infer_us = vec![vec![Vec::new(); WIDTHS.len()]; levels];
    let mut scratch = InferScratch::new();
    for _ in 0..KERNEL_REPS {
        for (level, per_width) in infer_us.iter_mut().enumerate() {
            let t0 = Instant::now();
            let banked = bank.rebuild_cold(level);
            let t1 = Instant::now();
            let span = tracer.record("bank.rebuild_cold", 0, 0, t0, t1);
            rebuild_ms.push(us(t0, t1) / 1e3);

            let set = bank.pattern_set(level);
            let t0 = Instant::now();
            for weight in &effective {
                black_box(PatternPrunedMatrix::from_dense(black_box(weight), set));
            }
            let t1 = Instant::now();
            tracer.record("sparse.from_dense", span, 0, t0, t1);
            lower_ms.push(us(t0, t1) / 1e3);

            for (slot, &width) in WIDTHS.iter().enumerate() {
                let t0 = Instant::now();
                black_box(banked.infer_with(width, &mut scratch));
                let t1 = Instant::now();
                tracer.record("sparse.infer_with", span, 0, t0, t1);
                per_width[slot].push(us(t0, t1));
            }
        }
    }
    out.set("bank.rebuild_ms_p50", median(&rebuild_ms));
    out.set("bank.rebuild_ms_p99", quantile(&rebuild_ms, 0.99));
    out.set("sparse.lower_ms", median(&lower_ms));
    for (names, samples) in INFER_US.iter().zip(&infer_us) {
        for (name, widths) in names.iter().zip(samples) {
            out.set(name, median(widths));
        }
    }
}

/// Replays an arrival schedule through a fresh `DeadlineScheduler`,
/// dispatching at every `tick_ms` boundary as the serving paths do, and
/// sets `scheduler.submit_us` and `scheduler.dispatch_us` (medians per
/// call).
pub fn scheduler_replay(
    out: &mut Outcome,
    arrivals_ms: &[f64],
    tick_ms: f64,
    budget_ms: f64,
    level_pos: usize,
    service_ms: impl Fn(usize) -> f64,
) {
    let mut scheduler = DeadlineScheduler::new(SchedulerConfig::default());
    let mut submit_us = Vec::with_capacity(arrivals_ms.len());
    let mut dispatch_us = Vec::new();
    let mut next = 0;
    let mut boundary = tick_ms;
    while next < arrivals_ms.len() {
        while next < arrivals_ms.len() && arrivals_ms[next] < boundary {
            let arrival_ms = arrivals_ms[next];
            let request = Request {
                id: next as u64,
                arrival_ms,
                deadline_ms: arrival_ms + budget_ms,
            };
            let t0 = Instant::now();
            let _ = black_box(scheduler.submit(request, &service_ms));
            submit_us.push(us(t0, Instant::now()));
            next += 1;
        }
        let t0 = Instant::now();
        black_box(scheduler.dispatch(boundary, level_pos, &service_ms));
        dispatch_us.push(us(t0, Instant::now()));
        boundary += tick_ms;
    }
    out.set("scheduler.submit_us", median(&submit_us));
    out.set("scheduler.dispatch_us", median(&dispatch_us));
}
