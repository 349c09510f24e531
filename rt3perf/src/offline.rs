//! The offline artifacts every model-serving workload starts from: the
//! Level-1 backbone and the Level-2 pattern-set search, configured as the
//! `serve_trace` acceptance example configures them.

use crate::report::Outcome;
use crate::stats::{describe, median, typical};
use crate::trace::Tracer;
use rt3_core::{
    build_search_space, run_level1, run_level2_search, BackboneResult, Rt3Config, SearchOutcome,
    SurrogateEvaluator, TaskProfile,
};
use rt3_pruning::PatternSpace;
use rt3_transformer::{TransformerConfig, TransformerLm};
use std::time::{Duration, Instant};

/// Model, backbone, pattern space and search outcome, plus how long each
/// `rt3_core` call took.
pub struct Offline {
    pub model: TransformerLm,
    pub backbone: BackboneResult,
    pub space: PatternSpace,
    pub outcome: SearchOutcome,
    pub config: Rt3Config,
    pub level1_ms: f64,
    pub space_ms: f64,
    pub level2_ms: f64,
}

/// Runs the offline search, recording one span per `rt3_core` call.
pub fn search(tracer: &mut Tracer) -> Offline {
    let mut config = Rt3Config::wikitext_default();
    config.timing_constraint_ms = 115.0;
    config.episodes = 20;
    let model = TransformerLm::new(TransformerConfig::paper_transformer(512), 7);
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());

    let t0 = Instant::now();
    let backbone = run_level1(&model, &config, &mut evaluator);
    let t1 = Instant::now();
    let space = build_search_space(&model, &backbone, &config);
    let t2 = Instant::now();
    let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
    let t3 = Instant::now();
    tracer.record("core.run_level1", 0, 0, t0, t1);
    tracer.record("core.build_search_space", 0, 0, t1, t2);
    tracer.record("core.run_level2_search", 0, 0, t2, t3);
    assert!(
        outcome.best.is_some(),
        "the offline search must find a feasible solution"
    );
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Offline {
        level1_ms: ms(t0, t1),
        space_ms: ms(t1, t2),
        level2_ms: ms(t2, t3),
        model,
        backbone,
        space,
        outcome,
        config,
    }
}

/// The governor's action list of the search's best solution.
pub fn best_actions(offline: &Offline) -> Vec<usize> {
    offline
        .outcome
        .best
        .as_ref()
        .expect("checked feasible in search()")
        .actions
        .clone()
}

/// Set-ups spread over a run: one before the timed loop, whose artifacts the
/// workload serves, and the rest at even gaps inside it. Set-ups taken in
/// one burst all see the host in whatever state it is in at that moment, so
/// their median moved by up to 50% between runs. Like the run's other
/// timings (see `stats`), `setup_s` is the [`typical`] figure of the spread
/// set-ups: their median still moved by a fifth between runs with the
/// share of the run the host spent in its slow state.
pub struct Setups {
    total_s: Vec<f64>,
    core_ms: [Vec<f64>; 3],
    reps: usize,
    gap: Duration,
    next: Instant,
}

impl Setups {
    /// Plans `reps` set-ups.
    pub fn new(reps: usize) -> Self {
        Self {
            total_s: Vec::new(),
            core_ms: [Vec::new(), Vec::new(), Vec::new()],
            reps,
            gap: Duration::ZERO,
            next: Instant::now(),
        }
    }

    /// Spreads the set-ups still to run evenly over a timed loop of
    /// `seconds` starting at `start`.
    pub fn spread_over(&mut self, start: Instant, seconds: f64) {
        self.gap = Duration::from_secs_f64(seconds / self.reps as f64);
        self.next = start + self.gap;
    }

    /// Times one set-up: the offline search plus `build` (the workload's
    /// engine or bank construction over the search's artifacts).
    pub fn run(&mut self, tracer: &mut Tracer, build: impl FnOnce(&Offline)) -> Offline {
        let t0 = Instant::now();
        let off = search(tracer);
        build(&off);
        self.total_s.push(t0.elapsed().as_secs_f64());
        for (samples, ms) in
            self.core_ms
                .iter_mut()
                .zip([off.level1_ms, off.space_ms, off.level2_ms])
        {
            samples.push(ms);
        }
        off
    }

    /// Runs the next set-up if it is due; call between timed operations.
    pub fn run_if_due(&mut self, tracer: &mut Tracer, build: impl FnOnce(&Offline)) {
        if self.total_s.len() < self.reps && Instant::now() >= self.next {
            self.run(tracer, build);
            self.next += self.gap;
        }
    }

    /// Sets `setup_s` ([`typical`]) and, in a traced run, `core.*`
    /// (medians).
    pub fn report(&self, out: &mut Outcome, traced: bool) {
        eprintln!("rt3perf: setup s {}", describe(&self.total_s));
        out.set("setup_s", typical(&self.total_s));
        if traced {
            out.set("core.level1_ms", median(&self.core_ms[0]));
            out.set("core.space_ms", median(&self.core_ms[1]));
            out.set("core.level2_ms", median(&self.core_ms[2]));
        }
    }
}
