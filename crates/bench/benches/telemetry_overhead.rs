//! Telemetry overhead gate: the serving engine is timed over the same
//! bursty trace with telemetry `Off` and at `Counters`, interleaved
//! cycle-by-cycle (`Off`, `Counters`, `Full`, repeat), and the process
//! fails (non-zero exit) if `Counters` is more than 3% slower than `Off` —
//! the "streaming metrics are cheap enough to leave on" contract of
//! DESIGN.md §9. The gate statistic is **paired**: each cycle yields one
//! `Counters`/`Off` ratio measured seconds apart under the same host
//! conditions, and the median of those ratios is the overhead estimate.
//! Unpaired medians or minimums compare samples taken under *different*
//! transient load and routinely swing several percent either way on a
//! shared machine; pairing cancels the drift instead of hoping it averages
//! out. The `Full` level (trace ring + decision audit + the per-window
//! obs-plane scrape) is gated too, at a looser 5%: it is a debugging mode
//! rather than a production default, but the live series pipeline must
//! stay cheap enough to turn on when chasing an incident.
//!
//! Runs with real inference: the baseline is the production serving loop
//! (scheduling plus actual pattern-pruned sparse matmuls on the worker
//! pool), so the measured overhead is what a deployment would pay — per
//! request a handful of counter adds and histogram records, per batch two
//! clock reads into a contention-free per-worker shard.
//!
//! Set `BENCH_QUICK=1` (CI) to shrink the sample counts. The `{"bench":
//! "telemetry_overhead/...", ...}` JSON line feeds the perf trajectory
//! (`BENCH_telemetry.json`). Beside each gated median it reports the first
//! and third quartiles of the same per-cycle paired ratios (`*_q1`,
//! `*_q3`), so a gate flip can be read against the spread it came from.

use rt3_core::{
    build_search_space, run_level1, run_level2_search, Rt3Config, SearchOutcome,
    SurrogateEvaluator, TaskProfile,
};
use rt3_pruning::PatternSpace;
use rt3_runtime::{Scenario, ServeConfig, ServeEngine, TelemetryConfig};
use rt3_transformer::{MaskSet, TransformerConfig, TransformerLm};
use std::time::Instant;

/// Maximum tolerated slowdown of `Counters` over `Off` (median of the
/// per-cycle paired ratios), percent.
const GATE_PCT: f64 = 3.0;

/// Maximum tolerated slowdown of `Full` over `Off` — trace ring, decision
/// audit and the per-window obs-plane scrape included.
const FULL_GATE_PCT: f64 = 5.0;

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok()
}

fn offline() -> (
    TransformerLm,
    MaskSet,
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

/// The `q`-quantile of `samples` by nearest rank below: the sorted
/// sample at index `⌊q · n⌋` (the median is the one at `n / 2`).
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    sorted[(q * sorted.len() as f64) as usize]
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// First quartile, median and third quartile of the element-wise
/// `numer[i] / denom[i]` ratios as overhead percentages; the median is the
/// paired overhead estimate (each index is one interleaved cycle).
fn paired_overhead_pct(numer: &[f64], denom: &[f64]) -> [f64; 3] {
    let ratios: Vec<f64> = numer.iter().zip(denom).map(|(n, d)| n / d).collect();
    [0.25, 0.5, 0.75].map(|q| 100.0 * (quantile(&ratios, q) - 1.0))
}

fn main() {
    let (model, masks, space, outcome, config) = offline();
    let scenario = Scenario::default_bursty();
    // one sample = the fastest of `repeats` individually timed engine runs:
    // interference only ever adds time, so the within-cycle minimum is the
    // cleanest observation of that cycle's true cost
    let (samples, repeats) = if quick() { (9, 5) } else { (15, 5) };

    let time_level = |telemetry: TelemetryConfig| -> f64 {
        let serve = ServeConfig {
            battery_capacity_j: 29.0,
            real_inference: true,
            telemetry,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(
            &model,
            masks.clone(),
            &space,
            &outcome,
            config.clone(),
            serve,
        );
        let mut best_ms = f64::INFINITY;
        for _ in 0..repeats {
            let begin = Instant::now();
            let report = engine.run(&scenario);
            best_ms = best_ms.min(begin.elapsed().as_secs_f64() * 1_000.0);
            assert!(report.completed > 0, "the bench run must actually serve");
        }
        best_ms
    };

    // warm-up: fault in the lazy bank builds and the allocator before timing
    time_level(TelemetryConfig::default());
    time_level(TelemetryConfig::counters());
    time_level(TelemetryConfig::full());

    let mut off_ms = Vec::with_capacity(samples);
    let mut counters_ms = Vec::with_capacity(samples);
    let mut full_ms = Vec::with_capacity(samples);
    for _ in 0..samples {
        off_ms.push(time_level(TelemetryConfig::default()));
        counters_ms.push(time_level(TelemetryConfig::counters()));
        full_ms.push(time_level(TelemetryConfig::full()));
    }

    let off = median(&off_ms);
    let counters = median(&counters_ms);
    let full = median(&full_ms);
    let [counters_q1, counters_pct, counters_q3] = paired_overhead_pct(&counters_ms, &off_ms);
    let [full_q1, full_pct, full_q3] = paired_overhead_pct(&full_ms, &off_ms);

    println!(
        "{{\"bench\": \"telemetry_overhead/bursty_90s_real_inference\", \
         \"samples\": {samples}, \"repeats\": {repeats}, \
         \"off_ms\": {off:.3}, \"counters_ms\": {counters:.3}, \"full_ms\": {full:.3}, \
         \"counters_overhead_pct\": {counters_pct:.3}, \
         \"counters_overhead_pct_q1\": {counters_q1:.3}, \"counters_overhead_pct_q3\": {counters_q3:.3}, \
         \"full_overhead_pct\": {full_pct:.3}, \
         \"full_overhead_pct_q1\": {full_q1:.3}, \"full_overhead_pct_q3\": {full_q3:.3}, \
         \"gate_pct\": {GATE_PCT:.1}, \"full_gate_pct\": {FULL_GATE_PCT:.1}}}"
    );
    assert!(
        counters_pct < GATE_PCT,
        "telemetry at Counters costs {counters_pct:.2}% over Off \
         (paired median ratio; medians {counters:.3} ms vs {off:.3} ms) — \
         the gate is {GATE_PCT}%"
    );
    assert!(
        full_pct < FULL_GATE_PCT,
        "telemetry at Full costs {full_pct:.2}% over Off \
         (paired median ratio; medians {full:.3} ms vs {off:.3} ms) — \
         the gate is {FULL_GATE_PCT}%"
    );
}
