//! Multi-threaded worker pool executing *real* sparse inference.
//!
//! The scheduler's deadline accounting runs on the simulated mobile clock
//! (the latency of a Cortex-A7 cannot be measured on the build machine), but
//! the compute itself is real: every dispatched micro-batch is replayed here
//! as actual [`BankedModel::infer`] pattern-pruned matrix products, fanned
//! out over `std::thread` workers. The returned checksum proves the sparse
//! kernels ran and stayed bit-stable across runs; the bench harness uses the
//! same entry point to measure wall-clock sparse-serving throughput.

use crate::bank::{BankedModel, InferScratch};
use rt3_telemetry::{Clock, CounterId, HistogramId, MetricShard};
use std::thread;

/// Outcome of running a set of batches through the pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolOutcome {
    /// Batches executed.
    pub batches: u64,
    /// Sum of per-batch inference checksums (deterministic for a fixed model
    /// and batch list, independent of worker count).
    pub checksum: f64,
}

/// [`run_batches`] with a wall-clock measurement: returns the outcome plus
/// the elapsed milliseconds. This is the probe of the cost-model
/// calibration pass ([`crate::cost::calibrate`]): timing the *real* compiled
/// sparse kernels at each micro-batch size is what replaces the assumed
/// fixed amortisation α with a measured curve.
pub fn time_batches(model: &BankedModel, batches: &[usize], workers: usize) -> (PoolOutcome, f64) {
    let start = std::time::Instant::now();
    let outcome = run_batches(model, batches, workers, None);
    (outcome, start.elapsed().as_secs_f64() * 1_000.0)
}

/// Runs each batch size in `batches` through `model` as a real sparse
/// forward pass, using up to `workers` OS threads. With `timing`, every
/// batch is timed through its clock on the thread that runs it, and the
/// timings fold into the caller's long-lived shard in batch order after the
/// join (one count and one wall-time sample per batch); the checksum path
/// is the same either way.
///
/// When the window carries at least as many batches as workers, batches
/// are split into contiguous chunks, one per thread; every thread returns
/// its per-batch checksums and the flat list is summed once in batch
/// order, so the result is bit-identical for any worker count. Each worker
/// owns one [`InferScratch`], so steady-state batches run through the
/// compiled-plan kernel without heap allocation.
///
/// When batches are scarcer than workers (e.g. one large inference against
/// a 4-thread pool), batch-level chunking would idle most of the pool, so
/// the batches instead run in order with *intra-matmul* row-range
/// parallelism ([`BankedModel::infer_par_with`]): each weight's matmul
/// splits its block rows across the workers — capped to the host's actual
/// hardware parallelism, because fanning one matmul across more threads
/// than cores is pure oversubscription on the *real* wall clock (on a
/// single-core host the cap disables the intra path entirely and the
/// window runs serially, exactly the pre-PR-10 behaviour). The parallel
/// kernel is bit-identical to the serial one, so the checksum stays
/// independent of the worker count either way.
pub fn run_batches(
    model: &BankedModel,
    batches: &[usize],
    workers: usize,
    timing: Option<(PoolTelemetry<'_>, &mut MetricShard)>,
) -> PoolOutcome {
    if batches.is_empty() {
        return PoolOutcome {
            batches: 0,
            checksum: 0.0,
        };
    }
    let clock = timing.as_ref().map(|(telemetry, _)| telemetry.clock);
    let intra = intra_workers(workers, batches.len());
    // each batch's checksum and, when timed, its wall time, in batch order
    let runs: Vec<(f64, Option<f64>)> = if intra > 1 {
        let mut scratch = InferScratch::new();
        batches
            .iter()
            .map(|&b| timed(clock, || model.infer_par_with(b, &mut scratch, intra)))
            .collect()
    } else {
        let workers = workers.clamp(1, batches.len());
        let chunk_len = batches.len().div_ceil(workers);
        thread::scope(|scope| {
            let handles: Vec<_> = batches
                .chunks(chunk_len)
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut scratch = InferScratch::new();
                        chunk
                            .iter()
                            .map(|&b| timed(clock, || model.infer_with(b, &mut scratch)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("inference worker panicked"))
                .collect()
        })
    };
    if let Some((telemetry, shard)) = timing {
        shard.add(telemetry.batches, runs.len() as u64);
        for (_, wall_ms) in &runs {
            shard.record(telemetry.batch_wall_ms, wall_ms.expect("timed run"));
        }
    }
    PoolOutcome {
        batches: runs.len() as u64,
        checksum: runs.iter().map(|(checksum, _)| checksum).sum(),
    }
}

/// Runs one batch's inference, timed through `clock` when there is one.
fn timed(clock: Option<&dyn Clock>, infer: impl FnOnce() -> f64) -> (f64, Option<f64>) {
    let Some(clock) = clock else {
        return (infer(), None);
    };
    let begin_ms = clock.now_ms();
    let checksum = infer();
    (checksum, Some(clock.now_ms() - begin_ms))
}

/// Decides the intra-matmul fan-out of a scarce-batch window: the
/// configured worker count capped to the host's hardware parallelism
/// (probed once, cached). Returns `0` or `1` when the intra path should
/// not be taken — batches are plentiful, or the host cannot actually run
/// the row ranges concurrently (a simulated 4-worker device on a 1-core
/// build host must not oversubscribe the real wall clock the loopback
/// pacing tests measure).
fn intra_workers(workers: usize, batches: usize) -> usize {
    if workers <= batches {
        return 0;
    }
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let available = *AVAILABLE.get_or_init(|| {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    workers.min(available)
}

/// Telemetry hooks for a timed pool run: the clock that times each
/// micro-batch and the metric ids the timings are recorded under.
pub struct PoolTelemetry<'a> {
    /// Clock used to time each batch (a wall clock in production, a
    /// [`rt3_telemetry::ManualClock`] in deterministic tests).
    pub clock: &'a dyn Clock,
    /// Counter incremented once per executed batch.
    pub batches: CounterId,
    /// Histogram of per-batch kernel wall time in milliseconds.
    pub batch_wall_ms: HistogramId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::ModelBank;
    use rt3_hardware::MemoryModel;
    use rt3_pruning::{
        block_prune_model, generate_pattern_space, BlockPruningConfig, PatternSpaceConfig,
    };
    use rt3_transformer::{TransformerConfig, TransformerLm};

    fn banked() -> BankedModel {
        let model = TransformerLm::new(TransformerConfig::tiny(32), 9);
        let backbone = block_prune_model(&model, &BlockPruningConfig::default());
        let space = generate_pattern_space(
            &model,
            &backbone,
            &[0.5],
            &PatternSpaceConfig {
                pattern_size: 4,
                patterns_per_set: 2,
                sample_fraction: 0.5,
                seed: 4,
            },
        );
        let mut bank = ModelBank::new(&model, backbone, &space, &[0], MemoryModel::odroid_xu3(), 1);
        bank.get(0).clone()
    }

    #[test]
    fn pool_result_is_independent_of_worker_count() {
        let model = banked();
        let batches = vec![1, 2, 3, 4, 2, 1, 3];
        let serial = run_batches(&model, &batches, 1, None);
        let parallel = run_batches(&model, &batches, 4, None);
        let oversubscribed = run_batches(&model, &batches, 32, None);
        assert_eq!(serial.batches, 7);
        assert_eq!(serial.checksum, parallel.checksum);
        assert_eq!(serial.checksum, oversubscribed.checksum);
        assert!(serial.checksum.is_finite() && serial.checksum > 0.0);
    }

    #[test]
    fn scarce_batch_window_is_bit_stable_through_intra_parallelism() {
        // fewer batches than workers routes through infer_par_with (row-range
        // parallel matmuls) when the host has the cores; the checksum must
        // not move either way
        let model = banked();
        let batches = vec![4, 2];
        let serial = run_batches(&model, &batches, 1, None);
        for workers in [3usize, 8, 32] {
            let intra = run_batches(&model, &batches, workers, None);
            assert_eq!(serial.checksum, intra.checksum, "{workers} workers");
        }
        // single large inference against a multi-thread pool
        let one = run_batches(&model, &[64], 4, None);
        assert_eq!(one.checksum, run_batches(&model, &[64], 1, None).checksum);
        // pin the parallel kernel itself (not just the pool's routing, which
        // falls back to serial on a single-core host): infer_par_with must
        // be bit-identical to infer_with for every fan-out
        let mut scratch = InferScratch::new();
        let reference = model.infer_with(4, &mut scratch);
        for workers in [2usize, 3, 8] {
            assert_eq!(
                reference,
                model.infer_par_with(4, &mut scratch, workers),
                "{workers}-way intra-matmul checksum"
            );
        }
    }

    #[test]
    fn empty_batch_list_is_a_noop() {
        let model = banked();
        let outcome = run_batches(&model, &[], 4, None);
        assert_eq!(outcome.batches, 0);
        assert_eq!(outcome.checksum, 0.0);
    }

    #[test]
    fn instrumented_run_matches_and_times_every_batch() {
        use rt3_telemetry::{ManualClock, MetricRegistry};
        let model = banked();
        let batches = vec![2, 3, 1, 4];
        let mut registry = MetricRegistry::new();
        let counter = registry.counter("pool_batches");
        let hist = registry.histogram("pool_batch_wall_ms");
        // each timing takes two readings of the stepping clock, so every
        // batch measures exactly one step — deterministic with one worker
        let clock = ManualClock::new(1.0);
        let telemetry = PoolTelemetry {
            clock: &clock,
            batches: counter,
            batch_wall_ms: hist,
        };
        let mut shard = registry.shard();
        let outcome = run_batches(&model, &batches, 1, Some((telemetry, &mut shard)));
        assert_eq!(outcome, run_batches(&model, &batches, 1, None));
        let snap = registry.snapshot(&shard);
        assert_eq!(snap.counter("pool_batches"), Some(4));
        let timings = snap.histogram("pool_batch_wall_ms").unwrap();
        assert_eq!(timings.count(), 4);
        assert_eq!(timings.min(), 1.0);
        assert_eq!(timings.max(), 1.0);
    }

    #[test]
    fn instrumented_timings_fold_in_across_workers() {
        use rt3_telemetry::{MetricRegistry, WallClock};
        let model = banked();
        let batches = vec![1, 2, 3, 4, 2, 1, 3];
        let mut registry = MetricRegistry::new();
        let counter = registry.counter("pool_batches");
        let hist = registry.histogram("pool_batch_wall_ms");
        let clock = WallClock::new();
        let telemetry = PoolTelemetry {
            clock: &clock,
            batches: counter,
            batch_wall_ms: hist,
        };
        let mut shard = registry.shard();
        let outcome = run_batches(&model, &batches, 4, Some((telemetry, &mut shard)));
        assert_eq!(outcome, run_batches(&model, &batches, 4, None));
        assert_eq!(shard.counter(counter), 7, "one count per batch, merged");
        assert_eq!(shard.histogram(hist).count(), 7);
    }

    #[test]
    fn timed_run_matches_the_untimed_outcome() {
        let model = banked();
        let batches = vec![2, 3, 1];
        let (timed, elapsed_ms) = time_batches(&model, &batches, 2);
        assert_eq!(timed, run_batches(&model, &batches, 2, None));
        assert!(elapsed_ms.is_finite() && elapsed_ms >= 0.0);
    }
}
