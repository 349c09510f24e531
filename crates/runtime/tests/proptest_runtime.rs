//! Property-based tests for the runtime invariants:
//!
//! 1. the hysteresis controller never performs two switches within one
//!    hysteresis (dwell) window, for any battery trajectory;
//! 2. the model bank returns weights identical to a cold rebuild, for any
//!    access sequence and cache capacity;
//! 3. the scheduler's deadline accounting charges exactly the
//!    `PerformancePredictor` latency for a single-request batch, and the
//!    documented amortisation for micro-batches;
//! 4. the finish time admission predicts for a newcomer is the one dispatch
//!    then gives it.

use proptest::prelude::*;
use rt3_hardware::{DvfsGovernor, MemoryModel, ModelWorkload, PerformancePredictor, VfLevel};
use rt3_pruning::{
    block_prune_model, generate_pattern_space, BlockPruningConfig, PatternSpaceConfig,
};
use rt3_runtime::cost::BATCH_ALPHA;
use rt3_runtime::{
    CostModel, DeadlineScheduler, HysteresisConfig, LatencyModel, ModelBank, Request,
    RuntimeController, SchedulerConfig, Telemetry,
};
use rt3_sparse::SparseFormat;
use rt3_transformer::{TransformerConfig, TransformerLm};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any battery trajectory (arbitrary up/down jumps, arbitrary sample
    /// spacing), two controller switches are never closer than the dwell
    /// window — the "no oscillation between adjacent levels within one
    /// hysteresis window" invariant.
    #[test]
    fn hysteresis_never_switches_twice_within_one_window(
        steps in proptest::collection::vec((1.0f64..3_000.0, 0.0f64..1.0), 2..60),
        min_dwell_ms in 100.0f64..5_000.0,
        soc_margin in 0.0f64..0.1,
    ) {
        let mut controller = RuntimeController::new(
            DvfsGovernor::paper_default(),
            HysteresisConfig { min_dwell_ms, soc_margin },
        );
        let mut now_ms = 0.0;
        let mut switch_times: Vec<f64> = Vec::new();
        for (dt_ms, soc) in steps {
            now_ms += dt_ms;
            let decision = controller.decide(Telemetry {
                now_ms,
                state_of_charge: soc,
                thermal_cap: None,
            });
            if decision.switched {
                switch_times.push(now_ms);
            }
        }
        // the first switch is the initial level activation; every later pair
        // must respect the dwell window
        for pair in switch_times.windows(2) {
            prop_assert!(
                pair[1] - pair[0] >= min_dwell_ms,
                "switches at {} and {} violate the {} ms dwell window",
                pair[0], pair[1], min_dwell_ms
            );
        }
    }

    /// After any access sequence (hits, misses, evictions at every
    /// capacity, capacity 1 included), the bank's weights are identical to
    /// a cold rebuild and no more than `capacity` levels are resident.
    #[test]
    fn bank_masks_survive_any_eviction_pattern(
        accesses in proptest::collection::vec(0usize..3, 1..24),
    ) {
        let model = TransformerLm::new(TransformerConfig::tiny(32), 21);
        let backbone = block_prune_model(&model, &BlockPruningConfig::default());
        let space = generate_pattern_space(
            &model,
            &backbone,
            &[0.4, 0.6, 0.8],
            &PatternSpaceConfig {
                pattern_size: 4,
                patterns_per_set: 2,
                sample_fraction: 0.5,
                seed: 6,
            },
        );
        for capacity in 1..4 {
            let mut bank = ModelBank::new(
                &model,
                backbone.clone(),
                &space,
                &[0, 1, 2],
                MemoryModel::odroid_xu3(),
                capacity,
            );
            let reference: Vec<_> = (0..3).map(|pos| bank.rebuild_cold(pos)).collect();
            for &pos in &accesses {
                let banked = bank.get(pos);
                prop_assert!(
                    banked.weights == reference[pos].weights,
                    "banked weights must match a cold rebuild"
                );
                prop_assert!(banked.sparsity.to_bits() == reference[pos].sparsity.to_bits());
                prop_assert!(
                    banked.infer(2) == reference[pos].infer(2),
                    "banked weights must match a cold rebuild bit-for-bit"
                );
                let resident = (0..3).filter(|&p| bank.is_resident(p)).count();
                prop_assert!(resident <= capacity);
            }
            let stats = bank.stats();
            prop_assert_eq!(stats.hits + stats.builds, accesses.len() as u64);
            if capacity >= 3 {
                prop_assert_eq!(stats.evictions, 0);
            }
        }
    }

    /// A single-request batch is charged exactly the predictor's latency at
    /// the active level, and a k-batch is charged the documented
    /// amortisation — so scheduler deadline accounting and the paper's
    /// latency model can never drift apart.
    #[test]
    fn scheduler_deadline_accounting_matches_the_predictor(
        sparsity in 0.0f64..0.95,
        level_index in 1usize..=6,
        arrival_ms in 0.0f64..10_000.0,
        batch in 1usize..8,
    ) {
        let latency = LatencyModel {
            predictor: PerformancePredictor::cortex_a7(),
            workload_config: TransformerConfig::paper_transformer(512),
            seq_len: 24,
        };
        let cost = CostModel::analytic();
        let level = VfLevel::odroid_level(level_index);
        let workload = ModelWorkload::from_config(
            &latency.workload_config,
            sparsity,
            latency.seq_len,
            SparseFormat::BlockPruned,
        );
        let predicted = latency.predictor.latency_ms(&workload, &level);
        let base = latency.base_latency_ms(sparsity, &level);
        let service = |b: usize| cost.service_from_base_ms(0, base, b);

        // the latency model and the cost model agree with the predictor
        // bit-for-bit at batch 1
        prop_assert!(base == predicted);
        prop_assert!(service(1) == predicted);
        let expected_batch = predicted * (BATCH_ALPHA + (1.0 - BATCH_ALPHA) * batch as f64);
        prop_assert!((service(batch) - expected_batch).abs() < 1e-9);

        // and the scheduler charges exactly that service time on the clock
        let mut scheduler = DeadlineScheduler::new(SchedulerConfig {
            queue_capacity: 16,
            max_batch: 8,
            workers: 2,
        });
        let request = Request {
            id: 1,
            arrival_ms,
            deadline_ms: arrival_ms + predicted + 1.0,
        };
        prop_assert!(scheduler
            .submit(request, service)
            .is_ok());
        let done = scheduler.dispatch(f64::INFINITY, 0, service);
        prop_assert_eq!(done.len(), 1);
        prop_assert!(done[0].start_ms == arrival_ms, "idle worker starts at arrival");
        prop_assert!(
            done[0].finish_ms == done[0].start_ms + predicted,
            "charged completion {} must be start {} + predicted latency {}",
            done[0].finish_ms, done[0].start_ms, predicted
        );
        prop_assert!(done[0].met_deadline);
    }

    /// For any backlog of non-decreasing arrivals, any worker free times
    /// and any batch-amortising service curve, the completion time `submit`
    /// predicts for a newcomer is bit for bit the `finish_ms` a following
    /// `dispatch(∞)` gives it: the prediction replays the batch step
    /// dispatch takes.
    #[test]
    fn admission_prediction_matches_dispatch(
        free_ms in proptest::collection::vec(1.0f64..500.0, 1..5),
        gaps_ms in proptest::collection::vec(0.0f64..40.0, 0..40),
        newcomer_gap_ms in 0.0f64..40.0,
        base_ms in 1.0f64..100.0,
        batch_alpha in 0.0f64..1.0,
        max_batch in 1usize..6,
    ) {
        let service = |b: usize| base_ms * (batch_alpha + (1.0 - batch_alpha) * b as f64);
        let mut scheduler = DeadlineScheduler::new(SchedulerConfig {
            queue_capacity: 64,
            max_batch,
            workers: free_ms.len(),
        });
        // one request per worker, each busy for its own time: the least
        // loaded worker is always the next idle one, so worker i frees up
        // at free_ms[i]
        for (id, &busy_ms) in free_ms.iter().enumerate() {
            let warm = Request { id: id as u64, arrival_ms: 0.0, deadline_ms: f64::INFINITY };
            prop_assert!(scheduler.submit(warm, service).is_ok());
            prop_assert_eq!(scheduler.dispatch(f64::INFINITY, 0, |_| busy_ms).len(), 1);
        }
        let mut arrival_ms = 0.0;
        let mut next_id = free_ms.len() as u64;
        for gap_ms in gaps_ms {
            arrival_ms += gap_ms;
            let request = Request { id: next_id, arrival_ms, deadline_ms: f64::INFINITY };
            prop_assert!(scheduler.submit(request, service).is_ok());
            next_id += 1;
        }
        let newcomer = Request {
            id: next_id,
            arrival_ms: arrival_ms + newcomer_gap_ms,
            deadline_ms: f64::INFINITY,
        };
        let predicted = scheduler.submit(newcomer, service).expect("an infinite deadline is admitted");
        let done = scheduler.dispatch(f64::INFINITY, 0, service);
        let served = done.iter().find(|c| c.id == newcomer.id).expect("dispatch serves the newcomer");
        prop_assert!(
            served.finish_ms.to_bits() == predicted.to_bits(),
            "predicted finish {} differs from the dispatched {}",
            predicted, served.finish_ms
        );
    }
}
