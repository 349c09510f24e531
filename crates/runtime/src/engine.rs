//! The serving engine: plays a [`Scenario`] against the model bank, the
//! battery-aware controller and the deadline scheduler, producing a
//! [`ServeReport`].
//!
//! The loop advances in one-second windows of simulated time. At each
//! boundary it reads telemetry (battery state of charge, thermal cap),
//! lets the [`RuntimeController`] pick a level, performs the pattern-set
//! switch when the level changed — charging [`SwitchCost::time_ms`] to the
//! workers and its memory traffic to the battery — then admits and
//! dispatches that window's arrivals. Dispatched micro-batches are also
//! replayed as real sparse inference on the [`crate::pool`] worker pool.

use crate::bank::{BankStats, ModelBank};
use crate::controller::{HysteresisConfig, RuntimeController};
use crate::cost::{Analytic, CostConfig, CostModel, LatencyModel};
use crate::governor::DeviceGovernor;
use crate::pool;
use crate::report::{ServeReport, WindowReport};
use crate::scenario::Scenario;
use crate::scheduler::{Completion, DeadlineScheduler, RejectReason, Request, SchedulerConfig};
use crate::telemetry::DeviceTelemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rt3_core::{Rt3Config, SearchOutcome};
use rt3_hardware::{Battery, MemoryModel, PowerModel};
use rt3_pruning::PatternSpace;
use rt3_telemetry::{
    DecisionRecord, StreamingHistogram, TelemetryConfig, TraceEvent, TraceEventKind, WallClock,
};
use rt3_transformer::Model;
use std::sync::Arc;

/// Length of one simulation window in (simulated) seconds; scenario rates
/// are per-second, so power (W) converts to energy (J) via this factor.
pub(crate) const WINDOW_S: f64 = 1.0;
/// Length of one simulation window in milliseconds.
pub(crate) const WINDOW_MS: f64 = WINDOW_S * 1_000.0;

/// How the engine picks V/F levels at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimePolicy {
    /// Battery-aware reconfiguration: follow the governor with hysteresis
    /// and switch pattern sets alongside the level (the paper's approach).
    Adaptive,
    /// No reconfiguration: stay at one governor level position with its
    /// banked model for the whole trace (the E1-style baseline).
    FixedLevel(usize),
}

impl RuntimePolicy {
    /// Report label.
    pub fn label(&self, config: &Rt3Config) -> String {
        match *self {
            RuntimePolicy::Adaptive => "adaptive".to_string(),
            RuntimePolicy::FixedLevel(pos) => {
                let index = config
                    .governor
                    .levels()
                    .get(pos)
                    .map(|l| l.index)
                    .unwrap_or(pos);
                format!("fixed-l{index}")
            }
        }
    }
}

/// Serving-engine parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Battery capacity for the trace, joules.
    pub battery_capacity_j: f64,
    /// Per-request deadline: arrival + this budget, milliseconds. Should be
    /// a small multiple of the timing constraint to absorb queueing.
    pub deadline_budget_ms: f64,
    /// Scheduler parameters.
    pub scheduler: SchedulerConfig,
    /// Controller hysteresis.
    pub hysteresis: HysteresisConfig,
    /// Shared cost-model configuration (batch amortisation) used to build
    /// the default [`Analytic`] model; swap the whole model with
    /// [`ServeEngine::set_cost_model`].
    pub cost: CostConfig,
    /// Level-selection policy.
    pub policy: RuntimePolicy,
    /// Replay every dispatched micro-batch as real sparse inference on the
    /// worker pool (disable for pure-simulation parameter sweeps).
    pub real_inference: bool,
    /// Traffic seed.
    pub seed: u64,
    /// What the run records ([`rt3_telemetry::TelemetryLevel::Off`] by
    /// default — behaviour and output identical to an uninstrumented build).
    pub telemetry: TelemetryConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            battery_capacity_j: 60.0,
            deadline_budget_ms: 400.0,
            scheduler: SchedulerConfig::default(),
            hysteresis: HysteresisConfig::default(),
            cost: CostConfig::default(),
            policy: RuntimePolicy::Adaptive,
            real_inference: true,
            seed: 0x7233,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.battery_capacity_j > 0.0 && self.battery_capacity_j.is_finite()) {
            return Err("battery_capacity_j must be positive and finite".into());
        }
        if self.deadline_budget_ms <= 0.0 || self.deadline_budget_ms.is_nan() {
            return Err("deadline_budget_ms must be positive".into());
        }
        self.cost.validate()?;
        self.scheduler.validate()?;
        self.hysteresis.validate()?;
        self.telemetry.validate()?;
        Ok(())
    }
}

/// The online serving engine.
pub struct ServeEngine<'m, M: Model> {
    /// Moved into the per-run [`DeviceSim`] and restored afterwards, so the
    /// bank stays warm across runs; always `Some` between calls.
    bank: Option<ModelBank<'m, M>>,
    rt3: Rt3Config,
    cost: Arc<dyn CostModel>,
    config: ServeConfig,
}

impl<'m, M: Model> ServeEngine<'m, M> {
    /// Builds an engine from the offline artifacts: the live model, the
    /// Level-1 backbone masks, the Level-2 pattern space and the search's
    /// best solution.
    ///
    /// # Panics
    ///
    /// Panics if the search outcome has no feasible best solution, the
    /// action count differs from the governor's level count, or the serve
    /// configuration is invalid.
    pub fn new(
        model: &'m M,
        backbone_masks: rt3_transformer::MaskSet,
        space: &PatternSpace,
        outcome: &SearchOutcome,
        rt3: Rt3Config,
        config: ServeConfig,
    ) -> Self {
        config.validate().expect("invalid serve configuration");
        let best = outcome
            .best
            .as_ref()
            .expect("search outcome has no feasible solution to serve");
        assert_eq!(
            best.actions.len(),
            rt3.governor.levels().len(),
            "one action per governor level is required"
        );
        if let RuntimePolicy::FixedLevel(pos) = config.policy {
            assert!(
                pos < rt3.governor.levels().len(),
                "fixed level position {pos} outside the governor's {} levels",
                rt3.governor.levels().len()
            );
        }
        let bank = ModelBank::new(
            model,
            backbone_masks,
            space,
            &best.actions,
            MemoryModel::odroid_xu3(),
            rt3.governor.levels().len(),
        );
        let cost = Arc::new(Analytic::new(
            LatencyModel {
                predictor: rt3.predictor,
                workload_config: rt3.workload_config.clone(),
                seq_len: rt3.seq_len,
            },
            config.cost,
        ));
        Self {
            bank: Some(bank),
            rt3,
            cost,
            config,
        }
    }

    /// The model bank (for inspection).
    pub fn bank(&self) -> &ModelBank<'m, M> {
        self.bank.as_ref().expect("bank is restored after each run")
    }

    /// The cost model used for deadline accounting and admission estimates.
    pub fn cost_model(&self) -> &Arc<dyn CostModel> {
        &self.cost
    }

    /// Replaces the cost model (e.g. with a [`crate::cost::Calibrated`]
    /// model from a [`crate::cost::calibrate`] pass); subsequent runs use
    /// it for every prediction.
    pub fn set_cost_model(&mut self, cost: Arc<dyn CostModel>) {
        self.cost = cost;
    }

    /// Single-request service time at a governor level position, using the
    /// *achieved* sparsity of the banked variant.
    pub fn level_latency_ms(&mut self, level_pos: usize) -> f64 {
        let bank = self.bank.as_mut().expect("bank is restored after each run");
        let sparsity = bank.get(level_pos).sparsity;
        let level = self.rt3.governor.levels()[level_pos];
        self.cost.base_latency_ms(sparsity, &level)
    }

    /// Plays `scenario` to completion and reports the outcome.
    pub fn run(&mut self, scenario: &Scenario) -> ServeReport {
        let mut device = DeviceSim::new(
            self.bank.take().expect("bank is restored after each run"),
            DeviceGovernor::new(
                RuntimeController::new(self.rt3.governor.clone(), self.config.hysteresis),
                Battery::new(self.config.battery_capacity_j),
                self.config.policy,
                Arc::clone(&self.cost),
                PowerModel::cortex_a7(),
                self.config.scheduler.workers,
            ),
            DeadlineScheduler::new(self.config.scheduler),
            self.config.deadline_budget_ms,
            self.config.real_inference,
            scenario.duration_s(),
            DeviceTelemetry::new(self.config.telemetry, Arc::new(WallClock::new())),
        );
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut next_id = 0u64;

        for t_s in 0..scenario.duration_s() {
            let now_ms = t_s as f64 * WINDOW_MS;
            let window_end_ms = now_ms + WINDOW_MS;

            let serving = device.begin_window(
                t_s,
                now_ms,
                scenario.battery_cliff(t_s),
                scenario.charge_w(t_s) * WINDOW_S,
                scenario.thermal_cap(t_s),
            );
            let arrival_offsets = scenario.arrivals_in_second(t_s, &mut rng);

            if !serving {
                device.record_dead_window(t_s, arrival_offsets.len() as u64);
                continue;
            }

            let mut rejected_window = 0u64;
            for offset in &arrival_offsets {
                let arrival_ms = now_ms + offset;
                let request = Request {
                    id: next_id,
                    arrival_ms,
                    deadline_ms: arrival_ms + self.config.deadline_budget_ms,
                };
                next_id += 1;
                if device.try_admit(request).is_err() {
                    rejected_window += 1;
                }
            }

            device.end_window(
                t_s,
                window_end_ms,
                arrival_offsets.len() as u64,
                rejected_window,
                scenario.background_w(t_s) * WINDOW_S,
            );
        }

        let (report, bank) = device.into_report(
            scenario.name().to_string(),
            self.config.policy.label(&self.rt3),
        );
        self.bank = Some(bank);
        report
    }
}

/// One simulated device stepped window-by-window: its governor (battery,
/// controller, active level), scheduler and model bank, plus the
/// serve-report accumulators.
///
/// [`ServeEngine::run`] drives a single `DeviceSim` from a [`Scenario`];
/// [`crate::Fleet`] drives several of them from a
/// [`crate::FleetScenario`], with arrivals assigned by the router instead of
/// taken straight from the trace.
pub(crate) struct DeviceSim<'m, M: Model> {
    bank: ModelBank<'m, M>,
    /// Battery, controller and active level; the fleet router reads its
    /// state of charge and time to death.
    pub(crate) governor: DeviceGovernor,
    pub(crate) scheduler: DeadlineScheduler,
    pub(crate) deadline_budget_ms: f64,
    real_inference: bool,
    /// Whether the current window's [`DeviceSim::begin_window`] performed a
    /// counted pattern-set switch (recorded on the window report).
    last_switched: bool,
    /// Telemetry recording state (`None` when the level is `Off`, which
    /// keeps the hot path identical to an uninstrumented build).
    telemetry: Option<DeviceTelemetry>,
    /// Bank statistics already folded into the telemetry counters; the
    /// per-window delta against [`ModelBank::stats`] is what gets recorded
    /// (the bank may arrive pre-warmed from an earlier run).
    bank_stats_seen: BankStats,
    // report accumulators
    windows: Vec<WindowReport>,
    latency_hist: StreamingHistogram,
    runs_per_level: Vec<u64>,
    arrivals_total: u64,
    completed: u64,
    missed: u64,
    switches: u64,
    switch_time_ms: f64,
    inference_energy_j: f64,
    background_energy_j: f64,
    died_at_s: Option<u32>,
    dropped_dead: u64,
    checksum: f64,
    real_batches: u64,
}

impl<'m, M: Model> DeviceSim<'m, M> {
    /// Builds a device around pre-constructed components (fleet devices
    /// start their governors at heterogeneous charge).
    pub(crate) fn new(
        bank: ModelBank<'m, M>,
        governor: DeviceGovernor,
        scheduler: DeadlineScheduler,
        deadline_budget_ms: f64,
        real_inference: bool,
        duration_hint_s: u32,
        telemetry: Option<DeviceTelemetry>,
    ) -> Self {
        let level_count = governor.level_count();
        let bank_stats_seen = bank.stats();
        Self {
            bank,
            governor,
            scheduler,
            deadline_budget_ms,
            real_inference,
            last_switched: false,
            telemetry,
            bank_stats_seen,
            windows: Vec::with_capacity(duration_hint_s as usize),
            latency_hist: StreamingHistogram::new(),
            runs_per_level: vec![0; level_count],
            arrivals_total: 0,
            completed: 0,
            missed: 0,
            switches: 0,
            switch_time_ms: 0.0,
            inference_energy_j: 0.0,
            background_energy_j: 0.0,
            died_at_s: None,
            dropped_dead: 0,
            checksum: 0.0,
            real_batches: 0,
        }
    }

    /// Battery events, death bookkeeping, level decision and pattern-set
    /// switch for the window starting at `t_s`, all through the governor.
    /// Returns `false` when the device is (now) dead; the caller must then
    /// finish the window with [`DeviceSim::record_dead_window`] instead of
    /// admitting traffic.
    pub(crate) fn begin_window(
        &mut self,
        t_s: u32,
        now_ms: f64,
        battery_cliff: Option<f64>,
        charge_j: f64,
        thermal_cap: Option<usize>,
    ) -> bool {
        // the dwell must be read *before* the decision (a switch resets it)
        let dwell_ms = self.governor.ms_since_last_switch(now_ms);
        let decision =
            self.governor
                .begin_window(now_ms, WINDOW_S, battery_cliff, charge_j, thermal_cap);
        if let Some(t) = &mut self.telemetry {
            self.governor.record_battery(&mut t.shard, &t.ids);
        }
        let Some(decision) = decision else {
            self.died_at_s.get_or_insert(t_s);
            return false;
        };
        // the audit records the battery the decision saw, before a switch
        // drains its energy
        let state_of_charge = self.governor.state_of_charge();
        let time_to_death_ms = self.governor.time_to_death_ms();

        // pattern-set switch: the governor charges time to the workers and
        // energy to the battery (the very first activation is a model
        // load, not a run-time switch, and is not counted). The base
        // latency only changes on a switch, so the governor caches it
        // rather than recomputing it per window/batch.
        let level_pos = decision.level_pos;
        let from_level = self.governor.active_level();
        let mut counted_switch = false;
        if decision.switched {
            let switch_time_ms = self.bank.switch_cost(level_pos).time_ms;
            let build_timer = self
                .telemetry
                .as_ref()
                .map(|t| (self.bank.stats().builds, t.clock.now_ms()));
            let sparsity = self.bank.get(level_pos).sparsity; // lazy build
            if let (Some((builds_before, begin_ms)), Some(t)) =
                (build_timer, self.telemetry.as_mut())
            {
                if self.bank.stats().builds > builds_before {
                    t.shard
                        .record(t.ids.bank_build_wall_ms, t.clock.now_ms() - begin_ms);
                }
            }
            let base_ms = self.governor.base_latency_ms(sparsity, level_pos);
            if let Some(energy_j) = self.governor.activate(
                level_pos,
                base_ms,
                switch_time_ms,
                now_ms,
                &mut self.scheduler,
            ) {
                counted_switch = true;
                self.switches += 1;
                self.switch_time_ms += switch_time_ms;
                self.inference_energy_j += energy_j;
                if let Some(t) = &mut self.telemetry {
                    t.shard.add(t.ids.switches, 1);
                    t.shard.record(t.ids.switch_time_ms, switch_time_ms);
                    // device-level span: the window [now, now+cost] blocks
                    // every queued request, and the span analyzer charges
                    // the overlap to them
                    t.trace_event(TraceEvent {
                        t_ms: now_ms,
                        request_id: 0,
                        kind: TraceEventKind::Switch {
                            from_level: from_level.unwrap_or(level_pos),
                            to_level: level_pos,
                            duration_ms: switch_time_ms,
                        },
                    });
                }
            }
        }
        self.last_switched = counted_switch;
        if let Some(t) = &mut self.telemetry {
            t.shard.set(t.ids.active_level, level_pos as f64);
        }
        if let Some(t) = self.telemetry.as_mut().filter(|t| t.full()) {
            // `switched` records the engine's *counted* switch (the first
            // model activation is a load, not a switch), so the audited
            // switch count reconciles exactly with the report's
            t.audit_decision(DecisionRecord {
                t_ms: now_ms,
                state_of_charge,
                thermal_cap,
                raw_target: self.governor.raw_target(state_of_charge),
                chosen_level: level_pos,
                switched: counted_switch,
                dwell_ms,
                time_to_death_ms,
                predicted_latency_ms: self.governor.active_base_ms(),
            });
        }
        true
    }

    /// Admission control for one routed/arriving request, using the active
    /// level's base latency as the service estimate.
    ///
    /// # Errors
    ///
    /// Returns the scheduler's [`RejectReason`] when the request is turned
    /// away (bounded queue full, or the deadline is already unmeetable).
    pub(crate) fn try_admit(&mut self, request: Request) -> Result<(), RejectReason> {
        let arrival_ms = request.arrival_ms;
        let result = self.scheduler.submit(request, self.governor.service());
        if let Some(t) = &mut self.telemetry {
            match result {
                Ok(predicted_finish_ms) => {
                    // the admission-time prediction is what the residuals
                    // compare the actual completion latency against — the
                    // certain-miss check already replayed the backlog, so
                    // the audit reuses its answer instead of simulating the
                    // queue a second time
                    let predicted_ms = predicted_finish_ms - arrival_ms;
                    t.shard.add(t.ids.admitted, 1);
                    t.shard
                        .set(t.ids.queue_depth, self.scheduler.queue_len() as f64);
                    t.note_prediction(request.id, predicted_ms);
                    t.trace_event(TraceEvent {
                        t_ms: request.arrival_ms,
                        request_id: request.id,
                        kind: TraceEventKind::Admit {
                            deadline_ms: request.deadline_ms,
                            queue_depth: self.scheduler.queue_len(),
                            predicted_ms,
                        },
                    });
                }
                Err(reason) => {
                    let (counter, label) = match reason {
                        RejectReason::QueueFull => (t.ids.rejected_queue_full, "queue-full"),
                        RejectReason::CertainMiss => (t.ids.rejected_certain_miss, "certain-miss"),
                    };
                    t.shard.add(counter, 1);
                    t.trace_event(TraceEvent {
                        t_ms: request.arrival_ms,
                        request_id: request.id,
                        kind: TraceEventKind::Reject { reason: label },
                    });
                }
            }
        }
        result.map(|_| ())
    }

    /// Finishes a window on a dead device: queued and incoming requests are
    /// lost, and a dead window report is recorded. Returns the queued
    /// requests the death dropped so closed-loop callers can retry them
    /// elsewhere; open-loop callers ignore the return.
    pub(crate) fn record_dead_window(&mut self, t_s: u32, arrivals: u64) -> Vec<Request> {
        self.arrivals_total += arrivals;
        let dropped_requests = self.scheduler.drain_queue();
        self.dropped_dead += dropped_requests.len() as u64 + arrivals;
        if let Some(t) = &mut self.telemetry {
            t.shard.add(t.ids.windows_dead, 1);
            // the count includes this window's arrivals, which never became
            // requests (no ids) and therefore leave no individual trace
            t.shard
                .add(t.ids.dropped_dead, dropped_requests.len() as u64 + arrivals);
            t.shard.set(t.ids.queue_depth, 0.0);
            let now_ms = t_s as f64 * WINDOW_MS;
            for request in &dropped_requests {
                t.settle_prediction(request.id, None);
                t.trace_event(TraceEvent {
                    t_ms: now_ms,
                    request_id: request.id,
                    kind: TraceEventKind::Drop {
                        reason: "dead-battery",
                    },
                });
            }
            // dead windows still scrape: the cliff alert's view of the
            // battery gauges must continue through death
            t.observe_window(t_s, (t_s + 1) as f64 * WINDOW_MS);
        }
        self.windows.push(WindowReport {
            t_s,
            level_pos: None,
            state_of_charge: self.governor.state_of_charge(),
            arrivals,
            completed: 0,
            missed: 0,
            rejected: 0,
            switched: false,
        });
        dropped_requests
    }

    /// Dispatches, charges energy, replays real inference and records the
    /// window report for a live window started with
    /// [`DeviceSim::begin_window`]. Returns this window's completions so
    /// closed-loop callers can settle per-request outcomes (deadline met or
    /// missed); open-loop callers ignore the return.
    pub(crate) fn end_window(
        &mut self,
        t_s: u32,
        window_end_ms: f64,
        arrivals: u64,
        rejected_window: u64,
        background_j: f64,
    ) -> Vec<Completion> {
        self.arrivals_total += arrivals;
        let level_pos = self
            .governor
            .active_level()
            .expect("window began on a live device");

        // 4. dispatch everything that can start inside this window, with
        //    batch service times charged by the shared cost model
        let completions =
            self.scheduler
                .dispatch(window_end_ms, level_pos, self.governor.service());

        // 5. charge inference energy per completion through the governor
        let mut window_missed = 0u64;
        for completion in &completions {
            self.inference_energy_j += self.governor.charge_completion(completion);
            self.completed += 1;
            self.runs_per_level[completion.level_pos] += 1;
            self.latency_hist.record(completion.latency_ms());
            if !completion.met_deadline {
                window_missed += 1;
            }
            if let Some(t) = &mut self.telemetry {
                t.ids.record_completion(&mut t.shard, completion);
                if t.full() {
                    let predicted_ms =
                        t.settle_prediction(completion.id, Some(completion.latency_ms()));
                    t.trace_event(TraceEvent {
                        t_ms: completion.finish_ms,
                        request_id: completion.id,
                        kind: TraceEventKind::Complete {
                            arrival_ms: completion.arrival_ms,
                            start_ms: completion.start_ms,
                            finish_ms: completion.finish_ms,
                            batch: completion.batch,
                            level_pos: completion.level_pos,
                            met_deadline: completion.met_deadline,
                            predicted_ms,
                        },
                    });
                }
            }
        }
        self.missed += window_missed;
        // one pool batch per dispatched micro-batch: the scheduler pushes
        // a batch's completions consecutively and stamps each with the
        // batch size, so stepping by that size recovers the batches even
        // when several start at the same instant on different workers
        let mut batch_sizes: Vec<usize> = Vec::new();
        let mut i = 0;
        while i < completions.len() {
            let batch = completions[i].batch;
            if let Some(t) = &mut self.telemetry {
                t.shard.record(t.ids.batch_size, batch as f64);
                // one Infer span per dispatched batch (stamped with the
                // batch's first request) bounds trace volume
                t.trace_event(TraceEvent {
                    t_ms: completions[i].start_ms,
                    request_id: completions[i].id,
                    kind: TraceEventKind::Infer {
                        start_ms: completions[i].start_ms,
                        batch,
                        level_pos,
                    },
                });
            }
            batch_sizes.push(batch);
            i += batch;
        }

        // 6. replay the dispatched batches as real sparse inference; with
        //    telemetry on, every worker times its batches and the timings
        //    fold into the device shard after the join
        if self.real_inference && !batch_sizes.is_empty() {
            let outcome = match &mut self.telemetry {
                Some(t) => {
                    let (pool_telemetry, shard) = t.pool_view();
                    pool::run_batches_instrumented(
                        self.bank.get(level_pos),
                        &batch_sizes,
                        self.scheduler.workers(),
                        &pool_telemetry,
                        shard,
                    )
                }
                None => pool::run_batches(
                    self.bank.get(level_pos),
                    &batch_sizes,
                    self.scheduler.workers(),
                ),
            };
            self.checksum += outcome.checksum;
            self.real_batches += outcome.batches;
        }

        // 7. background drain
        self.background_energy_j += background_j;
        self.governor.drain(background_j);

        if let Some(t) = &mut self.telemetry {
            t.shard.add(t.ids.windows_served, 1);
            t.shard
                .set(t.ids.queue_depth, self.scheduler.queue_len() as f64);
            // fold this window's bank activity (hits from pool lookups,
            // builds/evictions from switches) into the counters
            let stats = self.bank.stats();
            t.shard
                .add(t.ids.bank_hits, stats.hits - self.bank_stats_seen.hits);
            t.shard.add(
                t.ids.bank_builds,
                stats.builds - self.bank_stats_seen.builds,
            );
            t.shard.add(
                t.ids.bank_evictions,
                stats.evictions - self.bank_stats_seen.evictions,
            );
            self.bank_stats_seen = stats;
            // window boundary: scrape the shard into the live series and
            // evaluate the alert rules (Full only; deterministic under seed)
            t.observe_window(t_s, window_end_ms);
        }

        self.windows.push(WindowReport {
            t_s,
            level_pos: Some(level_pos),
            state_of_charge: self.governor.state_of_charge(),
            arrivals,
            completed: completions.len() as u64,
            missed: window_missed,
            rejected: rejected_window,
            switched: self.last_switched,
        });
        completions
    }

    /// A snapshot of everything telemetry has recorded so far (`None` when
    /// telemetry is off). Used by tests to inspect gauges mid-run;
    /// [`DeviceSim::into_report`] takes the final one.
    #[cfg(test)]
    pub(crate) fn telemetry_snapshot(&self) -> Option<rt3_telemetry::TelemetrySnapshot> {
        self.telemetry.as_ref().map(|t| t.snapshot())
    }

    /// Finalises the run: drops leftover queue entries and assembles the
    /// [`ServeReport`]. Returns the bank alongside so callers that own it
    /// (the single-device engine) can keep it warm across runs.
    pub(crate) fn into_report(
        mut self,
        scenario: String,
        policy: String,
    ) -> (ServeReport, ModelBank<'m, M>) {
        // requests still queued when the trace ends count as misses, but are
        // reported separately from admission rejections
        let leftover_requests = self.scheduler.drain_queue();
        let leftover = leftover_requests.len() as u64;
        let telemetry = self.telemetry.as_mut().map(|t| {
            t.shard.add(t.ids.dropped_trace_end, leftover);
            let end_ms = self
                .windows
                .last()
                .map_or(0.0, |w| (w.t_s + 1) as f64 * WINDOW_MS);
            for request in &leftover_requests {
                t.settle_prediction(request.id, None);
                t.trace_event(TraceEvent {
                    t_ms: end_ms,
                    request_id: request.id,
                    kind: TraceEventKind::Drop {
                        reason: "trace-end",
                    },
                });
            }
            t.snapshot()
        });
        let rejected =
            self.scheduler.rejected_queue_full() + self.scheduler.rejected_certain_miss();
        let report = ServeReport {
            scenario,
            policy,
            cost_model: self.governor.cost().label().to_string(),
            windows: self.windows,
            arrivals: self.arrivals_total,
            completed: self.completed,
            missed_deadline: self.missed,
            rejected,
            dropped_dead_battery: self.dropped_dead,
            dropped_at_trace_end: leftover,
            latency_hist: self.latency_hist,
            switches: self.switches,
            switch_time_ms: self.switch_time_ms,
            inference_energy_j: self.inference_energy_j,
            background_energy_j: self.background_energy_j,
            runs_per_level: self.runs_per_level,
            final_state_of_charge: self.governor.state_of_charge(),
            died_at_s: self.died_at_s,
            inference_checksum: self.checksum,
            real_batches: self.real_batches,
            telemetry,
        };
        (report, self.bank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt3_core::{
        build_search_space, run_level1, run_level2_search, SurrogateEvaluator, TaskProfile,
    };
    use rt3_transformer::{TransformerConfig, TransformerLm};

    /// Satellite check for the drain-rate telemetry: after every
    /// `begin_window` the exported `time_to_death_ms` gauge must equal what
    /// the [`DrainRateTracker`] returns for the current battery state —
    /// the router and the dashboards must agree on when a device dies.
    #[test]
    fn time_to_death_gauge_tracks_the_drain_rate_tracker() {
        let model = TransformerLm::new(TransformerConfig::tiny(32), 13);
        let rt3 = Rt3Config::tiny_test();
        let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
        let backbone = run_level1(&model, &rt3, &mut evaluator);
        let space = build_search_space(&model, &backbone, &rt3);
        let outcome = run_level2_search(&model, &backbone, &space, &rt3, &mut evaluator);
        let best = outcome.best.as_ref().expect("feasible solution");

        let bank = ModelBank::new(
            &model,
            backbone.masks.clone(),
            &space,
            &best.actions,
            MemoryModel::odroid_xu3(),
            rt3.governor.levels().len(),
        );
        let config = ServeConfig {
            battery_capacity_j: 30.0,
            real_inference: false,
            ..ServeConfig::default()
        };
        let cost: Arc<dyn CostModel> = Arc::new(Analytic::new(
            LatencyModel {
                predictor: rt3.predictor,
                workload_config: rt3.workload_config.clone(),
                seq_len: rt3.seq_len,
            },
            config.cost,
        ));
        let mut device = DeviceSim::new(
            bank,
            DeviceGovernor::new(
                RuntimeController::new(rt3.governor.clone(), config.hysteresis),
                Battery::new(config.battery_capacity_j),
                RuntimePolicy::Adaptive,
                cost,
                PowerModel::cortex_a7(),
                config.scheduler.workers,
            ),
            DeadlineScheduler::new(config.scheduler),
            config.deadline_budget_ms,
            false,
            10,
            DeviceTelemetry::new(TelemetryConfig::counters(), Arc::new(WallClock::new())),
        );

        for t_s in 0..10u32 {
            let now_ms = t_s as f64 * WINDOW_MS;
            let serving = device.begin_window(t_s, now_ms, None, 0.0, None);
            let snapshot = device
                .telemetry_snapshot()
                .expect("telemetry is on at Counters");
            let gauge = snapshot
                .metrics
                .gauge("time_to_death_ms")
                .expect("gauge is registered and set every window");
            assert_eq!(
                gauge,
                device.governor.time_to_death_ms(),
                "window {t_s}: exported gauge must match the tracker"
            );
            if t_s == 0 {
                // no drain observed yet: the tracker reports an infinite
                // horizon and the gauge must carry it through unchanged
                assert!(gauge.is_infinite());
            } else {
                assert!(
                    gauge.is_finite() && gauge > 0.0,
                    "window {t_s}: background drain must bound the horizon"
                );
            }
            if serving {
                // background load only: 0.5 W drains the battery so the
                // EWMA has a real trajectory to track
                device.end_window(t_s, now_ms + WINDOW_MS, 0, 0, 0.5 * WINDOW_S);
            }
        }
    }
}
