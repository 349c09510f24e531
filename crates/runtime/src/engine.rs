//! The serving engine: plays a [`Scenario`] against the model bank, the
//! battery-aware controller and the deadline scheduler, producing a
//! [`ServeReport`].
//!
//! The engine owns one simulated device, a [`DeviceSim`], and plays the
//! trace as a one-device fleet: the scenario's cliff, charger or thermal
//! cap becomes the device's [`crate::DeviceProfile`], and the fleet's
//! window loop ([`play_windows`]) drives it. That loop advances in
//! one-second windows of simulated time. At each boundary the device reads
//! telemetry (battery state of charge, thermal cap), lets the
//! [`RuntimeController`] pick a level, performs the pattern-set switch when
//! the level changed — charging [`SwitchCost::time_ms`] to the workers and
//! its memory traffic to the battery — then admits and dispatches that
//! window's arrivals. Dispatched micro-batches are also replayed as real
//! sparse inference on the [`crate::pool`] worker pool.

use crate::bank::{BankStats, ModelBank};
use crate::cost::CostModel;
use crate::fleet::{play_windows, OpenLoop, Router, RoutingPolicy};
use crate::governor::DeviceGovernor;
use crate::pool;
use crate::report::{ServeReport, WindowReport};
use crate::scenario::Scenario;
use crate::scheduler::{batches, Completion, RejectReason, Request, SchedulerConfig};
use crate::telemetry::{DeviceTelemetry, ROUTER_UNROUTABLE};
use rt3_core::{Rt3Config, SearchOutcome};
use rt3_hardware::{Battery, LatencyModel, MemoryModel};
use rt3_pruning::PatternSpace;
use rt3_telemetry::{StreamingHistogram, TelemetryConfig, TraceEvent, TraceEventKind, WallClock};
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

/// Serving-engine parameters. The controller hysteresis and the power
/// model are the ones [`DeviceGovernor::new`] builds, and every prediction
/// goes through [`CostModel::analytic`] until
/// [`ServeEngine::set_cost_model`] replaces it.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Battery capacity for the trace, joules.
    pub battery_capacity_j: f64,
    /// Per-request deadline: arrival + this budget, milliseconds. Should be
    /// a small multiple of the timing constraint to absorb queueing.
    pub deadline_budget_ms: f64,
    /// Scheduler parameters.
    pub scheduler: SchedulerConfig,
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
        self.scheduler.validate()
    }
}

/// The online serving engine.
pub struct ServeEngine<'m, M: Model> {
    /// Moved into the per-run [`DeviceSim`] and restored afterwards, so the
    /// bank stays warm across runs; always `Some` between calls.
    bank: Option<ModelBank<'m, M>>,
    rt3: Rt3Config,
    cost: Arc<CostModel>,
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
        if let RuntimePolicy::FixedLevel(pos) = config.policy {
            assert!(
                pos < rt3.governor.levels().len(),
                "fixed level position {pos} outside the governor's {} levels",
                rt3.governor.levels().len()
            );
        }
        let bank = level_bank(model, backbone_masks, space, outcome, &rt3);
        Self {
            bank: Some(bank),
            rt3,
            cost: Arc::new(CostModel::analytic()),
            config,
        }
    }

    /// The model bank (for inspection).
    pub fn bank(&self) -> &ModelBank<'m, M> {
        self.bank.as_ref().expect("bank is restored after each run")
    }

    /// The cost model used for deadline accounting and admission estimates.
    pub fn cost_model(&self) -> &Arc<CostModel> {
        &self.cost
    }

    /// Replaces the cost model (e.g. with the [`CostModel::calibrated`]
    /// model of a [`crate::cost::calibrate`] pass); subsequent runs use it
    /// for every prediction.
    pub fn set_cost_model(&mut self, cost: Arc<CostModel>) {
        self.cost = cost;
    }

    /// Single-request service time at a governor level position, using the
    /// *achieved* sparsity of the banked variant.
    pub fn level_latency_ms(&mut self, level_pos: usize) -> f64 {
        let bank = self.bank.as_mut().expect("bank is restored after each run");
        let sparsity = bank.get(level_pos).sparsity;
        let level = self.rt3.governor.levels()[level_pos];
        self.rt3.latency_model().base_latency_ms(sparsity, &level)
    }

    /// Plays `scenario` to completion and reports the outcome.
    ///
    /// The engine's one device plays the trace through the fleet's window
    /// loop, as a one-device fleet, and the fleet's counts map back onto
    /// the report. The fleet counts a window's admissions as its arrivals,
    /// and an arrival the device did not admit as unroutable; the report
    /// counts every arrival of the window, and an unroutable arrival that
    /// was not rejected as dropped by the dead battery. The telemetry
    /// snapshot records the unroutable arrivals under the router's
    /// `router_unroutable` counter, so it reconciles on its own.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's device event is invalid (a cliff drop
    /// outside `[0, 1]`, a negative or non-finite charger).
    pub fn run(&mut self, scenario: &Scenario) -> ServeReport {
        let profile = scenario.device_profile(self.config.battery_capacity_j);
        profile.validate().expect("invalid scenario");
        let mut device = [DeviceSim::new(
            self.bank.take().expect("bank is restored after each run"),
            self.rt3.latency_model(),
            DeviceGovernor::new(
                self.rt3.governor.clone(),
                Battery::new(self.config.battery_capacity_j),
                self.config.policy,
                Arc::clone(&self.cost),
                self.config.scheduler,
            ),
            self.config.deadline_budget_ms,
            self.config.real_inference,
            scenario.duration_s(),
            DeviceTelemetry::new(self.config.telemetry, Arc::new(WallClock::new())),
        )];
        let mut traffic = OpenLoop::new(self.config.seed);
        let (arrivals, unroutable) = play_windows(
            &mut device,
            std::slice::from_ref(&profile),
            scenario,
            &mut Router::new(RoutingPolicy::BatteryAware),
            &mut traffic,
            None,
        );
        let [device] = device;
        let (mut report, bank) =
            device.into_report(profile.name, self.config.policy.label(&self.rt3));
        self.bank = Some(bank);
        report.arrivals = arrivals;
        report.dropped_dead_battery += unroutable - report.rejected;
        if let Some(snapshot) = &mut report.telemetry {
            let counters = &mut snapshot.metrics.counters;
            counters.push((ROUTER_UNROUTABLE.to_string(), unroutable));
        }
        for (window, &arrivals) in report.windows.iter_mut().zip(&traffic.window_arrivals) {
            window.arrivals = arrivals;
        }
        report
    }
}

/// A bank over the search's best solution that holds every governor level.
///
/// # Panics
///
/// Panics if the search outcome has no feasible best solution, or its
/// action count differs from the governor's level count.
pub(crate) fn level_bank<'m, M: Model>(
    model: &'m M,
    backbone_masks: rt3_transformer::MaskSet,
    space: &PatternSpace,
    outcome: &SearchOutcome,
    rt3: &Rt3Config,
) -> ModelBank<'m, M> {
    let best = outcome
        .best
        .as_ref()
        .expect("search outcome has no feasible solution to serve");
    let levels = rt3.governor.levels().len();
    assert_eq!(
        best.actions.len(),
        levels,
        "one action per governor level is required"
    );
    ModelBank::new(
        model,
        backbone_masks,
        space,
        &best.actions,
        MemoryModel::odroid_xu3(),
        levels,
    )
}

/// One simulated device stepped window-by-window: its governor (battery,
/// controller, active level, scheduler) and model bank, plus the trace,
/// audit, prediction and serve-report state.
///
/// [`play_windows`] steps it: over a one-element slice for
/// [`ServeEngine::run`], over one device per profile for [`crate::Fleet`].
pub(crate) struct DeviceSim<'m, M: Model> {
    bank: ModelBank<'m, M>,
    /// Prices a level's single-request latency at each switch.
    latency: LatencyModel,
    /// Battery, controller, active level and scheduler; the fleet router
    /// reads its state of charge, queue and time to death.
    pub(crate) governor: DeviceGovernor,
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
    completed: u64,
    missed: u64,
    switches: u64,
    switch_time_ms: f64,
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
        latency: LatencyModel,
        governor: DeviceGovernor,
        deadline_budget_ms: f64,
        real_inference: bool,
        duration_hint_s: u32,
        telemetry: Option<DeviceTelemetry>,
    ) -> Self {
        let level_count = governor.levels().len();
        let bank_stats_seen = bank.stats();
        Self {
            bank,
            latency,
            governor,
            deadline_budget_ms,
            real_inference,
            last_switched: false,
            telemetry,
            bank_stats_seen,
            windows: Vec::with_capacity(duration_hint_s as usize),
            latency_hist: StreamingHistogram::new(),
            runs_per_level: vec![0; level_count],
            completed: 0,
            missed: 0,
            switches: 0,
            switch_time_ms: 0.0,
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
        let from_level = self.governor.active_level();
        let (bank, latency) = (&mut self.bank, &self.latency);
        let (metrics, clock) = match &mut self.telemetry {
            Some(t) => (Some((&mut t.shard, &t.ids)), Some(t.clock.as_ref())),
            None => (None, None),
        };
        let (mut switch_time_ms, mut build_wall_ms) = (0.0, None);
        // a switch is priced from the bank: its memory traffic, and the
        // base latency at the banked variant's achieved sparsity (a lazy
        // build the first time the level is used)
        let decision = self.governor.begin_window(
            now_ms,
            WINDOW_S,
            battery_cliff,
            charge_j,
            thermal_cap,
            metrics,
            |governor, level_pos| {
                switch_time_ms = bank.switch_cost(level_pos).time_ms;
                let (builds_before, begin_ms) = (bank.stats().builds, clock.map(|c| c.now_ms()));
                let sparsity = bank.get(level_pos).sparsity;
                if bank.stats().builds > builds_before {
                    build_wall_ms = clock
                        .zip(begin_ms)
                        .map(|(c, begin_ms)| c.now_ms() - begin_ms);
                }
                (
                    latency.base_latency_ms(sparsity, &governor.levels()[level_pos]),
                    switch_time_ms,
                )
            },
        );
        let Some(decision) = decision else {
            self.died_at_s.get_or_insert(t_s);
            return false;
        };
        // `switched` is the *counted* switch (the first model activation is
        // a load, not a switch), so the audited switch count reconciles
        // exactly with the report's
        self.last_switched = decision.switched;
        if decision.switched {
            self.switches += 1;
            self.switch_time_ms += switch_time_ms;
        }
        if let Some(t) = &mut self.telemetry {
            if let Some(wall_ms) = build_wall_ms {
                t.shard.record(t.ids.bank_build_wall_ms, wall_ms);
            }
            if decision.switched {
                // device-level span: the window [now, now+cost] blocks every
                // queued request, and the span analyzer charges the overlap
                // to them
                t.trace_event(TraceEvent {
                    t_ms: now_ms,
                    request_id: 0,
                    kind: TraceEventKind::Switch {
                        from_level: from_level.unwrap_or(decision.chosen_level),
                        to_level: decision.chosen_level,
                        duration_ms: switch_time_ms,
                    },
                });
            }
            t.audit_decision(decision);
        }
        true
    }

    /// Admission control for one routed/arriving request at the active
    /// level, through the governor.
    ///
    /// # Errors
    ///
    /// Returns the scheduler's [`RejectReason`] when the request is turned
    /// away (bounded queue full, or the deadline is already unmeetable).
    pub(crate) fn try_admit(&mut self, request: Request) -> Result<(), RejectReason> {
        let result = self.governor.admit(
            request,
            self.telemetry.as_mut().map(|t| (&mut t.shard, &t.ids)),
        );
        if let Some(t) = &mut self.telemetry {
            let kind = match result {
                Ok(predicted_finish_ms) => {
                    // the admission-time prediction is what the residuals
                    // compare the actual completion latency against — the
                    // certain-miss check already replayed the backlog, so
                    // the audit reuses its answer instead of simulating the
                    // queue a second time
                    let predicted_ms = predicted_finish_ms - request.arrival_ms;
                    t.note_prediction(request.id, predicted_ms);
                    TraceEventKind::Admit {
                        deadline_ms: request.deadline_ms,
                        queue_depth: self.governor.scheduler().queue_len(),
                        predicted_ms,
                    }
                }
                Err(RejectReason::QueueFull) => TraceEventKind::Reject {
                    reason: "queue-full",
                },
                Err(RejectReason::CertainMiss) => TraceEventKind::Reject {
                    reason: "certain-miss",
                },
            };
            t.trace_event(TraceEvent {
                t_ms: request.arrival_ms,
                request_id: request.id,
                kind,
            });
        }
        result.map(|_| ())
    }

    /// Finishes a window on a dead device: its queued requests are lost,
    /// and a dead window report is recorded. Returns the queued requests
    /// the death dropped so closed-loop callers can retry them elsewhere;
    /// open-loop callers ignore the return. A dead device is never routed
    /// to, so the window's arrivals are the router's unroutable ones.
    pub(crate) fn record_dead_window(&mut self, t_s: u32) -> Vec<Request> {
        let dropped_requests = self
            .governor
            .drain_dead(self.telemetry.as_mut().map(|t| (&mut t.shard, &t.ids)));
        self.dropped_dead += dropped_requests.len() as u64;
        if let Some(t) = &mut self.telemetry {
            t.shard.add(t.ids.windows_dead, 1);
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
            arrivals: 0,
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
        // dispatch everything that can start inside this window, with batch
        // service times from the shared cost model and energy charged per
        // completion
        let completions = self.governor.serve_until(
            window_end_ms,
            self.telemetry.as_mut().map(|t| (&mut t.shard, &t.ids)),
        );
        let level_pos = self
            .governor
            .active_level()
            .expect("window began on a live device");

        let mut window_missed = 0u64;
        for completion in &completions {
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
        // one pool batch per dispatched micro-batch
        let mut batch_sizes: Vec<usize> = Vec::new();
        for batch in batches(&completions) {
            if let Some(t) = &mut self.telemetry {
                // one Infer span per dispatched batch (stamped with the
                // batch's first request) bounds trace volume
                t.trace_event(TraceEvent {
                    t_ms: batch[0].start_ms,
                    request_id: batch[0].id,
                    kind: TraceEventKind::Infer {
                        start_ms: batch[0].start_ms,
                        batch: batch.len(),
                        level_pos,
                    },
                });
            }
            batch_sizes.push(batch.len());
        }

        // replay the dispatched batches as real sparse inference; with
        // telemetry on, every worker times its batches and the timings fold
        // into the device shard after the join
        if self.real_inference && !batch_sizes.is_empty() {
            let outcome = pool::run_batches(
                self.bank.get(level_pos),
                &batch_sizes,
                self.governor.scheduler().workers(),
                self.telemetry.as_mut().map(DeviceTelemetry::pool_view),
            );
            self.checksum += outcome.checksum;
            self.real_batches += outcome.batches;
        }

        // background drain
        self.background_energy_j += background_j;
        self.governor.drain(background_j);

        if let Some(t) = &mut self.telemetry {
            t.shard.add(t.ids.windows_served, 1);
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
        let leftover_requests = self.governor.take_queue();
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
        let scheduler = self.governor.scheduler();
        let rejected = scheduler.rejected_queue_full() + scheduler.rejected_certain_miss();
        let report = ServeReport {
            scenario,
            policy,
            cost_model: self.governor.cost().label().to_string(),
            arrivals: self.windows.iter().map(|w| w.arrivals).sum(),
            windows: self.windows,
            completed: self.completed,
            missed_deadline: self.missed,
            rejected,
            dropped_dead_battery: self.dropped_dead,
            dropped_at_trace_end: leftover,
            latency_hist: self.latency_hist,
            switches: self.switches,
            switch_time_ms: self.switch_time_ms,
            inference_energy_j: self.governor.energy_j(),
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
    use crate::scheduler::SchedulerConfig;

    /// Satellite check for the drain-rate telemetry: after every governor
    /// window boundary the device's exported `time_to_death_ms` gauge must
    /// equal what the [`rt3_hardware::DrainRateTracker`] returns for the
    /// current battery state — the router and the dashboards must agree on
    /// when a device dies.
    #[test]
    fn time_to_death_gauge_tracks_the_drain_rate_tracker() {
        let rt3 = Rt3Config::tiny_test();
        let mut governor = DeviceGovernor::new(
            rt3.governor.clone(),
            Battery::new(30.0),
            RuntimePolicy::Adaptive,
            Arc::new(CostModel::analytic()),
            SchedulerConfig::default(),
        );
        let latency = rt3.latency_model();
        let mut telemetry =
            DeviceTelemetry::new(TelemetryConfig::counters(), Arc::new(WallClock::new()))
                .expect("telemetry is on at Counters");

        for t_s in 0..10u32 {
            let now_ms = t_s as f64 * WINDOW_MS;
            let decision = governor.begin_window(
                now_ms,
                WINDOW_S,
                None,
                0.0,
                None,
                Some((&mut telemetry.shard, &telemetry.ids)),
                |governor, level_pos| {
                    let level = &governor.levels()[level_pos];
                    (latency.base_latency_ms(0.8, level), 0.0)
                },
            );
            let gauge = telemetry
                .snapshot()
                .metrics
                .gauge("time_to_death_ms")
                .expect("gauge is registered and set every window");
            assert_eq!(
                gauge,
                governor.time_to_death_ms(),
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
            if decision.is_some() {
                // background load only: 0.5 W drains the battery so the
                // EWMA has a real trajectory to track
                governor.drain(0.5 * WINDOW_S);
            }
        }
    }
}
