//! Glue between the serving engine and `rt3-telemetry`: the per-device
//! metric schema, the trace/audit recorders and the prediction bookkeeping
//! behind the cost-model residuals.
//!
//! A [`DeviceTelemetry`] exists only when the configured
//! [`TelemetryLevel`] is above `Off` — the engine holds an
//! `Option<DeviceTelemetry>`, so an uninstrumented run touches no telemetry
//! code at all. At `Counters` the device keeps one [`MetricShard`] of
//! counters/gauges/histograms (pool workers time their batches locally and
//! the timings fold into that shard at window boundaries); `Full` adds the
//! request trace, the controller decision audit and per-request prediction
//! tracking for the residuals.

use crate::scheduler::Completion;
use rt3_telemetry::{
    Clock, CounterId, DecisionAudit, DecisionRecord, GaugeId, HistogramId, MetricRegistry,
    MetricShard, ObsPlane, TelemetryConfig, TelemetryLevel, TelemetrySnapshot, TraceEvent,
    TraceRecorder,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Pass-through hasher for request-id keys: ids are dense sequential
/// integers, so they distribute over the table without mixing, and the
/// per-request SipHash cost (twice per request at `Full`: note + settle)
/// is measurable against the telemetry overhead budget.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // only u64 keys are expected, but stay correct for any input
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id;
    }
}

/// Declares the device metric schema once: per entry, the handle field,
/// its id type, and the registry call with the exported name.
macro_rules! device_schema {
    ($($field:ident: $id:ident = $kind:ident($name:literal),)*) => {
        /// The fixed metric schema of one serving device, shared by the
        /// simulated device and the socket server. Names are part of the
        /// JSONL contract documented in DESIGN.md §9; each field is the
        /// handle of the name it documents.
        #[derive(Debug, Clone, Copy)]
        pub struct DeviceMetricIds {
            $(#[doc = concat!("`", $name, "`")] pub $field: $id,)*
        }

        impl DeviceMetricIds {
            /// Registers every name of the schema in `registry`, in order.
            pub fn register(registry: &mut MetricRegistry) -> Self {
                Self { $($field: registry.$kind($name),)* }
            }
        }
    };
}

device_schema! {
    // scheduler / admission
    admitted: CounterId = counter("requests_admitted"),
    rejected_queue_full: CounterId = counter("requests_rejected_queue_full"),
    rejected_certain_miss: CounterId = counter("requests_rejected_certain_miss"),
    completed: CounterId = counter("requests_completed"),
    deadline_missed: CounterId = counter("deadline_missed"),
    dropped_dead: CounterId = counter("requests_dropped_dead"),
    dropped_trace_end: CounterId = counter("requests_dropped_trace_end"),
    queue_depth: GaugeId = gauge("queue_depth"),
    // controller / battery
    switches: CounterId = counter("switches"),
    windows_served: CounterId = counter("windows_served"),
    windows_dead: CounterId = counter("windows_dead"),
    state_of_charge: GaugeId = gauge("state_of_charge"),
    active_level: GaugeId = gauge("active_level"),
    drain_rate_w: GaugeId = gauge("drain_rate_w"),
    time_to_death_ms: GaugeId = gauge("time_to_death_ms"),
    switch_time_ms: HistogramId = histogram("switch_time_ms"),
    // latency breakdown
    latency_ms: HistogramId = histogram("latency_ms"),
    queue_wait_ms: HistogramId = histogram("queue_wait_ms"),
    infer_ms: HistogramId = histogram("infer_ms"),
    batch_size: HistogramId = histogram("batch_size"),
    // model bank
    bank_hits: CounterId = counter("bank_hits"),
    bank_builds: CounterId = counter("bank_builds"),
    bank_evictions: CounterId = counter("bank_evictions"),
    bank_build_wall_ms: HistogramId = histogram("bank_build_wall_ms"),
    // worker pool (timed locally per worker, folded in per window)
    pool_batches: CounterId = counter("pool_batches"),
    pool_batch_wall_ms: HistogramId = histogram("pool_batch_wall_ms"),
}

impl DeviceMetricIds {
    /// Records one completed request: the completion counter, the latency
    /// breakdown and, when late, the miss counter.
    pub fn record_completion(&self, shard: &mut MetricShard, completion: &Completion) {
        shard.add(self.completed, 1);
        shard.record(self.latency_ms, completion.latency_ms());
        shard.record(
            self.queue_wait_ms,
            completion.start_ms - completion.arrival_ms,
        );
        shard.record(self.infer_ms, completion.finish_ms - completion.start_ms);
        if !completion.met_deadline {
            shard.add(self.deadline_missed, 1);
        }
    }
}

/// Live telemetry state of one serving device.
pub(crate) struct DeviceTelemetry {
    level: TelemetryLevel,
    registry: MetricRegistry,
    pub(crate) shard: MetricShard,
    pub(crate) ids: DeviceMetricIds,
    pub(crate) clock: Arc<dyn Clock>,
    trace: Option<TraceRecorder>,
    audit: Option<DecisionAudit>,
    /// Cost-model latency prediction made at admission, keyed by request id;
    /// entries are removed on completion or drop, so the map is bounded by
    /// the scheduler's queue dynamics. `Full` level only.
    pending_predictions: HashMap<u64, f64, BuildHasherDefault<IdHasher>>,
    /// Live series + alerting, scraped once per governor window. `Full`
    /// level only.
    obs: Option<ObsPlane>,
}

impl DeviceTelemetry {
    /// Builds the device's recording state, or `None` when `config.level`
    /// is [`TelemetryLevel::Off`] — the caller then skips telemetry
    /// entirely, keeping the uninstrumented hot path byte-identical to the
    /// seed behaviour.
    pub(crate) fn new(config: TelemetryConfig, clock: Arc<dyn Clock>) -> Option<Self> {
        if !config.level.counters_enabled() {
            return None;
        }
        config.validate().expect("invalid telemetry configuration");
        let mut registry = MetricRegistry::new();
        let ids = DeviceMetricIds::register(&mut registry);
        let shard = registry.shard();
        let (trace, audit, obs) = if config.level.full_enabled() {
            (
                Some(TraceRecorder::new(config.trace_capacity)),
                Some(DecisionAudit::new(config.audit_capacity)),
                Some(ObsPlane::standard(
                    crate::engine::WINDOW_MS,
                    config.series_capacity,
                )),
            )
        } else {
            (None, None, None)
        };
        Some(Self {
            level: config.level,
            registry,
            shard,
            ids,
            clock,
            trace,
            audit,
            pending_predictions: HashMap::default(),
            obs,
        })
    }

    /// Whether the full level (trace + audit) is active.
    pub(crate) fn full(&self) -> bool {
        self.level.full_enabled()
    }

    /// Records a trace event (no-op below `Full`).
    pub(crate) fn trace_event(&mut self, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.record(event);
        }
    }

    /// Records a controller decision (no-op below `Full`).
    pub(crate) fn audit_decision(&mut self, record: DecisionRecord) {
        if let Some(audit) = &mut self.audit {
            audit.record(record);
        }
    }

    /// Remembers the admission-time latency prediction of a request
    /// (no-op below `Full`).
    pub(crate) fn note_prediction(&mut self, request_id: u64, predicted_ms: f64) {
        if self.full() {
            self.pending_predictions.insert(request_id, predicted_ms);
        }
    }

    /// Pops the remembered prediction for a finished request and, when
    /// `actual_ms` is given, folds the prediction-vs-actual residual into
    /// the audit. Returns the prediction (NaN when none was tracked) for
    /// the `Complete` trace event.
    pub(crate) fn settle_prediction(&mut self, request_id: u64, actual_ms: Option<f64>) -> f64 {
        let predicted = self
            .pending_predictions
            .remove(&request_id)
            .unwrap_or(f64::NAN);
        if let (Some(actual), Some(audit)) = (actual_ms, self.audit.as_mut()) {
            audit.record_residual(predicted, actual);
        }
        predicted
    }

    /// The hooks an instrumented [`crate::pool`] run needs — the clock and
    /// the pool metric ids — plus the device shard the timings fold into
    /// after the workers join (split-borrowed so both can be held at once).
    pub(crate) fn pool_view(&mut self) -> (crate::pool::PoolTelemetry<'_>, &mut MetricShard) {
        (
            crate::pool::PoolTelemetry {
                clock: self.clock.as_ref(),
                batches: self.ids.pool_batches,
                batch_wall_ms: self.ids.pool_batch_wall_ms,
            },
            &mut self.shard,
        )
    }

    /// Scrapes the device's metric shard into the observability plane as
    /// window `t_s` ending at `end_ms` (no-op below `Full`). Called once
    /// per governor window by the engine, which makes series and alert
    /// evaluation deterministic under a seed.
    pub(crate) fn observe_window(&mut self, t_s: u32, end_ms: f64) {
        if let Some(obs) = &mut self.obs {
            let snapshot = self.registry.snapshot(&self.shard);
            obs.observe_window(t_s, end_ms, snapshot);
        }
    }

    /// Detaches everything recorded so far into a snapshot for the report.
    pub(crate) fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            level: self.level,
            metrics: self.registry.snapshot(&self.shard),
            trace: self.trace.as_ref().map(|t| t.events()).unwrap_or_default(),
            trace_overwritten: self.trace.as_ref().map(|t| t.overwritten()).unwrap_or(0),
            decisions: self
                .audit
                .as_ref()
                .map(|a| a.decisions())
                .unwrap_or_default(),
            decisions_overwritten: self.audit.as_ref().map(|a| a.overwritten()).unwrap_or(0),
            residuals: self
                .audit
                .as_ref()
                .map(|a| a.residuals())
                .unwrap_or_default(),
            obs: self.obs.as_ref().map(|o| o.snapshot()),
        }
    }
}

/// The fleet router's metric schema: per-device route/failover counters
/// plus fleet-wide admission totals. Also part of the DESIGN.md §9 JSONL
/// contract.
pub(crate) struct FleetTelemetry {
    registry: MetricRegistry,
    shard: MetricShard,
    pub(crate) arrivals: CounterId,
    pub(crate) unroutable: CounterId,
    /// One counter per device: requests the router placed there.
    pub(crate) routed: Vec<CounterId>,
    /// One counter per device: admissions that bounced off it (failovers).
    pub(crate) failovers: Vec<CounterId>,
    level: TelemetryLevel,
}

impl FleetTelemetry {
    /// Builds the router's recording state over `device_names`, or `None`
    /// when telemetry is off.
    pub(crate) fn new(config: TelemetryConfig, device_names: &[String]) -> Option<Self> {
        if !config.level.counters_enabled() {
            return None;
        }
        let mut registry = MetricRegistry::new();
        let arrivals = registry.counter("router_arrivals");
        let unroutable = registry.counter("router_unroutable");
        let routed = device_names
            .iter()
            .map(|name| registry.counter(&format!("routed_to:{name}")))
            .collect();
        let failovers = device_names
            .iter()
            .map(|name| registry.counter(&format!("failover_from:{name}")))
            .collect();
        let shard = registry.shard();
        Some(Self {
            registry,
            shard,
            arrivals,
            unroutable,
            routed,
            failovers,
            level: config.level,
        })
    }

    /// Adds to one of the registered counters.
    pub(crate) fn add(&mut self, id: CounterId, delta: u64) {
        self.shard.add(id, delta);
    }

    /// Detaches the router metrics into a snapshot for the fleet report.
    pub(crate) fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            level: self.level,
            metrics: self.registry.snapshot(&self.shard),
            trace: Vec::new(),
            trace_overwritten: 0,
            decisions: Vec::new(),
            decisions_overwritten: 0,
            residuals: Default::default(),
            obs: None,
        }
    }
}

/// The closed-loop client population's metric schema for chaos runs: job
/// lifecycle counters (issued/succeeded/abandoned/pending), per-attempt
/// outcome counters, and an attempts-per-job histogram. The chaos driver
/// increments these *independently* of its [`crate::chaos::ClientReport`]
/// bookkeeping so the invariant harness can reconcile the two — a
/// divergence means the driver lost track of a request. Names are part of
/// the DESIGN.md §11 JSONL contract.
pub(crate) struct ChaosTelemetry {
    registry: MetricRegistry,
    shard: MetricShard,
    pub(crate) jobs: CounterId,
    pub(crate) suppressed: CounterId,
    pub(crate) attempts: CounterId,
    pub(crate) retries: CounterId,
    pub(crate) succeeded: CounterId,
    pub(crate) abandoned: CounterId,
    pub(crate) pending_at_end: CounterId,
    pub(crate) attempt_late: CounterId,
    pub(crate) attempt_rejected: CounterId,
    pub(crate) attempt_dropped_dead: CounterId,
    pub(crate) attempt_outstanding: CounterId,
    pub(crate) attempts_per_job: HistogramId,
    level: TelemetryLevel,
}

impl ChaosTelemetry {
    /// Builds the client population's recording state, or `None` when
    /// telemetry is off.
    pub(crate) fn new(config: TelemetryConfig) -> Option<Self> {
        if !config.level.counters_enabled() {
            return None;
        }
        let mut registry = MetricRegistry::new();
        let jobs = registry.counter("client_jobs");
        let suppressed = registry.counter("client_suppressed");
        let attempts = registry.counter("client_attempts");
        let retries = registry.counter("client_retries");
        let succeeded = registry.counter("client_jobs_succeeded");
        let abandoned = registry.counter("client_jobs_abandoned");
        let pending_at_end = registry.counter("client_jobs_pending_at_end");
        let attempt_late = registry.counter("client_attempt_late");
        let attempt_rejected = registry.counter("client_attempt_rejected");
        let attempt_dropped_dead = registry.counter("client_attempt_dropped_dead");
        let attempt_outstanding = registry.counter("client_attempt_outstanding");
        let attempts_per_job = registry.histogram("client_attempts_per_job");
        let shard = registry.shard();
        Some(Self {
            registry,
            shard,
            jobs,
            suppressed,
            attempts,
            retries,
            succeeded,
            abandoned,
            pending_at_end,
            attempt_late,
            attempt_rejected,
            attempt_dropped_dead,
            attempt_outstanding,
            attempts_per_job,
            level: config.level,
        })
    }

    /// Adds to one of the registered counters.
    pub(crate) fn add(&mut self, id: CounterId, delta: u64) {
        self.shard.add(id, delta);
    }

    /// Records into the attempts-per-job histogram.
    pub(crate) fn record(&mut self, id: HistogramId, value: f64) {
        self.shard.record(id, value);
    }

    /// Detaches the client metrics into a snapshot for the chaos report.
    pub(crate) fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            level: self.level,
            metrics: self.registry.snapshot(&self.shard),
            trace: Vec::new(),
            trace_overwritten: 0,
            decisions: Vec::new(),
            decisions_overwritten: 0,
            residuals: Default::default(),
            obs: None,
        }
    }
}
