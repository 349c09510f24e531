//! The serving front-end: a thread-per-connection TCP acceptor feeding the
//! runtime's [`DeadlineScheduler`] through the same admission path the
//! simulated device uses, with wall-clock time as the scheduler's time
//! axis.
//!
//! Three kinds of thread cooperate around one mutex-guarded [`Core`]:
//!
//! * **connection threads** (one per accepted socket) parse frames,
//!   run admission under the lock, and write rejects synchronously;
//! * the **dispatch thread** sleeps on a condition variable until the
//!   next due event — a window boundary, a worker freeing up for a queued
//!   request, or an in-flight response's simulated finish time — or until
//!   an admission wakes it. At window boundaries it runs the battery
//!   governor (level switches, battery drain, death detection); it then
//!   dispatches due micro-batches and flushes each completion's response
//!   once the wall clock reaches its simulated finish time — so the
//!   latency a client measures on the wire *is* the cost model's queue +
//!   service prediction, plus real network and scheduling jitter;
//! * the **acceptor** hands sockets to connection threads, or refuses
//!   them with a terminal frame once the battery has died.
//!
//! Every admitted request resolves to exactly one response frame:
//! completion, explicit reject, or an explicit drop code when the battery
//! dies or the server shuts down. Backpressure is never a silent stall.

use crate::protocol::{
    read_frame, write_frame, ClientFrame, InferResponse, ProtocolError, ServerFrame, Status,
    TERMINAL_BATTERY_DEAD, TERMINAL_IDLE_TIMEOUT, TERMINAL_PROTOCOL_ERROR, TERMINAL_SHUTDOWN,
};
use rt3_hardware::{Battery, DvfsGovernor, PowerModel};
use rt3_runtime::{
    Analytic, CostConfig, CostModel, DeadlineScheduler, HysteresisConfig, LatencyModel,
    RejectReason, Request, RuntimeController, SchedulerConfig, Telemetry,
};
use rt3_telemetry::{
    CounterId, GaugeId, HistogramId, MetricRegistry, MetricShard, ObsPlane, ResidualStats,
    TelemetryLevel, TelemetrySnapshot,
};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the server serves: the cost model, the governor and the battery —
/// the same physical story the simulated engine plays, minus the model
/// bank (the server paces responses by the cost model; it does not run
/// tensor math on the request path).
pub struct ServerSpec {
    /// Prediction surface for admission and service times.
    pub cost: Arc<dyn CostModel>,
    /// Battery governor (levels + thresholds).
    pub governor: DvfsGovernor,
    /// Controller hysteresis.
    pub hysteresis: HysteresisConfig,
    /// Cached single-request latency per governor level position (what the
    /// engine caches as `active_base_latency_ms` after each switch).
    pub level_base_ms: Vec<f64>,
    /// Wall-time cost of a pattern-set switch, charged to the workers.
    pub switch_time_ms: f64,
    /// Battery capacity at startup, joules.
    pub battery_capacity_j: f64,
    /// Cluster power model for energy accounting.
    pub power: PowerModel,
}

impl ServerSpec {
    /// The paper-shaped default: Cortex-A7 predictor on the paper's
    /// Transformer workload, fixed 70% sparsity across the governor's
    /// levels, analytic batch amortisation.
    pub fn paper_default(battery_capacity_j: f64) -> Self {
        let governor = DvfsGovernor::paper_default();
        let cost: Arc<dyn CostModel> = Arc::new(Analytic::new(
            LatencyModel {
                predictor: rt3_hardware::PerformancePredictor::cortex_a7(),
                workload_config: rt3_transformer::TransformerConfig::paper_transformer(512),
                seq_len: 24,
            },
            CostConfig::default(),
        ));
        let level_base_ms = governor
            .levels()
            .iter()
            .map(|level| cost.base_latency_ms(0.7, level))
            .collect();
        Self {
            cost,
            governor,
            hysteresis: HysteresisConfig::default(),
            level_base_ms,
            switch_time_ms: 8.0,
            battery_capacity_j,
            power: PowerModel::cortex_a7(),
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.level_base_ms.len() != self.governor.levels().len() {
            return Err("one base latency per governor level is required".into());
        }
        if self
            .level_base_ms
            .iter()
            .any(|ms| !ms.is_finite() || *ms <= 0.0)
        {
            return Err("level base latencies must be positive and finite".into());
        }
        if !(self.switch_time_ms >= 0.0 && self.switch_time_ms.is_finite()) {
            return Err("switch_time_ms must be non-negative and finite".into());
        }
        if !(self.battery_capacity_j > 0.0 && self.battery_capacity_j.is_finite()) {
            return Err("battery_capacity_j must be positive and finite".into());
        }
        self.hysteresis.validate()
    }
}

/// Serving parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Scheduler shape (queue bound, micro-batch cap, worker count).
    pub scheduler: SchedulerConfig,
    /// Governor cadence: one controller decision per window.
    pub window_ms: f64,
    /// Longest the dispatch thread sleeps when nothing is due. Responses
    /// are paced by event-driven wakeups, not by this tick.
    pub tick_ms: u64,
    /// Always-on background drain charged per window.
    pub background_w: f64,
    /// Largest accepted frame (bounds per-connection memory).
    pub max_frame_len: u32,
    /// Per-connection read timeout (`SO_RCVTIMEO`, set once at accept). A
    /// peer that connects and then hangs — idle or mid-frame — is reaped
    /// with a [`TERMINAL_IDLE_TIMEOUT`] frame when it expires, instead of
    /// pinning its connection thread forever. `None` waits indefinitely.
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout (`SO_SNDTIMEO`, set once at accept):
    /// bounds how long a response write may block on a peer that stopped
    /// reading. A timed-out write counts as a failed response. `None`
    /// blocks indefinitely.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            scheduler: SchedulerConfig::default(),
            window_ms: 1_000.0,
            tick_ms: 2,
            background_w: 0.1,
            max_frame_len: 1 << 20,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
        }
    }
}

impl ServerConfig {
    fn validate(&self) -> Result<(), String> {
        self.scheduler.validate()?;
        if !(self.window_ms > 0.0 && self.window_ms.is_finite()) {
            return Err("window_ms must be positive and finite".into());
        }
        if self.tick_ms == 0 {
            return Err("tick_ms must be positive".into());
        }
        if !(self.background_w >= 0.0 && self.background_w.is_finite()) {
            return Err("background_w must be non-negative and finite".into());
        }
        if self.max_frame_len < 64 {
            return Err("max_frame_len must hold at least a header frame".into());
        }
        for timeout in [self.read_timeout, self.write_timeout]
            .into_iter()
            .flatten()
        {
            if timeout.is_zero() {
                return Err("socket timeouts must be positive (use None to wait forever)".into());
            }
        }
        Ok(())
    }
}

/// A connection's write half, shared between its reader thread (rejects,
/// metrics) and the dispatch thread (completions). Every frame goes out in
/// one `write_all` under the mutex, so concurrent writers never tear
/// frames.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    /// Writes one frame; returns whether the write succeeded. Failures are
    /// counted by the caller, never propagated as panics — a client that
    /// disconnected before its response must not take the server down.
    fn send(&self, body: &[u8]) -> bool {
        let mut stream = self.stream.lock().expect("writer lock");
        write_frame(&mut *stream, body)
            .and_then(|()| stream.flush())
            .is_ok()
    }

    fn shutdown(&self) {
        let stream = self.stream.lock().expect("writer lock");
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// An admitted request waiting for dispatch or completion.
struct PendingEntry {
    client_id: u64,
    conn: Arc<ConnWriter>,
}

/// A dispatched request whose response is due at `finish_ms`.
struct InFlight {
    finish_ms: f64,
    internal_id: u64,
    response: InferResponse,
    latency_ms: f64,
    queue_ms: f64,
    infer_ms: f64,
    met_deadline: bool,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.finish_ms == other.finish_ms && self.internal_id == other.internal_id
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.finish_ms
            .total_cmp(&other.finish_ms)
            .then(self.internal_id.cmp(&other.internal_id))
    }
}

/// Metric handles, registered once at startup. Names follow the runtime's
/// device-telemetry schema (DESIGN.md §9) so dashboards can consume both.
struct MetricIds {
    admitted: CounterId,
    rejected_queue_full: CounterId,
    rejected_certain_miss: CounterId,
    completed: CounterId,
    deadline_missed: CounterId,
    dropped_dead: CounterId,
    draining_refused: CounterId,
    dropped_shutdown: CounterId,
    protocol_errors: CounterId,
    connections_opened: CounterId,
    connections_closed: CounterId,
    connections_refused_dead: CounterId,
    connections_timed_out: CounterId,
    responses_failed: CounterId,
    switches: CounterId,
    latency_ms: HistogramId,
    queue_wait_ms: HistogramId,
    infer_ms: HistogramId,
    batch_size: HistogramId,
    switch_time_ms: HistogramId,
    active_level: GaugeId,
    state_of_charge: GaugeId,
    queue_depth: GaugeId,
}

impl MetricIds {
    fn register(registry: &mut MetricRegistry) -> Self {
        Self {
            admitted: registry.counter("requests_admitted"),
            rejected_queue_full: registry.counter("requests_rejected_queue_full"),
            rejected_certain_miss: registry.counter("requests_rejected_certain_miss"),
            completed: registry.counter("requests_completed"),
            deadline_missed: registry.counter("deadline_missed"),
            dropped_dead: registry.counter("requests_dropped_dead"),
            draining_refused: registry.counter("requests_draining_refused"),
            dropped_shutdown: registry.counter("requests_dropped_shutdown"),
            protocol_errors: registry.counter("protocol_errors"),
            connections_opened: registry.counter("connections_opened"),
            connections_closed: registry.counter("connections_closed"),
            connections_refused_dead: registry.counter("connections_refused_dead"),
            connections_timed_out: registry.counter("connections_timed_out"),
            responses_failed: registry.counter("responses_failed"),
            switches: registry.counter("switches"),
            latency_ms: registry.histogram("latency_ms"),
            queue_wait_ms: registry.histogram("queue_wait_ms"),
            infer_ms: registry.histogram("infer_ms"),
            batch_size: registry.histogram("batch_size"),
            switch_time_ms: registry.histogram("switch_time_ms"),
            active_level: registry.gauge("active_level"),
            state_of_charge: registry.gauge("state_of_charge"),
            queue_depth: registry.gauge("queue_depth"),
        }
    }
}

/// Everything the threads share under one lock.
struct Core {
    scheduler: DeadlineScheduler,
    controller: RuntimeController,
    battery: Battery,
    active_level: usize,
    active_base_ms: f64,
    next_window_ms: f64,
    next_internal_id: u64,
    pending: HashMap<u64, PendingEntry>,
    inflight: std::collections::BinaryHeap<Reverse<InFlight>>,
    registry: MetricRegistry,
    shard: MetricShard,
    ids: MetricIds,
    connections: Vec<Weak<ConnWriter>>,
    /// Live series + alert rules, scraped once per governor window by the
    /// dispatch tick (or by whichever admission catches the boundary
    /// first).
    obs: ObsPlane,
    /// Index of the next scrape window (the `t_s` axis of the series).
    window_index: u32,
    /// Connections that sent `REQ_SUBSCRIBE`; each gets one obs chunk per
    /// window. A subscriber whose send fails is dropped from the list —
    /// the slow-consumer backpressure rule (DESIGN.md §12).
    subscribers: Vec<Weak<ConnWriter>>,
}

impl Core {
    /// The wall time of the dispatch thread's next due event: the earliest
    /// of the next window boundary, the in-flight heap's head finish time
    /// and — while requests are queued — the moment a worker frees up.
    fn next_due_ms(&self) -> f64 {
        let mut due = self.next_window_ms;
        if let Some(Reverse(head)) = self.inflight.peek() {
            due = due.min(head.finish_ms);
        }
        if self.scheduler.queue_len() > 0 {
            due = due.min(self.scheduler.earliest_free_ms());
        }
        due
    }
}

struct Shared {
    core: Mutex<Core>,
    /// Paired with `core`: wakes the dispatch thread when an admission or
    /// a shutdown makes something due earlier than it planned to wake.
    wakeup: Condvar,
    /// Flipped only under the `core` lock, so a thread that holds the lock
    /// and sees `true` knows shutdown's drain has not run yet.
    running: AtomicBool,
    dead: AtomicBool,
    start: Instant,
    config: ServerConfig,
    spec: ServerSpec,
}

impl Shared {
    fn now_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1_000.0
    }

    /// The admission/service closure for the active level — the same
    /// cost-model path `DeviceSim::try_admit` and the engine's dispatch
    /// drive.
    fn service_closure(&self, core: &Core) -> impl Fn(usize) -> f64 {
        let cost = Arc::clone(&self.spec.cost);
        let level_pos = core.active_level;
        let base = core.active_base_ms;
        move |batch| cost.service_from_base_ms(level_pos, base, batch)
    }

    /// Runs governor windows up to `now_ms`: level decisions, switch costs,
    /// background drain, battery-death detection — then scrapes each
    /// boundary into the obs plane and pushes the window's series/alert
    /// chunk to every subscriber.
    fn advance_windows(&self, core: &mut Core, now_ms: f64) {
        while core.next_window_ms <= now_ms {
            let boundary = core.next_window_ms;
            core.next_window_ms += self.config.window_ms;
            if !self.dead.load(Ordering::Acquire) {
                self.window_step(core, boundary);
            }
            // dead windows still scrape: subscribers keep seeing the
            // post-mortem gauges instead of a silently frozen stream
            self.scrape_window(core, boundary);
        }
    }

    /// The governor work of one live window boundary.
    fn window_step(&self, core: &mut Core, boundary: f64) {
        let window_s = self.config.window_ms / 1_000.0;
        let background_j = self.config.background_w * window_s;
        core.battery.drain_saturating(background_j);
        if core.battery.is_empty() {
            self.enter_drain(core);
            return;
        }
        let decision = core.controller.decide(Telemetry {
            now_ms: boundary,
            state_of_charge: core.battery.state_of_charge(),
            thermal_cap: None,
        });
        if decision.level_pos != core.active_level {
            core.active_level = decision.level_pos;
            core.active_base_ms = self.spec.level_base_ms[decision.level_pos];
            let switch_ms = self.spec.switch_time_ms;
            core.scheduler.block_workers_until(boundary + switch_ms);
            let level = self.spec.governor.levels()[decision.level_pos];
            let energy = self.spec.power.power_w(&level) * switch_ms / 1_000.0;
            core.battery.drain_saturating(energy);
            let ids = &core.ids;
            core.shard.add(ids.switches, 1);
            core.shard.record(ids.switch_time_ms, switch_ms);
        }
        let ids = &core.ids;
        core.shard.set(ids.active_level, core.active_level as f64);
        core.shard
            .set(ids.state_of_charge, core.battery.state_of_charge());
    }

    /// Scrapes one window boundary into the obs plane, evaluates the alert
    /// rules, and pushes the window's JSONL delta to every subscriber.
    /// A subscriber whose socket is gone — or whose send fails or times
    /// out (the per-connection write timeout bounds how long a slow
    /// consumer can hold the lock) — is dropped from the push list.
    fn scrape_window(&self, core: &mut Core, boundary: f64) {
        let t_s = core.window_index;
        core.window_index += 1;
        let snapshot = core.registry.snapshot(&core.shard);
        let transitions = core.obs.observe_window(t_s, boundary, snapshot);
        if core.subscribers.is_empty() {
            return;
        }
        let chunk = core
            .obs
            .window_jsonl(t_s, &transitions, &[("source", "rt3-serve")]);
        let body = ServerFrame::encode_obs(&chunk);
        core.subscribers.retain(|weak| match weak.upgrade() {
            Some(conn) => conn.send(&body),
            None => false,
        });
    }

    /// Battery death: drop queued requests with an explicit code, flush
    /// every in-flight response immediately, and flip the acceptor into
    /// refuse mode. Connections stay open for draining responses and
    /// metrics queries.
    fn enter_drain(&self, core: &mut Core) {
        self.dead.store(true, Ordering::Release);
        let dropped = core.scheduler.drain_queue();
        let level_pos = core.active_level as u32;
        let counter = core.ids.dropped_dead;
        for request in dropped {
            self.resolve(
                core,
                request.id,
                InferResponse {
                    id: 0, // patched from the pending entry
                    status: Status::DroppedDead,
                    level_pos,
                    queue_ms: 0.0,
                    infer_ms: 0.0,
                },
                counter,
            );
        }
        let due: Vec<Reverse<InFlight>> = core.inflight.drain().collect();
        for Reverse(flight) in due {
            self.flush_completion(core, flight);
        }
        let ids = &core.ids;
        core.shard.set(ids.queue_depth, 0.0);
        core.shard.set(ids.state_of_charge, 0.0);
    }

    /// Writes a non-completion resolution (reject/drop) for a pending
    /// request and counts it.
    fn resolve(
        &self,
        core: &mut Core,
        internal_id: u64,
        mut response: InferResponse,
        counter: CounterId,
    ) {
        if let Some(entry) = core.pending.remove(&internal_id) {
            response.id = entry.client_id;
            core.shard.add(counter, 1);
            if !entry.conn.send(&response.encode()) {
                let ids = &core.ids;
                core.shard.add(ids.responses_failed, 1);
            }
        }
    }

    /// Writes a completion response and records its telemetry.
    fn flush_completion(&self, core: &mut Core, flight: InFlight) {
        let Some(entry) = core.pending.remove(&flight.internal_id) else {
            return;
        };
        let mut response = flight.response;
        response.id = entry.client_id;
        let ids = &core.ids;
        core.shard.add(ids.completed, 1);
        if !flight.met_deadline {
            core.shard.add(ids.deadline_missed, 1);
        }
        core.shard.record(ids.latency_ms, flight.latency_ms);
        core.shard.record(ids.queue_wait_ms, flight.queue_ms);
        core.shard.record(ids.infer_ms, flight.infer_ms);
        if !entry.conn.send(&response.encode()) {
            core.shard.add(ids.responses_failed, 1);
        }
    }

    /// The dispatch thread: holds the core lock while it ticks, then waits
    /// on `wakeup` until the next due event (at most `tick_ms`). It ticks
    /// only when something is due, so an idle wakeup costs no work.
    fn dispatch_loop(&self) {
        let max_wait_ms = self.config.tick_ms as f64;
        let mut core = self.core.lock().expect("core lock");
        while self.running.load(Ordering::Acquire) {
            let now_ms = self.now_ms();
            let due_ms = core.next_due_ms();
            if due_ms <= now_ms {
                self.tick(&mut core, now_ms);
                continue;
            }
            let wait = Duration::from_secs_f64((due_ms - now_ms).min(max_wait_ms) / 1_000.0);
            core = self.wakeup.wait_timeout(core, wait).expect("core lock").0;
        }
    }

    /// One dispatch tick: advance windows, dispatch due batches, flush
    /// responses whose simulated finish time has passed.
    fn tick(&self, core: &mut Core, now_ms: f64) {
        self.advance_windows(core, now_ms);
        if !self.dead.load(Ordering::Acquire) {
            let service = self.service_closure(core);
            let level_pos = core.active_level;
            let completions = core.scheduler.dispatch(now_ms, level_pos, &service);
            if !completions.is_empty() {
                let level = self.spec.governor.levels()[level_pos];
                let core_power_w =
                    self.spec.power.power_w(&level) / self.config.scheduler.workers as f64;
                let mut i = 0;
                while i < completions.len() {
                    let batch = completions[i].batch;
                    core.shard.record(core.ids.batch_size, batch as f64);
                    i += batch;
                }
                for completion in completions {
                    let service_share =
                        (completion.finish_ms - completion.start_ms) / completion.batch as f64;
                    let energy = core_power_w * service_share / 1_000.0;
                    core.battery.drain_saturating(energy);
                    core.inflight.push(Reverse(InFlight {
                        finish_ms: completion.finish_ms,
                        internal_id: completion.id,
                        response: InferResponse {
                            id: 0, // patched at flush from the pending entry
                            status: if completion.met_deadline {
                                Status::Completed
                            } else {
                                Status::CompletedLate
                            },
                            level_pos: completion.level_pos as u32,
                            queue_ms: completion.start_ms - completion.arrival_ms,
                            infer_ms: completion.finish_ms - completion.start_ms,
                        },
                        latency_ms: completion.latency_ms(),
                        queue_ms: completion.start_ms - completion.arrival_ms,
                        infer_ms: completion.finish_ms - completion.start_ms,
                        met_deadline: completion.met_deadline,
                    }));
                }
                core.shard
                    .set(core.ids.queue_depth, core.scheduler.queue_len() as f64);
            }
        }
        while let Some(Reverse(head)) = core.inflight.peek() {
            if head.finish_ms > now_ms {
                break;
            }
            let Reverse(flight) = core.inflight.pop().expect("peeked");
            self.flush_completion(core, flight);
        }
    }

    /// A detached snapshot of the live counters, in the same shape the
    /// simulated runs attach to their reports.
    fn snapshot(&self) -> TelemetrySnapshot {
        let core = self.core.lock().expect("core lock");
        TelemetrySnapshot {
            level: TelemetryLevel::Counters,
            metrics: core.registry.snapshot(&core.shard),
            trace: Vec::new(),
            trace_overwritten: 0,
            decisions: Vec::new(),
            decisions_overwritten: 0,
            residuals: ResidualStats::default(),
            obs: Some(core.obs.snapshot()),
        }
    }
}

/// A running serving front-end. Dropping the handle shuts it down and
/// joins its threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor and dispatch threads.
    ///
    /// # Errors
    ///
    /// Returns the bind/configuration error as a string.
    pub fn spawn<A: ToSocketAddrs>(
        addr: A,
        spec: ServerSpec,
        config: ServerConfig,
    ) -> Result<Self, String> {
        spec.validate()?;
        config.validate()?;
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind failed: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr failed: {e}"))?;

        let mut registry = MetricRegistry::new();
        let ids = MetricIds::register(&mut registry);
        let shard = registry.shard();
        let mut controller = RuntimeController::new(spec.governor.clone(), spec.hysteresis);
        let battery = Battery::new(spec.battery_capacity_j);
        // the boot decision activates the initial level (a load, not a
        // counted switch — same convention as the engine)
        let boot = controller.decide(Telemetry {
            now_ms: 0.0,
            state_of_charge: battery.state_of_charge(),
            thermal_cap: None,
        });
        let core = Core {
            scheduler: DeadlineScheduler::new(config.scheduler),
            controller,
            battery,
            active_level: boot.level_pos,
            active_base_ms: spec.level_base_ms[boot.level_pos],
            next_window_ms: config.window_ms,
            next_internal_id: 0,
            pending: HashMap::new(),
            inflight: std::collections::BinaryHeap::new(),
            registry,
            shard,
            ids,
            connections: Vec::new(),
            obs: ObsPlane::standard(config.window_ms, 1_024),
            window_index: 0,
            subscribers: Vec::new(),
        };
        let shared = Arc::new(Shared {
            core: Mutex::new(core),
            wakeup: Condvar::new(),
            running: AtomicBool::new(true),
            dead: AtomicBool::new(false),
            start: Instant::now(),
            config,
            spec,
        });

        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rt3-serve-dispatch".into())
                .spawn(move || shared.dispatch_loop())
                .expect("spawn dispatch thread")
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rt3-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor thread")
        };

        Ok(Self {
            addr: local,
            shared,
            acceptor: Some(acceptor),
            dispatcher: Some(dispatcher),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the battery has died and the server is draining.
    pub fn is_draining(&self) -> bool {
        self.shared.dead.load(Ordering::Acquire)
    }

    /// A detached snapshot of the server's live counters — the same data
    /// the metrics command serves over the wire.
    pub fn metrics_snapshot(&self) -> TelemetrySnapshot {
        self.shared.snapshot()
    }

    /// Number of admitted requests whose responses have not been written
    /// yet (queued or in flight).
    pub fn pending_requests(&self) -> usize {
        self.shared.core.lock().expect("core lock").pending.len()
    }

    /// Graceful shutdown: queued and in-flight requests resolve with
    /// explicit codes, every connection is closed, threads are joined.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        {
            let mut core = self.shared.core.lock().expect("core lock");
            // flipped and notified under the lock: the dispatch thread is
            // either waiting (and woken) or will see `false` before it waits
            if !self.shared.running.swap(false, Ordering::AcqRel) {
                return;
            }
            self.shared.wakeup.notify_one();
            let core = &mut *core;
            let dropped = core.scheduler.drain_queue();
            let level_pos = core.active_level as u32;
            let counter = core.ids.dropped_shutdown;
            for request in dropped {
                self.shared.resolve(
                    core,
                    request.id,
                    InferResponse {
                        id: 0,
                        status: Status::DroppedShutdown,
                        level_pos,
                        queue_ms: 0.0,
                        infer_ms: 0.0,
                    },
                    counter,
                );
            }
            let due: Vec<Reverse<InFlight>> = core.inflight.drain().collect();
            for Reverse(flight) in due {
                self.shared.flush_completion(core, flight);
            }
            for conn in core.connections.drain(..) {
                if let Some(conn) = conn.upgrade() {
                    conn.send(&ServerFrame::encode_terminal(TERMINAL_SHUTDOWN));
                    conn.shutdown();
                }
            }
        }
        // unblock the acceptor's blocking accept()
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if !shared.running.load(Ordering::Acquire) {
            return;
        }
        let Ok((stream, _peer)) = accepted else {
            continue;
        };
        if shared.dead.load(Ordering::Acquire) {
            // battery died: refuse with a terminal code instead of a
            // silent reset, then close
            let mut stream = stream;
            let _ = write_frame(
                &mut stream,
                &ServerFrame::encode_terminal(TERMINAL_BATTERY_DEAD),
            );
            let mut core = shared.core.lock().expect("core lock");
            let id = core.ids.connections_refused_dead;
            core.shard.add(id, 1);
            continue;
        }
        let shared = Arc::clone(shared);
        // small stacks keep thousands of connection threads affordable
        let spawned = std::thread::Builder::new()
            .name("rt3-serve-conn".into())
            .stack_size(128 * 1024)
            .spawn(move || serve_connection(stream, &shared));
        if spawned.is_err() {
            // thread exhaustion: the kernel closes the socket; clients see
            // a reset rather than a hang
            continue;
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // socket deadlines are set once here and shared by the try_clone'd
    // read half — SO_RCVTIMEO/SO_SNDTIMEO are per-socket, not per-handle
    if stream.set_read_timeout(shared.config.read_timeout).is_err()
        || stream
            .set_write_timeout(shared.config.write_timeout)
            .is_err()
    {
        return;
    }
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(ConnWriter {
        stream: Mutex::new(stream),
    });
    {
        let mut core = shared.core.lock().expect("core lock");
        if !shared.running.load(Ordering::Acquire) {
            // accepted just before shutdown closed the registered
            // connections: end this one the same way
            writer.send(&ServerFrame::encode_terminal(TERMINAL_SHUTDOWN));
            writer.shutdown();
            return;
        }
        let id = core.ids.connections_opened;
        core.shard.add(id, 1);
        core.connections.push(Arc::downgrade(&writer));
    }
    let mut reader = std::io::BufReader::new(reader);
    loop {
        let frame = match read_frame(&mut reader, shared.config.max_frame_len) {
            Ok(Some(body)) => body,
            Ok(None) => break,
            Err(error) if error.is_timeout() => {
                // a hung peer: reap the connection with an explicit
                // terminal status so the timeout is never a silent reset
                {
                    let mut core = shared.core.lock().expect("core lock");
                    let id = core.ids.connections_timed_out;
                    core.shard.add(id, 1);
                }
                writer.send(&ServerFrame::encode_terminal(TERMINAL_IDLE_TIMEOUT));
                writer.shutdown();
                break;
            }
            Err(error) => {
                protocol_error(shared, &writer, &error);
                break;
            }
        };
        match ClientFrame::decode(&frame) {
            Ok(ClientFrame::Infer {
                id,
                deadline_budget_ms,
                payload_len: _,
            }) => handle_infer(shared, &writer, id, deadline_budget_ms),
            Ok(ClientFrame::Metrics) => {
                let jsonl = shared.snapshot().to_jsonl(&[("source", "rt3-serve")]);
                if !writer.send(&ServerFrame::encode_metrics(&jsonl)) {
                    break;
                }
            }
            Ok(ClientFrame::Subscribe) => {
                // a subscriber becomes a dedicated push channel: it sends
                // nothing further, so the idle-reaper read timeout must not
                // apply (SO_RCVTIMEO is per-socket and shared with our
                // cloned read half)
                {
                    let stream = writer.stream.lock().expect("writer lock");
                    let _ = stream.set_read_timeout(None);
                }
                // register + catch-up atomically under the core lock, so no
                // window chunk can be pushed before the catch-up (same
                // core-then-stream lock order as the window push itself)
                let sent = {
                    let mut core = shared.core.lock().expect("core lock");
                    core.subscribers.push(Arc::downgrade(&writer));
                    let mut catch_up = core
                        .obs
                        .snapshot()
                        .to_jsonl_lines(&[("source", "rt3-serve")])
                        .join("\n");
                    catch_up.push('\n');
                    writer.send(&ServerFrame::encode_obs(&catch_up))
                };
                if !sent {
                    break;
                }
            }
            Err(error) => {
                protocol_error(shared, &writer, &error);
                break;
            }
        }
    }
    let mut core = shared.core.lock().expect("core lock");
    let id = core.ids.connections_closed;
    core.shard.add(id, 1);
}

/// A malformed or oversized frame poisons only its own connection: count
/// it, tell the peer, close. Pending responses for *other* connections are
/// untouched; pending responses for this connection will fail their write
/// and be counted as `responses_failed`.
fn protocol_error(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, error: &ProtocolError) {
    let counted = !matches!(error, ProtocolError::Io(_));
    if counted {
        let mut core = shared.core.lock().expect("core lock");
        let id = core.ids.protocol_errors;
        core.shard.add(id, 1);
        writer.send(&ServerFrame::encode_terminal(TERMINAL_PROTOCOL_ERROR));
    }
    writer.shutdown();
}

fn handle_infer(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, client_id: u64, budget_ms: f64) {
    if admit(shared, writer, client_id, budget_ms) {
        // after the guard is dropped, so the woken dispatch thread does
        // not block straight away on the lock
        shared.wakeup.notify_one();
    }
}

/// Admission under the core lock; returns whether the request was queued.
fn admit(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, client_id: u64, budget_ms: f64) -> bool {
    let now_ms = shared.now_ms();
    let mut core = shared.core.lock().expect("core lock");
    let core = &mut *core;
    if !shared.running.load(Ordering::Acquire) {
        // shutdown's drain already ran and sent this connection its
        // terminal frame: nothing would resolve a request admitted now
        return false;
    }
    // catch up on window boundaries the dispatch thread hasn't ticked yet,
    // so admission always sees the current level and battery state
    shared.advance_windows(core, now_ms);
    if shared.dead.load(Ordering::Acquire) {
        let response = InferResponse {
            id: client_id,
            status: Status::Draining,
            level_pos: core.active_level as u32,
            queue_ms: 0.0,
            infer_ms: 0.0,
        };
        core.shard.add(core.ids.draining_refused, 1);
        if !writer.send(&response.encode()) {
            core.shard.add(core.ids.responses_failed, 1);
        }
        return false;
    }
    let internal_id = core.next_internal_id;
    core.next_internal_id += 1;
    let request = Request {
        id: internal_id,
        arrival_ms: now_ms,
        deadline_ms: now_ms + budget_ms,
    };
    let service = shared.service_closure(core);
    let result = core.scheduler.submit(request, service);
    match result {
        Ok(_) => {
            core.pending.insert(
                internal_id,
                PendingEntry {
                    client_id,
                    conn: Arc::clone(writer),
                },
            );
            let ids = &core.ids;
            core.shard.add(ids.admitted, 1);
            core.shard
                .set(ids.queue_depth, core.scheduler.queue_len() as f64);
            true
        }
        Err(reason) => {
            let (status, counter) = match reason {
                RejectReason::QueueFull => {
                    (Status::RejectedQueueFull, core.ids.rejected_queue_full)
                }
                RejectReason::CertainMiss => {
                    (Status::RejectedCertainMiss, core.ids.rejected_certain_miss)
                }
            };
            core.shard.add(counter, 1);
            let response = InferResponse {
                id: client_id,
                status,
                level_pos: core.active_level as u32,
                queue_ms: 0.0,
                infer_ms: 0.0,
            };
            if !writer.send(&response.encode()) {
                core.shard.add(core.ids.responses_failed, 1);
            }
            false
        }
    }
}
