//! The serving front-end: a thread-per-connection TCP acceptor feeding the
//! runtime's [`DeviceGovernor`] — the one type that owns admission, the
//! window-boundary switch, dispatch and the death drain for the simulated
//! device too — with wall-clock time as its time axis. The [`Core`] keeps
//! only what the wire adds: the pending map from internal to client ids,
//! the in-flight response heap, the wire statuses and the transport
//! counters.
//!
//! Three kinds of thread cooperate around one mutex-guarded [`Core`]:
//!
//! * **connection threads** (one per accepted socket) parse frames,
//!   run admission under the lock, and write rejects synchronously;
//! * the **dispatch thread** sleeps on a condition variable until the
//!   next due event — a window boundary, a worker freeing up for a queued
//!   request, or an in-flight response's simulated finish time — or until
//!   an admission wakes it. At window boundaries it steps the governor on
//!   the wall clock — the simulated device's level switches, battery drain
//!   and death detection; it then has the governor
//!   dispatch due micro-batches and flushes each completion's response
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
    MAX_FRAME_LEN, TERMINAL_BATTERY_DEAD, TERMINAL_IDLE_TIMEOUT, TERMINAL_PROTOCOL_ERROR,
    TERMINAL_SHUTDOWN,
};
use rt3_hardware::{Battery, DvfsGovernor};
use rt3_runtime::{
    Analytic, Completion, CostConfig, CostModel, DeviceGovernor, DeviceMetricIds, LatencyModel,
    RejectReason, Request, RuntimePolicy, SchedulerConfig,
};
use rt3_telemetry::{
    CounterId, MetricRegistry, MetricShard, ObsPlane, TelemetryLevel, TelemetrySnapshot,
};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the server serves: the cost model, the governor and the battery,
/// played by the simulated engine's [`DeviceGovernor`] (with its default
/// hysteresis and cluster power model, as on the simulated device). There
/// is no model bank (the server paces responses by the cost model; it does
/// not run tensor math on the request path), so the spec supplies the
/// figures a bank would: each level's base latency and the switch time.
pub struct ServerSpec {
    /// Prediction surface for admission and service times.
    pub cost: Arc<dyn CostModel>,
    /// Battery governor (levels + thresholds).
    pub governor: DvfsGovernor,
    /// Single-request latency per governor level position (what the
    /// engine derives from the banked variant's sparsity at each switch).
    pub level_base_ms: Vec<f64>,
    /// Wall-time cost of a pattern-set switch, charged to the workers (the
    /// engine prices it per level from its bank).
    pub switch_time_ms: f64,
    /// Battery capacity at startup, joules.
    pub battery_capacity_j: f64,
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
            level_base_ms,
            switch_time_ms: 8.0,
            battery_capacity_j,
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
        Ok(())
    }
}

/// Serving parameters. The frame bound is not one of them: both sides of
/// the wire read [`MAX_FRAME_LEN`].
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

/// A dispatched request (keyed by its internal id) whose response is due
/// at its `finish_ms`; the response is built when it is flushed.
struct InFlight(Completion);

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
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
        self.0
            .finish_ms
            .total_cmp(&other.0.finish_ms)
            .then(self.0.id.cmp(&other.0.id))
    }
}

/// The transport-only metric handles, registered after the runtime's
/// device schema ([`DeviceMetricIds`]).
struct TransportIds {
    draining_refused: CounterId,
    dropped_shutdown: CounterId,
    protocol_errors: CounterId,
    connections_opened: CounterId,
    connections_closed: CounterId,
    connections_refused_dead: CounterId,
    connections_timed_out: CounterId,
    responses_failed: CounterId,
}

impl TransportIds {
    fn register(registry: &mut MetricRegistry) -> Self {
        Self {
            draining_refused: registry.counter("requests_draining_refused"),
            dropped_shutdown: registry.counter("requests_dropped_shutdown"),
            protocol_errors: registry.counter("protocol_errors"),
            connections_opened: registry.counter("connections_opened"),
            connections_closed: registry.counter("connections_closed"),
            connections_refused_dead: registry.counter("connections_refused_dead"),
            connections_timed_out: registry.counter("connections_timed_out"),
            responses_failed: registry.counter("responses_failed"),
        }
    }
}

/// Everything the threads share under one lock.
struct Core {
    /// Battery, drain tracker, controller, active level and scheduler.
    governor: DeviceGovernor,
    next_window_ms: f64,
    next_internal_id: u64,
    pending: HashMap<u64, PendingEntry>,
    inflight: std::collections::BinaryHeap<Reverse<InFlight>>,
    registry: MetricRegistry,
    shard: MetricShard,
    ids: DeviceMetricIds,
    transport: TransportIds,
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
            due = due.min(head.0.finish_ms);
        }
        let scheduler = self.governor.scheduler();
        if scheduler.queue_len() > 0 {
            due = due.min(scheduler.earliest_free_ms());
        }
        due
    }

    /// Writes `response` to `conn`, counting a failed write.
    fn respond(&mut self, conn: &ConnWriter, response: &InferResponse) {
        if !conn.send(&response.encode()) {
            self.shard.add(self.transport.responses_failed, 1);
        }
    }

    /// Resolves client request `id` unserved with `status`, stamped with
    /// the active level (the boot window activates one).
    fn refuse(&mut self, conn: &ConnWriter, id: u64, status: Status) {
        let level_pos = self.governor.active_level().expect("a level is active");
        let response = InferResponse {
            id,
            status,
            level_pos: level_pos as u32,
            queue_ms: 0.0,
            infer_ms: 0.0,
        };
        self.respond(conn, &response);
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
    /// The shared state of a server that has booted but runs no threads:
    /// the governor's boot window at 0 activates the initial level (a
    /// load, not a counted switch — the engine's convention).
    fn new(spec: ServerSpec, config: ServerConfig) -> Result<Self, String> {
        spec.validate()?;
        config.validate()?;
        let mut registry = MetricRegistry::new();
        let ids = DeviceMetricIds::register(&mut registry);
        let transport = TransportIds::register(&mut registry);
        let shard = registry.shard();
        let governor = DeviceGovernor::new(
            spec.governor.clone(),
            Battery::new(spec.battery_capacity_j),
            RuntimePolicy::Adaptive,
            Arc::clone(&spec.cost),
            config.scheduler,
        );
        let core = Core {
            governor,
            next_window_ms: config.window_ms,
            next_internal_id: 0,
            pending: HashMap::new(),
            inflight: std::collections::BinaryHeap::new(),
            registry,
            shard,
            ids,
            transport,
            connections: Vec::new(),
            obs: ObsPlane::standard(config.window_ms, ObsPlane::SERIES_CAPACITY),
            window_index: 0,
            subscribers: Vec::new(),
        };
        let shared = Self {
            core: Mutex::new(core),
            wakeup: Condvar::new(),
            running: AtomicBool::new(true),
            dead: AtomicBool::new(false),
            start: Instant::now(),
            config,
            spec,
        };
        shared.begin_window(&mut shared.core.lock().expect("core lock"), 0.0);
        Ok(shared)
    }

    fn now_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1_000.0
    }

    /// Runs governor windows up to `now_ms`, then scrapes each boundary
    /// into the obs plane and pushes the window's series/alert chunk to
    /// every subscriber.
    fn advance_windows(&self, core: &mut Core, now_ms: f64) {
        while core.next_window_ms <= now_ms {
            let boundary = core.next_window_ms;
            core.next_window_ms += self.config.window_ms;
            // the closing window counts as served or dead by the state it ran in
            if self.dead.load(Ordering::Acquire) {
                core.shard.add(core.ids.windows_dead, 1);
            } else {
                core.shard.add(core.ids.windows_served, 1);
                let window_s = self.config.window_ms / 1_000.0;
                core.governor.drain(self.config.background_w * window_s);
                self.begin_window(core, boundary);
            }
            // dead windows still scrape: subscribers keep seeing the
            // post-mortem gauges instead of a silently frozen stream
            self.scrape_window(core, boundary);
        }
    }

    /// The governor step of one boundary (the boot at 0 included): battery
    /// gauges, death, and the level the governor picks. The server has no
    /// thermal source, charger or cliff, and no bank: a switch costs the
    /// spec's `switch_time_ms` and installs the level's `level_base_ms`.
    fn begin_window(&self, core: &mut Core, boundary: f64) {
        let window_s = self.config.window_ms / 1_000.0;
        let spec = &self.spec;
        let live = core.governor.begin_window(
            boundary,
            window_s,
            None,
            0.0,
            None,
            Some((&mut core.shard, &core.ids)),
            |_, level_pos| (spec.level_base_ms[level_pos], spec.switch_time_ms),
        );
        if live.is_none() {
            // battery death: drain, and flip the acceptor into refuse mode;
            // connections stay open for draining responses and metrics
            self.dead.store(true, Ordering::Release);
            let dropped = core.governor.drain_dead(Some((&mut core.shard, &core.ids)));
            Self::drain_pending(core, Status::DroppedDead, dropped);
        }
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

    /// The one drain path of battery death and shutdown: every request
    /// the governor dropped from its queue resolves with `status`, then
    /// every in-flight response flushes at once.
    fn drain_pending(core: &mut Core, status: Status, dropped: Vec<Request>) {
        for request in dropped {
            if let Some(entry) = core.pending.remove(&request.id) {
                core.refuse(&entry.conn, entry.client_id, status);
            }
        }
        for Reverse(flight) in std::mem::take(&mut core.inflight) {
            Self::flush_completion(core, flight);
        }
    }

    /// Writes a completion response and records its telemetry.
    fn flush_completion(core: &mut Core, InFlight(completion): InFlight) {
        let Some(entry) = core.pending.remove(&completion.id) else {
            return;
        };
        let response = InferResponse {
            id: entry.client_id,
            status: if completion.met_deadline {
                Status::Completed
            } else {
                Status::CompletedLate
            },
            level_pos: completion.level_pos as u32,
            queue_ms: completion.start_ms - completion.arrival_ms,
            infer_ms: completion.finish_ms - completion.start_ms,
        };
        core.ids.record_completion(&mut core.shard, &completion);
        core.respond(&entry.conn, &response);
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
            let completions = core
                .governor
                .serve_until(now_ms, Some((&mut core.shard, &core.ids)));
            core.inflight
                .extend(completions.into_iter().map(|c| Reverse(InFlight(c))));
        }
        while let Some(Reverse(head)) = core.inflight.peek() {
            if head.0.finish_ms > now_ms {
                break;
            }
            let Reverse(flight) = core.inflight.pop().expect("peeked");
            Self::flush_completion(core, flight);
        }
    }

    /// A detached snapshot of the live counters, in the same shape the
    /// simulated runs attach to their reports.
    fn snapshot(&self) -> TelemetrySnapshot {
        let core = self.core.lock().expect("core lock");
        TelemetrySnapshot {
            obs: Some(core.obs.snapshot()),
            ..TelemetrySnapshot::metrics_only(
                TelemetryLevel::Counters,
                core.registry.snapshot(&core.shard),
            )
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
        let shared = Arc::new(Shared::new(spec, config)?);
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind failed: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr failed: {e}"))?;

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
            let dropped = core.governor.take_queue();
            let (counter, queue_depth) = (core.transport.dropped_shutdown, core.ids.queue_depth);
            core.shard.add(counter, dropped.len() as u64);
            core.shard.set(queue_depth, 0.0);
            Shared::drain_pending(&mut core, Status::DroppedShutdown, dropped);
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
            let id = core.transport.connections_refused_dead;
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
        let id = core.transport.connections_opened;
        core.shard.add(id, 1);
        core.connections.push(Arc::downgrade(&writer));
    }
    let mut reader = std::io::BufReader::new(reader);
    loop {
        let frame = match read_frame(&mut reader, MAX_FRAME_LEN) {
            Ok(Some(body)) => body,
            Ok(None) => break,
            Err(error) if error.is_timeout() => {
                // a hung peer: reap the connection with an explicit
                // terminal status so the timeout is never a silent reset
                {
                    let mut core = shared.core.lock().expect("core lock");
                    let id = core.transport.connections_timed_out;
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
    let id = core.transport.connections_closed;
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
        let id = core.transport.protocol_errors;
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
        core.shard.add(core.transport.draining_refused, 1);
        core.refuse(writer, client_id, Status::Draining);
        return false;
    }
    let internal_id = core.next_internal_id;
    core.next_internal_id += 1;
    let request = Request {
        id: internal_id,
        arrival_ms: now_ms,
        deadline_ms: now_ms + budget_ms,
    };
    match core
        .governor
        .admit(request, Some((&mut core.shard, &core.ids)))
    {
        Ok(_) => {
            core.pending.insert(
                internal_id,
                PendingEntry {
                    client_id,
                    conn: Arc::clone(writer),
                },
            );
            true
        }
        Err(reason) => {
            let status = match reason {
                RejectReason::QueueFull => Status::RejectedQueueFull,
                RejectReason::CertainMiss => Status::RejectedCertainMiss,
            };
            core.refuse(writer, client_id, status);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt3_core::{
        build_search_space, run_level1, run_level2_search, Rt3Config, SurrogateEvaluator,
        TaskProfile,
    };
    use rt3_runtime::{Scenario, ServeConfig, ServeEngine, TelemetryConfig};
    use rt3_transformer::{TransformerConfig, TransformerLm};

    /// The server and the simulated engine run one governor. On the same
    /// battery, cost model and switch price, the server's core, stepped
    /// boundary by boundary without threads, must take the engine's
    /// decision at every window — level, counted switch, and the state of
    /// charge and time to death the decision saw, bit for bit — and die in
    /// the same window.
    #[test]
    fn server_governor_matches_the_engine_window_for_window() {
        let model = TransformerLm::new(TransformerConfig::tiny(32), 13);
        let rt3 = Rt3Config::tiny_test();
        let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
        let backbone = run_level1(&model, &rt3, &mut evaluator);
        let space = build_search_space(&model, &backbone, &rt3);
        let outcome = run_level2_search(&model, &backbone, &space, &rt3, &mut evaluator);
        let config = ServeConfig {
            battery_capacity_j: 13.0,
            real_inference: false,
            telemetry: TelemetryConfig::full(),
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(
            &model,
            backbone.masks.clone(),
            &space,
            &outcome,
            rt3.clone(),
            config,
        );

        // the server charges one switch price for every level; the engine
        // prices each level from its bank, so the comparison holds only
        // while every candidate set costs the same
        let levels = rt3.governor.levels().len();
        let switch_time_ms = engine.bank().switch_cost(0).time_ms;
        for pos in 1..levels {
            assert_eq!(
                engine.bank().switch_cost(pos).time_ms.to_bits(),
                switch_time_ms.to_bits(),
                "level {pos} switches at a different price"
            );
        }
        let spec = ServerSpec {
            cost: Arc::clone(engine.cost_model()),
            governor: rt3.governor.clone(),
            level_base_ms: (0..levels)
                .map(|pos| engine.level_latency_ms(pos))
                .collect(),
            switch_time_ms,
            battery_capacity_j: 13.0,
        };

        let report = engine.run(&Scenario::ConstantDrain {
            duration_s: 90,
            rps: 0.0,
            background_w: 0.2,
        });
        let died_at_s = report.died_at_s.expect("the battery dies inside the run");
        assert!(
            report.switches >= 2,
            "the run crosses both governor thresholds"
        );
        let decisions = report.telemetry.expect("full telemetry").decisions;
        assert_eq!(
            decisions.len(),
            died_at_s as usize,
            "one decision per live window"
        );

        let server_config = ServerConfig {
            window_ms: 1_000.0,
            background_w: 0.2,
            ..ServerConfig::default()
        };
        let shared = Shared::new(spec, server_config).unwrap();
        let mut core = shared.core.lock().unwrap();
        let mut switches = 0;
        for (k, decision) in decisions.iter().enumerate() {
            let boundary = k as f64 * 1_000.0;
            assert_eq!(decision.t_ms, boundary);
            // window 0 is the boot, which `Shared::new` already ran
            shared.advance_windows(&mut core, boundary);
            assert!(!shared.dead.load(Ordering::Acquire), "window {k}: alive");
            let metrics = core.registry.snapshot(&core.shard);
            let gauge = |name: &str| metrics.gauge(name).expect("gauge set at boot").to_bits();
            assert_eq!(
                gauge("active_level"),
                (decision.chosen_level as f64).to_bits(),
                "window {k}: level"
            );
            assert_eq!(
                gauge("state_of_charge"),
                decision.state_of_charge.to_bits(),
                "window {k}: state of charge"
            );
            assert_eq!(
                gauge("time_to_death_ms"),
                decision.time_to_death_ms.to_bits(),
                "window {k}: time to death"
            );
            let counted = metrics.counter("switches").unwrap_or(0);
            assert_eq!(counted > switches, decision.switched, "window {k}: switch");
            switches = counted;
        }
        assert_eq!(switches, report.switches);
        shared.advance_windows(&mut core, f64::from(died_at_s) * 1_000.0);
        assert!(
            shared.dead.load(Ordering::Acquire),
            "the server dies in the engine's death window {died_at_s}"
        );
    }
}
