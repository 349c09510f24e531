//! `socket-open`: the only path with a real client. An in-process
//! `Server` (`ServerSpec::paper_default`, a battery that outlives the run)
//! is driven open loop over loopback: the arrival schedule is drawn from
//! the seed before timing, one sender thread writes each request at its
//! due time on one connection and one receiver thread reads the pipelined
//! responses. Alongside, the main thread sends a few certain-miss probes
//! and one metrics scrape per governor window on a second connection; the
//! scrape reads the core lock that infer traffic writes. Kernels do no
//! work here: the server paces each response to the cost model.

use crate::layers::scheduler_replay;
use crate::report::Outcome;
use crate::schedule::poisson_arrivals;
use crate::stats::{describe, max, median, quantile, typical, Segmented};
use crate::trace::Tracer;
use rt3_runtime::SchedulerConfig;
use rt3_server::protocol::{read_frame, write_frame, ClientFrame, ServerFrame};
use rt3_server::{
    check_load_invariants, InferOutcome, LoadReport, ServeClient, Server, ServerConfig, ServerSpec,
    Status,
};
use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Offered load: well under the cost model's capacity (about 22k rps).
const RATE_RPS: f64 = 2_000.0;
/// Relative deadline of every infer request.
const BUDGET_MS: f64 = 400.0;
/// Deadline of a probe request: no service fits, so admission rejects it
/// without queueing and the round trip is decode → lock → admit → encode →
/// write.
const PROBE_BUDGET_MS: f64 = 1e-3;
/// Probes per governor window; the window's first also scrapes metrics.
const PROBES_PER_WINDOW: u32 = 10;
/// Battery large enough that the governor never leaves its top level.
const BATTERY_J: f64 = 1e7;
/// Server queue bound: two seconds of arrivals. With the default 64 a stall
/// of the whole host longer than about 32 ms filled the queue and turned
/// requests away, so the failure count of a run depended on the host; a
/// stall now shows only in the latency figures.
const QUEUE_CAPACITY: usize = 4_096;
/// `setup_s` samples per run, spread over it; `setup_s` is their
/// [`typical`] figure.
const SETUP_REPS: usize = 61;
/// Set-ups timed back to back per sample; a sample is their mean, since one
/// set-up takes well under a millisecond.
const SETUP_BATCH: u32 = 48;
/// Segment length of the per-segment statistics (see `stats`).
const SEGMENT: Duration = Duration::from_secs(1);
/// Fewest responses a segment needs to count.
const MIN_SEGMENT_SAMPLES: usize = 500;
/// Generator lateness (p99) above which a run is flagged as not open loop.
const LATE_FLAG_MS: f64 = 1.0;
/// How long the receiver waits for a missing response before giving up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);
const PAYLOAD: [u8; 64] = [0; 64];

/// How one sent request ended. Every sent request lands in exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// A response with this status.
    Answered(Status),
    /// A terminal frame ended the connection before its response.
    Terminal,
    /// No response arrived.
    Unanswered,
}

/// Per-fate tallies of the sent requests, convertible into the server
/// crate's `LoadReport` for `check_load_invariants`.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    report: LoadReport,
}

impl Tally {
    /// Counts one sent request under its fate.
    pub fn record(&mut self, fate: Fate) {
        let r = &mut self.report;
        r.sent += 1;
        r.jobs += 1;
        match fate {
            Fate::Answered(Status::Completed) => r.completed += 1,
            Fate::Answered(Status::CompletedLate) => r.completed_late += 1,
            Fate::Answered(Status::RejectedQueueFull) => r.rejected_queue_full += 1,
            Fate::Answered(Status::RejectedCertainMiss) => r.rejected_certain_miss += 1,
            Fate::Answered(Status::DroppedDead) => r.dropped_dead += 1,
            Fate::Answered(Status::Draining) => r.draining += 1,
            Fate::Answered(Status::DroppedShutdown) => r.dropped_shutdown += 1,
            Fate::Terminal => r.terminal += 1,
            Fate::Unanswered => r.timeouts += 1,
        }
        match fate {
            Fate::Answered(status) if status.served() => r.jobs_succeeded += 1,
            Fate::Answered(Status::Draining | Status::DroppedShutdown) | Fate::Terminal => {
                r.jobs_aborted += 1
            }
            _ => r.jobs_abandoned += 1,
        }
    }

    /// The tallies as a one-attempt-per-job load report.
    pub fn report(&self) -> &LoadReport {
        &self.report
    }
}

/// A response as the receiver saw it.
#[derive(Debug, Clone, Copy)]
struct Received {
    at: Instant,
    status: Status,
    service_ms: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The default server configuration with a [`QUEUE_CAPACITY`]-deep queue.
fn server_config() -> ServerConfig {
    ServerConfig {
        scheduler: SchedulerConfig {
            queue_capacity: QUEUE_CAPACITY,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// The set-up being timed: a server spawn plus both connections.
fn set_up() -> (Server, TcpStream, ServeClient) {
    let server = Server::spawn(
        "127.0.0.1:0",
        ServerSpec::paper_default(BATTERY_J),
        server_config(),
    )
    .expect("spawn the server");
    let infer = TcpStream::connect(server.local_addr()).expect("connect the infer connection");
    infer.set_nodelay(true).expect("set TCP_NODELAY");
    let mut probe =
        ServeClient::connect(server.local_addr()).expect("connect the probe connection");
    probe
        .set_timeouts(Some(RESPONSE_TIMEOUT), Some(RESPONSE_TIMEOUT))
        .expect("set the probe timeouts");
    (server, infer, probe)
}

/// One `setup_s` sample: the mean time of [`SETUP_BATCH`] set-ups, each torn
/// down untimed before the next.
fn setup_sample() -> f64 {
    let mut total = Duration::ZERO;
    for _ in 0..SETUP_BATCH {
        let t0 = Instant::now();
        let spare = set_up();
        total += t0.elapsed();
        drop(spare);
    }
    total.as_secs_f64() / f64::from(SETUP_BATCH)
}

/// Runs the workload for `seconds` and returns its metrics and checks.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let due_ms = poisson_arrivals(seed, RATE_RPS, seconds);
    let n = due_ms.len();

    // set-up: one sample before the load, then the server the load runs
    // against, and the other samples spread through the run (see
    // `offline::Setups` for why)
    let mut setup_s = vec![setup_sample()];
    let (server, infer, mut probe) = set_up();
    let setup_gap = Duration::from_secs_f64(seconds / SETUP_REPS as f64);
    let window = Duration::from_secs_f64(server_config().window_ms / 1e3);

    let mut reader = BufReader::new(infer.try_clone().expect("clone the infer stream"));
    reader
        .get_ref()
        .set_read_timeout(Some(RESPONSE_TIMEOUT))
        .expect("set the read timeout");
    let mut writer = infer;
    let traced = tracer.enabled();
    let mut send_tracer = tracer.fork();
    let mut recv_tracer = tracer.fork();

    let start = Instant::now() + Duration::from_millis(20);
    let mut next_setup = start + setup_gap;
    let due = |i: usize| start + Duration::from_secs_f64(due_ms[i] / 1e3);
    let mut probe_rtt_ms = Vec::new();
    let mut metrics_rtt_ms = Vec::new();
    let mut probe_fates = Vec::new();

    let (sent_at, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent_at = Vec::with_capacity(n);
            for i in 0..n {
                let target = due(i);
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                let at = Instant::now();
                let body = ClientFrame::encode_infer(i as u64 + 1, BUDGET_MS, &PAYLOAD);
                if write_frame(&mut writer, &body).is_err() {
                    break;
                }
                // odd requests carry spans, recorded while they are in
                // flight, so a traced run compares them with the even ones
                if traced && i % 2 == 1 {
                    send_tracer.record("socket.send", 0, i as u64 + 1, target, Instant::now());
                }
                sent_at.push(at);
            }
            sent_at
        });
        let receiver = scope.spawn(|| {
            let mut received: Vec<Option<Received>> = vec![None; n];
            let mut got = 0;
            while got < n {
                let Ok(Some(body)) = read_frame(&mut reader, 1 << 20) else {
                    break;
                };
                let read = Instant::now();
                match ServerFrame::decode(&body) {
                    Ok(ServerFrame::Infer(r)) => {
                        let Some(slot) = (r.id as usize)
                            .checked_sub(1)
                            .and_then(|i| received.get_mut(i))
                        else {
                            continue;
                        };
                        if slot.is_none() {
                            got += 1;
                        }
                        if traced && r.id % 2 == 0 {
                            recv_tracer.record("socket.receive", 0, r.id, read, Instant::now());
                        }
                        // the response as the client holds it: read,
                        // decoded and, for a traced request, its span kept
                        *slot = Some(Received {
                            at: Instant::now(),
                            status: r.status,
                            service_ms: r.queue_ms + r.infer_ms,
                        });
                    }
                    _ => break,
                }
            }
            received
        });

        // probes and scrapes on the second connection until the schedule
        // has been sent
        let mut tick = 0u32;
        let probe_gap = window / PROBES_PER_WINDOW;
        while !sender.is_finished() {
            let target = start + probe_gap * tick;
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
            if tick.is_multiple_of(PROBES_PER_WINDOW) {
                let t0 = Instant::now();
                let ok = probe.metrics().is_ok();
                metrics_rtt_ms.push(ms(t0.elapsed()));
                if !ok {
                    break;
                }
            }
            let t0 = Instant::now();
            let fate = match probe.infer(u64::MAX - u64::from(tick), PROBE_BUDGET_MS, &PAYLOAD) {
                Ok(InferOutcome::Resolved(r)) => Fate::Answered(r.status),
                Ok(InferOutcome::Terminal(_)) => Fate::Terminal,
                Err(_) => Fate::Unanswered,
            };
            probe_rtt_ms.push(ms(t0.elapsed()));
            probe_fates.push(fate);
            if setup_s.len() < SETUP_REPS && Instant::now() >= next_setup {
                setup_s.push(setup_sample());
                next_setup += setup_gap;
            }
            tick += 1;
        }
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    tracer.absorb(send_tracer);
    tracer.absorb(recv_tracer);
    let snapshot = server.metrics_snapshot();

    // every sent request lands in exactly one fate
    let mut tally = Tally::default();
    let mut latency_ms = Segmented::new(start, SEGMENT);
    let mut traced_latency_ms = Vec::new();
    let mut pacing_lag_ms = Vec::new();
    let mut completed_on_time = 0u64;
    for (i, &sent) in sent_at.iter().enumerate() {
        let Some(r) = received[i] else {
            tally.record(Fate::Unanswered);
            continue;
        };
        tally.record(Fate::Answered(r.status));
        if r.status == Status::Completed {
            completed_on_time += 1;
            let from_due = ms(r.at - due(i));
            if traced && i % 2 == 1 {
                traced_latency_ms.push(from_due);
            } else {
                latency_ms.push(r.at, from_due);
            }
            pacing_lag_ms.push(ms(r.at - sent) - r.service_ms);
        }
    }
    for &fate in &probe_fates {
        tally.record(fate);
    }
    let report = tally.report();
    let sent = sent_at.len() as u64;
    out.attempted = sent;
    out.failed = sent - completed_on_time;
    if out.failed > 0 {
        // at this load only a stall of the host longer than the queue's two
        // seconds of arrivals turns requests away
        eprintln!(
            "rt3perf: {} of {sent} requests not completed on time: {report:?}",
            out.failed
        );
    }
    out.check(sent == n as u64, || {
        format!("sent {sent} of {n} scheduled requests")
    });
    out.check(report.timeouts == 0, || {
        format!("{} requests got no response", report.timeouts)
    });
    if let Err(violations) = check_load_invariants(report, &snapshot) {
        out.violations.extend(violations);
    }

    // open-loop honesty: how far behind its schedule the generator ran
    let late_ms: Vec<f64> = sent_at
        .iter()
        .enumerate()
        .map(|(i, &at)| ms(at.saturating_duration_since(due(i))))
        .collect();
    let late_p99_ms = quantile(&late_ms, 0.99);
    if late_p99_ms > LATE_FLAG_MS {
        eprintln!(
            "rt3perf: FLAG generator fell behind: lateness p99 {late_p99_ms:.3} ms, max {:.3} ms",
            max(&late_ms)
        );
    }
    let untraced = latency_ms.all();
    eprintln!("rt3perf: request latency ms {}", describe(&untraced));
    let last = received
        .iter()
        .flatten()
        .map(|r| r.at)
        .max()
        .unwrap_or(start);
    let setup_ms: Vec<f64> = setup_s.iter().map(|s| s * 1e3).collect();
    eprintln!("rt3perf: setup ms {}", describe(&setup_ms));
    out.set("setup_s", typical(&setup_s));
    out.set(
        "latency_p50_ms",
        latency_ms.typical(0.5, MIN_SEGMENT_SAMPLES),
    );
    out.set(
        "latency_p75_ms",
        latency_ms.typical(0.75, MIN_SEGMENT_SAMPLES),
    );
    // bounded by the offered load, not by the host's state: whole run
    out.set(
        "throughput_rps",
        completed_on_time as f64 / (last - start).as_secs_f64(),
    );

    if traced {
        let counter = |name: &str| snapshot.metrics.counter(name).unwrap_or(0) as f64;
        out.set("server.pacing_lag_p50_ms", median(&pacing_lag_ms));
        out.set("server.pacing_lag_p99_ms", quantile(&pacing_lag_ms, 0.99));
        out.set("server.reject_rtt_ms", median(&probe_rtt_ms));
        out.set("server.metrics_rtt_ms", median(&metrics_rtt_ms));
        out.set("server.admitted", counter("requests_admitted"));
        out.set("server.completed", counter("requests_completed"));
        out.set(
            "server.rejected",
            counter("requests_rejected_queue_full") + counter("requests_rejected_certain_miss"),
        );
        out.set("server.responses_failed", counter("responses_failed"));
        out.set("controller.switches", counter("switches"));
        out.set("loadgen.sent", sent as f64);
        out.set("loadgen.miss_ratio", out.failed as f64 / sent.max(1) as f64);
        out.set("loadgen.late_p99_ms", late_p99_ms);
        out.set("loadgen.late_max_ms", max(&late_ms));
        if let Some(h) = snapshot.metrics.histogram("batch_size") {
            out.set("scheduler.batch_mean", h.mean());
        }
        if let Some(h) = snapshot.metrics.histogram("queue_wait_ms") {
            out.set("scheduler.queue_wait_ms", h.quantile(0.5));
        }
        out.set(
            "telemetry.overhead_pct",
            100.0 * (median(&traced_latency_ms) / median(&untraced) - 1.0),
        );
        // the schedule through the scheduler as the dispatch thread runs
        // it: 2 ms ticks at the top level's cost
        let spec = ServerSpec::paper_default(BATTERY_J);
        let top = spec.level_base_ms.len() - 1;
        let base = spec.level_base_ms[top];
        let tick_ms = server_config().tick_ms as f64;
        scheduler_replay(&mut out, &due_ms, tick_ms, BUDGET_MS, top, |batch| {
            spec.cost.service_from_base_ms(top, base, batch)
        });
    }
    drop(probe);
    drop(server);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt3_telemetry::{MetricRegistry, TelemetryLevel, TelemetrySnapshot};

    fn all_fates() -> Vec<Fate> {
        let mut fates: Vec<Fate> = (0u8..=6)
            .map(|raw| Fate::Answered(Status::from_u8(raw).expect("valid status")))
            .collect();
        fates.push(Fate::Terminal);
        fates.push(Fate::Unanswered);
        fates
    }

    #[test]
    fn every_sent_request_lands_in_exactly_one_outcome() {
        let fates = all_fates();
        let mut tally = Tally::default();
        for (k, &fate) in fates.iter().enumerate() {
            for _ in 0..=k {
                tally.record(fate);
            }
        }
        let r = tally.report();
        let total: u64 = (1..=fates.len() as u64).sum();
        assert_eq!(r.sent, total);
        assert_eq!(r.lost(), 0, "each fate is counted under one field");
        assert_eq!(r.jobs, r.jobs_succeeded + r.jobs_abandoned + r.jobs_aborted);
        assert_eq!(r.served(), 1 + 2);
        assert_eq!(r.timeouts, fates.len() as u64);
    }

    #[test]
    fn tallies_reconcile_with_matching_server_counters() {
        let mut tally = Tally::default();
        for fate in [
            Fate::Answered(Status::Completed),
            Fate::Answered(Status::Completed),
            Fate::Answered(Status::CompletedLate),
            Fate::Answered(Status::RejectedCertainMiss),
        ] {
            tally.record(fate);
        }
        let mut registry = MetricRegistry::new();
        let admitted = registry.counter("requests_admitted");
        let completed = registry.counter("requests_completed");
        let late = registry.counter("deadline_missed");
        let certain = registry.counter("requests_rejected_certain_miss");
        let mut shard = registry.shard();
        shard.add(admitted, 3);
        shard.add(completed, 3);
        shard.add(late, 1);
        shard.add(certain, 1);
        let mut snapshot = TelemetrySnapshot {
            level: TelemetryLevel::Counters,
            metrics: registry.snapshot(&shard),
            trace: Vec::new(),
            trace_overwritten: 0,
            decisions: Vec::new(),
            decisions_overwritten: 0,
            residuals: Default::default(),
            obs: None,
        };
        assert_eq!(check_load_invariants(tally.report(), &snapshot), Ok(()));
        snapshot.metrics.counters[1].1 = 4;
        assert!(check_load_invariants(tally.report(), &snapshot).is_err());
    }
}
