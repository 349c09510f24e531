//! Loopback integration tests: a real server on an ephemeral port, real
//! sockets, and the closed-loop load generator. The headline check is
//! *reconciliation* — every request the clients sent must be accounted on
//! both sides of the wire, with the server-side telemetry counters
//! agreeing with the client-side tallies.

use rt3_server::protocol::TERMINAL_BATTERY_DEAD;
use rt3_server::{
    check_load_invariants, loadgen, InferOutcome, LoadgenConfig, ServeClient, Server, ServerConfig,
    ServerSpec, Status,
};
use std::time::{Duration, Instant};

/// A server spec with plenty of battery: nothing dies during the run.
fn healthy_spec() -> ServerSpec {
    ServerSpec::paper_default(10_000.0)
}

/// Fast governor cadence so short tests cross several window boundaries.
fn fast_config() -> ServerConfig {
    ServerConfig {
        window_ms: 50.0,
        ..ServerConfig::default()
    }
}

/// Spin until the server has no admitted-but-unresolved requests left.
fn wait_for_quiesce(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.pending_requests() > 0 {
        assert!(
            Instant::now() < deadline,
            "server still has {} pending requests after 5s",
            server.pending_requests()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn loadgen_reconciles_with_server_counters() {
    let server = Server::spawn("127.0.0.1:0", healthy_spec(), fast_config()).unwrap();
    let report = loadgen::run(
        server.local_addr(),
        &LoadgenConfig {
            connections: 16,
            duration: Duration::from_millis(800),
            deadline_budget_ms: 500.0,
            ..LoadgenConfig::default()
        },
    );
    wait_for_quiesce(&server);
    let snapshot = server.metrics_snapshot();
    let counter = |name: &str| snapshot.metrics.counter(name).unwrap_or(0);

    assert_eq!(report.connect_failures, 0, "all connections establish");
    assert_eq!(report.io_errors, 0, "no connection died mid-conversation");
    assert_eq!(report.terminal, 0, "no terminal frames on a healthy server");
    assert_eq!(report.lost(), 0, "every request accounted client-side");
    assert!(report.served() > 0, "the run served traffic");
    assert!(
        report.wall_latency_ms.count() > 0,
        "wall-clock histogram is non-empty"
    );

    // the full cross-layer invariant harness over the same data
    if let Err(violations) = check_load_invariants(&report, &snapshot) {
        panic!("load invariants violated:\n  {}", violations.join("\n  "));
    }

    // server-side counters reconcile with the client-side tallies
    assert_eq!(
        counter("requests_completed"),
        report.served(),
        "completions match across the wire"
    );
    assert_eq!(
        counter("deadline_missed"),
        report.completed_late,
        "late completions match"
    );
    assert_eq!(
        counter("requests_rejected_queue_full"),
        report.rejected_queue_full,
        "queue-full rejects match"
    );
    assert_eq!(
        counter("requests_rejected_certain_miss"),
        report.rejected_certain_miss,
        "certain-miss rejects match"
    );
    assert_eq!(
        counter("requests_admitted"),
        report.served() + report.dropped_dead + report.dropped_shutdown,
        "every admitted request resolved"
    );
    assert_eq!(counter("requests_dropped_dead"), 0);
    assert_eq!(counter("responses_failed"), 0);
    assert_eq!(counter("protocol_errors"), 0);
    assert_eq!(counter("connections_opened"), 16);
}

#[test]
fn wall_latency_tracks_cost_model_pacing() {
    // one request at a time on an idle server: the wall latency the client
    // measures should be close to the cost model's single-request service
    // time (plus real scheduling jitter) — never below it, and not rounded
    // up to a dispatch tick.
    let spec = healthy_spec();
    let base_ms: f64 = spec.level_base_ms.iter().copied().fold(0.0, f64::max);
    let server = Server::spawn("127.0.0.1:0", spec, fast_config()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let mut worst_ms = 0.0f64;
    let mut lags_ms = Vec::new();
    for id in 0..60u64 {
        let started = Instant::now();
        let outcome = client.infer(id, 1_000.0, b"payload").unwrap();
        let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
        let InferOutcome::Resolved(response) = outcome else {
            panic!("healthy server answered with a terminal frame");
        };
        assert!(response.status.served(), "idle server serves on time");
        assert!(
            response.infer_ms > 0.0,
            "service time is reported on the wire"
        );
        // the response is never written before its simulated finish time
        let paced_ms = response.queue_ms + response.infer_ms;
        assert!(
            wall_ms >= paced_ms,
            "request {id} answered after {wall_ms:.3}ms, before its paced \
             {paced_ms:.3}ms (queue {:.3} + infer {:.3})",
            response.queue_ms,
            response.infer_ms
        );
        lags_ms.push(wall_ms - paced_ms);
        worst_ms = worst_ms.max(wall_ms);
    }
    // generous bound: base service + switch + jitter. The point is that
    // responses are paced (not instant echo) yet bounded.
    assert!(
        worst_ms < base_ms + 500.0,
        "wall latency {worst_ms:.1}ms is unreasonably far above the \
         cost-model service time {base_ms:.1}ms"
    );
    // pacing wakes the dispatch thread at the finish time: the typical lag
    // past it is loopback + wakeup jitter, well under the 2 ms idle tick
    lags_ms.sort_by(f64::total_cmp);
    let median_lag_ms = lags_ms[lags_ms.len() / 2];
    assert!(
        median_lag_ms < 1.0,
        "median lag past the paced finish is {median_lag_ms:.3}ms: \
         responses are quantised to the tick"
    );
}

#[test]
fn shutdown_wakes_an_idle_dispatch_thread() {
    // with a one-second idle tick and nothing due, the dispatch thread is
    // parked in its wait; shutdown must wake it rather than wait it out
    let config = ServerConfig {
        tick_ms: 1_000,
        ..ServerConfig::default()
    };
    let mut server = Server::spawn("127.0.0.1:0", healthy_spec(), config).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(200),
        "shutdown took {took:?}: the dispatch thread slept through its wakeup"
    );
}

#[test]
fn metrics_command_serves_live_jsonl() {
    let server = Server::spawn("127.0.0.1:0", healthy_spec(), fast_config()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    for id in 0..3u64 {
        client.infer(id, 1_000.0, b"x").unwrap();
    }
    let jsonl = client.metrics().unwrap();
    assert!(
        jsonl.contains("\"requests_admitted\""),
        "snapshot carries the admission counter: {jsonl}"
    );
    assert!(
        jsonl.contains("rt3-serve"),
        "snapshot is labelled with its source: {jsonl}"
    );
    // the wire snapshot matches the in-process one
    let snapshot = server.metrics_snapshot();
    assert!(snapshot.metrics.counter("requests_admitted").unwrap_or(0) >= 3);
}

#[test]
fn battery_death_drains_gracefully() {
    // a battery sized to die after a few 50ms windows of background drain
    let spec = ServerSpec {
        battery_capacity_j: 1.0,
        ..healthy_spec()
    };
    let config = ServerConfig {
        window_ms: 50.0,
        background_w: 8.0, // 0.4 J per window: dead within ~3 windows
        ..ServerConfig::default()
    };
    let server = Server::spawn("127.0.0.1:0", spec, config).unwrap();
    // connect while alive
    let mut survivor = ServeClient::connect(server.local_addr()).unwrap();

    // keep offering load until the server reports the drain
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut saw_draining = false;
    let mut id = 0u64;
    while Instant::now() < deadline {
        match survivor.infer(id, 1_000.0, b"x") {
            Ok(InferOutcome::Resolved(response)) if response.status == Status::Draining => {
                saw_draining = true;
                break;
            }
            Ok(InferOutcome::Resolved(_)) => {}
            Ok(InferOutcome::Terminal(_)) | Err(_) => {
                panic!("existing connections stay open through the drain")
            }
        }
        id += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(saw_draining, "requests after battery death report Draining");
    assert!(server.is_draining(), "the server handle reports the drain");
    assert_eq!(
        server.pending_requests(),
        0,
        "drain flushed every admitted request"
    );

    // new connections are refused with an explicit terminal code
    let mut refused = ServeClient::connect(server.local_addr()).unwrap();
    match refused.infer(999, 1_000.0, b"x") {
        Ok(InferOutcome::Terminal(code)) => assert_eq!(code, TERMINAL_BATTERY_DEAD),
        // the refusal may race the write: a reset is also an explicit end
        Err(rt3_server::ProtocolError::Io(_)) => {}
        other => panic!("dead server must refuse new connections, got {other:?}"),
    }

    // metrics stay available on surviving connections during the drain
    let jsonl = survivor.metrics().unwrap();
    assert!(jsonl.contains("\"requests_draining_refused\""));
    let snapshot = server.metrics_snapshot();
    assert!(
        snapshot
            .metrics
            .counter("requests_draining_refused")
            .unwrap_or(0)
            >= 1
    );
}

#[test]
fn shutdown_resolves_every_outstanding_request() {
    let mut server = Server::spawn("127.0.0.1:0", healthy_spec(), fast_config()).unwrap();
    let addr = server.local_addr();
    let load = std::thread::spawn(move || {
        loadgen::run(
            addr,
            &LoadgenConfig {
                connections: 8,
                duration: Duration::from_secs(10),
                deadline_budget_ms: 500.0,
                ..LoadgenConfig::default()
            },
        )
    });
    std::thread::sleep(Duration::from_millis(400));
    server.shutdown();
    let report = load.join().unwrap();
    assert_eq!(report.lost(), 0, "shutdown resolves every request");
    assert!(report.served() > 0, "traffic flowed before the shutdown");
    assert!(
        report.terminal + report.dropped_shutdown + report.io_errors > 0,
        "the shutdown was observed by the clients"
    );
    assert_eq!(server.pending_requests(), 0);
    // the harness degrades to one-sided bounds when clients lost their
    // sockets mid-conversation, so it must hold even across a shutdown
    if let Err(violations) = check_load_invariants(&report, &server.metrics_snapshot()) {
        panic!("load invariants violated:\n  {}", violations.join("\n  "));
    }
}

#[test]
fn subscribe_streams_obs_chunks_per_window() {
    let server = Server::spawn("127.0.0.1:0", healthy_spec(), fast_config()).unwrap();

    // some traffic so the series have non-trivial values
    let mut worker = ServeClient::connect(server.local_addr()).unwrap();
    for id in 0..3u64 {
        worker.infer(id, 1_000.0, b"x").unwrap();
    }

    let mut sub = ServeClient::connect(server.local_addr()).unwrap();
    sub.set_timeouts(Some(Duration::from_secs(5)), Some(Duration::from_secs(5)))
        .unwrap();
    let catch_up = sub.subscribe().unwrap();
    assert!(
        catch_up.contains("\"type\":\"obs\""),
        "catch-up chunk carries the accounting line: {catch_up}"
    );
    assert!(
        catch_up.contains("rt3-serve"),
        "chunks are labelled with their source: {catch_up}"
    );

    // every subsequent chunk is one governor window's delta; at 50ms
    // windows the dispatch thread wakes at each boundary to produce them
    let mut windows = Vec::new();
    for _ in 0..3 {
        let chunk = sub.next_obs().unwrap();
        assert!(chunk.ends_with('\n'), "chunks are newline-terminated");
        for line in chunk.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "chunk lines are JSON objects: {line}"
            );
        }
        // the window index is strictly increasing across chunks
        if let Some(pos) = chunk.find("\"t_s\":") {
            let rest = &chunk[pos + 6..];
            let end = rest.find([',', '}']).unwrap();
            windows.push(rest[..end].parse::<u64>().unwrap());
        }
    }
    assert!(
        windows.windows(2).all(|w| w[0] < w[1]),
        "window indices advance monotonically: {windows:?}"
    );

    // the infer path keeps working while a subscriber is attached
    worker.infer(99, 1_000.0, b"x").unwrap();
}
