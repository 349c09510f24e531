//! The RT3 benchmark: one command, two workloads, end-to-end metrics with
//! tracing off and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path rt3perf/Cargo.toml -- \
//!     --workload <socket-open|reconfig-cycle> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is the
//! environment stamp. A traced run also writes its spans to
//! `.rt3perf/<workload>-seed<n>.spans.jsonl`. The exit code is non-zero
//! when an output check fails.

mod engine;
mod layers;
mod offline;
mod reconfig;
mod report;
mod schedule;
mod socket;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use trace::{env_stamp, Tracer};

const WORKLOADS: [&str; 2] = ["socket-open", "reconfig-cycle"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&WORKLOADS.join("|"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("rt3perf: {message}");
            return ExitCode::from(2);
        }
    };
    let stamp = env_stamp(&args.workload, args.seed);
    let mut tracer = Tracer::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "socket-open" => socket::run(args.seed, args.seconds, &mut tracer),
        "reconfig-cycle" => reconfig::run(args.seed, args.seconds, &mut tracer),
        _ => unreachable!("validated in parse_args"),
    };
    if tracer.enabled() {
        let path = PathBuf::from(".rt3perf")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path, &stamp) {
            outcome
                .violations
                .push(format!("writing {}: {e}", path.display()));
        } else {
            eprintln!(
                "rt3perf: {} spans written to {}",
                tracer.len(),
                path.display()
            );
        }
    }
    let line = outcome.result_line(args.trace);
    for violation in &outcome.violations {
        eprintln!("rt3perf: check failed: {violation}");
    }
    println!("{stamp}");
    println!("{line}");
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
