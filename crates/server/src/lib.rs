//! # rt3-server (rt3-serve)
//!
//! The real-socket serving front-end of the RT3 reproduction: a
//! dependency-free `std::net::TcpListener` server speaking a small
//! length-prefixed binary protocol, feeding the runtime's
//! [`rt3_runtime::DeadlineScheduler`] through the same admission path the
//! simulated device uses. Backpressure is mapped to explicit
//! [`protocol::Status`] response codes (clients see queue-full /
//! certain-miss rejects, never a silent TCP stall), battery death drains
//! gracefully (in-flight responses flushed, queued requests dropped with a
//! code, new connections refused with a terminal frame), and a live
//! metrics command serializes the [`rt3_telemetry::TelemetrySnapshot`]
//! JSONL on demand.
//!
//! * [`protocol`] — the wire format: frames, opcodes, status codes.
//! * [`Server`] — the thread-per-connection server around one
//!   mutex-guarded core (scheduler + the runtime's
//!   [`rt3_runtime::DeviceGovernor`]).
//! * [`ServeClient`] — a blocking client for the protocol.
//! * [`loadgen`] — the closed-loop multi-connection load generator:
//!   wall-clock latency histograms plus a timeout-retry-abandon
//!   [`RetryPolicy`] per connection.
//! * [`fault`] — seeded adversarial clients (torn writes, mid-request
//!   disconnects, hung peers) for probing the server boundary.
//!
//! See DESIGN.md §10 for the frame layout and drain semantics.
//!
//! # Example
//!
//! ```
//! use rt3_server::{loadgen, LoadgenConfig, Server, ServerConfig, ServerSpec};
//! use std::time::Duration;
//!
//! let server = Server::spawn(
//!     "127.0.0.1:0",
//!     ServerSpec::paper_default(60.0),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//! let report = loadgen::run(
//!     server.local_addr(),
//!     &LoadgenConfig {
//!         connections: 4,
//!         duration: Duration::from_millis(300),
//!         ..LoadgenConfig::default()
//!     },
//! );
//! assert_eq!(report.lost(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod fault;
pub mod loadgen;
pub mod protocol;
mod rng;
mod server;

pub use client::{InferOutcome, ServeClient};
pub use fault::{Fault, FaultPlan, FaultReport};
pub use loadgen::{check_load_invariants, LoadReport, LoadgenConfig, RetryPolicy};
pub use protocol::{InferResponse, ProtocolError, Status};
pub use server::{Server, ServerConfig, ServerSpec};
