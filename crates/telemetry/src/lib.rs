//! # rt3-telemetry
//!
//! Zero-dependency observability layer of the RT3 runtime: streaming
//! metrics, request-lifecycle tracing and a controller decision audit.
//! The serving engine's core claim is a run-time *dance* — the controller
//! reconfiguring V/F levels and sparse models against battery drain — and
//! this crate produces the evidence: why a switch fired, where a missed
//! deadline spent its time, and what the cost model predicted versus what
//! actually happened.
//!
//! The building blocks:
//!
//! * [`StreamingHistogram`] — log-bucketed, bounded-memory, mergeable
//!   latency histogram with quantile error of at most one bucket width
//!   (≈ 3% relative). Per-device and per-worker histograms merge
//!   associatively, so fleet aggregates never need the raw samples.
//! * [`MetricRegistry`] / [`MetricShard`] — interned metric names with
//!   plain-index shards: the hot path is an array add with no locks and no
//!   hashing; shards merge into aggregates at window boundaries.
//! * [`TraceRecorder`] — a bounded ring buffer of per-request span events
//!   (admit → infer → complete/miss/reject/drop), exportable as JSONL.
//! * [`DecisionAudit`] — a bounded ring buffer of controller decisions with
//!   their inputs (state of charge, dwell, time to death, predicted
//!   latency) plus running prediction-vs-actual residual statistics.
//! * [`Clock`] — the wall-time source behind kernel/build timings, with a
//!   deterministic [`ManualClock`] so tests never depend on the host.
//!
//! Everything sits behind a [`TelemetryConfig`] with three levels:
//! [`TelemetryLevel::Off`] (the default — behaviour and overhead identical
//! to an uninstrumented build), [`TelemetryLevel::Counters`]
//! (counters/gauges/histograms only; the <3% overhead budget of the CI
//! gate applies here) and [`TelemetryLevel::Full`] (adds tracing and the
//! decision audit).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alert;
mod audit;
mod clock;
mod config;
mod histogram;
mod json;
mod metrics;
mod span;
mod timeseries;
mod trace;

pub use alert::{
    AlertCondition, AlertEngine, AlertRule, AlertState, AlertTransition, Compare, ObsPlane,
    ObsSnapshot,
};
pub use audit::{DecisionAudit, DecisionRecord, ResidualStats};
pub use clock::{Clock, ManualClock, WallClock};
pub use config::{TelemetryConfig, TelemetryLevel};
pub use histogram::{HistogramDelta, StreamingHistogram};
pub use json::{json_f64, json_str};
pub use metrics::{CounterId, GaugeId, HistogramId, MetricRegistry, MetricShard, MetricsSnapshot};
pub use span::{
    CriticalSegment, MissAttribution, RequestSpans, Span, SpanForest, SpanSegment, SwitchSpan,
};
pub use timeseries::{Scraper, SeriesExpr, SeriesPoint, WindowDelta};
pub use trace::{RingBuffer, TraceEvent, TraceEventKind, TraceRecorder};

/// Everything one instrumented run produced, detached from the live
/// recording machinery so it can ride inside a report: the merged metric
/// snapshot, the (possibly truncated) trace and decision audit, and the
/// cost-model residual statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Level the run recorded at.
    pub level: TelemetryLevel,
    /// Counters, gauges and histograms by name.
    pub metrics: MetricsSnapshot,
    /// Request-lifecycle events in record order (empty below
    /// [`TelemetryLevel::Full`]).
    pub trace: Vec<TraceEvent>,
    /// Events evicted from the trace ring buffer before the snapshot.
    pub trace_overwritten: u64,
    /// Controller decisions in record order (empty below
    /// [`TelemetryLevel::Full`]).
    pub decisions: Vec<DecisionRecord>,
    /// Decisions evicted from the audit ring buffer before the snapshot.
    pub decisions_overwritten: u64,
    /// Prediction-vs-actual latency residuals accumulated by the audit.
    pub residuals: ResidualStats,
    /// The observability plane's view — evaluated series and the alert
    /// log — when the source ran one (`None` below
    /// [`TelemetryLevel::Full`], and on merged fleet aggregates: series
    /// from different sources don't sum point-wise, so consumers merge
    /// raw metrics and re-derive).
    pub obs: Option<ObsSnapshot>,
}

impl TelemetrySnapshot {
    /// A snapshot of `metrics` alone, recorded at `level`: no trace, no
    /// decision audit, no residuals and no observability plane — what a
    /// source that only counts (the fleet router, the chaos clients, the
    /// socket server's core) reports.
    pub fn metrics_only(level: TelemetryLevel, metrics: MetricsSnapshot) -> Self {
        Self {
            level,
            metrics,
            trace: Vec::new(),
            trace_overwritten: 0,
            decisions: Vec::new(),
            decisions_overwritten: 0,
            residuals: ResidualStats::default(),
            obs: None,
        }
    }

    /// Merges another device's snapshot into this one to build a fleet-wide
    /// aggregate: metrics merge by name ([`MetricsSnapshot::merge`] —
    /// counters add, histograms bucket-merge, gauges last-wins), traces and
    /// decision audits concatenate in merge order, overwrite counts add, and
    /// residual statistics accumulate. The recorded level is the lower of
    /// the two, so a merged snapshot never claims data a member never
    /// collected.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.level = self.level.min(other.level);
        self.metrics.merge(&other.metrics);
        self.trace.extend(other.trace.iter().cloned());
        self.trace_overwritten += other.trace_overwritten;
        self.decisions.extend(other.decisions.iter().cloned());
        self.decisions_overwritten += other.decisions_overwritten;
        self.residuals.merge(&other.residuals);
        // Evaluated series are per-source; a fleet view re-derives from the
        // merged metrics (or uses SpanForest::merge for spans).
        self.obs = None;
    }

    /// Reassembles the trace into per-request span trees with switch
    /// overlap attribution (empty below [`TelemetryLevel::Full`]).
    pub fn spans(&self) -> SpanForest {
        SpanForest::from_trace(&self.trace)
    }

    /// Drops series measured against the real clock (see
    /// [`MetricsSnapshot::scrub_wall_clock`]); the rest of a simulated
    /// run's snapshot is seed-deterministic and replay-comparable.
    pub fn scrub_wall_clock(&mut self) {
        self.metrics.scrub_wall_clock();
    }

    /// Serialises the whole snapshot as JSONL: one `{"type": "metric", ...}`
    /// line per metric, one `{"type": "trace", ...}` line per span event,
    /// one `{"type": "decision", ...}` line per audited decision, one
    /// `{"type": "ring", ...}` accounting line (so a consumer reassembling
    /// spans can tell a complete trace from a truncated one instead of
    /// silently reconstructing partial trees), and — when an observability
    /// plane ran — the series/alert lines, each carrying the caller's
    /// extra `labels` (e.g. the device name).
    pub fn to_jsonl(&self, labels: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for line in self.metrics.to_jsonl_lines(labels) {
            out.push_str(&line);
            out.push('\n');
        }
        for event in &self.trace {
            out.push_str(&event.to_json(labels));
            out.push('\n');
        }
        for decision in &self.decisions {
            out.push_str(&decision.to_json(labels));
            out.push('\n');
        }
        out.push_str(&self.residuals.to_json(labels));
        out.push('\n');
        out.push_str(&format!(
            "{{\"type\":\"ring\",\"trace_overwritten\":{},\"decisions_overwritten\":{}{}}}\n",
            self.trace_overwritten,
            self.decisions_overwritten,
            json::label_suffix(labels)
        ));
        if let Some(obs) = &self.obs {
            for line in obs.to_jsonl_lines(labels) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merge_aggregates_every_section() {
        fn device_snapshot(served: u64, latency: f64) -> TelemetrySnapshot {
            let mut registry = MetricRegistry::new();
            let c = registry.counter("served");
            let h = registry.histogram("latency_ms");
            let mut shard = registry.shard();
            shard.add(c, served);
            shard.record(h, latency);
            let mut audit = DecisionAudit::new(4);
            audit.record_residual(50.0, latency);
            TelemetrySnapshot {
                level: TelemetryLevel::Full,
                metrics: registry.snapshot(&shard),
                trace: vec![TraceEvent {
                    t_ms: latency,
                    request_id: served,
                    kind: TraceEventKind::Admit {
                        deadline_ms: latency + 400.0,
                        queue_depth: 0,
                        predicted_ms: latency,
                    },
                }],
                trace_overwritten: 1,
                decisions: Vec::new(),
                decisions_overwritten: 0,
                residuals: audit.residuals(),
                obs: Some(ObsPlane::standard(1_000.0, 8).snapshot()),
            }
        }
        let mut fleet = device_snapshot(3, 10.0);
        let counters_only = TelemetrySnapshot {
            level: TelemetryLevel::Counters,
            ..device_snapshot(4, 30.0)
        };
        fleet.merge(&counters_only);
        assert_eq!(fleet.level, TelemetryLevel::Counters, "lowest level wins");
        assert_eq!(fleet.metrics.counter("served"), Some(7));
        assert_eq!(fleet.metrics.histogram("latency_ms").unwrap().count(), 2);
        assert_eq!(fleet.trace.len(), 2);
        assert_eq!(fleet.trace_overwritten, 2);
        assert_eq!(fleet.residuals.count, 2);
        assert!(
            fleet.obs.is_none(),
            "per-source series don't merge; fleet views re-derive"
        );
    }

    #[test]
    fn snapshot_jsonl_emits_every_section_with_labels() {
        let mut registry = MetricRegistry::new();
        let c = registry.counter("served");
        let g = registry.gauge("soc");
        let h = registry.histogram("latency_ms");
        let mut shard = registry.shard();
        shard.add(c, 3);
        shard.set(g, 0.5);
        shard.record(h, 12.0);
        let mut trace = TraceRecorder::new(8);
        trace.record(TraceEvent {
            t_ms: 1.0,
            request_id: 7,
            kind: TraceEventKind::Reject {
                reason: "queue-full",
            },
        });
        let mut audit = DecisionAudit::new(8);
        audit.record(DecisionRecord {
            t_ms: 0.0,
            state_of_charge: 0.9,
            thermal_cap: None,
            raw_target: 2,
            chosen_level: 2,
            switched: false,
            dwell_ms: f64::INFINITY,
            time_to_death_ms: f64::INFINITY,
            predicted_latency_ms: 55.0,
        });
        audit.record_residual(50.0, 58.0);
        let snapshot = TelemetrySnapshot {
            level: TelemetryLevel::Full,
            metrics: registry.snapshot(&shard),
            trace: trace.events(),
            trace_overwritten: trace.overwritten(),
            decisions: audit.decisions(),
            decisions_overwritten: audit.overwritten(),
            residuals: audit.residuals(),
            obs: None,
        };
        let jsonl = snapshot.to_jsonl(&[("device", "d0")]);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines.len(),
            3 + 1 + 1 + 1 + 1,
            "metrics + trace + decision + residuals + ring accounting"
        );
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(lines.iter().all(|l| l.contains("\"device\":\"d0\"")));
        assert!(jsonl.contains("\"type\":\"metric\""));
        assert!(jsonl.contains("\"type\":\"trace\""));
        assert!(jsonl.contains("\"type\":\"decision\""));
        assert!(jsonl.contains("\"type\":\"residuals\""));
        assert!(jsonl.contains("\"type\":\"ring\""));
        assert!(jsonl.contains("\"trace_overwritten\":0"));
        // non-finite inputs must serialise as null, not `inf`
        assert!(
            !jsonl.contains("inf"),
            "JSONL must stay valid JSON: {jsonl}"
        );
    }
}
