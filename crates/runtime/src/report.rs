//! Serve-run reporting: per-window traces plus aggregate latency, deadline
//! and energy statistics, and fleet-level aggregation ([`FleetReport`])
//! across several simulated devices.
//!
//! Latency percentiles come from one shared implementation — the
//! log-bucketed [`StreamingHistogram`] — instead of per-report sorted
//! sample vectors: memory stays bounded regardless of trace length, and a
//! fleet percentile is a bucket-wise merge of the device histograms rather
//! than a flatten-and-sort over every raw sample. Reported quantiles are
//! exact up to one bucket width (≈ 3% relative, see
//! [`StreamingHistogram::relative_error`]).

use rt3_telemetry::{StreamingHistogram, TelemetrySnapshot};

/// Per-window slice of a serve run (windows are one simulated second).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Window start, seconds into the trace.
    pub t_s: u32,
    /// Governor level position in effect (`None` once the device died).
    pub level_pos: Option<usize>,
    /// Battery state of charge at the window end.
    pub state_of_charge: f64,
    /// Requests that arrived in the window.
    pub arrivals: u64,
    /// Requests completed in the window.
    pub completed: u64,
    /// Completions that missed their deadline.
    pub missed: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Whether a pattern-set switch happened at the window boundary.
    pub switched: bool,
}

/// Aggregate outcome of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Scenario name.
    pub scenario: String,
    /// Policy label ("adaptive" or "fixed-l`<index>`").
    pub policy: String,
    /// Cost-model label ("analytic" or "calibrated") the run's predictions
    /// came from.
    pub cost_model: String,
    /// Per-window trace.
    pub windows: Vec<WindowReport>,
    /// Total arrivals over the trace.
    pub arrivals: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Completions that missed their deadline.
    pub missed_deadline: u64,
    /// Requests rejected at admission (queue full or certain miss).
    pub rejected: u64,
    /// Requests dropped because the battery died.
    pub dropped_dead_battery: u64,
    /// Requests still queued (admitted but unserved) when the trace ended.
    pub dropped_at_trace_end: u64,
    /// End-to-end latency distribution of all completions, milliseconds.
    pub latency_hist: StreamingHistogram,
    /// Pattern-set/V-F switches performed.
    pub switches: u64,
    /// Total wall time spent switching, milliseconds.
    pub switch_time_ms: f64,
    /// Inference energy drawn from the battery, joules.
    pub inference_energy_j: f64,
    /// Background (non-inference) energy drawn, joules.
    pub background_energy_j: f64,
    /// Completions per governor level position.
    pub runs_per_level: Vec<u64>,
    /// Battery state of charge at the end of the trace.
    pub final_state_of_charge: f64,
    /// Second at which the battery died, if it did.
    pub died_at_s: Option<u32>,
    /// Checksum accumulated by the real sparse-inference worker pool (0 when
    /// real inference is disabled).
    pub inference_checksum: f64,
    /// Real sparse-inference batches executed by the worker pool.
    pub real_batches: u64,
    /// Telemetry recorded during the run (`None` when telemetry is off).
    pub telemetry: Option<TelemetrySnapshot>,
}

impl ServeReport {
    /// Fraction of all arrivals that failed to complete by their deadline
    /// (deadline misses + rejections + dead-battery and trace-end drops).
    pub fn miss_rate(&self) -> f64 {
        if self.arrivals == 0 {
            return 0.0;
        }
        (self.missed_deadline
            + self.rejected
            + self.dropped_dead_battery
            + self.dropped_at_trace_end) as f64
            / self.arrivals as f64
    }

    /// Latency percentile over completions, `q` in `[0, 1]`: the streaming
    /// histogram's nearest-rank quantile, within one bucket width of the
    /// exact sample value. Returns 0 with no completions.
    pub fn latency_percentile_ms(&self, q: f64) -> f64 {
        self.latency_hist.quantile(q)
    }

    /// Median latency in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.latency_percentile_ms(0.50)
    }

    /// 95th-percentile latency in milliseconds.
    pub fn p95_ms(&self) -> f64 {
        self.latency_percentile_ms(0.95)
    }

    /// 99th-percentile latency in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.latency_percentile_ms(0.99)
    }

    /// Total energy drawn from the battery, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.inference_energy_j + self.background_energy_j
    }

    /// Completions per joule of inference energy (the online analogue of the
    /// paper's "number of runs" metric).
    pub fn runs_per_joule(&self) -> f64 {
        if self.inference_energy_j <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / self.inference_energy_j
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<22} {:<10} served {:>5}/{:<5} miss {:>5.1}% p50 {:>6.1} ms p95 {:>6.1} ms \
             switches {:>3} energy {:>7.1} J final soc {:>4.0}%{}",
            self.scenario,
            self.policy,
            self.completed,
            self.arrivals,
            100.0 * self.miss_rate(),
            self.p50_ms(),
            self.p95_ms(),
            self.switches,
            self.total_energy_j(),
            100.0 * self.final_state_of_charge,
            match self.died_at_s {
                Some(t) => format!(" DIED at {t} s"),
                None => String::new(),
            }
        )
    }
}

/// Aggregate outcome of one fleet run: per-device [`ServeReport`]s plus the
/// router's view of the trace.
///
/// Per-device `rejected` counts include failed failover *attempts* (a
/// request bounced off one device and admitted by another is rejected on
/// the first and completed on the second), so the fleet miss rate is
/// computed from terminal outcomes — completions that missed, drops and
/// unroutable requests — never by summing per-device rates.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Fleet scenario name.
    pub scenario: String,
    /// Routing policy label ("battery-aware", "round-robin" or "sticky").
    pub routing: String,
    /// Requests that arrived at the router over the trace.
    pub arrivals: u64,
    /// Requests no device would admit (all dead or all rejecting).
    pub unroutable: u64,
    /// Per-device outcomes; `ServeReport::arrivals` is the traffic
    /// *admitted by* that device (failed failover attempts count only in
    /// its `rejected`), and `ServeReport::scenario` carries the device name
    /// from the fleet scenario's profile.
    pub devices: Vec<ServeReport>,
    /// Router-level telemetry — per-device route and failover counters
    /// (`None` when telemetry is off). Device-level telemetry rides inside
    /// each [`ServeReport`].
    pub telemetry: Option<TelemetrySnapshot>,
}

impl FleetReport {
    /// Requests served to completion across the fleet.
    pub fn completed(&self) -> u64 {
        self.devices.iter().map(|d| d.completed).sum()
    }

    /// Completions that missed their deadline, across the fleet.
    pub fn missed_deadline(&self) -> u64 {
        self.devices.iter().map(|d| d.missed_deadline).sum()
    }

    /// Requests lost after admission: queued on a device whose battery died,
    /// or still queued when the trace ended.
    pub fn dropped(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.dropped_dead_battery + d.dropped_at_trace_end)
            .sum()
    }

    /// Fraction of all router arrivals that failed: deadline misses, drops
    /// on admitted requests, and unroutable requests.
    pub fn miss_rate(&self) -> f64 {
        if self.arrivals == 0 {
            return 0.0;
        }
        (self.missed_deadline() + self.dropped() + self.unroutable) as f64 / self.arrivals as f64
    }

    /// Total energy drawn from every battery, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.devices.iter().map(|d| d.total_energy_j()).sum()
    }

    /// Pattern-set/V-F switches across the fleet.
    pub fn total_switches(&self) -> u64 {
        self.devices.iter().map(|d| d.switches).sum()
    }

    /// Devices whose battery died during the trace.
    pub fn deaths(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| d.died_at_s.is_some())
            .count()
    }

    /// Load imbalance: the busiest device's routed traffic over the fleet
    /// mean (1.0 = perfectly balanced; `round-robin` sits near 1, `sticky`
    /// near the device count). Returns 0 with no routed traffic.
    pub fn load_imbalance(&self) -> f64 {
        let routed: Vec<u64> = self.devices.iter().map(|d| d.arrivals).collect();
        let total: u64 = routed.iter().sum();
        if total == 0 || routed.is_empty() {
            return 0.0;
        }
        let mean = total as f64 / routed.len() as f64;
        *routed.iter().max().expect("non-empty") as f64 / mean
    }

    /// Latency percentile over all fleet completions, `q` in `[0, 1]`:
    /// the device histograms merge bucket-wise (merging is associative, so
    /// the result is independent of device order) and the quantile is read
    /// off the aggregate — no raw samples needed.
    pub fn latency_percentile_ms(&self, q: f64) -> f64 {
        let mut all = StreamingHistogram::new();
        for device in &self.devices {
            all.merge(&device.latency_hist);
        }
        all.quantile(q)
    }

    /// Fleet-wide aggregate telemetry: every device's
    /// [`TelemetrySnapshot`] merged into one ([`TelemetrySnapshot::merge`]
    /// — counters add, histograms bucket-merge, traces concatenate), so a
    /// fleet run exports a single `latency_ms` histogram or
    /// `requests_completed` counter without touching raw samples. Returns
    /// `None` when the fleet is empty or any device ran without telemetry
    /// (a partial aggregate would silently under-count). Router counters
    /// ([`FleetReport::telemetry`]) are kept separate — merge them in with
    /// another [`TelemetrySnapshot::merge`] call if one stream is wanted.
    pub fn merged_device_telemetry(&self) -> Option<TelemetrySnapshot> {
        let mut merged: Option<TelemetrySnapshot> = None;
        for device in &self.devices {
            let snapshot = device.telemetry.as_ref()?;
            match &mut merged {
                Some(m) => m.merge(snapshot),
                None => merged = Some(snapshot.clone()),
            }
        }
        merged
    }

    /// One-line fleet summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<22} {:<14} served {:>6}/{:<6} miss {:>5.1}% p95 {:>7.1} ms switches {:>3} \
             energy {:>7.1} J imbalance {:>4.2} deaths {}",
            self.scenario,
            self.routing,
            self.completed(),
            self.arrivals,
            100.0 * self.miss_rate(),
            self.latency_percentile_ms(0.95),
            self.total_switches(),
            self.total_energy_j(),
            self.load_imbalance(),
            self.deaths(),
        )
    }

    /// Per-device summary lines (device name, routed share, outcome). The
    /// per-device miss rate counts terminal outcomes only (deadline misses
    /// and drops over admitted traffic) — `ServeReport::miss_rate` would
    /// also count failover attempts that were served elsewhere.
    pub fn device_summaries(&self) -> Vec<String> {
        self.devices
            .iter()
            .map(|d| {
                let failed = d.missed_deadline + d.dropped_dead_battery + d.dropped_at_trace_end;
                let miss = if d.arrivals == 0 {
                    0.0
                } else {
                    failed as f64 / d.arrivals as f64
                };
                format!(
                    "  {:<14} routed {:>6} served {:>6} miss {:>5.1}% switches {:>3} \
                     final soc {:>4.0}%{}",
                    d.scenario,
                    d.arrivals,
                    d.completed,
                    100.0 * miss,
                    d.switches,
                    100.0 * d.final_state_of_charge,
                    match d.died_at_s {
                        Some(t) => format!(" DIED at {t} s"),
                        None => String::new(),
                    }
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(latencies: Vec<f64>) -> ServeReport {
        let mut latency_hist = StreamingHistogram::new();
        for &l in &latencies {
            latency_hist.record(l);
        }
        ServeReport {
            scenario: "test".into(),
            policy: "adaptive".into(),
            cost_model: "analytic".into(),
            windows: Vec::new(),
            arrivals: 10,
            completed: latencies.len() as u64,
            missed_deadline: 1,
            rejected: 1,
            dropped_dead_battery: 0,
            dropped_at_trace_end: 0,
            latency_hist,
            switches: 2,
            switch_time_ms: 10.0,
            inference_energy_j: 5.0,
            background_energy_j: 2.5,
            runs_per_level: vec![0, 0, 8],
            final_state_of_charge: 0.4,
            died_at_s: None,
            inference_checksum: 0.0,
            real_batches: 0,
            telemetry: None,
        }
    }

    /// Asserts a reported percentile lands in the bucket of the exact
    /// nearest-rank sample — the documented ±1-bucket pin of the shared
    /// histogram percentiles.
    fn assert_within_bucket(reported: f64, exact: f64) {
        let (lo, hi) = StreamingHistogram::bucket_bounds(exact);
        assert!(
            (lo.min(exact)..=hi).contains(&reported),
            "{reported} outside the bucket [{lo}, {hi}] of exact {exact}"
        );
    }

    #[test]
    fn miss_rate_counts_rejections_and_misses() {
        let r = report(vec![50.0; 8]);
        assert!((r.miss_rate() - 0.2).abs() < 1e-12);
        assert!((r.total_energy_j() - 7.5).abs() < 1e-12);
        assert!(r.runs_per_joule() > 0.0);
    }

    #[test]
    fn percentiles_track_nearest_rank_within_one_bucket() {
        let r = report((1..=100).map(|x| x as f64).collect());
        assert_within_bucket(r.p50_ms(), 50.0);
        assert_within_bucket(r.p95_ms(), 95.0);
        assert_within_bucket(r.p99_ms(), 99.0);
        assert_eq!(r.latency_percentile_ms(1.0), 100.0, "max is exact");
        assert_eq!(report(Vec::new()).p95_ms(), 0.0);
    }

    #[test]
    fn fleet_aggregates_sum_devices_and_count_unroutable() {
        let mut d0 = report(vec![40.0; 8]); // arrivals 10, missed 1, rejected 1
        d0.scenario = "d0".into();
        let mut d1 = report(vec![80.0; 8]);
        d1.scenario = "d1".into();
        d1.arrivals = 30; // skewed routing
        d1.dropped_dead_battery = 2;
        d1.died_at_s = Some(9);
        let fleet = FleetReport {
            scenario: "fleet-test".into(),
            routing: "battery-aware".into(),
            arrivals: 42,
            unroutable: 2,
            devices: vec![d0, d1],
            telemetry: None,
        };
        assert_eq!(fleet.completed(), 16);
        assert_eq!(fleet.missed_deadline(), 2);
        assert_eq!(fleet.dropped(), 2);
        // (2 missed + 2 dropped + 2 unroutable) / 42 — device `rejected`
        // counters are failover attempts and must NOT be double counted
        assert!((fleet.miss_rate() - 6.0 / 42.0).abs() < 1e-12);
        assert_eq!(fleet.total_switches(), 4);
        assert!((fleet.total_energy_j() - 15.0).abs() < 1e-12);
        assert_eq!(fleet.deaths(), 1);
        // routed 10 vs 30: max 30 over mean 20
        assert!((fleet.load_imbalance() - 1.5).abs() < 1e-12);
        // the merged histogram's median sits in 40's bucket, the top
        // percentile is clamped to the observed maximum exactly
        assert_within_bucket(fleet.latency_percentile_ms(0.5), 40.0);
        assert_eq!(fleet.latency_percentile_ms(1.0), 80.0);
        assert!(fleet.summary().contains("battery-aware"));
        assert_eq!(fleet.device_summaries().len(), 2);
    }

    #[test]
    fn empty_fleet_rates_are_zero() {
        let fleet = FleetReport {
            scenario: "empty".into(),
            routing: "round-robin".into(),
            arrivals: 0,
            unroutable: 0,
            devices: Vec::new(),
            telemetry: None,
        };
        assert_eq!(fleet.miss_rate(), 0.0);
        assert_eq!(fleet.load_imbalance(), 0.0);
        assert_eq!(fleet.latency_percentile_ms(0.95), 0.0);
    }
}
