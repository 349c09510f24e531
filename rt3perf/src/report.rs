//! Metric names, units and the result line.
//!
//! Every workload reports every metric named here, so runs of different
//! workloads line up column by column. An end-to-end metric is measured on
//! every workload; a per-layer metric reads 0 on a workload that does not
//! exercise its layer (see `LAYERS.md` for which layer each workload
//! exercises).

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p75_ms", "ms"),
    ("throughput_rps", "1/s"),
];

/// Per-layer metrics (`--trace 1`), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.pacing_lag_p50_ms", "ms"),
    ("server.pacing_lag_p99_ms", "ms"),
    ("server.reject_rtt_ms", "ms"),
    ("server.metrics_rtt_ms", "ms"),
    ("server.admitted", "count"),
    ("server.completed", "count"),
    ("server.rejected", "count"),
    ("server.responses_failed", "count"),
    ("loadgen.sent", "count"),
    ("loadgen.miss_ratio", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("scheduler.submit_us", "us"),
    ("scheduler.dispatch_us", "us"),
    ("scheduler.batch_mean", "count"),
    ("scheduler.queue_wait_ms", "ms"),
    ("pool.batch_wall_us_p50", "us"),
    ("pool.batch_wall_us_p99", "us"),
    ("pool.busy_share", "ratio"),
    ("sparse.infer_us.lvl0.w1", "us"),
    ("sparse.infer_us.lvl0.w2", "us"),
    ("sparse.infer_us.lvl0.w4", "us"),
    ("sparse.infer_us.lvl1.w1", "us"),
    ("sparse.infer_us.lvl1.w2", "us"),
    ("sparse.infer_us.lvl1.w4", "us"),
    ("sparse.infer_us.lvl2.w1", "us"),
    ("sparse.infer_us.lvl2.w2", "us"),
    ("sparse.infer_us.lvl2.w4", "us"),
    ("sparse.first_infer_us", "us"),
    ("sparse.warm_infer_us", "us"),
    ("sparse.lower_ms", "ms"),
    ("bank.rebuild_ms_p50", "ms"),
    ("bank.rebuild_ms_p99", "ms"),
    ("bank.builds", "count"),
    ("bank.evictions", "count"),
    ("controller.switches", "count"),
    ("engine.sim_miss_ratio", "ratio"),
    ("engine.sim_latency_p99_ms", "ms"),
    ("engine.runs_per_joule", "1/J"),
    ("core.level1_ms", "ms"),
    ("core.space_ms", "ms"),
    ("core.level2_ms", "ms"),
    ("telemetry.overhead_pct", "%"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed output checks, one line each (empty = correct).
    pub violations: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// the run's mode. An end-to-end metric the workload did not set, or a
    /// non-finite value, makes the result incorrect.
    pub fn result_line(&mut self, traced: bool) -> String {
        let spec = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(spec.len());
        for &(name, unit) in spec {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => {
                    self.violations
                        .push(format!("end-to-end metric {name} not measured"));
                    0.0
                }
            };
            let value = if value.is_finite() {
                value
            } else {
                self.violations.push(format!("metric {name} is not finite"));
                0.0
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_every_metric_with_its_unit() {
        let manifest = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = manifest.matches("\"unit\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_fills_absent_layers_and_flags_absent_end_to_end_metrics() {
        let mut traced = Outcome::default();
        traced.set("bank.builds", 3.0);
        let line = traced.result_line(true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"bank.builds\": {\"value\": 3, \"unit\": \"count\"}"));
        assert!(line.contains("\"core.level1_ms\": {\"value\": 0, \"unit\": \"ms\"}"));

        let mut untraced = Outcome::default();
        untraced.set("setup_s", 0.5);
        let line = untraced.result_line(false);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
