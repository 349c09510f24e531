//! Declarative alerting over derived series: threshold and SLO burn-rate
//! rules with a Pending → Firing → Resolved lifecycle and a bounded
//! transition log.
//!
//! Rules are evaluated on window boundaries against a [`Scraper`]'s
//! retained windows, so evaluation is a pure function of the scraped
//! metric history — a chaos replay with the same seed produces the same
//! transitions bit-exactly. The [`ObsPlane`] bundles one scraper with one
//! engine: each serving loop owns a plane and feeds it once per window.

use crate::json::{json_f64, json_str, label_suffix};
use crate::metrics::MetricsSnapshot;
use crate::timeseries::{Scraper, SeriesExpr, SeriesPoint};
use crate::trace::RingBuffer;

/// Where a rule is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// The condition has never been true (or was false before ever
    /// reaching Firing).
    Inactive,
    /// The condition is true but has not yet held for `for_windows`.
    Pending,
    /// The condition has held long enough; the alert is active.
    Firing,
    /// The alert fired and the condition has since cleared.
    Resolved,
}

impl AlertState {
    /// Short label used in JSONL output.
    pub fn label(&self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// Direction of a threshold comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compare {
    /// Condition is true when the series value is strictly above the
    /// threshold.
    Above,
    /// Condition is true when the series value is strictly below the
    /// threshold.
    Below,
}

/// When a rule's condition is considered true for one window.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertCondition {
    /// The latest point of `series` compares against `threshold`.
    Threshold {
        /// The watched series.
        series: SeriesExpr,
        /// Comparison direction.
        op: Compare,
        /// The boundary value.
        threshold: f64,
    },
    /// Multi-window SLO burn rate: true when the mean of `series` over
    /// BOTH the last `short_windows` and the last `long_windows` exceeds
    /// `slo * factor`. The short window makes the alert react, the long
    /// window stops a single bad window from paging; this is the
    /// two-window burn-rate policy from SRE practice, evaluated on the
    /// scraper's deterministic window ring.
    BurnRate {
        /// The error-ratio series being budgeted (e.g. miss rate).
        series: SeriesExpr,
        /// The error budget per window (e.g. 0.01 for a 99% SLO).
        slo: f64,
        /// How many times faster than budget the burn must be.
        factor: f64,
        /// Reactive window count (must be > 0).
        short_windows: u32,
        /// Confirmation window count (must be >= `short_windows`).
        long_windows: u32,
    },
}

/// A named alert rule: a condition plus how long it must hold.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name, carried on every transition.
    pub name: String,
    /// Per-window truth condition.
    pub condition: AlertCondition,
    /// Consecutive true windows required before Firing (1 fires
    /// immediately).
    pub for_windows: u32,
}

/// One state change of one rule, with the series value that drove it.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Window index the transition happened at.
    pub t_s: u32,
    /// The rule that transitioned.
    pub rule: String,
    /// State before.
    pub from: AlertState,
    /// State after.
    pub to: AlertState,
    /// The condition's observed value at the transition (the latest series
    /// point for thresholds, the short-window burn ratio for burn rates).
    pub value: f64,
}

impl AlertTransition {
    /// One `{"type":"alert",...}` JSONL line carrying the caller's
    /// `labels`.
    pub fn to_json(&self, labels: &[(&str, &str)]) -> String {
        format!(
            "{{\"type\":\"alert\",\"rule\":{},\"t_s\":{},\"from\":{},\"to\":{},\"value\":{}{}}}",
            json_str(&self.rule),
            self.t_s,
            json_str(self.from.label()),
            json_str(self.to.label()),
            json_f64(self.value),
            label_suffix(labels)
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
struct RuleState {
    state: AlertState,
    true_windows: u32,
    first_fired: Option<u32>,
}

/// Evaluates a fixed rule set once per window and logs every state
/// change.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    log: RingBuffer<AlertTransition>,
}

impl AlertEngine {
    /// An engine for `rules`, retaining at most `log_capacity`
    /// transitions.
    ///
    /// # Panics
    ///
    /// Panics if `log_capacity` is zero.
    pub fn new(rules: Vec<AlertRule>, log_capacity: usize) -> Self {
        let states = rules
            .iter()
            .map(|_| RuleState {
                state: AlertState::Inactive,
                true_windows: 0,
                first_fired: None,
            })
            .collect();
        Self {
            rules,
            states,
            log: RingBuffer::new(log_capacity),
        }
    }

    /// The default operator set: a time-to-death cliff predictor, a
    /// miss-rate SLO burn, and a queue saturation warning. `window_ms`
    /// scales the cliff threshold — the rule pages when the battery model
    /// projects death within eight governor windows, which (with
    /// `for_windows = 2`) leaves at least several windows of lead before
    /// the device actually dies.
    pub fn default_rules(window_ms: f64) -> Vec<AlertRule> {
        vec![
            AlertRule {
                name: "battery_cliff".into(),
                condition: AlertCondition::Threshold {
                    series: SeriesExpr::Gauge("time_to_death_ms".into()),
                    op: Compare::Below,
                    threshold: 8.0 * window_ms,
                },
                for_windows: 2,
            },
            AlertRule {
                name: "miss_burn_rate".into(),
                condition: AlertCondition::BurnRate {
                    series: SeriesExpr::Ratio {
                        numer: vec![
                            "deadline_missed".into(),
                            "requests_rejected_queue_full".into(),
                            "requests_rejected_certain_miss".into(),
                            "requests_dropped_dead".into(),
                        ],
                        denom: vec![
                            "requests_admitted".into(),
                            "requests_rejected_queue_full".into(),
                            "requests_rejected_certain_miss".into(),
                        ],
                    },
                    slo: 0.01,
                    factor: 4.0,
                    short_windows: 3,
                    long_windows: 12,
                },
                for_windows: 1,
            },
            AlertRule {
                name: "queue_depth_high".into(),
                condition: AlertCondition::Threshold {
                    series: SeriesExpr::Gauge("queue_depth".into()),
                    op: Compare::Above,
                    threshold: 48.0,
                },
                for_windows: 3,
            },
        ]
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Current state of every rule, by name.
    pub fn states(&self) -> Vec<(String, AlertState)> {
        self.rules
            .iter()
            .zip(&self.states)
            .map(|(rule, s)| (rule.name.clone(), s.state))
            .collect()
    }

    /// The retained transition log, oldest first.
    pub fn log(&self) -> Vec<AlertTransition> {
        self.log.to_vec()
    }

    /// Transitions evicted from the log to bound memory.
    pub fn log_dropped(&self) -> u64 {
        self.log.overwritten()
    }

    /// Window index at which `rule` first reached Firing, if it ever did.
    pub fn first_firing(&self, rule: &str) -> Option<u32> {
        self.rules
            .iter()
            .zip(&self.states)
            .find(|(r, _)| r.name == rule)
            .and_then(|(_, s)| s.first_fired)
    }

    /// Evaluates every rule against the scraper's windows at window
    /// `t_s`; returns (and logs) the transitions this window produced.
    pub fn evaluate(&mut self, t_s: u32, scraper: &Scraper) -> Vec<AlertTransition> {
        let mut out = Vec::new();
        for (rule, rs) in self.rules.iter().zip(self.states.iter_mut()) {
            let (truth, value) = Self::condition(&rule.condition, scraper);
            let from = rs.state;
            let to = match (from, truth) {
                (AlertState::Firing, true) => AlertState::Firing,
                (AlertState::Firing, false) => AlertState::Resolved,
                (_, false) => {
                    if from == AlertState::Resolved {
                        AlertState::Resolved
                    } else {
                        AlertState::Inactive
                    }
                }
                (_, true) => {
                    rs.true_windows += 1;
                    if rs.true_windows >= rule.for_windows {
                        AlertState::Firing
                    } else {
                        AlertState::Pending
                    }
                }
            };
            if !truth {
                rs.true_windows = 0;
            }
            if to == AlertState::Firing && rs.first_fired.is_none() {
                rs.first_fired = Some(t_s);
            }
            if to != from {
                let transition = AlertTransition {
                    t_s,
                    rule: rule.name.clone(),
                    from,
                    to,
                    value,
                };
                self.log.push(transition.clone());
                out.push(transition);
            }
            rs.state = to;
        }
        out
    }

    /// Evaluates one condition; returns (is it true, the observed value).
    fn condition(condition: &AlertCondition, scraper: &Scraper) -> (bool, f64) {
        match condition {
            AlertCondition::Threshold {
                series,
                op,
                threshold,
            } => match scraper.evaluate_tail(series, 1).last() {
                None => (false, f64::NAN),
                Some(SeriesPoint { value, .. }) => {
                    let truth = match op {
                        Compare::Above => value > threshold,
                        Compare::Below => value < threshold,
                    };
                    (truth, *value)
                }
            },
            AlertCondition::BurnRate {
                series,
                slo,
                factor,
                short_windows,
                long_windows,
            } => {
                let tail = (*short_windows).max(*long_windows) as usize;
                let points = scraper.evaluate_tail(series, tail.max(1));
                if points.is_empty() {
                    return (false, f64::NAN);
                }
                let mean_of_last = |n: u32| -> f64 {
                    let n = (n as usize).max(1).min(points.len());
                    let tail = &points[points.len() - n..];
                    tail.iter().map(|p| p.value).sum::<f64>() / n as f64
                };
                let short_burn = mean_of_last(*short_windows) / slo;
                let long_burn = mean_of_last(*long_windows) / slo;
                (short_burn >= *factor && long_burn >= *factor, short_burn)
            }
        }
    }
}

/// The observed state of one plane: evaluated series, alert transitions
/// and rule states, plus the ring accounting a consumer needs to judge
/// completeness. Snapshots carry evaluated points, not raw windows, so
/// they stay small and serialise directly.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSnapshot {
    /// Scrape window length in milliseconds.
    pub window_ms: f64,
    /// Scrapes performed over the plane's lifetime.
    pub windows_observed: u64,
    /// Windows evicted from the scraper's ring.
    pub windows_dropped: u64,
    /// Non-monotone scrapes detected (0 unless a source restarted).
    pub counter_resets: u64,
    /// Every named series, evaluated over the retained windows.
    pub series: Vec<(String, Vec<SeriesPoint>)>,
    /// The retained alert transition log, oldest first.
    pub alerts: Vec<AlertTransition>,
    /// Transitions evicted from the alert log.
    pub alerts_dropped: u64,
    /// Current state of every rule.
    pub states: Vec<(String, AlertState)>,
}

impl ObsSnapshot {
    /// Points of the named series, if configured.
    pub fn series(&self, name: &str) -> Option<&[SeriesPoint]> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, points)| points.as_slice())
    }

    /// Window index at which `rule` first transitioned to Firing, if the
    /// retained log holds it.
    pub fn first_firing(&self, rule: &str) -> Option<u32> {
        self.alerts
            .iter()
            .find(|t| t.rule == rule && t.to == AlertState::Firing)
            .map(|t| t.t_s)
    }

    /// Every series point and alert transition as JSONL, plus one
    /// `{"type":"obs",...}` accounting line.
    pub fn to_jsonl_lines(&self, labels: &[(&str, &str)]) -> Vec<String> {
        let mut lines = Vec::new();
        for (name, points) in &self.series {
            for point in points {
                lines.push(point.to_json(name, labels));
            }
        }
        for transition in &self.alerts {
            lines.push(transition.to_json(labels));
        }
        lines.push(format!(
            "{{\"type\":\"obs\",\"window_ms\":{},\"windows_observed\":{},\
             \"windows_dropped\":{},\"counter_resets\":{},\"alerts_dropped\":{}{}}}",
            json_f64(self.window_ms),
            self.windows_observed,
            self.windows_dropped,
            self.counter_resets,
            self.alerts_dropped,
            label_suffix(labels)
        ));
        lines
    }
}

/// One scraper plus one alert engine: the unit each serving loop owns
/// and feeds once per window boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsPlane {
    scraper: Scraper,
    engine: AlertEngine,
}

impl ObsPlane {
    /// Windows and alert transitions a serving device's standard plane
    /// retains: one window per second, so about 17 minutes of history.
    pub const SERIES_CAPACITY: usize = 1_024;

    /// A plane from explicit parts.
    pub fn new(scraper: Scraper, engine: AlertEngine) -> Self {
        Self { scraper, engine }
    }

    /// The standard plane both serving paths use: default dashboard
    /// series and default operator rules, retaining `capacity` windows
    /// and transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn standard(window_ms: f64, capacity: usize) -> Self {
        Self {
            scraper: Scraper::new(window_ms, capacity, Scraper::default_series()),
            engine: AlertEngine::new(AlertEngine::default_rules(window_ms), capacity),
        }
    }

    /// The plane's scraper (read-only).
    pub fn scraper(&self) -> &Scraper {
        &self.scraper
    }

    /// The plane's alert engine (read-only).
    pub fn engine(&self) -> &AlertEngine {
        &self.engine
    }

    /// Scrapes `snapshot` as window `t_s` ending at `end_ms` and evaluates
    /// the rules; returns this window's alert transitions.
    pub fn observe_window(
        &mut self,
        t_s: u32,
        end_ms: f64,
        snapshot: MetricsSnapshot,
    ) -> Vec<AlertTransition> {
        self.scraper.scrape(t_s, end_ms, snapshot);
        self.engine.evaluate(t_s, &self.scraper)
    }

    /// The current observed state (evaluated series + alert log).
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            window_ms: self.scraper.window_ms(),
            windows_observed: self.scraper.scrapes(),
            windows_dropped: self.scraper.windows_dropped(),
            counter_resets: self.scraper.counter_resets(),
            series: self.scraper.evaluate_named(),
            alerts: self.engine.log(),
            alerts_dropped: self.engine.log_dropped(),
            states: self.engine.states(),
        }
    }

    /// One streaming chunk for window `t_s`: only this window's series
    /// points and `transitions`, as JSONL terminated lines joined by
    /// `\n`. This is what the socket server pushes to `REQ_SUBSCRIBE`
    /// clients each window — a delta, not the whole retained history.
    pub fn window_jsonl(
        &self,
        t_s: u32,
        transitions: &[AlertTransition],
        labels: &[(&str, &str)],
    ) -> String {
        let mut lines = Vec::new();
        for (name, expr) in self.scraper.series() {
            // window indices in the ring are unique, so the newest point
            // either is this window's or the window produced none
            for point in self.scraper.evaluate_tail(expr, 1) {
                if point.t_s == t_s {
                    lines.push(point.to_json(name, labels));
                }
            }
        }
        for transition in transitions {
            lines.push(transition.to_json(labels));
        }
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauge_snapshot(ttd: f64, missed: u64, admitted: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("requests_admitted".into(), admitted),
                ("deadline_missed".into(), missed),
            ],
            gauges: vec![("time_to_death_ms".into(), ttd)],
            histograms: Vec::new(),
        }
    }

    #[test]
    fn threshold_rule_walks_pending_firing_resolved() {
        let rules = vec![AlertRule {
            name: "battery_cliff".into(),
            condition: AlertCondition::Threshold {
                series: SeriesExpr::Gauge("time_to_death_ms".into()),
                op: Compare::Below,
                threshold: 5_000.0,
            },
            for_windows: 2,
        }];
        let mut plane = ObsPlane::new(
            Scraper::new(1_000.0, 32, Vec::new()),
            AlertEngine::new(rules, 32),
        );
        // healthy → condition false
        assert!(plane
            .observe_window(0, 1_000.0, gauge_snapshot(60_000.0, 0, 10))
            .is_empty());
        // first bad window → Pending
        let t = plane.observe_window(1, 2_000.0, gauge_snapshot(4_000.0, 0, 20));
        assert_eq!(t.len(), 1);
        assert_eq!(
            (t[0].from, t[0].to),
            (AlertState::Inactive, AlertState::Pending)
        );
        // second bad window → Firing
        let t = plane.observe_window(2, 3_000.0, gauge_snapshot(3_000.0, 0, 30));
        assert_eq!(
            (t[0].from, t[0].to),
            (AlertState::Pending, AlertState::Firing)
        );
        assert_eq!(plane.engine().first_firing("battery_cliff"), Some(2));
        // recovery → Resolved, and it stays Resolved while healthy
        let t = plane.observe_window(3, 4_000.0, gauge_snapshot(90_000.0, 0, 40));
        assert_eq!(
            (t[0].from, t[0].to),
            (AlertState::Firing, AlertState::Resolved)
        );
        assert!(plane
            .observe_window(4, 5_000.0, gauge_snapshot(90_000.0, 0, 50))
            .is_empty());
        let snapshot = plane.snapshot();
        assert_eq!(snapshot.first_firing("battery_cliff"), Some(2));
        assert_eq!(snapshot.alerts.len(), 3);
    }

    #[test]
    fn a_single_bad_window_does_not_trip_the_burn_rate() {
        let rules = vec![AlertRule {
            name: "miss_burn_rate".into(),
            condition: AlertCondition::BurnRate {
                series: SeriesExpr::Ratio {
                    numer: vec!["deadline_missed".into()],
                    denom: vec!["requests_admitted".into()],
                },
                slo: 0.01,
                factor: 4.0,
                short_windows: 2,
                long_windows: 6,
            },
            for_windows: 1,
        }];
        let mut plane = ObsPlane::new(
            Scraper::new(1_000.0, 32, Vec::new()),
            AlertEngine::new(rules, 32),
        );
        let mut admitted = 0;
        let mut missed = 0;
        // six clean windows to fill the long lookback
        for t in 0..6u32 {
            admitted += 100;
            assert!(plane
                .observe_window(
                    t,
                    (t + 1) as f64 * 1_000.0,
                    gauge_snapshot(1e9, missed, admitted)
                )
                .is_empty());
        }
        // one bad window: the short burn spikes (5x budget) but the long
        // mean stays below 4x — no page
        admitted += 100;
        missed += 10;
        assert!(
            plane
                .observe_window(6, 7_000.0, gauge_snapshot(1e9, missed, admitted))
                .is_empty(),
            "long window must hold the page back"
        );
        // sustained burn trips both windows
        let mut fired = false;
        for t in 7..13u32 {
            admitted += 100;
            missed += 10;
            let transitions = plane.observe_window(
                t,
                (t + 1) as f64 * 1_000.0,
                gauge_snapshot(1e9, missed, admitted),
            );
            fired |= transitions.iter().any(|tr| tr.to == AlertState::Firing);
        }
        assert!(fired, "sustained 50x burn must fire");
    }

    #[test]
    fn snapshot_serialises_series_alerts_and_accounting() {
        let mut plane = ObsPlane::standard(1_000.0, 16);
        for t in 0..3u32 {
            plane.observe_window(
                t,
                (t + 1) as f64 * 1_000.0,
                gauge_snapshot(500.0, 0, (t + 1) as u64 * 10),
            );
        }
        let snapshot = plane.snapshot();
        assert!(snapshot.series("time_to_death_ms").is_some());
        assert_eq!(snapshot.windows_observed, 3);
        let lines = snapshot.to_jsonl_lines(&[("device", "d0")]);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(lines.iter().any(|l| l.contains("\"type\":\"series\"")));
        assert!(lines.iter().any(|l| l.contains("\"type\":\"alert\"")));
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"type\":\"obs\""))
                .count(),
            1
        );
        // the cliff gauge sits far below 8 windows; with for_windows = 2 it fires at t=1
        assert_eq!(snapshot.first_firing("battery_cliff"), Some(1));
        // streaming chunk carries only the asked-for window
        let chunk = plane.window_jsonl(2, &[], &[("source", "test")]);
        assert!(chunk.ends_with('\n'));
        assert!(chunk.contains("\"t_s\":2"));
        assert!(!chunk.contains("\"t_s\":1"));
    }
}
