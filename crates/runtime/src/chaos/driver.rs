//! The chaos replay driver: [`Fleet::run_chaos`] plays a [`ChaosScenario`]
//! with a closed-loop client population instead of the open-loop arrival
//! stream of [`Fleet::run`].
//!
//! Both entry points play the same fleet window loop (begin windows →
//! route events in offset order with failover → end windows); they differ
//! only in the traffic source. Here [`ClientLoop`] is that source: it
//! scales the arrival rate by the active flash-crowd multiplier, merges
//! due retries into each window's events, and turns every routed request
//! into an *attempt* owned by a client job. Window-end outcomes
//! ([`crate::Completion`]s and dead-queue drops) are fed back to the
//! owning job, which retries with backoff + jitter or abandons per the
//! [`super::ClientPolicy`]. Retries are quantised to window granularity:
//! a failure in window `t` retries no earlier than window `t + 1` (its
//! exact due time is preserved inside the target window as the arrival
//! offset).
//!
//! Determinism: arrivals replay from the fleet seed exactly as in
//! [`Fleet::run`]; client jitter draws from an independent RNG stream
//! (`seed ⊕ CLIENT_SEED_SALT`) so closing the loop does not perturb the
//! arrival sequence golden traces pin down.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt3_telemetry::TelemetrySnapshot;
use rt3_transformer::Model;

use crate::engine::WINDOW_MS;
use crate::fleet::{Fleet, TrafficSource};
use crate::report::FleetReport;
use crate::scenario::Scenario;
use crate::scheduler::{Completion, Request};
use crate::telemetry::ChaosTelemetry;

use super::clients::ClientReport;
use super::scenario::ChaosScenario;

/// Salt XORed into the fleet seed for the client-side RNG stream, so
/// client jitter never consumes draws from the arrival stream.
const CLIENT_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Everything one chaos run produced: the fleet's view and the clients'.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Chaos scenario name.
    pub chaos: String,
    /// Per-device and router outcomes, exactly as an open-loop
    /// [`Fleet::run`] would report them (its `arrivals` are the attempts
    /// the clients issued).
    pub fleet: FleetReport,
    /// The client population's outcomes.
    pub clients: ClientReport,
    /// Client-side counters mirroring [`ChaosReport::clients`] (`None`
    /// when telemetry is off). Kept independently by the telemetry layer
    /// so the invariant harness can reconcile the two bookkeepers.
    pub client_telemetry: Option<TelemetrySnapshot>,
}

impl ChaosReport {
    /// Drops every wall-clock-measured telemetry series (bank build and
    /// pool batch timings) from the report. What remains is a pure
    /// function of the scenario and seed, so two scrubbed reports of the
    /// same replay compare bit-exactly — the form the replay-exactness
    /// tests assert on.
    pub fn scrub_wall_clock(&mut self) {
        if let Some(t) = &mut self.fleet.telemetry {
            t.scrub_wall_clock();
        }
        for device in &mut self.fleet.devices {
            if let Some(t) = &mut device.telemetry {
                t.scrub_wall_clock();
            }
        }
        if let Some(t) = &mut self.client_telemetry {
            t.scrub_wall_clock();
        }
    }

    /// One-line summary: fleet outcome plus client-side amplification.
    pub fn summary(&self) -> String {
        format!(
            "{:<20} {:<14} {} | fleet miss {:>5.1}% deaths {}",
            self.chaos,
            self.fleet.routing,
            self.clients.summary(),
            100.0 * self.fleet.miss_rate(),
            self.fleet.deaths(),
        )
    }
}

/// One client job's mutable state during the replay.
struct Job {
    /// Attempts issued so far (first attempt included).
    attempts: u32,
    /// Resolved means succeeded, succeeded-late or abandoned.
    resolved: bool,
}

/// The client population's live state — jobs, the outstanding-attempt map,
/// per-window retry queues and the two bookkeepers ([`ClientReport`] and
/// [`ChaosTelemetry`]) the invariant harness later reconciles — and the
/// closed-loop traffic source of the fleet window loop.
struct ClientLoop<'c> {
    chaos: &'c ChaosScenario,
    /// Fresh-arrival stream, seeded exactly as [`Fleet::run`]'s.
    arrival_rng: StdRng,
    jobs: Vec<Job>,
    open_jobs: u64,
    /// Attempt request id → owning job index.
    outstanding: HashMap<u64, usize>,
    /// Retries due per window, as `(offset_ms, job)` pairs.
    retry_due: Vec<Vec<(f64, usize)>>,
    report: ClientReport,
    rng: StdRng,
    telemetry: Option<ChaosTelemetry>,
}

impl<'c> ClientLoop<'c> {
    fn new(
        chaos: &'c ChaosScenario,
        duration_s: u32,
        seed: u64,
        telemetry: Option<ChaosTelemetry>,
    ) -> Self {
        Self {
            chaos,
            arrival_rng: StdRng::seed_from_u64(seed),
            jobs: Vec::new(),
            open_jobs: 0,
            outstanding: HashMap::new(),
            retry_due: vec![Vec::new(); duration_s as usize],
            report: ClientReport::default(),
            rng: StdRng::seed_from_u64(seed ^ CLIENT_SEED_SALT),
            telemetry,
        }
    }

    /// Tries to open a new job for a fresh arrival; `None` when the
    /// population is saturated and the arrival is suppressed instead.
    fn open_job(&mut self) -> Option<usize> {
        if self.open_jobs >= self.chaos.clients.max_backlog() as u64 {
            self.report.suppressed += 1;
            if let Some(ct) = &mut self.telemetry {
                let id = ct.suppressed;
                ct.add(id, 1);
            }
            return None;
        }
        self.jobs.push(Job {
            attempts: 0,
            resolved: false,
        });
        self.open_jobs += 1;
        self.report.jobs += 1;
        if let Some(ct) = &mut self.telemetry {
            let id = ct.jobs;
            ct.add(id, 1);
        }
        Some(self.jobs.len() - 1)
    }

    /// Resolves `job_idx` (success, late-accept or abandon), closing it.
    fn close_job(&mut self, job_idx: usize) {
        debug_assert!(!self.jobs[job_idx].resolved, "a job resolves once");
        self.jobs[job_idx].resolved = true;
        self.open_jobs -= 1;
        if let Some(ct) = &mut self.telemetry {
            let hist = ct.attempts_per_job;
            ct.record(hist, self.jobs[job_idx].attempts as f64);
        }
    }

    /// Handles a failed attempt at `fail_ms` in window `t_s`: schedules a
    /// backoff-jittered retry, or abandons the job when its attempts are
    /// exhausted. A retry due past the trace end leaves the job open — it
    /// is counted as pending, never silently dropped.
    fn fail_attempt(&mut self, job_idx: usize, fail_ms: f64, t_s: u32) {
        let policy = &self.chaos.clients;
        if self.jobs[job_idx].attempts >= policy.max_attempts {
            self.report.abandoned += 1;
            if let Some(ct) = &mut self.telemetry {
                let id = ct.abandoned;
                ct.add(id, 1);
            }
            self.close_job(job_idx);
            return;
        }
        let backoff = policy.backoff_ms(self.jobs[job_idx].attempts);
        let jitter = if policy.jitter_ms > 0.0 {
            self.rng.gen_range(0.0..policy.jitter_ms)
        } else {
            0.0
        };
        let retry_ms = fail_ms + backoff + jitter;
        // retries are quantised to windows and never land in the current
        // one (its events are already being replayed)
        let window = ((retry_ms / WINDOW_MS) as u32).max(t_s + 1);
        if window as usize >= self.retry_due.len() {
            return; // stays open; counted as pending at trace end
        }
        let offset = (retry_ms - window as f64 * WINDOW_MS).clamp(0.0, WINDOW_MS - 1e-6);
        self.retry_due[window as usize].push((offset, job_idx));
    }

    /// Trace end: attempts still queued or in flight, and jobs waiting on a
    /// retry that never came due, are pending — never silently dropped.
    fn finish(mut self) -> (ClientReport, Option<TelemetrySnapshot>) {
        self.report.attempt_outstanding = self.outstanding.len() as u64;
        self.report.pending_at_end = self.open_jobs;
        if let Some(ct) = &mut self.telemetry {
            let id = ct.attempt_outstanding;
            ct.add(id, self.report.attempt_outstanding);
            let id = ct.pending_at_end;
            ct.add(id, self.report.pending_at_end);
        }
        debug_assert_eq!(
            self.jobs.iter().filter(|j| !j.resolved).count() as u64,
            self.open_jobs,
            "open-job counter tracks unresolved jobs"
        );
        (self.report, self.telemetry.map(|ct| ct.snapshot()))
    }
}

impl TrafficSource for ClientLoop<'_> {
    /// `None` = new arrival (job created at issue time, unless
    /// suppressed); `Some(job)` = retry of an existing open job.
    type Event = Option<usize>;
    /// The job that owns the attempt.
    type Attempt = usize;

    /// Fresh arrivals at the overlay-scaled rate, merged with the retries
    /// due this window.
    fn window_events(&mut self, t_s: u32, arrivals: &Scenario) -> Vec<(f64, Option<usize>)> {
        let rate = arrivals.rate_at(t_s) * self.chaos.rate_multiplier_at(t_s);
        let mut events: Vec<(f64, Option<usize>)> =
            Scenario::draw_arrivals(rate, &mut self.arrival_rng)
                .into_iter()
                .map(|offset_ms| (offset_ms, None))
                .collect();
        events.extend(
            std::mem::take(&mut self.retry_due[t_s as usize])
                .into_iter()
                .map(|(offset_ms, job)| (offset_ms, Some(job))),
        );
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        events
    }

    fn issue(&mut self, retry_of: Option<usize>) -> Option<usize> {
        let job_idx = match retry_of {
            Some(job_idx) => job_idx,
            None => self.open_job()?, // suppressed: population saturated
        };
        let is_retry = retry_of.is_some();
        self.jobs[job_idx].attempts += 1;
        self.report.attempts += 1;
        if is_retry {
            self.report.retries += 1;
        }
        if let Some(ct) = &mut self.telemetry {
            let id = ct.attempts;
            ct.add(id, 1);
            if is_retry {
                let id = ct.retries;
                ct.add(id, 1);
            }
        }
        Some(job_idx)
    }

    fn admitted(&mut self, id: u64, job_idx: usize) {
        self.outstanding.insert(id, job_idx);
    }

    fn unroutable(&mut self, job_idx: usize, arrival_ms: f64, t_s: u32) {
        self.report.attempt_rejected += 1;
        if let Some(ct) = &mut self.telemetry {
            let id = ct.attempt_rejected;
            ct.add(id, 1);
        }
        self.fail_attempt(job_idx, arrival_ms, t_s);
    }

    fn completed(&mut self, completions: &[Completion], t_s: u32) {
        for completion in completions {
            let job_idx = self
                .outstanding
                .remove(&completion.id)
                .expect("every completion belongs to an outstanding attempt");
            if completion.met_deadline {
                self.report.succeeded += 1;
                self.report.attempt_completed += 1;
                if let Some(ct) = &mut self.telemetry {
                    let id = ct.succeeded;
                    ct.add(id, 1);
                }
                self.close_job(job_idx);
            } else {
                self.report.attempt_late += 1;
                if let Some(ct) = &mut self.telemetry {
                    let id = ct.attempt_late;
                    ct.add(id, 1);
                }
                if self.chaos.clients.retry_on_late {
                    self.fail_attempt(job_idx, completion.finish_ms, t_s);
                } else {
                    self.report.succeeded_late += 1;
                    self.close_job(job_idx);
                }
            }
        }
    }

    fn dropped_dead(&mut self, dropped: &[Request], window_end_ms: f64, t_s: u32) {
        for request in dropped {
            let job_idx = self
                .outstanding
                .remove(&request.id)
                .expect("every dropped request belongs to an outstanding attempt");
            self.report.attempt_dropped_dead += 1;
            if let Some(ct) = &mut self.telemetry {
                let id = ct.attempt_dropped_dead;
                ct.add(id, 1);
            }
            self.fail_attempt(job_idx, window_end_ms, t_s);
        }
    }
}

impl<'m, M: Model> Fleet<'m, M> {
    /// Plays `chaos` to completion with closed-loop clients and reports
    /// both sides of the loop. The fleet must have been built over
    /// [`ChaosScenario::fleet_scenario`] — the materialised profiles are
    /// what the devices replay.
    ///
    /// # Panics
    ///
    /// Panics if the fleet's scenario is not the materialisation of
    /// `chaos`, or the composition fails validation.
    pub fn run_chaos(self, chaos: &ChaosScenario) -> ChaosReport {
        chaos.validate().expect("invalid chaos scenario");
        assert_eq!(
            *self.scenario(),
            chaos.fleet_scenario(),
            "fleet must be built from chaos.fleet_scenario()"
        );
        let mut clients = ClientLoop::new(
            chaos,
            self.scenario().duration_s(),
            self.config.seed,
            ChaosTelemetry::new(self.config.telemetry),
        );
        let fleet = self.play(&mut clients);
        let (clients, client_telemetry) = clients.finish();
        ChaosReport {
            chaos: chaos.name.clone(),
            fleet,
            clients,
            client_telemetry,
        }
    }
}
