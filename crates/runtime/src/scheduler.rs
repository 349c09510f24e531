//! Deadline-aware request scheduling: bounded queue, admission control and
//! greedy micro-batching over a pool of simulated workers.
//!
//! Time is simulated: the engine advances a millisecond clock and the
//! scheduler tracks when each worker frees up. A service time is the active
//! V/F level's single-request latency
//! ([`rt3_hardware::LatencyModel::base_latency_ms`]) times the shared
//! [`crate::cost::CostModel`]'s amortisation multiplier: for a batch of one
//! the charged time **is** the predictor's latency (the property tests in
//! `tests/proptest_runtime.rs` pin this), and larger micro-batches amortise
//! the memory-bound fraction of an inference across requests through the
//! level's fixed-α or measured curve. The scheduler itself
//! stays model-agnostic: [`DeadlineScheduler::dispatch`] takes a
//! `batch → service time` closure, so there is exactly one place (the
//! [`crate::DeviceGovernor`], which owns a device's scheduler) where the
//! cost model is consulted.

use std::collections::VecDeque;

/// Scheduler parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Maximum queued (admitted but unstarted) requests.
    pub queue_capacity: usize,
    /// Maximum requests served in one micro-batch.
    pub max_batch: usize,
    /// Number of parallel workers (≈ cores serving inference).
    pub workers: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            max_batch: 4,
            workers: 4,
        }
    }
}

impl SchedulerConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be positive".into());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be positive".into());
        }
        if self.workers == 0 {
            return Err("at least one worker is required".into());
        }
        Ok(())
    }
}

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Monotonically increasing id.
    pub id: u64,
    /// Arrival time in simulated milliseconds.
    pub arrival_ms: f64,
    /// Absolute completion deadline in simulated milliseconds.
    pub deadline_ms: f64,
}

/// Why a request was turned away at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue was full.
    QueueFull,
    /// Even an immediate dispatch could not meet the deadline.
    CertainMiss,
}

/// One served request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Request id.
    pub id: u64,
    /// Arrival time in milliseconds.
    pub arrival_ms: f64,
    /// Service start time in milliseconds.
    pub start_ms: f64,
    /// Completion time in milliseconds.
    pub finish_ms: f64,
    /// Size of the micro-batch the request rode in.
    pub batch: usize,
    /// Governor level position it was served at.
    pub level_pos: usize,
    /// Whether the completion met the request deadline.
    pub met_deadline: bool,
}

impl Completion {
    /// End-to-end latency (queueing + service) in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.finish_ms - self.arrival_ms
    }
}

/// Bounded-queue, micro-batching, deadline-aware scheduler over simulated
/// workers.
#[derive(Debug, Clone)]
pub struct DeadlineScheduler {
    config: SchedulerConfig,
    queue: VecDeque<Request>,
    worker_free_at_ms: Vec<f64>,
    rejected_queue_full: u64,
    rejected_certain_miss: u64,
}

impl DeadlineScheduler {
    /// Creates an idle scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: SchedulerConfig) -> Self {
        config.validate().expect("invalid scheduler configuration");
        Self {
            worker_free_at_ms: vec![0.0; config.workers],
            config,
            queue: VecDeque::new(),
            rejected_queue_full: 0,
            rejected_certain_miss: 0,
        }
    }

    /// Currently queued requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of simulated workers.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Bound on queued (admitted but unstarted) requests.
    pub fn queue_capacity(&self) -> usize {
        self.config.queue_capacity
    }

    /// Requests rejected because the queue was full.
    pub fn rejected_queue_full(&self) -> u64 {
        self.rejected_queue_full
    }

    /// Requests rejected because they could not possibly meet their deadline.
    pub fn rejected_certain_miss(&self) -> u64 {
        self.rejected_certain_miss
    }

    /// Earliest time any worker frees up.
    pub fn earliest_free_ms(&self) -> f64 {
        self.worker_free_at_ms
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Blocks every worker until at least `until_ms` (used to charge
    /// pattern-set switch time to the serving pipeline).
    pub fn block_workers_until(&mut self, until_ms: f64) {
        for free_at in &mut self.worker_free_at_ms {
            *free_at = free_at.max(until_ms);
        }
    }

    /// Admission control: accepts the request into the bounded queue or
    /// rejects it. `service_ms(batch)` is the engine's service-time estimate
    /// for a micro-batch at the active level — the same closure
    /// [`DeadlineScheduler::dispatch`] will be driven with.
    ///
    /// The certain-miss check runs the request through
    /// [`DeadlineScheduler::predicted_finish_ms`], which replays the whole
    /// backlog (batch formation included) instead of only asking when the
    /// first worker frees up. The old backlog-blind estimate
    /// (`earliest_free_ms().max(arrival)`) was systematically optimistic
    /// under queueing: every request already admitted but not yet dispatched
    /// was invisible to it, so requests that could not possibly meet their
    /// deadline were admitted and later counted as misses instead of being
    /// rejected up front.
    ///
    /// On admission, returns the predicted completion time the certain-miss
    /// check was made against, so callers (the Full-level decision audit)
    /// can reuse it instead of replaying the backlog a second time.
    ///
    /// # Errors
    ///
    /// Returns the [`RejectReason`] when the request is turned away.
    pub fn submit<F: Fn(usize) -> f64>(
        &mut self,
        request: Request,
        service_ms: F,
    ) -> Result<f64, RejectReason> {
        if self.queue.len() >= self.config.queue_capacity {
            self.rejected_queue_full += 1;
            return Err(RejectReason::QueueFull);
        }
        let predicted_finish_ms = self.predicted_finish_ms(request.arrival_ms, &service_ms);
        if predicted_finish_ms > request.deadline_ms {
            self.rejected_certain_miss += 1;
            return Err(RejectReason::CertainMiss);
        }
        self.queue.push_back(request);
        Ok(predicted_finish_ms)
    }

    /// Predicted completion time of a request arriving at `arrival_ms`,
    /// accounting for every request already queued ahead of it: the queued
    /// work is replayed across the workers through the same batch step
    /// [`DeadlineScheduler::dispatch`] takes, and the newcomer's predicted
    /// batch rides at the back. The estimate assumes continuous dispatching
    /// and no further arrivals — requests admitted later can still grow the
    /// newcomer's batch, so this is a lower bound, but unlike the bare
    /// `earliest_free_ms()` it can never ignore the backlog.
    pub fn predicted_finish_ms<F: Fn(usize) -> f64>(&self, arrival_ms: f64, service_ms: &F) -> f64 {
        let mut free = self.worker_free_at_ms.clone();
        let mut next = 0usize;
        loop {
            // the pending queue from `next` on, with the newcomer at the back
            let pending = self
                .queue
                .range(next..)
                .map(|r| r.arrival_ms)
                .chain(std::iter::once(arrival_ms));
            let batch = next_batch(
                &free,
                self.config.max_batch,
                pending,
                f64::INFINITY,
                service_ms,
            )
            .expect("the newcomer is always pending");
            next += batch.len;
            if next > self.queue.len() {
                // the newcomer rides in this batch
                return batch.finish_ms;
            }
            free[batch.worker] = batch.finish_ms;
        }
    }

    /// Dispatches queued requests whose service can start before `until_ms`,
    /// forming greedy micro-batches: when a worker frees up it grabs every
    /// request that has already arrived, up to `max_batch`.
    ///
    /// `service_ms(batch)` converts a batch size into a service time at the
    /// active level; `level_pos` is recorded on the completions.
    pub fn dispatch<F: Fn(usize) -> f64>(
        &mut self,
        until_ms: f64,
        level_pos: usize,
        service_ms: F,
    ) -> Vec<Completion> {
        let mut completions = Vec::new();
        while let Some(batch) = next_batch(
            &self.worker_free_at_ms,
            self.config.max_batch,
            self.queue.iter().map(|r| r.arrival_ms),
            until_ms,
            &service_ms,
        ) {
            self.worker_free_at_ms[batch.worker] = batch.finish_ms;
            completions.extend(self.queue.drain(..batch.len).map(|request| Completion {
                id: request.id,
                arrival_ms: request.arrival_ms,
                start_ms: batch.start_ms,
                finish_ms: batch.finish_ms,
                batch: batch.len,
                level_pos,
                met_deadline: batch.finish_ms <= request.deadline_ms,
            }));
        }
        completions
    }

    /// Drops every queued request and hands them back, so the caller can
    /// trace each drop with its request id.
    pub fn drain_queue(&mut self) -> Vec<Request> {
        self.queue.drain(..).collect()
    }
}

/// The micro-batches of one [`DeadlineScheduler::dispatch`], in order:
/// dispatch pushes a batch's completions consecutively and stamps each with
/// the batch size, so stepping by that size recovers the batches even when
/// several start at the same instant on different workers.
pub(crate) fn batches(mut completions: &[Completion]) -> impl Iterator<Item = &[Completion]> {
    std::iter::from_fn(move || {
        let (batch, rest) = completions.split_at_checked(completions.first()?.batch)?;
        completions = rest;
        Some(batch)
    })
}

/// One greedy micro-batch: which worker serves it, when, how many
/// requests ride in it and when it finishes.
struct Batch {
    worker: usize,
    start_ms: f64,
    len: usize,
    finish_ms: f64,
}

/// The batch-formation step dispatch and its prediction share. The
/// least-loaded worker takes the next batch and starts at the later of its
/// free time and the head's arrival; the batch takes, from the head, every
/// pending request (`pending` yields arrival times in queue order) that has
/// already arrived by then, up to `max_batch`. `None` when nothing is
/// pending or the batch could not start before `until_ms`.
fn next_batch<I, F>(
    worker_free_at_ms: &[f64],
    max_batch: usize,
    pending: I,
    until_ms: f64,
    service_ms: &F,
) -> Option<Batch>
where
    I: Iterator<Item = f64> + Clone,
    F: Fn(usize) -> f64,
{
    let head_ms = pending.clone().next()?;
    // total_cmp gives a total order, so a NaN free time (which the service
    // guard below should make impossible) can never scramble the selection
    // the way partial_cmp-with-Equal-fallback could
    let (worker, free_ms) = worker_free_at_ms
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("at least one worker");
    let start_ms = free_ms.max(head_ms);
    if start_ms >= until_ms {
        return None;
    }
    let len = pending
        .take(max_batch)
        .take_while(|&arrival_ms| arrival_ms <= start_ms)
        .count();
    let service = service_ms(len);
    // a NaN or negative service time (a miscalibrated cost model) would
    // silently corrupt the worker free times for the rest of the run: every
    // later `max`/`min` comparison against NaN is false, so the poisoned
    // worker looks permanently free
    debug_assert!(
        service.is_finite() && service >= 0.0,
        "service time for batch {len} must be finite and non-negative, got {service}"
    );
    Some(Batch {
        worker,
        start_ms,
        len,
        finish_ms: start_ms + service,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler(workers: usize, max_batch: usize, capacity: usize) -> DeadlineScheduler {
        DeadlineScheduler::new(SchedulerConfig {
            queue_capacity: capacity,
            max_batch,
            workers,
        })
    }

    fn request(id: u64, arrival_ms: f64, deadline_ms: f64) -> Request {
        Request {
            id,
            arrival_ms,
            deadline_ms,
        }
    }

    #[test]
    fn single_request_is_served_at_predicted_latency() {
        let mut s = scheduler(2, 4, 8);
        s.submit(request(1, 10.0, 500.0), |b| 100.0 * b as f64)
            .unwrap();
        let done = s.dispatch(1_000.0, 1, |b| 100.0 * b as f64);
        assert_eq!(done.len(), 1);
        let c = done[0];
        assert_eq!(c.start_ms, 10.0);
        assert_eq!(c.finish_ms, 110.0);
        assert!((c.latency_ms() - 100.0).abs() < 1e-12);
        assert!(c.met_deadline);
        assert_eq!(c.level_pos, 1);
    }

    #[test]
    fn queue_bound_and_certain_miss_admission() {
        let mut s = scheduler(1, 1, 2);
        s.submit(request(1, 0.0, 1_000.0), |_| 100.0).unwrap();
        s.submit(request(2, 0.0, 1_000.0), |_| 100.0).unwrap();
        assert_eq!(
            s.submit(request(3, 0.0, 1_000.0), |_| 100.0),
            Err(RejectReason::QueueFull)
        );
        assert_eq!(s.rejected_queue_full(), 1);
        let mut s = scheduler(1, 1, 8);
        assert_eq!(
            s.submit(request(1, 0.0, 50.0), |_| 100.0),
            Err(RejectReason::CertainMiss)
        );
        assert_eq!(s.rejected_certain_miss(), 1);
    }

    #[test]
    fn burst_forms_micro_batches_up_to_the_cap() {
        let mut s = scheduler(1, 3, 16);
        for id in 0..5 {
            s.submit(request(id, 0.0, 10_000.0), |_| 50.0).unwrap();
        }
        let done = s.dispatch(10_000.0, 0, |b| 50.0 + 10.0 * b as f64);
        assert_eq!(done.len(), 5);
        assert_eq!(done[0].batch, 3, "first batch fills to max_batch");
        assert_eq!(done[3].batch, 2, "remainder rides in a second batch");
        assert!(done[3].start_ms >= done[0].finish_ms);
    }

    #[test]
    fn workers_serve_in_parallel() {
        let mut s = scheduler(2, 1, 16);
        s.submit(request(1, 0.0, 1_000.0), |_| 100.0).unwrap();
        s.submit(request(2, 0.0, 1_000.0), |_| 100.0).unwrap();
        let done = s.dispatch(1_000.0, 0, |_| 100.0);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].start_ms, 0.0);
        assert_eq!(done[1].start_ms, 0.0, "second worker starts concurrently");
    }

    #[test]
    fn dispatch_stops_at_the_window_edge() {
        let mut s = scheduler(1, 1, 16);
        s.submit(request(1, 0.0, 10_000.0), |_| 100.0).unwrap();
        s.submit(request(2, 950.0, 10_000.0), |_| 100.0).unwrap();
        let done = s.dispatch(1_000.0, 0, |_| 100.0);
        assert_eq!(done.len(), 2, "second starts at 950 < 1000");
        let mut s = scheduler(1, 1, 16);
        s.submit(request(1, 0.0, 10_000.0), |_| 100.0).unwrap();
        s.submit(request(2, 1_100.0, 10_000.0), |_| 100.0).unwrap();
        let done = s.dispatch(1_000.0, 0, |_| 100.0);
        assert_eq!(done.len(), 1, "arrival beyond the window stays queued");
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn switch_blocking_delays_starts() {
        let mut s = scheduler(2, 4, 16);
        s.block_workers_until(500.0);
        s.submit(request(1, 0.0, 10_000.0), |_| 100.0).unwrap();
        let done = s.dispatch(10_000.0, 0, |_| 100.0);
        assert_eq!(done[0].start_ms, 500.0);
    }

    /// Regression test for the backlog-blind admission bug: with four
    /// 100 ms requests queued on a single un-dispatched worker, the old
    /// estimate `earliest_free_ms().max(arrival) + service(1)` saw an
    /// idle worker and predicted a 100 ms finish — admitting a newcomer
    /// with a 250 ms budget that in reality completes at 500 ms and can
    /// only miss. The backlog-aware estimator rejects it up front.
    #[test]
    fn admission_sees_queued_backlog() {
        let service = |_: usize| 100.0;
        let mut s = scheduler(1, 1, 16);
        for id in 0..4 {
            s.submit(request(id, 0.0, 10_000.0), service).unwrap();
        }
        let newcomer = request(99, 0.0, 250.0);
        let old_estimate = s.earliest_free_ms().max(newcomer.arrival_ms) + service(1);
        assert!(
            old_estimate <= newcomer.deadline_ms,
            "the backlog-blind estimate ({old_estimate} ms) wrongly admits"
        );
        assert!(
            (s.predicted_finish_ms(newcomer.arrival_ms, &service) - 500.0).abs() < 1e-9,
            "replaying 4 queued requests puts the newcomer's finish at 500 ms"
        );
        assert_eq!(
            s.submit(newcomer, service),
            Err(RejectReason::CertainMiss),
            "backlog-aware admission must reject what the old check admitted"
        );
        // ground truth: dispatching the backlog confirms the 500 ms finish
        let done = s.dispatch(10_000.0, 0, service);
        assert_eq!(done.last().unwrap().finish_ms, 400.0);
    }

    /// The backlog replay mirrors dispatch's greedy batching: queued
    /// requests amortise into micro-batches, so the estimate stays exact
    /// (not pessimistic) when batching would compress the backlog.
    #[test]
    fn backlog_estimate_is_batch_aware() {
        let service = |b: usize| 60.0 + 20.0 * b as f64;
        let mut s = scheduler(1, 4, 16);
        for id in 0..4 {
            s.submit(request(id, 0.0, 10_000.0), service).unwrap();
        }
        // 4 queued + newcomer: one batch of 4 (140 ms), newcomer alone after
        let predicted = s.predicted_finish_ms(0.0, &service);
        assert!((predicted - (140.0 + 80.0)).abs() < 1e-9);
        let done = s.dispatch(10_000.0, 0, service);
        assert_eq!(done.last().unwrap().finish_ms, 140.0);
    }

    /// With an empty queue the backlog-aware estimator degenerates to the
    /// old formula exactly — idle-path admission behaviour is unchanged.
    #[test]
    fn empty_queue_estimate_matches_old_formula() {
        let service = |_: usize| 37.5;
        let mut s = scheduler(2, 4, 8);
        s.block_workers_until(120.0);
        let old = s.earliest_free_ms().max(40.0) + service(1);
        assert_eq!(s.predicted_finish_ms(40.0, &service), old);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn dispatch_rejects_nan_service_times() {
        let mut s = scheduler(2, 4, 8);
        s.submit(request(1, 0.0, 10_000.0), |_| 100.0).unwrap();
        let _ = s.dispatch(1_000.0, 0, |_| f64::NAN);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn admission_rejects_nan_service_estimates() {
        let mut s = scheduler(1, 1, 8);
        let _ = s.submit(request(1, 0.0, 10_000.0), |_| f64::NAN);
    }
}
