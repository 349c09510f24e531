//! The device governor: one serving device's battery-driven V/F decision
//! and its deadline scheduler, with the four rules every request and window
//! boundary goes through — admit, switch, dispatch and death-drain. Both
//! serving paths run it — the simulated device on a virtual clock, the
//! socket server on the wall clock — so the two cannot drift.

use crate::controller::{HysteresisConfig, RuntimeController, Telemetry};
use crate::cost::CostModel;
use crate::engine::RuntimePolicy;
use crate::scheduler::{
    batches, Completion, DeadlineScheduler, RejectReason, Request, SchedulerConfig,
};
use crate::telemetry::DeviceMetricIds;
use rt3_hardware::{Battery, DrainRateTracker, DvfsGovernor, PowerModel, VfLevel};
use rt3_telemetry::{DecisionRecord, MetricShard};
use std::sync::Arc;

/// Where a rule records the device metrics it counts: the device's shard
/// and the schema's handles, or `None` to record nothing.
pub type DeviceMetrics<'a> = Option<(&'a mut MetricShard, &'a DeviceMetricIds)>;

/// One device's battery, EWMA drain observer, [`RuntimeController`], power
/// model, active level and [`DeadlineScheduler`], with the physics every
/// governor window repeats: the boundary decision, switch charging,
/// admission, dispatch and per-request energy.
pub struct DeviceGovernor {
    controller: RuntimeController,
    battery: Battery,
    drain: DrainRateTracker,
    power: PowerModel,
    levels: Vec<VfLevel>,
    policy: RuntimePolicy,
    cost: Arc<CostModel>,
    scheduler: DeadlineScheduler,
    dead: bool,
    active_level: Option<usize>,
    /// Single-request latency of the active level, cached at activation.
    active_base_ms: f64,
    /// Switch and inference energy charged so far, joules.
    energy_j: f64,
}

impl DeviceGovernor {
    /// A governor over `governor`'s levels, with the default controller
    /// hysteresis and the Cortex-A7 cluster power model; `battery` may be
    /// partially drained and each of the scheduler's workers is one
    /// cluster core.
    pub fn new(
        governor: DvfsGovernor,
        battery: Battery,
        policy: RuntimePolicy,
        cost: Arc<CostModel>,
        scheduler: SchedulerConfig,
    ) -> Self {
        Self {
            levels: governor.levels().to_vec(),
            controller: RuntimeController::new(governor, HysteresisConfig::default()),
            battery,
            drain: DrainRateTracker::default(),
            power: PowerModel::cortex_a7(),
            policy,
            cost,
            scheduler: DeadlineScheduler::new(scheduler),
            dead: false,
            active_level: None,
            active_base_ms: 0.0,
            energy_j: 0.0,
        }
    }

    /// The window boundary at `now_ms`: a battery cliff (a fraction of
    /// capacity) and charging, one drain observation over the `elapsed_s`
    /// since the last boundary, the battery gauges, then the death check.
    /// `None` once the battery has died (for good, even if charged later).
    /// Otherwise the policy picks the level and a level change is
    /// installed: `price` gives the new level's single-request latency and
    /// switch time (it runs only on a change, so a model bank can build the
    /// variant lazily), and a counted switch adds to `switches` and
    /// `switch_time_ms`. Returns the decision with the battery it saw,
    /// before a switch drained its energy.
    #[allow(clippy::too_many_arguments)]
    pub fn begin_window(
        &mut self,
        now_ms: f64,
        elapsed_s: f64,
        battery_cliff: Option<f64>,
        charge_j: f64,
        thermal_cap: Option<usize>,
        mut metrics: DeviceMetrics<'_>,
        price: impl FnOnce(&Self, usize) -> (f64, f64),
    ) -> Option<DecisionRecord> {
        // the dwell must be read *before* the decision (a switch resets it)
        let dwell_ms = self.controller.ms_since_last_switch(now_ms);
        if let Some(drop) = battery_cliff {
            self.battery
                .drain_saturating(drop * self.battery.capacity_j());
        }
        self.battery.charge(charge_j);
        self.drain.observe(elapsed_s, self.battery.remaining_j());
        let state_of_charge = self.battery.state_of_charge();
        let time_to_death_ms = self.time_to_death_ms();
        if let Some((shard, ids)) = &mut metrics {
            shard.set(ids.state_of_charge, state_of_charge);
            shard.set(ids.drain_rate_w, self.drain.drain_rate_w());
            shard.set(ids.time_to_death_ms, time_to_death_ms);
        }
        self.dead |= self.battery.is_empty();
        if self.dead {
            return None;
        }
        let (raw_target, chosen_level) = match self.policy {
            RuntimePolicy::Adaptive => {
                let decision = self.controller.decide(Telemetry {
                    now_ms,
                    state_of_charge,
                    thermal_cap,
                });
                let raw_target = self.controller.raw_target(state_of_charge.clamp(0.0, 1.0));
                (raw_target, decision.level_pos)
            }
            // the thermal cap is hardware-mandated even for the baseline
            RuntimePolicy::FixedLevel(pos) => (pos, thermal_cap.map_or(pos, |cap| pos.min(cap))),
        };
        let mut switched = false;
        if self.active_level != Some(chosen_level) {
            let (base_ms, switch_time_ms) = price(self, chosen_level);
            switched = self.activate(chosen_level, base_ms, switch_time_ms, now_ms);
            if let (true, Some((shard, ids))) = (switched, &mut metrics) {
                shard.add(ids.switches, 1);
                shard.record(ids.switch_time_ms, switch_time_ms);
            }
        }
        if let Some((shard, ids)) = metrics {
            shard.set(ids.active_level, chosen_level as f64);
        }
        Some(DecisionRecord {
            t_ms: now_ms,
            state_of_charge,
            thermal_cap,
            raw_target,
            chosen_level,
            switched,
            dwell_ms,
            time_to_death_ms,
            predicted_latency_ms: self.active_base_ms,
        })
    }

    /// Installs `level_pos` with single-request latency `base_ms`. The
    /// first activation is a model load; a later one is a counted switch
    /// that blocks the workers for `switch_time_ms` from `now_ms` and
    /// drains the cluster power over that time. Returns whether the switch
    /// was counted.
    fn activate(
        &mut self,
        level_pos: usize,
        base_ms: f64,
        switch_time_ms: f64,
        now_ms: f64,
    ) -> bool {
        self.active_base_ms = base_ms;
        if self.active_level.replace(level_pos).is_none() {
            return false;
        }
        self.scheduler.block_workers_until(now_ms + switch_time_ms);
        let energy_j = self.power.power_w(&self.levels[level_pos]) * switch_time_ms / 1_000.0;
        self.battery.drain_saturating(energy_j);
        self.energy_j += energy_j;
        true
    }

    /// Admission at the active level: the scheduler's bounded queue and
    /// certain-miss check, with the outcome counted (`requests_admitted`
    /// and `queue_depth`, or the reject reason's counter). On admission,
    /// returns the predicted completion time the check was made against.
    ///
    /// # Errors
    ///
    /// Returns the scheduler's [`RejectReason`] when the request is turned
    /// away.
    pub fn admit(
        &mut self,
        request: Request,
        metrics: DeviceMetrics<'_>,
    ) -> Result<f64, RejectReason> {
        let result = self.scheduler.submit(request, self.service());
        if let Some((shard, ids)) = metrics {
            match result {
                Ok(_) => {
                    shard.add(ids.admitted, 1);
                    shard.set(ids.queue_depth, self.scheduler.queue_len() as f64);
                }
                Err(RejectReason::QueueFull) => shard.add(ids.rejected_queue_full, 1),
                Err(RejectReason::CertainMiss) => shard.add(ids.rejected_certain_miss, 1),
            }
        }
        result
    }

    /// Dispatches every queued micro-batch that can start before `until_ms`
    /// at the active level, records each batch's size once and the queue
    /// depth left behind, and charges every completion's energy to the
    /// battery.
    pub fn serve_until(&mut self, until_ms: f64, metrics: DeviceMetrics<'_>) -> Vec<Completion> {
        let level_pos = self.active_level.expect("a window activates a level");
        let completions = self.scheduler.dispatch(until_ms, level_pos, self.service());
        for completion in &completions {
            self.charge_completion(completion);
        }
        if let Some((shard, ids)) = metrics {
            for batch in batches(&completions) {
                shard.record(ids.batch_size, batch.len() as f64);
            }
            shard.set(ids.queue_depth, self.scheduler.queue_len() as f64);
        }
        completions
    }

    /// Charges one completed request (cluster power / workers) × its share
    /// of the batch's service time.
    fn charge_completion(&mut self, completion: &Completion) {
        let level = self.levels[completion.level_pos];
        let core_power_w = self.power.power_w(&level) / self.scheduler.workers() as f64;
        let service_share = (completion.finish_ms - completion.start_ms) / completion.batch as f64;
        let energy_j = core_power_w * service_share / 1_000.0;
        self.battery.drain_saturating(energy_j);
        self.energy_j += energy_j;
    }

    /// The battery has died: drops every queued request, counts them under
    /// `requests_dropped_dead`, zeroes `queue_depth` and hands them back so
    /// the caller can resolve each one.
    pub fn drain_dead(&mut self, metrics: DeviceMetrics<'_>) -> Vec<Request> {
        let dropped = self.take_queue();
        if let Some((shard, ids)) = metrics {
            shard.add(ids.dropped_dead, dropped.len() as u64);
            shard.set(ids.queue_depth, 0.0);
        }
        dropped
    }

    /// Hands back every queued request, uncounted (the end of a trace, a
    /// server shutdown).
    pub fn take_queue(&mut self) -> Vec<Request> {
        self.scheduler.drain_queue()
    }

    /// The scheduler, for queue and worker queries.
    pub fn scheduler(&self) -> &DeadlineScheduler {
        &self.scheduler
    }

    /// Predicted completion time of a request arriving at `arrival_ms`
    /// behind the queued backlog, at the active level.
    pub fn predicted_finish_ms(&self, arrival_ms: f64) -> f64 {
        self.scheduler
            .predicted_finish_ms(arrival_ms, &self.service())
    }

    /// Drains background draw from the battery.
    pub fn drain(&mut self, energy_j: f64) {
        self.battery.drain_saturating(energy_j);
    }

    /// The batch→service-time closure admission, prediction and dispatch
    /// share: the active level's base latency through the cost model's
    /// amortisation curve. It owns an `Arc` clone, not a borrow.
    fn service(&self) -> impl Fn(usize) -> f64 {
        let level_pos = self.active_level.unwrap_or(0);
        let base = self.active_base_ms;
        let cost = Arc::clone(&self.cost);
        move |batch| cost.service_from_base_ms(level_pos, base, batch)
    }

    /// Switch and inference energy charged so far, joules.
    pub(crate) fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// The cost model behind every prediction.
    pub(crate) fn cost(&self) -> &Arc<CostModel> {
        &self.cost
    }

    /// Replaces the cost model before the first activation.
    pub(crate) fn set_cost_model(&mut self, cost: Arc<CostModel>) {
        assert!(
            self.active_level.is_none(),
            "the cost model must be set before the first window"
        );
        self.cost = cost;
    }

    /// Whether the battery has died.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }

    /// Level position in effect, once one has been activated.
    pub fn active_level(&self) -> Option<usize> {
        self.active_level
    }

    /// The governor's V/F levels, by position.
    pub(crate) fn levels(&self) -> &[VfLevel] {
        &self.levels
    }

    /// Battery state of charge in `[0, 1]`.
    pub(crate) fn state_of_charge(&self) -> f64 {
        self.battery.state_of_charge()
    }

    /// Milliseconds until the battery dies at the smoothed drain rate
    /// (infinite while charging or unobserved).
    pub(crate) fn time_to_death_ms(&self) -> f64 {
        self.drain.time_to_death_ms(self.battery.remaining_j())
    }
}
