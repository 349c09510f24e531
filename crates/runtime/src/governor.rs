//! The device governor: the battery-driven V/F decision both serving paths
//! run — the simulated device on a virtual clock, the socket server on the
//! wall clock — so the two cannot drift.

use crate::controller::{LevelDecision, RuntimeController, Telemetry};
use crate::cost::CostModel;
use crate::engine::RuntimePolicy;
use crate::scheduler::{Completion, DeadlineScheduler};
use crate::telemetry::DeviceMetricIds;
use rt3_hardware::{Battery, DrainRateTracker, PowerModel, VfLevel};
use rt3_telemetry::MetricShard;
use std::sync::Arc;

/// One device's battery, EWMA drain observer, [`RuntimeController`], power
/// model and active level, with the physics every governor window repeats:
/// the boundary decision, switch charging and per-request energy.
pub struct DeviceGovernor {
    controller: RuntimeController,
    battery: Battery,
    drain: DrainRateTracker,
    power: PowerModel,
    levels: Vec<VfLevel>,
    policy: RuntimePolicy,
    cost: Arc<dyn CostModel>,
    workers: usize,
    dead: bool,
    active_level: Option<usize>,
    /// Single-request latency of the active level, cached at activation.
    active_base_ms: f64,
}

impl DeviceGovernor {
    /// A governor over `controller`'s levels; `battery` may be partially
    /// drained and each of the scheduler's `workers` is one cluster core.
    pub fn new(
        controller: RuntimeController,
        battery: Battery,
        policy: RuntimePolicy,
        cost: Arc<dyn CostModel>,
        power: PowerModel,
        workers: usize,
    ) -> Self {
        Self {
            levels: controller.governor().levels().to_vec(),
            controller,
            battery,
            drain: DrainRateTracker::default(),
            power,
            policy,
            cost,
            workers,
            dead: false,
            active_level: None,
            active_base_ms: 0.0,
        }
    }

    /// The window boundary at `now_ms`: a battery cliff (a fraction of
    /// capacity) and charging, one drain observation over the `elapsed_s`
    /// since the last boundary, then the death check. `None` once the
    /// battery has died (for good, even if charged later); otherwise the
    /// policy's level, `switched` when [`DeviceGovernor::activate`] must
    /// install it.
    pub fn begin_window(
        &mut self,
        now_ms: f64,
        elapsed_s: f64,
        battery_cliff: Option<f64>,
        charge_j: f64,
        thermal_cap: Option<usize>,
    ) -> Option<LevelDecision> {
        if let Some(drop) = battery_cliff {
            self.battery
                .drain_saturating(drop * self.battery.capacity_j());
        }
        self.battery.charge(charge_j);
        self.drain.observe(elapsed_s, self.battery.remaining_j());
        self.dead |= self.battery.is_empty();
        if self.dead {
            return None;
        }
        let level_pos = match self.policy {
            RuntimePolicy::Adaptive => {
                let state_of_charge = self.battery.state_of_charge();
                self.controller
                    .decide(Telemetry {
                        now_ms,
                        state_of_charge,
                        thermal_cap,
                    })
                    .level_pos
            }
            // the thermal cap is hardware-mandated even for the baseline
            RuntimePolicy::FixedLevel(pos) => thermal_cap.map_or(pos, |cap| pos.min(cap)),
        };
        Some(LevelDecision {
            level_pos,
            switched: self.active_level != Some(level_pos),
        })
    }

    /// Installs `level_pos` with single-request latency `base_ms`. The
    /// first activation is a model load; a later one is a counted switch
    /// that blocks the workers for `switch_time_ms` from `now_ms` and
    /// drains the cluster power over that time. Returns the switch energy
    /// in joules, `None` for the load.
    pub fn activate(
        &mut self,
        level_pos: usize,
        base_ms: f64,
        switch_time_ms: f64,
        now_ms: f64,
        scheduler: &mut DeadlineScheduler,
    ) -> Option<f64> {
        self.active_base_ms = base_ms;
        self.active_level.replace(level_pos)?;
        scheduler.block_workers_until(now_ms + switch_time_ms);
        let energy_j = self.power.power_w(&self.levels[level_pos]) * switch_time_ms / 1_000.0;
        self.battery.drain_saturating(energy_j);
        Some(energy_j)
    }

    /// Charges one completed request (cluster power / workers) × its share
    /// of the batch's service time; returns the energy in joules.
    pub fn charge_completion(&mut self, completion: &Completion) -> f64 {
        let level = self.levels[completion.level_pos];
        let core_power_w = self.power.power_w(&level) / self.workers as f64;
        let service_share = (completion.finish_ms - completion.start_ms) / completion.batch as f64;
        let energy_j = core_power_w * service_share / 1_000.0;
        self.battery.drain_saturating(energy_j);
        energy_j
    }

    /// Drains background draw from the battery.
    pub fn drain(&mut self, energy_j: f64) {
        self.battery.drain_saturating(energy_j);
    }

    /// The batch→service-time closure admission, routing and dispatch
    /// share: the active level's base latency through the cost model's
    /// amortisation curve. It owns an `Arc` clone, not a borrow.
    pub fn service(&self) -> impl Fn(usize) -> f64 {
        let level_pos = self.active_level.unwrap_or(0);
        let base = self.active_base_ms;
        let cost = Arc::clone(&self.cost);
        move |batch| cost.service_from_base_ms(level_pos, base, batch)
    }

    /// Sets the battery gauges of `ids` as the last boundary left them.
    pub fn record_battery(&self, shard: &mut MetricShard, ids: &DeviceMetricIds) {
        shard.set(ids.state_of_charge, self.battery.state_of_charge());
        shard.set(ids.drain_rate_w, self.drain.drain_rate_w());
        shard.set(ids.time_to_death_ms, self.time_to_death_ms());
    }

    /// Single-request latency of `level_pos` at `sparsity`.
    pub(crate) fn base_latency_ms(&self, sparsity: f64, level_pos: usize) -> f64 {
        self.cost.base_latency_ms(sparsity, &self.levels[level_pos])
    }

    /// The policy's target for `state_of_charge` before hysteresis.
    pub(crate) fn raw_target(&self, state_of_charge: f64) -> usize {
        match self.policy {
            RuntimePolicy::Adaptive => self.controller.raw_target(state_of_charge.clamp(0.0, 1.0)),
            RuntimePolicy::FixedLevel(pos) => pos,
        }
    }

    /// Milliseconds since the controller's last switch (its dwell).
    pub(crate) fn ms_since_last_switch(&self, now_ms: f64) -> f64 {
        self.controller.ms_since_last_switch(now_ms)
    }

    /// The cost model behind every prediction.
    pub(crate) fn cost(&self) -> &Arc<dyn CostModel> {
        &self.cost
    }

    /// Replaces the cost model before the first activation.
    pub(crate) fn set_cost_model(&mut self, cost: Arc<dyn CostModel>) {
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

    /// Single-request latency of the active level.
    pub(crate) fn active_base_ms(&self) -> f64 {
        self.active_base_ms
    }

    /// Number of governor levels.
    pub(crate) fn level_count(&self) -> usize {
        self.levels.len()
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
