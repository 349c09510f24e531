//! Fleet-scale sharded serving: N simulated devices — each with its own
//! battery, [`crate::RuntimeController`], [`crate::ModelBank`] and
//! [`crate::DeadlineScheduler`] — fronted by a [`Router`] that assigns every
//! arriving request to the device with the most *serving headroom*.
//!
//! The battery-aware score of an alive device is
//!
//! ```text
//! score = 2    · soc
//!       + 0.25 · (level_pos + 1) / levels
//!       − queue_len / queue_capacity
//!       − predicted_latency / deadline_budget
//! ```
//!
//! where `soc` is the state of charge, `level_pos` the active governor
//! level (higher = faster V/F point = more service capacity) and
//! `predicted_latency` the newcomer's completion time after the device's
//! queued backlog is replayed through its cost model. Headroom dominates —
//! the fleet exists to dance along the weakest battery — with latency and
//! queue pressure breaking headroom ties and the level term nudging
//! traffic towards devices already clocked up. The weights are constants
//! of the [`Router`].
//! Requests try devices in descending score order, so a device whose
//! admission control rejects (queue full, certain miss) fails over to the
//! next-best one; a request is unroutable only when *every* device is dead
//! or rejecting. Dead devices are never ranked, so they never receive
//! traffic.
//!
//! [`RoutingPolicy::Predictive`] keeps the same formula but swaps the raw
//! state-of-charge term for *predicted time to death*: each device's EWMA
//! [`rt3_hardware::DrainRateTracker`] turns its battery trajectory into a
//! drain rate, and the router ranks by `min(time_to_death / horizon, 1)`
//! with a two-minute horizon: on the mobile traces here a device with
//! minutes of predicted life left is, for routing purposes, healthy.
//! That is what distinguishes "full battery draining fast" from "half
//! battery on a charger" — the CloneCloud-style offline-profiled cost model
//! steering online placement.
//!
//! Round-robin and sticky baselines share the same failover machinery and
//! differ only in the preference order, which keeps the comparison in
//! `examples/serve_fleet.rs` honest: battery awareness is the only delta.
//!
//! The fleet's window loop, `play_windows`, is the only simulated one:
//! [`crate::ServeEngine`] plays its single device through it as a
//! one-device fleet.

use crate::cost::CostModel;
use crate::engine::{analytic_cost, level_bank, DeviceSim, RuntimePolicy, WINDOW_MS, WINDOW_S};
use crate::governor::DeviceGovernor;
use crate::report::FleetReport;
use crate::scenario::{DeviceProfile, FleetScenario, Scenario};
use crate::scheduler::{Completion, Request, SchedulerConfig};
use crate::telemetry::{DeviceTelemetry, FleetTelemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rt3_core::{Rt3Config, SearchOutcome};
use rt3_hardware::Battery;
use rt3_pruning::PatternSpace;
use rt3_telemetry::{Clock, TelemetryConfig, WallClock};
use rt3_transformer::Model;
use std::sync::Arc;

/// How the router orders devices for each arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Score devices by battery headroom (raw state of charge), V/F level,
    /// queue depth and predicted service latency; highest score first.
    BatteryAware,
    /// Like [`RoutingPolicy::BatteryAware`] but the headroom term is the
    /// *predicted time to death* from the device's EWMA drain rate,
    /// normalised by a two-minute horizon — a charging device outranks a
    /// full one that is burning down.
    Predictive,
    /// Cycle through alive devices request by request, ignoring state.
    RoundRobin,
    /// Keep hammering the current device until it dies or rejects, then
    /// move to the next alive one and stick there (primary/failover).
    Sticky,
}

impl RoutingPolicy {
    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::BatteryAware => "battery-aware",
            RoutingPolicy::Predictive => "predictive",
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::Sticky => "sticky",
        }
    }
}

/// The router's per-request view of one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSnapshot {
    /// Whether the device battery still has charge (dead devices are never
    /// ranked).
    pub alive: bool,
    /// Battery state of charge in `[0, 1]`.
    pub state_of_charge: f64,
    /// Active governor level position (0 = lowest frequency).
    pub level_pos: usize,
    /// Number of governor levels on the device.
    pub levels: usize,
    /// Queued (admitted but unstarted) requests.
    pub queue_len: usize,
    /// Bound on the queue.
    pub queue_capacity: usize,
    /// Predicted latency of a request admitted now, in milliseconds: the
    /// queued backlog is replayed batch by batch through the device's cost
    /// model and the newcomer's simulated completion is the prediction.
    pub predicted_latency_ms: f64,
    /// Per-request deadline budget, for normalising the latency term.
    pub deadline_budget_ms: f64,
    /// Predicted milliseconds until the device's battery dies at its
    /// smoothed drain rate (`f64::INFINITY` while charging or unobserved);
    /// the headroom term of [`RoutingPolicy::Predictive`].
    pub time_to_death_ms: f64,
}

/// Assigns arriving requests to devices; deterministic for a fixed sequence
/// of snapshots (ties break on the lower device index).
#[derive(Debug, Clone)]
pub struct Router {
    policy: RoutingPolicy,
    /// Next device position for round-robin.
    rr_next: usize,
    /// Home device for sticky routing.
    sticky_home: usize,
}

impl Router {
    /// Reward per unit of battery headroom.
    const HEADROOM_WEIGHT: f64 = 2.0;
    /// Reward for running at a higher (faster) governor level.
    const LEVEL_WEIGHT: f64 = 0.25;
    /// Penalty per unit of queue occupancy.
    const QUEUE_WEIGHT: f64 = 1.0;
    /// Penalty per deadline budget of predicted service latency.
    const LATENCY_WEIGHT: f64 = 1.0;
    /// Predicted time to death that counts as full headroom under
    /// [`RoutingPolicy::Predictive`].
    const TTD_HORIZON_MS: f64 = 120_000.0;

    /// Creates a router.
    pub fn new(policy: RoutingPolicy) -> Self {
        Self {
            policy,
            rr_next: 0,
            sticky_home: 0,
        }
    }

    /// Score of one device (higher = preferred). The headroom term is the
    /// raw state of charge for [`RoutingPolicy::BatteryAware`] and the
    /// horizon-normalised time to death for [`RoutingPolicy::Predictive`];
    /// every other term is shared.
    pub fn score(&self, snapshot: &DeviceSnapshot) -> f64 {
        let headroom_share = match self.policy {
            RoutingPolicy::Predictive => {
                (snapshot.time_to_death_ms / Self::TTD_HORIZON_MS).min(1.0)
            }
            _ => snapshot.state_of_charge,
        };
        let level_share = if snapshot.levels == 0 {
            0.0
        } else {
            (snapshot.level_pos + 1) as f64 / snapshot.levels as f64
        };
        let queue_share = if snapshot.queue_capacity == 0 {
            1.0
        } else {
            snapshot.queue_len as f64 / snapshot.queue_capacity as f64
        };
        let latency_share = if snapshot.deadline_budget_ms > 0.0 {
            snapshot.predicted_latency_ms / snapshot.deadline_budget_ms
        } else {
            0.0
        };
        Self::HEADROOM_WEIGHT * headroom_share + Self::LEVEL_WEIGHT * level_share
            - Self::QUEUE_WEIGHT * queue_share
            - Self::LATENCY_WEIGHT * latency_share
    }

    /// Preference order for one request: every *alive* device exactly once,
    /// best first. Failover walks this order, so as long as one admissible
    /// device exists the request is placed. Dead devices never appear.
    ///
    /// The order is a pure function of the snapshots and the router's
    /// internal cursor state; the cursors advance only on
    /// [`Router::commit`], so ranking is free of side effects.
    pub fn order(&self, snapshots: &[DeviceSnapshot]) -> Vec<usize> {
        self.order_by(
            snapshots.len(),
            |i| snapshots[i].alive,
            |i| self.score(&snapshots[i]),
        )
    }

    /// [`Router::order`] over `n` devices seen through `alive` and `score`.
    /// `score` runs only where it can change the order — a scoring policy
    /// with at least two alive devices — and only for alive devices, so a
    /// caller can build each snapshot on demand.
    fn order_by(
        &self,
        n: usize,
        alive: impl Fn(usize) -> bool,
        score: impl Fn(usize) -> f64,
    ) -> Vec<usize> {
        let alive: Vec<usize> = (0..n).filter(|&i| alive(i)).collect();
        if alive.len() < 2 {
            return alive;
        }
        match self.policy {
            RoutingPolicy::BatteryAware | RoutingPolicy::Predictive => {
                let mut scored: Vec<(f64, usize)> =
                    alive.into_iter().map(|i| (score(i), i)).collect();
                // descending score; ties break on the lower device index so
                // routing stays deterministic
                scored.sort_by(|a, b| {
                    b.0.partial_cmp(&a.0)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.1.cmp(&b.1))
                });
                scored.into_iter().map(|(_, i)| i).collect()
            }
            RoutingPolicy::RoundRobin => rotate_from(&alive, self.rr_next % n),
            RoutingPolicy::Sticky => rotate_from(&alive, self.sticky_home % n),
        }
    }

    /// Commits a placement: the request went to `device` (or nowhere, when
    /// `device` is `None`), letting the round-robin cursor advance and the
    /// sticky home follow failovers.
    pub fn commit(&mut self, device: Option<usize>, device_count: usize) {
        match self.policy {
            RoutingPolicy::RoundRobin => {
                if device_count > 0 {
                    self.rr_next = (self.rr_next + 1) % device_count;
                }
            }
            RoutingPolicy::Sticky => {
                if let Some(placed) = device {
                    self.sticky_home = placed;
                }
            }
            RoutingPolicy::BatteryAware | RoutingPolicy::Predictive => {}
        }
    }
}

/// The positions of `alive`, rotated so the first one at or after `start`
/// comes first (wrapping around).
fn rotate_from(alive: &[usize], start: usize) -> Vec<usize> {
    let split = alive.partition_point(|&i| i < start);
    let mut order = Vec::with_capacity(alive.len());
    order.extend_from_slice(&alive[split..]);
    order.extend_from_slice(&alive[..split]);
    order
}

/// Where the window loop's traffic comes from and where its outcomes go —
/// the only thing [`Fleet::run`], [`Fleet::run_chaos`] and
/// [`crate::ServeEngine::run`] do differently.
pub(crate) trait TrafficSource {
    /// What a window event carries until it is issued.
    type Event;
    /// What an issued attempt carries until its outcome is known.
    type Attempt;

    /// Window `t_s`'s events as `(offset_ms, event)`, in offset order.
    fn window_events(&mut self, t_s: u32, arrivals: &Scenario) -> Vec<(f64, Self::Event)>;

    /// Turns an event into an attempt to route, or `None` to skip it.
    fn issue(&mut self, event: Self::Event) -> Option<Self::Attempt>;

    /// A device admitted `attempt` as request `id`.
    fn admitted(&mut self, _id: u64, _attempt: Self::Attempt) {}

    /// No device admitted `attempt`, which arrived at `arrival_ms` in
    /// window `t_s`.
    fn unroutable(&mut self, _attempt: Self::Attempt, _arrival_ms: f64, _t_s: u32) {}

    /// A live device served window `t_s` and finished `completions`.
    fn completed(&mut self, _completions: &[Completion], _t_s: u32) {}

    /// A dead device dropped its queued `dropped` requests at the end of
    /// window `t_s`.
    fn dropped_dead(&mut self, _dropped: &[Request], _window_end_ms: f64, _t_s: u32) {}
}

/// The open-loop traffic source: arrivals drawn from the seed at the
/// scenario's rate and counted per window, every outcome ignored.
pub(crate) struct OpenLoop {
    rng: StdRng,
    /// Arrivals issued in each window so far.
    pub(crate) window_arrivals: Vec<u64>,
}

impl OpenLoop {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            window_arrivals: Vec::new(),
        }
    }
}

impl TrafficSource for OpenLoop {
    type Event = ();
    type Attempt = ();

    fn window_events(&mut self, t_s: u32, arrivals: &Scenario) -> Vec<(f64, ())> {
        let offsets = arrivals.arrivals_in_second(t_s, &mut self.rng);
        self.window_arrivals.push(offsets.len() as u64);
        offsets
            .into_iter()
            .map(|offset_ms| (offset_ms, ()))
            .collect()
    }

    fn issue(&mut self, _event: ()) -> Option<()> {
        Some(())
    }
}

/// Fleet-serving parameters: the per-device serving knobs plus the
/// routing policy. Every device runs the default analytic cost model (swap
/// it with [`Fleet::with_cost_model`]).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// How the router orders devices for each request.
    pub routing: RoutingPolicy,
    /// Per-request deadline: arrival + this budget, milliseconds.
    pub deadline_budget_ms: f64,
    /// Scheduler parameters of every device.
    pub scheduler: SchedulerConfig,
    /// Replay dispatched micro-batches as real sparse inference on every
    /// device's worker pool.
    pub real_inference: bool,
    /// Traffic seed (the arrival process is fleet-wide).
    pub seed: u64,
    /// What the run records, on every device and on the router
    /// ([`rt3_telemetry::TelemetryLevel::Off`] by default).
    pub telemetry: TelemetryConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            routing: RoutingPolicy::BatteryAware,
            deadline_budget_ms: 400.0,
            scheduler: SchedulerConfig::default(),
            real_inference: true,
            seed: 0x7233,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl FleetConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.deadline_budget_ms <= 0.0 || self.deadline_budget_ms.is_nan() {
            return Err("deadline_budget_ms must be positive".into());
        }
        self.scheduler.validate()
    }
}

/// A fleet of simulated devices serving one arrival stream through a
/// [`Router`]. Every device runs the battery-aware adaptive policy on its
/// own battery, controller, bank and scheduler; the fleet shares only the
/// offline artifacts (model, masks, pattern space, search outcome) and the
/// banks' level lowerings.
pub struct Fleet<'m, M: Model> {
    devices: Vec<DeviceSim<'m, M>>,
    pub(crate) config: FleetConfig,
    /// The trace the fleet was built for; [`Fleet::run`] plays exactly this
    /// one, so devices can never be driven by mismatched profiles.
    scenario: FleetScenario,
}

impl<'m, M: Model> Fleet<'m, M> {
    /// Builds one simulated device per profile in `scenario`, each with its
    /// own model bank over the search's best solution and a battery
    /// pre-drained to the profile's initial state of charge. The banks are
    /// spares of one bank, so each level is lowered once for the fleet.
    ///
    /// # Panics
    ///
    /// Panics if the fleet scenario or configuration is invalid, or the
    /// search outcome has no feasible best solution.
    pub fn new(
        model: &'m M,
        backbone_masks: rt3_transformer::MaskSet,
        space: &PatternSpace,
        outcome: &SearchOutcome,
        rt3: &Rt3Config,
        scenario: &FleetScenario,
        config: FleetConfig,
    ) -> Self {
        scenario.validate().expect("invalid fleet scenario");
        config.validate().expect("invalid fleet configuration");
        let cost = analytic_cost(rt3);
        let level_count = rt3.governor.levels().len();
        let duration_s = scenario.duration_s();
        // one wall clock shared by every device's kernel/build timings
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        // every device's bank shares this one's lowerings
        let bank = level_bank(model, backbone_masks, space, outcome, rt3);
        let devices = scenario
            .devices
            .iter()
            .map(|profile| {
                let bank = bank.spare(level_count);
                let mut battery = Battery::new(profile.battery_capacity_j);
                let deficit = profile.battery_capacity_j * (1.0 - profile.initial_soc);
                if deficit > 0.0 {
                    let drained = battery.drain(deficit);
                    debug_assert!(drained, "initial_soc in (0, 1] leaves a drainable deficit");
                }
                DeviceSim::new(
                    bank,
                    DeviceGovernor::new(
                        rt3.governor.clone(),
                        battery,
                        RuntimePolicy::Adaptive,
                        Arc::clone(&cost),
                        config.scheduler,
                    ),
                    config.deadline_budget_ms,
                    config.real_inference,
                    duration_s,
                    DeviceTelemetry::new(config.telemetry, Arc::clone(&clock)),
                )
            })
            .collect();
        Self {
            devices,
            config,
            scenario: scenario.clone(),
        }
    }

    /// Replaces every device's cost model (e.g. with a
    /// [`crate::cost::Calibrated`] model from a [`crate::cost::calibrate`]
    /// pass) before the trace is played.
    #[must_use]
    pub fn with_cost_model(mut self, cost: Arc<dyn CostModel>) -> Self {
        for device in &mut self.devices {
            device.governor.set_cost_model(Arc::clone(&cost));
        }
        self
    }

    /// Number of devices in the fleet.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The trace the fleet was built for and will play.
    pub fn scenario(&self) -> &FleetScenario {
        &self.scenario
    }

    /// Plays the fleet's scenario to completion and reports per-device and
    /// fleet aggregates.
    pub fn run(self) -> FleetReport {
        let mut traffic = OpenLoop::new(self.config.seed);
        self.play(&mut traffic)
    }

    /// Plays the fleet's scenario with `source`'s traffic and reports.
    pub(crate) fn play<S: TrafficSource>(self, source: &mut S) -> FleetReport {
        let Fleet {
            mut devices,
            config,
            scenario,
        } = self;
        let names: Vec<String> = scenario.devices.iter().map(|p| p.name.clone()).collect();
        let mut telemetry = FleetTelemetry::new(config.telemetry, &names);
        let (arrivals, unroutable) = play_windows(
            &mut devices,
            &scenario.devices,
            &scenario.arrivals,
            &mut Router::new(config.routing),
            source,
            telemetry.as_mut(),
        );
        let devices = devices.into_iter().zip(names);
        FleetReport {
            scenario: scenario.name,
            routing: config.routing.label().to_string(),
            arrivals,
            unroutable,
            devices: devices
                .map(|(device, name)| device.into_report(name, "adaptive".to_string()).0)
                .collect(),
            telemetry: telemetry.map(|ft| ft.snapshot()),
        }
    }
}

/// The one simulated window loop, which the fleet and the single-device
/// engine both play: per governor window, begin every device's window with
/// its profile's events, route the source's events one by one in offset
/// order with failover, then end every live window (or record a dead one)
/// and feed the outcomes back to the source. `telemetry` records the
/// router's counters. Returns the issued arrivals and how many of them no
/// device admitted.
pub(crate) fn play_windows<M: Model, S: TrafficSource>(
    devices: &mut [DeviceSim<'_, M>],
    profiles: &[DeviceProfile],
    arrivals: &Scenario,
    router: &mut Router,
    source: &mut S,
    mut telemetry: Option<&mut FleetTelemetry>,
) -> (u64, u64) {
    let mut next_id = 0u64;
    let mut arrivals_total = 0u64;
    let mut unroutable = 0u64;
    let n = devices.len();

    for t_s in 0..arrivals.duration_s() {
        let now_ms = t_s as f64 * WINDOW_MS;
        let window_end_ms = now_ms + WINDOW_MS;

        // 1. per-device battery events, death checks, level decisions
        let mut serving = vec![false; n];
        for (i, (device, profile)) in devices.iter_mut().zip(profiles).enumerate() {
            serving[i] = device.begin_window(
                t_s,
                now_ms,
                profile.battery_cliff_at(t_s),
                profile.charge_w_at(t_s) * WINDOW_S,
                profile.thermal_cap_at(t_s),
            );
        }

        // 2. the window's events, routed one by one with failover
        let mut routed = vec![0u64; n];
        let mut rejected = vec![0u64; n];
        for (offset_ms, event) in source.window_events(t_s, arrivals) {
            let Some(attempt) = source.issue(event) else {
                continue;
            };
            arrivals_total += 1;
            let arrival_ms = now_ms + offset_ms;
            let order = router.order_by(
                n,
                |i| !devices[i].governor.is_dead(),
                |i| router.score(&snapshot(&devices[i], arrival_ms)),
            );
            let mut placed = None;
            for &i in &order {
                let request = Request {
                    id: next_id,
                    arrival_ms,
                    deadline_ms: arrival_ms + devices[i].deadline_budget_ms,
                };
                match devices[i].try_admit(request) {
                    Ok(()) => {
                        routed[i] += 1;
                        placed = Some(i);
                        break;
                    }
                    Err(_) => {
                        rejected[i] += 1;
                        if let Some(ft) = &mut telemetry {
                            let id = ft.failovers[i];
                            ft.add(id, 1);
                        }
                    }
                }
            }
            if let Some(ft) = &mut telemetry {
                let arrivals_id = ft.arrivals;
                ft.add(arrivals_id, 1);
                let id = match placed {
                    Some(i) => ft.routed[i],
                    None => ft.unroutable,
                };
                ft.add(id, 1);
            }
            match placed {
                Some(_) => source.admitted(next_id, attempt),
                None => {
                    unroutable += 1;
                    source.unroutable(attempt, arrival_ms, t_s);
                }
            }
            router.commit(placed, n);
            next_id += 1;
        }

        // 3. per-device dispatch, energy and window reports; the outcomes
        //    go back to the source
        for (i, device) in devices.iter_mut().enumerate() {
            if serving[i] {
                let completions = device.end_window(
                    t_s,
                    window_end_ms,
                    routed[i],
                    rejected[i],
                    arrivals.background_w(t_s) * WINDOW_S,
                );
                source.completed(&completions, t_s);
            } else {
                let dropped = device.record_dead_window(t_s);
                source.dropped_dead(&dropped, window_end_ms, t_s);
            }
        }
    }
    (arrivals_total, unroutable)
}

/// The router's view of one device for a request arriving at `arrival_ms`.
fn snapshot<M: Model>(device: &DeviceSim<'_, M>, arrival_ms: f64) -> DeviceSnapshot {
    let governor = &device.governor;
    DeviceSnapshot {
        alive: !governor.is_dead(),
        state_of_charge: governor.state_of_charge(),
        level_pos: governor.active_level().unwrap_or(0),
        levels: governor.level_count(),
        queue_len: governor.scheduler().queue_len(),
        queue_capacity: governor.scheduler().queue_capacity(),
        // the newcomer's simulated completion after the queued backlog,
        // replayed through the batch step dispatch takes
        predicted_latency_ms: governor.predicted_finish_ms(arrival_ms) - arrival_ms,
        deadline_budget_ms: device.deadline_budget_ms,
        time_to_death_ms: governor.time_to_death_ms(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(alive: bool, soc: f64, queue_len: usize, predicted_ms: f64) -> DeviceSnapshot {
        DeviceSnapshot {
            alive,
            state_of_charge: soc,
            level_pos: 1,
            levels: 3,
            queue_len,
            queue_capacity: 64,
            predicted_latency_ms: predicted_ms,
            deadline_budget_ms: 400.0,
            time_to_death_ms: 60_000.0,
        }
    }

    #[test]
    fn battery_aware_prefers_headroom_and_skips_the_dead() {
        let router = Router::new(RoutingPolicy::BatteryAware);
        let snapshots = vec![
            snap(true, 0.2, 0, 50.0),
            snap(false, 1.0, 0, 50.0), // dead: best battery but never ranked
            snap(true, 0.9, 0, 50.0),
            snap(true, 0.5, 0, 50.0),
        ];
        let order = router.order(&snapshots);
        assert_eq!(order, vec![2, 3, 0], "descending headroom, no dead device");
    }

    #[test]
    fn predictive_ranks_by_time_to_death_not_state_of_charge() {
        let router = Router::new(RoutingPolicy::Predictive);
        // full battery draining fast vs half battery on a charger: raw
        // headroom prefers the first, predictive routing the second
        let mut fast_drain = snap(true, 1.0, 0, 50.0);
        fast_drain.time_to_death_ms = 20_000.0;
        let mut charging = snap(true, 0.5, 0, 50.0);
        charging.time_to_death_ms = f64::INFINITY;
        let snapshots = vec![fast_drain, charging];
        assert_eq!(router.order(&snapshots), vec![1, 0]);
        let headroom = Router::new(RoutingPolicy::BatteryAware);
        assert_eq!(headroom.order(&snapshots), vec![0, 1], "soc ranks inverse");
    }

    #[test]
    fn predictive_headroom_saturates_at_the_horizon() {
        let router = Router::new(RoutingPolicy::Predictive);
        let mut at_horizon = snap(true, 0.3, 0, 50.0);
        at_horizon.time_to_death_ms = 120_000.0;
        let mut beyond = snap(true, 0.3, 0, 50.0);
        beyond.time_to_death_ms = 500_000.0;
        assert_eq!(
            router.score(&at_horizon),
            router.score(&beyond),
            "time to death beyond the horizon adds no further score"
        );
        assert_eq!(
            router.order(&[at_horizon, beyond]),
            vec![0, 1],
            "saturated tie breaks on the device index"
        );
    }

    /// The score is the module doc's formula: `2·soc + 0.25·(level+1)/levels
    /// − queue/capacity − latency/budget`, with `min(ttd / 120 000 ms, 1)`
    /// in place of `soc` under [`RoutingPolicy::Predictive`].
    #[test]
    fn score_is_the_documented_formula() {
        let battery_aware = Router::new(RoutingPolicy::BatteryAware);
        let predictive = Router::new(RoutingPolicy::Predictive);
        let mut mid = snap(true, 0.6, 16, 100.0);
        mid.time_to_death_ms = 30_000.0;
        let mut top_level = snap(true, 0.2, 0, 20.0);
        top_level.level_pos = 2;
        top_level.time_to_death_ms = 90_000.0;
        let mut charging = snap(true, 0.9, 64, 400.0);
        charging.level_pos = 0;
        charging.time_to_death_ms = f64::INFINITY;
        let cases = [
            // (snapshot, BatteryAware score, Predictive score)
            (
                mid,
                2.0 * 0.6 + 0.25 * 2.0 / 3.0 - 16.0 / 64.0 - 100.0 / 400.0,
                2.0 * 0.25 + 0.25 * 2.0 / 3.0 - 16.0 / 64.0 - 100.0 / 400.0,
            ),
            (
                top_level,
                2.0 * 0.2 + 0.25 * 3.0 / 3.0 - 0.0 - 20.0 / 400.0,
                2.0 * 0.75 + 0.25 * 3.0 / 3.0 - 0.0 - 20.0 / 400.0,
            ),
            (
                charging,
                2.0 * 0.9 + 0.25 * 1.0 / 3.0 - 64.0 / 64.0 - 400.0 / 400.0,
                2.0 * 1.0 + 0.25 * 1.0 / 3.0 - 64.0 / 64.0 - 400.0 / 400.0,
            ),
        ];
        for (k, (snapshot, by_soc, by_ttd)) in cases.into_iter().enumerate() {
            let got = battery_aware.score(&snapshot);
            assert!((got - by_soc).abs() < 1e-12, "case {k}: {got} vs {by_soc}");
            let got = predictive.score(&snapshot);
            assert!((got - by_ttd).abs() < 1e-12, "case {k}: {got} vs {by_ttd}");
        }
    }

    #[test]
    fn queue_and_latency_pressure_override_equal_headroom() {
        let router = Router::new(RoutingPolicy::BatteryAware);
        let snapshots = vec![
            snap(true, 0.8, 60, 350.0), // nearly full queue, slow
            snap(true, 0.8, 2, 60.0),
        ];
        assert_eq!(router.order(&snapshots), vec![1, 0]);
    }

    #[test]
    fn round_robin_cycles_and_skips_dead_devices() {
        let mut router = Router::new(RoutingPolicy::RoundRobin);
        let snapshots = vec![
            snap(true, 0.9, 0, 50.0),
            snap(false, 0.9, 0, 50.0),
            snap(true, 0.9, 0, 50.0),
        ];
        assert_eq!(router.order(&snapshots), vec![0, 2]);
        router.commit(Some(0), 3);
        assert_eq!(
            router.order(&snapshots),
            vec![2, 0],
            "cursor advanced past 1"
        );
        router.commit(Some(2), 3);
        assert_eq!(router.order(&snapshots), vec![2, 0], "dead 1 is skipped");
        router.commit(Some(2), 3);
        assert_eq!(router.order(&snapshots), vec![0, 2], "wraps around");
    }

    #[test]
    fn sticky_holds_its_home_until_it_fails_over() {
        let mut router = Router::new(RoutingPolicy::Sticky);
        let all_alive = vec![
            snap(true, 0.9, 0, 50.0),
            snap(true, 0.9, 0, 50.0),
            snap(true, 0.9, 0, 50.0),
        ];
        assert_eq!(router.order(&all_alive), vec![0, 1, 2]);
        router.commit(Some(0), 3);
        assert_eq!(router.order(&all_alive), vec![0, 1, 2], "home stays put");
        // home 0 died: the failover placement moves the home to device 1
        let zero_dead = vec![
            snap(false, 0.9, 0, 50.0),
            snap(true, 0.9, 0, 50.0),
            snap(true, 0.9, 0, 50.0),
        ];
        assert_eq!(router.order(&zero_dead), vec![1, 2]);
        router.commit(Some(1), 3);
        assert_eq!(router.order(&all_alive), vec![1, 2, 0], "new home sticks");
    }

    #[test]
    fn order_is_empty_only_when_every_device_is_dead() {
        let router = Router::new(RoutingPolicy::BatteryAware);
        let dead = vec![snap(false, 0.5, 0, 50.0); 3];
        assert!(router.order(&dead).is_empty());
        let mut one_alive = dead.clone();
        one_alive[1].alive = true;
        assert_eq!(router.order(&one_alive), vec![1]);
    }
}
