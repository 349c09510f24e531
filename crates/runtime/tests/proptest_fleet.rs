//! Property-based tests for the fleet router invariants:
//!
//! 1. a dead-battery device never appears in the preference order (it can
//!    never receive traffic);
//! 2. every alive device appears exactly once — failover walks the whole
//!    order, so no request is dropped while at least one device is
//!    admissible;
//! 3. ranking is deterministic for a fixed router state, for every policy;
//! 4. the scored orders (battery-aware and predictive) are sorted by the
//!    published score.

use proptest::prelude::*;
use rt3_runtime::{DeviceSnapshot, Router, RoutingPolicy};

fn policy_of(index: usize) -> RoutingPolicy {
    match index % 4 {
        0 => RoutingPolicy::BatteryAware,
        1 => RoutingPolicy::Predictive,
        2 => RoutingPolicy::RoundRobin,
        _ => RoutingPolicy::Sticky,
    }
}

fn snapshot_of((alive, soc, queue_len, predicted_ms): (usize, f64, usize, f64)) -> DeviceSnapshot {
    DeviceSnapshot {
        alive: alive == 1,
        state_of_charge: soc,
        level_pos: queue_len % 3,
        levels: 3,
        queue_len,
        queue_capacity: 64,
        predicted_latency_ms: predicted_ms,
        deadline_budget_ms: 400.0,
        // derived, not drawn: keeps the generator small while still varying
        // the predictive policy's headroom term (charging devices included)
        time_to_death_ms: if queue_len % 5 == 0 {
            f64::INFINITY
        } else {
            soc * 200_000.0
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The preference order is exactly the alive devices: no dead device is
    /// ever ranked, every alive one appears exactly once (so failover can
    /// reach every admissible device), for every routing policy.
    #[test]
    fn order_is_a_permutation_of_the_alive_devices(
        raw in proptest::collection::vec(
            (0usize..2, 0.0f64..1.0, 0usize..64, 0.0f64..500.0),
            1..10,
        ),
        policy_index in 0usize..4,
        advance in 0usize..7,
    ) {
        let snapshots: Vec<DeviceSnapshot> = raw.into_iter().map(snapshot_of).collect();
        let mut router = Router::new(policy_of(policy_index));
        // move the round-robin / sticky cursors to an arbitrary position
        for step in 0..advance {
            router.commit(Some(step % snapshots.len()), snapshots.len());
        }
        let order = router.order(&snapshots);
        let alive: Vec<usize> = (0..snapshots.len())
            .filter(|&i| snapshots[i].alive)
            .collect();
        prop_assert_eq!(order.len(), alive.len());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(
            &sorted, &alive,
            "order must rank every alive device exactly once and no dead one"
        );
        // a request is unroutable only when every device is dead
        if !alive.is_empty() {
            prop_assert!(!order.is_empty());
        }
    }

    /// Ranking has no side effects: the same router state and snapshots
    /// produce the same order, for every policy.
    #[test]
    fn ranking_is_deterministic_for_a_fixed_state(
        raw in proptest::collection::vec(
            (0usize..2, 0.0f64..1.0, 0usize..64, 0.0f64..500.0),
            1..10,
        ),
        policy_index in 0usize..4,
    ) {
        let snapshots: Vec<DeviceSnapshot> = raw.into_iter().map(snapshot_of).collect();
        let router = Router::new(policy_of(policy_index));
        let first = router.order(&snapshots);
        let second = router.order(&snapshots);
        prop_assert_eq!(first, second, "order must be a pure function of state");
    }

    /// The scored orders (battery-aware and predictive) descend in score
    /// (ties broken by index), so the published formula really is the
    /// routing behaviour.
    #[test]
    fn battery_aware_order_descends_in_score(
        raw in proptest::collection::vec(
            (0usize..2, 0.0f64..1.0, 0usize..64, 0.0f64..500.0),
            1..10,
        ),
        scored_policy in 0usize..2,
    ) {
        let snapshots: Vec<DeviceSnapshot> = raw.into_iter().map(snapshot_of).collect();
        let router = Router::new(policy_of(scored_policy));
        let order = router.order(&snapshots);
        for pair in order.windows(2) {
            let (a, b) = (
                router.score(&snapshots[pair[0]]),
                router.score(&snapshots[pair[1]]),
            );
            prop_assert!(
                a > b || (a == b && pair[0] < pair[1]),
                "device {} (score {}) ranked above device {} (score {})",
                pair[0], a, pair[1], b
            );
        }
    }
}
