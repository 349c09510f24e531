//! The wall-time source behind kernel and model-build timings.
//!
//! Production code times real work with [`WallClock`]; tests swap in a
//! [`ManualClock`] that advances a fixed step per reading, so timing
//! assertions are deterministic on any host.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic source of milliseconds.
pub trait Clock: Send + Sync {
    /// Milliseconds since the clock's epoch.
    fn now_ms(&self) -> f64;
}

/// Real wall time, measured from construction.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl WallClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1_000.0
    }
}

/// Deterministic clock: every reading advances time by a fixed step, so the
/// k-th call returns `k * step_ms`. Thread-safe (the tick is atomic).
#[derive(Debug)]
pub struct ManualClock {
    ticks: AtomicU64,
    step_ms: f64,
}

impl ManualClock {
    /// A clock advancing `step_ms` per reading, starting at `step_ms`.
    pub fn new(step_ms: f64) -> Self {
        Self {
            ticks: AtomicU64::new(0),
            step_ms,
        }
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> f64 {
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        tick as f64 * self.step_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_a_fixed_step_per_reading() {
        let clock = ManualClock::new(2.5);
        assert_eq!(clock.now_ms(), 2.5);
        assert_eq!(clock.now_ms(), 5.0);
        // timing a span between two readings always yields exactly one step
        let start = clock.now_ms();
        let finish = clock.now_ms();
        assert_eq!(finish - start, 2.5);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let clock = WallClock::new();
        let a = clock.now_ms();
        let b = clock.now_ms();
        assert!(b >= a);
        assert!(a >= 0.0);
    }
}
