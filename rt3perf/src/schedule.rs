//! Workload inputs, generated from the seed before any timing starts.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Open-loop arrival schedule: due times in milliseconds from the start of
/// the run, Poisson arrivals at `rate_per_s` for `seconds`.
pub fn poisson_arrivals(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mean_gap_ms = 1_000.0 / rate_per_s;
    let horizon_ms = seconds * 1_000.0;
    let mut due = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        // inverse-CDF draw; 1 - u lies in (0, 1], so the log is finite
        let u: f64 = rng.gen();
        t += -mean_gap_ms * (1.0 - u).ln();
        if t >= horizon_ms {
            return due;
        }
        due.push(t);
    }
}

/// A closed walk over `levels` levels that takes every ordered pair
/// `(from, to)` with `from != to` exactly once (an Eulerian circuit of the
/// complete directed graph), starting and ending at level 0. The seed
/// shuffles which circuit is taken. Returns the visited levels, first
/// included, so consecutive entries are the switches.
pub fn switch_cycle(levels: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    // unused out-edges per level, in a seeded order
    let mut out: Vec<Vec<usize>> = (0..levels)
        .map(|from| {
            let mut targets: Vec<usize> = (0..levels).filter(|&to| to != from).collect();
            targets.shuffle(&mut rng);
            targets
        })
        .collect();
    // Hierholzer's algorithm
    let mut stack = vec![0usize];
    let mut walk = Vec::with_capacity(levels * levels);
    while let Some(&top) = stack.last() {
        match out[top].pop() {
            Some(next) => stack.push(next),
            None => walk.push(stack.pop().expect("stack is non-empty")),
        }
    }
    walk.reverse();
    walk
}

/// Micro-batch widths of the inferences that follow each switch, drawn in
/// proportion to `width_counts` (index 0 = width 1): how many micro-batches
/// of each width the serving engine dispatched in a measured replay.
pub fn follow_up_widths(
    seed: u64,
    switches: usize,
    per_switch: usize,
    width_counts: &[u64],
) -> Vec<Vec<usize>> {
    let total: u64 = width_counts.iter().sum();
    assert!(total > 0, "no width to draw from");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0057_17c4);
    let mut draw = move || {
        let mut left = rng.gen_range(0..total);
        for (slot, &count) in width_counts.iter().enumerate() {
            if left < count {
                return slot + 1;
            }
            left -= count;
        }
        unreachable!("left < total")
    };
    (0..switches)
        .map(|_| (0..per_switch).map(|_| draw()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_deterministic_for_a_seed() {
        let a = poisson_arrivals(7, 2_000.0, 2.0);
        let b = poisson_arrivals(7, 2_000.0, 2.0);
        let c = poisson_arrivals(8, 2_000.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(a.iter().all(|&t| (0.0..2_000.0).contains(&t)));
        // 4000 expected arrivals; Poisson sd is ~63
        assert!((3_700..4_300).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn switch_cycle_takes_every_ordered_pair_once() {
        for levels in [2, 3, 4, 7] {
            for seed in 0..5 {
                let walk = switch_cycle(levels, seed);
                assert_eq!(walk.first(), Some(&0));
                assert_eq!(walk.last(), Some(&0));
                let mut pairs: Vec<(usize, usize)> =
                    walk.windows(2).map(|w| (w[0], w[1])).collect();
                assert_eq!(pairs.len(), levels * (levels - 1));
                pairs.sort_unstable();
                pairs.dedup();
                assert_eq!(pairs.len(), levels * (levels - 1), "no pair twice");
                assert!(pairs.iter().all(|(a, b)| a != b));
            }
        }
        assert_eq!(switch_cycle(3, 1), switch_cycle(3, 1));
    }

    #[test]
    fn follow_up_widths_follow_the_measured_counts() {
        let counts = [6, 0, 3, 1];
        let widths = follow_up_widths(3, 2_000, 3, &counts);
        assert_eq!(widths.len(), 2_000);
        assert!(widths.iter().all(|w| w.len() == 3));
        assert_eq!(widths, follow_up_widths(3, 2_000, 3, &counts));
        let drawn = |width| widths.iter().flatten().filter(|&&w| w == width).count();
        assert_eq!(drawn(2), 0, "a width never batched is never drawn");
        // 6000 draws at shares 0.6 / 0.3 / 0.1
        assert!((3_400..3_800).contains(&drawn(1)), "{}", drawn(1));
        assert!((1_600..2_000).contains(&drawn(3)), "{}", drawn(3));
        assert!((450..750).contains(&drawn(4)), "{}", drawn(4));
    }
}
