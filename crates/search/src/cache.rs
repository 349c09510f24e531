//! Memoized assignment evaluations, so optimizers that re-propose an
//! assignment (the RL controller does this routinely once its policy
//! sharpens) get the cached result for free and every optimizer pays for
//! the same number of *distinct* evaluations at equal budget.

use std::collections::HashMap;

/// Assignment → evaluation cache with hit/miss accounting.
#[derive(Debug, Clone, Default)]
pub struct EvaluationCache<T> {
    map: HashMap<Vec<usize>, T>,
    hits: usize,
    misses: usize,
}

impl<T> EvaluationCache<T> {
    /// Empty cache.
    pub fn new() -> Self {
        Self {
            map: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Returns the cached evaluation of `actions`, running `evaluate` on a
    /// miss. The boolean is `true` on a hit.
    pub fn get_or_insert_with(
        &mut self,
        actions: &[usize],
        evaluate: impl FnOnce() -> T,
    ) -> (&T, bool) {
        if self.map.contains_key(actions) {
            self.hits += 1;
            (&self.map[actions], true)
        } else {
            self.misses += 1;
            let value = evaluate();
            (self.map.entry(actions.to_vec()).or_insert(value), false)
        }
    }

    /// The cached evaluation of `actions`, if present (does not touch the
    /// hit/miss counters).
    pub fn peek(&self, actions: &[usize]) -> Option<&T> {
        self.map.get(actions)
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of lookups that ran the evaluation (== distinct assignments
    /// evaluated).
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Number of distinct assignments stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoizes_and_counts() {
        let mut cache = EvaluationCache::new();
        let mut evaluations = 0;
        for _ in 0..3 {
            let (v, _) = cache.get_or_insert_with(&[1, 2], || {
                evaluations += 1;
                42
            });
            assert_eq!(*v, 42);
        }
        let (_, hit) = cache.get_or_insert_with(&[2, 1], || {
            evaluations += 1;
            7
        });
        assert!(!hit);
        assert_eq!(evaluations, 2);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.peek(&[1, 2]), Some(&42));
        assert_eq!(cache.peek(&[9, 9]), None);
    }
}
