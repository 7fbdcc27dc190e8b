//! Bounded, deterministic prediction cache shared across
//! [`crate::model::AnyModel::predict_probs_cached_with`] calls — the
//! per-call memo of [`crate::model::AnyModel::predict_probs_with`]
//! promoted to a resident structure a long-lived service can reuse.
//!
//! The cache is an LRU keyed by the owned form of [`crate::model::memo_key`]:
//! `(attribute id, length_norm bits, character sequence)` — every input the
//! models read for a cell. Because evaluation-mode inference is
//! row-independent (the head's BatchNorm uses running statistics) and the
//! batched sequence path gives every sample the bits the allocating
//! per-sample oracle gives it, whatever batch it runs in, a cached
//! probability is bit-for-bit the value a fresh forward pass would
//! produce, so serving from the cache never changes an output.
//!
//! Determinism of the *cache itself*: recency is tracked in a
//! [`BTreeMap`](std::collections::BTreeMap) keyed by a monotone access tick, so eviction order is a
//! pure function of the operation sequence — no hash-iteration order
//! leaks into behavior (lookups still go through a [`HashMap`](std::collections::HashMap), which is
//! fine: only iteration order is nondeterministic, never `get`).

use std::collections::{BTreeMap, HashMap};

/// Owned cache key: `(attribute id, length_norm bits, sequence)`. See
/// [`crate::model::owned_memo_key`].
pub type PredictKey = (usize, u32, Vec<usize>);

/// Counters describing cache behavior since construction, plus the
/// current occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to honor the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Configured capacity (0 = caching disabled).
    pub capacity: usize,
}

/// Bounded LRU over per-cell error probabilities.
///
/// Capacity 0 disables the cache: every probe misses and inserts are
/// dropped, which callers can detect cheaply via [`PredictCache::enabled`]
/// to skip key construction entirely.
#[derive(Debug)]
pub struct PredictCache {
    capacity: usize,
    /// Monotone access counter; each get-hit or insert advances it.
    tick: u64,
    /// Key → (probability, tick of last access).
    map: HashMap<PredictKey, (f32, u64)>,
    /// Tick of last access → key; the first entry is always the
    /// least-recently-used resident and therefore the eviction victim.
    recency: BTreeMap<u64, PredictKey>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PredictCache {
    /// A cache bounded to at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// A capacity-0 cache: probes always miss, inserts are no-ops. The
    /// uncached `predict_probs_with` path uses this to share one code
    /// path with the cached one at zero cost.
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Whether the cache can ever hold an entry. When `false`, callers
    /// may skip building owned keys altogether.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Look up a probability, refreshing the entry's recency on a hit.
    pub fn get(&mut self, key: &PredictKey) -> Option<f32> {
        if self.capacity == 0 {
            self.misses += 1;
            return None;
        }
        match self.map.get_mut(key) {
            Some((prob, tick)) => {
                let prob = *prob;
                let old = *tick;
                self.tick += 1;
                *tick = self.tick;
                if let Some(k) = self.recency.remove(&old) {
                    self.recency.insert(self.tick, k);
                }
                self.hits += 1;
                Some(prob)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) a probability, evicting the least-recently
    /// used entries if the capacity bound would be exceeded.
    pub fn insert(&mut self, key: PredictKey, prob: f32) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some((old_prob, old_tick)) = self.map.get_mut(&key) {
            let old = *old_tick;
            *old_prob = prob;
            *old_tick = tick;
            if let Some(k) = self.recency.remove(&old) {
                self.recency.insert(tick, k);
            }
            return;
        }
        self.recency.insert(tick, key.clone());
        self.map.insert(key, (prob, tick));
        while self.map.len() > self.capacity {
            // pop_first: strictly the smallest tick — the LRU entry.
            if let Some((_, victim)) = self.recency.pop_first() {
                self.map.remove(&victim);
                self.evictions += 1;
            } else {
                break;
            }
        }
    }

    /// Number of resident entries (always `<=` capacity).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hit/miss/eviction counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: usize) -> PredictKey {
        (n, 0, vec![n])
    }

    #[test]
    fn hit_miss_and_counters() {
        let mut c = PredictCache::new(4);
        assert_eq!(c.get(&key(1)), None);
        c.insert(key(1), 0.25);
        assert_eq!(c.get(&key(1)), Some(0.25));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (1, 1, 0, 1));
    }

    #[test]
    fn capacity_bound_holds_under_churn() {
        let mut c = PredictCache::new(3);
        for i in 0..100 {
            c.insert(key(i), i as f32);
            assert!(c.len() <= 3, "cache exceeded bound at insert {i}");
        }
        assert_eq!(c.stats().evictions, 97);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut c = PredictCache::new(2);
        c.insert(key(1), 0.1);
        c.insert(key(2), 0.2);
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(c.get(&key(1)), Some(0.1));
        c.insert(key(3), 0.3);
        assert_eq!(c.get(&key(2)), None, "LRU entry should have been evicted");
        assert_eq!(c.get(&key(1)), Some(0.1));
        assert_eq!(c.get(&key(3)), Some(0.3));
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut c = PredictCache::new(2);
        c.insert(key(1), 0.1);
        c.insert(key(2), 0.2);
        c.insert(key(1), 0.9); // refresh: 2 is now LRU
        c.insert(key(3), 0.3);
        assert_eq!(c.get(&key(1)), Some(0.9));
        assert_eq!(c.get(&key(2)), None);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let mut c = PredictCache::disabled();
        assert!(!c.enabled());
        c.insert(key(1), 0.5);
        assert_eq!(c.get(&key(1)), None);
        assert!(c.is_empty());
        assert_eq!(c.stats().capacity, 0);
    }
}
