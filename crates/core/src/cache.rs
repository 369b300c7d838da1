//! The Strategy Cache: memoizes (SLO, network-condition bucket) →
//! (subnet config + placement) so the RL policy runs only on cache misses.
//!
//! The cache sits on the serve hot path where many worker threads look up
//! strategies concurrently, so it is **sharded**: keys hash to one of
//! several independently locked shards, and hit/miss counters live in
//! lock-free atomics outside the shard locks. Small caches (capacity
//! below [`SHARD_THRESHOLD`]) collapse to a single shard so capacity and
//! FIFO-eviction semantics stay exact where tests and experiments rely on
//! them; large caches trade strict global FIFO for per-shard FIFO, which
//! preserves the bounded-capacity contract (`len() <= capacity`).

use murmuration_rl::{Condition, Scenario};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Capacity at or above which the cache splits into [`N_SHARDS`] shards.
pub const SHARD_THRESHOLD: usize = 64;

/// Shard count for large caches.
pub const N_SHARDS: usize = 8;

/// A cached strategy: the decision sequence the policy produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedStrategy {
    pub actions: Vec<usize>,
}

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 when empty.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The strategy cache, keyed by the scenario's condition grid bucket.
pub struct StrategyCache {
    shards: Vec<Mutex<Shard>>,
    /// Contention-free hit/miss counting: bumped outside any shard lock.
    hits: AtomicU64,
    misses: AtomicU64,
    grid_points: usize,
    shard_capacity: usize,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Vec<u16>, CachedStrategy>,
    order: VecDeque<Vec<u16>>, // FIFO eviction order within the shard
}

impl StrategyCache {
    /// Cache with bounded capacity (FIFO eviction per shard).
    pub fn new(grid_points: usize, capacity: usize) -> Self {
        assert!(capacity >= 1);
        let n_shards = if capacity >= SHARD_THRESHOLD { N_SHARDS } else { 1 };
        StrategyCache {
            shards: (0..n_shards).map(|_| Mutex::new(Shard::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            grid_points,
            shard_capacity: capacity.div_ceil(n_shards),
        }
    }

    /// Discretizes a condition to its cache key.
    pub fn key(&self, sc: &Scenario, cond: &Condition) -> Vec<u16> {
        let g = (self.grid_points - 1) as f64;
        let idx = |lo: f64, hi: f64, v: f64| -> u16 {
            (((v - lo) / (hi - lo) * g).round().clamp(0.0, g)) as u16
        };
        let log_idx = |lo: f64, hi: f64, v: f64| -> u16 {
            ((((v / lo).ln() / (hi / lo).ln()) * g).round().clamp(0.0, g)) as u16
        };
        let mut k = vec![idx(sc.slo_range.0, sc.slo_range.1, cond.slo)];
        for &b in &cond.bw_mbps {
            k.push(log_idx(sc.bw_range.0, sc.bw_range.1, b));
        }
        for &d in &cond.delay_ms {
            k.push(idx(sc.delay_range.0, sc.delay_range.1, d));
        }
        k
    }

    /// FNV-1a over the key bytes → shard index.
    fn shard_of(&self, key: &[u16]) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &v in key {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Looks up a strategy, recording hit/miss.
    pub fn get(&self, sc: &Scenario, cond: &Condition) -> Option<CachedStrategy> {
        let key = self.key(sc, cond);
        let found = self.shards[self.shard_of(&key)].lock().map.get(&key).cloned();
        match found {
            Some(s) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(s)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether a bucket is filled, without booking a hit or a miss: for
    /// probes that are not requests (the background precompute).
    pub fn contains(&self, sc: &Scenario, cond: &Condition) -> bool {
        let key = self.key(sc, cond);
        self.shards[self.shard_of(&key)].lock().map.contains_key(&key)
    }

    /// Inserts a strategy for a condition bucket.
    pub fn put(&self, sc: &Scenario, cond: &Condition, strategy: CachedStrategy) {
        let key = self.key(sc, cond);
        let mut shard = self.shards[self.shard_of(&key)].lock();
        if shard.map.insert(key.clone(), strategy).is_none() {
            shard.order.push_back(key);
            if shard.order.len() > self.shard_capacity {
                if let Some(evict) = shard.order.pop_front() {
                    shard.map.remove(&evict);
                }
            }
        }
    }

    /// Snapshot of hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (e.g. after a policy update).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = s.lock();
            shard.map.clear();
            shard.order.clear();
        }
    }

    /// Removes the entry for a condition bucket (e.g. when it turned out
    /// to reference a dead device). Returns the evicted strategy.
    pub fn remove(&self, sc: &Scenario, cond: &Condition) -> Option<CachedStrategy> {
        let key = self.key(sc, cond);
        let mut shard = self.shards[self.shard_of(&key)].lock();
        shard.order.retain(|k| k != &key);
        shard.map.remove(&key)
    }

    /// Keeps only strategies for which `keep` returns true — used to purge
    /// every cached plan that places work on a device that just died.
    /// Returns the number of evicted entries.
    pub fn retain<F: FnMut(&CachedStrategy) -> bool>(&self, mut keep: F) -> usize {
        let mut evicted = 0;
        for s in &self.shards {
            let mut shard = s.lock();
            let before = shard.map.len();
            let Shard { map, order } = &mut *shard;
            map.retain(|_, v| keep(v));
            order.retain(|k| map.contains_key(k));
            evicted += before - shard.map.len();
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use murmuration_rl::SloKind;

    fn sc() -> Scenario {
        Scenario::augmented_computing(SloKind::Latency)
    }

    fn cond(slo: f64, bw: f64, delay: f64) -> Condition {
        Condition { slo, bw_mbps: vec![bw], delay_ms: vec![delay] }
    }

    #[test]
    fn hit_after_put() {
        let sc = sc();
        let cache = StrategyCache::new(10, 16);
        let c = cond(140.0, 100.0, 20.0);
        assert!(cache.get(&sc, &c).is_none());
        cache.put(&sc, &c, CachedStrategy { actions: vec![1, 2, 3] });
        assert_eq!(cache.get(&sc, &c).unwrap().actions, vec![1, 2, 3]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn contains_does_not_count() {
        let sc = sc();
        let cache = StrategyCache::new(10, 16);
        let c = cond(140.0, 100.0, 20.0);
        assert!(!cache.contains(&sc, &c));
        cache.put(&sc, &c, CachedStrategy { actions: vec![1] });
        assert!(cache.contains(&sc, &c));
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn nearby_conditions_share_a_bucket() {
        let sc = sc();
        let cache = StrategyCache::new(10, 16);
        cache.put(&sc, &cond(140.0, 100.0, 20.0), CachedStrategy { actions: vec![7] });
        // Slightly different values in the same grid cell still hit.
        assert!(cache.get(&sc, &cond(142.0, 103.0, 20.5)).is_some());
        // A far-away condition misses.
        assert!(cache.get(&sc, &cond(380.0, 55.0, 95.0)).is_none());
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let sc = sc();
        let cache = StrategyCache::new(10, 2);
        let c1 = cond(80.0, 50.0, 5.0);
        let c2 = cond(400.0, 400.0, 100.0);
        let c3 = cond(220.0, 150.0, 50.0);
        cache.put(&sc, &c1, CachedStrategy { actions: vec![1] });
        cache.put(&sc, &c2, CachedStrategy { actions: vec![2] });
        cache.put(&sc, &c3, CachedStrategy { actions: vec![3] });
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&sc, &c1).is_none(), "oldest entry evicted");
        assert!(cache.get(&sc, &c2).is_some());
        assert!(cache.get(&sc, &c3).is_some());
    }

    #[test]
    fn clear_empties_cache() {
        let sc = sc();
        let cache = StrategyCache::new(10, 4);
        cache.put(&sc, &cond(140.0, 100.0, 20.0), CachedStrategy { actions: vec![1] });
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn remove_and_retain_evict_targeted_entries() {
        let sc = sc();
        let cache = StrategyCache::new(10, 8);
        let c1 = cond(80.0, 50.0, 5.0);
        let c2 = cond(400.0, 400.0, 100.0);
        cache.put(&sc, &c1, CachedStrategy { actions: vec![1] });
        cache.put(&sc, &c2, CachedStrategy { actions: vec![2] });
        assert_eq!(cache.remove(&sc, &c1).unwrap().actions, vec![1]);
        assert!(cache.get(&sc, &c1).is_none());
        assert!(cache.get(&sc, &c2).is_some());
        // retain drops by predicate and keeps the order list consistent.
        let evicted = cache.retain(|s| s.actions != vec![2]);
        assert_eq!(evicted, 1);
        assert!(cache.is_empty());
        // Re-inserting after retain must not trip FIFO bookkeeping.
        cache.put(&sc, &c2, CachedStrategy { actions: vec![3] });
        assert_eq!(cache.get(&sc, &c2).unwrap().actions, vec![3]);
    }

    #[test]
    fn sharded_cache_bounds_capacity_and_counts_concurrent_hits() {
        use std::sync::Arc;
        let sc = Arc::new(sc());
        // Capacity 64 → 8 shards of 8.
        let cache = Arc::new(StrategyCache::new(16, 64));
        assert_eq!(cache.shards.len(), N_SHARDS);
        // Fill with many distinct buckets; len must never exceed capacity.
        for i in 0..200u16 {
            let c =
                cond(60.0 + f64::from(i) * 1.5, 20.0 + f64::from(i) * 2.0, 1.0 + f64::from(i % 90));
            cache.put(&sc, &c, CachedStrategy { actions: vec![usize::from(i)] });
        }
        assert!(cache.len() <= 64, "len {} exceeds capacity", cache.len());
        assert!(!cache.is_empty());
        // Concurrent readers: every thread's lookups are tallied exactly.
        let warm = cond(140.0, 100.0, 20.0);
        cache.put(&sc, &warm, CachedStrategy { actions: vec![9] });
        let before = cache.stats();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let cache = cache.clone();
                let sc = sc.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        assert_eq!(
                            cache.get(&sc, &cond(140.0, 100.0, 20.0)).unwrap().actions,
                            vec![9]
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let after = cache.stats();
        assert_eq!(after.hits - before.hits, 400);
        assert_eq!(after.misses, before.misses);
    }
}
