//! The Model Selection and Partition Decision module: greedy RL policy
//! inference behind the strategy cache.

use crate::cache::{CachedStrategy, StrategyCache};
use crate::monitor::LinkEstimate;
use murmuration_partition::evolutionary::Genome;
use murmuration_rl::env::FallbackLadder;
use murmuration_rl::{Condition, LstmPolicy, Scenario};
use parking_lot::Mutex;

/// Speculative roll-outs in a row that go unread before
/// [`DecisionModule::precompute`] skips any.
pub const UNREAD_BEFORE_BACKOFF: u32 = 16;

/// The longest run of would-be roll-outs [`DecisionModule::precompute`]
/// skips between two probes.
pub const MAX_SPECULATION_SKIP: u32 = 64;

/// A concrete deployment decision.
#[derive(Clone, Debug)]
pub struct Decision {
    pub actions: Vec<usize>,
    pub genome: Genome,
    /// Whether it came from the cache.
    pub cached: bool,
}

/// Decision module bound to a trained policy.
pub struct DecisionModule {
    scenario: Scenario,
    policy: LstmPolicy,
    cache: StrategyCache,
    /// The scenario's fallback rungs, lowered once: a miss re-prices them.
    ladder: FallbackLadder,
    throttle: Mutex<Throttle>,
}

/// When [`DecisionModule::precompute`] may spend a roll-out.
#[derive(Default)]
struct Throttle {
    /// The cache's speculative-read count at the last call.
    reads: u64,
    /// Speculative roll-outs since the last speculative read.
    unread: u32,
    /// Would-be roll-outs to skip: 2, 4, … up to [`MAX_SPECULATION_SKIP`].
    budget: u32,
    /// Skips left of the current run; `None` right after a roll-out.
    left: Option<u32>,
    skipped: u64,
}

impl Throttle {
    /// Whether a needed roll-out runs, given the cache's speculative reads
    /// so far; books a skip when it does not.
    fn admit(&mut self, reads: u64) -> bool {
        if reads != self.reads {
            *self = Throttle { reads, skipped: self.skipped, ..Throttle::default() };
        }
        let run = self.unread < UNREAD_BEFORE_BACKOFF
            || match self.left {
                None => {
                    self.budget = (2 * self.budget).clamp(2, MAX_SPECULATION_SKIP);
                    self.left = Some(self.budget - 1);
                    false
                }
                Some(0) => true,
                Some(n) => {
                    self.left = Some(n - 1);
                    false
                }
            };
        if run {
            self.unread = self.unread.saturating_add(1);
            self.left = None;
        } else {
            self.skipped += 1;
        }
        run
    }
}

impl DecisionModule {
    /// Wraps a trained policy with a strategy cache.
    pub fn new(scenario: Scenario, policy: LstmPolicy, cache_capacity: usize) -> Self {
        let cache = StrategyCache::new(scenario.grid_points, cache_capacity);
        let ladder = FallbackLadder::new(&scenario);
        DecisionModule { scenario, policy, cache, ladder, throttle: Mutex::default() }
    }

    /// The scenario this module decides for.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Builds a condition from the SLO scalar and link estimates.
    pub fn condition(&self, slo: f64, links: &[LinkEstimate]) -> Condition {
        assert_eq!(links.len(), self.scenario.n_remote(), "one estimate per remote link");
        Condition {
            slo,
            bw_mbps: links.iter().map(|l| l.bandwidth_mbps).collect(),
            delay_ms: links.iter().map(|l| l.delay_ms).collect(),
        }
    }

    /// Decides a strategy for a condition, consulting the cache first.
    /// On a miss, the greedy policy decision is validated against the
    /// latency model and canonical fallbacks (the estimator guard) before
    /// being cached and deployed.
    pub fn decide(&self, cond: &Condition) -> Decision {
        let alive = vec![true; self.scenario.devices.len()];
        self.decide_masked(cond, &alive)
    }

    /// [`decide`](Self::decide) restricted to live devices. A cache hit
    /// that places work on a dead device is treated as stale: the entry is
    /// purged and the policy re-decides under the mask. Decisions made
    /// while degraded are *not* cached — the bucket key does not encode
    /// fleet health, and a degraded plan must not be served after the
    /// device recovers.
    pub fn decide_masked(&self, cond: &Condition, alive: &[bool]) -> Decision {
        self.decide_masked_cached(cond, alive, true)
    }

    /// [`decide_masked`](Self::decide_masked) with an explicit cache-write
    /// gate: `allow_cache = false` decides without polluting the cache
    /// (used while soft penalties distort the condition — the penalized
    /// condition is transient fleet state, not a network observation).
    /// Reads still consult the cache; a feasible hit is a hit.
    pub fn decide_masked_cached(
        &self,
        cond: &Condition,
        alive: &[bool],
        allow_cache: bool,
    ) -> Decision {
        let healthy = alive.iter().all(|&a| a);
        if let Some(hit) = self.cache.get(&self.scenario, cond) {
            if healthy || murmuration_rl::env::actions_feasible(&self.scenario, &hit.actions, alive)
            {
                let genome = self.scenario.decode(&hit.actions);
                return Decision { actions: hit.actions, genome, cached: true };
            }
            self.cache.remove(&self.scenario, cond);
        }
        let result = self.ladder.decide(&self.policy, &self.scenario, cond, alive);
        if healthy && allow_cache {
            self.cache.put(
                &self.scenario,
                cond,
                CachedStrategy { actions: result.actions.clone() },
            );
        }
        let genome = self.scenario.decode(&result.actions);
        Decision { actions: result.actions, genome, cached: false }
    }

    /// Purges every cached strategy that places work on a dead device.
    /// Returns the number of evicted entries.
    pub fn purge_infeasible(&self, alive: &[bool]) -> usize {
        let sc = &self.scenario;
        self.cache.retain(|s| murmuration_rl::env::actions_feasible(sc, &s.actions, alive))
    }

    /// Precomputes (and caches) a strategy for a *predicted* condition so
    /// the next request under those conditions is a cache hit. Not a
    /// request: the probe books neither a hit nor a miss.
    ///
    /// It speculates only while speculation is read. A bucket already
    /// cached costs nothing. Otherwise the roll-out runs, and its entry is
    /// put speculative, unless the last [`UNREAD_BEFORE_BACKOFF`]
    /// speculative roll-outs all went unread: no request's hit has read a
    /// speculative entry since. Then would-be roll-outs are skipped in
    /// doubling runs (2, 4, … up to [`MAX_SPECULATION_SKIP`]), with one
    /// roll-out between runs as a probe, and a speculative read ends the
    /// back-off at once. The window is many roll-outs, not one, because a
    /// forecast's entry can be read only once the forecast's time has come,
    /// and the ticks before it may speculate on other cells. Skipping is
    /// not free of consequence: a request that would have read a skipped
    /// entry misses and decides from its own condition, and a skipped put
    /// shifts FIFO eviction. Both need speculation that is read, which is
    /// what the back-off waits to see gone.
    pub fn precompute(&self, cond: &Condition) {
        if self.cache.contains(&self.scenario, cond)
            || !self.throttle.lock().admit(self.cache.stats().speculative_reads)
        {
            return;
        }
        let alive = vec![true; self.scenario.devices.len()];
        let result = self.ladder.decide(&self.policy, &self.scenario, cond, &alive);
        self.cache.put_speculative(
            &self.scenario,
            cond,
            CachedStrategy { actions: result.actions },
        );
    }

    /// Cache statistics (for the runtime-efficiency experiments), with the
    /// precompute's skipped roll-outs.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        let speculation_skipped = self.throttle.lock().skipped;
        crate::cache::CacheStats { speculation_skipped, ..self.cache.stats() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use murmuration_rl::SloKind;

    fn module() -> DecisionModule {
        let sc = Scenario::augmented_computing(SloKind::Latency);
        let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0);
        DecisionModule::new(sc, policy, 64)
    }

    #[test]
    fn decide_is_deterministic_and_cached() {
        let m = module();
        let cond = Condition { slo: 140.0, bw_mbps: vec![100.0], delay_ms: vec![20.0] };
        let d1 = m.decide(&cond);
        assert!(!d1.cached);
        let d2 = m.decide(&cond);
        assert!(d2.cached);
        assert_eq!(d1.actions, d2.actions);
    }

    #[test]
    fn precompute_warms_cache() {
        let m = module();
        let cond = Condition { slo: 200.0, bw_mbps: vec![300.0], delay_ms: vec![10.0] };
        m.precompute(&cond);
        let d = m.decide(&cond);
        assert!(d.cached, "decision after precompute must be a hit");
    }

    /// The `i`th of 1 000 distinct grid cells.
    fn cell(m: &DecisionModule, i: usize) -> Condition {
        assert!(i < 1000);
        m.scenario().condition_from_indices(i % 10, &[i / 10 % 10], &[i / 100])
    }

    /// Whether one precompute ran a roll-out.
    fn ran(m: &DecisionModule, cond: &Condition) -> bool {
        let before = m.cache_stats().speculated;
        m.precompute(cond);
        m.cache_stats().speculated > before
    }

    /// The 1-based positions at which `needs` would-be roll-outs in a row,
    /// none of them read, run: the first [`UNREAD_BEFORE_BACKOFF`], then one
    /// after each skipped run of 2, 4, … up to [`MAX_SPECULATION_SKIP`].
    fn unread_runs(needs: usize) -> Vec<usize> {
        let mut runs: Vec<usize> = (1..=UNREAD_BEFORE_BACKOFF as usize).collect();
        let mut budget = 1;
        loop {
            budget = (2 * budget).min(MAX_SPECULATION_SKIP as usize);
            let next = runs[runs.len() - 1] + budget + 1;
            if next > needs {
                return runs;
            }
            runs.push(next);
        }
    }

    #[test]
    fn read_speculation_keeps_full_rate() {
        let m = module();
        for i in 0..40 {
            let c = cell(&m, i);
            assert!(ran(&m, &c), "roll-out {i} skipped although every one was read");
            assert!(m.decide(&c).cached);
        }
        let s = m.cache_stats();
        assert_eq!((s.speculated, s.speculative_reads, s.speculation_skipped), (40, 40, 0));
    }

    #[test]
    fn unread_speculation_spends_the_stated_roll_outs() {
        let m = module();
        let runs: Vec<usize> = (0..300).filter(|&i| ran(&m, &cell(&m, i))).map(|i| i + 1).collect();
        assert_eq!(runs, unread_runs(300));
        // 16 at full rate, then after runs of 2, 4, 8, 16, 32 and 64 (the
        // cap), 64 and 64 skips.
        assert_eq!(runs.len(), 24);
        assert_eq!(runs[runs.len() - 3..], [148, 213, 278]);
        let s = m.cache_stats();
        assert_eq!((s.speculated, s.speculative_reads, s.speculation_skipped), (24, 0, 276));
        // A cached bucket is free: it neither runs nor spends a skip.
        m.precompute(&cell(&m, 277));
        assert_eq!(m.cache_stats(), s);
    }

    #[test]
    fn a_read_resets_the_budget() {
        let m = module();
        // Deep into the back-off: the 50th would-be roll-out was a probe,
        // and the next 32 are to be skipped.
        for i in 0..50 {
            m.precompute(&cell(&m, i));
        }
        assert!(!ran(&m, &cell(&m, 50)));
        // A request reads the probe's entry.
        assert!(m.decide(&cell(&m, 49)).cached);
        assert_eq!(m.cache_stats().speculative_reads, 1);
        // Full rate again for a whole window, then the back-off restarts
        // from a run of 2.
        let runs: Vec<usize> =
            (0..40).filter(|&i| ran(&m, &cell(&m, 100 + i))).map(|i| i + 1).collect();
        assert_eq!(runs, unread_runs(40));
    }

    #[test]
    fn purge_and_clear_leave_the_throttle_consistent() {
        let m = module();
        let n = m.scenario().devices.len();
        for i in 0..20 {
            m.precompute(&cell(&m, i));
        }
        let before = m.cache_stats();
        // Dropping unread speculative entries books no read and leaves the
        // back-off where it was.
        let mut local_only = vec![false; n];
        local_only[0] = true;
        m.purge_infeasible(&local_only);
        m.cache.clear();
        assert_eq!(m.cache_stats(), before);
        // A dropped bucket is needed again: it is a would-be roll-out like
        // any other, so the back-off goes on (the 21st was due a skip).
        assert!(!ran(&m, &cell(&m, 0)));
        assert_eq!(m.cache_stats().speculation_skipped, before.speculation_skipped + 1);
        // The next probe's entry, read, restores full rate.
        while !ran(&m, &cell(&m, 1)) {}
        assert!(m.decide(&cell(&m, 1)).cached);
        assert!((2..2 + UNREAD_BEFORE_BACKOFF as usize).all(|i| ran(&m, &cell(&m, i))));
        let s = m.cache_stats();
        assert_eq!(s.speculative_reads, 1);
        assert!(s.speculative_reads <= s.speculated);
    }

    #[test]
    fn ticks_and_hits_on_two_threads_do_not_deadlock() {
        use std::sync::{mpsc, Arc};
        use std::time::Duration;
        let m = Arc::new(module());
        let (done, finished) = mpsc::channel();
        let ticker = {
            let (m, done) = (m.clone(), done.clone());
            std::thread::spawn(move || {
                for i in 0..400 {
                    m.precompute(&cell(&m, i % 120));
                }
                done.send(()).unwrap();
            })
        };
        let requester = {
            let m = m.clone();
            std::thread::spawn(move || {
                for i in 0..400 {
                    m.decide(&cell(&m, (i * 7) % 120));
                }
                done.send(()).unwrap();
            })
        };
        for _ in 0..2 {
            finished
                .recv_timeout(Duration::from_secs(120))
                .expect("precompute and decide deadlocked (watchdog)");
        }
        ticker.join().unwrap();
        requester.join().unwrap();
        let s = m.cache_stats();
        assert_eq!(s.hits + s.misses, 400);
        assert!(s.speculative_reads <= s.speculated);
    }

    #[test]
    fn masked_decisions_are_feasible_and_never_cached() {
        let m = module();
        let n = m.scenario().devices.len();
        let cond = Condition { slo: 140.0, bw_mbps: vec![100.0], delay_ms: vec![20.0] };
        let mut alive = vec![false; n];
        alive[0] = true; // every remote is dead
        let d = m.decide_masked(&cond, &alive);
        assert!(!d.cached);
        let spec = murmuration_supernet::SubnetSpec::lower(&d.genome.config);
        let plan = d.genome.plan(&spec, n);
        assert!(plan.is_feasible(&alive), "masked decision must avoid dead devices");
        // The degraded decision must not be cached under the healthy key:
        // the next healthy decide is a miss, not a poisoned hit.
        let d2 = m.decide(&cond);
        assert!(!d2.cached, "degraded decision leaked into the cache");
        let d3 = m.decide(&cond);
        assert!(d3.cached, "healthy decision caches normally");
    }

    #[test]
    fn purge_infeasible_only_drops_remote_plans() {
        let m = module();
        let n = m.scenario().devices.len();
        let cond = Condition { slo: 100.0, bw_mbps: vec![60.0], delay_ms: vec![80.0] };
        let d = m.decide(&cond);
        let used = m.scenario().used_links(&d.actions);
        let uses_remote = used.iter().any(|&u| u);
        let mut alive = vec![false; n];
        alive[0] = true;
        let evicted = m.purge_infeasible(&alive);
        assert_eq!(evicted, usize::from(uses_remote));
        let all_up = vec![true; n];
        assert_eq!(m.purge_infeasible(&all_up), 0, "healthy fleet purges nothing");
    }

    #[test]
    fn decisions_yield_valid_plans() {
        let m = module();
        let cond = Condition { slo: 100.0, bw_mbps: vec![60.0], delay_ms: vec![80.0] };
        let d = m.decide(&cond);
        let spec = murmuration_supernet::SubnetSpec::lower(&d.genome.config);
        let plan = d.genome.plan(&spec, m.scenario().devices.len());
        plan.validate(&spec, m.scenario().devices.len()).unwrap();
    }
}
