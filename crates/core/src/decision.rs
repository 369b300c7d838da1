//! The Model Selection and Partition Decision module: greedy RL policy
//! inference behind the strategy cache.

use crate::cache::{CachedStrategy, StrategyCache};
use crate::monitor::LinkEstimate;
use murmuration_partition::evolutionary::Genome;
use murmuration_rl::env::FallbackLadder;
use murmuration_rl::{Condition, LstmPolicy, Scenario};

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
}

impl DecisionModule {
    /// Wraps a trained policy with a strategy cache.
    pub fn new(scenario: Scenario, policy: LstmPolicy, cache_capacity: usize) -> Self {
        let cache = StrategyCache::new(scenario.grid_points, cache_capacity);
        let ladder = FallbackLadder::new(&scenario);
        DecisionModule { scenario, policy, cache, ladder }
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
    pub fn precompute(&self, cond: &Condition) {
        if !self.cache.contains(&self.scenario, cond) {
            let alive = vec![true; self.scenario.devices.len()];
            let result = self.ladder.decide(&self.policy, &self.scenario, cond, &alive);
            self.cache.put(&self.scenario, cond, CachedStrategy { actions: result.actions });
        }
    }

    /// Cache statistics (for the runtime-efficiency experiments).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
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
