//! Decision-time benchmarks backing Fig. 18: the RL policy's greedy
//! rollout (a Murmuration decision), a strategy-cache hit, and an
//! evolutionary-search step, all on the same host.

use criterion::{criterion_group, criterion_main, Criterion};
use murmuration_core::cache::{CachedStrategy, StrategyCache};
use murmuration_partition::evolutionary;
use murmuration_partition::LatencyEstimator;
use murmuration_rl::env::greedy_rollout;
use murmuration_rl::{Condition, LstmPolicy, Scenario, SloKind};
use murmuration_supernet::{AccuracyModel, SubnetSpec};

fn bench_decisions(c: &mut Criterion) {
    let scenario = Scenario::augmented_computing(SloKind::Latency);
    // Hidden 64 as in the training default (paper uses 256 on a desktop).
    let policy = LstmPolicy::new(scenario.input_dim(), 64, scenario.arities(), 0);
    let cond = Condition { slo: 140.0, bw_mbps: vec![200.0], delay_ms: vec![20.0] };

    let mut g = c.benchmark_group("decision");
    g.bench_function("rl_greedy_rollout", |b| b.iter(|| greedy_rollout(&policy, &scenario, &cond)));

    let cache = StrategyCache::new(10, 64);
    let actions = greedy_rollout(&policy, &scenario, &cond);
    cache.put(&scenario, &cond, CachedStrategy { actions });
    g.bench_function("strategy_cache_hit", |b| b.iter(|| cache.get(&scenario, &cond)));

    // One evolutionary generation at pop 24 (Fig. 18's baseline runs
    // hundreds of these).
    let devices = scenario.devices.clone();
    let net = scenario.network(&cond);
    let est = LatencyEstimator::new(&devices, &net);
    let acc = AccuracyModel::new();
    g.sample_size(10);
    g.bench_function("evolutionary_24pop_5gen", |b| {
        b.iter(|| {
            evolutionary::search(&scenario.space, 2, 24, 5, 1, |cfg, plan| {
                let spec = SubnetSpec::lower(cfg);
                let lat = est.estimate(&spec, plan).total_ms;
                if lat <= cond.slo {
                    f64::from(acc.predict(cfg))
                } else {
                    -lat
                }
            })
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_decisions
}
criterion_main!(benches);
