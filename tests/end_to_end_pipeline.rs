//! End-to-end integration: search space → lowering → planning → latency
//! estimation → RL training → runtime serving, all through the public API.

use murmuration::prelude::*;
use murmuration::rl::metrics::{evaluate_policy, validation_conditions};
use murmuration::rl::supreme::{self, SupremeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn supreme_training_improves_runtime_compliance() {
    let scenario = Scenario::augmented_computing(SloKind::Latency);
    let conds = validation_conditions(&scenario, 20);

    // Baseline: the *same-seed* policy before any training (what SUPREME
    // starts from).
    let untrained = LstmPolicy::new(scenario.input_dim(), 32, scenario.arities(), 0);
    let base = evaluate_policy(&untrained, &scenario, &conds);

    let (policy, history) = supreme::train(
        &scenario,
        &SupremeConfig { steps: 600, eval_every: 300, hidden: 32, seed: 0, ..Default::default() },
    );
    let trained = evaluate_policy(&policy, &scenario, &conds);

    assert!(
        trained.avg_reward > base.avg_reward,
        "training must improve reward: {} -> {}",
        base.avg_reward,
        trained.avg_reward
    );
    assert!(history.final_reward() > 0.0);
}

#[test]
fn runtime_serves_and_adapts_through_public_api() {
    let scenario = Scenario::augmented_computing(SloKind::Latency);
    let (policy, _) = supreme::train(
        &scenario,
        &SupremeConfig { steps: 150, eval_every: 150, hidden: 32, ..Default::default() },
    );
    let rt = SharedRuntime::new(scenario, policy, RuntimeConfig::default(), Slo::LatencyMs(200.0));
    let mut rng = StdRng::seed_from_u64(0);

    // Good network first.
    let good = NetworkState::uniform(1, LinkState { bandwidth_mbps: 400.0, delay_ms: 5.0 });
    let r1 = rt.infer(&good, 0.0, &mut rng);
    assert!(r1.latency_ms.is_finite());

    // Degraded network: the runtime must still produce a valid decision
    // (possibly a smaller/local submodel).
    let bad = NetworkState::uniform(1, LinkState { bandwidth_mbps: 50.0, delay_ms: 100.0 });
    let mut hit_after_convergence = false;
    // The EWMA monitor needs several samples to converge from the good
    // state; after that, stable conditions must hit the strategy cache.
    for t in 1..16 {
        let r = rt.infer(&bad, t as f64 * 100.0, &mut rng);
        assert!(r.latency_ms.is_finite() && r.latency_ms > 0.0);
        assert!((70.0..81.0).contains(&r.accuracy_pct));
        if t >= 10 {
            hit_after_convergence |= r.cached;
        }
    }
    assert!(hit_after_convergence, "stable conditions must be served from the strategy cache");
}

#[test]
fn every_sampled_config_flows_through_the_whole_stack() {
    let scenario = Scenario::device_swarm(5, SloKind::Latency);
    let mut rng = StdRng::seed_from_u64(3);
    let est_devices = scenario.devices.clone();
    for _ in 0..25 {
        let cond = scenario.sample_condition(&mut rng);
        let genome =
            murmuration::partition::evolutionary::Genome::random(&scenario.space, 5, &mut rng);
        let spec = SubnetSpec::lower(&genome.config);
        let plan = genome.plan(&spec, 5);
        plan.validate(&spec, 5).expect("genome plans are valid");
        let net = scenario.network(&cond);
        let est = LatencyEstimator::new(&est_devices, &net);
        let breakdown = est.estimate(&spec, &plan);
        assert!(breakdown.total_ms > 0.0 && breakdown.total_ms.is_finite());
        assert!(breakdown.compute_ms >= 0.0 && breakdown.comm_ms >= 0.0);
        // Components bound the total (redistribution overlaps are counted
        // once on the critical path).
        assert!(breakdown.total_ms <= breakdown.compute_ms + breakdown.comm_ms + 1e-6);
        let acc = AccuracyModel::new().predict(&genome.config);
        assert!((70.0..81.0).contains(&acc));
    }
}

#[test]
fn accuracy_slo_mode_works_end_to_end() {
    let scenario = Scenario::augmented_computing(SloKind::Accuracy);
    let (policy, _) = supreme::train(
        &scenario,
        &SupremeConfig { steps: 150, eval_every: 150, hidden: 32, ..Default::default() },
    );
    let rt = SharedRuntime::new(scenario, policy, RuntimeConfig::default(), Slo::AccuracyPct(74.0));
    let mut rng = StdRng::seed_from_u64(5);
    let net = NetworkState::uniform(1, LinkState { bandwidth_mbps: 300.0, delay_ms: 10.0 });
    let r = rt.infer(&net, 0.0, &mut rng);
    assert!(r.latency_ms.is_finite());
    // SLO judgment uses the accuracy axis in this mode.
    assert_eq!(r.slo_met, r.accuracy_pct >= 74.0);
}
