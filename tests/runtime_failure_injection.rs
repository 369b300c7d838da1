//! Failure-injection and robustness tests for the online runtime: noisy
//! monitors, abrupt network collapses, and hostile traces must never
//! produce invalid decisions or non-finite reports.

use murmuration::edgesim::trace::NetworkTrace;
use murmuration::edgesim::TrafficControl;
use murmuration::prelude::*;
use murmuration::rl::LstmPolicy;
use murmuration::runtime::RuntimeConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn runtime_with(noise: f64) -> SharedRuntime {
    let sc = Scenario::augmented_computing(SloKind::Latency);
    let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0);
    let cfg = RuntimeConfig { monitor_noise: noise, ..Default::default() };
    SharedRuntime::new(sc, policy, cfg, Slo::LatencyMs(140.0))
}

#[test]
fn extreme_monitor_noise_never_breaks_decisions() {
    // 40% observation noise: estimates are garbage but decisions must
    // stay valid and reports finite.
    let rt = runtime_with(0.4);
    let mut rng = StdRng::seed_from_u64(1);
    let net = NetworkState::uniform(1, LinkState { bandwidth_mbps: 120.0, delay_ms: 30.0 });
    for t in 0..30 {
        let r = rt.infer(&net, t as f64 * 50.0, &mut rng);
        assert!(r.latency_ms.is_finite() && r.latency_ms > 0.0);
        assert!((70.0..81.0).contains(&r.accuracy_pct));
    }
}

#[test]
fn network_collapse_to_grid_edge_is_handled() {
    // Bandwidth collapses far below the training grid's lower bound; the
    // monitor clamps and the decision pipeline must survive.
    let rt = runtime_with(0.05);
    let mut rng = StdRng::seed_from_u64(2);
    let good = NetworkState::uniform(1, LinkState { bandwidth_mbps: 300.0, delay_ms: 10.0 });
    let dead = NetworkState::uniform(1, LinkState { bandwidth_mbps: 0.5, delay_ms: 900.0 });
    let _ = rt.infer(&good, 0.0, &mut rng);
    for t in 1..6 {
        let r = rt.infer(&dead, t as f64 * 100.0, &mut rng);
        assert!(r.latency_ms.is_finite());
        // Under a dead link, any sane strategy keeps most work local; the
        // report's SLO judgement must reflect the true (terrible) network.
    }
}

#[test]
fn random_walk_trace_long_run_stability() {
    let rt = runtime_with(0.1);
    let mut rng = StdRng::seed_from_u64(3);
    let base = LinkState { bandwidth_mbps: 150.0, delay_ms: 20.0 };
    let trace = NetworkTrace::random_walk(base, 100.0, 200, 4.0, 9);
    let mut met = 0usize;
    for step in 0..100 {
        let t = step as f64 * 100.0;
        let net = NetworkState::uniform(1, trace.sample(t));
        rt.tick(&net, t, &mut rng);
        let r = rt.infer(&net, t + 10.0, &mut rng);
        assert!(r.latency_ms.is_finite());
        met += usize::from(r.slo_met);
    }
    // The untrained policy won't meet many SLOs, but the pipeline itself
    // must have kept functioning and caching.
    let stats = rt.cache_stats();
    assert!(stats.hits + stats.misses >= 100);
    assert!(met <= 100);
}

#[test]
fn background_traffic_burst_is_survived_and_adapted_to() {
    // A co-tenant bursts onto the GPU link mid-run: the monitor's EWMA
    // converges to the degraded state and decisions keep being valid; when
    // the burst ends, the runtime recovers.
    let rt = runtime_with(0.05);
    let mut rng = StdRng::seed_from_u64(9);
    let mut tc = TrafficControl::new(NetworkState::uniform(
        1,
        LinkState { bandwidth_mbps: 300.0, delay_ms: 10.0 },
    ));
    let mut t = 0.0;
    for _ in 0..5 {
        let r = rt.infer(tc.state(), t, &mut rng);
        assert!(r.latency_ms.is_finite());
        t += 100.0;
    }
    // Burst: 90% of the link consumed, +60 ms queueing.
    tc.inject_background(1, 0.9, 60.0);
    let mut during = Vec::new();
    for _ in 0..8 {
        let r = rt.infer(tc.state(), t, &mut rng);
        assert!(r.latency_ms.is_finite());
        during.push(r.latency_ms);
        t += 100.0;
    }
    // Burst ends.
    tc.set_bandwidth(1, 300.0);
    tc.set_delay(1, 10.0);
    let mut after = Vec::new();
    for _ in 0..8 {
        let r = rt.infer(tc.state(), t, &mut rng);
        after.push(r.latency_ms);
        t += 100.0;
    }
    // Recovery: post-burst latencies return below the in-burst worst case.
    let worst_during = during.iter().cloned().fold(0.0f64, f64::max);
    let best_after = after.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        best_after <= worst_during,
        "runtime must recover after the burst: {best_after} vs {worst_during}"
    );
}

#[test]
fn slo_flapping_does_not_poison_the_cache() {
    let rt = runtime_with(0.0);
    let mut rng = StdRng::seed_from_u64(4);
    let net = NetworkState::uniform(1, LinkState { bandwidth_mbps: 200.0, delay_ms: 10.0 });
    // Alternate between two SLOs; each must get its own cached strategy
    // and the reports must be judged against the SLO active at request
    // time.
    for i in 0..10 {
        let slo = if i % 2 == 0 { 100.0 } else { 300.0 };
        rt.slo.set_latency_ms(slo);
        let r = rt.infer(&net, i as f64 * 100.0, &mut rng);
        assert_eq!(r.slo_met, r.latency_ms <= slo, "iteration {i}");
    }
    // Both SLO buckets cached → later requests hit.
    rt.slo.set_latency_ms(100.0);
    let r = rt.infer(&net, 2000.0, &mut rng);
    assert!(r.cached);
    rt.slo.set_latency_ms(300.0);
    let r = rt.infer(&net, 2100.0, &mut rng);
    assert!(r.cached);
}
