//! Degraded-mode runtime test: a device dies mid-trace and the runtime
//! keeps serving — no panics, no plans touching the dead device (cached or
//! fresh), SLO compliance dips while the fleet is degraded and recovers
//! after failover.

use murmuration::edgesim::{DeviceStatus, DeviceTrace, FleetTrace};
use murmuration::prelude::*;
use murmuration::runtime::fleet::Input;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn device_loss_mid_trace_degrades_then_recovers() {
    let sc = Scenario::augmented_computing(SloKind::Latency);
    let n = sc.devices.len();
    let link = LinkState { bandwidth_mbps: 300.0, delay_ms: 5.0 };
    let net = NetworkState::uniform(sc.n_remote(), link);

    // Pick an SLO that *requires* offloading: above the best possible
    // remote deployment, below anything the local device can do alone.
    let min_spec = SubnetSpec::lower(&sc.space.min_config());
    let est = LatencyEstimator::new(&sc.devices, &net);
    let local_floor = est.estimate(&min_spec, &ExecutionPlan::all_on(&min_spec, 0)).total_ms;
    let offload_floor = (1..n)
        .map(|d| est.estimate(&min_spec, &ExecutionPlan::all_on(&min_spec, d)).total_ms)
        .fold(f64::INFINITY, f64::min);
    let slo = ((offload_floor + local_floor) / 2.0).clamp(sc.slo_range.0, sc.slo_range.1);
    assert!(
        offload_floor < slo && slo < local_floor,
        "test premise: SLO {slo:.1} must sit between offload floor {offload_floor:.1} \
         and local floor {local_floor:.1}"
    );

    let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0);
    let cfg = RuntimeConfig { monitor_noise: 0.0, ..Default::default() };
    let rt = SharedRuntime::new(sc, policy, cfg, Slo::LatencyMs(slo));

    // 20 requests at 100 ms spacing; every remote device is down for
    // requests 6..13 (virtual time 600..1300 ms).
    let mut fleet = FleetTrace::always_up(n);
    for d in 1..n {
        fleet.set(d, DeviceTrace::down_between(600.0, 1300.0));
    }

    let mut rng = StdRng::seed_from_u64(0);
    let mut met = Vec::new();
    for i in 0..20usize {
        let t = i as f64 * 100.0;
        rt.observe(t, (1..n).map(|dev| Input::Force { dev, status: fleet.status(dev, t) }));
        let r = rt.infer(&net, t, &mut rng);
        let fleet = rt.fleet();
        // The invariant the strategy cache must uphold: no served plan —
        // cached, precomputed, or fresh — may place work on a dead device.
        for &d in &r.devices_used {
            assert!(
                !fleet.devices[d].down,
                "request {i}: plan uses dead device {d} (cached={})",
                r.cached
            );
        }
        if (6..13).contains(&i) {
            assert!(r.degradation.is_degraded(), "request {i}: outage must be reported");
            assert_eq!(
                r.devices_used,
                vec![0],
                "request {i}: only the local device can serve during the outage"
            );
            assert!(!r.slo_met, "request {i}: this SLO is unachievable locally");
        } else {
            assert!(!r.degradation.is_degraded(), "request {i}: healthy fleet, no degradation");
        }
        met.push(r.slo_met);
    }

    // Compliance dips during the outage and recovers after failback.
    assert!(met[..6].iter().all(|&m| m), "healthy prefix must meet the SLO: {met:?}");
    assert!(!met[6..13].iter().any(|&m| m), "outage window cannot meet the SLO: {met:?}");
    assert!(met[13..].iter().all(|&m| m), "post-recovery requests must meet the SLO: {met:?}");
}

#[test]
fn cache_is_purged_when_a_device_dies() {
    let sc = Scenario::augmented_computing(SloKind::Latency);
    let n = sc.devices.len();
    let link = LinkState { bandwidth_mbps: 300.0, delay_ms: 5.0 };
    let net = NetworkState::uniform(sc.n_remote(), link);
    let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0);
    let cfg = RuntimeConfig { monitor_noise: 0.0, ..Default::default() };
    // Tight SLO forces the healthy decision to offload.
    let rt = SharedRuntime::new(sc, policy, cfg, Slo::LatencyMs(85.0));
    let mut rng = StdRng::seed_from_u64(1);

    let r0 = rt.infer(&net, 0.0, &mut rng);
    let r1 = rt.infer(&net, 100.0, &mut rng);
    assert!(r1.cached, "stable conditions must hit the cache");
    let used_remote = r0.devices_used.iter().any(|&d| d != 0);

    // Kill every remote: any cached strategy referencing one must go.
    rt.observe(150.0, (1..n).map(|dev| Input::Force { dev, status: DeviceStatus::Down }));
    let r2 = rt.infer(&net, 200.0, &mut rng);
    assert_eq!(r2.devices_used, vec![0]);
    if used_remote {
        assert!(!r2.cached, "a cached remote strategy must not be served after device loss");
    }

    // After recovery the cache serves remote strategies again (repopulated
    // by the first healthy decision).
    rt.observe(250.0, (1..n).map(|dev| Input::Force { dev, status: DeviceStatus::Up }));
    let r3 = rt.infer(&net, 300.0, &mut rng);
    let r4 = rt.infer(&net, 400.0, &mut rng);
    assert_eq!(r3.devices_used, r0.devices_used, "healthy decision is restored");
    assert!(r4.cached, "healthy cache refills after recovery");
}

/// Gray-failure variant of the purge invariant: a device quarantined by
/// latency outliers (never reported down) must purge the cached
/// strategies that used it, and walking the device back through canary
/// re-admission must not resurrect those stale entries — the first
/// post-recovery decision is computed fresh, then re-caches.
#[test]
fn quarantine_purges_cache_and_readmission_does_not_resurrect() {
    use murmuration::runtime::health::HealthState;

    let sc = Scenario::augmented_computing(SloKind::Latency);
    let link = LinkState { bandwidth_mbps: 300.0, delay_ms: 5.0 };
    let net = NetworkState::uniform(sc.n_remote(), link);
    let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0);
    let cfg = RuntimeConfig { monitor_noise: 0.0, ..Default::default() };
    // Tight SLO forces the healthy decision to offload.
    let rt = SharedRuntime::new(sc, policy, cfg, Slo::LatencyMs(85.0));
    let mut rng = StdRng::seed_from_u64(2);

    let r0 = rt.infer(&net, 0.0, &mut rng);
    let r1 = rt.infer(&net, 100.0, &mut rng);
    assert!(r1.cached, "stable conditions must hit the cache");
    let Some(&straggler) = r0.devices_used.iter().find(|&&d| d != 0) else {
        panic!("test premise: a tight SLO must offload (got {:?})", r0.devices_used)
    };

    // Arm the straggler's latency tracker with a fast baseline, then feed
    // slow-success outliers until the gray detector quarantines it. The
    // device never fails — it is a brownout, invisible to the crash
    // detector.
    let mut t = 200.0;
    for i in 0..16 {
        rt.observe(t, [Input::Latency { dev: straggler, ms: 10.0 + 0.1 * (i % 5) as f64 }]);
        t += 1.0;
    }
    for _ in 0..32 {
        if rt.fleet().devices[straggler].state == HealthState::Quarantined {
            break;
        }
        rt.observe(t, [Input::Latency { dev: straggler, ms: 200.0 }]);
        t += 1.0;
    }
    let dev = rt.fleet().devices[straggler];
    assert_eq!(
        dev.state,
        HealthState::Quarantined,
        "slow-success outliers must quarantine the brownout device"
    );
    assert!(!dev.placeable, "quarantined devices are not placeable");
    assert!(!dev.down, "gray failure: the device is alive, just slow");

    // The cached offload strategy referenced the quarantined device: it
    // must be gone, and the fresh decision must route around it.
    let r2 = rt.infer(&net, t, &mut rng);
    assert!(!r2.cached, "a strategy on a quarantined device must not be served from cache");
    assert!(
        !r2.devices_used.contains(&straggler),
        "no plan may place work on a quarantined device: {:?}",
        r2.devices_used
    );

    // Re-admission: wait out the canary backoff (infer polls the gray
    // clock), then pass the canaries with fast successes.
    t += 9_000.0;
    rt.observe(t, [Input::Poll]);
    assert_eq!(
        rt.fleet().devices[straggler].state,
        HealthState::Probation,
        "an elapsed canary backoff must re-probe the device"
    );
    for _ in 0..4 {
        rt.observe(t, [Input::Latency { dev: straggler, ms: 10.0 }]);
        t += 1.0;
    }
    let dev = rt.fleet().devices[straggler];
    assert_eq!(dev.state, HealthState::Healthy, "canaries passed");
    assert_eq!(dev.penalty, 1.0, "re-admission clears the penalty");
    assert!(dev.placeable, "re-admitted device is placeable again");

    // The purged entries were dropped, not suspended: the first
    // post-recovery decision is computed fresh (cache miss), lands back
    // on the healthy offload strategy, and re-caches.
    let r3 = rt.infer(&net, t, &mut rng);
    assert!(!r3.cached, "re-admission must not resurrect purged strategies");
    assert_eq!(r3.devices_used, r0.devices_used, "healthy decision is restored");
    let r4 = rt.infer(&net, t + 100.0, &mut rng);
    assert!(r4.cached, "the restored strategy re-caches on the next request");
}
