//! Control-plane chaos: the primary coordinator is killed under Poisson
//! load and the standby must take over through gossip alone. The contract
//! under fire:
//!
//! * the cluster NEVER hangs (watchdog on every test),
//! * goodput after promotion recovers to at least 80% of the pre-kill
//!   rate,
//! * cluster-level conservation holds across the handover —
//!   `completed + rejected == submitted`, zero requests lost or served
//!   twice,
//! * Byzantine health reports shift routing penalties by no more than the
//!   trimmed bound, and gossiped hearsay alone never quarantines a
//!   device.

use murmuration::partition::compliance::Slo;
use murmuration::prelude::LinkState;
use murmuration::rl::{LstmPolicy, Scenario, SloKind};
use murmuration::runtime::gossip::{HealthReport, NodeId, ReputationConfig};
use murmuration::runtime::{RuntimeConfig, SharedRuntime};
use murmuration::serve::{
    default_classes, CoordinatorSpec, EnvModel, FailoverCluster, FailoverConfig, PendingServe,
    ServeConfig, ServeOutcome,
};
use murmuration::testkit::with_watchdog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn shared_runtime(policy_seed: u64) -> Arc<SharedRuntime> {
    let sc = Scenario::augmented_computing(SloKind::Latency);
    let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), policy_seed);
    Arc::new(SharedRuntime::new(sc, policy, RuntimeConfig::default(), Slo::LatencyMs(200.0)))
}

fn spec(seed: u64) -> CoordinatorSpec {
    let cfg = ServeConfig {
        service_sleep: false,
        time_scale: 0.01,
        base_seed: seed,
        ..ServeConfig::engineered(default_classes())
    };
    let env = EnvModel::constant(LinkState { bandwidth_mbps: 300.0, delay_ms: 8.0 }, 1);
    CoordinatorSpec { rt: shared_runtime(seed), env, cfg }
}

/// Knuth Poisson sampler: burst sizes for the open-loop arrival process.
fn poisson(rng: &mut StdRng, lambda: f64) -> usize {
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Drives `total` requests through the cluster as Poisson bursts (a burst
/// is submitted before any of it resolves), returning the completed
/// count.
fn poisson_phase(cl: &mut FailoverCluster, rng: &mut StdRng, total: usize) -> usize {
    let mut done = 0usize;
    let mut sent = 0usize;
    while sent < total {
        let burst = poisson(rng, 3.0).clamp(1, total - sent);
        let pending: Vec<PendingServe> = (0..burst).map(|_| cl.submit(0)).collect();
        sent += burst;
        for p in pending {
            if matches!(cl.resolve(p), Some(ServeOutcome::Done(_))) {
                done += 1;
            }
        }
    }
    done
}

#[test]
fn primary_killed_under_poisson_load_standby_recovers_goodput() {
    with_watchdog(|| {
        let mut cl = FailoverCluster::new(vec![spec(11), spec(23)], FailoverConfig::default());
        let mut rng = StdRng::seed_from_u64(0xB1AD);

        // Warm phase on the primary establishes the reference goodput.
        const PHASE: usize = 30;
        let before = poisson_phase(&mut cl, &mut rng, PHASE);
        assert!(before > 0, "warm phase must complete some requests");
        assert_eq!(cl.active_rank(), Some(0));

        // Kill the primary with a window of requests in flight: these must
        // fail over as retries, not vanish.
        let window: Vec<PendingServe> = (0..12).map(|_| cl.submit(0)).collect();
        let dropped = cl.kill_active();
        for p in window {
            assert!(cl.resolve(p).is_some(), "in-flight request lost across the kill");
        }

        // Same load on the standby: goodput must recover to ≥ 80% of the
        // pre-kill rate. Promotion is lazy (it happens when service is next
        // demanded), so the rank check comes after the phase — checking it
        // right at the kill races with in-flight requests that happened to
        // complete before the crash landed.
        let after = poisson_phase(&mut cl, &mut rng, PHASE);
        assert_eq!(cl.active_rank(), Some(1), "standby must have promoted");
        assert!(
            (after as f64) >= 0.8 * before as f64,
            "goodput did not recover: {before}/{PHASE} before the kill, {after}/{PHASE} after"
        );

        let s = cl.shutdown();
        assert_eq!(s.failovers, 1, "exactly one promotion: {s:?}");
        assert_eq!(s.crash_dropped as usize, dropped);
        assert!(s.retried >= s.crash_dropped, "dropped requests must come back as retries: {s:?}");
        assert_eq!(s.lost, 0, "zero lost requests: {s:?}");
        assert_eq!(
            s.completed + s.rejected,
            s.submitted,
            "cluster conservation across the handover: {s:?}"
        );
    });
}

#[test]
fn lossy_duplicating_gossip_still_converges_on_failover() {
    with_watchdog(|| {
        let fo = FailoverConfig { drop_prob: 0.5, dup_prob: 0.5, seed: 7, ..Default::default() };
        let mut cl = FailoverCluster::new(vec![spec(31), spec(47)], fo);
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let _ = poisson_phase(&mut cl, &mut rng, 10);
        cl.kill_active();
        let after = poisson_phase(&mut cl, &mut rng, 10);
        assert!(after > 0, "standby must serve despite 50% gossip loss");
        let s = cl.shutdown();
        assert_eq!(s.failovers, 1);
        assert_eq!(s.lost, 0);
        assert_eq!(s.completed + s.rejected, s.submitted, "{s:?}");
    });
}

fn report(reporter: u64, device: u32, penalty: f64, version: u64) -> HealthReport {
    HealthReport {
        reporter: NodeId(reporter),
        device,
        state: 0,
        penalty,
        p50_ms: f64::NAN,
        p95_ms: f64::NAN,
        version,
    }
}

#[test]
fn byzantine_reports_bounded_by_trim_and_never_quarantine() {
    with_watchdog(|| {
        let rt = shared_runtime(3);
        rt.set_reputation_config(ReputationConfig { trim: 1, ..ReputationConfig::default() });
        // Three honest reporters agree device 1 is mildly degraded; one
        // liar claims it is catastrophically broken.
        let honest_hi = 1.8;
        let reports = vec![
            report(1, 1, 1.4, 1),
            report(2, 1, 1.6, 1),
            report(3, 1, honest_hi, 1),
            report(666, 1, f64::INFINITY, 1),
        ];
        rt.fold_peer_reports(&reports);
        let penalty = rt.fleet().devices[1].penalty;
        assert!(
            penalty <= honest_hi + 1e-9,
            "one liar among three honest reporters (trim 1) must not push the \
             penalty past the honest range: got {penalty}"
        );
        assert!(penalty >= 1.0, "penalties are multiplicative, floor 1.0");
        // Hearsay steers routing, it never quarantines: the device stays
        // placeable because this runtime has no local evidence against it.
        assert!(
            rt.fleet().devices[1].placeable,
            "gossip alone must never quarantine — that requires local samples + canary"
        );

        // Flip it around: k liars with k = trim cannot *hide* degradation
        // the honest majority reports.
        let rt2 = shared_runtime(4);
        rt2.set_reputation_config(ReputationConfig { trim: 1, ..ReputationConfig::default() });
        let reports = vec![
            report(1, 1, 3.0, 1),
            report(2, 1, 3.2, 1),
            report(3, 1, 3.4, 1),
            report(666, 1, 1.0, 1), // "nothing to see here"
        ];
        rt2.fold_peer_reports(&reports);
        let penalty = rt2.fleet().devices[1].penalty;
        assert!(
            penalty >= 3.0 - 1e-9,
            "a liar claiming perfect health must not mask the honest consensus: {penalty}"
        );
    });
}
