//! Property tests for the fleet state machine's gray-failure walk
//! (`core::fleet`): the detector that routes around stragglers must
//! never wedge the fleet.
//!
//! Three properties, each over arbitrary signal sequences:
//! * no panic and no livelock — whatever arrives (latencies, RTTs,
//!   execution outcomes, forced statuses, peer reports, polls),
//!   invariants hold: a device is placeable exactly when it is neither
//!   down nor quarantined, device 0 is never down nor less than healthy,
//!   and a quarantined device is always re-probed within the maximum
//!   canary backoff;
//! * `Quarantined` is always temporary — the canary becomes due within
//!   `canary_backoff_max_ms` no matter how many failed canaries doubled
//!   the dwell;
//! * `Healthy` is unreachable from `Quarantined` without a *passing*
//!   canary — failures and polls alone can only oscillate between
//!   `Quarantined` and `Probation`.

use murmuration_core::fleet::{DeviceView, Fleet, Input};
use murmuration_core::gossip::{HealthReport, NodeId};
use murmuration_core::health::{HealthConfig, HealthState};
use murmuration_edgesim::DeviceStatus;
use proptest::collection::vec;
use proptest::test_runner::{Config as ProptestConfig, TestCaseError, TestRunner};

const FAST_MS: f64 = 10.0;
const SLOW_MS: f64 = 150.0;

/// Seeds device 1's latency tracker with enough fast samples that the
/// outlier detector is armed (min_samples reached, tight baseline).
fn warmed(cfg: HealthConfig) -> (Fleet, f64) {
    let mut fleet = Fleet::new(2, cfg);
    let mut now = 0.0;
    for i in 0..16 {
        on_success(&mut fleet, FAST_MS + 0.1 * (i % 5) as f64, now);
        now += 1.0;
    }
    (fleet, now)
}

fn on_success(fleet: &mut Fleet, ms: f64, now: f64) {
    fleet.step(now, Input::Latency { dev: 1, ms });
}

fn on_failure(fleet: &mut Fleet, now: f64) {
    fleet.step(now, Input::Outcome { dev: 1, ok: false });
}

fn view(fleet: &Fleet, dev: usize) -> DeviceView {
    fleet.snapshot().devices[dev]
}

/// Three agreeing peers claim device 1 carries `penalty` (enough
/// reporters for the default trim of one).
fn peer_claims(penalty: f64) -> Vec<HealthReport> {
    (1..=3)
        .map(|who| HealthReport {
            reporter: NodeId(who),
            device: 1,
            state: HealthState::Suspect.code(),
            penalty,
            p50_ms: f64::NAN,
            p95_ms: f64::NAN,
            version: who,
        })
        .collect()
}

/// Drives device 1 into quarantine with slow outliers; panics if the walk
/// does not converge (it must — that is `straggler_walks_to_quarantine`'s
/// job to pin down, and this helper's precondition).
fn quarantined(cfg: HealthConfig) -> (Fleet, f64) {
    let (mut fleet, mut now) = warmed(cfg);
    for _ in 0..32 {
        on_success(&mut fleet, SLOW_MS, now);
        now += 1.0;
        if view(&fleet, 1).state == HealthState::Quarantined {
            return (fleet, now);
        }
    }
    panic!("slow outliers failed to quarantine the device");
}

fn check_invariants(fleet: &Fleet) -> Result<(), TestCaseError> {
    let snap = fleet.snapshot();
    if snap.devices[0].state != HealthState::Healthy {
        return Err(TestCaseError::fail("device 0 must stay pinned Healthy"));
    }
    if snap.devices[0].down {
        return Err(TestCaseError::fail("device 0 must never be down"));
    }
    for (dev, d) in snap.devices.iter().enumerate() {
        let p = d.penalty;
        if p.is_nan() || p < 1.0 {
            return Err(TestCaseError::fail(format!("penalty {p} < 1 on dev {dev}")));
        }
        let quarantined = d.state == HealthState::Quarantined;
        if d.placeable == (d.down || quarantined) {
            return Err(TestCaseError::fail(format!(
                "dev {dev}: placeable={} but down={} and state={:?}",
                d.placeable, d.down, d.state
            )));
        }
    }
    Ok(())
}

#[test]
fn arbitrary_signal_sequences_never_panic_or_wedge() {
    let cfg = HealthConfig::default();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(200));
    runner
        .run(&vec((0u8..=13u8, 0.1f64..50.0), 0..80), |ops| {
            let (mut fleet, mut now) = warmed(cfg);
            for (op, dt) in ops {
                now += dt;
                let input = match op {
                    0 => Input::Latency { dev: 1, ms: FAST_MS },
                    1 => Input::Latency { dev: 1, ms: SLOW_MS },
                    2 => Input::Outcome { dev: 1, ok: false },
                    3 => Input::LinkRtt { dev: 1, ms: 5.0 },
                    4 => Input::LinkRtt { dev: 1, ms: 90.0 },
                    5 => Input::Outcome { dev: 1, ok: true },
                    6 => Input::Force { dev: 1, status: DeviceStatus::Down },
                    7 => Input::Force { dev: 1, status: DeviceStatus::Up },
                    8 => Input::Force { dev: 1, status: DeviceStatus::Slow(1.0 + dt) },
                    9 => Input::Outcome { dev: 0, ok: false },
                    10 => Input::Force { dev: 0, status: DeviceStatus::Down },
                    11 | 12 => {
                        fleet.fold_peer_reports(&peer_claims(dt / 5.0));
                        check_invariants(&fleet)?;
                        continue;
                    }
                    _ => Input::Poll,
                };
                fleet.step(now, input);
                check_invariants(&fleet)?;
            }
            // No livelock: whatever state the sequence left the device in,
            // waiting out the maximum backoff always re-probes it.
            if view(&fleet, 1).state == HealthState::Quarantined {
                now += cfg.canary_backoff_max_ms + 1.0;
                if !fleet.canary_due(1, now) {
                    return Err(TestCaseError::fail("canary not due after the maximum backoff"));
                }
                fleet.step(now, Input::Poll);
                if view(&fleet, 1).state != HealthState::Probation {
                    return Err(TestCaseError::fail("poll past max backoff must re-probe"));
                }
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn quarantine_is_always_temporary_even_after_failed_canaries() {
    let cfg = HealthConfig::default();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(100));
    // Arbitrarily many failed canary rounds: the doubled backoff is capped,
    // so the next probe is always due within canary_backoff_max_ms.
    runner
        .run(&(0usize..12, 0.0f64..500.0), |(failed_rounds, slack)| {
            let (mut fleet, mut now) = quarantined(cfg);
            for _ in 0..failed_rounds {
                now += cfg.canary_backoff_max_ms + slack;
                fleet.step(now, Input::Poll);
                if view(&fleet, 1).state != HealthState::Probation {
                    return Err(TestCaseError::fail("due canary must re-probe"));
                }
                // The canary fails hard (a probation failure always
                // re-quarantines; a slow *success* may stop counting as an
                // outlier once the tracker adapts to the new normal).
                on_failure(&mut fleet, now);
                if view(&fleet, 1).state != HealthState::Quarantined {
                    return Err(TestCaseError::fail("failed canary must re-quarantine"));
                }
            }
            now += cfg.canary_backoff_max_ms + 1.0;
            if !fleet.canary_due(1, now) {
                return Err(TestCaseError::fail(format!(
                    "canary never due after {failed_rounds} failed rounds"
                )));
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn healthy_unreachable_from_quarantine_without_passing_canary() {
    let cfg = HealthConfig::default();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(200));
    // Failures and polls only — no inlier success can ever occur, so no
    // canary can pass, so Healthy must stay unreachable.
    runner
        .run(&vec((0u8..=1u8, 0.1f64..9000.0), 0..60), |ops| {
            let (mut fleet, mut now) = quarantined(cfg);
            for (fail, dt) in ops {
                now += dt;
                if fail == 1 {
                    on_failure(&mut fleet, now);
                } else {
                    fleet.step(now, Input::Poll);
                }
                if view(&fleet, 1).state == HealthState::Healthy {
                    return Err(TestCaseError::fail(
                        "reached Healthy from Quarantined without a passing canary",
                    ));
                }
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn recovery_path_exists_from_any_quarantine() {
    let cfg = HealthConfig::default();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(100));
    // Constructive liveness: wait out the backoff, pass the canaries, and
    // the device is a first-class citizen again — regardless of how long
    // it idled in quarantine first.
    runner
        .run(&(0.0f64..20_000.0, 1u32..6), |(idle_ms, extra_canaries)| {
            let (mut fleet, mut now) = quarantined(cfg);
            now += idle_ms + cfg.canary_backoff_max_ms + 1.0;
            fleet.step(now, Input::Poll);
            if view(&fleet, 1).state != HealthState::Probation {
                return Err(TestCaseError::fail("due canary must re-probe"));
            }
            let canaries = cfg.probation_canaries + extra_canaries;
            for _ in 0..canaries {
                now += 1.0;
                on_success(&mut fleet, FAST_MS, now);
            }
            if view(&fleet, 1).state != HealthState::Healthy {
                return Err(TestCaseError::fail(format!(
                    "device stuck in {:?} after {canaries} passing canaries",
                    view(&fleet, 1).state
                )));
            }
            if view(&fleet, 1).penalty != 1.0 {
                return Err(TestCaseError::fail("re-admitted device must carry no penalty"));
            }
            Ok(())
        })
        .unwrap();
}
