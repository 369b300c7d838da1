//! The vocabulary of gray-failure detection.
//!
//! Crash-stop faults are the down flag of [`crate::fleet`]; this module
//! names what covers the *gray* failures that flag misses: a device that
//! is slow-but-alive (thermal throttling, a contended CPU, an asymmetric
//! congested link) never crashes, yet drags every partitioned request's
//! tail latency. [`LatencyTracker`] is the robust per-device (or per-link)
//! statistic — EWMA plus windowed median/MAD outlier scoring — that the
//! fleet feeds from execution latencies and heartbeat RTTs and the
//! executor's hedge trigger reads its tail quantile from. [`HealthState`]
//! is the graded state those outliers walk a device through,
//! [`HealthConfig`] the thresholds, dwell times and penalties of that
//! walk, and [`HealthTransitions`] its counters. The state machine itself
//! is [`crate::fleet::Fleet`].
//!
//! The scheduler consumes the grade as a *penalty*, not a binary mask:
//! `Suspect`/`Probation` devices keep serving but their links are
//! reported degraded (so decisions route around them), while
//! `Quarantined` devices leave the placeable mask entirely until a canary
//! probe re-admits them. `Healthy` is unreachable from quarantine without
//! passing canaries — a property the proptests pin.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;

/// Tuning knobs for gray-failure detection.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// EWMA smoothing factor for the latency mean.
    pub alpha: f64,
    /// Sliding window length for median/MAD scoring.
    pub window: usize,
    /// Minimum samples before outlier scoring activates (cold trackers
    /// never flag).
    pub min_samples: usize,
    /// Robust z-score above which a sample is an outlier.
    pub outlier_z: f64,
    /// Consecutive outliers before `Healthy → Suspect`.
    pub suspect_after: u32,
    /// Consecutive inliers before `Suspect → Healthy`.
    pub clear_after: u32,
    /// Further consecutive outliers while `Suspect` before quarantine
    /// (total streak `suspect_after + quarantine_after`).
    pub quarantine_after: u32,
    /// Quarantine dwell before the first canary probe is due.
    pub canary_backoff_ms: f64,
    /// Backoff cap (doubles on every failed canary).
    pub canary_backoff_max_ms: f64,
    /// Consecutive passing canaries before `Probation → Healthy`.
    pub probation_canaries: u32,
    /// Latency penalty multiplier applied to a `Suspect` device's links.
    pub suspect_penalty: f64,
    /// Latency penalty multiplier applied to a `Probation` device's links.
    pub probation_penalty: f64,
    /// Cap on the penalty that *peer-reported* (gossiped) health may apply
    /// to a device. Peer reports can steer routing away from a device but
    /// can never quarantine it — that requires local evidence plus a local
    /// canary pass — so the cap stays finite.
    pub peer_penalty_cap: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            alpha: 0.2,
            window: 32,
            min_samples: 8,
            outlier_z: 4.0,
            suspect_after: 3,
            clear_after: 4,
            quarantine_after: 3,
            canary_backoff_ms: 500.0,
            canary_backoff_max_ms: 8_000.0,
            probation_canaries: 2,
            suspect_penalty: 4.0,
            probation_penalty: 2.0,
            peer_penalty_cap: 4.0,
        }
    }
}

/// Robust per-device (or per-link) latency statistics: an EWMA mean for
/// the smooth trend plus a sliding window for median/MAD outlier scoring
/// and tail quantiles (the hedge trigger).
#[derive(Clone, Debug)]
pub struct LatencyTracker {
    alpha: f64,
    ewma: Option<f64>,
    window: VecDeque<f64>,
    cap: usize,
}

impl LatencyTracker {
    /// An empty tracker with the given EWMA factor and window capacity.
    pub fn new(alpha: f64, cap: usize) -> Self {
        LatencyTracker { alpha, ewma: None, window: VecDeque::new(), cap: cap.max(4) }
    }

    /// Records one latency sample (milliseconds).
    pub fn observe(&mut self, ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        self.ewma = Some(match self.ewma {
            None => ms,
            Some(e) => self.alpha * ms + (1.0 - self.alpha) * e,
        });
        if self.window.len() == self.cap {
            self.window.pop_front();
        }
        self.window.push_back(ms);
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no samples have been observed yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Smoothed mean latency, if any sample has been observed.
    pub fn ewma(&self) -> Option<f64> {
        self.ewma
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.window.iter().copied().collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        v
    }

    /// Median of the window (`None` when empty).
    pub fn median(&self) -> Option<f64> {
        let v = self.sorted();
        if v.is_empty() {
            return None;
        }
        Some(v[v.len() / 2])
    }

    /// Median absolute deviation of the window.
    pub fn mad(&self) -> Option<f64> {
        let med = self.median()?;
        let mut dev: Vec<f64> = self.window.iter().map(|x| (x - med).abs()).collect();
        dev.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Some(dev[dev.len() / 2])
    }

    /// Latency quantile `q ∈ [0, 1]` over the window (`None` when empty).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let v = self.sorted();
        if v.is_empty() {
            return None;
        }
        let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(v[idx.min(v.len() - 1)])
    }

    /// Robust z-score of `ms` against the window: |ms − median| over a
    /// floored MAD scale (the floor keeps a zero-variance window from
    /// flagging microsecond jitter). 0.0 until the window has samples.
    pub fn outlier_score(&self, ms: f64) -> f64 {
        let (Some(med), Some(mad)) = (self.median(), self.mad()) else { return 0.0 };
        let denom = (1.4826 * mad).max(0.1 * med).max(0.1);
        (ms - med).abs() / denom
    }

    /// Whether `ms` would be flagged as a *slow* outlier under `cfg`:
    /// enough history, robust z above threshold, and slower than both the
    /// median and the EWMA trend (fast samples are never unhealthy).
    pub fn is_slow_outlier(&self, ms: f64, cfg: &HealthConfig) -> bool {
        if self.window.len() < cfg.min_samples {
            return false;
        }
        let above_trend = match (self.median(), self.ewma) {
            (Some(med), Some(e)) => ms > med && ms > e,
            _ => false,
        };
        above_trend && self.outlier_score(ms) > cfg.outlier_z
    }
}

/// The graded health state of one device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Nominal: full capacity, no penalty.
    Healthy,
    /// Recent latency outliers: still placeable, links penalized.
    Suspect,
    /// Recently re-probed out of quarantine: placeable under a mild
    /// penalty while canaries confirm recovery.
    Probation,
    /// Persistent straggler: removed from the placeable mask until a
    /// canary probe is due.
    Quarantined,
}

impl HealthState {
    /// Stable single-byte wire code (gossip health digests).
    pub fn code(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Suspect => 1,
            HealthState::Probation => 2,
            HealthState::Quarantined => 3,
        }
    }

    /// Decodes a wire code; unknown codes degrade to `Healthy` (an
    /// unrecognised claim from a peer must not penalize anyone).
    pub fn from_code(code: u8) -> HealthState {
        match code {
            1 => HealthState::Suspect,
            2 => HealthState::Probation,
            3 => HealthState::Quarantined,
            _ => HealthState::Healthy,
        }
    }
}

/// Monotone counters of graded-state transitions, for robustness metrics:
/// how often the fleet flapped, quarantined, and recovered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthTransitions {
    /// Entries into `Suspect` (from `Healthy`).
    pub suspects: u64,
    /// Entries into `Quarantined`.
    pub quarantines: u64,
    /// Re-admissions to `Healthy` via passing canaries.
    pub readmissions: u64,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    //! The graded walk, driven through the fleet that runs it.
    use super::*;
    use crate::fleet::{DeviceView, Fleet, Input};
    use crate::gossip::{HealthReport, NodeId, ReputationConfig};

    fn cfg() -> HealthConfig {
        HealthConfig::default()
    }

    fn on_success(fleet: &mut Fleet, dev: usize, ms: f64, now: f64) {
        fleet.step(now, Input::Latency { dev, ms });
    }

    fn on_failure(fleet: &mut Fleet, dev: usize, now: f64) {
        fleet.step(now, Input::Outcome { dev, ok: false });
    }

    fn on_link_rtt(fleet: &mut Fleet, dev: usize, ms: f64, now: f64) {
        fleet.step(now, Input::LinkRtt { dev, ms });
    }

    fn view(fleet: &Fleet, dev: usize) -> DeviceView {
        fleet.snapshot().devices[dev]
    }

    fn warm(fleet: &mut Fleet, dev: usize, n: usize) {
        for i in 0..n {
            on_success(fleet, dev, 10.0 + (i % 3) as f64 * 0.2, i as f64);
        }
    }

    #[test]
    fn tracker_median_mad_quantile() {
        let mut t = LatencyTracker::new(0.2, 16);
        for ms in [10.0, 11.0, 9.0, 10.5, 10.0, 9.5, 10.2, 10.8] {
            t.observe(ms);
        }
        let med = t.median().unwrap();
        assert!((9.0..=11.0).contains(&med));
        assert!(t.mad().unwrap() < 2.0);
        assert!(t.quantile(1.0).unwrap() >= t.quantile(0.0).unwrap());
        assert!(t.outlier_score(100.0) > 4.0, "10x latency must score as an outlier");
        assert!(t.outlier_score(med) < 1.0);
    }

    #[test]
    fn tracker_ignores_nonfinite() {
        let mut t = LatencyTracker::new(0.2, 8);
        t.observe(f64::NAN);
        t.observe(-1.0);
        assert!(t.is_empty());
    }

    #[test]
    fn cold_tracker_never_flags() {
        let t = LatencyTracker::new(0.2, 32);
        assert!(!t.is_slow_outlier(1e9, &cfg()));
    }

    #[test]
    fn persistent_straggler_walks_to_quarantine() {
        let mut fleet = Fleet::new(3, cfg());
        warm(&mut fleet, 1, 16);
        assert_eq!(view(&fleet, 1).state, HealthState::Healthy);
        let mut quarantined = false;
        for i in 0..12 {
            on_success(&mut fleet, 1, 120.0, 100.0 + i as f64);
            if view(&fleet, 1).state == HealthState::Quarantined {
                quarantined = true;
                break;
            }
        }
        assert!(quarantined, "10x slowdown must quarantine: {:?}", view(&fleet, 1).state);
        assert!(!view(&fleet, 1).placeable);
        assert!(view(&fleet, 1).penalty.is_infinite());
    }

    #[test]
    fn suspect_clears_with_inliers() {
        let mut fleet = Fleet::new(2, cfg());
        warm(&mut fleet, 1, 16);
        for _ in 0..cfg().suspect_after {
            on_success(&mut fleet, 1, 120.0, 50.0);
        }
        assert_eq!(view(&fleet, 1).state, HealthState::Suspect);
        assert!(view(&fleet, 1).penalty > 1.0);
        for _ in 0..cfg().clear_after {
            on_success(&mut fleet, 1, 10.0, 60.0);
        }
        assert_eq!(view(&fleet, 1).state, HealthState::Healthy);
        assert_eq!(view(&fleet, 1).penalty, 1.0);
    }

    #[test]
    fn canary_readmission_round_trip() {
        let c = cfg();
        let mut fleet = Fleet::new(2, c);
        warm(&mut fleet, 1, 16);
        for i in 0..12 {
            on_success(&mut fleet, 1, 150.0, 100.0 + i as f64);
        }
        assert_eq!(view(&fleet, 1).state, HealthState::Quarantined);
        // Not due yet: polling before the backoff changes nothing.
        fleet.step(150.0, Input::Poll);
        assert_eq!(view(&fleet, 1).state, HealthState::Quarantined);
        // Backoff elapses: probation, then canaries re-admit.
        let due = 150.0 + c.canary_backoff_ms;
        assert!(fleet.canary_due(1, due));
        fleet.step(due, Input::Poll);
        assert_eq!(view(&fleet, 1).state, HealthState::Probation);
        assert!(view(&fleet, 1).placeable, "probation devices are placeable");
        for _ in 0..c.probation_canaries {
            on_success(&mut fleet, 1, 10.0, due + 1.0);
        }
        assert_eq!(fleet.snapshot().transitions.readmissions, 1);
        assert_eq!(view(&fleet, 1).state, HealthState::Healthy);
    }

    #[test]
    fn failed_canary_doubles_backoff() {
        let c = cfg();
        let mut fleet = Fleet::new(2, c);
        warm(&mut fleet, 1, 16);
        for i in 0..12 {
            on_success(&mut fleet, 1, 150.0, i as f64);
        }
        fleet.step(12.0 + c.canary_backoff_ms, Input::Poll);
        assert_eq!(view(&fleet, 1).state, HealthState::Probation);
        // Canary fails (still slow): re-quarantined with a doubled dwell.
        let t1 = 12.0 + c.canary_backoff_ms + 1.0;
        on_success(&mut fleet, 1, 150.0, t1);
        assert_eq!(view(&fleet, 1).state, HealthState::Quarantined);
        assert!(!fleet.canary_due(1, t1 + c.canary_backoff_ms + 1.0));
        assert!(fleet.canary_due(1, t1 + 2.0 * c.canary_backoff_ms + 1.0));
    }

    #[test]
    fn hard_failures_are_gray_signals_too() {
        let mut fleet = Fleet::new(2, cfg());
        warm(&mut fleet, 1, 16);
        on_failure(&mut fleet, 1, 0.0);
        assert_eq!(view(&fleet, 1).state, HealthState::Suspect);
    }

    #[test]
    fn link_rtt_spikes_count_inliers_do_not_clear() {
        let c = cfg();
        let mut fleet = Fleet::new(2, c);
        for i in 0..16 {
            on_link_rtt(&mut fleet, 1, 5.0, i as f64);
        }
        assert_eq!(view(&fleet, 1).state, HealthState::Healthy);
        for i in 0..c.suspect_after {
            on_link_rtt(&mut fleet, 1, 80.0, 20.0 + f64::from(i));
        }
        assert_eq!(view(&fleet, 1).state, HealthState::Suspect);
        // Timely RTTs alone never clear compute suspicion.
        for i in 0..8 {
            on_link_rtt(&mut fleet, 1, 5.0, 30.0 + i as f64);
        }
        assert_eq!(view(&fleet, 1).state, HealthState::Suspect);
    }

    #[test]
    fn device_zero_is_pinned_healthy() {
        let mut fleet = Fleet::new(2, cfg());
        warm(&mut fleet, 0, 16);
        for _ in 0..20 {
            on_success(&mut fleet, 0, 500.0, 0.0);
            on_failure(&mut fleet, 0, 0.0);
        }
        assert_eq!(view(&fleet, 0).state, HealthState::Healthy);
        fleet.step(
            0.0,
            Input::Force { dev: 0, status: murmuration_edgesim::DeviceStatus::Slow(10.0) },
        );
        assert_eq!(view(&fleet, 0).penalty, 1.0);
    }

    #[test]
    fn peer_penalty_caps_and_never_quarantines() {
        let c = cfg();
        let mut fleet = Fleet::new(3, c);
        // One trusted peer (trim 0) so a single claim takes effect.
        fleet.set_reputation_config(ReputationConfig { trim: 0, ..ReputationConfig::default() });
        let mut claim = |dev: u32, penalty: f64| {
            let r = HealthReport {
                reporter: NodeId(7),
                device: dev,
                state: HealthState::Suspect.code(),
                penalty,
                p50_ms: f64::NAN,
                p95_ms: f64::NAN,
                version: 1,
            };
            fleet.fold_peer_reports(&[r]);
            fleet.snapshot().devices[dev as usize]
        };
        // A peer claiming a device is catastrophically slow moves routing
        // penalty only up to the cap, and the device stays placeable.
        let v = claim(1, 1e9);
        assert_eq!(v.state, HealthState::Healthy);
        assert_eq!(v.penalty, c.peer_penalty_cap);
        assert!(v.placeable);
        // A nominal claim clears it; device 0 ignores claims.
        assert_eq!(claim(1, 1.0).penalty, 1.0);
        assert_eq!(claim(0, 3.0).penalty, 1.0);
        // Sub-unity or NaN claims carry no penalty.
        assert_eq!(claim(2, 0.5).penalty, 1.0);
        assert_eq!(claim(2, f64::NAN).penalty, 1.0);
    }

    #[test]
    fn transitions_count_suspects_quarantines_readmissions() {
        let c = cfg();
        let mut fleet = Fleet::new(2, c);
        warm(&mut fleet, 1, 16);
        assert_eq!(fleet.snapshot().transitions, HealthTransitions::default());
        for i in 0..12 {
            on_success(&mut fleet, 1, 150.0, 100.0 + i as f64);
        }
        let t = fleet.snapshot().transitions;
        assert_eq!(t.suspects, 1);
        assert_eq!(t.quarantines, 1);
        assert_eq!(t.readmissions, 0);
        let due = 200.0 + c.canary_backoff_ms;
        fleet.step(due, Input::Poll);
        for _ in 0..c.probation_canaries {
            on_success(&mut fleet, 1, 10.0, due + 1.0);
        }
        assert_eq!(fleet.snapshot().transitions.readmissions, 1);
    }

    #[test]
    fn health_state_codes_round_trip() {
        for s in [
            HealthState::Healthy,
            HealthState::Suspect,
            HealthState::Probation,
            HealthState::Quarantined,
        ] {
            assert_eq!(HealthState::from_code(s.code()), s);
        }
        assert_eq!(HealthState::from_code(200), HealthState::Healthy);
    }

    #[test]
    fn virtual_slowdown_folds_into_penalty_only() {
        use murmuration_edgesim::DeviceStatus;
        let mut fleet = Fleet::new(2, cfg());
        fleet.step(0.0, Input::Force { dev: 1, status: DeviceStatus::Slow(3.0) });
        assert_eq!(view(&fleet, 1).state, HealthState::Healthy);
        assert_eq!(view(&fleet, 1).penalty, 3.0);
        assert!(view(&fleet, 1).placeable);
        fleet.step(0.0, Input::Force { dev: 1, status: DeviceStatus::Up });
        assert_eq!(view(&fleet, 1).penalty, 1.0);
    }
}
