//! The fleet view: liveness, gray health and peer reputation as one state
//! machine with no lock, no thread and no clock.
//!
//! One record per device holds everything the runtime believes about it:
//!
//! * **down** — crashed or unreachable. A failed execution outcome or a
//!   forced `Down` sets it; a successful outcome or a forced `Up`/`Slow`
//!   clears it. One failure is enough: the runtime cannot tell a crash
//!   from a lost worker, and one success proves the device back.
//! * **graded health** ([`HealthState`]) — the gray-failure detector for
//!   slow-but-alive devices. Robust latency trackers (EWMA plus windowed
//!   median/MAD, fed by execution latencies and heartbeat RTTs) walk a
//!   device through
//!
//! ```text
//!            outliers ≥ suspect_after          outliers keep coming
//!  Healthy ───────────────────────► Suspect ─────────────────────► Quarantined
//!     ▲  ◄──────────────────────────┘  ▲                              │
//!     │     inliers ≥ clear_after       │ canary outlier/failure      │ backoff
//!     │                                 │ (backoff doubles)           ▼ elapsed
//!     └──────────────── passing canaries ≤────────────────────── Probation
//!            (probation_canaries inlier successes)
//! ```
//!
//! * **penalty** — the routing multiplier decisions see: the graded state's
//!   (1 healthy, ∞ quarantined), a fault trace's `Slow` factor, and the
//!   peers' reputation-weighted claim, capped so hearsay steers routing
//!   but never quarantines.
//!
//! A device is *placeable* when it is neither down nor quarantined. Each
//! input reports whether it removed a device from the placeable set — the
//! one event that makes cached strategies stale. Device 0, the
//! coordinator, is pinned alive and healthy: there is no backup to route
//! its work to. Every input that can move a state carries its instant
//! (`now_ms`); peer reports are ordered by their gossip versions instead.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::gossip::{HealthReport, NodeId, ReputationAggregator, ReputationConfig};
use crate::health::{HealthConfig, HealthState, HealthTransitions, LatencyTracker};
use murmuration_edgesim::DeviceStatus;

/// One input to the fleet, applied at an explicit instant by
/// [`Fleet::step`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Input {
    /// An execution attempt on `dev` succeeded (`ok`) or failed.
    Outcome { dev: usize, ok: bool },
    /// A successful execution on `dev` took `ms`.
    Latency { dev: usize, ms: f64 },
    /// A heartbeat round trip to `dev` took `ms`. A spike counts like a
    /// latency outlier; timely RTTs never clear compute suspicion.
    LinkRtt { dev: usize, ms: f64 },
    /// An out-of-band status for `dev`: a fault trace, a partition, a
    /// chaos hook. `Slow(f)` folds `f` into the penalty only.
    Force { dev: usize, status: DeviceStatus },
    /// Time passes: quarantined devices whose canary backoff elapsed move
    /// to probation.
    Poll,
}

/// One device as a request sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceView {
    /// Believed crashed or unreachable.
    pub down: bool,
    /// The graded gray-health state.
    pub state: HealthState,
    /// Whether work may be placed here: `!(down || Quarantined)`.
    pub placeable: bool,
    /// Routing penalty multiplier (1.0 nominal, ∞ quarantined).
    pub penalty: f64,
}

/// The whole fleet read at one instant, under one lock.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSnapshot {
    /// One view per device, indexed by device.
    pub devices: Vec<DeviceView>,
    /// Monotone graded-state transition counters since construction.
    pub transitions: HealthTransitions,
}

impl FleetSnapshot {
    /// `mask[d]` is true when device `d` may receive planned work.
    pub(crate) fn placeable_mask(&self) -> Vec<bool> {
        self.devices.iter().map(|d| d.placeable).collect()
    }

    /// Devices believed down.
    pub(crate) fn down_devices(&self) -> Vec<usize> {
        self.indices(|d| d.down)
    }

    /// Devices quarantined by the gray-failure detector.
    pub(crate) fn quarantined_devices(&self) -> Vec<usize> {
        self.indices(|d| d.state == HealthState::Quarantined)
    }

    fn indices(&self, pick: impl Fn(&DeviceView) -> bool) -> Vec<usize> {
        self.devices.iter().enumerate().filter(|(_, d)| pick(d)).map(|(i, _)| i).collect()
    }
}

/// Everything believed about one device.
#[derive(Clone, Debug)]
struct Device {
    down: bool,
    tracker: LatencyTracker,
    link: LatencyTracker,
    state: HealthState,
    bad_streak: u32,
    good_streak: u32,
    canary_passes: u32,
    quarantined_at_ms: f64,
    backoff_ms: f64,
    /// A forced `Slow` factor; folded into the penalty, never into the
    /// measured state machine.
    virtual_slow: Option<f64>,
    /// The peers' aggregated claim; folded into the penalty capped at
    /// `peer_penalty_cap`, never into the state machine.
    peer_penalty: Option<f64>,
}

impl Device {
    fn new(cfg: &HealthConfig) -> Self {
        Device {
            down: false,
            tracker: LatencyTracker::new(cfg.alpha, cfg.window),
            link: LatencyTracker::new(cfg.alpha, cfg.window),
            state: HealthState::Healthy,
            bad_streak: 0,
            good_streak: 0,
            canary_passes: 0,
            quarantined_at_ms: 0.0,
            backoff_ms: cfg.canary_backoff_ms,
            virtual_slow: None,
            peer_penalty: None,
        }
    }

    fn placeable(&self) -> bool {
        !self.down && self.state != HealthState::Quarantined
    }

    fn quarantine(&mut self, cfg: &HealthConfig, now_ms: f64, double_backoff: bool) {
        if double_backoff {
            self.backoff_ms = (self.backoff_ms * 2.0).min(cfg.canary_backoff_max_ms);
        }
        self.state = HealthState::Quarantined;
        self.quarantined_at_ms = now_ms;
        self.bad_streak = 0;
        self.good_streak = 0;
        self.canary_passes = 0;
    }

    /// An outlier-grade bad signal (slow sample, RTT spike, or failure).
    fn on_bad(&mut self, cfg: &HealthConfig, now_ms: f64) {
        match self.state {
            HealthState::Healthy => {
                self.good_streak = 0;
                self.bad_streak += 1;
                if self.bad_streak >= cfg.suspect_after {
                    self.state = HealthState::Suspect;
                }
            }
            HealthState::Suspect => {
                self.good_streak = 0;
                self.bad_streak += 1;
                if self.bad_streak >= cfg.suspect_after + cfg.quarantine_after {
                    self.quarantine(cfg, now_ms, false);
                }
            }
            // A failed canary: back to quarantine with a longer dwell.
            HealthState::Probation => self.quarantine(cfg, now_ms, true),
            HealthState::Quarantined => {}
        }
    }

    /// An inlier-grade good signal (a timely success).
    fn on_good(&mut self, cfg: &HealthConfig) {
        match self.state {
            HealthState::Healthy => self.bad_streak = 0,
            HealthState::Suspect => {
                self.bad_streak = 0;
                self.good_streak += 1;
                if self.good_streak >= cfg.clear_after {
                    self.state = HealthState::Healthy;
                    self.good_streak = 0;
                }
            }
            HealthState::Probation => {
                self.canary_passes += 1;
                if self.canary_passes >= cfg.probation_canaries {
                    self.state = HealthState::Healthy;
                    self.bad_streak = 0;
                    self.good_streak = 0;
                    self.canary_passes = 0;
                    self.backoff_ms = cfg.canary_backoff_ms;
                }
            }
            // A late straggler reply finishing after quarantine: informs
            // the tracker, never the state machine (re-admission only
            // flows through the canary path).
            HealthState::Quarantined => {}
        }
    }

    fn on_latency(&mut self, cfg: &HealthConfig, ms: f64, now_ms: f64) {
        let outlier = self.tracker.is_slow_outlier(ms, cfg);
        self.tracker.observe(ms);
        if outlier {
            self.on_bad(cfg, now_ms);
        } else {
            self.on_good(cfg);
        }
    }

    fn on_link_rtt(&mut self, cfg: &HealthConfig, ms: f64, now_ms: f64) {
        let outlier = self.link.is_slow_outlier(ms, cfg);
        self.link.observe(ms);
        if outlier {
            self.on_bad(cfg, now_ms);
        }
    }

    fn on_failure(&mut self, cfg: &HealthConfig, now_ms: f64) {
        self.down = true;
        // A hard failure is also a strong gray signal — a flapping worker
        // should not re-enter the fleet as a first-class citizen — so it
        // jumps straight past the single-outlier grace toward Suspect.
        if self.state == HealthState::Healthy {
            self.bad_streak = self.bad_streak.max(cfg.suspect_after.saturating_sub(1));
        }
        self.on_bad(cfg, now_ms);
    }

    fn force(&mut self, status: DeviceStatus) {
        match status {
            DeviceStatus::Down => self.down = true,
            DeviceStatus::Up => {
                self.down = false;
                self.virtual_slow = None;
            }
            DeviceStatus::Slow(f) => {
                self.down = false;
                self.virtual_slow = Some(f).filter(|f| f.is_finite() && *f > 1.0);
            }
        }
    }

    fn canary_due(&self, now_ms: f64) -> bool {
        self.state == HealthState::Quarantined && now_ms - self.quarantined_at_ms >= self.backoff_ms
    }

    /// Penalty from direct local evidence only (state machine + forced
    /// slowdown) — what this node exports, and the reference peer claims
    /// are scored against, so a gossiped lie never poisons its refutation.
    fn local_penalty(&self, cfg: &HealthConfig) -> f64 {
        let measured = match self.state {
            HealthState::Healthy => 1.0,
            HealthState::Suspect => cfg.suspect_penalty,
            HealthState::Probation => cfg.probation_penalty,
            HealthState::Quarantined => f64::INFINITY,
        };
        measured.max(self.virtual_slow.unwrap_or(1.0))
    }

    fn penalty(&self, cfg: &HealthConfig) -> f64 {
        let peer = self.peer_penalty.map_or(1.0, |p| p.min(cfg.peer_penalty_cap));
        self.local_penalty(cfg).max(peer)
    }
}

/// The fleet state machine: see the module docs.
pub struct Fleet {
    cfg: HealthConfig,
    devs: Vec<Device>,
    reputation: ReputationAggregator,
    transitions: HealthTransitions,
}

impl Fleet {
    /// A fleet of `n_devices`, all up and healthy, every gossip reporter
    /// fully trusted.
    pub fn new(n_devices: usize, cfg: HealthConfig) -> Self {
        Fleet {
            cfg,
            devs: (0..n_devices).map(|_| Device::new(&cfg)).collect(),
            reputation: ReputationAggregator::new(ReputationConfig::default()),
            transitions: HealthTransitions::default(),
        }
    }

    /// Applies one input at `now_ms`. Returns true when it removed a
    /// device from the placeable set. Inputs naming an unknown device are
    /// ignored; device 0's trackers learn, but nothing marks it down or
    /// less than healthy.
    pub fn step(&mut self, now_ms: f64, input: Input) -> bool {
        let cfg = self.cfg;
        let dev = match input {
            Input::Outcome { dev, .. }
            | Input::Latency { dev, .. }
            | Input::LinkRtt { dev, .. }
            | Input::Force { dev, .. } => dev,
            Input::Poll => {
                for d in self.devs.iter_mut().filter(|d| d.canary_due(now_ms)) {
                    d.state = HealthState::Probation;
                    d.canary_passes = 0;
                }
                return false;
            }
        };
        let Some(d) = self.devs.get_mut(dev) else { return false };
        if dev == 0 {
            match input {
                Input::Latency { ms, .. } => d.tracker.observe(ms),
                Input::LinkRtt { ms, .. } => d.link.observe(ms),
                _ => {}
            }
            return false;
        }
        let (before, was_placeable) = (d.state, d.placeable());
        match input {
            Input::Outcome { ok: true, .. } => d.down = false,
            Input::Outcome { ok: false, .. } => d.on_failure(&cfg, now_ms),
            Input::Latency { ms, .. } => d.on_latency(&cfg, ms, now_ms),
            Input::LinkRtt { ms, .. } => d.on_link_rtt(&cfg, ms, now_ms),
            Input::Force { status, .. } => d.force(status),
            Input::Poll => {}
        }
        let t = &mut self.transitions;
        match (before, d.state) {
            (HealthState::Healthy, HealthState::Suspect) => t.suspects += 1,
            (HealthState::Probation, HealthState::Healthy) => t.readmissions += 1,
            (b, HealthState::Quarantined) if b != HealthState::Quarantined => t.quarantines += 1,
            _ => {}
        }
        was_placeable && !d.placeable()
    }

    /// Folds peer-reported health claims into routing penalties.
    ///
    /// Per device, the claims go through the reputation-weighted trimmed
    /// mean ([`ReputationAggregator::aggregate`]); the result is capped
    /// and never touches the placeable set — a gossiped claim can steer
    /// routing, but quarantine still requires local evidence plus a local
    /// canary pass. Where this node has enough direct observations of a
    /// device, each reporter's claim is also scored against them, so
    /// reporters who repeatedly contradict reality lose weight.
    pub fn fold_peer_reports(&mut self, reports: &[HealthReport]) {
        let mut by_dev: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); self.devs.len()];
        for r in reports {
            if let Some(claims) = by_dev.get_mut(r.device as usize) {
                claims.push((r.reporter, r.penalty));
            }
        }
        let cfg = self.cfg;
        for (d, claims) in self.devs.iter_mut().zip(&by_dev).skip(1) {
            if claims.is_empty() {
                continue;
            }
            if d.tracker.len() >= cfg.min_samples {
                let observed = d.local_penalty(&cfg);
                for &(who, claimed) in claims {
                    self.reputation.observe(who, claimed, observed);
                }
            }
            d.peer_penalty = self.reputation.aggregate(claims).filter(|p| *p > 1.0);
        }
    }

    /// Replaces the reputation-aggregation policy (weights reset).
    pub(crate) fn set_reputation_config(&mut self, cfg: ReputationConfig) {
        self.reputation = ReputationAggregator::new(cfg);
    }

    /// Every device's view plus the transition counters.
    pub fn snapshot(&self) -> FleetSnapshot {
        let devices = self
            .devs
            .iter()
            .map(|d| DeviceView {
                down: d.down,
                state: d.state,
                placeable: d.placeable(),
                penalty: d.penalty(&self.cfg),
            })
            .collect();
        FleetSnapshot { devices, transitions: self.transitions }
    }

    /// Whether every device is placeable at nominal penalty — the only
    /// fleet under which a forecast strategy is worth precomputing.
    pub(crate) fn is_nominal(&self) -> bool {
        self.devs.iter().all(|d| d.placeable() && d.penalty(&self.cfg) <= 1.0)
    }

    /// Whether `dev`'s canary probe is due (still quarantined, backoff
    /// elapsed, not yet polled into probation).
    pub fn canary_due(&self, dev: usize, now_ms: f64) -> bool {
        self.devs.get(dev).is_some_and(|d| d.canary_due(now_ms))
    }

    /// This node's direct observations as gossip reports, stamped with
    /// `reporter` and `version` (callers bump the version on every
    /// publication so merges stay idempotent). The penalty is the local
    /// one: re-gossiping peers' claims as our own would launder hearsay.
    pub(crate) fn export_reports(&self, reporter: NodeId, version: u64) -> Vec<HealthReport> {
        self.devs
            .iter()
            .enumerate()
            .map(|(dev, d)| {
                let p50 = d.tracker.quantile(0.5);
                let p95 = d.tracker.quantile(0.95);
                HealthReport {
                    reporter,
                    device: dev as u32,
                    state: d.state.code(),
                    penalty: d.local_penalty(&self.cfg),
                    p50_ms: p50.unwrap_or(f64::NAN),
                    p95_ms: p95.unwrap_or(f64::NAN),
                    version,
                }
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    //! Step tests: made-up instants, one rule per test.
    use super::*;

    const FAST_MS: f64 = 10.0;
    const SLOW_MS: f64 = 150.0;

    fn cfg() -> HealthConfig {
        HealthConfig::default()
    }

    fn force(dev: usize, status: DeviceStatus) -> Input {
        Input::Force { dev, status }
    }

    fn view(fleet: &Fleet, dev: usize) -> DeviceView {
        fleet.snapshot().devices[dev]
    }

    /// A three-device fleet whose device 1 has a tight fast baseline, so
    /// the next slow latency is an outlier.
    fn warmed() -> Fleet {
        let mut fleet = Fleet::new(3, cfg());
        for i in 0..16 {
            let ms = FAST_MS + 0.1 * (i % 5) as f64;
            assert!(!fleet.step(i as f64, Input::Latency { dev: 1, ms }));
        }
        fleet
    }

    /// Walks device 1 of a warmed fleet into quarantine at t = 100..;
    /// returns the instant it was quarantined.
    fn quarantine(fleet: &mut Fleet) -> f64 {
        let c = cfg();
        for i in 0..c.suspect_after + c.quarantine_after {
            let now = 100.0 + f64::from(i);
            let shrank = fleet.step(now, Input::Latency { dev: 1, ms: SLOW_MS });
            if view(fleet, 1).state == HealthState::Quarantined {
                assert!(shrank, "entering quarantine leaves the placeable set");
                return now;
            }
            assert!(!shrank);
        }
        panic!("slow outliers did not quarantine: {:?}", view(fleet, 1));
    }

    fn claim(who: u64, dev: u32, penalty: f64) -> HealthReport {
        HealthReport {
            reporter: NodeId(who),
            device: dev,
            state: HealthState::Suspect.code(),
            penalty,
            p50_ms: f64::NAN,
            p95_ms: f64::NAN,
            version: 1,
        }
    }

    #[test]
    fn forced_down_leaves_the_placeable_set_once() {
        let mut fleet = Fleet::new(3, cfg());
        assert!(fleet.step(0.0, force(1, DeviceStatus::Down)));
        let d = view(&fleet, 1);
        assert!(d.down && !d.placeable);
        assert_eq!(d.state, HealthState::Healthy, "down is a flag, not a graded state");
        assert!(!fleet.step(10.0, force(1, DeviceStatus::Down)), "already down: no second purge");
        assert_eq!(fleet.snapshot().down_devices(), vec![1]);
    }

    #[test]
    fn forced_up_revives_and_clears_the_slowdown() {
        let mut fleet = Fleet::new(3, cfg());
        fleet.step(0.0, force(2, DeviceStatus::Slow(3.0)));
        fleet.step(5.0, force(2, DeviceStatus::Down));
        assert_eq!(view(&fleet, 2).penalty, 3.0, "a forced Down keeps the slowdown");
        assert!(!fleet.step(10.0, force(2, DeviceStatus::Up)), "reviving never purges");
        let d = view(&fleet, 2);
        assert!(!d.down && d.placeable);
        assert_eq!(d.penalty, 1.0);
    }

    #[test]
    fn forced_slow_penalizes_but_stays_placeable() {
        let mut fleet = Fleet::new(3, cfg());
        fleet.step(0.0, force(1, DeviceStatus::Down));
        assert!(!fleet.step(1.0, force(1, DeviceStatus::Slow(5.0))));
        let d = view(&fleet, 1);
        assert!(!d.down && d.placeable, "a straggler is up");
        assert_eq!((d.state, d.penalty), (HealthState::Healthy, 5.0));
        assert!(!fleet.is_nominal(), "a penalized fleet precomputes nothing");
        // Factors that would not slow anything carry no penalty.
        for f in [0.5, 1.0, f64::INFINITY, f64::NAN] {
            fleet.step(2.0, force(1, DeviceStatus::Slow(f)));
            assert_eq!(view(&fleet, 1).penalty, 1.0, "Slow({f})");
        }
        assert!(fleet.is_nominal());
    }

    #[test]
    fn failed_outcome_marks_down_and_a_success_revives() {
        let mut fleet = Fleet::new(3, cfg());
        assert!(fleet.step(0.0, Input::Outcome { dev: 1, ok: false }));
        let d = view(&fleet, 1);
        assert!(d.down && !d.placeable);
        assert_eq!(d.state, HealthState::Suspect, "a hard failure is a strong gray signal");
        assert!(!fleet.step(1.0, Input::Outcome { dev: 1, ok: false }), "still down");
        assert!(!fleet.step(2.0, Input::Outcome { dev: 1, ok: true }));
        let d = view(&fleet, 1);
        assert!(!d.down && d.placeable, "one success proves the device back");
        assert_eq!(d.state, HealthState::Suspect, "but the gray suspicion stays");
    }

    #[test]
    fn suspect_quarantined_probation_healthy() {
        let c = cfg();
        let mut fleet = warmed();
        for i in 0..c.suspect_after {
            fleet.step(50.0 + f64::from(i), Input::Latency { dev: 1, ms: SLOW_MS });
        }
        let d = view(&fleet, 1);
        assert_eq!(
            (d.state, d.penalty, d.placeable),
            (HealthState::Suspect, c.suspect_penalty, true)
        );
        // Inliers clear a suspect...
        for i in 0..c.clear_after {
            fleet.step(60.0 + f64::from(i), Input::Latency { dev: 1, ms: FAST_MS });
        }
        assert_eq!(view(&fleet, 1).state, HealthState::Healthy);
        // ...persistent outliers quarantine it.
        let at = quarantine(&mut fleet);
        let d = view(&fleet, 1);
        assert!(!d.placeable && !d.down && d.penalty.is_infinite());
        assert_eq!(fleet.snapshot().quarantined_devices(), vec![1]);
        // A late fast reply informs the tracker, not the state machine.
        fleet.step(at + 1.0, Input::Latency { dev: 1, ms: FAST_MS });
        assert_eq!(view(&fleet, 1).state, HealthState::Quarantined);
        // Polling before the backoff changes nothing; after it, probation.
        fleet.step(at + c.canary_backoff_ms - 1.0, Input::Poll);
        assert_eq!(view(&fleet, 1).state, HealthState::Quarantined);
        assert!(!fleet.step(at + c.canary_backoff_ms, Input::Poll));
        let d = view(&fleet, 1);
        assert_eq!(
            (d.state, d.penalty, d.placeable),
            (HealthState::Probation, c.probation_penalty, true)
        );
        // Passing canaries re-admit.
        for i in 0..c.probation_canaries {
            assert_eq!(view(&fleet, 1).state, HealthState::Probation);
            let now = at + c.canary_backoff_ms + 1.0 + f64::from(i);
            fleet.step(now, Input::Latency { dev: 1, ms: FAST_MS });
        }
        assert_eq!(view(&fleet, 1).state, HealthState::Healthy);
        let t = fleet.snapshot().transitions;
        assert_eq!((t.suspects, t.quarantines, t.readmissions), (2, 1, 1));
    }

    #[test]
    fn failed_canary_doubles_the_backoff_up_to_the_cap() {
        let c = cfg();
        let mut fleet = warmed();
        let mut at = quarantine(&mut fleet);
        let mut backoff = c.canary_backoff_ms;
        for _ in 0..6 {
            fleet.step(at + backoff, Input::Poll);
            assert_eq!(view(&fleet, 1).state, HealthState::Probation);
            let now = at + backoff + 1.0;
            assert!(fleet.step(now, Input::Latency { dev: 1, ms: SLOW_MS }), "re-quarantined");
            backoff = (backoff * 2.0).min(c.canary_backoff_max_ms);
            assert!(!fleet.canary_due(1, now + backoff - 1.0), "dwell is {backoff} ms");
            assert!(fleet.canary_due(1, now + backoff));
            at = now;
        }
        assert_eq!(backoff, c.canary_backoff_max_ms);
        assert_eq!(fleet.snapshot().transitions.quarantines, 7);
    }

    #[test]
    fn peer_penalty_is_capped_and_never_quarantines() {
        let c = cfg();
        let mut fleet = Fleet::new(3, c);
        let liars: Vec<_> = (1..=3).map(|who| claim(who, 1, 1e9)).collect();
        fleet.fold_peer_reports(&liars);
        let d = view(&fleet, 1);
        assert_eq!(d.penalty, c.peer_penalty_cap);
        assert_eq!(d.state, HealthState::Healthy);
        assert!(d.placeable);
        // What this node exports is its own evidence, never the hearsay.
        let me = NodeId(99);
        let exported = fleet.export_reports(me, 4);
        assert_eq!(exported.len(), 3);
        assert_eq!((exported[1].reporter, exported[1].version), (me, 4));
        assert_eq!(exported[1].penalty, 1.0);
        // Fewer reporters than the trim allows: the claim lapses.
        fleet.fold_peer_reports(&[claim(1, 1, 3.0)]);
        assert_eq!(view(&fleet, 1).penalty, 1.0);
    }

    #[test]
    fn device_zero_is_pinned_alive_and_healthy() {
        let mut fleet = Fleet::new(2, cfg());
        for i in 0..16 {
            fleet.step(i as f64, Input::Latency { dev: 0, ms: FAST_MS });
        }
        let inputs = [
            Input::Latency { dev: 0, ms: 1e4 },
            Input::LinkRtt { dev: 0, ms: 1e4 },
            Input::Outcome { dev: 0, ok: false },
            force(0, DeviceStatus::Down),
            force(0, DeviceStatus::Slow(10.0)),
        ];
        for (i, input) in inputs.iter().cycle().take(40).enumerate() {
            assert!(!fleet.step(20.0 + i as f64, *input), "{input:?}");
        }
        fleet.fold_peer_reports(&(1..=3).map(|who| claim(who, 0, 8.0)).collect::<Vec<_>>());
        let d = view(&fleet, 0);
        assert_eq!(
            d,
            DeviceView { down: false, state: HealthState::Healthy, placeable: true, penalty: 1.0 }
        );
        // Inputs naming devices the fleet does not have are ignored.
        assert!(!fleet.step(99.0, force(7, DeviceStatus::Down)));
        assert_eq!(fleet.snapshot().devices.len(), 2);
    }

    #[test]
    fn purge_fires_exactly_when_the_placeable_set_shrinks() {
        let c = cfg();
        let mut fleet = warmed();
        let mut shrinks = Vec::new();
        let mut feed = |fleet: &mut Fleet, now: f64, input: Input| {
            let before = fleet.snapshot().placeable_mask();
            let shrank = fleet.step(now, input);
            let after = fleet.snapshot().placeable_mask();
            let lost = before.iter().zip(&after).any(|(&b, &a)| b && !a);
            assert_eq!(shrank, lost, "{input:?} at {now}: {before:?} -> {after:?}");
            shrinks.push(shrank);
        };
        feed(&mut fleet, 20.0, force(2, DeviceStatus::Down));
        feed(&mut fleet, 21.0, force(2, DeviceStatus::Down));
        feed(&mut fleet, 22.0, Input::Outcome { dev: 2, ok: false });
        feed(&mut fleet, 23.0, force(2, DeviceStatus::Slow(2.0)));
        feed(&mut fleet, 24.0, force(2, DeviceStatus::Up));
        for i in 0..c.suspect_after + c.quarantine_after {
            feed(&mut fleet, 30.0 + f64::from(i), Input::Latency { dev: 1, ms: SLOW_MS });
        }
        // Down while quarantined: already out of the set.
        feed(&mut fleet, 40.0, Input::Outcome { dev: 1, ok: false });
        feed(&mut fleet, 41.0, Input::Outcome { dev: 1, ok: true });
        feed(&mut fleet, 40.0 + c.canary_backoff_ms, Input::Poll);
        feed(&mut fleet, 50.0 + c.canary_backoff_ms, Input::LinkRtt { dev: 1, ms: 5.0 });
        let expected = [true, false, false, false, false, false, false, false, false, false, true];
        assert_eq!(shrinks[..expected.len()], expected);
        assert!(shrinks[expected.len()..].iter().all(|&s| !s), "{shrinks:?}");
    }
}
