//! The Murmuration runtime: the per-request adaptation loop of Fig. 10.
//!
//! Each inference request: sample monitoring data → (optionally) forecast
//! near-future conditions and precompute strategies → decide model
//! selection + partitioning (cache-first) → reconfigure the in-memory
//! supernet → report the deployment's latency/accuracy under the *ground
//! truth* network (what a real request would experience).
//!
//! # Concurrency split
//!
//! The runtime comes in two flavours sharing one implementation:
//!
//! * [`SharedRuntime`] — `Send + Sync`, every method takes `&self`.
//!   Request-path state (strategy cache, device health, the resident
//!   supernet) lives behind interior locks so serve-layer workers can
//!   decide and deploy concurrently while monitoring ticks happen on a
//!   control thread. Per-request randomness comes from seeded streams
//!   ([`SharedRuntime::infer_seeded`]) so results are deterministic under
//!   concurrency.
//! * [`Runtime`] — the original single-threaded `&mut self + &mut Rng`
//!   API, now a thin wrapper that derefs to a [`SharedRuntime`]. Existing
//!   tests, figures, and examples run unchanged.

use crate::decision::DecisionModule;
use crate::gossip::{HealthReport, NodeId, ReputationAggregator, ReputationConfig};
use crate::health::{FleetHealth, HealthConfig, HealthEvent, HealthState, HealthTransitions};
use crate::monitor::{LinkEstimate, NetworkMonitor};
use crate::predictor::MonitorPredictor;
use crate::reconfig::InMemorySupernet;
use crate::slo::SloApi;
use murmuration_edgesim::{DeviceStatus, FleetTrace, NetworkState};
use murmuration_partition::compliance::Slo;
use murmuration_partition::evolutionary::Genome;
use murmuration_partition::pipeline::{plan_pipeline, score_pipeline, PipelinePlan};
use murmuration_partition::{ExecutionPlan, LatencyEstimator, ThroughputReport};
use murmuration_rl::{Condition, LstmPolicy, Scenario, SloKind};
use murmuration_supernet::{SubnetConfig, SubnetSpec};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Runtime tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// EWMA smoothing factor for monitoring.
    pub monitor_alpha: f64,
    /// Monitoring history window (samples).
    pub monitor_window: usize,
    /// Relative observation noise.
    pub monitor_noise: f64,
    /// Strategy-cache capacity.
    pub cache_capacity: usize,
    /// Forecast horizon for strategy precomputation (ms); 0 disables.
    pub precompute_horizon_ms: f64,
    /// Consecutive execution failures before a device is marked down.
    pub health_threshold: usize,
    /// Gray-failure (straggler) detection knobs.
    pub gray: HealthConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            monitor_alpha: 0.4,
            monitor_window: 8,
            monitor_noise: 0.05,
            cache_capacity: 512,
            precompute_horizon_ms: 500.0,
            health_threshold: 1,
            gray: HealthConfig::default(),
        }
    }
}

/// Why a request was served in degraded mode (empty when healthy).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Devices currently believed down, masked out of the decision.
    pub down_devices: Vec<usize>,
    /// Devices quarantined by the gray-failure detector: alive but so
    /// slow that placing work on them would blow the SLO.
    pub quarantined_devices: Vec<usize>,
    /// The decided plan was infeasible and the runtime fell back to
    /// running everything on the local device.
    pub forced_local: bool,
}

impl Degradation {
    /// Whether the request was served under any degradation at all.
    pub fn is_degraded(&self) -> bool {
        !self.down_devices.is_empty() || !self.quarantined_devices.is_empty() || self.forced_local
    }
}

/// Device-health bookkeeping: consecutive-failure counting with a
/// threshold, fed by executor outcomes. Device 0 (local) is never marked
/// down — the runtime itself runs there.
struct DeviceHealth {
    failures: Vec<usize>,
    down: Vec<bool>,
    threshold: usize,
}

impl DeviceHealth {
    fn new(n_devices: usize, threshold: usize) -> Self {
        DeviceHealth {
            failures: vec![0; n_devices],
            down: vec![false; n_devices],
            threshold: threshold.max(1),
        }
    }

    fn alive_mask(&self) -> Vec<bool> {
        self.down.iter().map(|&d| !d).collect()
    }

    fn record(&mut self, dev: usize, ok: bool) {
        if dev == 0 || dev >= self.down.len() {
            return;
        }
        if ok {
            self.failures[dev] = 0;
            self.down[dev] = false;
        } else {
            self.failures[dev] += 1;
            if self.failures[dev] >= self.threshold {
                self.down[dev] = true;
            }
        }
    }

    fn force(&mut self, dev: usize, down: bool) {
        if dev == 0 || dev >= self.down.len() {
            return;
        }
        self.down[dev] = down;
        if !down {
            self.failures[dev] = 0;
        }
    }
}

/// Per-request report.
#[derive(Clone, Debug)]
pub struct RequestReport {
    /// Was the strategy a cache hit?
    pub cached: bool,
    /// Measured wall time of the decision (policy or cache).
    pub decision_time: Duration,
    /// Measured wall time of the submodel switch.
    pub switch_time: Duration,
    /// Deployment latency under the ground-truth network (ms).
    pub latency_ms: f64,
    /// Predicted accuracy of the selected submodel (%).
    pub accuracy_pct: f32,
    /// Whether the current SLO was met.
    pub slo_met: bool,
    /// Devices the deployed plan actually uses.
    pub devices_used: Vec<usize>,
    /// Fault-recovery state this request was served under.
    pub degradation: Degradation,
}

/// A decided strategy on the serve path: what the policy (or cache)
/// selected for one request's SLO, before deployment. Cheap to clone;
/// the serve layer's micro-batcher groups requests by [`actions`]
/// (identical actions ⇒ identical subnet ⇒ one switch serves the batch).
///
/// [`actions`]: ServeDecision::actions
#[derive(Clone, Debug)]
pub struct ServeDecision {
    /// The raw decision sequence — the batch-grouping key.
    pub actions: Vec<usize>,
    /// Decoded subnet config + placement preferences.
    pub genome: Genome,
    /// Whether the strategy came from the cache.
    pub cached: bool,
    /// Measured wall time of the decision.
    pub decision_time: Duration,
    /// The request SLO the decision was made for (deployment is judged
    /// against this, not the runtime-global SLO).
    pub slo: Slo,
}

/// Outcome of deploying a [`ServeDecision`] under ground-truth network
/// conditions.
#[derive(Clone, Debug)]
pub struct DeployReport {
    /// Measured wall time of the submodel switch.
    pub switch_time: Duration,
    /// Deployment latency under the ground-truth network (ms).
    pub latency_ms: f64,
    /// Predicted accuracy of the selected submodel (%).
    pub accuracy_pct: f32,
    /// Whether the *decision's* SLO was met.
    pub slo_met: bool,
    /// Devices the deployed plan actually uses.
    pub devices_used: Vec<usize>,
    /// Fault-recovery state the deployment was served under.
    pub degradation: Degradation,
}

/// A throughput-mode deployment: the subnet choice plus its pipeline
/// placement, scored by the bottleneck-stage objective.
#[derive(Clone, Debug)]
pub struct PipelineDeploy {
    /// The subnet the decision module picked for this SLO.
    pub config: SubnetConfig,
    /// Stage split: contiguous unit ranges, one distinct device each.
    pub plan: PipelinePlan,
    /// Per-stage cost decomposition, bottleneck, and fill latency.
    pub report: ThroughputReport,
    /// Per-request time of the all-on-coordinator fallback used when a
    /// stage device dies mid-stream (also the non-pipelined baseline).
    pub fallback_ms: f64,
    /// Predicted accuracy of the selected submodel (%).
    pub accuracy_pct: f32,
    /// The SLO the decision targeted.
    pub slo: Slo,
}

/// The assembled runtime with `&self` methods throughout — safe to share
/// across serve-layer worker threads via `Arc`.
pub struct SharedRuntime {
    pub slo: SloApi,
    monitor: Mutex<NetworkMonitor>,
    decision: DecisionModule,
    supernet: Mutex<InMemorySupernet>,
    health: Mutex<DeviceHealth>,
    gray: Mutex<FleetHealth>,
    /// Per-reporter reputation for gossiped health claims.
    reputation: Mutex<ReputationAggregator>,
    cfg: RuntimeConfig,
    /// Latest virtual time seen by tick/infer (f64 bits).
    last_t_ms: AtomicU64,
}

impl SharedRuntime {
    /// Assembles a runtime from a scenario and a trained policy.
    pub fn new(
        scenario: Scenario,
        policy: LstmPolicy,
        cfg: RuntimeConfig,
        initial_slo: Slo,
    ) -> Self {
        let n_remote = scenario.n_remote();
        let n_devices = scenario.devices.len();
        let space = scenario.space.clone();
        check_slo_kind(&scenario, &initial_slo);
        SharedRuntime {
            slo: SloApi::new(initial_slo),
            monitor: Mutex::new(NetworkMonitor::new(
                n_remote,
                cfg.monitor_alpha,
                cfg.monitor_window,
                cfg.monitor_noise,
            )),
            decision: DecisionModule::new(scenario, policy, cfg.cache_capacity),
            supernet: Mutex::new(InMemorySupernet::new(space)),
            health: Mutex::new(DeviceHealth::new(n_devices, cfg.health_threshold)),
            gray: Mutex::new(FleetHealth::new(n_devices, cfg.gray)),
            reputation: Mutex::new(ReputationAggregator::new(ReputationConfig::default())),
            cfg,
            last_t_ms: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// The scenario the runtime serves.
    pub fn scenario(&self) -> &Scenario {
        self.decision.scenario()
    }

    /// Current SLO as the scenario's scalar goal.
    fn slo_scalar(&self) -> f64 {
        match self.slo.get() {
            Slo::LatencyMs(v) => v,
            Slo::AccuracyPct(v) => f64::from(v),
        }
    }

    /// Maps an arbitrary per-request SLO onto the scenario's scalar goal
    /// axis. Same-kind SLOs pass through; cross-kind SLOs (e.g. an
    /// accuracy-floor request on a latency-trained policy) map to the most
    /// permissive goal of the trained kind — the largest latency budget or
    /// the lowest accuracy floor — which selects the largest feasible
    /// submodel; the request's own SLO is then judged on the outcome.
    pub fn decision_scalar(&self, slo: &Slo) -> f64 {
        let sc = self.scenario();
        match (sc.slo_kind, slo) {
            (SloKind::Latency, Slo::LatencyMs(v)) => *v,
            (SloKind::Accuracy, Slo::AccuracyPct(v)) => f64::from(*v),
            (SloKind::Latency, Slo::AccuracyPct(_)) => sc.slo_range.1,
            (SloKind::Accuracy, Slo::LatencyMs(_)) => sc.slo_range.0,
        }
    }

    /// Current liveness belief, one flag per device (device 0 is the local
    /// device and always alive).
    pub fn alive_mask(&self) -> Vec<bool> {
        self.health.lock().alive_mask()
    }

    /// Feeds one executor outcome into health tracking: `ok = false`
    /// counts toward the consecutive-failure threshold, `ok = true` clears
    /// it (and revives a device believed down). When a device crosses the
    /// threshold, every cached strategy that placed work on it is purged.
    /// Hard failures are also gray signals — a flapping worker should not
    /// re-enter the fleet as a first-class citizen.
    pub fn report_exec_outcome(&self, dev: usize, ok: bool) {
        let newly_down = {
            let mut health = self.health.lock();
            let was_down = health.down.get(dev).copied().unwrap_or(false);
            health.record(dev, ok);
            let is_down = health.down.get(dev).copied().unwrap_or(false);
            is_down && !was_down
        };
        let ev =
            if ok { HealthEvent::None } else { self.gray.lock().on_failure(dev, self.last_t_ms()) };
        if newly_down || ev == HealthEvent::Quarantined {
            self.decision.purge_infeasible(&self.placeable_mask());
        }
    }

    /// Feeds one *successful* execution's measured latency into the
    /// gray-failure detector. Latency outliers walk a device through
    /// `Suspect → Probation → Quarantined`; quarantining purges every
    /// cached strategy that placed work on the device, and re-admission
    /// never resurrects them (they were dropped, not suspended).
    pub fn report_exec_latency(&self, dev: usize, latency_ms: f64, t_ms: f64) {
        let ev = self.gray.lock().on_success(dev, latency_ms, t_ms);
        match ev {
            HealthEvent::Quarantined => {
                self.decision.purge_infeasible(&self.placeable_mask());
            }
            HealthEvent::Readmitted | HealthEvent::None => {}
        }
    }

    /// Feeds a transport heartbeat RTT into the gray-failure detector: a
    /// congested or lossy link makes a device slow even when its compute
    /// is fine.
    pub fn report_link_rtt(&self, dev: usize, rtt_ms: f64, t_ms: f64) {
        let ev = self.gray.lock().on_link_rtt(dev, rtt_ms, t_ms);
        if ev == HealthEvent::Quarantined {
            self.decision.purge_infeasible(&self.placeable_mask());
        }
    }

    /// Advances the gray-health clock: quarantined devices whose canary
    /// backoff elapsed move to probation (placeable again, under penalty,
    /// until canaries pass or fail). Call from the control loop.
    pub fn poll_gray(&self, t_ms: f64) {
        self.gray.lock().poll(t_ms);
    }

    /// Per-device graded health states from the gray-failure detector.
    pub fn gray_states(&self) -> Vec<HealthState> {
        self.gray.lock().states()
    }

    /// Per-device soft routing penalties (1.0 = healthy, `inf` =
    /// quarantined).
    pub fn gray_penalties(&self) -> Vec<f64> {
        self.gray.lock().penalties()
    }

    /// Where work may be placed: alive (crash detector) *and* not
    /// quarantined (gray detector). This is the mask decisions and
    /// feasibility checks run against.
    pub fn placeable_mask(&self) -> Vec<bool> {
        let alive = self.alive_mask();
        let gray = self.gray.lock().placeable_mask();
        alive.iter().zip(gray.iter()).map(|(&a, &g)| a && g).collect()
    }

    fn last_t_ms(&self) -> f64 {
        f64::from_bits(self.last_t_ms.load(Ordering::Relaxed))
    }

    /// Manually marks a device down (e.g. from an out-of-band failure
    /// detector). Cached strategies using it are purged.
    pub fn set_device_down(&self, dev: usize) {
        self.health.lock().force(dev, true);
        self.decision.purge_infeasible(&self.placeable_mask());
    }

    /// Manually revives a device.
    pub fn set_device_up(&self, dev: usize) {
        self.health.lock().force(dev, false);
    }

    /// Syncs health from a fault trace at virtual time `t_ms`. `Slow`
    /// devices stay up but carry a virtual slowdown in the gray-failure
    /// detector, so decisions route around them proportionally (a 10×
    /// brownout is worth avoiding even before the latency trackers see
    /// it).
    pub fn apply_fleet_trace(&self, fleet: &FleetTrace, t_ms: f64) {
        let n = self.scenario().devices.len().min(fleet.n_devices());
        for dev in 1..n {
            match fleet.status(dev, t_ms) {
                DeviceStatus::Down => self.set_device_down(dev),
                DeviceStatus::Up => {
                    self.set_device_up(dev);
                    self.gray.lock().set_virtual_slowdown(dev, None);
                }
                DeviceStatus::Slow(f) => {
                    self.set_device_up(dev);
                    self.gray.lock().set_virtual_slowdown(dev, Some(f));
                }
            }
        }
        self.poll_gray(t_ms);
    }

    /// Clamps the links of unplaceable devices to the scenario's worst
    /// grid corner (minimum bandwidth, maximum delay) so the policy —
    /// which knows nothing about faults — is steered away from them, on
    /// top of the hard feasibility mask, and degrades the links of
    /// penalized (Suspect/Probation) devices proportionally so the policy
    /// routes *around* stragglers without banning them. Remote link `i`
    /// serves device `i + 1`.
    fn mask_condition(
        &self,
        mut cond: Condition,
        placeable: &[bool],
        penalty: &[f64],
    ) -> Condition {
        let sc = self.scenario();
        for (i, (bw, delay)) in cond.bw_mbps.iter_mut().zip(cond.delay_ms.iter_mut()).enumerate() {
            if !placeable.get(i + 1).copied().unwrap_or(false) {
                *bw = sc.bw_range.0;
                *delay = sc.delay_range.1;
                continue;
            }
            let p = penalty.get(i + 1).copied().unwrap_or(1.0);
            if p > 1.0 && p.is_finite() {
                *bw = (*bw / p).max(sc.bw_range.0);
                *delay = (*delay * p).min(sc.delay_range.1);
            }
        }
        cond
    }

    /// Background tick: sample monitoring and precompute a strategy for
    /// the forecast condition. Skipped while degraded — precomputed
    /// strategies would not be cacheable anyway (see
    /// [`DecisionModule::decide_masked`]). On the serve path this runs on
    /// the control thread; workers never touch the monitor.
    pub fn tick<R: Rng>(&self, net_truth: &NetworkState, t_ms: f64, rng: &mut R) {
        self.poll_gray(t_ms);
        let forecast = {
            let mut monitor = self.monitor.lock();
            monitor.sample(net_truth, t_ms, rng);
            self.last_t_ms.store(t_ms.to_bits(), Ordering::Relaxed);
            let placeable = self.placeable_mask();
            let penalized = self.gray_penalties().iter().any(|&p| p > 1.0);
            if self.cfg.precompute_horizon_ms > 0.0 && !penalized && placeable.iter().all(|&a| a) {
                Some(MonitorPredictor::predict(
                    &monitor,
                    self.scenario().n_remote(),
                    t_ms + self.cfg.precompute_horizon_ms,
                ))
            } else {
                None
            }
        };
        if let Some(forecast) = forecast {
            let cond = self.decision.condition(self.slo_scalar(), &forecast);
            self.decision.precompute(&cond);
        }
    }

    /// Whether the monitor has taken at least one sample (serve-path
    /// decisions need an estimate to decide on).
    pub fn monitor_ready(&self) -> bool {
        self.monitor.lock().is_ready()
    }

    /// Serves one inference request at virtual time `t_ms`. Never panics
    /// on device loss: dead devices are masked out of the decision, and if
    /// the decided plan is still infeasible the runtime falls back to an
    /// all-local plan and reports the degradation.
    pub fn infer<R: Rng>(&self, net_truth: &NetworkState, t_ms: f64, rng: &mut R) -> RequestReport {
        self.poll_gray(t_ms);
        // Fresh monitoring sample for this request.
        let estimates = {
            let mut monitor = self.monitor.lock();
            monitor.sample(net_truth, t_ms, rng);
            self.last_t_ms.store(t_ms.to_bits(), Ordering::Relaxed);
            monitor.estimates()
        };
        let decision = self.decide_for(self.slo.get(), &estimates);
        let deploy = self.deploy(&decision, net_truth);
        RequestReport {
            cached: decision.cached,
            decision_time: decision.decision_time,
            switch_time: deploy.switch_time,
            latency_ms: deploy.latency_ms,
            accuracy_pct: deploy.accuracy_pct,
            slo_met: deploy.slo_met,
            devices_used: deploy.devices_used,
            degradation: deploy.degradation,
        }
    }

    /// [`infer`](Self::infer) with a per-request seeded RNG stream:
    /// request `seed`s can be derived (e.g. `base ^ request_id`) so a
    /// concurrent serve trace reproduces the exact monitoring observations
    /// of a sequential replay, independent of worker interleaving.
    pub fn infer_seeded(&self, net_truth: &NetworkState, t_ms: f64, seed: u64) -> RequestReport {
        let mut rng = StdRng::seed_from_u64(seed);
        self.infer(net_truth, t_ms, &mut rng)
    }

    /// Serve-path decision: picks a strategy for `slo` from the *current*
    /// monitor estimates without sampling (monitoring belongs to the
    /// control thread's [`tick`](Self::tick)). Returns `None` until the
    /// monitor has sampled at least once.
    pub fn serve_decide(&self, slo: Slo) -> Option<ServeDecision> {
        let monitor = self.monitor.lock();
        if !monitor.is_ready() {
            return None;
        }
        let estimates = monitor.estimates();
        drop(monitor);
        Some(self.decide_for(slo, &estimates))
    }

    /// Decision core shared by [`infer`](Self::infer) and
    /// [`serve_decide`](Self::serve_decide).
    fn decide_for(&self, slo: Slo, estimates: &[LinkEstimate]) -> ServeDecision {
        let placeable = self.placeable_mask();
        let penalty = self.gray_penalties();
        let raw_cond = self.decision.condition(self.decision_scalar(&slo), estimates);
        let cond = self.mask_condition(raw_cond, &placeable, &penalty);
        // A penalized condition is transient fleet state, not a network
        // observation: caching it would serve straggler-avoiding plans
        // long after the straggler recovered.
        let allow_cache = penalty.iter().all(|&p| p == 1.0);
        let t0 = Instant::now();
        let decision = self.decision.decide_masked_cached(&cond, &placeable, allow_cache);
        let decision_time = t0.elapsed();
        ServeDecision {
            actions: decision.actions,
            genome: decision.genome,
            cached: decision.cached,
            decision_time,
            slo,
        }
    }

    /// Deploys a decision: switches the resident supernet (one lock-held
    /// pointer-level reconfiguration — a batch of same-subnet requests
    /// pays this once) and reports the ground-truth outcome, judged
    /// against the decision's SLO. Falls back to an all-local plan when
    /// the decided plan touches a device that died after the decision.
    pub fn deploy(&self, decision: &ServeDecision, net_truth: &NetworkState) -> DeployReport {
        let alive = self.alive_mask();
        let placeable = self.placeable_mask();
        let quarantined_devices: Vec<usize> = self
            .gray_states()
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == HealthState::Quarantined)
            .map(|(d, _)| d)
            .collect();
        let switch = self.supernet.lock().switch_submodel(decision.genome.config.clone());
        let spec = SubnetSpec::lower(&decision.genome.config);
        let mut plan = decision.genome.plan(&spec, self.scenario().devices.len());
        let mut forced_local = false;
        if !plan.is_feasible(&placeable) {
            // Last-resort degradation: the masked decision still touched a
            // dead device (e.g. the whole fleet dropped at once). Serve
            // the request locally rather than fail it.
            plan = ExecutionPlan::all_on(&spec, 0);
            forced_local = true;
        }
        let est = LatencyEstimator::new(&self.scenario().devices, net_truth);
        let latency_ms = est.estimate(&spec, &plan).total_ms;
        let accuracy_pct = self.scenario().accuracy_model.predict(&decision.genome.config);
        let slo_met = match decision.slo {
            Slo::LatencyMs(v) => latency_ms <= v,
            Slo::AccuracyPct(v) => accuracy_pct >= v,
        };
        let down_devices: Vec<usize> =
            alive.iter().enumerate().filter(|(_, &a)| !a).map(|(d, _)| d).collect();
        DeployReport {
            switch_time: switch.elapsed,
            latency_ms,
            accuracy_pct,
            slo_met,
            devices_used: plan.devices_used(),
            degradation: Degradation { down_devices, quarantined_devices, forced_local },
        }
    }

    /// Throughput-mode deployment: picks a subnet for `slo` exactly like
    /// [`serve_decide`](Self::serve_decide), then places its stages as a
    /// pipeline over the currently placeable devices using the
    /// bottleneck-stage objective ([`plan_pipeline`]) instead of the
    /// end-to-end latency estimator. Returns `None` until the monitor is
    /// ready or when no device can host a stage.
    pub fn pipeline_decide(&self, slo: Slo, net_truth: &NetworkState) -> Option<PipelineDeploy> {
        let decision = self.serve_decide(slo)?;
        let spec = SubnetSpec::lower(&decision.genome.config);
        let placeable = self.placeable_mask();
        let devices = &self.scenario().devices;
        let (plan, report) = plan_pipeline(&spec, devices, net_truth, &placeable, 8)?;
        // What the coordinator alone would pay per request: the rescue
        // path when stage devices die mid-stream, and the non-pipelined
        // baseline the throughput win is judged against.
        let solo = score_pipeline(&spec, &PipelinePlan::all_on(&spec, 0), devices, net_truth);
        let accuracy_pct = self.scenario().accuracy_model.predict(&decision.genome.config);
        Some(PipelineDeploy {
            config: decision.genome.config.clone(),
            plan,
            report,
            fallback_ms: solo.fill_ms,
            accuracy_pct,
            slo,
        })
    }

    /// Builds the condition the runtime would decide on right now
    /// (exposed for inspection and tests).
    pub fn current_condition(&self) -> Option<Condition> {
        let monitor = self.monitor.lock();
        if !monitor.is_ready() {
            return None;
        }
        Some(self.decision.condition(self.slo_scalar(), &monitor.estimates()))
    }

    /// Strategy-cache statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.decision.cache_stats()
    }

    /// Monotone gray-health transition counters (suspects, quarantines,
    /// re-admissions) — the robustness metrics the serve layer surfaces.
    pub fn gray_transitions(&self) -> HealthTransitions {
        self.gray.lock().transitions()
    }

    /// Exports this node's direct graded-health observations as gossip
    /// health reports, stamped with `reporter` and `version` (callers
    /// bump the version each publication so merges stay idempotent).
    pub fn export_health_reports(&self, reporter: NodeId, version: u64) -> Vec<HealthReport> {
        let gray = self.gray.lock();
        (0..gray.n_devices())
            .map(|dev| {
                let (p50, p95) = gray.latency_digest(dev).unwrap_or((f64::NAN, f64::NAN));
                HealthReport {
                    reporter,
                    device: dev as u32,
                    state: gray.state(dev).code(),
                    penalty: gray.local_penalty(dev),
                    p50_ms: p50,
                    p95_ms: p95,
                    version,
                }
            })
            .collect()
    }

    /// Folds peer-reported health claims into routing penalties.
    ///
    /// Per device, the claims go through the reputation-weighted trimmed
    /// mean ([`ReputationAggregator::aggregate`]); the result lands in
    /// [`FleetHealth::set_peer_penalty`], which caps it and never touches
    /// the placeable mask — a gossiped claim can steer routing, but
    /// quarantine still requires local evidence plus a local canary pass.
    /// Where this node has enough *direct* observations of a device,
    /// each reporter's claim is also scored against them, so reporters
    /// who repeatedly contradict reality lose weight.
    pub fn fold_peer_reports(&self, reports: &[HealthReport]) {
        let n = self.scenario().devices.len();
        let mut by_dev: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
        for r in reports {
            if let Some(claims) = by_dev.get_mut(r.device as usize) {
                claims.push((r.reporter, r.penalty));
            }
        }
        let mut rep = self.reputation.lock();
        let mut gray = self.gray.lock();
        let min_samples = self.cfg.gray.min_samples;
        for (dev, claims) in by_dev.iter().enumerate() {
            if dev == 0 || claims.is_empty() {
                continue;
            }
            if gray.local_samples(dev) >= min_samples {
                let observed = gray.local_penalty(dev);
                for (who, claimed) in claims {
                    rep.observe(*who, *claimed, observed);
                }
            }
            gray.set_peer_penalty(dev, rep.aggregate(claims));
        }
    }

    /// Current reputation weight of a gossip reporter (1.0 = trusted).
    pub fn reputation_weight(&self, reporter: NodeId) -> f64 {
        self.reputation.lock().weight(reporter)
    }

    /// Replaces the reputation-aggregation policy (weights reset). Small
    /// deployments need this: the default `trim = 1` requires three
    /// reporters per device before any peer claim takes effect, so a
    /// primary/standby pair — one reporter — sets `trim = 0` and accepts
    /// the other coordinator's claims at face value.
    pub fn set_reputation_config(&self, cfg: ReputationConfig) {
        *self.reputation.lock() = ReputationAggregator::new(cfg);
    }
}

/// The assembled runtime — the original single-threaded API, kept as a
/// thin wrapper over [`SharedRuntime`] so existing callers (tests,
/// figures, examples) are untouched. Derefs to [`SharedRuntime`] for the
/// read-only surface (`scenario()`, `alive_mask()`, the `slo` field, …).
pub struct Runtime {
    shared: SharedRuntime,
}

impl Deref for Runtime {
    type Target = SharedRuntime;
    fn deref(&self) -> &SharedRuntime {
        &self.shared
    }
}

impl Runtime {
    /// Assembles a runtime from a scenario and a trained policy.
    pub fn new(
        scenario: Scenario,
        policy: LstmPolicy,
        cfg: RuntimeConfig,
        initial_slo: Slo,
    ) -> Self {
        Runtime { shared: SharedRuntime::new(scenario, policy, cfg, initial_slo) }
    }

    /// Background tick: sample monitoring and precompute strategies.
    pub fn tick<R: Rng>(&mut self, net_truth: &NetworkState, t_ms: f64, rng: &mut R) {
        self.shared.tick(net_truth, t_ms, rng);
    }

    /// Serves one inference request at virtual time `t_ms`.
    pub fn infer<R: Rng>(
        &mut self,
        net_truth: &NetworkState,
        t_ms: f64,
        rng: &mut R,
    ) -> RequestReport {
        self.shared.infer(net_truth, t_ms, rng)
    }

    /// Feeds one executor outcome into device-health tracking.
    pub fn report_exec_outcome(&mut self, dev: usize, ok: bool) {
        self.shared.report_exec_outcome(dev, ok);
    }

    /// Manually marks a device down.
    pub fn set_device_down(&mut self, dev: usize) {
        self.shared.set_device_down(dev);
    }

    /// Manually revives a device.
    pub fn set_device_up(&mut self, dev: usize) {
        self.shared.set_device_up(dev);
    }

    /// Syncs health from a fault trace at virtual time `t_ms`.
    pub fn apply_fleet_trace(&mut self, fleet: &FleetTrace, t_ms: f64) {
        self.shared.apply_fleet_trace(fleet, t_ms);
    }

    /// Unwraps into the shareable runtime (for `Arc`-ing into the serve
    /// layer).
    pub fn into_shared(self) -> SharedRuntime {
        self.shared
    }
}

fn check_slo_kind(scenario: &Scenario, slo: &Slo) {
    let ok = matches!(
        (scenario.slo_kind, slo),
        (SloKind::Latency, Slo::LatencyMs(_)) | (SloKind::Accuracy, Slo::AccuracyPct(_))
    );
    assert!(ok, "SLO type must match the scenario's trained goal kind");
}

#[cfg(test)]
mod tests {
    use super::*;
    use murmuration_edgesim::LinkState;
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::Arc;

    fn runtime() -> Runtime {
        let sc = Scenario::augmented_computing(SloKind::Latency);
        let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0);
        Runtime::new(sc, policy, RuntimeConfig::default(), Slo::LatencyMs(140.0))
    }

    fn lan() -> NetworkState {
        NetworkState::uniform(1, LinkState { bandwidth_mbps: 200.0, delay_ms: 10.0 })
    }

    #[test]
    fn requests_produce_reports() {
        let mut rt = runtime();
        let mut rng = StdRng::seed_from_u64(0);
        let net = lan();
        let r = rt.infer(&net, 0.0, &mut rng);
        assert!(r.latency_ms > 0.0 && r.latency_ms.is_finite());
        assert!((70.0..81.0).contains(&r.accuracy_pct));
        assert!(!r.cached, "first request must miss the cache");
    }

    #[test]
    fn repeat_requests_hit_cache_and_are_faster_to_decide() {
        let mut rt = runtime();
        let mut rng = StdRng::seed_from_u64(1);
        let net = lan();
        let _ = rt.infer(&net, 0.0, &mut rng);
        let r2 = rt.infer(&net, 100.0, &mut rng);
        assert!(r2.cached, "stable conditions must hit the strategy cache");
        assert!(rt.cache_stats().hits >= 1);
    }

    #[test]
    fn tick_precomputes_for_stable_network() {
        let mut rt = runtime();
        let mut rng = StdRng::seed_from_u64(2);
        let net = lan();
        for t in 0..4 {
            rt.tick(&net, t as f64 * 100.0, &mut rng);
        }
        // Ticks are not requests: the first filled the bucket and the rest
        // found it filled, and none of them is booked as a hit or a miss.
        assert_eq!(rt.cache_stats(), crate::cache::CacheStats::default());
        // The forecast equals the stable present → the first real request
        // is already cached.
        let r = rt.infer(&net, 500.0, &mut rng);
        assert!(r.cached, "precompute must warm the cache under stable conditions");
        assert_eq!(rt.cache_stats(), crate::cache::CacheStats { hits: 1, misses: 0 });
    }

    #[test]
    fn slo_change_takes_effect() {
        let mut rt = runtime();
        let mut rng = StdRng::seed_from_u64(3);
        let net = lan();
        let _ = rt.infer(&net, 0.0, &mut rng);
        rt.slo.set_latency_ms(81.0);
        let r = rt.infer(&net, 100.0, &mut rng);
        // Report must be judged against the *new* SLO.
        assert_eq!(r.slo_met, r.latency_ms <= 81.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_slo_kind_is_rejected() {
        let sc = Scenario::augmented_computing(SloKind::Latency);
        let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0);
        let _ = Runtime::new(sc, policy, RuntimeConfig::default(), Slo::AccuracyPct(75.0));
    }

    #[test]
    fn dead_device_is_masked_out_of_decisions() {
        let mut rt = runtime();
        let mut rng = StdRng::seed_from_u64(5);
        let net = lan();
        let r = rt.infer(&net, 0.0, &mut rng);
        assert!(!r.degradation.is_degraded(), "healthy fleet reports no degradation");
        // Device 1 dies (its worker failed once; threshold is 1).
        rt.report_exec_outcome(1, false);
        assert!(!rt.alive_mask()[1]);
        let r = rt.infer(&net, 100.0, &mut rng);
        assert_eq!(r.degradation.down_devices, vec![1]);
        assert!(!r.devices_used.contains(&1), "plan must avoid the dead device");
        // Recovery: a success on the device revives it.
        rt.report_exec_outcome(1, true);
        let r = rt.infer(&net, 200.0, &mut rng);
        assert!(!r.degradation.is_degraded());
    }

    #[test]
    fn infer_never_panics_with_all_remotes_down() {
        let mut rt = runtime();
        let mut rng = StdRng::seed_from_u64(6);
        let net = lan();
        for dev in 1..rt.scenario().devices.len() {
            rt.set_device_down(dev);
        }
        let r = rt.infer(&net, 0.0, &mut rng);
        assert!(r.latency_ms.is_finite());
        assert_eq!(r.devices_used, vec![0], "only the local device may serve");
        assert!(r.degradation.is_degraded());
        // Local device can never be marked down.
        rt.report_exec_outcome(0, false);
        assert!(rt.alive_mask()[0]);
    }

    #[test]
    fn fleet_trace_drives_runtime_health() {
        use murmuration_edgesim::DeviceTrace;
        let mut rt = runtime();
        let n = rt.scenario().devices.len();
        let mut fleet = FleetTrace::always_up(n);
        fleet.set(1, DeviceTrace::down_between(50.0, 150.0));
        rt.apply_fleet_trace(&fleet, 0.0);
        assert!(rt.alive_mask().iter().all(|&a| a));
        rt.apply_fleet_trace(&fleet, 100.0);
        assert!(!rt.alive_mask()[1]);
        rt.apply_fleet_trace(&fleet, 200.0);
        assert!(rt.alive_mask()[1]);
    }

    #[test]
    fn switch_time_is_fast() {
        let mut rt = runtime();
        let mut rng = StdRng::seed_from_u64(4);
        let net = lan();
        let r = rt.infer(&net, 0.0, &mut rng);
        assert!(r.switch_time < Duration::from_millis(50), "{:?}", r.switch_time);
    }

    #[test]
    fn seeded_infer_is_deterministic() {
        let rt_a = runtime().into_shared();
        let rt_b = runtime().into_shared();
        let net = lan();
        let a = rt_a.infer_seeded(&net, 0.0, 42);
        let b = rt_b.infer_seeded(&net, 0.0, 42);
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.accuracy_pct, b.accuracy_pct);
        assert_eq!(a.devices_used, b.devices_used);
    }

    #[test]
    fn serve_decide_requires_a_monitor_sample() {
        let rt = runtime().into_shared();
        assert!(!rt.monitor_ready());
        assert!(rt.serve_decide(Slo::LatencyMs(140.0)).is_none());
        let mut rng = StdRng::seed_from_u64(7);
        rt.tick(&lan(), 0.0, &mut rng);
        let d = rt.serve_decide(Slo::LatencyMs(140.0)).unwrap();
        let report = rt.deploy(&d, &lan());
        assert!(report.latency_ms.is_finite() && report.latency_ms > 0.0);
        assert_eq!(report.slo_met, report.latency_ms <= 140.0);
    }

    #[test]
    fn cross_kind_slo_maps_to_permissive_goal() {
        let rt = runtime().into_shared();
        // Accuracy request on a latency-trained scenario: decide with the
        // largest latency budget (largest submodels → best accuracy).
        let scalar = rt.decision_scalar(&Slo::AccuracyPct(75.0));
        assert_eq!(scalar, rt.scenario().slo_range.1);
        let same = rt.decision_scalar(&Slo::LatencyMs(123.0));
        assert_eq!(same, 123.0);
    }

    #[test]
    fn peer_reports_steer_routing_but_never_quarantine() {
        let rt = runtime().into_shared();
        let claim = |who: u64, penalty: f64| HealthReport {
            reporter: NodeId(who),
            device: 1,
            state: HealthState::Suspect.code(),
            penalty,
            p50_ms: f64::NAN,
            p95_ms: f64::NAN,
            version: 1,
        };
        // Three agreeing reporters: the trimmed mean lands as a routing
        // penalty, but the device stays placeable and locally Healthy.
        rt.fold_peer_reports(&[claim(1, 3.0), claim(2, 3.0), claim(3, 3.0)]);
        assert_eq!(rt.gray_penalties()[1], 3.0);
        assert!(rt.placeable_mask()[1]);
        assert_eq!(rt.gray_states()[1], HealthState::Healthy);
        // One liar among honest reporters is trimmed away entirely.
        rt.fold_peer_reports(&[claim(1, 1.0), claim(2, 1.0), claim(3, 16.0)]);
        assert_eq!(rt.gray_penalties()[1], 1.0);
        // Too few reports: local evidence rules (no peer penalty).
        rt.fold_peer_reports(&[claim(1, 4.0)]);
        assert_eq!(rt.gray_penalties()[1], 1.0);
    }

    #[test]
    fn exported_reports_carry_local_observations() {
        let rt = runtime().into_shared();
        for i in 0..16 {
            rt.report_exec_latency(1, 12.0 + (i % 3) as f64, i as f64);
        }
        let me = NodeId::derive(9, 0);
        let reports = rt.export_health_reports(me, 5);
        assert_eq!(reports.len(), rt.scenario().devices.len());
        let r1 = &reports[1];
        assert_eq!(r1.reporter, me);
        assert_eq!(r1.version, 5);
        assert_eq!(r1.penalty, 1.0);
        assert!(r1.p50_ms > 0.0 && r1.p95_ms >= r1.p50_ms);
    }

    #[test]
    fn shared_runtime_serves_concurrent_workers() {
        let rt = Arc::new(runtime().into_shared());
        let net = lan();
        let mut rng = StdRng::seed_from_u64(8);
        rt.tick(&net, 0.0, &mut rng);
        // The single-threaded reference decision for the same SLO.
        let reference = rt.serve_decide(Slo::LatencyMs(140.0)).unwrap();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let rt = rt.clone();
                let net = net.clone();
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    for _ in 0..25 {
                        let d = rt.serve_decide(Slo::LatencyMs(140.0)).unwrap();
                        let r = rt.deploy(&d, &net);
                        out.push((d.actions, r.latency_ms));
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            for (actions, latency) in w.join().unwrap() {
                // Decisions under a fixed monitor snapshot are deterministic
                // regardless of worker interleaving.
                assert_eq!(actions, reference.actions);
                assert!(latency.is_finite());
            }
        }
    }
}
