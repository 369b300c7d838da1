//! The Murmuration runtime: the per-request adaptation loop of Fig. 10.
//!
//! Each inference request: sample monitoring data → (optionally) forecast
//! near-future conditions and precompute strategies → decide model
//! selection + partitioning (cache-first) → reconfigure the in-memory
//! supernet → report the deployment's latency/accuracy under the *ground
//! truth* network (what a real request would experience).
//!
//! # Concurrency
//!
//! [`SharedRuntime`] is `Send + Sync` and every method takes `&self`.
//! Request-path state (strategy cache, the fleet view, the resident
//! supernet) lives behind interior locks so serve-layer workers can
//! decide and deploy concurrently while monitoring ticks happen on a
//! control thread. Per-request randomness comes from seeded streams
//! ([`SharedRuntime::infer_seeded`]) so results are deterministic under
//! concurrency.
//!
//! Everything believed about the devices — down, graded gray health,
//! routing penalties, peer reputation — is one [`Fleet`] behind one
//! mutex. A decision and a deployment each read it once, as one
//! [`FleetSnapshot`], so a plan and the `Degradation` reported beside it
//! describe the same fleet.

use crate::decision::DecisionModule;
use crate::fleet::{Fleet, FleetSnapshot, Input};
use crate::gossip::{HealthReport, NodeId, ReputationConfig};
use crate::health::HealthConfig;
use crate::monitor::{LinkEstimate, NetworkMonitor};
use crate::predictor::MonitorPredictor;
use crate::reconfig::InMemorySupernet;
use crate::slo::SloApi;
use murmuration_edgesim::NetworkState;
use murmuration_partition::compliance::Slo;
use murmuration_partition::evolutionary::Genome;
use murmuration_partition::pipeline::{plan_pipeline, score_pipeline, PipelinePlan};
use murmuration_partition::{ExecutionPlan, LatencyEstimator, ThroughputReport};
use murmuration_rl::{Condition, LstmPolicy, Scenario, SloKind};
use murmuration_supernet::{SubnetConfig, SubnetSpec};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            monitor_alpha: 0.4,
            monitor_window: 8,
            monitor_noise: 0.05,
            cache_capacity: 512,
            precompute_horizon_ms: 500.0,
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
    fleet: Mutex<Fleet>,
    cfg: RuntimeConfig,
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
            fleet: Mutex::new(Fleet::new(n_devices, HealthConfig::default())),
            cfg,
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

    /// The fleet as it stands: per device, down, graded health,
    /// placeable and routing penalty, plus the transition counters.
    pub fn fleet(&self) -> FleetSnapshot {
        self.fleet.lock().snapshot()
    }

    /// Feeds fleet inputs stamped `now_ms` (execution outcomes and
    /// latencies, heartbeat RTTs, forced statuses, polls) under one lock.
    /// When they remove a device from the placeable set, every cached
    /// strategy that placed work on it is purged; re-admission never
    /// resurrects them (they were dropped, not suspended).
    pub fn observe(&self, now_ms: f64, inputs: impl IntoIterator<Item = Input>) {
        let mut fleet = self.fleet.lock();
        let mut shrank = false;
        for input in inputs {
            shrank |= fleet.step(now_ms, input);
        }
        if shrank {
            let placeable = fleet.snapshot().placeable_mask();
            drop(fleet);
            self.decision.purge_infeasible(&placeable);
        }
    }

    /// Clamps the links of unplaceable devices to the scenario's worst
    /// grid corner (minimum bandwidth, maximum delay) so the policy —
    /// which knows nothing about faults — is steered away from them, on
    /// top of the hard feasibility mask, and degrades the links of
    /// penalized (Suspect/Probation) devices proportionally so the policy
    /// routes *around* stragglers without banning them. Remote link `i`
    /// serves device `i + 1`.
    fn mask_condition(&self, mut cond: Condition, fleet: &FleetSnapshot) -> Condition {
        let sc = self.scenario();
        for (i, (bw, delay)) in cond.bw_mbps.iter_mut().zip(cond.delay_ms.iter_mut()).enumerate() {
            let Some(dev) = fleet.devices.get(i + 1).filter(|d| d.placeable) else {
                *bw = sc.bw_range.0;
                *delay = sc.delay_range.1;
                continue;
            };
            let p = dev.penalty;
            if p > 1.0 && p.is_finite() {
                *bw = (*bw / p).max(sc.bw_range.0);
                *delay = (*delay * p).min(sc.delay_range.1);
            }
        }
        cond
    }

    /// Background tick: sample monitoring and precompute a strategy for
    /// the forecast condition, which backs off while such strategies go
    /// unread ([`DecisionModule::precompute`]). Skipped while degraded —
    /// precomputed strategies would not be cacheable anyway (see
    /// [`DecisionModule::decide_masked`]). On the serve path this runs on
    /// the control thread; workers never touch the monitor.
    pub fn tick<R: Rng>(&self, net_truth: &NetworkState, t_ms: f64, rng: &mut R) {
        let nominal = {
            let mut fleet = self.fleet.lock();
            fleet.step(t_ms, Input::Poll);
            fleet.is_nominal()
        };
        let forecast = {
            let mut monitor = self.monitor.lock();
            monitor.sample(net_truth, t_ms, rng);
            (self.cfg.precompute_horizon_ms > 0.0 && nominal).then(|| {
                MonitorPredictor::predict(
                    &monitor,
                    self.scenario().n_remote(),
                    t_ms + self.cfg.precompute_horizon_ms,
                )
            })
        };
        if let Some(forecast) = forecast {
            let cond = self.decision.condition(self.slo_scalar(), &forecast);
            self.decision.precompute(&cond);
        }
    }

    /// Serves one inference request at virtual time `t_ms`. Never panics
    /// on device loss: dead devices are masked out of the decision, and if
    /// the decided plan is still infeasible the runtime falls back to an
    /// all-local plan and reports the degradation.
    pub fn infer<R: Rng>(&self, net_truth: &NetworkState, t_ms: f64, rng: &mut R) -> RequestReport {
        self.observe(t_ms, [Input::Poll]);
        // Fresh monitoring sample for this request.
        let estimates = {
            let mut monitor = self.monitor.lock();
            monitor.sample(net_truth, t_ms, rng);
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
        let fleet = self.fleet();
        let placeable = fleet.placeable_mask();
        let raw_cond = self.decision.condition(self.decision_scalar(&slo), estimates);
        let cond = self.mask_condition(raw_cond, &fleet);
        // A penalized condition is transient fleet state, not a network
        // observation: caching it would serve straggler-avoiding plans
        // long after the straggler recovered.
        let allow_cache = fleet.devices.iter().all(|d| d.penalty == 1.0);
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
        let fleet = self.fleet();
        let placeable = fleet.placeable_mask();
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
        DeployReport {
            switch_time: switch.elapsed,
            latency_ms,
            accuracy_pct,
            slo_met,
            devices_used: plan.devices_used(),
            degradation: Degradation {
                down_devices: fleet.down_devices(),
                quarantined_devices: fleet.quarantined_devices(),
                forced_local,
            },
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
        let placeable = self.fleet().placeable_mask();
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

    /// Strategy-cache statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.decision.cache_stats()
    }

    /// This node's direct graded-health observations as gossip health
    /// reports, stamped with `reporter` and `version` (callers bump the
    /// version each publication so merges stay idempotent).
    pub fn export_health_reports(&self, reporter: NodeId, version: u64) -> Vec<HealthReport> {
        self.fleet.lock().export_reports(reporter, version)
    }

    /// Folds peer-reported health claims into routing penalties (see
    /// [`Fleet::fold_peer_reports`]): they steer routing, never the
    /// placeable set, so nothing is purged.
    pub fn fold_peer_reports(&self, reports: &[HealthReport]) {
        self.fleet.lock().fold_peer_reports(reports);
    }

    /// Replaces the reputation-aggregation policy (weights reset). Small
    /// deployments need this: the default `trim = 1` requires three
    /// reporters per device before any peer claim takes effect, so a
    /// primary/standby pair — one reporter — sets `trim = 0`.
    pub fn set_reputation_config(&self, cfg: ReputationConfig) {
        self.fleet.lock().set_reputation_config(cfg);
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
    use crate::cache::CacheStats;
    use crate::health::HealthState;
    use murmuration_edgesim::{DeviceStatus, LinkState};
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::Arc;

    fn runtime() -> SharedRuntime {
        let sc = Scenario::augmented_computing(SloKind::Latency);
        let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0);
        SharedRuntime::new(sc, policy, RuntimeConfig::default(), Slo::LatencyMs(140.0))
    }

    fn lan() -> NetworkState {
        NetworkState::uniform(1, LinkState { bandwidth_mbps: 200.0, delay_ms: 10.0 })
    }

    #[test]
    fn requests_produce_reports() {
        let rt = runtime();
        let mut rng = StdRng::seed_from_u64(0);
        let net = lan();
        let r = rt.infer(&net, 0.0, &mut rng);
        assert!(r.latency_ms > 0.0 && r.latency_ms.is_finite());
        assert!((70.0..81.0).contains(&r.accuracy_pct));
        assert!(!r.cached, "first request must miss the cache");
    }

    #[test]
    fn repeat_requests_hit_cache_and_are_faster_to_decide() {
        let rt = runtime();
        let mut rng = StdRng::seed_from_u64(1);
        let net = lan();
        let _ = rt.infer(&net, 0.0, &mut rng);
        let r2 = rt.infer(&net, 100.0, &mut rng);
        assert!(r2.cached, "stable conditions must hit the strategy cache");
        assert!(rt.cache_stats().hits >= 1);
    }

    #[test]
    fn tick_precomputes_for_stable_network() {
        let rt = runtime();
        let mut rng = StdRng::seed_from_u64(2);
        let net = lan();
        for t in 0..4 {
            rt.tick(&net, t as f64 * 100.0, &mut rng);
        }
        // Ticks are not requests: none of them is booked as a hit or a
        // miss. Two forecast buckets were filled (the observation noise
        // moved the forecast once); the other ticks found theirs filled.
        let speculated = CacheStats { speculated: 2, ..CacheStats::default() };
        assert_eq!(rt.cache_stats(), speculated);
        // The forecast equals the stable present → the first real request
        // is already cached, and reads the speculation.
        let r = rt.infer(&net, 500.0, &mut rng);
        assert!(r.cached, "precompute must warm the cache under stable conditions");
        let read = CacheStats { hits: 1, speculative_reads: 1, ..speculated };
        assert_eq!(rt.cache_stats(), read);
    }

    #[test]
    fn slo_change_takes_effect() {
        let rt = runtime();
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
        let _ = SharedRuntime::new(sc, policy, RuntimeConfig::default(), Slo::AccuracyPct(75.0));
    }

    #[test]
    fn dead_device_is_masked_out_of_decisions() {
        let rt = runtime();
        let mut rng = StdRng::seed_from_u64(5);
        let net = lan();
        let r = rt.infer(&net, 0.0, &mut rng);
        assert!(!r.degradation.is_degraded(), "healthy fleet reports no degradation");
        // Device 1 dies (its worker failed once).
        rt.observe(50.0, [Input::Outcome { dev: 1, ok: false }]);
        assert!(rt.fleet().devices[1].down);
        let r = rt.infer(&net, 100.0, &mut rng);
        assert_eq!(r.degradation.down_devices, vec![1]);
        assert!(!r.devices_used.contains(&1), "plan must avoid the dead device");
        // Recovery: a success on the device revives it.
        rt.observe(150.0, [Input::Outcome { dev: 1, ok: true }]);
        let r = rt.infer(&net, 200.0, &mut rng);
        assert!(!r.degradation.is_degraded());
    }

    #[test]
    fn infer_never_panics_with_all_remotes_down() {
        let rt = runtime();
        let mut rng = StdRng::seed_from_u64(6);
        let net = lan();
        let n = rt.scenario().devices.len();
        rt.observe(0.0, (1..n).map(|dev| Input::Force { dev, status: DeviceStatus::Down }));
        let r = rt.infer(&net, 0.0, &mut rng);
        assert!(r.latency_ms.is_finite());
        assert_eq!(r.devices_used, vec![0], "only the local device may serve");
        assert!(r.degradation.is_degraded());
        // Local device can never be marked down.
        rt.observe(0.0, [Input::Outcome { dev: 0, ok: false }]);
        assert!(!rt.fleet().devices[0].down);
    }

    #[test]
    fn fleet_trace_drives_runtime_health() {
        use murmuration_edgesim::{DeviceTrace, FleetTrace};
        let rt = runtime();
        let n = rt.scenario().devices.len();
        let mut fleet = FleetTrace::always_up(n);
        fleet.set(1, DeviceTrace::down_between(50.0, 150.0));
        let apply = |t: f64| {
            rt.observe(t, (1..n).map(|dev| Input::Force { dev, status: fleet.status(dev, t) }));
        };
        apply(0.0);
        assert!(rt.fleet().devices.iter().all(|d| !d.down));
        apply(100.0);
        assert!(rt.fleet().devices[1].down);
        apply(200.0);
        assert!(!rt.fleet().devices[1].down);
    }

    #[test]
    fn switch_time_is_fast() {
        let rt = runtime();
        let mut rng = StdRng::seed_from_u64(4);
        let net = lan();
        let r = rt.infer(&net, 0.0, &mut rng);
        assert!(r.switch_time < Duration::from_millis(50), "{:?}", r.switch_time);
    }

    #[test]
    fn seeded_infer_is_deterministic() {
        let rt_a = runtime();
        let rt_b = runtime();
        let net = lan();
        let a = rt_a.infer_seeded(&net, 0.0, 42);
        let b = rt_b.infer_seeded(&net, 0.0, 42);
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.accuracy_pct, b.accuracy_pct);
        assert_eq!(a.devices_used, b.devices_used);
    }

    #[test]
    fn serve_decide_requires_a_monitor_sample() {
        let rt = runtime();
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
        let rt = runtime();
        // Accuracy request on a latency-trained scenario: decide with the
        // largest latency budget (largest submodels → best accuracy).
        let scalar = rt.decision_scalar(&Slo::AccuracyPct(75.0));
        assert_eq!(scalar, rt.scenario().slo_range.1);
        let same = rt.decision_scalar(&Slo::LatencyMs(123.0));
        assert_eq!(same, 123.0);
    }

    #[test]
    fn peer_reports_steer_routing_but_never_quarantine() {
        let rt = runtime();
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
        let dev = rt.fleet().devices[1];
        assert_eq!(dev.penalty, 3.0);
        assert!(dev.placeable);
        assert_eq!(dev.state, HealthState::Healthy);
        // One liar among honest reporters is trimmed away entirely.
        rt.fold_peer_reports(&[claim(1, 1.0), claim(2, 1.0), claim(3, 16.0)]);
        assert_eq!(rt.fleet().devices[1].penalty, 1.0);
        // Too few reports: local evidence rules (no peer penalty).
        rt.fold_peer_reports(&[claim(1, 4.0)]);
        assert_eq!(rt.fleet().devices[1].penalty, 1.0);
    }

    #[test]
    fn exported_reports_carry_local_observations() {
        let rt = runtime();
        for i in 0..16 {
            rt.observe(i as f64, [Input::Latency { dev: 1, ms: 12.0 + (i % 3) as f64 }]);
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
        let rt = Arc::new(runtime());
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
