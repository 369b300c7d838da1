//! The threaded serving driver: one serving `engine` behind one lock and
//! one condvar, stepped on a scaled clock by two threads. The campaign
//! steps the same engine in virtual time.
//!
//! * **Submitters** (caller threads) admit under the lock and wake the
//!   dispatch thread; they never wait behind a decision. On an idle server
//!   a lone `submit_wait` runs its own dispatch on the caller's thread.
//! * **The dispatch thread** waits until the engine's next event, steps
//!   it, and answers each due dispatch with one
//!   [`SharedRuntime::serve_decide`] and one deploy (one supernet switch
//!   per batch), made outside the lock. A batch holds its service slot for
//!   its modeled cost in virtual time; no thread sleeps it.
//! * **The control thread** syncs the environment into the runtime every
//!   `tick_interval_ms`. A tick that precomputes a roll-out takes
//!   milliseconds of wall time, so ticks stay off the dispatch thread; the
//!   precompute backs off while its entries go unread
//!   (`DecisionModule::precompute`).
//!
//! The clock runs `time_scale` wall ms per virtual ms: model latencies of
//! hundreds of virtual ms become milliseconds, so a 60-virtual-second
//! overload experiment runs in about a wall second.

use crate::class::ClassSpec;
use crate::engine::Engine;
use crate::pipeline::PipelineSnapshot;
use crate::request::{RejectReason, Rejection, ServeOutcome};
use murmuration_core::fleet::Input;
use murmuration_core::{DeployReport, SharedRuntime};
use murmuration_edgesim::trace::NetworkTrace;
use murmuration_edgesim::{DeviceStatus, FleetTrace, LinkState, NetworkState, PartitionSchedule};
use murmuration_partition::compliance::Slo;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Ground truth a coordinator serves under, as functions of virtual time:
/// a network trajectory, and optionally a device fault schedule and a
/// partition schedule.
#[derive(Clone, Debug)]
pub struct EnvModel {
    net: NetworkTrace,
    n_remote: usize,
    fleet: Option<FleetTrace>,
    partitions: Option<PartitionSchedule>,
}

impl EnvModel {
    /// An environment following `net`, uniform across `n_remote` links.
    pub fn new(net: NetworkTrace, n_remote: usize) -> Self {
        EnvModel { net, n_remote, fleet: None, partitions: None }
    }

    /// Static network conditions.
    pub fn constant(link: LinkState, n_remote: usize) -> Self {
        EnvModel::new(NetworkTrace::Constant(link), n_remote)
    }

    /// Attaches a device fault schedule, replayed at every control tick.
    pub fn with_fleet(mut self, fleet: FleetTrace) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Attaches a partition schedule: a device the coordinator (node 0)
    /// cannot reach counts as down.
    pub fn with_partitions(mut self, partitions: PartitionSchedule) -> Self {
        self.partitions = Some(partitions);
        self
    }

    /// Ground-truth network at virtual time `t_ms`.
    pub fn network_at(&self, t_ms: f64) -> NetworkState {
        NetworkState::uniform(self.n_remote, self.net.sample(t_ms))
    }

    fn reachable(&self, dev: usize, t_ms: f64) -> bool {
        self.partitions.as_ref().is_none_or(|p| p.can_reach(0, dev, t_ms))
    }

    /// `dev`'s slowdown at `t_ms`: the fleet trace's brownout factor (1
    /// without a trace), infinite when the trace has it down or a
    /// partition cuts it off.
    pub(crate) fn slow(&self, dev: usize, t_ms: f64) -> f64 {
        match (self.reachable(dev, t_ms), &self.fleet) {
            (false, _) => f64::INFINITY,
            (true, Some(fleet)) => fleet.slow_factor(dev, t_ms),
            (true, None) => 1.0,
        }
    }

    /// One control tick at `t_ms`: forces every remote device's status
    /// from the fleet trace, `Down` where a partition cuts it off, then
    /// samples the ground-truth network into the runtime's monitor.
    fn sync(&self, rt: &SharedRuntime, t_ms: f64, rng: &mut StdRng) {
        if let Some(fleet) = &self.fleet {
            let devices = 1..rt.scenario().devices.len().min(fleet.n_devices());
            rt.observe(
                t_ms,
                devices.map(|dev| Input::Force {
                    dev,
                    status: match self.reachable(dev, t_ms) {
                        true => fleet.status(dev, t_ms),
                        false => DeviceStatus::Down,
                    },
                }),
            );
        }
        rt.tick(&self.network_at(t_ms), t_ms, rng);
    }

    /// Answers a due dispatch: one decision for `slo`, deployed under the
    /// ground truth at `t_ms`, with whether it was a cache hit. `None`
    /// while the monitor has no estimate.
    pub(crate) fn serve(
        &self,
        rt: &SharedRuntime,
        slo: Slo,
        t_ms: f64,
    ) -> Option<(DeployReport, bool)> {
        let decision = rt.serve_decide(slo)?;
        Some((rt.deploy(&decision, &self.network_at(t_ms)), decision.cached))
    }
}

/// The control cadence both drivers keep: a sync at boot, then one every
/// `tick_interval_ms`, all on one monitoring-noise stream seeded from
/// `base_seed`.
pub(crate) struct Control {
    rng: StdRng,
    /// When the next tick is due (virtual ms).
    pub(crate) next_ms: f64,
    interval_ms: f64,
}

impl Control {
    /// Syncs the environment into `rt` at `t_ms`; the next tick falls one
    /// interval later.
    pub(crate) fn tick(&mut self, env: &EnvModel, rt: &SharedRuntime, t_ms: f64) {
        env.sync(rt, t_ms, &mut self.rng);
        self.next_ms = t_ms + self.interval_ms;
    }
}

/// Boots a coordinator at `t0`: one warm-up sync, so `serve_decide` never
/// sees a cold monitor, then the engine. When a class opted into
/// throughput mode and the planner finds a placement for the first such
/// class, the engine streams those classes through it; otherwise they are
/// batched (slower, never wrong).
pub(crate) fn boot<P>(
    rt: &SharedRuntime,
    env: &EnvModel,
    cfg: &ServeConfig,
    t0: f64,
) -> (Control, Engine<P>) {
    let rng = StdRng::seed_from_u64(cfg.base_seed);
    let mut control = Control { rng, next_ms: t0, interval_ms: cfg.tick_interval_ms };
    control.tick(env, rt, t0);
    let stream = cfg.classes.iter().find(|c| c.pipeline);
    let plan = stream.and_then(|c| rt.pipeline_decide(c.slo(), &env.network_at(t0)));
    (control, Engine::new(cfg, plan.as_ref()))
}

/// Serving-layer knobs. Start from [`engineered`](ServeConfig::engineered)
/// or [`naive`](ServeConfig::naive) and override fields as needed.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// SLO class table; index is priority (0 drains first).
    pub classes: Vec<ClassSpec>,
    /// Service slots: batches in service at once.
    pub n_workers: usize,
    /// Deadline-aware admission control (reject requests whose predicted
    /// queue wait + service already exceeds their deadline).
    pub admission: bool,
    /// Micro-batch ceiling; 1 disables batching.
    pub max_batch: usize,
    /// How long a short batch waits for same-class arrivals before it
    /// dispatches (virtual ms); 0 disables the wait.
    pub batch_window_ms: f64,
    /// Marginal cost of each extra batched request relative to the first
    /// (pipelined execution reuses the deployed submodel; only compute
    /// serializes, transfers overlap).
    pub batch_marginal: f64,
    /// Wall milliseconds per virtual millisecond.
    pub time_scale: f64,
    /// Whether a batch, and a pipeline stage, holds its slot for its
    /// service time (true for load experiments; false for overhead
    /// microbenchmarks, where a slot frees at its dispatch).
    pub service_sleep: bool,
    /// Control-thread monitoring cadence (virtual ms).
    pub tick_interval_ms: f64,
    /// Drain queues oldest-head-first, ignoring class priority (the naive
    /// FIFO baseline).
    pub fifo: bool,
    /// Serve a request inline on the submitter thread when the server is
    /// completely idle, skipping the queue handoff (the common-case fast
    /// path; only [`submit_wait`](ServeHandle::submit_wait) uses it).
    pub inline_when_idle: bool,
    /// Seed for the monitoring-noise stream of the warm-up and the control
    /// ticks.
    pub base_seed: u64,
}

impl ServeConfig {
    /// The full serving stack: priority queues, admission control,
    /// micro-batching, idle fast path.
    pub fn engineered(classes: Vec<ClassSpec>) -> Self {
        ServeConfig {
            classes,
            n_workers: 2,
            admission: true,
            max_batch: 8,
            batch_window_ms: 4.0,
            batch_marginal: 0.35,
            time_scale: 0.05,
            service_sleep: true,
            tick_interval_ms: 100.0,
            fifo: false,
            inline_when_idle: true,
            base_seed: 17,
        }
    }

    /// The baseline the bench compares against: same queues and runtime,
    /// but FIFO order, no admission control, no batching, no fast path.
    pub fn naive(classes: Vec<ClassSpec>) -> Self {
        ServeConfig {
            admission: false,
            max_batch: 1,
            batch_window_ms: 0.0,
            fifo: true,
            inline_when_idle: false,
            ..ServeConfig::engineered(classes)
        }
    }
}

/// The scaled virtual clock the server's threads and its callers share.
#[derive(Clone, Debug)]
pub struct Clock {
    start: Instant,
    /// Wall ms per virtual ms.
    scale: f64,
}

impl Clock {
    fn new(scale: f64) -> Self {
        assert!(scale > 0.0, "time scale must be positive");
        Clock { start: Instant::now(), scale }
    }

    /// Virtual now (ms since server start).
    pub fn now_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1000.0 / self.scale
    }

    /// Sleeps for `virtual_ms` of virtual time.
    pub fn sleep_virtual(&self, virtual_ms: f64) {
        if virtual_ms > 0.0 {
            thread::sleep(Duration::from_secs_f64(virtual_ms * self.scale / 1000.0));
        }
    }

    /// Wall duration of `virtual_ms` (zero when negative).
    fn wall(&self, virtual_ms: f64) -> Duration {
        Duration::from_secs_f64((virtual_ms * self.scale / 1000.0).max(0.0))
    }
}

/// A point-in-time snapshot of the server's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub queue_full: u64,
    pub deadline_unmeetable: u64,
    pub expired: u64,
    pub not_ready: u64,
    /// Requests rejected because a pipeline stage's device died with them
    /// in flight and the rescue could not meet their deadline.
    pub stage_dead: u64,
    pub shutdown_rejects: u64,
    /// Dispatched batches (a batch of one still counts).
    pub batches: u64,
    /// Requests served through batches of size ≥ 2.
    pub batched_requests: u64,
    pub max_batch_seen: u64,
    /// Completions served under degradation (devices down, quarantined
    /// by the gray-failure detector, or forced-local fallback).
    pub degraded_served: u64,
    /// Gray-health Healthy→Suspect transitions observed by the runtime's
    /// detector over this server's lifetime.
    pub gray_suspects: u64,
    /// Devices quarantined by the gray-failure detector.
    pub gray_quarantines: u64,
    /// Devices readmitted after a canary pass.
    pub gray_readmissions: u64,
    /// Requests routed through the stage-parallel pipeline.
    pub pipeline_submitted: u64,
    /// Pipeline requests that completed (subset of `completed`).
    pub pipeline_completed: u64,
    /// Pipeline requests rescued onto the coordinator after a stage
    /// device died mid-flight.
    pub pipeline_requeued: u64,
}

impl ServeStats {
    /// Counts one rejection: the total and its reason.
    pub(crate) fn note_reject(&mut self, reason: &RejectReason) {
        self.rejected += 1;
        *match reason {
            RejectReason::QueueFull { .. } => &mut self.queue_full,
            RejectReason::DeadlineUnmeetable { .. } => &mut self.deadline_unmeetable,
            RejectReason::Expired { .. } => &mut self.expired,
            RejectReason::NotReady => &mut self.not_ready,
            RejectReason::StageDead { .. } => &mut self.stage_dead,
            RejectReason::Shutdown => &mut self.shutdown_rejects,
        } += 1;
    }

    /// Mean dispatched batch size.
    pub fn avg_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }
}

/// Adds the named counters of `$from` into `$into`.
macro_rules! add_counters {
    ($into:expr, $from:expr; $($field:ident),+ $(,)?) => { $($into.$field += $from.$field;)+ };
}
pub(crate) use add_counters;

/// Where a request's outcome goes.
type Reply = Sender<ServeOutcome>;

/// Answers every resolved request; a receiver that hung up no longer waits.
fn send(exits: std::vec::Drain<'_, (Reply, ServeOutcome)>) {
    for (tx, outcome) in exits {
        let _ = tx.send(outcome);
    }
}

struct ServerCore {
    rt: Arc<SharedRuntime>,
    env: EnvModel,
    cfg: ServeConfig,
    clock: Clock,
    engine: Mutex<Engine<Reply>>,
    /// Wakes the dispatch thread when the engine's next event may have
    /// moved.
    wake: Condvar,
    next_id: AtomicU64,
    /// Stops the control thread (the dispatch thread stops once the engine
    /// has drained).
    stop: AtomicBool,
}

impl ServerCore {
    /// Poison-tolerant lock: a panicking thread must not wedge the whole
    /// server, so the (plain-old-data) engine is adopted as is.
    fn engine(&self) -> MutexGuard<'_, Engine<Reply>> {
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The environment's slowdown of `dev` at `t_ms`, infinite while a
    /// chaos hook has the device down.
    fn slow(&self, dev: usize, t_ms: f64) -> f64 {
        if self.rt.fleet().devices.get(dev).is_none_or(|d| d.down) {
            return f64::INFINITY;
        }
        self.env.slow(dev, t_ms)
    }

    /// Steps the engine to the clock's instant and answers every due
    /// dispatch, deciding and deploying with the lock released; every
    /// resolved request is answered on its channel.
    fn run<'a>(
        &'a self,
        mut engine: MutexGuard<'a, Engine<Reply>>,
    ) -> MutexGuard<'a, Engine<Reply>> {
        let slow = |dev, t| self.slow(dev, t);
        loop {
            engine.advance(self.clock.now_ms(), &slow);
            send(engine.exits());
            let Some(due) = engine.due() else { return engine };
            drop(engine);
            let served = self.env.serve(&self.rt, self.cfg.classes[due.class].slo(), due.at);
            engine = self.engine();
            engine.start(due.slot, self.clock.now_ms(), served, &slow);
        }
    }

    /// Runs the engine's events as they fall due until it has drained
    /// after shutdown.
    fn dispatch_loop(&self) {
        let mut engine = self.engine();
        loop {
            engine = self.run(engine);
            if engine.is_drained() {
                return;
            }
            let next = engine.next_event().map(|t| self.clock.wall(t - self.clock.now_ms()));
            let wait = self.wake.wait_timeout(engine, next.unwrap_or(Duration::MAX));
            engine = wait.unwrap_or_else(PoisonError::into_inner).0;
        }
    }

    fn control_loop(&self, mut control: Control) {
        loop {
            self.clock.sleep_virtual(control.next_ms - self.clock.now_ms());
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            control.tick(&self.env, &self.rt, self.clock.now_ms());
        }
    }
}

/// Handle to a running server. Dropping it without
/// [`shutdown`](ServeHandle::shutdown) shuts it down cleanly all the same.
pub struct ServeHandle {
    core: Arc<ServerCore>,
    dispatch: Option<thread::JoinHandle<()>>,
    control: Option<thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// Boots the server (one synchronous warm-up tick, so the monitor is
    /// ready before the first request; the pipeline plan when a class
    /// streams) and starts its two threads, dispatch and control.
    pub fn start(rt: Arc<SharedRuntime>, env: EnvModel, cfg: ServeConfig) -> Self {
        let clock = Clock::new(cfg.time_scale);
        let (control, engine) = boot(&rt, &env, &cfg, 0.0);
        let core = Arc::new(ServerCore {
            rt,
            env,
            cfg,
            clock,
            engine: Mutex::new(engine),
            wake: Condvar::new(),
            next_id: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let spawn = |name: &str, run: Box<dyn FnOnce(&ServerCore) + Send>| {
            let core = Arc::clone(&core);
            thread::Builder::new()
                .name(name.into())
                .spawn(move || run(&core))
                .unwrap_or_else(|e| panic!("spawning {name}: {e}"))
        };
        let dispatch = spawn("serve-dispatch", Box::new(ServerCore::dispatch_loop));
        let control = spawn("serve-control", Box::new(move |c| c.control_loop(control)));
        ServeHandle { core, dispatch: Some(dispatch), control: Some(control) }
    }

    /// The server's virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.core.clock
    }

    /// Submits a request to `class` and returns the channel its outcome
    /// will arrive on. Admission control and queue bounds may resolve it
    /// immediately (the rejection is already in the channel on return).
    pub fn submit(&self, class: usize) -> Receiver<ServeOutcome> {
        let core = &self.core;
        assert!(class < core.cfg.classes.len(), "unknown class {class}");
        let id = core.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel();
        let now = core.clock.now_ms();
        let mut engine = core.engine();
        engine.submit(id, class, now, tx, &|dev, t| core.slow(dev, t));
        send(engine.exits());
        drop(engine);
        core.wake.notify_one();
        rx
    }

    /// Submits and blocks for the outcome. When the server is completely
    /// idle (and the config allows), the request's dispatch runs on this
    /// thread, so a lone request pays no hand-off before its decision.
    pub fn submit_wait(&self, class: usize) -> ServeOutcome {
        let core = &self.core;
        assert!(class < core.cfg.classes.len(), "unknown class {class}");
        let rx = self.submit_inline(class).unwrap_or_else(|| self.submit(class));
        // A sender dropped unresolved means a panicked thread: surface it
        // as a shutdown.
        rx.recv().unwrap_or_else(|_| {
            let (reason, t_ms) = (RejectReason::Shutdown, core.clock.now_ms());
            core.engine().note_reject(&reason);
            ServeOutcome::Rejected(Rejection { id: u64::MAX, class, reason, t_ms })
        })
    }

    /// The idle fast path: a batch of one, dispatched and decided on the
    /// caller's thread with no queue. `None` when the server is not idle
    /// or the class streams.
    fn submit_inline(&self, class: usize) -> Option<Receiver<ServeOutcome>> {
        let core = &self.core;
        if !core.cfg.inline_when_idle || core.cfg.classes[class].pipeline {
            return None;
        }
        let mut engine = core.engine();
        if !engine.is_idle() {
            return None;
        }
        let id = core.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel();
        engine.submit_inline(id, class, core.clock.now_ms(), tx);
        drop(core.run(engine));
        // The batch now serves; the dispatch thread ends it.
        core.wake.notify_one();
        Some(rx)
    }

    /// Marks a device down mid-load (chaos hook; also purges cached
    /// strategies that used it).
    pub fn kill_device(&self, dev: usize) {
        self.force(dev, DeviceStatus::Down);
    }

    /// Revives a device.
    pub fn revive_device(&self, dev: usize) {
        self.force(dev, DeviceStatus::Up);
    }

    fn force(&self, dev: usize, status: DeviceStatus) {
        self.core.rt.observe(self.core.clock.now_ms(), [Input::Force { dev, status }]);
    }

    /// Counter snapshot: the batched path plus the pipeline, read under one
    /// lock, and the runtime's gray transitions.
    pub fn stats(&self) -> ServeStats {
        let s = self.core.engine().stats();
        let gray = self.core.rt.fleet().transitions;
        ServeStats {
            gray_suspects: gray.suspects,
            gray_quarantines: gray.quarantines,
            gray_readmissions: gray.readmissions,
            ..s
        }
    }

    /// Per-stage occupancy/utilization of the pipeline, when the server
    /// is running one (a throughput-mode class + feasible plan).
    pub fn pipeline_stats(&self) -> Option<PipelineSnapshot> {
        let now = self.core.clock.now_ms();
        self.core.engine().pipeline_snapshot(now)
    }

    /// Stops admission, drains every queued request, joins both threads,
    /// and returns the final counter snapshot. After shutdown,
    /// `completed + rejected == submitted`.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop(false);
        self.stats()
    }

    /// Abrupt stop — a simulated coordinator crash. Requests not yet
    /// dispatched (queued, gathering a batch, or waiting to enter the
    /// pipeline) are *dropped unresolved* (their outcome channels close, so
    /// waiting submitters see a disconnect and can retry on a failover
    /// standby); dispatched batches and jobs inside the pipeline finish,
    /// like responses already on the wire. On return `completed + rejected
    /// + dropped == submitted`; the failover layer re-serves the dropped.
    /// Returns `(final stats, dropped count)`.
    pub fn kill(mut self) -> (ServeStats, usize) {
        let dropped = self.stop(true);
        (self.stats(), dropped)
    }

    /// Stops admission, dropping what is not yet dispatched on `abort`,
    /// and joins both threads once the accepted work has resolved.
    /// Returns how many requests were dropped.
    fn stop(&mut self, abort: bool) -> usize {
        let mut engine = self.core.engine();
        let dropped = if abort { engine.abort().len() } else { 0 };
        if !abort {
            engine.shutdown();
        }
        drop(engine);
        self.core.wake.notify_all();
        // The engine drains before the control thread stops ticking.
        if let Some(d) = self.dispatch.take() {
            let _ = d.join();
        }
        self.core.stop.store(true, Ordering::Relaxed);
        if let Some(c) = self.control.take() {
            let _ = c.join();
        }
        dropped
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{default_classes, ClassSpec};
    use murmuration_core::RuntimeConfig;
    use murmuration_partition::compliance::Slo;
    use murmuration_rl::{LstmPolicy, Scenario, SloKind};

    #[test]
    #[should_panic(expected = "unknown class")]
    fn submit_wait_rejects_an_unknown_class_by_name() {
        let sc = Scenario::augmented_computing(SloKind::Latency);
        let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0);
        let rt = SharedRuntime::new(sc, policy, RuntimeConfig::default(), Slo::LatencyMs(200.0));
        let link = LinkState { bandwidth_mbps: 300.0, delay_ms: 8.0 };
        let cfg =
            ServeConfig { service_sleep: false, ..ServeConfig::engineered(default_classes()) };
        let handle = ServeHandle::start(Arc::new(rt), EnvModel::constant(link, 1), cfg);
        let _ = handle.submit_wait(3);
    }

    #[test]
    fn a_running_server_owns_two_threads_for_any_worker_count() {
        let sc = Scenario::device_swarm(5, SloKind::Latency);
        let link = LinkState { bandwidth_mbps: 400.0, delay_ms: 2.0 };
        for (n_workers, stream) in [(1, false), (2, false), (16, false), (4, true)] {
            let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 1);
            let rt = SharedRuntime::new(
                sc.clone(),
                policy,
                RuntimeConfig::default(),
                Slo::LatencyMs(1e4),
            );
            let class = ClassSpec::latency("stream", 1e4, 64);
            let classes = vec![if stream { class.with_pipeline() } else { class }];
            let cfg =
                ServeConfig { n_workers, service_sleep: false, ..ServeConfig::engineered(classes) };
            let handle = ServeHandle::start(Arc::new(rt), EnvModel::constant(link, 4), cfg);
            assert_eq!(handle.pipeline_stats().is_some(), stream, "{n_workers} workers");
            let names: Vec<&str> = [&handle.dispatch, &handle.control]
                .into_iter()
                .flatten()
                .filter_map(|t| t.thread().name())
                .collect();
            assert_eq!(names, ["serve-dispatch", "serve-control"], "{n_workers} workers");
            let served = (0..8).map(|_| handle.submit(0)).filter(|rx| rx.recv().is_ok()).count();
            assert_eq!(served, 8);
            let s = handle.shutdown();
            assert_eq!((s.submitted, s.completed + s.rejected), (8, 8), "{s:?}");
        }
    }
}
