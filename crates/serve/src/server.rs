//! The threaded serving driver: admission → class queues → priority
//! dispatch → micro-batched decide/deploy on a shared runtime.
//!
//! Every rule about a request's fate — admission, which class drains
//! next, shedding, the batch cut, batch cost, the EWMAs, conservation —
//! lives in `policy`, a state machine with no threads and no clock;
//! throughput-mode classes follow `pipeline`, its stage-parallel sibling.
//! This module drives both cores, behind one lock, with threads and a
//! scaled clock; the campaign drives the same cores in virtual time.
//!
//! # Threads
//!
//! * **Submitters** (caller threads) run admission and enqueue under the
//!   server's one lock; an idle server serves a lone `submit_wait` inline.
//! * **Workers** wait on a condvar beside the policy, take same-class
//!   batches (waiting one batching window for stragglers when short),
//!   decide once per batch ([`SharedRuntime::serve_decide`]), deploy once
//!   (one supernet switch amortized over the batch), sleep the batch's
//!   cost, and resolve every request with a typed outcome.
//! * **One pipeline thread**, when a class streams through a
//!   stage-parallel plan, sleeps on its own condvar until the pipeline's
//!   next event and runs it; submitters admit and dispatch inline.
//! * **One control thread** owns monitoring: it ticks the runtime on a
//!   fixed virtual-time cadence and replays the fault trace. Workers never
//!   touch the monitor, so the decision path is sampling-free and
//!   deterministic given the tick schedule.
//!
//! # Virtual time
//!
//! The server runs on a scaled clock: `time_scale` wall milliseconds per
//! virtual millisecond. Model latencies (hundreds of virtual ms) become
//! milliseconds of wall time, so a 60-virtual-second overload experiment
//! runs in about a wall second while preserving queueing dynamics —
//! workers really are occupied for the (scaled) service time.

use crate::class::ClassSpec;
use crate::pipeline::{Pipeline, PipelineSnapshot};
use crate::policy::{Batch, Item, Policy};
use crate::request::{Completion, RejectReason, Rejection, ServeOutcome};
use murmuration_core::fleet::{FleetSnapshot, Input};
use murmuration_core::SharedRuntime;
use murmuration_edgesim::trace::NetworkTrace;
use murmuration_edgesim::{DeviceStatus, FleetTrace, LinkState, NetworkState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Ground truth the server serves under: a network trajectory and an
/// optional device fault schedule, both functions of virtual time.
#[derive(Clone, Debug)]
pub struct EnvModel {
    net: NetworkTrace,
    n_remote: usize,
    fleet: Option<FleetTrace>,
}

impl EnvModel {
    /// An environment following `net`, uniform across `n_remote` links.
    pub fn new(net: NetworkTrace, n_remote: usize) -> Self {
        EnvModel { net, n_remote, fleet: None }
    }

    /// Static network conditions.
    pub fn constant(link: LinkState, n_remote: usize) -> Self {
        EnvModel::new(NetworkTrace::Constant(link), n_remote)
    }

    /// Attaches a device fault schedule, replayed by the control thread.
    pub fn with_fleet(mut self, fleet: FleetTrace) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Ground-truth network at virtual time `t_ms`.
    pub fn network_at(&self, t_ms: f64) -> NetworkState {
        NetworkState::uniform(self.n_remote, self.net.sample(t_ms))
    }
}

/// Serving-layer knobs. Start from [`engineered`](ServeConfig::engineered)
/// or [`naive`](ServeConfig::naive) and override fields as needed.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// SLO class table; index is priority (0 drains first).
    pub classes: Vec<ClassSpec>,
    /// Worker threads draining the queues.
    pub n_workers: usize,
    /// Deadline-aware admission control (reject requests whose predicted
    /// queue wait + service already exceeds their deadline).
    pub admission: bool,
    /// Micro-batch ceiling; 1 disables batching.
    pub max_batch: usize,
    /// How long a worker waits for coalescable same-class arrivals when a
    /// batch is short (virtual ms); 0 disables the wait.
    pub batch_window_ms: f64,
    /// Marginal cost of each extra batched request relative to the first
    /// (pipelined execution reuses the deployed submodel; only compute
    /// serializes, transfers overlap).
    pub batch_marginal: f64,
    /// Wall milliseconds per virtual millisecond.
    pub time_scale: f64,
    /// Whether workers hold their slot for the scaled service time (true
    /// for load experiments; false for overhead microbenchmarks).
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
    /// Seed for the control thread's monitoring-noise stream.
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

/// The scaled virtual clock shared by every server thread.
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

    /// Wall duration of `virtual_ms`.
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

    /// Adds the pipeline's request counters to the batched path's.
    fn absorb(&mut self, p: &ServeStats) {
        self.submitted += p.submitted;
        self.completed += p.completed;
        self.pipeline_submitted += p.submitted;
        self.pipeline_completed += p.completed;
        self.rejected += p.rejected;
        self.queue_full += p.queue_full;
        self.deadline_unmeetable += p.deadline_unmeetable;
        self.expired += p.expired;
        self.not_ready += p.not_ready;
        self.stage_dead += p.stage_dead;
        self.shutdown_rejects += p.shutdown_rejects;
        self.degraded_served += p.degraded_served;
        self.pipeline_requeued += p.pipeline_requeued;
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

/// Where a queued request's outcome goes; `None` for the idle fast path,
/// which answers on the submitter's own thread.
type Reply = Option<Sender<ServeOutcome>>;

fn rejected<P>(item: &Item<P>, reason: RejectReason, t_ms: f64) -> ServeOutcome {
    ServeOutcome::Rejected(Rejection { id: item.id, class: item.class, reason, t_ms })
}

fn send(reply: Reply, outcome: ServeOutcome) {
    if let Some(tx) = reply {
        let _ = tx.send(outcome);
    }
}

/// The serving cores, behind the server's one lock.
struct Cores {
    policy: Policy<Reply>,
    /// The stage-parallel pipeline for throughput-mode classes, when any
    /// class opted in and a pipeline placement was found at boot.
    pipeline: Option<Pipeline<Reply>>,
}

struct ServerCore {
    rt: Arc<SharedRuntime>,
    env: EnvModel,
    cfg: ServeConfig,
    clock: Clock,
    cores: Mutex<Cores>,
    /// Wakes workers when the policy may hold a batch.
    work: Condvar,
    /// Wakes the pipeline thread when its next event may have moved.
    pipe_work: Condvar,
    next_id: AtomicU64,
    /// Stops the control thread (workers stop via policy shutdown).
    stop: AtomicBool,
}

impl ServerCore {
    /// Poison-tolerant lock: a panicking worker must not wedge the whole
    /// server, so the (plain-old-data) cores are adopted as is.
    fn cores(&self) -> MutexGuard<'_, Cores> {
        self.cores.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A pipeline stage's slowdown on `dev` at `t_ms`: the fleet trace's
    /// brownout factor, infinite when the trace or a chaos hook has the
    /// device down.
    fn slow(&self, dev: usize, t_ms: f64) -> f64 {
        if self.rt.fleet().devices.get(dev).is_none_or(|d| d.down) {
            return f64::INFINITY;
        }
        self.env.fleet.as_ref().map_or(1.0, |f| f.slow_factor(dev, t_ms))
    }

    /// Runs the pipeline's events as they fall due (all at once when
    /// service is not slept) until it has drained after shutdown.
    fn pipeline_loop(&self) {
        let mut cores = self.cores();
        while let Some(pipe) = cores.pipeline.as_mut() {
            let until = if self.cfg.service_sleep { self.clock.now_ms() } else { f64::INFINITY };
            pipe.advance(until, &|dev, t| self.slow(dev, t));
            pipe.exits().for_each(|(reply, outcome)| send(reply, outcome));
            if pipe.is_drained() {
                return;
            }
            let next = pipe.next_event().map(|(_, t)| self.clock.wall(t - self.clock.now_ms()));
            let wait = self.pipe_work.wait_timeout(cores, next.unwrap_or(Duration::MAX));
            cores = wait.unwrap_or_else(PoisonError::into_inner).0;
        }
    }

    /// Serves one batch dispatched at `now`: the policy sheds and cuts it,
    /// then one decide and one deploy serve what is left, the worker
    /// sleeps the batch's cost, and every member resolves exactly once
    /// through `resolve`.
    fn serve_batch(
        &self,
        mut batch: Batch<Reply>,
        now: f64,
        mut resolve: impl FnMut(Item<Reply>, ServeOutcome),
    ) {
        let (expired, requeued) = self.cores().policy.prepare(&mut batch, now);
        if requeued > 0 {
            self.work.notify_one();
        }
        for (item, reason) in expired {
            let outcome = rejected(&item, reason, now);
            resolve(item, outcome);
        }
        if batch.items.is_empty() {
            return;
        }
        let spec = &self.cfg.classes[batch.class];
        let Some(decision) = self.rt.serve_decide(spec.slo()) else {
            for item in self.cores().policy.refuse(batch, &RejectReason::NotReady) {
                let outcome = rejected(&item, RejectReason::NotReady, now);
                resolve(item, outcome);
            }
            return;
        };
        let report = self.rt.deploy(&decision, &self.env.network_at(now));
        let base = report.latency_ms;
        let cost = self.cores().policy.start(&batch, base);
        if self.cfg.service_sleep {
            thread::sleep(self.clock.wall(cost));
        }
        let k = batch.items.len();
        let degraded = report.degradation.is_degraded();
        let served = self.cores().policy.finish(batch, now, base, degraded);
        for s in served {
            let total_ms = s.queue_ms + s.service_ms;
            let outcome = ServeOutcome::Done(Completion {
                id: s.item.id,
                class: s.item.class,
                queue_ms: s.queue_ms,
                service_ms: s.service_ms,
                total_ms,
                deploy_ms: report.latency_ms,
                accuracy_pct: report.accuracy_pct,
                batch_size: k,
                cached: decision.cached,
                degraded,
                slo_ok: spec.met(total_ms, report.accuracy_pct),
            });
            resolve(s.item, outcome);
        }
    }

    /// Takes batches until shutdown has drained the queues. A short batch
    /// waits one batching window for same-class stragglers.
    fn worker_loop(&self) {
        let window = (self.cfg.batch_window_ms > 0.0 && self.cfg.max_batch > 1)
            .then(|| self.clock.wall(self.cfg.batch_window_ms));
        loop {
            let mut cores = self.cores();
            let mut batch = loop {
                if let Some(batch) = cores.policy.take() {
                    break batch;
                }
                if cores.policy.is_shutdown() {
                    return;
                }
                cores = self.work.wait(cores).unwrap_or_else(PoisonError::into_inner);
            };
            if let Some(window) = window {
                if batch.items.len() < self.cfg.max_batch && !cores.policy.is_shutdown() {
                    cores = self
                        .work
                        .wait_timeout(cores, window)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                    cores.policy.top_up(&mut batch);
                }
            }
            drop(cores);
            // More work may remain for other workers.
            self.work.notify_one();
            self.serve_batch(batch, self.clock.now_ms(), |item, o| send(item.payload, o));
        }
    }

    fn control_loop(&self) {
        let mut rng = StdRng::seed_from_u64(self.cfg.base_seed);
        while !self.stop.load(Ordering::Relaxed) {
            let t = self.clock.now_ms();
            if let Some(fleet) = &self.env.fleet {
                self.rt.apply_fleet_trace(fleet, t);
            }
            self.rt.tick(&self.env.network_at(t), t, &mut rng);
            thread::sleep(self.clock.wall(self.cfg.tick_interval_ms));
        }
    }
}

/// Handle to a running server. Dropping it without
/// [`shutdown`](ServeHandle::shutdown) aborts the control thread and
/// drains the queues (the drop impl shuts down cleanly).
pub struct ServeHandle {
    core: Arc<ServerCore>,
    workers: Vec<thread::JoinHandle<()>>,
    pipeline: Option<thread::JoinHandle<()>>,
    control: Option<thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// Boots the server: one synchronous warm-up tick (so the monitor is
    /// ready before the first request), then the control thread, the
    /// worker pool and, when a class streams, the pipeline thread.
    pub fn start(rt: Arc<SharedRuntime>, env: EnvModel, cfg: ServeConfig) -> Self {
        let clock = Clock::new(cfg.time_scale);
        // Warm-up tick at t=0 so serve_decide never sees a cold monitor.
        let mut rng = StdRng::seed_from_u64(cfg.base_seed ^ 0x5eed);
        rt.tick(&env.network_at(0.0), 0.0, &mut rng);
        // Boot the stage-parallel pipeline when a class opted into
        // throughput mode and the planner finds a placement. On `None`
        // (planner infeasible) pipeline classes fall back to the batched
        // path — slower, never wrong.
        let pipeline = cfg
            .classes
            .iter()
            .find(|c| c.pipeline)
            .and_then(|c| rt.pipeline_decide(c.slo(), &env.network_at(0.0)))
            .map(|deploy| Pipeline::new(&cfg, &deploy));
        let streams = pipeline.is_some();
        let core = Arc::new(ServerCore {
            rt,
            env,
            clock,
            cores: Mutex::new(Cores { policy: Policy::new(&cfg), pipeline }),
            cfg,
            work: Condvar::new(),
            pipe_work: Condvar::new(),
            next_id: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let spawn = |name: String, run: fn(&ServerCore)| {
            let core = Arc::clone(&core);
            thread::Builder::new()
                .name(name.clone())
                .spawn(move || run(&core))
                .unwrap_or_else(|e| panic!("spawning {name}: {e}"))
        };
        let workers = (0..core.cfg.n_workers)
            .map(|i| spawn(format!("serve-worker-{i}"), ServerCore::worker_loop))
            .collect();
        let pipeline = streams.then(|| spawn("serve-pipeline".into(), ServerCore::pipeline_loop));
        let control = Some(spawn("serve-control".into(), ServerCore::control_loop));
        ServeHandle { core, workers, pipeline, control }
    }

    /// The server's virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.core.clock
    }

    /// The shared runtime this server decides on (gossip hooks publish
    /// and fold health through it).
    pub fn runtime(&self) -> &Arc<SharedRuntime> {
        &self.core.rt
    }

    /// Submits a request to `class` and returns the channel its outcome
    /// will arrive on. Admission control and queue bounds may resolve it
    /// immediately (the rejection is already in the channel on return).
    pub fn submit(&self, class: usize) -> Receiver<ServeOutcome> {
        assert!(class < self.core.cfg.classes.len(), "unknown class {class}");
        let core = &self.core;
        let id = core.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel();
        let now = core.clock.now_ms();
        let mut cores = core.cores();
        // Throughput-mode classes stream through the pipeline; everything
        // else takes the batched worker path below.
        if let (true, Some(pipe)) = (core.cfg.classes[class].pipeline, cores.pipeline.as_mut()) {
            pipe.submit(id, class, now, Some(tx), &|dev, t| core.slow(dev, t));
            pipe.exits().for_each(|(reply, outcome)| send(reply, outcome));
            drop(cores);
            core.pipe_work.notify_one();
            return rx;
        }
        let queued = cores.policy.submit(id, class, now, Some(tx));
        drop(cores);
        match queued {
            Ok(()) => core.work.notify_one(),
            Err((reason, Some(tx))) => {
                let _ = tx.send(ServeOutcome::Rejected(Rejection { id, class, reason, t_ms: now }));
            }
            Err((_, None)) => {}
        }
        rx
    }

    /// Submits and blocks for the outcome. When the server is completely
    /// idle (and the config allows), serves inline on this thread —
    /// skipping the queue handoff so a lone request pays essentially the
    /// direct-infer price.
    pub fn submit_wait(&self, class: usize) -> ServeOutcome {
        let core = &self.core;
        assert!(class < core.cfg.classes.len(), "unknown class {class}");
        if core.cfg.inline_when_idle && !core.cfg.classes[class].pipeline {
            if let Some(outcome) = self.serve_inline(class) {
                return outcome;
            }
        }
        match self.submit(class).recv() {
            Ok(outcome) => outcome,
            // The server dropped the sender without resolving — a crash or
            // a panicked worker; surface it as a shutdown.
            Err(_) => {
                core.cores().policy.note_reject(&RejectReason::Shutdown);
                let t_ms = core.clock.now_ms();
                ServeOutcome::Rejected(Rejection {
                    id: u64::MAX,
                    class,
                    reason: RejectReason::Shutdown,
                    t_ms,
                })
            }
        }
    }

    /// The idle fast path: the same batch path for a batch of one, run on
    /// the caller's thread with no queue and no handoff. `None` when the
    /// server is not idle.
    fn serve_inline(&self, class: usize) -> Option<ServeOutcome> {
        let core = &self.core;
        let mut cores = core.cores();
        if !cores.policy.is_idle() {
            return None;
        }
        let id = core.next_id.fetch_add(1, Ordering::Relaxed);
        let now = core.clock.now_ms();
        let admitted = cores.policy.submit_inline(id, class, now, None);
        drop(cores);
        match admitted {
            Ok(batch) => {
                // A batch resolves each member exactly once.
                let mut outcome = None;
                core.serve_batch(batch, now, |_, o| outcome = Some(o));
                outcome
            }
            Err((reason, _)) => {
                Some(ServeOutcome::Rejected(Rejection { id, class, reason, t_ms: now }))
            }
        }
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

    /// Counter snapshot: the batched path's policy plus the pipeline,
    /// read under one lock.
    pub fn stats(&self) -> ServeStats {
        let cores = self.core.cores();
        let mut s = cores.policy.stats();
        if let Some(pipe) = &cores.pipeline {
            s.absorb(&pipe.stats());
        }
        drop(cores);
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
        self.core.cores().pipeline.as_ref().map(|p| p.snapshot(now))
    }

    /// The runtime's fleet view: per device, down, graded gray health,
    /// placeable and routing penalty (pass-through).
    pub fn fleet(&self) -> FleetSnapshot {
        self.core.rt.fleet()
    }

    /// Feeds a measured per-device execution latency into the runtime's
    /// gray-failure detector (chaos hook for straggler experiments; the
    /// runtime quarantines devices whose latencies walk into the tail).
    pub fn report_exec_latency(&self, dev: usize, latency_ms: f64) {
        let t = self.core.clock.now_ms();
        self.core.rt.observe(t, [Input::Latency { dev, ms: latency_ms }]);
    }

    /// Runtime cache statistics (pass-through).
    pub fn cache_stats(&self) -> murmuration_core::cache::CacheStats {
        self.core.rt.cache_stats()
    }

    /// Stops admission, drains every queued request, joins all threads,
    /// and returns the final counter snapshot. After shutdown,
    /// `completed + rejected == submitted`.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop(false);
        self.stats()
    }

    /// Abrupt stop — a simulated coordinator crash. Queued requests, and
    /// those waiting to enter the pipeline, are *dropped unresolved* (their
    /// outcome channels close, so waiting submitters see a disconnect and
    /// can retry on a failover standby); batches mid-service and jobs
    /// inside the pipeline finish, like responses already on the wire. On
    /// return `completed + rejected + dropped == submitted`; the failover
    /// layer re-serves the dropped. Returns `(final stats, dropped count)`.
    pub fn kill(mut self) -> (ServeStats, usize) {
        let dropped = self.stop(true);
        (self.stats(), dropped)
    }

    /// Stops admission on both cores, dropping what is queued on `abort`,
    /// and joins every thread once the accepted work has resolved.
    /// Returns how many requests were dropped.
    fn stop(&mut self, abort: bool) -> usize {
        let mut cores = self.core.cores();
        let dropped = if abort {
            cores.policy.abort().len() + cores.pipeline.as_mut().map_or(0, |p| p.abort().len())
        } else {
            cores.policy.shutdown();
            cores.pipeline.iter_mut().for_each(Pipeline::shutdown);
            0
        };
        drop(cores);
        self.core.work.notify_all();
        self.core.pipe_work.notify_all();
        // The pipeline drains before the control thread stops ticking.
        if let Some(p) = self.pipeline.take() {
            let _ = p.join();
        }
        self.core.stop.store(true, Ordering::Relaxed);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
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
    use crate::class::default_classes;
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
}
