//! Pipelined stage-parallel serving: the throughput execution mode.
//!
//! `PipelineRig` is the serve-layer integration: a virtual-time
//! stage-parallel server for throughput-mode SLO classes, driven by a
//! [`PipelineDeploy`] from
//! [`SharedRuntime::pipeline_decide`](murmuration_core::SharedRuntime::pipeline_decide).
//! Stage threads model per-stage service (bottleneck-stage cost from the
//! placement objective, scaled by any brownout factor from the fleet
//! trace), micro-batch within a stage (batching and pipelining compose),
//! and preserve the serve layer's conservation invariant
//! `completed + rejected == submitted` through drain-on-shutdown and
//! device-death rescue.
//!
//! The rig runs on the scaled virtual clock against modeled service times.
//! Real tensors stream through a pipeline plan's stages in
//! [`Executor::execute_stream_with`](murmuration_core::executor::Executor::execute_stream_with),
//! given [`PipelinePlan::device_of_unit`](murmuration_partition::pipeline::PipelinePlan::device_of_unit):
//! the one attempt machine every executor path runs on.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::class::{ClassKind, ClassSpec};
use crate::request::{Completion, RejectReason, Rejection, ServeOutcome};
use crate::server::{Clock, Counters, EnvModel};
use murmuration_core::{PipelineDeploy, SharedRuntime};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;

/// A request travelling through the rig.
pub(crate) struct RigJob {
    pub id: u64,
    pub class: usize,
    pub enqueue_ms: f64,
    pub deadline_ms: Option<f64>,
    /// Set when stage 0 dispatches the job (queue/service split point).
    pub started_ms: f64,
    pub tx: Sender<ServeOutcome>,
}

struct RigStageCounters {
    jobs: AtomicU64,
    batches: AtomicU64,
    requeued: AtomicU64,
    rejected: AtomicU64,
    /// Virtual ms this stage spent occupied (f64 bits, monotone adds via
    /// CAS loop).
    busy_ms_bits: AtomicU64,
    /// Instantaneous queued depth in front of the stage.
    depth: AtomicUsize,
}

impl RigStageCounters {
    fn new() -> Self {
        RigStageCounters {
            jobs: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            requeued: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            busy_ms_bits: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
        }
    }

    fn add_busy(&self, ms: f64) {
        let mut cur = self.busy_ms_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + ms).to_bits();
            match self.busy_ms_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    fn busy_ms(&self) -> f64 {
        f64::from_bits(self.busy_ms_bits.load(Ordering::Relaxed))
    }
}

/// Point-in-time view of one rig stage, for `LoadReport` JSON and the
/// CLI table.
#[derive(Clone, Debug)]
pub struct StageSnapshot {
    pub device: usize,
    /// Unit range `[start, end)`.
    pub units: (usize, usize),
    /// The placement objective's per-request cost for this stage
    /// (transfer-in + compute + final transfer-out, virtual ms).
    pub est_stage_ms: f64,
    /// Requests this stage dispatched.
    pub jobs: u64,
    /// Stage-level micro-batches dispatched.
    pub batches: u64,
    /// Requests rescued onto the coordinator after this stage's device
    /// died.
    pub requeued: u64,
    /// Requests rejected at this stage (typed `StageDead`/`Expired`).
    pub rejected: u64,
    /// Virtual ms the stage spent occupied.
    pub busy_ms: f64,
    /// `busy_ms / elapsed` — the utilization the bottleneck saturates.
    pub utilization: f64,
    /// Queued requests in front of the stage right now.
    pub queue_depth: usize,
}

/// Per-stage occupancy and the bottleneck ids, from
/// [`ServeHandle::pipeline_stats`](crate::server::ServeHandle::pipeline_stats).
#[derive(Clone, Debug)]
pub struct PipelineSnapshot {
    pub stages: Vec<StageSnapshot>,
    /// The stage the placement objective predicted as the bottleneck.
    pub planned_bottleneck_stage: usize,
    /// Its per-request cost (virtual ms).
    pub planned_bottleneck_ms: f64,
    /// The stage that actually accumulated the most busy time.
    pub observed_bottleneck_stage: usize,
    /// One request's end-to-end fill latency (virtual ms).
    pub fill_ms: f64,
    /// Predicted accuracy of the deployed subnet (%).
    pub accuracy_pct: f32,
}

struct RigInner {
    rt: Arc<SharedRuntime>,
    deploy: PipelineDeploy,
    clock: Clock,
    env: EnvModel,
    classes: Vec<ClassSpec>,
    max_batch: usize,
    batch_marginal: f64,
    service_sleep: bool,
    admission: bool,
    counters: Arc<Counters>,
    stage: Vec<RigStageCounters>,
    entry_depth: AtomicUsize,
    /// Jobs admitted but not yet completed/rejected — includes in-flight
    /// stage batches, not just queue depths.
    in_system: AtomicUsize,
    /// Coordinator cost of finishing a request from stage `s` onward
    /// when stage `s`'s device is dead (virtual ms).
    rescue_ms: Vec<f64>,
}

impl RigInner {
    /// Effective slowdown of `dev` at virtual `t_ms`: the fleet trace's
    /// brownout factor, or infinite when the trace or a chaos hook has
    /// the device down.
    fn slow_factor(&self, dev: usize, t_ms: f64) -> f64 {
        let traced = self.env.fleet_slow_factor(dev, t_ms);
        if !self.rt.alive_mask().get(dev).copied().unwrap_or(false) {
            return f64::INFINITY;
        }
        traced
    }

    /// Jobs anywhere in the rig — entry queue, inter-stage queues, *and*
    /// in-flight stage batches. Queue depths alone undercount by up to
    /// `max_batch` per stage, which under-admits turn into late
    /// completions; this is the exact conservation-based occupancy.
    fn backlog(&self) -> usize {
        self.in_system.load(Ordering::Relaxed)
    }

    fn reject(&self, job: RigJob, reason: RejectReason) {
        self.in_system.fetch_sub(1, Ordering::Relaxed);
        if let RejectReason::StageDead { stage, .. } = reason {
            if let Some(c) = self.stage.get(stage) {
                c.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.counters.note_reject(&reason);
        let r = Rejection { id: job.id, class: job.class, reason, t_ms: self.clock.now_ms() };
        let _ = job.tx.send(ServeOutcome::Rejected(r));
    }

    fn complete(&self, job: RigJob, batch_size: usize, degraded: bool) {
        self.in_system.fetch_sub(1, Ordering::Relaxed);
        let now = self.clock.now_ms();
        let queue_ms = (job.started_ms - job.enqueue_ms).max(0.0);
        let total_ms = now - job.enqueue_ms;
        let service_ms = total_ms - queue_ms;
        let spec = &self.classes[job.class];
        let slo_ok = match spec.kind {
            ClassKind::Latency { deadline_ms } => total_ms <= deadline_ms,
            ClassKind::Accuracy { floor_pct } => self.deploy.accuracy_pct >= floor_pct,
        };
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        self.counters.pipeline_completed.fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.counters.degraded_served.fetch_add(1, Ordering::Relaxed);
        }
        let _ = job.tx.send(ServeOutcome::Done(Completion {
            id: job.id,
            class: job.class,
            queue_ms,
            service_ms,
            total_ms,
            deploy_ms: self.deploy.report.fill_ms,
            accuracy_pct: self.deploy.accuracy_pct,
            batch_size,
            // The pipeline decision is made once and reused for the whole
            // stream — the definition of a cache hit.
            cached: true,
            degraded,
            slo_ok,
        }));
    }

    /// Stage `s`'s thread: drain a micro-batch, model its service time,
    /// forward downstream (or resolve, for the last stage). Exits when
    /// the upstream sender closes after draining everything — the
    /// shutdown cascade.
    fn stage_loop(&self, s: usize, rx: Receiver<RigJob>, next: Option<SyncSender<RigJob>>) {
        let stage_ms = self.deploy.report.stages[s].stage_ms();
        let dev = self.deploy.plan.stages[s].device;
        let last = next.is_none();
        loop {
            let Ok(first) = rx.recv() else { break };
            self.stage[s].depth.fetch_sub(1, Ordering::Relaxed);
            if s == 0 {
                self.entry_depth.fetch_sub(1, Ordering::Relaxed);
            }
            let mut batch = vec![first];
            while batch.len() < self.max_batch {
                match rx.try_recv() {
                    Ok(job) => {
                        self.stage[s].depth.fetch_sub(1, Ordering::Relaxed);
                        if s == 0 {
                            self.entry_depth.fetch_sub(1, Ordering::Relaxed);
                        }
                        batch.push(job);
                    }
                    Err(_) => break,
                }
            }
            let t = self.clock.now_ms();
            if s == 0 {
                // Dispatch-time shed: a job whose remaining budget no
                // longer covers one pipeline fill would only finish late.
                let mut live = Vec::with_capacity(batch.len());
                for mut job in batch {
                    match job.deadline_ms {
                        Some(d) if t - job.enqueue_ms + self.deploy.report.fill_ms > d => {
                            let waited_ms = t - job.enqueue_ms;
                            self.reject(job, RejectReason::Expired { waited_ms, deadline_ms: d });
                        }
                        _ => {
                            job.started_ms = t;
                            live.push(job);
                        }
                    }
                }
                batch = live;
                if batch.is_empty() {
                    continue;
                }
            }
            let k = batch.len();
            let slow = self.slow_factor(dev, t);
            if slow.is_finite() {
                // Healthy (or browned-out) stage: the batch occupies the
                // stage for one bottleneck-objective cost, marginally
                // extended per extra batched request, stretched by any
                // brownout factor.
                let cost = stage_ms * slow * (1.0 + self.batch_marginal * (k as f64 - 1.0));
                if self.service_sleep {
                    self.clock.sleep_virtual(cost);
                }
                self.stage[s].add_busy(cost);
                self.stage[s].jobs.fetch_add(k as u64, Ordering::Relaxed);
                self.stage[s].batches.fetch_add(1, Ordering::Relaxed);
                let degraded = slow > 1.0;
                for job in batch {
                    match &next {
                        Some(nx) => {
                            self.stage[s + 1].depth.fetch_add(1, Ordering::Relaxed);
                            // Blocks when the next stage is saturated —
                            // the backpressure path.
                            if let Err(err) = nx.send(job) {
                                self.stage[s + 1].depth.fetch_sub(1, Ordering::Relaxed);
                                self.reject(err.0, RejectReason::Shutdown);
                            }
                        }
                        None => {
                            let _ = last;
                            self.complete(job, k, degraded);
                        }
                    }
                }
            } else {
                // Stage device died with work in flight: requeue onto the
                // coordinator, which serves the remaining stages
                // serially; jobs whose budget can't cover the rescue get
                // the typed death rejection instead.
                let rescue = self.rescue_ms[s];
                let mut served = Vec::with_capacity(k);
                for job in batch {
                    match job.deadline_ms {
                        Some(d) if t - job.enqueue_ms + rescue > d => {
                            self.reject(job, RejectReason::StageDead { stage: s, dev });
                        }
                        _ => served.push(job),
                    }
                }
                if served.is_empty() {
                    continue;
                }
                let kk = served.len();
                let cost = rescue * (1.0 + self.batch_marginal * (kk as f64 - 1.0));
                if self.service_sleep {
                    self.clock.sleep_virtual(cost);
                }
                self.stage[s].add_busy(cost);
                self.stage[s].jobs.fetch_add(kk as u64, Ordering::Relaxed);
                self.stage[s].batches.fetch_add(1, Ordering::Relaxed);
                self.stage[s].requeued.fetch_add(kk as u64, Ordering::Relaxed);
                self.counters.pipeline_requeued.fetch_add(kk as u64, Ordering::Relaxed);
                for mut job in served {
                    if s == 0 && job.started_ms < job.enqueue_ms {
                        job.started_ms = t;
                    }
                    self.complete(job, kk, true);
                }
            }
        }
    }
}

/// The running stage-parallel server for throughput-mode classes.
pub(crate) struct PipelineRig {
    inner: Arc<RigInner>,
    entry: Mutex<Option<SyncSender<RigJob>>>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl PipelineRig {
    /// Spawns one thread per pipeline stage, connected by bounded queues.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        rt: Arc<SharedRuntime>,
        deploy: PipelineDeploy,
        clock: Clock,
        env: EnvModel,
        classes: Vec<ClassSpec>,
        max_batch: usize,
        batch_marginal: f64,
        service_sleep: bool,
        admission: bool,
        entry_cap: usize,
        counters: Arc<Counters>,
    ) -> Self {
        let n_stages = deploy.plan.stages.len();
        assert!(n_stages >= 1 && entry_cap >= 1 && max_batch >= 1);
        // Coordinator rescue cost from stage `s` onward: the all-local
        // fallback's time, prorated by the remaining compute share.
        let total_compute: f64 = deploy.report.stages.iter().map(|c| c.compute_ms).sum();
        let rescue_ms: Vec<f64> = (0..n_stages)
            .map(|s| {
                let remaining: f64 = deploy.report.stages[s..].iter().map(|c| c.compute_ms).sum();
                if total_compute > 0.0 {
                    deploy.fallback_ms * remaining / total_compute
                } else {
                    deploy.fallback_ms
                }
            })
            .collect();
        let inner = Arc::new(RigInner {
            rt,
            deploy,
            clock,
            env,
            classes,
            max_batch,
            batch_marginal,
            service_sleep,
            admission,
            counters,
            stage: (0..n_stages).map(|_| RigStageCounters::new()).collect(),
            entry_depth: AtomicUsize::new(0),
            in_system: AtomicUsize::new(0),
            rescue_ms,
        });
        let mut txs: Vec<SyncSender<RigJob>> = Vec::new();
        let mut rxs: Vec<Receiver<RigJob>> = Vec::new();
        for s in 0..n_stages {
            // The entry queue absorbs the open-loop arrival burstiness;
            // inter-stage queues stay batch-sized so backpressure (not
            // buffering) is what absorbs a stalled stage.
            let cap = if s == 0 { entry_cap } else { max_batch };
            let (tx, rx) = sync_channel(cap);
            txs.push(tx);
            rxs.push(rx);
        }
        let mut tx_iter = txs.into_iter();
        let entry = tx_iter.next();
        let threads = rxs
            .into_iter()
            .enumerate()
            .map(|(s, rx)| {
                let next = tx_iter.next();
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("pipe-stage-{s}"))
                    .spawn(move || inner.stage_loop(s, rx, next))
                    .unwrap_or_else(|e| panic!("spawning pipeline stage {s}: {e}"))
            })
            .collect();
        PipelineRig { inner, entry: Mutex::new(entry), threads: Mutex::new(threads) }
    }

    /// Admission + enqueue for one throughput-mode request. Resolves the
    /// outcome channel immediately on rejection.
    pub(crate) fn submit(&self, id: u64, class: usize, tx: Sender<ServeOutcome>) {
        let inner = &self.inner;
        inner.counters.pipeline_submitted.fetch_add(1, Ordering::Relaxed);
        // Every submitted job leaves `in_system` through exactly one of
        // `complete` or `reject` (all submit failure paths reject).
        inner.in_system.fetch_add(1, Ordering::Relaxed);
        let t = inner.clock.now_ms();
        let deadline_ms = inner.classes[class].deadline_ms();
        let job = RigJob { id, class, enqueue_ms: t, deadline_ms, started_ms: t, tx };
        if inner.admission {
            if let Some(d) = deadline_ms {
                // Steady-state drain: each bottleneck period retires one
                // stage batch, so the backlog clears at
                // `max_batch / batch_factor` requests per bottleneck.
                let batch_factor = 1.0 + inner.batch_marginal * (inner.max_batch as f64 - 1.0);
                let drain = inner.max_batch as f64 / batch_factor;
                // `backlog() - 1`: jobs ahead of this one (we already
                // counted ourselves into `in_system`).
                let wait = inner.backlog().saturating_sub(1) as f64 / drain.max(1e-9)
                    * inner.deploy.report.bottleneck_ms;
                let needed_ms = wait + inner.deploy.report.fill_ms;
                if needed_ms > d {
                    inner.reject(job, RejectReason::DeadlineUnmeetable { needed_ms, budget_ms: d });
                    return;
                }
            }
        }
        let entry = self.entry.lock();
        let Some(entry_tx) = entry.as_ref() else {
            drop(entry);
            inner.reject(job, RejectReason::Shutdown);
            return;
        };
        inner.entry_depth.fetch_add(1, Ordering::Relaxed);
        inner.stage[0].depth.fetch_add(1, Ordering::Relaxed);
        match entry_tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(job)) => {
                inner.entry_depth.fetch_sub(1, Ordering::Relaxed);
                inner.stage[0].depth.fetch_sub(1, Ordering::Relaxed);
                drop(entry);
                inner.reject(job, RejectReason::QueueFull { class });
            }
            Err(TrySendError::Disconnected(job)) => {
                inner.entry_depth.fetch_sub(1, Ordering::Relaxed);
                inner.stage[0].depth.fetch_sub(1, Ordering::Relaxed);
                drop(entry);
                inner.reject(job, RejectReason::Shutdown);
            }
        }
    }

    /// Per-stage occupancy snapshot.
    pub(crate) fn snapshot(&self) -> PipelineSnapshot {
        let inner = &self.inner;
        let elapsed = inner.clock.now_ms().max(1e-9);
        let stages: Vec<StageSnapshot> = inner
            .deploy
            .plan
            .stages
            .iter()
            .enumerate()
            .map(|(s, st)| {
                let c = &inner.stage[s];
                let busy = c.busy_ms();
                StageSnapshot {
                    device: st.device,
                    units: (st.start, st.end),
                    est_stage_ms: inner.deploy.report.stages[s].stage_ms(),
                    jobs: c.jobs.load(Ordering::Relaxed),
                    batches: c.batches.load(Ordering::Relaxed),
                    requeued: c.requeued.load(Ordering::Relaxed),
                    rejected: c.rejected.load(Ordering::Relaxed),
                    busy_ms: busy,
                    utilization: busy / elapsed,
                    queue_depth: c.depth.load(Ordering::Relaxed),
                }
            })
            .collect();
        let observed = stages
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.busy_ms.partial_cmp(&b.busy_ms).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        PipelineSnapshot {
            stages,
            planned_bottleneck_stage: inner.deploy.report.bottleneck_stage,
            planned_bottleneck_ms: inner.deploy.report.bottleneck_ms,
            observed_bottleneck_stage: observed,
            fill_ms: inner.deploy.report.fill_ms,
            accuracy_pct: inner.deploy.accuracy_pct,
        }
    }

    /// Stops admission, drains every queued job through the stages, and
    /// joins the stage threads. Conservation holds afterwards: every
    /// accepted job completed or was rejected with a typed reason.
    pub(crate) fn shutdown(&self) {
        // Dropping the entry sender starts the cascade: stage 0 drains
        // and exits, disconnecting stage 1, and so on.
        *self.entry.lock() = None;
        let mut threads = self.threads.lock();
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}
