//! Stage-parallel serving: one state machine with no threads, no clock and
//! no lock.
//!
//! `Pipeline` owns every rule for a throughput-mode class once the runtime
//! has placed a stage-parallel plan
//! ([`SharedRuntime::pipeline_decide`](murmuration_core::SharedRuntime::pipeline_decide)):
//! the entry queue (`ENTRY_CAP` deep) and the one-batch-deep queues
//! between stages, where a stage whose finished batch does not fit below
//! is held until it does; admission (`policy`'s deadline rule with one
//! stage batch drained per bottleneck period and the fill as the service
//! time, over everything admitted and unresolved; then `Shutdown`, then
//! `QueueFull`); the stage-0 shed (`Expired`) of jobs whose budget no
//! longer covers a fill; per-stage micro-batches at the stage's planned
//! cost, stretched by its own brownout factor, which flags them degraded;
//! stage death, where the coordinator rescues a batch at `fallback_ms ×`
//! the remaining compute share, or rejects `StageDead` when that would
//! miss the deadline; shutdown drain, abort, the conservation counters and
//! the per-stage [`PipelineSnapshot`].
//!
//! The caller passes every instant in (virtual ms) and a `slow(dev, t)`
//! input: the brownout factor of `dev` at `t`, infinite when it is down.
//! `engine` steps it beside `policy`. `P` is what a request carries.
//!
//! Real tensors stream through a plan's stages in the executor
//! ([`Executor::execute_stream_with`](murmuration_core::executor::Executor::execute_stream_with)).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::policy::{self, Item};
use crate::request::{Completion, RejectReason, Rejection, ServeOutcome};
use crate::server::{ServeConfig, ServeStats};
use murmuration_core::PipelineDeploy;
use std::collections::VecDeque;

/// Depth of the entry queue in front of stage 0: it absorbs open-loop
/// arrival bursts. The queues between stages hold one batch.
pub(crate) const ENTRY_CAP: usize = 64;

/// Point-in-time view of one stage, for `LoadReport` JSON and the CLI
/// table.
#[derive(Clone, Debug, Default)]
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
#[derive(Clone, Debug, Default)]
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

/// An admitted request on its way through the stages.
struct Job<P> {
    item: Item<P>,
    /// When stage 0 dispatched it: where its queueing ends.
    started_ms: f64,
    /// A browned-out stage served it, or the coordinator rescued it.
    degraded: bool,
}

/// A batch in service; `rescued` when the coordinator serves every
/// remaining stage.
struct InStage<P> {
    done_ms: f64,
    jobs: Vec<Job<P>>,
    rescued: bool,
}

struct Stage<P> {
    /// Plan and counters (`snapshot` fills in the rest).
    info: StageSnapshot,
    /// Coordinator cost of finishing a request from this stage onward.
    rescue_ms: f64,
    queue: VecDeque<Job<P>>,
    serving: Option<InStage<P>>,
    /// A finished batch's jobs still waiting for room below.
    held: VecDeque<Job<P>>,
}

pub(crate) struct Pipeline<P> {
    /// The server's configuration: classes, admission and batching.
    cfg: ServeConfig,
    /// The plan's bottleneck, fill and accuracy.
    plan: PipelineSnapshot,
    stages: Vec<Stage<P>>,
    /// Admitted and not yet resolved: queued, in service or held.
    in_system: usize,
    /// The latest instant the pipeline has acted at.
    now: f64,
    shutdown: bool,
    stats: ServeStats,
    /// Resolved requests the caller has not collected yet.
    exits: Vec<(P, ServeOutcome)>,
}

impl<P> Pipeline<P> {
    /// A pipeline serving a deployed plan under the server's `cfg`.
    pub(crate) fn new(cfg: &ServeConfig, deploy: &PipelineDeploy) -> Self {
        let (plan, report, fallback_ms) = (&deploy.plan, &deploy.report, deploy.fallback_ms);
        assert!(!plan.stages.is_empty() && cfg.max_batch >= 1);
        let total: f64 = report.stages.iter().map(|c| c.compute_ms).sum();
        let stages = plan.stages.iter().zip(&report.stages).enumerate().map(|(s, (st, cost))| {
            let remaining: f64 = report.stages[s..].iter().map(|c| c.compute_ms).sum();
            Stage {
                info: StageSnapshot {
                    device: st.device,
                    units: (st.start, st.end),
                    est_stage_ms: cost.stage_ms(),
                    ..StageSnapshot::default()
                },
                rescue_ms: if total > 0.0 { fallback_ms * remaining / total } else { fallback_ms },
                queue: VecDeque::new(),
                serving: None,
                held: VecDeque::new(),
            }
        });
        Pipeline {
            cfg: cfg.clone(),
            plan: PipelineSnapshot {
                planned_bottleneck_stage: report.bottleneck_stage,
                planned_bottleneck_ms: report.bottleneck_ms,
                fill_ms: report.fill_ms,
                accuracy_pct: deploy.accuracy_pct,
                ..PipelineSnapshot::default()
            },
            stages: stages.collect(),
            in_system: 0,
            now: 0.0,
            shutdown: false,
            stats: ServeStats::default(),
            exits: Vec::new(),
        }
    }

    pub(crate) fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Stopped and empty: every admitted request has resolved.
    pub(crate) fn is_drained(&self) -> bool {
        self.shutdown && self.in_system == 0
    }

    /// Requests resolved since the last call, each with its outcome.
    pub(crate) fn exits(&mut self) -> std::vec::Drain<'_, (P, ServeOutcome)> {
        self.exits.drain(..)
    }

    /// The stage whose batch in service finishes first, and when.
    pub(crate) fn next_event(&self) -> Option<(usize, f64)> {
        let serving = self.stages.iter().enumerate();
        let done = serving.filter_map(|(s, st)| Some((s, st.serving.as_ref()?.done_ms)));
        done.min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Admits a request of `class` arriving at `now`, after running every
    /// event due by then, and dispatches what it can.
    pub(crate) fn submit(
        &mut self,
        id: u64,
        class: usize,
        now: f64,
        payload: P,
        slow: &impl Fn(usize, f64) -> f64,
    ) {
        self.advance(now, slow);
        self.now = self.now.max(now);
        self.stats.submitted += 1;
        let item = Item { id, class, enqueue_ms: now, payload };
        let reason = match self.admit(class) {
            Err(reason) => reason,
            Ok(()) if self.shutdown => RejectReason::Shutdown,
            Ok(()) if self.stages[0].queue.len() >= ENTRY_CAP => RejectReason::QueueFull { class },
            Ok(()) => {
                self.in_system += 1;
                self.stages[0].queue.push_back(Job { item, started_ms: now, degraded: false });
                return self.settle(slow);
            }
        };
        self.reject(item, reason, now);
    }

    /// `policy`'s deadline rule: everything admitted drains one stage
    /// batch per bottleneck period, then this request takes one fill.
    fn admit(&self, class: usize) -> Result<(), RejectReason> {
        let spec = &self.cfg.classes[class];
        let Some(deadline) = spec.deadline_ms().filter(|_| self.cfg.admission) else {
            return Ok(());
        };
        let drain = policy::slots(self.cfg.max_batch, self.cfg.batch_marginal);
        let (period_ms, fill_ms) = (self.plan.planned_bottleneck_ms, self.plan.fill_ms);
        policy::deadline_rule(deadline, self.in_system, drain, period_ms, fill_ms)
    }

    /// Runs every event due by `until` in time order (ties to the upstream
    /// stage), dispatching at each instant what it frees.
    pub(crate) fn advance(&mut self, until: f64, slow: &impl Fn(usize, f64) -> f64) {
        while let Some((s, done_ms)) = self.next_event().filter(|&(_, t)| t <= until) {
            self.now = self.now.max(done_ms);
            if let Some(batch) = self.stages[s].serving.take() {
                if batch.rescued || s + 1 == self.stages.len() {
                    let k = batch.jobs.len();
                    batch.jobs.into_iter().for_each(|job| self.complete(job, k));
                } else {
                    self.stages[s].held.extend(batch.jobs);
                }
            }
            self.settle(slow);
        }
    }

    /// At the current instant, downstream first: held jobs move into the
    /// queue below as it has room, and every free stage takes a batch,
    /// until nothing moves.
    fn settle(&mut self, slow: &impl Fn(usize, f64) -> f64) {
        let mut moved = true;
        while moved {
            moved = false;
            for s in (0..self.stages.len()).rev() {
                if let [up, down, ..] = &mut self.stages[s..] {
                    let n = self.cfg.max_batch.saturating_sub(down.queue.len()).min(up.held.len());
                    down.queue.extend(up.held.drain(..n));
                    moved |= n > 0;
                }
                let st = &self.stages[s];
                if st.serving.is_none() && st.held.is_empty() && !st.queue.is_empty() {
                    self.dispatch(s, slow);
                    moved = true;
                }
            }
        }
    }

    /// Stage `s` takes up to `max_batch` queued jobs at the current
    /// instant. Stage 0 sheds the jobs a fill would make late; a dead
    /// stage rejects those its rescue would make late and hands the rest
    /// to the coordinator; a live one serves them at its brownout-stretched
    /// cost.
    fn dispatch(&mut self, s: usize, slow: &impl Fn(usize, f64) -> f64) {
        let (now, fill_ms) = (self.now, self.plan.fill_ms);
        let (dev, rescue_ms) = (self.stages[s].info.device, self.stages[s].rescue_ms);
        let factor = slow(dev, now);
        let rescued = !factor.is_finite();
        let n = self.stages[s].queue.len().min(self.cfg.max_batch);
        let taken: Vec<Job<P>> = self.stages[s].queue.drain(..n).collect();
        let mut jobs = Vec::with_capacity(n);
        for mut job in taken {
            let (waited_ms, spec) = (now - job.item.enqueue_ms, &self.cfg.classes[job.item.class]);
            let deadline_ms = spec.deadline_ms().unwrap_or(f64::INFINITY);
            let reason = if s == 0 && waited_ms + fill_ms > deadline_ms {
                RejectReason::Expired { waited_ms, deadline_ms }
            } else if rescued && waited_ms + rescue_ms > deadline_ms {
                RejectReason::StageDead { stage: s, dev }
            } else {
                job.started_ms = if s == 0 { now } else { job.started_ms };
                job.degraded |= rescued || factor > 1.0;
                jobs.push(job);
                continue;
            };
            self.in_system -= 1;
            self.stages[s].info.rejected += 1;
            self.reject(job.item, reason, now);
        }
        let k = jobs.len();
        if k == 0 {
            return;
        }
        let unit_ms = if rescued { rescue_ms } else { self.stages[s].info.est_stage_ms * factor };
        let cost = policy::share(self.cfg.batch_marginal, unit_ms, k - 1);
        let info = &mut self.stages[s].info;
        info.busy_ms += cost;
        info.jobs += k as u64;
        info.batches += 1;
        if rescued {
            info.requeued += k as u64;
            self.stats.pipeline_requeued += k as u64;
        }
        self.stages[s].serving = Some(InStage { done_ms: now + cost, jobs, rescued });
    }

    fn reject(&mut self, item: Item<P>, reason: RejectReason, t_ms: f64) {
        self.stats.note_reject(&reason);
        let Item { id, class, payload, .. } = item;
        self.exits.push((payload, ServeOutcome::Rejected(Rejection { id, class, reason, t_ms })));
    }

    fn complete(&mut self, job: Job<P>, batch_size: usize) {
        self.in_system -= 1;
        self.stats.completed += 1;
        self.stats.degraded_served += u64::from(job.degraded);
        let Item { id, class, enqueue_ms, payload } = job.item;
        let queue_ms = (job.started_ms - enqueue_ms).max(0.0);
        let total_ms = self.now - enqueue_ms;
        let done = Completion {
            id,
            class,
            queue_ms,
            service_ms: total_ms - queue_ms,
            total_ms,
            deploy_ms: self.plan.fill_ms,
            accuracy_pct: self.plan.accuracy_pct,
            batch_size,
            // The plan is decided once and reused for the whole stream:
            // the definition of a cache hit.
            cached: true,
            degraded: job.degraded,
            slo_ok: self.cfg.classes[class].met(total_ms, self.plan.accuracy_pct),
        };
        self.exits.push((payload, ServeOutcome::Done(done)));
    }

    /// Stops admission; admitted requests still drain through the stages.
    pub(crate) fn shutdown(&mut self) {
        self.shutdown = true;
    }

    /// A crash: stops admission and drops the entry queue, returned
    /// unresolved. Jobs already past it finish, like batches in service on
    /// the batched path.
    pub(crate) fn abort(&mut self) -> Vec<Item<P>> {
        self.shutdown = true;
        self.in_system -= self.stages[0].queue.len();
        self.stages[0].queue.drain(..).map(|job| job.item).collect()
    }

    /// Per-stage occupancy, `now` virtual ms after the start.
    pub(crate) fn snapshot(&self, now: f64) -> PipelineSnapshot {
        let stages: Vec<StageSnapshot> = self
            .stages
            .iter()
            .map(|st| StageSnapshot {
                utilization: st.info.busy_ms / now.max(1e-9),
                queue_depth: st.queue.len(),
                ..st.info.clone()
            })
            .collect();
        let observed = (0..stages.len())
            .max_by(|&a, &b| stages[a].busy_ms.total_cmp(&stages[b].busy_ms))
            .unwrap_or(0);
        PipelineSnapshot { stages, observed_bottleneck_stage: observed, ..self.plan.clone() }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    //! Step tests: made-up instants, one rule per test. Stage `s` runs on
    //! device `s + 1`, compute only, and the coordinator alone takes
    //! 100 ms per request.
    use super::*;
    use crate::class::ClassSpec;
    use murmuration_partition::compliance::Slo;
    use murmuration_partition::{PipelinePlan, PipelineStage, StageCost, ThroughputReport};
    use murmuration_supernet::SubnetConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Out = Vec<((), ServeOutcome)>;

    fn pipe(classes: Vec<ClassSpec>, stage_ms: &[f64], max_batch: usize) -> Pipeline<()> {
        let cfg =
            ServeConfig { max_batch, batch_marginal: 0.5, ..ServeConfig::engineered(classes) };
        let stages =
            (0..stage_ms.len()).map(|s| PipelineStage { device: s + 1, start: s, end: s + 1 });
        let costs = stage_ms.iter().enumerate().map(|(s, &compute_ms)| StageCost {
            device: s + 1,
            xfer_in_ms: 0.0,
            compute_ms,
            xfer_out_ms: 0.0,
        });
        let report = ThroughputReport {
            stages: costs.collect(),
            bottleneck_ms: stage_ms.iter().cloned().fold(0.0, f64::max),
            bottleneck_stage: 0,
            fill_ms: stage_ms.iter().sum(),
        };
        let deploy = PipelineDeploy {
            config: SubnetConfig { resolution: 224, stages: Vec::new() },
            plan: PipelinePlan { stages: stages.collect() },
            report,
            fallback_ms: 100.0,
            accuracy_pct: 80.0,
            slo: Slo::LatencyMs(1e9),
        };
        Pipeline::new(&cfg, &deploy)
    }

    fn lat(deadline_ms: f64) -> ClassSpec {
        ClassSpec::latency("stream", deadline_ms, 1_000).with_pipeline()
    }

    fn up(_: usize, _: f64) -> f64 {
        1.0
    }

    fn offer(p: &mut Pipeline<()>, id: u64, class: usize, now: f64, out: &mut Out) {
        p.submit(id, class, now, (), &up);
        out.extend(p.exits());
    }

    fn run(p: &mut Pipeline<()>, until: f64, slow: &impl Fn(usize, f64) -> f64, out: &mut Out) {
        p.advance(until, slow);
        out.extend(p.exits());
    }

    fn done(out: &Out, id: u64) -> &Completion {
        out.iter()
            .find_map(|(_, o)| match o {
                ServeOutcome::Done(c) if c.id == id => Some(c),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{id} did not complete: {out:?}"))
    }

    fn reason(out: &Out, id: u64) -> RejectReason {
        out.iter()
            .find_map(|(_, o)| match o {
                ServeOutcome::Rejected(r) if r.id == id => Some(r.reason.clone()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{id} was not rejected: {out:?}"))
    }

    #[test]
    fn admission_counts_jobs_in_stages_not_only_queues() {
        // One batch per 10 ms bottleneck, a 20 ms fill: with job 0 already
        // in stage 0 and nothing queued, job 1 needs 10 · (1 + 2) = 30.
        let mut p = pipe(vec![lat(25.0)], &[10.0, 10.0], 1);
        let mut out = Vec::new();
        offer(&mut p, 0, 0, 0.0, &mut out);
        assert!(out.is_empty() && p.stages[0].queue.is_empty() && p.in_system == 1);
        offer(&mut p, 1, 0, 0.0, &mut out);
        let needed = RejectReason::DeadlineUnmeetable { needed_ms: 30.0, budget_ms: 25.0 };
        assert_eq!(reason(&out, 1), needed);
    }

    #[test]
    fn admission_drains_a_stage_batch_per_bottleneck_period() {
        // max_batch 3 at marginal 0.5 retires 3 / 2 per 10 ms: three ahead
        // need 10 · (3 / 1.5 + 2) = 40.
        let mut p = pipe(vec![lat(39.0)], &[10.0, 10.0], 3);
        let mut out = Vec::new();
        for id in 0..4 {
            offer(&mut p, id, 0, 0.0, &mut out);
        }
        let needed = RejectReason::DeadlineUnmeetable { needed_ms: 40.0, budget_ms: 39.0 };
        assert_eq!((out.len(), reason(&out, 3)), (1, needed));
    }

    #[test]
    fn unmeetable_is_judged_before_shutdown_and_shutdown_before_queue_full() {
        let mut p = pipe(vec![lat(1e9), lat(5.0)], &[10.0], 1);
        let mut out = Vec::new();
        for id in 0..=ENTRY_CAP as u64 {
            offer(&mut p, id, 0, 0.0, &mut out);
        }
        assert!(out.is_empty(), "one in stage 0, {ENTRY_CAP} queued");
        offer(&mut p, 100, 0, 0.0, &mut out);
        offer(&mut p, 101, 1, 0.0, &mut out);
        assert_eq!(reason(&out, 100), RejectReason::QueueFull { class: 0 });
        assert!(matches!(reason(&out, 101), RejectReason::DeadlineUnmeetable { .. }));
        p.shutdown();
        offer(&mut p, 102, 0, 0.0, &mut out);
        offer(&mut p, 103, 1, 0.0, &mut out);
        assert_eq!(reason(&out, 102), RejectReason::Shutdown);
        assert!(matches!(reason(&out, 103), RejectReason::DeadlineUnmeetable { .. }));
        let s = p.stats();
        assert_eq!((s.queue_full, s.deadline_unmeetable, s.shutdown_rejects), (1, 2, 1));
    }

    #[test]
    fn stage_batches_what_queued_at_the_marginal_cost() {
        let mut p = pipe(vec![lat(1e9)], &[10.0], 4);
        let mut out = Vec::new();
        offer(&mut p, 0, 0, 0.0, &mut out);
        for id in 1..4 {
            offer(&mut p, id, 0, 1.0, &mut out);
        }
        run(&mut p, f64::INFINITY, &up, &mut out);
        // Job 0 alone from 0 to 10; jobs 1–3 together from 10 to 30.
        assert_eq!((done(&out, 0).total_ms, done(&out, 0).batch_size), (10.0, 1));
        let c = done(&out, 3);
        assert_eq!((c.queue_ms, c.service_ms, c.batch_size), (9.0, 20.0, 3));
        assert_eq!((p.stages[0].info.batches, p.stages[0].info.jobs), (2, 4));
    }

    #[test]
    fn upstream_stage_is_held_while_the_queue_below_is_full() {
        // Stage 1 takes 100 ms a job and holds one queued; stage 0 finishes
        // job 2 at 30 and must hold it until stage 1 frees at 110.
        let mut p = pipe(vec![lat(1e9)], &[10.0, 100.0], 1);
        let mut out = Vec::new();
        for id in 0..4 {
            offer(&mut p, id, 0, 0.0, &mut out);
        }
        run(&mut p, 50.0, &up, &mut out);
        assert_eq!((p.stages[0].held.len(), p.stages[1].queue.len()), (1, 1));
        assert_eq!(p.stages[0].queue.len(), 1, "a held stage takes no new work");
        run(&mut p, f64::INFINITY, &up, &mut out);
        assert_eq!(done(&out, 3).queue_ms, 110.0, "job 3 enters stage 0 when it frees");
        assert_eq!(done(&out, 3).total_ms, 410.0);
    }

    #[test]
    fn stage_zero_sheds_jobs_whose_budget_no_longer_covers_a_fill() {
        let mut p = pipe(vec![lat(50.0)], &[10.0, 10.0], 1);
        p.cfg.admission = false;
        let mut out = Vec::new();
        for id in 0..5 {
            offer(&mut p, id, 0, 0.0, &mut out);
        }
        run(&mut p, f64::INFINITY, &up, &mut out);
        // Job 3 dispatches at 30: 30 + 20 is on the deadline, not past it.
        assert_eq!(done(&out, 3).total_ms, 50.0);
        let expired = RejectReason::Expired { waited_ms: 40.0, deadline_ms: 50.0 };
        assert_eq!(reason(&out, 4), expired);
        assert_eq!((p.stats().expired, p.stages[0].info.rejected), (1, 1));
    }

    #[test]
    fn brownout_stretches_only_its_own_stage_and_flags_degraded() {
        for (slow_dev, total_ms) in [(1, 40.0), (2, 50.0), (9, 30.0)] {
            let mut p = pipe(vec![lat(1e9)], &[10.0, 20.0], 1);
            let slow = |dev: usize, _: f64| if dev == slow_dev { 2.0 } else { 1.0 };
            let mut out = Vec::new();
            p.submit(0, 0, 0.0, (), &slow);
            run(&mut p, f64::INFINITY, &slow, &mut out);
            let c = done(&out, 0);
            assert_eq!((c.total_ms, c.degraded), (total_ms, slow_dev != 9), "device {slow_dev}");
            assert_eq!(p.stats().degraded_served, u64::from(slow_dev != 9));
        }
    }

    #[test]
    fn dead_stage_rescues_at_the_prorated_fallback() {
        // Stage 1 holds 30 of 40 ms of compute: the coordinator finishes it
        // in 100 · 30 / 40 = 75 ms.
        let mut p = pipe(vec![lat(1e9)], &[10.0, 30.0], 1);
        let dead = |dev: usize, _: f64| if dev == 2 { f64::INFINITY } else { 1.0 };
        let mut out = Vec::new();
        p.submit(0, 0, 0.0, (), &dead);
        run(&mut p, f64::INFINITY, &dead, &mut out);
        let c = done(&out, 0);
        assert_eq!((c.total_ms, c.degraded), (85.0, true));
        assert_eq!((p.stats().pipeline_requeued, p.stages[1].info.requeued), (1, 1));
    }

    #[test]
    fn dead_stage_rejects_stage_dead_when_the_rescue_would_miss() {
        // At 10 the rescue ends at 85, past an 80 ms deadline.
        let mut p = pipe(vec![lat(80.0)], &[10.0, 30.0], 1);
        let dead = |dev: usize, _: f64| if dev == 2 { f64::INFINITY } else { 1.0 };
        let mut out = Vec::new();
        p.submit(0, 0, 0.0, (), &dead);
        run(&mut p, f64::INFINITY, &dead, &mut out);
        assert_eq!(reason(&out, 0), RejectReason::StageDead { stage: 1, dev: 2 });
        let s = p.stats();
        assert_eq!((s.stage_dead, s.pipeline_requeued, p.in_system), (1, 0, 0));
    }

    #[test]
    fn shutdown_drains_every_admitted_job() {
        let mut p = pipe(vec![lat(1e9)], &[10.0, 10.0], 1);
        let mut out = Vec::new();
        for id in 0..4 {
            offer(&mut p, id, 0, 0.0, &mut out);
        }
        p.shutdown();
        assert!(!p.is_drained());
        run(&mut p, f64::INFINITY, &up, &mut out);
        assert_eq!(done(&out, 3).total_ms, 50.0);
        assert!(p.is_drained() && p.next_event().is_none());
        assert_eq!(p.stats().completed, 4);
    }

    #[test]
    fn abort_drops_the_entry_queue_and_lets_the_stages_finish() {
        let mut p = pipe(vec![lat(1e9)], &[10.0, 10.0], 1);
        let mut out = Vec::new();
        for id in 0..4 {
            offer(&mut p, id, 0, 0.0, &mut out);
        }
        run(&mut p, 15.0, &up, &mut out);
        let dropped: Vec<u64> = p.abort().iter().map(|i| i.id).collect();
        assert_eq!(dropped, vec![2, 3], "job 0 is in stage 1, job 1 in stage 0");
        offer(&mut p, 4, 0, 15.0, &mut out);
        assert_eq!(reason(&out, 4), RejectReason::Shutdown);
        run(&mut p, f64::INFINITY, &up, &mut out);
        assert_eq!((done(&out, 0).total_ms, done(&out, 1).total_ms), (20.0, 30.0));
        let s = p.stats();
        assert_eq!(s.submitted, s.completed + s.rejected + dropped.len() as u64);
        assert!(p.is_drained());
    }

    #[test]
    fn every_offered_item_leaves_exactly_once() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let classes = vec![lat(60.0), lat(200.0), ClassSpec::accuracy("acc", 70.0, 8)];
            let n_stages = rng.gen_range(1..5usize);
            let stage_ms: Vec<f64> = (0..n_stages).map(|_| rng.gen_range(1.0..20.0)).collect();
            let mut p = pipe(classes, &stage_ms, rng.gen_range(1..5usize));
            p.cfg.admission = seed % 3 != 0;
            // Each device is up, browned out or down, per 50 ms window.
            let slow = |dev: usize, t: f64| match (seed ^ dev as u64 ^ (t / 50.0) as u64) % 7 {
                0 => f64::INFINITY,
                1 => 1.7,
                _ => 1.0,
            };
            let (mut left, mut out, mut now) = (vec![0u32; 500], Vec::new(), 0.0);
            for id in 0..500u64 {
                now += rng.gen_range(0.0..6.0);
                p.submit(id, rng.gen_range(0..3usize), now, (), &slow);
            }
            let dropped = if seed % 4 == 0 { p.abort() } else { Vec::new() };
            p.shutdown();
            run(&mut p, f64::INFINITY, &slow, &mut out);
            for (_, o) in &out {
                let id = match o {
                    ServeOutcome::Done(c) => c.id,
                    ServeOutcome::Rejected(r) => r.id,
                };
                left[id as usize] += 1;
            }
            dropped.iter().for_each(|i| left[i.id as usize] += 1);
            assert!(left.iter().all(|&n| n == 1), "seed {seed}: {left:?}");
            let s = p.stats();
            assert_eq!(s.submitted, s.completed + s.rejected + dropped.len() as u64, "{seed}");
            assert!(p.is_drained(), "seed {seed}");
        }
    }
}
