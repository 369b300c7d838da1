//! The serving engine: the order of serving events and the service slots,
//! with no thread, no clock and no lock.
//!
//! `Engine` steps `policy` (batched classes) and `pipeline` (throughput-mode
//! classes) over `n_workers` service slots. A slot holds one batch from its
//! take, through its batching window and the driver's decision, to the end
//! of its service. The window is an event: a short batch gathers same-class
//! arrivals until it is full, until `batch_window_ms` after its take, or at
//! once on shutdown. A batch serves its deployed latency times the worst
//! finite slowdown among its plan's devices (the brownout stretch). A crash
//! drops what is queued or gathering and lets dispatched batches finish.
//! The engine builds every outcome of the batched path.
//!
//! Every instant and slowdown comes in as an argument (`slow(dev, t)`,
//! infinite when `dev` is down). A due dispatch is an effect: `due` hands
//! the driver a batch to decide, and the driver answers with `start`. The
//! threaded server (`server`) drives it on a scaled wall clock, deciding
//! outside its lock; the campaign (`campaign`) in virtual time. `P` is what
//! a request carries: its reply channel in the server, nothing in the
//! campaign.

use crate::class::ClassSpec;
use crate::pipeline::{Pipeline, PipelineSnapshot};
use crate::policy::{Batch, Item, Policy};
use crate::request::{Completion, RejectReason, Rejection, ServeOutcome};
use crate::server::{add_counters, ServeConfig, ServeStats};
use murmuration_core::{DeployReport, PipelineDeploy};
use std::mem;

/// A batch in service and what its completions report.
struct Service<P> {
    batch: Batch<P>,
    dispatch_ms: f64,
    done_ms: f64,
    /// Unbatched service time, stretched.
    base_ms: f64,
    deploy_ms: f64,
    accuracy_pct: f32,
    degraded: bool,
    cached: bool,
}

enum Slot<P> {
    Free,
    /// A short batch gathering until its window ends at `.1`.
    Gathering(Batch<P>, f64),
    /// Dispatched at `.1`, waiting for `due` to hand it to the driver.
    Ready(Batch<P>, f64),
    /// Handed to the driver, which is deciding it.
    Deciding(Batch<P>, f64),
    Serving(Service<P>),
}

/// A batch due for a decision for `class`'s SLO, dispatched at `at`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Dispatch {
    pub(crate) slot: usize,
    pub(crate) class: usize,
    pub(crate) at: f64,
}

pub(crate) struct Engine<P> {
    classes: Vec<ClassSpec>,
    max_batch: usize,
    /// 0 when batches never wait.
    window_ms: f64,
    /// Whether a batch holds its slot for its cost (`service_sleep`).
    occupy: bool,
    policy: Policy<P>,
    pipeline: Option<Pipeline<P>>,
    slots: Vec<Slot<P>>,
    /// The latest instant the engine has acted at.
    now: f64,
    exits: Vec<(P, ServeOutcome)>,
}

impl<P> Engine<P> {
    /// An engine under `cfg`; throughput-mode classes stream through `plan`
    /// when the runtime placed one, and are batched otherwise.
    pub(crate) fn new(cfg: &ServeConfig, plan: Option<&PipelineDeploy>) -> Self {
        let batching = cfg.max_batch > 1 && cfg.batch_window_ms > 0.0;
        Engine {
            classes: cfg.classes.clone(),
            max_batch: cfg.max_batch,
            window_ms: if batching { cfg.batch_window_ms } else { 0.0 },
            occupy: cfg.service_sleep,
            policy: Policy::new(cfg),
            pipeline: plan.map(|plan| Pipeline::new(cfg, plan)),
            slots: (0..cfg.n_workers).map(|_| Slot::Free).collect(),
            now: 0.0,
            exits: Vec::new(),
        }
    }

    /// Admitting, nothing queued, every slot free.
    pub(crate) fn is_idle(&self) -> bool {
        self.policy.is_idle() && self.slots.iter().all(|s| matches!(s, Slot::Free))
    }

    /// Stopped, and every admitted request has resolved.
    pub(crate) fn is_drained(&self) -> bool {
        self.policy.is_shutdown()
            && self.slots.iter().all(|s| matches!(s, Slot::Free))
            && self.pipeline.as_ref().is_none_or(Pipeline::is_drained)
    }

    /// Requests resolved since the last call, with their outcomes.
    pub(crate) fn exits(&mut self) -> std::vec::Drain<'_, (P, ServeOutcome)> {
        self.exits.drain(..)
    }

    /// When the engine next acts: at once for a dispatch waiting in `due`,
    /// else at its earliest window end, batch end or pipeline event.
    pub(crate) fn next_event(&self) -> Option<f64> {
        let ready = self.slots.iter().find_map(|s| match s {
            Slot::Ready(_, at) => Some(*at),
            _ => None,
        });
        let slot = self.next_slot_event().map(|(_, t)| t);
        let pipe = self.pipeline.as_ref().and_then(Pipeline::next_event).map(|(_, t)| t);
        ready.or_else(|| [slot, pipe].into_iter().flatten().min_by(f64::total_cmp))
    }

    /// The slot whose window or service ends first (ties to the lower).
    fn next_slot_event(&self) -> Option<(usize, f64)> {
        let ends = self.slots.iter().enumerate().filter_map(|(s, slot)| match slot {
            Slot::Gathering(_, until) => Some((s, *until)),
            Slot::Serving(sv) => Some((s, sv.done_ms)),
            _ => None,
        });
        ends.min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Admits a request of `class` arriving at `now`, after what is due by
    /// then, and fills free slots.
    pub(crate) fn submit(
        &mut self,
        id: u64,
        class: usize,
        now: f64,
        payload: P,
        slow: &impl Fn(usize, f64) -> f64,
    ) {
        if let Some(pipe) = self.pipeline.as_mut().filter(|_| self.classes[class].pipeline) {
            pipe.submit(id, class, now, payload, slow);
            self.exits.extend(pipe.exits());
            return;
        }
        self.advance(now, slow);
        if self.queue(id, class, now, payload) {
            self.fill();
        }
    }

    /// The idle fast path: admits a request and dispatches it at once, a
    /// batch of one with no window. Call only when [`is_idle`](Self::is_idle).
    pub(crate) fn submit_inline(&mut self, id: u64, class: usize, now: f64, payload: P) {
        if self.queue(id, class, now, payload) {
            if let Some(batch) = self.policy.take() {
                self.dispatch(0, batch);
            }
        }
    }

    /// Queues a request arriving at `now`, or resolves its rejection.
    fn queue(&mut self, id: u64, class: usize, now: f64, payload: P) -> bool {
        self.now = self.now.max(now);
        let Err((reason, payload)) = self.policy.submit(id, class, now, payload) else {
            return true;
        };
        self.reject(Item { id, class, enqueue_ms: now, payload }, reason, now);
        false
    }

    /// Runs every event due by `until` in time order, each at its own
    /// instant, stopping at a dispatch that needs a decision.
    pub(crate) fn advance(&mut self, until: f64, slow: &impl Fn(usize, f64) -> f64) {
        if let Some(pipe) = self.pipeline.as_mut() {
            pipe.advance(if self.occupy { until } else { f64::INFINITY }, slow);
            self.exits.extend(pipe.exits());
        }
        while !self.slots.iter().any(|s| matches!(s, Slot::Ready(..))) {
            let Some((s, t)) = self.next_slot_event().filter(|&(_, t)| t <= until) else { break };
            self.now = self.now.max(t);
            match mem::replace(&mut self.slots[s], Slot::Free) {
                Slot::Serving(sv) => self.finish(sv),
                Slot::Gathering(batch, _) => self.dispatch(s, batch),
                other => self.slots[s] = other,
            }
            self.fill();
        }
    }

    /// Hands out the next dispatch waiting for a decision.
    pub(crate) fn due(&mut self) -> Option<Dispatch> {
        let slot = self.slots.iter().position(|s| matches!(s, Slot::Ready(..)))?;
        let Slot::Ready(batch, at) = mem::replace(&mut self.slots[slot], Slot::Free) else {
            return None;
        };
        let dispatch = Dispatch { slot, class: batch.class, at };
        self.slots[slot] = Slot::Deciding(batch, at);
        Some(dispatch)
    }

    /// Answers a [`Dispatch`] whose decision arrived at `now` (the dispatch
    /// instant in virtual time; later on a wall clock, and the slot is held
    /// meanwhile). With no decision the batch is refused `NotReady`;
    /// otherwise it serves `deployed` stretched by its devices' slowdown at
    /// dispatch, holding its slot from `now` for the batch's cost.
    pub(crate) fn start(
        &mut self,
        slot: usize,
        now: f64,
        deployed: Option<(DeployReport, bool)>,
        slow: &impl Fn(usize, f64) -> f64,
    ) {
        let Slot::Deciding(batch, at) = mem::replace(&mut self.slots[slot], Slot::Free) else {
            return;
        };
        let Some((report, cached)) = deployed else {
            for item in self.policy.refuse(batch, &RejectReason::NotReady) {
                self.reject(item, RejectReason::NotReady, at);
            }
            return self.fill();
        };
        let slowdowns = report.devices_used.iter().map(|&dev| slow(dev, at));
        let base_ms = report.latency_ms * slowdowns.filter(|f| f.is_finite()).fold(1.0, f64::max);
        let cost = self.policy.start(&batch, base_ms);
        self.slots[slot] = Slot::Serving(Service {
            batch,
            dispatch_ms: at,
            done_ms: now.max(at) + if self.occupy { cost } else { 0.0 },
            base_ms,
            deploy_ms: report.latency_ms,
            accuracy_pct: report.accuracy_pct,
            degraded: report.degradation.is_degraded(),
            cached,
        });
    }

    /// At the current instant: gathering batches top up (a full one, or any
    /// after shutdown, dispatches), then free slots take what is queued.
    fn fill(&mut self) {
        for s in 0..self.slots.len() {
            if let Slot::Gathering(batch, _) = &mut self.slots[s] {
                self.policy.top_up(batch);
                if batch.items.len() >= self.max_batch || self.policy.is_shutdown() {
                    if let Slot::Gathering(batch, _) = mem::replace(&mut self.slots[s], Slot::Free)
                    {
                        self.dispatch(s, batch);
                    }
                }
            }
        }
        for s in 0..self.slots.len() {
            while matches!(self.slots[s], Slot::Free) {
                let Some(batch) = self.policy.take() else { return };
                if self.window_ms > 0.0
                    && batch.items.len() < self.max_batch
                    && !self.policy.is_shutdown()
                {
                    self.slots[s] = Slot::Gathering(batch, self.now + self.window_ms);
                } else {
                    self.dispatch(s, batch);
                }
            }
        }
    }

    /// Dispatches a batch into free slot `s` now: the policy sheds and cuts
    /// it, and the rest waits for a decision.
    fn dispatch(&mut self, s: usize, mut batch: Batch<P>) {
        for (item, reason) in self.policy.prepare(&mut batch, self.now).0 {
            self.reject(item, reason, self.now);
        }
        if !batch.items.is_empty() {
            self.slots[s] = Slot::Ready(batch, self.now);
        }
    }

    /// A batch's service ends: every member completes.
    fn finish(&mut self, sv: Service<P>) {
        let k = sv.batch.items.len();
        for s in self.policy.finish(sv.batch, sv.dispatch_ms, sv.base_ms, sv.degraded) {
            let Item { id, class, payload, .. } = s.item;
            let total_ms = s.queue_ms + s.service_ms;
            let done = Completion {
                id,
                class,
                queue_ms: s.queue_ms,
                service_ms: s.service_ms,
                total_ms,
                deploy_ms: sv.deploy_ms,
                accuracy_pct: sv.accuracy_pct,
                batch_size: k,
                cached: sv.cached,
                degraded: sv.degraded,
                slo_ok: self.classes[class].met(total_ms, sv.accuracy_pct),
            };
            self.exits.push((payload, ServeOutcome::Done(done)));
        }
    }

    fn reject(&mut self, item: Item<P>, reason: RejectReason, t_ms: f64) {
        let Item { id, class, payload, .. } = item;
        self.exits.push((payload, ServeOutcome::Rejected(Rejection { id, class, reason, t_ms })));
    }

    /// Stops admission; what was admitted drains, and gathering batches
    /// dispatch at once.
    pub(crate) fn shutdown(&mut self) {
        self.policy.shutdown();
        self.pipeline.iter_mut().for_each(Pipeline::shutdown);
        self.fill();
    }

    /// A crash: stops admission and drops, unresolved, every request not
    /// yet dispatched (gathering, queued, in the pipeline's entry queue),
    /// returning their classes in that order. Dispatched batches and jobs
    /// inside the pipeline still finish.
    pub(crate) fn abort(&mut self) -> Vec<usize> {
        let mut dropped = Vec::new();
        for slot in self.slots.iter_mut().filter(|s| matches!(s, Slot::Gathering(..))) {
            if let Slot::Gathering(batch, _) = mem::replace(slot, Slot::Free) {
                dropped.extend(batch.items.iter().map(|i| i.class));
            }
        }
        dropped.extend(self.policy.abort().iter().map(|i| i.class));
        if let Some(pipe) = self.pipeline.as_mut() {
            dropped.extend(pipe.abort().iter().map(|i| i.class));
        }
        dropped
    }

    /// Counts a rejection the driver resolved itself.
    pub(crate) fn note_reject(&mut self, reason: &RejectReason) {
        self.policy.note_reject(reason);
    }

    /// The batched path's counters plus the pipeline's.
    pub(crate) fn stats(&self) -> ServeStats {
        let mut s = self.policy.stats();
        if let Some(p) = self.pipeline.as_ref().map(Pipeline::stats) {
            (s.pipeline_submitted, s.pipeline_completed) = (p.submitted, p.completed);
            add_counters!(s, p; submitted, completed, rejected, queue_full, deadline_unmeetable,
                expired, not_ready, stage_dead, shutdown_rejects, degraded_served, pipeline_requeued);
        }
        s
    }

    /// Per-stage occupancy of the pipeline, `now` virtual ms after start.
    pub(crate) fn pipeline_snapshot(&self, now: f64) -> Option<PipelineSnapshot> {
        self.pipeline.as_ref().map(|p| p.snapshot(now))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    //! Step tests: made-up instants, one rule per test. Batch position `i`
    //! costs `base · (1 + 0.5 i)`.
    use super::*;
    use murmuration_core::Degradation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine(classes: usize, n_workers: usize, max_batch: usize, window_ms: f64) -> Engine<()> {
        let classes = (0..classes).map(|c| ClassSpec::latency(&format!("c{c}"), 1e9, 64)).collect();
        let cfg = ServeConfig {
            n_workers,
            max_batch,
            batch_window_ms: window_ms,
            batch_marginal: 0.5,
            ..ServeConfig::engineered(classes)
        };
        Engine::new(&cfg, None)
    }

    fn up(_: usize, _: f64) -> f64 {
        1.0
    }

    fn report(latency_ms: f64, devices_used: Vec<usize>) -> DeployReport {
        DeployReport {
            switch_time: Default::default(),
            latency_ms,
            accuracy_pct: 80.0,
            slo_met: true,
            devices_used,
            degradation: Degradation::default(),
        }
    }

    /// Answers every due dispatch with a plan of `latency_ms` on device 1.
    fn answer(e: &mut Engine<()>, latency_ms: f64) -> Vec<Dispatch> {
        let mut answered = Vec::new();
        while let Some(d) = e.due() {
            e.start(d.slot, d.at, Some((report(latency_ms, vec![0, 1]), false)), &up);
            answered.push(d);
        }
        answered
    }

    fn completions(e: &mut Engine<()>) -> Vec<Completion> {
        let done = e.exits().filter_map(|(_, o)| o.completion().cloned());
        done.collect()
    }

    #[test]
    fn window_closes_when_the_batch_fills_and_at_expiry_otherwise() {
        let mut e = engine(1, 1, 3, 4.0);
        e.submit(0, 0, 0.0, (), &up);
        assert_eq!((e.due(), e.next_event()), (None, Some(4.0)), "a short batch waits");
        e.submit(1, 0, 1.0, (), &up);
        e.submit(2, 0, 2.0, (), &up);
        // The third arrival fills the batch: it dispatches at once.
        let d = e.due().unwrap();
        assert_eq!((d.slot, d.class, d.at), (0, 0, 2.0));
        e.start(d.slot, d.at, Some((report(10.0, vec![0]), true)), &up);
        assert_eq!(e.next_event(), Some(22.0), "10 · (1 + 0.5 · 2) after dispatch");
        e.advance(22.0, &up);
        let done = completions(&mut e);
        let waits: Vec<f64> = done.iter().map(|c| c.queue_ms).collect();
        assert_eq!((waits, done[2].total_ms, done[2].cached), (vec![2.0, 1.0, 0.0], 20.0, true));
        // Alone, a batch dispatches when its window expires.
        e.submit(3, 0, 30.0, (), &up);
        e.advance(33.9, &up);
        assert!(e.due().is_none());
        e.advance(34.0, &up);
        assert_eq!(e.due().map(|d| d.at), Some(34.0));
    }

    #[test]
    fn shutdown_ends_a_window_at_once() {
        let mut e = engine(1, 1, 8, 4.0);
        e.submit(0, 0, 1.0, (), &up);
        e.shutdown();
        assert_eq!(e.due().map(|d| d.at), Some(1.0));
    }

    #[test]
    fn brownout_stretches_the_service_time_by_the_worst_live_device() {
        let mut e = engine(1, 1, 1, 0.0);
        // Device 2 runs at a third of its speed; device 3 is down, which
        // the stretch ignores (the plan avoided it, or fell back).
        let slow = |dev: usize, _: f64| match dev {
            2 => 3.0,
            3 => f64::INFINITY,
            _ => 1.0,
        };
        e.submit(0, 0, 0.0, (), &slow);
        let d = e.due().unwrap();
        e.start(d.slot, d.at, Some((report(10.0, vec![0, 2, 3]), false)), &slow);
        assert_eq!(e.next_event(), Some(30.0), "the slot is held for the stretched time");
        e.advance(f64::INFINITY, &slow);
        let c = &completions(&mut e)[0];
        assert_eq!((c.service_ms, c.deploy_ms), (30.0, 10.0));
    }

    #[test]
    fn a_late_decision_holds_the_slot_from_its_arrival() {
        let mut e = engine(1, 1, 1, 0.0);
        e.submit(0, 0, 0.0, (), &up);
        let d = e.due().unwrap();
        // Decided on a wall clock 3 ms after its dispatch: the slot is held
        // meanwhile, but the request's queue wait ends at the dispatch.
        e.start(d.slot, 3.0, Some((report(10.0, vec![1]), false)), &up);
        assert_eq!(e.next_event(), Some(13.0));
        e.advance(13.0, &up);
        let c = &completions(&mut e)[0];
        assert_eq!((c.queue_ms, c.service_ms), (0.0, 10.0));
    }

    #[test]
    fn crash_drops_the_queue_and_lets_dispatched_batches_finish() {
        let mut e = engine(2, 2, 2, 4.0);
        e.submit(0, 0, 0.0, (), &up);
        e.submit(1, 0, 0.0, (), &up);
        assert_eq!(answer(&mut e, 10.0).len(), 1, "ids 0 and 1 serve until 15");
        e.submit(2, 0, 1.0, (), &up); // gathers in slot 1
        e.submit(3, 1, 1.0, (), &up); // queued: no slot free
        assert_eq!(e.abort(), vec![0, 1], "the gathering batch, then the queues");
        e.submit(4, 0, 2.0, (), &up);
        e.advance(f64::INFINITY, &up);
        let outcomes: Vec<ServeOutcome> = e.exits().map(|(_, o)| o).collect();
        let done: Vec<u64> = outcomes.iter().filter_map(|o| Some(o.completion()?.id)).collect();
        assert_eq!(done, vec![0, 1]);
        let refused = outcomes.iter().filter_map(ServeOutcome::rejection).map(|r| &r.reason);
        assert_eq!(refused.collect::<Vec<_>>(), vec![&RejectReason::Shutdown]);
        let s = e.stats();
        assert_eq!((s.submitted, s.completed, s.rejected), (5, 2, 1));
        assert!(e.is_drained());
    }

    #[test]
    fn not_ready_refuses_the_batch_and_frees_the_slot() {
        let mut e = engine(1, 1, 1, 0.0);
        e.submit(0, 0, 0.0, (), &up);
        e.submit(1, 0, 1.0, (), &up);
        let d = e.due().unwrap();
        e.start(d.slot, d.at, None, &up);
        let refused: Vec<(u64, f64)> =
            e.exits().filter_map(|(_, o)| o.rejection().map(|r| (r.id, r.t_ms))).collect();
        assert_eq!(refused, vec![(0, 0.0)]);
        assert_eq!(e.due().map(|d| d.at), Some(1.0), "the next request takes the slot");
    }

    #[test]
    fn every_offered_request_leaves_exactly_once() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_workers = rng.gen_range(1..4usize);
            let mut e = engine(3, n_workers, rng.gen_range(1..5usize), rng.gen_range(0.0..6.0));
            let slow = |dev: usize, t: f64| match (seed ^ dev as u64 ^ (t / 50.0) as u64) % 5 {
                0 => f64::INFINITY,
                1 => 1.7,
                _ => 1.0,
            };
            let (mut seen, mut now, mut dropped) = (vec![0u32; 400], 0.0, 0);
            let mut tally = |e: &mut Engine<()>| {
                for (_, o) in e.exits() {
                    let id =
                        o.completion().map_or_else(|| o.rejection().map(|r| r.id), |c| Some(c.id));
                    seen[id.unwrap() as usize] += 1;
                }
            };
            for id in 0..400u64 {
                now += rng.gen_range(0.0..8.0);
                e.advance(now, &slow);
                while let Some(d) = e.due() {
                    let latency_ms = rng.gen_range(1.0..30.0);
                    let served = rng.gen_bool(0.9).then(|| report(latency_ms, vec![0, 1, 2]));
                    e.start(d.slot, d.at, served.map(|r| (r, false)), &slow);
                }
                e.submit(id, rng.gen_range(0..3usize), now, (), &slow);
                if id == 300 && seed % 4 == 0 {
                    dropped = e.abort().len();
                }
                tally(&mut e);
            }
            e.shutdown();
            while !e.is_drained() {
                e.advance(f64::INFINITY, &slow);
                while let Some(d) = e.due() {
                    e.start(d.slot, d.at, Some((report(5.0, vec![1]), false)), &slow);
                }
            }
            tally(&mut e);
            let lost = seen.iter().filter(|&&n| n == 0).count();
            assert!(seen.iter().all(|&n| n <= 1) && lost == dropped, "seed {seed}: {seen:?}");
            let s = e.stats();
            assert_eq!(s.submitted, s.completed + s.rejected + dropped as u64, "seed {seed}");
            assert!(e.next_event().is_none(), "seed {seed}");
        }
    }
}
