//! The serving policy: one state machine with no threads and no clock.
//!
//! `Policy` owns every rule that decides what happens to a request on the
//! batched path: the per-class bounded queues and which class drains next
//! (priority order, or oldest head under `fifo`), admission
//! (`DeadlineUnmeetable`, then `Shutdown`, then `QueueFull`), the
//! predictive shed (`Expired`), the marginal-cost batch cut, a batch's cost
//! and each member's service share, the two service-time EWMAs, the count
//! of requests in service, shutdown and abort, and the conservation
//! counters. The caller, `engine`, passes every instant in (virtual ms)
//! and keeps the service slots, the batching window and the order of
//! events; decide/deploy are its drivers'. `P` is what a request carries.
//!
//! A batch's life: `take` gathers it; `prepare` dispatches it, shedding and cutting it and
//! counting it in service; then either `refuse` releases it, or `start`
//! prices it and `finish` completes it.

use crate::class::ClassSpec;
use crate::request::RejectReason;
use crate::server::{ServeConfig, ServeStats};
use std::collections::VecDeque;

/// A request the policy holds, queued or in service.
pub(crate) struct Item<P> {
    pub(crate) id: u64,
    pub(crate) class: usize,
    /// Admission instant (virtual ms).
    pub(crate) enqueue_ms: f64,
    pub(crate) payload: P,
}

/// Same-class requests in service, head first.
pub(crate) struct Batch<P> {
    pub(crate) class: usize,
    pub(crate) items: Vec<Item<P>>,
    /// How many requests the take gathered: the batch counts them all in
    /// service from its dispatch until it ends.
    taken: usize,
}

/// A completed batch member: its queue wait and its service share.
pub(crate) struct Served<P> {
    pub(crate) item: Item<P>,
    pub(crate) queue_ms: f64,
    pub(crate) service_ms: f64,
}

pub(crate) struct Policy<P> {
    classes: Vec<ClassSpec>,
    admission: bool,
    fifo: bool,
    n_workers: usize,
    max_batch: usize,
    /// Cost of each extra batched request relative to the first.
    batch_marginal: f64,
    queues: Vec<VecDeque<Item<P>>>,
    /// Requests in dispatched batches that have not ended. A batch counts
    /// its whole take from dispatch (`prepare`) until it finishes or is
    /// refused, shed and cut members included, and nothing while a driver
    /// waits out its batching window: the server's rule, so a cut tail
    /// weighs twice in admission while its batch serves.
    in_service: usize,
    /// EWMA of per-request service time (batch cost / size); 0 until the
    /// first batch finishes.
    ewma_service_ms: f64,
    /// Per-class EWMA of a batch's unbatched service time. Per class
    /// because each class's SLO steers the decision toward different
    /// models; a shared estimate would let a cheap class drag it below an
    /// expensive class's real cost.
    ewma_base_ms: Vec<f64>,
    shutdown: bool,
    stats: ServeStats,
}

/// Exponentially weighted moving average; an `old` of 0 means no sample
/// yet, so the first sample is taken as is.
fn ewma(old: f64, sample: f64) -> f64 {
    if old == 0.0 {
        sample
    } else {
        0.3 * sample + 0.7 * old
    }
}

/// Position `i`'s service share in a batch whose unbatched service takes
/// `base_ms`: the shared fill plus `i` marginal costs. A batch of `k`
/// costs its last position's share.
pub(crate) fn share(marginal: f64, base_ms: f64, i: usize) -> f64 {
    base_ms * (1.0 + marginal * i as f64)
}

/// Requests one server of full `max_batch` batches retires per unbatched
/// service time.
pub(crate) fn slots(max_batch: usize, marginal: f64) -> f64 {
    max_batch as f64 / share(marginal, 1.0, max_batch - 1)
}

/// The deadline rule both serving cores admit by: the `ahead` requests
/// drain at `slots` per `period_ms`, then this one takes `service_ms`.
pub(crate) fn deadline_rule(
    deadline_ms: f64,
    ahead: usize,
    slots: f64,
    period_ms: f64,
    service_ms: f64,
) -> Result<(), RejectReason> {
    let needed_ms = period_ms * (ahead as f64 / slots + service_ms / period_ms);
    if needed_ms > deadline_ms {
        Err(RejectReason::DeadlineUnmeetable { needed_ms, budget_ms: deadline_ms })
    } else {
        Ok(())
    }
}

impl<P> Policy<P> {
    pub(crate) fn new(cfg: &ServeConfig) -> Self {
        assert!(!cfg.classes.is_empty(), "need at least one SLO class");
        assert!(cfg.n_workers >= 1 && cfg.max_batch >= 1);
        Policy {
            classes: cfg.classes.clone(),
            admission: cfg.admission,
            fifo: cfg.fifo,
            n_workers: cfg.n_workers,
            max_batch: cfg.max_batch,
            batch_marginal: cfg.batch_marginal,
            queues: cfg.classes.iter().map(|_| VecDeque::new()).collect(),
            in_service: 0,
            ewma_service_ms: 0.0,
            ewma_base_ms: vec![0.0; cfg.classes.len()],
            shutdown: false,
            stats: ServeStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> ServeStats {
        self.stats
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Admitting, nothing queued and nothing in service: when the idle
    /// fast path may serve on the submitter's thread.
    pub(crate) fn is_idle(&self) -> bool {
        !self.shutdown && self.in_service == 0 && self.queues.iter().all(VecDeque::is_empty)
    }

    /// Queues a request of `class` arriving at `now`, or hands its payload
    /// back with the (already counted) reason it was refused.
    pub(crate) fn submit(
        &mut self,
        id: u64,
        class: usize,
        now: f64,
        payload: P,
    ) -> Result<(), (RejectReason, P)> {
        self.stats.submitted += 1;
        let reason = match self.admit(class) {
            Err(reason) => reason,
            Ok(()) if self.shutdown => RejectReason::Shutdown,
            Ok(()) if self.queues[class].len() >= self.classes[class].queue_capacity => {
                RejectReason::QueueFull { class }
            }
            Ok(()) => {
                self.queues[class].push_back(Item { id, class, enqueue_ms: now, payload });
                return Ok(());
            }
        };
        self.note_reject(&reason);
        Err((reason, payload))
    }

    /// Deadline-aware admission for a latency class: the predicted queue
    /// wait plus one service time must fit the deadline. The wait is the
    /// backlog that drains first (same-or-higher priority, or everything
    /// under FIFO, plus the requests in service) over the drain rate: each
    /// service slot retires `max_batch` requests per batch cost.
    fn admit(&self, class: usize) -> Result<(), RejectReason> {
        let Some(deadline) = self.classes[class].deadline_ms().filter(|_| self.admission) else {
            return Ok(());
        };
        let ewma = self.ewma_service_ms;
        if ewma <= 0.0 {
            return Ok(()); // no evidence yet: admit optimistically
        }
        let ahead = self.backlog_ahead(class) + self.in_service;
        let drain = self.n_workers as f64 * slots(self.max_batch, self.batch_marginal);
        deadline_rule(deadline, ahead, drain, ewma, ewma)
    }

    /// Queued requests that drain before a new arrival of `class`.
    fn backlog_ahead(&self, class: usize) -> usize {
        let ahead = if self.fifo { &self.queues[..] } else { &self.queues[..=class] };
        ahead.iter().map(VecDeque::len).sum()
    }

    /// Gathers up to `max_batch` queued requests of the class that drains
    /// next, or `None` when nothing is queued.
    pub(crate) fn take(&mut self) -> Option<Batch<P>> {
        let class = if self.fifo {
            self.queues
                .iter()
                .enumerate()
                .filter_map(|(c, q)| q.front().map(|item| (c, item.enqueue_ms)))
                .min_by(|a, b| a.1.total_cmp(&b.1))?
                .0
        } else {
            self.queues.iter().position(|q| !q.is_empty())?
        };
        let mut batch = Batch { class, items: Vec::with_capacity(self.max_batch), taken: 0 };
        self.top_up(&mut batch);
        Some(batch)
    }

    /// Fills a gathered batch from its class queue up to `max_batch` (the
    /// batching window's second look).
    pub(crate) fn top_up(&mut self, batch: &mut Batch<P>) {
        let queue = &mut self.queues[batch.class];
        let n = self.max_batch.saturating_sub(batch.items.len()).min(queue.len());
        batch.items.extend(queue.drain(..n));
        batch.taken += n;
    }

    /// Dispatches a batch at `now`: trims a latency-class batch, then
    /// counts it in service unless nothing is left (it ends here). Returns
    /// the shed requests with their (counted) reasons and the number
    /// requeued.
    pub(crate) fn prepare(
        &mut self,
        batch: &mut Batch<P>,
        now: f64,
    ) -> (Vec<(Item<P>, RejectReason)>, usize) {
        let trimmed = match self.classes[batch.class].deadline_ms() {
            Some(deadline_ms) => self.trim(batch, now, deadline_ms),
            None => (Vec::new(), 0),
        };
        if !batch.items.is_empty() {
            self.in_service += batch.taken;
        }
        trimmed
    }

    /// The predictive shed rejects any member whose wait plus one
    /// estimated service reaches its deadline: it could only complete
    /// late. The estimate is the class's base EWMA, or the per-request one
    /// before the class has a sample (0 without admission, so only the
    /// truly expired go). Then the batch cut: position `i` pays `share(i)`
    /// of the class's base EWMA, so the batch ends before the first
    /// position that would miss, and that tail returns to the front of its
    /// queue in order.
    fn trim(
        &mut self,
        batch: &mut Batch<P>,
        now: f64,
        deadline_ms: f64,
    ) -> (Vec<(Item<P>, RejectReason)>, usize) {
        let base = self.ewma_base_ms[batch.class];
        let est = match (self.admission, base > 0.0) {
            (false, _) => 0.0,
            (true, true) => base,
            (true, false) => self.ewma_service_ms,
        };
        let mut expired = Vec::new();
        let mut live = Vec::with_capacity(batch.items.len());
        for item in batch.items.drain(..) {
            let waited_ms = now - item.enqueue_ms;
            if waited_ms + est >= deadline_ms {
                let reason = RejectReason::Expired { waited_ms, deadline_ms };
                self.note_reject(&reason);
                expired.push((item, reason));
            } else {
                live.push(item);
            }
        }
        batch.items = live;
        let mut requeued = 0;
        if self.admission && base > 0.0 {
            let cut = batch.items.iter().enumerate().skip(1).find(|(i, item)| {
                now - item.enqueue_ms + share(self.batch_marginal, base, *i) > deadline_ms
            });
            if let Some((cut, _)) = cut {
                let tail = batch.items.split_off(cut);
                requeued = tail.len();
                for item in tail.into_iter().rev() {
                    self.queues[batch.class].push_front(item);
                }
            }
        }
        (expired, requeued)
    }

    /// Releases a whole batch unserved with `reason` (counted once per
    /// member) and hands its requests back.
    pub(crate) fn refuse(&mut self, batch: Batch<P>, reason: &RejectReason) -> Vec<Item<P>> {
        self.in_service -= batch.taken;
        for _ in &batch.items {
            self.note_reject(reason);
        }
        batch.items
    }

    /// Starts serving a prepared, non-empty batch whose unbatched service
    /// takes `base_ms`: counts it, feeds the class's base EWMA, and returns
    /// the batch's cost, the time it occupies a service slot.
    pub(crate) fn start(&mut self, batch: &Batch<P>, base_ms: f64) -> f64 {
        let k = batch.items.len();
        self.stats.batches += 1;
        self.stats.max_batch_seen = self.stats.max_batch_seen.max(k as u64);
        if k >= 2 {
            self.stats.batched_requests += k as u64;
        }
        self.ewma_base_ms[batch.class] = ewma(self.ewma_base_ms[batch.class], base_ms);
        share(self.batch_marginal, base_ms, k.saturating_sub(1))
    }

    /// Completes a started batch dispatched at `dispatch_ms`: feeds the
    /// per-request EWMA, counts the completions, and yields each member
    /// with its queue wait and service share, in batch order.
    pub(crate) fn finish(
        &mut self,
        batch: Batch<P>,
        dispatch_ms: f64,
        base_ms: f64,
        degraded: bool,
    ) -> impl Iterator<Item = Served<P>> {
        let k = batch.items.len();
        let cost = share(self.batch_marginal, base_ms, k.saturating_sub(1));
        self.ewma_service_ms = ewma(self.ewma_service_ms, cost / k.max(1) as f64);
        self.in_service -= batch.taken;
        self.stats.completed += k as u64;
        if degraded {
            self.stats.degraded_served += k as u64;
        }
        let marginal = self.batch_marginal;
        batch.items.into_iter().enumerate().map(move |(i, item)| Served {
            queue_ms: dispatch_ms - item.enqueue_ms,
            service_ms: share(marginal, base_ms, i),
            item,
        })
    }

    /// Stops admission; queued requests still drain through `take`.
    pub(crate) fn shutdown(&mut self) {
        self.shutdown = true;
    }

    /// A crash: stops admission and drops every queued request, returned
    /// unresolved. Conservation moves to the caller (a failover standby
    /// re-serves them); batches in service still finish.
    pub(crate) fn abort(&mut self) -> Vec<Item<P>> {
        self.shutdown = true;
        self.queues.iter_mut().flat_map(|q| q.drain(..)).collect()
    }

    /// Counts one rejection: the total and its reason.
    pub(crate) fn note_reject(&mut self, reason: &RejectReason) {
        self.stats.note_reject(reason);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    //! Step tests: made-up instants, one rule per test.
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn lat(name: &str, deadline_ms: f64, cap: usize) -> ClassSpec {
        ClassSpec::latency(name, deadline_ms, cap)
    }

    /// One worker, marginal 0.5, admission on.
    fn policy(classes: Vec<ClassSpec>, fifo: bool, max_batch: usize) -> Policy<()> {
        let cfg = ServeConfig::engineered(classes);
        Policy::new(&ServeConfig { n_workers: 1, max_batch, batch_marginal: 0.5, fifo, ..cfg })
    }

    fn offer(p: &mut Policy<()>, id: u64, class: usize, now: f64) -> Result<(), RejectReason> {
        p.submit(id, class, now, ()).map_err(|(reason, ())| reason)
    }

    fn ids(batch: &Batch<()>) -> Vec<u64> {
        batch.items.iter().map(|i| i.id).collect()
    }

    /// Serves a taken batch at `now` with unbatched service `base_ms`.
    fn serve(p: &mut Policy<()>, mut batch: Batch<()>, now: f64, base_ms: f64) -> Vec<u64> {
        let _ = p.prepare(&mut batch, now);
        p.start(&batch, base_ms);
        p.finish(batch, now, base_ms, false).map(|s| s.item.id).collect()
    }

    #[test]
    fn priority_order_drains_class_zero_first() {
        let mut p = policy(vec![lat("a", 1e9, 4), lat("b", 1e9, 4)], false, 1);
        offer(&mut p, 1, 1, 0.0).unwrap();
        offer(&mut p, 0, 0, 5.0).unwrap();
        // Class 0 arrived later but outranks class 1.
        let b = p.take().unwrap();
        assert_eq!((ids(&b), b.class), (vec![0], 0));
    }

    #[test]
    fn fifo_order_drains_oldest_head() {
        let mut p = policy(vec![lat("a", 1e9, 4), lat("b", 1e9, 4)], true, 1);
        offer(&mut p, 1, 1, 0.0).unwrap();
        offer(&mut p, 0, 0, 5.0).unwrap();
        assert_eq!(ids(&p.take().unwrap()), vec![1], "older head wins under FIFO");
    }

    #[test]
    fn batch_drains_same_class_only() {
        let mut p = policy(vec![lat("a", 1e9, 8), lat("b", 1e9, 8)], false, 8);
        for i in 0..3 {
            offer(&mut p, i, 0, i as f64).unwrap();
        }
        offer(&mut p, 99, 1, 0.0).unwrap();
        let b = p.take().unwrap();
        assert_eq!(ids(&b), vec![0, 1, 2], "only class-0 requests coalesce");
        assert_eq!(ids(&p.take().unwrap()), vec![99], "class-1 request still queued");
    }

    #[test]
    fn full_queue_hands_request_back() {
        let mut p = policy(vec![lat("a", 1e9, 1)], false, 1);
        offer(&mut p, 0, 0, 0.0).unwrap();
        assert_eq!(offer(&mut p, 1, 0, 0.0), Err(RejectReason::QueueFull { class: 0 }));
        assert_eq!((p.stats().rejected, p.stats().queue_full), (1, 1));
    }

    #[test]
    fn shutdown_drains_then_signals_exit() {
        let mut p = policy(vec![lat("a", 1e9, 4)], false, 4);
        offer(&mut p, 7, 0, 0.0).unwrap();
        p.shutdown();
        assert_eq!(offer(&mut p, 8, 0, 0.0), Err(RejectReason::Shutdown), "no admission");
        assert_eq!(ids(&p.take().unwrap()), vec![7], "queued work still drains");
        assert!(p.take().is_none() && p.is_shutdown(), "then the worker exits");
        assert_eq!(p.stats().shutdown_rejects, 1);
    }

    #[test]
    fn first_admission_is_optimistic() {
        // No finished batch yet: nothing to predict from, so even a 1 ms
        // deadline admits until the queue is full.
        let mut p = policy(vec![lat("a", 1.0, 3)], false, 1);
        p.ewma_base_ms[0] = 1e6; // the class base EWMA is not the admission estimate
        for id in 0..3 {
            assert_eq!(offer(&mut p, id, 0, 0.0), Ok(()));
        }
        assert_eq!(offer(&mut p, 3, 0, 0.0), Err(RejectReason::QueueFull { class: 0 }));
    }

    #[test]
    fn admission_estimate_is_the_per_request_ewma() {
        let mut p = policy(vec![lat("a", 25.0, 8)], false, 2);
        offer(&mut p, 0, 0, 0.0).unwrap();
        let b = p.take().unwrap();
        serve(&mut p, b, 0.0, 16.0);
        // A batch of one at base 16 costs 16 per request; at marginal 0.5
        // and two-request batches one worker drains 2/1.5 requests per
        // cost, so one queued request ahead adds 16 * 0.75.
        assert_eq!(offer(&mut p, 1, 0, 0.0), Ok(()));
        let needed_ms = 16.0 * (1.0 / (2.0 / 1.5) + 1.0);
        let refused = offer(&mut p, 2, 0, 0.0);
        assert_eq!(refused, Err(RejectReason::DeadlineUnmeetable { needed_ms, budget_ms: 25.0 }));
    }

    #[test]
    fn admission_backlog_is_same_or_higher_priority_plus_in_service() {
        let mut p = policy(vec![lat("a", 15.0, 16), lat("b", 1000.0, 16)], false, 1);
        p.ewma_service_ms = 10.0;
        for id in 0..10 {
            offer(&mut p, id, 1, 0.0).unwrap();
        }
        assert_eq!(offer(&mut p, 10, 0, 0.0), Ok(()), "lower-priority backlog is not ahead");
        let mut b = p.take().unwrap();
        assert_eq!((b.class, p.in_service), (0, 0), "gathered, not yet dispatched");
        let _ = p.prepare(&mut b, 0.0);
        // Nothing of class 0 queued, one request in service.
        let refused = offer(&mut p, 11, 0, 0.0);
        let needed = RejectReason::DeadlineUnmeetable { needed_ms: 20.0, budget_ms: 15.0 };
        assert_eq!(refused, Err(needed));
    }

    #[test]
    fn fifo_admission_backlog_is_everything_queued() {
        let mut p = policy(vec![lat("a", 15.0, 16), lat("b", 1000.0, 16)], true, 1);
        p.ewma_service_ms = 10.0;
        for id in 0..10 {
            offer(&mut p, id, 1, 0.0).unwrap();
        }
        let refused = offer(&mut p, 10, 0, 0.0);
        let needed = RejectReason::DeadlineUnmeetable { needed_ms: 110.0, budget_ms: 15.0 };
        assert_eq!(refused, Err(needed));
    }

    #[test]
    fn deadline_unmeetable_is_judged_before_queue_full() {
        let mut p = policy(vec![lat("a", 15.0, 1)], false, 1);
        offer(&mut p, 0, 0, 0.0).unwrap();
        p.ewma_service_ms = 10.0; // one ahead: needs 20 > 15, and the queue is full
        assert!(matches!(offer(&mut p, 1, 0, 0.0), Err(RejectReason::DeadlineUnmeetable { .. })));
        p.ewma_service_ms = 1.0;
        assert_eq!(offer(&mut p, 2, 0, 0.0), Err(RejectReason::QueueFull { class: 0 }));
        let s = p.stats();
        assert_eq!((s.submitted, s.rejected, s.deadline_unmeetable, s.queue_full), (3, 2, 1, 1));
    }

    #[test]
    fn not_ready_refuses_the_batch_not_the_queue() {
        let mut p = policy(vec![lat("a", 1e9, 8)], false, 2);
        for id in 0..3 {
            offer(&mut p, id, 0, 0.0).unwrap();
        }
        let mut b = p.take().unwrap();
        let _ = p.prepare(&mut b, 0.0);
        let refused = p.refuse(b, &RejectReason::NotReady);
        assert_eq!(refused.iter().map(|i| i.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!((p.stats().not_ready, p.stats().rejected, p.in_service), (2, 2, 0));
        assert_eq!(ids(&p.take().unwrap()), vec![2], "the rest of the queue still serves");
    }

    #[test]
    fn shed_judges_every_member_with_the_class_ewma_first() {
        // At t = 60 two members have waited 60 and one 10; est 40 puts the
        // first two exactly on their 100 ms deadline, which sheds.
        for (base, global) in [(40.0, 1e3), (0.0, 40.0)] {
            let mut p = policy(vec![lat("a", 100.0, 8)], false, 4);
            offer(&mut p, 0, 0, 0.0).unwrap();
            offer(&mut p, 1, 0, 0.0).unwrap();
            offer(&mut p, 2, 0, 50.0).unwrap();
            (p.ewma_base_ms[0], p.ewma_service_ms) = (base, global);
            let mut b = p.take().unwrap();
            let (expired, requeued) = p.prepare(&mut b, 60.0);
            let shed: Vec<u64> = expired.iter().map(|(i, _)| i.id).collect();
            assert_eq!((shed, ids(&b), requeued), (vec![0, 1], vec![2], 0), "base {base}");
            let waited = RejectReason::Expired { waited_ms: 60.0, deadline_ms: 100.0 };
            assert_eq!(expired[0].1, waited);
            assert_eq!((p.stats().expired, p.in_service), (2, 3), "from dispatch, the whole take");
        }
    }

    #[test]
    fn shed_without_admission_drops_only_the_expired() {
        let cfg =
            ServeConfig { admission: false, ..ServeConfig::engineered(vec![lat("a", 100.0, 8)]) };
        let mut p: Policy<()> = Policy::new(&cfg);
        p.ewma_base_ms[0] = 90.0;
        offer(&mut p, 0, 0, 0.0).unwrap();
        offer(&mut p, 1, 0, 1.0).unwrap();
        let mut b = p.take().unwrap();
        let (expired, _) = p.prepare(&mut b, 100.0);
        assert_eq!((expired.len(), ids(&b)), (1, vec![1]));
    }

    #[test]
    fn cut_prices_positions_from_the_class_ewma_and_requeues_the_tail_in_order() {
        let mut p = policy(vec![lat("a", 100.0, 8)], false, 4);
        for id in 0..6 {
            offer(&mut p, id, 0, 0.0).unwrap();
        }
        (p.ewma_base_ms[0], p.ewma_service_ms) = (40.0, 1e3);
        let mut b = p.take().unwrap();
        // At t = 30 position i finishes at 30 + 40 (1 + 0.5 i): 70, 90,
        // 110 — the batch ends before position 2.
        let (expired, requeued) = p.prepare(&mut b, 30.0);
        assert!(expired.is_empty());
        assert_eq!((ids(&b), requeued, p.in_service), (vec![0, 1], 2, 4));
        assert_eq!(ids(&p.take().unwrap()), vec![2, 3, 4, 5], "tail back at the front, in order");
    }

    #[test]
    fn batch_cost_and_shares_follow_the_marginal() {
        let mut p = policy(vec![lat("a", 1e9, 8)], false, 4);
        for id in 0..3 {
            offer(&mut p, id, 0, id as f64).unwrap();
        }
        let mut b = p.take().unwrap();
        let _ = p.prepare(&mut b, 10.0);
        assert_eq!(p.start(&b, 20.0), 40.0, "20 * (1 + 0.5 * 2)");
        let served: Vec<(f64, f64)> =
            p.finish(b, 10.0, 20.0, false).map(|s| (s.queue_ms, s.service_ms)).collect();
        assert_eq!(served, vec![(10.0, 20.0), (9.0, 30.0), (8.0, 40.0)]);
    }

    #[test]
    fn batched_requests_count_only_batches_of_two_or_more() {
        let mut p = policy(vec![lat("a", 1e9, 8)], false, 4);
        offer(&mut p, 0, 0, 0.0).unwrap();
        let b = p.take().unwrap();
        serve(&mut p, b, 0.0, 10.0);
        for id in 1..4 {
            offer(&mut p, id, 0, 0.0).unwrap();
        }
        let b = p.take().unwrap();
        serve(&mut p, b, 0.0, 10.0);
        let s = p.stats();
        assert_eq!((s.batches, s.batched_requests, s.completed, s.max_batch_seen), (2, 3, 4, 3));
    }

    #[test]
    fn ewmas_weigh_the_new_sample_at_three_tenths() {
        let mut p = policy(vec![lat("a", 1e9, 8)], false, 4);
        for base in [100.0, 200.0] {
            offer(&mut p, 0, 0, 0.0).unwrap();
            let b = p.take().unwrap();
            serve(&mut p, b, 0.0, base);
        }
        assert!((p.ewma_service_ms - 130.0).abs() < 1e-9, "{}", p.ewma_service_ms);
        assert!((p.ewma_base_ms[0] - 130.0).abs() < 1e-9, "{}", p.ewma_base_ms[0]);
    }

    #[test]
    fn abort_drops_the_queue_and_lets_service_finish() {
        let mut p = policy(vec![lat("a", 1e9, 8)], false, 2);
        for id in 0..5 {
            offer(&mut p, id, 0, 0.0).unwrap();
        }
        let b = p.take().unwrap();
        let dropped: Vec<u64> = p.abort().iter().map(|i| i.id).collect();
        assert_eq!(dropped, vec![2, 3, 4]);
        assert_eq!(offer(&mut p, 5, 0, 0.0), Err(RejectReason::Shutdown));
        assert_eq!(serve(&mut p, b, 0.0, 10.0), vec![0, 1]);
        let s = p.stats();
        assert_eq!(s.submitted, s.completed + s.rejected + dropped.len() as u64);
    }

    #[test]
    fn retries_enter_a_fresh_standby_through_its_admission() {
        let mut primary = policy(vec![lat("a", 1e9, 4)], false, 1);
        for id in 0..3 {
            offer(&mut primary, id, 0, 0.0).unwrap();
        }
        primary.ewma_service_ms = 10.0;
        let mut standby = policy(vec![lat("a", 1e9, 2)], false, 1);
        let outcomes: Vec<_> =
            primary.abort().into_iter().map(|i| offer(&mut standby, i.id, i.class, 9.0)).collect();
        let full = Err(RejectReason::QueueFull { class: 0 });
        assert_eq!(outcomes, vec![Ok(()), Ok(()), full], "capacity holds for retries too");
        assert_eq!(standby.ewma_service_ms, 0.0, "no estimate carried over");
    }

    #[test]
    fn every_offered_item_leaves_exactly_once() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let classes =
                vec![lat("a", 30.0, 4), lat("b", 80.0, 6), ClassSpec::accuracy("c", 70.0, 8)];
            let mut p = policy(classes, seed % 2 == 1, 3);
            let mut left = vec![0u32; 400];
            let mut in_flight: Vec<Batch<()>> = Vec::new();
            let mut now = 0.0;
            for id in 0..400u64 {
                now += rng.gen_range(0.0..5.0);
                if offer(&mut p, id, rng.gen_range(0..3usize), now).is_err() {
                    left[id as usize] += 1;
                }
                if rng.gen_bool(0.4) {
                    if let Some(mut b) = p.take() {
                        for (item, _) in p.prepare(&mut b, now).0 {
                            left[item.id as usize] += 1;
                        }
                        if !b.items.is_empty() {
                            in_flight.push(b);
                        }
                    }
                }
                if rng.gen_bool(0.3) && !in_flight.is_empty() {
                    let b = in_flight.remove(0);
                    let gone: Vec<u64> = if rng.gen_bool(0.1) {
                        p.refuse(b, &RejectReason::NotReady).iter().map(|i| i.id).collect()
                    } else {
                        p.start(&b, rng.gen_range(1.0..20.0));
                        p.finish(b, now, 10.0, false).map(|s| s.item.id).collect()
                    };
                    gone.into_iter().for_each(|id| left[id as usize] += 1);
                }
            }
            let dropped = if seed % 4 == 0 { p.abort() } else { Vec::new() };
            dropped.iter().for_each(|i| left[i.id as usize] += 1);
            p.shutdown();
            for b in in_flight.drain(..) {
                p.finish(b, now, 1.0, false).for_each(|s| left[s.item.id as usize] += 1);
            }
            while let Some(b) = p.take() {
                serve_all(&mut p, b, &mut left);
            }
            assert!(left.iter().all(|&n| n == 1), "seed {seed}: {left:?}");
            let s = p.stats();
            assert_eq!(s.submitted, s.completed + s.rejected + dropped.len() as u64, "{seed}");
            assert_eq!(p.in_service, 0);
        }
    }

    fn serve_all(p: &mut Policy<()>, mut b: Batch<()>, left: &mut [u32]) {
        for (item, _) in p.prepare(&mut b, 1e6).0 {
            left[item.id as usize] += 1;
        }
        if !b.items.is_empty() {
            p.start(&b, 1.0);
            p.finish(b, 1e6, 1.0, false).for_each(|s| left[s.item.id as usize] += 1);
        }
    }
}
