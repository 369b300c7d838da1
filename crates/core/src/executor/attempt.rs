//! The attempt state machine behind every executor entry point.
//!
//! A [`Slot`] is one `Single` unit, one FDSP tile, or one streamed request's
//! current stage. Its inputs are dispatch, reply and a tick at an explicit
//! `now`; a worker's death arrives as a [`ReplyError::Link`] reply, which
//! every transport owes each job it drops. Its effects are submit, cancel
//! and `mark_dead` on the executor's transport, and the [`Settled`] value a
//! step returns. It reads no clock and never blocks, so tests step it over
//! a fake transport with made-up instants; [`drive`] feeds it real replies
//! and real time.
//!
//! The rules, written once for every path:
//!
//! * **Send-time errors** shun the device and fall to the next candidate
//!   within the same attempt; the slot fails only when no device is left.
//! * **Retries** follow a failed attempt (an error reply, a missed
//!   deadline) after a `backoff · 2^(k−1)` timer, capped at 2^6, until
//!   `max_attempts` is spent.
//! * **Failovers** count completions whose winning primary ran off-plan.
//! * **Hedges** (Singles and stream stages; tiles neither hedge nor feed the
//!   latency history) go to the least-loaded non-shunned device once an
//!   attempt outlives its trigger. The first reply wins; the loser is
//!   cancelled.
//! * **Stale replies** are dropped by (tag, attempt, side).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use super::{ExecError, ExecOptions, ExecReport, Executor};
use crate::transport::{ReplyError, SubmitError, TransportJob, TransportReply};
use crossbeam::channel::{Receiver, Sender};
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Marks a reply as coming from a hedge submission; the low bits still
/// carry the attempt number for staleness filtering.
const HEDGE_BIT: u32 = 1 << 31;

/// A settled slot: the output and the device that computed it, or why not.
pub(super) type Settled = Result<(Tensor, usize), ExecError>;

type Tx = Sender<TransportReply>;

/// What the slots of one call share: the executor they act through and
/// what they learn about its devices.
pub(super) struct Ctx<'a> {
    exec: &'a Executor,
    opts: ExecOptions,
    /// Devices shunned for the rest of the call: seeded from the transport's
    /// liveness belief, grown by send errors, deadlines and `Link` replies.
    shunned: Vec<bool>,
    /// Outstanding submissions per device, kept only when hedging (they
    /// choose the hedge backup).
    inflight: Vec<usize>,
    pub(super) report: ExecReport,
}

impl<'a> Ctx<'a> {
    pub(super) fn new(exec: &'a Executor, opts: ExecOptions) -> Self {
        let n = exec.n_devices();
        let shunned = (0..n).map(|d| !exec.is_alive(d)).collect();
        let inflight = if opts.hedge.is_some() { vec![0; n] } else { Vec::new() };
        Ctx { exec, opts, shunned, inflight, report: ExecReport::default() }
    }

    /// First non-shunned device, preferring `preferred`.
    fn pick(&self, preferred: usize) -> Option<usize> {
        let free = |d: &usize| !self.shunned[*d];
        Some(preferred).filter(free).or_else(|| (0..self.shunned.len()).find(free))
    }

    /// Least-loaded non-shunned device other than `busy`: hedging onto the
    /// busiest survivor only moves the wait to another queue.
    fn backup(&self, busy: usize) -> Option<usize> {
        (0..self.shunned.len())
            .filter(|&d| d != busy && !self.shunned[d])
            .min_by_key(|&d| self.inflight.get(d).copied().unwrap_or(0))
    }

    /// Counts a submission to `dev` going out (`up`) or ending.
    fn load(&mut self, dev: usize, up: bool) {
        if let Some(n) = self.inflight.get_mut(dev) {
            *n = if up { *n + 1 } else { n.saturating_sub(1) };
        }
    }

    fn cancel(&mut self, side: Side) {
        self.exec.transport.cancel(side.dev, side.ticket);
        self.load(side.dev, false);
    }
}

/// One unit for a slot: the device the plan put it on, and its input
/// (kept for retries), the device holding that input and its wire precision.
pub(super) struct Work {
    pub(super) unit: usize,
    pub(super) planned: usize,
    pub(super) input: Arc<Tensor>,
    pub(super) loc: usize,
    pub(super) quant: BitWidth,
}

/// One live submission: where it went, its cancel ticket, when it left.
#[derive(Clone, Copy)]
struct Side {
    dev: usize,
    ticket: u64,
    sent: Instant,
}

/// The attempt in flight: a primary and at most one hedge.
#[derive(Clone, Copy)]
struct Attempt {
    /// Where the primary went (named by a missed deadline).
    dev: usize,
    primary: Option<Side>,
    hedge: Option<Side>,
    /// When to fire the hedge, while the primary is still out.
    hedge_at: Option<Instant>,
    deadline: Instant,
}

#[derive(Clone, Copy)]
enum Phase {
    /// Loaded; the next tick dispatches it.
    Idle,
    /// A failed attempt's retry goes out at this instant.
    Backoff(Instant),
    Running(Attempt),
    Settled,
}

/// One unit's attempts; see the module docs.
pub(super) struct Slot {
    /// Reply tag: 0 for a Single, the tile index, or the request index.
    tag: usize,
    /// Whether this slot hedges and feeds the latency history.
    hedges: bool,
    work: Work,
    /// Attempt number on the wire; never reused by this slot, so a reply
    /// from an earlier attempt or stage can never match.
    attempt: u32,
    /// Attempts sent for the current unit.
    tries: usize,
    last: Option<ExecError>,
    phase: Phase,
    /// Sender of the reply channel [`drive`] waits on.
    tx: Tx,
}

impl Slot {
    /// A slot replying on `tx`.
    pub(super) fn new(tag: usize, hedges: bool, tx: Tx, work: Work) -> Self {
        Slot { tag, hedges, work, attempt: 0, tries: 0, last: None, phase: Phase::Idle, tx }
    }

    pub(super) fn unit(&self) -> usize {
        self.work.unit
    }

    /// Loads the next unit (a stream stage) with a fresh attempt budget.
    pub(super) fn stage(&mut self, work: Work) {
        (self.work, self.tries, self.last, self.phase) = (work, 0, None, Phase::Idle);
    }

    /// When this slot next needs a [`tick`](Self::tick).
    fn next_wake(&self) -> Option<Instant> {
        match self.phase {
            Phase::Backoff(at) => Some(at),
            Phase::Running(a) => Some(a.hedge_at.map_or(a.deadline, |h| h.min(a.deadline))),
            Phase::Idle | Phase::Settled => None,
        }
    }

    /// Sends a new attempt to the planned device or, when it is shunned or
    /// refuses the send, the next candidate.
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, now: Instant) -> Option<Settled> {
        self.attempt += 1;
        self.tries += 1;
        let (dev, ticket) = loop {
            let Some(dev) = ctx.pick(self.work.planned) else { return self.fail(false) };
            if let Some(ticket) = self.submit(ctx, dev, false, ctx.opts.deadline) {
                break (dev, ticket);
            }
        };
        ctx.report.retries += u32::from(self.tries > 1);
        let hedge_at = ctx
            .opts
            .hedge
            .filter(|_| self.hedges)
            .and_then(|h| ctx.exec.hedge_trigger(dev, &h, ctx.opts.deadline))
            .map(|d| now + d);
        let (primary, deadline) = (Some(Side { dev, ticket, sent: now }), now + ctx.opts.deadline);
        self.phase = Phase::Running(Attempt { dev, primary, hedge: None, hedge_at, deadline });
        None
    }

    /// A reply carrying this slot's tag.
    fn on_reply(&mut self, ctx: &mut Ctx<'_>, r: TransportReply, now: Instant) -> Option<Settled> {
        let Phase::Running(mut a) = self.phase else { return None };
        if r.attempt & !HEDGE_BIT != self.attempt {
            return None;
        }
        let is_hedge = r.attempt & HEDGE_BIT != 0;
        let (side, other) =
            if is_hedge { (a.hedge.take(), a.primary) } else { (a.primary.take(), a.hedge) };
        let side = side?; // that side already failed or was cancelled
        let (dev, unit) = (side.dev, self.work.unit);
        ctx.load(dev, false);
        self.last = Some(match r.result {
            Ok(t) => {
                if let Some(loser) = other {
                    ctx.cancel(loser);
                }
                if let Some(hist) = ctx.exec.lat.lock().get_mut(dev).filter(|_| self.hedges) {
                    hist.observe(now.saturating_duration_since(side.sent).as_secs_f64() * 1e3);
                }
                if is_hedge {
                    ctx.report.hedges_won += 1;
                } else if dev != self.work.planned {
                    ctx.report.failovers += 1;
                }
                self.phase = Phase::Settled;
                return Some(Ok((t, dev)));
            }
            Err(ReplyError::Worker(msg)) => ExecError::WorkerPanic { dev, unit, msg },
            // Hard evidence that the device is down.
            Err(ReplyError::Link(_)) => {
                ctx.exec.transport.mark_dead(dev);
                ctx.shunned[dev] = true;
                ExecError::DeviceDown { dev }
            }
        });
        if other.is_some() {
            self.phase = Phase::Running(a); // the surviving side may still win
            return None;
        }
        self.attempt_failed(ctx, now)
    }

    /// Advances the timers to `now`: dispatches a loaded slot or a retry
    /// whose backoff is over, fires a due hedge, fails an attempt past its
    /// deadline.
    fn tick(&mut self, ctx: &mut Ctx<'_>, now: Instant) -> Option<Settled> {
        let mut a = match self.phase {
            Phase::Running(a) => a,
            Phase::Idle => return self.dispatch(ctx, now),
            Phase::Backoff(at) if now >= at => return self.dispatch(ctx, now),
            Phase::Backoff(_) | Phase::Settled => return None,
        };
        if a.hedge_at.is_some_and(|h| now >= h) {
            a.hedge_at = None;
            let backup = a.primary.filter(|_| now < a.deadline).and_then(|p| ctx.backup(p.dev));
            a.hedge = backup.and_then(|dev| {
                let ticket = self.submit(ctx, dev, true, a.deadline - now)?;
                Some(Side { dev, ticket, sent: now })
            });
            ctx.report.hedges_fired += u32::from(a.hedge.is_some());
        }
        if now < a.deadline {
            self.phase = Phase::Running(a);
            return None;
        }
        ctx.report.deadline_misses += 1;
        for side in [a.primary, a.hedge].into_iter().flatten() {
            ctx.shunned[side.dev] = true;
            ctx.cancel(side);
        }
        let waited_ms = ctx.opts.deadline.as_secs_f64() * 1e3;
        self.last = Some(ExecError::Timeout { dev: a.dev, unit: self.work.unit, waited_ms });
        self.attempt_failed(ctx, now)
    }

    fn attempt_failed(&mut self, ctx: &mut Ctx<'_>, now: Instant) -> Option<Settled> {
        if self.tries >= ctx.opts.max_attempts {
            return self.fail(true);
        }
        self.phase = Phase::Backoff(now + ctx.opts.backoff * (1u32 << (self.tries - 1).min(6)));
        None
    }

    /// Settles with the last failure, wrapped once the attempts ran out.
    fn fail(&mut self, exhausted: bool) -> Option<Settled> {
        self.phase = Phase::Settled;
        let (unit, attempts) = (self.work.unit, self.tries);
        let last = self.last.take().unwrap_or(ExecError::NoDevice { unit });
        Some(Err(match exhausted {
            true => ExecError::AttemptsExhausted { unit, attempts, last: Box::new(last) },
            false => last,
        }))
    }

    /// Sends this slot's work to `dev` with `ttl` left of its deadline. A
    /// refused send shuns `dev` and becomes the slot's last failure.
    fn submit(&mut self, ctx: &mut Ctx<'_>, dev: usize, hedge: bool, ttl: Duration) -> Option<u64> {
        let w = &self.work;
        let job = TransportJob {
            unit: w.unit,
            input: Arc::clone(&w.input),
            quant: w.quant,
            cross_boundary: dev != w.loc,
            tag: self.tag,
            attempt: if hedge { self.attempt | HEDGE_BIT } else { self.attempt },
            deadline: Some(ttl),
        };
        let refused = match ctx.exec.transport.submit(dev, job, self.tx.clone()) {
            Ok(ticket) => {
                ctx.load(dev, true);
                return Some(ticket);
            }
            Err(SubmitError::DeviceDown) => ExecError::DeviceDown { dev },
            Err(SubmitError::Wire(err)) => ExecError::Wire { dev, err },
            Err(SubmitError::Backpressure) => ExecError::Backpressure { dev },
        };
        (ctx.shunned[dev], self.last) = (true, Some(refused));
        None
    }
}

/// Runs `slots` until all have settled or `settle` (handed each settled
/// slot and its index) returns `true`. Each round feeds one reply to its
/// slot, ticks every slot — so a stage `settle` loads goes out at once —
/// and waits on `rx`, the channel the slots reply on, for the next reply
/// or timer.
pub(super) fn drive(
    ctx: &mut Ctx<'_>,
    slots: &mut [Slot],
    rx: &Receiver<TransportReply>,
    mut settle: impl FnMut(usize, &mut Slot, Settled) -> bool,
) {
    let mut event: Option<TransportReply> = None;
    loop {
        let now = Instant::now();
        let settled = event.take().and_then(|reply| {
            let i = reply.tag;
            slots.get_mut(i).and_then(|s| s.on_reply(ctx, reply, now)).map(|s| (i, s))
        });
        if let Some((i, s)) = settled {
            if settle(i, &mut slots[i], s) {
                return;
            }
        }
        // Timers after every event, not only on a quiet channel: under
        // streamed load replies arrive continuously, and a timeout-only
        // sweep would starve the hedge triggers.
        for (i, slot) in slots.iter_mut().enumerate() {
            while let Some(s) = slot.tick(ctx, now) {
                if settle(i, slot, s) {
                    return;
                }
            }
        }
        let Some(wake) = slots.iter().filter_map(Slot::next_wake).min() else { return };
        // The slots hold senders, so the channel never disconnects.
        event = rx.recv_timeout(wake.saturating_duration_since(Instant::now())).ok();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::executor::HedgeOptions;
    use crate::transport::Transport;
    use crossbeam::channel::unbounded;
    use murmuration_tensor::Shape;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A call the machine made on the transport.
    #[derive(Debug, PartialEq)]
    enum Call {
        Submit { dev: usize, attempt: u32 },
        Cancel { dev: usize, ticket: u64 },
        MarkDead(usize),
    }

    type Calls = Arc<Mutex<Vec<Call>>>;

    /// Records every call; refuses sends to the devices in `refuse`. Tickets
    /// count up from 1 in submission order.
    struct Fake {
        n: usize,
        calls: Calls,
        refuse: Vec<usize>,
        tickets: AtomicU64,
    }

    impl Transport for Fake {
        fn n_devices(&self) -> usize {
            self.n
        }
        fn is_alive(&self, _dev: usize) -> bool {
            true
        }
        fn mark_dead(&self, dev: usize) {
            self.calls.lock().push(Call::MarkDead(dev));
        }
        fn submit(
            &self,
            dev: usize,
            job: TransportJob,
            _reply: Sender<TransportReply>,
        ) -> Result<u64, SubmitError> {
            if self.refuse.contains(&dev) {
                return Err(SubmitError::DeviceDown);
            }
            self.calls.lock().push(Call::Submit { dev, attempt: job.attempt });
            Ok(self.tickets.fetch_add(1, Ordering::SeqCst))
        }
        fn cancel(&self, dev: usize, ticket: u64) {
            self.calls.lock().push(Call::Cancel { dev, ticket });
        }
        fn kill_device(&self, _dev: usize) {}
        fn restart_device(&mut self, _dev: usize) {}
        fn set_wire_corruption(&self, _dev: usize, _on: bool) {}
    }

    /// An executor over a [`Fake`] of `n` devices; the `armed` ones have
    /// enough 1 ms samples of history for their hedge trigger to arm.
    fn fleet(n: usize, refuse: &[usize], armed: &[usize]) -> (Executor, Calls) {
        let calls = Calls::default();
        let tickets = AtomicU64::new(1);
        let fake = Fake { n, calls: calls.clone(), refuse: refuse.to_vec(), tickets };
        let exec = Executor::with_transport(Box::new(fake));
        for &d in armed {
            for _ in 0..HedgeOptions::default().min_samples {
                exec.lat.lock()[d].observe(1.0);
            }
        }
        (exec, calls)
    }

    fn take(calls: &Calls) -> Vec<Call> {
        std::mem::take(&mut *calls.lock())
    }

    const DEADLINE: Duration = Duration::from_millis(100);
    const BACKOFF: Duration = Duration::from_millis(4);
    /// Hedge trigger of a device whose history is all 1 ms: 2 × its p90.
    const TRIGGER: Duration = Duration::from_millis(2);
    const NS: Duration = Duration::from_nanos(1);

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn opts(hedge: bool) -> ExecOptions {
        let hedge = hedge.then(HedgeOptions::default);
        ExecOptions { deadline: DEADLINE, max_attempts: 3, backoff: BACKOFF, hedge }
    }

    fn work(planned: usize) -> Work {
        let input = Arc::new(Tensor::zeros(Shape::d1(1)));
        Work { unit: 0, planned, input, loc: 0, quant: BitWidth::B32 }
    }

    /// A `Single` unit: tag 0, hedging.
    fn single(planned: usize) -> Slot {
        shared(0, planned, true)
    }

    /// A tile (`hedges` false) or a stream request.
    fn shared(tag: usize, planned: usize, hedges: bool) -> Slot {
        Slot::new(tag, hedges, unbounded().0, work(planned))
    }

    fn ok(tag: usize, attempt: u32) -> TransportReply {
        TransportReply { tag, attempt, result: Ok(Tensor::zeros(Shape::d1(1))) }
    }

    fn err(tag: usize, attempt: u32, e: ReplyError) -> TransportReply {
        TransportReply { tag, attempt, result: Err(e) }
    }

    fn worker() -> ReplyError {
        ReplyError::Worker("injected".into())
    }

    #[test]
    fn stale_and_cancelled_hedge_replies_are_ignored() {
        let (exec, calls) = fleet(3, &[], &[0, 1, 2]);
        let mut ctx = Ctx::new(&exec, opts(true));
        let t0 = Instant::now();
        let mut slot = shared(5, 0, true);
        assert!(slot.dispatch(&mut ctx, t0).is_none());
        assert!(slot.on_reply(&mut ctx, err(5, 1, worker()), t0 + ms(1)).is_none());
        let t1 = t0 + ms(1) + BACKOFF;
        assert!(slot.tick(&mut ctx, t1).is_none());
        // A late success of attempt 1 must not complete attempt 2.
        assert!(slot.on_reply(&mut ctx, ok(5, 1), t1 + NS).is_none());
        assert!(slot.tick(&mut ctx, t1 + TRIGGER).is_none());
        let won = slot.on_reply(&mut ctx, ok(5, 2), t1 + ms(3));
        assert!(matches!(won, Some(Ok((_, 0)))), "the primary wins");
        // The next stage reuses the slot; the cancelled hedge's late reply
        // must not complete it.
        slot.stage(Work { unit: 1, ..work(1) });
        assert!(slot.tick(&mut ctx, t1 + ms(3)).is_none());
        assert!(slot.on_reply(&mut ctx, ok(5, 2 | HEDGE_BIT), t1 + ms(4)).is_none());
        assert!(matches!(slot.on_reply(&mut ctx, ok(5, 3), t1 + ms(5)), Some(Ok((_, 1)))));
        assert_eq!(
            take(&calls),
            vec![
                Call::Submit { dev: 0, attempt: 1 },
                Call::Submit { dev: 0, attempt: 2 },
                Call::Submit { dev: 1, attempt: 2 | HEDGE_BIT },
                Call::Cancel { dev: 1, ticket: 3 },
                Call::Submit { dev: 1, attempt: 3 },
            ]
        );
        let r = ctx.report;
        assert_eq!((r.retries, r.hedges_fired, r.hedges_won, r.failovers), (1, 1, 0, 0));
    }

    #[test]
    fn send_error_falls_to_the_next_device_within_the_attempt() {
        let (exec, calls) = fleet(3, &[0], &[]);
        let mut ctx = Ctx::new(&exec, opts(false));
        let t0 = Instant::now();
        let mut slot = single(0);
        assert!(slot.dispatch(&mut ctx, t0).is_none());
        assert_eq!(take(&calls), vec![Call::Submit { dev: 1, attempt: 1 }]);
        assert!(ctx.shunned[0], "a refused send shuns the device for the call");
        assert!(matches!(slot.on_reply(&mut ctx, ok(0, 1), t0 + ms(1)), Some(Ok((_, 1)))));
        assert_eq!((ctx.report.retries, ctx.report.failovers), (0, 1));

        // With every device refusing, the slot fails with the last send
        // error: no attempt was ever out.
        let (exec, _) = fleet(2, &[0, 1], &[]);
        let mut ctx = Ctx::new(&exec, opts(false));
        let failed = single(0).dispatch(&mut ctx, t0);
        assert!(matches!(failed, Some(Err(ExecError::DeviceDown { dev: 1 }))), "{failed:?}");
        assert_eq!(ctx.report.retries, 0);
    }

    #[test]
    fn hedge_fires_at_its_trigger_and_the_first_reply_wins() {
        let (exec, calls) = fleet(3, &[], &[0]);
        let mut ctx = Ctx::new(&exec, opts(true));
        let t0 = Instant::now();
        // Another request has a job out on device 1, so device 2 is the
        // least-loaded backup.
        assert!(shared(1, 1, true).dispatch(&mut ctx, t0).is_none());
        let mut slot = shared(0, 0, true);
        assert!(slot.dispatch(&mut ctx, t0).is_none());
        take(&calls);
        assert_eq!(slot.next_wake(), Some(t0 + TRIGGER));
        assert!(slot.tick(&mut ctx, t0 + TRIGGER - NS).is_none());
        assert!(take(&calls).is_empty(), "no hedge before the trigger");
        assert!(slot.tick(&mut ctx, t0 + TRIGGER).is_none());
        assert_eq!(take(&calls), vec![Call::Submit { dev: 2, attempt: 1 | HEDGE_BIT }]);
        let won = slot.on_reply(&mut ctx, ok(0, 1 | HEDGE_BIT), t0 + ms(3));
        assert!(matches!(won, Some(Ok((_, 2)))), "the hedge answers first and wins");
        assert_eq!(take(&calls), vec![Call::Cancel { dev: 0, ticket: 2 }]);
        assert!(slot.on_reply(&mut ctx, ok(0, 1), t0 + ms(4)).is_none(), "the loser is stale");
        let r = ctx.report;
        assert_eq!((r.hedges_fired, r.hedges_won, r.failovers, r.retries), (1, 1, 0, 0));
    }

    #[test]
    fn deadline_shuns_and_cancels_both_sides_then_waits_out_the_backoff() {
        let (exec, calls) = fleet(3, &[], &[0]);
        let mut ctx = Ctx::new(&exec, opts(true));
        let t0 = Instant::now();
        let mut slot = single(0);
        assert!(slot.dispatch(&mut ctx, t0).is_none());
        assert!(slot.tick(&mut ctx, t0 + TRIGGER).is_none());
        assert_eq!(take(&calls).len(), 2, "primary and hedge are out");
        let deadline = t0 + DEADLINE;
        assert_eq!(slot.next_wake(), Some(deadline));
        assert!(slot.tick(&mut ctx, deadline).is_none());
        assert_eq!(
            take(&calls),
            vec![Call::Cancel { dev: 0, ticket: 1 }, Call::Cancel { dev: 1, ticket: 2 }]
        );
        assert!(ctx.shunned[0] && ctx.shunned[1]);
        assert_eq!(ctx.report.deadline_misses, 1);
        assert_eq!(slot.next_wake(), Some(deadline + BACKOFF));
        assert!(slot.tick(&mut ctx, deadline + BACKOFF - NS).is_none());
        assert!(take(&calls).is_empty(), "no retry before the backoff");
        let t1 = deadline + BACKOFF;
        assert!(slot.tick(&mut ctx, t1).is_none());
        assert_eq!(take(&calls), vec![Call::Submit { dev: 2, attempt: 2 }]);
        assert_eq!(ctx.report.retries, 1);
        // The second retry's backoff doubles.
        assert!(slot.on_reply(&mut ctx, err(0, 2, worker()), t1 + ms(1)).is_none());
        assert_eq!(slot.next_wake(), Some(t1 + ms(1) + 2 * BACKOFF));
    }

    #[test]
    fn worker_error_is_retried_while_link_error_and_death_mark_the_device_dead() {
        let (exec, calls) = fleet(3, &[], &[]);
        let mut ctx = Ctx::new(&exec, opts(false));
        let t0 = Instant::now();
        let mut slot = single(0);
        assert!(slot.dispatch(&mut ctx, t0).is_none());
        assert!(slot.on_reply(&mut ctx, err(0, 1, worker()), t0).is_none());
        assert!(!ctx.shunned[0], "a worker error is not the device's death");
        let t1 = t0 + BACKOFF;
        assert!(slot.tick(&mut ctx, t1).is_none());
        assert!(slot.on_reply(&mut ctx, err(0, 2, ReplyError::Link("reset".into())), t1).is_none());
        let t2 = t1 + 2 * BACKOFF;
        assert!(slot.tick(&mut ctx, t2).is_none());
        assert_eq!(
            take(&calls),
            vec![
                Call::Submit { dev: 0, attempt: 1 },
                Call::Submit { dev: 0, attempt: 2 },
                Call::MarkDead(0),
                Call::Submit { dev: 1, attempt: 3 },
            ]
        );
        // The worker holding attempt 3 dies: its transport answers `Link`.
        let gone = err(0, 3, ReplyError::Link("worker gone".into()));
        let died = slot.on_reply(&mut ctx, gone, t2 + ms(1));
        assert_eq!(take(&calls), vec![Call::MarkDead(1)]);
        assert!(matches!(died, Some(Err(ExecError::AttemptsExhausted { .. }))), "{died:?}");
        assert_eq!(ctx.report.retries, 2);
    }

    #[test]
    fn exhaustion_names_the_attempts_and_the_last_failure() {
        let (exec, _) = fleet(2, &[], &[]);
        let mut ctx = Ctx::new(&exec, ExecOptions { max_attempts: 2, ..opts(false) });
        let t0 = Instant::now();
        let mut slot = single(1);
        assert!(slot.dispatch(&mut ctx, t0).is_none());
        assert!(slot.on_reply(&mut ctx, err(0, 1, worker()), t0).is_none());
        assert!(slot.tick(&mut ctx, t0 + BACKOFF).is_none());
        let failed = slot.on_reply(&mut ctx, err(0, 2, worker()), t0 + BACKOFF);
        let last = Box::new(ExecError::WorkerPanic { dev: 1, unit: 0, msg: "injected".into() });
        let exhausted = ExecError::AttemptsExhausted { unit: 0, attempts: 2, last };
        assert_eq!(failed, Some(Err(exhausted)));
        assert_eq!(slot.next_wake(), None, "a settled slot needs no more ticks");
    }

    #[test]
    fn off_plan_tile_counts_one_failover_after_a_failed_off_plan_attempt() {
        let (exec, calls) = fleet(3, &[0], &[0, 1, 2]);
        let mut ctx = Ctx::new(&exec, opts(true));
        let t0 = Instant::now();
        let mut tile = shared(2, 0, false);
        assert!(tile.dispatch(&mut ctx, t0).is_none());
        assert_eq!(tile.next_wake(), Some(t0 + DEADLINE), "tiles never hedge");
        assert!(tile.tick(&mut ctx, t0 + DEADLINE).is_none());
        let t1 = t0 + DEADLINE + BACKOFF;
        assert!(tile.tick(&mut ctx, t1).is_none());
        assert!(matches!(tile.on_reply(&mut ctx, ok(2, 2), t1 + ms(1)), Some(Ok((_, 2)))));
        assert_eq!(
            take(&calls),
            vec![
                Call::Submit { dev: 1, attempt: 1 },
                Call::Cancel { dev: 1, ticket: 1 },
                Call::Submit { dev: 2, attempt: 2 },
            ]
        );
        let r = ctx.report;
        assert_eq!((r.failovers, r.retries, r.deadline_misses), (1, 1, 1));
        assert_eq!(exec.lat.lock()[2].len(), 8, "tiles do not feed the latency history");
    }
}
