//! The peer protocol with no clock, no thread and no lock: a [`Peer`] per
//! coordinator→worker link and a [`Jobs`] per worker, stepped with explicit
//! instants (time since the driver's epoch, from `driver::Ctx::now`) by
//! `aclient` and `aworker`, which lock a core, step it, and apply its
//! [`Effects`] after unlocking.
//!
//! A [`Peer`] moves Down → Connecting → Connected, and through Backoff
//! (seeded jitter of at most half a base that doubles up to its cap) after
//! a failed dial or a lost socket. After an attach, requests not yet pushed
//! on that connection go out in id order, and the step that finds none
//! left marks the link connected — so a submit either joins the resend or
//! goes out inline.
//!
//! [`Jobs`] is a worker's bounded `(session, req_id)` dedup map.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::frame::{self, Msg, SharedFrame};
use murmuration_core::transport::{ReplyError, TransportStats};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::time::Duration;

/// Per-peer connection supervision knobs. The defaults suit a LAN.
#[derive(Clone, Copy, Debug)]
pub struct TcpTransportConfig {
    /// Heartbeat interval; also the staleness bound of dead-peer detection.
    pub heartbeat_interval: Duration,
    /// Silent heartbeat intervals before the socket is torn down and rebuilt.
    pub heartbeat_miss_limit: u32,
    /// Base reconnect backoff (doubles per failure, jittered).
    pub reconnect_backoff: Duration,
    /// Backoff cap.
    pub reconnect_backoff_max: Duration,
    /// Failed dials in a row before pending requests fail fast (dialling
    /// goes on).
    pub fails_before_dead: u32,
    /// In-flight window per peer; `submit` waits (never past peer death).
    pub max_in_flight: usize,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// How long shutdown waits for in-flight work before failing it.
    pub drain_timeout: Duration,
    /// Seed for reconnect jitter and session ids.
    pub seed: u64,
}

impl Default for TcpTransportConfig {
    fn default() -> Self {
        TcpTransportConfig {
            heartbeat_interval: Duration::from_millis(200),
            heartbeat_miss_limit: 3,
            reconnect_backoff: Duration::from_millis(25),
            reconnect_backoff_max: Duration::from_millis(1_000),
            fails_before_dead: 4,
            max_in_flight: 64,
            connect_timeout: Duration::from_millis(500),
            drain_timeout: Duration::from_secs(2),
            seed: 0x6d75_726d,
        }
    }
}

/// Cancelled ids remembered for swallowing (bounded: a cancel for work
/// that already ran never gets an answer to clear it).
const CANCELLED_CAP: usize = 256;

/// Buffered inbound gossip digests. Each carries full state and merging is
/// idempotent, so dropping the oldest loses nothing the next round lacks.
const GOSSIP_INBOX_CAP: usize = 64;

/// Timer kind of the reconnect timer. A tick's kind is the number of the
/// connection that armed it, so a tick chain dies with its connection.
const RECONNECT: u32 = 0;

/// What one step asks its driver to do after unlocking, in field order.
pub struct Effects<R, F> {
    /// Control frames (hello, heartbeat, goodbye).
    pub send: Vec<Vec<u8>>,
    /// Requests to push in id order; report the pushed prefix to
    /// [`Peer::resent`].
    pub resend: Vec<(u64, F)>,
    /// Dial; a dial the driver sheds goes to [`Peer::connect_failed`].
    pub connect: bool,
    /// Arm a timer: `(delay, kind)`.
    pub timer: Option<(Duration, u32)>,
    /// Close the socket.
    pub close: bool,
    /// Remove the entity.
    pub remove: bool,
    /// Resolved requests: decode `Ok` bodies and answer them.
    pub done: Vec<(R, Result<Vec<u8>, ReplyError>)>,
}

impl<R, F> Default for Effects<R, F> {
    fn default() -> Self {
        Effects {
            send: Vec::new(),
            resend: Vec::new(),
            connect: false,
            timer: None,
            close: false,
            remove: false,
            done: Vec::new(),
        }
    }
}

/// Whether a submit may enter the window now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Believed dead, killed or stopping.
    Down,
    /// The window is full: wait for a slot.
    Full,
    /// Go ahead with [`Peer::submit`].
    Open,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Down,
    Connecting,
    Backoff,
    Connected,
}

struct Pending<R, F> {
    reply: R,
    frame: F,
    expires: Option<Duration>,
    /// The connection this request was pushed on (0: none yet).
    sent_on: u32,
}

/// One coordinator→worker link. `R` is the reply handle a completion hands
/// back, `F` the shared encoded request frame.
pub struct Peer<R, F> {
    cfg: TcpTransportConfig,
    session: u64,
    rng: StdRng,
    phase: Phase,
    /// The current (or last) connection, numbered from 1.
    conn: u32,
    resending: bool,
    fails: u32,
    backoff: Duration,
    misses: u32,
    next_hb: Duration,
    last_rx: Duration,
    /// The last probe's nonce and send instant.
    probe: (u64, Duration),
    rtt_us: u64,
    inflight: BTreeMap<u64, Pending<R, F>>,
    cancelled: HashSet<u64>,
    cancelled_order: VecDeque<u64>,
    gossip: VecDeque<Vec<u8>>,
    alive: bool,
    admin_down: bool,
    stopping: bool,
    stats: TransportStats,
}

impl<R, F: Clone> Peer<R, F> {
    /// The link to device `dev`, not yet dialled. Its session id is a pure
    /// function of `(cfg.seed, dev)`, so a run replays from its seed.
    pub fn new(cfg: TcpTransportConfig, dev: usize) -> Self {
        let dev = dev as u64;
        Peer {
            cfg,
            session: frame::fnv1a64(&[cfg.seed.to_le_bytes(), dev.to_le_bytes()].concat()),
            rng: StdRng::seed_from_u64(cfg.seed ^ dev.wrapping_mul(0x9E37)),
            phase: Phase::Down,
            conn: 0,
            resending: false,
            fails: 0,
            backoff: Duration::from_millis(1),
            misses: 0,
            next_hb: Duration::ZERO,
            last_rx: Duration::ZERO,
            probe: (0, Duration::ZERO),
            rtt_us: 0,
            inflight: BTreeMap::new(),
            cancelled: HashSet::new(),
            cancelled_order: VecDeque::new(),
            gossip: VecDeque::new(),
            alive: true,
            admin_down: false,
            stopping: false,
            stats: TransportStats::default(),
        }
    }

    /// Believed reachable.
    pub fn alive(&self) -> bool {
        self.alive
    }

    /// Attached with nothing left to resend: submits go out inline.
    pub fn connected(&self) -> bool {
        self.phase == Phase::Connected && !self.resending
    }

    /// Nothing in flight.
    pub fn idle(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Killed or stopping: no dialling, no gossip.
    pub fn halted(&self) -> bool {
        self.admin_down || self.stopping
    }

    /// Supervision counters so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Smoothed heartbeat round trip, once one was measured.
    pub fn rtt_ms(&self) -> Option<f64> {
        (self.rtt_us > 0).then(|| self.rtt_us as f64 / 1e3)
    }

    /// Moves the buffered gossip digests into `out`.
    pub fn take_gossip(&mut self, out: &mut Vec<Vec<u8>>) {
        out.extend(self.gossip.drain(..));
    }

    /// Whether a submit may enter the window.
    pub fn admit(&self) -> Admit {
        if self.halted() || !self.alive {
            Admit::Down
        } else if self.inflight.len() >= self.cfg.max_in_flight {
            Admit::Full
        } else {
            Admit::Open
        }
    }

    /// Enters request `id` after an `Open` [`admit`](Self::admit). `true`:
    /// the caller pushes `frame` now; `false`: the resend carries it.
    pub fn submit(&mut self, id: u64, frame: F, expires: Option<Duration>, reply: R) -> bool {
        let inline = self.connected();
        let sent_on = if inline { self.conn } else { 0 };
        self.inflight.insert(id, Pending { reply, frame, expires, sent_on });
        inline
    }

    /// Takes back `id` (its inline push met a full outbox): no answer owed.
    pub fn withdraw(&mut self, id: u64) -> bool {
        self.note_backpressure();
        self.inflight.remove(&id).is_some()
    }

    /// Counts a submit refused for backpressure.
    pub fn note_backpressure(&mut self) {
        self.stats.backpressure_rejections += 1;
    }

    /// Abandons `id` (a hedge loser): no answer owed, a late one swallowed.
    /// Returns whether it was in flight, i.e. a `Cancel` is worth sending.
    pub fn cancel(&mut self, id: u64) -> bool {
        let held = self.inflight.remove(&id).is_some();
        if held {
            self.mark_cancelled(id);
        }
        held
    }

    /// Hard evidence from the executor that the peer is down.
    pub fn mark_dead(&mut self) {
        self.alive = false;
    }

    /// Takes the device out of service: pending requests fail, no redial.
    pub fn kill(&mut self, fx: &mut Effects<R, F>) {
        self.admin_down = true;
        self.fail_all("device administratively down", fx);
    }

    /// Puts a killed device back into service; nudge next.
    pub fn restart(&mut self) {
        self.admin_down = false;
    }

    /// Starts a graceful leave; nudge next.
    pub fn stop(&mut self) {
        self.stopping = true;
    }

    /// Believes the peer down and fails every pending request with `Link`.
    pub fn fail_all(&mut self, why: &str, fx: &mut Effects<R, F>) {
        self.alive = false;
        for (_, p) in std::mem::take(&mut self.inflight) {
            fx.done.push((p.reply, Err(ReplyError::Link(why.to_owned()))));
        }
    }

    /// The driver was nudged: a stop, an admin change, or the first dial.
    pub fn nudge(&mut self, fx: &mut Effects<R, F>) {
        if self.stopping {
            fx.send.push(frame::encode_frame(&Msg::Goodbye));
            fx.remove = true;
        } else if self.admin_down {
            fx.close |= self.phase == Phase::Connected;
        } else if self.phase == Phase::Down {
            self.phase = Phase::Connecting;
            fx.connect = true;
        }
    }

    /// A dial failed, or the driver shed it at the fd budget (`shed`).
    pub fn connect_failed(&mut self, now: Duration, shed: bool, fx: &mut Effects<R, F>) {
        self.stats.conns_shed += u64::from(shed);
        self.phase = Phase::Down;
        self.sweep(now, fx);
        if self.halted() {
            return;
        }
        self.fails += 1;
        if self.fails == self.cfg.fails_before_dead {
            self.fail_all("peer unreachable", fx);
        }
        let delay = self.backoff + self.jitter(self.backoff);
        self.backoff = (self.backoff * 2).min(self.cfg.reconnect_backoff_max);
        self.phase = Phase::Backoff;
        fx.timer = Some((delay, RECONNECT));
    }

    /// A socket is attached: hello, the resend, and a new tick chain.
    pub fn attached(&mut self, now: Duration, fx: &mut Effects<R, F>) {
        self.phase = Phase::Connected;
        if self.halted() {
            fx.close = true;
            return;
        }
        self.stats.reconnects += u64::from(self.conn > 0);
        self.conn = self.conn.wrapping_add(1).max(1);
        self.fails = 0;
        self.backoff = self.cfg.reconnect_backoff;
        self.misses = 0;
        self.next_hb = now + self.cfg.heartbeat_interval;
        self.last_rx = now;
        self.alive = true;
        let hello = Msg::Hello { session: self.session, version: frame::PROTO_VERSION };
        fx.send.push(frame::encode_frame(&hello));
        self.resending = true;
        self.resume(fx);
        fx.timer = Some((self.cfg.heartbeat_interval / 2, self.conn));
    }

    /// The driver pushed `pushed`, a prefix of the last resend batch, and
    /// `stalled` on a full outbox (the tick resumes). Unstalled, the step
    /// queues what was submitted meanwhile or marks the link connected.
    pub fn resent(
        &mut self,
        pushed: impl Iterator<Item = u64>,
        stalled: bool,
        fx: &mut Effects<R, F>,
    ) {
        for id in pushed {
            if let Some(p) = self.inflight.get_mut(&id) {
                p.sent_on = self.conn;
            }
        }
        if !stalled && self.resending && self.phase == Phase::Connected {
            self.resume(fx);
        }
    }

    /// The socket is gone: re-dial within a per-peer jitter window, so a
    /// fleet that lost its coordinator at once does not redial as one.
    pub fn detached(&mut self, fx: &mut Effects<R, F>) {
        self.phase = Phase::Down;
        self.resending = false;
        if !self.halted() {
            self.phase = Phase::Backoff;
            fx.timer = Some((self.jitter(self.cfg.reconnect_backoff), RECONNECT));
        }
    }

    /// A timer armed by an earlier step fired.
    pub fn timer(&mut self, now: Duration, kind: u32, fx: &mut Effects<R, F>) {
        if kind == RECONNECT {
            if self.halted() {
                self.phase = Phase::Down;
                return;
            }
            self.sweep(now, fx); // deadlines run on while the link is down
            if self.phase == Phase::Backoff {
                self.phase = Phase::Connecting;
                fx.connect = true;
            }
        } else if kind == self.conn && self.phase == Phase::Connected && !self.stopping {
            self.tick(now, fx);
        }
    }

    /// One decoded frame from the worker.
    pub fn on_msg(&mut self, now: Duration, msg: Msg, fx: &mut Effects<R, F>) {
        self.last_rx = now;
        match msg {
            // Late answers to cancelled or expired ids are swallowed.
            Msg::ResponseOk { req_id, .. } if self.cancelled.remove(&req_id) => {}
            Msg::ResponseErr { req_id, msg } if self.cancelled.remove(&req_id) => {
                self.stats.cancels_delivered += u64::from(msg == "cancelled");
            }
            Msg::ResponseOk { req_id, deduped, frame } => {
                self.stats.resends_deduped += u64::from(deduped);
                self.settle(req_id, Ok(frame), fx);
            }
            Msg::ResponseErr { req_id, msg } => {
                self.settle(req_id, Err(ReplyError::Worker(msg)), fx);
            }
            Msg::HeartbeatAck { nonce } if nonce == self.probe.0 => {
                let rtt = now.saturating_sub(self.probe.1).as_micros() as u64;
                let ewma = if self.rtt_us == 0 { rtt } else { (self.rtt_us * 4 + rtt) / 5 };
                self.rtt_us = ewma.max(1);
            }
            Msg::Gossip { payload } => {
                if self.gossip.len() >= GOSSIP_INBOX_CAP {
                    self.gossip.pop_front();
                }
                self.gossip.push_back(payload);
            }
            Msg::Goodbye => fx.close = true,
            _ => {}
        }
    }

    fn jitter(&mut self, base: Duration) -> Duration {
        Duration::from_millis(self.rng.gen_range(0..=(base.as_millis() as u64 / 2).max(1)))
    }

    /// Queues every request not yet pushed on this connection, in id order;
    /// none left, the link is connected in this same step.
    fn resume(&mut self, fx: &mut Effects<R, F>) {
        let conn = self.conn;
        let unsent = self.inflight.iter().filter(|(_, p)| p.sent_on != conn);
        fx.resend.extend(unsent.map(|(id, p)| (*id, p.frame.clone())));
        self.resending = !fx.resend.is_empty();
    }

    /// A tick, every half heartbeat interval while connected: the deadline
    /// sweep, a stalled resend, and once per interval the staleness check
    /// and the probe.
    fn tick(&mut self, now: Duration, fx: &mut Effects<R, F>) {
        if self.admin_down {
            fx.close = true;
            return;
        }
        self.sweep(now, fx);
        if self.resending {
            self.resume(fx);
        }
        let hb = self.cfg.heartbeat_interval;
        if now >= self.next_hb {
            self.next_hb = now + hb;
            if now.saturating_sub(self.last_rx) > hb {
                self.misses += 1;
                self.stats.heartbeats_missed += 1;
                if self.misses >= self.cfg.heartbeat_miss_limit {
                    fx.close = true;
                    return;
                }
            } else {
                self.misses = 0;
            }
            self.probe = (self.probe.0 + 1, now);
            fx.send.push(frame::encode_frame(&Msg::Heartbeat { nonce: self.probe.0 }));
        }
        fx.timer = Some((hb / 2, self.conn));
    }

    /// Fails every request past its deadline, so a stalled or partitioned
    /// socket cannot hold one past its budget.
    fn sweep(&mut self, now: Duration, fx: &mut Effects<R, F>) {
        let expired = self.inflight.iter().filter(|(_, p)| p.expires.is_some_and(|at| now >= at));
        for id in expired.map(|(id, _)| *id).collect::<Vec<u64>>() {
            self.mark_cancelled(id);
            let why = ReplyError::Worker("transport request deadline expired".to_owned());
            self.settle(id, Err(why), fx);
        }
    }

    fn settle(&mut self, id: u64, result: Result<Vec<u8>, ReplyError>, fx: &mut Effects<R, F>) {
        if let Some(p) = self.inflight.remove(&id) {
            fx.done.push((p.reply, result));
        }
    }

    fn mark_cancelled(&mut self, id: u64) {
        if self.cancelled.insert(id) {
            self.cancelled_order.push_back(id);
            if self.cancelled_order.len() > CANCELLED_CAP {
                if let Some(old) = self.cancelled_order.pop_front() {
                    self.cancelled.remove(&old);
                }
            }
        }
    }
}

/// A worker's finished answer: a B32 tensor frame or an error message.
pub type Body = Result<Vec<u8>, String>;

/// The response frame answering `req_id` with `body`, flagged not deduped.
fn encode_response(req_id: u64, body: &Body) -> Vec<u8> {
    match body {
        Ok(tframe) => frame::encode_response_ok(req_id, false, tframe),
        Err(msg) => frame::encode_frame(&Msg::ResponseErr { req_id, msg: msg.clone() }),
    }
}

/// A copy of a cached response frame flagged `deduped`, for an answer that
/// goes out after a resend; an error frame has no flag and is shared as is.
fn restamped(resp: &SharedFrame) -> SharedFrame {
    frame::with_deduped(resp).map_or_else(|| SharedFrame::clone(resp), SharedFrame::new)
}

/// What [`Jobs::finish`] takes: a finished body, which it encodes, or the
/// response frame already encoded by [`Answer::encode`]. A compute thread
/// encodes before it takes the dedup lock, so the lock is never held across
/// a copy of a large body.
#[derive(Debug)]
pub enum Answer {
    Body(Body),
    Frame(SharedFrame),
}

impl Answer {
    /// Encodes the response frame answering `req_id` with `body` (flagged
    /// not deduped; [`Jobs::finish`] re-stamps a copy if it was resent).
    pub fn encode(req_id: u64, body: &Body) -> Answer {
        Answer::Frame(SharedFrame::new(encode_response(req_id, body)))
    }
}

impl From<Body> for Answer {
    fn from(body: Body) -> Answer {
        Answer::Body(body)
    }
}

enum Job<H> {
    /// Queued or computing; `route` is the newest connection's.
    Pending { route: H, resent: bool },
    /// Cancelled while still queued: answered `"cancelled"`, not computed.
    Cancelled { route: H },
    /// Finished; its response frame (not flagged deduped), cached for
    /// duplicate deliveries and shared with the outbox that sent it.
    Done(SharedFrame),
}

/// What a delivered request asks of the worker.
#[derive(Debug, PartialEq, Eq)]
pub enum Delivery {
    /// First delivery: decode and queue the compute.
    Compute,
    /// A finished duplicate: push this copy of the cached answer, flagged
    /// `deduped`.
    Replay(SharedFrame),
    /// Pending or cancelled: its answer is already on the way.
    Held,
}

/// A worker's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobCounts {
    /// Units computed: every `Ok` body (duplicates are never recomputed).
    pub computed: u64,
    /// Duplicate deliveries absorbed (re-routed or replayed).
    pub deduped: u64,
    /// Jobs dropped unrun by a cancel that arrived while they were queued.
    pub cancelled: u64,
}

/// A worker's bounded `(session, req_id)` dedup map; `H` routes an answer
/// to one coordinator connection.
pub struct Jobs<H> {
    map: HashMap<(u64, u64), Job<H>>,
    order: VecDeque<(u64, u64)>,
    cap: usize,
    counts: JobCounts,
}

impl<H: Clone> Jobs<H> {
    /// An empty map keeping at most `cap` finished entries.
    pub fn new(cap: usize) -> Self {
        let counts = JobCounts::default();
        Jobs { map: HashMap::new(), order: VecDeque::new(), cap: cap.max(1), counts }
    }

    /// The counters so far.
    pub fn counts(&self) -> JobCounts {
        self.counts
    }

    /// Request `key` arrived on `route`.
    pub fn deliver(&mut self, key: (u64, u64), route: &H) -> Delivery {
        match self.map.get_mut(&key) {
            None => {
                self.map.insert(key, Job::Pending { route: route.clone(), resent: false });
                self.order.push_back(key);
                self.evict();
                Delivery::Compute
            }
            Some(Job::Pending { route: newest, resent }) => {
                *newest = route.clone();
                *resent = true;
                self.counts.deduped += 1;
                Delivery::Held
            }
            Some(Job::Done(resp)) => {
                self.counts.deduped += 1;
                Delivery::Replay(restamped(resp))
            }
            Some(Job::Cancelled { .. }) => Delivery::Held,
        }
    }

    /// A cancel for `key` arrived on `route`: still pending, the job is
    /// answered `"cancelled"` there instead of computed.
    pub fn cancel(&mut self, key: (u64, u64), route: &H) {
        if let Some(job @ Job::Pending { .. }) = self.map.get_mut(&key) {
            *job = Job::Cancelled { route: route.clone() };
        }
    }

    /// A compute thread dequeued `key`; `Some` if it was cancelled while
    /// queued: push that answer instead of computing.
    pub fn start(&mut self, key: (u64, u64)) -> Option<(H, SharedFrame)> {
        let Some(Job::Cancelled { route }) = self.map.get(&key) else { return None };
        let route = route.clone();
        self.counts.cancelled += 1;
        let resp = SharedFrame::new(encode_response(key.1, &Err("cancelled".to_owned())));
        self.settle(key, SharedFrame::clone(&resp));
        Some((route, resp))
    }

    /// `key` finished with `answer`: cache its frame and answer on the
    /// newest route — with the cached frame itself, or a copy flagged
    /// `deduped` if a duplicate arrived meanwhile.
    pub fn finish(
        &mut self,
        key: (u64, u64),
        answer: impl Into<Answer>,
    ) -> Option<(H, SharedFrame)> {
        let resp = match answer.into() {
            Answer::Frame(resp) => resp,
            Answer::Body(body) => SharedFrame::new(encode_response(key.1, &body)),
        };
        self.counts.computed += u64::from(frame::is_response_ok(&resp));
        let (route, resent) = match self.map.get(&key)? {
            Job::Pending { route, resent } => (route.clone(), *resent),
            Job::Cancelled { route } => (route.clone(), false),
            Job::Done(_) => return None,
        };
        let sent = if resent { restamped(&resp) } else { SharedFrame::clone(&resp) };
        self.settle(key, resp);
        Some((route, sent))
    }

    fn settle(&mut self, key: (u64, u64), resp: SharedFrame) {
        self.map.insert(key, Job::Done(resp));
        self.evict();
    }

    /// Evicts the oldest finished entries beyond capacity; pending ones
    /// stay (the client's window bounds them). FIFO from the front, but
    /// past the capacity the sweep walks the whole order: one stuck pending
    /// head must not pin every finished body behind it for the session.
    fn evict(&mut self) {
        while self.map.len() > self.cap {
            let Some(key) = self.order.front().copied() else { break };
            match self.map.get(&key) {
                Some(Job::Done(_)) | None => {
                    self.order.pop_front();
                    self.map.remove(&key);
                }
                Some(Job::Pending { .. } | Job::Cancelled { .. }) => break,
            }
        }
        if self.map.len() > self.cap {
            let mut kept = VecDeque::with_capacity(self.order.len());
            for key in std::mem::take(&mut self.order) {
                match self.map.get(&key) {
                    Some(Job::Done(_)) if self.map.len() > self.cap => {
                        self.map.remove(&key);
                    }
                    None => {}
                    Some(_) => kept.push_back(key),
                }
            }
            self.order = kept;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    //! Step tests: made-up instants, one rule per test. A request's id is
    //! also its reply handle and its frame, so effects name requests.
    use super::*;

    type P = Peer<u64, u64>;
    type Fx = Effects<u64, u64>;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn cfg() -> TcpTransportConfig {
        TcpTransportConfig {
            heartbeat_interval: ms(100),
            heartbeat_miss_limit: 3,
            reconnect_backoff: ms(10),
            reconnect_backoff_max: ms(80),
            fails_before_dead: 3,
            max_in_flight: 8,
            ..TcpTransportConfig::default()
        }
    }

    /// A peer attached at t = 0 with nothing in flight.
    fn connected() -> P {
        let mut p = P::new(cfg(), 1);
        let mut fx = Fx::default();
        p.nudge(&mut fx);
        assert!(fx.connect && p.phase == Phase::Connecting);
        p.attached(ms(0), &mut fx);
        assert!(p.connected() && fx.resend.is_empty());
        p
    }

    /// Enters `id`; returns whether it goes out inline.
    fn submit(p: &mut P, id: u64, expires: Option<Duration>) -> bool {
        assert_eq!(p.admit(), Admit::Open);
        p.submit(id, id, expires, id)
    }

    /// Loses the socket and re-attaches at `now` (a reconnect).
    fn reattach(p: &mut P, now: Duration) -> Fx {
        let mut fx = Fx::default();
        p.detached(&mut fx);
        assert_eq!(fx.timer.map(|t| t.1), Some(RECONNECT));
        p.timer(now, RECONNECT, &mut fx);
        assert!(fx.connect);
        let mut fx = Fx::default();
        p.attached(now, &mut fx);
        fx
    }

    fn resend_ids(fx: &Fx) -> Vec<u64> {
        fx.resend.iter().map(|(id, _)| *id).collect()
    }

    /// `(id, answered Ok)` for each resolved request, draining them.
    fn done(fx: &mut Fx) -> Vec<(u64, bool)> {
        fx.done.drain(..).map(|(id, r)| (id, r.is_ok())).collect()
    }

    fn ok(id: u64, deduped: bool) -> Msg {
        Msg::ResponseOk { req_id: id, deduped, frame: vec![id as u8] }
    }

    fn parse(bytes: &[u8]) -> Msg {
        frame::read_frame(&mut &bytes[..]).unwrap()
    }

    #[test]
    fn backoff_doubles_to_the_cap_with_bounded_jitter() {
        let mut p = connected();
        let mut fx = Fx::default();
        p.detached(&mut fx);
        let (first, _) = fx.timer.unwrap();
        assert!(first <= ms(5), "the redial window is half a base backoff: {first:?}");
        let (mut base, mut jittered) = (ms(10), 0);
        for i in 0..12u64 {
            p.timer(ms(i), RECONNECT, &mut fx);
            assert!(std::mem::take(&mut fx.connect));
            p.connect_failed(ms(i), false, &mut fx);
            let (delay, kind) = fx.timer.take().unwrap();
            assert_eq!(kind, RECONNECT);
            assert!(delay >= base && delay <= base + base / 2, "fail {i}: {delay:?} vs {base:?}");
            jittered += usize::from(delay > base);
            base = (base * 2).min(ms(80));
        }
        assert!(jittered > 0, "the seeded jitter spreads redials");
    }

    #[test]
    fn dead_peer_declared_after_fails_before_dead() {
        let mut p = connected();
        assert!(submit(&mut p, 1, None));
        let mut fx = Fx::default();
        p.detached(&mut fx);
        for fail in 1..=3 {
            p.timer(ms(fail), RECONNECT, &mut fx);
            p.connect_failed(ms(fail), false, &mut fx);
            assert_eq!(p.alive(), fail < 3, "declared dead on fail {fail}");
        }
        let answers = std::mem::take(&mut fx.done);
        assert!(matches!(&answers[..], [(1, Err(ReplyError::Link(_)))]), "pending fails with Link");
        assert_eq!(p.admit(), Admit::Down);
        assert!(fx.timer.is_some(), "dialling goes on");
        p.attached(ms(50), &mut fx);
        assert!(p.alive() && p.connected(), "the next attach revives the peer");
        assert_eq!(p.stats().reconnects, 1);
    }

    #[test]
    fn heartbeat_miss_limit_tears_the_connection_down() {
        let mut p = connected();
        let tick = p.conn;
        let mut fx = Fx::default();
        p.timer(ms(50), tick, &mut fx);
        assert!(fx.send.is_empty() && fx.timer == Some((ms(50), tick)), "half-interval tick");
        p.timer(ms(100), tick, &mut fx);
        assert_eq!(parse(&fx.send.pop().unwrap()), Msg::Heartbeat { nonce: 1 });
        p.on_msg(ms(104), Msg::HeartbeatAck { nonce: 1 }, &mut fx);
        assert_eq!(p.rtt_ms(), Some(4.0));
        for (at, misses) in [(250, 1), (350, 2)] {
            p.timer(ms(at), tick, &mut fx);
            assert!(!fx.close && p.stats().heartbeats_missed == misses);
        }
        p.timer(ms(450), tick, &mut fx);
        assert!(fx.close, "three silent intervals close the socket");
        assert_eq!(p.stats().heartbeats_missed, 3);
    }

    #[test]
    fn heard_peer_resets_the_miss_count() {
        let mut p = connected();
        let tick = p.conn;
        let mut fx = Fx::default();
        for at in [200, 300, 400, 500, 600] {
            p.on_msg(ms(at - 50), Msg::Gossip { payload: vec![1] }, &mut fx);
            p.timer(ms(at), tick, &mut fx);
            assert!(!fx.close, "traffic within an interval at {at}");
        }
        let mut gossip = Vec::new();
        p.take_gossip(&mut gossip);
        assert_eq!(gossip.len(), 5);
    }

    #[test]
    fn stale_tick_chain_dies_with_its_connection() {
        let mut p = connected();
        let old = p.conn;
        reattach(&mut p, ms(10));
        let mut fx = Fx::default();
        p.timer(ms(500), old, &mut fx);
        assert!(fx.timer.is_none() && fx.send.is_empty(), "the old chain is not re-armed");
        p.timer(ms(500), p.conn, &mut fx);
        assert_eq!(fx.timer, Some((ms(50), p.conn)));
    }

    #[test]
    fn reconnect_resends_in_id_order_and_resumes_after_over_cap() {
        let mut p = connected();
        for id in [3, 1, 2] {
            assert!(submit(&mut p, id, None), "ids may enter out of order");
        }
        let mut fx = Fx::default();
        p.detached(&mut fx);
        assert!(!submit(&mut p, 4, None), "while down the resend carries it");
        let mut fx = reattach(&mut p, ms(10));
        assert!(matches!(parse(&fx.send[0]), Msg::Hello { .. }), "hello first");
        assert_eq!(resend_ids(&fx), vec![1, 2, 3, 4]);
        fx.resend.clear();
        p.resent([1, 2].into_iter(), true, &mut fx);
        assert!(fx.resend.is_empty() && !p.connected(), "a full outbox pauses the resend");
        p.timer(ms(50), p.conn, &mut fx);
        assert_eq!(resend_ids(&fx), vec![3, 4], "the tick resumes where it stopped");
        fx.resend.clear();
        p.resent([3, 4].into_iter(), false, &mut fx);
        assert!(fx.resend.is_empty() && p.connected());
        assert_eq!(p.stats().reconnects, 1);
    }

    #[test]
    fn submit_during_reconnect_resend_is_sent_once() {
        let mut p = connected();
        assert!(submit(&mut p, 1, None) && submit(&mut p, 2, None));
        let mut framed = Vec::new();
        let mut fx = reattach(&mut p, ms(10));
        // The driver pushes the batch outside the lock; a submit lands
        // before it reports back.
        let batch = std::mem::take(&mut fx.resend);
        framed.extend(batch.iter().map(|(id, _)| *id));
        if submit(&mut p, 3, None) {
            framed.push(3);
        }
        p.resent(batch.iter().map(|(id, _)| *id), false, &mut fx);
        while !fx.resend.is_empty() {
            let batch = std::mem::take(&mut fx.resend);
            framed.extend(batch.iter().map(|(id, _)| *id));
            p.resent(batch.iter().map(|(id, _)| *id), false, &mut fx);
        }
        assert!(p.connected());
        assert_eq!(framed.iter().filter(|&&id| id == 3).count(), 1, "framed: {framed:?}");
        assert!(submit(&mut p, 4, None), "connected again: inline");
    }

    #[test]
    fn late_answer_to_a_cancelled_id_is_swallowed() {
        let mut p = connected();
        assert!(submit(&mut p, 1, None) && submit(&mut p, 2, None));
        assert!(p.cancel(1) && p.cancel(2));
        assert!(!p.cancel(1), "a second cancel sends nothing");
        let mut fx = Fx::default();
        p.on_msg(ms(5), ok(1, true), &mut fx);
        let cancelled = Msg::ResponseErr { req_id: 2, msg: "cancelled".into() };
        p.on_msg(ms(6), cancelled, &mut fx);
        assert!(fx.done.is_empty() && p.idle());
        assert_eq!((p.stats().resends_deduped, p.stats().cancels_delivered), (0, 1));
        p.on_msg(ms(7), ok(1, true), &mut fx);
        assert_eq!(p.stats().resends_deduped, 1, "swallowed once, then unknown");
    }

    #[test]
    fn answers_settle_their_requests() {
        let mut p = connected();
        assert!(submit(&mut p, 1, None) && submit(&mut p, 2, None));
        let mut fx = Fx::default();
        p.on_msg(ms(5), ok(1, false), &mut fx);
        p.on_msg(ms(6), Msg::ResponseErr { req_id: 2, msg: "boom".into() }, &mut fx);
        assert_eq!(done(&mut fx), vec![(1, true), (2, false)]);
        assert!(p.idle());
    }

    #[test]
    fn deadline_sweep_fails_expired_requests_while_connected() {
        let mut p = connected();
        assert!(submit(&mut p, 1, Some(ms(30))) && submit(&mut p, 2, Some(ms(500))));
        assert!(submit(&mut p, 3, None));
        let mut fx = Fx::default();
        p.timer(ms(50), p.conn, &mut fx);
        assert!(matches!(&fx.done[..], [(1, Err(ReplyError::Worker(_)))]));
        fx.done.clear();
        p.on_msg(ms(60), ok(1, false), &mut fx);
        assert!(fx.done.is_empty(), "the late answer is swallowed");
        assert_eq!(p.inflight.keys().copied().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn deadline_sweep_runs_during_backoff() {
        let mut p = connected();
        assert!(submit(&mut p, 1, Some(ms(30))) && submit(&mut p, 2, Some(ms(90))));
        let mut fx = Fx::default();
        p.detached(&mut fx);
        p.timer(ms(40), RECONNECT, &mut fx);
        assert_eq!(done(&mut fx), vec![(1, false)]);
        p.connect_failed(ms(100), false, &mut fx);
        assert_eq!(done(&mut fx), vec![(2, false)], "a failed dial sweeps too");
    }

    #[test]
    fn kill_fails_pending_and_restart_redials() {
        let mut p = connected();
        assert!(submit(&mut p, 1, None));
        let mut fx = Fx::default();
        p.kill(&mut fx);
        assert!(matches!(&fx.done[..], [(1, Err(ReplyError::Link(_)))]));
        assert!(!p.alive() && p.admit() == Admit::Down);
        p.nudge(&mut fx);
        assert!(fx.close, "a nudge closes the killed link");
        let mut fx = Fx::default();
        p.detached(&mut fx);
        assert!(fx.timer.is_none(), "no redial while killed");
        p.restart();
        p.nudge(&mut fx);
        assert!(fx.connect);
        p.attached(ms(10), &mut fx);
        assert!(p.alive() && p.connected());
    }

    #[test]
    fn stop_says_goodbye_and_removes() {
        let mut p = connected();
        let mut fx = Fx::default();
        p.stop();
        assert!(p.halted() && p.admit() == Admit::Down);
        p.nudge(&mut fx);
        assert_eq!(parse(&fx.send[0]), Msg::Goodbye);
        assert!(fx.remove);
    }

    fn key(id: u64) -> (u64, u64) {
        (7, id)
    }

    /// `(route, parsed answer)` of a job's answer.
    fn answer(sent: Option<(u8, SharedFrame)>) -> (u8, Msg) {
        let (route, bytes) = sent.unwrap();
        (route, parse(&bytes))
    }

    #[test]
    fn unknown_request_computes() {
        let mut jobs = Jobs::new(4);
        assert_eq!(jobs.deliver(key(1), &0u8), Delivery::Compute);
        assert!(jobs.start(key(1)).is_none(), "not cancelled: compute it");
        let (route, msg) = answer(jobs.finish(key(1), Ok(vec![9])));
        assert_eq!(
            (route, msg),
            (0, Msg::ResponseOk { req_id: 1, deduped: false, frame: vec![9] })
        );
        assert_eq!(jobs.counts(), JobCounts { computed: 1, ..JobCounts::default() });
    }

    #[test]
    fn pending_duplicate_reroutes_to_the_newest_connection() {
        let mut jobs = Jobs::new(4);
        assert_eq!(jobs.deliver(key(1), &0u8), Delivery::Compute);
        assert_eq!(jobs.deliver(key(1), &1u8), Delivery::Held, "no recompute, no replay");
        let (route, msg) = answer(jobs.finish(key(1), Ok(vec![9])));
        assert_eq!((route, msg), (1, Msg::ResponseOk { req_id: 1, deduped: true, frame: vec![9] }));
        assert_eq!(jobs.counts(), JobCounts { computed: 1, deduped: 1, cancelled: 0 });
    }

    #[test]
    fn finished_duplicate_replays_the_cached_body() {
        let mut jobs = Jobs::new(4);
        jobs.deliver(key(1), &0u8);
        jobs.finish(key(1), Ok(vec![9]));
        let Delivery::Replay(bytes) = jobs.deliver(key(1), &1u8) else { panic!("replay") };
        assert_eq!(parse(&bytes), Msg::ResponseOk { req_id: 1, deduped: true, frame: vec![9] });
        assert_eq!(jobs.counts(), JobCounts { computed: 1, deduped: 1, cancelled: 0 });
    }

    #[test]
    fn restamped_frame_parses_deduped_and_leaves_the_cache_unflagged() {
        let body: Body = Ok(vec![9, 8, 7]);
        let Answer::Frame(resp) = Answer::encode(1, &body) else { panic!("encoded") };
        let copy = restamped(&resp);
        assert_eq!(
            parse(&copy),
            Msg::ResponseOk { req_id: 1, deduped: true, frame: vec![9, 8, 7] }
        );
        assert_eq!(
            parse(&resp),
            Msg::ResponseOk { req_id: 1, deduped: false, frame: vec![9, 8, 7] }
        );
        // A pending duplicate gets the re-stamped copy; the cache keeps the
        // unflagged frame itself, and a later replay re-stamps it again.
        let mut jobs = Jobs::new(4);
        jobs.deliver(key(1), &0u8);
        jobs.deliver(key(1), &1u8);
        let (_, sent) = jobs.finish(key(1), Answer::encode(1, &body)).unwrap();
        assert!(matches!(parse(&sent), Msg::ResponseOk { deduped: true, .. }));
        let Some(Job::Done(cached)) = jobs.map.get(&key(1)) else { panic!("cached") };
        assert!(matches!(parse(cached), Msg::ResponseOk { deduped: false, .. }));
        // An error frame has no flag: it is shared, not copied.
        let Answer::Frame(err) = Answer::encode(2, &Err("boom".into())) else { panic!() };
        assert!(SharedFrame::ptr_eq(&restamped(&err), &err));
    }

    #[test]
    fn cancel_while_queued_answers_cancelled_without_compute() {
        let mut jobs = Jobs::new(4);
        jobs.deliver(key(1), &0u8);
        jobs.cancel(key(1), &1u8);
        assert_eq!(jobs.deliver(key(1), &2u8), Delivery::Held);
        let (route, msg) = answer(jobs.start(key(1)));
        assert_eq!((route, msg), (1, Msg::ResponseErr { req_id: 1, msg: "cancelled".into() }));
        let Delivery::Replay(bytes) = jobs.deliver(key(1), &2u8) else { panic!("replay") };
        assert!(matches!(parse(&bytes), Msg::ResponseErr { req_id: 1, .. }), "answered once");
        // A cancel that lands mid-compute cannot stop it: the body goes out.
        jobs.deliver(key(2), &0u8);
        assert!(jobs.start(key(2)).is_none());
        jobs.cancel(key(2), &1u8);
        assert_eq!(answer(jobs.finish(key(2), Ok(vec![3]))).0, 1);
        assert_eq!(jobs.counts(), JobCounts { computed: 1, deduped: 1, cancelled: 1 });
    }

    /// Regression: a single long-lived pending entry at the FIFO front
    /// must not pin finished bodies behind it. An evictor that stopped at
    /// the first in-flight head grew a 10k-request stream's map to 10k
    /// entries; the high-watermark sweep keeps it at capacity (+ the one
    /// stuck entry).
    #[test]
    fn dedup_sweep_bounds_map_behind_stuck_pending() {
        let cap = 64;
        let mut jobs = Jobs::new(cap);
        // Request 0 never completes (its compute is stuck).
        assert_eq!(jobs.deliver((1, 0), &()), Delivery::Compute);
        for i in 1..=10_000u64 {
            assert_eq!(jobs.deliver((1, i), &()), Delivery::Compute);
            jobs.finish((1, i), Ok(Vec::new()));
            assert!(
                jobs.map.len() <= cap + 1,
                "dedup map must stay bounded behind a stuck head: {} entries at request {i}",
                jobs.map.len()
            );
            assert_eq!(jobs.map.len(), jobs.order.len(), "order deque must track the map");
        }
        // The stuck entry survived the sweeps, still pending.
        assert!(matches!(jobs.map.get(&(1, 0)), Some(Job::Pending { .. })));
        // The freshest finished bodies are the ones retained.
        assert!(matches!(jobs.map.get(&(1, 10_000)), Some(Job::Done(_))));
    }

    /// A sustained stream through both cores — the client's frames parsed
    /// and fed to the worker's map, its answers fed back — keeps the map at
    /// its capacity and answers every request once, in order.
    #[test]
    fn worker_dedup_stays_bounded_over_stream() {
        let cap = 128;
        let mut p: Peer<u64, Vec<u8>> = Peer::new(cfg(), 0);
        let mut jobs = Jobs::new(cap);
        let mut fx = Effects::default();
        p.nudge(&mut fx);
        p.attached(ms(0), &mut fx);
        let Msg::Hello { session, .. } = parse(&fx.send[0]) else { panic!("hello first") };
        let tframe = vec![1, 2, 3];
        for i in 1..=2_000u64 {
            let now = ms(i);
            assert!(p.submit(i, frame::encode_request(i, 0, &tframe), Some(ms(i + 1_000)), i));
            let Msg::Request { req_id, frame: input, .. } = parse(&p.inflight[&i].frame) else {
                panic!("a request frame")
            };
            assert_eq!(jobs.deliver((session, req_id), &()), Delivery::Compute);
            assert!(jobs.start((session, req_id)).is_none());
            let ((), resp) = jobs.finish((session, req_id), Ok(input)).unwrap();
            p.on_msg(now, parse(&resp), &mut fx);
            let answered: Vec<_> = fx.done.drain(..).map(|(id, r)| (id, r.unwrap())).collect();
            assert_eq!(answered, vec![(i, tframe.clone())]);
            assert!(
                jobs.map.len() <= cap + 1,
                "dedup map exceeded its bound mid-stream: {}",
                jobs.map.len()
            );
        }
        assert!(p.idle());
        assert_eq!(jobs.counts().computed, 2_000);
    }
}
