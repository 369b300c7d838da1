//! The coordinator side of the TCP transport: [`AsyncTcpTransport`]
//! implements `murmuration_core::transport::Transport` over one supervised
//! connection per device worker, every peer multiplexed onto a fixed
//! [`crate::driver::DriverPool`]. A 1 000-worker fleet costs one poller
//! registration per connection and a handful of event-loop threads.
//!
//! # Connection supervision
//!
//! Each peer is one `PeerEntity` state machine on the event loop. A lost
//! connection (io error, corrupt frame, `heartbeat_miss_limit` silent
//! intervals) re-dials through a seeded, jittered, capped exponential
//! backoff. Submitting threads push request frames straight into the
//! peer's outbox, so the hot path has no hand-off to a driver thread.
//! In-flight requests are *kept* across a teardown and resent (same
//! request id, in id order) after reconnect — the worker's
//! `(session, req_id)` dedup map makes the resend at-most-once. Only when
//! the peer is declared dead (`fails_before_dead` consecutive connect
//! failures; reconnection keeps trying), killed, or the transport shuts
//! down are pending requests failed with a `Link` error — so the
//! executor's wait always resolves. Liveness flips back on the next
//! successful reconnect, which is how a healed partition restores the
//! device.
//!
//! Fleet-scale pressure is bounded, and its overflow is typed:
//!
//! * a **global in-flight cap** across all peers — beyond it `submit`
//!   fails fast with `SubmitError::Backpressure` instead of queueing
//!   unboundedly;
//! * a **per-peer outbound byte cap** (the driver [`Outbox`]) — a slow
//!   peer's queue saturates into the same typed error;
//! * an **fd-budget guard** — near the process rlimit, new connect
//!   attempts are shed (counted, retried later with backoff) instead of
//!   driving the process into `EMFILE`;
//! * **reconnect-stampede smearing** — after a connection loss every peer
//!   re-dials through its own seeded jitter window, so a coordinator
//!   restart does not thunder 1 000 SYNs into one accept queue.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::driver::{ConnHandle, Ctx, Detach, DriverPool, Entity, Outbox, PushOutcome};
use crate::frame::{self, Msg};
use crate::poller;
use crossbeam::channel::Sender;
use murmuration_core::transport::{
    ReplyError, SubmitError, Transport, TransportJob, TransportReply, TransportStats,
};
use murmuration_core::wire;
use murmuration_tensor::quant::BitWidth;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Per-peer connection supervision knobs. The defaults suit a LAN.
#[derive(Clone, Copy, Debug)]
pub struct TcpTransportConfig {
    /// Idle interval between heartbeats; also the staleness bound used for
    /// dead-peer detection.
    pub heartbeat_interval: Duration,
    /// Consecutive heartbeat intervals without traffic from the peer
    /// before the connection is torn down and rebuilt.
    pub heartbeat_miss_limit: u32,
    /// Base reconnect backoff (doubles per failure, jittered).
    pub reconnect_backoff: Duration,
    /// Backoff cap.
    pub reconnect_backoff_max: Duration,
    /// Consecutive connect failures before the peer is declared dead and
    /// pending requests are failed fast (reconnection keeps trying).
    pub fails_before_dead: u32,
    /// Bounded in-flight window per peer; `submit` blocks (briefly, and
    /// never past peer death) when full.
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

/// Tuning for [`AsyncTcpTransport`]: the per-peer supervision knobs plus
/// the fleet-scale caps.
#[derive(Clone, Copy, Debug)]
pub struct AsyncTcpTransportConfig {
    /// The per-peer supervision knobs (heartbeats, backoff, windows…).
    pub base: TcpTransportConfig,
    /// Per-peer outbound queue cap in bytes; overflow is typed
    /// backpressure, never unbounded memory.
    pub outbox_cap_bytes: usize,
    /// Total in-flight requests across all peers; overflow is typed
    /// backpressure.
    pub global_max_in_flight: usize,
    /// Keep this many fds spare below the rlimit; connect attempts that
    /// would dip into the reserve are shed (and retried with backoff).
    pub fd_margin: u64,
    /// Event-loop threads (0 = one per core, capped at the core count).
    pub n_drivers: usize,
}

impl Default for AsyncTcpTransportConfig {
    fn default() -> Self {
        AsyncTcpTransportConfig {
            base: TcpTransportConfig::default(),
            outbox_cap_bytes: 64 << 20,
            global_max_in_flight: 4096,
            fd_margin: 64,
            n_drivers: 0,
        }
    }
}

impl From<TcpTransportConfig> for AsyncTcpTransportConfig {
    fn from(base: TcpTransportConfig) -> Self {
        AsyncTcpTransportConfig { base, ..AsyncTcpTransportConfig::default() }
    }
}

/// Locks a mutex, recovering from poisoning (a panicked holder cannot
/// corrupt our state invariants: every critical section leaves the maps
/// consistent).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct PendingReq {
    tag: usize,
    attempt: u32,
    reply: Sender<TransportReply>,
    /// Encoded request frame, kept for resend after a reconnect.
    bytes: Arc<Vec<u8>>,
    /// [`TransportJob::deadline`], swept by [`APeer::sweep_expired`].
    expires_at: Option<Instant>,
}

/// How many cancelled request ids are remembered while waiting for the
/// worker's acknowledgement (bounded so cancels for already-computed work,
/// which never get a `"cancelled"` answer, cannot accumulate).
const CANCELLED_CAP: usize = 256;

/// Bound on buffered inbound gossip digests per peer. Gossip merging is
/// idempotent and each digest carries full (not incremental) state, so
/// dropping the oldest under pressure loses nothing that the next round
/// does not resend.
const GOSSIP_INBOX_CAP: usize = 64;

/// Entity timer kinds.
const TK_TICK: u32 = 1;
const TK_RECONNECT: u32 = 2;

#[derive(Default)]
struct PeerQueues {
    inflight: HashMap<u64, PendingReq>,
    /// Request ids cancelled by the executor (hedge losers) or expired:
    /// their responses are swallowed instead of settled.
    cancelled: HashSet<u64>,
    cancelled_order: VecDeque<u64>,
    connected: bool,
}

impl PeerQueues {
    fn mark_cancelled(&mut self, req_id: u64) {
        if self.cancelled.insert(req_id) {
            self.cancelled_order.push_back(req_id);
            while self.cancelled_order.len() > CANCELLED_CAP {
                if let Some(old) = self.cancelled_order.pop_front() {
                    self.cancelled.remove(&old);
                }
            }
        }
    }
}

/// State shared between submitters, the transport facade, and the peer's
/// driver entity.
struct APeer {
    dev: usize,
    addr: String,
    cfg: AsyncTcpTransportConfig,
    session: u64,
    alive: AtomicBool,
    admin_down: AtomicBool,
    stopping: AtomicBool,
    garble: AtomicBool,
    next_req: AtomicU64,
    last_rx_ms: AtomicU64,
    epoch: Instant,
    reconnects: AtomicU64,
    heartbeats_missed: AtomicU64,
    resends_deduped: AtomicU64,
    cancels_delivered: AtomicU64,
    backpressure_rejections: AtomicU64,
    conns_shed: AtomicU64,
    hb_sent: Mutex<HashMap<u64, Instant>>,
    hb_rtt_us: AtomicU64,
    gossip_inbox: Mutex<VecDeque<Vec<u8>>>,
    queues: Mutex<PeerQueues>,
    cond: Condvar,
    /// The driver-shared outbound queue (inline-flushed on submit).
    outbox: Arc<parking_lot::Mutex<Outbox>>,
    /// Driver handle, installed right after spawn.
    handle: Mutex<Option<ConnHandle>>,
    /// Requests in flight across *all* peers of this transport.
    global_inflight: Arc<AtomicUsize>,
}

impl APeer {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn touch_rx(&self) {
        self.last_rx_ms.store(self.now_ms(), Ordering::SeqCst);
    }

    fn nudge(&self) {
        if let Some(h) = lock(&self.handle).as_ref() {
            h.nudge();
        }
    }

    fn close_conn(&self) {
        if let Some(h) = lock(&self.handle).as_ref() {
            h.close();
        }
    }

    fn down(&self) -> bool {
        self.admin_down.load(Ordering::SeqCst)
            || self.stopping.load(Ordering::SeqCst)
            || !self.alive.load(Ordering::SeqCst)
    }

    /// Fails every pending request with a `Link` error. Frees both the
    /// per-peer window and the global in-flight budget.
    fn fail_all(&self, why: &str) {
        let drained: Vec<PendingReq> = {
            let mut q = lock(&self.queues);
            q.inflight.drain().map(|(_, p)| p).collect()
        };
        self.global_inflight.fetch_sub(drained.len(), Ordering::SeqCst);
        for p in drained {
            let _ = p.reply.send(TransportReply {
                tag: p.tag,
                attempt: p.attempt,
                result: Err(ReplyError::Link(why.to_owned())),
            });
        }
        self.cond.notify_all();
    }

    /// Fails every in-flight request whose per-request deadline has
    /// passed, on the tick and on the reconnect timer alike, so a stalled
    /// or partitioned socket cannot hold a request past its budget. A late
    /// answer from the worker is swallowed (the id is marked cancelled).
    fn sweep_expired(&self) {
        let now = Instant::now();
        let expired: Vec<PendingReq> = {
            let mut q = lock(&self.queues);
            let ids: Vec<u64> = q
                .inflight
                .iter()
                .filter(|(_, p)| p.expires_at.is_some_and(|at| now >= at))
                .map(|(id, _)| *id)
                .collect();
            if ids.is_empty() {
                return;
            }
            let dropped: Vec<PendingReq> =
                ids.iter().filter_map(|id| q.inflight.remove(id)).collect();
            for id in ids {
                q.mark_cancelled(id);
            }
            self.cond.notify_all();
            dropped
        };
        self.global_inflight.fetch_sub(expired.len(), Ordering::SeqCst);
        for p in expired {
            let _ = p.reply.send(TransportReply {
                tag: p.tag,
                attempt: p.attempt,
                result: Err(ReplyError::Worker("transport request deadline expired".to_owned())),
            });
        }
    }

    /// Best-effort frame send on the live connection; nudges the driver
    /// when bytes stayed queued so write interest gets armed.
    fn send_frame(&self, bytes: Arc<Vec<u8>>) -> PushOutcome {
        let outcome = self.outbox.lock().push(bytes);
        if matches!(outcome, PushOutcome::Queued) {
            self.nudge();
        }
        outcome
    }
}

/// Completes `req_id`, freeing its window slots.
fn settle(peer: &APeer, req_id: u64, result: Result<murmuration_tensor::Tensor, ReplyError>) {
    let pending = {
        let mut q = lock(&peer.queues);
        let p = q.inflight.remove(&req_id);
        peer.cond.notify_all();
        p
    };
    if let Some(p) = pending {
        peer.global_inflight.fetch_sub(1, Ordering::SeqCst);
        let _ = p.reply.send(TransportReply { tag: p.tag, attempt: p.attempt, result });
    }
}

/// Connection state-machine phase of one peer's driver entity.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No socket, no pending attempt (admin-down or just created).
    Down,
    /// A connect attempt is in flight on the connector pool.
    Connecting,
    /// Waiting out the (jittered) backoff timer.
    Backoff,
    /// Socket attached and serving.
    Connected,
}

/// The per-peer protocol entity driven by the event loop: connection
/// phase, backoff, heartbeat staleness and resend progress. The driver
/// serializes every callback for a given entity, so none of this state
/// needs a lock.
struct PeerEntity {
    peer: Arc<APeer>,
    rng: StdRng,
    phase: Phase,
    fails: u32,
    backoff: Duration,
    first_connect: bool,
    misses: u32,
    nonce: u64,
    next_hb: Instant,
    /// Reconnect resend progress: next request id to (re)send. Pushing
    /// past the outbox cap pauses here and resumes on the next tick; the
    /// worker's dedup map absorbs any overlap.
    resend_from: u64,
    resend_done: bool,
}

impl PeerEntity {
    fn new(peer: Arc<APeer>) -> PeerEntity {
        let seed = peer.cfg.base.seed ^ (peer.dev as u64).wrapping_mul(0x9E37);
        PeerEntity {
            peer,
            rng: StdRng::seed_from_u64(seed),
            phase: Phase::Down,
            fails: 0,
            backoff: Duration::from_millis(1),
            first_connect: true,
            misses: 0,
            nonce: 0,
            next_hb: Instant::now(),
            resend_from: 0,
            resend_done: true,
        }
    }

    fn jitter_ms(&mut self, base: Duration) -> u64 {
        self.rng.gen_range(0..=(base.as_millis() as u64 / 2).max(1))
    }

    fn start_connect(&mut self, ctx: &mut Ctx<'_>) {
        // FD-budget guard: refuse to dial into the rlimit reserve. The
        // attempt is shed (typed, counted) and retried on backoff like a
        // refused connection — the fleet sheds its flappiest edges first
        // because they are the ones spending time in this path.
        if poller::approx_open_fds() + self.peer.cfg.fd_margin >= poller::fd_budget() {
            self.peer.conns_shed.fetch_add(1, Ordering::SeqCst);
            self.note_connect_failure(ctx);
            return;
        }
        self.phase = Phase::Connecting;
        ctx.connect(&self.peer.addr, self.peer.cfg.base.connect_timeout);
    }

    /// Shared failure path: count toward dead-peer declaration, arm the
    /// jittered exponential backoff.
    fn note_connect_failure(&mut self, ctx: &mut Ctx<'_>) {
        if self.peer.stopping.load(Ordering::SeqCst) || self.peer.admin_down.load(Ordering::SeqCst)
        {
            self.phase = Phase::Down;
            return;
        }
        self.fails += 1;
        if self.fails == self.peer.cfg.base.fails_before_dead {
            self.peer.alive.store(false, Ordering::SeqCst);
            self.peer.fail_all("peer unreachable");
        }
        let jitter = self.jitter_ms(self.backoff);
        self.phase = Phase::Backoff;
        ctx.timer(self.backoff + Duration::from_millis(jitter), TK_RECONNECT);
        self.backoff = (self.backoff * 2).min(self.peer.cfg.base.reconnect_backoff_max);
    }

    /// Pushes in-flight requests in id order, resuming where the last
    /// attempt stopped (outbox cap). At-most-once via worker dedup.
    fn try_resend(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let next: Option<(u64, Arc<Vec<u8>>)> = {
                let q = lock(&self.peer.queues);
                q.inflight
                    .iter()
                    .filter(|(id, _)| **id >= self.resend_from)
                    .min_by_key(|(id, _)| **id)
                    .map(|(id, p)| (*id, Arc::clone(&p.bytes)))
            };
            let Some((id, bytes)) = next else {
                self.resend_done = true;
                return;
            };
            match ctx.send(bytes) {
                PushOutcome::Sent | PushOutcome::Queued => self.resend_from = id + 1,
                // Cap reached: resume on the next tick rather than spin.
                PushOutcome::OverCap => return,
                // Lost the socket already; the next attach restarts.
                PushOutcome::NoConn => return,
            }
        }
    }

    /// One tick while connected: deadline sweep, paused resends, and once
    /// per heartbeat interval the staleness check and the probe.
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.phase != Phase::Connected {
            return;
        }
        let peer = Arc::clone(&self.peer);
        if peer.stopping.load(Ordering::SeqCst) {
            return;
        }
        if peer.admin_down.load(Ordering::SeqCst) {
            ctx.close();
            return;
        }
        peer.sweep_expired();
        if !self.resend_done {
            self.try_resend(ctx);
        }
        let hb = peer.cfg.base.heartbeat_interval;
        let now = Instant::now();
        if now >= self.next_hb {
            self.next_hb = now + hb;
            let silent_ms = peer.now_ms().saturating_sub(peer.last_rx_ms.load(Ordering::SeqCst));
            if silent_ms > hb.as_millis() as u64 {
                self.misses += 1;
                peer.heartbeats_missed.fetch_add(1, Ordering::SeqCst);
                if self.misses >= peer.cfg.base.heartbeat_miss_limit {
                    ctx.close();
                    return;
                }
            } else {
                self.misses = 0;
            }
            self.nonce += 1;
            {
                let mut sent = lock(&peer.hb_sent);
                if sent.len() > 64 {
                    sent.clear();
                }
                sent.insert(self.nonce, Instant::now());
            }
            let _ = ctx.send(Arc::new(frame::encode_frame(&Msg::Heartbeat { nonce: self.nonce })));
        }
        // Tick at half the heartbeat interval, so an expired deadline or a
        // silent peer is noticed within half an interval.
        ctx.timer(hb / 2, TK_TICK);
    }
}

impl Entity for PeerEntity {
    fn on_nudge(&mut self, ctx: &mut Ctx<'_>) {
        let peer = Arc::clone(&self.peer);
        if peer.stopping.load(Ordering::SeqCst) {
            // Graceful leave: whatever was queued has been given its
            // drain window by `shutdown`; say goodbye and go.
            let _ = ctx.send(Arc::new(frame::encode_frame(&Msg::Goodbye)));
            ctx.remove();
            return;
        }
        if peer.admin_down.load(Ordering::SeqCst) {
            if self.phase == Phase::Connected {
                ctx.close();
            }
            return;
        }
        if self.phase == Phase::Down {
            self.start_connect(ctx);
        }
        // Connected / Connecting / Backoff: nothing to evaluate — the
        // driver flushes the outbox right after this callback.
    }

    fn on_connect_failed(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = Phase::Down;
        self.peer.sweep_expired();
        self.note_connect_failure(ctx);
    }

    fn on_attached(&mut self, ctx: &mut Ctx<'_>) {
        let peer = Arc::clone(&self.peer);
        self.phase = Phase::Connected;
        self.fails = 0;
        self.backoff = peer.cfg.base.reconnect_backoff;
        self.misses = 0;
        self.next_hb = Instant::now() + peer.cfg.base.heartbeat_interval;
        if !self.first_connect {
            peer.reconnects.fetch_add(1, Ordering::SeqCst);
        }
        self.first_connect = false;
        let _ = ctx.send(Arc::new(frame::encode_frame(&Msg::Hello {
            session: peer.session,
            version: frame::PROTO_VERSION,
        })));
        peer.touch_rx();
        peer.alive.store(true, Ordering::SeqCst);
        // Resend the in-flight window in id order *before* flipping
        // `connected` (no new submit can jump the queue).
        self.resend_from = 0;
        self.resend_done = false;
        self.try_resend(ctx);
        {
            let mut q = lock(&peer.queues);
            q.connected = true;
        }
        peer.cond.notify_all();
        ctx.timer(peer.cfg.base.heartbeat_interval / 2, TK_TICK);
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let peer = Arc::clone(&self.peer);
        peer.touch_rx();
        match msg {
            Msg::ResponseOk { req_id, deduped, frame: tframe } => {
                if lock(&peer.queues).cancelled.remove(&req_id) {
                    return;
                }
                if deduped {
                    peer.resends_deduped.fetch_add(1, Ordering::SeqCst);
                }
                let result = wire::decode(&tframe)
                    .map_err(|e| ReplyError::Worker(format!("response decode: {e}")));
                settle(&peer, req_id, result);
            }
            Msg::ResponseErr { req_id, msg } => {
                if lock(&peer.queues).cancelled.remove(&req_id) {
                    if msg == "cancelled" {
                        peer.cancels_delivered.fetch_add(1, Ordering::SeqCst);
                    }
                    return;
                }
                settle(&peer, req_id, Err(ReplyError::Worker(msg)));
            }
            Msg::HeartbeatAck { nonce } => {
                if let Some(at) = lock(&peer.hb_sent).remove(&nonce) {
                    let rtt_us = at.elapsed().as_micros() as u64;
                    let prev = peer.hb_rtt_us.load(Ordering::SeqCst);
                    let next = if prev == 0 { rtt_us } else { (prev * 4 + rtt_us) / 5 };
                    peer.hb_rtt_us.store(next.max(1), Ordering::SeqCst);
                }
            }
            Msg::Gossip { payload } => {
                let mut inbox = lock(&peer.gossip_inbox);
                if inbox.len() >= GOSSIP_INBOX_CAP {
                    inbox.pop_front();
                }
                inbox.push_back(payload);
            }
            Msg::Goodbye => ctx.close(),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, kind: u32) {
        match kind {
            TK_TICK => self.tick(ctx),
            TK_RECONNECT => {
                let peer = Arc::clone(&self.peer);
                if peer.stopping.load(Ordering::SeqCst) || peer.admin_down.load(Ordering::SeqCst) {
                    self.phase = Phase::Down;
                    return;
                }
                // Deadlines keep ticking while the link is down.
                peer.sweep_expired();
                if self.phase == Phase::Backoff {
                    self.start_connect(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_detached(&mut self, ctx: &mut Ctx<'_>, _why: Detach) {
        let peer = Arc::clone(&self.peer);
        self.phase = Phase::Down;
        self.resend_done = true;
        {
            let mut q = lock(&peer.queues);
            q.connected = false;
        }
        peer.cond.notify_all();
        if peer.stopping.load(Ordering::SeqCst) || peer.admin_down.load(Ordering::SeqCst) {
            return;
        }
        // Re-dial through a per-peer jitter window: when a whole fleet
        // loses its coordinator at once, the reconnects arrive smeared
        // over half a backoff interval instead of as one stampede.
        let jitter = self.jitter_ms(peer.cfg.base.reconnect_backoff);
        self.phase = Phase::Backoff;
        ctx.timer(Duration::from_millis(jitter), TK_RECONNECT);
    }
}

/// A [`Transport`] reaching one remote worker per device over TCP, all
/// peers multiplexed onto one fixed driver pool.
pub struct AsyncTcpTransport {
    peers: Vec<Arc<APeer>>,
    pool: Arc<DriverPool>,
    global_inflight: Arc<AtomicUsize>,
    cfg: AsyncTcpTransportConfig,
}

impl AsyncTcpTransport {
    /// Connects to one worker per address; the driver dials in the
    /// background (a slow worker is just a peer in its reconnect loop).
    /// Session ids are a pure function of `(cfg.base.seed, device)`, so a
    /// run replays from its seed — and two live coordinators sharing a
    /// worker (a primary and its standby) must use distinct seeds, or their
    /// ids collide in its dedup map.
    pub fn connect(addrs: &[String], cfg: impl Into<AsyncTcpTransportConfig>) -> Self {
        let cfg: AsyncTcpTransportConfig = cfg.into();
        assert!(!addrs.is_empty(), "need at least one worker address");
        let n_drivers =
            if cfg.n_drivers == 0 { crate::driver::available_cores() } else { cfg.n_drivers };
        let pool = match DriverPool::new(n_drivers) {
            Ok(p) => p,
            Err(e) => panic!("driver pool: {e}"),
        };
        let global_inflight = Arc::new(AtomicUsize::new(0));
        let mut peers = Vec::with_capacity(addrs.len());
        for (dev, addr) in addrs.iter().enumerate() {
            let session =
                frame::fnv1a64(&[cfg.base.seed.to_le_bytes(), (dev as u64).to_le_bytes()].concat());
            let peer = Arc::new(APeer {
                dev,
                addr: addr.clone(),
                cfg,
                session,
                alive: AtomicBool::new(true),
                admin_down: AtomicBool::new(false),
                stopping: AtomicBool::new(false),
                garble: AtomicBool::new(false),
                next_req: AtomicU64::new(1),
                last_rx_ms: AtomicU64::new(0),
                epoch: Instant::now(),
                reconnects: AtomicU64::new(0),
                heartbeats_missed: AtomicU64::new(0),
                resends_deduped: AtomicU64::new(0),
                cancels_delivered: AtomicU64::new(0),
                backpressure_rejections: AtomicU64::new(0),
                conns_shed: AtomicU64::new(0),
                hb_sent: Mutex::new(HashMap::new()),
                hb_rtt_us: AtomicU64::new(0),
                gossip_inbox: Mutex::new(VecDeque::new()),
                queues: Mutex::new(PeerQueues::default()),
                cond: Condvar::new(),
                outbox: Arc::new(parking_lot::Mutex::new(Outbox::new(cfg.outbox_cap_bytes))),
                handle: Mutex::new(None),
                global_inflight: Arc::clone(&global_inflight),
            });
            let entity = Box::new(PeerEntity::new(Arc::clone(&peer)));
            let handle = pool.spawn_conn(entity, Arc::clone(&peer.outbox));
            *lock(&peer.handle) = Some(handle);
            peers.push(peer);
        }
        AsyncTcpTransport { peers, pool, global_inflight, cfg }
    }

    /// Blocks until every peer is connected or `timeout` elapses.
    pub fn wait_connected(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let all = self.peers.iter().all(|p| lock(&p.queues).connected);
            if all {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Event-loop threads backing this transport (≤ cores).
    pub fn n_driver_threads(&self) -> usize {
        self.pool.n_drivers()
    }
}

impl Transport for AsyncTcpTransport {
    fn n_devices(&self) -> usize {
        self.peers.len()
    }

    fn is_alive(&self, dev: usize) -> bool {
        self.peers[dev].alive.load(Ordering::SeqCst)
    }

    fn mark_dead(&self, dev: usize) {
        self.peers[dev].alive.store(false, Ordering::SeqCst);
    }

    fn submit(
        &self,
        dev: usize,
        job: TransportJob,
        reply: Sender<TransportReply>,
    ) -> Result<u64, SubmitError> {
        let peer = &self.peers[dev];
        if peer.down() {
            return Err(SubmitError::DeviceDown);
        }
        // Global in-flight cap: typed backpressure, fail fast. Unlike the
        // per-peer window (which the executor relies on to block), the
        // global cap protects the coordinator itself, so it never waits.
        if self.global_inflight.load(Ordering::SeqCst) >= self.cfg.global_max_in_flight {
            peer.backpressure_rejections.fetch_add(1, Ordering::SeqCst);
            return Err(SubmitError::Backpressure);
        }
        // The socket always pays the full wire frame; quantization is only
        // applied when the hop crosses a device boundary, mirroring the
        // in-process semantics exactly (so B32 plans are bit-identical
        // across transports).
        let quant = if job.cross_boundary { job.quant } else { BitWidth::B32 };
        let mut tframe = wire::encode(&job.input, quant);
        if peer.garble.load(Ordering::SeqCst) {
            // Injected link corruption: the worker's checksum catches it
            // and answers with a typed error — the real remote detection
            // path, not a local simulation.
            let mid = tframe.len() / 2;
            tframe[mid] ^= 0x5A;
        }
        let req_id = peer.next_req.fetch_add(1, Ordering::SeqCst);
        let bytes = Arc::new(frame::encode_request(req_id, job.unit as u32, &tframe));
        let mut q = lock(&peer.queues);
        // Bounded per-peer window; blocks briefly, never past peer death.
        while q.inflight.len() >= peer.cfg.base.max_in_flight {
            if peer.down() {
                return Err(SubmitError::DeviceDown);
            }
            match peer.cond.wait_timeout(q, Duration::from_millis(50)) {
                Ok((guard, _)) => q = guard,
                Err(poisoned) => q = poisoned.into_inner().0,
            }
        }
        q.inflight.insert(
            req_id,
            PendingReq {
                tag: job.tag,
                attempt: job.attempt,
                reply,
                bytes: Arc::clone(&bytes),
                expires_at: job.deadline.map(|d| Instant::now() + d),
            },
        );
        self.global_inflight.fetch_add(1, Ordering::SeqCst);
        let connected = q.connected;
        peer.cond.notify_all();
        drop(q);
        if connected {
            // Inline write on the submitting thread (no driver handoff on
            // the hot path). A full outbox is typed backpressure: undo the
            // reservation and tell the caller.
            match peer.send_frame(bytes) {
                PushOutcome::Sent | PushOutcome::Queued => {}
                PushOutcome::NoConn => {
                    // Connection dropped in between: the request stays
                    // in-flight and the reconnect path resends it.
                }
                PushOutcome::OverCap => {
                    let removed = lock(&peer.queues).inflight.remove(&req_id).is_some();
                    if removed {
                        self.global_inflight.fetch_sub(1, Ordering::SeqCst);
                        peer.cond.notify_all();
                    }
                    peer.backpressure_rejections.fetch_add(1, Ordering::SeqCst);
                    return Err(SubmitError::Backpressure);
                }
            }
        }
        Ok(req_id)
    }

    fn cancel(&self, dev: usize, ticket: u64) {
        let peer = &self.peers[dev];
        {
            let mut q = lock(&peer.queues);
            if q.inflight.remove(&ticket).is_none() {
                return;
            }
            self.global_inflight.fetch_sub(1, Ordering::SeqCst);
            q.mark_cancelled(ticket);
            peer.cond.notify_all();
        }
        let _ = peer.send_frame(Arc::new(frame::encode_frame(&Msg::Cancel { req_id: ticket })));
    }

    fn kill_device(&self, dev: usize) {
        let peer = &self.peers[dev];
        peer.admin_down.store(true, Ordering::SeqCst);
        peer.alive.store(false, Ordering::SeqCst);
        peer.fail_all("device administratively down");
        peer.close_conn();
    }

    fn restart_device(&mut self, dev: usize) {
        let peer = &self.peers[dev];
        peer.admin_down.store(false, Ordering::SeqCst);
        peer.cond.notify_all();
        peer.nudge();
    }

    fn set_wire_corruption(&self, dev: usize, on: bool) {
        self.peers[dev].garble.store(on, Ordering::SeqCst);
    }

    fn link_rtt_ms(&self, dev: usize) -> Option<f64> {
        let us = self.peers[dev].hb_rtt_us.load(Ordering::SeqCst);
        (us > 0).then(|| us as f64 / 1e3)
    }

    fn send_gossip(&self, dev: usize, payload: &[u8]) -> bool {
        let Some(peer) = self.peers.get(dev) else {
            return false;
        };
        if peer.admin_down.load(Ordering::SeqCst) || peer.stopping.load(Ordering::SeqCst) {
            return false;
        }
        matches!(
            peer.send_frame(Arc::new(frame::encode_frame(&Msg::Gossip {
                payload: payload.to_vec()
            }))),
            PushOutcome::Sent | PushOutcome::Queued
        )
    }

    fn drain_gossip(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for peer in &self.peers {
            out.extend(lock(&peer.gossip_inbox).drain(..));
        }
        out
    }

    fn stats(&self) -> TransportStats {
        let mut s = TransportStats::default();
        for p in &self.peers {
            s.reconnects += p.reconnects.load(Ordering::SeqCst);
            s.heartbeats_missed += p.heartbeats_missed.load(Ordering::SeqCst);
            s.resends_deduped += p.resends_deduped.load(Ordering::SeqCst);
            s.cancels_delivered += p.cancels_delivered.load(Ordering::SeqCst);
            s.backpressure_rejections += p.backpressure_rejections.load(Ordering::SeqCst);
            s.conns_shed += p.conns_shed.load(Ordering::SeqCst);
        }
        s
    }

    fn shutdown(&mut self) {
        // Graceful drain: bounded wait for in-flight work, per peer.
        for peer in &self.peers {
            let deadline = Instant::now() + peer.cfg.base.drain_timeout;
            let mut q = lock(&peer.queues);
            while !(q.inflight.is_empty() && peer.outbox.lock().pending_bytes() == 0)
                && peer.alive.load(Ordering::SeqCst)
                && Instant::now() < deadline
            {
                match peer.cond.wait_timeout(q, Duration::from_millis(20)) {
                    Ok((guard, _)) => q = guard,
                    Err(poisoned) => q = poisoned.into_inner().0,
                }
            }
        }
        for peer in &self.peers {
            peer.stopping.store(true, Ordering::SeqCst);
            peer.cond.notify_all();
            peer.nudge(); // entity sends Goodbye and removes itself
        }
        std::thread::sleep(Duration::from_millis(10));
        for peer in &self.peers {
            peer.alive.store(false, Ordering::SeqCst);
            peer.fail_all("transport shut down");
            if let Some(h) = lock(&peer.handle).take() {
                h.remove();
            }
        }
        self.pool.stop();
    }
}

impl Drop for AsyncTcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}
