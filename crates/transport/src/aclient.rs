//! The coordinator side of the TCP transport: [`AsyncTcpTransport`]
//! implements `murmuration_core::transport::Transport` over one supervised
//! connection per device worker, every peer multiplexed onto a fixed
//! [`crate::driver::DriverPool`]. A 1 000-worker fleet costs one poller
//! registration per connection and a handful of event-loop threads.
//!
//! Each peer's rules are one [`crate::proto::Peer`] behind one mutex,
//! driven from the event loop (`PeerEntity`) and from the executor's
//! threads (the [`Transport`] methods). Submitters push request frames
//! straight into the peer's outbox; responses are decoded and answered
//! outside the lock; the only blocking waits (a full window, shutdown's
//! bounded drain) share the peer's one condvar. Overflow is typed: a
//! global in-flight cap and the per-peer [`Outbox`] byte cap answer
//! `Backpressure`, and dials near the fd rlimit are shed onto the backoff.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::driver::{
    ConnHandle, Ctx, Detach, DriverPool, Entity, Outbox, PushOutcome, OUTBOX_CAP_BYTES,
};
use crate::frame::{self, Msg};
pub use crate::proto::TcpTransportConfig;
use crate::proto::{Admit, Effects, Peer};
use crate::{lock, poller, wait};
use crossbeam::channel::Sender;
use murmuration_core::transport::{
    ReplyError, SubmitError, Transport, TransportJob, TransportReply, TransportStats,
};
use murmuration_core::wire;
use murmuration_tensor::quant::BitWidth;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Tuning for [`AsyncTcpTransport`]: the per-peer supervision knobs plus
/// the fleet-scale caps.
#[derive(Clone, Copy, Debug)]
pub struct AsyncTcpTransportConfig {
    /// The per-peer supervision knobs (heartbeats, backoff, windows…).
    pub base: TcpTransportConfig,
    /// Total in-flight requests across all peers; overflow is typed
    /// backpressure.
    pub global_max_in_flight: usize,
    /// Event-loop threads (0 = one per core, capped at the core count).
    pub n_drivers: usize,
}

impl Default for AsyncTcpTransportConfig {
    fn default() -> Self {
        AsyncTcpTransportConfig {
            base: TcpTransportConfig::default(),
            global_max_in_flight: 4096,
            n_drivers: 0,
        }
    }
}

impl From<TcpTransportConfig> for AsyncTcpTransportConfig {
    fn from(base: TcpTransportConfig) -> Self {
        AsyncTcpTransportConfig { base, ..AsyncTcpTransportConfig::default() }
    }
}

/// Where one request's answer goes.
struct Reply {
    tx: Sender<TransportReply>,
    tag: usize,
    attempt: u32,
}

type Frame = Arc<Vec<u8>>;
type Core = Peer<Reply, Frame>;
type Fx = Effects<Reply, Frame>;

/// One device's link: the protocol core behind its one lock, plus what
/// submitting threads touch without it.
struct Link {
    addr: String,
    cfg: TcpTransportConfig,
    /// Instant zero of the core's clock.
    epoch: Instant,
    core: Mutex<Core>,
    /// Wakes submitters waiting for a window slot and shutdown's drain.
    cond: Condvar,
    /// Lock-free mirror of the core's liveness, written under its lock.
    alive: AtomicBool,
    /// Injected link corruption, applied before the frame is built.
    garble: AtomicBool,
    /// Request ids. Taken outside the lock, so ids may enter the core out
    /// of order; its resend does not depend on their order of arrival.
    next_req: AtomicU64,
    /// The driver-shared outbound queue (inline-flushed on submit).
    outbox: Arc<parking_lot::Mutex<Outbox>>,
    /// Driver handle, installed right after spawn.
    handle: OnceLock<ConnHandle>,
    /// Requests in flight across *all* peers of this transport.
    global: Arc<AtomicUsize>,
}

impl Link {
    /// Steps the core under its lock and refreshes the liveness mirror
    /// (written on change only, so readers' cache lines stay shared).
    fn step<T>(&self, f: impl FnOnce(&mut Core) -> T) -> T {
        let mut core = lock(&self.core);
        let out = f(&mut core);
        if self.alive.load(Ordering::Relaxed) != core.alive() {
            self.alive.store(core.alive(), Ordering::SeqCst);
        }
        out
    }

    /// Answers resolved requests outside the lock and frees their budget.
    fn finish(&self, done: &mut Vec<(Reply, Result<Vec<u8>, ReplyError>)>) {
        if !done.is_empty() {
            self.global.fetch_sub(done.len(), Ordering::SeqCst);
            self.cond.notify_all();
        }
        for (r, body) in done.drain(..) {
            let result = body.and_then(|f| {
                wire::decode(&f).map_err(|e| ReplyError::Worker(format!("response decode: {e}")))
            });
            let _ = r.tx.send(TransportReply { tag: r.tag, attempt: r.attempt, result });
        }
    }

    /// Steps an input that fails requests, wakes every waiter, answers.
    fn fail(&self, f: impl FnOnce(&mut Core, &mut Fx)) {
        let mut fx = Fx::default();
        self.step(|core| f(core, &mut fx));
        self.cond.notify_all();
        self.finish(&mut fx.done);
    }

    /// Best-effort frame push on the live connection; nudges the driver
    /// when bytes stayed queued so write interest gets armed.
    fn push(&self, frame: Frame) -> PushOutcome {
        let outcome = self.outbox.lock().push(frame);
        if outcome == PushOutcome::Queued {
            self.nudge();
        }
        outcome
    }

    fn nudge(&self) {
        if let Some(h) = self.handle.get() {
            h.nudge();
        }
    }
}

/// Drives one [`Link`]'s core from the event loop. The driver serializes
/// every callback of an entity, so resends never interleave.
struct PeerEntity {
    link: Arc<Link>,
    fx: Fx,
}

impl PeerEntity {
    fn step(&mut self, ctx: &mut Ctx<'_>, f: impl FnOnce(&mut Core, Duration, &mut Fx)) {
        let now = ctx.now().saturating_duration_since(self.link.epoch);
        let fx = &mut self.fx;
        self.link.step(|core| f(core, now, fx));
        self.apply(ctx, now);
    }

    fn apply(&mut self, ctx: &mut Ctx<'_>, now: Duration) {
        for frame in self.fx.send.drain(..) {
            let _ = ctx.send(Arc::new(frame));
        }
        while !self.fx.resend.is_empty() {
            let batch = std::mem::take(&mut self.fx.resend);
            let pushed = batch
                .iter()
                .take_while(|(_, f)| {
                    matches!(ctx.send(Arc::clone(f)), PushOutcome::Sent | PushOutcome::Queued)
                })
                .count();
            let (fx, ids) = (&mut self.fx, batch[..pushed].iter().map(|(id, _)| *id));
            self.link.step(|core| core.resent(ids, pushed < batch.len(), fx));
        }
        if std::mem::take(&mut self.fx.connect) {
            // FD-budget guard: a dial into the rlimit reserve is shed
            // (typed, counted) and retried on backoff like a refused one.
            if poller::near_fd_limit() {
                let fx = &mut self.fx;
                self.link.step(|core| core.connect_failed(now, true, fx));
            } else {
                ctx.connect(&self.link.addr, self.link.cfg.connect_timeout);
            }
        }
        if let Some((delay, kind)) = self.fx.timer.take() {
            ctx.timer(delay, kind);
        }
        if std::mem::take(&mut self.fx.close) {
            ctx.close();
        }
        if std::mem::take(&mut self.fx.remove) {
            ctx.remove();
        }
        self.link.finish(&mut self.fx.done);
    }
}

impl Entity for PeerEntity {
    fn on_nudge(&mut self, ctx: &mut Ctx<'_>) {
        self.step(ctx, |core, _, fx| core.nudge(fx));
    }

    fn on_connect_failed(&mut self, ctx: &mut Ctx<'_>) {
        self.step(ctx, |core, now, fx| core.connect_failed(now, false, fx));
    }

    fn on_attached(&mut self, ctx: &mut Ctx<'_>) {
        self.step(ctx, |core, now, fx| core.attached(now, fx));
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        self.step(ctx, |core, now, fx| core.on_msg(now, msg, fx));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, kind: u32) {
        self.step(ctx, |core, now, fx| core.timer(now, kind, fx));
    }

    fn on_detached(&mut self, ctx: &mut Ctx<'_>, _why: Detach) {
        self.step(ctx, |core, _, fx| core.detached(fx));
    }
}

/// A [`Transport`] reaching one remote worker per device over TCP, all
/// peers multiplexed onto one fixed driver pool.
pub struct AsyncTcpTransport {
    links: Vec<Arc<Link>>,
    pool: Arc<DriverPool>,
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
        let pool = DriverPool::new(n_drivers).unwrap_or_else(|e| panic!("driver pool: {e}"));
        let global = Arc::new(AtomicUsize::new(0));
        let epoch = Instant::now();
        let links = addrs
            .iter()
            .enumerate()
            .map(|(dev, addr)| {
                let link = Arc::new(Link {
                    addr: addr.clone(),
                    cfg: cfg.base,
                    epoch,
                    core: Mutex::new(Peer::new(cfg.base, dev)),
                    cond: Condvar::new(),
                    alive: AtomicBool::new(true),
                    garble: AtomicBool::new(false),
                    next_req: AtomicU64::new(1),
                    outbox: Arc::new(parking_lot::Mutex::new(Outbox::new(OUTBOX_CAP_BYTES))),
                    handle: OnceLock::new(),
                    global: Arc::clone(&global),
                });
                let entity = PeerEntity { link: Arc::clone(&link), fx: Effects::default() };
                let _ =
                    link.handle.set(pool.spawn_conn(Box::new(entity), Arc::clone(&link.outbox)));
                link
            })
            .collect();
        AsyncTcpTransport { links, pool, cfg }
    }

    /// Blocks until every peer is connected or `timeout` elapses.
    pub fn wait_connected(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.links.iter().all(|l| lock(&l.core).connected()) {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// Event-loop threads backing this transport (≤ cores).
    pub fn n_driver_threads(&self) -> usize {
        self.pool.n_drivers()
    }
}

impl Transport for AsyncTcpTransport {
    fn n_devices(&self) -> usize {
        self.links.len()
    }

    fn is_alive(&self, dev: usize) -> bool {
        self.links[dev].alive.load(Ordering::SeqCst)
    }

    fn mark_dead(&self, dev: usize) {
        self.links[dev].step(|core| core.mark_dead());
    }

    fn submit(
        &self,
        dev: usize,
        job: TransportJob,
        reply: Sender<TransportReply>,
    ) -> Result<u64, SubmitError> {
        let link = &self.links[dev];
        if !link.alive.load(Ordering::SeqCst) {
            return Err(SubmitError::DeviceDown);
        }
        // Global in-flight cap: typed backpressure, fail fast. Unlike the
        // per-peer window (which the executor relies on to block), the
        // global cap protects the coordinator itself, so it never waits.
        if link.global.load(Ordering::SeqCst) >= self.cfg.global_max_in_flight {
            link.step(|core| core.note_backpressure());
            return Err(SubmitError::Backpressure);
        }
        // The socket always pays the full wire frame; quantization is only
        // applied when the hop crosses a device boundary, mirroring the
        // in-process semantics exactly (so B32 plans are bit-identical
        // across transports).
        let quant = if job.cross_boundary { job.quant } else { BitWidth::B32 };
        let mut tframe = wire::encode(&job.input, quant);
        if link.garble.load(Ordering::SeqCst) {
            // Injected link corruption: the worker's checksum catches it
            // and answers with a typed error — the real remote detection
            // path, not a local simulation.
            let mid = tframe.len() / 2;
            tframe[mid] ^= 0x5A;
        }
        let id = link.next_req.fetch_add(1, Ordering::SeqCst);
        let bytes = Arc::new(frame::encode_request(id, job.unit as u32, &tframe));
        let expires = job.deadline.map(|d| link.epoch.elapsed() + d);
        let reply = Reply { tx: reply, tag: job.tag, attempt: job.attempt };
        let mut core = lock(&link.core);
        // Bounded per-peer window; blocks briefly, never past peer death.
        loop {
            match core.admit() {
                Admit::Open => break,
                Admit::Down => return Err(SubmitError::DeviceDown),
                Admit::Full => {
                    core = wait(&link.cond, core, 50);
                }
            }
        }
        let inline = core.submit(id, Arc::clone(&bytes), expires, reply);
        link.global.fetch_add(1, Ordering::SeqCst);
        drop(core);
        // Inline write on the submitting thread (no driver handoff on the
        // hot path). A full outbox is typed backpressure; a dropped socket
        // leaves the request to the resend after reconnect.
        if inline && link.push(bytes) == PushOutcome::OverCap {
            if link.step(|core| core.withdraw(id)) {
                link.global.fetch_sub(1, Ordering::SeqCst);
                link.cond.notify_all();
            }
            return Err(SubmitError::Backpressure);
        }
        Ok(id)
    }

    fn cancel(&self, dev: usize, ticket: u64) {
        let link = &self.links[dev];
        if link.step(|core| core.cancel(ticket)) {
            link.global.fetch_sub(1, Ordering::SeqCst);
            link.cond.notify_all();
            let _ = link.push(Arc::new(frame::encode_frame(&Msg::Cancel { req_id: ticket })));
        }
    }

    fn kill_device(&self, dev: usize) {
        let link = &self.links[dev];
        link.fail(|core, fx| core.kill(fx));
        if let Some(h) = link.handle.get() {
            h.close();
        }
    }

    fn restart_device(&mut self, dev: usize) {
        let link = &self.links[dev];
        link.step(|core| core.restart());
        link.cond.notify_all();
        link.nudge();
    }

    fn set_wire_corruption(&self, dev: usize, on: bool) {
        self.links[dev].garble.store(on, Ordering::SeqCst);
    }

    fn link_rtt_ms(&self, dev: usize) -> Option<f64> {
        lock(&self.links[dev].core).rtt_ms()
    }

    fn send_gossip(&self, dev: usize, payload: &[u8]) -> bool {
        let Some(link) = self.links.get(dev) else {
            return false;
        };
        if lock(&link.core).halted() {
            return false;
        }
        let gossip = frame::encode_frame(&Msg::Gossip { payload: payload.to_vec() });
        matches!(link.push(Arc::new(gossip)), PushOutcome::Sent | PushOutcome::Queued)
    }

    fn drain_gossip(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for link in &self.links {
            lock(&link.core).take_gossip(&mut out);
        }
        out
    }

    fn stats(&self) -> TransportStats {
        let mut s = TransportStats::default();
        for link in &self.links {
            s.absorb(&lock(&link.core).stats());
        }
        s
    }

    fn shutdown(&mut self) {
        for link in &self.links {
            let deadline = Instant::now() + link.cfg.drain_timeout;
            let mut core = lock(&link.core);
            while !(core.idle() && link.outbox.lock().pending_bytes() == 0)
                && core.alive()
                && Instant::now() < deadline
            {
                core = wait(&link.cond, core, 20);
            }
        }
        for link in &self.links {
            link.step(|core| core.stop());
            link.cond.notify_all();
            link.nudge(); // the entity says goodbye and removes itself
        }
        std::thread::sleep(Duration::from_millis(10));
        for link in &self.links {
            link.fail(|core, fx| core.fail_all("transport shut down", fx));
            if let Some(h) = link.handle.get() {
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
