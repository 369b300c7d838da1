//! The worker side of the TCP transport. [`SwarmWorkerHost`] serves one to
//! thousands of logical workers from one [`crate::driver::DriverPool`]
//! plus one bounded compute pool — what makes an in-process 1 000-worker
//! swarm practical on a laptop-class machine; [`AsyncWorkerServer`] is its
//! one-worker façade, the shape a worker process (the CLI's `worker`) uses.
//!
//! # At-most-once semantics
//!
//! A coordinator that loses its connection mid-request resends the same
//! `(session, req_id)` after reconnecting. Each worker's bounded dedup map
//! keyed by that pair computes an **unknown** id, re-routes a **pending**
//! one's eventual response to the newest connection, and replays a
//! **done** one's cached body — the last two flagged `deduped`, neither
//! recomputed. Completed bodies are evicted oldest first past the
//! capacity; a long-lived pending entry cannot pin those behind it.
//! `Cancel` only stops still-queued work; `Vanish` stops the worker
//! silently like a process crash. Heartbeats are acked on the event loop,
//! never behind compute. Compute is serial *per worker* (FIFO), like the
//! in-process transport's one thread per device, so TCP and in-proc runs
//! schedule unit work identically.
//!
//! Accept-side storm control lives here: each worker's listener runs a
//! token-bucket [`crate::driver::Acceptor`] that *sheds* (typed, counted)
//! connections beyond a per-worker cap or the process fd budget, and
//! *pauses* accepting entirely when a reconnect stampede exceeds the
//! configured accept rate — refused coordinators retry through their own
//! jittered backoff, which is exactly the smearing the client side
//! implements.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::driver::{
    AcceptVerdict, Acceptor, ConnHandle, Ctx, Detach, DriverPool, Entity, Outbox, PushOutcome,
};
use crate::frame::{self, Msg};
use crate::poller;
use murmuration_core::executor::{UnitCompute, UnitOutcome};
use murmuration_core::gossip::{GossipMsg, GossipNode, MemberRecord};
use murmuration_core::wire;
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::Tensor;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Tuning for one [`AsyncWorkerServer`].
#[derive(Clone, Copy, Debug)]
pub struct WorkerConfig {
    /// Which device this worker is (passed to `run_unit_on` so fault
    /// injection and device-aware compute behave as in-process).
    pub dev_id: usize,
    /// Dedup map capacity (completed entries are evicted oldest first
    /// beyond it).
    pub dedup_capacity: usize,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig { dev_id: 0, dedup_capacity: 1024 }
    }
}

/// Host-level tuning: storm control and pool sizing.
#[derive(Clone, Copy, Debug)]
pub struct SwarmHostConfig {
    /// Dedup map capacity per worker (completed entries are evicted oldest
    /// first beyond it; see [`WorkerConfig::dedup_capacity`]).
    pub dedup_capacity: usize,
    /// Accepts per second each listener admits once its burst budget is
    /// spent (0 = unlimited). Beyond it the listener *pauses* — the
    /// kernel backlog plus client backoff absorb the stampede.
    pub accept_rate: u32,
    /// Token-bucket burst size per listener.
    pub accept_burst: u32,
    /// Live connections per worker beyond which new accepts are shed.
    pub max_conns_per_worker: usize,
    /// Keep this many fds spare below the rlimit; accepts that would dip
    /// into the reserve are shed.
    pub fd_margin: u64,
    /// Compute threads shared by all hosted workers (0 = core count).
    pub compute_threads: usize,
    /// Event-loop threads (0 = core count; always capped at cores).
    pub n_drivers: usize,
    /// Per-connection outbound byte cap.
    pub outbox_cap_bytes: usize,
}

impl Default for SwarmHostConfig {
    fn default() -> Self {
        SwarmHostConfig {
            dedup_capacity: 1024,
            accept_rate: 0,
            accept_burst: 64,
            max_conns_per_worker: 16,
            fd_margin: 64,
            compute_threads: 0,
            n_drivers: 0,
            outbox_cap_bytes: 64 << 20,
        }
    }
}

/// The response body once computed (B32 tensor frame or error string).
type Body = Result<Vec<u8>, String>;

/// A connection's outbound route: outbox for the bytes, handle to nudge
/// the driver when bytes stay queued. Cheap to clone and safe to hold
/// across a connection's death (sends just fail, and the coordinator's
/// resend re-routes through its next connection).
#[derive(Clone)]
struct ARoute {
    outbox: Arc<parking_lot::Mutex<Outbox>>,
    handle: ConnHandle,
}

impl ARoute {
    /// Best-effort frame send: a dead connection just means the
    /// coordinator will resend on its next one.
    fn send(&self, bytes: Arc<Vec<u8>>) {
        if matches!(self.outbox.lock().push(bytes), PushOutcome::Queued) {
            self.handle.nudge();
        }
    }
}

enum AEntry {
    /// Queued or computing; `route` is the newest connection's.
    Pending { route: ARoute, resent: bool },
    /// Cancelled while still queued; answered `"cancelled"` by compute.
    Cancelled { route: ARoute },
    /// Finished; cached for duplicate deliveries.
    Done { body: Body },
}

/// Bounded `(session, req_id)` dedup map; see [`ADedup::evict`].
struct ADedup {
    map: HashMap<(u64, u64), AEntry>,
    order: VecDeque<(u64, u64)>,
    cap: usize,
}

impl ADedup {
    /// Evicts oldest *completed* entries beyond capacity. Pending entries
    /// are never evicted (their count is bounded by the client's in-flight
    /// window).
    ///
    /// Eviction is FIFO from the order front, but it must not stop at a
    /// long-lived `Pending` head: a single stuck entry would otherwise
    /// pin every completed body queued behind it and the map would grow
    /// without bound for the life of the session. Past the capacity
    /// high-watermark, the sweep walks the whole order and drops the
    /// oldest `Done` entries wherever they sit.
    fn evict(&mut self) {
        while self.map.len() > self.cap {
            let Some(key) = self.order.front().copied() else { break };
            match self.map.get(&key) {
                Some(AEntry::Done { .. }) | None => {
                    self.order.pop_front();
                    self.map.remove(&key);
                }
                Some(AEntry::Pending { .. } | AEntry::Cancelled { .. }) => break,
            }
        }
        if self.map.len() > self.cap {
            let mut kept = VecDeque::with_capacity(self.order.len());
            for key in std::mem::take(&mut self.order) {
                match self.map.get(&key) {
                    Some(AEntry::Done { .. }) if self.map.len() > self.cap => {
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

struct AWorkItem {
    worker: usize,
    key: (u64, u64),
    unit: usize,
    input: Tensor,
}

/// One hosted worker's state (device identity, dedup, counters, live
/// connections for storm injection and teardown).
struct WorkerState {
    dev_id: usize,
    compute: Arc<dyn UnitCompute>,
    stop: AtomicBool,
    computed: AtomicU64,
    deduped: AtomicU64,
    cancelled: AtomicU64,
    dedup: Mutex<ADedup>,
    gossip: Mutex<Option<GossipNode>>,
    /// Live connections by driver token, for targeted close.
    conns: Mutex<HashMap<u64, ConnHandle>>,
    /// Listener handle, for teardown.
    listener: Mutex<Option<ConnHandle>>,
    addr: SocketAddr,
}

/// Host-wide accept token bucket. Shared across every listener: a
/// reconnect stampede hits the *process*, so the admission budget must
/// be global — a thousand per-listener buckets would admit a thousand
/// simultaneous accepts and defeat the point.
struct Bucket {
    tokens: f64,
    last: Instant,
}

struct HostShared {
    workers: Vec<Arc<WorkerState>>,
    cfg: SwarmHostConfig,
    stopping: AtomicBool,
    accepts_shed: AtomicU64,
    live_conns: AtomicU64,
    bucket: Mutex<Bucket>,
}

impl HostShared {
    fn shed(&self) {
        self.accepts_shed.fetch_add(1, Ordering::SeqCst);
    }

    /// Takes one accept token, or reports how long the caller's listener
    /// should pause until the bucket earns the next one.
    fn take_token(&self) -> Option<Duration> {
        let rate = self.cfg.accept_rate;
        if rate == 0 {
            return None;
        }
        let mut b = lock(&self.bucket);
        let now = Instant::now();
        let dt = now.duration_since(b.last).as_secs_f64();
        b.last = now;
        b.tokens = (b.tokens + dt * f64::from(rate)).min(f64::from(self.cfg.accept_burst.max(1)));
        if b.tokens < 1.0 {
            let wait_s = (1.0 - b.tokens) / f64::from(rate);
            Some(Duration::from_secs_f64(wait_s.clamp(0.001, 1.0)))
        } else {
            b.tokens -= 1.0;
            None
        }
    }
}

fn encode_response(req_id: u64, body: &Body, deduped: bool) -> Vec<u8> {
    match body {
        Ok(tframe) => frame::encode_response_ok(req_id, deduped, tframe),
        Err(msg) => frame::encode_frame(&Msg::ResponseErr { req_id, msg: msg.clone() }),
    }
}

// ---------------------------------------------------------------------------
// Connection entity
// ---------------------------------------------------------------------------

/// Protocol logic for one accepted coordinator connection.
struct WorkerConn {
    host: Arc<HostShared>,
    worker: Arc<WorkerState>,
    widx: usize,
    route: ARoute,
    session: u64,
    pool: Arc<ComputePool>,
}

impl WorkerConn {
    fn handle_request(&mut self, req_id: u64, unit: u32, tframe: &[u8]) {
        let key = (self.session, req_id);
        enum Action {
            Compute,
            Resend(Vec<u8>),
            None,
        }
        let action = {
            let mut d = lock(&self.worker.dedup);
            match d.map.get_mut(&key) {
                None => {
                    d.map.insert(key, AEntry::Pending { route: self.route.clone(), resent: false });
                    d.order.push_back(key);
                    d.evict();
                    Action::Compute
                }
                Some(AEntry::Pending { route, resent }) => {
                    *route = self.route.clone();
                    *resent = true;
                    self.worker.deduped.fetch_add(1, Ordering::SeqCst);
                    Action::None
                }
                Some(AEntry::Done { body }) => {
                    self.worker.deduped.fetch_add(1, Ordering::SeqCst);
                    Action::Resend(encode_response(req_id, body, true))
                }
                Some(AEntry::Cancelled { .. }) => Action::None,
            }
        };
        match action {
            Action::Compute => match wire::decode(tframe) {
                Ok(input) => {
                    self.pool.push(AWorkItem {
                        worker: self.widx,
                        key,
                        unit: unit as usize,
                        input,
                    });
                }
                Err(e) => {
                    let body: Body = Err(format!("request frame: {e}"));
                    let resp = encode_response(req_id, &body, false);
                    {
                        let mut d = lock(&self.worker.dedup);
                        if let Some(entry) = d.map.get_mut(&key) {
                            *entry = AEntry::Done { body };
                        }
                        d.evict();
                    }
                    self.route.send(Arc::new(resp));
                }
            },
            Action::Resend(resp) => self.route.send(Arc::new(resp)),
            Action::None => {}
        }
    }
}

impl Entity for WorkerConn {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if self.worker.stop.load(Ordering::SeqCst) || self.host.stopping.load(Ordering::SeqCst) {
            ctx.remove();
            return;
        }
        match msg {
            Msg::Hello { session, .. } => self.session = session,
            Msg::Heartbeat { nonce } => {
                // Acked on the event-loop path, never behind compute.
                let _ = ctx.send(Arc::new(frame::encode_frame(&Msg::HeartbeatAck { nonce })));
            }
            Msg::Request { req_id, unit, frame: tframe } => {
                self.handle_request(req_id, unit, &tframe);
            }
            Msg::Cancel { req_id } => {
                let mut d = lock(&self.worker.dedup);
                if let Some(entry @ AEntry::Pending { .. }) = d.map.get_mut(&(self.session, req_id))
                {
                    *entry = AEntry::Cancelled { route: self.route.clone() };
                }
            }
            Msg::Gossip { payload } => {
                let reply = {
                    let mut g = lock(&self.worker.gossip);
                    match (g.as_mut(), GossipMsg::decode(&payload)) {
                        (Some(node), Ok(msg)) => {
                            node.merge(&msg);
                            let _ = node.tick();
                            Some(node.digest().encode())
                        }
                        _ => None,
                    }
                };
                if let Some(bytes) = reply {
                    let _ =
                        ctx.send(Arc::new(frame::encode_frame(&Msg::Gossip { payload: bytes })));
                }
            }
            Msg::Goodbye => ctx.remove(),
            _ => {}
        }
    }

    fn on_nudge(&mut self, ctx: &mut Ctx<'_>) {
        if self.worker.stop.load(Ordering::SeqCst) || self.host.stopping.load(Ordering::SeqCst) {
            ctx.remove();
        }
    }

    fn on_detached(&mut self, ctx: &mut Ctx<'_>, _why: Detach) {
        // Server-side connections do not reconnect: unregister and go.
        lock(&self.worker.conns).remove(&ctx.token());
        self.host.live_conns.fetch_sub(1, Ordering::SeqCst);
        ctx.remove();
    }
}

// ---------------------------------------------------------------------------
// Accept policy
// ---------------------------------------------------------------------------

/// Storm control for one worker's listener (admission budget shared
/// host-wide through [`HostShared::take_token`]).
struct WorkerAcceptor {
    host: Arc<HostShared>,
    worker: Arc<WorkerState>,
    widx: usize,
    pool: Arc<ComputePool>,
}

impl Acceptor for WorkerAcceptor {
    fn accept(&mut self, _peer: SocketAddr) -> AcceptVerdict {
        if self.worker.stop.load(Ordering::SeqCst) || self.host.stopping.load(Ordering::SeqCst) {
            return AcceptVerdict::Shed;
        }
        // FD-budget guard: refuse into the rlimit reserve, typed + counted.
        if poller::approx_open_fds() + self.host.cfg.fd_margin >= poller::fd_budget() {
            self.host.shed();
            return AcceptVerdict::Shed;
        }
        // Per-worker connection cap.
        if lock(&self.worker.conns).len() >= self.host.cfg.max_conns_per_worker {
            self.host.shed();
            return AcceptVerdict::Shed;
        }
        // Bounded accept rate: out of tokens → shed this one and pause the
        // listener until the bucket earns the next token. The refused
        // coordinator retries through its jittered backoff — the stampede
        // smears instead of landing at once.
        if let Some(pause) = self.host.take_token() {
            self.host.shed();
            return AcceptVerdict::Pause(pause);
        }
        let host = Arc::clone(&self.host);
        let worker = Arc::clone(&self.worker);
        let widx = self.widx;
        let pool = Arc::clone(&self.pool);
        AcceptVerdict::Attach(Box::new(move |handle: ConnHandle| {
            let outbox = Arc::new(parking_lot::Mutex::new(Outbox::new(host.cfg.outbox_cap_bytes)));
            let route = ARoute { outbox: Arc::clone(&outbox), handle: handle.clone() };
            lock(&worker.conns).insert(handle.token(), handle);
            host.live_conns.fetch_add(1, Ordering::SeqCst);
            let entity = Box::new(WorkerConn { host, worker, widx, route, session: 0, pool });
            (entity as Box<dyn Entity>, outbox)
        }))
    }

    fn keep_open(&mut self) -> bool {
        !(self.worker.stop.load(Ordering::SeqCst) || self.host.stopping.load(Ordering::SeqCst))
    }
}

// ---------------------------------------------------------------------------
// Shared compute pool
// ---------------------------------------------------------------------------

/// Fixed thread pool executing unit work with per-worker FIFO serialism:
/// a worker index is scheduled on at most one thread at a time, so each
/// logical worker computes like one serial device, while a thousand
/// mostly-idle workers share a handful of real threads.
struct ComputePool {
    state: Mutex<CpState>,
    cond: Condvar,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

struct CpState {
    queues: Vec<VecDeque<AWorkItem>>,
    /// Worker indices with queued work, none of which is running.
    ready: VecDeque<usize>,
    /// Membership mirror of `ready` (O(1) dedup).
    enqueued: HashSet<usize>,
    /// Worker indices currently on a thread.
    running: HashSet<usize>,
    stop: bool,
}

impl ComputePool {
    fn new(n_workers: usize) -> Arc<ComputePool> {
        Arc::new(ComputePool {
            state: Mutex::new(CpState {
                queues: (0..n_workers).map(|_| VecDeque::new()).collect(),
                ready: VecDeque::new(),
                enqueued: HashSet::new(),
                running: HashSet::new(),
                stop: false,
            }),
            cond: Condvar::new(),
            handles: Mutex::new(Vec::new()),
        })
    }

    fn start(self: &Arc<Self>, threads: usize, host: &Arc<HostShared>) {
        for i in 0..threads.max(1) {
            let pool = Arc::clone(self);
            let host = Arc::clone(host);
            let spawned = std::thread::Builder::new()
                .name(format!("murmuration-swarm-cpu{i}"))
                .spawn(move || compute_thread(&pool, &host));
            if let Ok(h) = spawned {
                lock(&self.handles).push(h);
            }
        }
    }

    fn push(&self, item: AWorkItem) {
        let w = item.worker;
        let mut s = lock(&self.state);
        if s.stop || w >= s.queues.len() {
            return;
        }
        s.queues[w].push_back(item);
        if !s.running.contains(&w) && s.enqueued.insert(w) {
            s.ready.push_back(w);
            self.cond.notify_one();
        }
    }

    fn stop(&self) {
        lock(&self.state).stop = true;
        self.cond.notify_all();
        for h in lock(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

fn compute_thread(pool: &Arc<ComputePool>, host: &Arc<HostShared>) {
    loop {
        let item = {
            let mut s = lock(&pool.state);
            loop {
                if s.stop {
                    return;
                }
                if let Some(w) = s.ready.pop_front() {
                    s.enqueued.remove(&w);
                    if let Some(item) = s.queues[w].pop_front() {
                        s.running.insert(w);
                        break item;
                    }
                    continue;
                }
                match pool.cond.wait_timeout(s, Duration::from_millis(100)) {
                    Ok((guard, _)) => s = guard,
                    Err(poisoned) => s = poisoned.into_inner().0,
                }
            }
        };
        let w = item.worker;
        run_item(host, item);
        // Requeue the worker if more of its work arrived meanwhile.
        let mut s = lock(&pool.state);
        s.running.remove(&w);
        if !s.queues[w].is_empty() && s.enqueued.insert(w) {
            s.ready.push_back(w);
            pool.cond.notify_one();
        }
    }
}

/// One unit of work: skip it if cancelled while queued, else compute,
/// cache the body in the dedup map and answer on the newest route.
fn run_item(host: &Arc<HostShared>, item: AWorkItem) {
    let worker = &host.workers[item.worker];
    if worker.stop.load(Ordering::SeqCst) {
        return; // vanished worker: no replies, like a dead process
    }
    // Cancel that landed while queued: saved compute, answered typed.
    {
        let skip = {
            let mut d = lock(&worker.dedup);
            if let Some(AEntry::Cancelled { route }) = d.map.get(&item.key) {
                let route = route.clone();
                let body: Body = Err("cancelled".to_owned());
                let resp = encode_response(item.key.1, &body, false);
                d.map.insert(item.key, AEntry::Done { body });
                d.evict();
                worker.cancelled.fetch_add(1, Ordering::SeqCst);
                Some((route, resp))
            } else {
                None
            }
        };
        if let Some((route, resp)) = skip {
            route.send(Arc::new(resp));
            return;
        }
    }
    let dev = worker.dev_id;
    let outcome =
        catch_unwind(AssertUnwindSafe(|| worker.compute.run_unit_on(dev, item.unit, &item.input)));
    let body: Body = match outcome {
        Ok(UnitOutcome::Output(t)) => {
            worker.computed.fetch_add(1, Ordering::SeqCst);
            Ok(wire::encode(&t, BitWidth::B32))
        }
        Ok(UnitOutcome::Error(msg)) => Err(msg),
        Ok(UnitOutcome::Vanish) => {
            // Simulated crash: this worker stops silently — listener
            // closed, connections dropped, no reply for this item.
            stop_worker(worker);
            return;
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_owned());
            Err(msg)
        }
    };
    // Encode under the dedup lock (duplicate deliveries racing in must
    // not observe Pending after the route is chosen).
    let sent = {
        let mut d = lock(&worker.dedup);
        let Some(entry) = d.map.get_mut(&item.key) else { return };
        let (route, resent) = match entry {
            AEntry::Pending { route, resent } => (route.clone(), *resent),
            AEntry::Cancelled { route } => (route.clone(), false),
            AEntry::Done { .. } => return,
        };
        let resp = encode_response(item.key.1, &body, resent);
        *entry = AEntry::Done { body };
        d.evict();
        Some((route, resp))
    };
    if let Some((route, resp)) = sent {
        route.send(Arc::new(resp));
    }
}

/// Stops one hosted worker: listener closed, connections dropped. What a
/// crashed worker process looks like from the coordinator.
fn stop_worker(worker: &Arc<WorkerState>) {
    worker.stop.store(true, Ordering::SeqCst);
    if let Some(h) = lock(&worker.listener).as_ref() {
        h.nudge(); // acceptor reports keep_open = false → listener closes
    }
    let conns: Vec<ConnHandle> = lock(&worker.conns).values().cloned().collect();
    for h in conns {
        h.close();
    }
}

// ---------------------------------------------------------------------------
// The swarm host
// ---------------------------------------------------------------------------

/// Hosts `n` logical workers — each with its own listener, device id,
/// dedup map, and gossip slot — on one driver pool and one compute pool.
pub struct SwarmWorkerHost {
    host: Arc<HostShared>,
    pool: Arc<DriverPool>,
    compute_pool: Arc<ComputePool>,
}

impl SwarmWorkerHost {
    /// Binds `n_workers` ephemeral listeners on `127.0.0.1` and serves
    /// `make_compute(i)` behind each (with device id `i`).
    pub fn bind(
        n_workers: usize,
        make_compute: &dyn Fn(usize) -> Arc<dyn UnitCompute>,
        cfg: SwarmHostConfig,
    ) -> std::io::Result<SwarmWorkerHost> {
        Self::bind_at("127.0.0.1:0", n_workers, make_compute, cfg)
    }

    /// Like [`bind`](Self::bind) with an explicit bind pattern (the CLI's
    /// `--listen`). With more than one worker the pattern must carry port
    /// 0 — each listener needs its own port.
    pub fn bind_at(
        bind_addr: &str,
        n_workers: usize,
        make_compute: &dyn Fn(usize) -> Arc<dyn UnitCompute>,
        cfg: SwarmHostConfig,
    ) -> std::io::Result<SwarmWorkerHost> {
        assert!(n_workers > 0, "need at least one worker");
        let n_drivers =
            if cfg.n_drivers == 0 { crate::driver::available_cores() } else { cfg.n_drivers };
        let pool = DriverPool::new(n_drivers)?;
        let mut workers = Vec::with_capacity(n_workers);
        let mut listeners = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let listener = TcpListener::bind(bind_addr)?;
            let addr = listener.local_addr()?;
            workers.push(Arc::new(WorkerState {
                dev_id: i,
                compute: make_compute(i),
                stop: AtomicBool::new(false),
                computed: AtomicU64::new(0),
                deduped: AtomicU64::new(0),
                cancelled: AtomicU64::new(0),
                dedup: Mutex::new(ADedup {
                    map: HashMap::new(),
                    order: VecDeque::new(),
                    cap: cfg.dedup_capacity.max(1),
                }),
                gossip: Mutex::new(None),
                conns: Mutex::new(HashMap::new()),
                listener: Mutex::new(None),
                addr,
            }));
            listeners.push(listener);
        }
        let host = Arc::new(HostShared {
            workers,
            cfg,
            stopping: AtomicBool::new(false),
            accepts_shed: AtomicU64::new(0),
            live_conns: AtomicU64::new(0),
            bucket: Mutex::new(Bucket {
                tokens: f64::from(cfg.accept_burst.max(1)),
                last: Instant::now(),
            }),
        });
        let compute_pool = ComputePool::new(n_workers);
        let threads = if cfg.compute_threads == 0 {
            crate::driver::available_cores()
        } else {
            cfg.compute_threads
        };
        compute_pool.start(threads, &host);
        for (i, listener) in listeners.into_iter().enumerate() {
            let acceptor = Box::new(WorkerAcceptor {
                host: Arc::clone(&host),
                worker: Arc::clone(&host.workers[i]),
                widx: i,
                pool: Arc::clone(&compute_pool),
            });
            let handle = pool.spawn_listener(listener, acceptor)?;
            *lock(&host.workers[i].listener) = Some(handle);
        }
        Ok(SwarmWorkerHost { host, pool, compute_pool })
    }

    /// Worker `w`'s bound address.
    pub fn addr(&self, w: usize) -> SocketAddr {
        self.host.workers[w].addr
    }

    /// All worker addresses, in device order.
    pub fn addrs(&self) -> Vec<String> {
        self.host.workers.iter().map(|w| w.addr.to_string()).collect()
    }

    /// Number of hosted workers.
    pub fn n_workers(&self) -> usize {
        self.host.workers.len()
    }

    /// Event-loop threads serving the whole fleet (≤ core count).
    pub fn n_driver_threads(&self) -> usize {
        self.pool.n_drivers()
    }

    /// Units computed by worker `w` (dedup hits excluded).
    pub fn computed(&self, w: usize) -> u64 {
        self.host.workers[w].computed.load(Ordering::SeqCst)
    }

    /// Total units computed across the fleet.
    pub fn computed_total(&self) -> u64 {
        self.host.workers.iter().map(|w| w.computed.load(Ordering::SeqCst)).sum()
    }

    /// Total duplicate deliveries served from dedup maps.
    pub fn deduped_total(&self) -> u64 {
        self.host.workers.iter().map(|w| w.deduped.load(Ordering::SeqCst)).sum()
    }

    /// Total jobs dropped unrun by a timely cancel.
    pub fn cancelled_total(&self) -> u64 {
        self.host.workers.iter().map(|w| w.cancelled.load(Ordering::SeqCst)).sum()
    }

    /// Connections refused by storm control (rate, cap, or fd budget).
    pub fn accepts_shed(&self) -> u64 {
        self.host.accepts_shed.load(Ordering::SeqCst)
    }

    /// Currently attached connections across the fleet.
    pub fn live_conns(&self) -> u64 {
        self.host.live_conns.load(Ordering::SeqCst)
    }

    /// Dedup map population of worker `w` (bound assertion hook).
    pub fn dedup_len(&self, w: usize) -> usize {
        lock(&self.host.workers[w].dedup).map.len()
    }

    /// Attaches a gossip participant to worker `w`.
    pub fn attach_gossip(&self, w: usize, node: GossipNode) {
        *lock(&self.host.workers[w].gossip) = Some(node);
    }

    /// Worker `w`'s gossip membership snapshot.
    pub fn gossip_members(&self, w: usize) -> Vec<MemberRecord> {
        lock(&self.host.workers[w].gossip).as_ref().map(GossipNode::members).unwrap_or_default()
    }

    /// Whether worker `w` has stopped (externally or via `Vanish`).
    pub fn is_stopped(&self, w: usize) -> bool {
        self.host.workers[w].stop.load(Ordering::SeqCst)
    }

    /// Stops worker `w` like a process crash (listener + connections).
    pub fn stop_worker(&self, w: usize) {
        stop_worker(&self.host.workers[w]);
    }

    /// Storm injection: severs approximately `fraction` of the fleet's
    /// live connections simultaneously (deterministic under `seed`).
    /// Returns how many were dropped. The workers stay up — this is a
    /// *network* event, and the coordinators' smeared reconnects plus
    /// resend dedup must carry every in-flight request through it.
    pub fn drop_connections(&self, fraction: f64, seed: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dropped = 0usize;
        for w in &self.host.workers {
            let conns: Vec<(u64, ConnHandle)> = {
                let mut entries: Vec<(u64, ConnHandle)> =
                    lock(&w.conns).iter().map(|(t, h)| (*t, h.clone())).collect();
                entries.sort_by_key(|(t, _)| *t);
                entries
            };
            for (_t, h) in conns {
                if rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                    h.close();
                    dropped += 1;
                }
            }
        }
        dropped
    }

    /// Stops everything: listeners, connections, compute, drivers.
    /// Idempotent.
    pub fn stop(&mut self) {
        if self.host.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        for w in &self.host.workers {
            stop_worker(w);
        }
        self.compute_pool.stop();
        self.pool.stop();
    }
}

impl Drop for SwarmWorkerHost {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Single-worker façade
// ---------------------------------------------------------------------------

/// One worker process's serving half: a [`SwarmWorkerHost`] of one, on one
/// event-loop thread and one compute thread, serving until
/// [`stop`](Self::stop) or a simulated crash ([`UnitOutcome::Vanish`]).
pub struct AsyncWorkerServer {
    host: SwarmWorkerHost,
}

impl AsyncWorkerServer {
    /// Binds a listener on `addr` (use port 0 for an ephemeral port; the
    /// resolved one is reported by [`local_addr`](Self::local_addr)) and
    /// serves `compute`, answering as `cfg.dev_id`.
    pub fn bind(
        addr: &str,
        compute: Arc<dyn UnitCompute>,
        cfg: WorkerConfig,
    ) -> std::io::Result<AsyncWorkerServer> {
        let host_cfg = SwarmHostConfig {
            dedup_capacity: cfg.dedup_capacity,
            n_drivers: 1,
            compute_threads: 1,
            ..SwarmHostConfig::default()
        };
        let dev = cfg.dev_id;
        let host = SwarmWorkerHost::bind_at(
            addr,
            1,
            &move |_i| {
                Arc::new(DevRemap { inner: Arc::clone(&compute), dev }) as Arc<dyn UnitCompute>
            },
            host_cfg,
        )?;
        Ok(AsyncWorkerServer { host })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.host.addr(0)
    }

    /// Units actually computed (dedup hits excluded).
    pub fn computed(&self) -> u64 {
        self.host.computed(0)
    }

    /// Duplicate deliveries served from the dedup map.
    pub fn deduped(&self) -> u64 {
        self.host.deduped_total()
    }

    /// Jobs dropped unrun because a cancel arrived while queued.
    pub fn cancelled(&self) -> u64 {
        self.host.cancelled_total()
    }

    /// Current dedup-map population (pending + cached bodies). Bounded by
    /// `dedup_capacity` plus the in-flight window; exposed so tests can
    /// assert the bound over long request streams.
    pub fn dedup_len(&self) -> usize {
        self.host.dedup_len(0)
    }

    /// Whether the server has stopped.
    pub fn is_stopped(&self) -> bool {
        self.host.is_stopped(0)
    }

    /// Attaches a gossip participant.
    pub fn attach_gossip(&self, node: GossipNode) {
        self.host.attach_gossip(0, node);
    }

    /// Gossip membership snapshot.
    pub fn gossip_members(&self) -> Vec<MemberRecord> {
        self.host.gossip_members(0)
    }

    /// Stops serving. Idempotent.
    pub fn stop(&mut self) {
        self.host.stop();
    }

    /// Blocks until stopped (CLI serving mode).
    pub fn run_until_stopped(&self) {
        while !self.is_stopped() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// Routes `run_unit_on` through a fixed device id, so a lone hosted
/// worker (host index 0) answers as its configured device.
struct DevRemap {
    inner: Arc<dyn UnitCompute>,
    dev: usize,
}

impl UnitCompute for DevRemap {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }
    fn run_unit(&self, unit: usize, input: &Tensor) -> Tensor {
        self.inner.run_unit(unit, input)
    }
    fn run_unit_on(&self, _dev: usize, unit: usize, input: &Tensor) -> UnitOutcome {
        self.inner.run_unit_on(self.dev, unit, input)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::aclient::{AsyncTcpTransport, TcpTransportConfig};
    use crossbeam::channel::unbounded;
    use murmuration_core::transport::{Transport, TransportJob};
    use murmuration_tensor::Shape;

    /// A connection entity that never connects.
    struct Inert;
    impl Entity for Inert {}

    /// An inert route: routes are only written on response, and this test
    /// never sends one.
    fn test_route(pool: &DriverPool) -> ARoute {
        let outbox = Arc::new(parking_lot::Mutex::new(Outbox::new(1 << 20)));
        let handle = pool.spawn_conn(Box::new(Inert), Arc::clone(&outbox));
        ARoute { outbox, handle }
    }

    /// Regression: a single long-lived `Pending` at the FIFO front must
    /// not pin completed bodies behind it. An evictor that stopped at the
    /// first in-flight head grew a 10k-request stream's map to 10k
    /// entries; the high-watermark sweep keeps it at capacity (+ the one
    /// stuck entry).
    #[test]
    fn dedup_sweep_bounds_map_behind_stuck_pending() {
        let cap = 64;
        let mut d = ADedup { map: HashMap::new(), order: VecDeque::new(), cap };
        let pool = DriverPool::new(1).unwrap();
        let route = test_route(&pool);
        // Request 0 never completes (its worker compute is stuck).
        d.map.insert((1, 0), AEntry::Pending { route: route.clone(), resent: false });
        d.order.push_back((1, 0));
        for i in 1..=10_000u64 {
            let key = (1, i);
            // Delivery: insert Pending + insert-time eviction, exactly as
            // `WorkerConn::handle_request` does.
            d.map.insert(key, AEntry::Pending { route: route.clone(), resent: false });
            d.order.push_back(key);
            d.evict();
            // Completion: body cached + completion-time eviction, as
            // `run_item` does.
            if let Some(e) = d.map.get_mut(&key) {
                *e = AEntry::Done { body: Ok(Vec::new()) };
            }
            d.evict();
            assert!(
                d.map.len() <= cap + 1,
                "dedup map must stay bounded behind a stuck head: {} entries at request {i}",
                d.map.len()
            );
            assert_eq!(d.map.len(), d.order.len(), "order deque must track the map");
        }
        // The stuck entry survived the sweeps, still pending.
        assert!(matches!(d.map.get(&(1, 0)), Some(AEntry::Pending { .. })));
        // The freshest completed bodies are the ones retained.
        assert!(matches!(d.map.get(&(1, 10_000)), Some(AEntry::Done { .. })));
        pool.stop();
    }

    struct EchoCompute;
    impl UnitCompute for EchoCompute {
        fn n_units(&self) -> usize {
            1
        }
        fn run_unit(&self, _unit: usize, input: &Tensor) -> Tensor {
            input.clone()
        }
    }

    /// End-to-end bound: a sustained request stream over the real wire
    /// path keeps the worker's dedup map at its configured capacity.
    #[test]
    fn worker_dedup_stays_bounded_over_stream() {
        let cap = 128;
        let mut srv = AsyncWorkerServer::bind(
            "127.0.0.1:0",
            Arc::new(EchoCompute),
            WorkerConfig { dedup_capacity: cap, ..WorkerConfig::default() },
        )
        .unwrap();
        let transport = AsyncTcpTransport::connect(
            &[srv.local_addr().to_string()],
            TcpTransportConfig::default(),
        );
        assert!(transport.wait_connected(Duration::from_secs(10)));
        let input = Arc::new(Tensor::zeros(Shape::nchw(1, 1, 2, 2)));
        let (reply_tx, reply_rx) = unbounded();
        for i in 0..2_000usize {
            transport
                .submit(
                    0,
                    TransportJob {
                        unit: 0,
                        input: Arc::clone(&input),
                        quant: BitWidth::B32,
                        cross_boundary: false,
                        tag: i,
                        attempt: 1,
                        deadline: Some(Duration::from_secs(10)),
                    },
                    reply_tx.clone(),
                )
                .unwrap();
            let reply = reply_rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(reply.tag, i);
            assert!(reply.result.is_ok());
            assert!(
                srv.dedup_len() <= cap + 1,
                "dedup map exceeded its bound mid-stream: {}",
                srv.dedup_len()
            );
        }
        drop(transport);
        srv.stop();
    }
}
