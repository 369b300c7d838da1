//! The worker side of the TCP transport. [`SwarmWorkerHost`] serves one to
//! thousands of logical workers from one [`crate::driver::DriverPool`]
//! plus one bounded compute pool; [`AsyncWorkerServer`] is its one-worker
//! façade, the shape a worker process (the CLI's `worker`) uses.
//!
//! Each worker's at-most-once dedup is a [`crate::proto::Jobs`] behind one
//! mutex: a resent `(session, req_id)` is re-routed or replayed, never
//! recomputed. `Cancel` only stops still-queued work; `Vanish` stops the
//! worker silently like a process crash. Heartbeats are acked on the event
//! loop, never behind compute. Compute is serial *per worker* (FIFO), like
//! the in-process transport's one thread per device, so TCP and in-proc
//! runs schedule unit work identically.
//!
//! Storm control: a listener *sheds* (typed, counted) accepts beyond a
//! per-worker cap or the fd budget, and *pauses* when a stampede drains the
//! host-wide token bucket; refused coordinators retry on their backoff.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::driver::{
    AcceptVerdict, Acceptor, ConnHandle, Ctx, Detach, DriverPool, Entity, Outbox, PushOutcome,
    OUTBOX_CAP_BYTES,
};
use crate::frame::{self, Msg};
use crate::proto::{Answer, Delivery, Jobs};
use crate::{lock, poller, wait};
use murmuration_core::executor::{run_guarded, UnitCompute, UnitOutcome};
use murmuration_core::gossip::{GossipMsg, GossipNode, MemberRecord};
use murmuration_core::wire;
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::Tensor;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for one [`AsyncWorkerServer`].
#[derive(Clone, Copy, Debug)]
pub struct WorkerConfig {
    /// Which device this worker is (passed to `run_unit_on` so fault
    /// injection and device-aware compute behave as in-process).
    pub dev_id: usize,
    /// Dedup map capacity (finished entries evicted oldest first past it).
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
    /// Dedup map capacity per worker; see [`WorkerConfig::dedup_capacity`].
    pub dedup_capacity: usize,
    /// Accepts per second once the burst is spent (0 = unlimited); beyond
    /// it listeners *pause*, and backlog plus client backoff absorb it.
    pub accept_rate: u32,
    /// Token-bucket burst size per listener.
    pub accept_burst: u32,
    /// Live connections per worker beyond which new accepts are shed.
    pub max_conns_per_worker: usize,
    /// Compute threads shared by all hosted workers (0 = core count).
    pub compute_threads: usize,
    /// Event-loop threads (0 = core count; always capped at cores).
    pub n_drivers: usize,
}

impl Default for SwarmHostConfig {
    fn default() -> Self {
        SwarmHostConfig {
            dedup_capacity: 1024,
            accept_rate: 0,
            accept_burst: 64,
            max_conns_per_worker: 16,
            compute_threads: 0,
            n_drivers: 0,
        }
    }
}

/// A connection's outbound route, cheap to clone and safe to hold past the
/// connection's death (sends fail; the coordinator's resend re-routes).
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

struct AWorkItem {
    worker: usize,
    key: (u64, u64),
    unit: usize,
    input: Tensor,
}

/// One hosted worker: identity, dedup map, gossip slot, live connections.
struct WorkerState {
    dev_id: usize,
    compute: Arc<dyn UnitCompute>,
    stop: AtomicBool,
    jobs: Mutex<Jobs<ARoute>>,
    gossip: Mutex<Option<GossipNode>>,
    /// Live connections by driver token, for targeted close.
    conns: Mutex<HashMap<u64, ConnHandle>>,
    /// Listener handle, for teardown.
    listener: Mutex<Option<ConnHandle>>,
    addr: SocketAddr,
}

/// Host-wide accept token bucket: a stampede hits the *process*, and a
/// thousand per-listener buckets would admit a thousand accepts at once.
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

/// Protocol logic for one accepted coordinator connection.
struct WorkerConn {
    host: Arc<HostShared>,
    worker: Arc<WorkerState>,
    widx: usize,
    route: ARoute,
    session: u64,
    pool: Arc<ComputePool>,
}

impl Entity for WorkerConn {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if self.worker.stop.load(Ordering::SeqCst) {
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
                let key = (self.session, req_id);
                let delivery = lock(&self.worker.jobs).deliver(key, &self.route);
                match delivery {
                    Delivery::Compute => match wire::decode(&tframe) {
                        Ok(input) => {
                            let unit = unit as usize;
                            self.pool.push(AWorkItem { worker: self.widx, key, unit, input });
                        }
                        Err(e) => {
                            let body = Err(format!("request frame: {e}"));
                            let sent = lock(&self.worker.jobs).finish(key, body);
                            if let Some((route, resp)) = sent {
                                route.send(resp);
                            }
                        }
                    },
                    Delivery::Replay(resp) => self.route.send(resp),
                    Delivery::Held => {}
                }
            }
            Msg::Cancel { req_id } => {
                lock(&self.worker.jobs).cancel((self.session, req_id), &self.route);
            }
            Msg::Gossip { payload } => {
                let mut gossip = lock(&self.worker.gossip);
                if let (Some(node), Ok(msg)) = (gossip.as_mut(), GossipMsg::decode(&payload)) {
                    node.merge(&msg);
                    let _ = node.tick();
                    let payload = node.digest().encode();
                    drop(gossip);
                    let _ = ctx.send(Arc::new(frame::encode_frame(&Msg::Gossip { payload })));
                }
            }
            Msg::Goodbye => ctx.remove(),
            _ => {}
        }
    }

    fn on_nudge(&mut self, ctx: &mut Ctx<'_>) {
        if self.worker.stop.load(Ordering::SeqCst) {
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

/// Storm control for one worker's listener.
#[derive(Clone)]
struct WorkerAcceptor {
    host: Arc<HostShared>,
    worker: Arc<WorkerState>,
    widx: usize,
    pool: Arc<ComputePool>,
}

impl Acceptor for WorkerAcceptor {
    fn accept(&mut self, _peer: SocketAddr) -> AcceptVerdict {
        if self.worker.stop.load(Ordering::SeqCst) {
            return AcceptVerdict::Shed;
        }
        // Shed (typed, counted) into the fd reserve or past the per-worker
        // cap; out of tokens, also pause the listener until the bucket earns
        // the next one — the refused coordinator's jittered backoff smears
        // the stampede.
        let full = poller::near_fd_limit()
            || lock(&self.worker.conns).len() >= self.host.cfg.max_conns_per_worker;
        let pause = if full { None } else { self.host.take_token() };
        if full || pause.is_some() {
            self.host.accepts_shed.fetch_add(1, Ordering::SeqCst);
            return pause.map_or(AcceptVerdict::Shed, AcceptVerdict::Pause);
        }
        let WorkerAcceptor { host, worker, widx, pool } = self.clone();
        AcceptVerdict::Attach(Box::new(move |handle: ConnHandle| {
            let outbox = Arc::new(parking_lot::Mutex::new(Outbox::new(OUTBOX_CAP_BYTES)));
            let route = ARoute { outbox: Arc::clone(&outbox), handle: handle.clone() };
            lock(&worker.conns).insert(handle.token(), handle);
            host.live_conns.fetch_add(1, Ordering::SeqCst);
            let entity = Box::new(WorkerConn { host, worker, widx, route, session: 0, pool });
            (entity as Box<dyn Entity>, outbox)
        }))
    }

    fn keep_open(&mut self) -> bool {
        !(self.worker.stop.load(Ordering::SeqCst))
    }
}

/// Fixed compute threads with per-worker FIFO turns: each logical worker
/// computes like one serial device, a thousand share a handful of threads.
struct ComputePool {
    state: Mutex<CpState>,
    cond: Condvar,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

struct CpState {
    queues: Vec<VecDeque<AWorkItem>>,
    /// Worker indices whose turn is due, each with queued work.
    ready: VecDeque<usize>,
    /// Workers in `ready` or on a thread: at most one turn each.
    scheduled: HashSet<usize>,
    stop: bool,
}

impl ComputePool {
    fn start(threads: usize, host: &Arc<HostShared>) -> Arc<ComputePool> {
        let pool = Arc::new(ComputePool {
            state: Mutex::new(CpState {
                queues: host.workers.iter().map(|_| VecDeque::new()).collect(),
                ready: VecDeque::new(),
                scheduled: HashSet::new(),
                stop: false,
            }),
            cond: Condvar::new(),
            handles: Mutex::new(Vec::new()),
        });
        for i in 0..threads.max(1) {
            let (thread_pool, host) = (Arc::clone(&pool), Arc::clone(host));
            let spawned = std::thread::Builder::new()
                .name(format!("murmuration-swarm-cpu{i}"))
                .spawn(move || compute_thread(&thread_pool, &host));
            if let Ok(h) = spawned {
                lock(&pool.handles).push(h);
            }
        }
        pool
    }

    fn push(&self, item: AWorkItem) {
        let w = item.worker;
        let mut s = lock(&self.state);
        if s.stop || w >= s.queues.len() {
            return;
        }
        s.queues[w].push_back(item);
        if s.scheduled.insert(w) {
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
                if let Some(item) = s.ready.pop_front().and_then(|w| s.queues[w].pop_front()) {
                    break item;
                }
                s = wait(&pool.cond, s, 100);
            }
        };
        let w = item.worker;
        run_item(host, item);
        // Another turn if more of its work arrived meanwhile.
        let mut s = lock(&pool.state);
        if s.queues[w].is_empty() {
            s.scheduled.remove(&w);
        } else {
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
    let skipped = lock(&worker.jobs).start(item.key);
    if let Some((route, resp)) = skipped {
        route.send(resp);
        return;
    }
    let body = match run_guarded(&*worker.compute, worker.dev_id, item.unit, &item.input) {
        UnitOutcome::Output(t) => Ok(wire::encode(&t, BitWidth::B32)),
        UnitOutcome::Error(msg) => Err(msg),
        UnitOutcome::Vanish => {
            // Simulated crash: this worker stops silently — listener
            // closed, connections dropped, no reply for this item.
            stop_worker(worker);
            return;
        }
    };
    // Encoded before the dedup lock (the body's one copy, into the frame
    // the cache and the outbox then share) and routed under it: a duplicate
    // racing in must not see the entry pending after its route was chosen.
    let answer = Answer::encode(item.key.1, &body);
    let sent = lock(&worker.jobs).finish(item.key, answer);
    if let Some((route, resp)) = sent {
        route.send(resp);
    }
}

/// Stops one hosted worker: listener closed, connections dropped. What a
/// crashed worker process looks like from the coordinator.
fn stop_worker(worker: &Arc<WorkerState>) {
    worker.stop.store(true, Ordering::SeqCst);
    if let Some(h) = lock(&worker.listener).as_ref() {
        h.nudge(); // acceptor reports keep_open = false → listener closes
    }
    for h in lock(&worker.conns).values() {
        h.close(); // only queues a driver command
    }
}

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
        Self::bind_at("127.0.0.1:0", 0..n_workers, make_compute, cfg)
    }

    /// Like [`bind`](Self::bind) with an explicit bind pattern, serving
    /// devices `devs`. With more than one worker the pattern must carry
    /// port 0 — each listener needs its own port.
    fn bind_at(
        bind_addr: &str,
        devs: std::ops::Range<usize>,
        make_compute: &dyn Fn(usize) -> Arc<dyn UnitCompute>,
        cfg: SwarmHostConfig,
    ) -> std::io::Result<SwarmWorkerHost> {
        let n_workers = devs.len();
        assert!(n_workers > 0, "need at least one worker");
        let n_drivers =
            if cfg.n_drivers == 0 { crate::driver::available_cores() } else { cfg.n_drivers };
        let pool = DriverPool::new(n_drivers)?;
        let mut workers = Vec::with_capacity(n_workers);
        let mut listeners = Vec::with_capacity(n_workers);
        for dev_id in devs {
            let listener = TcpListener::bind(bind_addr)?;
            let addr = listener.local_addr()?;
            workers.push(Arc::new(WorkerState {
                dev_id,
                compute: make_compute(dev_id),
                stop: AtomicBool::new(false),
                jobs: Mutex::new(Jobs::new(cfg.dedup_capacity)),
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
        let cores = crate::driver::available_cores();
        let threads = if cfg.compute_threads == 0 { cores } else { cfg.compute_threads };
        let compute_pool = ComputePool::start(threads, &host);
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

    /// All worker addresses, in device order.
    pub fn addrs(&self) -> Vec<String> {
        self.host.workers.iter().map(|w| w.addr.to_string()).collect()
    }

    /// Event-loop threads serving the whole fleet (≤ core count).
    pub fn n_driver_threads(&self) -> usize {
        self.pool.n_drivers()
    }

    /// Total units computed across the fleet (dedup hits excluded).
    pub fn computed_total(&self) -> u64 {
        self.host.workers.iter().map(|w| lock(&w.jobs).counts().computed).sum()
    }

    /// Total duplicate deliveries served from dedup maps.
    pub fn deduped_total(&self) -> u64 {
        self.host.workers.iter().map(|w| lock(&w.jobs).counts().deduped).sum()
    }

    /// Connections refused by storm control (rate, cap, or fd budget).
    pub fn accepts_shed(&self) -> u64 {
        self.host.accepts_shed.load(Ordering::SeqCst)
    }

    /// Currently attached connections across the fleet.
    pub fn live_conns(&self) -> u64 {
        self.host.live_conns.load(Ordering::SeqCst)
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
            let mut conns: Vec<(u64, ConnHandle)> =
                lock(&w.conns).iter().map(|(t, h)| (*t, h.clone())).collect();
            conns.sort_by_key(|(t, _)| *t);
            for (_, h) in conns {
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
        let devs = cfg.dev_id..cfg.dev_id + 1;
        let host = SwarmWorkerHost::bind_at(addr, devs, &|_| Arc::clone(&compute), host_cfg)?;
        Ok(AsyncWorkerServer { host })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.worker().addr
    }

    /// Units actually computed (dedup hits excluded).
    pub fn computed(&self) -> u64 {
        lock(&self.worker().jobs).counts().computed
    }

    /// Duplicate deliveries served from the dedup map.
    pub fn deduped(&self) -> u64 {
        lock(&self.worker().jobs).counts().deduped
    }

    /// Whether the server has stopped (externally or via `Vanish`).
    pub fn is_stopped(&self) -> bool {
        self.worker().stop.load(Ordering::SeqCst)
    }

    /// Attaches a gossip participant.
    pub fn attach_gossip(&self, node: GossipNode) {
        *lock(&self.worker().gossip) = Some(node);
    }

    /// Gossip membership snapshot.
    pub fn gossip_members(&self) -> Vec<MemberRecord> {
        lock(&self.worker().gossip).as_ref().map(GossipNode::members).unwrap_or_default()
    }

    /// Stops serving. Idempotent.
    pub fn stop(&mut self) {
        self.host.stop();
    }

    fn worker(&self) -> &WorkerState {
        &self.host.host.workers[0]
    }

    /// Blocks until stopped (CLI serving mode).
    pub fn run_until_stopped(&self) {
        while !self.is_stopped() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}
