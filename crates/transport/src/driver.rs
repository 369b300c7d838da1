//! The readiness-based event-loop driver behind the async transport.
//!
//! A [`DriverPool`] owns a small, fixed set of driver threads (at most the
//! machine's core count — never one-thread-per-connection). Each driver
//! runs one [`crate::poller::Poller`] event loop over many *entities*:
//!
//! * **connections** — one non-blocking socket, one epoll registration,
//!   incremental frame reassembly ([`crate::frame::FrameAssembler`]) on
//!   the read side and a write-interest-driven [`Outbox`] on the write
//!   side;
//! * **listeners** — accept-side storm control: an [`Acceptor`] policy
//!   decides per accepted socket whether to attach it, shed it (typed
//!   rejection), or pause accepting entirely for a bounded interval.
//!
//! Protocol logic stays out of this module: an [`Entity`] implementation
//! (the async client's peer, the async worker's connection) receives
//! decoded messages, timer fires, and lifecycle events through a
//! [`Ctx`], and reacts by queueing frames, arming timers, or asking for
//! a (re)connect. Connect attempts run on a tiny blocking connector pool
//! so a slow TCP handshake can never stall an event loop.
//!
//! # Write path
//!
//! The [`Outbox`] is shared between the driver and submitting threads
//! (`Arc<Mutex<_>>`): a submitter pushes its frame and opportunistically
//! flushes inline — zero driver involvement while the socket accepts
//! writes, so the request hot path pays no thread hand-off. Only when the
//! kernel buffer fills does the residue stay queued, the driver gets
//! nudged, and write-interest-driven flushing takes over. The queue is
//! byte-capped: a slow peer surfaces as typed backpressure, never as
//! unbounded coordinator memory.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::frame::{FrameAssembler, Msg};
use crate::poller::{Event, Poller, Token, Waker};
use parking_lot::Mutex;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Timer kind reserved by the driver for resuming a paused listener.
const KIND_LISTENER_RESUME: u32 = u32::MAX;
/// Per-connection read quota per loop turn, so one firehose connection
/// cannot starve a thousand quiet ones sharing the driver.
const READ_QUOTA: usize = 256 * 1024;
/// Scratch read-buffer size.
const SCRATCH: usize = 64 * 1024;
/// Per-connection outbound byte cap; overflow is typed backpressure,
/// never unbounded memory.
pub const OUTBOX_CAP_BYTES: usize = 64 << 20;

/// Why a connection's socket was detached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Detach {
    /// Clean EOF from the peer.
    Eof,
    /// Socket-level read/write failure.
    Io,
    /// Corrupt outer frame: the stream is out of sync, connection-fatal.
    Corrupt,
    /// The entity (or its owner) asked for the close.
    Local,
    /// The driver is shutting down.
    Shutdown,
}

/// Typed outcome of pushing a frame into an [`Outbox`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// Fully written to the socket inline.
    Sent,
    /// Queued (fully or partially); the driver must flush on writability.
    Queued,
    /// No live socket; nothing was queued (callers requeue at a higher
    /// level — the client keeps requests in its in-flight map).
    NoConn,
    /// The byte cap would be exceeded: typed backpressure, frame dropped.
    OverCap,
}

/// Bounded, write-interest-driven outbound frame queue. Shared between
/// the driver (flush on writability, detach on close) and submitting
/// threads (inline push + flush) — the mutex serializes socket writes so
/// frames never interleave mid-stream.
pub struct Outbox {
    stream: Option<TcpStream>,
    queue: VecDeque<Arc<Vec<u8>>>,
    head_off: usize,
    queued_bytes: usize,
    cap_bytes: usize,
    broken: bool,
}

impl Outbox {
    /// An outbox with the given byte cap and no socket yet.
    pub fn new(cap_bytes: usize) -> Outbox {
        Outbox {
            stream: None,
            queue: VecDeque::new(),
            head_off: 0,
            queued_bytes: 0,
            cap_bytes,
            broken: false,
        }
    }

    fn attach(&mut self, stream: TcpStream) {
        self.stream = Some(stream);
        self.broken = false;
        self.queue.clear();
        self.head_off = 0;
        self.queued_bytes = 0;
    }

    fn detach(&mut self) {
        self.stream = None;
        self.queue.clear();
        self.head_off = 0;
        self.queued_bytes = 0;
    }

    /// Bytes waiting for the socket.
    pub fn pending_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Queues one frame and flushes as much as the socket accepts.
    pub fn push(&mut self, frame: Arc<Vec<u8>>) -> PushOutcome {
        if self.broken || self.stream.is_none() {
            return PushOutcome::NoConn;
        }
        if self.queued_bytes + frame.len() > self.cap_bytes && !self.queue.is_empty() {
            return PushOutcome::OverCap;
        }
        self.queued_bytes += frame.len();
        self.queue.push_back(frame);
        match self.flush() {
            FlushState::Drained => PushOutcome::Sent,
            FlushState::Pending => PushOutcome::Queued,
            FlushState::Broken => PushOutcome::NoConn,
        }
    }

    /// Writes queued bytes until drained or `WouldBlock`.
    fn flush(&mut self) -> FlushState {
        let Some(stream) = self.stream.as_mut() else {
            return FlushState::Broken;
        };
        if self.broken {
            return FlushState::Broken;
        }
        while let Some(head) = self.queue.front() {
            match stream.write(&head[self.head_off..]) {
                Ok(0) => {
                    self.broken = true;
                    return FlushState::Broken;
                }
                Ok(n) => {
                    self.head_off += n;
                    self.queued_bytes -= n;
                    if self.head_off == head.len() {
                        self.queue.pop_front();
                        self.head_off = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushState::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.broken = true;
                    return FlushState::Broken;
                }
            }
        }
        FlushState::Drained
    }
}

enum FlushState {
    Drained,
    Pending,
    Broken,
}

/// Protocol logic for one driver entity. All callbacks run on the
/// driver thread; heavy work must be handed off (the async worker ships
/// compute to a separate bounded pool).
pub trait Entity: Send {
    /// A socket is attached and registered (connect completed or the
    /// entity was spawned around an accepted socket).
    fn on_attached(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }
    /// An asynchronous connect attempt failed.
    fn on_connect_failed(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }
    /// One decoded frame arrived.
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let _ = (ctx, msg);
    }
    /// A timer armed via [`Ctx::timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, kind: u32) {
        let _ = (ctx, kind);
    }
    /// An external nudge arrived (state may have changed: new outbound
    /// bytes, a stop flag, an admin transition). Must be idempotent.
    fn on_nudge(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }
    /// The socket was detached (the entity itself persists and may ask
    /// for a reconnect via [`Ctx::connect`] or [`Ctx::timer`]).
    fn on_detached(&mut self, ctx: &mut Ctx<'_>, why: Detach) {
        let _ = (ctx, why);
    }
}

/// Accept-side storm-control policy for one listener.
pub trait Acceptor: Send {
    /// Called per accepted socket. `Shed` drops it (typed rejection —
    /// the policy counts it); `Pause` drops it *and* stops accepting for
    /// the interval (bounded accept rate under a connection storm).
    fn accept(&mut self, peer: SocketAddr) -> AcceptVerdict;
    /// Polled on nudges and resume timers; `false` closes the listener.
    fn keep_open(&mut self) -> bool {
        true
    }
}

/// Constructor for an accepted connection's entity: receives the
/// freshly-minted [`ConnHandle`] (so out-of-driver threads — e.g. a
/// compute pool finishing a response — can nudge the driver later) and
/// returns the entity plus its byte-capped outbox.
pub type AttachFn = Box<dyn FnOnce(ConnHandle) -> (Box<dyn Entity>, Arc<Mutex<Outbox>>) + Send>;

/// What to do with one accepted socket.
pub enum AcceptVerdict {
    /// Attach it: build the entity around its driver handle.
    Attach(AttachFn),
    /// Refuse it (over the connection cap / fd budget): typed rejection.
    Shed,
    /// Refuse it and stop accepting for the interval (rate limiting).
    Pause(Duration),
}

struct ConnectReq {
    token: Token,
    addr: String,
    timeout: Duration,
    reply: Arc<CmdQueue>,
}

enum Cmd {
    AddConnEntity { token: Token, entity: Box<dyn Entity>, outbox: Arc<Mutex<Outbox>> },
    AddListener { token: Token, listener: TcpListener, acceptor: Box<dyn Acceptor> },
    Connected { token: Token, result: io::Result<TcpStream> },
    Nudge(Token),
    Close(Token),
    Remove(Token),
    Shutdown,
}

struct CmdQueue {
    q: Mutex<VecDeque<Cmd>>,
    waker: Waker,
}

impl CmdQueue {
    fn push(&self, cmd: Cmd) {
        self.q.lock().push_back(cmd);
        self.waker.wake();
    }
}

/// Handle to one entity (or listener) living on a driver thread.
#[derive(Clone)]
pub struct ConnHandle {
    cmds: Arc<CmdQueue>,
    token: Token,
}

impl ConnHandle {
    /// This entity's driver token.
    pub fn token(&self) -> Token {
        self.token
    }

    /// Wakes the driver to re-evaluate this entity (flush its outbox,
    /// observe a stop flag, …).
    pub fn nudge(&self) {
        self.cmds.push(Cmd::Nudge(self.token));
    }

    /// Detaches the entity's socket (the entity persists).
    pub fn close(&self) {
        self.cmds.push(Cmd::Close(self.token));
    }

    /// Detaches and removes the entity entirely.
    pub fn remove(&self) {
        self.cmds.push(Cmd::Remove(self.token));
    }
}

/// Driver-side per-connection state.
struct ConnState {
    stream: Option<TcpStream>,
    asm: FrameAssembler,
    outbox: Arc<Mutex<Outbox>>,
    /// Interests currently registered with the poller.
    registered: Option<(bool, bool)>,
    connect_pending: bool,
}

struct ListenerState {
    listener: TcpListener,
    acceptor: Box<dyn Acceptor>,
    registered: bool,
}

enum Entry {
    Conn { conn: ConnState, entity: Box<dyn Entity> },
    Listener(ListenerState),
}

/// What a callback asked the driver to do once it returns.
#[derive(Default)]
struct Actions {
    detach: Option<Detach>,
    remove: bool,
    connect: Option<(String, Duration)>,
    timers: Vec<(Duration, u32)>,
}

/// The driver-side context handed to every [`Entity`] callback.
pub struct Ctx<'a> {
    token: Token,
    outbox: &'a Arc<Mutex<Outbox>>,
    now: Instant,
    actions: &'a mut Actions,
}

impl Ctx<'_> {
    /// This entity's token.
    pub fn token(&self) -> Token {
        self.token
    }

    /// A stable "now" for the current callback batch.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Queues a frame on this connection (inline flush included).
    pub fn send(&mut self, frame: Arc<Vec<u8>>) -> PushOutcome {
        self.outbox.lock().push(frame)
    }

    /// Arms a timer: `on_timer(kind)` fires after `delay`.
    pub fn timer(&mut self, delay: Duration, kind: u32) {
        self.actions.timers.push((delay, kind));
    }

    /// Starts an asynchronous connect to `addr`; exactly one of
    /// `on_attached` / `on_connect_failed` follows.
    pub fn connect(&mut self, addr: &str, timeout: Duration) {
        self.actions.connect = Some((addr.to_owned(), timeout));
    }

    /// Detaches the socket after this callback returns.
    pub fn close(&mut self) {
        self.actions.detach.get_or_insert(Detach::Local);
    }

    /// Detaches and removes this entity after this callback returns.
    pub fn remove(&mut self) {
        self.actions.detach.get_or_insert(Detach::Local);
        self.actions.remove = true;
    }
}

/// A fixed-size pool of event-loop driver threads plus a small blocking
/// connector pool. Entities are distributed round-robin at spawn time.
pub struct DriverPool {
    drivers: Vec<Arc<CmdQueue>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    connect_tx: Mutex<Option<crossbeam::channel::Sender<ConnectReq>>>,
    connector_handles: Mutex<Vec<JoinHandle<()>>>,
    next_token: AtomicU64,
    stopped: AtomicBool,
    n_drivers: usize,
}

/// Core count the driver pool is bounded by.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

impl DriverPool {
    /// Spawns `n_drivers` event-loop threads (clamped to `1..=cores`) and
    /// two blocking connector threads.
    pub fn new(n_drivers: usize) -> io::Result<Arc<DriverPool>> {
        let n = n_drivers.clamp(1, available_cores());
        let (connect_tx, connect_rx) = crossbeam::channel::unbounded::<ConnectReq>();
        let mut drivers = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let poller = Poller::new()?;
            let cmds = Arc::new(CmdQueue { q: Mutex::new(VecDeque::new()), waker: poller.waker() });
            let thread_cmds = Arc::clone(&cmds);
            let thread_tx = connect_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("murmuration-drv{i}"))
                .spawn(move || drive(poller, &thread_cmds, thread_tx))
                .map_err(io::Error::other)?;
            drivers.push(cmds);
            handles.push(handle);
        }
        // The vendored channel is mpsc; two connector threads share the
        // receiver behind a mutex (pickup serializes, the blocking
        // connects themselves overlap).
        let connect_rx = Arc::new(Mutex::new(connect_rx));
        let mut connector_handles = Vec::with_capacity(2);
        for i in 0..2 {
            let rx = Arc::clone(&connect_rx);
            let handle = std::thread::Builder::new()
                .name(format!("murmuration-connect{i}"))
                .spawn(move || loop {
                    let req = {
                        let guard = rx.lock();
                        guard.recv()
                    };
                    let Ok(req) = req else { break };
                    let result = resolve(&req.addr)
                        .and_then(|sa| TcpStream::connect_timeout(&sa, req.timeout));
                    req.reply.push(Cmd::Connected { token: req.token, result });
                })
                .map_err(io::Error::other)?;
            connector_handles.push(handle);
        }
        Ok(Arc::new(DriverPool {
            drivers,
            handles: Mutex::new(handles),
            connect_tx: Mutex::new(Some(connect_tx)),
            connector_handles: Mutex::new(connector_handles),
            next_token: AtomicU64::new(1),
            stopped: AtomicBool::new(false),
            n_drivers: n,
        }))
    }

    /// Number of event-loop threads (≤ cores by construction).
    pub fn n_drivers(&self) -> usize {
        self.n_drivers
    }

    fn assign(&self) -> (Token, &Arc<CmdQueue>) {
        let token = self.next_token.fetch_add(1, Ordering::SeqCst);
        (token, &self.drivers[(token as usize) % self.drivers.len()])
    }

    /// Spawns a connection entity with no socket yet; the driver calls
    /// `on_nudge` once so it can start its connect state machine.
    pub fn spawn_conn(&self, entity: Box<dyn Entity>, outbox: Arc<Mutex<Outbox>>) -> ConnHandle {
        let (token, cmds) = self.assign();
        cmds.push(Cmd::AddConnEntity { token, entity, outbox });
        cmds.push(Cmd::Nudge(token));
        ConnHandle { cmds: Arc::clone(cmds), token }
    }

    /// Registers a listener under the given accept policy.
    pub fn spawn_listener(
        &self,
        listener: TcpListener,
        acceptor: Box<dyn Acceptor>,
    ) -> io::Result<ConnHandle> {
        listener.set_nonblocking(true)?;
        let (token, cmds) = self.assign();
        cmds.push(Cmd::AddListener { token, listener, acceptor });
        Ok(ConnHandle { cmds: Arc::clone(cmds), token })
    }

    /// Stops every driver and connector thread; idempotent.
    pub fn stop(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        for cmds in &self.drivers {
            cmds.push(Cmd::Shutdown);
        }
        *self.connect_tx.lock() = None;
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
        for h in self.connector_handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for DriverPool {
    fn drop(&mut self) {
        self.stop();
    }
}

fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::AddrNotAvailable, "no address resolved"))
}

/// One driver thread: poll, drain commands, fire timers, serve sockets.
struct Driver<'p> {
    poller: Poller,
    cmds: &'p Arc<CmdQueue>,
    entries: HashMap<Token, Entry>,
    /// `(deadline, seq, token, kind)` min-heap with lazy invalidation
    /// (timers for removed tokens are skipped on pop).
    timers: BinaryHeap<std::cmp::Reverse<(Instant, u64, Token, u32)>>,
    timer_seq: u64,
    scratch: Vec<u8>,
    /// Connections touched this turn, whose write interest must be
    /// reconciled. Keeping this sparse is what makes idle CPU flat: a
    /// quiet fleet contributes zero per-turn work per connection.
    dirty: std::collections::HashSet<Token>,
    /// This pool's blocking connector.
    connect_tx: crossbeam::channel::Sender<ConnectReq>,
    running: bool,
}

fn drive(poller: Poller, cmds: &Arc<CmdQueue>, connect_tx: crossbeam::channel::Sender<ConnectReq>) {
    let mut d = Driver {
        poller,
        cmds,
        entries: HashMap::new(),
        timers: BinaryHeap::new(),
        timer_seq: 0,
        scratch: vec![0u8; SCRATCH],
        dirty: std::collections::HashSet::new(),
        connect_tx,
        running: true,
    };
    let mut events: Vec<Event> = Vec::with_capacity(256);
    while d.running {
        let timeout = d.next_timeout();
        events.clear();
        if d.poller.wait(&mut events, timeout).is_err() {
            // A failed poll is unrecoverable for this driver; bail so the
            // process does not spin. Entities see detached sockets.
            break;
        }
        d.drain_cmds();
        d.fire_timers();
        for ev in &events {
            d.handle_event(*ev);
        }
        d.sync_interests();
    }
    d.shutdown_all();
}

impl Driver<'_> {
    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        match self.timers.peek() {
            Some(std::cmp::Reverse((at, _, _, _))) => {
                Some(at.saturating_duration_since(now).min(Duration::from_millis(500)))
            }
            None => Some(Duration::from_millis(500)),
        }
    }

    fn arm_timer(&mut self, token: Token, delay: Duration, kind: u32) {
        self.timer_seq += 1;
        self.timers.push(std::cmp::Reverse((Instant::now() + delay, self.timer_seq, token, kind)));
    }

    fn drain_cmds(&mut self) {
        loop {
            let cmd = self.cmds.q.lock().pop_front();
            let Some(cmd) = cmd else { break };
            match cmd {
                Cmd::AddConnEntity { token, entity, outbox } => {
                    let conn = ConnState {
                        stream: None,
                        asm: FrameAssembler::new(),
                        outbox,
                        registered: None,
                        connect_pending: false,
                    };
                    self.entries.insert(token, Entry::Conn { conn, entity });
                }
                Cmd::AddListener { token, listener, acceptor } => {
                    let ok = self.poller.register(listener.as_raw_fd(), token, true, false).is_ok();
                    self.entries.insert(
                        token,
                        Entry::Listener(ListenerState { listener, acceptor, registered: ok }),
                    );
                }
                Cmd::Connected { token, result } => {
                    let pending = match self.entries.get_mut(&token) {
                        Some(Entry::Conn { conn, .. }) => {
                            conn.connect_pending = false;
                            true
                        }
                        _ => false,
                    };
                    if !pending {
                        continue; // entity vanished; drop the socket
                    }
                    match result {
                        Ok(stream) => self.attach_stream(token, stream),
                        Err(_) => self.dispatch(token, |e, ctx| e.on_connect_failed(ctx)),
                    }
                }
                Cmd::Nudge(token) => self.nudge(token),
                Cmd::Close(token) => self.detach(token, Detach::Local),
                Cmd::Remove(token) => {
                    self.detach(token, Detach::Local);
                    self.remove_entry(token);
                }
                Cmd::Shutdown => self.running = false,
            }
        }
    }

    fn nudge(&mut self, token: Token) {
        match self.entries.get_mut(&token) {
            Some(Entry::Conn { .. }) => {
                self.dispatch(token, |e, ctx| e.on_nudge(ctx));
                // A nudge often means "new outbound bytes": flush now so
                // write interest reflects reality.
                self.flush_conn(token);
            }
            Some(Entry::Listener(l)) => {
                let keep = l.acceptor.keep_open();
                if !keep {
                    let fd = l.listener.as_raw_fd();
                    if l.registered {
                        self.poller.deregister(fd);
                    }
                    self.entries.remove(&token);
                }
            }
            None => {}
        }
    }

    fn attach_stream(&mut self, token: Token, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        let write_half = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => {
                let _ = stream.shutdown(Shutdown::Both);
                self.dispatch(token, |e, ctx| e.on_connect_failed(ctx));
                return;
            }
        };
        let Some(Entry::Conn { conn, .. }) = self.entries.get_mut(&token) else {
            return;
        };
        if self.poller.register(stream.as_raw_fd(), token, true, false).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            self.dispatch(token, |e, ctx| e.on_connect_failed(ctx));
            return;
        }
        conn.registered = Some((true, false));
        conn.asm = FrameAssembler::new();
        conn.outbox.lock().attach(write_half);
        conn.stream = Some(stream);
        self.dispatch(token, |e, ctx| e.on_attached(ctx));
        self.flush_conn(token);
    }

    /// Runs one entity callback with a [`Ctx`], then applies whatever the
    /// callback asked for (timers, connects, close/remove).
    fn dispatch<F: FnOnce(&mut Box<dyn Entity>, &mut Ctx<'_>)>(&mut self, token: Token, f: F) {
        let Some(Entry::Conn { conn, mut entity }) = self.entries.remove(&token) else {
            return;
        };
        let mut actions = Actions::default();
        {
            let mut ctx =
                Ctx { token, outbox: &conn.outbox, now: Instant::now(), actions: &mut actions };
            f(&mut entity, &mut ctx);
        }
        self.entries.insert(token, Entry::Conn { conn, entity });
        self.dirty.insert(token);
        self.apply_actions(token, actions);
    }

    fn apply_actions(&mut self, token: Token, actions: Actions) {
        for (delay, kind) in actions.timers {
            self.arm_timer(token, delay, kind);
        }
        if let Some((addr, timeout)) = actions.connect {
            self.start_connect(token, addr, timeout);
        }
        if let Some(why) = actions.detach {
            self.detach(token, why);
        }
        if actions.remove {
            self.remove_entry(token);
        }
    }

    fn start_connect(&mut self, token: Token, addr: String, timeout: Duration) {
        let already = match self.entries.get_mut(&token) {
            Some(Entry::Conn { conn, .. }) => {
                if conn.connect_pending || conn.stream.is_some() {
                    true
                } else {
                    conn.connect_pending = true;
                    false
                }
            }
            _ => return,
        };
        if already {
            return;
        }
        let sent = self
            .connect_tx
            .send(ConnectReq { token, addr, timeout, reply: Arc::clone(self.cmds) })
            .is_ok();
        if !sent {
            // No connector (pool stopping): fail the attempt promptly.
            if let Some(Entry::Conn { conn, .. }) = self.entries.get_mut(&token) {
                conn.connect_pending = false;
            }
            self.dispatch(token, |e, ctx| e.on_connect_failed(ctx));
        }
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        loop {
            match self.timers.peek() {
                Some(std::cmp::Reverse((at, _, _, _))) if *at <= now => {}
                _ => break,
            }
            let Some(std::cmp::Reverse((_, _, token, kind))) = self.timers.pop() else {
                break;
            };
            if kind == KIND_LISTENER_RESUME {
                if let Some(Entry::Listener(l)) = self.entries.get_mut(&token) {
                    if l.acceptor.keep_open() {
                        if !l.registered {
                            l.registered = self
                                .poller
                                .register(l.listener.as_raw_fd(), token, true, false)
                                .is_ok();
                        }
                    } else {
                        let fd = l.listener.as_raw_fd();
                        if l.registered {
                            self.poller.deregister(fd);
                        }
                        self.entries.remove(&token);
                    }
                }
                continue;
            }
            self.dispatch(token, |e, ctx| e.on_timer(ctx, kind));
            self.flush_conn(token);
        }
    }

    fn handle_event(&mut self, ev: Event) {
        match self.entries.get_mut(&ev.token) {
            Some(Entry::Listener(_)) => self.serve_accepts(ev.token),
            Some(Entry::Conn { .. }) => {
                if ev.readable || ev.error {
                    self.serve_read(ev.token, ev.error);
                }
                if ev.writable {
                    self.flush_conn(ev.token);
                }
            }
            None => {}
        }
    }

    fn serve_accepts(&mut self, token: Token) {
        // Accept in bounded batches; the policy may shed or pause.
        for _ in 0..64 {
            let accepted = match self.entries.get_mut(&token) {
                Some(Entry::Listener(l)) => match l.listener.accept() {
                    Ok((stream, peer)) => Some((stream, peer)),
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(_) => None,
                },
                _ => None,
            };
            let Some((stream, peer)) = accepted else { break };
            let verdict = match self.entries.get_mut(&token) {
                Some(Entry::Listener(l)) => l.acceptor.accept(peer),
                _ => break,
            };
            match verdict {
                AcceptVerdict::Attach(make) => {
                    // Accepted connections live on this driver; the token
                    // comes from a process-wide counter so it can never
                    // collide with pool-assigned tokens.
                    let new_token = GLOBAL_TOKENS.fetch_add(1, Ordering::SeqCst);
                    let handle = ConnHandle { cmds: Arc::clone(self.cmds), token: new_token };
                    let (entity, outbox) = make(handle);
                    let conn = ConnState {
                        stream: None,
                        asm: FrameAssembler::new(),
                        outbox,
                        registered: None,
                        connect_pending: false,
                    };
                    self.entries.insert(new_token, Entry::Conn { conn, entity });
                    self.attach_stream(new_token, stream);
                }
                AcceptVerdict::Shed => {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                AcceptVerdict::Pause(dur) => {
                    let _ = stream.shutdown(Shutdown::Both);
                    if let Some(Entry::Listener(l)) = self.entries.get_mut(&token) {
                        if l.registered {
                            self.poller.deregister(l.listener.as_raw_fd());
                            l.registered = false;
                        }
                    }
                    self.arm_timer(token, dur, KIND_LISTENER_RESUME);
                    break;
                }
            }
        }
    }

    fn serve_read(&mut self, token: Token, error_hint: bool) {
        let mut read_total = 0usize;
        loop {
            let outcome = {
                let Some(Entry::Conn { conn, .. }) = self.entries.get_mut(&token) else {
                    return;
                };
                let Some(stream) = conn.stream.as_mut() else { return };
                match conn.asm.read_from(stream, &mut self.scratch) {
                    Ok(0) => ReadOutcome::Closed(Detach::Eof),
                    Ok(n) => {
                        read_total += n;
                        ReadOutcome::Progress
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => ReadOutcome::Idle,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => ReadOutcome::Progress,
                    Err(_) => ReadOutcome::Closed(Detach::Io),
                }
            };
            // Dispatch every complete frame before deciding fate: bytes
            // that arrived before an EOF/corruption still count.
            loop {
                let msg = {
                    let Some(Entry::Conn { conn, .. }) = self.entries.get_mut(&token) else {
                        return;
                    };
                    conn.asm.next_frame()
                };
                match msg {
                    Ok(Some(m)) => self.dispatch(token, |e, ctx| e.on_msg(ctx, m)),
                    Ok(None) => break,
                    Err(_) => {
                        self.detach(token, Detach::Corrupt);
                        return;
                    }
                }
            }
            match outcome {
                ReadOutcome::Closed(why) => {
                    self.detach(token, why);
                    return;
                }
                ReadOutcome::Idle => break,
                ReadOutcome::Progress => {
                    if read_total >= READ_QUOTA {
                        break; // fairness: give other connections a turn
                    }
                }
            }
        }
        if error_hint {
            // Error-only readiness (no bytes, no EOF): treat as dead.
            let still_idle = match self.entries.get_mut(&token) {
                Some(Entry::Conn { conn, .. }) => conn.stream.is_some() && read_total == 0,
                _ => false,
            };
            if still_idle {
                self.detach(token, Detach::Io);
            }
        }
    }

    /// Flushes a connection's outbox and reconciles write interest.
    fn flush_conn(&mut self, token: Token) {
        self.dirty.insert(token);
        let broken = {
            let Some(Entry::Conn { conn, .. }) = self.entries.get_mut(&token) else {
                return;
            };
            if conn.stream.is_none() {
                return;
            }
            let mut ob = conn.outbox.lock();
            matches!(ob.flush(), FlushState::Broken)
        };
        if broken {
            self.detach(token, Detach::Io);
        }
    }

    /// Reconciles poller write interest with outbox state for every
    /// connection touched this turn. Cheap: interests only change on
    /// transition (empty↔non-empty queue).
    fn sync_interests(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let tokens: Vec<Token> = self.dirty.drain().collect();
        for token in tokens {
            let Some(Entry::Conn { conn, .. }) = self.entries.get_mut(&token) else {
                continue;
            };
            let (Some(stream), Some(current)) = (&conn.stream, conn.registered) else {
                continue;
            };
            let want_write = conn.outbox.lock().pending_bytes() > 0;
            let want = (true, want_write);
            if want != current {
                let fd = stream.as_raw_fd();
                if self.poller.reregister(fd, token, want.0, want.1).is_ok() {
                    conn.registered = Some(want);
                }
            }
        }
    }

    fn detach(&mut self, token: Token, why: Detach) {
        let had_stream = {
            let Some(Entry::Conn { conn, .. }) = self.entries.get_mut(&token) else {
                return;
            };
            match conn.stream.take() {
                Some(stream) => {
                    self.poller.deregister(stream.as_raw_fd());
                    let _ = stream.shutdown(Shutdown::Both);
                    conn.outbox.lock().detach();
                    conn.registered = None;
                    conn.asm = FrameAssembler::new();
                    true
                }
                None => {
                    // A broken outbox can exist without a read half only
                    // transiently; still reset it.
                    conn.outbox.lock().detach();
                    false
                }
            }
        };
        if had_stream {
            self.dispatch(token, |e, ctx| e.on_detached(ctx, why));
        }
    }

    fn remove_entry(&mut self, token: Token) {
        match self.entries.remove(&token) {
            Some(Entry::Conn { conn, .. }) => {
                if let Some(stream) = conn.stream {
                    self.poller.deregister(stream.as_raw_fd());
                    let _ = stream.shutdown(Shutdown::Both);
                    conn.outbox.lock().detach();
                }
            }
            Some(Entry::Listener(l)) if l.registered => {
                self.poller.deregister(l.listener.as_raw_fd());
            }
            _ => {}
        }
    }

    fn shutdown_all(&mut self) {
        let tokens: Vec<Token> = self.entries.keys().copied().collect();
        for token in tokens {
            self.detach(token, Detach::Shutdown);
            self.remove_entry(token);
        }
    }
}

enum ReadOutcome {
    Progress,
    Idle,
    Closed(Detach),
}

/// Process-wide token counter shared by pools and accept paths so tokens
/// never collide across drivers.
static GLOBAL_TOKENS: AtomicU64 = AtomicU64::new(1_000_000);
