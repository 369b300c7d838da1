//! A deterministic, seeded chaos TCP proxy for socket-level fault
//! injection.
//!
//! [`ChaosProxy`] sits between a coordinator and one worker, forwarding
//! outer frames while injecting trouble per its seeded RNG: extra delay,
//! dropped frames, corrupted payload bytes, reordered frames, duplicated
//! frames (exact replays of a complete frame), and — on demand — a full
//! partition (existing connections die, new ones are refused until
//! healed). The proxy is *frame-aware*: it reads complete
//! outer frames off one side before forwarding, so a "drop" loses exactly
//! one message (like a lost datagram inside the stream), a "corrupt" flips
//! a payload byte under an intact header (so the receiver's checksum — not
//! the proxy — detects it), and a "reorder" swaps two adjacent frames.
//!
//! Determinism: each pump direction gets its own `StdRng` derived from the
//! config seed and a per-connection counter, so a test replays the same
//! chaos schedule every run.

use crate::frame::{check32, CRC_COVER, HEADER_BYTES, MAX_PAYLOAD};
use crate::lock;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which pump direction an asymmetric fault applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosDirection {
    /// Coordinator → worker frames (requests).
    ClientToServer,
    /// Worker → coordinator frames (responses).
    ServerToClient,
}

/// Chaos schedule knobs. All probabilities are per forwarded frame.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// RNG seed: same seed, same chaos schedule.
    pub seed: u64,
    /// Probability of delaying a frame by [`delay`](Self::delay).
    pub delay_prob: f64,
    /// Added latency when a delay fires.
    pub delay: Duration,
    /// Probability of dropping a frame entirely.
    pub drop_prob: f64,
    /// Probability of flipping one payload byte (header left intact, so
    /// the receiver's checksum catches it).
    pub corrupt_prob: f64,
    /// Probability of holding a frame back and sending it after the next
    /// one (adjacent reorder).
    pub reorder_prob: f64,
    /// Probability of *duplicating* a frame: the complete frame is
    /// replayed [`dup_copies`](Self::dup_copies) extra times back to back.
    /// A replayed request exercises the worker's `(session, req_id)` dedup
    /// map; a replayed response is swallowed by the coordinator's
    /// single-settle bookkeeping; replayed gossip is absorbed by
    /// idempotent merge. Exactly-once must survive all three.
    pub dup_prob: f64,
    /// Extra copies sent when a duplication fires (≥ 1 to have any
    /// effect).
    pub dup_copies: u32,
    /// Asymmetric slow link: when set, *every* frame in the given
    /// direction is delayed — a browning-out uplink rather than random
    /// loss. The other direction flows at full speed, which is exactly the
    /// gray failure a binary health check misses.
    pub slow_dir: Option<ChaosDirection>,
    /// Per-frame delay at full ramp in slow-link mode.
    pub slow_delay: Duration,
    /// Seeded uniform jitter added on top of [`slow_delay`](Self::slow_delay).
    pub slow_jitter: Duration,
    /// Ramp-up window: the slow-link delay scales linearly from 0 to full
    /// over this long after the proxy starts (0 = instant brownout).
    pub slow_ramp: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 7,
            delay_prob: 0.0,
            delay: Duration::from_millis(0),
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            reorder_prob: 0.0,
            dup_prob: 0.0,
            dup_copies: 1,
            slow_dir: None,
            slow_delay: Duration::from_millis(0),
            slow_jitter: Duration::from_millis(0),
            slow_ramp: Duration::from_millis(0),
        }
    }
}

struct ProxyShared {
    upstream: SocketAddr,
    cfg: ChaosConfig,
    partitioned: AtomicBool,
    stop: AtomicBool,
    conn_counter: AtomicU64,
    /// Proxy start time: the slow-link ramp is measured from here.
    started: Instant,
    /// Sockets of live proxied connections, for partition teardown.
    socks: Mutex<Vec<TcpStream>>,
}

impl ProxyShared {
    fn kill_connections(&self) {
        let socks: Vec<TcpStream> = lock(&self.socks).drain(..).collect();
        for s in socks {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// The proxy handle; dropping it stops the proxy.
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept_handle: Option<JoinHandle<()>>,
    pump_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral local port forwarding to `upstream`.
    pub fn start(upstream: SocketAddr, cfg: ChaosConfig) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            upstream,
            cfg,
            partitioned: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            conn_counter: AtomicU64::new(0),
            started: Instant::now(),
            socks: Mutex::new(Vec::new()),
        });
        let pump_handles = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_pumps = Arc::clone(&pump_handles);
        let accept_handle = std::thread::Builder::new()
            .name("murmuration-chaos-accept".to_owned())
            .spawn(move || accept_loop(&accept_shared, listener, &accept_pumps))
            .map_err(std::io::Error::other)?;
        Ok(ChaosProxy { addr, shared, accept_handle: Some(accept_handle), pump_handles })
    }

    /// Address coordinators should connect to instead of the worker.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Full partition: existing connections are killed and new ones are
    /// refused until [`heal`](Self::heal).
    pub fn partition(&self) {
        self.shared.partitioned.store(true, Ordering::SeqCst);
        self.shared.kill_connections();
    }

    /// Ends a partition: new connections flow again.
    pub fn heal(&self) {
        self.shared.partitioned.store(false, Ordering::SeqCst);
    }

    /// One-shot connection kill *without* a partition: the very next
    /// reconnect succeeds. Exercises the resend/dedup path.
    pub fn break_connections(&self) {
        self.shared.kill_connections();
    }

    /// Stops the proxy and joins its threads.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.kill_connections();
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.pump_handles).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    shared: &Arc<ProxyShared>,
    listener: TcpListener,
    pumps: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                if shared.partitioned.load(Ordering::SeqCst) {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                let server = match TcpStream::connect_timeout(
                    &shared.upstream,
                    Duration::from_millis(500),
                ) {
                    Ok(s) => s,
                    Err(_) => {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    }
                };
                let conn = shared.conn_counter.fetch_add(1, Ordering::SeqCst);
                {
                    let mut socks = lock(&shared.socks);
                    if let Ok(c) = client.try_clone() {
                        socks.push(c);
                    }
                    if let Ok(s) = server.try_clone() {
                        socks.push(s);
                    }
                }
                spawn_pump(shared, pumps, &client, &server, conn * 2);
                spawn_pump(shared, pumps, &server, &client, conn * 2 + 1);
            }
            Err(ref e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

fn spawn_pump(
    shared: &Arc<ProxyShared>,
    pumps: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    src: &TcpStream,
    dst: &TcpStream,
    lane: u64,
) {
    let (Ok(src), Ok(dst)) = (src.try_clone(), dst.try_clone()) else { return };
    let pump_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("murmuration-chaos-pump".to_owned())
        .spawn(move || pump(&pump_shared, src, dst, lane));
    if let Ok(h) = spawned {
        lock(pumps).push(h);
    }
}

/// Reads `buf.len()` bytes from `src`, tolerating read timeouts between
/// chunks so stop/partition propagate. Returns false on EOF/error/stop.
fn read_full(shared: &ProxyShared, src: &mut TcpStream, buf: &mut [u8]) -> bool {
    let mut at = 0usize;
    while at < buf.len() {
        if shared.stop.load(Ordering::SeqCst) || shared.partitioned.load(Ordering::SeqCst) {
            return false;
        }
        match src.read(&mut buf[at..]) {
            Ok(0) => return false,
            Ok(n) => at += n,
            Err(ref e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue
            }
            Err(_) => return false,
        }
    }
    true
}

/// Forwards frames `src` → `dst`, applying the chaos schedule.
fn pump(shared: &Arc<ProxyShared>, mut src: TcpStream, mut dst: TcpStream, lane: u64) {
    let _ = src.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = dst.set_nodelay(true);
    let cfg = shared.cfg;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ lane.wrapping_mul(0x9E37_79B9));
    // One frame held back by an in-progress reorder.
    let mut held: Option<Vec<u8>> = None;
    loop {
        let mut header = [0u8; HEADER_BYTES];
        if !read_full(shared, &mut src, &mut header) {
            break;
        }
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        if len > MAX_PAYLOAD {
            break; // stream out of sync; kill the connection
        }
        let mut frame = vec![0u8; HEADER_BYTES + len];
        frame[..HEADER_BYTES].copy_from_slice(&header);
        if !read_full(shared, &mut src, &mut frame[HEADER_BYTES..]) {
            break;
        }
        // Asymmetric slow link: even lanes carry client → server frames,
        // odd lanes the reverse (see `accept_loop`). The ramp makes the
        // brownout gradual — a health check that only looks at binary
        // liveness never fires.
        if let Some(dir) = cfg.slow_dir {
            let this_dir = if lane.is_multiple_of(2) {
                ChaosDirection::ClientToServer
            } else {
                ChaosDirection::ServerToClient
            };
            if dir == this_dir {
                let frac = if cfg.slow_ramp.is_zero() {
                    1.0
                } else {
                    (shared.started.elapsed().as_secs_f64() / cfg.slow_ramp.as_secs_f64())
                        .clamp(0.0, 1.0)
                };
                let jitter_us = cfg.slow_jitter.as_micros() as u64;
                let jitter = if jitter_us > 0 { rng.gen_range(0..=jitter_us) } else { 0 };
                let total =
                    cfg.slow_delay.mul_f64(frac) + Duration::from_micros(jitter).mul_f64(frac);
                if !total.is_zero() {
                    std::thread::sleep(total);
                }
            }
        }
        // Chaos schedule, in drop → corrupt → delay → reorder order.
        if cfg.drop_prob > 0.0 && rng.gen_bool(cfg.drop_prob) {
            continue;
        }
        if len > 0 && cfg.corrupt_prob > 0.0 && rng.gen_bool(cfg.corrupt_prob) {
            let at = HEADER_BYTES + rng.gen_range(0..len);
            frame[at] ^= 0xA5;
            // Header checksum untouched: the *receiver* detects this — the
            // outer crc for framing-metadata bytes, the inner wire-v3
            // checksum for tensor-body bytes past the covered prefix.
            debug_assert!(
                at - HEADER_BYTES >= CRC_COVER
                    || check32(&frame[HEADER_BYTES..HEADER_BYTES + len.min(CRC_COVER)])
                        != u32::from_le_bytes([header[4], header[5], header[6], header[7]]),
            );
        }
        if cfg.delay_prob > 0.0 && rng.gen_bool(cfg.delay_prob) {
            std::thread::sleep(cfg.delay);
        }
        if cfg.reorder_prob > 0.0 && held.is_none() && rng.gen_bool(cfg.reorder_prob) {
            held = Some(frame);
            continue;
        }
        // Duplication: replay the complete, intact frame N extra times.
        // Copies are decided before the first write so one seeded draw
        // covers the whole burst.
        let copies = if cfg.dup_prob > 0.0 && rng.gen_bool(cfg.dup_prob) {
            1 + cfg.dup_copies.max(1) as usize
        } else {
            1
        };
        let mut failed = false;
        for _ in 0..copies {
            if dst.write_all(&frame).is_err() {
                failed = true;
                break;
            }
        }
        if failed {
            break;
        }
        if let Some(h) = held.take() {
            if dst.write_all(&h).is_err() {
                break;
            }
        }
    }
    // Flush a leftover held frame if the link is still up, then tear down
    // both halves so the peer notices promptly.
    if let Some(h) = held.take() {
        let _ = dst.write_all(&h);
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}
