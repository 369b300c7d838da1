//! The transport abstraction behind the distributed executor.
//!
//! The coordinator ([`crate::executor::Executor`]) talks to device workers
//! through a [`Transport`]: it submits jobs and waits on a reply channel,
//! never caring whether the worker is a thread in this process or a
//! process across a real socket. Two implementations exist:
//!
//! * [`InProcTransport`] (here) — one worker thread per device connected
//!   by crossbeam channels, the original executor internals. Shipping a
//!   tensor across a "device boundary" still pays the full wire
//!   encode/decode round trip so the byte format stays honest.
//! * `murmuration_transport::AsyncTcpTransport` — non-blocking
//!   `std::net` sockets on a small pool of event loops, carrying the same
//!   checksummed wire-v2 frames as length-delimited messages, with
//!   per-connection heartbeats, reconnect, and at-most-once resend dedup
//!   (see the `murmuration-transport` crate).
//!
//! The contract every implementation must honour:
//!
//! * `submit` either queues the job or fails fast with [`SubmitError`].
//!   A queued job gets exactly one reply on the caller's channel — its
//!   output, a worker error, or [`ReplyError::Link`] as soon as the worker
//!   dies or drops it — unless it is cancelled first. `submit` may block
//!   briefly for backpressure but never indefinitely.
//! * Replies carry the `(tag, attempt)` the job was submitted with, so
//!   the coordinator can discard stale replies from abandoned attempts.
//! * Liveness (`is_alive`) is a belief, updated on hard evidence; the
//!   coordinator layers its own deadlines on top and never trusts it for
//!   progress.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::executor::{UnitCompute, UnitOutcome};
use crate::wire::WireError;
use crossbeam::channel::{unbounded, Receiver, SendError, Sender};
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::Tensor;
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One job handed to a transport: run `unit` on `input` at device `dev`
/// (given to [`Transport::submit`] separately).
pub struct TransportJob {
    /// Execution unit to run.
    pub unit: usize,
    /// Input tensor (shared with the coordinator for cheap retries).
    pub input: Arc<Tensor>,
    /// Wire precision when the input crosses a device boundary.
    pub quant: BitWidth,
    /// Whether the input crosses a device boundary (quantization applies).
    /// Remote transports always pay the socket; this only controls the
    /// lossy-quantization step, mirroring the in-process semantics.
    pub cross_boundary: bool,
    /// Caller's correlation tag (tile index / request index).
    pub tag: usize,
    /// Caller's attempt number; replies echo it so stale replies from
    /// abandoned attempts can be discarded.
    pub attempt: u32,
    /// Remaining request budget for this job. Remote transports bound the
    /// request's in-flight time by it (a stalled socket fails the request
    /// after `deadline` instead of consuming the whole budget); in-process
    /// transports ignore it (the coordinator's own `recv_timeout` covers
    /// local workers).
    pub deadline: Option<Duration>,
}

/// Why a submitted job failed at the reply level.
#[derive(Clone, Debug)]
pub enum ReplyError {
    /// The worker ran and failed (panic, injected error, bad frame).
    Worker(String),
    /// The link or peer died; the job may or may not have run.
    Link(String),
}

/// A worker's answer, correlated by `(tag, attempt)`.
pub struct TransportReply {
    /// Echo of [`TransportJob::tag`].
    pub tag: usize,
    /// Echo of [`TransportJob::attempt`].
    pub attempt: u32,
    /// The unit output, or a typed failure.
    pub result: Result<Tensor, ReplyError>,
}

/// Submission failed before the job was accepted.
#[derive(Clone, Debug)]
pub enum SubmitError {
    /// The device is (believed) down; nothing was sent.
    DeviceDown,
    /// Frame corruption was detected while shipping to the device.
    Wire(WireError),
    /// The transport's bounded buffers are full (global in-flight cap or
    /// a peer's outbound byte cap): typed backpressure. Nothing was sent;
    /// the caller should retry later or route elsewhere.
    Backpressure,
}

/// Cumulative connection-supervision counters (all zero for in-process
/// transports, which have no connections to supervise).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Connections re-established after a loss.
    pub reconnects: u64,
    /// Heartbeat intervals that elapsed without hearing from a peer.
    pub heartbeats_missed: u64,
    /// Requests the peer recognised as duplicates of an earlier delivery
    /// (at-most-once resend dedup after a reconnect).
    pub resends_deduped: u64,
    /// Cancels that verifiably saved work: the peer dropped a still-queued
    /// job instead of computing it (hedge losers, mostly).
    pub cancels_delivered: u64,
    /// Submissions refused with [`SubmitError::Backpressure`] because a
    /// bounded buffer (global in-flight cap, per-peer outbound byte cap)
    /// was full.
    pub backpressure_rejections: u64,
    /// Inbound connections refused by accept-side storm control (rate
    /// limit or connection cap) instead of being attached.
    pub accepts_shed: u64,
    /// Connections (or connect attempts) shed by the fd-budget guard when
    /// the process neared its open-file limit.
    pub conns_shed: u64,
}

impl TransportStats {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &TransportStats) -> TransportStats {
        TransportStats {
            reconnects: self.reconnects.saturating_sub(earlier.reconnects),
            heartbeats_missed: self.heartbeats_missed.saturating_sub(earlier.heartbeats_missed),
            resends_deduped: self.resends_deduped.saturating_sub(earlier.resends_deduped),
            cancels_delivered: self.cancels_delivered.saturating_sub(earlier.cancels_delivered),
            backpressure_rejections: self
                .backpressure_rejections
                .saturating_sub(earlier.backpressure_rejections),
            accepts_shed: self.accepts_shed.saturating_sub(earlier.accepts_shed),
            conns_shed: self.conns_shed.saturating_sub(earlier.conns_shed),
        }
    }
}

/// The executor's view of a fleet of device workers.
pub trait Transport: Send + Sync {
    /// Number of devices this transport reaches.
    fn n_devices(&self) -> usize;

    /// Current liveness belief for `dev` (optimistic; a dead peer may only
    /// be discovered on the next interaction).
    fn is_alive(&self, dev: usize) -> bool;

    /// Records hard evidence that `dev` is down.
    fn mark_dead(&self, dev: usize);

    /// Submits a job to `dev`. On success exactly one [`TransportReply`]
    /// for `(tag, attempt)` arrives on `reply` unless the job is cancelled:
    /// a worker that dies or drops the job answers [`ReplyError::Link`].
    /// A refused send answers nothing on `reply`. The returned ticket
    /// identifies this submission to [`Transport::cancel`].
    fn submit(
        &self,
        dev: usize,
        job: TransportJob,
        reply: Sender<TransportReply>,
    ) -> Result<u64, SubmitError>;

    /// Best-effort cancellation of a previously submitted job (hedge
    /// loser). No reply for the ticket is needed after this; the transport
    /// may drop still-queued work (counted in
    /// [`TransportStats::cancels_delivered`]) or ignore the cancel if the
    /// job already ran. Never blocks on the peer.
    fn cancel(&self, dev: usize, ticket: u64) {
        let _ = (dev, ticket);
    }

    /// Administratively takes `dev` out of service (in-proc: stops the
    /// worker thread; TCP: drops the link and stops reconnecting).
    fn kill_device(&self, dev: usize);

    /// Brings `dev` back into service after a kill or crash.
    fn restart_device(&mut self, dev: usize);

    /// Turns frame-corruption injection on/off for frames shipped to
    /// `dev` (exercises the checksum path).
    fn set_wire_corruption(&self, dev: usize, on: bool);

    /// Connection-supervision counters (zeros when not applicable).
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    /// Smoothed heartbeat round-trip time to `dev` in milliseconds, when
    /// the transport measures one (remote links; `None` in-process). Feeds
    /// per-link gray-failure tracking in [`crate::health`].
    fn link_rtt_ms(&self, dev: usize) -> Option<f64> {
        let _ = dev;
        None
    }

    /// Pushes one gossip control payload (an encoded
    /// `murmuration_core::gossip::GossipMsg`) toward `dev`'s node.
    /// Best-effort: returns `false` when the link is down or the
    /// transport carries no control plane (the in-process default). A
    /// peer that receives a push replies with its own digest, which
    /// arrives via [`Transport::drain_gossip`] — the SWIM push-pull.
    fn send_gossip(&self, dev: usize, payload: &[u8]) -> bool {
        let _ = (dev, payload);
        false
    }

    /// Drains gossip payloads received from peers since the last call
    /// (pull replies and unsolicited pushes alike). Payload order follows
    /// arrival; merging is idempotent so duplicates are harmless.
    fn drain_gossip(&self) -> Vec<Vec<u8>> {
        Vec::new()
    }

    /// Gracefully drains: stop accepting new work, let in-flight work
    /// finish (bounded), release resources. Idempotent.
    fn shutdown(&mut self) {}
}

/// An in-process job. Dropped unanswered (at a `Vanish`, behind a `Stop`,
/// with a dead worker's queue) it answers [`ReplyError::Link`], as a TCP
/// peer's teardown does; a cancel or a refused send clears `reply` first.
struct InProcJob {
    unit: usize,
    input: Arc<Tensor>,
    reply: Option<Sender<TransportReply>>,
    tag: usize,
    attempt: u32,
    ticket: u64,
}

impl InProcJob {
    fn answer(&mut self, result: Result<Tensor, ReplyError>) {
        if let Some(reply) = self.reply.take() {
            // The coordinator may have moved on; ignore send failures.
            let _ = reply.send(TransportReply { tag: self.tag, attempt: self.attempt, result });
        }
    }
}

impl Drop for InProcJob {
    fn drop(&mut self) {
        self.answer(Err(ReplyError::Link("worker gone".to_owned())));
    }
}

enum Msg {
    Run(InProcJob),
    Stop,
}

/// Tickets cancelled before their job was dequeued. Bounded FIFO so a
/// cancel for work that already ran (and will never match) cannot grow the
/// set forever.
struct CancelSet {
    set: HashSet<u64>,
    order: VecDeque<u64>,
    cap: usize,
}

impl CancelSet {
    fn new(cap: usize) -> Self {
        CancelSet { set: HashSet::new(), order: VecDeque::new(), cap }
    }

    fn insert(&mut self, ticket: u64) {
        if self.set.insert(ticket) {
            self.order.push_back(ticket);
            while self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }

    fn remove(&mut self, ticket: u64) -> bool {
        // The FIFO keeps a stale entry until it ages out; harmless, since
        // tickets are never reused.
        self.set.remove(&ticket)
    }
}

/// The original executor internals as a [`Transport`]: one worker thread
/// per device, crossbeam channels standing in for sockets.
pub struct InProcTransport {
    senders: Vec<Sender<Msg>>,
    handles: Vec<Option<JoinHandle<()>>>,
    /// Handles of workers replaced by [`restart_device`](Transport::restart_device);
    /// joined on drop.
    graveyard: Vec<JoinHandle<()>>,
    alive: Vec<AtomicBool>,
    /// Wire-corruption injection: frames shipped *to* a flagged device are
    /// garbled before decode, so tests can exercise the checksum path.
    garble: Vec<AtomicBool>,
    compute: Arc<dyn UnitCompute>,
    next_ticket: AtomicU64,
    cancels: Arc<Mutex<CancelSet>>,
    cancels_delivered: Arc<AtomicU64>,
}

fn spawn_worker(
    dev: usize,
    compute: Arc<dyn UnitCompute>,
    cancels: Arc<Mutex<CancelSet>>,
    cancels_delivered: Arc<AtomicU64>,
) -> (Sender<Msg>, JoinHandle<()>) {
    let (tx, rx): (Sender<Msg>, Receiver<Msg>) = unbounded();
    let builder = std::thread::Builder::new().name(format!("murmuration-dev{dev}"));
    let handle = builder.spawn(move || {
        while let Ok(msg) = rx.recv() {
            match msg {
                Msg::Run(mut job) => {
                    // A cancel that lands before the job is dequeued saves
                    // the compute entirely; the coordinator has already
                    // moved on, so no reply is owed.
                    if cancels.lock().remove(job.ticket) {
                        cancels_delivered.fetch_add(1, Ordering::SeqCst);
                        job.reply = None;
                        continue;
                    }
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        compute.run_unit_on(dev, job.unit, &job.input)
                    }));
                    let result = match outcome {
                        Ok(UnitOutcome::Output(t)) => Ok(t),
                        Ok(UnitOutcome::Error(msg)) => Err(ReplyError::Worker(msg)),
                        // Simulated crash: the worker exits, and this job
                        // and every queued one answer `Link`.
                        Ok(UnitOutcome::Vanish) => break,
                        Err(panic) => {
                            let msg = panic
                                .downcast_ref::<&str>()
                                .map(|s| (*s).to_owned())
                                .or_else(|| panic.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "worker panicked".to_owned());
                            Err(ReplyError::Worker(msg))
                        }
                    };
                    job.answer(result);
                }
                Msg::Stop => break,
            }
        }
    });
    match handle {
        Ok(h) => (tx, h),
        Err(e) => panic!("spawn worker {dev}: {e}"),
    }
}

impl InProcTransport {
    /// Spawns one worker thread per device.
    pub fn new(n_devices: usize, compute: Arc<dyn UnitCompute>) -> Self {
        assert!(n_devices >= 1);
        let cancels = Arc::new(Mutex::new(CancelSet::new(1024)));
        let cancels_delivered = Arc::new(AtomicU64::new(0));
        let mut senders = Vec::with_capacity(n_devices);
        let mut handles = Vec::with_capacity(n_devices);
        for dev in 0..n_devices {
            let (tx, handle) =
                spawn_worker(dev, compute.clone(), cancels.clone(), cancels_delivered.clone());
            senders.push(tx);
            handles.push(Some(handle));
        }
        InProcTransport {
            senders,
            handles,
            graveyard: Vec::new(),
            alive: (0..n_devices).map(|_| AtomicBool::new(true)).collect(),
            garble: (0..n_devices).map(|_| AtomicBool::new(false)).collect(),
            compute,
            next_ticket: AtomicU64::new(1),
            cancels,
            cancels_delivered,
        }
    }

    /// Serializes a tensor to a wire frame and decodes it back — exactly
    /// what crossing a device boundary does to the data (including packed
    /// quantization). The byte round-trip keeps the transport honest about
    /// the wire format; corruption injected on the link surfaces here as a
    /// checksum error.
    fn ship(&self, to_dev: usize, t: &Tensor, quant: BitWidth) -> Result<Tensor, WireError> {
        let mut frame = crate::wire::encode(t, quant);
        if self.garble[to_dev].load(Ordering::SeqCst) {
            let mid = frame.len() / 2;
            frame[mid] ^= 0x5A;
        }
        crate::wire::decode(&frame)
    }
}

impl Transport for InProcTransport {
    fn n_devices(&self) -> usize {
        self.senders.len()
    }

    fn is_alive(&self, dev: usize) -> bool {
        self.alive[dev].load(Ordering::SeqCst)
    }

    fn mark_dead(&self, dev: usize) {
        self.alive[dev].store(false, Ordering::SeqCst);
    }

    fn submit(
        &self,
        dev: usize,
        job: TransportJob,
        reply: Sender<TransportReply>,
    ) -> Result<u64, SubmitError> {
        let input = if job.cross_boundary {
            match self.ship(dev, &job.input, job.quant) {
                Ok(t) => Arc::new(t),
                Err(e) => return Err(SubmitError::Wire(e)),
            }
        } else {
            job.input
        };
        let ticket = self.next_ticket.fetch_add(1, Ordering::SeqCst);
        let msg = Msg::Run(InProcJob {
            unit: job.unit,
            input,
            reply: Some(reply),
            tag: job.tag,
            attempt: job.attempt,
            ticket,
        });
        if let Err(SendError(Msg::Run(mut job))) = self.senders[dev].send(msg) {
            job.reply = None; // a refused send is answered by its error alone
            self.mark_dead(dev);
            return Err(SubmitError::DeviceDown);
        }
        Ok(ticket)
    }

    fn cancel(&self, dev: usize, ticket: u64) {
        let _ = dev;
        self.cancels.lock().insert(ticket);
    }

    fn kill_device(&self, dev: usize) {
        self.alive[dev].store(false, Ordering::SeqCst);
        let _ = self.senders[dev].send(Msg::Stop);
    }

    fn restart_device(&mut self, dev: usize) {
        let (tx, handle) = spawn_worker(
            dev,
            self.compute.clone(),
            self.cancels.clone(),
            self.cancels_delivered.clone(),
        );
        let _ = self.senders[dev].send(Msg::Stop); // in case the old worker still runs
        self.senders[dev] = tx;
        if let Some(old) = self.handles[dev].replace(handle) {
            self.graveyard.push(old);
        }
        self.alive[dev].store(true, Ordering::SeqCst);
    }

    fn set_wire_corruption(&self, dev: usize, on: bool) {
        self.garble[dev].store(on, Ordering::SeqCst);
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            cancels_delivered: self.cancels_delivered.load(Ordering::SeqCst),
            ..TransportStats::default()
        }
    }

    fn shutdown(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Msg::Stop);
        }
        for h in self.handles.iter_mut().filter_map(Option::take) {
            let _ = h.join();
        }
        for h in self.graveyard.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for InProcTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::executor::ConvStackCompute;
    use murmuration_tensor::Shape;
    use std::time::Duration;

    fn setup() -> (InProcTransport, Arc<ConvStackCompute>, Tensor) {
        use rand::{rngs::StdRng, SeedableRng};
        let compute = Arc::new(ConvStackCompute::random(2, 1, 2, 9));
        let t = InProcTransport::new(2, compute.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let input = Tensor::rand_uniform(Shape::nchw(1, 2, 6, 6), 1.0, &mut rng);
        (t, compute, input)
    }

    fn job(input: &Tensor, cross: bool) -> TransportJob {
        TransportJob {
            unit: 0,
            input: Arc::new(input.clone()),
            quant: BitWidth::B32,
            cross_boundary: cross,
            tag: 7,
            attempt: 1,
            deadline: None,
        }
    }

    #[test]
    fn submit_round_trips_through_a_worker() {
        let (t, compute, input) = setup();
        let (tx, rx) = unbounded();
        t.submit(1, job(&input, true), tx).unwrap();
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply.tag, 7);
        assert_eq!(reply.attempt, 1);
        let out = reply.result.unwrap();
        assert_eq!(out.data(), compute.run_unit(0, &input).data(), "B32 ship is exact");
    }

    #[test]
    fn garbled_ship_is_a_wire_submit_error() {
        let (t, _, input) = setup();
        t.set_wire_corruption(1, true);
        let (tx, _rx) = unbounded();
        match t.submit(1, job(&input, true), tx) {
            Err(SubmitError::Wire(_)) => {}
            other => panic!("expected wire error, got {:?}", other.err()),
        }
    }

    #[test]
    fn killed_device_fails_submit_and_restart_revives() {
        let (mut t, _, input) = setup();
        t.kill_device(1);
        assert!(!t.is_alive(1));
        // The stop message races the submit through the same channel: the
        // submit is refused once the worker is gone, and a job queued
        // behind the stop answers `Link` when the worker drops it.
        std::thread::sleep(Duration::from_millis(20));
        let (tx, rx) = unbounded();
        match t.submit(1, job(&input, false), tx) {
            Err(SubmitError::DeviceDown) => {}
            Ok(_) => {
                let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
                assert!(matches!(reply.result, Err(ReplyError::Link(_))));
            }
            Err(e) => panic!("unexpected submit error {e:?}"),
        }
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err(), "one reply at most");
        t.restart_device(1);
        assert!(t.is_alive(1));
        let (tx, rx) = unbounded();
        t.submit(1, job(&input, false), tx).unwrap();
        assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap().result.is_ok());
    }

    #[test]
    fn vanished_worker_answers_held_and_queued_jobs_with_link() {
        use crate::fault::{FaultKind, FaultyCompute};
        let (_, compute, input) = setup();
        let faulty = Arc::new(FaultyCompute::new(compute, 2));
        faulty.script(1, 0, FaultKind::Vanish);
        let t = InProcTransport::new(2, faulty);
        let (tx, rx) = unbounded();
        let accepted = (0..3).filter(|_| t.submit(1, job(&input, false), tx.clone()).is_ok());
        let accepted = accepted.count();
        drop(tx);
        // Ends once every job has answered or been dropped.
        let replies: Vec<TransportReply> = rx.iter().collect();
        assert!(accepted >= 1);
        assert_eq!(replies.len(), accepted, "one reply per accepted job");
        assert!(replies.iter().all(|r| matches!(r.result, Err(ReplyError::Link(_)))));
    }

    #[test]
    fn stats_default_to_zero() {
        let (t, _, _) = setup();
        assert_eq!(t.stats(), TransportStats::default());
        assert_eq!(t.stats().since(&t.stats()), TransportStats::default());
    }

    #[test]
    fn cancel_before_dequeue_saves_the_compute() {
        use crate::fault::{FaultKind, FaultyCompute};
        let (_, compute, input) = setup();
        // Stall the worker on its first job so the second stays queued
        // long enough for the cancel to land first.
        let faulty = Arc::new(FaultyCompute::new(compute, 2));
        faulty.script(1, 0, FaultKind::Stall(Duration::from_millis(150)));
        let t = InProcTransport::new(2, faulty);
        let (tx, rx) = unbounded();
        t.submit(1, job(&input, false), tx.clone()).unwrap();
        let ticket = t.submit(1, job(&input, false), tx).unwrap();
        t.cancel(1, ticket);
        // First reply arrives; the cancelled job never replies.
        assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap().result.is_ok());
        // Eventually the worker dequeues (and drops) the cancelled job.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while t.stats().cancels_delivered == 0 {
            assert!(std::time::Instant::now() < deadline, "cancel never delivered");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err(), "no reply for a cancel");
    }
}
