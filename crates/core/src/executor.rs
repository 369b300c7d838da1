//! The distributed Executor: the coordinator that drives a fleet of
//! device workers through a [`Transport`] — in-process worker threads
//! ([`InProcTransport`]) or real worker processes over TCP
//! (`murmuration_transport::TcpTransport`).
//!
//! The executor runs *real tensor computation*: unit inputs are FDSP-tiled
//! with [`murmuration_tensor::tile`], shipped through the transport after a
//! wire-quantization round-trip, computed on the worker, and merged
//! back. Running a plan with 1×1 placements on any device therefore
//! produces bit-identical results to local execution (at 32-bit wire
//! precision), and tiled plans differ from the monolithic result only at
//! FDSP seams — both properties are asserted in tests, over both
//! transports.
//!
//! # Fault model
//!
//! Devices can crash (worker exits without replying), stall (reply arrives
//! after the deadline), panic (worker survives, request fails), garble
//! frames in transit (checksum failure), or — over TCP — lose their
//! connection mid-request. The coordinator never blocks forever on any of
//! them: every wait is a `recv_timeout` against a per-attempt deadline,
//! failed attempts are retried with exponential backoff and failover onto
//! surviving devices, and exhaustion surfaces as a typed [`ExecError`]
//! instead of a panic or a hang. Connection supervision (heartbeats,
//! reconnect, resend dedup) happens below the trait; its counters surface
//! in [`ExecReport`].
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::health::LatencyTracker;
use crate::transport::{
    InProcTransport, ReplyError, SubmitError, Transport, TransportJob, TransportReply,
    TransportStats,
};
use crate::wire::WireError;
use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};
use murmuration_partition::{ExecutionPlan, UnitPlacement};
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::tile::{merge_fdsp, split_fdsp, GridSpec};
use murmuration_tensor::Tensor;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one worker invocation produced. The `Vanish` arm lets fault
/// injectors simulate a process crash: the worker thread exits without
/// replying, exactly like a killed remote peer.
pub enum UnitOutcome {
    /// Normal completion.
    Output(Tensor),
    /// Simulated crash: no reply is sent and the worker thread exits.
    Vanish,
    /// Recoverable failure: an error reply is sent, the worker survives.
    Error(String),
}

/// Per-unit computation hosted by every worker (weights are shared
/// read-only, as each device holds the full supernet in memory).
pub trait UnitCompute: Send + Sync + 'static {
    /// Number of execution units.
    fn n_units(&self) -> usize;
    /// Runs one unit on an input (a whole feature map or one FDSP tile).
    fn run_unit(&self, unit: usize, input: &Tensor) -> Tensor;
    /// Device-aware entry point the workers call; the default delegates to
    /// [`run_unit`](Self::run_unit). Fault-injecting wrappers override
    /// this to kill, stall, or fail specific devices.
    fn run_unit_on(&self, dev: usize, unit: usize, input: &Tensor) -> UnitOutcome {
        let _ = dev;
        UnitOutcome::Output(self.run_unit(unit, input))
    }
}

/// Per-unit wire/partition metadata the scheduler needs.
#[derive(Clone, Debug)]
pub struct UnitWire {
    /// FDSP grid when the unit is tiled (must match the plan).
    pub grid: GridSpec,
    /// Wire precision of this unit's *input* when it crosses devices.
    pub in_quant: BitWidth,
}

/// Typed execution failure. Every variant names the device and unit
/// involved so callers can feed device-health tracking.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// The worker is unreachable: the device crashed, was killed, or its
    /// connection died and could not be re-established in time.
    DeviceDown { dev: usize },
    /// No reply within the per-attempt deadline.
    Timeout { dev: usize, unit: usize, waited_ms: f64 },
    /// The worker panicked (or reported an injected error) on this unit.
    WorkerPanic { dev: usize, unit: usize, msg: String },
    /// Frame corruption detected on the link to `dev`.
    Wire { dev: usize, err: WireError },
    /// The transport refused the submission because a bounded buffer was
    /// full (typed backpressure): the device is healthy but saturated.
    Backpressure { dev: usize },
    /// Every device the coordinator could try is dead.
    NoDevice { unit: usize },
    /// The retry budget ran out; `last` is the final attempt's failure.
    AttemptsExhausted { unit: usize, attempts: usize, last: Box<ExecError> },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::DeviceDown { dev } => write!(f, "device {dev} is down"),
            ExecError::Timeout { dev, unit, waited_ms } => {
                write!(f, "device {dev} missed the deadline on unit {unit} ({waited_ms:.1} ms)")
            }
            ExecError::WorkerPanic { dev, unit, msg } => {
                write!(f, "device {dev} failed on unit {unit}: {msg}")
            }
            ExecError::Wire { dev, err } => write!(f, "wire to device {dev}: {err}"),
            ExecError::Backpressure { dev } => {
                write!(f, "transport backpressure on device {dev}")
            }
            ExecError::NoDevice { unit } => write!(f, "no live device for unit {unit}"),
            ExecError::AttemptsExhausted { unit, attempts, last } => {
                write!(f, "unit {unit} failed after {attempts} attempts; last: {last}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Speculative-resend (hedging) policy for straggler defense.
///
/// When an attempt has waited longer than `factor ×` the device's observed
/// `quantile` latency, a hedge copy of the work is sent to a backup
/// device; whichever reply arrives first wins and the loser is cancelled
/// through [`Transport::cancel`]. The trigger adapts per device from the
/// executor's own latency history, so hedges stay rare (tail-only) on a
/// healthy fleet.
#[derive(Clone, Copy, Debug)]
pub struct HedgeOptions {
    /// Latency quantile the trigger is derived from.
    pub quantile: f64,
    /// Trigger = `factor × quantile` (headroom above the observed tail).
    pub factor: f64,
    /// Floor on the trigger so microsecond-scale units don't hedge on
    /// scheduler jitter.
    pub min_trigger: Duration,
    /// Observed samples required per device before hedging arms (cold
    /// devices never trigger hedges).
    pub min_samples: usize,
}

impl Default for HedgeOptions {
    fn default() -> Self {
        HedgeOptions {
            quantile: 0.9,
            factor: 2.0,
            min_trigger: Duration::from_millis(1),
            min_samples: 8,
        }
    }
}

/// Retry/deadline policy for one execution.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// How long one attempt may wait for a worker reply.
    pub deadline: Duration,
    /// Total attempts per unit (or per tile) before giving up.
    pub max_attempts: usize,
    /// Base backoff before retry `k` (doubles per attempt, capped).
    pub backoff: Duration,
    /// Hedged execution against stragglers; `None` disables (the
    /// default — retries and deadlines alone reproduce PR 2 semantics).
    pub hedge: Option<HedgeOptions>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            deadline: Duration::from_secs(2),
            max_attempts: 3,
            backoff: Duration::from_millis(2),
            hedge: None,
        }
    }
}

impl ExecOptions {
    /// Derives a per-attempt deadline from the latency model's estimate
    /// for the whole request: generous enough that modeling error never
    /// trips it (4× the budget plus scheduling slack), tight enough that
    /// a dead device is detected within a bounded, budget-proportional
    /// wait instead of a hard-coded worst case.
    pub fn for_budget_ms(budget_ms: f64) -> Self {
        let ms = (budget_ms * 4.0 + 100.0).clamp(100.0, 5_000.0);
        ExecOptions { deadline: Duration::from_micros((ms * 1e3) as u64), ..Default::default() }
    }
}

/// The executor: the coordinator over a [`Transport`].
pub struct Executor {
    transport: Box<dyn Transport>,
    /// Per-device latency history (successful attempts, milliseconds):
    /// feeds the adaptive hedge trigger and gray-health reporting.
    lat: Mutex<Vec<LatencyTracker>>,
}

/// Marks a reply as coming from a hedge submission; the low bits still
/// carry the attempt number for staleness filtering.
const HEDGE_BIT: u32 = 1 << 31;

/// Execution report.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecReport {
    /// Measured wall time of the distributed execution (host time).
    pub wall_ms: f64,
    /// Re-dispatches after a failed attempt (any cause).
    pub retries: u32,
    /// Completions on a device other than the planned one.
    pub failovers: u32,
    /// Attempts that exceeded their deadline.
    pub deadline_misses: u32,
    /// Connections re-established during this execution (TCP transport).
    pub reconnects: u64,
    /// Heartbeat intervals missed during this execution (TCP transport).
    pub heartbeats_missed: u64,
    /// Transport-level resends the workers recognised as duplicates and
    /// served without recomputing (at-most-once dedup; TCP transport).
    pub resends_deduped: u64,
    /// Speculative hedge submissions fired against stragglers.
    pub hedges_fired: u32,
    /// Hedge submissions that beat the straggling primary.
    pub hedges_won: u32,
    /// Cancels that verifiably dropped still-queued work at a worker
    /// (hedge losers that never ran).
    pub cancels_delivered: u64,
}

impl ExecReport {
    fn absorb_stats(&mut self, delta: TransportStats) {
        self.reconnects += delta.reconnects;
        self.heartbeats_missed += delta.heartbeats_missed;
        self.resends_deduped += delta.resends_deduped;
        self.cancels_delivered += delta.cancels_delivered;
    }
}

impl Executor {
    /// Spawns one in-process worker thread per device — the classic
    /// single-process mode.
    pub fn new(n_devices: usize, compute: Arc<dyn UnitCompute>) -> Self {
        Self::with_transport(Box::new(InProcTransport::new(n_devices, compute)))
    }

    /// Builds an executor over an arbitrary transport (e.g. a
    /// `TcpTransport` reaching remote worker processes).
    pub fn with_transport(transport: Box<dyn Transport>) -> Self {
        let n = transport.n_devices();
        assert!(n >= 1);
        Executor {
            transport,
            lat: Mutex::new((0..n).map(|_| LatencyTracker::new(0.2, 64)).collect()),
        }
    }

    /// Number of device workers.
    pub fn n_devices(&self) -> usize {
        self.transport.n_devices()
    }

    /// Whether the coordinator believes `dev` is alive. Optimistic: a
    /// crashed device is only discovered on the next interaction.
    pub fn is_alive(&self, dev: usize) -> bool {
        self.transport.is_alive(dev)
    }

    /// Takes `dev` out of service. Subsequent work fails over to
    /// surviving devices.
    pub fn kill_device(&self, dev: usize) {
        self.transport.kill_device(dev);
    }

    /// Brings `dev` back into service, replacing a crashed or killed
    /// worker (in-proc: a fresh thread; TCP: reconnection resumes).
    pub fn restart_device(&mut self, dev: usize) {
        self.transport.restart_device(dev);
    }

    /// Turns frame corruption on/off for frames shipped *to* `dev`.
    pub fn set_wire_corruption(&self, dev: usize, on: bool) {
        self.transport.set_wire_corruption(dev, on);
    }

    /// Cumulative connection-supervision counters of the underlying
    /// transport (all zero for the in-process transport).
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// Gracefully drains the transport: in-flight work finishes (bounded),
    /// connections close with a goodbye. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.transport.shutdown();
    }

    /// Records one successful attempt's latency for `dev`.
    fn observe_latency(&self, dev: usize, ms: f64) {
        if let Some(t) = self.lat.lock().get_mut(dev) {
            t.observe(ms);
        }
    }

    /// Observed per-attempt latency quantile for `dev`, if enough history
    /// exists (feeds gray-health reporting and diagnostics).
    pub fn latency_quantile(&self, dev: usize, q: f64) -> Option<f64> {
        self.lat.lock().get(dev).and_then(|t| t.quantile(q))
    }

    /// When hedging should fire for an attempt on `dev`: `factor ×` the
    /// observed latency quantile, floored, and only when that still beats
    /// the attempt deadline (otherwise the deadline path handles it).
    ///
    /// The quantile basis is `min(dev's own, fleet median)`: a persistent
    /// straggler inflates its own history until it no longer looks slow
    /// to itself, so its trigger must stay anchored to what its peers
    /// prove is achievable; a device with a tight history keeps its own
    /// tighter trigger.
    fn hedge_trigger(&self, dev: usize, h: &HedgeOptions, deadline: Duration) -> Option<Duration> {
        let q_ms = {
            let lat = self.lat.lock();
            let t = lat.get(dev)?;
            if t.len() < h.min_samples {
                return None;
            }
            let own = t.quantile(h.quantile)?;
            let mut fleet: Vec<f64> = lat
                .iter()
                .filter(|t| t.len() >= h.min_samples)
                .filter_map(|t| t.quantile(h.quantile))
                .collect();
            fleet.sort_by(f64::total_cmp);
            if fleet.is_empty() {
                own
            } else {
                own.min(fleet[(fleet.len() - 1) / 2])
            }
        };
        let trigger_s = (q_ms * h.factor / 1e3).max(h.min_trigger.as_secs_f64());
        let trigger = Duration::from_secs_f64(trigger_s);
        (trigger < deadline).then_some(trigger)
    }

    /// First non-shunned device other than `exclude` (hedge backup for a
    /// single request, where the rest of the fleet is idle).
    fn pick_backup(&self, exclude: usize, shunned: &[bool]) -> Option<usize> {
        (0..self.n_devices()).find(|&d| d != exclude && !shunned[d])
    }

    /// Least-loaded backup under streamed load: hedging onto the busiest
    /// survivor just moves the wait to a different queue, so the backup is
    /// chosen by the coordinator's own outstanding-submission count.
    fn pick_backup_least_loaded(
        &self,
        exclude: usize,
        shunned: &[bool],
        inflight: &[usize],
    ) -> Option<usize> {
        (0..self.n_devices()).filter(|&d| d != exclude && !shunned[d]).min_by_key(|&d| inflight[d])
    }

    #[allow(clippy::too_many_arguments)]
    fn submit(
        &self,
        dev: usize,
        unit: usize,
        input: &Arc<Tensor>,
        quant: BitWidth,
        cross: bool,
        tag: usize,
        attempt: u32,
        deadline: Option<Duration>,
        reply: Sender<TransportReply>,
    ) -> Result<u64, ExecError> {
        let job = TransportJob {
            unit,
            input: Arc::clone(input),
            quant,
            cross_boundary: cross,
            tag,
            attempt,
            deadline,
        };
        self.transport.submit(dev, job, reply).map_err(|e| match e {
            SubmitError::DeviceDown => ExecError::DeviceDown { dev },
            SubmitError::Wire(err) => ExecError::Wire { dev, err },
            SubmitError::Backpressure => ExecError::Backpressure { dev },
        })
    }

    /// Executes `input` through all units under `plan` with default
    /// retry/deadline options. `wire[u]` describes unit `u`'s grid and
    /// input precision. The data starts on device 0 and the result is
    /// gathered back there.
    pub fn execute(
        &self,
        plan: &ExecutionPlan,
        wire: &[UnitWire],
        input: Tensor,
    ) -> Result<(Tensor, ExecReport), ExecError> {
        self.execute_with(plan, wire, input, ExecOptions::default())
    }

    /// [`execute`](Self::execute) with explicit fault-handling options.
    pub fn execute_with(
        &self,
        plan: &ExecutionPlan,
        wire: &[UnitWire],
        input: Tensor,
        opts: ExecOptions,
    ) -> Result<(Tensor, ExecReport), ExecError> {
        assert_eq!(plan.placements.len(), wire.len(), "one wire entry per unit");
        let start = Instant::now();
        let stats0 = self.transport.stats();
        let mut report = ExecReport::default();
        // Devices shunned for the remainder of this call: seeded from the
        // global belief, extended by timeouts/wire errors observed here.
        let mut shunned: Vec<bool> = (0..self.n_devices()).map(|d| !self.is_alive(d)).collect();
        let mut data = Arc::new(input);
        let mut loc: usize = 0; // device currently holding `data`
        let finish = |report: &mut ExecReport| {
            report.wall_ms = start.elapsed().as_secs_f64() * 1e3;
            report.absorb_stats(self.transport.stats().since(&stats0));
        };
        for (unit, (placement, w)) in plan.placements.iter().zip(wire.iter()).enumerate() {
            let run = match placement {
                UnitPlacement::Single(d) => self.run_single(
                    *d,
                    unit,
                    &data,
                    w.in_quant,
                    loc,
                    &opts,
                    &mut report,
                    &mut shunned,
                ),
                UnitPlacement::Tiled(devs) => {
                    assert_eq!(devs.len(), w.grid.tiles(), "tile/device count");
                    self.run_tiled(devs, unit, &data, w, loc, &opts, &mut report, &mut shunned)
                }
            };
            match run {
                Ok((out, dev)) => {
                    data = Arc::new(out);
                    loc = dev;
                }
                Err(e) => {
                    finish(&mut report);
                    return Err(e);
                }
            }
        }
        // Result returns to device 0 (tiny logits; precision kept).
        finish(&mut report);
        let out = Arc::try_unwrap(data).unwrap_or_else(|a| (*a).clone());
        Ok((out, report))
    }

    /// First non-shunned device, preferring `preferred`.
    fn pick_device(&self, preferred: usize, shunned: &[bool]) -> Option<usize> {
        if !shunned[preferred] {
            return Some(preferred);
        }
        (0..self.n_devices()).find(|&d| !shunned[d])
    }

    #[allow(clippy::too_many_arguments)]
    fn run_single(
        &self,
        preferred: usize,
        unit: usize,
        data: &Arc<Tensor>,
        quant: BitWidth,
        loc: usize,
        opts: &ExecOptions,
        report: &mut ExecReport,
        shunned: &mut [bool],
    ) -> Result<(Tensor, usize), ExecError> {
        let mut last_err: Option<ExecError> = None;
        let mut attempts = 0usize;
        while attempts < opts.max_attempts {
            let dev = match self.pick_device(preferred, shunned) {
                Some(d) => d,
                None => {
                    return Err(last_err.unwrap_or(ExecError::NoDevice { unit }));
                }
            };
            if attempts > 0 {
                report.retries += 1;
                std::thread::sleep(opts.backoff * (1u32 << (attempts - 1).min(6)));
            }
            attempts += 1;
            let attempt_no = attempts as u32;
            // Fresh reply channel per attempt: a disconnect means *this*
            // worker died holding *this* job, and stale replies from
            // abandoned attempts can never be confused with live ones.
            let (reply_tx, reply_rx) = unbounded();
            // When hedging is on and this device has enough history, a
            // spare sender keeps the channel open past the primary
            // worker's death until the hedge decision. Without hedging the
            // spare is never created, preserving disconnect-as-death.
            let mut hedge_at = opts
                .hedge
                .as_ref()
                .and_then(|h| self.hedge_trigger(dev, h, opts.deadline))
                .map(|d| Instant::now() + d);
            let mut spare_tx = hedge_at.map(|_| reply_tx.clone());
            let ticket = match self.submit(
                dev,
                unit,
                data,
                quant,
                dev != loc,
                0,
                attempt_no,
                Some(opts.deadline),
                reply_tx,
            ) {
                Ok(t) => t,
                Err(e) => {
                    // Treat a corrupted link like a bad device: shun it
                    // for this call and fail over.
                    shunned[dev] = true;
                    last_err = Some(e);
                    continue;
                }
            };
            let started = Instant::now();
            let deadline_at = started + opts.deadline;
            // Live submissions this attempt round: primary and at most one
            // hedge, each `(device, cancel ticket, submitted at)`.
            let mut primary: Option<(usize, u64, Instant)> = Some((dev, ticket, started));
            let mut hedge: Option<(usize, u64, Instant)> = None;
            'round: loop {
                let wake = match hedge_at {
                    Some(h) if hedge.is_none() => deadline_at.min(h),
                    _ => deadline_at,
                };
                match reply_rx.recv_timeout(wake.saturating_duration_since(Instant::now())) {
                    Ok(reply) => {
                        let is_hedge = reply.attempt & HEDGE_BIT != 0;
                        if (reply.attempt & !HEDGE_BIT) != attempt_no {
                            continue; // stale reply from an abandoned attempt
                        }
                        let side = if is_hedge { &mut hedge } else { &mut primary };
                        let Some((sdev, _, sstart)) = side.take() else { continue };
                        match reply.result {
                            Ok(t) => {
                                self.observe_latency(sdev, sstart.elapsed().as_secs_f64() * 1e3);
                                // First result wins; cancel the loser.
                                let loser = if is_hedge { &primary } else { &hedge };
                                if let Some((ldev, lticket, _)) = loser {
                                    self.transport.cancel(*ldev, *lticket);
                                }
                                if is_hedge {
                                    report.hedges_won += 1;
                                } else if sdev != preferred {
                                    report.failovers += 1;
                                }
                                return Ok((t, sdev));
                            }
                            Err(ReplyError::Worker(msg)) => {
                                last_err = Some(ExecError::WorkerPanic { dev: sdev, unit, msg });
                            }
                            Err(ReplyError::Link(_)) => {
                                self.transport.mark_dead(sdev);
                                shunned[sdev] = true;
                                last_err = Some(ExecError::DeviceDown { dev: sdev });
                            }
                        }
                        if primary.is_none() && hedge.is_none() {
                            break 'round; // both sides failed: next attempt
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        // Every live submission's worker died holding its
                        // job (the spare, if any, is gone too).
                        for (d, _, _) in primary.iter().chain(hedge.iter()) {
                            self.transport.mark_dead(*d);
                            shunned[*d] = true;
                            last_err = Some(ExecError::DeviceDown { dev: *d });
                        }
                        break 'round;
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        let now = Instant::now();
                        // Hedge trigger: the primary is straggling — fire
                        // the speculative copy at a backup device.
                        if hedge.is_none()
                            && primary.is_some()
                            && hedge_at.is_some_and(|h| now >= h)
                            && now < deadline_at
                        {
                            hedge_at = None;
                            if let (Some(tx), Some(backup)) =
                                (spare_tx.clone(), self.pick_backup(dev, shunned))
                            {
                                let remaining = deadline_at.saturating_duration_since(now);
                                if let Ok(ht) = self.submit(
                                    backup,
                                    unit,
                                    data,
                                    quant,
                                    backup != loc,
                                    0,
                                    attempt_no | HEDGE_BIT,
                                    Some(remaining),
                                    tx,
                                ) {
                                    report.hedges_fired += 1;
                                    hedge = Some((backup, ht, now));
                                }
                            }
                            // Decision made: the spare must not keep the
                            // channel alive past the live submissions.
                            spare_tx = None;
                            continue;
                        }
                        if now < deadline_at {
                            continue; // woke for a hedge check only
                        }
                        report.deadline_misses += 1;
                        // Straggler(s): shun and cancel whatever is still
                        // out, then retry.
                        for (d, t, _) in primary.iter().chain(hedge.iter()) {
                            shunned[*d] = true;
                            self.transport.cancel(*d, *t);
                        }
                        last_err = Some(ExecError::Timeout {
                            dev,
                            unit,
                            waited_ms: opts.deadline.as_secs_f64() * 1e3,
                        });
                        break 'round;
                    }
                }
            }
        }
        Err(ExecError::AttemptsExhausted {
            unit,
            attempts,
            last: Box::new(last_err.unwrap_or(ExecError::NoDevice { unit })),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn run_tiled(
        &self,
        devs: &[usize],
        unit: usize,
        data: &Tensor,
        w: &UnitWire,
        loc: usize,
        opts: &ExecOptions,
        report: &mut ExecReport,
        shunned: &mut [bool],
    ) -> Result<(Tensor, usize), ExecError> {
        let tiles: Vec<Arc<Tensor>> = split_fdsp(data, w.grid).into_iter().map(Arc::new).collect();
        let n_tiles = tiles.len();
        struct TileState {
            dev: usize,
            attempt: u32,
            attempts: usize,
            deadline: Instant,
            done: Option<Tensor>,
        }
        let (reply_tx, reply_rx) = unbounded::<TransportReply>();
        let mut states: Vec<TileState> = Vec::with_capacity(n_tiles);
        // Dispatches tile `tag` to the first usable device, shipping from
        // `loc`. Returns the device used, or the last error if every
        // candidate fails at send time.
        let dispatch = |tag: usize,
                        preferred: usize,
                        attempt: u32,
                        shunned: &mut [bool]|
         -> Result<(usize, Instant), ExecError> {
            let mut last_err: Option<ExecError> = None;
            loop {
                let dev = match self.pick_device(preferred, shunned) {
                    Some(d) => d,
                    None => return Err(last_err.unwrap_or(ExecError::NoDevice { unit })),
                };
                match self.submit(
                    dev,
                    unit,
                    &tiles[tag],
                    w.in_quant,
                    dev != loc,
                    tag,
                    attempt,
                    Some(opts.deadline),
                    reply_tx.clone(),
                ) {
                    Ok(_ticket) => return Ok((dev, Instant::now() + opts.deadline)),
                    Err(e) => {
                        shunned[dev] = true;
                        last_err = Some(e);
                        continue;
                    }
                }
            }
        };
        for (tag, &planned) in devs.iter().enumerate() {
            let (dev, deadline) = dispatch(tag, planned, 1, shunned)?;
            if dev != planned {
                report.failovers += 1;
            }
            states.push(TileState { dev, attempt: 1, attempts: 1, deadline, done: None });
        }
        let mut done = 0usize;
        while done < n_tiles {
            let next_deadline = states
                .iter()
                .filter(|s| s.done.is_none())
                .map(|s| s.deadline)
                .min()
                .unwrap_or_else(Instant::now);
            let wait = next_deadline.saturating_duration_since(Instant::now());
            match reply_rx.recv_timeout(wait) {
                Ok(reply) => {
                    let st = &mut states[reply.tag];
                    if st.done.is_some() || reply.attempt != st.attempt {
                        continue; // stale reply from an abandoned attempt
                    }
                    match reply.result {
                        Ok(t) => {
                            st.done = Some(t);
                            done += 1;
                        }
                        Err(err) => {
                            let exec_err = match err {
                                ReplyError::Worker(msg) => {
                                    ExecError::WorkerPanic { dev: st.dev, unit, msg }
                                }
                                ReplyError::Link(_) => {
                                    let dev = st.dev;
                                    self.transport.mark_dead(dev);
                                    shunned[dev] = true;
                                    ExecError::DeviceDown { dev }
                                }
                            };
                            if st.attempts >= opts.max_attempts {
                                return Err(ExecError::AttemptsExhausted {
                                    unit,
                                    attempts: st.attempts,
                                    last: Box::new(exec_err),
                                });
                            }
                            report.retries += 1;
                            let attempt = st.attempt + 1;
                            let planned = devs[reply.tag];
                            let (dev, deadline) = dispatch(reply.tag, planned, attempt, shunned)?;
                            if dev != planned {
                                report.failovers += 1;
                            }
                            let st = &mut states[reply.tag];
                            st.dev = dev;
                            st.attempt = attempt;
                            st.attempts += 1;
                            st.deadline = deadline;
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    let now = Instant::now();
                    for tag in 0..n_tiles {
                        if states[tag].done.is_some() || now < states[tag].deadline {
                            continue;
                        }
                        report.deadline_misses += 1;
                        shunned[states[tag].dev] = true;
                        if states[tag].attempts >= opts.max_attempts {
                            return Err(ExecError::AttemptsExhausted {
                                unit,
                                attempts: states[tag].attempts,
                                last: Box::new(ExecError::Timeout {
                                    dev: states[tag].dev,
                                    unit,
                                    waited_ms: opts.deadline.as_secs_f64() * 1e3,
                                }),
                            });
                        }
                        report.retries += 1;
                        let attempt = states[tag].attempt + 1;
                        let planned = devs[tag];
                        let (dev, deadline) = dispatch(tag, planned, attempt, shunned)?;
                        if dev != planned {
                            report.failovers += 1;
                        }
                        let st = &mut states[tag];
                        st.dev = dev;
                        st.attempt = attempt;
                        st.attempts += 1;
                        st.deadline = deadline;
                    }
                }
                // We hold `reply_tx`, so the channel cannot disconnect.
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ExecError::NoDevice { unit });
                }
            }
        }
        let gather_dev = states[0].dev;
        let outs: Vec<Tensor> = states.into_iter().filter_map(|s| s.done).collect();
        debug_assert_eq!(outs.len(), n_tiles);
        Ok((merge_fdsp(&outs, w.grid), gather_dev))
    }

    /// Streams several inputs through a chain of units pinned to devices
    /// (`device_of_unit[u]` runs unit `u`), overlapping different inputs'
    /// units across workers — real pipelining, the execution mode behind
    /// the paper's 20-inference-average measurements. Outputs are returned
    /// in input order; a request that exhausts its retry budget yields a
    /// typed error without sinking the rest of the stream.
    pub fn execute_stream(
        &self,
        device_of_unit: &[usize],
        inputs: Vec<Tensor>,
        quant: BitWidth,
    ) -> (Vec<Result<Tensor, ExecError>>, ExecReport) {
        self.execute_stream_with(device_of_unit, inputs, quant, ExecOptions::default())
    }

    /// [`execute_stream`](Self::execute_stream) with explicit options.
    pub fn execute_stream_with(
        &self,
        device_of_unit: &[usize],
        inputs: Vec<Tensor>,
        quant: BitWidth,
        opts: ExecOptions,
    ) -> (Vec<Result<Tensor, ExecError>>, ExecReport) {
        assert!(!device_of_unit.is_empty());
        let n_units = device_of_unit.len();
        let n_inputs = inputs.len();
        let start = Instant::now();
        let stats0 = self.transport.stats();
        let mut report = ExecReport::default();
        let mut shunned: Vec<bool> = (0..self.n_devices()).map(|d| !self.is_alive(d)).collect();
        let (reply_tx, reply_rx) = unbounded::<TransportReply>();

        struct ReqState {
            stage: usize,
            /// Input of the current stage, pre-shipping (kept for retry).
            cur_input: Arc<Tensor>,
            /// Device holding `cur_input` (shipping source).
            loc: usize,
            dev: usize,
            attempt: u32,
            stage_attempts: usize,
            deadline: Instant,
            /// Cancellation ticket for the primary submission.
            ticket: u64,
            /// When the primary submission went out.
            started: Instant,
            /// The primary is still expected to answer.
            primary_live: bool,
            /// Live speculative copy: `(device, ticket, started)`.
            hedge: Option<(usize, u64, Instant)>,
            /// When to fire the hedge, if the primary is still out by then.
            hedge_at: Option<Instant>,
            result: Option<Result<Tensor, ExecError>>,
        }
        let mut states: Vec<ReqState> = inputs
            .into_iter()
            .map(|input| ReqState {
                stage: 0,
                cur_input: Arc::new(input),
                loc: 0,
                dev: 0,
                attempt: 0,
                stage_attempts: 0,
                deadline: Instant::now(),
                ticket: 0,
                started: Instant::now(),
                primary_live: false,
                hedge: None,
                hedge_at: None,
                result: None,
            })
            .collect();
        let mut completed = 0usize;
        // Outstanding submissions per device (primaries + hedges), from
        // the coordinator's own bookkeeping: feeds least-loaded backup
        // selection so hedges escape congested queues.
        let mut inflight: Vec<usize> = vec![0; self.n_devices()];

        // Dispatches request `idx`'s current stage to the first usable
        // device. On unrecoverable dispatch failure the request is marked
        // failed (the stream continues).
        let dispatch = |idx: usize,
                        states: &mut Vec<ReqState>,
                        shunned: &mut [bool],
                        report: &mut ExecReport,
                        completed: &mut usize,
                        inflight: &mut [usize]| {
            let planned = device_of_unit[states[idx].stage];
            let attempt = states[idx].attempt + 1;
            let mut last_err: Option<ExecError> = None;
            loop {
                let dev = match self.pick_device(planned, shunned) {
                    Some(d) => d,
                    None => {
                        let unit = states[idx].stage;
                        states[idx].result =
                            Some(Err(last_err.unwrap_or(ExecError::NoDevice { unit })));
                        *completed += 1;
                        return;
                    }
                };
                let st = &states[idx];
                let ticket = match self.submit(
                    dev,
                    st.stage,
                    &st.cur_input,
                    quant,
                    dev != st.loc,
                    idx,
                    attempt,
                    Some(opts.deadline),
                    reply_tx.clone(),
                ) {
                    Ok(t) => t,
                    Err(e) => {
                        shunned[dev] = true;
                        last_err = Some(e);
                        continue;
                    }
                };
                if dev != planned {
                    report.failovers += 1;
                }
                inflight[dev] += 1;
                let now = Instant::now();
                let hedge_at = opts
                    .hedge
                    .as_ref()
                    .and_then(|h| self.hedge_trigger(dev, h, opts.deadline))
                    .map(|d| now + d);
                let st = &mut states[idx];
                st.dev = dev;
                st.attempt = attempt;
                st.stage_attempts += 1;
                st.deadline = now + opts.deadline;
                st.ticket = ticket;
                st.started = now;
                st.primary_live = true;
                st.hedge = None;
                st.hedge_at = hedge_at;
                return;
            }
        };

        for idx in 0..n_inputs {
            dispatch(idx, &mut states, &mut shunned, &mut report, &mut completed, &mut inflight);
        }
        while completed < n_inputs {
            let next_wake = states
                .iter()
                .filter(|s| s.result.is_none())
                .map(|s| match s.hedge_at {
                    Some(h) if s.hedge.is_none() && s.primary_live => s.deadline.min(h),
                    _ => s.deadline,
                })
                .min()
                .unwrap_or_else(Instant::now);
            let wait = next_wake.saturating_duration_since(Instant::now());
            match reply_rx.recv_timeout(wait) {
                Ok(reply) => {
                    let idx = reply.tag;
                    let is_hedge = reply.attempt & HEDGE_BIT != 0;
                    if states[idx].result.is_some()
                        || (reply.attempt & !HEDGE_BIT) != states[idx].attempt
                        || (is_hedge && states[idx].hedge.is_none())
                        || (!is_hedge && !states[idx].primary_live)
                    {
                        continue; // stale reply from an abandoned attempt
                    }
                    match reply.result {
                        Ok(t) => {
                            // First result wins; cancel the loser.
                            let st = &mut states[idx];
                            let (winner, won_start) = if is_hedge {
                                let (hdev, _, hstart) =
                                    st.hedge.take().unwrap_or((st.dev, 0, st.started));
                                inflight[hdev] = inflight[hdev].saturating_sub(1);
                                if st.primary_live {
                                    self.transport.cancel(st.dev, st.ticket);
                                    inflight[st.dev] = inflight[st.dev].saturating_sub(1);
                                }
                                report.hedges_won += 1;
                                (hdev, hstart)
                            } else {
                                inflight[st.dev] = inflight[st.dev].saturating_sub(1);
                                if let Some((hdev, hticket, _)) = st.hedge.take() {
                                    self.transport.cancel(hdev, hticket);
                                    inflight[hdev] = inflight[hdev].saturating_sub(1);
                                }
                                (st.dev, st.started)
                            };
                            st.primary_live = false;
                            st.hedge_at = None;
                            st.dev = winner;
                            self.observe_latency(winner, won_start.elapsed().as_secs_f64() * 1e3);
                            let next = states[idx].stage + 1;
                            if next < n_units {
                                let st = &mut states[idx];
                                st.stage = next;
                                st.loc = st.dev;
                                st.cur_input = Arc::new(t);
                                st.stage_attempts = 0;
                                dispatch(
                                    idx,
                                    &mut states,
                                    &mut shunned,
                                    &mut report,
                                    &mut completed,
                                    &mut inflight,
                                );
                            } else {
                                states[idx].result = Some(Ok(t));
                                completed += 1;
                            }
                        }
                        Err(err) => {
                            let st = &mut states[idx];
                            let (fail_dev, other_live) = if is_hedge {
                                let (hdev, _, _) =
                                    st.hedge.take().unwrap_or((st.dev, 0, st.started));
                                inflight[hdev] = inflight[hdev].saturating_sub(1);
                                (hdev, st.primary_live)
                            } else {
                                st.primary_live = false;
                                inflight[st.dev] = inflight[st.dev].saturating_sub(1);
                                (st.dev, st.hedge.is_some())
                            };
                            let exec_err = match err {
                                ReplyError::Worker(msg) => {
                                    ExecError::WorkerPanic { dev: fail_dev, unit: st.stage, msg }
                                }
                                ReplyError::Link(_) => {
                                    self.transport.mark_dead(fail_dev);
                                    shunned[fail_dev] = true;
                                    ExecError::DeviceDown { dev: fail_dev }
                                }
                            };
                            if other_live {
                                continue; // the surviving side may still win
                            }
                            let st = &states[idx];
                            if st.stage_attempts >= opts.max_attempts {
                                states[idx].result = Some(Err(ExecError::AttemptsExhausted {
                                    unit: st.stage,
                                    attempts: st.stage_attempts,
                                    last: Box::new(exec_err),
                                }));
                                completed += 1;
                            } else {
                                report.retries += 1;
                                dispatch(
                                    idx,
                                    &mut states,
                                    &mut shunned,
                                    &mut report,
                                    &mut completed,
                                    &mut inflight,
                                );
                            }
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                // We hold `reply_tx`, so the channel cannot disconnect.
                Err(RecvTimeoutError::Disconnected) => break,
            }
            // Timer sweep — after EVERY event, not only on a quiet
            // channel: under streamed load replies arrive continuously,
            // and a timeout-only sweep would starve the hedge triggers.
            {
                let now = Instant::now();
                for idx in 0..n_inputs {
                    if states[idx].result.is_some() {
                        continue;
                    }
                    // Hedge trigger: the primary is straggling — fire
                    // the speculative copy at a backup device.
                    if states[idx].primary_live
                        && states[idx].hedge.is_none()
                        && states[idx].hedge_at.is_some_and(|h| now >= h)
                        && now < states[idx].deadline
                    {
                        states[idx].hedge_at = None;
                        if let Some(backup) =
                            self.pick_backup_least_loaded(states[idx].dev, &shunned, &inflight)
                        {
                            let st = &states[idx];
                            let remaining = st.deadline.saturating_duration_since(now);
                            if let Ok(ht) = self.submit(
                                backup,
                                st.stage,
                                &st.cur_input,
                                quant,
                                backup != st.loc,
                                idx,
                                st.attempt | HEDGE_BIT,
                                Some(remaining),
                                reply_tx.clone(),
                            ) {
                                report.hedges_fired += 1;
                                inflight[backup] += 1;
                                states[idx].hedge = Some((backup, ht, now));
                            }
                        }
                    }
                    if now < states[idx].deadline {
                        continue;
                    }
                    report.deadline_misses += 1;
                    // Straggler(s): shun, cancel whatever is still
                    // out, then retry.
                    let st = &mut states[idx];
                    shunned[st.dev] = true;
                    if st.primary_live {
                        self.transport.cancel(st.dev, st.ticket);
                        inflight[st.dev] = inflight[st.dev].saturating_sub(1);
                        st.primary_live = false;
                    }
                    if let Some((hdev, hticket, _)) = st.hedge.take() {
                        self.transport.cancel(hdev, hticket);
                        inflight[hdev] = inflight[hdev].saturating_sub(1);
                    }
                    st.hedge_at = None;
                    let st = &states[idx];
                    let err = ExecError::Timeout {
                        dev: st.dev,
                        unit: st.stage,
                        waited_ms: opts.deadline.as_secs_f64() * 1e3,
                    };
                    if st.stage_attempts >= opts.max_attempts {
                        states[idx].result = Some(Err(ExecError::AttemptsExhausted {
                            unit: st.stage,
                            attempts: st.stage_attempts,
                            last: Box::new(err),
                        }));
                        completed += 1;
                    } else {
                        report.retries += 1;
                        dispatch(
                            idx,
                            &mut states,
                            &mut shunned,
                            &mut report,
                            &mut completed,
                            &mut inflight,
                        );
                    }
                }
            }
        }
        report.wall_ms = start.elapsed().as_secs_f64() * 1e3;
        report.absorb_stats(self.transport.stats().since(&stats0));
        let results = states
            .into_iter()
            .enumerate()
            .map(|(idx, s)| s.result.unwrap_or(Err(ExecError::NoDevice { unit: idx })))
            .collect();
        (results, report)
    }
}

/// A concrete [`UnitCompute`]: stacks of same-padded convolutions with
/// ReLU — the structure of the supernet's convolutional stages, sized for
/// tests and examples. Deterministic from its seed, so a remote worker
/// process built with the same parameters hosts bit-identical weights.
///
/// Units whose plan selects 8-bit compute ([`ExecUnit::compute_bits`] in
/// the supernet crate) carry pre-quantized int8 weights alongside the f32
/// originals and run the `murmuration_tensor::int8` path. Quantization
/// happens at construction — deterministic from the same seed — and the
/// int8 kernels round identically on every device (SIMD or scalar), so
/// distributed execution still reproduces local execution bit for bit.
pub struct ConvStackCompute {
    /// Per unit: a list of (weight, bias, params) conv layers.
    units: Vec<Vec<(Tensor, Tensor, murmuration_tensor::conv::Conv2dParams)>>,
    /// Per unit: int8 weights for units running the quantized compute path
    /// (`None` = f32 unit).
    qunits: Vec<Option<Vec<murmuration_tensor::int8::QConv2dWeights>>>,
}

impl ConvStackCompute {
    /// Random conv stacks: `n_units` units of `layers_per_unit` k3
    /// same-padded convs over `channels` channels. All units run f32.
    pub fn random(n_units: usize, layers_per_unit: usize, channels: usize, seed: u64) -> Self {
        Self::random_quantized(n_units, layers_per_unit, channels, seed, &[])
    }

    /// [`Self::random`] with the units flagged in `int8_units` running the
    /// int8 compute path (indices past the end are f32).
    pub fn random_quantized(
        n_units: usize,
        layers_per_unit: usize,
        channels: usize,
        seed: u64,
        int8_units: &[bool],
    ) -> Self {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let p = murmuration_tensor::conv::Conv2dParams::same(3);
        let units: Vec<Vec<(Tensor, Tensor, murmuration_tensor::conv::Conv2dParams)>> = (0
            ..n_units)
            .map(|_| {
                (0..layers_per_unit)
                    .map(|_| {
                        (
                            Tensor::kaiming(
                                murmuration_tensor::Shape::nchw(channels, channels, 3, 3),
                                channels * 9,
                                &mut rng,
                            ),
                            Tensor::zeros(murmuration_tensor::Shape::d1(channels)),
                            p,
                        )
                    })
                    .collect()
            })
            .collect();
        let qunits = units
            .iter()
            .enumerate()
            .map(|(u, layers)| {
                int8_units.get(u).copied().unwrap_or(false).then(|| {
                    layers
                        .iter()
                        .map(|(w, _, _)| murmuration_tensor::int8::QConv2dWeights::quantize(w))
                        .collect()
                })
            })
            .collect();
        ConvStackCompute { units, qunits }
    }

    /// Whether `unit` runs the int8 compute path.
    pub fn is_int8_unit(&self, unit: usize) -> bool {
        self.qunits.get(unit).map(Option::is_some).unwrap_or(false)
    }
}

impl UnitCompute for ConvStackCompute {
    fn n_units(&self) -> usize {
        self.units.len()
    }

    fn run_unit(&self, unit: usize, input: &Tensor) -> Tensor {
        let layers = &self.units[unit];
        let mut cur: Option<Tensor> = None;
        for (l, (w, b, p)) in layers.iter().enumerate() {
            let x = cur.as_ref().unwrap_or(input);
            cur = Some(match &self.qunits[unit] {
                Some(qlayers) => {
                    let mut y = murmuration_tensor::int8::qconv2d(x, &qlayers[l], Some(b), *p);
                    murmuration_tensor::activation::relu_inplace(&mut y);
                    y
                }
                None => murmuration_tensor::conv::conv2d_relu(x, w, Some(b), *p),
            });
        }
        cur.unwrap_or_else(|| input.clone())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultyCompute};
    use murmuration_tensor::Shape;

    fn setup(n_devices: usize) -> (Executor, Arc<ConvStackCompute>, Tensor) {
        use rand::{rngs::StdRng, SeedableRng};
        let compute = Arc::new(ConvStackCompute::random(3, 2, 4, 7));
        let exec = Executor::new(n_devices, compute.clone());
        let mut rng = StdRng::seed_from_u64(1);
        let input = Tensor::rand_uniform(Shape::nchw(1, 4, 12, 12), 1.0, &mut rng);
        (exec, compute, input)
    }

    fn faulty_setup(
        n_devices: usize,
    ) -> (Executor, Arc<FaultyCompute>, Arc<ConvStackCompute>, Tensor) {
        use rand::{rngs::StdRng, SeedableRng};
        let inner = Arc::new(ConvStackCompute::random(3, 2, 4, 7));
        let faulty = Arc::new(FaultyCompute::new(inner.clone(), n_devices));
        let exec = Executor::new(n_devices, faulty.clone());
        let mut rng = StdRng::seed_from_u64(1);
        let input = Tensor::rand_uniform(Shape::nchw(1, 4, 12, 12), 1.0, &mut rng);
        (exec, faulty, inner, input)
    }

    fn local_reference(compute: &ConvStackCompute, input: &Tensor) -> Tensor {
        let mut cur = input.clone();
        for u in 0..compute.n_units() {
            cur = compute.run_unit(u, &cur);
        }
        cur
    }

    fn wire_all(quant: BitWidth, grid: GridSpec, n: usize) -> Vec<UnitWire> {
        vec![UnitWire { grid, in_quant: quant }; n]
    }

    fn remote_plan() -> ExecutionPlan {
        ExecutionPlan {
            placements: vec![
                UnitPlacement::Single(0),
                UnitPlacement::Single(1),
                UnitPlacement::Single(0),
            ],
        }
    }

    #[test]
    fn single_device_matches_local_exactly() {
        let (exec, compute, input) = setup(1);
        let plan = ExecutionPlan { placements: vec![UnitPlacement::Single(0); 3] };
        let (out, report) = exec
            .execute(&plan, &wire_all(BitWidth::B32, GridSpec::new(1, 1), 3), input.clone())
            .unwrap();
        let expect = local_reference(&compute, &input);
        assert_eq!(out.data(), expect.data());
        assert!(report.wall_ms >= 0.0);
        assert_eq!(report.retries + report.failovers + report.deadline_misses, 0);
        assert_eq!(report.reconnects + report.heartbeats_missed + report.resends_deduped, 0);
    }

    #[test]
    fn int8_units_distributed_matches_local_exactly() {
        use rand::{rngs::StdRng, SeedableRng};
        // Middle unit runs the int8 compute path; the int8 kernels are
        // bit-identical across devices (SIMD or scalar), so distributing
        // must reproduce the local pass exactly.
        let compute =
            Arc::new(ConvStackCompute::random_quantized(3, 2, 4, 7, &[false, true, false]));
        assert!(!compute.is_int8_unit(0));
        assert!(compute.is_int8_unit(1));
        let exec = Executor::new(3, compute.clone());
        let mut rng = StdRng::seed_from_u64(1);
        let input = Tensor::rand_uniform(Shape::nchw(1, 4, 12, 12), 1.0, &mut rng);
        let (out, _) = exec
            .execute(
                &remote_plan(),
                &wire_all(BitWidth::B32, GridSpec::new(1, 1), 3),
                input.clone(),
            )
            .unwrap();
        let expect = local_reference(&compute, &input);
        assert_eq!(out.data(), expect.data());

        // And the int8 unit genuinely diverges from its f32 twin — the
        // quantized path is being exercised, not silently skipped.
        let f32_twin = ConvStackCompute::random(3, 2, 4, 7);
        let f32_out = local_reference(&f32_twin, &input);
        assert_ne!(expect.data(), f32_out.data());
    }

    #[test]
    fn cross_device_b32_is_exact() {
        let (exec, compute, input) = setup(3);
        let plan = ExecutionPlan {
            placements: vec![
                UnitPlacement::Single(0),
                UnitPlacement::Single(2),
                UnitPlacement::Single(1),
            ],
        };
        let (out, _) = exec
            .execute(&plan, &wire_all(BitWidth::B32, GridSpec::new(1, 1), 3), input.clone())
            .unwrap();
        let expect = local_reference(&compute, &input);
        assert_eq!(out.data(), expect.data());
    }

    #[test]
    fn tiled_execution_matches_fdsp_semantics() {
        // Distributed 2x2-tiled execution must equal *local FDSP* execution
        // (tile → conv → merge) exactly, and differ from the monolithic
        // result only near seams.
        let (exec, compute, input) = setup(4);
        let grid = GridSpec::new(2, 2);
        let plan = ExecutionPlan {
            placements: vec![
                UnitPlacement::Tiled(vec![0, 1, 2, 3]),
                UnitPlacement::Single(0),
                UnitPlacement::Single(0),
            ],
        };
        let mut wire = wire_all(BitWidth::B32, GridSpec::new(1, 1), 3);
        wire[0].grid = grid;
        let (out, _) = exec.execute(&plan, &wire, input.clone()).unwrap();

        // Local FDSP reference for unit 0, then units 1–2 monolithic.
        let tiles = split_fdsp(&input, grid);
        let outs: Vec<Tensor> = tiles.iter().map(|t| compute.run_unit(0, t)).collect();
        let mut cur = merge_fdsp(&outs, grid);
        cur = compute.run_unit(1, &cur);
        cur = compute.run_unit(2, &cur);
        assert_eq!(out.data(), cur.data(), "distributed FDSP must equal local FDSP");

        // And it is *close* to the monolithic result overall.
        let mono = local_reference(&compute, &input);
        let err: f32 =
            out.data().iter().zip(mono.data().iter()).map(|(a, b)| (a - b).abs()).sum::<f32>()
                / out.numel() as f32;
        let scale: f32 = mono.data().iter().map(|v| v.abs()).sum::<f32>() / mono.numel() as f32;
        assert!(err < scale * 0.5, "seam error too large: {err} vs scale {scale}");
    }

    #[test]
    fn quantized_wire_stays_close() {
        let (exec, compute, input) = setup(2);
        let (out8, _) = exec
            .execute(&remote_plan(), &wire_all(BitWidth::B8, GridSpec::new(1, 1), 3), input.clone())
            .unwrap();
        let expect = local_reference(&compute, &input);
        let err: f32 =
            out8.data().iter().zip(expect.data().iter()).map(|(a, b)| (a - b).abs()).sum::<f32>()
                / out8.numel() as f32;
        let scale: f32 = expect.data().iter().map(|v| v.abs()).sum::<f32>() / expect.numel() as f32;
        assert!(err < scale * 0.1, "8-bit wire error {err} vs scale {scale}");
        // But not bit-identical (quantization really happened).
        assert_ne!(out8.data(), expect.data());
    }

    #[test]
    fn stream_outputs_match_sequential_in_order() {
        let (exec, compute, _) = setup(3);
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| Tensor::rand_uniform(Shape::nchw(1, 4, 10, 10), 1.0, &mut rng))
            .collect();
        let (outs, report) = exec.execute_stream(&[0, 1, 2], inputs.clone(), BitWidth::B32);
        assert_eq!(outs.len(), 5);
        assert!(report.wall_ms >= 0.0);
        for (input, out) in inputs.iter().zip(&outs) {
            let expect = local_reference(&compute, input);
            assert_eq!(
                out.as_ref().unwrap().data(),
                expect.data(),
                "pipelined result must be exact at B32"
            );
        }
    }

    #[test]
    fn stream_single_device_also_works() {
        let (exec, compute, input) = setup(1);
        let (outs, _) = exec.execute_stream(&[0, 0, 0], vec![input.clone()], BitWidth::B32);
        assert_eq!(outs[0].as_ref().unwrap().data(), local_reference(&compute, &input).data());
    }

    #[test]
    fn executor_shuts_down_cleanly() {
        let (exec, _, _) = setup(4);
        assert_eq!(exec.n_devices(), 4);
        drop(exec); // Drop joins all workers; hangs = test timeout.
    }

    // ---- fault handling ----

    fn fast_opts() -> ExecOptions {
        ExecOptions {
            deadline: Duration::from_millis(250),
            max_attempts: 3,
            backoff: Duration::from_millis(1),
            hedge: None,
        }
    }

    #[test]
    fn worker_killed_mid_request_fails_over_not_hangs() {
        // Regression: a worker that dies between accepting a job and
        // replying used to block the coordinator forever. Now the fresh
        // reply channel disconnects and the request fails over.
        let (exec, faulty, inner, input) = faulty_setup(2);
        faulty.script(1, 0, FaultKind::Vanish);
        let (out, report) = exec
            .execute_with(
                &remote_plan(),
                &wire_all(BitWidth::B32, GridSpec::new(1, 1), 3),
                input.clone(),
                fast_opts(),
            )
            .unwrap();
        assert_eq!(out.data(), local_reference(&inner, &input).data(), "failover stays exact");
        assert!(report.failovers >= 1, "must have failed over: {report:?}");
        assert!(!exec.is_alive(1), "crash must be discovered");
    }

    #[test]
    fn dead_device_with_no_retry_budget_is_a_typed_error() {
        let (exec, faulty, _, input) = faulty_setup(2);
        faulty.kill(1);
        let opts = ExecOptions { max_attempts: 1, ..fast_opts() };
        // Warm the crash: first call discovers device 1 is gone.
        let r1 = exec.execute_with(
            &remote_plan(),
            &wire_all(BitWidth::B32, GridSpec::new(1, 1), 3),
            input.clone(),
            opts,
        );
        match r1 {
            Err(ExecError::AttemptsExhausted { .. }) | Err(ExecError::DeviceDown { .. }) => {}
            other => panic!("expected typed failure, got {:?}", other.map(|(_, r)| r)),
        }
    }

    #[test]
    fn injected_panic_is_retried() {
        let (exec, faulty, inner, input) = faulty_setup(2);
        faulty.script(1, 0, FaultKind::Panic);
        let (out, report) = exec
            .execute_with(
                &remote_plan(),
                &wire_all(BitWidth::B32, GridSpec::new(1, 1), 3),
                input.clone(),
                fast_opts(),
            )
            .unwrap();
        assert_eq!(out.data(), local_reference(&inner, &input).data());
        assert!(report.retries >= 1, "panic must cost a retry: {report:?}");
    }

    #[test]
    fn stall_past_deadline_counts_and_fails_over() {
        let (exec, faulty, inner, input) = faulty_setup(2);
        faulty.script(1, 0, FaultKind::Stall(Duration::from_millis(600)));
        let (out, report) = exec
            .execute_with(
                &remote_plan(),
                &wire_all(BitWidth::B32, GridSpec::new(1, 1), 3),
                input.clone(),
                fast_opts(),
            )
            .unwrap();
        assert_eq!(out.data(), local_reference(&inner, &input).data());
        assert!(report.deadline_misses >= 1, "stall must miss the deadline: {report:?}");
        assert!(report.failovers >= 1, "stall must fail over: {report:?}");
    }

    #[test]
    fn corrupted_wire_is_detected_and_failed_over() {
        let (exec, compute, input) = setup(2);
        exec.set_wire_corruption(1, true);
        let (out, report) = exec
            .execute_with(
                &remote_plan(),
                &wire_all(BitWidth::B8, GridSpec::new(1, 1), 3),
                input.clone(),
                fast_opts(),
            )
            .unwrap();
        // Unit 1 fails over to device 0 — all-local execution is exact at
        // any precision because nothing crosses a device boundary.
        assert_eq!(out.data(), local_reference(&compute, &input).data());
        assert!(report.failovers >= 1, "corruption must fail over: {report:?}");
    }

    #[test]
    fn kill_and_restart_device_round_trip() {
        let (mut exec, compute, input) = setup(2);
        let wire = wire_all(BitWidth::B32, GridSpec::new(1, 1), 3);
        exec.kill_device(1);
        assert!(!exec.is_alive(1));
        let (out, report) =
            exec.execute_with(&remote_plan(), &wire, input.clone(), fast_opts()).unwrap();
        assert_eq!(out.data(), local_reference(&compute, &input).data());
        assert!(report.failovers >= 1);
        exec.restart_device(1);
        assert!(exec.is_alive(1));
        let (out, report) =
            exec.execute_with(&remote_plan(), &wire, input.clone(), fast_opts()).unwrap();
        assert_eq!(out.data(), local_reference(&compute, &input).data());
        assert_eq!(report.failovers, 0, "restarted device serves again: {report:?}");
    }

    #[test]
    fn tiled_execution_survives_a_dead_tile_device() {
        let (exec, faulty, inner, input) = faulty_setup(4);
        faulty.kill(3);
        let grid = GridSpec::new(2, 2);
        let plan = ExecutionPlan {
            placements: vec![
                UnitPlacement::Tiled(vec![0, 1, 2, 3]),
                UnitPlacement::Single(0),
                UnitPlacement::Single(0),
            ],
        };
        let mut wire = wire_all(BitWidth::B32, GridSpec::new(1, 1), 3);
        wire[0].grid = grid;
        let (out, report) = exec.execute_with(&plan, &wire, input.clone(), fast_opts()).unwrap();
        // Reference: local FDSP (tile placement does not change values).
        let tiles = split_fdsp(&input, grid);
        let outs: Vec<Tensor> = tiles.iter().map(|t| inner.run_unit(0, t)).collect();
        let mut cur = merge_fdsp(&outs, grid);
        cur = inner.run_unit(1, &cur);
        cur = inner.run_unit(2, &cur);
        assert_eq!(out.data(), cur.data(), "failover must not change tile math");
        assert!(report.deadline_misses >= 1 || report.failovers >= 1, "{report:?}");
    }

    #[test]
    fn stream_survives_mid_stream_crash() {
        use rand::{rngs::StdRng, SeedableRng};
        let (exec, faulty, inner, _) = faulty_setup(3);
        // Device 1 dies while serving its 3rd stream job.
        faulty.script(1, 2, FaultKind::Vanish);
        let mut rng = StdRng::seed_from_u64(11);
        let inputs: Vec<Tensor> = (0..6)
            .map(|_| Tensor::rand_uniform(Shape::nchw(1, 4, 10, 10), 1.0, &mut rng))
            .collect();
        let (outs, report) =
            exec.execute_stream_with(&[0, 1, 2], inputs.clone(), BitWidth::B32, fast_opts());
        assert_eq!(outs.len(), 6);
        for (input, out) in inputs.iter().zip(&outs) {
            let expect = local_reference(&inner, input);
            let got = out.as_ref().expect("every request must complete via failover");
            assert_eq!(got.data(), expect.data(), "B32 results stay exact across failover");
        }
        assert!(report.failovers >= 1, "crashed stage must fail over: {report:?}");
    }
}
