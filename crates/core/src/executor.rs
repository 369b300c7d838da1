//! The distributed Executor: the coordinator that drives a fleet of
//! device workers through a [`Transport`] — in-process worker threads
//! ([`InProcTransport`]) or real worker processes over TCP
//! (`murmuration_transport::AsyncTcpTransport`).
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
//! Devices can crash (the worker exits; its jobs answer a link error),
//! stall (reply arrives after the deadline), panic (worker survives,
//! request fails), garble frames in transit (checksum failure), or — over
//! TCP — lose their connection mid-request. The coordinator never blocks
//! forever on any of them: every entry point runs its work as slots of one
//! attempt state machine (`attempt`, which states the recovery rules) — a
//! `Single` unit is one slot, a tiled unit one per FDSP tile, a stream one
//! per request moving stage to stage — and exhaustion surfaces as a typed
//! [`ExecError`] instead of a panic or a hang. Connection supervision (heartbeats,
//! reconnect, resend dedup) happens below the trait; its counters surface
//! in [`ExecReport`].
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod attempt;

use crate::health::LatencyTracker;
use crate::transport::{InProcTransport, Transport, TransportStats};
use crate::wire::WireError;
use attempt::{drive, Ctx, Slot, Work};
use crossbeam::channel::unbounded;
use murmuration_partition::{ExecutionPlan, UnitPlacement};
use murmuration_tensor::activation::relu_inplace;
use murmuration_tensor::conv::{conv2d_relu, Conv2dParams};
use murmuration_tensor::int8::{qconv2d, QConv2dWeights};
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::tile::{merge_fdsp, split_fdsp, GridSpec};
use murmuration_tensor::{Shape, Tensor};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one worker invocation produced. The `Vanish` arm lets fault
/// injectors simulate a process crash: the worker thread exits, and the
/// transport answers its jobs with a link error, like a killed remote peer.
pub enum UnitOutcome {
    /// Normal completion.
    Output(Tensor),
    /// Simulated crash: the worker thread exits without computing.
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

/// Execution report.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecReport {
    /// Measured wall time of the distributed execution (host time).
    pub wall_ms: f64,
    /// Attempts sent after a failed one (an error reply, a dead worker, a
    /// missed deadline). Falling to the next device when a send is refused
    /// happens within an attempt and is not a retry.
    pub retries: u32,
    /// Completions whose winning primary ran on a device other than the
    /// planned one (a hedge win counts in `hedges_won` instead).
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

impl Executor {
    /// Spawns one in-process worker thread per device — the classic
    /// single-process mode.
    pub fn new(n_devices: usize, compute: Arc<dyn UnitCompute>) -> Self {
        Self::with_transport(Box::new(InProcTransport::new(n_devices, compute)))
    }

    /// Builds an executor over an arbitrary transport (e.g. a
    /// `AsyncTcpTransport` reaching remote worker processes).
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

    /// Observed per-attempt latency quantile for `dev`, if enough history
    /// exists (feeds gray-health reporting and diagnostics).
    pub fn latency_quantile(&self, dev: usize, q: f64) -> Option<f64> {
        self.lat.lock().get(dev).and_then(|t| t.quantile(q))
    }

    /// When hedging should fire for an attempt on `dev`: `factor ×` the
    /// latency quantile, floored, if that beats the attempt deadline. The
    /// quantile is `min(dev's own, fleet median)`: a persistent straggler
    /// inflates its own history until it no longer looks slow to itself,
    /// so its trigger stays anchored to what its peers prove achievable,
    /// while a device with a tight history keeps its own.
    fn hedge_trigger(&self, dev: usize, h: &HedgeOptions, deadline: Duration) -> Option<Duration> {
        let lat = self.lat.lock();
        let armed = |t: &LatencyTracker| {
            (t.len() >= h.min_samples).then(|| t.quantile(h.quantile)).flatten()
        };
        let own = armed(lat.get(dev)?)?;
        let mut fleet: Vec<f64> = lat.iter().filter_map(armed).collect(); // holds `own`
        fleet.sort_by(f64::total_cmp);
        let q_ms = own.min(fleet[(fleet.len() - 1) / 2]);
        let trigger_s = (q_ms * h.factor / 1e3).max(h.min_trigger.as_secs_f64());
        let trigger = Duration::from_secs_f64(trigger_s);
        (trigger < deadline).then_some(trigger)
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
        for (u, p) in plan.placements.iter().enumerate() {
            p.tiles().iter().for_each(|&d| self.check_device(u, d));
        }
        let (start, stats0) = (Instant::now(), self.transport.stats());
        let mut ctx = Ctx::new(self, opts);
        let mut data = Arc::new(input);
        let mut loc: usize = 0; // device currently holding `data`
        for (unit, (placement, w)) in plan.placements.iter().zip(wire).enumerate() {
            let (out, dev) = run_unit(&mut ctx, unit, placement, w, &data, loc)?;
            data = Arc::new(out);
            loc = dev;
        }
        // Result returns to device 0 (tiny logits; precision kept).
        let out = Arc::try_unwrap(data).unwrap_or_else(|a| (*a).clone());
        Ok((out, self.finish(ctx.report, start, stats0)))
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
        device_of_unit.iter().enumerate().for_each(|(u, &d)| self.check_device(u, d));
        let (start, stats0) = (Instant::now(), self.transport.stats());
        let mut ctx = Ctx::new(self, opts);
        let (tx, rx) = unbounded();
        let plan = device_of_unit;
        let stage = |unit: usize, input, loc| Work { unit, planned: plan[unit], input, loc, quant };
        let mut slots: Vec<Slot> = inputs
            .into_iter()
            .enumerate()
            .map(|(i, x)| Slot::new(i, true, tx.clone(), stage(0, Arc::new(x), 0)))
            .collect();
        let mut results: Vec<Result<Tensor, ExecError>> =
            (0..slots.len()).map(|unit| Err(ExecError::NoDevice { unit })).collect();
        drive(&mut ctx, &mut slots, &rx, |i, slot, settled| {
            match settled {
                // A finished stage hands its output to the next stage,
                // shipped from the device that computed it.
                Ok((t, dev)) if slot.unit() + 1 < plan.len() => {
                    slot.stage(stage(slot.unit() + 1, Arc::new(t), dev))
                }
                settled => results[i] = settled.map(|(t, _)| t),
            }
            false
        });
        (results, self.finish(ctx.report, start, stats0))
    }

    /// Panics on a plan device this executor does not reach.
    fn check_device(&self, unit: usize, dev: usize) {
        assert!(dev < self.n_devices(), "unit {unit} placed on unknown device {dev}");
    }

    /// Stamps the wall time and the transport's counters since `stats0`.
    fn finish(&self, mut r: ExecReport, start: Instant, stats0: TransportStats) -> ExecReport {
        let d = self.transport.stats().since(&stats0);
        r.wall_ms = start.elapsed().as_secs_f64() * 1e3;
        (r.reconnects, r.heartbeats_missed) = (d.reconnects, d.heartbeats_missed);
        (r.resends_deduped, r.cancels_delivered) = (d.resends_deduped, d.cancels_delivered);
        r
    }
}

/// Runs one unit of a plan on `data` (held by `loc`): a `Single` is one
/// slot, `Tiled` one slot per FDSP tile, merged on the device that ran
/// tile 0. The reply channel is the unit's own: a new slot numbers its
/// attempts from 1 again, so a late reply for an earlier unit must not
/// reach it.
fn run_unit(
    ctx: &mut Ctx<'_>,
    unit: usize,
    placement: &UnitPlacement,
    w: &UnitWire,
    data: &Arc<Tensor>,
    loc: usize,
) -> Result<(Tensor, usize), ExecError> {
    let work = |planned, input| Work { unit, planned, input, loc, quant: w.in_quant };
    let (tx, rx) = unbounded();
    let devs = match placement {
        UnitPlacement::Single(d) => {
            let mut slot = Slot::new(0, true, tx, work(*d, Arc::clone(data)));
            let mut out = Err(ExecError::NoDevice { unit });
            drive(ctx, std::slice::from_mut(&mut slot), &rx, |_, _, settled| {
                out = settled;
                true
            });
            return out;
        }
        UnitPlacement::Tiled(devs) => devs,
    };
    assert_eq!(devs.len(), w.grid.tiles(), "tile/device count");
    let mut slots: Vec<Slot> = split_fdsp(data, w.grid)
        .into_iter()
        .zip(devs)
        .enumerate()
        .map(|(tag, (tile, &d))| Slot::new(tag, false, tx.clone(), work(d, Arc::new(tile))))
        .collect();
    let mut outs: Vec<Option<Tensor>> = (0..slots.len()).map(|_| None).collect();
    let (mut gather, mut failed) = (loc, None);
    drive(ctx, &mut slots, &rx, |tag, _, settled| {
        match settled {
            Ok((t, dev)) => (outs[tag], gather) = (Some(t), if tag == 0 { dev } else { gather }),
            Err(e) => failed = Some(e),
        }
        failed.is_some()
    });
    failed.map_or(Ok(()), Err)?;
    let outs: Option<Vec<Tensor>> = outs.into_iter().collect();
    Ok((merge_fdsp(&outs.ok_or(ExecError::NoDevice { unit })?, w.grid), gather))
}

/// A concrete [`UnitCompute`]: stacks of same-padded convolutions with
/// ReLU — the structure of the supernet's convolutional stages, sized for
/// tests and examples. Deterministic from its seed, so a remote worker
/// process built with the same parameters hosts bit-identical weights.
///
/// Units whose plan selects 8-bit compute
/// ([`ExecUnit::compute_bits`](murmuration_supernet::ExecUnit::compute_bits)) carry pre-quantized int8 weights alongside the f32
/// originals and run the `murmuration_tensor::int8` path. Quantization
/// happens at construction — deterministic from the same seed — and the
/// int8 kernels round identically on every device (SIMD or scalar), so
/// distributed execution still reproduces local execution bit for bit.
pub struct ConvStackCompute {
    /// Per unit: a list of (weight, bias, params) conv layers.
    units: Vec<Vec<(Tensor, Tensor, Conv2dParams)>>,
    /// Per unit: int8 weights for units running the quantized compute path
    /// (`None` = f32 unit).
    qunits: Vec<Option<Vec<QConv2dWeights>>>,
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
        let p = Conv2dParams::same(3);
        let mut layer = || {
            let w = Tensor::kaiming(Shape::nchw(channels, channels, 3, 3), channels * 9, &mut rng);
            (w, Tensor::zeros(Shape::d1(channels)), p)
        };
        let units: Vec<Vec<(Tensor, Tensor, Conv2dParams)>> =
            (0..n_units).map(|_| (0..layers_per_unit).map(|_| layer()).collect()).collect();
        let qunits =
            units
                .iter()
                .enumerate()
                .map(|(u, layers)| {
                    int8_units.get(u).copied().unwrap_or(false).then(|| {
                        layers.iter().map(|(w, _, _)| QConv2dWeights::quantize(w)).collect()
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
                    let mut y = qconv2d(x, &qlayers[l], Some(b), *p);
                    relu_inplace(&mut y);
                    y
                }
                None => conv2d_relu(x, w, Some(b), *p),
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
        // replying used to block the coordinator forever. Now the dropped
        // job answers `Link` and the request fails over.
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
        assert_eq!(report.deadline_misses, 0, "a Link reply is death, not a stall: {report:?}");
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

    /// A deadline no test below may reach: a vanished worker must be seen
    /// through its `Link` reply, at once.
    fn slow_deadline_opts() -> ExecOptions {
        ExecOptions { deadline: Duration::from_secs(3), ..fast_opts() }
    }

    #[test]
    fn vanished_tile_device_fails_over_without_a_deadline_miss() {
        let (exec, faulty, inner, input) = faulty_setup(4);
        faulty.script(3, 0, FaultKind::Vanish);
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
        let (out, report) =
            exec.execute_with(&plan, &wire, input.clone(), slow_deadline_opts()).unwrap();
        let outs: Vec<Tensor> =
            split_fdsp(&input, grid).iter().map(|t| inner.run_unit(0, t)).collect();
        let expect = inner.run_unit(2, &inner.run_unit(1, &merge_fdsp(&outs, grid)));
        assert_eq!(out.data(), expect.data());
        assert_eq!(report.deadline_misses, 0, "{report:?}");
        assert_eq!((report.retries, report.failovers), (1, 1), "{report:?}");
        assert!(!exec.is_alive(3));
    }

    #[test]
    fn vanished_stream_stage_fails_over_without_a_deadline_miss() {
        use rand::{rngs::StdRng, SeedableRng};
        let (exec, faulty, inner, _) = faulty_setup(3);
        faulty.script(1, 0, FaultKind::Vanish);
        let mut rng = StdRng::seed_from_u64(11);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| Tensor::rand_uniform(Shape::nchw(1, 4, 10, 10), 1.0, &mut rng))
            .collect();
        let (outs, report) = exec.execute_stream_with(
            &[0, 1, 2],
            inputs.clone(),
            BitWidth::B32,
            slow_deadline_opts(),
        );
        for (input, out) in inputs.iter().zip(&outs) {
            assert_eq!(out.as_ref().unwrap().data(), local_reference(&inner, input).data());
        }
        assert_eq!(report.deadline_misses, 0, "{report:?}");
        assert_eq!(report.failovers, 4, "every request's stage 1 ran off-plan: {report:?}");
    }

    #[test]
    #[should_panic(expected = "unit 1 placed on unknown device 5")]
    fn plan_on_an_unknown_device_is_rejected_up_front() {
        let (exec, _, input) = setup(3);
        let plan = ExecutionPlan {
            placements: vec![
                UnitPlacement::Single(0),
                UnitPlacement::Single(5),
                UnitPlacement::Single(0),
            ],
        };
        let _ = exec.execute(&plan, &wire_all(BitWidth::B32, GridSpec::new(1, 1), 3), input);
    }

    #[test]
    #[should_panic(expected = "unit 2 placed on unknown device 5")]
    fn stream_on_an_unknown_device_is_rejected_up_front() {
        let (exec, _, input) = setup(3);
        let _ = exec.execute_stream(&[0, 1, 5], vec![input], BitWidth::B32);
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
