//! The request path, composed from outside through public functions only:
//! `SharedRuntime::tick`, `serve_decide`, `deploy`, then `SubnetSpec::lower`,
//! `Genome::plan` and `scheduler::dispatch_table`, then
//! `Executor::execute_with` over `InProcTransport` or
//! `AsyncTcpTransport`/`AsyncWorkerServer` with real `ConvStackCompute`
//! units. Also here: the correctness oracle and the two decorators the
//! traced run slots under the executor.

use crate::spans::{self, Tracer};
use crossbeam::channel::Sender;
use murmuration_core::executor::{
    ConvStackCompute, ExecOptions, ExecReport, Executor, UnitCompute, UnitOutcome, UnitWire,
};
use murmuration_core::scheduler::dispatch_table;
use murmuration_core::transport::{
    InProcTransport, SubmitError, Transport, TransportJob, TransportReply, TransportStats,
};
use murmuration_core::wire;
use murmuration_core::{RuntimeConfig, SharedRuntime};
use murmuration_edgesim::NetworkState;
use murmuration_partition::compliance::Slo;
use murmuration_partition::{ExecutionPlan, UnitPlacement};
use murmuration_rl::{LstmPolicy, Scenario, SloKind};
use murmuration_supernet::SubnetSpec;
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::{Shape, Tensor};
use murmuration_transport::{
    AsyncTcpTransport, AsyncTcpTransportConfig, AsyncWorkerServer, WorkerConfig,
};
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hidden width of the paper's LSTM policy. The policy is untrained and
/// sits behind the estimator guard: stage 3 is what is measured, not
/// stage 2.
pub const POLICY_HIDDEN: usize = 256;
/// Policy and weight seeds are part of the program's configuration, not of
/// the workload: `--seed` changes the inputs the program receives, never
/// the program.
pub const POLICY_SEED: u64 = 0x6d75_726d;
pub const WEIGHT_SEED: u64 = 3;
/// Units of a lowered subnet (stem + five stages + head).
pub const N_UNITS: usize = 7;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fleet {
    /// `Scenario::augmented_computing`: the coordinator and one remote.
    Augmented,
    /// `Scenario::device_swarm(4)`: four peers.
    Swarm4,
}

impl Fleet {
    pub fn scenario(self) -> Scenario {
        match self {
            Fleet::Augmented => Scenario::augmented_computing(SloKind::Latency),
            Fleet::Swarm4 => Scenario::device_swarm(4, SloKind::Latency),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    InProc,
    /// `AsyncTcpTransport` to one `AsyncWorkerServer` per device, hosted
    /// in this process on loopback.
    AsyncTcp,
}

/// The conv stack every unit runs, and the feature map it runs on.
#[derive(Clone, Copy, Debug)]
pub struct UnitShape {
    pub layers: usize,
    pub channels: usize,
    pub hw: usize,
    /// Units on the int8 compute path (`ConvStackCompute::random_quantized`).
    pub int8_units: [bool; N_UNITS],
}

impl UnitShape {
    pub fn input_shape(&self) -> Shape {
        Shape::nchw(1, self.channels, self.hw, self.hw)
    }

    /// Multiply-accumulates of one unit over `elems` input elements: each
    /// k3 same-padded layer does `channels × 9` per output element.
    /// Computed, not measured.
    pub fn macs(&self, elems: usize) -> u64 {
        (elems * self.channels * 9 * self.layers) as u64
    }
}

/// Everything that fixes a stack besides the seed.
#[derive(Clone, Copy, Debug)]
pub struct StackSpec {
    pub fleet: Fleet,
    pub transport: TransportKind,
    pub units: UnitShape,
    pub runtime: RuntimeConfig,
}

/// Times the hosted compute per unit/tile/device.
pub struct TimedCompute {
    inner: Arc<ConvStackCompute>,
    tracer: Arc<Tracer>,
}

impl UnitCompute for TimedCompute {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }

    fn run_unit(&self, unit: usize, input: &Tensor) -> Tensor {
        self.inner.run_unit(unit, input)
    }

    fn run_unit_on(&self, dev: usize, unit: usize, input: &Tensor) -> UnitOutcome {
        let start = self.tracer.now_ns();
        let out = self.inner.run_unit(unit, input);
        let end = self.tracer.now_ns();
        self.tracer.record_in_context(spans::COMPUTE, start, end, dev, unit, input.numel(), 0);
        UnitOutcome::Output(out)
    }
}

/// Times `submit` and computes the bytes each job puts on the wire.
pub struct TimedTransport {
    inner: Box<dyn Transport>,
    tracer: Arc<Tracer>,
    /// Over sockets every job is framed both ways; in process only a job
    /// that crosses a device boundary takes the encode/decode round trip.
    framed: bool,
}

impl TimedTransport {
    fn wire_bytes(&self, job: &TransportJob) -> usize {
        let rank = job.input.shape().rank();
        let elems = job.input.numel();
        let request_bits = if job.cross_boundary { job.quant } else { BitWidth::B32 };
        if self.framed {
            // The reply is a B32 frame of the unit's output, which these
            // shape-preserving units make the size of the input.
            wire::frame_bytes(elems, rank, request_bits)
                + wire::frame_bytes(elems, rank, BitWidth::B32)
        } else if job.cross_boundary {
            wire::frame_bytes(elems, rank, request_bits)
        } else {
            0
        }
    }
}

impl Transport for TimedTransport {
    fn n_devices(&self) -> usize {
        self.inner.n_devices()
    }
    fn is_alive(&self, dev: usize) -> bool {
        self.inner.is_alive(dev)
    }
    fn mark_dead(&self, dev: usize) {
        self.inner.mark_dead(dev);
    }
    fn submit(
        &self,
        dev: usize,
        job: TransportJob,
        reply: Sender<TransportReply>,
    ) -> Result<u64, SubmitError> {
        let (unit, elems, bytes) = (job.unit, job.input.numel(), self.wire_bytes(&job));
        let start = self.tracer.now_ns();
        let ticket = self.inner.submit(dev, job, reply);
        let end = self.tracer.now_ns();
        self.tracer.record_in_context(spans::SUBMIT, start, end, dev, unit, elems, bytes);
        ticket
    }
    fn cancel(&self, dev: usize, ticket: u64) {
        self.inner.cancel(dev, ticket);
    }
    fn kill_device(&self, dev: usize) {
        self.inner.kill_device(dev);
    }
    fn restart_device(&mut self, dev: usize) {
        self.inner.restart_device(dev);
    }
    fn set_wire_corruption(&self, dev: usize, on: bool) {
        self.inner.set_wire_corruption(dev, on);
    }
    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
    fn link_rtt_ms(&self, dev: usize) -> Option<f64> {
        self.inner.link_rtt_ms(dev)
    }
    fn send_gossip(&self, dev: usize, payload: &[u8]) -> bool {
        self.inner.send_gossip(dev, payload)
    }
    fn drain_gossip(&self) -> Vec<Vec<u8>> {
        self.inner.drain_gossip()
    }
    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

/// What the executor was asked to do, reduced to what its work depends on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanShape {
    /// FNV-1a over placements, grids and wire precisions.
    pub digest: u64,
    pub tiled_units: u32,
    /// Units with work on a device other than the coordinator.
    pub remote_units: u32,
    /// Units whose input crosses a device boundary on an 8-bit wire.
    pub b8_hops: u32,
    /// All placements single with no lossy hop: equals the local chain.
    pub lossless_single: bool,
}

impl PlanShape {
    pub fn of(plan: &ExecutionPlan, table: &[UnitWire]) -> PlanShape {
        let mut h = Fnv::default();
        let (mut tiled_units, mut remote_units, mut b8_hops) = (0, 0, 0);
        let mut lossless_single = true;
        let mut loc = 0usize;
        for (placement, w) in plan.placements.iter().zip(table) {
            h.write(&[w.grid.rows as u64, w.grid.cols as u64, w.in_quant.bits() as u64]);
            let devs: &[usize] = match placement {
                UnitPlacement::Single(d) => std::slice::from_ref(d),
                UnitPlacement::Tiled(devs) => {
                    tiled_units += 1;
                    lossless_single = false;
                    h.write(&[u64::MAX]);
                    devs
                }
            };
            for &d in devs {
                h.write(&[d as u64]);
            }
            remote_units += u32::from(devs.iter().any(|&d| d != 0));
            if devs.iter().any(|&d| d != loc) && w.in_quant != BitWidth::B32 {
                lossless_single = false;
                b8_hops += u32::from(w.in_quant == BitWidth::B8);
            }
            loc = devs[0];
        }
        PlanShape { digest: h.0, tiled_units, remote_units, b8_hops, lossless_single }
    }
}

/// FNV-1a over 64-bit words.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// The correctness oracle: a second, undecorated in-process executor over
/// the same weights. The first time a (plan, input) pair is seen its
/// reference output is computed, untimed; every later output of the pair —
/// over whichever transport — must equal it bit for bit.
struct Oracle {
    exec: Executor,
    compute: Arc<ConvStackCompute>,
    seen: HashMap<(u64, usize), Tensor>,
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Oracle {
    /// The reference output for `(shape, input_idx)`, computed at first
    /// sight. A lossless all-single plan is also held to the local
    /// `run_unit` chain.
    fn reference(
        &mut self,
        shape: &PlanShape,
        plan: &ExecutionPlan,
        table: &[UnitWire],
        input_idx: usize,
        input: &Tensor,
    ) -> Result<&Tensor, String> {
        use std::collections::hash_map::Entry;
        match self.seen.entry((shape.digest, input_idx)) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(slot) => {
                let (out, _) = self
                    .exec
                    .execute_with(plan, table, input.clone(), ExecOptions::default())
                    .map_err(|e| format!("oracle executor failed: {e}"))?;
                if shape.lossless_single {
                    let mut cur = input.clone();
                    for unit in 0..self.compute.n_units() {
                        cur = self.compute.run_unit(unit, &cur);
                    }
                    if !same_bits(&out, &cur) {
                        return Err("lossless single plan differs from the local chain".into());
                    }
                }
                Ok(slot.insert(out))
            }
        }
    }
}

/// Wall-clock marks of one request, as `Instant`s on the client thread.
#[derive(Clone, Copy, Debug)]
pub struct Marks {
    pub tick_start: Instant,
    pub decide_start: Instant,
    pub deploy_start: Instant,
    pub lower_start: Instant,
    pub execute_start: Instant,
    pub done: Instant,
}

impl Marks {
    pub fn ns(from: Instant, to: Instant) -> u64 {
        to.saturating_duration_since(from).as_nanos() as u64
    }
    pub fn tick_ns(&self) -> u64 {
        Self::ns(self.tick_start, self.decide_start)
    }
    pub fn decide_ns(&self) -> u64 {
        Self::ns(self.decide_start, self.deploy_start)
    }
    pub fn deploy_ns(&self) -> u64 {
        Self::ns(self.deploy_start, self.lower_start)
    }
    pub fn lower_ns(&self) -> u64 {
        Self::ns(self.lower_start, self.execute_start)
    }
    pub fn execute_ns(&self) -> u64 {
        Self::ns(self.execute_start, self.done)
    }
    /// `serve_decide` start to merged result.
    pub fn latency_ns(&self) -> u64 {
        Self::ns(self.decide_start, self.done)
    }
    /// Client busy time: tick plus request path.
    pub fn busy_ns(&self) -> u64 {
        Self::ns(self.tick_start, self.done)
    }
}

/// One request's record: timings, what the program reported, the verdict.
#[derive(Clone, Debug)]
pub struct Served {
    pub marks: Marks,
    /// `ServeDecision::cached`, as the program reports it.
    pub cached: bool,
    /// `DeployReport::switch_time`.
    pub switch_ns: u64,
    /// The decided subnet differs from the previous request's.
    pub switched: bool,
    pub shape: PlanShape,
    pub report: ExecReport,
    /// `None` when the output equals the oracle's bit for bit.
    pub failure: Option<String>,
}

/// The assembled system under test plus its oracle.
pub struct Stack {
    pub rt: SharedRuntime,
    pub scenario: Scenario,
    exec: Executor,
    servers: Vec<AsyncWorkerServer>,
    oracle: Oracle,
    tracer: Option<Arc<Tracer>>,
    last_config: Option<murmuration_supernet::SubnetConfig>,
}

impl Stack {
    /// Builds runtime, policy, workers, transport, executor and oracle.
    /// With a tracer the compute and transport decorators are slotted in;
    /// without one the executor runs over the bare program.
    pub fn build(spec: StackSpec, tracer: Option<Arc<Tracer>>) -> Result<Stack, String> {
        let scenario = spec.fleet.scenario();
        let n_dev = scenario.devices.len();
        let policy =
            LstmPolicy::new(scenario.input_dim(), POLICY_HIDDEN, scenario.arities(), POLICY_SEED);
        let initial_slo = Slo::LatencyMs(scenario.slo_range.1);
        let rt = SharedRuntime::new(scenario.clone(), policy, spec.runtime, initial_slo);

        let u = spec.units;
        let compute = Arc::new(ConvStackCompute::random_quantized(
            N_UNITS,
            u.layers,
            u.channels,
            WEIGHT_SEED,
            &u.int8_units,
        ));
        let hosted: Arc<dyn UnitCompute> = match &tracer {
            Some(t) => Arc::new(TimedCompute { inner: compute.clone(), tracer: t.clone() }),
            None => compute.clone(),
        };
        let mut servers = Vec::new();
        let bare: Box<dyn Transport> = match spec.transport {
            TransportKind::InProc => Box::new(InProcTransport::new(n_dev, hosted)),
            TransportKind::AsyncTcp => {
                let mut addrs = Vec::with_capacity(n_dev);
                for dev_id in 0..n_dev {
                    let cfg = WorkerConfig { dev_id, ..Default::default() };
                    let srv = AsyncWorkerServer::bind("127.0.0.1:0", hosted.clone(), cfg)
                        .map_err(|e| format!("bind loopback worker {dev_id}: {e}"))?;
                    addrs.push(srv.local_addr().to_string());
                    servers.push(srv);
                }
                let t = AsyncTcpTransport::connect(&addrs, AsyncTcpTransportConfig::default());
                if !t.wait_connected(Duration::from_secs(10)) {
                    return Err("loopback workers did not connect within 10 s".into());
                }
                Box::new(t)
            }
        };
        let transport: Box<dyn Transport> = match &tracer {
            Some(t) => Box::new(TimedTransport {
                inner: bare,
                tracer: t.clone(),
                framed: spec.transport == TransportKind::AsyncTcp,
            }),
            None => bare,
        };
        let oracle =
            Oracle { exec: Executor::new(n_dev, compute.clone()), compute, seen: HashMap::new() };
        Ok(Stack {
            rt,
            scenario,
            exec: Executor::with_transport(transport),
            servers,
            oracle,
            tracer,
            last_config: None,
        })
    }

    /// Serves one request end to end and verifies its output. `req` and
    /// the spans only matter to a traced stack. Verification — and the
    /// oracle's first-sight reference — happen after the last mark, so
    /// they are in no timing.
    #[allow(clippy::too_many_arguments)]
    pub fn serve(
        &mut self,
        req: u32,
        slo_ms: f64,
        net: &NetworkState,
        t_ms: f64,
        input_idx: usize,
        input: &Tensor,
        rng: &mut StdRng,
    ) -> Result<Served, String> {
        let n_dev = self.scenario.devices.len();
        let owned = input.clone();
        let (root_id, exec_id) = match &self.tracer {
            Some(t) => {
                let ids = (t.alloc_id(), t.alloc_id());
                t.set_context(req, ids.1);
                ids
            }
            None => (0, 0),
        };

        let tick_start = Instant::now();
        self.rt.tick(net, t_ms, rng);
        let decide_start = Instant::now();
        let decision =
            self.rt.serve_decide(Slo::LatencyMs(slo_ms)).ok_or("monitor not ready after a tick")?;
        let deploy_start = Instant::now();
        let deployed = self.rt.deploy(&decision, net);
        let lower_start = Instant::now();
        let subnet = SubnetSpec::lower(&decision.genome.config);
        let plan = decision.genome.plan(&subnet, n_dev);
        let table = dispatch_table(&subnet, &plan, n_dev).map_err(|e| e.to_string())?;
        let execute_start = Instant::now();
        let executed = self.exec.execute_with(&plan, &table, owned, ExecOptions::default());
        let done = Instant::now();
        let marks =
            Marks { tick_start, decide_start, deploy_start, lower_start, execute_start, done };

        if let Some(t) = &self.tracer {
            let at = |i: Instant| t.ns_of(i);
            t.record(root_id, 0, req, spans::REQUEST, at(tick_start), at(done));
            for (name, from, to) in [
                (spans::TICK, tick_start, decide_start),
                (spans::DECIDE, decide_start, deploy_start),
                (spans::DEPLOY, deploy_start, lower_start),
                (spans::LOWER, lower_start, execute_start),
            ] {
                t.record(t.alloc_id(), root_id, req, name, at(from), at(to));
            }
            t.record(exec_id, root_id, req, spans::EXECUTE, at(execute_start), at(done));
        }

        let shape = PlanShape::of(&plan, &table);
        let switched = self.last_config.as_ref() != Some(&decision.genome.config);
        self.last_config = Some(decision.genome.config.clone());
        let (report, failure) = match executed {
            Err(e) => (ExecReport::default(), Some(format!("ExecError: {e}"))),
            Ok((out, report)) => {
                let verdict = match self.oracle.reference(&shape, &plan, &table, input_idx, input) {
                    Ok(reference) if same_bits(&out, reference) => None,
                    Ok(_) => Some("output differs from the oracle".to_string()),
                    Err(e) => Some(e),
                };
                (report, verdict)
            }
        };
        if deployed.degradation.is_degraded() {
            return Err("healthy fleet served a degraded deployment".into());
        }
        Ok(Served {
            marks,
            cached: decision.cached,
            switch_ns: deployed.switch_time.as_nanos() as u64,
            switched,
            shape,
            report,
            failure,
        })
    }

    /// The tracer of a traced stack.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Cumulative transport counters of the system under test.
    pub fn transport_stats(&self) -> TransportStats {
        self.exec.transport_stats()
    }

    /// Drains the transport and stops the hosted workers.
    pub fn shutdown(mut self) {
        self.exec.shutdown();
        self.oracle.exec.shutdown();
        for s in &mut self.servers {
            s.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use murmuration_tensor::tile::GridSpec;

    fn wire(grid: (usize, usize), in_quant: BitWidth) -> UnitWire {
        UnitWire { grid: GridSpec::new(grid.0, grid.1), in_quant }
    }

    #[test]
    fn plan_shape_counts_what_the_executor_pays_for() {
        let plan = ExecutionPlan {
            placements: vec![
                UnitPlacement::Single(0),
                UnitPlacement::Tiled(vec![0, 1, 2, 3]),
                UnitPlacement::Single(1),
                UnitPlacement::Single(1),
            ],
        };
        let table = vec![
            wire((1, 1), BitWidth::B32),
            wire((2, 2), BitWidth::B32),
            wire((1, 1), BitWidth::B8),
            wire((1, 1), BitWidth::B8),
        ];
        let shape = PlanShape::of(&plan, &table);
        assert_eq!((shape.tiled_units, shape.remote_units), (1, 3));
        // Unit 2 arrives from the tile gather on device 0 over a B8 wire;
        // unit 3 stays on device 1, so its B8 setting never applies.
        assert_eq!(shape.b8_hops, 1);
        assert!(!shape.lossless_single);

        let local = ExecutionPlan { placements: vec![UnitPlacement::Single(0); 2] };
        let quiet = vec![wire((1, 1), BitWidth::B32), wire((1, 1), BitWidth::B8)];
        let s = PlanShape::of(&local, &quiet);
        assert!(s.lossless_single, "no hop, so the B8 wire setting is never used");
        assert_ne!(s.digest, shape.digest);
        assert_eq!(s, PlanShape::of(&local, &quiet));
    }
}
