//! Transport parity: the executor must produce bit-identical B32 results
//! whether its workers are in-process threads or real TCP worker servers
//! on loopback — same plan, same seed, same math. This is the contract
//! that lets `SharedRuntime` and the serve layer run unchanged over either
//! transport.
//!
//! The TCP side is `AsyncTcpTransport` driving `AsyncWorkerServer`s on
//! loopback: TCP == inproc must hold bit-for-bit whether the coordinator
//! multiplexes every peer onto one event-loop thread (the un-suffixed
//! test) or spreads them across the default per-core driver pool (the
//! `_async` test).

use murmuration::partition::{ExecutionPlan, UnitPlacement};
use murmuration::runtime::executor::{
    ConvStackCompute, ExecOptions, Executor, UnitCompute, UnitWire,
};
use murmuration::tensor::quant::BitWidth;
use murmuration::tensor::tile::GridSpec;
use murmuration::tensor::{Shape, Tensor};
use murmuration::testkit::with_watchdog;
use murmuration::transport::{
    AsyncTcpTransport, AsyncTcpTransportConfig, AsyncWorkerServer, TcpTransportConfig, WorkerConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// In-process worker servers standing in for worker processes: same
/// sockets, same framing, same supervision — only the process boundary is
/// missing (the CLI smoke test covers that part).
fn spawn_workers(
    n: usize,
    compute: &Arc<ConvStackCompute>,
) -> (Vec<AsyncWorkerServer>, Vec<String>) {
    let mut servers = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for dev in 0..n {
        let cfg = WorkerConfig { dev_id: dev, ..Default::default() };
        let srv =
            AsyncWorkerServer::bind("127.0.0.1:0", compute.clone() as Arc<dyn UnitCompute>, cfg)
                .expect("bind worker");
        addrs.push(srv.local_addr().to_string());
        servers.push(srv);
    }
    (servers, addrs)
}

/// Every peer on one event-loop thread.
const SHARED_LOOP: usize = 1;
/// The default driver pool: one event-loop thread per core.
const DRIVER_POOL: usize = 0;

fn tcp_executor(drivers: usize, addrs: &[String]) -> Executor {
    let base = TcpTransportConfig {
        heartbeat_interval: Duration::from_millis(50),
        connect_timeout: Duration::from_millis(300),
        ..Default::default()
    };
    let cfg = AsyncTcpTransportConfig { base, n_drivers: drivers, ..Default::default() };
    let transport = AsyncTcpTransport::connect(addrs, cfg);
    assert!(transport.wait_connected(Duration::from_secs(10)), "workers must come up on loopback");
    Executor::with_transport(Box::new(transport))
}

fn opts() -> ExecOptions {
    ExecOptions {
        deadline: Duration::from_secs(5),
        max_attempts: 3,
        backoff: Duration::from_millis(1),
        hedge: None,
    }
}

fn test_input(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::rand_uniform(Shape::nchw(1, 4, 12, 12), 1.0, &mut rng)
}

fn b32_plan_is_bit_identical_across_transports_on(drivers: usize) {
    with_watchdog(move || {
        let compute = Arc::new(ConvStackCompute::random(3, 2, 4, 7));
        let plan = ExecutionPlan {
            placements: vec![
                UnitPlacement::Single(0),
                UnitPlacement::Single(1),
                UnitPlacement::Single(0),
            ],
        };
        let wire = vec![UnitWire { grid: GridSpec::new(1, 1), in_quant: BitWidth::B32 }; 3];
        let input = test_input(1);

        let inproc = Executor::new(2, compute.clone());
        let (out_inproc, _) = inproc.execute_with(&plan, &wire, input.clone(), opts()).unwrap();

        let (_servers, addrs) = spawn_workers(2, &compute);
        let tcp = tcp_executor(drivers, &addrs);
        let (out_tcp, report) = tcp.execute_with(&plan, &wire, input, opts()).unwrap();

        assert_eq!(
            out_tcp.data(),
            out_inproc.data(),
            "B32 results must be bit-identical between tcp and inproc"
        );
        assert_eq!(report.reconnects, 0, "happy path must not reconnect: {report:?}");
    });
}

#[test]
fn b32_plan_is_bit_identical_across_transports() {
    b32_plan_is_bit_identical_across_transports_on(SHARED_LOOP);
}

#[test]
fn b32_plan_is_bit_identical_across_transports_async() {
    b32_plan_is_bit_identical_across_transports_on(DRIVER_POOL);
}

fn quantized_and_tiled_plans_also_agree_exactly_on(drivers: usize) {
    with_watchdog(move || {
        let compute = Arc::new(ConvStackCompute::random(3, 2, 4, 7));
        // Unit 0 tiled 2x2, units 1-2 single, with an 8-bit wire: the
        // quantization round trip is deterministic, so both transports see
        // the exact same lossy bytes.
        let grid = GridSpec::new(2, 2);
        let plan = ExecutionPlan {
            placements: vec![
                UnitPlacement::Tiled(vec![0, 1, 2, 3]),
                UnitPlacement::Single(2),
                UnitPlacement::Single(0),
            ],
        };
        let mut wire = vec![UnitWire { grid: GridSpec::new(1, 1), in_quant: BitWidth::B8 }; 3];
        wire[0].grid = grid;
        let input = test_input(5);

        let inproc = Executor::new(4, compute.clone());
        let (out_inproc, _) = inproc.execute_with(&plan, &wire, input.clone(), opts()).unwrap();

        let (_servers, addrs) = spawn_workers(4, &compute);
        let tcp = tcp_executor(drivers, &addrs);
        let (out_tcp, _) = tcp.execute_with(&plan, &wire, input, opts()).unwrap();

        assert_eq!(
            out_tcp.data(),
            out_inproc.data(),
            "deterministic quantization must agree across transports"
        );
    });
}

#[test]
fn quantized_and_tiled_plans_also_agree_exactly() {
    quantized_and_tiled_plans_also_agree_exactly_on(SHARED_LOOP);
}

#[test]
fn quantized_and_tiled_plans_also_agree_exactly_async() {
    quantized_and_tiled_plans_also_agree_exactly_on(DRIVER_POOL);
}

fn streamed_pipeline_agrees_across_transports_on(drivers: usize) {
    with_watchdog(move || {
        let compute = Arc::new(ConvStackCompute::random(3, 2, 4, 7));
        let mut rng = StdRng::seed_from_u64(11);
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| Tensor::rand_uniform(Shape::nchw(1, 4, 10, 10), 1.0, &mut rng))
            .collect();

        let inproc = Executor::new(3, compute.clone());
        let (outs_inproc, _) =
            inproc.execute_stream_with(&[0, 1, 2], inputs.clone(), BitWidth::B32, opts());

        let (_servers, addrs) = spawn_workers(3, &compute);
        let tcp = tcp_executor(drivers, &addrs);
        let (outs_tcp, _) = tcp.execute_stream_with(&[0, 1, 2], inputs, BitWidth::B32, opts());

        for (a, b) in outs_tcp.iter().zip(outs_inproc.iter()) {
            assert_eq!(
                a.as_ref().unwrap().data(),
                b.as_ref().unwrap().data(),
                "streamed B32 outputs must be bit-identical"
            );
        }
    });
}

#[test]
fn streamed_pipeline_agrees_across_transports() {
    streamed_pipeline_agrees_across_transports_on(SHARED_LOOP);
}

#[test]
fn streamed_pipeline_agrees_across_transports_async() {
    streamed_pipeline_agrees_across_transports_on(DRIVER_POOL);
}

fn graceful_shutdown_drains_and_workers_survive_on(drivers: usize) {
    with_watchdog(move || {
        let compute = Arc::new(ConvStackCompute::random(3, 1, 4, 7));
        let (servers, addrs) = spawn_workers(2, &compute);
        let mut exec = tcp_executor(drivers, &addrs);
        let plan = ExecutionPlan {
            placements: vec![
                UnitPlacement::Single(0),
                UnitPlacement::Single(1),
                UnitPlacement::Single(0),
            ],
        };
        let wire = vec![UnitWire { grid: GridSpec::new(1, 1), in_quant: BitWidth::B32 }; 3];
        exec.execute_with(&plan, &wire, test_input(3), opts()).unwrap();
        exec.shutdown();
        // Workers outlive a departing coordinator (they serve the next one).
        for s in &servers {
            assert!(!s.is_stopped(), "goodbye must not kill the worker");
        }
    });
}

#[test]
fn graceful_shutdown_drains_and_workers_survive() {
    graceful_shutdown_drains_and_workers_survive_on(SHARED_LOOP);
}

#[test]
fn graceful_shutdown_drains_and_workers_survive_async() {
    graceful_shutdown_drains_and_workers_survive_on(DRIVER_POOL);
}
