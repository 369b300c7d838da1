//! Socket-level chaos: partitions, kills, blackholes, and corruption
//! injected between a real TCP coordinator and real worker servers via the
//! deterministic chaos proxy. The contract under fire:
//!
//! * the coordinator NEVER hangs (watchdog on every test),
//! * any single-worker partition/kill/corruption resolves to failover onto
//!   survivors or a typed `ExecError`,
//! * a healed partition reconnects within the backoff budget and the
//!   device serves again,
//! * a resend after a connection loss is deduped by the worker — the unit
//!   is computed at most once per request id.
//!
//! Coordinator and workers are the one TCP stack: `AsyncTcpTransport`
//! against `AsyncWorkerServer`s on loopback. Every scenario runs twice:
//! with all of the coordinator's peers multiplexed onto one event-loop
//! thread (the un-suffixed test — a sick peer must not starve a healthy
//! one sharing its loop) and across the default per-core driver pool (the
//! `_async` test).

use murmuration::partition::{ExecutionPlan, UnitPlacement};
use murmuration::runtime::executor::{
    ConvStackCompute, ExecError, ExecOptions, Executor, UnitCompute, UnitOutcome, UnitWire,
};
use murmuration::runtime::fault::{FaultKind, FaultyCompute};
use murmuration::runtime::gossip::{GossipConfig, GossipMsg, GossipNode, NodeId, NodeRole};
use murmuration::runtime::transport::Transport;
use murmuration::tensor::quant::BitWidth;
use murmuration::tensor::tile::GridSpec;
use murmuration::tensor::{Shape, Tensor};
use murmuration::testkit::{with_watchdog, AddCompute};
use murmuration::transport::{
    AsyncTcpTransport, AsyncTcpTransportConfig, AsyncWorkerServer, ChaosConfig, ChaosProxy,
    TcpTransportConfig, WorkerConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fast_tcp_cfg() -> TcpTransportConfig {
    TcpTransportConfig {
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_miss_limit: 3,
        reconnect_backoff: Duration::from_millis(10),
        reconnect_backoff_max: Duration::from_millis(200),
        fails_before_dead: 4,
        max_in_flight: 32,
        connect_timeout: Duration::from_millis(200),
        drain_timeout: Duration::from_millis(500),
        seed: 99,
    }
}

fn chaos_opts() -> ExecOptions {
    ExecOptions {
        deadline: Duration::from_millis(250),
        max_attempts: 4,
        backoff: Duration::from_millis(1),
        hedge: None,
    }
}

fn worker(dev: usize, compute: Arc<dyn UnitCompute>) -> AsyncWorkerServer {
    let cfg = WorkerConfig { dev_id: dev, ..Default::default() };
    AsyncWorkerServer::bind("127.0.0.1:0", compute, cfg).expect("bind worker")
}

/// Every peer on one event-loop thread.
const SHARED_LOOP: usize = 1;
/// The default driver pool: one event-loop thread per core.
const DRIVER_POOL: usize = 0;

fn connect(drivers: usize, addrs: &[String]) -> AsyncTcpTransport {
    let cfg =
        AsyncTcpTransportConfig { base: fast_tcp_cfg(), n_drivers: drivers, ..Default::default() };
    AsyncTcpTransport::connect(addrs, cfg)
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

fn wire3() -> Vec<UnitWire> {
    vec![UnitWire { grid: GridSpec::new(1, 1), in_quant: BitWidth::B32 }; 3]
}

fn test_input(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::rand_uniform(Shape::nchw(1, 4, 12, 12), 1.0, &mut rng)
}

fn local_reference(compute: &ConvStackCompute, input: &Tensor) -> Tensor {
    let mut cur = input.clone();
    for u in 0..compute.n_units() {
        cur = compute.run_unit(u, &cur);
    }
    cur
}

fn partition_mid_request_fails_over_and_heals_within_backoff_budget_on(drivers: usize) {
    with_watchdog(move || {
        let compute = Arc::new(ConvStackCompute::random(3, 2, 4, 7));
        let w0 = worker(0, compute.clone());
        let w1 = worker(1, compute.clone());
        let proxy = ChaosProxy::start(w1.local_addr(), ChaosConfig::default()).unwrap();
        let addrs = vec![w0.local_addr().to_string(), proxy.local_addr().to_string()];
        let transport = connect(drivers, &addrs);
        assert!(transport.wait_connected(Duration::from_secs(10)));
        let exec = Executor::with_transport(Box::new(transport));
        let input = test_input(1);
        let expect = local_reference(&compute, &input);

        // Warm path: device 1 serves through the proxy.
        let (out, report) =
            exec.execute_with(&remote_plan(), &wire3(), input.clone(), chaos_opts()).unwrap();
        assert_eq!(out.data(), expect.data());
        assert_eq!(report.failovers, 0, "warm run must not fail over: {report:?}");

        // Partition device 1 and run again: the request into the void must
        // resolve by failover onto device 0, never hang.
        proxy.partition();
        let (out, report) =
            exec.execute_with(&remote_plan(), &wire3(), input.clone(), chaos_opts()).unwrap();
        assert_eq!(out.data(), expect.data(), "failover math is exact at B32");
        assert!(report.failovers >= 1, "partitioned peer must fail over: {report:?}");

        // Heal and wait for supervision to bring the device back: the plan
        // must eventually run with zero failovers again.
        proxy.heal();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (out, report) =
                exec.execute_with(&remote_plan(), &wire3(), input.clone(), chaos_opts()).unwrap();
            assert_eq!(out.data(), expect.data());
            if report.failovers == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "healed partition did not reconnect within the backoff budget: {report:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    });
}

#[test]
fn partition_mid_request_fails_over_and_heals_within_backoff_budget() {
    partition_mid_request_fails_over_and_heals_within_backoff_budget_on(SHARED_LOOP);
}

#[test]
fn partition_mid_request_fails_over_and_heals_within_backoff_budget_async() {
    partition_mid_request_fails_over_and_heals_within_backoff_budget_on(DRIVER_POOL);
}

fn killed_worker_process_resolves_to_failover_and_dead_device_on(drivers: usize) {
    with_watchdog(move || {
        let inner = Arc::new(ConvStackCompute::random(3, 2, 4, 7));
        let faulty = Arc::new(FaultyCompute::new(inner.clone(), 2));
        // Device 1's first unit call crashes the whole worker server —
        // listener closed, connections dropped, no reply: a process kill.
        faulty.script(1, 0, FaultKind::Vanish);
        let w0 = worker(0, faulty.clone());
        let w1 = worker(1, faulty.clone());
        let addrs = vec![w0.local_addr().to_string(), w1.local_addr().to_string()];
        let transport = connect(drivers, &addrs);
        assert!(transport.wait_connected(Duration::from_secs(10)));
        let exec = Executor::with_transport(Box::new(transport));
        let input = test_input(2);

        let (out, report) =
            exec.execute_with(&remote_plan(), &wire3(), input.clone(), chaos_opts()).unwrap();
        assert_eq!(out.data(), local_reference(&inner, &input).data());
        assert!(report.failovers >= 1, "killed worker must fail over: {report:?}");
        assert!(w1.is_stopped(), "the crash must have taken the server down");

        // Supervision keeps probing the corpse; connects are refused and
        // the peer is declared dead within the failure budget.
        let deadline = Instant::now() + Duration::from_secs(10);
        while exec.is_alive(1) {
            assert!(Instant::now() < deadline, "dead worker never declared dead");
            std::thread::sleep(Duration::from_millis(20));
        }
    });
}

#[test]
fn killed_worker_process_resolves_to_failover_and_dead_device() {
    killed_worker_process_resolves_to_failover_and_dead_device_on(SHARED_LOOP);
}

#[test]
fn killed_worker_process_resolves_to_failover_and_dead_device_async() {
    killed_worker_process_resolves_to_failover_and_dead_device_on(DRIVER_POOL);
}

fn blackholed_peer_is_detected_by_heartbeats_on(drivers: usize) {
    with_watchdog(move || {
        let compute = Arc::new(ConvStackCompute::random(3, 2, 4, 7));
        let w0 = worker(0, compute.clone());
        let w1 = worker(1, compute.clone());
        // Connections succeed but every frame disappears: the classic
        // silent blackhole only heartbeat staleness can catch.
        let proxy = ChaosProxy::start(
            w1.local_addr(),
            ChaosConfig { seed: 5, drop_prob: 1.0, ..Default::default() },
        )
        .unwrap();
        let addrs = vec![w0.local_addr().to_string(), proxy.local_addr().to_string()];
        let transport = connect(drivers, &addrs);
        let exec = Executor::with_transport(Box::new(transport));
        let input = test_input(3);

        let (out, report) =
            exec.execute_with(&remote_plan(), &wire3(), input.clone(), chaos_opts()).unwrap();
        assert_eq!(out.data(), local_reference(&compute, &input).data());
        assert!(report.failovers >= 1, "blackholed peer must fail over: {report:?}");
        // The supervisor must have noticed the silence.
        let deadline = Instant::now() + Duration::from_secs(10);
        while exec.transport_stats().heartbeats_missed == 0 {
            assert!(Instant::now() < deadline, "no heartbeat miss ever recorded");
            std::thread::sleep(Duration::from_millis(20));
        }
    });
}

#[test]
fn blackholed_peer_is_detected_by_heartbeats() {
    blackholed_peer_is_detected_by_heartbeats_on(SHARED_LOOP);
}

#[test]
fn blackholed_peer_is_detected_by_heartbeats_async() {
    blackholed_peer_is_detected_by_heartbeats_on(DRIVER_POOL);
}

fn corrupted_link_resolves_to_typed_outcome_not_hang_on(drivers: usize) {
    with_watchdog(move || {
        let compute = Arc::new(ConvStackCompute::random(3, 2, 4, 7));
        let w0 = worker(0, compute.clone());
        let w1 = worker(1, compute.clone());
        // Every frame through the proxy gets a payload byte flipped: the
        // receiver's outer checksum rejects it and the connection churns.
        let proxy = ChaosProxy::start(
            w1.local_addr(),
            ChaosConfig { seed: 6, corrupt_prob: 1.0, ..Default::default() },
        )
        .unwrap();
        let addrs = vec![w0.local_addr().to_string(), proxy.local_addr().to_string()];
        let transport = connect(drivers, &addrs);
        let exec = Executor::with_transport(Box::new(transport));
        let input = test_input(4);

        let (out, report) =
            exec.execute_with(&remote_plan(), &wire3(), input.clone(), chaos_opts()).unwrap();
        assert_eq!(out.data(), local_reference(&compute, &input).data());
        assert!(report.failovers >= 1, "corrupted link must fail over: {report:?}");
    });
}

#[test]
fn corrupted_link_resolves_to_typed_outcome_not_hang() {
    corrupted_link_resolves_to_typed_outcome_not_hang_on(SHARED_LOOP);
}

#[test]
fn corrupted_link_resolves_to_typed_outcome_not_hang_async() {
    corrupted_link_resolves_to_typed_outcome_not_hang_on(DRIVER_POOL);
}

fn random_chaos_stream_never_hangs_and_ok_results_are_exact_on(drivers: usize) {
    with_watchdog(move || {
        let compute = Arc::new(ConvStackCompute::random(3, 2, 4, 7));
        let w0 = worker(0, compute.clone());
        let w1 = worker(1, compute.clone());
        let proxy = ChaosProxy::start(
            w1.local_addr(),
            ChaosConfig {
                seed: 42,
                delay_prob: 0.2,
                delay: Duration::from_millis(10),
                drop_prob: 0.15,
                corrupt_prob: 0.1,
                reorder_prob: 0.2,
                ..Default::default()
            },
        )
        .unwrap();
        let addrs = vec![w0.local_addr().to_string(), proxy.local_addr().to_string()];
        let transport = connect(drivers, &addrs);
        let exec = Executor::with_transport(Box::new(transport));

        let mut rng = StdRng::seed_from_u64(11);
        let inputs: Vec<Tensor> = (0..6)
            .map(|_| Tensor::rand_uniform(Shape::nchw(1, 4, 10, 10), 1.0, &mut rng))
            .collect();
        let (outs, _report) =
            exec.execute_stream_with(&[0, 1, 0], inputs.clone(), BitWidth::B32, chaos_opts());
        assert_eq!(outs.len(), inputs.len());
        for (input, out) in inputs.iter().zip(&outs) {
            match out {
                Ok(t) => {
                    assert_eq!(
                        t.data(),
                        local_reference(&compute, input).data(),
                        "chaos must never corrupt a delivered result"
                    );
                }
                Err(e) => {
                    // A typed error is an acceptable outcome under chaos;
                    // silence (a hang) is not.
                    let _ = format!("{e}");
                }
            }
        }
    });
}

#[test]
fn random_chaos_stream_never_hangs_and_ok_results_are_exact() {
    random_chaos_stream_never_hangs_and_ok_results_are_exact_on(SHARED_LOOP);
}

#[test]
fn random_chaos_stream_never_hangs_and_ok_results_are_exact_async() {
    random_chaos_stream_never_hangs_and_ok_results_are_exact_on(DRIVER_POOL);
}

#[test]
fn tcp_death_mid_stream_resolves_every_request() {
    with_watchdog(|| {
        let compute = Arc::new(AddCompute::new(6, 3));
        let servers: Vec<AsyncWorkerServer> =
            (0..3).map(|dev| worker(dev, compute.clone())).collect();
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let transport = AsyncTcpTransport::connect(&addrs, TcpTransportConfig::default());
        assert!(transport.wait_connected(Duration::from_secs(10)), "workers must connect");
        let exec = Arc::new(Executor::with_transport(Box::new(transport)));
        // Kill the middle stage's device mid-stream, from another thread —
        // the race against in-flight requests is the point.
        let killer = {
            let exec = Arc::clone(&exec);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                exec.kill_device(1);
            })
        };
        let n = 60;
        let inputs: Vec<Tensor> =
            (0..n).map(|i| Tensor::full(Shape::nchw(1, 1, 2, 2), i as f32)).collect();
        let (results, _) = exec.execute_stream(&[0, 0, 1, 1, 2, 2], inputs, BitWidth::B32);
        killer.join().expect("killer thread panicked");
        assert_eq!(results.len(), n, "every request resolves exactly once");
        let mut ok = 0usize;
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(t) => {
                    assert_eq!(t.data()[0], i as f32 + compute.sum(), "input {i}: wrong logits");
                    ok += 1;
                }
                // A request caught at the instant of death may exhaust its
                // budget before the failover engages; the error must be typed.
                Err(
                    ExecError::DeviceDown { .. }
                    | ExecError::Timeout { .. }
                    | ExecError::AttemptsExhausted { .. }
                    | ExecError::Wire { .. }
                    | ExecError::NoDevice { .. }
                    | ExecError::WorkerPanic { .. }
                    | ExecError::Backpressure { .. },
                ) => {}
            }
        }
        // The kill lands 30 ms into the stream: the tail must have kept
        // completing through the failover.
        assert!(ok > 0, "some requests must complete across the death");
        for mut srv in servers {
            srv.stop();
        }
    });
}

/// A compute wrapper that parks the worker's compute thread until
/// released, letting the test break the connection while a unit is
/// mid-flight.
struct GateCompute {
    inner: Arc<ConvStackCompute>,
    entered: AtomicBool,
    release: AtomicBool,
}

impl UnitCompute for GateCompute {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }

    fn run_unit(&self, unit: usize, input: &Tensor) -> Tensor {
        self.inner.run_unit(unit, input)
    }

    fn run_unit_on(&self, _dev: usize, unit: usize, input: &Tensor) -> UnitOutcome {
        self.entered.store(true, Ordering::SeqCst);
        while !self.release.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(2));
        }
        UnitOutcome::Output(self.inner.run_unit(unit, input))
    }
}

fn resend_after_connection_loss_is_deduped_not_recomputed_on(drivers: usize) {
    with_watchdog(move || {
        let inner = Arc::new(ConvStackCompute::random(1, 1, 4, 7));
        let gate = Arc::new(GateCompute {
            inner: inner.clone(),
            entered: AtomicBool::new(false),
            release: AtomicBool::new(false),
        });
        let w0 = worker(0, gate.clone());
        let proxy = ChaosProxy::start(w0.local_addr(), ChaosConfig::default()).unwrap();
        let addrs = vec![proxy.local_addr().to_string()];
        let transport = connect(drivers, &addrs);
        assert!(transport.wait_connected(Duration::from_secs(10)));
        let exec = Executor::with_transport(Box::new(transport));

        let input = test_input(8);
        let expect = inner.run_unit(0, &input);
        let plan = ExecutionPlan { placements: vec![UnitPlacement::Single(0)] };
        let wire = vec![UnitWire { grid: GridSpec::new(1, 1), in_quant: BitWidth::B32 }];
        // One attempt, generous deadline: any recovery must happen at the
        // transport layer (resend + dedup), not by executor retry.
        let opts = ExecOptions {
            deadline: Duration::from_secs(20),
            max_attempts: 1,
            backoff: Duration::from_millis(1),
            hedge: None,
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let r = exec.execute_with(&plan, &wire, input, opts);
            let _ = done_tx.send(r);
        });

        // Wait until the worker is actually computing the request...
        let deadline = Instant::now() + Duration::from_secs(10);
        while !gate.entered.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "request never reached the worker");
            std::thread::sleep(Duration::from_millis(2));
        }
        // ...then yank the connection. The coordinator reconnects and
        // resends the same request id; the worker must recognise it.
        proxy.break_connections();
        let deadline = Instant::now() + Duration::from_secs(10);
        while w0.deduped() == 0 {
            assert!(Instant::now() < deadline, "resend never deduped by the worker");
            std::thread::sleep(Duration::from_millis(5));
        }
        gate.release.store(true, Ordering::SeqCst);

        let result = done_rx.recv_timeout(Duration::from_secs(30)).expect("runner finished");
        let (out, report) = result.expect("request completes after reconnect");
        assert_eq!(out.data(), expect.data(), "deduped result is the real output");
        assert_eq!(w0.computed(), 1, "the unit must have been computed exactly once");
        assert!(w0.deduped() >= 1);
        assert!(report.reconnects >= 1, "the loss must show as a reconnect: {report:?}");
        assert!(report.resends_deduped >= 1, "the dedup must surface in the report: {report:?}");
        let _ = runner.join();
    });
}

#[test]
fn resend_after_connection_loss_is_deduped_not_recomputed() {
    resend_after_connection_loss_is_deduped_not_recomputed_on(SHARED_LOOP);
}

#[test]
fn resend_after_connection_loss_is_deduped_not_recomputed_async() {
    resend_after_connection_loss_is_deduped_not_recomputed_on(DRIVER_POOL);
}

fn duplicated_frames_are_deduped_and_results_exact_on(drivers: usize) {
    with_watchdog(move || {
        let compute = Arc::new(ConvStackCompute::random(3, 2, 4, 7));
        let w0 = worker(0, compute.clone());
        let w1 = worker(1, compute.clone());
        // Every frame in both directions is written three times: requests
        // must hit the worker's dedup map, responses must settle once, and
        // the late copies must be dropped silently.
        let proxy = ChaosProxy::start(
            w1.local_addr(),
            ChaosConfig { seed: 77, dup_prob: 1.0, dup_copies: 2, ..Default::default() },
        )
        .unwrap();
        let addrs = vec![w0.local_addr().to_string(), proxy.local_addr().to_string()];
        let transport = connect(drivers, &addrs);
        assert!(transport.wait_connected(Duration::from_secs(10)));
        let exec = Executor::with_transport(Box::new(transport));

        for seed in 0..4 {
            let input = test_input(100 + seed);
            let expect = local_reference(&compute, &input);
            let (out, _report) =
                exec.execute_with(&remote_plan(), &wire3(), input, chaos_opts()).unwrap();
            assert_eq!(out.data(), expect.data(), "duplicated frames must not corrupt results");
        }
        assert!(
            w1.deduped() >= 1,
            "tripled requests must be recognised by the worker's dedup map \
             (deduped = {})",
            w1.deduped()
        );
        assert!(
            w1.computed() <= 3 * 4,
            "a duplicated request must never be computed per copy \
             (computed = {} for 4 requests x up-to-3 attempts)",
            w1.computed()
        );
    });
}

#[test]
fn duplicated_frames_are_deduped_and_results_exact() {
    duplicated_frames_are_deduped_and_results_exact_on(SHARED_LOOP);
}

#[test]
fn duplicated_frames_are_deduped_and_results_exact_async() {
    duplicated_frames_are_deduped_and_results_exact_on(DRIVER_POOL);
}

fn gossip_spreads_membership_over_tcp_even_with_duplicated_frames_on(drivers: usize) {
    with_watchdog(move || {
        const SEED: u64 = 500;
        let compute = Arc::new(ConvStackCompute::random(3, 2, 4, 7));
        let w0 = worker(0, compute.clone());
        let w1 = worker(1, compute.clone());
        w0.attach_gossip(GossipNode::new(SEED, 1, NodeRole::Worker, 0, GossipConfig::default()));
        w1.attach_gossip(GossipNode::new(SEED, 2, NodeRole::Worker, 0, GossipConfig::default()));
        // Device 1's link duplicates every frame; merge idempotency must
        // make the copies invisible to the membership protocol.
        let proxy = ChaosProxy::start(
            w1.local_addr(),
            ChaosConfig { seed: 78, dup_prob: 0.8, dup_copies: 2, ..Default::default() },
        )
        .unwrap();
        let addrs = vec![w0.local_addr().to_string(), proxy.local_addr().to_string()];
        let transport = connect(drivers, &addrs);
        assert!(transport.wait_connected(Duration::from_secs(10)));

        let mut coord = GossipNode::new(SEED, 0, NodeRole::Coordinator, 0, GossipConfig::default());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            // Push-pull round: push our digest to both workers, then fold
            // whatever digests they sent back.
            let payload = coord.digest().encode();
            transport.send_gossip(0, &payload);
            transport.send_gossip(1, &payload);
            std::thread::sleep(Duration::from_millis(20));
            for bytes in transport.drain_gossip() {
                if let Ok(msg) = GossipMsg::decode(&bytes) {
                    coord.merge(&msg);
                }
            }
            let full = |ids: &[NodeId]| (0..3).all(|i| ids.contains(&NodeId::derive(SEED, i)));
            let coord_ids: Vec<NodeId> = coord.members().iter().map(|m| m.id).collect();
            let w0_ids: Vec<NodeId> = w0.gossip_members().iter().map(|m| m.id).collect();
            let w1_ids: Vec<NodeId> = w1.gossip_members().iter().map(|m| m.id).collect();
            // Workers never talk to each other directly: each must learn of
            // the other transitively, through the coordinator's digests.
            if full(&coord_ids) && full(&w0_ids) && full(&w1_ids) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "membership never converged: coord {coord_ids:?} w0 {w0_ids:?} w1 {w1_ids:?}"
            );
        }
        assert!(coord.is_primary(), "rank-0 coordinator must see itself as primary");
    });
}

#[test]
fn gossip_spreads_membership_over_tcp_even_with_duplicated_frames() {
    gossip_spreads_membership_over_tcp_even_with_duplicated_frames_on(SHARED_LOOP);
}

#[test]
fn gossip_spreads_membership_over_tcp_even_with_duplicated_frames_async() {
    gossip_spreads_membership_over_tcp_even_with_duplicated_frames_on(DRIVER_POOL);
}
