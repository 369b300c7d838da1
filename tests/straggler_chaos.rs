//! Straggler chaos: one brownout device out of four under streamed load.
//! The gray-failure contract under fire:
//!
//! * every request completes exactly once and bit-exactly (a hedge win is
//!   the same math on a different device — never a duplicate, never a
//!   corruption),
//! * hedges actually fire against the straggler and the losing side is
//!   cancelled (queued work verifiably dropped at the worker),
//! * a healthy fleet pays (almost) nothing: hedges stay rare when no
//!   device misbehaves,
//! * nothing ever hangs — every test runs under a watchdog.

use murmuration::partition::{ExecutionPlan, UnitPlacement};
use murmuration::runtime::executor::{
    ConvStackCompute, ExecOptions, Executor, HedgeOptions, UnitCompute, UnitWire,
};
use murmuration::runtime::fault::FaultyCompute;
use murmuration::tensor::quant::BitWidth;
use murmuration::tensor::tile::GridSpec;
use murmuration::tensor::{Shape, Tensor};
use murmuration::testkit::with_watchdog;
use murmuration::transport::{
    ChaosConfig, ChaosDirection, ChaosProxy, TcpTransport, TcpTransportConfig, WorkerConfig,
    WorkerServer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn local_reference(compute: &ConvStackCompute, input: &Tensor) -> Tensor {
    let mut cur = input.clone();
    for u in 0..compute.n_units() {
        cur = compute.run_unit(u, &cur);
    }
    cur
}

fn hedged_opts() -> ExecOptions {
    ExecOptions {
        deadline: Duration::from_secs(2),
        max_attempts: 3,
        backoff: Duration::from_millis(1),
        hedge: Some(HedgeOptions::default()),
    }
}

fn unhedged_opts() -> ExecOptions {
    ExecOptions { hedge: None, ..hedged_opts() }
}

/// Two 8-channel k3 layers per unit: tens of microseconds on
/// [`heavy_input`], so a healthy unit sits far below the 1 ms
/// hedge-trigger floor.
fn heavy_compute(units: usize, seed: u64) -> Arc<ConvStackCompute> {
    Arc::new(ConvStackCompute::random(units, 2, 8, seed))
}

/// The slowdown that makes a browned-out unit take about `late` on this
/// build and box, and never less than `min_factor`. `FaultyCompute`
/// stretches a unit by a factor, but the hedge trigger is absolute — twice
/// the p90 of observed unit latency, floored at 1 ms — so a fixed factor
/// stops being a brownout when the kernels get faster: 25× of a 50 µs unit
/// is barely past the floor, and under the trigger that three other tests
/// sharing two cores produce.
fn brownout_factor(compute: &ConvStackCompute, min_factor: f64, late: Duration) -> f64 {
    let input = heavy_input(1);
    compute.run_unit(0, &input); // grows this thread's scratch pool
                                 // The fastest of a few runs: a preempted run would shrink the factor.
    let unit = (0..8)
        .map(|_| {
            let t0 = std::time::Instant::now();
            compute.run_unit(0, &input);
            t0.elapsed()
        })
        .min()
        .unwrap_or(late);
    min_factor.max(late.as_secs_f64() / unit.as_secs_f64())
}

/// How late a browned-out unit runs: ten trigger floors.
const BROWNOUT: Duration = Duration::from_millis(10);

fn heavy_input(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::rand_uniform(Shape::nchw(1, 8, 20, 20), 1.0, &mut rng)
}

/// The headline scenario from the paper's robustness story: 1-slow-of-4
/// under streamed load. Every request must complete exactly once and
/// bit-exactly, hedges must fire against the brownout device, at least
/// one hedge must win, and at least one losing primary must be cancelled
/// while still queued behind the straggler's backlog.
#[test]
fn one_slow_of_four_completes_exactly_once_with_hedges_and_cancels() {
    with_watchdog(|| {
        const STRAGGLER: usize = 2;
        let inner = heavy_compute(8, 11);
        let faulty = Arc::new(FaultyCompute::new(inner.clone(), 4));
        let exec = Executor::new(4, faulty.clone());
        let device_of_unit: Vec<usize> = (0..8).map(|u| u % 4).collect();

        // Warm path (no hedging): arms every device's latency tracker
        // past `min_samples` so the adaptive trigger is live.
        let warm: Vec<Tensor> = (0..6).map(|i| heavy_input(100 + i)).collect();
        let (warm_results, warm_report) =
            exec.execute_stream_with(&device_of_unit, warm, BitWidth::B32, unhedged_opts());
        assert!(warm_results.iter().all(|r| r.is_ok()), "warmup must be clean: {warm_report:?}");

        // Brownout: device 2 now serves correct results ≥25× late. Load
        // arrives in waves of 8 rather than one 24-deep burst: hedging
        // beats a straggler's backlog, not a fleet-wide saturation it
        // helped create — with every backup equally swamped a hedge just
        // queues behind the same storm and loses the race.
        faulty.set_slowdown(STRAGGLER, brownout_factor(&inner, 25.0, BROWNOUT));

        let mut hedges_fired = 0u32;
        let mut hedges_won = 0u32;
        let mut deadline_misses = 0u32;
        let mut last_report = None;
        for wave in 0..3u64 {
            let inputs: Vec<Tensor> = (0..8).map(|i| heavy_input(200 + 10 * wave + i)).collect();
            let expects: Vec<Tensor> = inputs.iter().map(|i| local_reference(&inner, i)).collect();
            let (results, report) =
                exec.execute_stream_with(&device_of_unit, inputs, BitWidth::B32, hedged_opts());

            assert_eq!(results.len(), 8, "exactly one result slot per request");
            for (i, (res, expect)) in results.iter().zip(&expects).enumerate() {
                let out =
                    res.as_ref().unwrap_or_else(|e| panic!("wave {wave} request {i} failed: {e}"));
                assert_eq!(
                    out.data(),
                    expect.data(),
                    "wave {wave} request {i}: hedged result must stay exact"
                );
            }
            hedges_fired += report.hedges_fired;
            hedges_won += report.hedges_won;
            deadline_misses += report.deadline_misses;
            last_report = Some(report);
        }
        let report = last_report.unwrap_or_default();
        assert!(hedges_fired >= 1, "straggler must trigger hedges: {report:?}");
        assert!(hedges_won >= 1, "a backup must beat the straggler: {report:?}");
        assert_eq!(deadline_misses, 0, "hedging must win before deadlines: {report:?}");

        // Cancels are counted when the straggler dequeues (and skips) the
        // cancelled job — give its backlog a moment to drain.
        let drained = std::time::Instant::now();
        loop {
            if exec.transport_stats().cancels_delivered > 0 {
                break;
            }
            assert!(
                drained.elapsed() < Duration::from_secs(20),
                "queued work behind the straggler was never verifiably cancelled: {report:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    });
}

/// Happy path: with hedging armed on a healthy fleet, hedges stay rare.
/// Sequential requests (no self-inflicted queueing) are the honest
/// happy-path: the trigger floor (1 ms) sits far above the healthy
/// per-unit latency, so speculation should essentially never fire.
#[test]
fn healthy_fleet_rarely_hedges() {
    with_watchdog(|| {
        let inner = heavy_compute(8, 13);
        let faulty = Arc::new(FaultyCompute::new(inner.clone(), 4));
        let exec = Executor::new(4, faulty);
        let plan =
            ExecutionPlan { placements: (0..8).map(|u| UnitPlacement::Single(u % 4)).collect() };
        let wire = vec![UnitWire { grid: GridSpec::new(1, 1), in_quant: BitWidth::B32 }; 8];

        for i in 0..10 {
            let input = heavy_input(300 + i);
            let (out, _) = exec.execute_with(&plan, &wire, input.clone(), unhedged_opts()).unwrap();
            assert_eq!(out.data(), local_reference(&inner, &input).data());
        }

        let mut hedges = 0u32;
        for i in 0..24 {
            let input = heavy_input(400 + i);
            let expect = local_reference(&inner, &input);
            let (out, report) = exec.execute_with(&plan, &wire, input, hedged_opts()).unwrap();
            assert_eq!(out.data(), expect.data(), "request {i}: result must stay exact");
            hedges += report.hedges_fired;
        }
        // 24 requests × 8 stages = 192 unit executions; ≤ 10% may hedge
        // even on a noisy CI box (in practice this is ~0).
        assert!(hedges <= 19, "healthy fleet hedged too often ({hedges} of 192 stages)");
    });
}

/// Single-request path (`execute_with`) under the same brownout: the
/// hedge must win, the result must stay exact, and the win is a hedge
/// win — not a failover, not a retry.
#[test]
fn single_request_hedge_beats_brownout_device() {
    with_watchdog(|| {
        const STRAGGLER: usize = 1;
        let inner = heavy_compute(3, 17);
        let faulty = Arc::new(FaultyCompute::new(inner.clone(), 3));
        let exec = Executor::new(3, faulty.clone());
        let plan = ExecutionPlan {
            placements: vec![
                UnitPlacement::Single(0),
                UnitPlacement::Single(1),
                UnitPlacement::Single(2),
            ],
        };
        let wire = vec![UnitWire { grid: GridSpec::new(1, 1), in_quant: BitWidth::B32 }; 3];

        // Warm each device past min_samples.
        for i in 0..10 {
            let input = heavy_input(500 + i);
            let (out, _) = exec.execute_with(&plan, &wire, input.clone(), unhedged_opts()).unwrap();
            assert_eq!(out.data(), local_reference(&inner, &input).data());
        }

        faulty.set_slowdown(STRAGGLER, brownout_factor(&inner, 10.0, BROWNOUT));
        let mut hedges = 0u32;
        let mut wins = 0u32;
        for i in 0..8 {
            let input = heavy_input(600 + i);
            let expect = local_reference(&inner, &input);
            let (out, report) = exec.execute_with(&plan, &wire, input, hedged_opts()).unwrap();
            assert_eq!(out.data(), expect.data(), "request {i}: hedged result must stay exact");
            assert_eq!(report.retries, 0, "hedging is speculation, not retry: {report:?}");
            hedges += report.hedges_fired;
            wins += report.hedges_won;
        }
        assert!(hedges >= 1, "brownout device must trigger hedges");
        assert!(wins >= 1, "at least one hedge must beat the straggler");
    });
}

/// TCP + asymmetric slow link: a worker whose replies (server→client
/// lane only) degrade over a ramp. History from the fast early phase
/// arms the trigger; once the ramp bites, hedges fire onto the direct
/// worker and the stale late replies are discarded — exactly once, bit
/// exact, no hang.
#[test]
fn tcp_asymmetric_slow_link_hedges_onto_direct_worker() {
    with_watchdog(|| {
        let compute = Arc::new(ConvStackCompute::random(3, 2, 4, 7));
        let mut w0 = WorkerServer::bind(
            "127.0.0.1:0",
            compute.clone() as Arc<dyn UnitCompute>,
            WorkerConfig {
                dev_id: 0,
                read_timeout: Duration::from_millis(25),
                ..Default::default()
            },
        )
        .expect("bind worker 0");
        let mut w1 = WorkerServer::bind(
            "127.0.0.1:0",
            compute.clone() as Arc<dyn UnitCompute>,
            WorkerConfig {
                dev_id: 1,
                read_timeout: Duration::from_millis(25),
                ..Default::default()
            },
        )
        .expect("bind worker 1");
        // Replies from worker 1 ramp from instant to +60 ms over 1.5 s;
        // the request lane stays clean (asymmetric by construction).
        let chaos = ChaosConfig {
            seed: 42,
            slow_dir: Some(ChaosDirection::ServerToClient),
            slow_delay: Duration::from_millis(60),
            slow_jitter: Duration::from_millis(5),
            slow_ramp: Duration::from_millis(1500),
            ..Default::default()
        };
        let proxy = ChaosProxy::start(w1.local_addr(), chaos).unwrap();
        let addrs = vec![w0.local_addr().to_string(), proxy.local_addr().to_string()];
        let cfg = TcpTransportConfig {
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_miss_limit: 10,
            reconnect_backoff: Duration::from_millis(10),
            reconnect_backoff_max: Duration::from_millis(200),
            fails_before_dead: 8,
            max_in_flight: 32,
            connect_timeout: Duration::from_millis(500),
            drain_timeout: Duration::from_millis(500),
            seed: 99,
        };
        let transport = TcpTransport::connect(&addrs, cfg);
        assert!(transport.wait_connected(Duration::from_secs(10)));
        let mut exec = Executor::with_transport(Box::new(transport));

        let plan = ExecutionPlan {
            placements: vec![
                UnitPlacement::Single(0),
                UnitPlacement::Single(1),
                UnitPlacement::Single(0),
            ],
        };
        let wire = vec![UnitWire { grid: GridSpec::new(1, 1), in_quant: BitWidth::B32 }; 3];
        let input_for = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            Tensor::rand_uniform(Shape::nchw(1, 4, 12, 12), 1.0, &mut rng)
        };

        // Fast phase: arm the trackers while the ramp is still shallow.
        for i in 0..10 {
            let input = input_for(i);
            let (out, _) = exec.execute_with(&plan, &wire, input.clone(), unhedged_opts()).unwrap();
            assert_eq!(out.data(), local_reference(&compute, &input).data());
        }

        // Let the slow link ramp to full strength.
        std::thread::sleep(Duration::from_millis(1600));

        let mut hedges = 0u32;
        for i in 0..6 {
            let input = input_for(100 + i);
            let expect = local_reference(&compute, &input);
            let (out, report) = exec.execute_with(&plan, &wire, input, hedged_opts()).unwrap();
            assert_eq!(out.data(), expect.data(), "request {i}: result must stay exact");
            hedges += report.hedges_fired;
        }
        assert!(hedges >= 1, "degraded reply lane must trigger hedges");
        exec.shutdown();
        drop(proxy);
        w0.stop();
        w1.stop();
    });
}
