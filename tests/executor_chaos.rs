//! Chaos tests: kill, stall, and corrupt arbitrary devices while the
//! distributed executor is mid-flight. The contract under fire:
//!
//! * the coordinator NEVER hangs (every run finishes under a watchdog),
//! * every request either completes — B32-exact against the local
//!   reference, since failover re-runs the same math elsewhere — or fails
//!   with a typed [`ExecError`],
//! * the executor discovers dead devices and routes around them.

use murmuration::partition::{ExecutionPlan, UnitPlacement};
use murmuration::runtime::executor::{
    ConvStackCompute, ExecError, ExecOptions, ExecReport, Executor, UnitCompute, UnitWire,
};
use murmuration::runtime::fault::{FaultKind, FaultyCompute};
use murmuration::tensor::quant::BitWidth;
use murmuration::tensor::tile::GridSpec;
use murmuration::tensor::{Shape, Tensor};
use murmuration::testkit::{with_watchdog, AddCompute};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn chaos_opts() -> ExecOptions {
    ExecOptions {
        deadline: Duration::from_millis(250),
        max_attempts: 3,
        backoff: Duration::from_millis(1),
        hedge: None,
    }
}

fn local_reference(compute: &ConvStackCompute, input: &Tensor) -> Tensor {
    let mut cur = input.clone();
    for u in 0..compute.n_units() {
        cur = compute.run_unit(u, &cur);
    }
    cur
}

#[test]
fn stream_survives_killing_k_of_n_devices_at_random_points() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(12));
    runner
        .run(&(2usize..5, 1usize..4, 0usize..6, 0u64..1000), |(n, k, kill_call, pick)| {
            let k = k.min(n - 1); // always leave at least one survivor
                                  // Choose k distinct victims from 0..n, seeded by `pick`.
            let mut victims: Vec<usize> = (0..n).collect();
            let mut s = pick;
            for i in (1..victims.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                victims.swap(i, (s % (i as u64 + 1)) as usize);
            }
            victims.truncate(k);

            let (results, report, expects) = with_watchdog(move || {
                let inner = Arc::new(ConvStackCompute::random(3, 1, 4, 7));
                let faulty = Arc::new(FaultyCompute::new(inner.clone(), n));
                for &v in &victims {
                    faulty.script(v, kill_call, FaultKind::Vanish);
                }
                let exec = Executor::new(n, faulty);
                let mut rng = StdRng::seed_from_u64(pick);
                let inputs: Vec<Tensor> = (0..6)
                    .map(|_| Tensor::rand_uniform(Shape::nchw(1, 4, 8, 8), 1.0, &mut rng))
                    .collect();
                let device_of_unit: Vec<usize> = (0..3).map(|u| u % n).collect();
                let (results, report) = exec.execute_stream_with(
                    &device_of_unit,
                    inputs.clone(),
                    BitWidth::B32,
                    chaos_opts(),
                );
                let expects: Vec<Tensor> =
                    inputs.iter().map(|i| local_reference(&inner, i)).collect();
                (results, report, expects)
            });

            prop_assert_eq!(results.len(), 6);
            for (res, expect) in results.iter().zip(&expects) {
                match res {
                    Ok(out) => prop_assert!(
                        out.data() == expect.data(),
                        "completed request must be B32-exact"
                    ),
                    // Typed failure is acceptable; silent corruption or a
                    // hang is not.
                    Err(
                        ExecError::AttemptsExhausted { .. }
                        | ExecError::NoDevice { .. }
                        | ExecError::DeviceDown { .. },
                    ) => {}
                    Err(other) => {
                        return Err(TestCaseError::fail(format!("unexpected error {other:?}")))
                    }
                }
            }
            prop_assert!(report.wall_ms < 60_000.0);
            Ok(())
        })
        .unwrap();
}

/// Request `i` of a stream: every element `i`.
fn stream_inputs(n: usize) -> Vec<Tensor> {
    (0..n).map(|i| Tensor::full(Shape::nchw(1, 1, 2, 2), i as f32)).collect()
}

/// Streams `n` requests through units `0..6`, two per device on devices
/// 0, 1, 2, with the default options (2 s deadline, 3 attempts).
fn three_stage_stream(
    n: usize,
    kill: &'static [usize],
) -> (Arc<AddCompute>, Vec<Result<Tensor, ExecError>>, ExecReport) {
    with_watchdog(move || {
        let compute = Arc::new(AddCompute::new(6, 3));
        let exec = Executor::new(3, compute.clone());
        kill.iter().for_each(|&d| exec.kill_device(d));
        let (results, report) =
            exec.execute_stream(&[0, 0, 1, 1, 2, 2], stream_inputs(n), BitWidth::B32);
        (compute, results, report)
    })
}

#[test]
fn inproc_stream_happy_path_conserves_and_computes() {
    let n = 24;
    let (compute, results, report) = three_stage_stream(n, &[]);
    assert_eq!(results.len(), n, "exactly one result per input");
    for (i, r) in results.iter().enumerate() {
        let t = r.as_ref().unwrap_or_else(|e| panic!("input {i} failed: {e}"));
        assert_eq!(t.data()[0], i as f32 + compute.sum(), "input {i} produced the wrong logits");
    }
    assert_eq!(compute.jobs(), vec![2 * n as u64; 3], "every stage processes the full stream");
    assert_eq!((report.retries, report.failovers), (0, 0), "{report:?}");
}

#[test]
fn inproc_death_mid_stream_fails_over_to_coordinator() {
    // Device 1 (middle stage) dies before the stream starts: every
    // request's stage-1 units must fail over to the coordinator.
    let n = 12;
    let (compute, results, report) = three_stage_stream(n, &[1]);
    assert_eq!(results.len(), n);
    for (i, r) in results.iter().enumerate() {
        let t = r.as_ref().unwrap_or_else(|e| panic!("input {i} failed despite failover: {e}"));
        assert_eq!(t.data()[0], i as f32 + compute.sum(), "input {i} produced the wrong logits");
    }
    assert_eq!(compute.jobs()[1], 0, "the dead device runs nothing");
    assert_eq!(report.failovers, 2 * n as u32, "every stage-1 unit runs off-plan: {report:?}");
}

#[test]
fn inproc_death_without_fallback_yields_typed_errors() {
    // No live device at all: every input still resolves, with a typed error.
    let n = 8;
    let (compute, results, _) = three_stage_stream(n, &[0, 1, 2]);
    assert_eq!(results.len(), n, "a dead fleet must still resolve every input");
    for (i, r) in results.iter().enumerate() {
        match r {
            Err(
                ExecError::DeviceDown { .. }
                | ExecError::AttemptsExhausted { .. }
                | ExecError::NoDevice { .. },
            ) => {}
            other => panic!("input {i}: expected a typed death error, got {other:?}"),
        }
    }
    assert_eq!(compute.jobs(), vec![0; 3]);
}

#[test]
fn tiled_plans_survive_killing_one_device() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(8));
    runner
        .run(&(2usize..5, 0usize..4, 0usize..4), |(n, victim, kill_call)| {
            let victim = victim % n;
            let ok = with_watchdog(move || {
                let inner = Arc::new(ConvStackCompute::random(2, 1, 4, 3));
                let faulty = Arc::new(FaultyCompute::new(inner.clone(), n));
                faulty.script(victim, kill_call, FaultKind::Vanish);
                let exec = Executor::new(n, faulty);
                let mut rng = StdRng::seed_from_u64(victim as u64);
                let input = Tensor::rand_uniform(Shape::nchw(1, 4, 10, 10), 1.0, &mut rng);
                let grid = GridSpec::new(2, 2);
                let plan = ExecutionPlan {
                    placements: vec![
                        UnitPlacement::Tiled((0..4).map(|t| t % n).collect()),
                        UnitPlacement::Single(victim),
                    ],
                };
                let wire = vec![
                    UnitWire { grid, in_quant: BitWidth::B32 },
                    UnitWire { grid: GridSpec::new(1, 1), in_quant: BitWidth::B32 },
                ];
                match exec.execute_with(&plan, &wire, input.clone(), chaos_opts()) {
                    Ok((out, _)) => {
                        // Local FDSP reference: failover must not change
                        // the math, only where it runs.
                        use murmuration::tensor::tile::{merge_fdsp, split_fdsp};
                        let tiles = split_fdsp(&input, grid);
                        let outs: Vec<Tensor> =
                            tiles.iter().map(|t| inner.run_unit(0, t)).collect();
                        let expect = inner.run_unit(1, &merge_fdsp(&outs, grid));
                        out.data() == expect.data()
                    }
                    // A typed error is an acceptable outcome; a hang or a
                    // panic is not (watchdog + test harness catch those).
                    Err(_) => true,
                }
            });
            prop_assert!(ok, "tiled chaos run returned a wrong result");
            Ok(())
        })
        .unwrap();
}

#[test]
fn kill_restart_cycles_recover_full_service() {
    with_watchdog(|| {
        let inner = Arc::new(ConvStackCompute::random(3, 1, 4, 5));
        let faulty = Arc::new(FaultyCompute::new(inner.clone(), 3));
        let mut exec = Executor::new(3, faulty.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let plan = ExecutionPlan {
            placements: vec![
                UnitPlacement::Single(0),
                UnitPlacement::Single(1),
                UnitPlacement::Single(2),
            ],
        };
        let wire = vec![UnitWire { grid: GridSpec::new(1, 1), in_quant: BitWidth::B32 }; 3];
        for cycle in 0..4 {
            let input = Tensor::rand_uniform(Shape::nchw(1, 4, 8, 8), 1.0, &mut rng);
            let expect = local_reference(&inner, &input);
            // Kill a rotating victim mid-cycle, serve, then restart it.
            let victim = 1 + cycle % 2;
            faulty.kill(victim);
            let (out, report) =
                exec.execute_with(&plan, &wire, input.clone(), chaos_opts()).unwrap();
            assert_eq!(out.data(), expect.data(), "cycle {cycle}: degraded result exact");
            assert!(report.failovers >= 1, "cycle {cycle}: must fail over");
            faulty.revive(victim);
            exec.restart_device(victim);
            let (out, report) =
                exec.execute_with(&plan, &wire, input.clone(), chaos_opts()).unwrap();
            assert_eq!(out.data(), expect.data(), "cycle {cycle}: recovered result exact");
            assert_eq!(report.failovers, 0, "cycle {cycle}: restarted device serves again");
        }
    });
}
