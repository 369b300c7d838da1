//! Allocation budget of a decision miss — counted, not timed. On the parent
//! of the change that lowered the fallback ladder once, a warmed
//! `DecisionModule::decide` miss on the benchmark's policy and scenario
//! allocated 22 006–22 252 times (every rung re-decoded, re-lowered,
//! re-planned and re-predicted per call, twice over for `used_links`). With
//! the ladder lowered once it made 2 402–2 631, of which 73 × 30 were
//! `LatencyEstimator::estimate`'s per-unit participant and holder vectors
//! and 73 the copied action sequence of every priced rung. With the cost
//! walk over inline holders and only the winner's actions copied, the 16
//! misses below make 141–367; the budget is that maximum.

#[path = "../../rl/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;
use murmuration_core::decision::DecisionModule;
use murmuration_core::executor::{ConvStackCompute, ExecOptions, Executor, UnitCompute, UnitWire};
use murmuration_core::{RuntimeConfig, SharedRuntime};
use murmuration_edgesim::{LinkState, NetworkState};
use murmuration_partition::compliance::Slo;
use murmuration_partition::{ExecutionPlan, UnitPlacement};
use murmuration_rl::{LstmPolicy, Scenario, SloKind};
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::tile::GridSpec;
use murmuration_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const BUDGET: u64 = 367;

const LAYERS: u64 = 2;
/// A `Tensor` is two allocations: its data buffer and its 4-word `Shape`.
const ALLOCATIONS_PER_OUTPUT: u64 = 2;

#[test]
fn warm_miss_stays_under_a_third_of_the_parents_allocations() {
    let sc = Scenario::device_swarm(4, SloKind::Latency);
    let policy = LstmPolicy::new(sc.input_dim(), 256, sc.arities(), 0x6d75_726d);
    let module = DecisionModule::new(sc.clone(), policy, 512);
    let mut rng = StdRng::seed_from_u64(1);
    module.decide(&sc.sample_condition(&mut rng)); // builds the weight pack
    let mut misses = Vec::new();
    for _ in 0..16 {
        let cond = sc.sample_condition(&mut rng);
        let (decision, n) = allocations_in(|| module.decide(&cond));
        if !decision.cached {
            misses.push(n);
        }
    }
    println!("allocations per warm miss: {misses:?} (budget {BUDGET})");
    assert!(misses.len() >= 8, "the seeded conditions must mostly miss");
    assert!(misses.iter().all(|&n| n <= BUDGET), "a miss allocated past {BUDGET}: {misses:?}");
}

/// Allocator calls of the third `run_unit` on this thread (two warm-ups let
/// the thread's scratch pool grow to the unit's workspaces).
fn warm_unit_allocations(compute: &ConvStackCompute, input: &Tensor) -> u64 {
    compute.run_unit(0, input);
    compute.run_unit(0, input);
    allocations_in(|| compute.run_unit(0, input)).1
}

#[test]
fn warm_f32_unit_allocates_only_its_output_tensors() {
    let compute = ConvStackCompute::random(1, LAYERS as usize, 16, 7);
    let mut rng = StdRng::seed_from_u64(1);
    let input = Tensor::rand_uniform(Shape::nchw(1, 16, 48, 48), 1.0, &mut rng);
    let here = warm_unit_allocations(&compute, &input);
    let there = std::thread::scope(|s| {
        s.spawn(|| warm_unit_allocations(&compute, &input)).join().expect("second thread")
    });
    println!("allocations per warm {LAYERS}-layer f32 unit: {here} (second thread {there})");
    assert_eq!(here, LAYERS * ALLOCATIONS_PER_OUTPUT);
    assert_eq!(there, LAYERS * ALLOCATIONS_PER_OUTPUT);
}

/// Coordinator-thread allocator calls of the fourth `execute_with` of
/// `plan` (three warm-ups). Workers run on their own threads, so this counts
/// the executor's bookkeeping, reply channels, the wire round trip of every
/// cross-device input, and tile split/merge — not the kernels.
fn warm_execute_allocations(exec: &Executor, plan: &ExecutionPlan, wire: &[UnitWire]) -> u64 {
    let mut rng = StdRng::seed_from_u64(1);
    let input = Tensor::rand_uniform(Shape::nchw(1, 8, 24, 24), 1.0, &mut rng);
    for _ in 0..3 {
        exec.execute_with(plan, wire, input.clone(), ExecOptions::default()).expect("warm-up");
    }
    let input = input.clone();
    let (run, n) = allocations_in(|| exec.execute_with(plan, wire, input, ExecOptions::default()));
    run.expect("counted run");
    n
}

/// The most allocator calls the executor made on the coordinator thread
/// before its three attempt loops became one machine, over 30 runs of this
/// test (debug and release): always 23 for the all-local plan (per unit a
/// reply channel, its receiver's waker entry and the output's `Arc`), 59–65
/// for the tiled-and-remote one, whose count wanders with the order in which
/// tile replies arrive.
const PARENT_ALL_LOCAL_MAX: u64 = 23;
const PARENT_TILED_REMOTE_MAX: u64 = 65;

#[test]
fn warm_execute_allocates_no_more_than_the_three_loops_did() {
    let exec = Executor::new(4, Arc::new(ConvStackCompute::random(7, 2, 8, 7)));
    let wire = vec![UnitWire { grid: GridSpec::new(1, 1), in_quant: BitWidth::B32 }; 7];
    let all_local = ExecutionPlan { placements: vec![UnitPlacement::Single(0); 7] };
    let mut tiled_remote = all_local.clone();
    tiled_remote.placements[1] = UnitPlacement::Tiled(vec![0, 1, 2, 3]);
    tiled_remote.placements[3] = UnitPlacement::Single(1);
    let mut tiled_wire = wire.clone();
    tiled_wire[1].grid = GridSpec::new(2, 2);

    let local = warm_execute_allocations(&exec, &all_local, &wire);
    let tiled = warm_execute_allocations(&exec, &tiled_remote, &tiled_wire);
    println!("allocations per warm execute: all-local {local}, tiled+remote {tiled}");
    assert!(local <= PARENT_ALL_LOCAL_MAX, "all-local plan: {local} > {PARENT_ALL_LOCAL_MAX}");
    assert!(tiled <= PARENT_TILED_REMOTE_MAX, "tiled plan: {tiled} > {PARENT_TILED_REMOTE_MAX}");
}

/// Allocator calls of a warm `SharedRuntime::serve_decide` cache hit at a
/// 200 Mbps / 10 ms link after one `tick` and one warm-up decision.
fn warm_hit_allocations(sc: Scenario) -> u64 {
    let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 0);
    let link = LinkState { bandwidth_mbps: 200.0, delay_ms: 10.0 };
    let net = NetworkState::uniform(sc.n_remote(), link);
    let slo = Slo::LatencyMs(140.0);
    let rt = SharedRuntime::new(sc, policy, RuntimeConfig::default(), slo);
    rt.tick(&net, 0.0, &mut StdRng::seed_from_u64(1));
    rt.serve_decide(slo).expect("the monitor has sampled");
    let (decision, n) = allocations_in(|| rt.serve_decide(slo));
    assert!(decision.expect("ready").cached, "the second decision must hit");
    n
}

/// A warm hit's allocator calls while the runtime kept the fleet in three
/// mutexes: 12 on the augmented scenario and 13 on a four-device swarm, of
/// which four were the fleet reads (the alive mask, the gray mask, their
/// conjunction and the penalties, each a fresh `Vec`). Reading one
/// `FleetSnapshot` makes them two: the snapshot and its placeable mask.
const PARENT_HIT_AUGMENTED: u64 = 12;
const PARENT_HIT_SWARM: u64 = 13;
const HIT_AUGMENTED: u64 = 10;
const HIT_SWARM: u64 = 11;

#[test]
fn warm_decide_hit_reads_the_fleet_once() {
    let augmented = warm_hit_allocations(Scenario::augmented_computing(SloKind::Latency));
    let swarm = warm_hit_allocations(Scenario::device_swarm(4, SloKind::Latency));
    println!("allocations per warm decide hit: augmented {augmented}, swarm {swarm}");
    assert_eq!(augmented, HIT_AUGMENTED);
    assert_eq!(swarm, HIT_SWARM);
}

const _: () = assert!(HIT_AUGMENTED < PARENT_HIT_AUGMENTED && HIT_SWARM < PARENT_HIT_SWARM);
