//! Allocation budget of a decision miss — counted, not timed. On the parent
//! of the change that lowered the fallback ladder once, a warmed
//! `DecisionModule::decide` miss on the benchmark's policy and scenario
//! allocated 22 006–22 252 times (every rung re-decoded, re-lowered,
//! re-planned and re-predicted per call, twice over for `used_links`). The
//! budget is a third of that; what remains is almost all
//! `LatencyEstimator::estimate`'s per-unit holder vectors, 73 times over.

#[path = "../../rl/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;
use murmuration_core::decision::DecisionModule;
use murmuration_core::executor::{ConvStackCompute, UnitCompute};
use murmuration_rl::{LstmPolicy, Scenario, SloKind};
use murmuration_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PARENT_MISS_ALLOCATIONS: u64 = 22_006;
const BUDGET: u64 = PARENT_MISS_ALLOCATIONS / 3;

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
