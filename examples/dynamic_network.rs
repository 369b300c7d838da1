//! Dynamic-environment demo: the full runtime loop — monitoring with
//! noise, linear-regression forecasting, strategy-cache precomputation,
//! millisecond submodel switches — while the network follows a trace.
//! Also demonstrates the *real* distributed executor: threads + channels
//! computing actual convolutions with FDSP tiling and wire quantization.
//!
//! Run with: `cargo run --release --example dynamic_network`

use murmuration::edgesim::trace::NetworkTrace;
use murmuration::prelude::*;
use murmuration::rl::supreme::{self, SupremeConfig};
use murmuration::runtime::executor::{ConvStackCompute, Executor, UnitWire};
use murmuration::tensor::quant::BitWidth;
use murmuration::tensor::tile::GridSpec;
use murmuration::tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    // --- Part 1: runtime adaptation over a dynamic trace -------------
    let scenario = Scenario::augmented_computing(SloKind::Latency);
    println!("training a small policy (600 episodes)…");
    let (policy, _) = supreme::train(
        &scenario,
        &SupremeConfig { steps: 600, eval_every: 300, ..Default::default() },
    );
    let rt = SharedRuntime::new(scenario, policy, RuntimeConfig::default(), Slo::LatencyMs(140.0));
    let mut rng = StdRng::seed_from_u64(11);

    // The link swings between a good and a congested state.
    let trace = NetworkTrace::steps(vec![
        (0.0, LinkState { bandwidth_mbps: 400.0, delay_ms: 5.0 }),
        (1500.0, LinkState { bandwidth_mbps: 60.0, delay_ms: 60.0 }),
        (3500.0, LinkState { bandwidth_mbps: 250.0, delay_ms: 15.0 }),
    ]);

    println!("\nruntime adaptation over a step trace (SLO = 140 ms):");
    println!(
        "{:>8} {:>9} {:>9} {:>10} {:>11} {:>7} {:>6}",
        "t ms", "bw Mbps", "delay ms", "lat ms", "accuracy %", "cached", "met"
    );
    for step in 0..12u32 {
        let t = step as f64 * 400.0;
        let link = trace.sample(t);
        let net = NetworkState::uniform(1, link);
        // Background monitoring tick (feeds the predictor + cache).
        rt.tick(&net, t, &mut rng);
        let r = rt.infer(&net, t + 50.0, &mut rng);
        println!(
            "{:>8.0} {:>9.0} {:>9.0} {:>10.1} {:>11.2} {:>7} {:>6}",
            t,
            link.bandwidth_mbps,
            link.delay_ms,
            r.latency_ms,
            r.accuracy_pct,
            r.cached,
            r.slo_met
        );
    }
    let stats = rt.cache_stats();
    println!("cache hit ratio: {:.0} %", stats.hit_ratio() * 100.0);

    // --- Part 2: real distributed execution (threads as devices) -----
    println!("\ndistributed executor: 4 worker threads, FDSP 2x2 tiling, 8-bit wire");
    let compute = Arc::new(ConvStackCompute::random(3, 2, 8, 3));
    let exec = Executor::new(4, compute.clone());
    let mut rng = StdRng::seed_from_u64(5);
    let input = Tensor::rand_uniform(Shape::nchw(1, 8, 64, 64), 1.0, &mut rng);

    let local_plan = ExecutionPlan { placements: vec![UnitPlacement::Single(0); 3] };
    let wire_local = vec![UnitWire { grid: GridSpec::new(1, 1), in_quant: BitWidth::B32 }; 3];
    let (_out, local) = exec.execute(&local_plan, &wire_local, input.clone()).expect("local plan");

    let tiled_plan = ExecutionPlan {
        placements: vec![
            UnitPlacement::Tiled(vec![0, 1, 2, 3]),
            UnitPlacement::Tiled(vec![0, 1, 2, 3]),
            UnitPlacement::Single(0),
        ],
    };
    let mut wire_tiled = wire_local.clone();
    wire_tiled[0].grid = GridSpec::new(2, 2);
    wire_tiled[1].grid = GridSpec::new(2, 2);
    wire_tiled[1].in_quant = BitWidth::B8;
    let (out_tiled, tiled) =
        exec.execute(&tiled_plan, &wire_tiled, input.clone()).expect("tiled plan");

    println!("  single worker : {:>8.2} ms wall", local.wall_ms);
    println!(
        "  2x2 tiled     : {:>8.2} ms wall ({:.2}x)",
        tiled.wall_ms,
        local.wall_ms / tiled.wall_ms
    );
    println!("  output shape  : {:?}", out_tiled.shape());

    // Pipelined streaming: 6 inputs flow through units pinned to devices
    // 0→1→2; different inputs' stages overlap across the worker threads.
    let stream_inputs: Vec<Tensor> =
        (0..6).map(|_| Tensor::rand_uniform(Shape::nchw(1, 8, 64, 64), 1.0, &mut rng)).collect();
    let (outs, stream) = exec.execute_stream(&[0, 1, 2], stream_inputs, BitWidth::B32);
    println!(
        "  pipelined     : {:>8.2} ms wall for {} inferences ({:.2} ms each)",
        stream.wall_ms,
        outs.len(),
        stream.wall_ms / outs.len() as f64
    );
    assert!(outs.iter().all(Result::is_ok), "healthy stream must fully complete");
    println!("\n(FDSP keeps tiles independent, so the tiled result differs from the");
    println!(" monolithic one only along tile seams — the accuracy cost Murmuration's");
    println!(" accuracy model charges for spatial partitioning.)");
}
