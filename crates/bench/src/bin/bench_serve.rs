//! Serving-layer benchmark: overload behaviour.
//!
//! An open-loop Poisson ramp to ~2× the naive server's capacity, replayed
//! against (a) the naive FIFO baseline (no admission, no batching, no
//! priority) and (b) the engineered server (priority queues + admission
//! control + micro-batching), same runtime, same trace. Engineered goodput
//! must be ≥ 1.5× naive, and the p99 of every admitted latency class must
//! land inside its SLO. (The cost of the serving path on one request is
//! `bench_e2e`'s `overload_serve` `serve.*` waterfall.)
//!
//! ```text
//! cargo run -p murmuration-bench --release --bin bench_serve
//! ```
//!
//! Writes `target/results/BENCH_serve.json`.

use murmuration_bench::emit;
use murmuration_core::{RuntimeConfig, SharedRuntime};
use murmuration_edgesim::{ArrivalTrace, LinkState, RateShape};
use murmuration_partition::compliance::Slo;
use murmuration_rl::{LstmPolicy, Scenario, SloKind};
use murmuration_serve::{
    default_classes, run_open_loop, EnvModel, LoadReport, ServeConfig, ServeHandle,
};
use std::sync::Arc;

fn shared_runtime() -> Arc<SharedRuntime> {
    let sc = Scenario::augmented_computing(SloKind::Latency);
    let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), 1);
    Arc::new(SharedRuntime::new(sc, policy, RuntimeConfig::default(), Slo::LatencyMs(200.0)))
}

fn good_link() -> LinkState {
    LinkState { bandwidth_mbps: 300.0, delay_ms: 8.0 }
}

/// One overload-ramp run against a given server configuration.
fn run_ramp(cfg: ServeConfig, trace: &ArrivalTrace, duration_ms: f64) -> LoadReport {
    let classes = cfg.classes.clone();
    let handle = ServeHandle::start(shared_runtime(), EnvModel::constant(good_link(), 1), cfg);
    let outcomes = run_open_loop(&handle, trace);
    let stats = handle.shutdown();
    assert_eq!(
        stats.completed + stats.rejected,
        stats.submitted,
        "conservation must hold after a full drain"
    );
    LoadReport::build(&classes, &outcomes, stats, duration_ms)
}

fn main() {
    // Overload ramp: 5 → 40 rps over 30 virtual seconds. The naive
    // single-file server saturates near ~15-20 rps on this scenario, so
    // the tail of the ramp is ~2x its capacity.
    let duration_ms = 30_000.0;
    let shape = RateShape::Ramp { from_rps: 5.0, to_rps: 40.0 };
    let mix = [0.4, 0.3, 0.3];
    let trace = ArrivalTrace::poisson(duration_ms, &shape, &mix, 11);
    let scale = 0.02; // 50x faster than wall time
    let mk = |cfg: ServeConfig| ServeConfig { time_scale: scale, ..cfg };

    println!("overload ramp: {} arrivals, {:.1} rps offered on average", trace.len(), {
        trace.offered_rps()
    });
    let naive = run_ramp(mk(ServeConfig::naive(default_classes())), &trace, duration_ms);
    println!("--- naive FIFO baseline ---");
    print!("{}", naive.render_table());
    let engineered = run_ramp(mk(ServeConfig::engineered(default_classes())), &trace, duration_ms);
    println!("--- engineered (priority + admission + batching) ---");
    print!("{}", engineered.render_table());

    let ratio = if naive.goodput_rps > 0.0 {
        engineered.goodput_rps / naive.goodput_rps
    } else {
        f64::INFINITY
    };
    println!(
        "\ngoodput: naive {:.2} rps, engineered {:.2} rps — {ratio:.2}x (budget: 1.5x)",
        naive.goodput_rps, engineered.goodput_rps
    );
    // Admitted latency-class requests must land inside their SLO at p99.
    let mut p99_ok = true;
    for (c, class) in default_classes().iter().enumerate() {
        if let Some(deadline) = class.deadline_ms() {
            let p99 = engineered.per_class[c].p99_ms;
            let ok = p99 <= deadline || engineered.per_class[c].completed == 0;
            println!(
                "p99 {}: {:.1} ms vs {:.0} ms deadline — {}",
                class.name,
                p99,
                deadline,
                if ok { "ok" } else { "MISS" }
            );
            p99_ok &= ok;
        }
    }

    let mut json = String::from("{\n  \"overload_ramp\": {\n");
    json.push_str("    \"naive\":\n");
    json.push_str(&naive.to_json("    "));
    json.push_str(",\n    \"engineered\":\n");
    json.push_str(&engineered.to_json("    "));
    json.push_str(&format!(
        ",\n    \"goodput_ratio\": {ratio:.3},\n    \"goodput_budget\": 1.5,\n    \
         \"latency_p99_within_slo\": {p99_ok}\n  }}\n}}\n"
    ));
    let mut failed = emit("BENCH_serve.json", &json).is_err();
    if ratio < 1.5 {
        eprintln!("WARNING: engineered goodput below the 1.5x budget");
        failed = true;
    }
    if !p99_ok {
        eprintln!("WARNING: p99 of an admitted latency class misses its SLO");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
