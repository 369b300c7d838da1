//! Control-plane benchmark: failover recovery.
//!
//! Poisson load, primary killed mid-stream with requests in flight: the
//! standby must promote, goodput in the post-kill phase must recover to
//! ≥ 80% of the pre-kill phase, and cluster-level conservation must hold
//! with exactly one failover.
//!
//! ```text
//! cargo run -p murmuration-bench --release --bin bench_failover
//! ```
//!
//! Writes `target/results/BENCH_failover.json`.

use murmuration_bench::emit;
use murmuration_core::{RuntimeConfig, SharedRuntime};
use murmuration_edgesim::LinkState;
use murmuration_partition::compliance::Slo;
use murmuration_rl::{LstmPolicy, Scenario, SloKind};
use murmuration_serve::{
    default_classes, CoordinatorSpec, EnvModel, FailoverCluster, FailoverConfig, PendingServe,
    ServeConfig, ServeOutcome,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

fn shared_runtime(policy_seed: u64) -> Arc<SharedRuntime> {
    let sc = Scenario::augmented_computing(SloKind::Latency);
    let policy = LstmPolicy::new(sc.input_dim(), 16, sc.arities(), policy_seed);
    Arc::new(SharedRuntime::new(sc, policy, RuntimeConfig::default(), Slo::LatencyMs(200.0)))
}

fn good_link() -> LinkState {
    LinkState { bandwidth_mbps: 300.0, delay_ms: 8.0 }
}

fn serve_cfg(seed: u64) -> ServeConfig {
    ServeConfig {
        service_sleep: false,
        time_scale: 0.01,
        base_seed: seed,
        ..ServeConfig::engineered(default_classes())
    }
}

fn spec(seed: u64) -> CoordinatorSpec {
    CoordinatorSpec {
        rt: shared_runtime(seed),
        env: EnvModel::constant(good_link(), 1),
        cfg: serve_cfg(seed),
    }
}

fn poisson(rng: &mut StdRng, lambda: f64) -> usize {
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

fn poisson_phase(cl: &mut FailoverCluster, rng: &mut StdRng, total: usize) -> usize {
    let mut done = 0usize;
    let mut sent = 0usize;
    while sent < total {
        let burst = poisson(rng, 3.0).clamp(1, total - sent);
        let pending: Vec<PendingServe> = (0..burst).map(|_| cl.submit(0)).collect();
        sent += burst;
        for p in pending {
            if matches!(cl.resolve(p), Some(ServeOutcome::Done(_))) {
                done += 1;
            }
        }
    }
    done
}

struct Recovery {
    phase: usize,
    before: usize,
    after: usize,
    detect_ms: f64,
    crash_dropped: u64,
    retried: u64,
    lost: u64,
    conserved: bool,
    failovers: u64,
}

/// Kill the primary under Poisson load, time the promotion, and
/// compare goodput either side of the crash.
fn bench_recovery(phase: usize) -> Recovery {
    let mut cl = FailoverCluster::new(vec![spec(11), spec(23)], FailoverConfig::default());
    let mut rng = StdRng::seed_from_u64(0xFA11);

    let before = poisson_phase(&mut cl, &mut rng, phase);
    let window: Vec<PendingServe> = (0..12).map(|_| cl.submit(0)).collect();
    cl.kill_active();
    // Detection + promotion happens inside the first post-kill resolve;
    // wall-time it.
    let t0 = Instant::now();
    let mut resolved = 0usize;
    for p in window {
        if cl.resolve(p).is_some() {
            resolved += 1;
        }
    }
    let detect_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(resolved, 12, "in-flight requests must fail over, not vanish");

    let after = poisson_phase(&mut cl, &mut rng, phase);
    let s = cl.shutdown();
    Recovery {
        phase,
        before,
        after,
        detect_ms,
        crash_dropped: s.crash_dropped,
        retried: s.retried,
        lost: s.lost,
        conserved: s.completed + s.rejected == s.submitted,
        failovers: s.failovers,
    }
}

fn main() {
    let budget_ms: u64 =
        std::env::var("MURMURATION_BENCH_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(1500);
    let r = bench_recovery((budget_ms as usize / 25).clamp(30, 400));
    let recovery_ratio =
        if r.before > 0 { r.after as f64 / r.before as f64 } else { f64::INFINITY };
    println!("failover recovery ({} requests per phase):", r.phase);
    println!("  goodput before  {:>4}/{}", r.before, r.phase);
    println!("  goodput after   {:>4}/{}   ({recovery_ratio:.2}x, budget: 0.8x)", r.after, r.phase);
    println!("  detect+promote  {:>7.1} ms (12 in-flight requests failed over)", r.detect_ms);
    println!(
        "  dropped {} / retried {} / lost {} / conservation {}",
        r.crash_dropped, r.retried, r.lost, r.conserved
    );

    let json = format!(
        "{{\n  \"failover\": {{\"phase_requests\": {}, \"completed_before\": {}, \
         \"completed_after\": {}, \"recovery_ratio\": {recovery_ratio:.3}, \
         \"recovery_budget\": 0.8, \"detect_promote_ms\": {:.2}, \"crash_dropped\": {}, \
         \"retried\": {}, \"lost\": {}, \"failovers\": {}, \"conservation\": {}}}\n}}\n",
        r.phase,
        r.before,
        r.after,
        r.detect_ms,
        r.crash_dropped,
        r.retried,
        r.lost,
        r.failovers,
        r.conserved,
    );
    let mut failed = emit("BENCH_failover.json", &json).is_err();
    if recovery_ratio < 0.8 {
        eprintln!("WARNING: post-failover goodput below the 0.8x budget");
        failed = true;
    }
    if r.lost != 0 || !r.conserved || r.failovers != 1 {
        eprintln!("WARNING: conservation violated across the handover");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
