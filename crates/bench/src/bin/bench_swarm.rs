//! Fleet-scale swarm gate for the readiness-based transport core.
//!
//! Spins up an in-process fleet (default 1 000 workers, each a real
//! loopback listener) behind one `SwarmWorkerHost`, connects one
//! `AsyncTcpTransport` coordinator to all of them, and drives the full
//! robustness scenario: baseline wave → churn waves (10% connection
//! drops mid-wave) → a 30% simultaneous-disconnect storm → the
//! mass-reconnect stampede through bounded accept-rate storm control →
//! an idle window for the flat-CPU check.
//!
//! ```text
//! cargo run -p murmuration-bench --release --bin bench_swarm
//! MURMURATION_SWARM_WORKERS=64 MURMURATION_SWARM_REQS=128 ... # smoke
//! ```
//!
//! Writes `target/results/BENCH_swarm.json`; exits nonzero when a gate fails:
//!
//! * every reply exactly once and bit-exact (`verified_ok == requests`);
//! * exactly-once compute (`computed == requests` — duplicates land in
//!   dedup, never in compute);
//! * event-loop threads ≤ cores on both sides (no thread-per-connection);
//! * the storm severed connections and every one reconnected;
//! * storm control actually refused accepts during the stampede;
//! * idle CPU stays near-flat per connection (< 1 ms per conn over the
//!   idle window — a busy-polling regression costs ×10 that).

use murmuration_bench::emit;
use murmuration_transport::{run_swarm, SwarmConfig};
use std::time::Duration;

const IDLE_CPU_MS_PER_CONN_BUDGET: f64 = 1.0;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let cfg = SwarmConfig {
        n_workers: env_usize("MURMURATION_SWARM_WORKERS", 1000),
        reqs_per_wave: env_usize("MURMURATION_SWARM_REQS", 2000),
        churn_waves: env_usize("MURMURATION_SWARM_WAVES", 2),
        storm_fraction: 0.30,
        accept_rate: env_usize("MURMURATION_SWARM_ACCEPT_RATE", 500) as u32,
        heartbeat: Duration::from_secs(2),
        idle_window: Duration::from_millis(env_usize("MURMURATION_SWARM_IDLE_MS", 2000) as u64),
        seed: 0x5157_4152,
    };
    eprintln!(
        "swarm: {} workers, {} reqs/wave, {} churn waves, 30% storm, accept rate {}/s",
        cfg.n_workers, cfg.reqs_per_wave, cfg.churn_waves, cfg.accept_rate
    );

    let report = match run_swarm(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: swarm scenario did not complete: {e}");
            std::process::exit(1);
        }
    };

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("{:<34} {:>12}", "swarm", "value");
    println!("{:<34} {:>12}", "workers", report.n_workers);
    println!("{:<34} {:>12}", "host_driver_threads", report.host_driver_threads);
    println!("{:<34} {:>12}", "client_driver_threads", report.client_driver_threads);
    println!("{:<34} {:>12}", "requests", report.requests);
    println!("{:<34} {:>12}", "verified_ok", report.verified_ok);
    println!("{:<34} {:>12}", "computed", report.computed);
    println!("{:<34} {:>12}", "deduped", report.deduped);
    println!("{:<34} {:>12}", "churn_dropped", report.churn_dropped);
    println!("{:<34} {:>12}", "storm_dropped", report.storm_dropped);
    println!("{:<34} {:>12}", "reconnects", report.reconnects);
    println!("{:<34} {:>12}", "accepts_shed", report.accepts_shed);
    println!("{:<34} {:>12}", "backpressure_rejections", report.backpressure_rejections);
    println!("{:<34} {:>12.4}", "idle_cpu_ms_per_conn", report.idle_cpu_ms_per_conn);
    println!("{:<34} {:>12.4}", "idle_cpu_frac", report.idle_cpu_frac);
    println!("{:<34} {:>12.2}", "elapsed_s", report.elapsed_s);

    // The idle-CPU gate only means something where /proc exposes CPU time.
    let idle_measured = report.idle_cpu_s > 0.0 || cfg!(target_os = "linux");
    let mut failures: Vec<String> = Vec::new();
    if report.verified_ok != report.requests {
        failures
            .push(format!("replies: {} verified of {} sent", report.verified_ok, report.requests));
    }
    if report.computed != report.requests {
        failures.push(format!(
            "exactly-once: computed {} for {} requests",
            report.computed, report.requests
        ));
    }
    if report.host_driver_threads > cores || report.client_driver_threads > cores {
        failures.push(format!(
            "driver threads exceed cores: host {} / client {} vs {cores}",
            report.host_driver_threads, report.client_driver_threads
        ));
    }
    if report.storm_dropped == 0 {
        failures.push("storm severed no connections".to_owned());
    }
    if report.reconnects < report.storm_dropped {
        failures.push(format!(
            "only {} reconnects for {} severed connections",
            report.reconnects, report.storm_dropped
        ));
    }
    if cfg.accept_rate > 0 && report.accepts_shed == 0 {
        failures.push("storm control never refused an accept during the stampede".to_owned());
    }
    if idle_measured && report.idle_cpu_ms_per_conn > IDLE_CPU_MS_PER_CONN_BUDGET {
        failures.push(format!(
            "idle CPU {:.3} ms/conn exceeds {IDLE_CPU_MS_PER_CONN_BUDGET} ms budget",
            report.idle_cpu_ms_per_conn
        ));
    }

    let json = format!(
        "{{\n  \"workers\": {},\n  \"host_driver_threads\": {},\n  \
         \"client_driver_threads\": {},\n  \"cores\": {cores},\n  \"requests\": {},\n  \
         \"verified_ok\": {},\n  \"computed\": {},\n  \"deduped\": {},\n  \
         \"churn_dropped\": {},\n  \"storm_dropped\": {},\n  \"reconnects\": {},\n  \
         \"accepts_shed\": {},\n  \"backpressure_rejections\": {},\n  \
         \"idle_cpu_ms_per_conn\": {:.4},\n  \"idle_cpu_frac\": {:.4},\n  \
         \"idle_cpu_ms_per_conn_budget\": {IDLE_CPU_MS_PER_CONN_BUDGET:.1},\n  \
         \"elapsed_s\": {:.2},\n  \"pass\": {}\n}}\n",
        report.n_workers,
        report.host_driver_threads,
        report.client_driver_threads,
        report.requests,
        report.verified_ok,
        report.computed,
        report.deduped,
        report.churn_dropped,
        report.storm_dropped,
        report.reconnects,
        report.accepts_shed,
        report.backpressure_rejections,
        report.idle_cpu_ms_per_conn,
        report.idle_cpu_frac,
        report.elapsed_s,
        failures.is_empty(),
    );
    if emit("BENCH_swarm.json", &json).is_err() {
        failures.push("report refused".to_owned());
    }

    if failures.is_empty() {
        println!("swarm gate: PASS");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
