//! Chaos-campaign benchmark: the standing robustness regression surface.
//!
//! Replays the built-in scenario matrix (`edgesim::scenario`) against a
//! grid of partition policy × bit-width × serving mode through the
//! deterministic virtual-time campaign engine (`serve::campaign`), and
//! gates on the invariants the paper's robustness story rests on:
//!
//! 1. **Conservation** — `completed + rejected == submitted`, `lost == 0`
//!    in every scenario × cell (asserted inside the engine; a violation
//!    aborts the run).
//! 2. **Pareto fronts exist** — every scenario that completes work has a
//!    non-empty latency/accuracy/goodput front.
//! 3. **Bit-for-bit replay** — a spot-checked scenario re-run from the
//!    same `(name, seed)` produces an identical counter fingerprint.
//! 4. **Schema stability** — `emit` refuses a report that misses a
//!    declared `murmuration.campaign.v1` required key.
//!
//! ```text
//! cargo run -p murmuration-bench --release --bin bench_campaign [-- --smoke]
//! MURMURATION_BENCH_MS=120000 ./target/release/bench_campaign --smoke
//! ```
//!
//! `--smoke` (or a small `MURMURATION_BENCH_MS` budget) shrinks the grid
//! to the 3-cell smoke grid and writes `target/results/CAMPAIGN_smoke.json`;
//! the full run sweeps all 18 cells into
//! `target/results/CAMPAIGN_builtin.json`. The run is deterministic, so a
//! fresh report must equal the checked-in one under `results/` byte for
//! byte (`scripts/check.sh` compares the smoke report).

use murmuration_bench::emit;
use murmuration_edgesim::scenario::builtin_matrix;
use murmuration_serve::campaign::{
    full_grid, run_cell, run_scenario, smoke_grid, CampaignConfig, CampaignResult,
};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let budget_ms: u64 =
        std::env::var("MURMURATION_BENCH_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(120_000);
    let smoke = args.iter().any(|a| a == "--smoke") || budget_ms < 60_000;
    let grid = if smoke { smoke_grid() } else { full_grid() };
    let cfg = CampaignConfig::default();
    let specs = builtin_matrix();

    println!(
        "campaign: {} scenarios x {} cells ({}), seed {}",
        specs.len(),
        grid.len(),
        if smoke { "smoke grid" } else { "full grid" },
        cfg.master_seed
    );

    let t0 = Instant::now();
    let mut scenarios = Vec::new();
    let mut failed = false;
    for spec in &specs {
        let r = run_scenario(spec, &grid, &cfg);
        let front = r.front_labels();
        let completed: u64 = r.cells.iter().map(|c| c.stats.completed).sum();
        println!(
            "  {:<28} offered {:>5}  completed {:>6}  front: {}",
            r.name,
            r.offered,
            completed,
            if front.is_empty() { "(empty)".to_string() } else { front.join(", ") }
        );
        // Gate 2: a scenario that completes work must have a front.
        if completed > 0 && front.is_empty() {
            eprintln!("WARNING: {} completed work but has an empty Pareto front", r.name);
            failed = true;
        }
        scenarios.push(r);
        if t0.elapsed().as_millis() as u64 > budget_ms {
            eprintln!(
                "WARNING: campaign exceeded its {budget_ms} ms budget after {} scenarios",
                scenarios.len()
            );
            failed = true;
            break;
        }
    }
    let result = CampaignResult { master_seed: cfg.master_seed, scenarios };
    println!("campaign wall time: {:.1} s", t0.elapsed().as_secs_f64());

    // Gate 3: bit-for-bit replay of a spot-checked scenario × cell.
    let spot = &specs[cfg.master_seed as usize % specs.len()];
    let cell = &grid[0];
    let a = run_cell(spot, cell, &cfg);
    let b = run_cell(spot, cell, &cfg);
    if a.fingerprint() == b.fingerprint() {
        println!("replay check: {} x {} is bit-for-bit stable", spot.name, cell.label());
    } else {
        eprintln!(
            "WARNING: replay of {} x {} diverged:\n  {}\n  {}",
            spot.name,
            cell.label(),
            a.fingerprint(),
            b.fingerprint()
        );
        failed = true;
    }

    // Gate 4 runs inside `emit`. Smoke runs get their own artifact so a
    // smoke pass never clobbers the full-grid report.
    let file = if smoke { "CAMPAIGN_smoke.json" } else { "CAMPAIGN_builtin.json" };
    failed |= emit(file, &result.to_json()).is_err();

    if failed {
        std::process::exit(1);
    }
}
