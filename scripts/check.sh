#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests.
#
#   scripts/check.sh
#
# Runs the same checks CI would: rustfmt in check mode, clippy with warnings
# denied, and the full test suite.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

echo "==> decision path (golden digests, scalar-cell oracle, allocation budgets: bits and counts, not timings)"
timeout 600 cargo test -q -p murmuration-rl -p murmuration-core

echo "==> chaos tests (bounded: a hang is a failure, not a stuck CI job)"
timeout 300 cargo test -q --test executor_chaos --test runtime_degraded

echo "==> straggler chaos + health proptests (bounded: hedging must never hang)"
timeout 300 cargo test -q --test straggler_chaos
timeout 300 cargo test -q -p murmuration-core --test health_proptest

echo "==> serving-layer tests (bounded: the serve loop must never hang)"
timeout 300 cargo test -q --test serve_loop --test serve_chaos
timeout 300 cargo test -q -p murmuration-serve

echo "==> scenario matrix (bounded: >=20 chaos scenarios, conservation in every cell)"
timeout 300 cargo test -q --test scenario_matrix
timeout 300 cargo test -q -p murmuration-serve --test campaign_determinism

echo "==> report schema gate (BENCH_*.json / CAMPAIGN_*.json shape drift fails here)"
timeout 300 cargo test -q --test report_schema

echo "==> pipeline chaos + worker dedup tests (bounded: streams must drain, maps must stay bounded)"
timeout 300 cargo test -q -p murmuration-serve --test pipeline_chaos
timeout 300 cargo test -q -p murmuration-transport dedup

echo "==> socket chaos tests (bounded: the coordinator must never hang on a bad link)"
timeout 300 cargo test -q --test transport_chaos --test transport_parity

echo "==> swarm harness smoke (bounded: churn + storm + stampede, exactly-once results)"
timeout 300 cargo test -q -p murmuration-transport swarm

echo "==> control-plane chaos (bounded: gossip failover + Byzantine reputation bounds)"
timeout 300 cargo test -q --test failover_chaos
timeout 300 cargo test -q -p murmuration-core --test gossip_proptest

echo "==> scalar-fallback leg (full tensor + quantized-layer suites + executor parity, SIMD forced off)"
# The SIMD dispatch satellite: the same tests must pass with the portable
# kernels, and the parity/exactness suites inside them compare both paths.
# The executor tests hold "distributed == local, bit for bit" on the
# portable direct-convolution tile as well.
MURMURATION_FORCE_SCALAR=1 timeout 600 cargo test -q -p murmuration-tensor
MURMURATION_FORCE_SCALAR=1 timeout 300 cargo test -q -p murmuration-nn quantized
MURMURATION_FORCE_SCALAR=1 timeout 300 cargo test -q -p murmuration-core executor

echo "==> fault-path lint gates (no unwrap/expect in hardened modules)"
for f in crates/core/src/executor.rs crates/core/src/wire.rs \
         crates/core/src/fault.rs crates/core/src/health.rs \
         crates/core/src/gossip.rs \
         crates/tensor/src/simd.rs crates/tensor/src/int8.rs \
         crates/nn/src/layers/quantized.rs \
         crates/transport/src/lib.rs \
         crates/transport/src/driver.rs \
         crates/transport/src/aclient.rs \
         crates/transport/src/aworker.rs \
         crates/transport/src/swarm.rs \
         crates/partition/src/pipeline.rs \
         crates/edgesim/src/scenario.rs; do
    if ! grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' "$f"; then
        echo "error: $f lost its unwrap/expect lint gate" >&2
        exit 1
    fi
done

echo "==> serve crate lint gate (crate-wide unwrap/expect denial, covers the failover path)"
if ! grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' crates/serve/src/lib.rs; then
    echo "error: crates/serve/src/lib.rs lost its unwrap/expect lint gate" >&2
    exit 1
fi
if ! grep -q 'pub mod failover;' crates/serve/src/lib.rs; then
    echo "error: crates/serve/src/failover.rs left the crate-wide lint gate" >&2
    exit 1
fi
if ! grep -q 'pub mod pipeline;' crates/serve/src/lib.rs; then
    echo "error: crates/serve/src/pipeline.rs left the crate-wide lint gate" >&2
    exit 1
fi
if ! grep -q 'pub mod campaign;' crates/serve/src/lib.rs; then
    echo "error: crates/serve/src/campaign.rs left the crate-wide lint gate" >&2
    exit 1
fi
if ! grep -q 'pub mod schema;' crates/serve/src/lib.rs; then
    echo "error: crates/serve/src/schema.rs left the crate-wide lint gate" >&2
    exit 1
fi

echo "==> unsafe-block safety-comment lint (SIMD kernels)"
# Every `unsafe fn` / `unsafe {` in the hand-written kernel modules must be
# preceded (within 12 lines, spanning doc sections and attributes) by a
# SAFETY comment or a # Safety doc section.
for f in crates/tensor/src/simd.rs crates/tensor/src/int8.rs; do
    if ! awk -v file="$f" '
        BEGIN { bad = 0 }
        { line[NR] = $0 }
        /unsafe (fn|\{)/ {
            ok = 0
            for (i = NR - 1; i >= NR - 12 && i >= 1; i--)
                if (tolower(line[i]) ~ /safety/) { ok = 1; break }
            if (!ok) { printf "%s:%d: unsafe without SAFETY comment: %s\n", file, NR, $0; bad = 1 }
        }
        END { exit bad }
    ' "$f"; then
        echo "error: $f has unsafe blocks without safety comments" >&2
        exit 1
    fi
done

# Perf gates measure single-digit-percent overheads on whatever box CI
# happens to run on; a background noise burst during one bench reads as
# a phantom regression. Up to two retries with growing cool-downs
# separate "this commit regressed" (fails all three) from "the box
# hiccupped" (passes on a quiet rerun) — noise bursts on a loaded box
# routinely outlive a single 5 s pause.
perf_gate() {
    if ! timeout 300 "$1"; then
        echo "    (perf gate failed once; retrying after a cool-down)"
        sleep 5
        if ! timeout 300 "$1"; then
            echo "    (perf gate failed twice; final retry after a longer cool-down)"
            sleep 15
            timeout 300 "$1"
        fi
    fi
}

echo "==> serving benchmark gates (overhead <= 5%, goodput >= 1.5x, p99 in SLO)"
cargo build --release -q -p murmuration-bench --bin bench_serve
perf_gate ./target/release/bench_serve

echo "==> fault-path benchmark (bounded: failover costs are measured, not assumed)"
cargo build --release -q -p murmuration-bench --bin bench_faults
perf_gate ./target/release/bench_faults

echo "==> transport benchmark gate (loopback-TCP overhead <= 20% on the B32 happy path)"
cargo build --release -q -p murmuration-bench --bin bench_transport
perf_gate ./target/release/bench_transport

echo "==> swarm fleet gate (1k workers: exactly-once through storms, flat idle CPU per conn)"
cargo build --release -q -p murmuration-bench --bin bench_swarm
perf_gate ./target/release/bench_swarm

echo "==> hedging benchmark gates (brownout p99 <= 0.5x unhedged, overhead <= 5%, hedge rate <= 10%)"
cargo build --release -q -p murmuration-bench --bin bench_hedging
perf_gate ./target/release/bench_hedging

echo "==> kernel benchmark gates (dense conv >= 2x seed, int8 GEMM >= 2x f32, no floor regressions)"
cargo build --release -q -p murmuration-bench --bin bench_kernels
perf_gate ./target/release/bench_kernels

echo "==> failover benchmark gates (gossip overhead <= 5%, goodput recovery >= 0.8x, conservation)"
cargo build --release -q -p murmuration-bench --bin bench_failover
perf_gate ./target/release/bench_failover

echo "==> pipeline benchmark gate (stage-parallel goodput >= 2x non-pipelined, conservation)"
cargo build --release -q -p murmuration-bench --bin bench_pipeline
MURMURATION_BENCH_MS=120000 perf_gate ./target/release/bench_pipeline

echo "==> campaign smoke gate (>=20 scenarios x smoke grid, conservation + replay + schema)"
# The campaign engine is a deterministic virtual-time simulation, not a
# wall-clock benchmark: a failure is a real regression, so no perf_gate
# retries — one bounded run, pass or fail.
cargo build --release -q -p murmuration-bench --bin bench_campaign
timeout 300 ./target/release/bench_campaign --smoke

echo "==> end-to-end benchmark leg (its unit tests, then every workload untraced and traced, from the frozen sources)"
# The driver runs BENCHMARK.json's command on every PR; a change that breaks
# a workload, or only its traced run, must fail here first. Two seconds per
# run checks that it runs and verifies its outputs, not how fast it is.
timeout 900 cargo test -q --offline --manifest-path bench_e2e/Cargo.toml
for workload in steady_inproc swarm_tcp churn_decide overload_serve; do
    for trace in 0 1; do
        echo "    $workload --trace $trace"
        timeout 300 cargo run --release --offline --quiet --manifest-path bench_e2e/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 2 --trace "$trace" >/dev/null
    done
done
if git rev-parse --git-dir >/dev/null 2>&1 && ! git diff --quiet HEAD -- bench_e2e BENCHMARK.json; then
    echo "error: bench_e2e/ or BENCHMARK.json differs from HEAD (the benchmark is frozen; building it must not rewrite its lock file)" >&2
    exit 1
fi

echo "All checks passed."
