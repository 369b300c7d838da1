#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests.
#
#   scripts/check.sh
#
# Runs the same checks CI would: rustfmt in check mode, clippy and rustdoc
# with warnings denied, the full test suite, the bench gates and the
# end-to-end benchmark's smoke runs. It writes only ignored paths and fails
# if it leaves the work tree dirty, so run it on a committed tree.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings denied: broken and private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "==> cargo test -q (tier-1: every crate's suites, each binary once; bounded, so a hang fails)"
# The root manifest's `default-members` covers the root package and every
# crate under crates/ (not the vendor/ stubs), so this one run holds every
# suite: decision goldens, chaos, parity, serve, scenario matrix, report
# schema, transport dedup and swarm, the CLI's two-process test. libtest
# prints each binary's wall time on its `test result:` line.
timeout 1800 cargo test -q

echo "==> scalar-fallback leg (full tensor + quantized-layer suites + executor parity + wire, SIMD forced off)"
# The SIMD dispatch satellite: the same tests must pass with the portable
# kernels, and the parity/exactness suites inside them compare both paths.
# The executor tests hold "distributed == local, bit for bit" on the
# portable direct-convolution tile as well, and the wire suites check the
# portable quantizer's codes and the checksum on its frames.
MURMURATION_FORCE_SCALAR=1 timeout 600 cargo test -q -p murmuration-tensor
MURMURATION_FORCE_SCALAR=1 timeout 300 cargo test -q -p murmuration-nn quantized
MURMURATION_FORCE_SCALAR=1 timeout 300 cargo test -q -p murmuration-core executor
MURMURATION_FORCE_SCALAR=1 timeout 300 cargo test -q -p murmuration-core wire
MURMURATION_FORCE_SCALAR=1 timeout 300 cargo test -q -p murmuration-core --test wire_proptest

echo "==> exhaustive wire rounding (all 2^32 f32 inputs, both widths, scalar and AVX2, release)"
# The libm-free wire quantizer against the round-then-clamp formula it
# replaced, on every input: ≈50 s of test time on two threads of a
# 2-vCPU x86-64 VM, plus the release build of the test binary.
timeout 900 cargo test --release -q -p murmuration-tensor --test wire_rounding -- --ignored

echo "==> fault-path lint gates (no unwrap/expect in hardened modules)"
for f in crates/core/src/executor.rs crates/core/src/executor/attempt.rs \
         crates/core/src/wire.rs crates/core/src/transport.rs \
         crates/core/src/fault.rs crates/core/src/health.rs \
         crates/core/src/fleet.rs crates/core/src/gossip.rs \
         crates/tensor/src/simd.rs crates/tensor/src/int8.rs \
         crates/nn/src/layers/quantized.rs \
         crates/transport/src/lib.rs \
         crates/transport/src/driver.rs \
         crates/transport/src/aclient.rs \
         crates/transport/src/aworker.rs \
         crates/transport/src/proto.rs \
         crates/transport/src/swarm.rs \
         crates/partition/src/estimator.rs \
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
if ! grep -q '^mod policy;' crates/serve/src/lib.rs; then
    echo "error: crates/serve/src/policy.rs left the crate-wide lint gate" >&2
    exit 1
fi
# The serving policy is one clockless, threadless core driven by both the
# threaded server and the campaign's virtual-time loop: instants are passed
# in, never read, and locking belongs to the drivers.
if grep -nE 'std::sync|std::thread|std::time|Instant|Clock' crates/serve/src/policy.rs; then
    echo "error: crates/serve/src/policy.rs names a clock, a thread or a lock" >&2
    exit 1
fi
# The stage-parallel pipeline is its sibling: the server's pipeline thread
# and the campaign's event loop step the same core.
if grep -nE 'std::sync|std::thread|std::time|Instant|Clock' crates/serve/src/pipeline.rs; then
    echo "error: crates/serve/src/pipeline.rs names a clock, a thread or a lock" >&2
    exit 1
fi
# The fleet view (liveness, gray health, peer reputation) is the same kind
# of core: the runtime holds it in one mutex and stamps every input.
if grep -nE 'std::sync|std::thread|std::time|Instant|Clock' crates/core/src/fleet.rs; then
    echo "error: crates/core/src/fleet.rs names a clock, a thread or a lock" >&2
    exit 1
fi
# The peer protocol (the TCP client's supervision, the worker's dedup) is
# one too: the event loop and the transport's methods lock it, step it with
# `Ctx::now`'s instant, and apply its effects after unlocking.
if grep -nE 'Instant::now|std::thread|std::sync|Mutex|Condvar|Atomic' crates/transport/src/proto.rs; then
    echo "error: crates/transport/src/proto.rs names a clock, a thread or a lock" >&2
    exit 1
fi

echo "==> unsafe-block safety-comment lint (SIMD kernels, helper pool, split convolution)"
# Every `unsafe fn` / `unsafe {` / `unsafe impl` in the hand-written kernel
# modules must be preceded (within 12 lines, spanning doc sections and
# attributes) by a SAFETY comment or a # Safety doc section.
for f in crates/tensor/src/simd.rs crates/tensor/src/int8.rs \
         crates/tensor/src/par.rs crates/tensor/src/conv.rs; do
    if ! awk -v file="$f" '
        BEGIN { bad = 0 }
        { line[NR] = $0 }
        /unsafe (fn|impl|\{)/ {
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

echo "==> bench binaries write only under target/results/ (blessing an artifact is a copy)"
if grep -rn '"results' crates/bench/src/bin; then
    echo "error: a bench binary names the checked-in results/ directory; write through murmuration_bench::emit" >&2
    exit 1
fi

# Each gate runs once, bounded, with no retry: a gate whose threshold sits
# inside the host's run-to-run spread is restated or made report-only
# (ROADMAP item 3), not retried. The bins write their reports under
# target/results/, never over results/.
cargo build --release -q -p murmuration-bench \
    --bin bench_serve --bin bench_swarm --bin bench_hedging --bin bench_kernels \
    --bin bench_failover --bin bench_pipeline --bin bench_campaign

echo "==> serving benchmark gates (goodput >= 1.5x naive, p99 in SLO)"
timeout 300 ./target/release/bench_serve

echo "==> swarm fleet gate (1k workers: exactly-once through storms, flat idle CPU per conn)"
timeout 300 ./target/release/bench_swarm

echo "==> hedging benchmark gates (brownout p99 <= 0.5x unhedged, hedge rate <= 10%, failover)"
timeout 300 ./target/release/bench_hedging

echo "==> kernel benchmark gates (dense conv >= 2x seed, int8 GEMM >= 2x f32, compute-bound floors)"
timeout 300 ./target/release/bench_kernels

echo "==> failover benchmark gates (goodput recovery >= 0.8x, conservation)"
timeout 300 ./target/release/bench_failover

echo "==> pipeline benchmark gate (stage-parallel goodput >= 2x non-pipelined, conservation)"
MURMURATION_BENCH_MS=120000 timeout 300 ./target/release/bench_pipeline

echo "==> campaign smoke gate (conservation + fronts + replay + schema, then byte-identical to results/)"
# The campaign is a deterministic virtual-time simulation: a fresh smoke
# report that differs from the checked-in one by a byte is a changed price
# or decision, and must be regenerated and blessed on purpose.
timeout 300 ./target/release/bench_campaign --smoke
cmp target/results/CAMPAIGN_smoke.json results/CAMPAIGN_smoke.json

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

echo "==> work tree unchanged by the checks"
if git rev-parse --git-dir >/dev/null 2>&1 && [ -n "$(git status --porcelain)" ]; then
    git status --porcelain >&2
    echo "error: the checks left the work tree dirty (a leg wrote outside target/ or an ignored path)" >&2
    exit 1
fi

echo "All checks passed."
