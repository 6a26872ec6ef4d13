#!/usr/bin/env bash
# Local CI: formatting, lints, then the tier-1 gate (release build + tests).
# Mirrors .github/workflows/ci.yml so a green run here means a green PR.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs build (warnings are errors, so intra-doc links cannot rot)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

echo "== workspace tests"
cargo test --workspace --release -q

echo "== serving differential grid (continuous batching vs solo decode)"
cargo test --release --test serving -q

echo "== benches compile (cargo bench --no-run: gemm_batch, gemm_kernels, spec_decode,"
echo "   backend_quality, obs_overhead and the paper-figure benches)"
cargo bench --workspace --no-run

echo "== benchmark package (own workspace, path-depends on the crates' public"
echo "   API; tier-1 never compiles it, so an API deletion would break it silently)"
cargo test --locked --offline -q --manifest-path benchmark/Cargo.toml

echo "== observability smoke (trace_decode example; validates the Chrome trace)"
cargo run --release --example trace_decode

echo "== serving observability smoke (serve_trace example; span coverage,"
echo "   request timelines, JSON metrics snapshot, flight-recorder incident)"
cargo run --release --example serve_trace

echo "== accelerator pricing smoke (hardware_pipeline example; a LAD head's decode"
echo "   rows priced through Eq. 7, then the Fig. 6 step schedule)"
cargo run --release --example hardware_pipeline

echo "== bench regression gate (one loop over the gate table lad_bench::gates::GATES:"
echo "   each committed BENCH_*.json row against its bound, then a quick re-measure,"
echo "   every timed ratio the median of interleaved same-process pairs;"
echo "   also fails on any committed BENCH_*.json no gate names)"
cargo run --release -p lad-bench --bin bench_check

echo "== serving ledger smoke (benchmark/run.sh --quick: all four workloads at"
echo "   1/8 size, incl. long_context's 512-1024-token prompts at prefill_chunk 8;"
echo "   exits non-zero if any served stream differs from its solo decode)"
bash benchmark/run.sh --quick

echo "== slow tests (long-stream + differential grid, warnings are errors)"
RUSTFLAGS="-D warnings" cargo test --workspace --release -q -- --ignored

echo "CI green."
