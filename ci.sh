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

echo "== benches compile (cargo bench --no-run, incl. spec_decode)"
cargo bench --workspace --no-run

echo "== benchmark package (own workspace, path-depends on the crates' public"
echo "   API; tier-1 never compiles it, so an API deletion would break it silently)"
cargo test --locked --offline -q --manifest-path benchmark/Cargo.toml

echo "== observability smoke (trace_decode example; validates trace + JSONL)"
cargo run --release --example trace_decode

echo "== serving observability smoke (serve_trace example; span coverage,"
echo "   request timelines, metrics exposition, flight-recorder incident)"
cargo run --release --example serve_trace

echo "== bench regression gate (gemm/spec/kernel/backend-zoo/obs ratios vs"
echo "   committed BENCH_*.json floors, incl. the backend_quality quality-per-byte"
echo "   smoke and the enabled-recorder overhead ceiling;"
echo "   also fails on any committed BENCH_*.json bench_check has no gate for)"
cargo run --release -p lad-bench --bin bench_check

echo "== serving ledger smoke (benchmark/run.sh --quick: all four workloads at"
echo "   1/8 size, incl. long_context's 512-1024-token prompts at prefill_chunk 8;"
echo "   exits non-zero if any served stream differs from its solo decode)"
bash benchmark/run.sh --quick

echo "== slow tests (long-stream + differential grid, warnings are errors)"
RUSTFLAGS="-D warnings" cargo test --workspace --release -q -- --ignored

echo "CI green."
