#!/usr/bin/env bash
# Builds the benchmark from source (offline; its own workspace, so the root
# Cargo.toml / Cargo.lock are never touched) and runs it from the repo root.
#
#   benchmark/run.sh                       # the whole ledger, --seed 1
#   benchmark/run.sh --quick               # smoke: 1/8 sizes, 1 repeat
#   benchmark/run.sh --selfcheck           # two end-to-end sets must agree
#   benchmark/run.sh --workload chat_short --seed 3 --seconds 16 --trace 0
#                                          # one run, JSON result on the last line
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/lad-ledger" "$@"
