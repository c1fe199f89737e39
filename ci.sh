#!/usr/bin/env bash
# Offline CI gate: format, clippy, benchmark-harness check, build, tier-1
# tests, the figure claims + results drift gate, smoke benches (perf,
# trace, robustness, portfolio, sweep, serve).
# The workspace is hermetic (no registry deps), so everything here runs
# with no network access. Mirrors .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== benchmark harness still compiles against the library API"
cargo check --offline --locked --all-targets --manifest-path benchmark/Cargo.toml

echo "== tier-1: cargo build --release"
cargo build --workspace --release --offline

echo "== tier-1: cargo test"
cargo test --workspace -q --offline

echo "== figures (--quick): every evaluated claim holds, results/quick has not drifted"
cargo run --release --offline -p tlb-bench --bin figures -- --quick
git diff --exit-code -- results/quick

echo "== perf smoke (--quick)"
cargo run --release --offline -p tlb-bench --bin perf_smoke -- --quick

echo "== trace smoke (--quick)"
cargo run --release --offline -p tlb-bench --bin trace_smoke -- --quick

echo "== robustness smoke (--quick)"
cargo run --release --offline -p tlb-bench --bin robustness_smoke -- --quick

echo "== portfolio smoke (--quick)"
cargo run --release --offline -p tlb-bench --bin portfolio_smoke -- --quick

echo "== sweep smoke (--quick)"
cargo run --release --offline -p tlb-bench --bin sweep_smoke -- --quick

echo "== serve smoke (--quick, loopback only)"
cargo run --release --offline -p tlb-bench --bin serve_smoke -- --quick

echo "CI gate passed."
