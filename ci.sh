#!/usr/bin/env bash
# Offline CI gate, and the only list of its steps (the GitHub workflow
# runs this script): format, clippy, rustdoc, benchmark-harness tests,
# build, tier-1 tests, the figure claims, then the drift gate.
#
# One mechanism per question: invariants and bitwise identity are tier-1
# tests, reproduced claims are `figures` + the checked-in results, and
# wall-clock is the ledger (`benchmark/run.sh`, `BENCH_ledger.json`),
# which the PR driver compares parent-vs-change and this script does not
# run. The workspace is hermetic (no registry deps), so everything here
# runs with no network access.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc -D warnings (rustdoc is the only tool that notices a link to a moved or deleted item)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== benchmark harness: its own tests against the library API (a renamed counter or a changed trace level fails here, not in the PR driver)"
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "== tier-1: cargo build --release"
cargo build --workspace --release --offline

echo "== tier-1: cargo test"
cargo test --workspace -q --offline

echo "== figures (--quick): every evaluated claim holds"
cargo run --release --offline -p tlb-bench --bin figures -- --quick

echo "== drift: nothing above rewrote a tracked file (results/quick included)"
git diff --exit-code

echo "CI gate passed."
