#!/usr/bin/env bash
# The one command of the performance ledger: lint, test and build the
# benchmark package offline, then run every workload (one process each)
# and print every metric by name with unit, median, quartiles and n.
#
#   benchmark/run.sh [--runs N] [--seed S] [--seconds T] [--trace]
#                    [--workload NAME] [--out FILE]
#
# Writes benchmark/out/results.json (and, with --trace, the per-layer
# rows plus benchmark/out/spans_<workload>.json); exits non-zero on any
# correctness violation. Compare two results files with
#   benchmark/target/release/tlb-benchmark compare A.json B.json
# Nothing outside benchmark/ is built into or written to, unless
# CARGO_TARGET_DIR says otherwise.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo fmt --manifest-path "$manifest" --check
cargo clippy --release --offline --manifest-path "$manifest" --target-dir "$target" \
    --all-targets -- -D warnings
cargo test --release --offline --manifest-path "$manifest" --target-dir "$target" --quiet
cargo build --release --offline --manifest-path "$manifest" --target-dir "$target"
exec "$target/release/tlb-benchmark" ledger "$@"
