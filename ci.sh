#!/usr/bin/env bash
# Offline CI gate, and the only list of its steps (the GitHub workflow
# runs this script): format, clippy, rustdoc, the single-threaded
# simulator guard, benchmark-harness tests, build, tier-1 tests, one run
# of each example, the figure claims, the drift gate (changed, deleted or
# untracked files), then a print of the non-test line count per crate.
#
# One mechanism per question: invariants and bitwise identity are tier-1
# tests, reproduced claims are `figures` + the checked-in results, and
# wall-clock is the ledger (`benchmark/run.sh`, `BENCH_ledger.json`),
# which the PR driver compares parent-vs-change and this script does not
# run. The workspace is hermetic (no registry deps), so everything here
# runs with no network access.
set -euo pipefail
cd "$(dirname "$0")"

# Run the awk PROGRAM over the non-test code of CRATE: each .rs file
# under crates/CRATE/src up to its first top-level #[cfg(test)], with
# sim/tests.rs (a test module in a file of its own) left out. The
# single-threaded guard and the size step both read code through this.
non_test() {
    local crate=$1 program=$2
    find "crates/$crate/src" -name '*.rs' ! -path '*/sim/tests.rs' -print0 |
        xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } '"$program"
}

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc -D warnings (rustdoc is the only tool that notices a link to a moved or deleted item)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== single-threaded simulator: no crate below tlb-sweep spawns a thread"
# A simulated run executes on its caller's thread; the only pool is
# tlb-smprt's, driven by sweep and serve.
spawns=$(for crate in des expander linprog tasking dlb rng json trace portfolio core cluster apps; do
    non_test "$crate" '/thread::(spawn|scope|Builder)|available_parallelism/ { print FILENAME ":" FNR ": " $0 }'
done)
if [ -n "$spawns" ]; then
    printf '%s\n' "$spawns"
    echo "a crate below tlb-sweep spawns threads (see above)" >&2
    exit 1
fi

echo "== benchmark harness: its own tests against the library API (a renamed counter or a changed trace level fails here, not in the PR driver)"
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "== tier-1: cargo build --release"
cargo build --workspace --release --offline

echo "== tier-1: cargo test"
cargo test --workspace -q --offline

echo "== examples: each runs once in release (no test runs them, so a panic would go unnoticed)"
for example in examples/*.rs; do
    cargo run --release --offline --quiet --example "$(basename "$example" .rs)" > /dev/null
done

echo "== figures (--quick): every evaluated claim holds"
# Regenerated from nothing, so a tracked result that no figure writes any
# more shows up in the drift step as deleted.
rm -f results/quick/*.json
cargo run --release --offline -p tlb-bench --bin figures -- --quick

echo "== drift: nothing above rewrote, dropped or added a file (results/quick included)"
git diff --exit-code
orphans=$(git ls-files --others --exclude-standard results)
if [ -n "$orphans" ]; then
    printf '%s\n' "$orphans"
    echo "untracked files under results/ (see above)" >&2
    exit 1
fi

echo "== size: non-test lines per crate (prints only, not a gate)"
# The number ROADMAP aim 2 is judged by: the non-test lines of each crate.
total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=$(non_test "$crate" '{ n++ } END { print n + 0 }')
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"

echo "CI gate passed."
