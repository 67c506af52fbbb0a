#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, and the full test suite.
# Mirrors .github/workflows/ci.yml so a green run here is a green PR.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
# Every test runs once here, the golden_report and oracle suites included.
# Oracle mutation self-test (tests/oracle.rs): plants a corrupted
# mapping entry, a dropped GC copy and a valid bit cleared under a live
# mapping; the shadow oracle must flag each (the structural one at the first
# erase after the plant), or the invariant layer has gone blind.
# Hot-loop gates (crates/bench/tests/hot_loop.rs): the event queue and the
# engine loop stay allocation-free in steady state, with a sanity floor on
# queue and per-cell event throughput in this optimized build.
cargo test --workspace --release -q

echo "==> golden snapshot gate"
# The golden_report suite (run above with the rest of the workspace) re-runs
# the pinned matrix and compares byte-for-byte against tests/golden/; the git
# check catches a bless that was never committed.
git diff --exit-code -- tests/golden

echo "==> tenant interference smoke"
# A small run of the multi-tenant matrix: exercises the NVMe-style frontend,
# all three schedulers, and the per-tenant report path end-to-end.
NSSD_TENANT_REQUESTS=200 cargo run --release -q -p nssd-bench --bin tenants

echo "==> endurance lifetime smoke"
# A short segmented endurance run per architecture: exercises checkpoint
# save/resume at every segment boundary (the bin asserts save∘resume is
# byte-identical), wear accounting, and the windowed tail estimator, and
# leaves target/lifetime.json as a build artifact.
cargo run --release -q -p nssd-bench --bin lifetime -- --smoke

echo "==> GC plan ablation smoke"
# A small run of the composed-plan grid (victim x placement x preemption on
# pnSSD+split): exercises every component combination end-to-end, including
# the cross-compositions no legacy policy covers, and leaves
# target/plans.json as a build artifact.
cargo run --release -q -p nssd-bench --bin plans -- --smoke

echo "==> degraded-mode rebuild smoke"
# Parity redundancy under a fail-stop chip failure on every fabric family:
# exercises the degraded-read reconstruction path, the fabric-routed
# background rebuild, and the zero-data-loss accounting end-to-end, and
# leaves target/rebuild.json as a build artifact.
cargo run --release -q -p nssd-bench --bin rebuild -- --smoke

echo "==> bench artifact envelope check"
# Each bin checks its own records under --smoke; this only confirms every
# artifact was written, parses as JSON and carries the results envelope.
for f in target/lifetime.json target/plans.json target/rebuild.json; do
    test -f "$f" || { echo "missing artifact $f" >&2; exit 1; }
    python3 -c 'import json, sys
s = json.load(open(sys.argv[1])).get("schema", "")
assert isinstance(s, str) and s.startswith("nssd-bench-"), (sys.argv[1], s)' "$f"
done

echo "==> benchmark self-test"
# The repository benchmark's own checks: exact counts repeat, a held-out
# seed runs clean, and the oracle-on cell's report equals the oracle-off
# run outside the oracle block (the oracle observes, it never steers).
cargo test --release --offline --manifest-path nssdbench/Cargo.toml

echo "CI gate passed."
