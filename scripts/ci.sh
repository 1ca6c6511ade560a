#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, build, full test suite (including
# the fault-tolerance and golden-snapshot integration tests registered
# in crates/core), plus the telemetry export artifacts.
#
#   ./scripts/ci.sh          # everything
#   ./scripts/ci.sh quick    # skip tests + artifacts (fmt + clippy + build)
#
# Artifacts: the fault/topology sweep exports its unified metrics registry to
# $ARTIFACT_DIR (default target/ci-artifacts) as fault_sweep.json and
# fault_sweep.prom; check_export fails the run if either is empty or
# unparsable. Upload that directory from your CI provider.
set -euo pipefail
cd "$(dirname "$0")/.."

ARTIFACT_DIR="${ARTIFACT_DIR:-target/ci-artifacts}"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --workspace --release

echo "== workspace analyzer (baseline-gated) =="
# JSON output is byte-deterministic; the gate fails on any finding not in
# the committed baseline and on any stale baseline entry. The non-empty
# check guards against the analyzer silently scanning zero files.
ANALYZER_OUT="$(cargo run --release -q -p analyzer -- \
    check --format json --baseline analyzer-baseline.json)" || {
    echo "new analyzer findings (not in analyzer-baseline.json):"
    echo "$ANALYZER_OUT"
    exit 1
}
[[ "$ANALYZER_OUT" == "[]" ]] || { echo "unexpected analyzer output: $ANALYZER_OUT"; exit 1; }

echo "== workspace analyzer (lock-order graph renders) =="
cargo run --release -q -p analyzer -- graph --dot > /dev/null

if [[ "${1:-}" != "quick" ]]; then
    echo "== cargo test =="
    # Includes golden_snapshot (a [[test]] of tpcx-iot). A golden that
    # was regenerated rather than matched (UPDATE_GOLDEN=1 in the
    # environment) must not pass: tests/golden has to come out clean.
    cargo test --workspace --release -q
    GOLDEN_DRIFT="$(git status --porcelain tests/golden)"
    [[ -z "$GOLDEN_DRIFT" ]] || { echo "tests/golden changed under the test run:"; echo "$GOLDEN_DRIFT"; exit 1; }

    echo "== cargo test, engine + cluster, serial =="
    # Every Db runs its background maintenance thread; one test at a time
    # gives that thread different interleavings than the parallel pass.
    cargo test --release -q -p iotkv -p gateway -- --test-threads=1

    echo "== iotbench (unit tests + smoke of all four workloads and their gates) =="
    # benchmarks/ is its own workspace, so the line above does not reach
    # it. The smoke run reopens and recounts what it ingested and checks
    # every query aggregate: a product change that breaks the benchmark's
    # correctness gates fails here, not in the next measurement.
    cargo test --release --offline -q --manifest-path benchmarks/Cargo.toml

    echo "== race-check models (loom-lite) =="
    cargo clippy -p simkit -p tpcx-iot --features race-check --all-targets -- -D warnings
    cargo test -q -p simkit --features race-check
    cargo test -q -p tpcx-iot --features race-check --test race_check

    echo "== fault + topology sweep (smoke, gates on VALID verdict) + metrics export artifacts =="
    rm -rf "$ARTIFACT_DIR"
    METRICS_EXPORT_DIR="$ARTIFACT_DIR" \
        cargo run --release -q -p bench --bin fault_sweep -- 100
    cargo run --release -q -p bench --bin check_export -- \
        "$ARTIFACT_DIR/fault_sweep.json" "$ARTIFACT_DIR/fault_sweep.prom"

    echo "== batched ingest (smoke) =="
    BENCH_INGEST_OUT="$ARTIFACT_DIR/BENCH_ingest.json" \
        ./scripts/bench_ingest.sh 100

    echo "== query scans (smoke) =="
    BENCH_QUERY_OUT="$ARTIFACT_DIR/BENCH_query.json" \
        ./scripts/bench_query.sh 100

    echo "== networked plane (smoke, gates on VALID verdict + counter parity) =="
    BENCH_NETPLANE_OUT="$ARTIFACT_DIR/BENCH_netplane.json" \
        ./scripts/bench_netplane.sh 100
fi

echo "CI gate passed."
