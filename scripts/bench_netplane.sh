#!/usr/bin/env bash
# Networked-plane loopback smoke: spawns real `agent` processes on
# ephemeral loopback ports, waits for their port files, then drives a
# full benchmark through the `controller` bin with `--agents`. The
# controller exits nonzero if the run goes INVALID or its counters
# diverge from the in-process baseline, so this script doubles as the
# CI gate on the networked plane.
#
#   ./scripts/bench_netplane.sh            # default scale, 2 agents
#   ./scripts/bench_netplane.sh 100        # smoke scale (used by ci.sh)
#   ./scripts/bench_netplane.sh 100 4      # smoke scale, 4 agents
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-20}"
AGENTS="${2:-2}"

cargo build --release -q -p bench --bin agent --bin controller

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

for i in $(seq 1 "$AGENTS"); do
    target/release/agent --listen 127.0.0.1:0 --port-file "$WORK/agent$i.addr" &
    PIDS+=("$!")
done

# Wait for every agent to publish its bound address.
ADDRS=""
for i in $(seq 1 "$AGENTS"); do
    for _ in $(seq 1 100); do
        [[ -s "$WORK/agent$i.addr" ]] && break
        sleep 0.05
    done
    if [[ ! -s "$WORK/agent$i.addr" ]]; then
        echo "agent $i never published its address" >&2
        exit 1
    fi
    ADDRS="$ADDRS${ADDRS:+,}$(cat "$WORK/agent$i.addr")"
done
echo "agents up: $ADDRS"

target/release/controller "$SCALE" --agents "$ADDRS"

# A clean controller run shuts the fleet down; give the processes a
# moment to exit on their own before the trap reaps stragglers.
for pid in "${PIDS[@]}"; do
    wait "$pid" || true
done
PIDS=()
