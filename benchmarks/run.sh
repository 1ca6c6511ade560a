#!/usr/bin/env bash
# Builds iotbench from source (offline) and runs it with the given
# arguments. With no arguments it runs every workload, both passes:
#
#   benchmarks/run.sh                          # = iotbench run --seed 1
#   benchmarks/run.sh run --seed 7
#   benchmarks/run.sh --workload tpcx_net --seed 1 --seconds 10 --trace 0
#   benchmarks/run.sh compare A.json B.json
#
# Build output goes to stderr so the last line of stdout stays the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
target="${CARGO_TARGET_DIR:-$here/target}"
if [ "$#" -eq 0 ]; then
  set -- run
fi
exec "$target/release/iotbench" "$@"
