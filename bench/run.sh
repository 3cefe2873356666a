#!/usr/bin/env bash
# Two full untraced sets of the same code, then -compare: every end-to-end
# metric x workload pair must agree within the benchmark's own bounds and
# no operation may fail. For parent versus change, store one set per commit
# with -out and compare those instead.
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1000}"
mkdir -p bench/out
bash bench/bench.sh -seed "$seed" -out bench/out/A.json
bash bench/bench.sh -seed "$seed" -out bench/out/B.json
bash bench/bench.sh -compare bench/out/A.json bench/out/B.json
