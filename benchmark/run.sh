#!/usr/bin/env bash
# The benchmark's single command: build radd-benchmark (release, offline,
# from the committed lock file) and run it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--record FILE.jsonl] [--out DIR]
#   benchmark/run.sh --check A.jsonl B.jsonl
#
# Without --workload all four workloads run. The last line of standard
# output is the result object of the last workload run; the exit code is
# non-zero when the build fails or any answer was wrong.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo reports on standard error, so standard output stays the benchmark's.
cargo build --release --offline --locked --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target"
bin="$target/release/radd-benchmark"

if [ "${1:-}" = "--check" ]; then
    exec "$bin" "$@" --bounds "$here/../BENCHMARK.json"
fi

# Pin the whole process to the first CPU it may use. The sandbox's two
# virtual CPUs share one core's worth of capacity, and a wake-up that crosses
# them costs a VM exit: unpinned, the same code measures three times slower
# and four times noisier. On one CPU every hand-off is a context switch,
# which is still the cost the runtime's thread structure pays. Without
# taskset the run goes ahead unpinned and says so.
pin=()
if command -v taskset >/dev/null 2>&1; then
    cpu="$(taskset -cp $$ 2>/dev/null | sed -E 's/.*: *([0-9]+).*/\1/')"
    if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
        pin=(taskset -c "$cpu")
    fi
fi

exec ${pin[@]+"${pin[@]}"} "$bin" --out "$here/results" "$@"
