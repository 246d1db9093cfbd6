#!/usr/bin/env bash
# Tracked Rust lines: the figures every CHANGES.md entry quotes (ROADMAP
# item 10). Counts `*.rs` files git tracks under the workspace's source
# roots, tests and benches included: one line per root (each
# `crates/<name>`, then `shims`, `src`, `tests`, `examples`), the total
# last. `benchmark/` is its own package and is not part of the figure.
#
#   scripts/loc.sh            # the table
#   scripts/loc.sh | tail -1  # the total alone
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for root in crates/*/ shims src tests examples; do
    root=${root%/}
    n=$(git ls-files -z -- "$root" | grep -z '\.rs$' | xargs -0 -r cat | wc -l)
    printf '%-20s %7d\n' "$root" "$n"
    total=$((total + n))
done
printf '%-20s %7d\n' total "$total"
