#!/usr/bin/env bash
# Tracked Rust lines: the figure every CHANGES.md entry quotes
# (ROADMAP item 6). Counts `*.rs` files git tracks under the workspace's
# source roots, tests and benches included; `benchmark/` is its own
# package and is not part of the figure.
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files -z -- crates shims src tests examples | grep -z '\.rs$' | xargs -0 cat | wc -l
