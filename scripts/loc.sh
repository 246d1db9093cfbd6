#!/usr/bin/env bash
# Tracked Rust lines: the figures every CHANGES.md entry quotes (ROADMAP
# item 10). Counts `*.rs` files git tracks under the workspace's source
# roots, tests and benches included: one line per root (each
# `crates/<name>`, then `shims`, `src`, `tests`, `examples`), the total
# last. `benchmark/` is its own package and is not part of the figure.
#
#   scripts/loc.sh            # the table
#   scripts/loc.sh | tail -1  # the total alone
#   scripts/loc.sh REV        # per root: lines at REV, today, difference
#
# With REV, "today" is the working tree's tracked files, so
# `scripts/loc.sh HEAD^` before a commit or `scripts/loc.sh main` on a
# branch prints the before/after a CHANGES.md entry quotes.
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:-}

# Lines of the tracked `*.rs` files under root $1, in the working tree.
lines_now() {
    git ls-files -z -- "$1" | grep -z '\.rs$' | xargs -0 -r cat | wc -l
}

# Lines of the `*.rs` files under root $1 at $rev. `cat-file --batch`
# prints a header line before each blob and a newline after it.
lines_at_rev() {
    local blobs
    blobs=$(git ls-tree -r "$rev" -- "$1" | awk '$4 ~ /\.rs$/ { print $3 }')
    if [ -z "$blobs" ]; then
        echo 0
        return
    fi
    local n total
    n=$(printf '%s\n' "$blobs" | wc -l)
    total=$(printf '%s\n' "$blobs" | git cat-file --batch | wc -l)
    echo $((total - 2 * n))
}

if [ -z "$rev" ]; then
    total=0
    for root in crates/*/ shims src tests examples; do
        root=${root%/}
        n=$(lines_now "$root")
        printf '%-20s %7d\n' "$root" "$n"
        total=$((total + n))
    done
    printf '%-20s %7d\n' total "$total"
    exit 0
fi

git rev-parse --verify --quiet "$rev^{commit}" >/dev/null ||
    { echo "loc.sh: no commit named '$rev'" >&2; exit 2; }
# A crate that exists on only one side still gets its row.
crates=$( { git ls-tree -d --name-only "$rev" crates/; ls -d crates/*/; } |
    sed 's#/$##' | sort -u)
before_total=0
now_total=0
printf '%-20s %7s %7s %7s\n' root "$(git rev-parse --short "$rev")" today diff
for root in $crates shims src tests examples; do
    before=$(lines_at_rev "$root")
    now=$(lines_now "$root")
    printf '%-20s %7d %7d %+7d\n' "$root" "$before" "$now" $((now - before))
    before_total=$((before_total + before))
    now_total=$((now_total + now))
done
printf '%-20s %7d %7d %+7d\n' total "$before_total" "$now_total" $((now_total - before_total))
