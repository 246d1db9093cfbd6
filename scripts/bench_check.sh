#!/usr/bin/env bash
# Regression gate for the sans-IO protocol hot paths.
#
# Runs the protocol_core bench and compares each row's ns/iter against the
# recorded expectation in results/protocol_core_bench.json ("baseline").
# A row fails when measured > baseline * BENCH_TOLERANCE. The tolerance
# default is deliberately loose — these are wall-clock numbers and CI
# machines are slower and noisier than the recording machine; the gate is
# meant to catch order-of-magnitude regressions (a copy reintroduced on
# the write path, a kernel dispatch falling back to scalar), not jitter.
#
# A second gate holds the observability layer honest: each `_obs` bench
# row runs the hot path of its plain sibling with the metrics +
# flight-recorder tap live, the two timed in alternating batches over one
# state in one loop (the criterion shim's `bench_pair`), so what differs
# between them is the tap and not code or data layout. The healthy write's
# median per-batch ratio must stay within OBS_TOLERANCE (default 1.05 =
# 5%); the parity apply's median added time per tapped effect must stay
# within OBS_TAP_NS. That bound is absolute because the apply is short
# enough that a ratio mostly measures the apply; its size is measured,
# see EXPERIMENTS.md ("Protocol-core microbench").
#
# A third gate covers the multi-group refactor: the cross-group scaling
# bench (PR 7) must show aggregate threaded-runtime throughput growing
# with group count. Both the recorded run (results/BENCH_pr7.json) and a
# fresh live run must clear MG_MIN_RATIO (default 3.0) at 8 groups vs 1 —
# the bench is wire-bound by design (link latency), so the ratio is
# CPU-count independent. MG_LIVE=0 skips the live run (doc-only checks).
#
# A fourth gate covers declustered placement (PR 8): rebuilding a failed
# pool site must go at least RB_MIN_RATIO (default 2.0) faster under the
# declustered layout than under rotation at a >= 12-site pool, because
# reconstruction reads fan out over P-1 wires instead of G+1. Checked in
# the recorded run (results/BENCH_pr8.json) and in a fresh live run
# (RB_LIVE=0 skips); like the scaling gate, the bench is wire-bound so the
# ratio survives slow CI machines.
#
# A fifth gate covers the WAL's commit (PR 13, PR 16): a commit of one
# 4 KiB block with a real 512-row site snapshot in which one UID moved must
# add at most block + 256 bytes to the log (it was 13 805 when every
# commit logged the whole snapshot). Bytes are a count, so the threshold is
# exact, not a tolerance; checked in the recorded run
# (results/BENCH_pr16.json) and in a fresh run of the disk_commit bench.
# The same commit must put exactly WAL_COMMIT_DEVICE_BYTES (4 608: nine
# 512-byte sectors) on the device (PR 41): each batch is one direct,
# sector-aligned write of its records and their zero padding, so a return
# to page-grained writes (8 192) or to whole-snapshot records (14 336)
# fails it; the patch path's row must read the same.
# The same run's write_back_uniform_512 row counts the rows a 512-row
# site's lap ends write back to blocks.dat per 1,000 commits of uniformly
# drawn 1x4 KiB writes: a count with a fixed seed, so it repeats
# exactly. The two-half ring writes back only the rows whose newest record
# the next lap is about to overwrite, 264; a lap end that writes back every
# row its lap dirtied, as the single-lap log did, reads 425. The bound,
# WAL_WRITE_BACK_MAX, is the measured value plus 10%.
# The same fresh run's commit_1x4k_site_meta_512 ns/iter must stay within
# BENCH_TOLERANCE of the recorded value: the log is a preallocated file
# written in place, so a commit's fdatasync carries no filesystem journal
# commit, and an append creeping back in doubles it.
#
# The same run also says what PR 24's metadata patch is for, as ratios
# between rows of that one process (no absolute ns): turning what a write
# touched into its log record must not grow with the site
# (site_meta_patch_8192 / site_meta_patch_512 <= 1.5; it was an O(rows)
# encode, compare and diff), must beat the whole encode it replaced at
# least 8x at 512 rows (snapshot_encode_512 / site_meta_patch_512), and
# must put the same bytes in the log as the whole-blob commit does
# (commit_1x4k_site_patch_512_bytes == commit_1x4k_site_meta_512_bytes).
#
# A sixth gate covers the per-byte kernels of a socket hop and of a WAL
# commit (PR 20): in one run of the frame_path bench the laned frame
# checksum must beat the one-lane chain it replaced 2.5x at 64 KiB and
# the slicing-by-8 CRC-32 must beat the byte-at-a-time table 3x at 4 KiB.
# The dispatched CRC-32 (carry-less multiply on a CPU with PCLMULQDQ) must
# beat the slicing-by-8 fallback CRC_CLMUL_MIN times at 4 KiB
# (crc32_sliced_4k / crc32_4k). Ten runs here read 12.8-17.0, the
# fallback forced reads 1.0, so the bound is 8; on a CPU without the
# instruction the two rows are one kernel and the gate fails, which is
# what it is for.
# The floors are fixed: both comparands live in the bench only and both
# sides run on the same machine seconds apart, so the ratios survive slow
# CI machines and there is nothing to tune. The same run prices the frame
# path in plain 64 KiB copies of a cached block. write_frame_64k is timed
# against its copy in alternating batches over one buffer (bench_pair), and
# its median per-batch ratio must stay at most 3.6: ten runs on each of the
# tree that set this bound and its parent read 3.03-3.17, and a mutant that
# copies the block (`to_vec`) before the gathered write read 4.05-4.23
# (results/bench_pr37_gates.txt). Before the pairing, two separate loops
# read 2.53-3.36 and the same copy hid inside that spread. decode_64k
# against copy_64k, a separate loop, is at most 4.2 (ten runs per tree read
# 2.60-3.69, results/bench_pr36_gates.txt).
#
# The same run also holds the kept block check: a site's 64 KiB
# ReadOk of a block not in cache, sent under the check it arrived with
# and sent computing it, timed in alternating batches over one pool of
# blocks (bench_pair). Computing must cost at least 1.5x keeping; ten runs
# read 1.88-2.27, and a kept check that is ignored reads 1.0.
#
# A seventh gate covers the change mask: in one run of the
# change_mask bench, diffing a 64 KiB block rewritten whole and encoding
# the mask must beat the same work as it ran before 2x
# (diff_wordwise_full_64k / diff_full_64k >= 2.0). The comparand is the
# word-at-a-time scan with its copy-then-XOR payload and its encode copy,
# kept in the bench only, as the sixth gate keeps its kernels.
#
# With --parent DIR (a checkout of the parent commit, e.g. a `git clone`),
# every gate's benches run in DIR first and then here, and the table gives
# each gate's value on both trees beside its bound, so a gate that fails
# on an unchanged tree shows as failing on both. A bound read from
# recorded results is this tree's, for both columns; a bound from the same
# run (the patch bytes must equal the whole-blob bytes) is each tree's own,
# and the column shows this tree's. Without --parent the parent columns
# read `-`. The exit status judges this tree alone.
#
# Usage:
#   scripts/bench_check.sh                # tolerance 2.0, obs ratio 1.05
#   scripts/bench_check.sh --parent DIR   # the same, with DIR's values
#   BENCH_TOLERANCE=4.0 scripts/bench_check.sh
#   OBS_TOLERANCE=1.10 scripts/bench_check.sh
#   MG_LIVE=0 scripts/bench_check.sh      # skip the live scaling run
#   RB_LIVE=0 scripts/bench_check.sh      # skip the live rebuild run

set -euo pipefail
cd "$(dirname "$0")/.."
HERE="$PWD"

PARENT=""
if [ "${1:-}" = "--parent" ]; then
    PARENT="$(cd "${2:?--parent needs a directory}" && pwd)"
fi

TOLERANCE="${BENCH_TOLERANCE:-2.0}"
OBS_TOLERANCE="${OBS_TOLERANCE:-1.05}"
# The parity apply's tap, per tapped effect (three per apply: the parity
# read, the parity write, the ack). Measured with the interleaved estimator
# over both the tree that set it and its parent: run medians 4.4-7.3 ns;
# the same tap doubled (each effect projected and recorded twice) read
# 9.5-17.1 ns. 8.5 ns passes the one and fails the other.
OBS_TAP_NS=8.5
MG_MIN_RATIO="${MG_MIN_RATIO:-3.0}"
RB_MIN_RATIO="${RB_MIN_RATIO:-2.0}"
WAL_MAX_COMMIT_BYTES=$((4096 + 256))
WAL_COMMIT_DEVICE_BYTES=4608
CRC_CLMUL_MIN=8.0
WAL_WRITE_BACK_MAX=290

# measure DIR: run every gate's benches in DIR, print what they print, and
# leave the `bench` lines in PC_OUT, MG_OUT, RB_OUT, DC_OUT, FP_OUT and
# CM_OUT.
measure() {
    local dir=$1
    echo "== bench_check: benches in $dir"
    PC_OUT="$(cd "$dir" && cargo bench -p radd-bench --bench protocol_core 2>&1 | grep '^bench ' || true)"
    MG_OUT=""
    if [ "${MG_LIVE:-1}" != "0" ]; then
        MG_OUT="$(cd "$dir" && MG_SECS="${MG_SECS:-2}" MG_GROUPS=1,8 cargo run --release -q -p radd-bench --bin multigroup_scaling 2>&1 | grep '^bench ' || true)"
    fi
    RB_OUT=""
    if [ "${RB_LIVE:-1}" != "0" ]; then
        RB_OUT="$(cd "$dir" && RB_POOLS="${RB_POOLS:-12}" cargo run --release -q -p radd-bench --bin rebuild_scaling 2>&1 | grep '^bench ' || true)"
    fi
    DC_OUT="$(cd "$dir" && cargo bench -p radd-bench --bench disk_commit 2>&1 | grep '^bench ' || true)"
    FP_OUT="$(cd "$dir" && cargo bench -p radd-bench --bench frame_path 2>&1 | grep '^bench ' || true)"
    CM_OUT="$(cd "$dir" && cargo bench -p radd-bench --bench change_mask 2>&1 | grep '^bench ' || true)"
    printf '%s\n' "$PC_OUT" "$MG_OUT" "$RB_OUT" "$DC_OUT" "$FP_OUT" "$CM_OUT" | grep -v '^$' || true
}

# gates DIR: one `name value op bound verdict` line per gate, the value
# from the bench lines `measure` left and from DIR's recorded results, a
# recorded bound from this tree's. A value that could not be read is `-`.
gates() {
    local dir=$1
    row() { echo "$1" | awk -v n="$2" '$2 == n { print $3 }'; }
    recorded() { python3 -c "import json, sys; print(json.load(open(sys.argv[1]))$3)" "$2/$1" 2>/dev/null || true; }
    scaled() { awk -v b="$1" -v t="$TOLERANCE" 'BEGIN { if (b == "") print ""; else printf "%d", b * t }'; }
    # gate NAME VALUE OP BOUND: VALUE OP BOUND, judged as read.
    gate() { echo "$1 ${2:--} $3 ${4:--} $(verdict "${2:--}" "$3" "${4:--}")"; }
    # ratio NAME A B OP T: the gate A / B OP T, judged as A OP B * T on the
    # unrounded rows; the ratio is rounded for the table only.
    ratio() {
        local shown=- ok=FAIL
        if [ -n "$2" ] && [ -n "$3" ] && [ "$3" != 0 ]; then
            shown="$(awk -v a="$2" -v b="$3" 'BEGIN { printf "%.3f", a / b }')"
            if awk -v a="$2" -v b="$3" -v op="$4" -v t="$5" \
                'BEGIN { exit !((op == "<=" && a <= b * t) || (op == ">=" && a >= b * t)) }'; then
                ok=ok
            fi
        fi
        echo "$1 $shown $4 $5 $ok"
    }
    local name snap live
    for name in healthy_write_g8_4k parity_apply_g8_4k; do
        gate "protocol_core/$name" "$(row "$PC_OUT" "protocol_core/$name")" "<=" \
            "$(scaled "$(recorded results/protocol_core_bench.json "$HERE" "['baseline']['$name']['ns_per_iter']")")"
    done
    gate "healthy_write_g8_4k_obs/plain" "$(row "$PC_OUT" protocol_core/healthy_write_g8_4k_obs/ratio)" \
        "<=" "$OBS_TOLERANCE"
    gate "parity_apply_g8_4k_obs_ns/effect" \
        "$(row "$PC_OUT" protocol_core/parity_apply_g8_4k_obs/extra_ns_per_event)" "<=" "$OBS_TAP_NS"
    snap=0
    if python3 -c "import json; s = json.load(open('$dir/target/obs_bench_snapshot.json')); assert s['machines']" 2>/dev/null; then
        snap=1
    fi
    gate "obs_snapshot_export" "$snap" "==" 1
    gate "multigroup_8v1_recorded" "$(recorded results/BENCH_pr7.json "$dir" "['headline']['scaling_8v1']")" ">=" "$MG_MIN_RATIO"
    if [ "${MG_LIVE:-1}" != "0" ]; then
        live="$(echo "$MG_OUT" | awk '$2 ~ /scaling_8v1/ { sub(/ratio=/, "", $3); print $3 }')"
        gate "multigroup_8v1_live" "$live" ">=" "$MG_MIN_RATIO"
    fi
    gate "rebuild_declustered_12_recorded" "$(recorded results/BENCH_pr8.json "$dir" "['headline']['declustered_speedup_at_12_sites']")" ">=" "$RB_MIN_RATIO"
    if [ "${RB_LIVE:-1}" != "0" ]; then
        live="$(echo "$RB_OUT" | awk '$2 ~ /pool=12$/ && $3 ~ /^declustered_speedup=/ { sub(/declustered_speedup=/, "", $3); print $3 }')"
        gate "rebuild_declustered_12_live" "$live" ">=" "$RB_MIN_RATIO"
    fi
    gate "wal_commit_bytes_recorded" "$(recorded results/BENCH_pr16.json "$dir" "['headline']['commit_1x4k_site_meta_512_bytes']")" "<=" "$WAL_MAX_COMMIT_BYTES"
    gate "wal_commit_bytes_live" "$(row "$DC_OUT" disk_commit/commit_1x4k_site_meta_512_bytes)" "<=" "$WAL_MAX_COMMIT_BYTES"
    gate "wal_commit_device_bytes" "$(row "$DC_OUT" disk_commit/commit_1x4k_site_meta_512_device_bytes)" "==" \
        "$WAL_COMMIT_DEVICE_BYTES"
    gate "wal_commit_device_bytes_patch" "$(row "$DC_OUT" disk_commit/commit_1x4k_site_patch_512_device_bytes)" "==" \
        "$WAL_COMMIT_DEVICE_BYTES"
    gate "wal_write_back_per_1k" "$(row "$DC_OUT" disk_commit/write_back_uniform_512)" "<=" \
        "$WAL_WRITE_BACK_MAX"
    gate "wal_commit_ns" "$(row "$DC_OUT" disk_commit/commit_1x4k_site_meta_512)" "<=" \
        "$(scaled "$(recorded results/BENCH_pr16.json "$HERE" "['headline']['commit_1x4k_site_meta_512_ns']")")"
    ratio "site_meta_patch_8192/512" "$(row "$DC_OUT" disk_commit/site_meta_patch_8192)" "$(row "$DC_OUT" disk_commit/site_meta_patch_512)" "<=" 1.5
    ratio "snapshot_encode/site_meta_patch_512" "$(row "$DC_OUT" disk_commit/snapshot_encode_512)" "$(row "$DC_OUT" disk_commit/site_meta_patch_512)" ">=" 8
    gate "wal_commit_bytes_patch" "$(row "$DC_OUT" disk_commit/commit_1x4k_site_patch_512_bytes)" "==" \
        "$(row "$DC_OUT" disk_commit/commit_1x4k_site_meta_512_bytes)"
    ratio "checksum_serial/laned_64k" "$(row "$FP_OUT" frame_path/checksum_serial_64k)" "$(row "$FP_OUT" frame_path/checksum_64k)" ">=" 2.5
    ratio "crc32_bytewise/sliced_4k" "$(row "$FP_OUT" frame_path/crc32_bytewise_4k)" "$(row "$FP_OUT" frame_path/crc32_sliced_4k)" ">=" 3.0
    ratio "crc32_sliced/clmul_4k" "$(row "$FP_OUT" frame_path/crc32_sliced_4k)" "$(row "$FP_OUT" frame_path/crc32_4k)" ">=" "$CRC_CLMUL_MIN"
    ratio "mask_diff_wordwise/fast_64k" "$(row "$CM_OUT" change_mask/diff_wordwise_full_64k)" "$(row "$CM_OUT" change_mask/diff_full_64k)" ">=" 2.0
    gate "write_frame_64k/copy" "$(row "$FP_OUT" frame_path/write_frame_64k/ratio)" "<=" 3.6
    ratio "decode/copy_64k" "$(row "$FP_OUT" frame_path/decode_64k)" "$(row "$FP_OUT" frame_path/copy_64k)" "<=" 4.2
    gate "send_readok_cold_64k/kept" "$(row "$FP_OUT" frame_path/send_readok_cold_64k/ratio)" ">=" 1.5
}

# verdict VALUE OP BOUND: `ok` or `FAIL`; `==` compares the strings.
verdict() {
    if [ "$1" = "-" ] || [ "$3" = "-" ]; then
        echo FAIL
    elif [ "$2" = "==" ]; then
        if [ "$1" = "$3" ]; then echo ok; else echo FAIL; fi
    elif awk -v v="$1" -v b="$3" -v op="$2" \
        'BEGIN { exit !((op == "<=" && v <= b) || (op == ">=" && v >= b)) }'; then
        echo ok
    else
        echo FAIL
    fi
}

PARENT_GATES=""
if [ -n "$PARENT" ]; then
    measure "$PARENT"
    PARENT_GATES="$(gates "$PARENT")"
fi
measure "$HERE"
CHANGE_GATES="$(gates "$HERE")"

echo "== bench_check: gates (tolerance x$TOLERANCE, obs ratio x$OBS_TOLERANCE, obs tap ${OBS_TAP_NS} ns/effect)"
fail=0
printf '%-36s %12s %12s %14s  %-6s %s\n' gate parent change bound parent change
while read -r name value op bound ok; do
    [ "$ok" = ok ] || fail=1
    parent="$(echo "$PARENT_GATES" | awk -v n="$name" \
        '$1 == n { v = $2; k = $5 } END { print (v == "" ? "-" : v), (k == "" ? "-" : k) }')"
    printf '%-36s %12s %12s %14s  %-6s %s\n' "$name" "${parent% *}" "$value" "$op $bound" "${parent#* }" "$ok"
done <<<"$CHANGE_GATES"
exit "$fail"
