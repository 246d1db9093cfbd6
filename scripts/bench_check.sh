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
# A second gate holds the observability layer honest: the `_obs` bench
# rows run the identical hot path with the metrics + flight-recorder tap
# live, and each must stay within OBS_TOLERANCE (default 1.05 = 5%) of its
# plain sibling *from the same run* — a ratio, so machine speed and CI
# noise cancel out.
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
# The floors are fixed: both comparands live in the bench only and both
# sides run on the same machine seconds apart, so the ratios survive slow
# CI machines and there is nothing to tune. The same run's
# write_frame_64k and decode_64k must stay within BENCH_TOLERANCE of
# results/BENCH_pr20.json: a payload-sized copy or a second buffer creeping
# back into the frame path shows there.
#
# Usage:
#   scripts/bench_check.sh                # tolerance 2.0, obs ratio 1.05
#   BENCH_TOLERANCE=4.0 scripts/bench_check.sh
#   OBS_TOLERANCE=1.10 scripts/bench_check.sh
#   MG_LIVE=0 scripts/bench_check.sh      # skip the live scaling run
#   RB_LIVE=0 scripts/bench_check.sh      # skip the live rebuild run

set -euo pipefail
cd "$(dirname "$0")/.."

TOLERANCE="${BENCH_TOLERANCE:-2.0}"
OBS_TOLERANCE="${OBS_TOLERANCE:-1.05}"
BASELINE=results/protocol_core_bench.json

echo "== bench_check: protocol_core vs $BASELINE (tolerance x$TOLERANCE)"
OUT="$(cargo bench -p radd-bench --bench protocol_core 2>&1 | grep '^bench ' || true)"
if [ -z "$OUT" ]; then
    echo "bench_check: no bench output lines produced" >&2
    exit 1
fi
echo "$OUT"

fail=0
for name in healthy_write_g8_4k parity_apply_g8_4k; do
    base="$(python3 -c "import json; print(json.load(open('$BASELINE'))['baseline']['$name']['ns_per_iter'])")"
    got="$(echo "$OUT" | awk -v n="protocol_core/$name" '$2 == n { print $3 }')"
    if [ -z "$got" ]; then
        echo "FAIL  $name: row missing from bench output" >&2
        fail=1
        continue
    fi
    if awk -v m="$got" -v b="$base" -v t="$TOLERANCE" 'BEGIN { exit !(m <= b * t) }'; then
        echo "ok    $name: $got ns/iter (baseline $base, limit $(awk -v b="$base" -v t="$TOLERANCE" 'BEGIN { printf "%d", b * t }'))"
    else
        echo "FAIL  $name: $got ns/iter exceeds baseline $base x $TOLERANCE" >&2
        fail=1
    fi
done

echo "== bench_check: observability overhead (limit x$OBS_TOLERANCE, same-run ratio)"
for name in healthy_write_g8_4k parity_apply_g8_4k; do
    plain="$(echo "$OUT" | awk -v n="protocol_core/$name" '$2 == n { print $3 }')"
    obs="$(echo "$OUT" | awk -v n="protocol_core/${name}_obs" '$2 == n { print $3 }')"
    if [ -z "$plain" ] || [ -z "$obs" ]; then
        echo "FAIL  ${name}_obs: bench row missing (plain='$plain' obs='$obs')" >&2
        fail=1
        continue
    fi
    if awk -v o="$obs" -v p="$plain" -v t="$OBS_TOLERANCE" 'BEGIN { exit !(o <= p * t) }'; then
        echo "ok    ${name}_obs: $obs ns/iter vs $plain plain ($(awk -v o="$obs" -v p="$plain" 'BEGIN { printf "%.1f%%", (o / p - 1) * 100 }') overhead)"
    else
        echo "FAIL  ${name}_obs: $obs ns/iter vs $plain plain exceeds x$OBS_TOLERANCE" >&2
        fail=1
    fi
done

SNAPSHOT=target/obs_bench_snapshot.json
if python3 -c "import json; s = json.load(open('$SNAPSHOT')); assert s['machines'], 'no machines'" 2>/dev/null; then
    echo "ok    obs snapshot export: $SNAPSHOT parses and is non-empty"
else
    echo "FAIL  obs snapshot export: $SNAPSHOT missing or invalid" >&2
    fail=1
fi

MG_MIN_RATIO="${MG_MIN_RATIO:-3.0}"
MG_BASELINE=results/BENCH_pr7.json
echo "== bench_check: cross-group scaling (recorded + live, min x$MG_MIN_RATIO at 8 groups)"
recorded="$(python3 -c "import json; print(json.load(open('$MG_BASELINE'))['headline']['scaling_8v1'])" 2>/dev/null || true)"
if [ -z "$recorded" ]; then
    echo "FAIL  multigroup: $MG_BASELINE missing or lacks headline.scaling_8v1" >&2
    fail=1
elif awk -v r="$recorded" -v t="$MG_MIN_RATIO" 'BEGIN { exit !(r >= t) }'; then
    echo "ok    multigroup recorded: ${recorded}x aggregate at 8 groups vs 1 (min ${MG_MIN_RATIO}x)"
else
    echo "FAIL  multigroup recorded: ${recorded}x below the ${MG_MIN_RATIO}x floor" >&2
    fail=1
fi
if [ "${MG_LIVE:-1}" != "0" ]; then
    MG_OUT="$(MG_SECS="${MG_SECS:-2}" MG_GROUPS=1,8 cargo run --release -q -p radd-bench --bin multigroup_scaling 2>&1 | grep '^bench ' || true)"
    echo "$MG_OUT"
    live="$(echo "$MG_OUT" | awk '$2 ~ /scaling_8v1/ { sub(/ratio=/, "", $3); print $3 }')"
    if [ -z "$live" ]; then
        echo "FAIL  multigroup live: no scaling_8v1 line produced" >&2
        fail=1
    elif awk -v r="$live" -v t="$MG_MIN_RATIO" 'BEGIN { exit !(r >= t) }'; then
        echo "ok    multigroup live: ${live}x aggregate at 8 groups vs 1 (min ${MG_MIN_RATIO}x)"
    else
        echo "FAIL  multigroup live: ${live}x below the ${MG_MIN_RATIO}x floor" >&2
        fail=1
    fi
fi

RB_MIN_RATIO="${RB_MIN_RATIO:-2.0}"
RB_BASELINE=results/BENCH_pr8.json
echo "== bench_check: declustered rebuild speedup (recorded + live, min x$RB_MIN_RATIO at >= 12 sites)"
recorded="$(python3 -c "import json; print(json.load(open('$RB_BASELINE'))['headline']['declustered_speedup_at_12_sites'])" 2>/dev/null || true)"
if [ -z "$recorded" ]; then
    echo "FAIL  rebuild: $RB_BASELINE missing or lacks headline.declustered_speedup_at_12_sites" >&2
    fail=1
elif awk -v r="$recorded" -v t="$RB_MIN_RATIO" 'BEGIN { exit !(r >= t) }'; then
    echo "ok    rebuild recorded: ${recorded}x declustered vs rotation at 12 sites (min ${RB_MIN_RATIO}x)"
else
    echo "FAIL  rebuild recorded: ${recorded}x below the ${RB_MIN_RATIO}x floor" >&2
    fail=1
fi
if [ "${RB_LIVE:-1}" != "0" ]; then
    RB_OUT="$(RB_POOLS="${RB_POOLS:-12}" cargo run --release -q -p radd-bench --bin rebuild_scaling 2>&1 | grep '^bench ' || true)"
    echo "$RB_OUT"
    live="$(echo "$RB_OUT" | awk '$2 ~ /pool=12$/ && $3 ~ /^declustered_speedup=/ { sub(/declustered_speedup=/, "", $3); print $3 }')"
    if [ -z "$live" ]; then
        echo "FAIL  rebuild live: no pool=12 declustered_speedup line produced" >&2
        fail=1
    elif awk -v r="$live" -v t="$RB_MIN_RATIO" 'BEGIN { exit !(r >= t) }'; then
        echo "ok    rebuild live: ${live}x declustered vs rotation at 12 sites (min ${RB_MIN_RATIO}x)"
    else
        echo "FAIL  rebuild live: ${live}x below the ${RB_MIN_RATIO}x floor" >&2
        fail=1
    fi
fi
WAL_MAX_COMMIT_BYTES=$((4096 + 256))
WAL_BASELINE=results/BENCH_pr16.json
echo "== bench_check: WAL bytes per 1x4k commit with a 512-row site snapshot (recorded + live, max $WAL_MAX_COMMIT_BYTES B)"
recorded="$(python3 -c "import json; print(json.load(open('$WAL_BASELINE'))['headline']['commit_1x4k_site_meta_512_bytes'])" 2>/dev/null || true)"
DC_OUT="$(cargo bench -p radd-bench --bench disk_commit 2>&1 | grep '^bench ' || true)"
echo "$DC_OUT"
live="$(echo "$DC_OUT" | awk '$2 == "disk_commit/commit_1x4k_site_meta_512_bytes" { print $3 }')"
for pair in "recorded:$recorded" "live:$live"; do
    which="${pair%%:*}"
    got="${pair#*:}"
    if [ -z "$got" ]; then
        echo "FAIL  wal commit bytes $which: no commit_1x4k_site_meta_512_bytes value" >&2
        fail=1
    elif [ "$got" -le "$WAL_MAX_COMMIT_BYTES" ]; then
        echo "ok    wal commit bytes $which: $got B per commit (max $WAL_MAX_COMMIT_BYTES)"
    else
        echo "FAIL  wal commit bytes $which: $got B per commit exceeds $WAL_MAX_COMMIT_BYTES" >&2
        fail=1
    fi
done
echo "== bench_check: 1x4k commit with a 512-row site snapshot vs $WAL_BASELINE (tolerance x$TOLERANCE)"
base="$(python3 -c "import json; print(json.load(open('$WAL_BASELINE'))['headline']['commit_1x4k_site_meta_512_ns'])" 2>/dev/null || true)"
got="$(echo "$DC_OUT" | awk '$2 == "disk_commit/commit_1x4k_site_meta_512" { print $3 }')"
if [ -z "$base" ] || [ -z "$got" ]; then
    echo "FAIL  wal commit ns: value missing (recorded='$base' live='$got')" >&2
    fail=1
elif awk -v m="$got" -v b="$base" -v t="$TOLERANCE" 'BEGIN { exit !(m <= b * t) }'; then
    echo "ok    wal commit ns: $got ns/iter (recorded $base, limit $(awk -v b="$base" -v t="$TOLERANCE" 'BEGIN { printf "%d", b * t }'))"
else
    echo "FAIL  wal commit ns: $got ns/iter exceeds recorded $base x $TOLERANCE" >&2
    fail=1
fi

echo "== bench_check: metadata patch (same-run ratios: flat in rows, 8x under the whole encode, same log bytes)"
dc_row() { echo "$DC_OUT" | awk -v n="disk_commit/$1" '$2 == n { print $3 }'; }
small="$(dc_row site_meta_patch_512)"
large="$(dc_row site_meta_patch_8192)"
whole="$(dc_row snapshot_encode_512)"
patch_bytes="$(dc_row commit_1x4k_site_patch_512_bytes)"
blob_bytes="$(dc_row commit_1x4k_site_meta_512_bytes)"
if [ -z "$small" ] || [ -z "$large" ] || [ -z "$whole" ]; then
    echo "FAIL  metadata patch: bench row missing (512='$small' 8192='$large' encode='$whole')" >&2
    fail=1
else
    if awk -v s="$small" -v l="$large" 'BEGIN { exit !(l <= s * 1.5) }'; then
        echo "ok    site_meta_patch: $large ns/iter at 8192 rows vs $small at 512 ($(awk -v s="$small" -v l="$large" 'BEGIN { printf "%.2f", l / s }')x; max 1.5x)"
    else
        echo "FAIL  site_meta_patch: $large ns/iter at 8192 rows is over 1.5x the $small at 512" >&2
        fail=1
    fi
    if awk -v s="$small" -v w="$whole" 'BEGIN { exit !(w >= s * 8) }'; then
        echo "ok    site_meta_patch_512: $small ns/iter, $(awk -v s="$small" -v w="$whole" 'BEGIN { printf "%.0f", w / s }')x under snapshot_encode_512 ($whole; min 8x)"
    else
        echo "FAIL  site_meta_patch_512: $small ns/iter is not 8x under snapshot_encode_512 ($whole)" >&2
        fail=1
    fi
fi
if [ -n "$patch_bytes" ] && [ "$patch_bytes" = "$blob_bytes" ]; then
    echo "ok    wal commit bytes by patch: $patch_bytes B per commit, as by whole blob"
else
    echo "FAIL  wal commit bytes by patch: '$patch_bytes' B per commit against '$blob_bytes' by whole blob" >&2
    fail=1
fi

FP_BASELINE=results/BENCH_pr20.json
echo "== bench_check: frame path kernels (same-run ratios, then vs $FP_BASELINE at tolerance x$TOLERANCE)"
FP_OUT="$(cargo bench -p radd-bench --bench frame_path 2>&1 | grep '^bench ' || true)"
echo "$FP_OUT"
fp_row() { echo "$FP_OUT" | awk -v n="frame_path/$1" '$2 == n { print $3 }'; }
for spec in "checksum_serial_64k checksum_64k 2.5" "crc32_bytewise_4k crc32_4k 3.0"; do
    set -- $spec
    old="$(fp_row "$1")"
    new="$(fp_row "$2")"
    if [ -z "$old" ] || [ -z "$new" ]; then
        echo "FAIL  $2: bench row missing ($1='$old' $2='$new')" >&2
        fail=1
    elif awk -v o="$old" -v n="$new" -v t="$3" 'BEGIN { exit !(o >= n * t) }'; then
        echo "ok    $2: $new ns/iter, $(awk -v o="$old" -v n="$new" 'BEGIN { printf "%.1f", o / n }')x faster than $1 ($old; min ${3}x)"
    else
        echo "FAIL  $2: $new ns/iter is under ${3}x faster than $1 ($old)" >&2
        fail=1
    fi
done
for name in write_frame_64k decode_64k; do
    base="$(python3 -c "import json; print(json.load(open('$FP_BASELINE'))['headline']['${name}_ns'])" 2>/dev/null || true)"
    got="$(fp_row "$name")"
    if [ -z "$base" ] || [ -z "$got" ]; then
        echo "FAIL  $name: value missing (recorded='$base' live='$got')" >&2
        fail=1
    elif awk -v m="$got" -v b="$base" -v t="$TOLERANCE" 'BEGIN { exit !(m <= b * t) }'; then
        echo "ok    $name: $got ns/iter (recorded $base, limit $(awk -v b="$base" -v t="$TOLERANCE" 'BEGIN { printf "%d", b * t }'))"
    else
        echo "FAIL  $name: $got ns/iter exceeds recorded $base x $TOLERANCE" >&2
        fail=1
    fi
done
exit "$fail"
