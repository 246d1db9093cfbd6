//! Cross-group throughput scaling on the threaded runtime.
//!
//! One rotating-parity group is wire-bound: with a link latency `L` every
//! write occupies its group's threads for a few multiples of `L` (the W
//! send, the deferred ack, the parity update and its ack), so a single
//! closed-loop client tops out near `1/(2·L)` writes per second no matter
//! how fast the CPU is. Groups share no protocol traffic, so a sharded
//! cluster's aggregate throughput should grow near-linearly with the group
//! count — the whole point of the §4 multi-group carving. This bench
//! measures exactly that on `ShardedNodeCluster`: one worker client per
//! group, hammering its group's full address range, at 1 → 8 groups.
//!
//! Output lines are `bench multigroup_scaling/...` in the house format;
//! `scripts/bench_check.sh` gates the 8-vs-1 aggregate ratio (≥ 3× with
//! tolerance headroom; the recorded run in `results/BENCH_pr7.json` shows
//! near-linear scaling). Knobs:
//!
//! * `MG_SECS` — measure window per configuration (default 2 s)
//! * `MG_LATENCY_US` — link latency in µs (default 500)
//! * `MG_GROUPS` — comma-separated group counts (default `1,2,4,8`)
//! * `MG_WARMUP_MS` — warm-up before the window opens (default 300 ms)
//!
//! Each worker times its own window: the clock starts immediately before
//! its first counted write and stops at the completion of its last one, so
//! every counted op's full latency lies inside the interval it is divided
//! by. An earlier version counted ops against the *main thread's* sleep
//! window; ops straddling the window edges (in flight when the flags
//! flipped) were charged to nobody, which inflated the many-group
//! configurations — per-group throughput at 8 groups came out *above* the
//! 1-group baseline, a physical impossibility for a wire-bound workload.

use radd_layout::{Geometry, GlobalAddr, ShardMap};
use radd_node::NodeCluster;
use radd_protocol::CoalescePolicy;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-group geometry: G = 2 (4 member slots), 8 rows per slot → 16 data
/// blocks per group. Small blocks: the wire *time*, not the wire volume, is
/// what bounds a group here.
const G: usize = 2;
const ROWS: u64 = 8;
const BLOCK_SIZE: usize = 64;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Sample {
    groups: usize,
    total_ops: u64,
    ops_per_sec: f64,
    per_group: f64,
}

fn run_config(groups: usize, secs: u64, latency: Duration, warmup: Duration) -> Sample {
    let geo = Geometry::new(G, ROWS).expect("valid geometry");
    let map = ShardMap::uniform(groups, geo).expect("uniform pools always carve");
    let (mut cluster, mut extra) =
        NodeCluster::start_sharded(map, BLOCK_SIZE, 2, CoalescePolicy::Merge);
    for (_, group) in cluster.groups() {
        group.set_link_latency(latency);
    }
    // Each group's address list, resolved once: (member slot, data index).
    let cap = cluster.map().group_capacity();
    let targets: Vec<Vec<(usize, u64)>> = (0..groups as u64)
        .map(|k| {
            (k * cap..(k + 1) * cap)
                .map(|a| {
                    let t = cluster.map().locate(GlobalAddr(a)).expect("in range");
                    (t.member, t.index)
                })
                .collect()
        })
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let go = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = extra
        .iter_mut()
        .map(|clients| clients.remove(0))
        .zip(targets)
        .map(|(mut client, addrs)| {
            let stop = Arc::clone(&stop);
            let go = Arc::clone(&go);
            std::thread::spawn(move || {
                let mut ops = 0u64;
                let mut fill = 0u8;
                // This worker's own measurement window: opened right before
                // its first counted write, closed at the completion of its
                // last. Ops seen in flight when a flag flips are excluded
                // from count *and* window alike, so the rate is unbiased.
                let mut started: Option<Instant> = None;
                let mut last_done = Instant::now();
                'run: loop {
                    for &(member, index) in &addrs {
                        if stop.load(Ordering::Relaxed) {
                            break 'run;
                        }
                        if started.is_none() && go.load(Ordering::Relaxed) {
                            started = Some(Instant::now());
                        }
                        client
                            .write(member, index, &[fill; BLOCK_SIZE])
                            .expect("healthy-path write");
                        if started.is_some() {
                            ops += 1;
                            last_done = Instant::now();
                        }
                    }
                    fill = fill.wrapping_add(1);
                }
                let window = started
                    .map(|t| last_done.saturating_duration_since(t))
                    .unwrap_or_default();
                (ops, window)
            })
        })
        .collect();
    std::thread::sleep(warmup);
    go.store(true, Ordering::Relaxed);
    std::thread::sleep(Duration::from_secs(secs));
    stop.store(true, Ordering::Relaxed);
    let per_worker: Vec<(u64, Duration)> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    cluster.quiesce().expect("quiesce after measure window");
    cluster.verify_parity().expect("stripe sweep after the run");
    cluster.shutdown();
    let total_ops: u64 = per_worker.iter().map(|&(ops, _)| ops).sum();
    // Aggregate = sum of per-worker rates, each over its own window.
    let ops_per_sec: f64 = per_worker
        .iter()
        .filter(|&&(ops, w)| ops > 0 && !w.is_zero())
        .map(|&(ops, w)| ops as f64 / w.as_secs_f64())
        .sum();
    Sample {
        groups,
        total_ops,
        ops_per_sec,
        per_group: ops_per_sec / groups as f64,
    }
}

fn main() {
    let secs = env_u64("MG_SECS", 2);
    let latency = Duration::from_micros(env_u64("MG_LATENCY_US", 500));
    let warmup = Duration::from_millis(env_u64("MG_WARMUP_MS", 300));
    let groups: Vec<usize> = std::env::var("MG_GROUPS")
        .unwrap_or_else(|_| "1,2,4,8".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let record = std::env::args().any(|a| a == "--record");

    println!(
        "cross-group scaling: G = {G}, {ROWS} rows/slot, {BLOCK_SIZE} B blocks, \
         link latency {} us, {secs} s per config",
        latency.as_micros()
    );
    let mut samples = Vec::new();
    for &n in &groups {
        let s = run_config(n, secs, latency, warmup);
        println!(
            "bench multigroup_scaling/groups={} total_ops={} ops_per_sec={:.0} per_group={:.0}",
            s.groups, s.total_ops, s.ops_per_sec, s.per_group
        );
        samples.push(s);
    }
    if let (Some(first), Some(last)) = (samples.first(), samples.last()) {
        if samples.len() >= 2 && first.ops_per_sec > 0.0 {
            let ratio = last.ops_per_sec / first.ops_per_sec;
            println!(
                "bench multigroup_scaling/scaling_{}v{} ratio={:.2}",
                last.groups, first.groups, ratio
            );
            let ideal = last.groups as f64 / first.groups as f64;
            println!(
                "aggregate scaling {}→{} groups: {ratio:.2}x of an ideal {ideal:.0}x \
                 ({:.0}% parallel efficiency)",
                first.groups,
                last.groups,
                100.0 * ratio / ideal
            );
        }
    }
    if record {
        let mut rows = String::new();
        for s in &samples {
            rows.push_str(&format!(
                "    \"groups={}\": {{ \"total_ops\": {}, \"ops_per_sec\": {:.0}, \"per_group\": {:.0} }},\n",
                s.groups, s.total_ops, s.ops_per_sec, s.per_group
            ));
        }
        let ratio = match (samples.first(), samples.last()) {
            (Some(f), Some(l)) if f.ops_per_sec > 0.0 => l.ops_per_sec / f.ops_per_sec,
            _ => 0.0,
        };
        let json = format!(
            "{{\n  \"bench\": \"multigroup_scaling\",\n  \"description\": \"Cross-group throughput on the threaded runtime (ShardedNodeCluster): one closed-loop client per group, G = {G}, {ROWS} rows/slot, {BLOCK_SIZE} B blocks, {} us link latency, {secs} s per configuration. Aggregate writes/s vs group count. Regenerate with: cargo run -p radd-bench --release --bin multigroup_scaling -- --record\",\n  \"throughput\": {{\n{}  }},\n  \"headline\": {{ \"scaling_8v1\": {ratio:.2} }}\n}}\n",
            latency.as_micros(),
            rows.trim_end_matches(",\n").to_string() + "\n",
        );
        std::fs::create_dir_all("results").expect("results dir");
        std::fs::write("results/BENCH_pr7.json", json).expect("write results/BENCH_pr7.json");
        println!("recorded results/BENCH_pr7.json");
    }
}
