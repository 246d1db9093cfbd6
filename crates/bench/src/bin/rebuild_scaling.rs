//! Rebuild time vs. pool size: rotation vs. declustered placement.
//!
//! The physics being measured: with one transmission [`radd_net::Wire`] per pool
//! site (`set_pool_wires`), every reconstruction read serialises on the
//! survivor that serves it, so a rebuild's wall clock is the *maximum
//! per-site read load* times the wire latency. The §4 greedy carves a
//! uniform wide pool into disjoint `G + 2`-site clusters, so however many
//! sites the pool has, a failed site's co-resident groups all read from
//! the same `G + 1` survivors. The declustered placement spreads those
//! groups' stripes across the whole pool: the same number of reads lands
//! on `P - 1` wires instead of `G + 1`, and the parallel rebuild engine
//! (`rebuild_pool_site_parallel`, one thread per affected group, wave
//! pipelining inside each) turns that spread into wall-clock speedup.
//!
//! Output lines are `bench rebuild_scaling/...` in the house format;
//! `scripts/bench_check.sh` gates the declustered-vs-rotation ratio at the
//! largest pool (≥ 2× at ≥ 12 sites; the recorded run in
//! `results/BENCH_pr8.json` shows ~3–4×). Knobs:
//!
//! * `RB_POOLS` — comma-separated pool sizes, multiples of `G + 2`
//!   (default `4,8,12`)
//! * `RB_SLOTS` — member slots per pool site (default 6: enough
//!   co-resident groups that the rotation clusters visibly serialise)
//! * `RB_ROWS` — rows per member slot (default 64)
//! * `RB_LATENCY_US` — per-read wire latency in µs (default 600: high
//!   enough that wire time, not thread scheduling, dominates)
//! * `RB_WAVE` — rows per rebuild wave (default 8)

use radd_layout::{Geometry, Placement, ShardMap};
use radd_node::{NodeCluster, ShardedNodeExt};
use radd_protocol::CoalescePolicy;
use std::time::{Duration, Instant};

/// Per-group geometry: G = 2 (4 member slots). Small blocks — the wire
/// *time* per read, not the byte volume, is what the layouts contend for.
const G: usize = 2;
const BLOCK_SIZE: usize = 64;
/// The pool site the bench fails and rebuilds. Site 0 hosts a member slot
/// of `RB_SLOTS` distinct groups under either placement.
const VICTIM: usize = 0;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Sample {
    pool: usize,
    placement: Placement,
    secs: f64,
    groups: usize,
    blocks: u64,
    /// Distinct pool sites that served reconstruction reads.
    spread: usize,
    /// Reads on the busiest survivor — the quantity the wire serialises.
    max_site_reads: u64,
}

struct Knobs {
    slots: usize,
    rows: u64,
    latency: Duration,
    wave: usize,
}

fn run_config(pool: usize, placement: Placement, k: &Knobs) -> Sample {
    let geo = Geometry::new(G, k.rows).expect("valid geometry");
    let map = ShardMap::pool(pool, k.slots, geo, placement).expect("pool carves into groups");
    let groups = map.num_groups();
    let (mut cluster, mut extra) =
        NodeCluster::start_sharded(map, BLOCK_SIZE, 2, CoalescePolicy::Merge);
    let mut workers: Vec<_> = extra.iter_mut().map(|clients| clients.remove(0)).collect();
    // Seed one block per group so the rebuild moves real content, then
    // attach the wires *after* the writes — setup traffic is free.
    let cap = cluster.map().group_capacity();
    for g in 0..groups as u64 {
        cluster
            .write(radd_layout::GlobalAddr(g * cap), &[0x5A; BLOCK_SIZE])
            .expect("healthy-path write");
    }
    cluster.quiesce().expect("quiesce");
    let _wires = cluster.set_pool_wires(k.latency);
    cluster.fail_pool_site(VICTIM);
    let t0 = Instant::now();
    let report = cluster
        .rebuild_pool_site_parallel(VICTIM, k.wave, &mut workers)
        .expect("rebuild");
    let secs = t0.elapsed().as_secs_f64();
    // Leave the cluster clean: drain spares back and sweep the invariant.
    cluster.clear_pool_wires();
    cluster.restore_pool_site(VICTIM);
    cluster.recover_pool_site(VICTIM).expect("recover");
    // The engine marked each affected worker's *member slot* down.
    for (g, member) in cluster.map().pool_site_slots(VICTIM) {
        workers[g.0].mark_down(member, false);
    }
    cluster.verify_parity().expect("stripe sweep after rebuild");
    cluster.shutdown();
    Sample {
        pool,
        placement,
        secs,
        groups: report.groups,
        blocks: report.blocks_rebuilt,
        spread: report.pool_peer_reads.iter().filter(|&&n| n > 0).count(),
        max_site_reads: report.pool_peer_reads.iter().copied().max().unwrap_or(0),
    }
}

fn main() {
    let knobs = Knobs {
        slots: env_u64("RB_SLOTS", 6) as usize,
        rows: env_u64("RB_ROWS", 64),
        latency: Duration::from_micros(env_u64("RB_LATENCY_US", 600)),
        wave: env_u64("RB_WAVE", 8) as usize,
    };
    let pools: Vec<usize> = std::env::var("RB_POOLS")
        .unwrap_or_else(|_| "4,8,12".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let record = std::env::args().any(|a| a == "--record");

    println!(
        "rebuild scaling: G = {G}, {} slots/site, {} rows/slot, {BLOCK_SIZE} B blocks, \
         {} us wire latency, wave {}",
        knobs.slots,
        knobs.rows,
        knobs.latency.as_micros(),
        knobs.wave
    );
    let mut samples: Vec<(Sample, Sample)> = Vec::new();
    for &pool in &pools {
        let rot = run_config(pool, Placement::Rotation, &knobs);
        let dec = run_config(pool, Placement::Declustered, &knobs);
        for s in [&rot, &dec] {
            println!(
                "bench rebuild_scaling/pool={},layout={} secs={:.3} groups={} blocks={} \
                 spread={} max_site_reads={}",
                s.pool, s.placement, s.secs, s.groups, s.blocks, s.spread, s.max_site_reads
            );
        }
        let speedup = rot.secs / dec.secs.max(1e-9);
        println!(
            "bench rebuild_scaling/pool={pool} declustered_speedup={speedup:.2} \
             (rotation read fan-out {} sites, declustered {} sites)",
            rot.spread, dec.spread
        );
        samples.push((rot, dec));
    }
    if record {
        let mut rows = String::new();
        for (rot, dec) in &samples {
            rows.push_str(&format!(
                "    \"pool={}\": {{ \"rotation_secs\": {:.4}, \"declustered_secs\": {:.4}, \
                 \"speedup\": {:.2}, \"rotation_spread\": {}, \"declustered_spread\": {}, \
                 \"groups_affected\": {}, \"blocks_rebuilt\": {} }},\n",
                rot.pool,
                rot.secs,
                dec.secs,
                rot.secs / dec.secs.max(1e-9),
                rot.spread,
                dec.spread,
                dec.groups,
                dec.blocks,
            ));
        }
        let headline = samples
            .iter()
            .filter(|(rot, _)| rot.pool >= 12)
            .map(|(rot, dec)| rot.secs / dec.secs.max(1e-9))
            .fold(0.0f64, f64::max);
        let json = format!(
            "{{\n  \"bench\": \"rebuild_scaling\",\n  \"description\": \"Wall-clock rebuild of one \
             failed pool site, rotation vs declustered placement on ShardedNodeCluster: one wire \
             per pool site ({} us per read), {} member slots per site, G = {G}, {} rows/slot, \
             {BLOCK_SIZE} B blocks, wave {}. The parallel rebuild engine fans one thread per \
             affected group; speedup is rotation_secs / declustered_secs at each pool size. \
             Regenerate with: cargo run -p radd-bench --release --bin rebuild_scaling -- \
             --record\",\n  \"rebuild\": {{\n{}  }},\n  \"headline\": {{ \
             \"declustered_speedup_at_12_sites\": {headline:.2} }}\n}}\n",
            knobs.latency.as_micros(),
            knobs.slots,
            knobs.rows,
            knobs.wave,
            rows.trim_end_matches(",\n").to_string() + "\n",
        );
        std::fs::create_dir_all("results").expect("results dir");
        std::fs::write("results/BENCH_pr8.json", json).expect("write results/BENCH_pr8.json");
        println!("recorded results/BENCH_pr8.json");
    }
}
