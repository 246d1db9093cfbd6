//! Multi-group checks through the one sharded surface, on every runtime.
//!
//! A sharded cluster is `radd_protocol::Router` over a runtime's
//! `GroupCluster` (DESIGN.md §13), so one generic body per check serves the
//! DES, the threaded and the socket runtime:
//!
//! * a [`ShardedPlan`] generated from a named seed replays through
//!   [`run_sharded_plan`], which checks every read against the oracle, the
//!   final stripe-invariant sweep in every group, and a full readback of
//!   acknowledged writes (threaded and socket here; the DES goes through
//!   the same function in `tests/differential.rs`, which also compares
//!   the three). On failure the test drops a
//!   replay dump under `target/fault_dumps/` (CI's `multi-group` job
//!   uploads the directory as an artifact), naming the seed so the run
//!   reproduces with `ShardedPlan::generate(seed, &shape)`;
//! * a hand-written pool-site failure round trip, plus the out-of-range
//!   refusals.

use radd::core::{RaddCluster, RaddConfig};
use radd::layout::GlobalAddr;
use radd::node::NodeCluster;
use radd::protocol::{CoalescePolicy, GroupCluster, Router};
use radd::rt::SocketCluster;
use radd::workload::seed_from_name;
use radd::workload::sharded::{run_sharded_plan, ShardedPlan, ShardedShape};

const BLOCK_SIZE: usize = 64;

fn run_named_seed<C: GroupCluster>(
    runtime: &str,
    name: &str,
    start: impl FnOnce(&ShardedShape) -> Router<C>,
) {
    let shape = ShardedShape::default();
    let seed = seed_from_name(name);
    let plan = ShardedPlan::generate(seed, &shape);
    let mut cluster = start(&shape);
    let outcome = run_sharded_plan(&mut cluster, &plan);
    cluster.shutdown();
    match outcome {
        Ok(report) => {
            assert!(report.writes > 0, "plan {name} exercised no writes");
            assert!(
                report.degraded_groups == 0 || report.degraded_groups >= shape.num_groups as u64,
                "a pool-site failure on the uniform pool degrades every group"
            );
        }
        Err(msg) => {
            let dir = std::path::Path::new("target/fault_dumps");
            std::fs::create_dir_all(dir).ok();
            let path = dir.join(format!("multigroup_{runtime}_{seed:016x}.txt"));
            let mut dump = format!(
                "multi-group fault plan failed\nruntime: {runtime}\nname: {name}\n\
                 seed: {seed:#x}\nshape: {shape:?}\nerror: {msg}\n\nevents:\n"
            );
            for (i, e) in plan.events.iter().enumerate() {
                dump.push_str(&format!("  {i:4}  {e}\n"));
            }
            std::fs::write(&path, dump).ok();
            panic!(
                "plan {name} (seed {seed:#x}) failed on the {runtime} runtime: {msg}; \
                 dump at {}",
                path.display()
            );
        }
    }
}

/// CI's named multi-group seed.
#[test]
fn named_seed_multigroup_plan_survives_on_threaded_runtime() {
    run_named_seed("threaded", "radd-mg-steady", |shape| {
        NodeCluster::start_sharded(shape.map(), BLOCK_SIZE, 1, CoalescePolicy::Merge).0
    });
}

/// The same seed over loopback TCP, every protocol send faulted by its sender.
#[test]
fn named_seed_multigroup_plan_survives_on_socket_runtime() {
    run_named_seed("socket", "radd-mg-steady", |shape| {
        SocketCluster::start_sharded(shape.map(), BLOCK_SIZE, 1, CoalescePolicy::Merge).0
    });
}

/// Writes spread over every group survive a pool-site failure (degraded
/// reads), its repair, and read back after; addresses past the end of the
/// sharded space are refused.
fn pool_site_round_trip<C: GroupCluster>(mut cluster: Router<C>) {
    let bs = cluster.block_size();
    let cap = cluster.map().group_capacity();
    let mut written = Vec::new();
    for k in 0..cluster.num_groups() as u64 {
        for off in [0, cap / 2, cap - 1] {
            let addr = GlobalAddr(k * cap + off);
            let data = vec![0x30 ^ (addr.0 as u8); bs];
            cluster.write(addr, &data).unwrap();
            written.push((addr, data));
        }
    }
    cluster.quiesce().unwrap();
    cluster.verify_parity().unwrap();

    cluster.fail_pool_site(1);
    for (addr, want) in &written {
        assert_eq!(cluster.read(*addr).unwrap(), *want, "degraded at {addr}");
    }
    cluster.restore_pool_site(1);
    cluster.recover_pool_site(1).unwrap();
    cluster.quiesce().unwrap();
    cluster.verify_parity().unwrap();
    for (addr, want) in &written {
        assert_eq!(cluster.read(*addr).unwrap(), *want, "recovered at {addr}");
    }

    let end = GlobalAddr(cluster.map().total_data_blocks());
    assert!(cluster.read(end).is_err());
    assert!(cluster.write(end, &vec![0; bs]).is_err());
    cluster.shutdown();
}

#[test]
fn pool_site_failure_round_trips_on_every_runtime() {
    let shape = ShardedShape::default();
    let mut config = RaddConfig::small_g4();
    config.group_size = shape.group_size;
    config.rows = shape.rows;
    let bs = config.block_size;
    pool_site_round_trip(RaddCluster::sharded(shape.map(), &config).unwrap());
    pool_site_round_trip(NodeCluster::start_sharded(shape.map(), bs, 1, CoalescePolicy::Merge).0);
    pool_site_round_trip(SocketCluster::start_sharded(shape.map(), bs, 1, CoalescePolicy::Merge).0);
}
