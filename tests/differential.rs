//! Differential test: one protocol, three interpreters.
//!
//! The same fault plan is replayed on the synchronous DES interpreter
//! (`radd_core::RaddCluster` in client mode), the threaded runtime
//! (`radd_node::NodeCluster`) and the socket runtime
//! (`radd_rt::SocketCluster`, real TCP on loopback behind fault proxies).
//! All three drive the *same* sans-IO machines from `radd-protocol`, so
//! after the run:
//!
//! * the normalised effect trace of every machine — the client and each of
//!   the `G + 2` sites — must be **identical** across the three runtimes
//!   (the normalisation drops timer arms and retransmissions, which only
//!   the asynchronous runtimes exercise),
//! * every event must have come to the same [`Outcome`] (the bytes a read
//!   returned, the blocks a repair drained), and
//! * each runtime must pass the final sweep on its own: stripe parity in
//!   every row and every acknowledged write read back.
//!
//! Nothing here interprets a plan. The replay conventions (disasters as
//! temporary failures, disk events skipped, quiesce before a kill) live
//! once in `radd_workload::faults::PlanDriver`, which is generic over the
//! per-runtime contract `radd_protocol::GroupCluster`; the decisions depend
//! only on the plan, so running that one driver over the three clusters one
//! after another and comparing what each saw *is* the lockstep run. Every
//! write is issued. What a restored site's reads and writes do until its
//! `Recover` (§3.2's recovering state) is not a convention: it is the client
//! machine's, the same on every runtime, and the recovering-window plan
//! compares it. Nor is a write to a row whose parity site is down: the
//! client builds the row's parity stand-in in its spare and the data site
//! feeds it, and the parity-site-down plan compares that. The multi-group
//! differential does the same one level up with `run_sharded_plan` over the
//! one `Router`: a 4-group sharded cluster per runtime, pool-site faults
//! fanned out, compared group by group.

use radd::core::{RaddCluster, RaddConfig};
use radd::layout::{Geometry, Placement, ShardMap};
use radd::node::NodeCluster;
use radd::obs::ObsSnapshot;
use radd::protocol::{CoalescePolicy, GroupCluster, ObsEvent, Router};
use radd::rt::SocketCluster;
use radd::workload::faults::{
    payload, seed_from_name, FailureKind, FaultEvent, FaultPlan, Outcome, PlanDriver, PlanShape,
};
use radd::workload::sharded::{run_sharded_plan, ShardedPlan, ShardedShape};
use std::time::Duration;

const QUIESCE: Duration = Duration::from_secs(10);

/// One runtime's run of a plan: what every event came to, then each
/// group's normalised per-machine traces (a single-group run is one group).
struct Replay {
    name: &'static str,
    outcomes: Vec<Outcome>,
    traces: Vec<Vec<Vec<ObsEvent>>>,
}

/// One runtime's half of the single-group differential.
fn replay<C>(name: &'static str, cluster: C, plan: &FaultPlan) -> Replay
where
    C: GroupCluster<Obs = ObsSnapshot>,
{
    let mut driver = PlanDriver::new(cluster);
    let traces = driver
        .replay(plan)
        .unwrap_or_else(|e| panic!("{name} runtime, seed {:#x}: {e}", plan.seed));
    let outcomes = driver.outcomes().to_vec();
    driver.shutdown();
    Replay {
        name,
        outcomes,
        traces: vec![traces],
    }
}

/// One runtime's half of the multi-group differential.
fn replay_sharded<C: GroupCluster>(
    name: &'static str,
    mut cluster: Router<C>,
    plan: &ShardedPlan,
) -> Replay {
    cluster.record_traces(true);
    let report = run_sharded_plan(&mut cluster, plan)
        .unwrap_or_else(|e| panic!("{name} runtime, seed {:#x}: {e}", plan.seed));
    cluster.shutdown();
    Replay {
        name,
        outcomes: report.outcomes,
        traces: report.traces,
    }
}

/// Demand that every event came to the same outcome on the DES and on each
/// other runtime, and that every group's normalised per-machine traces
/// match byte for byte.
fn compare<E: std::fmt::Display>(seed: u64, events: &[E], des: &Replay, others: &[Replay]) {
    for (k, group) in des.traces.iter().enumerate() {
        assert!(
            group.iter().map(Vec::len).sum::<usize>() > 0,
            "group {k} saw no protocol traffic — comparison is vacuous (seed {seed:#x})"
        );
    }
    assert_eq!(des.outcomes.len(), events.len());
    for other in others {
        assert_eq!(other.outcomes.len(), events.len());
        for (i, (d, o)) in des.outcomes.iter().zip(&other.outcomes).enumerate() {
            assert!(
                d.agrees_with(o),
                "step {i} ({}) diverged: {} {d:?}, {} {o:?}",
                events[i],
                des.name,
                other.name
            );
        }
        assert_eq!(des.traces.len(), other.traces.len(), "group count");
        for (k, (dg, og)) in des.traces.iter().zip(&other.traces).enumerate() {
            assert_eq!(dg.len(), og.len(), "machine count in group {k}");
            for (i, (d, o)) in dg.iter().zip(og).enumerate() {
                let who = if i == 0 {
                    "client".to_string()
                } else {
                    format!("site {}", i - 1)
                };
                assert_eq!(
                    d, o,
                    "normalised effect trace of group {k} {who} diverged between \
                     the DES and the {} runtime (seed {seed:#x})",
                    other.name
                );
            }
        }
    }
}

/// Replay a single-group plan on all three runtimes and compare. Returns
/// what each event came to (the same on every runtime).
fn run_and_compare(plan: &FaultPlan) -> Vec<Outcome> {
    let cfg = RaddConfig::small_g4();
    let (g, rows, bs) = (cfg.group_size, cfg.rows, cfg.block_size);
    // Coalescing off: the comparison demands *message-for-message*
    // identical traces, and the DES interpreter never queues two updates
    // on one row. The convergence property under `Merge` has its own test
    // at the bottom of this file.
    let off = CoalescePolicy::Off;
    let des = replay("DES", RaddCluster::new(cfg).unwrap(), plan);
    let others = [
        replay(
            "threaded",
            NodeCluster::start_with(g, rows, bs, 1, off).0,
            plan,
        ),
        replay(
            "socket",
            SocketCluster::start_with(g, rows, bs, 1, off).0,
            plan,
        ),
    ];
    compare(plan.seed, &plan.events, &des, &others);
    des.outcomes
}

/// CI's named seed: a generated plan with failure/repair cycles.
#[test]
fn named_seed_plan_traces_identically_on_all_runtimes() {
    let plan = FaultPlan::generate(seed_from_name("0xRADD0001"), &PlanShape::default());
    run_and_compare(&plan);
}

/// Replay `plan` over `map` on all three runtimes and compare.
fn run_and_compare_sharded(map: &ShardMap, shape: &ShardedShape, plan: &ShardedPlan) {
    let mut cfg = RaddConfig::small_g4();
    cfg.group_size = shape.group_size;
    cfg.rows = shape.rows;
    // Coalescing off, as above: the comparison is message-for-message.
    let off = CoalescePolicy::Off;
    let des = replay_sharded(
        "DES",
        RaddCluster::sharded(map.clone(), &cfg).unwrap(),
        plan,
    );
    let others = [
        replay_sharded(
            "threaded",
            NodeCluster::start_sharded(map.clone(), cfg.block_size, 1, off).0,
            plan,
        ),
        replay_sharded(
            "socket",
            SocketCluster::start_sharded(map.clone(), cfg.block_size, 1, off).0,
            plan,
        ),
    ];
    compare(plan.seed, &plan.events, &des, &others);
}

/// CI's multi-group named seed: 4 groups sharing one 4-site pool, a
/// generated cross-group plan with pool-site failure/repair cycles and
/// loss bursts.
#[test]
fn multi_group_plan_traces_identically_on_all_runtimes() {
    let shape = ShardedShape::default();
    let plan = ShardedPlan::generate(seed_from_name("0xRADD-MG4"), &shape);
    run_and_compare_sharded(&shape.map(), &shape, &plan);
}

/// The declustered differential: the same four groups, but placed by the
/// declustered layout over a pool twice as wide (8 sites × 2 slots), so a
/// pool-site fault hits only the groups whose member slots land there and
/// degraded traffic fans across genuinely distinct survivor sites. The
/// generated plan names pool sites 0–3, all of which exist in the wider
/// pool; byte-identical per-group traces prove the placement is
/// transparent to the protocol — the machines never learn which layout
/// put them where.
#[test]
fn declustered_multi_group_plan_traces_identically() {
    let shape = ShardedShape::default();
    let geo = Geometry::new(shape.group_size, shape.rows).unwrap();
    let map = ShardMap::pool(8, 2, geo, Placement::Declustered).unwrap();
    assert_eq!(
        map.num_groups(),
        shape.num_groups,
        "8×2 pool carves into 4 groups"
    );
    let plan = ShardedPlan::generate(seed_from_name("0xRADD-DC8"), &shape);
    run_and_compare_sharded(&map, &shape, &plan);
}

/// Convergence under [`radd::protocol::CoalescePolicy::Merge`]: with
/// coalescing on (the threaded runtime's default), concurrent clients
/// hammer the same rows through a loss burst — queued parity masks
/// XOR-merge behind the in-flight update — and after quiescing, every
/// stripe still satisfies the parity invariant and the last acknowledged
/// content reads back.
#[test]
fn coalesced_writes_converge_under_loss_burst() {
    let cfg = RaddConfig::small_g4();
    let bs = cfg.block_size;
    let (mut cluster, extra) =
        NodeCluster::start_multi(cfg.group_size, cfg.rows, cfg.block_size, 3);
    cluster.set_loss(200, 0xC0A1E5CE);
    let workers: Vec<_> = extra
        .into_iter()
        .enumerate()
        .map(|(w, mut client)| {
            std::thread::spawn(move || {
                // Both workers target the same rows (site 0/1, indexes 0/1)
                // so updates pile up behind the in-flight one and merge.
                for round in 0..12u64 {
                    for (site, index) in [(0usize, 0u64), (1, 1), (0, 1)] {
                        let fill = 0x10 + (w as u64) * 0x40 + round;
                        client.write(site, index, &payload(fill, bs)).unwrap();
                    }
                }
            })
        })
        .collect();
    for h in workers {
        h.join().unwrap();
    }
    cluster.set_loss(0, 0);
    cluster.quiesce(QUIESCE).unwrap();
    // Parity converged to the data despite merged updates and lost acks.
    cluster.client().verify_parity().unwrap();
    // Each block holds *some* acknowledged payload (which writer won each
    // block is a race; the invariant sweep above is the real check).
    let candidates: Vec<Vec<u8>> = (0..2u64)
        .flat_map(|w| (0..12u64).map(move |round| payload(0x10 + w * 0x40 + round, bs)))
        .collect();
    for (site, index) in [(0usize, 0u64), (1, 1), (0, 1)] {
        let got = cluster.client().read(site, index).unwrap();
        assert!(
            candidates.iter().any(|c| c == &got),
            "block (site {site}, index {index}) holds no acknowledged payload"
        );
    }
    cluster.shutdown();
}

/// A hand-composed plan centred on a message-loss burst: the threaded
/// runtime drops ~25% of sends mid-plan and converges by retransmission,
/// yet the normalised traces still match the loss-free DES.
#[test]
fn loss_burst_plan_traces_identically_on_all_runtimes() {
    use FaultEvent::*;
    let plan = FaultPlan::from_events(vec![
        Write {
            site: 0,
            index: 0,
            fill: 0x11,
        },
        Write {
            site: 1,
            index: 2,
            fill: 0x22,
        },
        LossBurst {
            permille: 250,
            seed: 0xD1FF,
        },
        Write {
            site: 2,
            index: 1,
            fill: 0x33,
        },
        Write {
            site: 0,
            index: 0,
            fill: 0x44,
        },
        Read { site: 2, index: 1 },
        Fail {
            site: 3,
            kind: FailureKind::SiteFailure,
        },
        Write {
            site: 3,
            index: 0,
            fill: 0x55,
        },
        Read { site: 3, index: 0 },
        LossEnd,
        RestoreSite { site: 3 },
        Recover { site: 3 },
        Read { site: 3, index: 0 },
        FlushParity,
    ]);
    run_and_compare(&plan);
}

/// §3.2's recovering window: between a restore and its `Recover`, reads
/// prefer a spare that supersedes the local block and writes drain the
/// stand-in first, on all three runtimes alike. The window's own reads and
/// writes drain every stand-in, so the `Recover` finds none.
#[test]
fn recovering_window_traces_identically_on_all_runtimes() {
    let plan = FaultPlan::recovering_window();
    let outcomes = run_and_compare(&plan);
    let recover = plan
        .events
        .iter()
        .position(|e| matches!(e, FaultEvent::Recover { .. }))
        .expect("the plan recovers its site");
    assert_eq!(outcomes[recover], Outcome::Drained(0));
}

/// §3.2's parity stand-in: while a row's parity site is down the client
/// builds the stand-in in the row's spare and the data site feeds it, on
/// all three runtimes alike; a write after the restore drains its row's
/// stand-in first, and the `Recover` drains the one left.
#[test]
fn parity_site_down_traces_identically_on_all_runtimes() {
    let plan = FaultPlan::parity_site_down();
    let outcomes = run_and_compare(&plan);
    let recover = plan
        .events
        .iter()
        .position(|e| matches!(e, FaultEvent::Recover { .. }))
        .expect("the plan recovers its site");
    assert_eq!(outcomes[recover], Outcome::Drained(1));
    assert!(!outcomes.contains(&Outcome::Skipped));
}
