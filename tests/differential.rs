//! Differential test: one protocol, three interpreters.
//!
//! The same fault plan is applied, event by event, to the synchronous DES
//! interpreter (`radd_core::RaddCluster` in client mode), the threaded
//! runtime (`radd_node::NodeCluster`) and the socket runtime
//! (`radd_rt::SocketCluster`, real TCP on loopback behind fault proxies).
//! All three drive the *same* sans-IO machines from `radd-protocol`, so
//! after the run:
//!
//! * the normalised effect trace of every machine — the client and each of
//!   the `G + 2` sites — must be **identical** across the three runtimes
//!   (the normalisation drops timer arms and retransmissions, which only
//!   the asynchronous runtimes exercise), and
//! * every block the oracle knows must read back with the same content on
//!   all three, and all three must pass the stripe-invariant sweep.
//!
//! The DES mirrors the asynchronous driver's conventions (see
//! `radd_node::driver`, which both async runtimes compile): disasters are
//! applied as temporary site failures, disk events are skipped, a revived site stays
//! on the believed-down list until the plan's `Recover`, and writes whose
//! row's parity site is the impaired site are skipped on every side.
//!
//! The multi-group differential ([`replay`]) repeats the exercise one
//! level up: a 4-group sharded cluster on each of the three runtimes —
//! the same `radd_protocol::Router` over each runtime's `GroupCluster` —
//! under a cross-group plan with pool-site faults, compared group by group.

use radd::core::{RaddCluster, RaddConfig, SiteId};
use radd::layout::{Geometry, GlobalAddr, Placement, ShardMap};
use radd::node::NodeCluster;
use radd::protocol::{GroupCluster, Router, TraceEntry};
use radd::rt::SocketCluster;
use radd::workload::faults::{
    payload, seed_from_name, FailureKind, FaultEvent, FaultPlan, PlanShape,
};
use radd::workload::sharded::{ShardedEvent, ShardedPlan, ShardedShape};
use std::collections::BTreeMap;
use std::time::Duration;

const QUIESCE: Duration = Duration::from_secs(10);

/// All three runtimes under one plan, plus the shared oracle bookkeeping.
struct Trio {
    des: RaddCluster,
    node: NodeCluster,
    sock: SocketCluster,
    oracle: BTreeMap<(SiteId, u64), Vec<u8>>,
    impaired: Option<SiteId>,
    skipped: u64,
}

impl Trio {
    fn start() -> Trio {
        let cfg = RaddConfig::small_g4();
        let mut des = RaddCluster::new(cfg.clone()).unwrap();
        // Coalescing off: the comparison below demands *message-for-message*
        // identical traces, and the DES interpreter never queues two updates
        // on one row. The convergence property under `Merge` has its own
        // test at the bottom of this file.
        let (mut node, _) = NodeCluster::start_with(
            cfg.group_size,
            cfg.rows,
            cfg.block_size,
            1,
            radd::protocol::CoalescePolicy::Off,
        );
        let (mut sock, _) = SocketCluster::start_with(
            cfg.group_size,
            cfg.rows,
            cfg.block_size,
            1,
            radd::protocol::CoalescePolicy::Off,
        );
        des.record_machine_traces(true);
        node.record_traces(true);
        sock.record_traces(true);
        Trio {
            des,
            node,
            sock,
            oracle: BTreeMap::new(),
            impaired: None,
            skipped: 0,
        }
    }

    fn apply(&mut self, event: &FaultEvent) {
        let bs = self.des.config().block_size;
        match *event {
            FaultEvent::Write { site, index, fill } => {
                let row = self.des.geometry().data_to_physical(site, index);
                if self.impaired == Some(self.des.geometry().parity_site(row)) {
                    self.skipped += 1;
                    return;
                }
                let data = payload(fill, bs);
                let d = self.des.client_write(site, index, &data);
                let n = self.node.client().write(site, index, &data);
                let s = self.sock.client().write(site, index, &data);
                assert_eq!(
                    d.is_ok(),
                    n.is_ok(),
                    "write(site {site}, index {index}) diverged: des {d:?}, node {n:?}"
                );
                assert_eq!(
                    d.is_ok(),
                    s.is_ok(),
                    "write(site {site}, index {index}) diverged: des {d:?}, socket {s:?}"
                );
                if d.is_ok() {
                    self.oracle.insert((site, index), data);
                }
            }
            FaultEvent::Read { site, index } => {
                let d = self.des.client_read(site, index);
                let n = self.node.client().read(site, index);
                let s = self.sock.client().read(site, index);
                assert_eq!(
                    d.is_ok(),
                    n.is_ok(),
                    "read(site {site}, index {index}) diverged: des {d:?}, node {n:?}"
                );
                assert_eq!(
                    d.is_ok(),
                    s.is_ok(),
                    "read(site {site}, index {index}) diverged: des {d:?}, socket {s:?}"
                );
                if let Ok(d) = d {
                    if let Ok(n) = n {
                        assert_eq!(d, n, "read(site {site}, index {index}) content diverged");
                    }
                    if let Ok(s) = s {
                        assert_eq!(d, s, "read(site {site}, index {index}) content diverged");
                    }
                }
            }
            // Disk events are threaded-runtime no-ops; skip on both sides
            // so the trace streams stay aligned.
            FaultEvent::Fail {
                kind: FailureKind::DiskFailure { .. },
                ..
            }
            | FaultEvent::ReplaceDisk { .. } => {}
            // The asynchronous runtimes apply disasters as temporary
            // failures (disks keep their contents); mirror that here.
            FaultEvent::Fail { site, .. } => {
                self.node.quiesce(QUIESCE).unwrap();
                self.node.kill_site(site);
                self.sock.quiesce(QUIESCE).unwrap();
                self.sock.kill_site(site);
                self.des.fail_site(site);
                self.des.client_mark_down(site, true);
                self.impaired = Some(site);
            }
            FaultEvent::RestoreSite { site } => {
                self.node.revive_site(site);
                self.node.client().mark_down(site, true);
                self.sock.revive_site(site);
                self.sock.client().mark_down(site, true);
                self.des.restore_site(site);
                self.des.client_mark_down(site, true);
            }
            FaultEvent::Recover { site } => {
                let d = self.des.client_recover(site);
                let n = self.node.client().recover(site);
                let s = self.sock.client().recover(site);
                assert_eq!(
                    d.as_ref().ok(),
                    n.as_ref().ok(),
                    "recover({site}) diverged: des {d:?}, node {n:?}"
                );
                assert_eq!(
                    d.as_ref().ok(),
                    s.as_ref().ok(),
                    "recover({site}) diverged: des {d:?}, socket {s:?}"
                );
                self.node.client().mark_down(site, false);
                self.sock.client().mark_down(site, false);
                self.des.client_mark_down(site, false);
                self.impaired = None;
            }
            FaultEvent::Isolate { site } => {
                self.node.quiesce(QUIESCE).unwrap();
                self.node.isolate_site(site);
                self.sock.quiesce(QUIESCE).unwrap();
                self.sock.isolate_site(site);
                self.des.fail_site(site);
                self.des.client_mark_down(site, true);
                self.impaired = Some(site);
            }
            FaultEvent::Heal { site } => {
                self.node.heal_site(site);
                self.node.client().mark_down(site, true);
                self.sock.heal_site(site);
                self.sock.client().mark_down(site, true);
                self.des.restore_site(site);
                self.des.client_mark_down(site, true);
            }
            // Loss only exists on the asynchronous runtimes; the DES models
            // the reliable network of §3. Retransmissions are dropped by
            // the trace normalisation, so the streams still match.
            FaultEvent::LossBurst { permille, seed } => {
                self.node.set_loss(permille, seed);
                self.sock.set_loss(permille, seed);
            }
            FaultEvent::LossEnd => {
                self.node.set_loss(0, 0);
                self.sock.set_loss(0, 0);
            }
            FaultEvent::FlushParity => {
                self.node.quiesce(QUIESCE).unwrap();
                self.sock.quiesce(QUIESCE).unwrap();
            }
            // Checker-granularity events (single message deliveries, timer
            // firings, cache evictions) have no meaning at this driver's
            // cluster granularity.
            FaultEvent::StepClient { .. }
            | FaultEvent::Deliver { .. }
            | FaultEvent::DropMsg { .. }
            | FaultEvent::DupMsg { .. }
            | FaultEvent::FireTimer { .. }
            | FaultEvent::EvictReplies { .. } => {}
            // The trio runs memory-backed stores, where a kill/restart is
            // a no-op by definition (there is no disk to come back from);
            // the durable version has its own test in crash_recovery.rs.
            FaultEvent::KillRestart { .. } => {}
        }
    }

    /// Run the whole plan, then compare traces and final state.
    fn run_and_compare(mut self, plan: &FaultPlan) {
        for event in &plan.events {
            self.apply(event);
        }
        self.node.quiesce(QUIESCE).unwrap();
        self.sock.quiesce(QUIESCE).unwrap();

        // Traces first: the verification sweeps below issue reads of their
        // own, which would pollute the site machines' logs.
        let des_traces = self.des.take_machine_traces();
        let node_traces = self.node.take_traces();
        let sock_traces = self.sock.take_traces();
        assert_eq!(des_traces.len(), node_traces.len());
        assert_eq!(des_traces.len(), sock_traces.len());
        for (i, d) in des_traces.iter().enumerate() {
            let who = if i == 0 {
                "client".to_string()
            } else {
                format!("site {}", i - 1)
            };
            assert_eq!(
                d, &node_traces[i],
                "normalised effect trace of {who} diverged between the DES \
                 and the threaded runtime (seed {:#x})",
                plan.seed
            );
            assert_eq!(
                d, &sock_traces[i],
                "normalised effect trace of {who} diverged between the DES \
                 and the socket runtime (seed {:#x})",
                plan.seed
            );
        }
        assert!(
            des_traces.iter().map(Vec::len).sum::<usize>() > 0,
            "plan exercised no protocol traffic — comparison is vacuous"
        );

        // Final state: all three pass the stripe sweep, and every
        // acknowledged write reads back identically everywhere.
        self.des.verify_parity().unwrap();
        self.node.client().verify_parity().unwrap();
        self.sock.client().verify_parity().unwrap();
        for (&(site, index), want) in &self.oracle {
            let d = self.des.client_read(site, index).unwrap();
            let n = self.node.client().read(site, index).unwrap();
            let s = self.sock.client().read(site, index).unwrap();
            assert_eq!(&d, want, "DES lost write at site {site} index {index}");
            assert_eq!(&n, want, "node lost write at site {site} index {index}");
            assert_eq!(&s, want, "socket lost write at site {site} index {index}");
        }
        self.node.shutdown();
        self.sock.shutdown();
    }
}

/// CI's named seed: a generated plan with failure/repair cycles.
#[test]
fn named_seed_plan_traces_identically_on_all_runtimes() {
    let plan = FaultPlan::generate(seed_from_name("0xRADD0001"), &PlanShape::default());
    Trio::start().run_and_compare(&plan);
}

/// One runtime's run of a sharded plan: what every event returned, then
/// each group's normalised per-machine traces.
struct Replay {
    name: &'static str,
    /// Per event: the bytes read (reads), the blocks drained (repairs),
    /// nothing (everything else) — or the error.
    outcomes: Vec<Result<Vec<u8>, String>>,
    traces: Vec<Vec<Vec<TraceEntry>>>,
}

/// The multi-group differential, one runtime's half: replay a cross-group
/// plan on that runtime's sharded cluster, which for every runtime is the
/// one `Router` over its `GroupCluster`.
///
/// Same discipline as the [`Trio`], one level up: faults arrive at
/// **pool-site** granularity and fan out to every group hosting a member
/// slot there, and writes whose row's parity lands on the impaired pool
/// site are skipped. The decisions depend only on the plan, so replaying
/// the runtimes one after another and comparing what each saw is the
/// lockstep run, without a type that holds three different routers.
fn replay<C: GroupCluster>(
    name: &'static str,
    mut cluster: Router<C>,
    plan: &ShardedPlan,
) -> Replay {
    cluster.record_traces(true);
    let bs = cluster.block_size();
    let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut impaired: Option<SiteId> = None;
    let mut outcomes = Vec::with_capacity(plan.events.len());
    for event in &plan.events {
        outcomes.push(match *event {
            ShardedEvent::Write { addr, .. }
                if impaired.is_some()
                    && cluster.map().parity_pool_site(GlobalAddr(addr)) == impaired =>
            {
                Ok(Vec::new())
            }
            ShardedEvent::Write { addr, fill } => {
                let data = payload(fill, bs);
                cluster.write(GlobalAddr(addr), &data).map(|()| {
                    oracle.insert(addr, data);
                    Vec::new()
                })
            }
            ShardedEvent::Read { addr } => cluster.read(GlobalAddr(addr)),
            ShardedEvent::FailPoolSite { site } => {
                cluster.quiesce().unwrap();
                cluster.fail_pool_site(site);
                impaired = Some(site);
                Ok(Vec::new())
            }
            ShardedEvent::RecoverPoolSite { site } => {
                cluster.restore_pool_site(site);
                impaired = None;
                cluster
                    .recover_pool_site(site)
                    .map(|drained| drained.to_le_bytes().to_vec())
            }
            // Loss only exists on the asynchronous runtimes; retransmissions
            // are dropped by the trace normalisation.
            ShardedEvent::LossBurst { permille, seed } => {
                cluster.set_loss(permille, seed);
                Ok(Vec::new())
            }
            ShardedEvent::LossEnd => {
                cluster.set_loss(0, 0);
                Ok(Vec::new())
            }
            ShardedEvent::Quiesce => cluster.quiesce().map(|()| Vec::new()),
        });
    }
    cluster.quiesce().unwrap();

    // Traces first: the verification sweeps below issue reads of their own.
    let traces = cluster.take_traces();
    cluster.verify_parity().unwrap();
    for (&addr, want) in &oracle {
        let got = cluster.read(GlobalAddr(addr)).unwrap();
        assert_eq!(&got, want, "{name} lost write at @{addr}");
    }
    cluster.shutdown();
    Replay {
        name,
        outcomes,
        traces,
    }
}

/// Replay `plan` over `map` on all three runtimes and demand that every
/// event returned the same thing and every group's normalised per-machine
/// traces match byte for byte.
fn run_and_compare_sharded(map: &ShardMap, shape: &ShardedShape, plan: &ShardedPlan) {
    let mut cfg = RaddConfig::small_g4();
    cfg.group_size = shape.group_size;
    cfg.rows = shape.rows;
    // Coalescing off, as in the Trio: the comparison is message-for-message.
    let off = radd::protocol::CoalescePolicy::Off;
    let des = replay(
        "DES",
        RaddCluster::sharded(map.clone(), &cfg).unwrap(),
        plan,
    );
    let others = [
        replay(
            "threaded",
            NodeCluster::start_sharded(map.clone(), cfg.block_size, 1, off).0,
            plan,
        ),
        replay(
            "socket",
            SocketCluster::start_sharded(map.clone(), cfg.block_size, 1, off).0,
            plan,
        ),
    ];

    for (k, group) in des.traces.iter().enumerate() {
        assert!(
            group.iter().map(Vec::len).sum::<usize>() > 0,
            "group {k} saw no protocol traffic — comparison is vacuous (seed {:#x})",
            plan.seed
        );
    }
    for other in &others {
        for (i, (event, (d, o))) in plan
            .events
            .iter()
            .zip(des.outcomes.iter().zip(&other.outcomes))
            .enumerate()
        {
            assert_eq!(
                d.as_ref().ok(),
                o.as_ref().ok(),
                "step {i} ({event}) diverged: {} {d:?}, {} {o:?}",
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
                    format!("member {}", i - 1)
                };
                assert_eq!(
                    d, o,
                    "normalised effect trace of group {k} {who} diverged between \
                     the sharded DES and the sharded {} runtime (seed {:#x})",
                    other.name, plan.seed
                );
            }
        }
    }
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
    Trio::start().run_and_compare(&plan);
}
