//! # radd — Distributed RAID (RADD)
//!
//! A from-scratch Rust implementation of Michael Stonebraker's
//! *"Distributed RAID — A New Multiple Copy Algorithm"* (ICDE 1990 /
//! UCB/ERL M89/56): space-efficient redundancy across a group of `G + 2`
//! computer systems using rotating parity and spare blocks, plus every
//! comparator scheme and substrate the paper's evaluation depends on.
//!
//! This crate is the facade: it re-exports the workspace members under one
//! roof.
//!
//! ```
//! use radd::prelude::*;
//!
//! // A 10-site cluster with the paper's G = 8 layout.
//! let mut cluster = RaddCluster::new(RaddConfig::paper_g8()).unwrap();
//! let block = vec![7u8; cluster.config().block_size];
//! cluster.write(Actor::Site(0), 0, 0, &block).unwrap();
//!
//! // Site 0 burns down; its data survives.
//! cluster.disaster(0);
//! let (data, receipt) = cluster.read(Actor::Client, 0, 0).unwrap();
//! assert_eq!(&data[..], &block[..]);
//! assert_eq!(receipt.counts.formula(), "8*RR"); // Figure 3: G·RR
//!
//! // Restore on blank hardware and let the recovery daemon rebuild.
//! cluster.restore_site(0);
//! cluster.run_recovery(0).unwrap();
//! assert_eq!(cluster.read(Actor::Site(0), 0, 0).unwrap().1.counts.formula(), "R");
//! ```
//!
//! ## Layer map
//!
//! | crate | contents |
//! |---|---|
//! | [`sim`] | virtual clock, seeded RNG, the Table-1 cost model |
//! | [`blockdev`] | in-memory disks, disk arrays, failure injection |
//! | [`net`] | lossy links, reliable transport, partitions, a threaded network |
//! | [`layout`] | Figure-1 placement math and §4 group assignment |
//! | [`parity`] | XOR parity, change masks, UIDs |
//! | [`protocol`] | the sans-IO client/site machines both runtimes share |
//! | [`core`] | the RADD cluster itself (§3) |
//! | [`obs`] | metrics + flight recorder tapped off the shared effect stream |
//! | [`schemes`] | ROWB, RAID-5, C-RAID, 2D-RADD, 1/2-RADD (§7) |
//! | [`storage`] | WAL and no-overwrite storage managers (§3.4) |
//! | [`txn`] | 2PL transactions, 2PC, the §6 commit optimisation |
//! | [`reliability`] | MTTU/MTTF closed forms and Monte Carlo (§7.5) |
//! | [`workload`] | access patterns, mixes, fault plans (§7.3–7.4) |
//! | [`node`] | the threaded cluster: one OS thread per site, real messages |
//! | [`rt`] | the socket runtime: framed TCP transport, fault proxies, binaries |
//! | [`check`] | bounded exhaustive model checker over the protocol machines |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use radd_blockdev as blockdev;
pub use radd_check as check;
pub use radd_core as core;
pub use radd_layout as layout;
pub use radd_net as net;
pub use radd_node as node;
pub use radd_obs as obs;
pub use radd_parity as parity;
pub use radd_protocol as protocol;
pub use radd_reliability as reliability;
pub use radd_rt as rt;
pub use radd_schemes as schemes;
pub use radd_sim as sim;
pub use radd_storage as storage;
pub use radd_txn as txn;
pub use radd_workload as workload;

/// The names most programs need.
pub mod prelude {
    pub use radd_core::{
        Actor, CheckError, CheckedCluster, RaddCluster, RaddConfig, RaddError, ShardedCluster,
        SiteState, SparePolicy,
    };
    pub use radd_layout::{assign_groups, Geometry, GlobalAddr, GroupId, Role, ShardMap};
    pub use radd_node::{NodeCluster, ShardedNodeCluster, ThreadedDriver};
    pub use radd_obs::{MachineObs, MachineSnapshot, ObsSnapshot, DEFAULT_RING_CAP};
    pub use radd_protocol::{ClientErr, GroupCluster, RouteError, Router};
    pub use radd_reliability::{Environment, MonteCarlo, Scheme};
    pub use radd_rt::{ClusterConfig, ShardedSocketCluster, SocketCluster, SocketDriver};
    pub use radd_schemes::{CRaid, FailureKind, Radd, Raid5, ReplicationScheme, Rowb, TwoDRadd};
    pub use radd_sim::{CostParams, OpCounts, SimRng};
    pub use radd_storage::{NoOverwriteManager, RecoveryContext, StorageManager, WalManager};
    pub use radd_txn::{radd_commit, two_phase_commit, DistributedTxn, RaddCommitConfig};
    pub use radd_workload::{
        minimize_failure, parse_seed, run_mix, run_plan, run_sharded_plan, seed_from_name,
        AccessPattern, FaultDriver, FaultEvent, FaultPlan, Mix, Outcome, PlanDriver, PlanFailure,
        PlanReport, PlanShape, ShardedEvent, ShardedPlan, ShardedShape,
    };
}
