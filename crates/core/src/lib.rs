//! # radd-core — the RADD algorithms (paper Section 3)
//!
//! A **RADD** (Redundant Array of Distributed Disks) generalises a Level-5
//! RAID across `G + 2` independent computer systems. Each site's blocks
//! rotate through **data**, **parity** and **spare** roles (see
//! [`radd_layout`]); this crate implements the protocols that keep them
//! consistent through disk failures, temporary site failures, and site
//! disasters:
//!
//! * the write path W1–W4 — local write, then a change mask + UID shipped to
//!   the row's parity site ([`cluster::RaddCluster::write`]);
//! * down-site reads via the spare block, falling back to reconstruction by
//!   XOR of the `G` surviving blocks with UID validation (§3.3);
//! * down-site writes redirected to the spare site (step W1'), and, while a
//!   row's parity site is down, the row's spare standing in for its parity
//!   block (built and fed by the machines, priced here);
//! * the **recovering** state: reads prefer a valid spare over the possibly
//!   stale local block, writes drain the spare back and then proceed
//!   normally (both are `radd_protocol::ClientMachine`'s rules, priced
//!   here);
//! * the background recovery daemon that drains spares back to the restored
//!   site and reconstructs blocks lost with a disk
//!   ([`cluster::RaddCluster::run_recovery`]);
//! * network-partition handling per §5 (a `G+1 / 1` split is treated as a
//!   single site failure; anything else blocks).
//!
//! Every client operation returns an [`stats::OpReceipt`] with the operation
//! counts and priced latency, which is how the bench harness regenerates the
//! paper's Figures 3 and 4.
//!
//! ```
//! use radd_core::{Actor, RaddCluster, RaddConfig};
//!
//! let mut cluster = RaddCluster::new(RaddConfig::paper_g8()).unwrap();
//! let block = vec![42u8; cluster.config().block_size];
//! cluster.write(Actor::Site(3), 3, 0, &block).unwrap();
//! let (data, receipt) = cluster.read(Actor::Site(3), 3, 0).unwrap();
//! assert_eq!(&data[..], &block[..]);
//! assert_eq!(receipt.counts.formula(), "R"); // Figure 3: no-failure read
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod driver;
pub mod error;
pub mod locks;
pub mod sharded;
pub mod stats;

pub use cluster::{RaddCluster, RecoveryReport, StorageMode};
pub use config::{RaddConfig, SparePolicy};
pub use driver::{CheckError, CheckedCluster};
pub use error::RaddError;
pub use locks::{LockKind, LockManager};
pub use sharded::ShardedCluster;
pub use stats::{Actor, OpReceipt, TrafficStats};

// Re-export the vocabulary types callers need alongside the cluster.
pub use radd_layout::{DataIndex, Geometry, PhysRow, Role, SiteId};
pub use radd_net::{PartitionMap, PartitionVerdict};
pub use radd_parity::Uid;
pub use radd_protocol::{SiteState, SpareSlot};
pub use radd_sim::{CostParams, OpCounts, OpKind, SimDuration};
