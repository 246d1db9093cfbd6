//! # radd-storage — storage managers over the RADD substrate (§3.4)
//!
//! The paper's availability argument hinges on how a DBMS recovers after a
//! crash:
//!
//! * with a **write-ahead log**, the failed site's state must be brought to
//!   consistency by a "standard two-phase recovery algorithm over the log"
//!   — and when another site performs that recovery remotely through RADD,
//!   "each block accessed during the recovery process will require G
//!   physical reads at various sites". Remote WAL recovery is therefore so
//!   slow that RADD "is unlikely to increase availability" for short
//!   outages;
//! * with a **no-overwrite storage manager** (POSTGRES-style), "there is no
//!   concept of processing a log at recovery time" — remote operations
//!   proceed immediately, so RADD helps with *all three* failure kinds.
//!
//! A third §7.4 player, the **hot standby** ([`hot_standby`]), ships a
//! *logical* log of record operations to a warm backup — the bandwidth
//! baseline the paper compares RADD's change masks against.
//!
//! This crate implements both managers behind one [`StorageManager`] trait,
//! with crash injection and a recovery-cost report that prices log reads
//! locally or through RADD ([`RecoveryContext`]). The `sec34_recovery`
//! bench regenerates the comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod hot_standby;
pub mod manager;
pub mod no_overwrite;
pub mod wal;

pub use disk::{DiskBlocks, DiskError, DiskStats, SiteStore, StorageSpec};
pub use hot_standby::HotStandby;
pub use manager::{PageId, RecoveryContext, RecoveryStats, StorageError, StorageManager, TxnId};
pub use no_overwrite::NoOverwriteManager;
pub use wal::WalManager;
