//! `radd-check`: a bounded exhaustive model checker for the RADD protocol.
//!
//! The checker drives the *real* sans-IO [`SiteMachine`] and
//! [`ClientMachine`] (no protocol re-implementation) through every
//! interleaving of message delivery, loss, duplication, retransmission,
//! reply-cache eviction, site failure/recovery and §5 partition — up to
//! configurable budgets and depth — and asserts the paper's invariants at
//! every step:
//!
//! * **Stripe parity** (§2): at quiescence, every row's parity block is
//!   the XOR of the row's data blocks.
//! * **UID agreement** (§3.3): each data block's UID matches the parity
//!   site's UID-array slot.
//! * **At-most-once parity application** (§3.2): no `(row, site, UID)`
//!   mask is ever XOR-folded into parity twice (the ABA hazard).
//! * **Stop-and-wait** (§3.2): at most one launched, unacked parity
//!   update per `(site, row)`.
//! * **Spare validity**: a valid spare slot sits at the row's spare site,
//!   stands in for another site, and (at quiescence) matches the owner's
//!   current block and UID.
//! * **Partition gate** (§5): a single-site split classifies
//!   single-failure-like; the isolated actor's operations are refused.
//! * **Linearizability** of client reads against a write oracle, and
//!   durability of every acknowledged write at quiescence.
//!
//! A violation is reported as a minimal-iteration schedule of [`Action`]s,
//! a [`FaultPlan`] in the checker's own vocabulary — replayable by the
//! [`ModelDriver`] and greedily minimizable with the workspace's one
//! `minimize_failure`, with the observability snapshot of the failing
//! state attached.
//!
//! [`SiteMachine`]: radd_protocol::SiteMachine
//! [`ClientMachine`]: radd_protocol::ClientMachine
//! [`FaultPlan`]: radd_workload::faults::FaultPlan

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod configs;
pub mod driver;
pub mod explore;
pub mod model;

pub use driver::ModelDriver;
pub use explore::{explore, CheckConfig, Counterexample, Report};
pub use model::{Action, Budgets, ClientOp, Model, ModelConfig};
