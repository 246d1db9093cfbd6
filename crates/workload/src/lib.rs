//! # radd-workload — workload generators and fault plans
//!
//! Drives the measured experiments:
//!
//! * [`access`] — block access patterns (uniform, Zipf, sequential);
//! * [`mix`] — read/write mixes over any [`ReplicationScheme`], producing
//!   aggregated operation counts and priced latency (the paper's Figure 7
//!   uses a 2-reads-per-write mix);
//! * [`records`] — the §7.4 record-update workload: 100-byte records in
//!   4 KB pages, with buffer-pool write absorption, for the network/disk
//!   bandwidth ratio;
//! * [`faults`] — the deterministic fault-plan engine: seed-generated
//!   event sequences (failures, partitions, loss bursts, repairs) that
//!   run against any [`faults::FaultDriver`] — [`PlanDriver`] over any
//!   runtime's cluster, the DES's omniscient `CheckedCluster`, the model
//!   checker — with invariants checked after every event, reporting a
//!   replayable seed + minimized event prefix on violation;
//! * [`sharded`] — the multi-group counterpart: cross-group access plans
//!   over a [`radd_layout::ShardMap`] (uniform traffic, hot-group bursts,
//!   pool-site failures that degrade every group hosted there) replayed
//!   by [`run_sharded_plan`] on any runtime's sharded cluster.
//!
//! [`ReplicationScheme`]: radd_schemes::ReplicationScheme

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod faults;
pub mod mix;
pub mod records;
pub mod sharded;

pub use access::AccessPattern;
pub use faults::{
    minimize_failure, parse_seed, run_plan, seed_from_name, FaultDriver, FaultEvent, FaultPlan,
    Outcome, PlanDriver, PlanFailure, PlanReport, PlanShape,
};
pub use mix::{run_mix, Mix, MixReport};
pub use records::{run_record_workload, RecordReport, RecordWorkload};
pub use sharded::{run_sharded_plan, ShardedEvent, ShardedPlan, ShardedReport, ShardedShape};
