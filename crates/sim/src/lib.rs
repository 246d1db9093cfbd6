//! # radd-sim — deterministic discrete-event simulation kernel
//!
//! The RADD testbed reproduces the evaluation of Stonebraker's *Distributed
//! RAID* paper on a laptop. Everything the paper measures — operation
//! latencies, network traffic, failure processes spanning simulated decades —
//! runs on top of this kernel:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock with microsecond
//!   resolution (the paper's cost constants are milliseconds).
//! * [`SimRng`] — a seeded random source with the exponential sampling the
//!   reliability models need (`rand_distr` is intentionally not a dependency).
//! * [`cost`] — the paper's Table-1 cost parameters (`R`, `W`, `RR`, `RW`)
//!   and the operation counters that Figures 3 and 4 are built from.
//!
//! Determinism is a hard requirement: two runs with the same seed must
//! produce byte-identical traces, so every source of ordering (the virtual
//! clock, the RNG) is fully specified.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod rng;
pub mod time;

pub use cost::{CostLedger, CostParams, OpCounts, OpKind};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
