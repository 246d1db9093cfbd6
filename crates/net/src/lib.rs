//! # radd-net — the network substrate
//!
//! Section 3 assumes a reliable network; Section 5 then relaxes that to
//! cover **lost messages** and **network partitions**. This crate provides
//! the network side of both; the retransmission that §5's commit
//! conditions need ("the messages updating the parity block … have been
//! received at the various parity sites") is the protocol machines' own.
//!
//! * [`stats::NetStats`] — byte and message accounting, the basis of the
//!   §7.4 bandwidth comparison (change-mask traffic vs disk bandwidth).
//! * [`partition::PartitionMap`] — group membership during a partition and
//!   the §5 classification: a `G+1`/`1` split looks like a single site
//!   failure and the majority side proceeds; anything else must block.
//! * [`faults`] — [`FaultState`], the one fault switchboard of both async
//!   runtimes: silent loss, duplication and partitions, decided once per
//!   protocol message by the endpoint that sends it (a [`Verdict`]).
//!   Retransmission over a faulty network is the protocol machines' own
//!   stop-and-wait (`SiteMachine::all_acked` is the quiescence test),
//!   scheduled by [`retry::RetryPolicy`].
//! * [`threaded`] — a crossbeam-channel network of [`Msg`]s for the
//!   threaded cluster runtime (real concurrency rather than virtual time),
//!   whose sends ask the switchboard; the socket runtime's sends ask the
//!   same type. Its [`ThreadedEndpoint`] is that runtime's [`Transport`].
//! * [`transport`] — [`Outbound`] and [`Transport`]: what the one async
//!   interpreter (site driver, client ladder, cluster harness) asks of a
//!   network. The threaded and the socket runtime each implement them for
//!   their endpoint type, with nothing between the endpoint and the
//!   interpreter.
//!
//! [`Msg`]: radd_protocol::Msg

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod partition;
pub mod retry;
pub mod stats;
pub mod threaded;
pub mod transport;

pub use faults::{FaultState, Verdict};
pub use partition::{PartitionMap, PartitionVerdict};
pub use retry::RetryPolicy;
pub use stats::NetStats;
pub use threaded::{ThreadedEndpoint, ThreadedNet, Wire};
pub use transport::{Outbound, Received, SendOutcome, Transport};
