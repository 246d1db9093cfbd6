//! # radd-protocol — the sans-IO RADD state machines
//!
//! One implementation of the paper's §3 multiple-copy algorithm and §5
//! partition rules, shared by every runtime. The crate is deliberately
//! **pure**: no clocks, no threads, no channels, no sockets — machines
//! consume *events* (delivered messages, timer firings, state transitions)
//! and emit *effects* (sends with wire sizes, local block I/O receipts,
//! timer arm/disarm requests) that a surrounding driver interprets.
//!
//! * [`SiteMachine`] — the per-site server: W1–W4 deferred-ack writes,
//!   parity read-modify-write with the §3.2 UID idempotence guard,
//!   stop-and-wait per-row retransmission, spare-slot lifecycle, §3.3
//!   UID-array maintenance, and an at-most-once reply cache.
//! * [`ClientMachine`] — the client: degraded reads via spare or validated
//!   XOR reconstruction, W1' redirected writes, and the recovery drain.
//! * [`partition`] — §5: when a network partition may be treated as a
//!   single site failure and when the system must block.
//!
//! Three runtimes drive them: the deterministic DES cluster (`radd-core`),
//! which interprets effects synchronously and turns them into Figure-3
//! cost receipts, and one async interpreter (`radd-node`'s `site.rs`,
//! `client.rs`, `harness.rs`) over two transports, lossy in-process
//! endpoints (`radd-node`) and TCP (`radd-rt`), with real retransmission
//! timers. [`loopback`] is the bare synchronous interpreter the property
//! tests stand on, and the model checker (`radd-check`) enumerates their
//! schedules. A differential test replays one fault plan on all three
//! runtimes and asserts identical normalised effect traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod client;
pub mod codec;
pub mod durable;
pub mod effect;
pub mod events;
pub mod fasthash;
pub mod loopback;
#[cfg(feature = "mutations")]
pub mod mutations;
pub mod obs;
pub mod partition;
pub mod router;
pub mod server;
pub mod trace;
pub mod wire;

/// The buffer a message's block is: a view of a refcounted allocation.
pub use bytes::Bytes;
pub use check::{
    check_spare_freshness, check_spare_structure, check_stripe_parity, check_uid_agreement,
    Canonicalizer, Checkable,
};
pub use client::{ClientErr, ClientIo, ClientMachine, RebuildReport, SiteState, SparePolicy};
pub use codec::{
    decode_msg, decode_msg_split, encode_msg, encode_msg_split, encode_msg_vec, CodecError,
};
pub use durable::{DurableDelta, DurableError, DurableSiteState, SpareSlot};
pub use effect::{BlockFault, Blocks, Dest, Effect, IoPurpose, MemBlocks};
pub use events::FailureKind;
pub use obs::{obs_event, ObsEvent};
pub use partition::{classify, gate, Gate, PartitionVerdict};
pub use router::{GroupCluster, PoolRebuildReport, RouteError, Router};
pub use server::{CoalescePolicy, SiteMachine};
pub use trace::trace;
pub use wire::{
    Msg, MsgKind, NackReason, SpareContent, SpareSlotWire, BLOCK_MSG_HEADER, CONTROL_MSG_BYTES,
};
