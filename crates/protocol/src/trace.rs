//! Normalised effect traces for cross-interpreter differential testing.
//!
//! [`trace`] projects an [`Effect`] onto the transport- and clock-free
//! subset two different drivers must agree on: what was sent where (and how
//! many wire bytes it cost) and which local blocks were touched, why.
//! Timer arming, retransmissions, and duplicate-reply replays are dropped —
//! they exist precisely because real transports lose and reorder messages,
//! so a lossy threaded run and a lossless DES run still produce identical
//! filtered traces.

use crate::effect::{Dest, Effect, IoPurpose};
use crate::wire::MsgKind;
use serde::{Deserialize, Serialize};

/// One normalised trace entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEntry {
    /// A first-time send.
    Send {
        /// Destination.
        to: Dest,
        /// Message kind.
        kind: MsgKind,
        /// Request/reply tag.
        tag: u64,
        /// Charged wire bytes.
        wire: usize,
    },
    /// A local block read.
    Read {
        /// Physical row.
        row: u64,
        /// Why.
        purpose: IoPurpose,
    },
    /// A local block write.
    Write {
        /// Physical row.
        row: u64,
        /// Why.
        purpose: IoPurpose,
    },
    /// A deferred client reply (W1 done, awaiting the parity ack).
    DeferAck {
        /// Deferred request tag.
        tag: u64,
        /// Gating row.
        row: u64,
    },
}

/// Project an effect onto the normalised trace, or `None` for effects that
/// legitimately differ between transports (timers, retransmits, replays,
/// driver escalations).
pub fn trace(effect: &Effect) -> Option<TraceEntry> {
    match effect {
        Effect::Send {
            retransmit: false,
            replay: false,
            to,
            msg,
            wire,
        } => Some(TraceEntry::Send {
            to: *to,
            kind: msg.kind(),
            tag: msg.tag(),
            wire: *wire,
        }),
        Effect::Send { .. } => None,
        Effect::Read { row, purpose } => Some(TraceEntry::Read {
            row: *row,
            purpose: *purpose,
        }),
        Effect::Write { row, purpose } => Some(TraceEntry::Write {
            row: *row,
            purpose: *purpose,
        }),
        Effect::DeferAck { tag, row } => Some(TraceEntry::DeferAck {
            tag: *tag,
            row: *row,
        }),
        Effect::SetTimer { .. } | Effect::ClearTimer { .. } => None,
    }
}
