//! Observability projection of the effect stream.
//!
//! [`obs_event`] is the tap the `radd-obs` crate hangs off: it maps an
//! [`Effect`] onto a compact, heap-free [`ObsEvent`] suitable for a
//! fixed-size flight-recorder ring and for counter updates.
//!
//! The differential trace ([`crate::trace::trace`]) is this projection
//! with retransmissions and duplicate-reply replays dropped, so that a
//! lossy threaded run and a lossless DES run compare equal; the
//! observability layer *keeps* them — counting retransmissions and replays
//! under faults is precisely what it is for. Timer arm/disarm effects are
//! dropped by both: they are interpreter bookkeeping, not protocol traffic.

use crate::effect::{Dest, Effect, IoPurpose};
use crate::wire::{Msg, MsgKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One normalized protocol event, as recorded by the flight recorder.
///
/// `Copy` and free of heap data by construction: recording an event into a
/// pre-allocated ring never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObsEvent {
    /// A message left the machine.
    Send {
        /// Destination.
        to: Dest,
        /// Message kind.
        kind: MsgKind,
        /// Request/reply tag.
        tag: u64,
        /// Charged wire bytes.
        wire: u64,
        /// Stop-and-wait retransmission of an already-charged message.
        retransmit: bool,
        /// Cached-reply replay to a duplicate request.
        replay: bool,
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
    /// A client reply was deferred until the row's parity ack (W1 done,
    /// W4 pending).
    DeferAck {
        /// Deferred request tag.
        tag: u64,
        /// Gating row.
        row: u64,
    },
}

impl ObsEvent {
    /// A client's send of `msg` to site `site`; `retransmit` for a resend
    /// of an already-charged request (a client never replays).
    #[inline]
    pub fn client_send(site: usize, msg: &Msg, retransmit: bool) -> ObsEvent {
        ObsEvent::Send {
            to: Dest::Site(site),
            kind: msg.kind(),
            tag: msg.tag(),
            wire: msg.wire_size() as u64,
            retransmit,
            replay: false,
        }
    }
}

/// Project an effect onto the observability event, or `None` for timer
/// bookkeeping.
#[inline]
pub fn obs_event(effect: &Effect) -> Option<ObsEvent> {
    match effect {
        Effect::Send {
            to,
            msg,
            wire,
            retransmit,
            replay,
        } => Some(ObsEvent::Send {
            to: *to,
            kind: msg.kind(),
            tag: msg.tag(),
            wire: *wire as u64,
            retransmit: *retransmit,
            replay: *replay,
        }),
        Effect::Read { row, purpose } => Some(ObsEvent::Read {
            row: *row,
            purpose: *purpose,
        }),
        Effect::Write { row, purpose } => Some(ObsEvent::Write {
            row: *row,
            purpose: *purpose,
        }),
        Effect::DeferAck { tag, row } => Some(ObsEvent::DeferAck {
            tag: *tag,
            row: *row,
        }),
        Effect::SetTimer { .. } | Effect::ClearTimer { .. } => None,
    }
}

impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsEvent::Send {
                to,
                kind,
                tag,
                wire,
                retransmit,
                replay,
            } => {
                let dest = match to {
                    Dest::Site(s) => format!("site {s}"),
                    Dest::Peer(p) => format!("peer {p}"),
                };
                write!(f, "send {} tag={tag} -> {dest} ({wire}B", kind.name())?;
                if *retransmit {
                    write!(f, ", retransmit")?;
                }
                if *replay {
                    write!(f, ", replay")?;
                }
                write!(f, ")")
            }
            ObsEvent::Read { row, purpose } => {
                write!(f, "read  row={row} [{}]", purpose.name())
            }
            ObsEvent::Write { row, purpose } => {
                write!(f, "write row={row} [{}]", purpose.name())
            }
            ObsEvent::DeferAck { tag, row } => write!(f, "defer tag={tag} row={row}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retransmissions_survive_the_obs_projection() {
        let eff = Effect::Send {
            to: Dest::Site(3),
            msg: Msg::Ack { tag: 9 },
            wire: 16,
            retransmit: true,
            replay: false,
        };
        assert!(crate::trace::trace(&eff).is_none(), "trace drops it");
        match obs_event(&eff) {
            Some(ObsEvent::Send {
                retransmit: true,
                kind: MsgKind::Ack,
                tag: 9,
                ..
            }) => {}
            other => panic!("obs must keep the retransmission: {other:?}"),
        }
    }

    #[test]
    fn timers_are_dropped() {
        assert_eq!(obs_event(&Effect::SetTimer { tag: 1, step: 0 }), None);
        assert_eq!(obs_event(&Effect::ClearTimer { tag: 1 }), None);
    }

    #[test]
    fn purpose_and_kind_indexing_is_dense_and_named() {
        for (i, p) in IoPurpose::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(!p.name().is_empty());
        }
        for (i, k) in MsgKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(!k.name().is_empty());
        }
    }
}
