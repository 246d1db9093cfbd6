//! Wire vocabulary shared by every RADD transport.
//!
//! These are *logical* messages: the threaded runtime serialises them with
//! serde over its loopback endpoints, the DES cluster passes them by value.
//! [`Msg::wire_size`] pins the §7.4 accounting next to the message itself so
//! both interpreters charge identical bytes for identical sends.

use bytes::Bytes;
use radd_parity::{Uid, UidArray};
use serde::{Deserialize, Serialize};

/// Fixed header overhead charged for any message that carries block data.
pub const BLOCK_MSG_HEADER: usize = 24;

/// Wire size charged for a control message (probe, ack, small request).
pub const CONTROL_MSG_BYTES: usize = 16;

/// What a spare slot holds (§3.2 / §3.3): the one record of it, in a site's
/// durable state, in a probe's answer, and in an install or a restore.
///
/// A spare standing in for a *data* block carries that block's UID; a spare
/// standing in for a *parity* block carries the parity block's whole UID
/// array, because §3.3 read validation needs it. Off the wire the array may
/// have any length; a site refuses one that is not `G + 2` long.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpareContent {
    /// Spare holds a data block with this UID.
    Data {
        /// UID minted for the redirected write.
        uid: Uid,
    },
    /// Spare holds a parity block with this per-site UID array.
    Parity {
        /// UID array slots, indexed by site.
        uids: UidArray,
    },
}

/// A spare slot as reported by a probe: who it substitutes for, the block
/// payload, and the metadata needed to validate/restore it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpareSlotWire {
    /// Site whose block this spare stands in for.
    pub for_site: usize,
    /// Block payload (refcounted: replies, caches, and retransmit queues
    /// share one buffer).
    pub data: Bytes,
    /// UID metadata (data UID or parity UID array).
    pub content: SpareContent,
}

/// Why a request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NackReason {
    /// The site is administratively down.
    Down,
    /// Block index out of range.
    OutOfRange,
    /// Payload length does not match the configured block size.
    BadSize,
    /// The block cannot be served from this site (lost disk, stale row).
    Unavailable,
    /// A spare install conflicts with an existing slot for another site.
    Conflict,
    /// A [`Msg::WriteMask`]'s base is not the last write this site applied
    /// to the block: the sender's image of the block is stale (another
    /// writer, a restore, a restart came between). Send the block whole.
    StaleBase,
}

/// Protocol messages. Requests carry a `tag` echoed by the reply, so a
/// stop-and-wait sender can match responses and a receiver can deduplicate
/// retransmissions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Msg {
    // ---- requests ----------------------------------------------------
    /// Client read of data block `index` at the receiving site.
    Read {
        /// Site-local data block index.
        index: u64,
        /// Request tag.
        tag: u64,
    },
    /// Client write of data block `index` (W1 at the receiving site).
    Write {
        /// Site-local data block index.
        index: u64,
        /// New block payload.
        data: Bytes,
        /// Request tag.
        tag: u64,
    },
    /// A write of data block `index` given as its change mask against the
    /// block the sender's own write `base_tag` left there (W1 at the
    /// receiving site, which builds the new block from its copy). Refused
    /// with [`NackReason::StaleBase`] when that write is not the last one
    /// the site applied to the block.
    WriteMask {
        /// Site-local data block index.
        index: u64,
        /// Tag of the sender's write whose block the mask is taken against.
        base_tag: u64,
        /// Encoded [`radd_parity::ChangeMask`] from that block to the new.
        mask_wire: Bytes,
        /// Request tag.
        tag: u64,
    },
    /// W3: change mask shipped to the parity site (or a stand-in spare).
    ParityUpdate {
        /// Physical row being updated.
        row: u64,
        /// Encoded [`radd_parity::ChangeMask`].
        mask_wire: Bytes,
        /// UID minted by the writer for this version.
        uid: Uid,
        /// Site whose data block changed.
        from_site: usize,
        /// Request tag.
        tag: u64,
    },
    /// Does the receiving site hold a spare for `row`, and for whom?
    SpareProbe {
        /// Physical row.
        row: u64,
        /// Ship the slot's block payload with the answer (a charged spare
        /// read). `false` probes ownership only — a pure control exchange.
        want_data: bool,
        /// Request tag.
        tag: u64,
    },
    /// Install a block into the receiving site's spare slot for `row`.
    SpareInstall {
        /// Physical row.
        row: u64,
        /// Site the spare stands in for.
        for_site: usize,
        /// Block payload.
        data: Bytes,
        /// UID metadata for the installed block.
        content: SpareContent,
        /// Request tag.
        tag: u64,
    },
    /// Raw block read for reconstruction: returns the block plus UID
    /// metadata (§3.3 validation).
    BlockRead {
        /// Physical row.
        row: u64,
        /// Request tag.
        tag: u64,
    },
    /// List rows for which the receiving site holds spares for `for_site`.
    SpareDrainList {
        /// Recovering site draining its redirected writes.
        for_site: usize,
        /// Request tag.
        tag: u64,
    },
    /// Release the receiving site's spare slot for `row` (recovery drained
    /// it). Idempotent; acked even if the slot is already gone.
    SpareTake {
        /// Physical row.
        row: u64,
        /// Request tag.
        tag: u64,
    },
    /// Write a drained/reconstructed block back to the recovering site.
    RestoreBlock {
        /// Physical row.
        row: u64,
        /// Block payload.
        data: Bytes,
        /// UID metadata to restore alongside the block.
        content: SpareContent,
        /// Request tag.
        tag: u64,
    },
    // ---- replies -----------------------------------------------------
    /// Successful read.
    ReadOk {
        /// Echoed request tag.
        tag: u64,
        /// Block payload.
        data: Bytes,
    },
    /// Write fully applied (W1–W4 complete: parity acked).
    WriteOk {
        /// Echoed request tag.
        tag: u64,
    },
    /// Generic success for parity updates, installs, takes, restores.
    Ack {
        /// Echoed request tag.
        tag: u64,
    },
    /// Refusal.
    Nack {
        /// Echoed request tag.
        tag: u64,
        /// Why.
        reason: NackReason,
    },
    /// Reply to [`Msg::BlockRead`].
    BlockData {
        /// Echoed request tag.
        tag: u64,
        /// Block payload.
        data: Bytes,
        /// Block UID (data rows) or `Uid::INVALID` for parity rows.
        uid: Uid,
        /// Parity UID array when the row is a parity row at this site.
        parity_uids: Option<Vec<Uid>>,
    },
    /// Reply to [`Msg::SpareProbe`].
    SpareState {
        /// Echoed request tag.
        tag: u64,
        /// The slot, if one exists.
        slot: Option<SpareSlotWire>,
    },
    /// Reply to [`Msg::SpareDrainList`].
    SpareRows {
        /// Echoed request tag.
        tag: u64,
        /// Rows with spares held for the requested site.
        rows: Vec<u64>,
    },
}

/// Discriminant of a [`Msg`], used in effect traces and stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum MsgKind {
    Read,
    Write,
    ParityUpdate,
    SpareProbe,
    SpareInstall,
    BlockRead,
    SpareDrainList,
    SpareTake,
    RestoreBlock,
    ReadOk,
    WriteOk,
    Ack,
    Nack,
    BlockData,
    SpareState,
    SpareRows,
    WriteMask,
}

impl MsgKind {
    /// Number of kinds; sizes dense per-kind counter arrays.
    pub const COUNT: usize = 17;

    /// Every kind, in [`MsgKind::index`] order.
    pub const ALL: [MsgKind; MsgKind::COUNT] = [
        MsgKind::Read,
        MsgKind::Write,
        MsgKind::ParityUpdate,
        MsgKind::SpareProbe,
        MsgKind::SpareInstall,
        MsgKind::BlockRead,
        MsgKind::SpareDrainList,
        MsgKind::SpareTake,
        MsgKind::RestoreBlock,
        MsgKind::ReadOk,
        MsgKind::WriteOk,
        MsgKind::Ack,
        MsgKind::Nack,
        MsgKind::BlockData,
        MsgKind::SpareState,
        MsgKind::SpareRows,
        MsgKind::WriteMask,
    ];

    /// Dense index into a `[_; MsgKind::COUNT]` counter array.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short stable name, used as a metrics key and in text snapshots.
    pub const fn name(self) -> &'static str {
        match self {
            MsgKind::Read => "read",
            MsgKind::Write => "write",
            MsgKind::ParityUpdate => "parity_update",
            MsgKind::SpareProbe => "spare_probe",
            MsgKind::SpareInstall => "spare_install",
            MsgKind::BlockRead => "block_read",
            MsgKind::SpareDrainList => "spare_drain_list",
            MsgKind::SpareTake => "spare_take",
            MsgKind::RestoreBlock => "restore_block",
            MsgKind::ReadOk => "read_ok",
            MsgKind::WriteOk => "write_ok",
            MsgKind::Ack => "ack",
            MsgKind::Nack => "nack",
            MsgKind::BlockData => "block_data",
            MsgKind::SpareState => "spare_state",
            MsgKind::SpareRows => "spare_rows",
            MsgKind::WriteMask => "write_mask",
        }
    }
}

impl Msg {
    /// The request/reply tag carried by every message.
    pub fn tag(&self) -> u64 {
        match self {
            Msg::Read { tag, .. }
            | Msg::Write { tag, .. }
            | Msg::WriteMask { tag, .. }
            | Msg::ParityUpdate { tag, .. }
            | Msg::SpareProbe { tag, .. }
            | Msg::SpareInstall { tag, .. }
            | Msg::BlockRead { tag, .. }
            | Msg::SpareDrainList { tag, .. }
            | Msg::SpareTake { tag, .. }
            | Msg::RestoreBlock { tag, .. }
            | Msg::ReadOk { tag, .. }
            | Msg::WriteOk { tag }
            | Msg::Ack { tag }
            | Msg::Nack { tag, .. }
            | Msg::BlockData { tag, .. }
            | Msg::SpareState { tag, .. }
            | Msg::SpareRows { tag, .. } => *tag,
        }
    }

    /// Message kind for traces.
    pub fn kind(&self) -> MsgKind {
        match self {
            Msg::Read { .. } => MsgKind::Read,
            Msg::Write { .. } => MsgKind::Write,
            Msg::WriteMask { .. } => MsgKind::WriteMask,
            Msg::ParityUpdate { .. } => MsgKind::ParityUpdate,
            Msg::SpareProbe { .. } => MsgKind::SpareProbe,
            Msg::SpareInstall { .. } => MsgKind::SpareInstall,
            Msg::BlockRead { .. } => MsgKind::BlockRead,
            Msg::SpareDrainList { .. } => MsgKind::SpareDrainList,
            Msg::SpareTake { .. } => MsgKind::SpareTake,
            Msg::RestoreBlock { .. } => MsgKind::RestoreBlock,
            Msg::ReadOk { .. } => MsgKind::ReadOk,
            Msg::WriteOk { .. } => MsgKind::WriteOk,
            Msg::Ack { .. } => MsgKind::Ack,
            Msg::Nack { .. } => MsgKind::Nack,
            Msg::BlockData { .. } => MsgKind::BlockData,
            Msg::SpareState { .. } => MsgKind::SpareState,
            Msg::SpareRows { .. } => MsgKind::SpareRows,
        }
    }

    /// Is this a request (something a reply cache should deduplicate)?
    pub fn is_request(&self) -> bool {
        matches!(
            self,
            Msg::Read { .. }
                | Msg::Write { .. }
                | Msg::WriteMask { .. }
                | Msg::ParityUpdate { .. }
                | Msg::SpareProbe { .. }
                | Msg::SpareInstall { .. }
                | Msg::BlockRead { .. }
                | Msg::SpareDrainList { .. }
                | Msg::SpareTake { .. }
                | Msg::RestoreBlock { .. }
        )
    }

    /// Bytes this message is charged on the wire (§7.4 accounting).
    ///
    /// A parity update (and a client's write given as a mask) ships the
    /// encoded change mask plus a control header — *much* smaller than a
    /// block for sparse writes, which is the paper's §7.4 bandwidth
    /// argument. Anything carrying a block pays the payload
    /// plus [`BLOCK_MSG_HEADER`]; everything else is a fixed
    /// [`CONTROL_MSG_BYTES`].
    pub fn wire_size(&self) -> usize {
        match self {
            Msg::ParityUpdate { mask_wire, .. } | Msg::WriteMask { mask_wire, .. } => {
                mask_wire.len() + CONTROL_MSG_BYTES
            }
            Msg::Write { data, .. }
            | Msg::SpareInstall { data, .. }
            | Msg::RestoreBlock { data, .. }
            | Msg::ReadOk { data, .. }
            | Msg::BlockData { data, .. } => data.len() + BLOCK_MSG_HEADER,
            Msg::SpareState {
                slot: Some(SpareSlotWire { data, .. }),
                ..
            } => data.len() + BLOCK_MSG_HEADER,
            Msg::Read { .. }
            | Msg::SpareProbe { .. }
            | Msg::BlockRead { .. }
            | Msg::SpareDrainList { .. }
            | Msg::SpareTake { .. }
            | Msg::WriteOk { .. }
            | Msg::Ack { .. }
            | Msg::Nack { .. }
            | Msg::SpareState { slot: None, .. }
            | Msg::SpareRows { .. } => CONTROL_MSG_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_reports_its_tag() {
        let msgs = vec![
            Msg::Read { index: 1, tag: 7 },
            Msg::Write {
                index: 1,
                data: Bytes::from(vec![0; 4]),
                tag: 7,
            },
            Msg::WriteMask {
                index: 1,
                base_tag: 3,
                mask_wire: Bytes::new(),
                tag: 7,
            },
            Msg::ParityUpdate {
                row: 0,
                mask_wire: Bytes::new(),
                uid: Uid::INVALID,
                from_site: 0,
                tag: 7,
            },
            Msg::SpareProbe {
                row: 0,
                want_data: true,
                tag: 7,
            },
            Msg::SpareInstall {
                row: 0,
                for_site: 0,
                data: Bytes::from(vec![0; 4]),
                content: SpareContent::Data { uid: Uid::INVALID },
                tag: 7,
            },
            Msg::BlockRead { row: 0, tag: 7 },
            Msg::SpareDrainList {
                for_site: 0,
                tag: 7,
            },
            Msg::SpareTake { row: 0, tag: 7 },
            Msg::RestoreBlock {
                row: 0,
                data: Bytes::from(vec![0; 4]),
                content: SpareContent::Data { uid: Uid::INVALID },
                tag: 7,
            },
            Msg::ReadOk {
                tag: 7,
                data: Bytes::new(),
            },
            Msg::WriteOk { tag: 7 },
            Msg::Ack { tag: 7 },
            Msg::Nack {
                tag: 7,
                reason: NackReason::Down,
            },
            Msg::BlockData {
                tag: 7,
                data: Bytes::new(),
                uid: Uid::INVALID,
                parity_uids: None,
            },
            Msg::SpareState { tag: 7, slot: None },
            Msg::SpareRows {
                tag: 7,
                rows: vec![],
            },
        ];
        for m in msgs {
            assert_eq!(m.tag(), 7, "{:?}", m.kind());
        }
    }

    #[test]
    fn parity_update_wire_size_is_mask_plus_header() {
        let m = Msg::ParityUpdate {
            row: 0,
            mask_wire: Bytes::from(vec![0; 10]),
            uid: Uid::INVALID,
            from_site: 0,
            tag: 0,
        };
        assert_eq!(m.wire_size(), 10 + CONTROL_MSG_BYTES);
        let r = Msg::Read { index: 0, tag: 0 };
        assert_eq!(r.wire_size(), CONTROL_MSG_BYTES);
        let w = Msg::Write {
            index: 0,
            data: Bytes::from(vec![0; 64]),
            tag: 0,
        };
        assert_eq!(w.wire_size(), 64 + BLOCK_MSG_HEADER);
    }
}
