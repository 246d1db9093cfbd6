//! Output effects emitted by the protocol machines.
//!
//! The machines never touch a socket, a clock, or a cost ledger. Instead
//! every externally visible action is described by an [`Effect`] pushed into
//! the caller's buffer, and the surrounding *driver* interprets it:
//!
//! * the DES cluster turns `Send` into synchronous in-memory delivery and
//!   `Io` into Figure-3 cost-ledger charges,
//! * the threaded runtime turns `Send` into endpoint sends and `SetTimer`
//!   into retransmission deadlines.
//!
//! No effect asks the driver to do protocol work: a site that cannot serve
//! a request (a dead disk, a lost row, no stand-in) refuses it on the wire.

use crate::wire::Msg;
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Where a message goes: a protocol site (routable by site id) or an opaque
/// peer endpoint (whoever sent us the request — typically a client).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dest {
    /// Protocol site `s`; the driver maps this to that site's address.
    Site(usize),
    /// Opaque peer id, echoed from the incoming event's `src`.
    Peer(usize),
}

/// Why a machine touched local stable storage. Drivers use this to decide
/// what a block access costs (Figure 3) and which traffic bucket it fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoPurpose {
    /// Foreground data read serving a client `Read`.
    Data,
    /// W2: read of the old value before an overwrite (served from the
    /// buffer pool in the paper's costing — drivers charge nothing).
    OldValue,
    /// W1: the new data block hitting stable storage.
    WriteData,
    /// W4: parity read-modify-write (charged once at send time by the
    /// paper's convention — drivers charge nothing here).
    ParityApply,
    /// Read of a spare slot's payload.
    SpareRead,
    /// Write installing a block into a spare slot.
    SpareInstall,
    /// Source-block read feeding an XOR reconstruction.
    Reconstruct,
    /// Write of a drained/reconstructed block back onto a recovered disk.
    Restore,
    /// Read replaying a committed log suffix while a crashed site reopens
    /// its durable store (§3.4 WAL recovery; always background).
    LogReplay,
}

impl IoPurpose {
    /// Number of purposes; sizes dense per-purpose counter arrays.
    pub const COUNT: usize = 9;

    /// Every purpose, in [`IoPurpose::index`] order.
    pub const ALL: [IoPurpose; IoPurpose::COUNT] = [
        IoPurpose::Data,
        IoPurpose::OldValue,
        IoPurpose::WriteData,
        IoPurpose::ParityApply,
        IoPurpose::SpareRead,
        IoPurpose::SpareInstall,
        IoPurpose::Reconstruct,
        IoPurpose::Restore,
        IoPurpose::LogReplay,
    ];

    /// Dense index into a `[_; IoPurpose::COUNT]` counter array.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short stable name, used as a metrics key and in text snapshots.
    pub const fn name(self) -> &'static str {
        match self {
            IoPurpose::Data => "data",
            IoPurpose::OldValue => "old_value",
            IoPurpose::WriteData => "write_data",
            IoPurpose::ParityApply => "parity_apply",
            IoPurpose::SpareRead => "spare_read",
            IoPurpose::SpareInstall => "spare_install",
            IoPurpose::Reconstruct => "reconstruct",
            IoPurpose::Restore => "restore",
            IoPurpose::LogReplay => "log_replay",
        }
    }
}

/// A local block device fault surfaced to a machine during I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockFault;

/// Local stable storage as seen by a machine: rows of fixed-size blocks.
///
/// The machine performs real reads/writes through this trait (it needs the
/// bytes to compute masks and XORs) and *additionally* reports each access
/// as an [`Effect::Read`]/[`Effect::Write`] receipt so drivers can account
/// for it without re-deriving the protocol.
pub trait Blocks {
    /// Read physical row `row`. `Err(BlockFault)` means the disk holding it
    /// is failed/lost. The returned [`Bytes`] is a refcounted view — storage
    /// backends hand out their buffer without copying, and the machine can
    /// forward it into a reply without copying either.
    fn read(&mut self, row: u64) -> Result<Bytes, BlockFault>;
    /// Write physical row `row`.
    fn write(&mut self, row: u64, data: &[u8]) -> Result<(), BlockFault>;
    /// Write physical row `row`, taking ownership of the buffer. In-memory
    /// backends can adopt the refcounted buffer as-is — a message body
    /// lands in storage without a copy. Defaults to [`write`](Blocks::write).
    fn write_owned(&mut self, row: u64, data: Bytes) -> Result<(), BlockFault> {
        self.write(row, &data)
    }
}

/// In-memory [`Blocks`]: one refcounted buffer per row, never faults.
/// Used by tests, proptests, and the protocol microbench.
#[derive(Debug, Clone)]
pub struct MemBlocks {
    zero: Bytes,
    rows: Vec<Option<Bytes>>,
}

impl MemBlocks {
    /// `rows` zeroed blocks of `block_size` bytes.
    pub fn new(rows: u64, block_size: usize) -> MemBlocks {
        MemBlocks {
            zero: Bytes::from(vec![0; block_size]),
            rows: vec![None; rows as usize],
        }
    }
}

impl Blocks for MemBlocks {
    fn read(&mut self, row: u64) -> Result<Bytes, BlockFault> {
        Ok(self.rows[row as usize]
            .clone()
            .unwrap_or_else(|| self.zero.clone()))
    }

    fn write(&mut self, row: u64, data: &[u8]) -> Result<(), BlockFault> {
        self.rows[row as usize] = Some(Bytes::copy_from_slice(data));
        Ok(())
    }

    fn write_owned(&mut self, row: u64, data: Bytes) -> Result<(), BlockFault> {
        self.rows[row as usize] = Some(data);
        Ok(())
    }
}

/// An externally visible action requested by a protocol machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Transmit `msg` to `to`; `wire` is its charged size.
    Send {
        /// Destination.
        to: Dest,
        /// The message.
        msg: Msg,
        /// Charged wire bytes ([`Msg::wire_size`]).
        wire: usize,
        /// True when this send is a stop-and-wait *retransmission* of an
        /// already-charged message; drivers resend but do not re-charge.
        retransmit: bool,
        /// True when this send replays a cached reply to a duplicate
        /// request; drivers resend but do not re-charge.
        replay: bool,
    },
    /// Receipt: the machine read local row `row` for `purpose`.
    Read {
        /// Physical row.
        row: u64,
        /// Why.
        purpose: IoPurpose,
    },
    /// Receipt: the machine wrote local row `row` for `purpose`.
    Write {
        /// Physical row.
        row: u64,
        /// Why.
        purpose: IoPurpose,
    },
    /// The reply to request `tag` is deferred until the row's parity update
    /// is acknowledged (W1 done, W4 pending).
    DeferAck {
        /// Deferred request tag.
        tag: u64,
        /// Row whose parity ack gates the reply.
        row: u64,
    },
    /// Arm the stop-and-wait retransmit timer for outstanding tag `tag`.
    /// `step` counts retransmissions so drivers can back off; sans-IO
    /// machines never see wall-clock durations.
    SetTimer {
        /// Outstanding request tag.
        tag: u64,
        /// Retransmission count so far (0 on first send).
        step: u32,
    },
    /// Disarm the retransmit timer for `tag` (it was acknowledged).
    ClearTimer {
        /// Acknowledged tag.
        tag: u64,
    },
}

impl Effect {
    /// Convenience constructor for a first-time (chargeable) send.
    pub fn send(to: Dest, msg: Msg) -> Effect {
        let wire = msg.wire_size();
        Effect::Send {
            to,
            msg,
            wire,
            retransmit: false,
            replay: false,
        }
    }
}
