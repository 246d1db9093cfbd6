//! Binary wire codec for the protocol [`Msg`] vocabulary.
//!
//! The socket runtime (`radd-rt`) ships messages over TCP; the vendored
//! serde shim serialises one way only (to JSON, for snapshots and dumps),
//! so real transport needs an explicit, versioned binary encoding. It lives
//! here — next to the message definitions it must stay in lockstep with —
//! and stays sans-IO: bytes in, bytes out, no framing, no checksums (the
//! transport layer owns those; see `radd-rt`'s frame module).
//!
//! Layout rules (all integers little-endian), stated once, in
//! [`encode_msg_split`]:
//!
//! * a message is one kind byte ([`MsgKind::index`]) followed by its fields
//!   in declaration order;
//! * `u64` fields are 8 bytes; site ids are `u32` (a cluster with 4 billion
//!   sites is not this codec's problem);
//! * block payloads are a `u32` length prefix plus raw bytes — decoding
//!   *slices* the refcounted input buffer, so a decoded block body shares
//!   the receive buffer with zero copies, exactly like the in-process
//!   runtimes share their `Bytes` ([`decode_msg_split`] instead takes a
//!   block that arrived in a buffer of its own, as it is);
//! * enums ([`SpareContent`], [`NackReason`], `Option`s) are one tag byte
//!   plus the selected variant's fields.
//!
//! Decoding is hardened against hostile or corrupt input: every read is
//! bounds-checked, length prefixes are validated against the *remaining*
//! input before any allocation (a 4 GiB length prefix on a 40-byte frame
//! errors immediately instead of attempting the allocation), unknown tags
//! are errors, and trailing bytes after a complete message are rejected.
//! `decode_msg(encode_msg(m)) == m` for every message — pinned by the
//! `radd-rt` codec property tests.

use crate::wire::{Msg, MsgKind, NackReason, SpareContent, SpareSlotWire};
use bytes::Bytes;
use radd_parity::{Uid, UidArray};
use std::fmt;

/// Why a byte sequence failed to decode as a [`Msg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the message did.
    Truncated {
        /// What was being read when the input ran out.
        field: &'static str,
    },
    /// The kind byte names no [`MsgKind`].
    UnknownKind(u8),
    /// An enum tag byte names no variant.
    UnknownTag {
        /// Which enum.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length prefix exceeds the bytes actually present — corrupt, or an
    /// over-allocation attempt.
    BadLength {
        /// Which field.
        field: &'static str,
        /// The claimed length.
        claimed: u64,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// Bytes left over after a complete message.
    Trailing {
        /// How many.
        extra: usize,
    },
    /// A block handed over apart ([`decode_msg_split`]) is not the
    /// message's block: the message has none, has it elsewhere, or has one
    /// of another length.
    Misplaced {
        /// The block field being read, or `"block"` when the message ended
        /// without taking the block.
        field: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { field } => write!(f, "input truncated while reading {field}"),
            CodecError::UnknownKind(k) => write!(f, "unknown message kind byte {k:#04x}"),
            CodecError::UnknownTag { what, tag } => {
                write!(f, "unknown {what} tag byte {tag:#04x}")
            }
            CodecError::BadLength {
                field,
                claimed,
                remaining,
            } => write!(
                f,
                "{field} claims {claimed} bytes but only {remaining} remain"
            ),
            CodecError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            CodecError::Misplaced { field } => {
                write!(f, "the block piece is not the message's {field}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// ---- encoding ---------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_site(buf: &mut Vec<u8>, site: usize) {
    put_u32(buf, u32::try_from(site).expect("site id fits in u32"));
}

/// A block's length prefix; the block's bytes follow it on the wire.
fn put_len(buf: &mut Vec<u8>, data: &[u8]) {
    put_u32(buf, u32::try_from(data.len()).expect("block fits in u32"));
}

fn put_uid(buf: &mut Vec<u8>, uid: Uid) {
    put_u64(buf, uid.as_raw());
}

fn put_uid_vec(buf: &mut Vec<u8>, uids: &[Uid]) {
    put_u32(
        buf,
        u32::try_from(uids.len()).expect("uid array fits in u32"),
    );
    for &u in uids {
        put_uid(buf, u);
    }
}

fn put_content(buf: &mut Vec<u8>, content: &SpareContent) {
    match content {
        SpareContent::Data { uid } => {
            buf.push(0);
            put_uid(buf, *uid);
        }
        SpareContent::Parity { uids } => {
            buf.push(1);
            put_uid_vec(buf, uids.slots());
        }
    }
}

const fn nack_tag(reason: NackReason) -> u8 {
    match reason {
        NackReason::Down => 0,
        NackReason::OutOfRange => 1,
        NackReason::BadSize => 2,
        NackReason::Unavailable => 3,
        NackReason::Conflict => 4,
    }
}

/// Append the binary encoding of `msg` to `buf`: [`encode_msg_split`]'s
/// three pieces, joined.
pub fn encode_msg(msg: &Msg, buf: &mut Vec<u8>) {
    let mut tail = Vec::new();
    let block = encode_msg_split(msg, buf, &mut tail);
    buf.extend_from_slice(block);
    buf.extend_from_slice(&tail);
}

/// The binary encoding of `msg` in three pieces, which joined are
/// [`encode_msg`]'s bytes: the fields up to and including the length of the
/// message's block are appended to `buf`, the block itself is returned
/// (borrowed from `msg`, not copied) and the fields after it are appended
/// to `tail`. A message without a block goes whole into `buf`, and the
/// block returned is empty. This is the one statement of the layout; a
/// writer can send the three pieces as they lie, with no buffer joining
/// them.
pub fn encode_msg_split<'m>(msg: &'m Msg, buf: &mut Vec<u8>, tail: &mut Vec<u8>) -> &'m [u8] {
    buf.push(msg.kind().index() as u8);
    match msg {
        Msg::Read { index, tag } => {
            put_u64(buf, *index);
            put_u64(buf, *tag);
            &[]
        }
        Msg::Write { index, data, tag } => {
            put_u64(buf, *index);
            put_len(buf, data);
            put_u64(tail, *tag);
            data
        }
        Msg::ParityUpdate {
            row,
            mask_wire,
            uid,
            from_site,
            tag,
        } => {
            put_u64(buf, *row);
            put_len(buf, mask_wire);
            put_uid(tail, *uid);
            put_site(tail, *from_site);
            put_u64(tail, *tag);
            mask_wire
        }
        Msg::SpareProbe {
            row,
            want_data,
            tag,
        } => {
            put_u64(buf, *row);
            buf.push(u8::from(*want_data));
            put_u64(buf, *tag);
            &[]
        }
        Msg::SpareInstall {
            row,
            for_site,
            data,
            content,
            tag,
        } => {
            put_u64(buf, *row);
            put_site(buf, *for_site);
            put_len(buf, data);
            put_content(tail, content);
            put_u64(tail, *tag);
            data
        }
        Msg::BlockRead { row, tag } => {
            put_u64(buf, *row);
            put_u64(buf, *tag);
            &[]
        }
        Msg::SpareDrainList { for_site, tag } => {
            put_site(buf, *for_site);
            put_u64(buf, *tag);
            &[]
        }
        Msg::SpareTake { row, tag } => {
            put_u64(buf, *row);
            put_u64(buf, *tag);
            &[]
        }
        Msg::RestoreBlock {
            row,
            data,
            content,
            tag,
        } => {
            put_u64(buf, *row);
            put_len(buf, data);
            put_content(tail, content);
            put_u64(tail, *tag);
            data
        }
        Msg::ReadOk { tag, data } => {
            put_u64(buf, *tag);
            put_len(buf, data);
            data
        }
        Msg::WriteOk { tag } | Msg::Ack { tag } => {
            put_u64(buf, *tag);
            &[]
        }
        Msg::Nack { tag, reason } => {
            put_u64(buf, *tag);
            buf.push(nack_tag(*reason));
            &[]
        }
        Msg::BlockData {
            tag,
            data,
            uid,
            parity_uids,
        } => {
            put_u64(buf, *tag);
            put_len(buf, data);
            put_uid(tail, *uid);
            match parity_uids {
                None => tail.push(0),
                Some(uids) => {
                    tail.push(1);
                    put_uid_vec(tail, uids);
                }
            }
            data
        }
        Msg::SpareState { tag, slot } => {
            put_u64(buf, *tag);
            match slot {
                None => {
                    buf.push(0);
                    &[]
                }
                Some(SpareSlotWire {
                    for_site,
                    data,
                    content,
                }) => {
                    buf.push(1);
                    put_site(buf, *for_site);
                    put_len(buf, data);
                    put_content(tail, content);
                    data
                }
            }
        }
        Msg::SpareRows { tag, rows } => {
            put_u64(buf, *tag);
            put_u32(
                buf,
                u32::try_from(rows.len()).expect("row list fits in u32"),
            );
            for &r in rows {
                put_u64(buf, r);
            }
            &[]
        }
    }
}

/// [`encode_msg`] into a fresh buffer.
pub fn encode_msg_vec(msg: &Msg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(msg.wire_size() + 16);
    encode_msg(msg, &mut buf);
    buf
}

// ---- decoding ---------------------------------------------------------

/// Bounds-checked cursor over a message's fields. Block payloads are
/// *sliced*, not copied, so the decoded message shares the receive buffer.
struct Cursor<'a> {
    /// The fields being read: the whole input, or the piece before the
    /// block and then the piece after it.
    input: &'a [u8],
    pos: usize,
    blocks: Blocks<'a>,
}

/// Where a [`Cursor`] takes a message's block from.
enum Blocks<'a> {
    /// The input it reads, which the block is a slice of.
    Sliced(&'a Bytes),
    /// A piece of its own, which stands after the fields read so far;
    /// `tail` is what follows it. `None` once taken.
    Apart {
        block: Option<Bytes>,
        tail: &'a [u8],
    },
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { field });
        }
        let s = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, field)?[0])
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, CodecError> {
        let s = self.take(4, field)?;
        Ok(u32::from_le_bytes(s.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, CodecError> {
        let s = self.take(8, field)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8-byte slice")))
    }

    fn site(&mut self, field: &'static str) -> Result<usize, CodecError> {
        Ok(self.u32(field)? as usize)
    }

    fn bool(&mut self, field: &'static str) -> Result<bool, CodecError> {
        match self.u8(field)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::UnknownTag { what: field, tag }),
        }
    }

    fn uid(&mut self, field: &'static str) -> Result<Uid, CodecError> {
        Ok(Uid::from_raw(self.u64(field)?))
    }

    /// A length-prefixed payload, validated against the remaining input
    /// *before* anything is allocated, then sliced zero-copy. A block read
    /// apart must stand exactly here (its prefix the last field before it)
    /// and be as long as the prefix says.
    fn bytes(&mut self, field: &'static str) -> Result<Bytes, CodecError> {
        let len = self.u32(field)? as usize;
        let (at, remaining) = (self.pos, self.remaining());
        match &mut self.blocks {
            Blocks::Sliced(input) => {
                if remaining < len {
                    return Err(CodecError::BadLength {
                        field,
                        claimed: len as u64,
                        remaining,
                    });
                }
                self.pos += len;
                Ok(input.slice(at..at + len))
            }
            Blocks::Apart { block, tail } => match block.take() {
                Some(block) if remaining == 0 && block.len() == len => {
                    (self.input, self.pos) = (tail, 0);
                    Ok(block)
                }
                _ => Err(CodecError::Misplaced { field }),
            },
        }
    }

    fn uid_vec(&mut self, field: &'static str) -> Result<Vec<Uid>, CodecError> {
        let count = self.u32(field)? as usize;
        // 8 bytes per UID must already be present; checked before the
        // allocation so a corrupt count cannot balloon memory.
        if self.remaining() < count.saturating_mul(8) {
            return Err(CodecError::BadLength {
                field,
                claimed: count as u64 * 8,
                remaining: self.remaining(),
            });
        }
        let mut uids = Vec::with_capacity(count);
        for _ in 0..count {
            uids.push(self.uid(field)?);
        }
        Ok(uids)
    }

    fn content(&mut self) -> Result<SpareContent, CodecError> {
        match self.u8("spare content tag")? {
            0 => Ok(SpareContent::Data {
                uid: self.uid("spare data uid")?,
            }),
            1 => Ok(SpareContent::Parity {
                uids: UidArray::from_slots(self.uid_vec("spare parity uids")?),
            }),
            tag => Err(CodecError::UnknownTag {
                what: "SpareContent",
                tag,
            }),
        }
    }
}

fn decode_body(kind: MsgKind, c: &mut Cursor<'_>) -> Result<Msg, CodecError> {
    Ok(match kind {
        MsgKind::Read => Msg::Read {
            index: c.u64("read index")?,
            tag: c.u64("read tag")?,
        },
        MsgKind::Write => Msg::Write {
            index: c.u64("write index")?,
            data: c.bytes("write data")?,
            tag: c.u64("write tag")?,
        },
        MsgKind::ParityUpdate => Msg::ParityUpdate {
            row: c.u64("parity row")?,
            mask_wire: c.bytes("parity mask")?,
            uid: c.uid("parity uid")?,
            from_site: c.site("parity from_site")?,
            tag: c.u64("parity tag")?,
        },
        MsgKind::SpareProbe => Msg::SpareProbe {
            row: c.u64("probe row")?,
            want_data: c.bool("probe want_data")?,
            tag: c.u64("probe tag")?,
        },
        MsgKind::SpareInstall => Msg::SpareInstall {
            row: c.u64("install row")?,
            for_site: c.site("install for_site")?,
            data: c.bytes("install data")?,
            content: c.content()?,
            tag: c.u64("install tag")?,
        },
        MsgKind::BlockRead => Msg::BlockRead {
            row: c.u64("block-read row")?,
            tag: c.u64("block-read tag")?,
        },
        MsgKind::SpareDrainList => Msg::SpareDrainList {
            for_site: c.site("drain-list for_site")?,
            tag: c.u64("drain-list tag")?,
        },
        MsgKind::SpareTake => Msg::SpareTake {
            row: c.u64("take row")?,
            tag: c.u64("take tag")?,
        },
        MsgKind::RestoreBlock => Msg::RestoreBlock {
            row: c.u64("restore row")?,
            data: c.bytes("restore data")?,
            content: c.content()?,
            tag: c.u64("restore tag")?,
        },
        MsgKind::ReadOk => Msg::ReadOk {
            tag: c.u64("read-ok tag")?,
            data: c.bytes("read-ok data")?,
        },
        MsgKind::WriteOk => Msg::WriteOk {
            tag: c.u64("write-ok tag")?,
        },
        MsgKind::Ack => Msg::Ack {
            tag: c.u64("ack tag")?,
        },
        MsgKind::Nack => Msg::Nack {
            tag: c.u64("nack tag")?,
            reason: match c.u8("nack reason")? {
                0 => NackReason::Down,
                1 => NackReason::OutOfRange,
                2 => NackReason::BadSize,
                3 => NackReason::Unavailable,
                4 => NackReason::Conflict,
                tag => {
                    return Err(CodecError::UnknownTag {
                        what: "NackReason",
                        tag,
                    })
                }
            },
        },
        MsgKind::BlockData => Msg::BlockData {
            tag: c.u64("block-data tag")?,
            data: c.bytes("block-data data")?,
            uid: c.uid("block-data uid")?,
            parity_uids: match c.u8("block-data parity option")? {
                0 => None,
                1 => Some(c.uid_vec("block-data parity uids")?),
                tag => {
                    return Err(CodecError::UnknownTag {
                        what: "Option<parity uids>",
                        tag,
                    })
                }
            },
        },
        MsgKind::SpareState => Msg::SpareState {
            tag: c.u64("spare-state tag")?,
            slot: match c.u8("spare-state option")? {
                0 => None,
                1 => Some(SpareSlotWire {
                    for_site: c.site("spare-state for_site")?,
                    data: c.bytes("spare-state data")?,
                    content: c.content()?,
                }),
                tag => {
                    return Err(CodecError::UnknownTag {
                        what: "Option<SpareSlotWire>",
                        tag,
                    })
                }
            },
        },
        MsgKind::SpareRows => {
            let tag = c.u64("spare-rows tag")?;
            let count = c.u32("spare-rows count")? as usize;
            if c.remaining() < count.saturating_mul(8) {
                return Err(CodecError::BadLength {
                    field: "spare-rows list",
                    claimed: count as u64 * 8,
                    remaining: c.remaining(),
                });
            }
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push(c.u64("spare-rows entry")?);
            }
            Msg::SpareRows { tag, rows }
        }
    })
}

/// Decode one complete [`Msg`] from `input`. Block payloads are zero-copy
/// slices of `input`; the whole input must be consumed exactly.
pub fn decode_msg(input: &Bytes) -> Result<Msg, CodecError> {
    decode_from(Cursor {
        input: &input[..],
        pos: 0,
        blocks: Blocks::Sliced(input),
    })
}

/// Decode one [`Msg`] from [`encode_msg_split`]'s three pieces as they
/// arrived: `head`, the fields up to the block's length prefix; `block`,
/// which the message takes as it is (no copy, no slice); `tail`, the fields
/// after it. The block must be the message's, where its layout puts it and
/// as long as its prefix says ([`CodecError::Misplaced`] otherwise), and
/// both pieces of fields must be consumed exactly.
pub fn decode_msg_split(head: &[u8], block: Bytes, tail: &[u8]) -> Result<Msg, CodecError> {
    decode_from(Cursor {
        input: head,
        pos: 0,
        blocks: Blocks::Apart {
            block: Some(block),
            tail,
        },
    })
}

fn decode_from(mut c: Cursor<'_>) -> Result<Msg, CodecError> {
    let kind_byte = c.u8("kind byte")?;
    let kind = *MsgKind::ALL
        .iter()
        .find(|k| k.index() == kind_byte as usize)
        .ok_or(CodecError::UnknownKind(kind_byte))?;
    let msg = decode_body(kind, &mut c)?;
    // A message without a block leaves the block and the tail untaken,
    // which is sound only when there is nothing in them.
    let untaken = match &c.blocks {
        Blocks::Apart {
            block: Some(block),
            tail,
        } => {
            if !block.is_empty() {
                return Err(CodecError::Misplaced { field: "block" });
            }
            tail.len()
        }
        _ => 0,
    };
    if c.remaining() + untaken > 0 {
        return Err(CodecError::Trailing {
            extra: c.remaining() + untaken,
        });
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Msg) {
        let enc = encode_msg_vec(msg);
        let got = decode_msg(&Bytes::from(enc)).unwrap_or_else(|e| {
            panic!("decode of {:?} failed: {e}", msg.kind());
        });
        assert_eq!(&got, msg, "{:?}", msg.kind());
    }

    #[test]
    fn every_kind_roundtrips() {
        let msgs = vec![
            Msg::Read { index: 3, tag: 7 },
            Msg::Write {
                index: 1,
                data: Bytes::from(vec![9; 64]),
                tag: 8,
            },
            Msg::ParityUpdate {
                row: 5,
                mask_wire: Bytes::from(vec![1, 2, 3]),
                uid: Uid::from_raw(42),
                from_site: 2,
                tag: 9,
            },
            Msg::SpareProbe {
                row: 4,
                want_data: true,
                tag: 10,
            },
            Msg::SpareInstall {
                row: 4,
                for_site: 1,
                data: Bytes::from(vec![7; 16]),
                content: SpareContent::Parity {
                    uids: UidArray::from_slots(vec![Uid::INVALID, Uid::from_raw(3)]),
                },
                tag: 11,
            },
            Msg::BlockRead { row: 2, tag: 12 },
            Msg::SpareDrainList {
                for_site: 0,
                tag: 13,
            },
            Msg::SpareTake { row: 1, tag: 14 },
            Msg::RestoreBlock {
                row: 0,
                data: Bytes::from(vec![5; 8]),
                content: SpareContent::Data {
                    uid: Uid::from_raw(77),
                },
                tag: 15,
            },
            Msg::ReadOk {
                tag: 16,
                data: Bytes::from(vec![1; 32]),
            },
            Msg::WriteOk { tag: 17 },
            Msg::Ack { tag: 18 },
            Msg::Nack {
                tag: 19,
                reason: NackReason::Conflict,
            },
            Msg::BlockData {
                tag: 20,
                data: Bytes::from(vec![2; 4]),
                uid: Uid::from_raw(1),
                parity_uids: Some(vec![Uid::from_raw(2)]),
            },
            Msg::SpareState {
                tag: 21,
                slot: Some(SpareSlotWire {
                    for_site: 3,
                    data: Bytes::from(vec![3; 4]),
                    content: SpareContent::Data { uid: Uid::INVALID },
                }),
            },
            Msg::SpareState {
                tag: 22,
                slot: None,
            },
            Msg::SpareRows {
                tag: 23,
                rows: vec![0, 9, 11],
            },
        ];
        for m in &msgs {
            roundtrip(m);
        }
    }

    #[test]
    fn the_split_pieces_join_to_the_encoding() {
        let msg = Msg::ParityUpdate {
            row: 5,
            mask_wire: Bytes::from(vec![1, 2, 3]),
            uid: Uid::from_raw(42),
            from_site: 2,
            tag: 9,
        };
        let (mut head, mut tail) = (vec![0xEE], Vec::new());
        let block = encode_msg_split(&msg, &mut head, &mut tail);
        assert_eq!(block, &[1, 2, 3]);
        assert_eq!(tail.len(), 8 + 4 + 8);
        assert_eq!([&head[1..], block, &tail].concat(), encode_msg_vec(&msg));
    }

    /// Every kind decodes from its three pieces with the block apart, and
    /// takes the block it is handed; a block that is not the message's is
    /// refused.
    #[test]
    fn the_split_pieces_decode_with_the_block_apart() {
        let msgs = [
            Msg::Write {
                index: 1,
                data: Bytes::from(vec![9; 64]),
                tag: 8,
            },
            Msg::ReadOk {
                tag: 16,
                data: Bytes::from(vec![1; 32]),
            },
            Msg::Ack { tag: 3 },
        ];
        for msg in &msgs {
            let (mut head, mut tail) = (Vec::new(), Vec::new());
            let block = Bytes::copy_from_slice(encode_msg_split(msg, &mut head, &mut tail));
            let at = block.as_ptr();
            let got = decode_msg_split(&head, block.clone(), &tail).unwrap();
            assert_eq!(&got, msg);
            if let Msg::Write { data, .. } | Msg::ReadOk { data, .. } = &got {
                assert_eq!(data.as_ptr(), at, "the block is taken as handed over");
            }
        }
        let (mut head, mut tail) = (Vec::new(), Vec::new());
        encode_msg_split(&msgs[0], &mut head, &mut tail);
        let short = Bytes::from(vec![9; 63]);
        assert_eq!(
            decode_msg_split(&head, short, &tail),
            Err(CodecError::Misplaced {
                field: "write data"
            })
        );
        // A block handed to a message that has none.
        let ack = encode_msg_vec(&msgs[2]);
        assert_eq!(
            decode_msg_split(&ack, Bytes::from(vec![1; 8]), &[]),
            Err(CodecError::Misplaced { field: "block" })
        );
        // The block moved into the head: its prefix is not the last field.
        let mut moved = head.clone();
        moved.push(0);
        assert!(decode_msg_split(&moved, Bytes::from(vec![9; 64]), &tail).is_err());
    }

    #[test]
    fn decoded_payload_shares_the_input_buffer() {
        let msg = Msg::Write {
            index: 0,
            data: Bytes::from(vec![0xAB; 128]),
            tag: 1,
        };
        let input = Bytes::from(encode_msg_vec(&msg));
        let Msg::Write { data, .. } = decode_msg(&input).unwrap() else {
            panic!("wrong kind");
        };
        // The shim's slice() shares the Arc; equal content proves the right
        // window, and no copy is observable through len/capacity tricks —
        // the zero-copy property is structural (Bytes::slice never copies).
        assert_eq!(&data[..], &[0xAB; 128][..]);
    }

    #[test]
    fn oversized_length_prefix_errors_before_allocating() {
        // A Write whose data length claims 4 GiB on a tiny input.
        let mut buf = vec![MsgKind::Write.index() as u8];
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0; 4]);
        let err = decode_msg(&Bytes::from(buf)).unwrap_err();
        assert!(matches!(err, CodecError::BadLength { .. }), "got {err:?}");
    }

    #[test]
    fn truncation_and_trailing_are_rejected() {
        let enc = encode_msg_vec(&Msg::Ack { tag: 5 });
        for cut in 0..enc.len() {
            let err = decode_msg(&Bytes::from(enc[..cut].to_vec())).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. } | CodecError::UnknownKind(_)
                ),
                "cut at {cut}: {err:?}"
            );
        }
        let mut padded = enc;
        padded.push(0);
        assert!(matches!(
            decode_msg(&Bytes::from(padded)).unwrap_err(),
            CodecError::Trailing { extra: 1 }
        ));
    }

    #[test]
    fn unknown_kind_and_tags_are_rejected() {
        assert_eq!(
            decode_msg(&Bytes::from(vec![0xEE])).unwrap_err(),
            CodecError::UnknownKind(0xEE)
        );
        let mut nack = vec![MsgKind::Nack.index() as u8];
        nack.extend_from_slice(&1u64.to_le_bytes());
        nack.push(99);
        assert!(matches!(
            decode_msg(&Bytes::from(nack)).unwrap_err(),
            CodecError::UnknownTag {
                what: "NackReason",
                ..
            }
        ));
    }
}
