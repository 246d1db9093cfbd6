//! TCP framing: length prefix, checksum, and the frame vocabulary.
//!
//! A TCP stream is bytes with no boundaries, so every logical message rides
//! in a frame:
//!
//! ```text
//! [len: u32 LE] [check: u64 LE] [block_at: u32 LE] [block_len: u32 LE]
//! [payload: len bytes]
//! ```
//!
//! `len` counts the payload only. `block_at` and `block_len` bound the
//! payload's *block piece*, the message's block as
//! [`radd_protocol::codec::encode_msg_split`] lays it out (empty, at the
//! payload's end, for a frame without one); a header whose piece does not
//! lie inside the payload is refused before anything else is read.
//! `check` is [`frame_check`]: the [`checksum`]s of the three pieces (the
//! fields before the block, the block, the fields after it) folded in
//! order. [`checksum`] is four independent multiply-rotate lanes over
//! 32-byte strides, folded with the length at the end (a sanity check
//! against framing bugs, truncated writes and damaged bytes, not
//! cryptographic integrity); four chains keep the multiplier busy and it
//! runs near memory speed.
//!
//! The block's own checksum is what a frame needs of the block, so it can
//! be computed once, wherever the block is first hot, and reused: the
//! decoder hands the check the block arrived under out with the message
//! ([`FrameDecoder::next_checked`]), a site keeps it beside a block it
//! stores as it came, and [`write_msg`] sends that block again under it,
//! the same frame byte for byte with no pass over the block. A block that
//! changed in memory after it arrived then fails the reader's check
//! instead of going out under a fresh one.
//!
//! The payload's first byte is a frame type:
//!
//! * `0` — [`Frame::Hello`]: the dialer announces its [`WIRE_VERSION`] and
//!   endpoint id, once, immediately after connecting. Everything either
//!   side needs to route replies follows from it. A `Hello` of another
//!   version is refused as [`FrameError::WireVersion`] (read before its
//!   check, which another version may compute otherwise) and costs the
//!   connection; builds from before the version byte refuse and are
//!   refused on the first frame as a malformed header or a bad check.
//! * `1` — [`Frame::Proto`]: one protocol [`Msg`], encoded with
//!   [`radd_protocol::codec`]. The only frame type subject to fault
//!   injection (see [`crate::proxy`]).
//! * `2`/`3` — [`Frame::CtlReq`]/[`Frame::CtlRep`]: the out-of-band control
//!   plane (`radd-cli` status/obs queries, administrative down/up), paired
//!   by a request id. Control frames bypass fault injection the same way
//!   the threaded runtime's control mpsc bypasses its lossy channels.
//!
//! [`FrameDecoder`] is incremental and hardened: bytes arrive in whatever
//! splits and coalescings the kernel chooses, length prefixes are validated
//! against [`MAX_FRAME`] *before* any buffer grows, and corrupt checksums,
//! block pieces outside the payload or unknown frame types are clean
//! errors, never panics.
//!
//! A payload is not copied on the way out and not zeroed on the way in.
//! [`write_frame`] and [`write_msg`] send a frame in its three pieces: the
//! frame header and the fields before the block in one small buffer, the
//! block as the message holds it, and the fields after it, in one vectored
//! write. [`FrameDecoder::read_from`] reads the socket straight into the
//! decoder's buffer, and the rest of a frame whose header is in into
//! unwritten capacity: a block piece of 1 KiB or more into an allocation
//! of its own, which becomes the message's block whole (a reader keeps it
//! with `Vec::from`, no copy), the rest into the buffer, which
//! [`FrameDecoder::next_payload`] hands out as the [`Bytes`] the message's
//! fields are read from (payloads under 1 KiB are copied out instead and
//! the buffer stays).

use bytes::Bytes;
use radd_protocol::codec::{decode_msg, decode_msg_split, encode_msg_split, CodecError};
use radd_protocol::Msg;
use std::fmt;
use std::io::{IoSlice, Read, Write};

/// Hard ceiling on a frame's payload. Generous next to real traffic (the
/// largest message is a block plus headers) while keeping a corrupt or
/// hostile length prefix from ballooning the receive buffer.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Bytes of frame header (`len`, `check`, `block_at`, `block_len`).
pub const FRAME_HEADER: usize = 4 + 8 + 4 + 4;

/// The wire format this build speaks, carried by every [`Frame::Hello`].
/// A change to the header, the check or the payload vocabulary is a new
/// version.
pub const WIRE_VERSION: u8 = 1;

/// Payload bytes of a [`Frame::Hello`]: type, version, endpoint id. The
/// first frame on a connection keeps this shape, and its header the
/// layout above, in every version, so that a decoder can read a peer's
/// version before anything else it might disagree with.
const HELLO_LEN: usize = 1 + 1 + 8;

const FT_HELLO: u8 = 0;
const FT_PROTO: u8 = 1;
const FT_CTL_REQ: u8 = 2;
const FT_CTL_REP: u8 = 3;

/// The most one [`FrameDecoder::read_from`] offers the socket, and how far
/// the decoder's buffer may run ahead of the first step's worth of bytes.
pub const READ_STEP: usize = 64 * 1024;

/// What a read is offered between frames, when no header says how much is
/// coming: enough for a 4 KiB block and its headers in one `read`, small
/// enough that zeroing it costs nothing next to the system call.
const IDLE_ROOM: usize = 8 * 1024;

/// Payloads shorter than this (acks, probes, sparse parity updates) are
/// copied out of the receive buffer, which costs less than giving the
/// buffer away and zeroing the next one (176 against 347 ns for an `Ack`;
/// from 4 KiB up the two cost the same and giving it away saves the copy).
/// A block piece at least this long that is still arriving when its
/// frame's header is in is read into an allocation of its own.
const COPY_BELOW: usize = 1024;

/// The `FxHash` multiplier.
const CHECK_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// Lane seeds (digits of pi). Distinct and non-zero, so a run of zero
/// words still moves every lane and no two lanes compute the same chain.
const CHECK_LANES: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

#[inline(always)]
fn check_mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(CHECK_MUL)
}

fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// The checksum of one piece of a payload: one pass, four independent
/// multiply-rotate lanes.
///
/// Word `i` of every 32-byte stride goes to lane `i`; after the strides
/// the length, the four lanes, the up to three whole words left over and
/// the up to seven bytes after them (zero-padded to a word) are folded
/// through the same step in that order. Every step is a bijection of the
/// word for a fixed state and of the state for a fixed word, so changing
/// any one word changes the result; the length keeps a zero-padded tail
/// apart from real zeros, and the ordered fold keeps lanes apart.
pub fn checksum(piece: &[u8]) -> u64 {
    let mut lanes = CHECK_LANES;
    let mut strides = piece.chunks_exact(32);
    for stride in &mut strides {
        for (lane, word) in lanes.iter_mut().zip(stride.chunks_exact(8)) {
            *lane = check_mix(*lane, le_word(word));
        }
    }
    let mut h = lanes
        .iter()
        .fold(piece.len() as u64, |h, &lane| check_mix(h, lane));
    let mut words = strides.remainder().chunks_exact(8);
    for word in &mut words {
        h = check_mix(h, le_word(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        h = check_mix(h, le_word(tail));
    }
    h
}

/// A frame's check: the [`checksum`]s of its payload's three pieces (the
/// fields before the block, the block, the fields after it) folded in that
/// order. Each piece's checksum covers its length, so the fold also pins
/// where the block starts and ends. A block's checksum is all a sender
/// needs of the block itself, which is what lets a site that kept the
/// check a block arrived with send it again without a pass over it.
pub fn frame_check(head: u64, block: u64, tail: u64) -> u64 {
    [head, block, tail].into_iter().fold(0, check_mix)
}

/// Why a byte stream failed to frame or a payload failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A length prefix exceeds [`MAX_FRAME`] — corrupt stream or attack.
    Oversized {
        /// The claimed payload length.
        claimed: u64,
    },
    /// The payload does not hash to the frame's checksum.
    BadChecksum,
    /// Empty payload, unknown frame-type byte, or a malformed body.
    Malformed(&'static str),
    /// The embedded protocol message failed to decode.
    Codec(CodecError),
    /// The peer's `Hello` names another [`WIRE_VERSION`]: it was built
    /// from another tree and frames the two exchange would not mean the
    /// same.
    WireVersion {
        /// The version the peer speaks.
        theirs: u8,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { claimed } => {
                write!(f, "frame claims {claimed} bytes (max {MAX_FRAME})")
            }
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::Codec(e) => write!(f, "protocol payload: {e}"),
            FrameError::WireVersion { theirs } => write!(
                f,
                "peer speaks wire version {theirs}, this build {WIRE_VERSION} \
                 (rebuild both ends from one tree)"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> FrameError {
        FrameError::Codec(e)
    }
}

/// Control-plane requests (`radd-cli`, deployment scripts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtlReq {
    /// Liveness probe.
    Ping,
    /// How many writes still await their parity ack.
    QueryPending,
    /// Whether no request of this site awaits an ack.
    QueryAllAcked,
    /// Administratively mark the site down (`true`) or back up.
    SetDown(bool),
    /// The site's metrics + flight-recorder snapshot, as JSON.
    QueryObsJson,
    /// Stop the server process's event loop.
    Shutdown,
    /// Believe peer `site` down (`true`) or back: while a row's parity
    /// site is believed down, the row's parity updates go to its spare.
    PeerDown {
        /// The peer's member slot in the site's group.
        site: usize,
        /// Believed down.
        down: bool,
    },
}

/// Control-plane replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtlRep {
    /// Alive (and whether currently marked down).
    Pong {
        /// Administrative down flag.
        down: bool,
    },
    /// Pending-write count.
    Pending(u64),
    /// `all_acked` verdict.
    AllAcked(bool),
    /// Command applied.
    Done,
    /// JSON-rendered [`radd_obs::MachineSnapshot`].
    ObsJson(String),
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection handshake: the dialer's endpoint id.
    Hello {
        /// Endpoint id (clients `0..ep_base`, site `j` = `ep_base + j`).
        id: u64,
    },
    /// A protocol message.
    Proto(Msg),
    /// A control request, answered by a [`Frame::CtlRep`] echoing `rid`.
    CtlReq {
        /// Request id for pairing.
        rid: u64,
        /// The request.
        req: CtlReq,
    },
    /// A control reply.
    CtlRep {
        /// Echoed request id.
        rid: u64,
        /// The reply.
        rep: CtlRep,
    },
}

/// Frame type of a raw payload without decoding it — what the fault proxy
/// uses to exempt handshake and control traffic from injection.
pub fn payload_is_proto(payload: &[u8]) -> bool {
    payload.first() == Some(&FT_PROTO)
}

/// Endpoint id of a raw `Hello` payload of this [`WIRE_VERSION`], if it is
/// one. The proxy snoops this to attribute a relayed connection to its
/// source endpoint.
pub fn payload_hello_id(payload: &[u8]) -> Option<u64> {
    match payload {
        [FT_HELLO, WIRE_VERSION, id @ ..] if id.len() == 8 => {
            Some(u64::from_le_bytes(id.try_into().ok()?))
        }
        _ => None,
    }
}

/// The version a raw `Hello` payload names, if it is one whose version is
/// not this build's.
fn foreign_hello(payload: &[u8]) -> Option<u8> {
    match payload {
        [FT_HELLO, theirs, ..] if payload.len() == HELLO_LEN && *theirs != WIRE_VERSION => {
            Some(*theirs)
        }
        _ => None,
    }
}

impl Frame {
    /// This frame's payload in [`encode_msg_split`]'s three pieces: the
    /// fields before the frame's one large field appended to `buf`, that
    /// field returned as it lies, and what follows it appended to `tail`.
    fn encode_split<'f>(&'f self, buf: &mut Vec<u8>, tail: &mut Vec<u8>) -> &'f [u8] {
        match self {
            Frame::Hello { id } => {
                buf.extend_from_slice(&[FT_HELLO, WIRE_VERSION]);
                buf.extend_from_slice(&id.to_le_bytes());
            }
            Frame::Proto(msg) => {
                buf.push(FT_PROTO);
                return encode_msg_split(msg, buf, tail);
            }
            Frame::CtlReq { rid, req } => {
                buf.push(FT_CTL_REQ);
                buf.extend_from_slice(&rid.to_le_bytes());
                match req {
                    CtlReq::Ping => buf.push(0),
                    CtlReq::QueryPending => buf.push(1),
                    CtlReq::QueryAllAcked => buf.push(2),
                    CtlReq::SetDown(d) => {
                        buf.push(3);
                        buf.push(u8::from(*d));
                    }
                    CtlReq::QueryObsJson => buf.push(4),
                    CtlReq::Shutdown => buf.push(5),
                    CtlReq::PeerDown { site, down } => {
                        buf.push(6);
                        buf.extend_from_slice(&(*site as u64).to_le_bytes());
                        buf.push(u8::from(*down));
                    }
                }
            }
            Frame::CtlRep { rid, rep } => {
                buf.push(FT_CTL_REP);
                buf.extend_from_slice(&rid.to_le_bytes());
                match rep {
                    CtlRep::Pong { down } => {
                        buf.push(0);
                        buf.push(u8::from(*down));
                    }
                    CtlRep::Pending(n) => {
                        buf.push(1);
                        buf.extend_from_slice(&n.to_le_bytes());
                    }
                    CtlRep::AllAcked(b) => {
                        buf.push(2);
                        buf.push(u8::from(*b));
                    }
                    CtlRep::Done => buf.push(3),
                    CtlRep::ObsJson(s) => {
                        buf.push(4);
                        buf.extend_from_slice(
                            &u32::try_from(s.len())
                                .expect("snapshot fits in u32")
                                .to_le_bytes(),
                        );
                        return s.as_bytes();
                    }
                }
            }
        }
        &[]
    }

    /// Decode a frame from its raw payload.
    pub fn decode(payload: &Bytes) -> Result<Frame, FrameError> {
        let Some(&ftype) = payload.first() else {
            return Err(FrameError::Malformed("empty payload"));
        };
        let body = payload.slice(1..payload.len());
        match ftype {
            FT_HELLO => match body[..] {
                [WIRE_VERSION, ref id @ ..] if id.len() == 8 => Ok(Frame::Hello {
                    id: u64::from_le_bytes(id.try_into().expect("8-byte slice")),
                }),
                [theirs, ref id @ ..] if id.len() == 8 => Err(FrameError::WireVersion { theirs }),
                _ => Err(FrameError::Malformed("hello body must be 9 bytes")),
            },
            FT_PROTO => Ok(Frame::Proto(decode_msg(&body)?)),
            FT_CTL_REQ => {
                let (rid, rest) = split_rid(&body)?;
                let req = match rest {
                    [0] => CtlReq::Ping,
                    [1] => CtlReq::QueryPending,
                    [2] => CtlReq::QueryAllAcked,
                    [3, d @ (0 | 1)] => CtlReq::SetDown(*d == 1),
                    [4] => CtlReq::QueryObsJson,
                    [5] => CtlReq::Shutdown,
                    [6, site @ .., d @ (0 | 1)] if site.len() == 8 => CtlReq::PeerDown {
                        site: u64::from_le_bytes(site.try_into().expect("8 bytes")) as usize,
                        down: *d == 1,
                    },
                    _ => return Err(FrameError::Malformed("bad control request body")),
                };
                Ok(Frame::CtlReq { rid, req })
            }
            FT_CTL_REP => {
                let (rid, rest) = split_rid(&body)?;
                let rep = match rest {
                    [0, d @ (0 | 1)] => CtlRep::Pong { down: *d == 1 },
                    [1, n @ ..] if n.len() == 8 => {
                        CtlRep::Pending(u64::from_le_bytes(n.try_into().expect("8 bytes")))
                    }
                    [2, b @ (0 | 1)] => CtlRep::AllAcked(*b == 1),
                    [3] => CtlRep::Done,
                    [4, rest @ ..] if rest.len() >= 4 => {
                        let len =
                            u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
                        if rest.len() - 4 != len {
                            return Err(FrameError::Malformed("obs json length mismatch"));
                        }
                        let s = std::str::from_utf8(&rest[4..])
                            .map_err(|_| FrameError::Malformed("obs json is not utf-8"))?;
                        CtlRep::ObsJson(s.to_string())
                    }
                    _ => return Err(FrameError::Malformed("bad control reply body")),
                };
                Ok(Frame::CtlRep { rid, rep })
            }
            _ => Err(FrameError::Malformed("unknown frame type")),
        }
    }
}

fn split_rid(body: &[u8]) -> Result<(u64, &[u8]), FrameError> {
    if body.len() < 8 {
        return Err(FrameError::Malformed("control body shorter than rid"));
    }
    let rid = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    Ok((rid, &body[8..]))
}

/// Send one frame as its pieces lie: `head` starts with [`FRAME_HEADER`]
/// bytes to fill in and then the payload's first piece, and `block` and
/// `tail` are the rest. The header's length, check and block bounds are
/// taken over the pieces, the block's checksum from `block_check` when the
/// caller knows it, and the frame goes out in one vectored write, which a
/// socket takes whole in the common case; a short write resumes where it
/// stopped and an interrupted one is retried, as `write_all` does.
fn write_pieces(
    w: &mut impl Write,
    head: &mut [u8],
    block: &[u8],
    tail: &[u8],
    block_check: Option<u64>,
) -> std::io::Result<()> {
    let at = head.len() - FRAME_HEADER;
    let len = at + block.len() + tail.len();
    assert!(len <= MAX_FRAME, "oversized outbound frame");
    let check = frame_check(
        checksum(&head[FRAME_HEADER..]),
        block_check.unwrap_or_else(|| checksum(block)),
        checksum(tail),
    );
    head[..4].copy_from_slice(&(len as u32).to_le_bytes());
    head[4..12].copy_from_slice(&check.to_le_bytes());
    head[12..16].copy_from_slice(&(at as u32).to_le_bytes());
    head[16..FRAME_HEADER].copy_from_slice(&(block.len() as u32).to_le_bytes());
    let mut pieces = [IoSlice::new(head), IoSlice::new(block), IoSlice::new(tail)];
    let mut pieces = &mut pieces[..];
    IoSlice::advance_slices(&mut pieces, 0);
    while !pieces.is_empty() {
        match w.write_vectored(pieces) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(sent) => IoSlice::advance_slices(&mut pieces, sent),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write one frame (header + `payload`) to `w` without joining the two in
/// a buffer first. The frame names an empty block at the payload's start,
/// so the whole payload is the piece after it.
pub fn write_frame_payload(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    write_pieces(w, &mut [0; FRAME_HEADER], &[], payload, None)
}

/// Encode and write one [`Frame`]: the header and the fields around the
/// frame's block in two small buffers, the block as it lies, one vectored
/// write (the decoder tolerates any split regardless).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let (mut head, mut tail) = (Vec::with_capacity(64), Vec::new());
    head.extend_from_slice(&[0; FRAME_HEADER]);
    let block = frame.encode_split(&mut head, &mut tail);
    write_pieces(w, &mut head, block, &tail, None)
}

/// [`write_frame`] of a [`Frame::Proto`] for a borrowed message.
/// `block_check`, when given, is taken for the [`checksum`] of the
/// message's block instead of computing it: the frame is the same, byte
/// for byte, if it is right, and the receiver refuses it with
/// [`FrameError::BadChecksum`] if it is not.
pub fn write_msg(w: &mut impl Write, msg: &Msg, block_check: Option<u64>) -> std::io::Result<()> {
    let (mut head, mut tail) = (Vec::with_capacity(64), Vec::new());
    head.extend_from_slice(&[0; FRAME_HEADER]);
    head.push(FT_PROTO);
    let block = encode_msg_split(msg, &mut head, &mut tail);
    write_pieces(w, &mut head, block, &tail, block_check)
}

/// Where the pieces of the frame at the front of a [`FrameDecoder`] lie,
/// in bytes from the start of its header.
#[derive(Debug, Clone, Copy)]
struct Shape {
    check: u64,
    /// End of the fields before the block: where the block starts.
    head_end: usize,
    block_end: usize,
    frame_end: usize,
}

impl Shape {
    fn block_len(&self) -> usize {
        self.block_end - self.head_end
    }

    /// Whether a block still arriving is read apart.
    fn apart(&self) -> bool {
        self.block_len() >= COPY_BELOW
    }
}

/// A verified frame's payload as the decoder hands it out.
struct Pieces {
    /// The payload, or, when its block was read apart, the payload without
    /// the block.
    fields: Bytes,
    /// The block, when it was read apart.
    apart: Option<Bytes>,
    /// Where the block piece starts in the payload, and its length.
    at: usize,
    len: usize,
    /// The block piece's [`checksum`].
    block_check: u64,
}

impl Pieces {
    /// Where the fields after the block start in `fields`.
    fn tail_at(&self) -> usize {
        match self.apart {
            Some(_) => self.at,
            None => self.at + self.len,
        }
    }

    /// The payload in one buffer; joining a block read apart copies.
    fn payload(self) -> Bytes {
        match &self.apart {
            None => self.fields,
            Some(block) => {
                let mut joined = Vec::with_capacity(self.fields.len() + block.len());
                joined.extend_from_slice(&self.fields[..self.at]);
                joined.extend_from_slice(block);
                joined.extend_from_slice(&self.fields[self.tail_at()..]);
                Bytes::from(joined)
            }
        }
    }

    /// The frame, and for a protocol message that carries a block piece the
    /// block's check (the block piece is then the message's block, or the
    /// frame is refused).
    fn frame(self) -> Result<(Frame, Option<u64>), FrameError> {
        if self.len == 0 || self.at == 0 || self.fields.first() != Some(&FT_PROTO) {
            return Ok((Frame::decode(&self.payload())?, None));
        }
        let tail = &self.fields[self.tail_at()..];
        let block = self
            .apart
            .unwrap_or_else(|| self.fields.slice(self.at..self.at + self.len));
        let msg = decode_msg_split(&self.fields[1..self.at], block, tail)?;
        Ok((Frame::Proto(msg), Some(self.block_check)))
    }
}

/// Make `buf`'s capacity reach `end`, with `filled` bytes in it: one exact
/// step while no more than a step has arrived; past that, double what has
/// (never beyond `frame_end`), so a frame near `MAX_FRAME` reallocates 8
/// times and not 256.
fn make_room(buf: &mut Vec<u8>, filled: usize, end: usize, frame_end: usize) {
    if buf.capacity() < end {
        let grown = if filled > READ_STEP {
            (filled * 2).clamp(end, frame_end)
        } else {
            end
        };
        buf.truncate(filled);
        buf.reserve_exact(grown - filled);
    }
}

/// Read up to `room` bytes from `r` into `buf`'s capacity past `filled`,
/// which nothing zeroes first, growing it toward `frame_end` as
/// [`make_room`] does. Bytes read before an error are kept.
fn read_into(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    filled: usize,
    room: usize,
    frame_end: usize,
) -> std::io::Result<usize> {
    let room = room.min(READ_STEP);
    buf.truncate(filled);
    make_room(buf, filled, filled + room, frame_end);
    r.by_ref().take(room as u64).read_to_end(buf)
}

/// Incremental frame decoder over an arbitrary byte stream.
///
/// Give it bytes, by [`read_from`](FrameDecoder::read_from) straight off a
/// socket or by [`feed`](FrameDecoder::feed) from a buffer the caller
/// filled, in any split or coalescing of frames, and pull complete
/// payloads out. A header is checked as soon as it is in (a length past
/// [`MAX_FRAME`], a block piece outside the payload), and `read_from`
/// allocates in proportion to what has arrived, never to what a header
/// claims: at most [`READ_STEP`] bytes ahead until a step's worth is in,
/// at most double after. A header that claims `MAX_FRAME` and then goes
/// silent costs one step, not 16 MiB. (`feed` grows as a `Vec` does, by
/// what the caller already holds.)
///
/// A block piece of 1 KiB or more that is still arriving once its header
/// is in is read apart: into an allocation of its own, which the decoded
/// message's block then is, whole and with no other owner, so a reader can
/// keep it (`Vec::from`) without a copy. The few bytes of fields after it
/// come in with its last read and are moved back beside the fields before
/// it.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// `buf[..filled]` is what has arrived, less a block read apart;
    /// anything beyond is initialised room for the next read between
    /// frames.
    buf: Vec<u8>,
    filled: usize,
    /// The front frame's block, read apart, with the fields after it while
    /// they come in with the block's last read.
    block: Option<Vec<u8>>,
}

impl FrameDecoder {
    /// A fresh decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Bytes the decoder holds allocated (the bound above is on this).
    pub fn capacity(&self) -> usize {
        self.buf.capacity() + self.block.as_ref().map_or(0, Vec::capacity)
    }

    /// Append newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.truncate(self.filled);
        self.buf.extend_from_slice(bytes);
        self.filled = self.buf.len();
    }

    /// Read from `r` into the decoder's own buffers; returns how many bytes
    /// arrived (0 is end of stream). Between frames this is one `read`
    /// offered a few KiB of initialised room, which takes a small frame
    /// whole. Once a frame's header is in, the rest of the frame (up to a
    /// step of it) is read into unzeroed capacity until it is in or the
    /// reader stops: a block read apart into its own allocation (with what
    /// of it the first read took moved there), the rest past what has
    /// arrived in the buffer, where a frame ends exactly at the end of its
    /// buffer and the next one starts a new one. Bytes read before an error
    /// (a read timeout mid-frame) are kept.
    pub fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        // Between frames, or an error `next_payload` reports.
        let Ok(Some(s)) = self.shape() else {
            return self.read_idle(r);
        };
        let apart = s.apart() && self.filled >= s.head_end;
        if apart && !self.complete(&s) {
            self.gather(&s);
        }
        if self.complete(&s) {
            return self.read_idle(r);
        }
        if apart {
            let block = self.block.get_or_insert_with(Vec::new);
            let (got, want) = (block.len(), s.frame_end - s.head_end);
            if got < s.block_len() {
                let read = read_into(r, block, got, want - got, want);
                // The fields after the block came with it: back beside the
                // fields before it.
                if block.len() > s.block_len() {
                    self.buf.truncate(self.filled);
                    self.buf.extend_from_slice(&block[s.block_len()..]);
                    self.filled = self.buf.len();
                    block.truncate(s.block_len());
                }
                return read;
            }
        }
        let end = match (apart, s.apart()) {
            (true, _) => s.frame_end - s.block_len(),
            (false, true) => s.head_end,
            (false, false) => s.frame_end,
        };
        let read = read_into(r, &mut self.buf, self.filled, end - self.filled, end);
        self.filled = self.buf.len();
        read
    }

    /// One `read` between frames, offered [`IDLE_ROOM`] of initialised
    /// room.
    fn read_idle(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        let end = self.filled + IDLE_ROOM;
        make_room(&mut self.buf, self.filled, end, end);
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        let n = r.read(&mut self.buf[self.filled..end])?;
        self.filled += n;
        Ok(n)
    }

    /// Move what of the front frame's block arrived in the buffer into the
    /// block's own allocation, and what came after it back to where the
    /// block started.
    fn gather(&mut self, s: &Shape) {
        let want = s.frame_end - s.head_end;
        let block = self.block.get_or_insert_with(Vec::new);
        let take = (s.block_len() - block.len()).min(self.filled - s.head_end);
        if take > 0 {
            let got = block.len();
            make_room(block, got, got + (want - got).min(READ_STEP), want);
            block.extend_from_slice(&self.buf[s.head_end..s.head_end + take]);
            self.buf
                .copy_within(s.head_end + take..self.filled, s.head_end);
            self.filled -= take;
        }
    }

    /// Whether all of the front frame is in.
    fn complete(&self, s: &Shape) -> bool {
        match &self.block {
            Some(block) => {
                block.len() == s.block_len() && self.filled >= s.frame_end - s.block_len()
            }
            None => self.filled >= s.frame_end,
        }
    }

    /// The pieces of the frame at the front of the buffer, once its header
    /// is in and has passed the [`MAX_FRAME`] and block-bounds checks.
    fn shape(&self) -> Result<Option<Shape>, FrameError> {
        if self.filled < FRAME_HEADER {
            return Ok(None);
        }
        let word = |at: usize| {
            u32::from_le_bytes(self.buf[at..at + 4].try_into().expect("4 bytes")) as usize
        };
        let len = word(0);
        if len > MAX_FRAME {
            return Err(FrameError::Oversized {
                claimed: len as u64,
            });
        }
        let (at, block) = (word(12), word(16));
        if at > len || block > len - at {
            return Err(FrameError::Malformed("block piece outside the payload"));
        }
        Ok(Some(Shape {
            check: u64::from_le_bytes(self.buf[4..12].try_into().expect("8 bytes")),
            head_end: FRAME_HEADER + at,
            block_end: FRAME_HEADER + at + block,
            frame_end: FRAME_HEADER + len,
        }))
    }

    /// Take the front frame out once it is whole and its check holds.
    ///
    /// A payload of 1 KiB or more is a view of the receive buffer itself,
    /// which the decoder gives up: bytes of a following frame that had
    /// already arrived move to a new buffer, the frame's are not copied.
    /// With at most one frame in flight per connection there are none,
    /// since `read_from` stops at the frame's end once the header is in;
    /// frames queued back to back do spill, up to the 8 KiB an idle read
    /// is offered. A smaller payload (and the fields around a block read
    /// apart) is copied out and the buffer stays.
    fn pop(&mut self) -> Result<Option<Pieces>, FrameError> {
        let s = match self.shape()? {
            Some(s) if self.complete(&s) => s,
            _ => return Ok(None),
        };
        let apart = self.block.take();
        let end = s.frame_end - apart.as_ref().map_or(0, Vec::len);
        let payload = &self.buf[FRAME_HEADER..end];
        if let Some(theirs) = foreign_hello(payload) {
            return Err(FrameError::WireVersion { theirs });
        }
        let (at, len) = (s.head_end - FRAME_HEADER, s.block_len());
        let (block, tail) = match &apart {
            Some(block) => (&block[..], &payload[at..]),
            None => (&payload[at..at + len], &payload[at + len..]),
        };
        let block_check = checksum(block);
        if frame_check(checksum(&payload[..at]), block_check, checksum(tail)) != s.check {
            return Err(FrameError::BadChecksum);
        }
        let fields = if end - FRAME_HEADER < COPY_BELOW {
            let fields = Bytes::copy_from_slice(payload);
            self.buf.copy_within(end..self.filled, 0);
            self.filled -= end;
            fields
        } else {
            self.buf.truncate(self.filled);
            let rest = self.buf.split_off(end);
            self.filled = rest.len();
            let mut frame = std::mem::replace(&mut self.buf, rest);
            // A message that keeps its block keeps this allocation.
            frame.shrink_to_fit();
            Bytes::from(frame).slice(FRAME_HEADER..end)
        };
        Ok(Some(Pieces {
            fields,
            apart: apart.map(Bytes::from),
            at,
            len,
            block_check,
        }))
    }

    /// The next complete, checksum-verified payload, if one is buffered.
    /// After an error the stream is unrecoverable (framing is lost) — the
    /// caller must drop the connection. A payload whose block was read
    /// apart is joined here, which copies: the endpoints take frames with
    /// [`next_checked`](FrameDecoder::next_checked), which does not.
    pub fn next_payload(&mut self) -> Result<Option<Bytes>, FrameError> {
        Ok(self.pop()?.map(Pieces::payload))
    }

    /// The next complete [`Frame`], if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        Ok(self.next_checked()?.map(|(frame, _)| frame))
    }

    /// The next complete [`Frame`], if one is buffered, and, when it is a
    /// protocol message that carries a block, the block's [`checksum`]:
    /// what the receiver verified the block against, which a site that
    /// stores the block as it arrived can send it again under.
    pub fn next_checked(&mut self) -> Result<Option<(Frame, Option<u64>)>, FrameError> {
        match self.pop()? {
            Some(pieces) => Ok(Some(pieces.frame()?)),
            None => Ok(None),
        }
    }
}

/// Blocking frame reader over a [`Read`]. Returns `Ok(None)` on clean EOF
/// *between* frames; EOF mid-frame is an error (the peer died mid-write).
///
/// `_scratch` is unused since the decoder reads into its own buffer; the
/// parameter stays because `benchmark/` calls this function and may not
/// change in the same PR (ROADMAP item 2).
pub fn read_frame(
    r: &mut impl Read,
    dec: &mut FrameDecoder,
    _scratch: &mut [u8],
) -> Result<Option<Frame>, std::io::Error> {
    loop {
        if let Some(f) = dec
            .next_frame()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
        {
            return Ok(Some(f));
        }
        if dec.read_from(r)? == 0 {
            return if dec.filled == 0 && dec.block.is_none() {
                Ok(None)
            } else {
                Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_the_decoder() {
        let frames = vec![
            Frame::Hello { id: 42 },
            Frame::Proto(Msg::Read { index: 3, tag: 9 }),
            Frame::CtlReq {
                rid: 1,
                req: CtlReq::SetDown(true),
            },
            Frame::CtlReq {
                rid: 3,
                req: CtlReq::PeerDown {
                    site: 5,
                    down: true,
                },
            },
            Frame::CtlRep {
                rid: 1,
                rep: CtlRep::ObsJson("{\"x\":1}".to_string()),
            },
            Frame::CtlRep {
                rid: 2,
                rep: CtlRep::Pending(17),
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        // Feed one byte at a time: worst-case splitting.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &wire {
            dec.feed(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn oversized_prefix_is_rejected_before_buffering() {
        let mut dec = FrameDecoder::new();
        let mut head = vec![];
        head.extend_from_slice(&(u32::MAX).to_le_bytes());
        head.extend_from_slice(&[0; FRAME_HEADER - 4]);
        dec.feed(&head);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn corrupted_checksum_is_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Hello { id: 7 }).unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_frame(), Err(FrameError::BadChecksum));
    }

    /// Takes at most `step` bytes a call, and is interrupted before each.
    struct Dribble {
        step: usize,
        interrupt: bool,
        got: Vec<u8>,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.step);
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_payload_survives_short_and_interrupted_writes() {
        let payload: Vec<u8> = (0..40u8).collect();
        let mut whole = Vec::new();
        write_frame_payload(&mut whole, &payload).unwrap();
        assert_eq!(whole[FRAME_HEADER..], payload[..]);
        // Short of the header, at it, and into the payload.
        for step in 1..=FRAME_HEADER + 3 {
            let mut w = Dribble {
                step,
                interrupt: false,
                got: Vec::new(),
            };
            write_frame_payload(&mut w, &payload).unwrap();
            assert_eq!(w.got, whole, "{step} bytes a write");
        }
    }

    /// A frame of many steps: the buffer at most doubles what has arrived
    /// (so it is reallocated a handful of times) and ends at the frame's
    /// end.
    #[test]
    fn a_large_frame_grows_the_buffer_geometrically() {
        let payload = vec![0xA5u8; 40 * READ_STEP];
        let mut wire = Vec::new();
        write_frame_payload(&mut wire, &payload).unwrap();
        let mut dec = FrameDecoder::new();
        let mut socket = &wire[..];
        let mut grew = 0;
        loop {
            let before = dec.capacity();
            if dec.read_from(&mut socket).unwrap() == 0 {
                break;
            }
            grew += usize::from(dec.capacity() != before);
            assert!(dec.capacity() <= (dec.filled + READ_STEP).max(2 * dec.filled));
            assert!(dec.capacity() <= wire.len().max(IDLE_ROOM));
        }
        assert!(grew <= 9, "{grew} reallocations");
        assert_eq!(dec.next_payload().unwrap().unwrap()[..], payload[..]);
    }

    /// `Hello`'s bytes, pinned: a change here is a change of
    /// [`WIRE_VERSION`], and the first frame must keep this shape in every
    /// version for a peer's version to be readable at all.
    #[test]
    fn hello_is_pinned_byte_for_byte() {
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Frame::Hello {
                id: 0x0102_0304_0506_0708,
            },
        )
        .unwrap();
        let check = frame_check(
            checksum(&wire[FRAME_HEADER..]),
            checksum(&[]),
            checksum(&[]),
        );
        #[rustfmt::skip]
        let pinned: [u8; FRAME_HEADER + HELLO_LEN] = [
            10, 0, 0, 0,                              // payload length
            0x91, 0xc9, 0xee, 0xcc, 0x48, 0xf5, 0x1d, 0xd2, // check
            10, 0, 0, 0,                              // block at: after the payload
            0, 0, 0, 0,                               // block length: none
            FT_HELLO, 1,                              // type, wire version
            8, 7, 6, 5, 4, 3, 2, 1,                   // endpoint id
        ];
        assert_eq!(wire, pinned, "check {check:#018x}");
        assert_eq!(u64::from_le_bytes(pinned[4..12].try_into().unwrap()), check);
    }

    /// A `Hello` of another version is refused by name, before its check
    /// (which another version may compute differently) is looked at.
    #[test]
    fn a_hello_of_another_version_is_refused_by_name() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Hello { id: 3 }).unwrap();
        wire[FRAME_HEADER + 1] = WIRE_VERSION + 1;
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::WireVersion {
                theirs: WIRE_VERSION + 1
            })
        );
        let payload = Bytes::from(wire[FRAME_HEADER..].to_vec());
        assert_eq!(payload_hello_id(&payload), None);
        assert_eq!(
            Frame::decode(&payload),
            Err(FrameError::WireVersion {
                theirs: WIRE_VERSION + 1
            })
        );
    }

    #[test]
    fn proxy_snoops_classify_payloads() {
        let payload_of = |frame: &Frame| {
            let mut wire = Vec::new();
            write_frame(&mut wire, frame).unwrap();
            wire.split_off(FRAME_HEADER)
        };
        let hello = payload_of(&Frame::Hello { id: 5 });
        let proto = payload_of(&Frame::Proto(Msg::Ack { tag: 1 }));
        assert_eq!(payload_hello_id(&hello), Some(5));
        assert!(!payload_is_proto(&hello));
        assert!(payload_is_proto(&proto));
        assert_eq!(payload_hello_id(&proto), None);
    }
}
