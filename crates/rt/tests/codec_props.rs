//! Property tests of the wire codec: every frame kind roundtrips through
//! the incremental decoder under arbitrary kernel-chosen read splits, a
//! block's kept check sends the frame a fresh one does, and malformed
//! input — truncated frames, oversized length prefixes, block pieces
//! outside the payload, corrupted checksums, outright garbage — produces
//! clean errors, never a panic and never an allocation driven by
//! attacker-controlled lengths.
//!
//! And one step past the codec: a well-framed message whose fields do not
//! fit the receiving site (a row, index or site out of range, a mask or a
//! UID array of the wrong shape) is refused by the site, never a panic.
//! The message strategies draw such fields as often as fitting ones.

use bytes::Bytes;
use proptest::prelude::*;
use proptest::strategy::Union;
use radd_parity::{ChangeMask, Uid, UidArray};
use radd_protocol::wire::{Msg, NackReason, SpareContent, SpareSlotWire};
use radd_protocol::{decode_msg, encode_msg_split, encode_msg_vec, MemBlocks, SiteMachine};
use radd_rt::frame::{
    checksum, frame_check, write_frame, write_msg, CtlRep, CtlReq, Frame, FrameDecoder, FrameError,
    FRAME_HEADER, MAX_FRAME, READ_STEP,
};
use std::io::{ErrorKind, IoSlice, Read, Write};

// ---------------------------------------------------------------------
// strategies: every message and frame kind
// ---------------------------------------------------------------------

fn arb_bytes(max: usize) -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

/// The geometry of the site [`a_site_refuses_what_does_not_fit_and_never_panics`]
/// feeds: `G + 2` sites of `ROWS` rows of `BLOCK`-byte blocks. The
/// strategies below draw rows, indexes, sites, blocks, masks and UID arrays
/// that fit it about as often as ones that do not.
const G: usize = 2;
const ROWS: u64 = 12;
const BLOCK: usize = 16;

fn arb_uid() -> impl Strategy<Value = Uid> {
    any::<u64>().prop_map(Uid::from_raw)
}

/// A row or data index: near the geometry, or anywhere.
fn arb_row() -> impl Strategy<Value = u64> {
    prop_oneof![0..ROWS + 4, any::<u64>()]
}

/// A site index: one of the group's or a neighbour's, or any `u32`.
fn arb_site() -> impl Strategy<Value = usize> {
    prop_oneof![0..G + 4, any::<u32>().prop_map(|s| s as usize)]
}

/// A block payload: `BLOCK` bytes, or any other length, now and then one
/// long enough to be read apart from its frame.
fn arb_block() -> impl Strategy<Value = Bytes> {
    prop_oneof![
        4 => proptest::collection::vec(any::<u8>(), BLOCK).prop_map(Bytes::from),
        4 => arb_bytes(64),
        1 => arb_bytes(3 * 1024),
    ]
}

/// A change mask: a well-formed one for a block of `BLOCK` or another
/// length, or any bytes.
fn arb_mask() -> impl Strategy<Value = Bytes> {
    let well_formed = (prop_oneof![Just(BLOCK), 0usize..40], any::<u64>())
        .prop_map(|(len, seed)| ChangeMask::diff(&vec![0; len], &noise(len, seed)).encode());
    prop_oneof![well_formed, arb_bytes(64)]
}

/// A UID array of `G + 2` slots, or of any length up to twice that.
fn arb_uids() -> impl Strategy<Value = Vec<Uid>> {
    proptest::collection::vec(arb_uid(), 0..2 * (G + 2))
}

fn arb_content() -> impl Strategy<Value = SpareContent> {
    prop_oneof![
        arb_uid().prop_map(|uid| SpareContent::Data { uid }),
        arb_uids().prop_map(|uids| SpareContent::Parity {
            uids: UidArray::from_slots(uids)
        }),
    ]
}

fn arb_nack_reason() -> impl Strategy<Value = NackReason> {
    prop_oneof![
        Just(NackReason::Down),
        Just(NackReason::OutOfRange),
        Just(NackReason::BadSize),
        Just(NackReason::Unavailable),
        Just(NackReason::Conflict),
    ]
}

fn arb_slot() -> impl Strategy<Value = Option<SpareSlotWire>> {
    prop_oneof![
        Just(None::<SpareSlotWire>),
        (arb_site(), arb_block(), arb_content()).prop_map(|(for_site, data, content)| {
            Some(SpareSlotWire {
                for_site,
                data,
                content,
            })
        }),
    ]
}

/// One arm per [`Msg`] variant — adding a wire variant without extending
/// this union fails the coverage check in `every_msg_kind_is_generated`.
fn arb_msg() -> impl Strategy<Value = Msg> {
    Union::new(vec![
        (
            1,
            Union::arm((arb_row(), any::<u64>()).prop_map(|(index, tag)| Msg::Read { index, tag })),
        ),
        (
            1,
            Union::arm(
                (arb_row(), arb_block(), any::<u64>()).prop_map(|(index, data, tag)| Msg::Write {
                    index,
                    data,
                    tag,
                }),
            ),
        ),
        (
            1,
            Union::arm(
                (arb_row(), arb_mask(), arb_uid(), arb_site(), any::<u64>()).prop_map(
                    |(row, mask_wire, uid, from_site, tag)| Msg::ParityUpdate {
                        row,
                        mask_wire,
                        uid,
                        from_site,
                        tag,
                    },
                ),
            ),
        ),
        (
            1,
            Union::arm((arb_row(), any::<bool>(), any::<u64>()).prop_map(
                |(row, want_data, tag)| Msg::SpareProbe {
                    row,
                    want_data,
                    tag,
                },
            )),
        ),
        (
            1,
            Union::arm(
                (
                    arb_row(),
                    arb_site(),
                    arb_block(),
                    arb_content(),
                    any::<u64>(),
                )
                    .prop_map(|(row, for_site, data, content, tag)| {
                        Msg::SpareInstall {
                            row,
                            for_site,
                            data,
                            content,
                            tag,
                        }
                    }),
            ),
        ),
        (
            1,
            Union::arm(
                (arb_row(), any::<u64>()).prop_map(|(row, tag)| Msg::BlockRead { row, tag }),
            ),
        ),
        (
            1,
            Union::arm(
                (arb_site(), any::<u64>())
                    .prop_map(|(for_site, tag)| Msg::SpareDrainList { for_site, tag }),
            ),
        ),
        (
            1,
            Union::arm(
                (arb_row(), any::<u64>()).prop_map(|(row, tag)| Msg::SpareTake { row, tag }),
            ),
        ),
        (
            1,
            Union::arm(
                (arb_row(), arb_block(), arb_content(), any::<u64>()).prop_map(
                    |(row, data, content, tag)| Msg::RestoreBlock {
                        row,
                        data,
                        content,
                        tag,
                    },
                ),
            ),
        ),
        (
            1,
            Union::arm(
                (any::<u64>(), arb_bytes(64)).prop_map(|(tag, data)| Msg::ReadOk { tag, data }),
            ),
        ),
        (
            1,
            Union::arm(any::<u64>().prop_map(|tag| Msg::WriteOk { tag })),
        ),
        (1, Union::arm(any::<u64>().prop_map(|tag| Msg::Ack { tag }))),
        (
            1,
            Union::arm(
                (any::<u64>(), arb_nack_reason())
                    .prop_map(|(tag, reason)| Msg::Nack { tag, reason }),
            ),
        ),
        (
            1,
            Union::arm(
                (
                    any::<u64>(),
                    arb_bytes(64),
                    arb_uid(),
                    prop_oneof![Just(None::<Vec<Uid>>), arb_uids().prop_map(Some),],
                )
                    .prop_map(|(tag, data, uid, parity_uids)| Msg::BlockData {
                        tag,
                        data,
                        uid,
                        parity_uids,
                    }),
            ),
        ),
        (
            1,
            Union::arm(
                (any::<u64>(), arb_slot()).prop_map(|(tag, slot)| Msg::SpareState { tag, slot }),
            ),
        ),
        (
            1,
            Union::arm(
                (any::<u64>(), proptest::collection::vec(any::<u64>(), 0..12))
                    .prop_map(|(tag, rows)| Msg::SpareRows { tag, rows }),
            ),
        ),
    ])
}

fn arb_ctl_req() -> impl Strategy<Value = CtlReq> {
    prop_oneof![
        Just(CtlReq::Ping),
        Just(CtlReq::QueryPending),
        Just(CtlReq::QueryAllAcked),
        any::<bool>().prop_map(CtlReq::SetDown),
        Just(CtlReq::QueryObsJson),
        Just(CtlReq::Shutdown),
        (0usize..64, any::<bool>()).prop_map(|(site, down)| CtlReq::PeerDown { site, down }),
    ]
}

fn arb_ctl_rep() -> impl Strategy<Value = CtlRep> {
    prop_oneof![
        any::<bool>().prop_map(|down| CtlRep::Pong { down }),
        any::<u64>().prop_map(CtlRep::Pending),
        any::<bool>().prop_map(CtlRep::AllAcked),
        Just(CtlRep::Done),
        proptest::collection::vec(0x20u8..0x7F, 0..64)
            .prop_map(|v| CtlRep::ObsJson(String::from_utf8(v).expect("printable ASCII"))),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        any::<u64>().prop_map(|id| Frame::Hello { id }),
        arb_msg().prop_map(Frame::Proto),
        (any::<u64>(), arb_ctl_req()).prop_map(|(rid, req)| Frame::CtlReq { rid, req }),
        (any::<u64>(), arb_ctl_rep()).prop_map(|(rid, rep)| Frame::CtlRep { rid, rep }),
    ]
}

/// Encode a frame stream to raw wire bytes.
fn to_wire(frames: &[Frame]) -> Vec<u8> {
    let mut wire = Vec::new();
    for f in frames {
        write_frame(&mut wire, f).expect("Vec write");
    }
    wire
}

/// A socket with a read timeout whose peer wrote `wire` in pieces of the
/// sizes in `cuts` (cycled): a read takes what is left of the current
/// piece, or as much of it as the reader offers room for, and between
/// pieces there is nothing yet (`WouldBlock`, the read timing out).
struct Pieces<'a> {
    wire: &'a [u8],
    cuts: std::iter::Cycle<std::slice::Iter<'a, usize>>,
    /// What of the current piece has not been read yet.
    left: usize,
}

impl<'a> Pieces<'a> {
    fn new(wire: &'a [u8], cuts: &'a [usize]) -> Pieces<'a> {
        Pieces {
            wire,
            cuts: cuts.iter().cycle(),
            left: 0,
        }
    }
}

impl Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.left == 0 && !self.wire.is_empty() {
            self.left = self.cuts.next().copied().unwrap_or(1).max(1);
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = self.left.min(buf.len()).min(self.wire.len());
        let (chunk, rest) = self.wire.split_at(n);
        buf[..n].copy_from_slice(chunk);
        self.wire = rest;
        self.left -= n;
        Ok(n)
    }
}

/// One `read_from` as a reader thread makes it: bytes in, `true`; the
/// stream ended, `false`; nothing yet (`WouldBlock`) is neither, and the
/// reader simply reads again.
fn read_more(dec: &mut FrameDecoder, socket: &mut Pieces) -> bool {
    match dec.read_from(socket) {
        Ok(n) => n > 0,
        Err(e) => {
            assert_eq!(e.kind(), ErrorKind::WouldBlock, "Pieces only ever blocks");
            true
        }
    }
}

/// Drive a decoder over `wire` delivered in the pieces dictated by `cuts`
/// through `read_from`, decoding as bytes arrive — exactly what a site's
/// reader thread sees from the kernel.
fn decode(wire: &[u8], cuts: &[usize]) -> Result<Vec<Frame>, FrameError> {
    let mut socket = Pieces::new(wire, cuts);
    let mut dec = FrameDecoder::new();
    let mut got = Vec::new();
    loop {
        while let Some(f) = dec.next_frame()? {
            got.push(f);
        }
        if !read_more(&mut dec, &mut socket) {
            return Ok(got);
        }
    }
}

/// A decoder that has read all of `wire`, written in one piece, and
/// decoded nothing yet.
fn read_whole(wire: &[u8]) -> FrameDecoder {
    let whole = [wire.len()];
    let mut socket = Pieces::new(wire, &whole);
    let mut dec = FrameDecoder::new();
    while read_more(&mut dec, &mut socket) {}
    dec
}

fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = proptest::TestRng::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

// ---------------------------------------------------------------------
// the checksum: what it must tell apart
// ---------------------------------------------------------------------

/// Every length from nothing to three strides: no stride, whole strides,
/// one to three tail words, one to seven tail bytes, and every mix.
#[test]
fn checksum_tells_short_payloads_from_every_near_neighbour() {
    for len in 0..=96usize {
        let data = noise(len, len as u64);
        let base = checksum(&data);
        for bit in 0..len * 8 {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&flipped), base, "length {len}, bit {bit}");
        }
        for keep in 0..len {
            assert_ne!(checksum(&data[..keep]), base, "{len} cut to {keep}");
        }
        let mut padded = data.clone();
        for extra in 1..=40 {
            padded.push(0);
            assert_ne!(checksum(&padded), base, "{len} plus {extra} zeros");
        }
    }
    // All-zero payloads are each other's truncations and zero-extensions.
    let zeros: Vec<u64> = (0..=96).map(|len| checksum(&vec![0u8; len])).collect();
    let distinct: std::collections::BTreeSet<u64> = zeros.iter().copied().collect();
    assert_eq!(distinct.len(), zeros.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checksum_sees_any_bit_flip_truncation_or_zero_extension(
        len in 1usize..128 * 1024,
        seed in any::<u64>(),
        at in any::<usize>(),
        extra in 1usize..100,
    ) {
        let data = noise(len, seed);
        let base = checksum(&data);
        let mut flipped = data.clone();
        flipped[at % len] ^= 1 << (at % 8);
        prop_assert_ne!(checksum(&flipped), base, "bit flip at byte {}", at % len);
        prop_assert_ne!(checksum(&data[..at % len]), base, "cut to {}", at % len);
        let mut padded = data;
        padded.resize(len + extra, 0);
        prop_assert_ne!(checksum(&padded), base, "{} zeros appended", extra);
    }

    /// Word `i` of a stride feeds lane `i % 4`: a swap within one lane
    /// reorders that lane's chain, a swap across lanes moves a word from
    /// one chain to another, and either must show.
    #[test]
    fn checksum_sees_two_words_swapped_within_or_across_lanes(
        words in 2usize..16 * 1024,
        seed in any::<u64>(),
        a in any::<usize>(),
        b in any::<usize>(),
        same_lane in any::<bool>(),
    ) {
        let mut data = noise(words * 8, seed);
        let a = a % words;
        let mut b = b % words;
        if same_lane {
            b = (b - b % 4 + a % 4) % words;
        }
        let (wa, wb) = (a * 8..a * 8 + 8, b * 8..b * 8 + 8);
        prop_assume!(data[wa.clone()] != data[wb.clone()]);
        let base = checksum(&data);
        let word_a = data[wa.clone()].to_vec();
        data.copy_within(wb.clone(), wa.start);
        data[wb].copy_from_slice(&word_a);
        prop_assert_ne!(checksum(&data), base, "words {} and {} swapped", a, b);
    }
}

/// A message's three pieces as [`encode_msg_split`] lays them out behind
/// frame type 1, and the frame they make: what any writer of the message
/// must send.
fn framed(msg: &Msg) -> Vec<u8> {
    let (mut head, mut tail) = (vec![1u8], Vec::new());
    let block = encode_msg_split(msg, &mut head, &mut tail);
    let check = frame_check(checksum(&head), checksum(block), checksum(&tail));
    let mut want = Vec::new();
    let len = head.len() + block.len() + tail.len();
    want.extend_from_slice(&(len as u32).to_le_bytes());
    want.extend_from_slice(&check.to_le_bytes());
    want.extend_from_slice(&(head.len() as u32).to_le_bytes());
    want.extend_from_slice(&(block.len() as u32).to_le_bytes());
    for piece in [&head[..], block, &tail] {
        want.extend_from_slice(piece);
    }
    want
}

/// The block a message carries, if any.
fn block_of(msg: &Msg) -> Bytes {
    let (mut head, mut tail) = (Vec::new(), Vec::new());
    Bytes::copy_from_slice(encode_msg_split(msg, &mut head, &mut tail))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A block's kept check sends the frame a fresh check does, byte for
    /// byte, for every kind of message; the frame decodes to the message
    /// with the block's check beside it.
    #[test]
    fn a_kept_block_check_sends_the_same_bytes(msg in arb_msg()) {
        let block = block_of(&msg);
        let (mut fresh, mut kept) = (Vec::new(), Vec::new());
        write_msg(&mut fresh, &msg, None).expect("Vec write");
        write_msg(&mut kept, &msg, Some(checksum(&block))).expect("Vec write");
        prop_assert_eq!(&kept, &fresh);
        let mut dec = read_whole(&kept);
        let (frame, check) = dec.next_checked().expect("a valid frame").expect("whole");
        prop_assert_eq!(frame, Frame::Proto(msg));
        prop_assert_eq!(check, (!block.is_empty()).then(|| checksum(&block)));
    }

    /// A kept check that is not the block's makes a frame the receiver
    /// refuses: it never delivers the block, read whole or in pieces.
    #[test]
    fn a_wrong_kept_check_is_refused_and_delivers_nothing(
        data in arb_bytes(4 * 1024),
        wrong in any::<u64>(),
    ) {
        prop_assume!(wrong != checksum(&data));
        let msg = Msg::ReadOk { tag: 3, data };
        let mut wire = Vec::new();
        write_msg(&mut wire, &msg, Some(wrong)).expect("Vec write");
        prop_assert_eq!(read_whole(&wire).next_checked(), Err(FrameError::BadChecksum));
        prop_assert_eq!(decode(&wire, &[1000]), Err(FrameError::BadChecksum));
    }
}

/// Takes at most `step` bytes a call across whatever slices it is offered,
/// and is interrupted before every other call.
struct Dribble {
    step: usize,
    interrupt: bool,
    got: Vec<u8>,
}

impl Write for Dribble {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        self.interrupt = !self.interrupt;
        if self.interrupt {
            return Err(ErrorKind::Interrupted.into());
        }
        let before = self.got.len();
        for buf in bufs {
            let n = buf.len().min(self.step - (self.got.len() - before));
            self.got.extend_from_slice(&buf[..n]);
        }
        Ok(self.got.len() - before)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// What `write_msg` sends for any message is `encode_msg`'s bytes
    /// behind frame type 1 (`Frame::Proto`) and the header that bounds the
    /// block and checks the three pieces, byte for byte: into a `Vec`,
    /// through `write_frame`, and through a writer that takes a few bytes
    /// at a time and is interrupted between.
    #[test]
    fn write_msg_sends_the_encoding_behind_a_frame_header(
        msg in arb_msg(),
        step in 1usize..64,
    ) {
        let want = framed(&msg);
        let mut payload = vec![1u8];
        payload.extend_from_slice(&encode_msg_vec(&msg));
        prop_assert_eq!(&want[FRAME_HEADER..], &payload[..]);
        let mut whole = Vec::new();
        write_msg(&mut whole, &msg, None).expect("Vec write");
        prop_assert_eq!(&whole, &want);
        let mut framed = Vec::new();
        write_frame(&mut framed, &Frame::Proto(msg.clone())).expect("Vec write");
        prop_assert_eq!(&framed, &want);
        let mut dribble = Dribble { step, interrupt: false, got: Vec::new() };
        write_msg(&mut dribble, &msg, None).expect("a dribbling writer takes it all");
        prop_assert_eq!(&dribble.got, &want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A read that stops mid-frame with `WouldBlock` keeps the bytes it
    /// read: retried after every such error, `read_from` yields the frames
    /// an uninterrupted stream does, large frames included.
    #[test]
    fn a_read_that_would_block_mid_frame_keeps_what_arrived(
        frames in proptest::collection::vec(arb_frame(), 1..4),
        block in arb_bytes(70 * 1024),
        cuts in proptest::collection::vec(1usize..20_000, 1..6),
    ) {
        let mut frames = frames;
        frames.push(Frame::Proto(Msg::ReadOk { tag: 7, data: block }));
        let wire = to_wire(&frames);
        prop_assert_eq!(decode(&wire, &cuts).expect("valid stream"), frames);
    }
}

/// A header that claims [`MAX_FRAME`] and then silence: the decoder may
/// offer the socket one step of room, never the claimed 16 MiB, whether the
/// claim is fields (read into the buffer) or a block (read apart, beside
/// the few KiB the buffer was offered between frames).
#[test]
fn a_max_frame_header_then_silence_allocates_one_step() {
    for (block, bound) in [
        (0, READ_STEP + FRAME_HEADER),
        (MAX_FRAME, READ_STEP + 8 * 1024),
    ] {
        let mut head = Vec::with_capacity(FRAME_HEADER);
        head.extend_from_slice(&(MAX_FRAME as u32).to_le_bytes());
        head.extend_from_slice(&0u64.to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes());
        head.extend_from_slice(&(block as u32).to_le_bytes());
        let mut dec = FrameDecoder::new();
        let mut socket = &head[..];
        assert_eq!(dec.read_from(&mut socket).expect("header"), FRAME_HEADER);
        for _ in 0..4 {
            assert_eq!(dec.next_payload(), Ok(None));
            assert_eq!(dec.read_from(&mut socket).expect("silence"), 0);
            assert!(
                dec.capacity() <= bound,
                "capacity {} after a {MAX_FRAME}-byte claim, block {block}",
                dec.capacity()
            );
        }
    }
}

/// A decoded 64 KiB block read off a socket is its own allocation, of
/// exactly the block's length and with no other owner, and `Vec::from`
/// adopts it: the reader keeps the block without copying it.
#[test]
fn a_block_read_apart_is_adopted_without_a_copy() {
    let data = Bytes::from(vec![0x5Au8; 64 * 1024]);
    let mut wire = Vec::new();
    write_msg(
        &mut wire,
        &Msg::ReadOk {
            tag: 1,
            data: data.clone(),
        },
        None,
    )
    .expect("Vec write");
    let frame = decode(&wire, &[8 * 1024])
        .expect("a valid frame")
        .pop()
        .expect("one frame");
    let Frame::Proto(Msg::ReadOk { data: got, .. }) = frame else {
        panic!("a ReadOk was sent");
    };
    assert_eq!(got, data);
    assert_eq!(got.len(), 64 * 1024);
    assert!(got.is_unique(), "the decoder kept no handle on the block");
    let at = got.as_ptr();
    let kept = Vec::from(got);
    assert_eq!(kept.as_ptr(), at, "adopted, not copied");
    assert_eq!(
        kept.capacity(),
        64 * 1024,
        "an allocation of exactly the block"
    );
}

// ---------------------------------------------------------------------
// roundtrip under arbitrary read splits, hardening against malformation
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any stream of frames, any chunking: the decoder reproduces the
    /// stream exactly, and the result does not depend on the chunking.
    #[test]
    fn frames_roundtrip_under_any_read_split(
        frames in proptest::collection::vec(arb_frame(), 1..6),
        cuts in proptest::collection::vec(1usize..96, 1..8),
    ) {
        let wire = to_wire(&frames);
        let split = decode(&wire, &cuts).expect("valid stream");
        prop_assert_eq!(&split, &frames, "split decode diverged");
        // One coalesced read (the kernel handing everything at once)
        // decodes to the identical sequence.
        let coalesced = decode(&wire, &[wire.len()]).expect("valid stream");
        prop_assert_eq!(&coalesced, &frames, "coalesced decode diverged");
    }

    /// The same with blocks: a socket that returns random chunk sizes yields
    /// the frames that were written. Blocks up to 12 KiB put frames on both sides of the copy-out
    /// threshold and past the room a read is offered between frames, and
    /// the three kinds they ride in have no fields, a few and a few dozen
    /// after the block, which a block read apart takes in with it.
    #[test]
    fn frames_roundtrip_through_read_from_under_any_chunking(
        frames in proptest::collection::vec(arb_frame(), 1..6),
        blocks in proptest::collection::vec(arb_bytes(12 * 1024), 0..4),
        cuts in proptest::collection::vec(1usize..12_000, 1..8),
    ) {
        let mut frames = frames;
        for (i, data) in blocks.into_iter().enumerate() {
            let at = i.min(frames.len());
            let tag = i as u64;
            let msg = match i % 3 {
                0 => Msg::ReadOk { tag, data },
                1 => Msg::Write { index: 4, data, tag },
                _ => Msg::BlockData {
                    tag,
                    data,
                    uid: Uid::from_raw(9),
                    parity_uids: Some(vec![Uid::from_raw(5); G + 2]),
                },
            };
            frames.insert(at, Frame::Proto(msg));
        }
        let wire = to_wire(&frames);
        let read = decode(&wire, &cuts).expect("valid stream");
        prop_assert_eq!(&read, &frames, "read_from decode diverged");
    }

    /// A truncated stream never errors and never fabricates the missing
    /// frame: every complete prefix frame decodes, then the decoder waits.
    #[test]
    fn truncation_yields_a_clean_wait_not_an_error(
        frames in proptest::collection::vec(arb_frame(), 1..4),
        keep_fraction in 0.0f64..1.0,
    ) {
        let wire = to_wire(&frames);
        let keep = ((wire.len() as f64) * keep_fraction) as usize;
        let mut dec = read_whole(&wire[..keep]);
        let mut got = Vec::new();
        loop {
            match dec.next_frame() {
                Ok(Some(f)) => got.push(f),
                Ok(None) => break, // waiting for the rest — the only legal end
                Err(e) => panic!("truncated stream errored: {e}"),
            }
        }
        prop_assert!(got.len() <= frames.len());
        prop_assert_eq!(&got[..], &frames[..got.len()], "prefix decode diverged");
    }

    /// A length prefix beyond [`MAX_FRAME`] is rejected as soon as the
    /// header is readable — before any payload is buffered, so a hostile
    /// 4 GiB claim cannot balloon memory.
    #[test]
    fn oversized_length_prefix_is_rejected_from_the_header_alone(
        claimed in (MAX_FRAME as u64 + 1)..=u64::from(u32::MAX),
        check in any::<u64>(),
    ) {
        let mut head = Vec::with_capacity(FRAME_HEADER);
        head.extend_from_slice(&(claimed as u32).to_le_bytes());
        head.extend_from_slice(&check.to_le_bytes());
        head.extend_from_slice(&[0; 8]);
        let mut dec = read_whole(&head);
        prop_assert_eq!(dec.next_frame(), Err(FrameError::Oversized { claimed }));
    }

    /// Any block bounds in a header, on any frame: bounds outside the
    /// payload are refused from the header alone, read whole or in pieces,
    /// and bounds inside it that are not the writer's fail the
    /// check; only the writer's own decode. Never a panic.
    #[test]
    fn hostile_block_bounds_are_refused_from_the_header(
        frame in arb_frame(),
        block in arb_bytes(3 * 1024),
        at in prop_oneof![any::<u32>(), 0u32..4 * 1024],
        len in prop_oneof![any::<u32>(), 0u32..4 * 1024],
        cuts in proptest::collection::vec(1usize..2_000, 1..4),
    ) {
        let frames = [frame, Frame::Proto(Msg::ReadOk { tag: 2, data: block })];
        for frame in frames {
            let mut wire = to_wire(std::slice::from_ref(&frame));
            let honest = wire[12..FRAME_HEADER].to_vec();
            wire[12..16].copy_from_slice(&at.to_le_bytes());
            wire[16..FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
            let payload = (wire.len() - FRAME_HEADER) as u64;
            let outside = u64::from(at) + u64::from(len) > payload;
            let whole = decode(&wire, &[wire.len()]);
            let read = decode(&wire, &cuts);
            if outside {
                let refused = Err(FrameError::Malformed("block piece outside the payload"));
                prop_assert_eq!(&whole, &refused);
                prop_assert_eq!(&read, &refused);
            } else if wire[12..FRAME_HEADER] == honest[..] {
                prop_assert_eq!(&read, &Ok(vec![frame.clone()]));
            } else if let Ok(got) = &read {
                // Other bounds cut other pieces: only a block that happens
                // to hash alike gets through, and then it decodes the same.
                prop_assert!(got.is_empty() || got == &vec![frame.clone()]);
            }
            prop_assert_eq!(whole.is_ok(), read.is_ok());
        }
    }

    /// Corrupting the checksum field always surfaces as `BadChecksum`.
    #[test]
    fn corrupted_checksum_is_always_detected(
        frame in arb_frame(),
        flip in proptest::collection::vec(any::<u8>(), 8),
    ) {
        let mut wire = to_wire(std::slice::from_ref(&frame));
        let mut changed = false;
        for (i, f) in flip.iter().enumerate() {
            wire[4 + i] ^= f;
            changed |= *f != 0;
        }
        prop_assume!(changed);
        prop_assert_eq!(read_whole(&wire).next_frame(), Err(FrameError::BadChecksum));
    }

    /// Flipping any single byte of a valid frame never decodes back to the
    /// original frame and never panics: the checksum catches payload
    /// damage; header damage yields a clean wait (length shrank) or error.
    #[test]
    fn single_byte_corruption_never_reproduces_the_frame(
        frame in arb_frame(),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut wire = to_wire(std::slice::from_ref(&frame));
        let pos = pos_seed % wire.len();
        wire[pos] ^= xor;
        let mut dec = read_whole(&wire);
        // `Ok(None)` (a clean wait: the length shrank) and `Err` (a clean
        // rejection) are both fine; only a silent wrong decode is a bug.
        if let Ok(Some(got)) = dec.next_frame() {
            prop_assert_ne!(got, frame, "corruption went unnoticed");
        }
    }

    /// Arbitrary garbage read in arbitrary chunks: the decoder returns
    /// frames, waits, or errors — it never panics.
    #[test]
    fn garbage_streams_never_panic(
        junk in proptest::collection::vec(any::<u8>(), 0..256),
        cuts in proptest::collection::vec(1usize..64, 1..6),
    ) {
        let _ = decode(&junk, &cuts); // Ok or Err both fine; no panic
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever decodes reaches the site machine, from whichever peer:
    /// fields that do not fit the geometry are refused on the wire, and
    /// nothing a message carries can make the machine panic.
    #[test]
    fn a_site_refuses_what_does_not_fit_and_never_panics(
        site in 0..G + 2,
        msgs in proptest::collection::vec((0usize..G + 4, arb_msg()), 1..24),
    ) {
        let mut machine = SiteMachine::new(site, G, ROWS, BLOCK);
        let mut blocks = MemBlocks::new(ROWS, BLOCK);
        let mut out = Vec::new();
        for (src, msg) in msgs {
            let msg = decode_msg(&Bytes::from(encode_msg_vec(&msg))).expect("every Msg decodes");
            machine.handle(&mut blocks, src, msg, &mut out);
        }
    }
}

/// A parity UID array has one slot per site: an install or a restore that
/// carries a shorter or a longer one is refused, so no later update can
/// index past it. (Too rare a sequence for the property above to find.)
#[test]
fn a_uid_array_without_one_slot_per_site_is_refused() {
    let geo = radd_layout::Geometry::new(G, ROWS).expect("geometry");
    let row = 0;
    let mut machine = SiteMachine::new(geo.spare_site(row), G, ROWS, BLOCK);
    let mut blocks = MemBlocks::new(ROWS, BLOCK);
    for (tag, len) in [(1, G + 1), (3, G + 3)] {
        let content = SpareContent::Parity {
            uids: UidArray::new(len),
        };
        let data = Bytes::from(vec![0; BLOCK]);
        let install = Msg::SpareInstall {
            row,
            for_site: geo.parity_site(row),
            data: data.clone(),
            content: content.clone(),
            tag,
        };
        let restore = Msg::RestoreBlock {
            row,
            data,
            content,
            tag: tag + 1,
        };
        for msg in [install, restore] {
            let tag = msg.tag();
            let mut out = Vec::new();
            machine.handle(&mut blocks, 0, msg, &mut out);
            let refusal = Msg::Nack {
                tag,
                reason: NackReason::BadSize,
            };
            assert!(
                matches!(&out[..], [radd_protocol::Effect::Send { msg, .. }] if *msg == refusal),
                "{out:?}"
            );
        }
    }
    assert!(machine.spares().is_empty() && machine.parity_uids().is_empty());
}

/// The `arb_msg` union covers every [`radd_protocol::MsgKind`]; if a wire
/// variant is added without extending the strategy, this fails rather than
/// silently shrinking codec coverage.
#[test]
fn every_msg_kind_is_generated() {
    use proptest::strategy::Strategy as _;
    use radd_protocol::MsgKind;
    let strategy = arb_msg();
    let mut rng = proptest::TestRng::new(0xC0DEC);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..4096 {
        seen.insert(strategy.sample(&mut rng).kind());
        if seen.len() == MsgKind::COUNT {
            return;
        }
    }
    let missing: Vec<MsgKind> = MsgKind::ALL
        .iter()
        .copied()
        .filter(|k| !seen.contains(k))
        .collect();
    panic!("strategy never produced: {missing:?}");
}
