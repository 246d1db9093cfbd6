//! Change masks — "the bits in the block which changed value" (step W3b).
//!
//! A change mask is `new XOR old`. Applying it to the old parity block (XOR)
//! performs the paper's parity-update formula (1); applying it to the old
//! data block yields the new data block, so the same mask drives both the
//! parity site and, in Section 7.4's bandwidth argument, the wire format.
//!
//! Because a DBMS typically changes a small fraction of a block (the paper's
//! example: a 100-byte record in a 4 KB block ⇒ 2.5 %), masks are mostly
//! zero. The wire encoding here is a simple span format — `(offset, len,
//! bytes)` runs of nonzero data — which captures the paper's claim that only
//! changed bits need to travel.
//!
//! Storage layout: a mask *is* its wire encoding, one [`Bytes`]:
//!
//! ```text
//! [block_len: u32 LE] [spans: u32 LE] { [offset: u32 LE] [len: u32 LE] [len bytes] }*
//! ```
//!
//! with spans in offset order, apart by at least a span header. So
//! [`encode`](ChangeMask::encode) is a reference-count clone and
//! [`decode`](ChangeMask::decode) adopts its input once it has checked it.
//! [`diff`](ChangeMask::diff) builds the encoding in one pass: a scan that
//! finds the spans a word at a time (four at a time through a run of
//! changed words), then one XOR kernel writing each span's `old ^ new`
//! straight behind its header, into a buffer sized once up front. The
//! parity site applies a mask from the wire the same way:
//! [`applied_wire`](ChangeMask::applied_wire) writes the new parity block
//! in one pass over the old one, each byte copied or `XORed` once.

use crate::xor::{xor_extend, xor_in_place};
use bytes::Bytes;

/// A sparse XOR delta between two versions of one block, held as its wire
/// encoding (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeMask {
    /// Checked on the way in ([`check`]) or built valid ([`Builder`]).
    wire: Bytes,
}

/// Per-span wire overhead: a 4-byte offset plus a 4-byte length, mirroring
/// what a compact network encoding would spend.
const SPAN_HEADER_BYTES: usize = 8;

/// The encoding's own header: block length and span count.
const HEADER_BYTES: usize = 8;

/// How much of the block [`ChangeMask::diff_within`] scans between two
/// looks at the size of the mask so far: what a dense rewrite scans past
/// its limit at most.
const WITHIN_WINDOW: usize = 1024;

/// The little-endian `u32` at `at`, if `buf` holds one there.
fn u32_at(buf: &[u8], at: usize) -> Option<usize> {
    let bytes = buf.get(at..at + 4)?;
    Some(u32::from_le_bytes(bytes.try_into().expect("4 bytes")) as usize)
}

/// Walk an encoding whole before anything uses it: `Some(block_len)` when
/// every span lies inside the block, after the end of the span before it,
/// and the last one ends where `wire` does.
fn check(wire: &[u8]) -> Option<usize> {
    let block_len = u32_at(wire, 0)?;
    let n_spans = u32_at(wire, 4)?;
    let (mut at, mut end) = (HEADER_BYTES, 0);
    for _ in 0..n_spans {
        let offset = u32_at(wire, at)?;
        let len = u32_at(wire, at + 4)?;
        wire.get(at + SPAN_HEADER_BYTES..at + SPAN_HEADER_BYTES + len)?;
        if offset < end || offset + len > block_len {
            return None;
        }
        end = offset + len;
        at += SPAN_HEADER_BYTES + len;
    }
    (at == wire.len()).then_some(block_len)
}

/// The spans of an encoding [`check`] accepted, as `(offset, bytes)`.
fn spans(wire: &[u8]) -> impl Iterator<Item = (usize, &[u8])> {
    let field = move |at| u32_at(wire, at).expect("a checked encoding");
    let mut at = HEADER_BYTES;
    (0..field(4)).map(move |_| {
        let (offset, len) = (field(at), field(at + 4));
        let bytes = &wire[at + SPAN_HEADER_BYTES..at + SPAN_HEADER_BYTES + len];
        at += SPAN_HEADER_BYTES + len;
        (offset, bytes)
    })
}

/// An 8-byte chunk as a little-endian u64.
#[inline]
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
}

/// Walk `old ^ new` and report its maximal nonzero extents to
/// `emit(start, end)`. Two nonzero bytes belong to the same extent when the
/// zero gap between them is shorter than a span header
/// ([`SPAN_HEADER_BYTES`]) — bridging is then cheaper than opening a new
/// span.
///
/// The scan works a u64 at a time (zero ⇔ unchanged), then byte by byte
/// over the `len % 8` trailing bytes. Byte positions inside one word are at
/// most 7 apart — always within the bridging threshold — so a dirty word
/// contributes a single run, and an all-zero word between two dirty ones
/// always splits them (the nonzero bytes are then at least 9 apart). Exact
/// byte boundaries are therefore only computed at run edges; the result is
/// byte-for-byte identical to a per-byte scan and — because the rule is
/// pure byte distance — independent of how the words are framed.
///
/// Words are read four at a time where they can be, 32 bytes of each
/// block: four unchanged words are skipped on one test, and a run whose
/// last word has a nonzero top byte, which takes any nonzero word next to
/// it, takes four words that each have one (keeping that true) on one test
/// too, the common case of a block rewritten whole. Anything else steps
/// one word.
#[inline]
fn scan_spans(old: &[u8], new: &[u8], mut emit: impl FnMut(usize, usize)) {
    assert_eq!(
        old.len(),
        new.len(),
        "mask operands must be the same length"
    );
    let mut run = Run::default();
    let words = old.len() / 8 * 8;
    let mut i = 0;
    while i < words {
        if i + 32 <= words {
            let (o, n) = (&old[i..i + 32], &new[i..i + 32]);
            let lane = |k: usize| word(&o[k..k + 8]) ^ word(&n[k..k + 8]);
            let d = [lane(0), lane(8), lane(16), lane(24)];
            if run.open
                && run.lw + 8 == i
                && (run.ld >> 56) != 0
                && (d[0] >> 56 != 0) & (d[1] >> 56 != 0) & (d[2] >> 56 != 0) & (d[3] >> 56 != 0)
            {
                run.lw = i + 24;
                run.ld = d[3];
                i += 32;
                continue;
            }
            if d[0] | d[1] | d[2] | d[3] == 0 {
                // Unchanged: no run takes or closes on zero words.
                i += 32;
                continue;
            }
        }
        run.word(i, word(&old[i..i + 8]) ^ word(&new[i..i + 8]), &mut emit);
        i += 8;
    }
    // (start, last) = open extent covering nonzero bytes start..=last.
    let mut span: Option<(usize, usize)> = if run.open {
        Some((
            run.start,
            run.lw + 7 - (run.ld.leading_zeros() / 8) as usize,
        ))
    } else {
        None
    };
    let tail = old[words..].iter().zip(&new[words..]);
    for (i, delta) in (words..).zip(tail.map(|(a, b)| a ^ b)) {
        if delta != 0 {
            span = match span {
                // Gap of `i - prev - 1` zero bytes: bridge when shorter
                // than a span header.
                Some((start, prev)) if i - prev <= SPAN_HEADER_BYTES => Some((start, i)),
                Some((start, prev)) => {
                    emit(start, prev + 1);
                    Some((i, i))
                }
                None => Some((i, i)),
            };
        }
    }
    if let Some((start, last)) = span {
        emit(start, last + 1);
    }
}

/// The extent a word scan has open: its exact first byte `start`, the
/// offset `lw` of its last dirty word and that word's delta `ld` (the
/// extent's exact last byte is needed only when it closes).
#[derive(Default)]
struct Run {
    open: bool,
    start: usize,
    lw: usize,
    ld: u64,
}

impl Run {
    /// Take the delta of the word at `i`, reporting the extent it closes.
    #[inline]
    fn word(&mut self, i: usize, delta: u64, emit: &mut impl FnMut(usize, usize)) {
        if delta == 0 {
            return;
        }
        // Consecutive dirty words bridge iff the zero gap straddling their
        // boundary is shorter than a span header: with `lzb` whole zero
        // bytes atop the earlier word and `tzb` below the later one, the
        // nonzero bytes are `1 + lzb + tzb` apart. The first two tests
        // short-circuit the count leaving the common case (dirty bytes
        // touching the boundary) a single compare.
        let bridges = (self.ld >> 56) != 0
            || (delta & 0xFF) != 0
            || self.ld.leading_zeros() / 8 + delta.trailing_zeros() / 8 < 8;
        if !(self.open && i == self.lw + 8 && bridges) {
            if self.open {
                emit(
                    self.start,
                    self.lw + 8 - (self.ld.leading_zeros() / 8) as usize,
                );
            }
            self.start = i + (delta.trailing_zeros() / 8) as usize;
            self.open = true;
        }
        self.lw = i;
        self.ld = delta;
    }
}

/// An encoding under construction: spans are appended in offset order and
/// the span count is filled in at the end.
struct Builder {
    out: Vec<u8>,
    spans: u32,
    /// Where the last span's length field sits, and the block offset its
    /// bytes end at.
    last: Option<(usize, usize)>,
}

impl Builder {
    /// `room` bounds the spans' bytes, headers included, so the buffer is
    /// allocated once: a window of `w` bytes yields at most `w + 8` (each
    /// span but the last is followed by at least a span header's worth of
    /// unchanged bytes), and joining spans across windows only saves.
    fn new(block_len: usize, room: usize) -> Builder {
        let mut out = Vec::with_capacity(HEADER_BYTES + room);
        out.extend_from_slice(&(block_len as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        Builder {
            out,
            spans: 0,
            last: None,
        }
    }

    /// Scan the window at `base`, which held `old` and now holds `new`,
    /// and append its spans.
    fn scan(&mut self, base: usize, old: &[u8], new: &[u8]) {
        scan_spans(old, new, |start, end| {
            self.push(base + start, &old[start..end], &new[start..end]);
        });
    }

    /// Append the span at `offset` whose bytes are `old ^ new`. A span that
    /// starts less than a span header past the previous one's end extends
    /// it over the (zero) gap: within one scan extents arrive already
    /// maximal, so this only ever joins extents of neighbouring windows.
    /// Out of line: it runs once per extent, and inlined into the scan it
    /// would crowd the scan's loop.
    #[inline(never)]
    fn push(&mut self, offset: usize, old: &[u8], new: &[u8]) {
        let len_at = match self.last {
            Some((len_at, end)) if offset - end < SPAN_HEADER_BYTES => {
                self.out.resize(self.out.len() + offset - end, 0);
                let len = u32_at(&self.out, len_at).expect("written above") + offset - end;
                self.out[len_at..len_at + 4]
                    .copy_from_slice(&((len + new.len()) as u32).to_le_bytes());
                len_at
            }
            _ => {
                self.out.extend_from_slice(&(offset as u32).to_le_bytes());
                self.out
                    .extend_from_slice(&(new.len() as u32).to_le_bytes());
                self.spans += 1;
                self.out.len() - 4
            }
        };
        xor_extend(&mut self.out, old, new);
        self.last = Some((len_at, offset + new.len()));
    }

    fn finish(mut self) -> ChangeMask {
        self.out[4..8].copy_from_slice(&self.spans.to_le_bytes());
        ChangeMask {
            wire: Bytes::from(self.out),
        }
    }
}

impl ChangeMask {
    /// Compute the mask between `old` and `new` (equal lengths required) in
    /// one fused scan: equal regions are skipped a word at a time and span
    /// payloads are `XORed` straight into the encoding — no intermediate
    /// dense block is materialised.
    pub fn diff(old: &[u8], new: &[u8]) -> ChangeMask {
        let mut mask = Builder::new(old.len(), old.len() + SPAN_HEADER_BYTES);
        mask.scan(0, old, new);
        mask.finish()
    }

    /// [`diff`](ChangeMask::diff), if its [`wire_size`](ChangeMask::wire_size)
    /// stays within `limit`; `None` as soon as the part seen so far passes
    /// it. The mask is sized before it is built, 1 KiB of the block at a
    /// time, by the scan `diff` makes and the rule by which its spans
    /// join, without writing a byte: a dense rewrite costs a scan of about
    /// `limit` bytes, not a mask half a block long.
    pub fn diff_within(old: &[u8], new: &[u8], limit: usize) -> Option<ChangeMask> {
        assert_eq!(
            old.len(),
            new.len(),
            "mask operands must be the same length"
        );
        let (mut size, mut last_end) = (0, None);
        for base in (0..old.len()).step_by(WITHIN_WINDOW) {
            let end = (base + WITHIN_WINDOW).min(old.len());
            scan_spans(&old[base..end], &new[base..end], |start, stop| {
                let (start, stop) = (base + start, base + stop);
                // What `Builder::push` adds for this extent.
                size += match last_end {
                    Some(last) if start - last < SPAN_HEADER_BYTES => stop - last,
                    _ => SPAN_HEADER_BYTES + stop - start,
                };
                last_end = Some(stop);
            });
            if size > limit {
                return None;
            }
        }
        Some(ChangeMask::diff(old, new))
    }

    /// The mask between `old` and the block that differs from it only
    /// inside `windows`: each `(offset, bytes)` says the new block holds
    /// `bytes` at `offset`. Windows come sorted by offset and do not
    /// overlap. The result is [`diff`](ChangeMask::diff)'s for the same two
    /// blocks, span for span (a short zero gap between two windows bridges
    /// exactly as one inside a window does), at the cost of scanning the
    /// windows alone: a caller that knows which fields of a large block
    /// moved need not build the new block to say how.
    pub fn from_windows(old: &[u8], windows: &[(usize, &[u8])]) -> ChangeMask {
        let room = windows
            .iter()
            .map(|(_, new)| new.len() + SPAN_HEADER_BYTES)
            .sum();
        let mut mask = Builder::new(old.len(), room);
        let mut floor = 0;
        for &(base, new) in windows {
            assert!(floor <= base, "windows must be sorted and disjoint");
            floor = base + new.len();
            mask.scan(base, &old[base..floor], new);
        }
        mask.finish()
    }

    /// An all-zero mask (no change) for a block of `block_len` bytes.
    pub fn empty(block_len: usize) -> ChangeMask {
        Builder::new(block_len, 0).finish()
    }

    /// True if the mask changes nothing.
    pub fn is_empty(&self) -> bool {
        self.wire.len() == HEADER_BYTES
    }

    /// Length of the block this mask applies to.
    pub fn block_len(&self) -> usize {
        u32_at(&self.wire, 0).expect("a checked encoding")
    }

    /// Apply the mask: `target ^= mask`. This is formula (1) when `target`
    /// is the parity block, and old→new (or new→old) when it is the data
    /// block.
    pub fn apply(&self, target: &mut [u8]) {
        assert_eq!(target.len(), self.block_len(), "mask/block length mismatch");
        for (offset, bytes) in spans(&self.wire) {
            xor_in_place(&mut target[offset..offset + bytes.len()], bytes);
        }
    }

    /// The XOR-composition of two masks over the same block: applying the
    /// merged mask equals applying `self` then `other` (XOR commutes, so
    /// order does not matter). This is what lets a parity site's sender
    /// coalesce queued updates for one row into a single wire message.
    pub fn merge(&self, other: &ChangeMask) -> ChangeMask {
        assert_eq!(
            self.block_len(),
            other.block_len(),
            "merged masks must cover the same block"
        );
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        // Densify each over the window both touch and diff the two there:
        // overlaps cancel and bridged spans re-canonicalise.
        let extent = |m: &ChangeMask| {
            let first = spans(&m.wire).next().map(|(at, _)| at);
            let last = spans(&m.wire).last().map(|(at, bytes)| at + bytes.len());
            (first.expect("not empty"), last.expect("not empty"))
        };
        let ((a_lo, a_hi), (b_lo, b_hi)) = (extent(self), extent(other));
        let (lo, hi) = (a_lo.min(b_lo), a_hi.max(b_hi));
        let dense = |m: &ChangeMask| {
            let mut window = vec![0u8; hi - lo];
            for (offset, bytes) in spans(&m.wire) {
                window[offset - lo..offset - lo + bytes.len()].copy_from_slice(bytes);
            }
            window
        };
        let mut merged = Builder::new(self.block_len(), hi - lo + SPAN_HEADER_BYTES);
        merged.scan(lo, &dense(self), &dense(other));
        merged.finish()
    }

    /// Materialise the dense XOR buffer.
    pub fn to_dense(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.block_len()];
        self.apply(&mut out);
        out
    }

    /// Bytes this mask occupies on the wire: span payloads plus per-span
    /// headers. This is the quantity Section 7.4 compares against shipping
    /// the whole block.
    pub fn wire_size(&self) -> usize {
        self.wire.len() - HEADER_BYTES
    }

    /// Wire size of the naive alternative: the full dense block.
    pub fn full_block_wire_size(&self) -> usize {
        self.block_len()
    }

    /// The mask's wire encoding, which is what it holds: a reference-count
    /// clone, no bytes copied.
    pub fn encode(&self) -> Bytes {
        self.wire.clone()
    }

    /// Apply an [`encode`]d mask straight off the wire: `target ^= mask`
    /// with the span payloads `XORed` directly from `buf` — no intermediate
    /// [`ChangeMask`] and no payload copy. Returns `None` (with `target`
    /// untouched) on malformed input or a block-length mismatch; the
    /// validation walk runs fully before the first XOR so a bad message
    /// cannot half-apply.
    ///
    /// [`encode`]: ChangeMask::encode
    pub fn apply_wire(buf: &[u8], target: &mut [u8]) -> Option<()> {
        if check(buf)? != target.len() {
            return None;
        }
        for (offset, bytes) in spans(buf) {
            xor_in_place(&mut target[offset..offset + bytes.len()], bytes);
        }
        Some(())
    }

    /// `old` with an [`encode`]d mask applied, as a new block written in
    /// one pass: the bytes between spans are copied and the spans' are
    /// `old ^ mask`, each output byte written once (no copy of `old` to
    /// XOR into afterwards). This is formula (1) at the parity site.
    /// Rejects exactly what [`apply_wire`](ChangeMask::apply_wire) rejects,
    /// checked whole before the first byte is written.
    ///
    /// [`encode`]: ChangeMask::encode
    pub fn applied_wire(buf: &[u8], old: &[u8]) -> Option<Vec<u8>> {
        if check(buf)? != old.len() {
            return None;
        }
        let mut out = Vec::with_capacity(old.len());
        for (offset, bytes) in spans(buf) {
            out.extend_from_slice(&old[out.len()..offset]);
            xor_extend(&mut out, &old[offset..offset + bytes.len()], bytes);
        }
        out.extend_from_slice(&old[out.len()..]);
        Some(out)
    }

    /// Inverse of [`encode`]: adopts `wire` (a reference-count clone) once
    /// it has checked it whole. Returns `None` on malformed input: a
    /// truncated header or span, a span outside the block or before the
    /// end of the span ahead of it, or bytes after the last span.
    ///
    /// [`encode`]: ChangeMask::encode
    pub fn decode(wire: &Bytes) -> Option<ChangeMask> {
        check(wire)?;
        Some(ChangeMask { wire: wire.clone() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xor::xor_bytes;

    fn span_count(mask: &ChangeMask) -> usize {
        spans(&mask.wire).count()
    }

    #[test]
    fn diff_then_apply_recovers_new_block() {
        let old = vec![7u8; 256];
        let mut new = old.clone();
        new[100..110].copy_from_slice(b"0123456789");
        let mask = ChangeMask::diff(&old, &new);
        let mut got = old;
        mask.apply(&mut got);
        assert_eq!(got, new);
    }

    #[test]
    fn apply_twice_is_identity() {
        let old = vec![1u8; 64];
        let new = vec![2u8; 64];
        let mask = ChangeMask::diff(&old, &new);
        let mut buf = old.clone();
        mask.apply(&mut buf);
        mask.apply(&mut buf);
        assert_eq!(buf, old);
    }

    #[test]
    fn parity_update_formula_one() {
        // parity' = parity XOR (new XOR old) keeps the stripe invariant.
        let d0_old = vec![0x11u8; 32];
        let d1 = vec![0x22u8; 32];
        let mut parity = xor_bytes(&d0_old, &d1);
        let mut d0_new = d0_old.clone();
        d0_new[5] = 0xFF;
        let mask = ChangeMask::diff(&d0_old, &d0_new);
        mask.apply(&mut parity);
        assert_eq!(parity, xor_bytes(&d0_new, &d1));
    }

    #[test]
    fn no_change_is_empty_mask() {
        let b = vec![9u8; 128];
        let mask = ChangeMask::diff(&b, &b);
        assert!(mask.is_empty());
        assert_eq!(mask.wire_size(), 0);
        assert_eq!(mask, ChangeMask::empty(128));
    }

    #[test]
    fn small_edit_has_small_wire_size() {
        // The §7.4 scenario: 100-byte record updated in a 4 KB block.
        let old = vec![0u8; 4096];
        let mut new = old.clone();
        for b in &mut new[1000..1100] {
            *b = 0xA5;
        }
        let mask = ChangeMask::diff(&old, &new);
        assert!(mask.wire_size() < 120, "wire {} too big", mask.wire_size());
        assert_eq!(mask.full_block_wire_size(), 4096);
        // ~2.5 % of the block, matching the paper's arithmetic.
        let frac = mask.wire_size() as f64 / 4096.0;
        assert!(frac < 0.03, "fraction {frac}");
    }

    #[test]
    fn bridges_tiny_gaps_between_edits() {
        let old = vec![0u8; 64];
        let mut new = old.clone();
        new[10] = 1;
        new[12] = 1; // 1-byte gap: cheaper to bridge than to open a new span
        let mask = ChangeMask::diff(&old, &new);
        assert_eq!(span_count(&mask), 1);
        assert_eq!(mask.to_dense(), xor_bytes(&old, &new));
    }

    #[test]
    fn separates_distant_edits() {
        let old = vec![0u8; 4096];
        let mut new = old.clone();
        new[0] = 1;
        new[4000] = 1;
        let mask = ChangeMask::diff(&old, &new);
        assert_eq!(span_count(&mask), 2);
        assert!(mask.wire_size() < 32);
    }

    #[test]
    fn a_full_rewrite_is_one_span_through_the_fast_path() {
        // Every top byte nonzero except one word's: the four-word stride
        // must fall back there and still make a single span.
        let old = vec![0u8; 1000];
        let mut new = vec![0xC3u8; 1000];
        new[8 * 37 + 7] = 0;
        let mask = ChangeMask::diff(&old, &new);
        assert_eq!(span_count(&mask), 1);
        assert_eq!(mask.wire_size(), 1000 + SPAN_HEADER_BYTES);
        assert_eq!(mask.to_dense(), new);
    }

    #[test]
    fn the_four_word_stride_takes_only_a_run_that_bridges() {
        // Byte 0 dirty, then 14 clean bytes: two spans, although the four
        // words after the first each have a dirty top byte.
        let old = vec![0u8; 64];
        let mut new = old.clone();
        for at in [0, 15, 23, 31, 39] {
            new[at] = 1;
        }
        let mask = ChangeMask::diff(&old, &new);
        let spans: Vec<(usize, usize)> = spans(&mask.wire).map(|(at, b)| (at, b.len())).collect();
        assert_eq!(spans, [(0, 1), (15, 25)]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let old: Vec<u8> = (0..512).map(|i| (i % 251) as u8).collect();
        let mut new = old.clone();
        new[3] = 0xFF;
        new[200..260].fill(0xEE);
        new[511] = 0x01;
        let mask = ChangeMask::diff(&old, &new);
        let wire = mask.encode();
        let back = ChangeMask::decode(&wire).unwrap();
        assert_eq!(back, mask);
        let mut buf = old;
        back.apply(&mut buf);
        assert_eq!(buf, new);
    }

    #[test]
    fn apply_wire_matches_decode_then_apply() {
        let old: Vec<u8> = (0..512).map(|i| (i * 13 % 251) as u8).collect();
        let mut new = old.clone();
        new[0] = 0x42;
        new[100..140].fill(0x77);
        new[300] = 0;
        new[511] = 0x99;
        let wire = ChangeMask::diff(&old, &new).encode();
        let mut via_decode = old.clone();
        ChangeMask::decode(&wire).unwrap().apply(&mut via_decode);
        let mut via_wire = old.clone();
        ChangeMask::apply_wire(&wire, &mut via_wire).unwrap();
        assert_eq!(via_wire, via_decode);
        assert_eq!(via_wire, new);
        assert_eq!(ChangeMask::applied_wire(&wire, &old).unwrap(), new);
    }

    /// A one-span encoding for an 8-byte block, span at `offset`, `len`.
    fn one_span(offset: u32, len: u32) -> Vec<u8> {
        let mut bad = Vec::new();
        bad.extend_from_slice(&8u32.to_le_bytes()); // block_len = 8
        bad.extend_from_slice(&1u32.to_le_bytes()); // one span
        bad.extend_from_slice(&offset.to_le_bytes());
        bad.extend_from_slice(&len.to_le_bytes());
        bad.extend_from_slice(&vec![0xAA; len as usize]);
        bad
    }

    #[test]
    fn apply_wire_rejects_what_decode_rejects() {
        let bad = one_span(6, 4); // 6 + 4 > 8
        let mut target = vec![0x55u8; 8];
        let before = target.clone();
        assert!(ChangeMask::apply_wire(&bad, &mut target).is_none());
        assert_eq!(target, before, "failed apply must leave target untouched");
        assert!(ChangeMask::applied_wire(&bad, &target).is_none());
        // Length mismatch between wire header and target.
        let wire = ChangeMask::empty(16).encode();
        assert!(ChangeMask::apply_wire(&wire, &mut target).is_none());
        assert!(ChangeMask::applied_wire(&wire, &target).is_none());
        assert!(ChangeMask::apply_wire(&[1, 2, 3], &mut target).is_none());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ChangeMask::decode(&Bytes::from(vec![1, 2, 3])).is_none());
        // Span pointing past block end.
        assert!(ChangeMask::decode(&Bytes::from(one_span(6, 4))).is_none());
        assert!(ChangeMask::decode(&Bytes::from(one_span(4, 4))).is_some());
        // Trailing junk.
        let mut trailing = ChangeMask::empty(8).encode().to_vec();
        trailing.push(0);
        assert!(ChangeMask::decode(&Bytes::from(trailing)).is_none());
        // Two spans out of order, then overlapping.
        for (first, second) in [(4u32, 0u32), (0, 1)] {
            let mut bad = Vec::new();
            bad.extend_from_slice(&8u32.to_le_bytes());
            bad.extend_from_slice(&2u32.to_le_bytes());
            for offset in [first, second] {
                bad.extend_from_slice(&offset.to_le_bytes());
                bad.extend_from_slice(&2u32.to_le_bytes());
                bad.extend_from_slice(&[0xAA; 2]);
            }
            assert!(
                ChangeMask::decode(&Bytes::from(bad)).is_none(),
                "{first} then {second}"
            );
        }
    }

    #[test]
    fn empty_mask_roundtrip() {
        let m = ChangeMask::empty(4096);
        let back = ChangeMask::decode(&m.encode()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.block_len(), 4096);
    }

    #[test]
    fn merge_equals_sequential_application() {
        let base: Vec<u8> = (0..256).map(|i| (i * 3) as u8).collect();
        let mut v1 = base.clone();
        v1[10..30].fill(0xAB);
        let mut v2 = v1.clone();
        v2[20..50].fill(0xCD); // overlaps v1's edit
        v2[200] = 0x01;
        let a = ChangeMask::diff(&base, &v1);
        let b = ChangeMask::diff(&v1, &v2);
        let merged = a.merge(&b);
        let mut seq = base.clone();
        a.apply(&mut seq);
        b.apply(&mut seq);
        let mut one = base.clone();
        merged.apply(&mut one);
        assert_eq!(one, seq);
        assert_eq!(one, v2);
        // Canonical form: merging yields the same mask as a direct diff.
        assert_eq!(merged, ChangeMask::diff(&base, &v2));
    }

    #[test]
    fn merge_cancels_reverted_edits() {
        let base = vec![0u8; 128];
        let mut edited = base.clone();
        edited[40..48].fill(0x77);
        let there = ChangeMask::diff(&base, &edited);
        let back = ChangeMask::diff(&edited, &base);
        let merged = there.merge(&back);
        assert!(merged.is_empty(), "A then A⁻¹ must cancel: {merged:?}");
    }

    /// `diff_within` is `diff` when the mask fits its limit, whatever the
    /// block length and wherever the changes fall across its windows, and
    /// `None` when it does not.
    #[test]
    fn diff_within_is_diff_or_nothing() {
        for len in [0, 7, 1000, 1024, 1031, 4096, 5000] {
            let old: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            for (at, n) in [(0, 0), (0, 3), (1020, 10), (1017, 9), (2040, 20), (0, len)] {
                let mut new = old.clone();
                for b in new.iter_mut().skip(at).take(n) {
                    *b ^= 0x5A;
                }
                let whole = ChangeMask::diff(&old, &new);
                let size = whole.wire_size();
                assert_eq!(
                    ChangeMask::diff_within(&old, &new, size),
                    Some(whole.clone())
                );
                assert_eq!(ChangeMask::diff_within(&old, &new, len + 8), Some(whole));
                if size > 0 {
                    assert_eq!(ChangeMask::diff_within(&old, &new, size - 1), None);
                }
            }
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let base = vec![1u8; 64];
        let mut new = base.clone();
        new[5] = 9;
        let m = ChangeMask::diff(&base, &new);
        let e = ChangeMask::empty(64);
        assert_eq!(m.merge(&e), m);
        assert_eq!(e.merge(&m), m);
        assert!(e.merge(&ChangeMask::empty(64)).is_empty());
    }
}
