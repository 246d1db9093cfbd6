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
//! Storage layout: all span payloads live concatenated in **one** buffer
//! (`payload`), with spans recording only `(offset, len)`. `diff` finds the
//! spans in a single fused scan of `old`/`new` (no intermediate dense
//! block), and `decode` fills the shared buffer instead of allocating one
//! `Vec` per span — both previously the dominant allocations on the healthy
//! write path.

use crate::xor::xor_in_place;
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// A sparse XOR delta between two versions of one block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChangeMask {
    block_len: usize,
    /// Nonzero spans of the dense mask, sorted by offset, non-adjacent.
    spans: Vec<Span>,
    /// All span bytes, concatenated in span order.
    payload: Vec<u8>,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Span {
    offset: usize,
    len: usize,
}

/// Per-span wire overhead: a 4-byte offset plus a 4-byte length, mirroring
/// what a compact network encoding would spend.
const SPAN_HEADER_BYTES: usize = 8;

/// Walk `0..len` and report maximal nonzero extents to `emit(start, end)`.
/// Two nonzero bytes belong to the same extent when the zero gap between
/// them is shorter than a span header ([`SPAN_HEADER_BYTES`]) — bridging is
/// then cheaper than opening a new span.
///
/// The scan works a u64 at a time: `words` yields the delta bytes as
/// little-endian words (zero ⇔ unchanged), `tail` the `len % 8` trailing
/// delta bytes. Byte positions inside one word are at most 7 apart —
/// always within the bridging threshold — so a dirty word contributes a
/// single run, and an all-zero word between two dirty ones always splits
/// them (the nonzero bytes are then at least 9 apart). Exact byte
/// boundaries are therefore only computed at run edges; the result is
/// byte-for-byte identical to a per-byte scan and — because the rule is
/// pure byte distance — independent of how the words are framed.
#[inline]
fn scan_spans(
    words: impl Iterator<Item = u64>,
    tail: impl Iterator<Item = u8>,
    mut emit: impl FnMut(usize, usize),
) {
    // Consecutive dirty words bridge iff the zero gap straddling their
    // boundary is shorter than a span header: with `lzb` whole zero bytes
    // atop the earlier word and `tzb` below the later one, the nonzero
    // bytes are `1 + lzb + tzb` apart. The first two tests short-circuit
    // the count leaving the common case (dirty bytes touching the
    // boundary) a single compare.
    let bridges = |ld: u64, delta: u64| {
        (ld >> 56) != 0
            || (delta & 0xFF) != 0
            || ld.leading_zeros() / 8 + delta.trailing_zeros() / 8 < 8
    };
    // Open extent as (exact first byte `start`, offset of last dirty word
    // `lw`, its delta `ld`): the extent's exact last byte is needed only
    // when it closes. Plain locals keep the hot extend path — consecutive
    // dirty words — a pair of register moves.
    let mut open = false;
    let (mut start, mut lw, mut ld) = (0usize, 0usize, 0u64);
    let mut i = 0;
    for delta in words {
        if delta != 0 {
            if !(open && i == lw + 8 && bridges(ld, delta)) {
                if open {
                    emit(start, lw + 8 - (ld.leading_zeros() / 8) as usize);
                }
                start = i + (delta.trailing_zeros() / 8) as usize;
                open = true;
            }
            lw = i;
            ld = delta;
        }
        i += 8;
    }
    // (start, last) = open extent covering nonzero bytes start..=last.
    let mut span: Option<(usize, usize)> = if open {
        Some((start, lw + 7 - (ld.leading_zeros() / 8) as usize))
    } else {
        None
    };
    for delta in tail {
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
        i += 1;
    }
    if let Some((start, last)) = span {
        emit(start, last + 1);
    }
}

/// An 8-byte chunk as a little-endian u64.
#[inline]
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
}

impl ChangeMask {
    /// Compute the mask between `old` and `new` (equal lengths required) in
    /// one fused scan: equal regions are skipped a word at a time and span
    /// payloads are `XORed` straight into the mask's buffer — no intermediate
    /// dense block is materialised.
    pub fn diff(old: &[u8], new: &[u8]) -> ChangeMask {
        assert_eq!(
            old.len(),
            new.len(),
            "mask operands must be the same length"
        );
        Self::from_windows(old, &[(0, new)])
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
        let mut mask = ChangeMask::empty(old.len());
        let mut floor = 0;
        for &(base, new) in windows {
            assert!(floor <= base, "windows must be sorted and disjoint");
            floor = base + new.len();
            let was = &old[base..floor];
            let (ow, nw) = (was.chunks_exact(8), new.chunks_exact(8));
            let tail = ow
                .remainder()
                .iter()
                .zip(nw.remainder())
                .map(|(a, b)| a ^ b);
            scan_spans(
                ow.clone().zip(nw.clone()).map(|(a, b)| word(a) ^ word(b)),
                tail,
                |start, end| mask.push_diff_span(base + start, &was[start..end], &new[start..end]),
            );
        }
        mask
    }

    /// Build from a dense XOR buffer, extracting nonzero spans. Adjacent
    /// nonzero bytes coalesce; zero gaps shorter than a span header are
    /// absorbed when bridging them is cheaper than a new span header.
    pub fn from_dense(dense: &[u8]) -> ChangeMask {
        Self::from_dense_region(dense, 0, dense.len())
    }

    /// [`from_dense`](ChangeMask::from_dense) over a window: `dense` holds
    /// the mask bytes for block positions `base..base + dense.len()` of a
    /// block `block_len` long; everything outside the window is zero.
    fn from_dense_region(dense: &[u8], base: usize, block_len: usize) -> ChangeMask {
        debug_assert!(base + dense.len() <= block_len);
        let mut mask = ChangeMask::empty(block_len);
        let chunks = dense.chunks_exact(8);
        scan_spans(
            chunks.clone().map(word),
            chunks.remainder().iter().copied(),
            |start, end| {
                mask.payload.extend_from_slice(&dense[start..end]);
                mask.spans.push(Span {
                    offset: base + start,
                    len: end - start,
                });
            },
        );
        mask
    }

    /// Append the span at `offset` whose payload is `old XOR new`, computed
    /// directly into the shared buffer. A span that starts less than a span
    /// header past the previous one extends it over the (zero) gap: within
    /// one scan extents arrive already maximal, so this only ever joins
    /// extents of neighbouring windows.
    fn push_diff_span(&mut self, offset: usize, old: &[u8], new: &[u8]) {
        match self.spans.last_mut() {
            Some(last) if offset - (last.offset + last.len) < SPAN_HEADER_BYTES => {
                let gap = offset - (last.offset + last.len);
                self.payload.resize(self.payload.len() + gap, 0);
                last.len += gap + new.len();
            }
            _ => self.spans.push(Span {
                offset,
                len: new.len(),
            }),
        }
        let at = self.payload.len();
        self.payload.extend_from_slice(new);
        xor_in_place(&mut self.payload[at..], old);
    }

    /// An all-zero mask (no change) for a block of `block_len` bytes.
    pub fn empty(block_len: usize) -> ChangeMask {
        ChangeMask {
            block_len,
            spans: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// True if the mask changes nothing.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Length of the block this mask applies to.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Apply the mask: `target ^= mask`. This is formula (1) when `target`
    /// is the parity block, and old→new (or new→old) when it is the data
    /// block.
    pub fn apply(&self, target: &mut [u8]) {
        assert_eq!(target.len(), self.block_len, "mask/block length mismatch");
        let mut at = 0;
        for span in &self.spans {
            xor_in_place(
                &mut target[span.offset..span.offset + span.len],
                &self.payload[at..at + span.len],
            );
            at += span.len;
        }
    }

    /// The XOR-composition of two masks over the same block: applying the
    /// merged mask equals applying `self` then `other` (XOR commutes, so
    /// order does not matter). This is what lets a parity site's sender
    /// coalesce queued updates for one row into a single wire message.
    pub fn merge(&self, other: &ChangeMask) -> ChangeMask {
        assert_eq!(
            self.block_len, other.block_len,
            "merged masks must cover the same block"
        );
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        // Densify only the window both masks touch, XOR them there, and
        // rescan — overlaps cancel and bridged spans re-canonicalise.
        let lo = self.spans[0].offset.min(other.spans[0].offset);
        let hi = self
            .spans
            .last()
            .map(|s| s.offset + s.len)
            .unwrap()
            .max(other.spans.last().map(|s| s.offset + s.len).unwrap());
        let mut dense = vec![0u8; hi - lo];
        for m in [self, other] {
            let mut at = 0;
            for span in &m.spans {
                let base = span.offset - lo;
                xor_in_place(
                    &mut dense[base..base + span.len],
                    &m.payload[at..at + span.len],
                );
                at += span.len;
            }
        }
        Self::from_dense_region(&dense, lo, self.block_len)
    }

    /// Materialise the dense XOR buffer.
    pub fn to_dense(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.block_len];
        self.apply(&mut out);
        out
    }

    /// Bytes this mask occupies on the wire: span payloads plus per-span
    /// headers. This is the quantity Section 7.4 compares against shipping
    /// the whole block.
    pub fn wire_size(&self) -> usize {
        self.payload.len() + self.spans.len() * SPAN_HEADER_BYTES
    }

    /// Wire size of the naive alternative: the full dense block.
    pub fn full_block_wire_size(&self) -> usize {
        self.block_len
    }

    /// Serialise to a compact byte representation (used by the simulated
    /// network to charge realistic message sizes).
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(8 + self.wire_size());
        out.extend_from_slice(&(self.block_len as u32).to_le_bytes());
        out.extend_from_slice(&(self.spans.len() as u32).to_le_bytes());
        let mut at = 0;
        for s in &self.spans {
            out.extend_from_slice(&(s.offset as u32).to_le_bytes());
            out.extend_from_slice(&(s.len as u32).to_le_bytes());
            out.extend_from_slice(&self.payload[at..at + s.len]);
            at += s.len;
        }
        Bytes::from(out)
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
        let read_u32 = |b: &[u8], at: usize| -> Option<u32> {
            b.get(at..at + 4)
                .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
        };
        let block_len = read_u32(buf, 0)? as usize;
        if target.len() != block_len {
            return None;
        }
        let n_spans = read_u32(buf, 4)? as usize;
        let mut at = 8;
        for _ in 0..n_spans {
            let offset = read_u32(buf, at)? as usize;
            let len = read_u32(buf, at + 4)? as usize;
            buf.get(at + 8..at + 8 + len)?;
            if offset + len > block_len {
                return None;
            }
            at += 8 + len;
        }
        if at != buf.len() {
            return None;
        }
        let mut at = 8;
        for _ in 0..n_spans {
            let offset = read_u32(buf, at).unwrap() as usize;
            let len = read_u32(buf, at + 4).unwrap() as usize;
            xor_in_place(
                &mut target[offset..offset + len],
                &buf[at + 8..at + 8 + len],
            );
            at += 8 + len;
        }
        Some(())
    }

    /// Inverse of [`encode`]. Returns `None` on malformed input. All span
    /// payloads land in the mask's one shared buffer — decoding allocates
    /// twice (metadata + payload) regardless of span count.
    ///
    /// [`encode`]: ChangeMask::encode
    pub fn decode(buf: &[u8]) -> Option<ChangeMask> {
        let read_u32 = |b: &[u8], at: usize| -> Option<u32> {
            b.get(at..at + 4)
                .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
        };
        let block_len = read_u32(buf, 0)? as usize;
        let n_spans = read_u32(buf, 4)? as usize;
        let mut mask = ChangeMask::empty(block_len);
        mask.spans.reserve(n_spans.min(buf.len() / 8));
        let mut at = 8;
        for _ in 0..n_spans {
            let offset = read_u32(buf, at)? as usize;
            let len = read_u32(buf, at + 4)? as usize;
            let bytes = buf.get(at + 8..at + 8 + len)?;
            if offset + len > block_len {
                return None;
            }
            mask.payload.extend_from_slice(bytes);
            mask.spans.push(Span { offset, len });
            at += 8 + len;
        }
        if at != buf.len() {
            return None;
        }
        Some(mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xor::xor_bytes;

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
        assert_eq!(mask.spans.len(), 1);
        assert_eq!(mask.to_dense(), xor_bytes(&old, &new));
    }

    #[test]
    fn separates_distant_edits() {
        let old = vec![0u8; 4096];
        let mut new = old.clone();
        new[0] = 1;
        new[4000] = 1;
        let mask = ChangeMask::diff(&old, &new);
        assert_eq!(mask.spans.len(), 2);
        assert!(mask.wire_size() < 32);
    }

    #[test]
    fn diff_matches_from_dense_on_awkward_shapes() {
        // The fused scan and the dense scan must produce identical masks —
        // same spans, same payload — across gap widths that straddle the
        // bridging threshold and block ends.
        for gap in 0..12usize {
            for len in [17usize, 64, 100, 4099] {
                let old = vec![0u8; len];
                let mut new = old.clone();
                new[3] = 1;
                let second = 4 + gap;
                if second < len {
                    new[second] = 2;
                }
                if len > 1 {
                    new[len - 1] = 3;
                }
                let fused = ChangeMask::diff(&old, &new);
                let dense = ChangeMask::from_dense(&xor_bytes(&old, &new));
                assert_eq!(fused, dense, "gap={gap} len={len}");
            }
        }
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
        let mut via_wire = old;
        ChangeMask::apply_wire(&wire, &mut via_wire).unwrap();
        assert_eq!(via_wire, via_decode);
        assert_eq!(via_wire, new);
    }

    #[test]
    fn apply_wire_rejects_what_decode_rejects() {
        let target_len = 8usize;
        let mut bad = Vec::new();
        bad.extend_from_slice(&8u32.to_le_bytes()); // block_len = 8
        bad.extend_from_slice(&1u32.to_le_bytes()); // one span
        bad.extend_from_slice(&6u32.to_le_bytes()); // offset 6
        bad.extend_from_slice(&4u32.to_le_bytes()); // len 4 → 6+4 > 8
        bad.extend_from_slice(&[0xAA; 4]);
        let mut target = vec![0x55u8; target_len];
        let before = target.clone();
        assert!(ChangeMask::apply_wire(&bad, &mut target).is_none());
        assert_eq!(target, before, "failed apply must leave target untouched");
        // Length mismatch between wire header and target.
        let wire = ChangeMask::empty(16).encode();
        assert!(ChangeMask::apply_wire(&wire, &mut target).is_none());
        assert!(ChangeMask::apply_wire(&[1, 2, 3], &mut target).is_none());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ChangeMask::decode(&[1, 2, 3]).is_none());
        // Span pointing past block end.
        let mut bad = Vec::new();
        bad.extend_from_slice(&8u32.to_le_bytes()); // block_len = 8
        bad.extend_from_slice(&1u32.to_le_bytes()); // one span
        bad.extend_from_slice(&6u32.to_le_bytes()); // offset 6
        bad.extend_from_slice(&4u32.to_le_bytes()); // len 4 → 6+4 > 8
        bad.extend_from_slice(&[0xAA; 4]);
        assert!(ChangeMask::decode(&bad).is_none());
        // Trailing junk.
        let ok = ChangeMask::empty(8).encode();
        let mut trailing = ok.to_vec();
        trailing.push(0);
        assert!(ChangeMask::decode(&trailing).is_none());
    }

    #[test]
    fn empty_mask_roundtrip() {
        let m = ChangeMask::empty(4096);
        let back = ChangeMask::decode(&m.encode()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.block_len(), 4096);
    }

    #[test]
    fn dense_roundtrip_property_smoke() {
        // Random-ish dense buffers survive from_dense → to_dense.
        for seed in 0..20u8 {
            let dense: Vec<u8> = (0..300)
                .map(|i| {
                    if (i * 7 + seed as usize) % 11 < 3 {
                        ((i * 31) % 255) as u8
                    } else {
                        0
                    }
                })
                .collect();
            let mask = ChangeMask::from_dense(&dense);
            assert_eq!(mask.to_dense(), dense, "seed {seed}");
        }
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
