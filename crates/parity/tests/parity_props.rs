//! Property-based tests for the parity codec: the stripe invariant must
//! survive arbitrary sequences of masked updates, and every encoding must
//! round-trip.

use bytes::Bytes;
use proptest::prelude::*;
use radd_parity::{kernels, xor_fold, xor_many, ChangeMask};

fn arb_block(len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), len)
}

/// The wire encoding of the mask between `old` and `new`, found a byte at
/// a time: a nonzero byte joins the open span when fewer than a span
/// header's 8 zero bytes lie between them.
fn reference_encoding(old: &[u8], new: &[u8]) -> Vec<u8> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for i in (0..old.len()).filter(|&i| old[i] != new[i]) {
        match spans.last_mut() {
            Some((_, end)) if i - *end < 8 => *end = i + 1,
            _ => spans.push((i, i + 1)),
        }
    }
    let mut wire = Vec::new();
    wire.extend_from_slice(&(old.len() as u32).to_le_bytes());
    wire.extend_from_slice(&(spans.len() as u32).to_le_bytes());
    for (start, end) in spans {
        wire.extend_from_slice(&(start as u32).to_le_bytes());
        wire.extend_from_slice(&((end - start) as u32).to_le_bytes());
        wire.extend(
            old[start..end]
                .iter()
                .zip(&new[start..end])
                .map(|(a, b)| a ^ b),
        );
    }
    wire
}

/// A block pair of `len` bytes whose bytes differ with probability about
/// `density` / 16: 0 is no change, 16 a full rewrite, and the densities
/// between put zero gaps of every width around the bridging threshold.
fn arb_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (
        0usize..700,
        0u32..17,
        arb_block(700),
        proptest::collection::vec((0u32..16, 1u8..=255), 700),
    )
        .prop_map(|(len, density, old, flips)| {
            let old = old[..len].to_vec();
            let new = old
                .iter()
                .zip(&flips)
                .map(|(&b, &(roll, x))| if roll < density { b ^ x } else { b })
                .collect();
            (old, new)
        })
}

proptest! {
    /// parity = XOR(data blocks) stays true under masked updates, and any
    /// single block is reconstructible afterwards (formula (2)): a zeroed
    /// accumulator folded over the `G` survivors and the parity block, the
    /// call `ClientMachine::reconstruct` and `rebuild_member` make.
    #[test]
    fn stripe_invariant_under_updates(
        seed_blocks in proptest::collection::vec(arb_block(64), 2..8),
        updates in proptest::collection::vec((0usize..8, arb_block(64)), 0..12),
        victim_sel in 0usize..8,
    ) {
        let mut blocks = seed_blocks;
        let g = blocks.len();
        let mut parity = xor_many(blocks.iter().map(|b| b.as_slice())).unwrap();

        for (idx, new) in updates {
            let i = idx % g;
            let mask = ChangeMask::diff(&blocks[i], &new);
            mask.apply(&mut parity);   // formula (1)
            blocks[i] = new;
        }

        let victim = victim_sel % g;
        let views: Vec<&[u8]> = blocks.iter().enumerate()
            .filter(|&(i, _)| i != victim)
            .map(|(_, b)| b.as_slice())
            .chain(std::iter::once(parity.as_slice()))
            .collect();
        let mut acc = vec![0u8; 64];
        xor_fold(&mut acc, &views);
        prop_assert_eq!(&acc, &blocks[victim]);
        prop_assert_eq!(xor_many(views.iter().copied()).unwrap(), acc);
    }

    /// ChangeMask::diff/apply converts old→new for arbitrary blocks.
    #[test]
    fn mask_diff_apply(old in arb_block(200), new in arb_block(200)) {
        let mask = ChangeMask::diff(&old, &new);
        let mut buf = old;
        mask.apply(&mut buf);
        prop_assert_eq!(buf, new);
    }

    /// Wire encoding round-trips for arbitrary diffs.
    #[test]
    fn mask_encode_decode(old in arb_block(300), new in arb_block(300)) {
        let mask = ChangeMask::diff(&old, &new);
        let back = ChangeMask::decode(&mask.encode()).unwrap();
        prop_assert_eq!(back, mask);
    }

    /// `diff` finds the spans a byte-at-a-time scan finds, at every density
    /// of change (none, sparse, gaps straddling the bridging threshold, a
    /// full rewrite through the four-word stride) and at lengths that are
    /// not multiples of 8 or 32; so does `from_windows` over the same pair
    /// cut into windows anywhere.
    #[test]
    fn mask_diff_matches_a_bytewise_scan(
        (old, new) in arb_pair(),
        cuts in proptest::collection::vec(0usize..700, 0..6),
    ) {
        let want = reference_encoding(&old, &new);
        let mask = ChangeMask::diff(&old, &new);
        prop_assert_eq!(&mask.encode()[..], &want[..]);
        prop_assert_eq!(mask.wire_size(), want.len() - 8);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(old.len())).collect();
        cuts.push(0);
        cuts.push(old.len());
        cuts.sort_unstable();
        let windows: Vec<(usize, &[u8])> =
            cuts.windows(2).map(|w| (w[0], &new[w[0]..w[1]])).collect();
        prop_assert_eq!(&ChangeMask::from_windows(&old, &windows).encode()[..], &want[..]);
    }

    /// The parity site's one-pass apply builds the block copy-then-
    /// `apply_wire` builds, and refuses exactly what `apply_wire` refuses:
    /// any encoding, well-formed or damaged at one byte, against a block of
    /// the mask's length or another.
    #[test]
    fn one_pass_apply_equals_copy_then_apply_wire(
        (old, new) in arb_pair(),
        parity in arb_block(701),
        damage in (any::<bool>(), any::<usize>(), 1u8..=255),
        cut in (any::<bool>(), any::<usize>()),
        other_len in any::<bool>(),
    ) {
        let mut wire = ChangeMask::diff(&old, &new).encode().to_vec();
        if damage.0 {
            let at = damage.1 % wire.len();
            wire[at] ^= damage.2;
        }
        if cut.0 {
            wire.truncate(cut.1 % (wire.len() + 1));
        }
        let parity = &parity[..old.len() + usize::from(other_len)];
        let mut copied = parity.to_vec();
        let via_copy = ChangeMask::apply_wire(&wire, &mut copied).map(|()| copied);
        prop_assert_eq!(&ChangeMask::applied_wire(&wire, parity), &via_copy);
        if via_copy.is_none() {
            let mut untouched = parity.to_vec();
            prop_assert!(ChangeMask::apply_wire(&wire, &mut untouched).is_none());
            prop_assert_eq!(&untouched[..], parity);
        } else {
            prop_assert!(ChangeMask::decode(&Bytes::from(wire)).is_some());
        }
    }

    /// Wire size never exceeds full-block shipping by more than one span
    /// header — the mask encoding is never pathologically worse than naive.
    #[test]
    fn mask_wire_size_bounded(old in arb_block(256), new in arb_block(256)) {
        let mask = ChangeMask::diff(&old, &new);
        prop_assert!(mask.wire_size() <= 256 + 8 * 8,
            "wire {} for 256-byte block", mask.wire_size());
    }

    /// A mask built from the windows that changed is the mask `diff` finds
    /// by scanning both blocks whole: same spans, same payload, hence the
    /// same wire bytes and the same effect. Windows are cut at arbitrary
    /// places (adjacent, a few bytes apart, far apart), and their new bytes
    /// mostly keep the old ones, so extents end inside windows and short
    /// zero gaps straddle window boundaries.
    #[test]
    fn mask_from_windows_is_the_diff_of_the_patched_block(
        old in arb_block(300),
        cuts in proptest::collection::vec(0usize..300, 0..12),
        fresh in arb_block(300),
        keep in proptest::collection::vec(0u8..4, 300),
    ) {
        let mut cuts = cuts;
        cuts.sort_unstable();
        cuts.dedup();
        let mut new = old.clone();
        let mut windows: Vec<(usize, Vec<u8>)> = Vec::new();
        for pair in cuts.chunks_exact(2) {
            let (lo, hi) = (pair[0], pair[1]);
            for i in lo..hi {
                if keep[i] == 0 {
                    new[i] = fresh[i];
                }
            }
            windows.push((lo, new[lo..hi].to_vec()));
        }
        let views: Vec<(usize, &[u8])> = windows.iter().map(|(at, w)| (*at, &w[..])).collect();
        let mask = ChangeMask::from_windows(&old, &views);
        let whole = ChangeMask::diff(&old, &new);
        prop_assert_eq!(&mask, &whole);
        prop_assert_eq!(mask.encode(), whole.encode());
        let mut patched = old;
        mask.apply(&mut patched);
        prop_assert_eq!(patched, new);
    }

    /// The runtime-dispatched XOR kernel agrees with the scalar reference
    /// for arbitrary lengths (0–4099 covers every vector-width remainder)
    /// and arbitrary sub-slice offsets (misaligned starts, so unaligned
    /// loads are actually exercised).
    #[test]
    fn dispatched_xor2_matches_scalar_on_misaligned_slices(
        buf in arb_block(4099 + 64),
        src in arb_block(4099 + 64),
        len in 0usize..4100,
        dst_off in 0usize..64,
        src_off in 0usize..64,
    ) {
        let mut via_kernel = buf[dst_off..dst_off + len].to_vec();
        let mut via_scalar = via_kernel.clone();
        let s = &src[src_off..src_off + len];
        kernels::xor2(&mut via_kernel, s);
        kernels::xor2_scalar(&mut via_scalar, s);
        prop_assert_eq!(via_kernel, via_scalar,
            "kernel {} diverged at len {len}, offsets ({dst_off}, {src_off})",
            kernels::active_kernel_name());
    }

    /// Multi-way folding agrees with serial two-way scalar XOR for any
    /// source count (0 through past the 4-way unroll) and length.
    #[test]
    fn dispatched_fold_matches_serial_scalar(
        dst0 in arb_block(4099),
        srcs in proptest::collection::vec(arb_block(4099), 0..10),
        len in 0usize..4100,
        off in 0usize..64,
    ) {
        let len = len.min(4099 - off);
        let mut via_fold = dst0[off..off + len].to_vec();
        let mut via_scalar = via_fold.clone();
        let views: Vec<&[u8]> = srcs.iter().map(|s| &s[off..off + len]).collect();
        xor_fold(&mut via_fold, &views);
        for v in &views {
            kernels::xor2_scalar(&mut via_scalar, v);
        }
        prop_assert_eq!(via_fold, via_scalar);
    }

    /// Mask composition: `a.merge(&b)` applied once equals applying `a`
    /// then `b` — for masks whose spans overlap arbitrarily, including
    /// edits that cancel out.
    #[test]
    fn mask_merge_equals_sequential_application(
        v0 in arb_block(256),
        v1 in arb_block(256),
        v2 in arb_block(256),
        target in arb_block(256),
    ) {
        let a = ChangeMask::diff(&v0, &v1);
        let b = ChangeMask::diff(&v1, &v2);
        let merged = a.merge(&b);

        let mut seq = target.clone();
        a.apply(&mut seq);
        b.apply(&mut seq);
        let mut once = target;
        merged.apply(&mut once);
        prop_assert_eq!(once, seq);
        // And the merged mask stays canonical: re-diffing the endpoints
        // yields the identical span structure.
        prop_assert_eq!(merged, ChangeMask::diff(&v0, &v2));
    }
}
