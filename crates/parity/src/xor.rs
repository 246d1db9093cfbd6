//! XOR primitives.
//!
//! Blocks in the testbed are byte buffers of equal length within a stripe.
//! The public functions here validate lengths and delegate to the
//! runtime-dispatched kernels in [`crate::kernels`] — AVX2/SSE2 on x86-64,
//! NEON on aarch64, a `chunks_exact` scalar loop everywhere else. The
//! Criterion `parity_xor` bench confirms the dispatched path runs at memory
//! bandwidth for 4 KB blocks.

use crate::kernels;

/// `dst ^= src`, element-wise. Panics if lengths differ — stripe blocks are
/// always the same size, so a mismatch is a logic error, not an I/O error.
#[inline]
pub fn xor_in_place(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "XOR operands must be the same length");
    kernels::xor2(dst, src);
}

/// `a XOR b` into a fresh buffer.
#[inline]
pub fn xor_bytes(a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(a.len());
    xor_extend(&mut out, a, b);
    out
}

/// Append `a XOR b` to `out`, each byte written once: nothing is zeroed or
/// copied first. Panics if `a` and `b` differ in length.
#[inline]
pub fn xor_extend(out: &mut Vec<u8>, a: &[u8], b: &[u8]) {
    assert_eq!(a.len(), b.len(), "XOR operands must be the same length");
    out.reserve(a.len());
    let len = out.len();
    kernels::xor3(&mut out.spare_capacity_mut()[..a.len()], a, b);
    // SAFETY: `reserve` made room for `a.len()` bytes past `len`, and
    // `xor3` wrote every one of them.
    unsafe { out.set_len(len + a.len()) };
}

/// `dst ^= s` for every source block, folding up to
/// [`kernels::FOLD_WAYS`] sources per pass over `dst`, so `dst` streams
/// through the cache once per group instead of once per source. Panics on
/// any length mismatch.
#[inline]
pub fn xor_fold(dst: &mut [u8], sources: &[&[u8]]) {
    for s in sources {
        assert_eq!(dst.len(), s.len(), "XOR operands must be the same length");
    }
    kernels::fold(dst, sources);
}

/// XOR of many equal-length blocks — the paper's reconstruction formula (2),
/// `failed block = XOR { other blocks in the group }`. Returns `None` for an
/// empty input.
pub fn xor_many<'a, I>(blocks: I) -> Option<Vec<u8>>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut iter = blocks.into_iter();
    let first = iter.next()?;
    let mut acc = first.to_vec();
    let rest: Vec<&[u8]> = iter.collect();
    xor_fold(&mut acc, &rest);
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_is_self_inverse() {
        let a = vec![0xAAu8; 100];
        let b: Vec<u8> = (0..100).map(|i| i as u8).collect();
        let mut x = a.clone();
        xor_in_place(&mut x, &b);
        xor_in_place(&mut x, &b);
        assert_eq!(x, a);
    }

    #[test]
    fn xor_bytes_matches_manual() {
        let a = [0b1100u8, 0xFF, 0x00];
        let b = [0b1010u8, 0x0F, 0x00];
        assert_eq!(xor_bytes(&a, &b), vec![0b0110, 0xF0, 0x00]);
    }

    #[test]
    fn handles_non_multiple_of_eight_lengths() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 4096, 4099] {
            let a: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            let got = xor_bytes(&a, &b);
            let want: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            assert_eq!(got, want, "len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_lengths_panic() {
        let mut a = vec![0u8; 4];
        xor_in_place(&mut a, &[0u8; 5]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn fold_mismatched_lengths_panic() {
        let mut a = vec![0u8; 4];
        let b = vec![0u8; 4];
        let c = vec![0u8; 5];
        xor_fold(&mut a, &[&b, &c]);
    }

    #[test]
    fn fold_matches_serial_application() {
        let sources: Vec<Vec<u8>> = (0..7u8).map(|i| vec![i * 19 + 1; 129]).collect();
        let refs: Vec<&[u8]> = sources.iter().map(|s| s.as_slice()).collect();
        let mut serial = vec![0x5Au8; 129];
        let mut folded = serial.clone();
        for s in &refs {
            xor_in_place(&mut serial, s);
        }
        xor_fold(&mut folded, &refs);
        assert_eq!(folded, serial);
    }

    #[test]
    fn xor_many_reconstructs_missing_block() {
        // Parity of 4 blocks, then reconstruct block 2 from the others.
        let blocks: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i * 17 + 3; 64]).collect();
        let parity = xor_many(blocks.iter().map(|b| b.as_slice())).unwrap();
        let survivors: Vec<&[u8]> = blocks
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 2)
            .map(|(_, b)| b.as_slice())
            .chain(std::iter::once(parity.as_slice()))
            .collect();
        assert_eq!(xor_many(survivors).unwrap(), blocks[2]);
    }

    #[test]
    fn xor_many_empty_is_none() {
        assert_eq!(xor_many(std::iter::empty()), None);
    }

    #[test]
    fn xor_many_single_is_copy() {
        let b = vec![9u8; 16];
        assert_eq!(xor_many([b.as_slice()]).unwrap(), b);
    }
}
