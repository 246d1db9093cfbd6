//! Runtime-dispatched XOR kernels.
//!
//! One stripe XOR, four implementations: AVX2 (32-byte lanes) and SSE2
//! (16-byte lanes) on x86-64, NEON (16-byte lanes) on aarch64, and a
//! portable scalar fallback working a `u64` word at a time through
//! `chunks_exact`, so even the fallback carries no per-byte bounds checks.
//! The widest instruction set the CPU reports is detected once
//! (`is_x86_feature_detected!`) and cached in an atomic; every call after
//! the first is a relaxed load plus a direct branch.
//!
//! Besides the two-operand `dst ^= src`, the module exposes [`xor3`],
//! `dst = a ^ b` into bytes not yet written (AVX2, else the scalar loop,
//! which the compiler widens to the baseline SSE2/NEON), and a k-way
//! [`fold`] that XORs up to [`FOLD_WAYS`] source blocks into `dst` per
//! pass. Reconstruction over `G` survivors then streams `dst` through the
//! cache once per `FOLD_WAYS` sources instead of once per source — the
//! memory-traffic argument behind the recovery-path speedup.

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU8, Ordering};

/// Maximum number of source blocks a single fold pass absorbs. Eight
/// streams plus the accumulator still fit the vector register file on
/// every supported target, and a whole `G = 8` stripe then folds in one
/// pass over `dst`.
pub const FOLD_WAYS: usize = 8;

const K_UNINIT: u8 = 0;
const K_SCALAR: u8 = 1;
#[cfg(target_arch = "x86_64")]
const K_SSE2: u8 = 2;
#[cfg(target_arch = "x86_64")]
const K_AVX2: u8 = 3;
#[cfg(target_arch = "aarch64")]
const K_NEON: u8 = 4;

static ACTIVE: AtomicU8 = AtomicU8::new(K_UNINIT);

#[cold]
fn detect() -> u8 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return K_AVX2;
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return K_SSE2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is part of the aarch64 baseline.
        return K_NEON;
    }
    #[allow(unreachable_code)]
    K_SCALAR
}

#[inline]
fn active() -> u8 {
    let k = ACTIVE.load(Ordering::Relaxed);
    if k != K_UNINIT {
        return k;
    }
    let k = detect();
    ACTIVE.store(k, Ordering::Relaxed);
    k
}

/// Human-readable name of the kernel the dispatcher selected, for bench
/// output and logs.
pub fn active_kernel_name() -> &'static str {
    match active() {
        #[cfg(target_arch = "x86_64")]
        K_AVX2 => "avx2",
        #[cfg(target_arch = "x86_64")]
        K_SSE2 => "sse2",
        #[cfg(target_arch = "aarch64")]
        K_NEON => "neon",
        _ => "scalar",
    }
}

/// Dispatched `dst ^= src`. Lengths must match (checked by the caller in
/// [`crate::xor_in_place`]).
#[inline]
pub fn xor2(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: detect() proved AVX2 is available on this CPU.
        K_AVX2 => unsafe { xor2_avx2(dst, src) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: detect() proved SSE2 is available on this CPU.
        K_SSE2 => unsafe { xor2_sse2(dst, src) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline.
        K_NEON => unsafe { xor2_neon(dst, src) },
        _ => xor2_scalar(dst, src),
    }
}

/// Dispatched `dst = a ^ b`, writing every byte of `dst` without reading
/// it, so `dst` may be spare capacity no one has zeroed. Panics if the
/// lengths differ: the vector kernel reads `a` and `b` as far as `dst`
/// reaches.
#[inline]
pub fn xor3(dst: &mut [MaybeUninit<u8>], a: &[u8], b: &[u8]) {
    assert!(
        dst.len() == a.len() && a.len() == b.len(),
        "XOR operands must be the same length"
    );
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: detect() proved AVX2 is available on this CPU.
        K_AVX2 => unsafe { xor3_avx2(dst, a, b) },
        _ => xor3_scalar(dst, a, b),
    }
}

/// Dispatched k-way fold: `dst ^= s` for every `s` in `sources`, reading
/// `dst` once per group of up to [`FOLD_WAYS`] sources. Lengths must match
/// (checked by the caller in [`crate::xor_fold`]).
#[inline]
pub fn fold(dst: &mut [u8], sources: &[&[u8]]) {
    for group in sources.chunks(FOLD_WAYS) {
        match active() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: detect() proved AVX2 is available on this CPU.
            K_AVX2 => unsafe { fold_avx2(dst, group) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: detect() proved SSE2 is available on this CPU.
            K_SSE2 => unsafe { fold_sse2(dst, group) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is part of the aarch64 baseline.
            K_NEON => unsafe { fold_neon(dst, group) },
            _ => fold_scalar(dst, group),
        }
    }
}

// ---------------------------------------------------------------------
// Scalar fallback — also the tail handler for every vector kernel.
// ---------------------------------------------------------------------

/// Portable two-operand XOR: `u64` words via `chunks_exact`, byte tail.
#[inline]
pub fn xor2_scalar(dst: &mut [u8], src: &[u8]) {
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dw, sw) in d.by_ref().zip(s.by_ref()) {
        let a = u64::from_ne_bytes(dw.try_into().unwrap());
        let b = u64::from_ne_bytes(sw.try_into().unwrap());
        dw.copy_from_slice(&(a ^ b).to_ne_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= *sb;
    }
}

/// Portable `dst = a ^ b`: `u64` words via `chunks_exact`, byte tail.
#[inline]
fn xor3_scalar(dst: &mut [MaybeUninit<u8>], a: &[u8], b: &[u8]) {
    let mut d = dst.chunks_exact_mut(8);
    let mut x = a.chunks_exact(8);
    let mut y = b.chunks_exact(8);
    for ((dw, xw), yw) in d.by_ref().zip(x.by_ref()).zip(y.by_ref()) {
        let v =
            u64::from_ne_bytes(xw.try_into().unwrap()) ^ u64::from_ne_bytes(yw.try_into().unwrap());
        for (db, vb) in dw.iter_mut().zip(v.to_ne_bytes()) {
            db.write(vb);
        }
    }
    let tails = x.remainder().iter().zip(y.remainder());
    for (db, (xb, yb)) in d.into_remainder().iter_mut().zip(tails) {
        db.write(xb ^ yb);
    }
}

/// Portable fold: one pass over `dst`, `XORing` every source word in before
/// the store.
#[inline]
pub fn fold_scalar(dst: &mut [u8], sources: &[&[u8]]) {
    let mut at = 0;
    let mut d = dst.chunks_exact_mut(8);
    for dw in d.by_ref() {
        let mut v = u64::from_ne_bytes(dw.try_into().unwrap());
        for s in sources {
            v ^= u64::from_ne_bytes(s[at..at + 8].try_into().unwrap());
        }
        dw.copy_from_slice(&v.to_ne_bytes());
        at += 8;
    }
    for db in d.into_remainder() {
        let mut v = *db;
        for s in sources {
            v ^= s[at];
        }
        *db = v;
        at += 1;
    }
}

// ---------------------------------------------------------------------
// x86-64 vector kernels
// ---------------------------------------------------------------------

// SAFETY: callers must have proven AVX2 available (the `active()`
// dispatcher does, via `is_x86_feature_detected!`) and pass equal-length
// slices; executing an AVX2 instruction on a CPU without it is UB.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn xor2_avx2(dst: &mut [u8], src: &[u8]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(dst.len(), src.len());
    let lanes = dst.len() / 32 * 32;
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    let mut off = 0;
    while off < lanes {
        // SAFETY: `off + 32 <= lanes <= dst.len() == src.len()`, so every
        // 32-byte access stays inside its slice; the unaligned `loadu`/
        // `storeu` forms carry no alignment requirement; `dst` and `src`
        // cannot alias (`&mut` vs `&`).
        unsafe {
            let a = _mm256_loadu_si256(dp.add(off).cast::<__m256i>());
            let b = _mm256_loadu_si256(sp.add(off).cast::<__m256i>());
            _mm256_storeu_si256(dp.add(off).cast::<__m256i>(), _mm256_xor_si256(a, b));
        }
        off += 32;
    }
    xor2_scalar(&mut dst[lanes..], &src[lanes..]);
}

// SAFETY: callers must have proven AVX2 available (the `active()`
// dispatcher does) and pass three slices of one length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn xor3_avx2(dst: &mut [MaybeUninit<u8>], a: &[u8], b: &[u8]) {
    use std::arch::x86_64::*;
    debug_assert!(dst.len() == a.len() && a.len() == b.len());
    let lanes = dst.len() / 32 * 32;
    let dp = dst.as_mut_ptr().cast::<u8>();
    let mut off = 0;
    while off < lanes {
        // SAFETY: `off + 32 <= lanes <= dst.len() == a.len() == b.len()`,
        // so every 32-byte access stays inside its slice; `loadu`/`storeu`
        // need no alignment; a store into `MaybeUninit<u8>` memory is a
        // write of initialised bytes; `dst` cannot alias `a` or `b` (`&mut`
        // vs `&`).
        unsafe {
            let x = _mm256_loadu_si256(a.as_ptr().add(off).cast::<__m256i>());
            let y = _mm256_loadu_si256(b.as_ptr().add(off).cast::<__m256i>());
            _mm256_storeu_si256(dp.add(off).cast::<__m256i>(), _mm256_xor_si256(x, y));
        }
        off += 32;
    }
    xor3_scalar(&mut dst[lanes..], &a[lanes..], &b[lanes..]);
}

// SAFETY: callers must have proven SSE2 available (the `active()`
// dispatcher does; it is also baseline on x86-64) and pass equal-length
// slices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
unsafe fn xor2_sse2(dst: &mut [u8], src: &[u8]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(dst.len(), src.len());
    let lanes = dst.len() / 16 * 16;
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    let mut off = 0;
    while off < lanes {
        // SAFETY: `off + 16 <= lanes <= dst.len() == src.len()`, so every
        // 16-byte access stays inside its slice; `loadu`/`storeu` need no
        // alignment; `dst` and `src` cannot alias (`&mut` vs `&`).
        unsafe {
            let a = _mm_loadu_si128(dp.add(off).cast::<__m128i>());
            let b = _mm_loadu_si128(sp.add(off).cast::<__m128i>());
            _mm_storeu_si128(dp.add(off).cast::<__m128i>(), _mm_xor_si128(a, b));
        }
        off += 16;
    }
    xor2_scalar(&mut dst[lanes..], &src[lanes..]);
}

// SAFETY: callers must have proven AVX2 available (the `fold` dispatcher
// does) and pass sources all of `dst`'s length (`crate::xor_fold`
// validates; re-asserted below).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn fold_avx2(dst: &mut [u8], sources: &[&[u8]]) {
    use std::arch::x86_64::*;
    debug_assert!(sources.iter().all(|s| s.len() == dst.len()));
    let lanes = dst.len() / 32 * 32;
    let dp = dst.as_mut_ptr();
    let mut off = 0;
    while off < lanes {
        // SAFETY: `off + 32 <= lanes <= dst.len()` and every source has
        // `dst`'s length (asserted above, guaranteed by `crate::xor_fold`),
        // so all 32-byte accesses stay in bounds; `loadu`/`storeu` need no
        // alignment; the sources are shared borrows and cannot alias the
        // `&mut dst`.
        unsafe {
            let mut v = _mm256_loadu_si256(dp.add(off).cast::<__m256i>());
            for s in sources {
                v = _mm256_xor_si256(v, _mm256_loadu_si256(s.as_ptr().add(off).cast::<__m256i>()));
            }
            _mm256_storeu_si256(dp.add(off).cast::<__m256i>(), v);
        }
        off += 32;
    }
    fold_tail(dst, sources, lanes);
}

// SAFETY: callers must have proven SSE2 available (the `fold` dispatcher
// does) and pass sources all of `dst`'s length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
unsafe fn fold_sse2(dst: &mut [u8], sources: &[&[u8]]) {
    use std::arch::x86_64::*;
    debug_assert!(sources.iter().all(|s| s.len() == dst.len()));
    let lanes = dst.len() / 16 * 16;
    let dp = dst.as_mut_ptr();
    let mut off = 0;
    while off < lanes {
        // SAFETY: `off + 16 <= lanes <= dst.len()` and every source has
        // `dst`'s length (asserted above, guaranteed by `crate::xor_fold`),
        // so all 16-byte accesses stay in bounds; `loadu`/`storeu` need no
        // alignment; the sources are shared borrows and cannot alias the
        // `&mut dst`.
        unsafe {
            let mut v = _mm_loadu_si128(dp.add(off).cast::<__m128i>());
            for s in sources {
                v = _mm_xor_si128(v, _mm_loadu_si128(s.as_ptr().add(off).cast::<__m128i>()));
            }
            _mm_storeu_si128(dp.add(off).cast::<__m128i>(), v);
        }
        off += 16;
    }
    fold_tail(dst, sources, lanes);
}

// ---------------------------------------------------------------------
// aarch64 vector kernels
// ---------------------------------------------------------------------

// SAFETY: NEON is part of the aarch64 baseline, so the target feature is
// always available; callers must pass equal-length slices.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
#[inline]
unsafe fn xor2_neon(dst: &mut [u8], src: &[u8]) {
    use std::arch::aarch64::*;
    debug_assert_eq!(dst.len(), src.len());
    let lanes = dst.len() / 16 * 16;
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    let mut off = 0;
    while off < lanes {
        // SAFETY: `off + 16 <= lanes <= dst.len() == src.len()`, so every
        // 16-byte access stays inside its slice; `vld1q`/`vst1q` are
        // byte-aligned; `dst` and `src` cannot alias (`&mut` vs `&`).
        unsafe {
            let a = vld1q_u8(dp.add(off).cast_const());
            let b = vld1q_u8(sp.add(off));
            vst1q_u8(dp.add(off), veorq_u8(a, b));
        }
        off += 16;
    }
    xor2_scalar(&mut dst[lanes..], &src[lanes..]);
}

// SAFETY: NEON is part of the aarch64 baseline; callers must pass
// sources all of `dst`'s length.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
#[inline]
unsafe fn fold_neon(dst: &mut [u8], sources: &[&[u8]]) {
    use std::arch::aarch64::*;
    debug_assert!(sources.iter().all(|s| s.len() == dst.len()));
    let lanes = dst.len() / 16 * 16;
    let dp = dst.as_mut_ptr();
    let mut off = 0;
    while off < lanes {
        // SAFETY: `off + 16 <= lanes <= dst.len()` and every source has
        // `dst`'s length (asserted above, guaranteed by `crate::xor_fold`),
        // so all 16-byte accesses stay in bounds; `vld1q`/`vst1q` are
        // byte-aligned; the sources are shared borrows and cannot alias
        // the `&mut dst`.
        unsafe {
            let mut v = vld1q_u8(dp.add(off).cast_const());
            for s in sources {
                v = veorq_u8(v, vld1q_u8(s.as_ptr().add(off)));
            }
            vst1q_u8(dp.add(off), v);
        }
        off += 16;
    }
    fold_tail(dst, sources, lanes);
}

/// Finish a vector fold's sub-lane tail with the scalar kernel.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline]
fn fold_tail(dst: &mut [u8], sources: &[&[u8]], from: usize) {
    if from == dst.len() {
        return;
    }
    let tails: Vec<&[u8]> = sources.iter().map(|s| &s[from..]).collect();
    fold_scalar(&mut dst[from..], &tails);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + salt * 7 + 1) as u8).collect()
    }

    #[test]
    fn dispatched_xor2_matches_scalar() {
        for len in [0usize, 1, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 4096, 4099] {
            let src = pattern(len, 1);
            let mut want = pattern(len, 2);
            let mut got = want.clone();
            xor2_scalar(&mut want, &src);
            xor2(&mut got, &src);
            assert_eq!(got, want, "len={len}");
        }
    }

    #[test]
    fn dispatched_fold_matches_serial_scalar() {
        for n_sources in 0..=9usize {
            for len in [0usize, 5, 16, 33, 256, 4099] {
                let sources: Vec<Vec<u8>> = (0..n_sources).map(|s| pattern(len, s)).collect();
                let refs: Vec<&[u8]> = sources.iter().map(|s| s.as_slice()).collect();
                let mut want = pattern(len, 100);
                let mut got = want.clone();
                for s in &refs {
                    xor2_scalar(&mut want, s);
                }
                fold(&mut got, &refs);
                assert_eq!(got, want, "n={n_sources} len={len}");
            }
        }
    }

    #[test]
    fn dispatched_xor3_matches_xor2() {
        for len in [0usize, 1, 7, 8, 31, 32, 33, 63, 64, 4096, 4099] {
            let (a, b) = (pattern(len, 1), pattern(len, 2));
            let mut want = a.clone();
            xor2_scalar(&mut want, &b);
            let mut got = vec![0xEE; 3];
            crate::xor_extend(&mut got, &a, &b);
            assert_eq!(got[..3], [0xEE; 3]);
            assert_eq!(got[3..], want[..], "len={len}");
        }
    }

    #[test]
    fn kernel_name_is_reported() {
        let name = active_kernel_name();
        assert!(["avx2", "sse2", "neon", "scalar"].contains(&name), "{name}");
    }
}
