//! Change-mask diff/encode/apply — the per-write CPU cost of step W3.
//!
//! `diff_wordwise_full_64k` exists only as a same-run comparand, so that
//! `scripts/bench_check.sh` can gate a ratio, which survives slow CI
//! machines: it is `ChangeMask::diff` plus `encode` as they ran before the
//! mask was held in its wire form (the span scan one word at a time, each
//! span's bytes copied into a payload buffer and `XORed` there, then the
//! encoding assembled from spans and payload). It is not reachable from
//! `src`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use radd_parity::{xor_in_place, ChangeMask};
use std::hint::black_box;

fn page_pair(edit_bytes: usize) -> (Vec<u8>, Vec<u8>) {
    let old: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    let mut new = old.clone();
    for b in &mut new[1000..1000 + edit_bytes] {
        *b ^= 0xA5;
    }
    (old, new)
}

/// A block rewritten whole, as `mixed_mem_64k` writes them: two unrelated
/// pseudo-random blocks, so nearly every byte changes.
fn rewrite_pair(len: usize) -> (Vec<u8>, Vec<u8>) {
    let block = |seed: u64| {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect::<Vec<u8>>()
    };
    (block(0x9E37_79B9_7F4A_7C15), block(0x2545_F491_4F6C_DD1D))
}

/// The word-at-a-time span scan `ChangeMask::diff` ran before the
/// four-word stride: `emit(start, end)` per maximal extent of `old ^ new`
/// whose zero gaps are shorter than a span header.
fn scan_wordwise(old: &[u8], new: &[u8], mut emit: impl FnMut(usize, usize)) {
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8 bytes"));
    let bridges = |ld: u64, delta: u64| {
        (ld >> 56) != 0
            || (delta & 0xFF) != 0
            || ld.leading_zeros() / 8 + delta.trailing_zeros() / 8 < 8
    };
    let (ow, nw) = (old.chunks_exact(8), new.chunks_exact(8));
    let mut open = false;
    let (mut start, mut lw, mut ld) = (0usize, 0usize, 0u64);
    let mut i = 0;
    for delta in ow.clone().zip(nw.clone()).map(|(a, b)| word(a) ^ word(b)) {
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
    let mut span = open.then(|| (start, lw + 7 - (ld.leading_zeros() / 8) as usize));
    for delta in ow
        .remainder()
        .iter()
        .zip(nw.remainder())
        .map(|(a, b)| a ^ b)
    {
        if delta != 0 {
            span = match span {
                Some((start, prev)) if i - prev <= 8 => Some((start, i)),
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

/// `diff` then `encode` as they ran before: spans and a payload buffer,
/// then the encoding assembled from them.
fn diff_wordwise(old: &[u8], new: &[u8]) -> Vec<u8> {
    let (mut spans, mut payload) = (Vec::new(), Vec::new());
    scan_wordwise(old, new, |start, end| {
        spans.push((start, end - start));
        let at = payload.len();
        payload.extend_from_slice(&new[start..end]);
        xor_in_place(&mut payload[at..], &old[start..end]);
    });
    let mut out = Vec::with_capacity(8 + payload.len() + 8 * spans.len());
    out.extend_from_slice(&(old.len() as u32).to_le_bytes());
    out.extend_from_slice(&(spans.len() as u32).to_le_bytes());
    let mut at = 0;
    for (offset, len) in spans {
        out.extend_from_slice(&(offset as u32).to_le_bytes());
        out.extend_from_slice(&(len as u32).to_le_bytes());
        out.extend_from_slice(&payload[at..at + len]);
        at += len;
    }
    out
}

fn bench_mask(c: &mut Criterion) {
    let mut group = c.benchmark_group("change_mask");
    for &edit in &[100usize, 1024, 4096 - 1000] {
        let (old, new) = page_pair(edit);
        group.throughput(Throughput::Bytes(4096));
        group.bench_function(format!("diff/edit{edit}"), |b| {
            b.iter(|| ChangeMask::diff(black_box(&old), black_box(&new)));
        });
        let mask = ChangeMask::diff(&old, &new);
        group.bench_function(format!("encode/edit{edit}"), |b| {
            b.iter(|| black_box(&mask).encode());
        });
        let wire = mask.encode();
        group.bench_function(format!("decode_apply/edit{edit}"), |b| {
            let mut target = old.clone();
            b.iter(|| {
                let m = ChangeMask::decode(black_box(&wire)).unwrap();
                m.apply(&mut target);
            });
        });
    }

    // A 64 KiB block rewritten whole: the diff a `mixed_mem_64k` write
    // makes, and the same diff as it ran before, in the same run.
    let (old, new) = rewrite_pair(64 * 1024);
    assert_eq!(
        diff_wordwise(&old, &new),
        ChangeMask::diff(&old, &new).encode()[..]
    );
    group.throughput(Throughput::Bytes(64 * 1024));
    group.bench_function("diff_full_64k", |b| {
        b.iter(|| ChangeMask::diff(black_box(&old), black_box(&new)).encode());
    });
    group.bench_function("diff_wordwise_full_64k", |b| {
        b.iter(|| diff_wordwise(black_box(&old), black_box(&new)));
    });
    group.finish();
}

criterion_group!(benches, bench_mask);
criterion_main!(benches);
