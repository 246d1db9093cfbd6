//! The per-byte half of a socket hop and of a WAL commit: the frame
//! checksum, one frame out (`write_frame`) and one frame in
//! (`FrameDecoder::read_from` + `next_frame`, what a reader thread runs per
//! message), a site's 64 KiB `ReadOk` of a block not in cache with its
//! check computed and kept, and the WAL's CRC-32 (`crc32_4k`, the
//! dispatched kernel: carry-less multiply where the CPU has it, and
//! `crc32_sliced_4k`, the slicing-by-8 fallback forced).
//!
//! Four rows exist only as same-run comparands, so that
//! `scripts/bench_check.sh` can gate ratios, which survive slow CI
//! machines: `checksum_serial_64k` is the one-lane chain the frame check
//! used to be (`FxHasher::write`, still the map hasher),
//! `crc32_bytewise_4k` is the one-table, byte-at-a-time CRC the WAL ran,
//! and `copy_64k` and `write_frame_64k_copy` are a plain copy of a cached
//! 64 KiB block into a buffer, the floor a frame's way in or out cannot go
//! under (the second timed in alternating batches with the frame's way
//! out). None is reachable from `src`.
//!
//! One row is a count, printed before the timings:
//! `client_write_sparse_4k_bytes`, the bytes of the frame a client puts on
//! the wire to change 128 bytes of a 4 KiB block its own last write left
//! (a `WriteMask`; the block whole would be 4,138).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use radd_parity::crc32::{crc32, crc32_finish, crc32_init, crc32_update_sliced};
use radd_protocol::fasthash::FxHasher;
use radd_protocol::loopback::{Hook, Loopback};
use radd_protocol::{ClientErr, ClientMachine, Msg, SparePolicy};
use radd_rt::frame::{checksum, write_frame, write_msg, Frame, FrameDecoder};
use std::hash::Hasher;
use std::hint::black_box;

fn pattern(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ (i >> 8) as u8)
        .collect()
}

fn checksum_serial(payload: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(payload);
    h.finish()
}

fn crc32_table() -> [u32; 256] {
    std::array::from_fn(|i| {
        (0..8).fold(i as u32, |c, _| {
            (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg())
        })
    })
}

fn crc32_bytewise(table: &[u32; 256], data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |c, &b| {
        table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
    })
}

/// Keeps the last write request the client sent.
struct LastWrite(Option<Msg>);

impl Hook for LastWrite {
    fn exchange(&mut self, _site: usize, msg: &Msg, _background: bool) -> Result<(), ClientErr> {
        if matches!(msg, Msg::Write { .. } | Msg::WriteMask { .. }) {
            self.0 = Some(msg.clone());
        }
        Ok(())
    }
}

/// The frame of a client's write of 128 changed bytes to a 4 KiB block
/// its previous write left.
fn print_client_write_sparse_4k_bytes() {
    const BLOCK: usize = 4096;
    let mut net = Loopback::new(4, 16, BLOCK, LastWrite(None));
    let mut client = ClientMachine::new(4, 16, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
    let block = pattern(BLOCK);
    client.write(&mut net, 0, 0, &block).expect("write");
    let mut sparse = block;
    for b in &mut sparse[1000..1128] {
        *b ^= 0xA5;
    }
    client.write(&mut net, 0, 0, &sparse).expect("rewrite");
    let mut frame = Vec::new();
    let msg = net.hook.0.as_ref().expect("a write was sent");
    write_msg(&mut frame, msg, None).expect("write to a Vec");
    println!(
        "bench {:50} {:>12} bytes",
        "frame_path/client_write_sparse_4k_bytes",
        frame.len()
    );
}

fn bench_frame_path(c: &mut Criterion) {
    print_client_write_sparse_4k_bytes();
    let mut group = c.benchmark_group("frame_path");
    let block_4k = pattern(4096);
    let block_64k = pattern(64 * 1024);

    group.throughput(Throughput::Bytes(4096));
    group.bench_function("checksum_4k", |b| {
        b.iter(|| checksum(black_box(&block_4k)));
    });
    group.bench_function("crc32_4k", |b| {
        b.iter(|| crc32(black_box(&block_4k)));
    });
    let sliced = |data: &[u8]| crc32_finish(crc32_update_sliced(crc32_init(), data));
    assert_eq!(sliced(&block_4k), crc32(&block_4k));
    group.bench_function("crc32_sliced_4k", |b| {
        b.iter(|| sliced(black_box(&block_4k)));
    });
    let table = crc32_table();
    assert_eq!(crc32_bytewise(&table, &block_4k), crc32(&block_4k));
    group.bench_function("crc32_bytewise_4k", |b| {
        b.iter(|| crc32_bytewise(black_box(&table), black_box(&block_4k)));
    });

    group.throughput(Throughput::Bytes(64 * 1024));
    let mut copy = Vec::with_capacity(64 * 1024);
    group.bench_function("copy_64k", |b| {
        b.iter(|| {
            copy.clear();
            copy.extend_from_slice(black_box(&block_64k));
        });
    });
    group.bench_function("checksum_64k", |b| {
        b.iter(|| checksum(black_box(&block_64k)));
    });
    group.bench_function("checksum_serial_64k", |b| {
        b.iter(|| checksum_serial(black_box(&block_64k)));
    });

    // One 64 KiB write on its way out: encode, checksum, one gathered
    // write (into a `Vec` here, so the copy a socket write makes is
    // counted). Side `a` copies the same block into the same buffer, the
    // floor a frame's way out cannot go under, in alternating batches over
    // one state (`bench_pair`): `write_frame_64k/ratio` is the frame path
    // priced in copies, without the drift between two separate loops.
    let block_64k = Bytes::from(block_64k);
    let frame = Frame::Proto(Msg::Write {
        index: 7,
        data: block_64k.clone(),
        tag: 9,
    });
    let mut wire = Vec::with_capacity(80 * 1024);
    group.bench_pair("write_frame_64k_copy", "write_frame_64k", 1, |b| {
        b.iter(|framed| {
            wire.clear();
            if framed {
                write_frame(&mut wire, black_box(&frame)).expect("write to a Vec");
            } else {
                wire.extend_from_slice(black_box(&block_64k));
            }
        });
    });
    wire.clear();
    write_frame(&mut wire, &frame).expect("write to a Vec");

    // The same frame on its way in, as a reader thread takes it: reads
    // into the decoder's buffer until the frame is whole, then check and
    // decode. The message is dropped inside the timed call, as a site
    // drops a request once it has been handled.
    group.bench_function("decode_64k", |b| {
        let mut dec = FrameDecoder::new();
        b.iter(|| {
            let mut socket = black_box(&wire[..]);
            loop {
                if let Some(f) = dec.next_frame().expect("a frame this bench wrote") {
                    break f;
                }
                dec.read_from(&mut socket).expect("read from a slice");
            }
        });
    });

    // A site's 64 KiB `ReadOk`, as a read of a block that is not in cache
    // sends it: the blocks are a pool four times larger than any cache
    // here, visited in turn, and the frame goes into a buffer (the copy a
    // socket write makes, which is the block's first touch when the check
    // is kept). Side `a` sends under the check kept from when the block
    // arrived, side `b` computes it first: `b / a` is what the kept check
    // saves, priced against the rest of the send.
    let pool: Vec<(Bytes, u64)> = (0..COLD_BLOCKS)
        .map(|i| {
            let block = Bytes::from(pattern(64 * 1024 + i)[i..].to_vec());
            let check = checksum(&block);
            (block, check)
        })
        .collect();
    let (mut next, mut sent) = (0, Vec::with_capacity(80 * 1024));
    group.bench_pair(
        "send_readok_cold_64k_kept",
        "send_readok_cold_64k",
        1,
        |b| {
            b.iter(|computed| {
                let (data, check) = &pool[next % COLD_BLOCKS];
                next += 1;
                let msg = Msg::ReadOk {
                    tag: next as u64,
                    data: data.clone(),
                };
                sent.clear();
                let kept = (!computed).then_some(*check);
                write_msg(&mut sent, black_box(&msg), kept).expect("write to a Vec");
            });
        },
    );
    group.finish();
}

/// 64 KiB blocks in the cold pool: 64 MiB.
const COLD_BLOCKS: usize = 1024;

criterion_group!(benches, bench_frame_path);
criterion_main!(benches);
