//! The client-driven recovery paths of §3.2/§3.3, machine-level: a full
//! validated reconstruction (batched `BlockRead` fan-out + one multi-way
//! XOR fold) and the degraded-write → spare-drain cycle behind a site
//! revival. Same minimal synchronous interpreter as `protocol_core`
//! (`radd_protocol::loopback`) — no disk, no network, so the numbers
//! isolate protocol + parity cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use radd_protocol::loopback::Loopback;
use radd_protocol::{ClientMachine, SparePolicy};
use std::hint::black_box;

const G: usize = 8;
const ROWS: u64 = 100;
const BLOCK: usize = 4096;

fn net() -> Loopback {
    Loopback::new(G, ROWS, BLOCK, ())
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery_path");

    // §3.3 validated reconstruction of one block: G + 1 batched block
    // reads, UID validation against the parity array, one G-way XOR fold.
    group.throughput(Throughput::Bytes(((G + 1) * BLOCK) as u64));
    group.bench_function("reconstruct_block_g8_4k", |bencher| {
        let mut net = net();
        let mut client =
            ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
        for s in 0..G + 2 {
            client.write(&mut net, s, 0, &[s as u8 + 1; BLOCK]).unwrap();
        }
        let owner = 3usize;
        let row = client.geometry().data_to_physical(owner, 0);
        bencher.iter(|| {
            let (data, _) = client
                .reconstruct(&mut net, black_box(owner), black_box(row), true)
                .unwrap();
            black_box(data);
        });
    });

    // One failure cycle over 8 rows: down-site writes absorbed by spares
    // (W1' + W3'), then the revival drain — probe wave, restore wave,
    // release wave — back to fully healthy.
    group.throughput(Throughput::Bytes((8 * BLOCK) as u64));
    group.bench_function("fail_write8_recover_g8_4k", |bencher| {
        let mut net = net();
        let mut client =
            ClientMachine::new(G, ROWS, BLOCK, SparePolicy::OnePerParity, true, u16::MAX);
        for s in 0..G + 2 {
            for idx in 0..8u64 {
                client.write(&mut net, s, idx, &[0xB0; BLOCK]).unwrap();
            }
        }
        let victim = 1usize;
        let mut fill = 0u8;
        bencher.iter(|| {
            fill = fill.wrapping_add(1);
            client.set_down(victim, true);
            for idx in 0..8u64 {
                client.write(&mut net, victim, idx, &[fill; BLOCK]).unwrap();
            }
            let drained = client.recover(&mut net, victim).unwrap();
            assert_eq!(drained, 8);
            client.set_down(victim, false);
        });
    });

    group.finish();
}

criterion_group!(benches, bench_recovery);
criterion_main!(benches);
