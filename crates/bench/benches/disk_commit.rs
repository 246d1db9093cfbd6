//! The durable storage engine's hot paths: WAL group commit (the cost a
//! site pays per acknowledged batch under the WAL rule), recovery-on-open
//! (the §3.4 restart cost, proportional to the committed log suffix) and
//! the checkpoint that bounds it. Real files under the checkout's
//! `target/` — these numbers include the fsync, which is the point, and
//! the OS temp dir is often a tmpfs, where a sync costs nothing.
//!
//! The `site_meta_patch_*` / `snapshot_encode_512` rows are the exception:
//! no file, no sync, only what a site's machine does between handling a
//! write and handing the store its metadata record. They sit here because
//! `scripts/bench_check.sh` gates them as same-run ratios next to the
//! commit they are part of.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use radd_protocol::{Blocks, DurableDelta, SiteMachine};
use radd_storage::DiskBlocks;
use std::hint::black_box;
use std::path::{Path, PathBuf};

const ROWS: u64 = 100;
const BLOCK: usize = 4096;

fn scratch(label: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/bench-scratch")
        .join(format!("disk-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Commits of the first lap of `commit_1x4k_site_meta_512_second_lap`:
/// more than a bench function's timing loop makes (about 600), so every
/// timed commit of the second lap overwrites a first-lap record.
const SECOND_LAP_WARMUP: usize = 800;

/// A site's machine as a full preload leaves it: a UID array for every
/// row this site holds parity for.
fn site_machine(rows: u64) -> SiteMachine {
    let mut machine = SiteMachine::new(0, 4, rows, BLOCK);
    for r in 0..rows {
        if machine.geometry().parity_site(r) == 0 {
            machine.parity_uid_array(r);
        }
    }
    machine
}

/// What a write moves in the durable half of its data site: the UID
/// counter and one block UID. (A live write bumps the tag counter too; it
/// sits next to the UID counter and is journalled as the same field, so
/// the patch path does the same work, and leaving it out keeps the bytes
/// rows comparable with the recorded ones.)
fn touch_one(machine: &mut SiteMachine, row: u64) {
    let uid = machine.mint_uid();
    machine.set_block_uid(row, uid);
}

/// A 512-row store that never checkpoints on its own, and the commit a
/// site really makes on it: one 4 KiB block plus the metadata record for a
/// 512-row machine (a 9.7 KB `DurableSiteState`) in which one block UID
/// and the UID counter moved since the last commit. `by_patch` is the live site's way
/// to that record (`SiteMachine::drain_durable`, then `commit_patch`);
/// without it the blob is encoded whole and the store finds the difference
/// (`commit(|| blob)`, what `benchmark/` replays). The 32-byte blob of
/// `commit_1x4k` is why this cost went unseen: logging the blob whole made
/// this row three times the bytes of that one.
fn site_store(dir: &Path, by_patch: bool) -> (DiskBlocks, impl FnMut(&mut DiskBlocks) -> bool) {
    const SITE_ROWS: u64 = 512;
    let mut d = DiskBlocks::open(dir, SITE_ROWS, BLOCK).expect("open");
    d.set_checkpoint_bytes(u64::MAX);
    let mut machine = site_machine(SITE_ROWS);
    let mut row = 0u64;
    let commit_one = move |d: &mut DiskBlocks| {
        row = (row + 1) % SITE_ROWS;
        touch_one(&mut machine, row);
        d.write_owned(row, bytes::Bytes::from(vec![row as u8; BLOCK]))
            .expect("write");
        if !by_patch {
            return d
                .commit(|| machine.durable_snapshot().encode())
                .expect("commit");
        }
        match machine.drain_durable(d.meta()) {
            DurableDelta::Patch(patch) => d.commit_patch(patch),
            DurableDelta::Whole(blob) => d.commit(|| blob),
        }
        .expect("commit")
    };
    (d, commit_one)
}

/// Bytes per commit over sixteen of them, printed as two count rows
/// (`scripts/bench_check.sh` gates both exactly): `{row}_bytes`, the
/// records a commit logs, and `{row}_device_bytes`, what it puts on the
/// device, its records rounded up to the log's sector.
fn print_bytes_per_commit(
    row: &str,
    d: &mut DiskBlocks,
    commit_one: &mut impl FnMut(&mut DiskBlocks) -> bool,
) {
    commit_one(d); // a fresh store's first metadata record is the whole blob
    let before = d.stats();
    for _ in 0..16 {
        commit_one(d);
    }
    let after = d.stats();
    let records = (after.record_bytes - before.record_bytes) / 16;
    let device = (after.log_bytes - before.log_bytes) / 16;
    println!("bench {:50} {records:>12} B/commit", format!("{row}_bytes"));
    println!(
        "bench {:50} {device:>12} B/commit",
        format!("{row}_device_bytes")
    );
}

fn bench_disk(c: &mut Criterion) {
    let mut group = c.benchmark_group("disk_commit");

    // One acknowledged single-block write: a data-record append, a meta
    // record, a commit marker and one fdatasync.
    group.throughput(Throughput::Bytes(BLOCK as u64));
    group.bench_function("commit_1x4k", |bencher| {
        let dir = scratch("commit1");
        let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("open");
        let mut fill = 0u8;
        bencher.iter(|| {
            fill = fill.wrapping_add(1);
            d.write_owned(0, bytes::Bytes::from(vec![fill; BLOCK]))
                .expect("write");
            black_box(d.commit(|| vec![fill; 32]).expect("commit"));
        });
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
    });

    // The same write with the metadata a site really commits (see
    // `site_store`). The bytes lines are counts (scripts/bench_check.sh
    // gates them exactly): the records one such commit logs, and the
    // sectors it puts on the device.
    group.bench_function("commit_1x4k_site_meta_512", |bencher| {
        let dir = scratch("commit-site-meta");
        let (mut d, mut commit_one) = site_store(&dir, false);
        let name = "disk_commit/commit_1x4k_site_meta_512";
        print_bytes_per_commit(name, &mut d, &mut commit_one);
        bencher.iter(|| black_box(commit_one(&mut d)));
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
    });

    // The same commit the way a live site makes it: the machine says what
    // the write touched and the store is handed the patch. Same record,
    // so the bytes lines must equal the ones above.
    group.bench_function("commit_1x4k_site_patch_512", |bencher| {
        let dir = scratch("commit-site-patch");
        let (mut d, mut commit_one) = site_store(&dir, true);
        let name = "disk_commit/commit_1x4k_site_patch_512";
        print_bytes_per_commit(name, &mut d, &mut commit_one);
        bencher.iter(|| black_box(commit_one(&mut d)));
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
    });

    // The steady state: the log has been round once, so a commit lands on
    // the previous lap's records, not on the zeros the file was created
    // with, and its first metadata record patches the checkpointed blob.
    group.bench_function("commit_1x4k_site_meta_512_second_lap", |bencher| {
        let dir = scratch("commit-second-lap");
        let (mut d, mut commit_one) = site_store(&dir, false);
        for _ in 0..SECOND_LAP_WARMUP {
            commit_one(&mut d);
        }
        d.checkpoint().expect("checkpoint");
        bencher.iter(|| black_box(commit_one(&mut d)));
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
    });

    // Machine to metadata record, nothing else: what the write touched,
    // drained into the patch against the last encoding and applied to it
    // (the store's part, a few bytes of XOR), at a benchmark-sized site and
    // at one sixteen times the rows. The gates are ratios within this run:
    // the patch must not grow with the site (8192 / 512 <= 1.5), and must
    // beat the whole encode it replaced, the next row, at least 8x.
    group.throughput(Throughput::Elements(1));
    for rows in [512u64, 8192] {
        group.bench_function(format!("site_meta_patch_{rows}"), |bencher| {
            let mut machine = site_machine(rows);
            let DurableDelta::Whole(mut blob) = machine.drain_durable(&[]) else {
                panic!("a first drain is whole");
            };
            let mut row = 0u64;
            bencher.iter(|| {
                row = (row + 1) % rows;
                touch_one(&mut machine, row);
                match machine.drain_durable(&blob) {
                    DurableDelta::Patch(patch) => patch.apply(&mut blob),
                    DurableDelta::Whole(_) => panic!("a write changes no shape"),
                }
                black_box(blob.len());
            });
        });
    }
    group.bench_function("snapshot_encode_512", |bencher| {
        let mut machine = site_machine(512);
        let mut row = 0u64;
        bencher.iter(|| {
            row = (row + 1) % 512;
            touch_one(&mut machine, row);
            black_box(machine.durable_snapshot().encode());
        });
    });

    // Group commit: eight rows ride one log append and one fdatasync —
    // the batching the WAL rule makes safe.
    group.throughput(Throughput::Bytes((8 * BLOCK) as u64));
    group.bench_function("commit_8x4k_grouped", |bencher| {
        let dir = scratch("commit8");
        let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("open");
        let mut fill = 0u8;
        bencher.iter(|| {
            fill = fill.wrapping_add(1);
            for row in 0..8u64 {
                d.write_owned(row, bytes::Bytes::from(vec![fill; BLOCK]))
                    .expect("write");
            }
            black_box(d.commit(|| vec![fill; 32]).expect("commit"));
        });
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
    });

    // Restart cost: reopen a store whose log holds 64 committed
    // single-block batches. Open reads the log file, checksums and replays
    // the whole committed suffix, and ends the lap with a checkpoint — the
    // §3.4 recovery path a KillRestart exercises. That checkpoint retires
    // the 64 batches by moving `state.bin` to the next lap, so putting the
    // old `state.bin` back brings them to life for the next iteration.
    group.throughput(Throughput::Bytes((64 * BLOCK) as u64));
    group.bench_function("recover_open_64x4k_log", |bencher| {
        let dir = scratch("recover");
        {
            let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("open");
            for i in 0..64u64 {
                d.write_owned(i % ROWS, bytes::Bytes::from(vec![i as u8; BLOCK]))
                    .expect("write");
                d.commit(|| vec![i as u8; 32]).expect("commit");
            }
        }
        let first_lap = std::fs::read(dir.join("state.bin")).expect("state.bin");
        bencher.iter(|| {
            std::fs::write(dir.join("state.bin"), &first_lap).expect("state.bin");
            let d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen");
            assert_eq!(d.replayed_rows().len(), 64);
            black_box(d);
        });
        let _ = std::fs::remove_dir_all(&dir);
    });

    // The checkpoint that ends a lap: flush every dirty row to the block
    // file, fsync it, then install the next lap's `state.bin`. Measured over a fresh
    // 16-row dirty set each iteration.
    group.throughput(Throughput::Bytes((16 * BLOCK) as u64));
    group.bench_function("checkpoint_16x4k", |bencher| {
        let dir = scratch("checkpoint");
        let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("open");
        let mut fill = 0u8;
        bencher.iter(|| {
            fill = fill.wrapping_add(1);
            for row in 0..16u64 {
                d.write_owned(row, bytes::Bytes::from(vec![fill; BLOCK]))
                    .expect("write");
            }
            d.commit(|| vec![fill; 32]).expect("commit");
            d.checkpoint().expect("checkpoint");
            black_box(d.wal_bytes());
        });
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
    });

    group.finish();
}

criterion_group!(benches, bench_disk);
criterion_main!(benches);
