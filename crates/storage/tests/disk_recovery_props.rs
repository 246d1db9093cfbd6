//! Property-based crash testing for [`DiskBlocks`] recovery-on-open.
//!
//! `wal.log` is written in place and never truncated, so a crash does not
//! cut the file: it leaves **any subset of the last batch's sectors** on the
//! device, the rest still holding what was there before. The model here is
//! exactly that: the file before the last commit (old image), the file
//! after it (new image), and per 512-byte sector of the batch's byte range
//! a choice of one or the other. The generated histories run over laps of
//! a few batches, so they cross lap ends, and since a lap writes over the
//! half of the ring two laps back the old image under a batch is mostly
//! *valid records of an older lap*, not zeros. Every batch starts on a sector boundary and is padded with
//! zeros to the next one, and blocks are sized so that a block record is
//! exactly one sector, which makes every tear a record-aligned splice: the
//! hardest case for a replay that trusts checksums. No batch shares a
//! sector with another, so a tear never reaches an acknowledged batch, and
//! the padding is never read as a record, whatever it holds.
//!
//! For *any* history and *any* subset, reopening must succeed and recover
//! the state at the commit boundary before the batch, or after it when every
//! sector landed: batches are atomic (all of a batch's rows and its
//! metadata, or none of them), which is precisely the all-or-nothing
//! property the `CheckedCluster` parity/UID invariants lean on — a site
//! restarting mid-batch must never expose a data row whose UID handshake
//! was only half recorded. The reopened store accepts commits, and a second
//! tear over the first one's leftovers still recovers a boundary.
//!
//! Mid-log damage is different from a tear: if a later batch was committed
//! *beyond* the corruption, acknowledged writes would be silently dropped by
//! "scan to first bad record", so open must refuse with
//! [`DiskError::TornLog`] instead.
//!
//! A lap's end writes back to `blocks.dat` only the rows whose newest
//! record is in the half the next lap writes over. A crash anywhere in it —
//! any subset of those rows written, `state.bin` old, a new `state.tmp`
//! beside the old one, or the new one — re-opens to every committed batch;
//! a row that every batch logs is never written back, and one logged once
//! is written back exactly when its half is recycled.
//!
//! Metadata is logged as what changed: a commit whose blob has the length
//! of the committed one logs an XOR span list (`REC_META_PATCH`), anything
//! else the whole blob (`REC_META`). The generated histories switch between
//! two blob lengths and repeat tags, so they mix patch commits, snapshot
//! commits and commits with no metadata record at all, and every property
//! above has to hold across the mix.

use bytes::Bytes;
use proptest::prelude::*;
use radd_protocol::Blocks;
use radd_storage::{DiskBlocks, DiskError};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const ROWS: u64 = 6;
const SECTOR: usize = 512;
/// A block record is `[len u32][crc u32][tag][row u64][image]`: one sector.
const BLOCK: usize = SECTOR - 17;
/// Auto-checkpoint threshold of the generated histories: a handful of
/// batches to a lap.
const LAP_BYTES: u64 = 4000;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn tmpdir() -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "radd-disk-props-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Record body tags, as `disk.rs` writes them (DESIGN.md §15).
const REC_META: u8 = 2;
const REC_COMMIT: u8 = 3;
const REC_META_PATCH: u8 = 4;

/// One committed batch: which rows it writes (with fill bytes) and its
/// metadata blob (a tag at two offsets of a blob of one of two lengths).
#[derive(Debug, Clone)]
struct Batch {
    writes: Vec<(u64, u8)>,
    meta_tag: u8,
    long_meta: bool,
}

/// A blob shaped like the real snapshot at this scale: mostly constant, a
/// few bytes that move, and a length that changes now and then. Two blobs
/// of one length differ in two short spans, so the patch between them is
/// smaller than either.
fn blob(tag: u8, long: bool) -> Vec<u8> {
    let mut m = vec![0x5A; if long { 72 } else { 48 }];
    m[5] = tag;
    m[40] = tag.rotate_left(3);
    m
}

impl Batch {
    fn meta(&self) -> Vec<u8> {
        blob(self.meta_tag, self.long_meta)
    }
}

/// `(offset, body tag, body length)` of every record of the current lap of
/// `d`'s log, whose head was at `head` (what lies beyond is an older lap's).
fn records(log: &[u8], d: &DiskBlocks, head: u64) -> Vec<(usize, u8, usize)> {
    let mut out = Vec::new();
    let mut at = d.lap_start() as usize;
    while at < head as usize {
        let len = u32::from_le_bytes(log[at..at + 4].try_into().expect("4 bytes")) as usize;
        out.push((at, log[at + 8], len));
        at += 8 + len;
        if log[at - len] == REC_COMMIT {
            at = at.next_multiple_of(SECTOR);
        }
    }
    out
}

fn arb_batch() -> impl Strategy<Value = Batch> {
    (
        proptest::collection::vec((0..ROWS, any::<u8>()), 1..4),
        // Few tags and a sticky length: most neighbours share a length
        // (patch), some repeat the blob (no record), some switch length
        // (full snapshot).
        0u8..4,
        0u8..4,
    )
        .prop_map(|(writes, meta_tag, len_sel)| Batch {
            writes,
            meta_tag,
            long_meta: len_sel == 0,
        })
}

/// At least eight batches of at least 529 bytes of records (two sectors on
/// the device) against [`LAP_BYTES`]: every history wraps the log at least
/// once.
fn arb_history() -> impl Strategy<Value = Vec<Batch>> {
    proptest::collection::vec(arb_batch(), 8..14)
}

/// Which sectors of a torn batch reached the device (bit `i` = the batch's
/// `i`-th sector; the widest batch here covers four).
fn arb_landed() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0u8), Just(0xFF), any::<u8>()]
}

/// The durable state a store should hold: row fills and the blob.
#[derive(Debug, Clone, Default)]
struct Model {
    rows: BTreeMap<u64, u8>,
    meta: Vec<u8>,
}

/// Where `d`'s next batch goes in `wal.log`.
fn head(d: &DiskBlocks) -> u64 {
    d.lap_start() + d.wal_bytes()
}

fn commit(d: &mut DiskBlocks, model: &mut Model, b: &Batch) {
    let start = head(d);
    assert!(
        start.is_multiple_of(SECTOR as u64),
        "a batch begins mid-sector, at {start}"
    );
    for &(row, fill) in &b.writes {
        d.write_owned(row, Bytes::from(vec![fill; BLOCK]))
            .expect("in-range write");
        model.rows.insert(row, fill);
    }
    model.meta = b.meta();
    d.commit(|| b.meta()).expect("commit");
}

fn assert_state(d: &mut DiskBlocks, want: &Model) {
    for row in 0..ROWS {
        let fill = want.rows.get(&row).copied().unwrap_or(0);
        let got = d.read(row).expect("in-range read");
        assert_eq!(&got[..], &vec![fill; BLOCK][..], "row {row}");
    }
    assert_eq!(d.meta(), &want.meta[..]);
}

/// Commit `b` and then undo part of it on disk: of the sectors its log
/// write touched, only those whose bit is set in `landed` keep the new
/// image. Consumes the store (the crash). Returns the batch's start offset
/// and the model the re-open must find: `after` if the file ended up whole,
/// `before` otherwise.
fn commit_torn(
    mut d: DiskBlocks,
    dir: &Path,
    model: &Model,
    b: &Batch,
    landed: u8,
) -> (u64, Model) {
    // The tear is of the log write, not of a lap end before it.
    d.set_checkpoint_bytes(u64::MAX);
    let wal = dir.join("wal.log");
    let old = fs::read(&wal).expect("read log");
    let (lap, start) = (d.lap_start(), head(&d) as usize);
    let mut after = model.clone();
    commit(&mut d, &mut after, b);
    assert_eq!(d.lap_start(), lap, "the batch ended no lap");
    let end = head(&d) as usize;
    drop(d);
    let new = fs::read(&wal).expect("read log");
    let mut torn = old;
    for (i, sector) in (start / SECTOR..=(end - 1) / SECTOR).enumerate() {
        if landed >> i & 1 == 1 {
            let span = sector * SECTOR..(sector + 1) * SECTOR;
            torn[span.clone()].copy_from_slice(&new[span]);
        }
    }
    let whole = torn[start..end] == new[start..end];
    fs::write(&wal, &torn).expect("tear log");
    let expect = if whole { after } else { model.clone() };
    (start as u64, expect)
}

/// Open a fresh store and run `history` through it over short laps.
fn run_history(dir: &Path, history: &[Batch]) -> (DiskBlocks, Model) {
    let mut d = DiskBlocks::open(dir, ROWS, BLOCK).expect("fresh open");
    d.set_checkpoint_bytes(LAP_BYTES);
    let mut model = Model::default();
    for b in history {
        commit(&mut d, &mut model, b);
    }
    (d, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any subset of the last batch's sectors recovers the commit boundary
    /// before the batch (after it, if the file came out whole), and the
    /// reopened store accepts commits that survive another re-open.
    #[test]
    fn any_sector_subset_of_the_last_batch_recovers_a_commit_boundary(
        history in arb_history(),
        last in arb_batch(),
        landed in arb_landed(),
    ) {
        let dir = tmpdir();
        let (d, model) = run_history(&dir, &history);
        let (_, mut expect) = commit_torn(d, &dir, &model, &last, landed);

        let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen after tear");
        assert_state(&mut d, &expect);

        let post = Batch { writes: vec![(0, 0xEE)], meta_tag: 9, long_meta: false };
        commit(&mut d, &mut expect, &post);
        drop(d);
        let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen after commit");
        assert_state(&mut d, &expect);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Two tears in a row at one offset: the second batch is written over
    /// what the first tear left, with the same block-record boundaries, so
    /// a sector mix is a sequence of whole block records from the two. The
    /// re-open between them ended the lap and a checkpoint brought the
    /// next one back to the same half, so the leftovers carry a dead salt
    /// and the result is the second batch or nothing, never a splice.
    #[test]
    fn a_second_tear_over_the_first_never_splices_a_batch(
        history in arb_history(),
        writes in 1usize..4,
        fills in proptest::collection::vec(any::<u8>(), 6..7),
        first_landed in any::<u8>(),
        second_landed in arb_landed(),
    ) {
        let dir = tmpdir();
        let (mut d, model) = run_history(&dir, &history);
        d.checkpoint().expect("checkpoint");
        // Same rows, same blob length, different contents: same layout.
        let shaped = |fills: &[u8]| Batch {
            writes: (0..writes).map(|i| (i as u64, fills[i])).collect(),
            meta_tag: fills[0] % 4,
            long_meta: model.meta.len() == 72,
        };
        let lap = d.lap_start();
        let (first_at, expect) = commit_torn(d, &dir, &model, &shaped(&fills[..3]), first_landed);
        let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen after first tear");
        assert_state(&mut d, &expect);
        d.checkpoint().expect("checkpoint back to the first tear's half");

        let (second_at, expect) = commit_torn(d, &dir, &expect, &shaped(&fills[3..]), second_landed);
        prop_assert_eq!((first_at, second_at), (lap, lap), "both tears at the head of a lap");
        let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen after second tear");
        assert_state(&mut d, &expect);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Damage under a later acknowledged batch — a flipped byte in any
    /// batch of the lap but its last — must be reported as `TornLog`, never
    /// silently absorbed as a shorter history.
    #[test]
    fn mid_log_corruption_with_a_commit_beyond_is_torn(
        history in arb_history(),
        tail in proptest::collection::vec(arb_batch(), 2..4),
        flip_sel in any::<u64>(),
    ) {
        let dir = tmpdir();
        let (mut d, mut model) = run_history(&dir, &history);
        // At least two batches in the final lap, whatever came before.
        d.checkpoint().expect("checkpoint");
        d.set_checkpoint_bytes(u64::MAX);
        let mut last_start = 0;
        for b in &tail {
            last_start = head(&d);
            commit(&mut d, &mut model, b);
        }
        let wal = dir.join("wal.log");
        let mut bytes = fs::read(&wal).expect("read log");
        // A byte of a record (the padding between batches is no record).
        let recorded: Vec<usize> = records(&bytes, &d, last_start)
            .into_iter()
            .flat_map(|(at, _, len)| at..at + 8 + len)
            .collect();
        drop(d);
        let flip = recorded[(flip_sel % recorded.len() as u64) as usize];
        bytes[flip] ^= 0x01;
        fs::write(&wal, &bytes).expect("corrupt log");
        match DiskBlocks::open(&dir, ROWS, BLOCK) {
            Err(DiskError::TornLog { .. }) => {}
            Ok(_) => prop_assert!(false, "corrupt log at byte {} opened clean", flip),
            Err(other) => prop_assert!(false, "expected TornLog, got {:?}", other),
        }
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// The padding after every batch of a lap, the last one's included, is
    /// zeros, and it is never read as a record: whatever a flipped bit
    /// makes of it, the log re-opens to every committed batch.
    #[test]
    fn padding_is_zeros_and_never_reads_as_a_record(
        history in arb_history(),
        tail in proptest::collection::vec(arb_batch(), 1..4),
        flip_sel in any::<u64>(),
        bit in 0u8..8,
    ) {
        let dir = tmpdir();
        let (mut d, mut model) = run_history(&dir, &history);
        d.checkpoint().expect("checkpoint");
        d.set_checkpoint_bytes(u64::MAX);
        for b in &tail {
            commit(&mut d, &mut model, b);
        }
        let wal = dir.join("wal.log");
        let mut bytes = fs::read(&wal).expect("read log");
        // From the end of each batch's marker to the next boundary.
        let padding: Vec<usize> = records(&bytes, &d, head(&d))
            .into_iter()
            .filter(|&(_, tag, _)| tag == REC_COMMIT)
            .flat_map(|(at, _, len)| at + 8 + len..(at + 8 + len).next_multiple_of(SECTOR))
            .collect();
        drop(d);
        prop_assert!(padding.iter().all(|&at| bytes[at] == 0), "padding is zeros");
        if !padding.is_empty() {
            bytes[padding[(flip_sel % padding.len() as u64) as usize]] ^= 1 << bit;
            fs::write(&wal, &bytes).expect("flip a padding bit");
        }
        let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen over flipped padding");
        assert_state(&mut d, &model);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A crash anywhere in a lap's end. Until the `blocks.dat` sync
    /// returns, the page cache may have written any subset of the rows
    /// written back, under the old `state.bin`; after it comes a new
    /// `state.tmp` beside the old `state.bin` (a rename not yet durable
    /// reads the same), then the new `state.bin`. Every one of these
    /// re-opens to every committed batch.
    #[test]
    fn a_crash_anywhere_in_a_lap_end_reopens_to_every_committed_batch(
        history in arb_history(),
        landed in any::<u8>(),
        stage in 0u8..3,
    ) {
        let dir = tmpdir();
        let (mut d, model) = run_history(&dir, &history);
        let read = |name: &str| fs::read(dir.join(name)).expect("read store file");
        let (old_blocks, old_state) = (read("blocks.dat"), read("state.bin"));
        let before = d.stats().written_back;
        d.checkpoint().expect("lap end");
        let written_back = d.stats().written_back - before;
        drop(d);
        let (new_blocks, new_state) = (read("blocks.dat"), read("state.bin"));
        // The rows the lap end wrote that changed a byte (a row written
        // back as it already was reads the same either way).
        let changed: Vec<usize> = (0..ROWS as usize)
            .filter(|&r| old_blocks[r * BLOCK..][..BLOCK] != new_blocks[r * BLOCK..][..BLOCK])
            .collect();
        prop_assert!(changed.len() as u64 <= written_back);
        let mut blocks = old_blocks;
        for (i, &r) in changed.iter().enumerate() {
            if stage > 0 || landed >> i & 1 == 1 {
                let span = r * BLOCK..(r + 1) * BLOCK;
                blocks[span.clone()].copy_from_slice(&new_blocks[span]);
            }
        }
        fs::write(dir.join("blocks.dat"), &blocks).expect("crash blocks.dat");
        match stage {
            0 => fs::write(dir.join("state.bin"), &old_state),
            1 => fs::write(dir.join("state.bin"), &old_state)
                .and_then(|()| fs::write(dir.join("state.tmp"), &new_state)),
            _ => Ok(()),
        }
        .expect("crash state.bin");
        let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen after the crash");
        assert_state(&mut d, &model);
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Stage `row` filled with `fill` and commit it, with no metadata record.
fn commit_row(d: &mut DiskBlocks, row: u64, fill: u8) {
    d.write_owned(row, Bytes::from(vec![fill; BLOCK]))
        .expect("in-range write");
    assert!(d.commit(Vec::new).expect("commit"));
}

/// A row every batch logs always has its newest record in the current lap,
/// so no lap end writes it back; a row logged once, in lap 1, is written
/// back exactly when lap 1's half is recycled: at the second lap end, and
/// by no other.
#[test]
fn a_row_every_batch_logs_is_never_written_back_and_one_logged_once_is_at_its_halfs_recycling() {
    let dir = tmpdir();
    let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("fresh open");
    d.set_checkpoint_bytes(LAP_BYTES);
    let on_disk = |row: usize| {
        fs::read(dir.join("blocks.dat")).expect("read")[row * BLOCK..][..BLOCK].to_vec()
    };
    d.write_owned(1, Bytes::from(vec![0x11; BLOCK]))
        .expect("in-range write");
    commit_row(&mut d, 0, 0);
    for fill in 1..=24u8 {
        commit_row(&mut d, 0, fill);
        let recycled = d.stats().checkpoints >= 2;
        let row1 = if recycled {
            vec![0x11; BLOCK]
        } else {
            vec![0; BLOCK]
        };
        assert_eq!(on_disk(1), row1, "after commit {fill}");
        assert_eq!(d.stats().written_back, u64::from(recycled));
        assert_eq!(on_disk(0), vec![0; BLOCK], "row 0 was written back");
    }
    assert!(
        d.stats().checkpoints >= 4,
        "the run crossed several lap ends"
    );
    drop(d);
    let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen");
    assert_eq!(&d.read(0).expect("row 0")[..], &[24u8; BLOCK][..]);
    assert_eq!(&d.read(1).expect("row 1")[..], &[0x11; BLOCK][..]);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Commit `meta` with one block write, so the batch is never empty.
fn commit_meta(d: &mut DiskBlocks, meta: &[u8]) {
    d.write_owned(0, Bytes::from(vec![meta[5]; BLOCK]))
        .expect("in-range write");
    assert!(d.commit(|| meta.to_vec()).expect("commit"));
}

/// The metadata record tags of the current lap of the log in `dir`.
fn meta_tags(d: &DiskBlocks) -> Vec<u8> {
    let log = fs::read(d.dir().join("wal.log")).expect("read log");
    records(&log, d, head(d))
        .into_iter()
        .map(|(_, tag, _)| tag)
        .filter(|&tag| tag == REC_META || tag == REC_META_PATCH)
        .collect()
}

/// Which record each kind of commit logs, and that patches compose: over a
/// length change and over a checkpoint, whose snapshot is the base of the
/// next lap's first patch.
#[test]
fn patches_and_snapshots_alternate_and_compose_across_a_checkpoint() {
    let dir = tmpdir();
    let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("fresh open");
    commit_meta(&mut d, &blob(1, false)); // no blob yet: full
    commit_meta(&mut d, &blob(2, false)); // same length: patch
    commit_meta(&mut d, &blob(2, true)); // length change: full
    commit_meta(&mut d, &blob(3, true)); // patch
    commit_meta(&mut d, &blob(3, true)); // unchanged: no record
    assert_eq!(
        meta_tags(&d),
        [REC_META, REC_META_PATCH, REC_META, REC_META_PATCH]
    );
    let log = fs::read(dir.join("wal.log")).expect("read log");
    let a_patch = records(&log, &d, head(&d))
        .into_iter()
        .find(|&(_, tag, _)| tag == REC_META_PATCH)
        .expect("a patch record");
    assert!(
        a_patch.2 < 48,
        "a patch is smaller than the blob it stands for"
    );
    d.checkpoint().expect("checkpoint");

    // The new lap patches the checkpointed snapshot: no full record.
    commit_meta(&mut d, &blob(4, true));
    commit_meta(&mut d, &blob(5, true));
    assert_eq!(meta_tags(&d), [REC_META_PATCH, REC_META_PATCH]);
    drop(d);
    let d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen");
    assert_eq!(d.meta(), &blob(5, true)[..]);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// A checkpoint does not touch the log: the whole previous lap still sits
/// in its half, every record intact, under a `state.bin` of the next lap.
/// Its blocks replay and its metadata records do not (the snapshot holds
/// what they did: applied again, a patch would undo itself). Once the lap
/// after it has ended too, it replays as empty.
#[test]
fn a_previous_lap_under_a_new_lap_snapshot_replays_its_blocks_only() {
    let dir = tmpdir();
    let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("fresh open");
    for tag in 1..=4 {
        commit_meta(&mut d, &blob(tag, false));
    }
    let logged = fs::read(dir.join("wal.log")).expect("read log");
    assert_eq!(records(&logged, &d, head(&d)).len(), 4 * 3);
    d.checkpoint().expect("checkpoint");
    drop(d);
    let after = fs::read(dir.join("wal.log")).expect("read log");
    assert_eq!(logged, after, "the checkpoint left the log alone");

    let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen");
    assert_eq!(d.replayed_rows(), [0, 0, 0, 0]);
    assert_eq!(d.meta(), &blob(4, false)[..]);
    assert_eq!(&d.read(0).expect("row 0")[..], &[4u8; BLOCK][..]);
    // The open ended the lap it found; one more end retires lap 1.
    d.checkpoint().expect("checkpoint");
    drop(d);
    let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen");
    assert!(d.replayed_rows().is_empty());
    assert_eq!(d.meta(), &blob(4, false)[..]);
    assert_eq!(&d.read(0).expect("row 0")[..], &[4u8; BLOCK][..]);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Damage under a later batch of the *previous* lap is `TornLog` too: that
/// lap's blocks are still only in the log.
#[test]
fn a_flipped_byte_under_a_later_batch_of_the_previous_lap_is_torn() {
    let dir = tmpdir();
    let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("fresh open");
    for tag in 1..=3 {
        commit_meta(&mut d, &blob(tag, false));
    }
    let log = fs::read(dir.join("wal.log")).expect("read log");
    let (at, _, _) = records(&log, &d, head(&d))[0];
    d.checkpoint().expect("checkpoint");
    commit_meta(&mut d, &blob(4, false));
    drop(d);
    let mut log = fs::read(dir.join("wal.log")).expect("read log");
    log[at + 20] ^= 0x01; // inside the first batch's block image
    fs::write(dir.join("wal.log"), &log).expect("corrupt log");
    match DiskBlocks::open(&dir, ROWS, BLOCK) {
        Err(DiskError::TornLog { .. }) => {}
        other => panic!("expected TornLog, got {other:?}"),
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// A flipped byte inside a patch record in the middle of the log is
/// damage with commits beyond it, like any other record's.
#[test]
fn a_flipped_byte_inside_a_mid_log_patch_is_torn() {
    let dir = tmpdir();
    let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("fresh open");
    for tag in 1..=4 {
        commit_meta(&mut d, &blob(tag, false));
    }
    let log = fs::read(dir.join("wal.log")).expect("read log");
    let records = records(&log, &d, head(&d));
    drop(d);
    let wal = dir.join("wal.log");
    let mut log = log;
    let (at, _, len) = records
        .into_iter()
        .find(|&(_, tag, _)| tag == REC_META_PATCH)
        .expect("the second commit logged a patch");
    log[at + 8 + len - 1] ^= 0x10; // the last payload byte of the patch
    fs::write(&wal, &log).expect("corrupt log");
    match DiskBlocks::open(&dir, ROWS, BLOCK) {
        Err(DiskError::TornLog { .. }) => {}
        other => panic!("expected TornLog, got {other:?}"),
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// A committed patch whose base length is not the length of the blob
/// replay has materialised is an error, not a guess: put a lap whose first
/// record is a patch cut for a 48-byte blob over a 72-byte snapshot of the
/// same lap number (every record keeps its own valid CRC and the marker its
/// offset, so only the patch's own base-length field can tell).
#[test]
fn a_patch_with_the_wrong_base_length_is_an_error() {
    let (short_dir, long_dir) = (tmpdir(), tmpdir());
    let mut short = DiskBlocks::open(&short_dir, ROWS, BLOCK).expect("fresh open");
    commit_meta(&mut short, &blob(1, false));
    short.checkpoint().expect("checkpoint");
    commit_meta(&mut short, &blob(2, false));
    assert_eq!(meta_tags(&short), [REC_META_PATCH]);
    drop(short);
    let mut long = DiskBlocks::open(&long_dir, ROWS, BLOCK).expect("fresh open");
    commit_meta(&mut long, &blob(1, true));
    long.checkpoint().expect("checkpoint");
    drop(long);

    fs::copy(short_dir.join("wal.log"), long_dir.join("wal.log")).expect("swap the log");
    match DiskBlocks::open(&long_dir, ROWS, BLOCK) {
        Err(DiskError::MetaPatch { .. }) => {}
        other => panic!("expected MetaPatch, got {other:?}"),
    }
    fs::remove_dir_all(&short_dir).expect("cleanup");
    fs::remove_dir_all(&long_dir).expect("cleanup");
}
