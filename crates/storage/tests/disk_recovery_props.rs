//! Property-based crash testing for [`DiskBlocks`] recovery-on-open.
//!
//! A crash is modelled as truncating `wal.log` at an arbitrary byte (a
//! torn final write) — for *any* history of group-committed batches and
//! *any* cut point, reopening must succeed and recover exactly the state
//! as of the last commit marker that survived the cut: batches are atomic
//! (all of a batch's rows and its metadata snapshot, or none of them),
//! which is precisely the all-or-nothing property the `CheckedCluster`
//! parity/UID invariants lean on — a site restarting mid-batch must never
//! expose a data row whose UID handshake was only half recorded.
//!
//! Mid-segment damage is different from a torn tail: if a committed
//! record lies *beyond* the corruption, acknowledged writes would be
//! silently dropped by "scan to first tear", so open must refuse with
//! [`DiskError::TornLog`] instead.
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
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const ROWS: u64 = 6;
const BLOCK: usize = 24;

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

/// `(offset, body tag, body length)` of every record of a well-formed log.
fn records(log: &[u8]) -> Vec<(usize, u8, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < log.len() {
        let len = u32::from_le_bytes(log[at..at + 4].try_into().expect("4 bytes")) as usize;
        out.push((at, log[at + 8], len));
        at += 8 + len;
    }
    out
}

fn arb_batches() -> impl Strategy<Value = Vec<Batch>> {
    proptest::collection::vec(
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
            }),
        1..8,
    )
}

/// Run `batches` through a fresh store, recording after each commit the
/// log length and the expected durable state (rows + meta) at that
/// boundary. Returns the boundaries, oldest first, including the empty
/// initial state at log length 0.
fn commit_history(dir: &PathBuf, batches: &[Batch]) -> Vec<(u64, BTreeMap<u64, u8>, Vec<u8>)> {
    let mut d = DiskBlocks::open(dir, ROWS, BLOCK).expect("fresh open");
    let mut rows: BTreeMap<u64, u8> = BTreeMap::new();
    let mut boundaries = vec![(0u64, rows.clone(), Vec::new())];
    for b in batches {
        for &(row, fill) in &b.writes {
            d.write_owned(row, Bytes::from(vec![fill; BLOCK]))
                .expect("in-range write");
            rows.insert(row, fill);
        }
        let meta = b.meta();
        d.commit(|| meta.clone()).expect("commit");
        boundaries.push((d.wal_bytes(), rows.clone(), meta));
    }
    boundaries
}

fn assert_state(d: &mut DiskBlocks, rows: &BTreeMap<u64, u8>, meta: &[u8]) {
    for row in 0..ROWS {
        let want = rows.get(&row).map_or(vec![0u8; BLOCK], |&f| vec![f; BLOCK]);
        let got = d.read(row).expect("in-range read");
        assert_eq!(&got[..], &want[..], "row {row}");
    }
    assert_eq!(d.meta(), meta);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any prefix-truncation of the log recovers exactly the newest fully
    /// committed boundary at or below the cut — batches are atomic, the
    /// torn tail is discarded, and the reopened store accepts new commits.
    #[test]
    fn any_log_truncation_recovers_a_commit_boundary(
        batches in arb_batches(),
        cut_sel in any::<u64>(),
    ) {
        let dir = tmpdir();
        let boundaries = commit_history(&dir, &batches);
        let full = boundaries.last().expect("at least the empty boundary").0;
        let cut = cut_sel % (full + 1);
        let wal = dir.join("wal.log");
        let bytes = fs::read(&wal).expect("read log");
        prop_assert_eq!(bytes.len() as u64, full);
        fs::write(&wal, &bytes[..cut as usize]).expect("truncate log");

        let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen after tear");
        let (_, rows, meta) = boundaries
            .iter()
            .rev()
            .find(|&&(len, _, _)| len <= cut)
            .expect("boundary 0 is always <= cut");
        assert_state(&mut d, rows, meta);

        // The tear must leave a clean append point: one more commit and
        // reopen lands on the new state.
        d.write_owned(0, Bytes::from(vec![0xEE; BLOCK])).expect("post-tear write");
        d.commit(|| b"post".to_vec()).expect("post-tear commit");
        drop(d);
        let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen after append");
        prop_assert_eq!(&d.read(0).expect("read row 0")[..], &[0xEE; BLOCK][..]);
        prop_assert_eq!(d.meta(), b"post");
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Truncation composed with a checkpoint: rows that reached
    /// `blocks.dat` survive any log cut, and the replayed suffix sits on
    /// top of them — never behind them.
    #[test]
    fn truncation_after_checkpoint_keeps_checkpointed_rows(
        before in arb_batches(),
        after in arb_batches(),
        cut_sel in any::<u64>(),
    ) {
        let dir = tmpdir();
        // Phase 1: commit, then checkpoint everything into blocks.dat.
        let mut base_rows: BTreeMap<u64, u8> = BTreeMap::new();
        let mut base_meta = Vec::new();
        {
            let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("fresh open");
            for b in &before {
                for &(row, fill) in &b.writes {
                    d.write_owned(row, Bytes::from(vec![fill; BLOCK])).expect("write");
                    base_rows.insert(row, fill);
                }
                base_meta = b.meta();
                d.commit(|| base_meta.clone()).expect("commit");
            }
            d.checkpoint().expect("checkpoint");
            prop_assert_eq!(d.wal_bytes(), 0);
            // Phase 2: more batches, logged but not checkpointed.
            let mut rows = base_rows.clone();
            let mut boundaries = vec![(0u64, rows.clone(), base_meta.clone())];
            for b in &after {
                for &(row, fill) in &b.writes {
                    d.write_owned(row, Bytes::from(vec![fill; BLOCK])).expect("write");
                    rows.insert(row, fill);
                }
                let meta = b.meta();
                d.commit(|| meta.clone()).expect("commit");
                boundaries.push((d.wal_bytes(), rows.clone(), meta));
            }
            drop(d);
            let wal = dir.join("wal.log");
            let bytes = fs::read(&wal).expect("read log");
            let cut = cut_sel % (bytes.len() as u64 + 1);
            fs::write(&wal, &bytes[..cut as usize]).expect("truncate log");
            let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen after tear");
            let (_, rows, meta) = boundaries
                .iter()
                .rev()
                .find(|&&(len, _, _)| len <= cut)
                .expect("checkpoint boundary is always <= cut");
            assert_state(&mut d, rows, meta);
        }
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Damage strictly before the final commit marker — a flipped byte
    /// with committed records beyond it — must be reported as `TornLog`,
    /// never silently absorbed as a shorter history.
    #[test]
    fn mid_log_corruption_with_commits_beyond_is_torn(
        batches in arb_batches(),
        flip_sel in any::<u64>(),
    ) {
        let dir = tmpdir();
        commit_history(&dir, &batches);
        let wal = dir.join("wal.log");
        let mut bytes = fs::read(&wal).expect("read log");
        // Every batch ends in a 9-byte commit record, so the last marker
        // starts at len - 9; any flip strictly before it leaves committed
        // state beyond the damage.
        let last_marker = bytes.len() as u64 - 9;
        prop_assume!(last_marker > 0);
        let flip = (flip_sel % last_marker) as usize;
        bytes[flip] ^= 0x01;
        fs::write(&wal, &bytes).expect("corrupt log");
        match DiskBlocks::open(&dir, ROWS, BLOCK) {
            Err(DiskError::TornLog { .. }) => {}
            Ok(_) => prop_assert!(false, "corrupt log at byte {} opened clean", flip),
            Err(other) => prop_assert!(false, "expected TornLog, got {:?}", other),
        }
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Commit `meta` with one block write, so the batch is never empty.
fn commit_meta(d: &mut DiskBlocks, meta: &[u8]) {
    d.write_owned(0, Bytes::from(vec![meta[5]; BLOCK]))
        .expect("in-range write");
    assert!(d.commit(|| meta.to_vec()).expect("commit"));
}

/// The metadata record tags of the log in `dir`, in order.
fn meta_tags(dir: &std::path::Path) -> Vec<u8> {
    records(&fs::read(dir.join("wal.log")).expect("read log"))
        .into_iter()
        .map(|(_, tag, _)| tag)
        .filter(|&tag| tag == REC_META || tag == REC_META_PATCH)
        .collect()
}

/// Which record each kind of commit logs, and that patches compose: over a
/// length change, over a checkpoint, and over a checkpoint that crashed
/// between replacing `state.bin` and truncating the log.
#[test]
fn patches_and_snapshots_alternate_and_compose_across_a_checkpoint() {
    let dir = tmpdir();
    let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("fresh open");
    commit_meta(&mut d, &blob(1, false)); // first record of the log: full
    commit_meta(&mut d, &blob(2, false)); // same length: patch
    commit_meta(&mut d, &blob(2, true)); // length change: full
    commit_meta(&mut d, &blob(3, true)); // patch
    commit_meta(&mut d, &blob(3, true)); // unchanged: no record
    assert_eq!(
        meta_tags(&dir),
        [REC_META, REC_META_PATCH, REC_META, REC_META_PATCH]
    );
    let a_patch = records(&fs::read(dir.join("wal.log")).expect("read log"))
        .into_iter()
        .find(|&(_, tag, _)| tag == REC_META_PATCH)
        .expect("a patch record");
    assert!(
        a_patch.2 < 48,
        "a patch is smaller than the blob it stands for"
    );
    let log_before_checkpoint = fs::read(dir.join("wal.log")).expect("read log");
    d.checkpoint().expect("checkpoint");
    drop(d);
    assert_eq!(
        fs::read(dir.join("state.bin")).expect("state.bin"),
        blob(3, true)
    );

    // The checkpoint crashed before truncating the log: the newer
    // `state.bin` sits under the whole older log, which must replay from
    // its own first (full) record to the same blob.
    fs::write(dir.join("wal.log"), &log_before_checkpoint).expect("restore log");
    let mut d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen over a stale log");
    assert_eq!(d.meta(), &blob(3, true)[..]);
    d.checkpoint().expect("checkpoint again");

    // After a checkpoint the log is empty: its first metadata record is
    // full again, whatever the lengths, and patches resume behind it.
    commit_meta(&mut d, &blob(4, true));
    commit_meta(&mut d, &blob(5, true));
    commit_meta(&mut d, &blob(6, true));
    assert_eq!(meta_tags(&dir), [REC_META, REC_META_PATCH, REC_META_PATCH]);
    drop(d);
    let d = DiskBlocks::open(&dir, ROWS, BLOCK).expect("reopen");
    assert_eq!(d.meta(), &blob(6, true)[..]);
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
    drop(d);
    let wal = dir.join("wal.log");
    let mut log = fs::read(&wal).expect("read log");
    let (at, _, len) = records(&log)
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
/// replay has materialised is an error, not a guess: splice a patch cut
/// for a 48-byte blob behind a 72-byte snapshot (every record keeps its
/// own valid CRC, so only the patch's own base-length field can tell).
#[test]
fn a_patch_with_the_wrong_base_length_is_an_error() {
    let (short_dir, long_dir) = (tmpdir(), tmpdir());
    let mut short = DiskBlocks::open(&short_dir, ROWS, BLOCK).expect("fresh open");
    commit_meta(&mut short, &blob(1, false));
    let first_batch = short.wal_bytes() as usize;
    commit_meta(&mut short, &blob(2, false));
    drop(short);
    let mut long = DiskBlocks::open(&long_dir, ROWS, BLOCK).expect("fresh open");
    commit_meta(&mut long, &blob(1, true));
    drop(long);

    let patch_batch = &fs::read(short_dir.join("wal.log")).expect("read log")[first_batch..];
    assert!(records(patch_batch)
        .iter()
        .any(|&(_, tag, _)| tag == REC_META_PATCH));
    let wal = long_dir.join("wal.log");
    let mut spliced = fs::read(&wal).expect("read log");
    let patch_at = spliced.len() as u64;
    spliced.extend_from_slice(patch_batch);
    fs::write(&wal, &spliced).expect("splice log");
    match DiskBlocks::open(&long_dir, ROWS, BLOCK) {
        Err(DiskError::MetaPatch { at }) => assert!(at >= patch_at),
        other => panic!("expected MetaPatch, got {other:?}"),
    }
    fs::remove_dir_all(&short_dir).expect("cleanup");
    fs::remove_dir_all(&long_dir).expect("cleanup");
}
