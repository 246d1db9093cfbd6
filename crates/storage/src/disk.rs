//! `DiskBlocks` — a durable on-disk [`Blocks`] backend (§3.4 made real).
//!
//! Every runtime so far kept site storage in memory: a killed site came
//! back with perfect recall, so the paper's crash-recovery interaction
//! could never be tested end-to-end. `DiskBlocks` persists a site's rows
//! and its machine metadata in a directory:
//!
//! * **`wal.log`** — a checksummed, length-prefixed write-ahead log.
//!   Block writes stage in memory and land here on [`commit`]
//!   (group commit: the whole batch, its metadata record and the commit
//!   marker are assembled in one buffer — each staged payload is copied
//!   into it once — and go out as one append + one `fdatasync`). Records
//!   reuse the `[len u32][crc32 u32][body]` framing of
//!   [`wal.rs`](crate::wal)'s log. The metadata blob is opaque here, but
//!   the log records *what changed* in it: when a commit's blob has the
//!   length of the committed one, the record is the XOR span list between
//!   the two (`REC_META_PATCH`, a [`ChangeMask`] in wire form) and the full
//!   blob (`REC_META`) is the fallback for a length change, for a patch
//!   that would not be smaller, and for the first metadata record of every
//!   log — so a log replays from its own first record whatever `state.bin`
//!   holds (a crash between the checkpoint's rename and its truncation
//!   leaves a newer snapshot under an older log).
//! * **`blocks.dat`** — the fixed-geometry block file (`rows × block_size`
//!   bytes), updated by pwrite-at-offset only at [`checkpoint`] time, and
//!   only for rows whose log records are already durable (the write-ahead
//!   rule).
//! * **`state.bin`** — the metadata snapshot as of the last checkpoint,
//!   replaced atomically (write-temp, fsync, rename) so a crash never
//!   leaves a half-written snapshot.
//!
//! Recovery-on-open replays the committed log suffix over the block file
//! and materialises the newest metadata blob: a batch's blocks and its
//! metadata record are staged until its commit marker, where a full record
//! replaces the blob and a patch is `XORed` into it. A committed patch that
//! does not fit the blob it lands on (wrong base length, or no full record
//! before it in the log) is damage and fails the open with
//! [`DiskError::MetaPatch`] — never garbage state. A torn tail — a
//! partially written final batch — is *discarded*, exactly as §3.4's
//! recovery discards loser transactions; but if any committed record lies
//! **beyond** the tear, the log is genuinely corrupt (bit rot, not a torn
//! write) and open fails with [`DiskError::TornLog`] rather than silently
//! dropping acknowledged writes.
//!
//! [`commit`]: DiskBlocks::commit
//! [`checkpoint`]: DiskBlocks::checkpoint

use bytes::Bytes;
use radd_blockdev::checksum::{crc32, crc32_finish, crc32_init, crc32_update};
use radd_parity::ChangeMask;
use radd_protocol::{BlockFault, Blocks, MemBlocks};
use std::collections::BTreeSet;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Record body tags in `wal.log`.
const REC_BLOCK: u8 = 1;
const REC_META: u8 = 2;
const REC_COMMIT: u8 = 3;
const REC_META_PATCH: u8 = 4;

/// Checkpoint once the log outgrows this many bytes (tunable per store).
const DEFAULT_CHECKPOINT_BYTES: u64 = 4 << 20;

/// Errors opening or committing a [`DiskBlocks`] store.
#[derive(Debug)]
pub enum DiskError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A corrupt record was found with committed records beyond it — the
    /// log is damaged, not merely torn, and replay refuses to guess.
    TornLog {
        /// Byte offset of the corrupt record.
        at: u64,
    },
    /// A committed metadata patch does not apply to the blob replay had
    /// materialised when it reached it.
    MetaPatch {
        /// Byte offset of the patch record.
        at: u64,
    },
    /// The store on disk was created with a different geometry.
    Geometry {
        /// Rows × block size found on disk.
        found: u64,
        /// Rows × block size the caller asked for.
        expected: u64,
    },
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Io(e) => write!(f, "disk store I/O: {e}"),
            DiskError::TornLog { at } => {
                write!(
                    f,
                    "corrupt log record at byte {at} with committed records beyond it"
                )
            }
            DiskError::MetaPatch { at } => {
                write!(
                    f,
                    "metadata patch at byte {at} does not fit the snapshot before it"
                )
            }
            DiskError::Geometry { found, expected } => {
                write!(f, "block file is {found} bytes, geometry needs {expected}")
            }
        }
    }
}

impl std::error::Error for DiskError {}

impl From<std::io::Error> for DiskError {
    fn from(e: std::io::Error) -> DiskError {
        DiskError::Io(e)
    }
}

/// Scan `buf` from byte `from` for any validly framed record whose body
/// satisfies `is_commit`. Used when a scan hits a corrupt record: a torn
/// *tail* has nothing committed beyond the tear and may be discarded,
/// while a valid commit record further on means committed state would be
/// silently lost — which callers must report instead.
///
/// The scan re-synchronises byte by byte; a false positive needs a sane
/// length field *and* a matching CRC-32 at the same offset, so random
/// damage is rejected with probability ~1 − 2⁻³².
pub(crate) fn committed_record_beyond(
    buf: &[u8],
    from: usize,
    is_commit: impl Fn(&[u8]) -> bool,
) -> Option<u64> {
    let mut at = from;
    while at + 8 <= buf.len() {
        let len = u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]) as usize;
        let crc = u32::from_le_bytes([buf[at + 4], buf[at + 5], buf[at + 6], buf[at + 7]]);
        if let Some(body) = buf.get(at + 8..at + 8 + len) {
            if crc32(body) == crc && is_commit(body) {
                return Some(at as u64);
            }
        }
        at += 1;
    }
    None
}

/// Append one `[len][crc][head ++ payload]` record to `out`.
fn put_record(out: &mut Vec<u8>, head: &[u8], payload: &[u8]) {
    let crc = crc32_finish(crc32_update(crc32_update(crc32_init(), head), payload));
    out.extend_from_slice(&((head.len() + payload.len()) as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(head);
    out.extend_from_slice(payload);
}

/// A staged-but-uncommitted block write.
#[derive(Debug)]
struct Staged {
    row: u64,
    data: Bytes,
}

/// The durable on-disk block store. See the module docs for the layout.
#[derive(Debug)]
pub struct DiskBlocks {
    dir: PathBuf,
    rows: u64,
    block_size: usize,
    data: File,
    wal: File,
    wal_len: u64,
    /// Committed + staged view of every row (`None` = read through to
    /// `blocks.dat` on demand).
    cache: MemBlocks,
    /// Rows ever written this session (drives lazy read-through).
    loaded: Vec<bool>,
    staged: Vec<Staged>,
    /// Rows committed to the log but not yet checkpointed into `blocks.dat`.
    dirty: BTreeSet<u64>,
    /// The durably committed metadata blob (opaque to this layer).
    meta: Vec<u8>,
    /// The log holds a full `REC_META` record, so replay reaches a known
    /// blob before any patch: the condition for logging one.
    patch_base_logged: bool,
    /// Rows replayed from the committed log suffix at open — the §3.4
    /// recovery reads a driver should account as `IoPurpose::LogReplay`.
    replayed: Vec<u64>,
    checkpoint_bytes: u64,
}

impl DiskBlocks {
    /// Open (or create) the store in `dir` with the given geometry,
    /// replaying any committed log suffix left by a crash.
    pub fn open(
        dir: impl AsRef<Path>,
        rows: u64,
        block_size: usize,
    ) -> Result<DiskBlocks, DiskError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let expected = rows * block_size as u64;
        let data = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("blocks.dat"))?;
        let found = data.metadata()?.len();
        if found == 0 {
            data.set_len(expected)?;
        } else if found != expected {
            return Err(DiskError::Geometry { found, expected });
        }
        let meta = match fs::read(dir.join("state.bin")) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("wal.log"))?;
        let mut log = Vec::new();
        wal.read_to_end(&mut log)?;
        let mut store = DiskBlocks {
            dir,
            rows,
            block_size,
            data,
            wal,
            wal_len: log.len() as u64,
            cache: MemBlocks::new(rows, block_size),
            loaded: vec![false; rows as usize],
            staged: Vec::new(),
            dirty: BTreeSet::new(),
            meta,
            patch_base_logged: false,
            replayed: Vec::new(),
            checkpoint_bytes: DEFAULT_CHECKPOINT_BYTES,
        };
        store.replay(&log)?;
        Ok(store)
    }

    /// Replay the committed suffix of `log`: records apply in order, but
    /// only up to the last commit marker; a torn tail past it is cut off.
    fn replay(&mut self, log: &[u8]) -> Result<(), DiskError> {
        let mut batch: Vec<(u64, Bytes)> = Vec::new();
        // The batch's metadata record: (log offset, body with its tag).
        let mut batch_meta: Option<(usize, &[u8])> = None;
        let mut at = 0usize;
        let mut durable_end = 0usize;
        loop {
            if at == log.len() {
                break;
            }
            let torn_now = |a: usize| {
                if committed_record_beyond(log, a, |body| body.first() == Some(&REC_COMMIT))
                    .is_some()
                {
                    Err(DiskError::TornLog { at: a as u64 })
                } else {
                    Ok(())
                }
            };
            let Some(hdr) = log.get(at..at + 8) else {
                torn_now(at)?;
                break;
            };
            let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
            let crc = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]);
            let Some(body) = log.get(at + 8..at + 8 + len) else {
                torn_now(at)?;
                break;
            };
            if crc32(body) != crc {
                torn_now(at + 1)?;
                break;
            }
            match body.first() {
                Some(&REC_BLOCK) if body.len() >= 9 => {
                    let row = u64::from_le_bytes(body[1..9].try_into().expect("8 bytes"));
                    if row < self.rows && body.len() - 9 == self.block_size {
                        batch.push((row, Bytes::copy_from_slice(&body[9..])));
                    } else {
                        torn_now(at + 1)?;
                        break;
                    }
                }
                Some(&(REC_META | REC_META_PATCH)) => batch_meta = Some((at, body)),
                Some(&REC_COMMIT) => {
                    for (row, data) in batch.drain(..) {
                        self.replayed.push(row);
                        self.dirty.insert(row);
                        self.loaded[row as usize] = true;
                        let _ = self.cache.write_owned(row, data);
                    }
                    match batch_meta.take() {
                        Some((_, [REC_META, blob @ ..])) => {
                            self.meta = blob.to_vec();
                            self.patch_base_logged = true;
                        }
                        Some((rec_at, [_, patch @ ..])) => {
                            let fits = self.patch_base_logged
                                && ChangeMask::apply_wire(patch, &mut self.meta).is_some();
                            if !fits {
                                return Err(DiskError::MetaPatch { at: rec_at as u64 });
                            }
                        }
                        _ => {}
                    }
                    durable_end = at + 8 + len;
                }
                _ => {
                    torn_now(at + 1)?;
                    break;
                }
            }
            at += 8 + len;
        }
        // Cut the torn/uncommitted tail so the next append starts at a
        // record boundary.
        if (durable_end as u64) < self.wal_len {
            self.wal.set_len(durable_end as u64)?;
            self.wal.sync_data()?;
            self.wal_len = durable_end as u64;
            // Reposition the cursor: after `read_to_end` it sits at the old
            // EOF, and appending there would leave a hole of zero bytes.
            self.wal.seek(SeekFrom::Start(durable_end as u64))?;
        }
        Ok(())
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The durably committed metadata blob (empty for a fresh store).
    pub fn meta(&self) -> &[u8] {
        &self.meta
    }

    /// Rows replayed from the log when the store was opened.
    pub fn replayed_rows(&self) -> &[u64] {
        &self.replayed
    }

    /// Current size of the write-ahead log in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_len
    }

    /// Set the log size that triggers an automatic checkpoint at commit.
    pub fn set_checkpoint_bytes(&mut self, bytes: u64) {
        self.checkpoint_bytes = bytes;
    }

    fn read_through(&mut self, row: u64) -> Result<(), DiskError> {
        if !self.loaded[row as usize] {
            let mut buf = vec![0u8; self.block_size];
            self.data
                .read_exact_at(&mut buf, row * self.block_size as u64)?;
            let _ = self.cache.write_owned(row, Bytes::from(buf));
            self.loaded[row as usize] = true;
        }
        Ok(())
    }

    /// True while block writes are staged that no [`commit`] has logged.
    ///
    /// [`commit`]: DiskBlocks::commit
    pub fn has_staged(&self) -> bool {
        !self.staged.is_empty()
    }

    /// The span list taking the committed blob to `new`, when the log may
    /// carry one in place of `new` itself and it is the smaller of the two.
    fn meta_patch(&self, new: &[u8]) -> Option<Bytes> {
        if !self.patch_base_logged || new.len() != self.meta.len() {
            return None;
        }
        let patch = ChangeMask::diff(&self.meta, new).encode();
        (patch.len() < new.len()).then_some(patch)
    }

    /// Group-commit every staged write plus the caller's metadata snapshot:
    /// one log append, one `fdatasync`. Returns `true` if anything was
    /// forced (false = nothing staged and metadata unchanged). `meta` is
    /// invoked on every call — the blob is what "unchanged" is judged by —
    /// so a caller that already knows nothing changed should not call at
    /// all (the site loops go by [`has_staged`] and the machine's
    /// `durable_version`).
    ///
    /// [`has_staged`]: DiskBlocks::has_staged
    pub fn commit(&mut self, meta: impl FnOnce() -> Vec<u8>) -> Result<bool, DiskError> {
        let meta = meta();
        let meta_changed = meta != self.meta;
        if self.staged.is_empty() && !meta_changed {
            return Ok(false);
        }
        // Assemble the batch in one buffer (payloads are copied into it;
        // the CRC folds over header-then-payload without a second pass).
        let staged = std::mem::take(&mut self.staged);
        // Room for the block records, a typical patch and the marker.
        let blocks_len: usize = staged.iter().map(|s| 17 + s.data.len()).sum();
        let mut out: Vec<u8> = Vec::with_capacity(blocks_len + 256);
        for s in &staged {
            let mut head = [REC_BLOCK; 9];
            head[1..].copy_from_slice(&s.row.to_le_bytes());
            put_record(&mut out, &head, &s.data);
        }
        let mut full_meta = false;
        if meta_changed {
            if let Some(patch) = self.meta_patch(&meta) {
                put_record(&mut out, &[REC_META_PATCH], &patch);
            } else {
                put_record(&mut out, &[REC_META], &meta);
                full_meta = true;
            }
        }
        put_record(&mut out, &[REC_COMMIT], &[]);
        self.wal.write_all(&out)?;
        self.wal.sync_data()?;
        self.wal_len += out.len() as u64;
        for s in staged {
            self.dirty.insert(s.row);
        }
        if meta_changed {
            self.meta = meta;
            self.patch_base_logged |= full_meta;
        }
        if self.wal_len > self.checkpoint_bytes {
            self.checkpoint()?;
        }
        Ok(true)
    }

    /// Push committed rows into `blocks.dat`, atomically replace the
    /// metadata snapshot, and truncate the log. Ordering honours the
    /// write-ahead rule: every row written here is already durable in the
    /// log; the log is only truncated after both the block file and the
    /// snapshot are synced.
    pub fn checkpoint(&mut self) -> Result<(), DiskError> {
        for row in std::mem::take(&mut self.dirty) {
            let block = self.cache.read(row).expect("MemBlocks never faults");
            debug_assert_eq!(block.len(), self.block_size);
            self.data
                .write_all_at(&block, row * self.block_size as u64)?;
        }
        self.data.sync_data()?;
        let tmp = self.dir.join("state.tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(&self.meta)?;
        f.sync_data()?;
        drop(f);
        fs::rename(&tmp, self.dir.join("state.bin"))?;
        File::open(&self.dir)?.sync_all()?;
        self.wal.set_len(0)?;
        self.wal.sync_data()?;
        self.wal.seek(SeekFrom::Start(0))?;
        self.wal_len = 0;
        self.patch_base_logged = false;
        Ok(())
    }
}

impl Blocks for DiskBlocks {
    fn read(&mut self, row: u64) -> Result<Bytes, BlockFault> {
        if row >= self.rows {
            return Err(BlockFault);
        }
        self.read_through(row).map_err(|_| BlockFault)?;
        self.cache.read(row)
    }

    fn write(&mut self, row: u64, data: &[u8]) -> Result<(), BlockFault> {
        self.write_owned(row, Bytes::copy_from_slice(data))
    }

    fn write_owned(&mut self, row: u64, data: Bytes) -> Result<(), BlockFault> {
        if row >= self.rows || data.len() != self.block_size {
            return Err(BlockFault);
        }
        self.loaded[row as usize] = true;
        self.cache.write_owned(row, data.clone())?;
        self.staged.push(Staged { row, data });
        Ok(())
    }
}

/// Which backend a runtime site should open — the `storage =` knob shared
/// by the threaded and socket runtimes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum StorageSpec {
    /// Volatile in-memory rows (the historical default; a killed site
    /// comes back with perfect recall, so kill/restart events are no-ops).
    #[default]
    Mem,
    /// Durable [`DiskBlocks`] store rooted at `dir`.
    Disk {
        /// Directory holding `wal.log`, `blocks.dat` and `state.bin`.
        dir: PathBuf,
    },
}

impl StorageSpec {
    /// The spec for one site under a shared root: `Mem` stays `Mem`, disk
    /// roots gain a `site-N` subdirectory.
    pub fn for_site(&self, site: usize) -> StorageSpec {
        match self {
            StorageSpec::Mem => StorageSpec::Mem,
            StorageSpec::Disk { dir } => StorageSpec::Disk {
                dir: dir.join(format!("site-{site}")),
            },
        }
    }

    /// Open the store this spec describes.
    pub fn open(&self, rows: u64, block_size: usize) -> Result<SiteStore, DiskError> {
        match self {
            StorageSpec::Mem => Ok(SiteStore::mem(rows, block_size)),
            StorageSpec::Disk { dir } => SiteStore::disk(dir, rows, block_size),
        }
    }
}

/// A site's store: memory-backed (the historical default) or disk-backed.
/// Runtime drivers hold one of these and call [`SiteStore::commit`] after
/// every handled event; the memory arm makes both calls free.
#[derive(Debug)]
pub enum SiteStore {
    /// Volatile in-memory rows ([`MemBlocks`]).
    Mem(MemBlocks),
    /// Durable rows + metadata in a [`DiskBlocks`] directory.
    Disk(DiskBlocks),
}

impl SiteStore {
    /// An in-memory store of the given geometry.
    pub fn mem(rows: u64, block_size: usize) -> SiteStore {
        SiteStore::Mem(MemBlocks::new(rows, block_size))
    }

    /// Open a durable store in `dir`.
    pub fn disk(
        dir: impl AsRef<Path>,
        rows: u64,
        block_size: usize,
    ) -> Result<SiteStore, DiskError> {
        Ok(SiteStore::Disk(DiskBlocks::open(dir, rows, block_size)?))
    }

    /// True for the disk-backed arm.
    pub fn is_durable(&self) -> bool {
        matches!(self, SiteStore::Disk(_))
    }

    /// The durable metadata blob, if this store has one and it is
    /// non-empty.
    pub fn meta(&self) -> Option<&[u8]> {
        match self {
            SiteStore::Mem(_) => None,
            SiteStore::Disk(d) => (!d.meta().is_empty()).then(|| d.meta()),
        }
    }

    /// Rows replayed from the log at open (empty for memory stores).
    pub fn replayed_rows(&self) -> &[u64] {
        match self {
            SiteStore::Mem(_) => &[],
            SiteStore::Disk(d) => d.replayed_rows(),
        }
    }

    /// True while a durable store holds block writes no commit has logged
    /// (never for memory stores, which have nothing to log).
    pub fn has_staged(&self) -> bool {
        match self {
            SiteStore::Mem(_) => false,
            SiteStore::Disk(d) => d.has_staged(),
        }
    }

    /// Group-commit staged writes with a metadata snapshot (no-op and
    /// `Ok(false)` for memory stores; `meta` is not invoked).
    pub fn commit(&mut self, meta: impl FnOnce() -> Vec<u8>) -> Result<bool, DiskError> {
        match self {
            SiteStore::Mem(_) => Ok(false),
            SiteStore::Disk(d) => d.commit(meta),
        }
    }
}

impl Blocks for SiteStore {
    fn read(&mut self, row: u64) -> Result<Bytes, BlockFault> {
        match self {
            SiteStore::Mem(m) => m.read(row),
            SiteStore::Disk(d) => d.read(row),
        }
    }

    fn write(&mut self, row: u64, data: &[u8]) -> Result<(), BlockFault> {
        match self {
            SiteStore::Mem(m) => m.write(row, data),
            SiteStore::Disk(d) => d.write(row, data),
        }
    }

    fn write_owned(&mut self, row: u64, data: Bytes) -> Result<(), BlockFault> {
        match self {
            SiteStore::Mem(m) => m.write_owned(row, data),
            SiteStore::Disk(d) => d.write_owned(row, data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "radd-disk-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn block(tag: u8, n: usize) -> Bytes {
        Bytes::from(vec![tag; n])
    }

    #[test]
    fn committed_writes_survive_reopen() {
        let dir = tmpdir("basic");
        {
            let mut d = DiskBlocks::open(&dir, 8, 32).unwrap();
            d.write_owned(3, block(7, 32)).unwrap();
            d.write_owned(5, block(9, 32)).unwrap();
            assert!(d.commit(|| b"meta-1".to_vec()).unwrap());
        }
        let mut d = DiskBlocks::open(&dir, 8, 32).unwrap();
        assert_eq!(&d.read(3).unwrap()[..], &block(7, 32)[..]);
        assert_eq!(&d.read(5).unwrap()[..], &block(9, 32)[..]);
        assert_eq!(&d.read(0).unwrap()[..], &[0u8; 32][..]);
        assert_eq!(d.meta(), b"meta-1");
        assert_eq!(d.replayed_rows(), &[3, 5]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_writes_vanish() {
        let dir = tmpdir("uncommitted");
        {
            let mut d = DiskBlocks::open(&dir, 4, 16).unwrap();
            d.write_owned(1, block(1, 16)).unwrap();
            d.commit(Vec::new).unwrap();
            d.write_owned(2, block(2, 16)).unwrap();
            // No commit: staged only.
        }
        let mut d = DiskBlocks::open(&dir, 4, 16).unwrap();
        assert_eq!(&d.read(1).unwrap()[..], &block(1, 16)[..]);
        assert_eq!(&d.read(2).unwrap()[..], &[0u8; 16][..]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_cleanly() {
        let dir = tmpdir("torn-tail");
        {
            let mut d = DiskBlocks::open(&dir, 4, 16).unwrap();
            d.write_owned(0, block(1, 16)).unwrap();
            d.commit(|| b"m1".to_vec()).unwrap();
            d.write_owned(1, block(2, 16)).unwrap();
            d.commit(|| b"m2".to_vec()).unwrap();
        }
        // Tear the final batch: chop bytes off the log tail.
        let wal = dir.join("wal.log");
        let full = fs::read(&wal).unwrap();
        fs::write(&wal, &full[..full.len() - 5]).unwrap();
        let mut d = DiskBlocks::open(&dir, 4, 16).unwrap();
        assert_eq!(&d.read(0).unwrap()[..], &block(1, 16)[..]);
        assert_eq!(
            &d.read(1).unwrap()[..],
            &[0u8; 16][..],
            "torn batch discarded"
        );
        assert_eq!(d.meta(), b"m1");
        // The tail was truncated; a fresh commit appends cleanly.
        d.write_owned(2, block(3, 16)).unwrap();
        d.commit(|| b"m3".to_vec()).unwrap();
        let mut d = DiskBlocks::open(&dir, 4, 16).unwrap();
        assert_eq!(&d.read(2).unwrap()[..], &block(3, 16)[..]);
        assert_eq!(d.meta(), b"m3");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_before_committed_records_is_reported() {
        let dir = tmpdir("mid-corrupt");
        {
            let mut d = DiskBlocks::open(&dir, 4, 16).unwrap();
            d.write_owned(0, block(1, 16)).unwrap();
            d.commit(Vec::new).unwrap();
            d.write_owned(1, block(2, 16)).unwrap();
            d.commit(Vec::new).unwrap();
        }
        // Flip a byte inside the *first* batch's payload: the second
        // batch's commit marker lies beyond the damage.
        let wal = dir.join("wal.log");
        let mut full = fs::read(&wal).unwrap();
        full[20] ^= 0xFF;
        fs::write(&wal, &full).unwrap();
        match DiskBlocks::open(&dir, 4, 16) {
            Err(DiskError::TornLog { .. }) => {}
            other => panic!("expected TornLog, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_moves_rows_to_block_file_and_truncates_log() {
        let dir = tmpdir("checkpoint");
        {
            let mut d = DiskBlocks::open(&dir, 4, 16).unwrap();
            d.write_owned(0, block(5, 16)).unwrap();
            d.commit(|| b"snap".to_vec()).unwrap();
            assert!(d.wal_bytes() > 0);
            d.checkpoint().unwrap();
            assert_eq!(d.wal_bytes(), 0);
        }
        assert_eq!(fs::metadata(dir.join("wal.log")).unwrap().len(), 0);
        assert_eq!(fs::read(dir.join("state.bin")).unwrap(), b"snap");
        let mut d = DiskBlocks::open(&dir, 4, 16).unwrap();
        assert_eq!(&d.read(0).unwrap()[..], &block(5, 16)[..]);
        assert_eq!(d.meta(), b"snap");
        assert!(d.replayed_rows().is_empty(), "nothing left to replay");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn automatic_checkpoint_at_threshold() {
        let dir = tmpdir("auto-ckpt");
        let mut d = DiskBlocks::open(&dir, 4, 16).unwrap();
        d.set_checkpoint_bytes(64);
        for i in 0..8u8 {
            d.write_owned(u64::from(i) % 4, block(i, 16)).unwrap();
            d.commit(Vec::new).unwrap();
        }
        assert!(d.wal_bytes() < 64, "log was checkpointed away");
        drop(d);
        let mut d = DiskBlocks::open(&dir, 4, 16).unwrap();
        assert_eq!(&d.read(3).unwrap()[..], &block(7, 16)[..]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unchanged_meta_and_empty_batch_skip_the_force() {
        let dir = tmpdir("skip");
        let mut d = DiskBlocks::open(&dir, 4, 16).unwrap();
        d.write_owned(0, block(1, 16)).unwrap();
        assert!(d.commit(|| b"m".to_vec()).unwrap());
        let len = d.wal_bytes();
        assert!(!d.commit(|| b"m".to_vec()).unwrap());
        assert_eq!(d.wal_bytes(), len, "no-op commit appended nothing");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        let dir = tmpdir("geometry");
        drop(DiskBlocks::open(&dir, 4, 16).unwrap());
        match DiskBlocks::open(&dir, 8, 16) {
            Err(DiskError::Geometry { found, expected }) => {
                assert_eq!(found, 64);
                assert_eq!(expected, 128);
            }
            other => panic!("expected Geometry, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn site_store_mem_commit_is_free_and_meta_less() {
        let mut s = SiteStore::mem(2, 8);
        s.write_owned(0, block(1, 8)).unwrap();
        assert!(!s.commit(|| panic!("meta must not be built")).unwrap());
        assert_eq!(s.meta(), None);
        assert!(!s.is_durable());
    }
}
