//! `DiskBlocks` — a durable on-disk [`Blocks`] backend (§3.4 made real).
//!
//! Every runtime so far kept site storage in memory: a killed site came
//! back with perfect recall, so the paper's crash-recovery interaction
//! could never be tested end-to-end. `DiskBlocks` persists a site's rows
//! and its machine metadata in a directory:
//!
//! * **`wal.log`** — a checksummed, length-prefixed write-ahead log in a
//!   file that is allocated once: created zero-filled and synced at
//!   4 MiB (`LOG_BYTES`), written in place, and never truncated. It is a
//!   **ring of two halves**: lap `L` fills one 2 MiB half from its start,
//!   and lap `L + 1` the other, over lap `L − 1`'s records (a batch larger
//!   than a half runs on past its half, growing the file by plain append
//!   from the second; DESIGN.md §15). In
//!   steady state a commit changes neither the file's size nor its extents,
//!   so its `fdatasync` carries no filesystem journal commit. Block writes
//!   stage in memory and land here on [`commit`] (group commit: the whole
//!   batch, its metadata record and the commit marker are assembled in one
//!   buffer — each staged payload is copied into it once — and go out as
//!   one positional write + one `fdatasync`). Records are
//!   `[len u32][crc32 u32][body]`, and every CRC is salted with the **lap
//!   number**: the bytes beyond a lap's head are older laps' records,
//!   intact, and the salt is what makes them invalid. The metadata blob is
//!   opaque here, but the log records *what changed* in it: when a commit's
//!   blob has the length of the committed one, the record is the XOR span
//!   list between the two (`REC_META_PATCH`, a [`ChangeMask`] in wire form)
//!   and the full blob (`REC_META`) is the fallback for a length change and
//!   for a patch that would not be smaller. A caller that knows what changed
//!   hands over that span list itself ([`commit_patch`]: a live site, whose
//!   machine journals what each message touched, so a commit costs what the
//!   message touched and not a compare and diff of the whole blob); one
//!   that does not hands over the blob and the store finds the list
//!   ([`commit`]). Same records either way, and the committed blob this
//!   store holds is the only copy of it anywhere.
//! * **`blocks.dat`** — the fixed-geometry block file (`rows × block_size`
//!   bytes), updated by pwrite-at-offset only when a lap ends, and only for
//!   rows whose newest record lies in the half the next lap is about to
//!   write over (the write-ahead rule: those records are durable, and no
//!   row is written back while a newer record of it is still in the log).
//!   A row not in memory is read past the page cache where it can be (see
//!   `open_direct_reads`), so a lap end's writes cost their rows and not
//!   the large folios readahead would have cached around them.
//! * **`state.bin`** — a header holding the store format version and the
//!   lap number, then the metadata snapshot as of the boundary that started
//!   that lap; replaced atomically (write-temp, fsync, rename), and that
//!   rename is the whole commit of a lap's end: it retires lap `L − 1`'s
//!   records and installs the base lap `L + 1`'s patches apply to in one
//!   step.
//!
//! **Write-back of what the log is about to overwrite.** A row rewritten
//! every few hundred commits — most rows, under the benchmark's uniform
//! keys — keeps its newest copy in the log and is never written back at
//! all; a row written once is written back exactly once, when the half
//! holding its record is recycled. That is why there are two halves and
//! not one lap of the whole file: a lap end of the single-lap layout had to
//! write back every row the lap dirtied.
//!
//! **Sector-aligned batches on a direct handle.** Every batch starts on a
//! 512-byte sector boundary and is padded with zeros to the next one, so a
//! commit puts its own sectors on the device and nothing more (a 4 KiB
//! write: nine sectors), and never rewrites a sector an earlier,
//! acknowledged batch lives in. The log is opened `O_DIRECT` where the
//! target and the filesystem allow it (the flag's value comes from the
//! target, so the handle needs neither `unsafe` nor libc): a commit skips
//! the page cache's copy, dirty tracking and writeback, and its write goes
//! from a store-owned buffer aligned to 4 KiB. Each open checks that the
//! direct handle takes a one-sector write, by writing one zero sector where
//! nothing live is. A filesystem that refuses `O_DIRECT` at open, or a
//! device or filesystem that refuses that write (sectors larger than 512
//! bytes, or a flag taken but not honoured), gets a buffered handle with
//! the same layout.
//!
//! Recovery-on-open replays the block records of the previous lap's whole
//! batches (the snapshot already holds their metadata), then the current
//! lap's committed batches over the block file and the snapshot: a batch's
//! blocks and its metadata record are staged until its commit marker,
//! where a full record replaces the blob and a patch is `XORed` into it,
//! and the next batch is looked for at the next sector boundary. A
//! committed patch that does not fit the blob it lands on is damage and
//! fails the open with [`DiskError::MetaPatch`] — never garbage state. The
//! sectors of a lap's last batch may have reached the device in any order,
//! so a tear is *any subset* of them (DESIGN.md §15): the marker names its
//! batch's start offset, a batch counts only whole, and anything less is
//! *discarded*, exactly as §3.4's recovery discards loser transactions. A
//! marker of the lap whose batch starts **beyond** the bad one proves a
//! later batch was acknowledged: the log is corrupt (bit rot, not a torn
//! write) and open fails with [`DiskError::TornLog`] rather than silently
//! dropping acknowledged writes. Nothing on disk says how far a torn batch
//! reached, so a re-open ends the lap before it accepts writes: what a
//! tear left behind can never splice into a later batch. A store whose
//! `state.bin` names a lap but whose log is gone or cut short is refused
//! ([`DiskError::LogLost`]), never opened empty.
//!
//! [`commit`]: DiskBlocks::commit
//! [`commit_patch`]: DiskBlocks::commit_patch
//! [`checkpoint`]: DiskBlocks::checkpoint

use bytes::Bytes;
use radd_parity::crc32::{crc32_finish, crc32_init, crc32_update};
use radd_parity::ChangeMask;
use radd_protocol::{BlockFault, Blocks, MemBlocks};
use std::collections::BTreeSet;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, ErrorKind, Write};
use std::os::unix::fs::{FileExt, OpenOptionsExt};
use std::path::{Path, PathBuf};

/// Record body tags in `wal.log`.
const REC_BLOCK: u8 = 1;
const REC_META: u8 = 2;
const REC_COMMIT: u8 = 3;
const REC_META_PATCH: u8 = 4;

/// A commit marker on disk: `[len][crc][REC_COMMIT, batch start u64]`.
const MARKER_BYTES: usize = 17;
/// Its length field: the body is all of it but the 8 framing bytes.
const MARKER_LEN: [u8; 4] = (MARKER_BYTES as u32 - 8).to_le_bytes();

/// Size `wal.log` is created at: the two halves of the ring.
const LOG_BYTES: usize = 4 << 20;

/// One half of the ring: the most a lap writes, unless one batch is larger.
const HALF: u64 = LOG_BYTES as u64 / 2;

/// `state.bin` is `[magic][lap u64][crc32 of lap ++ snapshot u32][snapshot]`;
/// the magic's last byte is the format version (3: the two-half ring).
const STATE_MAGIC: [u8; 8] = *b"RADDLAP\x03";

/// The sector every batch starts on and is padded to.
const SECTOR: usize = 512;
/// The alignment of every buffer the log is read into or written from.
const ALIGN: usize = 4096;

/// Linux's `O_DIRECT` on this target (its value differs by architecture);
/// elsewhere the log keeps a buffered handle.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "riscv64")
))]
const O_DIRECT: Option<i32> = Some(0o40000);
#[cfg(all(target_os = "linux", any(target_arch = "aarch64", target_arch = "arm")))]
const O_DIRECT: Option<i32> = Some(0o200000);
#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "riscv64",
        target_arch = "aarch64",
        target_arch = "arm"
    )
)))]
const O_DIRECT: Option<i32> = None;

/// Errors opening or committing a [`DiskBlocks`] store.
#[derive(Debug)]
pub enum DiskError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A corrupt record was found with committed records beyond it — the
    /// log is damaged, not merely torn, and replay refuses to guess.
    TornLog {
        /// Byte offset of the corrupt record.
        at: u64,
    },
    /// A metadata patch does not fit the blob it is for: at open, a
    /// committed one against what replay had materialised when it reached
    /// it; at [`DiskBlocks::commit_patch`], the caller's against the
    /// committed blob (nothing was written).
    MetaPatch {
        /// Byte offset of the patch record (where it would have gone).
        at: u64,
    },
    /// The store on disk was created with a different geometry.
    Geometry {
        /// Rows × block size found on disk.
        found: u64,
        /// Rows × block size the caller asked for.
        expected: u64,
    },
    /// `state.bin` is damaged, or the directory holds a store written by a
    /// version that appended to and truncated its log (no lap header).
    Format,
    /// `state.bin` was written in another version of the store format
    /// (version 1 packed its batches back to back, without sectors;
    /// version 2 ran each lap over the whole log, not over one half).
    Version {
        /// The version `state.bin` names.
        found: u8,
        /// The version this build reads and writes.
        expected: u8,
    },
    /// `state.bin` names a lap, but `wal.log`, which holds that lap's
    /// committed batches, is missing or shorter than every store's log is
    /// created: opening would silently lose acknowledged writes.
    LogLost {
        /// Length of the log found (0 when there is none).
        len: u64,
    },
    /// An earlier commit or checkpoint failed: what reached the device is
    /// unknown, so the store refuses further work until it is re-opened.
    Poisoned,
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
            DiskError::Format => write!(f, "no valid lap header in state.bin (older store?)"),
            DiskError::Version { found, expected } => write!(
                f,
                "state.bin is store format version {found}; this build reads version {expected}"
            ),
            DiskError::LogLost { len } => write!(
                f,
                "state.bin names a lap but wal.log is {len} of its {LOG_BYTES} bytes: \
                 its committed writes are gone"
            ),
            DiskError::Poisoned => write!(f, "an earlier commit failed; re-open to recover"),
        }
    }
}

impl std::error::Error for DiskError {}

impl From<io::Error> for DiskError {
    fn from(e: io::Error) -> DiskError {
        DiskError::Io(e)
    }
}

/// The file calls a test can make fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Opening the log `O_DIRECT`: failing it is a filesystem that refuses
    /// direct I/O, so the store falls back to a buffered handle.
    DirectOpen,
    /// The one-sector direct write each open makes: failing it is a device
    /// whose sectors are larger, so the store falls back the same way.
    DirectProbe,
    LogWrite,
    LogSync,
    /// One row's `pwrite` into `blocks.dat` at a lap's end.
    WriteBack,
    /// The `blocks.dat` sync after those writes.
    DataSync,
    StateWrite,
    StateRename,
    DirSync,
}

#[cfg(test)]
thread_local! {
    /// The failpoint: the call of this step on this thread after as many
    /// more as the count says fails.
    static FAIL_NEXT: std::cell::Cell<Option<(Step, u32)>> = const { std::cell::Cell::new(None) };
}

/// Called ahead of each file call a commit or a checkpoint makes, and of
/// the direct open and its probe; fails only in tests, when the failpoint
/// names `step` and its count has run down, with the error a filesystem
/// gives a flag it does not support.
fn failpoint(step: Step) -> io::Result<()> {
    #[cfg(test)]
    if let Some((armed, skip)) = FAIL_NEXT.get().filter(|&(armed, _)| armed == step) {
        FAIL_NEXT.set(skip.checked_sub(1).map(|skip| (armed, skip)));
        if skip == 0 {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                format!("failpoint {step:?}"),
            ));
        }
    }
    let _ = step;
    Ok(())
}

/// CRC state every record of lap `lap` starts from.
fn lap_seed(lap: u64) -> u32 {
    crc32_update(crc32_init(), &lap.to_le_bytes())
}

/// Where lap `lap`'s first batch goes: laps alternate between the ring's
/// halves, lap 1 (a new store's) in the first.
fn lap_start(lap: u64) -> u64 {
    (lap + 1) % 2 * HALF
}

/// Append one `[len][crc][head ++ payload]` record to `out`.
fn put_record(out: &mut Vec<u8>, seed: u32, head: &[u8], payload: &[u8]) {
    let crc = crc32_finish(crc32_update(crc32_update(seed, head), payload));
    out.extend_from_slice(&((head.len() + payload.len()) as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(head);
    out.extend_from_slice(payload);
}

/// The body of the record framed at `at`, if its CRC is this lap's.
fn record_at(log: &[u8], at: usize, seed: u32) -> Option<&[u8]> {
    let (len, rest) = log.get(at..)?.split_first_chunk::<4>()?;
    let (crc, rest) = rest.split_first_chunk::<4>()?;
    let body = rest.get(..u32::from_le_bytes(*len) as usize)?;
    (crc32_finish(crc32_update(seed, body)) == u32::from_le_bytes(*crc)).then_some(body)
}

/// True if a commit marker of this lap at or past `from` names a batch
/// that starts after `from`: proof that the batch at `from` was
/// acknowledged. The scan goes byte by byte, since nothing past a bad
/// record says where the next one starts; a false positive needs the
/// marker's length and tag bytes *and* a matching salted CRC-32.
fn later_batch_committed(log: &[u8], from: usize, seed: u32) -> bool {
    log.get(from..)
        .unwrap_or_default()
        .windows(MARKER_BYTES)
        .any(|w| {
            w[..4] == MARKER_LEN
                && w[8] == REC_COMMIT
                && record_at(w, 0, seed).is_some_and(|body| {
                    u64::from_le_bytes(body[1..].try_into().expect("9-byte body")) > from as u64
                })
        })
}

fn encode_state(lap: u64, meta: &[u8]) -> Vec<u8> {
    let crc = crc32_finish(crc32_update(lap_seed(lap), meta));
    [
        &STATE_MAGIC[..],
        &lap.to_le_bytes(),
        &crc.to_le_bytes(),
        meta,
    ]
    .concat()
}

/// `state.bin`'s lap and snapshot. A file of another version is refused by
/// name; anything else that is not a sound header is `Format`.
fn decode_state(bytes: &[u8]) -> Result<(u64, &[u8]), DiskError> {
    let (magic, rest) = bytes.split_first_chunk::<8>().ok_or(DiskError::Format)?;
    let (version, expected) = (magic[7], STATE_MAGIC[7]);
    if magic[..7] != STATE_MAGIC[..7] {
        return Err(DiskError::Format);
    }
    if version != expected {
        return Err(DiskError::Version {
            found: version,
            expected,
        });
    }
    let (lap, rest) = rest.split_first_chunk::<8>().ok_or(DiskError::Format)?;
    let (crc, meta) = rest.split_first_chunk::<4>().ok_or(DiskError::Format)?;
    let lap = u64::from_le_bytes(*lap);
    (u32::from_le_bytes(*crc) == crc32_finish(crc32_update(lap_seed(lap), meta)))
        .then_some((lap, meta))
        .ok_or(DiskError::Format)
}

/// Atomically replace `state.bin`: write-temp, fsync, rename, fsync the
/// directory. Until the rename is durable the old file is the store's.
fn install_state(dir: &Path, lap: u64, meta: &[u8]) -> io::Result<()> {
    let tmp = dir.join("state.tmp");
    failpoint(Step::StateWrite)?;
    let mut f = File::create(&tmp)?;
    f.write_all(&encode_state(lap, meta))?;
    f.sync_data()?;
    drop(f);
    failpoint(Step::StateRename)?;
    fs::rename(&tmp, dir.join("state.bin"))?;
    failpoint(Step::DirSync)?;
    File::open(dir)?.sync_all()
}

/// Bytes that start on an [`ALIGN`] boundary, as a direct read or write
/// needs them: a `Vec` allocated `ALIGN` bytes too long and used from its
/// first aligned byte, found by `align_offset` (no `unsafe`, no allocator
/// of its own). Pushes stay in place while they fit what
/// [`Aligned::clear_for`] reserved.
#[derive(Debug, Default)]
struct Aligned {
    vec: Vec<u8>,
    /// Where the aligned bytes start in `vec`.
    at: usize,
}

impl Aligned {
    /// `len` zero bytes (a zeroed allocation: a large one costs no fill).
    fn zeroed(len: usize) -> Aligned {
        let mut vec = vec![0u8; len + ALIGN];
        let at = vec.as_ptr().align_offset(ALIGN);
        assert!(at < ALIGN, "a byte pointer can always be aligned");
        vec.truncate(at + len);
        Aligned { vec, at }
    }

    /// Empty it, with room to push `len` bytes that stay aligned.
    fn clear_for(&mut self, len: usize) -> &mut Vec<u8> {
        if self.vec.capacity() < self.at + len {
            *self = Aligned::zeroed(len);
        }
        self.vec.truncate(self.at);
        &mut self.vec
    }

    fn bytes(&self) -> &[u8] {
        &self.vec[self.at..]
    }
}

/// Open the log, direct where this target and its filesystem allow it
/// (then `true`), else buffered.
fn open_log(path: &Path) -> io::Result<(File, bool)> {
    if let Some(flag) = O_DIRECT {
        let direct =
            failpoint(Step::DirectOpen).and_then(|()| log_options().custom_flags(flag).open(path));
        if let Some(file) = unless_refused(direct)? {
            return Ok((file, true));
        }
    }
    Ok((log_options().open(path)?, false))
}

fn log_options() -> OpenOptions {
    let mut options = OpenOptions::new();
    options.read(true).write(true).create(true).truncate(false);
    options
}

/// `None` where the kernel refused direct I/O (`EINVAL`: the flag at open,
/// or a write smaller than the device's sector), for the buffered handle.
fn unless_refused<T>(direct: io::Result<T>) -> io::Result<Option<T>> {
    match direct {
        Ok(done) => Ok(Some(done)),
        Err(e) if e.kind() == ErrorKind::InvalidInput => Ok(None),
        Err(e) => Err(e),
    }
}

/// The whole log, read through its own handle into an aligned buffer: a
/// direct handle leaves no page cache behind for its writes to invalidate.
fn read_log(wal: &File) -> io::Result<Aligned> {
    let len = usize::try_from(wal.metadata()?.len()).map_err(io::Error::other)?;
    let mut buf = Aligned::zeroed(len.next_multiple_of(ALIGN));
    let mut got = 0;
    while got < len {
        match wal.read_at(&mut buf.vec[buf.at + got..], got as u64) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    buf.vec.truncate(buf.at + got);
    Ok(buf)
}

/// What a batch does to the committed metadata blob, as its log record.
enum MetaChange {
    /// Nothing: the batch carries no metadata record.
    None,
    /// `REC_META_PATCH`: XOR these spans into it.
    Patch(ChangeMask),
    /// `REC_META`: replace it.
    Blob(Vec<u8>),
}

/// A staged-but-uncommitted block write.
#[derive(Debug)]
struct Staged {
    row: u64,
    data: Bytes,
    /// The row's committed image when this write was staged, if that image
    /// lives only in the log: a lap that ends before the batch is logged
    /// writes it back, not the staged one.
    committed: Option<Bytes>,
}

/// What a [`DiskBlocks`] has done since it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Batches committed: one log write and one `fdatasync` each.
    pub commits: u64,
    /// Bytes those batches put on the device: each one's records rounded
    /// up to the sector.
    pub log_bytes: u64,
    /// Bytes of records in those batches (what `log_bytes` rounds up).
    pub record_bytes: u64,
    /// Laps ended: checkpoints asked for, those the log's size set off,
    /// and the one that closes a re-open.
    pub checkpoints: u64,
    /// Rows those lap ends wrote back to `blocks.dat`.
    pub written_back: u64,
    /// The log is written through a direct (`O_DIRECT`) handle.
    pub direct: bool,
}

/// The durable on-disk block store. See the module docs for the layout.
#[derive(Debug)]
pub struct DiskBlocks {
    dir: PathBuf,
    rows: u64,
    block_size: usize,
    data: File,
    /// `blocks.dat` again, `O_DIRECT`, for reading a row not in memory,
    /// where the log's handle is direct and a row is whole sectors (see
    /// `open_direct_reads`).
    data_reads: Option<File>,
    wal: File,
    /// Salts this lap's record CRCs; `state.bin` holds the durable copy.
    lap: u64,
    /// Where the next batch goes: an offset in `wal.log`, from
    /// [`lap_start`] up, a multiple of [`SECTOR`].
    head: u64,
    /// The batch being written, aligned for the direct handle.
    scratch: Aligned,
    /// Committed + staged view of every row (`None` = read through to
    /// `blocks.dat` on demand).
    cache: MemBlocks,
    /// Rows ever written this session (drives lazy read-through).
    loaded: Vec<bool>,
    staged: Vec<Staged>,
    /// Rows this lap logged.
    dirty: BTreeSet<u64>,
    /// Rows whose newest record is in the previous lap's half: written back
    /// when this lap ends, unless this lap logs them again first.
    prev_dirty: BTreeSet<u64>,
    /// The durably committed metadata blob (opaque to this layer).
    meta: Vec<u8>,
    /// Rows replayed from the committed log suffix at open — the §3.4
    /// recovery reads a driver should account as `IoPurpose::LogReplay`.
    replayed: Vec<u64>,
    checkpoint_bytes: u64,
    stats: DiskStats,
    /// A commit or checkpoint failed part-way (see [`DiskError::Poisoned`]).
    poisoned: bool,
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
        // A checkpoint that crashed before its rename left its temp file.
        match fs::remove_file(dir.join("state.tmp")) {
            Err(e) if e.kind() != ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
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
        let state = match fs::read(dir.join("state.bin")) {
            Ok(b) => Some(b),
            Err(e) if e.kind() == ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        // A header of another version is refused before the log is read.
        let lap_state = state.as_deref().map(decode_state).transpose()?;
        let log_path = dir.join("wal.log");
        if lap_state.is_some() {
            let len = match fs::metadata(&log_path) {
                Ok(m) => m.len(),
                Err(e) if e.kind() == ErrorKind::NotFound => 0,
                Err(e) => return Err(e.into()),
            };
            if len < LOG_BYTES as u64 {
                return Err(DiskError::LogLost { len });
            }
        }
        let (wal, direct) = open_log(&log_path)?;
        let log = read_log(&wal)?;
        let mut store = DiskBlocks {
            dir,
            rows,
            block_size,
            data,
            data_reads: None,
            wal,
            lap: 1,
            head: 0,
            scratch: Aligned::default(),
            cache: MemBlocks::new(rows, block_size),
            loaded: vec![false; rows as usize],
            staged: Vec::new(),
            dirty: BTreeSet::new(),
            prev_dirty: BTreeSet::new(),
            meta: Vec::new(),
            replayed: Vec::new(),
            checkpoint_bytes: HALF,
            stats: DiskStats {
                direct,
                ..DiskStats::default()
            },
            poisoned: false,
        };
        let Some((lap, meta)) = lap_state else {
            // No `state.bin`: a new store (its creation ends by installing
            // one), which has logged nothing. A log with records in it
            // belongs to a version that kept no lap header.
            if log.bytes().iter().any(|&b| b != 0) {
                return Err(DiskError::Format);
            }
            // Written, not `set_len`: a sync over unwritten extents still
            // pays the journal commit that recycling the file is for.
            let zeros = Aligned::zeroed(LOG_BYTES / 4);
            for at in (0..LOG_BYTES).step_by(LOG_BYTES / 4) {
                store.wal.write_all_at(zeros.bytes(), at as u64)?;
            }
            store.wal.sync_all()?;
            store.probe_direct(0)?;
            install_state(&store.dir, store.lap, &store.meta)?;
            store.open_direct_reads()?;
            return Ok(store);
        };
        (store.lap, store.meta) = (lap, meta.to_vec());
        let log = log.bytes();
        // The previous lap never ran past its half (a lap that did is ended
        // with everything written back, and the next lap number skipped).
        let prev = lap.checked_sub(1).ok_or(DiskError::Format)?;
        let prev_end = log.len().min((lap_start(prev) + HALF) as usize);
        store.replay(&log[..prev_end], prev)?;
        store.head = store.replay(log, lap)?;
        // A torn batch may have left sectors anywhere past the head, and
        // the next batch of this lap would be written over them with the
        // same salt: end the lap first. The probe's zeros then land where
        // the next lap starts, over records that lap end retired.
        store.end_lap(false)?;
        store.probe_direct(store.head)?;
        store.open_direct_reads()?;
        Ok(store)
    }

    /// Read `blocks.dat` past the page cache where the log is written past
    /// it and a row is whole sectors. A buffered read brings readahead with
    /// it, and readahead fills the page cache with large folios: a lap end
    /// that then writes back a few rows dirties whole folios, and the
    /// kernel accounts (and writes back) each one whole, so the write-back
    /// would cost about the block file per lap end, whatever the rows.
    /// Read direct, the block file's cache holds only the one-block folios
    /// the write-back's own writes make. Rows that are not whole sectors
    /// (tests' small blocks) keep the buffered read.
    fn open_direct_reads(&mut self) -> io::Result<()> {
        if let (true, Some(flag)) = (
            self.stats.direct && self.block_size.is_multiple_of(SECTOR),
            O_DIRECT,
        ) {
            let direct = OpenOptions::new()
                .read(true)
                .custom_flags(flag)
                .open(self.dir.join("blocks.dat"));
            self.data_reads = unless_refused(direct)?;
        }
        Ok(())
    }

    /// Write one zero sector at `at`, where nothing live is, through a
    /// direct handle: a handle that refuses it is traded for a buffered
    /// one, as a refused direct open is.
    fn probe_direct(&mut self, at: u64) -> io::Result<()> {
        if self.stats.direct {
            let zeros = Aligned::zeroed(SECTOR);
            let probe = failpoint(Step::DirectProbe)
                .and_then(|()| self.wal.write_all_at(zeros.bytes(), at));
            if unless_refused(probe)?.is_none() {
                self.wal = log_options().open(self.dir.join("wal.log"))?;
                self.stats.direct = false;
            }
        }
        Ok(())
    }

    /// Replay lap `lap`'s committed batches out of `log` and return where
    /// its next batch would go. Records apply in order from the lap's start
    /// up to the last marker that names its own batch's start; what follows
    /// it is a torn batch or an older lap, and is ignored. A batch starts at
    /// the first sector boundary past the one before it: the zeros between
    /// are padding, never read as records. The current lap's metadata
    /// records apply to the blob; the previous lap's are in the snapshot
    /// its end installed, so only its blocks are replayed.
    fn replay(&mut self, log: &[u8], lap: u64) -> Result<u64, DiskError> {
        let current = lap == self.lap;
        let seed = lap_seed(lap);
        let mut batch: Vec<(u64, Bytes)> = Vec::new();
        // The batch's metadata record: (log offset, body with its tag).
        let mut batch_meta: Option<(usize, &[u8])> = None;
        let mut at = lap_start(lap) as usize;
        let mut batch_start = at;
        while let Some(body) = record_at(log, at, seed) {
            let next = at + 8 + body.len();
            match body {
                [REC_BLOCK, rest @ ..] if rest.len() == 8 + self.block_size => {
                    let row = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
                    if row >= self.rows {
                        break;
                    }
                    batch.push((row, Bytes::copy_from_slice(&rest[8..])));
                }
                [REC_META | REC_META_PATCH, ..] => batch_meta = Some((at, body)),
                [REC_COMMIT, start @ ..] if start == (batch_start as u64).to_le_bytes() => {
                    for (row, data) in batch.drain(..) {
                        self.replayed.push(row);
                        if current {
                            self.prev_dirty.remove(&row);
                            self.dirty.insert(row);
                        } else {
                            self.prev_dirty.insert(row);
                        }
                        self.loaded[row as usize] = true;
                        let _ = self.cache.write_owned(row, data);
                    }
                    match batch_meta.take().filter(|_| current) {
                        Some((_, [REC_META, blob @ ..])) => self.meta = blob.to_vec(),
                        Some((rec_at, [_, patch @ ..])) => {
                            ChangeMask::apply_wire(patch, &mut self.meta)
                                .ok_or(DiskError::MetaPatch { at: rec_at as u64 })?;
                        }
                        _ => {}
                    }
                    batch_start = next.next_multiple_of(SECTOR);
                    at = batch_start;
                    continue;
                }
                _ => break,
            }
            at = next;
        }
        if later_batch_committed(log, batch_start, seed) {
            return Err(DiskError::TornLog { at: at as u64 });
        }
        Ok(batch_start as u64)
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

    /// Bytes of log this lap holds: its batches, each rounded up to the
    /// sector (the file itself never shrinks).
    pub fn wal_bytes(&self) -> u64 {
        self.head - self.lap_start()
    }

    /// Where this lap's batches start in `wal.log`: the start of one half
    /// of the ring or the other.
    pub fn lap_start(&self) -> u64 {
        lap_start(self.lap)
    }

    /// What this store has done since it was opened.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Set how many bytes of batches a lap may hold: a commit whose batch
    /// would take its lap past them (or past the lap's half of the ring,
    /// whichever is less) ends the lap first. A lap's first batch is
    /// written whatever its size.
    pub fn set_checkpoint_bytes(&mut self, bytes: u64) {
        self.checkpoint_bytes = bytes;
    }

    fn read_through(&mut self, row: u64) -> Result<(), DiskError> {
        if self.loaded[row as usize] {
            return Ok(());
        }
        let at = row * self.block_size as u64;
        let mut block = None;
        if let Some(direct) = &self.data_reads {
            let mut buf = Aligned::zeroed(self.block_size);
            let read = direct.read_exact_at(&mut buf.vec[buf.at..], at);
            if unless_refused(read)?.is_some() {
                block = Some(Bytes::from(buf.vec).slice(buf.at..buf.at + self.block_size));
            } else {
                self.data_reads = None;
            }
        }
        let block = match block {
            Some(block) => block,
            None => {
                let mut buf = vec![0u8; self.block_size];
                self.data.read_exact_at(&mut buf, at)?;
                Bytes::from(buf)
            }
        };
        let _ = self.cache.write_owned(row, block);
        self.loaded[row as usize] = true;
        Ok(())
    }

    /// True while block writes are staged that no [`commit`] has logged.
    ///
    /// [`commit`]: DiskBlocks::commit
    pub fn has_staged(&self) -> bool {
        !self.staged.is_empty()
    }

    /// Run one durable step. A failure part-way leaves the device in a
    /// state this process cannot know, so it poisons the store: every
    /// later step fails until a re-open replays back to truth.
    fn durably<T>(
        &mut self,
        step: impl FnOnce(&mut DiskBlocks) -> Result<T, DiskError>,
    ) -> Result<T, DiskError> {
        if self.poisoned {
            return Err(DiskError::Poisoned);
        }
        let done = step(self);
        self.poisoned = done.is_err();
        done
    }

    /// Group-commit every staged write plus the caller's metadata snapshot:
    /// one log write, one `fdatasync`. Returns `true` if anything was
    /// forced (false = nothing staged and metadata unchanged). `meta` is
    /// invoked on every call — the blob is what "unchanged" is judged by,
    /// and what changed in it is found by comparing it with the committed
    /// one — so a caller that already knows nothing changed should not call
    /// at all (the site loops go by [`has_staged`] and the machine's
    /// `durable_version`), and one that knows *what* changed calls
    /// [`commit_patch`]. On an error the batch stays staged and the store
    /// is poisoned ([`DiskError::Poisoned`]).
    ///
    /// [`has_staged`]: DiskBlocks::has_staged
    /// [`commit_patch`]: DiskBlocks::commit_patch
    pub fn commit(&mut self, meta: impl FnOnce() -> Vec<u8>) -> Result<bool, DiskError> {
        self.durably(|store| {
            let meta = meta();
            let change = if meta.len() == store.meta.len() {
                store.record_for(ChangeMask::diff(&store.meta, &meta))
            } else {
                MetaChange::Blob(meta)
            };
            store.log_batch(change)
        })
    }

    /// [`commit`](DiskBlocks::commit) for a caller that knows what changed:
    /// `patch` is the XOR between the committed blob and the new one, and
    /// the store never sees the new one whole. The log gets the bytes
    /// `commit(|| new)` would have written, and `meta()` reads the same
    /// afterwards. A patch that is not for a blob of the committed length
    /// is refused with [`DiskError::MetaPatch`] before anything is written;
    /// that is the caller's mistake, not a fault of the device, and does
    /// not poison the store.
    pub fn commit_patch(&mut self, patch: ChangeMask) -> Result<bool, DiskError> {
        if patch.block_len() != self.meta.len() {
            return Err(DiskError::MetaPatch { at: self.head });
        }
        self.durably(|store| store.log_batch(store.record_for(patch)))
    }

    /// The record for a change that keeps the blob's length: none when
    /// nothing changed, the span list, or the new blob whole when that is
    /// no larger (a few-byte blob, or one rewritten from end to end).
    fn record_for(&self, patch: ChangeMask) -> MetaChange {
        if patch.is_empty() {
            MetaChange::None
        } else if 8 + patch.wire_size() < self.meta.len() {
            MetaChange::Patch(patch)
        } else {
            let mut meta = self.meta.clone();
            patch.apply(&mut meta);
            MetaChange::Blob(meta)
        }
    }

    fn log_batch(&mut self, change: MetaChange) -> Result<bool, DiskError> {
        if self.staged.is_empty() && matches!(change, MetaChange::None) {
            return Ok(false);
        }
        let wire;
        let meta_record: Option<(u8, &[u8])> = match &change {
            MetaChange::None => None,
            MetaChange::Patch(patch) => {
                wire = patch.encode();
                Some((REC_META_PATCH, &wire))
            }
            MetaChange::Blob(meta) => Some((REC_META, meta)),
        };
        let blocks: usize = self.staged.iter().map(|s| 8 + 9 + s.data.len()).sum();
        let records =
            blocks + meta_record.map_or(0, |(_, payload)| 8 + 1 + payload.len()) + MARKER_BYTES;
        let padded = records.next_multiple_of(SECTOR);
        // A batch that would take its lap past its room ends the lap first,
        // and one that no half holds ends it with everything written back:
        // it runs on over the other half, or past the end of the file.
        let oversized = padded as u64 > HALF;
        let used = self.wal_bytes();
        if oversized || (used > 0 && used + padded as u64 > self.checkpoint_bytes.min(HALF)) {
            self.end_lap(oversized)?;
        }
        // Assemble the batch in the aligned buffer (payloads are copied
        // into it; the CRC folds over header-then-payload without a second
        // pass), sized up front so that no push moves it.
        let seed = lap_seed(self.lap);
        let out = self.scratch.clear_for(padded);
        for s in &self.staged {
            let mut head = [REC_BLOCK; 9];
            head[1..].copy_from_slice(&s.row.to_le_bytes());
            put_record(out, seed, &head, &s.data);
        }
        if let Some((tag, payload)) = meta_record {
            put_record(out, seed, &[tag], payload);
        }
        // The marker names where its batch starts, so the tail of a torn
        // batch cannot commit whatever valid records happen to precede it.
        let mut marker = [REC_COMMIT; 9];
        marker[1..].copy_from_slice(&self.head.to_le_bytes());
        put_record(out, seed, &marker, &[]);
        // Zeros to the sector boundary: the next batch starts there.
        out.resize(out.len() + padded - records, 0);
        let batch = self.scratch.bytes();
        assert!(
            batch.len() == padded && batch.as_ptr().align_offset(ALIGN) == 0,
            "the batch filled exactly the aligned room reserved for it"
        );
        failpoint(Step::LogWrite)?;
        self.wal.write_all_at(batch, self.head)?;
        failpoint(Step::LogSync)?;
        self.wal.sync_data()?;
        self.head += padded as u64;
        self.stats.commits += 1;
        self.stats.log_bytes += padded as u64;
        self.stats.record_bytes += records as u64;
        for s in self.staged.drain(..) {
            self.prev_dirty.remove(&s.row);
            self.dirty.insert(s.row);
        }
        match change {
            MetaChange::None => {}
            MetaChange::Patch(patch) => patch.apply(&mut self.meta),
            MetaChange::Blob(meta) => self.meta = meta,
        }
        Ok(true)
    }

    /// End the lap now, as a commit does when its batch would not fit: write
    /// back to `blocks.dat` the rows whose newest record is in the previous
    /// lap's half, sync it, then atomically replace `state.bin` with the
    /// current blob under the next lap number, whose batches go to that
    /// half. Ordering honours the write-ahead rule: every row written here
    /// is already durable in the log, and the previous lap's records stay
    /// valid until the rename, after which neither they nor the old
    /// snapshot are needed. Rows this lap logged stay in the log, to be
    /// replayed at an open and written back when the lap after this one
    /// ends, unless it logs them again. The log file is not touched.
    pub fn checkpoint(&mut self) -> Result<(), DiskError> {
        self.durably(|store| store.end_lap(false))
    }

    /// End the lap. With `everything` (or when the lap ran past its half),
    /// this lap's rows are written back too and the next lap number is
    /// skipped, so the lap after it has no previous lap to replay and may
    /// write anywhere.
    fn end_lap(&mut self, everything: bool) -> Result<(), DiskError> {
        let everything = everything || self.head > self.lap_start() + HALF;
        let mut rows = std::mem::take(&mut self.prev_dirty);
        if everything {
            rows.append(&mut self.dirty);
        }
        // A row staged over its logged image is written back as logged.
        let mut committed = std::collections::BTreeMap::new();
        for s in &self.staged {
            if let Some(image) = &s.committed {
                committed.entry(s.row).or_insert(image);
            }
        }
        for &row in &rows {
            let block = match committed.get(&row) {
                Some(&image) => image.clone(),
                None => self.cache.read(row).expect("MemBlocks never faults"),
            };
            debug_assert_eq!(block.len(), self.block_size);
            failpoint(Step::WriteBack)?;
            self.data
                .write_all_at(&block, row * self.block_size as u64)?;
        }
        failpoint(Step::DataSync)?;
        self.data.sync_data()?;
        let next = self.lap + if everything { 2 } else { 1 };
        install_state(&self.dir, next, &self.meta)?;
        self.prev_dirty = std::mem::take(&mut self.dirty);
        self.lap = next;
        self.head = self.lap_start();
        self.stats.checkpoints += 1;
        self.stats.written_back += rows.len() as u64;
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
        let committed = (self.dirty.contains(&row) || self.prev_dirty.contains(&row))
            .then(|| self.cache.read(row))
            .transpose()?;
        self.cache.write_owned(row, data.clone())?;
        self.staged.push(Staged {
            row,
            data,
            committed,
        });
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
/// Runtime drivers hold one of these and call [`SiteStore::commit_patch`]
/// or [`SiteStore::commit`] after every handled event that changed
/// something; the memory arm makes both calls free.
#[derive(Debug)]
pub enum SiteStore {
    /// Volatile in-memory rows ([`MemBlocks`]).
    Mem(MemBlocks),
    /// Durable rows + metadata in a [`DiskBlocks`] directory (boxed: the
    /// store is a few hundred bytes, the memory arm a few dozen).
    Disk(Box<DiskBlocks>),
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
        Ok(SiteStore::Disk(Box::new(DiskBlocks::open(
            dir, rows, block_size,
        )?)))
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

    /// What a durable store has done since it was opened (`None` for
    /// memory stores, which log nothing).
    pub fn stats(&self) -> Option<DiskStats> {
        match self {
            SiteStore::Mem(_) => None,
            SiteStore::Disk(d) => Some(d.stats()),
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

    /// Group-commit staged writes with the XOR patch between the committed
    /// metadata blob and the new one (no-op and `Ok(false)` for memory
    /// stores). See [`DiskBlocks::commit_patch`].
    pub fn commit_patch(&mut self, patch: ChangeMask) -> Result<bool, DiskError> {
        match self {
            SiteStore::Mem(_) => Ok(false),
            SiteStore::Disk(d) => d.commit_patch(patch),
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

    /// The handles a store's log can have; every fixed case runs on each.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Handle {
        /// Whatever the filesystem gives: direct where it takes `O_DIRECT`.
        Direct,
        /// The fallback of a filesystem that refuses `O_DIRECT` at open.
        Buffered,
        /// The same fallback, for a device that refuses the open's
        /// one-sector direct write.
        ProbeRefused,
    }

    const HANDLES: [Handle; 3] = [Handle::Direct, Handle::Buffered, Handle::ProbeRefused];

    /// `DiskBlocks::open`, on the buffered fallback if `handle` says so:
    /// the failpoint refuses the direct open, or the probe, as such a
    /// filesystem or device would.
    fn open(
        dir: &Path,
        rows: u64,
        block_size: usize,
        handle: Handle,
    ) -> Result<DiskBlocks, DiskError> {
        let refuse = match handle {
            Handle::Direct => None,
            Handle::Buffered => Some(Step::DirectOpen),
            Handle::ProbeRefused => Some(Step::DirectProbe),
        };
        FAIL_NEXT.set(refuse.map(|step| (step, 0)));
        let d = DiskBlocks::open(dir, rows, block_size);
        if refuse.is_some() {
            // An open refused before it reached the log leaves it armed.
            FAIL_NEXT.set(None);
            assert!(d.as_ref().map_or(true, |d| !d.stats().direct));
        }
        d
    }

    /// Stage one row and commit it with `meta`.
    fn commit_row(d: &mut DiskBlocks, row: u64, tag: u8, meta: &[u8]) {
        d.write_owned(row, block(tag, 16)).unwrap();
        assert!(d.commit(|| meta.to_vec()).unwrap());
    }

    #[test]
    fn committed_writes_survive_reopen() {
        for h in HANDLES {
            let dir = tmpdir("basic");
            {
                let mut d = open(&dir, 8, 32, h).unwrap();
                d.write_owned(3, block(7, 32)).unwrap();
                d.write_owned(5, block(9, 32)).unwrap();
                assert!(d.commit(|| b"meta-1".to_vec()).unwrap());
            }
            let mut d = open(&dir, 8, 32, h).unwrap();
            assert_eq!(&d.read(3).unwrap()[..], &block(7, 32)[..]);
            assert_eq!(&d.read(5).unwrap()[..], &block(9, 32)[..]);
            assert_eq!(&d.read(0).unwrap()[..], &[0u8; 32][..]);
            assert_eq!(d.meta(), b"meta-1");
            assert_eq!(d.replayed_rows(), &[3, 5]);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn uncommitted_writes_vanish() {
        for h in HANDLES {
            let dir = tmpdir("uncommitted");
            {
                let mut d = open(&dir, 4, 16, h).unwrap();
                commit_row(&mut d, 1, 1, b"");
                d.write_owned(2, block(2, 16)).unwrap();
                // No commit: staged only.
            }
            let mut d = open(&dir, 4, 16, h).unwrap();
            assert_eq!(&d.read(1).unwrap()[..], &block(1, 16)[..]);
            assert_eq!(&d.read(2).unwrap()[..], &[0u8; 16][..]);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn torn_tail_is_discarded_cleanly() {
        for h in HANDLES {
            let dir = tmpdir("torn-tail");
            let end = {
                let mut d = open(&dir, 4, 16, h).unwrap();
                commit_row(&mut d, 0, 1, b"m1");
                let (start, records) = (d.wal_bytes(), d.stats().record_bytes);
                commit_row(&mut d, 1, 2, b"m2");
                (start + d.stats().record_bytes - records) as usize
            };
            // Tear the final batch: its marker (the last of its records, before
            // the padding) never landed.
            let wal = dir.join("wal.log");
            let mut full = fs::read(&wal).unwrap();
            full[end - MARKER_BYTES..end].fill(0);
            fs::write(&wal, &full).unwrap();
            let mut d = open(&dir, 4, 16, h).unwrap();
            assert_eq!(&d.read(0).unwrap()[..], &block(1, 16)[..]);
            assert_eq!(
                &d.read(1).unwrap()[..],
                &[0u8; 16][..],
                "torn batch discarded"
            );
            assert_eq!(d.meta(), b"m1");
            // The open ended the lap; a fresh commit lands at the log's start.
            assert_eq!(d.wal_bytes(), 0);
            commit_row(&mut d, 2, 3, b"m3");
            let mut d = open(&dir, 4, 16, h).unwrap();
            assert_eq!(&d.read(0).unwrap()[..], &block(1, 16)[..]);
            assert_eq!(&d.read(2).unwrap()[..], &block(3, 16)[..]);
            assert_eq!(d.meta(), b"m3");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn corruption_before_committed_records_is_reported() {
        for h in HANDLES {
            let dir = tmpdir("mid-corrupt");
            {
                let mut d = open(&dir, 4, 16, h).unwrap();
                commit_row(&mut d, 0, 1, b"");
                commit_row(&mut d, 1, 2, b"");
            }
            // Flip a byte inside the *first* batch's payload: the second
            // batch's commit marker lies beyond the damage.
            let wal = dir.join("wal.log");
            let mut full = fs::read(&wal).unwrap();
            full[20] ^= 0xFF;
            fs::write(&wal, &full).unwrap();
            match open(&dir, 4, 16, h) {
                Err(DiskError::TornLog { .. }) => {}
                other => panic!("expected TornLog, got {other:?}"),
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Row `row` of `blocks.dat` as it is on disk.
    fn on_disk(dir: &Path, row: usize, block_size: usize) -> Vec<u8> {
        fs::read(dir.join("blocks.dat")).unwrap()[row * block_size..][..block_size].to_vec()
    }

    /// A checkpoint ends the lap: the next lap's batches go to the other
    /// half of the ring, and what the ended lap logged stays in the log,
    /// live, until the lap after it ends. Only then, as its half is about
    /// to be written over, is a row it logged and nobody logged since
    /// written back.
    #[test]
    fn a_checkpoint_moves_the_lap_to_the_other_half_and_writes_back_the_one_before() {
        for h in HANDLES {
            let dir = tmpdir("checkpoint");
            {
                let mut d = open(&dir, 4, 16, h).unwrap();
                commit_row(&mut d, 0, 5, b"snap");
                assert!(d.wal_bytes() > 0);
                d.checkpoint().unwrap();
                assert_eq!((d.lap_start(), d.wal_bytes()), (HALF, 0));
                assert_eq!(on_disk(&dir, 0, 16), [0; 16], "lap 1 is still live");
                assert_eq!(d.stats().written_back, 0);
                commit_row(&mut d, 1, 6, b"snap");
                d.checkpoint().unwrap();
                assert_eq!((d.lap_start(), d.wal_bytes()), (0, 0));
                assert_eq!(on_disk(&dir, 0, 16), [5; 16], "lap 1's half is recycled");
                assert_eq!(on_disk(&dir, 1, 16), [0; 16], "lap 2 is still live");
                assert_eq!(d.stats().written_back, 1);
            }
            // The file keeps its size and its records, lap 1's now dead.
            let log = fs::read(dir.join("wal.log")).unwrap();
            assert_eq!(log.len(), LOG_BYTES);
            assert!(record_at(&log, 0, lap_seed(1)).is_some());
            assert!(record_at(&log, HALF as usize, lap_seed(2)).is_some());
            let state = fs::read(dir.join("state.bin")).unwrap();
            assert_eq!(decode_state(&state).unwrap(), (3, &b"snap"[..]));
            let mut d = open(&dir, 4, 16, h).unwrap();
            assert_eq!(&d.read(0).unwrap()[..], &block(5, 16)[..]);
            assert_eq!(&d.read(1).unwrap()[..], &block(6, 16)[..]);
            assert_eq!(d.meta(), b"snap");
            assert_eq!(d.replayed_rows(), [1], "the previous lap's row");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A batch that would take its lap past the room set for it ends the
    /// lap before it is written: at 64 bytes of room every one-sector batch
    /// is a lap of its own. Each lap end writes back the row the lap before
    /// it logged, unless the ending lap logged it again.
    #[test]
    fn a_batch_that_would_not_fit_its_lap_ends_the_lap_first() {
        for h in HANDLES {
            let dir = tmpdir("auto-ckpt");
            let mut d = open(&dir, 4, 16, h).unwrap();
            d.set_checkpoint_bytes(64);
            let rows = [0u64, 1, 2, 3, 3, 0, 1, 1];
            for (i, &row) in rows.iter().enumerate() {
                commit_row(&mut d, row, i as u8, b"");
                assert_eq!(d.stats().checkpoints, i as u64);
                assert_eq!(d.wal_bytes(), SECTOR as u64, "one batch to a lap");
            }
            // Laps 1, 2, 3, 5 and 6 had their rows written back; lap 4's and
            // lap 7's were logged again by the lap after them, and lap 8's
            // is live.
            assert_eq!(d.stats().written_back, 5);
            assert_eq!(on_disk(&dir, 3, 16), [4; 16], "lap 5's image, not lap 4's");
            drop(d);
            let mut d = open(&dir, 4, 16, h).unwrap();
            assert_eq!(&d.read(3).unwrap()[..], &block(4, 16)[..]);
            assert_eq!(&d.read(1).unwrap()[..], &block(7, 16)[..]);
            assert_eq!(d.replayed_rows(), [1, 1]);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A batch larger than a half of the ring ends its lap with everything
    /// written back and skips a lap number, so nothing lives in the half it
    /// runs on over; in the second half it grows the file. The lap it is
    /// in ends the same way, and the file never shrinks.
    #[test]
    fn a_batch_larger_than_a_half_runs_on_past_it_and_grows_the_file() {
        for h in HANDLES {
            let dir = tmpdir("grow");
            let rows = LOG_BYTES as u64 / 4096 + 8;
            let mut d = open(&dir, rows, 4096, h).unwrap();
            d.set_checkpoint_bytes(u64::MAX);
            d.write_owned(0, block(0xA0, 4096)).unwrap();
            d.commit(|| b"m".to_vec()).unwrap();
            d.checkpoint().unwrap();
            assert_eq!(d.lap_start(), HALF);
            for row in 1..rows {
                d.write_owned(row, block(row as u8, 4096)).unwrap();
            }
            d.commit(Vec::new).unwrap();
            assert_eq!(d.stats().checkpoints, 2);
            assert_eq!(d.stats().written_back, 1, "lap 1's row");
            assert_eq!(d.lap_start(), HALF, "lap 2 ended, lap 3 skipped, lap 4");
            assert!(d.wal_bytes() > HALF);
            drop(d);
            assert!(
                fs::metadata(dir.join("wal.log")).unwrap().len() > LOG_BYTES as u64,
                "the batch grew the file"
            );
            let mut d = open(&dir, rows, 4096, h).unwrap();
            assert_eq!(d.replayed_rows().len() as u64, rows - 1);
            assert_eq!(d.stats().written_back, rows - 1, "the open's lap end");
            assert_eq!(&d.read(0).unwrap()[..], &[0xA0; 4096][..]);
            assert_eq!(
                &d.read(rows - 1).unwrap()[..],
                &block((rows - 1) as u8, 4096)[..]
            );
            d.write_owned(2, block(0xB0, 4096)).unwrap();
            d.commit(|| b"m2".to_vec()).unwrap();
            drop(d);
            let mut d = open(&dir, rows, 4096, h).unwrap();
            assert_eq!(d.replayed_rows(), [2]);
            assert_eq!(&d.read(1).unwrap()[..], &block(1, 4096)[..]);
            assert!(
                fs::metadata(dir.join("wal.log")).unwrap().len() > LOG_BYTES as u64,
                "the file never shrinks"
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn unchanged_meta_and_empty_batch_skip_the_force() {
        for h in HANDLES {
            let dir = tmpdir("skip");
            let mut d = open(&dir, 4, 16, h).unwrap();
            commit_row(&mut d, 0, 1, b"m");
            let len = d.wal_bytes();
            assert!(!d.commit(|| b"m".to_vec()).unwrap());
            assert_eq!(d.wal_bytes(), len, "no-op commit appended nothing");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        for h in HANDLES {
            let dir = tmpdir("geometry");
            drop(open(&dir, 4, 16, h).unwrap());
            match open(&dir, 8, 16, h) {
                Err(DiskError::Geometry { found, expected }) => {
                    assert_eq!(found, 64);
                    assert_eq!(expected, 128);
                }
                other => panic!("expected Geometry, got {other:?}"),
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// What earlier versions left behind: a bare snapshot in `state.bin`,
    /// or (never checkpointed) unsalted records in an append-only log.
    #[test]
    fn a_store_from_before_the_recycled_log_is_refused() {
        for h in HANDLES {
            for file in ["state.bin", "wal.log"] {
                let dir = tmpdir("old-format");
                fs::create_dir_all(&dir).unwrap();
                fs::write(dir.join(file), b"\x01\x00\x00\x00\x1b\xdf\x05\xa5\x03").unwrap();
                match open(&dir, 4, 16, h) {
                    Err(DiskError::Format) => {}
                    other => panic!("{file}: expected Format, got {other:?}"),
                }
                fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    /// A store whose creation crashed before `state.bin` was installed
    /// (any amount of zero fill) is created again.
    #[test]
    fn a_half_created_store_is_created_again() {
        for h in HANDLES {
            let dir = tmpdir("half-created");
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join("wal.log"), vec![0u8; 1000]).unwrap();
            let mut d = open(&dir, 4, 16, h).unwrap();
            commit_row(&mut d, 1, 9, b"m");
            assert_eq!(
                fs::metadata(dir.join("wal.log")).unwrap().len(),
                LOG_BYTES as u64
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A failed log write or `fdatasync` fails the commit, keeps the batch
    /// staged and poisons the store; a re-open lands on a commit boundary
    /// with every acknowledged batch intact. Nothing of a failed write
    /// reached the file; after a failed sync the batch sits whole in the
    /// page cache, so the same-process re-open may (and here does) see it.
    #[test]
    fn a_failed_commit_poisons_the_store_and_reopen_recovers() {
        for h in HANDLES {
            for (step, lands) in [(Step::LogWrite, false), (Step::LogSync, true)] {
                let dir = tmpdir("failed-commit");
                let mut d = open(&dir, 4, 16, h).unwrap();
                commit_row(&mut d, 0, 1, b"m1");
                d.write_owned(1, block(2, 16)).unwrap();
                FAIL_NEXT.set(Some((step, 0)));
                assert!(matches!(d.commit(|| b"m2".to_vec()), Err(DiskError::Io(_))));
                assert!(d.has_staged(), "{step:?}: the batch was not dropped");
                assert!(matches!(
                    d.commit(|| b"m2".to_vec()),
                    Err(DiskError::Poisoned)
                ));
                assert!(matches!(d.checkpoint(), Err(DiskError::Poisoned)));
                drop(d);
                let mut d = open(&dir, 4, 16, h).unwrap();
                assert_eq!(&d.read(0).unwrap()[..], &block(1, 16)[..]);
                let (row1, meta) = if lands {
                    (block(2, 16), &b"m2"[..])
                } else {
                    (block(0, 16), &b"m1"[..])
                };
                assert_eq!(&d.read(1).unwrap()[..], &row1[..], "{step:?}");
                assert_eq!(d.meta(), meta, "{step:?}");
                commit_row(&mut d, 2, 3, b"m3");
                fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    /// A site's states committed through `commit_patch` (what the machine
    /// says it touched, whole only across a change of shape) and the same
    /// states committed whole through `commit(|| blob)` write the same log,
    /// byte for byte, and re-open to the same blob and rows: the patch
    /// path is a cheaper way to the record, not another record, so a store
    /// written by either opens under the other.
    #[test]
    fn commit_patch_logs_the_bytes_a_whole_blob_commit_logs() {
        for h in HANDLES {
            use radd_protocol::{DurableDelta, SiteMachine};
            let (blobs, patches) = (tmpdir("by-blob"), tmpdir("by-patch"));
            let mut by_blob = open(&blobs, 24, 16, h).unwrap();
            let mut by_patch = open(&patches, 24, 16, h).unwrap();
            let mut machine = SiteMachine::new(0, 4, 24, 16);
            let parity_row = (0..24)
                .find(|&r| machine.geometry().parity_site(r) == 0)
                .unwrap();
            let mut patched = 0;
            for i in 0..40u64 {
                let row = i * 5 % 24;
                let uid = machine.mint_uid();
                machine.set_block_uid(row, uid);
                machine.fresh_tag();
                match i {
                    // A parity row's first array, then updates in place.
                    10 | 11 | 20 => machine
                        .parity_uid_array(parity_row)
                        .set(i as usize % 6, uid),
                    // A change of shape in the middle of the run.
                    15 => {
                        machine.invalid_rows_mut().insert(3);
                    }
                    _ => {}
                }
                for d in [&mut by_blob, &mut by_patch] {
                    d.write_owned(row, block(i as u8, 16)).unwrap();
                }
                assert!(by_blob
                    .commit(|| machine.durable_snapshot().encode())
                    .unwrap());
                assert!(match machine.drain_durable(by_patch.meta()) {
                    DurableDelta::Patch(patch) => {
                        patched += 1;
                        by_patch.commit_patch(patch).unwrap()
                    }
                    DurableDelta::Whole(blob) => by_patch.commit(|| blob).unwrap(),
                });
                assert_eq!(by_patch.meta(), by_blob.meta(), "commit {i}");
            }
            assert_eq!(patched, 37, "all but the first drain and two shape changes");
            let head = by_blob.wal_bytes() as usize;
            assert_eq!(by_patch.wal_bytes() as usize, head);
            drop((by_blob, by_patch));
            let log = |dir: &Path| fs::read(dir.join("wal.log")).unwrap()[..head].to_vec();
            assert!(log(&blobs) == log(&patches), "the two logs differ");
            let by_blob = open(&blobs, 24, 16, h).unwrap();
            let by_patch = open(&patches, 24, 16, h).unwrap();
            assert_eq!(by_patch.meta(), machine.durable_snapshot().encode());
            assert_eq!(by_patch.meta(), by_blob.meta());
            assert_eq!(by_patch.replayed_rows(), by_blob.replayed_rows());
            fs::remove_dir_all(&blobs).unwrap();
            fs::remove_dir_all(&patches).unwrap();
        }
    }

    /// A patch for a blob of another length is the caller's mistake:
    /// refused before a byte is written, the batch stays staged and the
    /// store stays usable. A patch batch that meets a failing `fdatasync`
    /// is left exactly as a blob batch is: staged, the store poisoned, and
    /// (the write having reached the page cache) there after a re-open.
    #[test]
    fn commit_patch_refuses_a_misfit_and_fails_like_commit() {
        for h in HANDLES {
            let dir = tmpdir("patch-faults");
            let mut d = open(&dir, 4, 16, h).unwrap();
            commit_row(&mut d, 0, 1, b"meta-one");
            let head = d.wal_bytes();
            d.write_owned(1, block(2, 16)).unwrap();
            let misfit = ChangeMask::diff(b"meta-one!", b"meta-two!");
            assert!(matches!(
                d.commit_patch(misfit),
                Err(DiskError::MetaPatch { at }) if at == head
            ));
            assert_eq!(d.wal_bytes(), head, "nothing was logged");
            assert!(d.has_staged());

            let patch = ChangeMask::diff(b"meta-one", b"meta-two");
            FAIL_NEXT.set(Some((Step::LogSync, 0)));
            assert!(matches!(
                d.commit_patch(patch.clone()),
                Err(DiskError::Io(_))
            ));
            assert!(d.has_staged(), "the batch was not dropped");
            assert_eq!(d.meta(), b"meta-one");
            assert!(matches!(d.commit_patch(patch), Err(DiskError::Poisoned)));
            drop(d);
            let mut d = open(&dir, 4, 16, h).unwrap();
            assert_eq!(&d.read(1).unwrap()[..], &block(2, 16)[..]);
            assert_eq!(d.meta(), b"meta-two");
            // A patch that changes nothing logs nothing.
            assert!(!d.commit_patch(ChangeMask::empty(8)).unwrap());
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A crash before each file call of a lap's end — each row's write
    /// back, the `blocks.dat` sync, `state.tmp`, the rename, the directory
    /// sync — re-opens to exactly the old lap with both halves of the log
    /// live, or to the new one with the older half dead; the same rows and
    /// blob either way.
    #[test]
    fn a_crash_at_any_step_of_a_lap_end_reopens_to_the_old_or_the_new_lap() {
        for h in HANDLES {
            // (the call that never happened, which of them, the lap
            // `state.bin` is left at)
            let crashes = [
                (Step::WriteBack, 0, 2),   // before the first row
                (Step::WriteBack, 1, 2),   // after the first row
                (Step::DataSync, 0, 2),    // after both rows
                (Step::StateWrite, 0, 2),  // after the blocks.dat sync
                (Step::StateRename, 0, 2), // after state.tmp is written
                (Step::DirSync, 0, 3),     // after the rename
            ];
            for (step, nth, lap) in crashes {
                let dir = tmpdir("ckpt-crash");
                let mut d = open(&dir, 4, 16, h).unwrap();
                commit_row(&mut d, 0, 1, b"m1");
                commit_row(&mut d, 1, 2, b"m2");
                commit_row(&mut d, 0, 3, b"m3");
                d.checkpoint().unwrap();
                commit_row(&mut d, 2, 4, b"m4");
                FAIL_NEXT.set(Some((step, nth)));
                assert!(matches!(d.checkpoint(), Err(DiskError::Io(_))));
                drop(d);
                let state = fs::read(dir.join("state.bin")).unwrap();
                // Lap 2's base blob is lap 1's last; lap 3's, lap 2's.
                let blob: &[u8] = if lap == 2 { b"m3" } else { b"m4" };
                assert_eq!(decode_state(&state).unwrap(), (lap, blob), "{step:?} {nth}");
                assert_eq!(
                    dir.join("state.tmp").exists(),
                    step == Step::StateRename,
                    "{step:?}"
                );
                let mut d = open(&dir, 4, 16, h).unwrap();
                assert!(!dir.join("state.tmp").exists(), "{step:?}");
                // Lap 2 replays lap 1 whole, then itself; lap 3 only lap 2.
                let replayed: &[u64] = if lap == 2 { &[0, 1, 0, 2] } else { &[2] };
                assert_eq!(d.replayed_rows(), replayed, "{step:?} {nth}");
                assert_eq!(&d.read(0).unwrap()[..], &block(3, 16)[..], "{step:?}");
                assert_eq!(&d.read(1).unwrap()[..], &block(2, 16)[..], "{step:?}");
                assert_eq!(&d.read(2).unwrap()[..], &block(4, 16)[..], "{step:?}");
                assert_eq!(d.meta(), b"m4", "{step:?}");
                fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    /// A row not in memory is read from `blocks.dat` past the page cache
    /// where the log's handle is direct and a row is whole sectors, and
    /// buffered otherwise; either way it reads what the write-back wrote.
    #[test]
    fn a_cold_row_reads_what_was_written_back_on_every_handle() {
        for h in HANDLES {
            for block_size in [4096, 16] {
                let dir = tmpdir("cold-read");
                let mut d = open(&dir, 8, block_size, h).unwrap();
                for row in [1, 6] {
                    d.write_owned(row, block(row as u8, block_size)).unwrap();
                    d.commit(|| b"m".to_vec()).unwrap();
                }
                d.checkpoint().unwrap();
                d.checkpoint().unwrap();
                assert_eq!(d.stats().written_back, 2);
                drop(d);
                let mut d = open(&dir, 8, block_size, h).unwrap();
                let direct = d.stats().direct && block_size == 4096;
                assert_eq!(d.data_reads.is_some(), direct, "{h:?} {block_size}");
                assert!(d.replayed_rows().is_empty());
                for row in 0..8 {
                    let want = if row == 1 || row == 6 { row as u8 } else { 0 };
                    assert_eq!(&d.read(row).unwrap()[..], &block(want, block_size)[..]);
                }
                fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    /// A lap that ends before a staged batch is logged writes back the
    /// rows' logged images, not the staged ones: a crash before the batch
    /// lands finds every row as last committed.
    #[test]
    fn a_lap_end_under_a_staged_batch_writes_back_what_was_logged() {
        for h in HANDLES {
            let dir = tmpdir("staged-lap-end");
            let mut d = open(&dir, 4, 16, h).unwrap();
            commit_row(&mut d, 0, 1, b"m1");
            d.checkpoint().unwrap();
            commit_row(&mut d, 1, 2, b"m2");
            d.write_owned(0, block(9, 16)).unwrap();
            d.write_owned(1, block(9, 16)).unwrap();
            d.checkpoint().unwrap();
            assert_eq!(on_disk(&dir, 0, 16), [1; 16]);
            assert_eq!(&d.read(0).unwrap()[..], &block(9, 16)[..], "still staged");
            FAIL_NEXT.set(Some((Step::LogWrite, 0)));
            assert!(d.commit(|| b"m3".to_vec()).is_err());
            drop(d);
            let mut d = open(&dir, 4, 16, h).unwrap();
            assert_eq!(&d.read(0).unwrap()[..], &block(1, 16)[..]);
            assert_eq!(&d.read(1).unwrap()[..], &block(2, 16)[..]);
            assert_eq!(d.meta(), b"m2");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn site_store_mem_commit_is_free_and_meta_less() {
        let mut s = SiteStore::mem(2, 8);
        s.write_owned(0, block(1, 8)).unwrap();
        assert!(!s.commit(|| panic!("meta must not be built")).unwrap());
        assert_eq!(s.meta(), None);
        assert!(!s.is_durable());
        assert_eq!(s.stats(), None);
    }

    /// A batch puts its records rounded up to the sector on the device:
    /// a 1×4 KiB commit with a 32-byte blob is 4 171 bytes of records and
    /// nine 512-byte sectors, and eight rows grouped are their records
    /// rounded up. The padding is zeros, and the next batch starts right
    /// after it.
    #[test]
    fn a_commit_puts_its_records_rounded_up_to_the_sector_on_the_device() {
        for h in HANDLES {
            let dir = tmpdir("sectors");
            let mut d = open(&dir, 16, 4096, h).unwrap();
            let mut batches = Vec::new();
            for (rows, records) in [(1u64, 4_171u64), (8, 8 * 4_113 + 41 + 17)] {
                let (start, before) = (d.wal_bytes(), d.stats());
                for row in 0..rows {
                    d.write_owned(row, block(rows as u8, 4096)).unwrap();
                }
                assert!(d.commit(|| vec![rows as u8; 32]).unwrap());
                let after = d.stats();
                let padded = records.next_multiple_of(SECTOR as u64);
                assert_eq!(after.record_bytes - before.record_bytes, records);
                assert_eq!(after.log_bytes - before.log_bytes, padded);
                assert_eq!(d.wal_bytes() - start, padded, "{h:?}: {rows} rows");
                if rows == 1 {
                    assert_eq!(padded, 4_608);
                }
                batches.push((start + records, start + padded));
            }
            assert_eq!(d.stats().commits, 2);
            drop(d);
            let log = fs::read(dir.join("wal.log")).unwrap();
            for (end, next) in batches {
                assert!(log[end as usize..next as usize].iter().all(|&b| b == 0));
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A store whose log went missing, or was cut short of the file every
    /// store is created with, is refused by name: opened, it would come
    /// back empty and lose what it had acknowledged. Nothing is created in
    /// its place.
    #[test]
    fn a_store_whose_log_is_gone_or_cut_short_is_refused() {
        for h in HANDLES {
            for cut in [None, Some(4096u64)] {
                let dir = tmpdir("log-lost");
                let mut d = open(&dir, 4, 16, h).unwrap();
                commit_row(&mut d, 3, 7, b"m1");
                drop(d);
                let wal = dir.join("wal.log");
                match cut {
                    None => fs::remove_file(&wal).unwrap(),
                    Some(len) => File::options()
                        .write(true)
                        .open(&wal)
                        .unwrap()
                        .set_len(len)
                        .unwrap(),
                }
                match open(&dir, 4, 16, h) {
                    Err(DiskError::LogLost { len }) => assert_eq!(len, cut.unwrap_or(0)),
                    other => panic!("{cut:?}: expected LogLost, got {other:?}"),
                }
                assert_eq!(wal.exists(), cut.is_some(), "no empty log was made");
                fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    /// `state.bin`'s header, byte for byte: format version 3, lap, then
    /// the CRC of the lap and the snapshot before the snapshot. A version 2
    /// header (each lap ran over the whole log) and a version 1 one (its
    /// batches were packed back to back) are refused by name before the
    /// log is looked at, with or without a log beside them.
    #[test]
    fn the_state_header_is_version_3_and_older_stores_are_refused_by_name() {
        const V3_LAP1_EMPTY: [u8; 20] = [
            b'R', b'A', b'D', b'D', b'L', b'A', b'P', 3, // magic, version 3
            1, 0, 0, 0, 0, 0, 0, 0, // lap 1
            0xF7, 0xDF, 0x88, 0xA9, // CRC-32 of lap ++ snapshot
        ];
        assert_eq!(encode_state(1, b""), V3_LAP1_EMPTY);
        assert_eq!(decode_state(&V3_LAP1_EMPTY).unwrap(), (1, &b""[..]));
        for h in HANDLES {
            for version in [1, 2] {
                for with_log in [false, true] {
                    let dir = tmpdir("old-version");
                    fs::create_dir_all(&dir).unwrap();
                    if with_log {
                        fs::write(dir.join("wal.log"), vec![0u8; LOG_BYTES]).unwrap();
                    }
                    let mut header = V3_LAP1_EMPTY;
                    header[7] = version;
                    fs::write(dir.join("state.bin"), header).unwrap();
                    match open(&dir, 4, 16, h) {
                        Err(DiskError::Version { found, expected: 3 }) if found == version => {}
                        other => panic!("version {version}: expected Version, got {other:?}"),
                    }
                    fs::remove_dir_all(&dir).unwrap();
                }
            }
        }
    }
}
