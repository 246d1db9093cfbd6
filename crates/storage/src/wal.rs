//! Write-ahead-log storage manager (\[GRAY78\]-style, two-pass recovery).
//!
//! Design points that matter for the §3.4 reproduction:
//!
//! * **steal / no-force** buffer management: dirty pages may reach disk
//!   before commit (steal) and are *not* forced at commit (no-force), so
//!   recovery genuinely needs both REDO and UNDO passes;
//! * the **log is forced at commit** and before any stolen page write (the
//!   write-ahead rule);
//! * aborts append compensation updates and an abort marker, so the
//!   recovery scan can treat aborted transactions as winners (history
//!   repeats);
//! * recovery scans the whole durable log block by block; under
//!   [`RecoveryContext::RemoteRadd`] every one of those block reads is
//!   priced at `G` remote reads — the paper's "each block accessed during
//!   the recovery process will require G physical reads at various sites".

use crate::manager::{PageId, RecoveryContext, RecoveryStats, StorageError, StorageManager, TxnId};
use bytes::Bytes;
use radd_blockdev::checksum::crc32;
use radd_blockdev::{BlockDevice, MemDisk};
use radd_sim::OpKind;
use std::collections::{HashMap, HashSet};

const LOG_BLOCK: usize = 4096;

#[derive(Debug, Clone, PartialEq)]
enum LogRecord {
    Begin(TxnId),
    Update {
        txn: TxnId,
        page: PageId,
        old: Vec<u8>,
        new: Vec<u8>,
    },
    Commit(TxnId),
    Abort(TxnId),
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
fn committed_record_beyond(
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

impl LogRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut body = Vec::new();
        match self {
            LogRecord::Begin(t) => {
                body.push(0);
                body.extend_from_slice(&t.to_le_bytes());
            }
            LogRecord::Update {
                txn,
                page,
                old,
                new,
            } => {
                body.push(1);
                body.extend_from_slice(&txn.to_le_bytes());
                body.extend_from_slice(&page.to_le_bytes());
                body.extend_from_slice(&(old.len() as u32).to_le_bytes());
                body.extend_from_slice(old);
                body.extend_from_slice(&(new.len() as u32).to_le_bytes());
                body.extend_from_slice(new);
            }
            LogRecord::Commit(t) => {
                body.push(2);
                body.extend_from_slice(&t.to_le_bytes());
            }
            LogRecord::Abort(t) => {
                body.push(3);
                body.extend_from_slice(&t.to_le_bytes());
            }
        }
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
    }

    /// Decode one record at `at`; returns `(record, next_offset)`, `Ok(None)`
    /// at a clean end, `Err` on a torn record.
    fn decode(buf: &[u8], at: usize) -> Result<Option<(LogRecord, usize)>, StorageError> {
        if at == buf.len() {
            return Ok(None);
        }
        let torn = StorageError::TornLog { at: at as u64 };
        let hdr = buf.get(at..at + 8).ok_or(torn.clone())?;
        let len = u32::from_le_bytes(hdr[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
        let body = buf.get(at + 8..at + 8 + len).ok_or(torn.clone())?;
        if crc32(body) != crc {
            return Err(torn);
        }
        let u64_at = |o: usize| u64::from_le_bytes(body[o..o + 8].try_into().unwrap());
        let rec = match body[0] {
            0 => LogRecord::Begin(u64_at(1)),
            1 => {
                let txn = u64_at(1);
                let page = u64_at(9);
                let old_len = u32::from_le_bytes(body[17..21].try_into().unwrap()) as usize;
                let old = body[21..21 + old_len].to_vec();
                let new_off = 21 + old_len;
                let new_len =
                    u32::from_le_bytes(body[new_off..new_off + 4].try_into().unwrap()) as usize;
                let new = body[new_off + 4..new_off + 4 + new_len].to_vec();
                LogRecord::Update {
                    txn,
                    page,
                    old,
                    new,
                }
            }
            2 => LogRecord::Commit(u64_at(1)),
            3 => LogRecord::Abort(u64_at(1)),
            _ => return Err(torn),
        };
        Ok(Some((rec, at + 8 + len)))
    }
}

/// The WAL storage manager.
#[derive(Debug)]
pub struct WalManager {
    page_size: usize,
    // Durable state.
    pages: MemDisk,
    durable_log: Vec<u8>,
    // Volatile state.
    buffer: HashMap<PageId, Bytes>,
    dirty: HashSet<PageId>,
    volatile_log: Vec<u8>,
    active: HashSet<TxnId>,
    /// Per-active-txn update list for in-memory abort.
    undo: HashMap<TxnId, Vec<(PageId, Vec<u8>)>>,
    next_txn: TxnId,
    crashed: bool,
}

impl WalManager {
    /// A manager over `num_pages` pages of `page_size` bytes.
    pub fn new(num_pages: u64, page_size: usize) -> WalManager {
        WalManager {
            page_size,
            pages: MemDisk::new(num_pages, page_size),
            durable_log: Vec::new(),
            buffer: HashMap::new(),
            dirty: HashSet::new(),
            volatile_log: Vec::new(),
            active: HashSet::new(),
            undo: HashMap::new(),
            next_txn: 0,
            crashed: false,
        }
    }

    fn check_live(&self) -> Result<(), StorageError> {
        if self.crashed {
            Err(StorageError::NeedsRecovery)
        } else {
            Ok(())
        }
    }

    fn append(&mut self, rec: &LogRecord) {
        rec.encode(&mut self.volatile_log);
    }

    /// Force the log: everything appended so far becomes durable.
    pub fn force_log(&mut self) {
        self.durable_log.append(&mut self.volatile_log);
    }

    /// Steal: push one dirty page to disk before commit (forces the log
    /// first, per the write-ahead rule).
    pub fn flush_page(&mut self, page: PageId) -> Result<(), StorageError> {
        self.check_live()?;
        if let Some(data) = self.buffer.get(&page).cloned() {
            self.force_log();
            self.pages
                .write_block(page, &data)
                .map_err(|_| StorageError::PageOutOfRange(page))?;
            self.dirty.remove(&page);
        }
        Ok(())
    }

    /// Size of the durable log in blocks (what recovery must scan).
    pub fn durable_log_blocks(&self) -> u64 {
        self.durable_log.len().div_ceil(LOG_BLOCK) as u64
    }

    fn page_read(&mut self, page: PageId) -> Result<Bytes, StorageError> {
        if let Some(b) = self.buffer.get(&page) {
            return Ok(b.clone());
        }
        let b = self
            .pages
            .read_block(page)
            .map_err(|_| StorageError::PageOutOfRange(page))?;
        self.buffer.insert(page, b.clone());
        Ok(b)
    }
}

impl StorageManager for WalManager {
    fn name(&self) -> &'static str {
        "WAL"
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn begin(&mut self) -> Result<TxnId, StorageError> {
        self.check_live()?;
        self.next_txn += 1;
        let txn = self.next_txn;
        self.active.insert(txn);
        self.undo.insert(txn, Vec::new());
        self.append(&LogRecord::Begin(txn));
        Ok(txn)
    }

    fn read(&mut self, txn: TxnId, page: PageId) -> Result<Bytes, StorageError> {
        self.check_live()?;
        if !self.active.contains(&txn) {
            return Err(StorageError::NoSuchTxn(txn));
        }
        self.page_read(page)
    }

    fn write(&mut self, txn: TxnId, page: PageId, data: &[u8]) -> Result<(), StorageError> {
        self.check_live()?;
        if !self.active.contains(&txn) {
            return Err(StorageError::NoSuchTxn(txn));
        }
        if data.len() != self.page_size {
            return Err(StorageError::WrongPageSize {
                got: data.len(),
                expected: self.page_size,
            });
        }
        let old = self.page_read(page)?.to_vec();
        self.append(&LogRecord::Update {
            txn,
            page,
            old: old.clone(),
            new: data.to_vec(),
        });
        self.undo.get_mut(&txn).expect("active").push((page, old));
        self.buffer.insert(page, Bytes::copy_from_slice(data));
        self.dirty.insert(page);
        Ok(())
    }

    fn commit(&mut self, txn: TxnId) -> Result<(), StorageError> {
        self.check_live()?;
        if !self.active.remove(&txn) {
            return Err(StorageError::NoSuchTxn(txn));
        }
        self.undo.remove(&txn);
        self.append(&LogRecord::Commit(txn));
        self.force_log(); // commit = log force; pages stay in the buffer
        Ok(())
    }

    fn abort(&mut self, txn: TxnId) -> Result<(), StorageError> {
        self.check_live()?;
        if !self.active.remove(&txn) {
            return Err(StorageError::NoSuchTxn(txn));
        }
        // Compensation updates restore old values, then the abort marker
        // closes the transaction as a "winner" for the recovery scan.
        let undos = self.undo.remove(&txn).expect("active");
        for (page, old) in undos.into_iter().rev() {
            let current = self.page_read(page)?.to_vec();
            self.append(&LogRecord::Update {
                txn,
                page,
                old: current,
                new: old.clone(),
            });
            self.buffer.insert(page, Bytes::from(old));
            self.dirty.insert(page);
        }
        self.append(&LogRecord::Abort(txn));
        self.force_log();
        Ok(())
    }

    fn crash(&mut self) {
        self.buffer.clear();
        self.dirty.clear();
        self.volatile_log.clear();
        self.active.clear();
        self.undo.clear();
        self.crashed = true;
    }

    fn recover(&mut self, ctx: RecoveryContext) -> Result<RecoveryStats, StorageError> {
        // Price the log scan.
        let mut stats = RecoveryStats {
            log_blocks_read: self.durable_log_blocks(),
            ..Default::default()
        };
        match ctx {
            RecoveryContext::Local => {
                stats
                    .cost
                    .record_n(OpKind::LocalRead, stats.log_blocks_read);
            }
            RecoveryContext::RemoteRadd { g } => {
                // "Each block accessed during the recovery process will
                // require G physical reads at various sites."
                stats
                    .cost
                    .record_n(OpKind::RemoteRead, stats.log_blocks_read * g as u64);
            }
        }
        // Pass 1: repeat history (redo every update in order), collecting
        // transaction outcomes.
        let mut log = std::mem::take(&mut self.durable_log);
        let mut finished: HashSet<TxnId> = HashSet::new();
        let mut seen: HashSet<TxnId> = HashSet::new();
        let mut updates: Vec<(TxnId, PageId, Vec<u8>, Vec<u8>)> = Vec::new();
        let mut at = 0;
        loop {
            match LogRecord::decode(&log, at) {
                Ok(None) => break,
                Ok(Some((rec, next))) => {
                    match rec {
                        LogRecord::Begin(t) => {
                            seen.insert(t);
                        }
                        LogRecord::Update {
                            txn,
                            page,
                            old,
                            new,
                        } => {
                            updates.push((txn, page, old, new));
                        }
                        LogRecord::Commit(t) | LogRecord::Abort(t) => {
                            finished.insert(t);
                        }
                    }
                    at = next;
                }
                Err(e) => {
                    // A corrupt record ends the scan only if it really is a
                    // torn *tail*: records past it were never durably
                    // finished, so dropping them repeats what UNDO would do
                    // anyway. A committed/aborted record *beyond* the tear
                    // means finished work would be silently lost — report
                    // the corruption instead (the old scan stopped short
                    // here and dropped those records on the floor).
                    let finisher = |body: &[u8]| matches!(body.first(), Some(2) | Some(3));
                    if committed_record_beyond(&log, at + 1, finisher).is_some() {
                        self.durable_log = log;
                        return Err(e);
                    }
                    log.truncate(at);
                    break;
                }
            }
        }
        for (_, page, _, new) in &updates {
            self.pages
                .write_block(*page, new)
                .map_err(|_| StorageError::PageOutOfRange(*page))?;
            stats.pages_redone += 1;
            match ctx {
                RecoveryContext::Local => stats.cost.record(OpKind::LocalWrite),
                RecoveryContext::RemoteRadd { .. } => stats.cost.record(OpKind::RemoteWrite),
            }
        }
        // Pass 2: undo losers in reverse order.
        let losers: HashSet<TxnId> = seen.difference(&finished).copied().collect();
        for (txn, page, old, _) in updates.iter().rev() {
            if losers.contains(txn) {
                self.pages
                    .write_block(*page, old)
                    .map_err(|_| StorageError::PageOutOfRange(*page))?;
                stats.pages_undone += 1;
                match ctx {
                    RecoveryContext::Local => stats.cost.record(OpKind::LocalWrite),
                    RecoveryContext::RemoteRadd { .. } => stats.cost.record(OpKind::RemoteWrite),
                }
            }
        }
        stats.winners = finished.len() as u64;
        stats.losers = losers.len() as u64;
        // Close the losers durably (history repeats): compensation updates
        // mirroring the undo pass, then abort markers. Without these a
        // *second* crash would find the losers still open and undo them
        // again — clobbering any newer committed writes to the same pages.
        for (txn, page, old, new) in updates.iter().rev() {
            if losers.contains(txn) {
                LogRecord::Update {
                    txn: *txn,
                    page: *page,
                    old: new.clone(),
                    new: old.clone(),
                }
                .encode(&mut log);
            }
        }
        for t in &losers {
            LogRecord::Abort(*t).encode(&mut log);
        }
        self.durable_log = log;
        self.crashed = false;
        Ok(stats)
    }

    fn committed(&mut self, page: PageId) -> Result<Bytes, StorageError> {
        // Committed state = disk + buffered committed writes; for test
        // simplicity, force everything through the buffer view.
        self.page_read(page)
    }
}

// Internal knobs used by tests to simulate torn and corrupted writes.
#[cfg(test)]
impl WalManager {
    fn corrupt_log_tail(&mut self) {
        if let Some(last) = self.durable_log.last_mut() {
            *last ^= 0xFF;
        }
    }

    fn corrupt_log_at(&mut self, at: usize) {
        self.durable_log[at] ^= 0xFF;
    }

    fn durable_log_len(&self) -> usize {
        self.durable_log.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(tag: u8) -> Vec<u8> {
        vec![tag; 128]
    }

    fn mgr() -> WalManager {
        WalManager::new(16, 128)
    }

    #[test]
    fn committed_writes_survive_crash() {
        let mut m = mgr();
        let t = m.begin().unwrap();
        m.write(t, 3, &page(7)).unwrap();
        m.commit(t).unwrap();
        m.crash();
        let stats = m.recover(RecoveryContext::Local).unwrap();
        assert_eq!(stats.winners, 1);
        assert_eq!(stats.losers, 0);
        assert!(stats.pages_redone >= 1);
        assert_eq!(&m.committed(3).unwrap()[..], &page(7)[..]);
    }

    #[test]
    fn uncommitted_writes_vanish_after_crash() {
        let mut m = mgr();
        let t1 = m.begin().unwrap();
        m.write(t1, 0, &page(1)).unwrap();
        m.commit(t1).unwrap();
        let t2 = m.begin().unwrap();
        m.write(t2, 0, &page(2)).unwrap();
        // Steal: the dirty uncommitted page reaches disk.
        m.flush_page(0).unwrap();
        m.crash();
        let stats = m.recover(RecoveryContext::Local).unwrap();
        assert_eq!(stats.losers, 1);
        assert!(stats.pages_undone >= 1, "stolen page must be undone");
        assert_eq!(&m.committed(0).unwrap()[..], &page(1)[..]);
    }

    #[test]
    fn unforced_uncommitted_log_never_replays() {
        let mut m = mgr();
        let t = m.begin().unwrap();
        m.write(t, 5, &page(9)).unwrap();
        // No commit, no steal: the update only exists in the volatile log.
        m.crash();
        let stats = m.recover(RecoveryContext::Local).unwrap();
        assert_eq!(stats.pages_redone, 0);
        assert_eq!(&m.committed(5).unwrap()[..], &vec![0u8; 128][..]);
        // t was never durably begun, so it is not even a loser.
        assert_eq!(stats.losers, 0);
    }

    #[test]
    fn abort_restores_old_values_and_survives_crash() {
        let mut m = mgr();
        let t1 = m.begin().unwrap();
        m.write(t1, 2, &page(1)).unwrap();
        m.commit(t1).unwrap();
        let t2 = m.begin().unwrap();
        m.write(t2, 2, &page(2)).unwrap();
        m.abort(t2).unwrap();
        assert_eq!(&m.committed(2).unwrap()[..], &page(1)[..]);
        m.crash();
        m.recover(RecoveryContext::Local).unwrap();
        assert_eq!(&m.committed(2).unwrap()[..], &page(1)[..]);
    }

    #[test]
    fn operations_fail_until_recovery() {
        let mut m = mgr();
        m.crash();
        assert_eq!(m.begin().unwrap_err(), StorageError::NeedsRecovery);
        m.recover(RecoveryContext::Local).unwrap();
        assert!(m.begin().is_ok());
    }

    #[test]
    fn remote_recovery_costs_g_reads_per_log_block() {
        let mut m = mgr();
        for i in 0..20 {
            let t = m.begin().unwrap();
            m.write(t, i % 16, &page(i as u8)).unwrap();
            m.commit(t).unwrap();
        }
        m.crash();
        let local = m.recover(RecoveryContext::Local).unwrap();
        m.crash();
        let remote = m.recover(RecoveryContext::RemoteRadd { g: 8 }).unwrap();
        assert_eq!(local.log_blocks_read, remote.log_blocks_read);
        assert_eq!(
            remote.cost.remote_reads,
            8 * local.cost.local_reads,
            "§3.4: every log block costs G remote reads"
        );
    }

    #[test]
    fn interleaved_transactions_recover_correctly() {
        // Two concurrent transactions on disjoint pages (2PL guarantees
        // disjointness of concurrent writers; physical UNDO relies on it).
        let mut m = mgr();
        let a = m.begin().unwrap();
        let b = m.begin().unwrap();
        m.write(a, 0, &page(10)).unwrap();
        m.write(b, 1, &page(20)).unwrap();
        m.write(a, 2, &page(11)).unwrap();
        m.commit(a).unwrap();
        // b never commits; crash with everything stolen to disk.
        m.flush_page(0).unwrap();
        m.flush_page(1).unwrap();
        m.flush_page(2).unwrap();
        m.crash();
        let stats = m.recover(RecoveryContext::Local).unwrap();
        assert_eq!(stats.winners, 1);
        assert_eq!(stats.losers, 1);
        assert_eq!(&m.committed(0).unwrap()[..], &page(10)[..]);
        assert_eq!(
            &m.committed(1).unwrap()[..],
            &vec![0u8; 128][..],
            "loser undone"
        );
        assert_eq!(&m.committed(2).unwrap()[..], &page(11)[..]);
    }

    #[test]
    fn torn_tail_recovers_as_if_never_committed() {
        // The tail byte of the log — inside the final Commit record — is
        // damaged, as a torn write would leave it. Nothing committed lies
        // beyond, so recovery proceeds: the commit never durably happened,
        // the transaction is a loser, and its update is undone. (The old
        // scan reported TornLog here and refused to recover at all.)
        let mut m = mgr();
        let t = m.begin().unwrap();
        m.write(t, 0, &page(1)).unwrap();
        m.commit(t).unwrap();
        m.corrupt_log_tail();
        m.crash();
        let stats = m.recover(RecoveryContext::Local).unwrap();
        assert_eq!(stats.losers, 1, "the torn commit never happened");
        assert_eq!(&m.committed(0).unwrap()[..], &vec![0u8; 128][..]);
        // Service resumes on the truncated log.
        let t = m.begin().unwrap();
        m.write(t, 0, &page(2)).unwrap();
        m.commit(t).unwrap();
        m.crash();
        m.recover(RecoveryContext::Local).unwrap();
        assert_eq!(&m.committed(0).unwrap()[..], &page(2)[..]);
    }

    #[test]
    fn mid_log_corruption_with_commits_beyond_is_reported() {
        // Damage a byte inside the FIRST transaction's records while a
        // second committed transaction follows: stopping at the tear would
        // silently drop that committed work, so recovery must report
        // TornLog instead.
        let mut m = mgr();
        let t1 = m.begin().unwrap();
        m.write(t1, 0, &page(1)).unwrap();
        m.commit(t1).unwrap();
        let mid = m.durable_log_len() / 2;
        let t2 = m.begin().unwrap();
        m.write(t2, 1, &page(2)).unwrap();
        m.commit(t2).unwrap();
        m.corrupt_log_at(mid);
        m.crash();
        assert!(matches!(
            m.recover(RecoveryContext::Local).unwrap_err(),
            StorageError::TornLog { .. }
        ));
        // The error is not destructive: the durable log is preserved for
        // forensics, and the manager stays in the needs-recovery state.
        assert!(m.durable_log_len() > 0);
        assert_eq!(m.begin().unwrap_err(), StorageError::NeedsRecovery);
    }

    #[test]
    fn corrupted_length_field_with_commits_beyond_is_reported() {
        // Corrupt the very first record's length header — the framing
        // itself desynchronises, not just one body. The byte-resync scan
        // must still find the committed records beyond and report.
        let mut m = mgr();
        let t1 = m.begin().unwrap();
        m.write(t1, 0, &page(1)).unwrap();
        m.commit(t1).unwrap();
        m.corrupt_log_at(0);
        m.crash();
        assert!(matches!(
            m.recover(RecoveryContext::Local).unwrap_err(),
            StorageError::TornLog { .. }
        ));
    }

    #[test]
    fn log_grows_with_updates_and_recovery_scans_it_all() {
        let mut m = mgr();
        for _ in 0..50 {
            let t = m.begin().unwrap();
            m.write(t, 0, &page(3)).unwrap();
            m.commit(t).unwrap();
        }
        m.crash();
        let stats = m.recover(RecoveryContext::Local).unwrap();
        assert!(stats.log_blocks_read >= 4, "got {}", stats.log_blocks_read);
        assert_eq!(stats.pages_redone, 50);
    }
}
