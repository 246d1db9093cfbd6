//! No-overwrite storage manager (POSTGRES-style, \[STON87\]).
//!
//! "POSTGRES supports a storage manager in which data is not overwritten.
//! In this architecture, there is no concept of processing a log at
//! recovery time." Writes create new page *versions* on stable storage
//! immediately; commit durably marks the transaction committed; crash
//! recovery is instantaneous — uncommitted versions are simply invisible
//! and get vacuumed lazily.
//!
//! This is the storage manager that makes RADD useful for *temporary site
//! failures* (§3.4): remote operations can proceed "with no intervening
//! recovery stage".

use crate::manager::{PageId, RecoveryContext, RecoveryStats, StorageError, StorageManager, TxnId};
use bytes::Bytes;
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone)]
struct Version {
    txn: TxnId,
    data: Bytes,
}

/// The no-overwrite manager.
#[derive(Debug)]
pub struct NoOverwriteManager {
    num_pages: u64,
    page_size: usize,
    // Durable state: version chains (oldest → newest) and the committed set.
    versions: HashMap<PageId, Vec<Version>>,
    committed: HashSet<TxnId>,
    // Volatile state.
    active: HashSet<TxnId>,
    next_txn: TxnId,
    crashed: bool,
    /// Stable writes performed (each version append is a disk write — the
    /// price no-overwrite pays *during normal operation* instead of at
    /// recovery).
    pub version_writes: u64,
}

impl NoOverwriteManager {
    /// A manager over `num_pages` pages of `page_size` bytes.
    pub fn new(num_pages: u64, page_size: usize) -> NoOverwriteManager {
        NoOverwriteManager {
            num_pages,
            page_size,
            versions: HashMap::new(),
            committed: HashSet::new(),
            active: HashSet::new(),
            next_txn: 0,
            crashed: false,
            version_writes: 0,
        }
    }

    fn check_live(&self) -> Result<(), StorageError> {
        if self.crashed {
            Err(StorageError::NeedsRecovery)
        } else {
            Ok(())
        }
    }

    fn check_page(&self, page: PageId) -> Result<(), StorageError> {
        if page >= self.num_pages {
            Err(StorageError::PageOutOfRange(page))
        } else {
            Ok(())
        }
    }

    fn zero(&self) -> Bytes {
        Bytes::from(vec![0u8; self.page_size])
    }

    /// Latest version visible to `viewer` (its own writes, else committed).
    fn visible(&self, page: PageId, viewer: Option<TxnId>) -> Bytes {
        if let Some(chain) = self.versions.get(&page) {
            for v in chain.iter().rev() {
                let mine = viewer == Some(v.txn);
                if mine || self.committed.contains(&v.txn) {
                    return v.data.clone();
                }
            }
        }
        self.zero()
    }

    /// Number of stored versions (for vacuum accounting in tests).
    pub fn total_versions(&self) -> usize {
        self.versions.values().map(|c| c.len()).sum()
    }
}

impl StorageManager for NoOverwriteManager {
    fn name(&self) -> &'static str {
        "no-overwrite"
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn begin(&mut self) -> Result<TxnId, StorageError> {
        self.check_live()?;
        self.next_txn += 1;
        self.active.insert(self.next_txn);
        Ok(self.next_txn)
    }

    fn read(&mut self, txn: TxnId, page: PageId) -> Result<Bytes, StorageError> {
        self.check_live()?;
        if !self.active.contains(&txn) {
            return Err(StorageError::NoSuchTxn(txn));
        }
        self.check_page(page)?;
        Ok(self.visible(page, Some(txn)))
    }

    fn write(&mut self, txn: TxnId, page: PageId, data: &[u8]) -> Result<(), StorageError> {
        self.check_live()?;
        if !self.active.contains(&txn) {
            return Err(StorageError::NoSuchTxn(txn));
        }
        self.check_page(page)?;
        if data.len() != self.page_size {
            return Err(StorageError::WrongPageSize {
                got: data.len(),
                expected: self.page_size,
            });
        }
        // A new version goes to stable storage right away — no log, no
        // deferred work.
        let chain = self.versions.entry(page).or_default();
        if let Some(last) = chain.last_mut() {
            if last.txn == txn {
                // Same transaction overwrites its own pending version.
                last.data = Bytes::copy_from_slice(data);
                self.version_writes += 1;
                return Ok(());
            }
        }
        chain.push(Version {
            txn,
            data: Bytes::copy_from_slice(data),
        });
        self.version_writes += 1;
        Ok(())
    }

    fn commit(&mut self, txn: TxnId) -> Result<(), StorageError> {
        self.check_live()?;
        if !self.active.remove(&txn) {
            return Err(StorageError::NoSuchTxn(txn));
        }
        // One durable write: the commit record in the transaction status
        // file (POSTGRES's "commit flag flip").
        self.committed.insert(txn);
        Ok(())
    }

    fn abort(&mut self, txn: TxnId) -> Result<(), StorageError> {
        self.check_live()?;
        if !self.active.remove(&txn) {
            return Err(StorageError::NoSuchTxn(txn));
        }
        for chain in self.versions.values_mut() {
            chain.retain(|v| v.txn != txn);
        }
        Ok(())
    }

    fn crash(&mut self) {
        // Versions and the committed set are durable; only the active list
        // is volatile.
        self.active.clear();
        self.crashed = true;
    }

    fn recover(&mut self, _ctx: RecoveryContext) -> Result<RecoveryStats, StorageError> {
        // "There is no concept of processing a log at recovery time."
        // Service resumes immediately; dead versions are vacuumed lazily —
        // counted here, but off the critical path and therefore zero-cost.
        let mut stats = RecoveryStats::default();
        for chain in self.versions.values_mut() {
            let before = chain.len();
            chain.retain(|v| self.committed.contains(&v.txn));
            stats.versions_discarded += (before - chain.len()) as u64;
        }
        stats.winners = self.committed.len() as u64;
        self.crashed = false;
        Ok(stats)
    }

    fn committed(&mut self, page: PageId) -> Result<Bytes, StorageError> {
        self.check_page(page)?;
        Ok(self.visible(page, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(tag: u8) -> Vec<u8> {
        vec![tag; 128]
    }

    fn mgr() -> NoOverwriteManager {
        NoOverwriteManager::new(16, 128)
    }

    #[test]
    fn committed_writes_survive_crash_with_zero_recovery_cost() {
        let mut m = mgr();
        let t = m.begin().unwrap();
        m.write(t, 3, &page(7)).unwrap();
        m.commit(t).unwrap();
        m.crash();
        let stats = m.recover(RecoveryContext::RemoteRadd { g: 8 }).unwrap();
        // The §3.4 point: nothing to scan, even remotely.
        assert_eq!(stats.log_blocks_read, 0);
        assert_eq!(stats.cost.total(), 0);
        assert_eq!(&m.committed(3).unwrap()[..], &page(7)[..]);
    }

    #[test]
    fn uncommitted_versions_invisible_and_vacuumed() {
        let mut m = mgr();
        let t1 = m.begin().unwrap();
        m.write(t1, 0, &page(1)).unwrap();
        m.commit(t1).unwrap();
        let t2 = m.begin().unwrap();
        m.write(t2, 0, &page(2)).unwrap();
        // Even before any crash, other viewers see the committed version.
        assert_eq!(&m.committed(0).unwrap()[..], &page(1)[..]);
        m.crash();
        let stats = m.recover(RecoveryContext::Local).unwrap();
        assert_eq!(stats.versions_discarded, 1);
        assert_eq!(&m.committed(0).unwrap()[..], &page(1)[..]);
    }

    #[test]
    fn own_writes_visible_before_commit() {
        let mut m = mgr();
        let t = m.begin().unwrap();
        m.write(t, 5, &page(9)).unwrap();
        assert_eq!(&m.read(t, 5).unwrap()[..], &page(9)[..]);
        assert_eq!(&m.committed(5).unwrap()[..], &vec![0u8; 128][..]);
    }

    #[test]
    fn abort_discards_versions() {
        let mut m = mgr();
        let t = m.begin().unwrap();
        m.write(t, 1, &page(3)).unwrap();
        m.abort(t).unwrap();
        assert_eq!(m.total_versions(), 0);
        assert_eq!(&m.committed(1).unwrap()[..], &vec![0u8; 128][..]);
    }

    #[test]
    fn same_txn_rewrites_coalesce() {
        let mut m = mgr();
        let t = m.begin().unwrap();
        m.write(t, 0, &page(1)).unwrap();
        m.write(t, 0, &page(2)).unwrap();
        assert_eq!(m.total_versions(), 1);
        m.commit(t).unwrap();
        assert_eq!(&m.committed(0).unwrap()[..], &page(2)[..]);
    }

    #[test]
    fn version_chain_preserves_history_until_vacuum() {
        let mut m = mgr();
        for tag in 1..=3u8 {
            let t = m.begin().unwrap();
            m.write(t, 0, &page(tag)).unwrap();
            m.commit(t).unwrap();
        }
        assert_eq!(m.total_versions(), 3, "no overwrite: three versions");
        assert_eq!(&m.committed(0).unwrap()[..], &page(3)[..]);
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
    fn page_bounds_checked() {
        let mut m = mgr();
        let t = m.begin().unwrap();
        assert!(matches!(
            m.write(t, 99, &page(1)).unwrap_err(),
            StorageError::PageOutOfRange(99)
        ));
        assert!(matches!(
            m.read(t, 99).unwrap_err(),
            StorageError::PageOutOfRange(99)
        ));
    }
}
