//! The storage-manager abstraction shared by the WAL and no-overwrite
//! implementations.

use bytes::Bytes;
use radd_sim::OpCounts;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Transaction identifier.
pub type TxnId = u64;

/// Page identifier.
pub type PageId = u64;

/// Storage-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Unknown or already finished transaction.
    NoSuchTxn(TxnId),
    /// Page number beyond the store's capacity.
    PageOutOfRange(PageId),
    /// Payload does not match the page size.
    WrongPageSize {
        /// Bytes supplied.
        got: usize,
        /// Expected page size.
        expected: usize,
    },
    /// The manager is in a crashed state; run recovery first.
    NeedsRecovery,
    /// A corrupt (torn) log record was found past the last good record —
    /// recovery stops there by design, but the caller is told.
    TornLog {
        /// Byte offset of the torn record.
        at: u64,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NoSuchTxn(t) => write!(f, "no active transaction {t}"),
            StorageError::PageOutOfRange(p) => write!(f, "page {p} out of range"),
            StorageError::WrongPageSize { got, expected } => {
                write!(f, "page payload {got} bytes, expected {expected}")
            }
            StorageError::NeedsRecovery => write!(f, "storage manager crashed; recover first"),
            StorageError::TornLog { at } => write!(f, "torn log record at byte {at}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Where recovery runs, which sets the price of each block it touches
/// (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryContext {
    /// The failed site itself recovers ("only one local read need be done
    /// for each block accessed").
    Local,
    /// Another site reconstructs the failed site's state through RADD:
    /// every block read costs `G` remote reads.
    RemoteRadd {
        /// The RADD group size.
        g: usize,
    },
}

/// What recovery did and what it cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Log blocks scanned (zero for the no-overwrite manager — its whole
    /// point).
    pub log_blocks_read: u64,
    /// Data pages replayed forward (REDO).
    pub pages_redone: u64,
    /// Data pages rolled back (UNDO).
    pub pages_undone: u64,
    /// Uncommitted versions discarded (no-overwrite manager).
    pub versions_discarded: u64,
    /// Transactions found committed in the durable state.
    pub winners: u64,
    /// Transactions rolled back.
    pub losers: u64,
    /// Block operations priced under the chosen [`RecoveryContext`].
    pub cost: OpCounts,
}

/// A transactional page store.
pub trait StorageManager {
    /// Manager name for reports.
    fn name(&self) -> &'static str;

    /// Page size in bytes.
    fn page_size(&self) -> usize;

    /// Start a transaction.
    fn begin(&mut self) -> Result<TxnId, StorageError>;

    /// Read a page as seen by `txn` (its own writes, else last committed).
    fn read(&mut self, txn: TxnId, page: PageId) -> Result<Bytes, StorageError>;

    /// Write a page within `txn`.
    fn write(&mut self, txn: TxnId, page: PageId, data: &[u8]) -> Result<(), StorageError>;

    /// Durably commit `txn`.
    fn commit(&mut self, txn: TxnId) -> Result<(), StorageError>;

    /// Roll `txn` back.
    fn abort(&mut self, txn: TxnId) -> Result<(), StorageError>;

    /// Simulate a crash: volatile state (buffer pool, active transactions)
    /// vanishes; durable state survives. All operations fail until
    /// [`recover`](StorageManager::recover) runs.
    fn crash(&mut self);

    /// Bring the durable state to consistency and resume service.
    fn recover(&mut self, ctx: RecoveryContext) -> Result<RecoveryStats, StorageError>;

    /// The committed content of a page, bypassing transactions (assertions
    /// in tests and benches).
    fn committed(&mut self, page: PageId) -> Result<Bytes, StorageError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(StorageError::NoSuchTxn(7).to_string().contains('7'));
        assert!(StorageError::NeedsRecovery.to_string().contains("recover"));
        assert!(StorageError::TornLog { at: 99 }.to_string().contains("99"));
    }
}
