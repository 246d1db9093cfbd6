//! A distributed transaction executor over a live RADD cluster.
//!
//! Implements Section 6's client-side behaviour:
//!
//! * "query optimization can proceed with no consideration of multiple
//!   copies" — the transaction addresses `(site, index)` pairs directly;
//! * "if the site at which a plan is supposed to execute is up or
//!   recovering, then the plan is simply executed at that site. If the
//!   site is down, then the plan is allocated to some other convenient
//!   site" — reads and writes transparently relocate (the RADD read/write
//!   paths serve them via spare/reconstruction);
//! * "distributed concurrency control can be done using any of the common
//!   techniques" — here strict 2PL on block addresses via the cluster's
//!   lock manager, released at commit/abort.

use radd_core::{Actor, LockKind, OpCounts, RaddCluster, RaddError, SiteId, SiteState};
use std::collections::HashSet;

/// Transaction-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// A block lock is held by another transaction.
    LockConflict {
        /// The owner in the way.
        holder: u64,
    },
    /// The underlying RADD operation failed.
    Radd(RaddError),
    /// The transaction has already finished.
    Finished,
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::LockConflict { holder } => write!(f, "lock held by txn {holder}"),
            TxnError::Radd(e) => write!(f, "storage error: {e}"),
            TxnError::Finished => write!(f, "transaction already finished"),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<RaddError> for TxnError {
    fn from(e: RaddError) -> Self {
        TxnError::Radd(e)
    }
}

/// One strict-2PL distributed transaction.
///
/// The transaction borrows the cluster per call (the simulator is
/// single-threaded); the lock table provides isolation between interleaved
/// transactions.
#[derive(Debug)]
pub struct DistributedTxn {
    id: u64,
    /// Undo images for rollback: (site, index, old content).
    undo: Vec<(SiteId, u64, Vec<u8>)>,
    /// Locked block addresses (site, physical row).
    locked: HashSet<(SiteId, u64)>,
    /// Accumulated operation counts.
    pub ops: OpCounts,
    finished: bool,
}

impl DistributedTxn {
    /// Begin transaction `id` (ids must be unique among live transactions;
    /// the caller — or a sequence counter — provides them).
    pub fn begin(id: u64) -> DistributedTxn {
        DistributedTxn {
            id,
            undo: Vec::new(),
            locked: HashSet::new(),
            ops: OpCounts::ZERO,
            finished: false,
        }
    }

    /// The transaction id.
    pub fn id(&self) -> u64 {
        self.id
    }

    fn check_open(&self) -> Result<(), TxnError> {
        if self.finished {
            Err(TxnError::Finished)
        } else {
            Ok(())
        }
    }

    /// §3.3: lock the data block — or, when the owning site is down, the
    /// spare block that stands in for it. Parity blocks are never locked.
    fn lock(
        &mut self,
        cluster: &mut RaddCluster,
        site: SiteId,
        index: u64,
        kind: LockKind,
    ) -> Result<(), TxnError> {
        let row = cluster.geometry().data_to_physical(site, index);
        let lock_site = if cluster.effective_state(site) == SiteState::Down {
            cluster.geometry().spare_site(row)
        } else {
            site
        };
        cluster
            .locks()
            .try_lock(lock_site, row, kind, self.id)
            .map_err(|c| TxnError::LockConflict { holder: c.holder })?;
        self.locked.insert((lock_site, row));
        Ok(())
    }

    /// Read `(site, index)` under a shared lock, acting as `actor`.
    pub fn read(
        &mut self,
        cluster: &mut RaddCluster,
        actor: Actor,
        site: SiteId,
        index: u64,
    ) -> Result<Vec<u8>, TxnError> {
        self.check_open()?;
        self.lock(cluster, site, index, LockKind::Shared)?;
        let (data, receipt) = cluster.read(actor, site, index)?;
        self.ops += receipt.counts;
        Ok(data.to_vec())
    }

    /// Write `(site, index)` under an exclusive lock, acting as `actor`.
    pub fn write(
        &mut self,
        cluster: &mut RaddCluster,
        actor: Actor,
        site: SiteId,
        index: u64,
        data: &[u8],
    ) -> Result<(), TxnError> {
        self.check_open()?;
        self.lock(cluster, site, index, LockKind::Exclusive)?;
        let old = cluster.logical_content(site, index)?;
        let receipt = cluster.write(actor, site, index, data)?;
        self.undo.push((site, index, old.to_vec()));
        self.ops += receipt.counts;
        Ok(())
    }

    /// Commit: release all locks (the writes are already durable in the
    /// RADD — parity updates shipped synchronously, which is precisely the
    /// §6 "prepared" argument).
    pub fn commit(mut self, cluster: &mut RaddCluster) -> Result<OpCounts, TxnError> {
        self.check_open()?;
        cluster.locks().release_all(self.id);
        self.finished = true;
        Ok(self.ops)
    }

    /// Abort: restore every written block to its old content, then release
    /// locks.
    pub fn abort(mut self, cluster: &mut RaddCluster) -> Result<OpCounts, TxnError> {
        self.check_open()?;
        let undos = std::mem::take(&mut self.undo);
        for (site, index, old) in undos.into_iter().rev() {
            let receipt = cluster.write(Actor::Client, site, index, &old)?;
            self.ops += receipt.counts;
        }
        cluster.locks().release_all(self.id);
        self.finished = true;
        Ok(self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radd_core::{RaddConfig, SiteState};

    fn cluster() -> RaddCluster {
        RaddCluster::new(RaddConfig::small_g4()).unwrap()
    }

    fn blk(c: &RaddCluster, tag: u8) -> Vec<u8> {
        vec![tag; c.config().block_size]
    }

    #[test]
    fn commit_makes_writes_visible() {
        let mut c = cluster();
        let data = blk(&c, 7);
        let mut t = DistributedTxn::begin(1);
        t.write(&mut c, Actor::Site(0), 0, 0, &data).unwrap();
        t.write(&mut c, Actor::Site(3), 3, 1, &data).unwrap();
        t.commit(&mut c).unwrap();
        assert_eq!(&c.read(Actor::Site(0), 0, 0).unwrap().0[..], &data[..]);
        assert_eq!(&c.read(Actor::Site(3), 3, 1).unwrap().0[..], &data[..]);
        c.verify_parity().unwrap();
    }

    #[test]
    fn abort_rolls_back_all_sites() {
        let mut c = cluster();
        let before = blk(&c, 1);
        c.write(Actor::Site(0), 0, 0, &before).unwrap();
        let (v2, v3) = (blk(&c, 2), blk(&c, 3));
        let mut t = DistributedTxn::begin(2);
        t.write(&mut c, Actor::Site(0), 0, 0, &v2).unwrap();
        t.write(&mut c, Actor::Site(1), 1, 0, &v3).unwrap();
        t.abort(&mut c).unwrap();
        assert_eq!(&c.read(Actor::Site(0), 0, 0).unwrap().0[..], &before[..]);
        assert_eq!(
            &c.read(Actor::Site(1), 1, 0).unwrap().0[..],
            &blk(&c, 0)[..],
            "never-written block back to zeros"
        );
        c.verify_parity().unwrap();
    }

    #[test]
    fn conflicting_writes_blocked_until_commit() {
        let mut c = cluster();
        let (v1, v2) = (blk(&c, 1), blk(&c, 2));
        let mut t1 = DistributedTxn::begin(1);
        t1.write(&mut c, Actor::Site(0), 0, 0, &v1).unwrap();
        let mut t2 = DistributedTxn::begin(2);
        let err = t2.write(&mut c, Actor::Site(0), 0, 0, &v2).unwrap_err();
        assert_eq!(err, TxnError::LockConflict { holder: 1 });
        t1.commit(&mut c).unwrap();
        t2.write(&mut c, Actor::Site(0), 0, 0, &v2).unwrap();
        t2.commit(&mut c).unwrap();
        assert_eq!(&c.read(Actor::Site(0), 0, 0).unwrap().0[..], &v2[..]);
    }

    #[test]
    fn readers_share_writers_exclude() {
        let mut c = cluster();
        let mut t1 = DistributedTxn::begin(1);
        let mut t2 = DistributedTxn::begin(2);
        t1.read(&mut c, Actor::Client, 2, 0).unwrap();
        t2.read(&mut c, Actor::Client, 2, 0).unwrap();
        let v1 = blk(&c, 1);
        let mut t3 = DistributedTxn::begin(3);
        assert!(matches!(
            t3.write(&mut c, Actor::Client, 2, 0, &v1),
            Err(TxnError::LockConflict { .. })
        ));
        t1.commit(&mut c).unwrap();
        t2.commit(&mut c).unwrap();
        t3.write(&mut c, Actor::Client, 2, 0, &v1).unwrap();
        t3.commit(&mut c).unwrap();
    }

    #[test]
    fn down_site_transactions_lock_the_spare() {
        // §3.3: "If a site is down, then read and write locks are set on
        // the spare block which exists at some site which is up."
        let mut c = cluster();
        c.write(Actor::Site(2), 2, 0, &blk(&c, 1)).unwrap();
        c.fail_site(2);
        let mut t = DistributedTxn::begin(1);
        let got = t.read(&mut c, Actor::Client, 2, 0).unwrap();
        assert_eq!(got, blk(&c, 1));
        let row = c.geometry().data_to_physical(2, 0);
        let spare_site = c.geometry().spare_site(row);
        assert!(c.locks().holds(spare_site, row, LockKind::Shared, 1));
        t.commit(&mut c).unwrap();
    }

    #[test]
    fn recovery_is_refused_while_a_transaction_holds_the_spare_row() {
        // §3.2's drain locks each spare block it copies back: a
        // transaction's §3.3 lock on the stand-in refuses the drain until
        // the transaction ends.
        let mut c = cluster();
        let data = blk(&c, 5);
        c.fail_site(4);
        let mut t = DistributedTxn::begin(1);
        t.write(&mut c, Actor::Client, 4, 0, &data).unwrap();
        c.restore_site(4);
        let spare_site = c.geometry().spare_site(c.geometry().data_to_physical(4, 0));
        let err = c.run_recovery(4).unwrap_err();
        assert!(err.is_refusal(), "a lock conflict is a refusal: {err:?}");
        assert_eq!(err, RaddError::Unavailable { site: spare_site });
        assert_eq!(c.locks().locked_blocks(), 1, "only the transaction's lock");
        t.commit(&mut c).unwrap();
        assert_eq!(c.run_recovery(4).unwrap().spares_drained, 1);
        assert_eq!(c.locks().locked_blocks(), 0);
        assert_eq!(&c.read(Actor::Site(4), 4, 0).unwrap().0[..], &data[..]);
    }

    #[test]
    fn slave_crash_after_done_is_recoverable_via_parity() {
        // The §6 argument end to end: a slave performs its writes (parity
        // updates shipped synchronously = "done"), then crashes before any
        // commit message. The coordinator commits anyway; the data is
        // reconstructable.
        let mut c = cluster();
        let data = blk(&c, 9);
        let mut t = DistributedTxn::begin(1);
        t.write(&mut c, Actor::Site(4), 4, 0, &data).unwrap(); // slave work done
        c.fail_site(4); // slave crashes after `done`
        t.commit(&mut c).unwrap(); // coordinator decides commit
        let (got, _) = c.read(Actor::Client, 4, 0).unwrap();
        assert_eq!(
            &got[..],
            &data[..],
            "buffer-pool write recovered from parity"
        );
        // And the slave's recovery brings it fully back.
        c.restore_site(4);
        c.run_recovery(4).unwrap();
        assert_eq!(c.site_state(4), SiteState::Up);
        assert_eq!(&c.read(Actor::Site(4), 4, 0).unwrap().0[..], &data[..]);
    }

    #[test]
    fn finished_transaction_rejects_operations() {
        let mut c = cluster();
        let t = DistributedTxn::begin(1);
        t.commit(&mut c).unwrap();
        let mut t2 = DistributedTxn::begin(1);
        t2.finished = true;
        assert!(matches!(
            t2.read(&mut c, Actor::Client, 0, 0),
            Err(TxnError::Finished)
        ));
    }
}
