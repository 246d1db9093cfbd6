//! ROWB — Read-One-Write-Both, the traditional two-copy algorithm (§7.1).
//!
//! "Here, we restrict attention to the case where there are exactly two
//! copies of each object. In this case, any voting scheme reduces to
//! something equivalent to a Read-One-Write-Both (ROWB) scheme."
//!
//! Every data block of site `j` has a full backup copy at site
//! `(j + 1) mod n`. Reads touch the primary (`R`); writes touch both copies
//! (`W + RW`); during a failure the surviving copy serves alone (`RR` reads,
//! `RW` writes — Figure 3's ROWB column). Space overhead is 100 %.

use crate::traits::{FailureKind, ReplicationScheme};
use bytes::Bytes;
use radd_blockdev::{BlockDevice, MemDisk};
use radd_core::{Actor, CostParams, OpCounts, OpKind, OpReceipt, RaddError, SiteId};
use radd_sim::CostLedger;
use std::collections::HashSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Up,
    Down,
}

#[derive(Debug)]
struct RowbSite {
    state: State,
    /// This site's own data blocks.
    primary: MemDisk,
    /// Backup copies of the *previous* site's data blocks.
    backup: MemDisk,
    /// Data lost (disaster) — primary must be re-copied on repair.
    primary_lost: bool,
    /// Primary blocks on a failed local disk.
    failed_disk: Option<usize>,
}

/// Two-copy mirroring across sites.
#[derive(Debug)]
pub struct Rowb {
    sites: Vec<RowbSite>,
    blocks_per_site: u64,
    blocks_per_disk: u64,
    block_size: usize,
    ledger: CostLedger,
    /// Primary copies that went stale while their site was down; the repair
    /// pass refreshes them from the backup.
    dirty_primary: HashSet<(SiteId, u64)>,
    /// Backup copies (keyed by the site *holding* the backup) that went
    /// stale while that site was down; refreshed from the owner's primary.
    dirty_backup: HashSet<(SiteId, u64)>,
}

impl Rowb {
    /// `n` sites, each with `blocks_per_site` data blocks mirrored onto its
    /// successor. `disks_per_site` controls disk-failure granularity.
    pub fn new(
        n: usize,
        blocks_per_site: u64,
        disks_per_site: usize,
        block_size: usize,
        cost: CostParams,
    ) -> Result<Rowb, RaddError> {
        if n < 2 {
            return Err(RaddError::BadConfig("ROWB needs at least 2 sites".into()));
        }
        if !blocks_per_site.is_multiple_of(disks_per_site as u64) {
            return Err(RaddError::BadConfig(
                "blocks must divide evenly across disks".into(),
            ));
        }
        Ok(Rowb {
            sites: (0..n)
                .map(|_| RowbSite {
                    state: State::Up,
                    primary: MemDisk::new(blocks_per_site, block_size),
                    backup: MemDisk::new(blocks_per_site, block_size),
                    primary_lost: false,
                    failed_disk: None,
                })
                .collect(),
            blocks_per_site,
            blocks_per_disk: blocks_per_site / disks_per_site as u64,
            block_size,
            ledger: CostLedger::new(cost),
            dirty_primary: HashSet::new(),
            dirty_backup: HashSet::new(),
        })
    }

    /// The site holding the backup copy of `site`'s data.
    pub fn backup_site(&self, site: SiteId) -> SiteId {
        (site + 1) % self.sites.len()
    }

    fn charge(&mut self, actor: Actor, at: SiteId, write: bool) {
        let kind = match (actor.is_local_to(at), write) {
            (true, false) => OpKind::LocalRead,
            (true, true) => OpKind::LocalWrite,
            (false, false) => OpKind::RemoteRead,
            (false, true) => OpKind::RemoteWrite,
        };
        self.ledger.charge(kind);
    }

    fn receipt_since(&self, snap: (OpCounts, radd_core::SimDuration)) -> OpReceipt {
        let (counts, latency) = self.ledger.since(snap);
        OpReceipt { counts, latency }
    }

    /// Can the primary copy of `(site, index)` be read?
    fn primary_ok(&self, site: SiteId, index: u64) -> bool {
        let s = &self.sites[site];
        s.state == State::Up
            && !s.primary_lost
            && s.failed_disk != Some((index / self.blocks_per_disk) as usize)
    }
}

impl ReplicationScheme for Rowb {
    fn name(&self) -> &'static str {
        "ROWB"
    }

    fn space_overhead(&self) -> f64 {
        1.0 // Figure 2: 100 %
    }

    fn num_sites(&self) -> usize {
        self.sites.len()
    }

    fn data_capacity(&self, _site: SiteId) -> u64 {
        self.blocks_per_site
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn read(
        &mut self,
        actor: Actor,
        site: SiteId,
        index: u64,
    ) -> Result<(Bytes, OpReceipt), RaddError> {
        if index >= self.blocks_per_site {
            return Err(RaddError::OutOfRange {
                index,
                capacity: self.blocks_per_site,
            });
        }
        let snap = self.ledger.snapshot();
        let data = if self.primary_ok(site, index) {
            self.charge(actor, site, false);
            self.sites[site].primary.read_block(index)?
        } else {
            // Read the other copy: a single remote read (Figure 3).
            let b = self.backup_site(site);
            if self.sites[b].state != State::Up {
                return Err(RaddError::MultipleFailure {
                    detail: format!("both copies of site {site} block {index} unavailable"),
                });
            }
            self.charge(actor, b, false);
            self.sites[b].backup.read_block(index)?
        };
        Ok((data, self.receipt_since(snap)))
    }

    fn write(
        &mut self,
        actor: Actor,
        site: SiteId,
        index: u64,
        data: &[u8],
    ) -> Result<OpReceipt, RaddError> {
        if index >= self.blocks_per_site {
            return Err(RaddError::OutOfRange {
                index,
                capacity: self.blocks_per_site,
            });
        }
        if data.len() != self.block_size {
            return Err(RaddError::WrongBlockSize {
                got: data.len(),
                expected: self.block_size,
            });
        }
        let snap = self.ledger.snapshot();
        let b = self.backup_site(site);
        let primary_ok = self.primary_ok(site, index);
        let backup_ok = self.sites[b].state == State::Up;
        if !primary_ok && !backup_ok {
            return Err(RaddError::MultipleFailure {
                detail: format!("both copies of site {site} block {index} unavailable"),
            });
        }
        if primary_ok {
            self.charge(actor, site, true);
            self.sites[site].primary.write_block(index, data)?;
        } else {
            self.dirty_primary.insert((site, index));
        }
        if backup_ok {
            self.charge(actor, b, true);
            self.sites[b].backup.write_block(index, data)?;
        } else {
            // Backup site down: the primary alone carries the write; the
            // repair pass re-mirrors from it.
            self.dirty_backup.insert((b, index));
        }
        Ok(self.receipt_since(snap))
    }

    fn inject(&mut self, site: SiteId, kind: FailureKind) -> Result<(), RaddError> {
        match kind {
            FailureKind::SiteFailure => self.sites[site].state = State::Down,
            FailureKind::Disaster => {
                self.sites[site].state = State::Down;
                self.sites[site].primary = MemDisk::new(self.blocks_per_site, self.block_size);
                self.sites[site].backup = MemDisk::new(self.blocks_per_site, self.block_size);
                self.sites[site].primary_lost = true;
            }
            FailureKind::DiskFailure { disk } => {
                self.sites[site].failed_disk = Some(disk);
            }
        }
        Ok(())
    }

    fn repair(&mut self, site: SiteId) -> Result<(), RaddError> {
        // Re-copy from the surviving copies (background work).
        let n = self.sites.len();
        let b = self.backup_site(site);
        let prev = (site + n - 1) % n;
        let was_lost = self.sites[site].primary_lost;
        self.sites[site].failed_disk = None;

        // Refresh primary blocks that changed while down, or all of them
        // after a disaster.
        for index in 0..self.blocks_per_site {
            let dirty = self.dirty_primary.remove(&(site, index));
            if was_lost || dirty {
                let content = self.sites[b].backup.read_block(index)?;
                self.ledger.charge_background(OpKind::RemoteRead);
                self.sites[site].primary.write_block(index, &content)?;
                self.ledger.charge_background(OpKind::LocalWrite);
            }
        }
        // Refresh this site's backup of its predecessor where it went stale
        // (writes to the predecessor while this site was down), or entirely
        // after a disaster.
        for index in 0..self.blocks_per_site {
            let dirty = self.dirty_backup.remove(&(site, index));
            if was_lost || dirty {
                let content = self.sites[prev].primary.read_block(index)?;
                self.ledger.charge_background(OpKind::RemoteRead);
                self.sites[site].backup.write_block(index, &content)?;
                self.ledger.charge_background(OpKind::LocalWrite);
            }
        }
        self.sites[site].primary_lost = false;
        self.sites[site].state = State::Up;
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let n = self.sites.len();
        for site in 0..n {
            if self.sites[site].state != State::Up {
                continue;
            }
            let b = self.backup_site(site);
            if self.sites[b].state != State::Up {
                continue;
            }
            for index in 0..self.blocks_per_site {
                if self.dirty_primary.contains(&(site, index))
                    || self.dirty_backup.contains(&(b, index))
                {
                    continue;
                }
                let p = self.sites[site]
                    .primary
                    .read_block(index)
                    .map_err(|e| e.to_string())?;
                let q = self.sites[b]
                    .backup
                    .read_block(index)
                    .map_err(|e| e.to_string())?;
                if p != q {
                    return Err(format!("mirror mismatch: site {site} block {index}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rowb() -> Rowb {
        Rowb::new(4, 8, 2, 64, CostParams::paper_defaults()).unwrap()
    }

    #[test]
    fn space_overhead_is_100_percent() {
        assert_eq!(rowb().space_overhead(), 1.0);
    }

    #[test]
    fn normal_read_r_write_w_plus_rw() {
        let mut r = rowb();
        let receipt = r.write(Actor::Site(0), 0, 0, [1u8; 64].as_ref()).unwrap();
        assert_eq!(receipt.counts.formula(), "W+RW"); // Figure 3
        assert_eq!(receipt.latency.as_millis(), 105); // Figure 4
        let (_, receipt) = r.read(Actor::Site(0), 0, 0).unwrap();
        assert_eq!(receipt.counts.formula(), "R");
    }

    #[test]
    fn site_failure_read_is_single_rr() {
        let mut r = rowb();
        let data = vec![2u8; 64];
        r.write(Actor::Site(1), 1, 3, &data).unwrap();
        r.inject(1, FailureKind::SiteFailure).unwrap();
        let (got, receipt) = r.read(Actor::Client, 1, 3).unwrap();
        assert_eq!(&got[..], &data[..]);
        assert_eq!(receipt.counts.formula(), "RR"); // Figure 3
        assert_eq!(receipt.latency.as_millis(), 75);
    }

    #[test]
    fn site_failure_write_is_single_rw() {
        let mut r = rowb();
        r.inject(1, FailureKind::SiteFailure).unwrap();
        let receipt = r.write(Actor::Client, 1, 3, [3u8; 64].as_ref()).unwrap();
        assert_eq!(receipt.counts.formula(), "RW");
        assert_eq!(receipt.latency.as_millis(), 75);
    }

    #[test]
    fn disk_failure_served_by_backup() {
        let mut r = rowb();
        let data = vec![4u8; 64];
        r.write(Actor::Site(0), 0, 0, &data).unwrap();
        r.inject(0, FailureKind::DiskFailure { disk: 0 }).unwrap();
        // Block 0 is on disk 0 (failed); block 4 is on disk 1 (fine).
        let (got, receipt) = r.read(Actor::Site(0), 0, 0).unwrap();
        assert_eq!(&got[..], &data[..]);
        assert_eq!(receipt.counts.formula(), "RR");
        r.write(Actor::Site(0), 0, 4, &data).unwrap();
        let (_, receipt) = r.read(Actor::Site(0), 0, 4).unwrap();
        assert_eq!(receipt.counts.formula(), "R");
    }

    #[test]
    fn writes_during_outage_survive_repair() {
        let mut r = rowb();
        let v1 = vec![1u8; 64];
        let v2 = vec![2u8; 64];
        r.write(Actor::Site(2), 2, 5, &v1).unwrap();
        r.inject(2, FailureKind::SiteFailure).unwrap();
        r.write(Actor::Client, 2, 5, &v2).unwrap();
        r.repair(2).unwrap();
        let (got, receipt) = r.read(Actor::Site(2), 2, 5).unwrap();
        assert_eq!(&got[..], &v2[..]);
        assert_eq!(receipt.counts.formula(), "R");
        r.verify().unwrap();
    }

    #[test]
    fn disaster_recovery_recopies_everything() {
        let mut r = rowb();
        for i in 0..8 {
            r.write(Actor::Site(3), 3, i, &[i as u8 + 1; 64]).unwrap();
            // Site 3 also backs up site 2.
            r.write(Actor::Site(2), 2, i, &[i as u8 + 100; 64]).unwrap();
        }
        r.inject(3, FailureKind::Disaster).unwrap();
        // Site 2's data is still readable? Its backup lives at site 3 (down)
        // but its primary is fine.
        let (got, _) = r.read(Actor::Site(2), 2, 0).unwrap();
        assert_eq!(got[0], 100);
        r.repair(3).unwrap();
        for i in 0..8 {
            let (got, _) = r.read(Actor::Site(3), 3, i).unwrap();
            assert_eq!(got[0], i as u8 + 1, "primary restored");
        }
        r.verify().unwrap();
    }

    #[test]
    fn both_copies_down_is_multiple_failure() {
        let mut r = rowb();
        r.inject(0, FailureKind::SiteFailure).unwrap();
        r.inject(1, FailureKind::SiteFailure).unwrap(); // backup of 0
        assert!(matches!(
            r.read(Actor::Client, 0, 0).unwrap_err(),
            RaddError::MultipleFailure { .. }
        ));
    }

    #[test]
    fn backup_site_down_write_hits_primary_only() {
        let mut r = rowb();
        r.inject(1, FailureKind::SiteFailure).unwrap(); // backup of site 0
        let receipt = r.write(Actor::Site(0), 0, 0, [9u8; 64].as_ref()).unwrap();
        assert_eq!(receipt.counts.formula(), "W");
        r.repair(1).unwrap();
    }
}
