//! 2D-RADD: a two-dimensional parity grid (§7.1, after \[GIBS89\]).
//!
//! Data sites form an `R × C` grid. Every grid row has a dedicated parity
//! site and spare site for the row dimension; every grid column has the
//! same for the column dimension. ("For each 64 disks in a two-dimensional
//! array, the 2D-RADD requires two collections of 16 extra disks" — 8 rows
//! × 2 + 8 columns × 2 = 32 extras on 64 data disks, 50 % overhead.)
//!
//! Costs per Figure 3:
//!
//! * no-failure write `W + 2·RW` — the local write plus *two* parity
//!   updates;
//! * site-failure read `G·RR` — reconstruct along the row;
//! * site-failure write `4·RW` — spare + parity in both dimensions.
//!
//! The payoff is resilience: **any two** data-site failures are survivable,
//! because two sites can share at most one group — the other dimension
//! reconstructs each (exercised in the tests). This is what gives 2D-RADD
//! its `MTTF > 500 years` row in Figure 6.

use crate::traits::{FailureKind, ReplicationScheme};
use bytes::Bytes;
use radd_blockdev::{BlockDevice, MemDisk};
use radd_core::{Actor, CostParams, OpKind, OpReceipt, RaddError, SiteId};
use radd_parity::{xor_in_place, ChangeMask};
use radd_sim::CostLedger;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Up,
    Down,
    Lost, // down with contents gone (disaster)
}

#[derive(Debug)]
struct DataSite {
    state: State,
    disk: MemDisk,
}

/// One dimension's redundancy for one group (a grid row or column): a
/// dedicated parity disk and a dedicated spare disk.
#[derive(Debug)]
struct GroupRedundancy {
    parity: MemDisk,
    spare: MemDisk,
    /// Which member's blocks the spare currently stands in for, per block.
    spare_for: Vec<Option<usize>>, // member position within the group
}

/// The two-dimensional RADD.
#[derive(Debug)]
pub struct TwoDRadd {
    rows: usize,
    cols: usize,
    blocks_per_site: u64,
    block_size: usize,
    sites: Vec<DataSite>,             // row-major r * cols + c
    row_groups: Vec<GroupRedundancy>, // one per grid row
    col_groups: Vec<GroupRedundancy>, // one per grid column
    ledger: CostLedger,
}

impl TwoDRadd {
    /// An `rows × cols` grid (the paper's example is 8 × 8).
    pub fn new(
        rows: usize,
        cols: usize,
        blocks_per_site: u64,
        block_size: usize,
        cost: CostParams,
    ) -> Result<TwoDRadd, RaddError> {
        if rows < 2 || cols < 2 {
            return Err(RaddError::BadConfig("2D grid needs at least 2×2".into()));
        }
        let mk_group = || GroupRedundancy {
            parity: MemDisk::new(blocks_per_site, block_size),
            spare: MemDisk::new(blocks_per_site, block_size),
            spare_for: vec![None; blocks_per_site as usize],
        };
        Ok(TwoDRadd {
            rows,
            cols,
            blocks_per_site,
            block_size,
            sites: (0..rows * cols)
                .map(|_| DataSite {
                    state: State::Up,
                    disk: MemDisk::new(blocks_per_site, block_size),
                })
                .collect(),
            row_groups: (0..rows).map(|_| mk_group()).collect(),
            col_groups: (0..cols).map(|_| mk_group()).collect(),
            ledger: CostLedger::new(cost),
        })
    }

    /// The paper's 8 × 8 grid with `G = 8` row/column fan-in.
    pub fn paper_8x8(blocks_per_site: u64, block_size: usize) -> Result<TwoDRadd, RaddError> {
        TwoDRadd::new(
            8,
            8,
            blocks_per_site,
            block_size,
            CostParams::paper_defaults(),
        )
    }

    fn coords(&self, site: SiteId) -> (usize, usize) {
        (site / self.cols, site % self.cols)
    }

    fn site_at(&self, r: usize, c: usize) -> SiteId {
        r * self.cols + c
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

    /// Charge a write to a dedicated parity/spare disk — always remote (the
    /// redundancy sites are distinct machines from every data site).
    fn charge_redundancy_write(&mut self) {
        self.ledger.charge(OpKind::RemoteWrite);
    }

    /// Reconstruct `(site, index)` along its row (preferred) or column,
    /// charging one remote read per surviving member + parity. Errors only
    /// if *both* dimensions are broken.
    fn reconstruct(
        &mut self,
        actor: Actor,
        site: SiteId,
        index: u64,
        foreground: bool,
    ) -> Result<Vec<u8>, RaddError> {
        let (r, c) = self.coords(site);
        // Try the row dimension.
        let row_members: Vec<SiteId> = (0..self.cols)
            .map(|cc| self.site_at(r, cc))
            .filter(|&s| s != site)
            .collect();
        if row_members
            .iter()
            .all(|&s| self.sites[s].state == State::Up)
        {
            let mut acc = vec![0u8; self.block_size];
            for &s in &row_members {
                if foreground {
                    self.charge(actor, s, false);
                } else {
                    self.ledger.charge_background(OpKind::RemoteRead);
                }
                let b = self.sites[s].disk.read_block(index)?;
                xor_in_place(&mut acc, &b);
            }
            if foreground {
                self.ledger.charge(OpKind::RemoteRead); // the row parity disk
            } else {
                self.ledger.charge_background(OpKind::RemoteRead);
            }
            let p = self.row_groups[r].parity.read_block(index)?;
            xor_in_place(&mut acc, &p);
            return Ok(acc);
        }
        // Fall back to the column dimension.
        let col_members: Vec<SiteId> = (0..self.rows)
            .map(|rr| self.site_at(rr, c))
            .filter(|&s| s != site)
            .collect();
        if col_members
            .iter()
            .all(|&s| self.sites[s].state == State::Up)
        {
            let mut acc = vec![0u8; self.block_size];
            for &s in &col_members {
                if foreground {
                    self.charge(actor, s, false);
                } else {
                    self.ledger.charge_background(OpKind::RemoteRead);
                }
                let b = self.sites[s].disk.read_block(index)?;
                xor_in_place(&mut acc, &b);
            }
            if foreground {
                self.ledger.charge(OpKind::RemoteRead);
            } else {
                self.ledger.charge_background(OpKind::RemoteRead);
            }
            let p = self.col_groups[c].parity.read_block(index)?;
            xor_in_place(&mut acc, &p);
            return Ok(acc);
        }
        Err(RaddError::MultipleFailure {
            detail: format!("site {site}: both its row and its column have another failure"),
        })
    }

    /// Apply a change mask to both dimension parities of `(site, index)`.
    fn update_parities(
        &mut self,
        site: SiteId,
        index: u64,
        mask: &ChangeMask,
    ) -> Result<(), RaddError> {
        let (r, c) = self.coords(site);
        let mut p = self.row_groups[r].parity.read_block(index)?.to_vec();
        mask.apply(&mut p);
        self.row_groups[r].parity.write_block(index, &p)?;
        self.charge_redundancy_write();
        let mut p = self.col_groups[c].parity.read_block(index)?.to_vec();
        mask.apply(&mut p);
        self.col_groups[c].parity.write_block(index, &p)?;
        self.charge_redundancy_write();
        Ok(())
    }

    /// Logical current content of a block, for mask computation and
    /// verification (uncharged).
    fn logical(&mut self, site: SiteId, index: u64) -> Result<Vec<u8>, RaddError> {
        let (r, c) = self.coords(site);
        if self.row_groups[r].spare_for[index as usize] == Some(c) {
            return Ok(self.row_groups[r].spare.read_block(index)?.to_vec());
        }
        match self.sites[site].state {
            State::Up | State::Down => Ok(self.sites[site].disk.read_block(index)?.to_vec()),
            State::Lost => self.reconstruct_silent(site, index),
        }
    }

    fn reconstruct_silent(&mut self, site: SiteId, index: u64) -> Result<Vec<u8>, RaddError> {
        let (r, c) = self.coords(site);
        let row_members: Vec<SiteId> = (0..self.cols)
            .map(|cc| self.site_at(r, cc))
            .filter(|&s| s != site)
            .collect();
        if row_members
            .iter()
            .all(|&s| self.sites[s].state == State::Up)
        {
            let mut acc = self.row_groups[r].parity.read_block(index)?.to_vec();
            for &s in &row_members {
                let b = self.sites[s].disk.read_block(index)?;
                xor_in_place(&mut acc, &b);
            }
            return Ok(acc);
        }
        let col_members: Vec<SiteId> = (0..self.rows)
            .map(|rr| self.site_at(rr, c))
            .filter(|&s| s != site)
            .collect();
        if col_members
            .iter()
            .all(|&s| self.sites[s].state == State::Up)
        {
            let mut acc = self.col_groups[c].parity.read_block(index)?.to_vec();
            for &s in &col_members {
                let b = self.sites[s].disk.read_block(index)?;
                xor_in_place(&mut acc, &b);
            }
            return Ok(acc);
        }
        Err(RaddError::MultipleFailure {
            detail: format!("site {site} not reconstructable in either dimension"),
        })
    }
}

impl ReplicationScheme for TwoDRadd {
    fn name(&self) -> &'static str {
        "2D-RADD"
    }

    fn space_overhead(&self) -> f64 {
        // rows·2 + cols·2 extra disks on rows·cols data disks: 50 % at 8×8.
        (self.rows * 2 + self.cols * 2) as f64 / (self.rows * self.cols) as f64
    }

    fn num_sites(&self) -> usize {
        self.rows * self.cols
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
        let (r, c) = self.coords(site);
        let data: Vec<u8> = if self.sites[site].state == State::Up {
            self.charge(actor, site, false);
            self.sites[site].disk.read_block(index)?.to_vec()
        } else if self.row_groups[r].spare_for[index as usize] == Some(c) {
            // Previously reconstructed / written while down: the row spare.
            self.ledger.charge(OpKind::RemoteRead);
            self.row_groups[r].spare.read_block(index)?.to_vec()
        } else {
            let data = self.reconstruct(actor, site, index, true)?;
            // Install into the row spare for subsequent reads (background).
            self.row_groups[r].spare.write_block(index, &data)?;
            self.row_groups[r].spare_for[index as usize] = Some(c);
            self.ledger.charge_background(OpKind::RemoteWrite);
            data
        };
        let (counts, latency) = self.ledger.since(snap);
        Ok((Bytes::from(data), OpReceipt { counts, latency }))
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
        let (r, c) = self.coords(site);
        let old = self.logical(site, index)?;
        let mask = ChangeMask::diff(&old, data);
        if self.sites[site].state == State::Up {
            // W + 2·RW.
            self.charge(actor, site, true);
            self.sites[site].disk.write_block(index, data)?;
            self.update_parities(site, index, &mask)?;
        } else {
            // 4·RW: both spares + both parities.
            if let Some(other) = self.row_groups[r].spare_for[index as usize] {
                if other != c {
                    return Err(RaddError::MultipleFailure {
                        detail: format!("row {r} spare block {index} already in use"),
                    });
                }
            }
            if let Some(other) = self.col_groups[c].spare_for[index as usize] {
                if other != r {
                    return Err(RaddError::MultipleFailure {
                        detail: format!("column {c} spare block {index} already in use"),
                    });
                }
            }
            self.row_groups[r].spare.write_block(index, data)?;
            self.row_groups[r].spare_for[index as usize] = Some(c);
            self.charge_redundancy_write();
            self.col_groups[c].spare.write_block(index, data)?;
            self.col_groups[c].spare_for[index as usize] = Some(r);
            self.charge_redundancy_write();
            self.update_parities(site, index, &mask)?;
        }
        let (counts, latency) = self.ledger.since(snap);
        Ok(OpReceipt { counts, latency })
    }

    fn inject(&mut self, site: SiteId, kind: FailureKind) -> Result<(), RaddError> {
        match kind {
            FailureKind::SiteFailure => self.sites[site].state = State::Down,
            FailureKind::Disaster => {
                self.sites[site].state = State::Lost;
                self.sites[site].disk = MemDisk::new(self.blocks_per_site, self.block_size);
            }
            FailureKind::DiskFailure { .. } => {
                // One disk per data site in this model: same as a site
                // failure for that site's blocks.
                self.sites[site].state = State::Down;
            }
        }
        Ok(())
    }

    fn repair(&mut self, site: SiteId) -> Result<(), RaddError> {
        let (r, c) = self.coords(site);
        let was_lost = self.sites[site].state == State::Lost;
        self.sites[site].state = State::Up;
        for index in 0..self.blocks_per_site {
            let in_row_spare = self.row_groups[r].spare_for[index as usize] == Some(c);
            if in_row_spare {
                let content = self.row_groups[r].spare.read_block(index)?;
                self.ledger.charge_background(OpKind::RemoteRead);
                self.sites[site].disk.write_block(index, &content)?;
                self.ledger.charge_background(OpKind::LocalWrite);
                self.row_groups[r].spare_for[index as usize] = None;
            } else if was_lost {
                let content = self.reconstruct_silent(site, index)?;
                self.ledger.charge_background(OpKind::RemoteRead); // batched
                self.sites[site].disk.write_block(index, &content)?;
                self.ledger.charge_background(OpKind::LocalWrite);
            }
            if self.col_groups[c].spare_for[index as usize] == Some(r) {
                self.col_groups[c].spare_for[index as usize] = None;
            }
        }
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        for index in 0..self.blocks_per_site {
            for r in 0..self.rows {
                let mut acc = vec![0u8; self.block_size];
                let mut ok = true;
                for cc in 0..self.cols {
                    match self.logical(self.site_at(r, cc), index) {
                        Ok(b) => xor_in_place(&mut acc, &b),
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    let p = self.row_groups[r]
                        .parity
                        .read_block(index)
                        .map_err(|e| e.to_string())?;
                    if acc != p.to_vec() {
                        return Err(format!("row {r} parity mismatch at block {index}"));
                    }
                }
            }
            for c in 0..self.cols {
                let mut acc = vec![0u8; self.block_size];
                let mut ok = true;
                for rr in 0..self.rows {
                    match self.logical(self.site_at(rr, c), index) {
                        Ok(b) => xor_in_place(&mut acc, &b),
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    let p = self.col_groups[c]
                        .parity
                        .read_block(index)
                        .map_err(|e| e.to_string())?;
                    if acc != p.to_vec() {
                        return Err(format!("column {c} parity mismatch at block {index}"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> TwoDRadd {
        TwoDRadd::new(3, 3, 4, 64, CostParams::paper_defaults()).unwrap()
    }

    #[test]
    fn space_overhead_at_8x8_is_50_percent() {
        let g = TwoDRadd::paper_8x8(1, 64).unwrap();
        assert_eq!(g.space_overhead(), 0.5); // Figure 2
    }

    #[test]
    fn normal_write_costs_w_plus_2rw() {
        let mut g = TwoDRadd::paper_8x8(4, 64).unwrap();
        let receipt = g.write(Actor::Site(0), 0, 0, [1u8; 64].as_ref()).unwrap();
        assert_eq!(receipt.counts.formula(), "W+2*RW"); // Figure 3
        assert_eq!(receipt.latency.as_millis(), 180); // Figure 4
    }

    #[test]
    fn site_failure_read_reconstructs_along_row() {
        let mut g = TwoDRadd::paper_8x8(4, 64).unwrap();
        let data = vec![2u8; 64];
        g.write(Actor::Site(0), 0, 1, &data).unwrap();
        g.inject(0, FailureKind::SiteFailure).unwrap();
        let (got, receipt) = g.read(Actor::Client, 0, 1).unwrap();
        assert_eq!(&got[..], &data[..]);
        // 7 row members + row parity = 8 remote reads = G·RR.
        assert_eq!(receipt.counts.formula(), "8*RR");
        assert_eq!(receipt.latency.as_millis(), 600); // Figure 4
    }

    #[test]
    fn site_failure_write_costs_4rw() {
        let mut g = TwoDRadd::paper_8x8(4, 64).unwrap();
        g.inject(5, FailureKind::SiteFailure).unwrap();
        let receipt = g.write(Actor::Client, 5, 0, [3u8; 64].as_ref()).unwrap();
        assert_eq!(receipt.counts.formula(), "4*RW"); // Figure 3
        assert_eq!(receipt.latency.as_millis(), 300); // Figure 4
    }

    #[test]
    fn survives_two_failures_in_different_rows_and_columns() {
        let mut g = grid();
        let a = vec![4u8; 64];
        let b = vec![5u8; 64];
        g.write(Actor::Client, 0, 0, &a).unwrap(); // site (0,0)
        g.write(Actor::Client, 4, 0, &b).unwrap(); // site (1,1)
        g.inject(0, FailureKind::SiteFailure).unwrap();
        g.inject(4, FailureKind::SiteFailure).unwrap();
        let (got, _) = g.read(Actor::Client, 0, 0).unwrap();
        assert_eq!(&got[..], &a[..]);
        let (got, _) = g.read(Actor::Client, 4, 0).unwrap();
        assert_eq!(&got[..], &b[..]);
    }

    #[test]
    fn survives_two_failures_in_same_row_via_columns() {
        let mut g = grid();
        let a = vec![6u8; 64];
        let b = vec![7u8; 64];
        g.write(Actor::Client, 0, 2, &a).unwrap(); // (0,0)
        g.write(Actor::Client, 1, 2, &b).unwrap(); // (0,1) — same row
        g.inject(0, FailureKind::SiteFailure).unwrap();
        g.inject(1, FailureKind::SiteFailure).unwrap();
        // Row reconstruction impossible; columns save both.
        let (got, _) = g.read(Actor::Client, 0, 2).unwrap();
        assert_eq!(&got[..], &a[..]);
        let (got, _) = g.read(Actor::Client, 1, 2).unwrap();
        assert_eq!(&got[..], &b[..]);
    }

    #[test]
    fn three_aligned_failures_are_fatal() {
        let mut g = grid();
        g.write(Actor::Client, 0, 0, [1u8; 64].as_ref()).unwrap();
        // (0,0) plus one in the same row and one in the same column.
        g.inject(0, FailureKind::SiteFailure).unwrap();
        g.inject(1, FailureKind::SiteFailure).unwrap(); // (0,1) same row
        g.inject(3, FailureKind::SiteFailure).unwrap(); // (1,0) same column
        assert!(matches!(
            g.read(Actor::Client, 0, 0).unwrap_err(),
            RaddError::MultipleFailure { .. }
        ));
    }

    #[test]
    fn previously_reconstructed_read_uses_spare() {
        let mut g = grid();
        let data = vec![8u8; 64];
        g.write(Actor::Client, 2, 0, &data).unwrap();
        g.inject(2, FailureKind::SiteFailure).unwrap();
        g.read(Actor::Client, 2, 0).unwrap(); // reconstruct + install
        let (got, receipt) = g.read(Actor::Client, 2, 0).unwrap();
        assert_eq!(&got[..], &data[..]);
        assert_eq!(receipt.counts.formula(), "RR");
    }

    #[test]
    fn down_write_then_repair_restores_content() {
        let mut g = grid();
        let v1 = vec![1u8; 64];
        let v2 = vec![2u8; 64];
        g.write(Actor::Client, 4, 1, &v1).unwrap();
        g.inject(4, FailureKind::SiteFailure).unwrap();
        g.write(Actor::Client, 4, 1, &v2).unwrap();
        g.verify().unwrap();
        g.repair(4).unwrap();
        let (got, receipt) = g.read(Actor::Client, 4, 1).unwrap();
        assert_eq!(&got[..], &v2[..]);
        assert_eq!(
            receipt.counts.formula(),
            "RR",
            "served by the healthy site remotely"
        );
        g.verify().unwrap();
    }

    #[test]
    fn disaster_repair_rebuilds_from_parity() {
        let mut g = grid();
        for i in 0..4u64 {
            g.write(Actor::Client, 7, i, &[i as u8 + 1; 64]).unwrap();
        }
        g.inject(7, FailureKind::Disaster).unwrap();
        g.repair(7).unwrap();
        for i in 0..4u64 {
            let (got, _) = g.read(Actor::Client, 7, i).unwrap();
            assert_eq!(got[0], i as u8 + 1);
        }
        g.verify().unwrap();
    }

    #[test]
    fn parity_invariants_hold_after_mixed_workload() {
        let mut g = grid();
        for round in 0..3u8 {
            for site in 0..9 {
                g.write(
                    Actor::Client,
                    site,
                    (round as u64) % 4,
                    &[round * 40 + site as u8; 64],
                )
                .unwrap();
            }
        }
        g.verify().unwrap();
    }
}
