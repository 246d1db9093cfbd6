//! Per-site state: a sans-IO protocol machine paired with a disk array.
//!
//! All §3 bookkeeping — block UIDs, parity UID arrays, spare slots,
//! invalid-row marks — lives in [`radd_protocol::SiteMachine`]. This module
//! binds one machine to the storage it cannot own: a [`DiskArray`] that can
//! fail a disk or lose everything in a disaster, which the pure machine
//! only ever observes as [`radd_protocol::BlockFault`]s. And it holds the
//! site's §3.1 state, which only this cluster's failure injection and
//! recovery daemon read.

use bytes::Bytes;
use radd_blockdev::{BlockDevice, DevError, DiskArray};
use radd_layout::{PhysRow, SiteId};
use radd_protocol::SiteMachine;

pub use radd_protocol::{SiteState, SpareSlot};

/// One of the `G + 2` computer systems: the §3 protocol machine plus the
/// disk array backing its rows.
#[derive(Debug)]
pub struct SiteNode {
    /// The sans-IO server machine (UIDs, spares, invalid rows).
    pub machine: SiteMachine,
    /// The site's disk array (`rows` blocks across `N` disks).
    pub array: DiskArray,
    /// Up, down or recovering (§3.1).
    pub state: SiteState,
}

impl SiteNode {
    /// A fresh, healthy site.
    pub fn new(
        id: SiteId,
        group_size: usize,
        disks: usize,
        blocks_per_disk: u64,
        block_size: usize,
    ) -> SiteNode {
        let rows = disks as u64 * blocks_per_disk;
        SiteNode {
            machine: SiteMachine::new(id, group_size, rows, block_size),
            array: DiskArray::new(disks, blocks_per_disk, block_size),
            state: SiteState::Up,
        }
    }

    /// Read a block from the local array.
    pub fn read_block(&mut self, row: PhysRow) -> Result<Bytes, DevError> {
        self.array.read_block(row)
    }

    /// Write a block to the local array.
    pub fn write_block(&mut self, row: PhysRow, data: &[u8]) -> Result<(), DevError> {
        self.array.write_block(row, data)
    }

    /// Mark every row on `disk` as lost (after a replacement swap-in):
    /// blanked content, zeroed UIDs, dropped parity arrays and spare slots.
    pub fn lose_disk_rows(&mut self, disk: usize) {
        self.machine.forget_rows(self.array.blocks_on_disk(disk));
    }

    /// A site disaster: every disk blanked, all metadata lost.
    pub fn lose_everything(&mut self) {
        self.array.disaster();
        self.machine.forget_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radd_parity::Uid;
    use radd_protocol::SpareContent;

    fn site() -> SiteNode {
        SiteNode::new(2, 4, 2, 6, 32) // G = 4, 12 rows on 2 disks
    }

    #[test]
    fn fresh_site_is_up_and_zeroed() {
        let mut s = site();
        assert_eq!(s.state, SiteState::Up);
        assert!((0..12).all(|r| !s.machine.block_uid(r).is_valid()));
        assert_eq!(&s.read_block(0).unwrap()[..], &[0u8; 32]);
        assert!(!s.machine.spare_valid(3));
        assert!(s.machine.invalid_rows().is_empty());
    }

    #[test]
    fn parity_array_created_on_demand() {
        let mut s = site();
        let arr = s.machine.parity_uid_array(2);
        assert_eq!(arr.len(), 6);
        arr.set(1, Uid::from_raw(9));
        assert_eq!(s.machine.parity_uids()[&2].get(1), Uid::from_raw(9));
    }

    #[test]
    fn lose_disk_rows_invalidates_exactly_that_disk() {
        let mut s = site();
        s.machine.set_block_uid(3, Uid::from_raw(1));
        s.machine.set_block_uid(7, Uid::from_raw(2));
        s.machine.spares_mut().insert(
            7,
            SpareSlot {
                for_site: 0,
                content: SpareContent::Data {
                    uid: Uid::from_raw(3),
                },
            },
        );
        s.array.fail_disk(1); // rows 6..12
        s.array.replace_disk(1);
        s.lose_disk_rows(1);
        assert!(s.machine.block_uid(3).is_valid(), "disk 0 rows untouched");
        assert!(!s.machine.block_uid(7).is_valid());
        assert!(!s.machine.spare_valid(7));
        assert_eq!(
            s.machine.invalid_rows().iter().copied().collect::<Vec<_>>(),
            (6..12).collect::<Vec<_>>()
        );
    }

    #[test]
    fn disaster_invalidates_everything() {
        let mut s = site();
        s.write_block(0, &[9u8; 32]).unwrap();
        s.machine.set_block_uid(0, Uid::from_raw(5));
        s.machine.parity_uid_array(2).set(0, Uid::from_raw(5));
        s.lose_everything();
        assert_eq!(&s.read_block(0).unwrap()[..], &[0u8; 32]);
        assert!(!s.machine.block_uid(0).is_valid());
        assert!(s.machine.parity_uids().is_empty());
        assert_eq!(s.machine.invalid_rows().len(), 12);
    }
}
