//! Multi-group sharding: a cluster-wide address space over many groups.
//!
//! The single-group machinery ([`Geometry`], [`crate::placement`]) describes
//! one `G + 2` rotating-parity group. The paper's §4 grouping algorithm
//! exists precisely because a real installation has *many* groups carved out
//! of a pool of sites with unequal disk systems. [`ShardMap`] is that
//! carving, plus the addressing layer on top:
//!
//! * the pool's per-site block capacities are reduced to logical drives with
//!   [`chunk_logical_drives`] (one logical drive = one group-member slot of
//!   `rows` physical blocks);
//! * the §4 greedy assigner ([`assign_groups`]) places each group's `G + 2`
//!   member slots on distinct pool sites, with busy sites serving many
//!   groups (the paper's rotated placement, lifted from rows to groups);
//! * the global data space is **range-sharded**: addresses
//!   `[k·C, (k+1)·C)` belong to group `k`, where `C` is one group's data
//!   capacity, and within a group addresses run member slot by member slot.
//!
//! The map carries a **placement epoch**, bumped each time the pool is
//! rebalanced (a site joining or leaving re-runs the deterministic pipeline
//! above). Routers compare epochs to detect stale maps: the same pool and
//! geometry always rebuild byte-identically, so agreement on
//! `(epoch, pool)` is agreement on the whole placement.

use crate::decluster::{decluster_groups, reconstruction_load, Placement};
use crate::geometry::Geometry;
use crate::grouping::{assign_groups, chunk_logical_drives, ChunkError, GroupError, LogicalDrive};
use crate::placement::{DataIndex, SiteId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of one `G + 2` rotating-parity group within a sharded cluster.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct GroupId(pub usize);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A data-block address in the cluster-wide sharded space.
///
/// Global addresses are dense: `0 .. ShardMap::total_data_blocks()`, with
/// group `k` owning the contiguous range `[k·C, (k+1)·C)`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct GlobalAddr(pub u64);

impl fmt::Display for GlobalAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Where one global address physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardTarget {
    /// The owning group.
    pub group: GroupId,
    /// Member slot within the group (`0 .. G+2`) — the "site id" every
    /// single-group API speaks.
    pub member: SiteId,
    /// The pool site hosting that member slot.
    pub pool_site: SiteId,
    /// Data index within the member slot.
    pub index: DataIndex,
}

/// Why a shard map could not be built (or rebalanced).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A pool site's capacity is not a whole number of member slots.
    Chunk(ChunkError),
    /// The §4 assigner rejected the pool.
    Group(GroupError),
    /// The pool is valid but empty — zero groups is not a cluster.
    NoGroups,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Chunk(e) => write!(f, "{e}"),
            ShardError::Group(e) => write!(f, "{e}"),
            ShardError::NoGroups => write!(f, "pool carves into zero groups"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<ChunkError> for ShardError {
    fn from(e: ChunkError) -> Self {
        ShardError::Chunk(e)
    }
}

impl From<GroupError> for ShardError {
    fn from(e: GroupError) -> Self {
        ShardError::Group(e)
    }
}

/// Deterministic placement of `A` groups over a shared site pool, plus the
/// range-sharded global address space (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    epoch: u64,
    geometry: Geometry,
    /// How member slots are assigned to pool sites (rotation vs.
    /// declustered). Preserved across rebalances.
    placement: Placement,
    /// Current per-site block capacities of the pool (kept for rebalance; a
    /// departed site stays in the vector with capacity 0 so ids are stable).
    pool_blocks: Vec<u64>,
    /// `groups[k][m]` = the logical drive hosting member slot `m` of group
    /// `k`. All slots of one group sit on distinct pool sites.
    groups: Vec<Vec<LogicalDrive>>,
    /// Cumulative data capacity by member slot: slot `m` owns within-group
    /// offsets `[cum[m], cum[m+1])`. Identical for every group.
    cum: Vec<u64>,
}

impl ShardMap {
    /// Build a map over a heterogeneous pool. `pool_blocks[s]` is the block
    /// capacity of pool site `s`; each group-member slot consumes exactly
    /// `geometry.rows()` blocks (the §4 chunk size `B`).
    pub fn build(pool_blocks: &[u64], geometry: Geometry) -> Result<ShardMap, ShardError> {
        Self::build_at_epoch(pool_blocks, geometry, 0, Placement::Rotation)
    }

    /// [`build`](ShardMap::build) with an explicit [`Placement`].
    pub fn build_with(
        pool_blocks: &[u64],
        geometry: Geometry,
        placement: Placement,
    ) -> Result<ShardMap, ShardError> {
        Self::build_at_epoch(pool_blocks, geometry, 0, placement)
    }

    fn build_at_epoch(
        pool_blocks: &[u64],
        geometry: Geometry,
        epoch: u64,
        placement: Placement,
    ) -> Result<ShardMap, ShardError> {
        let drives = chunk_logical_drives(pool_blocks, geometry.rows())?;
        let mut groups = match placement {
            Placement::Rotation => assign_groups(&drives, geometry.num_sites())?,
            Placement::Declustered => decluster_groups(&drives, geometry.num_sites())?,
        };
        if groups.is_empty() {
            return Err(ShardError::NoGroups);
        }
        // Rotate group k's member slots by k: a pool site serving many
        // groups takes a *different* member slot in each, so its parity and
        // spare rows differ group to group — Figure 1's rotation, lifted
        // one level. Rotation permutes within a group, so the distinct-site
        // invariant is preserved.
        let width = geometry.num_sites();
        for (k, group) in groups.iter_mut().enumerate() {
            group.rotate_left(k % width);
        }
        let mut cum = Vec::with_capacity(width + 1);
        cum.push(0u64);
        for m in 0..width {
            cum.push(cum[m] + geometry.data_capacity(m));
        }
        Ok(ShardMap {
            epoch,
            geometry,
            placement,
            pool_blocks: pool_blocks.to_vec(),
            groups,
            cum,
        })
    }

    /// A uniform pool: `G + 2` sites, each hosting one member slot of every
    /// group — the smallest pool where every site serves every group.
    pub fn uniform(num_groups: usize, geometry: Geometry) -> Result<ShardMap, ShardError> {
        let blocks = vec![geometry.rows() * num_groups as u64; geometry.num_sites()];
        ShardMap::build(&blocks, geometry)
    }

    /// A wide uniform pool: `pool_sites ≥ G + 2` sites, each hosting
    /// `slots_per_site` member slots, laid out by `placement`. This is the
    /// shape where rotation and declustering diverge — the §4 greedy carves
    /// a uniform wide pool into disjoint `G + 2`-site clusters, while the
    /// declustered design spreads every group across the whole pool.
    pub fn pool(
        pool_sites: usize,
        slots_per_site: usize,
        geometry: Geometry,
        placement: Placement,
    ) -> Result<ShardMap, ShardError> {
        let blocks = vec![geometry.rows() * slots_per_site as u64; pool_sites];
        ShardMap::build_with(&blocks, geometry, placement)
    }

    /// The placement epoch. Bumped by [`add_site`] / [`remove_site`]; two
    /// maps with equal epoch and pool are byte-identical.
    ///
    /// [`add_site`]: ShardMap::add_site
    /// [`remove_site`]: ShardMap::remove_site
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The per-group geometry (shared by all groups).
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The placement policy the map was built with.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Number of groups `A`.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of pool sites (including departed, capacity-0 entries).
    pub fn pool_len(&self) -> usize {
        self.pool_blocks.len()
    }

    /// Current pool capacities.
    pub fn pool_blocks(&self) -> &[u64] {
        &self.pool_blocks
    }

    /// One group's data capacity `C` (identical for every group).
    pub fn group_capacity(&self) -> u64 {
        *self.cum.last().expect("cum is never empty")
    }

    /// Total data blocks across all groups: `A · C`.
    pub fn total_data_blocks(&self) -> u64 {
        self.group_capacity() * self.num_groups() as u64
    }

    /// The logical drives hosting `group`'s member slots, indexed by member
    /// slot.
    pub fn group_members(&self, group: GroupId) -> &[LogicalDrive] {
        &self.groups[group.0]
    }

    /// Every `(group, member slot)` hosted by `pool_site` — the blast
    /// radius of that site failing.
    pub fn pool_site_slots(&self, pool_site: SiteId) -> Vec<(GroupId, SiteId)> {
        self.groups
            .iter()
            .enumerate()
            .flat_map(|(k, members)| {
                members
                    .iter()
                    .enumerate()
                    .filter(move |(_, d)| d.site == pool_site)
                    .map(move |(m, _)| (GroupId(k), m))
            })
            .collect()
    }

    /// Resolve a global address, or `None` if it is past the end of the
    /// space.
    pub fn locate(&self, addr: GlobalAddr) -> Option<ShardTarget> {
        let cap = self.group_capacity();
        let group = (addr.0 / cap) as usize;
        if group >= self.num_groups() {
            return None;
        }
        let within = addr.0 % cap;
        // cum is sorted; find the slot whose range contains `within`.
        let member = match self.cum.binary_search(&within) {
            Ok(m) => m,
            Err(ins) => ins - 1,
        };
        Some(ShardTarget {
            group: GroupId(group),
            member,
            pool_site: self.groups[group][member].site,
            index: within - self.cum[member],
        })
    }

    /// Inverse of [`locate`]: the global address of `(group, member slot,
    /// data index)`. `None` if out of range.
    ///
    /// [`locate`]: ShardMap::locate
    pub fn addr_of(&self, group: GroupId, member: SiteId, index: DataIndex) -> Option<GlobalAddr> {
        if group.0 >= self.num_groups() || member >= self.geometry.num_sites() {
            return None;
        }
        if index >= self.cum[member + 1] - self.cum[member] {
            return None;
        }
        Some(GlobalAddr(
            group.0 as u64 * self.group_capacity() + self.cum[member] + index,
        ))
    }

    /// Rebalance after a new site joins with `blocks` capacity. On success
    /// the epoch is bumped and the new site's id is returned; on failure the
    /// map is left untouched.
    pub fn add_site(&mut self, blocks: u64) -> Result<SiteId, ShardError> {
        let mut pool = self.pool_blocks.clone();
        pool.push(blocks);
        *self = Self::build_at_epoch(&pool, self.geometry, self.epoch + 1, self.placement)?;
        Ok(self.pool_blocks.len() - 1)
    }

    /// Rebalance after `pool_site` leaves. The site keeps its id (capacity
    /// drops to 0) so other sites' ids are stable. On failure the map is
    /// left untouched.
    pub fn remove_site(&mut self, pool_site: SiteId) -> Result<(), ShardError> {
        let mut pool = self.pool_blocks.clone();
        if pool_site >= pool.len() {
            return Err(ShardError::NoGroups);
        }
        pool[pool_site] = 0;
        *self = Self::build_at_epoch(&pool, self.geometry, self.epoch + 1, self.placement)?;
        Ok(())
    }

    /// Per-survivor reconstruction load if `pool_site` fails: element `t`
    /// is the number of member slots site `t` serves reads for during the
    /// rebuild (see [`crate::decluster::reconstruction_load`]).
    pub fn reconstruction_spread(&self, pool_site: SiteId) -> Vec<usize> {
        reconstruction_load(&self.groups, self.pool_blocks.len(), pool_site)
    }

    /// A one-line-per-group rendering for CLIs and logs.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "shard map: {} groups x (G={} + 2), {} rows/slot, {} placement, epoch {}",
            self.num_groups(),
            self.geometry.group_size(),
            self.geometry.rows(),
            self.placement,
            self.epoch
        );
        for (k, members) in self.groups.iter().enumerate() {
            let sites: Vec<String> = members
                .iter()
                .map(|d| format!("{}:{}", d.site, d.drive))
                .collect();
            let base = k as u64 * self.group_capacity();
            let _ = writeln!(
                out,
                "  g{k} @[{base}, {}) on pool sites [{}]",
                base + self.group_capacity(),
                sites.join(", ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map4() -> ShardMap {
        // G = 2, 8 rows per slot, 4 groups over the minimal shared pool.
        ShardMap::uniform(4, Geometry::new(2, 8).unwrap()).unwrap()
    }

    #[test]
    fn uniform_pool_every_site_serves_every_group() {
        let map = map4();
        assert_eq!(map.num_groups(), 4);
        assert_eq!(map.pool_len(), 4);
        for s in 0..map.pool_len() {
            assert_eq!(map.pool_site_slots(s).len(), 4, "site {s} in all groups");
        }
    }

    #[test]
    fn rotation_varies_member_slot_per_group() {
        let map = map4();
        let slots = map.pool_site_slots(0);
        let mut sorted: Vec<SiteId> = slots.iter().map(|&(_, m)| m).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "site 0 rotates through slots");
    }

    #[test]
    fn locate_and_addr_of_are_inverses() {
        let map = map4();
        for a in 0..map.total_data_blocks() {
            let t = map.locate(GlobalAddr(a)).unwrap();
            assert_eq!(
                map.addr_of(t.group, t.member, t.index),
                Some(GlobalAddr(a)),
                "round-trip of {a}"
            );
            assert!(t.index < map.geometry().data_capacity(t.member));
        }
        assert!(map.locate(GlobalAddr(map.total_data_blocks())).is_none());
    }

    #[test]
    fn range_sharding_is_contiguous_per_group() {
        let map = map4();
        let cap = map.group_capacity();
        for a in 0..map.total_data_blocks() {
            let t = map.locate(GlobalAddr(a)).unwrap();
            assert_eq!(t.group.0 as u64, a / cap);
        }
    }

    #[test]
    fn heterogeneous_pool_shards() {
        // 6 pool sites with unequal capacities; G = 1 groups (width 3),
        // 4 rows per slot. Total 24 rows → 8 slots → wait: 2+2+1+1+1+1 = 8
        // slots, width 3 fails (8 % 3 != 0); use capacities giving 9 slots.
        let geo = Geometry::new(1, 4).unwrap();
        let map = ShardMap::build(&[12, 8, 4, 4, 4, 4], geo).unwrap();
        assert_eq!(map.num_groups(), 3);
        for k in 0..3 {
            let members = map.group_members(GroupId(k));
            let mut sites: Vec<_> = members.iter().map(|d| d.site).collect();
            sites.sort_unstable();
            sites.dedup();
            assert_eq!(sites.len(), 3, "distinct pool sites per group");
        }
    }

    #[test]
    fn rebalance_bumps_epoch_and_is_deterministic() {
        let geo = Geometry::new(2, 8).unwrap();
        let mut map = ShardMap::uniform(4, geo).unwrap();
        assert_eq!(map.epoch(), 0);
        let new_site = map.add_site(8 * 4).unwrap();
        assert_eq!(map.epoch(), 1);
        assert_eq!(new_site, 4);
        assert_eq!(map.num_groups(), 5);
        // The same pool rebuilt from scratch matches the rebalanced map
        // except for the epoch.
        let fresh = ShardMap::build(map.pool_blocks(), geo).unwrap();
        assert_eq!(fresh.groups, map.groups);
    }

    #[test]
    fn failed_rebalance_leaves_map_untouched() {
        let geo = Geometry::new(2, 8).unwrap();
        let mut map = ShardMap::uniform(4, geo).unwrap();
        let before = map.clone();
        // Adding a site whose capacity is not a multiple of `rows` fails.
        assert!(matches!(map.add_site(7), Err(ShardError::Chunk(_))));
        assert_eq!(map, before);
        // Removing a site from the minimal pool leaves fewer than G + 2
        // usable sites, which the §4 assigner rejects.
        assert!(map.remove_site(0).is_err());
        assert_eq!(map, before);
    }

    #[test]
    fn remove_site_rebalances_larger_pool() {
        let geo = Geometry::new(1, 4).unwrap();
        // 6 sites x 3 slots = 18 slots, width 3 → 6 groups.
        let mut map = ShardMap::build(&[12; 6], geo).unwrap();
        assert_eq!(map.num_groups(), 6);
        map.remove_site(5).unwrap();
        assert_eq!(map.epoch(), 1);
        assert_eq!(map.pool_blocks()[5], 0);
        assert!(
            map.pool_site_slots(5).is_empty(),
            "departed site hosts nothing"
        );
        // 15 remaining slots → 5 groups, still on distinct sites.
        assert_eq!(map.num_groups(), 5);
    }

    #[test]
    fn declustered_pool_spreads_reconstruction() {
        let geo = Geometry::new(2, 8).unwrap();
        // 8 pool sites x 4 slots, width 4: rotation carves two disjoint
        // clusters; declustering reaches all 7 survivors.
        let rot = ShardMap::pool(8, 4, geo, Placement::Rotation).unwrap();
        let dec = ShardMap::pool(8, 4, geo, Placement::Declustered).unwrap();
        assert_eq!(rot.num_groups(), dec.num_groups());
        assert_eq!(rot.group_capacity(), dec.group_capacity());
        let rot_peers = rot
            .reconstruction_spread(0)
            .iter()
            .filter(|&&l| l > 0)
            .count();
        let dec_peers = dec
            .reconstruction_spread(0)
            .iter()
            .filter(|&&l| l > 0)
            .count();
        assert_eq!(rot_peers, 3);
        assert_eq!(dec_peers, 7);
        assert_eq!(dec.placement(), Placement::Declustered);
        // Addressing is placement-independent in shape: every address
        // resolves and round-trips.
        for a in 0..dec.total_data_blocks() {
            let t = dec.locate(GlobalAddr(a)).unwrap();
            assert_eq!(dec.addr_of(t.group, t.member, t.index), Some(GlobalAddr(a)));
        }
    }

    #[test]
    fn placement_survives_rebalance() {
        let geo = Geometry::new(2, 8).unwrap();
        let mut map = ShardMap::pool(6, 4, geo, Placement::Declustered).unwrap();
        map.add_site(8 * 4).unwrap();
        assert_eq!(map.placement(), Placement::Declustered);
        assert_eq!(map.epoch(), 1);
        // The same pool rebuilt from scratch with the same placement
        // matches, and a rotation rebuild differs (the placements are
        // genuinely distinct on this pool).
        let fresh = ShardMap::build_with(map.pool_blocks(), geo, Placement::Declustered).unwrap();
        assert_eq!(
            fresh.group_members(GroupId(0)),
            map.group_members(GroupId(0))
        );
        let rot = ShardMap::build(map.pool_blocks(), geo).unwrap();
        assert_ne!(rot, map);
    }

    #[test]
    fn describe_mentions_every_group() {
        let map = map4();
        let text = map.describe();
        for k in 0..4 {
            assert!(text.contains(&format!("g{k} ")), "g{k} in: {text}");
        }
        assert!(text.contains("epoch 0"));
    }

    #[test]
    fn zero_pool_is_no_groups() {
        let geo = Geometry::new(2, 8).unwrap();
        assert_eq!(
            ShardMap::build(&[0, 0, 0, 0], geo).unwrap_err(),
            ShardError::NoGroups
        );
    }

    #[test]
    fn error_display() {
        assert!(ShardError::NoGroups.to_string().contains("zero"));
        let e = ShardMap::build(&[7], Geometry::new(2, 8).unwrap()).unwrap_err();
        assert!(e.to_string().contains("chunk"));
    }
}
