//! The sharded threaded cluster: `A` groups of real site threads.
//!
//! [`ShardedNodeCluster`] is the threaded twin of
//! `radd_core::ShardedCluster`: a [`Router`] owning one [`NodeCluster`]
//! per group — each with its own `G + 2` site threads and client (and so
//! its own `ClientMachine`) — plus the pool-site fault surface that fans a
//! site's failure out to every group hosting a member slot there.
//!
//! Groups are independent at the protocol level (no cross-group traffic),
//! so an `A`-group cluster is `A` disjoint thread pools; the router is the
//! single coordinator in front of them. With
//! [`set_link_latency`](ShardedNodeCluster::set_link_latency) the wire —
//! not the CPU — bounds each group's throughput, which is what the
//! cross-group scaling bench measures.

use crate::{NodeClient, NodeCluster};
use radd_layout::{Geometry, GlobalAddr, GroupId, ShardMap, ShardTarget, SiteId};
use radd_net::Wire;
use radd_protocol::{CoalescePolicy, Router, TraceEntry};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Accumulate one group's [`radd_protocol::RebuildReport`] into the pool
/// aggregate, translating member-indexed peer reads to pool sites.
fn fold_group_report(
    pool: &mut PoolRebuildReport,
    group: &radd_protocol::RebuildReport,
    members: &[radd_layout::LogicalDrive],
) {
    pool.groups += 1;
    pool.blocks_rebuilt += group.blocks_rebuilt;
    pool.blocks_absorbed += group.blocks_absorbed;
    pool.bytes_xored += group.bytes_xored;
    for (member, &reads) in group.peer_reads.iter().enumerate() {
        if reads > 0 {
            pool.pool_peer_reads[members[member].site] += reads;
        }
    }
}

/// Aggregated result of one pool-site rebuild across every affected group.
#[derive(Debug, Clone, Default)]
pub struct PoolRebuildReport {
    /// Groups that hosted a member slot on the failed pool site.
    pub groups: usize,
    /// Blocks reconstructed into spares, summed over groups.
    pub blocks_rebuilt: u64,
    /// Blocks found already absorbed (earlier passes or degraded writes).
    pub blocks_absorbed: u64,
    /// Bytes folded through the XOR kernel.
    pub bytes_xored: u64,
    /// Reconstruction reads served per *pool* site (index = pool site id) —
    /// the uniform-reconstruction-load invariant made measurable.
    pub pool_peer_reads: Vec<u64>,
}

/// `A` threaded groups over a shared site pool.
pub struct ShardedNodeCluster {
    router: Router<NodeCluster>,
    block_size: usize,
}

impl ShardedNodeCluster {
    /// Spawn `num_groups` groups over the minimal uniform pool, one client
    /// per group, coalescing on (the threaded default).
    pub fn start(num_groups: usize, g: usize, rows: u64, block_size: usize) -> ShardedNodeCluster {
        let (cluster, _extra) = ShardedNodeCluster::start_with(
            num_groups,
            g,
            rows,
            block_size,
            1,
            CoalescePolicy::Merge,
        );
        cluster
    }

    /// Spawn with `clients_per_group ≥ 1` client handles per group and an
    /// explicit [`CoalescePolicy`]. One client stays attached to each
    /// group; the extras are returned as `extra[k]` (group `k`'s workers)
    /// for use from other threads.
    pub fn start_with(
        num_groups: usize,
        g: usize,
        rows: u64,
        block_size: usize,
        clients_per_group: usize,
        coalesce: CoalescePolicy,
    ) -> (ShardedNodeCluster, Vec<Vec<NodeClient>>) {
        let geo = Geometry::new(g, rows).expect("valid geometry");
        let map = ShardMap::uniform(num_groups, geo)
            .expect("uniform pools always carve into num_groups groups");
        ShardedNodeCluster::start_with_map(map, block_size, clients_per_group, coalesce)
    }

    /// Spawn one threaded group per entry of an explicit [`ShardMap`] —
    /// the entry point for declustered pools, where the map was built with
    /// [`ShardMap::pool`] over more sites than one group spans.
    pub fn start_with_map(
        map: ShardMap,
        block_size: usize,
        clients_per_group: usize,
        coalesce: CoalescePolicy,
    ) -> (ShardedNodeCluster, Vec<Vec<NodeClient>>) {
        let geo = map.geometry();
        let (g, rows) = (geo.group_size(), geo.rows());
        let mut extra = Vec::with_capacity(map.num_groups());
        let router = Router::new(map, |_| {
            let (cluster, workers) =
                NodeCluster::start_with(g, rows, block_size, clients_per_group, coalesce);
            extra.push(workers);
            cluster
        });
        (ShardedNodeCluster { router, block_size }, extra)
    }

    /// The shard map.
    pub fn map(&self) -> &ShardMap {
        self.router.map()
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.router.num_groups()
    }

    /// Resolve a global address without touching any group.
    pub fn locate(&self, addr: GlobalAddr) -> Option<ShardTarget> {
        self.map().locate(addr)
    }

    /// Direct access to one group's cluster.
    pub fn group_mut(&mut self, group: GroupId) -> &mut NodeCluster {
        self.router.group_mut(group)
    }

    /// Read a global address through the owning group's client.
    pub fn read(&mut self, addr: GlobalAddr) -> Result<Vec<u8>, String> {
        let (t, cluster) = self.router.route_mut(addr).map_err(|e| e.to_string())?;
        cluster
            .client()
            .read(t.member, t.index)
            .map_err(|e| e.to_string())
    }

    /// Write a global address through the owning group's client.
    pub fn write(&mut self, addr: GlobalAddr, data: &[u8]) -> Result<(), String> {
        let (t, cluster) = self.router.route_mut(addr).map_err(|e| e.to_string())?;
        cluster
            .client()
            .write(t.member, t.index, data)
            .map_err(|e| e.to_string())
    }

    /// Kill a pool site: every group with a member slot there kills that
    /// slot's site thread (temporary failure — disks keep their contents)
    /// and marks it down at the group's client. Quiesce first unless you
    /// *want* in-doubt parity updates stranded.
    pub fn kill_pool_site(&mut self, pool_site: SiteId) {
        self.router.for_pool_site(pool_site, |_, member, cluster| {
            cluster.kill_site(member);
        });
    }

    /// Revive a pool site in every affected group. Slots come back
    /// **recovering** and stay on each group client's believed-down list
    /// until [`recover_pool_site`](ShardedNodeCluster::recover_pool_site).
    pub fn revive_pool_site(&mut self, pool_site: SiteId) {
        self.router.for_pool_site(pool_site, |_, member, cluster| {
            cluster.revive_site(member);
            cluster.client().mark_down(member, true);
        });
    }

    /// Drain spares back to a revived pool site in every affected group
    /// and mark it up. Returns the total blocks drained across groups.
    pub fn recover_pool_site(&mut self, pool_site: SiteId) -> Result<u64, String> {
        let mut total = 0;
        let mut first_err: Option<String> = None;
        self.router.for_pool_site(pool_site, |g, member, cluster| {
            match cluster.client().recover(member) {
                Ok(n) => total += n,
                Err(e) => first_err = Some(format!("{g}: {e}")),
            }
            cluster.client().mark_down(member, false);
        });
        match first_err {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }

    /// Model each *pool site* as owning one transmission [`radd_net::Wire`] of the
    /// given latency, shared by every member endpoint it hosts across all
    /// groups: concurrent sends from one physical site serialise, so the
    /// fleet's aggregate rebuild-read bandwidth is `surviving sites ×
    /// 1/latency` — the physics the declustered layout exploits. Returns
    /// the wires (index = pool site) for latency tuning.
    pub fn set_pool_wires(&mut self, latency: Duration) -> Vec<Arc<Wire>> {
        let slots: Vec<Vec<(GroupId, SiteId)>> = (0..self.map().pool_len())
            .map(|p| self.map().pool_site_slots(p))
            .collect();
        let wires: Vec<Arc<Wire>> = slots.iter().map(|_| Wire::new(latency)).collect();
        for (p, site_slots) in slots.iter().enumerate() {
            for &(g, member) in site_slots {
                self.router
                    .group_mut(g)
                    .set_site_wire(member, Some(wires[p].clone()));
            }
        }
        wires
    }

    /// Detach every wire attached by
    /// [`set_pool_wires`](ShardedNodeCluster::set_pool_wires).
    pub fn clear_pool_wires(&mut self) {
        for p in 0..self.map().pool_len() {
            for (g, member) in self.map().pool_site_slots(p) {
                self.router.group_mut(g).set_site_wire(member, None);
            }
        }
    }

    /// Rebuild a killed pool site's data into the row spares, one affected
    /// group after another through the attached clients. The parallel
    /// engine ([`rebuild_pool_site_parallel`][Self::rebuild_pool_site_parallel])
    /// is the perf path; this serial twin is the reference the differential
    /// and model checks pin down.
    pub fn rebuild_pool_site(
        &mut self,
        pool_site: SiteId,
        wave_rows: usize,
    ) -> Result<PoolRebuildReport, String> {
        let members: Vec<Vec<radd_layout::LogicalDrive>> = (0..self.num_groups())
            .map(|g| self.map().group_members(GroupId(g)).to_vec())
            .collect();
        let mut report = PoolRebuildReport {
            pool_peer_reads: vec![0; self.map().pool_len()],
            ..PoolRebuildReport::default()
        };
        let mut first_err: Option<String> = None;
        self.router.for_pool_site(pool_site, |g, member, cluster| {
            match cluster.client().rebuild(member, wave_rows) {
                Ok(r) => fold_group_report(&mut report, &r, &members[g.0]),
                Err(e) => first_err = Some(format!("group {g}: {e}")),
            }
        });
        match first_err {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// The parallel rebuild engine: fan the affected groups' rebuilds out
    /// onto one thread each, driven by per-group worker clients (the extras
    /// returned at start — `workers[g]` drives group `g`; unaffected
    /// entries are left untouched). Each worker's wave pipelining keeps `G`
    /// reconstruction reads in flight per group, and with per-site wires
    /// attached the aggregate read load lands on however many distinct pool
    /// sites the placement spread the stripes across.
    pub fn rebuild_pool_site_parallel(
        &mut self,
        pool_site: SiteId,
        wave_rows: usize,
        workers: &mut [NodeClient],
    ) -> Result<PoolRebuildReport, String> {
        assert!(
            workers.len() >= self.num_groups(),
            "need one worker client per group"
        );
        let slots: HashMap<usize, SiteId> = self
            .map()
            .pool_site_slots(pool_site)
            .into_iter()
            .map(|(g, member)| (g.0, member))
            .collect();
        let members: Vec<Vec<radd_layout::LogicalDrive>> = (0..self.num_groups())
            .map(|g| self.map().group_members(GroupId(g)).to_vec())
            .collect();
        let mut report = PoolRebuildReport {
            pool_peer_reads: vec![0; self.map().pool_len()],
            ..PoolRebuildReport::default()
        };
        let results: Vec<(usize, Result<radd_protocol::RebuildReport, String>)> =
            std::thread::scope(|scope| {
                let mut joins = Vec::new();
                for (g, worker) in workers.iter_mut().enumerate() {
                    let Some(&member) = slots.get(&g) else {
                        continue;
                    };
                    joins.push(scope.spawn(move || {
                        // kill_pool_site only marks *attached* clients down;
                        // the worker forms its own belief here.
                        worker.mark_down(member, true);
                        (
                            g,
                            worker.rebuild(member, wave_rows).map_err(|e| e.to_string()),
                        )
                    }));
                }
                joins.into_iter().map(|j| j.join().unwrap()).collect()
            });
        for (g, res) in results {
            match res {
                Ok(r) => fold_group_report(&mut report, &r, &members[g]),
                Err(e) => return Err(format!("group {g}: {e}")),
            }
        }
        Ok(report)
    }

    /// Message-loss injection across every group's network.
    pub fn set_loss(&mut self, permille: u16, seed: u64) {
        for (_, cluster) in self.router.groups_mut() {
            cluster.set_loss(permille, seed);
        }
    }

    /// Wire-time injection across every group's network (see
    /// [`NodeCluster::set_link_latency`]).
    pub fn set_link_latency(&mut self, latency: Duration) {
        for (_, cluster) in self.router.groups_mut() {
            cluster.set_link_latency(latency);
        }
    }

    /// Wait until every group's parity updates are acknowledged.
    pub fn quiesce(&mut self, timeout: Duration) -> Result<(), String> {
        for (g, cluster) in self.router.groups_mut() {
            cluster.quiesce(timeout).map_err(|e| format!("{g}: {e}"))?;
        }
        Ok(())
    }

    /// Record (or stop recording) normalised machine traces in every group.
    pub fn record_traces(&mut self, on: bool) {
        for (_, cluster) in self.router.groups_mut() {
            cluster.record_traces(on);
        }
    }

    /// Drain every group's traces: `traces[k]` is group `k`'s per-machine
    /// vector (index 0 = client, `1 + j` = member `j`).
    pub fn take_traces(&mut self) -> Vec<Vec<Vec<TraceEntry>>> {
        self.router
            .groups_mut()
            .map(|(_, cluster)| cluster.take_traces())
            .collect()
    }

    /// Run the stripe-invariant sweep in every group; the error names the
    /// first failing group.
    pub fn verify_parity(&mut self) -> Result<(), String> {
        for (g, cluster) in self.router.groups_mut() {
            cluster
                .client()
                .verify_parity()
                .map_err(|e| format!("{g}: {e}"))?;
        }
        Ok(())
    }

    /// Shut every group down, joining all site threads.
    pub fn shutdown(self) {
        let (_, clusters) = self.router.into_parts();
        for cluster in clusters {
            cluster.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radd_layout::Placement;

    const QUIESCE: Duration = Duration::from_secs(10);

    #[test]
    fn cross_group_writes_survive_a_pool_site_failure() {
        // 3 groups of G = 2 (4 member slots each) on the shared 4-site pool.
        let mut cluster = ShardedNodeCluster::start(3, 2, 8, 32);
        let cap = cluster.map().group_capacity();
        let mut written = Vec::new();
        for k in 0..3u64 {
            for off in [0, cap - 1] {
                let addr = GlobalAddr(k * cap + off);
                let data = vec![0x30 + (addr.0 as u8); 32];
                cluster.write(addr, &data).unwrap();
                written.push((addr, data));
            }
        }
        cluster.quiesce(QUIESCE).unwrap();
        cluster.kill_pool_site(1);
        for (addr, want) in &written {
            assert_eq!(cluster.read(*addr).unwrap(), *want, "degraded at {addr}");
        }
        cluster.revive_pool_site(1);
        cluster.recover_pool_site(1).unwrap();
        cluster.quiesce(QUIESCE).unwrap();
        cluster.verify_parity().unwrap();
        for (addr, want) in &written {
            assert_eq!(cluster.read(*addr).unwrap(), *want, "recovered at {addr}");
        }
        cluster.shutdown();
    }

    #[test]
    fn parallel_rebuild_spreads_reads_and_preserves_data() {
        // Declustered pool: 8 sites, 3 member slots each, G = 2 groups of
        // width 4 — six groups total, stripes spread across the pool.
        let geo = Geometry::new(2, 4).unwrap();
        let map = ShardMap::pool(8, 3, geo, Placement::Declustered).unwrap();
        let (mut cluster, mut extra) =
            ShardedNodeCluster::start_with_map(map, 32, 2, CoalescePolicy::Merge);
        let mut workers: Vec<NodeClient> = extra.iter_mut().map(|w| w.remove(0)).collect();
        let cap = cluster.map().group_capacity();
        let mut written = Vec::new();
        for k in 0..cluster.num_groups() as u64 {
            let addr = GlobalAddr(k * cap);
            let data = vec![0x50 + k as u8; 32];
            cluster.write(addr, &data).unwrap();
            written.push((addr, data));
        }
        cluster.quiesce(QUIESCE).unwrap();

        cluster.kill_pool_site(0);
        let report = cluster
            .rebuild_pool_site_parallel(0, 2, &mut workers)
            .unwrap();
        assert_eq!(report.groups, 3, "site 0 hosts three member slots");
        assert!(report.blocks_rebuilt > 0);
        assert_eq!(report.pool_peer_reads[0], 0, "failed site serves no reads");
        let spread = report.pool_peer_reads.iter().filter(|&&n| n > 0).count();
        assert!(
            spread > 3,
            "declustered rebuild must out-fan a single group's 3 peers, got {spread}"
        );

        // A second pass sees every row absorbed: the engine is idempotent.
        let again = cluster
            .rebuild_pool_site_parallel(0, 2, &mut workers)
            .unwrap();
        assert_eq!(again.blocks_rebuilt, 0);
        assert_eq!(
            again.blocks_absorbed,
            report.blocks_rebuilt + report.blocks_absorbed
        );

        for (addr, want) in &written {
            assert_eq!(cluster.read(*addr).unwrap(), *want, "degraded at {addr}");
        }
        cluster.revive_pool_site(0);
        cluster.recover_pool_site(0).unwrap();
        cluster.quiesce(QUIESCE).unwrap();
        cluster.verify_parity().unwrap();
        for (addr, want) in &written {
            assert_eq!(cluster.read(*addr).unwrap(), *want, "recovered at {addr}");
        }
        cluster.shutdown();
    }

    #[test]
    fn out_of_range_address_is_an_error() {
        let mut cluster = ShardedNodeCluster::start(2, 1, 6, 16);
        let end = cluster.map().total_data_blocks();
        assert!(cluster.read(GlobalAddr(end)).is_err());
        cluster.shutdown();
    }
}
