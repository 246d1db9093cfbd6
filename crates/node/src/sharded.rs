//! The sharded threaded cluster, and what only it has.
//!
//! The sharded cluster itself is `radd_protocol::Router` (DESIGN.md §13):
//! [`ShardedNodeCluster`] is the router over one [`NodeCluster`] per group
//! — each with its own `G + 2` site threads and client — started by
//! [`NodeCluster::start_sharded`], and everything a fault plan or a
//! differential test does to it is written once, in the router. What stays
//! here is what only the in-process network can do, as the extension trait
//! [`ShardedNodeExt`]: one modelled transmission [`Wire`] per *pool site*,
//! and the thread-per-group rebuild engine the wires make worth measuring.
//!
//! Groups are independent at the protocol level (no cross-group traffic),
//! so an `A`-group cluster is `A` disjoint thread pools; the router is the
//! single coordinator in front of them.

use crate::{NodeClient, NodeCluster};
use radd_layout::{GroupId, SiteId};
use radd_net::Wire;
use radd_protocol::{PoolRebuildReport, RebuildReport, Router};
use std::sync::Arc;
use std::time::Duration;

/// `A` threaded groups over a shared site pool.
pub type ShardedNodeCluster = Router<NodeCluster>;

/// Threaded-only additions to [`ShardedNodeCluster`].
pub trait ShardedNodeExt {
    /// Model each *pool site* as owning one transmission [`Wire`] of the
    /// given latency, shared by every member endpoint it hosts across all
    /// groups: concurrent sends from one physical site serialise, so the
    /// fleet's aggregate rebuild-read bandwidth is `surviving sites ×
    /// 1/latency` — the physics the declustered layout exploits. Returns
    /// the wires (index = pool site) for latency tuning.
    fn set_pool_wires(&mut self, latency: Duration) -> Vec<Arc<Wire>>;

    /// Detach every wire attached by
    /// [`set_pool_wires`](ShardedNodeExt::set_pool_wires).
    fn clear_pool_wires(&mut self);

    /// The parallel rebuild engine: fan the affected groups' rebuilds out
    /// onto one thread each, driven by per-group worker clients (the extras
    /// returned at start — `workers[g]` drives group `g`; unaffected
    /// entries are left untouched). Each worker's wave pipelining keeps `G`
    /// reconstruction reads in flight per group, and with per-site wires
    /// attached the aggregate read load lands on however many distinct pool
    /// sites the placement spread the stripes across.
    ///
    /// Each affected worker marks its group's slot (the
    /// `pool_site_slots(pool_site)` entry, not the pool-site id) down and
    /// keeps that belief; clear it after recovery.
    fn rebuild_pool_site_parallel(
        &self,
        pool_site: SiteId,
        wave_rows: usize,
        workers: &mut [NodeClient],
    ) -> Result<PoolRebuildReport, String>;
}

impl ShardedNodeExt for ShardedNodeCluster {
    fn set_pool_wires(&mut self, latency: Duration) -> Vec<Arc<Wire>> {
        (0..self.map().pool_len())
            .map(|p| {
                let wire = Wire::new(latency);
                for (g, member) in self.map().pool_site_slots(p) {
                    self.group(g).set_site_wire(member, Some(wire.clone()));
                }
                wire
            })
            .collect()
    }

    fn clear_pool_wires(&mut self) {
        for p in 0..self.map().pool_len() {
            for (g, member) in self.map().pool_site_slots(p) {
                self.group(g).set_site_wire(member, None);
            }
        }
    }

    fn rebuild_pool_site_parallel(
        &self,
        pool_site: SiteId,
        wave_rows: usize,
        workers: &mut [NodeClient],
    ) -> Result<PoolRebuildReport, String> {
        assert!(
            workers.len() >= self.num_groups(),
            "need one worker client per group"
        );
        let mut slot_of: Vec<Option<SiteId>> = vec![None; self.num_groups()];
        for (g, member) in self.map().pool_site_slots(pool_site) {
            slot_of[g.0] = Some(member);
        }
        let results: Vec<(GroupId, Result<RebuildReport, String>)> = std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for ((g, worker), member) in workers.iter_mut().enumerate().zip(slot_of) {
                let Some(member) = member else {
                    continue;
                };
                joins.push(scope.spawn(move || {
                    // fail_pool_site only marks *attached* clients down;
                    // the worker forms its own belief here.
                    worker.mark_down(member, true);
                    let rebuilt = worker.rebuild(member, wave_rows);
                    (GroupId(g), rebuilt.map_err(|e| e.to_string()))
                }));
            }
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        let mut report = PoolRebuildReport::new(self.map().pool_len());
        for (g, res) in results {
            match res {
                Ok(r) => report.absorb(&r, self.map().group_members(g)),
                Err(e) => return Err(format!("{g}: {e}")),
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radd_layout::{Geometry, GlobalAddr, Placement, ShardMap};
    use radd_protocol::CoalescePolicy;

    #[test]
    fn parallel_rebuild_spreads_reads_and_preserves_data() {
        // Declustered pool: 8 sites, 3 member slots each, G = 2 groups of
        // width 4 — six groups total, stripes spread across the pool.
        let geo = Geometry::new(2, 4).unwrap();
        let map = ShardMap::pool(8, 3, geo, Placement::Declustered).unwrap();
        let (mut cluster, mut extra) =
            NodeCluster::start_sharded(map, 32, 2, CoalescePolicy::Merge);
        let mut workers: Vec<NodeClient> = extra.iter_mut().map(|w| w.remove(0)).collect();
        let cap = cluster.map().group_capacity();
        let mut written = Vec::new();
        for k in 0..cluster.num_groups() as u64 {
            let addr = GlobalAddr(k * cap);
            let data = vec![0x50 + k as u8; 32];
            cluster.write(addr, &data).unwrap();
            written.push((addr, data));
        }
        cluster.quiesce().unwrap();

        cluster.fail_pool_site(0);
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

        // A second pass sees every row absorbed: the engine is idempotent,
        // and the serial reference engine agrees with it.
        let again = cluster
            .rebuild_pool_site_parallel(0, 2, &mut workers)
            .unwrap();
        assert_eq!(again.blocks_rebuilt, 0);
        assert_eq!(
            again.blocks_absorbed,
            report.blocks_rebuilt + report.blocks_absorbed
        );
        assert_eq!(cluster.rebuild_pool_site(0, 2).unwrap(), again);

        for (addr, want) in &written {
            assert_eq!(cluster.read(*addr).unwrap(), *want, "degraded at {addr}");
        }
        cluster.restore_pool_site(0);
        cluster.recover_pool_site(0).unwrap();
        cluster.quiesce().unwrap();
        cluster.verify_parity().unwrap();
        for (addr, want) in &written {
            assert_eq!(cluster.read(*addr).unwrap(), *want, "recovered at {addr}");
        }
        cluster.shutdown();
    }
}
