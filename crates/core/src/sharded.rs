//! The sharded DES cluster: what [`RaddCluster`] supplies to the router.
//!
//! The sharded cluster itself is `radd_protocol::Router` (DESIGN.md §13):
//! global-address reads and writes, the pool-site fault fan-out, traces
//! and the invariant sweep are written once there, over any
//! [`GroupCluster`]. This module is the DES's half of that contract — one
//! [`RaddCluster`] in client mode per group, so every group owns its own
//! `ClientMachine` — plus the constructor. The threaded and the socket
//! runtime supply the other two impls from one source file
//! (`radd_node::harness`); the multi-group differential test drives all
//! three with the same event stream and compares traces group by group.

use crate::cluster::RaddCluster;
use crate::config::RaddConfig;
use crate::error::RaddError;
use radd_layout::{DataIndex, Geometry, ShardMap, SiteId};
use radd_obs::ObsSnapshot;
use radd_protocol::SiteState;
use radd_protocol::{ClientErr, GroupCluster, ObsEvent, RebuildReport, Router};

/// `A` synchronous groups over a shared site pool.
pub type ShardedCluster = Router<RaddCluster>;

impl RaddCluster {
    /// One cluster per group of `map`, behind the router. The map's
    /// geometry must match `config` (group size and rows).
    pub fn sharded(map: ShardMap, config: &RaddConfig) -> Result<ShardedCluster, RaddError> {
        assert_eq!(
            map.geometry(),
            Geometry::new(config.group_size, config.rows).expect("valid geometry"),
            "shard map geometry must match the per-group config"
        );
        Router::try_new(map, |_| RaddCluster::new(config.clone()))
    }
}

/// Client-mode operations with caller-managed beliefs (a failed site is
/// believed down, by the client and the group's other sites, a restored or
/// healed one recovering until `recover`): the
/// semantics the async runtimes' clients have, so traces compare byte for
/// byte. Of the trait's defaults the DES keeps `isolate`/`heal` (in client
/// mode a partition is a believed-down site; the §5 gate belongs to the
/// pricing surface), `set_loss`, `quiesce` and `all_acked` (the cascade is
/// synchronous), and overrides the two it can really do.
impl GroupCluster for RaddCluster {
    type Obs = ObsSnapshot;

    fn block_size(&self) -> usize {
        self.config().block_size
    }

    fn geometry(&self) -> &Geometry {
        RaddCluster::geometry(self)
    }

    fn read(&mut self, member: SiteId, index: DataIndex) -> Result<Vec<u8>, ClientErr> {
        self.client_op(|cm, io| cm.read(io, member, index))
            .map(|b| b.to_vec())
    }

    fn write(&mut self, member: SiteId, index: DataIndex, data: &[u8]) -> Result<(), ClientErr> {
        self.client_op(|cm, io| cm.write(io, member, index, data))
    }

    fn fail(&mut self, member: SiteId) {
        self.fail_site(member);
        self.believe(member, SiteState::Down);
    }

    fn restore(&mut self, member: SiteId) {
        self.restore_site(member);
        self.believe(member, SiteState::Recovering);
    }

    fn recover(&mut self, member: SiteId) -> Result<u64, ClientErr> {
        let drained = self.client_recover(member)?;
        self.believe(member, SiteState::Up);
        Ok(drained)
    }

    fn rebuild(&mut self, member: SiteId, wave_rows: usize) -> Result<RebuildReport, ClientErr> {
        self.client_rebuild(member, wave_rows)
    }

    fn record_traces(&mut self, on: bool) {
        self.record_machine_traces(on);
    }

    fn take_traces(&mut self) -> Vec<Vec<ObsEvent>> {
        self.take_machine_traces()
    }

    fn verify_parity(&mut self) -> Result<(), String> {
        RaddCluster::verify_parity(self)
    }

    fn kill_restart(&mut self, member: SiteId) -> bool {
        self.kill_restart_site(member);
        true
    }

    fn obs_snapshot(&mut self) -> Option<ObsSnapshot> {
        RaddCluster::obs_snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radd_layout::{GlobalAddr, Placement};

    fn small() -> ShardedCluster {
        let config = RaddConfig::small_g4();
        let geo = Geometry::new(config.group_size, config.rows).unwrap();
        RaddCluster::sharded(ShardMap::uniform(4, geo).unwrap(), &config).unwrap()
    }

    /// A handful of addresses spread across every group's range.
    fn fill(cluster: &mut ShardedCluster, tag: u8) -> Vec<(GlobalAddr, Vec<u8>)> {
        let bs = cluster.block_size();
        let cap = cluster.map().group_capacity();
        let mut written = Vec::new();
        for k in 0..cluster.num_groups() as u64 {
            for off in [0, cap / 2, cap - 1] {
                let addr = GlobalAddr(k * cap + off);
                let data = vec![tag ^ (addr.0 as u8); bs];
                cluster.write(addr, &data).unwrap();
                written.push((addr, data));
            }
        }
        written
    }

    #[test]
    fn declustered_rebuild_fans_across_the_pool() {
        // 8-site pool, 3 member slots per site, groups of width 6 (G = 4):
        // four groups whose stripes the declustered placement spreads.
        let config = RaddConfig::small_g4();
        let geo = Geometry::new(config.group_size, config.rows).unwrap();
        let map = ShardMap::pool(8, 3, geo, Placement::Declustered).unwrap();
        let mut cluster = RaddCluster::sharded(map, &config).unwrap();
        let written = fill(&mut cluster, 0x7E);

        cluster.fail_pool_site(0);
        let report = cluster.rebuild_pool_site(0, 4).unwrap();
        assert!(
            report.blocks_rebuilt > 0,
            "the failed site owned data blocks"
        );
        assert_eq!(report.pool_peer_reads[0], 0, "failed site serves no reads");
        let spread = report.pool_peer_reads.iter().filter(|&&n| n > 0).count();
        assert!(
            spread > 5,
            "declustered rebuild must out-fan one group's 5 peers, got {spread}"
        );

        // Rebuilt spares serve degraded reads; recovery then drains them.
        for (addr, want) in &written {
            assert_eq!(cluster.read(*addr).unwrap(), *want, "degraded at {addr}");
        }
        cluster.restore_pool_site(0);
        cluster.recover_pool_site(0).unwrap();
        cluster.verify_parity().unwrap();
        for (addr, want) in &written {
            assert_eq!(cluster.read(*addr).unwrap(), *want, "recovered at {addr}");
        }
    }

    #[test]
    fn traces_cover_every_group() {
        let mut cluster = small();
        cluster.record_traces(true);
        let _ = fill(&mut cluster, 0x11);
        let traces = cluster.take_traces();
        assert_eq!(traces.len(), 4);
        for (k, group) in traces.iter().enumerate() {
            assert_eq!(group.len(), 1 + RaddConfig::small_g4().num_sites());
            assert!(
                group.iter().map(Vec::len).sum::<usize>() > 0,
                "group {k} saw no traffic"
            );
        }
    }
}
