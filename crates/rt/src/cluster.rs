//! A loopback socket cluster: `G + 2` site threads behind real TCP
//! listeners, every connection routed through a [`FaultProxy`].
//!
//! The harness ([`crate::harness::Cluster`]) is the one async
//! interpreter's, shared with the threaded runtime — same construction
//! parameters, same endpoint numbering, same control vocabulary — and the
//! fault-plan replayer ([`SocketDriver`]) is the workspace's one. What is
//! socket-specific lives here: [`Loopback`] wires the cluster. The one
//! structural difference from the threaded runtime is the path a message
//! takes: every site map entry points at the site's fault proxy rather
//! than its listener, so *all* protocol traffic (client requests, parity
//! updates between sites, recovery drains) is subject to the shared
//! [`FaultState`] exactly once per message.

use crate::harness::{Cluster, ClusterNet};
use crate::net::SocketEndpoint;
use crate::proxy::{FaultProxy, FaultState};
use crate::server::{self, Control, SiteConfig};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

/// The loopback network behind a [`SocketCluster`]: the shared fault
/// switchboard plus the proxies that consult it. Dropped after the site
/// threads have been joined, which shuts the proxies down.
pub struct Loopback {
    faults: Arc<FaultState>,
    _proxies: Vec<FaultProxy>,
}

impl ClusterNet for Loopback {
    type Ep = SocketEndpoint;

    fn wire(clients: usize, sites: usize) -> (Loopback, Vec<SocketEndpoint>, Vec<SocketEndpoint>) {
        let ep_base = clients;
        let faults = FaultState::new(clients + sites);
        // Bind every site's listener first, then front each with a proxy;
        // the site map every endpoint dials is the list of *proxy* addrs.
        let listeners: Vec<TcpListener> = (0..sites)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("site bind"))
            .collect();
        let proxies: Vec<FaultProxy> = listeners
            .iter()
            .enumerate()
            .map(|(j, l)| {
                let real = l.local_addr().expect("site addr");
                FaultProxy::spawn(real, ep_base + j, Arc::clone(&faults))
            })
            .collect();
        let site_map: Vec<SocketAddr> = proxies.iter().map(FaultProxy::addr).collect();
        let client_eps = (0..clients)
            .map(|id| SocketEndpoint::client(id, ep_base, site_map.clone()))
            .collect();
        let site_eps = listeners
            .into_iter()
            .enumerate()
            .map(|(j, l)| SocketEndpoint::site(ep_base + j, ep_base, site_map.clone(), l))
            .collect();
        let net = Loopback {
            faults,
            _proxies: proxies,
        };
        (net, client_eps, site_eps)
    }

    fn run_site(cfg: SiteConfig, ep: &SocketEndpoint, control: &Receiver<Control>) {
        server::run_site(cfg, ep, control);
    }

    fn set_loss(&self, permille: u16, seed: u64) {
        self.faults.set_loss(permille, seed);
    }

    fn dropped(&self) -> u64 {
        self.faults.dropped()
    }

    fn set_partitioned(&self, ep: usize, partitioned: bool) {
        self.faults.set_partitioned(ep, partitioned);
    }
}

/// A running socket cluster: `G + 2` site threads plus a client handle,
/// all on loopback TCP. See [`Cluster`] for the control surface.
pub type SocketCluster = Cluster<Loopback>;

/// Drives a [`SocketCluster`] from a fault plan: the one replayer,
/// [`radd_workload::faults::PlanDriver`], over this runtime's cluster.
pub type SocketDriver = radd_workload::faults::PlanDriver<SocketCluster>;

/// `A` socket groups over a shared site pool, started by
/// [`Cluster::start_sharded`].
pub type ShardedSocketCluster = radd_protocol::Router<SocketCluster>;

impl SocketCluster {
    /// The shared fault switchboard (loss, duplication, partitions).
    pub fn faults(&self) -> &Arc<FaultState> {
        &self.net().faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn write_read_kill_reconstruct_recover_round_trip() {
        let mut cluster = SocketCluster::start(4, 12, 64);
        let block = vec![7u8; 64];
        cluster.client().write(1, 0, &block).unwrap();

        cluster.kill_site(1); // the process stops answering
        let got = cluster.client().read(1, 0).unwrap(); // reconstructed
        assert_eq!(got, block);

        cluster.revive_site(1);
        cluster.client().recover(1).unwrap();
        assert_eq!(cluster.client().read(1, 0).unwrap(), block);
        cluster.quiesce(Duration::from_secs(5)).unwrap();
        assert!(cluster.all_acked());
        cluster.client().verify_parity().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn loss_burst_converges_and_is_observable() {
        let mut cluster = SocketCluster::start(4, 12, 64);
        cluster.set_loss(200, 0xFEED);
        for i in 0..6 {
            let block = vec![i as u8 + 1; 64];
            cluster
                .client()
                .write((i % 4) as usize, (i / 4) as u64, &block)
                .unwrap();
        }
        cluster.set_loss(0, 0);
        cluster.quiesce(Duration::from_secs(10)).unwrap();
        assert!(cluster.all_acked());
        cluster.client().verify_parity().unwrap();
        let snap = cluster.obs_snapshot();
        assert_eq!(snap.machines.len(), 1 + cluster.num_sites());
        assert!(snap.machine("client").is_some());
        cluster.shutdown();
    }
}
