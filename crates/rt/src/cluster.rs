//! A loopback socket cluster: `G + 2` site threads behind real TCP
//! listeners.
//!
//! The harness ([`crate::harness::Cluster`]) is the one async
//! interpreter's, shared with the threaded runtime — same construction
//! parameters, same endpoint numbering, same control vocabulary, same
//! fault switchboard ([`Cluster::faults`]) — and the fault-plan replayer
//! ([`SocketDriver`]) is the workspace's one. What is socket-specific
//! lives here: [`Loopback`] binds a listener per site and builds every
//! endpoint over the harness's [`FaultState`], so each protocol message is
//! judged once, by the endpoint that sends it. The site map points at the
//! real listeners, so a message takes the path it takes between
//! `radd-server` processes.

use crate::harness::{Cluster, ClusterNet};
use crate::net::SocketEndpoint;
use crate::server::{self, Control, SiteConfig};
use radd_net::FaultState;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

/// The loopback network behind a [`SocketCluster`]: nothing to control
/// beyond what the endpoints carry.
pub struct Loopback;

impl ClusterNet for Loopback {
    type Ep = SocketEndpoint;

    fn wire(
        clients: usize,
        sites: usize,
        faults: &Arc<FaultState>,
    ) -> (Loopback, Vec<SocketEndpoint>, Vec<SocketEndpoint>) {
        let ep_base = clients;
        let listeners: Vec<TcpListener> = (0..sites)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("site bind"))
            .collect();
        let site_map: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("site addr"))
            .collect();
        let endpoint = |id: usize, listener: Option<TcpListener>| {
            let faults = Some(Arc::clone(faults));
            SocketEndpoint::build(id, ep_base, site_map.clone(), listener, faults)
        };
        let client_eps = (0..clients).map(|id| endpoint(id, None)).collect();
        let site_eps = listeners
            .into_iter()
            .enumerate()
            .map(|(j, l)| endpoint(ep_base + j, Some(l)))
            .collect();
        (Loopback, client_eps, site_eps)
    }

    fn run_site(cfg: SiteConfig, ep: &SocketEndpoint, control: &Receiver<Control>) {
        server::run_site(cfg, ep, control);
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

    /// A cluster's frames take the path they take between `radd-server`
    /// processes, so a block read back is sent under the check it was
    /// stored with, as the benchmark's sites send it.
    #[test]
    fn a_block_read_back_goes_out_under_its_kept_check() {
        let mut cluster = SocketCluster::start(4, 12, 4096);
        let block: Vec<u8> = (0..4096).map(|i| (i * 7) as u8).collect();
        cluster.client().write(1, 0, &block).unwrap();
        assert_eq!(cluster.client().read(1, 0).unwrap(), block);
        let snap = cluster.obs_snapshot();
        let data_site = snap.machine("site 1").expect("site 1 answers");
        let m = &data_site.metrics;
        assert!(
            m.block_checks_reused >= 1,
            "no check kept: {} reused, {} computed",
            m.block_checks_reused,
            m.block_checks_computed
        );
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
