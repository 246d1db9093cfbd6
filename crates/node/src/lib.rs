//! # radd-node — the threaded RADD cluster, and the one async interpreter
//!
//! The discrete-event cluster in `radd-core` measures the paper's numbers
//! deterministically; this crate runs the *same protocol* as an actual
//! local cluster: **one OS thread per site**, all coordination over real
//! message passing (crossbeam channels via [`radd_net::ThreadedNet`]), no
//! shared state between sites.
//!
//! Everything that interprets the sans-IO machines over a real network is
//! written once here, against [`radd_net::Transport`]: the [`site`]
//! driver, the [`client`] attempt ladder and the [`harness`] that runs a
//! cluster of both in one process. The socket runtime (`radd-rt`)
//! compiles the same three source files over its TCP endpoint (DESIGN.md
//! §12; §5 says why by `#[path]` and not by a dependency edge). The
//! fault-plan replayer is not among them: it is
//! `radd_workload::faults::PlanDriver`, generic over the contract the
//! harness implements (`radd_protocol::GroupCluster`), and
//! [`ThreadedDriver`] is its alias over this runtime's cluster. The
//! endpoint needs no adapter either: [`radd_net::ThreadedEndpoint`] is
//! itself the [`radd_net::Transport`] the interpreter runs over. What this
//! crate adds for the threaded runtime is small: [`run_site`] (the pull
//! loop that feeds a site's channel to its driver), the
//! [`ClusterNet`](harness::ClusterNet) wiring for [`ThreadedNet`],
//! modelled wire time
//! ([`NodeCluster::set_link_latency`], [`NodeCluster::set_site_wire`]),
//! and what only a [`sharded`] cluster of this runtime can do. (The
//! sharded cluster itself is `radd_protocol::Router` over
//! [`harness::Cluster`], for either transport.)
//!
//! * Each [`site`] thread owns its disk array, UID generator, parity UID
//!   arrays and spare slots, and serves the Section 3 message protocol:
//!   reads/writes, parity updates (W4), spare probes/installs, block reads
//!   for reconstruction, and recovery drain.
//! * Write path: the owning site performs W1 locally, ships the W3 change
//!   mask to the parity site, and acknowledges the client only after the
//!   parity site's ack — precisely the "done = prepared" discipline of §6.
//!   Sites never wait for each other (acks are matched through a pending
//!   table), so the protocol is deadlock-free by construction.
//! * Degraded operation is client-driven, as in the paper: on a down
//!   site, [`NodeClient`] probes the spare site, reconstructs from the `G`
//!   survivors with §3.3 UID validation, installs the result into the
//!   spare, and redirects writes (W1').
//!
//! Temporary site failures and recovery are fully supported; disk
//! failures and disasters are covered by the deterministic runtime (they
//! need failure injection *inside* a site, which the DES models more
//! precisely).
//!
//! ```
//! use radd_node::NodeCluster;
//!
//! let mut cluster = NodeCluster::start(4, 12, 64); // G = 4, 12 rows, 64-B blocks
//! let block = vec![7u8; 64];
//! cluster.client().write(1, 0, &block).unwrap();
//!
//! cluster.kill_site(1); // the process stops answering
//! let got = cluster.client().read(1, 0).unwrap(); // reconstructed
//! assert_eq!(got, block);
//!
//! cluster.revive_site(1);
//! cluster.client().recover(1).unwrap();
//! assert_eq!(cluster.client().read(1, 0).unwrap(), block);
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod harness;
pub mod sharded;
pub mod site;

pub use radd_protocol::{Msg, PoolRebuildReport};
pub use sharded::{ShardedNodeCluster, ShardedNodeExt};

use radd_net::{FaultState, ThreadedEndpoint, ThreadedNet};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// Run one site on `ep` until shutdown (by [`site::Control::Shutdown`] or
/// the control channel disconnecting): the threaded runtime's pull loop
/// over [`site::SiteDriver`]'s three entry points. Each turn drains the
/// control backlog, fires due retransmit timers, and delivers at most one
/// message from the channel, waiting up to 20 ms for it. A channel send
/// already wakes this thread directly, so there is no hand-off to remove
/// here (the socket runtime, whose reader threads call `deliver`
/// themselves, is `radd_rt::server::run_site`).
pub fn run_site(cfg: site::SiteConfig, ep: &ThreadedEndpoint, control: &Receiver<site::Control>) {
    // Start-up has no earlier state to fall back on: fail loudly.
    let site = cfg.site;
    let mut st = site::SiteDriver::open(cfg).unwrap_or_else(|e| panic!("site {site}: {e}"));
    loop {
        loop {
            match control.try_recv() {
                Ok(cmd) => {
                    if st.serve(cmd) {
                        return;
                    }
                }
                Err(TryRecvError::Disconnected) => return,
                Err(TryRecvError::Empty) => break,
            }
        }
        st.fire_due_timers(ep);
        if let Some(m) = ep.recv(Duration::from_millis(20)) {
            st.deliver(ep, m.src, m.msg, None);
        }
    }
}

impl harness::ClusterNet for ThreadedNet {
    type Ep = ThreadedEndpoint;

    fn wire(
        clients: usize,
        sites: usize,
        faults: &Arc<FaultState>,
    ) -> (ThreadedNet, Vec<ThreadedEndpoint>, Vec<ThreadedEndpoint>) {
        let (net, mut client_eps) = ThreadedNet::new(clients + sites, clients, Arc::clone(faults));
        let site_eps = client_eps.split_off(clients);
        (net, client_eps, site_eps)
    }

    fn run_site(cfg: site::SiteConfig, ep: &ThreadedEndpoint, control: &Receiver<site::Control>) {
        run_site(cfg, ep, control);
    }
}

/// The cluster client over in-process channels.
pub type NodeClient = client::Client<ThreadedEndpoint>;

/// A running threaded cluster: `G + 2` site threads plus a client handle.
/// See [`harness::Cluster`] for the control surface.
pub type NodeCluster = harness::Cluster<ThreadedNet>;

/// Drives a [`NodeCluster`] from a fault plan: the one replayer,
/// [`radd_workload::faults::PlanDriver`], over this runtime's cluster
/// (`ThreadedDriver::new(NodeCluster::start(g, rows, block_size))`).
pub type ThreadedDriver = radd_workload::faults::PlanDriver<NodeCluster>;

impl NodeCluster {
    /// Model wire time on every link: each send occupies the sending
    /// thread for `latency` (see [`radd_net::ThreadedNet::set_link_latency`]).
    /// Zero (the default) keeps sends instantaneous.
    pub fn set_link_latency(&self, latency: Duration) {
        self.net().set_link_latency(latency);
    }

    /// Attach (or detach with `None`) a shared transmission [`radd_net::Wire`] to
    /// site `j`'s endpoint. Every send from that site then serialises on
    /// the wire for the wire's latency — the physical model behind the
    /// rebuild benchmarks: one wire per *pool site* shared across all the
    /// groups it hosts makes a site's uplink the contended resource.
    pub fn set_site_wire(&self, site: usize, wire: Option<Arc<radd_net::Wire>>) {
        self.net().set_wire(self.site_ep(site), wire);
    }
}
