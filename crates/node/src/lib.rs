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
//! [`ThreadedDriver`] is its alias over this runtime's cluster. What this crate adds for the threaded runtime is
//! small: [`ThreadedTransport`] (a [`radd_net::ThreadedEndpoint`] that
//! knows its `ep_base`), [`run_site`] (the pull loop that feeds a site's
//! channel to its driver), the [`ClusterNet`](harness::ClusterNet) wiring
//! for [`ThreadedNet`], modelled wire time
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

use radd_net::threaded::NetError;
use radd_net::{Outbound, Received, SendOutcome, ThreadedEndpoint, ThreadedNet, Transport};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::Duration;

/// A [`ThreadedEndpoint`] plus the one thing [`Transport`] asks that a
/// channel network does not know: where the site ids start.
pub struct ThreadedTransport {
    ep: ThreadedEndpoint<Msg>,
    ep_base: usize,
}

impl Outbound for ThreadedTransport {
    fn id(&self) -> usize {
        self.ep.id()
    }

    fn ep_base(&self) -> usize {
        self.ep_base
    }

    fn send(&self, dst: usize, msg: &Msg) -> SendOutcome {
        match self.ep.send(dst, msg.clone()) {
            // A partitioned link refuses the send but may heal before the
            // sender's ladder is spent: loss, exactly like a silent drop.
            Ok(()) | Err(NetError::Partitioned | NetError::Timeout) => SendOutcome::Sent,
            Err(NetError::Disconnected | NetError::NoSuchSite(_)) => SendOutcome::Closed,
        }
    }
}

impl Transport for ThreadedTransport {
    /// One channel holds what every peer sent: `peer` is not consulted.
    fn recv_from(&self, _peer: usize, timeout: Duration) -> Option<Received> {
        let m = self.ep.recv_timeout(timeout).ok()?;
        Some(Received {
            src: m.src,
            msg: m.payload,
        })
    }
}

/// Run one site on `ep` until shutdown (by [`site::Control::Shutdown`] or
/// the control channel disconnecting): the threaded runtime's pull loop
/// over [`site::SiteDriver`]'s three entry points. Each turn drains the
/// control backlog, fires due retransmit timers, and delivers at most one
/// message from the channel, waiting up to 20 ms for it. A channel send
/// already wakes this thread directly, so there is no hand-off to remove
/// here (the socket runtime, whose reader threads call `deliver`
/// themselves, is `radd_rt::server::run_site`).
pub fn run_site(cfg: site::SiteConfig, ep: &ThreadedTransport, control: &Receiver<site::Control>) {
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
        if let Ok(m) = ep.ep.recv_timeout(Duration::from_millis(20)) {
            st.deliver(ep, m.src, m.payload, None);
        }
    }
}

impl harness::ClusterNet for ThreadedNet<Msg> {
    type Ep = ThreadedTransport;

    fn wire(
        clients: usize,
        sites: usize,
    ) -> (
        ThreadedNet<Msg>,
        Vec<ThreadedTransport>,
        Vec<ThreadedTransport>,
    ) {
        let (net, endpoints) = ThreadedNet::new(clients + sites);
        let mut client_eps: Vec<ThreadedTransport> = endpoints
            .into_iter()
            .map(|ep| ThreadedTransport {
                ep,
                ep_base: clients,
            })
            .collect();
        let site_eps = client_eps.split_off(clients);
        (net, client_eps, site_eps)
    }

    fn run_site(cfg: site::SiteConfig, ep: &ThreadedTransport, control: &Receiver<site::Control>) {
        run_site(cfg, ep, control);
    }

    fn set_loss(&self, permille: u16, seed: u64) {
        ThreadedNet::set_loss(self, permille, seed);
    }

    fn dropped(&self) -> u64 {
        ThreadedNet::dropped(self)
    }

    fn set_partitioned(&self, ep: usize, partitioned: bool) {
        ThreadedNet::set_partitioned(self, ep, partitioned);
    }
}

/// The cluster client over in-process channels.
pub type NodeClient = client::Client<ThreadedTransport>;

/// A running threaded cluster: `G + 2` site threads plus a client handle.
/// See [`harness::Cluster`] for the control surface.
pub type NodeCluster = harness::Cluster<ThreadedNet<Msg>>;

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
    pub fn set_site_wire(&self, site: usize, wire: Option<std::sync::Arc<radd_net::Wire>>) {
        self.net().set_wire(self.site_ep(site), wire);
    }
}
