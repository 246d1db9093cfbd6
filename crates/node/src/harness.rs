//! The in-process cluster harness: `G + 2` site threads plus client
//! handles over any network that implements [`ClusterNet`]. One source
//! file, compiled into both async runtimes (DESIGN.md §12).
//!
//! Endpoint numbering is the same everywhere (clients at `0..ep_base`,
//! site `j` at `ep_base + j`), and so is the control surface, so the
//! differential test and the fault-plan engine drive every runtime through
//! one interface. The harness keeps the network's control handle, so fault
//! drivers can inject silent message loss ([`Cluster::set_loss`]) and
//! network partitions ([`GroupCluster::isolate`]); sites absorb both by
//! retransmitting unacked parity updates with backoff, and
//! [`Cluster::quiesce`] waits until every pending table is empty.

use super::client::Client;
use super::site::{Control, SiteConfig};
use radd_layout::ShardMap;
use radd_net::Transport;
use radd_protocol::{ClientErr, CoalescePolicy, GroupCluster, ObsEvent, RebuildReport, Router};
use radd_storage::StorageSpec;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a site may take to answer a control command.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a quiesce may poll before a fault plan is declared stuck.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(10);

/// What a runtime supplies to the harness: how to wire a cluster's worth
/// of endpoints, how to run a site on one, and the fault switchboard of
/// the network between them.
pub trait ClusterNet: Sized {
    /// The endpoint type sites and clients talk through.
    type Ep: Transport + Send + 'static;

    /// Build a network of `clients` client endpoints (ids `0..clients`)
    /// and `sites` site endpoints (ids `clients..`). Returns the control
    /// handle, which owns whatever must outlive the site threads, then the
    /// client endpoints, then the site endpoints.
    fn wire(clients: usize, sites: usize) -> (Self, Vec<Self::Ep>, Vec<Self::Ep>);

    /// Run one site on `ep` until shutdown.
    fn run_site(cfg: SiteConfig, ep: &Self::Ep, control: &Receiver<Control>);

    /// Start dropping roughly `permille`/1000 of protocol messages,
    /// silently (the sender still sees success). `0` turns loss off.
    fn set_loss(&self, permille: u16, seed: u64);

    /// Messages dropped by loss injection so far.
    fn dropped(&self) -> u64;

    /// Cut endpoint `ep` off from everyone, or reconnect it.
    fn set_partitioned(&self, ep: usize, partitioned: bool);
}

/// A running cluster: `G + 2` site threads plus a client handle.
pub struct Cluster<N: ClusterNet> {
    net: N,
    client: Client<N::Ep>,
    control: Vec<Sender<Control>>,
    handles: Vec<JoinHandle<()>>,
    ep_base: usize,
}

impl<N: ClusterNet> Cluster<N> {
    /// Spawn a cluster with group size `g`, `rows` block rows per site and
    /// `block_size`-byte blocks. Endpoint 0 is the client; site `j` lives
    /// at endpoint `1 + j`.
    pub fn start(g: usize, rows: u64, block_size: usize) -> Cluster<N> {
        Self::start_multi(g, rows, block_size, 1).0
    }

    /// Like [`start`](Cluster::start) but with `clients ≥ 1` client
    /// handles: one stays attached to the cluster, the rest are returned
    /// for use from other threads (each owns its own endpoint and UID
    /// namespace).
    ///
    /// Sites run with parity-update coalescing on
    /// ([`CoalescePolicy::Merge`]): while a row's update is
    /// unacknowledged, further queued masks XOR-merge into one pending
    /// update. Use [`start_with`](Cluster::start_with) to pick the policy
    /// explicitly (differential harnesses turn it off to stay
    /// message-for-message identical to the DES interpreter).
    pub fn start_multi(
        g: usize,
        rows: u64,
        block_size: usize,
        clients: usize,
    ) -> (Cluster<N>, Vec<Client<N::Ep>>) {
        Self::start_with(g, rows, block_size, clients, CoalescePolicy::Merge)
    }

    /// [`start_multi`](Cluster::start_multi) with an explicit
    /// parity-update [`CoalescePolicy`].
    pub fn start_with(
        g: usize,
        rows: u64,
        block_size: usize,
        clients: usize,
        coalesce: CoalescePolicy,
    ) -> (Cluster<N>, Vec<Client<N::Ep>>) {
        Self::start_durable(g, rows, block_size, clients, coalesce, &StorageSpec::Mem)
    }

    /// [`start_with`](Cluster::start_with) plus a [`StorageSpec`]: pass
    /// [`StorageSpec::Disk`] with a cluster root directory and every site
    /// runs on a durable WAL-backed store under `<dir>/site-<j>`, which
    /// survives [`kill_restart_site`](Cluster::kill_restart_site).
    pub fn start_durable(
        g: usize,
        rows: u64,
        block_size: usize,
        clients: usize,
        coalesce: CoalescePolicy,
        storage: &StorageSpec,
    ) -> (Cluster<N>, Vec<Client<N::Ep>>) {
        assert!(clients >= 1, "need at least one client");
        let ep_base = clients;
        let (net, client_eps, site_eps) = N::wire(clients, g + 2);
        let mut handles = Vec::new();
        let mut control = Vec::new();
        for (site, ep) in site_eps.into_iter().enumerate() {
            let (ctl_tx, ctl_rx) = channel();
            control.push(ctl_tx);
            let cfg = SiteConfig {
                site,
                group_size: g,
                rows,
                block_size,
                ep_base,
                coalesce,
                storage: storage.clone(),
            };
            handles.push(std::thread::spawn(move || N::run_site(cfg, &ep, &ctl_rx)));
        }
        let mut extra: Vec<Client<N::Ep>> = client_eps
            .into_iter()
            .map(|ep| Client::new(ep, g, rows, block_size))
            .collect();
        let cluster = Cluster {
            net,
            client: extra.remove(0),
            control,
            handles,
            ep_base,
        };
        (cluster, extra)
    }

    /// One cluster per group of `map`, behind the router: the sharded
    /// cluster of this runtime (DESIGN.md §13). Every group gets
    /// `clients_per_group ≥ 1` client handles; one stays attached to its
    /// group, the extras are returned as `extra[k]` (group `k`'s workers)
    /// for use from other threads.
    #[allow(clippy::type_complexity)] // the same pair `start_with` returns, per group
    pub fn start_sharded(
        map: ShardMap,
        block_size: usize,
        clients_per_group: usize,
        coalesce: CoalescePolicy,
    ) -> (Router<Cluster<N>>, Vec<Vec<Client<N::Ep>>>) {
        let geo = map.geometry();
        let mut extra = Vec::with_capacity(map.num_groups());
        let router = Router::new(map, |_| {
            let (cluster, workers) = Self::start_with(
                geo.group_size(),
                geo.rows(),
                block_size,
                clients_per_group,
                coalesce,
            );
            extra.push(workers);
            cluster
        });
        (router, extra)
    }

    /// The client handle for issuing operations.
    pub fn client(&mut self) -> &mut Client<N::Ep> {
        &mut self.client
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.control.len()
    }

    /// The network's control handle.
    pub fn net(&self) -> &N {
        &self.net
    }

    /// Endpoint id of site `site`.
    pub fn site_ep(&self, site: usize) -> usize {
        self.ep_base + site
    }

    /// Send site `site` the command `make` builds around a reply channel
    /// and wait (up to `timeout`) for the answer.
    fn ask<R>(
        &self,
        site: usize,
        timeout: Duration,
        make: impl FnOnce(Sender<R>) -> Control,
    ) -> Option<R> {
        let (tx, rx) = channel();
        let _ = self.control[site].send(make(tx));
        rx.recv_timeout(timeout).ok()
    }

    fn set_down(&mut self, site: usize, down: bool) {
        // Synchronous: the site has crossed the boundary before we return,
        // so subsequent traffic observes a consistent state.
        let _ = self.ask(site, CONTROL_TIMEOUT, |ack| Control::SetDown(down, ack));
        self.tell_peers(site, down);
        self.client.mark_down(site, down);
    }

    /// Tell every site but `site` to believe it down or back, before the
    /// client is told: a write the client then issues finds its data site
    /// already routing the row's parity update to the stand-in.
    fn tell_peers(&self, site: usize, down: bool) {
        for peer in (0..self.num_sites()).filter(|&p| p != site) {
            let _ = self.ask(peer, CONTROL_TIMEOUT, |ack| {
                Control::PeerDown(site, down, ack)
            });
        }
    }

    /// Temporary site failure: the site stops answering protocol messages
    /// (its disks keep their contents), and the client and the other sites
    /// believe it down. Quiesce first (see
    /// [`Cluster::quiesce`]) unless you *want* an in-doubt parity update
    /// stranded at the dead site.
    pub fn kill_site(&mut self, site: usize) {
        self.set_down(site, true);
    }

    /// Bring a killed site back. The other sites and the attached client
    /// believe it up; a
    /// caller that wants §3.2's recovering reads and writes until the
    /// spares are drained marks it recovering ([`Client::mark_recovering`],
    /// what [`GroupCluster::restore`] does), then runs [`Client::recover`].
    pub fn revive_site(&mut self, site: usize) {
        self.set_down(site, false);
    }

    /// Process crash + restart of site `site`: its machine, timers and any
    /// uncommitted staged writes are dropped on the floor, then the site
    /// re-opens its durable store — replaying the committed WAL suffix and
    /// rebuilding the machine from the last snapshot (§3.4). Synchronous:
    /// returns once the site is serving again. Returns `false` on
    /// memory-backed storage (nothing changes) or a failed re-open (down).
    pub fn kill_restart_site(&mut self, site: usize) -> bool {
        let restarted = self
            .ask(site, 2 * CONTROL_TIMEOUT, Control::KillRestart)
            .unwrap_or(false);
        if restarted {
            // The restarted machine is Up; make sure the client agrees
            // (e.g. after a kill_site → kill_restart_site sequence), and
            // tell it again what it believed of its peers: beliefs are
            // volatile.
            self.client.mark_down(site, false);
            for peer in (0..self.num_sites()).filter(|&p| p != site) {
                let down = self.client.believes_down(peer);
                let _ = self.ask(site, CONTROL_TIMEOUT, |ack| {
                    Control::PeerDown(peer, down, ack)
                });
            }
        }
        restarted
    }

    /// Start dropping roughly `permille`/1000 of all protocol messages,
    /// silently (sender still sees success). `0` turns loss off. Sites
    /// converge anyway by retransmitting unacked parity updates.
    pub fn set_loss(&self, permille: u16, seed: u64) {
        self.net.set_loss(permille, seed);
    }

    /// Messages dropped by loss injection so far.
    pub fn dropped_messages(&self) -> u64 {
        self.net.dropped()
    }

    /// How many writes at `site` still await their parity ack. A site that
    /// does not answer (control timeout, dead site thread) is an error
    /// naming it, never a zero: silence says nothing about its pending
    /// table.
    pub fn pending_writes(&self, site: usize) -> Result<usize, String> {
        self.ask(site, CONTROL_TIMEOUT, Control::QueryPending)
            .ok_or_else(|| format!("site {site} did not answer QueryPending"))
    }

    /// Whether every site machine reports
    /// [`all_acked`](radd_protocol::SiteMachine::all_acked) —
    /// i.e. no parity update anywhere is still awaiting its ack.
    pub fn all_acked(&self) -> bool {
        (0..self.num_sites()).all(|s| {
            self.ask(s, CONTROL_TIMEOUT, Control::QueryAllAcked)
                .unwrap_or(false)
        })
    }

    /// Start (or stop) recording normalised effect traces on every site
    /// machine and the attached client, for differential comparison with
    /// the other interpreters.
    pub fn record_traces(&mut self, on: bool) {
        for s in 0..self.num_sites() {
            let _ = self.ask(s, CONTROL_TIMEOUT, |ack| Control::RecordTrace(on, ack));
        }
        if on {
            self.client.record_trace();
        }
    }

    /// Collect the recorded traces: index 0 is the attached client, index
    /// `1 + j` is site `j` — the same peer numbering the DES interpreter
    /// uses.
    pub fn take_traces(&mut self) -> Vec<Vec<ObsEvent>> {
        let mut all = vec![self.client.take_trace()];
        for s in 0..self.num_sites() {
            all.push(
                self.ask(s, CONTROL_TIMEOUT, Control::TakeTrace)
                    .unwrap_or_default(),
            );
        }
        all
    }

    /// Freeze the whole cluster's observability state: the attached
    /// client's metrics + flight recorder at index 0, then each site's at
    /// index `1 + j` — the same machine numbering the traces use. Latency
    /// histograms hold wall-clock nanoseconds (the DES records logical
    /// ledger microseconds instead; see `radd-obs`'s crate docs).
    ///
    /// Control is served whatever a site's state, so a site marked down
    /// still answers — its flight recorder is usually the one
    /// worth reading.
    pub fn obs_snapshot(&mut self) -> radd_obs::ObsSnapshot {
        let mut machines = vec![self.client.obs_snapshot()];
        for s in 0..self.num_sites() {
            machines.push(
                self.ask(s, CONTROL_TIMEOUT, Control::QueryObs)
                    .unwrap_or_else(|| radd_obs::MachineObs::new().snapshot(&format!("site {s}"))),
            );
        }
        radd_obs::ObsSnapshot { machines }
    }

    /// Wait until no site holds an unacked parity update (i.e. every
    /// acknowledged write is fully reflected in parity), polling for up to
    /// `timeout`. Partitioned sites cannot drain — heal them first. A site
    /// that does not answer fails the quiesce at once.
    pub fn quiesce(&self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            let mut pending: Vec<(usize, usize)> = Vec::new();
            for s in 0..self.num_sites() {
                match self.pending_writes(s)? {
                    0 => {}
                    n => pending.push((s, n)),
                }
            }
            if pending.is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "quiesce timed out; unacked parity updates remain: {pending:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stop every site thread and join them, then drop the network handle
    /// (and with it whatever the transport keeps running).
    pub fn shutdown(mut self) {
        for ctl in &self.control {
            let _ = ctl.send(Control::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The per-runtime contract of both async runtimes (DESIGN.md §13): the
/// attached client's operations plus this harness's fault surface. No
/// method keeps its default: these runtimes have a lossy, partitionable
/// network, in-flight parity updates and (with `StorageSpec::Disk`) a
/// store to restart from.
impl<N: ClusterNet> GroupCluster for Cluster<N> {
    type Obs = radd_obs::ObsSnapshot;

    fn block_size(&self) -> usize {
        self.client.block_size()
    }

    fn geometry(&self) -> &radd_layout::Geometry {
        self.client.geometry()
    }

    fn read(&mut self, member: usize, index: u64) -> Result<Vec<u8>, ClientErr> {
        self.client.read(member, index)
    }

    fn write(&mut self, member: usize, index: u64, data: &[u8]) -> Result<(), ClientErr> {
        self.client.write(member, index, data)
    }

    fn fail(&mut self, member: usize) {
        self.kill_site(member);
    }

    fn restore(&mut self, member: usize) {
        self.revive_site(member);
        self.client.mark_recovering(member);
    }

    fn recover(&mut self, member: usize) -> Result<u64, ClientErr> {
        let drained = self.client.recover(member)?;
        self.client.mark_down(member, false);
        Ok(drained)
    }

    fn rebuild(&mut self, member: usize, wave_rows: usize) -> Result<RebuildReport, ClientErr> {
        self.client.rebuild(member, wave_rows)
    }

    fn record_traces(&mut self, on: bool) {
        Cluster::record_traces(self, on);
    }

    fn take_traces(&mut self) -> Vec<Vec<ObsEvent>> {
        Cluster::take_traces(self)
    }

    fn verify_parity(&mut self) -> Result<(), String> {
        self.client.verify_parity()
    }

    /// Messages to and from `member` are refused or dropped; its thread
    /// keeps running and keeps retransmitting into the cut.
    fn isolate(&mut self, member: usize) {
        self.net.set_partitioned(self.site_ep(member), true);
        self.tell_peers(member, true);
        self.client.mark_down(member, true);
    }

    /// The site at once resumes retransmitting whatever parity updates it
    /// could not deliver. The client believes it recovering, as after
    /// `restore`: spares absorbed writes while it was cut off.
    fn heal(&mut self, member: usize) {
        self.net.set_partitioned(self.site_ep(member), false);
        self.tell_peers(member, false);
        self.client.mark_recovering(member);
    }

    fn kill_restart(&mut self, member: usize) -> bool {
        self.kill_restart_site(member)
    }

    fn all_acked(&self) -> bool {
        Cluster::all_acked(self)
    }

    fn obs_snapshot(&mut self) -> Option<radd_obs::ObsSnapshot> {
        Some(Cluster::obs_snapshot(self))
    }

    fn set_loss(&mut self, permille: u16, seed: u64) {
        Cluster::set_loss(self, permille, seed);
    }

    fn quiesce(&mut self) -> Result<(), String> {
        Cluster::quiesce(self, QUIESCE_TIMEOUT)
    }

    fn shutdown(self) {
        Cluster::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radd_net::{Outbound, Received, SendOutcome};
    use radd_protocol::Msg;

    /// A network whose sites die at start-up: `run_site` returns at once,
    /// dropping the control receiver (and any command already queued in
    /// it), so no control command is ever answered.
    struct DeadSites;

    struct Deaf(usize);

    impl Outbound for Deaf {
        fn id(&self) -> usize {
            self.0
        }
        fn ep_base(&self) -> usize {
            1
        }
        fn send(&self, _dst: usize, _msg: &Msg) -> SendOutcome {
            SendOutcome::Closed
        }
    }

    impl Transport for Deaf {
        fn recv_from(&self, _peer: usize, _timeout: Duration) -> Option<Received> {
            None
        }
    }

    impl ClusterNet for DeadSites {
        type Ep = Deaf;

        fn wire(clients: usize, sites: usize) -> (DeadSites, Vec<Deaf>, Vec<Deaf>) {
            let eps = |ids: std::ops::Range<usize>| ids.map(Deaf).collect();
            (DeadSites, eps(0..clients), eps(clients..clients + sites))
        }
        fn run_site(_cfg: SiteConfig, _ep: &Deaf, _control: &Receiver<Control>) {}
        fn set_loss(&self, _permille: u16, _seed: u64) {}
        fn dropped(&self) -> u64 {
            0
        }
        fn set_partitioned(&self, _ep: usize, _partitioned: bool) {}
    }

    /// Silence is not "nothing pending". `quiesce` once counted a site that
    /// never replied as drained and reported the cluster quiescent.
    #[test]
    fn a_site_that_does_not_answer_fails_the_quiesce() {
        let cluster: Cluster<DeadSites> = Cluster::start(2, 6, 16);
        let err = cluster.quiesce(Duration::from_secs(1)).unwrap_err();
        assert!(err.contains("site 0 did not answer"), "got: {err}");
        assert!(cluster.pending_writes(3).is_err());
        assert!(!cluster.all_acked());
        cluster.shutdown();
    }
}
