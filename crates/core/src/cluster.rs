//! The RADD cluster: the sans-IO protocol machines on the synchronous
//! cascade, priced.
//!
//! One [`RaddCluster`] owns the `G + 2` sites — each a
//! [`radd_protocol::SiteMachine`] over its disk array — on
//! [`radd_protocol::loopback::Loopback`], the workspace's one synchronous
//! cascade (a message cascade runs to completion inside one client call),
//! plus one persistent [`radd_protocol::ClientMachine`] that it drives on
//! that cascade directly. All §3 protocol logic (W1–W4 ordering, UID
//! validation, spare-slot lifecycle, a recovering site's reads and writes,
//! the parity stand-in while a parity site is down, the recovery drain, the
//! rebuild of a lost block) lives in the machines: every client read and
//! write, whatever the sites' states, is one `ClientMachine` call, and a
//! failed one is the machine's own [`ClientErr`], lifted to [`RaddError`].
//! What the DES adds is the cascade's hook and the failure model:
//!
//! * the hook prices the cascade: [`Effect::Read`]/[`Effect::Write`]
//!   receipts into the Figure-3 cost ledger by their [`IoPurpose`], sends
//!   into the per-category traffic counters; the trace and observability
//!   taps hang there too;
//! * the hook answers the buffer-pool old value
//!   ([`radd_protocol::ClientIo::old_value`]) from the logical-content
//!   oracle, and holds the lock table: during the recovery daemon's drain
//!   it locks each spare row on its `SpareProbe` and releases it on its
//!   `SpareTake` (§3.2), refusing a row someone else holds as
//!   [`ClientErr::Unavailable`];
//! * the cluster injects failures (which machines only observe as
//!   [`radd_protocol::BlockFault`]s and state transitions), tells the client
//!   and site machines what to believe of each site, and gates every priced
//!   operation through §5's partition verdict.
//!
//! The same machines, driven by threads and by real sockets instead, are
//! the `radd-node` and `radd-rt` runtimes; the differential test in
//! `tests/differential.rs` checks all three produce identical protocol
//! traces.
//!
//! ### Cost accounting conventions
//!
//! The receipts reproduce the paper's Figure 3 rows, which requires adopting
//! the paper's own conventions:
//!
//! * a parity update is **one** remote write ("careful buffering of the old
//!   data block can remove one of the reads and prefetching the old parity
//!   block can remove the latency delay of the second read") — charged when
//!   the update is sent; the parity site's `ParityApply` receipts are free;
//! * the old value of a block being overwritten is available from the buffer
//!   pool and is not charged as a read (`OldValue` receipts are free) — the
//!   same buffering assumption, also applied to down-site writes (the paper
//!   prices them at `2·RW` flat);
//! * probing an *invalid* spare costs no block I/O: validity is a UID check,
//!   answered with a control message carrying no block payload. Reading a
//!   *valid* spare is a normal block read;
//! * side-effect work off the critical path (installing a reconstruction
//!   result into the spare, draining a stand-in back to a recovering site,
//!   restoring a rebuilt block to it) is charged to the background ledger,
//!   not to the operation's latency.

use crate::config::RaddConfig;
use crate::error::RaddError;
use crate::locks::{LockKind, LockManager};
use crate::stats::{Actor, OpReceipt, TrafficStats};
use bytes::Bytes;
use radd_blockdev::{BlockDevice, DiskArray};
use radd_layout::{DataIndex, Geometry, PhysRow, Role, SiteId};
use radd_net::{PartitionMap, PartitionVerdict};
use radd_obs::{ClusterObs, ObsSnapshot};
use radd_protocol::loopback::{Hook, Loopback};
use radd_protocol::obs::ObsEvent;
use radd_protocol::{
    gate, trace, BlockFault, Blocks, ClientErr, ClientIo, ClientMachine, Dest, DurableSiteState,
    Effect, Gate, IoPurpose, Msg, RebuildReport, SiteMachine, SiteState, BLOCK_MSG_HEADER,
    CONTROL_MSG_BYTES,
};
use radd_sim::{CostLedger, OpKind};

/// Recovery-drain locks are held by this pseudo transaction id.
const RECOVERY_TXN: u64 = u64::MAX;

/// A site's disk array as its machine's block store: a failed disk
/// surfaces to the machine as a [`BlockFault`].
#[derive(Debug)]
struct Disks(DiskArray);

impl Blocks for Disks {
    fn read(&mut self, row: u64) -> Result<Bytes, BlockFault> {
        self.0.read_block(row).map_err(|_| BlockFault)
    }

    fn write(&mut self, row: u64, data: &[u8]) -> Result<(), BlockFault> {
        self.0.write_block(row, data).map_err(|_| BlockFault)
    }

    fn write_owned(&mut self, row: u64, data: Bytes) -> Result<(), BlockFault> {
        self.0.write_block_owned(row, data).map_err(|_| BlockFault)
    }
}

/// A site: its machine over its disk array.
type Site = (SiteMachine, Disks);

/// Is this site's copy of `row` physically readable and trusted?
fn row_ok((machine, Disks(array)): &Site, row: PhysRow) -> bool {
    !array.is_failed(array.disk_of(row)) && !machine.invalid_rows().contains(&row)
}

/// The logical current content of `site`'s block at `row`: the spare
/// stand-in if one exists, the local block if trustworthy, else the
/// reconstruction. Never charged: it stands in for buffer caches in the cost
/// model and for test assertions.
fn logical(
    sites: &mut [Site],
    geo: &Geometry,
    site: SiteId,
    row: PhysRow,
) -> Result<Bytes, RaddError> {
    let spare_site = geo.spare_site(row);
    let stand_in = sites[spare_site].0.spares().get(&row);
    if spare_site != site && stand_in.is_some_and(|slot| slot.for_site == site) {
        return Ok(sites[spare_site].1 .0.read_block(row)?);
    }
    if row_ok(&sites[site], row) {
        return Ok(sites[site].1 .0.read_block(row)?);
    }
    // Reconstruct silently.
    let mut acc = vec![0u8; sites[site].1 .0.block_size()];
    for s in (0..sites.len()).filter(|&s| s != site && s != spare_site) {
        if !row_ok(&sites[s], row) {
            return Err(RaddError::MultipleFailure {
                detail: format!("cannot materialise row {row} of site {site}"),
            });
        }
        radd_parity::xor_in_place(&mut acc, &sites[s].1 .0.read_block(row)?);
    }
    Ok(Bytes::from(acc))
}

/// The DES's hook on [`Loopback`]. It prices every machine step's receipts
/// and parity updates (Figure-3 conventions; see the module docs) and every
/// client request's control traffic, taps the trace and the observability
/// layer, answers the buffer-pool old value and takes the drain locks.
#[derive(Debug)]
struct Pricing {
    /// Who the running operation is for (local vs remote costs).
    actor: Actor,
    /// Whether the running exchange is background work.
    background: bool,
    /// Serve [`ClientIo::old_value`] from [`logical`] (the paper's
    /// buffer-pool assumption). Off in client mode.
    oracle: bool,
    /// Lock each spare row exclusively for the duration of its drain
    /// (§3.2's "lock each valid spare block"). On only while the recovery
    /// daemon drains.
    drain_locks: bool,
    /// The block lock table (§3.3; shared with `radd-txn`).
    locks: LockManager,
    geometry: Geometry,
    /// Wire bytes of one block message.
    block_wire: usize,
    ledger: CostLedger,
    traffic: TrafficStats,
    /// Per-site normalised effect traces (differential testing); index `j`
    /// is site `j`.
    site_traces: Option<Vec<Vec<ObsEvent>>>,
    /// Metrics + flight recorder, tapped off the same effect stream. The
    /// latency histograms record *logical* ledger microseconds, never wall
    /// time, so an observed DES run stays deterministic.
    obs: Option<ClusterObs>,
}

impl Pricing {
    fn kind(&self, at: SiteId, local: OpKind, remote: OpKind) -> OpKind {
        if self.actor.is_local_to(at) {
            local
        } else {
            remote
        }
    }

    /// Price one read receipt at `at`.
    fn read(&mut self, at: SiteId, purpose: IoPurpose) {
        let kind = self.kind(at, OpKind::LocalRead, OpKind::RemoteRead);
        match purpose {
            // Buffer-pool / prefetch assumptions: free.
            IoPurpose::OldValue | IoPurpose::ParityApply => {}
            _ if self.background => {
                self.ledger.charge_background(kind);
                self.traffic.recovery.record_send(self.block_wire);
            }
            _ => {
                if kind == OpKind::RemoteRead {
                    self.traffic.remote_reads.record_send(self.block_wire);
                }
                self.ledger.charge(kind);
            }
        }
    }

    /// Price one write receipt at `at`.
    fn write(&mut self, at: SiteId, purpose: IoPurpose) {
        let kind = self.kind(at, OpKind::LocalWrite, OpKind::RemoteWrite);
        match purpose {
            // The parity read-modify-write was charged as one RW when the
            // update was sent.
            IoPurpose::OldValue | IoPurpose::ParityApply => {}
            IoPurpose::SpareInstall => {
                self.traffic.spare_writes.record_send(self.block_wire);
                if self.background {
                    self.ledger.charge_background(OpKind::RemoteWrite);
                } else {
                    self.ledger.charge(kind);
                }
            }
            IoPurpose::Restore => self.ledger.charge_background(OpKind::LocalWrite),
            _ => {
                self.ledger.charge(kind);
            }
        }
    }

    /// A parity update sent to `to`: one write, charged at send time.
    fn parity_update(&mut self, to: SiteId, msg: &Msg) {
        self.traffic.parity_updates.record_send(msg.wire_size());
        let kind = self.kind(to, OpKind::LocalWrite, OpKind::RemoteWrite);
        self.ledger.charge(kind);
    }
}

impl Hook<Disks> for Pricing {
    fn handle(
        &mut self,
        site: usize,
        machine: &mut SiteMachine,
        blocks: &mut Disks,
        src: usize,
        msg: Msg,
        out: &mut Vec<Effect>,
    ) {
        machine.handle(blocks, src, msg, out);
        if let Some(bufs) = &mut self.site_traces {
            bufs[site].extend(out.iter().filter_map(trace));
        }
        for eff in out.iter() {
            if let Some(obs) = &mut self.obs {
                obs.site(site).effect(eff);
            }
            match eff {
                Effect::Read { purpose, .. } => self.read(site, *purpose),
                Effect::Write { purpose, .. } => self.write(site, *purpose),
                Effect::Send {
                    to: Dest::Site(t),
                    msg: m @ Msg::ParityUpdate { .. },
                    ..
                } => self.parity_update(*t, m),
                // Synchronous delivery: acks are immediate, timers are
                // moot; DeferAck resolves within this same cascade.
                _ => {}
            }
        }
    }

    fn exchange(&mut self, site: usize, msg: &Msg, background: bool) -> Result<(), ClientErr> {
        if self.drain_locks {
            match *msg {
                Msg::SpareProbe { row, .. } => self
                    .locks
                    .try_lock(site, row, LockKind::Exclusive, RECOVERY_TXN)
                    .map_err(|_| ClientErr::Unavailable { site })?,
                Msg::SpareTake { row, .. } => self.locks.unlock(site, row, RECOVERY_TXN),
                _ => {}
            }
        }
        self.background = background;
        if let Some(obs) = &mut self.obs {
            obs.client().event(ObsEvent::client_send(site, msg, false));
        }
        match msg {
            // W3' from the client.
            Msg::ParityUpdate { .. } => self.parity_update(site, msg),
            // Spare-slot control plane: a validity probe is a UID check
            // answered with a control message, not a block transfer.
            Msg::SpareProbe { .. } | Msg::SpareTake { .. } | Msg::SpareDrainList { .. } => {
                self.traffic.control.record_send(CONTROL_MSG_BYTES);
            }
            _ => {}
        }
        Ok(())
    }

    fn old_value(&mut self, sites: &mut [Site], site: usize, row: u64) -> Option<Vec<u8>> {
        if !self.oracle {
            return None;
        }
        logical(sites, &self.geometry, site, row)
            .ok()
            .map(|b| b.to_vec())
    }
}

/// What the recovery daemon did (all background work).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Spare blocks drained back to the recovered site.
    pub spares_drained: u64,
    /// Data blocks reconstructed from the group.
    pub data_reconstructed: u64,
    /// Parity blocks (and their UID arrays) rebuilt.
    pub parity_rebuilt: u64,
}

/// A running RADD cluster of `G + 2` sites.
#[derive(Debug)]
pub struct RaddCluster {
    config: RaddConfig,
    geometry: Geometry,
    /// The sites, each machine over its disk array, on the cascade its
    /// pricing hangs on.
    net: Loopback<Pricing, Disks>,
    /// Each site's §3.1 state: up, down or recovering.
    states: Vec<SiteState>,
    /// The client machine. Persistent so its UID mint never resets —
    /// reused UIDs would defeat the parity site's idempotence guard.
    client: ClientMachine,
    partition: PartitionMap,
}

impl RaddCluster {
    /// Build a fresh cluster. All sites are up; all blocks read as zeros and
    /// the all-zero stripes trivially satisfy the parity invariant.
    pub fn new(config: RaddConfig) -> Result<RaddCluster, RaddError> {
        if !config.rows.is_multiple_of(config.disks_per_site as u64) {
            return Err(RaddError::BadConfig(format!(
                "rows ({}) must divide evenly across {} disks",
                config.rows, config.disks_per_site
            )));
        }
        let geometry = Geometry::new(config.group_size, config.rows)
            .map_err(|e| RaddError::BadConfig(e.to_string()))?;
        let sites = (0..config.num_sites())
            .map(|id| {
                (
                    SiteMachine::new(id, config.group_size, config.rows, config.block_size),
                    Disks(DiskArray::new(
                        config.disks_per_site,
                        config.blocks_per_disk(),
                        config.block_size,
                    )),
                )
            })
            .collect();
        let pricing = Pricing {
            actor: Actor::Client,
            background: false,
            oracle: false,
            drain_locks: false,
            locks: LockManager::new(),
            geometry,
            block_wire: config.block_size + BLOCK_MSG_HEADER,
            ledger: CostLedger::new(config.cost),
            traffic: TrafficStats::default(),
            site_traces: None,
            obs: None,
        };
        // UIDs always validated (§3.3). UID namespace u16::MAX: disjoint
        // from every site's generator (namespace = site id) and identical
        // to the threaded runtime's primary client, so differential traces
        // mint the same UIDs.
        let client = ClientMachine::new(
            config.group_size,
            config.rows,
            config.block_size,
            config.spare_policy,
            true,
            u16::MAX,
        );
        Ok(RaddCluster {
            partition: PartitionMap::connected(config.num_sites()),
            geometry,
            net: Loopback {
                sites,
                hook: pricing,
            },
            states: vec![SiteState::Up; config.num_sites()],
            client,
            config,
        })
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &RaddConfig {
        &self.config
    }

    /// The layout geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Number of data blocks addressable at `site`.
    pub fn data_capacity(&self, site: SiteId) -> u64 {
        self.geometry.data_capacity(site)
    }

    /// The cost ledger (foreground + background op counts and latency).
    pub fn ledger(&self) -> &CostLedger {
        &self.net.hook.ledger
    }

    /// Per-category network traffic counters.
    pub fn traffic(&self) -> &TrafficStats {
        &self.net.hook.traffic
    }

    /// The block lock table (§3.3; shared with `radd-txn`).
    pub fn locks(&mut self) -> &mut LockManager {
        &mut self.net.hook.locks
    }

    /// Zero the ledger and traffic counters (between experiment phases).
    pub fn reset_stats(&mut self) {
        self.net.hook.ledger.reset();
        self.net.hook.traffic = TrafficStats::default();
        for (_, Disks(array)) in &mut self.net.sites {
            array.reset_stats();
        }
    }

    /// Current state of a site (ignoring partitions; see
    /// [`effective_state`](RaddCluster::effective_state)).
    pub fn site_state(&self, site: SiteId) -> SiteState {
        self.states[site]
    }

    /// A site's protocol machine, for inspection in tests and tooling.
    pub fn machine(&self, site: SiteId) -> &SiteMachine {
        &self.net.sites[site].0
    }

    fn array(&mut self, site: SiteId) -> &mut DiskArray {
        &mut self.net.sites[site].1 .0
    }

    // ------------------------------------------------------------------
    // Failure injection
    // ------------------------------------------------------------------

    /// A temporary site failure: the site stops processing; its disks keep
    /// their contents.
    pub fn fail_site(&mut self, site: SiteId) {
        self.states[site] = SiteState::Down;
    }

    /// A site disaster: the site goes down and *all* its disk contents are
    /// lost (it will be restored on blank replacement hardware), every
    /// disk blanked and all its metadata with them.
    pub fn disaster(&mut self, site: SiteId) {
        let (machine, Disks(array)) = &mut self.net.sites[site];
        array.disaster();
        machine.forget_all();
        self.states[site] = SiteState::Down;
    }

    /// A disk failure: the site stays operational but the disk's blocks are
    /// inaccessible. Per §3.1 this moves the site "directly from up to
    /// recovering".
    pub fn fail_disk(&mut self, site: SiteId, disk: usize) {
        self.array(site).fail_disk(disk);
        if self.states[site] == SiteState::Up {
            self.states[site] = SiteState::Recovering;
        }
    }

    /// Swap a blank spare drive in for a failed disk; its previous contents
    /// (blocks, UIDs, parity arrays, spare slots) are marked invalid for
    /// the recovery daemon to rebuild.
    pub fn replace_disk(&mut self, site: SiteId, disk: usize) {
        let (machine, Disks(array)) = &mut self.net.sites[site];
        array.replace_disk(disk);
        machine.forget_rows(array.blocks_on_disk(disk));
    }

    /// Bring a down site back: it enters the recovering state (§3.1).
    pub fn restore_site(&mut self, site: SiteId) {
        if self.states[site] == SiteState::Down {
            self.states[site] = SiteState::Recovering;
        }
    }

    /// Process crash + immediate restart of `site` (§3.4). The real
    /// runtimes mount `radd_storage::DiskBlocks` under each site; the DES
    /// has no files and models the consequences of a durable store: the
    /// disk array (the block file) and the machine's durable half survive
    /// — round-tripped through the [`DurableSiteState`] wire codec, exactly
    /// the bytes a real `DiskBlocks` store persists — while the volatile
    /// half (pending table, in-flight parity updates, the at-most-once
    /// reply cache) is lost. Each surviving row with a valid UID is priced
    /// as a background local [`IoPurpose::LogReplay`] read: the §3.4 point
    /// that a local WAL recovery needs "only one local read … for each
    /// block accessed".
    ///
    /// The cascade is synchronous, so no parity update is ever in doubt at
    /// a crash (the §6 problem this runtime does not model).
    pub fn kill_restart_site(&mut self, site: SiteId) {
        let bytes = self.machine(site).durable_snapshot().encode();
        let restored = DurableSiteState::decode(&bytes)
            .unwrap_or_else(|e| panic!("durable snapshot codec must roundtrip: {e}"));
        let replay_reads = restored
            .block_uids
            .iter()
            .filter(|uid| uid.is_valid())
            .count();
        self.net.sites[site].0 = SiteMachine::restore_durable(restored);
        // The restarted machine's beliefs were volatile: tell it again.
        for peer in (0..self.states.len()).filter(|&p| p != site) {
            let down = self.client.is_down(peer);
            self.net.sites[site].0.set_peer_down(peer, down);
        }
        let replayed = &mut self.net.hook.ledger.background;
        replayed.record_n(OpKind::LocalRead, replay_reads as u64);
    }

    /// Install a network partition (heal with
    /// [`PartitionMap::connected`]).
    pub fn set_partition(&mut self, partition: PartitionMap) {
        assert_eq!(partition.num_sites(), self.states.len());
        self.partition = partition;
    }

    /// A site's state as seen through the current partition: an isolated
    /// site is treated as down by the majority (§5).
    pub fn effective_state(&self, site: SiteId) -> SiteState {
        match self.partition.classify(self.config.group_size) {
            PartitionVerdict::SingleFailureLike { isolated, .. } if isolated == site => {
                SiteState::Down
            }
            _ => self.states[site],
        }
    }

    /// §5's gate for a priced operation by `actor`.
    fn gate_partition(&self, actor: Actor) -> Result<(), RaddError> {
        let site = match actor {
            Actor::Site(s) => Some(s),
            Actor::Client => None,
        };
        match gate(&self.partition.classify(self.config.group_size), site) {
            Gate::Proceed => Ok(()),
            Gate::Blocked => Err(RaddError::Blocked),
            Gate::ActorIsolated { site } => Err(RaddError::ActorIsolated { site }),
        }
    }

    /// Is the local copy of `row` at `site` physically readable and
    /// trusted?
    pub(crate) fn local_row_ok(&self, site: SiteId, row: PhysRow) -> bool {
        row_ok(&self.net.sites[site], row)
    }

    // ------------------------------------------------------------------
    // The client machine's beliefs and errors
    // ------------------------------------------------------------------

    /// Price the client machine's next calls for `actor`, its old values
    /// served from the buffer-pool oracle or not.
    fn act(&mut self, actor: Actor, oracle: bool) {
        self.net.hook.actor = actor;
        self.net.hook.oracle = oracle;
    }

    /// Tell the client machine, and every other site machine, to believe
    /// `site` in `state`.
    pub(crate) fn believe(&mut self, site: SiteId, state: SiteState) {
        match state {
            SiteState::Recovering => self.client.set_recovering(site),
            state => self.client.set_down(site, state == SiteState::Down),
        }
        for (s, (machine, _)) in self.net.sites.iter_mut().enumerate() {
            if s != site {
                machine.set_peer_down(site, state == SiteState::Down);
            }
        }
    }

    /// Refresh every machine's beliefs from the effective (partition-aware)
    /// site states.
    fn refresh_down_mask(&mut self) {
        for s in 0..self.states.len() {
            self.believe(s, self.effective_state(s));
        }
    }

    /// Lift a machine error to the cluster error vocabulary.
    fn lift(
        &self,
        err: ClientErr,
        site: SiteId,
        index: DataIndex,
        got: Option<usize>,
    ) -> RaddError {
        match err {
            ClientErr::OutOfRange => RaddError::OutOfRange {
                index,
                capacity: self.geometry.data_capacity(site),
            },
            ClientErr::BadSize => RaddError::WrongBlockSize {
                got: got.unwrap_or(0),
                expected: self.config.block_size,
            },
            ClientErr::MultipleFailure { detail } => RaddError::MultipleFailure { detail },
            ClientErr::Inconsistent { site } => RaddError::InconsistentRead { site },
            ClientErr::Unavailable { site } | ClientErr::Timeout { site } => {
                RaddError::Unavailable { site }
            }
        }
    }

    // ------------------------------------------------------------------
    // Reads and writes
    // ------------------------------------------------------------------

    /// Read the `index`-th data block of `site` on behalf of `actor`.
    pub fn read(
        &mut self,
        actor: Actor,
        site: SiteId,
        index: DataIndex,
    ) -> Result<(Bytes, OpReceipt), RaddError> {
        self.gate_partition(actor)?;
        let snap = self.ledger().snapshot();
        self.refresh_down_mask();
        self.act(actor, true);
        let data = self.client.read(&mut self.net, site, index);
        let data = data.map_err(|e| self.lift(e, site, index, None))?;
        let (counts, latency) = self.ledger().since(snap);
        if let Some(obs) = &mut self.net.hook.obs {
            obs.client()
                .metrics()
                .record_read_latency(latency.as_micros());
        }
        Ok((data, OpReceipt { counts, latency }))
    }

    /// Write the `index`-th data block of `site` on behalf of `actor`
    /// (steps W1–W4, or W1' when the site is down). A parity site whose
    /// copy of the row cannot take the write's update (its disk for the
    /// row failed, or the row was lost with one) is down for this write:
    /// the row's spare stands in for it (§3.2).
    pub fn write(
        &mut self,
        actor: Actor,
        site: SiteId,
        index: DataIndex,
        data: &[u8],
    ) -> Result<OpReceipt, RaddError> {
        self.gate_partition(actor)?;
        let snap = self.ledger().snapshot();
        self.refresh_down_mask();
        if index < self.geometry.data_capacity(site) {
            let row = self.geometry.data_to_physical(site, index);
            let parity = self.geometry.parity_site(row);
            if !self.local_row_ok(parity, row) {
                self.believe(parity, SiteState::Down);
            }
        }
        self.act(actor, true);
        let done = self.client.write(&mut self.net, site, index, data);
        done.map_err(|e| self.lift(e, site, index, Some(data.len())))?;
        let (counts, latency) = self.ledger().since(snap);
        if let Some(obs) = &mut self.net.hook.obs {
            obs.client()
                .metrics()
                .record_write_latency(latency.as_micros());
        }
        Ok(OpReceipt { counts, latency })
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// The §3.2 background recovery daemon for a recovering site: drain
    /// every valid spare standing in for it (through the protocol's
    /// lock-protected drain), rebuild every invalid local block and restore
    /// it there (the client machine's `restore_lost`), then mark the site
    /// up. A spare row locked by someone else (a transaction's §3.3 lock)
    /// refuses the drain as [`RaddError::Unavailable`]; run it again once
    /// the lock is released.
    pub fn run_recovery(&mut self, site: SiteId) -> Result<RecoveryReport, RaddError> {
        assert_eq!(
            self.states[site],
            SiteState::Recovering,
            "run_recovery on a site that is not recovering"
        );
        if self.array(site).any_failed() {
            return Err(RaddError::BadConfig(
                "replace the failed disk before running recovery".into(),
            ));
        }
        let mut report = RecoveryReport::default();

        // Phase 1: drain spares. "A recovering site also spawns a background
        // process to lock each valid spare block, copy its contents to the
        // corresponding block of S[J] and then invalidate the contents of
        // the spare block."
        self.refresh_down_mask();
        self.act(Actor::Site(site), true);
        self.net.hook.drain_locks = true;
        let drained = self.client.recover(&mut self.net, site);
        self.net.hook.drain_locks = false;
        // Release the locks of rows the machine did not get to `SpareTake`.
        self.net.hook.locks.release_all(RECOVERY_TXN);
        report.spares_drained = drained.map_err(|e| self.lift(e, site, 0, None))?;

        // Phase 2: "reconstructs invalid local blocks" lost with a disk or
        // in a disaster. An invalid spare block is simply empty: nothing to
        // rebuild.
        let lost: Vec<PhysRow> = self
            .machine(site)
            .invalid_rows()
            .iter()
            .copied()
            .filter(|&row| self.geometry.role(site, row) != Role::Spare)
            .collect();
        lost.iter()
            .try_for_each(|&row| {
                match self.client.restore_lost(&mut self.net, site, row, true)? {
                    (_, true) => Ok(()),
                    (_, false) => Err(ClientErr::Unavailable { site }),
                }
            })
            .map_err(|e| self.lift(e, site, 0, None))?;
        for &row in &lost {
            match self.geometry.role(site, row) {
                Role::Parity => report.parity_rebuilt += 1,
                _ => report.data_reconstructed += 1,
            }
        }
        if !self.machine(site).invalid_rows().is_empty() {
            self.net.sites[site].0.invalid_rows_mut().clear();
        }

        self.states[site] = SiteState::Up;
        if let Some(obs) = &mut self.net.hook.obs {
            obs.site(site).metrics().record_recovery(
                report.spares_drained + report.data_reconstructed + report.parity_rebuilt,
            );
        }
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Client-mode surface (differential testing against radd-node)
    // ------------------------------------------------------------------
    //
    // These methods drive the cluster with the exact semantics of the
    // async runtimes' client: the machines' beliefs are set by the caller
    // (through `believe`, as the async harness's `set_down` and
    // `mark_recovering` do; `read`/`write` instead refresh them from the
    // effective site states), the old-value oracle is disabled, so degraded
    // writes fetch the old value through the protocol just as a real client
    // must, and a failed operation is the machine's own [`ClientErr`],
    // unlifted. With the same plan applied to every runtime, the
    // per-machine effect traces are byte-identical. They are what
    // `impl GroupCluster for RaddCluster` (`sharded.rs`) is made of.

    /// Run one client-machine operation in client mode: caller-managed
    /// down list, no old-value oracle, the machine's own error.
    pub(crate) fn client_op<R>(
        &mut self,
        f: impl FnOnce(&mut ClientMachine, &mut dyn ClientIo) -> Result<R, ClientErr>,
    ) -> Result<R, ClientErr> {
        self.act(Actor::Client, false);
        f(&mut self.client, &mut self.net)
    }

    /// Client-machine recovery drain (the threaded runtime's
    /// `NodeClient::recover`): drain spares back to `site`, then mark it
    /// up. Returns the number of blocks drained.
    pub(crate) fn client_recover(&mut self, site: SiteId) -> Result<u64, ClientErr> {
        let drained = self.client_op(|cm, io| cm.recover(io, site))?;
        if self.states[site] == SiteState::Recovering {
            self.states[site] = SiteState::Up;
        }
        if let Some(obs) = &mut self.net.hook.obs {
            obs.site(site).metrics().record_recovery(drained);
        }
        Ok(drained)
    }

    /// Client-machine bulk rebuild (the threaded runtime's
    /// `NodeClient::rebuild`): reconstruct every data block the
    /// believed-down `site` owns into the row spares, `wave_rows` rows per
    /// pipelined wave. Idempotent — rows already absorbed are skipped.
    pub(crate) fn client_rebuild(
        &mut self,
        site: SiteId,
        wave_rows: usize,
    ) -> Result<RebuildReport, ClientErr> {
        let report = self.client_op(|cm, io| cm.rebuild_member(io, site, wave_rows))?;
        if let Some(obs) = &mut self.net.hook.obs {
            obs.client().metrics().record_rebuild(&report);
        }
        Ok(report)
    }

    /// Enable (or disable) the observability layer: per-machine metrics
    /// and flight recorders tapped off the effect stream. Purely passive —
    /// receipts, traces and ledger charges are unchanged whether this is on
    /// or off.
    pub fn record_obs(&mut self, on: bool) {
        self.net.hook.obs = on.then(|| ClusterObs::new(self.states.len()));
    }

    /// Freeze the observability state: machine 0 is the client, `1 + j` is
    /// site `j`. `None` when [`record_obs`](Self::record_obs) is off.
    pub fn obs_snapshot(&mut self) -> Option<ObsSnapshot> {
        let Loopback { sites, hook } = &mut self.net;
        let obs = hook.obs.as_mut()?;
        for (j, (machine, _)) in sites.iter().enumerate() {
            let metrics = obs.site(j).metrics();
            metrics.set_coalesced_merges(machine.coalesced_merges());
            metrics.set_write_masks(machine.write_masks());
        }
        obs.client()
            .metrics()
            .set_write_paths(self.client.write_paths());
        Some(obs.snapshot())
    }

    /// Start (or stop) recording normalised effect traces on every site
    /// machine and the client machine.
    pub fn record_machine_traces(&mut self, on: bool) {
        self.net.hook.site_traces = on.then(|| vec![Vec::new(); self.states.len()]);
        if on {
            self.client.record_trace();
        }
    }

    /// Collect the recorded traces: index 0 is the client machine, index
    /// `1 + j` is site `j` — the same peer numbering
    /// [`radd_node::NodeCluster::take_traces`] uses.
    ///
    /// [`radd_node::NodeCluster::take_traces`]: ../radd_node/struct.NodeCluster.html#method.take_traces
    pub fn take_machine_traces(&mut self) -> Vec<Vec<ObsEvent>> {
        let mut all = vec![self.client.take_trace()];
        match &mut self.net.hook.site_traces {
            Some(bufs) => all.extend(bufs.iter_mut().map(std::mem::take)),
            None => all.extend((0..self.states.len()).map(|_| Vec::new())),
        }
        all
    }

    // ------------------------------------------------------------------
    // Oracles and fault hooks (uncharged; for tests and the fault harness)
    // ------------------------------------------------------------------

    /// Raw content of a physical block at a site, uncharged — inspection
    /// hook for tests and the fault harness.
    pub fn raw_block(&mut self, site: SiteId, row: PhysRow) -> Bytes {
        self.array(site).read_block(row).expect("row in range")
    }

    /// Fault-injection hook: overwrite the raw content of `site`'s
    /// physical block `row` **behind the protocol's back** — no UID, spare
    /// or parity bookkeeping. This breaks the stripe invariant on purpose;
    /// the invariant checker is expected to catch it.
    pub fn corrupt_block(&mut self, site: SiteId, row: PhysRow, data: &[u8]) {
        self.array(site)
            .write_block(row, data)
            .expect("row in range, right size");
    }

    /// Fault-injection hook, the bookkeeping twin of
    /// [`corrupt_block`](Self::corrupt_block): `site`'s protocol machine,
    /// to plant a UID-array slot or a spare slot no message produced. The
    /// invariant checker is expected to catch it.
    pub fn corrupt_machine(&mut self, site: SiteId) -> &mut SiteMachine {
        &mut self.net.sites[site].0
    }

    /// Public oracle: the logical content of a data block, bypassing all
    /// cost accounting. For assertions in tests, examples and benches.
    pub fn logical_content(&mut self, site: SiteId, index: DataIndex) -> Result<Bytes, RaddError> {
        let capacity = self.geometry.data_capacity(site);
        if index >= capacity {
            return Err(RaddError::OutOfRange { index, capacity });
        }
        let row = self.geometry.data_to_physical(site, index);
        logical(&mut self.net.sites, &self.geometry, site, row)
    }

    /// Verify the stripe invariant on every fully healthy row: the parity
    /// block equals the XOR of the row's data blocks (using spare stand-ins
    /// where they exist). Returns the first violated row.
    pub fn verify_parity(&mut self) -> Result<(), String> {
        for row in 0..self.config.rows {
            let parity_site = self.geometry.parity_site(row);
            // Row not materialisable: skip.
            let Ok(parity) = logical(&mut self.net.sites, &self.geometry, parity_site, row) else {
                continue;
            };
            let mut acc = vec![0u8; self.config.block_size];
            let mut ok = true;
            for s in self.geometry.data_sites(row) {
                match logical(&mut self.net.sites, &self.geometry, s, row) {
                    Ok(c) => radd_parity::xor_in_place(&mut acc, &c),
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && acc != parity.to_vec() {
                return Err(format!("parity mismatch in row {row}"));
            }
        }
        Ok(())
    }
}
