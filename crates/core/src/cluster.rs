//! The RADD cluster: a synchronous effect interpreter around the sans-IO
//! protocol machines.
//!
//! One [`RaddCluster`] owns the `G + 2` sites — each a
//! [`radd_protocol::SiteMachine`] paired with its disk array — plus one
//! persistent [`radd_protocol::ClientMachine`], the lock table, the cost
//! ledger and the per-category traffic counters. All §3 protocol logic
//! (W1–W4 ordering, UID validation, spare-slot lifecycle, a recovering
//! site's reads and writes, the parity stand-in while a parity site is
//! down, the recovery drain) lives in the machines: every client read and
//! write, whatever the sites' states, is one `ClientMachine` call. This
//! module only
//!
//! * delivers machine-emitted [`Effect::Send`]s synchronously (a message
//!   cascade runs to completion inside one client call),
//! * prices [`Effect::Read`]/[`Effect::Write`] receipts into the Figure-3
//!   cost ledger by their [`IoPurpose`],
//! * injects failures (which machines only observe as
//!   [`radd_protocol::BlockFault`]s and state transitions) and tells the
//!   client and site machines what to believe of each site, and
//! * orchestrates the parts the paper assigns to the *system* rather than
//!   the protocol: the §5 partition gate, recovery locking, and the
//!   buffer-pool old-value oracle.
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
//!   result into the spare, draining a stand-in back to a recovering site)
//!   is charged to the background ledger, not to the operation's latency.

use crate::config::{ParityMode, RaddConfig};
use crate::error::RaddError;
use crate::locks::{LockKind, LockManager};
use crate::site::{SiteNode, SiteState};
use crate::stats::{Actor, OpReceipt, TrafficStats};
use bytes::Bytes;
use radd_blockdev::{BlockDevice, DiskArray};
use radd_layout::{DataIndex, Geometry, PhysRow, Role, SiteId};
use radd_net::{PartitionMap, PartitionVerdict};
use radd_obs::{ClusterObs, ObsSnapshot};
use radd_protocol::obs::ObsEvent;
use radd_protocol::{
    trace, BlockFault, Blocks, ClientErr, ClientMachine, Dest, DurableSiteState, Effect, IoPurpose,
    Msg, RebuildReport, SiteMachine, SpareContent, BLOCK_MSG_HEADER, CONTROL_MSG_BYTES,
};
use radd_sim::{CostLedger, OpKind};
use std::collections::VecDeque;

/// Recovery-drain locks are held by this pseudo transaction id.
const RECOVERY_TXN: u64 = u64::MAX;

/// [`Blocks`] over a site's disk array: a failed disk surfaces to the
/// machine as a [`BlockFault`].
struct ArrayBlocks<'a>(&'a mut DiskArray);

impl Blocks for ArrayBlocks<'_> {
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

/// A queued parity-update message (only populated in
/// [`ParityMode::Queued`]): the wire message plus the peer slot its ack
/// should be delivered to at flush time.
#[derive(Debug, Clone)]
struct PendingParity {
    to: SiteId,
    src_peer: usize,
    msg: Msg,
}

/// How the DES models each site's storage engine (§3.4).
///
/// The real runtimes mount `radd_storage::DiskBlocks` — a checksummed WAL
/// in front of a block file — under each site. The DES has no files; it
/// models the *consequences*: under [`StorageMode::Durable`], a process
/// crash ([`RaddCluster::kill_restart_site`]) preserves the disk array and
/// the machine's durable half (block/parity UIDs, spares, invalid rows,
/// the UID mint) by round-tripping it through the same
/// [`DurableSiteState`] codec the disk engine persists, while the volatile
/// half (pending table, in-flight parity, reply cache) is lost — exactly
/// the state split a real restart produces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StorageMode {
    /// Volatile memory: a process crash would lose everything, so
    /// [`RaddCluster::kill_restart_site`] refuses (returns `false`).
    #[default]
    Volatile,
    /// Durable WAL-backed storage: crash/restart is survivable.
    Durable,
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

/// A machine-level error paired with the interpreter error (if any) that
/// caused it; the interpreter error wins when both exist.
type ClientFailure = (ClientErr, Option<RaddError>);

/// A running RADD cluster of `G + 2` sites.
#[derive(Debug)]
pub struct RaddCluster {
    config: RaddConfig,
    geometry: Geometry,
    sites: Vec<SiteNode>,
    /// The persistent client machine (`Option` only so it can be detached
    /// while an io adapter borrows the rest of the cluster). Persistent so
    /// its UID mint never resets — reused UIDs would defeat the parity
    /// site's idempotence guard.
    client: Option<ClientMachine>,
    ledger: CostLedger,
    traffic: TrafficStats,
    locks: LockManager,
    partition: PartitionMap,
    pending_parity: Vec<PendingParity>,
    /// Per-site normalised effect traces (differential testing); index `j`
    /// is site `j`.
    site_traces: Option<Vec<Vec<ObsEvent>>>,
    /// Metrics + flight recorder, tapped off the same effect stream. The
    /// latency histograms record *logical* ledger microseconds, never wall
    /// time, so an observed DES run stays deterministic.
    obs: Option<ClusterObs>,
    /// Storage engine model (§3.4): volatile by default; durable enables
    /// [`kill_restart_site`](RaddCluster::kill_restart_site).
    storage_mode: StorageMode,
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
                SiteNode::new(
                    id,
                    config.group_size,
                    config.disks_per_site,
                    config.blocks_per_disk(),
                    config.block_size,
                )
            })
            .collect();
        // UID namespace u16::MAX: disjoint from every site's generator
        // (namespace = site id) and identical to the threaded runtime's
        // primary client, so differential traces mint the same UIDs.
        let client = ClientMachine::new(
            config.group_size,
            config.rows,
            config.block_size,
            config.spare_policy,
            config.uid_validation,
            u16::MAX,
        );
        Ok(RaddCluster {
            ledger: CostLedger::new(config.cost),
            partition: PartitionMap::connected(config.num_sites()),
            geometry,
            sites,
            client: Some(client),
            traffic: TrafficStats::default(),
            locks: LockManager::new(),
            pending_parity: Vec::new(),
            site_traces: None,
            obs: None,
            storage_mode: StorageMode::default(),
            config,
        })
    }

    /// Pick the §3.4 storage engine model (see [`StorageMode`]).
    pub fn set_storage_mode(&mut self, mode: StorageMode) {
        self.storage_mode = mode;
    }

    /// The current storage engine model.
    pub fn storage_mode(&self) -> StorageMode {
        self.storage_mode
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
        &self.ledger
    }

    /// Per-category network traffic counters.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// The block lock table (§3.3; shared with `radd-txn`).
    pub fn locks(&mut self) -> &mut LockManager {
        &mut self.locks
    }

    /// Zero the ledger and traffic counters (between experiment phases).
    pub fn reset_stats(&mut self) {
        self.ledger.reset();
        self.traffic = TrafficStats::default();
        for s in &mut self.sites {
            s.array.reset_stats();
        }
    }

    /// Current state of a site (ignoring partitions; see
    /// [`effective_state`](RaddCluster::effective_state)).
    pub fn site_state(&self, site: SiteId) -> SiteState {
        self.sites[site].state
    }

    /// Direct access to a site, for inspection in tests and tooling.
    pub fn site(&self, site: SiteId) -> &SiteNode {
        &self.sites[site]
    }

    // ------------------------------------------------------------------
    // Failure injection
    // ------------------------------------------------------------------

    /// A temporary site failure: the site stops processing; its disks keep
    /// their contents.
    pub fn fail_site(&mut self, site: SiteId) {
        self.sites[site].state = SiteState::Down;
    }

    /// A site disaster: the site goes down and *all* its disk contents are
    /// lost (it will be restored on blank replacement hardware).
    pub fn disaster(&mut self, site: SiteId) {
        self.sites[site].lose_everything();
        self.sites[site].state = SiteState::Down;
    }

    /// A disk failure: the site stays operational but the disk's blocks are
    /// inaccessible. Per §3.1 this moves the site "directly from up to
    /// recovering".
    pub fn fail_disk(&mut self, site: SiteId, disk: usize) {
        self.sites[site].array.fail_disk(disk);
        if self.sites[site].state == SiteState::Up {
            self.sites[site].state = SiteState::Recovering;
        }
    }

    /// Swap a blank spare drive in for a failed disk; its previous contents
    /// are marked invalid for the recovery daemon to rebuild.
    pub fn replace_disk(&mut self, site: SiteId, disk: usize) {
        self.sites[site].array.replace_disk(disk);
        self.sites[site].lose_disk_rows(disk);
    }

    /// Bring a down site back: it enters the recovering state (§3.1).
    pub fn restore_site(&mut self, site: SiteId) {
        if self.sites[site].state == SiteState::Down {
            self.sites[site].state = SiteState::Recovering;
        }
    }

    /// Process crash + immediate restart of `site` under
    /// [`StorageMode::Durable`]: the disk array (the block file) and the
    /// machine's durable half survive — round-tripped through the
    /// [`DurableSiteState`] wire codec, exactly the bytes a real
    /// `DiskBlocks` store persists — while the volatile half (pending
    /// table, in-flight parity updates, the at-most-once reply cache) is
    /// lost. Each surviving row with a valid UID is priced as a background
    /// local [`IoPurpose::LogReplay`] read: the §3.4 point that a local
    /// WAL recovery needs "only one local read … for each block accessed".
    ///
    /// Returns `false` (and changes nothing) under
    /// [`StorageMode::Volatile`]. Quiesce first (e.g.
    /// [`flush_parity`](RaddCluster::flush_parity)): crashing with a
    /// parity update in doubt is the §6 problem this runtime does not
    /// model, same as the other failure injectors.
    pub fn kill_restart_site(&mut self, site: SiteId) -> bool {
        if self.storage_mode != StorageMode::Durable {
            return false;
        }
        let snap = self.sites[site].machine.durable_snapshot();
        let bytes = snap.encode();
        let restored = DurableSiteState::decode(&bytes)
            .unwrap_or_else(|e| panic!("durable snapshot codec must roundtrip: {e}"));
        let replay_reads = restored
            .block_uids
            .iter()
            .filter(|uid| uid.is_valid())
            .count();
        self.sites[site].machine = SiteMachine::restore_durable(restored);
        // The restarted machine's beliefs were volatile: tell it again.
        for peer in (0..self.sites.len()).filter(|&p| p != site) {
            let down = self.client().is_down(peer);
            self.sites[site].machine.set_peer_down(peer, down);
        }
        for _ in 0..replay_reads {
            self.charge_io_read(Actor::Site(site), true, site, IoPurpose::LogReplay);
        }
        true
    }

    /// Install a network partition (heal with
    /// [`PartitionMap::connected`]).
    pub fn set_partition(&mut self, partition: PartitionMap) {
        assert_eq!(partition.num_sites(), self.sites.len());
        self.partition = partition;
    }

    /// A site's state as seen through the current partition: an isolated
    /// site is treated as down by the majority (§5).
    pub fn effective_state(&self, site: SiteId) -> SiteState {
        match self.partition.classify(self.config.group_size) {
            PartitionVerdict::SingleFailureLike { isolated, .. } if isolated == site => {
                SiteState::Down
            }
            _ => self.sites[site].state,
        }
    }

    // ------------------------------------------------------------------
    // Charging helpers
    // ------------------------------------------------------------------

    fn charge_write(&mut self, actor: Actor, at: SiteId) {
        let kind = if actor.is_local_to(at) {
            OpKind::LocalWrite
        } else {
            OpKind::RemoteWrite
        };
        self.ledger.charge(kind);
    }

    /// Price one machine-emitted read receipt at `at` (Figure-3
    /// conventions; see the module docs).
    fn charge_io_read(&mut self, actor: Actor, background: bool, at: SiteId, purpose: IoPurpose) {
        let kind = if actor.is_local_to(at) {
            OpKind::LocalRead
        } else {
            OpKind::RemoteRead
        };
        let block = self.config.block_size + BLOCK_MSG_HEADER;
        match purpose {
            // Buffer-pool / prefetch assumptions: free.
            IoPurpose::OldValue | IoPurpose::ParityApply => {}
            // §3.4: a crashed site replaying its committed log suffix does
            // local reads off the critical path ("only one local read need
            // be done for each block accessed").
            IoPurpose::LogReplay => self.ledger.charge_background(kind),
            _ if background => {
                self.ledger.charge_background(kind);
                self.traffic.recovery.record_send(block);
            }
            _ => {
                if kind == OpKind::RemoteRead {
                    self.traffic.remote_reads.record_send(block);
                }
                self.ledger.charge(kind);
            }
        }
    }

    /// Price one machine-emitted write receipt at `at`.
    fn charge_io_write(&mut self, actor: Actor, background: bool, at: SiteId, purpose: IoPurpose) {
        match purpose {
            // The parity read-modify-write was charged as one RW when the
            // update was sent.
            IoPurpose::OldValue | IoPurpose::ParityApply => {}
            IoPurpose::SpareInstall => {
                self.traffic
                    .spare_writes
                    .record_send(self.config.block_size + BLOCK_MSG_HEADER);
                if background {
                    self.ledger.charge_background(OpKind::RemoteWrite);
                } else {
                    self.charge_write(actor, at);
                }
            }
            IoPurpose::Restore => self.ledger.charge_background(OpKind::LocalWrite),
            _ => self.charge_write(actor, at),
        }
    }

    fn gate_partition(&self, actor: Actor) -> Result<(), RaddError> {
        match self.partition.classify(self.config.group_size) {
            PartitionVerdict::Connected => Ok(()),
            PartitionVerdict::MustBlock => Err(RaddError::Blocked),
            PartitionVerdict::SingleFailureLike { isolated, .. } => match actor {
                Actor::Site(s) if s == isolated => Err(RaddError::ActorIsolated { site: s }),
                _ => Ok(()),
            },
        }
    }

    /// Is the local copy of `row` at `site` physically readable and
    /// trusted?
    fn local_row_ok(&self, site: SiteId, row: PhysRow) -> bool {
        let s = &self.sites[site];
        !s.array.is_failed(s.array.disk_of(row)) && !s.machine.invalid_rows().contains(&row)
    }

    // ------------------------------------------------------------------
    // The effect interpreter
    // ------------------------------------------------------------------

    /// Deliver `msg` to site `dst` as peer `src` (0 = the client, `1 + j` =
    /// site `j`) and run the resulting message cascade to completion.
    /// Returns the reply addressed to peer 0, if the cascade produced one.
    fn deliver(
        &mut self,
        actor: Actor,
        background: bool,
        dst: SiteId,
        src: usize,
        msg: Msg,
    ) -> Option<Msg> {
        let mut queue: VecDeque<(SiteId, usize, Msg)> = VecDeque::new();
        queue.push_back((dst, src, msg));
        let mut reply: Option<Msg> = None;
        while let Some((d, s, m)) = queue.pop_front() {
            let mut out = Vec::new();
            {
                let node = &mut self.sites[d];
                let mut blocks = ArrayBlocks(&mut node.array);
                node.machine.handle(&mut blocks, s, m.clone(), &mut out);
            }
            self.tap_effects(d, &out);
            for eff in out {
                match eff {
                    Effect::Read { purpose, .. } => {
                        self.charge_io_read(actor, background, d, purpose);
                    }
                    Effect::Write { purpose, .. } => {
                        self.charge_io_write(actor, background, d, purpose);
                    }
                    Effect::Send { to, msg: sm, .. } => match to {
                        Dest::Peer(0) => reply = Some(sm),
                        Dest::Peer(p) => queue.push_back((p - 1, d + 1, sm)),
                        Dest::Site(t) => {
                            let tag = sm.tag();
                            match self.route_parity_update(actor, t, d + 1, sm) {
                                Some(sm) => queue.push_back((t, d + 1, sm)),
                                // In flight or absorbed: ack the sender so
                                // its stop-and-wait queue advances (the
                                // flush-time ack is a duplicate the machine
                                // ignores).
                                None => queue.push_back((d, t + 1, Msg::Ack { tag })),
                            }
                        }
                    },
                    // Synchronous delivery: acks are immediate, timers are
                    // moot; DeferAck resolves within this same cascade.
                    Effect::DeferAck { .. }
                    | Effect::SetTimer { .. }
                    | Effect::ClearTimer { .. } => {}
                }
            }
        }
        reply
    }

    /// A message leaving a site for site `to` as peer `src_peer`. A parity
    /// update gets the paper's costing (one remote write, charged at send
    /// time) and honours the parity mode. `Some(msg)` is handed back for
    /// delivery to `to`; `None` means the update was queued, and the caller
    /// acks on the target's behalf. Anything but a parity update passes
    /// through.
    fn route_parity_update(
        &mut self,
        actor: Actor,
        to: SiteId,
        src_peer: usize,
        msg: Msg,
    ) -> Option<Msg> {
        if !matches!(msg, Msg::ParityUpdate { .. }) {
            return Some(msg);
        }
        self.traffic.parity_updates.record_send(msg.wire_size());
        self.charge_write(actor, to);
        if self.config.parity_mode == ParityMode::Queued {
            self.pending_parity
                .push(PendingParity { to, src_peer, msg });
            return None;
        }
        Some(msg)
    }

    /// Feed one machine step's effects to the differential trace and the
    /// observability tap of site `site`.
    fn tap_effects(&mut self, site: SiteId, out: &[Effect]) {
        if let Some(bufs) = &mut self.site_traces {
            bufs[site].extend(out.iter().filter_map(trace));
        }
        if let Some(obs) = &mut self.obs {
            for eff in out {
                obs.site(site).effect(eff);
            }
        }
    }

    /// One client request into the cluster: control-traffic accounting, the
    /// parity-mode split for client-originated W3' updates, then delivery.
    /// `None` when no reply came back (the site is down).
    fn client_request(
        &mut self,
        actor: Actor,
        site: SiteId,
        msg: Msg,
        background: bool,
    ) -> Option<Msg> {
        if let Some(obs) = &mut self.obs {
            obs.client().event(ObsEvent::client_send(site, &msg, false));
        }
        let tag = msg.tag();
        let msg = match msg {
            Msg::ParityUpdate { .. } => match self.route_parity_update(actor, site, 0, msg) {
                Some(msg) => msg,
                None => return Some(Msg::Ack { tag }),
            },
            // Spare-slot control plane: a validity probe is a UID check
            // answered with a control message, not a block transfer.
            Msg::SpareProbe { .. } | Msg::SpareTake { .. } | Msg::SpareDrainList { .. } => {
                self.traffic.control.record_send(CONTROL_MSG_BYTES);
                msg
            }
            msg => msg,
        };
        self.deliver(actor, background, site, 0, msg)
    }

    /// Run `f` against the detached client machine with a [`DesIo`] adapter
    /// over the rest of the cluster. Any interpreter-level error is carried
    /// alongside the machine's own.
    fn with_client<R>(
        &mut self,
        actor: Actor,
        oracle: bool,
        recovery_locks: bool,
        f: impl FnOnce(&mut ClientMachine, &mut DesIo<'_>) -> Result<R, ClientErr>,
    ) -> Result<R, ClientFailure> {
        let mut client = self.client.take().expect("client machine present");
        let mut io = DesIo {
            cluster: self,
            actor,
            oracle,
            recovery_locks,
            held: Vec::new(),
            stash: None,
        };
        let res = f(&mut client, &mut io);
        let held = std::mem::take(&mut io.held);
        let stash = io.stash.take();
        drop(io);
        // Release drain locks the machine did not get to SpareTake.
        for (s, r) in held {
            self.locks.unlock(s, r, RECOVERY_TXN);
        }
        self.client = Some(client);
        res.map_err(|e| (e, stash))
    }

    /// The persistent client machine.
    pub(crate) fn client(&mut self) -> &mut ClientMachine {
        self.client.as_mut().expect("client machine present")
    }

    /// Tell the client machine, and every other site machine, to believe
    /// `site` in `state`.
    pub(crate) fn believe(&mut self, site: SiteId, state: SiteState) {
        match state {
            SiteState::Recovering => self.client().set_recovering(site),
            state => self.client().set_down(site, state == SiteState::Down),
        }
        for (s, node) in self.sites.iter_mut().enumerate() {
            if s != site {
                node.machine.set_peer_down(site, state == SiteState::Down);
            }
        }
    }

    /// Refresh every machine's beliefs from the effective (partition-aware)
    /// site states.
    fn refresh_down_mask(&mut self) {
        for s in 0..self.sites.len() {
            self.believe(s, self.effective_state(s));
        }
    }

    /// Lift a machine error to the cluster error vocabulary; an interpreter
    /// error that surfaced through the io adapter takes precedence.
    fn lift(
        &self,
        (err, stash): ClientFailure,
        site: SiteId,
        index: DataIndex,
        got: Option<usize>,
    ) -> RaddError {
        if let Some(e) = stash {
            return e;
        }
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
        let snap = self.ledger.snapshot();
        self.refresh_down_mask();
        let data = self
            .with_client(actor, true, false, |cm, io| cm.read(io, site, index))
            .map_err(|f| self.lift(f, site, index, None))?;
        let (counts, latency) = self.ledger.since(snap);
        if let Some(obs) = &mut self.obs {
            obs.client()
                .metrics()
                .record_read_latency(latency.as_micros());
        }
        Ok((
            data,
            OpReceipt {
                counts,
                latency,
                retries: 0,
            },
        ))
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
        let snap = self.ledger.snapshot();
        self.refresh_down_mask();
        if index < self.geometry.data_capacity(site) {
            let row = self.geometry.data_to_physical(site, index);
            let parity = self.geometry.parity_site(row);
            if !self.local_row_ok(parity, row) {
                self.believe(parity, SiteState::Down);
            }
        }
        self.with_client(actor, true, false, |cm, io| cm.write(io, site, index, data))
            .map_err(|f| self.lift(f, site, index, Some(data.len())))?;
        let (counts, latency) = self.ledger.since(snap);
        if let Some(obs) = &mut self.obs {
            obs.client()
                .metrics()
                .record_write_latency(latency.as_micros());
        }
        Ok(OpReceipt {
            counts,
            latency,
            retries: 0,
        })
    }

    /// Apply all queued parity updates (queued mode only).
    pub fn flush_parity(&mut self) -> Result<(), RaddError> {
        let pending = std::mem::take(&mut self.pending_parity);
        for p in pending {
            // The RW was charged at send time; application is bookkeeping
            // (ParityApply receipts are free), so delivery here charges
            // nothing.
            self.deliver(Actor::Client, false, p.to, p.src_peer, p.msg);
        }
        Ok(())
    }

    /// Number of parity updates still queued.
    pub fn pending_parity_updates(&self) -> usize {
        self.pending_parity.len()
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// The §3.2 background recovery daemon for a recovering site: drain
    /// every valid spare standing in for it (through the protocol's
    /// lock-protected drain), reconstruct every invalid local block, then
    /// mark the site up.
    pub fn run_recovery(&mut self, site: SiteId) -> Result<RecoveryReport, RaddError> {
        assert_eq!(
            self.sites[site].state,
            SiteState::Recovering,
            "run_recovery on a site that is not recovering"
        );
        if self.sites[site].array.any_failed() {
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
        report.spares_drained = self
            .with_client(Actor::Site(site), true, true, |cm, io| cm.recover(io, site))
            .map_err(|f| self.lift(f, site, 0, None))?;

        // Phase 2: reconstruct blocks lost with disks/disasters.
        let invalid: Vec<PhysRow> = self.sites[site]
            .machine
            .invalid_rows()
            .iter()
            .copied()
            .collect();
        for row in invalid {
            // An invalid spare block is simply empty — nothing to do.
            if self.geometry.role(site, row) != Role::Spare {
                let (data, content) = self
                    .with_client(Actor::Site(site), true, false, |cm, io| {
                        cm.reconstruct(io, site, row, true)
                    })
                    .map_err(|f| self.lift(f, site, 0, None))?;
                self.sites[site].write_block(row, &data)?;
                self.ledger.charge_background(OpKind::LocalWrite);
                let machine = &mut self.sites[site].machine;
                match content {
                    SpareContent::Data { uid } => {
                        machine.set_block_uid(row, uid);
                        report.data_reconstructed += 1;
                    }
                    SpareContent::Parity { uids } => {
                        machine.parity_uids_mut().insert(row, uids);
                        report.parity_rebuilt += 1;
                    }
                }
            }
            self.sites[site].machine.invalid_rows_mut().remove(&row);
        }

        self.sites[site].state = SiteState::Up;
        if let Some(obs) = &mut self.obs {
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
    // unlifted (an interpreter-level fault behind it has already been
    // folded to `Unavailable` by the io adapter). With the same plan applied
    // to every runtime, the per-machine effect traces are byte-identical.
    // They are what `impl GroupCluster for RaddCluster` (`sharded.rs`) is
    // made of.

    /// Run one client-machine operation in client mode: caller-managed
    /// down list, no old-value oracle, the machine's own error.
    pub(crate) fn client_op<R>(
        &mut self,
        f: impl FnOnce(&mut ClientMachine, &mut DesIo<'_>) -> Result<R, ClientErr>,
    ) -> Result<R, ClientErr> {
        self.with_client(Actor::Client, false, false, f)
            .map_err(|(e, _)| e)
    }

    /// Client-machine recovery drain (the threaded runtime's
    /// `NodeClient::recover`): drain spares back to `site`, then mark it
    /// up. Returns the number of blocks drained.
    pub(crate) fn client_recover(&mut self, site: SiteId) -> Result<u64, ClientErr> {
        let drained = self.client_op(|cm, io| cm.recover(io, site))?;
        if self.sites[site].state == SiteState::Recovering {
            self.sites[site].state = SiteState::Up;
        }
        if let Some(obs) = &mut self.obs {
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
        if let Some(obs) = &mut self.obs {
            obs.client().metrics().record_rebuild(&report);
        }
        Ok(report)
    }

    /// Enable (or disable) the observability layer: per-machine metrics
    /// and flight recorders tapped off the effect stream. Purely passive —
    /// receipts, traces and ledger charges are unchanged whether this is on
    /// or off.
    pub fn record_obs(&mut self, on: bool) {
        self.obs = if on {
            Some(ClusterObs::new(self.sites.len()))
        } else {
            None
        };
    }

    /// Freeze the observability state: machine 0 is the client, `1 + j` is
    /// site `j`. `None` when [`record_obs`](Self::record_obs) is off.
    pub fn obs_snapshot(&mut self) -> Option<ObsSnapshot> {
        let n = self.sites.len();
        let obs = self.obs.as_mut()?;
        for j in 0..n {
            let merges = self.sites[j].machine.coalesced_merges();
            obs.site(j).metrics().set_coalesced_merges(merges);
        }
        Some(obs.snapshot())
    }

    /// Start (or stop) recording normalised effect traces on every site
    /// machine and the client machine.
    pub fn record_machine_traces(&mut self, on: bool) {
        self.site_traces = if on {
            Some(vec![Vec::new(); self.sites.len()])
        } else {
            None
        };
        if on {
            self.client().record_trace();
        }
    }

    /// Collect the recorded traces: index 0 is the client machine, index
    /// `1 + j` is site `j` — the same peer numbering
    /// [`radd_node::NodeCluster::take_traces`] uses.
    ///
    /// [`radd_node::NodeCluster::take_traces`]: ../radd_node/struct.NodeCluster.html#method.take_traces
    pub fn take_machine_traces(&mut self) -> Vec<Vec<ObsEvent>> {
        let mut all = vec![self.client().take_trace()];
        match &mut self.site_traces {
            Some(bufs) => all.extend(bufs.iter_mut().map(std::mem::take)),
            None => all.extend((0..self.sites.len()).map(|_| Vec::new())),
        }
        all
    }

    // ------------------------------------------------------------------
    // Oracles (uncharged; stand in for buffer caches in the cost model and
    // for test assertions)
    // ------------------------------------------------------------------

    /// The logical current content of `site`'s block at `row`: the spare
    /// stand-in if one exists, the local block if trustworthy, else the
    /// reconstruction. Never charged.
    fn logical_content_by_row(&mut self, site: SiteId, row: PhysRow) -> Result<Bytes, RaddError> {
        let spare_site = self.geometry.spare_site(row);
        if spare_site != site {
            if let Some(slot) = self.sites[spare_site].machine.spares().get(&row) {
                if slot.for_site == site {
                    return Ok(self.sites[spare_site].read_block(row)?);
                }
            }
        }
        if self.local_row_ok(site, row) {
            return Ok(self.sites[site].read_block(row)?);
        }
        // Reconstruct silently.
        let sources: Vec<SiteId> = (0..self.sites.len())
            .filter(|&s| s != site && s != spare_site)
            .collect();
        let mut acc = vec![0u8; self.config.block_size];
        for s in sources {
            if !self.local_row_ok(s, row) {
                return Err(RaddError::MultipleFailure {
                    detail: format!("cannot materialise row {row} of site {site}"),
                });
            }
            let c = self.sites[s].read_block(row)?;
            radd_parity::xor_in_place(&mut acc, &c);
        }
        Ok(Bytes::from(acc))
    }

    /// Raw content of a physical block at a site, uncharged — inspection
    /// hook for tests and the fault harness.
    pub fn raw_block(&mut self, site: SiteId, row: PhysRow) -> Bytes {
        self.sites[site].read_block(row).expect("row in range")
    }

    /// Fault-injection hook: overwrite the raw content of `site`'s
    /// physical block `row` **behind the protocol's back** — no UID, spare
    /// or parity bookkeeping. This breaks the stripe invariant on purpose;
    /// the invariant checker is expected to catch it.
    pub fn corrupt_block(&mut self, site: SiteId, row: PhysRow, data: &[u8]) {
        self.sites[site]
            .write_block(row, data)
            .expect("row in range, right size");
    }

    /// Fault-injection hook, the bookkeeping twin of
    /// [`corrupt_block`](Self::corrupt_block): `site`'s protocol machine,
    /// to plant a UID-array slot or a spare slot no message produced. The
    /// invariant checker is expected to catch it.
    pub fn corrupt_machine(&mut self, site: SiteId) -> &mut SiteMachine {
        &mut self.sites[site].machine
    }

    /// Public oracle: the logical content of a data block, bypassing all
    /// cost accounting. For assertions in tests, examples and benches.
    pub fn logical_content(&mut self, site: SiteId, index: DataIndex) -> Result<Bytes, RaddError> {
        let capacity = self.geometry.data_capacity(site);
        if index >= capacity {
            return Err(RaddError::OutOfRange { index, capacity });
        }
        self.logical_content_by_row(site, self.geometry.data_to_physical(site, index))
    }

    /// Verify the stripe invariant on every fully healthy row: the parity
    /// block equals the XOR of the row's data blocks (using spare stand-ins
    /// where they exist). Returns the first violated row.
    pub fn verify_parity(&mut self) -> Result<(), String> {
        for row in 0..self.config.rows {
            let parity_site = self.geometry.parity_site(row);
            // Row not materialisable: skip.
            let Ok(parity) = self.logical_content_by_row(parity_site, row) else {
                continue;
            };
            let mut acc = vec![0u8; self.config.block_size];
            let mut ok = true;
            for s in self.geometry.data_sites(row) {
                match self.logical_content_by_row(s, row) {
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

/// The client machine's transport into the DES cluster: synchronous
/// delivery, the buffer-pool oracle, and recovery-drain locking.
pub(crate) struct DesIo<'a> {
    cluster: &'a mut RaddCluster,
    actor: Actor,
    /// Serve [`radd_protocol::ClientIo::old_value`] from the logical
    /// oracle (the paper's buffer-pool assumption). Off in client mode.
    oracle: bool,
    /// Lock each spare row exclusively for the duration of its drain
    /// (§3.2's "lock each valid spare block").
    recovery_locks: bool,
    held: Vec<(SiteId, PhysRow)>,
    stash: Option<RaddError>,
}

impl radd_protocol::ClientIo for DesIo<'_> {
    fn exchange(&mut self, site: usize, msg: Msg, background: bool) -> Result<Msg, ClientErr> {
        if self.recovery_locks {
            if let Msg::SpareProbe { row, .. } = &msg {
                if !self.held.contains(&(site, *row))
                    && self
                        .cluster
                        .locks
                        .try_lock(site, *row, LockKind::Exclusive, RECOVERY_TXN)
                        .is_err()
                {
                    self.stash = Some(RaddError::BadConfig("recovery lock conflict".into()));
                    return Err(ClientErr::Unavailable { site });
                }
                self.held.push((site, *row));
            }
        }
        let taken_row = match &msg {
            Msg::SpareTake { row, .. } => Some(*row),
            _ => None,
        };
        let Some(reply) = self
            .cluster
            .client_request(self.actor, site, msg, background)
        else {
            self.stash.get_or_insert(RaddError::Unavailable { site });
            return Err(ClientErr::Unavailable { site });
        };
        if let Some(row) = taken_row {
            if let Some(pos) = self.held.iter().position(|&(s, r)| s == site && r == row) {
                self.held.remove(pos);
                self.cluster.locks.unlock(site, row, RECOVERY_TXN);
            }
        }
        Ok(reply)
    }

    fn old_value(&mut self, site: usize, row: u64) -> Option<Vec<u8>> {
        if !self.oracle {
            return None;
        }
        self.cluster
            .logical_content_by_row(site, row)
            .ok()
            .map(|b| b.to_vec())
    }
}
