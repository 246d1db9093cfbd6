//! The client-side protocol machine (§3.2–§3.3 read/write/recovery logic),
//! sans-IO.
//!
//! [`ClientMachine`] owns every §3 *decision* a RADD client makes — when to
//! go degraded, how to probe/install spares, which sources feed an XOR
//! reconstruction and how their UIDs are validated, how a recovering site's
//! reads and writes are served, and how its redirected writes are drained —
//! while delegating every *exchange* to a [`ClientIo`] implementation. The
//! DES cluster runs it on [`crate::loopback::Loopback`]'s synchronous
//! delivery, priced by the cascade's hook; the async interpreter
//! both async runtimes compile (`radd_node::client`) implements it with
//! endpoint sends, timeouts, and one retry ladder.
//!
//! What the machine believes of each site is one of §3.1's three states:
//! up, down (never contacted; reads and writes go degraded) or recovering
//! (back, but its copy of a row may be superseded by the row's spare).
//! The same beliefs about a row's *parity* site shape a write too: while it
//! is down the row's spare stands in for the parity block, which the client
//! builds on first touch and the data site then feeds (§3.2); while it is
//! recovering, that stand-in is drained back before the write.
//!
//! Each rule is written once: `sized` refuses every reply whose block is
//! not a block long or whose parity UID array is not `G + 2` slots,
//! `refused` judges every reply that is not an exchange's success,
//! `stand_in` reads every `SpareProbe` reply, `drain_row` hands one
//! stand-in back to its recovering owner, `restore_lost` rebuilds one block
//! a recovering owner lost and hands it back, and `fold_row` is the §3.3
//! fold and UID check, for one reconstruction or for every row of a
//! rebuild wave.

use crate::obs::ObsEvent;
use crate::wire::{Msg, MsgKind, NackReason, SpareContent, SpareSlotWire};
use bytes::Bytes;
use radd_layout::Geometry;
use radd_parity::{xor_fold, Uid, UidArray, UidGen};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The three states of §3.1: "up — functioning normally, down — not
/// functioning, recovering — running recovery actions".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SiteState {
    /// Functioning normally.
    Up,
    /// Not functioning (temporary failure or disaster).
    Down,
    /// Restored and running recovery actions; also entered directly on a
    /// disk failure ("a disk failure will move a site directly from up to
    /// recovering").
    Recovering,
}

/// How many spare blocks are allocated (§7.2).
///
/// The paper analyses one spare per parity block and notes that "a smaller
/// number of spare blocks can be allocated per site if the system
/// administrator is willing to tolerate lower availability. … Analyzing
/// availability for lesser numbers of parity blocks is left as a future
/// exercise." [`SparePolicy::Fraction`] implements that exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SparePolicy {
    /// One spare block per parity block — the paper's analysed configuration
    /// ("this will allow any block on the down machine to be written while
    /// the site is down").
    OnePerParity,
    /// No spare blocks: 12.5 % space overhead at `G = 8` instead of 25 %,
    /// but every down-site read reconstructs from scratch and down-site
    /// writes cannot be absorbed (they are refused as unavailable).
    None,
    /// Spares on `numerator` of every `denominator` rows. Down-site writes
    /// to spare-less rows are refused; reads of spare-less rows reconstruct
    /// every time.
    Fraction {
        /// Rows with a spare per cycle.
        numerator: u32,
        /// Cycle length.
        denominator: u32,
    },
}

impl SparePolicy {
    /// Does physical row `row` have a usable spare block under this policy?
    pub fn has_spare(&self, row: u64) -> bool {
        match *self {
            SparePolicy::OnePerParity => true,
            SparePolicy::None => false,
            SparePolicy::Fraction {
                numerator,
                denominator,
            } => {
                debug_assert!(numerator <= denominator && denominator > 0);
                (row % denominator as u64) < numerator as u64
            }
        }
    }

    /// Space overhead as a fraction of data capacity for group size `g`:
    /// one parity block per `g` data blocks, plus the allocated share of
    /// spares.
    pub fn space_overhead(&self, g: usize) -> f64 {
        let spare_share = match *self {
            SparePolicy::OnePerParity => 1.0,
            SparePolicy::None => 0.0,
            SparePolicy::Fraction {
                numerator,
                denominator,
            } => numerator as f64 / denominator as f64,
        };
        (1.0 + spare_share) / g as f64
    }
}

/// Why a client operation failed, transport-independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientErr {
    /// Block index beyond the site's data capacity.
    OutOfRange,
    /// Payload length does not match the block size.
    BadSize,
    /// The combination of failures exceeds what one parity group masks.
    MultipleFailure {
        /// Human-readable diagnosis.
        detail: String,
    },
    /// §3.3 validation failed: `site`'s block UID disagrees with the parity
    /// UID array (a parity update is still in flight).
    Inconsistent {
        /// The stale or racing source site.
        site: usize,
    },
    /// The block exists but cannot be served (e.g. a spare-less row on a
    /// down site under a partial [`SparePolicy`]).
    Unavailable {
        /// The refusing site.
        site: usize,
    },
    /// The transport gave up on `site` (threaded runtime only; the DES
    /// transport never times out).
    Timeout {
        /// The unresponsive site.
        site: usize,
    },
}

impl ClientErr {
    fn multiple(detail: impl Into<String>) -> ClientErr {
        ClientErr::MultipleFailure {
            detail: detail.into(),
        }
    }

    /// Is this a refusal the paper's single-failure model makes legal (a
    /// second failure overlaps the first, or the block waits for a repair),
    /// as opposed to a broken guarantee? The one question a plan replayer
    /// asks of a failed operation.
    pub fn is_refusal(&self) -> bool {
        matches!(
            self,
            ClientErr::MultipleFailure { .. } | ClientErr::Unavailable { .. }
        )
    }
}

impl std::fmt::Display for ClientErr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientErr::OutOfRange => write!(f, "address out of range"),
            ClientErr::BadSize => write!(f, "payload size mismatch"),
            ClientErr::MultipleFailure { detail } => {
                write!(f, "multiple overlapping failures: {detail}")
            }
            ClientErr::Inconsistent { site } => write!(
                f,
                "reconstruction stayed inconsistent with site {site} (parity update in flight)"
            ),
            ClientErr::Unavailable { site } => {
                write!(f, "site {site} cannot serve the block until it is repaired")
            }
            ClientErr::Timeout { site } => write!(f, "site {site} did not answer"),
        }
    }
}

impl std::error::Error for ClientErr {}

/// The transport half of a client: one request/reply exchange with a site.
///
/// `background` marks recovery-daemon traffic (drivers charge it to the
/// background ledger rather than to a foreground operation's latency).
pub trait ClientIo {
    /// Send `msg` to `site` and return the (matching-tag) reply.
    fn exchange(&mut self, site: usize, msg: Msg, background: bool) -> Result<Msg, ClientErr>;

    /// Issue a batch of independent request/reply exchanges and return the
    /// replies in request order. The default runs them one at a time —
    /// exactly the serial behaviour a deterministic interpreter wants. A
    /// pipelining transport (the threaded runtime) overrides this to put
    /// every request on the wire before collecting replies, so the target
    /// sites work concurrently.
    fn exchange_batch(
        &mut self,
        reqs: Vec<(usize, Msg)>,
        background: bool,
    ) -> Vec<Result<Msg, ClientErr>> {
        reqs.into_iter()
            .map(|(site, msg)| self.exchange(site, msg, background))
            .collect()
    }

    /// Driver-supplied old value of the failed site's block at `row`, if the
    /// driver has one (the DES cluster's buffer-pool oracle, honouring the
    /// paper's costing where a degraded write needs no spare read). `None`
    /// makes [`ClientMachine::write`] fetch it with a charged spare read.
    fn old_value(&mut self, _site: usize, _row: u64) -> Option<Vec<u8>> {
        None
    }
}

/// The client-side state machine.
#[derive(Debug, Clone)]
pub struct ClientMachine {
    geo: Geometry,
    block_size: usize,
    spare_policy: SparePolicy,
    validate_uids: bool,
    uid_gen: UidGen,
    next_tag: u64,
    /// What this client believes of each site.
    sites: Vec<SiteState>,
    trace: Option<Vec<ObsEvent>>,
}

impl ClientMachine {
    /// A new client for a `G = group_size`, `rows`-row cluster.
    /// `uid_namespace` disambiguates UIDs this client mints for redirected
    /// writes from every site's generator.
    pub fn new(
        group_size: usize,
        rows: u64,
        block_size: usize,
        spare_policy: SparePolicy,
        validate_uids: bool,
        uid_namespace: u16,
    ) -> ClientMachine {
        let geo = Geometry::new(group_size, rows).expect("valid geometry");
        let n = geo.num_sites();
        ClientMachine {
            geo,
            block_size,
            spare_policy,
            validate_uids,
            uid_gen: UidGen::new(uid_namespace),
            next_tag: 0,
            sites: vec![SiteState::Up; n],
            trace: None,
        }
    }

    /// The layout geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Mark `site` as believed-down (`true`) or up (`false`). While a site
    /// is believed down the machine never sends to it — it serves reads by
    /// spare/reconstruction and absorbs writes into the row's spare.
    pub fn set_down(&mut self, site: usize, down: bool) {
        self.sites[site] = if down { SiteState::Down } else { SiteState::Up };
    }

    /// Mark `site` as believed recovering (§3.2): back, but a row's spare
    /// may still stand in for its copy of the row. Its reads and writes
    /// consult the spare first; [`recover`](Self::recover) drains what is
    /// left, after which the caller marks it up.
    pub fn set_recovering(&mut self, site: usize) {
        self.sites[site] = SiteState::Recovering;
    }

    /// Is `site` currently believed down?
    pub fn is_down(&self, site: usize) -> bool {
        self.sites[site] == SiteState::Down
    }

    /// Start recording a normalised request trace (for differential tests).
    pub fn record_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Take the recorded trace, leaving recording enabled.
    pub fn take_trace(&mut self) -> Vec<ObsEvent> {
        self.trace.replace(Vec::new()).unwrap_or_default()
    }

    /// Salt all future request tags with a restart *incarnation*. Sites
    /// cache their last reply per `(client, tag)` for at-most-once
    /// semantics, so a client process that restarts — same endpoint id,
    /// tag counter back at zero — would otherwise be *replayed* a cached
    /// reply meant for its previous life (e.g. a `WriteOk` answering a
    /// fresh `Read`). Long-lived harness clients never restart and keep
    /// the default incarnation 0 (tags stay `1, 2, 3, …`, which the
    /// differential traces rely on); standalone processes pass something
    /// unique per start (wall-clock works). Only the low 14 bits are used,
    /// placed at bits 32–45: below the oracle-sweep bit (46) and the
    /// site-tag salt (48), above any realistic single-run tag count.
    ///
    /// The UIDs this client mints for redirected writes are salted the
    /// same way, at bits 34–47 of the generator's 48-bit counter: §3.2's
    /// equality guard must never see a UID a previous process on this
    /// endpoint already handed out.
    pub fn set_incarnation(&mut self, incarnation: u64) {
        let incarnation = incarnation & 0x3FFF;
        self.next_tag = incarnation << 32;
        self.uid_gen = UidGen::restore(self.uid_gen.site(), incarnation << 34);
    }

    fn tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag
    }

    /// Record `msg` to `site` in the trace, if one is being recorded.
    fn record(&mut self, site: usize, msg: &Msg) {
        if let Some(trace) = &mut self.trace {
            trace.push(ObsEvent::client_send(site, msg, false));
        }
    }

    fn send(
        &mut self,
        io: &mut dyn ClientIo,
        site: usize,
        msg: Msg,
        background: bool,
    ) -> Result<Msg, ClientErr> {
        debug_assert!(
            !self.is_down(site),
            "protocol bug: request sent to believed-down site {site}"
        );
        self.record(site, &msg);
        let shape = self.reply_shape(site, &msg);
        self.sized(site, shape, io.exchange(site, msg, background))
    }

    /// Batched counterpart of [`send`](Self::send): records one trace entry
    /// per request (in request order — identical to issuing them serially)
    /// and hands the whole batch to the transport, which may pipeline it.
    /// No believed-down assertion; callers vet targets (a recovery drain may
    /// restore onto a revived site its caller still lists down).
    fn send_batch(
        &mut self,
        io: &mut dyn ClientIo,
        reqs: Vec<(usize, Msg)>,
        background: bool,
    ) -> Vec<Result<Msg, ClientErr>> {
        let mut shapes = Vec::with_capacity(reqs.len());
        for (site, msg) in &reqs {
            self.record(*site, msg);
            shapes.push((*site, self.reply_shape(*site, msg)));
        }
        let replies = io.exchange_batch(reqs, background);
        shapes
            .into_iter()
            .zip(replies)
            .map(|((site, shape), reply)| self.sized(site, shape, reply))
            .collect()
    }

    /// What `site`'s reply to `request` must carry: a block this long (none
    /// is asked for by a probe without data, a whole block by everything
    /// else), and whether a parity UID array (a `BlockRead` of a row whose
    /// parity site `site` is).
    fn reply_shape(&self, site: usize, request: &Msg) -> (usize, bool) {
        match request {
            Msg::SpareProbe {
                want_data: false, ..
            } => (0, false),
            Msg::BlockRead { row, .. } => (self.block_size, self.geo.parity_site(*row) == site),
            _ => (self.block_size, false),
        }
    }

    /// A reply from `site` as it enters the machine: one whose block is not
    /// as long as its [`reply_shape`](Self::reply_shape) says (`ReadOk`,
    /// `BlockData`, a `SpareState` slot), a parity site's `BlockData`
    /// without a UID array of `G + 2` slots, or a `SpareRows` list that
    /// names a row twice, a row the cluster does not have or a row whose
    /// spare is not `site`, is refused as [`ClientErr::BadSize`], so no
    /// rule downstream sees a block, an array or a row list of the wrong
    /// shape (and a recovery probes no row a list should not have named).
    fn sized(
        &self,
        site: usize,
        (block, uids): (usize, bool),
        reply: Result<Msg, ClientErr>,
    ) -> Result<Msg, ClientErr> {
        let fits = match &reply {
            Ok(Msg::ReadOk { data, .. }) => data.len() == block,
            Ok(Msg::BlockData {
                data, parity_uids, ..
            }) => {
                let n = self.geo.num_sites();
                data.len() == block && (!uids || parity_uids.as_ref().is_some_and(|a| a.len() == n))
            }
            Ok(Msg::SpareState {
                slot: Some(slot), ..
            }) => slot.data.len() == block,
            Ok(Msg::SpareRows { rows, .. }) => {
                let mut seen = BTreeSet::new();
                rows.iter().all(|&row| {
                    row < self.geo.rows() && self.geo.spare_site(row) == site && seen.insert(row)
                })
            }
            _ => true,
        };
        if fits {
            reply
        } else {
            Err(ClientErr::BadSize)
        }
    }

    /// The error for `site`'s `reply` to a `request` that did not succeed:
    /// a `Nack` says why, anything else is a reply the request never asks
    /// for. Every exchange matches its success and hands the rest here.
    fn refused(site: usize, request: MsgKind, reply: &Msg) -> ClientErr {
        let Msg::Nack { reason, .. } = reply else {
            return ClientErr::multiple(format!(
                "unexpected reply {:?} to {request:?}",
                reply.kind()
            ));
        };
        match *reason {
            NackReason::OutOfRange => ClientErr::OutOfRange,
            NackReason::BadSize => ClientErr::BadSize,
            NackReason::Down | NackReason::Unavailable => ClientErr::multiple(format!(
                "site {site} cannot serve the block (second failure in the group)"
            )),
            NackReason::Conflict => ClientErr::multiple(format!(
                "row spare at site {site} already stands in for another site"
            )),
        }
    }

    /// Did a site refuse because it cannot hold the row (a dead disk, or a
    /// row lost with one)? A recovering site then goes without the block.
    fn lost(reply: &Msg) -> bool {
        matches!(
            reply,
            Msg::Nack {
                reason: NackReason::Unavailable,
                ..
            }
        )
    }

    /// What `spare`'s reply to a `SpareProbe` of `row` says about `owner`'s
    /// block there (§3.2): the slot standing in for it, or `None` while the
    /// spare is free. A slot held for another site is two failures in one
    /// parity group.
    fn stand_in(
        spare: usize,
        owner: usize,
        row: u64,
        reply: Msg,
    ) -> Result<Option<SpareSlotWire>, ClientErr> {
        let Msg::SpareState { slot, .. } = reply else {
            return Err(Self::refused(spare, MsgKind::SpareProbe, &reply));
        };
        match slot {
            Some(slot) if slot.for_site != owner => Err(ClientErr::multiple(format!(
                "row {row} spare already used by site {}",
                slot.for_site
            ))),
            slot => Ok(slot),
        }
    }

    /// Probe `row`'s spare for a stand-in for `owner`'s block, with its
    /// payload if `want_data`. `None` when the spare is free, and without a
    /// message when the policy allocates no spare to the row or its site is
    /// believed down.
    fn probe(
        &mut self,
        io: &mut dyn ClientIo,
        owner: usize,
        row: u64,
        want_data: bool,
        background: bool,
    ) -> Result<Option<SpareSlotWire>, ClientErr> {
        let spare = self.geo.spare_site(row);
        if !self.spare_policy.has_spare(row) || self.is_down(spare) {
            return Ok(None);
        }
        let tag = self.tag();
        let probe = Msg::SpareProbe {
            row,
            want_data,
            tag,
        };
        let reply = self.send(io, spare, probe, background)?;
        Self::stand_in(spare, owner, row, reply)
    }

    /// Hand `row`'s stand-in `slot` back to its recovering `owner` (§3.2):
    /// restore the block there, and release the spare only once the owner
    /// has acknowledged it, so a lost reply leaves the block reachable.
    /// `false` when the owner refused the block (its disk for the row is
    /// dead): the spare keeps standing in. Background traffic.
    fn drain_row(
        &mut self,
        io: &mut dyn ClientIo,
        owner: usize,
        row: u64,
        slot: SpareSlotWire,
    ) -> Result<bool, ClientErr> {
        let tag = self.tag();
        let restore = Msg::RestoreBlock {
            row,
            data: slot.data,
            content: slot.content,
            tag,
        };
        match self.send(io, owner, restore, true)? {
            Msg::Ack { .. } => {}
            reply if Self::lost(&reply) => return Ok(false),
            other => return Err(Self::refused(owner, MsgKind::RestoreBlock, &other)),
        }
        let spare = self.geo.spare_site(row);
        let tag = self.tag();
        match self.send(io, spare, Msg::SpareTake { row, tag }, true)? {
            Msg::Ack { .. } => Ok(true),
            other => Err(Self::refused(spare, MsgKind::SpareTake, &other)),
        }
    }

    /// Before a write lands at `owner`, which is recovering, drain `row`'s
    /// stand-in for it back there, if the spare holds one. `false` when the
    /// owner refused the block.
    fn drain_first(
        &mut self,
        io: &mut dyn ClientIo,
        owner: usize,
        row: u64,
    ) -> Result<bool, ClientErr> {
        match self.probe(io, owner, row, true, true)? {
            Some(slot) => self.drain_row(io, owner, row, slot),
            None => Ok(true),
        }
    }

    /// The site of `row`'s spare, which is to stand in for `owner`: a row
    /// the policy gave no spare is `Unavailable`, a spare site believed
    /// down is a second failure.
    fn spare_for(&self, owner: usize, row: u64) -> Result<usize, ClientErr> {
        let spare = self.geo.spare_site(row);
        if !self.spare_policy.has_spare(row) {
            return Err(ClientErr::Unavailable { site: owner });
        }
        if self.is_down(spare) {
            return Err(ClientErr::multiple(format!(
                "row {row} spare site {spare} is down along with site {owner}"
            )));
        }
        Ok(spare)
    }

    /// `SpareInstall` of `data` into `row`'s spare, standing in for
    /// `for_site`: the reply.
    fn install(
        &mut self,
        io: &mut dyn ClientIo,
        row: u64,
        for_site: usize,
        data: Bytes,
        content: SpareContent,
        background: bool,
    ) -> Result<Msg, ClientErr> {
        let tag = self.tag();
        let install = Msg::SpareInstall {
            row,
            for_site,
            data,
            content,
            tag,
        };
        self.send(io, self.geo.spare_site(row), install, background)
    }

    // -- §3.2 reads ------------------------------------------------------

    /// Read data block `index` of `site`, going degraded if the site is
    /// believed down. The returned [`Bytes`] is the refcounted buffer the
    /// reply carried — no copy between storage and caller.
    ///
    /// A recovering site's block is superseded by a valid spare (§3.2),
    /// which is then drained back to it in the background, an outcome that
    /// is not the read's. Without one the site's own copy stands; if the
    /// site refused that too (a dead disk or a lost row), "the block is
    /// reconstructed as if the site was down" and written back to it in
    /// the background.
    pub fn read(
        &mut self,
        io: &mut dyn ClientIo,
        site: usize,
        index: u64,
    ) -> Result<Bytes, ClientErr> {
        if index >= self.geo.data_capacity(site) {
            return Err(ClientErr::OutOfRange);
        }
        if self.is_down(site) {
            return self.degraded_read(io, site, index);
        }
        let tag = self.tag();
        let local = self.send(io, site, Msg::Read { index, tag }, false)?;
        if self.sites[site] == SiteState::Recovering {
            let row = self.geo.data_to_physical(site, index);
            if let Some(slot) = self.probe(io, site, row, true, false)? {
                let data = slot.data.clone();
                let _ = self.drain_row(io, site, row, slot);
                return Ok(data);
            }
            if Self::lost(&local) {
                return Ok(self.restore_lost(io, site, row, false)?.0);
            }
        }
        match local {
            Msg::ReadOk { data, .. } => Ok(data),
            other => Err(Self::refused(site, MsgKind::Read, &other)),
        }
    }

    /// §3.2 down-site read: serve from the row's spare if a redirected write
    /// landed there, otherwise reconstruct from the other `G` blocks and
    /// cache the result in the spare for subsequent reads.
    fn degraded_read(
        &mut self,
        io: &mut dyn ClientIo,
        owner: usize,
        index: u64,
    ) -> Result<Bytes, ClientErr> {
        let row = self.geo.data_to_physical(owner, index);
        if let Some(slot) = self.probe(io, owner, row, true, false)? {
            return Ok(slot.data);
        }
        let (data, content) = self.reconstruct(io, owner, row, false)?;
        let data = Bytes::from(data);
        if self.spare_for(owner, row).is_ok() {
            // Cache the reconstruction in the spare (§3.2: subsequent reads
            // then cost one block access, not G). Installed in the
            // background, and its outcome is not the read's: a conflict
            // means a racing failure claimed the slot first, no answer means
            // the spare stays a miss, and the next read probes it again.
            let _ = self.install(io, row, owner, data.clone(), content, true);
        }
        Ok(data)
    }

    // -- §3.2 writes -----------------------------------------------------

    /// Write data block `index` of `site` (W1–W4 at the site, or the W1'
    /// spare redirect if the site is believed down).
    ///
    /// A recovering site's writes "proceed in the same way as for up sites"
    /// (§3.2), once the row's stand-in, if any, is drained back to it: the
    /// stand-in is newer than the site's copy, which the site takes its
    /// change mask against, and the drain is what invalidates the spare
    /// "as a side effect". A recovering site that cannot take the block
    /// (the drain, or the write itself, refused: a dead disk or a lost row)
    /// is written W1'.
    ///
    /// The row's parity site is held to the same two rules, for the site's
    /// W2 rather than the client's: while it is believed down the row's
    /// spare must hold its stand-in before the `Write` (built here on first
    /// touch), and while it is believed recovering a stand-in still in the
    /// spare is drained back to it first, so its W2 lands on the newest
    /// parity.
    pub fn write(
        &mut self,
        io: &mut dyn ClientIo,
        site: usize,
        index: u64,
        data: &[u8],
    ) -> Result<(), ClientErr> {
        if index >= self.geo.data_capacity(site) {
            return Err(ClientErr::OutOfRange);
        }
        if data.len() != self.block_size {
            return Err(ClientErr::BadSize);
        }
        let row = self.geo.data_to_physical(site, index);
        let recovering = self.sites[site] == SiteState::Recovering;
        if self.is_down(site) || recovering && !self.drain_first(io, site, row)? {
            return self.degraded_write(io, site, index, data);
        }
        let parity = self.geo.parity_site(row);
        if self.is_down(parity) {
            self.stand_in_parity(io, parity, row)?;
        } else if self.sites[parity] == SiteState::Recovering
            && !self.drain_first(io, parity, row)?
        {
            return Err(ClientErr::Unavailable { site: parity });
        }
        let tag = self.tag();
        let msg = Msg::Write {
            index,
            data: Bytes::copy_from_slice(data),
            tag,
        };
        match self.send(io, site, msg, false)? {
            Msg::WriteOk { .. } => Ok(()),
            reply if recovering && Self::lost(&reply) => self.degraded_write(io, site, index, data),
            other => Err(Self::refused(site, MsgKind::Write, &other)),
        }
    }

    /// §3.2 with `row`'s parity site down: make sure the row's spare stands
    /// in for the parity block. On first touch it is built here, in the
    /// background: the XOR of the row's `G` data blocks under the UIDs they
    /// carry, installed as a parity-kind slot. A `Conflict` means a racing
    /// first touch installed it already, which is just as good.
    fn stand_in_parity(
        &mut self,
        io: &mut dyn ClientIo,
        parity: usize,
        row: u64,
    ) -> Result<(), ClientErr> {
        let spare = self.spare_for(parity, row)?;
        if self.probe(io, parity, row, false, true)?.is_some() {
            return Ok(());
        }
        let (data, content) = self.reconstruct(io, parity, row, true)?;
        match self.install(io, row, parity, Bytes::from(data), content, true)? {
            Msg::Ack { .. }
            | Msg::Nack {
                reason: NackReason::Conflict,
                ..
            } => Ok(()),
            other => Err(Self::refused(spare, MsgKind::SpareInstall, &other)),
        }
    }

    /// §3.2 down-site write (W1'): redirect the block into the row's spare
    /// with a fresh UID and send the change mask to the parity site as
    /// usual, so the down site's block stays reconstructable.
    fn degraded_write(
        &mut self,
        io: &mut dyn ClientIo,
        owner: usize,
        index: u64,
        data: &[u8],
    ) -> Result<(), ClientErr> {
        let row = self.geo.data_to_physical(owner, index);
        let spare = self.spare_for(owner, row)?;
        let parity = self.geo.parity_site(row);
        if self.is_down(parity) {
            return Err(ClientErr::multiple(format!(
                "row {row} parity site {parity} is down along with site {owner}"
            )));
        }
        // W2': the old value, needed for the change mask. The driver may
        // have it in its buffer pool (the paper's costing); otherwise fetch
        // whatever the spare already absorbed, or reconstruct.
        let oracle_old = io.old_value(owner, row);
        let slot = self.probe(io, owner, row, oracle_old.is_none(), false)?;
        let old = match (slot, oracle_old) {
            (_, Some(v)) => v,
            (Some(slot), None) => slot.data.to_vec(),
            (None, None) => self.reconstruct(io, owner, row, false)?.0,
        };
        // W1': install the new content in the spare under a client-minted
        // UID…
        let uid = self.uid_gen.next_uid();
        let content = SpareContent::Data { uid };
        match self.install(io, row, owner, Bytes::copy_from_slice(data), content, false)? {
            Msg::Ack { .. } => {}
            other => return Err(Self::refused(spare, MsgKind::SpareInstall, &other)),
        }
        // …and W3': ship the mask so the parity site records the new UID.
        let mask = radd_parity::ChangeMask::diff(&old, data);
        let tag = self.tag();
        let update = Msg::ParityUpdate {
            row,
            mask_wire: mask.encode(),
            uid,
            from_site: owner,
            tag,
        };
        match self.send(io, parity, update, false)? {
            Msg::Ack { .. } => Ok(()),
            other => Err(Self::refused(parity, MsgKind::ParityUpdate, &other)),
        }
    }

    // -- §3.3 reconstruction ---------------------------------------------

    /// Reconstruct `owner`'s block at `row` by XOR of the row's other `G`
    /// blocks, validating every source UID against the parity UID array
    /// (§3.3) when enabled. Returns the block and the UID metadata it is
    /// valid *as of*, in spare-slot form: for a data block, the UID the
    /// parity array records for `owner`; for the row's parity block (the
    /// owner is its parity site), the array itself, read off the sources.
    ///
    /// All `G` source reads go out as one batch — a pipelining transport
    /// fetches them concurrently — and the XOR folds all sources in one
    /// multi-way [`xor_fold`] pass instead of `G` two-way passes.
    pub fn reconstruct(
        &mut self,
        io: &mut dyn ClientIo,
        owner: usize,
        row: u64,
        background: bool,
    ) -> Result<(Vec<u8>, SpareContent), ClientErr> {
        if let Some(s) = self.sources(owner, row).find(|&s| self.is_down(s)) {
            return Err(ClientErr::multiple(format!(
                "cannot reconstruct row {row}: source site {s} is down too"
            )));
        }
        let reqs: Vec<(usize, Msg)> = self
            .sources(owner, row)
            .map(|s| {
                let tag = self.tag();
                (s, Msg::BlockRead { row, tag })
            })
            .collect();
        let replies = self.send_batch(io, reqs, background);
        self.fold_row(owner, row, &mut replies.into_iter())
    }

    /// §3.2's "reconstructs invalid local blocks": rebuild the block
    /// `owner` lost at `row` from the row's other `G` (in the background if
    /// `background`) and restore it to `owner` with the UID metadata it is
    /// valid as of, in the background. Returns the block, and whether
    /// `owner` took it: the restore's outcome is not a recovering read's,
    /// which has its block either way.
    pub fn restore_lost(
        &mut self,
        io: &mut dyn ClientIo,
        owner: usize,
        row: u64,
        background: bool,
    ) -> Result<(Bytes, bool), ClientErr> {
        let (data, content) = self.reconstruct(io, owner, row, background)?;
        let data = Bytes::from(data);
        let tag = self.tag();
        let restore = Msg::RestoreBlock {
            row,
            data: data.clone(),
            content,
            tag,
        };
        let taken = matches!(self.send(io, owner, restore, true), Ok(Msg::Ack { .. }));
        Ok((data, taken))
    }

    /// The sites a reconstruction of `owner`'s block at `row` reads,
    /// ascending: every site but the owner and the row's spare.
    fn sources(&self, owner: usize, row: u64) -> impl Iterator<Item = usize> {
        let spare = self.geo.spare_site(row);
        (0..self.geo.num_sites()).filter(move |&s| s != owner && s != spare)
    }

    /// §3.3's fold of one row: take the `BlockRead` replies of the row's
    /// [`sources`](Self::sources), in order, from `replies`, XOR them in one
    /// multi-way [`xor_fold`] pass, and — when validation is on — check
    /// every data source's UID against the parity site's UID array. Returns
    /// the block and the UID the array records for `owner`. When `owner` is
    /// the row's parity site the array is what is being rebuilt, so there is
    /// nothing to check against: the sources' UIDs are the array returned.
    /// The first failed reply, in source order, is the error.
    fn fold_row(
        &self,
        owner: usize,
        row: u64,
        replies: &mut impl Iterator<Item = Result<Msg, ClientErr>>,
    ) -> Result<(Vec<u8>, SpareContent), ClientErr> {
        let n = self.geo.num_sites();
        let parity = self.geo.parity_site(row);
        let mut blocks: Vec<Bytes> = Vec::with_capacity(n - 2);
        let mut sources: Vec<(usize, Uid)> = Vec::with_capacity(n - 2);
        let mut arr = UidArray::new(n);
        for s in self.sources(owner, row) {
            match replies.next().expect("one reply per source")? {
                Msg::BlockData {
                    data,
                    uid,
                    parity_uids,
                    ..
                } => {
                    if s == parity {
                        // `sized` let no other length in.
                        arr = UidArray::from_slots(parity_uids.unwrap_or_default());
                    } else {
                        sources.push((s, uid));
                    }
                    blocks.push(data);
                }
                other => return Err(Self::refused(s, MsgKind::BlockRead, &other)),
            }
        }
        let mut acc = vec![0u8; self.block_size];
        let views: Vec<&[u8]> = blocks.iter().map(|b| &b[..]).collect();
        xor_fold(&mut acc, &views);
        if owner == parity {
            for &(s, uid) in &sources {
                arr.set(s, uid);
            }
            return Ok((acc, SpareContent::Parity { uids: arr }));
        }
        if self.validate_uids {
            // §3.3: "the UIDs of the blocks used in the reconstruction must
            // agree with the UIDs in the [parity] array" — otherwise a
            // parity update is still in flight and the XOR would be stale.
            for &(s, uid) in &sources {
                if !arr.matches(s, uid) {
                    return Err(ClientErr::Inconsistent { site: s });
                }
            }
        }
        let uid = arr.get(owner);
        Ok((acc, SpareContent::Data { uid }))
    }

    // -- §3.2 recovery drain ---------------------------------------------

    /// Drain every spare that absorbed writes for recovering `site`: copy
    /// the absorbed blocks (and their UID metadata) back to `site`, then
    /// release the slots. Returns how many blocks were drained. All traffic
    /// is background.
    ///
    /// Each per-site drain runs as three *waves* — probe every listed row,
    /// restore every absorbed block, then release every drained slot —
    /// rather than one row at a time. Rows are independent, so a pipelining
    /// transport overlaps the whole wave; the serial default preserves the
    /// deterministic site-ascending, list-order schedule. Errors surface in
    /// that same deterministic order (first failing reply of the first
    /// failing wave).
    pub fn recover(&mut self, io: &mut dyn ClientIo, site: usize) -> Result<u64, ClientErr> {
        let n = self.geo.num_sites();
        let mut drained = 0u64;
        for s in (0..n).filter(|&s| s != site) {
            if self.is_down(s) {
                return Err(ClientErr::multiple(format!(
                    "cannot drain spares: site {s} is down during recovery of {site}"
                )));
            }
            let tag = self.tag();
            let list = Msg::SpareDrainList {
                for_site: site,
                tag,
            };
            let rows = match self.send(io, s, list, true)? {
                Msg::SpareRows { rows, .. } => rows,
                other => return Err(Self::refused(s, MsgKind::SpareDrainList, &other)),
            };
            if rows.is_empty() {
                continue;
            }
            // Wave 1: probe every listed row for its absorbed payload.
            let probes: Vec<(usize, Msg)> = rows
                .iter()
                .map(|&row| {
                    let tag = self.tag();
                    (
                        s,
                        Msg::SpareProbe {
                            row,
                            want_data: true,
                            tag,
                        },
                    )
                })
                .collect();
            let replies = self.send_batch(io, probes, true);
            let mut pending: Vec<(u64, SpareSlotWire)> = Vec::with_capacity(rows.len());
            for (&row, reply) in rows.iter().zip(replies) {
                match reply? {
                    Msg::SpareState {
                        slot: Some(slot), ..
                    } if slot.for_site == site => pending.push((row, slot)),
                    // Raced with another drain or the slot is gone: nothing
                    // to restore.
                    Msg::SpareState { .. } => {}
                    other => return Err(Self::refused(s, MsgKind::SpareProbe, &other)),
                }
            }
            if pending.is_empty() {
                continue;
            }
            // Wave 2: restore every absorbed block onto the recovering site.
            // The slot payloads are refcounted, so building the restore
            // messages moves the buffers rather than copying blocks.
            let mut restore_rows: Vec<u64> = Vec::with_capacity(pending.len());
            let restores: Vec<(usize, Msg)> = pending
                .into_iter()
                .map(|(row, slot)| {
                    restore_rows.push(row);
                    let tag = self.tag();
                    (
                        site,
                        Msg::RestoreBlock {
                            row,
                            data: slot.data,
                            content: slot.content,
                            tag,
                        },
                    )
                })
                .collect();
            for reply in self.send_batch(io, restores, true) {
                match reply? {
                    Msg::Ack { .. } => {}
                    other => return Err(Self::refused(site, MsgKind::RestoreBlock, &other)),
                }
            }
            // Wave 3: release the drained slots.
            let takes: Vec<(usize, Msg)> = restore_rows
                .iter()
                .map(|&row| {
                    let tag = self.tag();
                    (s, Msg::SpareTake { row, tag })
                })
                .collect();
            for reply in self.send_batch(io, takes, true) {
                match reply? {
                    Msg::Ack { .. } => {}
                    other => return Err(Self::refused(s, MsgKind::SpareTake, &other)),
                }
                drained += 1;
            }
        }
        Ok(drained)
    }
}

/// Outcome of one member-slot rebuild ([`ClientMachine::rebuild_member`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebuildReport {
    /// Physical rows examined.
    pub rows_scanned: u64,
    /// Blocks reconstructed and installed into their row's spare.
    pub blocks_rebuilt: u64,
    /// Rows whose spare already stood in for the failed member (a
    /// redirected write or a cached reconstruction) — nothing to do.
    pub blocks_absorbed: u64,
    /// Rows skipped because the [`SparePolicy`] allocates no spare there.
    pub rows_spareless: u64,
    /// Bytes folded through [`xor_fold`] (source blocks × block size).
    pub bytes_xored: u64,
    /// `BlockRead`s issued per member slot — the read fan-out a rebuild
    /// puts on each surviving peer.
    pub peer_reads: Vec<u64>,
}

impl ClientMachine {
    // -- parallel rebuild (declustered recovery) --------------------------

    /// Rebuild believed-down member `owner`: reconstruct every data block
    /// it holds and install the results into the rows' spares, so
    /// subsequent degraded reads cost one access instead of `G` and a
    /// later recovery drain restores the site from its spares alone.
    ///
    /// Rows are processed in waves of `wave_rows`; within one wave each
    /// phase — spare probes, the `G` source reads of *every* row, spare
    /// installs — goes out as a single [`exchange_batch`], so a pipelining
    /// transport keeps all survivor sites busy at once. Reconstruction
    /// XORs run through the multi-way [`xor_fold`] kernel and every source
    /// UID is validated against the parity UID array (§3.3); a racing
    /// parity update surfaces as [`ClientErr::Inconsistent`], and a retry
    /// skips the rows already installed (the probe wave sees them
    /// absorbed), making the pass idempotent.
    ///
    /// [`exchange_batch`]: ClientIo::exchange_batch
    pub fn rebuild_member(
        &mut self,
        io: &mut dyn ClientIo,
        owner: usize,
        wave_rows: usize,
    ) -> Result<RebuildReport, ClientErr> {
        let n = self.geo.num_sites();
        if !self.is_down(owner) {
            return Err(ClientErr::Unavailable { site: owner });
        }
        for s in (0..n).filter(|&s| s != owner) {
            if self.is_down(s) {
                return Err(ClientErr::multiple(format!(
                    "cannot rebuild site {owner}: site {s} is down too"
                )));
            }
        }
        let wave_rows = wave_rows.max(1);
        let mut report = RebuildReport {
            peer_reads: vec![0; n],
            ..RebuildReport::default()
        };
        // The failed member's data rows (parity and spare rows hold no data
        // block to reconstruct; the site's own copies come back with its
        // disks on revive).
        let mut todo: Vec<u64> = Vec::new();
        for row in 0..self.geo.rows() {
            report.rows_scanned += 1;
            if self.geo.parity_site(row) == owner || self.geo.spare_site(row) == owner {
                continue;
            }
            if !self.spare_policy.has_spare(row) {
                report.rows_spareless += 1;
                continue;
            }
            todo.push(row);
        }
        for wave in todo.chunks(wave_rows) {
            // Wave 1: probe each row's spare (metadata only).
            let mut probes = Vec::with_capacity(wave.len());
            for &row in wave {
                let tag = self.tag();
                probes.push((
                    self.geo.spare_site(row),
                    Msg::SpareProbe {
                        row,
                        want_data: false,
                        tag,
                    },
                ));
            }
            let replies = self.send_batch(io, probes, true);
            let mut rebuild_rows: Vec<u64> = Vec::with_capacity(wave.len());
            for (&row, reply) in wave.iter().zip(replies) {
                let spare = self.geo.spare_site(row);
                match Self::stand_in(spare, owner, row, reply?)? {
                    Some(_) => report.blocks_absorbed += 1,
                    None => rebuild_rows.push(row),
                }
            }
            if rebuild_rows.is_empty() {
                continue;
            }
            // Wave 2: the `G` source reads of every row in the wave, one
            // pipelined batch across all survivors.
            let mut reqs = Vec::with_capacity(rebuild_rows.len() * (n - 2));
            for &row in &rebuild_rows {
                for s in self.sources(owner, row) {
                    let tag = self.tag();
                    reqs.push((s, Msg::BlockRead { row, tag }));
                    report.peer_reads[s] += 1;
                }
            }
            let mut replies = self.send_batch(io, reqs, true).into_iter();
            // Fold and validate each row; mint its install's tag.
            let mut installs = Vec::with_capacity(rebuild_rows.len());
            for &row in &rebuild_rows {
                let (acc, content) = self.fold_row(owner, row, &mut replies)?;
                report.bytes_xored += ((n - 2) * self.block_size) as u64;
                let tag = self.tag();
                installs.push((
                    self.geo.spare_site(row),
                    Msg::SpareInstall {
                        row,
                        for_site: owner,
                        data: Bytes::from(acc),
                        content,
                        tag,
                    },
                ));
            }
            // Wave 3: install the reconstructions into the spares.
            let replies = self.send_batch(io, installs, true);
            for (&row, reply) in rebuild_rows.iter().zip(replies) {
                let spare = self.geo.spare_site(row);
                match reply? {
                    Msg::Ack { .. } => report.blocks_rebuilt += 1,
                    other => return Err(Self::refused(spare, MsgKind::SpareInstall, &other)),
                }
            }
        }
        Ok(report)
    }
}

impl crate::check::Checkable for ClientMachine {
    /// Only the per-site beliefs are observable, varying state: the
    /// geometry/policy fields are static configuration, `uid_gen` and
    /// `next_tag` are generator positions erased by renaming, and `trace`
    /// is diagnostic.
    fn canon(&self, c: &mut crate::check::Canonicalizer) {
        for state in &self.sites {
            c.raw(&(*state as u8));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(incarnation: u64) -> ClientMachine {
        let mut c = ClientMachine::new(1, 6, 16, SparePolicy::OnePerParity, true, 7);
        c.set_incarnation(incarnation);
        c
    }

    /// A restarted client process never mints a UID its previous process
    /// on the same endpoint (same namespace) minted: the incarnation salts
    /// the generator's counter as it salts the tags. Incarnation 0 keeps
    /// the counter at zero, so a harness client's UIDs are unchanged.
    #[test]
    fn a_restarted_client_mints_uids_its_previous_process_did_not() {
        let minted = |incarnation| {
            let mut c = client(incarnation);
            (0..1000).map(|_| c.uid_gen.next_uid()).collect::<Vec<_>>()
        };
        let (first, second) = (minted(1), minted(2));
        assert!(first.iter().all(|uid| !second.contains(uid)));
        assert_eq!(minted(0)[0], Uid::from_raw(7 << 48 | 1));
        assert_eq!(minted(1)[0], Uid::from_raw(7 << 48 | 1 << 34 | 1));
    }
}
