//! The per-site protocol state machine (§3.2–§3.3 server side), sans-IO.
//!
//! [`SiteMachine::handle`] consumes one delivered message and pushes the
//! resulting [`Effect`]s; [`SiteMachine::on_timer`] consumes a retransmit
//! timer firing. The machine owns every piece of §3 server state — block
//! UIDs, parity UID arrays, spare slots, the W1–W4 deferred-ack pipeline,
//! per-row stop-and-wait parity retransmission, and an at-most-once reply
//! cache — but never touches a socket, a thread, or a clock. The DES
//! cluster and the async runtimes are all thin interpreters around it.
//! The durable part of that state is a [`DurableSiteState`], held and
//! changed in place, and a spare slot's UID metadata is the wire's
//! [`SpareContent`], so neither has a second shape to convert to.
//!
//! Every field a message brings — a row, a data or site index, a block, a
//! UID array, a change mask — is checked against the geometry before it is
//! used, and a message that does not fit is refused (`OutOfRange`,
//! `BadSize`): no peer can make a site panic.
//!
//! The machine keeps no state of §3.1's up/down/recovering (the DES's
//! `RaddCluster` does) and no rule of its own for the recovering state: a
//! recovering site serves what it holds, refuses a read or write of a row
//! it lost (no old value to mask against), and takes drained blocks back
//! through `RestoreBlock`. Which copy supersedes which is the client's
//! decision (`crate::client`).
//!
//! One rule is for a *down* parity site (§3.2), fed by a volatile belief
//! per peer ([`SiteMachine::set_peer_down`]): a data site sends the row's
//! parity update to the row's spare instead, which applies it to the
//! parity stand-in the client built there, or refuses it, as a parity site
//! that cannot apply an update (a lost row, a dead disk) does.
//!
//! ### Writes given as change masks
//!
//! A client that holds the block its own last write left at a row may
//! send its next write as the change mask against it ([`Msg::WriteMask`]).
//! The site keeps, per data row, the endpoint and tag of the last W1 it
//! applied (volatile: a restart starts without, and a restore clears the
//! row's), and takes a mask only against that write; any other base is
//! refused [`NackReason::StaleBase`] and the client sends the block whole.
//! The new block is the mask applied to the site's copy, and the same mask
//! bytes go on to the parity site: W2–W4 are a `Write`'s.
//!
//! ### Idempotence and retransmission
//!
//! Every request carries a `(src, tag)` identity. The machine remembers the
//! reply it gave to each recent request and *replays* it (marked
//! `replay: true`) when a retransmission arrives, so no request is executed
//! twice no matter how often the transport duplicates it. Parity updates
//! carry a second, protocol-level guard: the UID recorded in the row's
//! array slot (a retransmission whose ack was lost arrives with a UID the
//! slot already records — re-applying its XOR mask would corrupt parity).
//! Outbound parity updates are stop-and-wait per row: at most one UID per
//! `(row, site)` slot is ever in flight, so a retransmitted older mask can
//! never land after a newer one (the ABA the PR-1 soak plans exposed).
//!
//! ### Parity-update coalescing
//!
//! While a row's update is in flight, further writes to the row queue
//! behind it. Under [`CoalescePolicy::Merge`] the queued masks are
//! XOR-merged ([`ChangeMask::merge`]) into a *single* waiting update
//! carrying the newest UID — §7.4's bandwidth argument applied to bursts:
//! one wire message and one parity read-modify-write absorb the whole
//! burst, and every absorbed write's client reply resolves on that one
//! ack. The policy defaults to [`CoalescePolicy::Off`] so the DES
//! interpreter's Figure 3/4 cost receipts stay bit-for-bit unchanged; the
//! threaded runtime switches it on.

use crate::durable::{
    DurableDelta, DurableSiteState, Layout, SpareSlot, Touch, Versioned, BLOCK_UIDS_AT,
    COUNTERS_AT, JOURNAL_CAP,
};
use crate::effect::{Blocks, Dest, Effect, IoPurpose};
use crate::fasthash::{FxHashMap, FxHashSet};
use crate::wire::{Msg, NackReason, SpareContent, SpareSlotWire};
use bytes::Bytes;
use radd_layout::Geometry;
use radd_parity::{ChangeMask, Uid, UidArray, UidGen};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Whether queued parity updates for one row may be XOR-merged while an
/// earlier update is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CoalescePolicy {
    /// Every write ships its own parity update, strictly in order. The DES
    /// interpreter's default: cost receipts match the paper's per-write
    /// accounting exactly.
    #[default]
    Off,
    /// Masks queued behind an in-flight update merge into one waiting
    /// update (newest UID wins; every absorbed write is acknowledged by the
    /// merged update's ack). The threaded runtime's default.
    Merge,
}

/// A write whose client reply is deferred until its parity ack (W1 done,
/// W4 pending).
#[derive(Debug, Clone)]
struct PendingWrite {
    client: usize,
    client_tag: u64,
    row: u64,
}

/// A parity update waiting its turn in a row's stop-and-wait queue. The
/// wire message is built at launch time from the stored mask, so a merged
/// entry ships exactly one encoding.
#[derive(Debug, Clone)]
struct QueuedUpdate {
    tag: u64,
    uid: Uid,
    mask: ChangeMask,
    /// Parity tags of later writes folded into this entry
    /// ([`CoalescePolicy::Merge`]): their pending client replies resolve
    /// when this entry's ack lands.
    absorbed: Vec<u64>,
}

/// What a write brings of its new block: the block, or a change mask
/// against the block the sender's write `base_tag` left at the row.
#[derive(Clone, Copy)]
enum Body<'a> {
    Block(&'a Bytes),
    Mask { base_tag: u64, mask_wire: &'a Bytes },
}

/// An outbound request awaiting its ack, for retransmission.
#[derive(Debug, Clone)]
struct Inflight {
    to: usize,
    msg: Msg,
    step: u32,
}

/// How many distinct `(src, tag)` replies the at-most-once cache retains.
const REPLY_CACHE_CAP: usize = 1024;

/// The per-site server machine.
#[derive(Debug, Clone)]
pub struct SiteMachine {
    geo: Geometry,
    /// The durable half (see [`crate::durable`]), which also names the
    /// site and its block size. Every `&mut` borrow goes through
    /// [`Versioned::w`], which is what makes
    /// [`SiteMachine::durable_version`] and
    /// [`SiteMachine::drain_durable`] sound.
    d: Versioned<DurableSiteState>,
    /// Where the last whole encoding [`SiteMachine::drain_durable`]
    /// returned put the parity rows. Like the journal it serves, neither
    /// durable nor canonical state.
    layout: Layout,
    /// Writes whose client reply awaits a parity ack, keyed by the parity
    /// message's tag. Lookup-only (never iterated), so a fast hash map.
    pending: FxHashMap<u64, PendingWrite>,
    /// `(client, client_tag)` of writes currently in `pending` — a
    /// duplicate of an in-progress write is swallowed (its reply will go
    /// out when the parity ack lands).
    in_progress: FxHashSet<(usize, u64)>,
    /// Which peers this site believes down: a row whose parity site is
    /// among them has its parity updates sent to the row's spare.
    peer_down: Vec<bool>,
    /// Stop-and-wait per row: the front entry is in flight, the rest wait
    /// for its ack.
    parity_queue: FxHashMap<u64, VecDeque<QueuedUpdate>>,
    coalesce: CoalescePolicy,
    /// Writes absorbed into an already-queued parity update under
    /// [`CoalescePolicy::Merge`]; surfaced through the observability layer.
    coalesced_merges: u64,
    /// Per row, `(endpoint, tag)` of the last W1 this site applied there:
    /// the only base a [`Msg::WriteMask`] is taken against. Volatile.
    bases: Vec<Option<(usize, u64)>>,
    /// `WriteMask`s applied and refused; surfaced like `coalesced_merges`.
    masks_applied: u64,
    masks_refused: u64,
    /// In-flight requests by tag, for timer-driven retransmission.
    inflight: FxHashMap<u64, Inflight>,
    /// At-most-once reply cache; eviction order lives in `reply_order`.
    replies: FxHashMap<(usize, u64), Msg>,
    reply_order: VecDeque<(usize, u64)>,
}

impl SiteMachine {
    /// A fresh, healthy site machine.
    pub fn new(site: usize, group_size: usize, rows: u64, block_size: usize) -> SiteMachine {
        SiteMachine::restore_durable(DurableSiteState {
            site,
            group_size,
            rows,
            block_size,
            block_uids: vec![Uid::INVALID; rows as usize],
            parity_uids: BTreeMap::new(),
            spares: BTreeMap::new(),
            invalid_rows: BTreeSet::new(),
            uid_gen: UidGen::new(site as u16),
            next_tag: 0,
        })
    }

    /// A machine around a durable half, as a restarting process builds one
    /// from the snapshot it finds after a crash. Volatile state (queues,
    /// in-flight requests, the reply cache, peer beliefs) starts empty —
    /// peers retransmit what matters and the §3.2 UID guard absorbs the
    /// duplicates — and a snapshot taken at quiesce is complete, so no §3.3
    /// recovery pass is needed.
    pub fn restore_durable(d: DurableSiteState) -> SiteMachine {
        let geo = Geometry::new(d.group_size, d.rows).expect("valid geometry");
        let rows = d.rows as usize;
        SiteMachine {
            geo,
            d: Versioned::new(d),
            layout: Layout::default(),
            pending: FxHashMap::default(),
            in_progress: FxHashSet::default(),
            peer_down: vec![false; geo.num_sites()],
            parity_queue: FxHashMap::default(),
            coalesce: CoalescePolicy::Off,
            coalesced_merges: 0,
            bases: vec![None; rows],
            masks_applied: 0,
            masks_refused: 0,
            inflight: FxHashMap::default(),
            replies: FxHashMap::default(),
            reply_order: VecDeque::new(),
        }
    }

    // -- accessors used by drivers and invariant checkers ----------------

    /// This machine's site id.
    pub fn site(&self) -> usize {
        self.d.site
    }

    /// The layout geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Believe `peer` down (`true`) or back (`false`). While a row's parity
    /// site is believed down, this site sends the row's parity updates to
    /// the row's spare site (§3.2); an update already in flight keeps its
    /// destination. Volatile: a restarted machine believes every peer up
    /// until told otherwise. A `peer` outside the group names nobody.
    pub fn set_peer_down(&mut self, peer: usize, down: bool) {
        if let Some(belief) = self.peer_down.get_mut(peer) {
            *belief = down;
        }
    }

    /// Select the parity-update coalescing policy (see [`CoalescePolicy`]).
    pub fn set_coalesce(&mut self, policy: CoalescePolicy) {
        self.coalesce = policy;
    }

    /// The active coalescing policy.
    pub fn coalesce(&self) -> CoalescePolicy {
        self.coalesce
    }

    /// How many writes were XOR-merged into an already-queued parity update
    /// (always 0 under [`CoalescePolicy::Off`]).
    pub fn coalesced_merges(&self) -> u64 {
        self.coalesced_merges
    }

    /// `WriteMask`s applied, and refused (a stale base or a mask that does
    /// not fit the block).
    pub fn write_masks(&self) -> (u64, u64) {
        (self.masks_applied, self.masks_refused)
    }

    /// The UID stored with the block at `row`.
    pub fn block_uid(&self, row: u64) -> Uid {
        self.d.block_uids[row as usize]
    }

    /// Overwrite the UID stored with the block at `row` (recovery
    /// bookkeeping).
    pub fn set_block_uid(&mut self, row: u64, uid: Uid) {
        self.d.w(Touch::BlockUid(row)).block_uids[row as usize] = uid;
    }

    /// UID arrays for the rows where this site is the parity site.
    pub fn parity_uids(&self) -> &BTreeMap<u64, UidArray> {
        &self.d.parity_uids
    }

    /// The UID array for a parity row, created empty on first touch (all
    /// slots zero — consistent with never-written data blocks).
    pub fn parity_uid_array(&mut self, row: u64) -> &mut UidArray {
        let n = self.geo.num_sites();
        // A first touch adds an entry to the encoding and moves what
        // follows it; a later one rewrites the row's slots in place.
        let touch = if self.d.parity_uids.contains_key(&row) {
            Touch::ParityUids(row)
        } else {
            Touch::Shape
        };
        self.d
            .w(touch)
            .parity_uids
            .entry(row)
            .or_insert_with(|| UidArray::new(n))
    }

    /// Valid spare slots held by this site.
    pub fn spares(&self) -> &BTreeMap<u64, SpareSlot> {
        &self.d.spares
    }

    /// Mutable spare slots (driver-orchestrated installs/invalidations).
    pub fn spares_mut(&mut self) -> &mut BTreeMap<u64, SpareSlot> {
        &mut self.d.w(Touch::Shape).spares
    }

    /// Is the spare block of `row` valid at this site?
    pub fn spare_valid(&self, row: u64) -> bool {
        self.d.spares.contains_key(&row)
    }

    /// Rows whose local content is untrustworthy and must be rebuilt.
    pub fn invalid_rows(&self) -> &BTreeSet<u64> {
        &self.d.invalid_rows
    }

    /// Mutable invalid-row set (failure injection / recovery bookkeeping).
    pub fn invalid_rows_mut(&mut self) -> &mut BTreeSet<u64> {
        &mut self.d.w(Touch::Shape).invalid_rows
    }

    /// Mint a fresh UID from this site's generator.
    pub fn mint_uid(&mut self) -> Uid {
        self.d.w(Touch::Counters).uid_gen.next_uid()
    }

    /// A fresh site-unique request tag (site id in the high bits).
    pub fn fresh_tag(&mut self) -> u64 {
        let d = self.d.w(Touch::Counters);
        d.next_tag += 1;
        ((d.site as u64 + 1) << 48) | d.next_tag
    }

    /// Writes still awaiting their parity ack.
    pub fn pending_writes(&self) -> usize {
        self.pending.len()
    }

    /// No request of ours is awaiting an ack (quiesced).
    pub fn all_acked(&self) -> bool {
        self.inflight.is_empty() && self.pending.is_empty()
    }

    /// Every in-flight (launched, unacked) parity update, as
    /// `(row, tag, uid, to)`. The model checker's at-most-one-writer
    /// invariant scans these against the messages still on the wire.
    pub fn inflight_updates(&self) -> Vec<(u64, u64, Uid, usize)> {
        let mut v: Vec<(u64, u64, Uid, usize)> = self
            .inflight
            .values()
            .filter_map(|inf| match &inf.msg {
                Msg::ParityUpdate { row, uid, tag, .. } => Some((*row, *tag, *uid, inf.to)),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// Drop every cached at-most-once reply, as if the LRU cap had aged
    /// the whole cache out. The model checker uses this to exercise the
    /// §3.2 idempotence guard that backstops the cache: a duplicate
    /// arriving *after* eviction re-executes the handler, and only the
    /// UID check stops a parity mask from being applied twice.
    pub fn evict_replies(&mut self) {
        self.replies.clear();
        self.reply_order.clear();
    }

    /// Forget everything a site disaster loses: block UIDs, parity arrays,
    /// spare slots; every row becomes invalid.
    pub fn forget_all(&mut self) {
        let d = self.d.w(Touch::Shape);
        d.block_uids.fill(Uid::INVALID);
        d.parity_uids.clear();
        d.spares.clear();
        d.invalid_rows = (0..d.block_uids.len() as u64).collect();
        self.bases.fill(None);
    }

    /// The durable half of this machine's state, for persistence (see
    /// [`crate::durable`] for the durable/volatile split and why the two
    /// counters are part of it).
    pub fn durable_snapshot(&self) -> DurableSiteState {
        DurableSiteState::clone(&self.d)
    }

    /// A counter that moves whenever the durable half is borrowed mutably:
    /// two calls returning the same value bracket a stretch in which the
    /// snapshot's encoding cannot have changed, so a driver may skip the
    /// encode-and-compare (and the commit) for messages that leave it
    /// alone — reads, acks, probes, replayed replies. It is neither durable
    /// nor canonical state: a restored machine starts its own count.
    pub fn durable_version(&self) -> u64 {
        self.d.version()
    }

    /// Drain the journal of the durable half: how to take `committed`, the
    /// encoding the previous call left its caller with, to
    /// `durable_snapshot().encode()` as of now. While the messages since
    /// then touched only block UIDs, UID arrays of parity rows that had
    /// one and the two counters, that is a [`DurableDelta::Patch`] built
    /// from those fields alone, whatever the number of rows; otherwise (and
    /// on the first call, and when `committed` is not of the length this
    /// machine last encoded) it is the whole encoding. Either way the next
    /// call patches from this one's result, so the caller must make it its
    /// `committed`, or discard the machine.
    pub fn drain_durable(&mut self, committed: &[u8]) -> DurableDelta {
        let patch = self
            .d
            .touched()
            .and_then(|touched| self.patch(touched, committed));
        self.d.rebase();
        match patch {
            Some(patch) => DurableDelta::Patch(patch),
            None => DurableDelta::Whole(self.d.encode_indexed(&mut self.layout)),
        }
    }

    /// The XOR between `committed` and the current encoding, given that
    /// they differ in the `touched` fields at most.
    fn patch(&self, touched: &[Touch], committed: &[u8]) -> Option<ChangeMask> {
        if committed.len() != self.layout.len {
            return None;
        }
        // The touched fields as they encode now, back to back, and where
        // each belongs: (offset in the encoding, start and end in `bytes`).
        let mut bytes = Vec::with_capacity(64);
        let mut fields = [(0, 0, 0); JOURNAL_CAP];
        let put = |bytes: &mut Vec<u8>, v: u64| bytes.extend_from_slice(&v.to_le_bytes());
        for (field, touch) in fields.iter_mut().zip(touched) {
            let from = bytes.len();
            let at = match *touch {
                Touch::Counters => {
                    put(&mut bytes, self.d.uid_gen.counter());
                    put(&mut bytes, self.d.next_tag);
                    COUNTERS_AT
                }
                Touch::BlockUid(row) => {
                    put(&mut bytes, self.d.block_uids[row as usize].as_raw());
                    BLOCK_UIDS_AT + 8 * row as usize
                }
                Touch::ParityUids(row) => {
                    for uid in self.d.parity_uids.get(&row)?.slots() {
                        put(&mut bytes, uid.as_raw());
                    }
                    self.layout.parity_slots_at(row)?
                }
                Touch::Shape => return None,
            };
            if at + (bytes.len() - from) > committed.len() {
                return None;
            }
            *field = (at, from, bytes.len());
        }
        let fields = &mut fields[..touched.len()];
        fields.sort_unstable_by_key(|f| f.0);
        let mut windows = [(0, &[][..]); JOURNAL_CAP];
        for (window, &mut (at, from, to)) in windows.iter_mut().zip(fields) {
            *window = (at, &bytes[from..to]);
        }
        Some(ChangeMask::from_windows(
            committed,
            &windows[..touched.len()],
        ))
    }

    /// Forget the metadata of `rows` (a replaced disk's blank blocks).
    pub fn forget_rows(&mut self, rows: std::ops::Range<u64>) {
        let d = self.d.w(Touch::Shape);
        for row in rows {
            d.block_uids[row as usize] = Uid::INVALID;
            d.parity_uids.remove(&row);
            d.spares.remove(&row);
            d.invalid_rows.insert(row);
            self.bases[row as usize] = None;
        }
    }

    // -- the event handlers ----------------------------------------------

    fn reply(&mut self, out: &mut Vec<Effect>, src: usize, request_tag: u64, msg: Msg) {
        self.cache_reply(src, request_tag, msg.clone());
        out.push(Effect::send(Dest::Peer(src), msg));
    }

    fn cache_reply(&mut self, src: usize, tag: u64, msg: Msg) {
        if self.replies.insert((src, tag), msg).is_none() {
            self.reply_order.push_back((src, tag));
            if self.reply_order.len() > REPLY_CACHE_CAP {
                if let Some(old) = self.reply_order.pop_front() {
                    self.replies.remove(&old);
                }
            }
        }
    }

    /// Why this site refuses `msg` whatever its state: a field off the wire
    /// that does not fit the geometry. A row, data index or site index out
    /// of range, or a row whose spare (for a spare request) or whose parity
    /// and spare (for a parity update) live at another site, is
    /// `OutOfRange`; a block or a UID array of the wrong length is
    /// `BadSize`. Checked before any field is used, so no peer can make the
    /// machine index past its state. A mask is checked where it is applied.
    ///
    /// Out of line on purpose: inlined into `handle`, it made the bare
    /// parity apply ~1.5 ns faster and the tapped one not, which the `_obs`
    /// gate reads as a dearer tap (EXPERIMENTS.md, PR 28).
    #[inline(never)]
    fn misfit(&self, msg: &Msg) -> Option<NackReason> {
        let (geo, site, n) = (&self.geo, self.site(), self.geo.num_sites());
        let row_ok = |row: u64| row < geo.rows();
        let spare_here = |row: u64| row_ok(row) && geo.spare_site(row) == site;
        let parity_here = |row: u64| row_ok(row) && geo.parity_site(row) == site;
        let block_ok = |data: &Bytes| data.len() == self.d.block_size;
        let content_ok =
            |c: &SpareContent| !matches!(c, SpareContent::Parity { uids } if uids.len() != n);
        let (in_range, sized) = match msg {
            Msg::Read { index, .. } => (*index < geo.data_capacity(site), true),
            Msg::Write { index, data, .. } => (*index < geo.data_capacity(site), block_ok(data)),
            Msg::WriteMask { index, .. } => (*index < geo.data_capacity(site), true),
            Msg::ParityUpdate { row, from_site, .. } => {
                let here = parity_here(*row) || spare_here(*row);
                (here && *from_site < n, true)
            }
            Msg::SpareProbe { row, .. } => (spare_here(*row), true),
            Msg::SpareInstall {
                row,
                for_site,
                data,
                content,
                ..
            } => (
                spare_here(*row) && *for_site < n,
                block_ok(data) && content_ok(content),
            ),
            Msg::RestoreBlock {
                row, data, content, ..
            } => (row_ok(*row), block_ok(data) && content_ok(content)),
            Msg::BlockRead { row, .. } | Msg::SpareTake { row, .. } => (row_ok(*row), true),
            Msg::SpareDrainList { for_site, .. } => (*for_site < n, true),
            _ => (true, true),
        };
        if !in_range {
            Some(NackReason::OutOfRange)
        } else if !sized {
            Some(NackReason::BadSize)
        } else {
            None
        }
    }

    /// Handle one delivered message from peer `src`, appending effects.
    pub fn handle(&mut self, blocks: &mut dyn Blocks, src: usize, msg: Msg, out: &mut Vec<Effect>) {
        if msg.is_request() {
            let key = (src, msg.tag());
            // At-most-once: replay the cached reply to a duplicate request
            // without re-executing it.
            if let Some(cached) = self.replies.get(&key) {
                out.push(Effect::Send {
                    to: Dest::Peer(src),
                    wire: cached.wire_size(),
                    msg: cached.clone(),
                    retransmit: false,
                    replay: true,
                });
                return;
            }
            // A duplicate of a write still waiting for its parity ack:
            // swallow; the deferred reply will answer the original.
            if self.in_progress.contains(&key) {
                return;
            }
            if let Some(reason) = self.misfit(&msg) {
                return self.nack(out, src, key.1, reason);
            }
        }
        match msg {
            Msg::Read { index, tag } => self.on_read(blocks, src, index, tag, out),
            Msg::Write { index, data, tag } => {
                self.on_write(blocks, src, index, tag, Body::Block(&data), out);
            }
            Msg::WriteMask {
                index,
                base_tag,
                mask_wire,
                tag,
            } => {
                let body = Body::Mask {
                    base_tag,
                    mask_wire: &mask_wire,
                };
                self.on_write(blocks, src, index, tag, body, out);
            }
            Msg::ParityUpdate {
                row,
                mask_wire,
                uid,
                from_site,
                tag,
            } => self.on_parity_update(blocks, src, row, &mask_wire, uid, from_site, tag, out),
            Msg::Ack { tag } => self.on_ack(src, tag, out),
            Msg::SpareProbe {
                row,
                want_data,
                tag,
            } => self.on_spare_probe(blocks, src, row, want_data, tag, out),
            Msg::SpareInstall {
                row,
                for_site,
                data,
                content,
                tag,
            } => self.on_spare_install(blocks, src, row, for_site, data, content, tag, out),
            Msg::BlockRead { row, tag } => self.on_block_read(blocks, src, row, tag, out),
            Msg::SpareDrainList { for_site, tag } => {
                let rows: Vec<u64> = self
                    .d
                    .spares
                    .iter()
                    .filter(|(_, s)| s.for_site == for_site)
                    .map(|(&r, _)| r)
                    .collect();
                self.reply(out, src, tag, Msg::SpareRows { tag, rows });
            }
            Msg::SpareTake { row, tag } => {
                // Idempotent invalidation: acked even if the slot is
                // already gone (the drain restored the block first, so a
                // lost ack costs nothing).
                #[cfg(feature = "mutations")]
                let take = !crate::mutations::is(crate::mutations::Mutation::SpareNoInvalidate);
                #[cfg(not(feature = "mutations"))]
                let take = true;
                if take && self.d.spares.contains_key(&row) {
                    self.d.w(Touch::Shape).spares.remove(&row);
                }
                self.reply(out, src, tag, Msg::Ack { tag });
            }
            Msg::RestoreBlock {
                row,
                data,
                content,
                tag,
            } => self.on_restore(blocks, src, row, data, content, tag, out),
            // Replies that reach a site outside its pending table are stale
            // (e.g. an ack for a write whose site restarted): drop them.
            Msg::ReadOk { .. }
            | Msg::WriteOk { .. }
            | Msg::Nack { .. }
            | Msg::BlockData { .. }
            | Msg::SpareState { .. }
            | Msg::SpareRows { .. } => {}
        }
    }

    fn on_read(
        &mut self,
        blocks: &mut dyn Blocks,
        src: usize,
        index: u64,
        tag: u64,
        out: &mut Vec<Effect>,
    ) {
        let row = self.geo.data_to_physical(self.site(), index);
        if self.d.invalid_rows.contains(&row) {
            return self.nack(out, src, tag, NackReason::Unavailable);
        }
        let Ok(data) = blocks.read(row) else {
            return self.nack(out, src, tag, NackReason::Unavailable);
        };
        out.push(Effect::Read {
            row,
            purpose: IoPurpose::Data,
        });
        self.reply(out, src, tag, Msg::ReadOk { tag, data });
    }

    /// W1–W3 of a write of data block `index` from `src`, whose new block
    /// comes whole or as a change mask against the block here (see the
    /// module docs). A mask is checked whole, against its base and the
    /// block, before anything is staged.
    #[allow(clippy::too_many_arguments)]
    fn on_write(
        &mut self,
        blocks: &mut dyn Blocks,
        src: usize,
        index: u64,
        tag: u64,
        body: Body<'_>,
        out: &mut Vec<Effect>,
    ) {
        let row = self.geo.data_to_physical(self.site(), index);
        // A row lost with its disk holds no old value to take a change mask
        // against: the client writes it W1' instead (§3.2).
        if self.d.invalid_rows.contains(&row) {
            return self.nack(out, src, tag, NackReason::Unavailable);
        }
        if let Body::Mask { base_tag, .. } = body {
            let stale = self.bases[row as usize] != Some((src, base_tag));
            #[cfg(feature = "mutations")]
            let stale =
                stale && !crate::mutations::is(crate::mutations::Mutation::StaleMaskApplied);
            if stale {
                self.masks_refused += 1;
                return self.nack(out, src, tag, NackReason::StaleBase);
            }
        }
        // W2: old value from the "buffer pool" — our own storage.
        let Ok(old) = blocks.read(row) else {
            return self.nack(out, src, tag, NackReason::Unavailable);
        };
        let (data, mask) = match body {
            Body::Block(data) => (data.clone(), None),
            Body::Mask { mask_wire, .. } => match ChangeMask::applied_wire(mask_wire, &old) {
                Some(new) => {
                    self.masks_applied += 1;
                    (Bytes::from(new), ChangeMask::decode(mask_wire))
                }
                None => {
                    self.masks_refused += 1;
                    return self.nack(out, src, tag, NackReason::BadSize);
                }
            },
        };
        out.push(Effect::Read {
            row,
            purpose: IoPurpose::OldValue,
        });
        // W1: local write with a fresh UID.
        let uid = self.mint_uid();
        if blocks.write_owned(row, data.clone()).is_err() {
            self.bases[row as usize] = None;
            return self.nack(out, src, tag, NackReason::Unavailable);
        }
        self.bases[row as usize] = Some((src, tag));
        out.push(Effect::Write {
            row,
            purpose: IoPurpose::WriteData,
        });
        #[cfg(feature = "mutations")]
        let shipped_uid = if crate::mutations::is(crate::mutations::Mutation::DroppedUidBump) {
            self.d.block_uids[row as usize] // the stale pre-W1 UID
        } else {
            uid
        };
        #[cfg(not(feature = "mutations"))]
        let shipped_uid = uid;
        self.set_block_uid(row, uid);
        // W3: change mask to the parity site (a mask that came is sent on
        // as it came); defer the client reply until the ack (the §6 "done =
        // prepared" discipline).
        let mask = mask.unwrap_or_else(|| ChangeMask::diff(&old, &data));
        let ptag = self.fresh_tag();
        self.pending.insert(
            ptag,
            PendingWrite {
                client: src,
                client_tag: tag,
                row,
            },
        );
        self.in_progress.insert((src, tag));
        out.push(Effect::DeferAck { tag, row });
        // Stop-and-wait per row: send immediately only if no earlier
        // update for this row is still awaiting its ack. Under the Merge
        // policy a write landing behind an in-flight update folds into the
        // single waiting entry instead of queueing its own (the front is
        // never touched — its bytes may already be on the wire).
        let queue = self.parity_queue.entry(row).or_default();
        if self.coalesce == CoalescePolicy::Merge && queue.len() >= 2 {
            let back = queue.back_mut().expect("len >= 2");
            back.mask = back.mask.merge(&mask);
            back.uid = shipped_uid;
            back.absorbed.push(ptag);
            self.coalesced_merges += 1;
        } else {
            queue.push_back(QueuedUpdate {
                tag: ptag,
                uid: shipped_uid,
                mask,
                absorbed: Vec::new(),
            });
            if queue.len() == 1 {
                self.launch_front(row, out);
            }
        }
    }

    /// Build the wire message for `row`'s queue front and send it.
    fn launch_front(&mut self, row: u64, out: &mut Vec<Effect>) {
        let site = self.site();
        let Some((tag, msg)) = self
            .parity_queue
            .get(&row)
            .and_then(|q| q.front())
            .map(|front| {
                (
                    front.tag,
                    Msg::ParityUpdate {
                        row,
                        mask_wire: front.mask.encode(),
                        uid: front.uid,
                        from_site: site,
                        tag: front.tag,
                    },
                )
            })
        else {
            return;
        };
        let parity = self.geo.parity_site(row);
        let to = if self.peer_down[parity] {
            self.geo.spare_site(row)
        } else {
            parity
        };
        self.launch(to, tag, msg, out);
    }

    fn launch(&mut self, to: usize, tag: u64, msg: Msg, out: &mut Vec<Effect>) {
        out.push(Effect::send(Dest::Site(to), msg.clone()));
        out.push(Effect::SetTimer { tag, step: 0 });
        self.inflight
            .insert(msg.tag(), Inflight { to, msg, step: 0 });
        debug_assert_eq!(tag, self.inflight[&tag].msg.tag());
    }

    #[allow(clippy::too_many_arguments)]
    fn on_parity_update(
        &mut self,
        blocks: &mut dyn Blocks,
        src: usize,
        row: u64,
        mask_wire: &Bytes,
        uid: Uid,
        from_site: usize,
        tag: u64,
        out: &mut Vec<Effect>,
    ) {
        // Whose UID array the row's parity block answers to here: ours, or,
        // at the row's spare while the parity site is down, the stand-in's.
        let parity_site = self.geo.parity_site(row);
        let recorded = if parity_site == self.site() {
            // A row lost with its disk holds no parity to apply a mask to.
            if self.d.invalid_rows.contains(&row) {
                return self.refuse_update(out, src, tag);
            }
            self.d.parity_uids.get(&row).map(|a| a.get(from_site))
        } else {
            match self.d.spares.get(&row) {
                Some(SpareSlot {
                    for_site,
                    content: SpareContent::Parity { uids },
                }) if *for_site == parity_site => Some(uids.get(from_site)),
                _ => return self.refuse_update(out, src, tag),
            }
        };
        // §3.2 idempotence guard: a retransmission whose ack was lost
        // arrives with a UID this slot already records — re-applying its
        // XOR mask would corrupt the parity block, so just ack again.
        let already = recorded == Some(uid);
        #[cfg(feature = "mutations")]
        let already = already && !crate::mutations::is(crate::mutations::Mutation::AbaDoubleApply);
        if !already {
            let Ok(old) = blocks.read(row) else {
                return self.refuse_update(out, src, tag);
            };
            // Formula (1) in one pass over the old block, XORed straight
            // from the wire buffer, which is checked against the block
            // before the first byte is written.
            let Some(parity) = ChangeMask::applied_wire(mask_wire, &old) else {
                return self.nack(out, src, tag, NackReason::BadSize);
            };
            out.push(Effect::Read {
                row,
                purpose: IoPurpose::ParityApply,
            });
            if blocks.write_owned(row, Bytes::from(parity)).is_err() {
                return self.refuse_update(out, src, tag);
            }
            out.push(Effect::Write {
                row,
                purpose: IoPurpose::ParityApply,
            });
            // W4
            if parity_site == self.site() {
                self.parity_uid_array(row).set(from_site, uid);
            } else if let Some(SpareSlot {
                content: SpareContent::Parity { uids },
                ..
            }) = self.d.w(Touch::Shape).spares.get_mut(&row)
            {
                uids.set(from_site, uid);
            }
        }
        self.reply(out, src, tag, Msg::Ack { tag });
    }

    /// Refuse a parity update this site cannot apply. Not cached: the
    /// sender retransmits, and by then the block may be servable (a stand-in
    /// installed); a refused update changed nothing to be replayed.
    fn refuse_update(&mut self, out: &mut Vec<Effect>, src: usize, tag: u64) {
        let reason = NackReason::Unavailable;
        out.push(Effect::send(Dest::Peer(src), Msg::Nack { tag, reason }));
    }

    /// Acknowledge the deferred write behind parity tag `tag`: emit the
    /// client's `WriteOk` and cache it for duplicate requests.
    fn resolve_pending(&mut self, tag: u64, out: &mut Vec<Effect>) {
        if let Some(p) = self.pending.remove(&tag) {
            self.in_progress.remove(&(p.client, p.client_tag));
            let done = Msg::WriteOk { tag: p.client_tag };
            self.cache_reply(p.client, p.client_tag, done.clone());
            out.push(Effect::send(Dest::Peer(p.client), done));
        }
    }

    fn on_ack(&mut self, _src: usize, tag: u64, out: &mut Vec<Effect>) {
        if self.inflight.remove(&tag).is_some() {
            out.push(Effect::ClearTimer { tag });
        }
        // Duplicate acks (from retransmissions whose originals also got
        // through) fall out of the pending table as no-ops.
        if let Some(p) = self.pending.remove(&tag) {
            self.in_progress.remove(&(p.client, p.client_tag));
            let done = Msg::WriteOk { tag: p.client_tag };
            self.cache_reply(p.client, p.client_tag, done.clone());
            out.push(Effect::send(Dest::Peer(p.client), done));
            // Advance the row's stop-and-wait queue: resolve every write the
            // acked entry absorbed (coalescing), then launch the next queued
            // update now that its predecessor is applied.
            if let Some(queue) = self.parity_queue.get_mut(&p.row) {
                if queue.front().map(|q| q.tag) == Some(tag) {
                    let front = queue.pop_front().expect("front exists");
                    for atag in front.absorbed {
                        self.resolve_pending(atag, out);
                    }
                }
            }
            match self.parity_queue.get(&p.row) {
                Some(queue) if !queue.is_empty() => self.launch_front(p.row, out),
                Some(_) => {
                    self.parity_queue.remove(&p.row);
                }
                None => {}
            }
        }
    }

    fn on_spare_probe(
        &mut self,
        blocks: &mut dyn Blocks,
        src: usize,
        row: u64,
        want_data: bool,
        tag: u64,
        out: &mut Vec<Effect>,
    ) {
        let slot = match self.d.spares.get(&row) {
            None => None,
            Some(s) => {
                let (data, io) = if want_data {
                    match blocks.read(row) {
                        Ok(d) => (d, true),
                        Err(_) => return self.nack(out, src, tag, NackReason::Unavailable),
                    }
                } else {
                    // Validity/ownership is a metadata check — a control
                    // message, no block I/O (the paper's "probing an
                    // invalid spare costs no block I/O" convention extends
                    // to ownership probes).
                    (Bytes::new(), false)
                };
                if io {
                    out.push(Effect::Read {
                        row,
                        purpose: IoPurpose::SpareRead,
                    });
                }
                Some(SpareSlotWire {
                    for_site: s.for_site,
                    data,
                    content: s.content.clone(),
                })
            }
        };
        self.reply(out, src, tag, Msg::SpareState { tag, slot });
    }

    #[allow(clippy::too_many_arguments)]
    fn on_spare_install(
        &mut self,
        blocks: &mut dyn Blocks,
        src: usize,
        row: u64,
        for_site: usize,
        data: Bytes,
        content: SpareContent,
        tag: u64,
        out: &mut Vec<Effect>,
    ) {
        // Two failures may not share one spare: an install for a site the
        // slot does not already stand in for is refused. And a parity
        // stand-in is installed once: a second would overwrite the masks
        // that landed on the first.
        if let Some(slot) = self.d.spares.get(&row) {
            if slot.for_site != for_site || matches!(content, SpareContent::Parity { .. }) {
                return self.nack(out, src, tag, NackReason::Conflict);
            }
        }
        if blocks.write_owned(row, data).is_err() {
            return self.nack(out, src, tag, NackReason::Unavailable);
        }
        out.push(Effect::Write {
            row,
            purpose: IoPurpose::SpareInstall,
        });
        self.d
            .w(Touch::Shape)
            .spares
            .insert(row, SpareSlot { for_site, content });
        self.reply(out, src, tag, Msg::Ack { tag });
    }

    fn on_block_read(
        &mut self,
        blocks: &mut dyn Blocks,
        src: usize,
        row: u64,
        tag: u64,
        out: &mut Vec<Effect>,
    ) {
        if self.d.invalid_rows.contains(&row) {
            return self.nack(out, src, tag, NackReason::Unavailable);
        }
        let Ok(data) = blocks.read(row) else {
            return self.nack(out, src, tag, NackReason::Unavailable);
        };
        out.push(Effect::Read {
            row,
            purpose: IoPurpose::Reconstruct,
        });
        let parity_uids = if self.geo.parity_site(row) == self.site() {
            let n = self.geo.num_sites();
            Some(
                self.d
                    .parity_uids
                    .get(&row)
                    .cloned()
                    .unwrap_or_else(|| UidArray::new(n))
                    .slots()
                    .to_vec(),
            )
        } else {
            None
        };
        let uid = self.d.block_uids[row as usize];
        self.reply(
            out,
            src,
            tag,
            Msg::BlockData {
                tag,
                data,
                uid,
                parity_uids,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_restore(
        &mut self,
        blocks: &mut dyn Blocks,
        src: usize,
        row: u64,
        data: Bytes,
        content: SpareContent,
        tag: u64,
        out: &mut Vec<Effect>,
    ) {
        if blocks.write_owned(row, data).is_err() {
            return self.nack(out, src, tag, NackReason::Unavailable);
        }
        out.push(Effect::Write {
            row,
            purpose: IoPurpose::Restore,
        });
        match content {
            SpareContent::Data { uid } => self.set_block_uid(row, uid),
            SpareContent::Parity { uids } => *self.parity_uid_array(row) = uids,
        }
        // The row holds a block no W1 here wrote: no mask may take it as
        // its base.
        self.bases[row as usize] = None;
        // The row is whole again. Tested through `Deref` first: a restore
        // onto a valid row must not journal the `Touch::Shape` that
        // removing an invalid mark is.
        if self.d.invalid_rows.contains(&row) {
            self.d.w(Touch::Shape).invalid_rows.remove(&row);
        }
        self.reply(out, src, tag, Msg::Ack { tag });
    }

    fn nack(&mut self, out: &mut Vec<Effect>, src: usize, tag: u64, reason: NackReason) {
        self.reply(out, src, tag, Msg::Nack { tag, reason });
    }

    /// The retransmit timer for `tag` fired: resend if still unacked and
    /// re-arm with the next backoff step.
    pub fn on_timer(&mut self, tag: u64, out: &mut Vec<Effect>) {
        if let Some(inf) = self.inflight.get_mut(&tag) {
            inf.step += 1;
            out.push(Effect::Send {
                to: Dest::Site(inf.to),
                wire: inf.msg.wire_size(),
                msg: inf.msg.clone(),
                retransmit: true,
                replay: false,
            });
            out.push(Effect::SetTimer {
                tag,
                step: inf.step,
            });
        }
    }
}

impl crate::check::Checkable for SiteMachine {
    /// Canonical scan, in fixed field order. Excluded as unobservable:
    /// `uid_gen`/`next_tag` (renaming makes generator positions
    /// irrelevant), `Inflight::step` (retransmission backoff counter),
    /// `coalesced_merges` (a statistic), and static configuration
    /// (`site`, `geo`, `block_size`, `coalesce` — constant per model),
    /// and the `WriteMask` statistics.
    fn canon(&self, c: &mut crate::check::Canonicalizer) {
        for uid in &self.d.block_uids {
            c.uid(*uid);
        }
        for (row, arr) in &self.d.parity_uids {
            c.raw(row);
            for uid in arr.slots() {
                c.uid(*uid);
            }
        }
        for (row, slot) in &self.d.spares {
            c.raw(row);
            c.raw(&slot.for_site);
            crate::check::canon_spare_content(&slot.content, c);
        }
        for row in &self.d.invalid_rows {
            c.raw(row);
        }
        for (row, base) in self.bases.iter().enumerate() {
            if let Some((src, tag)) = base {
                c.raw(&(row, *src));
                c.tag(*tag);
            }
        }
        let mut pending: Vec<_> = self.pending.iter().collect();
        pending.sort_unstable_by_key(|(tag, _)| **tag);
        for (tag, p) in pending {
            c.tag(*tag);
            c.raw(&p.client);
            c.tag(p.client_tag);
            c.raw(&p.row);
        }
        let mut in_progress: Vec<_> = self.in_progress.iter().collect();
        in_progress.sort_unstable();
        for (client, tag) in in_progress {
            c.raw(client);
            c.tag(*tag);
        }
        c.raw(&self.peer_down);
        let mut queues: Vec<_> = self
            .parity_queue
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .collect();
        queues.sort_unstable_by_key(|(row, _)| **row);
        for (row, queue) in queues {
            c.raw(row);
            for entry in queue {
                c.tag(entry.tag);
                c.uid(entry.uid);
                c.raw(&entry.mask.encode()[..]);
                for absorbed in &entry.absorbed {
                    c.tag(*absorbed);
                }
            }
        }
        let mut inflight: Vec<_> = self.inflight.iter().collect();
        inflight.sort_unstable_by_key(|(tag, _)| **tag);
        for (tag, inf) in inflight {
            c.tag(*tag);
            c.raw(&inf.to);
            inf.msg.canon(c);
        }
        // The reply cache in insertion (= eviction) order, which
        // `reply_order` already records deterministically.
        for key in &self.reply_order {
            c.raw(&key.0);
            c.tag(key.1);
            if let Some(msg) = self.replies.get(key) {
                msg.canon(c);
            }
        }
    }
}
