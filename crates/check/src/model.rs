//! The checker's explicit-state model of a RADD cluster.
//!
//! One [`Model`] value is one global state: the real sans-IO
//! [`SiteMachine`]s and [`ClientMachine`]s (no re-implementation of the
//! protocol), an explicit in-flight message vector, retransmit timers, a
//! failure/partition overlay, and a linearizability oracle. The explorer
//! clones the model, applies one [`Action`], and asks for the canonical
//! hash — everything protocol-visible lives here.
//!
//! # Network semantics
//!
//! The message fabric is **FIFO per directed (sender, receiver) pair and
//! arbitrarily interleaved across pairs** — exactly the guarantee both real
//! runtimes provide (the DES delivers synchronously; the threaded runtime
//! uses one ordered channel per endpoint pair). This matters for
//! soundness: the §3.2 idempotence guard is only required to survive
//! duplicates that arrive *in order* (a retransmission whose ack was
//! lost); a fabric that reordered within a pair would "find" parity
//! corruption no deployment can exhibit.
//!
//! Loss ([`Action::Drop`]) is restricted to site→site traffic, the only
//! leg protected by stop-and-wait retransmission; duplication
//! ([`Action::Dup`]) to site-destined traffic, the legs guarded by the
//! replay cache and the §3.2 idempotence check. A duplicate slots in
//! *directly behind its original* — the FIFO contract means a channel
//! can deliver a message twice but cannot delay the copy past later
//! traffic of the same pair (that would be reordering in disguise).
//!
//! # Failure semantics
//!
//! [`Action::Fail`] is pause-crash with stable protocol state: the site
//! stops receiving and every client's and every other site's failure
//! detector flips atomically — the perfect-detector idealisation the paper
//! assumes in §3.2. The reply cache and parity bookkeeping survive,
//! standing in for the stable storage a real site would recover them from.
//! A site may only fail while it has no unacknowledged parity traffic of
//! its own (`all_acked`), the paper's §6 caveat: a site dying mid-update is
//! the in-doubt case RADD explicitly does not solve. For the same reason,
//! failure also waits until the site's *outbound* in-flight messages have
//! drained: a crash severs connections, so a message from the dead site
//! lingering in the fabric would correspond to no real schedule (the lossy
//! version of that schedule is `Drop` followed by `Fail`, which the checker
//! explores separately). The cut also loses what was on its way *to* the
//! site: only the parity updates a sender still awaits an ack for stay
//! queued, standing in for the retransmission that would carry them after
//! the revival. (A duplicate of an acknowledged one, delivered after the
//! §3.2 drain handed the site its stand-in's newer UID array, would get
//! past the idempotence guard; nobody would resend it.) [`Action::Isolate`]
//! cuts the same way: the runtimes refuse or drop traffic across a
//! partition, they do not delay it.
//!
//! # Healthy writes are wire-level
//!
//! A healthy write is where every interesting race lives (W1 vs W3 vs the
//! client ack), so the model's `SyncIo` puts the real client machine's
//! `Write` request on the fabric itself and the model commits the oracle
//! only when the `WriteOk` is delivered. Every other exchange — reads,
//! degraded reads/writes, the parity stand-in a write builds while the
//! row's parity site is down, the recovery drain — runs atomically through
//! `SyncIo`, which routes each exchange straight into the target
//! machine; that is one of the schedules the real cluster can produce
//! (request and reply delivered promptly), so exploring only it never
//! fabricates a race.

use radd_layout::Geometry;
use radd_obs::MachineObs;
use radd_parity::Uid;
use radd_protocol::check::{
    check_spare_freshness, check_spare_structure, check_stripe_parity, check_uid_agreement,
    Canonicalizer, Checkable,
};
use radd_protocol::{
    classify, gate, Blocks, ClientErr, ClientIo, ClientMachine, Dest, Effect, Gate, MemBlocks, Msg,
    NackReason, PartitionVerdict, SiteMachine, SparePolicy,
};
use radd_workload::faults::payload;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One scripted client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientOp {
    /// Write `content(fill)` to data block `index` of `site`.
    Write {
        /// Target site.
        site: usize,
        /// Data block index at that site.
        index: u64,
        /// Seed of the deterministic payload.
        fill: u64,
    },
    /// Read data block `index` of `site` and check it linearizes.
    Read {
        /// Target site.
        site: usize,
        /// Data block index at that site.
        index: u64,
    },
    /// Bulk-rebuild every data block of a believed-down `site` into the
    /// row spares (the parallel rebuild engine's per-group pass). Refused
    /// when the schedule has not failed the site (nothing to rebuild).
    Rebuild {
        /// The failed site whose blocks are reconstructed.
        site: usize,
    },
}

/// Fault budgets: how many of each optional event one interleaving may
/// contain. Small budgets keep the bounded exploration exhaustive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budgets {
    /// Message duplications ([`Action::Dup`]).
    pub dup: u8,
    /// Message losses ([`Action::Drop`]).
    pub drop: u8,
    /// Retransmit-timer firings ([`Action::Fire`]).
    pub timer: u8,
    /// Site-failure episodes ([`Action::Fail`]).
    pub fail: u8,
    /// §5 partition episodes ([`Action::Isolate`]).
    pub partition: u8,
    /// Reply-cache evictions ([`Action::Evict`]) — cache-pressure stand-in
    /// that exposes the §3.2 idempotence guard beneath the at-most-once
    /// cache.
    pub evict: u8,
    /// Crash/restart episodes ([`Action::CrashRestart`]): the site comes
    /// straight back from its durable snapshot, volatile state gone.
    pub crash: u8,
}

/// Shape and workload of the cluster under check.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Parity group size `G` (cluster has `G + 2` sites).
    pub group_size: usize,
    /// Physical rows.
    pub rows: u64,
    /// Block size in bytes (small: contents only feed XOR identities).
    pub block_size: usize,
    /// One operation script per client, run in program order.
    pub scripts: Vec<Vec<ClientOp>>,
    /// Which site each client is attached to for §5 partition purposes
    /// (`None` = external, rides the majority).
    pub attachment: Vec<Option<usize>>,
    /// Fault budgets per interleaving.
    pub budgets: Budgets,
}

impl ModelConfig {
    fn num_clients(&self) -> usize {
        self.scripts.len()
    }
}

/// One transition of the global state. `Copy` so the explorer's DFS stack
/// stays cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Run client `client`'s next scripted operation.
    Step {
        /// Client index.
        client: usize,
    },
    /// Deliver the in-flight message at `index` to its destination.
    Deliver {
        /// Index into the fabric's message vector.
        index: usize,
    },
    /// Lose the in-flight message at `index`.
    Drop {
        /// Index into the fabric's message vector.
        index: usize,
    },
    /// Duplicate the in-flight message at `index` (copy queues behind).
    Dup {
        /// Index into the fabric's message vector.
        index: usize,
    },
    /// Fire the stop-and-wait retransmit timer for `tag` at `site`.
    Fire {
        /// Site whose timer fires.
        site: usize,
        /// Outstanding request tag.
        tag: u64,
    },
    /// Pause-crash `site` (perfect failure detector: every client flips).
    Fail {
        /// Failing site.
        site: usize,
    },
    /// Revive `site` and run the §3.2 recovery drain to completion.
    Recover {
        /// Recovering site.
        site: usize,
    },
    /// Partition `site` away from everyone else (§5 single-failure-like).
    Isolate {
        /// Isolated site.
        site: usize,
    },
    /// Reconnect the isolated `site` and drain what it missed.
    Heal {
        /// Previously isolated site.
        site: usize,
    },
    /// Age `site`'s entire at-most-once reply cache out (cache pressure).
    Evict {
        /// Site whose reply cache is evicted.
        site: usize,
    },
    /// Crash `site` and restart it immediately from durable storage: the
    /// machine is rebuilt from its own [`DurableSiteState`] round-trip
    /// (exactly what `DiskBlocks` recovery does), so everything volatile —
    /// reply cache, retransmit timers, in-progress bookkeeping — is lost
    /// while the WAL-covered state survives.
    ///
    /// [`DurableSiteState`]: radd_protocol::DurableSiteState
    CrashRestart {
        /// Site that crashes and recovers from disk.
        site: usize,
    },
}

/// One line of a counterexample, in the words the fault-plan log uses for
/// the same step (`fail site 2`, `recover site 2`, ...).
impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Action::Step { client } => write!(f, "step client {client}"),
            Action::Deliver { index } => write!(f, "deliver message #{index}"),
            Action::Drop { index } => write!(f, "drop message #{index}"),
            Action::Dup { index } => write!(f, "duplicate message #{index}"),
            Action::Fire { site, tag } => {
                write!(f, "fire retransmit timer {tag:#x} at site {site}")
            }
            Action::Fail { site } => write!(f, "fail site {site}"),
            Action::Recover { site } => write!(f, "recover site {site}"),
            Action::Isolate { site } => write!(f, "isolate site {site}"),
            Action::Heal { site } => write!(f, "heal partition around site {site}"),
            Action::Evict { site } => write!(f, "evict the reply cache of site {site}"),
            Action::CrashRestart { site } => {
                write!(f, "crash and restart site {site} from durable storage")
            }
        }
    }
}

/// Where an in-flight message is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointId {
    /// Protocol site `s`.
    Site(usize),
    /// Scripted client `c`.
    Client(usize),
}

/// One in-flight message. `seq` is a monotone enqueue counter: it orders
/// the per-pair FIFO and names the envelope for sleep-set identity; it is
/// *excluded* from the canonical hash.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Enqueue order (monotone, never reused).
    pub seq: u64,
    /// Sender peer id.
    pub src: usize,
    /// Destination endpoint.
    pub dst: EndpointId,
    /// The message.
    pub msg: Msg,
    /// Created by [`Action::Dup`]: a network-duplicated packet, whose
    /// lifetime is bounded (it cannot outlive a reply-cache window — see
    /// the eviction rules in [`Model::enabled_actions`]).
    pub dup: bool,
}

/// The site-side half of the state: machines, disks, fabric, timers and
/// the failure overlay. Split out of [`Model`] so a client machine can be
/// borrowed mutably while a [`SyncIo`] borrows the fabric.
#[derive(Debug, Clone)]
struct Fabric {
    num_sites: usize,
    num_clients: usize,
    sites: Vec<SiteMachine>,
    disks: Vec<MemBlocks>,
    net: Vec<Envelope>,
    /// Armed retransmit timers per site: tag → retransmission step.
    timers: Vec<BTreeMap<u64, u32>>,
    up: Vec<bool>,
    isolated: Option<usize>,
    next_seq: u64,
    violation: Option<String>,
    /// §3.2 at-most-once ledger: every `(parity_site, row, from_site, uid)`
    /// whose mask actually hit the parity block. A repeat is the ABA
    /// double-apply the idempotence guard exists to prevent.
    applied: BTreeSet<(usize, u64, usize, Uid)>,
    /// Per-site observability taps, enabled only for replay (cloning them
    /// per explored state would dominate the checker's cost).
    obs: Option<Vec<MachineObs>>,
}

impl Fabric {
    /// Peer id of site `s` (DES convention: peer 0 is the legacy client).
    fn site_peer(s: usize) -> usize {
        1 + s
    }

    fn client_peer(&self, c: usize) -> usize {
        1 + self.num_sites + c
    }

    fn daemon_peer(&self) -> usize {
        1 + self.num_sites + self.num_clients
    }

    fn flag(&mut self, what: impl Into<String>) {
        if self.violation.is_none() {
            self.violation = Some(what.into());
        }
    }

    fn enqueue(&mut self, src: usize, dst: EndpointId, msg: Msg) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.net.push(Envelope {
            seq,
            src,
            dst,
            msg,
            dup: false,
        });
    }

    /// Process a machine's output effects. `reply_to = Some(peer)` captures
    /// the first reply addressed to `peer` (a synchronous exchange) instead
    /// of enqueuing it.
    fn process_effects(
        &mut self,
        site: usize,
        out: Vec<Effect>,
        reply_to: Option<usize>,
    ) -> Option<Msg> {
        let mut reply = None;
        for e in out {
            if let Some(obs) = &mut self.obs {
                obs[site].effect(&e);
            }
            match e {
                Effect::Send { to, msg, .. } => {
                    let dst = match to {
                        Dest::Site(s) => EndpointId::Site(s),
                        Dest::Peer(p) => {
                            if reply_to == Some(p) && reply.is_none() {
                                reply = Some(msg);
                                continue;
                            }
                            match self.endpoint_of_peer(p) {
                                Some(dst) => dst,
                                None => {
                                    self.flag(format!("site {site} sent to unroutable peer {p}"));
                                    continue;
                                }
                            }
                        }
                    };
                    self.enqueue(Self::site_peer(site), dst, msg);
                }
                Effect::SetTimer { tag, step } => {
                    self.timers[site].insert(tag, step);
                }
                Effect::ClearTimer { tag } => {
                    self.timers[site].remove(&tag);
                }
                // Local I/O receipts and deferred-ack notices carry no
                // routing; the obs tap above already recorded them.
                Effect::Read { .. } | Effect::Write { .. } | Effect::DeferAck { .. } => {}
            }
        }
        reply
    }

    /// `site` is cut off: lose every parity update on its way there that no
    /// sender still awaits an ack for (see the module docs).
    fn sever(&mut self, site: usize) {
        let awaited: BTreeSet<(usize, u64)> = (0..self.num_sites)
            .flat_map(|s| {
                self.sites[s]
                    .inflight_updates()
                    .into_iter()
                    .map(move |(_, tag, _, _)| (Self::site_peer(s), tag))
            })
            .collect();
        self.net.retain(|e| {
            e.dst != EndpointId::Site(site)
                || !matches!(e.msg, Msg::ParityUpdate { .. })
                || awaited.contains(&(e.src, e.msg.tag()))
        });
    }

    fn endpoint_of_peer(&self, p: usize) -> Option<EndpointId> {
        if (1..=self.num_sites).contains(&p) {
            Some(EndpointId::Site(p - 1))
        } else if p > self.num_sites && p <= self.num_sites + self.num_clients {
            Some(EndpointId::Client(p - 1 - self.num_sites))
        } else {
            None
        }
    }

    /// Run `msg` through `site` and record the §3.2 at-most-once ledger.
    fn run_site(
        &mut self,
        site: usize,
        src: usize,
        msg: Msg,
        reply_to: Option<usize>,
    ) -> Option<Msg> {
        let update = match &msg {
            Msg::ParityUpdate {
                row,
                uid,
                from_site,
                ..
            } => Some((*row, *uid, *from_site)),
            _ => None,
        };
        let mut out = Vec::new();
        let version = self.sites[site].durable_version();
        let durable = self.sites[site].durable_snapshot();
        self.sites[site].handle(&mut self.disks[site], src, msg, &mut out);
        // The site loops skip the WAL commit for a message that leaves the
        // version alone; that is only sound if the durable half did not
        // move either.
        if self.sites[site].durable_version() == version
            && self.sites[site].durable_snapshot() != durable
        {
            self.flag(format!(
                "site {site}: durable state changed under an unchanged durable_version"
            ));
        }
        if let Some((row, uid, from)) = update {
            let applied_now = out.iter().any(|e| {
                matches!(
                    e,
                    Effect::Write {
                        purpose: radd_protocol::IoPurpose::ParityApply,
                        ..
                    }
                )
            });
            if applied_now && !self.applied.insert((site, row, from, uid)) {
                self.flag(format!(
                    "§3.2 at-most-once violated: parity mask (row {row}, from site \
                     {from}, uid {uid:?}) applied twice at site {site}"
                ));
            }
        }
        self.process_effects(site, out, reply_to)
    }

    /// Is `peer` on the minority side of the current partition?
    fn peer_minority(&self, peer: usize, attachment: &[Option<usize>]) -> bool {
        let Some(iso) = self.isolated else {
            return false;
        };
        match self.endpoint_of_peer(peer) {
            Some(EndpointId::Site(s)) => s == iso,
            Some(EndpointId::Client(c)) => attachment[c] == Some(iso),
            None => false, // daemon and legacy peers ride the majority
        }
    }

    fn endpoint_minority(&self, e: EndpointId, attachment: &[Option<usize>]) -> bool {
        let Some(iso) = self.isolated else {
            return false;
        };
        match e {
            EndpointId::Site(s) => s == iso,
            EndpointId::Client(c) => attachment[c] == Some(iso),
        }
    }
}

/// Synchronous [`ClientIo`]: each exchange is delivered and answered
/// immediately, with any *other* effects (site-to-site sends, timers)
/// feeding the shared fabric. A `Write` (or `WriteMask`) is the exception:
/// it goes onto the fabric as it is, and the operation ends there
/// (`wire_write` names it), so a healthy write's W1/W3/ack interleave with
/// everything else.
struct SyncIo<'a> {
    fabric: &'a mut Fabric,
    src_peer: usize,
    attachment: Option<usize>,
    wire_write: Option<u64>,
}

impl<'a> SyncIo<'a> {
    fn new(fabric: &'a mut Fabric, src_peer: usize, attachment: Option<usize>) -> SyncIo<'a> {
        SyncIo {
            fabric,
            src_peer,
            attachment,
            wire_write: None,
        }
    }
}

impl ClientIo for SyncIo<'_> {
    fn exchange(&mut self, site: usize, msg: Msg, _background: bool) -> Result<Msg, ClientErr> {
        if let Msg::Write { tag, .. } | Msg::WriteMask { tag, .. } = msg {
            self.fabric
                .enqueue(self.src_peer, EndpointId::Site(site), msg);
            self.wire_write = Some(tag);
            return Err(ClientErr::Timeout { site });
        }
        let cut = match self.fabric.isolated {
            None => false,
            Some(iso) => (self.attachment == Some(iso)) != (site == iso),
        };
        if !self.fabric.up[site] || cut {
            return Err(ClientErr::Timeout { site });
        }
        match self
            .fabric
            .run_site(site, self.src_peer, msg, Some(self.src_peer))
        {
            Some(reply) => Ok(reply),
            None => {
                self.fabric.flag(format!(
                    "atomic exchange with site {site} got no synchronous reply"
                ));
                Err(ClientErr::Timeout { site })
            }
        }
    }
}

/// A scripted client: the real machine, its program counter, and (for a
/// wire-level healthy write) the request it is waiting on.
#[derive(Debug, Clone)]
struct ClientSlot {
    machine: ClientMachine,
    pos: usize,
    wait: Option<WireWait>,
}

#[derive(Debug, Clone)]
struct WireWait {
    tag: u64,
    site: usize,
    index: u64,
    fill: u64,
}

/// What write `fill` stores in a block of `block_size` bytes: the fault
/// plans' 4-byte `payload(fill)` at its start and zeros after it. A 4-byte
/// block is the payload whole; in a block of 32 bytes or more any two
/// contents differ in at most 4 bytes, so a client's rewrite of a block
/// goes as a change mask (`WriteMask`) against its previous write.
fn content(fill: u64, block_size: usize) -> Vec<u8> {
    let mut block = vec![0; block_size];
    let head = block_size.min(4);
    block[..head].copy_from_slice(&payload(fill, head));
    block
}

/// UID namespace of the first scripted client (sites use low namespaces).
const CLIENT_UID_NAMESPACE: u16 = 2048;
/// UID namespace of the recovery daemon's client machine.
const DAEMON_UID_NAMESPACE: u16 = 4000;

/// One global state of the modelled cluster.
#[derive(Debug, Clone)]
pub struct Model {
    cfg: ModelConfig,
    geo: Geometry,
    fabric: Fabric,
    clients: Vec<ClientSlot>,
    /// The recovery daemon's client machine (drives §3.2 drains).
    daemon: ClientMachine,
    /// Latest acknowledged fill per `(site, index)`.
    oracle: BTreeMap<(usize, u64), u64>,
    /// Every acknowledged fill per `(site, index)` — the read-check
    /// fallback for blocks with concurrent writers.
    committed: BTreeMap<(usize, u64), BTreeSet<u64>>,
    /// Issued-but-unacknowledged fills: a concurrent read may return any.
    inflight_fills: BTreeMap<(usize, u64), BTreeSet<u64>>,
    /// Blocks targeted by more than one client (latest-wins is ambiguous).
    multi_writer: BTreeSet<(usize, u64)>,
    /// Legal protocol refusals observed (diagnostic; not hashed).
    refusals: u32,
    budgets: Budgets,
}

impl Model {
    /// A fresh cluster in the all-zero, all-up initial state.
    pub fn new(cfg: &ModelConfig) -> Model {
        let geo = Geometry::new(cfg.group_size, cfg.rows).expect("valid model geometry");
        let n = geo.num_sites();
        assert_eq!(
            cfg.attachment.len(),
            cfg.scripts.len(),
            "one attachment per client script"
        );
        let sites = (0..n)
            .map(|s| SiteMachine::new(s, cfg.group_size, cfg.rows, cfg.block_size))
            .collect();
        let disks = (0..n)
            .map(|_| MemBlocks::new(cfg.rows, cfg.block_size))
            .collect();
        let clients = (0..cfg.num_clients())
            .map(|c| ClientSlot {
                machine: ClientMachine::new(
                    cfg.group_size,
                    cfg.rows,
                    cfg.block_size,
                    SparePolicy::OnePerParity,
                    true,
                    CLIENT_UID_NAMESPACE + c as u16,
                ),
                pos: 0,
                wait: None,
            })
            .collect();
        let daemon = ClientMachine::new(
            cfg.group_size,
            cfg.rows,
            cfg.block_size,
            SparePolicy::OnePerParity,
            true,
            DAEMON_UID_NAMESPACE,
        );
        let mut multi_writer = BTreeSet::new();
        let mut writers: BTreeMap<(usize, u64), usize> = BTreeMap::new();
        for (c, script) in cfg.scripts.iter().enumerate() {
            for op in script {
                if let ClientOp::Write { site, index, .. } = *op {
                    match writers.get(&(site, index)) {
                        Some(&owner) if owner != c => {
                            multi_writer.insert((site, index));
                        }
                        _ => {
                            writers.insert((site, index), c);
                        }
                    }
                }
            }
        }
        Model {
            geo,
            fabric: Fabric {
                num_sites: n,
                num_clients: cfg.num_clients(),
                sites,
                disks,
                net: Vec::new(),
                timers: vec![BTreeMap::new(); n],
                up: vec![true; n],
                isolated: None,
                next_seq: 0,
                violation: None,
                applied: BTreeSet::new(),
                obs: None,
            },
            clients,
            daemon,
            oracle: BTreeMap::new(),
            committed: BTreeMap::new(),
            inflight_fills: BTreeMap::new(),
            multi_writer,
            refusals: 0,
            budgets: cfg.budgets,
            cfg: cfg.clone(),
        }
    }

    /// Enable per-site observability taps (replay mode only).
    pub fn enable_obs(&mut self) {
        self.fabric.obs = Some(
            (0..self.fabric.num_sites)
                .map(|_| MachineObs::new())
                .collect(),
        );
    }

    /// Snapshot the per-site observability taps, if enabled.
    pub fn obs_snapshot(&self) -> Option<radd_obs::ObsSnapshot> {
        self.fabric.obs.as_ref().map(|obs| radd_obs::ObsSnapshot {
            machines: obs
                .iter()
                .enumerate()
                .map(|(s, m)| m.snapshot(&format!("site {s}")))
                .collect(),
        })
    }

    /// Fixture hook: `site`'s protocol machine, to plant bookkeeping no
    /// message produced. [`check_quiesce`](Model::check_quiesce) is
    /// expected to catch it.
    pub fn corrupt_machine(&mut self, site: usize) -> &mut SiteMachine {
        &mut self.fabric.sites[site]
    }

    /// The first invariant violation observed on this path, if any.
    pub fn violation(&self) -> Option<&str> {
        self.fabric.violation.as_deref()
    }

    /// Legal protocol refusals observed on this path (diagnostic).
    pub fn refusals(&self) -> u32 {
        self.refusals
    }

    /// The in-flight message vector (read-only; the explorer names actions
    /// by envelope).
    pub fn net(&self) -> &[Envelope] {
        &self.fabric.net
    }

    /// Lowest-indexed deliverable envelope, if any (the driver's
    /// deterministic quiesce schedule).
    pub fn first_deliverable(&self) -> Option<usize> {
        (0..self.fabric.net.len()).find(|&i| self.deliverable(i))
    }

    /// Is the model fully settled — nothing in flight, every client idle,
    /// every site acked, no failure or partition in effect?
    pub fn quiesced(&self) -> bool {
        self.fabric.net.is_empty()
            && self.clients.iter().all(|c| c.wait.is_none())
            && self.fabric.sites.iter().all(SiteMachine::all_acked)
            && self.fabric.up.iter().all(|&u| u)
            && self.fabric.isolated.is_none()
    }

    /// Have all scripts run to completion?
    pub fn scripts_done(&self) -> bool {
        self.clients
            .iter()
            .enumerate()
            .all(|(c, slot)| slot.pos >= self.cfg.scripts[c].len())
    }

    // -- action enumeration ----------------------------------------------

    /// Every action enabled in this state, in deterministic order.
    pub fn enabled_actions(&self) -> Vec<Action> {
        let mut acts = Vec::new();
        let net = &self.fabric.net;
        for i in 0..net.len() {
            if self.deliverable(i) {
                acts.push(Action::Deliver { index: i });
            }
        }
        for c in 0..self.clients.len() {
            if self.clients[c].pos < self.cfg.scripts[c].len() && self.clients[c].wait.is_none() {
                acts.push(Action::Step { client: c });
            }
        }
        if self.budgets.timer > 0 {
            for s in 0..self.fabric.num_sites {
                if self.fabric.up[s] {
                    for &tag in self.fabric.timers[s].keys() {
                        acts.push(Action::Fire { site: s, tag });
                    }
                }
            }
        }
        if self.budgets.dup > 0 {
            for (i, env) in net.iter().enumerate() {
                if matches!(env.dst, EndpointId::Site(_)) {
                    acts.push(Action::Dup { index: i });
                }
            }
        }
        if self.budgets.drop > 0 {
            for (i, env) in net.iter().enumerate() {
                let src_is_site = (1..=self.fabric.num_sites).contains(&env.src);
                if src_is_site && matches!(env.dst, EndpointId::Site(_)) {
                    acts.push(Action::Drop { index: i });
                }
            }
        }
        let all_up = self.fabric.up.iter().all(|&u| u);
        if self.budgets.fail > 0 && all_up && self.fabric.isolated.is_none() {
            for s in 0..self.fabric.num_sites {
                // A crash severs the site's connections, so any unacked
                // outbound message it had in flight dies with it — and
                // `all_acked` means it will never be resent. "Crash with k
                // outbound in flight" is therefore the same execution as k
                // `Drop`s followed by `Fail`; requiring a drained outbound
                // queue here loses no generality and keeps the frozen
                // fabric honest (a stale update surviving its sender's
                // crash corresponds to no real schedule).
                let outbound_drained = !self
                    .fabric
                    .net
                    .iter()
                    .any(|e| e.src == Fabric::site_peer(s));
                if self.fabric.sites[s].all_acked() && outbound_drained {
                    acts.push(Action::Fail { site: s });
                }
            }
        }
        for s in 0..self.fabric.num_sites {
            if !self.fabric.up[s] {
                acts.push(Action::Recover { site: s });
            }
        }
        if self.budgets.partition > 0 && all_up && self.fabric.isolated.is_none() {
            for s in 0..self.fabric.num_sites {
                if self.fabric.sites[s].all_acked() {
                    acts.push(Action::Isolate { site: s });
                }
            }
        }
        if let Some(s) = self.fabric.isolated {
            acts.push(Action::Heal { site: s });
        }
        if self.budgets.evict > 0 {
            for s in 0..self.fabric.num_sites {
                // Eviction compresses "enough traffic to age the whole
                // cache out" into one event, i.e. an unbounded stretch of
                // time. A *network-duplicated* packet has bounded lifetime
                // (the standard at-most-once RPC assumption: packet
                // lifetime < cache retention), so a dup bound for this
                // site forbids eviction. Sender *retransmissions* carry no
                // such bound — they persist until acked and must survive
                // eviction via the §3.2 UID guard, which is exactly the
                // property this event exists to probe.
                let no_dup_inbound = !self
                    .fabric
                    .net
                    .iter()
                    .any(|e| e.dup && e.dst == EndpointId::Site(s));
                if self.fabric.up[s] && no_dup_inbound {
                    acts.push(Action::Evict { site: s });
                }
            }
        }
        if self.budgets.crash > 0 && all_up && self.fabric.isolated.is_none() {
            for s in 0..self.fabric.num_sites {
                // Same §6 caveat as `Fail`: a site dying with its own
                // parity traffic unacked (or still in the fabric) is the
                // in-doubt case the paper does not solve, so the crash is
                // only enabled at a locally quiescent site. And like
                // `Evict`, the restart wipes the reply cache, so a
                // bounded-lifetime *duplicated* packet must not still be
                // inbound (sender retransmissions, which survive any
                // outage, are exactly what the §3.2 UID guard must absorb
                // across the restart).
                let outbound_drained = !self
                    .fabric
                    .net
                    .iter()
                    .any(|e| e.src == Fabric::site_peer(s));
                let no_dup_inbound = !self
                    .fabric
                    .net
                    .iter()
                    .any(|e| e.dup && e.dst == EndpointId::Site(s));
                if self.fabric.sites[s].all_acked() && outbound_drained && no_dup_inbound {
                    acts.push(Action::CrashRestart { site: s });
                }
            }
        }
        acts
    }

    /// May the envelope at `index` be delivered now? Destination up, no
    /// partition cut, and it is the oldest in-flight message of its
    /// directed (sender, receiver) pair — the per-pair FIFO.
    fn deliverable(&self, index: usize) -> bool {
        let env = &self.fabric.net[index];
        match env.dst {
            EndpointId::Site(s) if !self.fabric.up[s] => return false,
            _ => {}
        }
        let src_min = self.fabric.peer_minority(env.src, &self.cfg.attachment);
        let dst_min = self.fabric.endpoint_minority(env.dst, &self.cfg.attachment);
        if src_min != dst_min {
            return false;
        }
        // The vector keeps per-pair FIFO order (sends append, a duplicate
        // slots in right behind its original), so "no earlier same-pair
        // envelope" is a prefix scan.
        !self.fabric.net[..index]
            .iter()
            .any(|e| e.src == env.src && e.dst == env.dst)
    }

    // -- transition ------------------------------------------------------

    /// Apply one action. Invariants are checked as part of the transition;
    /// any violation is recorded via [`Model::violation`].
    pub fn apply(&mut self, action: Action) {
        match action {
            Action::Step { client } => self.client_step(client),
            Action::Deliver { index } => {
                let env = self.fabric.net.remove(index);
                match env.dst {
                    EndpointId::Site(s) => {
                        self.fabric.run_site(s, env.src, env.msg, None);
                    }
                    EndpointId::Client(c) => self.deliver_to_client(c, &env.msg),
                }
            }
            Action::Drop { index } => {
                self.budgets.drop = self.budgets.drop.saturating_sub(1);
                self.fabric.net.remove(index);
            }
            Action::Dup { index } => {
                self.budgets.dup = self.budgets.dup.saturating_sub(1);
                // The copy slots in directly behind the original: a FIFO
                // channel delivers a duplicate in sequence, it cannot warp
                // the copy behind *later* messages of the same pair (that
                // would be reordering, which the transport contract — and
                // the §3.2 idempotence guard — exclude).
                let mut env = self.fabric.net[index].clone();
                env.seq = self.fabric.next_seq;
                env.dup = true;
                self.fabric.next_seq += 1;
                self.fabric.net.insert(index + 1, env);
            }
            Action::Fire { site, tag } => {
                self.budgets.timer = self.budgets.timer.saturating_sub(1);
                let mut out = Vec::new();
                self.fabric.sites[site].on_timer(tag, &mut out);
                self.fabric.process_effects(site, out, None);
            }
            Action::Fail { site } => {
                self.budgets.fail = self.budgets.fail.saturating_sub(1);
                self.fabric.up[site] = false;
                self.fabric.sever(site);
                self.believe_down(site, true);
            }
            Action::Recover { site } => {
                self.fabric.up[site] = true;
                self.drain(site);
            }
            Action::Isolate { site } => {
                self.budgets.partition = self.budgets.partition.saturating_sub(1);
                self.fabric.isolated = Some(site);
                self.fabric.sever(site);
                self.believe_down(site, true);
            }
            Action::Heal { site } => {
                debug_assert_eq!(self.fabric.isolated, Some(site));
                self.fabric.isolated = None;
                self.drain(site);
            }
            Action::Evict { site } => {
                self.budgets.evict = self.budgets.evict.saturating_sub(1);
                self.fabric.sites[site].evict_replies();
            }
            Action::CrashRestart { site } => {
                self.budgets.crash = self.budgets.crash.saturating_sub(1);
                // The disk (MemBlocks) stands in for the durable block
                // file; the machine is rebuilt through the real snapshot
                // codec so the model checks the same bytes `DiskBlocks`
                // replays on a real restart.
                let bytes = self.fabric.sites[site].durable_snapshot().encode();
                match radd_protocol::DurableSiteState::decode(&bytes) {
                    Ok(d) => {
                        self.fabric.sites[site] = SiteMachine::restore_durable(d);
                        self.fabric.timers[site].clear();
                    }
                    Err(e) => self.fabric.flag(format!(
                        "durable snapshot of site {site} failed to round-trip: {e}"
                    )),
                }
            }
        }
        self.check_step();
        if self.fabric.violation.is_none() && self.quiesced() {
            if let Err(e) = self.check_quiesce() {
                self.fabric.flag(e);
            }
        }
    }

    /// Every failure detector — each client's, the daemon's and every
    /// other site's — flips for `site` at once (the perfect detector).
    fn believe_down(&mut self, site: usize, down: bool) {
        for slot in &mut self.clients {
            slot.machine.set_down(site, down);
        }
        self.daemon.set_down(site, down);
        for (s, machine) in self.fabric.sites.iter_mut().enumerate() {
            if s != site {
                machine.set_peer_down(site, down);
            }
        }
    }

    /// §3.2 recovery drain after a revival or heal: the daemon's real
    /// client machine copies absorbed spares back and releases them, then
    /// every failure detector clears.
    fn drain(&mut self, site: usize) {
        let peer = self.fabric.daemon_peer();
        let mut io = SyncIo::new(&mut self.fabric, peer, None);
        match self.daemon.recover(&mut io, site) {
            Ok(_) => self.believe_down(site, false),
            Err(e) => self
                .fabric
                .flag(format!("recovery drain of site {site} failed: {e:?}")),
        }
    }

    fn client_step(&mut self, c: usize) {
        // §5: while a partition is in effect, classify it and gate the
        // operation — and cross-check that `classify` calls our
        // single-isolated-site overlay exactly SingleFailureLike.
        if let Some(iso) = self.fabric.isolated {
            let mut group_of = vec![0u32; self.geo.num_sites()];
            group_of[iso] = 1;
            let verdict = classify(&group_of, self.cfg.group_size);
            match &verdict {
                PartitionVerdict::SingleFailureLike { isolated, .. } if *isolated == iso => {}
                other => {
                    self.fabric.flag(format!(
                        "§5 classify mismatch: isolating site {iso} yielded {other:?}"
                    ));
                    return;
                }
            }
            match gate(&verdict, self.cfg.attachment[c]) {
                Gate::Proceed => {}
                Gate::ActorIsolated { .. } | Gate::Blocked => {
                    // The op is consumed, refused: the §5 rule says this
                    // actor must cease processing until reconnection.
                    self.refusals += 1;
                    self.clients[c].pos += 1;
                    return;
                }
            }
        }
        let op = self.cfg.scripts[c][self.clients[c].pos];
        self.clients[c].pos += 1;
        let peer = self.fabric.client_peer(c);
        match op {
            ClientOp::Write { site, index, fill } => self.issue_write(c, site, index, fill),
            ClientOp::Read { site, index } => {
                let mut io = SyncIo::new(&mut self.fabric, peer, self.cfg.attachment[c]);
                match self.clients[c].machine.read(&mut io, site, index) {
                    Ok(got) => self.check_read(c, site, index, &got),
                    // §3.3: a reconstruction raced a parity update still in
                    // flight — refusing is the correct behaviour.
                    Err(ClientErr::Inconsistent { .. }) => self.refusals += 1,
                    Err(e) => self.fabric.flag(format!(
                        "read(site {site}, index {index}) by client {c} failed under \
                         a single failure: {e:?}"
                    )),
                }
            }
            ClientOp::Rebuild { site } => {
                let mut io = SyncIo::new(&mut self.fabric, peer, self.cfg.attachment[c]);
                match self.clients[c].machine.rebuild_member(&mut io, site, 1) {
                    Ok(_) => {}
                    // Unavailable: this schedule never failed the site, so
                    // there is nothing to rebuild. Inconsistent: a parity
                    // update is in flight — the engine's full-pass retry is
                    // modelled as a refusal here.
                    Err(ClientErr::Unavailable { .. } | ClientErr::Inconsistent { .. }) => {
                        self.refusals += 1;
                    }
                    Err(e) => self.fabric.flag(format!(
                        "rebuild of site {site} by client {c} failed under a \
                         single failure: {e:?}"
                    )),
                }
            }
        }
    }

    /// Client `c`'s write of `content(fill)` to `(site, index)`, through
    /// the real client machine: a degraded write, and the parity stand-in
    /// a healthy one may need first, run as atomic exchanges; a healthy
    /// write's request goes onto the fabric and is committed when its
    /// `WriteOk` is delivered.
    fn issue_write(&mut self, c: usize, site: usize, index: u64, fill: u64) {
        let peer = self.fabric.client_peer(c);
        let data = content(fill, self.cfg.block_size);
        let mut io = SyncIo::new(&mut self.fabric, peer, self.cfg.attachment[c]);
        let done = self.clients[c].machine.write(&mut io, site, index, &data);
        match (io.wire_write, done) {
            (Some(tag), _) => {
                self.clients[c].wait = Some(WireWait {
                    tag,
                    site,
                    index,
                    fill,
                });
                self.inflight_fills
                    .entry((site, index))
                    .or_default()
                    .insert(fill);
            }
            (None, Ok(())) => self.commit(site, index, fill),
            (None, Err(ClientErr::Inconsistent { .. })) => self.refusals += 1,
            (None, Err(e)) => self.fabric.flag(format!(
                "write(site {site}, index {index}) by client {c} failed \
                 under a single failure: {e:?}"
            )),
        }
    }

    fn commit(&mut self, site: usize, index: u64, fill: u64) {
        self.oracle.insert((site, index), fill);
        self.committed
            .entry((site, index))
            .or_default()
            .insert(fill);
        if let Some(set) = self.inflight_fills.get_mut(&(site, index)) {
            set.remove(&fill);
            if set.is_empty() {
                self.inflight_fills.remove(&(site, index));
            }
        }
    }

    fn deliver_to_client(&mut self, c: usize, msg: &Msg) {
        let matches_wait = self.clients[c]
            .wait
            .as_ref()
            .is_some_and(|w| w.tag == msg.tag());
        if !matches_wait {
            // A replayed reply to a retransmitted/duplicated request whose
            // original already resolved: at-most-once makes this stale
            // copy harmless.
            return;
        }
        match msg {
            Msg::WriteOk { .. } => {
                let w = self.clients[c].wait.take().expect("matched above");
                let data = content(w.fill, self.cfg.block_size).into();
                self.clients[c]
                    .machine
                    .write_acked(w.site, w.index, data, w.tag);
                self.commit(w.site, w.index, w.fill);
            }
            // The client's image of the block was stale: the machine kept
            // none past the mask, so issuing the write again sends it whole.
            Msg::Nack {
                reason: NackReason::StaleBase,
                ..
            } => {
                let w = self.clients[c].wait.take().expect("matched above");
                self.issue_write(c, w.site, w.index, w.fill);
            }
            other => {
                let w = self.clients[c].wait.take().expect("matched above");
                self.fabric.flag(format!(
                    "healthy write(site {}, index {}) by client {c} answered with \
                     {:?} instead of WriteOk",
                    w.site,
                    w.index,
                    other.kind()
                ));
            }
        }
    }

    /// Does a completed read linearize against the oracle?
    fn check_read(&mut self, c: usize, site: usize, index: u64, got: &[u8]) {
        let key = (site, index);
        let bs = self.cfg.block_size;
        let matches_fill = |fill: u64| content(fill, bs).as_slice() == got;
        if let Some(fills) = self.inflight_fills.get(&key) {
            if fills.iter().copied().any(matches_fill) {
                return; // concurrent with an unacked write: either value linearizes
            }
        }
        let ok = if self.multi_writer.contains(&key) {
            // Concurrent writers: latest-wins is schedule-dependent, so any
            // acknowledged value is accepted.
            self.committed.get(&key).map_or_else(
                || got.iter().all(|&b| b == 0),
                |set| set.iter().copied().any(matches_fill),
            )
        } else {
            match self.oracle.get(&key) {
                Some(&fill) => matches_fill(fill),
                None => got.iter().all(|&b| b == 0),
            }
        };
        if !ok {
            self.fabric.flag(format!(
                "read(site {site}, index {index}) by client {c} returned a value \
                 that is neither the committed value nor any in-flight write"
            ));
        }
    }

    // -- invariants ------------------------------------------------------

    /// Cheap per-transition checks (quiesce-independent structure).
    fn check_step(&mut self) {
        if self.fabric.violation.is_some() {
            return;
        }
        // Stop-and-wait: at most one launched, unacknowledged parity update
        // per (site, row).
        for (s, site) in self.fabric.sites.iter().enumerate() {
            let mut seen_rows = BTreeSet::new();
            for (row, _tag, _uid, _to) in site.inflight_updates() {
                if !seen_rows.insert(row) {
                    self.fabric.flag(format!(
                        "stop-and-wait violated: site {s} has two launched parity \
                         updates for row {row}"
                    ));
                    return;
                }
            }
        }
        if let Err(e) = check_spare_structure(&self.fabric.sites) {
            self.fabric.flag(e);
        }
    }

    /// Full invariant sweep, valid only at quiescence. Runs by itself at
    /// every quiescent state [`apply`](Model::apply) reaches; public so a
    /// fixture can put a hand-built violation
    /// ([`corrupt_machine`](Model::corrupt_machine)) in front of it.
    pub fn check_quiesce(&mut self) -> Result<(), String> {
        let (sites, disks) = (&self.fabric.sites, &mut self.fabric.disks);
        let mut read = |site: usize, row: u64| disks[site].read(row).ok().map(|b| b.to_vec());
        // Structure first (as `check_step` does after every transition):
        // the predicates below index spares by the sites it vouches for.
        check_spare_structure(sites)?;
        check_stripe_parity(&self.geo, &mut read)?;
        check_uid_agreement(sites, |_, _| true)?;
        check_spare_freshness(sites, &mut read)?;
        // Oracle content: every acknowledged write must be on disk.
        for (&(site, index), &fill) in &self.oracle {
            let row = self.geo.data_to_physical(site, index);
            let got = self.fabric.disks[site]
                .read(row)
                .map_err(|_| format!("model disk fault at site {site} row {row}"))?;
            let ok = if self.multi_writer.contains(&(site, index)) {
                let bs = self.cfg.block_size;
                self.committed
                    .get(&(site, index))
                    .is_some_and(|set| set.iter().any(|&f| content(f, bs).as_slice() == &got[..]))
            } else {
                content(fill, self.cfg.block_size).as_slice() == &got[..]
            };
            if !ok {
                return Err(format!(
                    "durability violated: site {site} index {index} does not hold \
                     the acknowledged value at quiescence"
                ));
            }
        }
        Ok(())
    }

    // -- canonical hashing -----------------------------------------------

    /// Canonical 128-bit digest of the protocol-visible state. Tags and
    /// UIDs are renamed in first-seen order over a fixed scan, so states
    /// differing only in generator history collide (on purpose); the
    /// in-flight vector is hashed order-insensitively across directed
    /// pairs and order-sensitively within one (matching the delivery
    /// semantics).
    pub fn canon_hash(&mut self) -> u128 {
        let mut c = Canonicalizer::new();
        for s in 0..self.fabric.num_sites {
            self.fabric.sites[s].canon(&mut c);
            // Timer tags are site-minted and monotone, so raw-key order is
            // creation order — stable across isomorphic states.
            c.raw(&self.fabric.timers[s].len());
            for &t in self.fabric.timers[s].keys() {
                c.tag(t);
            }
            c.raw(&self.fabric.up[s]);
            for row in 0..self.geo.rows() {
                match self.fabric.disks[s].read(row) {
                    Ok(b) => c.raw(&b[..]),
                    Err(_) => c.raw(&"fault"),
                }
            }
        }
        c.raw(&self.fabric.isolated);
        for (slot_idx, slot) in self.clients.iter().enumerate() {
            c.raw(&slot_idx);
            slot.machine.canon(&mut c);
            c.raw(&slot.pos);
            match &slot.wait {
                None => c.raw(&0u8),
                Some(w) => {
                    c.raw(&1u8);
                    c.tag(w.tag);
                    c.raw(&(w.site, w.index, w.fill));
                }
            }
        }
        self.daemon.canon(&mut c);
        c.raw(&self.oracle);
        c.raw(&self.committed);
        c.raw(&self.inflight_fills);
        c.raw(&(
            self.budgets.dup,
            self.budgets.drop,
            self.budgets.timer,
            self.budgets.fail,
            self.budgets.partition,
            self.budgets.evict,
        ));
        for (s, row, from, uid) in &self.fabric.applied {
            c.raw(&(*s, *row, *from));
            c.uid(*uid);
        }
        // In-flight messages: a sub-digest per envelope (sharing the
        // renaming tables), combined commutatively across pairs with the
        // within-pair position mixed in.
        let mut pair_pos: BTreeMap<(usize, u8, usize), u64> = BTreeMap::new();
        let mut net_sum = 0u128;
        for env in &self.fabric.net {
            let (dk, di) = match env.dst {
                EndpointId::Site(s) => (0u8, s),
                EndpointId::Client(cl) => (1u8, cl),
            };
            let pos = pair_pos.entry((env.src, dk, di)).or_insert(0);
            c.begin_sub();
            c.raw(&(env.src, dk, di, *pos, env.dup));
            *pos += 1;
            env.msg.canon(&mut c);
            net_sum = net_sum.wrapping_add(c.end_sub());
        }
        c.raw(&net_sum);
        c.finish()
    }

    /// Identity of `action` for sleep-set bookkeeping: stable across the
    /// sibling loop (envelope `seq`, not index).
    pub fn action_key(&self, action: Action) -> ActionKey {
        match action {
            Action::Deliver { index } => {
                let env = &self.fabric.net[index];
                let dst_site = match env.dst {
                    EndpointId::Site(s) => Some(s),
                    EndpointId::Client(_) => None,
                };
                ActionKey::Deliver {
                    seq: env.seq,
                    dst_site,
                }
            }
            other => ActionKey::Other(other),
        }
    }
}

/// Sleep-set identity of an action. Two `Deliver`s to *different sites*
/// commute (each mutates only its destination machine, its own timers, and
/// appends to distinct FIFO pairs); everything else is treated as
/// dependent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKey {
    /// Delivery of envelope `seq`, to a site when `dst_site` is set.
    Deliver {
        /// Envelope sequence number (stable while the message is in flight).
        seq: u64,
        /// Destination site, `None` for client-bound deliveries (those
        /// touch the global oracle, so they are conservatively dependent).
        dst_site: Option<usize>,
    },
    /// Any non-delivery action (never treated as independent).
    Other(Action),
}

impl ActionKey {
    /// May `self` and `other` be swapped without changing the outcome?
    pub fn independent(self, other: ActionKey) -> bool {
        match (self, other) {
            (
                ActionKey::Deliver {
                    dst_site: Some(a), ..
                },
                ActionKey::Deliver {
                    dst_site: Some(b), ..
                },
            ) => a != b,
            _ => false,
        }
    }
}
