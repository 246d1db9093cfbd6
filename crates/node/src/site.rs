//! One site's interpreter state: a [`SiteMachine`], its store and its timer
//! wheel as a passive object, [`SiteDriver`], that a runtime calls into.
//! One source file, compiled into both async runtimes (DESIGN.md §12).
//!
//! All protocol logic — W1–W4 deferred acks, the parity UID idempotence
//! guard, stop-and-wait per-row retransmission, spare slots, the
//! at-most-once reply cache — lives in [`radd_protocol::SiteMachine`]. This
//! module owns only what the sans-IO machine cannot: the store, the wall
//! clock and the interpretation of effects. It has three entry points and
//! no thread of its own:
//!
//! 1. [`SiteDriver::deliver`] feeds one inbound message into
//!    [`SiteMachine::handle`], commits (the staged block writes plus what
//!    the message touched of the machine's durable half, as a patch
//!    against the store's committed blob: `SiteDriver::commit`), and only
//!    then releases the effects;
//! 2. [`SiteDriver::fire_due_timers`] feeds due retransmit timers into
//!    [`SiteMachine::on_timer`];
//! 3. [`SiteDriver::serve`] answers one harness [`Control`] command.
//!
//! Effects are interpreted against the endpoint's sending half
//! ([`Outbound`]): `Send` → endpoint send, `SetTimer` → an
//! exponential-backoff deadline in the local timer wheel, `ClearTimer` →
//! disarm. Block I/O needs no interpreting (the machine already performed
//! it against its [`radd_storage::SiteStore`] — in-memory by default, or a
//! durable WAL-backed store); its receipts serve the one thing below.
//!
//! **Kept block checks.** A network that checks its frames (the socket
//! runtime) hands [`SiteDriver::deliver`] the check a message's block
//! arrived under. When the message is one whose block the store keeps as
//! it came (`Write`, `SpareInstall`, `RestoreBlock`: a `Write` receipt of
//! purpose `WriteData`, `SpareInstall` or `Restore`), the driver keeps the
//! check for the row beside a clone of that very buffer. A reply that
//! carries the same buffer again (`ReadOk`, `BlockData`, a `SpareState`
//! slot; the row is the one its `Read` receipt named) goes out through
//! [`Outbound::send_checked`] under the kept check, so the kernel's copy
//! is the only pass a read makes over the block at the site. Any later
//! `Write` receipt for the row (a parity apply, a rewrite, a restore that
//! came without a check) forgets it, and so does `KillRestart`. Buffers
//! are compared by identity, never by content: the clone keeps the kept
//! buffer alive and unchanged, so a match is the block that arrived.
//!
//! Who calls the three is the runtime's choice (DESIGN.md §12, "Thread
//! model"): the threaded runtime's site thread pulls its channel and calls
//! them in turn (`radd_node::run_site`); the socket runtime puts the
//! driver behind one mutex and each connection's reader thread calls
//! `deliver` itself (`radd_rt::server::run_site`). Either way the calls
//! are serialised, and control is served while the site is marked down — a
//! down site is deaf to the protocol, not to its operator.
//!
//! Fault harnesses must quiesce a site (wait for its pending table to
//! drain, via [`Control::QueryPending`]) before killing it: a temporary
//! failure with an in-doubt parity update would otherwise leave data and
//! parity divergent, which is the §6 in-doubt-transaction problem the
//! paper resolves with coordinator logs that these runtimes do not model.

use radd_net::{Outbound, RetryPolicy};
use radd_obs::{MachineObs, MachineSnapshot, StorageSnapshot};
use radd_protocol::{
    trace, Bytes, CoalescePolicy, Dest, DurableDelta, DurableSiteState, Effect, IoPurpose, Msg,
    ObsEvent, SiteMachine,
};
use radd_storage::{SiteStore, StorageSpec};
use std::collections::BTreeMap;
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

/// Retransmission schedule for unacked parity updates.
const RETRANSMIT: RetryPolicy = RetryPolicy::SITE_RETRANSMIT;

/// Control-plane commands (out of band, from an in-process harness).
#[derive(Debug)]
pub enum Control {
    /// Mark the site down (refuse protocol messages) or back up. The ack
    /// channel makes the transition synchronous: the harness knows the
    /// site has crossed the boundary before it issues further traffic
    /// (otherwise a revive could be observed *before* the kill, leaving
    /// the site transiently deaf).
    SetDown(bool, Sender<()>),
    /// Believe peer site `.0` down (`true`) or back
    /// ([`SiteMachine::set_peer_down`]); acked like [`Control::SetDown`].
    PeerDown(usize, bool, Sender<()>),
    /// Report how many writes are still waiting for a parity ack. The
    /// harness polls this to quiesce the cluster before failure injection
    /// or invariant checks.
    QueryPending(Sender<usize>),
    /// Report whether no request of this site is awaiting an ack
    /// ([`SiteMachine::all_acked`]).
    QueryAllAcked(Sender<bool>),
    /// Start (`true`) or stop recording the site's normalised effect trace
    /// (for differential tests against the DES interpreter).
    RecordTrace(bool, Sender<()>),
    /// Hand over the recorded trace, clearing the buffer.
    TakeTrace(Sender<Vec<ObsEvent>>),
    /// Freeze and hand over the site's metrics + flight-recorder snapshot.
    /// Control is served whatever the site's state, so it works even while
    /// the site is marked down — exactly when the flight recorder is most
    /// interesting.
    QueryObs(Sender<MachineSnapshot>),
    /// Process crash + restart: drop the machine, the store, and every
    /// timer, then re-open from the site's durable storage. Replies `true`
    /// when the site actually restarted from disk; a memory-backed site
    /// replies `false` and keeps its state (there is nothing to restart
    /// *from* — losing everything would be a disaster, not a crash). So
    /// does a site whose re-open fails: it stays down, and a later
    /// `KillRestart` with the fault gone brings it back.
    KillRestart(Sender<bool>),
    /// Stop the site.
    Shutdown,
}

/// Static site parameters.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// This site's id (0-based).
    pub site: usize,
    /// Group size `G`.
    pub group_size: usize,
    /// Block rows.
    pub rows: u64,
    /// Block size in bytes.
    pub block_size: usize,
    /// Endpoint id of site 0 (clients occupy the endpoints below it).
    pub ep_base: usize,
    /// Parity-update coalescing policy. Deployments and harnesses default
    /// to [`CoalescePolicy::Merge`] (queued masks for a row XOR-merge while
    /// an update is in flight); differential harnesses pass
    /// [`CoalescePolicy::Off`] to stay message-for-message identical to the
    /// DES interpreter.
    pub coalesce: CoalescePolicy,
    /// Storage backend: volatile memory (default) or a durable
    /// [`radd_storage::DiskBlocks`] directory that survives
    /// [`Control::KillRestart`] — and, for a standalone `radd-server`
    /// process, a plain `kill -9` + restart.
    pub storage: StorageSpec,
}

/// One site's interpreter state. See the module docs for the three entry
/// points; every call needs `&mut self`, so a runtime that calls from more
/// than one thread serialises them behind a lock of its own.
pub struct SiteDriver {
    cfg: SiteConfig,
    machine: SiteMachine,
    store: SiteStore,
    /// [`SiteMachine::durable_version`] as of the snapshot the store holds
    /// (`None` until it holds one): the skip rule in
    /// [`SiteDriver::commit`] compares against it.
    committed: Option<u64>,
    down: bool,
    /// Retransmit deadlines by outstanding tag.
    timers: BTreeMap<u64, Instant>,
    trace: Option<Vec<ObsEvent>>,
    /// Blocks the store holds as a message carried them, by row, each with
    /// the check it arrived under (see the module docs).
    kept_checks: BTreeMap<u64, (Bytes, u64)>,
    /// Always-on metrics + flight recorder, tapped off the effect stream.
    /// Recording is fixed-cost (dense counters, a ring overwrite), so it
    /// stays enabled even when nobody will ever snapshot it.
    obs: MachineObs,
}

impl SiteDriver {
    /// Open the site's store and build its machine from what is durable
    /// there (a fresh or memory-backed store starts from geometry). The
    /// site starts up, with no timer armed.
    pub fn open(cfg: SiteConfig) -> Result<SiteDriver, String> {
        let mut obs = MachineObs::new();
        let (store, machine, committed) = open_store(&cfg, &mut obs)?;
        Ok(SiteDriver {
            cfg,
            machine,
            store,
            committed,
            down: false,
            timers: BTreeMap::new(),
            trace: None,
            kept_checks: BTreeMap::new(),
            obs,
        })
    }

    /// Whether the site is marked down (deaf to protocol traffic).
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Mark the site down or back up.
    pub fn set_down(&mut self, down: bool) {
        self.down = down;
    }

    /// Believe peer site `peer` down or back
    /// ([`SiteMachine::set_peer_down`]).
    pub fn set_peer_down(&mut self, peer: usize, down: bool) {
        self.machine.set_peer_down(peer, down);
    }

    /// The site's protocol machine, for read-only queries.
    pub fn machine(&self) -> &SiteMachine {
        &self.machine
    }

    /// Snapshot this site's obs state under its canonical machine name.
    pub fn obs_snapshot(&mut self) -> MachineSnapshot {
        // Coalesced merges are counted inside the machine; mirror them
        // into the gauge at snapshot time.
        let merges = self.machine.coalesced_merges();
        self.obs.metrics().set_coalesced_merges(merges);
        // So is what the durable store has done.
        if let Some(st) = self.store.stats() {
            self.obs.metrics().set_storage(StorageSnapshot {
                commits: st.commits,
                log_bytes: st.log_bytes,
                checkpoints: st.checkpoints,
                direct: st.direct,
            });
        }
        self.obs.snapshot(&format!("site {}", self.cfg.site))
    }

    /// A message reached the site while another was being handled (the
    /// socket runtime: its reader thread found the site lock taken and
    /// waited `waited` for it).
    pub fn busy_arrival(&mut self, waited: Duration) {
        self.obs.metrics().site_busy_arrival(waited);
    }

    /// Interpret `out`; `arrived` is the block of the message that caused
    /// it, with its check, if the store may now hold that very buffer.
    fn interpret<T: Outbound>(&mut self, ep: &T, out: Vec<Effect>, arrived: Option<&(Bytes, u64)>) {
        let now = Instant::now();
        // The row a reply's block was read from: the receipt comes first.
        let mut read_row = None;
        for eff in out {
            if let Some(buf) = &mut self.trace {
                if let Some(e) = trace(&eff) {
                    buf.push(e);
                }
            }
            self.obs.effect(&eff);
            match eff {
                Effect::Send { to, msg, .. } => {
                    let dst = match to {
                        Dest::Site(s) => self.cfg.ep_base + s,
                        Dest::Peer(p) => p,
                    };
                    let block = block_of(&msg).filter(|block| !block.is_empty());
                    let kept = read_row
                        .and_then(|row| self.kept_checks.get(&row))
                        .filter(|(kept, _)| block.is_some_and(|block| same_buffer(kept, block)))
                        .map(|&(_, check)| check);
                    let _ = match kept {
                        Some(check) => {
                            self.obs.metrics().block_check_reused();
                            ep.send_checked(dst, &msg, check)
                        }
                        None => {
                            if block.is_some() {
                                self.obs.metrics().block_check_computed();
                            }
                            ep.send(dst, &msg)
                        }
                    };
                }
                Effect::SetTimer { tag, step } => {
                    self.timers.insert(tag, now + RETRANSMIT.delay(step));
                }
                Effect::ClearTimer { tag } => {
                    self.timers.remove(&tag);
                }
                // The machine already performed the I/O on the store; the
                // receipts say which row a reply's block came from and
                // which rows now hold something else.
                Effect::Read { row, .. } => read_row = Some(row),
                Effect::Write { row, purpose } => {
                    self.kept_checks.remove(&row);
                    let as_it_came = matches!(
                        purpose,
                        IoPurpose::WriteData | IoPurpose::SpareInstall | IoPurpose::Restore
                    );
                    if let (true, Some(arrived)) = (as_it_came, arrived) {
                        self.kept_checks.insert(row, arrived.clone());
                    }
                }
                Effect::DeferAck { .. } => {}
            }
        }
    }

    /// WAL rule: group-commit what the message staged (block writes + the
    /// durable half of the machine) *before* its effects are interpreted —
    /// no ack may leave the process ahead of the log record that justifies
    /// it. A message that staged nothing and left
    /// [`SiteMachine::durable_version`] where the last commit found it
    /// (`Read`, `Ack`, a probe, a replayed reply) has nothing to log and
    /// stops there. Any other logs what it touched:
    /// [`SiteMachine::drain_durable`] turns the machine's journal into the
    /// patch against the store's committed blob, which stays the only copy
    /// of the encoding (a write costs three `u64`s of XOR, not an O(rows)
    /// encode, compare and diff), and falls back to the whole encoding when
    /// the message changed the blob's shape. Debug builds encode whole on
    /// every call anyway and check that the skip, or the patch, was sound.
    /// A memory-backed store makes all of this a no-op, and its machine's
    /// journal is never drained.
    ///
    /// Returns `false` when the store failed the commit: the caller must
    /// drop the message's effects. The machine is now ahead of the disk and
    /// the store refuses further commits, so the site goes down — the single
    /// site failure the paper tolerates — until [`Control::KillRestart`]
    /// re-opens the store and rebuilds the machine from what is durable.
    fn commit(&mut self) -> bool {
        if !self.store.is_durable() {
            return true;
        }
        let version = self.machine.durable_version();
        if self.store.has_staged() || self.committed != Some(version) {
            let committed = self.store.meta().unwrap_or_default();
            let done = match self.machine.drain_durable(committed) {
                DurableDelta::Patch(patch) => self.store.commit_patch(patch),
                DurableDelta::Whole(blob) => self.store.commit(|| blob),
            };
            if let Err(e) = done {
                eprintln!(
                    "site {}: durable commit failed, going down: {e}",
                    self.cfg.site
                );
                self.obs.metrics().commit_failure();
                self.down = true;
                return false;
            }
            self.committed = Some(version);
        }
        debug_assert!(
            self.store.meta() == Some(&self.machine.durable_snapshot().encode()[..]),
            "site {}: the committed blob is not the machine's durable state",
            self.cfg.site
        );
        true
    }

    /// Handle one protocol message: stage its effects, commit, and only
    /// then release them through `ep`; a failed commit releases nothing.
    /// A down site answers nothing, and its own pending acks never arrive
    /// either — exactly a crashed process from the network's point of
    /// view. (The message is swallowed, not queued.)
    ///
    /// `block_check` is the check the message's block arrived under, when
    /// the network checks its frames: a block the site stores as it came
    /// (`Write`, `SpareInstall`, `RestoreBlock`) is later sent under it.
    pub fn deliver<T: Outbound>(&mut self, ep: &T, src: usize, msg: Msg, block_check: Option<u64>) {
        if self.down {
            return;
        }
        let arrived = match (&msg, block_check) {
            (
                Msg::Write { data, .. }
                | Msg::SpareInstall { data, .. }
                | Msg::RestoreBlock { data, .. },
                Some(check),
            ) => Some((data.clone(), check)),
            _ => None,
        };
        let mut out = Vec::new();
        self.machine.handle(&mut self.store, src, msg, &mut out);
        if self.commit() {
            self.interpret(ep, out, arrived.as_ref());
        }
    }

    /// Fire every retransmit timer whose deadline has passed. The resend
    /// may itself be dropped by loss injection, refused during a partition
    /// or vanish into a dead connection; either way the timer re-arms with
    /// a doubled delay, so convergence only needs the loss probability to
    /// be below certainty and partitions to eventually heal. A down site
    /// fires nothing (its timers keep their deadlines).
    pub fn fire_due_timers<T: Outbound>(&mut self, ep: &T) {
        if self.down {
            return;
        }
        let now = Instant::now();
        let due: Vec<u64> = self
            .timers
            .iter()
            .filter(|&(_, &at)| at <= now)
            .map(|(&tag, _)| tag)
            .collect();
        for tag in due {
            self.timers.remove(&tag);
            let mut out = Vec::new();
            self.machine.on_timer(tag, &mut out);
            self.interpret(ep, out, None);
        }
    }

    /// The earliest armed retransmit deadline: how long a runtime's timer
    /// thread may sleep before the next [`SiteDriver::fire_due_timers`].
    pub fn next_deadline(&self) -> Option<Instant> {
        self.timers.values().min().copied()
    }

    /// Serve one harness command. Returns `true` on [`Control::Shutdown`].
    pub fn serve(&mut self, cmd: Control) -> bool {
        match cmd {
            Control::SetDown(d, ack) => {
                self.down = d;
                let _ = ack.send(());
            }
            Control::PeerDown(peer, down, ack) => {
                self.set_peer_down(peer, down);
                let _ = ack.send(());
            }
            Control::QueryPending(reply) => {
                let _ = reply.send(self.machine.pending_writes());
            }
            Control::QueryAllAcked(reply) => {
                let _ = reply.send(self.machine.all_acked());
            }
            Control::RecordTrace(on, ack) => {
                self.trace = on.then(Vec::new);
                let _ = ack.send(());
            }
            Control::TakeTrace(reply) => {
                let buf = self.trace.replace(Vec::new()).unwrap_or_default();
                let _ = reply.send(buf);
            }
            Control::QueryObs(reply) => {
                let _ = reply.send(self.obs_snapshot());
            }
            Control::KillRestart(reply) => {
                let mut restarted = self.store.is_durable();
                if restarted {
                    // Crash: every volatile structure dies — the machine,
                    // the timer wheel, any staged-but-uncommitted writes
                    // inside the store. Restart: re-open from disk, which
                    // replays the committed log suffix and rebuilds the
                    // machine from the last durable snapshot (§3.4).
                    self.timers.clear();
                    self.kept_checks.clear();
                    match open_store(&self.cfg, &mut self.obs) {
                        Ok(reopened) => {
                            (self.store, self.machine, self.committed) = reopened;
                            self.down = false;
                        }
                        // The fault that took the site down may still be
                        // there. A process that cannot restart is a down
                        // site, not a dead thread: the old store and
                        // machine stay (deaf), and the next `KillRestart`
                        // tries again.
                        Err(e) => {
                            eprintln!("site {}: restart failed, staying down: {e}", self.cfg.site);
                            self.obs.metrics().commit_failure();
                            self.down = true;
                            restarted = false;
                        }
                    }
                }
                let _ = reply.send(restarted);
            }
            Control::Shutdown => return true,
        }
        false
    }
}

/// The block a message carries: the piece a framing transport checks on
/// its own.
fn block_of(msg: &Msg) -> Option<&Bytes> {
    match msg {
        Msg::Write { data, .. }
        | Msg::SpareInstall { data, .. }
        | Msg::RestoreBlock { data, .. }
        | Msg::ReadOk { data, .. }
        | Msg::BlockData { data, .. } => Some(data),
        Msg::ParityUpdate { mask_wire, .. } => Some(mask_wire),
        Msg::SpareState {
            slot: Some(slot), ..
        } => Some(&slot.data),
        _ => None,
    }
}

/// Whether `a` and `b` are one view of one buffer, not merely equal bytes.
/// Holding `a` keeps its buffer alive and unchanged, so no other buffer
/// can come to lie where it lies.
fn same_buffer(a: &Bytes, b: &Bytes) -> bool {
    a.as_ptr() == b.as_ptr() && a.len() == b.len()
}

/// Open (or re-open) the site's storage and rebuild the machine from its
/// durable snapshot, if one exists. Returns the store and the machine; on a
/// fresh (or memory-backed) store the machine starts from geometry. `Err`
/// when the store cannot be opened or its snapshot does not decode.
///
/// Each row the WAL replay re-applied is surfaced to `obs` as a
/// [`IoPurpose::LogReplay`] read receipt, so the flight recorder shows the
/// §3.4 recovery work a restart performed.
fn open_store(
    cfg: &SiteConfig,
    obs: &mut MachineObs,
) -> Result<(SiteStore, SiteMachine, Option<u64>), String> {
    let store = cfg
        .storage
        .for_site(cfg.site)
        .open(cfg.rows, cfg.block_size)
        .map_err(|e| format!("cannot open durable store: {e}"))?;
    let mut machine = match store.meta().map(DurableSiteState::decode) {
        Some(Ok(d)) => SiteMachine::restore_durable(d),
        Some(Err(e)) => return Err(format!("corrupt durable snapshot: {e}")),
        None => SiteMachine::new(cfg.site, cfg.group_size, cfg.rows, cfg.block_size),
    };
    for row in store.replayed_rows() {
        obs.effect(&Effect::Read {
            row: *row,
            purpose: IoPurpose::LogReplay,
        });
    }
    machine.set_coalesce(cfg.coalesce);
    // A store that holds a snapshot holds this machine's: it was restored
    // from it a few lines up.
    let committed = store.meta().map(|_| machine.durable_version());
    Ok((store, machine, committed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use radd_net::SendOutcome;
    use radd_parity::{ChangeMask, Uid, UidArray};
    use radd_protocol::{Blocks, SpareContent};
    use std::cell::{Cell, RefCell};

    /// An endpoint that counts what is sent through it.
    struct Sink(Cell<usize>);

    impl Outbound for Sink {
        fn id(&self) -> usize {
            1
        }
        fn ep_base(&self) -> usize {
            1
        }
        fn send(&self, _dst: usize, _msg: &Msg) -> SendOutcome {
            self.0.set(self.0.get() + 1);
            SendOutcome::Sent
        }
    }

    /// A commit the store fails takes the site down with the message's
    /// effects unsent and is counted; `KillRestart` brings the site back
    /// from what is durable, and while the fault lasts it fails without
    /// killing the site thread. The failure is the filesystem's own: with
    /// the checkpoint threshold at 0 every commit ends in a checkpoint, and
    /// a directory squatting on `state.tmp` makes that checkpoint fail (and
    /// the re-open's `remove_file` of it too).
    #[test]
    fn a_failed_commit_takes_the_site_down_until_kill_restart() {
        let root = std::env::temp_dir().join(format!("radd-site-commit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = SiteConfig {
            site: 0,
            group_size: 4,
            rows: 12,
            block_size: 64,
            ep_base: 1,
            coalesce: CoalescePolicy::Merge,
            storage: StorageSpec::Disk { dir: root.clone() },
        };
        let mut st = SiteDriver::open(cfg).expect("fresh store opens");
        let SiteStore::Disk(disk) = &mut st.store else {
            panic!("a disk spec opens a disk store");
        };
        disk.set_checkpoint_bytes(0);
        let ep = Sink(Cell::new(0));
        let write = |index: u64, fill: u8| Msg::Write {
            index,
            data: vec![fill; 64].into(),
            tag: index + 1,
        };

        st.deliver(&ep, 0, write(0, 0xA1), None);
        let sent = ep.0.get();
        assert!(sent > 0, "a healthy write ships its parity update");

        let squatter = root.join("site-0").join("state.tmp");
        std::fs::create_dir(&squatter).expect("squat on state.tmp");
        st.deliver(&ep, 0, write(1, 0xB2), None);
        assert!(st.is_down());
        assert_eq!(
            ep.0.get(),
            sent,
            "the failed message's effects were dropped"
        );
        assert_eq!(st.obs_snapshot().metrics.commit_failures, 1);

        // The fault is still there: the restart fails, is counted, and the
        // site stays down (and alive) on its old state.
        let (tx, rx) = std::sync::mpsc::channel();
        assert!(!st.serve(Control::KillRestart(tx)));
        assert!(!rx.recv().expect("restart reply"), "re-open failed");
        assert!(st.is_down());
        assert_eq!(st.obs_snapshot().metrics.commit_failures, 2);

        std::fs::remove_dir(&squatter).expect("clear state.tmp");
        let (tx, rx) = std::sync::mpsc::channel();
        assert!(!st.serve(Control::KillRestart(tx)));
        assert!(rx.recv().expect("restart reply"), "restarted from disk");
        assert!(!st.is_down());
        let row = st.machine.geometry().data_to_physical(0, 0);
        assert_eq!(&st.store.read(row).expect("in range")[..], &[0xA1; 64][..]);
        st.deliver(&ep, 0, write(2, 0xC3), None);
        assert!(!st.is_down(), "the restarted site commits again");
        assert!(ep.0.get() > sent);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A disk site's snapshot carries its store's counters: as the data
    /// site of N healthy 4 KiB writes it commits N batches of nine
    /// 512-byte sectors (one block record, a metadata record and the
    /// marker, under 4 608 bytes of records), and a memory
    /// site has no storage section at all.
    #[test]
    fn a_disk_site_snapshot_counts_its_commits_and_log_bytes() {
        const N: u64 = 6;
        let root = std::env::temp_dir().join(format!("radd-site-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut st = SiteDriver::open(SiteConfig {
            site: 0,
            group_size: 4,
            rows: 12,
            block_size: 4096,
            ep_base: 1,
            coalesce: CoalescePolicy::Merge,
            storage: StorageSpec::Disk { dir: root.clone() },
        })
        .expect("fresh store opens");
        let ep = Sink(Cell::new(0));
        let before = st.obs_snapshot().metrics.storage.expect("a disk site");
        for index in 0..N {
            st.deliver(
                &ep,
                0,
                Msg::Write {
                    index,
                    data: vec![index as u8; 4096].into(),
                    tag: index + 1,
                },
                None,
            );
        }
        let after = st.obs_snapshot().metrics.storage.expect("a disk site");
        assert_eq!(after.commits - before.commits, N);
        let SiteStore::Disk(disk) = &st.store else {
            panic!("a disk spec opens a disk store");
        };
        assert_eq!(after.log_bytes - before.log_bytes, N * 4608);
        assert_eq!(after.direct, disk.stats().direct);
        assert_eq!(mem_site(0).obs_snapshot().metrics.storage, None);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// An endpoint that records each send and the block check it went
    /// out under, if any.
    #[derive(Default)]
    struct Recorder(RefCell<Vec<(Msg, Option<u64>)>>);

    impl Outbound for Recorder {
        fn id(&self) -> usize {
            1
        }
        fn ep_base(&self) -> usize {
            1
        }
        fn send(&self, _dst: usize, msg: &Msg) -> SendOutcome {
            self.0.borrow_mut().push((msg.clone(), None));
            SendOutcome::Sent
        }
        fn send_checked(&self, _dst: usize, msg: &Msg, check: u64) -> SendOutcome {
            self.0.borrow_mut().push((msg.clone(), Some(check)));
            SendOutcome::Sent
        }
    }

    impl Recorder {
        /// The one reply `deliver` sent last, its block and its check.
        fn reply(&self) -> (Bytes, Option<u64>) {
            match self.0.borrow_mut().pop() {
                Some((msg, check)) => (block_of(&msg).expect("a block reply").clone(), check),
                None => panic!("nothing was sent"),
            }
        }
    }

    fn mem_site(site: usize) -> SiteDriver {
        SiteDriver::open(SiteConfig {
            site,
            group_size: 2,
            rows: 8,
            block_size: 64,
            ep_base: 1,
            coalesce: CoalescePolicy::Merge,
            storage: StorageSpec::Mem,
        })
        .expect("a memory store opens")
    }

    const CHECK: u64 = 0xC0FF_EE00_D15C_0123;

    /// A data site reads a block back under the check it was written with
    /// only while the store holds that very buffer: a rewrite that came
    /// without a check, or a buffer of equal bytes, goes out computed.
    #[test]
    fn a_kept_check_goes_out_only_with_the_buffer_it_came_with() {
        let mut st = mem_site(0);
        let ep = Recorder::default();
        let data = Bytes::from(vec![0xA5; 64]);
        let write = |data: &Bytes, tag| Msg::Write {
            index: 0,
            data: data.clone(),
            tag,
        };
        st.deliver(&ep, 0, write(&data, 1), Some(CHECK));
        let row = st.machine.geometry().data_to_physical(0, 0);
        assert!(st.kept_checks.contains_key(&row));
        st.deliver(&ep, 0, Msg::Read { index: 0, tag: 2 }, None);
        let (sent, check) = ep.reply();
        assert!(
            same_buffer(&sent, &data),
            "the stored buffer is the one read"
        );
        assert_eq!(check, Some(CHECK));
        // Another read of another row finds nothing kept.
        st.deliver(&ep, 0, Msg::Read { index: 1, tag: 3 }, None);
        assert_eq!(ep.reply().1, None);

        // Equal bytes in another buffer are not the block that arrived.
        let twin = Bytes::from(vec![0xA5; 64]);
        st.kept_checks.insert(row, (twin, CHECK));
        st.deliver(&ep, 0, Msg::Read { index: 0, tag: 4 }, None);
        assert_eq!(ep.reply().1, None);

        // A rewrite without a check forgets the row.
        st.deliver(&ep, 0, write(&data, 1), Some(CHECK));
        st.deliver(&ep, 0, write(&Bytes::from(vec![0x5A; 64]), 5), None);
        assert!(!st.kept_checks.contains_key(&row));
        st.deliver(&ep, 0, Msg::Read { index: 0, tag: 6 }, None);
        assert_eq!(ep.reply().1, None);
        let metrics = st.obs_snapshot().metrics;
        assert_eq!(metrics.block_checks_reused, 1);
        assert!(metrics.block_checks_computed >= 3, "{metrics:?}");
    }

    /// At a parity site a restored block is sent under its check until a
    /// parity update applies to the row, and a spare's installed block
    /// until a restore of the row that came without one.
    #[test]
    fn a_parity_apply_or_a_restore_forgets_the_kept_check() {
        let geo = *mem_site(0).machine.geometry();
        let row = 0;
        let parity = geo.parity_site(row);
        let from = geo.data_sites(row)[0];
        let mut st = mem_site(parity);
        let ep = Recorder::default();
        let uids = UidArray::new(geo.num_sites());
        let old = Bytes::from(vec![0x11; 64]);
        st.deliver(
            &ep,
            0,
            Msg::RestoreBlock {
                row,
                data: old.clone(),
                content: SpareContent::Parity { uids },
                tag: 1,
            },
            Some(CHECK),
        );
        st.deliver(&ep, 0, Msg::BlockRead { row, tag: 2 }, None);
        assert_eq!(ep.reply().1, Some(CHECK));
        let update = Msg::ParityUpdate {
            row,
            mask_wire: ChangeMask::diff(&old, &[0x22; 64]).encode(),
            uid: Uid::from_raw(77),
            from_site: from,
            tag: 3,
        };
        st.deliver(&ep, 1 + from, update, None);
        st.deliver(&ep, 0, Msg::BlockRead { row, tag: 4 }, None);
        let (applied, check) = ep.reply();
        assert_eq!(check, None, "the applied parity is another block");
        assert_ne!(applied, old);

        let spare_row = (0..8)
            .find(|&r| geo.spare_site(r) == 0)
            .expect("site 0 spares a row");
        let mut spare = mem_site(0);
        let install = Msg::SpareInstall {
            row: spare_row,
            for_site: geo.data_sites(spare_row)[0],
            data: Bytes::from(vec![0x44; 64]),
            content: SpareContent::Data {
                uid: Uid::from_raw(5),
            },
            tag: 1,
        };
        spare.deliver(&ep, 0, install, Some(CHECK));
        let probe = |tag| Msg::SpareProbe {
            row: spare_row,
            want_data: true,
            tag,
        };
        spare.deliver(&ep, 0, probe(2), None);
        assert_eq!(ep.reply().1, Some(CHECK));
        let restore = Msg::RestoreBlock {
            row: spare_row,
            data: Bytes::from(vec![0x44; 64]),
            content: SpareContent::Data {
                uid: Uid::from_raw(6),
            },
            tag: 3,
        };
        spare.deliver(&ep, 0, restore, None);
        assert!(!spare.kept_checks.contains_key(&spare_row));
    }

    /// A crash forgets every kept check with the rest of what was volatile.
    #[test]
    fn kill_restart_forgets_every_kept_check() {
        let root = std::env::temp_dir().join(format!("radd-site-checks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut st = SiteDriver::open(SiteConfig {
            site: 0,
            group_size: 2,
            rows: 8,
            block_size: 64,
            ep_base: 1,
            coalesce: CoalescePolicy::Merge,
            storage: StorageSpec::Disk { dir: root.clone() },
        })
        .expect("fresh store opens");
        let ep = Recorder::default();
        let data = Bytes::from(vec![0x7E; 64]);
        let write = Msg::Write {
            index: 0,
            data,
            tag: 1,
        };
        st.deliver(&ep, 0, write, Some(CHECK));
        st.deliver(&ep, 0, Msg::Read { index: 0, tag: 2 }, None);
        assert_eq!(ep.reply().1, Some(CHECK));
        let (tx, rx) = std::sync::mpsc::channel();
        assert!(!st.serve(Control::KillRestart(tx)));
        assert!(rx.recv().expect("restart reply"), "restarted from disk");
        assert!(st.kept_checks.is_empty());
        st.deliver(&ep, 0, Msg::Read { index: 0, tag: 3 }, None);
        let (sent, check) = ep.reply();
        assert_eq!((&sent[..], check), (&[0x7E; 64][..], None));
        let _ = std::fs::remove_dir_all(&root);
    }
}
