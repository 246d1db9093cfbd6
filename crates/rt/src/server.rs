//! The per-site server thread for the socket runtime.
//!
//! Protocol behaviour is untouched from the threaded runtime: all of it —
//! W1–W4 deferred acks, the parity UID idempotence guard, stop-and-wait
//! per-row retransmission, spare slots, the at-most-once reply cache —
//! lives in [`radd_protocol::SiteMachine`], and the loop here mirrors
//! `radd_node::site::run_site` move for move (drain control, fire due
//! timers, feed one inbound message). What changes is the substrate: the
//! endpoint is a real [`SocketEndpoint`], and a second, *wire* control
//! plane answers [`CtlReq`] frames from `radd-cli` so a standalone
//! `radd-server` process can be inspected and administered remotely.
//!
//! Both control planes answer even while the site is marked down — a down
//! site is deaf to the protocol, not to its operator.

use crate::frame::{CtlRep, CtlReq, Frame};
use crate::net::{Inbound, SocketEndpoint};
use radd_net::RetryPolicy;
use radd_obs::{MachineObs, MachineSnapshot, ObsSnapshot};
use radd_protocol::{
    trace, CoalescePolicy, Dest, DurableSiteState, Effect, IoPurpose, SiteMachine, TraceEntry,
};
use radd_storage::{SiteStore, StorageSpec};
use std::collections::BTreeMap;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// Retransmission schedule for unacked parity updates — the shared policy,
/// so the threaded and socket runtimes stay tuned together.
const RETRANSMIT: RetryPolicy = RetryPolicy::SITE_RETRANSMIT;

/// Control-plane commands (out of band, from an in-process harness). The
/// vocabulary matches `radd_node::site::Control` so the cluster harnesses
/// stay interchangeable; standalone processes speak [`CtlReq`] over the
/// wire instead.
#[derive(Debug)]
pub enum Control {
    /// Mark the site down (refuse protocol messages) or back up. The ack
    /// channel makes the transition synchronous: the harness knows the
    /// site has crossed the boundary before it issues further traffic.
    SetDown(bool, std::sync::mpsc::Sender<()>),
    /// Report how many writes are still waiting for a parity ack.
    QueryPending(std::sync::mpsc::Sender<usize>),
    /// Report whether no request of this site is awaiting an ack
    /// ([`SiteMachine::all_acked`]).
    QueryAllAcked(std::sync::mpsc::Sender<bool>),
    /// Start (`true`) or stop recording the site's normalised effect trace
    /// (for differential tests against the DES and threaded interpreters).
    RecordTrace(bool, std::sync::mpsc::Sender<()>),
    /// Hand over the recorded trace, clearing the buffer.
    TakeTrace(std::sync::mpsc::Sender<Vec<TraceEntry>>),
    /// Freeze and hand over the site's metrics + flight-recorder snapshot.
    QueryObs(std::sync::mpsc::Sender<MachineSnapshot>),
    /// Process crash + restart: drop the machine, the store, and every
    /// timer, then re-open from the site's durable storage. Replies `true`
    /// when the site actually restarted from disk; a memory-backed site
    /// replies `false` and keeps its state.
    KillRestart(std::sync::mpsc::Sender<bool>),
    /// Stop the thread.
    Shutdown,
}

/// Static site parameters (the socket twin of `radd_node`'s `SiteConfig`).
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
    /// Parity-update coalescing policy. Differential harnesses pass
    /// [`CoalescePolicy::Off`] to stay message-for-message identical to
    /// the DES interpreter; deployments default to `Merge`.
    pub coalesce: CoalescePolicy,
    /// Storage backend: volatile memory (default) or a durable
    /// [`radd_storage::DiskBlocks`] directory that survives
    /// [`Control::KillRestart`] — and, for a standalone `radd-server`
    /// process, a plain `kill -9` + restart.
    pub storage: StorageSpec,
}

struct SiteDriver {
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
    trace: Option<Vec<TraceEntry>>,
    /// Always-on metrics + flight recorder, tapped off the effect stream.
    obs: MachineObs,
}

impl SiteDriver {
    fn interpret(&mut self, ep: &SocketEndpoint, out: Vec<Effect>) {
        let now = Instant::now();
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
                    let _ = ep.send(dst, &msg);
                }
                Effect::SetTimer { tag, step } => {
                    self.timers.insert(tag, now + RETRANSMIT.delay(step));
                }
                Effect::ClearTimer { tag } => {
                    self.timers.remove(&tag);
                }
                // The machine already performed the I/O on the store; the
                // receipts matter only to cost-accounting drivers.
                Effect::Read { .. } | Effect::Write { .. } | Effect::DeferAck { .. } => {}
                // Disk-fault escalations cannot happen here: the store
                // never faults in-range and this runtime injects no disk
                // failures.
                Effect::NeedParityRebuild { .. } | Effect::ParityUnservable { .. } => {
                    debug_assert!(false, "disk-fault escalation in a faultless runtime");
                }
            }
        }
    }

    /// WAL rule: group-commit what the message staged (block writes + the
    /// durable half of the machine) *before* its effects are interpreted —
    /// no ack may leave the process ahead of the log record that justifies
    /// it. A message that staged nothing and left
    /// [`SiteMachine::durable_version`] where the last commit found it
    /// (`Read`, `Ack`, a probe, a replayed reply) has nothing to log, and
    /// skips the O(rows) snapshot encode that `commit` would need to find
    /// that out. Debug builds encode anyway and check the skip was sound.
    /// A memory-backed store makes all of this a no-op.
    fn commit(&mut self) {
        let version = self.machine.durable_version();
        if !self.store.has_staged() && self.committed == Some(version) {
            debug_assert!(
                self.store
                    .meta()
                    .is_none_or(|m| m == self.machine.durable_snapshot().encode()),
                "site {}: durable state moved under an unchanged version",
                self.cfg.site
            );
            return;
        }
        if let Err(e) = self
            .store
            .commit(|| self.machine.durable_snapshot().encode())
        {
            panic!("site {}: durable commit failed: {e}", self.cfg.site);
        }
        self.committed = Some(version);
    }

    /// Fire every retransmit timer whose deadline has passed. The resend
    /// may vanish in the fault proxy or a dead connection; the timer
    /// re-arms on the policy schedule, so convergence only needs loss to
    /// stay below certainty and partitions to eventually heal.
    fn fire_due_timers(&mut self, ep: &SocketEndpoint) {
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
            self.interpret(ep, out);
        }
    }

    /// Snapshot this site's obs state under its canonical machine name.
    fn obs_snapshot(&mut self) -> MachineSnapshot {
        let merges = self.machine.coalesced_merges();
        self.obs.metrics().set_coalesced_merges(merges);
        self.obs.snapshot(&format!("site {}", self.cfg.site))
    }

    /// Answer one wire control request. Returns `true` when the request
    /// asked the server to shut down.
    fn serve_ctl(&mut self, rid: u64, req: &CtlReq, reply: &crate::net::WriteHalf) -> bool {
        let (rep, stop) = match *req {
            CtlReq::Ping => (CtlRep::Pong { down: self.down }, false),
            CtlReq::QueryPending => (CtlRep::Pending(self.machine.pending_writes() as u64), false),
            CtlReq::QueryAllAcked => (CtlRep::AllAcked(self.machine.all_acked()), false),
            CtlReq::SetDown(d) => {
                self.down = d;
                (CtlRep::Done, false)
            }
            CtlReq::QueryObsJson => {
                let snap = ObsSnapshot {
                    machines: vec![self.obs_snapshot()],
                };
                (CtlRep::ObsJson(snap.to_json()), false)
            }
            CtlReq::Shutdown => (CtlRep::Done, true),
        };
        let _ = reply.write(&Frame::CtlRep { rid, rep });
        stop
    }
}

/// Open (or re-open) the site's storage and rebuild the machine from its
/// durable snapshot, if one exists. Rows replayed from the WAL surface to
/// `obs` as [`IoPurpose::LogReplay`] read receipts — the §3.4 recovery
/// work a restart performed.
fn open_store(cfg: &SiteConfig, obs: &mut MachineObs) -> (SiteStore, SiteMachine, Option<u64>) {
    let store = cfg
        .storage
        .for_site(cfg.site)
        .open(cfg.rows, cfg.block_size)
        .unwrap_or_else(|e| panic!("site {}: cannot open durable store: {e}", cfg.site));
    let mut machine = match store.meta().map(DurableSiteState::decode) {
        Some(Ok(d)) => SiteMachine::restore_durable(&d),
        Some(Err(e)) => panic!("site {}: corrupt durable snapshot: {e}", cfg.site),
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
    (store, machine, committed)
}

/// Run the site event loop until shutdown (by [`Control::Shutdown`], a
/// wire [`CtlReq::Shutdown`], or the control channel disconnecting).
pub fn run_site(cfg: SiteConfig, ep: &SocketEndpoint, control: &Receiver<Control>) {
    let mut obs = MachineObs::new();
    let (store, machine, committed) = open_store(&cfg, &mut obs);
    let mut st = SiteDriver {
        machine,
        store,
        committed,
        down: false,
        timers: BTreeMap::new(),
        trace: None,
        obs,
        cfg,
    };
    loop {
        // Drain the whole control backlog first (non-blocking), then serve
        // protocol traffic.
        loop {
            match control.try_recv() {
                Ok(Control::SetDown(d, ack)) => {
                    st.down = d;
                    let _ = ack.send(());
                }
                Ok(Control::QueryPending(reply)) => {
                    let _ = reply.send(st.machine.pending_writes());
                }
                Ok(Control::QueryAllAcked(reply)) => {
                    let _ = reply.send(st.machine.all_acked());
                }
                Ok(Control::RecordTrace(on, ack)) => {
                    st.trace = if on { Some(Vec::new()) } else { None };
                    let _ = ack.send(());
                }
                Ok(Control::TakeTrace(reply)) => {
                    let buf = st.trace.replace(Vec::new()).unwrap_or_default();
                    let _ = reply.send(buf);
                }
                Ok(Control::QueryObs(reply)) => {
                    let snap = st.obs_snapshot();
                    let _ = reply.send(snap);
                }
                Ok(Control::KillRestart(reply)) => {
                    if st.store.is_durable() {
                        // Crash: the machine, the timer wheel and any
                        // uncommitted staged writes die. Restart: re-open
                        // from disk, replaying the committed WAL suffix
                        // and rebuilding the machine from the last
                        // durable snapshot (§3.4).
                        st.timers.clear();
                        (st.store, st.machine, st.committed) = open_store(&st.cfg, &mut st.obs);
                        st.down = false;
                        let _ = reply.send(true);
                    } else {
                        let _ = reply.send(false);
                    }
                }
                Ok(Control::Shutdown) => return,
                Err(std::sync::mpsc::TryRecvError::Disconnected) => return,
                Err(std::sync::mpsc::TryRecvError::Empty) => break,
            }
        }
        if !st.down {
            st.fire_due_timers(ep);
        }
        let Ok(inbound) = ep.recv_timeout(Duration::from_millis(20)) else {
            continue;
        };
        match inbound {
            // Wire control is served even while down — a down site is deaf
            // to the protocol, not to its operator.
            Inbound::Ctl { rid, req, reply } => {
                if st.serve_ctl(rid, &req, &reply) {
                    return;
                }
            }
            Inbound::Proto { src, msg } => {
                // A down site answers nothing, and its own pending acks
                // never arrive either — exactly a crashed process from the
                // network's point of view.
                if st.down {
                    continue;
                }
                let mut out = Vec::new();
                st.machine.handle(&mut st.store, src, msg, &mut out);
                st.commit();
                st.interpret(ep, out);
            }
        }
    }
}
