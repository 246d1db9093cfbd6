//! The client library: a [`ClientMachine`] bound to a real endpoint, over
//! any [`Transport`]. One source file, compiled into both async runtimes
//! (DESIGN.md §12).
//!
//! All §3.2/§3.3 client logic — degraded reads via spare or validated
//! reconstruction, W1' redirected writes, the recovery drain — lives in
//! [`radd_protocol::ClientMachine`]. This module supplies its
//! [`ClientIo`]: requests are retried with a growing per-attempt timeout
//! ([`RetryPolicy::CLIENT_ATTEMPT`]) before the client gives up, so lost
//! messages delay operations instead of failing them. Each wait names the
//! site whose reply it wants ([`Transport::recv_from`]), so a transport
//! that reads per connection can do so on the calling thread; whatever
//! else arrives meanwhile is stashed by tag. Every request the
//! client can resend is idempotent on the receiving site: reads and probes
//! trivially, `SpareInstall` and `RestoreBlock` by overwriting with
//! identical contents, `ParityUpdate` by the parity site's UID comparison,
//! duplicates of anything else by the site's reply cache. The one
//! destructive request, `SpareTake`, is only issued *after* the block it
//! covers has been restored, so a lost reply costs nothing.
//!
//! Two degraded-path rules keep retries from compounding:
//!
//! * a send that comes back [`SendOutcome::Closed`] fails the request
//!   immediately — such an endpoint can never answer, so burning the
//!   timeout ladder only adds latency (a *partitioned* or redialling link
//!   reports `Sent` and keeps retrying: partitions heal);
//! * a batch ([`ClientIo::exchange_batch`]) shares **one** attempt budget
//!   per site across all of its entries, and short-circuits the remaining
//!   entries for a site that already exhausted it — a G-way degraded read
//!   with one down site pays one ladder, not one per entry.
//!
//! Both rules live in one ladder (`NetIo::ladder`). A single
//! [`ClientIo::exchange`] is its one-entry case: a fresh budget, and the
//! ladder makes the first send itself.
//!
//! Every wire attempt, retransmission, stash eviction and `Closed` send is
//! recorded in a per-client [`radd_obs::MachineObs`]; see
//! [`Client::obs_snapshot`].

use radd_net::{RetryPolicy, SendOutcome, Transport};
use radd_obs::{MachineObs, MachineSnapshot};
use radd_protocol::obs::ObsEvent;
use radd_protocol::{
    check_stripe_parity, ClientErr, ClientIo, ClientMachine, Msg, RebuildReport, SparePolicy,
};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// §3.3 retry budget for inconsistent reconstruction reads.
const RECONSTRUCT_RETRIES: u32 = 20;
/// Replies stashed beyond this count have their oldest entries dropped
/// (stale duplicates, e.g. a second `WriteOk` from a retransmitted write).
const STASH_CAP: usize = 512;
/// Tag-space bit marking requests minted outside the protocol machine
/// (oracle sweeps like [`Client::verify_parity`]).
const ORACLE_TAG_BIT: u64 = 1 << 46;
/// Client UID namespaces count *down* from `u16::MAX` while site machines
/// count *up* from their site id. This cap keeps the two pools provably
/// disjoint and — more importantly — keeps the `u16` conversion exact: a
/// truncated endpoint id would alias another client's namespace and break
/// the §3.2 requirement that UIDs never repeat across writers.
const MAX_CLIENT_NAMESPACES: usize = 4096;

/// The UID namespace for the client on endpoint `ep_id` — the same on
/// every transport, a precondition for byte-identical differential traces.
/// Panics when the endpoint id would not map injectively into the client
/// pool.
fn client_uid_namespace(ep_id: usize) -> u16 {
    assert!(
        ep_id < MAX_CLIENT_NAMESPACES,
        "client endpoint id {ep_id} exceeds the {MAX_CLIENT_NAMESPACES}-entry \
         UID namespace pool; truncating it would alias another writer's \
         namespace and break §3.2 UID uniqueness"
    );
    u16::MAX - ep_id as u16
}

/// The machine's transport: request/reply over an endpoint with retry and
/// backoff.
struct NetIo<T> {
    ep: T,
    /// Replies that arrived while we were waiting for a different tag —
    /// fan-out responses come back in arbitrary order — oldest first, at
    /// most one per tag.
    stash: VecDeque<Msg>,
    /// Attempt-ladder tuning — [`RetryPolicy::CLIENT_ATTEMPT`] in
    /// production; tests inject shrunken schedules.
    policy: RetryPolicy,
    stash_cap: usize,
    /// Per-client metrics + flight recorder.
    obs: MachineObs,
}

impl<T: Transport> NetIo<T> {
    fn new(ep: T) -> NetIo<T> {
        NetIo {
            ep,
            stash: VecDeque::new(),
            policy: RetryPolicy::CLIENT_ATTEMPT,
            stash_cap: STASH_CAP,
            obs: MachineObs::new(),
        }
    }

    /// A stashed reply for `tag`, if one already arrived out of band.
    fn take_stashed(&mut self, tag: u64) -> Option<Msg> {
        let at = self.stash.iter().position(|m| m.tag() == tag)?;
        self.stash.remove(at)
    }

    /// Keep a reply to some *other* outstanding request for its own `wait`
    /// call. A second reply for a tag (the answer to a retransmission)
    /// replaces the first instead of taking another slot; past the cap the
    /// oldest reply is dropped and counted — its request, if still
    /// outstanding, recovers by retransmission.
    fn stash(&mut self, msg: Msg) {
        if let Some(slot) = self.stash.iter_mut().find(|m| m.tag() == msg.tag()) {
            *slot = msg;
            return;
        }
        self.stash.push_back(msg);
        if self.stash.len() > self.stash_cap {
            self.stash.pop_front();
            self.obs.metrics().stash_eviction();
        }
    }

    /// One wire attempt: record it, send it, classify the outcome.
    fn send_attempt(&mut self, site: usize, msg: &Msg, retransmit: bool) -> SendOutcome {
        self.obs.event(ObsEvent::client_send(site, msg, retransmit));
        let out = self.ep.send(self.ep.ep_base() + site, msg);
        if out == SendOutcome::Closed {
            self.obs.metrics().send_failure();
        }
        out
    }

    /// Wait for `site`'s reply carrying `tag`. The transport is told which
    /// site is awaited ([`Transport::recv_from`]): a socket client reads
    /// that site's connection on this thread and leaves other sites'
    /// replies unread until their own `wait`, which is the order a batch
    /// collects in anyway. Replies to *other* outstanding requests that do
    /// turn up are stashed for their own `wait` calls; only a reply whose
    /// tag was never issued is truly stale.
    fn wait(&mut self, site: usize, tag: u64, timeout: Duration) -> Option<Msg> {
        if let Some(m) = self.take_stashed(tag) {
            return Some(m);
        }
        let peer = self.ep.ep_base() + site;
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let msg = self.ep.recv_from(peer, left)?.msg;
            if msg.tag() == tag {
                return Some(msg);
            }
            self.stash(msg);
        }
    }

    /// The retry ladder: await `site`'s reply to `msg`, resending with a
    /// growing window until a reply arrives or the site's attempt budget is
    /// spent. `used` is that budget — windows expired so far, `attempts`
    /// once the site is given up on — and a reply refills it. `sent` says
    /// the first attempt is already on the wire (a batch's pipelined send);
    /// otherwise window 0 opens with it. All retried requests are
    /// idempotent at the receiver (see the module docs). A closed channel
    /// spends the budget at once — no answer can ever arrive on it — and a
    /// spent budget still takes a reply that was stashed meanwhile.
    fn ladder(
        &mut self,
        site: usize,
        msg: &Msg,
        sent: bool,
        used: &mut u32,
    ) -> Result<Msg, ClientErr> {
        let tag = msg.tag();
        loop {
            let k = *used;
            if k >= self.policy.attempts {
                return self.take_stashed(tag).ok_or(ClientErr::Timeout { site });
            }
            if (k > 0 || !sent) && self.send_attempt(site, msg, k > 0) == SendOutcome::Closed {
                *used = self.policy.attempts;
                continue;
            }
            if let Some(reply) = self.wait(site, tag, self.policy.delay(k)) {
                *used = 0;
                return Ok(reply);
            }
            *used += 1;
        }
    }
}

impl<T: Transport> ClientIo for NetIo<T> {
    fn exchange(&mut self, site: usize, msg: Msg, _background: bool) -> Result<Msg, ClientErr> {
        self.ladder(site, &msg, false, &mut 0)
    }

    /// Pipelined batch: every request goes on the wire before any reply is
    /// awaited, so the target sites serve them concurrently. Replies are
    /// then collected in request order; out-of-order arrivals land in the
    /// tag-keyed stash exactly as fan-out replies always have.
    ///
    /// Retries share **one** attempt budget per site across the whole
    /// batch: when several entries target a site that is down, the first
    /// entry's ladder spends the budget and every later entry for that
    /// site short-circuits to `Timeout` (after checking the stash — its
    /// reply may have arrived while an earlier entry waited). Without
    /// this, a G-way degraded read against one dead site would serialise G
    /// full retry ladders. The budget counts *expired windows only*, and a
    /// reply refills it: a healthy site must be able to answer a batch of
    /// any width, not just `attempts` entries (a wide recovery drain once
    /// burned the whole budget on its first twelve successful probes and
    /// synthesised timeouts for the rest of the wave).
    fn exchange_batch(
        &mut self,
        reqs: Vec<(usize, Msg)>,
        _background: bool,
    ) -> Vec<Result<Msg, ClientErr>> {
        // One budget per site, indexed by site: a batch spans one group.
        let sites = reqs.iter().map(|(site, _)| site + 1).max().unwrap_or(0);
        let mut used = vec![0u32; sites];
        for (site, msg) in &reqs {
            if used[*site] < self.policy.attempts
                && self.send_attempt(*site, msg, false) == SendOutcome::Closed
            {
                used[*site] = self.policy.attempts;
            }
        }
        reqs.into_iter()
            .map(|(site, msg)| self.ladder(site, &msg, true, &mut used[site]))
            .collect()
    }
    // old_value stays `None`: these runtimes have no buffer-pool oracle, so
    // degraded writes fetch the old value through the protocol.
}

/// §3.3: an `Inconsistent` reconstruction means a parity update is in
/// flight; back off and retry the whole operation, a bounded number of
/// times (the last `Inconsistent` is the error if it never settles).
fn until_consistent<R>(mut op: impl FnMut() -> Result<R, ClientErr>) -> Result<R, ClientErr> {
    let mut result = op();
    for _ in 1..RECONSTRUCT_RETRIES {
        if !matches!(result, Err(ClientErr::Inconsistent { .. })) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        result = op();
    }
    result
}

/// The cluster client over transport `T`.
pub struct Client<T> {
    machine: ClientMachine,
    io: NetIo<T>,
    block_size: usize,
    /// Tag counter for oracle sweeps issued outside the machine.
    next_oracle_tag: u64,
}

impl<T: Transport> Client<T> {
    /// Bind a client to `ep` for a `g`-site cluster with `rows` block rows
    /// of `block_size` bytes.
    pub fn new(ep: T, g: usize, rows: u64, block_size: usize) -> Client<T> {
        // Every client mints UIDs from its own namespace keyed by its
        // endpoint id, so concurrent clients never collide. Any "local
        // system" may mint UIDs, per §3.2 — uniqueness is all that matters.
        let uid_namespace = client_uid_namespace(ep.id());
        Client {
            machine: ClientMachine::new(
                g,
                rows,
                block_size,
                SparePolicy::OnePerParity,
                true,
                uid_namespace,
            ),
            io: NetIo::new(ep),
            block_size,
            next_oracle_tag: 0,
        }
    }

    /// Salt request tags with a restart incarnation (see
    /// [`ClientMachine::set_incarnation`]): standalone client processes
    /// must call this with something unique per start, or a site's
    /// at-most-once reply cache will replay answers meant for the previous
    /// process on the same endpoint id. Cluster harnesses, whose clients
    /// live as long as the sites, keep the default incarnation 0.
    pub fn set_incarnation(&mut self, incarnation: u64) {
        self.machine.set_incarnation(incarnation);
    }

    /// Tell the machine `site` is believed down (or back up). In a real
    /// deployment this input comes from a failure detector; tests and the
    /// fault driver set it explicitly.
    pub fn mark_down(&mut self, site: usize, down: bool) {
        self.machine.set_down(site, down);
    }

    /// Does the machine believe `site` down?
    pub(crate) fn believes_down(&self, site: usize) -> bool {
        self.machine.is_down(site)
    }

    /// Tell the machine `site` is back but recovering (§3.2): its reads and
    /// writes consult the row's spare first until [`recover`](Self::recover)
    /// has drained it and the caller marks the site up.
    pub fn mark_recovering(&mut self, site: usize) {
        self.machine.set_recovering(site);
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The cluster geometry.
    pub fn geometry(&self) -> &radd_layout::Geometry {
        self.machine.geometry()
    }

    /// Start recording this client's normalised request trace.
    pub fn record_trace(&mut self) {
        self.machine.record_trace();
    }

    /// Take the recorded trace, leaving recording enabled.
    pub fn take_trace(&mut self) -> Vec<ObsEvent> {
        self.machine.take_trace()
    }

    /// Freeze this client's metrics and flight recorder. Latency
    /// histograms hold wall-clock nanoseconds per completed operation.
    pub fn obs_snapshot(&self) -> MachineSnapshot {
        self.io.obs.snapshot("client")
    }

    /// Read the `index`-th data block of `site`. The block is handed over
    /// as it arrived: a reply block that nothing else holds (the socket
    /// runtime reads one into an allocation of its own) becomes the `Vec`
    /// without a copy.
    pub fn read(&mut self, site: usize, index: u64) -> Result<Vec<u8>, ClientErr> {
        let started = Instant::now();
        let block = until_consistent(|| self.machine.read(&mut self.io, site, index))?;
        self.io
            .obs
            .metrics()
            .record_read_latency(started.elapsed().as_nanos() as u64);
        Ok(block.into())
    }

    /// Write the `index`-th data block of `site`.
    pub fn write(&mut self, site: usize, index: u64, data: &[u8]) -> Result<(), ClientErr> {
        let started = Instant::now();
        until_consistent(|| self.machine.write(&mut self.io, site, index, data))?;
        self.io
            .obs
            .metrics()
            .record_write_latency(started.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Recovery drain for a revived site (§3.2's background process, driven
    /// from here): for every spare standing in for it, restore the block at
    /// the revived site first, *then* invalidate the spare — so a lost
    /// reply at any step leaves the data reachable and every step safe to
    /// retry. Returns the number of blocks drained.
    pub fn recover(&mut self, site: usize) -> Result<u64, ClientErr> {
        let drained = self.machine.recover(&mut self.io, site)?;
        self.io.obs.metrics().record_recovery(drained);
        Ok(drained)
    }

    /// Bulk-rebuild every data block a believed-down `site` owns into the
    /// row spares (§3.3 reconstruction fanned wave-by-wave, `wave_rows`
    /// rows per pipelined wave, across all survivors). Idempotent: rows
    /// already absorbed are skipped, so an `Inconsistent` fold (a parity
    /// update racing the rebuild) retries the whole pass cheaply.
    pub fn rebuild(&mut self, site: usize, wave_rows: usize) -> Result<RebuildReport, ClientErr> {
        let report =
            until_consistent(|| self.machine.rebuild_member(&mut self.io, site, wave_rows))?;
        self.io.obs.metrics().record_rebuild(&report);
        Ok(report)
    }

    fn oracle_tag(&mut self) -> u64 {
        self.next_oracle_tag += 1;
        ORACLE_TAG_BIT | self.next_oracle_tag
    }

    /// Verify the stripe invariant over every row by reading all blocks
    /// (requires every site up): [`check_stripe_parity`], the model
    /// checker's predicate, over `BlockRead`s. Returns the first violated
    /// row.
    pub fn verify_parity(&mut self) -> Result<(), String> {
        let geo = *self.machine.geometry();
        check_stripe_parity(&geo, &mut |site, row| {
            let tag = self.oracle_tag();
            match self.io.exchange(site, Msg::BlockRead { row, tag }, true) {
                Ok(Msg::BlockData { data, .. }) => Some(data.into()),
                _ => None,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radd_net::{Outbound, Received};
    use std::cell::{Cell, RefCell};
    use std::collections::HashSet;
    use std::rc::Rc;

    #[test]
    fn client_uid_namespaces_are_distinct_and_disjoint_from_sites() {
        assert_eq!(client_uid_namespace(0), u16::MAX);
        assert_eq!(client_uid_namespace(1), u16::MAX - 1);
        let mut seen = HashSet::new();
        for ep_id in 0..64 {
            let ns = client_uid_namespace(ep_id);
            assert!(seen.insert(ns), "namespace collision at endpoint {ep_id}");
            // Site machines mint from namespace = site id, counting up.
            assert!(
                (ns as usize) >= MAX_CLIENT_NAMESPACES,
                "client namespace {ns} would collide with a site namespace"
            );
        }
    }

    #[test]
    #[should_panic(expected = "UID namespace")]
    fn truncating_endpoint_ids_is_refused() {
        // 65536 would silently truncate to namespace u16::MAX - 0 — the
        // primary client's namespace. The checked allocator must refuse.
        let _ = client_uid_namespace(65536);
    }

    #[test]
    #[should_panic(expected = "UID namespace")]
    fn endpoint_ids_beyond_the_pool_are_refused() {
        let _ = client_uid_namespace(MAX_CLIENT_NAMESPACES);
    }

    /// The test transport: endpoint 0 of a one-client network whose sites
    /// are a script. Every send runs the script, which sees the request
    /// and may queue replies; `recv_from` hands queued replies over in
    /// order and otherwise sleeps the window out, as a silent network
    /// would. Single-threaded, so what the ladder sees is exactly what the
    /// script decided.
    struct Scripted<F> {
        script: RefCell<F>,
        inbox: RefCell<VecDeque<Msg>>,
    }

    impl<F: FnMut(&Msg, &mut VecDeque<Msg>) -> SendOutcome> Outbound for Scripted<F> {
        fn id(&self) -> usize {
            0
        }
        fn ep_base(&self) -> usize {
            1
        }
        fn send(&self, _dst: usize, msg: &Msg) -> SendOutcome {
            (self.script.borrow_mut())(msg, &mut self.inbox.borrow_mut())
        }
    }

    impl<F: FnMut(&Msg, &mut VecDeque<Msg>) -> SendOutcome> Transport for Scripted<F> {
        fn recv_from(&self, peer: usize, timeout: Duration) -> Option<Received> {
            let next = self.inbox.borrow_mut().pop_front();
            if next.is_none() {
                std::thread::sleep(timeout);
            }
            next.map(|msg| Received { src: peer, msg })
        }
    }

    /// A three-attempt ladder over `script` whose every window is
    /// `window_ms` long. Windows are real time: a test whose replies are
    /// always queued before the wait passes [`NEVER_EXPIRES`], so a loaded
    /// machine cannot turn a slow drain into a spurious retransmission.
    fn scripted_io<F>(script: F, window_ms: u64) -> NetIo<Scripted<F>>
    where
        F: FnMut(&Msg, &mut VecDeque<Msg>) -> SendOutcome,
    {
        let mut io = NetIo::new(Scripted {
            script: RefCell::new(script),
            inbox: RefCell::new(VecDeque::new()),
        });
        io.policy = RetryPolicy {
            base_ms: window_ms,
            numer: 1,
            denom: 1,
            cap_ms: window_ms,
            attempts: 3,
        };
        io
    }

    const NEVER_EXPIRES: u64 = 60_000;

    /// A site that holds the first `rounds` groups of `width` requests back
    /// until each group is complete and then acknowledges it in *reverse*
    /// order (forcing the client to stash the later tags); anything after
    /// that (retransmissions) is acknowledged as it arrives.
    fn reversing(
        width: usize,
        mut rounds: usize,
    ) -> impl FnMut(&Msg, &mut VecDeque<Msg>) -> SendOutcome {
        let mut held = Vec::new();
        move |msg, inbox| {
            held.push(msg.tag());
            if rounds == 0 || held.len() == width {
                rounds = rounds.saturating_sub(1);
                inbox.extend(held.drain(..).rev().map(|tag| Msg::Ack { tag }));
            }
            SendOutcome::Sent
        }
    }

    fn block_reads(tags: std::ops::Range<u64>) -> Vec<(usize, Msg)> {
        tags.map(|tag| (0usize, Msg::BlockRead { row: tag, tag }))
            .collect()
    }

    fn assert_answered_in_order(replies: &[Result<Msg, ClientErr>], first_tag: u64) {
        for (i, r) in replies.iter().enumerate() {
            match r {
                Ok(m) => assert_eq!(m.tag(), first_tag + i as u64),
                Err(e) => panic!("entry {i} failed: {e:?}"),
            }
        }
    }

    /// A deaf site: sends succeed, nothing ever replies — the worst case
    /// for retry ladders. Returns the ladder and its count of sends.
    fn deaf_io() -> (NetIo<impl Transport>, Rc<Cell<u32>>) {
        let sends = Rc::new(Cell::new(0u32));
        let seen = sends.clone();
        let io = scripted_io(
            move |_, _| {
                seen.set(seen.get() + 1);
                SendOutcome::Sent
            },
            2,
        );
        (io, sends)
    }

    #[test]
    fn exchange_with_a_dead_site_spends_one_ladder() {
        let (mut io, sends) = deaf_io();
        let reply = io.exchange(0, Msg::BlockRead { row: 0, tag: 1 }, false);
        assert!(matches!(reply, Err(ClientErr::Timeout { site: 0 })));
        let attempts = io.policy.attempts;
        assert_eq!(sends.get(), attempts, "one send per window");
        assert_eq!(
            io.obs.snapshot("client").metrics.retransmits,
            u64::from(attempts - 1)
        );
    }

    #[test]
    fn batch_against_a_dead_site_shares_one_attempt_budget() {
        let (mut io, sends) = deaf_io();
        // 6 batch entries all target dead site 0. The shared budget means
        // one ladder (three windows), not six.
        let replies = io.exchange_batch(block_reads(0..6), false);
        assert!(replies
            .iter()
            .all(|r| matches!(r, Err(ClientErr::Timeout { site: 0 }))));
        assert_eq!(
            io.obs.snapshot("client").metrics.retransmits,
            2,
            "3-attempt budget = 1 batched send + 2 retransmissions, shared \
             across the whole batch"
        );
        assert_eq!(
            sends.get(),
            6 + 2,
            "the attempt budget is per site, not per entry"
        );
    }

    /// A batch far wider than the attempt budget, all to one *healthy*
    /// site, must succeed entry for entry with zero retransmissions. The
    /// per-site budget once counted successful waits: entry thirteen of a
    /// wide recovery-drain wave got an instant synthesised `Timeout` even
    /// though the site answered everything (and entries two onward were
    /// spuriously resent as retransmissions).
    #[test]
    fn wide_batch_to_a_healthy_site_outlives_the_attempt_budget() {
        let mut io = scripted_io(reversing(1, 0), NEVER_EXPIRES);
        let width = u64::from(io.policy.attempts) * 3;
        let replies = io.exchange_batch(block_reads(200..200 + width), false);
        assert_answered_in_order(&replies, 200);
        assert_eq!(
            io.obs.snapshot("client").metrics.retransmits,
            0,
            "a healthy site answered every pipelined request; nothing to resend"
        );
    }

    #[test]
    fn stash_eviction_of_a_batch_reply_converges_by_retransmission() {
        let mut io = scripted_io(reversing(3, 1), 100);
        // One stash slot: when the replies for tags 101 and 102 both land
        // while entry 100 is being awaited, 102's reply is evicted even
        // though its batch entry is still outstanding.
        io.stash_cap = 1;
        let replies = io.exchange_batch(block_reads(100..103), false);
        assert_answered_in_order(&replies, 100);
        let snap = io.obs.snapshot("client");
        assert_eq!(
            snap.metrics.stash_evictions, 1,
            "the reply for tag 102 must have been evicted from the 1-slot stash"
        );
        assert_eq!(
            snap.metrics.retransmits, 1,
            "recovering the evicted reply takes exactly one retransmission"
        );
    }

    /// Taking a stashed reply frees its slot for good. The stash once kept
    /// a taken reply's tag in its eviction order, so after `STASH_CAP`
    /// replies had *ever* been stashed every further one popped a stale
    /// tag and counted an eviction that dropped nothing.
    #[test]
    fn taken_replies_never_count_as_evictions() {
        let width = STASH_CAP / 2;
        let rounds = 3 * STASH_CAP / (width - 1) + 1;
        let mut io = scripted_io(reversing(width, rounds), NEVER_EXPIRES);
        for round in 0..rounds as u64 {
            let first = round * width as u64;
            let replies = io.exchange_batch(block_reads(first..first + width as u64), false);
            assert_answered_in_order(&replies, first);
        }
        assert!(io.stash.is_empty(), "every stashed reply was taken");
        let snap = io.obs.snapshot("client");
        assert_eq!(snap.metrics.stash_evictions, 0);
        assert_eq!(snap.metrics.retransmits, 0);
    }

    #[test]
    fn exchange_fails_fast_when_the_channel_is_closed() {
        let mut io = scripted_io(|_, _| SendOutcome::Closed, 500);
        let started = Instant::now();
        let reply = io.exchange(0, Msg::BlockRead { row: 0, tag: 1 }, false);
        assert!(matches!(reply, Err(ClientErr::Timeout { site: 0 })));
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "closed channel burned the timeout ladder"
        );
        let snap = io.obs.snapshot("client");
        assert_eq!(snap.metrics.send_failures, 1);
        assert_eq!(snap.metrics.retransmits, 0);
    }
}
