//! The socket client library: a [`ClientMachine`] bound to a TCP endpoint.
//!
//! All §3.2/§3.3 client logic — degraded reads via spare or validated
//! reconstruction, W1' redirected writes, the recovery drain — lives in
//! [`radd_protocol::ClientMachine`], shared with the DES and threaded
//! runtimes. This module is its [`ClientIo`] over real sockets: the same
//! attempt ladder ([`RetryPolicy::CLIENT_ATTEMPT`]), the same tag-keyed
//! reply stash, the same one-budget-per-site batch rule as the threaded
//! client — any divergence here would show up as a trace mismatch in the
//! differential socket test.
//!
//! The socket transport maps onto the same send outcomes the threaded
//! client classifies: a failed dial or an unreachable peer is *silent
//! loss* ([`SendOutcome::Sent`] — the retry ladder absorbs it, because
//! listeners outlive transient faults), while an out-of-range destination
//! or local shutdown is [`SendOutcome::Closed`] and fails fast. Every wire
//! attempt, retransmission, stash eviction and failed send is recorded in
//! a per-client [`radd_obs::MachineObs`].

use crate::net::{Inbound, SendOutcome, SocketEndpoint};
use radd_net::RetryPolicy;
use radd_obs::{MachineObs, MachineSnapshot};
use radd_parity::xor_in_place;
use radd_protocol::obs::ObsEvent;
use radd_protocol::wire::Msg;
use radd_protocol::{ClientErr, ClientIo, ClientMachine, Dest, SparePolicy, TraceEntry};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// §3.3 retry budget for inconsistent reconstruction reads.
const RECONSTRUCT_RETRIES: u32 = 20;
/// Replies stashed beyond this count have their oldest entries dropped.
const STASH_CAP: usize = 512;
/// Tag-space bit marking requests minted outside the protocol machine
/// (oracle sweeps like [`SocketClient::verify_parity`]).
const ORACLE_TAG_BIT: u64 = 1 << 46;
/// Client UID namespaces count *down* from `u16::MAX` while site machines
/// count *up* from their site id — same pool split as the threaded
/// runtime, so a socket client and a threaded client with the same
/// endpoint id mint identical UIDs (a precondition for byte-identical
/// differential traces).
const MAX_CLIENT_NAMESPACES: usize = 4096;

/// The UID namespace for the client on endpoint `ep_id`. Panics when the
/// endpoint id would not map injectively into the client pool.
fn client_uid_namespace(ep_id: usize) -> u16 {
    assert!(
        ep_id < MAX_CLIENT_NAMESPACES,
        "client endpoint id {ep_id} exceeds the {MAX_CLIENT_NAMESPACES}-entry \
         UID namespace pool; truncating it would alias another writer's \
         namespace and break §3.2 UID uniqueness"
    );
    u16::MAX - ep_id as u16
}

/// Client-side errors (the socket twin of `radd_node`'s `ClientError`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Address out of range.
    OutOfRange,
    /// Payload size mismatch.
    BadSize,
    /// A needed peer did not answer (after all retries).
    Timeout {
        /// The unresponsive site.
        site: usize,
    },
    /// Two failures overlap (e.g. the spare already stands in for another
    /// site).
    MultipleFailure,
    /// Reconstruction kept failing §3.3 UID validation.
    Inconsistent,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::OutOfRange => write!(f, "address out of range"),
            ClientError::BadSize => write!(f, "payload size mismatch"),
            ClientError::Timeout { site } => write!(f, "site {site} did not answer"),
            ClientError::MultipleFailure => write!(f, "multiple overlapping failures"),
            ClientError::Inconsistent => {
                write!(f, "reconstruction stayed inconsistent after retries")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ClientErr> for ClientError {
    fn from(e: ClientErr) -> ClientError {
        match e {
            ClientErr::OutOfRange => ClientError::OutOfRange,
            ClientErr::BadSize => ClientError::BadSize,
            ClientErr::Timeout { site } => ClientError::Timeout { site },
            ClientErr::MultipleFailure { .. } | ClientErr::Unavailable { .. } => {
                ClientError::MultipleFailure
            }
            ClientErr::Inconsistent { .. } => ClientError::Inconsistent,
        }
    }
}

/// The machine's transport: request/reply over a socket endpoint with
/// retry and backoff.
struct SockIo {
    ep: SocketEndpoint,
    /// Replies that arrived while we were waiting for a different tag.
    stash: HashMap<u64, Msg>,
    stash_order: VecDeque<u64>,
    /// Attempt-ladder tuning — [`RetryPolicy::CLIENT_ATTEMPT`] in
    /// production; tests inject shrunken schedules.
    policy: RetryPolicy,
    stash_cap: usize,
    /// Per-client metrics + flight recorder.
    obs: MachineObs,
}

impl SockIo {
    fn new(ep: SocketEndpoint) -> SockIo {
        SockIo {
            ep,
            stash: HashMap::new(),
            stash_order: VecDeque::new(),
            policy: RetryPolicy::CLIENT_ATTEMPT,
            stash_cap: STASH_CAP,
            obs: MachineObs::new(),
        }
    }

    /// The wait window for a site's `k`-th attempt (0-based).
    fn attempt_window(&self, k: u32) -> Duration {
        self.policy.delay(k)
    }

    /// A stashed reply for `tag`, if one already arrived out of band.
    fn take_stashed(&mut self, tag: u64) -> Option<Msg> {
        self.stash.remove(&tag)
    }

    /// One wire attempt: record it, send it, classify the outcome.
    fn send_attempt(&mut self, site: usize, msg: &Msg, retransmit: bool) -> SendOutcome {
        self.obs.event(ObsEvent::Send {
            to: Dest::Site(site),
            kind: msg.kind(),
            tag: msg.tag(),
            wire: msg.wire_size() as u64,
            retransmit,
            replay: false,
        });
        let out = self.ep.send(self.ep.ep_base() + site, msg);
        if out == SendOutcome::Closed {
            self.obs.metrics().send_failure();
        }
        out
    }

    /// Wait for the reply carrying `tag`, stashing replies to other
    /// outstanding requests for their own `wait` calls.
    fn wait(&mut self, tag: u64, timeout: Duration) -> Option<Msg> {
        if let Some(m) = self.stash.remove(&tag) {
            return Some(m);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let msg = match self.ep.recv_timeout(left) {
                Ok(Inbound::Proto { msg, .. }) => msg,
                // Clients never listen, so a control request can only be a
                // stray — drop it rather than letting it eat the window.
                Ok(Inbound::Ctl { .. }) => continue,
                Err(_) => return None,
            };
            if msg.tag() == tag {
                return Some(msg);
            }
            let t = msg.tag();
            if self.stash.insert(t, msg).is_none() {
                self.stash_order.push_back(t);
                if self.stash_order.len() > self.stash_cap {
                    if let Some(old) = self.stash_order.pop_front() {
                        self.stash.remove(&old);
                        self.obs.metrics().stash_eviction();
                    }
                }
            }
        }
    }

    /// Send `msg` to `site`, retrying with exponential backoff until a
    /// reply arrives or the attempt budget is spent. All retried requests
    /// are idempotent at the receiver. A closed channel fails immediately.
    fn request(&mut self, site: usize, msg: &Msg) -> Option<Msg> {
        let tag = msg.tag();
        for k in 0..self.policy.attempts {
            if self.send_attempt(site, msg, k > 0) == SendOutcome::Closed {
                return self.take_stashed(tag);
            }
            if let Some(reply) = self.wait(tag, self.attempt_window(k)) {
                return Some(reply);
            }
        }
        None
    }
}

impl ClientIo for SockIo {
    fn exchange(&mut self, site: usize, msg: Msg, _background: bool) -> Result<Msg, ClientErr> {
        self.request(site, &msg).ok_or(ClientErr::Timeout { site })
    }

    /// Pipelined batch with one attempt budget per site — structurally
    /// identical to the threaded client's `exchange_batch`; see its docs
    /// for the rationale. The budget counts *expired windows only* and a
    /// reply refills it, so a healthy site answers a batch of any width
    /// and nothing is resent before a window has expired.
    fn exchange_batch(
        &mut self,
        reqs: Vec<(usize, Msg)>,
        _background: bool,
    ) -> Vec<Result<Msg, ClientErr>> {
        let mut used: HashMap<usize, u32> = HashMap::new();
        let mut dead: HashSet<usize> = HashSet::new();
        for (site, msg) in &reqs {
            if dead.contains(site) {
                continue;
            }
            if self.send_attempt(*site, msg, false) == SendOutcome::Closed {
                dead.insert(*site);
            }
        }
        reqs.into_iter()
            .map(|(site, msg)| {
                let tag = msg.tag();
                // Served while an earlier entry was waiting?
                if let Some(reply) = self.take_stashed(tag) {
                    return Ok(reply);
                }
                if dead.contains(&site) {
                    return Err(ClientErr::Timeout { site });
                }
                loop {
                    let k = *used.entry(site).or_insert(0);
                    if k >= self.policy.attempts {
                        dead.insert(site);
                        return Err(ClientErr::Timeout { site });
                    }
                    // The first window (`k == 0`) rides on the pipelined
                    // send above; a window only opens with a resend after
                    // an earlier one expired (idempotent at the receiver).
                    if k > 0 && self.send_attempt(site, &msg, true) == SendOutcome::Closed {
                        dead.insert(site);
                        return self.take_stashed(tag).ok_or(ClientErr::Timeout { site });
                    }
                    if let Some(reply) = self.wait(tag, self.attempt_window(k)) {
                        // The site is alive: refill its budget so the rest
                        // of the batch gets full ladders too.
                        used.insert(site, 0);
                        return Ok(reply);
                    }
                    *used.get_mut(&site).expect("inserted above") += 1;
                }
            })
            .collect()
    }
    // old_value stays `None`: this runtime has no buffer-pool oracle, so
    // degraded writes fetch the old value through the protocol.
}

/// The cluster client over TCP.
pub struct SocketClient {
    machine: ClientMachine,
    io: SockIo,
    block_size: usize,
    /// Tag counter for oracle sweeps issued outside the machine.
    next_oracle_tag: u64,
}

impl SocketClient {
    /// Bind a client to `ep` for a `g`-site cluster with `rows` block rows
    /// of `block_size` bytes.
    pub fn new(ep: SocketEndpoint, g: usize, rows: u64, block_size: usize) -> SocketClient {
        // Every client mints UIDs from its own namespace keyed by its
        // endpoint id, so concurrent clients (and the threaded twin in the
        // differential test) never collide and always agree.
        let uid_namespace = client_uid_namespace(ep.id());
        SocketClient {
            machine: ClientMachine::new(
                g,
                rows,
                block_size,
                SparePolicy::OnePerParity,
                true,
                uid_namespace,
            ),
            io: SockIo::new(ep),
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

    /// Whether this client currently believes `site` is down.
    pub fn is_marked_down(&self, site: usize) -> bool {
        self.machine.is_down(site)
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
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.machine.take_trace()
    }

    /// Freeze this client's metrics and flight recorder.
    pub fn obs_snapshot(&self) -> MachineSnapshot {
        self.io.obs.snapshot("client")
    }

    /// Read the `index`-th data block of `site`.
    pub fn read(&mut self, site: usize, index: u64) -> Result<Vec<u8>, ClientError> {
        let started = Instant::now();
        // §3.3: an inconsistent reconstruction means a parity update is in
        // flight; back off and retry the whole degraded read.
        for _ in 0..RECONSTRUCT_RETRIES {
            match self.machine.read(&mut self.io, site, index) {
                Err(ClientErr::Inconsistent { .. }) => std::thread::sleep(Duration::from_millis(5)),
                Ok(b) => {
                    self.io
                        .obs
                        .metrics()
                        .record_read_latency(started.elapsed().as_nanos() as u64);
                    return Ok(b.to_vec());
                }
                Err(e) => return Err(ClientError::from(e)),
            }
        }
        Err(ClientError::Inconsistent)
    }

    /// Write the `index`-th data block of `site`.
    pub fn write(&mut self, site: usize, index: u64, data: &[u8]) -> Result<(), ClientError> {
        let started = Instant::now();
        for _ in 0..RECONSTRUCT_RETRIES {
            match self.machine.write(&mut self.io, site, index, data) {
                Err(ClientErr::Inconsistent { .. }) => std::thread::sleep(Duration::from_millis(5)),
                Ok(()) => {
                    self.io
                        .obs
                        .metrics()
                        .record_write_latency(started.elapsed().as_nanos() as u64);
                    return Ok(());
                }
                Err(e) => return Err(ClientError::from(e)),
            }
        }
        Err(ClientError::Inconsistent)
    }

    /// Recovery drain for a revived site (§3.2's background process):
    /// restore first, then invalidate the spare, so every step is safe to
    /// retry. Returns the number of blocks drained.
    pub fn recover(&mut self, site: usize) -> Result<u64, ClientError> {
        let drained = self
            .machine
            .recover(&mut self.io, site)
            .map_err(ClientError::from)?;
        let m = self.io.obs.metrics();
        m.recovery_run();
        m.set_recovery_progress(drained, 0);
        Ok(drained)
    }

    /// Bulk-rebuild every data block a believed-down `site` owns into the
    /// row spares, `wave_rows` rows per pipelined wave (the socket twin of
    /// `radd_node::NodeClient::rebuild`). Idempotent: rows already
    /// absorbed are skipped, so an `Inconsistent` fold retries the whole
    /// pass cheaply.
    pub fn rebuild(
        &mut self,
        site: usize,
        wave_rows: usize,
    ) -> Result<radd_protocol::RebuildReport, ClientError> {
        for _ in 0..RECONSTRUCT_RETRIES {
            match self.machine.rebuild_member(&mut self.io, site, wave_rows) {
                Err(ClientErr::Inconsistent { .. }) => std::thread::sleep(Duration::from_millis(5)),
                Ok(report) => {
                    let m = self.io.obs.metrics();
                    m.rebuild_run();
                    m.add_rebuild(report.blocks_rebuilt, report.bytes_xored);
                    m.set_rebuild_fanout(
                        report.peer_reads.iter().filter(|&&n| n > 0).count() as u64
                    );
                    return Ok(report);
                }
                Err(e) => return Err(ClientError::from(e)),
            }
        }
        Err(ClientError::Inconsistent)
    }

    fn oracle_tag(&mut self) -> u64 {
        self.next_oracle_tag += 1;
        ORACLE_TAG_BIT | self.next_oracle_tag
    }

    /// Verify the stripe invariant over every row by reading all blocks
    /// (requires every site up). Returns the first violated row.
    pub fn verify_parity(&mut self) -> Result<(), String> {
        let geo = *self.machine.geometry();
        for row in 0..geo.rows() {
            let parity_site = geo.parity_site(row);
            let spare_site = geo.spare_site(row);
            let mut acc = vec![0u8; self.block_size];
            let mut parity = vec![0u8; self.block_size];
            for s in 0..geo.num_sites() {
                if s == spare_site {
                    continue;
                }
                let tag = self.oracle_tag();
                match self.io.request(s, &Msg::BlockRead { row, tag }) {
                    Some(Msg::BlockData { data, .. }) => {
                        if s == parity_site {
                            parity = data.to_vec();
                        } else {
                            xor_in_place(&mut acc, &data);
                        }
                    }
                    _ => return Err(format!("site {s} did not answer for row {row}")),
                }
            }
            if acc != parity {
                return Err(format!("parity mismatch in row {row}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_uid_namespaces_match_the_threaded_runtime() {
        // The differential test needs socket and threaded clients on the
        // same endpoint id to mint from the same namespace.
        assert_eq!(client_uid_namespace(0), u16::MAX);
        assert_eq!(client_uid_namespace(1), u16::MAX - 1);
        let mut seen = HashSet::new();
        for ep_id in 0..64 {
            let ns = client_uid_namespace(ep_id);
            assert!(seen.insert(ns), "namespace collision at endpoint {ep_id}");
            assert!(
                (ns as usize) >= MAX_CLIENT_NAMESPACES,
                "client namespace {ns} would collide with a site namespace"
            );
        }
    }

    #[test]
    #[should_panic(expected = "UID namespace")]
    fn endpoint_ids_beyond_the_pool_are_refused() {
        let _ = client_uid_namespace(MAX_CLIENT_NAMESPACES);
    }

    #[test]
    fn request_fails_fast_on_an_out_of_range_destination() {
        // A 1-site map: site index 3 maps to endpoint 4, which is beyond
        // the site table — SendOutcome::Closed, no ladder burned.
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        let ep = SocketEndpoint::client(0, 1, vec![addr]);
        let mut io = SockIo::new(ep);
        io.policy.base_ms = 500;
        let started = Instant::now();
        let reply = io.request(3, &Msg::BlockRead { row: 0, tag: 1 });
        assert!(reply.is_none());
        assert!(
            started.elapsed() < Duration::from_millis(200),
            "out-of-range destination burned the timeout ladder"
        );
        assert_eq!(io.obs.snapshot("client").metrics.send_failures, 1);
    }
}
