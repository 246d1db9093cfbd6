//! Fault-injecting TCP relay: [`FaultPlan`]-style loss, partition and
//! duplication on *real* connections.
//!
//! [`FaultProxy`] fronts exactly one site: the site map handed to every
//! endpoint points at the proxies, so each protocol frame traverses
//! exactly one proxy — the destination site's — and is therefore subject
//! to at most one fault decision, just as each send in the threaded
//! runtime consults [`radd_net::ThreadedNet`]'s loss state exactly once.
//! (Replies ride the same connection back through the same proxy; frames
//! between two sites traverse the callee's proxy only, because the
//! caller's own listener is not on the path.)
//!
//! The proxy is *frame-aware*: it decodes the length-prefixed stream and
//! drops or duplicates whole frames, never bytes, so injected faults model
//! message loss without ever corrupting the framing of survivors. Only
//! protocol frames (`Frame::Proto`) are eligible — `Hello` handshakes and
//! control traffic pass untouched, mirroring the threaded runtime where
//! harness control is out of band.
//!
//! Endpoint attribution: a dialing endpoint announces itself with a
//! leading [`Frame::Hello`](crate::frame::Frame::Hello); the forward pump
//! snoops it and shares the id
//! with the reverse pump, so both directions can evaluate partitions
//! keyed by endpoint id (`drop` when either end is partitioned — the same
//! rule as `ThreadedNet::set_partitioned`).
//!
//! [`FaultPlan`]: radd_workload::FaultPlan

use crate::frame::{payload_hello_id, payload_is_proto, write_frame_payload, FrameDecoder};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Salt separating the duplication decision stream from the loss stream:
/// both hash the same global counter, but a frame's dup verdict must not
/// be a deterministic function of its loss verdict.
const DUP_SALT: u64 = 0x00D0_00D0_00D0_00D0;

/// Shared fault switchboard for every proxy in a cluster — the socket
/// counterpart of `ThreadedNet`'s control plane.
pub struct FaultState {
    /// Loss probability per protocol frame, in 1/1000 units (0 = off).
    loss_permille: AtomicU64,
    /// Duplication probability per surviving frame, in 1/1000 units.
    dup_permille: AtomicU64,
    seed: AtomicU64,
    /// One global decision counter across all proxies, so a `(seed,
    /// permille)` pair drops a reproducible *fraction* of cluster traffic
    /// (the exact victims depend on interleaving — the reliable layers
    /// must converge for any loss pattern below certainty).
    counter: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    /// Partition flags by endpoint id; a frame drops when either end is
    /// partitioned.
    partitioned: Mutex<Vec<bool>>,
}

impl FaultState {
    /// A fault-free switchboard for a cluster of `endpoints` ids.
    pub fn new(endpoints: usize) -> Arc<FaultState> {
        Arc::new(FaultState {
            loss_permille: AtomicU64::new(0),
            dup_permille: AtomicU64::new(0),
            seed: AtomicU64::new(0),
            counter: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            partitioned: Mutex::new(vec![false; endpoints]),
        })
    }

    /// Start dropping roughly `permille`/1000 of protocol frames, seeded.
    /// Loss is *silent*: the sender's write succeeds, the frame never
    /// arrives — what timer-based retransmission must absorb.
    pub fn set_loss(&self, permille: u16, seed: u64) {
        assert!(
            permille < 1000,
            "loss probability must stay below certainty"
        );
        self.seed.store(seed, Ordering::Relaxed);
        self.loss_permille
            .store(u64::from(permille), Ordering::Relaxed);
    }

    /// Start duplicating roughly `permille`/1000 of surviving protocol
    /// frames — a stale retransmission arriving after the original, which
    /// the receiving machines must treat idempotently.
    pub fn set_duplication(&self, permille: u16, seed: u64) {
        assert!(permille < 1000, "duplicating every frame would livelock");
        self.seed.store(seed, Ordering::Relaxed);
        self.dup_permille
            .store(u64::from(permille), Ordering::Relaxed);
    }

    /// Cut endpoint `ep` off (frames to or from it drop at the proxy).
    pub fn set_partitioned(&self, ep: usize, partitioned: bool) {
        // Poison-tolerant: the vector is only ever resized/flag-flipped
        // under the lock, so a panicking holder cannot corrupt it.
        let mut p = self
            .partitioned
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if ep >= p.len() {
            p.resize(ep + 1, false);
        }
        p[ep] = partitioned;
    }

    /// Protocol frames dropped by loss injection so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Protocol frames duplicated so far.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    fn is_partitioned(&self, ep: Option<usize>) -> bool {
        let Some(ep) = ep else { return false };
        self.partitioned
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(ep)
            .copied()
            .unwrap_or(false)
    }

    /// Verdict for one protocol frame from `src` to `dst` (`None` = not
    /// yet attributed): forward, drop, or forward twice.
    fn verdict(&self, src: Option<usize>, dst: Option<usize>) -> Verdict {
        if self.is_partitioned(src) || self.is_partitioned(dst) {
            return Verdict::Drop;
        }
        let loss = self.loss_permille.load(Ordering::Relaxed);
        let dup = self.dup_permille.load(Ordering::Relaxed);
        if loss == 0 && dup == 0 {
            return Verdict::Forward;
        }
        let seed = self.seed.load(Ordering::Relaxed);
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        if loss > 0 && splitmix64(seed ^ n) % 1000 < loss {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return Verdict::Drop;
        }
        if dup > 0 && splitmix64(seed ^ DUP_SALT ^ n) % 1000 < dup {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            return Verdict::Duplicate;
        }
        Verdict::Forward
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Forward,
    Drop,
    Duplicate,
}

/// A fault-injecting relay fronting one site's listener.
pub struct FaultProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Relay `127.0.0.1:0 → target`, attributing the far side of every
    /// connection to endpoint `site_ep` (the fronted site). Returns the
    /// proxy, whose [`addr`](FaultProxy::addr) goes into the site maps.
    pub fn spawn(target: SocketAddr, site_ep: usize, state: Arc<FaultState>) -> FaultProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("proxy bind");
        let addr = listener.local_addr().expect("proxy addr");
        listener.set_nonblocking(true).expect("proxy nonblocking");
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((inbound, _)) => {
                            relay(inbound, target, site_ep, Arc::clone(&state), &shutdown);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        FaultProxy {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        }
    }

    /// The address endpoints should dial instead of the real site.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and wind down the pumps.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Wire one relayed connection: dial the real site and start a pump per
/// direction. The two pumps share the dialer's snooped endpoint id.
fn relay(
    inbound: TcpStream,
    target: SocketAddr,
    site_ep: usize,
    state: Arc<FaultState>,
    shutdown: &Arc<AtomicBool>,
) {
    let Ok(outbound) = TcpStream::connect_timeout(&target, Duration::from_millis(500)) else {
        return; // dialer sees a dead connection; its backoff handles it
    };
    let _ = inbound.set_nodelay(true);
    let _ = outbound.set_nodelay(true);
    // The dialing endpoint's id, learned from its leading Hello. `u64::MAX`
    // = not yet attributed.
    let peer = Arc::new(AtomicU64::new(u64::MAX));
    let (Ok(in_clone), Ok(out_clone)) = (inbound.try_clone(), outbound.try_clone()) else {
        return;
    };
    {
        let state = Arc::clone(&state);
        let peer = Arc::clone(&peer);
        let shutdown = Arc::clone(shutdown);
        std::thread::spawn(move || {
            pump(
                inbound,
                out_clone,
                &state,
                &peer,
                Direction::ToSite { site_ep },
                &shutdown,
            );
        });
    }
    let shutdown = Arc::clone(shutdown);
    std::thread::spawn(move || {
        pump(
            outbound,
            in_clone,
            &state,
            &peer,
            Direction::FromSite { site_ep },
            &shutdown,
        );
    });
}

#[derive(Debug, Clone, Copy)]
enum Direction {
    /// Dialer → fronted site: src is the snooped peer, dst the site.
    ToSite {
        /// The fronted site's endpoint id.
        site_ep: usize,
    },
    /// Fronted site → dialer (replies on the same connection).
    FromSite {
        /// The fronted site's endpoint id.
        site_ep: usize,
    },
}

/// Relay whole frames from `rd` to `wr`, snooping Hello frames for
/// attribution and applying the fault verdict to protocol frames only.
fn pump(
    rd: TcpStream,
    mut wr: TcpStream,
    state: &FaultState,
    peer: &AtomicU64,
    dir: Direction,
    shutdown: &AtomicBool,
) {
    let _ = rd.set_read_timeout(Some(Duration::from_millis(50)));
    let mut rd = rd;
    let mut dec = FrameDecoder::new();
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        loop {
            let payload = match dec.next_payload() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(_) => return, // framing lost: kill the relay leg
            };
            if let Some(id) = payload_hello_id(&payload) {
                peer.store(id, Ordering::Relaxed);
            }
            let verdict = if payload_is_proto(&payload) {
                let snooped = match peer.load(Ordering::Relaxed) {
                    u64::MAX => None,
                    id => Some(id as usize),
                };
                let (src, dst) = match dir {
                    Direction::ToSite { site_ep } => (snooped, Some(site_ep)),
                    Direction::FromSite { site_ep } => (Some(site_ep), snooped),
                };
                state.verdict(src, dst)
            } else {
                Verdict::Forward
            };
            match verdict {
                Verdict::Drop => continue,
                Verdict::Forward => {
                    if write_frame_payload(&mut wr, &payload).is_err() {
                        return;
                    }
                }
                Verdict::Duplicate => {
                    if write_frame_payload(&mut wr, &payload).is_err()
                        || write_frame_payload(&mut wr, &payload).is_err()
                    {
                        return;
                    }
                }
            }
        }
        match dec.read_from(&mut rd) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Inbound, SocketEndpoint};
    use radd_net::{Outbound, Transport};
    use radd_protocol::wire::Msg;

    /// A site endpoint fronted by a proxy; the client's site map points at
    /// the proxy.
    fn proxied_pair(state: &Arc<FaultState>) -> (SocketEndpoint, SocketEndpoint, FaultProxy) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let real = listener.local_addr().unwrap();
        let proxy = FaultProxy::spawn(real, 1, Arc::clone(state));
        let site = SocketEndpoint::site(1, 1, vec![proxy.addr()], listener);
        let client = SocketEndpoint::client(0, 1, vec![proxy.addr()]);
        (client, site, proxy)
    }

    /// The next protocol message in a site endpoint's inbox.
    fn recv_proto(ep: &SocketEndpoint, wait_ms: u64) -> Option<(usize, Msg)> {
        match ep.recv_timeout(Duration::from_millis(wait_ms)) {
            Ok(Inbound::Msg { src, msg, .. }) => Some((src, msg)),
            _ => None,
        }
    }

    #[test]
    fn fault_free_proxy_is_transparent_both_ways() {
        let state = FaultState::new(2);
        let (client, site, _proxy) = proxied_pair(&state);
        client.send(1, &Msg::Read { index: 3, tag: 7 });
        let (src, msg) = recv_proto(&site, 2000).expect("request crosses the proxy");
        assert_eq!((src, msg), (0, Msg::Read { index: 3, tag: 7 }));
        site.send(0, &Msg::WriteOk { tag: 7 });
        let back = client
            .recv_from(1, Duration::from_secs(2))
            .expect("reply crosses back");
        assert_eq!((back.src, back.msg), (1, Msg::WriteOk { tag: 7 }));
    }

    #[test]
    fn total_loss_silences_protocol_frames_but_counts_them() {
        let state = FaultState::new(2);
        let (client, site, _proxy) = proxied_pair(&state);
        state.set_loss(999, 0xBEEF);
        for tag in 0..20 {
            client.send(1, &Msg::Ack { tag });
        }
        // 99.9% loss: expect silence (a stray survivor is possible but
        // vanishingly unlikely across 20 frames; tolerate a couple).
        let mut got = 0;
        while recv_proto(&site, 200).is_some() {
            got += 1;
        }
        assert!(got <= 2, "{got} frames survived 999-permille loss");
        assert!(state.dropped() >= 18);
    }

    #[test]
    fn partition_cuts_an_endpoint_and_heals() {
        let state = FaultState::new(2);
        let (client, site, _proxy) = proxied_pair(&state);
        // Establish attribution first: the Hello must be snooped before
        // reverse-direction partitions can be evaluated against ep 0.
        client.send(1, &Msg::Ack { tag: 1 });
        assert!(recv_proto(&site, 2000).is_some());
        state.set_partitioned(0, true);
        client.send(1, &Msg::Ack { tag: 2 });
        assert!(
            recv_proto(&site, 300).is_none(),
            "frame crossed a partition"
        );
        state.set_partitioned(0, false);
        client.send(1, &Msg::Ack { tag: 3 });
        let (_, msg) = recv_proto(&site, 2000).expect("healed partition delivers");
        assert_eq!(msg, Msg::Ack { tag: 3 });
    }

    #[test]
    fn duplication_delivers_the_same_frame_twice() {
        let state = FaultState::new(2);
        let (client, site, _proxy) = proxied_pair(&state);
        state.set_duplication(999, 0xD00D);
        client.send(1, &Msg::Ack { tag: 9 });
        let first = recv_proto(&site, 2000).expect("original arrives");
        let second = recv_proto(&site, 2000).expect("duplicate arrives");
        assert_eq!(first, second);
        assert!(state.duplicated() >= 1);
    }
}
