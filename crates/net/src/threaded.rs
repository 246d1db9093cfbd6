//! A real-concurrency network over crossbeam channels: the threaded
//! runtime's [`Transport`].
//!
//! The discrete-event simulator gives deterministic measurements; the
//! threaded runtime gives real message passing for integration tests that
//! exercise the protocol code under actual concurrency. Each client and
//! site owns a [`ThreadedEndpoint`], which is the [`Outbound`] and
//! [`Transport`] the async interpreter runs over: it knows its network's
//! `ep_base` from [`ThreadedNet::new`], carries [`Msg`]s only, and any
//! endpoint can send to any id. Every send asks the network's
//! [`FaultState`] first, so loss, duplication and §5 partitions act at the
//! process level.

use crate::faults::{FaultState, Verdict};
use crate::transport::{Outbound, Received, SendOutcome, Transport};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use radd_protocol::Msg;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A shared transmission line with finite capacity: one message at a time,
/// each occupying the line for the wire's latency.
///
/// Endpoints — possibly of *different* [`ThreadedNet`] instances — that are
/// attached to the same `Wire` ([`ThreadedNet::set_wire`]) contend for it on
/// every send: the sender holds the line's lock while it sleeps the wire
/// time. This makes a pool site's transmit capacity a physically shared
/// resource across all the per-group endpoints that live on that site,
/// which is what lets a rebuild bench measure real fan-out: reads answered
/// by many distinct pool sites overlap, reads answered by one site
/// serialize.
#[derive(Debug)]
pub struct Wire {
    line: Mutex<()>,
    latency: Duration,
}

impl Wire {
    /// A wire occupying its sender for `latency` per message.
    pub fn new(latency: Duration) -> Arc<Wire> {
        Arc::new(Wire {
            line: Mutex::new(()),
            latency,
        })
    }

    /// Occupy the line for one message (a zero wire time skips the sleep
    /// but keeps the serialization).
    fn transmit(&self) {
        let _line = self.line.lock();
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
    }
}

struct Shared {
    senders: Vec<Sender<Received>>,
    /// Endpoint id of site 0 (clients occupy the ids below it).
    ep_base: usize,
    /// The switchboard every send asks first.
    faults: Arc<FaultState>,
    /// Per-message wire time in nanoseconds (0 = instant, the default).
    link_latency_ns: AtomicU64,
    /// Optional per-endpoint shared wires: an endpoint with a wire charges
    /// *that* wire's latency under its lock instead of the global latency.
    wires: RwLock<Vec<Option<Arc<Wire>>>>,
}

/// Factory and control plane for a set of endpoints.
pub struct ThreadedNet {
    shared: Arc<Shared>,
}

/// One endpoint's handle: send to any endpoint, receive what was sent to
/// this one. The threaded runtime's [`Transport`].
pub struct ThreadedEndpoint {
    id: usize,
    shared: Arc<Shared>,
    inbox: Receiver<Received>,
}

impl ThreadedNet {
    /// Build a fully connected network of `n` endpoints, clients at ids
    /// `0..ep_base` and site `j` at `ep_base + j`, whose sends ask
    /// `faults` for a verdict; returns the control handle and one endpoint
    /// per id.
    pub fn new(
        n: usize,
        ep_base: usize,
        faults: Arc<FaultState>,
    ) -> (ThreadedNet, Vec<ThreadedEndpoint>) {
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let shared = Arc::new(Shared {
            senders,
            ep_base,
            faults,
            link_latency_ns: AtomicU64::new(0),
            wires: RwLock::new(vec![None; n]),
        });
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(id, inbox)| ThreadedEndpoint {
                id,
                shared: Arc::clone(&shared),
                inbox,
            })
            .collect();
        (ThreadedNet { shared }, endpoints)
    }

    /// Model wire time: every send occupies the sending thread for
    /// `latency` before the message is delivered (Table 1 charges remote
    /// operations a network round trip; this is that cost in wall-clock
    /// form). Zero — the default — keeps sends instantaneous, so existing
    /// tests and the differential harness are unaffected. Scaling benches
    /// set a latency so per-group throughput is bounded by the wire, not
    /// the CPU, which is what lets many groups overlap.
    pub fn set_link_latency(&self, latency: Duration) {
        self.shared
            .link_latency_ns
            .store(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Attach `endpoint`'s sends to a shared [`Wire`] (or detach with
    /// `None`). While attached the endpoint charges the wire's latency —
    /// under the wire's lock, serializing with every other endpoint on the
    /// same wire, across nets — instead of the global link latency.
    pub fn set_wire(&self, endpoint: usize, wire: Option<Arc<Wire>>) {
        self.shared.wires.write()[endpoint] = wire;
    }
}

impl ThreadedEndpoint {
    /// The next message from any peer, waiting up to `timeout`; `None`
    /// when nothing arrived in time.
    pub fn recv(&self, timeout: Duration) -> Option<Received> {
        self.inbox.recv_timeout(timeout).ok()
    }

    /// Occupy the wire for one message, then deliver it.
    fn transmit(&self, tx: &Sender<Received>, msg: Msg) -> SendOutcome {
        let wire = self.shared.wires.read().get(self.id).cloned().flatten();
        match wire {
            Some(w) => w.transmit(),
            None => {
                let latency_ns = self.shared.link_latency_ns.load(Ordering::Relaxed);
                if latency_ns > 0 {
                    std::thread::sleep(Duration::from_nanos(latency_ns));
                }
            }
        }
        match tx.send(Received { src: self.id, msg }) {
            Ok(()) => SendOutcome::Sent,
            // The destination endpoint is gone: no retry can reach it.
            Err(_) => SendOutcome::Closed,
        }
    }
}

impl Outbound for ThreadedEndpoint {
    fn id(&self) -> usize {
        self.id
    }

    fn ep_base(&self) -> usize {
        self.shared.ep_base
    }

    /// Send `msg` to `dst`, once, twice or not at all as the switchboard
    /// says. A dropped message is [`SendOutcome::Sent`]: loss is silent. A
    /// destination outside the network is [`SendOutcome::Closed`].
    fn send(&self, dst: usize, msg: &Msg) -> SendOutcome {
        let Some(tx) = self.shared.senders.get(dst) else {
            return SendOutcome::Closed;
        };
        match self.shared.faults.verdict(self.id, dst) {
            Verdict::Drop => SendOutcome::Sent,
            Verdict::Forward => self.transmit(tx, msg.clone()),
            Verdict::Duplicate => match self.transmit(tx, msg.clone()) {
                SendOutcome::Sent => self.transmit(tx, msg.clone()),
                closed => closed,
            },
        }
    }
}

impl Transport for ThreadedEndpoint {
    /// One channel holds what every peer sent: `peer` is not consulted.
    fn recv_from(&self, _peer: usize, timeout: Duration) -> Option<Received> {
        self.recv(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Instant;

    fn ack(tag: u64) -> Msg {
        Msg::Ack { tag }
    }

    /// The tag of the next message `ep` receives within a second.
    fn next_tag(ep: &ThreadedEndpoint) -> u64 {
        ep.recv(Duration::from_secs(1))
            .expect("a message")
            .msg
            .tag()
    }

    #[test]
    fn point_to_point_delivery() {
        let (_net, eps) = ThreadedNet::new(3, 1, FaultState::new(3));
        assert_eq!((eps[2].id(), eps[2].ep_base()), (2, 1));
        assert_eq!(eps[0].send(2, &ack(5)), SendOutcome::Sent);
        let got = eps[2].recv(Duration::from_secs(1)).unwrap();
        assert_eq!((got.src, got.msg), (0, ack(5)));
    }

    #[test]
    fn cross_thread_ping_pong() {
        let (_net, mut eps) = ThreadedNet::new(2, 1, FaultState::new(2));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t = thread::spawn(move || {
            let m = b.recv(Duration::from_secs(2)).unwrap();
            b.send(m.src, &ack(m.msg.tag() + 1));
        });
        a.send(1, &ack(41));
        let reply = a.recv_from(1, Duration::from_secs(2)).unwrap();
        assert_eq!(reply.msg, ack(42));
        t.join().unwrap();
    }

    /// `Closed` is final: no such endpoint, or one that is gone.
    #[test]
    fn unknown_or_dropped_destination_is_closed() {
        let (_net, mut eps) = ThreadedNet::new(2, 1, FaultState::new(2));
        assert_eq!(eps[0].send(9, &ack(0)), SendOutcome::Closed);
        drop(eps.pop());
        assert_eq!(eps[0].send(1, &ack(1)), SendOutcome::Closed);
    }

    const QUIET: Duration = Duration::from_millis(20);

    #[test]
    fn a_partitioned_site_hears_and_reaches_nobody_until_healed() {
        let faults = FaultState::new(2);
        let (_net, eps) = ThreadedNet::new(2, 1, Arc::clone(&faults));
        faults.set_partitioned(1, true);
        // A partition is silent loss.
        assert_eq!(eps[0].send(1, &ack(1)), SendOutcome::Sent);
        assert_eq!(eps[1].send(0, &ack(2)), SendOutcome::Sent);
        assert!(eps[1].recv(QUIET).is_none());
        assert!(eps[0].recv(QUIET).is_none());
        faults.set_partitioned(1, false);
        eps[0].send(1, &ack(3));
        assert_eq!(next_tag(&eps[1]), 3);
    }

    #[test]
    fn loss_drops_a_fraction_silently() {
        let faults = FaultState::new(2);
        let (_net, eps) = ThreadedNet::new(2, 1, Arc::clone(&faults));
        faults.set_loss(400, 0xFEED);
        for tag in 0..1000 {
            // Loss is invisible to the sender.
            assert_eq!(eps[0].send(1, &ack(tag)), SendOutcome::Sent);
        }
        let mut got = 0;
        while eps[1].recv(QUIET).is_some() {
            got += 1;
        }
        let dropped = faults.dropped();
        assert_eq!(got + dropped as usize, 1000);
        assert!(
            (200..600).contains(&dropped),
            "~40% of 1000 sends should drop, got {dropped}"
        );
        // Turning loss off restores perfect delivery.
        faults.set_loss(0, 0);
        eps[0].send(1, &ack(7));
        assert_eq!(next_tag(&eps[1]), 7);
    }

    #[test]
    fn a_duplicate_arrives_right_behind_its_original() {
        let faults = FaultState::new(2);
        let (_net, eps) = ThreadedNet::new(2, 1, Arc::clone(&faults));
        faults.set_duplication(999, 0xD00D);
        eps[0].send(1, &ack(7));
        faults.set_duplication(0, 0);
        eps[0].send(1, &ack(8));
        let got: Vec<u64> = (0..3).map(|_| next_tag(&eps[1])).collect();
        assert_eq!(got, [7, 7, 8]);
        assert_eq!(faults.duplicated(), 1);
    }

    #[test]
    fn link_latency_occupies_the_sender() {
        let (net, eps) = ThreadedNet::new(2, 1, FaultState::new(2));
        net.set_link_latency(Duration::from_millis(5));
        let t0 = Instant::now();
        for _ in 0..4 {
            eps[0].send(1, &ack(0));
        }
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "4 sends at 5 ms wire time each"
        );
        // Delivery itself is unaffected.
        for _ in 0..4 {
            assert!(eps[1].recv(Duration::from_secs(1)).is_some());
        }
        net.set_link_latency(Duration::ZERO);
        let t1 = Instant::now();
        eps[0].send(1, &ack(0));
        assert!(t1.elapsed() < Duration::from_millis(5), "latency off again");
    }

    #[test]
    fn shared_wire_serializes_across_nets() {
        // Two independent nets whose endpoint 0s share one wire: their
        // sends serialize, while an unwired endpoint stays instant.
        let (net_a, mut eps_a) = ThreadedNet::new(2, 1, FaultState::new(2));
        let (net_b, mut eps_b) = ThreadedNet::new(2, 1, FaultState::new(2));
        let wire = Wire::new(Duration::from_millis(5));
        net_a.set_wire(0, Some(Arc::clone(&wire)));
        net_b.set_wire(0, Some(Arc::clone(&wire)));
        let ep_a1 = eps_a.pop().unwrap();
        let ep_a0 = eps_a.pop().unwrap();
        let ep_b0 = eps_b.swap_remove(0);
        let t0 = Instant::now();
        let (ep_a0, ep_b0) = thread::scope(|s| {
            let ta = s.spawn(move || {
                for _ in 0..3 {
                    ep_a0.send(1, &ack(0));
                }
                ep_a0
            });
            let tb = s.spawn(move || {
                for _ in 0..3 {
                    ep_b0.send(1, &ack(0));
                }
                ep_b0
            });
            (ta.join().unwrap(), tb.join().unwrap())
        });
        let _ = ep_b0;
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "6 sends on one 5 ms wire serialize"
        );
        // The unwired endpoint is not slowed by the wire (global latency 0).
        let t1 = Instant::now();
        ep_a1.send(0, &ack(0));
        assert!(t1.elapsed() < Duration::from_millis(5));
        // Detaching restores instant sends.
        net_a.set_wire(0, None);
        let t2 = Instant::now();
        ep_a0.send(1, &ack(0));
        assert!(t2.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn timeout_when_idle() {
        let (_net, eps) = ThreadedNet::new(1, 0, FaultState::new(1));
        assert!(eps[0].recv(Duration::from_millis(20)).is_none());
        assert!(eps[0].recv_from(0, Duration::from_millis(20)).is_none());
    }
}
