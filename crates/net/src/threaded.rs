//! A real-concurrency network over crossbeam channels.
//!
//! The discrete-event simulator gives deterministic measurements; the
//! threaded runtime gives real message passing for integration tests that
//! exercise the protocol code under actual concurrency. Each site owns a
//! [`ThreadedEndpoint`]; any endpoint can send to any site id. Every send
//! asks the network's [`FaultState`] first, so loss, duplication and §5
//! partitions act at the process level.

use crate::faults::{FaultState, Verdict};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
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

/// A message with its source address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inbound<M> {
    /// Sending site.
    pub src: usize,
    /// Payload.
    pub payload: M,
}

/// Errors from the threaded network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination id does not exist.
    NoSuchSite(usize),
    /// No message arrived within the timeout.
    Timeout,
    /// All senders disconnected (network shut down).
    Disconnected,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NoSuchSite(s) => write!(f, "no such site {s}"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::Disconnected => write!(f, "network shut down"),
        }
    }
}

impl std::error::Error for NetError {}

struct Shared<M> {
    senders: Vec<Sender<Inbound<M>>>,
    /// The switchboard every send asks first.
    faults: Arc<FaultState>,
    /// Per-message wire time in nanoseconds (0 = instant, the default).
    link_latency_ns: AtomicU64,
    /// Optional per-endpoint shared wires: an endpoint with a wire charges
    /// *that* wire's latency under its lock instead of the global latency.
    wires: RwLock<Vec<Option<Arc<Wire>>>>,
}

/// Factory and control plane for a set of endpoints.
pub struct ThreadedNet<M> {
    shared: Arc<Shared<M>>,
}

/// One site's handle: send to any site, receive what was sent to this one.
pub struct ThreadedEndpoint<M> {
    id: usize,
    shared: Arc<Shared<M>>,
    inbox: Receiver<Inbound<M>>,
}

impl<M: Clone + Send + 'static> ThreadedNet<M> {
    /// Build a fully connected network of `n` sites whose sends ask
    /// `faults` for a verdict; returns the control handle and one endpoint
    /// per site.
    pub fn new(n: usize, faults: Arc<FaultState>) -> (ThreadedNet<M>, Vec<ThreadedEndpoint<M>>) {
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let shared = Arc::new(Shared {
            senders,
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

impl<M: Clone + Send + 'static> ThreadedEndpoint<M> {
    /// This endpoint's site id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Send `payload` to `dst`, once, twice or not at all as the
    /// switchboard says. A dropped message is `Ok`: loss is silent.
    pub fn send(&self, dst: usize, payload: M) -> Result<(), NetError> {
        let tx = self
            .shared
            .senders
            .get(dst)
            .ok_or(NetError::NoSuchSite(dst))?;
        match self.shared.faults.verdict(self.id, dst) {
            Verdict::Drop => Ok(()),
            Verdict::Forward => self.transmit(tx, payload),
            Verdict::Duplicate => {
                self.transmit(tx, payload.clone())?;
                self.transmit(tx, payload)
            }
        }
    }

    /// Occupy the wire for one message, then deliver it.
    fn transmit(&self, tx: &Sender<Inbound<M>>, payload: M) -> Result<(), NetError> {
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
        tx.send(Inbound {
            src: self.id,
            payload,
        })
        .map_err(|_| NetError::Disconnected)
    }

    /// Receive the next message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Inbound<M>, NetError> {
        self.inbox.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Instant;

    #[test]
    fn point_to_point_delivery() {
        let (_net, eps) = ThreadedNet::new(3, FaultState::new(3));
        eps[0].send(2, "hi").unwrap();
        let got = eps[2].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(got.src, 0);
        assert_eq!(got.payload, "hi");
    }

    #[test]
    fn cross_thread_ping_pong() {
        let (_net, mut eps) = ThreadedNet::new(2, FaultState::new(2));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t = thread::spawn(move || {
            let m = b.recv_timeout(Duration::from_secs(2)).unwrap();
            b.send(m.src, m.payload + 1).unwrap();
        });
        a.send(1, 41).unwrap();
        let reply = a.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(reply.payload, 42);
        t.join().unwrap();
    }

    #[test]
    fn unknown_destination() {
        let (_net, eps) = ThreadedNet::<u8>::new(1, FaultState::new(1));
        assert_eq!(eps[0].send(9, 0).unwrap_err(), NetError::NoSuchSite(9));
    }

    const QUIET: Duration = Duration::from_millis(20);

    #[test]
    fn a_partitioned_site_hears_and_reaches_nobody_until_healed() {
        let faults = FaultState::new(2);
        let (_net, eps) = ThreadedNet::new(2, Arc::clone(&faults));
        faults.set_partitioned(1, true);
        eps[0].send(1, 1).unwrap(); // a partition is silent loss
        eps[1].send(0, 2).unwrap();
        assert_eq!(eps[1].recv_timeout(QUIET).unwrap_err(), NetError::Timeout);
        assert_eq!(eps[0].recv_timeout(QUIET).unwrap_err(), NetError::Timeout);
        faults.set_partitioned(1, false);
        eps[0].send(1, 3).unwrap();
        assert_eq!(
            eps[1].recv_timeout(Duration::from_secs(1)).unwrap().payload,
            3
        );
    }

    #[test]
    fn loss_drops_a_fraction_silently() {
        let faults = FaultState::new(2);
        let (_net, eps) = ThreadedNet::<u32>::new(2, Arc::clone(&faults));
        faults.set_loss(400, 0xFEED);
        for i in 0..1000 {
            eps[0].send(1, i).unwrap(); // loss is invisible to the sender
        }
        let mut got = 0;
        while eps[1].recv_timeout(QUIET).is_ok() {
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
        eps[0].send(1, 7).unwrap();
        assert_eq!(
            eps[1].recv_timeout(Duration::from_secs(1)).unwrap().payload,
            7
        );
    }

    #[test]
    fn a_duplicate_arrives_right_behind_its_original() {
        let faults = FaultState::new(2);
        let (_net, eps) = ThreadedNet::<u32>::new(2, Arc::clone(&faults));
        faults.set_duplication(999, 0xD00D);
        eps[0].send(1, 7).unwrap();
        faults.set_duplication(0, 0);
        eps[0].send(1, 8).unwrap();
        let got: Vec<u32> = (0..3)
            .map(|_| eps[1].recv_timeout(Duration::from_secs(1)).unwrap().payload)
            .collect();
        assert_eq!(got, [7, 7, 8]);
        assert_eq!(faults.duplicated(), 1);
    }

    #[test]
    fn link_latency_occupies_the_sender() {
        let (net, eps) = ThreadedNet::<u8>::new(2, FaultState::new(2));
        net.set_link_latency(Duration::from_millis(5));
        let t0 = Instant::now();
        for _ in 0..4 {
            eps[0].send(1, 0).unwrap();
        }
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "4 sends at 5 ms wire time each"
        );
        // Delivery itself is unaffected.
        for _ in 0..4 {
            assert!(eps[1].recv_timeout(Duration::from_secs(1)).is_ok());
        }
        net.set_link_latency(Duration::ZERO);
        let t1 = Instant::now();
        eps[0].send(1, 0).unwrap();
        assert!(t1.elapsed() < Duration::from_millis(5), "latency off again");
    }

    #[test]
    fn shared_wire_serializes_across_nets() {
        // Two independent nets whose endpoint 0s share one wire: their
        // sends serialize, while an unwired endpoint stays instant.
        let (net_a, mut eps_a) = ThreadedNet::<u8>::new(2, FaultState::new(2));
        let (net_b, mut eps_b) = ThreadedNet::<u8>::new(2, FaultState::new(2));
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
                    ep_a0.send(1, 0).unwrap();
                }
                ep_a0
            });
            let tb = s.spawn(move || {
                for _ in 0..3 {
                    ep_b0.send(1, 0).unwrap();
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
        ep_a1.send(0, 0).unwrap();
        assert!(t1.elapsed() < Duration::from_millis(5));
        // Detaching restores instant sends.
        net_a.set_wire(0, None);
        let t2 = Instant::now();
        ep_a0.send(1, 0).unwrap();
        assert!(t2.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn timeout_when_idle() {
        let (_net, eps) = ThreadedNet::<u8>::new(1, FaultState::new(1));
        assert_eq!(
            eps[0].recv_timeout(Duration::from_millis(20)).unwrap_err(),
            NetError::Timeout
        );
    }
}
