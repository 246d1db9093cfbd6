//! A real-concurrency network over crossbeam channels.
//!
//! The discrete-event simulator gives deterministic measurements; the
//! threaded runtime gives real message passing for integration tests that
//! exercise the protocol code under actual concurrency. Each site owns a
//! [`ThreadedEndpoint`]; any endpoint can send to any site id. Partitioning
//! a site makes its sends and receives fail, emulating the §5 model at the
//! process level.

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
    /// Source or destination is partitioned away.
    Partitioned,
    /// No message arrived within the timeout.
    Timeout,
    /// All senders disconnected (network shut down).
    Disconnected,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NoSuchSite(s) => write!(f, "no such site {s}"),
            NetError::Partitioned => write!(f, "link severed by partition"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::Disconnected => write!(f, "network shut down"),
        }
    }
}

impl std::error::Error for NetError {}

/// Message-loss injection parameters. Loss is decided per send from a
/// counter hashed with the seed, so a given `(seed, permille)` pair drops a
/// reproducible *fraction* of traffic (the exact victims depend on thread
/// interleaving, which is fine: the reliable layers above must converge for
/// any loss pattern below certainty).
struct LossState {
    /// Probability of dropping a message, in 1/1000 units (0 = off).
    permille: u16,
    seed: u64,
}

struct Shared<M> {
    senders: Vec<Sender<Inbound<M>>>,
    partitioned: RwLock<Vec<bool>>,
    loss: RwLock<LossState>,
    loss_counter: AtomicU64,
    dropped: AtomicU64,
    /// Per-message wire time in nanoseconds (0 = instant, the default).
    link_latency_ns: AtomicU64,
    /// Optional per-endpoint shared wires: an endpoint with a wire charges
    /// *that* wire's latency under its lock instead of the global latency.
    wires: RwLock<Vec<Option<Arc<Wire>>>>,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

impl<M: Send + 'static> ThreadedNet<M> {
    /// Build a fully connected network of `n` sites; returns the control
    /// handle and one endpoint per site.
    pub fn new(n: usize) -> (ThreadedNet<M>, Vec<ThreadedEndpoint<M>>) {
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let shared = Arc::new(Shared {
            senders,
            partitioned: RwLock::new(vec![false; n]),
            loss: RwLock::new(LossState {
                permille: 0,
                seed: 0,
            }),
            loss_counter: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
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

    /// Cut a site off from everyone (its sends and receives fail).
    pub fn set_partitioned(&self, site: usize, partitioned: bool) {
        self.shared.partitioned.write()[site] = partitioned;
    }

    /// Start dropping roughly `permille`/1000 of all sends, with victims
    /// chosen by hashing a running counter with `seed`. `permille == 0`
    /// turns loss off. Loss is *silent*: the sender sees `Ok`, the message
    /// never arrives — exactly what timer-based retransmission must absorb.
    pub fn set_loss(&self, permille: u16, seed: u64) {
        assert!(
            permille < 1000,
            "loss probability must stay below certainty"
        );
        let mut loss = self.shared.loss.write();
        loss.permille = permille;
        loss.seed = seed;
    }

    /// Number of messages dropped by loss injection so far.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
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

impl<M: Send + 'static> ThreadedEndpoint<M> {
    /// This endpoint's site id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Send `payload` to `dst`.
    pub fn send(&self, dst: usize, payload: M) -> Result<(), NetError> {
        {
            let part = self.shared.partitioned.read();
            if part.get(self.id).copied().unwrap_or(false)
                || part.get(dst).copied().unwrap_or(false)
            {
                return Err(NetError::Partitioned);
            }
        }
        let tx = self
            .shared
            .senders
            .get(dst)
            .ok_or(NetError::NoSuchSite(dst))?;
        {
            let loss = self.shared.loss.read();
            if loss.permille > 0 {
                let n = self.shared.loss_counter.fetch_add(1, Ordering::Relaxed);
                if splitmix64(loss.seed ^ n) % 1000 < loss.permille as u64 {
                    // Silent drop: delivery simply never happens.
                    self.shared.dropped.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
            }
        }
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
        if self.shared.partitioned.read()[self.id] {
            return Err(NetError::Partitioned);
        }
        self.inbox.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }

    /// Receive without blocking.
    pub fn try_recv(&self) -> Option<Inbound<M>> {
        if self.shared.partitioned.read()[self.id] {
            return None;
        }
        self.inbox.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Instant;

    #[test]
    fn point_to_point_delivery() {
        let (_net, eps) = ThreadedNet::new(3);
        eps[0].send(2, "hi").unwrap();
        let got = eps[2].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(got.src, 0);
        assert_eq!(got.payload, "hi");
    }

    #[test]
    fn cross_thread_ping_pong() {
        let (_net, mut eps) = ThreadedNet::new(2);
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
        let (_net, eps) = ThreadedNet::<u8>::new(1);
        assert_eq!(eps[0].send(9, 0).unwrap_err(), NetError::NoSuchSite(9));
    }

    #[test]
    fn partitioned_site_cannot_send_or_receive() {
        let (net, eps) = ThreadedNet::new(2);
        net.set_partitioned(1, true);
        assert_eq!(eps[0].send(1, ()).unwrap_err(), NetError::Partitioned);
        assert_eq!(eps[1].send(0, ()).unwrap_err(), NetError::Partitioned);
        assert_eq!(
            eps[1].recv_timeout(Duration::from_millis(10)).unwrap_err(),
            NetError::Partitioned
        );
        // Healing restores connectivity.
        net.set_partitioned(1, false);
        eps[0].send(1, ()).unwrap();
        assert!(eps[1].recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn try_recv_nonblocking() {
        let (_net, eps) = ThreadedNet::<u8>::new(2);
        assert!(eps[1].try_recv().is_none());
        eps[0].send(1, 5).unwrap();
        // Unbounded channel: send completes before we poll.
        let got = eps[1]
            .try_recv()
            .or_else(|| {
                thread::sleep(Duration::from_millis(50));
                eps[1].try_recv()
            })
            .unwrap();
        assert_eq!(got.payload, 5);
    }

    #[test]
    fn loss_drops_a_fraction_silently() {
        let (net, eps) = ThreadedNet::<u32>::new(2);
        net.set_loss(400, 0xFEED);
        for i in 0..1000 {
            eps[0].send(1, i).unwrap(); // loss is invisible to the sender
        }
        let mut got = 0;
        while eps[1].try_recv().is_some() {
            got += 1;
        }
        let dropped = net.dropped();
        assert_eq!(got + dropped as usize, 1000);
        assert!(
            (200..600).contains(&dropped),
            "~40% of 1000 sends should drop, got {dropped}"
        );
        // Turning loss off restores perfect delivery.
        net.set_loss(0, 0);
        eps[0].send(1, 7).unwrap();
        assert_eq!(
            eps[1].recv_timeout(Duration::from_secs(1)).unwrap().payload,
            7
        );
    }

    #[test]
    fn link_latency_occupies_the_sender() {
        let (net, eps) = ThreadedNet::<u8>::new(2);
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
        let (net_a, mut eps_a) = ThreadedNet::<u8>::new(2);
        let (net_b, mut eps_b) = ThreadedNet::<u8>::new(2);
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
        let (_net, eps) = ThreadedNet::<u8>::new(1);
        assert_eq!(
            eps[0].recv_timeout(Duration::from_millis(20)).unwrap_err(),
            NetError::Timeout
        );
    }
}
