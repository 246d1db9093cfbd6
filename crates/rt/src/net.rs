//! TCP endpoints: the socket runtime's [`Transport`].
//!
//! A [`SocketEndpoint`] is one process's network identity: an endpoint id
//! (clients `0..ep_base`, site `j` at `ep_base + j`), an optional listener
//! (sites listen; clients only dial), and a table of live connections keyed
//! by peer endpoint id. It implements [`radd_net::Transport`], so the site
//! event loop and the client attempt ladder that run over it are the same
//! code the threaded runtime runs (and their normalised effect traces are
//! therefore identical).
//!
//! Connection management:
//!
//! * **Dial on demand.** A send to a site with no live connection dials the
//!   site-map address, ships a [`Frame::Hello`] announcing our id, and
//!   registers the connection. Dial failures back off on a
//!   [`RetryPolicy`] schedule and surface as *silent loss* — exactly the
//!   failure mode the stop-and-wait retransmission layer above is built to
//!   absorb. A send to a *client* id with no live connection is dropped
//!   outright: clients dial us, we never dial them, and the client's own
//!   retransmission re-establishes the path.
//! * **One reader thread per connection** feeds decoded frames into the
//!   endpoint's single inbox channel, preserving TCP's per-connection
//!   ordering; cross-connection interleaving is as arbitrary as it is
//!   between the threaded runtime's channel senders.
//! * **Reconnects replace** the send-side entry for a peer id; the old
//!   connection's reader keeps draining until the stream dies, so no
//!   buffered message is lost by the swap.
//!
//! Everything here is transport plumbing — protocol behaviour (dedup,
//! retries, idempotence) lives in the sans-IO machines and their drivers.

use crate::frame::{write_frame, write_msg, Frame, FrameDecoder};
use radd_net::{Received, RetryPolicy, Transport};
use radd_protocol::Msg;

pub use radd_net::SendOutcome;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Dial timeout for one connection attempt.
const DIAL_TIMEOUT: Duration = Duration::from_millis(500);

/// Redial backoff after a failed dial: quick first retry, 640 ms ceiling.
/// (The schedule is the site retransmit policy — dial failures and lost
/// messages are absorbed by the same machinery.)
const DIAL_RETRY: RetryPolicy = RetryPolicy::SITE_RETRANSMIT;

/// Reader threads poll their stream at this granularity so shutdown flags
/// are observed promptly.
const READ_POLL: Duration = Duration::from_millis(50);

/// A wire control request: the socket runtime's out-of-band inbox item
/// ([`Transport::Oob`]). Answer by writing a `CtlRep` frame to `reply`.
#[derive(Debug)]
pub struct CtlItem {
    /// Request id to echo.
    pub rid: u64,
    /// The request.
    pub req: crate::frame::CtlReq,
    /// Write half of the requesting connection.
    pub reply: WriteHalf,
}

/// What arrives on the endpoint's inbox: a protocol message
/// (`Inbound::Msg`) or a control request (`Inbound::Oob`).
pub type Inbound = Received<CtlItem>;

/// Shareable write half of a connection (the read half lives in its reader
/// thread). Writes are whole frames under the lock, so frames never
/// interleave mid-stream.
#[derive(Debug, Clone)]
pub struct WriteHalf {
    stream: Arc<Mutex<TcpStream>>,
}

impl WriteHalf {
    fn new(stream: TcpStream) -> WriteHalf {
        WriteHalf {
            stream: Arc::new(Mutex::new(stream)),
        }
    }

    /// Write one frame; an io error means the connection is dead.
    pub fn write(&self, frame: &Frame) -> std::io::Result<()> {
        write_frame(&mut *self.locked()?, frame)
    }

    /// Write one protocol message as a [`Frame::Proto`].
    pub fn write_msg(&self, msg: &Msg) -> std::io::Result<()> {
        write_msg(&mut *self.locked()?, msg)
    }

    fn locked(&self) -> std::io::Result<MutexGuard<'_, TcpStream>> {
        // A poisoned lock means another writer panicked mid-frame and may
        // have left a torn prefix on the stream; report the connection
        // dead (callers drop it and redial) instead of panicking the
        // whole site on top of it.
        self.stream.lock().map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "connection abandoned after a writer panic",
            )
        })
    }

    /// Whether `self` and `other` are halves of the same connection.
    fn same_connection(&self, other: &WriteHalf) -> bool {
        Arc::ptr_eq(&self.stream, &other.stream)
    }
}

struct Shared {
    /// Live send-side connections by peer endpoint id.
    peers: Mutex<HashMap<usize, WriteHalf>>,
    /// Failed-dial backoff per site index: (next allowed attempt, step).
    dial_backoff: Mutex<HashMap<usize, (Instant, u32)>>,
    inbox_tx: Sender<Inbound>,
    shutdown: AtomicBool,
}

impl Shared {
    /// The connection table. Poison-tolerant: holders only perform
    /// infallible `HashMap` insert/remove/get under the lock, so a panic
    /// elsewhere in a holding thread cannot leave the map half-updated —
    /// recovering the guard is always safe, and it keeps one panicking
    /// reader thread from cascading into every other connection.
    fn peers(&self) -> MutexGuard<'_, HashMap<usize, WriteHalf>> {
        self.peers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The dial-backoff table; same poison argument as [`Shared::peers`].
    fn backoff(&self) -> MutexGuard<'_, HashMap<usize, (Instant, u32)>> {
        self.dial_backoff
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// One process's socket identity. See the module docs.
pub struct SocketEndpoint {
    id: usize,
    ep_base: usize,
    site_addrs: Vec<SocketAddr>,
    shared: Arc<Shared>,
    inbox_rx: Receiver<Inbound>,
    accept_thread: Option<JoinHandle<()>>,
}

impl SocketEndpoint {
    /// A client endpoint: dials sites, never listens.
    pub fn client(id: usize, ep_base: usize, site_addrs: Vec<SocketAddr>) -> SocketEndpoint {
        Self::build(id, ep_base, site_addrs, None)
    }

    /// A site endpoint serving on `listener` (bind it first — typically to
    /// `127.0.0.1:0` in tests — so the chosen port is known to the caller).
    pub fn site(
        id: usize,
        ep_base: usize,
        site_addrs: Vec<SocketAddr>,
        listener: TcpListener,
    ) -> SocketEndpoint {
        Self::build(id, ep_base, site_addrs, Some(listener))
    }

    fn build(
        id: usize,
        ep_base: usize,
        site_addrs: Vec<SocketAddr>,
        listener: Option<TcpListener>,
    ) -> SocketEndpoint {
        let (inbox_tx, inbox_rx) = std::sync::mpsc::channel();
        let shared = Arc::new(Shared {
            peers: Mutex::new(HashMap::new()),
            dial_backoff: Mutex::new(HashMap::new()),
            inbox_tx,
            shutdown: AtomicBool::new(false),
        });
        let accept_thread = listener.and_then(|l| {
            // A listener that cannot be polled would never observe the
            // shutdown flag; running deaf (peers' dials fail and back
            // off — silent loss, which the retransmission layer absorbs)
            // beats panicking a site that may still hold durable state.
            if let Err(e) = l.set_nonblocking(true) {
                eprintln!("radd-rt: cannot poll listener ({e}); serving without accepts");
                return None;
            }
            let shared = Arc::clone(&shared);
            Some(std::thread::spawn(move || accept_loop(&l, &shared)))
        });
        SocketEndpoint {
            id,
            ep_base,
            site_addrs,
            shared,
            inbox_rx,
            accept_thread,
        }
    }

    /// This endpoint's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// First site endpoint id (clients occupy `0..ep_base`).
    pub fn ep_base(&self) -> usize {
        self.ep_base
    }

    /// Send `msg` to endpoint `dst`, dialing if needed. A write into a
    /// live connection, a dial that is pending or backing off and a client
    /// that is not connected are all [`SendOutcome::Sent`] (retriable
    /// loss); a destination outside the site map or a shut-down endpoint
    /// is [`SendOutcome::Closed`].
    pub fn send(&self, dst: usize, msg: &Msg) -> SendOutcome {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return SendOutcome::Closed;
        }
        if let Some(w) = self.peer(dst) {
            if w.write_msg(msg).is_ok() {
                return SendOutcome::Sent;
            }
            // Dead connection: forget it. A site destination falls through
            // to a fresh dial below; a client destination is simply lost.
            self.forget_peer(dst, &w);
        }
        if dst < self.ep_base {
            // A client we have no connection to: unreachable until it dials
            // us again. Loss, not closure — its retransmission recovers.
            return SendOutcome::Sent;
        }
        let site = dst - self.ep_base;
        if site >= self.site_addrs.len() {
            return SendOutcome::Closed;
        }
        match self.dial(site) {
            Some(w) => {
                let _ = w.write_msg(msg);
                SendOutcome::Sent
            }
            // Dial refused or backing off: silent loss.
            None => SendOutcome::Sent,
        }
    }

    fn peer(&self, dst: usize) -> Option<WriteHalf> {
        self.shared.peers().get(&dst).cloned()
    }

    /// Unregister `dst` after a write to `failed` failed, unless the entry
    /// is no longer that connection: a reconnecting peer's `Hello` may have
    /// registered its new connection since the lookup, and removing that
    /// one would leave a peer whose socket is healthy (so it never
    /// re-dials) without replies until its retry ladder runs out.
    fn forget_peer(&self, dst: usize, failed: &WriteHalf) {
        let mut peers = self.shared.peers();
        if peers.get(&dst).is_some_and(|w| w.same_connection(failed)) {
            peers.remove(&dst);
        }
    }

    /// Dial site `site` (by index), handshake, and register the
    /// connection. `None` when the dial failed or its backoff window has
    /// not elapsed yet.
    fn dial(&self, site: usize) -> Option<WriteHalf> {
        let dst = self.ep_base + site;
        {
            let backoff = self.shared.backoff();
            if let Some(&(next_at, _)) = backoff.get(&site) {
                if Instant::now() < next_at {
                    return None;
                }
            }
        }
        match TcpStream::connect_timeout(&self.site_addrs[site], DIAL_TIMEOUT) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                let write = WriteHalf::new(stream.try_clone().ok()?);
                if write.write(&Frame::Hello { id: self.id as u64 }).is_err() {
                    return None;
                }
                self.shared.backoff().remove(&site);
                self.shared.peers().insert(dst, write.clone());
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || reader_loop(stream, Some(dst), &shared));
                Some(write)
            }
            Err(_) => {
                let mut backoff = self.shared.backoff();
                let step = backoff.get(&site).map_or(0, |&(_, s)| s.saturating_add(1));
                backoff.insert(site, (Instant::now() + DIAL_RETRY.delay(step), step));
                None
            }
        }
    }

    /// Receive the next inbound item, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Inbound, RecvTimeoutError> {
        self.inbox_rx.recv_timeout(timeout)
    }

    /// Stop accepting and tell reader threads to wind down. Existing
    /// connections die as their reads next time out.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Transport for SocketEndpoint {
    type Oob = CtlItem;

    fn id(&self) -> usize {
        self.id
    }

    fn ep_base(&self) -> usize {
        self.ep_base
    }

    fn send(&self, dst: usize, msg: &Msg) -> SendOutcome {
        SocketEndpoint::send(self, dst, msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Received<CtlItem>> {
        self.inbox_rx.recv_timeout(timeout).ok()
    }
}

impl Drop for SocketEndpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept loop: non-blocking polls so the shutdown flag is honoured.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(shared);
                std::thread::spawn(move || reader_loop(stream, None, &shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Drain one connection into the inbox. `peer_id` is known for dialed
/// connections; accepted ones learn it from the leading [`Frame::Hello`]
/// and then register their write half so replies can route back.
fn reader_loop(stream: TcpStream, peer_id: Option<usize>, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let write = WriteHalf::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut reader = stream;
    let mut dec = FrameDecoder::new();
    let mut peer_id = peer_id;
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // Drain every complete frame before reading again.
        loop {
            let frame = match dec.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                // Framing lost (corrupt stream): the connection is useless.
                Err(e) => {
                    let who = peer_id.map_or("a peer that sent no Hello".into(), |id| {
                        format!("endpoint {id}")
                    });
                    eprintln!(
                        "radd-rt: closing the connection from {who}: {e} (a checksum \
                         mismatch on a connection's first frame usually means mixed \
                         binaries: builds from before and after the laned frame \
                         checksum refuse each other)"
                    );
                    return;
                }
            };
            match frame {
                Frame::Hello { id } => {
                    let id = id as usize;
                    peer_id = Some(id);
                    shared.peers().insert(id, write.clone());
                }
                Frame::Proto(msg) => {
                    let Some(src) = peer_id else {
                        // Protocol before Hello: drop — an anonymous peer
                        // cannot receive replies anyway.
                        continue;
                    };
                    if shared.inbox_tx.send(Inbound::Msg { src, msg }).is_err() {
                        return;
                    }
                }
                Frame::CtlReq { rid, req } => {
                    let item = Inbound::Oob(CtlItem {
                        rid,
                        req,
                        reply: write.clone(),
                    });
                    if shared.inbox_tx.send(item).is_err() {
                        return;
                    }
                }
                // Replies are matched by the control *client* (radd-cli),
                // which reads its connection directly; an endpoint inbox
                // never expects one.
                Frame::CtlRep { .. } => {}
            }
        }
        match dec.read_from(&mut reader) {
            Ok(0) => return, // peer closed
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

    fn loopback_pair() -> (SocketEndpoint, SocketEndpoint) {
        // One "site" (ep 1) and one "client" (ep 0).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let site = SocketEndpoint::site(1, 1, vec![addr], listener);
        let client = SocketEndpoint::client(0, 1, vec![addr]);
        (client, site)
    }

    #[test]
    fn request_and_reply_cross_the_wire() {
        let (client, site) = loopback_pair();
        assert_eq!(
            client.send(1, &Msg::Read { index: 4, tag: 9 }),
            SendOutcome::Sent
        );
        let got = site.recv_timeout(Duration::from_secs(2)).unwrap();
        let Inbound::Msg { src, msg } = got else {
            panic!("expected protocol message");
        };
        assert_eq!(src, 0);
        assert_eq!(msg, Msg::Read { index: 4, tag: 9 });
        // Reply over the inbound connection (site never dials a client).
        assert_eq!(site.send(0, &Msg::WriteOk { tag: 9 }), SendOutcome::Sent);
        let back = client.recv_timeout(Duration::from_secs(2)).unwrap();
        let Inbound::Msg { src, msg } = back else {
            panic!("expected protocol reply");
        };
        assert_eq!(src, 1);
        assert_eq!(msg, Msg::WriteOk { tag: 9 });
    }

    #[test]
    fn unknown_site_is_closed_and_missing_client_is_loss() {
        let (client, site) = loopback_pair();
        assert_eq!(client.send(7, &Msg::Ack { tag: 0 }), SendOutcome::Closed);
        // The site has never heard from client 0 on this fresh pair, so a
        // reply to it is silently lost — not an error.
        assert_eq!(site.send(0, &Msg::Ack { tag: 0 }), SendOutcome::Sent);
        drop(client);
    }

    /// A reply fails on a dead connection after the client's new `Hello`
    /// has registered its replacement: the failure may forget only the
    /// connection it happened on.
    #[test]
    fn a_failed_write_does_not_unregister_the_replacement_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let site = SocketEndpoint::client(1, 1, vec![]);
        let connect = || {
            let dialed = TcpStream::connect(addr).unwrap();
            let (accepted, _) = listener.accept().unwrap();
            (
                dialed,
                accepted.try_clone().unwrap(),
                WriteHalf::new(accepted),
            )
        };
        let (_client_side, stale_socket, stale) = connect();
        site.shared.peers().insert(0, stale);

        // `send` looks the connection up...
        let looked_up = site.peer(0).unwrap();
        // ...the client reconnects and its Hello replaces the entry...
        let (_new_client_side, _, fresh) = connect();
        site.shared.peers().insert(0, fresh.clone());
        // ...and only then does the write on the old connection fail.
        stale_socket.shutdown(std::net::Shutdown::Both).unwrap();
        assert!(looked_up.write_msg(&Msg::Ack { tag: 1 }).is_err());
        site.forget_peer(0, &looked_up);
        assert!(site.peer(0).unwrap().same_connection(&fresh));

        // A failure on the connection that is still registered forgets it.
        site.forget_peer(0, &fresh);
        assert!(site.peer(0).is_none());
    }

    #[test]
    fn dial_failure_backs_off_instead_of_erroring() {
        // A site map pointing at a dead port: sends report Sent (silent
        // loss) and the dial backoff keeps the endpoint from spinning.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        let client = SocketEndpoint::client(0, 1, vec![addr]);
        assert_eq!(client.send(1, &Msg::Ack { tag: 1 }), SendOutcome::Sent);
        assert_eq!(client.send(1, &Msg::Ack { tag: 2 }), SendOutcome::Sent);
    }
}
