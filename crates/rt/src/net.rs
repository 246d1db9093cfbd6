//! TCP endpoints: the socket runtime's [`Transport`].
//!
//! A [`SocketEndpoint`] is one process's network identity: an endpoint id
//! (clients `0..ep_base`, site `j` at `ep_base + j`), an optional listener
//! (sites listen; clients only dial), and a table of live connections keyed
//! by peer endpoint id. It implements [`radd_net::Transport`], so the site
//! driver and the client attempt ladder that run over it are the same code
//! the threaded runtime runs (and their normalised effect traces are
//! therefore identical).
//!
//! **Run to completion.** The thread that reads a frame off a socket is the
//! thread that handles it; no frame is decoded by one thread and queued
//! for another (DESIGN.md §12, "Thread model"). The two roles get there
//! differently:
//!
//! * A **client** endpoint ([`SocketEndpoint::client`]) owns no thread and
//!   no inbox. It keeps the read half and the [`FrameDecoder`] of every
//!   connection it dialed, and [`Transport::recv_from`] reads the awaited
//!   site's socket on the caller's own thread, with the rest of the
//!   caller's window as the read timeout. What other sites sent stays in
//!   their kernel buffers until they are the ones awaited. EOF or a
//!   framing error forgets the connection (the next send redials), and a
//!   site with no connection waits its window out, so a dead site paces
//!   the client's ladder instead of collapsing it. One thread drives a
//!   client endpoint: a receive holds the connection table while it
//!   blocks.
//! * A **site** endpoint ([`SocketEndpoint::site`]) has one reader thread
//!   per connection, accepted or dialed, and that thread calls the site's
//!   handler (`SocketEndpoint::attach`, called by `server::run_site`) with each
//!   frame it decodes, under a read lock that the attach itself takes for
//!   writing. Until a handler is attached, frames queue in an inbox
//!   ([`SocketEndpoint::recv_timeout`]); attaching drains that inbox
//!   through the handler *before* the handler is published, under the
//!   lock every reader dispatches under, so no frame overtakes an earlier
//!   frame of its own connection.
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
//! * **A write that fails or times out is loss.** Every stream has
//!   [`WRITE_TIMEOUT`]: a peer that stops reading cannot hold a writer
//!   (which, at a site, holds the site lock) longer than that. The frame
//!   may be torn, so the socket is shut down and the connection forgotten.
//! * **Reconnects replace** the send-side entry for a peer id; a site's
//!   reader of the old connection keeps draining until the stream dies, so
//!   no buffered message is lost by the swap.
//!
//! Lock order, outermost first: the site lock (`server.rs`), the peer
//! table, one connection's write half. A reader thread holds the handler
//! read lock around all three; nothing takes them in another order.
//!
//! Everything here is transport plumbing — protocol behaviour (dedup,
//! retries, idempotence) lives in the sans-IO machines and their drivers.

use crate::frame::{write_frame, write_msg, Frame, FrameDecoder};
use radd_net::{Outbound, Received, RetryPolicy, Transport};
use radd_protocol::Msg;

pub use radd_net::SendOutcome;
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Dial timeout for one connection attempt.
const DIAL_TIMEOUT: Duration = Duration::from_millis(500);

/// How long one `write` may wait for room in the peer's socket buffer
/// before the connection is given up. A site writes while it holds its
/// site lock, so this bounds what a peer that stopped reading (stopped
/// process, a client that walked away from a wide batch) can cost every
/// other peer, and it is what breaks the cycle of two sites each blocked
/// writing to the other with both buffers full.
pub const WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// Redial backoff after a failed dial: quick first retry, 640 ms ceiling.
/// (The schedule is the site retransmit policy — dial failures and lost
/// messages are absorbed by the same machinery.)
const DIAL_RETRY: RetryPolicy = RetryPolicy::SITE_RETRANSMIT;

/// Reader threads poll their stream at this granularity so shutdown flags
/// are observed promptly.
const READ_POLL: Duration = Duration::from_millis(50);

/// A wire control request, as a site endpoint delivers it. Answer by
/// writing a `CtlRep` frame to `reply`.
#[derive(Debug)]
pub struct CtlItem {
    /// Request id to echo.
    pub rid: u64,
    /// The request.
    pub req: crate::frame::CtlReq,
    /// Write half of the requesting connection.
    pub reply: WriteHalf,
}

/// What a site endpoint's connections deliver, to the attached handler or
/// (before one is attached) to the inbox.
#[derive(Debug)]
pub enum Inbound {
    /// A protocol message from endpoint `src`.
    Msg {
        /// Sender's endpoint id.
        src: usize,
        /// The message.
        msg: Msg,
        /// The check its block arrived under, when it carried one
        /// ([`FrameDecoder::next_checked`]).
        block_check: Option<u64>,
    },
    /// A wire control request.
    Ctl(CtlItem),
}

/// What a site does with each item its connections deliver, called on the
/// reader thread that decoded it with the endpoint's sending half. Calls
/// for one connection come in the connection's order; calls for different
/// connections run concurrently.
pub(crate) type Handler = Box<dyn Fn(&SendHalf, Inbound) + Send + Sync>;

/// Shareable write half of a connection. Writes are whole frames under the
/// lock, so frames never interleave mid-stream.
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
        self.whole(|stream| write_frame(stream, frame))
    }

    /// Write one protocol message as a [`Frame::Proto`], its block under
    /// `block_check` when the caller knows it ([`write_msg`]).
    pub fn write_msg(&self, msg: &Msg, block_check: Option<u64>) -> std::io::Result<()> {
        self.whole(|stream| write_msg(stream, msg, block_check))
    }

    /// Run one frame's write. A write that fails, or waits out
    /// [`WRITE_TIMEOUT`], may have left a torn frame behind: the socket is
    /// shut down both ways so nothing can follow the tear and whoever reads
    /// this connection sees it end.
    fn whole(
        &self,
        write: impl FnOnce(&mut TcpStream) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        // A poisoned lock means another writer panicked mid-frame and may
        // have left a torn prefix on the stream; report the connection
        // dead (callers drop it and redial) instead of panicking the
        // whole site on top of it.
        let mut stream = self.stream.lock().map_err(|_| {
            std::io::Error::new(
                ErrorKind::BrokenPipe,
                "connection abandoned after a writer panic",
            )
        })?;
        let done = write(&mut stream);
        if done.is_err() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        done
    }

    /// Whether `self` and `other` are halves of the same connection.
    fn same_connection(&self, other: &WriteHalf) -> bool {
        Arc::ptr_eq(&self.stream, &other.stream)
    }
}

/// A connection a client endpoint dialed: the half it reads on its own
/// thread, and the write half registered for the same peer (to tell this
/// connection from its replacement when it dies).
struct ClientConn {
    read: TcpStream,
    dec: FrameDecoder,
    write: WriteHalf,
    /// The read timeout last set on `read`, kept so that a wait sets it
    /// only when it no longer fits the wait's window.
    timeout: Option<Duration>,
}

/// Under this much of a window a wait's read timeout is all of what is
/// left, so that a wait with nothing to read ends on its deadline.
const FINE_TIMEOUT: Duration = Duration::from_millis(1);

/// What differs between the two kinds of endpoint: who reads a connection.
enum Role {
    /// The caller of [`Transport::recv_from`] does, off this table.
    Client {
        conns: Mutex<HashMap<usize, ClientConn>>,
    },
    /// A reader thread per connection does, and hands each item to
    /// `handler` — or to the inbox while there is none.
    Site {
        handler: RwLock<Option<Handler>>,
        inbox_tx: Sender<Inbound>,
        inbox_rx: Mutex<Receiver<Inbound>>,
    },
}

struct Shared {
    id: usize,
    ep_base: usize,
    site_addrs: Vec<SocketAddr>,
    /// Live send-side connections by peer endpoint id.
    peers: Mutex<HashMap<usize, WriteHalf>>,
    /// Failed-dial backoff per site index: (next allowed attempt, step).
    dial_backoff: Mutex<HashMap<usize, (Instant, u32)>>,
    shutdown: AtomicBool,
    role: Role,
}

/// Recover a guard whatever a panicking holder did. Sound for the tables
/// here: holders only perform infallible `HashMap` insert/remove/get (or a
/// channel receive) under the lock, so a panic elsewhere in a holding
/// thread cannot leave one half-updated, and recovering keeps one
/// panicking reader thread from cascading into every other connection.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The sending half of a [`SocketEndpoint`]: everything but the receive
/// side. Reader threads own one (a dial made while handling a message
/// starts the next reader), and a site's [`Handler`] is lent one.
#[derive(Clone)]
pub(crate) struct SendHalf(Arc<Shared>);

impl Outbound for SendHalf {
    fn id(&self) -> usize {
        self.0.id
    }

    fn ep_base(&self) -> usize {
        self.0.ep_base
    }

    /// Send `msg` to endpoint `dst`, dialing if needed. A write into a
    /// live connection, a write that failed or timed out, a dial that is
    /// pending or backing off and a client that is not connected are all
    /// [`SendOutcome::Sent`] (retriable loss); a destination outside the
    /// site map or a shut-down endpoint is [`SendOutcome::Closed`].
    fn send(&self, dst: usize, msg: &Msg) -> SendOutcome {
        self.send_frame(dst, msg, None)
    }

    /// The frame's block goes out under `block_check`, not a fresh pass.
    fn send_checked(&self, dst: usize, msg: &Msg, block_check: u64) -> SendOutcome {
        self.send_frame(dst, msg, Some(block_check))
    }
}

impl SendHalf {
    fn send_frame(&self, dst: usize, msg: &Msg, block_check: Option<u64>) -> SendOutcome {
        let me = &*self.0;
        if me.shutdown.load(Ordering::Relaxed) {
            return SendOutcome::Closed;
        }
        if let Some(w) = self.peer(dst) {
            if w.write_msg(msg, block_check).is_ok() {
                return SendOutcome::Sent;
            }
            // Dead connection: forget it. A site destination falls through
            // to a fresh dial below; a client destination is simply lost.
            self.forget_peer(dst, &w);
        }
        if dst < me.ep_base {
            // A client we have no connection to: unreachable until it dials
            // us again. Loss, not closure — its retransmission recovers.
            return SendOutcome::Sent;
        }
        let site = dst - me.ep_base;
        if site >= me.site_addrs.len() {
            return SendOutcome::Closed;
        }
        // Dial refused or backing off: silent loss.
        if let Some(w) = self.dial(site) {
            if w.write_msg(msg, block_check).is_err() {
                self.forget_peer(dst, &w);
            }
        }
        SendOutcome::Sent
    }

    fn peer(&self, dst: usize) -> Option<WriteHalf> {
        locked(&self.0.peers).get(&dst).cloned()
    }

    /// Unregister `dst` after a write to `failed` failed, unless the entry
    /// is no longer that connection: a reconnecting peer's `Hello` may have
    /// registered its new connection since the lookup, and removing that
    /// one would leave a peer whose socket is healthy (so it never
    /// re-dials) without replies until its retry ladder runs out.
    fn forget_peer(&self, dst: usize, failed: &WriteHalf) {
        let mut peers = locked(&self.0.peers);
        if peers.get(&dst).is_some_and(|w| w.same_connection(failed)) {
            peers.remove(&dst);
        }
    }

    /// Dial site `site` (by index), handshake, and register the
    /// connection: its write half in the peer table, its read half with
    /// whoever reads for this role. `None` when the dial failed or its
    /// backoff window has not elapsed yet.
    fn dial(&self, site: usize) -> Option<WriteHalf> {
        let me = &*self.0;
        let dst = me.ep_base + site;
        if let Some(&(next_at, _)) = locked(&me.dial_backoff).get(&site) {
            if Instant::now() < next_at {
                return None;
            }
        }
        match TcpStream::connect_timeout(&me.site_addrs[site], DIAL_TIMEOUT) {
            Ok(stream) => {
                tune(&stream);
                let write = WriteHalf::new(stream.try_clone().ok()?);
                if write.write(&Frame::Hello { id: me.id as u64 }).is_err() {
                    return None;
                }
                locked(&me.dial_backoff).remove(&site);
                locked(&me.peers).insert(dst, write.clone());
                match &me.role {
                    Role::Client { conns } => {
                        let conn = ClientConn {
                            read: stream,
                            dec: FrameDecoder::new(),
                            write: write.clone(),
                            timeout: None,
                        };
                        locked(conns).insert(dst, conn);
                    }
                    Role::Site { .. } => {
                        let out = self.clone();
                        let write = write.clone();
                        std::thread::spawn(move || reader_loop(stream, &write, Some(dst), &out));
                    }
                }
                Some(write)
            }
            Err(_) => {
                let mut backoff = locked(&me.dial_backoff);
                let step = backoff.get(&site).map_or(0, |&(_, s)| s.saturating_add(1));
                backoff.insert(site, (Instant::now() + DIAL_RETRY.delay(step), step));
                None
            }
        }
    }

    /// Hand `item` to the attached handler, on this (reader) thread, or
    /// queue it while there is none. The read lock is held across the
    /// handler so that [`SocketEndpoint::attach`], which writes, cannot
    /// publish a handler between a reader queueing one frame and
    /// dispatching the next.
    fn dispatch(&self, item: Inbound) {
        let Role::Site {
            handler, inbox_tx, ..
        } = &self.0.role
        else {
            return;
        };
        // Only `attach` writes, so poison means a handler panicked while
        // draining; the slot itself is whole either way.
        match &*handler.read().unwrap_or_else(PoisonError::into_inner) {
            Some(handle) => handle(self, item),
            None => {
                let _ = inbox_tx.send(item);
            }
        }
    }

    /// A client's receive: read `peer`'s connection on this thread until a
    /// protocol frame is in or `timeout` is spent.
    ///
    /// A read waits at most the read timeout set on the socket, which must
    /// fit what is left of the window, so the window is never overrun; a
    /// read that times out before the deadline is followed by another. The
    /// timeout is set again only when it no longer fits, or is under half
    /// of what is left, and then to three quarters of it: a client's
    /// windows are mostly one length, so the next wait's, a few
    /// microseconds longer or shorter, still fits, and a reply costs no
    /// `setsockopt`. Under [`FINE_TIMEOUT`] it is set to all that is left.
    fn read_peer(
        &self,
        conns: &Mutex<HashMap<usize, ClientConn>>,
        peer: usize,
        timeout: Duration,
    ) -> Option<Received> {
        let deadline = Instant::now() + timeout;
        let mut conns = locked(conns);
        let Some(conn) = conns.get_mut(&peer) else {
            // Never dialed, dial backing off, or forgotten: nothing can
            // arrive, but the window still paces the caller's ladder.
            drop(conns);
            std::thread::sleep(timeout);
            return None;
        };
        loop {
            match conn.dec.next_frame() {
                Ok(Some(Frame::Proto(msg))) => return Some(Received { src: peer, msg }),
                // A site sends a client nothing else.
                Ok(Some(_)) => continue,
                Ok(None) => {}
                Err(e) => {
                    eprintln!("radd-rt: dropping the connection to endpoint {peer}: {e}");
                    break;
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            if conn.timeout.is_none_or(|set| set > left || set < left / 2) {
                let set = if left < FINE_TIMEOUT {
                    left
                } else {
                    left - left / 4
                };
                if conn.read.set_read_timeout(Some(set)).is_err() {
                    return None;
                }
                conn.timeout = Some(set);
            }
            match conn.dec.read_from(&mut conn.read) {
                Ok(0) => break, // peer closed
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => break,
            }
        }
        // The connection is useless: forget both halves so the next send
        // redials, and wait the window out as for any silent site.
        let dead = conns.remove(&peer).expect("borrowed above");
        drop(conns);
        self.forget_peer(peer, &dead.write);
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        None
    }
}

/// Per-stream settings every connection gets, dialed or accepted.
fn tune(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
}

/// One process's socket identity. See the module docs.
pub struct SocketEndpoint {
    out: SendHalf,
    accept_thread: Option<JoinHandle<()>>,
}

impl SocketEndpoint {
    /// A client endpoint: dials sites, never listens, owns no thread.
    pub fn client(id: usize, ep_base: usize, site_addrs: Vec<SocketAddr>) -> SocketEndpoint {
        let role = Role::Client {
            conns: Mutex::new(HashMap::new()),
        };
        Self::build(id, ep_base, site_addrs, role, None)
    }

    /// A site endpoint serving on `listener` (bind it first — typically to
    /// `127.0.0.1:0` in tests — so the chosen port is known to the caller).
    pub fn site(
        id: usize,
        ep_base: usize,
        site_addrs: Vec<SocketAddr>,
        listener: TcpListener,
    ) -> SocketEndpoint {
        let (inbox_tx, inbox_rx) = std::sync::mpsc::channel();
        let role = Role::Site {
            handler: RwLock::new(None),
            inbox_tx,
            inbox_rx: Mutex::new(inbox_rx),
        };
        Self::build(id, ep_base, site_addrs, role, Some(listener))
    }

    fn build(
        id: usize,
        ep_base: usize,
        site_addrs: Vec<SocketAddr>,
        role: Role,
        listener: Option<TcpListener>,
    ) -> SocketEndpoint {
        let out = SendHalf(Arc::new(Shared {
            id,
            ep_base,
            site_addrs,
            peers: Mutex::new(HashMap::new()),
            dial_backoff: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            role,
        }));
        let accept_thread = listener.and_then(|l| {
            // A listener that cannot be polled would never observe the
            // shutdown flag; running deaf (peers' dials fail and back
            // off — silent loss, which the retransmission layer absorbs)
            // beats panicking a site that may still hold durable state.
            if let Err(e) = l.set_nonblocking(true) {
                eprintln!("radd-rt: cannot poll listener ({e}); serving without accepts");
                return None;
            }
            let out = out.clone();
            Some(std::thread::spawn(move || accept_loop(&l, &out)))
        });
        SocketEndpoint { out, accept_thread }
    }

    /// The sending half, as reader threads and a site's handler hold it.
    pub(crate) fn sender(&self) -> &SendHalf {
        &self.out
    }

    /// A site endpoint's inbox: the next item that arrived while no handler
    /// was attached, waiting up to `timeout`. (A client endpoint has no
    /// inbox: [`Transport::recv_from`] names the peer to read.)
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Inbound, RecvTimeoutError> {
        match &self.out.0.role {
            Role::Site { inbox_rx, .. } => locked(inbox_rx).recv_timeout(timeout),
            Role::Client { .. } => Err(RecvTimeoutError::Disconnected),
        }
    }

    /// Route everything this site endpoint's connections deliver to
    /// `handler`, from now on and on the reader thread that decoded it.
    /// What queued in the inbox until now goes through `handler` first, on
    /// this thread and before any reader can see the handler: per-peer
    /// FIFO survives the hand-over. Replaces an earlier handler. No-op on
    /// a client endpoint, which has no readers.
    pub(crate) fn attach(&self, handler: Handler) {
        let Role::Site {
            handler: slot,
            inbox_rx,
            ..
        } = &self.out.0.role
        else {
            return;
        };
        let mut slot = slot.write().unwrap_or_else(PoisonError::into_inner);
        let inbox = locked(inbox_rx);
        while let Ok(item) = inbox.try_recv() {
            handler(&self.out, item);
        }
        *slot = Some(handler);
    }

    /// Undo [`attach`](SocketEndpoint::attach) and drop the handler: later
    /// frames queue in the inbox again. Returns once no reader thread is
    /// inside the handler.
    pub(crate) fn detach(&self) {
        if let Role::Site { handler, .. } = &self.out.0.role {
            *handler.write().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }

    /// Stop accepting and tell reader threads to wind down. Existing
    /// connections die as their reads next time out.
    pub fn shutdown(&mut self) {
        self.out.0.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Outbound for SocketEndpoint {
    fn id(&self) -> usize {
        self.out.id()
    }

    fn ep_base(&self) -> usize {
        self.out.ep_base()
    }

    /// Dials on demand; see the module docs for what counts as loss.
    fn send(&self, dst: usize, msg: &Msg) -> SendOutcome {
        self.out.send(dst, msg)
    }

    fn send_checked(&self, dst: usize, msg: &Msg, block_check: u64) -> SendOutcome {
        self.out.send_checked(dst, msg, block_check)
    }
}

impl Transport for SocketEndpoint {
    /// A client reads `peer`'s connection on the calling thread. A site
    /// endpoint has one inbox for all peers and takes its next item
    /// (nothing arrives there once a handler is attached; a control
    /// request found there is not a message and ends the wait).
    fn recv_from(&self, peer: usize, timeout: Duration) -> Option<Received> {
        match &self.out.0.role {
            Role::Client { conns } => self.out.read_peer(conns, peer, timeout),
            Role::Site { .. } => match self.recv_timeout(timeout) {
                Ok(Inbound::Msg { src, msg, .. }) => Some(Received { src, msg }),
                _ => None,
            },
        }
    }
}

impl Drop for SocketEndpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept loop: non-blocking polls so the shutdown flag is honoured.
fn accept_loop(listener: &TcpListener, out: &SendHalf) {
    while !out.0.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                tune(&stream);
                let Ok(write) = stream.try_clone().map(WriteHalf::new) else {
                    continue;
                };
                let out = out.clone();
                std::thread::spawn(move || reader_loop(stream, &write, None, &out));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// A site's reader of one connection: decode each frame and run it to
/// completion through [`SendHalf::dispatch`] before reading the next.
/// `peer_id` is known for dialed connections; accepted ones learn it from
/// the leading [`Frame::Hello`] and then register `write`, their write
/// half, so replies can route back.
fn reader_loop(stream: TcpStream, write: &WriteHalf, peer_id: Option<usize>, out: &SendHalf) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut reader = stream;
    let mut dec = FrameDecoder::new();
    let mut peer_id = peer_id;
    loop {
        if out.0.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // Drain every complete frame before reading again.
        loop {
            let (frame, block_check) = match dec.next_checked() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                // Framing lost (corrupt stream, or a peer of another wire
                // version): the connection is useless.
                Err(e) => {
                    let who = peer_id.map_or("a peer that sent no Hello".into(), |id| {
                        format!("endpoint {id}")
                    });
                    eprintln!("radd-rt: closing the connection from {who}: {e}");
                    return;
                }
            };
            match frame {
                Frame::Hello { id } => {
                    let id = id as usize;
                    peer_id = Some(id);
                    locked(&out.0.peers).insert(id, write.clone());
                }
                Frame::Proto(msg) => {
                    // Protocol before Hello: drop — an anonymous peer
                    // cannot receive replies anyway.
                    if let Some(src) = peer_id {
                        out.dispatch(Inbound::Msg {
                            src,
                            msg,
                            block_check,
                        });
                    }
                }
                Frame::CtlReq { rid, req } => out.dispatch(Inbound::Ctl(CtlItem {
                    rid,
                    req,
                    reply: write.clone(),
                })),
                // Replies are matched by the control *client* (radd-cli),
                // which reads its connection directly; an endpoint never
                // expects one.
                Frame::CtlRep { .. } => {}
            }
        }
        match dec.read_from(&mut reader) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    const LONG: Duration = Duration::from_secs(5);

    fn loopback_pair() -> (SocketEndpoint, SocketEndpoint) {
        // One "site" (ep 1) and one "client" (ep 0).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let site = SocketEndpoint::site(1, 1, vec![addr], listener);
        let client = SocketEndpoint::client(0, 1, vec![addr]);
        (client, site)
    }

    /// The next protocol message in a site endpoint's inbox.
    fn inbox_msg(site: &SocketEndpoint) -> (usize, Msg) {
        match site.recv_timeout(LONG).expect("a frame arrives") {
            Inbound::Msg { src, msg, .. } => (src, msg),
            Inbound::Ctl(_) => panic!("expected a protocol message"),
        }
    }

    #[test]
    fn request_and_reply_cross_the_wire() {
        let (client, site) = loopback_pair();
        assert_eq!(
            client.send(1, &Msg::Read { index: 4, tag: 9 }),
            SendOutcome::Sent
        );
        assert_eq!(inbox_msg(&site), (0, Msg::Read { index: 4, tag: 9 }));
        // Reply over the inbound connection (site never dials a client).
        assert_eq!(site.send(0, &Msg::WriteOk { tag: 9 }), SendOutcome::Sent);
        let back = client.recv_from(1, LONG).expect("the reply arrives");
        assert_eq!((back.src, back.msg), (1, Msg::WriteOk { tag: 9 }));
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
        let endpoint = SocketEndpoint::client(1, 1, vec![]);
        let site = endpoint.sender();
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
        locked(&site.0.peers).insert(0, stale);

        // `send` looks the connection up...
        let looked_up = site.peer(0).unwrap();
        // ...the client reconnects and its Hello replaces the entry...
        let (_new_client_side, _, fresh) = connect();
        locked(&site.0.peers).insert(0, fresh.clone());
        // ...and only then does the write on the old connection fail.
        stale_socket.shutdown(Shutdown::Both).unwrap();
        assert!(looked_up.write_msg(&Msg::Ack { tag: 1 }, None).is_err());
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

    /// Frames that reached the inbox before `attach` and frames the handler
    /// gets after it are one stream, in the connection's order: the peer
    /// keeps sending while the handler is attached mid-stream.
    #[test]
    fn attach_hands_over_in_connection_order_and_loses_nothing() {
        const N: u64 = 2000;
        let (client, site) = loopback_pair();
        let streamer = std::thread::spawn(move || {
            for tag in 0..N {
                assert_eq!(client.send(1, &Msg::Ack { tag }), SendOutcome::Sent);
            }
            client // keep the connection open until the tags are counted
        });
        // Some of the stream is in the inbox before the handler exists.
        let first = site.recv_timeout(LONG).expect("the stream started");
        let Inbound::Msg {
            msg: Msg::Ack { tag: 0 },
            ..
        } = first
        else {
            panic!("the stream starts at tag 0, got {first:?}");
        };
        let (tags_tx, tags_rx) = mpsc::channel();
        let tags_tx = Mutex::new(tags_tx);
        site.attach(Box::new(move |_, item| {
            if let Inbound::Msg { msg, .. } = item {
                let _ = locked(&tags_tx).send(msg.tag());
            }
        }));
        for want in 1..N {
            assert_eq!(tags_rx.recv_timeout(LONG), Ok(want));
        }
        drop(streamer.join().unwrap());
    }

    /// What site B sends while the client waits on site A stays on B's
    /// connection and is delivered when B is the one awaited.
    #[test]
    fn a_reply_from_another_site_waits_for_its_own_turn() {
        let listeners = [(); 2].map(|()| TcpListener::bind("127.0.0.1:0").unwrap());
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let [site_a, site_b] = [0, 1].map(|j| {
            SocketEndpoint::site(1 + j, 1, addrs.clone(), listeners[j].try_clone().unwrap())
        });
        let client = SocketEndpoint::client(0, 1, addrs);
        client.send(1, &Msg::Read { index: 0, tag: 1 });
        client.send(2, &Msg::Read { index: 0, tag: 2 });
        // Both sites have the client's Hello once its request is in.
        assert_eq!(inbox_msg(&site_a).0, 0);
        assert_eq!(inbox_msg(&site_b).0, 0);

        site_b.send(0, &Msg::WriteOk { tag: 2 });
        assert!(
            client.recv_from(1, Duration::from_millis(100)).is_none(),
            "A sent nothing; B's reply is not A's"
        );
        site_a.send(0, &Msg::WriteOk { tag: 1 });
        let from_a = client.recv_from(1, LONG).expect("A's reply");
        assert_eq!((from_a.src, from_a.msg), (1, Msg::WriteOk { tag: 1 }));
        let from_b = client.recv_from(2, LONG).expect("B's reply was kept");
        assert_eq!((from_b.src, from_b.msg), (2, Msg::WriteOk { tag: 2 }));
    }

    /// A wait lasts its window and no longer, whatever timeout an earlier
    /// wait left on the socket: a longer one (300 then 40 ms), a shorter
    /// one that expires before the deadline and is read past (40 then 120
    /// ms), and windows under [`FINE_TIMEOUT`].
    #[test]
    fn a_wait_never_overruns_its_window() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = SocketEndpoint::client(0, 1, vec![listener.local_addr().unwrap()]);
        client.send(1, &Msg::Ack { tag: 1 });
        let (_silent, _) = listener.accept().unwrap();
        for ms in [300, 40, 120, 5, 60, 1] {
            let window = Duration::from_millis(ms);
            let started = Instant::now();
            assert!(client.recv_from(1, window).is_none());
            let took = started.elapsed();
            assert!(took >= window, "a {ms} ms wait was cut short: {took:?}");
            assert!(
                took < window + Duration::from_millis(30),
                "a {ms} ms wait overran: {took:?}"
            );
        }
    }

    /// Replies awaited through windows of one length set the socket's read
    /// timeout once, not once per reply.
    #[test]
    fn waits_of_one_window_set_the_read_timeout_once() {
        let (client, site) = loopback_pair();
        let set = |client: &SocketEndpoint| {
            let Role::Client { conns } = &client.out.0.role else {
                unreachable!("a client endpoint");
            };
            locked(conns).get(&1).and_then(|conn| conn.timeout)
        };
        let mut first = None;
        for tag in 0..20 {
            client.send(1, &Msg::Read { index: 0, tag });
            inbox_msg(&site);
            site.send(0, &Msg::WriteOk { tag });
            assert!(client.recv_from(1, LONG).is_some());
            let now = set(&client).expect("a wait set the timeout");
            assert_eq!(*first.get_or_insert(now), now, "reply {tag} set it again");
        }
    }

    /// The peer closes mid-wait: the connection is forgotten, the wait
    /// still lasts its window (a dead site must pace the ladder), and the
    /// next send dials the listener that came back on the same port.
    #[test]
    fn a_connection_closed_mid_wait_is_forgotten_and_redialed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = SocketEndpoint::client(0, 1, vec![addr]);
        client.send(1, &Msg::Ack { tag: 1 });
        let (accepted, _) = listener.accept().unwrap();
        let window = Duration::from_millis(300);
        let closer = std::thread::spawn(move || {
            std::thread::sleep(window / 3);
            drop(accepted);
            drop(listener);
        });
        let started = Instant::now();
        assert!(client.recv_from(1, window).is_none());
        assert!(started.elapsed() >= window, "the window was cut short");
        closer.join().unwrap();
        assert!(
            client.out.peer(1).is_none(),
            "the dead connection is forgotten"
        );
        // Nothing to read from: the window is still waited out.
        let started = Instant::now();
        assert!(client.recv_from(1, window / 3).is_none());
        assert!(started.elapsed() >= window / 3);

        let listener = TcpListener::bind(addr).expect("same port again");
        client.send(1, &Msg::Ack { tag: 2 });
        let (mut accepted, _) = listener.accept().unwrap();
        let mut dec = FrameDecoder::new();
        let mut next = || crate::frame::read_frame(&mut accepted, &mut dec, &mut []).unwrap();
        assert_eq!(next(), Some(Frame::Hello { id: 0 }));
        assert_eq!(next(), Some(Frame::Proto(Msg::Ack { tag: 2 })));
    }
}
