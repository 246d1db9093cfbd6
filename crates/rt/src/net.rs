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
//! * A **site** endpoint ([`SocketEndpoint::site`]) has one receive path:
//!   one reader thread per connection, accepted or dialed, calls the
//!   site's handler (`SocketEndpoint::attach`, called by
//!   `server::run_site`) with each frame it decodes, in the connection's
//!   order. The endpoint starts accepting in `attach`; until then the
//!   listen backlog and the socket buffers hold whatever peers send, so
//!   nothing needs queueing on this side and no frame can overtake an
//!   earlier frame of its own connection. A frame decoded while no
//!   handler is attached (after `detach`, or on a connection the site
//!   dialed before attaching, which `run_site` never does) is dropped:
//!   silent loss.
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
//! **Faults.** An endpoint the in-process cluster builds carries the
//! cluster's [`FaultState`]: every protocol send asks it for a
//! [`Verdict`] with this endpoint's id and the destination's before it
//! writes, and drops the message or writes it twice, back to back on the
//! same connection. `Hello` and control frames are not protocol sends and
//! are never faulted. Endpoints built by [`SocketEndpoint::client`] and
//! [`SocketEndpoint::site`] (the standalone binaries, the benchmark) carry
//! none.
//!
//! Lock order, outermost first: the site lock (`server.rs`), the peer
//! table, one connection's write half. A reader thread holds the handler
//! read lock around all three; nothing takes them in another order. The
//! switchboard takes no lock (its state is atomics), so it has no place in
//! this order.
//!
//! Everything here is transport plumbing — protocol behaviour (dedup,
//! retries, idempotence) lives in the sans-IO machines and their drivers.

use crate::frame::{write_frame, write_msg, Frame, FrameDecoder};
use radd_net::{FaultState, Outbound, Received, RetryPolicy, Transport, Verdict};
use radd_protocol::Msg;

pub use radd_net::SendOutcome;
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Backoff after a failed dial or accept: quick first retry, 640 ms
/// ceiling. (The schedule is the site retransmit policy — dial failures
/// and lost messages are absorbed by the same machinery.)
const BACKOFF: RetryPolicy = RetryPolicy::SITE_RETRANSMIT;

/// Reader threads poll their stream at this granularity so shutdown flags
/// are observed promptly.
const READ_POLL: Duration = Duration::from_millis(50);

/// How often an idle listener is polled for a new connection.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

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

/// What a site endpoint's connections deliver to its attached handler.
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
    /// `handler`. `listener` waits here, unpolled, until the first
    /// [`SocketEndpoint::attach`] starts accepting on it.
    Site {
        handler: RwLock<Option<Handler>>,
        listener: Mutex<Option<TcpListener>>,
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
    /// The switchboard every protocol send asks first, when there is one.
    faults: Option<Arc<FaultState>>,
    shutdown: AtomicBool,
    role: Role,
}

/// Recover a guard whatever a panicking holder did. Sound for the tables
/// here: holders only perform infallible `HashMap` insert/remove/get (or
/// an `Option::take`) under the lock, so a panic elsewhere in a holding
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
    /// pending or backing off, a client that is not connected and a
    /// message the switchboard dropped are all [`SendOutcome::Sent`]
    /// (retriable loss); a destination outside the site map with no
    /// connection here, or a shut-down endpoint, is
    /// [`SendOutcome::Closed`].
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
        // A destination outside the map that never dialed us is closed
        // whatever the switchboard would say, as on the threaded runtime.
        let outside_map = dst >= me.ep_base + me.site_addrs.len();
        let conn = self.peer(dst);
        if conn.is_none() && outside_map {
            return SendOutcome::Closed;
        }
        let copies = match me.faults.as_ref().map(|f| f.verdict(me.id, dst)) {
            Some(Verdict::Drop) => return SendOutcome::Sent,
            Some(Verdict::Duplicate) => 2,
            Some(Verdict::Forward) | None => 1,
        };
        // Copies written so far: a redial sends only the rest, so a
        // connection that breaks between a duplicate's two copies still
        // delivers at most two.
        let mut written = 0;
        let mut write = |w: &WriteHalf| -> std::io::Result<()> {
            while written < copies {
                w.write_msg(msg, block_check)?;
                written += 1;
            }
            Ok(())
        };
        if let Some(w) = conn {
            if write(&w).is_ok() {
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
        if outside_map {
            return SendOutcome::Closed;
        }
        // Dial refused or backing off: silent loss.
        if let Some(w) = self.dial(dst - me.ep_base) {
            if write(&w).is_err() {
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
                    Role::Site { .. } => spawn_reader(stream, write.clone(), Some(dst), self),
                }
                Some(write)
            }
            Err(_) => {
                let mut backoff = locked(&me.dial_backoff);
                let step = backoff.get(&site).map_or(0, |&(_, s)| s.saturating_add(1));
                backoff.insert(site, (Instant::now() + BACKOFF.delay(step), step));
                None
            }
        }
    }

    /// Hand `item` to the attached handler, on this (reader) thread. The
    /// read lock is held across the handler, so that once
    /// [`SocketEndpoint::detach`] returns no reader is inside it. With no
    /// handler attached the item is dropped: loss, as for any frame that
    /// reaches a site that has stopped serving.
    fn dispatch(&self, item: Inbound) {
        let Role::Site { handler, .. } = &self.0.role else {
            return;
        };
        // Writers only swap the slot, so it is whole even if poisoned.
        if let Some(handle) = &*handler.read().unwrap_or_else(PoisonError::into_inner) {
            handle(self, item);
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
                Err(e) if benign(&e) => {}
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

/// Whether an I/O error leaves its socket usable, so that the loop that
/// met it goes on: a read that timed out (a poll, or a wait's window), a
/// call a signal interrupted, a listener with nothing to accept yet. The
/// one classification the accept loop, a site's readers and a client's
/// wait share.
fn benign(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
    )
}

/// One process's socket identity. See the module docs.
pub struct SocketEndpoint {
    out: SendHalf,
    /// A site's accept thread, once [`attach`](SocketEndpoint::attach)
    /// has started it.
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl SocketEndpoint {
    /// A client endpoint: dials sites, never listens, owns no thread.
    pub fn client(id: usize, ep_base: usize, site_addrs: Vec<SocketAddr>) -> SocketEndpoint {
        Self::build(id, ep_base, site_addrs, None, None)
    }

    /// A site endpoint serving on `listener` (bind it first — typically to
    /// `127.0.0.1:0` in tests — so the chosen port is known to the caller).
    pub fn site(
        id: usize,
        ep_base: usize,
        site_addrs: Vec<SocketAddr>,
        listener: TcpListener,
    ) -> SocketEndpoint {
        Self::build(id, ep_base, site_addrs, Some(listener), None)
    }

    /// A site endpoint serving on `listener`, or a client endpoint without
    /// one, whose protocol sends ask `faults` first when it is given.
    pub(crate) fn build(
        id: usize,
        ep_base: usize,
        site_addrs: Vec<SocketAddr>,
        listener: Option<TcpListener>,
        faults: Option<Arc<FaultState>>,
    ) -> SocketEndpoint {
        let role = if listener.is_some() {
            Role::Site {
                handler: RwLock::new(None),
                listener: Mutex::new(listener),
            }
        } else {
            Role::Client {
                conns: Mutex::new(HashMap::new()),
            }
        };
        let out = SendHalf(Arc::new(Shared {
            id,
            ep_base,
            site_addrs,
            peers: Mutex::new(HashMap::new()),
            dial_backoff: Mutex::new(HashMap::new()),
            faults,
            shutdown: AtomicBool::new(false),
            role,
        }));
        SocketEndpoint {
            out,
            accept_thread: Mutex::new(None),
        }
    }

    /// The sending half, as reader threads and a site's handler hold it.
    pub(crate) fn sender(&self) -> &SendHalf {
        &self.out
    }

    /// Route everything this site endpoint's connections deliver to
    /// `handler`, from now on and on the reader thread that decoded it.
    /// The first attach starts accepting: what peers sent before it waits
    /// in the listen backlog and their socket buffers, and reaches the
    /// handler in each connection's order. Replaces an earlier handler.
    /// No-op on a client endpoint, which has no readers.
    pub(crate) fn attach(&self, handler: Handler) {
        let Role::Site {
            handler: slot,
            listener,
        } = &self.out.0.role
        else {
            return;
        };
        *slot.write().unwrap_or_else(PoisonError::into_inner) = Some(handler);
        let Some(l) = locked(listener).take() else {
            return;
        };
        // A listener that cannot be polled would never observe the
        // shutdown flag; running deaf (peers' dials fail and back off —
        // silent loss, which the retransmission layer absorbs) beats
        // panicking a site that may still hold durable state.
        if let Err(e) = l.set_nonblocking(true) {
            eprintln!("radd-rt: cannot poll listener ({e}); serving without accepts");
            return;
        }
        let out = self.out.clone();
        let accept = move || l.accept().map(|(stream, _)| stream);
        *locked(&self.accept_thread) = Some(std::thread::spawn(move || accept_loop(accept, &out)));
    }

    /// Undo [`attach`](SocketEndpoint::attach) and drop the handler: later
    /// frames are dropped. Returns once no reader thread is inside the
    /// handler.
    pub(crate) fn detach(&self) {
        if let Role::Site { handler, .. } = &self.out.0.role {
            *handler.write().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }

    /// Stop accepting and tell reader threads to wind down. Existing
    /// connections die as their reads next time out.
    pub fn shutdown(&mut self) {
        self.out.0.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = locked(&self.accept_thread).take() {
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
    /// A client reads `peer`'s connection on the calling thread. What
    /// reaches a site endpoint goes to its handler only, so a site's wait
    /// lasts its window and finds nothing.
    fn recv_from(&self, peer: usize, timeout: Duration) -> Option<Received> {
        let Role::Client { conns } = &self.out.0.role else {
            std::thread::sleep(timeout);
            return None;
        };
        self.out.read_peer(conns, peer, timeout)
    }
}

impl Drop for SocketEndpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept loop: non-blocking polls of `accept` so the shutdown flag is
/// honoured. Only shutdown ends it: any other error (a handshake aborted
/// before we took it, a full descriptor table) leaves the listener whole,
/// so it backs off and accepts on.
fn accept_loop(mut accept: impl FnMut() -> std::io::Result<TcpStream>, out: &SendHalf) {
    let mut failures = 0;
    while !out.0.shutdown.load(Ordering::Relaxed) {
        match accept() {
            Ok(stream) => {
                failures = 0;
                tune(&stream);
                if let Ok(write) = stream.try_clone().map(WriteHalf::new) {
                    spawn_reader(stream, write, None, out);
                }
            }
            Err(e) if benign(&e) => std::thread::sleep(ACCEPT_POLL),
            Err(e) => {
                eprintln!("radd-rt: accept failed ({e}); backing off");
                std::thread::sleep(BACKOFF.delay(failures));
                failures = failures.saturating_add(1);
            }
        }
    }
}

/// Start a site's reader of one connection on a thread of its own.
fn spawn_reader(stream: TcpStream, write: WriteHalf, peer_id: Option<usize>, out: &SendHalf) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let out = out.clone();
    std::thread::spawn(move || reader_loop(stream, &write, peer_id, &out));
}

/// A site's reader of one connection: decode each frame and run it to
/// completion through [`SendHalf::dispatch`] before reading the next.
/// `peer_id` is known for dialed connections; accepted ones learn it from
/// the leading [`Frame::Hello`] and then register `write`, their write
/// half, so replies can route back.
fn reader_loop(mut reader: impl Read, write: &WriteHalf, peer_id: Option<usize>, out: &SendHalf) {
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
            Err(e) if benign(&e) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    const LONG: Duration = Duration::from_secs(5);

    /// What a site endpoint's handler was given, `(src, msg)` per
    /// protocol message.
    type Heard = mpsc::Receiver<(usize, Msg)>;

    /// Attach a handler to `site` that passes each protocol message on.
    fn listen(site: &SocketEndpoint) -> Heard {
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        site.attach(Box::new(move |_, item| {
            if let Inbound::Msg { src, msg, .. } = item {
                let _ = locked(&tx).send((src, msg));
            }
        }));
        rx
    }

    /// The next protocol message a site's handler is given.
    fn hear(site: &Heard) -> (usize, Msg) {
        site.recv_timeout(LONG).expect("a frame arrives")
    }

    /// One "site" (ep 1), serving, and one "client" (ep 0).
    fn loopback_pair() -> (SocketEndpoint, SocketEndpoint, Heard) {
        let (client, site) = unattached_pair();
        let heard = listen(&site);
        (client, site, heard)
    }

    /// [`loopback_pair`] before the site attaches a handler.
    fn unattached_pair() -> (SocketEndpoint, SocketEndpoint) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let site = SocketEndpoint::site(1, 1, vec![addr], listener);
        let client = SocketEndpoint::client(0, 1, vec![addr]);
        (client, site)
    }

    /// [`loopback_pair`] with both endpoints asking `faults`.
    fn faulty_pair(faults: &Arc<FaultState>) -> (SocketEndpoint, SocketEndpoint, Heard) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let f = || Some(Arc::clone(faults));
        let site = SocketEndpoint::build(1, 1, vec![addr], Some(listener), f());
        let client = SocketEndpoint::build(0, 1, vec![addr], None, f());
        let heard = listen(&site);
        (client, site, heard)
    }

    const QUIET: Duration = Duration::from_millis(200);

    #[test]
    fn a_quiet_switchboard_is_transparent_both_ways() {
        let faults = FaultState::new(2);
        let (client, site, heard) = faulty_pair(&faults);
        client.send(1, &Msg::Read { index: 3, tag: 7 });
        assert_eq!(hear(&heard), (0, Msg::Read { index: 3, tag: 7 }));
        site.send(0, &Msg::WriteOk { tag: 7 });
        let back = client.recv_from(1, LONG).expect("the reply arrives");
        assert_eq!((back.src, back.msg), (1, Msg::WriteOk { tag: 7 }));
        assert_eq!((faults.dropped(), faults.duplicated()), (0, 0));
    }

    #[test]
    fn near_total_loss_silences_protocol_frames_and_counts_them() {
        let faults = FaultState::new(2);
        let (client, _site, heard) = faulty_pair(&faults);
        faults.set_loss(999, 0xBEEF);
        for tag in 0..20 {
            assert_eq!(client.send(1, &Msg::Ack { tag }), SendOutcome::Sent);
        }
        // A survivor of 999-permille loss is possible, if unlikely.
        let mut got = 0;
        while heard.recv_timeout(QUIET).is_ok() {
            got += 1;
        }
        assert!(got <= 2, "{got} frames survived 999-permille loss");
        assert_eq!(faults.dropped(), 20 - got);
    }

    /// A destination outside the site map is closed before the switchboard
    /// is asked: neither loss nor a partition turns it into a silent `Sent`.
    #[test]
    fn a_destination_outside_the_map_is_closed_under_any_fault() {
        let faults = FaultState::new(2);
        let (client, _site, _heard) = faulty_pair(&faults);
        faults.set_loss(999, 0xBEEF);
        for tag in 0..20 {
            assert_eq!(client.send(7, &Msg::Ack { tag }), SendOutcome::Closed);
        }
        faults.set_partitioned(0, true);
        assert_eq!(client.send(7, &Msg::Ack { tag: 20 }), SendOutcome::Closed);
        assert_eq!(faults.dropped(), 0, "a closed send is not loss");
    }

    /// Each send is judged by its sender's id and its destination, so a
    /// partition cuts the very first message: nothing needs to have
    /// crossed before.
    #[test]
    fn a_partition_cuts_an_endpoint_both_ways_and_heals() {
        let faults = FaultState::new(2);
        let (client, site, heard) = faulty_pair(&faults);
        faults.set_partitioned(0, true);
        client.send(1, &Msg::Ack { tag: 1 });
        assert!(
            heard.recv_timeout(QUIET).is_err(),
            "a frame crossed a partition"
        );
        faults.set_partitioned(0, false);
        client.send(1, &Msg::Ack { tag: 2 });
        assert_eq!(hear(&heard), (0, Msg::Ack { tag: 2 }));
        faults.set_partitioned(0, true);
        site.send(0, &Msg::Ack { tag: 3 });
        assert!(
            client.recv_from(1, QUIET).is_none(),
            "a reply crossed a partition"
        );
        faults.set_partitioned(0, false);
        site.send(0, &Msg::Ack { tag: 4 });
        let back = client.recv_from(1, LONG).expect("the healed link delivers");
        assert_eq!(back.msg, Msg::Ack { tag: 4 });
        assert_eq!(faults.dropped(), 0, "a partition is not loss");
    }

    #[test]
    fn a_duplicate_arrives_right_behind_its_original() {
        let faults = FaultState::new(2);
        let (client, _site, heard) = faulty_pair(&faults);
        faults.set_duplication(999, 0xD00D);
        client.send(1, &Msg::Ack { tag: 9 });
        faults.set_duplication(0, 0);
        client.send(1, &Msg::Ack { tag: 10 });
        let got: Vec<Msg> = (0..3).map(|_| hear(&heard).1).collect();
        assert_eq!(
            got,
            [
                Msg::Ack { tag: 9 },
                Msg::Ack { tag: 9 },
                Msg::Ack { tag: 10 }
            ]
        );
        assert_eq!(faults.duplicated(), 1);
    }

    #[test]
    fn request_and_reply_cross_the_wire() {
        let (client, site, heard) = loopback_pair();
        assert_eq!(
            client.send(1, &Msg::Read { index: 4, tag: 9 }),
            SendOutcome::Sent
        );
        assert_eq!(hear(&heard), (0, Msg::Read { index: 4, tag: 9 }));
        // Reply over the inbound connection (site never dials a client).
        assert_eq!(site.send(0, &Msg::WriteOk { tag: 9 }), SendOutcome::Sent);
        let back = client.recv_from(1, LONG).expect("the reply arrives");
        assert_eq!((back.src, back.msg), (1, Msg::WriteOk { tag: 9 }));
    }

    #[test]
    fn unknown_site_is_closed_and_missing_client_is_loss() {
        let (client, site, _heard) = loopback_pair();
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

    /// A site starts accepting in `attach`: what a peer sent before it
    /// waits in the listen backlog and the socket buffers, and the handler
    /// gets it and what follows as one stream, in the connection's order.
    /// The peer keeps sending while the handler is attached.
    #[test]
    fn attach_hands_over_in_connection_order_and_loses_nothing() {
        const N: u64 = 2000;
        let (client, site) = unattached_pair();
        let (half_tx, half_rx) = mpsc::channel();
        let streamer = std::thread::spawn(move || {
            for tag in 0..N {
                if tag == N / 2 {
                    half_tx.send(()).unwrap();
                }
                assert_eq!(client.send(1, &Msg::Ack { tag }), SendOutcome::Sent);
            }
            client // keep the connection open until the tags are counted
        });
        // The first half of the stream is written before the handler exists.
        half_rx.recv_timeout(LONG).expect("the stream started");
        let heard = listen(&site);
        for want in 0..N {
            assert_eq!(heard.recv_timeout(LONG).map(|(_, m)| m.tag()), Ok(want));
        }
        drop(streamer.join().unwrap());
    }

    /// A stream whose first read a signal interrupts; then it reads like
    /// `inner`.
    struct InterruptedOnce<R> {
        inner: R,
        interrupted: bool,
    }

    impl<R: Read> Read for InterruptedOnce<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(ErrorKind::Interrupted.into());
            }
            self.inner.read(buf)
        }
    }

    /// A read a signal interrupted leaves the connection healthy: the site
    /// reads on, and what the peer sends next is delivered.
    #[test]
    fn a_reader_reads_on_after_an_interrupted_read() {
        let (_unused, site, heard) = loopback_pair();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        accepted.set_read_timeout(Some(READ_POLL)).unwrap();
        let write = WriteHalf::new(accepted.try_clone().unwrap());
        let reader = InterruptedOnce {
            inner: accepted,
            interrupted: false,
        };
        let out = site.sender().clone();
        let reading = std::thread::spawn(move || reader_loop(reader, &write, None, &out));
        write_frame(&mut peer, &Frame::Hello { id: 0 }).unwrap();
        write_msg(&mut peer, &Msg::Ack { tag: 5 }, None).unwrap();
        assert_eq!(hear(&heard), (0, Msg::Ack { tag: 5 }));
        drop(peer);
        reading.join().unwrap();
    }

    /// An accept error that is not the listener's end (an aborted
    /// handshake, a full descriptor table) costs a backoff, not the
    /// listener: the site accepts the next dial.
    #[test]
    fn the_accept_loop_outlives_a_failed_accept() {
        let (_unused, mut site, heard) = loopback_pair();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut failures = vec![
            std::io::Error::other("too many open files"),
            ErrorKind::ConnectionAborted.into(),
        ];
        let accept = move || match failures.pop() {
            Some(e) => Err(e),
            None => listener.accept().map(|(stream, _)| stream),
        };
        let out = site.sender().clone();
        let accepting = std::thread::spawn(move || accept_loop(accept, &out));
        let client = SocketEndpoint::client(0, 1, vec![addr]);
        client.send(1, &Msg::Ack { tag: 3 });
        assert_eq!(hear(&heard), (0, Msg::Ack { tag: 3 }));
        site.shutdown();
        accepting.join().unwrap();
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
        let [heard_a, heard_b] = [&site_a, &site_b].map(listen);
        let client = SocketEndpoint::client(0, 1, addrs);
        client.send(1, &Msg::Read { index: 0, tag: 1 });
        client.send(2, &Msg::Read { index: 0, tag: 2 });
        // Both sites have the client's Hello once its request is in.
        assert_eq!(hear(&heard_a).0, 0);
        assert_eq!(hear(&heard_b).0, 0);

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
        let (client, site, heard) = loopback_pair();
        let set = |client: &SocketEndpoint| {
            let Role::Client { conns } = &client.out.0.role else {
                unreachable!("a client endpoint");
            };
            locked(conns).get(&1).and_then(|conn| conn.timeout)
        };
        let mut first = None;
        for tag in 0..20 {
            client.send(1, &Msg::Read { index: 0, tag });
            hear(&heard);
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
