//! What the async interpreter asks of a network: [`Outbound`] to send,
//! [`Transport`] to send and wait for an answer.
//!
//! The site driver, the client attempt ladder, the cluster harness and
//! the fault driver are written once against these traits; the threaded
//! runtime (crossbeam channels) and the socket runtime (framed TCP) each
//! supply an endpoint type that implements them. Addresses are endpoint
//! ids: clients occupy `0..ep_base`, site `j` is endpoint `ep_base + j`.
//!
//! A site only ever *sends* through its endpoint ([`Outbound`]): how a
//! message reaches `SiteDriver::deliver` is each runtime's business (the
//! threaded runtime pulls its channel, the socket runtime's connection
//! reader threads call it themselves). A client sends and then waits for
//! one peer's reply ([`Transport::recv_from`]).
//!
//! What an implementation promises:
//!
//! * **Per-peer FIFO.** Messages from one endpoint to another arrive in
//!   the order sent (or not at all); nothing is promised across peers.
//! * **Silent loss is [`SendOutcome::Sent`].** A message dropped by loss
//!   injection, refused by a partition, or written into a connection that
//!   is being redialled may never arrive, and the sender is not told:
//!   stop-and-wait retransmission and the client ladder exist to absorb
//!   exactly that.
//! * **[`SendOutcome::Closed`] is final.** It is returned only when no
//!   retry can ever succeed (the destination does not exist, the network
//!   is shut down), so callers fail fast instead of burning a timeout
//!   ladder.

use radd_protocol::Msg;
use std::time::Duration;

/// What became of one send attempt. `Closed` is the one outcome both
/// transports can observe, and therefore the only one a client counts as
/// a send failure: injected drops are counted by the network that made
/// them, and a partition is state the harness set itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// On the wire, or silently lost — a retry may succeed.
    Sent,
    /// No retry can succeed.
    Closed,
}

/// One protocol message as it arrives at an endpoint.
#[derive(Debug)]
pub struct Received {
    /// Sender's endpoint id.
    pub src: usize,
    /// The message.
    pub msg: Msg,
}

/// The sending half of an endpoint: all a site needs to release a
/// message's effects. Split from [`Transport`] because whoever *delivers*
/// to a site already holds the message (the socket runtime's reader
/// thread, the threaded runtime's pull loop), so
/// `SiteDriver::deliver` and the timer wheel never receive.
pub trait Outbound {
    /// This endpoint's id.
    fn id(&self) -> usize;

    /// Endpoint id of site 0 (clients occupy the ids below it).
    fn ep_base(&self) -> usize;

    /// Send `msg` to endpoint `dst`. Never blocks on the receiver's
    /// *application* (it may block briefly on its socket buffer; the socket
    /// runtime bounds that with a write timeout and calls the rest loss).
    fn send(&self, dst: usize, msg: &Msg) -> SendOutcome;

    /// [`send`](Outbound::send) a message whose block this endpoint's
    /// network delivered to the sender with `block_check`, the block's
    /// check as its frames compute it, and that is still the very buffer
    /// that arrived. A transport that checks its frames sends the block
    /// under that check instead of making another pass over it; one that
    /// does not (the default) ignores it.
    fn send_checked(&self, dst: usize, msg: &Msg, block_check: u64) -> SendOutcome {
        let _ = block_check;
        self.send(dst, msg)
    }
}

/// One endpoint of a network that carries [`Msg`]s, as the client ladder
/// uses it: send a request, then wait for what `peer` sends back. See the
/// module docs for the delivery contract.
pub trait Transport: Outbound {
    /// The next message, waiting up to `timeout`; `None` when nothing
    /// arrived (or nothing can: the endpoint is cut off or shut down).
    /// `peer` is the endpoint the caller is waiting on. A transport with
    /// one inbox for all peers (the channel network) ignores it and hands
    /// over the next message from anyone; one that reads each connection
    /// where it is awaited (a socket client) reads only `peer`'s, and
    /// leaves what others sent where it is until they are named. Either
    /// way the caller must be ready for a message it did not ask for.
    fn recv_from(&self, peer: usize, timeout: Duration) -> Option<Received>;
}
