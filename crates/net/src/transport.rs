//! What the async interpreter asks of a network: the [`Transport`] trait.
//!
//! The site event loop, the client attempt ladder, the cluster harness and
//! the fault driver are written once against this trait; the threaded
//! runtime (crossbeam channels) and the socket runtime (framed TCP) each
//! supply an endpoint type that implements it. Addresses are endpoint ids:
//! clients occupy `0..ep_base`, site `j` is endpoint `ep_base + j`.
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

/// One item from an endpoint's inbox.
#[derive(Debug)]
pub enum Received<O> {
    /// A protocol message from endpoint `src`.
    Msg {
        /// Sender's endpoint id.
        src: usize,
        /// The message.
        msg: Msg,
    },
    /// Something the transport delivers besides protocol traffic
    /// ([`Transport::Oob`]).
    Oob(O),
}

/// One endpoint of a network that carries [`Msg`]s. See the module docs
/// for the delivery contract.
pub trait Transport {
    /// Out-of-band items this transport's inbox can also yield: the socket
    /// runtime's wire control requests, handed by the site loop to a
    /// per-runtime hook. A transport with none uses
    /// [`std::convert::Infallible`].
    type Oob;

    /// This endpoint's id.
    fn id(&self) -> usize;

    /// Endpoint id of site 0 (clients occupy the ids below it).
    fn ep_base(&self) -> usize;

    /// Send `msg` to endpoint `dst`. Never blocks on the receiver.
    fn send(&self, dst: usize, msg: &Msg) -> SendOutcome;

    /// The next inbound item, waiting up to `timeout`; `None` when nothing
    /// arrived (or nothing can: the endpoint is cut off or shut down).
    fn recv_timeout(&self, timeout: Duration) -> Option<Received<Self::Oob>>;
}
