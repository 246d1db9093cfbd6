//! # radd-rt — the socket transport for the sans-IO RADD core
//!
//! `radd-core` drives [`radd_protocol::ClientMachine`] /
//! [`radd_protocol::SiteMachine`] under a deterministic discrete-event
//! simulator. The *async* interpreter — the site driver, the client
//! attempt ladder and the in-process cluster harness — exists once,
//! written against [`radd_net::Transport`], and runs
//! over two transports: `radd-node`'s in-process channels, and this
//! crate's **real TCP sockets** — one listener per site, a
//! length-prefixed, checksummed wire codec for the protocol vocabulary,
//! reconnect with backoff. Because every runtime interprets the same
//! effect stream, the differential test can demand their normalised
//! traces match **byte for byte**.
//!
//! The interpreter's three source files live in `crates/node/src` and are
//! compiled into this crate as [`site`], [`client`] and [`harness`]
//! (DESIGN.md §12; §5 records why by `#[path]` rather than a `radd-node`
//! dependency, and the one-line swap that retires it). The fault-plan
//! replayer needs no mount: `radd_workload::faults::PlanDriver` is generic
//! over `radd_protocol::GroupCluster`, which the harness implements.
//!
//! What is really socket, and lives here:
//!
//! * [`frame`] — the wire: `[len][checksum][payload]` frames over TCP,
//!   hardened against truncation, oversized prefixes and corruption; the
//!   payload vocabulary is `radd_protocol::codec`'s binary encoding plus a
//!   `Hello` handshake and a small admin control protocol.
//! * [`net`] — [`net::SocketEndpoint`], the [`radd_net::Transport`] impl:
//!   connection management (dial on demand, Hello attribution, reconnect
//!   with backoff, write timeouts) and the run-to-completion thread model:
//!   a client endpoint reads its own sockets on its caller's thread, a
//!   site endpoint's per-connection reader threads call the site's
//!   handler themselves.
//! * [`server`] — that handler: `run_site` puts the site driver behind
//!   one lock, answers wire control requests ([`frame::CtlReq`]) and keeps
//!   the timer wheel.
//! * [`cluster`] — listener assembly for the loopback harness:
//!   [`SocketCluster`] and [`SocketDriver`]. Its endpoints carry the
//!   harness's [`radd_net::FaultState`], the switchboard the threaded
//!   runtime's endpoints ask too: each protocol send is dropped,
//!   duplicated or partitioned away by its sender, so fault plans run
//!   against real connections on the same frame path `radd-server` uses.
//! * [`config`] / [`admin`] — the static site-map format the standalone
//!   binaries (`radd-server`, `radd-client`, `radd-cli`) deploy from, and
//!   the control client `radd-cli` speaks through.
//!
//! ```
//! use radd_rt::SocketCluster;
//!
//! let mut cluster = SocketCluster::start(4, 12, 64); // G = 4, 12 rows, 64-B blocks
//! let block = vec![7u8; 64];
//! cluster.client().write(1, 0, &block).unwrap();
//! cluster.kill_site(1);
//! assert_eq!(cluster.client().read(1, 0).unwrap(), block); // reconstructed
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod cluster;
pub mod config;
pub mod frame;
pub mod net;
pub mod server;

// The one async interpreter, shared with `radd-node` source for source.
// Each mount becomes `pub use radd_node::<module>` once `radd-rt` may
// depend on `radd-node` (DESIGN.md §5).
#[path = "../../node/src/client.rs"]
pub mod client;
#[path = "../../node/src/harness.rs"]
pub mod harness;
#[path = "../../node/src/site.rs"]
pub mod site;

pub use admin::CtlClient;
pub use cluster::{ShardedSocketCluster, SocketCluster, SocketDriver};
pub use config::{ClusterConfig, StorageKind};
pub use frame::{CtlRep, CtlReq, Frame, FrameDecoder, FrameError};
pub use net::{Inbound, SendOutcome, SocketEndpoint};
pub use server::{Control, SiteConfig};

/// The cluster client over TCP.
pub type SocketClient = client::Client<SocketEndpoint>;
