//! The socket side of the site loop: the wire control plane.
//!
//! The loop itself — drain control, fire due timers, feed one inbound
//! message, commit before interpreting — is [`crate::site`], the one async
//! interpreter shared with the threaded runtime. What a socket site adds
//! is a second control plane next to the in-process [`Control`] channel:
//! [`CtlReq`] frames from `radd-cli` arrive on the endpoint's inbox as
//! out-of-band items and are answered here, so a standalone `radd-server`
//! process can be inspected and administered remotely. Both planes answer
//! even while the site is marked down — a down site is deaf to the
//! protocol, not to its operator.

use crate::frame::{CtlRep, CtlReq, Frame};
use crate::net::{CtlItem, SocketEndpoint};
use crate::site::SiteDriver;
use radd_obs::ObsSnapshot;
use std::sync::mpsc::Receiver;

pub use crate::site::{Control, SiteConfig};

/// Answer one wire control request. Returns `true` when the request asked
/// the server to shut down.
fn serve_ctl(st: &mut SiteDriver, CtlItem { rid, req, reply }: CtlItem) -> bool {
    let (rep, stop) = match req {
        CtlReq::Ping => (CtlRep::Pong { down: st.is_down() }, false),
        CtlReq::QueryPending => (CtlRep::Pending(st.machine().pending_writes() as u64), false),
        CtlReq::QueryAllAcked => (CtlRep::AllAcked(st.machine().all_acked()), false),
        CtlReq::SetDown(d) => {
            st.set_down(d);
            (CtlRep::Done, false)
        }
        CtlReq::QueryObsJson => {
            let snap = ObsSnapshot {
                machines: vec![st.obs_snapshot()],
            };
            (CtlRep::ObsJson(snap.to_json()), false)
        }
        CtlReq::Shutdown => (CtlRep::Done, true),
    };
    let _ = reply.write(&Frame::CtlRep { rid, rep });
    stop
}

/// Run the site event loop until shutdown (by [`Control::Shutdown`], a
/// wire [`CtlReq::Shutdown`], or the control channel disconnecting).
pub fn run_site(cfg: SiteConfig, ep: &SocketEndpoint, control: &Receiver<Control>) {
    crate::site::run_site_with(cfg, ep, control, serve_ctl);
}
