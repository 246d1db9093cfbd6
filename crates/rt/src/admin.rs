//! Wire control-plane client: what `radd-cli` speaks to a running
//! `radd-server`.
//!
//! A site answers [`CtlReq`] frames on the reader thread of the connection
//! they arrive on — even while marked down (a down site is deaf to the
//! protocol, not to its operator). This client dials a site's *real* address (control
//! traffic does not traverse fault proxies), issues one request at a
//! time, and matches replies by request id.

use crate::frame::{read_frame, CtlRep, CtlReq, Frame, FrameDecoder};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long one control round-trip may take before it is declared lost.
const CTL_TIMEOUT: Duration = Duration::from_secs(5);

/// A control connection to one site.
pub struct CtlClient {
    stream: TcpStream,
    dec: FrameDecoder,
    next_rid: u64,
}

impl CtlClient {
    /// Dial the site at `addr`.
    pub fn connect(addr: SocketAddr) -> Result<CtlClient, String> {
        let stream = TcpStream::connect_timeout(&addr, CTL_TIMEOUT)
            .map_err(|e| format!("dialing {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(CTL_TIMEOUT))
            .map_err(|e| format!("configuring {addr}: {e}"))?;
        Ok(CtlClient {
            stream,
            dec: FrameDecoder::new(),
            next_rid: 1,
        })
    }

    /// One request/reply round-trip. Stray frames (protocol messages, a
    /// reply to an abandoned request) are skipped; a reply to *this*
    /// request is returned.
    pub fn request(&mut self, req: CtlReq) -> Result<CtlRep, String> {
        let rid = self.next_rid;
        self.next_rid += 1;
        let frame = Frame::CtlReq { rid, req };
        crate::frame::write_frame(&mut self.stream, &frame)
            .map_err(|e| format!("control send failed: {e}"))?;
        loop {
            match read_frame(&mut self.stream, &mut self.dec, &mut []) {
                Ok(Some(Frame::CtlRep { rid: got, rep })) if got == rid => return Ok(rep),
                Ok(Some(_)) => {} // stray frame: skip
                Ok(None) => return Err("site closed the control connection".into()),
                Err(e) => return Err(format!("control receive failed: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::SocketEndpoint;
    use crate::server::{run_site, SiteConfig};
    use radd_protocol::CoalescePolicy;
    use std::net::TcpListener;

    /// Spin up one standalone site (no proxies, no cluster harness) and
    /// administer it purely over the wire.
    #[test]
    fn wire_control_pings_downs_and_shuts_down_a_site() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ep = SocketEndpoint::site(1, 1, vec![addr], listener);
        // Keep the mpsc control sender alive: dropping it stops the loop.
        let (_ctl_tx, ctl_rx) = std::sync::mpsc::channel();
        let cfg = SiteConfig {
            site: 0,
            group_size: 1,
            rows: 4,
            block_size: 64,
            ep_base: 1,
            coalesce: CoalescePolicy::Merge,
            storage: radd_storage::StorageSpec::Mem,
        };
        let handle = std::thread::spawn(move || run_site(cfg, &ep, &ctl_rx));

        let mut ctl = CtlClient::connect(addr).unwrap();
        assert_eq!(
            ctl.request(CtlReq::Ping).unwrap(),
            CtlRep::Pong { down: false }
        );
        assert_eq!(
            ctl.request(CtlReq::QueryPending).unwrap(),
            CtlRep::Pending(0)
        );
        assert_eq!(
            ctl.request(CtlReq::QueryAllAcked).unwrap(),
            CtlRep::AllAcked(true)
        );

        // Mark it down over the wire; control keeps answering.
        assert_eq!(ctl.request(CtlReq::SetDown(true)).unwrap(), CtlRep::Done);
        assert_eq!(
            ctl.request(CtlReq::Ping).unwrap(),
            CtlRep::Pong { down: true }
        );

        // Obs crosses the wire as JSON with the site's machine name.
        let CtlRep::ObsJson(json) = ctl.request(CtlReq::QueryObsJson).unwrap() else {
            panic!("expected an obs snapshot");
        };
        assert!(json.contains("\"site 0\""));

        assert_eq!(ctl.request(CtlReq::Shutdown).unwrap(), CtlRep::Done);
        handle.join().unwrap();
    }
}
