//! A socket site: the [`SiteDriver`] behind one lock, called by whichever
//! thread has the work.
//!
//! The driver's three entry points — `deliver`, `fire_due_timers`,
//! `serve` — are [`crate::site`]'s, the one async interpreter shared with
//! the threaded runtime. What differs here is who calls them. There is no
//! site thread that pulls an inbox: [`run_site`] attaches a handler to the
//! endpoint, and the reader thread that decoded a frame takes the site
//! lock and runs the message to completion itself — handle, commit, send
//! the effects — before it reads its connection again. The thread that
//! called `run_site` keeps what no connection drives: the in-process
//! [`Control`] channel and the retransmit timer wheel.
//!
//! **The site lock.** One `Mutex<SiteDriver>` serialises every
//! entry, so the machine sees one event at a time exactly as it did under
//! a loop, and the WAL rule is unchanged: `deliver` commits before any
//! effect leaves, now under the lock, and a failed commit still drops the
//! effects and takes the site down. Effects are *sent* under the lock too
//! (lock order: site, then the endpoint's peer table, then one
//! connection's write half; nothing acquires them the other way round),
//! which is why every socket has a write timeout (`net::WRITE_TIMEOUT`): a
//! peer that stops reading costs the site one timeout, not its liveness.
//!
//! **Poison.** A handler that panics mid-message leaves a machine that may
//! be ahead of its store by an unknown amount. The lock is recovered (the
//! operator can still ask what happened) and the site is marked down until
//! [`Control::KillRestart`] rebuilds it from what is durable; it never
//! serves on from the state the panic left.
//!
//! Next to the in-process [`Control`] channel a socket site has a second
//! control plane: [`CtlReq`] frames from `radd-cli` arrive like any other
//! frame and are answered on their reader thread, so a standalone
//! `radd-server` process can be inspected and administered remotely. Both
//! planes answer even while the site is marked down — a down site is deaf
//! to the protocol, not to its operator.

use crate::frame::{CtlRep, CtlReq, Frame};
use crate::net::{CtlItem, Handler, Inbound, SocketEndpoint};
use crate::site::SiteDriver;
use radd_obs::ObsSnapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

pub use crate::site::{Control, SiteConfig};

/// How long the timer thread sleeps when no retransmit deadline is nearer.
/// A reader thread can arm a timer while it sleeps, so this is also how
/// late a freshly armed timer may fire.
const TIMER_POLL: Duration = Duration::from_millis(20);

/// A site as its threads share it.
struct Site {
    driver: Mutex<SiteDriver>,
    /// Set by a wire [`CtlReq::Shutdown`], read by the timer thread.
    stop: AtomicBool,
}

impl Site {
    /// The site lock, and how long we waited for it if it was taken when
    /// we came (recorded by the caller once it holds the driver). The
    /// clock is read on that path only: a message that finds its site free
    /// pays for no `Instant`. Poison: see the module docs.
    fn lock(&self) -> (MutexGuard<'_, SiteDriver>, Option<Duration>) {
        let (mut guard, waited) = match self.driver.try_lock() {
            Ok(guard) => return (guard, None),
            Err(TryLockError::WouldBlock) => {
                let came = Instant::now();
                match self.driver.lock() {
                    Ok(guard) => return (guard, Some(came.elapsed())),
                    Err(poisoned) => (poisoned.into_inner(), Some(came.elapsed())),
                }
            }
            Err(TryLockError::Poisoned(poisoned)) => (poisoned.into_inner(), None),
        };
        eprintln!("radd-rt: a thread panicked holding the site lock; going down");
        guard.set_down(true);
        // Down is now the record of it; `KillRestart` must be able to
        // bring the site back without tripping over the flag again.
        self.driver.clear_poison();
        (guard, waited)
    }
}

/// Answer one wire control request.
fn serve_ctl(site: &Site, st: &mut SiteDriver, CtlItem { rid, req, reply }: CtlItem) {
    let rep = match req {
        CtlReq::Ping => CtlRep::Pong { down: st.is_down() },
        CtlReq::QueryPending => CtlRep::Pending(st.machine().pending_writes() as u64),
        CtlReq::QueryAllAcked => CtlRep::AllAcked(st.machine().all_acked()),
        CtlReq::SetDown(d) => {
            st.set_down(d);
            CtlRep::Done
        }
        CtlReq::PeerDown { site, down } => {
            st.set_peer_down(site, down);
            CtlRep::Done
        }
        CtlReq::QueryObsJson => {
            let snap = ObsSnapshot {
                machines: vec![st.obs_snapshot()],
            };
            CtlRep::ObsJson(snap.to_json())
        }
        CtlReq::Shutdown => {
            site.stop.store(true, Ordering::Relaxed);
            CtlRep::Done
        }
    };
    let _ = reply.write(&Frame::CtlRep { rid, rep });
}

/// What every reader thread of the endpoint runs for each frame.
fn handler(site: Arc<Site>) -> Handler {
    Box::new(move |out, item| {
        let (mut st, waited) = site.lock();
        match item {
            Inbound::Msg {
                src,
                msg,
                block_check,
            } => {
                if let Some(waited) = waited {
                    st.busy_arrival(waited);
                }
                st.deliver(out, src, msg, block_check);
            }
            Inbound::Ctl(item) => serve_ctl(&site, &mut st, item),
        }
    })
}

/// Run a site on `ep` until shutdown (by [`Control::Shutdown`], a wire
/// [`CtlReq::Shutdown`], or the control channel disconnecting). Messages
/// are handled on the endpoint's reader threads; this thread serves
/// `control` and fires retransmit timers, sleeping until the earliest
/// deadline (at most `TIMER_POLL`). The store is closed when it returns.
pub fn run_site(cfg: SiteConfig, ep: &SocketEndpoint, control: &Receiver<Control>) {
    // Start-up has no earlier state to fall back on: fail loudly.
    let id = cfg.site;
    let driver = SiteDriver::open(cfg).unwrap_or_else(|e| panic!("site {id}: {e}"));
    let site = Arc::new(Site {
        driver: Mutex::new(driver),
        stop: AtomicBool::new(false),
    });
    ep.attach(handler(Arc::clone(&site)));
    while !site.stop.load(Ordering::Relaxed) {
        let wait = {
            let (mut st, _) = site.lock();
            st.fire_due_timers(ep.sender());
            st.next_deadline().map_or(TIMER_POLL, |at| {
                at.saturating_duration_since(Instant::now()).min(TIMER_POLL)
            })
        };
        match control.recv_timeout(wait) {
            Ok(cmd) => {
                if site.lock().0.serve(cmd) {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Once `detach` returns no reader is inside the handler and the
    // handler, with its `Arc<Site>`, is gone: `site` is the last owner, and
    // dropping it closes the store before whoever joins this thread looks.
    // (Frames still arriving queue in the endpoint's inbox and die with it.)
    ep.detach();
    debug_assert_eq!(Arc::strong_count(&site), 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use radd_protocol::CoalescePolicy;
    use radd_storage::StorageSpec;
    use std::sync::mpsc::channel;

    /// A thread that panics holding the site lock leaves a site that is
    /// down but still answers its operator, and `KillRestart` rebuilds it
    /// from the durable store.
    #[test]
    fn a_panic_under_the_site_lock_takes_the_site_down_until_kill_restart() {
        let root = std::env::temp_dir().join(format!("radd-site-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = SiteConfig {
            site: 0,
            group_size: 4,
            rows: 12,
            block_size: 64,
            ep_base: 1,
            coalesce: CoalescePolicy::Merge,
            storage: StorageSpec::Disk { dir: root.clone() },
        };
        let site = Arc::new(Site {
            driver: Mutex::new(SiteDriver::open(cfg).expect("fresh store opens")),
            stop: AtomicBool::new(false),
        });
        let handling = Arc::clone(&site);
        let died = std::thread::spawn(move || {
            let _held = handling.lock();
            panic!("mid-message");
        })
        .join();
        assert!(died.is_err());

        let (mut st, _) = site.lock();
        assert!(
            st.is_down(),
            "nothing is served from the state a panic left"
        );
        let (tx, rx) = channel();
        assert!(!st.serve(Control::QueryObs(tx)));
        assert_eq!(rx.recv().expect("obs reply").name, "site 0");
        drop(st);

        // The poison was cleared when it was turned into `down`, so the
        // restart is not undone by the next lock.
        let (tx, rx) = channel();
        assert!(!site.lock().0.serve(Control::KillRestart(tx)));
        assert!(rx.recv().expect("restart reply"), "restarted from disk");
        assert!(!site.lock().0.is_down());
        let _ = std::fs::remove_dir_all(&root);
    }
}
