//! The system under test, as the load generator sees it: cluster assembly,
//! caller operations and fault controls.
//!
//! Every repository symbol the *live* benchmark uses is named in this file
//! (the per-layer timings are in `layers.rs`, the traced replay in
//! `inline.rs`); `README.md` lists them. Later performance changes cannot
//! edit `benchmark/`, so they have to keep that list source-compatible.
//!
//! The cluster is assembled the way `src/bin/radd-server.rs` does it, once
//! per site and in one process: bind a loopback listener, build a
//! `SocketEndpoint::site` over the site map, run `server::run_site` on a
//! thread. The site map holds the listeners' own addresses: there is no
//! `FaultProxy` between any two endpoints.

use radd_layout::Geometry;
use radd_node::{NodeClient, NodeCluster};
use radd_protocol::CoalescePolicy;
use radd_rt::server::{self, Control, SiteConfig};
use radd_rt::{SocketClient, SocketEndpoint};
use radd_sim::SimRng;
use radd_storage::StorageSpec;
use radd_workload::access::{AccessPattern, AccessSampler};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Group size of every benchmark cluster (six sites).
pub const G: usize = 4;
/// Sites in the cluster.
pub const SITES: usize = G + 2;
/// Rows rebuilt per pipelined wave by [`BlockClient::rebuild`]. Not 16:
/// `SockIo::exchange_batch` spends one of a site's 12 attempts on every
/// request it has to wait for, answered or not, so a wave that puts more
/// than 12 requests on one site fails with `Timeout` whenever the replies
/// are slower than the collector, which two busy cores make routine. Eight
/// rows put at most eight requests on a site.
pub const REBUILD_WAVE_ROWS: usize = 8;
const CONTROL_TIMEOUT: Duration = Duration::from_secs(20);

/// Size and storage of one cluster.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub rows: u64,
    pub block_size: usize,
    pub disk: bool,
}

impl Shape {
    fn geometry(&self) -> Geometry {
        Geometry::new(G, self.rows).expect("benchmark shapes are valid geometries")
    }

    /// Every data block of the cluster as `(site, index)`, index-major, so
    /// that neighbouring keys (and the popular end of a Zipf ranking) fall
    /// on different sites.
    pub fn key_space(&self) -> Vec<(usize, u64)> {
        let geo = self.geometry();
        let most = (0..SITES).map(|s| geo.data_capacity(s)).max().unwrap_or(0);
        let mut keys = Vec::new();
        for index in 0..most {
            for site in 0..SITES {
                if index < geo.data_capacity(site) {
                    keys.push((site, index));
                }
            }
        }
        keys
    }

    /// The site holding the parity block of data block `(site, index)`. A
    /// healthy write to a block whose parity site is down never completes
    /// (the data site retransmits the update until the site returns), so the
    /// foreground beside a failure leaves those blocks alone, as the
    /// repository's own fault drivers do.
    pub fn parity_site_of(&self, site: usize, index: u64) -> usize {
        let geo = self.geometry();
        geo.parity_site(geo.data_to_physical(site, index))
    }
}

/// Ranks in `[0, n)`, uniform or Zipf, from the repository's own sampler.
pub struct KeySampler {
    sampler: AccessSampler,
    rng: SimRng,
}

impl KeySampler {
    pub fn new(zipf_theta: Option<f64>, n: u64, seed: u64) -> KeySampler {
        let pattern = match zipf_theta {
            Some(theta) => AccessPattern::Zipf { theta },
            None => AccessPattern::Uniform,
        };
        KeySampler {
            sampler: AccessSampler::new(pattern, n),
            rng: SimRng::seed_from_u64(seed),
        }
    }

    pub fn next_rank(&mut self) -> u64 {
        self.sampler.next_index(&mut self.rng)
    }

    /// A uniform draw in `[0, n)` from the same seeded stream.
    pub fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }
}

/// What a caller can ask of a cluster; errors are rendered to text because
/// the load generator only counts them.
pub trait BlockClient: Send {
    fn read(&mut self, site: usize, index: u64) -> Result<Vec<u8>, String>;
    fn write(&mut self, site: usize, index: u64, data: &[u8]) -> Result<(), String>;
    /// Believe `site` down (degraded paths) or up.
    fn mark_down(&mut self, site: usize, down: bool);
    /// Rebuild a down site's blocks into the spares; returns blocks rebuilt.
    fn rebuild(&mut self, site: usize) -> Result<u64, String>;
    /// Drain the spares back to a revived site; returns blocks drained.
    fn recover(&mut self, site: usize) -> Result<u64, String>;
    /// Sweep the stripe invariant over every row.
    fn verify_parity(&mut self) -> Result<(), String>;
    /// Requests this client sent again because no reply came in time.
    fn retransmits(&self) -> u64;
}

macro_rules! impl_block_client {
    ($name:ident, $inner:ty) => {
        pub struct $name($inner);

        impl BlockClient for $name {
            fn read(&mut self, site: usize, index: u64) -> Result<Vec<u8>, String> {
                self.0.read(site, index).map_err(|e| e.to_string())
            }
            fn write(&mut self, site: usize, index: u64, data: &[u8]) -> Result<(), String> {
                self.0.write(site, index, data).map_err(|e| e.to_string())
            }
            fn mark_down(&mut self, site: usize, down: bool) {
                self.0.mark_down(site, down);
            }
            fn rebuild(&mut self, site: usize) -> Result<u64, String> {
                self.0
                    .rebuild(site, REBUILD_WAVE_ROWS)
                    .map(|r| r.blocks_rebuilt)
                    .map_err(|e| e.to_string())
            }
            fn recover(&mut self, site: usize) -> Result<u64, String> {
                self.0.recover(site).map_err(|e| e.to_string())
            }
            fn verify_parity(&mut self) -> Result<(), String> {
                self.0.verify_parity()
            }
            fn retransmits(&self) -> u64 {
                self.0.obs_snapshot().metrics.retransmits
            }
        }
    };
}

impl_block_client!(SocketCaller, SocketClient);
impl_block_client!(NodeCaller, NodeClient);

/// Six `run_site` threads behind loopback listeners.
pub struct Cluster {
    control: Vec<Sender<Control>>,
    handles: Vec<JoinHandle<()>>,
}

impl Cluster {
    /// Start the sites and `callers` clients. With `shape.disk` every site
    /// opens a `DiskBlocks` store under `data_dir/site-<j>`.
    pub fn start(shape: Shape, callers: usize, data_dir: &Path) -> (Cluster, Vec<SocketCaller>) {
        let ep_base = callers;
        let listeners: Vec<TcpListener> = (0..SITES)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener"))
            .collect();
        let site_map: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("listener address"))
            .collect();
        let storage = if shape.disk {
            StorageSpec::Disk {
                dir: data_dir.to_path_buf(),
            }
        } else {
            StorageSpec::Mem
        };
        let mut control = Vec::new();
        let mut handles = Vec::new();
        for (site, listener) in listeners.into_iter().enumerate() {
            let (tx, rx) = channel();
            control.push(tx);
            let cfg = SiteConfig {
                site,
                group_size: G,
                rows: shape.rows,
                block_size: shape.block_size,
                ep_base,
                coalesce: CoalescePolicy::Merge,
                storage: storage.clone(),
            };
            let ep = SocketEndpoint::site(ep_base + site, ep_base, site_map.clone(), listener);
            handles.push(std::thread::spawn(move || server::run_site(cfg, &ep, &rx)));
        }
        let clients = (0..callers)
            .map(|id| {
                let ep = SocketEndpoint::client(id, ep_base, site_map.clone());
                SocketCaller(SocketClient::new(ep, G, shape.rows, shape.block_size))
            })
            .collect();
        (Cluster { control, handles }, clients)
    }

    /// The site stops (or resumes) answering protocol messages; returns once
    /// it has crossed the boundary. Callers `mark_down` separately.
    pub fn set_down(&self, site: usize, down: bool) {
        let (tx, rx) = channel();
        self.control[site]
            .send(Control::SetDown(down, tx))
            .expect("site thread alive");
        rx.recv_timeout(CONTROL_TIMEOUT).expect("site acks SetDown");
    }

    /// Wait until no site holds an unacked parity update.
    pub fn quiesce(&self) -> Result<(), String> {
        let deadline = Instant::now() + CONTROL_TIMEOUT;
        loop {
            let mut pending = 0;
            for ctl in &self.control {
                let (tx, rx) = channel();
                ctl.send(Control::QueryPending(tx))
                    .map_err(|_| "site thread gone".to_string())?;
                pending += rx
                    .recv_timeout(CONTROL_TIMEOUT)
                    .map_err(|_| "site did not answer QueryPending".to_string())?;
            }
            if pending == 0 {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!("quiesce timed out with {pending} writes pending"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Crash and restart every site from its durable store. Returns how many
    /// restarted from disk (0 on a memory cluster, which keeps its state).
    pub fn kill_restart_all(&self) -> usize {
        let mut restarted = 0;
        for ctl in &self.control {
            let (tx, rx) = channel();
            ctl.send(Control::KillRestart(tx))
                .expect("site thread alive");
            if rx
                .recv_timeout(CONTROL_TIMEOUT)
                .expect("site answers KillRestart")
            {
                restarted += 1;
            }
        }
        restarted
    }

    /// Stop-and-wait retransmissions every site machine has counted.
    pub fn retransmits(&self) -> u64 {
        let mut total = 0;
        for ctl in &self.control {
            let (tx, rx) = channel();
            ctl.send(Control::QueryObs(tx)).expect("site thread alive");
            if let Ok(snap) = rx.recv_timeout(CONTROL_TIMEOUT) {
                total += snap.metrics.retransmits;
            }
        }
        total
    }

    /// Stop every site thread and wait for it.
    pub fn shutdown(self) {
        for ctl in &self.control {
            let _ = ctl.send(Control::Shutdown);
        }
        for h in self.handles {
            h.join().expect("site thread exits cleanly");
        }
    }
}

/// The threaded (in-process channel) twin of [`Cluster`], always on memory
/// storage: socket latency minus this isolates the TCP transport.
pub struct NodeTwin(NodeCluster);

impl NodeTwin {
    pub fn start(shape: Shape, callers: usize) -> (NodeTwin, Vec<NodeCaller>) {
        // `start_multi` keeps client 0 attached to the cluster handle and
        // returns the others, so ask for one more than the callers need.
        let (cluster, extra) =
            NodeCluster::start_multi(G, shape.rows, shape.block_size, callers + 1);
        (
            NodeTwin(cluster),
            extra.into_iter().map(NodeCaller).collect(),
        )
    }

    pub fn shutdown(self) {
        self.0.shutdown();
    }
}
