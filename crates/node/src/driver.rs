//! [`FaultDriver`] implementation for the async runtimes, so one
//! [`FaultPlan`](radd_workload::faults::FaultPlan) exercises the DES and
//! every real-concurrency runtime. One source file, compiled into both
//! async runtimes (DESIGN.md §12).
//!
//! These runtimes model temporary site failures, partitions and message
//! loss faithfully; two DES-only events degrade gracefully here:
//!
//! * **Disk events.** `FailDisk`/`ReplaceDisk` need failure injection
//!   *inside* a site thread, which these runtimes do not model; both are
//!   no-ops (the paired `Recover` then drains nothing).
//! * **Disaster** is applied as a temporary site failure: the protocol
//!   exercise (kill, degraded operation, drain on recovery) is identical,
//!   only the disks keep their contents.
//!
//! One genuine protocol gap is *skipped* rather than faked: a write whose
//! row's **parity site** is the currently failed/isolated site. The DES
//! absorbs those with a parity stand-in spare (§3.2 step W3'); a real site
//! would retransmit the parity update until the site returned, stalling
//! the plan. Such writes are counted in [`Driver::skipped_writes`] and left
//! out of the oracle.
//!
//! A revived or healed site is kept on the client's down-list until the
//! plan's `Recover` event drains the spares back to it — between those
//! events its local blocks may be stale (the spare absorbed writes while
//! it was away), exactly the window §3.2's recovering state covers on the
//! DES.

use super::client::ClientError;
use super::harness::{Cluster, ClusterNet, QUIESCE_TIMEOUT};
use radd_protocol::{CoalescePolicy, GroupCluster};
use radd_storage::StorageSpec;
use radd_workload::faults::{payload, FailureKind, FaultDriver, FaultEvent};
use std::collections::HashMap;

/// Drives a [`Cluster`] from a fault plan, tracking an oracle of every
/// acknowledged write for content checks.
pub struct Driver<N: ClusterNet> {
    cluster: Cluster<N>,
    block_size: usize,
    /// Logical content per `(site, index)` — every write the cluster
    /// acknowledged must read back exactly.
    oracle: HashMap<(usize, u64), Vec<u8>>,
    /// The one site currently failed or isolated (plans carry at most one
    /// failure at a time).
    impaired: Option<usize>,
    /// Whether a loss burst is active (suppresses invariant sweeps — they
    /// would pass anyway, but each dropped probe costs a retry timeout).
    lossy: bool,
    skipped_writes: u64,
}

impl<N: ClusterNet> Driver<N> {
    /// Spawn a fresh memory-backed cluster sized for a plan shape.
    pub fn start(g: usize, rows: u64, block_size: usize) -> Driver<N> {
        Self::over(Cluster::start(g, rows, block_size), block_size)
    }

    /// [`start`](Driver::start) on durable storage: every site runs a
    /// WAL-backed `radd_storage::DiskBlocks` under `<dir>/site-<j>`, so
    /// plans containing [`FaultEvent::KillRestart`] actually crash the
    /// sites and recover them from disk (memory-backed clusters treat
    /// those events as no-ops).
    pub fn start_durable(
        g: usize,
        rows: u64,
        block_size: usize,
        dir: std::path::PathBuf,
    ) -> Driver<N> {
        let storage = StorageSpec::Disk { dir };
        let (cluster, _extra) =
            Cluster::start_durable(g, rows, block_size, 1, CoalescePolicy::Merge, &storage);
        Self::over(cluster, block_size)
    }

    fn over(cluster: Cluster<N>, block_size: usize) -> Driver<N> {
        Driver {
            cluster,
            block_size,
            oracle: HashMap::new(),
            impaired: None,
            lossy: false,
            skipped_writes: 0,
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster<N> {
        &self.cluster
    }

    /// Mutable access to the underlying cluster.
    pub fn cluster_mut(&mut self) -> &mut Cluster<N> {
        &mut self.cluster
    }

    /// Writes skipped because the row's parity site was the failed site
    /// (see the module docs).
    pub fn skipped_writes(&self) -> u64 {
        self.skipped_writes
    }

    /// Acknowledged writes tracked by the oracle.
    pub fn oracle_len(&self) -> usize {
        self.oracle.len()
    }

    /// Stop the cluster threads.
    pub fn shutdown(self) {
        self.cluster.shutdown();
    }

    fn parity_site_of(&mut self, site: usize, index: u64) -> usize {
        let geo = self.cluster.client().geometry();
        let row = geo.data_to_physical(site, index);
        geo.parity_site(row)
    }
}

/// Protocol refusals a scenario makes legal (vs. broken guarantees).
fn is_refusal(e: &ClientError) -> bool {
    matches!(e, ClientError::MultipleFailure)
}

impl<N: ClusterNet> FaultDriver for Driver<N> {
    fn apply(&mut self, event: &FaultEvent) -> Result<(), String> {
        match *event {
            FaultEvent::Write { site, index, fill } => {
                let parity_site = self.parity_site_of(site, index);
                if self.impaired == Some(parity_site) {
                    self.skipped_writes += 1;
                    return Ok(());
                }
                let data = payload(fill, self.block_size);
                match self.cluster.client().write(site, index, &data) {
                    Ok(()) => {
                        self.oracle.insert((site, index), data);
                        Ok(())
                    }
                    Err(e) if is_refusal(&e) => Ok(()),
                    Err(e) => Err(format!("write(site {site}, index {index}): {e}")),
                }
            }
            FaultEvent::Read { site, index } => match self.cluster.client().read(site, index) {
                Ok(data) => match self.oracle.get(&(site, index)) {
                    Some(want) if *want != data => Err(format!(
                        "read(site {site}, index {index}) returned stale or \
                             corrupt data"
                    )),
                    _ => Ok(()),
                },
                Err(e) if is_refusal(&e) => Ok(()),
                Err(e) => Err(format!("read(site {site}, index {index}): {e}")),
            },
            // Disk failures are DES-only (see the module docs); the other
            // §3.1 kinds quiesce before killing — a site dying with an
            // unacked parity update is the §6 in-doubt problem (see the
            // site module docs).
            FaultEvent::Fail {
                kind: FailureKind::DiskFailure { .. },
                ..
            }
            | FaultEvent::ReplaceDisk { .. } => Ok(()),
            FaultEvent::Fail { site, .. } => {
                FaultDriver::quiesce(self)?;
                self.cluster.kill_site(site);
                self.impaired = Some(site);
                Ok(())
            }
            // Revived but stale until its spares are drained: the client
            // keeps the degraded paths until `Recover` succeeds.
            FaultEvent::RestoreSite { site } => {
                self.cluster.restore(site);
                Ok(())
            }
            FaultEvent::Recover { site } => {
                self.cluster
                    .recover(site)
                    .map_err(|e| format!("recovery of site {site}: {e}"))?;
                self.impaired = None;
                Ok(())
            }
            FaultEvent::Isolate { site } => {
                FaultDriver::quiesce(self)?;
                self.cluster.isolate_site(site);
                self.impaired = Some(site);
                Ok(())
            }
            FaultEvent::Heal { site } => {
                self.cluster.heal_site(site);
                self.cluster.client().mark_down(site, true);
                Ok(())
            }
            FaultEvent::LossBurst { permille, seed } => {
                self.cluster.set_loss(permille, seed);
                self.lossy = true;
                Ok(())
            }
            FaultEvent::LossEnd => {
                self.cluster.set_loss(0, 0);
                self.lossy = false;
                Ok(())
            }
            FaultEvent::FlushParity => FaultDriver::quiesce(self),
            // §3.4 crash/restart: quiesce (same in-doubt rule as `Fail`),
            // then crash the site and let it recover from its WAL + block
            // file. Memory-backed clusters report `false` and change
            // nothing — a legitimate no-op, so crash plans run against
            // any cluster.
            FaultEvent::KillRestart { site } => {
                FaultDriver::quiesce(self)?;
                self.cluster.kill_restart_site(site);
                Ok(())
            }
            // Checker-granularity events address the model checker's
            // explicit in-flight message vector; real channels and TCP
            // connections are not event-addressable.
            FaultEvent::StepClient { .. }
            | FaultEvent::Deliver { .. }
            | FaultEvent::DropMsg { .. }
            | FaultEvent::DupMsg { .. }
            | FaultEvent::FireTimer { .. }
            | FaultEvent::EvictReplies { .. } => Ok(()),
        }
    }

    fn verify(&mut self) -> Result<bool, String> {
        // Mid-failure the stripe invariant cannot be swept (a site won't
        // answer); under loss it could be, but every dropped probe costs a
        // retry timeout, so sweeps wait for the burst to end.
        if self.impaired.is_some() || self.lossy {
            return Ok(false);
        }
        FaultDriver::quiesce(self)?;
        if !self.cluster.all_acked() {
            return Err("quiesced but a retransmission channel still holds unacked \
                 parity updates"
                .to_string());
        }
        self.cluster.client().verify_parity()?;
        let entries: Vec<((usize, u64), Vec<u8>)> =
            self.oracle.iter().map(|(&k, v)| (k, v.clone())).collect();
        for ((site, index), want) in entries {
            match self.cluster.client().read(site, index) {
                Ok(got) if got == want => {}
                Ok(_) => return Err(format!("oracle mismatch at site {site} index {index}")),
                Err(e) => {
                    return Err(format!(
                        "oracle read-back at site {site} index {index}: {e}"
                    ))
                }
            }
        }
        Ok(true)
    }

    fn quiesce(&mut self) -> Result<(), String> {
        self.cluster.quiesce(QUIESCE_TIMEOUT)
    }

    fn obs_snapshot(&mut self) -> Option<radd_obs::ObsSnapshot> {
        Some(self.cluster.obs_snapshot())
    }
}
