//! The deterministic fault-plan engine.
//!
//! A [`FaultPlan`] is a declarative list of [`FaultEvent`]s — load (reads
//! and writes), failures (disk, site, disaster, partition, message-loss
//! bursts) and their repairs — generated from a single `u64` seed by
//! [`FaultPlan::generate`] or composed explicitly. One plan runs against
//! anything implementing [`FaultDriver`], and there are three such things,
//! which differ in what they can *express*, not in which runtime they were
//! typed for:
//!
//! * [`PlanDriver`] (here): the replayer over the per-runtime contract
//!   [`GroupCluster`], so over the DES in client mode, the threaded and the
//!   socket cluster alike. It owns the replay conventions (see its docs):
//!   written once, so the differential test compares runs of it instead of
//!   re-implementing them.
//! * [`CheckedCluster`] (impl here): the DES's omniscient surface, the only
//!   driver that can fail a disk inside a site, blank a site's disks in a
//!   disaster, or meet §5's blocking verdict.
//! * `radd_check::ModelDriver`: the only driver of message-granularity
//!   steps (one delivery, one drop, one timer firing at a time). Its plans
//!   are made of the checker's own `radd_check::Action`s, not of
//!   [`FaultEvent`]s: a [`FaultDriver`] names its event type, and
//!   [`FaultPlan`], [`run_plan`] and [`minimize_failure`] take any
//!   (a `FaultEvent` by default).
//!
//! [`run_plan`] applies events one at a time and validates the cluster
//! invariants after every event. On a violation it stops with a
//! [`PlanFailure`] carrying the seed, the failing event index and the full
//! event log; [`minimize_failure`] then greedily shrinks the event prefix
//! to the smallest subsequence that still reproduces the violation, which
//! is what gets printed for replay:
//!
//! ```text
//! fault plan seed 0x00000000deadbeef failed at event 17: violation: ...
//! replay: FaultPlan::generate(0xdeadbeef, &shape) — or the minimized 4-event prefix below
//! ```
//!
//! Determinism: plan generation uses only [`SimRng`] streams derived from
//! the seed, and payloads are pure functions of per-event `fill` seeds
//! ([`payload`]), so a `(seed, shape)` pair names the same plan — and on
//! the DES the same event log and invariant-check count — forever, on
//! every platform.

use radd_core::{CheckError, CheckedCluster, PartitionMap, SiteState};
use radd_obs::ObsSnapshot;
use radd_protocol::{ClientErr, GroupCluster, ObsEvent};
use radd_sim::SimRng;
use std::collections::BTreeMap;
use std::fmt;

// The §3.1 failure vocabulary, shared with the scheme drivers — defined
// once in `radd-protocol`.
pub use radd_protocol::FailureKind;

/// One step of a fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Client write of a deterministic payload (see [`payload`]).
    Write {
        /// Target site.
        site: usize,
        /// Site-local data index.
        index: u64,
        /// Seed for the payload bytes.
        fill: u64,
    },
    /// Client read (content is checked against the oracle where known).
    Read {
        /// Target site.
        site: usize,
        /// Site-local data index.
        index: u64,
    },
    /// Inject one of the §3.1 failures at a site: temporary site failure,
    /// disaster (all disk contents lost), or a single disk failure (the
    /// site moves to recovering).
    Fail {
        /// The affected site.
        site: usize,
        /// Which failure (shared vocabulary from `radd-protocol`).
        kind: FailureKind,
    },
    /// Swap a blank drive in for a failed disk.
    ReplaceDisk {
        /// The affected site.
        site: usize,
        /// The replaced disk.
        disk: usize,
    },
    /// Bring a down site back (recovering state).
    RestoreSite {
        /// The returning site.
        site: usize,
    },
    /// Run the recovery daemon for a recovering site (drain spares,
    /// rebuild lost blocks, mark up).
    Recover {
        /// The recovering site.
        site: usize,
    },
    /// §5 partition: cut one site off from the other `G + 1`.
    Isolate {
        /// The isolated site.
        site: usize,
    },
    /// Heal the partition. The previously isolated site re-enters through
    /// the recovering state (it may have missed writes absorbed by
    /// spares).
    Heal {
        /// The site that was isolated.
        site: usize,
    },
    /// Start dropping roughly `permille`/1000 of messages (threaded
    /// runtime; the DES models a reliable §3 network and ignores it).
    LossBurst {
        /// Drop probability in 1/1000 units.
        permille: u16,
        /// Seed for victim selection.
        seed: u64,
    },
    /// End the message-loss burst.
    LossEnd,
    /// Settle every parity update still in flight: the runtime's
    /// `quiesce`. A no-op on the DES, whose cascade delivers each update
    /// within the write that sent it.
    FlushParity,
    /// Process crash + immediate restart of a site running on durable
    /// storage: volatile state (pending tables, reply cache, timers, any
    /// uncommitted staged writes) is lost; the site re-opens from its WAL +
    /// block file and resumes serving (§3.4). The DES always models
    /// durable storage; a runtime cluster on memory-backed storage treats
    /// it as a no-op — there is nothing to restart from.
    KillRestart {
        /// The crashed-and-restarted site.
        site: usize,
    },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::Write { site, index, fill } => {
                write!(f, "write site {site} index {index} (fill {fill:#x})")
            }
            FaultEvent::Read { site, index } => write!(f, "read site {site} index {index}"),
            FaultEvent::Fail { site, kind } => match kind {
                FailureKind::SiteFailure => write!(f, "fail site {site}"),
                FailureKind::Disaster => write!(f, "disaster at site {site}"),
                FailureKind::DiskFailure { disk } => {
                    write!(f, "fail disk {disk} of site {site}")
                }
            },
            FaultEvent::ReplaceDisk { site, disk } => {
                write!(f, "replace disk {disk} of site {site}")
            }
            FaultEvent::RestoreSite { site } => write!(f, "restore site {site}"),
            FaultEvent::Recover { site } => write!(f, "recover site {site}"),
            FaultEvent::Isolate { site } => write!(f, "isolate site {site}"),
            FaultEvent::Heal { site } => write!(f, "heal partition around site {site}"),
            FaultEvent::LossBurst { permille, seed } => {
                write!(f, "message loss {permille}‰ (seed {seed:#x})")
            }
            FaultEvent::LossEnd => write!(f, "message loss off"),
            FaultEvent::FlushParity => write!(f, "flush queued parity updates"),
            FaultEvent::KillRestart { site } => {
                write!(f, "crash and restart site {site} from durable storage")
            }
        }
    }
}

/// The deterministic payload for a [`FaultEvent::Write`]: a pure function
/// of the event's `fill` seed, identical across runtimes and platforms.
pub fn payload(fill: u64, block_size: usize) -> Vec<u8> {
    SimRng::seed_from_u64(fill).bytes(block_size)
}

/// Derive a plan seed from a human-readable name (FNV-1a). CI uses this so
/// seeds can be spelled as strings like `"0xRADD0001"` in workflow files
/// and test names while staying honest 64-bit seeds.
pub fn seed_from_name(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A seed as a person spells it: `"0x1f"` and `"31"` are numbers, anything
/// else (including `"0xRADD0001"`, which is not hex) is a name for
/// [`seed_from_name`]. What `RADD_FAULT_SEED` / `RADD_CRASH_SEED` and the
/// `fault_plan` example accept.
pub fn parse_seed(s: &str) -> u64 {
    let t = s.trim();
    t.strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .or_else(|| t.parse::<u64>().ok())
        .unwrap_or_else(|| seed_from_name(t))
}

/// Shape parameters for plan generation: the cluster the plan is meant for
/// and how many load/fault steps to draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanShape {
    /// Group size `G` (the cluster has `G + 2` sites).
    pub group_size: usize,
    /// Physical rows per site.
    pub rows: u64,
    /// Disks per site (bounds `FailDisk` events).
    pub disks_per_site: usize,
    /// Steps to draw (repairs ride along, so plans run slightly longer).
    pub steps: usize,
}

impl Default for PlanShape {
    /// Matches `RaddConfig::small_g4` and `NodeCluster::start(4, 12, _)`.
    fn default() -> PlanShape {
        PlanShape {
            group_size: 4,
            rows: 12,
            disks_per_site: 1,
            steps: 60,
        }
    }
}

/// A named, replayable sequence of events in one driver's vocabulary:
/// [`FaultEvent`]s for the runtimes and the DES, the model checker's own
/// actions for its driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan<E = FaultEvent> {
    /// The seed the plan was generated from (0 for hand-composed plans).
    pub seed: u64,
    /// The events, in execution order.
    pub events: Vec<E>,
}

/// Generator bookkeeping: at most one failure is in effect at a time (the
/// paper's algorithms survive single failures only).
enum Active {
    None,
    Down(usize),
    Disk(usize, usize),
    Isolated(usize),
}

impl FaultPlan {
    /// A hand-composed plan.
    pub fn from_events(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan { seed: 0, events }
    }

    /// Hand-composed for the runtimes with a lossy network: a heavy loss
    /// burst (30% of all messages silently dropped) overlapping a §5
    /// partition, with a degraded write and a degraded read inside both.
    /// Every write must still be durably reflected in parity once the
    /// cluster quiesces. Shaped for `G = 4`, 12 rows.
    pub fn loss_burst_over_partition() -> FaultPlan {
        use FaultEvent::*;
        let write = |site, index, fill| Write { site, index, fill };
        FaultPlan::from_events(vec![
            write(0, 0, 0x11),
            write(1, 0, 0x22),
            LossBurst {
                permille: 300,
                seed: 0xC0FFEE,
            },
            write(2, 0, 0x33),
            write(3, 1, 0x44),
            Isolate { site: 1 },
            // Degraded write: the spare site absorbs it (W1').
            write(1, 2, 0x55),
            write(4, 1, 0x66),
            // Degraded read straight back from the spare, under loss.
            Read { site: 1, index: 2 },
            Heal { site: 1 },
            Recover { site: 1 },
            LossEnd,
            write(0, 3, 0x77),
            Read { site: 1, index: 2 },
            FlushParity,
        ])
    }

    /// Hand-composed around §3.2's recovering window: site 1's indexes 0 and
    /// 2 are written degraded into their rows' spares, then, between its
    /// restore and its `Recover`, it reads a block a spare supersedes and
    /// one it does not, and takes writes to a block with a stand-in and to
    /// one without. Those operations drain every stand-in, so the `Recover`
    /// finds none. Shaped for `G = 4`, 12 rows.
    pub fn recovering_window() -> FaultPlan {
        use FaultEvent::*;
        let write = |index, fill| Write {
            site: 1,
            index,
            fill,
        };
        let read = |index| Read { site: 1, index };
        let kind = FailureKind::SiteFailure;
        FaultPlan::from_events(vec![
            write(0, 0x10),
            write(1, 0x11),
            write(2, 0x12),
            Fail { site: 1, kind },
            write(0, 0x20),
            write(2, 0x22),
            RestoreSite { site: 1 },
            read(0),
            read(1),
            write(2, 0x32),
            write(1, 0x31),
            read(2),
            read(1),
            Recover { site: 1 },
            read(0),
            read(1),
            read(2),
            FlushParity,
        ])
    }

    /// Hand-composed around §3.2's parity stand-in: site 2, the parity site
    /// of rows 2 and 8, fails. Row 2 is written through its spare's
    /// stand-in on first touch and again once it exists, row 8 on first
    /// touch only. After the restore a write to row 2 drains its stand-in
    /// back first, so the `Recover` drains row 8's alone. Shaped for
    /// `G = 4`, 12 rows.
    pub fn parity_site_down() -> FaultPlan {
        use FaultEvent::*;
        let write = |site, index, fill| Write { site, index, fill };
        let kind = FailureKind::SiteFailure;
        FaultPlan::from_events(vec![
            write(0, 1, 0x10),
            write(1, 0, 0x11),
            Fail { site: 2, kind },
            write(1, 0, 0x21),
            write(0, 1, 0x20),
            write(1, 4, 0x24),
            Read { site: 1, index: 0 },
            Read { site: 0, index: 1 },
            RestoreSite { site: 2 },
            write(5, 2, 0x32),
            Read { site: 0, index: 1 },
            Recover { site: 2 },
            Read { site: 1, index: 0 },
            Read { site: 1, index: 4 },
            Read { site: 5, index: 2 },
            FlushParity,
        ])
    }

    /// Hand-composed: loss only (25%), no failures, so every event after
    /// the burst ends is followed by a full invariant sweep.
    pub fn heavy_loss() -> FaultPlan {
        let mut events = vec![FaultEvent::LossBurst {
            permille: 250,
            seed: 0xFEED,
        }];
        events.extend((0..8u64).map(|i| FaultEvent::Write {
            site: (i % 6) as usize,
            index: i % 4,
            fill: 0x100 + i,
        }));
        events.extend([FaultEvent::LossEnd, FaultEvent::FlushParity]);
        FaultPlan::from_events(events)
    }

    /// Generate a plan from a seed: mostly load, with failure/repair
    /// cycles (one failure in effect at a time), loss bursts and parity
    /// flushes mixed in. Every failure is repaired and every burst ended
    /// before the plan finishes, so the final invariant check runs on a
    /// fully healthy cluster.
    pub fn generate(seed: u64, shape: &PlanShape) -> FaultPlan {
        let geo = radd_core::Geometry::new(shape.group_size, shape.rows).expect("valid plan shape");
        let n = shape.group_size + 2;
        let mut rng = SimRng::seed_from_u64(seed);
        let mut events = Vec::with_capacity(shape.steps + 8);
        let mut active = Active::None;
        let mut loss = false;

        let push_repair = |active: &mut Active, events: &mut Vec<FaultEvent>| {
            match *active {
                Active::None => {}
                Active::Down(site) => {
                    events.push(FaultEvent::RestoreSite { site });
                    events.push(FaultEvent::Recover { site });
                }
                Active::Disk(site, disk) => {
                    events.push(FaultEvent::ReplaceDisk { site, disk });
                    events.push(FaultEvent::Recover { site });
                }
                Active::Isolated(site) => {
                    events.push(FaultEvent::Heal { site });
                    events.push(FaultEvent::Recover { site });
                }
            }
            *active = Active::None;
        };

        for _ in 0..shape.steps {
            match rng.below(100) {
                // Load: writes dominate, as failure behaviour is mostly
                // about whether updates survive.
                0..=54 => {
                    let site = rng.index(n);
                    let index = rng.below(geo.data_capacity(site));
                    let fill = rng.next_u64();
                    events.push(FaultEvent::Write { site, index, fill });
                }
                55..=69 => {
                    let site = rng.index(n);
                    let index = rng.below(geo.data_capacity(site));
                    events.push(FaultEvent::Read { site, index });
                }
                // Failure injection — or repair, if one is already active.
                70..=84 => match active {
                    Active::None => {
                        let site = rng.index(n);
                        match rng.below(4) {
                            0 => {
                                events.push(FaultEvent::Fail {
                                    site,
                                    kind: FailureKind::SiteFailure,
                                });
                                active = Active::Down(site);
                            }
                            1 => {
                                events.push(FaultEvent::Fail {
                                    site,
                                    kind: FailureKind::Disaster,
                                });
                                active = Active::Down(site);
                            }
                            2 => {
                                let disk = rng.index(shape.disks_per_site);
                                events.push(FaultEvent::Fail {
                                    site,
                                    kind: FailureKind::DiskFailure { disk },
                                });
                                active = Active::Disk(site, disk);
                            }
                            _ => {
                                events.push(FaultEvent::Isolate { site });
                                active = Active::Isolated(site);
                            }
                        }
                    }
                    _ => push_repair(&mut active, &mut events),
                },
                // Message-loss toggle.
                85..=92 => {
                    if loss {
                        events.push(FaultEvent::LossEnd);
                    } else {
                        events.push(FaultEvent::LossBurst {
                            permille: 100 + rng.below(200) as u16,
                            seed: rng.next_u64(),
                        });
                    }
                    loss = !loss;
                }
                _ => events.push(FaultEvent::FlushParity),
            }
        }
        // Wind down to a fully healthy cluster.
        if loss {
            events.push(FaultEvent::LossEnd);
        }
        push_repair(&mut active, &mut events);
        events.push(FaultEvent::FlushParity);
        FaultPlan { seed, events }
    }

    /// [`generate`](FaultPlan::generate) plus §3.4 crash/restart coverage:
    /// the base plan is generated *unchanged* (same seed → same base
    /// events, so existing seed corpora stay stable), then
    /// [`FaultEvent::KillRestart`] events are woven in at points where the
    /// cluster is healthy — no failure in effect, no loss burst — from a
    /// separate deterministic stream of the same seed. Every plan ends
    /// with at least one crash, so a `(seed, shape)` pair always
    /// exercises the durable-recovery path.
    ///
    /// Drivers on memory-backed storage treat the crashes as no-ops, so
    /// these plans run anywhere; they only *prove* anything on a durable
    /// cluster.
    pub fn generate_with_crashes(seed: u64, shape: &PlanShape) -> FaultPlan {
        let base = FaultPlan::generate(seed, shape);
        let n = shape.group_size + 2;
        // A distinct stream: crash placement must not perturb (or be
        // perturbed by) the base generator's draws.
        let mut rng = SimRng::seed_from_u64(seed ^ 0x000C_8A54_ED05_7A87u64);
        let mut events = Vec::with_capacity(base.events.len() + 8);
        let mut healthy = true;
        let mut loss = false;
        for ev in base.events {
            match ev {
                FaultEvent::Fail { .. } | FaultEvent::Isolate { .. } => healthy = false,
                FaultEvent::Recover { .. } => healthy = true,
                FaultEvent::LossBurst { .. } => loss = true,
                FaultEvent::LossEnd => loss = false,
                _ => {}
            }
            events.push(ev);
            // Crash while a failure is active and the cluster loses a
            // *second* site; crash under loss and quiescing first drags —
            // both are out of the paper's single-failure model.
            if healthy && !loss && rng.below(100) < 12 {
                events.push(FaultEvent::KillRestart { site: rng.index(n) });
            }
        }
        events.push(FaultEvent::KillRestart { site: rng.index(n) });
        events.push(FaultEvent::FlushParity);
        FaultPlan { seed, events }
    }
}

/// Something a fault plan can drive: [`PlanDriver`] over any runtime's
/// cluster, the DES's [`CheckedCluster`], the model checker's
/// `ModelDriver` (the module docs say what only each can express).
pub trait FaultDriver {
    /// The steps this driver's plans are made of, printed one per line in
    /// an event log.
    type Event: fmt::Display;

    /// Apply one event. `Err` means an *engine-level* failure (a violated
    /// guarantee), not a legitimate protocol refusal — drivers swallow
    /// refusals that the scenario makes legal (e.g. a write rejected while
    /// blocked by a partition).
    fn apply(&mut self, event: &Self::Event) -> Result<(), String>;

    /// Validate the runtime's invariants if currently checkable; returns
    /// whether a check was actually performed (`Ok(false)` = legitimately
    /// skipped, e.g. the threaded runtime mid-failure).
    fn verify(&mut self) -> Result<bool, String>;

    /// Wait/settle until no acknowledged work is still in flight.
    fn quiesce(&mut self) -> Result<(), String>;

    /// Freeze the runtime's observability state (per-machine metrics and
    /// flight-recorder tails) for embedding into a [`PlanFailure`]. The
    /// default is `None` for drivers without an observability layer.
    fn obs_snapshot(&mut self) -> Option<ObsSnapshot> {
        None
    }
}

/// A completed plan run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReport {
    /// The plan's seed.
    pub seed: u64,
    /// Events applied.
    pub applied: usize,
    /// Invariant checks actually performed.
    pub invariant_checks: u64,
    /// Human-readable event log, one line per event.
    pub event_log: Vec<String>,
}

/// A plan run stopped by a violation (or an engine failure).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct PlanFailure {
    /// The plan's seed — print this; it replays the failure.
    pub seed: u64,
    /// Index of the event at which the run failed.
    pub failed_at: usize,
    /// What went wrong.
    pub error: String,
    /// Event log up to and including the failing event.
    pub event_log: Vec<String>,
    /// The driver's observability state at the moment of failure: per-
    /// machine metric counters plus the last-N flight-recorder events —
    /// what each machine was *doing* when the invariant broke, not just
    /// what the harness asked of it.
    pub obs: Option<ObsSnapshot>,
}

impl fmt::Display for PlanFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault plan seed {:#018x} failed at event {}: {}",
            self.seed, self.failed_at, self.error
        )?;
        writeln!(f, "event log:")?;
        for line in &self.event_log {
            writeln!(f, "  {line}")?;
        }
        if let Some(obs) = &self.obs {
            writeln!(f, "observability at failure (metrics + flight tails):")?;
            for line in obs.render_text(8).lines() {
                writeln!(f, "  {line}")?;
            }
        }
        write!(
            f,
            "replay: FaultPlan::generate({:#x}, &shape) with the same shape, \
             or run the minimized prefix via minimize_failure",
            self.seed
        )
    }
}

impl std::error::Error for PlanFailure {}

impl PlanFailure {
    /// The failure as pretty-printed JSON — seed, failing event, event log
    /// and the embedded observability snapshot — for machine consumption
    /// (CI uploads these as workflow artifacts).
    pub fn dump_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("infallible in-memory serialization")
    }

    /// Write [`dump_json`](PlanFailure::dump_json) to
    /// `<dir>/<label>.json`, creating `dir` as needed. Returns the path.
    /// Errors are returned, not panicked: dump writing runs on failure
    /// paths that already carry a better panic message.
    pub fn write_dump(
        &self,
        dir: &std::path::Path,
        label: &str,
    ) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{label}.json"));
        std::fs::write(&path, self.dump_json())?;
        Ok(path)
    }

    /// Panic with the report, leaving the dump (event log, per-machine
    /// metrics, flight-recorder tails) at `target/fault_dumps/<context>.json`:
    /// CI uploads that directory when a fault job goes red.
    pub fn panic_with_dump(&self, context: &str) -> ! {
        let dumped = self
            .write_dump(std::path::Path::new("target/fault_dumps"), context)
            .map_or_else(
                |e| format!("<dump failed: {e}>"),
                |p| p.display().to_string(),
            );
        panic!("{context} (dump: {dumped}):\n{self}")
    }
}

/// Execute `plan` against `driver`, checking invariants after every event.
/// Ends with a quiesce + final check so in-flight work cannot hide a
/// violation.
pub fn run_plan<D: FaultDriver>(
    driver: &mut D,
    plan: &FaultPlan<D::Event>,
) -> Result<PlanReport, PlanFailure> {
    let mut log = Vec::with_capacity(plan.events.len());
    let mut checks = 0u64;
    let mut run = || -> Result<(), String> {
        for (i, event) in plan.events.iter().enumerate() {
            log.push(format!("[{i}] {event}"));
            driver.apply(event)?;
            let swept = driver.verify();
            checks += u64::from(swept.map_err(|e| format!("invariant violated: {e}"))?);
        }
        driver
            .quiesce()
            .map_err(|e| format!("failed to quiesce: {e}"))?;
        let swept = driver.verify();
        checks += u64::from(swept.map_err(|e| format!("invariant violated at quiesce: {e}"))?);
        Ok(())
    };
    match run() {
        Ok(()) => Ok(PlanReport {
            seed: plan.seed,
            applied: plan.events.len(),
            invariant_checks: checks,
            event_log: log,
        }),
        // Every failure path snapshots the driver's observability state, so
        // the report shows what each machine was doing, not just what the
        // harness asked of it.
        Err(error) => Err(PlanFailure {
            seed: plan.seed,
            failed_at: log.len().saturating_sub(1),
            error,
            event_log: log,
            obs: driver.obs_snapshot(),
        }),
    }
}

/// Greedily shrink a failing plan to a minimal subsequence that still
/// fails, re-running a fresh driver from `factory` per candidate. The
/// result is what a human replays: usually a handful of events instead of
/// hundreds.
pub fn minimize_failure<D, F>(mut factory: F, plan: &FaultPlan<D::Event>) -> FaultPlan<D::Event>
where
    D: FaultDriver,
    D::Event: Clone,
    F: FnMut() -> D,
{
    let still_fails = |events: &[D::Event], factory: &mut F| {
        let candidate = FaultPlan {
            seed: plan.seed,
            events: events.to_vec(),
        };
        run_plan(&mut factory(), &candidate).is_err()
    };
    // Start from the prefix ending at the original failure point.
    let mut events = match run_plan(&mut factory(), plan) {
        Err(f) => plan.events[..=f.failed_at.min(plan.events.len() - 1)].to_vec(),
        Ok(_) => return plan.clone(), // flaky elsewhere; nothing to minimize
    };
    let mut i = 0;
    while i < events.len() {
        let mut candidate = events.clone();
        candidate.remove(i);
        if still_fails(&candidate, &mut factory) {
            events = candidate; // the event was irrelevant; drop it
        } else {
            i += 1; // load-bearing; keep it
        }
    }
    FaultPlan {
        seed: plan.seed,
        events,
    }
}

/// Not a [`PlanDriver`] over one more cluster type: this is the only driver
/// that applies a plan's disk failures, disasters and partitions for real
/// (the DES fails a disk *inside* a site, blanks a site, and gates every
/// operation through §5's partition verdict), with omniscient invariant
/// checks and per-operation pricing that [`GroupCluster`] does not expose.
impl FaultDriver for CheckedCluster {
    type Event = FaultEvent;

    fn apply(&mut self, event: &FaultEvent) -> Result<(), String> {
        let num_sites = self.cluster().config().num_sites();
        match *event {
            FaultEvent::Write { site, index, fill } => {
                let data = payload(fill, self.cluster().config().block_size);
                match self.write(site, index, &data) {
                    Ok(()) => Ok(()),
                    Err(e) if e.is_refusal() => Ok(()),
                    Err(e) => Err(format!("write(site {site}, index {index}): {e}")),
                }
            }
            FaultEvent::Read { site, index } => match self.read(site, index) {
                Ok(_) => Ok(()),
                Err(CheckError::Protocol(e)) if e.is_refusal() => Ok(()),
                Err(e) => Err(format!("read(site {site}, index {index}): {e}")),
            },
            FaultEvent::Fail { site, kind } => {
                match kind {
                    FailureKind::SiteFailure => self.cluster_mut().fail_site(site),
                    FailureKind::Disaster => self.cluster_mut().disaster(site),
                    FailureKind::DiskFailure { disk } => self.cluster_mut().fail_disk(site, disk),
                }
                Ok(())
            }
            FaultEvent::ReplaceDisk { site, disk } => {
                self.cluster_mut().replace_disk(site, disk);
                Ok(())
            }
            FaultEvent::RestoreSite { site } => {
                self.cluster_mut().restore_site(site);
                Ok(())
            }
            FaultEvent::Recover { site } => {
                if self.cluster().site_state(site) == SiteState::Recovering {
                    self.cluster_mut()
                        .run_recovery(site)
                        .map(|_| ())
                        .map_err(|e| format!("recovery of site {site}: {e}"))
                } else {
                    Ok(())
                }
            }
            FaultEvent::Isolate { site } => {
                self.cluster_mut()
                    .set_partition(PartitionMap::isolate(num_sites, site));
                Ok(())
            }
            FaultEvent::Heal { site } => {
                self.cluster_mut()
                    .set_partition(PartitionMap::connected(num_sites));
                // §5: the reconnected site re-enters through recovery — it
                // may hold stale blocks whose writes were absorbed by
                // spares while it was cut off.
                if self.cluster().site_state(site) == SiteState::Up {
                    self.cluster_mut().fail_site(site);
                    self.cluster_mut().restore_site(site);
                }
                Ok(())
            }
            // The DES models the reliable network of §3, and its cascade
            // delivers each parity update within its write: loss bursts
            // only bite on the threaded runtime, and nothing is left to
            // flush.
            FaultEvent::LossBurst { .. } | FaultEvent::LossEnd | FaultEvent::FlushParity => Ok(()),
            // §3.4 crash/restart: round-trip the site through its durable
            // snapshot.
            FaultEvent::KillRestart { site } => {
                self.cluster_mut().kill_restart_site(site);
                Ok(())
            }
        }
    }

    fn verify(&mut self) -> Result<bool, String> {
        self.check_invariants().map(|()| true)
    }

    /// The synchronous cascade leaves nothing in flight.
    fn quiesce(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn obs_snapshot(&mut self) -> Option<ObsSnapshot> {
        self.cluster_mut().obs_snapshot()
    }
}

/// What one plan event came to on a [`PlanDriver`], or one sharded event in
/// [`run_sharded_plan`](crate::sharded::run_sharded_plan): the log two
/// runtimes' replays are compared by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Applied, with nothing to report.
    Done,
    /// The bytes a read returned.
    Read(Vec<u8>),
    /// The blocks a repair drained back from the spares.
    Drained(u64),
    /// Legally refused ([`ClientErr::is_refusal`]); nothing happened.
    Refused(ClientErr),
    /// Not applied, by one of the replay conventions.
    Skipped,
}

impl Outcome {
    /// Did two runtimes see the same thing? Equal, or refused on both: two
    /// legal refusals may still differ in `MultipleFailure`'s free-text
    /// `detail`, or be `Unavailable` on one runtime and `MultipleFailure`
    /// on the other. (A timeout is never a refusal: it fails the replay.)
    pub fn agrees_with(&self, other: &Outcome) -> bool {
        matches!((self, other), (Outcome::Refused(_), Outcome::Refused(_))) || self == other
    }
}

/// The fault-plan replayer, over any runtime's cluster ([`GroupCluster`]):
/// the DES in client mode, the threaded cluster, the socket cluster. It
/// tracks an oracle of every acknowledged write and keeps, in this one
/// place, the conventions the paper's model imposes on a replay:
///
/// * **One failure at a time** (the paper's algorithms survive single
///   failures only): `impaired` is the one site currently failed or
///   isolated.
/// * **Quiesce before a kill.** A site dying with an unacknowledged parity
///   update is §6's in-doubt case, which needs coordinator logs no runtime
///   here models; `Fail`, `Isolate` and `KillRestart` settle first.
/// * **Restored is recovering, not recovered** (§3.2). A revived or healed
///   site is believed recovering until the plan's `Recover` drains its
///   spares: between the two a row's spare may supersede its local copy,
///   so its reads and writes consult the spare first (the client
///   machine's rule, not this driver's). That is the contract of
///   [`GroupCluster::restore`] / [`GroupCluster::heal`]. The site stays
///   `impaired` until the `Recover`.
/// * **Every write is issued.** One whose row's parity site is impaired
///   goes through the row's parity stand-in, the machines' rule too (§3.2).
/// * **What only the DES can inject degrades.** Disk events are no-ops (the
///   paired `Recover` then drains nothing) and a disaster is a temporary
///   failure: the protocol exercise (kill, degraded operation, drain) is
///   the same, only the disks keep their contents. Message-granularity
///   events are no-ops too. [`CheckedCluster`] and `radd_check::ModelDriver`
///   are where those events are real.
/// * **The sweep**: stripe parity in every row, nothing unacknowledged,
///   every acknowledged write reads back. It waits while a site is
///   impaired (a site will not answer) or a loss burst runs (it would pass,
///   but every dropped probe costs a retry timeout).
pub struct PlanDriver<C> {
    cluster: C,
    /// Logical content per `(site, index)`: every write the cluster
    /// acknowledged must read back exactly.
    oracle: BTreeMap<(usize, u64), Vec<u8>>,
    impaired: Option<usize>,
    lossy: bool,
    outcomes: Vec<Outcome>,
}

impl<C: GroupCluster<Obs = ObsSnapshot>> PlanDriver<C> {
    /// Drive `cluster`, which should be fresh: the oracle starts empty.
    pub fn new(cluster: C) -> PlanDriver<C> {
        PlanDriver {
            cluster,
            oracle: BTreeMap::new(),
            impaired: None,
            lossy: false,
            outcomes: Vec::new(),
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &C {
        &self.cluster
    }

    /// Acknowledged writes tracked by the oracle.
    pub fn oracle_len(&self) -> usize {
        self.oracle.len()
    }

    /// One [`Outcome`] per event applied so far, in order.
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    /// Stop whatever the cluster keeps running.
    pub fn shutdown(self) {
        self.cluster.shutdown();
    }

    /// Replay for comparison with another runtime: every event applied
    /// with no sweep in between (a sweep's reads would land in the site
    /// traces, and differently per runtime), then quiesce, drain the
    /// normalised traces (index 0 = client, `1 + j` = site `j`), and only
    /// then the one final sweep. The other half of the comparison is
    /// [`outcomes`](PlanDriver::outcomes).
    pub fn replay(&mut self, plan: &FaultPlan) -> Result<Vec<Vec<ObsEvent>>, String> {
        self.cluster.record_traces(true);
        for (i, event) in plan.events.iter().enumerate() {
            self.apply(event)
                .map_err(|e| format!("event {i} ({event}): {e}"))?;
        }
        self.cluster.quiesce()?;
        let traces = self.cluster.take_traces();
        if !self.verify()? {
            return Err("the plan ended impaired or lossy: no final sweep".to_string());
        }
        Ok(traces)
    }
}

impl<C: GroupCluster<Obs = ObsSnapshot>> FaultDriver for PlanDriver<C> {
    type Event = FaultEvent;

    /// One event, under the conventions in the type's docs.
    fn apply(&mut self, event: &FaultEvent) -> Result<(), String> {
        let outcome = match *event {
            FaultEvent::Write { site, index, fill } => {
                let data = payload(fill, self.cluster.block_size());
                match self.cluster.write(site, index, &data) {
                    Ok(()) => {
                        self.oracle.insert((site, index), data);
                        Outcome::Done
                    }
                    Err(e) if e.is_refusal() => Outcome::Refused(e),
                    Err(e) => return Err(format!("write(site {site}, index {index}): {e}")),
                }
            }
            FaultEvent::Read { site, index } => match self.cluster.read(site, index) {
                Ok(data) => match self.oracle.get(&(site, index)) {
                    Some(want) if *want != data => {
                        return Err(format!(
                            "read(site {site}, index {index}) returned stale or corrupt data"
                        ))
                    }
                    _ => Outcome::Read(data),
                },
                Err(e) if e.is_refusal() => Outcome::Refused(e),
                Err(e) => return Err(format!("read(site {site}, index {index}): {e}")),
            },
            FaultEvent::Fail {
                kind: FailureKind::DiskFailure { .. },
                ..
            }
            | FaultEvent::ReplaceDisk { .. } => Outcome::Skipped,
            FaultEvent::Fail { site, .. } => {
                self.cluster.quiesce()?;
                self.cluster.fail(site);
                self.impaired = Some(site);
                Outcome::Done
            }
            FaultEvent::RestoreSite { site } => {
                self.cluster.restore(site);
                Outcome::Done
            }
            FaultEvent::Recover { site } => {
                let drained = self
                    .cluster
                    .recover(site)
                    .map_err(|e| format!("recovery of site {site}: {e}"))?;
                self.impaired = None;
                Outcome::Drained(drained)
            }
            FaultEvent::Isolate { site } => {
                self.cluster.quiesce()?;
                self.cluster.isolate(site);
                self.impaired = Some(site);
                Outcome::Done
            }
            FaultEvent::Heal { site } => {
                self.cluster.heal(site);
                Outcome::Done
            }
            FaultEvent::LossBurst { permille, seed } => {
                self.cluster.set_loss(permille, seed);
                self.lossy = true;
                Outcome::Done
            }
            FaultEvent::LossEnd => {
                self.cluster.set_loss(0, 0);
                self.lossy = false;
                Outcome::Done
            }
            FaultEvent::FlushParity => {
                self.cluster.quiesce()?;
                Outcome::Done
            }
            // A memory-backed cluster reports `false` and changes nothing,
            // so crash plans replay against any cluster.
            FaultEvent::KillRestart { site } => {
                self.cluster.quiesce()?;
                self.cluster.kill_restart(site);
                Outcome::Done
            }
        };
        self.outcomes.push(outcome);
        Ok(())
    }

    /// The sweep (see the type's docs). `Ok(false)` = legitimately waiting.
    fn verify(&mut self) -> Result<bool, String> {
        if self.impaired.is_some() || self.lossy {
            return Ok(false);
        }
        self.cluster.quiesce()?;
        if !self.cluster.all_acked() {
            return Err(
                "quiesced but a retransmission channel still holds unacked parity updates"
                    .to_string(),
            );
        }
        self.cluster.verify_parity()?;
        for (&(site, index), want) in &self.oracle {
            match self.cluster.read(site, index) {
                Ok(got) if got == *want => {}
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
        self.cluster.quiesce()
    }

    fn obs_snapshot(&mut self) -> Option<ObsSnapshot> {
        self.cluster.obs_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radd_core::RaddConfig;

    fn des() -> CheckedCluster {
        CheckedCluster::new(RaddConfig::small_g4()).unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let shape = PlanShape::default();
        let a = FaultPlan::generate(42, &shape);
        let b = FaultPlan::generate(42, &shape);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, &shape);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn minimizer_shrinks_to_the_load_bearing_events() {
        // Driver factory: a cluster whose site-2 block is corrupted right
        // after the oracle write lands. We model that by wrapping apply.
        struct Sabotage {
            cc: CheckedCluster,
            armed: bool,
        }
        impl FaultDriver for Sabotage {
            type Event = FaultEvent;

            fn apply(&mut self, event: &FaultEvent) -> Result<(), String> {
                self.cc.apply(event)?;
                if !self.armed {
                    if let FaultEvent::Write {
                        site: 2, index: 1, ..
                    } = event
                    {
                        let row = self.cc.cluster().geometry().data_to_physical(2, 1);
                        let bs = self.cc.cluster().config().block_size;
                        self.cc.cluster_mut().corrupt_block(2, row, &vec![0x55; bs]);
                        self.armed = true;
                    }
                }
                Ok(())
            }
            fn verify(&mut self) -> Result<bool, String> {
                // Only the explicit read trips it — keeps the minimization
                // interesting (per-event invariant checks would fire at the
                // write itself).
                Ok(false)
            }
            fn quiesce(&mut self) -> Result<(), String> {
                FaultDriver::quiesce(&mut self.cc)
            }
        }

        // Build a long plan whose failure needs exactly two events: the
        // write that feeds the oracle and the read that exposes the
        // corruption. Everything in between is chaff the minimizer drops.
        let mut events = vec![FaultEvent::Write {
            site: 2,
            index: 1,
            fill: 9,
        }];
        for i in 0..10 {
            events.push(FaultEvent::Read {
                site: 3,
                index: i % 4,
            });
        }
        events.push(FaultEvent::Read { site: 2, index: 1 });
        let plan = FaultPlan {
            seed: 0xBAD,
            events,
        };

        let factory = || Sabotage {
            cc: des(),
            armed: false,
        };
        assert!(run_plan(&mut factory(), &plan).is_err());
        let minimized = minimize_failure(factory, &plan);
        assert_eq!(
            minimized.events,
            vec![
                FaultEvent::Write {
                    site: 2,
                    index: 1,
                    fill: 9
                },
                FaultEvent::Read { site: 2, index: 1 },
            ],
            "chaff reads dropped, load-bearing write+read kept"
        );
    }

    #[test]
    fn seed_from_name_is_stable_and_distinct() {
        let a = seed_from_name("0xRADD0001");
        assert_eq!(a, seed_from_name("0xRADD0001"), "stable across calls");
        assert_ne!(a, seed_from_name("0xRADD0002"));
        assert_ne!(a, 0);
    }

    #[test]
    fn payload_is_a_pure_function_of_fill() {
        assert_eq!(payload(5, 64), payload(5, 64));
        assert_ne!(payload(5, 64), payload(6, 64));
        assert_eq!(payload(5, 64).len(), 64);
    }
}
