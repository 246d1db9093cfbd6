//! §3.4 crash/restart acceptance: seeded fault plans that kill a site and
//! bring it back **from disk** must converge on all three runtimes.
//!
//! [`FaultPlan::generate_with_crashes`] weaves [`FaultEvent::KillRestart`]
//! events into an ordinary load/failure plan. Here the same crash plan
//! runs against
//!
//! * the DES [`CheckedCluster`] under [`StorageMode::Durable`] (the
//!   process-crash model: volatile state gone, disk array preserved),
//! * the threaded runtime, a [`PlanDriver`] over
//!   [`NodeCluster::start_durable`] (every site journals through a
//!   WAL-backed `radd_storage::DiskBlocks`), and
//! * the socket runtime, the same [`PlanDriver`] over
//!   [`SocketCluster::start_durable`] (same engine, real TCP on loopback
//!   behind fault proxies),
//!
//! with the full invariant suite (stripe parity, UID-array agreement,
//! oracle content equality) checked after every event. Two fixed named
//! seeds run in CI; `RADD_CRASH_SEED=<name-or-number>` adds a third of
//! your choosing, and on any violation the failure dump lands under
//! `target/fault_dumps/` with the seed, the event log and the per-machine
//! observability snapshot:
//!
//! ```text
//! RADD_CRASH_SEED=0x00000000deadbeef cargo test --test crash_recovery
//! ```

use radd::core::StorageMode;
use radd::prelude::*;
use radd::protocol::CoalescePolicy;
use radd::storage::StorageSpec;
use std::path::{Path, PathBuf};

const BLOCK: usize = 64;
/// `small_g4`'s shape.
const G: usize = 4;
const ROWS: u64 = 12;

/// The async runtimes' default parity-update coalescing.
const MERGE: CoalescePolicy = CoalescePolicy::Merge;

/// The CI seed set (the mapping is `seed_from_name`, stable forever).
const CI_SEEDS: [&str; 2] = ["radd-crash-steady", "radd-crash-storm"];

/// Enough steps that the 12% crash-weave fires several times beyond the
/// guaranteed final `KillRestart`.
fn crash_shape() -> PlanShape {
    PlanShape {
        group_size: G,
        rows: ROWS,
        disks_per_site: 1,
        steps: 60,
    }
}

/// A generated crash plan, asserted to actually contain kill/restart
/// events (the generator guarantees at least the final one).
fn crash_plan(seed: u64) -> FaultPlan {
    let plan = FaultPlan::generate_with_crashes(seed, &crash_shape());
    assert!(
        plan.events
            .iter()
            .any(|e| matches!(e, FaultEvent::KillRestart { .. })),
        "generate_with_crashes produced a plan without a KillRestart"
    );
    plan
}

/// A fresh per-run scratch directory for one runtime's site stores.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("radd-crash-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every site directory a durable run leaves behind must hold a real
/// store: the geometry-sized block file plus the WAL the next open would
/// replay. (An empty directory would mean the runtime silently fell back
/// to memory and the `KillRestart` events proved nothing.)
fn assert_on_disk(dir: &Path, sites: usize, rows: u64) {
    for site in 0..sites {
        let site_dir = dir.join(format!("site-{site}"));
        let blocks = site_dir.join("blocks.dat");
        let meta =
            std::fs::metadata(&blocks).unwrap_or_else(|e| panic!("{}: {e}", blocks.display()));
        assert_eq!(
            meta.len(),
            rows * BLOCK as u64,
            "site {site}: block file is not geometry-sized"
        );
        assert!(
            site_dir.join("wal.log").exists(),
            "site {site}: no WAL was written"
        );
    }
}

fn check_report(label: &str, report: &PlanReport, plan: &FaultPlan) {
    assert_eq!(report.applied, plan.events.len(), "{label}");
    assert!(report.invariant_checks > 0, "{label}: nothing was checked");
}

fn run_des(label: &str, plan: &FaultPlan) {
    let shape = crash_shape();
    let mut cfg = RaddConfig::small_g4();
    cfg.rows = shape.rows;
    cfg.block_size = BLOCK;
    let mut cc = CheckedCluster::new(cfg).expect("valid crash config");
    cc.cluster_mut().set_storage_mode(StorageMode::Durable);
    let report = run_plan(&mut cc, plan)
        .unwrap_or_else(|f| f.panic_with_dump(&format!("crash-des-{label}")));
    check_report(label, &report, plan);
    for s in 0..cc.cluster().config().num_sites() {
        assert_eq!(
            cc.cluster().site_state(s),
            SiteState::Up,
            "{label} site {s}"
        );
    }
    assert!(cc.oracle_len() > 0, "{label}: plan never wrote anything");
}

/// Every site journals through a WAL-backed `DiskBlocks` under
/// `<dir>/site-<j>`.
fn on_disk(dir: &Path) -> StorageSpec {
    StorageSpec::Disk {
        dir: dir.to_path_buf(),
    }
}

/// One crash plan on an async runtime, over durable stores under a scratch
/// directory: the one `PlanDriver`, over whichever cluster `start` builds.
fn run_durable<C: GroupCluster<Obs = ObsSnapshot>>(
    runtime: &str,
    label: &str,
    plan: &FaultPlan,
    start: impl FnOnce(&Path) -> C,
) {
    let dir = scratch(&format!("{runtime}-{label}"));
    let mut driver = PlanDriver::new(start(&dir));
    let report = run_plan(&mut driver, plan)
        .unwrap_or_else(|f| f.panic_with_dump(&format!("crash-{runtime}-{label}")));
    check_report(label, &report, plan);
    assert!(
        driver.oracle_len() > 0,
        "{label}: plan never wrote anything"
    );
    assert!(
        driver.cluster().all_acked(),
        "{label}: parity update in flight after the final quiesce"
    );
    driver.shutdown();
    assert_on_disk(&dir, G + 2, ROWS);
    let _ = std::fs::remove_dir_all(&dir);
}

fn run_threaded(label: &str, plan: &FaultPlan) {
    run_durable("node", label, plan, |dir| {
        NodeCluster::start_durable(G, ROWS, BLOCK, 1, MERGE, &on_disk(dir)).0
    });
}

fn run_socket(label: &str, plan: &FaultPlan) {
    run_durable("sock", label, plan, |dir| {
        SocketCluster::start_durable(G, ROWS, BLOCK, 1, MERGE, &on_disk(dir)).0
    });
}

/// The crash weave rides on top of the base generator without disturbing
/// it: the plan minus its `KillRestart` events is exactly
/// [`FaultPlan::generate`] of the same seed, so a crash-seed failure can
/// be bisected against the crash-free baseline.
#[test]
fn crash_plans_extend_the_base_plan_deterministically() {
    let shape = crash_shape();
    for name in CI_SEEDS {
        let seed = seed_from_name(name);
        let with = crash_plan(seed);
        assert_eq!(with, FaultPlan::generate_with_crashes(seed, &shape));
        // Minus its KillRestarts and the extra flush after the guaranteed
        // final crash, the weave is exactly the crash-free base plan.
        let mut stripped: Vec<FaultEvent> = with
            .events
            .iter()
            .filter(|e| !matches!(e, FaultEvent::KillRestart { .. }))
            .cloned()
            .collect();
        assert_eq!(stripped.pop(), Some(FaultEvent::FlushParity));
        assert_eq!(stripped, FaultPlan::generate(seed, &shape).events);
    }
}

/// The targeted §3.4 scenario, hand-composed so the recovery path is
/// unmistakable: acknowledged writes, a kill/restart of a data site and of
/// its row's parity site, then the same blocks read back — all on the
/// threaded runtime over real `DiskBlocks` stores. The restarted sites
/// hold those blocks *only* on disk; a broken WAL replay fails the oracle
/// sweep immediately.
#[test]
fn a_killed_site_serves_its_acknowledged_writes_after_restart() {
    let dir = scratch("targeted");
    let mut driver =
        ThreadedDriver::new(NodeCluster::start_durable(G, ROWS, BLOCK, 1, MERGE, &on_disk(&dir)).0);
    let geo = Geometry::new(G, ROWS).expect("valid geometry");
    let row = geo.data_to_physical(2, 0);
    let plan = FaultPlan::from_events(vec![
        FaultEvent::Write {
            site: 2,
            index: 0,
            fill: 0x7D,
        },
        FaultEvent::Write {
            site: 3,
            index: 1,
            fill: 0x3E,
        },
        FaultEvent::FlushParity,
        FaultEvent::KillRestart { site: 2 },
        FaultEvent::KillRestart {
            site: geo.parity_site(row),
        },
        FaultEvent::Read { site: 2, index: 0 },
        FaultEvent::Read { site: 3, index: 1 },
        FaultEvent::FlushParity,
    ]);
    let report =
        run_plan(&mut driver, &plan).unwrap_or_else(|f| f.panic_with_dump("crash-targeted"));
    check_report("targeted", &report, &plan);
    assert_eq!(driver.oracle_len(), 2);
    driver.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_crash_plans_converge_on_the_des() {
    for name in CI_SEEDS {
        run_des(name, &crash_plan(seed_from_name(name)));
    }
    if let Ok(extra) = std::env::var("RADD_CRASH_SEED") {
        run_des(&extra, &crash_plan(parse_seed(&extra)));
    }
}

#[test]
fn seeded_crash_plans_converge_on_the_threaded_runtime() {
    for name in CI_SEEDS {
        run_threaded(name, &crash_plan(seed_from_name(name)));
    }
    if let Ok(extra) = std::env::var("RADD_CRASH_SEED") {
        run_threaded(&extra, &crash_plan(parse_seed(&extra)));
    }
}

#[test]
fn seeded_crash_plans_converge_on_the_socket_runtime() {
    for name in CI_SEEDS {
        run_socket(name, &crash_plan(seed_from_name(name)));
    }
    if let Ok(extra) = std::env::var("RADD_CRASH_SEED") {
        run_socket(&extra, &crash_plan(parse_seed(&extra)));
    }
}
