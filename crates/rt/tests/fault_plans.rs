//! Fault plans against the socket cluster: the same engine that drives the
//! DES and the threaded runtime drives real TCP connections here, with
//! every protocol frame crossing a [`radd_rt::FaultProxy`] on loopback.
//! Loss, duplication and §5 partitions are interpreted by the proxies on
//! actual byte streams; convergence relies on the sites' retransmission
//! machinery, and at every quiesce point every site must report
//! `all_acked`. On a violation, [`PlanFailure::write_dump`] leaves a
//! machine-readable report — event log plus the cluster's observability
//! snapshot — under `target/fault_dumps/` for CI to upload.

use radd_rt::{SocketCluster, SocketDriver};
use radd_workload::faults::{run_plan, seed_from_name, FaultDriver, FaultPlan, PlanShape};

const BLOCK: usize = 64;

/// Run one generated plan end to end on the socket runtime and assert the
/// convergence obligations every CI seed shares.
fn run_named_seed(name: &str) {
    let shape = PlanShape::default();
    let plan = FaultPlan::generate(seed_from_name(name), &shape);
    let mut driver = SocketDriver::new(SocketCluster::start(shape.group_size, shape.rows, BLOCK));
    let context = format!("socket-{name}");
    let report = run_plan(&mut driver, &plan).unwrap_or_else(|f| f.panic_with_dump(&context));
    assert_eq!(report.applied, plan.events.len());
    assert!(
        report.invariant_checks > 0,
        "healthy stretches must be swept"
    );
    assert!(
        driver.cluster().all_acked(),
        "no parity update may still be in flight after the final quiesce"
    );
    driver.shutdown();
}

// The three CI fault seeds. Each generates a distinct mix of load,
// failure/repair cycles, partitions and loss bursts; all must converge
// over real sockets exactly as they do on the threaded runtime and DES.

#[test]
fn named_seed_radd0001_completes_on_the_socket_runtime() {
    run_named_seed("0xRADD0001");
}

#[test]
fn named_seed_radd0002_completes_on_the_socket_runtime() {
    run_named_seed("0xRADD0002");
}

#[test]
fn named_seed_socket_soak_completes_on_the_socket_runtime() {
    run_named_seed("radd-socket-soak");
}

#[test]
fn loss_duplication_and_partition_converge_via_retransmission() {
    // Hand-composed: a heavy loss burst (30% of protocol frames silently
    // dropped at the proxies) overlapping a partition, with frame
    // duplication running for the whole plan — the proxy's third fault
    // axis, which the threaded runtime's lossy channels never exercise.
    // Duplicates must be absorbed by the sites' reply caches; every write
    // must still be durably reflected in parity once the cluster quiesces.
    let plan = FaultPlan::loss_burst_over_partition();
    let mut driver = SocketDriver::new(SocketCluster::start(4, 12, BLOCK));
    // One frame in five is delivered twice, for the entire plan.
    driver.cluster().faults().set_duplication(200, 0xD0D0);
    let report =
        run_plan(&mut driver, &plan).unwrap_or_else(|f| f.panic_with_dump("socket-loss-burst"));
    assert!(report.invariant_checks > 0);
    // After the final quiesce every site's retransmission channel drained
    // despite drops and duplicates at the proxies.
    assert!(driver.cluster().all_acked());
    assert!(driver.oracle_len() > 0);
    let faults = driver.cluster().faults();
    assert!(
        faults.dropped() > 0,
        "the loss burst never dropped a frame — the proxies are not in the path"
    );
    assert!(
        faults.duplicated() > 0,
        "duplication never fired — the proxies are not in the path"
    );

    // The observability layer watched the whole scenario over the wire:
    // every machine (client + G + 2 sites) answers its snapshot query, and
    // the protocol traffic shows up in the counters and flight rings.
    let num_sites = driver.cluster().num_sites();
    let snap = driver
        .obs_snapshot()
        .expect("the async runtimes always observe");
    assert_eq!(snap.machines.len(), 1 + num_sites);
    assert!(snap.total_flight_events() > 0, "flight rings are warm");
    let client = snap.machine("client").expect("client snapshot");
    assert!(
        client.metrics.sends_named("write") > 0,
        "the plan's writes were counted"
    );
    let parity_updates: u64 = snap
        .machines
        .iter()
        .map(|m| m.metrics.sends_named("parity_update"))
        .sum();
    assert!(
        parity_updates > 0,
        "sites shipped parity updates for the plan's writes"
    );
    driver.shutdown();
}

#[test]
fn quiesce_reports_all_acked_even_after_heavy_loss() {
    // Loss only — no failures — so every event is followed by a full
    // invariant sweep once the burst ends.
    let plan = FaultPlan::heavy_loss();
    let mut driver = SocketDriver::new(SocketCluster::start(4, 12, BLOCK));
    run_plan(&mut driver, &plan).unwrap_or_else(|f| f.panic_with_dump("socket-heavy-loss"));
    assert!(driver.cluster().all_acked());
    driver.shutdown();
}
