//! Fault plans against the socket cluster: the same engine that drives the
//! DES and the threaded runtime drives real TCP connections here. Every
//! endpoint asks the cluster's fault switchboard (`radd_net::FaultState`,
//! the threaded runtime's too) about each protocol message it sends, so
//! loss and §5 partitions act on real sockets, on the frame path
//! `radd-server` uses; convergence relies on the sites' retransmission
//! machinery, and at every quiesce point every site must report
//! `all_acked`. Duplication, with loss and a partition, runs on both
//! runtimes in the workspace's `tests/fault_plans.rs`. On a violation,
//! [`PlanFailure::write_dump`] leaves a machine-readable report — event
//! log plus the cluster's observability snapshot — under
//! `target/fault_dumps/` for CI to upload.
//!
//! [`PlanFailure::write_dump`]: radd_workload::faults::PlanFailure::write_dump

use radd_rt::{SocketCluster, SocketDriver};
use radd_workload::faults::{run_plan, seed_from_name, FaultPlan, PlanShape};

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
fn quiesce_reports_all_acked_even_after_heavy_loss() {
    // Loss only — no failures — so every event is followed by a full
    // invariant sweep once the burst ends.
    let plan = FaultPlan::heavy_loss();
    let mut driver = SocketDriver::new(SocketCluster::start(4, 12, BLOCK));
    run_plan(&mut driver, &plan).unwrap_or_else(|f| f.panic_with_dump("socket-heavy-loss"));
    assert!(driver.cluster().all_acked());
    driver.shutdown();
}
