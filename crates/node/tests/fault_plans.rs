//! Fault plans against the threaded cluster: the same engine that drives
//! the DES drives real site threads here, with message loss and a §5
//! partition in the mix. Convergence relies on the site machines'
//! stop-and-wait retransmission; at every quiesce point
//! `SiteMachine::all_acked()` must hold across the cluster.

use radd_node::{NodeCluster, ThreadedDriver};
use radd_workload::faults::{
    run_plan, seed_from_name, FaultDriver, FaultEvent, FaultPlan, Outcome, PlanShape,
};

const BLOCK: usize = 64;

#[test]
fn named_seed_plan_completes_on_the_threaded_runtime() {
    let shape = PlanShape::default();
    let plan = FaultPlan::generate(seed_from_name("0xRADD0001"), &shape);
    let mut driver = ThreadedDriver::new(NodeCluster::start(shape.group_size, shape.rows, BLOCK));
    let report =
        run_plan(&mut driver, &plan).unwrap_or_else(|f| f.panic_with_dump("threaded-named-seed"));
    assert_eq!(report.applied, plan.events.len());
    assert!(
        report.invariant_checks > 0,
        "healthy stretches must be swept"
    );
    assert!(
        driver.cluster().all_acked(),
        "no parity update may still be in flight after the final quiesce"
    );
    // Every write is issued, the two whose parity site is failed
    // included: the row's spare stands in for it.
    for (event, outcome) in plan.events.iter().zip(driver.outcomes()) {
        if matches!(event, FaultEvent::Write { .. }) {
            assert_ne!(outcome, &Outcome::Skipped, "{event} was skipped");
        }
    }
    driver.shutdown();
}

#[test]
fn loss_burst_and_partition_converge_via_retransmission() {
    // Hand-composed: a heavy loss burst (30% of all messages silently
    // dropped) overlapping a partition. Every write here must still be
    // durably reflected in parity once the cluster quiesces.
    let plan = FaultPlan::loss_burst_over_partition();
    let mut driver = ThreadedDriver::new(NodeCluster::start(4, 12, BLOCK));
    let report =
        run_plan(&mut driver, &plan).unwrap_or_else(|f| f.panic_with_dump("threaded-loss-burst"));
    assert!(report.invariant_checks > 0);
    // The satellite assertion: after the plan's final quiesce, every
    // site's `SiteMachine` reports all_acked — retry/backoff drained
    // every parity update the loss burst swallowed.
    assert!(driver.cluster().all_acked());
    assert!(driver.oracle_len() > 0);

    // The observability layer watched the whole scenario: every machine
    // (client + G + 2 sites) answers its snapshot query — including via
    // the control drain had any site still been down — and the protocol
    // traffic shows up in the counters and flight rings.
    let snap = driver
        .obs_snapshot()
        .expect("the async runtimes always observe");
    assert_eq!(snap.machines.len(), 1 + driver.cluster().num_sites());
    assert!(snap.total_flight_events() > 0, "flight rings are warm");
    let client = snap.machine("client").expect("client snapshot");
    assert!(
        client.metrics.sends_named("write") > 0,
        "the plan's writes were counted"
    );
    assert!(
        client.metrics.write_latency.count > 0,
        "wall-clock write latencies were recorded"
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
    let mut driver = ThreadedDriver::new(NodeCluster::start(4, 12, BLOCK));
    run_plan(&mut driver, &plan).unwrap_or_else(|f| f.panic_with_dump("threaded-heavy-loss"));
    assert!(driver.cluster().all_acked());
    driver.shutdown();
}
