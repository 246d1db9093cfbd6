//! Fault plans against the threaded cluster: the same engine that drives
//! the DES drives real site threads here, with message loss and a §5
//! partition in the mix. Convergence relies on the site machines'
//! stop-and-wait retransmission; at every quiesce point
//! `SiteMachine::all_acked()` must hold across the cluster.

use radd_node::ThreadedDriver;
use radd_workload::faults::{
    run_plan, seed_from_name, FaultEvent, FaultPlan, PlanFailure, PlanShape,
};

const BLOCK: usize = 64;

/// Panic with the report, leaving a machine-readable dump (metrics +
/// flight-recorder tails) under `target/fault_dumps/` for CI to upload.
fn dump_and_panic(context: &str, failure: &PlanFailure) -> ! {
    let dumped = failure
        .write_dump(std::path::Path::new("target/fault_dumps"), context)
        .map_or_else(
            |e| format!("<dump failed: {e}>"),
            |p| p.display().to_string(),
        );
    panic!("{context} (dump: {dumped}):\n{failure}")
}

#[test]
fn named_seed_plan_completes_on_the_threaded_runtime() {
    let shape = PlanShape::default();
    let plan = FaultPlan::generate(seed_from_name("0xRADD0001"), &shape);
    let mut driver = ThreadedDriver::start(shape.group_size, shape.rows, BLOCK);
    let report =
        run_plan(&mut driver, &plan).unwrap_or_else(|f| dump_and_panic("threaded-named-seed", &f));
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

#[test]
fn loss_burst_and_partition_converge_via_retransmission() {
    use FaultEvent::*;
    // Hand-composed: a heavy loss burst (30% of all messages silently
    // dropped) overlapping a partition. Every write here must still be
    // durably reflected in parity once the cluster quiesces.
    let plan = FaultPlan::from_events(vec![
        Write {
            site: 0,
            index: 0,
            fill: 0x11,
        },
        Write {
            site: 1,
            index: 0,
            fill: 0x22,
        },
        LossBurst {
            permille: 300,
            seed: 0xC0FFEE,
        },
        Write {
            site: 2,
            index: 0,
            fill: 0x33,
        },
        Write {
            site: 3,
            index: 1,
            fill: 0x44,
        },
        Isolate { site: 1 },
        // Degraded write: the spare site absorbs it (W1').
        Write {
            site: 1,
            index: 2,
            fill: 0x55,
        },
        Write {
            site: 4,
            index: 1,
            fill: 0x66,
        },
        // Degraded read straight back from the spare, under loss.
        Read { site: 1, index: 2 },
        Heal { site: 1 },
        Recover { site: 1 },
        LossEnd,
        Write {
            site: 0,
            index: 3,
            fill: 0x77,
        },
        Read { site: 1, index: 2 },
        FlushParity,
    ]);
    let mut driver = ThreadedDriver::start(4, 12, BLOCK);
    let report =
        run_plan(&mut driver, &plan).unwrap_or_else(|f| dump_and_panic("threaded-loss-burst", &f));
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
    let snap = driver.cluster_mut().obs_snapshot();
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
    use FaultEvent::*;
    // Loss only — no failures — so every event is followed by a full
    // invariant sweep once the burst ends.
    let mut events = vec![LossBurst {
        permille: 250,
        seed: 0xFEED,
    }];
    for i in 0..8u64 {
        events.push(Write {
            site: (i % 6) as usize,
            index: i % 4,
            fill: 0x100 + i,
        });
    }
    events.push(LossEnd);
    events.push(FlushParity);
    let plan = FaultPlan::from_events(events);
    let mut driver = ThreadedDriver::start(4, 12, BLOCK);
    run_plan(&mut driver, &plan).unwrap_or_else(|f| dump_and_panic("threaded-heavy-loss", &f));
    assert!(driver.cluster().all_acked());
    driver.shutdown();
}
