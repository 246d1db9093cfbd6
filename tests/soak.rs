//! Soak test: seed-generated fault plans against the DES cluster with the
//! full invariant suite (parity, UID-array agreement, spare-slot sanity,
//! oracle content equality) checked after **every** event.
//!
//! Three fixed named seeds run in CI; `RADD_FAULT_SEED=<name-or-number>`
//! adds a fourth of your choosing. On any violation the failure message
//! carries the seed and the full event log — paste the seed back via the
//! environment variable to replay it locally:
//!
//! ```text
//! RADD_FAULT_SEED=0x00000000deadbeef cargo test --test soak
//! ```

use radd::prelude::*;

/// The CI seed set. Names, not numbers, so a failing run reads as
/// "soak-steady failed" rather than a bare integer (the mapping is
/// `seed_from_name`, stable forever).
const CI_SEEDS: [&str; 3] = ["radd-soak-steady", "radd-soak-churn", "radd-soak-storm"];

/// The paper's G = 8 shape, scaled down in rows so the per-event invariant
/// sweep stays fast while every failure kind still gets drawn.
fn soak_shape() -> PlanShape {
    PlanShape {
        group_size: 8,
        rows: 40,
        disks_per_site: 4,
        steps: 300,
    }
}

fn soak_cluster() -> CheckedCluster {
    let shape = soak_shape();
    let mut cfg = RaddConfig::paper_g8();
    cfg.rows = shape.rows;
    cfg.disks_per_site = shape.disks_per_site;
    cfg.block_size = 128;
    CheckedCluster::new(cfg).expect("valid soak config")
}

fn run_seed(label: &str, seed: u64) {
    let plan = FaultPlan::generate(seed, &soak_shape());
    let mut cc = soak_cluster();
    let report = run_plan(&mut cc, &plan)
        .unwrap_or_else(|failure| failure.panic_with_dump(&format!("soak seed {label}")));
    assert_eq!(report.applied, plan.events.len(), "seed {label}");
    assert!(
        report.invariant_checks > 0,
        "seed {label}: nothing was checked"
    );
    // Generated plans wind down to full health: every site up, and the
    // final post-quiesce sweep already passed.
    for s in 0..cc.cluster().config().num_sites() {
        assert_eq!(
            cc.cluster().site_state(s),
            SiteState::Up,
            "seed {label} site {s}"
        );
    }
    assert!(
        cc.oracle_len() > 0,
        "seed {label}: plan never wrote anything"
    );
}

#[test]
fn seeded_soak_plans_hold_every_invariant() {
    for name in CI_SEEDS {
        run_seed(name, seed_from_name(name));
    }
    if let Ok(extra) = std::env::var("RADD_FAULT_SEED") {
        run_seed(&extra, parse_seed(&extra));
    }
}

/// The long-lifetime variant of the old hand-rolled soak: one cluster
/// survives several plans back to back (state, spares and the oracle carry
/// over between plans), so recovery debris from one lifetime cannot poison
/// the next.
#[test]
fn one_cluster_survives_consecutive_plans() {
    let mut cc = soak_cluster();
    for round in 0..3u64 {
        let plan = FaultPlan::generate(seed_from_name("radd-soak-steady") ^ round, &soak_shape());
        run_plan(&mut cc, &plan)
            .unwrap_or_else(|failure| failure.panic_with_dump(&format!("soak round {round}")));
    }
    cc.check_invariants().unwrap();
}
