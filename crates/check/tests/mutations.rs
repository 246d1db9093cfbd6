//! Mutation-catch proofs: each seeded protocol mutant must be found by
//! the bounded exhaustive search, shrink to a replayable counterexample
//! of at most 12 events, and still fail when that minimized plan is
//! re-run from scratch through the `FaultDriver` bridge — with the
//! observability snapshot of the dying cluster attached.
//!
//! An uncaught mutant is a hole in the invariant catalogue, so each of
//! these tests failing is a CI-stopping event. The process-global mutant
//! switch means every test here serialises on
//! [`radd_protocol::mutations::test_lock`].
#![cfg(feature = "mutations")]

use radd_check::configs;
use radd_check::driver::ModelDriver;
use radd_check::explore::{explore, CheckConfig};
use radd_protocol::mutations::{self, Mutation};
use radd_workload::faults::{minimize_failure, run_plan};

/// Arm `mutation`, prove the exhaustive search catches it in `world`,
/// and that greedy minimization yields a short plan that still kills a
/// fresh model.
fn prove_caught(mutation: Mutation, world: &CheckConfig, what: &str) {
    let _guard = mutations::test_lock();
    mutations::arm(Some(mutation));

    let report = explore(world);
    let cx = report
        .violation
        .unwrap_or_else(|| panic!("{what}: mutant survived {} states", report.states));

    let minimized = minimize_failure(|| ModelDriver::new(&world.model), &cx.plan);
    assert!(
        minimized.events.len() <= 12,
        "{what}: minimized counterexample has {} events (> 12):\n{}",
        minimized.events.len(),
        minimized
            .events
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );

    let failure = run_plan(&mut ModelDriver::new(&world.model), &minimized)
        .expect_err("minimized plan no longer fails");
    assert!(
        failure.obs.is_some(),
        "{what}: failure report lost its observability snapshot"
    );

    mutations::arm(None);
}

#[test]
fn aba_double_apply_is_caught() {
    // Needs a retransmitted parity update surviving a reply-cache
    // eviction: only the §3.2 UID guard is left to stop the double
    // application, and this mutant removes it.
    prove_caught(
        Mutation::AbaDoubleApply,
        &configs::adversarial_world(),
        "AbaDoubleApply",
    );
}

#[test]
fn dropped_uid_bump_is_caught() {
    // The very first healthy write ships a stale UID in W3, so the §3.3
    // agreement sweep at quiescence sees the parity site's UID array
    // disagree with the data site's block.
    prove_caught(
        Mutation::DroppedUidBump,
        &configs::adversarial_world(),
        "DroppedUidBump",
    );
}

#[test]
fn spare_no_invalidate_is_caught() {
    // Fail the data site, write degraded (spare takes the block), recover
    // (drain takes the spare back — but the mutant leaves the slot), then
    // write again healthy: the stale spare now disagrees with its owner.
    prove_caught(
        Mutation::SpareNoInvalidate,
        &configs::adversarial_world(),
        "SpareNoInvalidate",
    );
}

#[test]
fn stale_mask_applied_is_caught() {
    // Client 0 writes the block, client 1 writes it whole, client 0 sends
    // its rewrite as a mask against its own first write: applied anyway,
    // the block ends as neither client wrote it.
    prove_caught(
        Mutation::StaleMaskApplied,
        &configs::mask_world(),
        "StaleMaskApplied",
    );
}
