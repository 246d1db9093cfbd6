//! Mainline model-checker proofs: the standard worlds exhaust their
//! reachable state space (visited-set fixpoint) with zero invariant
//! violations, and sleep-set reduction changes the cost of the search but
//! never its verdict.
//!
//! `small_world` is exercised by the `radd-check` binary (CI's
//! model-check job) rather than here: its ~330k states are comfortable in
//! release but would dominate a debug `cargo test` run. The worlds below
//! cover the same machinery — partition gate, failure/recovery,
//! duplication, retransmission, eviction — at debug-friendly sizes.
//! `crash_world` (the durability proof) is exhausted, with its recorded
//! state count, by the root package's `tests/wall.rs`. Each world here
//! pins its recorded count too, so a change to the machines that adds or
//! removes a reachable state is a test diff, not a pass.

use radd_check::driver::ModelDriver;
use radd_check::{configs, explore, Action};
use radd_workload::faults::run_plan;

#[test]
fn partition_world_exhausts_clean() {
    let cfg = configs::partition_world();
    let report = explore(&cfg);
    assert!(
        report.violation.is_none(),
        "mainline violation: {:?}",
        report.violation.map(|cx| cx.error)
    );
    assert!(report.complete, "no fixpoint within depth {}", report.depth);
    assert_eq!(
        report.states, 13_995,
        "the recorded state count (EXPERIMENTS.md)"
    );
}

#[test]
fn adversarial_world_exhausts_clean() {
    let cfg = configs::adversarial_world();
    let report = explore(&cfg);
    assert!(
        report.violation.is_none(),
        "mainline violation: {:?}",
        report.violation.map(|cx| cx.error)
    );
    assert!(report.complete, "no fixpoint within depth {}", report.depth);
    assert_eq!(
        report.states, 60_706,
        "the recorded state count (EXPERIMENTS.md)"
    );
}

#[test]
fn rebuild_world_exhausts_clean() {
    let cfg = configs::rebuild_world();
    let report = explore(&cfg);
    assert!(
        report.violation.is_none(),
        "mainline violation: {:?}",
        report.violation.map(|cx| cx.error)
    );
    assert!(report.complete, "no fixpoint within depth {}", report.depth);
    assert_eq!(
        report.states, 16_213,
        "the recorded state count (EXPERIMENTS.md)"
    );
}

#[test]
fn mask_world_exhausts_clean() {
    let cfg = configs::mask_world();
    let report = explore(&cfg);
    assert!(
        report.violation.is_none(),
        "mainline violation: {:?}",
        report.violation.map(|cx| cx.error)
    );
    assert!(report.complete, "no fixpoint within depth {}", report.depth);
    assert_eq!(
        report.states, 16_868,
        "the recorded state count (EXPERIMENTS.md)"
    );
}

/// Sleep sets are a sound reduction: same verdict, same completeness,
/// never more transitions than the unreduced search.
#[test]
fn sleep_sets_preserve_verdict() {
    let mut with = configs::partition_world();
    with.sleep_sets = true;
    let mut without = configs::partition_world();
    without.sleep_sets = false;

    let r_with = explore(&with);
    let r_without = explore(&without);

    assert!(r_with.violation.is_none() && r_without.violation.is_none());
    assert_eq!(r_with.complete, r_without.complete);
    assert!(
        r_with.transitions <= r_without.transitions,
        "sleep sets explored more transitions ({} > {})",
        r_with.transitions,
        r_without.transitions
    );
}

/// The `FaultDriver` bridge replays a checker schedule faithfully: a
/// healthy scripted run (every message delivered in order, no faults)
/// quiesces and verifies clean through `run_plan`.
#[test]
fn driver_replays_healthy_schedule() {
    let cfg = configs::partition_world();
    let mut driver = ModelDriver::new(&cfg.model);
    let plan = radd_workload::faults::FaultPlan {
        seed: 0,
        events: vec![Action::Step { client: 0 }, Action::Step { client: 1 }],
    };
    let report = run_plan(&mut driver, &plan).expect("healthy schedule must pass");
    assert!(report.invariant_checks > 0);
    assert_eq!(report.event_log, ["[0] step client 0", "[1] step client 1"]);
}

/// A counterexample reads as it did when its steps were fault events:
/// each action prints what the plan log printed for the same step, so
/// `radd-check --mutants` and the CI logs keep their wording.
#[test]
fn actions_print_as_the_fault_plan_log_printed_them() {
    use radd_workload::faults::{FailureKind, FaultEvent};
    let site = 2;
    let same_as_events = [
        (
            Action::Fail { site },
            FaultEvent::Fail {
                site,
                kind: FailureKind::SiteFailure,
            },
        ),
        (Action::Recover { site }, FaultEvent::Recover { site }),
        (Action::Isolate { site }, FaultEvent::Isolate { site }),
        (Action::Heal { site }, FaultEvent::Heal { site }),
        (
            Action::CrashRestart { site },
            FaultEvent::KillRestart { site },
        ),
    ];
    for (action, event) in same_as_events {
        assert_eq!(action.to_string(), event.to_string());
    }
    let checker_only = [
        (Action::Step { client: 1 }, "step client 1"),
        (Action::Deliver { index: 3 }, "deliver message #3"),
        (Action::Drop { index: 0 }, "drop message #0"),
        (Action::Dup { index: 4 }, "duplicate message #4"),
        (
            Action::Fire { site, tag: 0x2a },
            "fire retransmit timer 0x2a at site 2",
        ),
        (Action::Evict { site }, "evict the reply cache of site 2"),
    ];
    for (action, text) in checker_only {
        assert_eq!(action.to_string(), text);
    }
}
