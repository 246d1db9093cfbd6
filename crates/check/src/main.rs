//! The `radd-check` binary: exhaust every standard world and report.
//!
//! Exit status is non-zero if any world fails to reach a visited-set
//! fixpoint within its depth bound or — worse — finds an invariant
//! violation, in which case the minimized counterexample is printed.
//!
//! With the `mutations` feature, `radd-check --mutants` instead arms each
//! seeded protocol mutant in turn and proves the checker catches it with
//! a minimized counterexample of at most 12 events (exit non-zero if any
//! mutant survives).

use radd_check::driver::ModelDriver;
use radd_check::{configs, explore};
use radd_workload::faults::minimize_failure;
use std::time::Instant;

#[cfg(feature = "mutations")]
fn mutant_hunt() {
    use radd_protocol::mutations::{arm, Mutation};
    let mut failed = false;
    for mutant in [
        Mutation::AbaDoubleApply,
        Mutation::DroppedUidBump,
        Mutation::SpareNoInvalidate,
    ] {
        let cfg = configs::adversarial_world();
        arm(Some(mutant));
        let t0 = Instant::now();
        let report = explore(&cfg);
        match report.violation {
            Some(cx) => {
                let minimized = minimize_failure(|| ModelDriver::new(&cfg.model), &cx.plan);
                arm(None);
                let ok = minimized.events.len() <= 12;
                failed |= !ok;
                println!(
                    "{mutant:?}: caught after {} states in {:.2?}, minimized to {} events{}",
                    report.states,
                    t0.elapsed(),
                    minimized.events.len(),
                    if ok {
                        ""
                    } else {
                        " — OVER THE 12-EVENT BUDGET"
                    },
                );
                for (i, ev) in minimized.events.iter().enumerate() {
                    println!("  {i:>3}. {ev}");
                }
            }
            None => {
                arm(None);
                failed = true;
                println!(
                    "{mutant:?}: SURVIVED {} states ({}) — invariant hole",
                    report.states,
                    if report.complete {
                        "fixpoint"
                    } else {
                        "depth bound"
                    },
                );
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    if std::env::args().any(|a| a == "--mutants") {
        #[cfg(feature = "mutations")]
        {
            mutant_hunt();
            return;
        }
        #[cfg(not(feature = "mutations"))]
        {
            eprintln!("--mutants requires building with --features mutations");
            std::process::exit(2);
        }
    }
    let mut failed = false;
    for (name, cfg) in configs::all() {
        let t0 = Instant::now();
        let report = explore(&cfg);
        let dt = t0.elapsed();
        match &report.violation {
            None => {
                println!(
                    "{name}: {} states, {} transitions, depth {} — {} in {:.2?}",
                    report.states,
                    report.transitions,
                    report.depth,
                    if report.complete {
                        "exhausted (fixpoint)"
                    } else {
                        "DEPTH BOUND HIT"
                    },
                    dt,
                );
                if !report.complete {
                    failed = true;
                }
            }
            Some(cx) => {
                failed = true;
                println!(
                    "{name}: VIOLATION after {} states in {:.2?}: {}",
                    report.states, dt, cx.error
                );
                let minimized = minimize_failure(|| ModelDriver::new(&cfg.model), &cx.plan);
                println!(
                    "minimized counterexample ({} events):",
                    minimized.events.len()
                );
                for (i, ev) in minimized.events.iter().enumerate() {
                    println!("  {i:>3}. {ev}");
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
