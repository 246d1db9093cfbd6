//! Generate a deterministic fault plan from a seed and run it against the
//! invariant-checked DES cluster:
//!
//! ```text
//! cargo run --example fault_plan                  # default seed name
//! cargo run --example fault_plan -- 0xdeadbeef    # numeric seed
//! cargo run --example fault_plan -- nightly-17    # named seed (FNV-1a)
//! ```
//!
//! On a violation the failure report (seed + event log + replay line) is
//! printed, followed by the greedily minimized event subsequence.

use radd::prelude::*;

fn des() -> CheckedCluster {
    CheckedCluster::new(RaddConfig::small_g4()).unwrap()
}

fn main() {
    let arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "radd-demo".into());
    let seed = parse_seed(&arg);
    let shape = PlanShape::default();
    let plan = FaultPlan::generate(seed, &shape);

    println!(
        "plan \"{arg}\" → seed {seed:#018x}, {} events:",
        plan.events.len()
    );
    for (i, event) in plan.events.iter().enumerate() {
        println!("  [{i}] {event}");
    }

    match run_plan(&mut des(), &plan) {
        Ok(report) => println!(
            "ok: {} events applied, {} invariant checks, all passed",
            report.applied, report.invariant_checks
        ),
        Err(failure) => {
            eprintln!("{failure}");
            let minimized = minimize_failure(des, &plan);
            eprintln!("minimized to {} events:", minimized.events.len());
            for event in &minimized.events {
                eprintln!("  {event}");
            }
            std::process::exit(1);
        }
    }
}
