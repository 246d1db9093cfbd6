//! Bounded exhaustive exploration of a [`Model`]'s state graph.
//!
//! Depth-first search over every enabled [`Action`], with three
//! state-space weapons:
//!
//! * **Canonical-state pruning.** Each state is reduced to a 128-bit
//!   canonical digest ([`Model::canon_hash`]): tags and UIDs are renamed
//!   in first-seen order, so states reachable by different schedules but
//!   isomorphic up to generator history collide and are explored once.
//!   The visited map stores the *remaining depth* a state was expanded
//!   with, so a shallower revisit (more depth left) re-expands.
//! * **Sleep sets.** After exploring sibling action `a`, every branch
//!   explored later inherits `a` in its sleep set for as long as the next
//!   chosen action commutes with it — the classic DPOR-style pruning of
//!   redundant orderings of independent deliveries. Independence here is
//!   deliberately conservative: only two deliveries to *different sites*
//!   commute (each touches only its destination machine, its own timers,
//!   and appends to distinct FIFO pairs).
//! * **Iterative deepening.** The bound doubles from a small start up to
//!   `max_depth`; an iteration that finishes without ever hitting the
//!   bound has explored the *entire* reachable space — a fixpoint — and
//!   the run reports `complete`.
//!
//! A violation surfaces as a [`Counterexample`]: the action path itself, as
//! a [`FaultPlan`] of [`Action`]s, ready for `minimize_failure` and the
//! [`ModelDriver`](crate::driver::ModelDriver), which applies them as they
//! are.

use crate::model::{Action, ActionKey, Model, ModelConfig};
use radd_workload::faults::FaultPlan;
use std::collections::HashMap;

/// What to explore and how hard.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// The cluster shape, scripts and budgets.
    pub model: ModelConfig,
    /// Hard depth bound (actions per interleaving).
    pub max_depth: usize,
    /// Enable the sleep-set reduction (on for real runs; the equivalence
    /// test turns it off to cross-check).
    pub sleep_sets: bool,
}

/// A violating schedule, as a replayable plan.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The invariant that broke.
    pub error: String,
    /// The actions from the initial state to the violation.
    pub plan: FaultPlan<Action>,
}

/// Outcome of one [`explore`] run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Distinct canonical states visited in the final iteration.
    pub states: u64,
    /// Transitions applied across all iterations.
    pub transitions: u64,
    /// Depth bound of the final iteration.
    pub depth: usize,
    /// True when the final iteration finished without hitting the bound:
    /// the reachable state space was exhausted (visited-set fixpoint).
    pub complete: bool,
    /// The first violation found, if any (minimal-iteration schedule).
    pub violation: Option<Counterexample>,
}

struct Ctx<'a> {
    cfg: &'a CheckConfig,
    visited: HashMap<u128, usize>,
    transitions: u64,
    cutoff: bool,
    path: Vec<Action>,
    violation: Option<String>,
}

fn dfs(ctx: &mut Ctx<'_>, mut model: Model, remaining: usize, sleep: &[ActionKey]) -> bool {
    let h = model.canon_hash();
    match ctx.visited.get(&h) {
        Some(&seen) if seen >= remaining => return false,
        _ => {}
    }
    ctx.visited.insert(h, remaining);
    let actions = model.enabled_actions();
    if actions.is_empty() {
        return false;
    }
    if remaining == 0 {
        ctx.cutoff = true;
        return false;
    }
    let mut explored: Vec<ActionKey> = Vec::new();
    for a in actions {
        let key = model.action_key(a);
        if ctx.cfg.sleep_sets && sleep.contains(&key) {
            continue;
        }
        let mut child = model.clone();
        child.apply(a);
        ctx.transitions += 1;
        ctx.path.push(a);
        if let Some(v) = child.violation() {
            ctx.violation = Some(v.to_string());
            return true;
        }
        let child_sleep: Vec<ActionKey> = sleep
            .iter()
            .chain(explored.iter())
            .filter(|t| t.independent(key))
            .copied()
            .collect();
        if dfs(ctx, child, remaining - 1, &child_sleep) {
            return true;
        }
        ctx.path.pop();
        explored.push(key);
    }
    false
}

/// Explore `cfg` to a visited-set fixpoint (or the depth bound), reporting
/// the first invariant violation as a replayable counterexample.
pub fn explore(cfg: &CheckConfig) -> Report {
    let mut transitions = 0u64;
    let mut depth = 8.min(cfg.max_depth.max(1));
    loop {
        let mut ctx = Ctx {
            cfg,
            visited: HashMap::new(),
            transitions: 0,
            cutoff: false,
            path: Vec::new(),
            violation: None,
        };
        let found = dfs(&mut ctx, Model::new(&cfg.model), depth, &[]);
        transitions += ctx.transitions;
        if found {
            return Report {
                states: ctx.visited.len() as u64,
                transitions,
                depth,
                complete: false,
                violation: Some(Counterexample {
                    error: ctx.violation.unwrap_or_default(),
                    plan: FaultPlan {
                        seed: 0,
                        events: ctx.path,
                    },
                }),
            };
        }
        if !ctx.cutoff || depth >= cfg.max_depth {
            return Report {
                states: ctx.visited.len() as u64,
                transitions,
                depth,
                complete: !ctx.cutoff,
                violation: None,
            };
        }
        depth = (depth * 2).min(cfg.max_depth);
    }
}
