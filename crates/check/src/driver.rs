//! Replay a checker counterexample through the fault-plan machinery.
//!
//! [`ModelDriver`] implements [`FaultDriver`] over a fresh [`Model`] with
//! the checker's own [`Action`] as its event type, so a
//! [`Counterexample`](crate::explore::Counterexample)'s plan — the very
//! actions the explorer took — can be re-verified with `run_plan` and
//! shrunk with `minimize_failure`, the same minimize/replay loop every
//! other runtime in this workspace uses, with no translation either way.
//!
//! Index-granular actions (`deliver message #3`) address *the vector at
//! the moment of delivery*, so deleting an earlier action can shift what
//! an index means. That is fine for greedy minimization: every candidate
//! plan is re-executed from scratch and kept only if it still fails, so a
//! shifted index either reproduces a genuine violation (accepted) or does
//! not (rejected). Actions that are not currently enabled are skipped as
//! no-ops for the same reason.

use crate::model::{Action, Model, ModelConfig};
use radd_obs::ObsSnapshot;
use radd_workload::faults::FaultDriver;

/// [`FaultDriver`] over the checker's model (replay/minimize mode: the
/// per-site observability taps are on).
pub struct ModelDriver {
    model: Model,
}

impl ModelDriver {
    /// A fresh driver over the initial state of `cfg`.
    pub fn new(cfg: &ModelConfig) -> ModelDriver {
        let mut model = Model::new(cfg);
        model.enable_obs();
        ModelDriver { model }
    }

    /// The underlying model state.
    pub fn model(&self) -> &Model {
        &self.model
    }
}

impl FaultDriver for ModelDriver {
    type Event = Action;

    fn apply(&mut self, &action: &Action) -> Result<(), String> {
        // A minimization candidate may address a shifted or vanished
        // envelope; skipping keeps the run well-defined (see module docs).
        if !self.model.enabled_actions().contains(&action) {
            return Ok(());
        }
        self.model.apply(action);
        match self.model.violation() {
            Some(v) => Err(v.to_string()),
            None => Ok(()),
        }
    }

    fn verify(&mut self) -> Result<bool, String> {
        match self.model.violation() {
            Some(v) => Err(v.to_string()),
            // Structural checks run inside every apply and the full sweep
            // runs at each quiescent state, so a clean model is a real
            // verdict, not a skip.
            None => Ok(true),
        }
    }

    fn quiesce(&mut self) -> Result<(), String> {
        // Deterministic schedule: always deliver the lowest-indexed
        // deliverable envelope. Bounded to rule out a livelock in the
        // model itself.
        for _ in 0..100_000 {
            if let Some(v) = self.model.violation() {
                return Err(v.to_string());
            }
            match self.model.first_deliverable() {
                Some(i) => self.model.apply(Action::Deliver { index: i }),
                None => return Ok(()),
            }
        }
        Err("model did not quiesce within 100000 deliveries".to_string())
    }

    fn obs_snapshot(&mut self) -> Option<ObsSnapshot> {
        self.model.obs_snapshot()
    }
}
