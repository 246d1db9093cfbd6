//! Seeded protocol mutants for validating the model checker.
//!
//! Compiled only under the `mutations` feature, this module re-introduces
//! four known-bad protocol variants behind a process-global switch. Each is
//! a bug class that either actually occurred during development (the ABA
//! double-apply that PR 1's loss plans exposed) or is a canonical way to get
//! the paper's algorithms wrong. The `radd-check` crate's CI job arms each
//! mutant in turn and proves the bounded explorer catches it with a short
//! replayable counterexample; an uncaught mutant fails the build.
//!
//! The switch is a global atomic rather than per-machine state so that the
//! same armed mutant affects every `SiteMachine` in a process — including
//! ones constructed deep inside a driver the test never touches directly.
//! Tests that arm mutants must serialise on [`test_lock`] (Rust runs tests
//! in threads within one process).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The four seeded protocol bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Disable the §3.2 UID idempotence guard in the parity site's
    /// read-modify-write: a duplicated `ParityUpdate` re-applies its XOR
    /// mask, cancelling the first application and leaving the parity block
    /// stale (the ABA corruption the stop-and-wait layer exists to stop).
    AbaDoubleApply = 1,
    /// W3 ships the *pre-write* block UID in the parity update instead of
    /// the freshly minted W1 UID, so the parity site's §3.3 UID array stops
    /// agreeing with the data site's block UID — validated reconstruction
    /// of that block will wrongly refuse (or wrongly accept stale bytes).
    DroppedUidBump = 2,
    /// `SpareTake` acks without removing the spare slot, leaving a stale
    /// stand-in behind after the recovery drain; the next write to the
    /// covered block makes the spare serve old bytes to degraded readers.
    SpareNoInvalidate = 3,
    /// A data site applies a `WriteMask` whatever its base: a client whose
    /// image of the block is stale (another writer came between) has its
    /// mask applied to a block it was not taken against.
    StaleMaskApplied = 4,
}

/// 0 = no mutant armed; otherwise a [`Mutation`] discriminant.
static ARMED: AtomicU8 = AtomicU8::new(0);

/// Serialises tests that arm mutants (the switch is process-global).
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Arm `mutation` (or disarm everything with `None`). Affects every
/// protocol machine in the process from the next handled event on.
pub fn arm(mutation: Option<Mutation>) {
    ARMED.store(mutation.map_or(0, |m| m as u8), Ordering::SeqCst);
}

/// The currently armed mutant, if any.
pub fn armed() -> Option<Mutation> {
    match ARMED.load(Ordering::SeqCst) {
        1 => Some(Mutation::AbaDoubleApply),
        2 => Some(Mutation::DroppedUidBump),
        3 => Some(Mutation::SpareNoInvalidate),
        4 => Some(Mutation::StaleMaskApplied),
        _ => None,
    }
}

/// Is `mutation` the armed mutant? (The hot-path check the hooks use.)
#[inline]
pub fn is(mutation: Mutation) -> bool {
    ARMED.load(Ordering::Relaxed) == mutation as u8
}

/// Take the global test lock, disarming on acquisition so a previous
/// panicked holder cannot leak an armed mutant into this test.
pub fn test_lock() -> MutexGuard<'static, ()> {
    let guard = match TEST_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    arm(None);
    guard
}
