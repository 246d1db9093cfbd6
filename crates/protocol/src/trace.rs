//! Normalised effect traces for cross-interpreter differential testing.
//!
//! [`trace`] is the observability projection ([`obs_event`]) with resends
//! dropped: what was sent where (and how many wire bytes it cost) and which
//! local blocks were touched, why. Timer arming, retransmissions, and
//! duplicate-reply replays are left out — they exist precisely because real
//! transports lose and reorder messages, so a lossy threaded run and a
//! lossless DES run still produce identical filtered traces. What is left is
//! always an [`ObsEvent`] whose `retransmit` and `replay` are `false`.

use crate::effect::Effect;
use crate::obs::{obs_event, ObsEvent};

/// Project an effect onto the normalised trace, or `None` for effects that
/// legitimately differ between transports (timers, retransmits, replays).
pub fn trace(effect: &Effect) -> Option<ObsEvent> {
    obs_event(effect).filter(
        |event| !matches!(event, ObsEvent::Send { retransmit, replay, .. } if *retransmit || *replay),
    )
}
