//! # radd-obs — unified observability for the RADD runtimes
//!
//! One instrumentation layer, tapped off the sans-IO [`Effect`] stream that
//! both interpreters already produce, so the DES cluster (`radd-core`) and
//! the threaded runtime (`radd-node`) get identical metrics and flight
//! recording without duplicating a single tap.
//!
//! Three pieces:
//!
//! * **Metrics registry** ([`MachineMetrics`]) — dense per-machine counters
//!   keyed by [`radd_protocol::IoPurpose`] and [`radd_protocol::MsgKind`]
//!   (parity updates, retransmissions, degraded reads, spare traffic,
//!   reconstructions, coalesced merges), recovery-drain gauges, and
//!   log-bucketed latency [`Histogram`]s. Fixed-size arrays, no allocation
//!   on the record path.
//! * **Flight recorder** ([`FlightRecorder`]) — a fixed-size ring of recent
//!   normalized protocol events ([`ObsEvent`]) per machine. The fault
//!   engine snapshots the rings into its `PlanFailure` report, so a failing
//!   seed replays with the last-N events that led to the violation.
//! * **Snapshot export** ([`ObsSnapshot`]) — serializable, diffable
//!   snapshots with JSON (`to_json`) and text (`render_text`) renderings,
//!   consumed by the bench harness, CI artifacts, and
//!   `examples/obs_top.rs`.
//!
//! ### Determinism
//!
//! Observing a run never changes it: taps only read effects the
//! interpreters were already handling, and the DES records *logical*
//! Figure-3 cost units in its latency histograms instead of wall time, so
//! deterministic receipts stay byte-identical with observability enabled.
//! The threaded runtime records wall-clock nanoseconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod recorder;
pub mod snapshot;

pub use metrics::{Histogram, MachineMetrics};
pub use recorder::{FlightRecorder, DEFAULT_RING_CAP};
pub use snapshot::{
    BucketCount, FlightEvent, HistogramSnapshot, MachineSnapshot, MetricsSnapshot, NamedCount,
    ObsSnapshot, StorageSnapshot,
};

use radd_protocol::obs::{obs_event, ObsEvent};
use radd_protocol::Effect;

/// The observability state of one protocol machine: a metrics registry plus
/// a flight recorder, fed together from the effect stream.
#[derive(Debug, Clone, Default)]
pub struct MachineObs {
    metrics: MachineMetrics,
    recorder: FlightRecorder,
}

impl MachineObs {
    /// A machine observer with the [`DEFAULT_RING_CAP`] flight ring.
    pub fn new() -> MachineObs {
        MachineObs::default()
    }

    /// Tap one interpreter effect: update counters and the flight ring.
    #[inline]
    pub fn effect(&mut self, effect: &Effect) {
        if let Some(ev) = obs_event(effect) {
            self.event(ev);
        }
    }

    /// Record an already-normalized event (for runtime paths that send
    /// without going through a machine's effect buffer, e.g. client
    /// retransmissions driven by the IO layer).
    #[inline]
    pub fn event(&mut self, ev: ObsEvent) {
        self.metrics.on_event(&ev);
        self.recorder.record(ev);
    }

    /// The metrics registry, for counter updates the effect stream cannot
    /// see (send failures, stash evictions, recovery gauges, latency).
    pub fn metrics(&mut self) -> &mut MachineMetrics {
        &mut self.metrics
    }

    /// Freeze this machine's state under `name`.
    pub fn snapshot(&self, name: &str) -> MachineSnapshot {
        MachineSnapshot {
            name: name.to_string(),
            metrics: self.metrics.snapshot(),
            flight: self.recorder.snapshot(),
        }
    }
}

/// Observability for a whole single-client cluster: machine 0 is the
/// client, machine `1 + j` is site `j`. Both interpreters use this layout,
/// matching their trace-recording convention.
#[derive(Debug, Clone, Default)]
pub struct ClusterObs {
    machines: Vec<MachineObs>,
}

impl ClusterObs {
    /// Observers for one client plus `sites` sites, default ring capacity.
    pub fn new(sites: usize) -> ClusterObs {
        ClusterObs {
            machines: (0..sites + 1).map(|_| MachineObs::new()).collect(),
        }
    }

    /// The client's observer.
    pub fn client(&mut self) -> &mut MachineObs {
        &mut self.machines[0]
    }

    /// Site `j`'s observer.
    pub fn site(&mut self, j: usize) -> &mut MachineObs {
        &mut self.machines[1 + j]
    }

    /// Freeze every machine: `"client"`, then `"site 0"`, `"site 1"`, ….
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            machines: self
                .machines
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let name = if i == 0 {
                        "client".to_string()
                    } else {
                        format!("site {}", i - 1)
                    };
                    m.snapshot(&name)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radd_protocol::{Dest, IoPurpose, Msg};

    #[test]
    fn effects_feed_both_counters_and_the_ring() {
        let mut obs = MachineObs::new();
        obs.effect(&Effect::send(Dest::Site(1), Msg::Read { index: 0, tag: 4 }));
        obs.effect(&Effect::Read {
            row: 0,
            purpose: IoPurpose::Data,
        });
        obs.effect(&Effect::SetTimer { tag: 4, step: 0 }); // dropped
        let snap = obs.snapshot("client");
        assert_eq!(snap.metrics.sends_named("read"), 1);
        assert_eq!(snap.metrics.reads_named("data"), 1);
        assert_eq!(snap.flight.len(), 2, "timer never enters the ring");
    }

    #[test]
    fn cluster_layout_names_client_then_sites() {
        let mut obs = ClusterObs::new(2);
        obs.site(1).metrics().send_failure();
        let snap = obs.snapshot();
        let names: Vec<&str> = snap.machines.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["client", "site 0", "site 1"]);
        assert_eq!(snap.machine("site 1").unwrap().metrics.send_failures, 1);
    }
}
