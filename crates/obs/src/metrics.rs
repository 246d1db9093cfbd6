//! The per-machine metrics registry: dense counters plus log-bucketed
//! latency histograms. Everything here is fixed-size and allocation-free on
//! the record path; allocation happens only when a snapshot is taken.

use crate::snapshot::{
    BucketCount, HistogramSnapshot, MetricsSnapshot, NamedCount, StorageSnapshot,
};
use radd_protocol::obs::ObsEvent;
use radd_protocol::{IoPurpose, MsgKind, RebuildReport};
use std::time::Duration;

/// Number of histogram buckets: one for zero plus one per bit width of a
/// `u64` value (bucket `b ≥ 1` holds values in `[2^(b-1), 2^b)`).
const HIST_BUCKETS: usize = 65;

/// A log2-bucketed latency histogram.
///
/// Recording is O(1) on a fixed array — no allocation, no branching beyond
/// a `leading_zeros`. Units are the caller's: the threaded runtime records
/// wall-clock nanoseconds, the DES records the logical cost units from its
/// Figure-3 ledger so deterministic runs stay deterministic.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Copy the non-empty buckets out into a serializable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(b, n)| BucketCount {
                hi: ((1u128 << b) - 1).min(u64::MAX as u128) as u64,
                n: *n,
            })
            .collect();
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            buckets,
        }
    }
}

/// Upper bounds, in microseconds, of the site-lock wait buckets; one more
/// bucket takes everything from the last bound up. Linear in the range
/// that matters: a wait is a share of one commit (100-250 us with its
/// `fdatasync`), where a log2 histogram of nanoseconds has two buckets.
const LOCK_WAIT_BOUNDS_US: [u64; 4] = [10, 40, 80, 160];
/// The buckets' names in a snapshot.
const LOCK_WAIT_NAMES: [&str; LOCK_WAIT_BOUNDS_US.len() + 1] =
    ["lt_10", "lt_40", "lt_80", "lt_160", "ge_160"];

/// Dense counters for one protocol machine (a client or a site).
///
/// Counter updates driven off the effect stream go through
/// [`MachineMetrics::on_event`]; runtime-side conditions the protocol
/// machines cannot see (send failures, stash evictions) have dedicated
/// increment methods.
#[derive(Debug, Clone, Default)]
pub struct MachineMetrics {
    reads: [u64; IoPurpose::COUNT],
    writes: [u64; IoPurpose::COUNT],
    sends: [u64; MsgKind::COUNT],
    send_bytes: u64,
    retransmits: u64,
    replays: u64,
    defer_acks: u64,
    send_failures: u64,
    stash_evictions: u64,
    commit_failures: u64,
    site_busy_arrivals: u64,
    site_lock_wait: [u64; LOCK_WAIT_BOUNDS_US.len() + 1],
    block_checks_reused: u64,
    block_checks_computed: u64,
    coalesced_merges: u64,
    write_paths: (u64, u64, u64),
    write_masks: (u64, u64),
    storage: Option<StorageSnapshot>,
    recovery_runs: u64,
    recovery_drained_rows: u64,
    recovery_pending_rows: u64,
    rebuild_runs: u64,
    rebuild_blocks: u64,
    rebuild_bytes_xored: u64,
    rebuild_fanout_peers: u64,
    read_latency: Histogram,
    write_latency: Histogram,
}

impl MachineMetrics {
    /// Update counters from one normalized protocol event.
    #[inline]
    pub fn on_event(&mut self, ev: &ObsEvent) {
        match ev {
            ObsEvent::Send {
                kind,
                wire,
                retransmit,
                replay,
                ..
            } => {
                self.sends[kind.index()] += 1;
                self.send_bytes += wire;
                if *retransmit {
                    self.retransmits += 1;
                }
                if *replay {
                    self.replays += 1;
                }
            }
            ObsEvent::Read { purpose, .. } => self.reads[purpose.index()] += 1,
            ObsEvent::Write { purpose, .. } => self.writes[purpose.index()] += 1,
            ObsEvent::DeferAck { .. } => self.defer_acks += 1,
        }
    }

    /// An endpoint send failed outright (closed channel, unknown site).
    pub fn send_failure(&mut self) {
        self.send_failures += 1;
    }

    /// A stashed out-of-band reply was evicted before it was consumed.
    pub fn stash_eviction(&mut self) {
        self.stash_evictions += 1;
    }

    /// The durable store failed a commit and the site went down.
    pub fn commit_failure(&mut self) {
        self.commit_failures += 1;
    }

    /// A message arrived while the site was handling another one: its
    /// reader thread found the site lock taken and waited `waited` for it.
    pub fn site_busy_arrival(&mut self, waited: Duration) {
        self.site_busy_arrivals += 1;
        let us = waited.as_micros() as u64;
        let bucket = LOCK_WAIT_BOUNDS_US.partition_point(|&bound| bound <= us);
        self.site_lock_wait[bucket] += 1;
    }

    /// A message went out with its block under the check the block
    /// arrived with: no pass over the block for its frame.
    pub fn block_check_reused(&mut self) {
        self.block_checks_reused += 1;
    }

    /// A message went out with a block whose check its frame computes.
    pub fn block_check_computed(&mut self) {
        self.block_checks_computed += 1;
    }

    /// A recovery finished, bringing back `rows` rows: counts the run and
    /// sets the progress gauge (nothing left pending).
    pub fn record_recovery(&mut self, rows: u64) {
        self.recovery_runs += 1;
        self.recovery_drained_rows = rows;
        self.recovery_pending_rows = 0;
    }

    /// A member rebuild pass finished: counts the run, accumulates the
    /// blocks reconstructed into spares and the bytes folded through the
    /// XOR kernel, and sets the gauge of surviving peers it read from.
    pub fn record_rebuild(&mut self, report: &RebuildReport) {
        self.rebuild_runs += 1;
        self.rebuild_blocks += report.blocks_rebuilt;
        self.rebuild_bytes_xored += report.bytes_xored;
        self.rebuild_fanout_peers = report.peer_reads.iter().filter(|&&n| n > 0).count() as u64;
    }

    /// Gauge: writes absorbed by parity-update coalescing, owned by the
    /// `SiteMachine` and mirrored here at snapshot time.
    pub fn set_coalesced_merges(&mut self, n: u64) {
        self.coalesced_merges = n;
    }

    /// Gauge: a client's writes sent as change masks, sent as blocks, and
    /// masks refused for a stale base, owned by the `ClientMachine` and
    /// mirrored here at snapshot time.
    pub fn set_write_paths(&mut self, (masks, blocks, stale): (u64, u64, u64)) {
        self.write_paths = (masks, blocks, stale);
    }

    /// Gauge: a site's `WriteMask`s applied and refused, owned by the
    /// `SiteMachine` and mirrored here at snapshot time.
    pub fn set_write_masks(&mut self, (applied, refused): (u64, u64)) {
        self.write_masks = (applied, refused);
    }

    /// Gauge: what the site's durable store has done, owned by the store
    /// and mirrored here at snapshot time.
    pub fn set_storage(&mut self, storage: StorageSnapshot) {
        self.storage = Some(storage);
    }

    /// Record one completed read operation's latency (units per runtime).
    pub fn record_read_latency(&mut self, v: u64) {
        self.read_latency.record(v);
    }

    /// Record one completed write operation's latency (units per runtime).
    pub fn record_write_latency(&mut self, v: u64) {
        self.write_latency.record(v);
    }

    /// Total retransmitted sends.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Total replayed (duplicate-reply) sends.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Sends of `kind`, whatever the retransmit/replay flags.
    pub fn sends_of(&self, kind: MsgKind) -> u64 {
        self.sends[kind.index()]
    }

    /// Local reads performed for `purpose`.
    pub fn reads_of(&self, purpose: IoPurpose) -> u64 {
        self.reads[purpose.index()]
    }

    /// Copy the counters into a serializable snapshot (zero rows elided).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let named = |names: &dyn Fn(usize) -> &'static str, vals: &[u64]| -> Vec<NamedCount> {
            vals.iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(i, n)| NamedCount {
                    name: names(i).to_string(),
                    n: *n,
                })
                .collect()
        };
        MetricsSnapshot {
            io_reads: named(&|i| IoPurpose::ALL[i].name(), &self.reads),
            io_writes: named(&|i| IoPurpose::ALL[i].name(), &self.writes),
            sends: named(&|i| MsgKind::ALL[i].name(), &self.sends),
            send_bytes: self.send_bytes,
            retransmits: self.retransmits,
            replays: self.replays,
            defer_acks: self.defer_acks,
            send_failures: self.send_failures,
            stash_evictions: self.stash_evictions,
            commit_failures: self.commit_failures,
            site_busy_arrivals: self.site_busy_arrivals,
            site_lock_wait_us: named(&|i| LOCK_WAIT_NAMES[i], &self.site_lock_wait),
            block_checks_reused: self.block_checks_reused,
            block_checks_computed: self.block_checks_computed,
            coalesced_merges: self.coalesced_merges,
            writes_as_masks: self.write_paths.0,
            writes_as_blocks: self.write_paths.1,
            stale_bases: self.write_paths.2,
            masks_applied: self.write_masks.0,
            masks_refused: self.write_masks.1,
            storage: self.storage,
            recovery_runs: self.recovery_runs,
            recovery_drained_rows: self.recovery_drained_rows,
            recovery_pending_rows: self.recovery_pending_rows,
            rebuild_runs: self.rebuild_runs,
            rebuild_blocks: self.rebuild_blocks,
            rebuild_bytes_xored: self.rebuild_bytes_xored,
            rebuild_fanout_peers: self.rebuild_fanout_peers,
            read_latency: self.read_latency.snapshot(),
            write_latency: self.write_latency.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radd_protocol::Dest;

    #[test]
    fn histogram_buckets_by_bit_width() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        let snap = h.snapshot();
        let total: u64 = snap.buckets.iter().map(|b| b.n).sum();
        assert_eq!(total, 8);
        // 0 lands in the zero bucket; 2 and 3 share [2,4); u64::MAX tops out.
        assert!(snap.buckets.iter().any(|b| b.hi == 0 && b.n == 1));
        assert!(snap.buckets.iter().any(|b| b.hi == 3 && b.n == 2));
        assert!(snap.buckets.iter().any(|b| b.hi == u64::MAX && b.n == 1));
    }

    #[test]
    fn lock_waits_land_in_their_microsecond_buckets() {
        let mut m = MachineMetrics::default();
        for us in [0, 9, 10, 39, 40, 159, 160, 5_000] {
            m.site_busy_arrival(Duration::from_micros(us));
        }
        let snap = m.snapshot();
        assert_eq!(snap.site_busy_arrivals, 8);
        let got: Vec<(&str, u64)> = snap
            .site_lock_wait_us
            .iter()
            .map(|r| (&r.name[..], r.n))
            .collect();
        assert_eq!(
            got,
            [
                ("lt_10", 2),
                ("lt_40", 2),
                ("lt_80", 1),
                ("lt_160", 1),
                ("ge_160", 2)
            ]
        );
    }

    #[test]
    fn event_counters_split_retransmits_from_first_sends() {
        let mut m = MachineMetrics::default();
        let send = |retransmit| ObsEvent::Send {
            to: Dest::Site(0),
            kind: MsgKind::ParityUpdate,
            tag: 1,
            wire: 40,
            retransmit,
            replay: false,
        };
        m.on_event(&send(false));
        m.on_event(&send(true));
        m.on_event(&ObsEvent::Read {
            row: 3,
            purpose: IoPurpose::Reconstruct,
        });
        assert_eq!(m.sends_of(MsgKind::ParityUpdate), 2);
        assert_eq!(m.retransmits(), 1);
        assert_eq!(m.reads_of(IoPurpose::Reconstruct), 1);
        let snap = m.snapshot();
        assert_eq!(snap.send_bytes, 80);
        assert!(snap.io_writes.is_empty(), "zero rows elided");
    }
}
