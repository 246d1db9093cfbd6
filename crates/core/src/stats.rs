//! Per-operation receipts and per-category traffic accounting.

use radd_layout::SiteId;
use radd_net::NetStats;
use radd_sim::{OpCounts, SimDuration};
use serde::{Deserialize, Serialize};

/// Who is performing an operation, for local-vs-remote cost attribution.
///
/// The paper's Figure 3 mixes perspectives: a no-failure read costs `R`
/// because the owning site reads its own disk, while a site-failure read
/// costs `G·RR` because some *other* machine does all the work remotely.
/// Making the actor explicit lets the same protocol code reproduce both
/// rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Actor {
    /// An external client (every site access is remote).
    Client,
    /// A specific site (accesses to its own disks are local).
    Site(SiteId),
}

impl Actor {
    /// Is an access to `site`'s disks local for this actor?
    pub fn is_local_to(self, site: SiteId) -> bool {
        matches!(self, Actor::Site(s) if s == site)
    }
}

/// What one client operation cost: the Figure 3 currency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpReceipt {
    /// Local/remote read/write counts on the operation's critical path.
    pub counts: OpCounts,
    /// The counts priced with the cluster's [`CostParams`] — a Figure 4
    /// entry.
    ///
    /// [`CostParams`]: radd_sim::CostParams
    pub latency: SimDuration,
}

/// Network traffic split by protocol purpose, for the §7.4 bandwidth
/// analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficStats {
    /// Step W3 parity-update messages (change masks + UIDs).
    pub parity_updates: NetStats,
    /// Step W1' redirected writes and spare installs (full block contents).
    pub spare_writes: NetStats,
    /// Remote block reads during reconstruction and spare reads.
    pub remote_reads: NetStats,
    /// Background recovery traffic (spare drain + rebuild).
    pub recovery: NetStats,
    /// Control messages (spare-validity probes, invalidations) — no block
    /// payloads, so the paper's cost model does not count them as I/O.
    pub control: NetStats,
}

impl TrafficStats {
    /// Total payload bytes across every category — the "aggregate network
    /// bandwidth" side of §7.4's ratio.
    pub fn total_bytes(&self) -> u64 {
        self.parity_updates.bytes_sent
            + self.spare_writes.bytes_sent
            + self.remote_reads.bytes_sent
            + self.recovery.bytes_sent
            + self.control.bytes_sent
    }

    /// Total messages across every category.
    pub fn total_messages(&self) -> u64 {
        self.parity_updates.messages_sent
            + self.spare_writes.messages_sent
            + self.remote_reads.messages_sent
            + self.recovery.messages_sent
            + self.control.messages_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_locality() {
        assert!(Actor::Site(3).is_local_to(3));
        assert!(!Actor::Site(3).is_local_to(4));
        assert!(!Actor::Client.is_local_to(0));
    }

    #[test]
    fn traffic_totals() {
        let mut t = TrafficStats::default();
        t.parity_updates.record_send(100);
        t.spare_writes.record_send(4096);
        t.control.record_send(16);
        assert_eq!(t.total_bytes(), 4212);
        assert_eq!(t.total_messages(), 3);
    }
}
