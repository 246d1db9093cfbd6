//! Invariant-checked cluster driving, the substrate of the fault-plan
//! engine (see `radd-workload`'s `faults` module).
//!
//! [`CheckedCluster`] wraps a [`RaddCluster`] together with an **oracle**:
//! a plain map remembering the last payload successfully written to every
//! logical block. After any sequence of failures, recoveries and
//! partitions, [`CheckedCluster::check_invariants`] validates that
//!
//! 1. the stripe invariant holds on every materialisable row
//!    ([`RaddCluster::verify_parity`]),
//! 2. the parity sites' UID arrays agree with the UIDs actually stored at
//!    the data sites (or their spare stand-ins) — the §3.3 bookkeeping,
//! 3. every valid spare slot is structurally sound (right site for the
//!    row, standing in for a *different*, existing site, allowed by the
//!    spare policy),
//! 4. every block the oracle knows reads back with exactly the oracle's
//!    content through [`RaddCluster::logical_content`] — protocol
//!    *refusals* (blocked partition, multiple failure, unavailability)
//!    are acceptable, silently wrong content never is.
//!
//! Checks 1 and 2 need no parity update in flight, which the DES's
//! synchronous cascade guarantees between operations.

use crate::cluster::RaddCluster;
use crate::config::RaddConfig;
use crate::error::RaddError;
use crate::stats::Actor;
use radd_layout::{DataIndex, SiteId};
use radd_protocol::SiteState;
use radd_protocol::{check_spare_structure, check_uid_agreement, SiteMachine};
use std::collections::BTreeMap;

/// Why a checked operation failed: an ordinary protocol outcome, or an
/// actual consistency violation the fault harness must report (with the
/// seed and event prefix needed to replay it).
#[derive(Debug)]
pub enum CheckError {
    /// The protocol itself refused or failed the operation — possibly
    /// legitimately (blocked partition, overlapping failures).
    Protocol(RaddError),
    /// The cluster answered with provably wrong state.
    Violation(String),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Protocol(e) => write!(f, "protocol: {e}"),
            CheckError::Violation(v) => write!(f, "violation: {v}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// A [`RaddCluster`] paired with a content oracle and invariant checks.
#[derive(Debug)]
pub struct CheckedCluster {
    cluster: RaddCluster,
    /// Last successfully written payload per logical `(site, index)`.
    oracle: BTreeMap<(SiteId, DataIndex), Vec<u8>>,
    checks: u64,
}

impl CheckedCluster {
    /// Wrap a fresh cluster built from `config`. Observability is on from
    /// the start: when a fault plan later trips an invariant, the failure
    /// report carries each machine's flight-recorder tail and metrics.
    pub fn new(config: RaddConfig) -> Result<CheckedCluster, RaddError> {
        let mut cluster = RaddCluster::new(config)?;
        cluster.record_obs(true);
        Ok(CheckedCluster {
            cluster,
            oracle: BTreeMap::new(),
            checks: 0,
        })
    }

    /// The wrapped cluster (for failure injection and inspection).
    pub fn cluster(&self) -> &RaddCluster {
        &self.cluster
    }

    /// Mutable access to the wrapped cluster. Writes performed directly on
    /// it bypass the oracle — use [`CheckedCluster::write`] for checked
    /// traffic, and this for failure injection, recovery, partitions.
    pub fn cluster_mut(&mut self) -> &mut RaddCluster {
        &mut self.cluster
    }

    /// How many times [`check_invariants`](CheckedCluster::check_invariants)
    /// has run.
    pub fn checks_performed(&self) -> u64 {
        self.checks
    }

    /// Number of blocks the oracle currently tracks.
    pub fn oracle_len(&self) -> usize {
        self.oracle.len()
    }

    /// A checked client write: on success the oracle remembers `data` as
    /// the block's current content. Protocol refusals pass through as
    /// errors without touching the oracle (the write did not happen).
    pub fn write(&mut self, site: SiteId, index: DataIndex, data: &[u8]) -> Result<(), RaddError> {
        self.cluster.write(Actor::Client, site, index, data)?;
        self.oracle.insert((site, index), data.to_vec());
        Ok(())
    }

    /// A checked client read: the result must match the oracle when the
    /// oracle knows the block. Returns the content on success; a content
    /// mismatch is a [`CheckError::Violation`].
    pub fn read(&mut self, site: SiteId, index: DataIndex) -> Result<Vec<u8>, CheckError> {
        let (data, _receipt) = self
            .cluster
            .read(Actor::Client, site, index)
            .map_err(CheckError::Protocol)?;
        if let Some(expect) = self.oracle.get(&(site, index)) {
            if data[..] != expect[..] {
                return Err(CheckError::Violation(format!(
                    "read of site {site} index {index} returned content that \
                     differs from the last acknowledged write"
                )));
            }
        }
        Ok(data.to_vec())
    }

    /// Validate every cluster invariant; returns a description of the
    /// first violation. See the module docs for what is checked. §3.3
    /// agreement and spare structure are `radd_protocol::check`'s
    /// predicates, the ones the model checker sweeps with; what this driver
    /// adds is which rows an unrepaired failure makes untrustworthy, and the
    /// spare policy.
    pub fn check_invariants(&mut self) -> Result<(), String> {
        self.checks += 1;
        self.cluster.verify_parity()?;
        let num_sites = self.cluster.config().num_sites();
        let machines: Vec<&SiteMachine> = (0..num_sites).map(|s| self.cluster.machine(s)).collect();
        check_uid_agreement(&machines, |s, row| !self.site_row_untrusted(s, row))?;
        check_spare_structure(&machines)?;
        self.check_spare_policy(&machines)?;
        self.check_oracle()
    }

    /// Is `site`'s local copy of `row` unreadable or known-stale (failed
    /// disk, blank replacement, down/recovering/partitioned-off site)?
    /// Checked through [`RaddCluster::effective_state`] so an isolated
    /// site — whose raw state is still `Up` — is not trusted either: its
    /// parity updates are being absorbed by spare stand-ins (§5).
    fn site_row_untrusted(&self, site: SiteId, row: u64) -> bool {
        self.cluster.effective_state(site) != SiteState::Up || !self.cluster.local_row_ok(site, row)
    }

    /// A valid spare slot may only exist where the spare policy allocates
    /// one (the policy is cluster configuration, not machine state).
    fn check_spare_policy(&self, machines: &[&SiteMachine]) -> Result<(), String> {
        let policy = self.cluster.config().spare_policy;
        for machine in machines {
            if let Some(&row) = machine.spares().keys().find(|&&r| !policy.has_spare(r)) {
                return Err(format!(
                    "row {row} has a valid spare slot but the spare policy \
                     allocates none there"
                ));
            }
        }
        Ok(())
    }

    /// Oracle-backed content equality: every block we ever acknowledged a
    /// write for must read back identical through the logical-content
    /// oracle. A protocol *refusal* is an acceptable skip (the data is
    /// temporarily unreachable, not wrong); any successful materialisation
    /// must match bit for bit.
    fn check_oracle(&mut self) -> Result<(), String> {
        let entries: Vec<(SiteId, DataIndex)> = self.oracle.keys().copied().collect();
        for (site, index) in entries {
            match self.cluster.logical_content(site, index) {
                Ok(content) => {
                    let expect = &self.oracle[&(site, index)];
                    if content[..] != expect[..] {
                        return Err(format!(
                            "site {site} index {index}: logical content diverged \
                             from the last acknowledged write"
                        ));
                    }
                }
                // unreachable right now, not wrong
                Err(e) if e.is_refusal() || matches!(e, RaddError::Device(_)) => {}
                Err(e) => {
                    return Err(format!(
                        "site {site} index {index}: oracle check hit an \
                         unexpected error: {e}"
                    ))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RaddConfig;

    fn checked() -> CheckedCluster {
        CheckedCluster::new(RaddConfig::small_g4()).unwrap()
    }

    #[test]
    fn fresh_cluster_passes_all_invariants() {
        let mut c = checked();
        c.check_invariants().unwrap();
        assert_eq!(c.checks_performed(), 1);
    }

    #[test]
    fn writes_feed_the_oracle_and_still_pass() {
        let mut c = checked();
        let bs = c.cluster().config().block_size;
        for site in 0..3 {
            c.write(site, 0, &vec![site as u8 + 1; bs]).unwrap();
        }
        assert_eq!(c.oracle_len(), 3);
        c.check_invariants().unwrap();
        assert_eq!(c.read(1, 0).unwrap(), vec![2u8; bs]);
    }

    #[test]
    fn invariants_hold_through_failure_and_recovery() {
        let mut c = checked();
        let bs = c.cluster().config().block_size;
        c.write(2, 1, &vec![9; bs]).unwrap();
        c.cluster_mut().fail_site(2);
        c.check_invariants().unwrap(); // degraded but consistent
        c.cluster_mut().restore_site(2);
        c.cluster_mut().run_recovery(2).unwrap();
        c.check_invariants().unwrap();
    }

    #[test]
    fn corrupted_parity_is_caught() {
        let mut c = checked();
        let bs = c.cluster().config().block_size;
        c.write(0, 0, &vec![5; bs]).unwrap();
        // Flip a byte of the written row's parity block behind the
        // protocol's back.
        let row = c.cluster().geometry().data_to_physical(0, 0);
        let parity_site = c.cluster().geometry().parity_site(row);
        let mut block = c.cluster_mut().raw_block(parity_site, row).to_vec();
        block[0] ^= 0xFF;
        c.cluster_mut().corrupt_block(parity_site, row, &block);
        let err = c.check_invariants().unwrap_err();
        assert!(err.contains("parity mismatch"), "got: {err}");
    }

    #[test]
    fn corrupted_data_is_caught_by_the_oracle() {
        let mut c = checked();
        let bs = c.cluster().config().block_size;
        c.write(1, 0, &vec![7; bs]).unwrap();
        let row = c.cluster().geometry().data_to_physical(1, 0);
        c.cluster_mut().corrupt_block(1, row, &vec![8; bs]);
        let err = c.check_invariants().unwrap_err();
        // Either the parity check or the oracle fires first; both name the
        // divergence.
        assert!(
            err.contains("parity mismatch") || err.contains("diverged"),
            "got: {err}"
        );
    }
}
