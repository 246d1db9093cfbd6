//! Unique identifiers for concurrency control (§3.2–3.3).
//!
//! Each site owns "a source of unique identifiers (UIDs) … globally unique
//! and never repeating". Every data and spare block stores one UID; every
//! parity block stores an **array** of `G + 2` UIDs, one slot per site,
//! updated with each parity message (step W4). During reconstruction, the
//! reader compares the UID returned with each data block against the
//! corresponding slot of the parity block's array — a mismatch means a
//! parity update is still in flight and the read must be retried (§3.3).
//!
//! A zero UID marks an **invalid** block (the paper's valid/invalid spare
//! and local block states), so `Uid` is represented as `Option<NonZeroU64>`
//! shaped into a small copy type.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A globally unique identifier. `Uid::INVALID` (zero) marks an invalid
/// block, exactly as in the paper ("valid — non-zero UID, invalid — zero
/// UID").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Uid(u64);

impl Uid {
    /// The zero UID: block contents are not valid.
    pub const INVALID: Uid = Uid(0);

    /// Construct from a raw value (zero yields [`Uid::INVALID`]).
    pub const fn from_raw(v: u64) -> Uid {
        Uid(v)
    }

    /// Raw value.
    pub const fn as_raw(self) -> u64 {
        self.0
    }

    /// True for any non-zero UID.
    pub const fn is_valid(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "uid:{:#x}", self.0)
        } else {
            write!(f, "uid:invalid")
        }
    }
}

/// Per-site UID generator. Global uniqueness comes from embedding the site
/// id in the top 16 bits and a monotone counter in the low 48 — two sites
/// can never mint the same UID, and one site never repeats (the counter
/// would take ~10^14 operations to wrap).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UidGen {
    site: u16,
    counter: u64,
}

impl UidGen {
    /// A generator for the given site.
    pub fn new(site: u16) -> UidGen {
        UidGen { site, counter: 0 }
    }

    /// Mint the next UID (always valid/non-zero).
    pub fn next_uid(&mut self) -> Uid {
        self.counter += 1;
        assert!(self.counter < (1 << 48), "UID counter exhausted");
        Uid(((self.site as u64) << 48) | self.counter)
    }

    /// A generator resuming from a persisted counter. Restarting a site
    /// from durable state must never re-mint a UID it already handed out
    /// (§3.2's idempotence guard keys on UID equality), so crash recovery
    /// restores the counter instead of starting at zero.
    pub fn restore(site: u16, counter: u64) -> UidGen {
        assert!(counter < (1 << 48), "UID counter exhausted");
        UidGen { site, counter }
    }

    /// The site this generator mints for.
    pub fn site(&self) -> u16 {
        self.site
    }

    /// The current counter value, for durable snapshots.
    pub fn counter(&self) -> u64 {
        self.counter
    }
}

/// The UID array attached to a parity block: one slot per site of the group
/// (§3.2 — "for each parity block the local system must allocate space for
/// an array of G + 2 UIDs").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UidArray {
    slots: Vec<Uid>,
}

impl UidArray {
    /// An array of `num_sites` invalid slots.
    pub fn new(num_sites: usize) -> UidArray {
        UidArray {
            slots: vec![Uid::INVALID; num_sites],
        }
    }

    /// An array holding `slots`, one per site.
    pub fn from_slots(slots: Vec<Uid>) -> UidArray {
        UidArray { slots }
    }

    /// Number of slots (`G + 2`).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if there are no slots (never the case for a real parity block).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The UID most recently recorded for `site` (step W4 stores "the
    /// received UID in the Jth position").
    pub fn get(&self, site: usize) -> Uid {
        self.slots[site]
    }

    /// Record `uid` for `site`.
    pub fn set(&mut self, site: usize, uid: Uid) {
        self.slots[site] = uid;
    }

    /// §3.3 validation: every surviving data block's UID must equal the
    /// corresponding slot here, otherwise some parity update has not yet
    /// been applied and reconstruction would yield garbage.
    pub fn matches(&self, site: usize, uid: Uid) -> bool {
        self.slots[site] == uid
    }

    /// All slots, for snapshotting into messages.
    pub fn slots(&self) -> &[Uid] {
        &self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn invalid_is_zero() {
        assert!(!Uid::INVALID.is_valid());
        assert_eq!(Uid::INVALID.as_raw(), 0);
        assert!(Uid::from_raw(1).is_valid());
    }

    #[test]
    fn generator_never_repeats() {
        let mut g = UidGen::new(3);
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(g.next_uid()));
        }
    }

    #[test]
    fn generators_at_different_sites_disjoint() {
        let mut a = UidGen::new(0);
        let mut b = UidGen::new(1);
        let ua: HashSet<Uid> = (0..1000).map(|_| a.next_uid()).collect();
        let ub: HashSet<Uid> = (0..1000).map(|_| b.next_uid()).collect();
        assert!(ua.is_disjoint(&ub));
    }

    #[test]
    fn minted_uids_are_always_valid() {
        let mut g = UidGen::new(u16::MAX);
        for _ in 0..100 {
            assert!(g.next_uid().is_valid());
        }
    }

    #[test]
    fn uid_array_set_get() {
        let mut a = UidArray::new(10);
        assert_eq!(a.len(), 10);
        assert_eq!(a.get(4), Uid::INVALID);
        let u = Uid::from_raw(77);
        a.set(4, u);
        assert_eq!(a.get(4), u);
        assert!(a.matches(4, u));
        assert!(!a.matches(4, Uid::from_raw(78)));
        assert!(a.matches(5, Uid::INVALID));
    }

    #[test]
    fn display() {
        assert_eq!(Uid::INVALID.to_string(), "uid:invalid");
        assert_eq!(Uid::from_raw(0x10).to_string(), "uid:0x10");
    }
}
