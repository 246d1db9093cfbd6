//! Model-checking hooks: canonical state hashing and pure invariant
//! predicates.
//!
//! The bounded explorer in `radd-check` walks millions of machine states
//! and needs two things from the protocol crate that only it can provide
//! (they read private machine state):
//!
//! * **Canonical hashing** — [`Canonicalizer`] plus the [`Checkable`] trait.
//!   Raw protocol identifiers are monotone counters (site tags are
//!   `((site+1) << 48) | n`, UIDs are `(namespace << 48) | n`), so two
//!   states that differ only in *when* during a run they were reached would
//!   never hash equal. The canonicalizer renames every tag and UID to its
//!   first-seen ordinal during a deterministic scan of the whole model
//!   state. Within one generator the raw values of live identifiers are
//!   ordered by creation, and that relative order is preserved by any
//!   run-to-run isomorphism, so first-seen renaming over a fixed scan order
//!   merges exactly the states that differ only by identifier age.
//!   Counters that influence *nothing observable* (generator positions,
//!   retransmission step counts, coalesce statistics) are excluded from the
//!   hash entirely.
//! * **Invariant predicates** — pure functions over machine references (and
//!   a block-read closure, since storage lives with the driver) asserting
//!   the paper's §3 guarantees: stripe parity is the XOR of the data blocks,
//!   the §3.3 UID arrays agree with the data sites' block UIDs, and spare
//!   stand-ins are structurally valid and fresh. The explorer calls these
//!   at every quiescent state, and the DES's `CheckedCluster` calls the
//!   UID-agreement and spare-structure predicates after every plan event
//!   (generic over `Borrow<SiteMachine>` because its machines sit inside
//!   site nodes).
//!
//! The hash is 128 bits assembled from two independently salted
//! `DefaultHasher`s (`SipHash` with fixed keys — deterministic across
//! processes), so visited-set collisions are negligible at bounded-model
//! scale.

use crate::durable::SpareSlot;
use crate::fasthash::FxHashMap;
use crate::server::SiteMachine;
use crate::wire::{Msg, SpareContent};
use radd_layout::Geometry;
use radd_parity::Uid;
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Renaming state hasher for one canonical scan of a model state.
///
/// Feed the entire state through one canonicalizer in a deterministic
/// order; [`finish`](Canonicalizer::finish) yields the 128-bit digest.
/// [`begin_sub`](Canonicalizer::begin_sub)/[`end_sub`](Canonicalizer::end_sub)
/// divert hashing into a scoped sub-digest (renaming tables stay shared) so
/// callers can combine unordered collections commutatively.
#[derive(Debug)]
pub struct Canonicalizer {
    // Lookup-only renaming tables on the model checker's hot path (hit
    // once per identifier per state hash): FxHashMap per the fasthash
    // contract — these are never iterated, so order cannot reach a
    // digest (R002, DESIGN.md §16).
    uids: FxHashMap<u64, u64>,
    tags: FxHashMap<u64, u64>,
    main: (DefaultHasher, DefaultHasher),
    sub: Option<(DefaultHasher, DefaultHasher)>,
}

fn salted_pair() -> (DefaultHasher, DefaultHasher) {
    let h1 = DefaultHasher::new();
    let mut h2 = DefaultHasher::new();
    // Distinct stream for the upper 64 bits.
    h2.write_u64(0x9E37_79B9_7F4A_7C15);
    (h1, h2)
}

fn finish_pair(pair: &(DefaultHasher, DefaultHasher)) -> u128 {
    (pair.0.finish() as u128) | ((pair.1.finish() as u128) << 64)
}

impl Canonicalizer {
    /// A fresh canonicalizer with empty renaming tables.
    pub fn new() -> Canonicalizer {
        Canonicalizer {
            uids: FxHashMap::default(),
            tags: FxHashMap::default(),
            main: salted_pair(),
            sub: None,
        }
    }

    fn write_u64(&mut self, v: u64) {
        let pair = self.sub.as_mut().unwrap_or(&mut self.main);
        pair.0.write_u64(v);
        pair.1.write_u64(v);
    }

    /// Hash a UID under first-seen renaming. [`Uid::INVALID`] keeps the
    /// stable name 0.
    pub fn uid(&mut self, uid: Uid) {
        let raw = uid.as_raw();
        let canon = if raw == Uid::INVALID.as_raw() {
            0
        } else {
            let next = self.uids.len() as u64 + 1;
            *self.uids.entry(raw).or_insert(next)
        };
        self.write_u64(canon);
    }

    /// Hash a request tag under first-seen renaming.
    pub fn tag(&mut self, tag: u64) {
        let next = self.tags.len() as u64 + 1;
        let canon = *self.tags.entry(tag).or_insert(next);
        self.write_u64(canon);
    }

    /// Hash a value verbatim (no renaming).
    pub fn raw<T: Hash + ?Sized>(&mut self, v: &T) {
        struct Fan<'a>(&'a mut Canonicalizer);
        impl Hasher for Fan<'_> {
            fn write(&mut self, bytes: &[u8]) {
                let pair = self.0.sub.as_mut().unwrap_or(&mut self.0.main);
                pair.0.write(bytes);
                pair.1.write(bytes);
            }
            fn finish(&self) -> u64 {
                unreachable!("Fan is write-only")
            }
        }
        v.hash(&mut Fan(self));
    }

    /// Divert subsequent hashing into a scoped sub-digest. Renaming tables
    /// stay shared with the main scan. Nesting is not supported.
    pub fn begin_sub(&mut self) {
        assert!(self.sub.is_none(), "sub-digests do not nest");
        self.sub = Some(salted_pair());
    }

    /// Finish the scoped sub-digest and return it. The caller combines
    /// sub-digests commutatively (e.g. wrapping addition) and feeds the
    /// result back through [`raw`](Canonicalizer::raw) to hash an unordered
    /// collection.
    pub fn end_sub(&mut self) -> u128 {
        let pair = self.sub.take().expect("end_sub without begin_sub");
        finish_pair(&pair)
    }

    /// The 128-bit canonical digest of everything hashed so far.
    pub fn finish(self) -> u128 {
        finish_pair(&self.main)
    }
}

impl Default for Canonicalizer {
    fn default() -> Canonicalizer {
        Canonicalizer::new()
    }
}

/// State that knows how to write itself into a [`Canonicalizer`].
///
/// Implementations must scan deterministically (sorted map keys, in-queue
/// order), rename every tag/UID through the canonicalizer, and skip fields
/// with no observable influence on future behaviour (generator counters,
/// retransmission step counts, statistics).
pub trait Checkable {
    /// Write this value's canonical encoding into `c`.
    fn canon(&self, c: &mut Canonicalizer);
}

pub(crate) fn canon_spare_content(content: &SpareContent, c: &mut Canonicalizer) {
    match content {
        SpareContent::Data { uid } => {
            c.raw(&0u8);
            c.uid(*uid);
        }
        SpareContent::Parity { uids } => {
            c.raw(&1u8);
            c.raw(&uids.len());
            for u in uids.slots() {
                c.uid(*u);
            }
        }
    }
}

impl Checkable for Msg {
    fn canon(&self, c: &mut Canonicalizer) {
        c.raw(&self.kind().index());
        match self {
            Msg::Read { index, tag } => {
                c.raw(index);
                c.tag(*tag);
            }
            Msg::Write { index, data, tag } => {
                c.raw(index);
                c.raw(&data[..]);
                c.tag(*tag);
            }
            Msg::WriteMask {
                index,
                base_tag,
                mask_wire,
                tag,
            } => {
                c.raw(index);
                c.tag(*base_tag);
                c.raw(&mask_wire[..]);
                c.tag(*tag);
            }
            Msg::ParityUpdate {
                row,
                mask_wire,
                uid,
                from_site,
                tag,
            } => {
                c.raw(row);
                c.raw(&mask_wire[..]);
                c.uid(*uid);
                c.raw(from_site);
                c.tag(*tag);
            }
            Msg::SpareProbe {
                row,
                want_data,
                tag,
            } => {
                c.raw(row);
                c.raw(want_data);
                c.tag(*tag);
            }
            Msg::SpareInstall {
                row,
                for_site,
                data,
                content,
                tag,
            } => {
                c.raw(row);
                c.raw(for_site);
                c.raw(&data[..]);
                canon_spare_content(content, c);
                c.tag(*tag);
            }
            Msg::BlockRead { row, tag } | Msg::SpareTake { row, tag } => {
                c.raw(row);
                c.tag(*tag);
            }
            Msg::SpareDrainList { for_site, tag } => {
                c.raw(for_site);
                c.tag(*tag);
            }
            Msg::RestoreBlock {
                row,
                data,
                content,
                tag,
            } => {
                c.raw(row);
                c.raw(&data[..]);
                canon_spare_content(content, c);
                c.tag(*tag);
            }
            Msg::ReadOk { tag, data } => {
                c.tag(*tag);
                c.raw(&data[..]);
            }
            Msg::WriteOk { tag } | Msg::Ack { tag } => c.tag(*tag),
            Msg::Nack { tag, reason } => {
                c.tag(*tag);
                c.raw(&(*reason as u8));
            }
            Msg::BlockData {
                tag,
                data,
                uid,
                parity_uids,
            } => {
                c.tag(*tag);
                c.raw(&data[..]);
                c.uid(*uid);
                match parity_uids {
                    None => c.raw(&0u8),
                    Some(uids) => {
                        c.raw(&1u8);
                        c.raw(&uids.len());
                        for u in uids {
                            c.uid(*u);
                        }
                    }
                }
            }
            Msg::SpareRows { tag, rows } => {
                c.tag(*tag);
                c.raw(&rows.len());
                for row in rows {
                    c.raw(row);
                }
            }
            Msg::SpareState { tag, slot } => {
                c.tag(*tag);
                match slot {
                    None => c.raw(&0u8),
                    Some(s) => {
                        c.raw(&1u8);
                        c.raw(&s.for_site);
                        c.raw(&s.data[..]);
                        canon_spare_content(&s.content, c);
                    }
                }
            }
        }
    }
}

// ---- invariant predicates ---------------------------------------------

/// §3.2/Formula (1): every row of `geo` has a parity block equal to the
/// XOR of the row's data blocks. `read(site, row)` returns the stored
/// block, or `None` if unreadable (which is itself a violation at a
/// quiescent, all-up state). The model checker reads its sites' disks; the
/// async client's sweep (`radd_node::client::Client::verify_parity`) reads
/// over the wire.
///
/// Only meaningful at quiesce — an in-flight parity update legitimately
/// leaves the stripe inconsistent between W1 and W4.
pub fn check_stripe_parity(
    geo: &Geometry,
    read: &mut dyn FnMut(usize, u64) -> Option<Vec<u8>>,
) -> Result<(), String> {
    for row in 0..geo.rows() {
        let parity_site = geo.parity_site(row);
        let Some(parity) = read(parity_site, row) else {
            return Err(format!("row {row}: parity block unreadable at quiesce"));
        };
        let mut acc = vec![0u8; parity.len()];
        for site in geo.data_sites(row) {
            let Some(block) = read(site, row) else {
                return Err(format!("row {row}: data block at site {site} unreadable"));
            };
            for (a, b) in acc.iter_mut().zip(block.iter()) {
                *a ^= *b;
            }
        }
        if acc != parity {
            return Err(format!(
                "row {row}: parity at site {parity_site} is not the XOR of the data blocks"
            ));
        }
    }
    Ok(())
}

/// §3.3: the parity site's UID array for each row agrees with every data
/// site's current block UID (or with the row's spare stand-in UID while a
/// spare covers that site).
///
/// A stand-in takes precedence over the block it covers, up site or not,
/// and on both sides of the comparison: while a data-kind slot for site `s`
/// exists the array must record the slot's UID, so a stale spare left
/// behind for an up site is a violation here and not only in
/// [`check_spare_freshness`]; and while a parity-kind slot stands in for
/// the row's parity site, the slot's array is the one judged, so a stand-in
/// built or fed with stale UIDs is caught even while its parity site is
/// down.
///
/// `trusted(site, row)` says whether `site`'s local copy of `row` is
/// readable and current. An untrusted parity site without a stand-in is
/// skipped, and an untrusted data site is judged by its stand-in alone (or
/// not at all without one): those UIDs are exactly what recovery will
/// rebuild. The model checker sweeps only all-up quiescent states and
/// passes `|_, _| true`; the DES driver, which sweeps mid-failure, passes
/// its failed-disk / down-site / invalid-row test.
pub fn check_uid_agreement<S: Borrow<SiteMachine>>(
    sites: &[S],
    trusted: impl Fn(usize, u64) -> bool,
) -> Result<(), String> {
    let geo = *sites[0].borrow().geometry();
    for row in 0..geo.rows() {
        let parity_site = geo.parity_site(row);
        let spare = sites[geo.spare_site(row)].borrow().spares().get(&row);
        let arr = match spare {
            Some(SpareSlot {
                for_site,
                content: SpareContent::Parity { uids },
            }) if *for_site == parity_site => Some(uids),
            _ if trusted(parity_site, row) => sites[parity_site].borrow().parity_uids().get(&row),
            _ => None,
        };
        let Some(arr) = arr else {
            continue; // no update ever applied: nothing recorded, nothing owed
        };
        for data_site in geo.data_sites(row) {
            let recorded = arr.get(data_site);
            let block = sites[data_site].borrow().block_uid(row);
            let stand_in = match spare {
                Some(slot) if slot.for_site == data_site => match &slot.content {
                    SpareContent::Data { uid } => Some(*uid),
                    SpareContent::Parity { .. } => {
                        return Err(format!(
                            "row {row}: spare stands in for data site {data_site} \
                             but carries a parity-kind slot"
                        ))
                    }
                },
                _ => None,
            };
            // The authoritative UID follows the content oracle's
            // precedence: the stand-in first, then the trusted local block.
            let current = stand_in.or_else(|| trusted(data_site, row).then_some(block));
            if current.is_some_and(|c| recorded != c) {
                return Err(format!(
                    "row {row}: §3.3 disagreement — parity site {parity_site} records \
                     {recorded:?} for site {data_site}, whose block UID is {block:?} \
                     (spare stand-in: {stand_in:?})"
                ));
            }
        }
    }
    Ok(())
}

/// Spare slots are structurally valid: held by the row's spare site, stand
/// in for a *different* in-range site. (Whether the row may have a spare at
/// all is the driver's question: the spare policy lives with the client.)
pub fn check_spare_structure<S: Borrow<SiteMachine>>(sites: &[S]) -> Result<(), String> {
    let geo = *sites[0].borrow().geometry();
    for (holder, site) in sites.iter().enumerate() {
        for (&row, slot) in site.borrow().spares() {
            if geo.spare_site(row) != holder {
                return Err(format!(
                    "site {holder} holds a spare for row {row}, whose spare site is {}",
                    geo.spare_site(row)
                ));
            }
            if slot.for_site == holder || slot.for_site >= geo.num_sites() {
                return Err(format!(
                    "row {row}: spare at site {holder} stands in for invalid site {}",
                    slot.for_site
                ));
            }
        }
    }
    Ok(())
}

/// Spare-valid ⟹ spare-matches-owner: at an all-up quiescent state any
/// surviving data stand-in must still byte-match (and UID-match) the block
/// it covers. A stale slot left behind by a broken drain serves old bytes
/// to the next degraded reader.
pub fn check_spare_freshness(
    sites: &[SiteMachine],
    read: &mut dyn FnMut(usize, u64) -> Option<Vec<u8>>,
) -> Result<(), String> {
    for (holder, site) in sites.iter().enumerate() {
        for (&row, slot) in site.spares() {
            let SpareContent::Data { uid: data_uid } = &slot.content else {
                continue; // parity stand-ins are checked via the UID arrays
            };
            let owner = slot.for_site;
            if sites[owner].block_uid(row) != *data_uid {
                return Err(format!(
                    "row {row}: spare at site {holder} is stale — slot UID {data_uid:?} \
                     but site {owner}'s block UID is {:?}",
                    sites[owner].block_uid(row)
                ));
            }
            if read(holder, row) != read(owner, row) {
                return Err(format!(
                    "row {row}: spare at site {holder} no longer byte-matches \
                     site {owner}'s block"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_merges_isomorphic_identifiers() {
        // Two "runs" that used different raw tags/uids in the same relative
        // order must hash identically.
        let digest = |tags: [u64; 3], uid: u64| {
            let mut c = Canonicalizer::new();
            for t in tags {
                c.tag(t);
            }
            c.uid(Uid::from_raw(uid));
            c.finish()
        };
        assert_eq!(digest([5, 9, 5], 100), digest([6, 11, 6], 205));
        // Re-references distinguish states: (a, b, a) is not (a, b, b).
        assert_ne!(digest([5, 9, 5], 100), digest([5, 9, 9], 100));
    }

    #[test]
    fn invalid_uid_keeps_a_stable_name() {
        let mut a = Canonicalizer::new();
        a.uid(Uid::INVALID);
        a.uid(Uid::from_raw(7));
        let mut b = Canonicalizer::new();
        b.uid(Uid::INVALID);
        b.uid(Uid::from_raw(123));
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn sub_digests_share_renaming_and_combine_commutatively() {
        let envelope = |c: &mut Canonicalizer, tag: u64| {
            c.begin_sub();
            c.tag(tag);
            c.end_sub()
        };
        let total = |order: [u64; 2]| {
            let mut c = Canonicalizer::new();
            // Names assigned by first sight in scan order…
            c.tag(3);
            c.tag(8);
            // …so envelopes referencing them are order-insensitive.
            let sum = envelope(&mut c, order[0]).wrapping_add(envelope(&mut c, order[1]));
            c.raw(&(sum as u64));
            c.raw(&((sum >> 64) as u64));
            c.finish()
        };
        assert_eq!(total([3, 8]), total([8, 3]));
    }
}
