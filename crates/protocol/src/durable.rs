//! Durable site state: what a crashed site must find on disk to rejoin
//! without a §3.3 rebuild.
//!
//! A [`SiteMachine`](crate::SiteMachine) splits into durable and volatile
//! halves. Durable — the metadata whose loss is indistinguishable from a
//! site disaster: per-row block UIDs, parity UID arrays, spare slots, the
//! invalid-row set, and the two monotone generators (the UID counter backs
//! the §3.2 idempotence guard, so resetting it would let a re-minted UID
//! masquerade as an already-applied duplicate; the tag counter keys the
//! at-most-once reply cache). Volatile — the stop-and-wait queues,
//! in-flight retransmission state, deferred client replies, and the reply
//! cache itself: all of it is reconstructible from peer retransmissions,
//! and plans quiesce a site before killing it, so dropping these on
//! restart is safe. The §3.2 UID guard backstops the one case it is not
//! (a duplicate parity update arriving after the reply cache died with the
//! process).
//!
//! [`DurableSiteState`] is the durable half itself, the maps and generator
//! the machine works on: a snapshot is a clone, and there is no second
//! shape to convert to. The codec is a hand-rolled little-endian binary
//! format (the workspace's serde shim is serialize-only) with a
//! magic/version header and bounds-checked decoding, in the style of
//! [`crate::codec`]: torn, truncated or inconsistent snapshots (a row past
//! the geometry, a UID array that is not `G + 2` long) decode to an error,
//! never to garbage state.
//!
//! The machine keeps the durable half behind `Versioned`, the one door to
//! a `&mut` of it, and the door keeps two records. A version counter: a
//! driver can tell from `SiteMachine::durable_version` that a message
//! changed none of it without encoding a snapshot to compare. And a
//! journal of *what* was borrowed (`Touch`): a block UID, a parity row's
//! UID array and the two counters each sit at a known offset of the
//! encoding and keep its length, so `SiteMachine::drain_durable` turns a
//! drained journal into the XOR patch between the last encoding and the
//! current one by looking at the touched fields alone ([`DurableDelta`]).
//! Anything that can change the encoding's length or move a later field is
//! `Touch::Shape`, and so is a journal that outgrew `JOURNAL_CAP`
//! entries: the next drain encodes whole, which is also when the offsets
//! of the parity rows are indexed (`Layout`). A machine nobody drains
//! (DES, model checker, memory-backed sites) starts at `Shape` and stays
//! there: it carries a flag, never a list.

use crate::wire::SpareContent;
use radd_parity::{ChangeMask, Uid, UidArray, UidGen};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Magic prefix of an encoded snapshot: `"RDSS"` little-endian.
const MAGIC: u32 = 0x5353_4452;
/// Current snapshot format version.
const VERSION: u16 = 1;
/// Offset of the UID counter; the tag counter follows it.
pub(crate) const COUNTERS_AT: usize = 26;
/// Offset of row 0's block UID (after the counters and the UID count).
pub(crate) const BLOCK_UIDS_AT: usize = 50;

/// Errors decoding a durable snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The magic prefix did not match — not a snapshot.
    BadMagic,
    /// A snapshot from an unknown format version.
    BadVersion(u16),
    /// Structurally invalid contents (e.g. a row index past the geometry).
    Malformed(&'static str),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Truncated => write!(f, "durable snapshot truncated"),
            DurableError::BadMagic => write!(f, "durable snapshot magic mismatch"),
            DurableError::BadVersion(v) => write!(f, "durable snapshot version {v} unsupported"),
            DurableError::Malformed(why) => write!(f, "durable snapshot malformed: {why}"),
        }
    }
}

impl std::error::Error for DurableError {}

/// A valid spare slot: this site's spare block of some row currently stands
/// in for another site's block (the content lives in the storage row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpareSlot {
    /// Whose block this spare holds.
    pub for_site: usize,
    /// The UID (data stand-in) or UID array (parity stand-in) it holds.
    pub content: SpareContent,
}

/// The durable half of a [`SiteMachine`](crate::SiteMachine): the machine
/// holds one and works on it in place, so a snapshot is a clone and its
/// encoding is this value's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableSiteState {
    /// The site this state belongs to.
    pub site: usize,
    /// Group size `G` the geometry was built with.
    pub group_size: usize,
    /// Rows per site.
    pub rows: u64,
    /// Block size in bytes.
    pub block_size: usize,
    /// Per-row block UIDs (`rows` entries).
    pub block_uids: Vec<Uid>,
    /// The UID array of every row where this site holds one (`G + 2` slots
    /// each).
    pub parity_uids: BTreeMap<u64, UidArray>,
    /// Every valid spare slot, by row.
    pub spares: BTreeMap<u64, SpareSlot>,
    /// Rows whose local content is untrustworthy.
    pub invalid_rows: BTreeSet<u64>,
    /// The UID generator (its counter is what is encoded; the site id is
    /// `site`'s).
    pub uid_gen: UidGen,
    /// The request-tag counter.
    pub next_tag: u64,
}

/// What a mutable borrow of the durable half is for, in terms of the
/// encoding: the field it may change, or [`Touch::Shape`] when it may
/// change more than the bytes of one fixed-size field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Touch {
    /// The block UID of one row.
    BlockUid(u64),
    /// The slots of one row's parity UID array; the row already has one.
    ParityUids(u64),
    /// The UID and tag counters.
    Counters,
    /// Anything else: spares, the invalid-row set, a parity row's first
    /// array, wholesale forgetting and restoring.
    Shape,
}

/// Distinct fields the journal lists before it gives up and says
/// [`Touch::Shape`]. A message touches three at most (a write: both
/// counters' field and one block UID).
pub(crate) const JOURNAL_CAP: usize = 8;

/// A value behind one accessor pair that records its own mutations: shared
/// reads go through `Deref` and leave no trace, and the only way to a
/// `&mut T` is [`Versioned::w`], which bumps the version and journals the
/// touch first. The fields are private to this module, so the holder cannot
/// forget either — "version unchanged" implies "value unchanged" by
/// construction (the converse does not hold: a `w()` borrow that writes the
/// same value back still bumps). That a borrow changes no more than its
/// [`Touch`] says is the caller's word, checked against a whole encoding on
/// every commit of a debug build and by `tests/props.rs` in release.
#[derive(Debug, Clone)]
pub(crate) struct Versioned<T> {
    value: T,
    version: u64,
    /// Distinct fields touched since the last [`Versioned::rebase`], at
    /// most [`JOURNAL_CAP`] of them; `None` is [`Touch::Shape`].
    touched: Option<Vec<Touch>>,
}

impl<T> Versioned<T> {
    /// Nothing has been encoded yet, so there is nothing to patch: the
    /// journal starts at [`Touch::Shape`].
    pub(crate) fn new(value: T) -> Versioned<T> {
        Versioned {
            value,
            version: 0,
            touched: None,
        }
    }

    /// Mutable access; counts as a mutation of `touch` whether or not the
    /// caller ends up changing anything.
    pub(crate) fn w(&mut self, touch: Touch) -> &mut T {
        self.version += 1;
        if let Some(list) = &mut self.touched {
            if !list.contains(&touch) {
                if touch == Touch::Shape || list.len() == JOURNAL_CAP {
                    self.touched = None;
                } else {
                    list.push(touch);
                }
            }
        }
        &mut self.value
    }

    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// The fields touched since the last rebase, or `None` for
    /// [`Touch::Shape`].
    pub(crate) fn touched(&self) -> Option<&[Touch]> {
        self.touched.as_deref()
    }

    /// Start the journal over: the value as it is now is what the next
    /// drain patches from.
    pub(crate) fn rebase(&mut self) {
        self.touched.get_or_insert_with(Vec::new).clear();
    }
}

impl<T> std::ops::Deref for Versioned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

/// Where the variable part of one whole encoding put what a patch can
/// reach: the encoding's length, and for every parity row the offset of
/// its first slot. Block UIDs and the counters need no entry
/// ([`BLOCK_UIDS_AT`], [`COUNTERS_AT`]). Valid until the next
/// [`Touch::Shape`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Layout {
    pub(crate) len: usize,
    /// `(row, offset of its slots)`, ascending by row.
    parity: Vec<(u64, usize)>,
}

impl Layout {
    /// Offset of the slots of `row`'s parity UID array.
    pub(crate) fn parity_slots_at(&self, row: u64) -> Option<usize> {
        let i = self.parity.binary_search_by_key(&row, |e| e.0).ok()?;
        Some(self.parity[i].1)
    }
}

/// What [`SiteMachine::drain_durable`](crate::SiteMachine::drain_durable)
/// hands a store: how to take the encoding it last handed over to the
/// current one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableDelta {
    /// XOR this into the last encoding (same length; possibly empty).
    Patch(ChangeMask),
    /// Replace the last encoding with this one.
    Whole(Vec<u8>),
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DurableError> {
        let end = self.at.checked_add(n).ok_or(DurableError::Truncated)?;
        if end > self.buf.len() {
            return Err(DurableError::Truncated);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, DurableError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, DurableError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DurableError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A length prefix that will be used to reserve memory: reject counts
    /// the remaining buffer could not possibly hold (8 bytes per element
    /// minimum), so a corrupt prefix cannot drive a huge allocation.
    fn count(&mut self) -> Result<usize, DurableError> {
        let n = self.u64()? as usize;
        if n > (self.buf.len() - self.at) / 8 {
            return Err(DurableError::Truncated);
        }
        Ok(n)
    }

    fn uids(&mut self, n: usize) -> Result<Vec<Uid>, DurableError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(Uid::from_raw(self.u64()?));
        }
        Ok(v)
    }

    /// A counted UID array, which must have one slot per site.
    fn uid_array(&mut self, n_sites: usize) -> Result<UidArray, DurableError> {
        let n = self.count()?;
        if n != n_sites {
            return Err(DurableError::Malformed("UID array is not G + 2 long"));
        }
        Ok(UidArray::from_slots(self.uids(n)?))
    }
}

fn put_uids(out: &mut Vec<u8>, uids: &[Uid]) {
    out.extend_from_slice(&(uids.len() as u64).to_le_bytes());
    for u in uids {
        out.extend_from_slice(&u.as_raw().to_le_bytes());
    }
}

impl DurableSiteState {
    /// Encode to the versioned binary snapshot format.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(|_, _| {})
    }

    /// [`encode`](DurableSiteState::encode), leaving in `layout` where the
    /// encoding put what a later patch can reach.
    pub(crate) fn encode_indexed(&self, layout: &mut Layout) -> Vec<u8> {
        layout.parity.clear();
        let out = self.encode_with(|row, at| layout.parity.push((row, at)));
        layout.len = out.len();
        out
    }

    /// Encode, reporting each parity row and the offset of its slots.
    fn encode_with(&self, mut parity_slots_at: impl FnMut(u64, usize)) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.block_uids.len() * 8);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.site as u32).to_le_bytes());
        out.extend_from_slice(&(self.group_size as u32).to_le_bytes());
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&(self.block_size as u32).to_le_bytes());
        debug_assert_eq!(out.len(), COUNTERS_AT);
        out.extend_from_slice(&self.uid_gen.counter().to_le_bytes());
        out.extend_from_slice(&self.next_tag.to_le_bytes());
        debug_assert_eq!(out.len() + 8, BLOCK_UIDS_AT);
        put_uids(&mut out, &self.block_uids);
        out.extend_from_slice(&(self.parity_uids.len() as u64).to_le_bytes());
        for (row, arr) in &self.parity_uids {
            out.extend_from_slice(&row.to_le_bytes());
            parity_slots_at(*row, out.len() + 8);
            put_uids(&mut out, arr.slots());
        }
        out.extend_from_slice(&(self.spares.len() as u64).to_le_bytes());
        for (row, slot) in &self.spares {
            out.extend_from_slice(&row.to_le_bytes());
            out.extend_from_slice(&(slot.for_site as u32).to_le_bytes());
            match &slot.content {
                SpareContent::Data { uid } => {
                    out.push(0);
                    out.extend_from_slice(&uid.as_raw().to_le_bytes());
                }
                SpareContent::Parity { uids } => {
                    out.push(1);
                    put_uids(&mut out, uids.slots());
                }
            }
        }
        out.extend_from_slice(&(self.invalid_rows.len() as u64).to_le_bytes());
        for row in &self.invalid_rows {
            out.extend_from_slice(&row.to_le_bytes());
        }
        out
    }

    /// Decode a snapshot, validating structure and bounds.
    pub fn decode(buf: &[u8]) -> Result<DurableSiteState, DurableError> {
        let mut r = Reader { buf, at: 0 };
        if r.u32()? != MAGIC {
            return Err(DurableError::BadMagic);
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(DurableError::BadVersion(version));
        }
        let site = r.u32()? as usize;
        let group_size = r.u32()? as usize;
        let rows = r.u64()?;
        let block_size = r.u32()? as usize;
        let uid_counter = r.u64()?;
        if uid_counter >= 1 << 48 {
            return Err(DurableError::Malformed("UID counter exhausted"));
        }
        let next_tag = r.u64()?;
        let n_uids = r.count()?;
        if n_uids as u64 != rows {
            return Err(DurableError::Malformed("block UID count != rows"));
        }
        let block_uids = r.uids(n_uids)?;
        let n_sites = group_size + 2;
        let mut parity_uids = BTreeMap::new();
        for _ in 0..r.count()? {
            let row = r.u64()?;
            if row >= rows {
                return Err(DurableError::Malformed("parity row out of range"));
            }
            parity_uids.insert(row, r.uid_array(n_sites)?);
        }
        let mut spares = BTreeMap::new();
        for _ in 0..r.count()? {
            let row = r.u64()?;
            if row >= rows {
                return Err(DurableError::Malformed("spare row out of range"));
            }
            let for_site = r.u32()? as usize;
            let content = match r.take(1)?[0] {
                0 => SpareContent::Data {
                    uid: Uid::from_raw(r.u64()?),
                },
                1 => SpareContent::Parity {
                    uids: r.uid_array(n_sites)?,
                },
                _ => return Err(DurableError::Malformed("unknown spare kind tag")),
            };
            spares.insert(row, SpareSlot { for_site, content });
        }
        let mut invalid_rows = BTreeSet::new();
        for _ in 0..r.count()? {
            let row = r.u64()?;
            if row >= rows {
                return Err(DurableError::Malformed("invalid-row index out of range"));
            }
            invalid_rows.insert(row);
        }
        if r.at != buf.len() {
            return Err(DurableError::Malformed("trailing bytes after snapshot"));
        }
        Ok(DurableSiteState {
            site,
            group_size,
            rows,
            block_size,
            block_uids,
            parity_uids,
            spares,
            invalid_rows,
            uid_gen: UidGen::restore(site as u16, uid_counter),
            next_tag,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DurableSiteState {
        let u = Uid::from_raw;
        let array = |slots: Vec<u64>| UidArray::from_slots(slots.into_iter().map(u).collect());
        DurableSiteState {
            site: 2,
            group_size: 2,
            rows: 4,
            block_size: 16,
            block_uids: vec![
                u(0x2_0000_0000_0001),
                Uid::INVALID,
                u(0x2_0000_0000_0002),
                Uid::INVALID,
            ],
            parity_uids: BTreeMap::from([(1, array(vec![7, 0, 9, 0]))]),
            spares: BTreeMap::from([
                (
                    0,
                    SpareSlot {
                        for_site: 3,
                        content: SpareContent::Data { uid: u(5) },
                    },
                ),
                (
                    2,
                    SpareSlot {
                        for_site: 1,
                        content: SpareContent::Parity {
                            uids: array(vec![1, 2, 0, 0]),
                        },
                    },
                ),
            ]),
            invalid_rows: BTreeSet::from([1, 3]),
            uid_gen: UidGen::restore(2, 2),
            next_tag: 11,
        }
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        assert_eq!(DurableSiteState::decode(&s.encode()), Ok(s));
    }

    #[test]
    fn a_uid_array_of_the_wrong_length_is_malformed() {
        for arr in [vec![Uid::INVALID; 3], vec![Uid::INVALID; 5]] {
            let mut s = sample();
            s.parity_uids.insert(1, UidArray::from_slots(arr));
            assert_eq!(
                DurableSiteState::decode(&s.encode()),
                Err(DurableError::Malformed("UID array is not G + 2 long"))
            );
        }
    }

    #[test]
    fn every_prefix_truncation_errors_not_panics() {
        let full = sample().encode();
        for n in 0..full.len() {
            assert!(
                DurableSiteState::decode(&full[..n]).is_err(),
                "prefix of {n} bytes decoded"
            );
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let mut buf = sample().encode();
        buf[0] ^= 0xFF;
        assert_eq!(DurableSiteState::decode(&buf), Err(DurableError::BadMagic));
        let mut buf = sample().encode();
        buf[4] = 0xEE;
        assert_eq!(
            DurableSiteState::decode(&buf),
            Err(DurableError::BadVersion(0xEE))
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = sample().encode();
        buf.push(0);
        assert_eq!(
            DurableSiteState::decode(&buf),
            Err(DurableError::Malformed("trailing bytes after snapshot"))
        );
    }

    #[test]
    fn huge_count_rejected_without_allocation() {
        let mut buf = sample().encode();
        // Overwrite the block-UID count (offset 42: after the 42-byte
        // fixed header) with u64::MAX.
        buf[42..50].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(DurableSiteState::decode(&buf).is_err());
    }
}
