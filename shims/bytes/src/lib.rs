//! Offline stand-in for the `bytes` crate.
//!
//! This workspace builds in environments with no crates.io access, so the
//! external dependencies are vendored as minimal shims implementing exactly
//! the API surface the workspace uses. [`Bytes`] here is a cheaply-cloneable
//! immutable byte buffer backed by `Arc<Vec<u8>>` plus a view range —
//! reference-counted clones, zero-copy sub-slicing, slice deref, and the
//! usual comparison traits. Like the real crate, `clone`, `slice`, and
//! `From<Vec<u8>>` never copy payload bytes (the vector's allocation is
//! adopted as the backing store); only `copy_from_slice`/`to_vec` do, and
//! `Vec::from(bytes)` does only when the buffer has other owners.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes {
            data: Arc::new(Vec::new()),
            start: 0,
            end: 0,
        }
    }
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copy `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes {
            data: Arc::new(data.to_vec()),
            start: 0,
            end: data.len(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copy out into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// A zero-copy sub-range view sharing the backing allocation.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {}..{} out of range for Bytes of length {}",
            range.start,
            range.end,
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Whether this is the only handle on its backing allocation (no clone
    /// or slice of it is alive), so that `Vec::from` can take it whole.
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

/// Takes the backing vector without copying when `bytes` is its only
/// owner (the view's bytes are moved to its front if the view does not
/// start there, and what lies past the view is cut off); copies otherwise.
impl From<Bytes> for Vec<u8> {
    fn from(bytes: Bytes) -> Vec<u8> {
        let Bytes { data, start, end } = bytes;
        match Arc::try_unwrap(data) {
            Ok(mut v) => {
                v.truncate(end);
                v.drain(..start);
                v
            }
            Err(shared) => shared[start..end].to_vec(),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Bytes {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self.as_slice() == other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == *other.as_slice()
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl serde::Serialize for Bytes {
    fn serialize_json(&self, out: &mut String) {
        self.as_slice().serialize_json(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_compares() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert_eq!(b, vec![1u8, 2, 3]);
        assert_eq!(&b[..], &[1u8, 2, 3][..]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(b.slice(1..3).to_vec(), vec![2, 3]);
    }

    #[test]
    fn empty_default() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::default().len(), 0);
    }

    #[test]
    fn slice_shares_backing_allocation() {
        let b = Bytes::from((0u8..64).collect::<Vec<u8>>());
        let s = b.slice(8..24);
        assert_eq!(s.len(), 16);
        assert_eq!(s[0], 8);
        // Same allocation: the sub-slice's pointer sits inside the parent's.
        let parent = b.as_ref().as_ptr() as usize;
        let child = s.as_ref().as_ptr() as usize;
        assert_eq!(child, parent + 8);
        // Nested slices keep composing against the original buffer.
        let s2 = s.slice(4..8);
        assert_eq!(s2.to_vec(), vec![12, 13, 14, 15]);
    }

    #[test]
    fn into_vec_adopts_a_sole_owners_buffer_and_copies_a_shared_one() {
        let b = Bytes::from((0u8..64).collect::<Vec<u8>>());
        assert!(b.is_unique());
        let at = b.as_ptr();
        let v = Vec::from(b);
        assert_eq!(v.as_ptr(), at, "adopted, not copied");
        assert_eq!(v, (0u8..64).collect::<Vec<u8>>());

        let b = Bytes::from(v);
        let kept = b.clone();
        assert!(!b.is_unique());
        let v = Vec::from(b.slice(8..24));
        assert_ne!(v.as_ptr(), kept.as_ptr(), "a shared buffer is copied");
        assert_eq!(v, (8u8..24).collect::<Vec<u8>>());

        // A sole view that does not start at the front keeps its bytes only.
        let tail = kept.slice(60..64);
        drop(kept);
        assert_eq!(Vec::from(tail), vec![60, 61, 62, 63]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        Bytes::from(vec![0u8; 4]).slice(2..6);
    }
}
