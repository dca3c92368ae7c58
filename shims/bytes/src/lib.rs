//! Minimal workspace-local implementation of the `bytes` crate API
//! surface this repository uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the handful of behaviours it needs: [`Bytes`] is a cheaply
//! cloneable (`Arc`-backed), sliceable, immutable byte buffer. Clones
//! and sub-slices share one allocation, which is what makes the blob
//! decode path of `tc-mps` zero-copy.
//!
//! `Bytes::from(Vec<u8>)` takes the vector itself behind the `Arc`:
//! the payload is never copied, so the bytes live in the vector's own
//! heap block. Rust promises only 1-byte alignment for a `Vec<u8>`;
//! the platform `malloc` behind the system allocator returns 16-byte
//! aligned blocks on 64-bit glibc and musl targets, which is what
//! keeps typed views over a received buffer zero-copy in practice.
//! Consumers that reinterpret the bytes (`tc_mps::PodArray`) check the
//! alignment of every view and copy when it does not hold.

use std::ops::{Bound, RangeBounds};
use std::sync::{Arc, OnceLock};

/// A cheaply cloneable, immutable, contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    ///
    /// Every empty `Bytes` shares one process-wide backing `Arc`, so
    /// this is allocation-free after the first call (empty buffers are
    /// used as placeholders on hot paths).
    pub fn new() -> Self {
        static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
        let empty = EMPTY.get_or_init(|| Arc::new(Vec::new()));
        Self { data: Arc::clone(empty), start: 0, end: 0 }
    }

    /// Creates `Bytes` from a static byte slice.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::from(bytes.to_vec())
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Pointer to the first byte of the view.
    pub fn as_ptr(&self) -> *const u8 {
        self.data[self.start..self.end].as_ptr()
    }

    /// Returns a sub-view sharing the same backing allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&i) => i + 1,
            Bound::Excluded(&i) => i,
            Bound::Unbounded => len,
        };
        assert!(lo <= hi && hi <= len, "slice {lo}..{hi} out of bounds of {len}");
        Self { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }

    /// The bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copies the view into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of `v` without copying its contents.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self { data: Arc::new(v), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::from(v.to_vec())
    }
}

impl std::ops::Deref for Bytes {
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

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_slice_share_backing() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.slice(1..).as_slice(), &[3, 4]);
        assert_eq!(b.as_ptr() as usize + 1, s.as_ptr() as usize);
    }

    #[test]
    fn from_vec_keeps_the_vector_allocation() {
        let v = vec![7u8; 4096];
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at, "the payload must not be copied");
        assert_eq!(b.slice(8..).as_ptr(), at.wrapping_add(8));
    }

    #[test]
    fn empty_and_clone() {
        let e = Bytes::new();
        assert!(e.is_empty());
        let b = Bytes::from(vec![9u8]);
        let c = b.clone();
        assert_eq!(b, c);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![1u8, 2]).slice(0..3);
    }
}
