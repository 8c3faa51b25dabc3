//! Offline stand-in for the `bytes` crate.
//!
//! [`Bytes`] is a cheaply cloneable view into shared immutable memory,
//! [`BytesMut`] a growable buffer, and [`Buf`]/[`BufMut`] the big-endian
//! cursor traits — the subset the repository's block codec uses, with
//! the real crate's semantics (reads past the end panic).

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A cheaply cloneable chunk of immutable memory with a read cursor.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
}

impl Bytes {
    /// An empty `Bytes`.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies `data` into a new `Bytes`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Bytes in view.
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            data: v.into(),
            start: 0,
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}
impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// A growable byte buffer.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    /// An empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    /// Bytes written.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing was written.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Makes room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional)
    }

    /// Appends `data`.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.0.extend_from_slice(data)
    }

    /// Empties the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.0.clear()
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

macro_rules! buf_get {
    ($($name:ident -> $t:ty),*) => {$(
        /// Reads a big-endian value, advancing the cursor.
        fn $name(&mut self) -> $t {
            let mut b = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut b);
            <$t>::from_be_bytes(b)
        }
    )*};
}

/// A cursor over readable bytes.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes as one contiguous slice.
    fn chunk(&self) -> &[u8];
    /// Skips `cnt` bytes. Panics past the end.
    fn advance(&mut self, cnt: usize);

    /// Whether any byte is left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Fills `dst` from the cursor. Panics when too few bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    buf_get!(get_u8 -> u8, get_u16 -> u16, get_u32 -> u32, get_u64 -> u64, get_i64 -> i64);
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past the end");
        self.start += cnt;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past the end");
        *self = &self[cnt..];
    }
}

macro_rules! buf_put {
    ($($name:ident <- $t:ty),*) => {$(
        /// Appends a big-endian value.
        fn $name(&mut self, v: $t) {
            self.put_slice(&v.to_be_bytes());
        }
    )*};
}

/// A sink for written bytes.
pub trait BufMut {
    /// Appends `src`.
    fn put_slice(&mut self, src: &[u8]);

    buf_put!(put_u8 <- u8, put_u16 <- u16, put_u32 <- u32, put_u64 <- u64, put_i64 <- i64);
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src)
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src)
    }
}
