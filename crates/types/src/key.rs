//! The 512-bit circular key space.
//!
//! Every block key and node identifier in D2 lives on a ring of
//! `2^512` points, represented as 64 big-endian bytes ([`KEY_BYTES`]).
//! The paper's Figure 4 encoding produces exactly 64-byte keys, and node
//! identifiers share the space so that a node owns the keys between its
//! predecessor (exclusive) and itself (inclusive).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

/// Number of bytes in a ring key (the paper uses 64-byte keys, Figure 4).
pub const KEY_BYTES: usize = 64;

const LIMBS: usize = 8;

/// A point on the 512-bit circular key space.
///
/// Keys are totally ordered as big-endian unsigned integers; ring-aware
/// operations ([`Key::distance_to`], [`Key::midpoint`], [`KeyRange`]) wrap
/// around the maximum value.
///
/// # Examples
///
/// ```
/// use d2_types::Key;
///
/// let k = Key::from_u64(42);
/// assert_eq!(k.to_u64_lossy(), 42);
/// assert!(Key::MIN < k && k < Key::MAX);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key(pub(crate) [u8; KEY_BYTES]);

impl Key {
    /// The smallest key (all zero bytes).
    pub const MIN: Key = Key([0u8; KEY_BYTES]);
    /// The largest key (all `0xff` bytes).
    pub const MAX: Key = Key([0xffu8; KEY_BYTES]);

    /// Creates a key from raw big-endian bytes.
    pub fn from_bytes(bytes: [u8; KEY_BYTES]) -> Self {
        Key(bytes)
    }

    /// Returns the raw big-endian bytes of the key.
    pub fn as_bytes(&self) -> &[u8; KEY_BYTES] {
        &self.0
    }

    /// Creates a key whose low 64 bits are `v` and all other bits zero.
    pub fn from_u64(v: u64) -> Self {
        let mut b = [0u8; KEY_BYTES];
        b[KEY_BYTES - 8..].copy_from_slice(&v.to_be_bytes());
        Key(b)
    }

    /// Creates a key whose *high* 64 bits are `v`, so that the natural
    /// `u64` ordering is preserved at the top of the key space.
    ///
    /// Useful for ordered scenarios driven by small integers (e.g. the HP
    /// block-number workload of Figure 3).
    pub fn from_u64_ordered(v: u64) -> Self {
        let mut b = [0u8; KEY_BYTES];
        b[..8].copy_from_slice(&v.to_be_bytes());
        Key(b)
    }

    /// Creates a key from a fraction of the ring in `[0, 1)`.
    ///
    /// `Key::from_fraction(0.5)` is the exact midpoint of the ring. Only the
    /// top 64 bits are populated, which is plenty of resolution for node
    /// placement.
    pub fn from_fraction(f: f64) -> Self {
        let f = f.clamp(0.0, 1.0 - f64::EPSILON);
        Key::from_u64_ordered((f * (u64::MAX as f64)) as u64)
    }

    /// Returns this key's position as a fraction of the ring in `[0, 1)`.
    pub fn to_fraction(&self) -> f64 {
        let hi = u64::from_be_bytes(self.0[..8].try_into().unwrap());
        hi as f64 / u64::MAX as f64
    }

    /// Returns the low 64 bits (for keys created with [`Key::from_u64`]).
    pub fn to_u64_lossy(&self) -> u64 {
        u64::from_be_bytes(self.0[KEY_BYTES - 8..].try_into().unwrap())
    }

    fn to_limbs(self) -> [u64; LIMBS] {
        let mut l = [0u64; LIMBS];
        for (i, limb) in l.iter_mut().enumerate() {
            *limb = u64::from_be_bytes(self.0[i * 8..(i + 1) * 8].try_into().unwrap());
        }
        l
    }

    fn from_limbs(l: [u64; LIMBS]) -> Self {
        let mut b = [0u8; KEY_BYTES];
        for (i, limb) in l.iter().enumerate() {
            b[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_be_bytes());
        }
        Key(b)
    }

    /// Wrapping addition on the ring.
    pub fn wrapping_add(&self, other: &Key) -> Key {
        let a = self.to_limbs();
        let b = other.to_limbs();
        let mut out = [0u64; LIMBS];
        let mut carry = 0u64;
        for i in (0..LIMBS).rev() {
            let (s1, c1) = a[i].overflowing_add(b[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        Key::from_limbs(out)
    }

    /// Wrapping subtraction on the ring.
    pub fn wrapping_sub(&self, other: &Key) -> Key {
        let a = self.to_limbs();
        let b = other.to_limbs();
        let mut out = [0u64; LIMBS];
        let mut borrow = 0u64;
        for i in (0..LIMBS).rev() {
            let (s1, c1) = a[i].overflowing_sub(b[i]);
            let (s2, c2) = s1.overflowing_sub(borrow);
            out[i] = s2;
            borrow = (c1 as u64) + (c2 as u64);
        }
        Key::from_limbs(out)
    }

    /// Halves the key (logical shift right by one bit).
    pub fn half(&self) -> Key {
        let l = self.to_limbs();
        let mut out = [0u64; LIMBS];
        let mut carry = 0u64;
        for i in 0..LIMBS {
            out[i] = (l[i] >> 1) | (carry << 63);
            carry = l[i] & 1;
        }
        Key::from_limbs(out)
    }

    /// Clockwise distance from `self` to `other` on the ring
    /// (`other - self mod 2^512`).
    ///
    /// ```
    /// use d2_types::Key;
    /// let a = Key::from_u64(10);
    /// let b = Key::from_u64(4);
    /// // from b clockwise to a is 6 steps
    /// assert_eq!(b.distance_to(&a), Key::from_u64(6));
    /// ```
    pub fn distance_to(&self, other: &Key) -> Key {
        other.wrapping_sub(self)
    }

    /// The point halfway along the clockwise arc from `self` to `other`.
    ///
    /// Used by the load balancer when a node rejoins as another node's
    /// predecessor to split its load in half.
    pub fn midpoint(&self, other: &Key) -> Key {
        let d = self.distance_to(other);
        self.wrapping_add(&d.half())
    }

    /// Generates a uniformly random key from `rng`.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Key {
        let mut b = [0u8; KEY_BYTES];
        rng.fill_bytes(&mut b);
        Key(b)
    }

    /// Increments the key by one (wrapping).
    pub fn successor_point(&self) -> Key {
        self.wrapping_add(&Key::from_u64(1))
    }
}

impl Default for Key {
    fn default() -> Self {
        Key::MIN
    }
}

impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    /// Byte-lexicographic order, taken eight big-endian bytes at a time:
    /// a few word compares instead of a `memcmp` call, which ring and
    /// cache searches make on every step.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.chunks_exact(8).zip(other.0.chunks_exact(8)) {
            let a = u64::from_be_bytes(a.try_into().expect("8-byte chunk"));
            let b = u64::from_be_bytes(b.try_into().expect("8-byte chunk"));
            if a != b {
                return a.cmp(&b);
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Show the first 8 bytes: enough to distinguish keys in logs.
        write!(f, "Key(")?;
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl From<[u8; KEY_BYTES]> for Key {
    fn from(b: [u8; KEY_BYTES]) -> Self {
        Key(b)
    }
}

/// A node identifier: a position on the same ring as block keys.
///
/// In D2, node IDs are *not* secure hashes — the load balancer moves nodes
/// to arbitrary ring positions (Section 6), which is why the paper flags
/// untrusted-infrastructure ID selection as future work.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub Key);

impl NodeId {
    /// Creates a node ID at the given ring point.
    pub fn new(key: Key) -> Self {
        NodeId(key)
    }

    /// The ring position of the node.
    pub fn key(&self) -> &Key {
        &self.0
    }

    /// Generates a uniformly random node ID (consistent hashing placement).
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        NodeId(Key::random(rng))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Node({})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A half-open arc `(start, end]` on the key ring.
///
/// This is the ownership convention of successor-based DHTs: the node with
/// ID `n` and predecessor `p` owns `KeyRange::new(p, n)`. When
/// `start == end` the range covers the *entire* ring (a single-node system).
///
/// # Examples
///
/// ```
/// use d2_types::{Key, KeyRange};
///
/// // A wrapping range near the top of the ring.
/// let r = KeyRange::new(Key::MAX, Key::from_u64(5));
/// assert!(r.contains(&Key::from_u64(3)));
/// assert!(!r.contains(&Key::MAX));          // start is exclusive
/// assert!(r.contains(&Key::from_u64(5)));   // end is inclusive
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct KeyRange {
    start: Key,
    end: Key,
}

impl KeyRange {
    /// Creates the arc `(start, end]` (clockwise). `start == end` denotes
    /// the full ring.
    pub fn new(start: Key, end: Key) -> Self {
        KeyRange { start, end }
    }

    /// The full ring.
    pub fn full() -> Self {
        KeyRange {
            start: Key::MIN,
            end: Key::MIN,
        }
    }

    /// Exclusive start of the arc.
    pub fn start(&self) -> &Key {
        &self.start
    }

    /// Inclusive end of the arc.
    pub fn end(&self) -> &Key {
        &self.end
    }

    /// Whether this range covers the whole ring.
    pub fn is_full(&self) -> bool {
        self.start == self.end
    }

    /// Whether `key` lies on the arc `(start, end]`.
    pub fn contains(&self, key: &Key) -> bool {
        if self.is_full() {
            return true;
        }
        if self.start < self.end {
            *key > self.start && *key <= self.end
        } else {
            *key > self.start || *key <= self.end
        }
    }

    /// Clockwise length of the arc (`0` means full ring).
    pub fn span(&self) -> Key {
        self.start.distance_to(&self.end)
    }

    /// The entries of `map` whose keys lie on the arc, in ring order
    /// from its start: a wrapping arc yields `(start, MAX]` and then
    /// `[MIN, end]`, and the full ring all of `map` in key order.
    pub fn walk<'a, V>(&self, map: &'a BTreeMap<Key, V>) -> impl Iterator<Item = (&'a Key, &'a V)> {
        let (start, end) = (self.start, self.end);
        let (head, tail) = if self.is_full() {
            ((Bound::Unbounded, Bound::Unbounded), None)
        } else if start < end {
            ((Bound::Excluded(start), Bound::Included(end)), None)
        } else {
            ((Bound::Excluded(start), Bound::Unbounded), Some(end))
        };
        let tail = tail.into_iter().flat_map(move |end| map.range(..=end));
        map.range(head).chain(tail)
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn key_ordering_is_big_endian() {
        assert!(Key::from_u64(1) < Key::from_u64(2));
        assert!(Key::from_u64_ordered(1) > Key::from_u64(u64::MAX));
        assert!(Key::MIN < Key::MAX);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Key::from_u64(123456789);
        let b = Key::from_u64_ordered(987654321);
        assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
        assert_eq!(a.wrapping_sub(&b).wrapping_add(&b), a);
    }

    #[test]
    fn wrapping_add_carries_across_limbs() {
        let a = Key::from_u64(u64::MAX);
        let one = Key::from_u64(1);
        let sum = a.wrapping_add(&one);
        // Carry propagates into limb 6.
        assert_eq!(sum.to_u64_lossy(), 0);
        assert_eq!(sum.0[KEY_BYTES - 9], 1);
    }

    #[test]
    fn max_plus_one_wraps_to_zero() {
        assert_eq!(Key::MAX.wrapping_add(&Key::from_u64(1)), Key::MIN);
    }

    #[test]
    fn distance_wraps() {
        let a = Key::from_u64(10);
        let b = Key::from_u64(4);
        assert_eq!(b.distance_to(&a), Key::from_u64(6));
        // Going the other way wraps around the whole ring.
        assert_eq!(
            a.distance_to(&b),
            Key::from_u64(4).wrapping_sub(&Key::from_u64(10))
        );
    }

    #[test]
    fn half_shifts_right() {
        assert_eq!(Key::from_u64(8).half(), Key::from_u64(4));
        let h = Key::MAX.half();
        assert_eq!(h.0[0], 0x7f);
        assert!(h.0[1..].iter().all(|&b| b == 0xff));
    }

    #[test]
    fn midpoint_of_simple_arc() {
        let a = Key::from_u64(10);
        let b = Key::from_u64(20);
        assert_eq!(a.midpoint(&b), Key::from_u64(15));
    }

    #[test]
    fn midpoint_of_wrapping_arc() {
        // Arc from MAX-1 to 3 has length 5; midpoint is MAX-1+2 = 0.
        let a = Key::MAX.wrapping_sub(&Key::from_u64(1));
        let b = Key::from_u64(3);
        let m = a.midpoint(&b);
        // distance = 5, half = 2, so midpoint = (MAX-1)+2 = MIN (wraps).
        assert_eq!(m, Key::MIN);
        assert!(KeyRange::new(a, b).contains(&m));
    }

    #[test]
    fn fraction_roundtrip() {
        for f in [0.0, 0.25, 0.5, 0.75, 0.999] {
            let k = Key::from_fraction(f);
            assert!((k.to_fraction() - f).abs() < 1e-9, "f={f}");
        }
    }

    #[test]
    fn walk_lists_an_arc_in_ring_order_from_its_start() {
        let map: BTreeMap<Key, ()> = [10, 20, 30, 40].map(|v| (Key::from_u64(v), ())).into();
        let walk = |a, b| -> Vec<u64> {
            let r = KeyRange::new(Key::from_u64(a), Key::from_u64(b));
            r.walk(&map).map(|(k, _)| k.to_u64_lossy()).collect()
        };
        // The start is exclusive and the end inclusive.
        assert_eq!(walk(10, 30), [20, 30]);
        // Wrapping: past the top of the ring, then up to the end.
        assert_eq!(walk(35, 15), [40, 10]);
        // The full ring, whatever its start, in key order.
        assert_eq!(walk(20, 20), [10, 20, 30, 40]);
        assert_eq!(walk(0, 0), [10, 20, 30, 40]);
    }

    #[test]
    fn range_simple_contains() {
        let r = KeyRange::new(Key::from_u64(10), Key::from_u64(20));
        assert!(!r.contains(&Key::from_u64(10)));
        assert!(r.contains(&Key::from_u64(11)));
        assert!(r.contains(&Key::from_u64(20)));
        assert!(!r.contains(&Key::from_u64(21)));
    }

    #[test]
    fn range_wrapping_contains() {
        let r = KeyRange::new(Key::from_u64_ordered(u64::MAX), Key::from_u64(5));
        assert!(r.contains(&Key::from_u64(0)));
        assert!(r.contains(&Key::MAX));
        assert!(!r.contains(&Key::from_u64(6)));
    }

    #[test]
    fn full_range_contains_everything() {
        let r = KeyRange::full();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..32 {
            assert!(r.contains(&Key::random(&mut rng)));
        }
    }

    #[test]
    fn random_keys_distinct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let a = Key::random(&mut rng);
        let b = Key::random(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_display_nonempty() {
        let k = Key::from_u64(7);
        assert!(!format!("{k:?}").is_empty());
        assert!(!format!("{k}").is_empty());
        assert!(!format!("{:?}", NodeId::new(k)).is_empty());
        assert!(!format!("{}", KeyRange::full()).is_empty());
    }
}
