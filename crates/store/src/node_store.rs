//! Per-node block storage.

use d2_sim::SimTime;
use d2_types::{Key, KeyRange};
use std::collections::BTreeMap;

/// What a node physically holds for a key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Real block bytes (live deployments and file-system tests).
    Data(Vec<u8>),
    /// Size-only placeholder for large-scale simulation, where block
    /// contents are irrelevant but byte accounting matters: a replica, an
    /// erasure-coded fragment, or a block pointer's share of the block it
    /// stands for (`d2-core`'s cluster index records where it leads).
    Size(u32),
}

impl Payload {
    /// Logical size of the block in bytes.
    pub fn len(&self) -> u32 {
        match self {
            Payload::Data(d) => d.len() as u32,
            Payload::Size(n) => *n,
        }
    }

    /// Whether the payload holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A stored block and when it arrived.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredBlock {
    /// The block's contents (or size placeholder).
    pub payload: Payload,
    /// When the block arrived at this node.
    pub stored_at: SimTime,
}

/// The block store of a single node: an ordered map from key to block,
/// supporting the range queries that load balancing needs.
///
/// # Examples
///
/// ```
/// use d2_store::{NodeStore, Payload};
/// use d2_sim::SimTime;
/// use d2_types::Key;
///
/// let mut store = NodeStore::new();
/// store.put(Key::from_u64(7), Payload::Size(8192), SimTime::ZERO);
/// assert!(store.contains(&Key::from_u64(7)));
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct NodeStore {
    blocks: BTreeMap<Key, StoredBlock>,
    bytes: u64,
}

impl NodeStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        NodeStore::default()
    }

    /// Number of blocks held.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total logical bytes held.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Inserts or replaces a block. Returns the previous entry, if any.
    pub fn put(&mut self, key: Key, payload: Payload, now: SimTime) -> Option<StoredBlock> {
        self.bytes += payload.len() as u64;
        let stored_at = now;
        let old = self.blocks.insert(key, StoredBlock { payload, stored_at });
        if let Some(ref o) = old {
            self.bytes -= o.payload.len() as u64;
        }
        old
    }

    /// Looks up a block.
    pub fn get(&self, key: &Key) -> Option<&StoredBlock> {
        self.blocks.get(key)
    }

    /// Whether the key is present.
    pub fn contains(&self, key: &Key) -> bool {
        self.blocks.contains_key(key)
    }

    /// Immediately removes a block, returning it.
    pub fn remove_now(&mut self, key: &Key) -> Option<StoredBlock> {
        let old = self.blocks.remove(key);
        if let Some(ref o) = old {
            self.bytes -= o.payload.len() as u64;
        }
        old
    }

    /// Keys inside `range` (which may wrap).
    pub fn keys_in(&self, range: &KeyRange) -> Vec<Key> {
        range.walk(&self.blocks).map(|(k, _)| *k).collect()
    }

    /// Number of blocks inside `range` (no allocation; called on every
    /// balance probe).
    pub fn count_in(&self, range: &KeyRange) -> u64 {
        range.walk(&self.blocks).count() as u64
    }

    /// The key `m` such that half of the blocks in `range` have keys ≤ `m`
    /// — the split point the load balancer uses (Section 6). Returns
    /// `None` with fewer than 2 blocks in range.
    pub fn split_key_in(&self, range: &KeyRange) -> Option<Key> {
        let n = self.count_in(range) as usize;
        if n < 2 {
            return None;
        }
        range.walk(&self.blocks).nth(n / 2 - 1).map(|(k, _)| *k)
    }

    /// Iterates all `(key, block)` entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &StoredBlock)> {
        self.blocks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: u64) -> Key {
        Key::from_u64_ordered(v)
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let mut s = NodeStore::new();
        s.put(k(1), Payload::Data(vec![1, 2, 3]), SimTime::ZERO);
        assert_eq!(s.get(&k(1)).unwrap().payload, Payload::Data(vec![1, 2, 3]));
        assert_eq!(s.bytes(), 3);
        let old = s.remove_now(&k(1)).unwrap();
        assert_eq!(old.payload.len(), 3);
        assert_eq!(s.bytes(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn overwrite_adjusts_bytes() {
        let mut s = NodeStore::new();
        s.put(k(1), Payload::Size(100), SimTime::ZERO);
        s.put(k(1), Payload::Size(40), SimTime::ZERO);
        assert_eq!(s.bytes(), 40);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn split_key_halves_range() {
        let mut s = NodeStore::new();
        for v in 1..=10 {
            s.put(k(v), Payload::Size(1), SimTime::ZERO);
        }
        let r = KeyRange::full();
        let m = s.split_key_in(&r).unwrap();
        assert_eq!(m, k(5));
        // Fewer than 2 blocks: no split.
        let tiny = KeyRange::new(k(9), k(10));
        assert!(s.split_key_in(&tiny).is_none());
    }

    #[test]
    fn payload_len() {
        assert_eq!(Payload::Data(vec![0; 5]).len(), 5);
        assert_eq!(Payload::Size(9).len(), 9);
        assert!(Payload::Data(vec![]).is_empty());
        assert!(!Payload::Size(1).is_empty());
    }
}
