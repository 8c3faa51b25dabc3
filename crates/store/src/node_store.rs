//! Per-node block storage.

use d2_obs::Registry;
use d2_sim::SimTime;
use d2_types::{Key, KeyRange};
use std::collections::BTreeMap;

/// What a node physically holds for a key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Real block bytes (live deployments and file-system tests).
    Data(Vec<u8>),
    /// Size-only placeholder for large-scale simulation, where block
    /// contents are irrelevant but byte accounting matters.
    Size(u32),
    /// One erasure-coded fragment of a block (`d2-ec`): `ceil(len / k)`
    /// bytes of a `(k, n)` code word. Like [`Payload::Size`] this is a
    /// size-only placeholder at simulation scale, but it carries the
    /// fragment's code-word position and write generation so repair and
    /// decode logic can reason about which fragments survive.
    Fragment {
        /// Position in the code word (`0..n`).
        index: u8,
        /// Write generation; fragments of different generations of the
        /// same key never combine.
        generation: u64,
        /// Fragment payload size in bytes.
        len: u32,
    },
    /// A block *pointer* (Section 6): the data still lives on `holder`;
    /// this node will fetch it once the pointer is older than the pointer
    /// stabilization time.
    Pointer {
        /// Node index that actually holds the block.
        holder: usize,
        /// When the pointer was installed.
        since: SimTime,
        /// Size of the pointed-to block.
        len: u32,
    },
}

impl Payload {
    /// Logical size of the block in bytes (pointers report the size of the
    /// block they stand for, since that is what must eventually move).
    pub fn len(&self) -> u32 {
        match self {
            Payload::Data(d) => d.len() as u32,
            Payload::Size(n) => *n,
            Payload::Fragment { len, .. } => *len,
            Payload::Pointer { len, .. } => *len,
        }
    }

    /// Whether this entry is a pointer rather than real data.
    pub fn is_pointer(&self) -> bool {
        matches!(self, Payload::Pointer { .. })
    }

    /// Whether this entry is an erasure-coded fragment.
    pub fn is_fragment(&self) -> bool {
        matches!(self, Payload::Fragment { .. })
    }

    /// Whether the payload holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A stored block plus its lifecycle timestamps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredBlock {
    /// The block's contents (or placeholder / pointer).
    pub payload: Payload,
    /// When the block arrived at this node.
    pub stored_at: SimTime,
    /// Delayed-removal deadline set by `remove(key, delay)` (D2-FS delays
    /// removals by 30 s so stale-by-up-to-30 s readers still succeed).
    pub remove_at: Option<SimTime>,
    /// TTL deadline: blocks are auto-removed if not refreshed, covering
    /// removal messages lost to partitions (Section 3).
    pub expires_at: Option<SimTime>,
}

impl StoredBlock {
    /// Whether the block should be garbage-collected at `now`.
    pub fn is_dead(&self, now: SimTime) -> bool {
        self.remove_at.is_some_and(|t| now >= t) || self.expires_at.is_some_and(|t| now >= t)
    }
}

/// The block store of a single node: an ordered map from key to block,
/// supporting the range queries that load balancing and migration need.
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
    fragment_bytes: u64,
}

/// What one [`NodeStore::gc`] pass reclaimed, broken down by payload
/// kind so the `store.*` metrics can report fragment bytes separately
/// from whole blocks (lazy erasure repair budgets are denominated in
/// bytes, so "how many bytes did GC free" must be answerable per kind).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Keys removed, in key order.
    pub keys: Vec<Key>,
    /// Bytes reclaimed from whole blocks (`Data` / `Size`).
    pub block_bytes: u64,
    /// Bytes reclaimed from erasure-coded fragments.
    pub fragment_bytes: u64,
    /// Logical bytes released by dropping pointers.
    pub pointer_bytes: u64,
}

impl GcReport {
    /// Whether the pass removed anything.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

impl NodeStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        NodeStore::default()
    }

    /// Number of blocks held (including pointers).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total logical bytes held (pointers count the pointed-to size).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Bytes held as erasure-coded fragments (a subset of
    /// [`NodeStore::bytes`]: repair and ablation accounting track them
    /// separately from whole blocks).
    pub fn fragment_bytes(&self) -> u64 {
        self.fragment_bytes
    }

    /// Adds `payload`'s bytes to the per-kind accounting.
    fn account_add(&mut self, payload: &Payload) {
        self.bytes += payload.len() as u64;
        if payload.is_fragment() {
            self.fragment_bytes += payload.len() as u64;
        }
    }

    /// Removes a displaced `payload`'s bytes from the accounting.
    fn account_sub(&mut self, payload: &Payload) {
        self.bytes -= payload.len() as u64;
        if payload.is_fragment() {
            self.fragment_bytes -= payload.len() as u64;
        }
    }

    /// Inserts or replaces a block. Returns the previous entry, if any.
    pub fn put(&mut self, key: Key, payload: Payload, now: SimTime) -> Option<StoredBlock> {
        self.account_add(&payload);
        let old = self.blocks.insert(
            key,
            StoredBlock {
                payload,
                stored_at: now,
                remove_at: None,
                expires_at: None,
            },
        );
        if let Some(ref o) = old {
            self.account_sub(&o.payload);
        }
        old
    }

    /// Inserts a block with a TTL.
    pub fn put_with_ttl(&mut self, key: Key, payload: Payload, now: SimTime, ttl: SimTime) {
        self.put(key, payload, now);
        if let Some(b) = self.blocks.get_mut(&key) {
            b.expires_at = Some(now + ttl);
        }
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
            self.account_sub(&o.payload);
        }
        old
    }

    /// Schedules removal after `delay` — the `remove(key, delay)`
    /// operation of Section 3. The block stays readable until then.
    pub fn remove_after(&mut self, key: &Key, now: SimTime, delay: SimTime) -> bool {
        match self.blocks.get_mut(key) {
            Some(b) => {
                b.remove_at = Some(now + delay);
                true
            }
            None => false,
        }
    }

    /// Refreshes a block's TTL (the "user-defined TTL that can be
    /// refreshed").
    pub fn refresh_ttl(&mut self, key: &Key, now: SimTime, ttl: SimTime) -> bool {
        match self.blocks.get_mut(key) {
            Some(b) => {
                b.expires_at = Some(now + ttl);
                true
            }
            None => false,
        }
    }

    /// Garbage-collects blocks whose delayed removal or TTL deadline has
    /// passed. Returns the removed keys *and* the reclaimed bytes broken
    /// down by payload kind — fragment bytes used to vanish invisibly
    /// here, which made erasure-coded space accounting unauditable.
    /// Quick removal matters for locality: dead blocks fragment live
    /// data (Section 3).
    pub fn gc(&mut self, now: SimTime) -> GcReport {
        let dead: Vec<Key> = self
            .blocks
            .iter()
            .filter(|(_, b)| b.is_dead(now))
            .map(|(k, _)| *k)
            .collect();
        let mut report = GcReport::default();
        for k in dead {
            let Some(old) = self.remove_now(&k) else {
                continue;
            };
            match old.payload {
                Payload::Data(_) | Payload::Size(_) => {
                    report.block_bytes += old.payload.len() as u64
                }
                Payload::Fragment { .. } => report.fragment_bytes += old.payload.len() as u64,
                Payload::Pointer { .. } => report.pointer_bytes += old.payload.len() as u64,
            }
            report.keys.push(k);
        }
        report
    }

    /// Runs [`NodeStore::gc`] and publishes what it reclaimed to the
    /// `store.*` metrics: `store.gc_blocks` counts removed entries,
    /// `store.gc_block_bytes` / `store.gc_fragment_bytes` /
    /// `store.gc_pointer_bytes` the reclaimed bytes per payload kind.
    pub fn gc_observed(&mut self, now: SimTime, reg: &mut Registry) -> GcReport {
        let report = self.gc(now);
        if !report.is_empty() {
            reg.add("store.gc_blocks", report.keys.len() as u64);
            reg.add("store.gc_block_bytes", report.block_bytes);
            reg.add("store.gc_fragment_bytes", report.fragment_bytes);
            reg.add("store.gc_pointer_bytes", report.pointer_bytes);
        }
        report
    }

    /// Iterates keys inside `range` (which may wrap).
    pub fn keys_in(&self, range: &KeyRange) -> Vec<Key> {
        if range.is_full() {
            return self.blocks.keys().copied().collect();
        }
        let start = *range.start();
        let end = *range.end();
        if start < end {
            self.blocks
                .range((
                    std::ops::Bound::Excluded(start),
                    std::ops::Bound::Included(end),
                ))
                .map(|(k, _)| *k)
                .collect()
        } else {
            // Wrapping: (start, MAX] ∪ [MIN, end].
            self.blocks
                .range((std::ops::Bound::Excluded(start), std::ops::Bound::Unbounded))
                .map(|(k, _)| *k)
                .chain(self.blocks.range(..=end).map(|(k, _)| *k))
                .collect()
        }
    }

    /// Number of blocks inside `range` (no allocation; called on every
    /// balance probe).
    pub fn count_in(&self, range: &KeyRange) -> u64 {
        if range.is_full() {
            return self.blocks.len() as u64;
        }
        let start = *range.start();
        let end = *range.end();
        if start < end {
            self.blocks
                .range((
                    std::ops::Bound::Excluded(start),
                    std::ops::Bound::Included(end),
                ))
                .count() as u64
        } else {
            (self
                .blocks
                .range((std::ops::Bound::Excluded(start), std::ops::Bound::Unbounded))
                .count()
                + self.blocks.range(..=end).count()) as u64
        }
    }

    /// Total bytes of blocks inside `range`.
    pub fn bytes_in(&self, range: &KeyRange) -> u64 {
        self.keys_in(range)
            .iter()
            .filter_map(|k| self.blocks.get(k))
            .map(|b| b.payload.len() as u64)
            .sum()
    }

    /// The key `m` such that half of the blocks in `range` have keys ≤ `m`
    /// — the split point the load balancer uses (Section 6). Returns
    /// `None` with fewer than 2 blocks in range.
    pub fn split_key_in(&self, range: &KeyRange) -> Option<Key> {
        let keys = self.keys_in(range);
        if keys.len() < 2 {
            return None;
        }
        Some(keys[keys.len() / 2 - 1])
    }

    /// Removes and returns all blocks inside `range` (migration transfer).
    pub fn take_range(&mut self, range: &KeyRange) -> Vec<(Key, StoredBlock)> {
        self.keys_in(range)
            .into_iter()
            .filter_map(|k| self.remove_now(&k).map(|b| (k, b)))
            .collect()
    }

    /// Inserts pre-built blocks (migration receive).
    pub fn absorb(&mut self, blocks: Vec<(Key, StoredBlock)>) {
        for (k, b) in blocks {
            self.account_add(&b.payload);
            if let Some(old) = self.blocks.insert(k, b) {
                self.account_sub(&old.payload);
            }
        }
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
    fn delayed_removal_keeps_block_readable() {
        let mut s = NodeStore::new();
        s.put(k(1), Payload::Size(10), SimTime::ZERO);
        assert!(s.remove_after(&k(1), SimTime::ZERO, SimTime::from_secs(30)));
        // Still readable before the deadline (stale readers succeed).
        assert!(s.gc(SimTime::from_secs(29)).is_empty());
        assert!(s.contains(&k(1)));
        // Gone at the deadline.
        assert_eq!(s.gc(SimTime::from_secs(30)).keys, vec![k(1)]);
        assert!(!s.contains(&k(1)));
    }

    #[test]
    fn ttl_expiry() {
        let mut s = NodeStore::new();
        s.put_with_ttl(
            k(2),
            Payload::Size(10),
            SimTime::ZERO,
            SimTime::from_secs(60),
        );
        assert!(s.gc(SimTime::from_secs(59)).is_empty());
        // Refresh extends life.
        assert!(s.refresh_ttl(&k(2), SimTime::from_secs(59), SimTime::from_secs(60)));
        assert!(s.gc(SimTime::from_secs(100)).is_empty());
        assert_eq!(s.gc(SimTime::from_secs(119)).keys, vec![k(2)]);
    }

    #[test]
    fn remove_after_on_missing_key_is_false() {
        let mut s = NodeStore::new();
        assert!(!s.remove_after(&k(9), SimTime::ZERO, SimTime::from_secs(1)));
        assert!(!s.refresh_ttl(&k(9), SimTime::ZERO, SimTime::from_secs(1)));
    }

    #[test]
    fn keys_in_simple_range() {
        let mut s = NodeStore::new();
        for v in [10, 20, 30, 40] {
            s.put(k(v), Payload::Size(1), SimTime::ZERO);
        }
        let r = KeyRange::new(k(10), k(30));
        assert_eq!(s.keys_in(&r), vec![k(20), k(30)]); // start exclusive
        assert_eq!(s.count_in(&r), 2);
    }

    #[test]
    fn keys_in_wrapping_range() {
        let mut s = NodeStore::new();
        for v in [10, 20, 30, 40] {
            s.put(k(v), Payload::Size(1), SimTime::ZERO);
        }
        let r = KeyRange::new(k(35), k(15));
        assert_eq!(s.keys_in(&r), vec![k(40), k(10)]);
    }

    #[test]
    fn keys_in_full_range() {
        let mut s = NodeStore::new();
        for v in [1, 2, 3] {
            s.put(k(v), Payload::Size(1), SimTime::ZERO);
        }
        assert_eq!(s.keys_in(&KeyRange::full()).len(), 3);
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
    fn take_range_moves_blocks_and_bytes() {
        let mut a = NodeStore::new();
        for v in 1..=6 {
            a.put(k(v), Payload::Size(10), SimTime::ZERO);
        }
        let moved = a.take_range(&KeyRange::new(k(2), k(4)));
        assert_eq!(moved.len(), 2); // keys 3, 4
        assert_eq!(a.len(), 4);
        assert_eq!(a.bytes(), 40);
        let mut b = NodeStore::new();
        b.absorb(moved);
        assert_eq!(b.len(), 2);
        assert_eq!(b.bytes(), 20);
    }

    #[test]
    fn pointer_lifecycle() {
        let mut s = NodeStore::new();
        s.put(
            k(5),
            Payload::Pointer {
                holder: 3,
                since: SimTime::from_secs(10),
                len: 8192,
            },
            SimTime::from_secs(10),
        );
        assert!(s.get(&k(5)).unwrap().payload.is_pointer());
        // Pointers carry logical size; resolving replaces one with data.
        assert_eq!(s.bytes(), 8192);
        s.put(k(5), Payload::Size(8192), SimTime::from_secs(20));
        assert!(!s.get(&k(5)).unwrap().payload.is_pointer());
        assert_eq!(s.bytes(), 8192);
    }

    #[test]
    fn payload_len_and_flags() {
        assert_eq!(Payload::Data(vec![0; 5]).len(), 5);
        assert_eq!(Payload::Size(9).len(), 9);
        assert_eq!(
            Payload::Pointer {
                holder: 0,
                since: SimTime::ZERO,
                len: 7
            }
            .len(),
            7
        );
        assert!(Payload::Data(vec![]).is_empty());
        assert!(!Payload::Size(1).is_empty());
    }

    #[test]
    fn fragment_bytes_tracked_separately() {
        let mut s = NodeStore::new();
        s.put(k(1), Payload::Size(100), SimTime::ZERO);
        s.put(
            k(2),
            Payload::Fragment {
                index: 3,
                generation: 1,
                len: 40,
            },
            SimTime::ZERO,
        );
        assert_eq!(s.bytes(), 140);
        assert_eq!(s.fragment_bytes(), 40);
        // Overwriting a fragment with a whole block releases its share.
        s.put(k(2), Payload::Size(60), SimTime::ZERO);
        assert_eq!(s.fragment_bytes(), 0);
        assert_eq!(s.bytes(), 160);
        // ... and the reverse direction claims it back.
        s.put(
            k(1),
            Payload::Fragment {
                index: 0,
                generation: 2,
                len: 25,
            },
            SimTime::ZERO,
        );
        assert_eq!(s.fragment_bytes(), 25);
        s.remove_now(&k(1));
        assert_eq!(s.fragment_bytes(), 0);
        assert_eq!(s.bytes(), 60);
    }

    #[test]
    fn gc_reports_reclaimed_fragment_bytes_in_store_metrics() {
        // Regression: gc used to return only the removed keys, so
        // reclaimed fragment bytes never reached the store.* metrics.
        let mut s = NodeStore::new();
        let mut reg = Registry::new();
        s.put(k(1), Payload::Size(100), SimTime::ZERO);
        s.put(
            k(2),
            Payload::Fragment {
                index: 1,
                generation: 0,
                len: 30,
            },
            SimTime::ZERO,
        );
        s.put(
            k(3),
            Payload::Fragment {
                index: 2,
                generation: 0,
                len: 30,
            },
            SimTime::ZERO,
        );
        s.put(
            k(4),
            Payload::Pointer {
                holder: 7,
                since: SimTime::ZERO,
                len: 500,
            },
            SimTime::ZERO,
        );
        for v in 1..=4 {
            s.remove_after(&k(v), SimTime::ZERO, SimTime::from_secs(10));
        }
        // Nothing due yet: no counter movement.
        let early = s.gc_observed(SimTime::from_secs(5), &mut reg);
        assert!(early.is_empty());
        assert_eq!(reg.counter("store.gc_blocks"), 0);

        let report = s.gc_observed(SimTime::from_secs(10), &mut reg);
        assert_eq!(report.keys.len(), 4);
        assert_eq!(report.block_bytes, 100);
        assert_eq!(report.fragment_bytes, 60);
        assert_eq!(report.pointer_bytes, 500);
        assert_eq!(reg.counter("store.gc_blocks"), 4);
        assert_eq!(reg.counter("store.gc_block_bytes"), 100);
        assert_eq!(reg.counter("store.gc_fragment_bytes"), 60);
        assert_eq!(reg.counter("store.gc_pointer_bytes"), 500);
        assert_eq!(s.bytes(), 0);
        assert_eq!(s.fragment_bytes(), 0);

        // A second pass is a no-op: deltas, not re-counts.
        s.gc_observed(SimTime::from_secs(11), &mut reg);
        assert_eq!(reg.counter("store.gc_blocks"), 4);
        assert_eq!(reg.counter("store.gc_fragment_bytes"), 60);
    }

    #[test]
    fn bytes_in_range() {
        let mut s = NodeStore::new();
        s.put(k(1), Payload::Size(100), SimTime::ZERO);
        s.put(k(2), Payload::Size(200), SimTime::ZERO);
        s.put(k(3), Payload::Size(400), SimTime::ZERO);
        assert_eq!(s.bytes_in(&KeyRange::new(k(1), k(2))), 200);
        assert_eq!(s.bytes_in(&KeyRange::full()), 700);
    }
}
