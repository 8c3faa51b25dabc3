//! The lookup cache (paper Section 5).
//!
//! Every successful DHT lookup returns the owner's address *and its key
//! range*. D2-Store caches these; a later request whose key falls inside a
//! cached range skips the DHT lookup entirely. Because D2 keys are
//! locality-preserving, a user's next access very likely falls in a range
//! they already cached — this is where the up-to-95% lookup-traffic
//! reduction comes from.
//!
//! Entries expire after a TTL (the paper uses 1.25 hours, tuned to the
//! PlanetLab leave/join rate). A stale entry never harms correctness —
//! the store falls back to a routed lookup when the cached node misses —
//! it only costs latency, which callers model by charging a wasted RTT.
//!
//! Cached ranges never overlap (an insert drops every entry the new range
//! overlaps), so the cache keeps them sorted by range end and a probe is
//! one binary search: the only entry that can hold a key is the first
//! whose end is at or past it, wrapping to the lowest end. An insert
//! finds what it overlaps by binary search too.

use d2_obs::{CacheResult, CacheTier, SharedSink, TraceEvent};
use d2_sim::SimTime;
use d2_types::{Key, KeyRange};

/// The paper's default cache-entry TTL (1.25 hours).
pub const DEFAULT_TTL_SECS: u64 = 4500;

/// One cached lookup result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CacheEntry {
    range: KeyRange,
    node: usize,
    inserted_at: SimTime,
}

/// Result of probing the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Key found in a live cached range: contact `node` directly.
    Hit {
        /// Node to contact.
        node: usize,
    },
    /// No usable entry: a DHT lookup is required.
    Miss,
}

/// A per-client cache of `(key range → node)` lookup results.
///
/// # Examples
///
/// ```
/// use d2_store::{CacheOutcome, LookupCache};
/// use d2_sim::SimTime;
/// use d2_types::{Key, KeyRange};
///
/// let mut cache = LookupCache::new(SimTime::from_secs(4500));
/// let range = KeyRange::new(Key::from_u64(10), Key::from_u64(20));
/// cache.insert(range, 7, SimTime::ZERO);
/// assert_eq!(cache.probe(&Key::from_u64(15), SimTime::ZERO), CacheOutcome::Hit { node: 7 });
/// assert_eq!(cache.probe(&Key::from_u64(25), SimTime::ZERO), CacheOutcome::Miss);
/// ```
#[derive(Clone, Debug)]
pub struct LookupCache {
    /// Pairwise disjoint, sorted by range end.
    entries: Vec<CacheEntry>,
    ttl: SimTime,
    /// At or before every entry's `inserted_at`: while it is within the
    /// TTL no entry has expired, and eviction skips its sweep.
    oldest: SimTime,
    hits: u64,
    misses: u64,
}

impl LookupCache {
    /// Creates a cache with the given entry TTL.
    pub fn new(ttl: SimTime) -> Self {
        LookupCache {
            entries: Vec::new(),
            ttl,
            oldest: SimTime::ZERO,
            hits: 0,
            misses: 0,
        }
    }

    /// Creates a cache with the paper's 1.25-hour TTL.
    pub fn with_default_ttl() -> Self {
        Self::new(SimTime::from_secs(DEFAULT_TTL_SECS))
    }

    /// Number of live entries (including not-yet-evicted expired ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate over the cache's lifetime (0 if never probed).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Resets hit/miss statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Probes the cache for `key`, counting a hit or miss.
    pub fn probe(&mut self, key: &Key, now: SimTime) -> CacheOutcome {
        self.evict_expired(now);
        match self.find(key).map(|e| e.node) {
            Some(node) => {
                self.hits += 1;
                CacheOutcome::Hit { node }
            }
            None => {
                self.misses += 1;
                CacheOutcome::Miss
            }
        }
    }

    /// [`LookupCache::probe`] plus a [`TraceEvent::CacheProbe`] record in
    /// `sink`. The paper's stale-hit case (cached node no longer owns the
    /// key) is only detectable by the caller, which reports it through its
    /// own fetch event; this tier records raw hit/miss.
    pub fn probe_traced(
        &mut self,
        key: &Key,
        now: SimTime,
        user: u32,
        sink: &SharedSink,
    ) -> CacheOutcome {
        let outcome = self.probe(key, now);
        sink.record_with(|| TraceEvent::CacheProbe {
            t_us: now.as_micros(),
            user,
            tier: CacheTier::Lookup,
            result: match outcome {
                CacheOutcome::Hit { .. } => CacheResult::Hit,
                CacheOutcome::Miss => CacheResult::Miss,
            },
            key: key.to_u64_lossy(),
        });
        outcome
    }

    /// Probes without recording statistics.
    pub fn peek(&self, key: &Key, now: SimTime) -> Option<usize> {
        self.find(key)
            .filter(|e| !self.expired(e, now))
            .map(|e| e.node)
    }

    /// Inserts a lookup result, evicting any overlapping older entries
    /// (their information is superseded).
    ///
    /// Entries are disjoint, so an entry overlaps the new arc exactly when
    /// its end lies on the arc (one run of the end order, two if the arc
    /// wraps) or it holds the arc's end (at most one entry). Only those
    /// are dropped, found by binary search; the rest keep their order.
    pub fn insert(&mut self, range: KeyRange, node: usize, now: SimTime) {
        if range.is_full() {
            self.entries.clear();
        } else {
            if let Some(at) = self.find_at(range.end()) {
                self.entries.remove(at);
            }
            let (start, end) = (range.start(), range.end());
            let from = self.entries.partition_point(|e| e.range.end() <= start);
            let to = self.entries.partition_point(|e| e.range.end() <= end);
            if start < end {
                self.entries.drain(from..to);
            } else {
                self.entries.truncate(from);
                self.entries.drain(..to);
            }
        }
        self.oldest = if self.entries.is_empty() {
            now
        } else {
            self.oldest.min(now)
        };
        let at = self
            .entries
            .partition_point(|e| e.range.end() < range.end());
        let entry = CacheEntry {
            range,
            node,
            inserted_at: now,
        };
        self.entries.insert(at, entry);
    }

    /// The entry whose range holds `key`, expired or not. Arcs are
    /// disjoint, so the one holding `key` (if any) is the first whose end
    /// is reached walking clockwise from `key`: the lowest end at or past
    /// it, else the lowest end of all.
    fn find(&self, key: &Key) -> Option<&CacheEntry> {
        self.find_at(key).map(|at| &self.entries[at])
    }

    /// The position of [`LookupCache::find`]'s entry.
    fn find_at(&self, key: &Key) -> Option<usize> {
        let at = self.entries.partition_point(|e| e.range.end() < key);
        let at = if at < self.entries.len() { at } else { 0 };
        self.entries
            .get(at)
            .is_some_and(|e| e.range.contains(key))
            .then_some(at)
    }

    /// Drops every entry pointing at `node` (used when a direct contact
    /// fails and the node is presumed moved or dead).
    pub fn invalidate_node(&mut self, node: usize) {
        self.entries.retain(|e| e.node != node);
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    fn expired(&self, e: &CacheEntry, now: SimTime) -> bool {
        now.saturating_sub(e.inserted_at) > self.ttl
    }

    fn evict_expired(&mut self, now: SimTime) {
        let ttl = self.ttl;
        if now.saturating_sub(self.oldest) <= ttl {
            return;
        }
        self.entries
            .retain(|e| now.saturating_sub(e.inserted_at) <= ttl);
        self.oldest = self
            .entries
            .iter()
            .map(|e| e.inserted_at)
            .min()
            .unwrap_or(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: u64) -> Key {
        Key::from_u64_ordered(v)
    }

    fn r(a: u64, b: u64) -> KeyRange {
        KeyRange::new(k(a), k(b))
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut c = LookupCache::with_default_ttl();
        c.insert(r(10, 20), 1, SimTime::ZERO);
        assert_eq!(
            c.probe(&k(15), SimTime::ZERO),
            CacheOutcome::Hit { node: 1 }
        );
        assert_eq!(c.probe(&k(30), SimTime::ZERO), CacheOutcome::Miss);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.miss_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn start_exclusive_end_inclusive() {
        let mut c = LookupCache::with_default_ttl();
        c.insert(r(10, 20), 1, SimTime::ZERO);
        assert_eq!(c.probe(&k(10), SimTime::ZERO), CacheOutcome::Miss);
        assert_eq!(
            c.probe(&k(20), SimTime::ZERO),
            CacheOutcome::Hit { node: 1 }
        );
    }

    #[test]
    fn entries_expire_after_ttl() {
        let mut c = LookupCache::new(SimTime::from_secs(100));
        c.insert(r(10, 20), 1, SimTime::ZERO);
        assert!(matches!(
            c.probe(&k(15), SimTime::from_secs(100)),
            CacheOutcome::Hit { .. }
        ));
        assert_eq!(c.probe(&k(15), SimTime::from_secs(101)), CacheOutcome::Miss);
        assert!(c.is_empty(), "expired entries are evicted");
    }

    #[test]
    fn newer_overlapping_entry_supersedes() {
        let mut c = LookupCache::with_default_ttl();
        c.insert(r(10, 30), 1, SimTime::ZERO);
        // Node 2 split off half of node 1's range.
        c.insert(r(10, 20), 2, SimTime::from_secs(10));
        // The old overlapping entry was evicted wholesale: 25 now misses,
        // 15 hits on the new owner.
        assert_eq!(
            c.probe(&k(15), SimTime::from_secs(10)),
            CacheOutcome::Hit { node: 2 }
        );
        assert_eq!(c.probe(&k(25), SimTime::from_secs(10)), CacheOutcome::Miss);
    }

    #[test]
    fn disjoint_entries_coexist() {
        let mut c = LookupCache::with_default_ttl();
        c.insert(r(10, 20), 1, SimTime::ZERO);
        c.insert(r(30, 40), 2, SimTime::ZERO);
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.probe(&k(15), SimTime::ZERO),
            CacheOutcome::Hit { node: 1 }
        );
        assert_eq!(
            c.probe(&k(35), SimTime::ZERO),
            CacheOutcome::Hit { node: 2 }
        );
    }

    #[test]
    fn wrapping_range_hits() {
        let mut c = LookupCache::with_default_ttl();
        c.insert(KeyRange::new(k(u64::MAX - 5), k(5)), 3, SimTime::ZERO);
        assert_eq!(c.probe(&k(2), SimTime::ZERO), CacheOutcome::Hit { node: 3 });
        assert_eq!(
            c.probe(&Key::MAX, SimTime::ZERO),
            CacheOutcome::Hit { node: 3 }
        );
        assert_eq!(c.probe(&k(500), SimTime::ZERO), CacheOutcome::Miss);
    }

    #[test]
    fn invalidate_node_drops_its_ranges() {
        let mut c = LookupCache::with_default_ttl();
        c.insert(r(10, 20), 1, SimTime::ZERO);
        c.insert(r(30, 40), 1, SimTime::ZERO);
        c.insert(r(50, 60), 2, SimTime::ZERO);
        c.invalidate_node(1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.probe(&k(15), SimTime::ZERO), CacheOutcome::Miss);
        assert_eq!(
            c.probe(&k(55), SimTime::ZERO),
            CacheOutcome::Hit { node: 2 }
        );
    }

    #[test]
    fn peek_does_not_count() {
        let mut c = LookupCache::with_default_ttl();
        c.insert(r(10, 20), 1, SimTime::ZERO);
        assert_eq!(c.peek(&k(15), SimTime::ZERO), Some(1));
        assert_eq!(c.peek(&k(99), SimTime::ZERO), None);
        assert_eq!(c.hits() + c.misses(), 0);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut c = LookupCache::with_default_ttl();
        c.insert(r(10, 20), 1, SimTime::ZERO);
        let _ = c.probe(&k(15), SimTime::ZERO);
        let _ = c.probe(&k(95), SimTime::ZERO);
        c.reset_stats();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.miss_rate(), 0.0);
        assert_eq!(c.len(), 1, "entries survive a stats reset");
    }

    #[test]
    fn traced_probe_records_tiered_outcomes() {
        let mut c = LookupCache::with_default_ttl();
        c.insert(r(10, 20), 1, SimTime::ZERO);
        let sink = SharedSink::memory(0);
        let hit = c.probe_traced(&k(15), SimTime::from_secs(2), 4, &sink);
        let miss = c.probe_traced(&k(99), SimTime::from_secs(3), 4, &sink);
        assert_eq!(hit, CacheOutcome::Hit { node: 1 });
        assert_eq!(miss, CacheOutcome::Miss);
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        match &events[0] {
            TraceEvent::CacheProbe {
                t_us,
                user,
                tier,
                result,
                ..
            } => {
                assert_eq!(*t_us, 2_000_000);
                assert_eq!(*user, 4);
                assert_eq!(*tier, CacheTier::Lookup);
                assert_eq!(*result, CacheResult::Hit);
            }
            other => panic!("expected CacheProbe, got {other:?}"),
        }
        assert!(matches!(
            &events[1],
            TraceEvent::CacheProbe {
                result: CacheResult::Miss,
                ..
            }
        ));
        // Null sink: same outcomes, no events, stats still counted.
        let null = SharedSink::null();
        let _ = c.probe_traced(&k(15), SimTime::from_secs(4), 0, &null);
        assert!(null.drain().is_empty());
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn full_range_overlaps_everything() {
        let mut c = LookupCache::with_default_ttl();
        c.insert(r(10, 20), 1, SimTime::ZERO);
        c.insert(KeyRange::full(), 9, SimTime::ZERO);
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.probe(&k(999), SimTime::ZERO),
            CacheOutcome::Hit { node: 9 }
        );
    }
}
