//! Seeded property tests for the per-node store and lookup cache. A
//! failure prints its seed.

use d2_sim::SimTime;
use d2_store::{CacheOutcome, LookupCache, NodeStore, Payload};
use d2_types::{Key, KeyRange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const SEEDS: u64 = 64;

#[derive(Clone, Copy, Debug)]
enum Op {
    Put(u16, u16),
    RemoveNow(u16),
    RemoveAfter(u16, u16),
    RefreshTtl(u16, u16),
    Gc,
}

/// Puts 4 : removals 1 : delayed removals 2 : TTL refreshes 1 : gc 2.
fn random_op(rng: &mut StdRng) -> Op {
    let k = rng.random();
    match rng.random_range(0..10) {
        0..=3 => Op::Put(k, rng.random_range(1..=2048)),
        4 => Op::RemoveNow(k),
        5..=6 => Op::RemoveAfter(k, rng.random_range(1..600)),
        7 => Op::RefreshTtl(k, rng.random_range(1..600)),
        _ => Op::Gc,
    }
}

fn key(k: u16) -> Key {
    Key::from_u64_ordered(k as u64)
}

/// The store's byte counter always equals the sum of stored payload
/// lengths, and gc removes exactly the due blocks.
#[test]
fn store_accounting_is_exact() {
    #[derive(Clone, Copy)]
    struct Entry {
        len: u32,
        remove_at: Option<SimTime>,
        expires_at: Option<SimTime>,
    }
    impl Entry {
        fn dead(&self, now: SimTime) -> bool {
            self.remove_at.is_some_and(|t| now >= t) || self.expires_at.is_some_and(|t| now >= t)
        }
    }
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = NodeStore::new();
        let mut model: BTreeMap<Key, Entry> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        for step in 0..rng.random_range(1..80) {
            let op = random_op(&mut rng);
            let at = format!("seed {seed}, step {step} ({op:?})");
            now += SimTime::from_secs(10);
            match op {
                Op::Put(k, len) => {
                    store.put(key(k), Payload::Size(len as u32), now);
                    let entry = Entry {
                        len: len as u32,
                        remove_at: None,
                        expires_at: None,
                    };
                    model.insert(key(k), entry);
                }
                Op::RemoveNow(k) => {
                    let got = store.remove_now(&key(k));
                    assert_eq!(got.is_some(), model.remove(&key(k)).is_some(), "{at}");
                }
                Op::RemoveAfter(k, d) => {
                    let delay = SimTime::from_secs(d as u64);
                    let ok = store.remove_after(&key(k), now, delay);
                    assert_eq!(ok, model.contains_key(&key(k)), "{at}");
                    if let Some(e) = model.get_mut(&key(k)) {
                        e.remove_at = Some(now + delay);
                    }
                }
                Op::RefreshTtl(k, d) => {
                    let ttl = SimTime::from_secs(d as u64);
                    let ok = store.refresh_ttl(&key(k), now, ttl);
                    assert_eq!(ok, model.contains_key(&key(k)), "{at}");
                    if let Some(e) = model.get_mut(&key(k)) {
                        e.expires_at = Some(now + ttl);
                    }
                }
                Op::Gc => {
                    for k in &store.gc(now).keys {
                        let e = model.remove(k);
                        assert!(e.is_some_and(|e| e.dead(now)), "{at}: gc took live {k}");
                    }
                    for (k, e) in &model {
                        assert!(!e.dead(now) || !store.contains(k), "{at}: overdue {k}");
                    }
                    model.retain(|_, e| !e.dead(now));
                }
            }
            let expect: u64 = model.values().map(|e| e.len as u64).sum();
            assert_eq!(store.bytes(), expect, "{at}: byte counter drifted");
            assert_eq!(store.len(), model.len(), "{at}");
        }
    }
}

/// take_range + absorb moves exactly the blocks in the range, conserving
/// total count and bytes.
#[test]
fn migration_conserves_blocks() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: BTreeSet<u16> = (0..rng.random_range(1..64)).map(|_| rng.random()).collect();
        let (a, b) = (rng.random::<u16>(), rng.random::<u16>());
        let mut src = NodeStore::new();
        for &k in &keys {
            src.put(key(k), Payload::Size(8), SimTime::ZERO);
        }
        let range = KeyRange::new(key(a), key(b));
        let total = src.len();
        let total_bytes = src.bytes();
        let moved = src.take_range(&range);
        let mut dst = NodeStore::new();
        dst.absorb(moved);
        assert_eq!(src.len() + dst.len(), total, "seed {seed}");
        assert_eq!(src.bytes() + dst.bytes(), total_bytes, "seed {seed}");
        // Partition correctness.
        for &k in &keys {
            let kk = key(k);
            if range.contains(&kk) && a != b {
                assert!(dst.contains(&kk) && !src.contains(&kk), "seed {seed}");
            }
        }
    }
}

/// Lookup-cache: after inserting ranges, probing any key inside a range
/// hits the right node; overlapping inserts supersede.
#[test]
fn cache_hits_are_always_current() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = LookupCache::new(SimTime::from_secs(1_000_000));
        let mut inserted: Vec<(KeyRange, usize)> = Vec::new();
        for _ in 0..rng.random_range(1..12) {
            let (a, b): (u16, u16) = (rng.random(), rng.random());
            let node = rng.random_range(0..16);
            if a == b {
                continue;
            }
            let r = KeyRange::new(key(a), key(b));
            // Mirror the cache's overlap eviction.
            inserted.retain(|(old, _)| !(old.contains(r.end()) || r.contains(old.end())));
            inserted.push((r, node));
            cache.insert(r, node, SimTime::ZERO);
        }
        for _ in 0..rng.random_range(1..24) {
            let k = key(rng.random());
            let expect = inserted
                .iter()
                .rev()
                .find(|(r, _)| r.contains(&k))
                .map(|(_, n)| *n);
            let got = match cache.probe(&k, SimTime::ZERO) {
                CacheOutcome::Hit { node } => Some(node),
                CacheOutcome::Miss => None,
            };
            assert_eq!(got, expect, "seed {seed}: probe {k}");
        }
    }
}

/// The lookup cache as it was before its ranges were kept sorted: a
/// linear scan, newest entry first, with every expired entry swept out
/// on each probe. The model the cache is held against.
struct LinearCache {
    entries: Vec<(KeyRange, usize, SimTime)>,
    ttl: SimTime,
    hits: u64,
    misses: u64,
}

impl LinearCache {
    fn live(&self, at: SimTime, now: SimTime) -> bool {
        now.saturating_sub(at) <= self.ttl
    }

    fn probe(&mut self, key: &Key, now: SimTime) -> CacheOutcome {
        let ttl = self.ttl;
        self.entries
            .retain(|&(_, _, at)| now.saturating_sub(at) <= ttl);
        match self.entries.iter().rev().find(|(r, _, _)| r.contains(key)) {
            Some(&(_, node, _)) => {
                self.hits += 1;
                CacheOutcome::Hit { node }
            }
            None => {
                self.misses += 1;
                CacheOutcome::Miss
            }
        }
    }

    fn peek(&self, key: &Key, now: SimTime) -> Option<usize> {
        let hit = self.entries.iter().rev();
        hit.filter(|&&(r, _, at)| self.live(at, now) && r.contains(key))
            .map(|&(_, node, _)| node)
            .next()
    }

    fn insert(&mut self, range: KeyRange, node: usize, now: SimTime) {
        let overlaps = |a: &KeyRange, b: &KeyRange| {
            a.is_full() || b.is_full() || a.contains(b.end()) || b.contains(a.end())
        };
        self.entries.retain(|(r, _, _)| !overlaps(r, &range));
        self.entries.push((range, node, now));
    }
}

/// Range ends from the top limb, the bottom limb and both ends of the
/// ring, so arcs wrap, touch `Key::MIN`/`Key::MAX` and span the ring.
fn cache_key(rng: &mut StdRng) -> Key {
    match rng.random_range(0..8) {
        0 => Key::MIN,
        1 => Key::MAX,
        2..=3 => Key::from_u64(rng.random_range(0..64)),
        _ => key(rng.random_range(0..64)),
    }
}

/// The sorted, binary-searched cache against the linear scan: random
/// inserts (full ranges included), probes, peeks, node invalidations and
/// clears, under a TTL that entries outlive and a clock that sometimes
/// runs backwards. Every outcome, the hit and miss counts and the length
/// agree after every step.
#[test]
fn cache_matches_linear_scan_model() {
    const TTL: u64 = 100;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let ttl = SimTime::from_secs(TTL);
        let mut cache = LookupCache::new(ttl);
        let mut model = LinearCache {
            entries: Vec::new(),
            ttl,
            hits: 0,
            misses: 0,
        };
        let mut now = SimTime::from_secs(10 * TTL);
        for step in 0..400 {
            // Mostly forward by up to half a TTL, sometimes back by up
            // to two TTLs.
            now = if rng.random_range(0..8) == 0 {
                now.saturating_sub(SimTime::from_secs(rng.random_range(0..2 * TTL)))
            } else {
                now + SimTime::from_secs(rng.random_range(0..TTL / 2))
            };
            let at = format!("seed {seed}, step {step}, now {now:?}");
            match rng.random_range(0..20) {
                0..=6 => {
                    let (a, b) = (cache_key(&mut rng), cache_key(&mut rng));
                    let node = rng.random_range(0..8);
                    cache.insert(KeyRange::new(a, b), node, now);
                    model.insert(KeyRange::new(a, b), node, now);
                }
                7..=13 => {
                    let k = cache_key(&mut rng);
                    assert_eq!(
                        cache.probe(&k, now),
                        model.probe(&k, now),
                        "{at}: probe {k}"
                    );
                }
                14..=16 => {
                    let k = cache_key(&mut rng);
                    assert_eq!(cache.peek(&k, now), model.peek(&k, now), "{at}: peek {k}");
                }
                17..=18 => {
                    let node = rng.random_range(0..8);
                    cache.invalidate_node(node);
                    model.entries.retain(|&(_, n, _)| n != node);
                }
                _ => {
                    if rng.random_range(0..4) == 0 {
                        cache.clear();
                        model.entries.clear();
                    }
                }
            }
            assert_eq!(cache.len(), model.entries.len(), "{at}: len");
            assert_eq!(cache.hits(), model.hits, "{at}: hits");
            assert_eq!(cache.misses(), model.misses, "{at}: misses");
        }
    }
}
