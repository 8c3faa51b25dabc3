//! Seeded property tests for the per-node store and lookup cache. A
//! failure prints its seed.

use d2_ring::balance::{LoadView, SortedKeys};
use d2_ring::Ring;
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
    PutData(u16, u16),
    RemoveNow(u16),
}

/// Size puts 4 : data puts 2 : removals 3, over a small key space so
/// overwrites are common.
fn random_op(rng: &mut StdRng) -> Op {
    let k = rng.random_range(0..48);
    match rng.random_range(0..9) {
        0..=3 => Op::Put(k, rng.random_range(1..=2048)),
        4..=5 => Op::PutData(k, rng.random_range(0..=64)),
        _ => Op::RemoveNow(k),
    }
}

fn key(k: u16) -> Key {
    Key::from_u64_ordered(k as u64)
}

/// The store's byte counter always equals the sum of stored payload
/// lengths, across puts, overwrites and removals.
#[test]
fn store_accounting_is_exact() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = NodeStore::new();
        let mut model: BTreeMap<Key, (u32, SimTime)> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        for step in 0..rng.random_range(1..120) {
            let op = random_op(&mut rng);
            let at = format!("seed {seed}, step {step} ({op:?})");
            now += SimTime::from_secs(10);
            match op {
                Op::Put(k, len) => {
                    let old = store.put(key(k), Payload::Size(len as u32), now);
                    let was = model.insert(key(k), (len as u32, now));
                    assert_eq!(old.map(|b| (b.payload.len(), b.stored_at)), was, "{at}");
                }
                Op::PutData(k, len) => {
                    let old = store.put(key(k), Payload::Data(vec![7; len as usize]), now);
                    let was = model.insert(key(k), (len as u32, now));
                    assert_eq!(old.map(|b| (b.payload.len(), b.stored_at)), was, "{at}");
                }
                Op::RemoveNow(k) => {
                    let got = store.remove_now(&key(k));
                    let was = model.remove(&key(k));
                    assert_eq!(got.map(|b| (b.payload.len(), b.stored_at)), was, "{at}");
                }
            }
            let expect: u64 = model.values().map(|&(len, _)| len as u64).sum();
            assert_eq!(store.bytes(), expect, "{at}: byte counter drifted");
            assert_eq!(store.len(), model.len(), "{at}");
            for (k, &(len, stored_at)) in &model {
                let got = store.get(k).map(|b| (b.payload.len(), b.stored_at));
                assert_eq!(got, Some((len, stored_at)), "{at}: {k}");
            }
        }
    }
}

/// A range endpoint: a stored key, a random key, or an end of the ring,
/// so ranges wrap, start or end exactly on a block, and span the ring
/// (equal endpoints).
fn range_end(rng: &mut StdRng, stored: &[Key]) -> Key {
    match rng.random_range(0..8) {
        0 => Key::MIN,
        1 => Key::MAX,
        2..=4 if !stored.is_empty() => stored[rng.random_range(0..stored.len())],
        _ => key(rng.random_range(0..1024)),
    }
}

/// `keys_in`, `count_in` and `split_key_in` against a linear
/// `KeyRange::contains` filter over every stored key. Keys come in ring
/// order from the range's start (a wrapping arc lists `(start, MAX]`
/// before `[MIN, end]`; the full ring lists them in key order), and the
/// split point is the last key of the first half.
#[test]
fn range_queries_match_a_linear_filter() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = NodeStore::new();
        for _ in 0..rng.random_range(0..96) {
            store.put(
                key(rng.random_range(0..1024)),
                Payload::Size(1),
                SimTime::ZERO,
            );
        }
        let stored: Vec<Key> = store.iter().map(|(k, _)| *k).collect();
        for probe in 0..64 {
            let range = match rng.random_range(0..16) {
                0 => KeyRange::full(),
                1 => {
                    let k = range_end(&mut rng, &stored);
                    KeyRange::new(k, k)
                }
                _ => KeyRange::new(range_end(&mut rng, &stored), range_end(&mut rng, &stored)),
            };
            let at = format!("seed {seed}, probe {probe}, range {range:?}");
            let after_start = |k: &Key| range.is_full() || k > range.start();
            let mut expect: Vec<Key> = stored
                .iter()
                .copied()
                .filter(|k| range.contains(k))
                .collect();
            expect.sort_by_key(|k| !after_start(k));
            assert_eq!(store.keys_in(&range), expect, "{at}: keys_in");
            assert_eq!(
                store.count_in(&range),
                expect.len() as u64,
                "{at}: count_in"
            );
            let split = (expect.len() >= 2).then(|| expect[expect.len() / 2 - 1]);
            assert_eq!(store.split_key_in(&range), split, "{at}: split_key_in");
        }
    }
}

/// `d2-ring`'s sorted-key load view against a store holding the same
/// keys: on random key sets and random rings, each node's
/// `primary_load`/`split_key` equal `count_in`/`split_key_in` over its
/// range. Node positions come from [`range_end`], so ranges wrap, start
/// or end on a stored key, and a one-node ring spans the whole ring; key
/// sets are sometimes tiny, so ranges hold 0, 1 and 2 keys. The test
/// counts each of those cases and fails if one never came up.
#[test]
fn sorted_key_view_matches_the_store() {
    let mut seen = [0u32; 6]; // full, wrapping, on a stored key, 0, 1, 2 keys
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = NodeStore::new();
        let keys = if rng.random_bool(0.25) { 4 } else { 96 };
        for _ in 0..rng.random_range(0..keys) {
            store.put(
                key(rng.random_range(0..1024)),
                Payload::Size(1),
                SimTime::ZERO,
            );
        }
        let stored: Vec<Key> = store.iter().map(|(k, _)| *k).collect();
        let loads = SortedKeys::new(&stored);
        let ids: BTreeSet<Key> = (0..rng.random_range(1..=12))
            .map(|_| range_end(&mut rng, &stored))
            .collect();
        let mut ring = Ring::new();
        for id in ids {
            ring.add_node(id);
        }
        for node in ring.nodes() {
            let range = ring.range_of(node).unwrap();
            let at = format!("seed {seed}, {} nodes, range {range:?}", ring.len());
            let count = store.count_in(&range);
            assert_eq!(loads.primary_load(&ring, node), count, "{at}");
            let split = loads.split_key(&ring, node);
            assert_eq!(split, store.split_key_in(&range), "{at}");
            let cases = [
                range.is_full(),
                !range.is_full() && range.start() >= range.end(),
                stored.contains(range.start()) || stored.contains(range.end()),
                count == 0,
                count == 1,
                count == 2,
            ];
            for (n, case) in seen.iter_mut().zip(cases) {
                *n += case as u32;
            }
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "a case never came up: {seen:?}"
    );
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
