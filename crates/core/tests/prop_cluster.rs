//! Seeded property test: the replication invariant survives arbitrary
//! interleavings of writes, removals, failures, recoveries, balance
//! rounds, and pointer resolution.
//!
//! Invariants checked after every step:
//! 1. every live tracked block is held by every *live* member of its
//!    replica group (as data or pointer);
//! 2. no node holds a block it has no reason to hold (not in group, not
//!    a referenced pointer target);
//! 3. any block with at least one live real copy is reported available;
//! 4. `holders_of(key)` is exactly the set of stores containing the key
//!    (the index and the stores move in step).
//!
//! Hand-rolled splitmix64 instead of proptest so the test also runs in
//! the offline build, where proptest is not available.

use d2_core::{ClusterConfig, SimCluster, SystemKind};
use d2_ring::NodeIdx;
use d2_sim::SimTime;
use d2_store::Payload;
use d2_types::Key;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[derive(Clone, Copy, Debug)]
enum Step {
    Put(u16),
    Remove(u16),
    NodeDown(u8),
    NodeUp(u8),
    Balance,
    ResolvePointers,
}

/// Writes 4 : removals 2 : crashes 1 : recoveries 2 : balance rounds 2 :
/// pointer resolution 1.
fn random_step(rng: &mut Rng) -> Step {
    let arg = rng.next();
    match rng.next() % 12 {
        0..=3 => Step::Put(arg as u16),
        4..=5 => Step::Remove(arg as u16),
        6 => Step::NodeDown(arg as u8),
        7..=8 => Step::NodeUp(arg as u8),
        9..=10 => Step::Balance,
        _ => Step::ResolvePointers,
    }
}

fn key_of(k: u16) -> Key {
    // Clustered keys (the D2 regime): all blocks inside 3% of the ring.
    Key::from_fraction(0.4 + 0.03 * (k as f64 / u16::MAX as f64))
}

fn check_invariants(c: &SimCluster, tracked: &[(Key, bool)], now: SimTime, at: &str) {
    for &(key, live) in tracked {
        // (4) the index agrees with the stores, for removed blocks too.
        let mut indexed: Vec<NodeIdx> = c.holders_of(&key).into_iter().collect();
        indexed.sort_unstable();
        let stored: Vec<NodeIdx> = (0..c.len())
            .map(NodeIdx)
            .filter(|n| c.stores[n.0].contains(&key))
            .collect();
        assert_eq!(indexed, stored, "{at}: index and stores disagree on {key}");
        if !live {
            continue;
        }
        let group = c.ring.replica_group(&key, c.cfg.replicas);
        // (1) every live group member holds the block — provided a live,
        // *arrived* source existed for the repair pass to copy from (a
        // cancelled in-flight transfer may legitimately leave a gap until
        // a copy arrives or a holder recovers).
        let repairable = (0..c.len()).map(NodeIdx).any(|n| {
            c.node_up[n.0]
                && c.stores[n.0]
                    .get(&key)
                    .map(|b| !b.payload.is_pointer() && b.stored_at <= c.now)
                    .unwrap_or(false)
        });
        for member in &group {
            if c.node_up[member.0] && repairable {
                assert!(
                    c.stores[member.0].contains(&key),
                    "{at}: live group member {member} missing {key}"
                );
            }
        }
        // (2) stray holders must be pointer targets or down nodes
        // (down nodes keep data on disk).
        let holders = stored;
        let referenced: Vec<usize> = holders
            .iter()
            .filter_map(|h| match c.stores[h.0].get(&key).map(|b| &b.payload) {
                Some(Payload::Pointer { holder, .. }) => Some(*holder),
                _ => None,
            })
            .collect();
        // Stray holders are only possible while the key is unrepairable
        // (no live arrived source — e.g. the stray's own copy is still in
        // flight), since a repair pass releases them.
        for h in &holders {
            assert!(
                group.contains(h) || referenced.contains(&h.0) || !c.node_up[h.0] || !repairable,
                "{at}: stray live holder {h} for {key}"
            );
        }
        // (3) availability is consistent with physical copies.
        let has_live_copy = holders.iter().any(|h| {
            c.node_up[h.0]
                && matches!(
                    c.stores[h.0].get(&key).map(|b| (&b.payload, b.stored_at)),
                    Some((Payload::Data(_) | Payload::Size(_), at)) if at <= now
                )
        });
        if has_live_copy {
            assert!(
                c.is_available(&key, now),
                "{at}: live copy exists but unavailable: {key}"
            );
        }
    }
}

#[test]
fn replication_invariant_under_chaos() {
    for seed in 0..256u64 {
        let mut rng = Rng(seed);
        let cfg = ClusterConfig {
            nodes: 12,
            replicas: 3,
            seed: 77,
            ..Default::default()
        };
        let mut c = SimCluster::new(SystemKind::D2, &cfg);
        let n = c.len();
        let mut tracked: Vec<(Key, bool)> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut last_ids: Vec<Key> = (0..n).map(|i| c.ring.id_of(NodeIdx(i)).unwrap()).collect();

        let steps = 1 + rng.next() % 60;
        for i in 0..steps {
            let step = random_step(&mut rng);
            now += SimTime::from_secs(120);
            c.now = now;
            match step {
                Step::Put(k) => {
                    let key = key_of(k);
                    // Only write when the owner chain has a live node.
                    if !c.ring.is_empty() {
                        c.put_block(key, 8192, now);
                        if let Some(e) = tracked.iter_mut().find(|(t, _)| *t == key) {
                            e.1 = true;
                        } else {
                            tracked.push((key, true));
                        }
                    }
                }
                Step::Remove(k) => {
                    let key = key_of(k);
                    c.remove_block(&key, now);
                    if let Some(e) = tracked.iter_mut().find(|(t, _)| *t == key) {
                        e.1 = false;
                    }
                }
                Step::NodeDown(i) => {
                    let node = NodeIdx(i as usize % n);
                    // Keep a live majority so data never fully vanishes.
                    let live = c.node_up.iter().filter(|&&u| u).count();
                    if live > n / 2 {
                        if let Some(id) = c.ring.id_of(node) {
                            last_ids[node.0] = id;
                        }
                        c.node_down(node, now);
                    }
                }
                Step::NodeUp(i) => {
                    let node = NodeIdx(i as usize % n);
                    if !c.node_up[node.0] {
                        c.node_up_at(node, last_ids[node.0], now);
                    }
                }
                Step::Balance => {
                    c.run_balance_round(now, false);
                }
                Step::ResolvePointers => {
                    now += c.cfg.pointer_stabilization;
                    c.now = now;
                    c.resolve_stale_pointers(now);
                }
            }
            // Periodic repair pass (the availability simulator runs this
            // every maintenance tick).
            c.resync_all(now);
            // Far-future availability check time: in-flight regeneration
            // transfers count as arrived.
            let at = format!("seed {seed}, step {i} ({step:?})");
            check_invariants(&c, &tracked, SimTime(u64::MAX), &at);
        }
    }
}
