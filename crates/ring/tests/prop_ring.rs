//! Seeded property tests: ring ownership, routing, and load balancing. A
//! failure prints its seed.

use d2_ring::balance::{self, LoadView};
use d2_ring::routing::Router;
use d2_ring::{NodeIdx, Ring};
use d2_types::Key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const SEEDS: u64 = 64;

/// A ring of 2..`max` nodes at distinct random positions.
fn ring(rng: &mut StdRng, max: usize) -> Ring {
    let ids: BTreeSet<u64> = (0..rng.random_range(2..max))
        .map(|_| rng.random())
        .collect();
    let mut ring = Ring::new();
    for id in ids {
        ring.add_node(Key::from_u64_ordered(id));
    }
    ring
}

fn keys(rng: &mut StdRng, max: usize) -> Vec<Key> {
    (0..rng.random_range(1..max))
        .map(|_| Key::from_u64_ordered(rng.random()))
        .collect()
}

/// Every key is owned by exactly one node, and the owner's range
/// contains the key.
#[test]
fn ownership_partitions_ring() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let ring = ring(&mut rng, 24);
        for key in keys(&mut rng, 32) {
            let covering: Vec<NodeIdx> = ring
                .nodes()
                .into_iter()
                .filter(|&n| ring.range_of(n).unwrap().contains(&key))
                .collect();
            assert_eq!(covering, vec![ring.owner_of(&key).unwrap()], "seed {seed}");
        }
    }
}

/// Replica groups are the r clockwise-successive distinct nodes.
#[test]
fn replica_groups_follow_ring_order() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let ring = ring(&mut rng, 16);
        let key = Key::from_u64_ordered(rng.random());
        let r = rng.random_range(1..6);
        let group = ring.replica_group(&key, r);
        assert_eq!(group.len(), r.min(ring.len()), "seed {seed}");
        // First member is the owner; each member is the successor of the
        // previous one.
        assert_eq!(group[0], ring.owner_of(&key).unwrap(), "seed {seed}");
        for w in group.windows(2) {
            assert_eq!(ring.successor(w[0]), Some(w[1]), "seed {seed}");
        }
        // All distinct.
        let distinct: BTreeSet<NodeIdx> = group.iter().copied().collect();
        assert_eq!(distinct.len(), group.len(), "seed {seed}");
    }
}

/// Routed lookups always reach the true owner, from any start.
#[test]
fn routing_always_reaches_owner() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let ring = ring(&mut rng, 40);
        let router = Router::build(&ring, 3);
        let start = ring.node_at_rank(0).unwrap();
        for key in keys(&mut rng, 16) {
            let stats = router.lookup(&ring, start, &key).unwrap();
            assert_eq!(stats.owner, ring.owner_of(&key).unwrap(), "seed {seed}");
            assert!(stats.hops as usize <= ring.len(), "seed {seed}");
        }
    }
}

/// Loads read from a block set by filtering it against each range.
struct MapLoad(BTreeSet<Key>);

impl MapLoad {
    fn owned(&self, ring: &Ring, node: NodeIdx) -> Vec<Key> {
        match ring.range_of(node) {
            Some(r) => self.0.iter().filter(|k| r.contains(k)).copied().collect(),
            None => vec![],
        }
    }
}

impl LoadView for MapLoad {
    fn primary_load(&self, ring: &Ring, node: NodeIdx) -> u64 {
        self.owned(ring, node).len() as u64
    }
    fn split_key(&self, ring: &Ring, node: NodeIdx) -> Option<Key> {
        let ks = self.owned(ring, node);
        if ks.len() < 2 {
            None
        } else {
            Some(ks[ks.len() / 2 - 1])
        }
    }
}

/// After any accepted balance op: (a) total block count is conserved,
/// (b) the mover's new load and the heavy node's remaining load are a
/// nontrivial split of the heavy node's old load.
#[test]
fn balance_ops_split_load() {
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(seed);
        let ring = ring(&mut rng, 12);
        let blocks: BTreeSet<Key> = (0..rng.random_range(8..64))
            .map(|_| Key::from_u64_ordered(rng.random()))
            .collect();
        let total = blocks.len() as u64;
        let loads = MapLoad(blocks);

        let nodes = ring.nodes();
        for &prober in &nodes {
            for &target in &nodes {
                let Some(op) = balance::probe(&ring, &loads, prober, target) else {
                    continue;
                };
                let heavy_before = loads.primary_load(&ring, op.heavy());
                let mut after = ring.clone();
                assert!(balance::apply_to_ring(&mut after, &op), "seed {seed}");
                // Conservation.
                let sum: u64 = after
                    .nodes()
                    .iter()
                    .map(|&n| loads.primary_load(&after, n))
                    .sum();
                assert_eq!(sum, total, "seed {seed}: {op:?}");
                // The heavy node sheds at least one block to the mover.
                assert!(
                    loads.primary_load(&after, op.heavy()) < heavy_before,
                    "seed {seed}: {op:?}"
                );
                assert!(
                    loads.primary_load(&after, op.mover()) >= 1,
                    "seed {seed}: {op:?}"
                );
            }
        }
    }
}
