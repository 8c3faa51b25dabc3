//! Seeded property tests: ring membership against a reference model,
//! ownership, routing, and load balancing. A failure prints its seed.

use d2_ring::balance::{self, LoadView};
use d2_ring::routing::Router;
use d2_ring::{NodeIdx, Ring};
use d2_types::{Key, KeyRange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

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

/// The ring against a `BTreeMap` reference under random joins (at
/// occupied positions too), leaves and moves (onto occupied positions
/// too): every query agrees after every step, and `random_node` makes
/// the same draw.
#[test]
fn ring_matches_btreemap_model() {
    for seed in 0..SEEDS / 2 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut ring, mut model) = (Ring::new(), BTreeMap::<Key, NodeIdx>::new());
        let mut ids: Vec<Option<Key>> = Vec::new();
        // Positions from a small pool, so collisions happen.
        let pool: Vec<Key> = (0..12)
            .map(|_| Key::from_u64_ordered(rng.random()))
            .collect();
        let pick = |rng: &mut StdRng| pool[rng.random_range(0..pool.len())];
        for step in 0..150 {
            let at = format!("seed {seed}, step {step}");
            let id = pick(&mut rng);
            match rng.random_range(0..4) {
                0 if !model.contains_key(&id) => {
                    let idx = ring.add_node(id);
                    assert_eq!(idx, NodeIdx(ids.len()), "{at}");
                    model.insert(id, idx);
                    ids.push(Some(id));
                }
                1 => {
                    let idx = NodeIdx(ids.len());
                    assert_eq!(ring.add_offline_node(), idx, "{at}");
                    ids.push(None);
                    let placed = !model.contains_key(&id);
                    assert_eq!(ring.add_node_at(idx, id), placed, "{at}");
                    if placed {
                        model.insert(id, idx);
                        ids[idx.0] = Some(id);
                    }
                }
                2 if !ids.is_empty() => {
                    let idx = NodeIdx(rng.random_range(0..ids.len()));
                    let old = ids[idx.0].take();
                    assert_eq!(ring.remove_node(idx), old, "{at}");
                    if let Some(old) = old {
                        model.remove(&old);
                    }
                }
                3 if !ids.is_empty() => {
                    let idx = NodeIdx(rng.random_range(0..ids.len()));
                    let moved = match ids[idx.0] {
                        Some(old) if old == id => true,
                        Some(old) if !model.contains_key(&id) => {
                            model.remove(&old);
                            model.insert(id, idx);
                            ids[idx.0] = Some(id);
                            true
                        }
                        _ => false,
                    };
                    assert_eq!(ring.move_node(idx, id), moved, "{at}");
                }
                _ => {}
            }
            check_against_model(&ring, &model, &ids, &mut rng, &at);
        }
    }
}

/// Every query of `ring` reads what the reference answers.
fn check_against_model(
    ring: &Ring,
    model: &BTreeMap<Key, NodeIdx>,
    ids: &[Option<Key>],
    rng: &mut StdRng,
    at: &str,
) {
    let order: Vec<NodeIdx> = model.values().copied().collect();
    let n = order.len();
    assert_eq!(ring.len(), n, "{at}");
    assert_eq!(ring.capacity(), ids.len(), "{at}");
    assert_eq!(ring.nodes(), order, "{at}");
    assert_eq!(ring.first_node(), order.first().copied(), "{at}");
    let pairs: Vec<(Key, NodeIdx)> = model.iter().map(|(&k, &i)| (k, i)).collect();
    let got: Vec<(Key, NodeIdx)> = ring.iter().map(|(&k, &i)| (k, i)).collect();
    assert_eq!(got, pairs, "{at}");
    let owner = |key: &Key| {
        model
            .range(key..)
            .chain(model.iter())
            .next()
            .map(|(_, &i)| i)
    };
    // Probe on both sides of every member and at random keys.
    let mut probes: Vec<Key> = (0..8)
        .map(|_| Key::from_u64_ordered(rng.random()))
        .collect();
    probes.extend(model.keys().flat_map(|k| [*k, k.successor_point()]));
    for key in &probes {
        assert_eq!(ring.owner_of(key), owner(key), "{at}: key {key}");
        for r in [0, 1, 3, n, n + 1] {
            let mut want: Vec<NodeIdx> = Vec::new();
            for (_, &i) in model.range(key..).chain(model.iter()) {
                if want.len() == r.min(n) {
                    break;
                }
                if !want.contains(&i) {
                    want.push(i);
                }
            }
            assert_eq!(ring.replica_group(key, r), want, "{at}: key {key}, r {r}");
        }
    }
    for (i, id) in ids.iter().enumerate() {
        let idx = NodeIdx(i);
        assert_eq!(ring.id_of(idx), *id, "{at}: {idx}");
        let rank = id.map(|id| model.range(..id).count());
        assert_eq!(ring.rank_of(idx), rank, "{at}: {idx}");
        let succ = rank.map(|r| order[(r + 1) % n]);
        let pred = rank.map(|r| order[(r + n - 1) % n]);
        assert_eq!(ring.successor(idx), succ, "{at}: {idx}");
        assert_eq!(ring.predecessor(idx), pred, "{at}: {idx}");
        let range = id.zip(pred).map(|(id, p)| match p == idx {
            true => KeyRange::full(),
            false => KeyRange::new(ids[p.0].expect("a ring member has a position"), id),
        });
        assert_eq!(ring.range_of(idx), range, "{at}: {idx}");
    }
    for r in 0..2 * n + 1 {
        assert_eq!(
            ring.node_at_rank(r),
            order.get(r % n.max(1)).copied(),
            "{at}: rank {r}"
        );
    }
    let draw = rng.random();
    let (mut a, mut b) = (StdRng::seed_from_u64(draw), StdRng::seed_from_u64(draw));
    for _ in 0..4 {
        let want = (n > 0).then(|| order[b.random_range(0..n)]);
        assert_eq!(ring.random_node(&mut a), want, "{at}");
    }
}
