//! Active load balancing (paper Section 6).
//!
//! D2 cannot rely on consistent hashing for storage balance because its
//! key distribution follows the (highly non-uniform) file name space. It
//! instead runs the Karger–Ruhl item-balancing algorithm as implemented by
//! Mercury: every *probe interval*, each node `B` contacts a random node
//! `A`; if `load(A) > t · load(B)` (the paper uses `t = 4`), `B` leaves the
//! ring and rejoins as `A`'s predecessor at the key that splits `A`'s
//! primary blocks in half.
//!
//! Only *primary* replica count is used as the load value — ID changes only
//! directly affect primary ranges, and balancing primaries balances total
//! load by the `r·max / r·min` argument in the paper's footnote 3.
//!
//! This module computes the balancing *decisions* ([`BalanceOp`]); applying
//! them — moving ring positions, migrating blocks or installing block
//! pointers — is done by the store layer, which knows where the data is.

use crate::ring::{NodeIdx, Ring};
use d2_types::Key;

/// A view of per-node storage load, provided by the store layer.
pub trait LoadView {
    /// Number of primary blocks currently assigned to `node`.
    fn primary_load(&self, node: NodeIdx) -> u64;

    /// A key `m` inside `node`'s range such that about half of the node's
    /// primary blocks have keys ≤ `m`. `None` if the node has fewer than
    /// two blocks (nothing to split).
    fn split_key(&self, node: NodeIdx) -> Option<Key>;
}

/// Load-ratio trigger `t`: the paper uses 4, guaranteeing steady-state
/// node loads within a factor of 4 of each other.
pub const THRESHOLD: f64 = 4.0;

/// Probes against nodes with fewer blocks than this are ignored
/// (splitting a near-empty node is pointless churn).
const MIN_SPLIT_LOAD: u64 = 2;

/// A balancing decision: the light node moves to split the heavy node's
/// load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalanceOp {
    /// `light` leaves its current position (shedding its blocks to its old
    /// successor) and rejoins at `new_id`, immediately before `heavy`,
    /// taking over the keys in `(pred(heavy), new_id]`.
    Relocate {
        /// The probing, lightly loaded node that moves.
        light: NodeIdx,
        /// Its position before the move.
        old_id: Key,
        /// Its new position: the heavy node's load median.
        new_id: Key,
        /// The overloaded node being split.
        heavy: NodeIdx,
    },
    /// `light` is already `heavy`'s predecessor, so no leave/rejoin is
    /// needed: it just advances its ID to absorb half of `heavy`'s load.
    ShiftBoundary {
        /// The predecessor node absorbing load.
        light: NodeIdx,
        /// Its position before the shift.
        old_id: Key,
        /// Its new position (clockwise of `old_id`).
        new_id: Key,
        /// The overloaded successor shedding load.
        heavy: NodeIdx,
    },
}

impl BalanceOp {
    /// The node whose ID changes.
    pub fn mover(&self) -> NodeIdx {
        match self {
            BalanceOp::Relocate { light, .. } | BalanceOp::ShiftBoundary { light, .. } => *light,
        }
    }

    /// The node being relieved of load.
    pub fn heavy(&self) -> NodeIdx {
        match self {
            BalanceOp::Relocate { heavy, .. } | BalanceOp::ShiftBoundary { heavy, .. } => *heavy,
        }
    }

    /// The mover's new ring position.
    pub fn new_id(&self) -> Key {
        match self {
            BalanceOp::Relocate { new_id, .. } | BalanceOp::ShiftBoundary { new_id, .. } => *new_id,
        }
    }
}

/// One probe by `prober` against `target`: decides whether the prober
/// should move, per Section 6. Returns `None` when the loads are within
/// the threshold or a valid split point does not exist.
pub fn probe(
    ring: &Ring,
    loads: &dyn LoadView,
    prober: NodeIdx,
    target: NodeIdx,
) -> Option<BalanceOp> {
    if prober == target || !ring.contains(prober) || !ring.contains(target) {
        return None;
    }
    let load_b = loads.primary_load(prober);
    let load_a = loads.primary_load(target);
    if load_a < MIN_SPLIT_LOAD {
        return None;
    }
    if (load_a as f64) <= THRESHOLD * (load_b as f64) {
        return None;
    }
    let new_id = loads.split_key(target)?;
    let target_id = ring.id_of(target)?;
    let old_id = ring.id_of(prober)?;
    if new_id == target_id || new_id == old_id {
        return None;
    }
    // The split key must lie strictly inside the heavy node's range.
    let range = ring.range_of(target)?;
    if !range.contains(&new_id) {
        return None;
    }
    if ring.predecessor(target) == Some(prober) {
        Some(BalanceOp::ShiftBoundary {
            light: prober,
            old_id,
            new_id,
            heavy: target,
        })
    } else {
        Some(BalanceOp::Relocate {
            light: prober,
            old_id,
            new_id,
            heavy: target,
        })
    }
}

/// Applies the ring-position part of `op` (the store layer migrates data
/// separately). Returns `false` if the new position is occupied, in which
/// case the op should be dropped.
pub fn apply_to_ring(ring: &mut Ring, op: &BalanceOp) -> bool {
    ring.move_node(op.mover(), op.new_id())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    /// A toy store: blocks keyed on the ring, loads derived from ownership.
    struct ToyStore {
        blocks: BTreeMap<Key, ()>,
        ring: Ring,
    }

    impl ToyStore {
        fn owned_keys(&self, node: NodeIdx) -> Vec<Key> {
            let Some(range) = self.ring.range_of(node) else {
                return vec![];
            };
            self.blocks
                .keys()
                .filter(|k| range.contains(k))
                .copied()
                .collect()
        }
    }

    impl LoadView for ToyStore {
        fn primary_load(&self, node: NodeIdx) -> u64 {
            self.owned_keys(node).len() as u64
        }
        fn split_key(&self, node: NodeIdx) -> Option<Key> {
            let keys = self.owned_keys(node);
            if keys.len() < 2 {
                return None;
            }
            Some(keys[keys.len() / 2 - 1])
        }
    }

    fn setup(node_fracs: &[f64], block_fracs: &[f64]) -> (ToyStore, Vec<NodeIdx>) {
        let mut ring = Ring::new();
        let idxs: Vec<_> = node_fracs
            .iter()
            .map(|&f| ring.add_node(Key::from_fraction(f)))
            .collect();
        let blocks = block_fracs
            .iter()
            .map(|&f| (Key::from_fraction(f), ()))
            .collect();
        (ToyStore { blocks, ring }, idxs)
    }

    #[test]
    fn probe_triggers_on_imbalance() {
        // Node at 0.9 owns (0.5, 0.9] with 8 blocks; node at 0.5 owns 0.
        let blocks: Vec<f64> = (0..8).map(|i| 0.55 + i as f64 * 0.04).collect();
        let (store, idx) = setup(&[0.5, 0.9], &blocks);
        let op = probe(&store.ring, &store, idx[0], idx[1]);
        let op = op.expect("imbalance 8:0 must trigger");
        // idx0 is the predecessor of idx1 -> boundary shift.
        assert!(matches!(op, BalanceOp::ShiftBoundary { .. }));
        assert_eq!(op.mover(), idx[0]);
        assert_eq!(op.heavy(), idx[1]);
        // New id splits the 8 blocks: 4 on each side.
        assert!(op.new_id() >= Key::from_fraction(0.55));
        assert!(op.new_id() < Key::from_fraction(0.9));
    }

    #[test]
    fn probe_respects_threshold() {
        // 4 blocks vs 2 blocks: ratio 2 < 4, no move.
        let (store, idx) = setup(&[0.5, 0.9], &[0.1, 0.2, 0.55, 0.6, 0.7, 0.8]);
        assert_eq!(store.primary_load(idx[0]), 2);
        assert_eq!(store.primary_load(idx[1]), 4);
        assert!(probe(&store.ring, &store, idx[0], idx[1]).is_none());
    }

    #[test]
    fn distant_light_node_relocates() {
        let blocks: Vec<f64> = (0..10).map(|i| 0.41 + i as f64 * 0.01).collect();
        let (store, idx) = setup(&[0.1, 0.2, 0.6], &blocks);
        // idx1 (owns (0.1,0.2], empty) probes idx2 (owns (0.2,0.6], 10 blocks).
        // idx1 IS the predecessor though. Use idx0 which is not.
        let op = probe(&store.ring, &store, idx[0], idx[2]).unwrap();
        assert!(matches!(op, BalanceOp::Relocate { .. }));
    }

    #[test]
    fn self_probe_is_noop() {
        let (store, idx) = setup(&[0.5], &[0.1, 0.2]);
        assert!(probe(&store.ring, &store, idx[0], idx[0]).is_none());
    }

    #[test]
    fn rounds_converge_to_factor_t() {
        // 32 nodes uniformly placed, all 512 blocks crammed into 5% of the
        // key space — the defragmented-file-system distribution.
        let mut ring = Ring::new();
        let idxs: Vec<_> = (0..32)
            .map(|i| ring.add_node(Key::from_fraction(i as f64 / 32.0)))
            .collect();
        let blocks: BTreeMap<Key, ()> = (0..512)
            .map(|i| (Key::from_fraction(0.40 + 0.05 * i as f64 / 512.0), ()))
            .collect();
        let mut store = ToyStore { blocks, ring };
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);

        // Each round, every node probes one random node, in random order.
        for _round in 0..40 {
            let mut nodes = store.ring.nodes();
            nodes.shuffle(&mut rng);
            for prober in nodes {
                let target = store.ring.random_node(&mut rng).unwrap();
                if let Some(op) = probe(&store.ring, &store, prober, target) {
                    apply_to_ring(&mut store.ring, &op);
                }
            }
        }
        let loads: Vec<u64> = idxs.iter().map(|&i| store.primary_load(i)).collect();
        let max = *loads.iter().max().unwrap();
        let nonzero_min = loads.iter().copied().filter(|&l| l > 0).min().unwrap();
        // Steady state: max/min within the guaranteed constant factor
        // (paper: factor of 4 for t=4; allow slack for integer splits).
        assert!(
            max <= 8 * nonzero_min.max(1),
            "loads did not converge: max={max} min={nonzero_min} loads={loads:?}"
        );
        // The mean load is 16; max should be within a small factor.
        assert!(max <= 64, "max load {max} too far from mean 16");
    }

    #[test]
    fn apply_moves_ring_position() {
        let blocks: Vec<f64> = (0..8).map(|i| 0.55 + i as f64 * 0.04).collect();
        let (mut store, idx) = setup(&[0.5, 0.9], &blocks);
        let op = probe(&store.ring, &store, idx[0], idx[1]).unwrap();
        assert!(apply_to_ring(&mut store.ring, &op));
        assert_eq!(store.ring.id_of(idx[0]), Some(op.new_id()));
        // Loads are now split roughly in half.
        let a = store.primary_load(idx[0]);
        let b = store.primary_load(idx[1]);
        assert_eq!(a + b, 8);
        assert!(a >= 3 && b >= 3, "split {a}/{b} should be near-even");
    }
}
