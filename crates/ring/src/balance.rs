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
//! This module decides and applies the ring-position part of balancing:
//! [`probe`] decides one move ([`BalanceOp`]) and a [`Round`] runs one
//! probe interval's loop — shuffle the live nodes, draw each prober's
//! target, probe, move — which exists only here. Loads come from a
//! [`LoadView`], of which there are two: `d2-core`'s cluster counts the
//! keys each node's store holds in its range, and migrates data after
//! each move; [`SortedKeys`] counts a fixed sorted key set, which is
//! what every store holds in a ring without failures or writes, and has
//! no data to move.

use crate::ring::{NodeIdx, Ring};
use d2_types::{Key, KeyRange};
use rand::seq::SliceRandom;
use rand::Rng;

/// A view of per-node storage load: a cluster's stores, or
/// [`SortedKeys`]. Each call reads the node's range from `ring`.
pub trait LoadView {
    /// Number of primary blocks currently assigned to `node`.
    fn primary_load(&self, ring: &Ring, node: NodeIdx) -> u64;

    /// A key `m` inside `node`'s range such that about half of the node's
    /// primary blocks have keys ≤ `m`. `None` if the node has fewer than
    /// two blocks (nothing to split).
    fn split_key(&self, ring: &Ring, node: NodeIdx) -> Option<Key>;
}

/// The load of a ring whose every node holds exactly the keys of one
/// sorted set that fall in its range — a ring with no failures, writes
/// or removals, such as a warm-up. Each answer is two binary searches.
#[derive(Clone, Copy, Debug)]
pub struct SortedKeys<'a>(&'a [Key]);

impl<'a> SortedKeys<'a> {
    /// A view over `keys`, which must be strictly ascending.
    pub fn new(keys: &'a [Key]) -> SortedKeys<'a> {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys not sorted");
        SortedKeys(keys)
    }

    /// The keys inside `range`, in ring order from its start, as two
    /// runs: a wrapping arc is `(start, MAX]` then `[MIN, end]`, and the
    /// full ring every key from [`Key::MIN`] (as a node's store orders
    /// them).
    fn in_range(&self, range: &KeyRange) -> (&'a [Key], &'a [Key]) {
        let keys = self.0;
        if range.is_full() {
            return (keys, &[]);
        }
        let after = |bound: &Key| keys.partition_point(|k| k <= bound);
        let (lo, hi) = (after(range.start()), after(range.end()));
        if range.start() < range.end() {
            (&keys[lo..hi], &[])
        } else {
            (&keys[lo..], &keys[..hi])
        }
    }
}

impl LoadView for SortedKeys<'_> {
    fn primary_load(&self, ring: &Ring, node: NodeIdx) -> u64 {
        let Some(range) = ring.range_of(node) else {
            return 0;
        };
        let (head, tail) = self.in_range(&range);
        (head.len() + tail.len()) as u64
    }

    fn split_key(&self, ring: &Ring, node: NodeIdx) -> Option<Key> {
        let (head, tail) = self.in_range(&ring.range_of(node)?);
        let n = head.len() + tail.len();
        if n < 2 {
            return None;
        }
        head.iter().chain(tail).nth(n / 2 - 1).copied()
    }
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
    let load_b = loads.primary_load(ring, prober);
    let load_a = loads.primary_load(ring, target);
    if load_a < MIN_SPLIT_LOAD {
        return None;
    }
    if (load_a as f64) <= THRESHOLD * (load_b as f64) {
        return None;
    }
    let new_id = loads.split_key(ring, target)?;
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

/// One balancing round in progress: every live node, in random order,
/// probes one uniformly random live node, and a move it decides is
/// applied to the ring before the next node probes. A caller that
/// migrates data steps it with [`Round::next_move`], moving the data
/// after each move; [`run_round`] runs it to the end.
#[derive(Debug)]
pub struct Round {
    probers: std::vec::IntoIter<NodeIdx>,
}

impl Round {
    /// Starts a round over `ring`'s live nodes, shuffled by `rng`.
    pub fn new<R: Rng + ?Sized>(ring: &Ring, rng: &mut R) -> Round {
        let mut probers = ring.nodes();
        probers.shuffle(rng);
        Round {
            probers: probers.into_iter(),
        }
    }

    /// Runs the round's probes until one moves a node, and returns that
    /// move, already applied to `ring`; `None` once every node has
    /// probed.
    pub fn next_move<R: Rng + ?Sized>(
        &mut self,
        ring: &mut Ring,
        loads: &dyn LoadView,
        rng: &mut R,
    ) -> Option<BalanceOp> {
        for prober in self.probers.by_ref() {
            if !ring.contains(prober) {
                continue;
            }
            let Some(target) = ring.random_node(rng) else {
                continue;
            };
            let Some(op) = probe(ring, loads, prober, target) else {
                continue;
            };
            if apply_to_ring(ring, &op) {
                return Some(op);
            }
        }
        None
    }
}

/// Runs one whole [`Round`] on `ring`, reading loads from `loads`, and
/// returns the number of moves.
pub fn run_round<R: Rng + ?Sized>(ring: &mut Ring, loads: &dyn LoadView, rng: &mut R) -> usize {
    let mut round = Round::new(ring, rng);
    std::iter::from_fn(|| round.next_move(ring, loads, rng)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A ring of nodes at `node_fracs` holding blocks at `block_fracs`.
    fn setup(node_fracs: &[f64], block_fracs: &[f64]) -> (Ring, Vec<NodeIdx>, Vec<Key>) {
        let mut ring = Ring::new();
        let idxs = node_fracs
            .iter()
            .map(|&f| ring.add_node(Key::from_fraction(f)))
            .collect();
        let mut blocks: Vec<Key> = block_fracs.iter().map(|&f| Key::from_fraction(f)).collect();
        blocks.sort_unstable();
        (ring, idxs, blocks)
    }

    #[test]
    fn probe_triggers_on_imbalance() {
        // Node at 0.9 owns (0.5, 0.9] with 8 blocks; node at 0.5 owns 0.
        let blocks: Vec<f64> = (0..8).map(|i| 0.55 + i as f64 * 0.04).collect();
        let (ring, idx, blocks) = setup(&[0.5, 0.9], &blocks);
        let op = probe(&ring, &SortedKeys::new(&blocks), idx[0], idx[1]);
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
        let (ring, idx, blocks) = setup(&[0.5, 0.9], &[0.1, 0.2, 0.55, 0.6, 0.7, 0.8]);
        let loads = SortedKeys::new(&blocks);
        assert_eq!(loads.primary_load(&ring, idx[0]), 2);
        assert_eq!(loads.primary_load(&ring, idx[1]), 4);
        assert!(probe(&ring, &loads, idx[0], idx[1]).is_none());
    }

    #[test]
    fn distant_light_node_relocates() {
        let blocks: Vec<f64> = (0..10).map(|i| 0.41 + i as f64 * 0.01).collect();
        let (ring, idx, blocks) = setup(&[0.1, 0.2, 0.6], &blocks);
        // idx1 (owns (0.1,0.2], empty) probes idx2 (owns (0.2,0.6], 10 blocks).
        // idx1 IS the predecessor though. Use idx0 which is not.
        let op = probe(&ring, &SortedKeys::new(&blocks), idx[0], idx[2]).unwrap();
        assert!(matches!(op, BalanceOp::Relocate { .. }));
    }

    #[test]
    fn self_probe_is_noop() {
        let (ring, idx, blocks) = setup(&[0.5], &[0.1, 0.2]);
        assert!(probe(&ring, &SortedKeys::new(&blocks), idx[0], idx[0]).is_none());
    }

    #[test]
    fn rounds_converge_to_factor_t() {
        // 32 nodes uniformly placed, all 512 blocks crammed into 5% of the
        // key space — the defragmented-file-system distribution.
        let fracs: Vec<f64> = (0..32).map(|i| i as f64 / 32.0).collect();
        let blocks: Vec<f64> = (0..512).map(|i| 0.40 + 0.05 * i as f64 / 512.0).collect();
        let (mut ring, idxs, blocks) = setup(&fracs, &blocks);
        let loads = SortedKeys::new(&blocks);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);

        let moves: usize = (0..40)
            .map(|_| run_round(&mut ring, &loads, &mut rng))
            .sum();
        assert!(moves > 0);
        let loads: Vec<u64> = idxs.iter().map(|&i| loads.primary_load(&ring, i)).collect();
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
        let (mut ring, idx, blocks) = setup(&[0.5, 0.9], &blocks);
        let loads = SortedKeys::new(&blocks);
        let op = probe(&ring, &loads, idx[0], idx[1]).unwrap();
        assert!(apply_to_ring(&mut ring, &op));
        assert_eq!(ring.id_of(idx[0]), Some(op.new_id()));
        // Loads are now split roughly in half.
        let a = loads.primary_load(&ring, idx[0]);
        let b = loads.primary_load(&ring, idx[1]);
        assert_eq!(a + b, 8);
        assert!(a >= 3 && b >= 3, "split {a}/{b} should be near-even");
    }
}
