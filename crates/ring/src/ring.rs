//! Authoritative ring membership and ownership.
//!
//! [`Ring`] is the global view of node positions that the paper's
//! simulators maintain (they model "all facets of D2 except DHT routing",
//! Section 8.1). Nodes are identified by a stable [`NodeIdx`] handle that
//! survives ID changes made by the load balancer, and by their current ring
//! position ([`Key`]).

use d2_types::{Key, KeyRange};
use std::fmt;

/// A stable handle for a node, independent of its (mutable) ring position.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeIdx(pub usize);

impl fmt::Debug for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Global ring membership: a bidirectional map between ring positions and
/// node handles.
///
/// The members are one vector in ring order, so a position search is one
/// binary search and a rank is an index: a replay on a fixed ring reads
/// replica groups and routing-table links by rank without searching.
///
/// Invariants:
/// - at most one node per ring position (positions are 512-bit, collisions
///   are rejected by [`Ring::add_node_at`] returning `false`);
/// - `owner_of(k)` is the node whose ID is the clockwise successor of `k`
///   (i.e. the smallest ID ≥ `k`, wrapping).
#[derive(Clone, Debug, Default)]
pub struct Ring {
    /// `(position, node)` sorted by position; `ids` is its inverse.
    members: Vec<(Key, NodeIdx)>,
    ids: Vec<Option<Key>>,
}

impl Ring {
    /// Creates an empty ring.
    pub fn new() -> Self {
        Ring::default()
    }

    /// Number of nodes currently in the ring.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no nodes.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Adds a new node at `id`, allocating a fresh handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already occupied (use [`Ring::add_node_at`] to
    /// handle collisions).
    pub fn add_node(&mut self, id: Key) -> NodeIdx {
        let idx = NodeIdx(self.ids.len());
        self.ids.push(None);
        assert!(self.place(idx, id), "ring position {id} already occupied");
        idx
    }

    /// Pre-allocates a handle without placing the node in the ring
    /// (a node that exists but is currently offline / not joined).
    pub fn add_offline_node(&mut self) -> NodeIdx {
        let idx = NodeIdx(self.ids.len());
        self.ids.push(None);
        idx
    }

    /// Places node `idx` at position `id`. Returns `false` if the position
    /// is occupied or the node is already placed.
    pub fn add_node_at(&mut self, idx: NodeIdx, id: Key) -> bool {
        self.place(idx, id)
    }

    /// The rank of the first member at or past `key`: the owner's rank,
    /// or `len` when `key` lies past the last member (wrapping to 0).
    fn search(&self, key: &Key) -> usize {
        self.members.partition_point(|(id, _)| id < key)
    }

    /// Whether a member sits exactly at rank `at` with position `id`.
    fn occupied_at(&self, at: usize, id: &Key) -> bool {
        self.members.get(at).is_some_and(|(k, _)| k == id)
    }

    fn place(&mut self, idx: NodeIdx, id: Key) -> bool {
        let at = self.search(&id);
        if self.ids[idx.0].is_some() || self.occupied_at(at, &id) {
            return false;
        }
        self.members.insert(at, (id, idx));
        self.ids[idx.0] = Some(id);
        true
    }

    /// Removes node `idx` from the ring (leave or failure). Its handle
    /// remains valid for a later re-join. Returns its old position.
    pub fn remove_node(&mut self, idx: NodeIdx) -> Option<Key> {
        let id = self.ids[idx.0].take()?;
        self.members.remove(self.search(&id));
        Some(id)
    }

    /// Atomically moves node `idx` to `new_id` (the load balancer's
    /// leave-and-rejoin). Returns `false` (and leaves the ring unchanged)
    /// if `new_id` is occupied by another node.
    pub fn move_node(&mut self, idx: NodeIdx, new_id: Key) -> bool {
        let Some(old) = self.ids[idx.0] else {
            return false;
        };
        if old == new_id {
            return true;
        }
        if self.occupied_at(self.search(&new_id), &new_id) {
            return false;
        }
        self.remove_node(idx);
        self.place(idx, new_id)
    }

    /// The current ring position of `idx`, if it is in the ring.
    pub fn id_of(&self, idx: NodeIdx) -> Option<Key> {
        self.ids.get(idx.0).copied().flatten()
    }

    /// Whether node `idx` is currently in the ring.
    pub fn contains(&self, idx: NodeIdx) -> bool {
        self.id_of(idx).is_some()
    }

    /// Total number of handles ever allocated (alive or not).
    pub fn capacity(&self) -> usize {
        self.ids.len()
    }

    /// The node owning `key`: the one whose ID is the smallest ≥ `key`
    /// (wrapping around the top of the key space).
    pub fn owner_of(&self, key: &Key) -> Option<NodeIdx> {
        self.node_at_rank(self.search(key))
    }

    /// The `r` distinct nodes succeeding `key` (the replica group of a
    /// block with that key). Returns fewer when the ring is smaller than
    /// `r`.
    pub fn replica_group(&self, key: &Key, r: usize) -> Vec<NodeIdx> {
        let mut out = Vec::with_capacity(self.len().min(r));
        self.replica_group_into(key, r, &mut out);
        out
    }

    /// [`Ring::replica_group`] into a caller-provided buffer (cleared
    /// first), so hot loops can reuse one allocation across calls.
    pub fn replica_group_into(&self, key: &Key, r: usize, out: &mut Vec<NodeIdx>) {
        out.clear();
        let owner = self.search(key);
        let n = self.len().min(r);
        out.extend((owner..owner + n).filter_map(|rank| self.node_at_rank(rank)));
    }

    /// The first node in ring order (smallest ID), without materializing
    /// the whole node list as [`Ring::nodes`] would.
    pub fn first_node(&self) -> Option<NodeIdx> {
        self.members.first().map(|&(_, idx)| idx)
    }

    /// The clockwise successor node of `idx` (the next ID after its own).
    pub fn successor(&self, idx: NodeIdx) -> Option<NodeIdx> {
        self.node_at_rank(self.rank_of(idx)? + 1)
    }

    /// The counter-clockwise predecessor node of `idx`.
    pub fn predecessor(&self, idx: NodeIdx) -> Option<NodeIdx> {
        self.node_at_rank(self.rank_of(idx)? + self.len() - 1)
    }

    /// The ownership range of node `idx`: `(predecessor_id, own_id]`.
    /// For a single-node ring this is the full ring.
    pub fn range_of(&self, idx: NodeIdx) -> Option<KeyRange> {
        let id = self.id_of(idx)?;
        let pred = self.predecessor(idx)?;
        let pred_id = self.id_of(pred)?;
        if pred == idx {
            return Some(KeyRange::full());
        }
        Some(KeyRange::new(pred_id, id))
    }

    /// Iterates `(position, node)` pairs in ring order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &NodeIdx)> {
        self.members.iter().map(|(id, idx)| (id, idx))
    }

    /// All node handles currently in the ring, in ring order.
    pub fn nodes(&self) -> Vec<NodeIdx> {
        self.members.iter().map(|&(_, idx)| idx).collect()
    }

    /// A uniformly random node currently in the ring.
    ///
    /// Mercury approximates uniform node sampling with random walks over
    /// its small-world links; the oracle draw here is the converged
    /// behaviour of that sampler.
    pub fn random_node<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Option<NodeIdx> {
        if self.members.is_empty() {
            return None;
        }
        Some(self.members[rng.random_range(0..self.members.len())].1)
    }

    /// Rank of node `idx` in ring order (0-based), used for building
    /// rank-distance long links.
    pub fn rank_of(&self, idx: NodeIdx) -> Option<usize> {
        Some(self.search(&self.id_of(idx)?))
    }

    /// The node at rank `r mod len` in ring order.
    #[inline]
    pub fn node_at_rank(&self, r: usize) -> Option<NodeIdx> {
        let n = self.members.len();
        // A rank in range is the common case: skip the division.
        let r = if r < n { r } else { r.checked_rem(n)? };
        Some(self.members[r].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ring_with(fractions: &[f64]) -> (Ring, Vec<NodeIdx>) {
        let mut ring = Ring::new();
        let idxs = fractions
            .iter()
            .map(|&f| ring.add_node(Key::from_fraction(f)))
            .collect();
        (ring, idxs)
    }

    #[test]
    fn owner_is_clockwise_successor() {
        let (ring, idx) = ring_with(&[0.2, 0.5, 0.8]);
        assert_eq!(ring.owner_of(&Key::from_fraction(0.1)), Some(idx[0]));
        assert_eq!(ring.owner_of(&Key::from_fraction(0.3)), Some(idx[1]));
        assert_eq!(ring.owner_of(&Key::from_fraction(0.6)), Some(idx[2]));
        // Wraps past the top back to the first node.
        assert_eq!(ring.owner_of(&Key::from_fraction(0.9)), Some(idx[0]));
    }

    #[test]
    fn owner_at_exact_position() {
        let (ring, idx) = ring_with(&[0.2, 0.5]);
        let at = Key::from_fraction(0.5);
        assert_eq!(ring.owner_of(&at), Some(idx[1]));
    }

    #[test]
    fn replica_group_distinct_and_ordered() {
        let (ring, idx) = ring_with(&[0.1, 0.3, 0.5, 0.7]);
        let g = ring.replica_group(&Key::from_fraction(0.4), 3);
        assert_eq!(g, vec![idx[2], idx[3], idx[0]]);
    }

    #[test]
    fn replica_group_into_matches_and_reuses_buffer() {
        let (ring, _) = ring_with(&[0.1, 0.3, 0.5, 0.7]);
        let mut buf = Vec::new();
        for f in [0.05, 0.4, 0.72, 0.99] {
            let key = Key::from_fraction(f);
            ring.replica_group_into(&key, 3, &mut buf);
            assert_eq!(buf, ring.replica_group(&key, 3));
        }
        assert_eq!(ring.first_node(), Some(ring.nodes()[0]));
    }

    #[test]
    fn replica_group_smaller_ring() {
        let (ring, idx) = ring_with(&[0.5]);
        assert_eq!(
            ring.replica_group(&Key::from_fraction(0.9), 3),
            vec![idx[0]]
        );
    }

    #[test]
    fn successor_predecessor_cycle() {
        let (ring, idx) = ring_with(&[0.1, 0.4, 0.9]);
        assert_eq!(ring.successor(idx[0]), Some(idx[1]));
        assert_eq!(ring.successor(idx[2]), Some(idx[0]));
        assert_eq!(ring.predecessor(idx[0]), Some(idx[2]));
        assert_eq!(ring.predecessor(idx[1]), Some(idx[0]));
    }

    #[test]
    fn single_node_owns_everything() {
        let (ring, idx) = ring_with(&[0.5]);
        assert_eq!(ring.successor(idx[0]), Some(idx[0]));
        assert_eq!(ring.predecessor(idx[0]), Some(idx[0]));
        assert!(ring.range_of(idx[0]).unwrap().is_full());
        assert!(ring
            .range_of(idx[0])
            .unwrap()
            .contains(&Key::from_fraction(0.123)));
    }

    #[test]
    fn ranges_partition_the_ring() {
        let (ring, _) = ring_with(&[0.15, 0.35, 0.6, 0.85]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let k = Key::random(&mut rng);
            let owner = ring.owner_of(&k).unwrap();
            let covering: Vec<_> = ring
                .nodes()
                .into_iter()
                .filter(|&n| ring.range_of(n).unwrap().contains(&k))
                .collect();
            assert_eq!(
                covering,
                vec![owner],
                "key {k} must be covered exactly once"
            );
        }
    }

    #[test]
    fn remove_and_rejoin() {
        let (mut ring, idx) = ring_with(&[0.2, 0.6]);
        let old = ring.remove_node(idx[0]).unwrap();
        assert_eq!(old, Key::from_fraction(0.2));
        assert_eq!(ring.owner_of(&Key::from_fraction(0.1)), Some(idx[1]));
        assert!(ring.add_node_at(idx[0], Key::from_fraction(0.9)));
        assert_eq!(ring.owner_of(&Key::from_fraction(0.7)), Some(idx[0]));
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn move_node_shifts_ownership() {
        let (mut ring, idx) = ring_with(&[0.2, 0.6]);
        assert!(ring.move_node(idx[1], Key::from_fraction(0.4)));
        // Keys in (0.4, 1.0] wrap to node 0 at 0.2; 0.5 now owned by... the
        // successor of 0.5 is node at... ids are 0.2 and 0.4, so owner of
        // 0.5 wraps to 0.2.
        assert_eq!(ring.owner_of(&Key::from_fraction(0.5)), Some(idx[0]));
        assert_eq!(ring.owner_of(&Key::from_fraction(0.3)), Some(idx[1]));
    }

    #[test]
    fn move_to_occupied_position_fails() {
        let (mut ring, idx) = ring_with(&[0.2, 0.6]);
        assert!(!ring.move_node(idx[0], Key::from_fraction(0.6)));
        assert_eq!(ring.id_of(idx[0]), Some(Key::from_fraction(0.2)));
    }

    #[test]
    fn rank_round_trip() {
        let (ring, idx) = ring_with(&[0.7, 0.1, 0.4]);
        // Ring order: 0.1 (idx1), 0.4 (idx2), 0.7 (idx0).
        assert_eq!(ring.rank_of(idx[1]), Some(0));
        assert_eq!(ring.rank_of(idx[2]), Some(1));
        assert_eq!(ring.rank_of(idx[0]), Some(2));
        assert_eq!(ring.node_at_rank(0), Some(idx[1]));
        assert_eq!(ring.node_at_rank(5), Some(idx[0])); // 5 mod 3 = 2 -> node at 0.7
    }

    #[test]
    fn random_node_uniformish() {
        let (ring, idx) = ring_with(&[0.1, 0.2, 0.3, 0.4]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut counts = [0usize; 4];
        for _ in 0..400 {
            let n = ring.random_node(&mut rng).unwrap();
            counts[idx.iter().position(|&i| i == n).unwrap()] += 1;
        }
        for c in counts {
            assert!(c > 50, "each node should be sampled: {counts:?}");
        }
    }

    #[test]
    fn offline_node_not_in_ring() {
        let mut ring = Ring::new();
        let a = ring.add_offline_node();
        assert!(!ring.contains(a));
        assert!(ring.add_node_at(a, Key::from_fraction(0.3)));
        assert!(ring.contains(a));
    }
}
