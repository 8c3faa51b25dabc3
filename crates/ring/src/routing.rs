//! Per-node routing tables and greedy recursive lookup.
//!
//! Mercury maintains a small-world overlay whose long links follow a
//! harmonic *rank* distribution, giving O(log n) routing hops even when
//! node IDs are not uniformly distributed (as in D2, where the load
//! balancer packs nodes where the data is). We reproduce the converged
//! form of those tables: each node links to the nodes `2^i` ranks ahead of
//! it in ring order, plus a short successor list. Greedy clockwise routing
//! over these links takes at most `log2(n)` forwarding hops.
//!
//! The [`Router`] owns one table per node and provides hop- and
//! message-accounted lookups for the Section 9.2 experiments.

use crate::ring::{NodeIdx, Ring};
use d2_obs::{SharedSink, TraceEvent};
use d2_types::Key;

/// Routing state of a single node: its successor list and long links.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    /// The node this table belongs to.
    pub own: NodeIdx,
    /// Ring position when the table was built.
    pub own_id: Key,
    /// Links in ascending clockwise distance: successors first, then long
    /// links at rank distances 2, 4, 8, … (deduplicated).
    pub links: Vec<(Key, NodeIdx)>,
}

impl RoutingTable {
    /// Builds the converged Mercury-style table for `node` from the
    /// current ring: `succ_count` immediate successors plus long links at
    /// doubling rank distances.
    pub fn build(ring: &Ring, node: NodeIdx, succ_count: usize) -> Option<RoutingTable> {
        let own_id = ring.id_of(node)?;
        let rank = ring.rank_of(node)?;
        let n = ring.len();
        let mut links: Vec<(Key, NodeIdx)> = Vec::new();
        let mut push = |r: usize| {
            if let Some(peer) = ring.node_at_rank(r) {
                if peer != node {
                    if let Some(id) = ring.id_of(peer) {
                        if !links.iter().any(|(_, p)| *p == peer) {
                            links.push((id, peer));
                        }
                    }
                }
            }
        };
        for s in 1..=succ_count.min(n.saturating_sub(1)) {
            push(rank + s);
        }
        let mut d = 2usize;
        while d < n {
            push(rank + d);
            d *= 2;
        }
        Some(
            RoutingTable {
                own: node,
                own_id,
                links,
            }
            .normalize(),
        )
    }

    fn normalize(mut self) -> Self {
        // Sort links by clockwise distance from own_id so greedy scans are
        // a simple reverse pass.
        let own = self.own_id;
        self.links.sort_by_key(|(id, _)| own.distance_to(id));
        self
    }

    /// The link that most closely *precedes* `target` clockwise from this
    /// node, i.e. the farthest link we can jump to without passing the
    /// target. `None` if no link helps (the successor owns the target or
    /// the table is empty).
    pub fn closest_preceding(&self, target: &Key) -> Option<(Key, NodeIdx)> {
        let to_target = self.own_id.distance_to(target);
        self.links
            .iter()
            .rev()
            .find(|(id, _)| {
                let d = self.own_id.distance_to(id);
                d < to_target && d > Key::MIN
            })
            .copied()
    }
}

/// Statistics from one routed lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LookupStats {
    /// Node that owns the looked-up key.
    pub owner: NodeIdx,
    /// Number of forwarding hops (0 when the requester owns the key).
    pub hops: u32,
    /// Messages consumed: one per forwarding hop plus one reply to the
    /// requester (0 when no network traffic was needed).
    pub messages: u32,
    /// The nodes visited, starting with the requester and ending with the
    /// owner (length `hops + 1`); used to charge per-hop latencies.
    pub path: Vec<NodeIdx>,
}

/// A set of routing tables for every node in a ring, with recursive greedy
/// lookup.
///
/// # Examples
///
/// ```
/// use d2_ring::{Ring, routing::Router};
/// use d2_types::Key;
///
/// let mut ring = Ring::new();
/// for i in 0..64 {
///     ring.add_node(Key::from_fraction(i as f64 / 64.0));
/// }
/// let router = Router::build(&ring, 4);
/// let from = ring.node_at_rank(0).unwrap();
/// let stats = router.lookup(&ring, from, &Key::from_fraction(0.77)).unwrap();
/// assert!(stats.hops <= 6); // log2(64)
/// ```
#[derive(Clone, Debug, Default)]
pub struct Router {
    tables: Vec<Option<RoutingTable>>,
    succ_count: usize,
}

impl Router {
    /// Builds tables for every node currently in `ring`.
    pub fn build(ring: &Ring, succ_count: usize) -> Router {
        let mut tables = vec![None; ring.capacity()];
        for node in ring.nodes() {
            tables[node.0] = RoutingTable::build(ring, node, succ_count);
        }
        Router { tables, succ_count }
    }

    /// Rebuilds the table of a single node (after it moved or joined).
    pub fn rebuild_node(&mut self, ring: &Ring, node: NodeIdx) {
        if self.tables.len() < ring.capacity() {
            self.tables.resize(ring.capacity(), None);
        }
        self.tables[node.0] = RoutingTable::build(ring, node, self.succ_count);
    }

    /// Drops the table of a departed node.
    pub fn remove_node(&mut self, node: NodeIdx) {
        if let Some(t) = self.tables.get_mut(node.0) {
            *t = None;
        }
    }

    /// The routing table of `node`, if built.
    pub fn table(&self, node: NodeIdx) -> Option<&RoutingTable> {
        self.tables.get(node.0).and_then(|t| t.as_ref())
    }

    /// Successor-list length the tables were built with.
    pub fn succ_count(&self) -> usize {
        self.succ_count
    }

    /// Removes the link `owner` → `dead` from `owner`'s table after a
    /// timeout (negative feedback: the peer is presumed crashed). A
    /// node never discards its *last* link — Chord's "keep your last
    /// known successor" rule, without which an unlucky burst of message
    /// drops could disconnect a perfectly healthy node. Returns whether
    /// a link was removed.
    pub fn evict_link(&mut self, owner: NodeIdx, dead: NodeIdx) -> bool {
        match self.tables.get_mut(owner.0).and_then(|t| t.as_mut()) {
            Some(t) if t.links.len() > 1 => {
                let before = t.links.len();
                t.links.retain(|(_, p)| *p != dead);
                t.links.len() < before
            }
            _ => false,
        }
    }

    /// Replaces (or clears) the stored table of `node`, growing the slot
    /// vector as needed. Internal hook for the churn-stabilization code.
    pub(crate) fn set_table(&mut self, node: NodeIdx, table: Option<RoutingTable>) {
        if self.tables.len() <= node.0 {
            self.tables.resize(node.0 + 1, None);
        }
        self.tables[node.0] = table;
    }

    /// Recursively routes a lookup for `key` starting at `from`, returning
    /// hop/message counts. Stale long links (nodes that have since moved or
    /// left) are skipped; progress is guaranteed through the live ring's
    /// successor pointers, which stabilize much faster than long links in
    /// practice (and instantly for voluntary load-balance moves — paper
    /// footnote 4).
    pub fn lookup(&self, ring: &Ring, from: NodeIdx, key: &Key) -> Option<LookupStats> {
        let mut path = Vec::new();
        let (owner, hops, messages) = self.lookup_into(ring, from, key, &mut path)?;
        Some(LookupStats {
            owner,
            hops,
            messages,
            path,
        })
    }

    /// The allocation-free core of [`Router::lookup`]: the hop path is
    /// written into `path` (cleared first), so per-fetch callers can
    /// reuse one buffer for every lookup. Returns
    /// `(owner, hops, messages)`.
    pub fn lookup_into(
        &self,
        ring: &Ring,
        from: NodeIdx,
        key: &Key,
        path: &mut Vec<NodeIdx>,
    ) -> Option<(NodeIdx, u32, u32)> {
        let owner = ring.owner_of(key)?;
        let mut cur = from;
        let mut hops = 0u32;
        path.clear();
        path.push(from);
        // Hard cap to guarantee termination even with absurdly stale state.
        let cap = 4 * (usize::BITS - ring.len().leading_zeros()) + 16;
        while cur != owner {
            let next = self
                .table(cur)
                .and_then(|t| {
                    // Only use links that are still current.
                    t.closest_preceding(key)
                        .filter(|(id, peer)| ring.id_of(*peer) == Some(*id))
                })
                .map(|(_, peer)| peer)
                .or_else(|| ring.successor(cur))?;
            if next == cur {
                break;
            }
            cur = next;
            hops += 1;
            path.push(cur);
            if hops > cap {
                // Fall back to walking successors; count remaining hops.
                while cur != owner {
                    cur = ring.successor(cur)?;
                    hops += 1;
                    path.push(cur);
                }
                break;
            }
        }
        let messages = if hops == 0 { 0 } else { hops + 1 };
        Some((owner, hops, messages))
    }

    /// [`Router::lookup`] plus a [`TraceEvent::Route`] record in `sink`
    /// carrying the full hop path. `now_us` is the caller's virtual clock
    /// and `user` the requesting user (0 when not user-attributed). With a
    /// null sink this is exactly `lookup` — the event is never built.
    pub fn lookup_traced(
        &self,
        ring: &Ring,
        from: NodeIdx,
        key: &Key,
        now_us: u64,
        user: u32,
        sink: &SharedSink,
    ) -> Option<LookupStats> {
        let stats = self.lookup(ring, from, key)?;
        sink.record_with(|| TraceEvent::Route {
            t_us: now_us,
            user,
            key: key.to_u64_lossy(),
            from: from.0,
            owner: stats.owner.0,
            hops: stats.hops,
            messages: stats.messages,
            path: stats.path.iter().map(|n| n.0).collect(),
        });
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn uniform_ring(n: usize) -> Ring {
        let mut ring = Ring::new();
        for i in 0..n {
            ring.add_node(Key::from_fraction(i as f64 / n as f64));
        }
        ring
    }

    #[test]
    fn lookup_reaches_owner() {
        let ring = uniform_ring(100);
        let router = Router::build(&ring, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let from = ring.random_node(&mut rng).unwrap();
            let key = Key::random(&mut rng);
            let stats = router.lookup(&ring, from, &key).unwrap();
            assert_eq!(stats.owner, ring.owner_of(&key).unwrap());
        }
    }

    #[test]
    fn hops_logarithmic() {
        for n in [64usize, 256, 1024] {
            let ring = uniform_ring(n);
            let router = Router::build(&ring, 4);
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let log2n = (n as f64).log2();
            let mut total = 0u64;
            let trials = 300;
            for _ in 0..trials {
                let from = ring.random_node(&mut rng).unwrap();
                let key = Key::random(&mut rng);
                let stats = router.lookup(&ring, from, &key).unwrap();
                assert!(
                    (stats.hops as f64) <= log2n + 2.0,
                    "n={n} hops={} log2={log2n}",
                    stats.hops
                );
                total += stats.hops as u64;
            }
            let mean = total as f64 / trials as f64;
            assert!(
                mean <= log2n,
                "mean hops {mean} should be <= log2(n)={log2n}"
            );
            assert!(
                mean >= 0.25 * log2n,
                "mean hops {mean} suspiciously low for n={n}"
            );
        }
    }

    #[test]
    fn lookup_into_matches_lookup_with_reused_buffer() {
        let ring = uniform_ring(64);
        let router = Router::build(&ring, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let mut buf = Vec::new();
        for _ in 0..50 {
            let from = ring.random_node(&mut rng).unwrap();
            let key = Key::random(&mut rng);
            let plain = router.lookup(&ring, from, &key).unwrap();
            let (owner, hops, messages) = router.lookup_into(&ring, from, &key, &mut buf).unwrap();
            assert_eq!(owner, plain.owner);
            assert_eq!(hops, plain.hops);
            assert_eq!(messages, plain.messages);
            assert_eq!(buf, plain.path);
        }
    }

    #[test]
    fn self_lookup_is_free() {
        let ring = uniform_ring(16);
        let router = Router::build(&ring, 2);
        let node = ring.node_at_rank(3).unwrap();
        let own_id = ring.id_of(node).unwrap();
        let stats = router.lookup(&ring, node, &own_id).unwrap();
        assert_eq!(stats.hops, 0);
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn routing_works_on_skewed_ring() {
        // Nodes packed into 1% of the key space plus a few stragglers —
        // the kind of distribution D2's balancer produces.
        let mut ring = Ring::new();
        for i in 0..200 {
            ring.add_node(Key::from_fraction(0.40 + 0.01 * i as f64 / 200.0));
        }
        ring.add_node(Key::from_fraction(0.9));
        ring.add_node(Key::from_fraction(0.1));
        let router = Router::build(&ring, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let from = ring.random_node(&mut rng).unwrap();
            let key = Key::random(&mut rng);
            let stats = router.lookup(&ring, from, &key).unwrap();
            assert_eq!(stats.owner, ring.owner_of(&key).unwrap());
            assert!(
                stats.hops <= 12,
                "hops={} too high for 202 nodes",
                stats.hops
            );
        }
    }

    #[test]
    fn stale_links_fall_back_to_successors() {
        let mut ring = uniform_ring(32);
        let router = Router::build(&ring, 4);
        // Move a quarter of the nodes without rebuilding the router.
        for i in 0..8 {
            let node = ring.node_at_rank(i * 4).unwrap();
            let id = ring.id_of(node).unwrap();
            ring.move_node(node, id.wrapping_add(&Key::from_u64_ordered(1 << 48)));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for _ in 0..50 {
            let from = ring.random_node(&mut rng).unwrap();
            let key = Key::random(&mut rng);
            let stats = router.lookup(&ring, from, &key).unwrap();
            assert_eq!(stats.owner, ring.owner_of(&key).unwrap());
        }
    }

    #[test]
    fn two_node_ring_routes() {
        let ring = uniform_ring(2);
        let router = Router::build(&ring, 1);
        let a = ring.node_at_rank(0).unwrap();
        let stats = router.lookup(&ring, a, &Key::from_fraction(0.75)).unwrap();
        assert!(stats.hops <= 1);
    }

    #[test]
    fn traced_lookup_matches_plain_and_records_path() {
        let ring = uniform_ring(64);
        let router = Router::build(&ring, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let sink = SharedSink::memory(0);
        for _ in 0..20 {
            let from = ring.random_node(&mut rng).unwrap();
            let key = Key::random(&mut rng);
            let plain = router.lookup(&ring, from, &key).unwrap();
            let traced = router
                .lookup_traced(&ring, from, &key, 123, 7, &sink)
                .unwrap();
            assert_eq!(plain, traced);
        }
        let events = sink.drain();
        assert_eq!(events.len(), 20);
        match &events[0] {
            TraceEvent::Route {
                t_us,
                user,
                hops,
                path,
                ..
            } => {
                assert_eq!(*t_us, 123);
                assert_eq!(*user, 7);
                assert_eq!(path.len() as u32, hops + 1);
            }
            other => panic!("expected Route, got {other:?}"),
        }
        // A null sink records nothing and still routes.
        let null = SharedSink::null();
        let from = ring.random_node(&mut rng).unwrap();
        let key = Key::random(&mut rng);
        assert!(router
            .lookup_traced(&ring, from, &key, 0, 0, &null)
            .is_some());
        assert!(null.drain().is_empty());
    }

    #[test]
    fn messages_are_hops_plus_reply() {
        let ring = uniform_ring(64);
        let router = Router::build(&ring, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..50 {
            let from = ring.random_node(&mut rng).unwrap();
            let key = Key::random(&mut rng);
            let s = router.lookup(&ring, from, &key).unwrap();
            if s.hops == 0 {
                assert_eq!(s.messages, 0);
            } else {
                assert_eq!(s.messages, s.hops + 1);
            }
        }
    }
}
