//! A message-level ring node state machine.
//!
//! [`ProtocolNode`] implements join, Chord-style stabilization, and
//! recursive greedy lookup as a pure state machine: every input
//! ([`ProtocolNode::handle`] for messages, [`ProtocolNode::tick`] for
//! timers) returns the messages to transmit. The same code therefore runs
//! under any transport — `d2-net` drives it with threads and channels, and
//! tests drive it with a simple in-memory message pump.

use crate::messages::{Addr, PeerInfo, RingMsg};
use d2_types::{Key, KeyRange};
use std::collections::HashMap;

/// Forwarding budget for a `Join` before it is dropped (the joiner
/// retries on a timer); greedy routing over transiently inconsistent
/// successor lists can otherwise cycle a join between two nodes forever.
const JOIN_MAX_HOPS: u32 = 64;

/// Outcome of a completed lookup, surfaced to the embedding layer.
#[derive(Clone, Debug, PartialEq)]
pub struct LookupResult {
    /// Request id the embedding layer supplied.
    pub req_id: u64,
    /// The owner of the looked-up key.
    pub owner: PeerInfo,
    /// The owner's ownership range (for lookup caches).
    pub range: KeyRange,
    /// The owner's successor list (replica locations).
    pub successors: Vec<PeerInfo>,
    /// Forwarding hops the request took.
    pub hops: u32,
}

/// Successor-list length of a node whose redundancy group fits in it:
/// the fault tolerance of its ring pointers. A wider group lengthens
/// the list to cover its members (`d2-net` derives it per policy).
pub const SUCCESSORS: usize = 4;

/// Maximum long links retained from observed lookup traffic.
const MAX_FINGERS: usize = 32;

/// Ticks between seed-anchored anti-entropy rounds. A joined node
/// periodically re-introduces itself to its join seed (Notify +
/// GetNeighbors), which is what lets two rings that formed on either
/// side of a healed multi-node netsplit merge back into one — plain
/// Chord stabilization alone never rejoins disjoint rings.
pub const ANCHOR_EVERY_TICKS: u64 = 64;

/// A known bug re-introduced on purpose, so the deterministic
/// simulation harness can prove its worlds catch it. Production nodes
/// run with none.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedBug {
    /// Head-only successor probing (the historical dead-tail wedge,
    /// DESIGN.md §11.2): a dead tail entry is never probed or evicted
    /// and can wedge stabilization ring-wide.
    ProbeHeadOnly,
    /// Replica-chain puts ack the client as soon as the forward *send*
    /// succeeds, instead of waiting for the end of the chain to
    /// confirm. Harmless when dead peers fail sends fast, but a silent
    /// one-way link cut turns the early ack into a durability lie.
    AckOnSend,
    /// No seed-anchored anti-entropy ([`ANCHOR_EVERY_TICKS`]): a healed
    /// multi-node netsplit leaves two stable rings forever.
    NoAnchor,
}

/// Configuration for a protocol node.
#[derive(Clone, Copy, Debug)]
pub struct NodeConfig {
    /// Successor-list length (fault tolerance of ring pointers).
    pub successors: usize,
    /// The bug this node re-introduces, if any (`None` everywhere but
    /// the deterministic simulation harness).
    #[doc(hidden)]
    pub bug: Option<InjectedBug>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            successors: SUCCESSORS,
            bug: None,
        }
    }
}

/// A ring node driven by messages and periodic ticks.
#[derive(Debug)]
pub struct ProtocolNode {
    me: PeerInfo,
    cfg: NodeConfig,
    predecessor: Option<PeerInfo>,
    successors: Vec<PeerInfo>,
    /// Long links harvested from lookup replies (Mercury builds its long
    /// links by sampling; harvesting reply traffic converges similarly).
    fingers: Vec<PeerInfo>,
    /// Lookups we originated and are waiting on.
    pending: HashMap<u64, Key>,
    /// Completed lookups not yet collected by the embedding layer.
    completed: Vec<LookupResult>,
    next_req: u64,
    /// The first successor notified since the last tick: a round
    /// notifies it once, on the round's first `Neighbors` answer, and
    /// notifies again only a new first successor.
    notified: Option<Addr>,
}

impl ProtocolNode {
    /// Creates the very first node of a ring (it is its own successor).
    pub fn bootstrap(id: Key, addr: Addr, cfg: NodeConfig) -> Self {
        let me = PeerInfo { id, addr };
        ProtocolNode {
            me,
            cfg,
            predecessor: Some(me),
            successors: Vec::new(),
            fingers: Vec::new(),
            pending: HashMap::new(),
            completed: Vec::new(),
            next_req: 1,
            notified: None,
        }
    }

    /// Creates a node that will join via `seed`. Returns the node and the
    /// join message to send to the seed.
    pub fn join(id: Key, addr: Addr, cfg: NodeConfig, seed: Addr) -> (Self, Vec<(Addr, RingMsg)>) {
        let me = PeerInfo { id, addr };
        let node = ProtocolNode {
            me,
            cfg,
            predecessor: None,
            successors: Vec::new(),
            fingers: Vec::new(),
            pending: HashMap::new(),
            completed: Vec::new(),
            next_req: 1,
            notified: None,
        };
        (
            node,
            vec![(
                seed,
                RingMsg::Join {
                    joiner: me,
                    hops: 0,
                },
            )],
        )
    }

    /// This node's identity.
    pub fn me(&self) -> PeerInfo {
        self.me
    }

    /// The configuration the node was constructed with.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Makes this node re-introduce `bug` from now on.
    #[doc(hidden)]
    pub fn inject_bug(&mut self, bug: InjectedBug) {
        self.cfg.bug = Some(bug);
    }

    /// Current predecessor, if known.
    pub fn predecessor(&self) -> Option<PeerInfo> {
        self.predecessor
    }

    /// Current successor list.
    pub fn successors(&self) -> &[PeerInfo] {
        &self.successors
    }

    /// Whether the node has joined a ring (has a successor).
    pub fn is_joined(&self) -> bool {
        !self.successors.is_empty()
    }

    /// The range of keys this node believes it owns.
    pub fn owned_range(&self) -> Option<KeyRange> {
        let pred = self.predecessor?;
        if pred.addr == self.me.addr {
            return Some(KeyRange::full());
        }
        Some(KeyRange::new(pred.id, self.me.id))
    }

    /// Starts a lookup for `key`; returns the request id and the messages
    /// to send. The result arrives later via [`ProtocolNode::take_completed`].
    pub fn start_lookup(&mut self, key: Key) -> (u64, Vec<(Addr, RingMsg)>) {
        let req_id = self.next_req;
        self.next_req += 1;
        self.pending.insert(req_id, key);
        let msg = RingMsg::FindOwner {
            target: key,
            origin: self.me.addr,
            req_id,
            hops: 0,
        };
        // Process locally first: we may own the key ourselves.
        let out = self.route_find(msg);
        (req_id, out)
    }

    /// Drains lookups that have completed since the last call.
    pub fn take_completed(&mut self) -> Vec<LookupResult> {
        std::mem::take(&mut self.completed)
    }

    /// Handles an incoming message, returning messages to transmit.
    pub fn handle(&mut self, msg: RingMsg) -> Vec<(Addr, RingMsg)> {
        match msg {
            RingMsg::FindOwner { .. } => self.route_find(msg),
            RingMsg::OwnerIs {
                req_id,
                owner,
                range,
                successors,
                hops,
            } => {
                if self.pending.remove(&req_id).is_some() {
                    self.learn(owner);
                    self.completed.push(LookupResult {
                        req_id,
                        owner,
                        range,
                        successors,
                        hops,
                    });
                }
                vec![]
            }
            RingMsg::Join { joiner, hops } => self.handle_join(joiner, hops),
            RingMsg::JoinAck {
                successor,
                predecessor,
                successors,
            } => {
                self.adopt_successor(successor);
                for s in successors {
                    self.learn(s);
                    self.push_successor(s);
                }
                if let Some(p) = predecessor {
                    if p.addr != self.me.addr {
                        self.predecessor = Some(p);
                    }
                }
                // Tell our new successor we exist.
                vec![(successor.addr, RingMsg::Notify { candidate: self.me })]
            }
            RingMsg::GetNeighbors { from } => {
                vec![(
                    from,
                    RingMsg::Neighbors {
                        me: self.me,
                        predecessor: self.predecessor,
                        successors: self.successors.clone(),
                    },
                )]
            }
            RingMsg::Neighbors {
                me,
                predecessor,
                successors,
            } => {
                self.learn(me);
                // Chord stabilize: if our successor's predecessor sits
                // between us and the successor, it becomes our successor.
                if let Some(p) = predecessor {
                    if let Some(first) = self.successors.first().copied() {
                        if first.addr == me.addr
                            && p.addr != self.me.addr
                            && KeyRange::new(self.me.id, first.id).contains(&p.id)
                            && p.id != first.id
                        {
                            self.successors.insert(0, p);
                            self.truncate_successors();
                            self.notified = Some(p.addr);
                            return vec![(p.addr, RingMsg::Notify { candidate: self.me })];
                        }
                    }
                }
                for s in successors {
                    if s.addr != self.me.addr {
                        self.push_successor(s);
                    }
                }
                // One Notify per stabilization round, on whichever answer
                // lands first (the earliest, under jitter), and one per
                // change of first successor; the round's other answers
                // would repeat it.
                match self.successors.first().copied() {
                    Some(first) if self.notified != Some(first.addr) => {
                        self.notified = Some(first.addr);
                        vec![(first.addr, RingMsg::Notify { candidate: self.me })]
                    }
                    _ => vec![],
                }
            }
            RingMsg::Notify { candidate } => {
                let adopt = match self.predecessor {
                    None => true,
                    Some(p) if p.addr == self.me.addr => true,
                    Some(p) => {
                        KeyRange::new(p.id, self.me.id).contains(&candidate.id)
                            && candidate.id != self.me.id
                    }
                };
                if adopt && candidate.addr != self.me.addr {
                    self.predecessor = Some(candidate);
                }
                if self.successors.is_empty() && candidate.addr != self.me.addr {
                    // Degenerate bootstrap: first peer we hear of closes
                    // the ring.
                    self.push_successor(candidate);
                }
                self.learn(candidate);
                vec![]
            }
        }
    }

    /// Periodic maintenance: stabilize with *every* successor and probe
    /// the predecessor (Chord's `check_predecessor`) — a transport-level
    /// send failure makes the embedding layer call
    /// [`ProtocolNode::forget`], clearing the dead pointer so the true
    /// predecessor's next notify is adopted and no key range goes
    /// unowned.
    ///
    /// Probing the whole successor list (it is capped at
    /// [`NodeConfig::successors`]) and not just its head matters after a
    /// crash: a dead node in the *tail* of some neighbor's list is never
    /// the target of that neighbor's sends, so nothing would ever evict
    /// it, and its `Neighbors` advertisements keep re-inserting the dead
    /// peer at the head of the lists of the nodes immediately before it
    /// — which then probe a dead first successor every tick and can
    /// never walk past it to their true successor. Probing the full list
    /// evicts dead entries ring-wide within one tick, drying up the
    /// re-advertisement at its source.
    pub fn tick(&mut self) -> Vec<(Addr, RingMsg)> {
        self.notified = None;
        let mut out: Vec<(Addr, RingMsg)> = Vec::with_capacity(self.successors.len() + 1);
        // `ProbeHeadOnly` deliberately resurrects the dead-tail bug for
        // DST-harness validation.
        let probed = if self.cfg.bug == Some(InjectedBug::ProbeHeadOnly) {
            &self.successors[..self.successors.len().min(1)]
        } else {
            &self.successors[..]
        };
        for s in probed {
            if s.addr != self.me.addr {
                out.push((s.addr, RingMsg::GetNeighbors { from: self.me.addr }));
            }
        }
        if let Some(p) = self.predecessor {
            if p.addr != self.me.addr && !out.iter().any(|(a, _)| *a == p.addr) {
                out.push((p.addr, RingMsg::GetNeighbors { from: self.me.addr }));
            }
        }
        out
    }

    /// Removes a peer believed dead from all pointers.
    pub fn forget(&mut self, addr: Addr) {
        self.successors.retain(|p| p.addr != addr);
        self.fingers.retain(|p| p.addr != addr);
        if self.predecessor.map(|p| p.addr) == Some(addr) {
            self.predecessor = None;
        }
    }

    fn route_find(&mut self, msg: RingMsg) -> Vec<(Addr, RingMsg)> {
        let RingMsg::FindOwner {
            target,
            origin,
            req_id,
            hops,
        } = msg
        else {
            return vec![];
        };
        if self.owns(&target) {
            let reply = RingMsg::OwnerIs {
                req_id,
                owner: self.me,
                range: self.claimed_range(),
                successors: self.successors.clone(),
                hops,
            };
            if origin == self.me.addr {
                // Local completion without a network round trip.
                let out = self.handle(reply);
                debug_assert!(out.is_empty());
                return vec![];
            }
            return vec![(origin, reply)];
        }
        match self.next_hop(&target) {
            Some(next) => {
                vec![(
                    next.addr,
                    RingMsg::FindOwner {
                        target,
                        origin,
                        req_id,
                        hops: hops + 1,
                    },
                )]
            }
            None => vec![], // not joined yet; drop (caller retries)
        }
    }

    fn owns(&self, key: &Key) -> bool {
        self.claimed_range().contains(key)
    }

    /// The range this node answers lookups for, and advertises in
    /// [`RingMsg::OwnerIs`] for lookup caches to keep: its owned range,
    /// or — without a predecessor — only its own ID exactly.
    fn claimed_range(&self) -> KeyRange {
        self.owned_range().unwrap_or_else(|| {
            KeyRange::new(self.me.id.wrapping_sub(&Key::from_u64(1)), self.me.id)
        })
    }

    /// Greedy: farthest known peer that does not pass the target.
    fn next_hop(&self, target: &Key) -> Option<PeerInfo> {
        let to_target = self.me.id.distance_to(target);
        let best = self
            .fingers
            .iter()
            .chain(self.successors.iter())
            .filter(|p| p.addr != self.me.addr)
            .filter(|p| {
                let d = self.me.id.distance_to(&p.id);
                d > Key::MIN && d < to_target
            })
            .max_by_key(|p| self.me.id.distance_to(&p.id))
            .copied();
        best.or_else(|| {
            self.successors
                .first()
                .copied()
                .filter(|p| p.addr != self.me.addr)
        })
    }

    fn handle_join(&mut self, joiner: PeerInfo, hops: u32) -> Vec<(Addr, RingMsg)> {
        if hops > JOIN_MAX_HOPS {
            // While successor lists are transiently inconsistent (mid-heal
            // after a crash), greedy forwarding can cycle between two
            // nodes that each believe the other is closer to the joiner.
            // Drop the message instead of orbiting forever; the joiner
            // re-sends its join on a timer.
            return vec![];
        }
        if joiner.addr == self.me.addr {
            // A retried join that routed back to its own sender; adopting
            // ourselves as predecessor would fabricate a detached
            // whole-ring owner.
            return vec![];
        }
        if self.predecessor.map(|p| p.addr) == Some(joiner.addr) {
            // Re-join after a lost ack: we already adopted this joiner as
            // predecessor, so no other node can own its key (ownership
            // ranges are predecessor-exclusive). Re-ack; the joiner's
            // predecessor pointer is repaired by normal stabilization.
            return vec![(
                joiner.addr,
                RingMsg::JoinAck {
                    successor: self.me,
                    predecessor: None,
                    successors: self.successors.clone(),
                },
            )];
        }
        if self.owns(&joiner.id) {
            // The joiner becomes our predecessor; hand it our old one.
            // (For a singleton ring the old predecessor is ourselves, which
            // is exactly the joiner's correct predecessor.)
            let old_pred = self.predecessor;
            let ack = RingMsg::JoinAck {
                successor: self.me,
                predecessor: old_pred,
                successors: self.successors.clone(),
            };
            self.predecessor = Some(joiner);
            self.learn(joiner);
            self.push_successor(joiner);
            let mut out = vec![(joiner.addr, ack)];
            // Hand the joiner to the old predecessor now: the answer its
            // next stabilization probe would fetch, sent a tick early, so
            // the join converges in message time.
            if let Some(p) = old_pred.filter(|p| p.addr != self.me.addr && p.addr != joiner.addr) {
                out.push((
                    p.addr,
                    RingMsg::Neighbors {
                        me: self.me,
                        predecessor: Some(joiner),
                        successors: self.successors.clone(),
                    },
                ));
            }
            return out;
        }
        let next = match self.next_hop(&joiner.id) {
            // Never back to the joiner: a hand-off can name it as our
            // successor before its ack lands, and it would drop its own
            // join. The next successor past it is the adopter's side;
            // with none, the joiner's retry finds a fuller view.
            Some(p) if p.addr == joiner.addr => {
                let skip = [joiner.addr, self.me.addr];
                let Some(&past) = self.successors.iter().find(|s| !skip.contains(&s.addr)) else {
                    return vec![];
                };
                past
            }
            Some(next) => next,
            None => {
                // Single bootstrap node that hasn't formed a ring view yet.
                let ack = RingMsg::JoinAck {
                    successor: self.me,
                    predecessor: Some(self.me),
                    successors: self.successors.clone(),
                };
                self.predecessor = Some(joiner);
                self.push_successor(joiner);
                return vec![(joiner.addr, ack)];
            }
        };
        vec![(
            next.addr,
            RingMsg::Join {
                joiner,
                hops: hops + 1,
            },
        )]
    }

    fn adopt_successor(&mut self, s: PeerInfo) {
        if s.addr == self.me.addr {
            return;
        }
        self.successors.retain(|p| p.addr != s.addr);
        self.successors.insert(0, s);
        self.truncate_successors();
    }

    fn push_successor(&mut self, s: PeerInfo) {
        if s.addr == self.me.addr || self.successors.iter().any(|p| p.addr == s.addr) {
            return;
        }
        // Keep list sorted by clockwise distance from our ID.
        self.successors.push(s);
        let my_id = self.me.id;
        self.successors.sort_by_key(|p| my_id.distance_to(&p.id));
        self.truncate_successors();
    }

    fn truncate_successors(&mut self) {
        let my_id = self.me.id;
        self.successors.sort_by_key(|p| my_id.distance_to(&p.id));
        self.successors.dedup_by_key(|p| p.addr);
        self.successors.truncate(self.cfg.successors);
    }

    fn learn(&mut self, p: PeerInfo) {
        if p.addr == self.me.addr || self.fingers.iter().any(|f| f.addr == p.addr) {
            return;
        }
        self.fingers.push(p);
        if self.fingers.len() > MAX_FINGERS {
            self.fingers.remove(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a set of protocol nodes to quiescence in-memory.
    struct Pump {
        nodes: Vec<ProtocolNode>,
        queue: std::collections::VecDeque<(Addr, RingMsg)>,
    }

    impl Pump {
        fn new() -> Self {
            Pump {
                nodes: Vec::new(),
                queue: Default::default(),
            }
        }

        fn bootstrap(&mut self, frac: f64) -> Addr {
            let addr = self.nodes.len();
            self.nodes.push(ProtocolNode::bootstrap(
                Key::from_fraction(frac),
                addr,
                NodeConfig::default(),
            ));
            addr
        }

        fn join(&mut self, frac: f64, seed: Addr) -> Addr {
            let addr = self.nodes.len();
            let (node, msgs) =
                ProtocolNode::join(Key::from_fraction(frac), addr, NodeConfig::default(), seed);
            self.nodes.push(node);
            self.queue.extend(msgs);
            self.drain();
            addr
        }

        fn drain(&mut self) {
            let mut budget = 100_000;
            while let Some((to, msg)) = self.queue.pop_front() {
                let out = self.nodes[to].handle(msg);
                self.queue.extend(out);
                budget -= 1;
                assert!(budget > 0, "message storm");
            }
        }

        fn stabilize(&mut self, rounds: usize) {
            for _ in 0..rounds {
                for i in 0..self.nodes.len() {
                    let out = self.nodes[i].tick();
                    self.queue.extend(out);
                }
                self.drain();
            }
        }

        fn lookup(&mut self, from: Addr, key: Key) -> LookupResult {
            let (req, msgs) = self.nodes[from].start_lookup(key);
            self.queue.extend(msgs);
            self.drain();
            let done = self.nodes[from].take_completed();
            done.into_iter()
                .find(|r| r.req_id == req)
                .expect("lookup must complete")
        }
    }

    fn build_ring(fracs: &[f64]) -> Pump {
        let mut p = Pump::new();
        let seed = p.bootstrap(fracs[0]);
        for &f in &fracs[1..] {
            p.join(f, seed);
            p.stabilize(3);
        }
        p.stabilize(5);
        p
    }

    #[test]
    fn two_nodes_form_a_ring() {
        let p = build_ring(&[0.3, 0.7]);
        let a = &p.nodes[0];
        let b = &p.nodes[1];
        assert_eq!(a.successors()[0].addr, 1);
        assert_eq!(b.successors()[0].addr, 0);
        assert_eq!(a.predecessor().unwrap().addr, 1);
        assert_eq!(b.predecessor().unwrap().addr, 0);
    }

    #[test]
    fn ranges_partition_after_joins() {
        let p = build_ring(&[0.1, 0.35, 0.6, 0.85]);
        // Every node's owned range ends at its own ID and starts at its
        // ring predecessor's ID.
        let mut ends: Vec<f64> = p
            .nodes
            .iter()
            .map(|n| n.owned_range().unwrap().end().to_fraction())
            .collect();
        ends.sort_by(f64::total_cmp);
        assert_eq!(ends.len(), 4);
        // Check each key lands in exactly one claimed range.
        for f in [0.0, 0.2, 0.4, 0.5, 0.7, 0.9, 0.99] {
            let k = Key::from_fraction(f);
            let owners: Vec<_> = p
                .nodes
                .iter()
                .filter(|n| n.owned_range().unwrap().contains(&k))
                .map(|n| n.me().addr)
                .collect();
            assert_eq!(owners.len(), 1, "key at {f} owned by {owners:?}");
        }
    }

    #[test]
    fn lookups_find_correct_owner() {
        let mut p = build_ring(&[0.1, 0.35, 0.6, 0.85]);
        let cases = [
            (0.05, 0.1),
            (0.2, 0.35),
            (0.5, 0.6),
            (0.7, 0.85),
            (0.9, 0.1), // wraps
        ];
        for (kf, owner_frac) in cases {
            let res = p.lookup(2, Key::from_fraction(kf));
            assert_eq!(
                res.owner.id,
                Key::from_fraction(owner_frac),
                "key {kf} should be owned by node at {owner_frac}"
            );
        }
    }

    #[test]
    fn lookup_reports_range_and_successors() {
        let mut p = build_ring(&[0.2, 0.5, 0.8]);
        let res = p.lookup(0, Key::from_fraction(0.45));
        assert!(res.range.contains(&Key::from_fraction(0.45)));
        assert!(!res.successors.is_empty());
    }

    #[test]
    fn advertised_range_is_the_range_claimed() {
        // Without a predecessor a node claims its own ID only, and must
        // not advertise more: a lookup cache would route the whole ring
        // to it.
        let id = Key::from_fraction(0.4);
        let (mut lone, _) = ProtocolNode::join(id, 2, NodeConfig::default(), 0);
        assert_eq!(lone.owned_range(), None);
        let (req, out) = lone.start_lookup(id);
        assert!(out.is_empty());
        let res = lone
            .take_completed()
            .pop()
            .expect("own ID resolves locally");
        assert_eq!(res.req_id, req);
        assert!(res.range.contains(&id));
        for other in [id.successor_point(), Key::from_fraction(0.39), Key::MIN] {
            assert!(!res.range.contains(&other), "advertised {other:?}");
        }
        // A single-node ring owns, and advertises, everything.
        let mut p = Pump::new();
        let seed = p.bootstrap(0.3);
        assert!(p.lookup(seed, Key::from_fraction(0.9)).range.is_full());
    }

    #[test]
    fn self_lookup_completes_locally() {
        let mut p = build_ring(&[0.2, 0.5, 0.8]);
        // Node 1 (at 0.5) looks up a key it owns.
        let res = p.lookup(1, Key::from_fraction(0.4));
        assert_eq!(res.owner.addr, 1);
        assert_eq!(res.hops, 0);
    }

    #[test]
    fn larger_ring_hops_bounded() {
        let fracs: Vec<f64> = (0..24).map(|i| (i as f64 + 0.5) / 24.0).collect();
        let mut p = build_ring(&fracs);
        p.stabilize(8);
        let res = p.lookup(0, Key::from_fraction(0.49));
        assert!(res.hops <= 24, "hops {} should be bounded", res.hops);
        // Owner of 0.49 is its clockwise successor, the node at 12.5/24.
        assert_eq!(res.owner.id, Key::from_fraction(12.5 / 24.0));
    }

    #[test]
    fn rejoin_after_lost_ack_is_reacked() {
        let mut p = build_ring(&[0.2, 0.6]);
        // A node at 0.4 joins through node 0, but its JoinAck is lost:
        // deliver the join to the ring, then drop every message addressed
        // to the joiner (addr 2).
        let (mut c, join_msgs) =
            ProtocolNode::join(Key::from_fraction(0.4), 2, NodeConfig::default(), 0);
        p.queue.extend(join_msgs);
        let mut dropped = 0;
        while let Some((to, msg)) = p.queue.pop_front() {
            if to == 2 {
                dropped += 1;
                continue;
            }
            let out = p.nodes[to].handle(msg);
            p.queue.extend(out);
        }
        assert!(dropped > 0, "the ring should have acked the join");
        assert!(!c.is_joined());
        // The owner (node 1 at 0.6) already adopted the joiner.
        assert_eq!(p.nodes[1].predecessor().unwrap().addr, 2);

        // The joiner retries; this time messages flow. The owner must
        // re-ack even though no node's owned range contains 0.4 anymore.
        p.queue.push_back((
            0,
            RingMsg::Join {
                joiner: c.me(),
                hops: 0,
            },
        ));
        while let Some((to, msg)) = p.queue.pop_front() {
            if to == 2 {
                p.queue.extend(c.handle(msg));
            } else {
                let out = p.nodes[to].handle(msg);
                p.queue.extend(out);
            }
        }
        assert!(c.is_joined(), "retried join must be acked");
        assert_eq!(c.successors()[0].addr, 1);
        // Stabilization then repairs the joiner's predecessor pointer.
        p.nodes.push(c);
        p.stabilize(5);
        assert_eq!(p.nodes[2].predecessor().unwrap().addr, 0);
        assert_eq!(p.nodes[0].successors()[0].addr, 2);
    }

    #[test]
    fn join_converges_without_a_tick() {
        let mut p = build_ring(&[0.1, 0.35, 0.6, 0.85]);
        // The node at 0.5 joins between node 1 (0.35) and node 2 (0.6);
        // `join` drains every message and ticks nobody.
        let joiner = p.join(0.5, 0);
        assert_eq!(p.nodes[2].predecessor().unwrap().addr, joiner);
        assert_eq!(p.nodes[joiner].predecessor().unwrap().addr, 1);
        assert_eq!(p.nodes[joiner].successors()[0].addr, 2);
        assert_eq!(p.nodes[1].successors()[0].addr, joiner);
    }

    #[test]
    fn a_stable_round_sends_one_notify_per_node() {
        let mut p = build_ring(&[0.1, 0.25, 0.4, 0.55, 0.7, 0.85]);
        for i in 0..p.nodes.len() {
            let out = p.nodes[i].tick();
            p.queue.extend(out);
        }
        let mut notifies = vec![0; p.nodes.len()];
        while let Some((to, msg)) = p.queue.pop_front() {
            if let RingMsg::Notify { candidate } = msg {
                notifies[candidate.addr] += 1;
            }
            let out = p.nodes[to].handle(msg);
            p.queue.extend(out);
        }
        assert_eq!(notifies, vec![1; p.nodes.len()]);
    }

    #[test]
    fn self_join_is_ignored() {
        let mut p = build_ring(&[0.2, 0.6]);
        let me = p.nodes[0].me();
        let out = p.nodes[0].handle(RingMsg::Join {
            joiner: me,
            hops: 0,
        });
        assert!(out.is_empty());
        assert_ne!(p.nodes[0].predecessor().unwrap().addr, me.addr);
    }

    #[test]
    fn forget_removes_pointers() {
        let mut p = build_ring(&[0.2, 0.5, 0.8]);
        p.nodes[0].forget(1);
        assert!(p.nodes[0].successors().iter().all(|s| s.addr != 1));
        // Stabilization repairs the ring around the gap.
        p.stabilize(5);
        assert!(p.nodes[0].is_joined());
    }

    /// Mirrors the live runtime's send semantics: a send to a dead
    /// address fails and makes the *sender* forget it, exactly like
    /// `NodeRuntime::send_all`. Runs `rounds` tick-and-drain rounds.
    fn stabilize_with_dead(p: &mut Pump, dead: &[Addr], rounds: usize) {
        for _ in 0..rounds {
            let mut q: std::collections::VecDeque<(Addr, Addr, RingMsg)> = Default::default();
            for i in 0..p.nodes.len() {
                if dead.contains(&i) {
                    continue;
                }
                for (to, m) in p.nodes[i].tick() {
                    q.push_back((i, to, m));
                }
            }
            let mut budget = 100_000;
            while let Some((from, to, msg)) = q.pop_front() {
                budget -= 1;
                assert!(budget > 0, "message storm");
                if dead.contains(&to) {
                    p.nodes[from].forget(to);
                    continue;
                }
                for (nt, nm) in p.nodes[to].handle(msg) {
                    q.push_back((to, nt, nm));
                }
            }
        }
    }

    #[test]
    fn dead_tail_successors_do_not_wedge_stabilization() {
        // Two adjacent nodes (0.5, 0.6) crash. Their ring predecessor's
        // predecessor (node 0) holds both in the *tail* of its successor
        // list, where a head-only probe would never touch them: its
        // Neighbors replies then re-insert the dead pair at the head of
        // node 1's list every round, one forget per reply can't keep up
        // with two re-added corpses, and node 1 never probes its true
        // successor (node 4) — the ring stays split forever. Full-list
        // probing evicts the tail entries at their source.
        let mut p = build_ring(&[0.1, 0.3, 0.5, 0.6, 0.9]);
        let dead = [2, 3];
        assert!(
            p.nodes[0]
                .successors()
                .iter()
                .any(|s| dead.contains(&s.addr)),
            "wedge precondition: node 0 must advertise a dead tail"
        );
        stabilize_with_dead(&mut p, &dead, 12);
        // The ring heals across the dead arc: 0 -> 1 -> 4 -> 0.
        assert_eq!(p.nodes[1].successors()[0].addr, 4);
        assert_eq!(p.nodes[4].predecessor().unwrap().addr, 1);
        assert_eq!(p.nodes[4].successors()[0].addr, 0);
        assert_eq!(p.nodes[0].predecessor().unwrap().addr, 4);
        // And no live node still advertises a corpse anywhere.
        for (i, n) in p.nodes.iter().enumerate() {
            if dead.contains(&i) {
                continue;
            }
            assert!(
                n.successors().iter().all(|s| !dead.contains(&s.addr)),
                "node {i} still lists a dead successor: {:?}",
                n.successors().iter().map(|s| s.addr).collect::<Vec<_>>()
            );
        }
    }
}
