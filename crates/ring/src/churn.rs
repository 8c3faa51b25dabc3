//! Churn-hardened routing: fault-injected lookups with retry, timeout,
//! and backoff, plus ring self-stabilization.
//!
//! The plain [`Router::lookup`](crate::routing::Router::lookup) models
//! the *converged* overlay: every message arrives, every table entry is
//! checked against the oracle ring. Under the paper's §8 failure traces
//! neither holds — nodes crash with their links still advertised
//! everywhere, rejoin unannounced, and messages to the dead simply
//! vanish. This module adds the protocol machinery that makes lookups
//! survive that regime:
//!
//! - [`Router::lookup_churn`] — greedy routing in which every hop is a
//!   real message with an injected fate (see [`FaultOracle`]): a drop
//!   or a dead peer costs a timeout, a capped-exponential backoff, and
//!   one unit of the per-lookup retry budget; peers that the follow-up
//!   liveness probes confirm dead are evicted from the prober's table,
//!   and the prober falls back to its next-closest link (ultimately its
//!   alternate successors);
//! - [`Router::stabilize_round`] — the periodic repair pass (successor-
//!   list repair, predecessor-side reconvergence, long-link refresh,
//!   dead-link eviction) that restores tables between failures, per
//!   Zave's observation that successor-list maintenance is what keeps
//!   Chord-like rings correct under churn.
//!
//! The split mirrors "How to Make Chord Correct": reactive eviction
//! keeps individual lookups live, periodic stabilization restores the
//! invariant that every live node's successor list is a prefix of the
//! true live ring order. The
//! [`prop_churn`](https://docs.rs/d2-ring) property tests assert
//! exactly that invariant after arbitrary join/leave/crash interleavings.

use crate::ring::{NodeIdx, Ring};
use crate::routing::{Router, RoutingTable};
use d2_obs::{SharedSink, TraceEvent};
use d2_types::Key;

/// Fate of one injected routing message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageFate {
    /// Delivered after `delay_us` microseconds.
    Delivered {
        /// One-way delivery delay.
        delay_us: u64,
    },
    /// Silently lost; the sender learns only by timeout.
    Dropped,
}

/// What the routing layer may ask about the world it runs in: node
/// liveness over virtual time and per-message fates.
///
/// `d2-sim`'s `FaultPlan` is the production implementation; [`NoFaults`]
/// is the always-healthy control used by tests and property checks.
pub trait FaultOracle {
    /// Whether `node` is up at virtual time `t_us`.
    fn node_up(&self, node: NodeIdx, t_us: u64) -> bool;

    /// Fate of the next message, sent at `t_us`. Implementations may
    /// keep a sequence counter (hence `&mut`), but must be
    /// deterministic for a given call sequence.
    fn message_fate(&mut self, t_us: u64) -> MessageFate;
}

/// The trivial oracle: every node up, every message delivered instantly.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultOracle for NoFaults {
    fn node_up(&self, _node: NodeIdx, _t_us: u64) -> bool {
        true
    }

    fn message_fate(&mut self, _t_us: u64) -> MessageFate {
        MessageFate::Delivered { delay_us: 0 }
    }
}

/// Retry/timeout/backoff policy for churn-hardened lookups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total retry budget per lookup (across all hops). Exhausting it
    /// fails the lookup with [`LookupOutcome::RetriesExhausted`].
    pub max_retries: u32,
    /// How long a prober waits before declaring a hop dead, µs.
    pub hop_timeout_us: u64,
    /// First-retry backoff, µs; doubles per retry.
    pub backoff_base_us: u64,
    /// Upper bound on any single backoff, µs.
    pub backoff_cap_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Timeout ≈ 5× the ~90 ms mean RTT of the latency matrix;
        // backoff 100 ms → 200 ms → … capped at 2 s.
        RetryPolicy {
            max_retries: 8,
            hop_timeout_us: 500_000,
            backoff_base_us: 100_000,
            backoff_cap_us: 2_000_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (1-based): capped exponential
    /// `base · 2^(retry-1)`.
    pub fn backoff_us(&self, retry: u32) -> u64 {
        let shift = retry.saturating_sub(1).min(20);
        self.backoff_base_us
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_us)
    }
}

/// How a churn-hardened lookup ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Reached the live owner of the key.
    Success,
    /// The per-lookup retry budget ran out.
    RetriesExhausted,
    /// No usable link remained (isolated prober, empty ring, or the
    /// hop cap tripped on a stale-table orbit).
    NoRoute,
}

/// Statistics from one fault-injected lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnLookup {
    /// Terminal outcome.
    pub outcome: LookupOutcome,
    /// The live owner, when the lookup succeeded.
    pub owner: Option<NodeIdx>,
    /// Successful forwarding hops.
    pub hops: u32,
    /// Retries consumed (each one timeout + backoff); never exceeds
    /// [`RetryPolicy::max_retries`].
    pub retries: u32,
    /// Hop attempts that timed out (drop or dead peer).
    pub timeouts: u32,
    /// Messages sent, including the failed attempts.
    pub messages: u32,
    /// Total virtual latency: delivery delays + timeouts + backoffs.
    pub latency_us: u64,
}

impl ChurnLookup {
    /// Whether the lookup reached the owner.
    pub fn ok(&self) -> bool {
        self.outcome == LookupOutcome::Success
    }
}

/// Statistics from one stabilization round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StabilizeStats {
    /// Live nodes whose tables were refreshed.
    pub nodes: u32,
    /// Links added or retargeted (successor repair + long-link refresh).
    pub repaired: u32,
    /// Stale links removed (dead or departed peers).
    pub evicted: u32,
}

impl Router {
    /// Routes a lookup for `key` from `from` through the (possibly
    /// stale) tables, with every hop subject to `faults` and failures
    /// handled per `policy`.
    ///
    /// Each hop sends a real message: a drop or a dead peer costs
    /// [`RetryPolicy::hop_timeout_us`] plus a capped-exponential
    /// backoff and one unit of the retry budget. A peer that the
    /// follow-up liveness probes confirm dead is evicted from the
    /// prober's table ([`Router::evict_link`] — never the last link),
    /// and the prober falls back to its next-closest preceding link,
    /// ultimately walking its alternate successors; a live peer that
    /// merely lost a packet keeps its links and is simply retried.
    /// Termination is checked against `live` (the oracle membership):
    /// the lookup succeeds when it reaches the node that currently owns
    /// `key` among live nodes. A hop cap of `O(log n)` bounds orbiting
    /// on stale tables (e.g. a successor link that overshoots a
    /// just-rejoined owner), converting it into [`LookupOutcome::NoRoute`].
    ///
    /// Takes `&mut self` because failed links are evicted as a side
    /// effect — the negative feedback that lets consecutive lookups
    /// converge while stabilization is still pending.
    pub fn lookup_churn<F: FaultOracle>(
        &mut self,
        live: &Ring,
        from: NodeIdx,
        key: &Key,
        policy: &RetryPolicy,
        faults: &mut F,
        t_us: u64,
    ) -> ChurnLookup {
        let mut s = ChurnLookup {
            outcome: LookupOutcome::NoRoute,
            owner: None,
            hops: 0,
            retries: 0,
            timeouts: 0,
            messages: 0,
            latency_us: 0,
        };
        let Some(target) = live.owner_of(key) else {
            return s;
        };
        let hop_cap = 4 * (usize::BITS - live.len().leading_zeros()) + 16;
        let mut elapsed = 0u64;
        let mut cur = from;
        'route: while cur != target {
            if s.hops > hop_cap {
                break 'route; // stale-table orbit: give up (NoRoute)
            }
            // Attempt loop at `cur`: greedy candidate, then successively
            // closer links as confirmed-dead peers are evicted (a live
            // peer that dropped a packet stays the candidate and is
            // retried).
            loop {
                let cand = self.table(cur).and_then(|t| {
                    t.closest_preceding(key)
                        .map(|(_, p)| p)
                        .or_else(|| t.links.first().map(|&(_, p)| p))
                });
                let Some(peer) = cand else {
                    break 'route; // isolated: no links left (NoRoute)
                };
                s.messages += 1;
                let delivered = match faults.message_fate(t_us + elapsed) {
                    MessageFate::Dropped => None,
                    MessageFate::Delivered { delay_us } => faults
                        .node_up(peer, t_us + elapsed + delay_us)
                        .then_some(delay_us),
                };
                match delivered {
                    Some(delay_us) => {
                        elapsed += delay_us;
                        s.hops += 1;
                        cur = peer;
                        continue 'route;
                    }
                    None => {
                        s.timeouts += 1;
                        elapsed += policy.hop_timeout_us;
                        if s.retries >= policy.max_retries {
                            s.outcome = LookupOutcome::RetriesExhausted;
                            s.latency_us = elapsed;
                            return s;
                        }
                        s.retries += 1;
                        elapsed += policy.backoff_us(s.retries);
                        // The timeout triggers liveness probes of the
                        // peer; only a peer that is *actually* down fails
                        // them and gets evicted (abstracting the
                        // consecutive-timeout death detector — a live
                        // peer whose message was dropped answers its
                        // probes and keeps its links, so one lost packet
                        // cannot sever a successor chain). If the dead
                        // peer was the last link the eviction is refused
                        // and the retry goes back to it (keep-your-last-
                        // successor rule; the budget bounds the loop).
                        if !faults.node_up(peer, t_us + elapsed) {
                            self.evict_link(cur, peer);
                        }
                    }
                }
            }
        }
        if cur == target {
            s.outcome = LookupOutcome::Success;
            s.owner = Some(target);
        }
        s.latency_us = elapsed;
        s
    }

    /// [`Router::lookup_churn`] plus a [`TraceEvent::ChurnLookup`]
    /// record in `sink`. With a null sink the event is never built.
    #[allow(clippy::too_many_arguments)]
    pub fn lookup_churn_traced<F: FaultOracle>(
        &mut self,
        live: &Ring,
        from: NodeIdx,
        key: &Key,
        policy: &RetryPolicy,
        faults: &mut F,
        t_us: u64,
        sink: &SharedSink,
    ) -> ChurnLookup {
        let s = self.lookup_churn(live, from, key, policy, faults, t_us);
        sink.record_with(|| TraceEvent::ChurnLookup {
            t_us,
            from: from.0,
            key: key.to_u64_lossy(),
            ok: s.ok(),
            hops: s.hops,
            retries: s.retries,
            timeouts: s.timeouts,
            latency_us: s.latency_us,
        });
        s
    }

    /// One stabilization step for a single live node: rebuilds its
    /// successor list and long links from the live ring, returning
    /// `(repaired, evicted)` link counts. A node absent from `live`
    /// keeps its (frozen) table — a crashed node's state survives on
    /// disk and is refreshed when it rejoins.
    ///
    /// This models the *converged result* of Chord/Mercury maintenance
    /// traffic — each node asking its successor for its successor list,
    /// probing its predecessor, and re-resolving long-link targets —
    /// rather than the individual messages; the live deployment in
    /// `d2-net` runs the message-level version (`ProtocolNode::tick`).
    pub fn stabilize_node(&mut self, live: &Ring, node: NodeIdx) -> (u32, u32) {
        let Some(fresh) = RoutingTable::build(live, node, self.succ_count()) else {
            return (0, 0);
        };
        let (repaired, evicted) = match self.table(node) {
            Some(old) => {
                let gained = fresh
                    .links
                    .iter()
                    .filter(|l| !old.links.contains(l))
                    .count();
                let lost = old
                    .links
                    .iter()
                    .filter(|l| !fresh.links.contains(l))
                    .count();
                (gained as u32, lost as u32)
            }
            None => (fresh.links.len() as u32, 0),
        };
        self.set_table(node, Some(fresh));
        (repaired, evicted)
    }

    /// One full stabilization round: every live node repairs its
    /// successor list, refreshes its long links, and drops links to
    /// dead or departed peers. After a round, every live node's
    /// successor links are exactly the live ring's successors — the
    /// consistency invariant the churn property tests assert.
    pub fn stabilize_round(&mut self, live: &Ring) -> StabilizeStats {
        let mut stats = StabilizeStats::default();
        for node in live.nodes() {
            let (repaired, evicted) = self.stabilize_node(live, node);
            stats.nodes += 1;
            stats.repaired += repaired;
            stats.evicted += evicted;
        }
        stats
    }

    /// [`Router::stabilize_round`] plus a [`TraceEvent::Stabilize`]
    /// record in `sink`.
    pub fn stabilize_round_traced(
        &mut self,
        live: &Ring,
        t_us: u64,
        sink: &SharedSink,
    ) -> StabilizeStats {
        let stats = self.stabilize_round(live);
        sink.record_with(|| TraceEvent::Stabilize {
            t_us,
            nodes: stats.nodes,
            repaired: stats.repaired,
            evicted: stats.evicted,
        });
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Scripted oracle: a set of dead nodes plus an optional forced-drop
    /// schedule (message n is dropped when `drops` contains n).
    struct Scripted {
        dead: HashSet<usize>,
        drops: HashSet<u64>,
        sent: u64,
        delay_us: u64,
    }

    impl Scripted {
        fn healthy() -> Scripted {
            Scripted {
                dead: HashSet::new(),
                drops: HashSet::new(),
                sent: 0,
                delay_us: 1000,
            }
        }
    }

    impl FaultOracle for Scripted {
        fn node_up(&self, node: NodeIdx, _t_us: u64) -> bool {
            !self.dead.contains(&node.0)
        }

        fn message_fate(&mut self, _t_us: u64) -> MessageFate {
            let n = self.sent;
            self.sent += 1;
            if self.drops.contains(&n) {
                MessageFate::Dropped
            } else {
                MessageFate::Delivered {
                    delay_us: self.delay_us,
                }
            }
        }
    }

    fn uniform_ring(n: usize) -> Ring {
        let mut ring = Ring::new();
        for i in 0..n {
            ring.add_node(Key::from_fraction(i as f64 / n as f64));
        }
        ring
    }

    #[test]
    fn no_faults_matches_plain_lookup() {
        let ring = uniform_ring(64);
        let mut router = Router::build(&ring, 4);
        let policy = RetryPolicy::default();
        for i in 0..50 {
            let from = ring.node_at_rank(i * 7).unwrap();
            let key = Key::from_fraction((i as f64 * 0.173) % 1.0);
            let plain = router.lookup(&ring, from, &key).unwrap();
            let churn = router.lookup_churn(&ring, from, &key, &policy, &mut NoFaults, 0);
            assert_eq!(churn.outcome, LookupOutcome::Success);
            assert_eq!(churn.owner, Some(plain.owner));
            assert_eq!(churn.hops, plain.hops, "same route when nothing fails");
            assert_eq!(churn.retries, 0);
            assert_eq!(churn.timeouts, 0);
        }
    }

    #[test]
    fn dead_successor_falls_back_to_alternate() {
        let ring = uniform_ring(32);
        let mut router = Router::build(&ring, 4);
        // Kill the owner's predecessor-side route: make the node right
        // before the key's owner dead, but leave it in the live ring's
        // predecessor's table.
        let key = Key::from_fraction(0.51);
        let mut live = ring.clone();
        let dead_node = live.owner_of(&key).unwrap();
        live.remove_node(dead_node); // crashed: tables still point at it
        let mut faults = Scripted::healthy();
        faults.dead.insert(dead_node.0);

        let from = live.node_at_rank(0).unwrap();
        let policy = RetryPolicy::default();
        let s = router.lookup_churn(&live, from, &key, &policy, &mut faults, 0);
        assert_eq!(s.outcome, LookupOutcome::Success);
        assert_eq!(s.owner, live.owner_of(&key));
        assert!(s.retries >= 1, "must have retried past the dead node");
        assert_eq!(s.timeouts, s.retries);
    }

    #[test]
    fn eviction_learns_across_lookups() {
        let ring = uniform_ring(32);
        let mut router = Router::build(&ring, 4);
        let key = Key::from_fraction(0.51);
        let mut live = ring.clone();
        let dead_node = live.owner_of(&key).unwrap();
        live.remove_node(dead_node);
        let mut faults = Scripted::healthy();
        faults.dead.insert(dead_node.0);
        let from = live.node_at_rank(0).unwrap();
        let policy = RetryPolicy::default();
        let first = router.lookup_churn(&live, from, &key, &policy, &mut faults, 0);
        let second = router.lookup_churn(&live, from, &key, &policy, &mut faults, 0);
        assert!(first.ok() && second.ok());
        assert!(
            second.retries < first.retries || second.retries == 0,
            "evicted links must not be retried: {} then {}",
            first.retries,
            second.retries
        );
    }

    #[test]
    fn retry_budget_is_respected_and_capped() {
        let ring = uniform_ring(8);
        let mut router = Router::build(&ring, 2);
        let from = ring.node_at_rank(0).unwrap();
        let key = Key::from_fraction(0.6);
        // Everything except the requester is dead: no lookup can finish.
        let mut faults = Scripted::healthy();
        for n in ring.nodes() {
            if n != from {
                faults.dead.insert(n.0);
            }
        }
        let policy = RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::default()
        };
        let s = router.lookup_churn(&ring, from, &key, &policy, &mut faults, 0);
        assert_eq!(s.outcome, LookupOutcome::RetriesExhausted);
        assert_eq!(s.retries, policy.max_retries);
        assert!(s.owner.is_none());
    }

    #[test]
    fn drops_cost_retries_but_not_correctness() {
        let ring = uniform_ring(64);
        let mut router = Router::build(&ring, 4);
        let from = ring.node_at_rank(3).unwrap();
        let key = Key::from_fraction(0.77);
        let mut faults = Scripted::healthy();
        faults.drops.insert(0); // first message lost
        let policy = RetryPolicy::default();
        let s = router.lookup_churn(&ring, from, &key, &policy, &mut faults, 0);
        assert_eq!(s.outcome, LookupOutcome::Success);
        assert_eq!(s.retries, 1);
        assert_eq!(s.timeouts, 1);
        assert!(
            s.latency_us >= policy.hop_timeout_us + policy.backoff_us(1),
            "latency must include the timeout and backoff"
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            hop_timeout_us: 1,
            backoff_base_us: 100,
            backoff_cap_us: 450,
        };
        assert_eq!(p.backoff_us(1), 100);
        assert_eq!(p.backoff_us(2), 200);
        assert_eq!(p.backoff_us(3), 400);
        assert_eq!(p.backoff_us(4), 450);
        assert_eq!(p.backoff_us(30), 450);
    }

    #[test]
    fn self_lookup_costs_nothing_even_under_faults() {
        let ring = uniform_ring(16);
        let mut router = Router::build(&ring, 4);
        let node = ring.node_at_rank(5).unwrap();
        let own_id = ring.id_of(node).unwrap();
        let mut faults = Scripted::healthy();
        faults.drops.extend(0..100);
        let s = router.lookup_churn(
            &ring,
            node,
            &own_id,
            &RetryPolicy::default(),
            &mut faults,
            0,
        );
        assert_eq!(s.outcome, LookupOutcome::Success);
        assert_eq!(s.messages, 0);
        assert_eq!(s.latency_us, 0);
    }

    #[test]
    fn stabilize_round_restores_successor_lists() {
        let ring = uniform_ring(32);
        let mut router = Router::build(&ring, 4);
        let mut live = ring.clone();
        // Crash a quarter of the nodes.
        for i in 0..8 {
            live.remove_node(ring.node_at_rank(i * 4).unwrap());
        }
        let stats = router.stabilize_round(&live);
        assert_eq!(stats.nodes as usize, live.len());
        assert!(stats.evicted > 0, "dead links must be evicted");
        // Invariant: every live node's first links are the live successors.
        for node in live.nodes() {
            let t = router.table(node).unwrap();
            let succ = live.successor(node).unwrap();
            assert_eq!(t.links.first().map(|&(_, p)| p), Some(succ));
            for &(id, peer) in &t.links {
                assert_eq!(live.id_of(peer), Some(id), "no stale links remain");
            }
        }
    }

    #[test]
    fn stabilize_after_rejoin_relinks_the_returner() {
        let ring = uniform_ring(16);
        let mut router = Router::build(&ring, 3);
        let mut live = ring.clone();
        let crashed = ring.node_at_rank(7).unwrap();
        let old_id = live.remove_node(crashed).unwrap();
        router.stabilize_round(&live);
        // Nobody links to the crashed node now.
        for node in live.nodes() {
            assert!(router
                .table(node)
                .unwrap()
                .links
                .iter()
                .all(|&(_, p)| p != crashed));
        }
        // Rejoin and stabilize: the returner is linked again.
        assert!(live.add_node_at(crashed, old_id));
        router.rebuild_node(&live, crashed);
        let stats = router.stabilize_round(&live);
        assert!(stats.repaired > 0);
        let pred = live.predecessor(crashed).unwrap();
        let t = router.table(pred).unwrap();
        assert_eq!(t.links.first().map(|&(_, p)| p), Some(crashed));
    }

    #[test]
    fn evict_link_keeps_the_last_one() {
        let ring = uniform_ring(4);
        let mut router = Router::build(&ring, 1);
        let node = ring.node_at_rank(0).unwrap();
        let links: Vec<NodeIdx> = router
            .table(node)
            .unwrap()
            .links
            .iter()
            .map(|&(_, p)| p)
            .collect();
        for (i, peer) in links.iter().enumerate() {
            let removed = router.evict_link(node, *peer);
            if i + 1 < links.len() {
                assert!(removed);
            } else {
                assert!(!removed, "last link must survive");
            }
        }
        assert_eq!(router.table(node).unwrap().links.len(), 1);
    }

    #[test]
    fn traced_variants_record_events() {
        let ring = uniform_ring(32);
        let mut router = Router::build(&ring, 4);
        let sink = SharedSink::memory(0);
        let from = ring.node_at_rank(1).unwrap();
        let key = Key::from_fraction(0.4);
        let s = router.lookup_churn_traced(
            &ring,
            from,
            &key,
            &RetryPolicy::default(),
            &mut NoFaults,
            123,
            &sink,
        );
        router.stabilize_round_traced(&ring, 456, &sink);
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        match &events[0] {
            TraceEvent::ChurnLookup {
                t_us,
                ok,
                hops,
                retries,
                ..
            } => {
                assert_eq!(*t_us, 123);
                assert!(ok);
                assert_eq!(*hops, s.hops);
                assert_eq!(*retries, 0);
            }
            other => panic!("expected ChurnLookup, got {other:?}"),
        }
        match &events[1] {
            TraceEvent::Stabilize { t_us, nodes, .. } => {
                assert_eq!(*t_us, 456);
                assert_eq!(*nodes, 32);
            }
            other => panic!("expected Stabilize, got {other:?}"),
        }
        // Null sink: outcomes identical, nothing recorded.
        let null = SharedSink::null();
        router.lookup_churn_traced(
            &ring,
            from,
            &key,
            &RetryPolicy::default(),
            &mut NoFaults,
            0,
            &null,
        );
        assert!(null.drain().is_empty());
    }

    #[test]
    fn empty_ring_is_no_route() {
        let mut router = Router::default();
        let live = Ring::new();
        let s = router.lookup_churn(
            &live,
            NodeIdx(0),
            &Key::from_fraction(0.5),
            &RetryPolicy::default(),
            &mut NoFaults,
            0,
        );
        assert_eq!(s.outcome, LookupOutcome::NoRoute);
    }
}
