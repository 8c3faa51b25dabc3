//! The Zave ring-invariant suite over live status snapshots.
//!
//! Zave's "How to Make Chord Correct" reduces Chord's safety to a small
//! set of checkable properties of the pointer structure. The
//! deterministic simulation harness checks them against in-process
//! state; this module checks the *same* properties against
//! [`NodeStatus`] snapshots scraped from a running cluster (via
//! [`crate::ClusterOps::status_of`]) — so `d2-node check`, the
//! 256-node check.sh smoke, and the 1,000-node experiment all assert
//! one shared definition of "the ring is correct":
//!
//! 1. **All joined** — every live node has a predecessor and a
//!    non-empty successor list.
//! 2. **Corpse-free** — every pointer names a live node (nobody routes
//!    through the dead).
//! 3. **Ordered successor lists** — each list ascends strictly in
//!    clockwise distance from its owner, with no duplicates and never
//!    the owner itself.
//! 4. **One ring** — first successors form a single cycle covering the
//!    whole live set: each node's successor is the clockwise-next live
//!    node.
//! 5. **Consistent predecessors** — at quiescence, the predecessor
//!    pointers are the successor cycle run backwards.
//!
//! The checks are *quiescent* invariants: during churn or an unfinished
//! join they may transiently fail, which is why callers poll them
//! (e.g. a stabilization wait loop) rather than assert after a kill.

use crate::ops::NodeStatus;
use d2_ring::messages::Addr;
use std::collections::{HashMap, HashSet};

/// Outcome of one invariant pass over a set of status snapshots.
#[derive(Clone, Debug, Default)]
pub struct RingReport {
    /// Human-readable violations; empty means every invariant held.
    pub violations: Vec<String>,
    /// How many nodes were checked.
    pub nodes: usize,
    /// Sum of per-node block counts (for storage-invariant checks:
    /// after K fully-acked puts at replication r, this is at least
    /// `K * min(r, nodes)` — replicas may exceed the target after
    /// churn+repair, never undershoot it).
    pub total_blocks: usize,
}

impl RingReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the full suite against `statuses` (one snapshot per live
/// node; the live set is defined as exactly these nodes).
pub fn check_ring(statuses: &[NodeStatus]) -> RingReport {
    let mut report = RingReport {
        nodes: statuses.len(),
        total_blocks: statuses.iter().map(|s| s.blocks).sum(),
        ..RingReport::default()
    };
    if statuses.is_empty() {
        report.violations.push("no nodes to check".into());
        return report;
    }
    let live: HashSet<Addr> = statuses.iter().map(|s| s.me.addr).collect();
    if live.len() != statuses.len() {
        report
            .violations
            .push("duplicate node addresses in status set".into());
    }

    // 1 + 2: joined, and no pointers at corpses.
    for s in statuses {
        let me = s.me.addr;
        match &s.predecessor {
            None => report.violations.push(format!("{me}: no predecessor")),
            Some(p) if !live.contains(&p.addr) => report
                .violations
                .push(format!("{me}: predecessor {} is not live", p.addr)),
            _ => {}
        }
        if s.successors.is_empty() {
            report.violations.push(format!("{me}: no successors"));
        }
        for p in &s.successors {
            if p.addr == me {
                report
                    .violations
                    .push(format!("{me}: lists itself as a successor"));
            }
            if !live.contains(&p.addr) {
                report
                    .violations
                    .push(format!("{me}: successor {} is not live", p.addr));
            }
        }
        // 3: strictly ascending clockwise distance, no duplicates.
        for w in s.successors.windows(2) {
            if s.me.id.distance_to(&w[0].id) >= s.me.id.distance_to(&w[1].id) {
                report.violations.push(format!(
                    "{me}: successor list out of order ({} before {})",
                    w[0].addr, w[1].addr
                ));
            }
        }
    }

    // 4: first successors are exactly the sorted-by-id cycle.
    let n = statuses.len();
    let mut by_id: Vec<&NodeStatus> = statuses.iter().collect();
    by_id.sort_by_key(|s| s.me.id);
    for (i, s) in by_id.iter().enumerate() {
        let expect = by_id[(i + 1) % n].me.addr;
        match s.successors.first() {
            Some(first) if n > 1 && first.addr != expect => {
                report.violations.push(format!(
                    "{}: first successor is {}, clockwise-next live node is {expect}",
                    s.me.addr, first.addr
                ));
            }
            _ => {} // missing successors already reported above
        }
    }

    // 5: predecessors are the cycle run backwards.
    let pred_of: HashMap<Addr, Option<Addr>> = statuses
        .iter()
        .map(|s| (s.me.addr, s.predecessor.as_ref().map(|p| p.addr)))
        .collect();
    for (i, s) in by_id.iter().enumerate() {
        let expect = by_id[(i + n - 1) % n].me.addr;
        if let Some(Some(got)) = pred_of.get(&s.me.addr) {
            if *got != expect {
                report.violations.push(format!(
                    "{}: predecessor is {got}, clockwise-previous live node is {expect}",
                    s.me.addr
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2_ring::messages::PeerInfo;
    use d2_types::Key;

    /// A quiescent n-node ring with `succs` successors per node.
    fn healthy(n: usize, succs: usize) -> Vec<NodeStatus> {
        let peer = |i: usize| PeerInfo {
            id: Key::from_fraction(i as f64 / n as f64),
            addr: 1000 + i,
        };
        (0..n)
            .map(|i| NodeStatus {
                me: peer(i),
                predecessor: Some(peer((i + n - 1) % n)),
                successors: (1..=succs.min(n - 1)).map(|k| peer((i + k) % n)).collect(),
                blocks: 3,
            })
            .collect()
    }

    #[test]
    fn healthy_ring_passes() {
        let report = check_ring(&healthy(16, 4));
        assert!(
            report.ok(),
            "unexpected violations: {:?}",
            report.violations
        );
        assert_eq!(report.nodes, 16);
        assert_eq!(report.total_blocks, 48);
    }

    #[test]
    fn corpse_pointer_is_flagged() {
        let mut ring = healthy(8, 3);
        ring[2].successors[1].addr = 9999; // points at a dead node
        let report = check_ring(&ring);
        assert!(report.violations.iter().any(|v| v.contains("not live")));
    }

    #[test]
    fn split_ring_is_flagged() {
        // Two disjoint 4-cycles instead of one 8-cycle.
        let mut ring = healthy(8, 1);
        for i in 0..8usize {
            let j = (i + 2) % 8; // skip a node: two interleaved cycles
            ring[i].successors[0] = ring[j].me;
        }
        let report = check_ring(&ring);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("clockwise-next")),
            "split ring must be caught: {:?}",
            report.violations
        );
    }

    #[test]
    fn missing_predecessor_is_flagged() {
        let mut ring = healthy(4, 2);
        ring[0].predecessor = None;
        let report = check_ring(&ring);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("no predecessor")));
    }

    #[test]
    fn self_successor_is_flagged() {
        let mut ring = healthy(8, 3);
        ring[5].successors[2] = ring[5].me;
        let report = check_ring(&ring);
        let hit = |v: &String| v.contains("lists itself as a successor");
        assert!(report.violations.iter().any(hit), "{report:?}");
    }

    #[test]
    fn unordered_successor_list_is_flagged() {
        let mut ring = healthy(8, 3);
        ring[0].successors.swap(0, 2);
        let report = check_ring(&ring);
        assert!(!report.ok());
    }
}
