//! Properties of the seeded fault-plan generator, across every world
//! regime. These run at the plan level only — no worlds are executed —
//! so hundreds of cases stay cheap in debug mode.
//!
//! The load-bearing guarantee is the *dark budget*: at no instant may
//! the set of nodes that are crashed, seceded into a partition group,
//! or gray exceed [`Scenario::failure_budget`] (`r - 1` replicated,
//! `n - k` erasure-coded). An acked put has all its copies on distinct
//! nodes, so a plan within the budget can never destroy every copy by
//! itself — any durability violation a sweep reports is the protocol's
//! fault, not the generator's. (Symmetric isolations do not count:
//! they evict no state and always heal.) A failure prints its seed.

use d2_dst::WorldRegime::{self, Gray, Mixed, Partition};
use d2_dst::{generate_node_events, NodeEvent, RedundancyPolicy, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// `[start, end)` windows during which a node is dark (crashed,
/// seceded, or gray). A permanent crash is open-ended.
fn dark_windows(events: &[NodeEvent]) -> Vec<(usize, u64, u64)> {
    let mut out = Vec::new();
    for ev in events {
        match ev {
            NodeEvent::Crash {
                node,
                at_us,
                restart_us,
            } => out.push((*node, *at_us, restart_us.unwrap_or(u64::MAX))),
            NodeEvent::Partition {
                groups,
                at_us,
                heal_us,
            } => {
                for member in groups.iter().flatten() {
                    out.push((*member, *at_us, *heal_us));
                }
            }
            NodeEvent::Gray {
                node,
                at_us,
                heal_us,
            } => out.push((*node, *at_us, *heal_us)),
            NodeEvent::Isolate { .. } | NodeEvent::Cut { .. } => {}
        }
    }
    out
}

/// Largest number of *distinct* nodes dark at any instant.
fn max_concurrent_dark(events: &[NodeEvent]) -> usize {
    let windows = dark_windows(events);
    let mut worst = 0;
    for &(_, t, _) in &windows {
        let dark: BTreeSet<usize> = windows
            .iter()
            .filter(|&&(_, s, e)| s <= t && t < e)
            .map(|&(n, _, _)| n)
            .collect();
        worst = worst.max(dark.len());
    }
    worst
}

/// Every node an event names, for the "node 0 is sacred" check.
fn named_nodes(ev: &NodeEvent) -> Vec<usize> {
    match ev {
        NodeEvent::Crash { node, .. }
        | NodeEvent::Isolate { node, .. }
        | NodeEvent::Gray { node, .. } => vec![*node],
        NodeEvent::Partition { groups, .. } => groups.iter().flatten().copied().collect(),
        NodeEvent::Cut { from, to, .. } => vec![*from, *to],
    }
}

/// The generator's contract, for every regime at once: budget, node-0
/// safety, window bounds, and determinism.
#[test]
fn generated_plans_respect_the_contract() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let seed = rng.random_range(0..1_000_000);
        let nodes = rng.random_range(4..14);
        let replicas: u32 = rng.random_range(2..5);
        for regime in WorldRegime::ALL {
            let sc = Scenario {
                seed,
                nodes,
                redundancy: RedundancyPolicy::Replicate {
                    r: replicas as usize,
                },
                regime,
                ..Scenario::default()
            };
            let at = format!("case {case}, {}", regime.label());
            let events = generate_node_events(&sc);

            // Dark budget: f < r at every instant, counting distinct
            // nodes (an aligned crash of a partition member is one dark
            // node, not two).
            assert!(
                max_concurrent_dark(&events) <= sc.failure_budget(),
                "{at}: dark budget exceeded (budget {}): {events:?}",
                sc.failure_budget(),
            );

            for ev in &events {
                // Node 0 is the join seed and the remerge anchor: it is
                // never crashed, isolated, grouped, grayed, or an
                // endpoint of a cut.
                assert!(!named_nodes(ev).contains(&0), "{at}: {ev:?}");
                // Every named node exists.
                assert!(
                    named_nodes(ev).iter().all(|&n| n < nodes),
                    "{at}: event names a node outside 0..{nodes}: {ev:?}",
                );
                // Windows open before fault_end and close before it too
                // — the heal phase starts with no fault active.
                assert!(ev.at_us() < sc.fault_end_us, "{at}: {ev:?}");
                if let Some(heal) = ev.heal_us() {
                    assert!(ev.at_us() < heal, "{at}: empty window: {ev:?}");
                    assert!(heal < sc.fault_end_us, "{at}: late heal: {ev:?}");
                }
                match ev {
                    NodeEvent::Crash {
                        at_us,
                        restart_us: Some(r),
                        ..
                    } => {
                        assert!(at_us < r && *r < sc.fault_end_us, "{at}: {ev:?}");
                    }
                    NodeEvent::Partition { groups, .. } => {
                        // Groups are non-empty and disjoint.
                        let all: Vec<usize> = groups.iter().flatten().copied().collect();
                        let uniq: BTreeSet<usize> = all.iter().copied().collect();
                        assert!(groups.iter().all(|g| !g.is_empty()), "{at}: {ev:?}");
                        assert_eq!(all.len(), uniq.len(), "{at}: overlapping groups");
                    }
                    NodeEvent::Cut { from, to, .. } => {
                        assert!(from != to, "{at}: self-cut: {ev:?}");
                    }
                    _ => {}
                }
            }

            // Plans are sorted by fire time (the world replays them as a
            // schedule) and are a pure function of the scenario.
            assert!(
                events.windows(2).all(|w| w[0].at_us() <= w[1].at_us()),
                "{at}: plan out of order: {events:?}",
            );
            assert_eq!(events, generate_node_events(&sc), "{at}");
        }
    }
}

/// Erasure-coded scenarios widen the budget to `n - k`, and the
/// generator tracks it.
#[test]
fn ec_plans_use_the_ec_budget() {
    for case in 0..64u64 {
        let seed = StdRng::seed_from_u64(case).random_range(0..1_000_000);
        for regime in [Partition, Gray, Mixed] {
            let mut sc = Scenario::ec(seed, 2, 4);
            sc.regime = regime;
            let events = generate_node_events(&sc);
            assert!(
                max_concurrent_dark(&events) <= sc.failure_budget(),
                "case {case}, {}: EC dark budget exceeded: {events:?}",
                regime.label(),
            );
        }
    }
}

/// A scripted plan round-trips verbatim — regression scripts are not
/// re-sorted, budget-clamped, or otherwise edited.
#[test]
fn scripted_plans_pass_through() {
    for case in 0..64u64 {
        let at = StdRng::seed_from_u64(case).random_range(1_000_000..5_000_000);
        let mut sc = Scenario::small(7);
        let script = vec![
            NodeEvent::Cut {
                from: 3,
                to: 1,
                at_us: at,
                heal_us: at + 500_000,
            },
            NodeEvent::Crash {
                node: 2,
                at_us: at / 2,
                restart_us: None,
            },
        ];
        sc.node_events = Some(script.clone());
        assert_eq!(generate_node_events(&sc), script, "case {case}");
    }
}
