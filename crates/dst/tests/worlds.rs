//! The adversarial world regimes earn their keep: each one catches a
//! seeded bug (or exercises a fault shape) that the classic
//! crash/isolate worlds cannot, and all of them still converge when
//! the protocol is healthy.
//!
//! The load-bearing pair is `ack_on_send` + one-way cuts. The node's
//! failure detector is send-error-driven: a symmetric partition or a
//! crash makes `send` fail fast, so the forwarding node notices and
//! re-routes. A one-way silent cut produces *no* send error — the
//! message just dies — which is exactly the loss mode a
//! fire-and-forget replication chain cannot see. Crash/isolate worlds
//! lose a message silently only where their fault plan drops it, so
//! they catch the bug only where a drop hits a chain's `put` before its
//! holder crashes; asymmetric-partition sweeps catch it through cuts.
//!
//! The split-ring demo needs *default-size* worlds. At `n = 6` a
//! seceded pair sits in half the ring's successor lists, so after the
//! heal some majority node always re-probes it and gossip re-merges
//! the rings even without the seed anchor; at `n = 10` eviction
//! reaches a corpse-free fixpoint first and the split sticks. The
//! failing seeds below were found by sweeping `--world partition
//! --bug-no-anchor` over seeds 0..16 (2, 3, 7, 10 fail) and are
//! pinned rather than re-scanned to keep the suite's debug-mode cost
//! bounded.

use d2_dst::{
    run_one, ClientWorkload, FateKind, InjectedBug, NodeEvent, Overrides, PlanEntry, Scenario,
    WorldRegime,
};

/// Seeds scanned when a test needs the regime to produce at least one
/// failure. Small worlds are cheap, but keep this bounded so the tier-1
/// suite stays fast.
const SCAN: u64 = 48;

fn small_in(seed: u64, regime: WorldRegime) -> Scenario {
    let mut sc = Scenario::small(seed);
    sc.regime = regime;
    sc
}

/// The asymmetric-partition regime catches the ack-on-send durability
/// bug — an acked put whose copies silently died on a cut link. The bug
/// needs loss without a send error, and a classic world's only such
/// loss is a fault-plan drop: every classic seed that catches it names
/// an acked put, and its plan drops a chain-forward `put` (seed 32 drops
/// `put 5->0`, then node 5 crashes with the only copy).
#[test]
fn partition_regime_catches_ack_on_send_bug() {
    let mut bugged = small_in(0, WorldRegime::Partition);
    bugged.bug = Some(InjectedBug::AckOnSend);
    let results = d2_dst::sweep(&bugged, 0, SCAN, 4);
    let failing: Vec<_> = results.iter().filter(|r| !r.ok).collect();
    assert!(
        !failing.is_empty(),
        "no seed in 0..{SCAN} tripped ack-on-send under partitions"
    );
    // The violation is a durability lie, not a ring wedge.
    assert!(
        failing.iter().any(|r| {
            r.violation
                .as_deref()
                .is_some_and(|v| v.contains("acked put"))
        }),
        "expected an acked-put durability violation, got {:?}",
        failing[0].violation
    );
    // A classic world catches the bug only through a dropped chain
    // forward. The client's own messages travel outside the faulted
    // fabric, so every `put` in a plan is one node forwarding to the next.
    let mut classic = small_in(0, WorldRegime::Classic);
    classic.bug = Some(InjectedBug::AckOnSend);
    for r in d2_dst::sweep(&classic, 0, SCAN, 4) {
        if r.ok {
            continue;
        }
        assert!(
            r.violation
                .as_deref()
                .is_some_and(|v| v.contains("acked put")),
            "classic seed {} failed without an acked-put violation: {:?}",
            r.seed,
            r.violation
        );
        let mut sc = classic.clone();
        sc.seed = r.seed;
        let plan = run_one(&sc, &Overrides::default()).plan;
        assert!(
            plan.iter().any(|e| matches!(
                e,
                PlanEntry::Fault {
                    kind: FateKind::Drop,
                    what: "put",
                    ..
                }
            )),
            "classic seed {} caught ack-on-send with no dropped chain-forward put \
             among its {} plan entries",
            r.seed,
            plan.len()
        );
    }
}

/// Without the seed-anchored remerge, a healed netsplit leaves two
/// stable rings forever — and only multi-node partitions expose that:
/// classic single-node isolation always rejoins through the probe
/// path, and small worlds re-merge through stale gossip (see the
/// module doc). Seed 2 is one of the pinned default-size failures.
#[test]
fn partition_regime_catches_missing_anchor() {
    let mut bugged = Scenario::in_regime(2, WorldRegime::Partition);
    bugged.bug = Some(InjectedBug::NoAnchor);
    let out = run_one(&bugged, &Overrides::default());
    assert!(!out.ok, "pinned split-ring seed 2 converged unexpectedly");
    assert!(
        out.violation
            .as_deref()
            .is_some_and(|v| v.contains("clockwise-next live node")),
        "expected a split-ring violation, got {:?}",
        out.violation
    );

    // With the anchor on (the default), the same world heals.
    let healed = run_one(
        &Scenario::in_regime(2, WorldRegime::Partition),
        &Overrides::default(),
    );
    assert!(
        healed.ok,
        "seed 2 fails even with the anchor: {:?}",
        healed.violation
    );

    // The classic world never needs the anchor: no multi-node splits.
    let mut classic = Scenario::in_regime(2, WorldRegime::Classic);
    classic.bug = Some(InjectedBug::NoAnchor);
    let out = run_one(&classic, &Overrides::default());
    assert!(
        out.ok,
        "classic world failed without the anchor: {:?}",
        out.violation
    );
}

/// A scripted three-way netsplit across the fault window heals: the
/// anchor rounds pull both minority groups back onto node 0's ring and
/// every invariant re-converges.
#[test]
fn scripted_three_way_partition_heals() {
    let mut sc = Scenario::small(9);
    sc.node_events = Some(vec![NodeEvent::Partition {
        groups: vec![vec![1, 2], vec![4]],
        at_us: 2_500_000,
        heal_us: 5_500_000,
    }]);
    let out = run_one(&sc, &Overrides::default());
    assert!(
        out.ok,
        "split-then-heal did not converge: {:?}",
        out.violation
    );
    assert!(
        out.stats.lost_partition > 0,
        "the split never actually ate a message"
    );
}

/// A scripted one-way cut converges: traffic dies silently in one
/// direction, retries and the reverse direction carry the cluster
/// through, and the cut is visible in the run stats.
#[test]
fn scripted_one_way_cut_converges() {
    let mut sc = Scenario::small(5);
    sc.node_events = Some(vec![NodeEvent::Cut {
        from: 2,
        to: 3,
        at_us: 2_200_000,
        heal_us: 5_000_000,
    }]);
    let out = run_one(&sc, &Overrides::default());
    assert!(out.ok, "one-way cut did not converge: {:?}", out.violation);
    assert!(out.stats.lost_cut > 0, "the cut never ate a message");
}

/// A scripted gray window converges and actually bites: messages
/// touching the gray node get dropped by its loss profile.
#[test]
fn scripted_gray_window_converges() {
    let mut sc = Scenario::small(3);
    sc.node_events = Some(vec![NodeEvent::Gray {
        node: 2,
        at_us: 2_200_000,
        heal_us: 5_200_000,
    }]);
    let out = run_one(&sc, &Overrides::default());
    assert!(out.ok, "gray window did not converge: {:?}", out.violation);
    assert!(
        out.stats.gray_dropped > 0,
        "the gray window never dropped a message"
    );
}

/// The shrinker's partition handles actually steer the world:
/// un-grouping every member makes the netsplit a no-op (nothing is
/// lost to it), and a trimmed heal shows up in the effective plan the
/// run reports. The full bisection loop in `shrink` is built on
/// exactly these two overrides.
#[test]
fn partition_overrides_steer_the_world() {
    let script = NodeEvent::Partition {
        groups: vec![vec![1, 2], vec![4]],
        at_us: 2_500_000,
        heal_us: 5_500_000,
    };
    let mut sc = Scenario::small(9);
    sc.node_events = Some(vec![script]);

    // Un-group everyone: the split never bites.
    let mut ungrouped = Overrides::default();
    ungrouped.ungroup.extend([(0, 1), (0, 2), (0, 4)]);
    let out = run_one(&sc, &ungrouped);
    assert!(out.ok);
    assert_eq!(
        out.stats.lost_partition, 0,
        "an emptied partition still ate messages"
    );

    // Trim the heal: the effective plan reports the trimmed window.
    let mut trimmed = Overrides::default();
    trimmed.trim_heal.insert(0, 2_800_000);
    let out = run_one(&sc, &trimmed);
    assert!(out.ok);
    let heal = out
        .plan
        .iter()
        .find_map(|e| match e {
            PlanEntry::Node {
                event: NodeEvent::Partition { heal_us, .. },
                ..
            } => Some(*heal_us),
            _ => None,
        })
        .expect("partition missing from the effective plan");
    assert_eq!(heal, 2_800_000, "trimmed heal not reflected in the plan");
}

/// End-to-end shrink of a pinned split-ring failure: the minimized
/// repro still fails, names a partition, and has bisected both the
/// membership and the heal window down. Ignored by default — a
/// default-size world costs ~15 s per failing run in debug mode and
/// the shrink does ~30 runs; run with
/// `cargo test --release -p d2-dst --test worlds -- --ignored`.
#[test]
#[ignore = "~30 default-size world runs; run under --release"]
fn shrink_bisects_partition_membership_and_heal() {
    let mut sc = Scenario::in_regime(2, WorldRegime::Partition);
    sc.bug = Some(InjectedBug::NoAnchor);
    let min = d2_dst::shrink(&sc, 300).expect("pinned seed 2 must fail");
    assert!(min.violation.is_some());
    let (members, window_us) = min
        .plan
        .iter()
        .find_map(|e| match e {
            PlanEntry::Node {
                event:
                    NodeEvent::Partition {
                        groups,
                        at_us,
                        heal_us,
                    },
                ..
            } => Some((groups.iter().flatten().count(), heal_us - at_us)),
            _ => None,
        })
        .expect("shrunk plan lost the partition");
    assert!(
        members <= 2,
        "membership not bisected: {members} members remain"
    );
    assert!(
        window_us <= 500_000,
        "heal window not trimmed: {window_us} µs remain"
    );
}

/// WAN and skew worlds stay green across a seed spread: the protocol's
/// timeouts tolerate ~45 ms one-way links and tens of milliseconds of
/// clock offset with tens of thousands of ppm drift.
#[test]
fn wan_and_skew_regimes_converge() {
    for regime in [WorldRegime::Wan, WorldRegime::Skew] {
        let sc = small_in(0, regime);
        for r in d2_dst::sweep(&sc, 0, 8, 4) {
            assert!(
                r.ok,
                "{} seed {} failed: {:?}",
                regime.label(),
                r.seed,
                r.violation
            );
        }
    }
}

/// A lookup-only world with no node events: with the ring still, every
/// lookup is answered, and by the key's owner, whether it went through
/// a random entry or straight to the node the client's cache named.
#[test]
fn lookup_world_without_node_events_answers_every_lookup_with_its_owner() {
    let mut sc = Scenario::small(5);
    sc.node_events = Some(Vec::new());
    sc.client = ClientWorkload::Lookups(400);
    let out = run_one(&sc, &Overrides::default());
    assert!(out.ok, "{:?}", out.violation);
    assert_eq!(out.lookups.len(), 400);
    assert!(out.workload.is_empty(), "a lookup workload issues no put");
    for (i, rec) in out.lookups.iter().enumerate() {
        assert!(rec.correct, "lookup {i} unanswered or wrong: {rec:?}");
        assert!(!rec.stale(), "a still ring made cache entry {i} stale");
    }
    let hits = out.lookups.iter().filter(|r| r.cached.is_some()).count();
    assert!(hits > 100, "only {hits} of 400 lookups hit the cache");
}

/// Every world's nodes store into one block pool, as a live host's do,
/// and sharing moves no message: through each regime's crashes,
/// restarts and re-puts, the survivors hold one buffer per key, and
/// every block they hold is a hold on it.
#[test]
fn survivors_hold_one_buffer_per_key_in_every_regime() {
    for regime in WorldRegime::ALL {
        let out = run_one(&small_in(1, regime), &Overrides::default());
        assert!(out.ok, "{} seed 1: {:?}", regime.label(), out.violation);
        let holds: usize = out.end_nodes.iter().map(|n| n.block_keys.len()).sum();
        let mut keys: Vec<_> = out.end_nodes.iter().flat_map(|n| &n.block_keys).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(out.pooled, (keys.len(), holds), "{}", regime.label());
        assert!(
            holds > keys.len(),
            "{}: no block held twice",
            regime.label()
        );
    }
}
