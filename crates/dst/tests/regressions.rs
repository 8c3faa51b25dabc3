//! PR 4's three live-cluster bugs, replayed as deterministic schedules.
//!
//! Each of these was originally found (and could only be reproduced) by
//! running real processes under fault injection for minutes at a time.
//! Here each is a scripted scenario that runs the same protocol code in
//! milliseconds, and will fail loudly if the corresponding fix ever
//! regresses:
//!
//! 1. *Dead-tail successor wedge* — a crashed node lingering deep in
//!    successor lists was never probed and never evicted, so the ring
//!    oscillated forever. Fixed by probing the whole list, not just the
//!    head; `probe_head_only` re-introduces the bug for validation.
//! 2. *Lost join ack* — a dropped `JoinAck` left the joiner waiting
//!    forever. Fixed with a join retry timer.
//! 3. *Join livelock* — concurrent joins under heavy message loss could
//!    chase moving ownership forever. Fixed with a forwarding hop
//!    budget that converts the chase into a retryable failure.

use d2_dst::{
    run_one, FaultProbs, InjectedBug, NodeEvent, Overrides, RedundancyPolicy, RunOutcome, Scenario,
};
use d2_ring::messages::Addr;
use d2_types::Key;

/// A script-only scenario: no seed-drawn message faults, so the run
/// exercises exactly the scripted events.
fn scripted(seed: u64, events: Vec<NodeEvent>) -> Scenario {
    Scenario {
        seed,
        probs: FaultProbs {
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
        },
        node_events: Some(events),
        ..Scenario::default()
    }
}

/// Bug 1: two adjacent nodes crash permanently, planting corpses at
/// every depth of their neighbours' successor lists (r = 3, so two
/// permanent failures is the protocol's worst tolerated case). With
/// full-list probing the ring must evict both and re-converge; under
/// `probe_head_only` this same script wedges.
#[test]
fn dead_tail_successors_are_evicted() {
    let events = vec![
        NodeEvent::Crash {
            node: 4,
            at_us: 5_000_000,
            restart_us: None,
        },
        NodeEvent::Crash {
            node: 5,
            at_us: 5_200_000,
            restart_us: None,
        },
    ];
    let out = run_one(&scripted(17, events.clone()), &Overrides::default());
    assert!(out.ok, "healthy probing wedged: {:?}", out.violation);

    // The same schedule under the re-introduced bug must wedge —
    // proving the test would have caught the original regression.
    let mut bugged = scripted(17, events);
    bugged.bug = Some(InjectedBug::ProbeHeadOnly);
    let out = run_one(&bugged, &Overrides::default());
    assert!(!out.ok, "head-only probing should wedge on a dead tail");
}

/// Bug 2: the wire eats the first `JoinAck`. Without the join retry
/// timer the victim stays unjoined forever and the `check_joined`
/// invariant fails at every checkpoint; with it, the joiner re-sends
/// and the ring completes.
#[test]
fn lost_join_ack_is_retried() {
    let mut sc = scripted(23, Vec::new());
    sc.drop_first_join_acks = 1;
    let out = run_one(&sc, &Overrides::default());
    assert!(
        out.ok,
        "join never recovered from a lost ack: {:?}",
        out.violation
    );
    assert_eq!(out.stats.acked_puts as usize, sc.puts());
}

/// Bug 3: the join-storm livelock. Every node boots within a tick of
/// its neighbours (instead of the default 50 ms stagger the world
/// cannot express — so we approximate with heavy message loss during
/// the join phase) while one early joiner crashes and restarts
/// mid-storm, keeping ownership moving. The hop budget must turn the
/// chase into bounded retries that eventually land.
#[test]
fn join_storm_with_churn_settles() {
    let mut sc = scripted(
        31,
        vec![NodeEvent::Crash {
            node: 2,
            at_us: 1_000_000,
            restart_us: Some(3_000_000),
        }],
    );
    // A harsh wire while the ring forms: one in six messages lost.
    sc.probs = FaultProbs {
        drop: 0.15,
        duplicate: 0.02,
        delay: 0.02,
    };
    let out = run_one(&sc, &Overrides::default());
    assert!(out.ok, "join storm failed to settle: {:?}", out.violation);
}

/// Erasure-coded repair under a throttled budget: with `(k = 3, n = 6)`
/// fragments, crash `⌈(n − k) / 2⌉ = 2` adjacent fragment holders
/// permanently. Keys owned just counterclockwise of the victims lose
/// two of six fragments — below the default lazy-repair threshold
/// (`m = 5`) — so the owners must queue them and regenerate within the
/// configured byte budget, and the run must still converge with every
/// put reconstructable. Adjacent victims matter: they sit together in
/// the same placement groups regardless of how far successor-list
/// convergence had gotten when each put landed.
#[test]
fn ec_adjacent_holder_crashes_heal_within_repair_budget() {
    let mut sc = scripted(
        51,
        vec![
            NodeEvent::Crash {
                node: 4,
                at_us: 5_000_000,
                restart_us: None,
            },
            NodeEvent::Crash {
                node: 5,
                at_us: 5_200_000,
                restart_us: None,
            },
        ],
    );
    sc.redundancy = RedundancyPolicy::ErasureCode { k: 3, n: 6 };
    // A deliberately small budget: repairs trickle over several token
    // refills instead of bursting in one round.
    sc.repair_budget_bps = 200;
    let out = run_one(&sc, &Overrides::default());
    assert!(
        out.ok,
        "EC world never re-converged after adjacent holder crashes: {:?}",
        out.violation
    );
    assert_eq!(out.stats.acked_puts as usize, sc.puts());
    assert!(
        out.metrics.counter("ec.repaired_fragments") > 0,
        "no key dropped below the repair threshold — the script lost its teeth"
    );
}

/// The ring owner of `key` at the end of a run: the live node whose id
/// is the smallest at or clockwise of the key (successor, wrapping).
fn owner_of(out: &RunOutcome, key: Key) -> Addr {
    out.end_nodes
        .iter()
        .filter(|n| n.id >= key)
        .min_by_key(|n| n.id)
        .or_else(|| out.end_nodes.iter().min_by_key(|n| n.id))
        .expect("run ended with no live nodes")
        .addr
}

/// PR 9's lazy-repair gap, pinned as a scripted schedule: a fragment
/// holder that crashes and restarts comes back wiped, and because its
/// keys still have `m = 5` of six fragments elsewhere, lazy repair
/// never refills it — the cluster converges with an *owner holding no
/// fragment of a key it owns*. The storage invariant deliberately
/// tolerates this (the key still reconstructs from any `k = 3`), so
/// only an end-state check can see it. If a future PR adds eager
/// rehoming on rejoin, this test should flip and be rewritten to pin
/// the new behavior.
#[test]
fn ec_restarted_owner_keeps_no_fragments_of_its_keys() {
    // Phase 1: the same seed without faults, to learn which node owns
    // which workload key (keys are seed-drawn; ring positions are
    // static, so ownership carries over to the faulted run).
    let mut clean = scripted(61, Vec::new());
    clean.redundancy = RedundancyPolicy::ErasureCode { k: 3, n: 6 };
    let out = run_one(&clean, &Overrides::default());
    assert!(out.ok, "clean EC world failed: {:?}", out.violation);
    let (victim, key) = out
        .workload
        .iter()
        .filter(|(_, acked)| *acked)
        .map(|&(k, _)| (owner_of(&out, k), k))
        .find(|&(owner, _)| owner != 0)
        .expect("no acked key owned by a crashable node");

    // Phase 2: crash that owner after the workload lands, restart it
    // wiped, and let the world converge.
    let mut sc = scripted(
        61,
        vec![NodeEvent::Crash {
            node: victim,
            at_us: 5_000_000,
            restart_us: Some(6_500_000),
        }],
    );
    sc.redundancy = RedundancyPolicy::ErasureCode { k: 3, n: 6 };
    let out = run_one(&sc, &Overrides::default());
    assert!(
        out.ok,
        "restart-wiped owner world failed: {:?}",
        out.violation
    );
    assert_eq!(
        owner_of(&out, key),
        victim,
        "ownership moved — the restarted node no longer owns the probe key"
    );

    // The gap: the owner holds nothing for its own key...
    let owner_state = out
        .end_nodes
        .iter()
        .find(|n| n.addr == victim)
        .expect("restarted node missing from end state");
    assert!(
        !owner_state.fragment_keys.contains(&key) && !owner_state.block_keys.contains(&key),
        "owner was refilled — lazy repair became eager; rewrite this pin"
    );
    // ...while the key stays reconstructable at exactly the lazy
    // threshold: five of six fragments, one short of full, and no
    // repair ever fired.
    let surviving = out
        .end_nodes
        .iter()
        .filter(|n| n.fragment_keys.contains(&key))
        .count();
    assert_eq!(
        surviving, 5,
        "expected the wiped owner to be the only missing holder"
    );
    assert_eq!(
        out.metrics.counter("ec.repaired_fragments"),
        0,
        "a repair fired above the threshold — lazy repair regressed to eager"
    );
}

/// The lost-ack script is fate-targeted, not probabilistic: exactly the
/// scripted number of `JoinAck`s disappear, nothing else. Two different
/// drop counts must still both converge (the retry path is idempotent).
#[test]
fn repeated_join_ack_loss_still_converges() {
    for drops in [2u32, 3] {
        let mut sc = scripted(29, Vec::new());
        sc.drop_first_join_acks = drops;
        let out = run_one(&sc, &Overrides::default());
        assert!(
            out.ok,
            "{drops} dropped join acks defeated the retry: {:?}",
            out.violation
        );
    }
}
