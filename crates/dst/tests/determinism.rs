//! The harness's own contract: byte-identical replay from a seed, and
//! the validation story from ISSUE — with the head-only probing bug
//! re-introduced, a short sweep must catch it and shrink the repro to a
//! handful of faults.

use d2_dst::{
    run_one, shrink, sweep, InjectedBug, Overrides, RedundancyPolicy, Scenario, WorldRegime,
};
use d2_obs::trace::to_jsonl;

/// Same seed, same scenario — byte-identical trace and identical
/// outcome, twice in a row. This is the property everything else
/// (replay, shrinking, CI triage) rests on.
#[test]
fn same_seed_is_byte_identical() {
    let sc = Scenario::small(411);
    let a = run_one(&sc, &Overrides::default());
    let b = run_one(&sc, &Overrides::default());
    assert_eq!(a.ok, b.ok);
    assert_eq!(a.end_us, b.end_us);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.plan.len(), b.plan.len());
    assert_eq!(to_jsonl(&a.trace), to_jsonl(&b.trace));
}

/// Different seeds draw different schedules (sanity against a constant
/// fate function).
#[test]
fn different_seeds_diverge() {
    let a = run_one(&Scenario::small(1), &Overrides::default());
    let b = run_one(&Scenario::small(2), &Overrides::default());
    assert_ne!(to_jsonl(&a.trace), to_jsonl(&b.trace));
}

/// The default fault mix converges on a spread of seeds: this is the
/// tier-1 smoke slice of the big sweeps in scripts/check.sh (64 seeds)
/// and scripts/dst.sh (1000 seeds).
#[test]
fn default_scenarios_converge() {
    let sc = Scenario::small(0);
    let results = sweep(&sc, 0, 8, 4);
    for r in &results {
        assert!(r.ok, "seed {} failed: {:?}", r.seed, r.violation);
        assert_eq!(r.acked_puts as usize, sc.puts, "seed {}", r.seed);
    }
}

/// Erasure-coded worlds replay byte-identically too: the fragment path
/// adds owner-side encode, gather, and repair state that the seed (via
/// the virtual clock's write generations) must fully determine.
#[test]
fn ec_same_seed_is_byte_identical() {
    let mut sc = Scenario::small(77);
    sc.redundancy = RedundancyPolicy::ErasureCode { k: 2, n: 4 };
    let a = run_one(&sc, &Overrides::default());
    let b = run_one(&sc, &Overrides::default());
    assert_eq!(a.ok, b.ok);
    assert_eq!(a.end_us, b.end_us);
    assert_eq!(a.stats, b.stats);
    assert_eq!(to_jsonl(&a.trace), to_jsonl(&b.trace));
}

/// The default fault mix also converges with every node in (2, 4)
/// fragment mode: puts ack all four fragments, and each checkpoint
/// holds the reconstructability invariant instead of the replica-chain
/// one.
#[test]
fn ec_default_scenarios_converge() {
    let mut sc = Scenario::small(0);
    sc.redundancy = RedundancyPolicy::ErasureCode { k: 2, n: 4 };
    let results = sweep(&sc, 0, 8, 4);
    for r in &results {
        assert!(r.ok, "seed {} failed: {:?}", r.seed, r.violation);
        assert_eq!(r.acked_puts as usize, sc.puts, "seed {}", r.seed);
    }
}

/// Byte-identical replay holds in every adversarial regime, not just
/// the classic one. Partitions, cuts, and gray windows mutate shared
/// network state mid-run; the WAN topology re-samples per scenario;
/// skewed clocks scale every node's tick cadence — all of it must
/// still be a pure function of the seed. One seed per regime keeps
/// the debug-mode cost at a few seconds.
#[test]
fn adversarial_regimes_replay_byte_identically() {
    for regime in [
        WorldRegime::Partition,
        WorldRegime::Gray,
        WorldRegime::Wan,
        WorldRegime::Skew,
        WorldRegime::Mixed,
    ] {
        let mut sc = Scenario::small(211);
        sc.regime = regime;
        let a = run_one(&sc, &Overrides::default());
        let b = run_one(&sc, &Overrides::default());
        assert_eq!(a.ok, b.ok, "{} flapped", regime.label());
        assert_eq!(a.end_us, b.end_us, "{}", regime.label());
        assert_eq!(a.stats, b.stats, "{}", regime.label());
        assert_eq!(a.plan, b.plan, "{}", regime.label());
        assert_eq!(
            to_jsonl(&a.trace),
            to_jsonl(&b.trace),
            "{} trace diverged across replays",
            regime.label()
        );
    }
}

/// Every regime's healthy small worlds converge on a short seed
/// spread — the tier-1 slice of check.sh's 64-seed mixed sweep and
/// dst.sh's per-regime 1000-seed sweeps.
#[test]
fn adversarial_regimes_converge() {
    for regime in [
        WorldRegime::Partition,
        WorldRegime::Gray,
        WorldRegime::Mixed,
    ] {
        let mut sc = Scenario::small(0);
        sc.regime = regime;
        for r in sweep(&sc, 0, 8, 4) {
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

/// Re-introduce PR 4's head-only successor-probing bug and assert the
/// explorer earns its keep: some seed in a small scan fails, and
/// shrinking reduces its fault plan to at most 10 entries (the
/// acceptance bound; in practice a single permanent crash survives).
#[test]
fn sweep_catches_head_only_probing_bug() {
    let mut sc = Scenario::small(0);
    sc.bug = Some(InjectedBug::ProbeHeadOnly);
    let results = sweep(&sc, 0, 16, 4);
    let failing = results
        .iter()
        .find(|r| !r.ok)
        .expect("no seed in 0..16 tripped the head-only bug — harness lost its teeth");
    let mut fail_sc = sc.clone();
    fail_sc.seed = failing.seed;
    let min = shrink(&fail_sc, 200).expect("failing seed must still fail when re-run");
    assert!(
        !min.plan.is_empty(),
        "a wedge needs at least one fault to set up"
    );
    assert!(
        min.plan.len() <= 10,
        "shrunk plan has {} entries (want <= 10): {:#?}",
        min.plan.len(),
        min.plan
    );
    // The repro must name the violation so the report is actionable.
    assert!(min.violation.is_some());
}

/// The same seeds that fail under the bug knob pass without it — the
/// failures above are the bug's, not the harness's.
#[test]
fn head_only_failures_vanish_without_the_knob() {
    let mut bugged = Scenario::small(0);
    bugged.bug = Some(InjectedBug::ProbeHeadOnly);
    let failing: Vec<u64> = sweep(&bugged, 0, 16, 4)
        .iter()
        .filter(|r| !r.ok)
        .map(|r| r.seed)
        .collect();
    assert!(!failing.is_empty());
    for seed in failing {
        let clean = run_one(&Scenario::small(seed), &Overrides::default());
        assert!(
            clean.ok,
            "seed {seed} fails even without the bug knob: {:?}",
            clean.violation
        );
    }
}
