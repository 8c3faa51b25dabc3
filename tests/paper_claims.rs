//! The paper's headline claims, checked end-to-end at quick scale:
//!
//! 1. D2 reduces the number of nodes a task touches by ~an order of
//!    magnitude (Table 2 / Figure 3).
//! 2. D2's task unavailability under failures is at or below both
//!    baselines' (Figure 7), and fewer users are affected (Figure 8).
//! 3. D2 cuts lookup traffic dramatically (Figure 9) via lookup caches
//!    whose miss rate stays low (Figure 13).
//! 4. D2 improves sequential user-perceived latency (Figures 10–12, 14).
//! 5. Active balancing keeps D2's storage near Traditional+Merc's
//!    balance despite locality keys (Figure 16), at migration cost on
//!    the order of the write traffic (Table 4).
//!
//! Each claim is a predicate written once beside its render (see
//! `d2_experiments::report::Claim`); these tests call it on quick-scale
//! inputs. Claims 3 and 4, and the sweep's own shape, read one Section 9
//! suite, built once per test binary ([`section9`]). Claims 1 and 2 each
//! warm one availability placement per system and read it, or replay
//! failure traces on clones of it. Claim 5 reads one Section 10 balance
//! sweep.

use d2::experiments::avail_sweep::{self, Placements};
use d2::experiments::balance_sweep::{self, Sweep};
use d2::experiments::perf_suite::{self, SuiteConfig, SuiteResult, FIGURE_KBPS};
use d2::experiments::report::Claim;
use d2::experiments::Scale;
use d2::obs::{SharedSink, TraceEvent};
use d2::sim::{FailureModel, SimTime};
use d2::workload::HarvardTrace;
use d2_core::{Parallelism, SystemKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn trace() -> HarvardTrace {
    HarvardTrace::generate(&Scale::Quick.harvard(), &mut StdRng::seed_from_u64(42))
}

/// The Section 9 sweep at quick sizes (16 and 32 nodes), both bandwidths,
/// with the trace events it recorded.
struct Section9 {
    suite: SuiteResult,
    events: Vec<TraceEvent>,
}

const SIZES: [usize; 2] = [16, 32];

fn section9() -> &'static Section9 {
    static SECTION9: OnceLock<Section9> = OnceLock::new();
    SECTION9.get_or_init(|| {
        let sink = SharedSink::memory(0);
        let cfg = SuiteConfig {
            sizes: SIZES.to_vec(),
            measure_groups: 120,
            seed: 7,
            warmup_days: 0.05,
            sink: sink.clone(),
            jobs: 2,
        };
        let suite = perf_suite::run(&trace(), &cfg);
        Section9 {
            suite,
            events: sink.drain(),
        }
    })
}

/// The speedup of D2 over `base` at `size`, 1500 kbps, seq.
fn seq_speedup(base: SystemKind, size: usize) -> f64 {
    section9()
        .suite
        .speedup(SystemKind::D2, base, size, FIGURE_KBPS, Parallelism::Seq)
        .unwrap()
}

/// Asserts that the claim of `artifact` holds, printing the value it
/// judged if not.
fn assert_holds(artifact: &str, claim: Claim) {
    assert!(
        claim.holds,
        "{artifact}: the claim fails at {}",
        claim.value
    );
}

/// Lookup traffic falls (Figure 9) and sequential speedups exceed 1
/// over both baselines (Figures 10 and 11) at every size.
#[test]
fn claim_lookup_savings_and_seq_speedup() {
    let suite = &section9().suite;
    assert_holds("Figure 9", perf_suite::fig9_claim(suite));
    assert_holds("Figure 10", perf_suite::fig10_claim(suite));
    assert_holds("Figure 11", perf_suite::fig11_claim(suite));
}

#[test]
fn claim_most_users_speed_up() {
    assert_holds("Figure 12", perf_suite::fig12_claim(&section9().suite));
}

#[test]
fn claim_d2_miss_rate_stays_below_traditional() {
    assert_holds("Figure 13", perf_suite::fig13_claim(&section9().suite));
}

#[test]
fn claim_latency_weight_lies_above_the_diagonal() {
    assert_holds(
        "Figures 14/15",
        perf_suite::fig14_15_claim(&section9().suite),
    );
}

#[test]
fn section9_suite_has_every_cell_mark_and_latency_pair() {
    let Section9 { suite, events } = section9();
    // 3 systems × 2 sizes × 2 bandwidths × 2 modes.
    assert_eq!(suite.cells.len(), 24);
    for report in suite.cells.values() {
        assert_eq!(report.group_latencies.len(), suite.groups.len());
    }
    let marks = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Mark { .. }))
        .count();
    assert_eq!(marks, suite.cells.len(), "one mark per measured cell");
    assert!(events.iter().any(|e| matches!(e, TraceEvent::Fetch { .. })));
    assert!(events.iter().any(|e| matches!(e, TraceEvent::Route { .. })));
    // Marks name the swept dimensions.
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::Mark { label, .. } if label.contains("size=16") && label.contains("kbps=384")
    )));
    let pairs = suite.latency_pairs(
        SystemKind::D2,
        SystemKind::Traditional,
        SIZES[0],
        FIGURE_KBPS,
        Parallelism::Seq,
    );
    assert!(!pairs.is_empty());
    for (a, b) in pairs {
        assert!(a > 0.0 && b > 0.0);
    }
    // The same users in the same order every time: not a last digit that
    // follows a hash map's iteration order.
    let s = seq_speedup(SystemKind::Traditional, SIZES[0]);
    for _ in 0..8 {
        assert_eq!(
            seq_speedup(SystemKind::Traditional, SIZES[0]).to_bits(),
            s.to_bits()
        );
    }
}

#[test]
fn section9_figures_read_the_1500_kbps_cells() {
    let suite = &section9().suite;
    // The suite's cells at `kbps`, relabelled as the figures' bandwidth.
    let read_as_figure_kbps = |kbps| SuiteResult {
        cells: suite
            .cells
            .iter()
            .filter(|(&(_, _, k, _), _)| k == kbps)
            .map(|(&(system, size, _, mode), report)| {
                ((system, size, FIGURE_KBPS, mode), report.clone())
            })
            .collect(),
        groups: suite.groups.clone(),
    };
    let (fast, slow) = (read_as_figure_kbps(FIGURE_KBPS), read_as_figure_kbps(384));
    for figure in [perf_suite::fig9, perf_suite::fig13] {
        // Title, header, rule, and one row per (system, size, mode).
        assert_eq!(figure(suite).lines().count(), 3 + 12);
        assert_eq!(figure(suite), figure(&fast));
        // The 384 kbps cells read differently, so a figure that took
        // them would fail the line above.
        assert_ne!(figure(&fast), figure(&slow));
    }
    for figure in [
        perf_suite::fig10,
        perf_suite::fig11,
        perf_suite::fig12,
        perf_suite::fig14_15,
    ] {
        assert!(figure(suite).lines().count() > 3);
    }
}

#[test]
fn claim_defragmentation_cuts_nodes_per_task() {
    let trace = trace();
    let placements = Placements::warm(&trace, &Scale::Quick.cluster(7), 0.05, 2);
    assert_holds("Table 2", avail_sweep::table2_claim(&trace, &placements));
}

#[test]
fn claim_availability_ordering_holds() {
    // The validated quick-scale availability regime: 12 users / 2 days
    // / 32 nodes with a stressed correlated-failure model, warmed for a
    // full simulated day.
    let hcfg = d2::workload::HarvardConfig {
        users: 12,
        days: 2.0,
        initial_bytes: 64 << 20,
        reads_per_user_hour: 60.0,
        ..d2::workload::HarvardConfig::default()
    };
    let trace = HarvardTrace::generate(&hcfg, &mut StdRng::seed_from_u64(42));
    let cfg = d2::core::ClusterConfig {
        nodes: 32,
        replicas: 3,
        seed: 7,
        ..d2::core::ClusterConfig::default()
    };
    let model = FailureModel {
        mttf_secs: 2.0 * 86_400.0,
        mttr_secs: 3.0 * 3600.0,
        correlated_events: 6.0,
        correlated_fraction: 0.25,
        correlated_mttr_secs: 2.0 * 3600.0,
        duration_secs: hcfg.days * 86_400.0,
    };
    // Summed over four failure traces, one trial each, because a single
    // trace can favour traditional: failure seed 4 does, and so did one
    // of the two trials the seed-100 version of this test averaged.
    // Measured sums: d2 6.8e-3, traditional 5.3e-2, traditional-file
    // 3.5e-2. Each trace replays on clones of the same three placements.
    // Figure 8's claim reads the same replays: D2's failures reach fewer
    // users (measured: 8 against traditional's 36, summed). D2's sum
    // below traditional's means the regime produced failures.
    let inter = SimTime::from_secs(5);
    let placements = Placements::warm(&trace, &cfg, 1.0, 2);
    let sweeps: Vec<_> = (1..=4)
        .map(|failure_seed| placements.replay(&trace, &model, failure_seed, 1, &[inter], 2))
        .collect();
    assert_holds("Figure 7", avail_sweep::fig7_claim(&sweeps));
    assert_holds("Figure 8", avail_sweep::fig8_claim(&sweeps));
}

#[test]
fn claim_balance_and_overhead() {
    let trace = trace();
    let web = d2::workload::WebTrace::generate(&Scale::Quick.web(), &mut StdRng::seed_from_u64(42));
    let traces = (&trace, &web);
    let sweep = Sweep::new(
        Scale::Quick.cluster(7),
        SimTime::from_secs(12 * 3600),
        false,
    );
    assert_holds("Figure 16", balance_sweep::fig16_claim(&sweep, &traces, 2));
    assert_holds("Table 4", balance_sweep::table4_claim(&sweep, &traces, 2));
    // Table 4's Harvard row read Figure 16's D2 cell.
    assert_eq!(sweep.cells_run(), 5);
}
