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
//! Claims 3 and 4, and the sweep's own shape, read one Section 9 suite,
//! built once per test binary ([`section9`]). Claims 1 and 2 each warm
//! one availability placement per system and read it, or replay failure
//! traces on clones of it.

use d2::experiments::avail_sweep::{self, Placements};
use d2::experiments::balance_sim::BalanceSystem;
use d2::experiments::fig16_17::ALL_SYSTEMS;
use d2::experiments::perf_suite::{self, SuiteConfig, SuiteResult, FIGURE_KBPS};
use d2::experiments::{fig16_17, table4, Scale};
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

#[test]
fn claim_lookup_savings_and_seq_speedup() {
    let suite = &section9().suite;
    for size in SIZES {
        let cell = |system| {
            suite
                .cell(system, size, FIGURE_KBPS, Parallelism::Seq)
                .unwrap()
        };
        let (d2, trad) = (cell(SystemKind::D2), cell(SystemKind::Traditional));
        // Lookup traffic reduction (paper: up to 95%; at tiny scale
        // demand a solid majority).
        assert!(
            (d2.lookup_messages as f64) < 0.5 * trad.lookup_messages as f64,
            "size {size}: d2 msgs {} vs traditional {}",
            d2.lookup_messages,
            trad.lookup_messages
        );
        // Sequential speedup > 1 (paper: 1.3–2.0 depending on size).
        let s = seq_speedup(SystemKind::Traditional, size);
        assert!(
            s > 1.05,
            "size {size}: sequential speedup {s} over traditional should be solidly above 1"
        );
        let s = seq_speedup(SystemKind::TraditionalFile, size);
        assert!(
            s > 1.0,
            "size {size}: sequential speedup {s} over traditional-file should exceed 1"
        );
    }
}

#[test]
fn claim_most_users_speed_up() {
    let per_user = section9()
        .suite
        .per_user_speedup(
            SystemKind::D2,
            SystemKind::Traditional,
            SIZES[1],
            FIGURE_KBPS,
            Parallelism::Seq,
        )
        .unwrap();
    assert!(!per_user.is_empty());
    let faster = per_user.values().filter(|&&s| s > 1.0).count();
    assert!(
        faster * 2 >= per_user.len(),
        "most users should speed up: {faster}/{}",
        per_user.len()
    );
}

#[test]
fn claim_d2_miss_rate_stays_below_traditional() {
    let miss = |system, size| {
        section9()
            .suite
            .cell(system, size, FIGURE_KBPS, Parallelism::Seq)
            .unwrap()
            .cache_miss_rate()
    };
    for size in SIZES {
        let (d2, trad) = (
            miss(SystemKind::D2, size),
            miss(SystemKind::Traditional, size),
        );
        assert!(d2 < trad, "size {size}: d2 {d2} vs traditional {trad}");
    }
    // Traditional's miss rate grows with size (paper: 47% and up).
    let (small, big) = (
        miss(SystemKind::Traditional, SIZES[0]),
        miss(SystemKind::Traditional, SIZES[1]),
    );
    assert!(
        big >= small * 0.9,
        "traditional miss rate should not shrink with size: {small} -> {big}"
    );
}

#[test]
fn claim_latency_weight_lies_above_the_diagonal() {
    let pairs = section9().suite.latency_pairs(
        SystemKind::D2,
        SystemKind::Traditional,
        SIZES[1],
        FIGURE_KBPS,
        Parallelism::Seq,
    );
    let weight = perf_suite::weight_above_diagonal(&pairs);
    assert!(
        weight > 0.5,
        "weight above diagonal {weight} should exceed 0.5"
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
    // Table 2's rows at 1, 5 and 15 s: (block, file, D2) profiles.
    let rows: Vec<_> = [1, 5, 15]
        .into_iter()
        .map(|secs| {
            let tasks = avail_sweep::tasks(&trace, SimTime::from_secs(secs));
            let profile = |system| placements.get(system).task_profile(&trace, &tasks);
            (
                profile(SystemKind::Traditional),
                profile(SystemKind::TraditionalFile),
                profile(SystemKind::D2),
            )
        })
        .collect();
    for (block, file, d2) in &rows {
        assert!(
            file.mean_nodes <= block.mean_nodes + 1e-9,
            "file {file:?} vs block {block:?}"
        );
        assert!(
            d2.mean_nodes < block.mean_nodes,
            "d2 {d2:?} vs block {block:?}"
        );
        assert!(block.mean_blocks >= block.mean_files, "{block:?}");
    }
    // A longer threshold makes longer tasks.
    assert!(rows[2].0.mean_blocks >= rows[0].0.mean_blocks);
    let (block, _, d2) = &rows[1];
    assert!(
        d2.mean_nodes * 2.0 < block.mean_nodes,
        "D2 nodes/task {} vs traditional {}",
        d2.mean_nodes,
        block.mean_nodes
    );
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
    // users (measured: 8 against traditional's 36, summed).
    let inter = SimTime::from_secs(5);
    let placements = Placements::warm(&trace, &cfg, 1.0, 2);
    let (mut d2, mut trad, mut file) = (0.0, 0.0, 0.0);
    let (mut d2_users, mut trad_users) = (0, 0);
    for failure_seed in 1..=4 {
        let sweep = placements.replay(&trace, &model, failure_seed, 1, &[inter], 2);
        let unavailability = |system| sweep.cell(0, system, inter).unwrap().task_unavailability();
        d2 += unavailability(SystemKind::D2);
        trad += unavailability(SystemKind::Traditional);
        file += unavailability(SystemKind::TraditionalFile);
        let affected = |system| sweep.cell(0, system, inter).unwrap().affected_users();
        d2_users += affected(SystemKind::D2);
        trad_users += affected(SystemKind::Traditional);
    }
    assert!(
        d2 < trad,
        "d2 {d2} must be below traditional {trad} (paper: an order of magnitude)"
    );
    assert!(d2 <= file + 1e-9, "d2 {d2} vs traditional-file {file}");
    assert!(trad > 0.0, "regime must actually produce failures");
    assert!(
        d2_users < trad_users,
        "d2 affects {d2_users} users vs traditional {trad_users}"
    );
}

#[test]
fn claim_balance_and_overhead() {
    let trace = trace();
    let web = d2::workload::WebTrace::generate(&Scale::Quick.web(), &mut StdRng::seed_from_u64(42));
    let cfg = Scale::Quick.cluster(7);
    let warmup = SimTime::from_secs(12 * 3600);

    let fig = fig16_17::fig16(&trace, &cfg, &ALL_SYSTEMS, warmup);
    let d2 = fig.tail_mean(BalanceSystem::D2, 0.3).unwrap();
    let tf = fig.tail_mean(BalanceSystem::TraditionalFile, 0.3).unwrap();
    assert!(d2 < tf, "d2 imbalance {d2} must beat traditional-file {tf}");

    let t4 = table4::run(&trace, &web, &cfg, warmup);
    for w in &t4.workloads {
        assert!(w.total_write() > 0.0);
        assert!(
            w.overhead_ratio() < 6.0,
            "{}: migration {}x writes is out of band",
            w.workload,
            w.overhead_ratio()
        );
    }
}
