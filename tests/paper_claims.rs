//! The paper's headline claims, checked end-to-end at quick scale:
//!
//! 1. D2 reduces the number of nodes a task touches by ~an order of
//!    magnitude (Table 2 / Figure 3).
//! 2. D2's task unavailability under failures is at or below both
//!    baselines' (Figure 7), and fewer users are affected (Figure 8).
//! 3. D2 cuts lookup traffic dramatically (Figure 9) via lookup caches
//!    whose miss rate stays low (Figure 13).
//! 4. D2 improves sequential user-perceived latency (Figure 10).
//! 5. Active balancing keeps D2's storage near Traditional+Merc's
//!    balance despite locality keys (Figure 16), at migration cost on
//!    the order of the write traffic (Table 4).

use d2::experiments::balance_sim::BalanceSystem;
use d2::experiments::fig16_17::ALL_SYSTEMS;
use d2::experiments::perf_suite::{self, SuiteConfig};
use d2::experiments::{fig16_17, fig7, table2, table4, Scale};
use d2::sim::{FailureModel, SimTime};
use d2::workload::HarvardTrace;
use d2_core::{Parallelism, SystemKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trace() -> HarvardTrace {
    HarvardTrace::generate(&Scale::Quick.harvard(), &mut StdRng::seed_from_u64(42))
}

#[test]
fn claim_defragmentation_cuts_nodes_per_task() {
    let trace = trace();
    let cfg = Scale::Quick.cluster(7);
    let t = table2::run(&trace, &cfg, &[SimTime::from_secs(5)], 0.05);
    let row = &t.rows[0];
    assert!(
        row.nodes_d2 * 2.0 < row.nodes_block,
        "D2 nodes/task {} vs traditional {}",
        row.nodes_d2,
        row.nodes_block
    );
    assert!(row.nodes_file <= row.nodes_block + 1e-9);
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
    let inter = SimTime::from_secs(5);
    let fig = fig7::run(&trace, &cfg, &model, &[inter], 2, 1.0, 100);
    let d2 = fig.cell(SystemKind::D2, inter).unwrap().mean();
    let trad = fig.cell(SystemKind::Traditional, inter).unwrap().mean();
    let file = fig.cell(SystemKind::TraditionalFile, inter).unwrap().mean();
    assert!(
        d2 < trad,
        "d2 {d2} must be below traditional {trad} (paper: an order of magnitude)"
    );
    assert!(d2 <= file + 1e-9, "d2 {d2} vs traditional-file {file}");
    assert!(trad > 0.0, "regime must actually produce failures");
}

#[test]
fn claim_lookup_savings_and_seq_speedup() {
    let trace = trace();
    let cfg = SuiteConfig {
        sizes: vec![24],
        kbps: vec![1500],
        measure_groups: 120,
        seed: 7,
        warmup_days: 0.05,
        systems: vec![SystemKind::D2, SystemKind::Traditional],
        ..SuiteConfig::default()
    };
    let suite = perf_suite::run(&trace, &cfg);
    let d2 = suite
        .cell(SystemKind::D2, 24, 1500, Parallelism::Seq)
        .unwrap();
    let trad = suite
        .cell(SystemKind::Traditional, 24, 1500, Parallelism::Seq)
        .unwrap();

    // Lookup traffic reduction (paper: up to 95%; at tiny scale demand a
    // solid majority).
    assert!(
        (d2.lookup_messages as f64) < 0.5 * trad.lookup_messages as f64,
        "d2 msgs {} vs traditional {}",
        d2.lookup_messages,
        trad.lookup_messages
    );
    // Miss-rate gap (paper: 13% vs 47%+).
    assert!(d2.cache_miss_rate() < trad.cache_miss_rate());
    // Sequential speedup > 1 (paper: 1.3–2.0 depending on size).
    let s = suite
        .speedup(
            SystemKind::D2,
            SystemKind::Traditional,
            24,
            1500,
            Parallelism::Seq,
        )
        .unwrap();
    assert!(s > 1.05, "sequential speedup {s} should be solidly above 1");
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
