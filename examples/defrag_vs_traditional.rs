//! Head-to-head: D2 vs traditional vs traditional-file DHTs on a
//! Harvard-like workload — the Section 9 performance story in one run.
//!
//! Prints the reproduced Figure 9 (lookup messages per node), Figure 10
//! (speedup over traditional), Figure 13 (cache miss rates), and the
//! Figure 14/15 scatter summaries.
//!
//! Run with: `cargo run --release --example defrag_vs_traditional`

use d2::experiments::perf_suite::{self, SuiteConfig, KBPS};
use d2::experiments::Scale;
use d2::workload::HarvardTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::Quick;
    println!("generating Harvard-like workload …");
    let trace = HarvardTrace::generate(&scale.harvard(), &mut StdRng::seed_from_u64(42));
    println!(
        "  {} accesses by {} users over {} days, {} files",
        trace.accesses.len(),
        trace.config.users,
        trace.config.days,
        trace.namespace.len()
    );

    let cfg = SuiteConfig {
        sizes: scale.perf_sizes(),
        measure_groups: 150,
        seed: 7,
        warmup_days: scale.warmup_days(),
        ..SuiteConfig::default()
    };
    println!(
        "running the performance sweep: sizes {:?} × bandwidths {:?} × 3 systems × 2 modes …",
        cfg.sizes, KBPS
    );
    let suite = perf_suite::run(&trace, &cfg);

    println!("\n{}", perf_suite::fig9(&suite));
    println!("{}", perf_suite::fig10(&suite));
    println!("{}", perf_suite::fig13(&suite));
    println!("{}", perf_suite::fig14_15(&suite));
}
