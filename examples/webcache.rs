//! The DHT as a Squirrel-style cooperative web cache — the paper's
//! extreme-churn stress test (Section 10).
//!
//! Reproduces Table 3 (daily churn ratios), Table 4 (write vs migration
//! traffic), and Figure 17 (load imbalance over time under Webcache).
//!
//! Run with: `cargo run --release --example webcache`

use d2::experiments::balance_sweep::{self, Sweep};
use d2::experiments::{table3, Scale};
use d2::workload::{HarvardTrace, WebTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::Quick;
    let harvard = HarvardTrace::generate(&scale.harvard(), &mut StdRng::seed_from_u64(42));
    let web = WebTrace::generate(&scale.web(), &mut StdRng::seed_from_u64(42));
    println!(
        "web trace: {} requests over {} objects ({} domains)",
        web.accesses.len(),
        web.objects.len(),
        web.config.domains
    );

    println!("\n{}", table3::run(&harvard, &web).render());

    let sweep = Sweep::new(scale.cluster(7), scale.balance_warmup(), false);
    let traces = (&harvard, &web);
    println!("{}", balance_sweep::table4(&sweep, &traces, 1));
    println!("{}", balance_sweep::fig17(&sweep, &traces, 1));
    for run in sweep.runs(&sweep.fig17_cells(), &traces, 1) {
        if let Some(tail) = run.tail_imbalance(0.3) {
            println!("tail imbalance {:>18}: {tail:.3}", run.system.label());
        }
    }
}
