//! Task availability under PlanetLab-like failures — the Section 8 story.
//!
//! Reproduces Figure 7 (task unavailability per system and inter-arrival
//! threshold), Figure 8 (ranked per-user unavailability), and Table 2
//! (mean objects/nodes per task).
//!
//! Run with: `cargo run --release --example availability`

use d2::experiments::avail_sweep::{self, Placements, FIG7_INTERS, FIG8_INTER};
use d2::experiments::{exec, Scale};
use d2::sim::FailureModel;
use d2::workload::HarvardTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::Quick;
    // The stressed quick-scale availability regime (the calibrated
    // PlanetLab-like defaults produce nearly zero failures at this scale,
    // which is faithful but uninformative — see EXPERIMENTS.md).
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
    println!(
        "replaying {} accesses against a {}-node cluster with PlanetLab-like failures …",
        trace.accesses.len(),
        cfg.nodes
    );

    // One warmed placement per system serves Table 2, and every replay
    // runs on a clone of it.
    let jobs = exec::available_jobs();
    let placements = Placements::warm(&trace, &cfg, scale.warmup_days(), jobs);
    println!("\n{}", avail_sweep::table2(&trace, &placements));

    let fig7 = placements.replay(&trace, &model, 100, scale.trials(), &FIG7_INTERS, jobs);
    println!("{}", avail_sweep::fig7(&fig7));

    let fig8 = placements.replay(&trace, &model, 101, 1, &[FIG8_INTER], jobs);
    println!("{}", avail_sweep::fig8(&fig8));
    for system in avail_sweep::SYSTEMS {
        let report = fig8
            .cell(0, system, FIG8_INTER)
            .expect("trial 0 replays every system");
        println!(
            "{:>18}: {} of {} users affected",
            system.label(),
            report.affected_users(),
            report.per_user.len()
        );
    }
}
