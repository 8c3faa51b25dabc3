//! `PerfSim`'s warm-up balances ring positions against the initial file
//! system's sorted keys; `AvailabilitySim`'s preloads every block and
//! moves it. With no failure, write or removal during a warm-up the two
//! must leave the same ring, node by node, for every system. A failure
//! prints its configuration.

use d2_core::{AvailabilitySim, ClusterConfig, PerfConfig, PerfSim, SystemKind};
use d2_ring::{NodeIdx, Ring};
use d2_workload::{HarvardConfig, HarvardTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trace(seed: u64) -> HarvardTrace {
    let cfg = HarvardConfig {
        users: 6,
        days: 0.5,
        initial_bytes: 8 << 20,
        reads_per_user_hour: 40.0,
        ..HarvardConfig::default()
    };
    HarvardTrace::generate(&cfg, &mut StdRng::seed_from_u64(seed))
}

#[test]
fn perfsim_warmup_leaves_the_availability_ring() {
    let systems = [
        SystemKind::D2,
        SystemKind::Traditional,
        SystemKind::TraditionalFile,
    ];
    for seed in [2007, 5, 7] {
        let trace = trace(seed);
        for nodes in [8, 24] {
            let ccfg = ClusterConfig {
                nodes,
                replicas: 3,
                seed,
                ..ClusterConfig::default()
            };
            for days in [0.1, 1.0] {
                for system in systems {
                    let at = format!("{system} seed {seed}, {nodes} nodes, {days} days");
                    let avail = AvailabilitySim::build(system, &ccfg, &trace, days);
                    let perf = PerfSim::build(system, &ccfg, &PerfConfig::default(), &trace, days);
                    let (want, got) = (&avail.cluster.ring, perf.ring());
                    assert_eq!(got.capacity(), want.capacity(), "{at}");
                    for i in 0..want.capacity() {
                        // Whole keys: D2 keys share long prefixes, and a
                        // key's `Debug` shows its first 8 bytes only.
                        let id = |ring: &Ring| ring.id_of(NodeIdx(i)).map(|k| *k.as_bytes());
                        assert_eq!(id(got), id(want), "{at}: node {i}");
                    }
                    // The D2 rings were balanced, not left where they began.
                    let moves = avail.cluster.stats.balance_moves;
                    assert_eq!(moves > 0, system.balances_actively(), "{at}: {moves} moves");
                }
            }
        }
    }
}
