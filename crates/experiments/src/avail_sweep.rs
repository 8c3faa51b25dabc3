//! The Section 8 availability sweep and Table 2, Figures 7 and 8, which
//! read it.
//!
//! [`Placements::warm`] builds each system's cluster over the trace's
//! initial file system and balances it for the warm-up days (Section
//! 8.1), once. [`Placements::replay`] plays one failure trace against
//! every (trial, system) placement, one cell each: trial 0's cells clone
//! the warmed placements, and each later trial warms its own, at cluster
//! seed `cfg.seed + 1000 × trial`, inside its cell. Every replay runs on
//! a clone of its placement, so each starts from the same warmed state.
//! Cells fan out over [`exec::parallel_map`] and merge in canonical
//! order, so a sweep is the same at any worker count. Every figure is a
//! render function that names the cells it reads:
//!
//! | render | paper artifact | reads |
//! |---|---|---|
//! | [`table2`] | Table 2 — mean blocks/files/nodes per task | the warmed placements at [`TABLE2_INTERS`] |
//! | [`fig7`] | Fig. 7 — task unavailability per system and `inter` | every trial's cells at [`FIG7_INTERS`] |
//! | [`fig8`] | Fig. 8 — ranked per-user unavailability | trial 0's cells at [`FIG8_INTER`] |
//!
//! Table 2 reads only the ring and the key table, so its traditional
//! baselines may share Figure 7's warmed placements: a system without
//! active balancing makes no move in a warm-up
//! (`crates/core/tests/warmup_ring.rs`).

use crate::exec;
use crate::report::{fmt, render_table, Claim};
use d2_core::{AvailabilityReport, AvailabilitySim, ClusterConfig, SystemKind, TaskProfile};
use d2_sim::{FailureModel, FailureTrace, SimTime};
use d2_workload::{split_tasks, HarvardTrace, Task};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Systems the sweep measures, in canonical cell order.
pub const SYSTEMS: [SystemKind; 3] = [
    SystemKind::D2,
    SystemKind::Traditional,
    SystemKind::TraditionalFile,
];

/// The task inter-arrival thresholds Table 2 reads.
pub const TABLE2_INTERS: [SimTime; 4] = [
    SimTime::from_secs(1),
    SimTime::from_secs(5),
    SimTime::from_secs(15),
    SimTime::from_secs(60),
];

/// The thresholds Figure 7 reads.
pub const FIG7_INTERS: [SimTime; 3] = [
    SimTime::from_secs(5),
    SimTime::from_secs(60),
    SimTime::from_secs(300),
];

/// The threshold Figure 8 reads.
pub const FIG8_INTER: SimTime = SimTime::from_secs(5);

/// The failure seed `d2-exp fig7` replays.
pub const FIG7_FAILURE_SEED: u64 = 99;

/// The failure seed `d2-exp fig8` replays.
pub const FIG8_FAILURE_SEED: u64 = 42;

/// The longest task: a task that runs longer is cut.
const MAX_TASK: SimTime = SimTime::from_secs(300);

/// One replayed cell: trial, system, task inter-arrival threshold.
pub type CellKey = (usize, SystemKind, SimTime);

/// The trace's tasks at inter-arrival threshold `inter`.
pub fn tasks(trace: &HarvardTrace, inter: SimTime) -> Vec<Task> {
    split_tasks(&trace.accesses, inter, MAX_TASK)
}

/// Each system's warmed trial-0 placement, with what warmed it.
#[derive(Clone, Debug)]
pub struct Placements {
    cfg: ClusterConfig,
    warmup_days: f64,
    /// One per system, in [`SYSTEMS`] order.
    sims: Vec<AvailabilitySim>,
}

/// The reports of one failure trace's replays.
#[derive(Clone, Debug, PartialEq)]
pub struct Sweep {
    /// Report per replayed cell.
    pub cells: HashMap<CellKey, AvailabilityReport>,
}

impl Sweep {
    /// The report of one cell.
    pub fn cell(
        &self,
        trial: usize,
        system: SystemKind,
        inter: SimTime,
    ) -> Option<&AvailabilityReport> {
        self.cells.get(&(trial, system, inter))
    }
}

impl Placements {
    /// Warms each system's placement for `cfg`, one cell per system.
    pub fn warm(
        trace: &HarvardTrace,
        cfg: &ClusterConfig,
        warmup_days: f64,
        jobs: usize,
    ) -> Placements {
        let sims = exec::parallel_map(&SYSTEMS, jobs, |_, &system| {
            AvailabilitySim::build(system, cfg, trace, warmup_days)
        });
        Placements {
            cfg: *cfg,
            warmup_days,
            sims,
        }
    }

    /// The warmed placement of `system`.
    pub fn get(&self, system: SystemKind) -> &AvailabilitySim {
        let i = SYSTEMS
            .iter()
            .position(|&s| s == system)
            .expect("every system has a placement");
        &self.sims[i]
    }

    /// Replays the failure trace that `model` draws from `failure_seed`
    /// against `trials` placements of each system, once per threshold in
    /// `inters`. The trace is shared across systems, as in the paper.
    pub fn replay(
        &self,
        trace: &HarvardTrace,
        model: &FailureModel,
        failure_seed: u64,
        trials: usize,
        inters: &[SimTime],
        jobs: usize,
    ) -> Sweep {
        let failures = FailureTrace::generate(
            self.cfg.nodes,
            model,
            &mut StdRng::seed_from_u64(failure_seed),
        );
        let task_sets: Vec<Vec<Task>> = inters.iter().map(|&inter| tasks(trace, inter)).collect();
        let cell_keys: Vec<(usize, SystemKind)> = (0..trials)
            .flat_map(|trial| SYSTEMS.map(|system| (trial, system)))
            .collect();
        let outcomes = exec::parallel_map(&cell_keys, jobs, |_, &(trial, system)| {
            let warmed;
            let placement = if trial == 0 {
                self.get(system)
            } else {
                let cfg = ClusterConfig {
                    seed: self.cfg.seed + 1000 * trial as u64,
                    ..self.cfg
                };
                warmed = AvailabilitySim::build(system, &cfg, trace, self.warmup_days);
                &warmed
            };
            task_sets
                .iter()
                .map(|tasks| placement.clone().run(trace, tasks, &failures))
                .collect::<Vec<_>>()
        });
        let mut cells = HashMap::new();
        for (&(trial, system), reports) in cell_keys.iter().zip(outcomes) {
            for (&inter, report) in inters.iter().zip(reports) {
                cells.insert((trial, system, inter), report);
            }
        }
        Sweep { cells }
    }
}

/// Table 2: mean blocks, files and nodes accessed per task at each of
/// [`TABLE2_INTERS`], read from the warmed placements.
pub fn table2(trace: &HarvardTrace, placements: &Placements) -> String {
    let rows: Vec<Vec<String>> = table2_profiles(trace, placements)
        .into_iter()
        .map(|(inter, [block, file, d2])| {
            vec![
                format!("{}s", inter.as_secs()),
                format!("{:.0}", block.mean_blocks),
                format!("{:.0}", block.mean_files),
                format!("{:.1}", block.mean_nodes),
                format!("{:.1}", file.mean_nodes),
                format!("{:.1}", d2.mean_nodes),
            ]
        })
        .collect();
    render_table(
        "Table 2: mean objects and nodes accessed per task",
        &[
            "inter",
            "blocks",
            "files",
            "nodes(block)",
            "nodes(file)",
            "nodes(D2)",
        ],
        &rows,
    )
}

/// The (block, file, D2) task profiles at each of [`TABLE2_INTERS`].
fn table2_profiles(
    trace: &HarvardTrace,
    placements: &Placements,
) -> Vec<(SimTime, [TaskProfile; 3])> {
    TABLE2_INTERS
        .iter()
        .map(|&inter| {
            let tasks = tasks(trace, inter);
            let profile = |system| placements.get(system).task_profile(trace, &tasks);
            let systems = [
                SystemKind::Traditional,
                SystemKind::TraditionalFile,
                SystemKind::D2,
            ];
            (inter, systems.map(profile))
        })
        .collect()
}

/// The threshold of the paper's Table 2 figures, which [`table2_claim`]
/// judges.
pub const TABLE2_CLAIM_INTER: SimTime = SimTime::from_secs(5);

/// Table 2's claim. Paper (inter = 5 s): nodes per task fall from 11
/// (block DHT) to 8 (file DHT) to 2 (D2). Holds if at every threshold
/// the file DHT touches no more nodes than the block DHT and D2 fewer,
/// a task reads no fewer blocks than files, the longest threshold's
/// tasks are no shorter than the shortest's, and at
/// [`TABLE2_CLAIM_INTER`] D2 touches under half the block DHT's nodes;
/// judges that ratio.
pub fn table2_claim(trace: &HarvardTrace, placements: &Placements) -> Claim {
    let rows = table2_profiles(trace, placements);
    let ordered = rows.iter().all(|(_, [block, file, d2])| {
        file.mean_nodes <= block.mean_nodes + 1e-9
            && d2.mean_nodes < block.mean_nodes
            && block.mean_blocks >= block.mean_files
    });
    // A longer threshold makes longer tasks.
    let longer = rows[rows.len() - 1].1[0].mean_blocks >= rows[0].1[0].mean_blocks;
    let at_claim = rows.iter().find(|(inter, _)| *inter == TABLE2_CLAIM_INTER);
    let Some((_, [block, _, d2])) = at_claim else {
        return Claim::MISSING;
    };
    let ratio = d2.mean_nodes / block.mean_nodes;
    Claim::new(ratio, ordered && longer && ratio < 0.5)
}

/// Figure 7: task unavailability per system at each of [`FIG7_INTERS`]:
/// the mean, min and max over trials, and how many trials saw none.
pub fn fig7(sweep: &Sweep) -> String {
    let mut rows = Vec::new();
    for system in SYSTEMS {
        for inter in FIG7_INTERS {
            let trials: Vec<f64> = (0..)
                .map_while(|trial| sweep.cell(trial, system, inter))
                .map(AvailabilityReport::task_unavailability)
                .collect();
            if trials.is_empty() {
                continue;
            }
            rows.push(vec![
                system.label().to_string(),
                format!("{}s", inter.as_secs()),
                fmt(trials.iter().sum::<f64>() / trials.len() as f64),
                fmt(trials.iter().copied().fold(f64::INFINITY, f64::min)),
                fmt(trials.iter().copied().fold(0.0, f64::max)),
                trials.iter().filter(|&&t| t == 0.0).count().to_string(),
            ]);
        }
    }
    render_table(
        "Figure 7: task unavailability (fraction of tasks that fail)",
        &["system", "inter", "mean", "min", "max", "zero-trials"],
        &rows,
    )
}

/// Figure 7's claim. Paper: D2's task unavailability is an order of
/// magnitude below the traditional DHT's at every `inter`. Holds if,
/// summed over every trial at [`FIG7_INTERS`] of `sweeps` (one failure
/// trace can favour traditional, so a judge sums several), D2's is below
/// traditional's and at most traditional-file's; judges D2's over
/// traditional's.
pub fn fig7_claim(sweeps: &[Sweep]) -> Claim {
    let total = |system| -> f64 {
        let cells = sweeps.iter().flat_map(|sweep| {
            FIG7_INTERS.iter().flat_map(move |&inter| {
                (0..).map_while(move |trial| sweep.cell(trial, system, inter))
            })
        });
        cells.map(AvailabilityReport::task_unavailability).sum()
    };
    let [d2, trad, file] = SYSTEMS.map(total);
    Claim::new(d2 / trad, d2 < trad && d2 <= file + 1e-9)
}

/// Figure 8: per-user unavailability of trial 0 at [`FIG8_INTER`],
/// worst user first.
pub fn fig8(sweep: &Sweep) -> String {
    let mut rows = Vec::new();
    for system in SYSTEMS {
        let Some(report) = sweep.cell(0, system, FIG8_INTER) else {
            continue;
        };
        let ranked = report.ranked_user_unavailability();
        for (rank, (user, unavail)) in ranked.iter().filter(|(_, u)| *u > 0.0).enumerate() {
            rows.push(vec![
                system.label().to_string(),
                rank.to_string(),
                format!("u{user}"),
                fmt(*unavail),
            ]);
        }
        rows.push(vec![
            system.label().to_string(),
            "-".into(),
            format!("({} affected users)", report.affected_users()),
            "".into(),
        ]);
    }
    render_table(
        "Figure 8: per-user task unavailability, ranked (inter = 5s)",
        &["system", "rank", "user", "unavailability"],
        &rows,
    )
}

/// Figure 8's claim. Paper: D2's failures hit fewer users, each harder
/// (the Section 4.3 trade-off). Holds if, summed over trial 0 of
/// `sweeps` at [`FIG8_INTER`], D2's failures reach fewer users than the
/// traditional DHT's; judges D2's count over traditional's.
pub fn fig8_claim(sweeps: &[Sweep]) -> Claim {
    let users = |system| -> usize {
        let reports = sweeps.iter().filter_map(|s| s.cell(0, system, FIG8_INTER));
        reports.map(AvailabilityReport::affected_users).sum()
    };
    let (d2, trad) = (users(SystemKind::D2), users(SystemKind::Traditional));
    Claim::new(d2 as f64 / trad as f64, d2 < trad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    /// Figure 8's claim as `d2-exp fig8 --scale quick` runs it (the
    /// calibrated failure model, failure seed 42), summed over run seeds
    /// 1–8: one seed's handful of users is too few to rank systems by.
    /// Measured: D2 affects 3 users in total, traditional 24 and
    /// traditional-file 21; four seeds affect no user at all.
    #[test]
    fn fewer_users_affected_under_d2() {
        let scale = Scale::Quick;
        let mut sweeps = Vec::new();
        for seed in 1..=8 {
            let trace = HarvardTrace::generate(&scale.harvard(), &mut StdRng::seed_from_u64(seed));
            let model = FailureModel {
                duration_secs: trace.config.days * 86_400.0,
                ..FailureModel::default()
            };
            let sweep = Placements::warm(&trace, &scale.cluster(seed), scale.warmup_days(), 2)
                .replay(&trace, &model, FIG8_FAILURE_SEED, 1, &[FIG8_INTER], 2);
            for report in sweep.cells.values() {
                // Rankings are sorted descending.
                let ranked = report.ranked_user_unavailability();
                assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1), "seed {seed}");
            }
            sweeps.push(sweep);
        }
        let claim = fig8_claim(&sweeps);
        assert!(claim.holds, "{claim:?}");
    }
}
