//! The availability simulator (paper Section 8).
//!
//! Replays a Harvard-like workload against a failure trace and scores
//! **task** availability: a task fails if any block it reads is
//! unavailable at the moment of the access (no live replica holds real,
//! arrived data and no live pointer leads to one). The simulator models
//! exactly what the paper's does — replica regeneration and migration
//! metered at 750 kbps per node, load balancing every 10 minutes, pointer
//! stabilization of 1 hour — while ignoring DHT routing transients
//! (Section 8.1 argues replica availability dominates).
//!
//! Timeline: the cluster is initialized with the trace-start file system
//! and balanced for a warm-up period (the paper uses 3 simulated days)
//! before the failure trace and workload begin.

use crate::cluster::{warmup_rounds, SimCluster, PROBE_INTERVAL};
use crate::config::ClusterConfig;
use d2_ring::NodeIdx;
use d2_sim::{FailureTrace, SimTime};
use d2_types::{Key, SystemKind};
use d2_workload::{FileOp, HarvardTrace, Task, TraceKeys};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Result of one availability run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AvailabilityReport {
    /// Tasks evaluated.
    pub total_tasks: u64,
    /// Tasks with at least one unavailable block.
    pub failed_tasks: u64,
    /// Per-user `(total, failed)` task counts (Figure 8).
    pub per_user: HashMap<u32, (u64, u64)>,
    /// Blocks whose reads failed.
    pub failed_block_reads: u64,
    /// Total block reads attempted.
    pub total_block_reads: u64,
}

impl AvailabilityReport {
    /// Fraction of tasks that failed (Figure 7's y-axis).
    pub fn task_unavailability(&self) -> f64 {
        if self.total_tasks == 0 {
            0.0
        } else {
            self.failed_tasks as f64 / self.total_tasks as f64
        }
    }

    /// Users with at least one failed task (the points Figure 8 plots).
    pub fn affected_users(&self) -> usize {
        self.per_user
            .values()
            .filter(|&&(_, failed)| failed > 0)
            .count()
    }

    /// Per-user unavailability, ranked worst-first (Figure 8).
    pub fn ranked_user_unavailability(&self) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> = self
            .per_user
            .iter()
            .map(|(&u, &(total, failed))| (u, failed as f64 / total.max(1) as f64))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// Static per-task statistics for Table 2.
#[derive(Clone, Debug, Default)]
pub struct TaskProfile {
    /// Mean blocks accessed per task.
    pub mean_blocks: f64,
    /// Mean distinct files accessed per task.
    pub mean_files: f64,
    /// Mean distinct nodes accessed per task (primary replica of each
    /// block).
    pub mean_nodes: f64,
}

/// The availability simulation driver.
#[derive(Clone, Debug)]
pub struct AvailabilitySim {
    /// The cluster under test.
    pub cluster: SimCluster,
    /// When the warm-up ended (failure/workload time 0 maps here).
    pub epoch: SimTime,
    /// Every block key of the trace under the cluster's encoding, hashed
    /// once by [`AvailabilitySim::build`].
    keys: Arc<TraceKeys>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Node failure/recovery (applied before reads at the same instant).
    Transition(usize, bool),
    /// Workload access (index into the trace).
    Access(usize),
    /// Balance round + pointer resolution.
    Maintain,
}

impl AvailabilitySim {
    /// Builds a cluster for `system`, inserts the trace's initial file
    /// system, and (for systems with active balancing) runs `warmup_days`
    /// of balance rounds so node positions stabilize (Section 8.1).
    pub fn build(
        system: SystemKind,
        cfg: &ClusterConfig,
        trace: &HarvardTrace,
        warmup_days: f64,
    ) -> AvailabilitySim {
        let mut cluster = SimCluster::new(system, cfg);
        let keys = Arc::new(TraceKeys::build(&trace.namespace, system));
        // Initial data: all files alive at time 0.
        cluster.preload(keys.initial(&trace.namespace));

        let mut epoch = SimTime::ZERO;
        for now in warmup_rounds(warmup_days) {
            cluster.run_balance_round(now, false);
            cluster.resolve_stale_pointers(now);
            cluster.forget_arrived_transfers(now);
            epoch = now;
        }
        cluster.now = epoch;
        AvailabilitySim {
            cluster,
            epoch,
            keys,
        }
    }

    /// Replays the workload and failure trace, scoring task availability.
    ///
    /// `tasks` must have been derived from `trace.accesses` (indices line
    /// up).
    pub fn run(
        &mut self,
        trace: &HarvardTrace,
        tasks: &[Task],
        failures: &FailureTrace,
    ) -> AvailabilityReport {
        let epoch = self.epoch;
        // Task membership of each access.
        let mut task_of_access: Vec<Option<usize>> = vec![None; trace.accesses.len()];
        for (t, task) in tasks.iter().enumerate() {
            for &i in &task.indices {
                task_of_access[i] = Some(t);
            }
        }
        let mut task_failed = vec![false; tasks.len()];

        // Merge events.
        let mut events: Vec<(SimTime, Ev)> = Vec::new();
        for (t, node, up) in failures.transitions() {
            events.push((epoch + t, Ev::Transition(node, up)));
        }
        for (i, a) in trace.accesses.iter().enumerate() {
            events.push((epoch + a.at, Ev::Access(i)));
        }
        let horizon = epoch + failures.duration;
        let mut m = epoch;
        while m < horizon {
            m += PROBE_INTERVAL;
            events.push((m, Ev::Maintain));
        }
        events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut report = AvailabilityReport::default();
        let n = self.cluster.len();
        // Remember each node's ID so recoveries rejoin in place.
        let mut last_id: Vec<Option<Key>> = (0..n)
            .map(|i| self.cluster.ring.id_of(NodeIdx(i)))
            .collect();

        for (at, ev) in events {
            self.cluster.now = at;
            match ev {
                Ev::Transition(node, up) => {
                    let node = NodeIdx(node % n);
                    if up {
                        if let Some(id) = last_id[node.0] {
                            self.cluster.node_up_at(node, id, at);
                        }
                    } else {
                        if let Some(id) = self.cluster.ring.id_of(node) {
                            last_id[node.0] = Some(id);
                        }
                        self.cluster.node_down(node, at);
                    }
                }
                Ev::Maintain => {
                    // Lazy erasure repair drains its budgeted queue here
                    // (no-op under replication, which repairs eagerly).
                    self.cluster.run_repair_round(at);
                    self.cluster.run_balance_round(at, false);
                    self.cluster.resolve_stale_pointers(at);
                    // Periodic repair: in-flight copies that have since
                    // arrived can now restore under-replicated groups, and
                    // broken pointers re-point (O(pending), not O(blocks)).
                    self.cluster.resync_pending(at);
                }
                Ev::Access(i) => {
                    let a = &trace.accesses[i];
                    match a.op {
                        FileOp::Create | FileOp::Write => {
                            for (key, len) in self.keys.sized(&trace.namespace, a.file) {
                                self.cluster.put_block(key, len, at);
                            }
                        }
                        FileOp::Delete => {
                            for key in self.keys.file(a.file) {
                                self.cluster.remove_block(key, at);
                            }
                        }
                        FileOp::Read => {
                            let mut ok = true;
                            for (key, _) in self.keys.access(a) {
                                report.total_block_reads += 1;
                                if !self.cluster.is_available(&key, at) {
                                    report.failed_block_reads += 1;
                                    ok = false;
                                }
                            }
                            if !ok {
                                if let Some(t) = task_of_access[i] {
                                    task_failed[t] = true;
                                }
                            }
                        }
                    }
                }
            }
        }

        for (t, task) in tasks.iter().enumerate() {
            report.total_tasks += 1;
            let entry = report.per_user.entry(task.user).or_insert((0, 0));
            entry.0 += 1;
            if task_failed[t] {
                report.failed_tasks += 1;
                entry.1 += 1;
            }
        }
        report
    }

    /// Computes Table 2's static profile: mean blocks, files, and nodes
    /// per task given the *current* (warmed-up) placement.
    pub fn task_profile(&self, trace: &HarvardTrace, tasks: &[Task]) -> TaskProfile {
        let mut sum_blocks = 0u64;
        let mut sum_files = 0u64;
        let mut sum_nodes = 0u64;
        let mut counted = 0u64;
        for task in tasks {
            let mut files = HashSet::new();
            let mut nodes = HashSet::new();
            let mut blocks = 0u64;
            for &i in &task.indices {
                let a = &trace.accesses[i];
                if a.op != FileOp::Read {
                    continue;
                }
                files.insert(a.file);
                for (key, _) in self.keys.access(a) {
                    blocks += 1;
                    if let Some(owner) = self.cluster.ring.owner_of(&key) {
                        nodes.insert(owner);
                    }
                }
            }
            if blocks == 0 {
                continue;
            }
            counted += 1;
            sum_blocks += blocks;
            sum_files += files.len() as u64;
            sum_nodes += nodes.len() as u64;
        }
        let n = counted.max(1) as f64;
        TaskProfile {
            mean_blocks: sum_blocks as f64 / n,
            mean_files: sum_files as f64 / n,
            mean_nodes: sum_nodes as f64 / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2_sim::FailureModel;
    use d2_workload::{split_tasks, HarvardConfig};
    use rand::SeedableRng;

    fn tiny_trace() -> HarvardTrace {
        let cfg = HarvardConfig {
            users: 6,
            days: 1.0,
            initial_bytes: 24 << 20,
            reads_per_user_hour: 40.0,
            ..HarvardConfig::default()
        };
        HarvardTrace::generate(&cfg, &mut rand::rngs::StdRng::seed_from_u64(11))
    }

    fn tiny_cluster_cfg() -> ClusterConfig {
        ClusterConfig {
            nodes: 24,
            replicas: 3,
            seed: 5,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn no_failures_no_unavailability() {
        let trace = tiny_trace();
        let tasks = split_tasks(
            &trace.accesses,
            SimTime::from_secs(5),
            SimTime::from_secs(300),
        );
        let mut sim = AvailabilitySim::build(SystemKind::D2, &tiny_cluster_cfg(), &trace, 0.25);
        // The warm-up deferred copies behind pointers, kept no record of a
        // transfer that has arrived, and the cluster's index still mirrors
        // its stores.
        assert!(sim.cluster.stats.pointers_installed > 0);
        assert!(sim.cluster.inflight.values().all(|t| t.1 > sim.epoch));
        assert!(sim.cluster.index_matches_stores());
        let failures = FailureTrace::none(24, SimTime::from_secs(86_400));
        let report = sim.run(&trace, &tasks, &failures);
        assert!(report.total_tasks > 0);
        assert_eq!(report.failed_tasks, 0, "no failures => no task failures");
        assert_eq!(report.task_unavailability(), 0.0);
    }

    /// Figure 7's claim, summed over 16 failure seeds: D2 loses on four
    /// of them (seed 2 among them), so no single seed carries it.
    #[test]
    fn d2_beats_traditional_under_failures() {
        let trace = tiny_trace();
        let tasks = split_tasks(
            &trace.accesses,
            SimTime::from_secs(5),
            SimTime::from_secs(300),
        );
        let model = FailureModel {
            // Brutal failure model so the tiny test shows separation.
            mttf_secs: 0.5 * 86_400.0,
            mttr_secs: 3.0 * 3_600.0,
            correlated_events: 3.0,
            correlated_fraction: 0.25,
            correlated_mttr_secs: 2.0 * 3_600.0,
            duration_secs: 86_400.0,
        };
        let d2 = AvailabilitySim::build(SystemKind::D2, &tiny_cluster_cfg(), &trace, 0.25);
        let trad =
            AvailabilitySim::build(SystemKind::Traditional, &tiny_cluster_cfg(), &trace, 0.25);
        let score = |sim: &AvailabilitySim, failures: &FailureTrace| {
            let report = sim.clone().run(&trace, &tasks, failures);
            report.task_unavailability()
        };
        let (mut sum_d2, mut sum_trad) = (0.0, 0.0);
        for seed in 1..=16 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let failures = FailureTrace::generate(24, &model, &mut rng);
            sum_d2 += score(&d2, &failures);
            sum_trad += score(&trad, &failures);
        }
        // Measured: d2 0.228, traditional 0.460.
        assert!(sum_d2 < sum_trad, "d2 {sum_d2} vs traditional {sum_trad}");
    }

    #[test]
    fn task_profile_shows_locality_gap() {
        let trace = tiny_trace();
        let tasks = split_tasks(
            &trace.accesses,
            SimTime::from_secs(15),
            SimTime::from_secs(300),
        );
        let d2 = AvailabilitySim::build(SystemKind::D2, &tiny_cluster_cfg(), &trace, 0.25);
        let trad =
            AvailabilitySim::build(SystemKind::Traditional, &tiny_cluster_cfg(), &trace, 0.0);
        let p_d2 = d2.task_profile(&trace, &tasks);
        let p_trad = trad.task_profile(&trace, &tasks);
        assert!(p_d2.mean_blocks > 0.0);
        // Same workload => same block/file counts.
        assert!((p_d2.mean_blocks - p_trad.mean_blocks).abs() < 1e-9);
        assert!((p_d2.mean_files - p_trad.mean_files).abs() < 1e-9);
        // D2 contacts strictly fewer nodes (Table 2's key claim).
        assert!(
            p_d2.mean_nodes < p_trad.mean_nodes,
            "d2 {} vs traditional {}",
            p_d2.mean_nodes,
            p_trad.mean_nodes
        );
    }

    #[test]
    fn per_user_accounting_sums_to_totals() {
        let trace = tiny_trace();
        let tasks = split_tasks(
            &trace.accesses,
            SimTime::from_secs(5),
            SimTime::from_secs(300),
        );
        let mut sim = AvailabilitySim::build(SystemKind::D2, &tiny_cluster_cfg(), &trace, 0.1);
        let failures = FailureTrace::generate(
            24,
            &FailureModel {
                duration_secs: 86_400.0,
                ..FailureModel::default()
            },
            &mut rand::rngs::StdRng::seed_from_u64(3),
        );
        let report = sim.run(&trace, &tasks, &failures);
        let total: u64 = report.per_user.values().map(|(t, _)| t).sum();
        let failed: u64 = report.per_user.values().map(|(_, f)| f).sum();
        assert_eq!(total, report.total_tasks);
        assert_eq!(failed, report.failed_tasks);
        let ranked = report.ranked_user_unavailability();
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
