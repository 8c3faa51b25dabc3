//! The shared Section 9 testbed driver behind Figures 9–15.
//!
//! One [`run`] call sweeps system kind × system size × access bandwidth ×
//! parallelism mode over a single Harvard trace, warming each user's
//! lookup cache from the trace prefix before measuring the suffix — the
//! paper's methodology of simulating cache content "from the beginning of
//! the workload to the start of the time period" (Section 9.1).

use crate::exec;
use d2_core::{ClusterConfig, Parallelism, PerfConfig, PerfReport, PerfSim, SystemKind};
use d2_obs::{SharedSink, TraceEvent};
use d2_sim::{geometric_mean, SimTime};
use d2_workload::{split_access_groups, HarvardTrace, Task};
use std::collections::{BTreeMap, HashMap};

/// One measured configuration.
pub type CellKey = (SystemKind, usize, u64, Parallelism);

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// System sizes (node counts) to sweep.
    pub sizes: Vec<usize>,
    /// Access-link bandwidths in kbps (paper: 1500 and 384).
    pub kbps: Vec<u64>,
    /// Parallelism modes to measure.
    pub modes: Vec<Parallelism>,
    /// Systems to measure.
    pub systems: Vec<SystemKind>,
    /// Replicas per block (paper: 4 in the performance runs).
    pub replicas: usize,
    /// RNG seed.
    pub seed: u64,
    /// Number of access groups measured (from the end of the trace).
    pub measure_groups: usize,
    /// Days of balance warm-up before measuring.
    pub warmup_days: f64,
    /// Trace sink attached to every measured cell (cells are delimited
    /// by [`TraceEvent::Mark`] events). Disabled by default.
    pub sink: SharedSink,
    /// Worker threads for the cell fan-out. `1` (the default) runs the
    /// cells sequentially on the calling thread; any value produces
    /// byte-identical results (see [`run`]).
    pub jobs: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            sizes: vec![16, 32],
            kbps: vec![1500, 384],
            modes: vec![Parallelism::Seq, Parallelism::Para],
            systems: vec![
                SystemKind::D2,
                SystemKind::Traditional,
                SystemKind::TraditionalFile,
            ],
            replicas: 4,
            seed: 11,
            measure_groups: 200,
            warmup_days: 0.1,
            sink: SharedSink::null(),
            jobs: 1,
        }
    }
}

/// Results of a sweep.
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// Report per measured configuration.
    pub cells: HashMap<CellKey, PerfReport>,
    /// The measured access groups (aligned with each report's latencies).
    pub groups: Vec<Task>,
}

impl SuiteResult {
    /// The report for a configuration.
    pub fn cell(
        &self,
        system: SystemKind,
        size: usize,
        kbps: u64,
        mode: Parallelism,
    ) -> Option<&PerfReport> {
        self.cells.get(&(system, size, kbps, mode))
    }

    /// Overall speedup of `num` over `base` for one configuration: the
    /// geometric mean over users of each user's geometric-mean per-group
    /// ratio `base_latency / num_latency` (Section 9.3's metric). Users
    /// are taken in ascending order, so the mean is the same bits every
    /// run.
    pub fn speedup(
        &self,
        num: SystemKind,
        base: SystemKind,
        size: usize,
        kbps: u64,
        mode: Parallelism,
    ) -> Option<f64> {
        let per_user = self.per_user_speedup(num, base, size, kbps, mode)?;
        let means: Vec<f64> = per_user.values().copied().collect();
        Some(geometric_mean(&means))
    }

    /// Per-user geometric-mean speedups of `num` over `base`, by user.
    pub fn per_user_speedup(
        &self,
        num: SystemKind,
        base: SystemKind,
        size: usize,
        kbps: u64,
        mode: Parallelism,
    ) -> Option<BTreeMap<u32, f64>> {
        let a = self.cell(base, size, kbps, mode)?;
        let b = self.cell(num, size, kbps, mode)?;
        let mut ratios: HashMap<u32, Vec<f64>> = HashMap::new();
        for ((&user, &base_lat), &num_lat) in a
            .group_users
            .iter()
            .zip(&a.group_latencies)
            .zip(&b.group_latencies)
        {
            if base_lat > 0.0 && num_lat > 0.0 {
                ratios.entry(user).or_default().push(base_lat / num_lat);
            }
        }
        Some(
            ratios
                .into_iter()
                .map(|(u, rs)| (u, geometric_mean(&rs)))
                .collect(),
        )
    }

    /// Per-group latency pairs `(base, num)` for the scatter plots
    /// (Figures 14–15).
    pub fn latency_pairs(
        &self,
        num: SystemKind,
        base: SystemKind,
        size: usize,
        kbps: u64,
        mode: Parallelism,
    ) -> Vec<(f64, f64)> {
        let (Some(a), Some(b)) = (
            self.cell(base, size, kbps, mode),
            self.cell(num, size, kbps, mode),
        ) else {
            return vec![];
        };
        a.group_latencies
            .iter()
            .zip(&b.group_latencies)
            .filter(|(&x, &y)| x > 0.0 && y > 0.0)
            .map(|(&x, &y)| (x, y))
            .collect()
    }
}

/// Coordinate value for a parallelism mode in [`exec::derive_seed`].
fn mode_coord(mode: Parallelism) -> u64 {
    match mode {
        Parallelism::Seq => 0,
        Parallelism::Para => 1,
    }
}

/// Runs the sweep.
///
/// Every cell is an independent simulation: it derives its own RNG seed
/// from `cfg.seed` and its `(size, kbps, mode)` coordinates — the system
/// kind is deliberately excluded so all systems in a sweep build the
/// same ring layout and the cross-system speedup comparisons stay
/// paired — and it buffers its trace events in a private sink. With
/// `cfg.jobs > 1` the cells fan out over [`exec::parallel_map`]; the
/// per-cell buffers are merged into `cfg.sink` in canonical sweep order
/// afterwards, so reports and the trace stream are byte-identical to the
/// `jobs = 1` run at any worker count.
pub fn run(trace: &HarvardTrace, cfg: &SuiteConfig) -> SuiteResult {
    let groups = split_access_groups(&trace.accesses, SimTime::from_secs(1));
    let measure_start = groups.len().saturating_sub(cfg.measure_groups);
    let (warm, measure) = groups.split_at(measure_start);

    // Canonical cell order: the nesting the sequential sweep always used.
    let mut cell_keys: Vec<CellKey> = Vec::new();
    for &system in &cfg.systems {
        for &size in &cfg.sizes {
            for &kbps in &cfg.kbps {
                for &mode in &cfg.modes {
                    cell_keys.push((system, size, kbps, mode));
                }
            }
        }
    }

    // Only `Sync` data crosses into the workers — the shared sink is
    // single-threaded by design, so each worker records into a private
    // per-cell sink instead.
    let sink_enabled = cfg.sink.enabled();
    let replicas = cfg.replicas;
    let seed = cfg.seed;
    let warmup_days = cfg.warmup_days;

    let outcomes = exec::parallel_map(&cell_keys, cfg.jobs, |_, &(system, size, kbps, mode)| {
        let cell_sink = if sink_enabled {
            SharedSink::memory(0)
        } else {
            SharedSink::null()
        };
        let ccfg = ClusterConfig {
            nodes: size,
            replicas,
            seed: exec::derive_seed(seed, &[size as u64, kbps, mode_coord(mode)]),
            ..ClusterConfig::default()
        };
        let pcfg = PerfConfig::default();
        let mut sim = PerfSim::build(system, &ccfg, &pcfg, trace, warmup_days);
        sim.warm_caches(trace, warm);
        sim.set_access_kbps(kbps);
        cell_sink.record_with(|| TraceEvent::Mark {
            t_us: 0,
            label: format!("cell system={system:?} size={size} kbps={kbps} mode={mode:?}"),
        });
        sim.set_trace_sink(cell_sink.clone());
        let report = sim.run(trace, measure, mode);
        (report, cell_sink.drain())
    });

    let mut cells = HashMap::new();
    for (&key, (report, events)) in cell_keys.iter().zip(outcomes) {
        cfg.sink.extend(events);
        cells.insert(key, report);
    }
    SuiteResult {
        cells,
        groups: measure.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use rand::SeedableRng;

    fn quick_suite() -> (HarvardTrace, SuiteResult) {
        let trace = HarvardTrace::generate(
            &Scale::Quick.harvard(),
            &mut rand::rngs::StdRng::seed_from_u64(5),
        );
        let cfg = SuiteConfig {
            sizes: vec![16],
            kbps: vec![1500],
            measure_groups: 80,
            ..SuiteConfig::default()
        };
        let result = run(&trace, &cfg);
        (trace, result)
    }

    #[test]
    fn suite_produces_all_cells() {
        let (_trace, result) = quick_suite();
        // 3 systems × 1 size × 1 kbps × 2 modes.
        assert_eq!(result.cells.len(), 6);
        for report in result.cells.values() {
            assert_eq!(report.group_latencies.len(), result.groups.len());
        }
    }

    #[test]
    fn d2_speedup_over_traditional_in_seq() {
        let (_trace, result) = quick_suite();
        let speedup = || {
            result
                .speedup(
                    SystemKind::D2,
                    SystemKind::Traditional,
                    16,
                    1500,
                    Parallelism::Seq,
                )
                .unwrap()
        };
        let s = speedup();
        assert!(s > 1.0, "seq speedup should exceed 1, got {s}");
        // The same users in the same order every time: not a last digit
        // that follows a hash map's iteration order.
        for _ in 0..8 {
            assert_eq!(speedup().to_bits(), s.to_bits());
        }
    }

    #[test]
    fn suite_sink_sees_marks_routes_and_fetches() {
        let trace = HarvardTrace::generate(
            &Scale::Quick.harvard(),
            &mut rand::rngs::StdRng::seed_from_u64(5),
        );
        let sink = SharedSink::memory(0);
        let cfg = SuiteConfig {
            sizes: vec![16],
            kbps: vec![1500],
            measure_groups: 40,
            sink: sink.clone(),
            ..SuiteConfig::default()
        };
        let result = run(&trace, &cfg);
        let events = sink.drain();
        let marks = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Mark { .. }))
            .count();
        assert_eq!(marks, result.cells.len(), "one mark per measured cell");
        assert!(events.iter().any(|e| matches!(e, TraceEvent::Fetch { .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::Route { .. })));
        // Marks name the swept dimensions.
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Mark { label, .. } if label.contains("size=16") && label.contains("kbps=1500")
        )));
    }

    #[test]
    fn latency_pairs_nonempty() {
        let (_trace, result) = quick_suite();
        let pairs = result.latency_pairs(
            SystemKind::D2,
            SystemKind::Traditional,
            16,
            1500,
            Parallelism::Seq,
        );
        assert!(!pairs.is_empty());
        for (a, b) in pairs {
            assert!(a > 0.0 && b > 0.0);
        }
    }
}
