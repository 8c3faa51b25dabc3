//! The Section 9 testbed sweep and Figures 9–15, which read it.
//!
//! One [`run`] call sweeps system kind × system size × access bandwidth ×
//! parallelism mode over a single Harvard trace, warming each user's
//! lookup cache from the trace prefix before measuring the suffix — the
//! paper's methodology of simulating cache content "from the beginning of
//! the workload to the start of the time period" (Section 9.1). Every
//! figure is a render function of that one [`SuiteResult`] and names the
//! cells it reads:
//!
//! | render | paper artifact | cells read |
//! |---|---|---|
//! | [`fig9`] | Fig. 9 — lookup messages per node vs system size | every system, size and mode at [`FIGURE_KBPS`] |
//! | [`fig10`] | Fig. 10 — speedup over the traditional DHT | every size, bandwidth and mode |
//! | [`fig11`] | Fig. 11 — speedup over the traditional-file DHT | every size, bandwidth and mode |
//! | [`fig12`] | Fig. 12 — per-user speedup over traditional | largest size at [`FIGURE_KBPS`] |
//! | [`fig13`] | Fig. 13 — mean lookup-cache miss rate | every system, size and mode at [`FIGURE_KBPS`] |
//! | [`fig14_15`] | Figs. 14/15 — access-group latency scatter | largest size at [`FIGURE_KBPS`] |
//!
//! Each render has its paper claim beside it ([`fig9_claim`] to
//! [`fig14_15_claim`]), judged on the same suite.

use crate::exec;
use crate::report::{fmt, render_table, Claim};
use d2_core::{ClusterConfig, Parallelism, PerfConfig, PerfReport, PerfSim, SystemKind};
use d2_obs::{SharedSink, TraceEvent};
use d2_sim::{geometric_mean, SimTime};
use d2_workload::{split_access_groups, HarvardTrace, Task};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One measured configuration.
pub type CellKey = (SystemKind, usize, u64, Parallelism);

/// Systems the sweep measures, in canonical cell order.
const SYSTEMS: [SystemKind; 3] = [
    SystemKind::D2,
    SystemKind::Traditional,
    SystemKind::TraditionalFile,
];

/// Access-link bandwidths the sweep measures, in kbps (the paper's 1500
/// and 384).
pub const KBPS: [u64; 2] = [1500, 384];

/// Parallelism modes the sweep measures.
const MODES: [Parallelism; 2] = [Parallelism::Seq, Parallelism::Para];

/// Replicas per block (the paper uses 4 in the performance runs).
const REPLICAS: usize = 4;

/// The bandwidth Figures 9, 12, 13 and 14/15 read.
pub const FIGURE_KBPS: u64 = 1500;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// System sizes (node counts) to sweep.
    pub sizes: Vec<usize>,
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

    /// The largest system size measured.
    fn largest_size(&self) -> Option<usize> {
        self.cells.keys().map(|&(_, size, _, _)| size).max()
    }

    /// The system sizes measured, smallest first.
    fn sizes(&self) -> Vec<usize> {
        let sizes = self.cells.keys().map(|&(_, size, _, _)| size);
        sizes.collect::<BTreeSet<_>>().into_iter().collect()
    }

    /// The seq report of `system` at `size` and [`FIGURE_KBPS`].
    fn seq(&self, system: SystemKind, size: usize) -> Option<&PerfReport> {
        self.cell(system, size, FIGURE_KBPS, Parallelism::Seq)
    }

    /// The seq speedup of D2 over `base` at `size` and [`FIGURE_KBPS`].
    fn seq_speedup(&self, base: SystemKind, size: usize) -> Option<f64> {
        self.speedup(SystemKind::D2, base, size, FIGURE_KBPS, Parallelism::Seq)
    }

    /// A claim that `holds` of `value` at every measured size, judging the
    /// worst value by `worst`; missing if there is no size or no value.
    fn every_size(
        &self,
        value: impl Fn(usize) -> Option<f64>,
        worst: fn(f64, f64) -> f64,
        holds: impl Fn(f64) -> bool,
    ) -> Claim {
        let values: Option<Vec<f64>> = self.sizes().into_iter().map(value).collect();
        let values = values.unwrap_or_default();
        match values.iter().copied().reduce(worst) {
            Some(judged) => Claim::new(judged, values.into_iter().all(holds)),
            None => Claim::MISSING,
        }
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

/// Runs the sweep: the three systems × `cfg.sizes` × [`KBPS`] × seq and
/// para.
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
    for system in SYSTEMS {
        for &size in &cfg.sizes {
            for kbps in KBPS {
                for mode in MODES {
                    cell_keys.push((system, size, kbps, mode));
                }
            }
        }
    }

    // Only `Sync` data crosses into the workers — the shared sink is
    // single-threaded by design, so each worker records into a private
    // per-cell sink instead.
    let sink_enabled = cfg.sink.enabled();
    let seed = cfg.seed;
    let warmup_days = cfg.warmup_days;

    let outcomes = exec::parallel_map(&cell_keys, cfg.jobs, |_, &(system, size, kbps, mode)| {
        exec::traced(sink_enabled, |cell_sink| {
            let ccfg = ClusterConfig {
                nodes: size,
                replicas: REPLICAS,
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
            sim.run(trace, measure, mode)
        })
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

/// Mode label used by the Section 9 tables.
fn mode_label(mode: Parallelism) -> &'static str {
    match mode {
        Parallelism::Seq => "seq",
        Parallelism::Para => "para",
    }
}

/// One row per (system, size, mode) at [`FIGURE_KBPS`], valued by
/// `value`: the table Figures 9 and 13 share.
fn per_cell_table(
    suite: &SuiteResult,
    title: &str,
    column: &str,
    value: fn(&PerfReport) -> f64,
) -> String {
    let mut cells: Vec<(&CellKey, &PerfReport)> = suite
        .cells
        .iter()
        .filter(|((_, _, kbps, _), _)| *kbps == FIGURE_KBPS)
        .collect();
    cells.sort_by_key(|((system, size, _, mode), _)| (system.label(), *size, mode_label(*mode)));
    let rows: Vec<Vec<String>> = cells
        .into_iter()
        .map(|(&(system, size, _, mode), report)| {
            vec![
                system.label().to_string(),
                size.to_string(),
                mode_label(mode).to_string(),
                fmt(value(report)),
            ]
        })
        .collect();
    render_table(title, &["system", "nodes", "mode", column], &rows)
}

/// Figure 9: DHT lookup messages per node at [`FIGURE_KBPS`].
pub fn fig9(suite: &SuiteResult) -> String {
    per_cell_table(
        suite,
        "Figure 9: DHT lookup messages per node",
        "msgs/node",
        PerfReport::lookup_messages_per_node,
    )
}

/// Figure 9's claim. Paper: traditional lookup traffic grows with size
/// while D2's shrinks, to under a twentieth of traditional's at 1,000
/// nodes. Holds if D2 sends under half traditional's lookup messages at
/// every size (seq, [`FIGURE_KBPS`]); judges the largest ratio.
pub fn fig9_claim(suite: &SuiteResult) -> Claim {
    let ratio = |size| {
        let msgs = |system| suite.seq(system, size).map(|r| r.lookup_messages as f64);
        Some(msgs(SystemKind::D2)? / msgs(SystemKind::Traditional)?)
    };
    suite.every_size(ratio, f64::max, |r| r < 0.5)
}

/// Speedup of D2 over `baseline` at every measured size, bandwidth and
/// mode: the table Figures 10 and 11 share.
fn speedup_table(suite: &SuiteResult, baseline: SystemKind) -> String {
    let mut combos: Vec<(usize, u64, Parallelism)> = suite
        .cells
        .keys()
        .filter(|(s, _, _, _)| *s == SystemKind::D2)
        .map(|&(_, size, kbps, mode)| (size, kbps, mode))
        .collect();
    combos.sort_by_key(|&(s, k, m)| (s, k, mode_label(m)));
    let rows: Vec<Vec<String>> = combos
        .into_iter()
        .filter_map(|(size, kbps, mode)| {
            let speedup = suite.speedup(SystemKind::D2, baseline, size, kbps, mode)?;
            Some(vec![
                size.to_string(),
                kbps.to_string(),
                mode_label(mode).to_string(),
                fmt(speedup),
            ])
        })
        .collect();
    render_table(
        &format!("Speedup of D2 over {}", baseline.label()),
        &["nodes", "kbps", "mode", "speedup"],
        &rows,
    )
}

/// Figure 10: speedup of D2 over the traditional DHT.
pub fn fig10(suite: &SuiteResult) -> String {
    speedup_table(suite, SystemKind::Traditional)
}

/// Figure 10's claim. Paper: seq speedup over the traditional DHT grows
/// with size, to ≥ 1.9× at 1,000 nodes; para dips below 1 at 384 kbps
/// on small systems. Holds if the seq speedup exceeds 1.05 at every size;
/// judges the least.
pub fn fig10_claim(suite: &SuiteResult) -> Claim {
    let speedup = |size| suite.seq_speedup(SystemKind::Traditional, size);
    suite.every_size(speedup, f64::min, |s| s > 1.05)
}

/// Figure 11: speedup of D2 over the traditional-file DHT.
pub fn fig11(suite: &SuiteResult) -> String {
    speedup_table(suite, SystemKind::TraditionalFile)
}

/// Figure 11's claim. Paper: seq speedup over the traditional-file DHT is
/// comparable at 200 nodes and grows little with size. Holds if the seq
/// speedup exceeds 1 at every size; judges the least.
pub fn fig11_claim(suite: &SuiteResult) -> Claim {
    let speedup = |size| suite.seq_speedup(SystemKind::TraditionalFile, size);
    suite.every_size(speedup, f64::min, |s| s > 1.0)
}

/// Figure 12: per-user speedup over the traditional DHT at the largest
/// size and [`FIGURE_KBPS`], best user first.
pub fn fig12(suite: &SuiteResult) -> String {
    let size = suite.largest_size().unwrap_or(0);
    let mut rows = Vec::new();
    for mode in MODES {
        let Some(per_user) = suite.per_user_speedup(
            SystemKind::D2,
            SystemKind::Traditional,
            size,
            FIGURE_KBPS,
            mode,
        ) else {
            continue;
        };
        let mut users: Vec<(u32, f64)> = per_user.into_iter().collect();
        users.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (user, speedup) in users {
            rows.push(vec![
                mode_label(mode).to_string(),
                format!("u{user}"),
                fmt(speedup),
            ]);
        }
    }
    render_table(
        &format!("Figure 12: per-user speedup over traditional ({size} nodes, {FIGURE_KBPS} kbps)"),
        &["mode", "user", "speedup"],
        &rows,
    )
}

/// Figure 12's claim. Paper: about half the users beat the mean speedup
/// over the traditional DHT; 6 of 83 see small slowdowns. Holds if at
/// least half the users speed up at the largest size (seq,
/// [`FIGURE_KBPS`]); judges the share that do.
pub fn fig12_claim(suite: &SuiteResult) -> Claim {
    let size = suite.largest_size().unwrap_or(0);
    let per_user = suite.per_user_speedup(
        SystemKind::D2,
        SystemKind::Traditional,
        size,
        FIGURE_KBPS,
        Parallelism::Seq,
    );
    let users = per_user.unwrap_or_default();
    let faster = users.values().filter(|&&s| s > 1.0).count();
    let share = faster as f64 / users.len() as f64;
    Claim::new(share, !users.is_empty() && faster * 2 >= users.len())
}

/// Figure 13: mean lookup-cache miss rate at [`FIGURE_KBPS`].
pub fn fig13(suite: &SuiteResult) -> String {
    per_cell_table(
        suite,
        "Figure 13: mean lookup cache miss rate",
        "miss rate",
        PerfReport::cache_miss_rate,
    )
}

/// Figure 13's claim. Paper: D2's lookup-cache miss rate is about 13 %
/// (seq) at any size; traditional's is 47 % and up, growing with size.
/// Holds if D2's is below traditional's at every size (seq,
/// [`FIGURE_KBPS`]) and traditional's largest-size rate is at least 0.9×
/// its smallest-size one; judges the largest ratio of D2's to traditional's.
pub fn fig13_claim(suite: &SuiteResult) -> Claim {
    let miss = |system, size| suite.seq(system, size).map(PerfReport::cache_miss_rate);
    let ratio = |size| Some(miss(SystemKind::D2, size)? / miss(SystemKind::Traditional, size)?);
    let claim = suite.every_size(ratio, f64::max, |r| r < 1.0);
    let sizes = suite.sizes();
    let trad = |size: &usize| miss(SystemKind::Traditional, *size).unwrap_or(f64::NAN);
    let grows = (sizes.first().zip(sizes.last())).is_some_and(|(s, b)| trad(b) >= trad(s) * 0.9);
    Claim::new(claim.value, claim.holds && grows)
}

/// Fraction of `(baseline, d2)` latency pairs above the diagonal (faster
/// under D2).
fn fraction_above_diagonal(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs.iter().filter(|(base, d2)| base > d2).count() as f64 / pairs.len() as f64
}

/// Latency-weighted fraction above the diagonal: total baseline seconds
/// spent in groups where D2 wins (the "weight of the distribution" the
/// paper eyes).
pub fn weight_above_diagonal(pairs: &[(f64, f64)]) -> f64 {
    let total: f64 = pairs.iter().map(|(b, _)| b).sum();
    if total == 0.0 {
        return 0.0;
    }
    pairs
        .iter()
        .filter(|(b, d)| b > d)
        .map(|(b, _)| b)
        .sum::<f64>()
        / total
}

/// Among groups slower than `threshold` seconds under either system, the
/// fraction where D2 is at least as fast.
fn slow_tail_d2_wins(pairs: &[(f64, f64)], threshold: f64) -> f64 {
    let tail: Vec<&(f64, f64)> = pairs
        .iter()
        .filter(|(b, d)| *b > threshold || *d > threshold)
        .collect();
    if tail.is_empty() {
        return 1.0;
    }
    tail.iter().filter(|(b, d)| b >= d).count() as f64 / tail.len() as f64
}

/// Figures 14 and 15: summaries of the access-group latency scatter, D2
/// vs the traditional DHT (Fig. 14) and vs the traditional-file DHT
/// (Fig. 15), at the largest size and [`FIGURE_KBPS`].
pub fn fig14_15(suite: &SuiteResult) -> String {
    let size = suite.largest_size().unwrap_or(0);
    let mut rows = Vec::new();
    for baseline in [SystemKind::Traditional, SystemKind::TraditionalFile] {
        for mode in MODES {
            let pairs = suite.latency_pairs(SystemKind::D2, baseline, size, FIGURE_KBPS, mode);
            if pairs.is_empty() {
                continue;
            }
            rows.push(vec![
                baseline.label().to_string(),
                mode_label(mode).to_string(),
                pairs.len().to_string(),
                format!("{:.2}", fraction_above_diagonal(&pairs)),
                format!("{:.2}", weight_above_diagonal(&pairs)),
                format!("{:.2}", slow_tail_d2_wins(&pairs, 5.0)),
            ]);
        }
    }
    render_table(
        "Figures 14/15: access-group latency scatter summaries (D2 vs baseline)",
        &[
            "baseline",
            "mode",
            "groups",
            "frac>diag",
            "weight>diag",
            "slow-tail-wins",
        ],
        &rows,
    )
}

/// Figures 14/15's claim. Paper: the weight of the group-latency scatter
/// lies above the diagonal (D2 faster); no slow D2 group completes much
/// faster under the baselines. Holds if over half the traditional DHT's
/// latency lies in groups D2 finishes sooner, at the largest size (seq,
/// [`FIGURE_KBPS`]); judges that weight.
pub fn fig14_15_claim(suite: &SuiteResult) -> Claim {
    let size = suite.largest_size().unwrap_or(0);
    let pairs = suite.latency_pairs(
        SystemKind::D2,
        SystemKind::Traditional,
        size,
        FIGURE_KBPS,
        Parallelism::Seq,
    );
    let weight = weight_above_diagonal(&pairs);
    Claim::new(weight, weight > 0.5)
}
