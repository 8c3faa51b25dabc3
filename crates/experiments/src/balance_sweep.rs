//! The Section 10 balance sweep and Table 4, Figures 16 and 17, which
//! read it.
//!
//! A cell is one [`balance_sim::run_traced`]: one system replaying one
//! workload's churn stream after one warm-up. A [`Sweep`] runs a cell
//! the first time a render asks for it and keeps it, so a cell that two
//! renders read runs once. A render's cells fan out over
//! [`exec::parallel_map`] and come back in the order it names them, so a
//! sweep is the same at any worker count. Every figure is a render
//! function that names the cells it reads:
//!
//! | render | paper artifact | reads |
//! |---|---|---|
//! | [`table4`] | Table 4 — write vs migration traffic per day | [`Sweep::table4_cells`]: D2 on each workload at the sweep's warm-up |
//! | [`fig16`] | Fig. 16 — load imbalance over time (Harvard) | [`Sweep::fig16_cells`]: every system on Harvard at the sweep's warm-up |
//! | [`fig17`] | Fig. 17 — load imbalance over time (Webcache) | [`Sweep::fig17_cells`]: every system on Webcache at [`FIG17_WARMUP`] |
//!
//! Table 4's Harvard row is Figure 16's D2 line, so the three read nine
//! cells. Table 4's Webcache row warms for the sweep's warm-up, not
//! Figure 17's hour, so it is a cell of its own. Each render has its
//! paper claim beside it ([`table4_claim`], [`fig16_claim`],
//! [`fig17_claim`]), judged on the same cells.

use crate::balance_sim::{self, BalanceRun, BalanceSystem};
use crate::exec::{self, Shared};
use crate::report::{render_table, Claim};
use d2_core::ClusterConfig;
use d2_obs::TraceEvent;
use d2_sim::SimTime;
use d2_workload::{HarvardTrace, WebTrace};
use std::sync::OnceLock;

/// The workload a cell replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// The Harvard trace's file churn (Figure 16).
    Harvard,
    /// The Webcache trace's cache churn (Figure 17).
    Webcache,
}

impl Workload {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Harvard => "Harvard",
            Workload::Webcache => "Webcache",
        }
    }
}

/// One cell: workload, system, warm-up.
pub type CellKey = (Workload, BalanceSystem, SimTime);

/// All four systems, matching the paper's lines.
pub const ALL_SYSTEMS: [BalanceSystem; 4] = [
    BalanceSystem::TraditionalFile,
    BalanceSystem::Traditional,
    BalanceSystem::D2,
    BalanceSystem::TraditionalMerc,
];

/// Figure 17's warm-up. The cache starts empty, so there is little to
/// balance before the stream starts.
pub const FIG17_WARMUP: SimTime = SimTime::from_secs(3600);

/// The traces the cells replay. Each is asked for only when a cell that
/// replays it runs, so rendering one workload never builds the other.
pub trait Traces: Sync {
    /// The Harvard trace.
    fn harvard(&self) -> &HarvardTrace;
    /// The Webcache trace.
    fn web(&self) -> &WebTrace;
}

impl Traces for (&HarvardTrace, &WebTrace) {
    fn harvard(&self) -> &HarvardTrace {
        self.0
    }

    fn web(&self) -> &WebTrace {
        self.1
    }
}

/// The cells the renders read, each run at most once.
#[derive(Debug)]
pub struct Sweep {
    cfg: ClusterConfig,
    warmup: SimTime,
    trace: bool,
    /// Every cell a render reads, in render order, each once.
    keys: Vec<CellKey>,
    /// The run of each of `keys`, once it has run.
    cells: Vec<OnceLock<Shared<BalanceRun>>>,
}

impl Sweep {
    /// A sweep over `cfg`'s cluster whose Table 4 and Figure 16 cells warm
    /// for `warmup`. With `trace`, each cell keeps the events it records
    /// until [`Sweep::take_events`] takes them.
    pub fn new(cfg: ClusterConfig, warmup: SimTime, trace: bool) -> Sweep {
        let mut sweep = Sweep {
            cfg,
            warmup,
            trace,
            keys: Vec::new(),
            cells: Vec::new(),
        };
        let keys = [
            sweep.table4_cells(),
            sweep.fig16_cells(),
            sweep.fig17_cells(),
        ]
        .concat();
        for key in keys {
            if !sweep.keys.contains(&key) {
                sweep.keys.push(key);
                sweep.cells.push(OnceLock::new());
            }
        }
        sweep
    }

    /// The cells [`table4`] reads: D2 on each workload at the sweep's
    /// warm-up.
    pub fn table4_cells(&self) -> Vec<CellKey> {
        [Workload::Harvard, Workload::Webcache]
            .map(|workload| (workload, BalanceSystem::D2, self.warmup))
            .to_vec()
    }

    /// The cells [`fig16`] reads: every system on Harvard at the sweep's
    /// warm-up.
    pub fn fig16_cells(&self) -> Vec<CellKey> {
        ALL_SYSTEMS
            .map(|system| (Workload::Harvard, system, self.warmup))
            .to_vec()
    }

    /// The cells [`fig17`] reads: every system on Webcache at
    /// [`FIG17_WARMUP`].
    pub fn fig17_cells(&self) -> Vec<CellKey> {
        ALL_SYSTEMS
            .map(|system| (Workload::Webcache, system, FIG17_WARMUP))
            .to_vec()
    }

    fn cell(&self, key: &CellKey) -> &OnceLock<Shared<BalanceRun>> {
        let i = self.keys.iter().position(|k| k == key);
        &self.cells[i.expect("every key a render names is a cell of the sweep")]
    }

    /// The runs of `keys`, in that order. A cell that has not run runs
    /// now, over up to `jobs` workers; a cell another thread is running
    /// is waited for. Panics on a key that no render reads.
    pub fn runs(&self, keys: &[CellKey], traces: &dyn Traces, jobs: usize) -> Vec<&BalanceRun> {
        let cells = exec::parallel_map(keys, jobs, |_, key| {
            self.cell(key).get_or_init(|| self.run(key, traces))
        });
        cells.into_iter().map(|cell| &cell.value).collect()
    }

    fn run(
        &self,
        &(workload, system, warmup): &CellKey,
        traces: &dyn Traces,
    ) -> Shared<BalanceRun> {
        let stream = match workload {
            Workload::Harvard => balance_sim::harvard_churn(traces.harvard(), system.system_kind()),
            Workload::Webcache => balance_sim::webcache_churn(traces.web(), system.system_kind()),
        };
        Shared::run(self.trace, |sink| {
            balance_sim::run_traced(system, &self.cfg, &stream, warmup, sink)
        })
    }

    /// The events of those of `keys`' cells that have run, in key order;
    /// a cell's events go to the first caller that names it.
    pub fn take_events(&self, keys: &[CellKey]) -> Vec<TraceEvent> {
        let cells = keys.iter().filter_map(|key| self.cell(key).get());
        cells.flat_map(Shared::take_events).collect()
    }

    /// How many cells have run.
    pub fn cells_run(&self) -> usize {
        self.cells.iter().filter_map(OnceLock::get).count()
    }
}

/// Traffic per day in MB, and its total.
struct Mb {
    per_day: Vec<f64>,
    total: f64,
}

impl Mb {
    fn of(bytes_per_day: &[u64]) -> Mb {
        let per_day: Vec<f64> = bytes_per_day.iter().map(|&b| b as f64 / 1e6).collect();
        let total = per_day.iter().sum();
        Mb { per_day, total }
    }
}

/// One workload's write (`W`) and migration (`L`) traffic.
struct Traffic {
    workload: Workload,
    write: Mb,
    migration: Mb,
}

impl Traffic {
    /// Migration over writes, the `L/W` column.
    fn overhead_ratio(&self) -> f64 {
        self.migration.total / self.write.total.max(1e-9)
    }
}

fn table4_traffic(sweep: &Sweep, traces: &dyn Traces, jobs: usize) -> Vec<Traffic> {
    let keys = sweep.table4_cells();
    let runs = sweep.runs(&keys, traces, jobs);
    let traffic = |&(workload, _, _): &CellKey, run: &BalanceRun| Traffic {
        workload,
        write: Mb::of(&run.write_bytes_per_day),
        migration: Mb::of(&run.migration_bytes_per_day),
    };
    keys.iter()
        .zip(runs)
        .map(|(key, run)| traffic(key, run))
        .collect()
}

/// Table 4: mean per-day write traffic (`W`) and load-balancing
/// (migration) traffic (`L`) of D2 on both workloads, in MB.
pub fn table4(sweep: &Sweep, traces: &dyn Traces, jobs: usize) -> String {
    let workloads = table4_traffic(sweep, traces, jobs);
    let days = workloads.iter().map(|w| w.write.per_day.len()).max();
    let days = days.unwrap_or(0);
    let mut header: Vec<String> = vec!["traffic (MB)".into()];
    header.extend((1..=days).map(|d| format!("day{d}")));
    header.push("total".into());
    header.push("L/W".into());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut rows = Vec::new();
    for w in &workloads {
        let ratio = format!("{:.2}", w.overhead_ratio());
        for (kind, mb, last) in [("W", &w.write, String::new()), ("L", &w.migration, ratio)] {
            let mut row = vec![format!("{} {kind}", w.workload.label())];
            row.extend(mb.per_day.iter().map(|v| format!("{v:.0}")));
            row.resize(days + 1, String::new()); // pad short workloads
            row.push(format!("{:.0}", mb.total));
            row.push(last);
            rows.push(row);
        }
    }
    render_table(
        "Table 4: write traffic vs load-balancing traffic",
        &header_refs,
        &rows,
    )
}

/// Table 4's claim. Paper: migration totals about half the writes on
/// Harvard ("for every 2 bytes written, 1 byte is migrated") and 1.2× on
/// Webcache. Holds if each workload writes and migrates under 6× what it
/// writes; judges the larger `L/W`.
pub fn table4_claim(sweep: &Sweep, traces: &dyn Traces, jobs: usize) -> Claim {
    let workloads = table4_traffic(sweep, traces, jobs);
    let worst = workloads.iter().map(Traffic::overhead_ratio);
    let worst = worst.fold(0.0, f64::max);
    let writes = workloads.iter().all(|w| w.write.total > 0.0);
    Claim::new(worst, writes && worst < 6.0)
}

/// A down-sampled imbalance series per run: the table Figures 16 and 17
/// share.
fn imbalance_table(title: &str, runs: &[&BalanceRun]) -> String {
    let mut rows = Vec::new();
    for run in runs {
        for (t, v) in run.imbalance.downsample(12) {
            rows.push(vec![
                run.system.label().to_string(),
                format!("{:.1}h", t.as_secs_f64() / 3600.0),
                format!("{v:.3}"),
            ]);
        }
    }
    render_table(title, &["system", "time", "norm-stddev"], &rows)
}

/// Figure 16: storage load imbalance (normalized standard deviation of
/// node load) over time on Harvard, per system.
pub fn fig16(sweep: &Sweep, traces: &dyn Traces, jobs: usize) -> String {
    let runs = sweep.runs(&sweep.fig16_cells(), traces, jobs);
    imbalance_table("Figure 16: load imbalance over time (Harvard)", &runs)
}

/// Figure 16's claim. Paper: traditional-file balances worst (whole files
/// on single nodes); D2 tracks Traditional+Merc and sits at or below the
/// traditional DHT most of the time. Holds if, over the last 30 % of each
/// run, D2's mean imbalance is below traditional-file's, 4× Traditional+
/// Merc's plus 0.3, and 2.5× traditional's plus 0.5; judges D2's.
pub fn fig16_claim(sweep: &Sweep, traces: &dyn Traces, jobs: usize) -> Claim {
    let runs = sweep.runs(&sweep.fig16_cells(), traces, jobs);
    let tails: Vec<_> = runs.iter().map(|run| run.tail_imbalance(0.3)).collect();
    // In `ALL_SYSTEMS` order.
    let [Some(file), Some(trad), Some(d2), Some(merc)] = tails[..] else {
        return Claim::MISSING;
    };
    Claim::new(
        d2,
        d2 < file && d2 < merc * 4.0 + 0.3 && d2 < trad * 2.5 + 0.5,
    )
}

/// Figure 17: storage load imbalance over time on Webcache, per system.
pub fn fig17(sweep: &Sweep, traces: &dyn Traces, jobs: usize) -> String {
    let runs = sweep.runs(&sweep.fig17_cells(), traces, jobs);
    imbalance_table("Figure 17: load imbalance over time (Webcache)", &runs)
}

/// Figure 17's claim. Paper: volatile, with a large cold-start spike (the
/// cache starts empty, so the first writes land on few nodes); D2 sits
/// below the traditional DHT except for brief spikes. Holds if D2's mean
/// imbalance over the last quarter of its run is below the peak of its
/// first quarter (its first sample, on the empty cache, is 0) and below
/// traditional's last-quarter mean; judges D2's.
pub fn fig17_claim(sweep: &Sweep, traces: &dyn Traces, jobs: usize) -> Claim {
    let runs = sweep.runs(&sweep.fig17_cells(), traces, jobs);
    // In `ALL_SYSTEMS` order.
    let [_, trad, d2, _] = runs[..] else {
        return Claim::MISSING;
    };
    let (Some(late), Some(trad_late)) = (d2.tail_imbalance(0.25), trad.tail_imbalance(0.25)) else {
        return Claim::MISSING;
    };
    let pts = d2.imbalance.points();
    let first_quarter = &pts[..pts.len().div_ceil(4)];
    let spike = first_quarter.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    Claim::new(late, late < spike && late < trad_late)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One quick-scale sweep (Harvard seed 5, Webcache seed 6, a six-hour
    /// warm-up): Table 4 alone runs its two cells; Figure 16 adds three,
    /// reading Table 4's Harvard cell as its D2 line; Figure 17 adds four.
    /// Each claim holds on the cells its render read.
    #[test]
    fn one_sweep_runs_nine_cells_and_holds_the_section10_claims() {
        let harvard =
            HarvardTrace::generate(&Scale::Quick.harvard(), &mut StdRng::seed_from_u64(5));
        let web = WebTrace::generate(&Scale::Quick.web(), &mut StdRng::seed_from_u64(6));
        let traces = (&harvard, &web);
        let warmup = SimTime::from_secs(6 * 3600);
        let sweep = Sweep::new(Scale::Quick.cluster(3), warmup, false);
        let harvard_d2 = (Workload::Harvard, BalanceSystem::D2, warmup);
        assert!(sweep.table4_cells().contains(&harvard_d2));
        assert!(sweep.fig16_cells().contains(&harvard_d2));

        assert_eq!(table4(&sweep, &traces, 2).lines().count(), 3 + 4);
        assert_eq!(sweep.cells_run(), 2);
        let claim = table4_claim(&sweep, &traces, 2);
        assert!(claim.holds, "Table 4: {claim:?}");
        fig16(&sweep, &traces, 2);
        assert_eq!(sweep.cells_run(), 5);
        let claim = fig16_claim(&sweep, &traces, 2);
        assert!(claim.holds, "Figure 16: {claim:?}");
        fig17(&sweep, &traces, 2);
        assert_eq!(sweep.cells_run(), 9);
        let claim = fig17_claim(&sweep, &traces, 2);
        assert!(claim.holds, "Figure 17: {claim:?}");
    }
}
