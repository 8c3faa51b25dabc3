//! The executor's central contract: a parallel run is **byte-identical**
//! to the sequential run — same `PerfReport`s, same trace JSONL — at any
//! worker count. These tests pin that for the perf suite, the balance
//! sweep and the availability sweep, plus four (worker count, seed)
//! cases.

use d2_experiments::avail_sweep::{self, Placements, FIG7_FAILURE_SEED};
use d2_experiments::balance_sweep::{self, Sweep};
use d2_experiments::perf_suite::{self, SuiteConfig, SuiteResult};
use d2_experiments::Scale;
use d2_obs::{to_jsonl, SharedSink};
use d2_sim::{FailureModel, SimTime};
use d2_workload::{HarvardConfig, HarvardTrace, WebTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn harvard() -> HarvardTrace {
    HarvardTrace::generate(&Scale::Quick.harvard(), &mut StdRng::seed_from_u64(5))
}

fn web() -> WebTrace {
    WebTrace::generate(&Scale::Quick.web(), &mut StdRng::seed_from_u64(6))
}

/// Runs the perf suite at a given worker count, returning the result and
/// the trace serialized exactly as `--obs-out` would write it.
fn suite_at(trace: &HarvardTrace, jobs: usize, seed: u64) -> (SuiteResult, String) {
    let sink = SharedSink::memory(0);
    let cfg = SuiteConfig {
        sizes: vec![16],
        measure_groups: 40,
        seed,
        sink: sink.clone(),
        jobs,
        ..SuiteConfig::default()
    };
    let result = perf_suite::run(trace, &cfg);
    (result, to_jsonl(&sink.drain()))
}

#[test]
fn suite_reports_and_jsonl_identical_at_any_worker_count() {
    let trace = harvard();
    let (base, base_jsonl) = suite_at(&trace, 1, 11);
    assert!(!base.cells.is_empty());
    assert!(!base_jsonl.is_empty());
    for jobs in [2, 8] {
        let (par, par_jsonl) = suite_at(&trace, jobs, 11);
        assert_eq!(par.cells, base.cells, "reports differ at jobs={jobs}");
        assert_eq!(par.groups.len(), base.groups.len());
        assert_eq!(par_jsonl, base_jsonl, "trace differs at jobs={jobs}");
    }
}

/// The balance sweep runs the same nine cells, renders the same three
/// artifacts and records the same trace at one worker and at three. Each
/// render takes the events of the cells it reads first, as `d2-exp`
/// does, so Figure 16's D2 cell, which Table 4 read, is traced once.
#[test]
fn balance_sweep_identical_at_any_worker_count() {
    let (h, w) = (harvard(), web());
    let traces = (&h, &w);
    let run_at = |jobs: usize| {
        let sweep = Sweep::new(Scale::Quick.cluster(3), SimTime::from_secs(6 * 3600), true);
        let (mut renders, mut events) = (Vec::new(), Vec::new());
        for (render, cells) in [
            (
                balance_sweep::table4 as fn(_, _, _) -> _,
                sweep.table4_cells(),
            ),
            (balance_sweep::fig16, sweep.fig16_cells()),
            (balance_sweep::fig17, sweep.fig17_cells()),
        ] {
            renders.push(render(&sweep, &traces, jobs));
            events.extend(sweep.take_events(&cells));
        }
        assert_eq!(sweep.cells_run(), 9);
        let keys = [
            sweep.table4_cells(),
            sweep.fig16_cells(),
            sweep.fig17_cells(),
        ]
        .concat();
        let cells: Vec<_> = sweep.runs(&keys, &traces, 1).into_iter().cloned().collect();
        (cells, renders, to_jsonl(&events))
    };
    let (cells, renders, jsonl) = run_at(1);
    let marks = jsonl.matches("balance system=").count();
    assert_eq!(marks, 9, "one mark per cell: the shared cell traced once");
    assert_eq!(run_at(3), (cells, renders, jsonl));
}

/// Reports and traces are invariant to the worker count — and hence to
/// completion order, since with `jobs > 1` the cells finish in whatever
/// order the scheduler produces. Four cases, no two alike in worker
/// count or seed; a failure prints its case.
#[test]
fn suite_invariant_to_worker_count() {
    let trace = harvard();
    for (case, (jobs, seed)) in [(3, 20), (4, 21), (5, 22), (6, 23)].into_iter().enumerate() {
        let (base, base_jsonl) = suite_at(&trace, 1, seed);
        let (par, par_jsonl) = suite_at(&trace, jobs, seed);
        let at = format!("case {case}: jobs {jobs}, seed {seed}");
        assert_eq!(par.cells, base.cells, "{at}");
        assert_eq!(par_jsonl, base_jsonl, "{at}");
    }
}

/// The availability sweep warms the same placements and replays the same
/// cells at one worker and at three, trial 1's warmed inside its cells.
/// A quarter-day trace under a harsh failure model keeps it quick while
/// tasks still fail.
#[test]
fn availability_sweep_identical_at_any_worker_count() {
    let hcfg = HarvardConfig {
        users: 6,
        days: 0.25,
        initial_bytes: 8 << 20,
        reads_per_user_hour: 40.0,
        ..HarvardConfig::default()
    };
    let trace = HarvardTrace::generate(&hcfg, &mut StdRng::seed_from_u64(5));
    let cfg = Scale::Quick.cluster(3);
    let model = FailureModel {
        mttf_secs: 0.25 * 86_400.0,
        mttr_secs: 2.0 * 3600.0,
        correlated_events: 2.0,
        correlated_fraction: 0.25,
        correlated_mttr_secs: 3600.0,
        duration_secs: hcfg.days * 86_400.0,
    };
    let inters = [SimTime::from_secs(5)];
    let run_at = |jobs: usize| {
        let placements = Placements::warm(&trace, &cfg, 0.05, jobs);
        let sweep = placements.replay(&trace, &model, FIG7_FAILURE_SEED, 2, &inters, jobs);
        (avail_sweep::table2(&trace, &placements), sweep)
    };
    let (table, sweep) = run_at(1);
    assert_eq!(
        sweep.cells.len(),
        2 * 3 * inters.len(),
        "two trials of three systems"
    );
    assert!(sweep.cells.values().any(|r| r.failed_tasks > 0));
    assert!(table.lines().count() > 3);
    // Figure 7 renders a row per system at 5 s, the one threshold of its
    // three replayed here; Figure 8 a tally per system.
    assert_eq!(avail_sweep::fig7(&sweep).lines().count(), 3 + 3);
    assert_eq!(
        avail_sweep::fig8(&sweep).matches("affected users").count(),
        3
    );
    assert_eq!(run_at(3), (table, sweep));
}
