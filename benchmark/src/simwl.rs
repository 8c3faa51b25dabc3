//! `sim_harvard32`: the in-process oracle stack, no sockets.
//!
//! Replays the paper's §9.3 comparison on the simulator that produces
//! the figures: a Harvard-like trace, `PerfSim` for D2 and for the
//! traditional DHT at 32 nodes and 4 replicas, caches warmed from the
//! trace prefix (all of that is set-up), then the last 200 access
//! groups in Seq and in Para on a fresh clone per pass until the window
//! ends. An op is one simulated block fetch and only time inside
//! `PerfSim::run` counts. The workload exercises `ring::Router`,
//! `store::LookupCache`/`NodeStore`, `types::encoding` and `core` —
//! layers the live path lacks today — and bypasses `wire`/`net`, so it
//! is the "no change predicted" control for transport work.

use crate::probes;
use crate::procs;
use crate::spans::{SpanLog, NO_PARENT};
use crate::stats::{median, quantile, Report};
use d2_core::{ClusterConfig, Parallelism, PerfConfig, PerfReport, PerfSim, SystemKind};
use d2_experiments::perf_suite::SuiteResult;
use d2_experiments::{exec, Scale};
use d2_obs::SharedSink;
use d2_sim::SimTime;
use d2_types::BlockName;
use d2_workload::{split_access_groups, HarvardTrace, Task};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

const NODES: usize = 32;
const REPLICAS: usize = 4;
const KBPS: u64 = 1500;
const MEASURE_GROUPS: usize = 200;
/// Trace and ring layout are fixed reference inputs (the year of the
/// paper as their seed), as the repository's experiments fix theirs: a
/// different trace or layout changes how much work one fetch is (the
/// replay ran 36 % slower on one layout than on another), so neither
/// may differ between runs that are compared.
const REFERENCE_SEED: u64 = 2007;
const SYSTEMS: [SystemKind; 2] = [SystemKind::D2, SystemKind::Traditional];
const MODES: [Parallelism; 2] = [Parallelism::Seq, Parallelism::Para];

/// The trace and the two warmed simulators.
struct Testbed {
    trace: HarvardTrace,
    /// The measured groups, in this run's replay order.
    measure: Vec<Task>,
    sims: Vec<PerfSim>,
    build_s: f64,
}

/// Builds the testbed. Trace and ring layout are fixed reference
/// inputs; `seed` picks where in the measured groups the replay starts
/// (they are rotated by `seed mod len`), which changes cache and
/// connection state along the way but not the set of blocks fetched.
fn set_up(seed: u64, smoke: bool) -> Testbed {
    let mut cfg = Scale::Quick.harvard();
    if smoke {
        cfg.users = 3;
        cfg.days = 0.25;
        cfg.initial_bytes = 4 << 20;
    }
    let trace = HarvardTrace::generate(&cfg, &mut StdRng::seed_from_u64(REFERENCE_SEED));
    let mut groups = split_access_groups(&trace.accesses, SimTime::from_secs(1));
    let mut measure = groups.split_off(groups.len().saturating_sub(MEASURE_GROUPS));
    if !measure.is_empty() {
        let k = (seed % measure.len() as u64) as usize;
        measure.rotate_left(k);
    }
    // One ring layout for both systems, so the comparison stays paired.
    let ccfg = ClusterConfig {
        nodes: NODES,
        replicas: REPLICAS,
        seed: exec::derive_seed(REFERENCE_SEED, &[NODES as u64, KBPS]),
        ..ClusterConfig::default()
    };
    let mut build_s = 0.0;
    let sims = SYSTEMS
        .iter()
        .map(|&system| {
            let t0 = Instant::now();
            let mut sim = PerfSim::build(
                system,
                &ccfg,
                &PerfConfig::default(),
                &trace,
                Scale::Quick.warmup_days(),
            );
            if system == SystemKind::D2 {
                build_s = t0.elapsed().as_secs_f64();
            }
            sim.warm_caches(&trace, &groups);
            sim.set_access_kbps(KBPS);
            sim
        })
        .collect();
    Testbed {
        trace,
        measure,
        sims,
        build_s,
    }
}

/// One pass: each system in each mode on a fresh clone. Returns the
/// four reports, the seconds spent inside `PerfSim::run`, and the
/// milliseconds one clone took.
fn pass(
    bed: &Testbed,
    traced: bool,
    log: &mut SpanLog,
    pass_no: u64,
) -> (Vec<PerfReport>, f64, f64) {
    let mut reports = Vec::with_capacity(4);
    let (mut busy_s, mut clone_ms) = (0.0, 0.0);
    let root = log.begin("pass", NO_PARENT, pass_no);
    for base in &bed.sims {
        for mode in MODES {
            let t0 = Instant::now();
            let mut sim = log.within("core.clone", root, pass_no, || base.clone());
            clone_ms = t0.elapsed().as_secs_f64() * 1000.0;
            if traced {
                // The program's own event trace, as a traced op's
                // flight-recorder spans are on the live workloads.
                sim.set_trace_sink(SharedSink::memory(1 << 16));
            }
            let t0 = Instant::now();
            let report = log.within("core.run", root, pass_no, || {
                sim.run(&bed.trace, &bed.measure, mode)
            });
            busy_s += t0.elapsed().as_secs_f64();
            reports.push(report);
        }
    }
    log.end(root);
    (reports, busy_s, clone_ms)
}

fn fetches(reports: &[PerfReport]) -> u64 {
    reports.iter().map(|r| r.cache_hits + r.cache_misses).sum()
}

/// Raw samples of one measured window.
#[derive(Default)]
struct Window {
    ops: u64,
    busy_s: f64,
    per_fetch_us: Vec<f64>,
    clone_ms: Vec<f64>,
    mismatched: u64,
}

/// Wall time per simulated fetch that a set of passes is read at: the
/// pass at the faster quartile. The replay is one CPU-bound thread that
/// does identical work every pass, so all a pass can do is run late,
/// when the host takes the core away, which it does for seconds at a
/// time (every pass of one instance 55 % slow, the next instance back to
/// normal); the faster quartile is the replay's own speed as long as a
/// quarter of the window was left alone.
fn fast_quartile(passes: &mut [f64]) -> f64 {
    quantile(passes, 0.25)
}

impl Window {
    /// Simulated fetches per second, see [`fast_quartile`].
    fn ops_per_s(&mut self) -> f64 {
        1e6 / fast_quartile(&mut self.per_fetch_us).max(1e-9)
    }
}

fn run_window(
    bed: &Testbed,
    seconds: f64,
    traced: bool,
    first: &[PerfReport],
    log: &mut SpanLog,
) -> Window {
    let mut w = Window::default();
    let t0 = Instant::now();
    let mut pass_no = 1;
    while t0.elapsed().as_secs_f64() < seconds {
        let (reports, busy_s, clone_ms) = pass(bed, traced, log, pass_no);
        let ops = fetches(&reports);
        // The simulation is deterministic: every pass must reproduce
        // pass 1 exactly. A pass that does not is counted as failed.
        let same = reports.iter().zip(first).all(|(a, b)| {
            a.group_latencies == b.group_latencies && a.lookup_messages == b.lookup_messages
        });
        if !same {
            w.mismatched += ops;
        }
        w.ops += ops;
        w.busy_s += busy_s;
        w.per_fetch_us.push(busy_s * 1e6 / ops.max(1) as f64);
        w.clone_ms.push(clone_ms);
        pass_no += 1;
    }
    w
}

/// The paper's yardsticks, exact for a given seed, from pass 1.
fn yardsticks(bed: &Testbed, first: &[PerfReport], report: &mut Report) -> Result<(), String> {
    // §9.3's speedup through the repository's own formula.
    let mut cells = HashMap::new();
    let mut it = first.iter();
    for system in SYSTEMS {
        for mode in MODES {
            cells.insert(
                (system, NODES, KBPS, mode),
                it.next().expect("four cells").clone(),
            );
        }
    }
    let suite = SuiteResult {
        cells,
        groups: bed.measure.clone(),
    };
    let speedup = |mode| {
        suite
            .speedup(SystemKind::D2, SystemKind::Traditional, NODES, KBPS, mode)
            .filter(|s| s.is_finite() && *s > 0.0)
    };
    let (Some(seq), Some(para)) = (speedup(Parallelism::Seq), speedup(Parallelism::Para)) else {
        return Err("paper speedup is undefined for this trace".to_string());
    };
    report.set("paper_speedup_seq", seq);
    report.set("paper_speedup_para", para);
    let (d2_seq, trad_seq) = (&first[0], &first[2]);
    report.set(
        "core.lookup_msgs_per_node_d2",
        d2_seq.lookup_messages_per_node(),
    );
    report.set(
        "core.lookup_msgs_per_node_trad",
        trad_seq.lookup_messages_per_node(),
    );
    report.set("core.cache_miss_rate_d2", d2_seq.cache_miss_rate());
    let hops = &d2_seq.hop_hist;
    report.set_n(
        "core.sim_hops_p50",
        hops.quantile(0.5) as f64,
        hops.count() as usize,
    );
    Ok(())
}

/// Testbed instances an untraced run measures on, an equal share of
/// the window each, their passes pooled: hash seeds and heap layout
/// differ between builds and move the replay's speed by ±6 %, and
/// `setup_s` needs its samples. A set-up takes under a second.
const INSTANCES: usize = 6;

/// Runs the workload once; `trace` selects the traced run.
pub fn run(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let mut log = SpanLog::new(if trace { 1 << 16 } else { 0 });
    let instances = if smoke || trace { 1 } else { INSTANCES };
    let window_s = seconds / instances as f64;
    let (mut setup_s, mut rss, mut per_fetch_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..instances {
        drop(last.take());
        let t0 = Instant::now();
        let bed = set_up(seed, smoke);
        setup_s.push(t0.elapsed().as_secs_f64());
        if bed.measure.is_empty() {
            return Err("the generated trace has no access groups to measure".to_string());
        }
        // Pass 1 is the warm-up, the reference every later pass must
        // reproduce, and the source of the exact yardsticks.
        let (first, _, _) = pass(&bed, false, &mut log, 0);
        let cpu0 = procs::cpu_ms(std::process::id());
        let untraced_s = if trace { window_s / 2.0 } else { window_s };
        let w = run_window(&bed, untraced_s, false, &first, &mut log);
        report.attempted += w.ops;
        report.failed += w.mismatched;
        per_fetch_us.extend_from_slice(&w.per_fetch_us);
        rss.push(procs::vm_hwm_mb(std::process::id()));
        last = Some((bed, first, w, cpu0));
    }
    let (bed, first, mut untraced, cpu0) = last.expect("at least one instance");
    // Both figures are the same pass's, over all instances.
    let per_fetch = fast_quartile(&mut per_fetch_us);
    report.set_n("ops_per_s", 1e6 / per_fetch.max(1e-9), per_fetch_us.len());
    report.set_n("op_p50_us", per_fetch, per_fetch_us.len());
    // The process's peak only grows; the first instance's reading is
    // the one no earlier testbed has inflated.
    report.set("rss_peak_mb", rss[0]);
    report.set_n("setup_s", median(&mut setup_s), instances);
    yardsticks(&bed, &first, &mut report)?;

    if trace {
        log.set_enabled(true);
        let mut traced = run_window(&bed, window_s / 2.0, true, &first, &mut log);
        let cpu_ms = procs::cpu_ms(std::process::id()) - cpu0;
        report.attempted += traced.ops;
        report.failed += traced.mismatched;
        report.set("core.perfsim_build_s", bed.build_s);
        let passes = untraced.clone_ms.len();
        report.set_n(
            "core.perfsim_clone_ms",
            median(&mut untraced.clone_ms),
            passes,
        );
        report.set_n("core.fetch_ns", 1e9 / untraced.ops_per_s(), passes);
        let window_ops = (untraced.ops + traced.ops).max(1) as f64;
        report.set("proc.client_cpu_ms_per_kop", cpu_ms / window_ops * 1000.0);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        report.set("proc.cpu_busy_share", cpu_ms / (seconds * 1000.0 * cores));
        let (plain, with_trace) = (untraced.ops_per_s(), traced.ops_per_s());
        report.set_n("trace.untraced_ops_per_s", plain, passes);
        report.set_n(
            "trace.traced_ops_per_s",
            with_trace,
            traced.per_fetch_us.len(),
        );
        report.set("trace_overhead_pct", (plain - with_trace) / plain * 100.0);
        report.set("trace.window_s", traced.busy_s);

        let names: Vec<BlockName> = bed
            .measure
            .iter()
            .flat_map(|g| g.indices.iter())
            .flat_map(|&i| bed.trace.namespace.blocks_of_access(&bed.trace.accesses[i]))
            .take(4096)
            .collect();
        drop(bed);
        probes::offline(&names, &mut log, &mut report);
        report.set("trace.spans", log.len() as f64);
        let dir = procs::run_dir("sim_harvard32").map_err(|e| format!("run dir: {e}"))?;
        let path = dir.join("trace.jsonl");
        log.write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        report.notes.push(format!("span log: {}", path.display()));
    }

    Ok(report)
}
