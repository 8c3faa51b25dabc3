//! Command-line experiment runner: regenerate any of the paper's tables
//! and figures by name.
//!
//! ```text
//! d2-exp <experiment> [--scale quick|full] [--seed N] [--jobs N]
//!                     [--obs-out trace.jsonl]
//!
//! experiments:
//!   fig3 table2 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14-15
//!   table3 table4 fig16 fig17 churn redundancy all
//! ```
//!
//! `--jobs` sets the worker-thread count (default: available
//! parallelism). `all` fans the figure set out over the workers; a
//! single experiment parallelizes its internal sweep instead. Output —
//! stdout, the trace JSONL, the summary — is byte-identical at every
//! `--jobs` value: each simulation cell derives its own seed and buffers
//! its events privately, and everything is merged in canonical order
//! (see `d2_experiments::exec`).
//!
//! With `--obs-out`, every traced simulation records structured
//! [`d2_obs::TraceEvent`]s; after the experiments finish, the events are
//! written as JSONL to the given path and a percentile summary (hops,
//! lookup latency, cache hit rates, migration bytes) is printed.
//! Figures 9–15 read one Section 9 sweep, run once per invocation; its
//! events appear once, with the first of those figures printed. Table 2
//! and Figures 7 and 8 read each system's trial-0 availability
//! placement, also warmed once per invocation. Table 4 and Figures 16
//! and 17 read one Section 10 balance sweep, whose cells each run once,
//! when the first render that reads them asks: `all` runs nine, since
//! Table 4's Harvard row is Figure 16's D2 line. A cell's events appear
//! once, with the first of those artifacts printed that reads it.

use d2_experiments::avail_sweep::{self, Placements};
use d2_experiments::balance_sweep::{self, CellKey, Traces};
use d2_experiments::exec::{self, Shared};
use d2_experiments::perf_suite::{self, SuiteConfig, SuiteResult};
use d2_experiments::{churn, fig3, obs_summary, redundancy, table3, Scale};
use d2_obs::{to_jsonl, TraceEvent};
use d2_sim::FailureModel;
use d2_workload::{HarvardTrace, HpConfig, HpTrace, WebTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Shared experiment inputs. The three workload traces are generated
/// lazily on first use — `fig3` needs all three, but most experiments
/// touch only one, and `table3` none of HP — each from its own
/// seed-derived RNG, so the result is independent of which experiment
/// (or worker thread) asks first. The three sweeps are held the same
/// way: Figures 9–15 all read the one Section 9 suite, run once per
/// invocation; Table 2 and Figures 7 and 8 the one set of warmed
/// placements; and Table 4 and Figures 16 and 17 the one Section 10
/// balance sweep, each of whose cells runs once, when first read.
#[derive(Default)]
struct Ctx {
    scale: Scale,
    seed: u64,
    /// Record the shared results' trace events (`--obs-out`).
    trace: bool,
    /// Worker threads for the suite's cell fan-out.
    jobs: usize,
    harvard: OnceLock<HarvardTrace>,
    web: OnceLock<WebTrace>,
    hp: OnceLock<HpTrace>,
    suite: OnceLock<Shared<SuiteResult>>,
    placements: OnceLock<Placements>,
    balance: OnceLock<balance_sweep::Sweep>,
}

impl Traces for Ctx {
    fn harvard(&self) -> &HarvardTrace {
        self.harvard.get_or_init(|| {
            HarvardTrace::generate(&self.scale.harvard(), &mut StdRng::seed_from_u64(self.seed))
        })
    }

    fn web(&self) -> &WebTrace {
        self.web.get_or_init(|| {
            WebTrace::generate(&self.scale.web(), &mut StdRng::seed_from_u64(self.seed))
        })
    }
}

impl Ctx {
    fn hp(&self) -> &HpTrace {
        self.hp.get_or_init(|| {
            HpTrace::generate(
                &HpConfig {
                    apps: 8,
                    days: 1.0,
                    disk_blocks: 600_000,
                    ..HpConfig::default()
                },
                &mut StdRng::seed_from_u64(self.seed),
            )
        })
    }

    fn suite(&self) -> &Shared<SuiteResult> {
        self.suite.get_or_init(|| {
            Shared::run(self.trace, |sink| {
                let cfg = SuiteConfig {
                    sizes: self.scale.perf_sizes(),
                    measure_groups: 150,
                    seed: self.seed,
                    warmup_days: self.scale.warmup_days(),
                    sink: sink.clone(),
                    jobs: self.jobs,
                };
                perf_suite::run(self.harvard(), &cfg)
            })
        })
    }

    fn placements(&self) -> &Placements {
        self.placements.get_or_init(|| {
            Placements::warm(
                self.harvard(),
                &self.scale.cluster(self.seed),
                self.scale.warmup_days(),
                self.jobs,
            )
        })
    }

    fn failure_model(&self) -> FailureModel {
        FailureModel {
            duration_secs: self.harvard().config.days * 86_400.0,
            ..FailureModel::default()
        }
    }

    fn balance(&self) -> &balance_sweep::Sweep {
        self.balance.get_or_init(|| {
            let cfg = self.scale.cluster(self.seed);
            balance_sweep::Sweep::new(cfg, self.scale.balance_warmup(), self.trace)
        })
    }

    /// The trace events of the shared results experiment `name` reads
    /// that no earlier experiment printed has taken.
    fn shared_events(&self, name: &str) -> Vec<TraceEvent> {
        if section9(name).is_some() {
            self.suite().take_events()
        } else if let Some((_, cells)) = section10(name) {
            self.balance().take_events(&cells(self.balance()))
        } else {
            Vec::new()
        }
    }
}

/// The render of a Section 9 figure, by experiment name.
fn section9(name: &str) -> Option<fn(&SuiteResult) -> String> {
    Some(match name {
        "fig9" => perf_suite::fig9,
        "fig10" => perf_suite::fig10,
        "fig11" => perf_suite::fig11,
        "fig12" => perf_suite::fig12,
        "fig13" => perf_suite::fig13,
        "fig14-15" | "fig14" | "fig15" => perf_suite::fig14_15,
        _ => return None,
    })
}

/// A Section 10 render and the balance cells it reads.
type Section10 = (
    fn(&balance_sweep::Sweep, &dyn Traces, usize) -> String,
    fn(&balance_sweep::Sweep) -> Vec<CellKey>,
);

/// The render of a Section 10 artifact and its cells, by experiment name.
fn section10(name: &str) -> Option<Section10> {
    Some(match name {
        "table4" => (balance_sweep::table4, balance_sweep::Sweep::table4_cells),
        "fig16" => (balance_sweep::fig16, balance_sweep::Sweep::fig16_cells),
        "fig17" => (balance_sweep::fig17, balance_sweep::Sweep::fig17_cells),
        _ => return None,
    })
}

/// Runs one experiment, returning its rendered output and the trace
/// events it recorded (empty unless `ctx.trace` is set; those of a shared
/// result come from [`Ctx::shared_events`] instead). The events come back
/// as a batch instead of going straight to the shared sink so that
/// concurrent experiments can be merged in canonical order afterwards.
/// `jobs` bounds the experiment's *internal* fan-out. Returns `None` for
/// an unknown name.
fn run_one(name: &str, ctx: &Ctx, jobs: usize) -> Option<(String, Vec<TraceEvent>)> {
    if let Some(render) = section9(name) {
        return Some((render(&ctx.suite().value), Vec::new()));
    }
    if let Some((render, _)) = section10(name) {
        return Some((render(ctx.balance(), ctx, jobs), Vec::new()));
    }
    let (out, events) = exec::traced(ctx.trace, |sink| {
        Some(match name {
            "fig3" => fig3::run(ctx.harvard(), ctx.hp(), ctx.web(), 2 << 20).render(),
            "table2" => avail_sweep::table2(ctx.harvard(), ctx.placements()),
            "fig7" => avail_sweep::fig7(&ctx.placements().replay(
                ctx.harvard(),
                &ctx.failure_model(),
                avail_sweep::FIG7_FAILURE_SEED,
                ctx.scale.trials(),
                &avail_sweep::FIG7_INTERS,
                jobs,
            )),
            "fig8" => avail_sweep::fig8(&ctx.placements().replay(
                ctx.harvard(),
                &ctx.failure_model(),
                avail_sweep::FIG8_FAILURE_SEED,
                1,
                &[avail_sweep::FIG8_INTER],
                jobs,
            )),
            "table3" => table3::run(ctx.harvard(), ctx.web()).render(),
            "churn" => churn::run_traced(ctx.scale, ctx.seed, jobs, sink).render(),
            "redundancy" => redundancy::run_traced(ctx.scale, ctx.seed, jobs, sink).render(),
            _ => return None,
        })
    });
    Some((out?, events))
}

const ALL: [&str; 16] = [
    "fig3",
    "table2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14-15",
    "table3",
    "table4",
    "fig16",
    "fig17",
    "churn",
    "redundancy",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default();
    let mut seed = 42u64;
    let mut jobs = exec::available_jobs();
    let mut obs_out: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("quick") => Scale::Quick,
                    Some("full") => Scale::Full,
                    _ => {
                        eprintln!("--scale requires quick or full");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                seed = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--seed requires an unsigned integer");
                        std::process::exit(2);
                    }
                };
            }
            "--jobs" => {
                jobs = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--jobs requires a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--obs-out" => {
                obs_out = it.next().cloned();
                if obs_out.is_none() {
                    eprintln!("--obs-out requires a path");
                    std::process::exit(2);
                }
            }
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() {
        eprintln!(
            "usage: d2-exp <experiment>... [--scale quick|full] [--seed N] [--jobs N] [--obs-out trace.jsonl]"
        );
        eprintln!("experiments: {} all", ALL.join(" "));
        std::process::exit(2);
    }
    let trace = obs_out.is_some();
    let ctx = Ctx {
        scale,
        seed,
        trace,
        jobs,
        ..Ctx::default()
    };
    let ((), events) = exec::traced(trace, |sink| {
        // An experiment's events go to the sink as it prints; a shared
        // result's go once, with the first experiment printed that reads it.
        let record = |name: &str, events: Vec<TraceEvent>| {
            sink.extend(events);
            sink.extend(ctx.shared_events(name));
        };
        for name in &names {
            sink.record_with(|| TraceEvent::Mark {
                t_us: 0,
                label: format!("experiment {name}"),
            });
            if name == "all" {
                // Fan the figure set out over the workers; each experiment
                // runs its internal sweep sequentially, except the Section 9
                // suite, which runs over all the workers while the figures
                // reading it wait. A balance cell two renders read runs in
                // whichever asks first; the other waits for it. Output and
                // events are merged in the canonical `ALL` order, not
                // completion order.
                let outcomes = exec::parallel_map(&ALL, jobs, |_, &n| {
                    run_one(n, &ctx, 1).expect("ALL names are known")
                });
                for (n, (out, events)) in ALL.iter().zip(outcomes) {
                    println!("==> {n}");
                    println!("{out}");
                    record(n, events);
                }
            } else {
                match run_one(name, &ctx, jobs) {
                    Some((out, events)) => {
                        println!("{out}");
                        record(name, events);
                    }
                    None => {
                        eprintln!("unknown experiment: {name}");
                        std::process::exit(2);
                    }
                }
            }
        }
    });
    if let Some(path) = obs_out {
        if let Err(e) = std::fs::write(&path, to_jsonl(&events)) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("{}", obs_summary::render_summary(&events));
        println!("wrote {} trace events to {path}", events.len());
    }
}
