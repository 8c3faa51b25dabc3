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
//! placement, also warmed once per invocation.

use d2_experiments::avail_sweep::{self, Placements};
use d2_experiments::fig16_17::ALL_SYSTEMS;
use d2_experiments::perf_suite::{self, SuiteConfig, SuiteResult};
use d2_experiments::{churn, exec, fig16_17, fig3, obs_summary, redundancy, table3, table4, Scale};
use d2_obs::{to_jsonl, SharedSink, TraceEvent};
use d2_sim::{FailureModel, SimTime};
use d2_workload::{HarvardTrace, HpConfig, HpTrace, WebTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, OnceLock};

/// Shared experiment inputs. The three workload traces are generated
/// lazily on first use — `fig3` needs all three, but most experiments
/// touch only one, and `table3` none of HP — each from its own
/// seed-derived RNG, so the result is independent of which experiment
/// (or worker thread) asks first. The Section 9 suite is held the same
/// way: Figures 9–15 all read the one sweep, run once per invocation,
/// and Table 2 and Figures 7 and 8 the one set of warmed placements.
struct Ctx {
    scale: Scale,
    seed: u64,
    /// Record the suite's trace events (`--obs-out`).
    trace: bool,
    /// Worker threads for the suite's cell fan-out.
    jobs: usize,
    harvard: OnceLock<HarvardTrace>,
    web: OnceLock<WebTrace>,
    hp: OnceLock<HpTrace>,
    suite: OnceLock<SuiteResult>,
    placements: OnceLock<Placements>,
    /// The suite's trace events, until the first Section 9 figure printed
    /// takes them.
    suite_events: Mutex<Vec<TraceEvent>>,
}

impl Ctx {
    fn new(scale: Scale, seed: u64, trace: bool, jobs: usize) -> Ctx {
        Ctx {
            scale,
            seed,
            trace,
            jobs,
            harvard: OnceLock::new(),
            web: OnceLock::new(),
            hp: OnceLock::new(),
            suite: OnceLock::new(),
            placements: OnceLock::new(),
            suite_events: Mutex::new(Vec::new()),
        }
    }

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

    fn suite(&self) -> &SuiteResult {
        self.suite.get_or_init(|| {
            let sink = if self.trace {
                SharedSink::memory(0)
            } else {
                SharedSink::null()
            };
            let cfg = SuiteConfig {
                sizes: self.scale.perf_sizes(),
                measure_groups: 150,
                seed: self.seed,
                warmup_days: self.scale.warmup_days(),
                sink: sink.clone(),
                jobs: self.jobs,
            };
            let suite = perf_suite::run(self.harvard(), &cfg);
            *self
                .suite_events
                .lock()
                .expect("no thread panics holding the suite events") = sink.drain();
            suite
        })
    }

    /// The suite's trace events, once: later calls return none.
    fn take_suite_events(&self) -> Vec<TraceEvent> {
        std::mem::take(
            &mut *self
                .suite_events
                .lock()
                .expect("no thread panics holding the suite events"),
        )
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

    fn balance_warmup(&self) -> SimTime {
        SimTime::from_secs_f64(self.scale.warmup_days() * 86_400.0 * 2.0)
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

/// Runs one experiment, returning its rendered output and the trace
/// events it recorded (empty unless `trace` is set; a Section 9 figure's
/// come from [`Ctx::take_suite_events`] instead). The events come back
/// as a batch instead of going straight to the shared sink so that
/// concurrent experiments can be merged in canonical order afterwards.
/// `jobs` bounds the experiment's *internal* fan-out. Returns `None` for
/// an unknown name.
fn run_one(name: &str, ctx: &Ctx, trace: bool, jobs: usize) -> Option<(String, Vec<TraceEvent>)> {
    if let Some(render) = section9(name) {
        return Some((render(ctx.suite()), Vec::new()));
    }
    let sink = if trace {
        SharedSink::memory(0)
    } else {
        SharedSink::null()
    };
    let cfg = ctx.scale.cluster(ctx.seed);
    let out = match name {
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
        "churn" => churn::run_traced(ctx.scale, ctx.seed, jobs, &sink).render(),
        "redundancy" => redundancy::run_traced(ctx.scale, ctx.seed, jobs, &sink).render(),
        "table4" => table4::run_traced(
            ctx.harvard(),
            ctx.web(),
            &cfg,
            ctx.balance_warmup(),
            &sink,
            jobs,
        )
        .render(),
        "fig16" => fig16_17::fig16_traced(
            ctx.harvard(),
            &cfg,
            &ALL_SYSTEMS,
            ctx.balance_warmup(),
            &sink,
            jobs,
        )
        .render(),
        "fig17" => fig16_17::fig17_traced(
            ctx.web(),
            &cfg,
            &ALL_SYSTEMS,
            SimTime::from_secs(3600),
            &sink,
            jobs,
        )
        .render(),
        _ => return None,
    };
    Some((out, sink.drain()))
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
    let mut scale = Scale::Quick;
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
    let sink = if trace {
        SharedSink::memory(0)
    } else {
        SharedSink::null()
    };
    let ctx = Ctx::new(scale, seed, trace, jobs);
    // An experiment's events go to the sink as it prints; the Section 9
    // suite's go once, with the first Section 9 figure printed.
    let record = |name: &str, events: Vec<TraceEvent>| {
        sink.extend(events);
        if section9(name).is_some() {
            sink.extend(ctx.take_suite_events());
        }
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
            // reading it wait. Output and events are merged in the
            // canonical `ALL` order, not completion order.
            let outcomes = exec::parallel_map(&ALL, jobs, |_, &n| {
                run_one(n, &ctx, trace, 1).expect("ALL names are known")
            });
            for (n, (out, events)) in ALL.iter().zip(outcomes) {
                println!("==> {n}");
                println!("{out}");
                record(n, events);
            }
        } else {
            match run_one(name, &ctx, trace, jobs) {
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
    if let Some(path) = obs_out {
        let events = sink.drain();
        if let Err(e) = std::fs::write(&path, to_jsonl(&events)) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("{}", obs_summary::render_summary(&events));
        println!("wrote {} trace events to {path}", events.len());
    }
}
