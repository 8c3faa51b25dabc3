//! Command line.
//!
//! ```text
//! d2-bench run    --workload W --seed S [--seconds N] [--smoke]
//! d2-bench trace  --workload W --seed S [--seconds N] [--smoke]
//! d2-bench repeat --workload W|all [--runs N] [--seed S] [--seconds N]
//! d2-bench --workload W --seed S --seconds N --trace 0|1
//! ```
//!
//! `run` sets the workload up, warms it, measures for `--seconds`,
//! checks every output and prints each end-to-end metric by name with
//! its unit. `trace` is the separate traced run: half the window
//! untraced, half traced, then the layer probes; it prints every
//! per-layer metric and writes the span log. The last form is what
//! `BENCHMARK.json`'s command receives. In every form the last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! `repeat` runs a workload N times on consecutive seeds and prints,
//! per end-to-end metric, the median, the quartiles, their distance as
//! a share of the median (the spread a bound must cover) and the
//! largest deviation from the median.

use crate::json::Json;
use crate::spec::{self, MetricSpec};
use crate::stats::{median, Report};
use crate::{live, procs, simwl};
use std::process::Command;
use std::time::Duration;

/// Default measured window, seconds; `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// A run must end on its own before this; the watchdog enforces it.
const WALL_CAP: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn usage() -> i32 {
    eprintln!(
        "usage: d2-bench [run|trace] --workload W --seed S [--seconds N] [--trace 0|1] [--smoke]\n\
         \x20      d2-bench repeat --workload W|all [--runs N] [--seed S] [--seconds N]\n\
         workloads: {}",
        spec::WORKLOADS.join(", ")
    );
    2
}

fn parse(mut argv: &[String]) -> Option<(String, Args)> {
    let mut cmd = "run".to_string();
    if let Some(first) = argv.first().filter(|a| !a.starts_with("--")) {
        cmd = first.clone();
        argv = &argv[1..];
    }
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: cmd == "trace",
        smoke: false,
        runs: 5,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)?
            }
            "--trace" => args.trace = matches!(value.as_str(), "1" | "true"),
            "--runs" => args.runs = value.parse().ok().filter(|n| *n >= 2)?,
            _ => return None,
        }
    }
    if args.smoke {
        args.seconds = args.seconds.min(1.0);
    }
    Some((cmd, args))
}

/// Runs one workload in this process and passes the verdict: a wrong
/// byte, a timeout, an error or a simulated pass that does not
/// reproduce pass 1 each count as failed, and more than 1 % failed is
/// an error, not a result.
fn run_once(args: &Args) -> Result<Report, String> {
    let mut report = match args.workload.as_str() {
        "sim_harvard32" => simwl::run(args.seed, args.seconds, args.trace, args.smoke)?,
        w => live::run(w, args.seed, args.seconds, args.trace, args.smoke)?,
    };
    report.set("fail_share", report.fail_share());
    report.correct = report.failed == 0;
    if report.fail_share() > 0.01 {
        return Err(format!(
            "{} of {} ops failed (more than 1 %)",
            report.failed, report.attempted
        ));
    }
    Ok(report)
}

/// The metrics the run's JSON line carries, then the rest.
fn specs_for(trace: bool) -> (&'static [MetricSpec], &'static [MetricSpec]) {
    if trace {
        (&spec::PER_LAYER, &spec::END_TO_END)
    } else {
        (&spec::END_TO_END, &spec::PER_LAYER)
    }
}

fn print_report(args: &Args, report: &Report) {
    let (specs, others) = specs_for(args.trace);
    println!(
        "workload {} seed {} window {} s ({}) on {} cores",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace {
            "traced run"
        } else {
            "untraced run"
        },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!(
        "attempted {} failed {} fail_share {:.6}",
        report.attempted,
        report.failed,
        report.fail_share()
    );
    print!("{}", report.render_table(specs, others));
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", report.render_json(specs));
}

/// `repeat`: N child runs per workload, summarised per metric.
fn repeat(args: &Args) -> i32 {
    let workloads: Vec<&str> = if args.workload == "all" {
        spec::WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("d2-bench: cannot find own executable: {e}");
            return 1;
        }
    };
    for workload in workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        for run in 0..args.runs {
            let seed = args.seed + run as u64;
            let out = Command::new(&exe)
                .args(["run", "--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output();
            let doc = out
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| s.lines().last().and_then(|l| Json::parse(l).ok()));
            let Some(doc) = doc else {
                eprintln!("d2-bench: run {run} of {workload} (seed {seed}) failed");
                return 1;
            };
            for (slot, m) in values.iter_mut().zip(&spec::END_TO_END) {
                let v = doc
                    .get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|v| v.get("value"));
                slot.push(v.and_then(Json::as_f64).unwrap_or(f64::NAN));
            }
            eprintln!("{workload}: run {}/{} done", run + 1, args.runs);
        }
        println!(
            "{workload}: {} runs, seeds {}..{}, window {} s",
            args.runs,
            args.seed,
            args.seed + args.runs as u64 - 1,
            args.seconds
        );
        println!(
            "  {:<16} {:>14} {:>14} {:>14} {:>10} {:>10}",
            "metric", "median", "q1", "q3", "spread", "max dev"
        );
        for (vals, m) in values.iter_mut().zip(&spec::END_TO_END) {
            let med = median(vals);
            let (q1, q3) = quartiles(vals);
            let max_dev = vals
                .iter()
                .map(|v| (v - med).abs() / med)
                .fold(0.0, f64::max);
            println!(
                "  {:<16} {:>14.4} {:>14.4} {:>14.4} {:>9.2}% {:>9.2}%  {}",
                m.name,
                med,
                q1,
                q3,
                (q3 - q1) / med * 100.0,
                max_dev * 100.0,
                m.unit
            );
        }
    }
    0
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which the
/// benchmark's acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4, 1-based, linearly interpolated and
        // clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n.saturating_sub(1).max(1));
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        let lo = v[j - 1];
        let hi = v[j.min(n - 1)];
        lo + (hi - lo) * delta
    };
    (at(1), at(3))
}

/// Entry point; returns the process exit status.
pub fn main(argv: Vec<String>) -> i32 {
    let Some((cmd, args)) = parse(&argv) else {
        return usage();
    };
    if cmd == "repeat" {
        if args.workload != "all" && !spec::is_workload(&args.workload) {
            return usage();
        }
        return repeat(&args);
    }
    if !matches!(cmd.as_str(), "run" | "trace") || !spec::is_workload(&args.workload) {
        return usage();
    }
    procs::install_guards(WALL_CAP);
    match run_once(&args) {
        Ok(report) => {
            print_report(&args, &report);
            0
        }
        Err(e) => {
            procs::reap_all();
            eprintln!("d2-bench: {} failed: {e}", args.workload);
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 5.0, 2.0, 4.0]);
        assert!(
            (q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12,
            "{q1} {q3}"
        );
    }

    #[test]
    fn driver_form_of_the_command_line_parses() {
        let argv: Vec<String> = "--workload many64_tasks --seed 9 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let (cmd, args) = parse(&argv).unwrap();
        assert_eq!(cmd, "run");
        assert!(args.trace && args.seed == 9 && args.seconds == 20.0);
        assert!(parse(&["--seconds".to_string()]).is_none());
        assert!(parse(&["run".to_string(), "--bogus".to_string(), "1".to_string()]).is_none());
    }
}
