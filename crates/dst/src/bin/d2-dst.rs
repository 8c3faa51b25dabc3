//! Command-line front-end for the deterministic simulation harness.
//!
//! ```text
//! d2-dst sweep  [--world W] [--seeds N] [--seed0 S] [--nodes N]
//!               [--replicas R | --ec K/N] [--repair-budget BPS]
//!               [--puts P] [--jobs J]
//!               [--bug-head-only | --bug-ack-on-send | --bug-no-anchor]
//!               [--json PATH] [-v]
//! d2-dst replay --seed S [--world W] [--nodes N]
//!               [--replicas R | --ec K/N] [--repair-budget BPS] [--puts P]
//!               [--bug-head-only | --bug-ack-on-send | --bug-no-anchor]
//!               [--trace PATH] [-v]
//! ```
//!
//! `--world` picks the adversarial regime: `classic` (crash / restart /
//! single-node isolation — the default), `partition` (multi-node
//! netsplits plus one-way silent link cuts), `gray` (slow-and-lossy
//! nodes with no crash signal), `wan` (a King-style per-pair latency
//! matrix, ≈ 90 ms mean RTT), `skew` (per-node clock offset and drift),
//! or `mixed` (per-seed choice among all of them).
//!
//! `--ec K/N` runs every node in erasure-coded fragment mode (any `K`
//! of `N` fragments reconstruct a block) instead of whole-block
//! replication at `--replicas R` (default 3; `--ec` wins if both are
//! given); `--repair-budget` caps each node's lazy-repair traffic in
//! bytes of virtual time per second (`0` = unlimited).
//!
//! A `--bug-*` flag re-introduces a known seeded bug (one per run; the
//! last given wins) to validate that the right regime catches it:
//! `--bug-head-only` is the historical dead-tail successor-probing bug
//! (classic worlds catch it), `--bug-ack-on-send` acks puts on forward
//! *send* instead of on acknowledgment (only worlds with silent loss —
//! partition cuts — catch it), and `--bug-no-anchor` disables the
//! seed-anchored ring remerge (only multi-node netsplits catch it).
//!
//! `sweep` runs one deterministic world per seed and exits nonzero if
//! any fails; the first failing seed is shrunk to a minimal fault plan
//! and printed with the replay command that reproduces it. `replay`
//! runs a single seed and can export its full schedule trace as JSONL.
//!
//! See EXPERIMENTS.md ("Replaying a failing schedule") for a
//! walkthrough.

use d2_dst::{
    run_one, shrink, sweep, ClientWorkload, InjectedBug, Overrides, RedundancyPolicy, Scenario,
    WorldRegime,
};
use d2_obs::trace::{to_jsonl, TraceEvent};
use d2_obs::{render_span_tree, SpanRecord};
use std::io::Write;

/// Runs a shrink pays for itself well below this many worlds.
const SHRINK_BUDGET: usize = 300;

fn usage() -> ! {
    eprintln!(
        "usage: d2-dst sweep  [--world classic|partition|gray|wan|skew|mixed]\n\
         \x20                  [--seeds N] [--seed0 S] [--nodes N] [--replicas R | --ec K/N]\n\
         \x20                  [--repair-budget BPS] [--puts P] [--jobs J]\n\
         \x20                  [--bug-head-only | --bug-ack-on-send | --bug-no-anchor]\n\
         \x20                  [--json PATH] [-v]\n\
         \x20      d2-dst replay --seed S [--world W] [--nodes N] [--replicas R | --ec K/N]\n\
         \x20                  [--repair-budget BPS] [--puts P]\n\
         \x20                  [--bug-head-only | --bug-ack-on-send | --bug-no-anchor]\n\
         \x20                  [--trace PATH] [-v]"
    );
    std::process::exit(2);
}

struct Args {
    scenario: Scenario,
    seeds: u64,
    seed0: u64,
    seed: Option<u64>,
    jobs: usize,
    json: Option<String>,
    trace: Option<String>,
    verbose: bool,
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag} wants a number, got {s:?}");
        std::process::exit(2);
    })
}

/// Parses `--ec K/N` (e.g. `4/8`): K data fragments, N total, K < N.
fn parse_ec(s: &str) -> RedundancyPolicy {
    let parts: Vec<&str> = s.split('/').collect();
    if let [k, n] = parts[..] {
        if let (Ok(k), Ok(n)) = (k.parse::<usize>(), n.parse::<usize>()) {
            let policy = RedundancyPolicy::ErasureCode { k, n };
            if policy.validate().is_ok() {
                return policy;
            }
        }
    }
    eprintln!("--ec wants K/N with 1 <= K < N <= 255 (e.g. --ec 4/8), got {s:?}");
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut out = Args {
        scenario: Scenario::default(),
        seeds: 64,
        seed0: 0,
        seed: None,
        jobs: std::thread::available_parallelism().map_or(4, |n| n.get()),
        json: None,
        trace: None,
        verbose: false,
    };
    // `--ec` wins over `--replicas`, in either order.
    let (mut replicas, mut ec) = (3, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--seeds" => out.seeds = parse_num(&val("--seeds"), "--seeds"),
            "--seed0" => out.seed0 = parse_num(&val("--seed0"), "--seed0"),
            "--seed" => out.seed = Some(parse_num(&val("--seed"), "--seed")),
            "--nodes" => out.scenario.nodes = parse_num(&val("--nodes"), "--nodes"),
            "--replicas" => replicas = parse_num(&val("--replicas"), "--replicas"),
            "--ec" => ec = Some(parse_ec(&val("--ec"))),
            "--repair-budget" => {
                out.scenario.repair_budget_bps =
                    parse_num(&val("--repair-budget"), "--repair-budget")
            }
            "--puts" => {
                out.scenario.client = ClientWorkload::Puts(parse_num(&val("--puts"), "--puts"))
            }
            "--jobs" => out.jobs = parse_num(&val("--jobs"), "--jobs"),
            "--world" => {
                let w = val("--world");
                out.scenario.regime = WorldRegime::parse(&w).unwrap_or_else(|| {
                    eprintln!("--world wants classic|partition|gray|wan|skew|mixed, got {w:?}");
                    std::process::exit(2);
                });
            }
            "--bug-head-only" => out.scenario.bug = Some(InjectedBug::ProbeHeadOnly),
            "--bug-ack-on-send" => out.scenario.bug = Some(InjectedBug::AckOnSend),
            "--bug-no-anchor" => out.scenario.bug = Some(InjectedBug::NoAnchor),
            "--json" => out.json = Some(val("--json")),
            "--trace" => out.trace = Some(val("--trace")),
            "-v" | "--verbose" => out.verbose = true,
            _ => usage(),
        }
    }
    out.scenario.redundancy = ec.unwrap_or(RedundancyPolicy::Replicate { r: replicas });
    let group = out.scenario.redundancy.group_size();
    if out.scenario.nodes < 2 || group < 1 || group >= out.scenario.nodes {
        eprintln!(
            "need nodes >= 2 and 1 <= the redundancy group (replicas, or N with --ec) < nodes"
        );
        std::process::exit(2);
    }
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The `d2-dst replay` command that reruns `sc`: every setting a sweep
/// can vary is on it, so parsing it back gives the same scenario.
fn replay_line(sc: &Scenario) -> String {
    let mut line = format!("d2-dst replay --seed {} --nodes {}", sc.seed, sc.nodes);
    line.push_str(&match sc.redundancy {
        RedundancyPolicy::Replicate { r } => format!(" --replicas {r}"),
        RedundancyPolicy::ErasureCode { k, n } => format!(" --ec {k}/{n}"),
    });
    line.push_str(&format!(" --puts {}", sc.puts()));
    if sc.regime != WorldRegime::Classic {
        line.push_str(&format!(" --world {}", sc.regime.label()));
    }
    if sc.repair_budget_bps != 0 {
        line.push_str(&format!(" --repair-budget {}", sc.repair_budget_bps));
    }
    line.push_str(match sc.bug {
        None => "",
        Some(InjectedBug::ProbeHeadOnly) => " --bug-head-only",
        Some(InjectedBug::AckOnSend) => " --bug-ack-on-send",
        Some(InjectedBug::NoAnchor) => " --bug-no-anchor",
    });
    line
}

fn cmd_sweep(args: Args) {
    let results = sweep(&args.scenario, args.seed0, args.seeds, args.jobs);
    let failed: Vec<_> = results.iter().filter(|r| !r.ok).collect();
    if args.verbose {
        for r in &results {
            let verdict = if r.ok { "ok" } else { "FAIL" };
            println!(
                "seed {:>6}  {:4}  end {:>6.2}s  acked {}/{} ({:>5.1}%)  lookups {:>4}  hops p50/p99 {}/{}  spans {:>4}  plan {}",
                r.seed,
                verdict,
                r.end_us as f64 / 1e6,
                r.acked_puts,
                r.puts,
                r.put_success_rate() * 100.0,
                r.lookups,
                r.hops_p50,
                r.hops_p99,
                r.spans,
                r.plan_len
            );
        }
    }
    println!(
        "swept seeds {}..{} in {} worlds: {} ok, {} failed",
        args.seed0,
        args.seed0 + args.seeds,
        args.scenario.regime.label(),
        results.len() - failed.len(),
        failed.len()
    );
    // Cluster-level success/hop summary across the sweep, in the shape
    // the paper's evaluation tables use (success rate, hop percentiles).
    let issued: u64 = results.iter().map(|r| r.puts as u64).sum();
    let acked: u64 = results.iter().map(|r| r.acked_puts as u64).sum();
    let lookups: u64 = results.iter().map(|r| r.lookups).sum();
    let worst_p99 = results.iter().map(|r| r.hops_p99).max().unwrap_or(0);
    if issued > 0 {
        println!(
            "workload: {acked}/{issued} puts fully acked ({:.1}%), {lookups} lookups, worst hop p99 {worst_p99}",
            acked as f64 / issued as f64 * 100.0
        );
    }

    let mut shrunk_lines: Vec<String> = Vec::new();
    let mut shrink_runs = 0usize;
    if let Some(first) = failed.first() {
        println!(
            "first failure: seed {} — {}",
            first.seed,
            first
                .violation
                .as_deref()
                .unwrap_or("(no violation recorded)")
        );
        let mut sc = args.scenario.clone();
        sc.seed = first.seed;
        if let Some(min) = shrink(&sc, SHRINK_BUDGET) {
            shrink_runs = min.runs;
            println!("minimized fault plan ({} runs spent shrinking):", min.runs);
            for entry in &min.plan {
                let line = entry.to_string();
                println!("  - {line}");
                shrunk_lines.push(line);
            }
            println!(
                "still fails with: {}",
                min.violation.as_deref().unwrap_or("(none)")
            );
        }
        println!("replay: {}", replay_line(&sc));
    }

    if let Some(path) = &args.json {
        let failed_seeds: Vec<String> = failed.iter().map(|r| r.seed.to_string()).collect();
        let plan: Vec<String> = shrunk_lines
            .iter()
            .map(|l| format!("\"{}\"", json_escape(l)))
            .collect();
        // Kong-style per-seed curve: success rate and hop percentiles
        // for every world in the sweep, so regimes can be compared
        // seed-by-seed (e.g. wan vs classic hop inflation).
        let detail: Vec<String> = results
            .iter()
            .map(|r| {
                format!(
                    "{{\"seed\":{},\"ok\":{},\"acked\":{},\"puts\":{},\"lookups\":{},\"hops_p50\":{},\"hops_p99\":{}}}",
                    r.seed, r.ok, r.acked_puts, r.puts, r.lookups, r.hops_p50, r.hops_p99
                )
            })
            .collect();
        let json = format!(
            "{{\"world\":\"{}\",\"seed0\":{},\"seeds\":{},\"ok\":{},\"failed\":[{}],\"shrink_runs\":{},\"shrunk_plan\":[{}],\"per_seed\":[{}]}}\n",
            args.scenario.regime.label(),
            args.seed0,
            args.seeds,
            results.len() - failed.len(),
            failed_seeds.join(","),
            shrink_runs,
            plan.join(","),
            detail.join(",")
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("write {path}: {e}");
            std::process::exit(1);
        }
        println!("summary written to {path}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}

fn cmd_replay(args: Args) {
    let Some(seed) = args.seed else { usage() };
    let mut sc = args.scenario.clone();
    sc.seed = seed;
    let out = run_one(&sc, &Overrides::default());
    println!(
        "seed {} ({} world): {} at {:.2}s — {} delivered, {} dropped, {} duplicated, {} delayed, {} ticks, {} acked puts",
        out.seed,
        sc.regime.label(),
        if out.ok { "ok" } else { "FAIL" },
        out.end_us as f64 / 1e6,
        out.stats.delivered,
        out.stats.dropped,
        out.stats.duplicated,
        out.stats.delayed,
        out.stats.ticks,
        out.stats.acked_puts
    );
    if out.stats.lost_partition > 0 || out.stats.lost_cut > 0 || out.stats.gray_dropped > 0 {
        println!(
            "silent losses: {} partitioned, {} one-way-cut, {} gray-dropped",
            out.stats.lost_partition, out.stats.lost_cut, out.stats.gray_dropped
        );
    }
    println!("fault plan ({} entries):", out.plan.len());
    for entry in &out.plan {
        println!("  - {entry}");
    }
    if let Some(v) = &out.violation {
        println!("violation: {v}");
    }
    // The survivors' flight recorders ride in the trace as WireSpan
    // events; reassemble them into the same causal trees `d2-node
    // trace` prints for a live cluster.
    let spans: Vec<SpanRecord> = out
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::WireSpan {
                t_us,
                trace_id,
                span_id,
                parent_span_id,
                hop,
                node,
                dur_us,
                ok,
                op,
                detail,
            } => Some(SpanRecord {
                trace_id: *trace_id,
                span_id: *span_id,
                parent_span_id: *parent_span_id,
                hop: *hop,
                node: *node,
                start_us: *t_us,
                dur_us: *dur_us,
                ok: *ok,
                op: op.clone(),
                detail: detail.clone(),
            }),
            _ => None,
        })
        .collect();
    let traces: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.trace_id).collect();
    println!(
        "wire spans: {} across {} trace(s)",
        spans.len(),
        traces.len()
    );
    if args.verbose && !spans.is_empty() {
        print!("{}", render_span_tree(&spans));
    }
    if let Some(hops) = out.metrics.histogram("node.lookup_hops") {
        let s = hops.snapshot();
        println!(
            "lookup hops: {} lookups, p50 {}, p90 {}, p99 {}, max {}",
            s.count, s.p50, s.p90, s.p99, s.max
        );
    }
    if let Some(path) = &args.trace {
        let jsonl = to_jsonl(&out.trace);
        match std::fs::File::create(path).and_then(|mut f| f.write_all(jsonl.as_bytes())) {
            Ok(()) => println!("trace ({} events) written to {path}", out.trace.len()),
            Err(e) => {
                eprintln!("write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if !out.ok {
        std::process::exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    let args = parse_args(rest);
    match cmd.as_str() {
        "sweep" => cmd_sweep(args),
        "replay" => cmd_replay(args),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sweep's `replay:` line, fed back through the parser, is the
    /// scenario that failed: seed, size, puts, redundancy, world, bug and
    /// repair budget.
    #[test]
    fn replay_line_parses_back_to_the_scenario() {
        let mut cases = Vec::new();
        for (redundancy, budget) in [
            (RedundancyPolicy::Replicate { r: 3 }, 0),
            (RedundancyPolicy::Replicate { r: 2 }, 750),
            (RedundancyPolicy::ErasureCode { k: 3, n: 6 }, 5000),
            (RedundancyPolicy::ErasureCode { k: 4, n: 8 }, 0),
        ] {
            for (regime, bug) in [
                (WorldRegime::Classic, None),
                (WorldRegime::Partition, Some(InjectedBug::AckOnSend)),
                (WorldRegime::Mixed, Some(InjectedBug::NoAnchor)),
                (WorldRegime::Wan, Some(InjectedBug::ProbeHeadOnly)),
            ] {
                cases.push(Scenario {
                    seed: 41 + cases.len() as u64,
                    nodes: 9,
                    client: ClientWorkload::Puts(17),
                    redundancy,
                    repair_budget_bps: budget,
                    regime,
                    bug,
                    ..Scenario::default()
                });
            }
        }
        for want in cases {
            let line = replay_line(&want);
            let argv: Vec<String> = line.split(' ').map(String::from).collect();
            assert_eq!(argv[..2], ["d2-dst", "replay"], "{line}");
            let args = parse_args(&argv[2..]);
            let got = &args.scenario;
            assert_eq!(args.seed, Some(want.seed), "{line}");
            assert_eq!(got.nodes, want.nodes, "{line}");
            assert_eq!(got.client, want.client, "{line}");
            assert_eq!(got.redundancy, want.redundancy, "{line}");
            assert_eq!(got.regime, want.regime, "{line}");
            assert_eq!(got.bug, want.bug, "{line}");
            assert_eq!(got.repair_budget_bps, want.repair_budget_bps, "{line}");
        }
    }
}
