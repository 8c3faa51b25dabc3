//! The `churn` experiment: lookup success while nodes crash and rejoin,
//! as a function of churn rate, on the real node protocol.
//!
//! The paper's availability simulation (Section 8) assumes the routing
//! layer keeps resolving keys while nodes crash and rejoin; this
//! experiment *measures* that assumption on the protocol every live
//! node runs. Each cell scales the paper's PlanetLab-like
//! [`FailureModel`] (churn multiplier × the baseline), turns every down
//! interval of the generated trace into a crash and a restart, and
//! plays the script through `d2-dst`'s [`SimWorld`](d2_dst::SimWorld):
//! `NodeRuntime`s stabilising every protocol tick over a virtual network
//! with the world's own message fates (drops, duplicates, long delays).
//! A client issues lookups from random live entry nodes behind a
//! Section 5 range-based lookup cache, retrying through the next entry
//! on a timeout. After the trace the world heals and checks Zave's ring
//! invariants, so each cell also says whether its ring healed.
//!
//! Model time is compressed by [`TIME_COMPRESSION`] (30,000×): one
//! 20 ms protocol tick stands for ten minutes of the failure model, so a
//! session lasts as many stabilisation rounds as under a 600 s
//! stabilisation period. The lookup interval and the cache's 1.25 h TTL
//! compress by the same factor.
//!
//! Hop stretch is measured against a converged router over the joined
//! live nodes when each answer arrived, the same ring that judges the
//! answer (see [`LookupRecord`](d2_dst::LookupRecord)). The 1× row is the paper-assumption check: lookups
//! should still succeed ≥ 99.9%. Cells are seeded via
//! [`exec::derive_seed`], so output is byte-identical at any `--jobs`.

use crate::exec;
use crate::report::{fmt, render_table};
use crate::Scale;
use d2_dst::{run_one, ClientWorkload, NodeEvent, Overrides, Scenario, TIME_COMPRESSION};
use d2_obs::{SharedSink, TraceEvent};
use d2_sim::{FailureModel, FailureTrace, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Virtual time the world has to heal after the trace before its cell
/// reports the ring unhealed.
const HEAL_US: u64 = 10_000_000;

/// Parameters of one churn sweep, in model time.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Ring size (node 0, the join seed, never crashes).
    pub nodes: usize,
    /// Simulated horizon.
    pub duration: SimTime,
    /// One lookup is issued every this often, from a random live node
    /// for a uniformly random key.
    pub lookup_interval: SimTime,
    /// Churn multipliers swept, scaling the baseline [`FailureModel`]
    /// (0 = no crashes, message faults only).
    pub multipliers: Vec<f64>,
    /// Base seed; each cell derives its own via [`exec::derive_seed`].
    pub seed: u64,
}

impl ChurnConfig {
    /// The sweep for a given scale preset.
    pub fn at_scale(scale: Scale, seed: u64) -> ChurnConfig {
        let (nodes, days) = match scale {
            Scale::Quick => (64, 2.0),
            Scale::Full => (128, 7.0),
        };
        ChurnConfig {
            nodes,
            duration: SimTime::from_secs_f64(days * 86_400.0),
            lookup_interval: SimTime::from_secs(20),
            multipliers: vec![0.0, 1.0, 4.0, 16.0],
            seed,
        }
    }
}

/// Aggregate results for one churn multiplier.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChurnRow {
    /// Churn multiplier (0 = message faults only).
    pub multiplier: f64,
    /// Mean node unavailability of the generated trace.
    pub unavailability: f64,
    /// Lookups issued.
    pub lookups: u64,
    /// Lookups answered with the key's owner.
    pub correct: u64,
    /// Lookups answered with a node that did not own the key.
    pub wrong: u64,
    /// Lookups served by a fresh cache hit (the cached node answered).
    pub cache_hits: u64,
    /// Cache hits whose answer named another node (or never came).
    pub cache_stale: u64,
    /// Re-attempts across all lookups.
    pub retries: u64,
    /// Most re-attempts any single lookup made.
    pub max_retries: u32,
    /// Attempts that timed out.
    pub timeouts: u64,
    /// Hops of routed lookups that have an oracle route.
    pub hops: u64,
    /// Hops a converged oracle router needed for the same lookups.
    pub oracle_hops: u64,
    /// Routed lookups counted in `hops`.
    pub hop_samples: u64,
    /// Whether the ring passed the invariants after the trace.
    pub healed: bool,
}

impl ChurnRow {
    /// Fraction of issued lookups answered with the key's owner.
    pub fn success_rate(&self) -> f64 {
        ratio(self.correct, self.lookups, 1.0)
    }

    /// Lookups that got no answer within their attempts.
    pub fn unanswered(&self) -> u64 {
        self.lookups - self.correct - self.wrong
    }

    /// Mean re-attempts per lookup.
    pub fn mean_retries(&self) -> f64 {
        ratio(self.retries, self.lookups, 0.0)
    }

    /// Mean hops per routed answer.
    pub fn mean_hops(&self) -> f64 {
        ratio(self.hops, self.hop_samples, 0.0)
    }

    /// Hop stretch vs the converged oracle router (1.0 = no penalty).
    pub fn stretch(&self) -> f64 {
        ratio(self.hops, self.oracle_hops, 1.0)
    }
}

/// `part / whole`, or `empty` when `whole` is 0.
fn ratio(part: u64, whole: u64, empty: f64) -> f64 {
    match whole {
        0 => empty,
        _ => part as f64 / whole as f64,
    }
}

/// The full sweep.
#[derive(Clone, Debug)]
pub struct Churn {
    /// One row per churn multiplier, in sweep order.
    pub rows: Vec<ChurnRow>,
}

impl Churn {
    /// The row for a given multiplier.
    pub fn row(&self, multiplier: f64) -> Option<&ChurnRow> {
        self.rows.iter().find(|r| r.multiplier == multiplier)
    }

    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    fmt(r.multiplier),
                    format!("{:.3}%", r.unavailability * 100.0),
                    r.lookups.to_string(),
                    format!("{:.3}%", r.success_rate() * 100.0),
                    fmt(r.mean_retries()),
                    r.max_retries.to_string(),
                    r.timeouts.to_string(),
                    r.wrong.to_string(),
                    fmt(r.mean_hops()),
                    fmt(r.stretch()),
                    format!("{:.1}%", 100.0 * ratio(r.cache_hits, r.lookups, 0.0)),
                    format!("{:.1}%", 100.0 * ratio(r.cache_stale, r.lookups, 0.0)),
                    if r.healed { "yes" } else { "no" }.to_string(),
                ]
            })
            .collect();
        render_table(
            "Churn: lookup success on the node protocol under §8 crash/rejoin traces",
            &[
                "churn",
                "unavail",
                "lookups",
                "ok",
                "retries",
                "max",
                "timeouts",
                "wrong",
                "hops",
                "stretch",
                "cache-hit",
                "stale",
                "healed",
            ],
            &rows,
        )
    }
}

/// Runs the sweep at a scale preset, recording sampled
/// [`TraceEvent::ChurnLookup`] events (every lookup not answered with
/// its owner, every 64th routed lookup) into `sink`.
pub fn run_traced(scale: Scale, seed: u64, jobs: usize, sink: &SharedSink) -> Churn {
    run_cfg(&ChurnConfig::at_scale(scale, seed), jobs, sink)
}

/// Runs the sweep for an explicit configuration. Cells fan out over
/// `jobs` workers; each buffers its events privately and the buffers are
/// merged in sweep order, so all output is byte-identical at any worker
/// count.
pub fn run_cfg(cfg: &ChurnConfig, jobs: usize, sink: &SharedSink) -> Churn {
    let cells: Vec<usize> = (0..cfg.multipliers.len()).collect();
    let enabled = sink.enabled();
    let outcomes = exec::parallel_map(&cells, jobs, |i, _| {
        exec::traced(enabled, |cell_sink| {
            let seed = exec::derive_seed(cfg.seed, &[i as u64]);
            run_cell(cfg, cfg.multipliers[i], seed, cell_sink)
        })
    });
    let mut rows = Vec::with_capacity(outcomes.len());
    for (row, events) in outcomes {
        sink.extend(events);
        rows.push(row);
    }
    Churn { rows }
}

/// The cell's node-event script: every down interval of `trace` (whose
/// node `j` is world node `j + 1`) as a crash and a restart, compressed
/// and shifted to start at `start_us`. A node's windows stay disjoint
/// after rounding, so no restart lands on a running node.
fn crash_script(trace: &FailureTrace, start_us: u64) -> Vec<NodeEvent> {
    let virt = |t: SimTime| start_us + t.as_micros() / TIME_COMPRESSION;
    let mut events = Vec::new();
    for j in 0..trace.len() {
        let mut free_from = 0;
        for &(down, up) in trace.downs_of(j) {
            let at_us = virt(down).max(free_from);
            let restart_us = virt(up).max(at_us + 1);
            free_from = restart_us + 1;
            events.push(NodeEvent::Crash {
                node: j + 1,
                at_us,
                restart_us: Some(restart_us),
            });
        }
    }
    events.sort_by_key(|e| e.at_us());
    events
}

fn run_cell(cfg: &ChurnConfig, multiplier: f64, seed: u64, sink: &SharedSink) -> ChurnRow {
    // Independent streams: the failure trace and the world's schedule
    // never share a generator.
    let trace = if multiplier > 0.0 {
        let base = FailureModel::default();
        let model = FailureModel {
            mttf_secs: base.mttf_secs / multiplier,
            correlated_events: base.correlated_events * multiplier,
            duration_secs: cfg.duration.as_micros() as f64 / 1e6,
            ..base
        };
        FailureTrace::generate(
            cfg.nodes - 1,
            &model,
            &mut StdRng::seed_from_u64(exec::derive_seed(seed, &[1])),
        )
    } else {
        FailureTrace::none(cfg.nodes - 1, cfg.duration)
    };
    let mut sc = Scenario {
        seed: exec::derive_seed(seed, &[2]),
        nodes: cfg.nodes,
        ..Scenario::default()
    };
    let start_us = sc.settled_us();
    let horizon = cfg.duration.as_micros();
    let lookups = (horizon - 1) / cfg.lookup_interval.as_micros();
    sc.client = ClientWorkload::Lookups(lookups as usize);
    sc.fault_end_us = start_us + horizon / TIME_COMPRESSION;
    sc.deadline_us = sc.fault_end_us + HEAL_US;
    sc.node_events = Some(crash_script(&trace, start_us));
    let out = run_one(&sc, &Overrides::default());

    let mut row = ChurnRow {
        multiplier,
        unavailability: trace.mean_unavailability(),
        lookups: out.lookups.len() as u64,
        healed: out.ok,
        ..ChurnRow::default()
    };
    let mut routed = 0u64;
    for rec in &out.lookups {
        let retries = rec.attempts - 1;
        row.retries += retries as u64;
        row.max_retries = row.max_retries.max(retries);
        let timeouts = rec.attempts - u32::from(rec.owner.is_some());
        row.timeouts += timeouts as u64;
        let ok = rec.correct;
        let routed_answer = rec.cached.is_none() || rec.stale();
        if let Some(base) = rec.oracle_hops.filter(|_| routed_answer) {
            row.hops += rec.hops as u64;
            row.oracle_hops += base as u64;
            row.hop_samples += 1;
        }
        row.correct += u64::from(ok);
        row.wrong += u64::from(rec.owner.is_some() && !ok);
        row.cache_stale += u64::from(rec.stale());
        row.cache_hits += u64::from(rec.cached.is_some() && !rec.stale());
        // Sample the trace: every lookup not answered with its owner,
        // every 64th routed one (the row's totals are not sampled).
        routed += u64::from(routed_answer);
        if !ok || (routed_answer && routed.is_multiple_of(64)) {
            sink.record_with(|| TraceEvent::ChurnLookup {
                t_us: rec.issued_us,
                from: rec.entry,
                key: rec.key.to_u64_lossy(),
                ok,
                hops: rec.hops,
                retries,
                timeouts,
                latency_us: rec.ended_us - rec.issued_us,
            });
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_script_keeps_each_nodes_windows_disjoint() {
        let model = FailureModel {
            mttf_secs: 3_600.0,
            mttr_secs: 60.0,
            duration_secs: 86_400.0,
            ..FailureModel::default()
        };
        let trace = FailureTrace::generate(8, &model, &mut StdRng::seed_from_u64(3));
        let script = crash_script(&trace, 1_000);
        assert!(script.len() > 8);
        let mut last_up = [0u64; 9];
        for ev in &script {
            let NodeEvent::Crash {
                node,
                at_us,
                restart_us: Some(r),
            } = *ev
            else {
                panic!("only crash/restart events: {ev:?}");
            };
            assert!((1..=8).contains(&node), "node 0 never crashes");
            assert!(at_us > last_up[node] && r > at_us, "{ev:?}");
            last_up[node] = r;
        }
    }
}
