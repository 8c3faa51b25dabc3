//! The `churn` experiment: lookup success under injected message faults
//! and node crash/rejoin, as a function of churn rate.
//!
//! The paper's availability simulation (Section 8) assumes the routing
//! layer keeps resolving keys while nodes crash and rejoin; this
//! experiment *measures* that assumption. Each cell replays a scaled
//! [`FailureModel`] trace (churn multiplier × the paper's PlanetLab-like
//! baseline) against a live ring whose per-node routing tables go stale
//! exactly as the protocol's would: crashes leave dangling links until
//! lookups evict them or the periodic stabilization pass repairs them.
//! Every lookup runs under the full retry/timeout/backoff policy of
//! [`d2_ring::churn`], with message drops and delays injected by a
//! [`FaultPlan`], and is preceded by a probe of a Section 5 range-based
//! [`LookupCache`] (stale hits cost a wasted round trip, as in the
//! performance simulator).
//!
//! Reported per churn multiplier: trace unavailability, lookup success
//! rate, retry counts (mean and max — the max must stay within the
//! configured budget), timeouts, mean hops, hop stretch vs a converged
//! oracle router, cache hit/stale rates, and stabilization repair
//! volume. The 1× row is the paper-assumption check: success with
//! retries should stay ≥ 99.9%.
//!
//! Cells are independent and seeded via [`exec::derive_seed`], so output
//! is byte-identical at any `--jobs` value.

use crate::exec;
use crate::report::{fmt, render_table};
use crate::Scale;
use d2_obs::{SharedSink, TraceEvent};
use d2_ring::churn::{FaultOracle, RetryPolicy};
use d2_ring::routing::Router;
use d2_ring::{LookupOutcome, NodeIdx, Ring, SUCCESSORS};
use d2_sim::{FailureModel, FailureTrace, FaultConfig, FaultPlan, SimTime};
use d2_store::{CacheOutcome, LookupCache};
use d2_types::Key;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Self-stabilization period (successor repair, long-link refresh,
/// dead-link eviction on every live node).
const STABILIZE_INTERVAL: SimTime = SimTime::from_secs(600);

/// Parameters of one churn sweep. Every lookup runs under
/// [`RetryPolicy::default`], over routing tables of [`SUCCESSORS`]
/// successors, behind a lookup cache with the paper's 1.25 h TTL.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Ring size.
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
    /// Lookups issued (cache-served + routed).
    pub lookups: u64,
    /// Lookups served by a fresh cache hit (no routing).
    pub cache_hits: u64,
    /// Stale cache hits (wasted round trip, then routed).
    pub cache_stale: u64,
    /// Lookups that went through the router.
    pub routed: u64,
    /// Routed lookups that failed (budget exhausted or no route).
    pub failed: u64,
    /// Total retries across routed lookups.
    pub retries: u64,
    /// Largest retry count any single lookup consumed.
    pub max_retries: u32,
    /// Total hop timeouts.
    pub timeouts: u64,
    /// Total successful hops (routed successes only).
    pub hops: u64,
    /// Hops a converged oracle router needed for the same lookups.
    pub oracle_hops: u64,
    /// Mean lookup latency, µs (routed lookups).
    pub mean_latency_us: f64,
    /// Stabilization rounds run.
    pub stab_rounds: u64,
    /// Links repaired by stabilization.
    pub stab_repaired: u64,
    /// Stale links evicted by stabilization.
    pub stab_evicted: u64,
}

impl ChurnRow {
    /// Fraction of issued lookups that found the owner (cache hits
    /// count; only routed failures count against).
    pub fn success_rate(&self) -> f64 {
        if self.lookups == 0 {
            return 1.0;
        }
        1.0 - self.failed as f64 / self.lookups as f64
    }

    /// Mean retries per routed lookup.
    pub fn mean_retries(&self) -> f64 {
        if self.routed == 0 {
            return 0.0;
        }
        self.retries as f64 / self.routed as f64
    }

    /// Mean hops per successful routed lookup.
    pub fn mean_hops(&self) -> f64 {
        let ok = self.routed - self.failed;
        if ok == 0 {
            return 0.0;
        }
        self.hops as f64 / ok as f64
    }

    /// Hop stretch vs the converged oracle router (1.0 = no penalty).
    pub fn stretch(&self) -> f64 {
        if self.oracle_hops == 0 {
            return 1.0;
        }
        self.hops as f64 / self.oracle_hops as f64
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
                    fmt(r.mean_hops()),
                    fmt(r.stretch()),
                    format!("{:.1}%", pct(r.cache_hits, r.lookups)),
                    format!("{:.1}%", pct(r.cache_stale, r.lookups)),
                    r.stab_repaired.to_string(),
                    r.stab_evicted.to_string(),
                ]
            })
            .collect();
        render_table(
            "Churn: lookup success under faults (retry/timeout/backoff + stabilization)",
            &[
                "churn",
                "unavail",
                "lookups",
                "ok",
                "retries",
                "max",
                "timeouts",
                "hops",
                "stretch",
                "cache-hit",
                "stale",
                "repaired",
                "evicted",
            ],
            &rows,
        )
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Runs the sweep at a scale preset (no tracing).
pub fn run(scale: Scale, seed: u64, jobs: usize) -> Churn {
    run_traced(scale, seed, jobs, &SharedSink::null())
}

/// Runs the sweep at a scale preset, recording sampled
/// [`TraceEvent::ChurnLookup`] events (every failure, every 64th routed
/// success) and every [`TraceEvent::Stabilize`] round into `sink`.
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
        let cell_sink = if enabled {
            SharedSink::memory(0)
        } else {
            SharedSink::null()
        };
        let row = run_cell(
            cfg,
            cfg.multipliers[i],
            exec::derive_seed(cfg.seed, &[i as u64]),
            &cell_sink,
        );
        (row, cell_sink.drain())
    });
    let mut rows = Vec::with_capacity(outcomes.len());
    for (row, events) in outcomes {
        sink.extend(events);
        rows.push(row);
    }
    Churn { rows }
}

/// What happens at one instant of the cell's event loop. Ordering at
/// equal times: membership transitions first (the world changes), then
/// stabilization (the protocol reacts), then lookups (the user observes).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Transition(usize, bool),
    Stabilize,
    Lookup,
}

fn run_cell(cfg: &ChurnConfig, multiplier: f64, seed: u64, sink: &SharedSink) -> ChurnRow {
    // Independent streams: the failure trace, the message fates, and the
    // workload (keys/origins) never share a generator, so adding draws to
    // one cannot shift another.
    let trace = if multiplier > 0.0 {
        let base = FailureModel::default();
        let model = FailureModel {
            mttf_secs: base.mttf_secs / multiplier,
            correlated_events: base.correlated_events * multiplier,
            duration_secs: cfg.duration.as_micros() as f64 / 1e6,
            ..base
        };
        FailureTrace::generate(
            cfg.nodes,
            &model,
            &mut StdRng::seed_from_u64(exec::derive_seed(seed, &[1])),
        )
    } else {
        FailureTrace::none(cfg.nodes, cfg.duration)
    };
    let mut row = ChurnRow {
        multiplier,
        unavailability: trace.mean_unavailability(),
        ..ChurnRow::default()
    };
    let mut faults = FaultPlan::new(
        FaultConfig {
            seed: exec::derive_seed(seed, &[2]),
            ..FaultConfig::default()
        },
        trace,
    );
    let mut rng = StdRng::seed_from_u64(exec::derive_seed(seed, &[3]));

    // Full ring (stable NodeIdx handles) and the live view that
    // transitions mutate. Tables are built once and then decay.
    let mut live = Ring::new();
    for _ in 0..cfg.nodes {
        live.add_node(Key::random(&mut rng));
    }
    let mut router = Router::build(&live, SUCCESSORS);
    // Converged baseline for hop stretch, rebuilt lazily after
    // membership changes.
    let mut oracle = router.clone();
    let mut oracle_dirty = false;
    let mut last_id: Vec<Option<Key>> = (0..cfg.nodes).map(|i| live.id_of(NodeIdx(i))).collect();
    let mut cache = LookupCache::with_default_ttl();
    let policy = RetryPolicy::default();

    // Merge the three event streams into one sorted schedule.
    let mut events: Vec<(u64, Ev)> = Vec::new();
    for (t, node, up) in faults.trace().transitions() {
        events.push((t.as_micros(), Ev::Transition(node, up)));
    }
    let horizon = cfg.duration.as_micros();
    let mut t = STABILIZE_INTERVAL.as_micros();
    while t < horizon {
        events.push((t, Ev::Stabilize));
        t += STABILIZE_INTERVAL.as_micros();
    }
    let mut t = cfg.lookup_interval.as_micros();
    while t < horizon {
        events.push((t, Ev::Lookup));
        t += cfg.lookup_interval.as_micros();
    }
    events.sort();

    let rtt_us = 2 * faults.config().base_delay_us;
    let mut latency_total = 0u64;
    for (t_us, ev) in events {
        match ev {
            Ev::Transition(node, up) => {
                let node = NodeIdx(node);
                if up {
                    if let Some(id) = last_id[node.0] {
                        if live.add_node_at(node, id) {
                            // The returner rebuilds its own table by
                            // bootstrapping, then announces itself to
                            // its ring predecessor (Chord's notify on
                            // join) — without that, greedy routes from
                            // the predecessor side overshoot the
                            // returner until the next stabilize round.
                            // Everyone else stays stale until
                            // stabilization notices.
                            router.rebuild_node(&live, node);
                            if let Some(pred) = live.predecessor(node) {
                                if pred != node {
                                    router.stabilize_node(&live, pred);
                                }
                            }
                        }
                    }
                } else if live.len() > 1 {
                    if let Some(id) = live.id_of(node) {
                        last_id[node.0] = Some(id);
                    }
                    live.remove_node(node);
                }
                oracle_dirty = true;
            }
            Ev::Stabilize => {
                let stats = router.stabilize_round_traced(&live, t_us, sink);
                row.stab_rounds += 1;
                row.stab_repaired += stats.repaired as u64;
                row.stab_evicted += stats.evicted as u64;
            }
            Ev::Lookup => {
                let Some(origin) = live.random_node(&mut rng) else {
                    continue;
                };
                let key = Key::random(&mut rng);
                row.lookups += 1;
                let mut extra_us = 0u64;
                if let CacheOutcome::Hit { node } = cache.probe(&key, SimTime::from_micros(t_us)) {
                    let cached = NodeIdx(node);
                    if faults.node_up(cached, t_us) && live.owner_of(&key) == Some(cached) {
                        row.cache_hits += 1;
                        latency_total += rtt_us;
                        continue;
                    }
                    // Stale: wasted round trip (or timeout if dead),
                    // then fall back to a routed lookup.
                    row.cache_stale += 1;
                    cache.invalidate_node(node);
                    extra_us = if faults.node_up(cached, t_us) {
                        rtt_us
                    } else {
                        policy.hop_timeout_us
                    };
                }
                row.routed += 1;
                let s = router.lookup_churn(&live, origin, &key, &policy, &mut faults, t_us);
                row.retries += s.retries as u64;
                row.max_retries = row.max_retries.max(s.retries);
                row.timeouts += s.timeouts as u64;
                latency_total += s.latency_us + extra_us;
                if let Some(owner) = s.owner {
                    row.hops += s.hops as u64;
                    if oracle_dirty {
                        oracle = Router::build(&live, SUCCESSORS);
                        oracle_dirty = false;
                    }
                    if let Some(base) = oracle.lookup(&live, origin, &key) {
                        row.oracle_hops += base.hops as u64;
                    }
                    if let Some(range) = live.range_of(owner) {
                        cache.insert(range, owner.0, SimTime::from_micros(t_us));
                    }
                } else {
                    row.failed += 1;
                }
                // Sample the trace: every failure, every 64th routed
                // lookup (the registry totals come from the row, not the
                // samples).
                if s.outcome != LookupOutcome::Success || row.routed.is_multiple_of(64) {
                    sink.record_with(|| TraceEvent::ChurnLookup {
                        t_us,
                        from: origin.0,
                        key: key.to_u64_lossy(),
                        ok: s.outcome == LookupOutcome::Success,
                        hops: s.hops,
                        retries: s.retries,
                        timeouts: s.timeouts,
                        latency_us: s.latency_us + extra_us,
                    });
                }
            }
        }
    }
    if row.routed + row.cache_hits > 0 {
        row.mean_latency_us = latency_total as f64 / (row.routed + row.cache_hits) as f64;
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(multipliers: Vec<f64>) -> ChurnConfig {
        ChurnConfig {
            nodes: 32,
            duration: SimTime::from_secs_f64(0.25 * 86_400.0),
            lookup_interval: SimTime::from_secs(30),
            multipliers,
            seed: 7,
        }
    }

    #[test]
    fn no_churn_cell_always_succeeds() {
        let churn = run_cfg(&tiny_cfg(vec![0.0]), 1, &SharedSink::null());
        let r = churn.row(0.0).unwrap();
        assert_eq!(r.unavailability, 0.0);
        assert!(r.lookups > 500);
        assert_eq!(r.failed, 0, "drops alone must never fail a lookup");
        assert!(r.success_rate() >= 1.0 - 1e-12);
        assert!(r.cache_hits > 0, "static ring should produce cache hits");
        assert_eq!(r.cache_stale, 0, "static ring cannot go stale");
        assert!(r.max_retries <= RetryPolicy::default().max_retries);
        // ~1% drop probability must show up as retries.
        assert!(r.retries > 0);
    }

    #[test]
    fn churn_cell_survives_heavy_churn_within_budget() {
        let churn = run_cfg(&tiny_cfg(vec![8.0]), 1, &SharedSink::null());
        let r = churn.row(8.0).unwrap();
        assert!(r.unavailability > 0.01, "8x churn must hurt availability");
        assert!(r.stab_evicted > 0, "stabilization must evict dead links");
        assert!(r.stab_repaired > 0);
        assert!(r.max_retries <= RetryPolicy::default().max_retries);
        assert!(
            r.success_rate() > 0.97,
            "retries + stabilization should keep success high, got {}",
            r.success_rate()
        );
        assert!(r.stretch() >= 0.99, "stale tables cannot beat the oracle");
    }

    #[test]
    fn rows_and_render_are_deterministic_across_jobs() {
        let cfg = tiny_cfg(vec![0.0, 4.0]);
        let sink1 = SharedSink::memory(0);
        let a = run_cfg(&cfg, 1, &sink1);
        let ev1 = sink1.drain();
        let sink2 = SharedSink::memory(0);
        let b = run_cfg(&cfg, 2, &sink2);
        let ev2 = sink2.drain();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.render(), b.render());
        assert_eq!(d2_obs::to_jsonl(&ev1), d2_obs::to_jsonl(&ev2));
        assert!(ev1
            .iter()
            .any(|e| matches!(e, TraceEvent::Stabilize { .. })));
        assert!(
            ev1.iter()
                .any(|e| matches!(e, TraceEvent::ChurnLookup { .. })),
            "sampled lookups must appear in the trace"
        );
    }

    #[test]
    fn render_has_one_row_per_multiplier() {
        let churn = run_cfg(&tiny_cfg(vec![0.0, 2.0]), 2, &SharedSink::null());
        let table = churn.render();
        assert_eq!(churn.rows.len(), 2);
        assert!(table.contains("churn"));
        assert!(table.contains("ok"));
        assert_eq!(table.lines().count(), 5, "title + header + rule + 2 rows");
    }
}
