//! The `redundancy` ablation: replication vs erasure coding under the
//! same churn, measuring the three-way trade the paper's Section 3
//! gestures at when it picks whole-block replication — availability,
//! storage overhead, and repair bandwidth.
//!
//! Every cell replays the *same* failure trace, node placement, and
//! block set (the policy under test is deliberately left out of the
//! seed coordinates, so comparisons stay paired — see [`exec`]) against
//! a [`SimCluster`] configured with one [`RedundancyPolicy`]:
//! whole-block replication at `r` copies, or systematic `(k, n)`
//! Reed–Solomon fragments on `n` consecutive successors. Replication
//! repairs eagerly at the crash instant; erasure cells use the lazy
//! queue — a key is regenerated only once its survivor count drops
//! below the threshold `m`, and regeneration traffic is metered by a
//! per-node token bucket refilled at `repair_budget_bps`.
//!
//! Reported per policy: the trace's node unavailability (identical
//! across cells, a sanity anchor), block availability over periodic
//! whole-population probes, ideal and measured storage factors, bytes
//! spent on lazy repair, bytes deferred by the budget, repairs the
//! threshold made unnecessary, and the end-of-run repair backlog. The
//! acceptance check for the PR rides on this table: at least one
//! erasure configuration must match `r = 3` availability at strictly
//! lower storage.
//!
//! Cells are independent and the per-cell trace buffers are merged in
//! sweep order, so output is byte-identical at any `--jobs` value.

use crate::exec;
use crate::report::{fmt, render_table};
use crate::Scale;
use d2_core::{ClusterConfig, RedundancyPolicy, SimCluster, SystemKind};
use d2_obs::SharedSink;
use d2_ring::NodeIdx;
use d2_sim::{FailureModel, FailureTrace, SimTime};
use d2_types::Key;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every block's availability is probed this often.
const PROBE_INTERVAL: SimTime = SimTime::from_secs(900);
/// Lazy-repair rounds (token refill + queue drain) run this often.
const REPAIR_INTERVAL: SimTime = SimTime::from_secs(300);

/// Parameters of one redundancy sweep.
#[derive(Clone, Debug)]
pub struct RedundancyConfig {
    /// Cluster size.
    pub nodes: usize,
    /// Simulated horizon.
    pub duration: SimTime,
    /// Blocks preloaded before the churn starts.
    pub blocks: usize,
    /// Logical bytes per block.
    pub block_len: u32,
    /// Policies swept, one cell each.
    pub policies: Vec<RedundancyPolicy>,
    /// Per-node lazy-repair budget, bytes/sec (erasure cells only;
    /// 0 = unthrottled).
    pub repair_budget_bps: u64,
    /// Churn multiplier scaling the baseline [`FailureModel`].
    pub churn: f64,
    /// Base seed. The failure trace, placement, and block keys derive
    /// from it *without* the cell index, so cells are paired.
    pub seed: u64,
}

impl RedundancyConfig {
    /// The sweep for a given scale preset: the ISSUE's five cells —
    /// replication at the paper's two replica counts against three
    /// erasure shapes spanning 1.5×–3× storage.
    pub fn at_scale(scale: Scale, seed: u64) -> RedundancyConfig {
        let (nodes, days, blocks) = match scale {
            Scale::Quick => (48, 1.5, 96),
            Scale::Full => (96, 4.0, 256),
        };
        RedundancyConfig {
            nodes,
            duration: SimTime::from_secs_f64(days * 86_400.0),
            blocks,
            block_len: 64 << 10,
            policies: vec![
                RedundancyPolicy::Replicate { r: 3 },
                RedundancyPolicy::Replicate { r: 4 },
                RedundancyPolicy::ErasureCode { k: 2, n: 4 },
                RedundancyPolicy::ErasureCode { k: 4, n: 8 },
                RedundancyPolicy::ErasureCode { k: 8, n: 12 },
            ],
            repair_budget_bps: 24 << 10,
            churn: 6.0,
            seed,
        }
    }
}

/// Aggregate results for one redundancy policy.
#[derive(Clone, Debug, PartialEq)]
pub struct RedundancyRow {
    /// Policy measured.
    pub policy: RedundancyPolicy,
    /// Mean node unavailability of the shared failure trace.
    pub trace_unavailability: f64,
    /// Availability probes issued (blocks × probe ticks).
    pub probes: u64,
    /// Probes that found the block unreadable (fewer than `k`
    /// fragments — or zero replicas — reachable).
    pub unavailable: u64,
    /// Bytes a fault-free run would store per logical byte.
    pub ideal_storage_factor: f64,
    /// Bytes actually on disk at the end per logical byte (stale copies
    /// on crashed nodes keep counting, as disks do).
    pub stored_factor: f64,
    /// Bytes spent regenerating fragments from the lazy repair queue.
    pub repair_bytes: u64,
    /// Repair bytes deferred because a token bucket was empty.
    pub repair_throttled_bytes: u64,
    /// Repairs the lazy threshold made unnecessary.
    pub repairs_skipped_lazy: u64,
    /// Blocks regenerated by budgeted repair rounds.
    pub repaired_blocks: u64,
    /// Keys still below the repair threshold when the run ended.
    pub backlog: u64,
    /// All migration/regeneration traffic (repair bytes are a subset).
    pub migration_bytes: u64,
}

impl RedundancyRow {
    /// Fraction of probes that found the block readable.
    pub fn availability(&self) -> f64 {
        if self.probes == 0 {
            return 1.0;
        }
        1.0 - self.unavailable as f64 / self.probes as f64
    }
}

/// The full sweep.
#[derive(Clone, Debug)]
pub struct Redundancy {
    /// One row per policy, in sweep order.
    pub rows: Vec<RedundancyRow>,
}

impl Redundancy {
    /// The row for a given policy, if present.
    pub fn row(&self, policy: RedundancyPolicy) -> Option<&RedundancyRow> {
        self.rows.iter().find(|r| r.policy == policy)
    }

    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.label(),
                    fmt(r.ideal_storage_factor),
                    fmt(r.stored_factor),
                    format!("{:.3}%", r.trace_unavailability * 100.0),
                    format!("{:.4}%", r.availability() * 100.0),
                    format!("{:.1}", r.repair_bytes as f64 / 1024.0),
                    format!("{:.1}", r.repair_throttled_bytes as f64 / 1024.0),
                    r.repairs_skipped_lazy.to_string(),
                    r.repaired_blocks.to_string(),
                    r.backlog.to_string(),
                ]
            })
            .collect();
        render_table(
            "Redundancy: availability vs storage vs repair bandwidth (shared churn trace)",
            &[
                "policy",
                "ideal-x",
                "stored-x",
                "node-unavail",
                "avail",
                "repair-KiB",
                "throttled-KiB",
                "lazy-skips",
                "repaired",
                "backlog",
            ],
            &rows,
        )
    }
}

/// Runs the sweep at a scale preset (no tracing).
pub fn run(scale: Scale, seed: u64, jobs: usize) -> Redundancy {
    run_traced(scale, seed, jobs, &SharedSink::null())
}

/// Runs the sweep at a scale preset, recording the clusters'
/// migration/repair trace events into `sink`.
pub fn run_traced(scale: Scale, seed: u64, jobs: usize, sink: &SharedSink) -> Redundancy {
    run_cfg(&RedundancyConfig::at_scale(scale, seed), jobs, sink)
}

/// Runs the sweep for an explicit configuration. Cells fan out over
/// `jobs` workers; each buffers its events privately and the buffers
/// are merged in sweep order, so all output is byte-identical at any
/// worker count.
pub fn run_cfg(cfg: &RedundancyConfig, jobs: usize, sink: &SharedSink) -> Redundancy {
    let cells: Vec<usize> = (0..cfg.policies.len()).collect();
    let enabled = sink.enabled();
    let outcomes = exec::parallel_map(&cells, jobs, |i, _| {
        exec::traced(enabled, |cell_sink| {
            run_cell(cfg, cfg.policies[i], cell_sink)
        })
    });
    let mut rows = Vec::with_capacity(outcomes.len());
    for (row, events) in outcomes {
        sink.extend(events);
        rows.push(row);
    }
    Redundancy { rows }
}

/// What happens at one instant of the cell's event loop. Ordering at
/// equal times: membership transitions first (the world changes), then
/// repair rounds (the protocol reacts), then probes (the user observes).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Transition(usize, bool),
    Repair,
    Probe,
}

fn run_cell(cfg: &RedundancyConfig, policy: RedundancyPolicy, sink: &SharedSink) -> RedundancyRow {
    // Shared streams: the failure trace (coord 1) and the block keys
    // (coord 2) never include the cell index, so every policy faces the
    // same world.
    let trace = if cfg.churn > 0.0 {
        let base = FailureModel::default();
        let model = FailureModel {
            mttf_secs: base.mttf_secs / cfg.churn,
            correlated_events: base.correlated_events * cfg.churn,
            duration_secs: cfg.duration.as_micros() as f64 / 1e6,
            ..base
        };
        FailureTrace::generate(
            cfg.nodes,
            &model,
            &mut StdRng::seed_from_u64(exec::derive_seed(cfg.seed, &[1])),
        )
    } else {
        FailureTrace::none(cfg.nodes, cfg.duration)
    };

    let (replicas, redundancy) = match policy {
        RedundancyPolicy::Replicate { r } => (r, None),
        ec => (3, Some(ec)),
    };
    let ccfg = ClusterConfig {
        nodes: cfg.nodes,
        replicas,
        redundancy,
        repair_budget_bps: cfg.repair_budget_bps,
        seed: exec::derive_seed(cfg.seed, &[3]),
    };
    let mut cluster = SimCluster::new(SystemKind::D2, &ccfg);
    if sink.enabled() {
        cluster.record_trace();
    }

    // Ring positions, captured while everyone is up, so a returning
    // node rejoins where it left (as its disk would make it).
    let ids: Vec<Key> = (0..cfg.nodes)
        .map(|i| cluster.ring.id_of(NodeIdx(i)).expect("node starts live"))
        .collect();

    let mut keyrng = StdRng::seed_from_u64(exec::derive_seed(cfg.seed, &[2]));
    let keys: Vec<Key> = (0..cfg.blocks).map(|_| Key::random(&mut keyrng)).collect();
    cluster.preload(keys.iter().map(|&k| (k, cfg.block_len)));

    let mut row = RedundancyRow {
        policy,
        trace_unavailability: trace.mean_unavailability(),
        probes: 0,
        unavailable: 0,
        ideal_storage_factor: policy.storage_factor(),
        stored_factor: 0.0,
        repair_bytes: 0,
        repair_throttled_bytes: 0,
        repairs_skipped_lazy: 0,
        repaired_blocks: 0,
        backlog: 0,
        migration_bytes: 0,
    };

    // Merge the three event streams into one sorted schedule.
    let mut events: Vec<(u64, Ev)> = Vec::new();
    for (t, node, up) in trace.transitions() {
        events.push((t.as_micros(), Ev::Transition(node, up)));
    }
    let horizon = cfg.duration.as_micros();
    let mut t = REPAIR_INTERVAL.as_micros();
    while t < horizon {
        events.push((t, Ev::Repair));
        t += REPAIR_INTERVAL.as_micros();
    }
    let mut t = PROBE_INTERVAL.as_micros();
    while t < horizon {
        events.push((t, Ev::Probe));
        t += PROBE_INTERVAL.as_micros();
    }
    events.sort();

    for (t_us, ev) in events {
        let now = SimTime::from_micros(t_us);
        match ev {
            Ev::Transition(node, up) => {
                if up {
                    cluster.node_up_at(NodeIdx(node), ids[node], now);
                } else {
                    cluster.node_down(NodeIdx(node), now);
                }
            }
            Ev::Repair => {
                row.repaired_blocks += cluster.run_repair_round(now) as u64;
            }
            Ev::Probe => {
                for key in &keys {
                    row.probes += 1;
                    if !cluster.is_available(key, now) {
                        row.unavailable += 1;
                    }
                }
            }
        }
    }

    let stored: u64 = cluster.total_load_bytes().iter().sum();
    let logical = cfg.blocks as u64 * cfg.block_len as u64;
    row.stored_factor = if logical == 0 {
        0.0
    } else {
        stored as f64 / logical as f64
    };
    row.repair_bytes = cluster.stats.repair_bytes;
    row.repair_throttled_bytes = cluster.stats.repair_throttled_bytes;
    row.repairs_skipped_lazy = cluster.stats.repairs_skipped_lazy;
    row.backlog = cluster.repair_queue_len() as u64;
    row.migration_bytes = cluster.stats.migration_bytes;
    sink.extend(cluster.take_trace());
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(policies: Vec<RedundancyPolicy>) -> RedundancyConfig {
        RedundancyConfig {
            nodes: 32,
            duration: SimTime::from_secs_f64(0.5 * 86_400.0),
            blocks: 48,
            block_len: 16 << 10,
            policies,
            repair_budget_bps: 8 << 10,
            churn: 6.0,
            seed: 11,
        }
    }

    #[test]
    fn replication_cell_repairs_eagerly() {
        let r = run_cfg(
            &tiny_cfg(vec![RedundancyPolicy::Replicate { r: 3 }]),
            1,
            &SharedSink::null(),
        );
        let row = &r.rows[0];
        assert!(row.trace_unavailability > 0.01, "8x churn must bite");
        assert!(row.probes > 0);
        assert!(row.availability() > 0.9, "got {}", row.availability());
        // Replication never uses the lazy queue or its budget.
        assert_eq!(row.repair_bytes, 0);
        assert_eq!(row.repair_throttled_bytes, 0);
        assert_eq!(row.backlog, 0);
        // But crashes must have forced eager regeneration traffic.
        assert!(row.migration_bytes > 0);
        // A fault-free run stores exactly 3x; stale copies on downed
        // nodes can only push the measured factor up.
        assert!(row.stored_factor >= 2.5, "got {}", row.stored_factor);
    }

    #[test]
    fn erasure_cell_exercises_the_lazy_budgeted_path() {
        let r = run_cfg(
            &tiny_cfg(vec![RedundancyPolicy::ErasureCode { k: 4, n: 8 }]),
            1,
            &SharedSink::null(),
        );
        let row = &r.rows[0];
        assert!(
            row.repairs_skipped_lazy > 0 || row.repair_bytes > 0,
            "churn must reach the lazy-repair triage"
        );
        assert!(row.availability() > 0.9, "got {}", row.availability());
        assert!(
            row.stored_factor < 2.8,
            "ec(4,8) should store ~2x, got {}",
            row.stored_factor
        );
    }

    /// A reproduction gap (ROADMAP items 9 and 20). EXPERIMENTS.md's seed-42
    /// table has `ec(4,8)` matching r = 3 at 2x storage, the Leslie
    /// result; summed over seeds 1–8 at the quick scale it shows,
    /// every erasure shape stores less than r = 3 and is less available.
    /// Measured means: r=3 99.83 %, ec(4,8) 99.60 %, ec(2,4) 98.23 %,
    /// ec(8,12) 97.02 %. This asserts the measured direction, so a repair
    /// change that closes the gap flips it.
    #[test]
    fn erasure_shapes_trail_r3_availability_in_aggregate() {
        let policies = RedundancyConfig::at_scale(Scale::Quick, 0).policies;
        assert_eq!(policies[0], RedundancyPolicy::Replicate { r: 3 });
        let mut sums = vec![(0.0, 0.0); policies.len()];
        for seed in 1..=8 {
            let cfg = RedundancyConfig::at_scale(Scale::Quick, seed);
            for (sum, row) in sums
                .iter_mut()
                .zip(run_cfg(&cfg, 1, &SharedSink::null()).rows)
            {
                sum.0 += row.availability();
                sum.1 += row.stored_factor;
            }
        }
        let (r3_avail, r3_stored) = sums[0];
        for (policy, &(avail, stored)) in policies.iter().zip(&sums) {
            if policy.is_erasure() {
                let at = format!("{}: avail {avail} stored {stored}", policy.label());
                assert!(
                    stored < r3_stored && avail < r3_avail,
                    "{at} vs r=3 {r3_avail}"
                );
            }
        }
    }

    #[test]
    fn rows_and_render_are_deterministic_across_jobs() {
        let cfg = tiny_cfg(vec![
            RedundancyPolicy::Replicate { r: 3 },
            RedundancyPolicy::ErasureCode { k: 2, n: 4 },
            RedundancyPolicy::ErasureCode { k: 4, n: 8 },
        ]);
        let sink1 = SharedSink::memory(0);
        let a = run_cfg(&cfg, 1, &sink1);
        let ev1 = sink1.drain();
        let mut last = (a.rows.clone(), a.render(), d2_obs::to_jsonl(&ev1));
        for jobs in [2usize, 8] {
            let sink = SharedSink::memory(0);
            let b = run_cfg(&cfg, jobs, &sink);
            let ev = sink.drain();
            let cur = (b.rows.clone(), b.render(), d2_obs::to_jsonl(&ev));
            assert_eq!(last.0, cur.0, "rows diverge at jobs={jobs}");
            assert_eq!(last.1, cur.1, "render diverges at jobs={jobs}");
            assert_eq!(last.2, cur.2, "trace diverges at jobs={jobs}");
            last = cur;
        }
        assert!(!last.2.is_empty(), "clusters must record trace events");
    }

    #[test]
    fn render_has_one_row_per_policy() {
        let red = run_cfg(
            &tiny_cfg(vec![
                RedundancyPolicy::Replicate { r: 3 },
                RedundancyPolicy::ErasureCode { k: 2, n: 4 },
            ]),
            2,
            &SharedSink::null(),
        );
        let table = red.render();
        assert_eq!(red.rows.len(), 2);
        assert!(table.contains("r=3"));
        assert!(table.contains("ec(2,4)"));
        assert_eq!(table.lines().count(), 5, "title + header + rule + 2 rows");
    }
}
