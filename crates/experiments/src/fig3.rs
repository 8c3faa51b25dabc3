//! Figure 3: mean nodes accessed per user each hour, normalized against
//! the traditional scenario, for the Harvard, HP, and Web workloads.
//!
//! Scenarios (Section 4.1): **traditional** assigns blocks to uniformly
//! random nodes; **ordered** assigns keys consistent with the
//! alphabetical/preorder ordering of block names; **lower-bound** is
//! `ceil(blocks accessed / blocks per node)`, the unreachable optimum.
//! Every node stores the same number of blocks (the paper's simplifying
//! assumption for this analysis; Sections 8–9 use the real balancer).

use crate::report::{fmt, render_table};
use d2_types::{SystemKind, BLOCK_SIZE};
use d2_workload::{HarvardTrace, HpTrace, TraceKeys, WebTrace};
use std::collections::{HashMap, HashSet};

/// One workload's normalized results.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Workload label.
    pub workload: String,
    /// Mean nodes per user-hour, traditional placement (absolute).
    pub traditional_abs: f64,
    /// Ordered placement, normalized against traditional (= 1.0).
    pub ordered: f64,
    /// Lower bound, normalized against traditional.
    pub lower_bound: f64,
    /// Nodes in the scenario (total blocks / blocks-per-node).
    pub nodes: usize,
}

/// The full figure.
#[derive(Clone, Debug)]
pub struct Fig3 {
    /// One row per workload.
    pub rows: Vec<Fig3Row>,
    /// Per-node capacity used (paper: 250 MB).
    pub node_capacity_bytes: u64,
}

impl Fig3 {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.workload.clone(),
                    "1.0".to_string(),
                    fmt(r.ordered),
                    fmt(r.lower_bound),
                    r.nodes.to_string(),
                    fmt(r.traditional_abs),
                ]
            })
            .collect();
        render_table(
            "Figure 3: mean nodes accessed per user-hour (normalized to traditional)",
            &[
                "workload",
                "traditional",
                "ordered",
                "lower-bound",
                "nodes",
                "trad-abs",
            ],
            &rows,
        )
    }
}

/// `(user, hour, ordered-rank)` stream: the minimal view of a workload
/// this analysis needs.
struct RankedAccesses {
    /// Per (user, hour): the distinct block ranks accessed.
    buckets: HashMap<(u32, u64), HashSet<u64>>,
    /// Total stored blocks (defines node count).
    total_blocks: u64,
}

fn analyze(ranked: &RankedAccesses, node_capacity_bytes: u64, label: &str) -> Fig3Row {
    let blocks_per_node = (node_capacity_bytes / BLOCK_SIZE as u64).max(1);
    let nodes = ranked.total_blocks.div_ceil(blocks_per_node).max(1);
    let mut sum_trad = 0.0;
    let mut sum_ord = 0.0;
    let mut sum_lb = 0.0;
    let mut buckets = 0.0f64;
    for ranks in ranked.buckets.values() {
        if ranks.is_empty() {
            continue;
        }
        let trad: HashSet<u64> = ranks.iter().map(|&r| splitmix(r) % nodes).collect();
        let ord: HashSet<u64> = ranks.iter().map(|&r| r / blocks_per_node).collect();
        let lb = (ranks.len() as u64).div_ceil(blocks_per_node);
        sum_trad += trad.len() as f64;
        sum_ord += ord.len() as f64;
        sum_lb += lb as f64;
        buckets += 1.0;
    }
    let trad = sum_trad / buckets.max(1.0);
    Fig3Row {
        workload: label.to_string(),
        traditional_abs: trad,
        ordered: (sum_ord / buckets.max(1.0)) / trad.max(1e-12),
        lower_bound: (sum_lb / buckets.max(1.0)) / trad.max(1e-12),
        nodes: nodes as usize,
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hour_of(at: d2_sim::SimTime) -> u64 {
    at.as_secs() / 3600
}

/// Ranks a Harvard trace: blocks ordered by their locality-preserving
/// keys (preorder path order), i.e. the *ordered* scenario's layout.
fn rank_harvard(trace: &HarvardTrace) -> RankedAccesses {
    // Global ordered ranks: sort every block of every file by D2 key.
    let keys = TraceKeys::build(&trace.namespace, SystemKind::D2);
    let ids = trace.namespace.iter().map(|(id, _)| id);
    let mut sorted: Vec<d2_types::Key> = ids.flat_map(|id| keys.file(id)).copied().collect();
    sorted.sort();
    let total_blocks = sorted.len() as u64;

    let mut buckets: HashMap<(u32, u64), HashSet<u64>> = HashMap::new();
    for a in &trace.accesses {
        if a.op != d2_workload::FileOp::Read {
            continue;
        }
        let bucket = buckets.entry((a.user, hour_of(a.at))).or_default();
        for (key, _) in keys.access(a) {
            if let Ok(r) = sorted.binary_search(&key) {
                bucket.insert(r as u64);
            }
        }
    }
    RankedAccesses {
        buckets,
        total_blocks,
    }
}

/// Ranks an HP trace: the disk block number *is* the ordered rank.
fn rank_hp(trace: &HpTrace) -> RankedAccesses {
    let mut buckets: HashMap<(u32, u64), HashSet<u64>> = HashMap::new();
    for a in &trace.accesses {
        buckets
            .entry((a.app, hour_of(a.at)))
            .or_default()
            .insert(a.block_no);
    }
    RankedAccesses {
        buckets,
        total_blocks: trace.config.disk_blocks,
    }
}

/// Ranks a Web trace: objects ordered by reversed-domain name (their D2
/// keys), each expanded to its blocks.
fn rank_web(trace: &WebTrace) -> RankedAccesses {
    // Order objects by their first block's D2 key; lay blocks out in that
    // order.
    let mut order: Vec<(d2_types::Key, u32)> = trace
        .objects
        .iter()
        .enumerate()
        .map(|(i, _)| (trace.blocks_of(i as u32)[0].d2_key(), i as u32))
        .collect();
    order.sort();
    let mut first_rank: HashMap<u32, u64> = HashMap::new();
    let mut next = 0u64;
    for (_, obj) in &order {
        let nblocks = trace.blocks_of(*obj).len() as u64;
        first_rank.insert(*obj, next);
        next += nblocks;
    }
    let total_blocks = next;

    let mut buckets: HashMap<(u32, u64), HashSet<u64>> = HashMap::new();
    for a in &trace.accesses {
        let bucket = buckets.entry((a.user, hour_of(a.at))).or_default();
        let base = first_rank[&a.object];
        let nblocks = trace.blocks_of(a.object).len() as u64;
        for b in 0..nblocks {
            bucket.insert(base + b);
        }
    }
    RankedAccesses {
        buckets,
        total_blocks,
    }
}

/// Runs the Figure 3 analysis over all three workloads.
pub fn run(harvard: &HarvardTrace, hp: &HpTrace, web: &WebTrace, node_capacity_bytes: u64) -> Fig3 {
    let rows = vec![
        analyze(&rank_harvard(harvard), node_capacity_bytes, "Harvard"),
        analyze(&rank_hp(hp), node_capacity_bytes, "HP"),
        analyze(&rank_web(web), node_capacity_bytes, "Web"),
    ];
    Fig3 {
        rows,
        node_capacity_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2_workload::{HarvardConfig, HpConfig, WebConfig};
    use rand::SeedableRng;

    fn quick() -> Fig3 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let harvard = HarvardTrace::generate(
            &HarvardConfig {
                users: 8,
                days: 1.0,
                initial_bytes: 96 << 20,
                ..HarvardConfig::default()
            },
            &mut rng,
        );
        let hp = HpTrace::generate(
            &HpConfig {
                apps: 6,
                days: 1.0,
                disk_blocks: 400_000,
                ..HpConfig::default()
            },
            &mut rng,
        );
        let web = WebTrace::generate(
            // A large object universe: with too few domains the node count
            // saturates and the traditional/ordered gap collapses.
            &WebConfig {
                domains: 400,
                users: 10,
                days: 1.0,
                ..WebConfig::default()
            },
            &mut rng,
        );
        // Small per-node capacity so the scenario has enough nodes for the
        // locality gap to show (the paper's 250 MB nodes over 40–93 GB
        // traces give 160–370 nodes).
        run(&harvard, &hp, &web, 2 << 20)
    }

    #[test]
    fn ordered_beats_traditional_on_all_workloads() {
        let fig = quick();
        assert_eq!(fig.rows.len(), 3);
        for row in &fig.rows {
            assert!(
                row.ordered < 0.6,
                "{}: ordered ({}) should be well below traditional (1.0)",
                row.workload,
                row.ordered
            );
            assert!(row.lower_bound <= row.ordered + 1e-9);
            assert!(row.lower_bound > 0.0);
            assert!(row.traditional_abs >= 1.0);
            assert!(row.nodes > 1);
        }
    }

    #[test]
    fn renders_table() {
        let fig = quick();
        let text = fig.render();
        assert!(text.contains("Harvard"));
        assert!(text.contains("HP"));
        assert!(text.contains("Web"));
        assert!(text.contains("lower-bound"));
    }

    #[test]
    fn smaller_capacity_means_more_nodes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let harvard = HarvardTrace::generate(
            &HarvardConfig {
                users: 4,
                days: 0.5,
                initial_bytes: 32 << 20,
                ..HarvardConfig::default()
            },
            &mut rng,
        );
        let hp = HpTrace::generate(
            &HpConfig {
                apps: 2,
                days: 0.2,
                disk_blocks: 100_000,
                ..HpConfig::default()
            },
            &mut rng,
        );
        let web = WebTrace::generate(
            &WebConfig {
                domains: 20,
                users: 4,
                days: 0.3,
                ..WebConfig::default()
            },
            &mut rng,
        );
        let big = run(&harvard, &hp, &web, 64 << 20);
        let small = run(&harvard, &hp, &web, 8 << 20);
        for (b, s) in big.rows.iter().zip(&small.rows) {
            assert!(s.nodes > b.nodes);
        }
    }
}
