//! The end-to-end performance simulator (paper Section 9).
//!
//! Reproduces the Emulab methodology in simulation: nodes connected by a
//! measured-latency-like topology (mean RTT ≈ 90 ms), per-node access
//! links of 1500 or 384 kbps, pre-established TCP connections with
//! per-flow slow-start restart, a 15-transfer client concurrency cap, and
//! range-based lookup caches warmed from the trace before each measured
//! segment. Block keys come from the trace's [`TraceKeys`] table, hashed
//! once per build: a replay indexes, it does not name or hash a block.
//!
//! Each **access group** (unit of user-perceived latency) is replayed in
//! one of two modes: `Seq` — every block fetch depends on the previous
//! one; `Para` — all fetches are independent, subject to the client cap.
//! The real system sits between these extremes (Section 9.1).

use crate::cluster::SimCluster;
use crate::config::ClusterConfig;
use d2_obs::{CacheResult, Histogram, SharedSink, TraceEvent};
use d2_ring::routing::Router;
use d2_ring::NodeIdx;
use d2_sim::net::{LinkState, TcpConn, Topology};
use d2_sim::SimTime;
use d2_store::{CacheOutcome, LookupCache};
use d2_types::{Key, SystemKind, BLOCK_SIZE};
use d2_workload::{FileOp, HarvardTrace, Task, TraceKeys};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Whether a group's fetches are issued sequentially or in parallel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// All accesses in a group are dependent (issued one at a time).
    Seq,
    /// No accesses are dependent (all issued at once, client cap applies).
    Para,
}

/// Performance-model knobs.
#[derive(Clone, Copy, Debug)]
pub struct PerfConfig {
    /// Per-node access link rate in kbps (paper: 1500 or 384).
    pub access_kbps: u64,
    /// Target mean pairwise RTT in ms (paper: ≈ 90).
    pub mean_rtt_ms: f64,
    /// Maximum simultaneous transfers per client (paper: 15).
    pub max_parallel: usize,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            access_kbps: 1500,
            mean_rtt_ms: 90.0,
            max_parallel: 15,
        }
    }
}

/// Measurements from one replayed segment.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfReport {
    /// Routed-lookup messages sent (forwards + replies), system-wide.
    pub lookup_messages: u64,
    /// Routed lookups performed.
    pub routed_lookups: u64,
    /// Lookup-cache hits (fresh).
    pub cache_hits: u64,
    /// Lookup-cache misses.
    pub cache_misses: u64,
    /// Cache hits that turned out stale (wasted RTT, then routed).
    pub stale_hits: u64,
    /// Completion time of each measured access group, aligned with the
    /// `groups_measure` argument.
    pub group_latencies: Vec<f64>,
    /// User owning each measured group (same alignment).
    pub group_users: Vec<u32>,
    /// Number of nodes in the system.
    pub nodes: usize,
    /// Distribution of routed-lookup hop counts.
    pub hop_hist: Histogram,
    /// Distribution of routed-lookup latencies (µs, hops + reply).
    pub lookup_latency_us: Histogram,
    /// Distribution of per-block fetch latencies (µs, lookup + transfer).
    pub fetch_latency_us: Histogram,
    /// Distribution of measured group completion times (µs; groups with
    /// no reads are excluded).
    pub group_latency_us: Histogram,
}

impl PerfReport {
    /// Mean per-user lookup-cache miss rate (Figure 13).
    pub fn cache_miss_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_misses as f64 / total as f64
        }
    }

    /// Lookup messages per node (Figure 9's y-axis).
    pub fn lookup_messages_per_node(&self) -> f64 {
        self.lookup_messages as f64 / self.nodes.max(1) as f64
    }
}

/// The performance simulation driver.
#[derive(Clone, Debug)]
pub struct PerfSim {
    /// Cluster with warmed-up placement.
    pub cluster: SimCluster,
    topo: Topology,
    router: Router,
    server_links: Vec<LinkState>,
    conns: HashMap<(u32, usize), TcpConn>,
    caches: HashMap<u32, LookupCache>,
    client_node: HashMap<u32, usize>,
    /// Every block key of the trace under the cluster's encoding; clones
    /// share the table.
    keys: Arc<TraceKeys>,
    cfg: PerfConfig,
    rng: StdRng,
    /// Trace sink for fetch/route/cache-probe events (null by default).
    obs: SharedSink,
    // Reusable scratch buffers: a group's keys are collected and a block
    // fetched once per access across warmup + measurement, so per-call
    // allocations here dominate the suite's heap traffic. Taken with
    // `mem::take` around each use.
    group_buf: Vec<NodeIdx>,
    path_buf: Vec<NodeIdx>,
    keys_buf: Vec<(Key, u32)>,
    seen_buf: HashSet<Key>,
}

impl PerfSim {
    /// Builds the performance testbed: preload the file system, stabilize
    /// positions (for balancing systems), build routing tables and the
    /// network topology, and pin each user to a random client node.
    pub fn build(
        system: SystemKind,
        cluster_cfg: &ClusterConfig,
        perf_cfg: &PerfConfig,
        trace: &HarvardTrace,
        warmup_days: f64,
    ) -> PerfSim {
        let sim = crate::avail::AvailabilitySim::build(system, cluster_cfg, trace, warmup_days);
        let (cluster, keys) = (sim.cluster, sim.keys);
        let mut rng = StdRng::seed_from_u64(cluster_cfg.seed ^ 0x9e37_79b9);
        let topo = Topology::sample(cluster.len(), perf_cfg.mean_rtt_ms, &mut rng);
        let router = Router::build(&cluster.ring, cluster_cfg.successors);
        let server_links = vec![LinkState::new_kbps(perf_cfg.access_kbps); cluster.len()];
        let mut client_node = HashMap::new();
        for a in &trace.accesses {
            client_node
                .entry(a.user)
                .or_insert_with(|| rng.random_range(0..cluster.len()));
        }
        PerfSim {
            cluster,
            topo,
            router,
            server_links,
            conns: HashMap::new(),
            caches: HashMap::new(),
            client_node,
            keys,
            cfg: *perf_cfg,
            rng,
            obs: SharedSink::null(),
            group_buf: Vec::new(),
            path_buf: Vec::new(),
            keys_buf: Vec::new(),
            seen_buf: HashSet::new(),
        }
    }

    /// Attaches a trace sink to the driver and its cluster: per-fetch
    /// [`TraceEvent::Fetch`], per-lookup [`TraceEvent::Route`], cache
    /// probes, and access-group spans are recorded into it. Cloned sinks
    /// share one buffer, so one sink can observe a whole experiment.
    pub fn set_trace_sink(&mut self, sink: SharedSink) {
        self.cluster.set_trace_sink(sink.clone());
        self.obs = sink;
    }

    /// Re-provisions every access link at `kbps` (for the 1500 vs 384
    /// sweep of Figure 10) and resets connection state.
    pub fn set_access_kbps(&mut self, kbps: u64) {
        self.cfg.access_kbps = kbps;
        self.server_links = vec![LinkState::new_kbps(kbps); self.cluster.len()];
        self.conns.clear();
    }

    /// The keys fetched by a group (inode + data blocks of each read,
    /// deduplicated — the 30 s buffer cache absorbs repeats), written
    /// into `out` so drivers reuse one buffer across groups.
    fn group_keys_into(&mut self, trace: &HarvardTrace, group: &Task, out: &mut Vec<(Key, u32)>) {
        out.clear();
        self.seen_buf.clear();
        for &i in &group.indices {
            let a = &trace.accesses[i];
            if a.op != FileOp::Read {
                continue;
            }
            for (key, block_no) in self.keys.access(a) {
                if self.seen_buf.insert(key) {
                    let len = if block_no == 0 {
                        256
                    } else {
                        BLOCK_SIZE as u32
                    };
                    out.push((key, len));
                }
            }
        }
    }

    /// Warms users' lookup caches by replaying `groups` without timing:
    /// every fetched key installs the owner's range, timestamped at the
    /// access time so the 1.25 h TTL applies across the timeline.
    pub fn warm_caches(&mut self, trace: &HarvardTrace, groups: &[Task]) {
        let mut keys = std::mem::take(&mut self.keys_buf);
        for group in groups {
            self.group_keys_into(trace, group, &mut keys);
            let ttl = self.cluster.cfg.cache_ttl;
            for &(key, _) in &keys {
                let cache = self
                    .caches
                    .entry(group.user)
                    .or_insert_with(|| LookupCache::new(ttl));
                if cache.peek(&key, group.start).is_none() {
                    if let Some(owner) = self.cluster.ring.owner_of(&key) {
                        if let Some(range) = self.cluster.ring.range_of(owner) {
                            cache.insert(range, owner.0, group.start);
                        }
                    }
                }
            }
        }
        self.keys_buf = keys;
        for cache in self.caches.values_mut() {
            cache.reset_stats();
        }
    }

    /// Replays `groups` in `mode`, measuring completion times and lookup
    /// traffic.
    pub fn run(&mut self, trace: &HarvardTrace, groups: &[Task], mode: Parallelism) -> PerfReport {
        let mut report = PerfReport {
            nodes: self.cluster.ring.len(),
            ..Default::default()
        };
        let mut keys = std::mem::take(&mut self.keys_buf);
        for group in groups {
            self.group_keys_into(trace, group, &mut keys);
            if keys.is_empty() {
                report.group_latencies.push(0.0);
                report.group_users.push(group.user);
                continue;
            }
            let latency = match mode {
                Parallelism::Seq => self.run_seq(group, &keys, &mut report),
                Parallelism::Para => self.run_para(group, &keys, &mut report),
            };
            let dur_us = SimTime::from_secs_f64(latency).as_micros();
            report.group_latency_us.record(dur_us);
            self.obs.record_with(|| TraceEvent::Span {
                t_us: group.start.as_micros(),
                name: "access_group".to_string(),
                user: group.user,
                dur_us,
                items: keys.len() as u32,
            });
            report.group_latencies.push(latency);
            report.group_users.push(group.user);
        }
        self.keys_buf = keys;
        report
    }

    fn run_seq(&mut self, group: &Task, keys: &[(Key, u32)], report: &mut PerfReport) -> f64 {
        let mut t = group.start;
        for &(key, len) in keys {
            let d = self.fetch_one(group.user, key, len, t, report);
            t += d;
        }
        (t - group.start).as_secs_f64()
    }

    fn run_para(&mut self, group: &Task, keys: &[(Key, u32)], report: &mut PerfReport) -> f64 {
        // List scheduling over `max_parallel` client slots.
        let mut slots = vec![group.start; self.cfg.max_parallel.max(1)];
        let mut done = group.start;
        for &(key, len) in keys {
            // Earliest-free slot.
            let (si, &start) = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, &s)| s)
                .expect("nonempty");
            let d = self.fetch_one(group.user, key, len, start, report);
            let finish = start + d;
            slots[si] = finish;
            if finish > done {
                done = finish;
            }
        }
        (done - group.start).as_secs_f64()
    }

    /// One block fetch: lookup (cache or routed) then TCP transfer from a
    /// random replica. Returns the elapsed time.
    fn fetch_one(
        &mut self,
        user: u32,
        key: Key,
        len: u32,
        now: SimTime,
        report: &mut PerfReport,
    ) -> SimTime {
        let client = *self.client_node.get(&user).unwrap_or(&0);
        let ttl = self.cluster.cfg.cache_ttl;
        let cache = self
            .caches
            .entry(user)
            .or_insert_with(|| LookupCache::new(ttl));

        let mut lookup_delay = SimTime::ZERO;
        let mut result = CacheResult::Miss;
        let mut cached = None;
        if let CacheOutcome::Hit { node } = cache.probe_traced(&key, now, user, &self.obs) {
            let fresh = self
                .cluster
                .ring
                .range_of(NodeIdx(node))
                .map(|r| r.contains(&key))
                .unwrap_or(false);
            if fresh {
                report.cache_hits += 1;
                result = CacheResult::Hit;
                cached = Some(NodeIdx(node));
            } else {
                // Stale: wasted round trip to the cached node, then a
                // routed lookup.
                report.stale_hits += 1;
                result = CacheResult::Stale;
                cache.invalidate_node(node);
                lookup_delay += self.topo.rtt(client, node % self.topo.len());
            }
        }
        let mut hop_us = Vec::new();
        let owner = match cached {
            Some(owner) => owner,
            None => {
                let (owner, lat, hops) = self.routed_lookup(user, client, key, now, report);
                lookup_delay += lat;
                hop_us = hops;
                owner
            }
        };
        // Choose a replica uniformly (the paper notes D2 selects replicas
        // randomly). The group goes into a reusable buffer — this runs
        // once per block access.
        let mut group = std::mem::take(&mut self.group_buf);
        self.cluster
            .ring
            .replica_group_into(&key, self.cluster.cfg.replicas, &mut group);
        let server = if group.is_empty() {
            owner
        } else {
            group[self.rng.random_range(0..group.len())]
        };
        self.group_buf = group;
        let server_addr = server.0 % self.topo.len();
        let rtt = self.topo.rtt(client, server_addr);
        // Queueing on the server's access link.
        let backlog = self.server_links[server_addr].backlog(now);
        self.server_links[server_addr].transmit(now, len as u64);
        // TCP transfer with slow-start restart semantics.
        let conn = self.conns.entry((user, server_addr)).or_default();
        let transfer = conn.fetch(now + backlog, len as u64, rtt, self.cfg.access_kbps * 1000);
        let total = lookup_delay + backlog + transfer;
        report.fetch_latency_us.record(total.as_micros());
        self.obs.record_with(|| TraceEvent::Fetch {
            t_us: now.as_micros(),
            user,
            key: key.to_u64_lossy(),
            result,
            lookup_us: lookup_delay.as_micros(),
            hop_us,
            transfer_us: (backlog + transfer).as_micros(),
            total_us: total.as_micros(),
            server: server.0,
            len,
        });
        total
    }

    /// Routed lookup: counts messages and installs the cache entry.
    /// Returns the owner, the lookup's latency and, when tracing, its
    /// per-hop split.
    fn routed_lookup(
        &mut self,
        user: u32,
        client: usize,
        key: Key,
        now: SimTime,
        report: &mut PerfReport,
    ) -> (NodeIdx, SimTime, Vec<u64>) {
        report.cache_misses += 1;
        let from = self.nearest_ring_node(client);
        // The hop path goes into a reusable buffer ([`Router::lookup`]
        // would allocate one per lookup); the Route event's owned copy is
        // only built when a sink is attached.
        let mut path = std::mem::take(&mut self.path_buf);
        let (owner, hops, messages) = self
            .router
            .lookup_into(&self.cluster.ring, from, &key, &mut path)
            .expect("ring nonempty");
        self.obs.record_with(|| TraceEvent::Route {
            t_us: now.as_micros(),
            user,
            key: key.to_u64_lossy(),
            from: from.0,
            owner: owner.0,
            hops,
            messages,
            path: path.iter().map(|n| n.0).collect(),
        });
        report.routed_lookups += 1;
        report.lookup_messages += messages as u64;
        report.hop_hist.record(hops as u64);
        // Lookup latency: hop path one-way latencies plus the reply. The
        // per-hop split is only materialized when a sink is attached.
        let trace_hops = self.obs.enabled();
        let mut hop_us: Vec<u64> = Vec::new();
        let mut lat = SimTime::ZERO;
        let mut prev = client;
        for hop in &path {
            let addr = hop.0 % self.topo.len();
            let one_way = self.topo.one_way(prev, addr);
            if trace_hops {
                hop_us.push(one_way.as_micros());
            }
            lat += one_way;
            prev = addr;
        }
        self.path_buf = path;
        let reply = self.topo.one_way(prev, client);
        if trace_hops {
            hop_us.push(reply.as_micros());
        }
        lat += reply;
        report.lookup_latency_us.record(lat.as_micros());
        let ttl = self.cluster.cfg.cache_ttl;
        let cache = self
            .caches
            .entry(user)
            .or_insert_with(|| LookupCache::new(ttl));
        if let Some(range) = self.cluster.ring.range_of(owner) {
            cache.insert(range, owner.0, now);
        }
        (owner, lat, hop_us)
    }

    /// The ring node co-located with (or closest to) a client address.
    fn nearest_ring_node(&self, client: usize) -> NodeIdx {
        if self.cluster.ring.contains(NodeIdx(client)) {
            return NodeIdx(client);
        }
        self.cluster.ring.first_node().expect("ring nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2_workload::{split_access_groups, HarvardConfig};

    fn trace() -> HarvardTrace {
        let cfg = HarvardConfig {
            users: 6,
            days: 0.5,
            initial_bytes: 24 << 20,
            reads_per_user_hour: 60.0,
            ..HarvardConfig::default()
        };
        HarvardTrace::generate(&cfg, &mut StdRng::seed_from_u64(21))
    }

    fn build(system: SystemKind, nodes: usize) -> PerfSim {
        let ccfg = ClusterConfig {
            nodes,
            replicas: 4,
            seed: 3,
            ..ClusterConfig::default()
        };
        PerfSim::build(system, &ccfg, &PerfConfig::default(), &trace(), 0.1)
    }

    #[test]
    fn d2_has_lower_miss_rate_and_fewer_messages() {
        let t = trace();
        let groups = split_access_groups(&t.accesses, SimTime::from_secs(1));
        let (warm, measure) = groups.split_at(groups.len() / 2);

        let mut d2 = build(SystemKind::D2, 32);
        d2.warm_caches(&t, warm);
        let rep_d2 = d2.run(&t, measure, Parallelism::Seq);

        let mut trad = build(SystemKind::Traditional, 32);
        trad.warm_caches(&t, warm);
        let rep_trad = trad.run(&t, measure, Parallelism::Seq);

        assert!(
            rep_d2.cache_miss_rate() < rep_trad.cache_miss_rate(),
            "d2 miss {} vs traditional {}",
            rep_d2.cache_miss_rate(),
            rep_trad.cache_miss_rate()
        );
        assert!(
            rep_d2.lookup_messages < rep_trad.lookup_messages,
            "d2 msgs {} vs traditional {}",
            rep_d2.lookup_messages,
            rep_trad.lookup_messages
        );
    }

    #[test]
    fn seq_latency_dominates_para() {
        let t = trace();
        let groups = split_access_groups(&t.accesses, SimTime::from_secs(1));
        let measure = &groups[..groups.len().min(100)];
        // Clones share the key table and replay alike.
        let base = build(SystemKind::D2, 16);
        let run = |mode| {
            let mut sim = base.clone();
            assert!(Arc::ptr_eq(&sim.keys, &base.keys));
            sim.run(&t, measure, mode)
        };
        let (seq, para) = (run(Parallelism::Seq), run(Parallelism::Para));
        assert_eq!(seq, run(Parallelism::Seq));
        assert_eq!(para, run(Parallelism::Para));
        let seq_total: f64 = seq.group_latencies.iter().sum();
        let para_total: f64 = para.group_latencies.iter().sum();
        assert!(
            para_total <= seq_total + 1e-9,
            "para {para_total} must not exceed seq {seq_total}"
        );
    }

    #[test]
    fn latencies_are_positive_and_aligned() {
        let t = trace();
        let groups = split_access_groups(&t.accesses, SimTime::from_secs(1));
        let measure = &groups[..groups.len().min(50)];
        let mut sim = build(SystemKind::D2, 16);
        let rep = sim.run(&t, measure, Parallelism::Seq);
        assert_eq!(rep.group_latencies.len(), measure.len());
        assert_eq!(rep.group_users.len(), measure.len());
        for (g, lat) in measure.iter().zip(&rep.group_latencies) {
            let has_reads = g.indices.iter().any(|&i| t.accesses[i].op == FileOp::Read);
            if has_reads {
                assert!(*lat > 0.0, "group with reads must take time");
            }
        }
    }

    #[test]
    fn tracing_records_fetches_and_matches_untraced_run() {
        let t = trace();
        let groups = split_access_groups(&t.accesses, SimTime::from_secs(1));
        let measure = &groups[..groups.len().min(40)];

        let mut plain = build(SystemKind::D2, 16);
        let rep_plain = plain.run(&t, measure, Parallelism::Seq);

        let mut traced = build(SystemKind::D2, 16);
        let sink = SharedSink::memory(0);
        traced.set_trace_sink(sink.clone());
        let rep_traced = traced.run(&t, measure, Parallelism::Seq);

        // Tracing must not perturb the simulation.
        assert_eq!(rep_plain.group_latencies, rep_traced.group_latencies);
        assert_eq!(rep_plain.lookup_messages, rep_traced.lookup_messages);

        let events = sink.drain();
        let fetches = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Fetch { .. }))
            .count() as u64;
        let routes = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Route { .. }))
            .count() as u64;
        let spans = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Span { .. }))
            .count();
        assert_eq!(
            fetches,
            rep_traced.cache_hits + rep_traced.cache_misses + rep_traced.stale_hits
        );
        assert_eq!(routes, rep_traced.routed_lookups);
        assert!(spans > 0, "each non-empty group records a span");
        // Histograms cover every fetch and every routed lookup.
        assert_eq!(rep_traced.fetch_latency_us.count(), fetches);
        assert_eq!(rep_traced.hop_hist.count(), routes);
        // Fetch events carry consistent latency splits: a routed lookup's
        // is its hops' (a stale hit's wasted round trip comes on top).
        for e in &events {
            if let TraceEvent::Fetch {
                result,
                lookup_us,
                hop_us,
                transfer_us,
                total_us,
                ..
            } = e
            {
                assert_eq!(lookup_us + transfer_us, *total_us);
                let hops: u64 = hop_us.iter().sum();
                assert_eq!(hop_us.is_empty(), *result == CacheResult::Hit);
                assert!(hops <= *lookup_us);
                assert_eq!(hops == *lookup_us, *result != CacheResult::Stale);
            }
        }
    }

    #[test]
    fn warm_cache_reduces_lookups() {
        let t = trace();
        let groups = split_access_groups(&t.accesses, SimTime::from_secs(1));
        let measure = &groups[..groups.len().min(80)];

        let mut cold = build(SystemKind::D2, 16);
        let rep_cold = cold.run(&t, measure, Parallelism::Seq);

        let mut warm = build(SystemKind::D2, 16);
        warm.warm_caches(&t, measure);
        let rep_warm = warm.run(&t, measure, Parallelism::Seq);

        assert!(rep_warm.cache_miss_rate() < rep_cold.cache_miss_rate());
        assert!(rep_warm.lookup_messages <= rep_cold.lookup_messages);
    }
}
