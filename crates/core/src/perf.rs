//! The end-to-end performance simulator (paper Section 9).
//!
//! Reproduces the Emulab methodology in simulation: nodes connected by a
//! measured-latency-like topology (mean RTT ≈ 90 ms), per-node access
//! links of 1500 or 384 kbps, pre-established TCP connections with
//! per-flow slow-start restart, a 15-transfer client concurrency cap, and
//! range-based lookup caches warmed from the trace before each measured
//! segment. Block keys come from the trace's [`TraceKeys`] table, hashed
//! once per build, and so does each key's owner rank on the static ring:
//! a replay indexes, it does not name, hash or place a block.
//!
//! Each **access group** (unit of user-perceived latency) is replayed in
//! one of two modes: `Seq` — every block fetch depends on the previous
//! one; `Para` — all fetches are independent, subject to the client cap.
//! The real system sits between these extremes (Section 9.1).

use crate::cluster::{random_ring, warmup_rounds};
use crate::config::ClusterConfig;
use d2_obs::{CacheResult, Histogram, SharedSink, TraceEvent};
use d2_ring::balance::{self, SortedKeys};
use d2_ring::routing::Router;
use d2_ring::{NodeIdx, Ring, SUCCESSORS};
use d2_sim::net::{LinkState, TcpConn, Topology};
use d2_sim::SimTime;
use d2_store::{CacheOutcome, LookupCache};
use d2_types::{Key, SystemKind, BLOCK_SIZE};
use d2_workload::{FileOp, HarvardTrace, Task, TraceKeys};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// The performance simulation driver. It holds the warmed-up ring and
/// the trace's key table, and no block or store: a replay routes, checks
/// cached ranges and picks replicas by ring position alone, so its
/// warm-up moves ring positions, not data.
#[derive(Clone, Debug)]
pub struct PerfSim {
    /// Ring membership and positions after the warm-up. Nothing moves a
    /// node afterwards: `owner_ranks` is resolved against this ring.
    ring: Ring,
    /// Replicas a fetch picks its server among.
    replicas: usize,
    topo: Topology,
    router: Router,
    server_links: Vec<LinkState>,
    // Per-user state, indexed by user (trace users are dense from 0);
    // `conns` holds one connection per (user, server address) at
    // `user * topo.len() + address`, and `rtts` the user's client's
    // round trip to that address beside it. Sized by `ensure_users`.
    conns: Vec<TcpConn>,
    rtts: Vec<SimTime>,
    caches: Vec<LookupCache>,
    client_node: Vec<usize>,
    /// Every block key of the trace under the cluster's encoding; clones
    /// share the table.
    keys: Arc<TraceKeys>,
    /// The ring rank of each table position's owner, so a key's replica
    /// group is ranks `r..r + replicas`; clones share the table.
    owner_ranks: Arc<[u32]>,
    cfg: PerfConfig,
    rng: StdRng,
    /// Trace sink for fetch/route/cache-probe events (null by default).
    obs: SharedSink,
    // Reusable scratch buffers: a group's keys are collected and a block
    // fetched once per access across warmup + measurement, so per-call
    // allocations here dominate the suite's heap traffic. Taken with
    // `mem::take` around each use.
    path_buf: Vec<NodeIdx>,
    /// A group's blocks as `(table position, stored length)`.
    keys_buf: Vec<(usize, u32)>,
    /// Marks, by table position, the blocks the group being collected
    /// already holds; all clear between groups.
    seen_buf: Vec<bool>,
}

impl PerfSim {
    /// Builds the performance testbed: stabilize positions (for balancing
    /// systems), build routing tables and the network topology, and pin
    /// each user to a random client node.
    ///
    /// The warm-up runs the balance rounds of
    /// [`AvailabilitySim::build`](crate::AvailabilitySim::build) on the
    /// same random ring and generator, reading loads from the initial
    /// file system's sorted keys instead of from stores. With no failure,
    /// write or removal in a warm-up, every node there stores exactly the
    /// initial keys in its range, so each probe reads the same loads and
    /// split keys, the rounds make the same moves, and the ring comes
    /// out the same, without a block placed or moved.
    pub fn build(
        system: SystemKind,
        cluster_cfg: &ClusterConfig,
        perf_cfg: &PerfConfig,
        trace: &HarvardTrace,
        warmup_days: f64,
    ) -> PerfSim {
        let keys = Arc::new(TraceKeys::build(&trace.namespace, system));
        let (mut ring, mut balance_rng) = random_ring(cluster_cfg);
        if system.balances_actively() {
            let initial = keys.initial(&trace.namespace).into_iter();
            let mut held: Vec<Key> = initial.map(|(key, _)| key).collect();
            held.sort_unstable();
            let loads = SortedKeys::new(&held);
            for _ in warmup_rounds(warmup_days) {
                balance::run_round(&mut ring, &loads, &mut balance_rng);
            }
        }
        // No node fails during the warm-up: every handle is in the ring.
        let nodes = ring.capacity();
        let mut rng = StdRng::seed_from_u64(cluster_cfg.seed ^ 0x9e37_79b9);
        let topo = Topology::sample(nodes, perf_cfg.mean_rtt_ms, &mut rng);
        let router = Router::build(&ring, SUCCESSORS);
        let server_links = vec![LinkState::new_kbps(perf_cfg.access_kbps); nodes];
        // Each user's client node is drawn at its first access.
        let users = trace.accesses.iter().map(|a| a.user as usize + 1).max();
        let mut client_node = vec![None; users.unwrap_or(0)];
        for a in &trace.accesses {
            client_node[a.user as usize].get_or_insert_with(|| rng.random_range(0..nodes));
        }
        let owner_ranks = (0..keys.len())
            .map(|at| {
                let owner = ring.owner_of(&keys.key_at(at)).expect("ring nonempty");
                let rank = ring.rank_of(owner).expect("an owner is in the ring");
                u32::try_from(rank).expect("fewer than 2^32 nodes")
            })
            .collect();
        let seen_buf = vec![false; keys.len()];
        let mut sim = PerfSim {
            ring,
            replicas: cluster_cfg.replicas,
            topo,
            router,
            server_links,
            conns: Vec::new(),
            rtts: Vec::new(),
            caches: Vec::new(),
            client_node: client_node.iter().map(|c| c.unwrap_or(0)).collect(),
            keys,
            owner_ranks,
            cfg: *perf_cfg,
            rng,
            obs: SharedSink::null(),
            path_buf: Vec::new(),
            keys_buf: Vec::new(),
            seen_buf,
        };
        sim.ensure_users(sim.client_node.len());
        sim
    }

    /// Sizes the per-user state for users `0..users`. A user the trace
    /// never named replays from client node 0.
    fn ensure_users(&mut self, users: usize) {
        if users > self.caches.len() {
            let from = self.caches.len();
            self.caches
                .resize_with(users, LookupCache::with_default_ttl);
            self.client_node.resize(users, 0);
            let addrs = self.topo.len();
            self.conns.resize(users * addrs, TcpConn::default());
            for &client in &self.client_node[from..] {
                let row = (0..addrs).map(|addr| self.topo.rtt(client, addr));
                self.rtts.extend(row);
            }
        }
    }

    /// The warmed-up ring the replay runs on; it never changes after
    /// [`PerfSim::build`].
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Attaches a trace sink: per-fetch [`TraceEvent::Fetch`], per-lookup
    /// [`TraceEvent::Route`], cache probes, and access-group spans are
    /// recorded into it. Cloned sinks share one buffer, so one sink can
    /// observe a whole experiment.
    pub fn set_trace_sink(&mut self, sink: SharedSink) {
        self.obs = sink;
    }

    /// Re-provisions every access link at `kbps` (for the 1500 vs 384
    /// sweep of Figure 10) and resets connection state.
    pub fn set_access_kbps(&mut self, kbps: u64) {
        self.cfg.access_kbps = kbps;
        self.server_links = vec![LinkState::new_kbps(kbps); self.ring.capacity()];
        self.conns.fill(TcpConn::default());
    }

    /// The blocks fetched by a group (inode + data blocks of each read,
    /// deduplicated — the 30 s buffer cache absorbs repeats) as
    /// `(table position, length)`, written into `out` so drivers reuse
    /// one buffer across groups. Also sizes the per-user state for the
    /// group's user.
    fn group_keys_into(&mut self, trace: &HarvardTrace, group: &Task, out: &mut Vec<(usize, u32)>) {
        self.ensure_users(group.user as usize + 1);
        out.clear();
        for &i in &group.indices {
            let a = &trace.accesses[i];
            if a.op != FileOp::Read {
                continue;
            }
            for (at, block_no) in self.keys.access_indices(a) {
                if !std::mem::replace(&mut self.seen_buf[at], true) {
                    let len = if block_no == 0 {
                        256
                    } else {
                        BLOCK_SIZE as u32
                    };
                    out.push((at, len));
                }
            }
        }
        for &(at, _) in out.iter() {
            self.seen_buf[at] = false;
        }
    }

    /// Warms users' lookup caches by replaying `groups` without timing:
    /// every fetched key installs the owner's range, timestamped at the
    /// access time so the 1.25 h TTL applies across the timeline.
    pub fn warm_caches(&mut self, trace: &HarvardTrace, groups: &[Task]) {
        let mut keys = std::mem::take(&mut self.keys_buf);
        for group in groups {
            self.group_keys_into(trace, group, &mut keys);
            for &(at, _) in &keys {
                let key = self.keys.key_at(at);
                let cache = &mut self.caches[group.user as usize];
                if cache.peek(&key, group.start).is_none() {
                    if let Some(owner) = self.ring.node_at_rank(self.owner_ranks[at] as usize) {
                        if let Some(range) = self.ring.range_of(owner) {
                            cache.insert(range, owner.0, group.start);
                        }
                    }
                }
            }
        }
        self.keys_buf = keys;
        for cache in &mut self.caches {
            cache.reset_stats();
        }
    }

    /// Replays `groups` in `mode`, measuring completion times and lookup
    /// traffic.
    pub fn run(&mut self, trace: &HarvardTrace, groups: &[Task], mode: Parallelism) -> PerfReport {
        let mut report = PerfReport {
            nodes: self.ring.len(),
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

    fn run_seq(&mut self, group: &Task, keys: &[(usize, u32)], report: &mut PerfReport) -> f64 {
        let mut t = group.start;
        for &(at, len) in keys {
            let d = self.fetch_one(group.user, at, len, t, report);
            t += d;
        }
        (t - group.start).as_secs_f64()
    }

    fn run_para(&mut self, group: &Task, keys: &[(usize, u32)], report: &mut PerfReport) -> f64 {
        // List scheduling over `max_parallel` client slots.
        let mut slots = vec![group.start; self.cfg.max_parallel.max(1)];
        let mut done = group.start;
        for &(at, len) in keys {
            // Earliest-free slot.
            let (si, &start) = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, &s)| s)
                .expect("nonempty");
            let d = self.fetch_one(group.user, at, len, start, report);
            let finish = start + d;
            slots[si] = finish;
            if finish > done {
                done = finish;
            }
        }
        (done - group.start).as_secs_f64()
    }

    /// One block fetch of table position `at`: lookup (cache or routed)
    /// then TCP transfer from a random replica. Returns the elapsed time.
    /// The replica group is the ranks from the key's owner rank on; its
    /// head is the owner, so a cache hit is fresh when it names that node,
    /// and a hit searches neither the ring nor the topology.
    fn fetch_one(
        &mut self,
        user: u32,
        at: usize,
        len: u32,
        now: SimTime,
        report: &mut PerfReport,
    ) -> SimTime {
        let client = self.client_node[user as usize];
        let key = self.keys.key_at(at);
        let rank = self.owner_ranks[at] as usize;
        let owner_now = self.ring.node_at_rank(rank);
        let row = user as usize * self.topo.len();
        let cache = &mut self.caches[user as usize];

        let mut lookup_delay = SimTime::ZERO;
        let mut result = CacheResult::Miss;
        let mut cached = None;
        if let CacheOutcome::Hit { node } = cache.probe_traced(&key, now, user, &self.obs) {
            // Fresh exactly when the cached node's range still holds the
            // key, i.e. when it is still the key's owner.
            if owner_now == Some(NodeIdx(node)) {
                report.cache_hits += 1;
                result = CacheResult::Hit;
                cached = Some(NodeIdx(node));
            } else {
                // Stale: wasted round trip to the cached node, then a
                // routed lookup.
                report.stale_hits += 1;
                result = CacheResult::Stale;
                cache.invalidate_node(node);
                lookup_delay += self.rtts[row + node % self.topo.len()];
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
        // randomly).
        let group = self.replicas.min(self.ring.len());
        let server = if group == 0 {
            owner
        } else {
            let replica = rank + self.rng.random_range(0..group);
            self.ring.node_at_rank(replica).expect("ring nonempty")
        };
        let server_addr = server.0 % self.topo.len();
        let rtt = self.rtts[row + server_addr];
        // Queueing on the server's access link.
        let backlog = self.server_links[server_addr].backlog(now);
        self.server_links[server_addr].transmit(now, len as u64);
        // TCP transfer with slow-start restart semantics.
        let conn = &mut self.conns[user as usize * self.topo.len() + server_addr];
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
            .lookup_into(&self.ring, from, &key, &mut path)
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
        if let Some(range) = self.ring.range_of(owner) {
            self.caches[user as usize].insert(range, owner.0, now);
        }
        (owner, lat, hop_us)
    }

    /// The ring node co-located with (or closest to) a client address.
    fn nearest_ring_node(&self, client: usize) -> NodeIdx {
        if self.ring.contains(NodeIdx(client)) {
            return NodeIdx(client);
        }
        self.ring.first_node().expect("ring nonempty")
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

    /// The owner-rank table holds only on the ring it was resolved
    /// against: every table position's rank names the key's owner, and
    /// neither the cache warm-up nor a replay in either mode moves a
    /// node, so no cache hit is ever stale.
    #[test]
    fn replay_keeps_the_ring_static() {
        let t = trace();
        let groups = split_access_groups(&t.accesses, SimTime::from_secs(1));
        let (warm, measure) = groups.split_at(groups.len() / 2);
        let layout = |sim: &PerfSim| -> Vec<(Key, NodeIdx)> {
            sim.ring().iter().map(|(&id, &node)| (id, node)).collect()
        };
        for system in [SystemKind::D2, SystemKind::Traditional] {
            let mut sim = build(system, 16);
            assert_eq!(sim.owner_ranks.len(), sim.keys.len());
            for (at, &rank) in sim.owner_ranks.iter().enumerate() {
                let owner = sim.ring().owner_of(&sim.keys.key_at(at));
                let rank = rank as usize;
                assert_eq!(sim.ring().node_at_rank(rank), owner, "{system}: {at}");
            }
            let before = layout(&sim);
            sim.warm_caches(&t, warm);
            assert_eq!(layout(&sim), before, "{system}: warm-up");
            for mode in [Parallelism::Seq, Parallelism::Para] {
                let rep = sim.run(&t, measure, mode);
                assert!(rep.cache_hits > 0, "{system} {mode:?}: no hit");
                assert_eq!(rep.stale_hits, 0, "{system} {mode:?}");
                assert_eq!(layout(&sim), before, "{system} {mode:?}");
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
