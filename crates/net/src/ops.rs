//! Client-side cluster operations shared by [`crate::Deployment`], the
//! `d2-node` command-line client, and integration tests.
//!
//! A [`ClusterOps`] wraps a [`WireClient`] plus a rotating list of entry
//! nodes. Lookups round-robin across the entries — every live node is an
//! equally good first hop, so no single node is a client-side point of
//! entry (the join *seed* is the only address with a fixed role).
//!
//! Every lookup reply carries the owner's key range, and the client
//! keeps it in the paper's §5 lookup cache ([`d2_store::LookupCache`]):
//! a `put`/`get` whose key falls inside a cached range goes straight to
//! that node, one round trip instead of a routed lookup plus one. A
//! stale entry costs latency, never correctness: a node that no longer
//! owns the key refuses with [`Response::NotOwner`], and the client
//! drops the node's entries and re-runs the op through a routed lookup.

use crate::invariants::{check_ring, RingReport};
use d2_obs::{Registry, SpanRecord, TraceCtx};
use d2_ring::messages::{Addr, PeerInfo};
use d2_sim::SimTime;
use d2_store::{CacheOutcome, LookupCache};
use d2_types::{D2Error, Key, KeyRange, Result};
use d2_wire::client::{ClientError, ReplyQueue, WireClient};
use d2_wire::codec::{Request, Response, WireStatus};
use d2_wire::transport::Transport;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A snapshot of one node's view.
#[derive(Clone, Debug)]
pub struct NodeStatus {
    /// The node's identity.
    pub me: PeerInfo,
    /// Its predecessor, if known.
    pub predecessor: Option<PeerInfo>,
    /// Its successor list.
    pub successors: Vec<PeerInfo>,
    /// Blocks stored locally.
    pub blocks: usize,
}

impl From<WireStatus> for NodeStatus {
    fn from(w: WireStatus) -> Self {
        NodeStatus {
            me: w.me,
            predecessor: w.predecessor,
            successors: w.successors,
            blocks: w.blocks as usize,
        }
    }
}

/// One node's remotely scraped telemetry: its metric registry plus the
/// contents of its flight recorder.
#[derive(Clone, Debug)]
pub struct NodeScrape {
    /// The scraped node.
    pub addr: Addr,
    /// Its metric registry (`node.*` counters and histograms, plus
    /// `net.*` when the node carries its own transport-metrics handle).
    pub registry: Registry,
    /// Its recent + notable spans.
    pub spans: Vec<SpanRecord>,
}

/// A whole-cluster scrape: every reachable node's telemetry plus the
/// merged cluster view (counters summed, gauges maxed, histograms
/// bucket-merged — so cluster-wide p50/p90/p99 come from real
/// distributions, not averages of averages).
#[derive(Clone, Debug)]
pub struct ClusterScrape {
    /// Per-node scrapes, in the order the nodes were asked.
    pub nodes: Vec<NodeScrape>,
    /// All per-node registries merged into one.
    pub merged: Registry,
}

impl ClusterScrape {
    /// Every scraped span across the cluster, deduplicated by
    /// `(trace, span)` and sorted by `(start, trace, span, node)`.
    pub fn all_spans(&self) -> Vec<SpanRecord> {
        let mut seen: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut out: Vec<SpanRecord> = Vec::new();
        for node in &self.nodes {
            for s in &node.spans {
                if seen.insert((s.trace_id, s.span_id)) {
                    out.push(s.clone());
                }
            }
        }
        out.sort_by(|a, b| {
            (a.start_us, a.trace_id, a.span_id, a.node)
                .cmp(&(b.start_us, b.trace_id, b.span_id, b.node))
        });
        out
    }
}

/// What a client's lookup cache has done so far
/// ([`ClusterOps::cache_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Ops whose key fell inside a cached range and skipped the lookup.
    pub hits: u64,
    /// Ops that found no cached range and paid a routed lookup.
    pub misses: u64,
    /// Hits whose cached node no longer answered for the key (refused,
    /// missed, unreachable or silent); each fell back to a routed lookup.
    pub stale: u64,
}

/// Tuning knobs for the windowed batch API
/// ([`ClusterOps::put_many`] / [`ClusterOps::get_many`]).
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Maximum requests in flight at once. Each batch op is a pipeline
    /// of up to two stages (a lookup on a cache miss, then put/get), and
    /// the window bounds the total number of ops with *either* stage
    /// outstanding — the client-side backpressure knob.
    pub window: usize,
    /// Per-request timeout, applied separately to each lookup and data
    /// request. A slow op times out alone; it never head-of-line
    /// blocks the rest of the window.
    pub op_timeout: Duration,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            window: 32,
            op_timeout: Duration::from_secs(5),
        }
    }
}

/// The outcome of one operation in a batch: its position and key, the
/// per-op result, and the op's latency (every stage it went through, as
/// seen by the batch driver).
#[derive(Debug)]
pub struct BatchOutcome<R> {
    /// Index into the submitted batch.
    pub index: usize,
    /// The key operated on.
    pub key: Key,
    /// `Ok(replicas written)` for puts, `Ok(block)` for gets.
    pub result: Result<R>,
    /// Wall time from the op's first submission to resolution.
    pub latency: Duration,
}

/// Routed lookups one op may issue before it fails: dropped lookups
/// retry through rotated entries, in the batch driver exactly as in the
/// serial [`ClusterOps::lookup`].
const MAX_LOOKUPS: u32 = 4;

/// Per-request timeout of the serial `put`/`get` data stage.
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// One in-flight batch op: which stage's reply we are waiting on.
enum Stage {
    Lookup,
    /// The put/get itself, and the node it went to if the lookup cache
    /// chose it (`None` after a routed lookup).
    Data(Option<Addr>),
}

struct Slot {
    /// The request in flight for this op, as its [`ReplyQueue`] knows it.
    req_id: u64,
    index: usize,
    started: Instant,
    /// Routed lookups submitted so far (none while riding the cache).
    lookups: u32,
    stage: Stage,
}

/// Client operations against a running cluster, entered through a
/// rotating set of live nodes.
pub struct ClusterOps<T: Transport> {
    client: WireClient<T>,
    entries: RwLock<Vec<Addr>>,
    next_entry: AtomicUsize,
    next_trace: AtomicU64,
    /// The §5 lookup cache: owner ranges learnt from lookup replies,
    /// `node` = the owner's [`Addr`], time = µs since `born`.
    cache: Mutex<LookupCache>,
    stale: AtomicU64,
    born: Instant,
}

impl<T: Transport> ClusterOps<T> {
    /// Wraps `client`; lookups enter the ring through `entries` in
    /// round-robin order.
    pub fn new(client: WireClient<T>, entries: Vec<Addr>) -> Self {
        // Seed traced ops from the wall clock so two client processes
        // against the same cluster draw disjoint trace ids.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1);
        ClusterOps {
            client,
            entries: RwLock::new(entries),
            next_entry: AtomicUsize::new(0),
            next_trace: AtomicU64::new(nanos),
            cache: Mutex::new(LookupCache::with_default_ttl()),
            stale: AtomicU64::new(0),
            born: Instant::now(),
        }
    }

    fn cache_now(&self) -> SimTime {
        SimTime::from_micros(self.born.elapsed().as_micros() as u64)
    }

    /// The node a live cache entry names as `key`'s owner.
    fn cached_owner(&self, key: &Key) -> Option<Addr> {
        match self.cache.lock().probe(key, self.cache_now()) {
            CacheOutcome::Hit { node } => Some(node),
            CacheOutcome::Miss => None,
        }
    }

    /// Caches one lookup reply.
    fn remember(&self, range: KeyRange, owner: Addr) {
        self.cache.lock().insert(range, owner, self.cache_now());
    }

    /// A cache-routed op found `node` no longer answering for its key:
    /// the node moved, shrank or died, so everything cached about it is
    /// suspect.
    fn mark_stale(&self, node: Addr) {
        self.cache.lock().invalidate_node(node);
        self.stale.fetch_add(1, Ordering::Relaxed);
    }

    /// Hits, misses and stale hits of this client's lookup cache.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.cache.lock();
        CacheStats {
            hits: cache.hits(),
            misses: cache.misses(),
            stale: self.stale.load(Ordering::Relaxed),
        }
    }

    /// A fresh nonzero trace id for one client operation (splitmix of a
    /// wall-clock-seeded counter).
    pub fn fresh_trace_id(&self) -> u64 {
        let mut z = self
            .next_trace
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)).max(1)
    }

    /// The underlying request/response client.
    pub fn client(&self) -> &WireClient<T> {
        &self.client
    }

    /// Replaces the entry-node set (e.g. after churn).
    pub fn set_entries(&self, entries: Vec<Addr>) {
        *self.entries.write() = entries;
    }

    /// The current entry-node set.
    pub fn entries(&self) -> Vec<Addr> {
        self.entries.read().clone()
    }

    fn next_entry(&self) -> Option<Addr> {
        let entries = self.entries.read();
        if entries.is_empty() {
            return None;
        }
        let i = self.next_entry.fetch_add(1, Ordering::Relaxed);
        Some(entries[i % entries.len()])
    }

    /// Locates the owner of `key` via a real recursive lookup, entering
    /// through the next entry node. Retries with rotated entries: a
    /// lookup routed through a node that died mid-flight is dropped (the
    /// sender forgets the dead hop), and the retry takes the repaired
    /// route. Never answered from the lookup cache — a lookup means a
    /// lookup — but the reply's range is cached for later `put`/`get`s.
    pub fn lookup(&self, key: Key) -> Result<PeerInfo> {
        self.lookup_traced(key, TraceCtx::NONE)
    }

    /// [`ClusterOps::lookup`] with an explicit trace context: every node
    /// the lookup touches records a span under `trace`'s id.
    pub fn lookup_traced(&self, key: Key, trace: TraceCtx) -> Result<PeerInfo> {
        for attempt in 0..MAX_LOOKUPS {
            let Some(entry) = self.next_entry() else {
                break;
            };
            let timeout = Duration::from_millis(500 * (attempt as u64 + 1));
            match self
                .client
                .call_traced(entry, Request::Lookup { key }, timeout, trace)
            {
                Ok(Response::Owner { owner, range, .. }) => {
                    self.remember(range, owner.addr);
                    return Ok(owner);
                }
                Err(ClientError::Closed) => break,
                Ok(_) | Err(_) => {}
            }
        }
        Err(D2Error::Unavailable(key))
    }

    /// Stores a block on the owner and `replicas - 1` further
    /// successors, returning the number of copies written. The ack comes
    /// from the *end* of the replica chain, so when this returns every
    /// reachable replica holds the block — no settling sleep needed.
    pub fn put(&self, key: Key, data: Vec<u8>, replicas: usize) -> Result<usize> {
        self.put_traced(key, data, replicas)
            .map(|(written, _)| written)
    }

    /// [`ClusterOps::put`] under a fresh trace: the lookup (on a cache
    /// miss) and the replica chain share one trace id, returned
    /// alongside the replica count so the caller can ask
    /// `collect_trace` (or `d2-node trace`) for the operation's causal
    /// span tree.
    pub fn put_traced(&self, key: Key, data: Vec<u8>, replicas: usize) -> Result<(usize, u64)> {
        let trace_id = self.fresh_trace_id();
        let ctx = TraceCtx::root(trace_id);
        let put = |node: Addr, data: Vec<u8>| {
            let req = Request::Put {
                key,
                fanout: replicas.saturating_sub(1) as u32,
                stored: 0,
                data,
            };
            self.client.call_traced(node, req, CALL_TIMEOUT, ctx)
        };
        if let Some(node) = self.cached_owner(&key) {
            // The payload must outlive a refusal, hence the copy.
            match put(node, data.clone()) {
                Ok(Response::PutAck { replicas }) => return Ok((replicas as usize, trace_id)),
                // A slow node still owns what it owned.
                Err(ClientError::Backlogged(_)) => {}
                _ => self.mark_stale(node),
            }
        }
        let owner = self.lookup_traced(key, ctx)?;
        match put(owner.addr, data) {
            Ok(Response::PutAck { replicas }) => Ok((replicas as usize, trace_id)),
            _ => Err(D2Error::Unavailable(key)),
        }
    }

    /// Fetches a block from the owner, falling back along its successor
    /// chain (up to `replicas` probes).
    pub fn get(&self, key: Key, replicas: usize) -> Result<Vec<u8>> {
        if let Some(node) = self.cached_owner(&key) {
            match self.client.call(node, Request::Get { key }, CALL_TIMEOUT) {
                Ok(Response::Block { data: Some(data) }) => return Ok(data),
                Err(ClientError::Backlogged(_)) => {}
                _ => self.mark_stale(node),
            }
        }
        let owner = self.lookup(key)?;
        let mut addr = owner.addr;
        for _ in 0..replicas.max(1) {
            match self.client.call(addr, Request::Get { key }, CALL_TIMEOUT) {
                Ok(Response::Block { data: Some(data) }) => return Ok(data),
                Ok(Response::Block { data: None } | Response::NotOwner) => {
                    // Ask this node's successor next.
                    match self.status_of(addr) {
                        Some(st) => match st.successors.first() {
                            Some(next) => addr = next.addr,
                            None => break,
                        },
                        None => break,
                    }
                }
                _ => break,
            }
        }
        Err(D2Error::NotFound(key))
    }

    /// Stores a batch of blocks with up to [`PipelineConfig::window`]
    /// operations in flight at once over the pipelined client
    /// ([`WireClient::submit`]), each a put straight to the cached owner
    /// or a lookup → put pipeline. Returns one [`BatchOutcome`] per
    /// item, in submission order; failed ops fail individually without
    /// aborting the batch.
    pub fn put_many(
        &self,
        items: Vec<(Key, Vec<u8>)>,
        replicas: usize,
        cfg: PipelineConfig,
    ) -> Vec<BatchOutcome<usize>> {
        let keys: Vec<Key> = items.iter().map(|(k, _)| *k).collect();
        self.pipelined(
            &keys,
            cfg,
            // A refused put is sent again after a lookup, so the payload
            // stays with the batch and each request carries a copy.
            |i| Request::Put {
                key: keys[i],
                fanout: replicas.saturating_sub(1) as u32,
                stored: 0,
                data: items[i].1.clone(),
            },
            |key, resp| match resp {
                Response::PutAck { replicas } => Ok(replicas as usize),
                _ => Err(D2Error::Unavailable(key)),
            },
        )
    }

    /// Fetches a batch of blocks with up to [`PipelineConfig::window`]
    /// operations in flight at once. Unlike [`ClusterOps::get`], the
    /// batch path probes only the owner (no successor fallback): it is
    /// built for sustained-load measurement, where a miss should read as
    /// a miss, not hide behind extra round trips.
    pub fn get_many(&self, keys: &[Key], cfg: PipelineConfig) -> Vec<BatchOutcome<Vec<u8>>> {
        self.pipelined(
            keys,
            cfg,
            |i| Request::Get { key: keys[i] },
            |key, resp| match resp {
                Response::Block { data: Some(data) } => Ok(data),
                Response::Block { data: None } => Err(D2Error::NotFound(key)),
                _ => Err(D2Error::Unavailable(key)),
            },
        )
    }

    /// The windowed pipeline driver behind [`ClusterOps::put_many`] and
    /// [`ClusterOps::get_many`]: keeps up to `cfg.window` ops in flight
    /// on one [`ReplyQueue`], blocks on it until a reply lands or the
    /// earliest deadline passes, and advances or resolves that op.
    ///
    /// An op starts in the data stage when the lookup cache names its
    /// owner, in the lookup stage otherwise. It goes (back) to a routed
    /// lookup when the cached node turns out stale — refusal, miss,
    /// send error or timeout — or merely slow (`Backlogged`, which
    /// leaves the cache alone), and whenever any node refuses it as
    /// [`Response::NotOwner`], within the [`MAX_LOOKUPS`] budget.
    fn pipelined<R>(
        &self,
        keys: &[Key],
        cfg: PipelineConfig,
        make_req: impl Fn(usize) -> Request,
        map_resp: impl Fn(Key, Response) -> Result<R>,
    ) -> Vec<BatchOutcome<R>> {
        let window = cfg.window.max(1);
        // Every op reads as unavailable until a reply resolves it.
        let mut out: Vec<BatchOutcome<R>> = keys
            .iter()
            .enumerate()
            .map(|(index, &key)| BatchOutcome {
                index,
                key,
                result: Err(D2Error::Unavailable(key)),
                latency: Duration::ZERO,
            })
            .collect();
        let mut queue = self.client.reply_queue();
        let submit = |queue: &mut ReplyQueue, node: Addr, req: Request| {
            self.client
                .submit_on(queue, node, req, cfg.op_timeout, TraceCtx::NONE)
        };
        // One lookup through the next entry node, or `None` when the op
        // is out of lookups or no entry accepts it.
        let lookup_stage = |queue: &mut ReplyQueue, key: Key, lookups: u32| {
            if lookups >= MAX_LOOKUPS {
                return None;
            }
            let req_id = submit(queue, self.next_entry()?, Request::Lookup { key }).ok()?;
            Some((req_id, Stage::Lookup, lookups + 1))
        };
        let mut slots: Vec<Slot> = Vec::with_capacity(window);
        let mut next = 0usize;
        while next < keys.len() || !slots.is_empty() {
            // Fill the window with fresh ops.
            while next < keys.len() && slots.len() < window {
                let (index, key, started) = (next, keys[next], Instant::now());
                next += 1;
                let cached = self.cached_owner(&key).and_then(|node| {
                    match submit(&mut queue, node, make_req(index)) {
                        Ok(req_id) => Some((req_id, Stage::Data(Some(node)), 0)),
                        Err(ClientError::Backlogged(_)) => None,
                        Err(_) => {
                            self.mark_stale(node);
                            None
                        }
                    }
                });
                match cached.or_else(|| lookup_stage(&mut queue, key, 0)) {
                    Some((req_id, stage, lookups)) => slots.push(Slot {
                        req_id,
                        index,
                        started,
                        lookups,
                        stage,
                    }),
                    None => out[index].latency = started.elapsed(),
                }
            }
            // Sleep until one op's reply or deadline; each resolves or
            // advances independently of the others.
            let Some((req_id, res)) = queue.recv() else {
                continue;
            };
            let Some(at) = slots.iter().position(|s| s.req_id == req_id) else {
                continue;
            };
            let slot = slots.swap_remove(at);
            let (index, key) = (slot.index, keys[slot.index]);
            let advanced = match (&slot.stage, res) {
                (Stage::Lookup, Ok(Response::Owner { owner, range, .. })) => {
                    self.remember(range, owner.addr);
                    submit(&mut queue, owner.addr, make_req(index))
                        .ok()
                        .map(|req_id| (req_id, Stage::Data(None), slot.lookups))
                }
                // A dropped or failed lookup (a node died mid-route,
                // or the ring is still stabilizing): retry through
                // the next entry, like the serial lookup path.
                (Stage::Lookup, _) => lookup_stage(&mut queue, key, slot.lookups),
                (
                    &Stage::Data(Some(node)),
                    Err(_) | Ok(Response::NotOwner | Response::Block { data: None }),
                ) => {
                    self.mark_stale(node);
                    lookup_stage(&mut queue, key, slot.lookups)
                }
                (Stage::Data(_), Ok(Response::NotOwner)) => {
                    lookup_stage(&mut queue, key, slot.lookups)
                }
                (Stage::Data(_), Ok(resp)) => {
                    out[index].result = map_resp(key, resp);
                    None
                }
                (Stage::Data(_), Err(_)) => None,
            };
            match advanced {
                Some((req_id, stage, lookups)) => slots.push(Slot {
                    req_id,
                    stage,
                    lookups,
                    ..slot
                }),
                None => out[index].latency = slot.started.elapsed(),
            }
        }
        out
    }

    /// One node's ring view, or `None` if it cannot be reached.
    pub fn status_of(&self, addr: Addr) -> Option<NodeStatus> {
        match self
            .client
            .call(addr, Request::Status, Duration::from_secs(10))
        {
            Ok(Response::Status(w)) => Some(w.into()),
            _ => None,
        }
    }

    /// Polls [`check_ring`] over `addrs` until every node answers and no
    /// invariant is violated; the timeout error is the last report.
    pub fn wait_ring_ok(
        &self,
        addrs: &[Addr],
        timeout: Duration,
    ) -> std::result::Result<(), RingReport> {
        let deadline = Instant::now() + timeout;
        loop {
            let statuses: Vec<_> = addrs.iter().filter_map(|&a| self.status_of(a)).collect();
            let report = check_ring(&statuses);
            let ok = report.ok() && report.nodes == addrs.len();
            if ok || Instant::now() >= deadline {
                return if ok { Ok(()) } else { Err(report) };
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// One node's metric registry and flight-recorder spans, or `None`
    /// if the node cannot be reached (or sends back inconsistent
    /// histogram parts).
    pub fn metrics_of(&self, addr: Addr) -> Option<NodeScrape> {
        match self
            .client
            .call(addr, Request::MetricsDump, Duration::from_secs(10))
        {
            Ok(Response::Metrics(m)) => Some(NodeScrape {
                addr,
                registry: m.to_registry().ok()?,
                spans: m.spans,
            }),
            _ => None,
        }
    }

    /// Walks the ring from the entry set, following predecessor and
    /// successor pointers until no new address appears, and returns
    /// every discovered node in address order. One reachable entry is
    /// enough to enumerate the whole cluster.
    pub fn discover(&self) -> Vec<Addr> {
        let mut known: BTreeSet<Addr> = self.entries.read().iter().copied().collect();
        let mut todo: Vec<Addr> = known.iter().copied().collect();
        while let Some(addr) = todo.pop() {
            let Some(st) = self.status_of(addr) else {
                continue;
            };
            let peers = st
                .predecessor
                .iter()
                .chain(st.successors.iter())
                .map(|p| p.addr)
                .chain(std::iter::once(st.me.addr));
            for p in peers {
                if known.insert(p) {
                    todo.push(p);
                }
            }
        }
        known.into_iter().collect()
    }

    /// Scrapes every node in `addrs` and merges the registries into the
    /// cluster view. Unreachable nodes are skipped (a scrape is a
    /// telemetry read, not a health check).
    pub fn scrape(&self, addrs: &[Addr]) -> ClusterScrape {
        let nodes: Vec<NodeScrape> = addrs.iter().filter_map(|&a| self.metrics_of(a)).collect();
        let mut merged = Registry::new();
        for n in &nodes {
            merged.merge(&n.registry);
        }
        ClusterScrape { nodes, merged }
    }

    /// Discovers the ring from the entry set and scrapes every node
    /// found — the one-call backing of `d2-node top`.
    pub fn scrape_all(&self) -> ClusterScrape {
        self.scrape(&self.discover())
    }

    /// Collects every span of `trace_id` held anywhere in the cluster,
    /// deduplicated and in deterministic order — feed the result to
    /// [`d2_obs::render_span_tree`] to print the operation's causal
    /// story.
    pub fn collect_trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut spans = self.scrape_all().all_spans();
        spans.retain(|s| s.trace_id == trace_id);
        spans
    }

    /// Asks the node at `addr` to stop, waiting briefly for its ack.
    /// Returns whether the node acknowledged.
    pub fn stop(&self, addr: Addr) -> bool {
        matches!(
            self.client
                .call(addr, Request::Shutdown, Duration::from_secs(5)),
            Ok(Response::ShutdownAck)
        )
    }
}
