//! The per-node event loop, generic over the transport and the clock.
//!
//! A [`NodeRuntime`] is one live D2 node: the pure protocol state
//! machine ([`ProtocolNode`]), what it holds (a replicating node's
//! blocks in its [`ChainSync`], an erasure-coding node's fragments in
//! its erasure-coding state), and a [`Transport`] endpoint to send
//! through. It never receives or sleeps by itself: a driver steps it
//! through two entry points, one event at a time — [`crate::Host`] on
//! wall-clock time for every live node, the deterministic simulation
//! harness (`d2-dst`) on virtual time:
//!
//! - [`NodeRuntime::on_message`] — handle exactly one incoming message;
//! - [`NodeRuntime::on_tick`] — run exactly one maintenance tick
//!   (stabilization, join retry, replica repair — [`crate::repair`]).
//!
//! All timeouts read time through the injected [`Clock`], so under a
//! [`crate::clock::SimClock`] every timeout decision is a pure function
//! of the schedule.

use crate::clock::{Clock, SystemClock};
use crate::ops::NodeStatus;
use crate::repair::{BlockPool, ChainSync};
use d2_ec::{Codec as EcCodec, Fragment, RedundancyPolicy};
use d2_obs::flight::{FLIGHT_CAPACITY, SLOW_THRESHOLD_US};
use d2_obs::{FlightRecorder, Registry, SpanRecord, TraceCtx};
use d2_ring::messages::{Addr, RingMsg};
use d2_ring::node::{InjectedBug, NodeConfig, ProtocolNode, ANCHOR_EVERY_TICKS, SUCCESSORS};
use d2_types::{splitmix, Key, KeyRange};
use d2_wire::codec::{Request, Response, WireMetrics, WireMsg, WireStatus};
use d2_wire::metrics::NetMetrics;
use d2_wire::transport::{Transport, TransportError};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// The maintenance tick period: how often a driver calls
/// [`NodeRuntime::on_tick`] (a host of many nodes stretches it).
pub const TICK: Duration = Duration::from_millis(20);

/// How long an unjoined node waits before re-sending its join. Longer
/// than the TCP circuit breaker's backoff cap, so every retry is a real
/// connection attempt rather than a fail-fast inside the backoff window.
const JOIN_RETRY_US: u64 = 1_250_000;

/// Bounded local re-routing budget: when a hop turns out dead we forget
/// it and, for routed requests, immediately re-handle the message so it
/// takes the next-best route instead of being dropped.
const REROUTE_BUDGET: u32 = 64;

/// Ticks between replica-repair rounds (≈ 1.28 s of real time at the
/// 20 ms tick). Each round an owner compares one digest of its range
/// with each chain successor and a holder re-homes its strays, so the
/// replica count converges back to the configured factor after churn.
const REPAIR_EVERY_TICKS: u64 = 64;

/// How long an in-flight erasure-coded operation (fragment distribution,
/// gather, presence probe, regeneration) waits for member replies before
/// it completes with whatever arrived. A crashed member simply counts as
/// a missing fragment; no op hangs on it.
const EC_OP_TIMEOUT_US: u64 = 400_000;

/// Internal request-id space for a node's own requests (fragment ops,
/// repair). Client req ids are allocated client-side and only need
/// uniqueness per connection, so the top-bit space never collides with
/// them in practice; the map lookup (not the id itself) routes replies.
const NODE_REQ_BASE: u64 = 1 << 63;

/// Token-bucket burst cap for the repair budget, in seconds of accrual:
/// a node idle for an hour may spend that hour's budget at once, but no
/// more — the same cap the simulation-level repair budget uses.
const EC_BURST_SECS: u64 = 3600;

/// One locally held erasure-coded fragment plus the original block
/// length needed to trim decode padding.
pub struct StoredFragment {
    /// The pre-encoding block length.
    pub block_len: u32,
    /// The fragment itself (index, generation, payload, checksum).
    pub frag: Fragment,
}

/// What one node is: everything a driver decides before the node
/// exists. [`NodeRuntime::new`] derives the rest (successor-list
/// length, repair threshold).
#[derive(Clone, Copy, Debug)]
pub struct NodeSpec {
    /// Ring position.
    pub id: Key,
    /// The node to join through; `None` bootstraps a new ring.
    pub seed: Option<Addr>,
    /// How a block survives failures; every node of a ring must agree.
    /// `Replicate { r }` keeps every owned block on the owner plus
    /// `r - 1` successors by background repair (put chains follow the
    /// client's requested fanout). `ErasureCode { k, n }` switches puts
    /// to owner-side encoding into `n` fragments, gets to any-`k`
    /// gather-and-decode, and repair to the lazy, budgeted fragment
    /// regenerator, which regenerates a key once its surviving
    /// fragments drop below the policy's
    /// [`RedundancyPolicy::default_repair_threshold`].
    pub redundancy: RedundancyPolicy,
    /// Cap on regeneration traffic, bytes/second per node (`0` =
    /// unlimited).
    pub repair_budget_bps: u64,
}

impl NodeSpec {
    /// A bootstrap node at the ring's origin keeping `replicas` copies,
    /// no erasure coding: a template for [`NodeSpec::at`].
    pub fn replicated(replicas: u32) -> NodeSpec {
        NodeSpec {
            id: Key::MIN,
            seed: None,
            redundancy: RedundancyPolicy::Replicate {
                r: replicas as usize,
            },
            repair_budget_bps: 0,
        }
    }

    /// The same node at ring position `id`, joining through `seed`.
    pub fn at(self, id: Key, seed: Option<Addr>) -> NodeSpec {
        NodeSpec { id, seed, ..self }
    }
}

/// Erasure-coding configuration, fragments and repair-budget state,
/// present only under an [`RedundancyPolicy::ErasureCode`] policy.
struct EcState {
    codec: EcCodec,
    /// Locally held fragments, one per key.
    fragments: BTreeMap<Key, StoredFragment>,
    /// Lazy-repair threshold `m`: a key regenerates only when its
    /// surviving fragment count drops below this (k ≤ m < n).
    repair_threshold: usize,
    /// Repair budget in bytes/second; `0` means unlimited.
    repair_budget_bps: u64,
    /// Accrued budget tokens (bytes), refilled per repair round.
    repair_tokens: u64,
    last_refill_us: u64,
}

/// Why a fragment gather was started: to answer a client get, or to
/// regenerate missing fragments under the repair budget.
enum GatherPurpose {
    /// Decode and answer this client.
    Client {
        /// The requesting client's transport address.
        client: Addr,
        /// Its request id.
        req_id: u64,
    },
    /// Decode, re-encode, and re-push missing fragments.
    Repair,
}

/// One in-flight erasure-coded operation. Every per-member message of
/// the op shares one internal request id, so replies route back to the
/// op without carrying a sender identity: a [`Response::Fragment`]'s
/// `index` already names the group position that held it.
struct EcOp {
    /// Member replies still outstanding.
    pending: u32,
    started_us: u64,
    kind: EcKind,
}

/// What an [`EcOp`] does, and what its replies so far add up to.
enum EcKind {
    /// Owner-side fragment distribution for one client put.
    Put {
        client: Addr,
        req_id: u64,
        /// Fragments confirmed stored (including the owner's own).
        stored: u32,
    },
    /// Owner-side gather of any `k` fragments (client get or repair).
    Gather {
        key: Key,
        purpose: GatherPurpose,
        /// Largest original block length reported by any fragment.
        block_len: u32,
        /// Verified fragments at the highest generation seen so far,
        /// deduplicated by index.
        frags: Vec<Fragment>,
    },
    /// Lazy-repair presence probe across the fragment group.
    Probe {
        key: Key,
        /// Estimated regeneration cost basis (the block length).
        block_len: u32,
        /// Which group positions reported a live fragment.
        present: Vec<bool>,
    },
}

/// What a reply to one of this node's repair requests answers: the
/// digest of `range` sent to chain successor `peer`, a get for a block
/// only a successor holds, or a stray put through its owner.
enum RepairOp {
    Sync { peer: Addr, range: KeyRange },
    Pull { key: Key },
    Rehome { key: Key },
}

/// A client lookup in flight: who asked, plus the trace context and
/// start time so the completion can be recorded as a causally-linked
/// span with a real duration.
struct PendingLookup {
    client: Addr,
    req_id: u64,
    ctx: TraceCtx,
    start_us: u64,
}

/// One live node: protocol state machine + what it holds + transport.
pub struct NodeRuntime<T: Transport, C: Clock = SystemClock> {
    node: ProtocolNode,
    /// A replicating node's blocks, and replica repair's view of them:
    /// what is held, for whom.
    chain: ChainSync,
    /// This round's repair exchanges in flight, by request id.
    repair_ops: HashMap<u64, RepairOp>,
    /// Keys this round's found missing or stale on a chain member.
    under_replicated: u64,
    /// Erasure-coding mode; `None` runs the classic replica chains.
    ec: Option<EcState>,
    /// In-flight erasure-coded ops by internal request id.
    ec_ops: HashMap<u64, EcOp>,
    /// Keys awaiting budgeted regeneration, with the estimated repair
    /// cost in bytes. Ordered, so the drain is deterministic.
    ec_repair_queue: BTreeMap<Key, u64>,
    next_req: u64,
    transport: T,
    clock: C,
    /// Ring lookup id → in-flight client lookup awaiting the owner.
    pending_lookups: HashMap<u64, PendingLookup>,
    /// Ring lookup id → key of a repair re-home awaiting the owner.
    pending_repairs: HashMap<u64, Key>,
    /// Join seed, kept so an unjoined node can retry: the one-shot join
    /// message (or its ack) can be lost to a connect timeout during a
    /// cluster-wide boot storm, and nothing else would ever re-send it.
    seed: Option<Addr>,
    last_join_attempt_us: u64,
    /// Replica-maintenance target, the policy's group size (`0`
    /// disables repair; under erasure coding `ec`'s regenerator repairs
    /// instead). Put chains are always driven by the client's requested
    /// fanout; this only governs the periodic background repair.
    replication: u32,
    ticks: u64,
    /// This node's own metrics: `node.*` counters and histograms,
    /// scraped remotely via [`Request::MetricsDump`].
    registry: Registry,
    /// Bounded ring of recent + notable (slow/failed) spans.
    recorder: FlightRecorder,
    /// Transport-level counters to fold into metric dumps, while this
    /// node has the sheet to itself: co-hosted nodes each folding a
    /// shared sheet would multiply it by N in a merged scrape.
    net_metrics: Option<Arc<NetMetrics>>,
    /// Monotonic input to the deterministic span-id hash.
    span_seq: u64,
    /// Outgoing trace context while handling a traced message: the
    /// incoming context's child (same trace, this node's span as
    /// parent, one hop deeper). [`TraceCtx::NONE`] outside handling.
    cur_ctx: TraceCtx,
    /// Success flag of the message currently being handled; cleared by
    /// failed sends and missed gets so the span records `ok = false`.
    cur_ok: bool,
}

/// Successor-list length of a node under `policy`: a chain or
/// fragment group of `n` members is the owner plus `n - 1` successors,
/// which a wide code pushes past the default [`SUCCESSORS`].
fn successor_list_len(policy: RedundancyPolicy) -> usize {
    SUCCESSORS.max(policy.group_size().saturating_sub(1))
}

impl<T: Transport, C: Clock> NodeRuntime<T, C> {
    /// Creates the node `spec` describes at the transport's address:
    /// the first node of a new ring, or one that joins through
    /// `spec.seed`, sending the initial join traffic immediately.
    pub fn new(spec: NodeSpec, transport: T, clock: C) -> Self {
        let policy = spec.redundancy;
        let cfg = NodeConfig {
            successors: successor_list_len(policy),
            bug: None,
        };
        let now = clock.now_us();
        let ec = EcCodec::for_policy(policy).map(|codec| EcState {
            codec,
            fragments: BTreeMap::new(),
            repair_threshold: policy.default_repair_threshold(),
            repair_budget_bps: spec.repair_budget_bps,
            repair_tokens: 0,
            last_refill_us: now,
        });
        let me = transport.local_addr();
        let (node, join_msgs) = match spec.seed {
            None => (ProtocolNode::bootstrap(spec.id, me, cfg), Vec::new()),
            Some(seed) => ProtocolNode::join(spec.id, me, cfg, seed),
        };
        let mut rt = NodeRuntime {
            node,
            chain: ChainSync::default(),
            repair_ops: HashMap::new(),
            under_replicated: 0,
            replication: policy.group_size() as u32,
            ec,
            ec_ops: HashMap::new(),
            ec_repair_queue: BTreeMap::new(),
            next_req: NODE_REQ_BASE,
            transport,
            clock,
            pending_lookups: HashMap::new(),
            pending_repairs: HashMap::new(),
            seed: spec.seed,
            last_join_attempt_us: now,
            ticks: 0,
            registry: Registry::new(),
            recorder: FlightRecorder::new(FLIGHT_CAPACITY, SLOW_THRESHOLD_US),
            net_metrics: None,
            span_seq: 0,
            cur_ctx: TraceCtx::NONE,
            cur_ok: true,
        };
        let Some(seed) = spec.seed else { return rt };
        // Joins get their own trace, so `d2-node trace` can replay how a
        // node entered the ring. The id is derived from the node's ring
        // position: deterministic, and unique per joiner with
        // overwhelming probability.
        let trace_id = join_trace_id(spec.id);
        let span = rt.alloc_span();
        let start = rt.clock.now_us();
        rt.cur_ctx = TraceCtx {
            trace_id,
            span_id: span,
            hop: 1,
        };
        rt.send_all(join_msgs);
        rt.push_span(
            TraceCtx::root(trace_id),
            span,
            start,
            true,
            "join.start",
            format!("seed={seed}"),
        );
        rt.cur_ctx = TraceCtx::NONE;
        rt
    }

    /// Makes this node re-introduce `bug` from now on: the simulation
    /// harness's door for proving its worlds catch known bugs.
    #[doc(hidden)]
    pub fn inject_bug(&mut self, bug: InjectedBug) {
        self.node.inject_bug(bug);
    }

    /// Where this node's blocks share buffers with the other nodes its
    /// driver steps ([`BlockPool`]); `None` for a node alone, which has
    /// no one to share with. Set by [`crate::Host`] and the simulation
    /// harness.
    pub fn set_pool(&mut self, pool: Option<BlockPool>) {
        self.chain.set_pool(pool);
    }

    /// Whether this node's [`Request::MetricsDump`] replies fold in
    /// `sheet`, its transport's counters. Set by [`crate::Host`], which
    /// knows whether the node has the sheet to itself.
    pub(crate) fn set_net_metrics(&mut self, sheet: Option<Arc<NetMetrics>>) {
        self.net_metrics = sheet;
    }

    /// This node's own metric registry (scraped via
    /// [`Request::MetricsDump`]).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// This node's flight recorder, used by the simulation harness to
    /// collect spans after a run.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Deterministic nonzero span id: a hash of (address, sequence), so
    /// the same schedule replayed in the simulation harness allocates
    /// the same span ids.
    fn alloc_span(&mut self) -> u64 {
        self.span_seq += 1;
        let z = (self.transport.local_addr() as u64)
            .wrapping_mul(splitmix::GAMMA)
            .wrapping_add(self.span_seq);
        splitmix::finalize(z).max(1)
    }

    /// Records one span under `parent` (no-op when untraced): the span's
    /// hop and parent id come from the context, the duration from the
    /// clock.
    fn push_span(
        &mut self,
        parent: TraceCtx,
        span_id: u64,
        start_us: u64,
        ok: bool,
        op: &str,
        detail: String,
    ) {
        if !parent.is_traced() {
            return;
        }
        let now = self.clock.now_us();
        self.recorder.push(SpanRecord {
            trace_id: parent.trace_id,
            span_id,
            parent_span_id: parent.span_id,
            hop: parent.hop,
            node: self.transport.local_addr() as u64,
            start_us,
            dur_us: now.saturating_sub(start_us),
            ok,
            op: op.to_string(),
            detail,
        });
    }

    /// The node's transport endpoint, which its driver closes when the
    /// node stops.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Read-only view of the protocol state machine (ring pointers),
    /// used by the simulation harness's invariant checkers.
    pub fn protocol(&self) -> &ProtocolNode {
        &self.node
    }

    /// The bytes of held block `key`, as the simulation harness's
    /// storage invariants read them.
    pub fn block(&self, key: &Key) -> Option<&[u8]> {
        self.chain.block(key)
    }

    /// Every held block's key, in key order.
    pub fn block_keys(&self) -> impl Iterator<Item = &Key> {
        self.chain.keys()
    }

    /// Held erasure-coded fragment `key`, as the simulation harness's
    /// reconstructability invariant reads it.
    pub fn fragment(&self, key: &Key) -> Option<&StoredFragment> {
        self.ec.as_ref()?.fragments.get(key)
    }

    /// Every held fragment's key, in key order.
    pub fn fragment_keys(&self) -> impl Iterator<Item = &Key> {
        self.ec.iter().flat_map(|ec| ec.fragments.keys())
    }

    /// This node's view of the ring, as [`Request::Status`] reports it.
    pub fn status(&self) -> NodeStatus {
        NodeStatus {
            me: self.node.me(),
            predecessor: self.node.predecessor(),
            successors: self.node.successors().to_vec(),
            blocks: self.chain.keys().len(),
        }
    }

    /// Handles exactly one incoming message; returns `false` when the
    /// message was a shutdown request (already acked) and the driver
    /// should drop the node.
    ///
    /// `trace` is the message's envelope context. When traced, this node
    /// allocates its own span, records the handling step into the flight
    /// recorder, and forwards any caused messages (ring traffic, put
    /// chains) with [`TraceCtx::child`] — so one client operation yields
    /// one causally-linked span tree across every node it touched.
    pub fn on_message(&mut self, msg: WireMsg, trace: TraceCtx) -> bool {
        let start_us = self.clock.now_us();
        let op = msg.type_name();
        // Static counter names: this is the per-message hot path, and a
        // `format!` per message is an allocation a 1,000-node process
        // pays millions of times.
        self.registry.inc(msgs_in_counter(op));
        let span = if trace.is_traced() {
            let s = self.alloc_span();
            self.cur_ctx = trace.child(s);
            s
        } else {
            self.cur_ctx = TraceCtx::NONE;
            0
        };
        self.cur_ok = true;
        // Span detail is only ever read for traced messages; skip the
        // string work entirely on the untraced hot path.
        let detail = if trace.is_traced() {
            match &msg {
                WireMsg::Ring(RingMsg::FindOwner { hops, .. }) => format!("hops={hops}"),
                WireMsg::Ring(RingMsg::Join { joiner, .. }) => format!("joiner={}", joiner.addr),
                WireMsg::Request {
                    body: Request::Put { fanout, stored, .. },
                    ..
                } => format!("fanout={fanout} stored={stored}"),
                WireMsg::Request {
                    body: Request::Lookup { key } | Request::Get { key },
                    ..
                } => format!("key={:.4}", key.to_fraction()),
                _ => String::new(),
            }
        } else {
            String::new()
        };
        let cont = match msg {
            WireMsg::Ring(m) => {
                let out = self.node.handle(m);
                self.send_all(out);
                self.drain_completed();
                true
            }
            WireMsg::Request { req_id, from, body } => self.handle_request(req_id, from, body),
            // Responses route to the erasure-coded op or repair exchange
            // that issued them; anything else (a repair push's PutAck, a
            // late client PutAck racing a chain we forwarded) is dropped.
            WireMsg::Response { req_id, body } => {
                if self.ec_ops.contains_key(&req_id) {
                    self.handle_ec_response(req_id, body);
                } else if let Some(op) = self.repair_ops.remove(&req_id) {
                    self.handle_repair_response(op, body);
                }
                true
            }
        };
        let ok = self.cur_ok;
        self.push_span(trace, span, start_us, ok, op, detail);
        self.cur_ctx = TraceCtx::NONE;
        cont
    }

    /// Runs exactly one maintenance tick: stabilization probes, join
    /// retry while unjoined, and (every `REPAIR_EVERY_TICKS` ticks) one
    /// replica-repair round.
    pub fn on_tick(&mut self) {
        let out = self.node.tick();
        self.send_all(out);
        self.retry_join_if_unjoined();
        self.ticks += 1;
        if self.node.config().bug != Some(InjectedBug::NoAnchor)
            && self.ticks.is_multiple_of(ANCHOR_EVERY_TICKS)
        {
            self.anchor_round();
        }
        if self.ticks.is_multiple_of(REPAIR_EVERY_TICKS) {
            if self.ec.is_some() {
                self.ec_repair_round();
            } else if self.replication > 0 {
                self.repair_round();
            }
        }
        self.expire_ec_ops();
        self.drain_completed();
    }

    /// Handles one client request; returns `false` on shutdown.
    fn handle_request(&mut self, req_id: u64, from: Addr, body: Request) -> bool {
        match body {
            Request::Lookup { key } => {
                self.registry.inc("node.lookups");
                let (ring_req, out) = self.node.start_lookup(key);
                self.pending_lookups.insert(
                    ring_req,
                    PendingLookup {
                        client: from,
                        req_id,
                        ctx: self.cur_ctx,
                        start_us: self.clock.now_us(),
                    },
                );
                self.send_all(out);
                self.drain_completed();
            }
            Request::Put {
                key,
                fanout,
                stored,
                data,
            } => {
                // Only the head of a chain is refused: a chained put
                // lands on a replica, which never owns the key.
                if stored == 0 && self.disowns(&key) {
                    self.refuse(from, req_id);
                } else if self.ec.is_some() {
                    self.handle_put_ec(req_id, from, key, &data);
                } else {
                    self.handle_put(req_id, from, key, fanout, stored, data);
                }
            }
            Request::Get { key } => {
                self.registry.inc("node.gets");
                // The block is lent to the reply for the send and taken
                // back: over TCP the only copy is the encoder's, into the
                // pending queue.
                let transport = &self.transport;
                let answered = self.chain.lend(&key, |data| {
                    let body = Response::Block { data: Some(data) };
                    let reply = WireMsg::Response { req_id, body };
                    let _ = transport.send(from, &reply); // as `respond`
                    (into_data(reply), ())
                });
                match answered {
                    Some(()) => {}
                    // A replica answers from its store above; with
                    // nothing held, only the owner may call it a miss.
                    None if self.disowns(&key) => self.refuse(from, req_id),
                    // In erasure mode a whole block lives nowhere; gather
                    // any k fragments from the group and decode.
                    None if self.ec.is_some() => self.start_ec_gather(
                        key,
                        GatherPurpose::Client {
                            client: from,
                            req_id,
                        },
                    ),
                    None => {
                        self.registry.inc("node.get_misses");
                        self.cur_ok = false;
                        self.respond(from, req_id, Response::Block { data: None });
                    }
                }
            }
            Request::PutFragment {
                key,
                index,
                total: _,
                generation,
                check,
                block_len,
                data,
            } => {
                let frag = Fragment {
                    index,
                    generation,
                    data,
                    check,
                };
                // End-to-end integrity: a fragment corrupted in transit
                // (or by a hostile peer) is rejected, never stored. So is
                // any fragment at a replicating node: it would replace a
                // block replica that the chain digests still count, and
                // repair would never restore it.
                let corrupt = !frag.verify();
                if corrupt {
                    self.registry.inc("ec.corrupt_fragments");
                }
                let Some(ec) = self.ec.as_mut().filter(|_| !corrupt) else {
                    self.cur_ok = false;
                    self.respond(from, req_id, Response::PutAck { replicas: 0 });
                    return true;
                };
                let stale = ec
                    .fragments
                    .get(&key)
                    .is_some_and(|held| held.frag.generation > generation);
                if !stale {
                    ec.fragments.insert(key, StoredFragment { block_len, frag });
                }
                self.respond(from, req_id, Response::PutAck { replicas: 1 });
            }
            Request::GetFragment { key, want_data } => {
                // Not held: `has` false and every other field zero.
                let held = self.fragment(&key);
                let frag = held.map(|held| &held.frag);
                let body = Response::Fragment {
                    has: held.is_some(),
                    index: frag.map_or(0, |f| f.index),
                    generation: frag.map_or(0, |f| f.generation),
                    check: frag.map_or(0, |f| f.check),
                    block_len: held.map_or(0, |held| held.block_len),
                    data: frag
                        .filter(|_| want_data)
                        .map_or(Vec::new(), |f| f.data.clone()),
                };
                self.respond(from, req_id, body);
            }
            Request::SyncRange {
                range,
                count,
                digest,
            } => {
                self.chain.note(range, self.ticks / REPAIR_EVERY_TICKS);
                if self.chain.digest(&range) != (count, digest) {
                    self.registry.inc("repair.ranges_differ");
                    let entries = self.chain.entries(&range);
                    self.respond(from, req_id, Response::RangeKeys { entries });
                }
            }
            Request::Status => {
                let s = self.status();
                let status = WireStatus {
                    me: s.me,
                    predecessor: s.predecessor,
                    successors: s.successors,
                    blocks: s.blocks as u64,
                };
                self.respond(from, req_id, Response::Status(status));
            }
            Request::MetricsDump => {
                let mut reg = self.registry.clone();
                reg.set_gauge("node.blocks", self.chain.keys().len() as f64);
                reg.set_gauge("node.ring_position", self.node.me().id.to_fraction());
                if let Some(ec) = &self.ec {
                    reg.set_gauge("ec.fragments", ec.fragments.len() as f64);
                    reg.set_gauge("ec.repair_queue", self.ec_repair_queue.len() as f64);
                } else {
                    let short = self.under_replicated as f64;
                    reg.set_gauge("store.under_replicated_keys", short);
                }
                reg.add("node.spans_dropped", self.recorder.dropped());
                if let Some(nm) = &self.net_metrics {
                    nm.snapshot_into(&mut reg);
                }
                let dump = WireMetrics::from_registry(&reg, self.recorder.snapshot());
                self.respond(from, req_id, Response::Metrics(Box::new(dump)));
            }
            Request::Shutdown => {
                self.respond(from, req_id, Response::ShutdownAck);
                return false;
            }
        }
        true
    }

    /// Whether `key` lies outside the range this node *knows* it owns.
    /// With no predecessor yet the range is unknown and nothing is
    /// disowned.
    fn disowns(&self, key: &Key) -> bool {
        self.node.owned_range().is_some_and(|r| !r.contains(key))
    }

    /// Answers [`Response::NotOwner`]: the sender routed by a stale
    /// owner (a cached range the ring has since split or moved), and
    /// storing or missing silently here would hide the block from
    /// every correctly routed read.
    fn refuse(&mut self, to: Addr, req_id: u64) {
        self.registry.inc("node.not_owner");
        self.cur_ok = false;
        self.respond(to, req_id, Response::NotOwner);
    }

    /// Replica-chain store: forward down the successor list, write the
    /// local copy and — as the end of the chain — ack the original
    /// client directly. The ack therefore means *every* reachable
    /// replica is written, not merely the first.
    fn handle_put(
        &mut self,
        req_id: u64,
        from: Addr,
        key: Key,
        fanout: u32,
        stored: u32,
        data: Vec<u8>,
    ) {
        self.registry.inc("node.puts");
        let stored = stored + 1;
        let me = self.node.me().addr;
        // Nobody, at the end of the chain (`fanout` 0).
        let succs: Vec<Addr> = self
            .node
            .successors()
            .iter()
            .map(|p| p.addr)
            .filter(|&a| a != me && fanout > 0)
            .collect();
        let forward = WireMsg::Request {
            req_id,
            from,
            body: Request::Put {
                key,
                fanout: fanout.saturating_sub(1),
                stored,
                data,
            },
        };
        // The chain goes on through the first successor that takes it.
        let forwarded = succs.into_iter().any(|succ| self.send_to(succ, &forward));
        // The local copy is the block itself, moved out of the forward
        // once that is sent (the transport took its own bytes): the
        // same step, in the order that copies nothing.
        self.chain
            .stored(key, into_data(forward), self.ticks / REPAIR_EVERY_TICKS);
        // Forwarded, the chain's end will ack — unless the validation
        // knob counts the rest of the chain as written the moment the
        // forward send succeeds. A dead peer fails the send fast, so
        // that looks safe, until a link drops traffic silently and the
        // "replicas" the ack promises were never stored anywhere. With
        // no reachable successor this node terminates the chain.
        let ack_on_send = self.node.config().bug == Some(InjectedBug::AckOnSend);
        let replicas = match (forwarded, ack_on_send) {
            (true, false) => return,
            (true, true) => stored + fanout,
            (false, _) => stored,
        };
        self.registry.observe("node.put_replicas", replicas as u64);
        self.respond(from, req_id, Response::PutAck { replicas });
    }

    /// Sends `msg` to `to` under the current trace context; `false`, and
    /// [`NodeRuntime::send_failed`], if the transport refused it.
    fn send_to(&mut self, to: Addr, msg: &WireMsg) -> bool {
        let Err(e) = self.transport.send_traced(to, msg, self.cur_ctx) else {
            return true;
        };
        self.send_failed(to, e);
        false
    }

    /// A send to `to` failed and its message is dropped. A slow peer
    /// (`Backlogged`) is counted and kept: evicting a live successor
    /// over one full queue would tear the ring for nothing. Anything
    /// else is a dead hop: a counter, a failure flag on the current
    /// span, (when traced) a dedicated `send.fail` child span so the
    /// trace tree shows exactly where an operation lost a hop — and the
    /// peer is forgotten, so routing and repair go around it.
    fn send_failed(&mut self, to: Addr, err: TransportError) {
        self.cur_ok = false;
        if let TransportError::Backlogged(_) = err {
            self.registry.inc("node.send_backlogged");
            return;
        }
        self.registry.inc("node.send_failures");
        if self.cur_ctx.is_traced() {
            let span = self.alloc_span();
            let now = self.clock.now_us();
            let ctx = self.cur_ctx;
            self.push_span(ctx, span, now, false, "send.fail", format!("to={to}"));
        }
        self.node.forget(to);
    }

    /// One replica-repair round (the decisions are [`ChainSync`]'s):
    ///
    /// - as an *owner*, send each of the next `replication - 1`
    ///   successors one digest of the owned range; one that holds
    ///   something else answers with its key list, and
    ///   [`NodeRuntime::handle_repair_response`] moves the difference;
    /// - as a *holder*, look up the owner of every stray (the ring moved
    ///   around us, or we are a surviving replica of a dead owner) and
    ///   re-put the block through it, restoring the canonical
    ///   owner-plus-successors placement.
    ///
    /// Blocks are never deleted: an over-replicated stale copy is
    /// garbage, a deleted last copy is data loss.
    fn repair_round(&mut self) {
        if !self.node.is_joined() {
            return;
        }
        // Unknown between a predecessor forgotten and the next's notify.
        let Some(own) = self.node.owned_range() else {
            return;
        };
        // What went unanswered last round is asked again.
        self.repair_ops.clear();
        self.under_replicated = 0;
        let strays = self.chain.begin_round(own, self.ticks / REPAIR_EVERY_TICKS);
        let (range, (count, digest)) = (own, self.chain.digest(&own));
        for peer in self.group(self.replication as usize).split_off(1) {
            let body = Request::SyncRange {
                range,
                count,
                digest,
            };
            if self.ask(peer, body, Some(RepairOp::Sync { peer, range })) {
                self.registry.inc("repair.digests_sent");
            }
        }
        for key in strays {
            let (ring_req, out) = self.node.start_lookup(key);
            self.pending_repairs.insert(ring_req, key);
            self.send_all(out);
        }
    }

    /// Sends `to` a request of this node's own, its reply to be handled
    /// as `op`'s (or dropped); `false` if the send failed.
    fn ask(&mut self, to: Addr, body: Request, op: Option<RepairOp>) -> bool {
        let (req_id, from) = (self.alloc_req(), self.node.me().addr);
        let msg = WireMsg::Request { req_id, from, body };
        if let Err(e) = self.transport.send(to, &msg) {
            self.send_failed(to, e);
            return false;
        }
        self.repair_ops.extend(op.map(|op| (req_id, op)));
        true
    }

    /// A reply to one of this round's repair requests. A failed send ends
    /// the exchange: a frame pushed at a full queue is just dropped, and
    /// the next round's digest finds what the peer still lacks.
    fn handle_repair_response(&mut self, op: RepairOp, body: Response) {
        match (op, body) {
            // A successor's digest disagreed, and the ring has not moved
            // since ours left (else the next round compares the new range).
            (RepairOp::Sync { peer, range }, Response::RangeKeys { entries })
                if self.node.owned_range() == Some(range) =>
            {
                let (push, pull) = self.chain.diff(&range, &entries);
                self.under_replicated += (push.len() + pull.len()) as u64;
                for key in push {
                    let Some(bytes) = self.push_block(peer, key, false) else {
                        return;
                    };
                    self.registry.inc("repair.blocks_pushed");
                    self.registry.add("repair.bytes_pushed", bytes);
                }
                for key in pull {
                    if !self.ask(peer, Request::Get { key }, Some(RepairOp::Pull { key })) {
                        return;
                    }
                }
            }
            // Unless a put got here first: that one is newer.
            (RepairOp::Pull { key }, Response::Block { data: Some(data) })
                if self.chain.block(&key).is_none() =>
            {
                self.registry.inc("repair.blocks_pulled");
                self.chain
                    .stored(key, data, self.ticks / REPAIR_EVERY_TICKS);
            }
            // The owner holds the stray now and its chain is its to fill.
            (RepairOp::Rehome { key }, Response::PutAck { replicas }) if replicas > 0 => {
                self.registry.inc("repair.strays_rehomed");
                self.chain.rehomed(&key);
            }
            // Refused or missed: the next round asks again.
            _ => {}
        }
    }

    /// Puts the held block `key` to `to` and returns its length (`None`
    /// if not held or not sent): to a chain successor as one more copy
    /// or, to `rehome` a stray, to its owner as head of an acked chain.
    /// The block is lent to the put for the send, as to a get's reply.
    fn push_block(&mut self, to: Addr, key: Key, rehome: bool) -> Option<u64> {
        let rest = self.replication.saturating_sub(1);
        let (fanout, stored) = if rehome { (rest, 0) } else { (0, 1) };
        // Held blocks are never deleted, so every caller's key is held
        // and the id is spent, as `ask` spends it.
        let (req_id, from) = (self.alloc_req(), self.node.me().addr);
        let transport = &self.transport;
        let (bytes, sent) = self.chain.lend(&key, |data| {
            let bytes = data.len() as u64;
            let body = Request::Put {
                key,
                fanout,
                stored,
                data,
            };
            let msg = WireMsg::Request { req_id, from, body };
            let sent = transport.send(to, &msg);
            (into_data(msg), (bytes, sent))
        })?;
        if let Err(e) = sent {
            self.send_failed(to, e);
            return None;
        }
        let op = rehome.then_some((req_id, RepairOp::Rehome { key }));
        self.repair_ops.extend(op);
        Some(bytes)
    }

    /// Sends ring traffic, forgetting dead hops and re-routing routed
    /// requests through the repaired ring (bounded by [`REROUTE_BUDGET`]).
    fn send_all(&mut self, msgs: Vec<(Addr, RingMsg)>) {
        let mut queue = msgs;
        let mut budget = REROUTE_BUDGET;
        while let Some((to, msg)) = queue.pop() {
            let wire = WireMsg::Ring(msg.clone());
            let Err(e) = self.transport.send_traced(to, &wire, self.cur_ctx) else {
                continue;
            };
            self.send_failed(to, e);
            // Only around a forgotten hop: a slow one is still the route.
            let reroutable = matches!(msg, RingMsg::FindOwner { .. } | RingMsg::Join { .. })
                && !matches!(e, TransportError::Backlogged(_));
            if reroutable && budget > 0 {
                budget -= 1;
                queue.extend(self.node.handle(msg));
            }
        }
    }

    /// Seed-anchored anti-entropy: a joined node periodically
    /// re-introduces itself to its join seed (Notify) and pulls the
    /// seed's neighbor view (GetNeighbors).
    ///
    /// Plain Chord stabilization only ever talks to a node's *current*
    /// pointers, so two complete rings that formed on either side of a
    /// healed netsplit never find each other again — each side's
    /// pointers are internally consistent and corpse-free. Anchoring
    /// breaks the symmetry through the well-known seed: the minority
    /// side re-learns the seed's successors (and the seed's side learns
    /// the minority node via Notify), after which ordinary
    /// stabilization zips the two rings back into one. In a healthy
    /// ring both messages are no-ops, so the steady-state cost is two
    /// small messages per node per anchor period.
    fn anchor_round(&mut self) {
        let Some(seed) = self.seed else { return };
        if !self.node.is_joined() || seed == self.node.me().addr {
            return;
        }
        self.registry.inc("node.anchor_rounds");
        let me = self.node.me();
        self.send_all(vec![
            (seed, RingMsg::Notify { candidate: me }),
            (seed, RingMsg::GetNeighbors { from: me.addr }),
        ]);
    }

    /// Re-sends the join while the node has no ring pointers: either the
    /// original join or its ack was lost (boot-storm connect timeout),
    /// and the join handshake is the only path that can recover.
    fn retry_join_if_unjoined(&mut self) {
        let Some(seed) = self.seed else { return };
        if self.node.is_joined() {
            return;
        }
        let now = self.clock.now_us();
        if now.saturating_sub(self.last_join_attempt_us) < JOIN_RETRY_US {
            return;
        }
        self.last_join_attempt_us = now;
        self.registry.inc("node.join_retries");
        let trace_id = join_trace_id(self.node.me().id);
        let span = self.alloc_span();
        let join = RingMsg::Join {
            joiner: self.node.me(),
            hops: 0,
        };
        let ctx = TraceCtx {
            trace_id,
            span_id: span,
            hop: 1,
        };
        let sent = self
            .transport
            .send_traced(seed, &WireMsg::Ring(join), ctx)
            .is_ok();
        self.push_span(
            TraceCtx::root(trace_id),
            span,
            now,
            sent,
            "join.retry",
            format!("seed={seed}"),
        );
    }

    /// Flushes finished lookups: client lookups go back to the clients
    /// that asked; repair lookups turn into a re-put through the owner.
    fn drain_completed(&mut self) {
        for res in self.node.take_completed() {
            if let Some(p) = self.pending_lookups.remove(&res.req_id) {
                self.registry.observe("node.lookup_hops", res.hops as u64);
                let dur = self.clock.now_us().saturating_sub(p.start_us);
                self.registry.observe("node.lookup_us", dur);
                if p.ctx.is_traced() {
                    let span = self.alloc_span();
                    let (ctx, start) = (p.ctx, p.start_us);
                    self.push_span(
                        ctx,
                        span,
                        start,
                        true,
                        "lookup.done",
                        format!("hops={} owner={}", res.hops, res.owner.addr),
                    );
                }
                self.respond(
                    p.client,
                    p.req_id,
                    Response::Owner {
                        owner: res.owner,
                        range: res.range,
                        hops: res.hops,
                    },
                );
            } else if let Some(key) = self.pending_repairs.remove(&res.req_id) {
                // Second half of a stray's repair: the owner stores it and
                // replicates down its own chain (unacked, the next round
                // sends it again). Unless the lookup raced a ring change
                // and we own the key after all.
                if res.owner.addr != self.node.me().addr {
                    self.push_block(res.owner.addr, key, true);
                }
            }
        }
    }

    fn respond(&mut self, to: Addr, req_id: u64, body: Response) {
        // A client that vanished mid-request is not a node failure;
        // nothing to repair.
        let _ = self.transport.send(to, &WireMsg::Response { req_id, body });
    }

    // -----------------------------------------------------------------
    // Erasure-coded redundancy (see `d2_ec`)
    // -----------------------------------------------------------------

    /// A fresh internal request id for one erasure-coded op or repair
    /// exchange.
    fn alloc_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// The replica chain or fragment group as currently placed: this node
    /// (position 0) followed by its successor list, deduplicated,
    /// truncated to `n`.
    /// Position `p` canonically holds fragment index `p`; after churn
    /// the mapping can be off, but every repair round regenerates
    /// toward it, so placement converges back to canonical.
    fn group(&self, n: usize) -> Vec<Addr> {
        let me = self.node.me().addr;
        let mut group = vec![me];
        for p in self.node.successors() {
            if group.len() >= n {
                break;
            }
            if !group.contains(&p.addr) {
                group.push(p.addr);
            }
        }
        group
    }

    /// Owner-side erasure-coded put: encode the block into `n`
    /// fragments, keep fragment 0 locally, distribute the rest to the
    /// next `n - 1` successors, and ack the client once every reachable
    /// member confirmed — the fragment-mode analogue of the replica
    /// chain's end-of-chain ack. The client's requested fanout is
    /// ignored; the policy decides the group size (`frags.len()`).
    fn handle_put_ec(&mut self, req_id: u64, from: Addr, key: Key, data: &[u8]) {
        let Some(ec) = self.ec.as_mut() else { return };
        self.registry.inc("node.puts");
        // Generations come from the injected clock: monotonic across
        // crash-restarts (a fresh counter would not be), deterministic
        // under the simulation clock.
        let frags = ec.codec.encode(data, self.clock.now_us().max(1));
        let (n, block_len) = (frags.len(), data.len() as u32);
        let mut iter = frags.into_iter();
        let Some(frag) = iter.next() else {
            // A codec of zero fragments stores nothing, and says so.
            self.respond(from, req_id, Response::PutAck { replicas: 0 });
            return;
        };
        ec.fragments.insert(key, StoredFragment { block_len, frag });
        let group = self.group(n);
        let op_id = self.alloc_req();
        let mut pending = 0u32;
        for (frag, &to) in iter.zip(group.iter().skip(1)) {
            let sent = self.send_fragment(op_id, to, key, n as u8, block_len, frag);
            pending += u32::from(sent);
        }
        let put = EcKind::Put {
            client: from,
            req_id,
            stored: 1,
        };
        self.track_ec_op(op_id, pending, put);
    }

    /// Sends one fragment as a [`Request::PutFragment`], returning
    /// whether the transport accepted it.
    fn send_fragment(
        &mut self,
        op_id: u64,
        to: Addr,
        key: Key,
        total: u8,
        block_len: u32,
        frag: Fragment,
    ) -> bool {
        let me = self.node.me().addr;
        let msg = WireMsg::Request {
            req_id: op_id,
            from: me,
            body: Request::PutFragment {
                key,
                index: frag.index,
                total,
                generation: frag.generation,
                check: frag.check,
                block_len,
                data: frag.data,
            },
        };
        self.send_to(to, &msg)
    }

    /// Sends [`Request::GetFragment`] for `key` to every other member
    /// of its `n`-member group under one fresh op id; returns the id
    /// and how many sends the transport accepted.
    fn ask_group(&mut self, n: usize, key: Key, want_data: bool) -> (u64, u32) {
        let (op_id, me) = (self.alloc_req(), self.node.me().addr);
        let mut pending = 0u32;
        for to in self.group(n).split_off(1) {
            let body = Request::GetFragment { key, want_data };
            let msg = WireMsg::Request {
                req_id: op_id,
                from: me,
                body,
            };
            pending += u32::from(self.send_to(to, &msg));
        }
        (op_id, pending)
    }

    /// Starts a gather: ask every other group member for its fragment,
    /// then decode once all replied (or the op timed out). The whole
    /// group is asked up front rather than k-first — one round trip and
    /// no second round on a miss, at the cost of `(n-k)/k` extra
    /// fragment bandwidth per read.
    fn start_ec_gather(&mut self, key: Key, purpose: GatherPurpose) {
        let Some(ec) = &self.ec else { return };
        let (block_len, frags) = match ec.fragments.get(&key) {
            Some(held) => (held.block_len, vec![held.frag.clone()]),
            None => (0, Vec::new()),
        };
        let (op_id, pending) = self.ask_group(ec.codec.n(), key, true);
        let gather = EcKind::Gather {
            key,
            purpose,
            block_len,
            frags,
        };
        self.track_ec_op(op_id, pending, gather);
    }

    /// Starts a presence probe for one owned key: empty
    /// [`Request::GetFragment`] frames to every other group member; the
    /// locally held fragment counts immediately.
    fn start_ec_probe(&mut self, key: Key) {
        let Some(ec) = &self.ec else { return };
        let Some(held) = ec.fragments.get(&key) else {
            return;
        };
        let (n, block_len) = (ec.codec.n(), held.block_len);
        let mut present = vec![false; n];
        if let Some(slot) = present.get_mut(held.frag.index as usize) {
            *slot = true;
        }
        let (op_id, pending) = self.ask_group(n, key, false);
        let probe = EcKind::Probe {
            key,
            block_len,
            present,
        };
        self.track_ec_op(op_id, pending, probe);
    }

    /// Waits for op `op_id`'s `pending` replies, or completes it now if
    /// no send went out.
    fn track_ec_op(&mut self, op_id: u64, pending: u32, kind: EcKind) {
        if pending == 0 {
            return self.finish_ec_op(kind);
        }
        let started_us = self.clock.now_us();
        let op = EcOp {
            pending,
            started_us,
            kind,
        };
        self.ec_ops.insert(op_id, op);
    }

    /// Routes one response into its erasure-coded op, completing the op
    /// when its last outstanding reply lands.
    fn handle_ec_response(&mut self, op_id: u64, body: Response) {
        let Some(mut op) = self.ec_ops.remove(&op_id) else {
            return;
        };
        let counts = match (&mut op.kind, body) {
            (EcKind::Put { stored, .. }, Response::PutAck { replicas }) => {
                *stored += replicas.min(1);
                true
            }
            (
                EcKind::Gather {
                    frags, block_len, ..
                },
                Response::Fragment {
                    has,
                    index,
                    generation,
                    check,
                    block_len: bl,
                    data,
                },
            ) => {
                if has {
                    let frag = Fragment {
                        index,
                        generation,
                        data,
                        check,
                    };
                    add_gathered(frags, block_len, frag, bl, &mut self.registry);
                }
                true
            }
            (EcKind::Probe { present, .. }, Response::Fragment { has, index, .. }) => {
                if let Some(slot) = present.get_mut(index as usize).filter(|_| has) {
                    *slot = true;
                }
                true
            }
            // A mismatched body (hostile or confused peer) neither
            // advances nor completes the op; the timeout reaps it.
            _ => false,
        };
        op.pending -= u32::from(counts);
        if op.pending == 0 {
            self.finish_ec_op(op.kind);
        } else {
            self.ec_ops.insert(op_id, op);
        }
    }

    /// Completes one erasure-coded op with whatever replies arrived.
    fn finish_ec_op(&mut self, op: EcKind) {
        match op {
            EcKind::Put {
                client,
                req_id,
                stored,
            } => {
                self.registry.observe("node.put_replicas", stored as u64);
                self.respond(client, req_id, Response::PutAck { replicas: stored });
            }
            EcKind::Gather {
                key,
                purpose,
                block_len,
                frags,
            } => {
                let Some(ec) = &self.ec else { return };
                let (k, n) = (ec.codec.k(), ec.codec.n());
                let decoded = if frags.len() >= k {
                    // Needing any parity fragment means a data shard was
                    // lost: count the degraded read.
                    if !(0..k).all(|i| frags.iter().any(|f| f.index as usize == i)) {
                        self.registry.inc("ec.decode_fallbacks");
                    }
                    ec.codec.decode(&frags, block_len as usize).ok()
                } else {
                    None
                };
                match purpose {
                    GatherPurpose::Client { client, req_id } => {
                        if decoded.is_none() {
                            self.registry.inc("node.get_misses");
                            self.cur_ok = false;
                        }
                        self.respond(client, req_id, Response::Block { data: decoded });
                    }
                    GatherPurpose::Repair => {
                        let Some(data) = decoded else {
                            // Fewer than k survivors right now: nothing
                            // to regenerate from. The key stays queued
                            // until a holder returns.
                            self.ec_repair_queue
                                .entry(key)
                                .or_insert((block_len as u64).max(1));
                            return;
                        };
                        let generation = frags.first().map_or(1, |f| f.generation);
                        let Some(ec) = &self.ec else { return };
                        let all = ec.codec.encode(&data, generation);
                        let group = self.group(n);
                        let mut repaired = 0u64;
                        for frag in all {
                            let pos = frag.index as usize;
                            if frags.iter().any(|f| f.index == frag.index) {
                                continue; // a member still holds it
                            }
                            if let (0, Some(ec)) = (pos, self.ec.as_mut()) {
                                ec.fragments.insert(key, StoredFragment { block_len, frag });
                                repaired += 1;
                            } else if let Some(&to) = group.get(pos) {
                                // Fire-and-forget: the ack comes back
                                // under a req id no op owns, and drops.
                                let sent = self.send_fragment(0, to, key, n as u8, block_len, frag);
                                repaired += u64::from(sent);
                            }
                        }
                        self.registry.add("ec.repaired_fragments", repaired);
                    }
                }
            }
            EcKind::Probe {
                key,
                block_len,
                present,
            } => {
                let Some(ec) = self.ec.as_ref() else { return };
                let m = ec.repair_threshold;
                let frag_len = ec.codec.fragment_len(block_len as usize) as u64;
                let have = present.iter().filter(|&&p| p).count();
                if have >= m {
                    // Lazy: losses above the threshold wait for the
                    // transient failure to heal itself.
                    self.registry.inc("ec.repairs_skipped_lazy");
                    return;
                }
                let missing = (present.len() - have) as u64;
                // Cost model: gather k fragments (≈ the block) plus
                // push the regenerated fragments.
                let cost = (block_len as u64 + missing * frag_len).max(1);
                self.ec_repair_queue.insert(key, cost);
            }
        }
    }

    /// One lazy-repair round: refill the token bucket, probe owned keys
    /// for surviving fragments, and drain the repair queue in key order
    /// within the budget. Probes are cheap (empty fragment frames);
    /// only keys below the repair threshold cost real bytes.
    fn ec_repair_round(&mut self) {
        if !self.node.is_joined() {
            return;
        }
        let now = self.clock.now_us();
        let Some(ec) = self.ec.as_mut() else { return };
        let dt = now.saturating_sub(ec.last_refill_us);
        ec.last_refill_us = now;
        let bps = ec.repair_budget_bps;
        if bps > 0 {
            let add = (bps as u128 * dt as u128 / 1_000_000) as u64;
            ec.repair_tokens = ec
                .repair_tokens
                .saturating_add(add)
                .min(bps.saturating_mul(EC_BURST_SECS));
        }
        // Probe every owned key not already queued or in flight.
        let owned: Vec<Key> = match self.node.owned_range() {
            Some(range) => range.walk(&ec.fragments).map(|(k, _)| *k).collect(),
            None => Vec::new(),
        };
        for key in owned {
            if self.ec_repair_queue.contains_key(&key) || self.ec_op_in_flight(key) {
                continue;
            }
            self.start_ec_probe(key);
        }
        // Drain the queue within budget, in key order. Throttled keys
        // stay queued for a later, refilled round.
        let queued: Vec<(Key, u64)> = self.ec_repair_queue.iter().map(|(k, c)| (*k, *c)).collect();
        for (key, cost) in queued {
            if self.ec_op_in_flight(key) {
                continue;
            }
            let affordable = self.ec.as_mut().is_some_and(|ec| {
                let pays = bps == 0 || ec.repair_tokens >= cost;
                if pays && bps > 0 {
                    ec.repair_tokens -= cost;
                }
                pays
            });
            if !affordable {
                self.registry.add("ec.repair_throttled_bytes", cost);
                continue;
            }
            self.registry.add("ec.repair_bytes", cost);
            self.ec_repair_queue.remove(&key);
            self.start_ec_gather(key, GatherPurpose::Repair);
        }
    }

    /// Whether a repair-path op for `key` is already in flight.
    fn ec_op_in_flight(&self, key: Key) -> bool {
        self.ec_ops.values().any(|op| match op.kind {
            EcKind::Gather {
                key: k,
                purpose: GatherPurpose::Repair,
                ..
            }
            | EcKind::Probe { key: k, .. } => k == key,
            _ => false,
        })
    }

    /// Completes erasure-coded ops whose members stopped answering:
    /// after [`EC_OP_TIMEOUT_US`] a non-reply counts as a missing
    /// fragment and the op resolves with what it has.
    fn expire_ec_ops(&mut self) {
        if self.ec_ops.is_empty() {
            return;
        }
        let now = self.clock.now_us();
        let mut expired: Vec<u64> = self
            .ec_ops
            .iter()
            .filter(|(_, op)| now.saturating_sub(op.started_us) >= EC_OP_TIMEOUT_US)
            .map(|(id, _)| *id)
            .collect();
        expired.sort_unstable();
        for id in expired {
            if let Some(op) = self.ec_ops.remove(&id) {
                self.finish_ec_op(op.kind);
            }
        }
    }
}

/// The block bytes a sent put or block reply carries, moved back out.
fn into_data(msg: WireMsg) -> Vec<u8> {
    match msg {
        WireMsg::Request {
            body: Request::Put { data, .. },
            ..
        }
        | WireMsg::Response {
            body: Response::Block { data: Some(data) },
            ..
        } => data,
        _ => Vec::new(),
    }
}

/// Folds one arriving fragment into a gather: verified fragments only,
/// deduplicated by index, and only the highest write generation seen —
/// a newer put's fragments discard an older put's survivors.
fn add_gathered(
    frags: &mut Vec<Fragment>,
    block_len: &mut u32,
    frag: Fragment,
    bl: u32,
    reg: &mut Registry,
) {
    if !frag.verify() {
        reg.inc("ec.corrupt_fragments");
        return;
    }
    let newest = frags.first().map_or(0, |f| f.generation);
    if frag.generation < newest {
        return;
    }
    if frag.generation > newest {
        frags.clear();
    }
    if frags.iter().any(|f| f.index == frag.index) {
        return;
    }
    *block_len = bl;
    frags.push(frag);
}

/// Maps [`WireMsg::type_name`] to a static `node.msgs_in.*` counter
/// name, so the per-message hot path allocates nothing.
fn msgs_in_counter(op: &str) -> &'static str {
    match op {
        "find_owner" => "node.msgs_in.find_owner",
        "owner_is" => "node.msgs_in.owner_is",
        "join" => "node.msgs_in.join",
        "join_ack" => "node.msgs_in.join_ack",
        "get_neighbors" => "node.msgs_in.get_neighbors",
        "neighbors" => "node.msgs_in.neighbors",
        "notify" => "node.msgs_in.notify",
        "lookup" => "node.msgs_in.lookup",
        "put" => "node.msgs_in.put",
        "get" => "node.msgs_in.get",
        "put_fragment" => "node.msgs_in.put_fragment",
        "get_fragment" => "node.msgs_in.get_fragment",
        "sync_range" => "node.msgs_in.sync_range",
        "status" => "node.msgs_in.status",
        "metrics_dump" => "node.msgs_in.metrics_dump",
        "shutdown" => "node.msgs_in.shutdown",
        "owner" => "node.msgs_in.owner",
        "put_ack" => "node.msgs_in.put_ack",
        "block" => "node.msgs_in.block",
        "fragment" => "node.msgs_in.fragment",
        "range_keys" => "node.msgs_in.range_keys",
        "metrics" => "node.msgs_in.metrics",
        "shutdown_ack" => "node.msgs_in.shutdown_ack",
        "not_owner" => "node.msgs_in.not_owner",
        _ => "node.msgs_in.other",
    }
}

/// Trace id of a node's join trace, folded from both halves of its key
/// so it is distinct whether the key was placed by ring fraction (top
/// bits populated) or built from a small integer (low bits populated).
fn join_trace_id(id: Key) -> u64 {
    let hi = (id.to_fraction() * u64::MAX as f64) as u64;
    (hi ^ id.to_u64_lossy()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use d2_wire::transport::ChannelHub;

    #[test]
    fn successor_list_covers_the_redundancy_group() {
        let hub = ChannelHub::new(Arc::new(NetMetrics::new()));
        let successors = |redundancy| {
            let spec = NodeSpec {
                redundancy,
                ..NodeSpec::replicated(1)
            };
            let rt = NodeRuntime::new(spec, hub.open(), SimClock::new());
            rt.node.config().successors
        };
        assert_eq!(successors(RedundancyPolicy::Replicate { r: 3 }), 4);
        assert_eq!(successors(RedundancyPolicy::ErasureCode { k: 3, n: 6 }), 5);
        assert_eq!(
            successors(RedundancyPolicy::ErasureCode { k: 8, n: 12 }),
            11
        );
    }
}
