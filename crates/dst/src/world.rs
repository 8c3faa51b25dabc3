//! The simulated world: the *real* [`NodeRuntime`] over a virtual
//! network and a virtual clock.
//!
//! Nothing here is a model of the node — every node in the world is the
//! production `d2-net` runtime (protocol state machine, block store,
//! replica repair), driven one event at a time through
//! [`NodeRuntime::on_message`] / [`NodeRuntime::on_tick`] over a
//! [`SimTransport`] that implements the same [`Transport`] trait as TCP.
//! The world owns the only loop: a virtual-time event queue whose order
//! is a pure function of the scenario seed. There are no OS threads and
//! no sleeps, so a run is exactly reproducible — same seed, same
//! schedule, byte-identical trace.
//!
//! The seed decides everything the real world leaves to chance:
//!
//! - per-message fates (deliver / drop / duplicate / long-delay) and
//!   per-message latency jitter, via the stateless [`FatePolicy`];
//! - node crashes (with the store wiped — crash-stop with disk loss),
//!   optional restarts, and single-node network isolations, via the
//!   plan generator in [`generate_node_events`];
//! - the harder worlds a [`WorldRegime`] selects: multi-node netsplits
//!   and one-way link cuts ([`NodeEvent::Partition`] /
//!   [`NodeEvent::Cut`]), gray nodes whose traffic silently slows and
//!   leaks away ([`NodeEvent::Gray`]), King-style WAN latency from a
//!   seeded [`d2_sim::Topology`], and per-node clock offset/drift via
//!   [`d2_net::SkewClock`];
//! - the client workload's keys.
//!
//! Faults stop at `fault_end_us`; after that the run enters a heal
//! phase in which periodic checkpoints evaluate the ring and storage
//! invariants (see [`crate::invariants`]). Three consecutive clean
//! checkpoints end the run as a pass; a deadline without them ends it
//! as a failure carrying the last violation.

use crate::fate::{gray_fate, FateKind, FatePolicy, FaultProbs, SplitMix};
use crate::invariants;
use d2_net::runtime::TICK;
use d2_net::{Clock, NodeRuntime, NodeSpec, RedundancyPolicy, SimClock, SkewClock};
use d2_obs::trace::TraceEvent;
use d2_obs::{Registry, SpanRecord, TraceCtx};
use d2_ring::messages::{Addr, RingMsg};
use d2_ring::node::NodeConfig;
use d2_sim::Topology;
use d2_types::Key;
use d2_wire::codec::{Request, Response, WireMsg};
use d2_wire::transport::{Mailbox, RecvError, Transport, TransportError};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// One-way propagation delay before jitter, virtual µs.
const BASE_DELAY_US: u64 = 1_000;
/// Extra delay applied by [`FateKind::Delay`]: well past the join-retry
/// timer, so a delayed message is genuinely stale when it lands.
const LONG_DELAY_US: u64 = 2_000_000;
/// Spacing between node boots (a deliberate boot storm: every joiner
/// races every other through the same seed node).
const BOOT_SPACING_US: u64 = 50_000;
/// When the client workload starts, and spacing between puts.
const PUT_START_US: u64 = 2_000_000;
const PUT_SPACING_US: u64 = 150_000;
/// Client per-attempt timeout before it retries through another entry.
const OP_TIMEOUT_US: u64 = 600_000;
/// Backoff before re-trying a put whose chain acked fewer than `r`
/// copies (gives a truncated chain time to stop being truncated).
const DEGRADED_RETRY_US: u64 = 200_000;
/// Checkpoint cadence during the heal phase, and how many consecutive
/// clean checkpoints constitute convergence. One clean sample is not
/// enough: a wedged ring can oscillate (forget a corpse, re-adopt it
/// from a stale advertisement) and look clean at a single instant.
const CHECK_EVERY_US: u64 = 500_000;
const CONSECUTIVE_OK: u32 = 3;

/// Which family of adversarial worlds a scenario draws its faults
/// from. Every regime is seed-deterministic and shrinkable; they
/// differ in *what* the plan generator and the scheduler are allowed
/// to do to the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorldRegime {
    /// PR 5's original worlds: crashes, restarts, and single-node
    /// symmetric isolation, over a uniform 1 ms LAN.
    Classic,
    /// Multi-node netsplits ([`NodeEvent::Partition`]) plus one-way
    /// link cuts ([`NodeEvent::Cut`]) that drop traffic *silently* —
    /// no send errors, so eviction-by-send-failure never triggers.
    Partition,
    /// Gray nodes ([`NodeEvent::Gray`]): per-node slow/lossy windows
    /// where everything touching the victim picks up extra latency and
    /// a stiff drop rate, with no clean crash signal.
    Gray,
    /// Classic faults over a King-style WAN latency matrix (seeded
    /// [`d2_sim::Topology`], ≈ 90 ms mean RTT) instead of the LAN.
    Wan,
    /// Classic faults with per-node clock offset and drift
    /// ([`d2_net::SkewClock`]), so timers fire unevenly across nodes.
    Skew,
    /// Any of the above, chosen per seed — the default deep-sweep
    /// regime once a change survives the focused ones.
    Mixed,
}

impl WorldRegime {
    /// All regimes, in documentation order.
    pub const ALL: [WorldRegime; 6] = [
        WorldRegime::Classic,
        WorldRegime::Partition,
        WorldRegime::Gray,
        WorldRegime::Wan,
        WorldRegime::Skew,
        WorldRegime::Mixed,
    ];

    /// Stable lowercase name (CLI value, JSON field, trace label).
    pub fn label(self) -> &'static str {
        match self {
            WorldRegime::Classic => "classic",
            WorldRegime::Partition => "partition",
            WorldRegime::Gray => "gray",
            WorldRegime::Wan => "wan",
            WorldRegime::Skew => "skew",
            WorldRegime::Mixed => "mixed",
        }
    }

    /// Parses a [`WorldRegime::label`] back into the regime.
    pub fn parse(s: &str) -> Option<WorldRegime> {
        WorldRegime::ALL.into_iter().find(|r| r.label() == s)
    }
}

/// Everything that parameterizes one deterministic run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The schedule seed: decides fates, node events, workload keys.
    pub seed: u64,
    /// Ring size. Node `i` sits at position `(i + 0.5) / nodes` and has
    /// transport address `i`; node 0 is the bootstrap/join seed and is
    /// never crashed or isolated (the well-known-address assumption).
    pub nodes: usize,
    /// Replication factor `r`. The generated plan keeps total crashes
    /// at or below `r - 1` — the protocol's failure assumption.
    pub replicas: u32,
    /// Client puts issued during the run.
    pub puts: usize,
    /// Message fault probabilities (active before `fault_end_us`).
    pub probs: FaultProbs,
    /// Virtual time at which all fault injection stops.
    pub fault_end_us: u64,
    /// Virtual deadline: no convergence by here fails the run.
    pub deadline_us: u64,
    /// Re-introduce PR 4's head-only successor-probing bug in every
    /// node, to validate that the explorer catches it.
    pub probe_head_only: bool,
    /// Explicit node-event script; `None` generates one from the seed.
    pub node_events: Option<Vec<NodeEvent>>,
    /// Targeted fault for regression scripts: silently drop the first
    /// `n` `JoinAck` messages put on the wire.
    pub drop_first_join_acks: u32,
    /// Redundancy backend override. `None` runs plain replication at
    /// factor [`Scenario::replicas`]; `Some(ErasureCode { k, n })` runs
    /// every node in fragment mode, where a put encodes into `n`
    /// fragments (any `k` reconstruct) and the generated crash budget
    /// becomes `n - k` instead of `replicas - 1`.
    pub redundancy: Option<RedundancyPolicy>,
    /// Lazy-repair trigger override (`None` = the policy default): a
    /// key regenerates only once its surviving fragments drop below
    /// this.
    pub repair_threshold: Option<usize>,
    /// Per-node repair budget in bytes of virtual time per second
    /// (`0` = unlimited).
    pub repair_budget_bps: u64,
    /// Which world family the plan generator and scheduler draw from.
    pub regime: WorldRegime,
    /// Probability a message touching an active gray node is silently
    /// dropped (gray/mixed regimes).
    pub gray_drop: f64,
    /// Mean extra one-way latency on messages touching an active gray
    /// node, virtual µs (the draw is exponential).
    pub gray_extra_delay_us: u64,
    /// Target mean pairwise RTT of the WAN topology, ms (wan/mixed
    /// regimes; the King data set's measured mean is ≈ 90 ms).
    pub wan_mean_rtt_ms: f64,
    /// Largest per-node clock offset, virtual µs (skew/mixed regimes).
    pub skew_max_offset_us: u64,
    /// Largest per-node drift magnitude, ppm (skew/mixed regimes).
    pub skew_max_drift_ppm: i64,
    /// Re-introduce the ack-on-send replication bug in every node
    /// (fire-and-forget chain forwarding), to validate that the
    /// asymmetric-partition worlds catch what crash/isolate worlds
    /// cannot: a durability lie that needs *silent* loss to matter.
    pub ack_on_send: bool,
    /// Disable seed-anchored anti-entropy (ring remerge after a healed
    /// netsplit) in every node — the partition regime's own seeded
    /// validation bug: without the anchor, a healed multi-node split
    /// leaves two stable rings forever.
    pub no_anchor: bool,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            seed: 0,
            nodes: 10,
            replicas: 3,
            puts: 8,
            probs: FaultProbs::default(),
            fault_end_us: 12_000_000,
            deadline_us: 72_000_000,
            probe_head_only: false,
            node_events: None,
            drop_first_join_acks: 0,
            redundancy: None,
            repair_threshold: None,
            repair_budget_bps: 0,
            regime: WorldRegime::Classic,
            gray_drop: 0.33,
            gray_extra_delay_us: 100_000,
            wan_mean_rtt_ms: 90.0,
            skew_max_offset_us: 1_000_000,
            skew_max_drift_ppm: 40_000,
            ack_on_send: false,
            no_anchor: false,
        }
    }
}

impl Scenario {
    /// A smaller, shorter world for debug-mode unit tests.
    pub fn small(seed: u64) -> Self {
        Scenario {
            seed,
            nodes: 6,
            puts: 4,
            fault_end_us: 6_000_000,
            deadline_us: 45_000_000,
            ..Scenario::default()
        }
    }

    /// The default-size world under `regime`.
    pub fn in_regime(seed: u64, regime: WorldRegime) -> Self {
        Scenario {
            seed,
            regime,
            ..Scenario::default()
        }
    }

    /// The default-size world with every node in erasure-coded fragment
    /// mode (`k` of `n`).
    pub fn ec(seed: u64, k: usize, n: usize) -> Self {
        Scenario {
            seed,
            redundancy: Some(RedundancyPolicy::ErasureCode { k, n }),
            ..Scenario::default()
        }
    }

    /// Distinct copies (replica mode) or fragments (EC mode) a put must
    /// land before the client counts it as fully acked.
    pub(crate) fn required_acks(&self) -> u32 {
        match self.redundancy {
            Some(p) => p.group_size() as u32,
            None => self.replicas,
        }
    }

    /// Concurrent crashes an acked put survives by construction —
    /// `r - 1` under replication, `n - k` under erasure coding. The
    /// generated fault plan never exceeds this.
    pub fn failure_budget(&self) -> usize {
        match self.redundancy {
            Some(p) => p.group_size() - p.min_fragments(),
            None => self.replicas.saturating_sub(1) as usize,
        }
    }
}

/// A scripted or generated node-level fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeEvent {
    /// Crash-stop `node` at `at_us` (store wiped); optionally restart
    /// it at `restart_us`, rejoining through node 0 with an empty store.
    Crash {
        /// The victim (never node 0).
        node: Addr,
        /// Crash instant.
        at_us: u64,
        /// Restart instant, or `None` for a permanent failure.
        restart_us: Option<u64>,
    },
    /// Cut `node` off from every other node (both directions) between
    /// `at_us` and `heal_us` — a flaky NIC, not a netsplit. The node
    /// keeps running and keeps its store. Sends across the boundary
    /// fail fast (TCP-style connection errors).
    Isolate {
        /// The victim (never node 0).
        node: Addr,
        /// Isolation start.
        at_us: u64,
        /// Isolation end.
        heal_us: u64,
    },
    /// A multi-node netsplit: every listed node moves into its group's
    /// partition (group `i` is `groups[i]`); unlisted nodes — always
    /// including node 0 in generated plans — stay together in the
    /// majority. Cross-group sends fail fast, like [`NodeEvent::Isolate`].
    /// At `heal_us` all listed nodes rejoin the majority; the full Zave
    /// invariant suite must then re-converge, which requires the
    /// runtime's seed-anchored remerge (plain Chord stabilization never
    /// rejoins two complete rings).
    Partition {
        /// The seceding groups; nodes not listed stay in the majority.
        groups: Vec<Vec<Addr>>,
        /// Split instant.
        at_us: u64,
        /// Heal instant.
        heal_us: u64,
    },
    /// A one-way link cut: messages `from → to` are *silently*
    /// discarded between `at_us` and `heal_us`. Unlike an isolation,
    /// the sender sees its send succeed — `to`'s replies simply never
    /// come back — so nothing evicts anything and every retry/timeout
    /// path runs against a half-dead link.
    Cut {
        /// The sending side of the dead direction.
        from: Addr,
        /// The receiving side (never gets the traffic).
        to: Addr,
        /// Cut start.
        at_us: u64,
        /// Cut end.
        heal_us: u64,
    },
    /// A gray window: between `at_us` and `heal_us`, every node-to-node
    /// message with `node` as sender or receiver gains exponential
    /// extra latency and is silently dropped with the scenario's
    /// `gray_drop` probability. No sends fail, nothing looks crashed —
    /// the node is just quietly bad, the way real hardware degrades.
    Gray {
        /// The victim (never node 0).
        node: Addr,
        /// Gray window start.
        at_us: u64,
        /// Gray window end.
        heal_us: u64,
    },
}

impl NodeEvent {
    /// When the event fires.
    pub fn at_us(&self) -> u64 {
        match *self {
            NodeEvent::Crash { at_us, .. }
            | NodeEvent::Isolate { at_us, .. }
            | NodeEvent::Partition { at_us, .. }
            | NodeEvent::Cut { at_us, .. }
            | NodeEvent::Gray { at_us, .. } => at_us,
        }
    }

    /// The end of the event's window, for windowed events (everything
    /// but a crash).
    pub fn heal_us(&self) -> Option<u64> {
        match *self {
            NodeEvent::Crash { .. } => None,
            NodeEvent::Isolate { heal_us, .. }
            | NodeEvent::Partition { heal_us, .. }
            | NodeEvent::Cut { heal_us, .. }
            | NodeEvent::Gray { heal_us, .. } => Some(heal_us),
        }
    }
}

/// One entry of a run's fault plan: everything non-deterministic that
/// actually happened, in a form the shrinker can neutralize one item at
/// a time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanEntry {
    /// A node event (indexed into the scenario's generated event list).
    Node {
        /// Index into the node-event list (the shrinker's handle).
        idx: usize,
        /// The event itself.
        event: NodeEvent,
    },
    /// A non-clean message fate that was actually drawn.
    Fault {
        /// The message's wire sequence number (the shrinker's handle).
        seq: u64,
        /// What happened to it.
        kind: FateKind,
        /// Message variant, for human-readable plans.
        what: &'static str,
    },
}

impl std::fmt::Display for PlanEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanEntry::Node {
                event:
                    NodeEvent::Crash {
                        node,
                        at_us,
                        restart_us,
                    },
                ..
            } => match restart_us {
                Some(r) => write!(
                    f,
                    "crash node {node} at {:.2}s, restart at {:.2}s",
                    *at_us as f64 / 1e6,
                    *r as f64 / 1e6
                ),
                None => write!(
                    f,
                    "crash node {node} at {:.2}s (permanent)",
                    *at_us as f64 / 1e6
                ),
            },
            PlanEntry::Node {
                event:
                    NodeEvent::Isolate {
                        node,
                        at_us,
                        heal_us,
                    },
                ..
            } => write!(
                f,
                "isolate node {node} at {:.2}s, heal at {:.2}s",
                *at_us as f64 / 1e6,
                *heal_us as f64 / 1e6
            ),
            PlanEntry::Node {
                event:
                    NodeEvent::Partition {
                        groups,
                        at_us,
                        heal_us,
                    },
                ..
            } => {
                let gs: Vec<String> = groups
                    .iter()
                    .map(|g| {
                        let ns: Vec<String> = g.iter().map(|n| n.to_string()).collect();
                        format!("{{{}}}", ns.join(","))
                    })
                    .collect();
                write!(
                    f,
                    "partition off {} at {:.2}s, heal at {:.2}s",
                    gs.join(" | "),
                    *at_us as f64 / 1e6,
                    *heal_us as f64 / 1e6
                )
            }
            PlanEntry::Node {
                event:
                    NodeEvent::Cut {
                        from,
                        to,
                        at_us,
                        heal_us,
                    },
                ..
            } => write!(
                f,
                "cut link {from}->{to} (one-way, silent) at {:.2}s, heal at {:.2}s",
                *at_us as f64 / 1e6,
                *heal_us as f64 / 1e6
            ),
            PlanEntry::Node {
                event:
                    NodeEvent::Gray {
                        node,
                        at_us,
                        heal_us,
                    },
                ..
            } => write!(
                f,
                "gray node {node} at {:.2}s, heal at {:.2}s",
                *at_us as f64 / 1e6,
                *heal_us as f64 / 1e6
            ),
            PlanEntry::Fault { seq, kind, what } => {
                write!(f, "{} {what} (wire seq {seq})", kind.label())
            }
        }
    }
}

/// The shrinker's neutralization set: which plan entries to suppress on
/// the next run. Everything else about the schedule is untouched.
#[derive(Clone, Debug, Default)]
pub struct Overrides {
    /// Message seqs forced to clean delivery.
    pub force_deliver: BTreeSet<u64>,
    /// Node-event indexes not scheduled at all.
    pub skip_events: BTreeSet<usize>,
    /// `(event index, node)` pairs removed from a
    /// [`NodeEvent::Partition`]'s groups — the shrinker's handle for
    /// bisecting partition membership without touching the rest of the
    /// event. A partition whose groups all empty out becomes a no-op.
    pub ungroup: BTreeSet<(usize, Addr)>,
    /// Overridden heal times per windowed event index (isolate,
    /// partition, cut, gray) — the shrinker's handle for bisecting
    /// fault windows down to the shortest one that still fails.
    pub trim_heal: BTreeMap<usize, u64>,
}

/// Counters for one run, part of the deterministic outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Messages delivered to a live node or the client.
    pub delivered: u64,
    /// Messages dropped by a drawn fate.
    pub dropped: u64,
    /// Messages duplicated by a drawn fate.
    pub duplicated: u64,
    /// Messages long-delayed by a drawn fate.
    pub delayed: u64,
    /// In-flight messages discarded because the destination crashed.
    pub lost_crashed: u64,
    /// In-flight messages discarded by an isolation starting mid-flight.
    pub lost_partition: u64,
    /// Messages silently discarded by an active one-way link cut.
    pub lost_cut: u64,
    /// Messages silently discarded by a gray endpoint's loss profile.
    pub gray_dropped: u64,
    /// Maintenance ticks executed across all nodes.
    pub ticks: u64,
    /// Client puts fully acked (all `r` replicas written).
    pub acked_puts: u32,
    /// Invariant checkpoints evaluated.
    pub checkpoints: u32,
}

/// One live node's storage holdings when the run ended — for
/// regression tests that pin placement-level behavior the invariants
/// deliberately tolerate (e.g. PR 9's lazy-repair gap, where a
/// restart-wiped owner legitimately holds no fragments of keys it
/// owns as long as enough other members still decode).
#[derive(Clone, Debug)]
pub struct NodeEndState {
    /// Transport address.
    pub addr: Addr,
    /// Ring position.
    pub id: Key,
    /// Keys of whole blocks in the node's store, sorted.
    pub block_keys: Vec<Key>,
    /// Keys the node holds an erasure fragment for, sorted.
    pub fragment_keys: Vec<Key>,
}

/// The deterministic result of one run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The seed that produced this outcome.
    pub seed: u64,
    /// Whether the world converged (three consecutive clean checkpoints
    /// before the deadline).
    pub ok: bool,
    /// The last invariant violation observed (failing runs only).
    pub violation: Option<String>,
    /// Virtual time at which the run ended.
    pub end_us: u64,
    /// Counters.
    pub stats: RunStats,
    /// The fault plan that actually played out (shrinker input).
    pub plan: Vec<PlanEntry>,
    /// The structured trace: scheduler decisions, node events, client
    /// progress, checkpoint verdicts, and — appended at the end of the
    /// run — every live node's flight-recorder spans as
    /// [`TraceEvent::WireSpan`] events in deterministic order.
    /// Byte-identical across replays of the same seed (export with
    /// [`d2_obs::trace::to_jsonl`]).
    pub trace: Vec<TraceEvent>,
    /// The surviving nodes' metric registries merged into one cluster
    /// view (`node.lookup_hops`, `node.puts`, `node.send_failures`, ...)
    /// — the same aggregation `d2-node top` performs on a live cluster.
    pub metrics: Registry,
    /// Each live node's storage holdings at the end of the run, in
    /// address order.
    pub end_nodes: Vec<NodeEndState>,
    /// The client workload: every put's key and whether it was fully
    /// acked by the end of the run.
    pub workload: Vec<(Key, bool)>,
}

/// Generates the node-event plan for a scenario from its seed (or
/// returns the scripted plan verbatim).
///
/// Generated plans respect the protocol's failure assumption: the
/// *dark budget* — nodes concurrently crashed, seceded into a
/// partition group, or gray — never exceeds
/// [`Scenario::failure_budget`] (`r - 1` replicated, `n - k`
/// erasure-coded), so an acked put can never lose every copy to the
/// plan itself. Victims are never node 0 (the well-known join seed and
/// remerge anchor), and every window closes before `fault_end_us`.
/// These guarantees are property-tested in `tests/plan_props.rs`.
pub fn generate_node_events(sc: &Scenario) -> Vec<NodeEvent> {
    if let Some(events) = &sc.node_events {
        return events.clone();
    }
    let mut events = match sc.regime {
        WorldRegime::Classic | WorldRegime::Wan | WorldRegime::Skew => {
            // WAN and skew worlds stress latency and timers, not new
            // event kinds — they reuse the classic plan (same salt, so
            // a classic seed's crash schedule is directly comparable).
            let mut rng = SplitMix::new(sc.seed ^ 0x0001_0000_0000_0001);
            gen_classic(sc, &mut rng)
        }
        WorldRegime::Partition => {
            let mut rng = SplitMix::new(sc.seed ^ 0x0003_0000_0000_0003);
            gen_partition(sc, &mut rng)
        }
        WorldRegime::Gray => {
            let mut rng = SplitMix::new(sc.seed ^ 0x0004_0000_0000_0004);
            gen_gray(sc, &mut rng)
        }
        WorldRegime::Mixed => {
            let mut rng = SplitMix::new(sc.seed ^ 0x0005_0000_0000_0005);
            match rng.unit() {
                u if u < 0.35 => gen_classic(sc, &mut rng),
                u if u < 0.70 => gen_partition(sc, &mut rng),
                _ => gen_gray(sc, &mut rng),
            }
        }
    };
    events.sort_by_key(event_sort_key);
    events
}

/// Deterministic ordering of a generated plan: by time, then a stable
/// kind rank, then the first node the event names.
fn event_sort_key(e: &NodeEvent) -> (u64, u8, Addr) {
    match e {
        NodeEvent::Crash { node, at_us, .. } => (*at_us, 0, *node),
        NodeEvent::Isolate { node, at_us, .. } => (*at_us, 1, *node),
        NodeEvent::Partition { groups, at_us, .. } => (
            *at_us,
            2,
            groups
                .iter()
                .flat_map(|g| g.iter())
                .copied()
                .min()
                .unwrap_or(0),
        ),
        NodeEvent::Cut { from, at_us, .. } => (*at_us, 3, *from),
        NodeEvent::Gray { node, at_us, .. } => (*at_us, 4, *node),
    }
}

/// PR 5's original plan shape: 0–2 crashes (half with restarts) and an
/// occasional single-node symmetric isolation.
fn gen_classic(sc: &Scenario, rng: &mut SplitMix) -> Vec<NodeEvent> {
    let fe = sc.fault_end_us;
    let mut events = Vec::new();
    let max_crashes = sc.failure_budget().min(sc.nodes.saturating_sub(2));
    let crashes = match rng.unit() {
        u if u < 0.20 => 0,
        u if u < 0.60 => 1usize.min(max_crashes),
        _ => 2usize.min(max_crashes),
    };
    let mut victims = BTreeSet::new();
    while victims.len() < crashes {
        victims.insert(1 + rng.index(sc.nodes - 1));
    }
    for node in victims {
        let at_us = rng.range(fe / 4, fe * 3 / 4);
        let restart_us = if rng.unit() < 0.5 {
            Some((at_us + rng.range(fe / 15, fe / 5)).min(fe - 1))
        } else {
            None
        };
        events.push(NodeEvent::Crash {
            node,
            at_us,
            restart_us,
        });
    }
    if rng.unit() < 0.35 {
        let node = 1 + rng.index(sc.nodes - 1);
        let at_us = rng.range(fe / 4, fe * 2 / 3);
        let heal_us = (at_us + rng.range(fe / 12, fe / 4)).min(fe - 1);
        events.push(NodeEvent::Isolate {
            node,
            at_us,
            heal_us,
        });
    }
    events
}

/// Partition-regime plans: one multi-node netsplit (sometimes three
/// ways), one or two one-way silent link cuts biased toward
/// ring-adjacent (replica chain) edges, and — half the time — a crash
/// of a cut's sending side while the cut is still dark. The *dark
/// budget* (nodes concurrently crashed or seceded) never exceeds the
/// scenario's failure budget, so any replica group keeps `f < r` —
/// an acked put can never lose every copy to the plan itself.
fn gen_partition(sc: &Scenario, rng: &mut SplitMix) -> Vec<NodeEvent> {
    let fe = sc.fault_end_us;
    let n = sc.nodes;
    let dark_budget = sc.failure_budget().min(n.saturating_sub(2));
    let mut events = Vec::new();

    // Split the dark budget up front between the netsplit's minority
    // and the (optional) aligned crash.
    let want_crash = dark_budget >= 2 && rng.unit() < 0.5;
    let minority_max = dark_budget - usize::from(want_crash);

    if minority_max >= 1 {
        // A contiguous run of non-seed nodes secedes: contiguous in
        // ring order is the worst case for replica chains, which span
        // consecutive successors.
        let m = 1 + rng.index(minority_max);
        let start = rng.index(n - 1);
        let members: Vec<Addr> = (0..m).map(|j| 1 + (start + j) % (n - 1)).collect();
        let at_us = rng.range(fe / 5, fe / 2);
        let heal_us = (at_us + rng.range(fe / 6, fe / 3)).min(fe - 1);
        let groups = if members.len() >= 2 && rng.unit() < 0.3 {
            // Three-way: the minority itself splits in two.
            let cut = 1 + rng.index(members.len() - 1);
            vec![members[..cut].to_vec(), members[cut..].to_vec()]
        } else {
            vec![members]
        };
        events.push(NodeEvent::Partition {
            groups,
            at_us,
            heal_us,
        });
    }

    let cuts = 1 + rng.index(2);
    let mut pairs: BTreeSet<(Addr, Addr)> = BTreeSet::new();
    for _ in 0..cuts {
        let (from, to) = if n >= 3 && rng.unit() < 0.6 {
            // A replica-chain edge: owner to first successor.
            let v = 1 + rng.index(n - 2);
            (v, v + 1)
        } else {
            loop {
                let a = 1 + rng.index(n - 1);
                let b = 1 + rng.index(n - 1);
                if a != b {
                    break (a, b);
                }
            }
        };
        if !pairs.insert((from, to)) {
            continue;
        }
        let at_us = rng.range(fe / 5, fe * 2 / 3);
        let heal_us = (at_us + rng.range(fe / 8, fe / 3)).min(fe - 1);
        events.push(NodeEvent::Cut {
            from,
            to,
            at_us,
            heal_us,
        });
    }

    if want_crash {
        // Crash the sending side of the first cut while its link is
        // still dark: anything it falsely promised downstream (and
        // silently lost) dies with it.
        let cut = events.iter().find_map(|e| match e {
            NodeEvent::Cut {
                from,
                at_us,
                heal_us,
                ..
            } => Some((*from, *at_us, *heal_us)),
            _ => None,
        });
        if let Some((victim, cut_at, cut_heal)) = cut {
            let lo = cut_at + (cut_heal - cut_at) / 4;
            let crash_at = rng.range(lo, cut_heal.max(lo + 1));
            let restart_us = if rng.unit() < 0.3 {
                Some((crash_at + rng.range(fe / 15, fe / 5)).min(fe - 1))
            } else {
                None
            };
            events.push(NodeEvent::Crash {
                node: victim,
                at_us: crash_at,
                restart_us,
            });
        }
    }
    events
}

/// Gray-regime plans: one or two per-node gray windows (slow + lossy,
/// no clean signal), plus an occasional classic crash when the dark
/// budget has room left. Gray nodes count against the dark budget even
/// though they keep their stores — while gray, their acks and repair
/// pushes are unreliable, so the safety argument treats them as down.
fn gen_gray(sc: &Scenario, rng: &mut SplitMix) -> Vec<NodeEvent> {
    let fe = sc.fault_end_us;
    let n = sc.nodes;
    let dark_budget = sc.failure_budget().min(n.saturating_sub(2)).max(1);
    let mut events = Vec::new();
    let grays = 1 + rng.index(dark_budget.min(2));
    let mut victims = BTreeSet::new();
    while victims.len() < grays.min(n - 1) {
        victims.insert(1 + rng.index(n - 1));
    }
    for node in victims {
        let at_us = rng.range(fe / 5, fe * 3 / 5);
        let heal_us = (at_us + rng.range(fe / 6, fe / 3)).min(fe - 1);
        events.push(NodeEvent::Gray {
            node,
            at_us,
            heal_us,
        });
    }
    if grays < dark_budget && rng.unit() < 0.35 {
        let node = 1 + rng.index(n - 1);
        let at_us = rng.range(fe / 4, fe * 3 / 4);
        let restart_us = if rng.unit() < 0.5 {
            Some((at_us + rng.range(fe / 15, fe / 5)).min(fe - 1))
        } else {
            None
        };
        events.push(NodeEvent::Crash {
            node,
            at_us,
            restart_us,
        });
    }
    events
}

/// Applies the shrinker's structural overrides to a generated plan:
/// partition members in `ungroup` leave their groups, and windowed
/// events with a `trim_heal` entry heal at the overridden time. The
/// result is the *effective* plan — what the run actually schedules
/// and what its reported [`PlanEntry::Node`] entries show.
fn effective_node_events(mut events: Vec<NodeEvent>, overrides: &Overrides) -> Vec<NodeEvent> {
    for (idx, ev) in events.iter_mut().enumerate() {
        if let NodeEvent::Partition { groups, .. } = ev {
            for g in groups.iter_mut() {
                g.retain(|n| !overrides.ungroup.contains(&(idx, *n)));
            }
            groups.retain(|g| !g.is_empty());
        }
        if let Some(&trimmed) = overrides.trim_heal.get(&idx) {
            match ev {
                NodeEvent::Isolate { at_us, heal_us, .. }
                | NodeEvent::Partition { at_us, heal_us, .. }
                | NodeEvent::Cut { at_us, heal_us, .. }
                | NodeEvent::Gray { at_us, heal_us, .. } => {
                    *heal_us = trimmed.max(*at_us + 1);
                }
                NodeEvent::Crash { .. } => {}
            }
        }
    }
    events
}

/// Shared state of the virtual network, behind the transport seam.
struct NetInner {
    client_addr: Addr,
    crashed: Vec<bool>,
    /// Partition group per node; messages cross only equal groups.
    /// Group 0 is the majority; isolations use group 1; netsplit groups
    /// start at 2.
    group: Vec<u8>,
    /// Active one-way silent cuts: a `(from, to)` entry discards
    /// `from → to` traffic without a send error.
    cuts: BTreeSet<(Addr, Addr)>,
    /// Which nodes are currently inside a gray window.
    gray: Vec<bool>,
    /// Messages sent but not yet scheduled (drained after every step),
    /// each with the trace context its sender put on the envelope.
    outbox: Vec<(Addr, Addr, WireMsg, TraceCtx)>,
}

/// The in-simulation [`Transport`]: sends append to the shared outbox
/// for the scheduler to assign fates; receives are never used because
/// the world calls [`NodeRuntime::on_message`] directly.
///
/// Sends fail fast with [`TransportError::PeerUnreachable`] exactly
/// when TCP would: the peer is crashed, or an isolation separates the
/// two endpoints. The client address is always reachable (it models a
/// local test client outside the faulted fabric).
pub struct SimTransport {
    me: Addr,
    net: Arc<Mutex<NetInner>>,
}

impl Transport for SimTransport {
    fn local_addr(&self) -> Addr {
        self.me
    }

    fn send_traced(&self, to: Addr, msg: &WireMsg, trace: TraceCtx) -> Result<(), TransportError> {
        let mut net = self.net.lock();
        if to != net.client_addr
            && (to >= net.crashed.len() || net.crashed[to] || net.group[self.me] != net.group[to])
        {
            return Err(TransportError::PeerUnreachable(to));
        }
        let me = self.me;
        net.outbox.push((me, to, msg.clone(), trace));
        Ok(())
    }

    fn recv_timeout(&self, _timeout: Duration) -> Result<(WireMsg, TraceCtx), RecvError> {
        // The world single-steps runtimes; nothing ever blocks here.
        Err(RecvError::Timeout)
    }

    fn set_mailbox(&self, _mailbox: Mailbox) {}

    fn shutdown(&self) {}
}

/// One scheduled occurrence in the virtual world.
enum Ev {
    /// Construct node `node` (bootstrap for 0, join via 0 otherwise).
    Boot { node: Addr },
    /// One maintenance tick of `node` (reschedules itself while live).
    Tick { node: Addr },
    /// A message lands at `to` (unless it crashed / was cut off since).
    /// The message is boxed so the queue's per-event footprint is not
    /// dominated by the largest `WireMsg` variant.
    Deliver {
        from: Addr,
        to: Addr,
        msg: Box<WireMsg>,
        trace: TraceCtx,
    },
    /// A node event from the plan fires.
    Node { idx: usize },
    /// A crashed node comes back (empty store, rejoins via node 0).
    Restart { node: Addr },
    /// An isolation ends.
    HealNode { node: Addr },
    /// A netsplit ends: the listed nodes rejoin the majority group.
    HealPartition { nodes: Vec<Addr> },
    /// A one-way cut ends.
    HealCut { from: Addr, to: Addr },
    /// A gray window ends.
    HealGray { node: Addr },
    /// The client issues (or retries) put `op`.
    ClientIssue { op: usize },
    /// The client's per-attempt timer for put `op` fires.
    ClientTimeout { op: usize, attempt: u32 },
    /// Evaluate the invariants (heal phase only).
    Checkpoint,
}

/// Client-side state of one put operation.
pub(crate) struct ClientOp {
    key: Key,
    data: Vec<u8>,
    acked: bool,
    attempt: u32,
    /// The outstanding request id, if any (stale responses are ignored).
    cur_req: Option<u64>,
}

impl ClientOp {
    pub(crate) fn acked(&self) -> bool {
        self.acked
    }

    pub(crate) fn key(&self) -> Key {
        self.key
    }

    pub(crate) fn data(&self) -> &[u8] {
        &self.data
    }
}

/// The clock a simulated node reads: the world's master [`SimClock`]
/// through the node's own (possibly zero) skew.
pub type WorldClock = SkewClock<SimClock>;

/// The simulated world. Construct with [`SimWorld::new`], consume with
/// [`SimWorld::run`].
pub struct SimWorld {
    sc: Scenario,
    clock: SimClock,
    net: Arc<Mutex<NetInner>>,
    nodes: Vec<Option<NodeRuntime<SimTransport, WorldClock>>>,
    node_ids: Vec<Key>,
    /// WAN latency matrix, when the regime uses one (`None` = uniform
    /// 1 ms LAN).
    wan: Option<Topology>,
    /// Per-node `(offset_us, drift_ppm)` clock skew; all zeros outside
    /// skewed worlds.
    skew: Vec<(u64, i64)>,
    node_events: Vec<NodeEvent>,
    skip_events: BTreeSet<usize>,
    policy: FatePolicy,
    queue: BTreeMap<(u64, u64), Ev>,
    next_ev: u64,
    /// Wire sequence number of node-to-node messages (the fate handle).
    msg_seq: u64,
    client_addr: Addr,
    ops: Vec<ClientOp>,
    next_req: u64,
    req_owner: HashMap<u64, usize>,
    join_acks_dropped: u32,
    faults_drawn: Vec<(u64, FateKind, &'static str)>,
    stats: RunStats,
    trace: Vec<TraceEvent>,
    clean_streak: u32,
    last_violation: Option<String>,
    verdict: Option<bool>,
}

impl SimWorld {
    /// Builds the world for `sc`, applying the shrinker's `overrides`.
    pub fn new(sc: Scenario, overrides: &Overrides) -> Self {
        assert!(sc.nodes >= 2, "a ring needs at least two nodes");
        assert!(
            (sc.required_acks() as usize) < sc.nodes,
            "the failure assumption needs the redundancy group < nodes"
        );
        if let Some(p) = sc.redundancy {
            p.validate().expect("scenario redundancy policy");
        }
        assert!(sc.fault_end_us >= 4_000_000, "leave room for boot + churn");
        let client_addr = sc.nodes;
        let net = Arc::new(Mutex::new(NetInner {
            client_addr,
            crashed: vec![false; sc.nodes],
            group: vec![0; sc.nodes],
            cuts: BTreeSet::new(),
            gray: vec![false; sc.nodes],
            outbox: Vec::new(),
        }));
        let node_ids: Vec<Key> = (0..sc.nodes)
            .map(|i| Key::from_fraction((i as f64 + 0.5) / sc.nodes as f64))
            .collect();
        let mut policy = FatePolicy::new(sc.seed, sc.probs, sc.fault_end_us);
        policy.force_deliver = overrides.force_deliver.clone();
        let node_events = effective_node_events(generate_node_events(&sc), overrides);

        // World dimensions beyond the event plan: WAN latency and clock
        // skew. The mixed regime draws each per seed (independently of
        // the event plan's stream) so roughly half its worlds carry
        // each extra dimension.
        let mut dims = SplitMix::new(sc.seed ^ 0x0006_0000_0000_0006);
        let (wan_u, skew_u) = (dims.unit(), dims.unit());
        let use_wan = match sc.regime {
            WorldRegime::Wan => true,
            WorldRegime::Mixed => wan_u < 0.5,
            _ => false,
        };
        let use_skew = match sc.regime {
            WorldRegime::Skew => true,
            WorldRegime::Mixed => skew_u < 0.5,
            _ => false,
        };
        let wan = use_wan.then(|| Topology::sample_seeded(sc.nodes, sc.wan_mean_rtt_ms, sc.seed));
        let skew: Vec<(u64, i64)> = if use_skew {
            let mut rng = SplitMix::new(sc.seed ^ 0x0007_0000_0000_0007);
            (0..sc.nodes)
                .map(|_| {
                    let offset = rng.range(0, sc.skew_max_offset_us.max(1));
                    let span = sc.skew_max_drift_ppm.max(0) as u64;
                    let drift = rng.range(0, 2 * span + 1) as i64 - span as i64;
                    (offset, drift)
                })
                .collect()
        } else {
            vec![(0, 0); sc.nodes]
        };

        // Distinct workload keys drawn from the seed.
        let mut rng = SplitMix::new(sc.seed ^ 0x0002_0000_0000_0002);
        let mut keys: Vec<Key> = Vec::new();
        while keys.len() < sc.puts {
            let k = Key::from_fraction(rng.unit());
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let ops = keys
            .into_iter()
            .enumerate()
            .map(|(i, key)| ClientOp {
                key,
                data: format!("blk-{i}-seed-{}", sc.seed).into_bytes(),
                acked: false,
                attempt: 0,
                cur_req: None,
            })
            .collect();

        let mut world = SimWorld {
            nodes: (0..sc.nodes).map(|_| None).collect(),
            node_ids,
            wan,
            skew,
            node_events,
            skip_events: overrides.skip_events.clone(),
            policy,
            queue: BTreeMap::new(),
            next_ev: 0,
            msg_seq: 0,
            client_addr,
            ops,
            next_req: 1,
            req_owner: HashMap::new(),
            join_acks_dropped: 0,
            faults_drawn: Vec::new(),
            stats: RunStats::default(),
            trace: Vec::new(),
            clean_streak: 0,
            last_violation: None,
            verdict: None,
            clock: SimClock::new(),
            net,
            sc,
        };

        for node in 0..world.sc.nodes {
            world.schedule(node as u64 * BOOT_SPACING_US, Ev::Boot { node });
        }
        for idx in 0..world.node_events.len() {
            if world.skip_events.contains(&idx) {
                continue;
            }
            let at = world.node_events[idx].at_us();
            world.schedule(at, Ev::Node { idx });
        }
        for op in 0..world.ops.len() {
            world.schedule(
                PUT_START_US + op as u64 * PUT_SPACING_US,
                Ev::ClientIssue { op },
            );
        }
        let first_check = world.sc.fault_end_us + CHECK_EVERY_US;
        world.schedule(first_check, Ev::Checkpoint);
        world
    }

    /// Runs the world to its verdict.
    pub fn run(mut self) -> RunOutcome {
        while self.verdict.is_none() {
            // The tick chains keep the queue non-empty until a verdict.
            let Some(((t, _), ev)) = self.queue.pop_first() else {
                break;
            };
            self.clock.set(t);
            self.dispatch(t, ev);
        }
        let ok = self.verdict.unwrap_or(false);
        let end_us = self.now();
        self.mark(
            end_us,
            format!("verdict {}", if ok { "ok" } else { "FAIL" }),
        );
        // Scrape the survivors: merge their registries into the cluster
        // view and export their flight recorders as WireSpan events, in
        // the recorders' own deterministic (start, trace, span) order.
        let mut metrics = Registry::new();
        let mut spans: Vec<SpanRecord> = Vec::new();
        for (_, rt) in self.live_nodes() {
            metrics.merge(rt.registry());
            spans.extend(rt.recorder().snapshot());
        }
        spans.sort_by(|a, b| {
            (a.start_us, a.trace_id, a.span_id, a.node)
                .cmp(&(b.start_us, b.trace_id, b.span_id, b.node))
        });
        for s in spans {
            self.trace.push(TraceEvent::WireSpan {
                t_us: s.start_us,
                trace_id: s.trace_id,
                span_id: s.span_id,
                parent_span_id: s.parent_span_id,
                hop: s.hop,
                node: s.node,
                dur_us: s.dur_us,
                ok: s.ok,
                op: s.op,
                detail: s.detail,
            });
        }
        let mut plan: Vec<PlanEntry> = self
            .node_events
            .iter()
            .enumerate()
            .filter(|(idx, _)| !self.skip_events.contains(idx))
            .map(|(idx, event)| PlanEntry::Node {
                idx,
                event: event.clone(),
            })
            .collect();
        plan.extend(
            self.faults_drawn
                .iter()
                .map(|&(seq, kind, what)| PlanEntry::Fault { seq, kind, what }),
        );
        let end_nodes = self
            .live_nodes()
            .map(|(addr, rt)| {
                let mut block_keys: Vec<Key> = rt.blocks().keys().copied().collect();
                let mut fragment_keys: Vec<Key> = rt.fragments().keys().copied().collect();
                block_keys.sort_unstable();
                fragment_keys.sort_unstable();
                NodeEndState {
                    addr,
                    id: self.node_ids[addr],
                    block_keys,
                    fragment_keys,
                }
            })
            .collect();
        let workload = self.ops.iter().map(|op| (op.key, op.acked)).collect();
        RunOutcome {
            seed: self.sc.seed,
            ok,
            violation: if ok { None } else { self.last_violation },
            end_us,
            stats: self.stats,
            plan,
            trace: self.trace,
            metrics,
            end_nodes,
            workload,
        }
    }

    /// Live nodes with their addresses (invariant checkers' view).
    pub(crate) fn live_nodes(
        &self,
    ) -> impl Iterator<Item = (Addr, &NodeRuntime<SimTransport, WorldClock>)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(a, rt)| rt.as_ref().map(|rt| (a, rt)))
    }

    pub(crate) fn replicas(&self) -> u32 {
        self.sc.replicas
    }

    pub(crate) fn redundancy(&self) -> Option<RedundancyPolicy> {
        self.sc.redundancy
    }

    pub(crate) fn client_ops(&self) -> &[ClientOp] {
        &self.ops
    }

    fn now(&self) -> u64 {
        self.clock.now_us()
    }

    fn schedule(&mut self, at_us: u64, ev: Ev) {
        let seq = self.next_ev;
        self.next_ev += 1;
        self.queue.insert((at_us, seq), ev);
    }

    fn mark(&mut self, t_us: u64, label: String) {
        self.trace.push(TraceEvent::Mark { t_us, label });
    }

    fn ring_cfg(&self) -> NodeConfig {
        let mut cfg = NodeConfig {
            probe_head_only: self.sc.probe_head_only,
            ack_on_send: self.sc.ack_on_send,
            ..NodeConfig::default()
        };
        if self.sc.no_anchor {
            cfg.anchor_every_ticks = 0;
        }
        cfg
    }

    /// Per-node phase offset so ticks interleave instead of firing in
    /// lockstep (which would hide ordering races).
    fn tick_phase(&self, node: Addr) -> u64 {
        (node as u64).wrapping_mul(1_371) % tick_us()
    }

    /// The (global-time) interval between `node`'s ticks: the runtime's
    /// tick period as measured by the node's own skewed clock. A node
    /// whose clock runs 5% fast fires its 20 ms timer every ~19 ms of
    /// world time — timers drift apart instead of marching in step.
    fn tick_every(&self, node: Addr) -> u64 {
        let drift = self.skew[node].1 as i128;
        (tick_us() as i128 * 1_000_000 / (1_000_000 + drift)).max(1) as u64
    }

    fn spawn_node(&mut self, t: u64, node: Addr, label: &str) {
        let transport = SimTransport {
            me: node,
            net: Arc::clone(&self.net),
        };
        let id = self.node_ids[node];
        let (offset_us, drift_ppm) = self.skew[node];
        let clock = SkewClock::new(self.clock.clone(), offset_us, drift_ppm);
        let spec = NodeSpec {
            id,
            seed: (node != 0).then_some(0),
            replicas: self.sc.replicas,
            redundancy: self.sc.redundancy,
            repair_threshold: self.sc.repair_threshold,
            repair_budget_bps: self.sc.repair_budget_bps,
        };
        let rt = NodeRuntime::with_ring_config(spec, self.ring_cfg(), transport, clock);
        self.nodes[node] = Some(rt);
        self.mark(t, format!("{label} node {node}"));
        self.drain_outbox(t);
        self.schedule(
            t + self.tick_every(node) + self.tick_phase(node),
            Ev::Tick { node },
        );
    }

    fn dispatch(&mut self, t: u64, ev: Ev) {
        match ev {
            Ev::Boot { node } => self.spawn_node(t, node, "boot"),
            Ev::Tick { node } => {
                // A crashed node's tick chain simply ends; Restart
                // starts a fresh one.
                if self.nodes[node].is_none() {
                    return;
                }
                self.nodes[node].as_mut().unwrap().on_tick();
                self.stats.ticks += 1;
                self.drain_outbox(t);
                let every = self.tick_every(node);
                self.schedule(t + every, Ev::Tick { node });
            }
            Ev::Deliver {
                from,
                to,
                msg,
                trace,
            } => self.deliver(t, from, to, *msg, trace),
            Ev::Node { idx } => match self.node_events[idx].clone() {
                NodeEvent::Crash {
                    node, restart_us, ..
                } => {
                    assert_ne!(node, 0, "node 0 is the well-known seed and never fails");
                    self.nodes[node] = None;
                    self.net.lock().crashed[node] = true;
                    self.mark(t, format!("crash node {node}"));
                    if let Some(r) = restart_us {
                        self.schedule(r.max(t + 1), Ev::Restart { node });
                    }
                }
                NodeEvent::Isolate { node, heal_us, .. } => {
                    assert_ne!(node, 0, "node 0 is the well-known seed and never fails");
                    self.net.lock().group[node] = 1;
                    self.mark(t, format!("isolate node {node}"));
                    self.schedule(heal_us.max(t + 1), Ev::HealNode { node });
                }
                NodeEvent::Partition {
                    groups, heal_us, ..
                } => {
                    let mut members = Vec::new();
                    {
                        let mut net = self.net.lock();
                        for (gi, group) in groups.iter().enumerate() {
                            for &n in group {
                                assert!(n < self.sc.nodes, "partition member out of range");
                                net.group[n] = (gi + 2).min(u8::MAX as usize) as u8;
                                members.push(n);
                            }
                        }
                    }
                    if members.is_empty() {
                        return; // fully ungrouped by the shrinker
                    }
                    self.mark(t, format!("partition off {members:?}"));
                    self.schedule(heal_us.max(t + 1), Ev::HealPartition { nodes: members });
                }
                NodeEvent::Cut {
                    from, to, heal_us, ..
                } => {
                    self.net.lock().cuts.insert((from, to));
                    self.mark(t, format!("cut link {from}->{to}"));
                    self.schedule(heal_us.max(t + 1), Ev::HealCut { from, to });
                }
                NodeEvent::Gray { node, heal_us, .. } => {
                    assert_ne!(node, 0, "node 0 is the well-known seed and never fails");
                    self.net.lock().gray[node] = true;
                    self.mark(t, format!("gray node {node}"));
                    self.schedule(heal_us.max(t + 1), Ev::HealGray { node });
                }
            },
            Ev::Restart { node } => {
                self.net.lock().crashed[node] = false;
                self.spawn_node(t, node, "restart");
            }
            Ev::HealNode { node } => {
                self.net.lock().group[node] = 0;
                self.mark(t, format!("heal node {node}"));
            }
            Ev::HealPartition { nodes } => {
                {
                    let mut net = self.net.lock();
                    for &n in &nodes {
                        net.group[n] = 0;
                    }
                }
                self.mark(t, format!("heal partition {nodes:?}"));
            }
            Ev::HealCut { from, to } => {
                self.net.lock().cuts.remove(&(from, to));
                self.mark(t, format!("heal cut {from}->{to}"));
            }
            Ev::HealGray { node } => {
                self.net.lock().gray[node] = false;
                self.mark(t, format!("heal gray node {node}"));
            }
            Ev::ClientIssue { op } => {
                if !self.ops[op].acked {
                    self.client_attempt(t, op);
                }
            }
            Ev::ClientTimeout { op, attempt } => {
                if !self.ops[op].acked && self.ops[op].attempt == attempt {
                    self.client_attempt(t, op);
                }
            }
            Ev::Checkpoint => self.checkpoint(t),
        }
    }

    /// An in-flight message arrives (or is lost to a state change that
    /// happened after it was sent).
    fn deliver(&mut self, t: u64, from: Addr, to: Addr, msg: WireMsg, trace: TraceCtx) {
        if to == self.client_addr {
            self.stats.delivered += 1;
            self.client_on_msg(t, msg);
            return;
        }
        if self.nodes[to].is_none() {
            self.stats.lost_crashed += 1;
            return;
        }
        if from != self.client_addr {
            let (split, cut) = {
                let net = self.net.lock();
                (
                    net.group[from] != net.group[to],
                    net.cuts.contains(&(from, to)),
                )
            };
            if split {
                self.stats.lost_partition += 1;
                return;
            }
            if cut {
                // The cut started (or persisted) while this message was
                // in flight: it dies on the wire, silently.
                self.stats.lost_cut += 1;
                return;
            }
        }
        self.stats.delivered += 1;
        // Shutdown never travels inside the simulation, so the return
        // value (continue/exit) is always `true`.
        let _ = self.nodes[to].as_mut().unwrap().on_message(msg, trace);
        self.drain_outbox(t);
    }

    /// Assigns a fate and a landing time to everything nodes just sent.
    fn drain_outbox(&mut self, t: u64) {
        let msgs = std::mem::take(&mut self.net.lock().outbox);
        for (from, to, msg, trace) in msgs {
            if to == self.client_addr {
                // The client link is outside the faulted fabric.
                self.schedule(
                    t + BASE_DELAY_US,
                    Ev::Deliver {
                        from,
                        to,
                        msg: Box::new(msg),
                        trace,
                    },
                );
                continue;
            }
            // Targeted regression fault: lose the first JoinAck(s).
            if self.join_acks_dropped < self.sc.drop_first_join_acks
                && matches!(msg, WireMsg::Ring(RingMsg::JoinAck { .. }))
            {
                self.join_acks_dropped += 1;
                let n = self.join_acks_dropped;
                self.mark(t, format!("scripted drop join_ack #{n}"));
                self.stats.dropped += 1;
                continue;
            }
            let (cut, gray) = {
                let net = self.net.lock();
                (
                    net.cuts.contains(&(from, to)),
                    net.gray[from] || net.gray[to],
                )
            };
            if cut {
                // One-way silent cut: the send "succeeded" (no transport
                // error, so the sender's failure detector stays quiet)
                // but the message dies on the wire. Not a fault-plan
                // entry — the Cut node event is the shrinker's handle.
                self.stats.lost_cut += 1;
                continue;
            }
            let seq = self.msg_seq;
            self.msg_seq += 1;
            let what = msg.type_name();
            // A gray endpoint modulates the message before the global
            // fate draw: extra loss and extra latency, hashed per-seq so
            // the shrinker's force-deliver set neutralizes individual
            // gray drops without disturbing anything else.
            let gray_extra_us = if gray {
                let (dropped, extra) = gray_fate(
                    self.sc.seed,
                    seq,
                    self.sc.gray_drop,
                    self.sc.gray_extra_delay_us,
                );
                if dropped && !self.policy.force_deliver.contains(&seq) {
                    self.faults_drawn.push((seq, FateKind::GrayDrop, what));
                    self.stats.gray_dropped += 1;
                    self.mark(t, format!("fate seq={seq} gray-drop {what} {from}->{to}"));
                    continue;
                }
                extra
            } else {
                0
            };
            let fate = self.policy.fate(seq, t);
            let arrive = t + self.link_us(from, to) + gray_extra_us + fate.jitter_us;
            match fate.kind {
                FateKind::Deliver | FateKind::GrayDrop => {
                    // GrayDrop is unreachable here (handled above); it
                    // falls through to plain delivery for robustness.
                    self.schedule(
                        arrive,
                        Ev::Deliver {
                            from,
                            to,
                            msg: Box::new(msg),
                            trace,
                        },
                    );
                }
                FateKind::Drop => {
                    self.faults_drawn.push((seq, FateKind::Drop, what));
                    self.stats.dropped += 1;
                    self.mark(t, format!("fate seq={seq} drop {what} {from}->{to}"));
                }
                FateKind::Delay => {
                    self.faults_drawn.push((seq, FateKind::Delay, what));
                    self.stats.delayed += 1;
                    self.mark(t, format!("fate seq={seq} delay {what} {from}->{to}"));
                    self.schedule(
                        arrive + LONG_DELAY_US,
                        Ev::Deliver {
                            from,
                            to,
                            msg: Box::new(msg),
                            trace,
                        },
                    );
                }
                FateKind::Duplicate => {
                    self.faults_drawn.push((seq, FateKind::Duplicate, what));
                    self.stats.duplicated += 1;
                    self.mark(t, format!("fate seq={seq} duplicate {what} {from}->{to}"));
                    self.schedule(
                        arrive,
                        Ev::Deliver {
                            from,
                            to,
                            msg: Box::new(msg.clone()),
                            trace,
                        },
                    );
                    self.schedule(
                        arrive + 1 + fate.dup_extra_us,
                        Ev::Deliver {
                            from,
                            to,
                            msg: Box::new(msg),
                            trace,
                        },
                    );
                }
            }
        }
    }

    /// One-way propagation delay of the `from → to` link: a flat 1 ms
    /// LAN by default, the WAN topology's per-pair latency when this
    /// world sampled one.
    fn link_us(&self, from: Addr, to: Addr) -> u64 {
        match &self.wan {
            Some(top) => top.one_way_us(from, to).max(1),
            None => BASE_DELAY_US,
        }
    }

    // -----------------------------------------------------------------
    // The in-world client: issues the put workload against live entry
    // nodes, retries on timeout, and accepts an ack only when the full
    // replica chain reported `r` copies — mirroring what `ClusterOps`
    // callers assert in the live deployments.
    // -----------------------------------------------------------------

    /// Trace id of client put `op`: the small dense ids `1..=puts`, so
    /// replayed span trees read as "trace 1 = put 0". Node joins use
    /// their (huge) ring position as trace id and cannot collide.
    fn op_trace_id(op: usize) -> u64 {
        op as u64 + 1
    }

    fn client_attempt(&mut self, t: u64, op: usize) {
        let live: Vec<Addr> = self.live_nodes().map(|(a, _)| a).collect();
        self.ops[op].attempt += 1;
        let attempt = self.ops[op].attempt;
        let entry = live[(op + attempt as usize) % live.len()];
        let req_id = self.next_req;
        self.next_req += 1;
        self.ops[op].cur_req = Some(req_id);
        self.req_owner.insert(req_id, op);
        let msg = WireMsg::Request {
            req_id,
            from: self.client_addr,
            body: Request::Lookup {
                key: self.ops[op].key,
            },
        };
        self.mark(
            t,
            format!("client put {op} attempt {attempt} via node {entry}"),
        );
        self.schedule(
            t + BASE_DELAY_US,
            Ev::Deliver {
                from: self.client_addr,
                to: entry,
                msg: Box::new(msg),
                trace: TraceCtx::root(Self::op_trace_id(op)),
            },
        );
        self.schedule(t + OP_TIMEOUT_US, Ev::ClientTimeout { op, attempt });
    }

    fn client_on_msg(&mut self, t: u64, msg: WireMsg) {
        let WireMsg::Response { req_id, body } = msg else {
            return; // nodes only ever send responses to the client
        };
        let Some(&op) = self.req_owner.get(&req_id) else {
            return;
        };
        if self.ops[op].cur_req != Some(req_id) || self.ops[op].acked {
            return; // a stale attempt's response (e.g. after a timeout)
        }
        match body {
            Response::Owner { owner, .. } => {
                let put_req = self.next_req;
                self.next_req += 1;
                self.ops[op].cur_req = Some(put_req);
                self.req_owner.insert(put_req, op);
                let msg = WireMsg::Request {
                    req_id: put_req,
                    from: self.client_addr,
                    body: Request::Put {
                        key: self.ops[op].key,
                        // EC owners ignore the requested fanout — the
                        // policy's group size decides.
                        fanout: self.sc.required_acks() - 1,
                        stored: 0,
                        data: self.ops[op].data.clone(),
                    },
                };
                self.schedule(
                    t + BASE_DELAY_US,
                    Ev::Deliver {
                        from: self.client_addr,
                        to: owner.addr,
                        msg: Box::new(msg),
                        trace: TraceCtx::root(Self::op_trace_id(op)),
                    },
                );
            }
            Response::PutAck { replicas } => {
                // In EC mode the ack carries the fragment count; full
                // durability is the whole group, just as it is all `r`
                // copies under replication.
                if replicas >= self.sc.required_acks() {
                    self.ops[op].acked = true;
                    self.ops[op].cur_req = None;
                    self.stats.acked_puts += 1;
                    self.mark(t, format!("client put {op} acked replicas={replicas}"));
                } else {
                    // A truncated chain (crashed / isolated successors).
                    // Durability demands the full factor: retry after a
                    // backoff. The bump of `attempt` invalidates the
                    // pending timeout for this attempt.
                    self.ops[op].cur_req = None;
                    self.ops[op].attempt += 1;
                    self.mark(
                        t,
                        format!("client put {op} degraded replicas={replicas}, retrying"),
                    );
                    self.schedule(t + DEGRADED_RETRY_US, Ev::ClientIssue { op });
                }
            }
            // The lookup's owner no longer owns the key (it raced a
            // join): look it up again, now, through the next entry. The
            // new attempt supersedes this one's timeout.
            Response::NotOwner => {
                self.mark(t, format!("client put {op} refused (not owner), retrying"));
                self.client_attempt(t, op);
            }
            _ => {}
        }
    }

    // -----------------------------------------------------------------
    // Heal-phase checkpoints
    // -----------------------------------------------------------------

    fn checkpoint(&mut self, t: u64) {
        self.stats.checkpoints += 1;
        match invariants::check_all(self) {
            Ok(()) => {
                self.clean_streak += 1;
                let streak = self.clean_streak;
                self.mark(t, format!("checkpoint ok ({streak}/{CONSECUTIVE_OK})"));
                if streak >= CONSECUTIVE_OK {
                    self.verdict = Some(true);
                    return;
                }
            }
            Err(v) => {
                self.clean_streak = 0;
                self.mark(t, format!("checkpoint violation: {v}"));
                self.last_violation = Some(v);
            }
        }
        if t + CHECK_EVERY_US <= self.sc.deadline_us {
            self.schedule(t + CHECK_EVERY_US, Ev::Checkpoint);
        } else {
            self.verdict = Some(false);
            if self.last_violation.is_none() {
                self.last_violation = Some("deadline reached with no clean checkpoint".into());
            }
        }
    }
}

/// The virtual tick period: the same constant the live runtimes use.
fn tick_us() -> u64 {
    TICK.as_micros() as u64
}
