//! The structured trace layer: virtual-time event records, sinks, and
//! deterministic JSONL export.
//!
//! Library code never prints; it offers each interesting moment (a
//! routed lookup's hop path, a cache probe, a migration transfer) to a
//! [`TraceSink`] as a [`TraceEvent`]. The default sink is the disabled
//! [`SharedSink::null`], which records nothing and — because events are
//! built lazily via [`SharedSink::record_with`] — allocates nothing on
//! the instrumented paths. Drivers that want traces attach a
//! [`MemorySink`] and export [`to_jsonl`] afterwards; the export is
//! byte-identical for identical seeded runs.
//!
//! Timestamps are virtual microseconds (`t_us`), the same clock as
//! `d2_sim::SimTime`; this crate stays at the bottom of the dependency
//! graph and therefore stores the raw integer.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// Which cache tier a probe hit: the range-based lookup cache (paper
/// Section 5) is the only one, but the JSONL keeps the field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTier {
    /// The range-based lookup cache (paper Section 5).
    Lookup,
}

impl CacheTier {
    /// Stable lowercase label (used in JSON and metric names).
    pub fn label(&self) -> &'static str {
        match self {
            CacheTier::Lookup => "lookup",
        }
    }
}

/// Outcome of one cache probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheResult {
    /// Fresh entry, used directly.
    Hit,
    /// No usable entry.
    Miss,
    /// Entry existed but pointed at a node that no longer owns the key
    /// (costs a wasted round trip, then a routed lookup).
    Stale,
}

impl CacheResult {
    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            CacheResult::Hit => "hit",
            CacheResult::Miss => "miss",
            CacheResult::Stale => "stale",
        }
    }
}

/// Why bytes moved between nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationKind {
    /// Load-balance move shipping a replica to the mover.
    Balance,
    /// Replica regeneration after failures / membership change.
    Repair,
    /// A deferred block pointer being resolved into a real copy.
    PointerResolve,
}

impl MigrationKind {
    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            MigrationKind::Balance => "balance",
            MigrationKind::Repair => "repair",
            MigrationKind::PointerResolve => "pointer_resolve",
        }
    }
}

/// One structured trace event. All timestamps are virtual microseconds.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Free-form marker delimiting phases of a run (e.g. one swept
    /// configuration cell).
    Mark {
        /// Virtual time.
        t_us: u64,
        /// Marker text.
        label: String,
    },
    /// One routed DHT lookup: the hop path from requester to owner
    /// (emitted by `d2-ring`'s router; latency-free — the router knows
    /// topology hops, not wire time).
    Route {
        /// Virtual time.
        t_us: u64,
        /// Requesting user.
        user: u32,
        /// Looked-up key (64-bit ordered prefix).
        key: u64,
        /// Requesting node.
        from: usize,
        /// Owner found.
        owner: usize,
        /// Forwarding hops.
        hops: u32,
        /// Messages spent (hops + reply).
        messages: u32,
        /// Nodes visited, requester first, owner last.
        path: Vec<usize>,
    },
    /// One block fetch end-to-end (emitted by the performance
    /// simulator): cache outcome, lookup and transfer latency split.
    Fetch {
        /// Virtual time the fetch was issued.
        t_us: u64,
        /// Requesting user.
        user: u32,
        /// Fetched key (64-bit ordered prefix).
        key: u64,
        /// Lookup-cache outcome for this fetch.
        result: CacheResult,
        /// Time spent resolving the owner (0 on a fresh cache hit).
        lookup_us: u64,
        /// One-way latency of each lookup hop (empty when not routed).
        hop_us: Vec<u64>,
        /// Server queueing + TCP transfer time.
        transfer_us: u64,
        /// Total fetch latency.
        total_us: u64,
        /// Replica that served the block.
        server: usize,
        /// Bytes fetched.
        len: u32,
    },
    /// One cache probe (emitted by `d2-store`'s lookup cache).
    CacheProbe {
        /// Virtual time.
        t_us: u64,
        /// Probing user (0 when the tier is not per-user).
        user: u32,
        /// Which tier.
        tier: CacheTier,
        /// Hit, miss, or stale.
        result: CacheResult,
        /// Probed key (64-bit ordered prefix).
        key: u64,
    },
    /// Bytes copied between nodes for balance/repair/pointer resolution
    /// (emitted by `d2-core`'s cluster).
    Migration {
        /// Virtual time.
        t_us: u64,
        /// Why the copy happened.
        kind: MigrationKind,
        /// Source node.
        src: usize,
        /// Destination node.
        dst: usize,
        /// Block key (64-bit ordered prefix).
        key: u64,
        /// Bytes on the wire.
        bytes: u64,
    },
    /// A balancer ID change: `mover` rejoined next to `heavy` to share
    /// its load.
    BalanceMove {
        /// Virtual time.
        t_us: u64,
        /// Node whose ID changed.
        mover: usize,
        /// Overloaded node being relieved.
        heavy: usize,
    },
    /// One client lookup of the churn experiment, as the client in a
    /// simulated world of protocol nodes measured it.
    ChurnLookup {
        /// Virtual time the lookup was issued.
        t_us: u64,
        /// Entry node of its last attempt.
        from: usize,
        /// Looked-up key (64-bit ordered prefix).
        key: u64,
        /// Whether it was answered with the key's owner.
        ok: bool,
        /// Forwarding hops of the answer (0 when unanswered).
        hops: u32,
        /// Re-attempts, each through another entry after a timeout.
        retries: u32,
        /// Attempts that timed out.
        timeouts: u32,
        /// Virtual time to the answer, or to the last timeout.
        latency_us: u64,
    },
    /// One causally-linked wire span collected from a node's
    /// [`crate::FlightRecorder`]: the DST harness exports these so a
    /// shrunk failing seed yields the same cross-node causal narrative
    /// `d2-node trace` prints for a live cluster.
    WireSpan {
        /// Start time on the recording node's clock.
        t_us: u64,
        /// The client operation this span belongs to.
        trace_id: u64,
        /// This span's id.
        span_id: u64,
        /// The causing span (0 = the client).
        parent_span_id: u64,
        /// Forwarding depth.
        hop: u8,
        /// Recording node.
        node: u64,
        /// Duration (0 for instantaneous steps).
        dur_us: u64,
        /// Whether the step succeeded.
        ok: bool,
        /// Operation label (`"lookup"`, `"put.chain"`, ...).
        op: String,
        /// Free-form detail.
        detail: String,
    },
    /// A completed timed span (e.g. one user task / access group).
    Span {
        /// Virtual start time.
        t_us: u64,
        /// Span name.
        name: String,
        /// Owning user.
        user: u32,
        /// Duration.
        dur_us: u64,
        /// Items covered (e.g. blocks fetched).
        items: u32,
    },
}

impl TraceEvent {
    /// Virtual timestamp of the event.
    pub fn t_us(&self) -> u64 {
        match self {
            TraceEvent::Mark { t_us, .. }
            | TraceEvent::Route { t_us, .. }
            | TraceEvent::Fetch { t_us, .. }
            | TraceEvent::CacheProbe { t_us, .. }
            | TraceEvent::Migration { t_us, .. }
            | TraceEvent::BalanceMove { t_us, .. }
            | TraceEvent::ChurnLookup { t_us, .. }
            | TraceEvent::WireSpan { t_us, .. }
            | TraceEvent::Span { t_us, .. } => *t_us,
        }
    }

    /// Renders the event as one compact, deterministic JSON object
    /// (fields in declaration order).
    pub fn to_json(&self) -> String {
        fn list(vals: &[impl ToString]) -> String {
            let items: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
            format!("[{}]", items.join(","))
        }
        match self {
            TraceEvent::Mark { t_us, label } => {
                format!("{{\"ev\":\"mark\",\"t_us\":{t_us},\"label\":\"{}\"}}", crate::json::escape(label))
            }
            TraceEvent::Route { t_us, user, key, from, owner, hops, messages, path } => format!(
                "{{\"ev\":\"route\",\"t_us\":{t_us},\"user\":{user},\"key\":{key},\"from\":{from},\"owner\":{owner},\"hops\":{hops},\"messages\":{messages},\"path\":{}}}",
                list(path)
            ),
            TraceEvent::Fetch {
                t_us, user, key, result, lookup_us, hop_us, transfer_us, total_us, server, len,
            } => format!(
                "{{\"ev\":\"fetch\",\"t_us\":{t_us},\"user\":{user},\"key\":{key},\"result\":\"{}\",\"lookup_us\":{lookup_us},\"hop_us\":{},\"transfer_us\":{transfer_us},\"total_us\":{total_us},\"server\":{server},\"len\":{len}}}",
                result.label(),
                list(hop_us)
            ),
            TraceEvent::CacheProbe { t_us, user, tier, result, key } => format!(
                "{{\"ev\":\"cache_probe\",\"t_us\":{t_us},\"user\":{user},\"tier\":\"{}\",\"result\":\"{}\",\"key\":{key}}}",
                tier.label(),
                result.label()
            ),
            TraceEvent::Migration { t_us, kind, src, dst, key, bytes } => format!(
                "{{\"ev\":\"migration\",\"t_us\":{t_us},\"kind\":\"{}\",\"src\":{src},\"dst\":{dst},\"key\":{key},\"bytes\":{bytes}}}",
                kind.label()
            ),
            TraceEvent::BalanceMove { t_us, mover, heavy } => format!(
                "{{\"ev\":\"balance_move\",\"t_us\":{t_us},\"mover\":{mover},\"heavy\":{heavy}}}"
            ),
            TraceEvent::ChurnLookup { t_us, from, key, ok, hops, retries, timeouts, latency_us } => format!(
                "{{\"ev\":\"churn_lookup\",\"t_us\":{t_us},\"from\":{from},\"key\":{key},\"ok\":{ok},\"hops\":{hops},\"retries\":{retries},\"timeouts\":{timeouts},\"latency_us\":{latency_us}}}"
            ),
            TraceEvent::WireSpan {
                t_us, trace_id, span_id, parent_span_id, hop, node, dur_us, ok, op, detail,
            } => format!(
                "{{\"ev\":\"wire_span\",\"t_us\":{t_us},\"trace_id\":{trace_id},\"span_id\":{span_id},\"parent_span_id\":{parent_span_id},\"hop\":{hop},\"node\":{node},\"dur_us\":{dur_us},\"ok\":{ok},\"op\":\"{}\",\"detail\":\"{}\"}}",
                crate::json::escape(op),
                crate::json::escape(detail)
            ),
            TraceEvent::Span { t_us, name, user, dur_us, items } => format!(
                "{{\"ev\":\"span\",\"t_us\":{t_us},\"name\":\"{}\",\"user\":{user},\"dur_us\":{dur_us},\"items\":{items}}}",
                crate::json::escape(name)
            ),
        }
    }
}

/// Renders events as JSON Lines (one event per line, trailing newline
/// after each). Byte-identical for identical event sequences.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json());
        out.push('\n');
    }
    out
}

/// Receives trace events. Implementations must be cheap when disabled.
pub trait TraceSink {
    /// Whether events should be constructed and recorded at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&mut self, event: TraceEvent);

    /// Removes and returns all buffered events (empty for sinks that do
    /// not buffer).
    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// The zero-cost disabled sink.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}
}

/// A bounded in-memory ring buffer of events. When full, the oldest
/// events are dropped (and counted).
#[derive(Clone, Debug, Default)]
pub struct MemorySink {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl MemorySink {
    /// Creates a sink holding at most `capacity` events (0 = unbounded).
    pub fn new(capacity: usize) -> Self {
        MemorySink {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: TraceEvent) {
        if self.capacity > 0 && self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }
}

/// A cheaply clonable handle to a sink, shared by every component of one
/// simulation (`Clone` shares the underlying buffer, it does not fork
/// it). The default / [`SharedSink::null`] handle is disabled and
/// allocation-free.
#[derive(Clone, Default)]
pub struct SharedSink {
    inner: Option<Rc<RefCell<dyn TraceSink>>>,
}

impl SharedSink {
    /// The disabled sink: records nothing, costs one branch per offer.
    pub fn null() -> Self {
        SharedSink { inner: None }
    }

    /// Wraps any sink implementation.
    pub fn new<S: TraceSink + 'static>(sink: S) -> Self {
        SharedSink {
            inner: Some(Rc::new(RefCell::new(sink))),
        }
    }

    /// A shared in-memory ring buffer of at most `capacity` events.
    pub fn memory(capacity: usize) -> Self {
        Self::new(MemorySink::new(capacity))
    }

    /// Whether recording is active.
    pub fn enabled(&self) -> bool {
        match &self.inner {
            Some(s) => s.borrow().enabled(),
            None => false,
        }
    }

    /// Records the event produced by `build` — called only when the sink
    /// is enabled, so disabled sinks pay no event construction.
    pub fn record_with<F: FnOnce() -> TraceEvent>(&self, build: F) {
        if let Some(s) = &self.inner {
            let mut s = s.borrow_mut();
            if s.enabled() {
                s.record(build());
            }
        }
    }

    /// Removes and returns all buffered events.
    pub fn drain(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(s) => s.borrow_mut().drain(),
            None => Vec::new(),
        }
    }

    /// Records a batch of already-built events in order. Used to merge
    /// per-worker trace buffers back into a parent sink in a canonical
    /// order; a disabled sink discards the batch.
    pub fn extend<I: IntoIterator<Item = TraceEvent>>(&self, events: I) {
        if let Some(s) = &self.inner {
            let mut s = s.borrow_mut();
            if s.enabled() {
                for ev in events {
                    s.record(ev);
                }
            }
        }
    }
}

impl fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(_) => write!(f, "SharedSink(active)"),
            None => write!(f, "SharedSink(null)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(t: u64) -> TraceEvent {
        TraceEvent::Route {
            t_us: t,
            user: 1,
            key: 99,
            from: 0,
            owner: 3,
            hops: 2,
            messages: 3,
            path: vec![0, 5, 3],
        }
    }

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let sink = SharedSink::null();
        assert!(!sink.enabled());
        let mut built = false;
        sink.record_with(|| {
            built = true;
            route(0)
        });
        assert!(!built, "event must not be constructed for a null sink");
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn memory_sink_records_and_drains() {
        let sink = SharedSink::memory(10);
        assert!(sink.enabled());
        sink.record_with(|| route(1));
        sink.record_with(|| route(2));
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t_us(), 1);
        assert!(sink.drain().is_empty(), "drain empties the buffer");
    }

    #[test]
    fn clone_shares_the_buffer() {
        let a = SharedSink::memory(10);
        let b = a.clone();
        b.record_with(|| route(7));
        assert_eq!(a.drain().len(), 1);
    }

    #[test]
    fn extend_appends_in_order_and_null_discards() {
        let sink = SharedSink::memory(0);
        sink.record_with(|| route(1));
        sink.extend(vec![route(2), route(3)]);
        let ts: Vec<u64> = sink.drain().iter().map(|e| e.t_us()).collect();
        assert_eq!(ts, vec![1, 2, 3]);
        let null = SharedSink::null();
        null.extend(vec![route(9)]);
        assert!(null.drain().is_empty());
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut sink = MemorySink::new(2);
        sink.record(route(1));
        sink.record(route(2));
        sink.record(route(3));
        assert_eq!(sink.dropped(), 1);
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t_us(), 2);
    }

    #[test]
    fn jsonl_is_deterministic_and_line_per_event() {
        let events = vec![
            TraceEvent::Mark {
                t_us: 0,
                label: "cell \"a\"".into(),
            },
            route(5),
            TraceEvent::CacheProbe {
                t_us: 6,
                user: 2,
                tier: CacheTier::Lookup,
                result: CacheResult::Stale,
                key: 42,
            },
            TraceEvent::Migration {
                t_us: 7,
                kind: MigrationKind::PointerResolve,
                src: 1,
                dst: 2,
                key: 9,
                bytes: 8192,
            },
            TraceEvent::BalanceMove {
                t_us: 8,
                mover: 4,
                heavy: 9,
            },
            TraceEvent::Fetch {
                t_us: 9,
                user: 1,
                key: 3,
                result: CacheResult::Hit,
                lookup_us: 0,
                hop_us: vec![],
                transfer_us: 100,
                total_us: 100,
                server: 2,
                len: 8192,
            },
            TraceEvent::Span {
                t_us: 10,
                name: "group".into(),
                user: 1,
                dur_us: 50,
                items: 3,
            },
            TraceEvent::ChurnLookup {
                t_us: 11,
                from: 4,
                key: 77,
                ok: false,
                hops: 6,
                retries: 8,
                timeouts: 9,
                latency_us: 4_700_000,
            },
            TraceEvent::WireSpan {
                t_us: 13,
                trace_id: 0xBEEF,
                span_id: 2,
                parent_span_id: 1,
                hop: 3,
                node: 6,
                dur_us: 250,
                ok: true,
                op: "put.chain".into(),
                detail: "stored=2/3".into(),
            },
        ];
        let a = to_jsonl(&events);
        let b = to_jsonl(&events);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), events.len());
        assert!(a.contains("\"ev\":\"route\""));
        assert!(a.contains("\"path\":[0,5,3]"));
        assert!(a.contains("\"tier\":\"lookup\""));
        assert!(a.contains("\"result\":\"stale\""));
        assert!(a.contains("\"kind\":\"pointer_resolve\""));
        assert!(a.contains("\"ev\":\"churn_lookup\""));
        assert!(a.contains("\"ok\":false"));
        assert!(a.contains("cell \\\"a\\\""));
        for line in a.lines() {
            assert!(line.starts_with("{\"ev\":\"") && line.ends_with('}'));
        }
    }
}
