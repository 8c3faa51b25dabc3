//! The versioned, length-prefixed binary codec for inter-node traffic.
//!
//! Every frame on the wire is:
//!
//! ```text
//! +------+------+---------+-----+----------------+------------------+
//! | 0x44 | 0x32 | version | tag | payload length | payload ...      |
//! | 'D'  | '2'  |  (1 B)  |(1 B)|  (4 B, BE u32) | (length bytes)   |
//! +------+------+---------+-----+----------------+------------------+
//! ```
//!
//! The two magic bytes reject cross-protocol traffic, the version byte
//! rejects incompatible peers, and the one-byte tag names the message
//! variant so a decoder never has to guess. Payload integers are
//! big-endian; [`Key`]s are their raw 64 bytes; variable-length fields
//! carry explicit counts. Decoding is strict: truncated frames, oversized
//! length prefixes, unknown tags, and trailing bytes are all
//! [`WireError`]s, never panics — a malformed peer costs a closed
//! connection, not a crashed node.
//!
//! # The trace block
//!
//! Every payload starts with a fixed 17-byte **trace block**, before the
//! tagged message body:
//!
//! ```text
//! | trace_id (8 B) | span_id (8 B) | hop (1 B) | message body ... |
//! ```
//!
//! The block is the [`TraceCtx`] of the *sending* span: an all-zero
//! trace id means "untraced" and costs nothing downstream. The context
//! rides at the envelope level, so no message variant carries it.
//!
//! # One version
//!
//! A decoder accepts exactly [`VERSION`]: every node and client of a
//! ring is built from one source tree, so an incompatible payload change
//! bumps the version and older frames are refused at the header rather
//! than decoded through per-version branches. Version 4 put the owner's
//! key range into [`Response::Owner`] (what a client's lookup cache
//! keeps) and added [`Response::NotOwner`]. Version 5 added the replica
//! repair exchange, [`Request::SyncRange`] and [`Response::RangeKeys`].

use d2_obs::{Histogram, Registry, SpanRecord, TraceCtx};
use d2_ring::messages::{Addr, PeerInfo, RingMsg};
use d2_types::{D2Error, Key, KeyRange, KEY_BYTES};
use std::fmt;

/// First two bytes of every frame: `b"D2"`.
pub const MAGIC: [u8; 2] = [0x44, 0x32];

/// Current protocol version. Bump on any incompatible payload change.
pub const VERSION: u8 = 5;

/// Oldest version this decoder still accepts: the current one. No older
/// peer exists anywhere, so a bump is a flag day.
pub const MIN_VERSION: u8 = VERSION;

/// Size of the trace block at the start of every payload:
/// trace id (8) + span id (8) + hop (1).
pub const TRACE_LEN: usize = 17;

/// Bytes before the payload: magic (2) + version (1) + tag (1) + length (4).
pub const HEADER_LEN: usize = 8;

/// Hard cap on a single frame's payload. A length prefix above this is
/// rejected before any allocation, so a hostile 4 GiB length cannot
/// balloon memory.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Decode failures. Every variant is a clean error a transport can log
/// and recover from (by dropping the connection); none abort the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The first two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The version byte was outside [`MIN_VERSION`]..=[`VERSION`].
    BadVersion(u8),
    /// The tag byte named no known message variant.
    UnknownTag(u8),
    /// The frame ended before the announced payload did.
    Truncated {
        /// Bytes the decoder still needed.
        needed: usize,
        /// Bytes actually remaining.
        got: usize,
    },
    /// The length prefix exceeded [`MAX_PAYLOAD`].
    Oversized {
        /// The announced payload length.
        len: u64,
    },
    /// The payload decoded cleanly but bytes were left over.
    Trailing {
        /// Undecoded bytes at the end of the payload.
        extra: usize,
    },
    /// A field held a structurally invalid value.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => write!(
                f,
                "unsupported wire version {v} (want {MIN_VERSION}..={VERSION})"
            ),
            WireError::UnknownTag(t) => write!(f, "unknown message tag 0x{t:02x}"),
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} more bytes, got {got}")
            }
            WireError::Oversized { len } => {
                write!(f, "payload length {len} exceeds cap {MAX_PAYLOAD}")
            }
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after payload"),
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for D2Error {
    fn from(e: WireError) -> Self {
        D2Error::Codec(e.to_string())
    }
}

/// A client request carried inside [`WireMsg::Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Locate the owner of `key` via a recursive ring lookup.
    Lookup {
        /// The key to locate.
        key: Key,
    },
    /// Store a block here and replicate along the successor chain.
    ///
    /// Each node stores its copy, then forwards the request with `fanout`
    /// decremented and `stored` incremented; the **last** node in the
    /// chain (or the first that cannot forward) sends the
    /// [`Response::PutAck`] — so an acked put means every reachable
    /// replica is written, with no fan-out race left for callers to
    /// sleep around.
    Put {
        /// The block's key.
        key: Key,
        /// Further successors that should also store the block.
        fanout: u32,
        /// Copies already written upstream in this chain.
        stored: u32,
        /// The block payload.
        data: Vec<u8>,
    },
    /// Fetch the block stored here under `key`.
    Get {
        /// The block's key.
        key: Key,
    },
    /// Store one erasure-coded fragment of a block here. Sent by
    /// the key's owner to the other members of the fragment group; the
    /// receiver stores exactly this fragment (no chaining) and acks
    /// with [`Response::PutAck`]`{ replicas: 1 }`.
    PutFragment {
        /// The block's key (shared by all fragments of the block).
        key: Key,
        /// This fragment's index in `0..total` (systematic: indices
        /// `< k` are data shards, the rest parity).
        index: u8,
        /// Total fragments in the group (the policy's `n`).
        total: u8,
        /// Write generation; a receiver drops fragments older than the
        /// one it already holds.
        generation: u64,
        /// Sender-computed fragment checksum, verified end-to-end by
        /// the receiver before the fragment is stored.
        check: u64,
        /// The original (pre-encoding) block length, needed to trim
        /// zero padding after decode.
        block_len: u32,
        /// The fragment payload.
        data: Vec<u8>,
    },
    /// Fetch (or probe for) the fragment stored here under `key`.
    /// Answered with [`Response::Fragment`].
    GetFragment {
        /// The block's key.
        key: Key,
        /// `true` fetches the fragment bytes; `false` is a cheap
        /// presence probe (the reply's `data` stays empty) used by the
        /// lazy repair scanner.
        want_data: bool,
    },
    /// Replica repair, owner to chain successor: "over `range` I hold
    /// `count` blocks whose `(key, content checksum)` pairs digest to
    /// `digest`". A successor that computes the same over what it holds
    /// stays silent; one that does not answers [`Response::RangeKeys`].
    SyncRange {
        /// The owner's key range.
        range: KeyRange,
        /// Blocks the owner holds inside it.
        count: u32,
        /// Digest over their `(key, checksum)` pairs, in key order.
        digest: u64,
    },
    /// Report ring state (predecessor, successors, block count).
    Status,
    /// Dump this node's metrics registry and flight recorder
    /// ([`Response::Metrics`]). This is the remote-scrape request behind
    /// `d2-node top` and `d2-node trace`; it replaces exit-time-only
    /// metric export.
    MetricsDump,
    /// Stop this node's event loop (graceful shutdown).
    Shutdown,
}

impl Request {
    /// Short stable name of this request kind, used as the metric label
    /// for per-message-type RTT histograms (`net.rtt_us.<name>`).
    pub fn type_name(&self) -> &'static str {
        match self {
            Request::Lookup { .. } => "lookup",
            Request::Put { .. } => "put",
            Request::Get { .. } => "get",
            Request::PutFragment { .. } => "put_fragment",
            Request::GetFragment { .. } => "get_fragment",
            Request::SyncRange { .. } => "sync_range",
            Request::Status => "status",
            Request::MetricsDump => "metrics_dump",
            Request::Shutdown => "shutdown",
        }
    }
}

/// One node's view of the ring, as carried by [`Response::Status`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireStatus {
    /// The responding node's identity.
    pub me: PeerInfo,
    /// Its predecessor, if known.
    pub predecessor: Option<PeerInfo>,
    /// Its successor list.
    pub successors: Vec<PeerInfo>,
    /// Blocks stored locally.
    pub blocks: u64,
}

/// One histogram on the wire: full log-bucket counts, not just the
/// summary quantiles, so the scraper can [`Histogram::merge`] per-node
/// distributions and compute *cluster-wide* percentiles exactly as if
/// every sample had been recorded in one place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireHistogram {
    /// Metric name (`"net.rtt_us.put"`, `"node.lookup_us"`, ...).
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Log-bucket counts, as [`Histogram::buckets`] exposes them.
    pub buckets: Vec<u64>,
}

/// A node's full metrics dump, carried by [`Response::Metrics`]: the
/// registry (counters, gauges, histograms with complete buckets) plus
/// the bounded flight recorder of recent and notable spans.
///
/// Gauges travel as raw `f64` bit patterns so the message type stays
/// `Eq` and the encoding is byte-exact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// Counter values by name, in name order.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name (as [`f64::to_bits`]), in name order.
    pub gauges: Vec<(String, u64)>,
    /// Histograms with full bucket vectors, in name order.
    pub histograms: Vec<WireHistogram>,
    /// The node's flight-recorder snapshot: recent spans plus retained
    /// slow/failed ones, deduplicated and time-ordered.
    pub spans: Vec<SpanRecord>,
}

impl WireMetrics {
    /// Captures `reg` plus a span snapshot into wire form.
    pub fn from_registry(reg: &Registry, spans: Vec<SpanRecord>) -> WireMetrics {
        WireMetrics {
            counters: reg.counters().map(|(k, v)| (k.to_string(), v)).collect(),
            gauges: reg
                .gauges()
                .map(|(k, v)| (k.to_string(), v.to_bits()))
                .collect(),
            histograms: reg
                .histograms()
                .map(|(k, h)| WireHistogram {
                    name: k.to_string(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                    buckets: h.buckets().to_vec(),
                })
                .collect(),
            spans,
        }
    }

    /// Rebuilds a [`Registry`] from the dump. Histograms whose parts are
    /// inconsistent (a hostile or buggy peer) are rejected as
    /// [`WireError::Malformed`] rather than silently skewing aggregates.
    pub fn to_registry(&self) -> Result<Registry, WireError> {
        let mut reg = Registry::new();
        for (k, v) in &self.counters {
            reg.add(k, *v);
        }
        for (k, bits) in &self.gauges {
            reg.set_gauge(k, f64::from_bits(*bits));
        }
        for wh in &self.histograms {
            let h = Histogram::from_parts(wh.count, wh.sum, wh.min, wh.max, wh.buckets.clone())
                .ok_or(WireError::Malformed("inconsistent histogram parts"))?;
            reg.merge_histogram(&wh.name, &h);
        }
        Ok(reg)
    }
}

/// A reply to a [`Request`], correlated by `req_id`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Lookup`].
    Owner {
        /// The owner of the looked-up key.
        owner: PeerInfo,
        /// The owner's key range when it answered: every key inside it
        /// can skip the lookup (the paper's §5 lookup cache).
        range: KeyRange,
        /// Forwarding hops the lookup took.
        hops: u32,
    },
    /// Reply to [`Request::Put`], sent by the end of the replica chain.
    PutAck {
        /// Copies written along the chain (double-counts only when the
        /// chain wraps a ring smaller than the replication factor).
        replicas: u32,
    },
    /// Reply to [`Request::Get`].
    Block {
        /// The block, or `None` when this node does not hold it.
        data: Option<Vec<u8>>,
    },
    /// Reply to [`Request::GetFragment`].
    Fragment {
        /// Whether this node holds a fragment of the key.
        has: bool,
        /// The held fragment's index (0 when `has` is false).
        index: u8,
        /// The held fragment's write generation (0 when `has` is false).
        generation: u64,
        /// The fragment checksum, carried so the gatherer can verify
        /// integrity end-to-end before decoding (0 when `has` is false).
        check: u64,
        /// The original block length recorded at put time (0 when
        /// `has` is false).
        block_len: u32,
        /// The fragment bytes; empty on a presence probe
        /// (`want_data: false`) or when `has` is false.
        data: Vec<u8>,
    },
    /// Reply to a [`Request::SyncRange`] the receiver's own digest
    /// disagrees with: `(key, content checksum)` of what it holds there.
    RangeKeys {
        /// What the replying node holds in the range.
        entries: Vec<(Key, u64)>,
    },
    /// Reply to [`Request::Status`].
    Status(WireStatus),
    /// Reply to [`Request::MetricsDump`]: the node's registry and
    /// flight-recorder snapshot.
    Metrics(Box<WireMetrics>),
    /// Reply to [`Request::Shutdown`], sent just before the node exits.
    ShutdownAck,
    /// Refusal of a head-of-chain [`Request::Put`], or of a
    /// [`Request::Get`] this node holds no block for: the key lies
    /// outside the range this node knows it owns, so the sender's idea
    /// of the owner is stale and it should look the owner up again.
    NotOwner,
}

/// Everything that travels between processes: ring protocol traffic plus
/// the client request/response envelope.
///
/// Requests carry the sender's transport address so the far end of a
/// replica chain can reply directly to the original client.
#[derive(Clone, Debug, PartialEq)]
pub enum WireMsg {
    /// Ring maintenance / lookup traffic between nodes.
    Ring(RingMsg),
    /// A client-originated request.
    Request {
        /// Correlates the eventual [`WireMsg::Response`].
        req_id: u64,
        /// Transport address the response should be sent to.
        from: Addr,
        /// The request body.
        body: Request,
    },
    /// The reply to a [`WireMsg::Request`].
    Response {
        /// Echo of the request's `req_id`.
        req_id: u64,
        /// The response body.
        body: Response,
    },
}

impl WireMsg {
    /// The frame tag byte identifying this message variant.
    pub fn tag(&self) -> u8 {
        match self {
            WireMsg::Ring(m) => match m {
                RingMsg::FindOwner { .. } => TAG_FIND_OWNER,
                RingMsg::OwnerIs { .. } => TAG_OWNER_IS,
                RingMsg::Join { .. } => TAG_JOIN,
                RingMsg::JoinAck { .. } => TAG_JOIN_ACK,
                RingMsg::GetNeighbors { .. } => TAG_GET_NEIGHBORS,
                RingMsg::Neighbors { .. } => TAG_NEIGHBORS,
                RingMsg::Notify { .. } => TAG_NOTIFY,
            },
            WireMsg::Request { body, .. } => match body {
                Request::Lookup { .. } => TAG_REQ_LOOKUP,
                Request::Put { .. } => TAG_REQ_PUT,
                Request::Get { .. } => TAG_REQ_GET,
                Request::PutFragment { .. } => TAG_REQ_PUT_FRAGMENT,
                Request::GetFragment { .. } => TAG_REQ_GET_FRAGMENT,
                Request::SyncRange { .. } => TAG_REQ_SYNC_RANGE,
                Request::Status => TAG_REQ_STATUS,
                Request::MetricsDump => TAG_REQ_METRICS,
                Request::Shutdown => TAG_REQ_SHUTDOWN,
            },
            WireMsg::Response { body, .. } => match body {
                Response::Owner { .. } => TAG_RESP_OWNER,
                Response::PutAck { .. } => TAG_RESP_PUT_ACK,
                Response::Block { .. } => TAG_RESP_BLOCK,
                Response::Fragment { .. } => TAG_RESP_FRAGMENT,
                Response::RangeKeys { .. } => TAG_RESP_RANGE_KEYS,
                Response::Status(_) => TAG_RESP_STATUS,
                Response::Metrics(_) => TAG_RESP_METRICS,
                Response::ShutdownAck => TAG_RESP_SHUTDOWN_ACK,
                Response::NotOwner => TAG_RESP_NOT_OWNER,
            },
        }
    }

    /// Short stable name of this message variant, used as a metric label.
    pub fn type_name(&self) -> &'static str {
        match self {
            WireMsg::Ring(m) => match m {
                RingMsg::FindOwner { .. } => "find_owner",
                RingMsg::OwnerIs { .. } => "owner_is",
                RingMsg::Join { .. } => "join",
                RingMsg::JoinAck { .. } => "join_ack",
                RingMsg::GetNeighbors { .. } => "get_neighbors",
                RingMsg::Neighbors { .. } => "neighbors",
                RingMsg::Notify { .. } => "notify",
            },
            WireMsg::Request { body, .. } => body.type_name(),
            WireMsg::Response { body, .. } => match body {
                Response::Owner { .. } => "owner",
                Response::PutAck { .. } => "put_ack",
                Response::Block { .. } => "block",
                Response::Fragment { .. } => "fragment",
                Response::RangeKeys { .. } => "range_keys",
                Response::Status(_) => "status",
                Response::Metrics(_) => "metrics",
                Response::ShutdownAck => "shutdown_ack",
                Response::NotOwner => "not_owner",
            },
        }
    }
}

const TAG_FIND_OWNER: u8 = 0x01;
const TAG_OWNER_IS: u8 = 0x02;
const TAG_JOIN: u8 = 0x03;
const TAG_JOIN_ACK: u8 = 0x04;
const TAG_GET_NEIGHBORS: u8 = 0x05;
const TAG_NEIGHBORS: u8 = 0x06;
const TAG_NOTIFY: u8 = 0x07;
const TAG_REQ_LOOKUP: u8 = 0x10;
const TAG_REQ_PUT: u8 = 0x11;
const TAG_REQ_GET: u8 = 0x12;
const TAG_REQ_STATUS: u8 = 0x13;
const TAG_REQ_SHUTDOWN: u8 = 0x14;
const TAG_REQ_METRICS: u8 = 0x15;
const TAG_REQ_PUT_FRAGMENT: u8 = 0x16;
const TAG_REQ_GET_FRAGMENT: u8 = 0x17;
const TAG_REQ_SYNC_RANGE: u8 = 0x18;
const TAG_RESP_OWNER: u8 = 0x20;
const TAG_RESP_PUT_ACK: u8 = 0x21;
const TAG_RESP_BLOCK: u8 = 0x22;
const TAG_RESP_STATUS: u8 = 0x23;
const TAG_RESP_SHUTDOWN_ACK: u8 = 0x24;
const TAG_RESP_METRICS: u8 = 0x25;
const TAG_RESP_FRAGMENT: u8 = 0x26;
const TAG_RESP_NOT_OWNER: u8 = 0x27;
const TAG_RESP_RANGE_KEYS: u8 = 0x28;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

struct Enc<'a>(&'a mut Vec<u8>);

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    fn key(&mut self, k: &Key) {
        self.0.extend_from_slice(k.as_bytes());
    }
    fn addr(&mut self, a: Addr) {
        self.u64(a as u64);
    }
    fn peer(&mut self, p: &PeerInfo) {
        self.key(&p.id);
        self.addr(p.addr);
    }
    fn opt_peer(&mut self, p: &Option<PeerInfo>) {
        match p {
            Some(p) => {
                self.u8(1);
                self.peer(p);
            }
            None => self.u8(0),
        }
    }
    fn peers(&mut self, ps: &[PeerInfo]) {
        debug_assert!(ps.len() <= u16::MAX as usize);
        self.u16(ps.len() as u16);
        for p in ps {
            self.peer(p);
        }
    }
    fn range(&mut self, r: &KeyRange) {
        self.key(r.start());
        self.key(r.end());
    }
    fn bytes(&mut self, b: &[u8]) {
        debug_assert!(b.len() <= MAX_PAYLOAD);
        self.u32(b.len() as u32);
        self.0.extend_from_slice(b);
    }
    fn opt_bytes(&mut self, b: &Option<Vec<u8>>) {
        match b {
            Some(b) => {
                self.u8(1);
                self.bytes(b);
            }
            None => self.u8(0),
        }
    }
    fn str_(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize);
        self.u16(s.len() as u16);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn span(&mut self, s: &SpanRecord) {
        self.u64(s.trace_id);
        self.u64(s.span_id);
        self.u64(s.parent_span_id);
        self.u8(s.hop);
        self.u64(s.node);
        self.u64(s.start_us);
        self.u64(s.dur_us);
        self.u8(s.ok as u8);
        self.str_(&s.op);
        self.str_(&s.detail);
    }
    fn metrics(&mut self, m: &WireMetrics) {
        self.u32(m.counters.len() as u32);
        for (k, v) in &m.counters {
            self.str_(k);
            self.u64(*v);
        }
        self.u32(m.gauges.len() as u32);
        for (k, bits) in &m.gauges {
            self.str_(k);
            self.u64(*bits);
        }
        self.u32(m.histograms.len() as u32);
        for h in &m.histograms {
            self.str_(&h.name);
            self.u64(h.count);
            self.u64(h.sum);
            self.u64(h.min);
            self.u64(h.max);
            self.u16(h.buckets.len() as u16);
            for b in &h.buckets {
                self.u64(*b);
            }
        }
        self.u32(m.spans.len() as u32);
        for s in &m.spans {
            self.span(s);
        }
    }
}

/// Appends one complete frame (header + trace block + payload) to
/// `buf`, `trace` in the trace block ([`TraceCtx::NONE`]: untraced),
/// returning the frame's size in bytes.
///
/// `buf` is *appended to*, never cleared, which serves both zero-copy
/// idioms: a per-peer scratch buffer cleared by the caller between
/// frames (steady-state sends allocate nothing once the buffer has
/// grown to the working frame size), and write coalescing, where
/// several frames accumulate in one buffer and leave in one syscall.
pub fn encode_traced_into(buf: &mut Vec<u8>, msg: &WireMsg, trace: TraceCtx) -> usize {
    let start = buf.len();
    let mut e = Enc(buf);
    e.0.extend_from_slice(&MAGIC);
    e.u8(VERSION);
    e.u8(msg.tag());
    e.u32(0); // length backpatched below
    e.u64(trace.trace_id);
    e.u64(trace.span_id);
    e.u8(trace.hop);
    match msg {
        WireMsg::Ring(m) => encode_ring(&mut e, m),
        WireMsg::Request { req_id, from, body } => {
            e.u64(*req_id);
            e.addr(*from);
            match body {
                Request::Lookup { key } => e.key(key),
                Request::Put {
                    key,
                    fanout,
                    stored,
                    data,
                } => {
                    e.key(key);
                    e.u32(*fanout);
                    e.u32(*stored);
                    e.bytes(data);
                }
                Request::Get { key } => e.key(key),
                Request::PutFragment {
                    key,
                    index,
                    total,
                    generation,
                    check,
                    block_len,
                    data,
                } => {
                    e.key(key);
                    e.u8(*index);
                    e.u8(*total);
                    e.u64(*generation);
                    e.u64(*check);
                    e.u32(*block_len);
                    e.bytes(data);
                }
                Request::GetFragment { key, want_data } => {
                    e.key(key);
                    e.u8(*want_data as u8);
                }
                Request::SyncRange {
                    range,
                    count,
                    digest,
                } => {
                    e.range(range);
                    e.u32(*count);
                    e.u64(*digest);
                }
                Request::Status | Request::MetricsDump | Request::Shutdown => {}
            }
        }
        WireMsg::Response { req_id, body } => {
            e.u64(*req_id);
            match body {
                Response::Owner { owner, range, hops } => {
                    e.peer(owner);
                    e.range(range);
                    e.u32(*hops);
                }
                Response::PutAck { replicas } => e.u32(*replicas),
                Response::Block { data } => e.opt_bytes(data),
                Response::Fragment {
                    has,
                    index,
                    generation,
                    check,
                    block_len,
                    data,
                } => {
                    e.u8(*has as u8);
                    e.u8(*index);
                    e.u64(*generation);
                    e.u64(*check);
                    e.u32(*block_len);
                    e.bytes(data);
                }
                Response::RangeKeys { entries } => {
                    e.u32(entries.len() as u32);
                    for (key, sum) in entries {
                        e.key(key);
                        e.u64(*sum);
                    }
                }
                Response::Status(s) => {
                    e.peer(&s.me);
                    e.opt_peer(&s.predecessor);
                    e.peers(&s.successors);
                    e.u64(s.blocks);
                }
                Response::Metrics(m) => e.metrics(m),
                Response::ShutdownAck | Response::NotOwner => {}
            }
        }
    }
    let len = (e.0.len() - start - HEADER_LEN) as u32;
    e.0[start + 4..start + 8].copy_from_slice(&len.to_be_bytes());
    e.0.len() - start
}

fn encode_ring(e: &mut Enc<'_>, m: &RingMsg) {
    match m {
        RingMsg::FindOwner {
            target,
            origin,
            req_id,
            hops,
        } => {
            e.key(target);
            e.addr(*origin);
            e.u64(*req_id);
            e.u32(*hops);
        }
        RingMsg::OwnerIs {
            req_id,
            owner,
            range,
            successors,
            hops,
        } => {
            e.u64(*req_id);
            e.peer(owner);
            e.range(range);
            e.peers(successors);
            e.u32(*hops);
        }
        RingMsg::Join { joiner, hops } => {
            e.peer(joiner);
            e.u32(*hops);
        }
        RingMsg::JoinAck {
            successor,
            predecessor,
            successors,
        } => {
            e.peer(successor);
            e.opt_peer(predecessor);
            e.peers(successors);
        }
        RingMsg::GetNeighbors { from } => e.addr(*from),
        RingMsg::Neighbors {
            me,
            predecessor,
            successors,
        } => {
            e.peer(me);
            e.opt_peer(predecessor);
            e.peers(successors);
        }
        RingMsg::Notify { candidate } => e.peer(candidate),
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let got = self.buf.len() - self.pos;
        if got < n {
            return Err(WireError::Truncated { needed: n, got });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_be_bytes)
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_be_bytes)
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_be_bytes)
    }
    fn key(&mut self) -> Result<Key, WireError> {
        self.array::<KEY_BYTES>().map(Key::from_bytes)
    }
    fn addr(&mut self) -> Result<Addr, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Malformed("addr exceeds usize"))
    }
    fn peer(&mut self) -> Result<PeerInfo, WireError> {
        Ok(PeerInfo {
            id: self.key()?,
            addr: self.addr()?,
        })
    }
    fn opt_peer(&mut self) -> Result<Option<PeerInfo>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.peer()?)),
            _ => Err(WireError::Malformed("option flag must be 0 or 1")),
        }
    }
    fn peers(&mut self) -> Result<Vec<PeerInfo>, WireError> {
        let n = self.u16()? as usize;
        // Each peer is 72 bytes; reject counts the remaining buffer
        // cannot possibly hold before allocating.
        if n * (KEY_BYTES + 8) > self.buf.len() - self.pos {
            return Err(WireError::Truncated {
                needed: n * (KEY_BYTES + 8),
                got: self.buf.len() - self.pos,
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.peer()?);
        }
        Ok(out)
    }
    fn range(&mut self) -> Result<KeyRange, WireError> {
        Ok(KeyRange::new(self.key()?, self.key()?))
    }
    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    fn opt_bytes(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.bytes()?)),
            _ => Err(WireError::Malformed("option flag must be 0 or 1")),
        }
    }
    fn str_(&mut self) -> Result<String, WireError> {
        let n = self.u16()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::Malformed("string not utf-8"))
    }
    fn span(&mut self) -> Result<SpanRecord, WireError> {
        Ok(SpanRecord {
            trace_id: self.u64()?,
            span_id: self.u64()?,
            parent_span_id: self.u64()?,
            hop: self.u8()?,
            node: self.u64()?,
            start_us: self.u64()?,
            dur_us: self.u64()?,
            ok: match self.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("bool flag must be 0 or 1")),
            },
            op: self.str_()?,
            detail: self.str_()?,
        })
    }
    /// Rejects a claimed element count the remaining buffer cannot
    /// possibly hold (each element being at least `min_size` bytes),
    /// before any allocation.
    fn check_count(&self, n: usize, min_size: usize) -> Result<(), WireError> {
        let got = self.buf.len() - self.pos;
        if n.saturating_mul(min_size) > got {
            return Err(WireError::Truncated {
                needed: n * min_size,
                got,
            });
        }
        Ok(())
    }
    fn metrics(&mut self) -> Result<WireMetrics, WireError> {
        let nc = self.u32()? as usize;
        self.check_count(nc, 10)?;
        let mut counters = Vec::with_capacity(nc);
        for _ in 0..nc {
            counters.push((self.str_()?, self.u64()?));
        }
        let ng = self.u32()? as usize;
        self.check_count(ng, 10)?;
        let mut gauges = Vec::with_capacity(ng);
        for _ in 0..ng {
            gauges.push((self.str_()?, self.u64()?));
        }
        let nh = self.u32()? as usize;
        self.check_count(nh, 36)?;
        let mut histograms = Vec::with_capacity(nh);
        for _ in 0..nh {
            let name = self.str_()?;
            let (count, sum, min, max) = (self.u64()?, self.u64()?, self.u64()?, self.u64()?);
            let nb = self.u16()? as usize;
            self.check_count(nb, 8)?;
            let mut buckets = Vec::with_capacity(nb);
            for _ in 0..nb {
                buckets.push(self.u64()?);
            }
            histograms.push(WireHistogram {
                name,
                count,
                sum,
                min,
                max,
                buckets,
            });
        }
        let ns = self.u32()? as usize;
        self.check_count(ns, 54)?;
        let mut spans = Vec::with_capacity(ns);
        for _ in 0..ns {
            spans.push(self.span()?);
        }
        Ok(WireMetrics {
            counters,
            gauges,
            histograms,
            spans,
        })
    }
    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Trailing {
                extra: self.buf.len() - self.pos,
            });
        }
        Ok(())
    }
}

/// Validates an 8-byte frame header, returning `(tag, payload length)`.
///
/// Transports read exactly [`HEADER_LEN`] bytes, call this, then read the
/// returned number of payload bytes and hand them (with the tag) to
/// [`decode_payload`].
pub fn decode_header(hdr: &[u8; HEADER_LEN]) -> Result<(u8, usize), WireError> {
    let [m0, m1, version, tag, len @ ..] = *hdr;
    if [m0, m1] != MAGIC {
        return Err(WireError::BadMagic([m0, m1]));
    }
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(WireError::BadVersion(version));
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized { len: len as u64 });
    }
    Ok((tag, len))
}

/// Decodes the payload of a frame whose header carried `tag`: the trace
/// block, then the tagged body. The payload must be consumed exactly;
/// trailing bytes are an error.
pub fn decode_payload(tag: u8, payload: &[u8]) -> Result<(WireMsg, TraceCtx), WireError> {
    let mut d = Dec {
        buf: payload,
        pos: 0,
    };
    let trace = TraceCtx {
        trace_id: d.u64()?,
        span_id: d.u64()?,
        hop: d.u8()?,
    };
    let msg = match tag {
        TAG_FIND_OWNER => WireMsg::Ring(RingMsg::FindOwner {
            target: d.key()?,
            origin: d.addr()?,
            req_id: d.u64()?,
            hops: d.u32()?,
        }),
        TAG_OWNER_IS => WireMsg::Ring(RingMsg::OwnerIs {
            req_id: d.u64()?,
            owner: d.peer()?,
            range: d.range()?,
            successors: d.peers()?,
            hops: d.u32()?,
        }),
        TAG_JOIN => WireMsg::Ring(RingMsg::Join {
            joiner: d.peer()?,
            hops: d.u32()?,
        }),
        TAG_JOIN_ACK => WireMsg::Ring(RingMsg::JoinAck {
            successor: d.peer()?,
            predecessor: d.opt_peer()?,
            successors: d.peers()?,
        }),
        TAG_GET_NEIGHBORS => WireMsg::Ring(RingMsg::GetNeighbors { from: d.addr()? }),
        TAG_NEIGHBORS => WireMsg::Ring(RingMsg::Neighbors {
            me: d.peer()?,
            predecessor: d.opt_peer()?,
            successors: d.peers()?,
        }),
        TAG_NOTIFY => WireMsg::Ring(RingMsg::Notify {
            candidate: d.peer()?,
        }),
        // A kind's tags are contiguous; the inner match names each one.
        TAG_REQ_LOOKUP..=TAG_REQ_SYNC_RANGE => {
            let req_id = d.u64()?;
            let from = d.addr()?;
            let body = match tag {
                TAG_REQ_LOOKUP => Request::Lookup { key: d.key()? },
                TAG_REQ_PUT => Request::Put {
                    key: d.key()?,
                    fanout: d.u32()?,
                    stored: d.u32()?,
                    data: d.bytes()?,
                },
                TAG_REQ_GET => Request::Get { key: d.key()? },
                TAG_REQ_PUT_FRAGMENT => Request::PutFragment {
                    key: d.key()?,
                    index: d.u8()?,
                    total: d.u8()?,
                    generation: d.u64()?,
                    check: d.u64()?,
                    block_len: d.u32()?,
                    data: d.bytes()?,
                },
                TAG_REQ_GET_FRAGMENT => Request::GetFragment {
                    key: d.key()?,
                    want_data: match d.u8()? {
                        0 => false,
                        1 => true,
                        _ => return Err(WireError::Malformed("bool flag must be 0 or 1")),
                    },
                },
                TAG_REQ_SYNC_RANGE => Request::SyncRange {
                    range: d.range()?,
                    count: d.u32()?,
                    digest: d.u64()?,
                },
                TAG_REQ_STATUS => Request::Status,
                TAG_REQ_METRICS => Request::MetricsDump,
                _ => Request::Shutdown,
            };
            WireMsg::Request { req_id, from, body }
        }
        TAG_RESP_OWNER..=TAG_RESP_RANGE_KEYS => {
            let req_id = d.u64()?;
            let body = match tag {
                TAG_RESP_OWNER => Response::Owner {
                    owner: d.peer()?,
                    range: d.range()?,
                    hops: d.u32()?,
                },
                TAG_RESP_PUT_ACK => Response::PutAck { replicas: d.u32()? },
                TAG_RESP_BLOCK => Response::Block {
                    data: d.opt_bytes()?,
                },
                TAG_RESP_FRAGMENT => Response::Fragment {
                    has: match d.u8()? {
                        0 => false,
                        1 => true,
                        _ => return Err(WireError::Malformed("bool flag must be 0 or 1")),
                    },
                    index: d.u8()?,
                    generation: d.u64()?,
                    check: d.u64()?,
                    block_len: d.u32()?,
                    data: d.bytes()?,
                },
                TAG_RESP_RANGE_KEYS => {
                    let n = d.u32()? as usize;
                    d.check_count(n, KEY_BYTES + 8)?;
                    let mut entries = Vec::with_capacity(n);
                    for _ in 0..n {
                        entries.push((d.key()?, d.u64()?));
                    }
                    Response::RangeKeys { entries }
                }
                TAG_RESP_STATUS => Response::Status(WireStatus {
                    me: d.peer()?,
                    predecessor: d.opt_peer()?,
                    successors: d.peers()?,
                    blocks: d.u64()?,
                }),
                TAG_RESP_METRICS => Response::Metrics(Box::new(d.metrics()?)),
                TAG_RESP_SHUTDOWN_ACK => Response::ShutdownAck,
                _ => Response::NotOwner,
            };
            WireMsg::Response { req_id, body }
        }
        other => return Err(WireError::UnknownTag(other)),
    };
    d.finish()?;
    Ok((msg, trace))
}

/// Decodes one complete frame (header + payload) produced by
/// [`encode_traced_into`], returning the message and its trace context.
///
/// The frame must contain exactly one message; leftover bytes after the
/// announced payload are a [`WireError::Trailing`] error.
pub fn decode_traced(frame: &[u8]) -> Result<(WireMsg, TraceCtx), WireError> {
    let Some(hdr) = frame.first_chunk() else {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            got: frame.len(),
        });
    };
    let (tag, len) = decode_header(hdr)?;
    let rest = &frame[HEADER_LEN..];
    if rest.len() < len {
        return Err(WireError::Truncated {
            needed: len,
            got: rest.len(),
        });
    }
    if rest.len() > len {
        return Err(WireError::Trailing {
            extra: rest.len() - len,
        });
    }
    decode_payload(tag, rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(f: f64, addr: Addr) -> PeerInfo {
        PeerInfo {
            id: Key::from_fraction(f),
            addr,
        }
    }

    #[test]
    fn ring_msgs_round_trip() {
        let msgs = [
            WireMsg::Ring(RingMsg::FindOwner {
                target: Key::from_fraction(0.3),
                origin: 7,
                req_id: 42,
                hops: 3,
            }),
            WireMsg::Ring(RingMsg::OwnerIs {
                req_id: 42,
                owner: peer(0.4, 9),
                range: KeyRange::new(Key::from_fraction(0.3), Key::from_fraction(0.4)),
                successors: vec![peer(0.5, 10), peer(0.6, 11)],
                hops: 4,
            }),
            WireMsg::Ring(RingMsg::Join {
                joiner: peer(0.1, 3),
                hops: 0,
            }),
            WireMsg::Ring(RingMsg::JoinAck {
                successor: peer(0.2, 4),
                predecessor: None,
                successors: vec![],
            }),
            WireMsg::Ring(RingMsg::GetNeighbors { from: 12 }),
            WireMsg::Ring(RingMsg::Neighbors {
                me: peer(0.7, 5),
                predecessor: Some(peer(0.65, 4)),
                successors: vec![peer(0.8, 6)],
            }),
            WireMsg::Ring(RingMsg::Notify {
                candidate: peer(0.9, 8),
            }),
        ];
        for msg in msgs {
            let mut frame = Vec::new();
            encode_traced_into(&mut frame, &msg, TraceCtx::NONE);
            assert_eq!(decode_traced(&frame), Ok((msg, TraceCtx::NONE)));
        }
    }

    #[test]
    fn request_response_round_trip() {
        let msgs = [
            WireMsg::Request {
                req_id: 1,
                from: 99,
                body: Request::Put {
                    key: Key::from_u64(5),
                    fanout: 2,
                    stored: 1,
                    data: b"block".to_vec(),
                },
            },
            WireMsg::Response {
                req_id: 1,
                body: Response::Block {
                    data: Some(vec![0xab; 1000]),
                },
            },
            WireMsg::Response {
                req_id: 2,
                body: Response::Status(WireStatus {
                    me: peer(0.5, 1),
                    predecessor: Some(peer(0.4, 0)),
                    successors: vec![peer(0.6, 2)],
                    blocks: 17,
                }),
            },
            WireMsg::Response {
                req_id: 3,
                body: Response::Owner {
                    owner: peer(0.4, 9),
                    range: KeyRange::new(Key::from_fraction(0.9), Key::from_fraction(0.4)),
                    hops: 2,
                },
            },
            WireMsg::Response {
                req_id: 4,
                body: Response::NotOwner,
            },
        ];
        for msg in msgs {
            let mut frame = Vec::new();
            encode_traced_into(&mut frame, &msg, TraceCtx::NONE);
            assert_eq!(decode_traced(&frame), Ok((msg, TraceCtx::NONE)));
        }
    }

    #[test]
    fn header_rejects_garbage() {
        let status = WireMsg::Request {
            req_id: 0,
            from: 0,
            body: Request::Status,
        };
        let mut good = Vec::new();
        encode_traced_into(&mut good, &status, TraceCtx::NONE);
        let mut bad_magic = good.clone();
        bad_magic[0] = 0xff;
        assert!(matches!(
            decode_traced(&bad_magic),
            Err(WireError::BadMagic([0xff, _]))
        ));
        // Only the current version decodes: older peers no longer exist.
        for v in (0..VERSION).chain([VERSION + 1, 9]) {
            let mut bad_version = good.clone();
            bad_version[2] = v;
            assert_eq!(decode_traced(&bad_version), Err(WireError::BadVersion(v)));
        }
        let mut bad_tag = good.clone();
        bad_tag[3] = 0x7f;
        assert_eq!(decode_traced(&bad_tag), Err(WireError::UnknownTag(0x7f)));
    }

    #[test]
    fn truncation_and_trailing_are_errors() {
        let mut frame = Vec::new();
        let msg = WireMsg::Ring(RingMsg::GetNeighbors { from: 3 });
        encode_traced_into(&mut frame, &msg, TraceCtx::NONE);
        for cut in 0..frame.len() {
            assert!(
                matches!(
                    decode_traced(&frame[..cut]),
                    Err(WireError::Truncated { .. })
                ),
                "cut at {cut} must be truncated"
            );
        }
        let mut padded = frame.clone();
        padded.push(0);
        assert_eq!(
            decode_traced(&padded),
            Err(WireError::Trailing { extra: 1 })
        );
    }

    #[test]
    fn frames_append_and_the_buffer_is_reused() {
        let a = WireMsg::Ring(RingMsg::GetNeighbors { from: 3 });
        let b = WireMsg::Request {
            req_id: 7,
            from: 1,
            body: Request::Put {
                key: Key::from_u64(9),
                fanout: 2,
                stored: 0,
                data: b"coalesce me".to_vec(),
            },
        };
        let trace = TraceCtx::root(0xFEED).child(0x11);
        // Append semantics: two frames in one buffer, the first
        // byte-identical to its standalone encoding, the lengths exact.
        let mut buf = Vec::new();
        let la = encode_traced_into(&mut buf, &a, TraceCtx::NONE);
        let lb = encode_traced_into(&mut buf, &b, trace);
        let mut alone = Vec::new();
        assert_eq!(encode_traced_into(&mut alone, &a, TraceCtx::NONE), la);
        assert_eq!(buf[..la], alone);
        assert_eq!(decode_traced(&buf[la..]), Ok((b, trace)));
        assert_eq!(la + lb, buf.len());
        // Reuse idiom: clear + re-encode allocates nothing further and
        // still produces the canonical frame.
        let cap = buf.capacity();
        buf.clear();
        encode_traced_into(&mut buf, &a, TraceCtx::NONE);
        assert_eq!(buf, alone);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let status = WireMsg::Request {
            req_id: 0,
            from: 0,
            body: Request::Status,
        };
        let mut frame = Vec::new();
        encode_traced_into(&mut frame, &status, TraceCtx::NONE);
        frame[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_traced(&frame),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn trace_context_rides_the_envelope() {
        let msg = WireMsg::Request {
            req_id: 7,
            from: 3,
            body: Request::Lookup {
                key: Key::from_fraction(0.25),
            },
        };
        let trace = TraceCtx {
            trace_id: 0xDEAD_BEEF,
            span_id: 0x1234,
            hop: 5,
        };
        let mut traced = Vec::new();
        encode_traced_into(&mut traced, &msg, trace);
        assert_eq!(traced[2], VERSION);
        let (got, got_trace) = decode_traced(&traced).unwrap();
        assert_eq!(got, msg);
        assert_eq!(got_trace, trace);
        // An untraced frame carries the all-zero context.
        let mut untraced = Vec::new();
        encode_traced_into(&mut untraced, &msg, TraceCtx::NONE);
        let (got, got_trace) = decode_traced(&untraced).unwrap();
        assert_eq!(got, msg);
        assert_eq!(got_trace, TraceCtx::NONE);
        assert!(!got_trace.is_traced());
    }

    #[test]
    fn fragment_msgs_round_trip() {
        let msgs = [
            WireMsg::Request {
                req_id: 11,
                from: 4,
                body: Request::PutFragment {
                    key: Key::from_u64(77),
                    index: 3,
                    total: 8,
                    generation: 2,
                    check: 0xDEAD_BEEF_CAFE_F00D,
                    block_len: 4096,
                    data: vec![0x5a; 512],
                },
            },
            WireMsg::Request {
                req_id: 12,
                from: 4,
                body: Request::GetFragment {
                    key: Key::from_u64(77),
                    want_data: false,
                },
            },
            WireMsg::Response {
                req_id: 12,
                body: Response::Fragment {
                    has: true,
                    index: 3,
                    generation: 2,
                    check: 0xDEAD_BEEF_CAFE_F00D,
                    block_len: 4096,
                    data: vec![],
                },
            },
            WireMsg::Response {
                req_id: 13,
                body: Response::Fragment {
                    has: false,
                    index: 0,
                    generation: 0,
                    check: 0,
                    block_len: 0,
                    data: vec![],
                },
            },
        ];
        for msg in msgs {
            let mut frame = Vec::new();
            encode_traced_into(&mut frame, &msg, TraceCtx::NONE);
            assert_eq!(frame[2], VERSION);
            assert_eq!(decode_traced(&frame), Ok((msg, TraceCtx::NONE)));
        }
    }

    #[test]
    fn fragment_frames_reject_truncation_and_bad_flags() {
        let get = WireMsg::Request {
            req_id: 1,
            from: 0,
            body: Request::GetFragment {
                key: Key::from_u64(5),
                want_data: true,
            },
        };
        let mut frame = Vec::new();
        encode_traced_into(&mut frame, &get, TraceCtx::NONE);
        for cut in HEADER_LEN..frame.len() {
            assert!(
                matches!(
                    decode_traced(&frame[..cut]),
                    Err(WireError::Truncated { .. })
                ),
                "cut at {cut} must be truncated"
            );
        }
        // A want_data flag of 2 is malformed, not silently truthy.
        let mut bad = frame.clone();
        let n = bad.len();
        bad[n - 1] = 2;
        assert_eq!(
            decode_traced(&bad),
            Err(WireError::Malformed("bool flag must be 0 or 1"))
        );
    }

    #[test]
    fn metrics_dump_round_trips() {
        let mut reg = Registry::new();
        reg.add("net.msgs_in", 42);
        reg.add("net.msgs_out", 40);
        reg.set_gauge("node.ring_position", 0.625);
        reg.set_gauge("node.blocks", 17.0);
        for v in [10u64, 200, 3000, 40_000] {
            reg.observe("node.lookup_us", v);
        }
        let spans = vec![
            SpanRecord {
                trace_id: 1,
                span_id: 2,
                parent_span_id: 0,
                hop: 0,
                node: 3,
                start_us: 100,
                dur_us: 50,
                ok: true,
                op: "put".into(),
                detail: "fanout=2".into(),
            },
            SpanRecord {
                trace_id: 1,
                span_id: 9,
                parent_span_id: 2,
                hop: 1,
                node: 4,
                start_us: 120,
                dur_us: 80_000,
                ok: false,
                op: "put".into(),
                detail: "send failed".into(),
            },
        ];
        let dump = WireMetrics::from_registry(&reg, spans.clone());
        let msg = WireMsg::Request {
            req_id: 5,
            from: 1,
            body: Request::MetricsDump,
        };
        let resp = WireMsg::Response {
            req_id: 5,
            body: Response::Metrics(Box::new(dump.clone())),
        };
        let mut frames = Vec::new();
        let len = encode_traced_into(&mut frames, &msg, TraceCtx::NONE);
        encode_traced_into(&mut frames, &resp, TraceCtx::NONE);
        assert_eq!(decode_traced(&frames[..len]), Ok((msg, TraceCtx::NONE)));
        let (got, _) = decode_traced(&frames[len..]).unwrap();
        assert_eq!(got, resp);
        // And the registry reconstructs bit-exactly.
        let WireMsg::Response {
            body: Response::Metrics(m),
            ..
        } = got
        else {
            panic!("wrong variant");
        };
        let rebuilt = m.to_registry().unwrap();
        assert_eq!(rebuilt.snapshot(), reg.snapshot());
        assert_eq!(rebuilt.gauge("node.ring_position"), Some(0.625));
        assert_eq!(m.spans, spans);
    }

    #[test]
    fn hostile_metrics_dump_is_rejected() {
        // Inconsistent histogram parts must not build a registry.
        let dump = WireMetrics {
            counters: vec![],
            gauges: vec![],
            histograms: vec![WireHistogram {
                name: "evil".into(),
                count: 10,
                sum: 5,
                min: 0,
                max: 1,
                buckets: vec![1],
            }],
            spans: vec![],
        };
        assert_eq!(
            dump.to_registry(),
            Err(WireError::Malformed("inconsistent histogram parts"))
        );
        // A frame claiming 2^32-1 spans in a tiny payload fails on the
        // count check, before allocating.
        let msg = WireMsg::Response {
            req_id: 1,
            body: Response::Metrics(Box::default()),
        };
        let mut frame = Vec::new();
        let n = encode_traced_into(&mut frame, &msg, TraceCtx::NONE);
        frame[n - 4..].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_traced(&frame),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn peer_count_cannot_balloon_allocation() {
        // A Neighbors frame claiming 65535 successors in a tiny payload
        // must fail on the count check, not allocate 65535 entries.
        let msg = WireMsg::Ring(RingMsg::Neighbors {
            me: peer(0.5, 1),
            predecessor: None,
            successors: vec![],
        });
        let mut frame = Vec::new();
        let n = encode_traced_into(&mut frame, &msg, TraceCtx::NONE);
        frame[n - 2..].copy_from_slice(&u16::MAX.to_be_bytes());
        assert!(matches!(
            decode_traced(&frame),
            Err(WireError::Truncated { .. })
        ));
    }
}
