//! Layer probes of the traced run.
//!
//! Each probe times calls into one layer's public functions from the
//! outside, on inputs taken from the workload, and runs as a span of
//! its own. A probe reports the median over several batches so one
//! pre-empted batch does not move it.

use crate::gen::SplitMix;
use crate::json::Json;
use crate::live::Dataset;
use crate::procs::Nodes;
use crate::spans::{SpanLog, NO_PARENT};
use crate::stats::{median, Report};
use d2_net::{ClusterOps, NodeStatus};
use d2_obs::{Registry, TraceCtx};
use d2_ring::routing::Router;
use d2_ring::Ring;
use d2_sim::SimTime;
use d2_store::{CacheOutcome, LookupCache, NodeStore, Payload};
use d2_types::{BlockName, Key, KeyRange, BLOCK_SIZE};
use d2_wire::client::WireClient;
use d2_wire::codec::{decode_traced, encode_traced_into, Request, Response, WireMsg};
use d2_wire::metrics::NetMetrics;
use d2_wire::tcp::{pack_addr, TcpConfig, TcpTransport};
use d2_wire::transport::Transport;
use std::collections::HashSet;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches per probe; the reported figure is their median.
const BATCHES: usize = 9;

/// Median over [`BATCHES`] batches of the mean nanoseconds one call of
/// `f` takes, each batch making `per_batch` calls.
fn ns_per_call(per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let t0 = Instant::now();
            for i in 0..per_batch {
                f(b * per_batch + i);
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&mut batches)
}

/// `wire.ping_p50_us`: serial `Status` round trips to one idle
/// `d2-node serve` — the transport floor under every live op.
pub fn ping(dir: &Path, log: &mut SpanLog, report: &mut Report) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let span = log.begin("probe.wire.ping", NO_PARENT, 0);
    let node = Nodes::single(dir, Instant::now() + Duration::from_secs(10))
        .map_err(|e| format!("spawn ping node: {e}"))?;
    let metrics = Arc::new(NetMetrics::new());
    let transport = TcpTransport::bind(
        Ipv4Addr::LOCALHOST,
        0,
        TcpConfig::default(),
        Arc::clone(&metrics),
    )
    .map_err(|e| format!("bind ping socket: {e}"))?;
    let client = WireClient::new(transport, metrics);
    let peer = pack_addr(node.entry);
    let mut samples = Vec::with_capacity(2000);
    for i in 0..2200 {
        let t0 = Instant::now();
        let ok = matches!(
            client.call(peer, Request::Status, Duration::from_secs(5)),
            Ok(Response::Status(_))
        );
        report.attempted += 1;
        if !ok {
            report.failed += 1;
        } else if i >= 200 {
            samples.push(t0.elapsed().as_nanos() as f64 / 1000.0);
        }
    }
    log.end(span);
    report.set_n("wire.ping_p50_us", median(&mut samples), samples.len());
    Ok(())
}

/// The newest `net.*` counters `serve-many` wrote to its `--obs-out`
/// file, after waiting (at most 1.5 s) for a snapshot newer than the
/// call. `None` when the file does not exist (the ring3 topologies).
pub fn fresh_obs_counters(path: &Path) -> Option<Registry> {
    let lines_now = |p: &Path| std::fs::read_to_string(p).ok().map(|t| t.lines().count());
    let seen = lines_now(path)?;
    let deadline = Instant::now() + Duration::from_millis(1500);
    while lines_now(path)? <= seen && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let text = std::fs::read_to_string(path).ok()?;
    let doc = Json::parse(text.lines().last()?).ok()?;
    let mut reg = Registry::new();
    for (name, v) in doc.get("counters")?.as_obj()? {
        reg.add(name, v.as_f64()? as u64);
    }
    Some(reg)
}

/// `ring.nodes_per_task_*` (Table 2's yardstick: distinct owners per
/// task; exact) and `store.lookup_cache_hit_rate_*`: a `LookupCache`
/// fed the task stream the load loop draws and the scraped owner ranges
/// — the hit rate a client-side lookup cache would realise live.
///
/// Owners come from the ranges the check-clean ring reported at
/// set-up; the first tasks of each encoding are also resolved by real
/// `ClusterOps::lookup`s, and a disagreement counts as a failed op. (A
/// serial lookup costs milliseconds on this transport, so resolving all
/// 4096 keys that way would take longer than the measured window.)
pub fn task_placement<T: Transport>(
    ops: &ClusterOps<T>,
    statuses: &[NodeStatus],
    data: &[Dataset],
    task_blocks: usize,
    seed: u64,
    log: &mut SpanLog,
    report: &mut Report,
) {
    let span = log.begin("probe.ring.task_placement", NO_PARENT, 0);
    // Owner ranges as the nodes report them: (predecessor, self].
    let ranges: Vec<(KeyRange, usize)> = statuses
        .iter()
        .filter_map(|s| Some((KeyRange::new(s.predecessor?.id, s.me.id), s.me.addr)))
        .collect();
    let owner_of = |key: &Key| ranges.iter().find(|(r, _)| r.contains(key)).copied();
    for (enc, set) in data.iter().enumerate() {
        let tasks = set.keys.len() / task_blocks;
        let mut owners_total = 0usize;
        for (t, task) in set.keys.chunks(task_blocks).enumerate() {
            let owners: HashSet<usize> = task.iter().filter_map(|k| Some(owner_of(k)?.1)).collect();
            owners_total += owners.len();
            if t < 4 {
                for key in task {
                    report.attempted += 1;
                    let looked_up = ops.lookup(*key).ok().map(|o| o.addr);
                    if looked_up.is_none() || looked_up != owner_of(key).map(|(_, a)| a) {
                        report.failed += 1;
                    }
                }
            }
        }
        let per_task = owners_total as f64 / tasks as f64;
        let mut cache = LookupCache::with_default_ttl();
        let mut rng = SplitMix::new(seed, 2);
        for _ in 0..2000 {
            let t = rng.below(tasks);
            for key in &set.keys[t * task_blocks..(t + 1) * task_blocks] {
                if cache.probe(key, SimTime::ZERO) == CacheOutcome::Miss {
                    if let Some((range, node)) = owner_of(key) {
                        cache.insert(range, node, SimTime::ZERO);
                    }
                }
            }
        }
        let hit_rate = 1.0 - cache.miss_rate();
        if enc == 0 {
            report.set_n("ring.nodes_per_task_d2", per_task, tasks);
            report.set("store.lookup_cache_hit_rate_d2", hit_rate);
        } else {
            report.set_n("ring.nodes_per_task_hashed", per_task, tasks);
            report.set("store.lookup_cache_hit_rate_hashed", hit_rate);
        }
    }
    log.end(span);
}

/// The probes that need no cluster: `wire.codec_*`, `ring.router_*`,
/// `store.*` timings and `types.key_of_*`, on the workload's own block
/// names.
pub fn offline(names: &[BlockName], log: &mut SpanLog, report: &mut Report) {
    let n = names.len();

    // types: both key encodings of every name.
    let span = log.begin("probe.types.key_of", NO_PARENT, 0);
    report.set_n(
        "types.key_of_ns_d2",
        ns_per_call(n, |i| {
            black_box(names[i % n].d2_key());
        }),
        BATCHES * n,
    );
    report.set_n(
        "types.key_of_ns_hashed",
        ns_per_call(n, |i| {
            black_box(names[i % n].traditional_key());
        }),
        BATCHES * n,
    );
    log.end(span);
    let keys: Vec<Key> = names
        .iter()
        .map(|x| x.traditional_key())
        .chain(names.iter().map(|x| x.d2_key()))
        .collect();
    let k = keys.len();

    // wire: encode + decode of the two frame shapes the workloads send.
    let span = log.begin("probe.wire.codec", NO_PARENT, 0);
    let mut buf = Vec::with_capacity(2 * BLOCK_SIZE);
    let mut codec = |msg: &WireMsg| {
        ns_per_call(2000, |_| {
            buf.clear();
            encode_traced_into(&mut buf, black_box(msg), TraceCtx::NONE);
            black_box(decode_traced(&buf).expect("own frame decodes"));
        })
    };
    let small = WireMsg::Request {
        req_id: 7,
        from: 1,
        body: Request::Lookup { key: keys[0] },
    };
    let block = WireMsg::Request {
        req_id: 7,
        from: 1,
        body: Request::Put {
            key: keys[0],
            fanout: 1,
            stored: 0,
            data: crate::gen::value_for(&keys[0], BLOCK_SIZE),
        },
    };
    report.set_n("wire.codec_ns_small", codec(&small), BATCHES * 2000);
    report.set_n("wire.codec_ns_block8k", codec(&block), BATCHES * 2000);
    log.end(span);

    // ring: routed lookups on a 64-node ring laid out like
    // `serve-many --nodes 64`, entering through rotating nodes. Kong et
    // al. predict a mean near log2(64)/2 = 3 hops for this shape.
    let span = log.begin("probe.ring.router", NO_PARENT, 0);
    let mut ring = Ring::new();
    let nodes: Vec<_> = (0..64u32)
        .map(|i| {
            ring.add_node(Key::from_fraction(
                (f64::from(i.reverse_bits() >> 26) + 0.5) / 64.0,
            ))
        })
        .collect();
    let router = Router::build(&ring, 4);
    let mut path = Vec::new();
    let mut hops_total = 0u64;
    let lookups = BATCHES * k;
    let ns = ns_per_call(k, |i| {
        let from = nodes[i % nodes.len()];
        if let Some((_, hops, _)) = router.lookup_into(&ring, from, &keys[i % k], &mut path) {
            hops_total += u64::from(hops);
        }
    });
    report.set_n("ring.router_lookup_ns", ns, lookups);
    report.set_n(
        "ring.router_hops_mean",
        hops_total as f64 / lookups as f64,
        lookups,
    );
    log.end(span);

    // store: NodeStore put/get of 8 KiB blocks, LookupCache probes over
    // the same ring's 64 ranges.
    let span = log.begin("probe.store", NO_PARENT, 0);
    let block = vec![0xD2u8; BLOCK_SIZE];
    let mut store = NodeStore::new();
    let per = k.min(2048);
    let put_ns = ns_per_call(per, |i| {
        black_box(store.put(keys[i % per], Payload::Data(block.clone()), SimTime::ZERO));
    });
    let get_ns = ns_per_call(per, |i| {
        black_box(store.get(&keys[i % per]));
    });
    report.set_n("store.node_store_put_ns_8k", put_ns, BATCHES * per);
    report.set_n("store.node_store_get_ns", get_ns, BATCHES * per);
    let mut cache = LookupCache::with_default_ttl();
    for &node in &nodes {
        if let Some(range) = ring.range_of(node) {
            cache.insert(range, node.0, SimTime::ZERO);
        }
    }
    let probe_ns = ns_per_call(k, |i| {
        black_box(cache.probe(&keys[i % k], SimTime::ZERO));
    });
    report.set_n("store.lookup_cache_probe_ns", probe_ns, BATCHES * k);
    log.end(span);
}
