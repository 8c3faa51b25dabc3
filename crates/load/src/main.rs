//! `d2-load`: a sustained-load generator for a live D2 cluster.
//!
//! ```text
//! d2-load --node IP:PORT [--workers N] [--window W] [--ops N] [--keys K]
//!         [--keys hashed|locality] [--value-bytes B] [--get-ratio F]
//!         [--zipf-theta F] [--replicas R] [--seed S] [--timeout-ms T]
//!         [--json]
//! ```
//!
//! Connects to one member of a running cluster (`--node`), discovers the
//! whole ring, preloads `--keys` blocks, then drives `--ops` total
//! put/get operations from `--workers` closed-loop workers. Each worker
//! owns a private TCP socket and [`d2_net::ClusterOps`] handle and
//! samples keys Zipf-distributed ([`d2_workload::web::zipf`]) with
//! exponent `--zipf-theta` — the skewed access pattern of the paper's
//! web workload, so hot keys hammer their owner node.
//!
//! The key space is `--keys K` one-block files, 16 to a directory, 64 to
//! a volume, named by [`BlockName`]: by default under the traditional
//! per-block hash ([`BlockName::traditional_key`], keys uniform over the
//! ring), with `--keys locality` under D2's locality-preserving encoding
//! ([`BlockName::d2_key`], a volume's files contiguous on the ring) —
//! the paper's two cases, and the two hit rates the client's §5 lookup
//! cache is judged by.
//!
//! Each worker keeps `--window` operations in flight over the pipelined
//! client ([`WireClient::submit_on`]); `--window 1` is the classic
//! one-round-trip-at-a-time client, on exactly the same code path. The
//! report calls a window of one `serial` and any other `pipelined`.
//!
//! Reports throughput (ops/s), latency percentiles (p50/p90/p99/p999),
//! the workers' summed lookup-cache hits / misses / stale hits, and the
//! merged client-side `net.*` counters. `--json` emits one JSON
//! object. `d2-load` is a load driver and smoke test (`scripts/check.sh`
//! runs it against a 3-process and a 256-node cluster); tracked
//! performance numbers come from the `d2-bench` workloads under
//! `benchmark/`.

use d2_net::{ClusterOps, PipelineConfig};
use d2_obs::Registry;
use d2_sim::SimTime;
use d2_types::{BlockName, Key, BLOCK_SIZE};
use d2_wire::client::WireClient;
use d2_wire::metrics::NetMetrics;
use d2_wire::tcp::{pack_addr, TcpConfig, TcpTransport};
use d2_workload::web::zipf;
use d2_workload::Namespace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: d2-load --node IP:PORT [--workers N] [--window W] [--ops N] [--keys K]\n\
         \x20              [--keys hashed|locality] [--value-bytes B] [--get-ratio F]\n\
         \x20              [--zipf-theta F] [--replicas R] [--seed S] [--timeout-ms T]\n\
         \x20              [--json]"
    );
    std::process::exit(2);
}

struct Args {
    node: SocketAddrV4,
    workers: usize,
    window: usize,
    ops: usize,
    keys: usize,
    /// Keys under D2's locality-preserving encoding, not hashed.
    locality: bool,
    value_bytes: usize,
    get_ratio: f64,
    zipf_theta: f64,
    replicas: usize,
    seed: u64,
    timeout: Duration,
    json: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut node = None;
    let mut out = Args {
        node: SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0),
        workers: 4,
        window: 32,
        ops: 2000,
        keys: 256,
        locality: false,
        value_bytes: 256,
        get_ratio: 0.9,
        zipf_theta: 0.8,
        replicas: 1,
        seed: 42,
        timeout: Duration::from_secs(5),
        json: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        };
        fn num<T: std::str::FromStr>(s: String, flag: &str) -> T {
            s.parse().unwrap_or_else(|_| {
                eprintln!("{flag} wants a number, got {s:?}");
                std::process::exit(2);
            })
        }
        match a.as_str() {
            "--node" => {
                node = Some(val("--node").parse().unwrap_or_else(|_| {
                    eprintln!("--node wants IPv4 IP:PORT");
                    std::process::exit(2);
                }))
            }
            "--workers" => out.workers = num::<usize>(val("--workers"), "--workers").max(1),
            "--window" => out.window = num::<usize>(val("--window"), "--window").max(1),
            "--ops" => out.ops = num(val("--ops"), "--ops"),
            "--keys" => match val("--keys").as_str() {
                "hashed" => out.locality = false,
                "locality" => out.locality = true,
                n => out.keys = num::<usize>(n.to_string(), "--keys").max(1),
            },
            "--value-bytes" => out.value_bytes = num(val("--value-bytes"), "--value-bytes"),
            "--get-ratio" => out.get_ratio = num(val("--get-ratio"), "--get-ratio"),
            "--zipf-theta" => out.zipf_theta = num(val("--zipf-theta"), "--zipf-theta"),
            "--replicas" => out.replicas = num::<usize>(val("--replicas"), "--replicas").max(1),
            "--seed" => out.seed = num(val("--seed"), "--seed"),
            "--timeout-ms" => {
                out.timeout = Duration::from_millis(num(val("--timeout-ms"), "--timeout-ms"))
            }
            "--json" => out.json = true,
            _ => usage(),
        }
    }
    out.node = node.unwrap_or_else(|| usage());
    out
}

/// One worker's connection to the cluster over its own TCP socket.
fn open_ops(entries: &[usize]) -> (ClusterOps<TcpTransport>, Arc<NetMetrics>) {
    let metrics = Arc::new(NetMetrics::new());
    let transport = TcpTransport::bind(
        Ipv4Addr::LOCALHOST,
        0,
        TcpConfig::default(),
        Arc::clone(&metrics),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot bind client socket: {e}");
        std::process::exit(1);
    });
    let client = WireClient::new(transport, Arc::clone(&metrics));
    (ClusterOps::new(client, entries.to_vec()), metrics)
}

/// Files per volume of the key space: a volume is one contiguous arc of
/// the ring under the locality encoding.
const VOLUME_FILES: usize = 64;

/// The `n` keys the load is drawn from, by Zipf rank: block 1 of `n`
/// files, 16 to a directory and [`VOLUME_FILES`] to a volume, so that
/// neighbouring ranks are neighbouring files.
fn key_space(n: usize, locality: bool) -> Vec<Key> {
    let mut keys = Vec::with_capacity(n);
    for first in (0..n).step_by(VOLUME_FILES) {
        let mut ns = Namespace::new(&format!("d2-load-{}", first / VOLUME_FILES));
        for i in first..n.min(first + VOLUME_FILES) {
            let dir = ns.ensure_dir(&format!("/d{}", i % VOLUME_FILES / 16));
            let file = ns.create_file(dir, &format!("f{i}"), BLOCK_SIZE as u64, SimTime::ZERO);
            let name: BlockName = ns.block_name(file, 1);
            keys.push(if locality {
                name.d2_key()
            } else {
                name.traditional_key()
            });
        }
    }
    keys
}

/// What one worker brings back: latency histograms + error count.
struct WorkerReport {
    reg: Registry,
    done: usize,
    errors: usize,
}

fn worker(
    id: usize,
    args: &Args,
    keys: &[Key],
    entries: &[usize],
    quota: usize,
    cfg: PipelineConfig,
) -> WorkerReport {
    let (ops, _metrics) = open_ops(entries);
    let mut rng = StdRng::seed_from_u64(args.seed.wrapping_add(id as u64));
    let mut reg = Registry::new();
    let mut done = 0usize;
    let mut errors = 0usize;
    let value = vec![0xD2u8; args.value_bytes];
    while done < quota {
        // Sample a chunk several windows deep, split by type (the batch
        // API is homogeneous), then run both batches back to back — a
        // closed loop: nothing new is issued until the chunk lands. The
        // chunk is deeper than the window so the pipeline spends its
        // time saturated, not draining at chunk boundaries.
        let chunk = (cfg.window * 8).min(quota - done);
        let mut puts: Vec<(Key, Vec<u8>)> = Vec::new();
        let mut gets: Vec<Key> = Vec::new();
        for _ in 0..chunk {
            let key = keys[zipf(&mut rng, keys.len(), args.zipf_theta)];
            if rng.random::<f64>() < args.get_ratio {
                gets.push(key);
            } else {
                puts.push((key, value.clone()));
            }
        }
        for o in ops.put_many(puts, args.replicas, cfg) {
            let us = o.latency.as_micros() as u64;
            reg.observe("load.op_us", us);
            reg.observe("load.put_us", us);
            if o.result.is_err() {
                errors += 1;
            }
        }
        for o in ops.get_many(&gets, cfg) {
            let us = o.latency.as_micros() as u64;
            reg.observe("load.op_us", us);
            reg.observe("load.get_us", us);
            if o.result.is_err() {
                errors += 1;
            }
        }
        done += chunk;
    }
    // Fold this worker's client-side transport counters into the report
    // so the main thread can merge all workers into one net.* view.
    _metrics.snapshot_into(&mut reg);
    let cache = ops.cache_stats();
    reg.add("load.cache_hits", cache.hits);
    reg.add("load.cache_misses", cache.misses);
    reg.add("load.cache_stale", cache.stale);
    ops.client().shutdown();
    WorkerReport { reg, done, errors }
}

fn main() {
    let args = parse_args();
    let entry = pack_addr(args.node);

    // Probe connection: discover the ring and preload the key space.
    let (probe, _probe_metrics) = open_ops(&[entry]);
    let entries = probe.discover();
    if entries.is_empty() {
        eprintln!("no cluster reachable at {}", args.node);
        std::process::exit(1);
    }
    probe.set_entries(entries.clone());
    if !args.json {
        eprintln!(
            "discovered {} node(s); preloading {} keys",
            entries.len(),
            args.keys
        );
    }
    let keys = key_space(args.keys, args.locality);
    let preload: Vec<(Key, Vec<u8>)> = keys
        .iter()
        .map(|&k| (k, vec![0xD2u8; args.value_bytes]))
        .collect();
    let preload_cfg = PipelineConfig {
        window: 32,
        op_timeout: args.timeout,
    };
    let preload_errors = probe
        .put_many(preload, args.replicas, preload_cfg)
        .iter()
        .filter(|o| o.result.is_err())
        .count();
    if preload_errors > 0 {
        eprintln!("warning: {preload_errors} preload puts failed");
    }

    let cfg = PipelineConfig {
        window: args.window,
        op_timeout: args.timeout,
    };
    let per_worker = args.ops / args.workers;
    let quotas: Vec<usize> = (0..args.workers)
        .map(|i| per_worker + usize::from(i < args.ops % args.workers))
        .collect();

    let t0 = Instant::now();
    let reports: Vec<WorkerReport> = std::thread::scope(|s| {
        let handles: Vec<_> = quotas
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let (args, keys, entries) = (&args, &keys, &entries);
                s.spawn(move || worker(i, args, keys, entries, q, cfg))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed();

    let mut merged = Registry::new();
    let mut done = 0usize;
    let mut errors = 0usize;
    for r in &reports {
        merged.merge(&r.reg);
        done += r.done;
        errors += r.errors;
    }
    let throughput = done as f64 / wall.as_secs_f64().max(1e-9);
    let lat = merged.histogram("load.op_us").cloned().unwrap_or_default();
    let mode = if cfg.window == 1 {
        "serial"
    } else {
        "pipelined"
    };
    let encoding = if args.locality { "locality" } else { "hashed" };
    let (hits, misses, stale) = (
        merged.counter("load.cache_hits"),
        merged.counter("load.cache_misses"),
        merged.counter("load.cache_stale"),
    );
    let hit_rate = hits as f64 / ((hits + misses) as f64).max(1.0);

    let net_keys = [
        "net.bytes_out",
        "net.bytes_in",
        "net.msgs",
        "net.reconnects",
        "net.orphan_responses",
        "net.loopback_msgs",
        "net.coalesced_frames",
    ];
    if args.json {
        let net: Vec<String> = net_keys
            .iter()
            .map(|k| format!("\"{k}\": {}", merged.counter(k)))
            .collect();
        println!(
            "{{\"bench\": \"wire\", \"mode\": \"{mode}\", \"nodes\": {}, \"workers\": {}, \
             \"window\": {}, \
             \"ops\": {done}, \"errors\": {errors}, \"keys\": {}, \"key_encoding\": \"{encoding}\", \
             \"value_bytes\": {}, \
             \"get_ratio\": {}, \"zipf_theta\": {}, \"replicas\": {}, \"wall_ms\": {}, \
             \"throughput_ops_s\": {:.1}, \"latency_us\": {{\"p50\": {}, \"p90\": {}, \
             \"p99\": {}, \"p999\": {}, \"mean\": {:.1}, \"max\": {}}}, \
             \"lookup_cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"stale\": {stale}, \
             \"hit_rate\": {hit_rate:.4}}}, \"net\": {{{}}}}}",
            entries.len(),
            args.workers,
            cfg.window,
            args.keys,
            args.value_bytes,
            args.get_ratio,
            args.zipf_theta,
            args.replicas,
            wall.as_millis(),
            throughput,
            lat.quantile(0.50),
            lat.quantile(0.90),
            lat.quantile(0.99),
            lat.quantile(0.999),
            lat.mean(),
            lat.max(),
            net.join(", "),
        );
    } else {
        println!(
            "mode {mode}: {done} ops ({errors} errors) in {:.2}s",
            wall.as_secs_f64()
        );
        println!(
            "throughput: {throughput:.0} ops/s ({} workers, window {})",
            args.workers, cfg.window
        );
        println!(
            "latency us: p50 {}  p90 {}  p99 {}  p999 {}  mean {:.0}  max {}",
            lat.quantile(0.50),
            lat.quantile(0.90),
            lat.quantile(0.99),
            lat.quantile(0.999),
            lat.mean(),
            lat.max()
        );
        println!(
            "lookup cache ({encoding} keys): {hits} hits  {misses} misses  {stale} stale  \
             hit rate {hit_rate:.4}"
        );
        for k in net_keys {
            println!("{k}: {}", merged.counter(k));
        }
    }
}
