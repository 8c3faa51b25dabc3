//! One D2 node (or client operation) per OS process, over TCP.
//!
//! ```text
//! d2-node serve      --listen IP:PORT [--seed IP:PORT] --pos F [--replicas N] [--ec K/N] [--repair-threshold M] [--repair-budget BPS] [--obs-out PATH]
//! d2-node serve-many --nodes N [--port P] [--replicas R] [--ec K/N] [--repair-threshold M] [--repair-budget BPS] [--obs-out PATH]
//! d2-node lookup     --node IP:PORT (--key-frac F | --key-u64 N)
//! d2-node put        --node IP:PORT (--key-frac F | --key-u64 N) --data S [--replicas N] [-v]
//! d2-node get        --node IP:PORT (--key-frac F | --key-u64 N) [-v]
//! d2-node status     --node IP:PORT
//! d2-node check      --node IP:PORT [--expect N]
//! d2-node top        --node IP:PORT [--watch]
//! d2-node trace      --node IP:PORT --id TRACE
//! d2-node stop       --node IP:PORT [--all]
//! ```
//!
//! `serve` binds the listener (port 0 picks a free port), prints
//! `LISTEN ip:port` on stdout, and runs the node until a `stop` request
//! arrives. Without `--seed` it bootstraps a new ring; with `--seed` it
//! joins through that address. With `--obs-out` it appends a JSONL
//! metric snapshot (`net.bytes_{in,out}`, `net.msgs`, `net.reconnects`,
//! RTT histograms) every second and once more on exit.
//!
//! `--ec K/N` switches the node to erasure-coded redundancy: puts are
//! encoded into N fragments (any K reconstruct), gets gather-and-decode,
//! and background repair becomes lazy — regenerating only keys whose
//! survivors drop below `--repair-threshold M` (default: the midpoint
//! between K and N), within `--repair-budget BPS` bytes/second per node
//! (0 = unlimited). Every node in a ring must agree on the policy.
//!
//! `serve-many` hosts a whole N-node cluster in this one process: one
//! reactor turned by one host thread, node `i` at virtual address
//! `127.0.0.1+i` on the shared port. It prints `LISTEN 127.0.0.1:port`,
//! `JOINED k/N` progress lines during the staged boot, `STABLE N` when
//! every node is a ring member, then runs until every node is stopped
//! (e.g. `d2-node stop --node 127.0.0.1:PORT --all`). This is the
//! 1,000-node deployment mode — see EXPERIMENTS.md ("Booting a
//! 1,000-node cluster on one machine") for FD-limit prerequisites.
//!
//! `check` discovers every ring member from `--node` and runs the Zave
//! ring-invariant suite over their status snapshots (joined, corpse-free,
//! ordered successor lists, one sorted cycle, consistent predecessors),
//! printing each violation; exit status 1 if anything fails (or fewer
//! than `--expect N` nodes are found), 0 on a clean bill.
//!
//! `top` discovers the ring from `--node`, scrapes every member's
//! metric registry and flight recorder over the wire, and prints the
//! merged cluster view: per-node counters, cluster-wide latency
//! percentiles, and the slowest recent operations with their trace
//! ids. `--watch` refreshes every 2 seconds until interrupted.
//!
//! `put` and `get` go through the client's lookup cache
//! ([`ClusterOps::cache_stats`]); `-v` prints its counters on stderr
//! (a one-shot process starts cold, so a clean op reads `0 hits, 1
//! misses, 0 stale`).
//!
//! `trace` collects every span of one trace id (as printed by `put` or
//! the top view) from all nodes and prints the operation's causal tree.
//!
//! See EXPERIMENTS.md ("A real cluster on localhost" and "Watching a
//! live cluster") for walkthroughs.

use d2_net::{check_ring, ClusterOps, Host, ManyCluster, NodeSpec, RedundancyPolicy};
use d2_types::Key;
use d2_wire::client::WireClient;
use d2_wire::metrics::NetMetrics;
use d2_wire::reactor::TcpReactor;
use d2_wire::tcp::{pack_addr, unpack_addr, TcpConfig, TcpTransport};
use std::io::Write;
use std::net::SocketAddrV4;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: d2-node serve      --listen IP:PORT [--seed IP:PORT] --pos F [--replicas N] [--ec K/N] [--repair-threshold M] [--repair-budget BPS] [--obs-out PATH]\n\
         \x20      d2-node serve-many --nodes N [--port P] [--replicas R] [--ec K/N] [--repair-threshold M] [--repair-budget BPS] [--obs-out PATH]\n\
         \x20      d2-node lookup     --node IP:PORT (--key-frac F | --key-u64 N)\n\
         \x20      d2-node put        --node IP:PORT (--key-frac F | --key-u64 N) --data S [--replicas N] [-v]\n\
         \x20      d2-node get        --node IP:PORT (--key-frac F | --key-u64 N) [-v]\n\
         \x20      d2-node status     --node IP:PORT\n\
         \x20      d2-node check      --node IP:PORT [--expect N]\n\
         \x20      d2-node top        --node IP:PORT [--watch]\n\
         \x20      d2-node trace      --node IP:PORT --id TRACE\n\
         \x20      d2-node stop       --node IP:PORT [--all]"
    );
    std::process::exit(2);
}

/// Flag values parsed from the command line.
#[derive(Default)]
struct Args {
    listen: Option<SocketAddrV4>,
    seed: Option<SocketAddrV4>,
    node: Option<SocketAddrV4>,
    pos: Option<f64>,
    key: Option<Key>,
    data: Option<String>,
    replicas: usize,
    obs_out: Option<String>,
    trace_id: Option<u64>,
    watch: bool,
    nodes: Option<usize>,
    port: u16,
    expect: Option<usize>,
    all: bool,
    ec: Option<(usize, usize)>,
    repair_threshold: Option<usize>,
    repair_budget: u64,
    verbose: bool,
}

/// Parses `--ec K/N` (e.g. `4/8`): K data fragments, N total, K < N.
fn parse_ec(s: &str) -> (usize, usize) {
    let parts: Vec<&str> = s.split('/').collect();
    if let [k, n] = parts[..] {
        if let (Ok(k), Ok(n)) = (k.parse::<usize>(), n.parse::<usize>()) {
            if (RedundancyPolicy::ErasureCode { k, n }).validate().is_ok() {
                return (k, n);
            }
        }
    }
    eprintln!("--ec wants K/N with 1 <= K < N <= 255 (e.g. --ec 4/8), got {s:?}");
    std::process::exit(2);
}

fn parse_sock(s: &str, flag: &str) -> SocketAddrV4 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag} wants IPv4 IP:PORT, got {s:?}");
        std::process::exit(2);
    })
}

fn parse_args(args: &[String]) -> Args {
    let mut out = Args {
        replicas: 3,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--listen" => out.listen = Some(parse_sock(&val("--listen"), "--listen")),
            "--seed" => out.seed = Some(parse_sock(&val("--seed"), "--seed")),
            "--node" => out.node = Some(parse_sock(&val("--node"), "--node")),
            "--pos" => match val("--pos").parse::<f64>() {
                Ok(f) if (0.0..=1.0).contains(&f) => out.pos = Some(f),
                _ => {
                    eprintln!("--pos wants a ring position in [0, 1]");
                    std::process::exit(2);
                }
            },
            "--key-frac" => match val("--key-frac").parse::<f64>() {
                Ok(f) if (0.0..=1.0).contains(&f) => out.key = Some(Key::from_fraction(f)),
                _ => {
                    eprintln!("--key-frac wants a fraction in [0, 1]");
                    std::process::exit(2);
                }
            },
            "--key-u64" => match val("--key-u64").parse::<u64>() {
                Ok(v) => out.key = Some(Key::from_u64(v)),
                Err(_) => {
                    eprintln!("--key-u64 wants an unsigned integer");
                    std::process::exit(2);
                }
            },
            "--data" => out.data = Some(val("--data")),
            "--replicas" => match val("--replicas").parse::<usize>() {
                Ok(n) if n >= 1 => out.replicas = n,
                _ => {
                    eprintln!("--replicas wants a positive integer");
                    std::process::exit(2);
                }
            },
            "--obs-out" => out.obs_out = Some(val("--obs-out")),
            "--id" => {
                // Trace ids print in hex; accept both spellings.
                let s = val("--id");
                let parsed = match s.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => s.parse(),
                };
                match parsed {
                    Ok(id) if id != 0 => out.trace_id = Some(id),
                    _ => {
                        eprintln!("--id wants a nonzero trace id (decimal or 0x-hex)");
                        std::process::exit(2);
                    }
                }
            }
            "--watch" => out.watch = true,
            "--nodes" => match val("--nodes").parse::<usize>() {
                Ok(n) if n >= 1 => out.nodes = Some(n),
                _ => {
                    eprintln!("--nodes wants a positive integer");
                    std::process::exit(2);
                }
            },
            "--port" => match val("--port").parse::<u16>() {
                Ok(p) => out.port = p,
                Err(_) => {
                    eprintln!("--port wants a port number");
                    std::process::exit(2);
                }
            },
            "--expect" => match val("--expect").parse::<usize>() {
                Ok(n) if n >= 1 => out.expect = Some(n),
                _ => {
                    eprintln!("--expect wants a positive integer");
                    std::process::exit(2);
                }
            },
            "--all" => out.all = true,
            "-v" => out.verbose = true,
            "--ec" => out.ec = Some(parse_ec(&val("--ec"))),
            "--repair-threshold" => match val("--repair-threshold").parse::<usize>() {
                Ok(m) if m >= 1 => out.repair_threshold = Some(m),
                _ => {
                    eprintln!("--repair-threshold wants a positive integer");
                    std::process::exit(2);
                }
            },
            "--repair-budget" => match val("--repair-budget").parse::<u64>() {
                Ok(b) => out.repair_budget = b,
                Err(_) => {
                    eprintln!("--repair-budget wants bytes/second (0 = unlimited)");
                    std::process::exit(2);
                }
            },
            _ => usage(),
        }
    }
    out
}

/// The node the redundancy flags describe, yet to be placed on the ring.
fn node_spec(args: &Args) -> NodeSpec {
    NodeSpec {
        redundancy: args.ec.map(|(k, n)| RedundancyPolicy::ErasureCode { k, n }),
        repair_threshold: args.repair_threshold,
        repair_budget_bps: args.repair_budget,
        ..NodeSpec::replicated(args.replicas as u32)
    }
}

fn serve(args: Args) {
    let Some(listen) = args.listen else { usage() };
    let Some(pos) = args.pos else { usage() };
    let spec = node_spec(&args).at(Key::from_fraction(pos), args.seed.map(pack_addr));
    let metrics = Arc::new(NetMetrics::new());
    // A host of one, turning the reactor its node's endpoint is on.
    let launch = || {
        let (ip, cfg) = (*listen.ip(), TcpConfig::default());
        let (reactor, poller) = TcpReactor::bind(ip, listen.port(), cfg, metrics.clone())?;
        let host = Host::start(metrics.clone(), Some(poller))?;
        host.add(spec, reactor.open(ip)?);
        std::io::Result::Ok((reactor, host))
    };
    let (reactor, host) = launch().unwrap_or_else(|e| {
        eprintln!("bind {listen}: {e}");
        std::process::exit(1);
    });
    // Announce the actual bound address (port 0 picks a free one) so
    // scripts can discover it race-free.
    println!("LISTEN {}:{}", listen.ip(), reactor.port());
    let _ = std::io::stdout().flush();
    with_obs(args.obs_out, &metrics, || {
        // Serve until the node is stopped over the wire; the host
        // flushes the queued ShutdownAck before its thread exits.
        host.join();
        reactor.shutdown();
    });
}

/// Runs `serve` with the `--obs-out` writer, if asked for, alongside.
fn with_obs(path: Option<String>, metrics: &Arc<NetMetrics>, serve: impl FnOnce()) {
    let stop = Arc::new(AtomicBool::new(false));
    let writer = path.map(|path| spawn_obs(path, Arc::clone(metrics), Arc::clone(&stop)));
    serve();
    stop.store(true, Ordering::Release);
    if let Some(h) = writer {
        let _ = h.join();
    }
}

/// Appends a JSONL metrics snapshot to `path` every second until `stop`
/// flips, plus one final snapshot — shared by `serve` and `serve-many`.
fn spawn_obs(
    path: String,
    metrics: Arc<NetMetrics>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| {
                eprintln!("open {path}: {e}");
                std::process::exit(1);
            });
        loop {
            for _ in 0..10 {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            let line = metrics.snapshot().snapshot().to_json();
            let _ = writeln!(file, "{line}");
            if stop.load(Ordering::Acquire) {
                return; // final snapshot written above
            }
        }
    })
}

fn serve_many(args: Args) {
    let Some(n) = args.nodes else { usage() };
    let metrics = Arc::new(NetMetrics::new());
    let mut cluster = ManyCluster::launch(n, args.port, node_spec(&args), Arc::clone(&metrics))
        .unwrap_or_else(|e| {
            eprintln!("launch {n}-node cluster: {e}");
            std::process::exit(1);
        });
    // Node 0's address is the canonical client entry point; the other
    // nodes live at 127.0.0.1+i on the same port.
    println!("LISTEN 127.0.0.1:{}", cluster.port());
    let _ = std::io::stdout().flush();
    with_obs(args.obs_out, &metrics, || {
        // Boot progress, then STABLE once the staged join choreography
        // is done — scripts gate on these banners.
        let mut last = 0;
        while !cluster.finished() {
            let j = cluster.poll_boot();
            if j >= n {
                println!("STABLE {n}");
                let _ = std::io::stdout().flush();
                break;
            }
            if j != last {
                println!("JOINED {j}/{n}");
                let _ = std::io::stdout().flush();
                last = j;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        // Serve until every node has been stopped over the wire.
        while !cluster.finished() {
            std::thread::sleep(Duration::from_millis(100));
        }
    });
}

fn client_ops(node: SocketAddrV4) -> ClusterOps<TcpTransport> {
    let metrics = Arc::new(NetMetrics::new());
    let transport = TcpTransport::bind(
        std::net::Ipv4Addr::LOCALHOST,
        0,
        TcpConfig::default(),
        metrics.clone(),
    )
    .unwrap_or_else(|e| {
        eprintln!("bind client socket: {e}");
        std::process::exit(1);
    });
    ClusterOps::new(WireClient::new(transport, metrics), vec![pack_addr(node)])
}

/// `-v`: what the client's lookup cache did for this command.
fn report_cache(ops: &ClusterOps<TcpTransport>, verbose: bool) {
    if verbose {
        let c = ops.cache_stats();
        eprintln!(
            "lookup cache: {} hits, {} misses, {} stale",
            c.hits, c.misses, c.stale
        );
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    let args = parse_args(rest);
    match cmd.as_str() {
        "serve" => serve(args),
        "serve-many" => serve_many(args),
        "lookup" => {
            let (Some(node), Some(key)) = (args.node, args.key) else {
                usage()
            };
            match client_ops(node).lookup(key) {
                Ok(owner) => println!(
                    "owner {} at ring position {:.4}",
                    unpack_addr(owner.addr),
                    owner.id.to_fraction()
                ),
                Err(e) => {
                    eprintln!("lookup failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "put" => {
            let (Some(node), Some(key), Some(data)) = (args.node, args.key, args.data) else {
                usage()
            };
            let ops = client_ops(node);
            let res = ops.put_traced(key, data.into_bytes(), args.replicas);
            report_cache(&ops, args.verbose);
            match res {
                Ok((written, trace_id)) => {
                    println!("stored {written} replicas (trace {trace_id:#018x})")
                }
                Err(e) => {
                    eprintln!("put failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "get" => {
            let (Some(node), Some(key)) = (args.node, args.key) else {
                usage()
            };
            let ops = client_ops(node);
            let res = ops.get(key, args.replicas);
            report_cache(&ops, args.verbose);
            match res {
                Ok(data) => println!("{}", String::from_utf8_lossy(&data)),
                Err(e) => {
                    eprintln!("get failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "status" => {
            let Some(node) = args.node else { usage() };
            match client_ops(node).status_of(pack_addr(node)) {
                Some(st) => {
                    println!(
                        "node {} at ring position {:.4}",
                        unpack_addr(st.me.addr),
                        st.me.id.to_fraction()
                    );
                    match st.predecessor {
                        Some(p) => println!("predecessor {}", unpack_addr(p.addr)),
                        None => println!("predecessor (none)"),
                    }
                    for s in &st.successors {
                        println!("successor {}", unpack_addr(s.addr));
                    }
                    println!("blocks {}", st.blocks);
                }
                None => {
                    eprintln!("status failed: node unreachable");
                    std::process::exit(1);
                }
            }
        }
        "check" => {
            let Some(node) = args.node else { usage() };
            let ops = client_ops(node);
            // discover() keeps the entry address in the set even when
            // it is unreachable, so reachability is judged by who
            // actually answered a status probe.
            let members = ops.discover();
            let statuses: Vec<d2_net::NodeStatus> =
                members.iter().filter_map(|&a| ops.status_of(a)).collect();
            if statuses.is_empty() {
                eprintln!("check failed: no node reachable via {node}");
                std::process::exit(1);
            }
            let report = check_ring(&statuses);
            println!(
                "checked {} nodes, {} stored blocks",
                report.nodes, report.total_blocks
            );
            for v in &report.violations {
                println!("violation: {v}");
            }
            let mut failed = !report.ok();
            if let Some(expect) = args.expect {
                if statuses.len() < expect {
                    eprintln!("expected {expect} nodes, found {}", statuses.len());
                    failed = true;
                }
            }
            if failed {
                std::process::exit(1);
            }
            println!("ok: all ring invariants hold");
        }
        "top" => {
            let Some(node) = args.node else { usage() };
            let ops = client_ops(node);
            let mut prev = None;
            loop {
                let scrape = ops.scrape_all();
                if scrape.nodes.is_empty() {
                    eprintln!("top failed: no node reachable via {node}");
                    std::process::exit(1);
                }
                let view =
                    d2_net::render_top(&scrape, prev.as_ref(), &|a| unpack_addr(a).to_string());
                prev = Some(scrape);
                if args.watch {
                    // Clear + home, like top(1), so the table repaints
                    // in place.
                    print!("\x1b[2J\x1b[H{view}");
                    let _ = std::io::stdout().flush();
                    std::thread::sleep(Duration::from_secs(2));
                } else {
                    print!("{view}");
                    break;
                }
            }
        }
        "trace" => {
            let (Some(node), Some(trace_id)) = (args.node, args.trace_id) else {
                usage()
            };
            let spans = client_ops(node).collect_trace(trace_id);
            if spans.is_empty() {
                eprintln!(
                    "trace {trace_id:#018x}: no spans held anywhere in the cluster \
                     (evicted from the flight recorders, or never recorded)"
                );
                std::process::exit(1);
            }
            print!(
                "{}",
                d2_net::render_trace(&spans, &|a| unpack_addr(a).to_string())
            );
        }
        "stop" => {
            let Some(node) = args.node else { usage() };
            let ops = client_ops(node);
            if args.all {
                // Discover the whole ring first, then stop each member
                // directly — each node acks its own shutdown before the
                // next is asked, so the drain is deterministic.
                let members = ops.discover();
                let mut stopped = 0usize;
                for &a in &members {
                    if ops.stop(a) {
                        stopped += 1;
                    } else {
                        eprintln!("stop failed: {} did not ack", unpack_addr(a));
                    }
                }
                println!("stopped {stopped}/{} nodes", members.len());
                if stopped < members.len() {
                    std::process::exit(1);
                }
            } else if ops.stop(pack_addr(node)) {
                println!("stopped");
            } else {
                eprintln!("stop failed: node unreachable");
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}
