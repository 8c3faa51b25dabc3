//! End-to-end: a real multi-process D2 cluster on localhost.
//!
//! Boots nine `d2-node` processes over TCP, stores replicated blocks
//! through real recursive lookups, crash-kills one process, verifies the
//! ring heals and every block stays readable, then shuts the cluster
//! down gracefully and checks the exported `net.*` metrics.

use d2_net::ops::ClusterOps;
use d2_ring::messages::Addr;
use d2_types::Key;
use d2_wire::client::WireClient;
use d2_wire::metrics::NetMetrics;
use d2_wire::tcp::{pack_addr, TcpConfig, TcpTransport};
use std::io::{BufRead, BufReader};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kills the child on drop so a failed assertion never leaks processes.
struct NodeProc {
    child: Child,
    addr: Addr,
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_node(pos: f64, seed: Option<SocketAddrV4>, obs_out: Option<&str>) -> NodeProc {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_d2-node"));
    cmd.arg("serve")
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--pos")
        .arg(format!("{pos}"))
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(seed) = seed {
        cmd.arg("--seed").arg(format!("{seed}"));
    }
    if let Some(path) = obs_out {
        cmd.arg("--obs-out").arg(path);
    }
    let mut child = cmd.spawn().expect("spawn d2-node");
    // The node prints `LISTEN ip:port` once the listener is bound, which
    // makes port discovery race-free.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read LISTEN line");
    let sock: SocketAddrV4 = line
        .trim()
        .strip_prefix("LISTEN ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .parse()
        .expect("parse LISTEN addr");
    NodeProc {
        child,
        addr: pack_addr(sock),
    }
}

/// Blocks until `live` passes the full Zave invariant suite — joined,
/// corpse-free, ordered successor lists, one sorted cycle, consistent
/// predecessors: the same checks `d2-node check` runs.
fn wait_stable(ops: &ClusterOps<TcpTransport>, live: &[Addr], what: &str) {
    if let Err(report) = ops.wait_ring_ok(live, Duration::from_secs(60)) {
        panic!(
            "{what}: ring failed to stabilize; have {}/{} statuses, violations:\n  {}",
            report.nodes,
            live.len(),
            report.violations.join("\n  ")
        );
    }
}

fn test_keys() -> Vec<Key> {
    (1..=12u64)
        .map(|i| Key::from_fraction(i as f64 / 13.0))
        .collect()
}

#[test]
fn nine_process_tcp_cluster_survives_a_crash() {
    const N: usize = 9;
    const REPLICAS: usize = 3;
    let obs_path = std::env::temp_dir().join(format!("d2-node-obs-{}.jsonl", std::process::id()));
    let obs_path = obs_path.to_str().expect("utf8 temp path").to_string();
    let _ = std::fs::remove_file(&obs_path);

    // Boot the seed, then join the rest through it.
    let seed = spawn_node(0.5 / N as f64, None, Some(&obs_path));
    let seed_sock = d2_wire::tcp::unpack_addr(seed.addr);
    let mut procs = vec![seed];
    for i in 1..N {
        procs.push(spawn_node(
            (i as f64 + 0.5) / N as f64,
            Some(seed_sock),
            None,
        ));
    }
    let mut live: Vec<Addr> = procs.iter().map(|p| p.addr).collect();

    let metrics = Arc::new(NetMetrics::new());
    let client = WireClient::new(
        TcpTransport::bind(
            Ipv4Addr::LOCALHOST,
            0,
            TcpConfig::default(),
            metrics.clone(),
        )
        .expect("bind client"),
        metrics,
    );
    let ops = ClusterOps::new(client, live.clone());

    wait_stable(&ops, &live, "after boot");

    // A serving process is its main thread and the host thread, which
    // reads the sockets, steps the node and writes the replies. (The
    // seed has a third, writing `--obs-out`.)
    let status = std::fs::read_to_string(format!("/proc/{}/status", procs[1].child.id()));
    let threads = status.expect("read the child's status");
    let threads = threads.lines().find(|l| l.starts_with("Threads:"));
    assert_eq!(threads.and_then(|l| l.split_whitespace().nth(1)), Some("2"));

    // Store replicated blocks; the ack certifies the whole chain, so
    // reads immediately afterwards need no settling sleep.
    for (i, &k) in test_keys().iter().enumerate() {
        let written = ops
            .put(k, format!("block-{i}").into_bytes(), REPLICAS)
            .unwrap_or_else(|e| panic!("put {i}: {e}"));
        assert_eq!(written, REPLICAS, "put {i} wrote a short chain");
    }
    for (i, &k) in test_keys().iter().enumerate() {
        assert_eq!(
            ops.get(k, REPLICAS)
                .unwrap_or_else(|e| panic!("get {i}: {e}")),
            format!("block-{i}").into_bytes()
        );
    }

    // Lookups enter through rotating nodes and find the right owner.
    let owner = ops.lookup(Key::from_fraction(0.61)).expect("lookup");
    assert!(live.contains(&owner.addr));

    // A traced put: the lookup and the replica chain share one trace id,
    // and every node that touched the block recorded a span under it.
    let traced_key = Key::from_fraction(0.345);
    let (written, trace_id) = ops
        .put_traced(traced_key, b"traced-block".to_vec(), REPLICAS)
        .expect("traced put");
    assert_eq!(written, REPLICAS);

    // Ring discovery from the entry set enumerates the whole cluster.
    let discovered = ops.discover();
    for &a in &live {
        assert!(discovered.contains(&a), "discover missed node {a}");
    }

    // Remote scrape of all nine nodes, mid-run: the merged registry must
    // be exactly the sum of the per-node sheets (counters sum; each
    // node's private net.* counters are disjoint).
    let scrape = ops.scrape(&live);
    assert_eq!(scrape.nodes.len(), N, "scrape missed a node");
    for counter in ["net.msgs", "net.bytes_in", "net.bytes_out", "node.puts"] {
        let per_node: u64 = scrape
            .nodes
            .iter()
            .map(|n| n.registry.counter(counter))
            .sum();
        assert_eq!(
            scrape.merged.counter(counter),
            per_node,
            "merged {counter} disagrees with per-node sum"
        );
    }
    // Nodes talked TCP to each other, so the merged frame counters are
    // live, and every put fed the cluster-wide replica distribution.
    assert!(scrape.merged.counter("net.msgs") > 0);
    assert!(scrape.merged.counter("node.puts") >= test_keys().len() as u64);
    assert!(scrape.merged.histogram("node.put_replicas").is_some());

    // The traced put's spans are collectable from the flight recorders
    // and cover at least the replica chain.
    let spans = ops.collect_trace(trace_id);
    let span_nodes: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.node).collect();
    assert!(
        span_nodes.len() >= REPLICAS,
        "trace {trace_id:#x} seen on {} node(s), wanted >= {REPLICAS}; spans: {spans:?}",
        span_nodes.len()
    );
    // The chain put shows up as causally linked: some span's parent is
    // another collected span (cross-node parent/child edge).
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
    assert!(
        spans
            .iter()
            .any(|s| s.parent_span_id != 0 && ids.contains(&s.parent_span_id)),
        "no cross-span causal edge in {spans:?}"
    );

    // Crash-kill one non-seed process (SIGKILL: no goodbye traffic).
    let victim = procs.remove(5);
    let victim_addr = victim.addr;
    drop(victim);
    live.retain(|&a| a != victim_addr);
    ops.set_entries(live.clone());

    wait_stable(&ops, &live, "after crash");

    // Every block survives the crash (replicas outlive one failure).
    for (i, &k) in test_keys().iter().enumerate() {
        assert_eq!(
            ops.get(k, REPLICAS)
                .unwrap_or_else(|e| panic!("get {i} after crash: {e}")),
            format!("block-{i}").into_bytes()
        );
    }

    // Graceful shutdown: every surviving node acks and its process exits.
    for p in &mut procs {
        assert!(ops.stop(p.addr), "node did not ack shutdown");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match p.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "node exited with {status}");
                    break;
                }
                None => {
                    assert!(Instant::now() < deadline, "node did not exit after stop");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    // The seed exported live net.* metrics as JSONL.
    let obs = std::fs::read_to_string(&obs_path).expect("read obs JSONL");
    let last = obs.lines().last().expect("at least one snapshot line");
    // (RTT histograms live on the client side; a serving node exports
    // the frame counters.)
    for key in [
        "net.bytes_in",
        "net.bytes_out",
        "net.msgs",
        "net.reconnects",
    ] {
        assert!(last.contains(key), "obs line missing {key}: {last}");
    }
    let _ = std::fs::remove_file(&obs_path);
}
