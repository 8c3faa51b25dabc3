//! End-to-end: a 200-node single-process cluster.
//!
//! Boots 200 nodes through [`ManyCluster`] (one reactor, turned by one
//! host thread), waits for every join, polls the Zave ring invariants to
//! quiescence, stores replicated blocks through real recursive lookups,
//! verifies the storage invariant, asserts the OS thread count stayed
//! constant in N — for the in-process [`Deployment`] too, which runs on
//! the same kind of host — then stops every node gracefully over the
//! wire and watches the cluster drain itself.
//!
//! One test function: the process-wide thread count is global state,
//! so nothing else may start threads in this binary meanwhile.

use d2_net::invariants::check_ring;
use d2_net::ops::ClusterOps;
use d2_net::{Deployment, ManyCluster, NodeSpec, NodeStatus};
use d2_ring::messages::Addr;
use d2_types::Key;
use d2_wire::client::WireClient;
use d2_wire::metrics::NetMetrics;
use d2_wire::tcp::{TcpConfig, TcpTransport};
use d2_wire::transport::ChannelHub;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

const N: usize = 200;
const REPLICAS: usize = 3;

/// Current OS thread count of this process, from /proc/self/status.
fn os_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn scrape_statuses(ops: &ClusterOps<TcpTransport>, addrs: &[Addr]) -> Vec<NodeStatus> {
    addrs.iter().filter_map(|&a| ops.status_of(a)).collect()
}

/// A 32-node channel deployment costs its host thread, not a thread
/// per node, and its client none: replies are routed by the thread
/// that sends them.
fn deployment_threads_are_constant_in_n() {
    let threads_before = os_threads();
    let hub = ChannelHub::new(Arc::new(NetMetrics::new()));
    let client = WireClient::new(hub.open(), Arc::new(NetMetrics::new()));
    assert_eq!(
        os_threads(),
        threads_before,
        "a channel client is no thread"
    );
    drop(client);
    let dep = Deployment::launch(32, 3);
    dep.wait_stable();
    let threads_during = os_threads();
    dep.shutdown();
    assert_eq!(threads_during, threads_before + 1, "32 nodes, one host");
}

#[test]
fn two_hundred_nodes_in_one_process() {
    deployment_threads_are_constant_in_n();
    let threads_before = os_threads();

    let metrics = Arc::new(NetMetrics::new());
    let template = NodeSpec::replicated(REPLICAS as u32);
    let mut cluster = ManyCluster::launch(N, 0, template, Arc::clone(&metrics)).expect("launch");
    assert!(
        cluster.wait_joined(Duration::from_secs(120)),
        "only {}/{N} nodes joined",
        cluster.poll_boot()
    );
    assert_eq!(cluster.live(), N);

    // Constant thread budget: the host, which turns the reactor's
    // poller itself, regardless of N. (One more leaves room for the
    // harness.)
    let threads_during = os_threads();
    assert!(
        threads_during <= threads_before + 2,
        "thread count grew with N: {threads_before} -> {threads_during}"
    );

    // Client over its own transport (one more reactor, and its poller).
    let client_metrics = Arc::new(NetMetrics::new());
    let client = WireClient::new(
        TcpTransport::bind(
            Ipv4Addr::LOCALHOST,
            0,
            TcpConfig::default(),
            Arc::clone(&client_metrics),
        )
        .expect("bind client"),
        client_metrics,
    );
    let addrs: Vec<Addr> = cluster.addrs().to_vec();
    let ops = ClusterOps::new(client, addrs.clone());

    // Poll the Zave suite to quiescence: joined, corpse-free, ordered
    // successor lists, one sorted cycle, consistent predecessors.
    if let Err(report) = ops.wait_ring_ok(&addrs, Duration::from_secs(120)) {
        panic!(
            "ring never quiesced; {}/{N} statuses, violations: {:?}",
            report.nodes,
            report.violations.iter().take(8).collect::<Vec<_>>()
        );
    }

    // Replicated puts through recursive lookups; chain acks certify
    // every copy, so the storage invariant holds immediately.
    let keys: Vec<Key> = (0..50u64)
        .map(|i| Key::from_u64_ordered(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    for (i, &k) in keys.iter().enumerate() {
        let written = ops
            .put(k, format!("many-{i}").into_bytes(), REPLICAS)
            .unwrap_or_else(|e| panic!("put {i}: {e}"));
        assert_eq!(written, REPLICAS, "put {i} wrote a short chain");
    }
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(
            ops.get(k, REPLICAS)
                .unwrap_or_else(|e| panic!("get {i}: {e}")),
            format!("many-{i}").into_bytes()
        );
    }
    let report = check_ring(&scrape_statuses(&ops, &addrs));
    assert!(
        report.ok(),
        "violations after load: {:?}",
        report.violations
    );
    assert!(
        report.total_blocks >= keys.len() * REPLICAS,
        "storage invariant: {} blocks < {} puts x {REPLICAS} replicas",
        report.total_blocks,
        keys.len()
    );

    // Co-hosted nodes talk over the loopback fast path, not frames —
    // and none of them reports the sheet they share as its own, which
    // would N-fold it in a merged scrape.
    let m = metrics.snapshot();
    assert!(
        m.counter("net.loopback_msgs") > 0,
        "no loopback fast-path traffic recorded"
    );
    let scrape = ops.scrape(&addrs[..8]);
    assert_eq!(scrape.nodes.len(), 8);
    assert_eq!(scrape.merged.counter("net.loopback_msgs"), 0);

    // Graceful drain: stop every node over the wire; when the last
    // runtime goes, the host exits on its own.
    for &a in cluster.addrs() {
        assert!(ops.stop(a), "node {a} did not ack shutdown");
    }
    assert!(
        cluster.wait_finished(Duration::from_secs(30)),
        "host did not exit after all nodes stopped ({} live)",
        cluster.live()
    );
    assert_eq!(cluster.live(), 0);
}
