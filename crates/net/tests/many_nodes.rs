//! End-to-end: a 200-node single-process cluster.
//!
//! Boots 200 nodes through [`ManyCluster`] (one reactor, turned by one
//! host thread), checks the Zave ring invariants hold the moment the boot
//! is done, stores replicated blocks through real recursive lookups,
//! verifies the storage invariant, asserts the OS thread count stayed
//! constant in N — for the in-process [`Deployment`] too, which runs on
//! the same kind of host — then stops every node gracefully over the
//! wire and watches the cluster drain itself. A 16-node cluster then
//! shows co-hosted replicas holding one buffer per block, through a
//! crash and an overwrite.
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
    let mut waves = Vec::new();
    let stable = cluster.boot(Duration::from_secs(120), |k| waves.push(k));
    assert!(stable, "boot stalled after waves {waves:?}");
    // Each wave doubles the ring.
    assert_eq!(waves, [2, 4, 8, 16, 32, 64, 128]);
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

    // A finished boot means the Zave suite passes — joined, corpse-free,
    // ordered successor lists, one sorted cycle, consistent
    // predecessors — and every successor list has converged, on the
    // first scrape, with no wait to quiesce.
    let report = check_ring(&scrape_statuses(&ops, &addrs));
    assert!(
        report.ready() && report.nodes == N,
        "booted ring is not ready; {}/{N} statuses, converged {}, violations: {:?}",
        report.nodes,
        report.converged,
        report.violations.iter().take(8).collect::<Vec<_>>()
    );

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

    co_hosted_replicas_share_one_buffer_per_block();
}

/// Co-hosted replicas of a block hold one buffer (DESIGN.md §11.4): on
/// 16 nodes at r = 3 the host's pool holds one buffer per key, held by
/// all three replicas; a crashed owner's keys and an overwritten key
/// still read back exactly.
fn co_hosted_replicas_share_one_buffer_per_block() {
    const NODES: usize = 16;
    const KEYS: u64 = 48;
    let template = NodeSpec::replicated(REPLICAS as u32);
    let metrics = Arc::new(NetMetrics::new());
    let mut cluster = ManyCluster::launch(NODES, 0, template, metrics).expect("launch");
    assert!(
        cluster.boot(Duration::from_secs(60), |_| {}),
        "boot stalled"
    );
    // A client with an empty lookup cache, entering through `entries`.
    let connect = |entries: Vec<Addr>| {
        let metrics = Arc::new(NetMetrics::new());
        let cfg = TcpConfig::default();
        let transport = TcpTransport::bind(Ipv4Addr::LOCALHOST, 0, cfg, Arc::clone(&metrics));
        ClusterOps::new(
            WireClient::new(transport.expect("bind client"), metrics),
            entries,
        )
    };
    let ops = connect(cluster.addrs().to_vec());

    // 4 KiB a block, each key's bytes its own.
    let block = |i: u64, generation: u64| -> Vec<u8> {
        let seed = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ generation;
        (0..4096u64)
            .map(|j| (seed.rotate_left(j as u32 % 64) ^ j) as u8)
            .collect()
    };
    let keys: Vec<Key> = (0..KEYS)
        .map(|i| Key::from_u64_ordered(i.wrapping_mul(0x2545_f491_4f6c_dd1d)))
        .collect();
    for (i, &k) in (0..KEYS).zip(&keys) {
        let written = ops.put(k, block(i, 0), REPLICAS);
        assert_eq!(written.ok(), Some(REPLICAS), "put {i}");
    }
    // Every replica the chains wrote holds the one pooled buffer.
    let report = check_ring(&scrape_statuses(&ops, cluster.addrs()));
    assert_eq!(report.total_blocks, KEYS as usize * REPLICAS);
    assert_eq!(
        cluster.pool().live(),
        (KEYS as usize, KEYS as usize * REPLICAS),
        "(buffers, holds) after {KEYS} puts at r = {REPLICAS}"
    );

    // Crash the first key's owner: every key it owned reads back from
    // the surviving replicas' shared buffers. A fresh client, since one
    // that cached the owner would wait out a call timeout first (the
    // shared listener still takes a crashed node's frames).
    let owner = ops.lookup(keys[0]).expect("lookup").addr;
    cluster.crash(owner);
    let alive: Vec<Addr> = cluster
        .addrs()
        .iter()
        .copied()
        .filter(|&a| a != owner)
        .collect();
    let ops = connect(alive.clone());
    ops.wait_ring_ok(&alive, Duration::from_secs(30))
        .unwrap_or_else(|r| panic!("ring did not heal: {:?}", r.violations));
    for (i, &k) in (0..KEYS).zip(&keys) {
        let got = ops.get(k, REPLICAS);
        assert!(got.ok() == Some(block(i, 0)), "get {i} after the crash");
    }

    // An overwrite reads back its new bytes, not the shared old ones.
    assert_eq!(ops.put(keys[0], block(0, 1), REPLICAS).ok(), Some(REPLICAS));
    let got = ops.get(keys[0], REPLICAS);
    assert!(got.ok() == Some(block(0, 1)), "get after the overwrite");
    let got = ops.get(keys[1], REPLICAS);
    assert!(got.ok() == Some(block(1, 0)), "a neighbour's bytes");
}
