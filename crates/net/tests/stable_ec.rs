//! `serve-many`'s boot under erasure coding: a put issued the moment
//! [`ManyCluster::boot`] returns (`STABLE`) lands on its settled
//! fragment group, so `n - k` crashes lose no block. A boot that
//! returned once the ring invariants passed, before the successor-list
//! tails two hops behind each joiner caught up, handed such puts stale
//! groups.

use d2_net::ops::ClusterOps;
use d2_net::{ManyCluster, NodeSpec, PipelineConfig, RedundancyPolicy};
use d2_ring::messages::Addr;
use d2_types::Key;
use d2_wire::client::WireClient;
use d2_wire::metrics::NetMetrics;
use d2_wire::tcp::{TcpConfig, TcpTransport};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

const NODES: usize = 16;
const K: usize = 2;
const N: usize = 4;

#[test]
fn puts_at_stable_survive_n_minus_k_crashes() {
    let template = NodeSpec {
        redundancy: RedundancyPolicy::ErasureCode { k: K, n: N },
        ..NodeSpec::replicated(1)
    };
    let metrics = Arc::new(NetMetrics::new());
    let mut cluster = ManyCluster::launch(NODES, 0, template, metrics).expect("launch");
    let client_metrics = Arc::new(NetMetrics::new());
    let transport = TcpTransport::bind(
        Ipv4Addr::LOCALHOST,
        0,
        TcpConfig::default(),
        Arc::clone(&client_metrics),
    )
    .expect("bind client");
    let ops = ClusterOps::new(WireClient::new(transport, client_metrics), vec![]);
    assert!(
        cluster.boot(Duration::from_secs(60), |_| {}),
        "boot stalled"
    );
    let addrs: Vec<Addr> = cluster.addrs().to_vec();
    ops.set_entries(addrs.clone());

    // Every put at once, before the next stabilization round.
    let blocks: Vec<(Key, Vec<u8>)> = (0..4 * NODES as u64)
        .map(|i| {
            let key = Key::from_fraction((i as f64 + 0.5) / (4 * NODES) as f64);
            (key, vec![i as u8; 256])
        })
        .collect();
    let cfg = PipelineConfig {
        window: blocks.len(),
        op_timeout: Duration::from_secs(5),
    };
    for (i, out) in ops.put_many(blocks.clone(), N, cfg).iter().enumerate() {
        assert!(out.result.is_ok(), "put {i}: {:?}", out.result);
    }

    // Let a repair round settle the fragments where the ring now says
    // they belong, then crash a last-wave joiner and its successor.
    std::thread::sleep(Duration::from_millis(1500));
    let joiner = addrs[NODES / 2];
    let next = ops
        .status_of(joiner)
        .and_then(|st| st.successors.first().map(|p| p.addr))
        .expect("joiner status");
    cluster.crash(joiner);
    cluster.crash(next);
    let live: Vec<Addr> = addrs
        .iter()
        .copied()
        .filter(|&a| a != joiner && a != next)
        .collect();
    ops.set_entries(live.clone());
    if let Err(report) = ops.wait_ring_ok(&live, Duration::from_secs(30)) {
        panic!("ring after two crashes: {:?}", report.violations);
    }
    // Gathers race the successor updates the crashes set off: retry
    // briefly before calling a block lost.
    for (i, (key, want)) in blocks.iter().enumerate() {
        let mut got = ops.get(*key, N);
        for _ in 0..100 {
            if got.as_ref().is_ok_and(|d| d == want) {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
            got = ops.get(*key, N);
        }
        assert_eq!(got.unwrap_or_else(|e| panic!("block {i} lost: {e}")), *want);
    }
}
