//! A live in-process deployment with real recursive lookups — the
//! runnable analogue of the paper's 1,000-virtual-node Emulab runs.
//!
//! Every node runs the same protocol state machine as the simulations,
//! all of them stepped by one host thread; blocks are stored with `r = 3` replication through
//! actual joins, stabilization rounds, and routed lookups.
//!
//! Run with: `cargo run --release --example deployment [nodes]`
//! (default 200 nodes; pass 1000 for the paper-scale ring)

use d2::net::Deployment;
use d2::types::{sha256, Key};
use std::time::Instant;

fn main() {
    let nodes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);

    println!("launching {nodes} node threads …");
    let t0 = Instant::now();
    let dep = Deployment::launch(nodes, 3);
    dep.wait_stable();
    println!("ring stabilized in {:.2?}", t0.elapsed());

    // Store a small file tree's worth of blocks.
    let files = [
        "/home/u1/paper.tex",
        "/home/u1/figs/fig1.pdf",
        "/usr/share/lib.so",
    ];
    let mut keys = Vec::new();
    let t1 = Instant::now();
    for (i, path) in files.iter().enumerate() {
        for block in 0..8u64 {
            let digest = sha256(format!("{path}:{block}").as_bytes());
            let mut raw = [0u8; 64];
            raw[..32].copy_from_slice(digest.as_bytes());
            raw[32..40].copy_from_slice(&block.to_be_bytes());
            let key = Key::from_bytes(raw);
            let payload = format!("contents of {path} block {block} ({i})").into_bytes();
            dep.put(key, payload).expect("put");
            keys.push((key, path, block));
        }
    }
    println!("stored {} blocks in {:.2?}", keys.len(), t1.elapsed());

    // Read everything back through routed lookups.
    let t2 = Instant::now();
    for (key, path, block) in &keys {
        let data = dep.get(*key).expect("get");
        assert!(String::from_utf8_lossy(&data).contains(path.split('/').next_back().unwrap()));
        let _ = block;
    }
    println!("fetched {} blocks in {:.2?}", keys.len(), t2.elapsed());

    // Ring health report.
    let statuses = dep.statuses();
    let with_pred = statuses.iter().filter(|s| s.predecessor.is_some()).count();
    let total_blocks: usize = statuses.iter().map(|s| s.blocks).sum();
    println!(
        "ring health: {}/{} nodes with predecessors, {} replica-copies stored",
        with_pred,
        statuses.len(),
        total_blocks
    );
    dep.shutdown();
    println!("deployment OK");
}
