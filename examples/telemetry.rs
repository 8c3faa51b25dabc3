//! Telemetry-plane smoke: scrape a live in-process cluster.
//!
//! Launches a three-node channel deployment, writes a few traced
//! blocks, scrapes every node's metric registry and flight recorder
//! over the wire (`Request::MetricsDump`), and prints the merged
//! `d2-node top` view plus the merged registry snapshot as JSON.
//!
//! Exits non-zero if the scrape misses a node, the merged snapshot is
//! empty, or the JSON is structurally broken — `scripts/check.sh` runs
//! this as the telemetry smoke test.
//!
//! Run with: `cargo run --release --example telemetry`

use d2::net::{render_top, Deployment};
use d2::types::Key;

fn main() {
    const NODES: usize = 3;
    let dep = Deployment::launch(NODES, 2);
    dep.wait_stable();

    for i in 0..5u64 {
        let key = Key::from_fraction((i as f64 + 0.5) / 5.0);
        let (written, trace_id) = dep
            .ops()
            .put_traced(key, format!("block-{i}").into_bytes(), 2)
            .expect("put");
        assert_eq!(written, 2);
        assert_ne!(trace_id, 0, "traced put must allocate a trace id");
    }

    let scrape = dep.scrape();
    assert_eq!(
        scrape.nodes.len(),
        NODES,
        "scraped {}/{NODES} nodes",
        scrape.nodes.len()
    );

    println!("{}", render_top(&scrape, None, &|a| format!("node-{a}")));

    let json = scrape.merged.snapshot().to_json();
    // Structural sanity without a JSON parser in the dependency set:
    // non-empty object, balanced braces, and the counters we know every
    // node increments.
    assert!(json.len() > 2, "merged snapshot serialized empty: {json}");
    assert!(
        json.starts_with('{') && json.ends_with('}'),
        "not an object: {json}"
    );
    let depth = json.chars().fold(0i64, |d, c| match c {
        '{' => d + 1,
        '}' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "unbalanced braces in snapshot JSON");
    for key in ["node.puts", "node.lookups", "node.msgs_in"] {
        assert!(json.contains(key), "merged snapshot missing {key}: {json}");
    }

    println!("merged snapshot: {json}");
    println!(
        "telemetry smoke OK: {} nodes scraped, {} spans collected",
        scrape.nodes.len(),
        scrape.all_spans().len()
    );
    dep.shutdown();
}
