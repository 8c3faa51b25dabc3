//! The windowed batch API ([`ClusterOps::put_many`] /
//! [`ClusterOps::get_many`]) against an in-process channel cluster:
//! every op resolves to the right key, misses read as misses, and
//! failures stay per-op. And the client's lookup cache: a warm op skips
//! the lookup, and an entry the ring has moved on from (a join split
//! the range, the owner died) costs a refusal and a routed lookup,
//! never a misplaced or lost block.

use d2_net::{Deployment, PipelineConfig};
use d2_ring::messages::Addr;
use d2_types::{D2Error, Key};
use d2_wire::codec::{Request, Response};
use std::time::{Duration, Instant};

fn cfg(window: usize) -> PipelineConfig {
    PipelineConfig {
        window,
        // Short per-op timeout: lookups dropped during ring
        // stabilization retry quickly instead of stalling the test.
        op_timeout: Duration::from_secs(1),
    }
}

#[test]
fn put_many_then_get_many_round_trips_every_key() {
    let d = Deployment::launch(5, 2);
    let items: Vec<(Key, Vec<u8>)> = (0..40u64)
        .map(|i| (Key::from_u64(i), format!("block-{i}").into_bytes()))
        .collect();
    let keys: Vec<Key> = items.iter().map(|(k, _)| *k).collect();

    let puts = d.ops().put_many(items, 2, cfg(8));
    assert_eq!(puts.len(), 40);
    for p in &puts {
        let written = *p.result.as_ref().expect("batch put failed");
        assert!(written >= 1, "put {} wrote no replica", p.index);
        assert!(p.latency > Duration::ZERO);
    }

    let gets = d.ops().get_many(&keys, cfg(8));
    assert_eq!(gets.len(), 40);
    for (i, g) in gets.iter().enumerate() {
        assert_eq!(g.index, i, "outcomes come back in submission order");
        assert_eq!(g.key, keys[i]);
        assert_eq!(
            g.result.as_ref().expect("batch get failed"),
            &format!("block-{i}").into_bytes(),
            "get {i} returned the wrong block"
        );
    }
    d.shutdown();
}

#[test]
fn get_many_reports_misses_per_op() {
    let d = Deployment::launch(3, 1);
    d.ops()
        .put(Key::from_u64(1), b"present".to_vec(), 1)
        .unwrap();
    let keys = [Key::from_u64(1), Key::from_u64(999)];
    let gets = d.ops().get_many(&keys, cfg(4));
    assert_eq!(gets[0].result.as_ref().unwrap(), &b"present".to_vec());
    match &gets[1].result {
        Err(D2Error::NotFound(k)) => assert_eq!(*k, Key::from_u64(999)),
        other => panic!("expected NotFound for missing key, got {other:?}"),
    }
    d.shutdown();
}

#[test]
fn window_of_one_degrades_to_serial_but_still_completes() {
    let d = Deployment::launch(3, 1);
    let items: Vec<(Key, Vec<u8>)> = (100..110u64)
        .map(|i| (Key::from_u64(i), vec![i as u8; 32]))
        .collect();
    let puts = d.ops().put_many(items, 1, cfg(1));
    assert!(puts.iter().all(|p| p.result.is_ok()));
    d.shutdown();
}

/// One request straight to `node`, bypassing lookup and cache.
fn call(d: &Deployment, node: Addr, req: Request) -> Response {
    d.ops()
        .client()
        .call(node, req, Duration::from_secs(2))
        .expect("node answers")
}

/// The block `node` itself holds under `key`.
fn held_by(d: &Deployment, node: Addr, key: Key) -> Option<Vec<u8>> {
    match call(d, node, Request::Get { key }) {
        Response::Block { data } => data,
        _ => None,
    }
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn lookups_served(d: &Deployment) -> u64 {
    d.scrape().merged.counter("node.lookups")
}

#[test]
fn a_warm_get_many_issues_no_lookups() {
    let d = Deployment::launch(5, 2);
    d.wait_stable();
    let items: Vec<(Key, Vec<u8>)> = (0..40u64)
        .map(|i| {
            let key = Key::from_fraction((i as f64 + 0.25) / 40.0);
            (key, format!("block-{i}").into_bytes())
        })
        .collect();
    let keys: Vec<Key> = items.iter().map(|(k, _)| *k).collect();
    let puts = d.ops().put_many(items.clone(), 2, cfg(8));
    assert!(puts.iter().all(|p| p.result.is_ok()));

    let (lookups, stats) = (lookups_served(&d), d.ops().cache_stats());
    let gets = d.ops().get_many(&keys, cfg(8));
    for (g, (_, want)) in gets.iter().zip(&items) {
        assert_eq!(g.result.as_ref().expect("warm get failed"), want);
    }
    assert_eq!(lookups_served(&d), lookups, "a warm op skips the lookup");
    let warm = d.ops().cache_stats();
    assert_eq!(warm.hits - stats.hits, 40);
    assert_eq!((warm.misses, warm.stale), (stats.misses, 0));
    d.shutdown();
}

#[test]
fn joins_that_split_cached_ranges_reroute_to_the_new_owners() {
    // One replica: a block is held by exactly the node that accepted it.
    let d = Deployment::launch(4, 1);
    d.wait_stable();
    // Warm the cache with the ranges (0.125, 0.375] and (0.375, 0.625],
    // then split each with a joiner.
    let olds = [0.3, 0.6].map(|f| d.lookup(Key::from_fraction(f)).unwrap().addr);
    let joiners = [0.25, 0.5].map(|f| d.join_node(Key::from_fraction(f)));
    d.wait_stable();
    wait_until("the old owners have ceded their lower halves", || {
        olds.iter().zip(joiners).all(|(&old, joiner)| {
            d.ops()
                .status_of(old)
                .is_some_and(|s| s.predecessor.map(|p| p.addr) == Some(joiner))
        })
    });
    let key = Key::from_fraction;

    // Serial API, either side of the first split.
    for (key, owner) in [(key(0.2), joiners[0]), (key(0.3), olds[0])] {
        assert_eq!(d.ops().put(key, b"serial".to_vec(), 1).unwrap(), 1);
        assert_eq!(d.ops().get(key, 1).unwrap(), b"serial");
        assert_eq!(held_by(&d, owner, key), Some(b"serial".to_vec()));
    }
    let stale = d.ops().cache_stats().stale;
    assert!(stale >= 1);

    // Batch API, either side of the second.
    let batch = [
        (key(0.44), joiners[1]),
        (key(0.56), olds[1]),
        (key(0.46), joiners[1]),
    ];
    let items = batch.map(|(k, _)| (k, b"batch".to_vec())).to_vec();
    let puts = d.ops().put_many(items, 1, cfg(4));
    assert!(puts.iter().all(|p| matches!(p.result, Ok(1))), "{puts:?}");
    for (key, owner) in batch {
        assert_eq!(held_by(&d, owner, key), Some(b"batch".to_vec()));
    }
    let gets = d.ops().get_many(&batch.map(|(k, _)| k), cfg(4));
    for g in &gets {
        assert_eq!(g.result.as_ref().expect("get after split"), b"batch");
    }
    assert!(d.ops().cache_stats().stale > stale);
    d.shutdown();
}

#[test]
fn a_killed_cached_owner_falls_back_to_its_successor() {
    let d = Deployment::launch(4, 2);
    d.wait_stable();
    let key = Key::from_fraction;
    // Both keys belong to the node at 0.625; its successor holds the
    // second copy and takes the range over.
    let items = vec![(key(0.5), b"one".to_vec()), (key(0.6), b"two".to_vec())];
    let keys = [key(0.5), key(0.6)];
    assert!(d
        .ops()
        .put_many(items, 2, cfg(4))
        .iter()
        .all(|p| matches!(p.result, Ok(2))));
    let owner = d.lookup(keys[0]).unwrap().addr;
    let successor = d.ops().status_of(owner).unwrap().successors[0].addr;
    d.kill_node(owner);
    d.wait_stable();

    let gets = d.ops().get_many(&keys, cfg(4));
    assert_eq!(gets[0].result.as_ref().expect("get after kill"), b"one");
    assert_eq!(gets[1].result.as_ref().expect("get after kill"), b"two");
    assert!(d.ops().cache_stats().stale >= 1);
    assert_eq!(d.lookup(keys[0]).unwrap().addr, successor);
    let puts = d
        .ops()
        .put_many(vec![(key(0.55), b"three".to_vec())], 2, cfg(4));
    assert!(matches!(puts[0].result, Ok(2)), "{puts:?}");
    assert_eq!(held_by(&d, successor, key(0.55)), Some(b"three".to_vec()));
    d.shutdown();
}

#[test]
fn only_a_head_of_chain_put_for_an_unowned_key_is_refused() {
    let d = Deployment::launch(3, 2);
    d.wait_stable();
    let key = Key::from_fraction(0.4);
    let owner = d.lookup(key).unwrap().addr;
    let other = d.ops().status_of(owner).unwrap().successors[0].addr;
    let put = |stored: u32| Request::Put {
        key,
        fanout: 0,
        stored,
        data: b"block".to_vec(),
    };

    // The head of a chain is refused and nothing is stored: the node
    // still has no block to serve, and says whose fault that is.
    assert_eq!(call(&d, other, put(0)), Response::NotOwner);
    assert_eq!(call(&d, other, Request::Get { key }), Response::NotOwner);
    assert_eq!(d.scrape().merged.counter("node.not_owner"), 2);

    // A chained put lands on a replica, which never owns the key.
    assert_eq!(call(&d, other, put(1)), Response::PutAck { replicas: 2 });
    assert_eq!(held_by(&d, other, key), Some(b"block".to_vec()));
    // The repair path re-homes it: the holder looks the owner up and
    // sends it a head-of-chain put, which the owner accepts.
    wait_until("repair has re-homed the block", || {
        held_by(&d, owner, key).is_some()
    });
    d.shutdown();
}
