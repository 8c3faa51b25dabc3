//! End-to-end integration: the full stack (fs → store → ring → sim)
//! working together on a simulated cluster, under all three systems.

use d2::core::cluster::PROBE_INTERVAL;
use d2::core::{ClusterConfig, SimCluster, SystemKind};
use d2::sim::SimTime;
use d2::types::D2Error;

fn all_systems() -> [SystemKind; 3] {
    [
        SystemKind::D2,
        SystemKind::Traditional,
        SystemKind::TraditionalFile,
    ]
}

#[test]
fn volume_lifecycle_on_cluster() {
    for system in all_systems() {
        let cfg = ClusterConfig {
            nodes: 24,
            replicas: 3,
            seed: 9,
            ..Default::default()
        };
        let mut cluster = SimCluster::new(system, &cfg);
        cluster.create_volume("vol");
        // A mixed tree: inline, single-block, and multi-block files.
        cluster.write_file("vol", "/etc/motd", b"tiny");
        cluster.write_file("vol", "/bin/tool", &vec![1u8; 6_000]);
        cluster.write_file("vol", "/data/big", &vec![2u8; 50_000]);
        cluster.flush();

        assert_eq!(cluster.read_file("vol", "/etc/motd").unwrap(), b"tiny");
        assert_eq!(
            cluster.read_file("vol", "/bin/tool").unwrap(),
            vec![1u8; 6_000]
        );
        assert_eq!(
            cluster.read_file("vol", "/data/big").unwrap(),
            vec![2u8; 50_000]
        );
        assert!(matches!(
            cluster.read_file("vol", "/missing"),
            Err(D2Error::NoSuchPath(_))
        ));
    }
}

#[test]
fn data_survives_minority_failures() {
    let cfg = ClusterConfig {
        nodes: 30,
        replicas: 3,
        seed: 4,
        ..Default::default()
    };
    let mut cluster = SimCluster::new(SystemKind::D2, &cfg);
    cluster.create_volume("v");
    for i in 0..10 {
        cluster.write_file("v", &format!("/dir/file{i}"), &vec![i as u8; 12_000]);
    }
    cluster.flush();

    // Kill 5 nodes, each the currently busiest, so every failure is
    // guaranteed to hit live data regardless of where the RNG placed
    // the node IDs (D2 concentrates a volume on few nodes — scattered
    // victims can miss it entirely). Failures are spaced out, so
    // regeneration restores full replication between kills.
    for k in 0..5u64 {
        let nodes = cluster.ring.nodes();
        let loads = cluster.total_load_blocks();
        let victim = nodes
            .iter()
            .zip(&loads)
            .max_by_key(|(_, &l)| l)
            .map(|(&n, _)| n)
            .expect("cluster has nodes");
        cluster.now = SimTime::from_secs(600 * (k + 1));
        let now = cluster.now;
        cluster.node_down(victim, now);
    }

    for i in 0..10 {
        let data = cluster.read_file("v", &format!("/dir/file{i}")).unwrap();
        assert_eq!(data, vec![i as u8; 12_000], "file {i} lost after failures");
    }
    assert!(
        cluster.stats.regenerated_blocks > 0,
        "failures should trigger regeneration"
    );
}

#[test]
fn balancing_preserves_fs_readability() {
    let cfg = ClusterConfig {
        nodes: 16,
        replicas: 3,
        seed: 12,
        ..Default::default()
    };
    let mut cluster = SimCluster::new(SystemKind::D2, &cfg);
    cluster.create_volume("v");
    // Write enough clustered data to trigger real balancing.
    for i in 0..40 {
        cluster.write_file("v", &format!("/proj/src/mod{i}.rs"), &vec![7u8; 16_000]);
    }
    cluster.flush();

    let mut now = SimTime::ZERO;
    for _ in 0..30 {
        now += PROBE_INTERVAL;
        cluster.run_balance_round(now, false);
        cluster.resolve_stale_pointers(now);
    }
    cluster.now = now;
    assert!(
        cluster.stats.balance_moves > 0,
        "skewed data should force moves"
    );

    for i in 0..40 {
        let data = cluster
            .read_file("v", &format!("/proj/src/mod{i}.rs"))
            .unwrap();
        assert_eq!(
            data,
            vec![7u8; 16_000],
            "file {i} unreadable after balancing"
        );
    }
}

#[test]
fn rename_and_overwrite_through_the_full_stack() {
    let cfg = ClusterConfig {
        nodes: 12,
        replicas: 3,
        seed: 3,
        ..Default::default()
    };
    let mut cluster = SimCluster::new(SystemKind::D2, &cfg);
    cluster.create_volume("v");
    cluster.write_file("v", "/a/orig.bin", &vec![1u8; 20_000]);
    cluster.flush();

    // Rename keeps the original keys; only metadata republishes.
    {
        let bytes_before = cluster.stats.write_bytes;
        // Access the volume's Fs through the public facade: re-write under
        // the new path by rename is not exposed on SimCluster, so emulate
        // a user-level move: read, write to the new path, delete the old.
        let data = cluster.read_file("v", "/a/orig.bin").unwrap();
        cluster.write_file("v", "/b/moved.bin", &data);
        cluster.flush();
        assert!(cluster.stats.write_bytes > bytes_before);
    }
    assert_eq!(
        cluster.read_file("v", "/b/moved.bin").unwrap(),
        vec![1u8; 20_000]
    );

    // Overwrite: new version readable, write traffic accounted.
    cluster.now = SimTime::from_secs(120);
    cluster.write_file("v", "/b/moved.bin", &vec![9u8; 8_000]);
    cluster.flush();
    assert_eq!(
        cluster.read_file("v", "/b/moved.bin").unwrap(),
        vec![9u8; 8_000]
    );
}

#[test]
fn d2_concentrates_a_volume_traditional_scatters_it() {
    let mut spread = Vec::new();
    for system in [SystemKind::D2, SystemKind::Traditional] {
        let cfg = ClusterConfig {
            nodes: 40,
            replicas: 3,
            seed: 5,
            ..Default::default()
        };
        let mut cluster = SimCluster::new(system, &cfg);
        cluster.create_volume("v");
        for i in 0..12 {
            cluster.write_file("v", &format!("/docs/ch{i}.txt"), &vec![3u8; 24_000]);
        }
        cluster.flush();
        let busy = cluster
            .total_load_blocks()
            .iter()
            .filter(|&&l| l > 0)
            .count();
        spread.push(busy);
    }
    assert!(
        spread[0] * 2 <= spread[1],
        "d2 spread {} should be far below traditional {}",
        spread[0],
        spread[1]
    );
}
