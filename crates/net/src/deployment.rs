//! An in-process cluster: N nodes on one [`Host`] over a
//! [`ChannelHub`], plus a [`ClusterOps`] client on the same hub.
//!
//! Deterministic, no sockets — what the unit tests, the examples and
//! the benchmark's wire-free probe use. Client operations round-robin
//! over the live nodes — the bootstrap node is only special as the
//! *join seed*, not as a read path.

use crate::host::Host;
use crate::ops::{ClusterOps, ClusterScrape, NodeStatus};
use crate::runtime::NodeSpec;
use d2_ec::RedundancyPolicy;
use d2_ring::messages::{Addr, PeerInfo};
use d2_types::{Key, Result};
use d2_wire::client::WireClient;
use d2_wire::lock;
use d2_wire::metrics::NetMetrics;
use d2_wire::transport::{ChannelHub, ChannelTransport, Transport};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A running in-process cluster.
pub struct Deployment {
    hub: ChannelHub,
    host: Host<ChannelTransport>,
    ops: ClusterOps<ChannelTransport>,
    /// What every node shares (the whole cluster must agree on the
    /// redundancy policy), placed per node with [`NodeSpec::at`].
    template: NodeSpec,
    seed: Addr,
    nodes: Mutex<Vec<Addr>>,
}

/// `n` evenly spaced ring positions (deterministic placement keeps the
/// examples reproducible).
fn evenly_spaced(n: usize) -> Vec<Key> {
    (0..n)
        .map(|i| Key::from_fraction((i as f64 + 0.5) / n as f64))
        .collect()
}

/// Opens the hub's next endpoint and starts the node `spec` on it.
fn start_node(hub: &ChannelHub, host: &Host<ChannelTransport>, spec: NodeSpec) -> Addr {
    let transport = hub.open();
    let addr = transport.local_addr();
    host.add(spec, transport);
    addr
}

impl Deployment {
    /// Launches `n` nodes with `replicas` copies per block. Node 0
    /// bootstraps the ring; the rest join through it at evenly spaced
    /// positions (use [`Deployment::launch_at`] for custom positions).
    pub fn launch(n: usize, replicas: usize) -> Deployment {
        Self::launch_at(&evenly_spaced(n), replicas)
    }

    /// Launches `n` nodes storing blocks as erasure-coded fragments
    /// (`k` of `group` reconstruct) instead of whole-block replicas,
    /// with lazy repair throttled to `repair_budget_bps` bytes/second
    /// per node (0 = unlimited). Placement is the same evenly spaced
    /// ring as [`Deployment::launch`].
    pub fn launch_ec(n: usize, k: usize, group: usize, repair_budget_bps: u64) -> Deployment {
        let template = NodeSpec {
            id: Key::MIN,
            seed: None,
            redundancy: RedundancyPolicy::ErasureCode { k, n: group },
            repair_budget_bps,
        };
        Self::launch_with(&evenly_spaced(n), template)
    }

    /// Launches one node per ring position in `ids`. Nodes get
    /// addresses `0..n`; the client endpoint gets `n`.
    pub fn launch_at(ids: &[Key], replicas: usize) -> Deployment {
        Self::launch_with(ids, NodeSpec::replicated(replicas as u32))
    }

    fn launch_with(ids: &[Key], template: NodeSpec) -> Deployment {
        assert!(!ids.is_empty(), "need at least one node");
        let metrics = Arc::new(NetMetrics::new());
        let hub = ChannelHub::new(Arc::clone(&metrics));
        let host = Host::start(Arc::clone(&metrics), None).expect("spawn the host thread");
        let mut nodes: Vec<Addr> = Vec::with_capacity(ids.len());
        for &id in ids {
            let seed = nodes.first().copied();
            nodes.push(start_node(&hub, &host, template.at(id, seed)));
        }
        let client = WireClient::new(hub.open(), metrics);
        Deployment {
            hub,
            host,
            ops: ClusterOps::new(client, nodes.clone()),
            template,
            seed: nodes[0],
            nodes: Mutex::new(nodes),
        }
    }

    /// Joins a brand-new node at ring position `id` through the seed,
    /// returning its address. The ring absorbs it over the next few
    /// stabilization rounds ([`Deployment::wait_stable`] blocks until
    /// then).
    pub fn join_node(&self, id: Key) -> Addr {
        let spec = self.template.at(id, Some(self.seed));
        let addr = start_node(&self.hub, &self.host, spec);
        lock(&self.nodes).push(addr);
        self.refresh_entries();
        addr
    }

    /// Kills node `addr` abruptly (crash-stop): no goodbye traffic, and
    /// sends to it fail fast from the moment this returns. Peers detect
    /// the death through those failed sends and stabilization repairs
    /// the ring. The seed node must stay alive (it is the join entry
    /// point).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is the seed or not a live node.
    pub fn kill_node(&self, addr: Addr) {
        assert!(addr != self.seed, "the seed node must stay alive");
        {
            let mut nodes = lock(&self.nodes);
            let i = nodes
                .iter()
                .position(|&a| a == addr)
                .unwrap_or_else(|| panic!("no live node at addr {addr}"));
            nodes.remove(i);
        }
        self.refresh_entries();
        self.host.crash(addr);
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        lock(&self.nodes).len()
    }

    /// Whether the deployment has no nodes (never true before
    /// [`Deployment::shutdown`]).
    pub fn is_empty(&self) -> bool {
        lock(&self.nodes).is_empty()
    }

    /// Addresses of all live nodes.
    pub fn live_addrs(&self) -> Vec<Addr> {
        lock(&self.nodes).clone()
    }

    fn refresh_entries(&self) {
        self.ops.set_entries(self.live_addrs());
    }

    /// Client operations against this cluster (shared with the
    /// `d2-node` CLI and integration tests).
    pub fn ops(&self) -> &ClusterOps<ChannelTransport> {
        &self.ops
    }

    /// Scrapes every live node's registry and flight recorder over the
    /// wire and merges them into the cluster view (see
    /// [`ClusterOps::scrape`]).
    pub fn scrape(&self) -> ClusterScrape {
        self.ops.scrape(&self.live_addrs())
    }

    /// Blocks until the live nodes pass the ring-invariant suite
    /// ([`ClusterOps::wait_ring_ok`]).
    ///
    /// # Panics
    ///
    /// Panics with the violations if the ring has not converged within
    /// 50 seconds: a wedged topology and a merely-slow one need
    /// different fixes.
    pub fn wait_stable(&self) {
        let live = self.live_addrs();
        if let Err(report) = self.ops.wait_ring_ok(&live, Duration::from_secs(50)) {
            panic!(
                "ring failed to stabilize; {}/{} statuses, violations:\n  {}",
                report.nodes,
                live.len(),
                report.violations.join("\n  ")
            );
        }
    }

    /// Locates the owner of `key` via a real recursive lookup, entering
    /// through the live nodes in round-robin order.
    pub fn lookup(&self, key: Key) -> Result<PeerInfo> {
        self.ops.lookup(key)
    }

    /// Stores a block on the owner and its successors. Returns once the
    /// whole replica chain has acked — no settling time needed before
    /// reads.
    pub fn put(&self, key: Key, data: Vec<u8>) -> Result<()> {
        self.ops.put(key, data, self.group_size()).map(|_| ())
    }

    /// Fetches a block from the owner (falling back to its successors).
    pub fn get(&self, key: Key) -> Result<Vec<u8>> {
        self.ops.get(key, self.group_size())
    }

    /// The policy's group size: a put's chain length, and a get's probe
    /// depth, which covers the whole fragment group when the owner is
    /// down.
    fn group_size(&self) -> usize {
        self.template.redundancy.group_size()
    }

    /// Snapshot of every reachable live node's view.
    pub fn statuses(&self) -> Vec<NodeStatus> {
        self.live_addrs()
            .into_iter()
            .filter_map(|a| self.ops.status_of(a))
            .collect()
    }

    /// Stops the host and with it every node. Idempotent.
    pub fn shutdown(&self) {
        self.host.stop();
        lock(&self.nodes).clear();
        self.refresh_entries();
    }
}
