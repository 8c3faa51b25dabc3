//! A whole simulated DHT system under one roof.
//!
//! [`SimCluster`] combines the ring, one [`NodeStore`] per node, the
//! router, and explicit replica maintenance into the object the paper's
//! simulators manipulate. It enforces the placement invariant — every
//! block lives on the `r` live successors of its key — across writes,
//! removals, node failures/recoveries, and load-balance moves, charging
//! migration bytes (against the 750 kbps per-node budget of Section 8.1)
//! whenever repairing the invariant requires copying data, and using
//! **block pointers** (Section 6) to defer copies caused by load
//! balancing.
//!
//! The same object doubles as a [`BlockIo`] backend, so a full `d2-fs`
//! volume can run on top of a simulated cluster (see the facade crate's
//! quickstart).

use crate::config::ClusterConfig;
use d2_fs::{BlockIo, Fs, FsConfig, VolumeReader};
use d2_obs::{MigrationKind, SharedSink, TraceEvent};
use d2_ring::balance::{self, BalanceOp, LoadView};
use d2_ring::{NodeIdx, Ring};
use d2_sim::net::LinkState;
use d2_sim::{normalized_std_dev, SimTime};
use d2_store::{NodeStore, Payload};
use d2_types::{BlockName, D2Error, InlineVec, Key, Result, SystemKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

/// Traffic and event counters for a cluster's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Bytes written by users (each block counted once per write, not per
    /// replica — matching the paper's per-node write-traffic accounting).
    pub write_bytes: u64,
    /// Bytes migrated to maintain load balance and replication.
    pub migration_bytes: u64,
    /// Bytes of blocks scheduled for removal.
    pub removed_bytes: u64,
    /// Load-balance ID changes performed.
    pub balance_moves: u64,
    /// Block pointers installed instead of immediate copies.
    pub pointers_installed: u64,
    /// Pointers later resolved into real copies.
    pub pointers_resolved: u64,
    /// Blocks regenerated after failures.
    pub regenerated_blocks: u64,
    /// Writes diverted away from full nodes via pointers (Section 6).
    pub diverted_writes: u64,
    /// Crash repairs deferred behind the failure-detection delay.
    pub deferred_repairs: u64,
    /// Deferred repairs whose detection timeout has since fired.
    pub observed_failures: u64,
    /// Bytes spent regenerating erasure fragments from the lazy repair
    /// queue (a subset of `migration_bytes`).
    pub repair_bytes: u64,
    /// Repair bytes deferred because a node's repair budget was empty
    /// (the same key may be counted again on a later throttled round).
    pub repair_throttled_bytes: u64,
    /// Repairs skipped because enough fragments survived (lazy repair's
    /// whole point: a loss above the threshold `m` costs nothing).
    pub repairs_skipped_lazy: u64,
}

/// Why a replica-group repair is running — decides whether the balance
/// mover may defer its copies with pointers, and how transfers are
/// accounted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SyncCtx {
    /// Repair after a load-balance move; `mover` may use pointers.
    Balance {
        /// The node whose ID changed.
        mover: NodeIdx,
    },
    /// Ordinary replica maintenance (failures, recoveries, periodic).
    Repair,
}

/// What one holder stores for a key, as far as placement decisions care:
/// one index entry and one store read (see [`SimCluster::copies_of`]).
#[derive(Clone, Copy, Debug, Default)]
struct HeldCopy {
    node: NodeIdx,
    /// `(target, since)` when the copy is a pointer, `None` for real data.
    pointer: Option<(NodeIdx, SimTime)>,
    stored_at: SimTime,
}

impl HeldCopy {
    fn of(node: NodeIdx, payload: &Payload, stored_at: SimTime) -> HeldCopy {
        let pointer = match *payload {
            Payload::Pointer { holder, since, .. } => Some((NodeIdx(holder), since)),
            _ => None,
        };
        HeldCopy {
            node,
            pointer,
            stored_at,
        }
    }

    fn points_at(&self, node: NodeIdx) -> bool {
        matches!(self.pointer, Some((target, _)) if target == node)
    }
}

/// A simulated cluster running one of the three systems.
#[derive(Clone, Debug)]
pub struct SimCluster {
    /// Which system this cluster runs.
    pub system: SystemKind,
    /// Configuration in effect.
    pub cfg: ClusterConfig,
    /// Ring membership (only *live* nodes are in the ring).
    pub ring: Ring,
    /// Per-node block stores (indexed by `NodeIdx.0`; contents persist
    /// across downtime, as disks do).
    pub stores: Vec<NodeStore>,
    /// Whether each node is currently up.
    pub node_up: Vec<bool>,
    /// Per-node migration/regeneration links (750 kbps by default).
    migration_links: Vec<LinkState>,
    /// Which nodes hold an entry (data or pointer) for each key.
    index: HashMap<Key, Vec<u32>>,
    /// Block sizes (logical, independent of holders).
    sizes: HashMap<Key, u32>,
    /// Lifetime counters.
    pub stats: ClusterStats,
    /// Deterministic randomness for probes and placement.
    pub rng: StdRng,
    /// Current virtual time (advanced by drivers).
    pub now: SimTime,
    /// Hashed twin key per block under hybrid placement (Section 11).
    twins: HashMap<Key, Key>,
    /// The set of twin keys (so repairs use the safeguard group size).
    twin_set: HashSet<Key>,
    /// In-flight migration/regeneration transfers: `(dst, key)` →
    /// `(src, completion)`. A transfer is cancelled (and the destination
    /// copy dropped) if its source dies before completion — without this,
    /// simultaneous whole-group failures would never lose data.
    inflight: HashMap<(usize, Key), (usize, SimTime)>,
    /// Crash repairs waiting out the failure-detection delay: `(when the
    /// survivors notice, keys the dead node held)`. Empty whenever
    /// `cfg.failure_detection` is zero (synchronous repair).
    pending_repairs: Vec<(SimTime, Vec<Key>)>,
    /// Lazy erasure-repair queue: keys whose surviving fragment count
    /// dropped below the repair threshold `m`, waiting for budget.
    /// Ordered (BTreeSet) so draining is deterministic. Always empty
    /// under replication, which repairs eagerly.
    repair_queue: std::collections::BTreeSet<Key>,
    /// Per-node repair token buckets (bytes), refilled at
    /// `cfg.repair_budget_bps` by [`SimCluster::run_repair_round`].
    repair_tokens: Vec<u64>,
    /// When the repair buckets were last refilled.
    last_repair_refill: SimTime,
    volumes: HashMap<String, Fs>,
    /// Trace sink for migration/repair/balance events (null by default).
    obs: SharedSink,
}

impl SimCluster {
    /// Builds a cluster of `cfg.nodes` nodes at uniformly random ring
    /// positions (consistent hashing — D2's balancer moves them later).
    pub fn new(system: SystemKind, cfg: &ClusterConfig) -> SimCluster {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut ring = Ring::new();
        for _ in 0..cfg.nodes {
            let idx = ring.add_offline_node();
            loop {
                let id = Key::random(&mut rng);
                if ring.add_node_at(idx, id) {
                    break;
                }
            }
        }
        SimCluster {
            system,
            cfg: *cfg,
            stores: vec![NodeStore::new(); ring.capacity()],
            node_up: vec![true; ring.capacity()],
            migration_links: vec![LinkState::new_kbps(cfg.migration_kbps); ring.capacity()],
            index: HashMap::new(),
            sizes: HashMap::new(),
            stats: ClusterStats::default(),
            rng,
            now: SimTime::ZERO,
            twins: HashMap::new(),
            twin_set: HashSet::new(),
            inflight: HashMap::new(),
            pending_repairs: Vec::new(),
            repair_queue: std::collections::BTreeSet::new(),
            repair_tokens: vec![0; ring.capacity()],
            last_repair_refill: SimTime::ZERO,
            ring,
            volumes: HashMap::new(),
            obs: SharedSink::null(),
        }
    }

    /// Attaches a trace sink: balance moves, migration transfers, and
    /// pointer resolutions are recorded into it from now on. Pass a clone
    /// of a [`SharedSink`] to share one buffer with other components.
    pub fn set_trace_sink(&mut self, sink: SharedSink) {
        self.obs = sink;
    }

    /// The cluster's trace sink (null unless attached).
    pub fn trace_sink(&self) -> &SharedSink {
        &self.obs
    }

    /// Number of nodes (live or not).
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// Number of distinct blocks tracked.
    pub fn block_count(&self) -> usize {
        self.sizes.len()
    }

    // ---- low-level bookkeeping (keeps index and stores in sync) ----------

    /// Stores `payload` on `node` and returns the copy as a reader of the
    /// key now finds it.
    fn store_put(&mut self, node: NodeIdx, key: Key, payload: Payload, at: SimTime) -> HeldCopy {
        let copy = HeldCopy::of(node, &payload, at);
        let holders = self.index.entry(key).or_default();
        if !holders.contains(&(node.0 as u32)) {
            holders.push(node.0 as u32);
        }
        self.stores[node.0].put(key, payload, at);
        copy
    }

    /// Leaves a block pointer (Section 6) on `node` at `at`: the bytes
    /// stay on `target`, owed since `since`.
    fn put_pointer(
        &mut self,
        node: NodeIdx,
        key: Key,
        target: NodeIdx,
        since: SimTime,
        len: u32,
        at: SimTime,
    ) -> HeldCopy {
        let holder = target.0;
        self.store_put(node, key, Payload::Pointer { holder, since, len }, at)
    }

    fn store_remove(&mut self, node: NodeIdx, key: &Key) {
        if let Some(holders) = self.index.get_mut(key) {
            holders.retain(|&h| h != node.0 as u32);
            if holders.is_empty() {
                self.index.remove(key);
            }
        }
        self.stores[node.0].remove_now(key);
    }

    /// The nodes holding an entry (data or pointer) for `key`. Called
    /// once per block access in the simulators' innermost loops, so the
    /// list is returned inline (replica groups are ≤ 8 nodes in every
    /// configuration; larger holder sets spill to the heap safely).
    pub fn holders_of(&self, key: &Key) -> InlineVec<NodeIdx, 8> {
        self.index
            .get(key)
            .map(|v| v.iter().map(|&h| NodeIdx(h as usize)).collect())
            .unwrap_or_default()
    }

    /// Each holder's copy of `key`, in index order: the index is read
    /// once and each holder's store once.
    fn copies_of<'a>(&'a self, key: &'a Key) -> impl Iterator<Item = HeldCopy> + 'a {
        self.index.get(key).into_iter().flatten().filter_map(|&h| {
            let node = NodeIdx(h as usize);
            let block = self.stores[node.0].get(key)?;
            Some(HeldCopy::of(node, &block.payload, block.stored_at))
        })
    }

    /// Whether `copy` can seed or serve a read at `now`: real data that
    /// has arrived, on a live node.
    fn is_live_data(&self, copy: &HeldCopy, now: SimTime) -> bool {
        self.node_up[copy.node.0] && copy.pointer.is_none() && copy.stored_at <= now
    }

    /// A live node holding *real data* for `key`, arrived by `now`.
    fn live_data_holder(&self, key: &Key, now: SimTime) -> Option<NodeIdx> {
        self.copies_of(key)
            .find(|c| self.is_live_data(c, now))
            .map(|c| c.node)
    }

    // ---- redundancy helpers -------------------------------------------------

    /// Bytes each group member stores for a block of `len` bytes: the full
    /// block under replication, `len/k` under k-of-n erasure coding.
    fn stored_len(&self, len: u32) -> u32 {
        let policy = self.cfg.redundancy_policy();
        if policy.is_erasure() {
            (policy.stored_len(len as u64) as u32).max(1)
        } else {
            len
        }
    }

    /// Reachable copies required to read a block (1 replica, or k erasure
    /// fragments).
    fn min_live(&self) -> usize {
        self.cfg.redundancy_policy().min_fragments()
    }

    /// Consecutive successors a block occupies: `r` copies, or `n`
    /// erasure fragments.
    fn group_size(&self) -> usize {
        self.cfg.redundancy_policy().group_size()
    }

    /// The payload group member `position` stores for a `frag`-byte
    /// share: a fragment (carrying its code-word index) under erasure
    /// coding, a plain size placeholder under replication.
    fn member_payload(&self, position: usize, frag: u32) -> Payload {
        if self.cfg.redundancy_policy().is_erasure() {
            Payload::Fragment {
                index: position as u8,
                generation: 0,
                len: frag,
            }
        } else {
            Payload::Size(frag)
        }
    }

    /// The hashed twin key for hybrid replica placement.
    fn twin_key(key: &Key) -> Key {
        let h1 = d2_types::sha256(key.as_bytes());
        let mut buf = [0u8; 33];
        buf[..32].copy_from_slice(h1.as_bytes());
        buf[32] = 0x77;
        let h2 = d2_types::sha256(&buf);
        let mut b = [0u8; 64];
        b[..32].copy_from_slice(h1.as_bytes());
        b[32..].copy_from_slice(h2.as_bytes());
        Key::from_bytes(b)
    }

    // ---- block operations --------------------------------------------------

    /// Writes a block of `len` bytes: stored on the `r` live successors of
    /// `key` (fragments under erasure coding), plus hashed-twin safeguard
    /// replicas when hybrid placement is on. Counts `len` toward user
    /// write traffic once.
    pub fn put_block(&mut self, key: Key, len: u32, now: SimTime) {
        self.stats.write_bytes += len as u64;
        self.sizes.insert(key, len);
        let frag = self.stored_len(len);
        // Drop any stale copies from previous versions at other nodes.
        for old in self.holders_of(&key) {
            self.store_remove(old, &key);
        }
        let group = self.ring.replica_group(&key, self.group_size());
        for (pos, node) in group.into_iter().enumerate() {
            let payload = self.member_payload(pos, frag);
            self.put_or_divert(node, key, payload, now);
        }
        if self.cfg.hybrid_hash_replicas > 0 {
            let twin = Self::twin_key(&key);
            self.twins.insert(key, twin);
            self.twin_set.insert(twin);
            self.sizes.insert(twin, len);
            for old in self.holders_of(&twin) {
                self.store_remove(old, &twin);
            }
            for node in self
                .ring
                .replica_group(&twin, self.cfg.hybrid_hash_replicas)
            {
                self.store_put(node, twin, Payload::Size(frag), now);
            }
        }
    }

    /// Writes a block with real contents (FS-backed clusters).
    pub fn put_block_data(&mut self, key: Key, data: Vec<u8>, now: SimTime) {
        let len = data.len() as u32;
        self.stats.write_bytes += len as u64;
        self.sizes.insert(key, len);
        for old in self.holders_of(&key) {
            self.store_remove(old, &key);
        }
        for node in self.ring.replica_group(&key, self.group_size()) {
            self.store_put(node, key, Payload::Data(data.clone()), now);
        }
    }

    /// Stores a replica at `node`, or — if that would overflow its
    /// capacity — diverts the bytes to the nearest successor with space,
    /// leaving a pointer on the full node (Section 6 / PAST). The full
    /// node sheds load at its next balance move, so the indirection is
    /// temporary.
    fn put_or_divert(&mut self, node: NodeIdx, key: Key, payload: Payload, now: SimTime) {
        let frag = payload.len();
        let Some(cap) = self.cfg.node_capacity_bytes else {
            self.store_put(node, key, payload, now);
            return;
        };
        let fits = |s: &Self, n: NodeIdx| s.stores[n.0].data_bytes() + frag as u64 <= cap;
        if fits(self, node) {
            self.store_put(node, key, payload, now);
            return;
        }
        // Walk successors for a node with space (skipping existing
        // holders); give up after one lap and store over-capacity (better
        // full than lost).
        let mut candidate = self.ring.successor(node);
        for _ in 0..self.ring.len() {
            let Some(c) = candidate else { break };
            if c == node {
                break;
            }
            if !self.stores[c.0].contains(&key) && fits(self, c) {
                self.store_put(c, key, payload, now);
                self.put_pointer(node, key, c, now, frag, now);
                self.stats.diverted_writes += 1;
                return;
            }
            candidate = self.ring.successor(c);
        }
        self.store_put(node, key, payload, now);
    }

    /// Removes a block (and its hybrid twin) from every holder after the
    /// removal delay. (The simulation applies it immediately to the index
    /// but respects the delay inside each store for stale readers.)
    pub fn remove_block(&mut self, key: &Key, now: SimTime) {
        if let Some(len) = self.sizes.remove(key) {
            self.stats.removed_bytes += len as u64;
        }
        for node in self.holders_of(key) {
            self.stores[node.0].remove_after(key, now, self.cfg.remove_delay);
        }
        // After the delay the blocks are gone; drop them from the index now
        // (availability checks for removed blocks are not meaningful).
        for node in self.holders_of(key) {
            self.store_remove(node, key);
        }
        if let Some(twin) = self.twins.remove(key) {
            self.twin_set.remove(&twin);
            self.sizes.remove(&twin);
            for node in self.holders_of(&twin) {
                self.store_remove(node, &twin);
            }
        }
    }

    /// Reachable copies of `key` at `now`: live nodes with arrived
    /// non-pointer data, plus live pointers leading to such data.
    fn reachable_copies(&self, key: &Key, now: SimTime) -> usize {
        let copies: InlineVec<HeldCopy, 8> = self.copies_of(key).collect();
        copies
            .iter()
            .filter(|c| match c.pointer {
                Some((target, _)) => {
                    self.node_up[c.node.0]
                        && copies
                            .iter()
                            .any(|t| t.node == target && self.is_live_data(t, now))
                }
                None => self.is_live_data(c, now),
            })
            .count()
    }

    /// Whether `key` can be read at `now`: at least one replica (or `k`
    /// erasure fragments) reachable, or — under hybrid placement — its
    /// hashed twin is.
    pub fn is_available(&self, key: &Key, now: SimTime) -> bool {
        if self.reachable_copies(key, now) >= self.min_live() {
            return true;
        }
        match self.twins.get(key) {
            Some(twin) => self.reachable_copies(twin, now) >= self.min_live(),
            None => false,
        }
    }

    /// Bulk-loads an initial data set without counting user write traffic
    /// (the paper initializes each simulation by inserting the trace-start
    /// file system, then lets positions stabilize).
    pub fn preload<I: IntoIterator<Item = (Key, u32)>>(&mut self, blocks: I) {
        for (key, len) in blocks {
            self.sizes.insert(key, len);
            let frag = self.stored_len(len);
            let group = self.ring.replica_group(&key, self.group_size());
            for (pos, node) in group.into_iter().enumerate() {
                let payload = self.member_payload(pos, frag);
                self.store_put(node, key, payload, SimTime::ZERO);
            }
            if self.cfg.hybrid_hash_replicas > 0 {
                let twin = Self::twin_key(&key);
                self.twins.insert(key, twin);
                self.twin_set.insert(twin);
                self.sizes.insert(twin, len);
                for node in self
                    .ring
                    .replica_group(&twin, self.cfg.hybrid_hash_replicas)
                {
                    self.store_put(node, twin, Payload::Size(frag), SimTime::ZERO);
                }
            }
        }
    }

    // ---- load, balance ------------------------------------------------------

    /// Primary load (blocks in own range) of each *live* node.
    pub fn primary_loads(&self) -> Vec<u64> {
        self.ring
            .nodes()
            .into_iter()
            .map(|n| {
                self.ring
                    .range_of(n)
                    .map(|r| self.stores[n.0].count_in(&r))
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Total storage load (all blocks held, bytes) of each live node.
    pub fn total_load_bytes(&self) -> Vec<u64> {
        self.ring
            .nodes()
            .into_iter()
            .map(|n| self.stores[n.0].bytes())
            .collect()
    }

    /// Total storage load in blocks of each live node.
    pub fn total_load_blocks(&self) -> Vec<u64> {
        self.ring
            .nodes()
            .into_iter()
            .map(|n| self.stores[n.0].len() as u64)
            .collect()
    }

    /// Normalized standard deviation of total per-node byte load
    /// (Figures 16–17's metric).
    pub fn imbalance(&self) -> f64 {
        normalized_std_dev(&self.total_load_bytes())
    }

    /// One load-balancing round (every live node probes once). Only has an
    /// effect for systems with active balancing unless `force` is set
    /// (Traditional+Merc runs a traditional DHT *with* the balancer).
    pub fn run_balance_round(&mut self, now: SimTime, force: bool) -> usize {
        if !force && !self.system.balances_actively() {
            return 0;
        }
        use rand::seq::SliceRandom;
        let mut nodes = self.ring.nodes();
        nodes.shuffle(&mut self.rng);
        let mut moves = 0;
        for prober in nodes {
            if !self.ring.contains(prober) {
                continue;
            }
            let Some(target) = self.ring.random_node(&mut self.rng) else {
                continue;
            };
            let view = Loads {
                ring: &self.ring,
                stores: &self.stores,
            };
            let Some(op) = balance::probe(&self.ring, &view, prober, target, &self.cfg.balance)
            else {
                continue;
            };
            if !balance::apply_to_ring(&mut self.ring, &op) {
                continue;
            }
            self.obs.record_with(|| TraceEvent::BalanceMove {
                t_us: now.as_micros(),
                mover: op.mover().0,
                heavy: op.heavy().0,
            });
            self.apply_balance_data(&op, now);
            moves += 1;
        }
        self.stats.balance_moves += moves as u64;
        moves
    }

    /// Applies the data movement implied by a balance op: the mover takes
    /// over `(pred(heavy), new_id]` via pointers (or copies), and the
    /// blocks it abandoned are re-replicated by their new groups.
    fn apply_balance_data(&mut self, op: &BalanceOp, now: SimTime) {
        let mover = op.mover();
        // Keys whose replica groups may have changed: everything the mover
        // held, plus everything held near its new position.
        let (moved, near) = (&self.stores[mover.0], &self.stores[op.heavy().0]);
        let mut affected = Vec::with_capacity(moved.len() + near.len());
        affected.extend(moved.iter().map(|(k, _)| *k));
        affected.extend(near.iter().map(|(k, _)| *k));
        // Neighborhood of the old position: its old successor now owns the
        // abandoned range; those blocks are already on the successors, but
        // the (r+1)-th node becomes a new group member.
        self.sync_keys(affected, now, SyncCtx::Balance { mover });
    }

    /// The payload to replicate from `source`: real bytes when the source
    /// holds them (FS-backed clusters), a size placeholder otherwise.
    fn copy_payload(&self, source: NodeIdx, key: &Key, len: u32) -> Payload {
        match self.stores[source.0].get(key).map(|b| &b.payload) {
            Some(Payload::Data(d)) => Payload::Data(d.clone()),
            _ => Payload::Size(len),
        }
    }

    /// Recomputes replica groups for `keys` and repairs them: missing
    /// members fetch — except the balance *mover*, which installs pointers
    /// when they are enabled (Section 6: pointers defer only the mover's
    /// copies; ordinary replica maintenance transfers immediately) — then
    /// ex-members release their copies, except ex-members that real
    /// pointers still reference, which keep the data until the pointers
    /// resolve (the paper's "D will ultimately retrieve the actual blocks
    /// from A and delete the pointers").
    fn sync_keys(&mut self, mut keys: Vec<Key>, now: SimTime, ctx: SyncCtx) {
        // Callers gather affected keys from several stores and from hash
        // maps, whose iteration order varies run to run. Transfers queue
        // on per-node migration links, so the processing order decides
        // each copy's completion time: sort so the whole simulation (and
        // any attached trace) is a pure function of the seed.
        keys.sort_unstable();
        keys.dedup();
        let erasure = self.cfg.redundancy_policy().is_erasure();
        let balancing = matches!(ctx, SyncCtx::Balance { .. });
        let mut group = Vec::new();
        // The key's holders as this pass sees them: filled by one read per
        // copy, then kept in step with every `store_put`/`store_remove`
        // below, so no step goes back to the stores to decide.
        let mut copies: Vec<HeldCopy> = Vec::new();
        for key in keys {
            let Some(&len) = self.sizes.get(&key) else {
                continue;
            };
            // Twin (safeguard) blocks use the smaller hybrid group.
            let is_twin = self.twin_set.contains(&key);
            let group_size = if is_twin {
                self.cfg.hybrid_hash_replicas
            } else {
                self.group_size()
            };
            // Per-member bytes: a fragment under erasure coding.
            let frag = self.stored_len(len);
            self.ring.replica_group_into(&key, group_size, &mut group);
            copies.clear();
            copies.extend(self.copies_of(&key));
            // A source must be live with an *arrived* real copy — an
            // in-flight regeneration transfer cannot seed further copies,
            // which is exactly why simultaneous whole-group failures lose
            // data until a member recovers (prefer sources in the group;
            // of equally good ones, the last in index order).
            let live = || copies.iter().filter(|c| self.is_live_data(c, now));
            let source = live().map(|c| c.node).max_by_key(|h| group.contains(h));
            let Some(source) = source else {
                // No reachable copy right now: the block is unavailable
                // until a holder returns (or an in-flight copy arrives and
                // a later resync repairs the group).
                continue;
            };
            // Erasure regeneration decodes from k fragments: with fewer
            // survivors there is nothing to regenerate *from* — leave the
            // remnants alone until a holder returns.
            if !is_twin && erasure && live().count() < self.min_live() {
                continue;
            }
            // 0) Repair broken pointers: a live member whose pointer
            // target died (or dropped the block) re-points at a live
            // holder right away — waiting for the stabilization time
            // would leave the block dark for up to an hour.
            for &member in &group {
                let Some(i) = copies.iter().position(|c| c.node == member) else {
                    continue;
                };
                let Some((target, since)) = copies[i].pointer else {
                    continue;
                };
                if !self.node_up[member.0] {
                    continue;
                }
                let target_ok = self.node_up[target.0]
                    && copies
                        .iter()
                        .any(|t| t.node == target && t.pointer.is_none());
                if !target_ok && source != target {
                    copies[i] = self.put_pointer(member, key, source, since, frag, now);
                }
            }
            // 1) Add missing group members.
            for (pos, &member) in group.iter().enumerate() {
                if !self.node_up[member.0] || copies.iter().any(|c| c.node == member) {
                    continue;
                }
                let is_mover = matches!(ctx, SyncCtx::Balance { mover } if mover == member);
                if is_mover && self.cfg.use_pointers {
                    copies.push(self.put_pointer(member, key, source, now, frag, now));
                    self.stats.pointers_installed += 1;
                } else {
                    // Balance migration ships the member's copy (a single
                    // fragment under erasure); failure regeneration of an
                    // erasure fragment must *reconstruct* from k fragments,
                    // costing a full block's worth of reads.
                    let wire = if balancing { frag } else { len };
                    let done = self.migration_links[member.0].transmit(now, wire as u64);
                    self.stats.migration_bytes += wire as u64;
                    self.obs.record_with(|| TraceEvent::Migration {
                        t_us: now.as_micros(),
                        kind: if balancing {
                            MigrationKind::Balance
                        } else {
                            MigrationKind::Repair
                        },
                        src: source.0,
                        dst: member.0,
                        key: key.to_u64_lossy(),
                        bytes: wire as u64,
                    });
                    if !balancing {
                        self.stats.regenerated_blocks += 1;
                    }
                    let payload = if !is_twin && erasure {
                        // A regenerated fragment takes the member's slot in
                        // the code word, same generation as the survivors.
                        let generation = self.stores[source.0]
                            .get(&key)
                            .map(|b| match b.payload {
                                Payload::Fragment { generation, .. } => generation,
                                _ => 0,
                            })
                            .unwrap_or(0);
                        Payload::Fragment {
                            index: pos as u8,
                            generation,
                            len: frag,
                        }
                    } else {
                        self.copy_payload(source, &key, frag)
                    };
                    copies.push(self.store_put(member, key, payload, done));
                    if done > now {
                        self.inflight.insert((member.0, key), (source.0, done));
                    }
                }
            }
            // 2) Ex-members release: a mere pointer at once, data unless a
            // surviving pointer (a member's) still targets it.
            for c in copies.iter().filter(|c| !group.contains(&c.node)) {
                let referenced = |p: &HeldCopy| group.contains(&p.node) && p.points_at(c.node);
                if c.pointer.is_some() || !copies.iter().any(referenced) {
                    self.store_remove(c.node, &key);
                }
            }
        }
    }

    /// Re-checks the replication invariant for every tracked block —
    /// the periodic repair pass DHT storage layers run. Used by the
    /// availability simulator's maintenance tick so that transfers which
    /// were in flight (and thus unusable as sources) get propagated once
    /// they arrive.
    pub fn resync_all(&mut self, now: SimTime) {
        let keys: Vec<Key> = self.sizes.keys().copied().collect();
        self.sync_keys(keys, now, SyncCtx::Repair);
    }

    /// The cheap periodic repair pass: re-checks only the keys that can
    /// actually need work — those with (recently) in-flight transfers and
    /// those held via pointers — in O(pending + pointers) rather than
    /// O(all blocks). [`SimCluster::resync_all`] remains for full audits.
    pub fn resync_pending(&mut self, now: SimTime) {
        let mut keys: Vec<Key> = self.inflight.keys().map(|&(_, k)| k).collect();
        // Drop records of transfers that have completed.
        self.inflight.retain(|_, &mut (_, done)| done > now);
        for node in 0..self.stores.len() {
            if self.node_up[node] {
                keys.extend(self.stores[node].pointer_keys());
            }
        }
        self.sync_keys(keys, now, SyncCtx::Repair);
    }

    /// Resolves pointers older than the pointer stabilization time: the
    /// pointing node fetches the real block (bandwidth-metered) and drops
    /// the pointer. This is when deferred migration traffic is actually
    /// paid (Section 6).
    pub fn resolve_stale_pointers(&mut self, now: SimTime) -> usize {
        let cutoff = now.saturating_sub(self.cfg.pointer_stabilization);
        let mut resolved = 0;
        for node in 0..self.stores.len() {
            if !self.node_up[node] {
                continue;
            }
            for (key, holder, len) in self.stores[node].stale_pointers(cutoff) {
                // The holder must still have real data (it may itself be a
                // pointer if chains formed; follow one level per round).
                let src = NodeIdx(holder);
                let has_data = self.stores[src.0]
                    .get(&key)
                    .map(|b| !b.payload.is_pointer())
                    .unwrap_or(false);
                if !self.node_up[src.0] || !has_data {
                    // Retarget to any live data holder, keeping it due.
                    if let Some(alt) = self.live_data_holder(&key, now) {
                        self.put_pointer(NodeIdx(node), key, alt, cutoff, len, now);
                    }
                    continue;
                }
                let done = self.migration_links[node].transmit(now, len as u64);
                self.stats.migration_bytes += len as u64;
                self.stats.pointers_resolved += 1;
                self.obs.record_with(|| TraceEvent::Migration {
                    t_us: now.as_micros(),
                    kind: MigrationKind::PointerResolve,
                    src: src.0,
                    dst: node,
                    key: key.to_u64_lossy(),
                    bytes: len as u64,
                });
                let payload = self.copy_payload(src, &key, len);
                self.store_put(NodeIdx(node), key, payload, done);
                if done > now {
                    self.inflight.insert((node, key), (src.0, done));
                }
                resolved += 1;
                // If the source only kept the block to serve this pointer,
                // it can release it now.
                let group_size = if self.twin_set.contains(&key) {
                    self.cfg.hybrid_hash_replicas
                } else {
                    self.group_size()
                };
                let group = self.ring.replica_group(&key, group_size);
                let still_referenced = self.copies_of(&key).any(|c| c.points_at(src));
                if !group.contains(&src) && !still_referenced {
                    self.store_remove(src, &key);
                }
            }
        }
        resolved
    }

    // ---- failures -----------------------------------------------------------

    /// Takes a node down: it leaves the ring; transfers it was sourcing
    /// are cancelled; the shrunken replica groups regenerate their missing
    /// member (bandwidth-metered).
    pub fn node_down(&mut self, node: NodeIdx, now: SimTime) {
        if !self.node_up[node.0] {
            return;
        }
        self.node_up[node.0] = false;
        self.ring.remove_node(node);
        // Cancel incomplete transfers sourced by the dead node, and prune
        // completed records.
        let cancelled: Vec<(usize, Key)> = self
            .inflight
            .iter()
            .filter(|(_, &(src, done))| src == node.0 && done > now)
            .map(|(&k, _)| k)
            .collect();
        self.inflight
            .retain(|_, &mut (src, done)| done > now && src != node.0);
        for (dst, key) in cancelled {
            self.store_remove(NodeIdx(dst), &key);
        }
        if self.ring.is_empty() {
            return;
        }
        // Blocks the downed node held need a replacement replica. With an
        // oracle detector (the default) the survivors repair immediately;
        // with a detection delay the keys sit exposed until the timeout
        // fires (drained by `process_observed_failures`).
        let keys: Vec<Key> = self.stores[node.0].keys_in(&d2_types::KeyRange::full());
        if self.cfg.failure_detection == SimTime::ZERO {
            if self.cfg.redundancy_policy().is_erasure() {
                // Lazy repair: triage into the budgeted queue instead of
                // regenerating at the crash instant.
                self.enqueue_repairs(keys, now);
            } else {
                self.sync_keys(keys, now, SyncCtx::Repair);
            }
        } else {
            self.stats.deferred_repairs += 1;
            self.pending_repairs
                .push((now.saturating_add(self.cfg.failure_detection), keys));
        }
    }

    /// Drains deferred crash repairs whose detection timeout has expired:
    /// the survivors have now *noticed* the death and regenerate the
    /// missing replicas. Returns the number of crashes processed. A no-op
    /// unless [`ClusterConfig::failure_detection`] is positive.
    pub fn process_observed_failures(&mut self, now: SimTime) -> usize {
        let mut due = Vec::new();
        self.pending_repairs.retain_mut(|(at, keys)| {
            if *at <= now {
                due.push(std::mem::take(keys));
                false
            } else {
                true
            }
        });
        let n = due.len();
        for keys in due {
            self.stats.observed_failures += 1;
            if !self.ring.is_empty() {
                if self.cfg.redundancy_policy().is_erasure() {
                    self.enqueue_repairs(keys, now);
                } else {
                    self.sync_keys(keys, now, SyncCtx::Repair);
                }
            }
        }
        n
    }

    /// Crash repairs still waiting on failure detection.
    pub fn pending_repair_count(&self) -> usize {
        self.pending_repairs.len()
    }

    /// Keys queued for lazy erasure repair (below the threshold `m`,
    /// waiting on budget or a usable source).
    pub fn repair_queue_len(&self) -> usize {
        self.repair_queue.len()
    }

    /// Triage for lazy erasure repair: a key whose surviving fragment
    /// count is still at or above the threshold `m` costs nothing (the
    /// skip *is* the saving); one below `m` joins the budgeted queue.
    fn enqueue_repairs(&mut self, keys: Vec<Key>, now: SimTime) {
        let m = self.cfg.effective_repair_threshold();
        for key in keys {
            if !self.sizes.contains_key(&key) || self.repair_queue.contains(&key) {
                continue;
            }
            if self.reachable_copies(&key, now) >= m {
                self.stats.repairs_skipped_lazy += 1;
            } else {
                self.repair_queue.insert(key);
            }
        }
    }

    /// One pass of budgeted lazy erasure repair: refills each node's
    /// token bucket at [`ClusterConfig::repair_budget_bps`] (a zero
    /// budget is unlimited), then drains the queue in key order.
    /// Regenerating a block's missing fragments costs a full block of
    /// gather reads per fragment (the erasure-coding tax the paper's
    /// Section 3 alludes to), charged to the group owner's bucket; keys
    /// that would overdraw it stay queued and are counted as throttled.
    /// Returns the number of blocks repaired. A no-op under replication.
    pub fn run_repair_round(&mut self, now: SimTime) -> usize {
        let bps = self.cfg.repair_budget_bps;
        let dt_us = now.saturating_sub(self.last_repair_refill).as_micros();
        self.last_repair_refill = now;
        if bps > 0 {
            let add = bps.saturating_mul(dt_us) / 1_000_000;
            // Unused budget carries over up to one hour's worth: enough to
            // absorb a burst after a quiet window without unbounding the
            // long-run rate.
            let cap = bps.saturating_mul(3600);
            for t in &mut self.repair_tokens {
                *t = (*t + add).min(cap);
            }
        }
        if self.repair_queue.is_empty() {
            return 0;
        }
        let m = self.cfg.effective_repair_threshold();
        let keys: Vec<Key> = self.repair_queue.iter().copied().collect();
        let mut repaired = 0;
        for key in keys {
            let Some(&len) = self.sizes.get(&key) else {
                self.repair_queue.remove(&key);
                continue;
            };
            let survivors = self.reachable_copies(&key, now);
            if survivors >= m {
                // Recovered on its own (a holder returned, or an earlier
                // transfer arrived): nothing to regenerate after all.
                self.repair_queue.remove(&key);
                self.stats.repairs_skipped_lazy += 1;
                continue;
            }
            if survivors < self.min_live() {
                // Not reconstructable right now; keep it queued in case a
                // holder comes back.
                continue;
            }
            let group = self.ring.replica_group(&key, self.group_size());
            let missing = group
                .iter()
                .filter(|&&mem| self.node_up[mem.0] && !self.stores[mem.0].contains(&key))
                .count() as u64;
            if missing == 0 {
                self.repair_queue.remove(&key);
                continue;
            }
            let Some(&owner) = group.first() else {
                continue;
            };
            // Each regenerated fragment reads k fragments (~ one block).
            let cost = (len as u64).saturating_mul(missing);
            if bps > 0 && self.repair_tokens[owner.0] < cost {
                self.stats.repair_throttled_bytes += cost;
                continue;
            }
            let before = self.stats.migration_bytes;
            self.sync_keys(vec![key], now, SyncCtx::Repair);
            let spent = self.stats.migration_bytes - before;
            self.stats.repair_bytes += spent;
            if bps > 0 {
                self.repair_tokens[owner.0] = self.repair_tokens[owner.0].saturating_sub(spent);
            }
            self.repair_queue.remove(&key);
            repaired += 1;
        }
        repaired
    }

    /// Brings a node back at ring position `id` (or its previous one):
    /// groups shift back; over-replicated copies are dropped and the
    /// returned node fetches what it now owes.
    pub fn node_up_at(&mut self, node: NodeIdx, id: Key, now: SimTime) {
        if self.node_up[node.0] {
            return;
        }
        self.node_up[node.0] = true;
        if !self.ring.add_node_at(node, id) {
            // Position taken (balancer moved someone there meanwhile);
            // rejoin right behind it.
            let mut candidate = id;
            loop {
                candidate = candidate.wrapping_sub(&Key::from_u64(1));
                if self.ring.add_node_at(node, candidate) {
                    break;
                }
            }
        }
        // Repair: the node's stale contents plus its new neighborhood.
        let mut keys = self.stores[node.0].keys_in(&d2_types::KeyRange::full());
        if let Some(range) = self.ring.range_of(node) {
            for n in self.ring.replica_group(range.end(), self.group_size() + 1) {
                keys.extend(self.stores[n.0].iter().map(|(k, _)| *k));
            }
        }
        self.sync_keys(keys, now, SyncCtx::Repair);
    }

    // ---- FS facade ------------------------------------------------------------

    /// Creates a volume whose blocks live on this cluster.
    pub fn create_volume(&mut self, name: &str) {
        let fs = Fs::new(name, name.as_bytes(), FsConfig::new(self.system));
        self.volumes.insert(name.to_string(), fs);
    }

    /// Writes a file into a volume (buffered by the FS write-back cache).
    pub fn write_file(&mut self, volume: &str, path: &str, data: &[u8]) {
        let mut fs = self.volumes.remove(volume).expect("volume exists");
        let now = self.now;
        fs.write(self, path, data.to_vec(), now).expect("write");
        self.volumes.insert(volume.to_string(), fs);
    }

    /// Flushes every volume's write-back cache to the cluster.
    pub fn flush(&mut self) {
        let names: Vec<String> = self.volumes.keys().cloned().collect();
        for name in names {
            let mut fs = self.volumes.remove(&name).expect("volume exists");
            let now = self.now;
            fs.flush(self, now).expect("flush");
            self.volumes.insert(name, fs);
        }
    }

    /// Reads a file back through the verifying reader path (fetching real
    /// blocks from the cluster's stores).
    pub fn read_file(&mut self, volume: &str, path: &str) -> Result<Vec<u8>> {
        let reader = VolumeReader::new(volume, volume.as_bytes(), self.system);
        let now = self.now;
        reader.read_file(self, path, now)
    }
}

impl BlockIo for SimCluster {
    fn put(&mut self, name: &BlockName, data: Vec<u8>, now: SimTime) -> Result<()> {
        let key = self.system.key_of(name);
        self.put_block_data(key, data, now);
        Ok(())
    }

    fn get(&mut self, key: &Key, now: SimTime) -> Result<Vec<u8>> {
        let holder = self
            .live_data_holder(key, now)
            .ok_or(D2Error::Unavailable(*key))?;
        match self.stores[holder.0].get(key).map(|b| &b.payload) {
            Some(Payload::Data(d)) => Ok(d.clone()),
            Some(Payload::Size(_)) => Err(D2Error::InvalidOperation(
                "block stored without contents (simulation-grade put)".into(),
            )),
            _ => Err(D2Error::NotFound(*key)),
        }
    }

    fn remove(&mut self, key: &Key, now: SimTime, _delay: SimTime) -> Result<()> {
        self.remove_block(key, now);
        Ok(())
    }
}

/// Borrowed view implementing the balancer's [`LoadView`].
struct Loads<'a> {
    ring: &'a Ring,
    stores: &'a [NodeStore],
}

impl LoadView for Loads<'_> {
    fn primary_load(&self, node: NodeIdx) -> u64 {
        self.ring
            .range_of(node)
            .map(|r| self.stores[node.0].count_in(&r))
            .unwrap_or(0)
    }

    fn split_key(&self, node: NodeIdx) -> Option<Key> {
        let range = self.ring.range_of(node)?;
        self.stores[node.0].split_key_in(&range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2_ec::RedundancyPolicy;

    fn cluster(n: usize, system: SystemKind) -> SimCluster {
        let cfg = ClusterConfig {
            nodes: n,
            replicas: 3,
            seed: 42,
            ..ClusterConfig::default()
        };
        SimCluster::new(system, &cfg)
    }

    fn skewed_keys(count: usize) -> Vec<(Key, u32)> {
        // Blocks packed into 2% of the key space.
        (0..count)
            .map(|i| {
                (
                    Key::from_fraction(0.3 + 0.02 * i as f64 / count as f64),
                    8192u32,
                )
            })
            .collect()
    }

    #[test]
    fn trace_sink_sees_repair_and_balance_events() {
        let mut c = cluster(16, SystemKind::D2);
        let sink = d2_obs::SharedSink::memory(0);
        c.set_trace_sink(sink.clone());
        for (key, len) in skewed_keys(60) {
            c.put_block(key, len, SimTime::ZERO);
        }
        // A failure forces regeneration (Repair migrations).
        let key = Key::from_fraction(0.31);
        let victim = c.holders_of(&key)[0];
        c.node_down(victim, SimTime::from_secs(10));
        // Balance rounds move nodes (BalanceMove + Balance migrations /
        // pointers, depending on config).
        let moves = c.run_balance_round(SimTime::from_secs(20), false);
        let events = sink.drain();
        let repairs = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Migration {
                        kind: MigrationKind::Repair,
                        ..
                    }
                )
            })
            .count();
        let balance_moves = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::BalanceMove { .. }))
            .count();
        assert!(repairs > 0, "node failure must record repair migrations");
        assert_eq!(balance_moves, moves, "one BalanceMove event per ID change");
        for e in &events {
            if let TraceEvent::Migration {
                src, dst, bytes, ..
            } = e
            {
                assert_ne!(src, dst);
                assert!(*bytes > 0);
            }
        }
    }

    #[test]
    fn failure_detection_defers_repair_until_the_timeout_fires() {
        let cfg = ClusterConfig {
            nodes: 16,
            replicas: 3,
            seed: 42,
            failure_detection: SimTime::from_secs(120),
            ..ClusterConfig::default()
        };
        let mut c = SimCluster::new(SystemKind::D2, &cfg);
        for (key, len) in skewed_keys(40) {
            c.put_block(key, len, SimTime::ZERO);
        }
        let key = Key::from_fraction(0.31);
        let victim = c.holders_of(&key)[0];
        c.node_down(victim, SimTime::from_secs(10));
        // The survivors have not noticed yet: nothing regenerated.
        assert_eq!(c.stats.regenerated_blocks, 0);
        assert_eq!(c.stats.deferred_repairs, 1);
        assert_eq!(c.pending_repair_count(), 1);
        // Still nothing before the detection timeout (10 s + 120 s).
        assert_eq!(c.process_observed_failures(SimTime::from_secs(100)), 0);
        assert_eq!(c.stats.regenerated_blocks, 0);
        // After the timeout the deferred repair runs and the replica
        // groups are restored.
        assert_eq!(c.process_observed_failures(SimTime::from_secs(131)), 1);
        assert_eq!(c.stats.observed_failures, 1);
        assert_eq!(c.pending_repair_count(), 0);
        assert!(c.stats.regenerated_blocks > 0);
        assert!(!c.holders_of(&key).contains(&victim));
        assert_eq!(c.holders_of(&key).len(), cfg.replicas);
    }

    #[test]
    fn zero_failure_detection_repairs_synchronously() {
        let mut c = cluster(16, SystemKind::D2);
        for (key, len) in skewed_keys(40) {
            c.put_block(key, len, SimTime::ZERO);
        }
        let key = Key::from_fraction(0.31);
        let victim = c.holders_of(&key)[0];
        c.node_down(victim, SimTime::from_secs(10));
        assert_eq!(c.stats.deferred_repairs, 0);
        assert_eq!(c.pending_repair_count(), 0);
        assert!(c.stats.regenerated_blocks > 0, "oracle detector: immediate");
        assert_eq!(c.process_observed_failures(SimTime::from_secs(9999)), 0);
    }

    #[test]
    fn pointer_resolution_records_migration_events() {
        let cfg = ClusterConfig {
            nodes: 16,
            replicas: 3,
            seed: 42,
            use_pointers: true,
            ..ClusterConfig::default()
        };
        let mut c = SimCluster::new(SystemKind::D2, &cfg);
        let sink = d2_obs::SharedSink::memory(0);
        c.set_trace_sink(sink.clone());
        for (key, len) in skewed_keys(80) {
            c.put_block(key, len, SimTime::ZERO);
        }
        for round in 0..6 {
            c.run_balance_round(SimTime::from_secs(60 * round), false);
        }
        let long_after = SimTime::from_secs(60 * 6) + cfg.pointer_stabilization;
        let resolved = c.resolve_stale_pointers(long_after + SimTime::from_secs(1));
        let resolutions = sink
            .drain()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Migration {
                        kind: MigrationKind::PointerResolve,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(resolutions, resolved, "one event per resolved pointer");
    }

    #[test]
    fn put_places_r_replicas() {
        let mut c = cluster(16, SystemKind::D2);
        let key = Key::from_fraction(0.5);
        c.put_block(key, 8192, SimTime::ZERO);
        let holders = c.holders_of(&key);
        assert_eq!(holders.len(), 3);
        assert_eq!(holders[0], c.ring.owner_of(&key).unwrap());
        assert!(c.is_available(&key, SimTime::ZERO));
        assert_eq!(c.stats.write_bytes, 8192);
    }

    #[test]
    fn remove_block_clears_holders() {
        let mut c = cluster(8, SystemKind::D2);
        let key = Key::from_fraction(0.5);
        c.put_block(key, 100, SimTime::ZERO);
        c.remove_block(&key, SimTime::ZERO);
        assert!(c.holders_of(&key).is_empty());
        assert!(!c.is_available(&key, SimTime::from_secs(60)));
        assert_eq!(c.stats.removed_bytes, 100);
    }

    #[test]
    fn failure_of_whole_group_makes_block_unavailable() {
        let mut c = cluster(8, SystemKind::D2);
        let key = Key::from_fraction(0.5);
        c.put_block(key, 8192, SimTime::ZERO);
        let group = c.holders_of(&key);
        // Take the whole group down "simultaneously" (no regeneration can
        // help: take them down in one instant).
        for &n in &group {
            c.node_down(n, SimTime::from_secs(10));
        }
        // Regeneration targets were computed after each departure, but the
        // source nodes died too: if no live holder remains, unavailable.
        let avail = c.is_available(&key, SimTime::from_secs(10));
        // With bandwidth-metered regeneration, the first departure copies
        // to a new member — by the second/third departure the new copy may
        // still save the block. Verify consistency with live_data_holder.
        assert_eq!(
            avail,
            c.live_data_holder(&key, SimTime::from_secs(10)).is_some()
        );
    }

    #[test]
    fn failure_then_regeneration_restores_replicas() {
        let mut c = cluster(12, SystemKind::D2);
        let key = Key::from_fraction(0.5);
        c.put_block(key, 8192, SimTime::ZERO);
        let first = c.holders_of(&key)[0];
        c.node_down(first, SimTime::from_secs(10));
        // A new member was added to the group (transfer may complete later).
        let holders = c.holders_of(&key);
        assert_eq!(
            holders.len(),
            3,
            "regeneration should restore r copies: {holders:?}"
        );
        assert!(!holders.contains(&first));
        assert!(c.stats.migration_bytes >= 8192);
        // Block remains available throughout (survivors still hold it).
        assert!(c.is_available(&key, SimTime::from_secs(10)));
    }

    #[test]
    fn node_return_reclaims_its_range() {
        let mut c = cluster(10, SystemKind::D2);
        let key = Key::from_fraction(0.5);
        c.put_block(key, 8192, SimTime::ZERO);
        let owner = c.ring.owner_of(&key).unwrap();
        let id = c.ring.id_of(owner).unwrap();
        c.node_down(owner, SimTime::from_secs(10));
        assert_ne!(c.ring.owner_of(&key), Some(owner));
        c.node_up_at(owner, id, SimTime::from_secs(100));
        assert_eq!(c.ring.owner_of(&key), Some(owner));
        // The returned node holds the block again (it never lost the data).
        assert!(c.stores[owner.0].contains(&key));
        // And the over-replicated fourth copy was dropped.
        assert_eq!(c.holders_of(&key).len(), 3);
    }

    #[test]
    fn balance_converges_on_skewed_data() {
        let mut c = cluster(24, SystemKind::D2);
        c.preload(skewed_keys(600));
        let before = normalized_std_dev(&c.primary_loads());
        let mut now = SimTime::ZERO;
        for _ in 0..30 {
            now += c.cfg.probe_interval;
            c.run_balance_round(now, false);
        }
        let after = normalized_std_dev(&c.primary_loads());
        assert!(
            after < before / 2.0,
            "imbalance should drop substantially: before={before:.2} after={after:.2}"
        );
        assert!(c.stats.balance_moves > 0);
    }

    #[test]
    fn traditional_does_not_balance() {
        let mut c = cluster(24, SystemKind::Traditional);
        c.preload(skewed_keys(200));
        assert_eq!(c.run_balance_round(SimTime::from_secs(600), false), 0);
        // But force (Traditional+Merc) does, within a few rounds.
        let mut moved = 0;
        for i in 0..5 {
            moved += c.run_balance_round(SimTime::from_secs(1200 + 600 * i), true);
        }
        assert!(moved > 0);
    }

    #[test]
    fn pointers_defer_migration_bytes() {
        let mut c = cluster(24, SystemKind::D2);
        c.preload(skewed_keys(400));
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += c.cfg.probe_interval;
            c.run_balance_round(now, false);
        }
        assert!(
            c.stats.pointers_installed > 0,
            "balancing should install pointers"
        );
        let migrated_before = c.stats.migration_bytes;
        // After the stabilization time, pointers resolve and bytes move.
        now += c.cfg.pointer_stabilization + SimTime::from_secs(1);
        let resolved = c.resolve_stale_pointers(now);
        assert!(resolved > 0);
        assert!(c.stats.migration_bytes > migrated_before);
    }

    /// One block on a ring where each key has a single owner, so who is
    /// in the group and who is an ex-member is plain to set up by hand.
    fn one_owner_cluster() -> (SimCluster, Key, NodeIdx) {
        let cfg = ClusterConfig {
            nodes: 8,
            replicas: 1,
            seed: 42,
            ..ClusterConfig::default()
        };
        let mut c = SimCluster::new(SystemKind::D2, &cfg);
        let key = Key::from_fraction(0.5);
        c.put_block(key, 8192, SimTime::ZERO);
        let owner = c.holders_of(&key)[0];
        (c, key, owner)
    }

    #[test]
    fn repointed_pointer_keeps_its_new_target() {
        let (mut c, key, owner) = one_owner_cluster();
        let mut others = c.ring.nodes().into_iter().filter(|&n| n != owner);
        let (gone, spare) = (others.next().unwrap(), others.next().unwrap());
        // The owner points at a node that dropped the block; the only
        // real copy sits on an ex-member.
        let dangling = Payload::Pointer {
            holder: gone.0,
            since: SimTime::ZERO,
            len: 8192,
        };
        c.store_put(owner, key, dangling, SimTime::ZERO);
        c.store_put(spare, key, Payload::Size(8192), SimTime::ZERO);
        let now = SimTime::from_secs(60);
        c.sync_keys(vec![key], now, SyncCtx::Repair);
        // Step 0 re-pointed the owner at the ex-member, and step 2b saw
        // that: releasing the copy would leave the pointer dangling again.
        assert!(matches!(
            c.stores[owner.0].get(&key).map(|b| &b.payload),
            Some(Payload::Pointer { holder, since, .. })
                if *holder == spare.0 && *since == SimTime::ZERO
        ));
        assert!(c.stores[spare.0].contains(&key));
        assert!(c.is_available(&key, now));
    }

    #[test]
    fn mover_pointer_target_keeps_data_until_resolution() {
        let (mut c, key, owner) = one_owner_cluster();
        let mover = c.ring.nodes().into_iter().find(|&n| n != owner).unwrap();
        // The mover takes over the key's range, as a balance op would.
        c.ring.remove_node(mover);
        assert!(c.ring.add_node_at(mover, key));
        let now = SimTime::from_secs(60);
        c.sync_keys(vec![key], now, SyncCtx::Balance { mover });
        // The old owner is out of the group, but the mover's fresh
        // pointer targets it: the bytes stay where they are, unpaid.
        assert!(c.stores[mover.0].get(&key).unwrap().payload.is_pointer());
        assert!(!c.stores[owner.0].get(&key).unwrap().payload.is_pointer());
        assert_eq!(c.stats.pointers_installed, 1);
        assert_eq!(c.stats.migration_bytes, 0);
        assert!(c.is_available(&key, now));
        let later = now + c.cfg.pointer_stabilization + SimTime::from_secs(1);
        assert_eq!(c.resolve_stale_pointers(later), 1);
        assert_eq!(c.stats.migration_bytes, 8192);
        assert_eq!(c.holders_of(&key), vec![mover]);
        assert!(!c.stores[mover.0].get(&key).unwrap().payload.is_pointer());
    }

    #[test]
    fn equally_good_sources_pick_the_later_holder() {
        let mut c = cluster(12, SystemKind::D2);
        let key = Key::from_fraction(0.5);
        c.put_block(key, 8192, SimTime::ZERO);
        let holders = c.holders_of(&key);
        c.store_remove(holders[2], &key);
        c.sync_keys(vec![key], SimTime::from_secs(60), SyncCtx::Repair);
        // Both survivors are live group members with arrived data: the tie
        // goes to the later one in index order, and the transfer's record
        // (like every completion time downstream) follows that choice.
        assert_eq!(c.inflight[&(holders[2].0, key)].0, holders[1].0);
    }

    #[test]
    fn no_pointer_mode_migrates_immediately() {
        let cfg = ClusterConfig {
            nodes: 24,
            replicas: 3,
            seed: 7,
            use_pointers: false,
            ..ClusterConfig::default()
        };
        let mut c = SimCluster::new(SystemKind::D2, &cfg);
        c.preload(skewed_keys(400));
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += c.cfg.probe_interval;
            c.run_balance_round(now, false);
        }
        assert_eq!(c.stats.pointers_installed, 0);
        assert!(c.stats.migration_bytes > 0);
    }

    #[test]
    fn replication_invariant_after_balancing() {
        let mut c = cluster(16, SystemKind::D2);
        c.preload(skewed_keys(300));
        let mut now = SimTime::ZERO;
        for _ in 0..20 {
            now += c.cfg.probe_interval;
            c.run_balance_round(now, false);
            c.resolve_stale_pointers(now);
        }
        // Every block: its whole replica group holds it (data or pointer);
        // any extra holder must be the target of a live pointer (data kept
        // until resolution).
        let keys: Vec<Key> = c.sizes.keys().copied().collect();
        for key in keys {
            let group = c.ring.replica_group(&key, c.cfg.replicas);
            let holders = c.holders_of(&key);
            for g in &group {
                assert!(holders.contains(g), "group member {g} missing block {key}");
            }
            let referenced: Vec<usize> = holders
                .iter()
                .filter_map(|h| match c.stores[h.0].get(&key).map(|b| &b.payload) {
                    Some(Payload::Pointer { holder, .. }) => Some(*holder),
                    _ => None,
                })
                .collect();
            for h in &holders {
                assert!(
                    group.contains(h) || referenced.contains(&h.0),
                    "stray holder {h} for {key}"
                );
            }
        }
    }

    #[test]
    fn erasure_requires_k_live_fragments() {
        let cfg = ClusterConfig {
            nodes: 12,
            redundancy: Some(RedundancyPolicy::ErasureCode { k: 2, n: 4 }),
            seed: 8,
            ..ClusterConfig::default()
        };
        let mut c = SimCluster::new(SystemKind::D2, &cfg);
        let key = Key::from_fraction(0.5);
        c.put_block(key, 8192, SimTime::ZERO);
        // 4 fragments of 4096 each, carrying their code-word index.
        let holders = c.holders_of(&key);
        assert_eq!(holders.len(), 4);
        for (pos, h) in holders.iter().enumerate() {
            let payload = &c.stores[h.0].get(&key).unwrap().payload;
            assert_eq!(payload.len(), 4096);
            assert!(
                matches!(payload, Payload::Fragment { index, .. } if *index == pos as u8),
                "holder {pos} must store its code-word slot"
            );
        }
        assert!(c.is_available(&key, SimTime::ZERO));
        // Kill fragments one at a time at the same instant (suppress
        // regeneration effects by checking immediately after each kill on
        // a clone without repair).
        for (dead, &h) in holders.iter().enumerate() {
            let mut clone = c.clone();
            // Remove fragments directly: take this holder and `dead` more.
            for &other in holders.iter().take(dead) {
                clone.store_remove(other, &key);
            }
            clone.store_remove(h, &key);
            let remaining = 4 - (dead + 1);
            assert_eq!(
                clone.is_available(&key, SimTime::ZERO),
                remaining >= 2,
                "with {remaining} fragments availability must be {}",
                remaining >= 2
            );
        }
    }

    #[test]
    fn erasure_stores_fewer_bytes_than_replication() {
        let mut rep = cluster(12, SystemKind::D2);
        let cfg = ClusterConfig {
            nodes: 12,
            redundancy: Some(RedundancyPolicy::ErasureCode { k: 2, n: 4 }),
            seed: 42,
            ..ClusterConfig::default()
        };
        let mut ec = SimCluster::new(SystemKind::D2, &cfg);
        for (k, len) in skewed_keys(50) {
            rep.put_block(k, len, SimTime::ZERO);
            ec.put_block(k, len, SimTime::ZERO);
        }
        let rep_bytes: u64 = rep.total_load_bytes().iter().sum();
        let ec_bytes: u64 = ec.total_load_bytes().iter().sum();
        // Replication r=3 stores 3x; erasure 2-of-4 stores 2x.
        assert_eq!(rep_bytes, 3 * 50 * 8192);
        assert_eq!(ec_bytes, 4 * 50 * 4096);
        assert!(ec_bytes < rep_bytes);
    }

    #[test]
    fn lazy_repair_skips_losses_above_threshold() {
        // ec(2,4) has default repair threshold m = 3: losing one of four
        // fragments costs nothing; losing a second queues a repair.
        let cfg = ClusterConfig {
            nodes: 12,
            redundancy: Some(RedundancyPolicy::ErasureCode { k: 2, n: 4 }),
            seed: 8,
            ..ClusterConfig::default()
        };
        let mut c = SimCluster::new(SystemKind::D2, &cfg);
        let key = Key::from_fraction(0.5);
        c.put_block(key, 8192, SimTime::ZERO);
        let holders = c.holders_of(&key);
        let t1 = SimTime::from_secs(10);
        c.node_down(holders[0], t1);
        assert_eq!(c.repair_queue_len(), 0, "3 survivors >= m: no repair");
        assert_eq!(c.stats.repairs_skipped_lazy, 1);
        assert_eq!(c.stats.repair_bytes, 0);
        assert!(c.is_available(&key, t1));

        let t2 = SimTime::from_secs(20);
        c.node_down(holders[1], t2);
        assert_eq!(c.repair_queue_len(), 1, "2 survivors < m: queued");
        assert!(c.is_available(&key, t2), "still decodable from k = 2");

        let t3 = SimTime::from_secs(30);
        let repaired = c.run_repair_round(t3);
        assert_eq!(repaired, 1);
        assert_eq!(c.repair_queue_len(), 0);
        assert!(c.stats.repair_bytes > 0);
        // Regeneration restored the full group on the shifted successors.
        let t4 = SimTime::from_secs(4_000);
        assert_eq!(c.reachable_copies(&key, t4), 4);
    }

    #[test]
    fn repair_budget_throttles_then_releases() {
        let cfg = ClusterConfig {
            nodes: 12,
            redundancy: Some(RedundancyPolicy::ErasureCode { k: 2, n: 4 }),
            repair_budget_bps: 10,
            seed: 8,
            ..ClusterConfig::default()
        };
        let mut c = SimCluster::new(SystemKind::D2, &cfg);
        let key = Key::from_fraction(0.5);
        c.put_block(key, 8192, SimTime::ZERO);
        let holders = c.holders_of(&key);
        c.node_down(holders[0], SimTime::from_secs(1));
        c.node_down(holders[1], SimTime::from_secs(2));
        assert_eq!(c.repair_queue_len(), 1);

        // Two missing 4096-byte fragments cost a full 8192-byte gather
        // each; at 10 B/s the bucket holds ~100 bytes after 10 s.
        assert_eq!(c.run_repair_round(SimTime::from_secs(10)), 0);
        assert_eq!(c.repair_queue_len(), 1, "budget empty: still queued");
        assert!(c.stats.repair_throttled_bytes >= 16_384);
        assert_eq!(c.stats.repair_bytes, 0);

        // After an hour the bucket has accrued enough for both fragments.
        let late = SimTime::from_secs(3_600);
        assert_eq!(c.run_repair_round(late), 1);
        assert_eq!(c.repair_queue_len(), 0);
        assert_eq!(c.stats.repair_bytes, 16_384);
        // Spend never exceeds what the budget accrued over the window.
        assert!(c.stats.repair_bytes <= 10 * 3_600);
    }

    #[test]
    fn unreconstructable_keys_wait_in_queue_for_a_returning_holder() {
        let cfg = ClusterConfig {
            nodes: 12,
            redundancy: Some(RedundancyPolicy::ErasureCode { k: 2, n: 4 }),
            seed: 8,
            ..ClusterConfig::default()
        };
        let mut c = SimCluster::new(SystemKind::D2, &cfg);
        let key = Key::from_fraction(0.5);
        c.put_block(key, 8192, SimTime::ZERO);
        let holders = c.holders_of(&key);
        let ids: Vec<Key> = holders.iter().map(|&h| c.ring.id_of(h).unwrap()).collect();
        for (i, &h) in holders.iter().enumerate().take(3) {
            c.node_down(h, SimTime::from_secs(1 + i as u64));
        }
        // One fragment left: below k, the repair round must not drop the
        // key (and must not fabricate data).
        let t = SimTime::from_secs(100);
        assert!(!c.is_available(&key, t));
        assert_eq!(c.run_repair_round(t), 0);
        assert_eq!(c.repair_queue_len(), 1);
        // A holder returns: now k fragments are reachable and the queued
        // repair can regenerate the rest.
        c.node_up_at(holders[0], ids[0], SimTime::from_secs(200));
        let t2 = SimTime::from_secs(300);
        assert!(c.run_repair_round(t2) <= 1);
        let t3 = SimTime::from_secs(4_000);
        assert!(c.is_available(&key, t3));
        assert!(c.reachable_copies(&key, t3) >= 3);
    }

    #[test]
    fn hybrid_twin_saves_block_when_locality_group_dies() {
        let cfg = ClusterConfig {
            nodes: 16,
            replicas: 3,
            hybrid_hash_replicas: 1,
            seed: 11,
            ..ClusterConfig::default()
        };
        let mut c = SimCluster::new(SystemKind::D2, &cfg);
        let key = Key::from_fraction(0.5);
        c.put_block(key, 8192, SimTime::ZERO);
        let locality_holders = c.holders_of(&key);
        assert_eq!(locality_holders.len(), 3);
        // Wipe the locality group's copies outright (as if the whole
        // replica group were lost at one instant, regeneration and all).
        for h in locality_holders {
            c.store_remove(h, &key);
        }
        // The safeguard replica at the hashed twin still serves the block.
        assert!(
            c.is_available(&key, SimTime::ZERO),
            "hybrid safeguard replica must keep the block readable"
        );
        // Removing the block clears the twin too.
        c.remove_block(&key, SimTime::ZERO);
        assert!(!c.is_available(&key, SimTime::from_secs(60)));
    }

    #[test]
    fn hybrid_twins_survive_balancing() {
        let cfg = ClusterConfig {
            nodes: 16,
            replicas: 3,
            hybrid_hash_replicas: 2,
            seed: 13,
            ..ClusterConfig::default()
        };
        let mut c = SimCluster::new(SystemKind::D2, &cfg);
        c.preload(skewed_keys(200));
        let mut now = SimTime::ZERO;
        for _ in 0..15 {
            now += c.cfg.probe_interval;
            c.run_balance_round(now, false);
            c.resolve_stale_pointers(now);
        }
        // Every preloaded block is still available and its twin group has
        // the configured size.
        for (k, _) in skewed_keys(200) {
            assert!(c.is_available(&k, SimTime(u64::MAX)), "block {k} lost");
        }
    }

    #[test]
    fn full_nodes_divert_writes_via_pointers() {
        let cfg = ClusterConfig {
            nodes: 10,
            replicas: 2,
            seed: 17,
            // Small capacity: 12 blocks per node (cluster-wide capacity
            // of 120 copies comfortably exceeds the 80 copies written, so
            // diversion — not the give-up path — handles the hot corner).
            node_capacity_bytes: Some(12 * 8192),
            ..ClusterConfig::default()
        };
        let mut c = SimCluster::new(SystemKind::D2, &cfg);
        // Cram 40 clustered blocks into one corner of the ring: the owner
        // fills up fast and must divert.
        for (k, len) in skewed_keys(40) {
            c.put_block(k, len, SimTime::ZERO);
        }
        assert!(
            c.stats.diverted_writes > 0,
            "tiny capacity must force diversion"
        );
        // Everything is still readable (pointer chains reach the data).
        for (k, _) in skewed_keys(40) {
            assert!(
                c.is_available(&k, SimTime::ZERO),
                "diverted block {k} unreachable"
            );
        }
        // No node (except possibly via the final give-up path) wildly
        // exceeds its capacity.
        for n in c.ring.nodes() {
            assert!(
                c.stores[n.0].data_bytes() <= 12 * 8192,
                "node {n} exceeded its capacity: {}",
                c.stores[n.0].data_bytes()
            );
        }
        // After balancing, the crowded range is split and diversion
        // pressure falls (the paper: the full node "will eventually shed
        // some load when it performs load balancing").
        let mut now = SimTime::ZERO;
        for _ in 0..20 {
            now += c.cfg.probe_interval;
            c.run_balance_round(now, false);
            c.resolve_stale_pointers(now);
        }
        let max = c
            .ring
            .nodes()
            .iter()
            .map(|n| c.stores[n.0].len())
            .max()
            .unwrap();
        assert!(
            max <= 40,
            "balancing should spread the crowded corner: max={max}"
        );
    }

    #[test]
    fn fs_volume_on_cluster_roundtrip() {
        for system in [
            SystemKind::D2,
            SystemKind::Traditional,
            SystemKind::TraditionalFile,
        ] {
            let mut c = cluster(8, system);
            c.create_volume("home");
            c.write_file("home", "/docs/notes.txt", b"defragmented!");
            c.write_file("home", "/docs/big.bin", &vec![7u8; 30_000]);
            c.flush();
            assert_eq!(
                c.read_file("home", "/docs/notes.txt").unwrap(),
                b"defragmented!"
            );
            assert_eq!(
                c.read_file("home", "/docs/big.bin").unwrap(),
                vec![7u8; 30_000]
            );
        }
    }

    #[test]
    fn fs_read_survives_node_failures() {
        let mut c = cluster(10, SystemKind::D2);
        c.create_volume("v");
        c.write_file("v", "/f", &vec![3u8; 20_000]);
        c.flush();
        // Kill one node: replicas keep the file readable.
        let victim = c.ring.nodes()[0];
        c.node_down(victim, SimTime::from_secs(10));
        assert_eq!(c.read_file("v", "/f").unwrap(), vec![3u8; 20_000]);
    }
}
