//! Replica repair between live runtimes, on virtual time: every node is
//! a `NodeRuntime` over a `ChannelTransport` reading one `SimClock`, and
//! the test is the host — it ticks the nodes in rounds and hands each
//! its mail until the ring falls quiet, weighing every message on the
//! way. No thread, no sleep: a repair round is 64 ticks of the test's
//! own loop.
//!
//! What is held to: an undamaged ring spends one small digest per chain
//! successor a round and moves no block; a lost replica gets exactly
//! its ranges' keys back and nobody else gets anything; an emptied owner
//! pulls its range from a successor; a join re-homes what it displaced
//! and then the ring is quiet again; the owner's bytes win over a stale
//! replica's; a backlogged peer is left alone until the next round; a
//! replica refuses a fragment, which would stand in for its block. Under
//! erasure coding an owner probes exactly the keys it owns and has not
//! queued for regeneration.

use d2_ec::{Fragment, RedundancyPolicy};
use d2_net::{check_ring, BlockPool, NodeRuntime, NodeSpec, SimClock};
use d2_obs::TraceCtx;
use d2_ring::messages::Addr;
use d2_types::{Key, KeyRange};
use d2_wire::codec::{encode_traced_into, Request, Response};
use d2_wire::metrics::NetMetrics;
use d2_wire::transport::{
    channel_mailbox, ChannelHub, ChannelTransport, Delivery, Mailbox, Transport, TransportError,
};
use d2_wire::WireMsg;
use std::sync::{mpsc, Arc, Mutex};

/// Ticks in one repair round (`runtime::REPAIR_EVERY_TICKS`).
const ROUND: usize = 64;
const REPLICAS: u32 = 3;
/// "One small frame": a digest is a range, a count and a sum.
const SMALL_FRAME: usize = 256;

/// How many more `Put` frames each peer's queue takes before sends to it
/// report `Backlogged`; peers not listed take everything.
type PutRoom = Arc<Mutex<Vec<(Addr, usize)>>>;

/// A channel endpoint whose peers' queues can run out of room for puts.
struct Bounded {
    inner: ChannelTransport,
    room: PutRoom,
}

impl Transport for Bounded {
    fn local_addr(&self) -> Addr {
        self.inner.local_addr()
    }
    fn send_traced(&self, to: Addr, msg: &WireMsg, trace: TraceCtx) -> Result<(), TransportError> {
        let is_put = matches!(
            msg,
            WireMsg::Request {
                body: Request::Put { .. },
                ..
            }
        );
        if let Some((_, left)) = self
            .room
            .lock()
            .unwrap()
            .iter_mut()
            .find(|(a, _)| *a == to && is_put)
        {
            if *left == 0 {
                return Err(TransportError::Backlogged(to));
            }
            *left -= 1;
        }
        self.inner.send_traced(to, msg, trace)
    }
    fn set_mailbox(&self, mailbox: Mailbox) {
        self.inner.set_mailbox(mailbox)
    }
    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

/// One message a node took in that was not ring maintenance.
struct Taken {
    to: Addr,
    msg: WireMsg,
    /// Its size as a frame on the wire.
    bytes: usize,
}

/// Installs a channel mailbox on `t` and returns its read end.
fn inbox(t: &impl Transport) -> mpsc::Receiver<Delivery> {
    let (mailbox, rx) = channel_mailbox();
    t.set_mailbox(mailbox);
    rx
}

struct Ring {
    /// What every node is, but for its position and seed.
    spec: NodeSpec,
    hub: ChannelHub,
    clock: SimClock,
    /// The nodes' block buffers, shared as a host shares them.
    pool: BlockPool,
    nodes: Vec<NodeRuntime<Bounded, SimClock>>,
    /// Each node's mail, in `nodes` order.
    inboxes: Vec<mpsc::Receiver<Delivery>>,
    client: ChannelTransport,
    client_inbox: mpsc::Receiver<Delivery>,
    room: PutRoom,
    taken: Vec<Taken>,
    /// Tick rounds so far. The booted nodes have ticked in every one,
    /// so their repair rounds fall on its multiples of [`ROUND`].
    ticks: usize,
}

fn k(f: f64) -> Key {
    Key::from_fraction(f)
}

impl Ring {
    /// Replicating nodes at `fracs` (the first bootstraps), stepped
    /// until the ring holds and every successor list covers a chain.
    fn boot(fracs: &[f64]) -> Ring {
        Ring::boot_as(NodeSpec::replicated(REPLICAS), fracs)
    }

    /// Nodes as `spec` says at `fracs`, booted as [`Ring::boot`] does.
    fn boot_as(spec: NodeSpec, fracs: &[f64]) -> Ring {
        let hub = ChannelHub::new(Arc::new(NetMetrics::new()));
        let client = hub.open();
        let mut ring = Ring {
            spec,
            client_inbox: inbox(&client),
            client,
            hub,
            clock: SimClock::new(),
            pool: BlockPool::default(),
            nodes: Vec::new(),
            inboxes: Vec::new(),
            room: PutRoom::default(),
            taken: Vec::new(),
            ticks: 0,
        };
        for &f in fracs {
            ring.join(f);
        }
        ring.settle();
        ring
    }

    /// Starts a node at `frac`, joining through the first node.
    fn join(&mut self, frac: f64) -> Addr {
        let seed = self.nodes.first().map(|rt| rt.protocol().me().addr);
        let transport = Bounded {
            inner: self.hub.open(),
            room: Arc::clone(&self.room),
        };
        let addr = transport.local_addr();
        self.inboxes.push(inbox(&transport));
        let spec = self.spec.at(k(frac), seed);
        let mut rt = NodeRuntime::new(spec, transport, self.clock.clone());
        rt.set_pool(Some(self.pool.clone()));
        self.nodes.push(rt);
        self.pump();
        addr
    }

    /// Crash-stops the node at `addr`: sends to it fail from here on.
    fn crash(&mut self, addr: Addr) {
        let i = self.index(addr);
        self.nodes.remove(i).transport().shutdown();
        self.inboxes.remove(i);
    }

    /// The address of the node at ring position `frac`.
    fn at(&self, frac: f64) -> Addr {
        let node = self
            .nodes
            .iter()
            .find(|rt| rt.protocol().me().id == k(frac));
        node.expect("a live node").protocol().me().addr
    }

    fn index(&self, addr: Addr) -> usize {
        self.nodes
            .iter()
            .position(|rt| rt.protocol().me().addr == addr)
            .expect("a live node")
    }

    fn node(&self, addr: Addr) -> &NodeRuntime<Bounded, SimClock> {
        &self.nodes[self.index(addr)]
    }

    /// Hands every node its mail, and the mail that causes, until none
    /// is left.
    fn pump(&mut self) {
        loop {
            let mut quiet = true;
            for (rt, inbox) in self.nodes.iter_mut().zip(&self.inboxes) {
                while let Ok((to, msg, trace)) = inbox.try_recv() {
                    quiet = false;
                    if !matches!(msg, WireMsg::Ring(_)) {
                        self.taken.push(Taken {
                            to,
                            msg: msg.clone(),
                            bytes: encode_traced_into(&mut Vec::new(), &msg, trace),
                        });
                    }
                    assert!(rt.on_message(msg, trace));
                }
            }
            if quiet {
                return;
            }
        }
    }

    /// One tick round, all nodes in phase as on a host.
    fn tick(&mut self) {
        self.ticks += 1;
        self.clock.advance(20_000);
        for rt in &mut self.nodes {
            rt.on_tick();
        }
        self.pump();
    }

    /// Ticks through the booted nodes' next `n` repair rounds, and
    /// stops on the tick of the last.
    fn rounds(&mut self, n: usize) {
        for _ in 0..n {
            self.tick();
            while !self.ticks.is_multiple_of(ROUND) {
                self.tick();
            }
        }
    }

    /// Ticks until the ring invariants hold and every node knows a
    /// whole chain of successors: well inside one repair round, so that
    /// a test that settles just after a round has settled by the next.
    fn settle(&mut self) {
        for _ in 0..ROUND - 8 {
            self.tick();
            let statuses: Vec<_> = self.nodes.iter().map(|rt| rt.status()).collect();
            let chain = (REPLICAS as usize - 1).min(self.nodes.len() - 1);
            if check_ring(&statuses).violations.is_empty()
                && statuses.iter().all(|s| s.successors.len() >= chain)
            {
                return;
            }
        }
        let statuses: Vec<_> = self.nodes.iter().map(|rt| rt.status()).collect();
        panic!(
            "the ring did not settle inside a repair round: {:?}",
            check_ring(&statuses).violations
        );
    }

    /// Puts `data` under `key` through its owner, chain and all.
    fn put(&mut self, key: Key, data: &[u8]) {
        let owner = self
            .nodes
            .iter()
            .find(|rt| {
                rt.protocol()
                    .owned_range()
                    .is_some_and(|r| r.contains(&key))
            })
            .expect("some node owns every key")
            .protocol()
            .me()
            .addr;
        let body = Request::Put {
            key,
            fanout: REPLICAS - 1,
            stored: 0,
            data: data.to_vec(),
        };
        let ack = self.send(owner, body);
        assert_eq!(ack, Some(Response::PutAck { replicas: REPLICAS }));
    }

    /// One request from the test's own endpoint, and what it causes;
    /// returns the reply, if one came.
    fn send(&mut self, to: Addr, body: Request) -> Option<Response> {
        let from = self.client.local_addr();
        let msg = WireMsg::Request {
            req_id: 1,
            from,
            body,
        };
        self.client.send(to, &msg).expect("a live node");
        self.pump();
        match self.client_inbox.try_recv() {
            Ok((_, WireMsg::Response { body, .. }, _)) => Some(body),
            _ => None,
        }
    }

    /// A block every fifth of the way between nodes at odd tenths.
    fn preload(&mut self) -> Vec<(Key, Vec<u8>)> {
        let blocks: Vec<(Key, Vec<u8>)> = (0..50)
            .map(|i| {
                (
                    k(i as f64 / 50.0 + 0.003),
                    format!("block-{i}").into_bytes(),
                )
            })
            .collect();
        for (key, data) in &blocks {
            self.put(*key, data);
        }
        blocks
    }

    /// The sum of counter `name` over the live nodes.
    fn counter(&self, name: &str) -> u64 {
        let sum = |rt: &NodeRuntime<Bounded, SimClock>| rt.registry().counter(name);
        self.nodes.iter().map(sum).sum()
    }

    /// How many `kind` messages `to` (or anyone) has taken in.
    fn took(&self, kind: &str, to: Option<Addr>) -> usize {
        let hit = |t: &&Taken| t.msg.type_name() == kind && to.is_none_or(|a| a == t.to);
        self.taken.iter().filter(hit).count()
    }

    /// Keys `addr` holds, sorted.
    fn held(&self, addr: Addr) -> Vec<Key> {
        self.node(addr).block_keys().copied().collect()
    }

    /// The owner of `key` and the next two nodes round the ring.
    fn chain(&self, key: &Key) -> Vec<Addr> {
        let mut by_id: Vec<_> = self.nodes.iter().map(|rt| rt.protocol().me()).collect();
        by_id.sort_by_key(|p| p.id);
        let owner = by_id.iter().position(|p| p.id >= *key).unwrap_or(0);
        let step = |i: usize| by_id[(owner + i) % by_id.len()].addr;
        (0..REPLICAS as usize).map(step).collect()
    }

    /// Asserts that the owner of every block and the next two nodes
    /// round the ring hold it, byte for byte.
    fn assert_fully_replicated(&self, blocks: &[(Key, Vec<u8>)]) {
        for (key, data) in blocks {
            for (step, holder) in self.chain(key).into_iter().enumerate() {
                assert_eq!(
                    self.node(holder).block(key),
                    Some(&data[..]),
                    "replica {step} of {key} on node {holder}"
                );
            }
        }
    }
}

fn in_range(blocks: &[(Key, Vec<u8>)], from: f64, to: f64) -> Vec<Key> {
    let r = KeyRange::new(k(from), k(to));
    let mut keys: Vec<Key> = blocks
        .iter()
        .map(|b| b.0)
        .filter(|x| r.contains(x))
        .collect();
    keys.sort_unstable();
    keys
}

const FIVE: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// A push of fragment `index` of `total` under `key`, as an erasure
/// coding owner sends one.
fn fragment_push(key: Key, index: u8, total: u8) -> Request {
    let frag = Fragment::new(index, 1, b"a fragment".to_vec());
    Request::PutFragment {
        key,
        index,
        total,
        generation: frag.generation,
        check: frag.check,
        block_len: 20,
        data: frag.data,
    }
}

#[test]
fn an_undamaged_ring_spends_one_small_digest_per_chain_successor_a_round() {
    let mut ring = Ring::boot(&FIVE);
    let blocks = ring.preload();
    ring.assert_fully_replicated(&blocks);
    ring.rounds(1);
    let (puts, digests) = (
        ring.counter("node.msgs_in.put"),
        ring.counter("repair.digests_sent"),
    );
    ring.taken.clear();
    ring.rounds(5);
    assert_eq!(ring.counter("node.msgs_in.put"), puts, "a block moved");
    let per_round = FIVE.len() * (REPLICAS as usize - 1);
    assert_eq!(
        ring.counter("repair.digests_sent") - digests,
        5 * per_round as u64
    );
    // Nothing but digests crossed the ring, and every one is small.
    assert_eq!(ring.taken.len(), 5 * per_round);
    assert!(ring.taken.iter().all(|t| t.msg.type_name() == "sync_range"));
    let bytes: usize = ring.taken.iter().map(|t| t.bytes).sum();
    assert!(
        bytes <= 5 * per_round * SMALL_FRAME,
        "{bytes} B in 5 rounds"
    );
    for name in [
        "repair.ranges_differ",
        "repair.blocks_pushed",
        "repair.bytes_pushed",
        "repair.blocks_pulled",
        "repair.strays_rehomed",
        "node.msgs_in.find_owner",
    ] {
        assert_eq!(ring.counter(name), 0, "{name}");
    }
}

/// Crash-stops the node at 0.5 just after a repair round and restarts it
/// empty (at a new address, as the hub hands them out) before the next,
/// once its neighbours' probes have failed: a join routed to the corpse
/// would wait out the join retry.
fn restart_the_middle_node_empty(ring: &mut Ring) -> Addr {
    ring.rounds(1);
    ring.crash(ring.at(0.5));
    for _ in 0..4 {
        ring.tick();
    }
    let back = ring.join(0.5);
    ring.settle();
    ring.taken.clear();
    back
}

#[test]
fn a_replica_restarted_empty_is_sent_exactly_the_ranges_it_replicates() {
    let mut ring = Ring::boot(&FIVE);
    let blocks = ring.preload();
    let back = restart_the_middle_node_empty(&mut ring);
    assert_eq!(ring.held(back), vec![]);
    ring.rounds(2);
    // It replicates its two predecessors' ranges, (0.9, 0.1] and
    // (0.1, 0.3]; those owners pushed it their keys and nothing else.
    let replicated = in_range(&blocks, 0.9, 0.3);
    assert_eq!(replicated.len(), 20);
    assert_eq!(ring.took("put", Some(back)), replicated.len());
    assert_eq!(
        ring.counter("repair.blocks_pushed"),
        replicated.len() as u64
    );
    let pushed_bytes: usize = blocks
        .iter()
        .filter(|b| replicated.contains(&b.0))
        .map(|b| b.1.len())
        .sum();
    assert_eq!(ring.counter("repair.bytes_pushed"), pushed_bytes as u64);
    assert_eq!(
        ring.took("put", None),
        replicated.len(),
        "a bystander got a put"
    );
    // Two owners' digests it disagreed with, two successors that
    // disagreed with its own (the next test), and all agree since.
    assert_eq!(ring.counter("repair.ranges_differ"), 4);
    ring.assert_fully_replicated(&blocks);
    assert_eq!(ring.held(back), in_range(&blocks, 0.9, 0.5));
    // Healed: the next round is digests only.
    ring.taken.clear();
    ring.rounds(1);
    assert!(ring.taken.iter().all(|t| t.msg.type_name() == "sync_range"));
}

#[test]
fn an_owner_restarted_empty_pulls_its_range_back_from_a_successor() {
    let mut ring = Ring::boot(&FIVE);
    let blocks = ring.preload();
    let back = restart_the_middle_node_empty(&mut ring);
    ring.rounds(2);
    // Both successors listed the range; each key was fetched once.
    let owned = in_range(&blocks, 0.3, 0.5);
    assert_eq!(owned.len(), 10);
    assert_eq!(ring.took("get", None), owned.len());
    assert_eq!(ring.took("block", Some(back)), owned.len());
    assert_eq!(ring.counter("repair.blocks_pulled"), owned.len() as u64);
    for key in &owned {
        let data = &blocks.iter().find(|b| b.0 == *key).unwrap().1;
        assert_eq!(ring.node(back).block(key), Some(&data[..]));
    }
    assert_eq!(ring.counter("repair.strays_rehomed"), 0);
}

#[test]
fn a_join_rehomes_what_it_displaced_and_then_nothing_moves() {
    let mut ring = Ring::boot(&FIVE);
    let blocks = ring.preload();
    ring.rounds(1);
    // 0.2 splits (0.1, 0.3] and enters three chains, pushing the last
    // member out of each: 0.7 for (0.1, 0.2], 0.5 for (0.9, 0.1] and
    // 0.3 for (0.7, 0.9].
    let joiner = ring.join(0.2);
    ring.settle();
    ring.rounds(5);
    ring.assert_fully_replicated(&blocks);
    assert_eq!(ring.held(joiner), in_range(&blocks, 0.7, 0.2));
    let displaced = in_range(&blocks, 0.1, 0.2).len()
        + in_range(&blocks, 0.9, 0.1).len()
        + in_range(&blocks, 0.7, 0.9).len();
    assert_eq!(displaced, 25);
    assert_eq!(ring.counter("repair.strays_rehomed"), displaced as u64);
    // Blocks are never deleted: the displaced copies are still there,
    // and they are nobody's business any more.
    assert_eq!(ring.held(ring.at(0.7)), in_range(&blocks, 0.1, 0.7));
    let (puts, lookups) = (
        ring.counter("node.msgs_in.put"),
        ring.counter("node.msgs_in.find_owner"),
    );
    ring.taken.clear();
    ring.rounds(2);
    assert!(ring.taken.iter().all(|t| t.msg.type_name() == "sync_range"));
    assert_eq!(ring.counter("node.msgs_in.put"), puts);
    assert_eq!(ring.counter("node.msgs_in.find_owner"), lookups);
}

#[test]
fn the_owners_copy_replaces_a_stale_replica() {
    let mut ring = Ring::boot(&FIVE);
    let blocks = ring.preload();
    // Node 0.5 owns this key; 0.7 is its first replica.
    let (key, current) = blocks[20].clone();
    let replica = ring.at(0.7);
    let stale = Request::Put {
        key,
        fanout: 0,
        stored: 1,
        data: b"yesterday's bytes".to_vec(),
    };
    ring.send(replica, stale);
    assert_ne!(ring.node(replica).block(&key), Some(&current[..]));
    ring.rounds(1);
    assert_eq!(ring.node(replica).block(&key), Some(&current[..]));
    assert_eq!(ring.counter("repair.blocks_pushed"), 1);
    assert_eq!(ring.counter("repair.blocks_pulled"), 0);
    ring.assert_fully_replicated(&blocks);
}

#[test]
fn a_backlogged_replica_is_left_alone_until_the_next_round() {
    let mut ring = Ring::boot(&FIVE);
    let blocks = ring.preload();
    let back = restart_the_middle_node_empty(&mut ring);
    // Two owners have ten keys each for it, and its queue takes three
    // puts a round: each owner stops at the first refusal, so a round
    // costs one refused send, not seven dropped frames.
    let dead_sends = ring.counter("node.send_failures");
    let mut arrived = 0;
    for round in 1..=8 {
        *ring.room.lock().unwrap() = vec![(back, 3)];
        ring.rounds(1);
        let took = ring.took("put", Some(back));
        assert!(
            took - arrived <= 3,
            "round {round}: {} puts",
            took - arrived
        );
        arrived = took;
        assert!(
            ring.counter("node.send_backlogged") <= 2 * round,
            "round {round}: {} refusals",
            ring.counter("node.send_backlogged")
        );
    }
    assert_eq!(arrived, 20);
    assert_eq!(
        ring.counter("node.send_failures"),
        dead_sends,
        "a slow peer is not a dead one"
    );
    ring.room.lock().unwrap().clear();
    ring.assert_fully_replicated(&blocks);
}

#[test]
fn a_replicating_node_refuses_a_fragment_and_keeps_its_block() {
    let mut ring = Ring::boot(&FIVE);
    let blocks = ring.preload();
    // Node 0.5 owns this key; 0.7 is its first replica. A fragment is
    // what a node misconfigured with `--ec` pushes its successors.
    let (key, current) = blocks[20].clone();
    let holder = ring.at(0.7);
    assert_eq!(
        ring.send(holder, fragment_push(key, 1, 8)),
        Some(Response::PutAck { replicas: 0 })
    );
    assert_eq!(ring.node(holder).block(&key), Some(&current[..]));
    assert_eq!(ring.node(holder).fragment_keys().count(), 0);
    // The chain's digests still agree, so a round moves nothing.
    ring.taken.clear();
    ring.rounds(1);
    assert!(ring.taken.iter().all(|t| t.msg.type_name() == "sync_range"));
    for name in [
        "repair.ranges_differ",
        "repair.blocks_pushed",
        "repair.blocks_pulled",
    ] {
        assert_eq!(ring.counter(name), 0, "{name}");
    }
    ring.assert_fully_replicated(&blocks);
}

#[test]
fn an_erasure_coding_owner_probes_exactly_the_keys_it_owns_and_has_not_queued() {
    // (2, 3) fragments, so a put is acked by as many members as a
    // replicated one; a byte a second never pays for a regeneration.
    let spec = NodeSpec {
        redundancy: RedundancyPolicy::ErasureCode { k: 2, n: 3 },
        repair_budget_bps: 1,
        ..NodeSpec::replicated(REPLICAS)
    };
    let mut ring = Ring::boot_as(spec, &FIVE);
    let blocks = ring.preload();
    // A fragment only its owner holds: the owner's first probe finds it
    // below the repair threshold and queues it for good.
    let (owner, lone) = (ring.at(0.5), fragment_push(k(0.45), 0, 3));
    assert_eq!(
        ring.send(owner, lone),
        Some(Response::PutAck { replicas: 1 })
    );
    ring.rounds(2);
    assert!(ring.counter("ec.repair_throttled_bytes") > 0);
    ring.taken.clear();
    ring.rounds(1);
    // Each node also holds fragments of its two predecessors' keys, yet
    // every key is probed by its owner alone, once per other member,
    // and the queued key not at all.
    let mut probes: Vec<(Key, Addr, Addr)> = Vec::new();
    for t in &ring.taken {
        if let WireMsg::Request {
            from,
            body: Request::GetFragment { key, want_data },
            ..
        } = t.msg
        {
            assert!(!want_data, "a gather in an undamaged ring");
            probes.push((key, from, t.to));
        }
    }
    let mut want: Vec<(Key, Addr, Addr)> = Vec::new();
    for (key, _) in &blocks {
        let chain = ring.chain(key);
        want.extend(chain[1..].iter().map(|&to| (*key, chain[0], to)));
    }
    probes.sort_unstable();
    want.sort_unstable();
    assert_eq!(probes, want);
}
