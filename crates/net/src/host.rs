//! The one way a live node runs: a [`Host`] steps any number of
//! [`NodeRuntime`]s on one scheduler thread.
//!
//! The node event loop is *single-steppable* —
//! [`NodeRuntime::on_message`] handles one message,
//! [`NodeRuntime::on_tick`] runs one maintenance tick — so one thread
//! can interleave a thousand nodes the way the deterministic simulation
//! harness does. The host owns the runtimes, the time of their next
//! tick round and one inbound queue; the endpoint of every node added
//! feeds that queue (`Transport::set_mailbox`), and adding a node,
//! crashing one and stopping the host arrive on it as events too. So
//! the thread blocks in one place — with the queue empty, so nodes it
//! steps hear one another before it sleeps — whose timeout is the next
//! tick round, and an idle host sleeps until then. Over channels that place is a
//! receive on the queue. Over TCP it is the reactor's [`Poller::turn`]:
//! the host thread reads the sockets itself, what a turn decodes is on
//! the queue when it returns, and what the runtimes queue in answer —
//! a whole burst, since the queue is empty again — the next turn
//! writes before it blocks: bytes in, runtime stepped, bytes out on one
//! thread, with no hand-off and no timer.
//!
//! Three front-ends put nodes on a host: `d2-node serve` (one reactor
//! endpoint), [`ManyCluster`] behind `d2-node serve-many` (N endpoints
//! of one reactor plus the staged boot below) and
//! [`crate::Deployment`] (N channel endpoints). Callers pass what a
//! node *is* (a [`NodeSpec`]) and the endpoint it speaks through; the
//! host derives the rest:
//!
//! - **the tick period** from how many nodes it steps — [`TICK`] up to
//!   80 nodes, then 250 µs per node, so total tick load stays near 4k
//!   ticks/s through the one thread. All nodes tick in the same round,
//!   and rounds fall on multiples of the period on the wall clock, so
//!   every host on a machine ticks in phase. That is what gets a
//!   crashed peer out of the ring's successor lists: each holder of its
//!   address forgets it when its probe fails, and when all of them do
//!   so before any answers another's probe, no reply hands it back.
//!   Nodes that tick in turn keep handing the corpse back and forth
//!   until two turns happen to coincide: 0.3–34 s measured for 13
//!   nodes ticking in turn on one thread, 2–19 s for nine processes
//!   out of phase, two rounds in phase;
//! - **whether a node's `MetricsDump` folds in the transport sheet**
//!   from whether the node has the sheet to itself (N co-hosted nodes
//!   each reporting shared totals would N-fold them in a merged scrape);
//! - **when it is done**: when the last node stops, over the wire
//!   (`d2-node stop`) or by [`Host::stop`].
//!
//! Total OS threads: the caller's and the host's. Constant in N.
//!
//! ## `serve-many` boot
//!
//! A thousand nodes joining through one seed at once is a join storm:
//! every join lands on the same adopter while the ring is small, joins
//! routed through half-stabilized pointers orbit and drop, and each
//! loss costs a 1.25 s join retry. Nodes therefore join in waves that
//! at most double the ring (capped at [`JOIN_BATCH`]), the next
//! released only when every node so far has joined. Each joiner enters
//! through its own already joined seed, and the `i`-th node takes ring
//! position `bitrev(i)`, so a wave bisects the existing gaps: one
//! joiner per adopter, nothing to contend for.

use crate::clock::{Clock, SystemClock};
use crate::runtime::{NodeRuntime, NodeSpec, TICK};
use d2_ring::messages::Addr;
use d2_types::Key;
use d2_wire::metrics::NetMetrics;
use d2_wire::reactor::{until_wall_multiple, Poller, TcpEndpoint, TcpReactor};
use d2_wire::tcp::{pack_addr, TcpConfig};
use d2_wire::transport::{Delivery, Transport};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything that reaches the host thread, in one FIFO order.
enum Event<T> {
    /// A message for one hosted node.
    Deliver(Delivery),
    /// Start stepping a new node over this endpoint.
    Add(NodeSpec, T),
    /// Drop a node without a goodbye; the sender fires once it is gone.
    Crash(Addr, mpsc::Sender<()>),
    /// Report `(live, joined)` node counts.
    Counts(mpsc::Sender<(usize, usize)>),
    /// Drop every node and exit.
    Stop,
}

/// A scheduler thread stepping the nodes added to it (module docs).
pub struct Host<T: Transport> {
    /// Queues an event for the host thread; `false` once it is gone.
    push: Arc<dyn Fn(Event<T>) -> bool + Send + Sync>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl<T: Transport> Host<T> {
    /// Starts an empty host. `sheet` is the metrics sheet of the
    /// transport its nodes will share. With the `poller` of a reactor
    /// the host turns it, and only endpoints of that reactor may be
    /// added; without, it sleeps on its queue.
    pub fn start(sheet: Arc<NetMetrics>, poller: Option<Poller>) -> io::Result<Host<T>> {
        let (tx, rx) = mpsc::channel();
        let wake = poller.as_ref().map(Poller::waker);
        let thread = std::thread::Builder::new()
            .name("d2-host".into())
            .spawn(move || Stepper::new(sheet).run(rx, poller))?;
        let push = move |ev| {
            let queued = tx.send(ev).is_ok();
            // A host asleep in its poller's turn does not see the queue.
            if let Some(wake) = &wake {
                wake();
            }
            queued
        };
        Ok(Host {
            push: Arc::new(push),
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Starts the node `spec` describes over `transport`, whose inbound
    /// messages the host's queue takes over. Events are ordered: the
    /// node exists before any message sent to it after this returns.
    pub fn add(&self, spec: NodeSpec, transport: T) {
        let push = Arc::clone(&self.push);
        transport.set_mailbox(Arc::new(move |d| push(Event::Deliver(d))));
        (self.push)(Event::Add(spec, transport));
    }

    /// Crash-stops the node at `addr`: no shutdown request, no ack. On
    /// return the runtime is dropped and its endpoint closed, so sends
    /// to `addr` already fail fast.
    pub fn crash(&self, addr: Addr) {
        let (done, gone) = mpsc::channel();
        if (self.push)(Event::Crash(addr, done)) {
            let _ = gone.recv();
        }
    }

    /// `(live, joined)`: how many nodes the host steps, and how many of
    /// them are ring members. `(0, 0)` once the host is done.
    pub fn counts(&self) -> (usize, usize) {
        let (reply, counts) = mpsc::channel();
        (self.push)(Event::Counts(reply));
        counts.recv().unwrap_or((0, 0))
    }

    /// Whether the host thread has exited: its last node stopped, or
    /// [`Host::stop`] ran.
    pub fn finished(&self) -> bool {
        self.thread.lock().as_ref().is_none_or(|h| h.is_finished())
    }

    /// Blocks until the host thread exits.
    pub fn join(&self) {
        if let Some(h) = self.thread.lock().take() {
            let _ = h.join();
        }
    }

    /// Hard-stops the host: every node is dropped and its endpoint
    /// closed. Idempotent. For a graceful drain, send every node a
    /// shutdown request first.
    pub fn stop(&self) {
        (self.push)(Event::Stop);
        self.join();
    }
}

impl<T: Transport> Drop for Host<T> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The host thread's state.
struct Stepper<T: Transport> {
    clock: SystemClock,
    sheet: Arc<NetMetrics>,
    runtimes: HashMap<Addr, NodeRuntime<T>>,
    /// When every node ticks next (µs on `clock`).
    next_round_us: u64,
    /// Nodes not yet observed joined, pruned on [`Event::Counts`].
    unjoined: Vec<Addr>,
}

impl<T: Transport> Stepper<T> {
    fn new(sheet: Arc<NetMetrics>) -> Self {
        Stepper {
            clock: SystemClock::default(),
            sheet,
            runtimes: HashMap::new(),
            next_round_us: 0,
            unjoined: Vec::new(),
        }
    }

    fn run(mut self, rx: mpsc::Receiver<Event<T>>, mut poller: Option<Poller>) {
        'host: loop {
            if self.clock.now_us() >= self.next_round_us {
                for rt in self.runtimes.values_mut() {
                    rt.on_tick();
                }
                let tick = Duration::from_micros(self.tick_us());
                let to_next = until_wall_multiple(tick).as_micros() as u64;
                self.next_round_us = self.clock.now_us() + to_next;
            }
            // Handle a bounded burst of what is queued — by the last
            // turn, by other threads, and by the nodes stepped here for
            // one another — before re-checking the clock.
            let mut drained = false;
            for _ in 0..512 {
                let Ok(ev) = rx.try_recv() else {
                    drained = true;
                    break;
                };
                if !self.handle(ev) {
                    break 'host;
                }
            }
            // Sleep until an event arrives or the next round is due
            // (with no node to tick, for good).
            let to_round = self.next_round_us.saturating_sub(self.clock.now_us());
            let wait = (!self.runtimes.is_empty()).then(|| Duration::from_micros(to_round));
            if let Some(poller) = &mut poller {
                // Inbound frames are on `rx` when this returns; what is
                // still there from the burst does not wait for them.
                poller.turn(if drained { wait } else { Some(Duration::ZERO) });
            } else {
                match rx.recv_timeout(wait.unwrap_or(Duration::MAX)) {
                    Ok(ev) => {
                        if !self.handle(ev) {
                            break;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        // Close every endpoint so stragglers fail fast.
        for (_, rt) in self.runtimes.drain() {
            rt.transport().shutdown();
        }
        // The last node's `ShutdownAck` is still queued.
        if let Some(mut poller) = poller {
            poller.drain();
        }
    }

    /// The per-node tick period for the current node count.
    fn tick_us(&self) -> u64 {
        (self.runtimes.len() as u64 * 250).max(TICK.as_micros() as u64)
    }

    /// Handles one event; `false` when the host is done.
    fn handle(&mut self, ev: Event<T>) -> bool {
        match ev {
            Event::Deliver((dst, msg, trace)) => {
                // Mail for a stopped node is dropped, like any dead
                // peer's.
                let Some(rt) = self.runtimes.get_mut(&dst) else {
                    return true;
                };
                // `false` is a graceful stop: the node has acked its
                // shutdown request.
                rt.on_message(msg, trace) || self.remove(dst)
            }
            Event::Add(spec, transport) => {
                let addr = transport.local_addr();
                let rt = NodeRuntime::new(spec, transport, SystemClock::default());
                self.runtimes.insert(addr, rt);
                if spec.seed.is_some() {
                    self.unjoined.push(addr);
                }
                self.share_sheet();
                true
            }
            Event::Crash(addr, done) => {
                let more = self.remove(addr);
                let _ = done.send(());
                more
            }
            Event::Counts(reply) => {
                let runtimes = &self.runtimes;
                self.unjoined
                    .retain(|a| runtimes.get(a).is_some_and(|rt| !rt.protocol().is_joined()));
                let live = runtimes.len();
                let _ = reply.send((live, live - self.unjoined.len()));
                true
            }
            Event::Stop => false,
        }
    }

    /// Drops the node at `addr`; `false` when it was the last one.
    fn remove(&mut self, addr: Addr) -> bool {
        let Some(rt) = self.runtimes.remove(&addr) else {
            return true;
        };
        rt.transport().shutdown();
        self.unjoined.retain(|&a| a != addr);
        self.share_sheet();
        !self.runtimes.is_empty()
    }

    /// Gives the transport sheet to a node that has it to itself and
    /// takes it away when a second node arrives (module docs).
    fn share_sheet(&mut self) {
        if self.runtimes.len() <= 2 {
            let private = self.runtimes.len() == 1;
            for rt in self.runtimes.values_mut() {
                rt.set_net_metrics(private.then(|| Arc::clone(&self.sheet)));
            }
        }
    }
}

/// The most nodes that join concurrently during a [`ManyCluster`] boot.
pub const JOIN_BATCH: usize = 64;

/// An N-node cluster hosted in this process: one reactor, one [`Host`]
/// turning its poller, N virtual endpoints. Nodes are first-class ring
/// members — external clients (`d2-load`, `d2-node`) connect to any
/// `127.0.0.1+i:port` exactly as they would to a standalone node.
/// Dropping the cluster hard-stops it; for a graceful drain, send every
/// node a shutdown request first (`d2-node stop --all`).
pub struct ManyCluster {
    // Declared, so dropped, before `reactor`: the host stops, closes
    // its endpoints, flushes what the nodes queued (a last
    // `ShutdownAck`) and drops the poller with its sockets.
    host: Host<TcpEndpoint>,
    reactor: TcpReactor,
    /// What every node shares, placed per node with [`NodeSpec::at`].
    template: NodeSpec,
    addrs: Vec<Addr>,
    /// How many of `addrs` have been handed to the host so far.
    released: usize,
}

impl ManyCluster {
    /// Binds the reactor on `port` (0 picks a free one; the listener
    /// binds `0.0.0.0` so every virtual `127.x.y.z` address is
    /// dialable), starts the host and releases the first of `nodes`
    /// nodes, each `template` at its own position. Returns
    /// immediately — [`ManyCluster::poll_boot`] or
    /// [`ManyCluster::wait_joined`] drive the rest of the boot.
    pub fn launch(
        nodes: usize,
        port: u16,
        template: NodeSpec,
        metrics: Arc<NetMetrics>,
    ) -> io::Result<ManyCluster> {
        let cfg = TcpConfig::default();
        let (reactor, poller) =
            TcpReactor::bind(Ipv4Addr::UNSPECIFIED, port, cfg, Arc::clone(&metrics))?;
        let port = reactor.port();
        let addrs = (0..nodes.max(1))
            .map(|i| pack_addr(SocketAddrV4::new(node_ip(i), port)))
            .collect();
        let mut cluster = ManyCluster {
            host: Host::start(metrics, Some(poller))?,
            reactor,
            template,
            addrs,
            released: 0,
        };
        cluster.release_wave()?;
        Ok(cluster)
    }

    /// Hands the next wave of nodes to the host. Everything released
    /// before has joined, so all of it seeds the new wave: the join
    /// *lookup* load spreads over every joined node. (Seeding through a
    /// not-yet-joined neighbor would serialize each wave behind the
    /// join-retry timer.)
    fn release_wave(&mut self) -> io::Result<()> {
        let (n, joined_base) = (self.addrs.len(), self.released);
        let wave = JOIN_BATCH.min(joined_base.max(1));
        for i in joined_base..n.min(joined_base + wave) {
            let id = Key::from_fraction(ring_fraction(i, n));
            let seed = (i > 0).then(|| self.addrs[i % joined_base.max(1)]);
            let ep = self.reactor.open(node_ip(i))?;
            self.host.add(self.template.at(id, seed), ep);
            self.released += 1;
        }
        Ok(())
    }

    /// One step of the staged boot: releases the next join wave once
    /// every node released so far has joined. Returns how many nodes
    /// have joined the ring.
    pub fn poll_boot(&mut self) -> usize {
        let (live, joined) = self.host.counts();
        let due = live > 0 && joined == live && self.released < self.addrs.len();
        if due && self.release_wave().is_err() {
            // The reactor is gone; nothing more can be released.
            self.released = self.addrs.len();
        }
        joined
    }

    /// Drives the boot until every configured node has joined (true),
    /// or the timeout expires or the host exits first (false).
    pub fn wait_joined(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.poll_boot() < self.addrs.len() {
            if Instant::now() > deadline || self.finished() {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        true
    }

    /// The shared listen port.
    pub fn port(&self) -> u16 {
        self.reactor.port()
    }

    /// Every hosted node's address, in boot order (`addrs()[0]` is the
    /// bootstrap node — the canonical client entry point).
    pub fn addrs(&self) -> &[Addr] {
        &self.addrs
    }

    /// How many nodes are currently live (released and not stopped).
    pub fn live(&self) -> usize {
        self.host.counts().0
    }

    /// Whether the host has exited: every node stopped (e.g. via
    /// `d2-node stop --all`).
    pub fn finished(&self) -> bool {
        self.host.finished()
    }

    /// Blocks until the host exits or the timeout expires.
    pub fn wait_finished(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.finished()
    }
}

/// Virtual IP of node `i`: `127.0.0.1 + i`. The whole `127/8` block is
/// loopback on Linux, so every address is dialable with no interface
/// configuration.
pub fn node_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(Ipv4Addr::new(127, 0, 0, 1)) + i as u32)
}

/// Ring position of the `i`-th node: bit-reversed index scaled to the
/// unit ring, so sequential joins bisect the largest gaps and join
/// adopters spread uniformly.
fn ring_fraction(i: usize, n: usize) -> f64 {
    let bits = (usize::BITS - (n.max(2) - 1).leading_zeros()).max(1);
    let r = (i as u64).reverse_bits() >> (64 - bits);
    (r as f64 + 0.5) / (1u64 << bits) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ips_are_distinct_loopback() {
        assert_eq!(node_ip(0), Ipv4Addr::new(127, 0, 0, 1));
        assert_eq!(node_ip(1), Ipv4Addr::new(127, 0, 0, 2));
        assert_eq!(node_ip(255), Ipv4Addr::new(127, 0, 1, 0));
        assert_eq!(node_ip(999), Ipv4Addr::new(127, 0, 3, 232));
    }

    #[test]
    fn ring_fractions_are_distinct_and_spread() {
        for n in [2usize, 7, 64, 100, 256, 1000] {
            let mut fs: Vec<f64> = (0..n).map(|i| ring_fraction(i, n)).collect();
            fs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for w in fs.windows(2) {
                assert!(w[0] < w[1], "positions must be distinct (n={n})");
            }
            assert!(fs[0] >= 0.0 && *fs.last().unwrap() < 1.0);
            // Early spawns bisect: the first 4 positions of any large n
            // land in 4 different quarters of the ring.
            if n >= 8 {
                let quarters: std::collections::HashSet<u64> =
                    (0..4).map(|i| (ring_fraction(i, n) * 4.0) as u64).collect();
                assert_eq!(quarters.len(), 4, "first four spawns spread (n={n})");
            }
        }
    }
}
