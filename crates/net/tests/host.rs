//! The one host, through its public API: over the channel transport,
//! crash-stop, who reports the transport's metrics sheet, when the host
//! is done, and what a failed send does to the peer; over a reactor it
//! turns itself, what a reply costs (no wake, no tick), when co-hosted
//! nodes hear each other and how the host's last words get out.
//! (`many_nodes.rs` and `tcp_cluster.rs` cover whole clusters over real
//! sockets.)

use d2_net::runtime::TICK;
use d2_net::{Host, NodeSpec};
use d2_obs::Registry;
use d2_obs::TraceCtx;
use d2_ring::messages::{Addr, RingMsg};
use d2_types::Key;
use d2_wire::client::WireClient;
use d2_wire::codec::{Request, Response};
use d2_wire::metrics::NetMetrics;
use d2_wire::reactor::{TcpEndpoint, TcpReactor, FLUSH_TICK};
use d2_wire::tcp::{pack_addr, TcpConfig, TcpTransport};
use d2_wire::transport::{
    ChannelHub, ChannelTransport, Mailbox, RecvError, Transport, TransportError,
};
use d2_wire::WireMsg;
use parking_lot::Mutex;
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

const T: Duration = Duration::from_secs(5);

/// A channel hub, a host on it, and a client; `add` puts a node at
/// the next address.
struct Rig {
    hub: ChannelHub,
    host: Host<ChannelTransport>,
    sheet: Arc<NetMetrics>,
}

impl Rig {
    fn new() -> Rig {
        let sheet = Arc::new(NetMetrics::new());
        Rig {
            hub: ChannelHub::new(Arc::clone(&sheet)),
            host: Host::start(Arc::clone(&sheet), None).unwrap(),
            sheet,
        }
    }

    fn add(&self, frac: f64, seed: Option<Addr>) -> Addr {
        let ep = self.hub.open();
        let addr = ep.local_addr();
        let spec = NodeSpec::replicated(2).at(Key::from_fraction(frac), seed);
        self.host.add(spec, ep);
        addr
    }

    fn client(&self) -> WireClient<ChannelTransport> {
        WireClient::new(self.hub.open(), Arc::clone(&self.sheet))
    }
}

#[test]
fn crash_drops_the_node_without_a_shutdown_round_trip() {
    let rig = Rig::new();
    let a = rig.add(0.25, None);
    let b = rig.add(0.75, Some(a));
    let client = rig.client();
    assert!(matches!(
        client.call(b, Request::Status, T),
        Ok(Response::Status(_))
    ));
    rig.host.crash(b);
    // No settling: the address fails fast the moment crash returns.
    let probe = rig.hub.open();
    let msg = WireMsg::Request {
        req_id: 1,
        from: probe.local_addr(),
        body: Request::Status,
    };
    assert_eq!(probe.send(b, &msg), Err(TransportError::PeerUnreachable(b)));
    // The victim never saw a shutdown request; the survivor did not
    // stop with it.
    assert_eq!(rig.host.counts().0, 1);
    let dump = match client.call(a, Request::MetricsDump, T) {
        Ok(Response::Metrics(m)) => m.to_registry().unwrap(),
        other => panic!("no dump from the survivor: {other:?}"),
    };
    assert_eq!(dump.counter("node.msgs_in.shutdown"), 0);
    assert!(!rig.host.finished());
}

#[test]
fn a_node_reports_the_transport_sheet_only_while_it_has_it_to_itself() {
    let rig = Rig::new();
    let a = rig.add(0.25, None);
    let client = rig.client();
    let net_msgs = |node: Addr| match client.call(node, Request::MetricsDump, T) {
        Ok(Response::Metrics(m)) => m.to_registry().unwrap().counter("net.msgs"),
        other => panic!("no dump from {node}: {other:?}"),
    };
    // Warm the shared sheet, then read it back through the node.
    let _ = client.call(a, Request::Status, T);
    assert!(net_msgs(a) > 0, "a host of one folds net.* into its dump");
    let b = rig.add(0.75, Some(a));
    assert_eq!(net_msgs(a), 0, "two nodes would each report the total");
    assert_eq!(net_msgs(b), 0);
    rig.host.crash(b);
    assert!(net_msgs(a) > 0, "alone again");
}

#[test]
fn the_host_is_done_when_its_last_node_stops() {
    let rig = Rig::new();
    let a = rig.add(0.25, None);
    let b = rig.add(0.75, Some(a));
    let client = rig.client();
    for node in [b, a] {
        assert!(!rig.host.finished());
        assert!(matches!(
            client.call(node, Request::Shutdown, T),
            Ok(Response::ShutdownAck)
        ));
    }
    rig.host.join();
    assert_eq!(rig.host.counts(), (0, 0));
}

/// What a [`Tapped`] endpoint's owner sees of each send, and may fail.
type Tap = Box<dyn Fn(Addr, &WireMsg) -> Result<(), TransportError> + Send + Sync>;

/// An endpoint whose sends pass `tap` first.
struct Tapped<T> {
    inner: T,
    tap: Tap,
}

impl<T: Transport> Transport for Tapped<T> {
    fn local_addr(&self) -> Addr {
        self.inner.local_addr()
    }
    fn send_traced(&self, to: Addr, msg: &WireMsg, trace: TraceCtx) -> Result<(), TransportError> {
        (self.tap)(to, msg)?;
        self.inner.send_traced(to, msg, trace)
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<(WireMsg, TraceCtx), RecvError> {
        self.inner.recv_timeout(timeout)
    }
    fn set_mailbox(&self, mailbox: Mailbox) {
        self.inner.set_mailbox(mailbox)
    }
    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

#[test]
fn a_slow_peer_is_kept_and_a_dead_one_forgotten() {
    let sheet = Arc::new(NetMetrics::new());
    let hub = ChannelHub::new(Arc::clone(&sheet));
    let host: Host<Tapped<ChannelTransport>> = Host::start(Arc::clone(&sheet), None).unwrap();
    // Sends to one peer fail as `verdict` says.
    let verdict = Arc::new(Mutex::new(None));
    let add = |frac: f64, seed: Option<Addr>, verdict: &Arc<Mutex<Option<TransportError>>>| {
        let (inner, verdict) = (hub.open(), Arc::clone(verdict));
        let addr = inner.local_addr();
        let spec = NodeSpec::replicated(2).at(Key::from_fraction(frac), seed);
        let tap: Tap = Box::new(move |to, _| match *verdict.lock() {
            Some(e @ (TransportError::Backlogged(a) | TransportError::PeerUnreachable(a)))
                if a == to =>
            {
                Err(e)
            }
            _ => Ok(()),
        });
        host.add(spec, Tapped { inner, tap });
        addr
    };
    let a = add(0.25, None, &verdict);
    let b = add(0.75, Some(a), &Arc::default());
    let client = WireClient::new(hub.open(), sheet);
    // What `a` says of itself: whether `b` is a successor, and its sheet.
    let view = || -> (bool, Registry) {
        let Ok(Response::Status(st)) = client.call(a, Request::Status, T) else {
            panic!("no status from {a}");
        };
        let Ok(Response::Metrics(m)) = client.call(a, Request::MetricsDump, T) else {
            panic!("no dump from {a}");
        };
        let knows_b = st.successors.iter().any(|p| p.addr == b);
        (knows_b, m.to_registry().unwrap())
    };
    let wait_for = |what: &str, done: &dyn Fn(&(bool, Registry)) -> bool| {
        let deadline = Instant::now() + T;
        while !done(&view()) {
            assert!(Instant::now() < deadline, "never saw: {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    wait_for("b joins", &|v| v.0);
    // `b`'s queue is full: every probe `a` sends it is dropped, over
    // several tick rounds, and `b` stays where it was.
    *verdict.lock() = Some(TransportError::Backlogged(b));
    wait_for("dropped sends", &|v| {
        assert!(v.0, "a slow successor was evicted");
        v.1.counter("node.send_backlogged") >= 3
    });
    assert_eq!(view().1.counter("node.send_failures"), 0);
    // `b` dies (so it cannot announce itself again): the next probe
    // fails for good and `a` forgets it.
    *verdict.lock() = Some(TransportError::PeerUnreachable(b));
    host.crash(b);
    wait_for("b forgotten", &|v| !v.0);
    assert!(view().1.counter("node.send_failures") > 0);
}

/// A host of one node turning its own reactor (`sheet` is that
/// reactor's), and a client on a transport and a sheet of its own.
struct TcpRig {
    host: Host<TcpEndpoint>,
    _reactor: TcpReactor,
    node: Addr,
    sheet: Arc<NetMetrics>,
    client: WireClient<TcpTransport>,
}

fn tcp_transport() -> TcpTransport {
    let sheet = Arc::new(NetMetrics::new());
    TcpTransport::bind(Ipv4Addr::LOCALHOST, 0, TcpConfig::default(), sheet).unwrap()
}

fn tcp_host_of_one() -> TcpRig {
    let sheet = Arc::new(NetMetrics::new());
    let (ip, cfg) = (Ipv4Addr::LOCALHOST, TcpConfig::default());
    let (reactor, poller) = TcpReactor::bind(ip, 0, cfg, Arc::clone(&sheet)).unwrap();
    let host = Host::start(Arc::clone(&sheet), Some(poller)).unwrap();
    let ep = reactor.open(ip).unwrap();
    let node = ep.local_addr();
    host.add(
        NodeSpec::replicated(1).at(Key::from_fraction(0.5), None),
        ep,
    );
    TcpRig {
        host,
        _reactor: reactor,
        node,
        sheet,
        client: WireClient::new(tcp_transport(), Arc::new(NetMetrics::new())),
    }
}

#[test]
fn a_reply_from_a_host_that_turns_its_reactor_needs_no_wake() {
    let rig = tcp_host_of_one();
    let status = || {
        matches!(
            rig.client.call(rig.node, Request::Status, T),
            Ok(Response::Status(_))
        )
    };
    // The node counts a write just after it makes it, which can be
    // just after its reply is read here.
    let settled = || {
        std::thread::sleep(Duration::from_millis(10));
        rig.sheet.snapshot()
    };
    assert!(status(), "warm-up: both sides dial");
    let before = settled();
    // Only the client's callers wait for a tick: a round trip is one,
    // where a node that ticked too made it two. A stolen core spoils
    // any one batch, so the best of five counts.
    let timed = || {
        let t0 = Instant::now();
        assert!(status());
        t0.elapsed()
    };
    let mut medians = [(); 5].map(|_| {
        let mut rtts: Vec<Duration> = (0..200).map(|_| timed()).collect();
        rtts.sort();
        rtts[rtts.len() / 2]
    });
    medians.sort();
    assert!(medians[0] < FLUSH_TICK * 3 / 2, "they took {medians:?}");
    let after = settled();
    let grew = |key: &str| after.counter(key) - before.counter(key);
    assert_eq!(grew("net.msgs_out"), 1_000);
    // The thread that queued the reply is the one that flushes it,
    // when it turns next: one write per reply, none of them a tick's.
    assert_eq!(grew("net.wake_writes"), 0);
    assert_eq!(grew("net.flush_ticks"), 0);
    let waits = after.histogram("net.flush_wait_us").unwrap().count();
    assert_eq!(
        waits - before.histogram("net.flush_wait_us").unwrap().count(),
        1_000
    );
}

#[test]
fn co_hosted_nodes_answer_a_tick_round_before_the_host_sleeps() {
    let sheet = Arc::new(NetMetrics::new());
    let (ip, cfg) = (Ipv4Addr::UNSPECIFIED, TcpConfig::default());
    let (reactor, poller) = TcpReactor::bind(ip, 0, cfg, Arc::clone(&sheet)).unwrap();
    let host: Host<Tapped<TcpEndpoint>> = Host::start(sheet, Some(poller)).unwrap();
    // From the last neighbor probe, which a tick round sends, to each
    // answer to one. No socket carries anything: the two nodes
    // talk over the reactor's loopback, and nobody else talks to them.
    let asked = Arc::new(Mutex::new(None::<Instant>));
    let lags = Arc::new(Mutex::new(Vec::new()));
    let mut seed = None;
    for (i, frac) in [(1, 0.25), (2, 0.75)] {
        let inner = reactor.open(Ipv4Addr::new(127, 0, 0, i)).unwrap();
        let spec = NodeSpec::replicated(2).at(Key::from_fraction(frac), seed);
        seed = Some(inner.local_addr());
        let (asked, lags) = (Arc::clone(&asked), Arc::clone(&lags));
        let tap: Tap = Box::new(move |_, msg| {
            match msg {
                WireMsg::Ring(RingMsg::GetNeighbors { .. }) => *asked.lock() = Some(Instant::now()),
                WireMsg::Ring(RingMsg::Neighbors { .. }) => {
                    lags.lock().extend(asked.lock().map(|at| at.elapsed()))
                }
                _ => {}
            }
            Ok(())
        });
        host.add(spec, Tapped { inner, tap });
    }
    let deadline = Instant::now() + T;
    while lags.lock().len() < 20 {
        assert!(Instant::now() < deadline, "the nodes never probed");
        std::thread::sleep(TICK);
    }
    // A host that slept on its sockets first would answer a whole tick
    // period late, every time; a stolen core delays a few.
    let mut lags = lags.lock().clone();
    lags.sort();
    let median = lags[lags.len() / 2];
    assert!(median < TICK / 4, "answered {median:?} after the probe");
}

#[test]
fn a_host_of_one_gets_its_shutdown_ack_out_and_a_stalled_peer_cannot_hold_it() {
    let rig = tcp_host_of_one();
    // A peer that completes the handshake and never reads.
    let stall = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let SocketAddr::V4(stalled) = stall.local_addr().unwrap() else {
        unreachable!();
    };
    // Park more reply bytes on it than its socket and the node's
    // pending queue hold: a 1 MiB block, asked for in its name.
    let key = Key::from_u64(7);
    let put = Request::Put {
        key,
        fanout: 0,
        stored: 0,
        data: vec![0xD2; 1 << 20],
    };
    assert_eq!(
        rig.client.call(rig.node, put, T),
        Ok(Response::PutAck { replicas: 1 })
    );
    let spoof = tcp_transport();
    for req_id in 0..48 {
        let get = WireMsg::Request {
            req_id,
            from: pack_addr(stalled),
            body: Request::Get { key },
        };
        spoof.send(rig.node, &get).unwrap();
    }
    let deadline = Instant::now() + T;
    while rig.sheet.snapshot().counter("net.backlog_drops") == 0 {
        assert!(
            Instant::now() < deadline,
            "the stalled peer never backed up"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // The ack is queued when the node stops, and still reaches us.
    assert_eq!(
        rig.client.call(rig.node, Request::Shutdown, T),
        Ok(Response::ShutdownAck)
    );
    // The stuck frames get the drain's half second, no more.
    let t0 = Instant::now();
    rig.host.join();
    let took = t0.elapsed();
    assert!(
        took > Duration::from_millis(400),
        "nothing was stuck: {took:?}"
    );
    assert!(took < Duration::from_secs(3), "exit took {took:?}");
    assert!(rig.host.finished());
}
