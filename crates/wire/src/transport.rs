//! The [`Transport`] abstraction and its deterministic in-process
//! implementation, [`ChannelTransport`].
//!
//! A transport moves [`WireMsg`]s between [`Addr`]s and nothing more: the
//! protocol state machine above it ([`d2_ring::node::ProtocolNode`])
//! neither knows nor cares whether a hop is a channel push or a TCP
//! frame. Sends are *fail-fast*: a send to a dead peer returns
//! [`TransportError::PeerUnreachable`] promptly (closed channel slot, or
//! refused/backed-off connection) so the caller can evict the peer and
//! reroute instead of blocking.

use crate::codec::WireMsg;
use crate::metrics::NetMetrics;
use crate::{read_lock, write_lock};
use d2_obs::TraceCtx;
use d2_ring::messages::Addr;
use std::sync::{mpsc, Arc, RwLock};

/// A failed send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The destination is not reachable right now (dead, refused, or in
    /// reconnect backoff). Callers should treat the peer as suspect.
    PeerUnreachable(Addr),
    /// The destination is connected but not draining: its bounded send
    /// queue is full and this message was dropped. "Peer slow", not
    /// "peer dead" — though a peer that stays slow is as good as dead.
    Backlogged(Addr),
    /// This transport has been shut down.
    Closed,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerUnreachable(a) => write!(f, "peer {a} unreachable"),
            TransportError::Backlogged(a) => write!(f, "peer {a} backlogged"),
            TransportError::Closed => write!(f, "transport closed"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Message transport between nodes: the seam that lets the same
/// deployment run over in-process channels (deterministic tests) or TCP
/// sockets (real multi-process clusters).
///
/// Implementations must be usable from multiple threads: any thread
/// may call [`Transport::send`], and inbound messages reach whatever
/// [`Mailbox`] the owner installed, on the thread that decoded or sent
/// them.
pub trait Transport: Send + Sync + 'static {
    /// This endpoint's own address (where peers reach it).
    fn local_addr(&self) -> Addr;

    /// Sends `msg` to `to` carrying `trace` in the envelope, failing
    /// fast when the peer is unreachable.
    fn send_traced(&self, to: Addr, msg: &WireMsg, trace: TraceCtx) -> Result<(), TransportError>;

    /// Sends `msg` untraced. Equivalent to [`Transport::send_traced`]
    /// with [`TraceCtx::NONE`].
    fn send(&self, to: Addr, msg: &WireMsg) -> Result<(), TransportError> {
        self.send_traced(to, msg, TraceCtx::NONE)
    }

    /// Delivers this endpoint's inbound messages into `mailbox`, which
    /// runs on whichever thread decoded or sent them — a client's reply
    /// router, or the queue a host feeds every node it steps from,
    /// routing by the [`Delivery`] address. An endpoint drops what
    /// arrives before its owner calls this, so owners call it as soon
    /// as the endpoint exists, before they send.
    fn set_mailbox(&self, mailbox: Mailbox);

    /// Stops the transport: its address stops resolving, and sockets
    /// and threads are released. Idempotent.
    fn shutdown(&self);
}

/// One delivered message: the local address it arrived for — which
/// endpoint, when several share a queue — plus the message and its
/// trace context.
pub type Delivery = (Addr, WireMsg, TraceCtx);

/// Where an endpoint's inbound messages go: whatever
/// [`Transport::set_mailbox`] installed. Returns `false` once the
/// receiving side is gone.
pub type Mailbox = Arc<dyn Fn(Delivery) -> bool + Send + Sync>;

/// A mailbox feeding a channel, and the channel's read end.
pub fn channel_mailbox() -> (Mailbox, mpsc::Receiver<Delivery>) {
    let (tx, rx) = mpsc::channel();
    (Arc::new(move |d| tx.send(d).is_ok()), rx)
}

/// The mailbox an endpoint opens with: it drops what arrives until
/// [`Transport::set_mailbox`] replaces it.
pub(crate) fn discard() -> Mailbox {
    Arc::new(|_| true)
}

/// The shared address space of one in-process channel deployment.
///
/// Every [`ChannelTransport`] opened from the same hub gets the next
/// integer [`Addr`]; sends look the destination's [`Mailbox`] up in the
/// shared table. An endpoint's [`Transport::shutdown`] empties its
/// slot so that later sends to it fail fast, exactly like a refused TCP
/// connection.
#[derive(Clone, Default)]
pub struct ChannelHub {
    slots: Arc<RwLock<Vec<Option<Mailbox>>>>,
    metrics: Arc<NetMetrics>,
}

impl ChannelHub {
    /// Creates an empty hub recording into `metrics`.
    pub fn new(metrics: Arc<NetMetrics>) -> Self {
        ChannelHub {
            slots: Arc::default(),
            metrics,
        }
    }

    /// Opens a new endpoint with the next free address; it drops what
    /// arrives until [`Transport::set_mailbox`] gives it a mailbox.
    pub fn open(&self) -> ChannelTransport {
        let mut slots = write_lock(&self.slots);
        slots.push(Some(discard()));
        ChannelTransport {
            me: slots.len() - 1,
            hub: self.clone(),
        }
    }
}

/// An in-process, deterministic transport: a send runs the
/// destination's mailbox on the sender's thread. Used by the channel
/// deployment and by tests.
pub struct ChannelTransport {
    me: Addr,
    hub: ChannelHub,
}

impl Transport for ChannelTransport {
    fn local_addr(&self) -> Addr {
        self.me
    }

    fn send_traced(&self, to: Addr, msg: &WireMsg, trace: TraceCtx) -> Result<(), TransportError> {
        let mailbox = read_lock(&self.hub.slots).get(to).cloned().flatten();
        if !mailbox.is_some_and(|deliver| deliver((to, msg.clone(), trace))) {
            return Err(TransportError::PeerUnreachable(to));
        }
        // In-process: sent is received.
        self.hub.metrics.frame_out(0);
        self.hub.metrics.frame_in(0);
        Ok(())
    }

    fn set_mailbox(&self, mailbox: Mailbox) {
        if let Some(slot @ Some(_)) = write_lock(&self.hub.slots).get_mut(self.me) {
            *slot = Some(mailbox);
        }
    }

    fn shutdown(&self) {
        write_lock(&self.hub.slots)[self.me] = None;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codec::Request;
    use crate::reactor::TcpReactor;
    use crate::tcp::{TcpConfig, TcpTransport};
    use std::net::Ipv4Addr;
    use std::time::{Duration, Instant};

    /// Installs a channel mailbox on `t` and returns its read end.
    pub(crate) fn inbox(t: &impl Transport) -> mpsc::Receiver<Delivery> {
        let (mailbox, rx) = channel_mailbox();
        t.set_mailbox(mailbox);
        rx
    }

    /// Socket-level metrics are counted by the poller thread, so they
    /// trail message delivery slightly; spin until `key` reaches
    /// `want` (all tests assert *final* values).
    pub(crate) fn wait_counter(m: &NetMetrics, key: &str, want: u64) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let got = m.snapshot().counter(key);
            if got >= want || Instant::now() > deadline {
                return got;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn msg(req_id: u64) -> WireMsg {
        WireMsg::Request {
            req_id,
            from: 0,
            body: Request::Status,
        }
    }

    /// What every transport promises, over `a` and `b`: messages reach
    /// the installed mailbox in order, each with its trace context, both
    /// ways; once `b` has shut down, a send to it fails fast with
    /// `PeerUnreachable`. `counted` checks the `net.*` counters after
    /// the three messages.
    fn keeps_the_contract<T: Transport>(a: T, b: T, counted: impl Fn()) {
        let (a_in, b_in) = (inbox(&a), inbox(&b));
        let (to_a, to_b) = (a.local_addr(), b.local_addr());
        let ctx = TraceCtx::root(0x5151).child(0x99);
        a.send(to_b, &msg(1)).unwrap();
        a.send_traced(to_b, &msg(2), ctx).unwrap();
        // Replies flow the other way (over TCP, on b's own connection).
        b.send(to_a, &msg(3)).unwrap();
        let next = |rx: &mpsc::Receiver<Delivery>| rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(next(&b_in), Ok((to_b, msg(1), TraceCtx::NONE)));
        assert_eq!(next(&b_in), Ok((to_b, msg(2), ctx)));
        assert_eq!(next(&a_in), Ok((to_a, msg(3), TraceCtx::NONE)));
        counted();
        b.shutdown();
        // Over a socket, a send can still queue on a's pooled connection
        // until its poller reads b's close.
        let t0 = Instant::now();
        let refused = loop {
            if let Err(e) = a.send(to_b, &msg(4)) {
                break e;
            }
            assert!(t0.elapsed() < Duration::from_secs(5), "b never refused");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(refused, TransportError::PeerUnreachable(to_b));
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        a.shutdown();
    }

    #[test]
    fn every_transport_keeps_the_contract() {
        let hub = ChannelHub::new(Arc::new(NetMetrics::new()));
        keeps_the_contract(hub.open(), hub.open(), || {});
        // Two endpoints of one reactor: the loopback fast path, which
        // must not skew mean-frame-size math (bytes / msgs) with
        // zero-byte phantom frames. Its listener answers every loopback
        // address, as `serve-many`'s does, so b's address still dials
        // it once b has shut down: the closed endpoint itself refuses.
        let (ip, cfg, m) = (
            Ipv4Addr::LOCALHOST,
            TcpConfig::default(),
            Arc::new(NetMetrics::new()),
        );
        let (reactor, poller) =
            TcpReactor::bind(Ipv4Addr::UNSPECIFIED, 0, cfg, Arc::clone(&m)).unwrap();
        poller.spawn().unwrap();
        let (a, b) = (reactor.open(ip), reactor.open(Ipv4Addr::new(127, 0, 0, 2)));
        keeps_the_contract(a.unwrap(), b.unwrap(), || {
            let reg = m.snapshot();
            assert_eq!(reg.counter("net.loopback_msgs"), 3);
            for key in ["net.msgs", "net.bytes_out", "net.bytes_in"] {
                assert_eq!(reg.counter(key), 0, "{key}");
            }
        });
        let m = Arc::new(NetMetrics::new());
        let bind = || TcpTransport::bind(ip, 0, cfg, Arc::clone(&m)).unwrap();
        keeps_the_contract(bind(), bind(), || {
            assert_eq!(wait_counter(&m, "net.msgs", 6), 6);
            let reg = m.snapshot();
            assert!(reg.counter("net.bytes_out") > 0);
            assert!(reg.counter("net.bytes_in") > 0);
        });
    }

    #[test]
    fn closed_slot_fails_fast() {
        let metrics = Arc::new(NetMetrics::new());
        let hub = ChannelHub::new(metrics.clone());
        let a = hub.open();
        let b = hub.open();
        b.shutdown();
        drop(b);
        assert_eq!(a.send(1, &msg(1)), Err(TransportError::PeerUnreachable(1)));
        assert_eq!(
            a.send(7, &msg(1)),
            Err(TransportError::PeerUnreachable(7)),
            "unknown addr fails fast too"
        );
    }
}
