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
use d2_obs::TraceCtx;
use d2_ring::messages::Addr;
use parking_lot::{Mutex, RwLock};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

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

/// A failed or timed-out receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout.
    Timeout,
    /// This transport has been shut down.
    Closed,
}

/// Message transport between nodes: the seam that lets the same
/// deployment run over in-process channels (deterministic tests) or TCP
/// sockets (real multi-process clusters).
///
/// Implementations must be usable from multiple threads: one thread
/// blocks in [`Transport::recv_timeout`] while others call
/// [`Transport::send`].
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

    /// Receives the next message and its envelope trace context,
    /// waiting at most `timeout`.
    fn recv_timeout(&self, timeout: Duration) -> Result<(WireMsg, TraceCtx), RecvError>;

    /// Redirects this endpoint's inbound messages into `mailbox`, which
    /// runs on whichever thread decoded or sent them — a client's reply
    /// router, or the queue a host feeds every node it steps from,
    /// routing by the [`Delivery`] address. `recv_timeout` reports
    /// `Closed` from then on.
    fn set_mailbox(&self, mailbox: Mailbox);

    /// Stops the transport: wakes blocked receivers and releases
    /// sockets/threads. Idempotent.
    fn shutdown(&self);
}

/// One delivered message: the local address it arrived for — which
/// endpoint, when several share a queue — plus the message and its
/// trace context.
pub type Delivery = (Addr, WireMsg, TraceCtx);

/// Where an endpoint's inbound messages go: a private channel
/// ([`channel_mailbox`]) or whatever [`Transport::set_mailbox`]
/// installed. Returns `false` once the receiving side is gone.
pub type Mailbox = Arc<dyn Fn(Delivery) -> bool + Send + Sync>;

/// A mailbox feeding a private channel, and the channel's read end.
pub fn channel_mailbox() -> (Mailbox, mpsc::Receiver<Delivery>) {
    let (tx, rx) = mpsc::channel();
    (Arc::new(move |d| tx.send(d).is_ok()), rx)
}

/// The shared address space of one in-process channel deployment.
///
/// Every [`ChannelTransport`] opened from the same hub gets the next
/// integer [`Addr`]; sends look the destination's [`Mailbox`] up in the
/// shared table. [`ChannelHub::close`] empties a slot so that later
/// sends to a killed node fail fast, exactly like a refused TCP
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

    /// Opens a new endpoint with the next free address and a private
    /// mailbox, until [`Transport::set_mailbox`] says otherwise.
    pub fn open(&self) -> ChannelTransport {
        let (mailbox, rx) = channel_mailbox();
        let mut slots = self.slots.write();
        slots.push(Some(mailbox));
        ChannelTransport {
            me: slots.len() - 1,
            hub: self.clone(),
            rx: Mutex::new(rx),
        }
    }

    /// Closes `addr`'s slot: subsequent sends to it fail fast. The
    /// endpoint itself keeps its already-queued messages.
    pub fn close(&self, addr: Addr) {
        if let Some(slot) = self.slots.write().get_mut(addr) {
            *slot = None;
        }
    }
}

/// An in-process, deterministic transport over `std::sync::mpsc`
/// channels, used by the channel deployment and by tests.
pub struct ChannelTransport {
    me: Addr,
    hub: ChannelHub,
    rx: Mutex<mpsc::Receiver<Delivery>>,
}

impl Transport for ChannelTransport {
    fn local_addr(&self) -> Addr {
        self.me
    }

    fn send_traced(&self, to: Addr, msg: &WireMsg, trace: TraceCtx) -> Result<(), TransportError> {
        let mailbox = self.hub.slots.read().get(to).cloned().flatten();
        if !mailbox.is_some_and(|deliver| deliver((to, msg.clone(), trace))) {
            return Err(TransportError::PeerUnreachable(to));
        }
        // In-process: sent is received.
        self.hub.metrics.frame_out(0);
        self.hub.metrics.frame_in(0);
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(WireMsg, TraceCtx), RecvError> {
        match self.rx.lock().recv_timeout(timeout) {
            Ok((_, msg, trace)) => Ok((msg, trace)),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(RecvError::Closed),
        }
    }

    fn set_mailbox(&self, mailbox: Mailbox) {
        if let Some(slot @ Some(_)) = self.hub.slots.write().get_mut(self.me) {
            *slot = Some(mailbox);
        }
    }

    fn shutdown(&self) {
        self.hub.close(self.me);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Request;

    fn msg(req_id: u64) -> WireMsg {
        WireMsg::Request {
            req_id,
            from: 0,
            body: Request::Status,
        }
    }

    #[test]
    fn channel_transport_delivers_in_order() {
        let hub = ChannelHub::new(Arc::new(NetMetrics::new()));
        let a = hub.open();
        let b = hub.open();
        assert_eq!(a.local_addr(), 0);
        assert_eq!(b.local_addr(), 1);
        a.send(1, &msg(1)).unwrap();
        let ctx = TraceCtx::root(0xAB).child(7);
        a.send_traced(1, &msg(2), ctx).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap(),
            (msg(1), TraceCtx::NONE)
        );
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap(),
            (msg(2), ctx)
        );
        assert_eq!(
            b.recv_timeout(Duration::from_millis(10)),
            Err(RecvError::Timeout)
        );
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
