//! Real TCP transport over `std::net`, event-loop edition.
//!
//! [`TcpTransport`] is a client's transport: a [`TcpReactor`] with a
//! single registered endpoint, its poller on a thread of its own
//! (blocked in `ppoll(2)`, driving every accept, read, and buffered
//! write — see [`crate::reactor`] for the architecture; node hosts use
//! the reactor directly and turn the poller themselves).
//!
//! Sends are queued per peer and written by the poller in coalesced
//! batches: a client's callers' on the flush tick
//! ([`crate::reactor::FLUSH_TICK`]), a host's own when it turns next. A
//! queued frame can still be lost with its connection, as with TCP's
//! own kernel buffers ([`crate::reactor`] has the contract and the rule).
//! Dead peers fail fast: dialing happens inline on the sender's thread
//! (bounded by [`TcpConfig::connect_timeout`]), and a reconnect-backoff
//! circuit breaker ([`d2_ring::RetryPolicy`]) rejects sends without
//! touching the network while a peer is inside its backoff window.
//!
//! Addresses need no directory: on IPv4 the logical [`Addr`] *is* the
//! socket address, bijectively packed as `(ip << 16) | port` (48 bits,
//! see [`pack_addr`]), so any peer a ring message mentions is routable.
//!
//! The TCP transport is Linux-only: it calls `ppoll(2)` through a local
//! declaration with 64-bit Linux's layouts (`sys.rs`, the crate's
//! single `unsafe` block), and virtual endpoints rely on Linux routing
//! all of `127/8` to loopback. The channel transport is portable.

use crate::metrics::NetMetrics;
use crate::reactor::{TcpEndpoint, TcpReactor};
use crate::transport::{Mailbox, RecvError, Transport, TransportError};
use crate::WireMsg;
use d2_obs::TraceCtx;
use d2_ring::messages::Addr;
use d2_ring::RetryPolicy;
use std::io;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::Duration;

/// Packs an IPv4 socket address into a logical [`Addr`]:
/// `(ip as u32) << 16 | port`, a bijection, so every peer a ring
/// message mentions is routable without a membership directory.
pub fn pack_addr(sock: SocketAddrV4) -> Addr {
    const {
        assert!(
            usize::BITS >= 64,
            "TCP addr packing needs 64-bit usize (32-bit IP + 16-bit port)"
        )
    };
    ((u32::from(*sock.ip()) as usize) << 16) | sock.port() as usize
}

/// Inverse of [`pack_addr`].
pub fn unpack_addr(addr: Addr) -> SocketAddrV4 {
    SocketAddrV4::new(Ipv4Addr::from((addr >> 16) as u32), (addr & 0xffff) as u16)
}

/// Tuning knobs for [`TcpTransport`] / [`TcpReactor`].
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// How long a sender's inline dial waits for a connection attempt.
    pub connect_timeout: Duration,
    /// Per-peer cap on queued-but-unsent bytes: once a peer that stopped
    /// draining its socket backs up this far, further sends fail fast
    /// with `Backlogged` instead of buffering without limit.
    pub max_pending_bytes: usize,
    /// Reconnect backoff schedule, reusing the churn retry policy: after
    /// `n` consecutive failures the next attempt waits
    /// [`RetryPolicy::backoff_us`]`(n)` microseconds; sends inside that
    /// window fail fast without touching the network.
    pub retry: RetryPolicy,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_millis(250),
            max_pending_bytes: 8 << 20,
            retry: RetryPolicy {
                max_retries: u32::MAX, // reconnect forever; the breaker paces it
                hop_timeout_us: 250_000,
                backoff_base_us: 50_000,
                backoff_cap_us: 1_000_000,
            },
        }
    }
}

/// A message transport over real TCP sockets: a [`TcpReactor`] with one
/// registered endpoint. Two threads total (the caller's and the
/// poller's), regardless of how many peers connect.
pub struct TcpTransport {
    reactor: TcpReactor,
    primary: TcpEndpoint,
}

impl TcpTransport {
    /// Binds a listener on `ip:port` (port 0 picks a free port) and
    /// starts the poller. The transport's [`Addr`] is derived from the
    /// actual bound address.
    pub fn bind(
        ip: Ipv4Addr,
        port: u16,
        cfg: TcpConfig,
        metrics: std::sync::Arc<NetMetrics>,
    ) -> io::Result<TcpTransport> {
        let (reactor, poller) = TcpReactor::bind(ip, port, cfg, metrics)?;
        poller.spawn()?;
        let primary = reactor.open(ip)?;
        Ok(TcpTransport { reactor, primary })
    }

    /// The socket address peers should connect to.
    pub fn socket_addr(&self) -> SocketAddrV4 {
        unpack_addr(self.primary.local_addr())
    }
}

impl Transport for TcpTransport {
    fn local_addr(&self) -> Addr {
        self.primary.local_addr()
    }

    fn send_traced(&self, to: Addr, msg: &WireMsg, trace: TraceCtx) -> Result<(), TransportError> {
        self.primary.send_traced(to, msg, trace)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(WireMsg, TraceCtx), RecvError> {
        self.primary.recv_timeout(timeout)
    }

    fn set_mailbox(&self, mailbox: Mailbox) {
        self.primary.set_mailbox(mailbox)
    }

    fn shutdown(&self) {
        self.reactor.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Request;
    use std::io::Write;
    use std::net::{SocketAddr, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    fn bind(m: &Arc<NetMetrics>) -> TcpTransport {
        TcpTransport::bind(Ipv4Addr::LOCALHOST, 0, TcpConfig::default(), m.clone()).unwrap()
    }

    fn msg(req_id: u64) -> WireMsg {
        WireMsg::Request {
            req_id,
            from: 1,
            body: Request::Get {
                key: d2_types::Key::from_u64(req_id),
            },
        }
    }

    /// Socket-level metrics are counted by the poller thread, so they
    /// trail message delivery slightly; spin until `key` reaches
    /// `want` (all tests assert *final* values).
    fn wait_counter(m: &NetMetrics, key: &str, want: u64) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let got = m.snapshot().counter(key);
            if got >= want || Instant::now() > deadline {
                return got;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn addr_packing_is_bijective() {
        for (ip, port) in [
            (Ipv4Addr::LOCALHOST, 1u16),
            (Ipv4Addr::new(10, 1, 2, 3), 65535),
            (Ipv4Addr::new(255, 255, 255, 255), 0),
        ] {
            let sock = SocketAddrV4::new(ip, port);
            assert_eq!(unpack_addr(pack_addr(sock)), sock);
        }
    }

    #[test]
    fn two_transports_exchange_frames() {
        let m = Arc::new(NetMetrics::new());
        let a = bind(&m);
        let b = bind(&m);
        a.send(b.local_addr(), &msg(1)).unwrap();
        let ctx = TraceCtx::root(0x5151).child(0x99);
        a.send_traced(b.local_addr(), &msg(2), ctx).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(5)).unwrap(),
            (msg(1), TraceCtx::NONE)
        );
        // The trace context survives the socket round trip.
        assert_eq!(
            b.recv_timeout(Duration::from_secs(5)).unwrap(),
            (msg(2), ctx)
        );
        // Replies flow over b's own outbound connection.
        b.send(a.local_addr(), &msg(3)).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(5)).unwrap(),
            (msg(3), TraceCtx::NONE)
        );
        assert_eq!(wait_counter(&m, "net.msgs", 6), 6);
        let reg = m.snapshot();
        assert!(reg.counter("net.bytes_out") > 0);
        assert!(reg.counter("net.bytes_in") > 0);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn loopback_counts_separately_from_wire_traffic() {
        let m = Arc::new(NetMetrics::new());
        let a = bind(&m);
        a.send(a.local_addr(), &msg(7)).unwrap();
        a.send(a.local_addr(), &msg(8)).unwrap();
        assert_eq!(a.recv_timeout(Duration::from_secs(5)).unwrap().0, msg(7));
        assert_eq!(a.recv_timeout(Duration::from_secs(5)).unwrap().0, msg(8));
        let reg = m.snapshot();
        // No sockets were involved: loopback must not skew mean-frame-size
        // math (bytes / msgs) with zero-byte phantom frames.
        assert_eq!(reg.counter("net.loopback_msgs"), 2);
        assert_eq!(reg.counter("net.msgs"), 0);
        assert_eq!(reg.counter("net.bytes_out"), 0);
        assert_eq!(reg.counter("net.bytes_in"), 0);
        a.shutdown();
    }

    #[test]
    fn dead_peer_fails_fast_and_backs_off() {
        let m = Arc::new(NetMetrics::new());
        let a = bind(&m);
        let b = bind(&m);
        let dead = b.local_addr();
        b.shutdown();
        drop(b);
        assert_eq!(
            a.send(dead, &msg(1)),
            Err(TransportError::PeerUnreachable(dead))
        );
        // Inside the backoff window the breaker fails without connecting.
        let t0 = Instant::now();
        assert_eq!(
            a.send(dead, &msg(2)),
            Err(TransportError::PeerUnreachable(dead))
        );
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "breaker must fail fast"
        );
        a.shutdown();
    }

    #[test]
    fn reconnect_after_peer_restarts() {
        let m = Arc::new(NetMetrics::new());
        let a = bind(&m);
        let b = bind(&m);
        let b_sock = b.socket_addr();
        let b_addr = b.local_addr();
        a.send(b_addr, &msg(1)).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().0, msg(1));
        b.shutdown();
        drop(b);
        // The pooled stream is stale; the first sends fail (EOF probe or
        // write error), opening the breaker.
        while a.send(b_addr, &msg(2)) == Ok(()) {
            std::thread::sleep(Duration::from_millis(10));
        }
        // Peer comes back on the same port.
        let b2 = TcpTransport::bind(*b_sock.ip(), b_sock.port(), TcpConfig::default(), m.clone())
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if a.send(b_addr, &msg(3)).is_ok() {
                break;
            }
            assert!(Instant::now() < deadline, "never reconnected");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(b2.recv_timeout(Duration::from_secs(5)).unwrap().0, msg(3));
        a.shutdown();
        b2.shutdown();
    }

    #[test]
    fn garbage_connection_is_dropped_not_fatal() {
        let m = Arc::new(NetMetrics::new());
        let a = bind(&m);
        let mut s = TcpStream::connect(SocketAddr::V4(a.socket_addr())).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        drop(s);
        // The garbage costs its connection; real traffic still flows.
        let b = bind(&m);
        b.send(a.local_addr(), &msg(9)).unwrap();
        assert_eq!(a.recv_timeout(Duration::from_secs(5)).unwrap().0, msg(9));
        assert!(wait_counter(&m, "net.decode_errors", 1) >= 1);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn survives_peer_reconnect_storm() {
        // Connection churn regression: a peer restarting on the same port
        // over and over must never wedge the sender's transport.
        let m = Arc::new(NetMetrics::new());
        let a = bind(&m);
        // Pin a port by binding once, then reuse it each generation.
        let b0 = bind(&m);
        let b_sock = b0.socket_addr();
        let b_addr = b0.local_addr();
        drop(b0);
        for generation in 0..10u64 {
            let b =
                TcpTransport::bind(*b_sock.ip(), b_sock.port(), TcpConfig::default(), m.clone())
                    .unwrap();
            // Sends may fail while the breaker from the previous
            // generation's death is open; retry until this generation
            // hears us.
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                let _ = a.send(b_addr, &msg(generation));
                match b.recv_timeout(Duration::from_millis(50)) {
                    Ok((got, _)) => {
                        assert_eq!(got, msg(generation));
                        break;
                    }
                    Err(_) => assert!(
                        Instant::now() < deadline,
                        "generation {generation} never heard from sender"
                    ),
                }
            }
            b.shutdown();
        }
        assert!(m.snapshot().counter("net.reconnects") >= 5);
        a.shutdown();
    }
}
