//! Per-connection read/write state machines for the reactor.
//!
//! The poller thread ([`crate::reactor`]) owns every socket of a
//! transport and, whenever `ppoll(2)` reports one ready, drives it
//! through a small state machine instead of parking a thread on it:
//!
//! - [`InboundConn`] accumulates bytes across readiness events and
//!   decodes complete frames. A frame may arrive split across
//!   arbitrarily many reads (TCP guarantees nothing about boundaries);
//!   the tail that does not end on a frame boundary is carried in a
//!   per-connection buffer until the next readable event.
//! - [`OutboundConn`] owns the *carry buffer* for writes the socket
//!   would not accept in one go: when the kernel send buffer fills
//!   (`WouldBlock` mid-batch), the unwritten suffix stays in the carry
//!   and the poller asks for writability (`POLLOUT`) until it drains,
//!   so a stalled peer never blocks the poller thread — it merely
//!   stops consuming its own pending queue.
//!
//! Both are generic over the byte stream (`io::Read` / `io::Write`): a
//! nonblocking `TcpStream` in production, and in `tests/conn_script.rs`
//! a script of short reads, `WouldBlock`s, short writes and resets.

use crate::codec::{self, HEADER_LEN};
use crate::metrics::NetMetrics;
use crate::transport::Mailbox;
use d2_ring::messages::Addr;
use std::io::{self, Read, Write};
use std::time::Instant;

/// What one read pass left a connection in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// Still usable; wait for the next readiness event.
    Open,
    /// The connection is dead — EOF, a hard IO error, or protocol
    /// garbage (the stream cannot be resynchronized) — and must be
    /// dropped by the caller.
    Closed,
}

/// Encoded-but-unsent frames for one peer, appended by senders under a
/// short lock ([`crate::reactor`] owns one per peer slot). The poller
/// swaps the whole buffer into an [`OutboundConn`] carry and writes it
/// as one batch — the PR 7 combining-lock write path, with the poller
/// as the one designated drainer.
#[derive(Default)]
pub struct PendingFrames {
    /// Concatenated encoded frames awaiting the poller.
    pub buf: Vec<u8>,
    /// How many frames `buf` currently holds.
    pub frames: u64,
    /// When the oldest of them was queued: `net.flush_wait_us` runs
    /// from here to the write that carries it.
    pub since: Option<Instant>,
}

/// The read state machine for one accepted connection.
pub struct InboundConn<S> {
    stream: S,
    dst: Addr,
    /// Unconsumed tail of the byte stream: bytes after the last
    /// complete frame boundary, carried across readiness events.
    buf: Vec<u8>,
}

impl<S: Read> InboundConn<S> {
    /// Wraps a freshly accepted nonblocking stream. `dst` is the local
    /// address the remote dialed (packed), used by the poller as the
    /// demux key selecting which endpoint mailbox receives the frames.
    pub fn new(stream: S, dst: Addr) -> InboundConn<S> {
        InboundConn {
            stream,
            dst,
            buf: Vec::new(),
        }
    }

    /// The underlying stream (the poller needs its descriptor).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// The packed local address the remote dialed — which virtual
    /// endpoint this connection's frames are for.
    pub fn dst(&self) -> Addr {
        self.dst
    }

    /// Reads once (into `scratch`, a shared read buffer), decodes every
    /// complete frame, and delivers each to `tx` (`None`: an
    /// unregistered endpoint, decode and drop). One `scratch`-ful per
    /// readiness event, not everything the socket holds: `ppoll` is
    /// level-triggered, so the rest reports ready again, and meanwhile
    /// the endpoint's queue holds a bounded burst and the other
    /// connections get their turn. Returns [`ConnState::Closed`] on
    /// EOF, IO error, or a malformed frame — a byte stream cannot be
    /// resynchronized after garbage.
    pub fn pump(
        &mut self,
        scratch: &mut [u8],
        tx: Option<&Mailbox>,
        metrics: &NetMetrics,
    ) -> ConnState {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return ConnState::Closed,
                Ok(n) => {
                    self.buf.extend_from_slice(&scratch[..n]);
                    return match self.decode_frames(tx, metrics) {
                        Ok(()) => ConnState::Open,
                        Err(()) => ConnState::Closed,
                    };
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ConnState::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ConnState::Closed,
            }
        }
    }

    /// Decodes every complete frame at the front of `buf`; leaves any
    /// partial frame in place for the next readiness event.
    fn decode_frames(&mut self, tx: Option<&Mailbox>, metrics: &NetMetrics) -> Result<(), ()> {
        let mut off = 0;
        while let Some(hdr) = self.buf[off..].first_chunk() {
            let Ok((tag, len)) = codec::decode_header(hdr) else {
                metrics.decode_error();
                return Err(());
            };
            if self.buf.len() - off - HEADER_LEN < len {
                break; // payload still in flight
            }
            let payload = &self.buf[off + HEADER_LEN..off + HEADER_LEN + len];
            let Ok((msg, trace)) = codec::decode_payload(tag, payload) else {
                metrics.decode_error();
                return Err(());
            };
            metrics.frame_in(HEADER_LEN + len);
            if let Some(deliver) = tx {
                // A dropped mailbox is the endpoint's problem, not the
                // connection's.
                let _ = deliver((self.dst, msg, trace));
            }
            off += HEADER_LEN + len;
        }
        if off > 0 {
            self.buf.drain(..off);
        }
        Ok(())
    }
}

/// The write state machine for one pooled outbound connection.
pub struct OutboundConn<S> {
    stream: S,
    /// Carry buffer: a batch swapped out of the peer's pending queue,
    /// written as far as the socket allows. `off` marks how much of it
    /// has already reached the kernel.
    carry: Vec<u8>,
    off: usize,
    frames: u64,
    since: Option<Instant>,
}

impl<S: Read + Write> OutboundConn<S> {
    /// Wraps a freshly dialed nonblocking stream.
    pub fn new(stream: S) -> OutboundConn<S> {
        OutboundConn {
            stream,
            carry: Vec::new(),
            off: 0,
            frames: 0,
            since: None,
        }
    }

    /// The underlying stream (the poller needs its descriptor).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// Whether a previous flush left unwritten bytes in the carry.
    pub fn has_backlog(&self) -> bool {
        self.off < self.carry.len()
    }

    /// How many frames the carry holds (written or not); the reactor's
    /// drain ledger charges them off when the batch completes or dies.
    pub fn frames_in_carry(&self) -> u64 {
        self.frames
    }

    /// Swaps the peer's pending queue into the (empty) carry buffer.
    /// The buffers are reused forever, so the steady-state write path
    /// allocates nothing.
    pub fn load(&mut self, pending: &mut PendingFrames) {
        debug_assert!(!self.has_backlog(), "load over a backlog loses bytes");
        self.carry.clear();
        self.off = 0;
        std::mem::swap(&mut self.carry, &mut pending.buf);
        self.frames = std::mem::take(&mut pending.frames);
        self.since = pending.since.take();
    }

    /// Writes as much of the carry as the socket accepts.
    ///
    /// Returns `Ok(true)` when the whole batch drained (counting it
    /// into `metrics` — `net.msgs_out`/`net.bytes_out` therefore trail
    /// the syscalls slightly), `Ok(false)` when the kernel buffer
    /// filled mid-batch (backlog retained until the socket is writable
    /// again), and `Err` when the connection died.
    pub fn flush(&mut self, metrics: &NetMetrics) -> io::Result<bool> {
        while self.has_backlog() {
            match self.stream.write(&self.carry[self.off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if !self.carry.is_empty() {
            metrics.frames_out(self.frames, self.carry.len());
            if self.frames >= 2 {
                metrics.coalesced_write(self.frames);
            }
            if let Some(since) = self.since.take() {
                metrics.flush_wait(since.elapsed().as_micros() as u64);
            }
            self.carry.clear();
            self.off = 0;
            self.frames = 0;
        }
        Ok(true)
    }

    /// Drains the read side after a readiness event. Peers never send
    /// on connections they accepted (replies travel over the peer's own
    /// outbound connection), so all there is to see is EOF or RST:
    /// early notice that the peer restarted or died.
    pub fn probe_eof(&mut self, scratch: &mut [u8]) -> ConnState {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return ConnState::Closed,
                Ok(_) => continue, // unexpected chatter; discard
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ConnState::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ConnState::Closed,
            }
        }
    }
}
