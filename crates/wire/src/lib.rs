//! # d2-wire: the D2 wire protocol and pluggable transports
//!
//! Everything that crosses a node boundary in a live D2 deployment goes
//! through this crate:
//!
//! - [`codec`] — a versioned, length-prefixed binary framing for all
//!   inter-node traffic: ring maintenance ([`RingMsg`]), client
//!   requests ([`Request`]) and their responses ([`Response`]). Frames
//!   start with a 2-byte magic and a protocol version; decoding is
//!   strict and total — malformed input yields a [`WireError`], never a
//!   panic.
//! - [`transport`] — the [`Transport`] trait (send / a [`Mailbox`] for
//!   what arrives / peer addressing / fail-fast on dead peers) plus the
//!   deterministic in-process [`ChannelTransport`] used by tests and
//!   simulations.
//! - [`tcp`] — [`TcpTransport`]: the same trait over real
//!   `std::net` sockets with per-peer connection pooling and
//!   reconnect-with-backoff.
//! - [`reactor`] / [`conn`] — the event loop under the TCP transport:
//!   one poller per process, blocked in `ppoll(2)` until a socket or a
//!   sender's wake pipe is ready, drives every accept, read, and
//!   buffered write through per-connection state machines — on a
//!   thread of its own for a client, on the thread that steps the
//!   nodes for a host — and a [`TcpReactor`] can host many virtual
//!   endpoints (distinct loopback IPs on one socket) — the substrate of
//!   `d2-node serve-many`.
//! - [`client`] — [`WireClient`], a request/response port that routes
//!   replies on the thread that decoded them, used by `Deployment`
//!   front-ends and the `d2-node` command-line client. A blocking
//!   `call` is a [`ReplyQueue`] of one; `submit_on` keeps a whole window
//!   of requests in flight on one.
//! - [`metrics`] — [`NetMetrics`]: `net.bytes_{in,out}`, `net.msgs`,
//!   `net.reconnects`, `net.decode_errors`, `net.backlog_drops` and the
//!   poller's `net.poller_wakeups` / `net.wake_writes` /
//!   `net.flush_wait_us`, plus per-message-type RTT histograms, exported into
//!   [`d2_obs::Registry`] snapshots.
//!
//! The point of the seam: `d2-net`'s deployment and node event loop are
//! generic over [`Transport`], so the *same* protocol state machine that
//! runs deterministically over channels in unit tests also runs a real
//! multi-process cluster over TCP.

#![warn(missing_docs)]
// One `unsafe` block in the whole crate: the `ppoll(2)` call in `sys`.
#![deny(unsafe_code)]

pub mod client;
pub mod codec;
pub mod conn;
pub mod metrics;
pub mod reactor;
#[allow(unsafe_code)]
mod sys;
pub mod tcp;
pub mod transport;

pub use client::{ClientError, ReplyQueue, WireClient};
pub use codec::{
    decode_header, decode_payload, decode_traced, encode_traced_into, Request, Response, WireError,
    WireHistogram, WireMetrics, WireMsg, WireStatus, HEADER_LEN, MAX_PAYLOAD, MIN_VERSION,
    TRACE_LEN, VERSION,
};
pub use metrics::NetMetrics;
pub use reactor::{Poller, TcpEndpoint, TcpReactor};
pub use tcp::{pack_addr, unpack_addr, TcpConfig, TcpTransport};
pub use transport::{ChannelHub, ChannelTransport, Delivery, Mailbox, Transport, TransportError};

// Re-exported so transport users need not depend on d2-ring directly.
pub use d2_ring::messages::{Addr, PeerInfo, RingMsg};

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Enters `m` even if a thread panicked holding it. Every lock in the
/// live stack guards state a panic leaves whole (a queue, a map, a
/// counter), so a poisoned lock is entered like any other.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared access to `l`, poisoned or not (see [`lock`]).
pub fn read_lock<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive access to `l`, poisoned or not (see [`lock`]).
pub fn write_lock<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}
