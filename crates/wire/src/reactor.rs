//! The event-loop core of the TCP transport: one [`Poller`] per
//! [`TcpReactor`] drives every accept, read, and buffered write the
//! process owns, one [`Poller::turn`] at a time, on a `d2-poller`
//! thread (clients) or on the thread that steps the nodes (hosts). So
//! threads are O(1) per process, not O(connections), and one machine
//! can host a 1,000-node cluster (`d2-node serve-many`).
//!
//! ## Structure
//!
//! A reactor is a listener plus any number of registered *endpoints* —
//! virtual transport addresses sharing the one socket. `TcpTransport`
//! (the common case) is a reactor with exactly one endpoint; `d2-node
//! serve-many` opens one endpoint per hosted node, each a distinct
//! loopback IP on the shared port. Inbound demux is free: the accepted
//! socket's *local* address is whatever IP the remote dialed, which
//! names the endpoint.
//!
//! ## Send path
//!
//! Senders never touch a socket. A send encodes the frame into the
//! peer's pending queue (the PR 7 combining-lock buffer), marks the
//! peer dirty, and — unless it *is* the thread that turns the poller —
//! wakes it; when the burst is over (below) the poller swaps whole
//! batches into the connection's carry buffer and writes them with
//! single syscalls. Two exceptions stay on the sender's thread:
//!
//! - **Dialing.** The first send to a disconnected peer performs the
//!   blocking `connect_timeout` inline and only hands the established
//!   (nonblocking) stream to the poller. This preserves fail-fast
//!   semantics: a send to a dead peer returns `PeerUnreachable` in one
//!   connect timeout, synchronously — the eviction/reroute logic in
//!   the layers above depends on that, and a poller-side dial would
//!   convert it into a silent timeout.
//! - **Loopback.** A destination registered on the *same* reactor is
//!   delivered straight to its mailbox, no socket and no frame — the
//!   fast path that makes co-hosted nodes in `serve-many` cheap.
//!
//! Batched sends keep the PR 7 loss contract: once a frame is queued
//! (`Ok`), a later connection death takes the whole batch with it,
//! exactly as TCP itself may lose kernel-buffered bytes; every protocol
//! layer above already tolerates message loss. A peer that stops
//! draining its socket is bounded by `max_pending_bytes`: further sends
//! fail fast with `Backlogged` instead of buffering without limit.
//!
//! ## Readiness
//!
//! The poller blocks in one `ppoll(2)` call (`sys.rs`, the crate's
//! single `unsafe` block) over the listener, every inbound socket,
//! every outbound socket (`POLLIN` for EOF/RST notice, plus `POLLOUT`
//! only while its carry holds a backlog) and the read end of a *wake
//! pipe*. Reads, accepts and backlog drains happen the moment the
//! kernel reports them, and an idle reactor makes zero syscalls.
//!
//! Senders wake the poller by writing one byte to the pipe, guarded by
//! a "wake already pending" flag so a burst of sends costs one write.
//! No wake is lost because the poller clears the flag *before* it
//! drains the `dirty`/`adopted` lists: a sender that finds the flag
//! still set published its work before the drain began; one that finds
//! it clear writes a byte that ends the next `ppoll`. The turning
//! thread's own sends write nothing: it flushes them before it blocks.
//!
//! ## When a burst is over
//!
//! A peer's frames should share one write, so the poller must know
//! where a burst ends. What the turning thread queued (every send a
//! node host makes: replies, chain forwards, ring and repair traffic)
//! is complete when that thread turns next, because it empties its
//! queue first: the turn writes those peers before it blocks. Where
//! another thread's burst ends (a client's callers) the poller cannot
//! see, so those peers wait for the next multiple of [`FLUSH_TICK`] on
//! the wall clock (the `ppoll` timeout, armed only while one is dirty).
//! So only the client of a closed loop is paced, and an op costs one
//! tick, not one per hop: the tick absorbs the whole round trip,
//! however long the scheduler takes to wake the threads on its path —
//! which on a shared two-core guest moved an unpaced window-1 op
//! between 140 µs and 1.6 ms with thread placement.

use crate::codec::WireMsg;
use crate::conn::{ConnState, InboundConn, OutboundConn, PendingFrames};
use crate::metrics::NetMetrics;
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use crate::tcp::{pack_addr, TcpConfig};
use crate::transport::{discard, Mailbox, Transport, TransportError};
use crate::{lock, read_lock, write_lock};
use d2_obs::TraceCtx;
use d2_ring::messages::Addr;
use std::cell::Cell;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// One peer's outbound state: the pending queue senders append encoded
/// frames to, the link state guarding dial attempts, and lock-free
/// mirrors letting the hot paths skip both mutexes.
#[derive(Default)]
struct PeerSlot {
    pending: Mutex<PendingFrames>,
    link: Mutex<PeerLink>,
    /// Mirror of `PeerLink::retry_at` in µs since the epoch; 0 = closed.
    retry_at_us: AtomicU64,
    /// Which flush this peer is listed for ([`IDLE`]: none), so a burst
    /// of sends lists it once, not once per frame.
    queued: AtomicU8,
}

/// [`PeerSlot::queued`], in rising urgency: listed for nothing, in
/// `Shared::dirty` for the tick, in `Shared::own` for the next turn.
const IDLE: u8 = 0;
const FOR_TICK: u8 = 1;
const FOR_TURN: u8 = 2;

/// Dial/breaker state for one peer. `connected`: an established stream
/// is staged for adoption or owned by the poller (alive or not).
#[derive(Default)]
struct PeerLink {
    connected: bool,
    /// Whether this peer was ever dialed successfully: a later dial
    /// is then a *re*connect (`net.reconnects`), even after a clean EOF.
    ever_connected: bool,
    failures: u32,
    retry_at: Option<Instant>,
}

thread_local! {
    /// [`Shared::id`] of the reactor whose poller this thread turns.
    static TURNS: Cell<u64> = const { Cell::new(0) };
}

struct Shared {
    /// Unique per process and never reused, unlike an address.
    id: u64,
    port: u16,
    cfg: TcpConfig,
    /// Zero point for every µs timestamp in the reactor.
    epoch: Instant,
    shutdown: AtomicBool,
    metrics: Arc<NetMetrics>,
    /// Write end of the wake pipe; the poller polls the read end.
    wake_tx: UnixStream,
    /// Set by the sender that writes the wake byte, cleared by the
    /// poller before it drains: a burst of sends costs one write.
    wake_pending: AtomicBool,
    poller_join: Mutex<Option<JoinHandle<()>>>,
    /// Registered endpoints: packed virtual address → mailbox.
    endpoints: RwLock<HashMap<Addr, Mailbox>>,
    /// Per-peer outbound slots. The map lock is held only for lookup,
    /// never across a connect or write.
    pool: Mutex<HashMap<Addr, Arc<PeerSlot>>>,
    /// Peers other threads queued frames for, awaiting the flush tick.
    dirty: Mutex<Vec<Addr>>,
    /// Peers the turning thread queued frames for since its last turn.
    own: Mutex<Vec<Addr>>,
    /// Streams dialed by senders, awaiting poller adoption.
    adopted: Mutex<Vec<(Addr, TcpStream)>>,
    /// Frames accepted by `send_from` but not yet written to a socket
    /// (or dropped with a dead connection): what
    /// [`TcpReactor::shutdown`] waits on to drain in-flight replies.
    unsent: AtomicU64,
}

impl Shared {
    fn us_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// A peer's slot, if it was ever sent to. A function, so the map
    /// lock is released before the caller does anything with the slot.
    fn slot(&self, addr: Addr) -> Option<Arc<PeerSlot>> {
        lock(&self.pool).get(&addr).cloned()
    }

    /// Ends the poller's `ppoll(2)` call. Callers publish their work
    /// (`dirty`, `adopted`, `shutdown`, a host's event) first: the swap
    /// pairs with the poller's swap-to-false, which precedes its drain.
    /// The thread that turns the poller is not in the call: a turn
    /// takes `dirty` and `adopted` before it blocks, and a host empties
    /// its queue before it turns.
    fn wake_poller(&self) {
        if TURNS.get() != self.id && !self.wake_pending.swap(true, Ordering::SeqCst) {
            // At most one byte per armed flag, so the pipe never fills
            // and a failed write has nothing to retry.
            let _ = (&self.wake_tx).write(&[1]);
            self.metrics.wake_write();
        }
    }

    /// Drops a peer's queued frames (connection failed or died),
    /// keeping the `unsent` drain counter balanced.
    fn clear_pending(&self, slot: &PeerSlot) {
        let mut q = lock(&slot.pending);
        self.unsent.fetch_sub(q.frames, Ordering::AcqRel);
        q.buf.clear();
        q.frames = 0;
        q.since = None;
    }

    /// Arms the reconnect backoff window (and its lock-free mirror)
    /// after `link.failures` consecutive failures.
    fn open_breaker(&self, slot: &PeerSlot, link: &mut PeerLink, now: Instant) {
        let at = now + Duration::from_micros(backoff_us(link.failures));
        link.retry_at = Some(at);
        // `max(1)`: 0 is the breaker-closed sentinel.
        slot.retry_at_us
            .store(self.us_since_epoch(at).max(1), Ordering::Release);
    }

    /// The whole send path. Runs on the sender's thread; only queue
    /// operations and (for a disconnected peer) one dial ever block.
    fn send_from(&self, to: Addr, msg: &WireMsg, trace: TraceCtx) -> Result<(), TransportError> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        // Loopback fast path: a destination on this reactor gets the
        // message straight into its mailbox — no socket, no frame.
        if let Some(deliver) = read_lock(&self.endpoints).get(&to).cloned() {
            if !deliver((to, msg.clone(), trace)) {
                return Err(TransportError::PeerUnreachable(to));
            }
            self.metrics.loopback_msg();
            return Ok(());
        }
        let slot = Arc::clone(lock(&self.pool).entry(to).or_default());
        // Breaker fast path: while the backoff window is open, fail
        // without queueing a frame or contending on the peer locks.
        let retry_at = slot.retry_at_us.load(Ordering::Acquire);
        if retry_at != 0 && self.us_since_epoch(Instant::now()) < retry_at {
            return Err(TransportError::PeerUnreachable(to));
        }
        {
            let mut q = lock(&slot.pending);
            if q.buf.len() >= self.cfg.max_pending_bytes {
                // The peer has stopped draining its socket.
                self.metrics.backlog_drop();
                return Err(TransportError::Backlogged(to));
            }
            q.frames += 1;
            crate::codec::encode_traced_into(&mut q.buf, msg, trace);
            self.unsent.fetch_add(1, Ordering::AcqRel);
            q.since.get_or_insert_with(Instant::now);
        }
        let mut link = lock(&slot.link);
        if !link.connected {
            let now = Instant::now();
            if link.retry_at.is_some_and(|at| now < at) {
                // Lost the race with a concurrent breaker-opener;
                // the frame dies with the failed connection.
                self.clear_pending(&slot);
                return Err(TransportError::PeerUnreachable(to));
            }
            let sock = SocketAddr::V4(crate::tcp::unpack_addr(to));
            match TcpStream::connect_timeout(&sock, self.cfg.connect_timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(true);
                    if link.failures > 0 || link.ever_connected {
                        self.metrics.reconnect();
                    }
                    link.connected = true;
                    link.ever_connected = true;
                    link.failures = 0;
                    link.retry_at = None;
                    slot.retry_at_us.store(0, Ordering::Release);
                    lock(&self.adopted).push((to, stream));
                }
                Err(_) => {
                    link.failures += 1;
                    self.open_breaker(&slot, &mut link, now);
                    self.clear_pending(&slot);
                    return Err(TransportError::PeerUnreachable(to));
                }
            }
        }
        drop(link);
        // The turning thread's burst is over when it turns next; where
        // another thread's ends only the tick can say (module docs).
        let (list, when) = match TURNS.get() == self.id {
            true => (&self.own, FOR_TURN),
            false => (&self.dirty, FOR_TICK),
        };
        if slot.queued.fetch_max(when, Ordering::AcqRel) < when {
            lock(list).push(to);
        }
        self.wake_poller();
        Ok(())
    }
}

/// The event-loop TCP transport core: a listener, a [`Poller`], and
/// a registry of virtual endpoints sharing the socket. Use
/// [`crate::tcp::TcpTransport`] for the ordinary one-endpoint case;
/// use the reactor directly to multiplex many nodes over one socket.
pub struct TcpReactor {
    shared: Arc<Shared>,
}

impl TcpReactor {
    /// Binds a listener on `listen_ip:port` (port 0 picks a free port)
    /// and returns the reactor with its poller, which does nothing
    /// until the caller turns it or [`Poller::spawn`]s a thread that
    /// does. Binding `0.0.0.0` accepts dials to *any* local IP on the
    /// port — required for virtual endpoints on distinct loopback
    /// addresses (Linux routes all of `127/8` locally).
    pub fn bind(
        listen_ip: Ipv4Addr,
        port: u16,
        cfg: TcpConfig,
        metrics: Arc<NetMetrics>,
    ) -> io::Result<(TcpReactor, Poller)> {
        // Even port 0 can transiently fail with AddrInUse while
        // TIME_WAIT sockets exhaust the ephemeral range (multi-process
        // test clusters churn through hundreds of connections): retry.
        let mut attempt: u64 = 0;
        let listener = loop {
            match TcpListener::bind(SocketAddrV4::new(listen_ip, port)) {
                Ok(l) => break l,
                Err(e) if e.kind() == io::ErrorKind::AddrInUse && attempt < 16 => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(5 * attempt));
                }
                Err(e) => return Err(e),
            }
        };
        listener.set_nonblocking(true)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let shared = Arc::new(Shared {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            port: listener.local_addr()?.port(),
            cfg,
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            metrics,
            wake_tx,
            wake_pending: AtomicBool::new(false),
            poller_join: Mutex::new(None),
            endpoints: RwLock::new(HashMap::new()),
            pool: Mutex::new(HashMap::new()),
            dirty: Mutex::new(Vec::new()),
            own: Mutex::new(Vec::new()),
            adopted: Mutex::new(Vec::new()),
            unsent: AtomicU64::new(0),
        });
        let poller = Poller {
            listener,
            wake_rx,
            shared: Arc::clone(&shared),
            inbound: Vec::new(),
            outbound: HashMap::new(),
            fds: Vec::new(),
            polled_out: Vec::new(),
            dirty: Vec::new(),
            flush_at: None,
            own: Vec::new(),
            scratch: vec![0u8; 64 * 1024],
        };
        Ok((TcpReactor { shared }, poller))
    }

    /// The port the listener is bound to.
    pub fn port(&self) -> u16 {
        self.shared.port
    }

    /// Opens an endpoint at `ip` (on the reactor's port); it drops what
    /// arrives until [`Transport::set_mailbox`] gives it a mailbox. Fails
    /// with `AddrInUse` if the address already has an endpoint on this
    /// reactor.
    pub fn open(&self, ip: Ipv4Addr) -> io::Result<TcpEndpoint> {
        let me = pack_addr(SocketAddrV4::new(ip, self.shared.port));
        let mut eps = write_lock(&self.shared.endpoints);
        if eps.contains_key(&me) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                "endpoint already registered on this reactor",
            ));
        }
        eps.insert(me, discard());
        Ok(TcpEndpoint {
            shared: Arc::clone(&self.shared),
            me,
        })
    }

    /// Stops the reactor: a spawned poller drains queued outbound
    /// frames ([`Poller::drain`]), closes every socket and is joined;
    /// every endpoint's mailbox is dropped. Idempotent. A poller its
    /// holder turns is the holder's to drain and drop.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.wake_poller();
        if let Some(h) = lock(&self.shared.poller_join).take() {
            let _ = h.join();
        }
        write_lock(&self.shared.endpoints).clear();
        lock(&self.shared.pool).clear();
    }
}

impl Drop for TcpReactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One virtual transport address on a [`TcpReactor`]. Implements
/// [`Transport`], so a `NodeRuntime` runs over an endpoint exactly as
/// over a whole `TcpTransport` — co-hosted endpoints reach each other
/// over the loopback fast path, everyone else over the shared socket.
pub struct TcpEndpoint {
    shared: Arc<Shared>,
    me: Addr,
}

impl Transport for TcpEndpoint {
    fn local_addr(&self) -> Addr {
        self.me
    }

    fn send_traced(&self, to: Addr, msg: &WireMsg, trace: TraceCtx) -> Result<(), TransportError> {
        self.shared.send_from(to, msg, trace)
    }

    fn set_mailbox(&self, mailbox: Mailbox) {
        if let Some(slot) = write_lock(&self.shared.endpoints).get_mut(&self.me) {
            *slot = mailbox;
        }
    }

    /// Closes this endpoint: inbound frames for it are dropped, and a
    /// send to it from this reactor fails fast, as a refused connection
    /// would (left unregistered, the address would dial the reactor's
    /// own listener and its frames vanish unseen). The reactor keeps
    /// running for its other endpoints.
    fn shutdown(&self) {
        if let Some(slot) = write_lock(&self.shared.endpoints).get_mut(&self.me) {
            *slot = Arc::new(|_| false);
        }
    }
}

/// Frames queued by threads other than the one that turns the poller
/// leave on wall-clock multiples of this (module docs): a closed loop's
/// one pacer. A three-node round trip takes 125–165 µs of it; at 125 µs
/// that straddles the quantum and a window-1 run no longer repeats
/// (DESIGN.md §15.1.1 has the rows).
pub const FLUSH_TICK: Duration = Duration::from_micros(250);

/// Reconnect backoff after the first failed dial or write to a peer.
const BACKOFF_BASE_US: u64 = 50_000;
/// The longest reconnect backoff.
const BACKOFF_CAP_US: u64 = 1_000_000;

/// The breaker window after `failures` consecutive failures:
/// [`BACKOFF_BASE_US`] doubled per further failure, capped at
/// [`BACKOFF_CAP_US`]. Sends inside it fail fast.
fn backoff_us(failures: u32) -> u64 {
    let shift = failures.saturating_sub(1).min(20);
    (BACKOFF_BASE_US << shift).min(BACKOFF_CAP_US)
}

/// Time to the next multiple of `period` on the wall clock: the one
/// clock every process on the host shares, so whatever they schedule by
/// it falls in phase; a step in it only shifts the phase once.
pub fn until_wall_multiple(period: Duration) -> Duration {
    let wall = SystemTime::now().duration_since(UNIX_EPOCH);
    let into = wall.map_or(0, |d| d.as_nanos() % period.as_nanos());
    Duration::from_nanos((period.as_nanos() - into) as u64)
}

fn pollfd(io: &impl AsRawFd, events: i16) -> PollFd {
    PollFd {
        fd: io.as_raw_fd(),
        events,
        revents: 0,
    }
}

/// The poller: owns the listener and every connection of one
/// [`TcpReactor`], and moves when its holder calls [`Poller::turn`].
pub struct Poller {
    listener: TcpListener,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    inbound: Vec<InboundConn<TcpStream>>,
    outbound: HashMap<Addr, OutboundConn<TcpStream>>,
    fds: Vec<PollFd>,
    /// Outbound peers, in `fds` order (they follow the inbound ones).
    polled_out: Vec<Addr>,
    /// Peers with queued frames, awaiting `flush_at`.
    dirty: Vec<Addr>,
    flush_at: Option<Instant>,
    /// Spare for `Shared::own`: the two swap, so neither reallocates.
    own: Vec<Addr>,
    scratch: Vec<u8>,
}

impl Poller {
    /// Hands the poller to a `d2-poller` thread that turns it until
    /// [`TcpReactor::shutdown`], which joins it.
    pub fn spawn(mut self) -> io::Result<()> {
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name("d2-poller".into())
            .spawn(move || {
                while !self.shared.shutdown.load(Ordering::Acquire) {
                    self.turn(None);
                }
                self.drain();
            })?;
        *lock(&shared.poller_join) = Some(handle);
        Ok(())
    }

    /// A handle that ends a [`Poller::turn`] blocked on another thread,
    /// for whoever queues work the turning thread must look at. Call it
    /// after the work is published.
    pub fn waker(&self) -> Arc<dyn Fn() + Send + Sync> {
        let shared = Arc::clone(&self.shared);
        Arc::new(move || shared.wake_poller())
    }

    /// Keeps turning until every frame senders queued has been written
    /// or died with its connection: a node queues its `ShutdownAck` and
    /// stops right after. Bounded, because frames stuck behind a
    /// stalled peer must not wedge teardown.
    pub fn drain(&mut self) {
        let deadline = Instant::now() + Duration::from_millis(500);
        while self.shared.unsent.load(Ordering::Acquire) != 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            self.turn(Some(left));
        }
    }

    /// Takes what senders published: dialed streams to adopt, dirty
    /// peers to flush. The turning thread's own are written here and
    /// now; of the others the first arms the tick, and everything dirty
    /// by the time it comes due shares the flush. The lists before
    /// `adopted`: a sender stages its dialed stream before it lists the
    /// peer, so every listed peer's connection is adopted by the time it
    /// is flushed.
    fn collect(&mut self) {
        self.dirty.append(&mut lock(&self.shared.dirty));
        std::mem::swap(&mut self.own, &mut *lock(&self.shared.own));
        for (addr, stream) in lock(&self.shared.adopted).drain(..) {
            self.outbound.insert(addr, OutboundConn::new(stream));
        }
        for i in 0..self.own.len() {
            self.flush_peer(self.own[i]);
        }
        self.own.clear();
        if !self.dirty.is_empty() && self.flush_at.is_none() {
            self.flush_at = Some(Instant::now() + until_wall_multiple(FLUSH_TICK));
        }
    }

    /// One step: writes what this thread queued since the last, blocks
    /// in `ppoll(2)` until something is ready, the flush tick is due or
    /// `timeout` passes (`None`: no limit), then handles the wake pipe
    /// (what other threads published), the tick (flush their peers),
    /// readable inbound connections — their frames are delivered from
    /// inside this call — outbound EOFs and drained backlogs, and new
    /// accepts.
    pub fn turn(&mut self, timeout: Option<Duration>) {
        let shared = Arc::clone(&self.shared);
        TURNS.set(shared.id);
        // What this thread queued since its last turn woke nobody, and
        // is a whole burst: written before the thread blocks.
        self.collect();
        self.fds.clear();
        self.fds.push(pollfd(&self.wake_rx, POLLIN));
        self.fds.push(pollfd(&self.listener, POLLIN));
        let polled_in = self.inbound.len(); // accepts come last, below
        self.fds
            .extend(self.inbound.iter().map(|c| pollfd(c.stream(), POLLIN)));
        self.polled_out.clear();
        for (&addr, conn) in &self.outbound {
            self.polled_out.push(addr);
            let writable = if conn.has_backlog() { POLLOUT } else { 0 };
            self.fds.push(pollfd(conn.stream(), POLLIN | writable));
        }
        let now = Instant::now();
        let to_tick = self.flush_at.map(|at| at.saturating_duration_since(now));
        match sys::wait_ready(&mut self.fds, timeout.into_iter().chain(to_tick).min()) {
            Ok(ready) => shared.metrics.poller_wakeup(ready),
            Err(_) => {
                // Out of kernel memory; nothing was polled.
                std::thread::sleep(Duration::from_millis(1));
                return;
            }
        }

        if self.fds[0].revents != 0 {
            // A few bytes at most: one read empties the pipe.
            let _ = self.wake_rx.read(&mut self.scratch);
        }
        // Clear the flag before draining (see `wake_poller`).
        shared.wake_pending.swap(false, Ordering::SeqCst);
        self.collect();
        if self.flush_at.is_some_and(|at| Instant::now() >= at) {
            self.flush_at = None;
            shared.metrics.flush_tick();
            for i in 0..self.dirty.len() {
                self.flush_peer(self.dirty[i]);
            }
            self.dirty.clear();
        }

        // Readable inbound connections. Back to front, so `swap_remove`
        // only ever moves a connection that was already visited.
        for i in (0..polled_in).rev() {
            if self.fds[2 + i].revents == 0 {
                continue;
            }
            let conn = &mut self.inbound[i];
            let mailbox = read_lock(&shared.endpoints).get(&conn.dst()).cloned();
            if conn.pump(&mut self.scratch, mailbox.as_ref(), &shared.metrics) == ConnState::Closed
            {
                self.inbound.swap_remove(i);
            }
        }

        for i in 0..self.polled_out.len() {
            let (addr, revents) = (self.polled_out[i], self.fds[2 + polled_in + i].revents);
            let Some(conn) = self.outbound.get_mut(&addr) else {
                continue; // died in the flush above
            };
            // Anything but writability is the read side: EOF or RST —
            // early notice that a peer restarted, so the next send
            // re-dials instead of writing into a corpse.
            if revents & !POLLOUT != 0 && conn.probe_eof(&mut self.scratch) == ConnState::Closed {
                // A graceful close is not a dial failure: no breaker,
                // the next send dials fresh immediately.
                self.drop_outbound(addr, false);
            } else if revents & POLLOUT != 0 {
                self.flush_peer(addr);
            }
        }

        if self.fds[1].revents != 0 {
            self.accept_all();
        }
    }

    /// Accepts everything waiting on the listener.
    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    // The address the remote dialed names the endpoint.
                    if let Ok(SocketAddr::V4(v4)) = stream.local_addr() {
                        self.inbound.push(InboundConn::new(stream, pack_addr(v4)));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    // Out of descriptors: the listener stays readable, so
                    // pause instead of spinning through `ppoll`.
                    std::thread::sleep(Duration::from_millis(1));
                    return;
                }
            }
        }
    }

    /// Forgets a dead outbound connection: whatever it carried or had
    /// queued dies with it, and the link is marked down so the next send
    /// re-dials — or, with `failed`, finds the breaker open and backs off.
    fn drop_outbound(&mut self, addr: Addr, failed: bool) {
        let shared = &self.shared;
        if let Some(conn) = self.outbound.remove(&addr) {
            let lost = conn.frames_in_carry();
            shared.unsent.fetch_sub(lost, Ordering::AcqRel);
        }
        let Some(slot) = shared.slot(addr) else {
            return;
        };
        // Never held across a dial here: senders only dial peers the
        // poller holds no connection for.
        let mut link = lock(&slot.link);
        link.connected = false;
        if failed {
            link.failures += 1;
            shared.open_breaker(&slot, &mut link, Instant::now());
        }
        drop(link);
        shared.clear_pending(&slot);
    }

    /// Swap-and-write loop for one peer: swaps the pending queue into the
    /// connection's carry and writes it, until the queue is observed empty
    /// or the socket pushes back (the backlog stays in the carry and the
    /// poll set asks for `POLLOUT`). A connection that died took its
    /// queue with it.
    fn flush_peer(&mut self, addr: Addr) {
        let shared = &self.shared;
        let Some(slot) = shared.slot(addr) else {
            return;
        };
        // Whoever queues after this lists the peer again.
        slot.queued.store(IDLE, Ordering::Release);
        let Some(conn) = self.outbound.get_mut(&addr) else {
            return;
        };
        loop {
            if !conn.has_backlog() {
                let mut q = lock(&slot.pending);
                if q.buf.is_empty() {
                    return;
                }
                conn.load(&mut q);
            }
            let in_carry = conn.frames_in_carry();
            match conn.flush(&shared.metrics) {
                // The whole carry reached the kernel: charge those frames
                // off the shutdown-drain ledger; more may have queued.
                Ok(true) => shared.unsent.fetch_sub(in_carry, Ordering::AcqRel),
                Ok(false) => return,
                // The pooled connection died and the carried batch with it
                // (a successful write only ever meant "kernel-buffered");
                // the breaker makes the next send back off, not re-dial.
                Err(_) => return self.drop_outbound(addr, true),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reconnect_backoff_doubles_from_50_ms_to_a_1_s_cap() {
        let ms: Vec<u64> = [1, 2, 3, 4, 5, 6, 40]
            .map(|n| super::backoff_us(n) / 1_000)
            .to_vec();
        assert_eq!(ms, [50, 100, 200, 400, 800, 1_000, 1_000]);
    }
}
