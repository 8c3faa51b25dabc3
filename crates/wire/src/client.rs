//! A request/response client port on top of any [`Transport`].
//!
//! Nodes talk to each other in one-way [`WireMsg`]s, but clients need
//! round trips: `put` must not return before the replica chain has
//! acked, `get` must wait for the block. [`WireClient`] owns a transport
//! endpoint, stamps every outgoing [`Request`] with a fresh `req_id`,
//! and installs itself as the endpoint's [`Mailbox`]: the thread that
//! decoded an incoming [`Response`] (a TCP poller, or a channel
//! sender) hands it straight to the caller blocked on that `req_id` —
//! so several threads can issue requests over one client concurrently,
//! and a reply costs its caller's wake-up and no other.
//!
//! Because correlation is per-`req_id`, the client also supports
//! *pipelining*: [`WireClient::submit`] sends a request and returns a
//! [`PendingReply`] handle immediately, and [`WireClient::submit_on`]
//! puts a whole window of requests on one [`ReplyQueue`], which blocks
//! until the next reply lands or the earliest deadline passes — each
//! request with its own deadline, none head-of-line-blocking the
//! others. [`WireClient::call`] is just `submit(..)?.wait()`.

use crate::codec::{Request, Response, WireMsg};
use crate::metrics::NetMetrics;
use crate::transport::{Mailbox, Transport, TransportError};
use d2_obs::TraceCtx;
use d2_ring::messages::Addr;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A failed client call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The node could not be reached (dead or in reconnect backoff).
    Unreachable(Addr),
    /// The node is connected but slow: its send queue is full and the
    /// request was dropped. Nothing says it moved or died.
    Backlogged(Addr),
    /// The node was reached but no response arrived in time.
    Timeout,
    /// The client (or its transport) has been shut down.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Unreachable(a) => write!(f, "node {a} unreachable"),
            ClientError::Backlogged(a) => write!(f, "node {a} backlogged"),
            ClientError::Timeout => write!(f, "request timed out"),
            ClientError::Closed => write!(f, "client closed"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> ClientError {
        match e {
            TransportError::PeerUnreachable(a) => ClientError::Unreachable(a),
            TransportError::Backlogged(a) => ClientError::Backlogged(a),
            TransportError::Closed => ClientError::Closed,
        }
    }
}

/// What lands on a [`ReplyQueue`]: a request id and its outcome.
type Landed = (u64, Result<Response, ClientError>);

/// In-flight request id → the queue its reply lands on.
type Pending = Arc<Mutex<HashMap<u64, mpsc::Sender<Landed>>>>;

/// One request a [`ReplyQueue`] is waiting on.
struct InFlight {
    req_id: u64,
    type_name: &'static str,
    start: Instant,
    deadline: Instant,
}

/// Requests in flight whose replies land on one completion queue, made
/// by [`WireClient::reply_queue`] and filled by
/// [`WireClient::submit_on`].
///
/// The queue owns the pending-map entries of its requests: resolving
/// one (a reply, or its deadline passing) or dropping the queue
/// unregisters it, after which a late response counts as
/// `net.orphan_responses`. The round-trip time of a successful reply is
/// recorded under `net.rtt_us.<request type>`.
pub struct ReplyQueue {
    tx: mpsc::Sender<Landed>,
    rx: mpsc::Receiver<Landed>,
    inflight: Vec<InFlight>,
    pending: Pending,
    metrics: Arc<NetMetrics>,
}

impl ReplyQueue {
    /// Blocks until one request resolves — its reply landed, or it is
    /// the one whose deadline passed first — and returns its id and
    /// outcome. `None` when nothing is in flight.
    pub fn recv(&mut self) -> Option<Landed> {
        self.take(Duration::MAX)
    }

    /// [`ReplyQueue::recv`], blocking for `patience` at most: `None`
    /// also means that nothing has resolved yet.
    fn take(&mut self, patience: Duration) -> Option<Landed> {
        let (at, deadline) = (self.inflight.iter().map(|f| f.deadline).enumerate())
            .min_by_key(|&(_, deadline)| deadline)?;
        let wait = deadline.saturating_duration_since(Instant::now());
        // Never disconnected: `tx` is right here.
        if let Ok((req_id, res)) = self.rx.recv_timeout(wait.min(patience)) {
            // Whoever sent this took the pending-map entry with it.
            let at = self.inflight.iter().position(|f| f.req_id == req_id)?;
            let f = self.inflight.swap_remove(at);
            if res.is_ok() {
                let rtt = f.start.elapsed().as_micros() as u64;
                self.metrics.record_rtt(f.type_name, rtt);
            }
            return Some((req_id, res));
        }
        if Instant::now() < deadline {
            return None;
        }
        let f = self.inflight.swap_remove(at);
        self.pending.lock().remove(&f.req_id);
        Some((f.req_id, Err(ClientError::Timeout)))
    }
}

impl Drop for ReplyQueue {
    fn drop(&mut self) {
        if !self.inflight.is_empty() {
            let mut pending = self.pending.lock();
            for f in &self.inflight {
                pending.remove(&f.req_id);
            }
        }
    }
}

/// One in-flight request submitted with [`WireClient::submit`]: a
/// [`ReplyQueue`] of one.
pub struct PendingReply(ReplyQueue);

impl PendingReply {
    /// Blocks until the response arrives or this request's deadline
    /// passes. Consumes the handle.
    pub fn wait(mut self) -> Result<Response, ClientError> {
        // Nothing in flight: `poll` has delivered the outcome already.
        self.0.recv().map_or(Err(ClientError::Closed), |r| r.1)
    }

    /// Non-blocking check: `Some(outcome)` exactly once when the reply
    /// lands (or its deadline passes), `None` while still in flight and
    /// after the outcome has been delivered.
    pub fn poll(&mut self) -> Option<Result<Response, ClientError>> {
        self.0.take(Duration::ZERO).map(|r| r.1)
    }
}

/// A blocking request/response client over a [`Transport`] endpoint.
///
/// Dropping the client shuts the underlying transport down.
pub struct WireClient<T: Transport> {
    transport: T,
    pending: Pending,
    next_req: AtomicU64,
    metrics: Arc<NetMetrics>,
    stop: AtomicBool,
}

impl<T: Transport> WireClient<T> {
    /// Wraps `transport` as a client endpoint, recording round-trip
    /// times into `metrics`.
    pub fn new(transport: T, metrics: Arc<NetMetrics>) -> Self {
        let pending: Pending = Arc::default();
        let deliver: Mailbox = {
            let (pending, metrics) = (Arc::clone(&pending), Arc::clone(&metrics));
            Arc::new(move |(_, msg, _)| {
                // Clients ignore ring traffic and stray requests.
                if let WireMsg::Response { req_id, body } = msg {
                    match pending.lock().remove(&req_id) {
                        Some(tx) => {
                            let _ = tx.send((req_id, Ok(body))); // caller may have gone
                        }
                        // A reply whose caller already gave up (or a
                        // confused peer). Counted, not dropped silently:
                        // a storm of these means the cluster answers
                        // slower than clients are willing to wait.
                        None => metrics.orphan_response(),
                    }
                }
                true
            })
        };
        transport.set_mailbox(deliver);
        WireClient {
            transport,
            pending,
            next_req: AtomicU64::new(1),
            metrics,
            stop: AtomicBool::new(false),
        }
    }

    /// The client's own address (responses come back here).
    pub fn local_addr(&self) -> Addr {
        self.transport.local_addr()
    }

    /// Sends `body` to `node` and blocks until the matching response
    /// arrives or `timeout` elapses. Records the round-trip time under
    /// `net.rtt_us.<request type>`. The request travels untraced;
    /// see [`WireClient::call_traced`] to start a causal trace.
    pub fn call(
        &self,
        node: Addr,
        body: Request,
        timeout: Duration,
    ) -> Result<Response, ClientError> {
        self.call_traced(node, body, timeout, TraceCtx::NONE)
    }

    /// [`WireClient::call`], but the request's envelope carries `trace`
    /// — typically [`TraceCtx::root`] with a fresh trace id, making this
    /// call the root span of a causally-linked cross-node span tree
    /// that `d2-node trace <id>` can later reassemble from the nodes'
    /// flight recorders.
    pub fn call_traced(
        &self,
        node: Addr,
        body: Request,
        timeout: Duration,
        trace: TraceCtx,
    ) -> Result<Response, ClientError> {
        let mut queue = self.reply_queue();
        self.submit_on(&mut queue, node, body, timeout, trace)?;
        PendingReply(queue).wait()
    }

    /// Sends `body` to `node` and returns immediately with a
    /// [`PendingReply`] handle; the response (or a timeout after
    /// `timeout`) is harvested later via [`PendingReply::wait`] or
    /// [`PendingReply::poll`]. Errors here mean the request never left
    /// this process (dead peer, closed client). The request travels
    /// untraced.
    pub fn submit(
        &self,
        node: Addr,
        body: Request,
        timeout: Duration,
    ) -> Result<PendingReply, ClientError> {
        let mut queue = self.reply_queue();
        self.submit_on(&mut queue, node, body, timeout, TraceCtx::NONE)?;
        Ok(PendingReply(queue))
    }

    /// An empty completion queue for [`WireClient::submit_on`].
    pub fn reply_queue(&self) -> ReplyQueue {
        let (tx, rx) = mpsc::channel();
        ReplyQueue {
            tx,
            rx,
            inflight: Vec::new(),
            pending: Arc::clone(&self.pending),
            metrics: Arc::clone(&self.metrics),
        }
    }

    /// [`WireClient::submit`] onto a shared completion queue, `trace`
    /// on the request envelope: returns the request's id, under which
    /// [`ReplyQueue::recv`] later reports its outcome.
    pub fn submit_on(
        &self,
        queue: &mut ReplyQueue,
        node: Addr,
        body: Request,
        timeout: Duration,
        trace: TraceCtx,
    ) -> Result<u64, ClientError> {
        if self.stop.load(Ordering::Acquire) {
            return Err(ClientError::Closed);
        }
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        let type_name = body.type_name();
        self.pending.lock().insert(req_id, queue.tx.clone());
        let msg = WireMsg::Request {
            req_id,
            from: self.transport.local_addr(),
            body,
        };
        let start = Instant::now();
        if let Err(e) = self.transport.send_traced(node, &msg, trace) {
            self.pending.lock().remove(&req_id);
            return Err(e.into());
        }
        queue.inflight.push(InFlight {
            req_id,
            type_name,
            start,
            deadline: start + timeout,
        });
        Ok(req_id)
    }

    /// Shuts the transport down and fails every request still in
    /// flight with `Closed`. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.transport.shutdown();
        for (req_id, tx) in self.pending.lock().drain() {
            let _ = tx.send((req_id, Err(ClientError::Closed)));
        }
    }
}

impl<T: Transport> Drop for WireClient<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ChannelHub, RecvError};
    use d2_types::Key;
    use std::thread::JoinHandle;

    /// A toy responder: answers every Get with an empty block, after
    /// `delay`, and a Shutdown with its ack and its exit.
    fn spawn_echo_node(hub: &ChannelHub, delay: Duration) -> (Addr, JoinHandle<()>) {
        let t = hub.open();
        let addr = t.local_addr();
        let h = std::thread::spawn(move || loop {
            let (req_id, from, body) = match t.recv_timeout(Duration::from_millis(50)) {
                Ok((WireMsg::Request { req_id, from, body }, _)) => (req_id, from, body),
                Ok(_) | Err(RecvError::Timeout) => continue,
                Err(RecvError::Closed) => return,
            };
            let body = match body {
                Request::Get { .. } => Response::Block { data: None },
                Request::Shutdown => Response::ShutdownAck,
                _ => continue,
            };
            std::thread::sleep(delay);
            let last = body == Response::ShutdownAck;
            let _ = t.send(from, &WireMsg::Response { req_id, body });
            if last {
                return;
            }
        });
        (addr, h)
    }

    #[test]
    fn call_round_trips_and_records_rtt() {
        let metrics = Arc::new(NetMetrics::new());
        let hub = ChannelHub::new(metrics.clone());
        let (node, h) = spawn_echo_node(&hub, Duration::ZERO);
        let client = WireClient::new(hub.open(), metrics.clone());
        let resp = client
            .call(
                node,
                Request::Get {
                    key: Key::from_u64(7),
                },
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(resp, Response::Block { data: None });
        assert_eq!(
            client
                .call(node, Request::Shutdown, Duration::from_secs(2))
                .unwrap(),
            Response::ShutdownAck
        );
        h.join().unwrap();
        let reg = metrics.snapshot();
        assert_eq!(reg.histogram("net.rtt_us.get").unwrap().count(), 1);
        assert_eq!(reg.histogram("net.rtt_us.shutdown").unwrap().count(), 1);
    }

    #[test]
    fn call_to_dead_node_is_unreachable_not_hang() {
        let metrics = Arc::new(NetMetrics::new());
        let hub = ChannelHub::new(metrics.clone());
        let dead = hub.open();
        let dead_addr = dead.local_addr();
        dead.shutdown();
        drop(dead);
        let client = WireClient::new(hub.open(), metrics);
        let t0 = Instant::now();
        assert_eq!(
            client.call(dead_addr, Request::Status, Duration::from_secs(5)),
            Err(ClientError::Unreachable(dead_addr))
        );
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn late_response_counts_as_orphan() {
        let metrics = Arc::new(NetMetrics::new());
        let hub = ChannelHub::new(metrics.clone());
        let slow = hub.open();
        let slow_addr = slow.local_addr();
        let h = std::thread::spawn(move || {
            // Reply well after the caller's 30ms deadline.
            let (msg, _) = slow.recv_timeout(Duration::from_secs(5)).unwrap();
            if let WireMsg::Request { req_id, from, .. } = msg {
                std::thread::sleep(Duration::from_millis(150));
                let _ = slow.send(
                    from,
                    &WireMsg::Response {
                        req_id,
                        body: Response::Block { data: None },
                    },
                );
            }
        });
        let client = WireClient::new(hub.open(), metrics.clone());
        assert_eq!(
            client.call(slow_addr, Request::Status, Duration::from_millis(30)),
            Err(ClientError::Timeout)
        );
        h.join().unwrap();
        // The late reply found no pending caller, on the sender's thread.
        assert_eq!(metrics.snapshot().counter("net.orphan_responses"), 1);
    }

    #[test]
    fn pipelined_replies_resolve_out_of_order_without_hol_blocking() {
        const K: usize = 8;
        const DROPPED: u64 = 3; // key whose response is never sent
        let metrics = Arc::new(NetMetrics::new());
        let hub = ChannelHub::new(metrics.clone());
        let node = hub.open();
        let node_addr = node.local_addr();
        // Collect all K requests first, then answer them in *reverse*
        // order, dropping one — an adversarial reordering no serial
        // client would ever see.
        let h = std::thread::spawn(move || {
            let mut got = Vec::new();
            while got.len() < K {
                if let (
                    WireMsg::Request {
                        req_id,
                        from,
                        body: Request::Get { key },
                    },
                    _,
                ) = node.recv_timeout(Duration::from_secs(5)).unwrap()
                {
                    got.push((req_id, from, key));
                }
            }
            for (req_id, from, key) in got.into_iter().rev() {
                if key == Key::from_u64(DROPPED) {
                    continue;
                }
                let _ = node.send(
                    from,
                    &WireMsg::Response {
                        req_id,
                        body: Response::Block {
                            data: Some(key.as_bytes().to_vec()),
                        },
                    },
                );
            }
        });
        let client = WireClient::new(hub.open(), metrics);
        let timeout = Duration::from_millis(400);
        let t0 = Instant::now();
        let handles: Vec<PendingReply> = (0..K as u64)
            .map(|i| {
                client
                    .submit(
                        node_addr,
                        Request::Get {
                            key: Key::from_u64(i),
                        },
                        timeout,
                    )
                    .unwrap()
            })
            .collect();
        // Every reply lands on the handle whose key it answers, and the
        // dropped one times out alone — it must not delay the others.
        for (i, h) in handles.into_iter().enumerate() {
            let res = h.wait();
            if i as u64 == DROPPED {
                assert_eq!(res, Err(ClientError::Timeout));
            } else {
                assert_eq!(
                    res,
                    Ok(Response::Block {
                        data: Some(Key::from_u64(i as u64).as_bytes().to_vec())
                    }),
                    "reply routed to the wrong caller for key {i}"
                );
            }
        }
        // All K round trips (incl. one timeout) overlapped: total wall
        // time is about one window, not K serial round trips.
        assert!(
            t0.elapsed() < timeout * 3,
            "pipelined window head-of-line blocked: {:?}",
            t0.elapsed()
        );
        h.join().unwrap();
    }

    #[test]
    fn poll_is_nonblocking_and_resolves_once() {
        let metrics = Arc::new(NetMetrics::new());
        let hub = ChannelHub::new(metrics.clone());
        let (node, h) = spawn_echo_node(&hub, Duration::ZERO);
        let client = WireClient::new(hub.open(), metrics);
        let mut p = client
            .submit(
                node,
                Request::Get {
                    key: Key::from_u64(1),
                },
                Duration::from_secs(2),
            )
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let outcome = loop {
            if let Some(res) = p.poll() {
                break res;
            }
            assert!(Instant::now() < deadline, "reply never arrived");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(outcome, Ok(Response::Block { data: None }));
        // The outcome is delivered exactly once.
        assert_eq!(p.poll(), None);
        client
            .call(node, Request::Shutdown, Duration::from_secs(2))
            .unwrap();
        h.join().unwrap();
    }

    #[test]
    fn unanswered_call_times_out() {
        let metrics = Arc::new(NetMetrics::new());
        let hub = ChannelHub::new(metrics.clone());
        let silent = hub.open(); // never reads its mailbox
        let client = WireClient::new(hub.open(), metrics);
        assert_eq!(
            client.call(
                silent.local_addr(),
                Request::Status,
                Duration::from_millis(50)
            ),
            Err(ClientError::Timeout)
        );
    }
    #[test]
    fn a_reply_lands_while_the_queue_waits_on_an_earlier_deadline() {
        let metrics = Arc::new(NetMetrics::new());
        let hub = ChannelHub::new(metrics.clone());
        let silent = hub.open(); // never reads its mailbox
        let (node, h) = spawn_echo_node(&hub, Duration::from_millis(40));
        let client = WireClient::new(hub.open(), metrics);
        let mut queue = client.reply_queue();
        let t0 = Instant::now();
        let mut submit = |to, body, ms| {
            let timeout = Duration::from_millis(ms);
            client.submit_on(&mut queue, to, body, timeout, TraceCtx::NONE)
        };
        let lost = submit(silent.local_addr(), Request::Status, 150).unwrap();
        let key = Key::from_u64(1);
        let answered = submit(node, Request::Get { key }, 5_000).unwrap();
        // Blocked until `lost`'s deadline, the earlier one, when the
        // other slot's reply lands: it comes out first, and at once.
        let block = Response::Block { data: None };
        assert_eq!(queue.recv(), Some((answered, Ok(block))));
        assert!(t0.elapsed() < Duration::from_millis(150));
        // The timeout still fires on its own deadline.
        assert_eq!(queue.recv(), Some((lost, Err(ClientError::Timeout))));
        let late = t0.elapsed().saturating_sub(Duration::from_millis(150));
        assert!(late < Duration::from_millis(100), "timeout {late:?} late");
        assert_eq!(queue.recv(), None);
        client
            .call(node, Request::Shutdown, Duration::from_secs(2))
            .unwrap();
        h.join().unwrap();
    }
}
