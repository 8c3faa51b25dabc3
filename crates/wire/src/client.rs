//! A request/response client port on top of any [`Transport`].
//!
//! Nodes talk to each other in one-way [`WireMsg`]s, but clients need
//! round trips: `put` must not return before the replica chain has
//! acked, `get` must wait for the block. [`WireClient`] owns a transport
//! endpoint, stamps every outgoing [`Request`] with a fresh `req_id`,
//! and runs a dispatcher thread that routes incoming [`Response`]s back
//! to the blocked caller — so several threads can issue requests over
//! one client concurrently.
//!
//! Because correlation is per-`req_id`, the client also supports
//! *pipelining*: [`WireClient::submit`] sends a request and returns a
//! [`PendingReply`] handle immediately, so one caller can keep a whole
//! window of requests in flight and harvest responses as they land —
//! each with its own deadline, none head-of-line-blocking the others.
//! [`WireClient::call`] is just `submit(..)?.wait()`.

use crate::codec::{Request, Response, WireMsg};
use crate::metrics::NetMetrics;
use crate::transport::{RecvError, Transport, TransportError};
use d2_obs::TraceCtx;
use d2_ring::messages::Addr;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A failed client call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The node could not be reached (dead or in reconnect backoff).
    Unreachable(Addr),
    /// The node was reached but no response arrived in time.
    Timeout,
    /// The client (or its transport) has been shut down.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Unreachable(a) => write!(f, "node {a} unreachable"),
            ClientError::Timeout => write!(f, "request timed out"),
            ClientError::Closed => write!(f, "client closed"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> ClientError {
        match e {
            // A backlogged ("slow") peer is handled like a dead one for
            // now; the transport's `net.backlog_drops` tells them apart.
            TransportError::PeerUnreachable(a) | TransportError::Backlogged(a) => {
                ClientError::Unreachable(a)
            }
            TransportError::Closed => ClientError::Closed,
        }
    }
}

type Pending = Arc<Mutex<HashMap<u64, mpsc::Sender<Response>>>>;

/// One in-flight request submitted with [`WireClient::submit`].
///
/// The handle owns the pending-map entry for its `req_id`: resolving it
/// (via [`PendingReply::wait`] or [`PendingReply::poll`]) or dropping it
/// unregisters the request, after which a late response counts as
/// `net.orphan_responses`. The round-trip time of a successful reply is
/// recorded under `net.rtt_us.<request type>` exactly as with
/// [`WireClient::call`].
pub struct PendingReply {
    rx: mpsc::Receiver<Response>,
    pending: Pending,
    metrics: Arc<NetMetrics>,
    req_id: u64,
    type_name: &'static str,
    start: Instant,
    deadline: Instant,
    resolved: bool,
}

impl PendingReply {
    /// The request id this handle is waiting on (diagnostics only).
    pub fn req_id(&self) -> u64 {
        self.req_id
    }

    /// Marks the reply resolved and unregisters the pending entry so a
    /// late response is counted as an orphan instead of queued nowhere.
    fn settle(&mut self) {
        self.resolved = true;
        self.pending.lock().remove(&self.req_id);
    }

    /// Blocks until the response arrives or this request's deadline
    /// passes. Consumes the handle.
    pub fn wait(mut self) -> Result<Response, ClientError> {
        let timeout = self.deadline.saturating_duration_since(Instant::now());
        let result = match self.rx.recv_timeout(timeout) {
            Ok(resp) => {
                self.metrics
                    .record_rtt(self.type_name, self.start.elapsed().as_micros() as u64);
                Ok(resp)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ClientError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ClientError::Closed),
        };
        self.settle();
        result
    }

    /// Non-blocking check: `Some(outcome)` exactly once when the reply
    /// lands (or its deadline passes), `None` while still in flight and
    /// after the outcome has been delivered. This is the primitive that
    /// lets a windowed batch driver sweep many in-flight requests
    /// without blocking on any single one.
    pub fn poll(&mut self) -> Option<Result<Response, ClientError>> {
        if self.resolved {
            return None;
        }
        match self.rx.try_recv() {
            Ok(resp) => {
                self.metrics
                    .record_rtt(self.type_name, self.start.elapsed().as_micros() as u64);
                self.settle();
                Some(Ok(resp))
            }
            Err(mpsc::TryRecvError::Empty) => {
                if Instant::now() >= self.deadline {
                    self.settle();
                    Some(Err(ClientError::Timeout))
                } else {
                    None
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => {
                self.settle();
                Some(Err(ClientError::Closed))
            }
        }
    }
}

impl Drop for PendingReply {
    fn drop(&mut self) {
        if !self.resolved {
            self.pending.lock().remove(&self.req_id);
        }
    }
}

/// A blocking request/response client over a [`Transport`] endpoint.
///
/// Dropping the client shuts the dispatcher thread and the underlying
/// transport down.
pub struct WireClient<T: Transport> {
    transport: Arc<T>,
    pending: Pending,
    next_req: AtomicU64,
    metrics: Arc<NetMetrics>,
    stop: Arc<AtomicBool>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl<T: Transport> WireClient<T> {
    /// Wraps `transport` as a client endpoint, recording round-trip
    /// times into `metrics`.
    pub fn new(transport: T, metrics: Arc<NetMetrics>) -> Self {
        let transport = Arc::new(transport);
        let pending: Pending = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let dispatcher = {
            let transport = Arc::clone(&transport);
            let pending = Arc::clone(&pending);
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || dispatch_loop(&*transport, &pending, &stop, &metrics))
        };
        WireClient {
            transport,
            pending,
            next_req: AtomicU64::new(1),
            metrics,
            stop,
            dispatcher: Mutex::new(Some(dispatcher)),
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
        self.submit_traced(node, body, timeout, trace)?.wait()
    }

    /// Sends `body` to `node` and returns immediately with a
    /// [`PendingReply`] handle; the response (or a timeout after
    /// `timeout`) is harvested later via [`PendingReply::wait`] or
    /// [`PendingReply::poll`]. Errors here mean the request never left
    /// this process (dead peer, closed client). The request travels
    /// untraced; see [`WireClient::submit_traced`].
    pub fn submit(
        &self,
        node: Addr,
        body: Request,
        timeout: Duration,
    ) -> Result<PendingReply, ClientError> {
        self.submit_traced(node, body, timeout, TraceCtx::NONE)
    }

    /// [`WireClient::submit`] with an explicit trace context on the
    /// request envelope.
    pub fn submit_traced(
        &self,
        node: Addr,
        body: Request,
        timeout: Duration,
        trace: TraceCtx,
    ) -> Result<PendingReply, ClientError> {
        if self.stop.load(Ordering::Acquire) {
            return Err(ClientError::Closed);
        }
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        let type_name = body.type_name();
        let (tx, rx) = mpsc::channel();
        self.pending.lock().insert(req_id, tx);
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
        Ok(PendingReply {
            rx,
            pending: Arc::clone(&self.pending),
            metrics: Arc::clone(&self.metrics),
            req_id,
            type_name,
            start,
            deadline: start + timeout,
            resolved: false,
        })
    }

    /// Fire-and-forget: sends `body` without waiting for any response.
    pub fn notify(&self, node: Addr, body: Request) -> Result<(), ClientError> {
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        let msg = WireMsg::Request {
            req_id,
            from: self.transport.local_addr(),
            body,
        };
        self.transport.send(node, &msg).map_err(ClientError::from)
    }

    /// Stops the dispatcher and shuts the transport down. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.transport.shutdown();
        if let Some(h) = self.dispatcher.lock().take() {
            let _ = h.join();
        }
        self.pending.lock().clear();
    }
}

impl<T: Transport> Drop for WireClient<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn dispatch_loop<T: Transport>(
    transport: &T,
    pending: &Pending,
    stop: &AtomicBool,
    metrics: &NetMetrics,
) {
    while !stop.load(Ordering::Acquire) {
        match transport.recv_timeout(Duration::from_millis(100)) {
            Ok((WireMsg::Response { req_id, body }, _)) => {
                match pending.lock().remove(&req_id) {
                    Some(tx) => {
                        let _ = tx.send(body); // caller may have timed out
                    }
                    None => {
                        // A reply whose caller already gave up (or a
                        // confused peer). Counted, not dropped silently:
                        // a storm of these means the cluster answers
                        // slower than clients are willing to wait.
                        metrics.orphan_response();
                    }
                }
            }
            Ok(_) => {} // clients ignore ring traffic and stray requests
            Err(RecvError::Timeout) => {}
            Err(RecvError::Closed) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelHub;
    use d2_types::Key;

    /// A toy responder: answers every Get with an empty block.
    fn spawn_echo_node(hub: &ChannelHub) -> (Addr, JoinHandle<()>) {
        let t = hub.open();
        let addr = t.local_addr();
        let h = std::thread::spawn(move || loop {
            match t.recv_timeout(Duration::from_millis(50)) {
                Ok((
                    WireMsg::Request {
                        req_id,
                        from,
                        body: Request::Get { .. },
                    },
                    _,
                )) => {
                    let resp = WireMsg::Response {
                        req_id,
                        body: Response::Block { data: None },
                    };
                    let _ = t.send(from, &resp);
                }
                Ok((
                    WireMsg::Request {
                        req_id,
                        from,
                        body: Request::Shutdown,
                    },
                    _,
                )) => {
                    let _ = t.send(
                        from,
                        &WireMsg::Response {
                            req_id,
                            body: Response::ShutdownAck,
                        },
                    );
                    return;
                }
                Ok(_) => {}
                Err(RecvError::Timeout) => {}
                Err(RecvError::Closed) => return,
            }
        });
        (addr, h)
    }

    #[test]
    fn call_round_trips_and_records_rtt() {
        let metrics = Arc::new(NetMetrics::new());
        let hub = ChannelHub::new(metrics.clone());
        let (node, h) = spawn_echo_node(&hub);
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
        // The dispatcher sees the late reply with no pending caller.
        let deadline = Instant::now() + Duration::from_secs(5);
        while metrics.snapshot().counter("net.orphan_responses") == 0 {
            assert!(Instant::now() < deadline, "orphan never counted");
            std::thread::sleep(Duration::from_millis(10));
        }
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
        let (node, h) = spawn_echo_node(&hub);
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
}
