//! Transport-level counters and RTT histograms, exported into
//! [`d2_obs::Registry`] snapshots.

use d2_obs::{Histogram, Registry};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared network metrics: every transport and client port of one
/// deployment records into the same instance, and
/// [`NetMetrics::snapshot_into`] folds the totals into a metric registry
/// under the `net.*` namespace.
///
/// Counters are lock-free atomics (they sit on the per-frame path); the
/// per-message-type RTT histograms live behind a mutex because they are
/// touched once per client round trip, not per frame. They are keyed by
/// the request type's static name, so recording allocates nothing; the
/// exported `net.rtt_us.<type>` names are built at snapshot time.
#[derive(Debug, Default)]
pub struct NetMetrics {
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    msgs_in: AtomicU64,
    msgs_out: AtomicU64,
    reconnects: AtomicU64,
    decode_errors: AtomicU64,
    orphan_responses: AtomicU64,
    loopback_msgs: AtomicU64,
    coalesced_frames: AtomicU64,
    backlog_drops: AtomicU64,
    poller_wakeups: AtomicU64,
    poller_ready_fds: AtomicU64,
    wake_writes: AtomicU64,
    flush_ticks: AtomicU64,
    flush_wait: Mutex<Histogram>,
    rtt: Mutex<Vec<(&'static str, Histogram)>>,
}

impl NetMetrics {
    /// Creates a zeroed metrics sheet.
    pub fn new() -> Self {
        NetMetrics::default()
    }

    /// Records one received frame of `bytes` total size.
    pub fn frame_in(&self, bytes: usize) {
        self.bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
        self.msgs_in.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one sent frame of `bytes` total size.
    pub fn frame_out(&self, bytes: usize) {
        self.frames_out(1, bytes);
    }

    /// Records `frames` sent frames totalling `bytes` — one coalesced
    /// write that carried a whole batch.
    pub fn frames_out(&self, frames: u64, bytes: usize) {
        self.bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
        self.msgs_out.fetch_add(frames, Ordering::Relaxed);
    }

    /// Records a successful reconnect to a peer that had failed.
    pub fn reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a frame that failed to decode (and cost its connection).
    pub fn decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a response whose `req_id` matched no pending request — a
    /// reply that arrived after its caller timed out (or a confused
    /// peer). A storm of these is how `d2-node top` spots a cluster
    /// answering slower than its clients are willing to wait.
    pub fn orphan_response(&self) {
        self.orphan_responses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a message delivered over the loopback short-circuit (no
    /// socket, no encoded frame). Counted separately from
    /// `net.msgs_{in,out}` so mean-frame-size math over
    /// `net.bytes_* / net.msgs_*` only ever divides real wire traffic.
    pub fn loopback_msg(&self) {
        self.loopback_msgs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a batched write: `frames` frames left in one syscall.
    /// Only drains of two or more frames count — the steady state of an
    /// uncontended peer is one frame per write and would drown the
    /// signal.
    pub fn coalesced_write(&self, frames: u64) {
        self.coalesced_frames.fetch_add(frames, Ordering::Relaxed);
    }

    /// Records a send refused because the peer's pending queue was at
    /// its byte cap: the peer is connected but not draining ("slow"),
    /// as opposed to unreachable ("dead").
    pub fn backlog_drop(&self) {
        self.backlog_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one return of the poller's `ppoll(2)` call that found
    /// `ready_fds` descriptors ready (the wake pipe included).
    pub fn poller_wakeup(&self, ready_fds: usize) {
        self.poller_wakeups.fetch_add(1, Ordering::Relaxed);
        self.poller_ready_fds
            .fetch_add(ready_fds as u64, Ordering::Relaxed);
    }

    /// Records one byte written to the poller's wake pipe. A burst of
    /// sends landing before the poller wakes shares a single write.
    pub fn wake_write(&self) {
        self.wake_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one flush tick on which the poller wrote frames queued
    /// by threads other than the one that turns it.
    pub fn flush_tick(&self) {
        self.flush_ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed write whose oldest frame had waited `us`
    /// microseconds in its peer's pending queue (`net.flush_wait_us`).
    pub fn flush_wait(&self, us: u64) {
        self.flush_wait.lock().record(us);
    }

    /// Records one request round trip of `us` microseconds for the
    /// message type `name` (histogram `net.rtt_us.<name>`).
    pub fn record_rtt(&self, name: &'static str, us: u64) {
        let mut rtt = self.rtt.lock();
        // A handful of request types: a scan beats hashing.
        match rtt.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => h.record(us),
            None => {
                let mut h = Histogram::new();
                h.record(us);
                rtt.push((name, h));
            }
        }
    }

    /// Folds the current totals into `reg`: `net.bytes_{in,out}`,
    /// `net.msgs` (plus the in/out split), `net.reconnects`,
    /// `net.decode_errors`, `net.backlog_drops`, the poller's
    /// `net.poller_wakeups` / `net.poller_ready_fds` / `net.wake_writes`
    /// / `net.flush_ticks`, the `net.flush_wait_us` histogram, and one
    /// `net.rtt_us.<type>` histogram per message type observed.
    pub fn snapshot_into(&self, reg: &mut Registry) {
        let (bi, bo) = (
            self.bytes_in.load(Ordering::Relaxed),
            self.bytes_out.load(Ordering::Relaxed),
        );
        let (mi, mo) = (
            self.msgs_in.load(Ordering::Relaxed),
            self.msgs_out.load(Ordering::Relaxed),
        );
        reg.add("net.bytes_in", bi);
        reg.add("net.bytes_out", bo);
        reg.add("net.msgs", mi + mo);
        reg.add("net.msgs_in", mi);
        reg.add("net.msgs_out", mo);
        reg.add("net.reconnects", self.reconnects.load(Ordering::Relaxed));
        reg.add(
            "net.decode_errors",
            self.decode_errors.load(Ordering::Relaxed),
        );
        reg.add(
            "net.orphan_responses",
            self.orphan_responses.load(Ordering::Relaxed),
        );
        reg.add(
            "net.loopback_msgs",
            self.loopback_msgs.load(Ordering::Relaxed),
        );
        reg.add(
            "net.coalesced_frames",
            self.coalesced_frames.load(Ordering::Relaxed),
        );
        reg.add(
            "net.backlog_drops",
            self.backlog_drops.load(Ordering::Relaxed),
        );
        reg.add(
            "net.poller_wakeups",
            self.poller_wakeups.load(Ordering::Relaxed),
        );
        reg.add(
            "net.poller_ready_fds",
            self.poller_ready_fds.load(Ordering::Relaxed),
        );
        reg.add("net.wake_writes", self.wake_writes.load(Ordering::Relaxed));
        reg.add("net.flush_ticks", self.flush_ticks.load(Ordering::Relaxed));
        let flush_wait = self.flush_wait.lock();
        if flush_wait.count() > 0 {
            reg.merge_histogram("net.flush_wait_us", &flush_wait);
        }
        for (name, h) in self.rtt.lock().iter() {
            reg.merge_histogram(&format!("net.rtt_us.{name}"), h);
        }
    }

    /// The current totals as a fresh registry.
    pub fn snapshot(&self) -> Registry {
        let mut reg = Registry::new();
        self.snapshot_into(&mut reg);
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_all_counters() {
        let m = NetMetrics::new();
        m.frame_in(100);
        m.frame_in(28);
        m.frame_out(64);
        m.reconnect();
        m.record_rtt("lookup", 1500);
        m.record_rtt("lookup", 2500);
        m.orphan_response();
        m.loopback_msg();
        m.loopback_msg();
        m.coalesced_write(3);
        m.backlog_drop();
        m.poller_wakeup(2);
        m.poller_wakeup(1);
        m.wake_write();
        m.flush_tick();
        m.flush_wait(90);
        let reg = m.snapshot();
        assert_eq!(reg.counter("net.bytes_in"), 128);
        assert_eq!(reg.counter("net.bytes_out"), 64);
        assert_eq!(reg.counter("net.msgs"), 3);
        assert_eq!(reg.counter("net.reconnects"), 1);
        assert_eq!(reg.counter("net.orphan_responses"), 1);
        assert_eq!(reg.counter("net.loopback_msgs"), 2);
        assert_eq!(reg.counter("net.coalesced_frames"), 3);
        assert_eq!(reg.counter("net.backlog_drops"), 1);
        assert_eq!(reg.counter("net.poller_wakeups"), 2);
        assert_eq!(reg.counter("net.poller_ready_fds"), 3);
        assert_eq!(reg.counter("net.wake_writes"), 1);
        assert_eq!(reg.counter("net.flush_ticks"), 1);
        assert_eq!(reg.histogram("net.flush_wait_us").unwrap().count(), 1);
        assert_eq!(reg.histogram("net.rtt_us.lookup").unwrap().count(), 2);
    }
}
