//! Seeded property test of the connection state machines with no
//! socket underneath: `InboundConn` / `OutboundConn` are generic over
//! the byte stream, so a scripted stream can serve them every awkward
//! thing a nonblocking socket is allowed to do — 1..n-byte short reads,
//! `WouldBlock` at any point, short writes, a reset in the middle of a
//! frame, garbage after the last frame.
//!
//! The property: every complete frame is delivered exactly once, in
//! order; a reset or garbage closes the connection without a panic and
//! without inventing or repeating a frame.
//!
//! Hand-rolled splitmix64 instead of proptest so the test also runs in
//! the offline build, where proptest is not available.

use d2_wire::codec::{self, Request};
use d2_wire::conn::{ConnState, InboundConn, OutboundConn, PendingFrames};
use d2_wire::transport::channel_mailbox;
use d2_wire::{NetMetrics, WireMsg};
use std::collections::VecDeque;
use std::io::{self, Read, Write};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// What the scripted stream does on its next `read` or `write` call.
enum Step {
    /// Transfer at most this many bytes.
    Bytes(usize),
    WouldBlock,
    Reset,
}

/// A nonblocking byte stream following a script. Reads serve `input`
/// front to back; writes append to `written`. When the script runs out
/// every call reports `WouldBlock`, as an idle socket would.
struct Scripted {
    steps: VecDeque<Step>,
    input: VecDeque<u8>,
    written: Vec<u8>,
}

impl Scripted {
    fn new(steps: Vec<Step>, input: Vec<u8>) -> Scripted {
        Scripted {
            steps: steps.into(),
            input: input.into(),
            written: Vec::new(),
        }
    }
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.steps.pop_front() {
            Some(Step::Bytes(n)) => {
                let n = n.min(buf.len()).min(self.input.len());
                for (slot, byte) in buf.iter_mut().zip(self.input.drain(..n)) {
                    *slot = byte;
                }
                // Running dry mid-script is an orderly EOF.
                Ok(n)
            }
            Some(Step::Reset) => Err(io::ErrorKind::ConnectionReset.into()),
            Some(Step::WouldBlock) | None => Err(io::ErrorKind::WouldBlock.into()),
        }
    }
}

impl Write for Scripted {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.steps.pop_front() {
            Some(Step::Bytes(n)) => {
                let n = n.min(buf.len());
                self.written.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            Some(Step::Reset) => Err(io::ErrorKind::BrokenPipe.into()),
            Some(Step::WouldBlock) | None => Err(io::ErrorKind::WouldBlock.into()),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn random_msg(rng: &mut Rng, req_id: u64) -> WireMsg {
    let key = d2_types::Key::from_u64(rng.next());
    let body = if rng.range(0, 2) == 0 {
        Request::Put {
            key,
            fanout: 0,
            stored: 0,
            data: (0..rng.range(0, 600)).map(|_| rng.next() as u8).collect(),
        }
    } else {
        Request::Get { key }
    };
    WireMsg::Request {
        req_id,
        from: 7,
        body,
    }
}

/// A script that moves `total` bytes in 1..=`max_chunk`-byte steps with
/// `WouldBlock`s sprinkled in between.
fn chunked_steps(rng: &mut Rng, total: usize, max_chunk: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut moved = 0;
    while moved < total {
        if rng.range(0, 3) == 0 {
            steps.push(Step::WouldBlock);
        }
        let n = rng.range(1, max_chunk).min(total - moved);
        steps.push(Step::Bytes(n));
        moved += n;
    }
    steps
}

/// Pumps `conn` the way the poller does — once per readiness event —
/// until it closes or `events` events have passed, collecting what was
/// delivered.
fn pump_all(
    conn: &mut InboundConn<Scripted>,
    events: usize,
    metrics: &NetMetrics,
) -> (ConnState, Vec<WireMsg>) {
    let (tx, rx) = channel_mailbox();
    let mut scratch = vec![0u8; 256];
    let mut state = ConnState::Open;
    for _ in 0..events {
        state = conn.pump(&mut scratch, Some(&tx), metrics);
        if state == ConnState::Closed {
            break;
        }
    }
    drop(tx);
    (state, rx.iter().map(|(_, msg, _)| msg).collect())
}

#[test]
fn frames_survive_short_reads_short_writes_resets_and_garbage() {
    for seed in 0..300u64 {
        let mut rng = Rng(seed);
        let metrics = NetMetrics::new();
        let msgs: Vec<WireMsg> = (0..rng.range(1, 12))
            .map(|i| random_msg(&mut rng, i as u64))
            .collect();

        // Write side: queue every frame, then flush through a stream
        // that takes a few bytes at a time and often refuses.
        let mut pending = PendingFrames::default();
        let mut frame_ends = Vec::new();
        for m in &msgs {
            codec::encode_traced_into(&mut pending.buf, m, d2_obs::TraceCtx::NONE);
            pending.frames += 1;
            frame_ends.push(pending.buf.len());
        }
        let wire_len = pending.buf.len();
        let max_chunk = rng.range(1, 97);
        let steps = chunked_steps(&mut rng, wire_len, max_chunk);
        let calls = steps.len();
        let mut out = OutboundConn::new(Scripted::new(steps, Vec::new()));
        out.load(&mut pending);
        assert_eq!(out.frames_in_carry(), msgs.len() as u64, "seed {seed}");
        let mut drained = false;
        for _ in 0..=calls {
            // Each call is one POLLOUT event.
            drained = out.flush(&metrics).expect("script has no reset");
            if drained {
                break;
            }
        }
        assert!(
            drained && !out.has_backlog(),
            "seed {seed}: carry never drained"
        );
        let wire = out.stream().written.clone();
        assert_eq!(wire.len(), wire_len, "seed {seed}: bytes lost or repeated");

        // Read side, three endings: a clean stream, a reset somewhere
        // in the stream, and garbage after the last frame.
        let max_chunk = rng.range(1, 64);
        let steps = chunked_steps(&mut rng, wire_len, max_chunk);
        let events = steps.len() + 2;
        let mut conn = InboundConn::new(Scripted::new(steps, wire.clone()), 9);
        let (state, got) = pump_all(&mut conn, events, &metrics);
        assert_eq!(state, ConnState::Open, "seed {seed}");
        assert_eq!(got, msgs, "seed {seed}: clean stream");

        let cut = rng.range(0, wire_len - 1);
        let mut steps = chunked_steps(&mut rng, cut, max_chunk);
        steps.push(Step::Reset);
        let events = steps.len() + 2;
        let mut conn = InboundConn::new(Scripted::new(steps, wire.clone()), 9);
        let (state, got) = pump_all(&mut conn, events, &metrics);
        let whole = frame_ends.iter().filter(|&&end| end <= cut).count();
        assert_eq!(state, ConnState::Closed, "seed {seed}");
        assert_eq!(got, msgs[..whole], "seed {seed}: reset after {cut} bytes");

        let mut dirty = wire.clone();
        // Never the frame magic, so the header check must trip.
        dirty.extend((0..rng.range(codec::HEADER_LEN, 40)).map(|_| 0xEE));
        let steps = chunked_steps(&mut rng, dirty.len(), max_chunk);
        let events = steps.len() + 2;
        let errors_before = metrics.snapshot().counter("net.decode_errors");
        let mut conn = InboundConn::new(Scripted::new(steps, dirty), 9);
        let (state, got) = pump_all(&mut conn, events, &metrics);
        assert_eq!(state, ConnState::Closed, "seed {seed}");
        assert_eq!(got, msgs, "seed {seed}: trailing garbage");
        assert_eq!(
            metrics.snapshot().counter("net.decode_errors"),
            errors_before + 1,
            "seed {seed}"
        );
    }
}

#[test]
fn a_reset_mid_write_fails_the_flush_and_probe_sees_eof() {
    let metrics = NetMetrics::new();
    let mut pending = PendingFrames::default();
    codec::encode_traced_into(
        &mut pending.buf,
        &random_msg(&mut Rng(1), 1),
        d2_obs::TraceCtx::NONE,
    );
    pending.frames = 1;
    let steps = vec![
        Step::Bytes(3),
        Step::WouldBlock,
        Step::Bytes(2),
        Step::Reset,
    ];
    let mut out = OutboundConn::new(Scripted::new(steps, Vec::new()));
    out.load(&mut pending);
    assert!(!out.flush(&metrics).unwrap(), "WouldBlock leaves a backlog");
    assert!(out.has_backlog());
    assert!(out.flush(&metrics).is_err(), "reset surfaces as an error");
    assert_eq!(out.frames_in_carry(), 1, "the batch is still accounted");
    assert_eq!(metrics.snapshot().counter("net.msgs_out"), 0);

    // The read side of an outbound connection: chatter is discarded,
    // quiet is Open, EOF is Closed.
    let mut scratch = [0u8; 16];
    let steps = vec![Step::Bytes(5), Step::WouldBlock, Step::Bytes(4)];
    let mut out = OutboundConn::new(Scripted::new(steps, vec![1; 5]));
    assert_eq!(out.probe_eof(&mut scratch), ConnState::Open);
    assert_eq!(out.probe_eof(&mut scratch), ConnState::Closed);
}
