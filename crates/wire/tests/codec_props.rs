//! Seeded property tests for the wire codec: every message round-trips
//! through encode/decode, and adversarial byte streams (truncations,
//! corrupted headers, random garbage, oversized length prefixes) always
//! yield a `WireError` — never a panic, never a silent mis-decode. A
//! failure prints its seed.

use d2_obs::{Histogram, SpanRecord, TraceCtx};
use d2_ring::messages::{PeerInfo, RingMsg};
use d2_types::{Key, KeyRange, KEY_BYTES};
use d2_wire::codec::{
    decode_header, decode_traced, encode_traced_into, Request, Response, WireHistogram,
    WireMetrics, WireMsg, WireStatus, HEADER_LEN, MAX_PAYLOAD, VERSION,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const SEEDS: u64 = 256;

fn key(rng: &mut StdRng) -> Key {
    let mut b = [0u8; KEY_BYTES];
    rng.fill_bytes(&mut b);
    Key::from_bytes(b)
}

fn bytes(rng: &mut StdRng, max: usize) -> Vec<u8> {
    let mut b = vec![0u8; rng.random_range(0..max)];
    rng.fill_bytes(&mut b);
    b
}

fn peer(rng: &mut StdRng) -> PeerInfo {
    PeerInfo {
        id: key(rng),
        addr: rng.random::<u64>() as usize,
    }
}

fn peers(rng: &mut StdRng) -> Vec<PeerInfo> {
    (0..rng.random_range(0..6)).map(|_| peer(rng)).collect()
}

fn opt_peer(rng: &mut StdRng) -> Option<PeerInfo> {
    rng.random::<bool>().then(|| peer(rng))
}

fn range(rng: &mut StdRng) -> KeyRange {
    KeyRange::new(key(rng), key(rng))
}

fn ring_msg(rng: &mut StdRng) -> RingMsg {
    match rng.random_range(0..7) {
        0 => RingMsg::FindOwner {
            target: key(rng),
            origin: rng.random::<u64>() as usize,
            req_id: rng.random(),
            hops: rng.random(),
        },
        1 => RingMsg::OwnerIs {
            req_id: rng.random(),
            owner: peer(rng),
            range: range(rng),
            successors: peers(rng),
            hops: rng.random(),
        },
        2 => RingMsg::Join {
            joiner: peer(rng),
            hops: rng.random(),
        },
        3 => RingMsg::JoinAck {
            successor: peer(rng),
            predecessor: opt_peer(rng),
            successors: peers(rng),
        },
        4 => RingMsg::GetNeighbors {
            from: rng.random::<u64>() as usize,
        },
        5 => RingMsg::Neighbors {
            me: peer(rng),
            predecessor: opt_peer(rng),
            successors: peers(rng),
        },
        _ => RingMsg::Notify {
            candidate: peer(rng),
        },
    }
}

fn request(rng: &mut StdRng) -> Request {
    match rng.random_range(0..9) {
        0 => Request::Lookup { key: key(rng) },
        1 => Request::Put {
            key: key(rng),
            fanout: rng.random(),
            stored: rng.random(),
            data: bytes(rng, 512),
        },
        2 => Request::Get { key: key(rng) },
        3 => Request::PutFragment {
            key: key(rng),
            index: rng.random(),
            total: rng.random(),
            generation: rng.random(),
            check: rng.random(),
            block_len: rng.random(),
            data: bytes(rng, 512),
        },
        4 => Request::GetFragment {
            key: key(rng),
            want_data: rng.random(),
        },
        5 => Request::SyncRange {
            range: range(rng),
            count: rng.random(),
            digest: rng.random(),
        },
        6 => Request::Status,
        7 => Request::MetricsDump,
        _ => Request::Shutdown,
    }
}

/// A dotted lowercase metric name, `[a-z]{1,4}\.[a-z]{1,8}`.
fn name(rng: &mut StdRng) -> String {
    let mut word = |lo: usize, hi: usize| -> String {
        (0..rng.random_range(lo..=hi))
            .map(|_| rng.random_range(b'a'..=b'z') as char)
            .collect()
    };
    format!("{}.{}", word(1, 4), word(1, 8))
}

fn span(rng: &mut StdRng) -> SpanRecord {
    SpanRecord {
        trace_id: rng.random(),
        span_id: rng.random(),
        parent_span_id: rng.random(),
        hop: rng.random(),
        node: rng.random(),
        start_us: rng.random(),
        dur_us: rng.random(),
        ok: rng.random(),
        op: name(rng),
        detail: name(rng),
    }
}

fn wire_metrics(rng: &mut StdRng) -> WireMetrics {
    // Histograms are built by actually recording samples, so their parts
    // are always self-consistent (as a real node's would be).
    let hist = |rng: &mut StdRng| {
        let mut h = Histogram::new();
        for _ in 0..rng.random_range(0..8) {
            h.record(rng.random());
        }
        WireHistogram {
            name: name(rng),
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            buckets: h.buckets().to_vec(),
        }
    };
    WireMetrics {
        counters: (0..rng.random_range(0..4))
            .map(|_| (name(rng), rng.random()))
            .collect(),
        gauges: (0..rng.random_range(0..4))
            .map(|_| (name(rng), rng.random()))
            .collect(),
        histograms: (0..rng.random_range(0..3)).map(|_| hist(rng)).collect(),
        spans: (0..rng.random_range(0..4)).map(|_| span(rng)).collect(),
    }
}

fn response(rng: &mut StdRng) -> Response {
    match rng.random_range(0..9) {
        0 => Response::Owner {
            owner: peer(rng),
            range: range(rng),
            hops: rng.random(),
        },
        1 => Response::PutAck {
            replicas: rng.random(),
        },
        2 => Response::Block {
            data: rng.random::<bool>().then(|| bytes(rng, 512)),
        },
        3 => Response::Fragment {
            has: rng.random(),
            index: rng.random(),
            generation: rng.random(),
            check: rng.random(),
            block_len: rng.random(),
            data: bytes(rng, 512),
        },
        4 => Response::RangeKeys {
            entries: (0..rng.random_range(0..8))
                .map(|_| (key(rng), rng.random()))
                .collect(),
        },
        5 => Response::Status(WireStatus {
            me: peer(rng),
            predecessor: opt_peer(rng),
            successors: peers(rng),
            blocks: rng.random(),
        }),
        6 => Response::Metrics(Box::new(wire_metrics(rng))),
        7 => Response::ShutdownAck,
        _ => Response::NotOwner,
    }
}

fn trace(rng: &mut StdRng) -> TraceCtx {
    TraceCtx {
        trace_id: rng.random(),
        span_id: rng.random(),
        hop: rng.random(),
    }
}

fn wire_msg(rng: &mut StdRng) -> WireMsg {
    match rng.random_range(0..3) {
        0 => WireMsg::Ring(ring_msg(rng)),
        1 => WireMsg::Request {
            req_id: rng.random(),
            from: rng.random::<u64>() as usize,
            body: request(rng),
        },
        _ => WireMsg::Response {
            req_id: rng.random(),
            body: response(rng),
        },
    }
}

/// Runs `check` on a seeded generator and the random message it drew
/// first, for every seed.
/// Runs `check` on one random message per seed and its untraced frame.
fn for_msgs(check: impl Fn(u64, &mut StdRng, WireMsg, Vec<u8>)) {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = wire_msg(&mut rng);
        let mut frame = Vec::new();
        encode_traced_into(&mut frame, &msg, TraceCtx::NONE);
        check(seed, &mut rng, msg, frame);
    }
}

/// Every message variant survives encode → decode unchanged.
#[test]
fn every_message_round_trips() {
    for_msgs(|seed, _, msg, frame| {
        let untraced = Ok((msg, TraceCtx::NONE));
        assert_eq!(decode_traced(&frame), untraced, "seed {seed}");
    });
}

/// The frame header is canonical: magic, version, tag, and an exact
/// payload length.
#[test]
fn frames_carry_canonical_headers() {
    for_msgs(|seed, _, msg, frame| {
        assert_eq!(&frame[..3], &[b'D', b'2', VERSION], "seed {seed}");
        assert_eq!(frame[3], msg.tag(), "seed {seed}");
        let len = u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]) as usize;
        assert_eq!(len, frame.len() - HEADER_LEN, "seed {seed}");
        let hdr = frame.first_chunk().unwrap();
        assert_eq!(decode_header(hdr), Ok((msg.tag(), len)), "seed {seed}");
    });
}

/// The encoder appends (returning the frame length) rather than
/// clobbering what the buffer already holds, since the TCP transport's
/// coalescing queue packs many frames into one buffer; and the trace
/// context round-trips bit-exactly on every message variant.
#[test]
fn frames_append_and_carry_their_trace_context() {
    for_msgs(|seed, rng, msg, frame| {
        let trace = trace(rng);
        let mut buf = b"prefix".to_vec();
        let n = encode_traced_into(&mut buf, &msg, TraceCtx::NONE);
        assert_eq!(&buf[..6], b"prefix", "seed {seed}");
        assert_eq!(n, buf.len() - 6, "seed {seed}");
        assert_eq!(buf[6..], frame, "seed {seed}");

        buf.clear();
        let n = encode_traced_into(&mut buf, &msg, trace);
        assert_eq!(n, buf.len(), "seed {seed}");
        assert_eq!(decode_traced(&buf), Ok((msg, trace)), "seed {seed}");
    });
}

/// Any strict prefix of a valid frame is an error, at every cut.
#[test]
fn any_truncation_is_an_error() {
    for_msgs(|seed, rng, _, frame| {
        let cut = rng.random_range(0..frame.len());
        let got = decode_traced(&frame[..cut]);
        assert!(got.is_err(), "seed {seed}: cut at {cut}");
    });
}

/// Trailing bytes after a well-formed payload are an error (frames are
/// exact, not prefixes of a stream).
#[test]
fn trailing_bytes_are_an_error() {
    for_msgs(|seed, rng, _, mut frame| {
        // Grow the payload without fixing the length prefix.
        frame.extend(std::iter::repeat_n(0u8, rng.random_range(1..16)));
        assert!(decode_traced(&frame).is_err(), "seed {seed}");
    });
}

/// A corrupted magic byte, or any version byte but the current one,
/// rejects the frame outright.
#[test]
fn corrupt_magic_or_version_is_an_error() {
    for_msgs(|seed, rng, _, mut frame| {
        let pos = rng.random_range(0..3);
        frame[pos] ^= rng.random_range(1..=255u8);
        assert!(decode_traced(&frame).is_err(), "seed {seed}: byte {pos}");
    });
}

/// An unknown tag byte is rejected even with a plausible header.
#[test]
fn unknown_tags_are_an_error() {
    for_msgs(|seed, rng, _, mut frame| {
        let tag: u8 = rng.random();
        if matches!(tag, 0x01..=0x07 | 0x10..=0x18 | 0x20..=0x28) {
            return;
        }
        frame[3] = tag;
        assert!(
            decode_traced(&frame).is_err(),
            "seed {seed}: tag {tag:#04x}"
        );
    });
}

/// Arbitrary byte soup never panics the decoder.
#[test]
fn random_bytes_never_panic() {
    for seed in 0..SEEDS {
        let soup = bytes(&mut StdRng::seed_from_u64(seed), 256);
        let _ = decode_traced(&soup);
        if let Some(hdr) = soup.first_chunk::<HEADER_LEN>() {
            let _ = decode_header(hdr);
        }
    }
}

/// A length prefix beyond [`MAX_PAYLOAD`] is rejected at the header,
/// before any allocation could balloon.
#[test]
fn oversized_length_prefix_is_an_error() {
    for seed in 0..SEEDS {
        let extra = StdRng::seed_from_u64(seed).random_range(1u32..1 << 30);
        let len = (MAX_PAYLOAD as u32).saturating_add(extra);
        let mut hdr = [0u8; HEADER_LEN];
        hdr[..3].copy_from_slice(&[b'D', b'2', VERSION]);
        hdr[3] = 0x10;
        hdr[4..].copy_from_slice(&len.to_be_bytes());
        assert!(decode_header(&hdr).is_err(), "seed {seed}");
    }
}
