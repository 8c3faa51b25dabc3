//! Property tests for the wire codec: every message round-trips through
//! encode/decode, and adversarial byte streams (truncations, corrupted
//! headers, random garbage, oversized length prefixes) always yield a
//! `WireError` — never a panic, never a silent mis-decode.

use d2_obs::{Histogram, SpanRecord, TraceCtx};
use d2_ring::messages::{PeerInfo, RingMsg};
use d2_types::{Key, KeyRange};
use d2_wire::codec::{
    decode, decode_header, decode_traced, encode, encode_into, encode_traced, encode_traced_into,
    Request, Response, WireHistogram, WireMetrics, WireMsg, WireStatus, HEADER_LEN, MAX_PAYLOAD,
    VERSION,
};
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = Key> {
    prop::collection::vec(any::<u8>(), 64).prop_map(|v| {
        let mut b = [0u8; 64];
        b.copy_from_slice(&v);
        Key::from_bytes(b)
    })
}

fn arb_peer() -> impl Strategy<Value = PeerInfo> {
    (arb_key(), any::<u64>()).prop_map(|(id, addr)| PeerInfo {
        id,
        addr: addr as usize,
    })
}

fn arb_peers() -> impl Strategy<Value = Vec<PeerInfo>> {
    prop::collection::vec(arb_peer(), 0..6)
}

fn arb_opt_peer() -> impl Strategy<Value = Option<PeerInfo>> {
    prop_oneof![Just(None), arb_peer().prop_map(Some)]
}

fn arb_range() -> impl Strategy<Value = KeyRange> {
    (arb_key(), arb_key()).prop_map(|(a, b)| KeyRange::new(a, b))
}

fn arb_ring_msg() -> impl Strategy<Value = RingMsg> {
    prop_oneof![
        (arb_key(), any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
            |(target, origin, req_id, hops)| RingMsg::FindOwner {
                target,
                origin: origin as usize,
                req_id,
                hops,
            }
        ),
        (
            (any::<u64>(), arb_peer()),
            (arb_range(), arb_peers(), any::<u32>())
        )
            .prop_map(
                |((req_id, owner), (range, successors, hops))| RingMsg::OwnerIs {
                    req_id,
                    owner,
                    range,
                    successors,
                    hops,
                }
            ),
        (arb_peer(), any::<u32>()).prop_map(|(joiner, hops)| RingMsg::Join { joiner, hops }),
        (arb_peer(), arb_opt_peer(), arb_peers()).prop_map(
            |(successor, predecessor, successors)| RingMsg::JoinAck {
                successor,
                predecessor,
                successors,
            }
        ),
        any::<u64>().prop_map(|from| RingMsg::GetNeighbors {
            from: from as usize
        }),
        (arb_peer(), arb_opt_peer(), arb_peers()).prop_map(|(me, predecessor, successors)| {
            RingMsg::Neighbors {
                me,
                predecessor,
                successors,
            }
        }),
        arb_peer().prop_map(|candidate| RingMsg::Notify { candidate }),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        arb_key().prop_map(|key| Request::Lookup { key }),
        (
            arb_key(),
            any::<u32>(),
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..512)
        )
            .prop_map(|(key, fanout, stored, data)| Request::Put {
                key,
                fanout,
                stored,
                data,
            }),
        arb_key().prop_map(|key| Request::Get { key }),
        Just(Request::Status),
        Just(Request::MetricsDump),
        Just(Request::Shutdown),
    ]
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z]{1,4}\\.[a-z]{1,8}"
}

fn arb_span() -> impl Strategy<Value = SpanRecord> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
        (arb_name(), arb_name()),
    )
        .prop_map(
            |(
                (trace_id, span_id, parent_span_id, hop),
                (node, start_us, dur_us, ok),
                (op, detail),
            )| SpanRecord {
                trace_id,
                span_id,
                parent_span_id,
                hop,
                node,
                start_us,
                dur_us,
                ok,
                op,
                detail,
            },
        )
}

fn arb_wire_metrics() -> impl Strategy<Value = WireMetrics> {
    // Histograms are built by actually recording samples, so their
    // parts are always self-consistent (as a real node's would be).
    let arb_hist =
        (arb_name(), prop::collection::vec(any::<u64>(), 0..8)).prop_map(|(name, samples)| {
            let mut h = Histogram::new();
            for v in samples {
                h.record(v);
            }
            WireHistogram {
                name,
                count: h.count(),
                sum: h.sum(),
                min: h.min(),
                max: h.max(),
                buckets: h.buckets().to_vec(),
            }
        });
    (
        prop::collection::vec((arb_name(), any::<u64>()), 0..4),
        prop::collection::vec((arb_name(), any::<u64>()), 0..4),
        prop::collection::vec(arb_hist, 0..3),
        prop::collection::vec(arb_span(), 0..4),
    )
        .prop_map(|(counters, gauges, histograms, spans)| WireMetrics {
            counters,
            gauges,
            histograms,
            spans,
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (arb_peer(), arb_range(), any::<u32>()).prop_map(|(owner, range, hops)| Response::Owner {
            owner,
            range,
            hops
        }),
        any::<u32>().prop_map(|replicas| Response::PutAck { replicas }),
        prop_oneof![
            Just(None),
            prop::collection::vec(any::<u8>(), 0..512).prop_map(Some)
        ]
        .prop_map(|data| Response::Block { data }),
        ((arb_peer(), arb_opt_peer()), (arb_peers(), any::<u64>())).prop_map(
            |((me, predecessor), (successors, blocks))| {
                Response::Status(WireStatus {
                    me,
                    predecessor,
                    successors,
                    blocks,
                })
            }
        ),
        arb_wire_metrics().prop_map(|m| Response::Metrics(Box::new(m))),
        Just(Response::ShutdownAck),
        Just(Response::NotOwner),
    ]
}

fn arb_trace() -> impl Strategy<Value = TraceCtx> {
    (any::<u64>(), any::<u64>(), any::<u8>()).prop_map(|(trace_id, span_id, hop)| TraceCtx {
        trace_id,
        span_id,
        hop,
    })
}

fn arb_wire_msg() -> impl Strategy<Value = WireMsg> {
    prop_oneof![
        arb_ring_msg().prop_map(WireMsg::Ring),
        (any::<u64>(), any::<u64>(), arb_request()).prop_map(|(req_id, from, body)| {
            WireMsg::Request {
                req_id,
                from: from as usize,
                body,
            }
        }),
        (any::<u64>(), arb_response())
            .prop_map(|(req_id, body)| WireMsg::Response { req_id, body }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every message variant survives encode → decode unchanged.
    #[test]
    fn every_message_round_trips(msg in arb_wire_msg()) {
        let frame = encode(&msg);
        prop_assert_eq!(decode(&frame).unwrap(), msg);
    }

    /// The frame header is canonical: magic, version, tag, and an exact
    /// payload length.
    #[test]
    fn frames_carry_canonical_headers(msg in arb_wire_msg()) {
        let frame = encode(&msg);
        prop_assert_eq!(&frame[..2], &b"D2"[..]);
        prop_assert_eq!(frame[2], VERSION);
        prop_assert_eq!(frame[3], msg.tag());
        let len = u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]) as usize;
        prop_assert_eq!(len, frame.len() - HEADER_LEN);
        let mut hdr = [0u8; HEADER_LEN];
        hdr.copy_from_slice(&frame[..HEADER_LEN]);
        prop_assert_eq!(decode_header(&hdr).unwrap(), (msg.tag(), len));
    }

    /// The zero-copy path is byte-identical to the allocating one, for
    /// every message variant, traced and untraced alike — and
    /// `encode_into` appends (returning the frame length) rather than
    /// clobbering what the buffer already holds, since the TCP
    /// transport's coalescing queue packs many frames into one buffer.
    #[test]
    fn encode_into_matches_encode_bytewise(msg in arb_wire_msg(), trace in arb_trace()) {
        let mut buf = b"prefix".to_vec();
        let n = encode_into(&mut buf, &msg);
        prop_assert_eq!(&buf[..6], &b"prefix"[..]);
        prop_assert_eq!(n, buf.len() - 6);
        prop_assert_eq!(&buf[6..], &encode(&msg)[..]);

        let mut traced = Vec::new();
        let tn = encode_traced_into(&mut traced, &msg, trace);
        prop_assert_eq!(tn, traced.len());
        prop_assert_eq!(&traced[..], &encode_traced(&msg, trace)[..]);
    }

    /// The envelope trace context round-trips bit-exactly on every
    /// message variant.
    #[test]
    fn trace_context_round_trips(msg in arb_wire_msg(), trace in arb_trace()) {
        let frame = encode_traced(&msg, trace);
        let (got, got_trace) = decode_traced(&frame).unwrap();
        prop_assert_eq!(got, msg);
        prop_assert_eq!(got_trace, trace);
    }

    /// Any strict prefix of a valid frame is an error, at every cut.
    #[test]
    fn any_truncation_is_an_error(msg in arb_wire_msg(), frac in 0.0f64..1.0) {
        let frame = encode(&msg);
        let cut = ((frame.len() as f64) * frac) as usize;
        prop_assert!(decode(&frame[..cut.min(frame.len() - 1)]).is_err());
    }

    /// Trailing bytes after a well-formed payload are an error (frames
    /// are exact, not prefixes of a stream).
    #[test]
    fn trailing_bytes_are_an_error(msg in arb_wire_msg(), extra in 1usize..16) {
        let mut frame = encode(&msg);
        // Grow the payload without fixing the length prefix.
        frame.extend(std::iter::repeat_n(0u8, extra));
        prop_assert!(decode(&frame).is_err());
    }

    /// A corrupted magic byte, or any version byte but the current one,
    /// rejects the frame outright.
    #[test]
    fn corrupt_magic_or_version_is_an_error(msg in arb_wire_msg(), byte in any::<u8>(), pos in 0usize..3) {
        let mut frame = encode(&msg);
        prop_assume!(frame[pos] != byte);
        frame[pos] = byte;
        prop_assert!(decode(&frame).is_err());
    }

    /// An unknown tag byte is rejected even with a plausible header.
    #[test]
    fn unknown_tags_are_an_error(msg in arb_wire_msg(), tag in any::<u8>()) {
        let valid = matches!(tag, 0x01..=0x07 | 0x10..=0x17 | 0x20..=0x27);
        prop_assume!(!valid);
        let mut frame = encode(&msg);
        frame[3] = tag;
        prop_assert!(decode(&frame).is_err());
    }

    /// Arbitrary byte soup never panics the decoder.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
        if bytes.len() >= HEADER_LEN {
            let mut hdr = [0u8; HEADER_LEN];
            hdr.copy_from_slice(&bytes[..HEADER_LEN]);
            let _ = decode_header(&hdr);
        }
    }

    /// A length prefix beyond [`MAX_PAYLOAD`] is rejected at the header,
    /// before any allocation could balloon.
    #[test]
    fn oversized_length_prefix_is_an_error(extra in 1u32..1 << 30) {
        let len = (MAX_PAYLOAD as u32).saturating_add(extra);
        let mut hdr = [0u8; HEADER_LEN];
        hdr[..2].copy_from_slice(b"D2");
        hdr[2] = VERSION;
        hdr[3] = 0x10;
        hdr[4..].copy_from_slice(&len.to_be_bytes());
        prop_assert!(decode_header(&hdr).is_err());
    }
}
