//! Seeded property test of the replica-repair frames,
//! `Request::SyncRange` and `Response::RangeKeys`: whatever a node can
//! say round-trips, and whatever a peer can send instead — a key list
//! cut short, a count the payload cannot hold, bytes after the last
//! entry — is a typed `WireError`, never a panic and never an
//! allocation sized by the peer's word.
//!
//! Seeded loops in the idiom of `conn_script.rs`; a failure prints its
//! seed.

use d2_obs::TraceCtx;
use d2_types::{Key, KeyRange, KEY_BYTES};
use d2_wire::codec::{
    decode_traced, encode_traced_into, Request, Response, WireError, HEADER_LEN, TRACE_LEN,
};
use d2_wire::WireMsg;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn key(rng: &mut StdRng) -> Key {
    let mut raw = [0u8; KEY_BYTES];
    rng.fill_bytes(&mut raw);
    Key::from_bytes(raw)
}

fn sync_range(rng: &mut StdRng) -> WireMsg {
    WireMsg::Request {
        req_id: rng.random(),
        from: rng.random_range(0..=1 << 40),
        body: Request::SyncRange {
            range: KeyRange::new(key(rng), key(rng)),
            count: rng.random(),
            digest: rng.random(),
        },
    }
}

fn range_keys(rng: &mut StdRng, entries: usize) -> WireMsg {
    WireMsg::Response {
        req_id: rng.random(),
        body: Response::RangeKeys {
            entries: (0..entries).map(|_| (key(rng), rng.random())).collect(),
        },
    }
}

/// Bytes of a `RangeKeys` frame before its entry count: the header, the
/// trace block and the request id.
const COUNT_AT: usize = HEADER_LEN + TRACE_LEN + 8;
const ENTRY_LEN: usize = KEY_BYTES + 8;

/// Rewrites the frame's length prefix to match its payload, so that what
/// the decoder objects to is the body and not the header.
fn fix_len(frame: &mut [u8]) {
    let len = (frame.len() - HEADER_LEN) as u32;
    frame[4..8].copy_from_slice(&len.to_be_bytes());
}

#[test]
fn repair_frames_round_trip_and_malformed_ones_are_typed_errors() {
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let fail = |what: &str| format!("seed {seed}: {what}");

        let digest = sync_range(&mut rng);
        let mut frame = Vec::new();
        encode_traced_into(&mut frame, &digest, TraceCtx::NONE);
        let untraced = Ok((digest, TraceCtx::NONE));
        assert_eq!(decode_traced(&frame), untraced, "{}", fail("digest"));
        assert!(
            frame.len() <= 256,
            "{}",
            fail("a digest is one small frame")
        );
        let cut = rng.random_range(HEADER_LEN..frame.len());
        let mut short = frame[..cut].to_vec();
        fix_len(&mut short);
        assert!(
            matches!(decode_traced(&short), Err(WireError::Truncated { .. })),
            "{}",
            fail("a digest cut short")
        );

        let n = rng.random_range(0..=40);
        let list = range_keys(&mut rng, n);
        let trace = TraceCtx::root(rng.random::<u64>() | 1).child(rng.random::<u64>() | 1);
        let mut frame = Vec::new();
        encode_traced_into(&mut frame, &list, trace);
        assert_eq!(
            decode_traced(&frame),
            Ok((list.clone(), trace)),
            "{}",
            fail("key list")
        );
        assert_eq!(frame.len(), COUNT_AT + 4 + n * ENTRY_LEN);

        // A key list cut anywhere short of its end, under a header that
        // admits to the shorter payload.
        let cut = rng.random_range(COUNT_AT..frame.len());
        let mut short = frame[..cut].to_vec();
        fix_len(&mut short);
        assert!(
            matches!(decode_traced(&short), Err(WireError::Truncated { .. })),
            "{}",
            fail("a key list cut short")
        );

        // A count larger than the payload holds — by one, or by as much
        // as a u32 says — is refused before a Vec is sized by it.
        for claimed in [n as u32 + 1 + rng.random_range(0..8), u32::MAX] {
            let mut lying = frame.clone();
            lying[COUNT_AT..COUNT_AT + 4].copy_from_slice(&claimed.to_be_bytes());
            let needed = claimed as usize * ENTRY_LEN;
            let got = n * ENTRY_LEN;
            assert_eq!(
                decode_traced(&lying),
                Err(WireError::Truncated { needed, got }),
                "{}",
                fail("a count the payload cannot hold")
            );
        }

        // A count smaller than the payload leaves entries over; so do
        // stray bytes after the last entry.
        if n > 0 {
            let mut modest = frame.clone();
            let fewer = rng.random_range(0..n);
            modest[COUNT_AT..COUNT_AT + 4].copy_from_slice(&(fewer as u32).to_be_bytes());
            let extra = (n - fewer) * ENTRY_LEN;
            assert_eq!(
                decode_traced(&modest),
                Err(WireError::Trailing { extra }),
                "{}",
                fail("entries past the count")
            );
        }
        let extra = rng.random_range(1..=9);
        let mut padded = frame.clone();
        padded.extend((0..extra).map(|_| rng.random::<u8>()));
        fix_len(&mut padded);
        assert_eq!(
            decode_traced(&padded),
            Err(WireError::Trailing { extra }),
            "{}",
            fail("trailing bytes")
        );
    }
}
