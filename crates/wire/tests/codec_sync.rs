//! Seeded property test of the replica-repair frames,
//! `Request::SyncRange` and `Response::RangeKeys`: whatever a node can
//! say round-trips, and whatever a peer can send instead — a key list
//! cut short, a count the payload cannot hold, bytes after the last
//! entry — is a typed `WireError`, never a panic and never an
//! allocation sized by the peer's word.
//!
//! Hand-rolled splitmix64 in the idiom of `conn_script.rs`, so the test
//! runs in the offline build; a failure prints its seed.

use d2_types::{Key, KeyRange, KEY_BYTES};
use d2_wire::codec::{
    decode, decode_traced, encode, encode_traced, Request, Response, WireError, HEADER_LEN,
    TRACE_LEN,
};
use d2_wire::WireMsg;

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

    fn key(&mut self) -> Key {
        let mut raw = [0u8; KEY_BYTES];
        for word in raw.chunks_exact_mut(8) {
            word.copy_from_slice(&self.next().to_be_bytes());
        }
        Key::from_bytes(raw)
    }
}

fn sync_range(rng: &mut Rng) -> WireMsg {
    WireMsg::Request {
        req_id: rng.next(),
        from: rng.range(0, 1 << 40),
        body: Request::SyncRange {
            range: KeyRange::new(rng.key(), rng.key()),
            count: rng.next() as u32,
            digest: rng.next(),
        },
    }
}

fn range_keys(rng: &mut Rng, entries: usize) -> WireMsg {
    WireMsg::Response {
        req_id: rng.next(),
        body: Response::RangeKeys {
            entries: (0..entries).map(|_| (rng.key(), rng.next())).collect(),
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
        let mut rng = Rng(seed);
        let fail = |what: &str| format!("seed {seed}: {what}");

        let digest = sync_range(&mut rng);
        let frame = encode(&digest);
        assert_eq!(decode(&frame).as_ref(), Ok(&digest), "{}", fail("digest"));
        assert!(
            frame.len() <= 256,
            "{}",
            fail("a digest is one small frame")
        );
        let cut = rng.range(HEADER_LEN, frame.len() - 1);
        let mut short = frame[..cut].to_vec();
        fix_len(&mut short);
        assert!(
            matches!(decode(&short), Err(WireError::Truncated { .. })),
            "{}",
            fail("a digest cut short")
        );

        let n = rng.range(0, 40);
        let list = range_keys(&mut rng, n);
        let trace = d2_obs::TraceCtx::root(rng.next() | 1).child(rng.next() | 1);
        let frame = encode_traced(&list, trace);
        assert_eq!(
            decode_traced(&frame),
            Ok((list.clone(), trace)),
            "{}",
            fail("key list")
        );
        assert_eq!(frame.len(), COUNT_AT + 4 + n * ENTRY_LEN);

        // A key list cut anywhere short of its end, under a header that
        // admits to the shorter payload.
        let cut = rng.range(COUNT_AT, frame.len() - 1);
        let mut short = frame[..cut].to_vec();
        fix_len(&mut short);
        assert!(
            matches!(decode(&short), Err(WireError::Truncated { .. })),
            "{}",
            fail("a key list cut short")
        );

        // A count larger than the payload holds — by one, or by as much
        // as a u32 says — is refused before a Vec is sized by it.
        for claimed in [n as u32 + 1 + rng.next() as u32 % 8, u32::MAX] {
            let mut lying = frame.clone();
            lying[COUNT_AT..COUNT_AT + 4].copy_from_slice(&claimed.to_be_bytes());
            let needed = claimed as usize * ENTRY_LEN;
            let got = n * ENTRY_LEN;
            assert_eq!(
                decode(&lying),
                Err(WireError::Truncated { needed, got }),
                "{}",
                fail("a count the payload cannot hold")
            );
        }

        // A count smaller than the payload leaves entries over; so do
        // stray bytes after the last entry.
        if n > 0 {
            let mut modest = frame.clone();
            let fewer = rng.range(0, n - 1);
            modest[COUNT_AT..COUNT_AT + 4].copy_from_slice(&(fewer as u32).to_be_bytes());
            let extra = (n - fewer) * ENTRY_LEN;
            assert_eq!(
                decode(&modest),
                Err(WireError::Trailing { extra }),
                "{}",
                fail("entries past the count")
            );
        }
        let extra = rng.range(1, 9);
        let mut padded = frame.clone();
        padded.extend((0..extra).map(|_| rng.next() as u8));
        fix_len(&mut padded);
        assert_eq!(
            decode(&padded),
            Err(WireError::Trailing { extra }),
            "{}",
            fail("trailing bytes")
        );
    }
}
