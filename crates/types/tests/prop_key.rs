//! Seeded property tests for key arithmetic and the Figure 4 encoding.
//! A failure prints its seed.

use d2_types::encoding::{d2_key, d2_key_trailer, web_path_slots};
use d2_types::{Key, KeyRange, PathSlots, VolumeId, KEY_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const SEEDS: u64 = 256;

fn key(rng: &mut StdRng) -> Key {
    let mut b = [0u8; KEY_BYTES];
    rng.fill_bytes(&mut b);
    Key::from_bytes(b)
}

/// Runs `check` on three random keys drawn from each seed.
fn for_key_triples(check: impl Fn(u64, Key, Key, Key)) {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        check(seed, key(&mut rng), key(&mut rng), key(&mut rng));
    }
}

#[test]
fn add_sub_inverse() {
    for_key_triples(|seed, a, b, _| {
        assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a, "seed {seed}");
    });
}

#[test]
fn add_commutative() {
    for_key_triples(|seed, a, b, _| {
        assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a), "seed {seed}");
    });
}

#[test]
fn distance_sums_around_ring() {
    // d(a,b) + d(b,a) == 0 (mod 2^512).
    for_key_triples(|seed, a, b, _| {
        let sum = a.distance_to(&b).wrapping_add(&b.distance_to(&a));
        assert_eq!(sum, Key::MIN, "seed {seed}");
    });
}

#[test]
fn midpoint_inside_arc() {
    for_key_triples(|seed, a, b, _| {
        // Distance >= 2 puts the midpoint on (a, b].
        if a != b && a.distance_to(&b) != Key::from_u64(1) {
            let m = a.midpoint(&b);
            assert!(KeyRange::new(a, b).contains(&m) || m == a, "seed {seed}");
        }
    });
}

#[test]
fn half_doubles_back() {
    for_key_triples(|seed, a, _, _| {
        let h = a.half();
        // doubled == a or a-1 (bit 511 lost).
        let diff = h.wrapping_add(&h).distance_to(&a);
        assert!(diff == Key::MIN || diff == Key::from_u64(1), "seed {seed}");
    });
}

#[test]
fn range_contains_boundary_semantics() {
    for_key_triples(|seed, a, b, k| {
        if a == b {
            return;
        }
        let r = KeyRange::new(a, b);
        // Exactly one of (a,b] and (b,a] contains k, for k not an endpoint.
        let r2 = KeyRange::new(b, a);
        if k != a && k != b {
            assert!(r.contains(&k) ^ r2.contains(&k), "seed {seed}");
        }
        assert!(r.contains(&b), "seed {seed}");
        assert!(!r.contains(&a), "seed {seed}");
    });
}

#[test]
fn key_order_matches_fraction() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = (rng.random::<u64>(), rng.random::<u64>());
        let (ka, kb) = (Key::from_u64_ordered(a), Key::from_u64_ordered(b));
        assert_eq!(ka.cmp(&kb), a.cmp(&b), "seed {seed}");
    }
}

/// `Key`'s order is the byte-lexicographic order of its big-endian
/// bytes: on random pairs, on pairs sharing an 8–63-byte prefix (D2 keys
/// share a volume prefix, and the first limb decides nothing between
/// them) and on equal keys. `KeyRange::contains` over wrapping, full and
/// boundary ranges agrees with the same byte order.
#[test]
fn key_order_is_byte_order() {
    let byte_cmp = |a: &Key, b: &Key| a.as_bytes().as_slice().cmp(b.as_bytes().as_slice());
    let byte_contains = |start: &Key, end: &Key, k: &Key| {
        let (s, e, k) = (start.as_bytes(), end.as_bytes(), k.as_bytes());
        if s == e {
            true
        } else if s < e {
            k > s && k <= e
        } else {
            k > s || k <= e
        }
    };
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = key(&mut rng);
        // `a` up to byte `p`, a different byte there, random after.
        let p = rng.random_range(8..KEY_BYTES);
        let mut b = *a.as_bytes();
        b[p] ^= rng.random_range(1..=u8::MAX);
        rng.fill_bytes(&mut b[p + 1..]);
        let shared = Key::from_bytes(b);
        let near = [
            a,
            shared,
            key(&mut rng),
            a.successor_point(),
            a.wrapping_sub(&Key::from_u64(1)),
            Key::MIN,
            Key::MAX,
        ];
        for x in &near {
            for y in &near {
                let want = byte_cmp(x, y);
                assert_eq!(x.cmp(y), want, "seed {seed}: {x:?} vs {y:?}");
                assert_eq!(x.partial_cmp(y), Some(want), "seed {seed}");
                assert_eq!(x == y, want.is_eq(), "seed {seed}");
                for k in &near {
                    assert_eq!(
                        KeyRange::new(*x, *y).contains(k),
                        byte_contains(x, y, k),
                        "seed {seed}: ({x:?}, {y:?}] holds {k:?}"
                    );
                }
            }
        }
    }
}

/// A path of 1..=`max_depth` non-zero slots.
fn path(rng: &mut StdRng, max_depth: usize) -> Vec<u16> {
    let n = rng.random_range(1..=max_depth);
    (0..n).map(|_| rng.random_range(1..=u16::MAX)).collect()
}

fn slots_from(path: &[u16]) -> PathSlots {
    let mut p = PathSlots::root();
    for (i, &s) in path.iter().enumerate() {
        p = p.child(s, &format!("c{i}"));
    }
    p
}

/// Preorder ordering: if path P is lexicographically before path Q at
/// the first differing slot, P's keys sort before Q's keys (within the
/// 12-level slot prefix).
#[test]
fn lexicographic_paths_give_ordered_keys() {
    let vol = VolumeId::from_name("p");
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = (path(&mut rng, 12), path(&mut rng, 12));
        if a == b {
            continue;
        }
        let ka = d2_key(&vol, &slots_from(&a), 0, 0);
        let kb = d2_key(&vol, &slots_from(&b), 0, 0);
        // Pad with zeros for comparison (matching the key layout).
        let mut pa = [0u16; 12];
        let mut pb = [0u16; 12];
        pa[..a.len()].copy_from_slice(&a);
        pb[..b.len()].copy_from_slice(&b);
        assert_eq!(pa.cmp(&pb), ka.cmp(&kb), "seed {seed}");
    }
}

#[test]
fn trailer_roundtrips() {
    let vol = VolumeId::from_name("p");
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let slots = slots_from(&path(&mut rng, 12));
        let (block, ver) = (rng.random::<u64>(), rng.random::<u32>());
        let k = d2_key(&vol, &slots, block, ver);
        assert_eq!(d2_key_trailer(&k), (block, ver), "seed {seed}");
    }
}

#[test]
fn ancestor_keys_bound_descendants() {
    let vol = VolumeId::from_name("p");
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let parent = slots_from(&path(&mut rng, 11));
        let child = parent.child(rng.random_range(1..=u16::MAX), "leaf");
        let pk = d2_key(&vol, &parent, 0, 0);
        let ck = d2_key(&vol, &child, 0, 0);
        assert!(pk < ck, "seed {seed}: parent metadata after a child");
    }
}

#[test]
fn web_urls_deterministic() {
    fn word(rng: &mut StdRng, lo: usize, hi: usize) -> String {
        let n = rng.random_range(lo..=hi);
        (0..n)
            .map(|_| rng.random_range(b'a'..=b'z') as char)
            .collect()
    }
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let host = format!("{}.{}", word(&mut rng, 1, 8), word(&mut rng, 2, 3));
        let url = format!("{host}/{}", word(&mut rng, 0, 12));
        let (a, b) = (web_path_slots(&url), web_path_slots(&url));
        assert_eq!(a.slots(), b.slots(), "seed {seed}: {url}");
    }
}
