//! What replica repair decides, with no transport and no clock.
//!
//! An owner and its chain successors should hold the same blocks over
//! the owner's key range. Once a round the owner sends each successor
//! one digest of the range; one whose own digest disagrees answers with
//! its `(key, checksum)` list, and [`ChainSync::diff`] against that list
//! names the only blocks that move: an undamaged chain costs one small
//! message per successor a round, whatever is stored. [`ChainSync`] is
//! one node's side and a replicating node's only block store: every
//! block it holds with its bytes, their checksum (computed once, when
//! stored) and the round something last vouched for it; the ranges it
//! holds blocks *for* (its own, and those an owner has synced with it);
//! and, from the two, the strays its holder must re-home. Rounds are
//! the caller's count, so the live runtime and a simulator can drive
//! the same decisions.
//!
//! Nodes stepped in one process hold a key's replicas side by side, so
//! a [`BlockPool`] shared by their `ChainSync`s keeps one buffer per
//! block: a node that stores bytes equal to a live buffer of the same
//! key holds that buffer instead of its own copy. A node alone in its
//! process has no pool, and pays for no map.

use d2_types::{Key, KeyRange};
use d2_wire::lock;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex, Weak};

/// How many rounds a range stays accounted for after it was last noted,
/// and a block after it was stored: an owner syncs every round, so two
/// ride out one lost message, a neighbour whose rounds fall later than
/// ours, and a chain-written block's wait for its owner's next digest.
const NOTED_FOR_ROUNDS: u64 = 2;

fn mix(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

/// The checksum of a block's bytes that digests and diffs compare. Four
/// lanes, so that a store pays four multiplies in flight, not one.
pub fn content_sum(data: &[u8]) -> u64 {
    let word = |w: &[u8]| {
        let mut bytes = [0u8; 8];
        bytes[..w.len()].copy_from_slice(w);
        u64::from_le_bytes(bytes)
    };
    let mut lanes = [data.len() as u64, 1, 2, 3];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, word(w));
        }
    }
    let h = lanes.iter().fold(0, |h, lane| mix(h, *lane));
    blocks.remainder().chunks(8).fold(h, |h, w| mix(h, word(w)))
}

/// The block buffers of the nodes one process steps, one per key: a
/// clone is a handle on the same pool. It holds only weak references,
/// so a buffer lives as long as some node holds it, and an entry whose
/// holders are all gone is replaced at its key's next store. Nothing is
/// shared across keys.
#[derive(Clone, Default)]
pub struct BlockPool(Arc<Mutex<HashMap<Key, Pooled>>>);

/// A pooled buffer and its bytes' checksum.
type Pooled = (u64, Weak<Vec<u8>>);

impl BlockPool {
    /// How many buffers some node still holds, and how many holds
    /// there are on them: r per block when every replica shares.
    pub fn live(&self) -> (usize, usize) {
        let bufs = lock(&self.0);
        let holds = bufs.values().map(|(_, buf)| buf.strong_count());
        holds.fold((0, 0), |(n, sum), h| (n + (h > 0) as usize, sum + h))
    }

    /// The buffer to hold for `data`, stored under `key` with checksum
    /// `sum`: the pool's live one for `key` if its checksum and bytes
    /// are `data`'s, else `data`'s own, which the pool then offers.
    fn share(&self, key: Key, sum: u64, data: Vec<u8>) -> Arc<Vec<u8>> {
        let mut bufs = lock(&self.0);
        let pooled = bufs.get(&key).filter(|(s, _)| *s == sum);
        match pooled.and_then(|(_, buf)| buf.upgrade()) {
            Some(buf) if *buf == data => buf,
            _ => {
                let buf = Arc::new(data);
                bufs.insert(key, (sum, Arc::downgrade(&buf)));
                buf
            }
        }
    }

    /// Offers `buf` for `key` again unless another live buffer is.
    fn offer(&self, key: Key, sum: u64, buf: &Arc<Vec<u8>>) {
        let mut bufs = lock(&self.0);
        let entry = bufs.entry(key).or_default();
        if entry.1.strong_count() == 0 {
            *entry = (sum, Arc::downgrade(buf));
        }
    }

    /// Puts `buf` in the pool under `key` with checksum `sum`, right or
    /// not: how a test plants a checksum that lies.
    #[cfg(test)]
    fn plant(&self, key: Key, sum: u64, buf: &Arc<Vec<u8>>) {
        lock(&self.0).insert(key, (sum, Arc::downgrade(buf)));
    }
}

/// One held block.
struct Held {
    /// The bytes, shared with any co-hosted node that holds the same.
    data: Arc<Vec<u8>>,
    /// `content_sum(&data)`.
    sum: u64,
    /// The round something last vouched for the block: it was stored,
    /// or (`u64::MAX`, for good) its owner acknowledged taking it as a
    /// stray.
    vouched: u64,
}

/// One node's repair state (module docs).
#[derive(Default)]
pub struct ChainSync {
    /// Where held bytes are shared with co-hosted nodes, if any.
    pool: Option<BlockPool>,
    held: BTreeMap<Key, Held>,
    /// Ranges this node holds blocks for, and the round each was last
    /// noted in.
    noted: Vec<(KeyRange, u64)>,
    /// Blocks asked for this round and not stored yet.
    wanted: BTreeSet<Key>,
}

impl ChainSync {
    /// Shares held bytes through `pool` from now on (`None`: with no
    /// one), offering it what is already held.
    pub fn set_pool(&mut self, pool: Option<BlockPool>) {
        if let Some(pool) = &pool {
            for (key, held) in &self.held {
                pool.offer(*key, held.sum, &held.data);
            }
        }
        self.pool = pool;
    }

    /// Stores `data` under `key` in `round`, checksummed once here, in
    /// the pool's buffer of equal bytes if there is one.
    pub fn stored(&mut self, key: Key, data: Vec<u8>, round: u64) {
        let sum = content_sum(&data);
        let data = match &self.pool {
            Some(pool) => pool.share(key, sum, data),
            None => Arc::new(data),
        };
        let vouched = round;
        self.held.insert(key, Held { data, sum, vouched });
        self.wanted.remove(&key);
    }

    /// The bytes of held block `key`.
    pub fn block(&self, key: &Key) -> Option<&[u8]> {
        self.held.get(key).map(|h| h.data.as_slice())
    }

    /// Every held key, in key order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &Key> {
        self.held.keys()
    }

    /// Lends held block `key`'s bytes to `send`, which must hand them
    /// back with its result, for a message that owns them for one send.
    /// Bytes this node alone holds move out and back with no copy (the
    /// pool is offered them again), and the checksum stays the bytes';
    /// bytes a co-hosted node holds too are copied for the send. `None`
    /// if `key` is not held.
    pub fn lend<R>(&mut self, key: &Key, send: impl FnOnce(Vec<u8>) -> (Vec<u8>, R)) -> Option<R> {
        let held = self.held.get_mut(key)?;
        if Arc::strong_count(&held.data) > 1 {
            let (data, result) = send(held.data.to_vec());
            debug_assert_eq!(content_sum(&data), held.sum, "changed while lent");
            return Some(result);
        }
        // With no other holder `make_mut` copies no byte: it parts the
        // pool's weak reference from the buffer, which `offer` renews.
        let own = Arc::make_mut(&mut held.data);
        let (data, result) = send(std::mem::take(own));
        debug_assert_eq!(content_sum(&data), held.sum, "changed while lent");
        *own = data;
        if let Some(pool) = &self.pool {
            pool.offer(*key, held.sum, &held.data);
        }
        Some(result)
    }

    /// Held `(key, checksum)` pairs inside `range`, in
    /// [`KeyRange::walk`]'s order.
    fn held<'a>(&'a self, range: &KeyRange) -> impl Iterator<Item = (&'a Key, u64)> {
        range.walk(&self.held).map(|(key, h)| (key, h.sum))
    }

    /// How many blocks this node holds inside `range`, and the digest of
    /// their `(key, checksum)` pairs: equal on nodes that hold the same.
    pub fn digest(&self, range: &KeyRange) -> (u32, u64) {
        let (mut count, mut digest) = (0u32, 0u64);
        for (key, sum) in self.held(range) {
            count += 1;
            digest = mix(mix(digest, content_sum(key.as_bytes())), sum);
        }
        (count, digest)
    }

    /// What this node holds inside `range`: its answer to a digest that
    /// disagreed.
    pub fn entries(&self, range: &KeyRange) -> Vec<(Key, u64)> {
        self.held(range).map(|(k, sum)| (*k, sum)).collect()
    }

    /// The owner's decision over `range` given a successor's `theirs`
    /// (its [`ChainSync::entries`]), as `(push, pull)`: the keys the
    /// successor lacks or holds under another checksum (the owner's copy
    /// wins), and the keys only the successor holds, which then count as
    /// asked for until stored or the next [`ChainSync::begin_round`].
    pub fn diff(&mut self, range: &KeyRange, theirs: &[(Key, u64)]) -> (Vec<Key>, Vec<Key>) {
        let in_range = theirs.iter().filter(|(k, _)| range.contains(k));
        let theirs: BTreeMap<&Key, u64> = in_range.map(|(k, s)| (k, *s)).collect();
        let ours = self.held(range);
        let differs = ours.filter(|(k, sum)| theirs.get(k) != Some(sum));
        let push = differs.map(|(k, _)| *k).collect();
        let mut pull = Vec::new();
        for &key in theirs.keys() {
            if !self.held.contains_key(key) && self.wanted.insert(*key) {
                pull.push(*key);
            }
        }
        (push, pull)
    }

    /// Notes that in `round` the owner of `range` synced it with this
    /// node: blocks inside are replicas, not strays.
    pub fn note(&mut self, range: KeyRange, round: u64) {
        self.noted.retain(|(r, _)| *r != range);
        self.noted.push((range, round));
    }

    /// Starts `round` on a node that owns `own`: forgets what was asked
    /// for and not delivered, drops ranges last noted over
    /// `NOTED_FOR_ROUNDS` rounds ago and notes `own` (so a range a join
    /// took from this node stays accounted for until the new owner's
    /// first sync). Returns the strays, in key order: blocks inside no
    /// noted range that nothing has vouched for in as many rounds. A
    /// noted range takes an acknowledged stray back, to stray anew.
    pub fn begin_round(&mut self, own: KeyRange, round: u64) -> Vec<Key> {
        let fresh = |at: u64| round.saturating_sub(at) <= NOTED_FOR_ROUNDS;
        self.wanted.clear();
        self.noted.retain(|(_, at)| fresh(*at));
        self.note(own, round);
        let mut strays = Vec::new();
        for (key, Held { vouched, .. }) in &mut self.held {
            if self.noted.iter().any(|(r, _)| r.contains(key)) {
                *vouched = round.min(*vouched);
            } else if !fresh(*vouched) {
                strays.push(*key);
            }
        }
        strays
    }

    /// Records that the owner of stray `key` acknowledged taking it.
    pub fn rehomed(&mut self, key: &Key) {
        if let Some(held) = self.held.get_mut(key) {
            held.vouched = u64::MAX;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(f: f64) -> Key {
        Key::from_fraction(f)
    }

    fn range(a: f64, b: f64) -> KeyRange {
        KeyRange::new(k(a), k(b))
    }

    /// The block whose bytes are `v`'s.
    fn bytes(v: u64) -> Vec<u8> {
        v.to_le_bytes().to_vec()
    }

    /// The checksum of [`bytes`]`(v)`.
    fn sum(v: u64) -> u64 {
        content_sum(&bytes(v))
    }

    /// A node that stored `[(key, bytes)]` in round 0.
    fn holding(keys: &[(f64, u64)]) -> ChainSync {
        let mut s = ChainSync::default();
        for &(f, v) in keys {
            s.stored(k(f), bytes(v), 0);
        }
        s
    }

    #[test]
    fn content_sum_sees_every_byte_and_the_length() {
        let block = vec![7u8; 8192];
        let sum = content_sum(&block);
        for i in [0, 1, 9, 18, 27, 4095, 8184, 8191] {
            let mut other = block.clone();
            other[i] ^= 1;
            assert_ne!(content_sum(&other), sum, "byte {i}");
        }
        assert_ne!(content_sum(&block[..8191]), sum);
        assert_ne!(content_sum(&[]), content_sum(&[0]));
        assert_ne!(content_sum(&[0; 8]), content_sum(&[0; 9]));
        // A tail past the last whole 32 bytes counts, byte by byte.
        let tail = |i: usize| (0..45).map(|j| (j == i) as u8).collect::<Vec<u8>>();
        assert_ne!(content_sum(&tail(33)), content_sum(&tail(44)));
        assert_ne!(content_sum(&tail(44)), content_sum(&tail(45)));
    }

    #[test]
    fn a_lent_block_comes_back_whole() {
        let mut s = holding(&[(0.1, 11)]);
        assert_eq!(s.lend(&k(0.1), |data| (data, 7)), Some(7));
        assert_eq!(s.block(&k(0.1)), Some(&bytes(11)[..]));
        assert_eq!(s.lend(&k(0.2), |data| (data, 7)), None);
    }

    /// The buffer `s` holds for `key`.
    fn buf<'a>(s: &'a ChainSync, key: &Key) -> &'a Arc<Vec<u8>> {
        &s.held[key].data
    }

    /// A node storing into `pool`.
    fn pooled(pool: &BlockPool) -> ChainSync {
        let mut s = ChainSync::default();
        s.set_pool(Some(pool.clone()));
        s
    }

    /// Two nodes stepped in one process, storing into one pool.
    fn co_hosted() -> (ChainSync, ChainSync, BlockPool) {
        let pool = BlockPool::default();
        (pooled(&pool), pooled(&pool), pool)
    }

    #[test]
    fn co_hosted_replicas_of_equal_bytes_hold_one_buffer() {
        let (mut a, mut b, pool) = co_hosted();
        a.stored(k(0.1), vec![5; 8192], 0);
        b.stored(k(0.1), vec![5; 8192], 0);
        assert!(Arc::ptr_eq(buf(&a, &k(0.1)), buf(&b, &k(0.1))));
        assert_eq!(pool.live(), (1, 2));
        // Equal bytes under another key are another block.
        b.stored(k(0.2), vec![5; 8192], 0);
        assert!(!Arc::ptr_eq(buf(&a, &k(0.1)), buf(&b, &k(0.2))));
        assert_eq!(pool.live(), (2, 3));
    }

    #[test]
    fn different_bytes_under_one_key_are_not_shared() {
        let (mut a, mut b, pool) = co_hosted();
        a.stored(k(0.1), bytes(11), 0);
        b.stored(k(0.1), bytes(12), 0);
        assert!(!Arc::ptr_eq(buf(&a, &k(0.1)), buf(&b, &k(0.1))));
        assert_eq!(a.block(&k(0.1)), Some(&bytes(11)[..]));
        assert_eq!(b.block(&k(0.1)), Some(&bytes(12)[..]));
        // The newer write is the one offered: a third holder of it
        // shares it.
        let mut c = pooled(&pool);
        c.stored(k(0.1), bytes(12), 0);
        assert!(Arc::ptr_eq(buf(&b, &k(0.1)), buf(&c, &k(0.1))));
    }

    #[test]
    fn a_matching_checksum_alone_shares_nothing() {
        let (mut a, mut b, pool) = co_hosted();
        let liar = Arc::new(bytes(99));
        pool.plant(k(0.1), sum(11), &liar);
        b.stored(k(0.1), bytes(11), 0);
        assert!(!Arc::ptr_eq(&liar, buf(&b, &k(0.1))));
        assert_eq!(b.block(&k(0.1)), Some(&bytes(11)[..]));
        // The honest buffer replaced the planted entry.
        a.stored(k(0.1), bytes(11), 0);
        assert!(Arc::ptr_eq(buf(&a, &k(0.1)), buf(&b, &k(0.1))));
    }

    #[test]
    fn a_dropped_holder_leaves_the_other_whole() {
        let (mut a, mut b, pool) = co_hosted();
        a.stored(k(0.1), vec![7; 4096], 0);
        b.stored(k(0.1), vec![7; 4096], 0);
        drop(a);
        assert_eq!(b.block(&k(0.1)), Some(&[7; 4096][..]));
        assert_eq!(pool.live(), (1, 1));
        drop(b);
        assert_eq!(pool.live(), (0, 0));
        // A dead entry is replaced at the key's next store.
        let mut c = pooled(&pool);
        c.stored(k(0.1), vec![7; 4096], 0);
        assert_eq!(pool.live(), (1, 1));
    }

    #[test]
    fn a_lent_shared_block_comes_back_and_the_other_holder_keeps_its_bytes() {
        let (mut a, mut b, _) = co_hosted();
        a.stored(k(0.1), bytes(11), 0);
        b.stored(k(0.1), bytes(11), 0);
        // The send owns a copy of its own.
        let held_at = buf(&a, &k(0.1)).as_ptr();
        let lent_at = a.lend(&k(0.1), |data| {
            let ptr = data.as_ptr();
            (data, ptr)
        });
        assert!(lent_at.is_some_and(|at| at != held_at));
        assert!(Arc::ptr_eq(buf(&a, &k(0.1)), buf(&b, &k(0.1))));
        assert_eq!(a.block(&k(0.1)), Some(&bytes(11)[..]));
        assert_eq!(b.block(&k(0.1)), Some(&bytes(11)[..]));
    }

    #[test]
    fn a_block_held_once_is_lent_without_a_copy_and_offered_again() {
        let (mut a, mut b, _) = co_hosted();
        a.stored(k(0.1), vec![3; 8192], 0);
        let at = buf(&a, &k(0.1)).as_ptr();
        let lent_at = a.lend(&k(0.1), |data| {
            let ptr = data.as_ptr();
            (data, ptr)
        });
        assert_eq!(lent_at, Some(at));
        assert_eq!(buf(&a, &k(0.1)).as_ptr(), at);
        b.stored(k(0.1), vec![3; 8192], 0);
        assert!(Arc::ptr_eq(buf(&a, &k(0.1)), buf(&b, &k(0.1))));
    }

    #[test]
    fn a_node_given_a_pool_offers_what_it_already_held() {
        // Alone, a node keeps its bytes to itself.
        let mut a = ChainSync::default();
        a.stored(k(0.1), bytes(11), 0);
        let pool = BlockPool::default();
        let mut b = pooled(&pool);
        b.stored(k(0.1), bytes(11), 0);
        assert!(!Arc::ptr_eq(buf(&a, &k(0.1)), buf(&b, &k(0.1))));
        // Joined by others, it offers what it holds; the pool keeps the
        // buffer it had while that is live.
        a.set_pool(Some(pool.clone()));
        assert_eq!(pool.live(), (1, 1));
        let mut c = pooled(&pool);
        c.stored(k(0.1), bytes(11), 0);
        assert!(Arc::ptr_eq(buf(&b, &k(0.1)), buf(&c, &k(0.1))));
        drop((b, c));
        a.set_pool(Some(pool.clone()));
        assert_eq!(pool.live(), (1, 1));
    }

    #[test]
    fn equal_holdings_digest_equal_and_any_difference_shows() {
        let held = [(0.1, 11), (0.2, 22), (0.3, 33), (0.9, 99)];
        let (a, b) = (holding(&held), holding(&held));
        for r in [range(0.05, 0.35), range(0.8, 0.25), KeyRange::full()] {
            assert_eq!(a.digest(&r), b.digest(&r));
        }
        assert_eq!(a.digest(&range(0.05, 0.35)).0, 3);
        // Wrapping past the top of the ring: 0.9, then 0.1 and 0.2.
        assert_eq!(a.digest(&range(0.8, 0.25)).0, 3);
        assert_eq!(a.digest(&KeyRange::full()).0, 4);
        // Outside the range nothing counts.
        let mut c = holding(&held);
        c.stored(k(0.5), bytes(55), 0);
        assert_eq!(a.digest(&range(0.05, 0.35)), c.digest(&range(0.05, 0.35)));
        // A missing key, a stale checksum and two swapped checksums all
        // change the digest.
        c.held.remove(&k(0.2));
        assert_ne!(a.digest(&range(0.05, 0.35)), c.digest(&range(0.05, 0.35)));
        let stale = holding(&[(0.1, 11), (0.2, 23), (0.3, 33)]);
        assert_ne!(
            a.digest(&range(0.05, 0.35)),
            stale.digest(&range(0.05, 0.35))
        );
        let swapped = holding(&[(0.1, 22), (0.2, 11), (0.3, 33)]);
        assert_ne!(
            a.digest(&range(0.05, 0.35)),
            swapped.digest(&range(0.05, 0.35))
        );
        assert_eq!(ChainSync::default().digest(&KeyRange::full()), (0, 0));
    }

    #[test]
    fn diff_pushes_missing_and_stale_and_pulls_what_the_owner_lacks() {
        let r = range(0.0, 0.5);
        let mut owner = holding(&[(0.1, 11), (0.2, 22), (0.3, 33), (0.7, 77)]);
        let replica = holding(&[(0.2, 22), (0.3, 99), (0.4, 44), (0.8, 88)]);
        // 0.8 lies outside the range: a list that strays past it is not
        // taken at its word.
        let mut theirs = replica.entries(&r);
        theirs.push((k(0.8), sum(88)));
        let (push, pull) = owner.diff(&r, &theirs);
        assert_eq!(push, vec![k(0.1), k(0.3)], "missing, then stale");
        assert_eq!(pull, vec![k(0.4)]);
        // A second successor listing the same key does not pull twice…
        assert_eq!(owner.diff(&r, &[(k(0.4), sum(44))]).1, vec![]);
        // …until the block arrived (nothing to pull) or a round passed.
        owner.begin_round(r, 1);
        assert_eq!(owner.diff(&r, &[(k(0.4), sum(44))]).1, vec![k(0.4)]);
        owner.stored(k(0.4), bytes(44), 1);
        assert_eq!(owner.diff(&r, &[(k(0.4), sum(44))]).1, vec![]);
        // Agreeing lists move nothing.
        let same = owner.entries(&r);
        assert_eq!(owner.diff(&r, &same), (vec![], vec![]));
    }

    #[test]
    fn a_key_is_a_stray_once_no_range_has_covered_it_for_two_rounds() {
        let own = range(0.0, 0.2);
        let mut s = holding(&[(0.1, 1), (0.3, 3), (0.6, 6)]);
        assert_eq!(s.begin_round(own, 9), vec![k(0.3), k(0.6)]);
        s.note(range(0.2, 0.4), 9);
        assert_eq!(s.begin_round(own, 10), vec![k(0.6)]);
        // The owner of (0.2, 0.4] stops syncing: its range is accounted
        // for through round 11 and gone in round 12.
        assert_eq!(s.begin_round(own, 11), vec![k(0.6)]);
        assert_eq!(s.begin_round(own, 12), vec![k(0.3), k(0.6)]);
        // Noting a range again does not pile up.
        s.note(range(0.2, 0.4), 12);
        s.note(range(0.2, 0.4), 12);
        assert_eq!(s.noted.len(), 2);
        assert_eq!(s.begin_round(own, 13), vec![k(0.6)]);
    }

    #[test]
    fn a_split_own_range_stays_covered_until_the_new_owner_can_sync() {
        let mut s = holding(&[(0.1, 1), (0.3, 3)]);
        assert_eq!(s.begin_round(range(0.0, 0.4), 5), vec![]);
        // A joiner at 0.2 takes (0.0, 0.2]; this node keeps (0.2, 0.4].
        for round in [6, 7] {
            assert_eq!(s.begin_round(range(0.2, 0.4), round), vec![]);
        }
        assert_eq!(s.begin_round(range(0.2, 0.4), 8), vec![k(0.1)]);
    }

    #[test]
    fn a_block_is_no_stray_while_its_owners_digest_may_be_on_its_way() {
        let own = range(0.0, 0.2);
        let mut s = ChainSync::default();
        s.begin_round(own, 4);
        // A chain wrote it here; the owner's sync follows within a round.
        s.stored(k(0.6), bytes(6), 4);
        for round in [5, 6] {
            assert_eq!(s.begin_round(own, round), vec![], "round {round}");
        }
        assert_eq!(s.begin_round(own, 7), vec![k(0.6)]);
        // Written again, it is vouched for again.
        s.stored(k(0.6), bytes(6), 7);
        assert_eq!(s.begin_round(own, 8), vec![]);
    }

    #[test]
    fn a_rehomed_stray_is_not_offered_again_unless_it_strays_anew() {
        let own = range(0.0, 0.2);
        let mut s = holding(&[(0.6, 6), (0.7, 7)]);
        assert_eq!(s.begin_round(own, 3), vec![k(0.6), k(0.7)]);
        s.rehomed(&k(0.6));
        s.rehomed(&k(0.9)); // not held: nothing to remember
        for round in 4..40 {
            assert_eq!(s.begin_round(own, round), vec![k(0.7)], "round {round}");
        }
        // A range takes it back and lets it go: re-homed again, after
        // the same two rounds as any block.
        s.note(range(0.5, 0.65), 40);
        for round in 41..=43 {
            assert_eq!(s.begin_round(own, round), vec![k(0.7)], "round {round}");
        }
        assert_eq!(s.begin_round(own, 44), vec![k(0.6), k(0.7)]);
    }
}
