//! The block → key table of one (trace, system) pair.
//!
//! A block's key is a pure function of its name and the encoding, and a
//! replay touches the same few thousand names millions of times, so the
//! oracle stack hashes each name once, here, and indexes afterwards.

use crate::namespace::{Access, FileId, Namespace};
use d2_sim::SimTime;
use d2_types::{BlockKind, Key, SystemKind, BLOCK_SIZE};

/// Stored length of block `b` of a `size`-byte file or object: a 256-byte
/// inode (`b == 0`), full data blocks, then the remainder.
pub fn block_len(size: u64, b: u64) -> u32 {
    let bs = BLOCK_SIZE as u64;
    match b {
        0 => 256,
        b if b <= size / bs => bs as u32,
        _ => (size % bs).max(1) as u32,
    }
}

/// The key of every block of every file of a [`Namespace`] under one
/// encoding: 64 bytes per block, deleted and not-yet-created files
/// included, since a trace names them too.
#[derive(Debug)]
pub struct TraceKeys {
    keys: Vec<Key>,
    /// File `f`'s keys are `keys[first[f]..first[f + 1]]`, indexed by
    /// block number (0 = inode).
    first: Vec<usize>,
}

impl TraceKeys {
    /// Hashes every block name of `ns` under `system`'s encoding.
    pub fn build(ns: &Namespace, system: SystemKind) -> TraceKeys {
        let mut keys = Vec::new();
        let mut first = Vec::with_capacity(ns.len() + 1);
        for (id, f) in ns.iter() {
            first.push(keys.len());
            let mut name = ns.block_name(id, 0);
            keys.push(system.key_of(&name));
            name.kind = BlockKind::Data;
            for b in 1..=f.data_blocks() {
                name.block_no = b;
                keys.push(system.key_of(&name));
            }
        }
        first.push(keys.len());
        TraceKeys { keys, first }
    }

    /// Every key of `file`, indexed by block number: the inode, then the
    /// data blocks.
    pub fn file(&self, file: FileId) -> &[Key] {
        let f = file.0 as usize;
        &self.keys[self.first[f]..self.first[f + 1]]
    }

    /// The key of block `block_no` of `file` (0 = inode).
    pub fn key(&self, file: FileId, block_no: u64) -> Key {
        self.file(file)[block_no as usize]
    }

    /// The key at position `index` of the table (see
    /// [`access_indices`](Self::access_indices)).
    pub fn key_at(&self, index: usize) -> Key {
        self.keys[index]
    }

    /// Number of blocks in the table: one past its highest position.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the table holds no block.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Every block of `file` as `(key, stored length)`.
    pub fn sized(&self, ns: &Namespace, file: FileId) -> impl Iterator<Item = (Key, u32)> + '_ {
        let size = ns.file(file).size;
        let blocks = self.file(file).iter().zip(0..);
        blocks.map(move |(&key, b)| (key, block_len(size, b)))
    }

    /// [`sized`](Self::sized) over the files alive at time zero: what a
    /// simulation preloads.
    pub fn initial(&self, ns: &Namespace) -> Vec<(Key, u32)> {
        let live = ns.live_at(SimTime::ZERO).into_iter();
        live.flat_map(|id| self.sized(ns, id)).collect()
    }

    /// The `(key, block_no)` pairs an access touches, in the order of
    /// [`Namespace::blocks_of_access`]: the inode, then the accessed data
    /// blocks, clamped at the file's last.
    pub fn access(&self, a: &Access) -> impl Iterator<Item = (Key, u64)> + '_ {
        self.access_indices(a).map(|(i, b)| (self.keys[i], b))
    }

    /// [`access`](Self::access) as `(table position, block_no)` pairs.
    /// Each block has its own position, so a replay can mark the blocks
    /// it has seen in a flat array instead of hashing 64-byte keys.
    pub fn access_indices(&self, a: &Access) -> impl Iterator<Item = (usize, u64)> {
        let first_key = self.first[a.file.0 as usize];
        let blocks = (self.first[a.file.0 as usize + 1] - first_key) as u64;
        let first = a.first_block.max(1);
        let end = (first + a.nblocks as u64).min(blocks);
        std::iter::once(0)
            .chain(first..end)
            .map(move |b| (first_key + b as usize, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileOp, HarvardConfig, HarvardTrace};
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn block_len_math() {
        assert_eq!(block_len(10_000, 0), 256);
        assert_eq!(block_len(8192, 1), 8192);
        assert_eq!(block_len(10_000, 1), 8192);
        assert_eq!(block_len(10_000, 2), 10_000 - 8192);
        assert_eq!(block_len(100, 1), 100);
    }

    /// The table against what it replaced: name a block, then hash it.
    #[test]
    fn table_agrees_with_naming_then_hashing() {
        let cfg = HarvardConfig {
            users: 4,
            days: 1.0,
            initial_bytes: 16 << 20,
            ..HarvardConfig::default()
        };
        let trace = HarvardTrace::generate(&cfg, &mut rand::rngs::StdRng::seed_from_u64(5));
        let ns = &trace.namespace;
        let (last, big) = (ns.iter().map(|(id, f)| (f.data_blocks(), id)).max()).unwrap();
        let (one, _) = ns.iter().find(|(_, f)| f.data_blocks() == 1).unwrap();
        assert!(last > 2, "the trace needs a multi-block file");
        let read = |file, first_block, nblocks| Access {
            at: SimTime::ZERO,
            user: 0,
            file,
            op: FileOp::Read,
            first_block,
            nblocks,
        };
        // From block 0, clamped at the last block, past the end, one block.
        let edges = [
            read(big, 0, 2),
            read(big, last - 1, 10),
            read(big, last + 1, 3),
            read(one, 1, 1),
            read(one, 0, 0),
        ];
        for system in [
            SystemKind::D2,
            SystemKind::Traditional,
            SystemKind::TraditionalFile,
        ] {
            let keys = TraceKeys::build(ns, system);
            for (id, f) in ns.iter() {
                assert_eq!(keys.file(id).len() as u64, f.total_blocks());
                for b in 0..=f.data_blocks() {
                    assert_eq!(keys.key(id, b), system.key_of(&ns.block_name(id, b)));
                }
            }
            for a in trace.accesses.iter().chain(&edges) {
                let named = ns.blocks_of_access(a).into_iter();
                let want: Vec<_> = named.map(|n| (system.key_of(&n), n.block_no)).collect();
                assert_eq!(keys.access(a).collect::<Vec<_>>(), want, "{system} {a:?}");
            }
            // Distinct blocks have distinct keys, so deduplicating by table
            // position, as a replay does, is deduplicating by key.
            let distinct: HashSet<Key> = (0..keys.len()).map(|i| keys.key_at(i)).collect();
            assert_eq!(distinct.len(), keys.len(), "{system}");
            let clamped: Vec<u64> = keys.access(&edges[1]).map(|x| x.1).collect();
            assert_eq!(clamped, [0, last - 1, last]);
            assert_eq!(keys.initial(ns).len() as u64, ns.blocks_at(SimTime::ZERO));
        }
    }
}
