//! Seeded input generation: key spaces, values and op streams.
//!
//! Everything the program under test sees is made here from `--seed`.
//! Keys are full-width ring positions derived from [`BlockName`]s —
//! `traditional_key()` for the hashed baseline, `d2_key()` for
//! locality — never `Key::from_u64`, which parks every key at the ring
//! origin. A value is a pure function of its key and a fixed length, so
//! puts are idempotent, every get can be byte-verified, and the stored
//! set (and with it the nodes' memory) does not depend on throughput.

use d2_sim::SimTime;
use d2_types::{BlockName, Key, BLOCK_SIZE};
use d2_workload::Namespace;

/// splitmix64: the harness's only random source.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated from neighbouring seeds and
    /// from other `stream`s of the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform on `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform on `0..n` (`n > 0`); the bias of the multiply-shift is
    /// below 2^-40 for the sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Zipf-distributed rank in `0..n` with exponent `theta`, by the
    /// inverse of the continuous CDF of `x^-theta` on `[1, n]`.
    pub fn zipf(&mut self, n: usize, theta: f64) -> usize {
        let u = self.next_f64().max(1e-12);
        let exp = 1.0 - theta;
        let x = if exp.abs() < 1e-9 {
            (u * (n as f64).ln()).exp()
        } else {
            (u * ((n as f64).powf(exp) - 1.0) + 1.0).powf(1.0 / exp)
        };
        ((x - 1.0).max(0.0) as usize).min(n - 1)
    }
}

/// The bytes stored under `key`: `len` bytes expanded from the key.
pub fn value_for(key: &Key, len: usize) -> Vec<u8> {
    let b = key.as_bytes();
    let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8-byte slice"));
    let mut g = SplitMix::new(word(0) ^ word(24).rotate_left(17), word(56));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&g.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A flat space of `dirs × files` one-block files, addressed by hashed
/// keys: the `ring3_*` workloads' key space. The seed names the volume,
/// so each seed places the keys elsewhere on the ring.
pub fn flat_names(seed: u64, dirs: usize, files: usize) -> Vec<BlockName> {
    let mut ns = Namespace::new(&format!("flat-{seed:016x}"));
    let mut out = Vec::with_capacity(dirs * files);
    for d in 0..dirs {
        let dir = ns.ensure_dir(&format!("/d{d}"));
        for f in 0..files {
            let id = ns.create_file(dir, &format!("f{f}"), BLOCK_SIZE as u64, SimTime::ZERO);
            out.push(ns.block_name(id, 1));
        }
    }
    out
}

/// Shape of the `many64_tasks` file tree.
#[derive(Clone, Copy, Debug)]
pub struct TreeShape {
    /// Volumes (each its own [`Namespace`]).
    pub volumes: usize,
    /// Directories per volume; one directory is one task.
    pub dirs: usize,
    /// Files per directory.
    pub files: usize,
    /// Data blocks per file (an inode block comes on top).
    pub data_blocks: u64,
}

/// Length of the value stored for block `block_no` of a file: the
/// paper's 8 KiB blocks, with a 256-byte inode as block 0.
pub fn block_len(block_no: u64) -> usize {
    if block_no == 0 {
        256
    } else {
        BLOCK_SIZE
    }
}

/// One task per directory: every block (inode first) of every file in
/// it — what a file-system client fetches to read a directory's files.
pub fn task_tree(seed: u64, shape: TreeShape) -> Vec<Vec<BlockName>> {
    let mut tasks = Vec::with_capacity(shape.volumes * shape.dirs);
    for v in 0..shape.volumes {
        let mut ns = Namespace::new(&format!("vol-{seed:016x}-{v}"));
        for d in 0..shape.dirs {
            let dir = ns.ensure_dir(&format!("/home/d{d}"));
            let mut task = Vec::new();
            for f in 0..shape.files {
                let size = shape.data_blocks * BLOCK_SIZE as u64;
                let id = ns.create_file(dir, &format!("f{f}"), size, SimTime::ZERO);
                for b in 0..=shape.data_blocks {
                    task.push(ns.block_name(id, b));
                }
            }
            tasks.push(task);
        }
    }
    tasks
}

/// One generated operation on key number `key`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Index into the workload's key space.
    pub key: usize,
    /// Put (`true`) or get.
    pub put: bool,
}

/// The closed-loop op stream of the `ring3_*` workloads: Zipf-ranked
/// keys, a fixed put share.
#[derive(Clone, Debug)]
pub struct OpStream {
    rng: SplitMix,
    keys: usize,
    theta: f64,
    put_share: f64,
}

impl OpStream {
    /// Stream number `instance` over `keys` keys for `seed`.
    pub fn new(seed: u64, instance: u64, keys: usize, theta: f64, put_share: f64) -> Self {
        OpStream {
            rng: SplitMix::new(seed, 1 + 2 * instance),
            keys,
            theta,
            put_share,
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        let key = self.rng.zipf(self.keys, self.theta);
        let put = self.rng.next_f64() < self.put_share;
        Op { key, put }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Ring position (of 64 equal arcs) a key falls on.
    fn arc64(key: &Key) -> usize {
        (key.to_fraction() * 64.0) as usize % 64
    }

    #[test]
    fn hashed_keys_cover_the_ring() {
        // The hotspot `Key::from_u64` made (every key on one arc) cannot
        // recur: 4096 hashed keys must reach nearly all 64 arcs, which
        // are the bit-reversed positions `serve-many --nodes 64` uses.
        let arcs: HashSet<usize> = flat_names(7, 64, 64)
            .iter()
            .map(|n| arc64(&n.traditional_key()))
            .collect();
        assert!(arcs.len() >= 60, "only {} of 64 arcs hit", arcs.len());
    }

    #[test]
    fn locality_task_lands_on_at_most_two_owners() {
        let shape = TreeShape {
            volumes: 32,
            dirs: 4,
            files: 4,
            data_blocks: 3,
        };
        for (i, task) in task_tree(3, shape).iter().enumerate() {
            assert_eq!(task.len(), 16);
            let d2: HashSet<usize> = task.iter().map(|n| arc64(&n.d2_key())).collect();
            assert!(d2.len() <= 2, "task {i} spans {} owners", d2.len());
        }
        // ... while the same blocks under hashed keys scatter.
        let first = &task_tree(3, shape)[0];
        let hashed: HashSet<usize> = first.iter().map(|n| arc64(&n.traditional_key())).collect();
        assert!(hashed.len() >= 8, "hashed task on {} owners", hashed.len());
    }

    #[test]
    fn values_are_a_function_of_the_key() {
        let names = flat_names(1, 2, 2);
        let k = names[0].traditional_key();
        assert_eq!(value_for(&k, 8192), value_for(&k, 8192));
        assert_eq!(value_for(&k, 256), value_for(&k, 8192)[..256]);
        assert_ne!(
            value_for(&k, 256),
            value_for(&names[1].traditional_key(), 256)
        );
        assert_eq!(value_for(&k, 13).len(), 13);
    }

    #[test]
    fn seed_fixes_the_op_stream() {
        let take = |seed| {
            let mut s = OpStream::new(seed, 0, 4096, 0.8, 0.1);
            (0..1000).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(take(5), take(5));
        assert_ne!(take(5), take(6));
        let mut other_instance = OpStream::new(5, 1, 4096, 0.8, 0.1);
        assert_ne!(
            take(5)[..8],
            (0..8).map(|_| other_instance.next_op()).collect::<Vec<_>>()[..]
        );
        let puts = take(5).iter().filter(|o| o.put).count();
        assert!((50..200).contains(&puts), "{puts} puts in 1000 ops at 10 %");
        assert!(take(5).iter().all(|o| o.key < 4096));
    }

    #[test]
    fn seed_moves_the_key_space() {
        let a = flat_names(1, 4, 4)[0].traditional_key();
        let b = flat_names(2, 4, 4)[0].traditional_key();
        assert_ne!(a, b);
    }
}
