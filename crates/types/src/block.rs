//! Block naming and size constants shared across the workspace.

use crate::encoding;
use crate::encoding::{PathSlots, VolumeId};
use crate::key::Key;
use std::fmt;

/// Maximum block size: "All blocks are at most 8 KB in size" (Section 3).
pub const BLOCK_SIZE: usize = 8 * 1024;

/// Files whose data fits in this many bytes are stored inline in the parent
/// metadata block ("when the amount of file data in a data block is small
/// enough, D2-FS stores the data directly in the parent metadata block").
pub const INLINE_DATA_MAX: usize = 512;

/// What a block contains, for accounting and assertions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BlockKind {
    /// The mutable, signed volume root.
    Root,
    /// A directory metadata block.
    Directory,
    /// A file inode (block list + content hashes).
    Inode,
    /// An 8 KB (max) file data block.
    Data,
}

impl fmt::Display for BlockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BlockKind::Root => "root",
            BlockKind::Directory => "directory",
            BlockKind::Inode => "inode",
            BlockKind::Data => "data",
        };
        f.write_str(s)
    }
}

/// The logical, encoding-independent name of a block.
///
/// A `BlockName` carries everything needed to derive the block's DHT key
/// under *any* of the three encodings compared in the paper, so the same
/// workload can be replayed against D2, the traditional DHT, and the
/// traditional-file DHT.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BlockName {
    /// Volume the block belongs to.
    pub volume: VolumeId,
    /// Locality-preserving path position (for the D2 encoding).
    pub slots: PathSlots,
    /// Full path string (for the hashed baseline encodings).
    pub path: String,
    /// Block number within the file (0 = metadata block).
    pub block_no: u64,
    /// Version of an overwritten block.
    pub version: u32,
    /// What the block holds.
    pub kind: BlockKind,
}

impl BlockName {
    /// The D2 locality-preserving key (Figure 4).
    pub fn d2_key(&self) -> Key {
        encoding::d2_key(&self.volume, &self.slots, self.block_no, self.version)
    }

    /// The traditional per-block hashed key (CFS-style).
    pub fn traditional_key(&self) -> Key {
        encoding::traditional_key(&self.volume, &self.path, self.block_no, self.version)
    }

    /// The traditional-file key: hashed per-file placement (PAST-style).
    pub fn traditional_file_key(&self) -> Key {
        encoding::traditional_file_key(&self.volume, &self.path, self.block_no, self.version)
    }
}

/// Which of the paper's three compared systems is in effect; decides how a
/// [`BlockName`] maps to a DHT [`Key`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SystemKind {
    /// D2: locality-preserving keys (Figure 4) + dynamic load balancing.
    D2,
    /// Traditional DHT: per-block hashed keys + consistent hashing (CFS).
    Traditional,
    /// Traditional-file DHT: per-file hashed placement (PAST-style), all
    /// of a file's blocks on one replica group.
    TraditionalFile,
}

impl SystemKind {
    /// The DHT key for `name` under this system's encoding.
    pub fn key_of(&self, name: &BlockName) -> Key {
        match self {
            SystemKind::D2 => name.d2_key(),
            SystemKind::Traditional => name.traditional_key(),
            SystemKind::TraditionalFile => name.traditional_file_key(),
        }
    }

    /// Whether this system runs the active load balancer (only D2 needs
    /// it; the baselines rely on consistent hashing).
    pub fn balances_actively(&self) -> bool {
        matches!(self, SystemKind::D2)
    }

    /// Short label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::D2 => "d2",
            SystemKind::Traditional => "traditional",
            SystemKind::TraditionalFile => "traditional-file",
        }
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::SlotAllocator;

    fn name(path: &str, block_no: u64) -> BlockName {
        let mut slots = PathSlots::root();
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            slots = slots.child(SlotAllocator::slot_for_name(seg), seg);
        }
        BlockName {
            volume: VolumeId::from_name("v"),
            slots,
            path: path.to_string(),
            block_no,
            version: 0,
            kind: BlockKind::Data,
        }
    }

    #[test]
    fn three_encodings_differ() {
        let n = name("/a/b.txt", 3);
        let d2 = n.d2_key();
        let t = n.traditional_key();
        let tf = n.traditional_file_key();
        assert_ne!(d2, t);
        assert_ne!(t, tf);
        assert_ne!(d2, tf);
    }

    #[test]
    fn d2_keys_of_same_file_adjacent_traditional_not() {
        let a = name("/a/b.txt", 0).d2_key();
        let b = name("/a/b.txt", 1).d2_key();
        let c = name("/a/zzz.dat", 0).d2_key();
        // a and b differ only in trailer bytes; c differs earlier.
        assert_eq!(a.as_bytes()[..44], b.as_bytes()[..44]);
        assert_ne!(a.as_bytes()[..44], c.as_bytes()[..44]);
    }

    #[test]
    fn block_kind_display() {
        assert_eq!(BlockKind::Root.to_string(), "root");
        assert_eq!(BlockKind::Data.to_string(), "data");
    }
}
