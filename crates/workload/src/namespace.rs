//! The synthetic volume name space shared by workload generators and
//! experiments.
//!
//! A [`Namespace`] tracks every file that ever existed in a generated
//! volume — its full path, its Figure 4 slot encoding, its size, and its
//! lifetime — so that any access in a trace can be expanded into the
//! block names (and hence the DHT keys under any encoding) it touches.

use d2_sim::SimTime;
use d2_types::{BlockKind, BlockName, PathSlots, VolumeId, BLOCK_SIZE};
use std::collections::HashMap;

/// Index of a file in its [`Namespace`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FileId(pub u32);

/// What an access does to a file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileOp {
    /// Read bytes from an existing file.
    Read,
    /// Overwrite bytes of an existing file (new block versions).
    Write,
    /// Create the file (first write).
    Create,
    /// Delete the file.
    Delete,
}

/// One trace record.
#[derive(Clone, Debug)]
pub struct Access {
    /// When the access happens.
    pub at: SimTime,
    /// Which user (or application) performs it.
    pub user: u32,
    /// Which file it touches.
    pub file: FileId,
    /// The operation.
    pub op: FileOp,
    /// First file block touched (0 = whole-file metadata; data blocks are
    /// 1-based as in the key encoding).
    pub first_block: u64,
    /// Number of data blocks touched.
    pub nblocks: u32,
}

impl Access {
    /// Bytes moved by this access (approximating each touched block as
    /// full, except tiny files).
    pub fn bytes(&self, ns: &Namespace) -> u64 {
        let size = ns.file(self.file).size;
        (self.nblocks as u64 * BLOCK_SIZE as u64).min(size.max(1))
    }
}

#[derive(Clone, Debug)]
struct DirRec {
    path: String,
    slots: PathSlots,
    next_slot: u16,
}

/// Metadata for one (possibly deleted) file.
#[derive(Clone, Debug)]
pub struct FileRec {
    /// Full path.
    pub path: String,
    /// Figure 4 slot encoding of the path.
    pub slots: PathSlots,
    /// Size in bytes.
    pub size: u64,
    /// Creation time (ZERO for initial files).
    pub created_at: SimTime,
    /// Deletion time, if deleted.
    pub deleted_at: Option<SimTime>,
    /// Directory the file lives in.
    pub(crate) dir: usize,
}

impl FileRec {
    /// Index of the directory this file lives in.
    pub fn dir(&self) -> usize {
        self.dir
    }

    /// Number of data blocks.
    pub fn data_blocks(&self) -> u64 {
        self.size.div_ceil(BLOCK_SIZE as u64).max(1)
    }

    /// Data blocks + the inode metadata block.
    pub fn total_blocks(&self) -> u64 {
        self.data_blocks() + 1
    }

    /// Whether the file is alive at `t`.
    pub fn alive_at(&self, t: SimTime) -> bool {
        self.created_at <= t && self.deleted_at.map(|d| t < d).unwrap_or(true)
    }
}

/// The evolving name space of one volume.
#[derive(Clone, Debug)]
pub struct Namespace {
    volume: VolumeId,
    dirs: Vec<DirRec>,
    dir_by_path: HashMap<String, usize>,
    files: Vec<FileRec>,
}

impl Namespace {
    /// Creates an empty name space for `volume_name`.
    pub fn new(volume_name: &str) -> Self {
        let root = DirRec {
            path: String::new(),
            slots: PathSlots::root(),
            next_slot: 1,
        };
        let mut dir_by_path = HashMap::new();
        dir_by_path.insert(String::new(), 0);
        Namespace {
            volume: VolumeId::from_name(volume_name),
            dirs: vec![root],
            dir_by_path,
            files: Vec::new(),
        }
    }

    /// The volume id.
    pub fn volume(&self) -> VolumeId {
        self.volume
    }

    /// Ensures `path` (e.g. `/home/u3/src`) exists as a directory chain;
    /// returns its index.
    pub fn ensure_dir(&mut self, path: &str) -> usize {
        let mut cur = 0usize;
        let mut cur_path = String::new();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur_path.push('/');
            cur_path.push_str(comp);
            cur = match self.dir_by_path.get(&cur_path) {
                Some(&d) => d,
                None => {
                    let slot = self.dirs[cur].next_slot;
                    self.dirs[cur].next_slot = self.dirs[cur].next_slot.wrapping_add(1).max(1);
                    let rec = DirRec {
                        path: cur_path.clone(),
                        slots: self.dirs[cur].slots.child(slot, comp),
                        next_slot: 1,
                    };
                    let idx = self.dirs.len();
                    self.dirs.push(rec);
                    self.dir_by_path.insert(cur_path.clone(), idx);
                    idx
                }
            };
        }
        cur
    }

    /// Creates a file `name` in directory `dir` with the given size;
    /// returns its id.
    pub fn create_file(&mut self, dir: usize, name: &str, size: u64, at: SimTime) -> FileId {
        let slot = self.dirs[dir].next_slot;
        self.dirs[dir].next_slot = self.dirs[dir].next_slot.wrapping_add(1).max(1);
        let rec = FileRec {
            path: format!("{}/{}", self.dirs[dir].path, name),
            slots: self.dirs[dir].slots.child(slot, name),
            size,
            created_at: at,
            deleted_at: None,
            dir,
        };
        let id = FileId(self.files.len() as u32);
        self.files.push(rec);
        id
    }

    /// Marks a file deleted at `at`.
    pub fn delete_file(&mut self, id: FileId, at: SimTime) {
        self.files[id.0 as usize].deleted_at = Some(at);
    }

    /// Metadata of `id`.
    pub fn file(&self, id: FileId) -> &FileRec {
        &self.files[id.0 as usize]
    }

    /// Number of files ever created.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether no file was ever created.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Ids of files alive at `t`.
    pub fn live_at(&self, t: SimTime) -> Vec<FileId> {
        (0..self.files.len() as u32)
            .map(FileId)
            .filter(|id| self.file(*id).alive_at(t))
            .collect()
    }

    /// Total bytes alive at `t`.
    pub fn bytes_at(&self, t: SimTime) -> u64 {
        self.files
            .iter()
            .filter(|f| f.alive_at(t))
            .map(|f| f.size)
            .sum()
    }

    /// Total blocks (data + inode) alive at `t`.
    pub fn blocks_at(&self, t: SimTime) -> u64 {
        self.files
            .iter()
            .filter(|f| f.alive_at(t))
            .map(|f| f.total_blocks())
            .sum()
    }

    /// The block name for block `block_no` of file `id` (0 = inode).
    pub fn block_name(&self, id: FileId, block_no: u64) -> BlockName {
        let f = self.file(id);
        BlockName {
            volume: self.volume,
            slots: f.slots,
            path: f.path.clone(),
            block_no,
            version: 0,
            kind: if block_no == 0 {
                BlockKind::Inode
            } else {
                BlockKind::Data
            },
        }
    }

    /// Expands an access into the block names it touches: the inode plus
    /// the accessed data blocks.
    pub fn blocks_of_access(&self, a: &Access) -> Vec<BlockName> {
        let f = self.file(a.file);
        let mut out = Vec::with_capacity(a.nblocks as usize + 1);
        out.push(self.block_name(a.file, 0));
        let last = f.data_blocks();
        let first = a.first_block.max(1);
        for b in first..(first + a.nblocks as u64).min(last + 1) {
            out.push(self.block_name(a.file, b));
        }
        out
    }

    /// Iterates all file records.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, &FileRec)> {
        self.files
            .iter()
            .enumerate()
            .map(|(i, f)| (FileId(i as u32), f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_dir_idempotent() {
        let mut ns = Namespace::new("v");
        let a = ns.ensure_dir("/home/u1");
        let b = ns.ensure_dir("/home/u1");
        assert_eq!(a, b);
        let c = ns.ensure_dir("/home/u2");
        assert_ne!(a, c);
    }

    #[test]
    fn files_in_one_dir_share_slot_prefix() {
        let mut ns = Namespace::new("v");
        let d = ns.ensure_dir("/home/u1");
        let f1 = ns.create_file(d, "a.txt", 100, SimTime::ZERO);
        let f2 = ns.create_file(d, "b.txt", 100, SimTime::ZERO);
        let s1 = ns.file(f1).slots;
        let s2 = ns.file(f2).slots;
        assert_eq!(s1.slots()[..2], s2.slots()[..2]);
        assert_ne!(s1.slots()[2], s2.slots()[2]);
    }

    #[test]
    fn lifetimes_respected() {
        let mut ns = Namespace::new("v");
        let d = ns.ensure_dir("/d");
        let f = ns.create_file(d, "f", 10_000, SimTime::from_secs(100));
        assert!(!ns.file(f).alive_at(SimTime::from_secs(99)));
        assert!(ns.file(f).alive_at(SimTime::from_secs(100)));
        ns.delete_file(f, SimTime::from_secs(200));
        assert!(ns.file(f).alive_at(SimTime::from_secs(199)));
        assert!(!ns.file(f).alive_at(SimTime::from_secs(200)));
        assert_eq!(ns.live_at(SimTime::from_secs(150)), vec![f]);
        assert!(ns.live_at(SimTime::from_secs(250)).is_empty());
    }

    #[test]
    fn block_math() {
        let mut ns = Namespace::new("v");
        let d = ns.ensure_dir("/d");
        let f = ns.create_file(d, "f", 20_000, SimTime::ZERO);
        assert_eq!(ns.file(f).data_blocks(), 3);
        assert_eq!(ns.file(f).total_blocks(), 4);
        assert_eq!(ns.bytes_at(SimTime::ZERO), 20_000);
        assert_eq!(ns.blocks_at(SimTime::ZERO), 4);
        // Empty file still occupies one block.
        let e = ns.create_file(d, "empty", 0, SimTime::ZERO);
        assert_eq!(ns.file(e).data_blocks(), 1);
    }

    #[test]
    fn access_expansion_touches_inode_and_data() {
        let mut ns = Namespace::new("v");
        let d = ns.ensure_dir("/d");
        let f = ns.create_file(d, "f", 40_000, SimTime::ZERO); // 5 data blocks
        let a = Access {
            at: SimTime::ZERO,
            user: 0,
            file: f,
            op: FileOp::Read,
            first_block: 2,
            nblocks: 3,
        };
        let blocks = ns.blocks_of_access(&a);
        assert_eq!(blocks.len(), 4); // inode + 3 data
        assert_eq!(blocks[0].block_no, 0);
        assert_eq!(blocks[1].block_no, 2);
        assert_eq!(blocks[3].block_no, 4);
        // Reading past EOF clamps.
        let a2 = Access {
            at: SimTime::ZERO,
            user: 0,
            file: f,
            op: FileOp::Read,
            first_block: 4,
            nblocks: 10,
        };
        let blocks2 = ns.blocks_of_access(&a2);
        assert_eq!(blocks2.len(), 1 + 2); // inode + blocks 4, 5
    }

    #[test]
    fn block_names_have_d2_locality() {
        let mut ns = Namespace::new("v");
        let d = ns.ensure_dir("/a/b");
        let f = ns.create_file(d, "f", 30_000, SimTime::ZERO);
        let k1 = ns.block_name(f, 1).d2_key();
        let k2 = ns.block_name(f, 2).d2_key();
        assert!(k1 < k2);
        assert_eq!(k1.as_bytes()[..44], k2.as_bytes()[..44]);
    }
}
