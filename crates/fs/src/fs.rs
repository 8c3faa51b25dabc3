//! The writer-side file system: in-memory mirror, write-back cache, and
//! block publication.
//!
//! D2's usage model (inherited from CFS) is single-writer, multi-reader
//! per volume. The writer therefore keeps an authoritative in-memory
//! mirror of the tree; mutations buffer in a 30-second write-back cache
//! and [`Fs::flush`] publishes dirty state as immutable blocks: data
//! blocks first, then new versions of every metadata block up the path,
//! then the in-place root update — exactly the publication order of
//! Section 3.

use crate::blocks::{DirBlock, DirEntry, EntryKind, InodeBlock, RootBlock};
use d2_sim::SimTime;
use d2_types::{
    sha256, BlockKind, BlockName, ContentHash, D2Error, Key, PathSlots, Result, SystemKind,
    VolumeId, BLOCK_SIZE, INLINE_DATA_MAX,
};
use std::collections::{BTreeMap, HashMap};

/// Where published blocks go. Implemented by the in-memory test store
/// here, by the simulated cluster in `d2-core`, and by the networked
/// deployment in `d2-net`.
pub trait BlockIo {
    /// Stores a block under the key derived from `name` by the active
    /// system's encoding.
    fn put(&mut self, name: &BlockName, data: Vec<u8>, now: SimTime) -> Result<()>;

    /// Fetches a block by key.
    fn get(&mut self, key: &Key, now: SimTime) -> Result<Vec<u8>>;

    /// Removes a block after `delay` (the `remove(key, delay)` of
    /// Section 3).
    fn remove(&mut self, key: &Key, now: SimTime, delay: SimTime) -> Result<()>;
}

/// A trivial in-memory [`BlockIo`] for tests and examples.
#[derive(Clone, Debug)]
pub struct MemStore {
    system: SystemKind,
    blocks: HashMap<Key, Vec<u8>>,
    tombstones: Vec<(Key, SimTime)>,
    /// Total bytes ever written (for accounting tests).
    pub bytes_written: u64,
}

impl MemStore {
    /// Creates an empty store using `system`'s key encoding.
    pub fn new(system: SystemKind) -> Self {
        MemStore {
            system,
            blocks: HashMap::new(),
            tombstones: Vec::new(),
            bytes_written: 0,
        }
    }

    /// Number of live blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Applies delayed removals that are due at `now`.
    pub fn gc(&mut self, now: SimTime) {
        let due: Vec<Key> = self
            .tombstones
            .iter()
            .filter(|(_, at)| *at <= now)
            .map(|(k, _)| *k)
            .collect();
        self.tombstones.retain(|(_, at)| *at > now);
        for k in due {
            self.blocks.remove(&k);
        }
    }

    /// Directly replaces a block under `key`, bypassing name-based keying —
    /// a hook for corruption / fault-injection tests.
    pub fn insert_raw(&mut self, key: Key, data: Vec<u8>) {
        self.blocks.insert(key, data);
    }
}

impl BlockIo for MemStore {
    fn put(&mut self, name: &BlockName, data: Vec<u8>, _now: SimTime) -> Result<()> {
        self.bytes_written += data.len() as u64;
        self.blocks.insert(self.system.key_of(name), data);
        Ok(())
    }

    fn get(&mut self, key: &Key, _now: SimTime) -> Result<Vec<u8>> {
        self.blocks.get(key).cloned().ok_or(D2Error::NotFound(*key))
    }

    fn remove(&mut self, key: &Key, now: SimTime, delay: SimTime) -> Result<()> {
        self.tombstones.push((*key, now + delay));
        Ok(())
    }
}

/// Tunables for the file-system layer.
#[derive(Clone, Copy, Debug)]
pub struct FsConfig {
    /// Which system's key encoding publishes use.
    pub system: SystemKind,
    /// Write-back window (paper: 30 s).
    pub writeback_delay: SimTime,
    /// Delay before removed/replaced blocks disappear (paper: 30 s).
    pub remove_delay: SimTime,
    /// Files at or below this size are inlined into the parent directory
    /// block.
    pub inline_max: usize,
    /// Maximum data block size (paper: 8 KB).
    pub block_size: usize,
}

impl FsConfig {
    /// Paper defaults for the given system.
    pub fn new(system: SystemKind) -> Self {
        FsConfig {
            system,
            writeback_delay: SimTime::from_secs(30),
            remove_delay: SimTime::from_secs(30),
            inline_max: INLINE_DATA_MAX,
            block_size: BLOCK_SIZE,
        }
    }
}

/// Counters over the life of an [`Fs`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Blocks published (data + metadata + root).
    pub blocks_written: u64,
    /// Bytes published.
    pub bytes_written: u64,
    /// Blocks scheduled for removal.
    pub blocks_removed: u64,
    /// Flush invocations that published at least one block.
    pub flushes: u64,
    /// Files currently stored inline.
    pub inline_files: u64,
}

/// One publication action, reported by [`Fs::flush`] for accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteOp {
    /// A block was stored.
    Put {
        /// Logical block name.
        name: BlockName,
        /// Key it was stored under.
        key: Key,
        /// Encoded length.
        len: usize,
    },
    /// A block was scheduled for removal.
    Remove {
        /// Key being removed.
        key: Key,
    },
}

#[derive(Clone, Debug)]
enum NodeKind {
    Dir {
        children: BTreeMap<String, usize>,
        next_slot: u16,
    },
    File {
        data: Vec<u8>,
    },
}

#[derive(Clone, Debug)]
struct Node {
    /// Display name in the current parent.
    name: String,
    /// Path used for key *encoding* — fixed at creation (renames keep the
    /// original keys, Section 4.2).
    enc_path: String,
    /// Slot path used for the D2 encoding — also fixed at creation.
    slots: PathSlots,
    /// Current metadata version (in the key's version field).
    version: u32,
    parent: Option<usize>,
    dirty: bool,
    /// `(key, hash, encoded len)` of the last published metadata block.
    published: Option<(Key, ContentHash, u32)>,
    kind: NodeKind,
}

/// The single-writer file system for one volume.
///
/// # Examples
///
/// ```
/// use d2_fs::{Fs, FsConfig, MemStore};
/// use d2_sim::SimTime;
/// use d2_types::SystemKind;
///
/// # fn main() -> d2_types::Result<()> {
/// let mut store = MemStore::new(SystemKind::D2);
/// let mut fs = Fs::new("myvol", b"secret", FsConfig::new(SystemKind::D2));
/// fs.write(&mut store, "/docs/notes.txt", b"hello".to_vec(), SimTime::ZERO)?;
/// assert_eq!(fs.read("/docs/notes.txt")?, b"hello");
/// fs.flush(&mut store, SimTime::from_secs(30))?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Fs {
    volume: VolumeId,
    secret: Vec<u8>,
    cfg: FsConfig,
    nodes: Vec<Node>,
    root_seq: u64,
    last_flush: SimTime,
    pending_removes: Vec<Key>,
    stats: FsStats,
}

impl Fs {
    /// Creates an empty volume named `volume_name`, signed with `secret`.
    pub fn new(volume_name: &str, secret: &[u8], cfg: FsConfig) -> Self {
        let root = Node {
            name: String::new(),
            enc_path: String::new(),
            slots: PathSlots::root(),
            version: 0,
            parent: None,
            dirty: true,
            published: None,
            kind: NodeKind::Dir {
                children: BTreeMap::new(),
                next_slot: 1,
            },
        };
        Fs {
            volume: VolumeId::from_name(volume_name),
            secret: secret.to_vec(),
            cfg,
            nodes: vec![root],
            root_seq: 0,
            last_flush: SimTime::ZERO,
            pending_removes: Vec::new(),
            stats: FsStats::default(),
        }
    }

    /// The volume id.
    pub fn volume(&self) -> VolumeId {
        self.volume
    }

    /// The active configuration.
    pub fn config(&self) -> &FsConfig {
        &self.cfg
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> FsStats {
        self.stats
    }

    /// Whether unpublished changes are buffered.
    pub fn is_dirty(&self) -> bool {
        self.nodes.iter().any(|n| n.dirty) || !self.pending_removes.is_empty()
    }

    // ---- path resolution -------------------------------------------------

    fn components(path: &str) -> Vec<&str> {
        path.split('/').filter(|c| !c.is_empty()).collect()
    }

    fn resolve(&self, path: &str) -> Option<usize> {
        let mut cur = 0usize;
        for comp in Self::components(path) {
            match &self.nodes[cur].kind {
                NodeKind::Dir { children, .. } => {
                    cur = *children.get(comp)?;
                }
                NodeKind::File { .. } => return None,
            }
        }
        Some(cur)
    }

    fn resolve_parent<'p>(&self, path: &'p str) -> Result<(usize, &'p str)> {
        let comps = Self::components(path);
        let Some((&leaf, dirs)) = comps.split_last() else {
            return Err(D2Error::InvalidOperation("empty path".into()));
        };
        let mut cur = 0usize;
        for comp in dirs {
            match &self.nodes[cur].kind {
                NodeKind::Dir { children, .. } => match children.get(*comp) {
                    Some(&c) => cur = c,
                    None => return Err(D2Error::NoSuchPath(path.to_string())),
                },
                NodeKind::File { .. } => return Err(D2Error::NoSuchPath(path.to_string())),
            }
        }
        Ok((cur, leaf))
    }

    fn mark_dirty_up(&mut self, mut idx: usize) {
        loop {
            self.nodes[idx].dirty = true;
            match self.nodes[idx].parent {
                Some(p) => idx = p,
                None => break,
            }
        }
    }

    fn alloc_child(&mut self, parent: usize, name: &str, is_dir: bool) -> Result<usize> {
        let (parent_slots, parent_path) = (
            self.nodes[parent].slots,
            self.nodes[parent].enc_path.clone(),
        );
        let slot = match &mut self.nodes[parent].kind {
            NodeKind::Dir { next_slot, .. } => {
                if *next_slot == 0 {
                    return Err(D2Error::DirectoryFull(parent_path));
                }
                let s = *next_slot;
                *next_slot = next_slot.wrapping_add(1);
                s
            }
            NodeKind::File { .. } => {
                return Err(D2Error::InvalidOperation("parent is a file".into()))
            }
        };
        // The encoding path carries a creation nonce: two files that
        // successively occupy the same name (delete-then-recreate, or
        // rename-then-recreate) must not collide in the *hashed* key
        // encodings. (D2 keys are already collision-free via fresh slots;
        // CFS's real traditional keys are content hashes, which cannot
        // collide this way either.)
        let enc_path = format!("{parent_path}/{name}#{}", self.nodes.len());
        let node = Node {
            name: name.to_string(),
            enc_path,
            slots: parent_slots.child(slot, name),
            version: 0,
            parent: Some(parent),
            dirty: true,
            published: None,
            kind: if is_dir {
                NodeKind::Dir {
                    children: BTreeMap::new(),
                    next_slot: 1,
                }
            } else {
                NodeKind::File { data: Vec::new() }
            },
        };
        let idx = self.nodes.len();
        self.nodes.push(node);
        match &mut self.nodes[parent].kind {
            NodeKind::Dir { children, .. } => {
                children.insert(name.to_string(), idx);
            }
            NodeKind::File { .. } => unreachable!(),
        }
        Ok(idx)
    }

    // ---- mutation API ----------------------------------------------------

    /// Creates a directory (and any missing ancestors).
    pub fn mkdir_p(&mut self, path: &str) -> Result<()> {
        let mut cur = 0usize;
        for comp in Self::components(path) {
            let existing = match &self.nodes[cur].kind {
                NodeKind::Dir { children, .. } => children.get(comp).copied(),
                NodeKind::File { .. } => {
                    return Err(D2Error::InvalidOperation(format!(
                        "{comp} is a file, not a directory"
                    )))
                }
            };
            cur = match existing {
                Some(c) => match self.nodes[c].kind {
                    NodeKind::Dir { .. } => c,
                    NodeKind::File { .. } => return Err(D2Error::AlreadyExists(path.to_string())),
                },
                None => {
                    let c = self.alloc_child(cur, comp, true)?;
                    self.mark_dirty_up(cur);
                    c
                }
            };
        }
        Ok(())
    }

    /// Writes (creates or overwrites) a file, creating missing parent
    /// directories. Publication happens at the next [`Fs::flush`] /
    /// [`Fs::maybe_flush`].
    ///
    /// # Errors
    ///
    /// Fails if a path component is a file, or a directory runs out of
    /// slots.
    pub fn write<S: BlockIo>(
        &mut self,
        _io: &mut S,
        path: &str,
        data: Vec<u8>,
        _now: SimTime,
    ) -> Result<()> {
        let comps = Self::components(path);
        let Some((_, dirs)) = comps.split_last() else {
            return Err(D2Error::InvalidOperation("empty path".into()));
        };
        if !dirs.is_empty() {
            let dir_path = dirs.join("/");
            self.mkdir_p(&dir_path)?;
        }
        let (parent, leaf) = self.resolve_parent(path)?;
        let existing = match &self.nodes[parent].kind {
            NodeKind::Dir { children, .. } => children.get(leaf).copied(),
            NodeKind::File { .. } => unreachable!(),
        };
        let idx = match existing {
            Some(i) => {
                if matches!(self.nodes[i].kind, NodeKind::Dir { .. }) {
                    return Err(D2Error::AlreadyExists(format!("{path} is a directory")));
                }
                // Overwrite: retire the old version's blocks (computed
                // from the OLD data length), then install the new data.
                self.retire_file_blocks(i);
                match &mut self.nodes[i].kind {
                    NodeKind::File { data: d } => *d = data,
                    NodeKind::Dir { .. } => unreachable!(),
                }
                self.nodes[i].version += 1;
                i
            }
            None => {
                let i = self.alloc_child(parent, leaf, false)?;
                match &mut self.nodes[i].kind {
                    NodeKind::File { data: d } => *d = data,
                    NodeKind::Dir { .. } => unreachable!(),
                }
                i
            }
        };
        self.mark_dirty_up(idx);
        Ok(())
    }

    /// Reads a file through the writer's mirror (write-back cache
    /// semantics: the writer always sees its own latest data).
    pub fn read(&self, path: &str) -> Result<Vec<u8>> {
        let idx = self
            .resolve(path)
            .ok_or_else(|| D2Error::NoSuchPath(path.to_string()))?;
        match &self.nodes[idx].kind {
            NodeKind::File { data } => Ok(data.clone()),
            NodeKind::Dir { .. } => {
                Err(D2Error::InvalidOperation(format!("{path} is a directory")))
            }
        }
    }

    /// Lists the names in a directory.
    pub fn list(&self, path: &str) -> Result<Vec<String>> {
        let idx = self
            .resolve(path)
            .ok_or_else(|| D2Error::NoSuchPath(path.to_string()))?;
        match &self.nodes[idx].kind {
            NodeKind::Dir { children, .. } => Ok(children.keys().cloned().collect()),
            NodeKind::File { .. } => Err(D2Error::InvalidOperation(format!("{path} is a file"))),
        }
    }

    /// Whether `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.resolve(path).is_some()
    }

    /// File size, if `path` is a file.
    pub fn size_of(&self, path: &str) -> Result<u64> {
        let idx = self
            .resolve(path)
            .ok_or_else(|| D2Error::NoSuchPath(path.to_string()))?;
        match &self.nodes[idx].kind {
            NodeKind::File { data } => Ok(data.len() as u64),
            NodeKind::Dir { .. } => Err(D2Error::InvalidOperation("is a directory".into())),
        }
    }

    /// Removes a file; its published blocks are retired with the 30 s
    /// removal delay at the next flush.
    pub fn remove_file(&mut self, path: &str) -> Result<()> {
        let (parent, leaf) = self.resolve_parent(path)?;
        let idx = match &self.nodes[parent].kind {
            NodeKind::Dir { children, .. } => children
                .get(leaf)
                .copied()
                .ok_or_else(|| D2Error::NoSuchPath(path.to_string()))?,
            NodeKind::File { .. } => unreachable!(),
        };
        if matches!(self.nodes[idx].kind, NodeKind::Dir { .. }) {
            return Err(D2Error::InvalidOperation(format!("{path} is a directory")));
        }
        self.retire_file_blocks(idx);
        match &mut self.nodes[parent].kind {
            NodeKind::Dir { children, .. } => {
                children.remove(leaf);
            }
            NodeKind::File { .. } => unreachable!(),
        }
        self.mark_dirty_up(parent);
        Ok(())
    }

    /// Recursively removes a directory.
    pub fn remove_dir(&mut self, path: &str) -> Result<()> {
        let idx = self
            .resolve(path)
            .ok_or_else(|| D2Error::NoSuchPath(path.to_string()))?;
        if idx == 0 {
            return Err(D2Error::InvalidOperation(
                "cannot remove volume root".into(),
            ));
        }
        let NodeKind::Dir { children, .. } = &self.nodes[idx].kind else {
            return Err(D2Error::InvalidOperation(format!("{path} is a file")));
        };
        // Retire the whole subtree.
        let child_names: Vec<String> = children.keys().cloned().collect();
        for name in child_names {
            let sub = format!("{path}/{name}");
            let cidx = self.resolve(&sub).expect("child exists");
            match self.nodes[cidx].kind {
                NodeKind::Dir { .. } => self.remove_dir(&sub)?,
                NodeKind::File { .. } => self.remove_file(&sub)?,
            }
        }
        // Retire the directory's own metadata block.
        if let Some((key, _, _)) = self.nodes[idx].published {
            self.pending_removes.push(key);
        }
        let parent = self.nodes[idx].parent.expect("non-root has parent");
        let leaf = self.nodes[idx].name.clone();
        match &mut self.nodes[parent].kind {
            NodeKind::Dir { children, .. } => {
                children.remove(&leaf);
            }
            NodeKind::File { .. } => unreachable!(),
        }
        self.mark_dirty_up(parent);
        Ok(())
    }

    /// Renames/moves a file or directory. The moved subtree **keeps its
    /// original block keys** (Section 4.2): only the parent directories'
    /// metadata is re-published.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        let idx = self
            .resolve(from)
            .ok_or_else(|| D2Error::NoSuchPath(from.to_string()))?;
        if idx == 0 {
            return Err(D2Error::InvalidOperation("cannot move volume root".into()));
        }
        if self.resolve(to).is_some() {
            return Err(D2Error::AlreadyExists(to.to_string()));
        }
        let (new_parent, new_leaf) = self.resolve_parent(to)?;
        if !matches!(self.nodes[new_parent].kind, NodeKind::Dir { .. }) {
            return Err(D2Error::NoSuchPath(to.to_string()));
        }
        // Guard against moving a directory under itself.
        let mut p = Some(new_parent);
        while let Some(a) = p {
            if a == idx {
                return Err(D2Error::InvalidOperation(
                    "cannot move a directory into itself".into(),
                ));
            }
            p = self.nodes[a].parent;
        }
        let old_parent = self.nodes[idx].parent.expect("non-root");
        let old_leaf = self.nodes[idx].name.clone();
        match &mut self.nodes[old_parent].kind {
            NodeKind::Dir { children, .. } => {
                children.remove(&old_leaf);
            }
            NodeKind::File { .. } => unreachable!(),
        }
        match &mut self.nodes[new_parent].kind {
            NodeKind::Dir { children, .. } => {
                children.insert(new_leaf.to_string(), idx);
            }
            NodeKind::File { .. } => unreachable!(),
        }
        // Display name changes; enc_path and slots intentionally do NOT.
        self.nodes[idx].name = new_leaf.to_string();
        self.nodes[idx].parent = Some(new_parent);
        self.mark_dirty_up(old_parent);
        self.mark_dirty_up(new_parent);
        Ok(())
    }

    // ---- publication -----------------------------------------------------

    /// Flushes if the write-back window has elapsed since the last flush.
    pub fn maybe_flush<S: BlockIo>(&mut self, io: &mut S, now: SimTime) -> Result<Vec<WriteOp>> {
        if now.saturating_sub(self.last_flush) >= self.cfg.writeback_delay && self.is_dirty() {
            self.flush(io, now)
        } else {
            Ok(Vec::new())
        }
    }

    /// Publishes all dirty state: data blocks, new metadata block versions
    /// bottom-up, then the signed in-place root update. Returns the
    /// publication log for accounting.
    pub fn flush<S: BlockIo>(&mut self, io: &mut S, now: SimTime) -> Result<Vec<WriteOp>> {
        if !self.is_dirty() {
            return Ok(Vec::new());
        }
        let mut ops = Vec::new();

        // Publish the tree bottom-up starting from the root (post-order).
        self.publish_node(io, 0, now, &mut ops)?;

        // Root block, updated in place.
        let (dir_key, dir_hash, _) = self.nodes[0].published.expect("root just published");
        self.root_seq += 1;
        let root = RootBlock::signed(self.volume, self.root_seq, dir_key, dir_hash, &self.secret);
        let name = self.root_block_name();
        let data = root.encode();
        self.record_put(io, &name, data, now, &mut ops)?;

        // Retire replaced/deleted blocks with the removal delay.
        for key in std::mem::take(&mut self.pending_removes) {
            io.remove(&key, now, self.cfg.remove_delay)?;
            self.stats.blocks_removed += 1;
            ops.push(WriteOp::Remove { key });
        }

        self.last_flush = now;
        self.stats.flushes += 1;
        Ok(ops)
    }

    /// The name of the volume's root block (fixed key; updated in place).
    pub fn root_block_name(&self) -> BlockName {
        BlockName {
            volume: self.volume,
            slots: PathSlots::root(),
            path: String::new(),
            block_no: u64::MAX,
            version: 0,
            kind: BlockKind::Root,
        }
    }

    fn publish_node<S: BlockIo>(
        &mut self,
        io: &mut S,
        idx: usize,
        now: SimTime,
        ops: &mut Vec<WriteOp>,
    ) -> Result<()> {
        if !self.nodes[idx].dirty {
            return Ok(());
        }
        match &self.nodes[idx].kind {
            NodeKind::File { .. } => self.publish_file(io, idx, now, ops),
            NodeKind::Dir { children, .. } => {
                let child_idxs: Vec<usize> = children.values().copied().collect();
                for c in child_idxs {
                    self.publish_node(io, c, now, ops)?;
                }
                self.publish_dir(io, idx, now, ops)
            }
        }
    }

    fn publish_file<S: BlockIo>(
        &mut self,
        io: &mut S,
        idx: usize,
        now: SimTime,
        ops: &mut Vec<WriteOp>,
    ) -> Result<()> {
        let NodeKind::File { data } = &self.nodes[idx].kind else {
            unreachable!()
        };
        let data = data.clone();
        if data.len() <= self.cfg.inline_max {
            // Inline in the parent directory block: nothing to publish
            // here; the parent embeds the bytes.
            self.nodes[idx].published = None;
            self.nodes[idx].dirty = false;
            return Ok(());
        }
        let version = self.nodes[idx].version;
        let mut inode = InodeBlock {
            version,
            size: data.len() as u64,
            blocks: Vec::new(),
        };
        for (i, chunk) in data.chunks(self.cfg.block_size).enumerate() {
            let name = self.block_name(idx, 1 + i as u64, version, BlockKind::Data);
            let key = self.cfg.system.key_of(&name);
            inode.blocks.push((key, sha256(chunk), chunk.len() as u32));
            self.record_put(io, &name, chunk.to_vec(), now, ops)?;
        }
        let name = self.block_name(idx, 0, version, BlockKind::Inode);
        let key = self.cfg.system.key_of(&name);
        let encoded = inode.encode();
        let hash = sha256(&encoded);
        let len = encoded.len() as u32;
        self.record_put(io, &name, encoded, now, ops)?;
        self.nodes[idx].published = Some((key, hash, len));
        self.nodes[idx].dirty = false;
        Ok(())
    }

    fn publish_dir<S: BlockIo>(
        &mut self,
        io: &mut S,
        idx: usize,
        now: SimTime,
        ops: &mut Vec<WriteOp>,
    ) -> Result<()> {
        // Retire the previous version of this directory block.
        if let Some((old_key, _, _)) = self.nodes[idx].published {
            self.pending_removes.push(old_key);
        }
        self.nodes[idx].version += 1;
        let version = self.nodes[idx].version;

        let NodeKind::Dir {
            children,
            next_slot,
        } = &self.nodes[idx].kind
        else {
            unreachable!()
        };
        let next_slot = *next_slot;
        let mut inline_count = 0u64;
        let mut entries = Vec::with_capacity(children.len());
        for (name, &cidx) in children.clone().iter() {
            let child = &self.nodes[cidx];
            let slot = last_slot(&child.slots);
            let entry = match &child.kind {
                NodeKind::Dir { .. } => {
                    let (k, h, _) = child.published.expect("child dir published first");
                    DirEntry {
                        name: name.clone(),
                        slot,
                        kind: EntryKind::Dir,
                        target_key: k,
                        target_hash: h,
                        size: 0,
                        inline: vec![],
                    }
                }
                NodeKind::File { data } if data.len() <= self.cfg.inline_max => {
                    inline_count += 1;
                    DirEntry {
                        name: name.clone(),
                        slot,
                        kind: EntryKind::InlineFile,
                        target_key: Key::MIN,
                        target_hash: ContentHash::default(),
                        size: data.len() as u64,
                        inline: data.clone(),
                    }
                }
                NodeKind::File { data } => {
                    let (k, h, _) = child.published.expect("child file published first");
                    DirEntry {
                        name: name.clone(),
                        slot,
                        kind: EntryKind::File,
                        target_key: k,
                        target_hash: h,
                        size: data.len() as u64,
                        inline: vec![],
                    }
                }
            };
            entries.push(entry);
        }
        self.stats.inline_files = inline_count;

        let block = DirBlock {
            version,
            next_slot,
            entries,
        };
        let name = self.block_name(idx, 0, version, BlockKind::Directory);
        let key = self.cfg.system.key_of(&name);
        let encoded = block.encode();
        let hash = sha256(&encoded);
        let len = encoded.len() as u32;
        self.record_put(io, &name, encoded, now, ops)?;
        self.nodes[idx].published = Some((key, hash, len));
        self.nodes[idx].dirty = false;
        Ok(())
    }

    fn record_put<S: BlockIo>(
        &mut self,
        io: &mut S,
        name: &BlockName,
        data: Vec<u8>,
        now: SimTime,
        ops: &mut Vec<WriteOp>,
    ) -> Result<()> {
        let key = self.cfg.system.key_of(name);
        let len = data.len();
        io.put(name, data, now)?;
        self.stats.blocks_written += 1;
        self.stats.bytes_written += len as u64;
        ops.push(WriteOp::Put {
            name: name.clone(),
            key,
            len,
        });
        Ok(())
    }

    fn block_name(&self, idx: usize, block_no: u64, version: u32, kind: BlockKind) -> BlockName {
        let n = &self.nodes[idx];
        BlockName {
            volume: self.volume,
            slots: n.slots,
            path: n.enc_path.clone(),
            block_no,
            version,
            kind,
        }
    }

    /// Schedules removal of a file's published inode and data blocks
    /// (called on overwrite and delete).
    fn retire_file_blocks(&mut self, idx: usize) {
        let version = self.nodes[idx].version;
        if let Some((inode_key, _, _)) = self.nodes[idx].published.take() {
            self.pending_removes.push(inode_key);
            // Data block keys of the retired version.
            let NodeKind::File { data } = &self.nodes[idx].kind else {
                return;
            };
            let nblocks = data.len().div_ceil(self.cfg.block_size);
            for i in 0..nblocks {
                let name = self.block_name(idx, 1 + i as u64, version, BlockKind::Data);
                self.pending_removes.push(self.cfg.system.key_of(&name));
            }
        }
    }
}

fn last_slot(slots: &PathSlots) -> u16 {
    let d = slots.depth();
    if d == 0 {
        0
    } else {
        slots.slots()[d - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Fs, MemStore) {
        (
            Fs::new("vol", b"secret", FsConfig::new(SystemKind::D2)),
            MemStore::new(SystemKind::D2),
        )
    }

    #[test]
    fn write_read_roundtrip_in_mirror() {
        let (mut fs, mut io) = setup();
        fs.write(&mut io, "/a/b.txt", b"hello".to_vec(), SimTime::ZERO)
            .unwrap();
        assert_eq!(fs.read("/a/b.txt").unwrap(), b"hello");
        assert!(fs.exists("/a"));
        assert_eq!(fs.size_of("/a/b.txt").unwrap(), 5);
    }

    #[test]
    fn writeback_cache_defers_publication() {
        let (mut fs, mut io) = setup();
        fs.write(&mut io, "/f", vec![0u8; 10_000], SimTime::ZERO)
            .unwrap();
        assert!(io.is_empty(), "nothing published before flush");
        // Not yet 30 s.
        let ops = fs.maybe_flush(&mut io, SimTime::from_secs(29)).unwrap();
        assert!(ops.is_empty());
        // Window elapsed.
        let ops = fs.maybe_flush(&mut io, SimTime::from_secs(30)).unwrap();
        assert!(!ops.is_empty());
        assert!(!fs.is_dirty());
    }

    #[test]
    fn temp_files_never_hit_the_store() {
        let (mut fs, mut io) = setup();
        fs.write(&mut io, "/tmp/scratch", vec![1u8; 9000], SimTime::ZERO)
            .unwrap();
        fs.remove_file("/tmp/scratch").unwrap();
        fs.flush(&mut io, SimTime::from_secs(30)).unwrap();
        // Only metadata (root block, root dir, tmp dir) was published —
        // no inode or data blocks for the scratch file.
        assert_eq!(io.len(), 3);
    }

    #[test]
    fn flush_publishes_data_then_metadata_then_root() {
        let (mut fs, mut io) = setup();
        fs.write(&mut io, "/docs/a.txt", vec![7u8; 20_000], SimTime::ZERO)
            .unwrap();
        let ops = fs.flush(&mut io, SimTime::ZERO).unwrap();
        let kinds: Vec<BlockKind> = ops
            .iter()
            .filter_map(|op| match op {
                WriteOp::Put { name, .. } => Some(name.kind),
                _ => None,
            })
            .collect();
        // 3 data blocks, inode, docs dir, root dir, root block.
        assert_eq!(
            kinds,
            vec![
                BlockKind::Data,
                BlockKind::Data,
                BlockKind::Data,
                BlockKind::Inode,
                BlockKind::Directory,
                BlockKind::Directory,
                BlockKind::Root
            ]
        );
    }

    #[test]
    fn small_files_are_inlined() {
        let (mut fs, mut io) = setup();
        fs.write(&mut io, "/small", vec![1u8; 100], SimTime::ZERO)
            .unwrap();
        let ops = fs.flush(&mut io, SimTime::ZERO).unwrap();
        // Root dir + root block only; no inode/data blocks.
        let put_kinds: Vec<BlockKind> = ops
            .iter()
            .filter_map(|op| match op {
                WriteOp::Put { name, .. } => Some(name.kind),
                _ => None,
            })
            .collect();
        assert_eq!(put_kinds, vec![BlockKind::Directory, BlockKind::Root]);
        assert_eq!(fs.stats().inline_files, 1);
    }

    #[test]
    fn overwrite_bumps_version_and_retires_old_blocks() {
        let (mut fs, mut io) = setup();
        fs.write(&mut io, "/f", vec![1u8; 9000], SimTime::ZERO)
            .unwrap();
        fs.flush(&mut io, SimTime::ZERO).unwrap();
        let blocks_before = io.len();
        fs.write(&mut io, "/f", vec![2u8; 9000], SimTime::from_secs(60))
            .unwrap();
        let ops = fs.flush(&mut io, SimTime::from_secs(60)).unwrap();
        let removes = ops
            .iter()
            .filter(|o| matches!(o, WriteOp::Remove { .. }))
            .count();
        // Old inode + 2 old data blocks + old root-dir version retired.
        assert_eq!(removes, 4);
        // Before GC both versions coexist (stale readers still succeed).
        assert!(io.len() > blocks_before);
        io.gc(SimTime::from_secs(91));
        // After the removal delay the old version is gone.
        assert_eq!(io.len(), blocks_before);
        assert_eq!(fs.read("/f").unwrap(), vec![2u8; 9000]);
    }

    #[test]
    fn d2_keys_of_a_flushed_tree_are_locality_ordered() {
        let (mut fs, mut io) = setup();
        fs.write(&mut io, "/a/x.dat", vec![1u8; 20_000], SimTime::ZERO)
            .unwrap();
        fs.write(&mut io, "/a/y.dat", vec![2u8; 20_000], SimTime::ZERO)
            .unwrap();
        fs.write(&mut io, "/b/z.dat", vec![3u8; 20_000], SimTime::ZERO)
            .unwrap();
        let ops = fs.flush(&mut io, SimTime::ZERO).unwrap();
        // Collect data block keys per file; each file's keys must form a
        // contiguous run in the global sorted order.
        let mut file_keys: HashMap<String, Vec<Key>> = HashMap::new();
        for op in &ops {
            if let WriteOp::Put { name, key, .. } = op {
                if name.kind == BlockKind::Data || name.kind == BlockKind::Inode {
                    file_keys.entry(name.path.clone()).or_default().push(*key);
                }
            }
        }
        let mut all: Vec<(Key, String)> = file_keys
            .iter()
            .flat_map(|(p, ks)| ks.iter().map(move |k| (*k, p.clone())))
            .collect();
        all.sort();
        // Check each file's blocks are contiguous.
        for (path, keys) in &file_keys {
            let positions: Vec<usize> = all
                .iter()
                .enumerate()
                .filter(|(_, (_, p))| p == path)
                .map(|(i, _)| i)
                .collect();
            let span = positions.last().unwrap() - positions.first().unwrap() + 1;
            assert_eq!(span, keys.len(), "{path} blocks are fragmented");
        }
    }

    #[test]
    fn rename_keeps_block_keys() {
        let (mut fs, mut io) = setup();
        fs.write(&mut io, "/old/big.bin", vec![9u8; 30_000], SimTime::ZERO)
            .unwrap();
        let ops1 = fs.flush(&mut io, SimTime::ZERO).unwrap();
        let data_keys_before: Vec<Key> = ops1
            .iter()
            .filter_map(|op| match op {
                WriteOp::Put { name, key, .. } if name.kind == BlockKind::Data => Some(*key),
                _ => None,
            })
            .collect();
        fs.mkdir_p("/new").unwrap();
        fs.rename("/old/big.bin", "/new/big.bin").unwrap();
        let ops2 = fs.flush(&mut io, SimTime::from_secs(60)).unwrap();
        // The rename re-publishes only directory metadata + root: no new
        // data blocks.
        assert!(ops2.iter().all(|op| match op {
            WriteOp::Put { name, .. } =>
                name.kind == BlockKind::Directory || name.kind == BlockKind::Root,
            WriteOp::Remove { .. } => true,
        }));
        // And the file still reads back.
        assert_eq!(fs.read("/new/big.bin").unwrap(), vec![9u8; 30_000]);
        assert!(!fs.exists("/old/big.bin"));
        // Old data keys still live in the store (not retired).
        for k in data_keys_before {
            assert!(io.get(&k, SimTime::from_secs(60)).is_ok());
        }
    }

    #[test]
    fn rename_into_itself_rejected() {
        let (mut fs, _io) = setup();
        fs.mkdir_p("/a/b").unwrap();
        assert!(matches!(
            fs.rename("/a", "/a/b/c"),
            Err(D2Error::InvalidOperation(_))
        ));
    }

    #[test]
    fn remove_dir_recursive() {
        let (mut fs, mut io) = setup();
        fs.write(&mut io, "/proj/src/main.rs", vec![1u8; 9000], SimTime::ZERO)
            .unwrap();
        fs.write(&mut io, "/proj/doc.md", vec![2u8; 9000], SimTime::ZERO)
            .unwrap();
        fs.flush(&mut io, SimTime::ZERO).unwrap();
        fs.remove_dir("/proj").unwrap();
        assert!(!fs.exists("/proj"));
        let ops = fs.flush(&mut io, SimTime::from_secs(60)).unwrap();
        let removes = ops
            .iter()
            .filter(|o| matches!(o, WriteOp::Remove { .. }))
            .count();
        // 2 inodes + 2+2 data blocks + src dir + proj dir + old root dir.
        assert!(removes >= 7, "expected at least 7 removals, got {removes}");
    }

    #[test]
    fn path_errors() {
        let (mut fs, mut io) = setup();
        fs.write(&mut io, "/f", b"x".to_vec(), SimTime::ZERO)
            .unwrap();
        assert!(matches!(fs.read("/missing"), Err(D2Error::NoSuchPath(_))));
        assert!(matches!(
            fs.write(&mut io, "/f/child", b"y".to_vec(), SimTime::ZERO),
            Err(D2Error::InvalidOperation(_) | D2Error::NoSuchPath(_) | D2Error::AlreadyExists(_))
        ));
        assert!(matches!(
            fs.remove_file("/nope"),
            Err(D2Error::NoSuchPath(_))
        ));
        assert!(matches!(fs.list("/f"), Err(D2Error::InvalidOperation(_))));
        assert!(fs.read("/").is_err());
    }

    #[test]
    fn flush_without_changes_is_empty() {
        let (mut fs, mut io) = setup();
        fs.write(&mut io, "/f", b"abc".to_vec(), SimTime::ZERO)
            .unwrap();
        fs.flush(&mut io, SimTime::ZERO).unwrap();
        assert!(fs
            .flush(&mut io, SimTime::from_secs(60))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let (mut fs, mut io) = setup();
        fs.write(&mut io, "/f", vec![0u8; 9000], SimTime::ZERO)
            .unwrap();
        fs.flush(&mut io, SimTime::ZERO).unwrap();
        let s = fs.stats();
        assert!(s.blocks_written >= 4); // 2 data + inode + root dir + root
        assert!(s.bytes_written >= 9000);
        assert_eq!(s.flushes, 1);
    }

    #[test]
    fn traditional_encoding_scatters_flushed_tree() {
        let mut fs = Fs::new("vol", b"s", FsConfig::new(SystemKind::Traditional));
        let mut io = MemStore::new(SystemKind::Traditional);
        fs.write(&mut io, "/a/x.dat", vec![1u8; 30_000], SimTime::ZERO)
            .unwrap();
        let ops = fs.flush(&mut io, SimTime::ZERO).unwrap();
        let data_keys: Vec<Key> = ops
            .iter()
            .filter_map(|op| match op {
                WriteOp::Put { name, key, .. } if name.kind == BlockKind::Data => Some(*key),
                _ => None,
            })
            .collect();
        assert_eq!(data_keys.len(), 4);
        // With hashed keys, consecutive blocks do NOT share a prefix.
        let mut sorted = data_keys.clone();
        sorted.sort();
        assert_ne!(
            sorted, data_keys,
            "hashed keys should not come out pre-sorted"
        );
    }
}
