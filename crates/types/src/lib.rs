//! Core types for the D2 defragmented DHT file system.
//!
//! This crate defines the 512-bit circular key space shared by every other
//! crate in the workspace, the SHA-256 implementation used for content
//! hashes and hashed key encodings, and the three key encodings compared in
//! the paper:
//!
//! - [`encoding::d2_key`] — the locality-preserving encoding of Figure 4
//!   (volume id, per-directory 2-byte slots, path-remainder hash, block
//!   number, version hash);
//! - [`encoding::traditional_key`] — uniformly hashed per-block keys, as in
//!   CFS;
//! - [`encoding::traditional_file_key`] — per-file hashed placement with
//!   block offsets, modelling PAST-style whole-file objects.
//!
//! # Examples
//!
//! ```
//! use d2_types::{Key, KeyRange};
//!
//! let a = Key::from_u64(10);
//! let b = Key::from_u64(20);
//! assert!(a < b);
//! let range = KeyRange::new(a, b);
//! assert!(range.contains(&Key::from_u64(15)));
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod encoding;
pub mod error;
pub mod hash;
pub mod inline_vec;
pub mod key;
pub mod splitmix;

pub use block::{BlockKind, BlockName, SystemKind, BLOCK_SIZE, INLINE_DATA_MAX};
pub use encoding::{PathSlots, SlotAllocator, VolumeId, DIR_SLOT_LEVELS};
pub use error::{D2Error, Result};
pub use hash::{sha256, ContentHash, Sha256};
pub use inline_vec::InlineVec;
pub use key::{Key, KeyRange, NodeId, KEY_BYTES};
pub use splitmix::SplitMix64;
