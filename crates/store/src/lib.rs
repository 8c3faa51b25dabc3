//! D2-Store: per-node block storage and the lookup cache (paper Sections
//! 3 and 5).
//!
//! - [`NodeStore`] holds one simulated node's blocks in key order, with
//!   the byte accounting and range queries (count, split point) that
//!   load balancing reads. A live node holds its blocks in `d2-net`'s
//!   `ChainSync`, next to the checksums replica repair compares. A copy is real bytes ([`Payload::Data`]) or a size
//!   placeholder ([`Payload::Size`]) at simulation scale; a block
//!   pointer's target and age live in `d2-core`'s cluster index, not
//!   here.
//! - [`LookupCache`] holds the key ranges and addresses of recently
//!   looked-up nodes, which is how D2 turns data locality into fewer DHT
//!   lookups (Section 5). Its ranges are disjoint and kept sorted, so a
//!   probe is one binary search (the benchmark's
//!   `store.lookup_cache_probe_ns`, over 64 ranges); `scripts/check.sh`'s
//!   replay gate (`sim_harvard32` `op_p50_us` ≤ 0.3) holds the simulated
//!   fetch that probes it.
//!
//! Replica placement (which `r` nodes hold a block) is a function of the
//! ring, so the replication/migration *orchestration* lives in `d2-core`
//! where ring and stores meet. The paper's delayed `remove(key, delay)`
//! lives where it is driven, in `d2-fs`'s `MemStore` tombstones.

pub mod lookup_cache;
mod node_store;

pub use lookup_cache::{CacheOutcome, LookupCache};
pub use node_store::{NodeStore, Payload, StoredBlock};
