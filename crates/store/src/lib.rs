//! D2-Store: the replicated block storage layer (paper Section 3, 5, 6).
//!
//! Responsibilities reproduced from the paper:
//!
//! - 8 KB block storage units with `put`/`get`/`remove(key, delay)`
//!   semantics and TTL-based auto-expiry ([`NodeStore`]);
//! - **block pointers** that defer data movement during load balancing
//!   ([`Payload::Pointer`]; `d2-core`'s simulated cluster queues them for
//!   resolution);
//! - **lookup caches** holding the key ranges and addresses of recently
//!   looked-up nodes, which is how D2 turns data locality into fewer DHT
//!   lookups ([`LookupCache`], Section 5). Its ranges are disjoint and
//!   kept sorted, so a probe is one binary search (the benchmark's
//!   `store.lookup_cache_probe_ns`, over 64 ranges); `scripts/check.sh`'s
//!   replay gate (`sim_harvard32` `op_p50_us` ≤ 0.4) holds the simulated
//!   fetch that probes it;
//! - a small TTL'd **retrieval cache** for hot blocks, D2's answer to
//!   request-load hot spots (Section 6, "retrieval caches like
//!   traditional DHTs").
//!
//! Replica placement (which `r` nodes hold a block) is a function of the
//! ring, so the replication/migration *orchestration* lives in `d2-core`
//! where ring and stores meet; this crate owns all per-node state.

pub mod block_cache;
pub mod lookup_cache;
pub mod node_store;

pub use block_cache::BlockCache;
pub use lookup_cache::{CacheOutcome, LookupCache};
pub use node_store::{GcReport, NodeStore, Payload, StoredBlock};
