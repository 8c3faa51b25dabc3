//! # D2: a defragmented DHT-based distributed file system
//!
//! This is the facade crate for a from-scratch Rust reproduction of
//! *Defragmenting DHT-based Distributed File Systems* (Pang, Gibbons,
//! Kaminsky, Seshan, Yu — ICDCS 2007 / CMU-CS-07-115).
//!
//! It re-exports every subsystem crate so that downstream users can depend
//! on a single crate:
//!
//! - [`types`] — 512-bit ring keys, SHA-256, and the locality-preserving
//!   key encoding of Figure 4.
//! - [`ring`] — a Mercury-style DHT ring with successor lists, long links,
//!   recursive routing, and Karger–Ruhl active load balancing.
//! - [`store`] — the per-node block store (D2-Store) and the lookup
//!   cache.
//! - [`ec`] — the erasure-coded redundancy backend: a systematic
//!   Reed–Solomon coder over GF(2^8) and the `RedundancyPolicy`
//!   replication-vs-coding abstraction.
//! - [`fs`] — the CFS-style file-system layer (D2-FS) with root/directory/
//!   inode/data blocks and a 30-second write-back cache.
//! - [`sim`] — the discrete-event simulator (network latency, access-link
//!   bandwidth, TCP slow-start model, failure traces).
//! - [`workload`] — synthetic Harvard/HP/Web trace generators and task
//!   segmentation.
//! - [`core`] — node composition (`D2`, `Traditional`, `TraditionalFile`)
//!   and cluster simulation drivers.
//! - [`wire`] — the live-deployment wire layer: versioned binary codec,
//!   `Transport` trait (in-process channels or TCP), request/response
//!   client, and `net.*` metrics.
//! - [`net`] — the live deployment: the same protocol state machine run
//!   thread-per-node over channels or process-per-node over TCP, plus
//!   the `d2-node` cluster binary.
//! - [`obs`] — structured tracing and metrics: registry, histograms,
//!   and deterministic per-lookup JSONL trace export.
//! - [`experiments`] — one driver per table/figure of the paper.
//! - [`dst`] — deterministic simulation testing: the real node runtime
//!   over a simulated transport and virtual clock, seed-driven fault
//!   injection, ring/storage invariants, and fault-plan shrinking.
//!
//! ## Quickstart
//!
//! ```
//! use d2::core::{ClusterConfig, SimCluster, SystemKind};
//!
//! // Build a 32-node D2 cluster inside the discrete-event simulator,
//! // write a small file tree, and read it back.
//! let cfg = ClusterConfig { nodes: 32, seed: 7, ..ClusterConfig::default() };
//! let mut cluster = SimCluster::new(SystemKind::D2, &cfg);
//! cluster.create_volume("home");
//! cluster.write_file("home", "/docs/notes.txt", b"defragmented!");
//! cluster.flush();
//! let data = cluster.read_file("home", "/docs/notes.txt").unwrap();
//! assert_eq!(data, b"defragmented!");
//! ```

pub use d2_core as core;
pub use d2_dst as dst;
pub use d2_ec as ec;
pub use d2_experiments as experiments;
pub use d2_fs as fs;
pub use d2_net as net;
pub use d2_obs as obs;
pub use d2_ring as ring;
pub use d2_sim as sim;
pub use d2_store as store;
pub use d2_types as types;
pub use d2_wire as wire;
pub use d2_workload as workload;
