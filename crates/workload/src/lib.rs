//! Synthetic workloads standing in for the paper's traces (Table 1).
//!
//! The paper analyzes three real traces we do not have:
//!
//! | Paper trace | Substitute | What is preserved |
//! |---|---|---|
//! | **Harvard** (NFS, research + email, 83 GB) | [`harvard`] | name-space locality of per-user accesses, working-set sizes, Pareto file sizes spanning ≥4 orders of magnitude, daily write/remove byte ratios of 0.10–0.20 (Table 3) |
//! | **HP** (block-level disk trace) | [`hp`] | sequential runs over block numbers with per-application locality |
//! | **Web / IRCache** (NLANR proxies) | [`web`] | Zipf URL popularity over a domain/path hierarchy, reversed-domain naming, the high-churn Webcache insert/evict behaviour |
//!
//! plus the task/access-group segmentation the evaluation applies to them
//! ([`tasks`], Sections 8.1 and 9.1).
//!
//! Every generator is deterministic given its RNG, so experiments are
//! exactly reproducible.

pub mod harvard;
pub mod hp;
pub mod keys;
pub mod namespace;
pub mod tasks;
pub mod web;

pub use harvard::{HarvardConfig, HarvardTrace};
pub use hp::{HpConfig, HpTrace};
pub use keys::{block_len, TraceKeys};
pub use namespace::{Access, FileId, FileOp, Namespace};
pub use tasks::{split_access_groups, split_tasks, Task};
pub use web::{WebConfig, WebTrace};
