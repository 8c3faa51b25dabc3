//! D2 node/cluster composition and the simulation drivers behind the
//! paper's three evaluations.
//!
//! - [`cluster`] — [`cluster::SimCluster`]: a whole DHT system (ring +
//!   per-node stores + router + replication) under one of the three
//!   [`d2_types::SystemKind`]s, with explicit replica maintenance,
//!   block-pointer-aware load balancing, and bandwidth-metered migration.
//! - [`avail`] — the availability simulator of Section 8: replays a
//!   workload against a failure trace and scores *task* success.
//! - [`perf`] — the performance simulator of Section 9: replays access
//!   groups over the latency/TCP network model, counting lookup messages,
//!   cache miss rates, and access-group completion times.
//! - [`config`] — what a figure varies (nodes, replicas, seed, redundancy,
//!   repair budget); the paper's fixed parameters (10-minute probe
//!   interval, 1-hour pointer stabilization, 750 kbps migration budget,
//!   1.25 h lookup-cache TTL) are constants beside the code that reads
//!   them.

pub mod avail;
pub mod cluster;
pub mod config;
pub mod perf;

pub use avail::{AvailabilityReport, AvailabilitySim, TaskProfile};
pub use cluster::{ClusterStats, SimCluster};
pub use config::ClusterConfig;
pub use d2_ec::RedundancyPolicy;
pub use d2_types::SystemKind;
pub use perf::{Parallelism, PerfConfig, PerfReport, PerfSim};
