//! `d2-bench`: the end-to-end and per-layer benchmark of the D2
//! reproduction.
//!
//! Four workloads, each chosen so one group of layers does most of the
//! work (see `README.md`): three drive real `d2-node` processes over
//! loopback TCP with one closed-loop client, the fourth replays the
//! paper's §9.3 comparison on the in-process simulator. The harness
//! touches the product through a narrow surface only: the `d2-node
//! serve` / `serve-many` command line, `d2_net::ClusterOps`,
//! `d2_wire::{WireClient, TcpTransport, NetMetrics}`, and the public
//! functions the probes in [`probes`] name.

#![warn(missing_docs)]

pub mod cli;
pub mod gen;
pub mod json;
pub mod live;
pub mod probes;
pub mod procs;
pub mod simwl;
pub mod spans;
pub mod spec;
pub mod stats;
