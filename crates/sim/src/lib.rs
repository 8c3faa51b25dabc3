//! Discrete-event simulation substrate for the D2 evaluation.
//!
//! The paper evaluates D2 with (a) a long-running event-driven simulator
//! for availability and load balance (Sections 8 and 10) and (b) an
//! Emulab deployment with emulated wide-area latencies and access-link
//! capacities for performance (Section 9). This crate provides the
//! building blocks for both, re-implemented in Rust:
//!
//! - [`time`] — integer-microsecond virtual time ([`SimTime`]).
//! - [`net`] — a synthetic pairwise latency matrix (standing in for the
//!   King/DNS measurements), per-node access links, and the TCP
//!   transfer-time model with per-flow slow-start restart that the paper
//!   analyses in Section 9.3 (footnotes 7–8).
//! - [`failure`] — a PlanetLab-like failure trace generator with
//!   correlated failure events (substituting for the Feb 2003 trace).
//! - [`metrics`] — time series and the normalized-standard-
//!   deviation load-imbalance metric of Section 10.

pub mod failure;
pub mod metrics;
pub mod net;
pub mod time;

pub use failure::{FailureModel, FailureTrace};
pub use metrics::{geometric_mean, normalized_std_dev, TimeSeries};
pub use net::{LinkState, TcpConn, Topology};
pub use time::SimTime;
