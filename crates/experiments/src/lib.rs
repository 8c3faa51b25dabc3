//! Experiment drivers reproducing every table and figure of the paper's
//! evaluation (Sections 4, 8, 9, 10).
//!
//! Each module regenerates one artifact with the same *rows/series* the
//! paper reports, at laptop-scale parameters (see [`params`] and
//! EXPERIMENTS.md for the scaled-down defaults and the paper-vs-measured
//! record):
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig3`] | Fig. 3 — mean nodes accessed per user-hour, normalized |
//! | [`table2`] | Table 2 — mean blocks/files/nodes per task |
//! | [`fig7`] | Fig. 7 — task unavailability per system and `inter` |
//! | [`fig8`] | Fig. 8 — ranked per-user unavailability |
//! | [`perf_suite`] | shared Section 9 testbed driver |
//! | [`fig9`] | Fig. 9 — lookup messages per node vs system size |
//! | [`fig10`] | Fig. 10 — speedup over the traditional DHT |
//! | [`fig11`] | Fig. 11 — speedup over the traditional-file DHT |
//! | [`fig12`] | Fig. 12 — per-user speedup breakdown |
//! | [`fig13`] | Fig. 13 — mean lookup-cache miss rate |
//! | [`fig14_15`] | Figs. 14/15 — access-group latency scatter |
//! | [`table3`] | Table 3 — daily write/remove ratios (Harvard, Webcache) |
//! | [`table4`] | Table 4 — write vs load-balancing traffic per day |
//! | [`fig16_17`] | Figs. 16/17 — load imbalance over time |
//!
//! [`obs_summary`] is not a paper artifact: it folds a `d2-obs` trace
//! (the `--obs-out` export) into the percentile summary the binary
//! prints. [`churn`] is not a paper figure either — it *checks a paper
//! assumption*: that lookups keep succeeding (Section 8's simulators
//! take this for granted) while the failure trace crashes and rejoins
//! nodes, by playing the trace against `d2-dst`'s simulated world of
//! real protocol nodes and issuing lookups from a client that retries
//! through another entry on a timeout. [`redundancy`] is the
//! PR 9 ablation of the paper's Section 3 redundancy choice: replication
//! at r = 3/4 vs erasure coding at several (k, n) shapes, all paired on
//! one churn trace, reporting availability vs storage overhead vs lazy
//! repair bandwidth.
//!
//! Every driver returns plain data structures *and* renders the
//! paper-style text table via its `render` function, so the binaries and
//! benches print comparable output.

pub mod balance_sim;
pub mod churn;
pub mod exec;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14_15;
pub mod fig16_17;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod obs_summary;
pub mod params;
pub mod perf_suite;
pub mod redundancy;
pub mod report;
pub mod table2;
pub mod table3;
pub mod table4;

pub use params::Scale;
