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
//! | [`avail_sweep`] | Table 2, Figs. 7/8 — one Section 8 sweep and a render per artifact |
//! | [`perf_suite`] | Figs. 9–15 — one Section 9 sweep and a render per figure |
//! | [`table3`] | Table 3 — daily write/remove ratios (Harvard, Webcache) |
//! | [`balance_sweep`] | Table 4, Figs. 16/17 — one Section 10 sweep and a render per artifact |
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
//! Every other driver returns plain data structures *and* renders the
//! paper-style text table via its `render` function; the Section 8
//! artifacts are render functions of one [`avail_sweep::Placements`]
//! and the [`avail_sweep::Sweep`]s replayed on it, the Section 9
//! figures are render functions of the one [`perf_suite::SuiteResult`]
//! they all read, and the Section 10 artifacts are render functions of
//! one [`balance_sweep::Sweep`], whose cells run when a render first
//! reads them. The binary and the examples print the same tables.
//!
//! Each "Paper:" line of EXPERIMENTS.md is written once, as a function
//! beside its render returning a [`report::Claim`]; the tests call these.

pub mod avail_sweep;
pub mod balance_sim;
pub mod balance_sweep;
pub mod churn;
pub mod exec;
pub mod fig3;
pub mod obs_summary;
pub mod params;
pub mod perf_suite;
pub mod redundancy;
pub mod report;
pub mod table3;

pub use params::Scale;
