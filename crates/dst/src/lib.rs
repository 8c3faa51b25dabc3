//! Deterministic simulation testing (DST) for the D2 node protocol.
//!
//! The live deployments in `d2-net` exercise the protocol with OS
//! threads, real sockets, and wall-clock timers — which means every bug
//! they find arrives with an unreproducible schedule attached. PR 4's
//! live-cluster debugging found three such bugs (a dead-tail successor
//! wedge, a lost join ack, a join livelock), each reproducible only by
//! luck. This crate closes that gap: it runs the *same*
//! [`d2_net::NodeRuntime`] — protocol state machine, block store,
//! replica repair, join retry — over a simulated transport
//! ([`world::SimTransport`]) and a virtual clock
//! ([`d2_net::SimClock`]), with a single event queue replacing every
//! thread and timer. One `u64` seed decides the entire schedule:
//! message fates (drop / duplicate / multi-second delay / reordering
//! jitter), node crashes and restarts, network isolations, and the
//! client workload. Same seed, same run, byte-identical trace.
//!
//! Worlds come in [`world::WorldRegime`]s that change *what kind* of
//! adversity the seed buys: `classic` (crash / restart / single-node
//! isolation), `partition` (multi-node netsplits plus one-way silent
//! link cuts), `gray` (nodes that get slow and lossy without a clean
//! crash signal), `wan` (a King-style per-pair latency matrix from
//! [`d2_sim::Topology`] replaces the flat 1 ms LAN), `skew` (per-node
//! clock offset and drift via [`d2_net::SkewClock`]), and `mixed`
//! (per-seed choice among the above). Every regime shares the same
//! invariants, replay determinism, and shrinker.
//!
//! On top of the world sit:
//!
//! - [`invariants`] — Zave-style ring invariants (one ring covering all
//!   live nodes, ordered corpse-free successor lists, cycle-consistent
//!   predecessors) plus storage invariants (replicated scenarios:
//!   every acked put readable from its owner, replica count converged
//!   back to `r` on the owner-plus-successors chain; erasure-coded
//!   scenarios: every acked put reconstructable from at least
//!   `min(k, live)` surviving fragments), evaluated at quiescent
//!   checkpoints after fault injection ends;
//! - [`explore`] — parallel seed sweeps ([`explore::sweep`]) and
//!   delta-debugging fault-plan minimization ([`explore::shrink`]) that
//!   turn "seed 7134 fails" into a handful of named faults;
//! - the `d2-dst` binary — `sweep` / `replay` front-ends for scripts
//!   and CI (see EXPERIMENTS.md for a walkthrough).
//!
//! The harness validates itself by re-introducing PR 4's head-only
//! successor-probing bug ([`InjectedBug::ProbeHeadOnly`], one of
//! [`Scenario::bug`]'s values) and asserting a sweep catches it and shrinks
//! the repro to a few crashes (see `tests/regressions.rs`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod explore;
pub mod fate;
pub mod invariants;
pub mod world;

pub use d2_net::RedundancyPolicy;
pub use d2_ring::node::InjectedBug;
pub use explore::{run_one, shrink, sweep, SeedResult, ShrinkResult};
pub use fate::{gray_fate, stream, Fate, FateKind, FatePolicy, FaultProbs};
pub use world::{
    generate_node_events, NodeEndState, NodeEvent, Overrides, PlanEntry, RunOutcome, RunStats,
    Scenario, SimTransport, SimWorld, WorldClock, WorldRegime,
};
