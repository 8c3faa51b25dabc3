//! The DHT ring substrate for D2.
//!
//! This crate implements the dynamic-load-balancing DHT the paper builds on
//! (a Mercury-style ring [Bharambe et al., SIGCOMM 2004] running the
//! Karger–Ruhl item-balancing algorithm [SPAA 2004]):
//!
//! - [`Ring`] — authoritative ring membership: node positions, ownership
//!   ranges, successor lists / replica groups. This is the "all facets
//!   except DHT routing" view used by the paper's simulators (Section 8.1).
//! - [`routing`] — per-node routing tables with successor links and
//!   Mercury-style long links, plus greedy recursive routing with hop and
//!   message accounting for the performance experiments (Section 9.2).
//! - [`balance`] — the active load-balancing algorithm of Section 6: each
//!   node periodically probes a random node and, when the load ratio
//!   exceeds `t` (= 4), rejoins as the heavy node's predecessor at the key
//!   that splits the heavy node's load in half. One round loop serves a
//!   data-moving cluster and a ring-only warm-up over sorted keys.
//! - [`node`] — a message-level protocol state machine (join, stabilize,
//!   recursive lookup) used by the threaded live deployment in `d2-net`.
//! - [`churn`] — churn-hardened routing: fault-injected lookups with
//!   retries, per-hop timeouts, capped exponential backoff, and alternate-
//!   successor fallback, plus the periodic self-stabilization pass that
//!   repairs successor lists and evicts dead links (Section 8 failure
//!   model).
//!
//! # Examples
//!
//! ```
//! use d2_ring::Ring;
//! use d2_types::Key;
//!
//! let mut ring = Ring::new();
//! let a = ring.add_node(Key::from_fraction(0.25));
//! let b = ring.add_node(Key::from_fraction(0.75));
//! // Key at 0.5 is owned by the node at 0.75 (its successor).
//! assert_eq!(ring.owner_of(&Key::from_fraction(0.5)), Some(b));
//! assert_eq!(ring.owner_of(&Key::from_fraction(0.9)), Some(a)); // wraps
//! ```

#![warn(missing_docs)]

pub mod balance;
pub mod churn;
pub mod messages;
pub mod node;
pub mod ring;
pub mod routing;

pub use balance::{BalanceOp, LoadView};
pub use churn::{
    ChurnLookup, FaultOracle, LookupOutcome, MessageFate, NoFaults, RetryPolicy, StabilizeStats,
};
pub use node::SUCCESSORS;
pub use ring::{NodeIdx, Ring};
pub use routing::{LookupStats, RoutingTable};
