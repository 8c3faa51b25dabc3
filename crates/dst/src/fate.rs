//! Seeded randomness for the simulation: a splitmix64 stream RNG for
//! plan generation and a *stateless* per-message fate function.
//!
//! Message fates are hashed from `(seed, seq)` rather than drawn from a
//! stream so that the fate of message `seq` never depends on how much
//! randomness earlier code consumed. That is what makes schedule
//! shrinking sound: forcing one message to deliver cleanly leaves every
//! other message's fate untouched.

use d2_types::splitmix::{mix, unit, GAMMA};
use d2_types::SplitMix64;
use std::collections::BTreeSet;

/// A splitmix64 stream for up-front plan generation (crash times,
/// victims, workload keys), where a stream is the natural shape. Salted
/// so that streams derived from one run seed for different purposes do
/// not correlate; its first draw is `mix(mix(seed ^ salt) + γ)`, which
/// every pinned schedule was generated with.
pub fn stream(seed: u64) -> SplitMix64 {
    SplitMix64::new(mix(seed ^ 0xd2d2_d2d2_0000_0001).wrapping_add(GAMMA))
}

/// What the scheduler decides to do with one node-to-node message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FateKind {
    /// Deliver after the normal base delay plus jitter.
    Deliver,
    /// Silently discard.
    Drop,
    /// Deliver twice (the duplicate lands later).
    Duplicate,
    /// Deliver after an extra multi-second delay (stale message).
    Delay,
    /// Silently discarded because an endpoint is gray (a per-node lossy
    /// profile from a [`crate::world::NodeEvent::Gray`] window), not by
    /// the global fate draw. Tracked as its own kind so shrunk plans
    /// say *why* the message vanished.
    GrayDrop,
}

impl FateKind {
    /// Stable lowercase label used in traces and fault plans.
    pub fn label(&self) -> &'static str {
        match self {
            FateKind::Deliver => "deliver",
            FateKind::Drop => "drop",
            FateKind::Duplicate => "duplicate",
            FateKind::Delay => "delay",
            FateKind::GrayDrop => "gray-drop",
        }
    }
}

/// The fate of one message: what happens plus its (jittered) timing.
#[derive(Clone, Copy, Debug)]
pub struct Fate {
    /// Deliver / drop / duplicate / delay.
    pub kind: FateKind,
    /// Jitter added to the base propagation delay, in virtual µs.
    pub jitter_us: u64,
    /// Extra delay of the duplicate copy (duplicates only).
    pub dup_extra_us: u64,
}

/// Message fault probabilities. All zero means a perfect network
/// (modulo crashes and partitions, which are plan events, not fates).
#[derive(Clone, Copy, Debug)]
pub struct FaultProbs {
    /// Probability a message is dropped.
    pub drop: f64,
    /// Probability a message is duplicated.
    pub duplicate: f64,
    /// Probability a message is delayed by seconds instead of
    /// milliseconds.
    pub delay: f64,
}

impl Default for FaultProbs {
    fn default() -> Self {
        FaultProbs {
            drop: 0.02,
            duplicate: 0.01,
            delay: 0.01,
        }
    }
}

/// The seeded fate oracle: a pure function of `(seed, seq)` with a set
/// of per-seq overrides that force clean delivery (the shrinker's
/// neutralization mechanism).
#[derive(Clone, Debug)]
pub struct FatePolicy {
    seed: u64,
    probs: FaultProbs,
    /// Faults stop being injected at this virtual time so every run has
    /// a heal phase in which the invariants must converge.
    pub fault_end_us: u64,
    /// Message seqs whose fate is forced to plain delivery (same jitter
    /// as the original draw, so neutralizing a fault perturbs timing as
    /// little as possible).
    pub force_deliver: BTreeSet<u64>,
}

/// Mean of the exponential per-message jitter (virtual µs). Large
/// relative to the 1 ms base delay, so reordering is the common case.
const JITTER_MEAN_US: f64 = 10_000.0;

impl FatePolicy {
    /// A policy for `seed` with the given fault probabilities, injecting
    /// faults only before `fault_end_us`.
    pub fn new(seed: u64, probs: FaultProbs, fault_end_us: u64) -> Self {
        FatePolicy {
            seed,
            probs,
            fault_end_us,
            force_deliver: BTreeSet::new(),
        }
    }

    /// The fate of message `seq` sent at virtual time `now_us`.
    pub fn fate(&self, seq: u64, now_us: u64) -> Fate {
        let h = mix(self.seed ^ seq.wrapping_mul(GAMMA));
        let jitter_us = exp_us(mix(h ^ 0x6a09_e667_f3bc_c908));
        let dup_extra_us = exp_us(mix(h ^ 0xbb67_ae85_84ca_a73b));
        let healed = now_us >= self.fault_end_us;
        let kind = if healed || self.force_deliver.contains(&seq) {
            FateKind::Deliver
        } else {
            let u = unit(h);
            let p = &self.probs;
            if u < p.drop {
                FateKind::Drop
            } else if u < p.drop + p.duplicate {
                FateKind::Duplicate
            } else if u < p.drop + p.duplicate + p.delay {
                FateKind::Delay
            } else {
                FateKind::Deliver
            }
        };
        Fate {
            kind,
            jitter_us,
            dup_extra_us,
        }
    }
}

/// Exponentially distributed jitter with mean [`JITTER_MEAN_US`],
/// derived from a hash so it is stateless like the fate itself.
fn exp_us(h: u64) -> u64 {
    // -ln(1-u) * mean; u < 1 so the log argument is positive.
    let u = unit(h);
    (-(1.0 - u).ln() * JITTER_MEAN_US) as u64
}

/// The gray-link modulation of message `seq`: `(dropped, extra_us)`.
///
/// A message touching a gray node (sender or receiver inside an active
/// [`crate::world::NodeEvent::Gray`] window) is dropped with
/// probability `drop_p`; a surviving one picks up exponential extra
/// latency with mean `mean_extra_us`. Like [`FatePolicy::fate`] this is
/// a pure hash of `(seed, seq)` — independent of the global fate draw
/// and of how many messages came before — so neutralizing one gray
/// drop (the shrinker's force-deliver set applies here too) leaves
/// every other message's gray treatment untouched. A forced delivery
/// keeps the extra latency: the link is still slow, it just stops
/// eating this message.
pub fn gray_fate(seed: u64, seq: u64, drop_p: f64, mean_extra_us: u64) -> (bool, u64) {
    let h = mix(seed ^ seq.wrapping_mul(GAMMA) ^ 0x6772_6179_6e6f_6465);
    let dropped = unit(h) < drop_p;
    let u = unit(mix(h ^ 0x3c6e_f372_fe94_f82b));
    let extra = (-(1.0 - u).ln() * mean_extra_us as f64) as u64;
    (dropped, extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fates_are_pure_functions_of_seed_and_seq() {
        let p = FatePolicy::new(42, FaultProbs::default(), u64::MAX);
        for seq in 0..1000 {
            let a = p.fate(seq, 0);
            let b = p.fate(seq, 0);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.jitter_us, b.jitter_us);
            assert_eq!(a.dup_extra_us, b.dup_extra_us);
        }
    }

    #[test]
    fn different_seeds_draw_different_fate_sequences() {
        let a = FatePolicy::new(1, FaultProbs::default(), u64::MAX);
        let b = FatePolicy::new(2, FaultProbs::default(), u64::MAX);
        let kinds = |p: &FatePolicy| (0..512).map(|s| p.fate(s, 0).kind).collect::<Vec<_>>();
        assert_ne!(kinds(&a), kinds(&b));
    }

    #[test]
    fn force_deliver_neutralizes_only_the_named_seq() {
        let base = FatePolicy::new(7, FaultProbs::default(), u64::MAX);
        let faulty: Vec<u64> = (0..4096)
            .filter(|&s| base.fate(s, 0).kind != FateKind::Deliver)
            .collect();
        assert!(!faulty.is_empty(), "seed 7 must draw some faults");
        let mut forced = base.clone();
        forced.force_deliver.insert(faulty[0]);
        assert_eq!(forced.fate(faulty[0], 0).kind, FateKind::Deliver);
        // Timing is preserved so the override perturbs the schedule
        // minimally.
        assert_eq!(
            forced.fate(faulty[0], 0).jitter_us,
            base.fate(faulty[0], 0).jitter_us
        );
        for &s in &faulty[1..] {
            assert_eq!(forced.fate(s, 0).kind, base.fate(s, 0).kind);
        }
    }

    #[test]
    fn faults_stop_after_fault_end() {
        let p = FatePolicy::new(3, FaultProbs::default(), 1_000_000);
        for seq in 0..4096 {
            assert_eq!(p.fate(seq, 1_000_000).kind, FateKind::Deliver);
        }
        assert!((0..4096).any(|s| p.fate(s, 0).kind != FateKind::Deliver));
    }

    #[test]
    fn fault_rates_roughly_match_probabilities() {
        let p = FatePolicy::new(99, FaultProbs::default(), u64::MAX);
        let n = 100_000;
        let drops = (0..n)
            .filter(|&s| p.fate(s, 0).kind == FateKind::Drop)
            .count();
        let frac = drops as f64 / n as f64;
        assert!((0.015..0.025).contains(&frac), "drop rate {frac}");
    }
}
