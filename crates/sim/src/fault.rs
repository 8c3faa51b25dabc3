//! Message-level fault injection driven by [`FailureTrace`]s.
//!
//! The availability simulator deliberately ignores routing transients
//! (Section 8.1 argues replica placement dominates), but the paper's §8
//! churn numbers implicitly assume lookups keep succeeding *while* nodes
//! crash and rejoin. A [`FaultPlan`] makes that assumption testable: it
//! combines a node crash/rejoin schedule (an ordinary [`FailureTrace`])
//! with per-message drop and delay injection, so a routing layer can be
//! exercised against the same failure model the storage layer already
//! replays. A plan is the routing layer's [`FaultOracle`]: `d2-ring`'s
//! churn-hardened lookups ask it which nodes are up and what becomes of
//! each message.
//!
//! Message fates are *stateless hashes* of `(seed, message sequence
//! number)`, not draws from a shared RNG stream: the fate of message
//! `n` never depends on how many random numbers some other subsystem
//! consumed first, which keeps whole-simulation runs byte-reproducible
//! even when instrumentation adds or removes RNG users.

use crate::failure::FailureTrace;
use crate::time::SimTime;
use d2_ring::churn::{FaultOracle, MessageFate};
use d2_ring::NodeIdx;
use d2_types::splitmix::{mix, unit, GAMMA};

/// Parameters of the injected message faults.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Probability that any single message is silently dropped.
    pub drop_prob: f64,
    /// Fixed one-way delivery delay, microseconds (the "wire" part).
    pub base_delay_us: u64,
    /// Mean of the exponential jitter added on top, microseconds.
    pub jitter_mean_us: u64,
    /// Seed for the per-message fate hash.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        // 1% loss and ~40 ms one-way base delay with 20 ms mean jitter —
        // the wide-area regime of the paper's King-derived latency matrix.
        FaultConfig {
            drop_prob: 0.01,
            base_delay_us: 40_000,
            jitter_mean_us: 20_000,
            seed: 0,
        }
    }
}

/// A deterministic fault schedule: node crash/rejoin intervals plus
/// per-message drop/delay fates.
///
/// # Examples
///
/// ```
/// use d2_ring::churn::{FaultOracle, MessageFate};
/// use d2_ring::NodeIdx;
/// use d2_sim::{FaultConfig, FaultPlan, FailureTrace, SimTime};
///
/// let trace = FailureTrace::none(4, SimTime::from_secs(60));
/// let mut plan = FaultPlan::new(FaultConfig { drop_prob: 0.0, ..Default::default() }, trace);
/// assert!(plan.node_up(NodeIdx(2), SimTime::from_secs(30).as_micros()));
/// assert!(matches!(plan.message_fate(0), MessageFate::Delivered { .. }));
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    trace: FailureTrace,
    sent: u64,
}

impl FaultPlan {
    /// Combines message-fault parameters with a crash/rejoin trace.
    pub fn new(cfg: FaultConfig, trace: FailureTrace) -> FaultPlan {
        FaultPlan {
            cfg,
            trace,
            sent: 0,
        }
    }

    /// A fault-free plan: every node up for `duration`, every message
    /// delivered after the base delay. Useful as a control arm.
    pub fn reliable(nodes: usize, duration: SimTime) -> FaultPlan {
        FaultPlan::new(
            FaultConfig {
                drop_prob: 0.0,
                jitter_mean_us: 0,
                ..FaultConfig::default()
            },
            FailureTrace::none(nodes, duration),
        )
    }

    /// The fault parameters in effect.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The underlying crash/rejoin trace.
    pub fn trace(&self) -> &FailureTrace {
        &self.trace
    }

    /// Messages whose fate has been decided so far.
    pub fn messages_sent(&self) -> u64 {
        self.sent
    }
}

impl FaultOracle for FaultPlan {
    /// Whether `node` is up at `t_us` (delegates to the trace).
    fn node_up(&self, node: NodeIdx, t_us: u64) -> bool {
        self.trace.is_up(node.0, SimTime::from_micros(t_us))
    }

    /// Decides the fate of the next message, whenever it is sent. Fates
    /// form a fixed per-plan sequence: the `n`-th call always returns
    /// the same fate for the same `(seed, n)`, independent of anything
    /// else.
    fn message_fate(&mut self, _t_us: u64) -> MessageFate {
        let n = self.sent;
        self.sent += 1;
        let h = mix(self.cfg.seed ^ n.wrapping_mul(GAMMA));
        if unit(h) < self.cfg.drop_prob {
            return MessageFate::Dropped;
        }
        let jitter = if self.cfg.jitter_mean_us == 0 {
            0
        } else {
            // Inverse-CDF exponential draw from a second hash.
            let u = unit(mix(h ^ 0xd1b5_4a32_d192_ed03));
            (-(1.0 - u).ln() * self.cfg.jitter_mean_us as f64) as u64
        };
        MessageFate::Delivered {
            delay_us: self.cfg.base_delay_us + jitter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(drop_prob: f64, seed: u64) -> FaultPlan {
        FaultPlan::new(
            FaultConfig {
                drop_prob,
                seed,
                ..FaultConfig::default()
            },
            FailureTrace::none(8, SimTime::from_secs(3600)),
        )
    }

    #[test]
    fn fates_are_a_pure_function_of_seed_and_sequence() {
        let mut a = plan(0.3, 7);
        let mut b = plan(0.3, 7);
        for _ in 0..1000 {
            assert_eq!(a.message_fate(0), b.message_fate(0));
        }
        assert_eq!(a.messages_sent(), 1000);
        // A different seed gives a different sequence.
        let mut c = plan(0.3, 8);
        let same = (0..1000)
            .filter(|_| a.message_fate(0) == c.message_fate(0))
            .count();
        assert!(same < 1000);
    }

    #[test]
    fn drop_rate_tracks_drop_prob() {
        let mut p = plan(0.2, 3);
        let drops = (0..20_000)
            .filter(|_| matches!(p.message_fate(0), MessageFate::Dropped))
            .count();
        let rate = drops as f64 / 20_000.0;
        assert!((rate - 0.2).abs() < 0.02, "drop rate {rate} off 0.2");
    }

    #[test]
    fn delays_are_base_plus_nonnegative_jitter() {
        let mut p = plan(0.0, 5);
        let mut max = 0u64;
        for _ in 0..5000 {
            match p.message_fate(0) {
                MessageFate::Delivered { delay_us } => {
                    assert!(delay_us >= p.config().base_delay_us);
                    max = max.max(delay_us);
                }
                MessageFate::Dropped => panic!("drop_prob 0 must never drop"),
            }
        }
        assert!(
            max > p.config().base_delay_us,
            "jitter should add something over 5000 draws"
        );
    }

    #[test]
    fn reliable_plan_is_fixed_delay_and_always_up() {
        let mut p = FaultPlan::reliable(4, SimTime::from_secs(100));
        for _ in 0..100 {
            assert_eq!(
                p.message_fate(0),
                MessageFate::Delivered {
                    delay_us: p.config().base_delay_us
                }
            );
        }
        for n in 0..4 {
            assert!(p.node_up(NodeIdx(n), SimTime::from_secs(99).as_micros()));
        }
    }

    #[test]
    fn node_up_delegates_to_the_trace() {
        use crate::failure::FailureModel;
        use rand::SeedableRng;
        let trace = FailureTrace::generate(
            16,
            &FailureModel::default(),
            &mut rand::rngs::StdRng::seed_from_u64(1),
        );
        let plan = FaultPlan::new(FaultConfig::default(), trace.clone());
        for node in 0..16 {
            for &(s, e) in trace.downs_of(node) {
                let up = |t: SimTime| plan.node_up(NodeIdx(node), t.as_micros());
                assert!(!up(s));
                assert!(up(e));
                assert!(!up(SimTime::from_micros(
                    (s.as_micros() + e.as_micros()) / 2
                )));
            }
        }
    }
}
