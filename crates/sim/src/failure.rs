//! Node failure traces (substituting for the PlanetLab Feb 22–28 2003
//! trace used in Section 8.1).
//!
//! The paper replays the observed up/down behaviour of 247 PlanetLab nodes
//! during "a week with a particularly large number of failures", chosen
//! because correlated failures are what actually hurt availability. The
//! generator here produces, per node, an alternating renewal process of up
//! and down sessions (exponential MTTF/MTTR), overlaid with *correlated
//! failure events* in which a random fraction of all nodes fails
//! simultaneously — the signature of the power/network incidents in the
//! real trace.
//!
//! The default parameters are calibrated so that the probability that all
//! 3 nodes of a replica group are simultaneously down at some point during
//! the week (without regeneration) is ≈ 0.02, the figure the paper reports
//! for its trace (Section 8.2).

use crate::time::SimTime;
use rand::Rng;

/// Parameters of the synthetic failure trace.
#[derive(Clone, Copy, Debug)]
pub struct FailureModel {
    /// Mean time to (independent) failure, seconds.
    pub mttf_secs: f64,
    /// Mean time to repair, seconds.
    pub mttr_secs: f64,
    /// Expected number of correlated failure events over the trace.
    pub correlated_events: f64,
    /// Fraction of nodes taken down by each correlated event.
    pub correlated_fraction: f64,
    /// Mean outage duration of a correlated event, seconds.
    pub correlated_mttr_secs: f64,
    /// Trace duration, seconds.
    pub duration_secs: f64,
}

impl Default for FailureModel {
    fn default() -> Self {
        // One week; independent failures every ~3 days lasting ~2.5 hours,
        // plus ~4 correlated events each taking down ~12% of nodes for a
        // mean of ~2 hours. See DESIGN.md §3 for the calibration note.
        FailureModel {
            mttf_secs: 3.0 * 86_400.0,
            mttr_secs: 2.5 * 3_600.0,
            correlated_events: 4.0,
            correlated_fraction: 0.12,
            correlated_mttr_secs: 2.0 * 3_600.0,
            duration_secs: 7.0 * 86_400.0,
        }
    }
}

/// A generated trace: per-node sorted down intervals.
#[derive(Clone, Debug, Default)]
pub struct FailureTrace {
    /// `downs[node]` = sorted, disjoint `(down_at, up_at)` intervals.
    downs: Vec<Vec<(SimTime, SimTime)>>,
    /// Trace horizon.
    pub duration: SimTime,
}

impl FailureTrace {
    /// Generates a trace for `n` nodes from `model`.
    pub fn generate<R: Rng + ?Sized>(n: usize, model: &FailureModel, rng: &mut R) -> FailureTrace {
        let mut downs: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); n];
        let horizon = model.duration_secs;

        // Independent failures per node.
        for intervals in downs.iter_mut() {
            let mut t = exp(rng, model.mttf_secs);
            while t < horizon {
                let repair = exp(rng, model.mttr_secs).max(30.0);
                let end = (t + repair).min(horizon);
                intervals.push((SimTime::from_secs_f64(t), SimTime::from_secs_f64(end)));
                t = end + exp(rng, model.mttf_secs);
            }
        }

        // Correlated events: Poisson count, uniform times.
        let events = poisson(rng, model.correlated_events);
        for _ in 0..events {
            let at = rng.random::<f64>() * horizon;
            let outage = exp(rng, model.correlated_mttr_secs).max(60.0);
            let end = (at + outage).min(horizon);
            for intervals in downs.iter_mut() {
                if rng.random::<f64>() < model.correlated_fraction {
                    intervals.push((SimTime::from_secs_f64(at), SimTime::from_secs_f64(end)));
                }
            }
        }

        // Normalize: sort and merge overlaps.
        for intervals in downs.iter_mut() {
            intervals.sort();
            let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(intervals.len());
            for &(s, e) in intervals.iter() {
                match merged.last_mut() {
                    Some(last) if s <= last.1 => {
                        if e > last.1 {
                            last.1 = e;
                        }
                    }
                    _ => merged.push((s, e)),
                }
            }
            *intervals = merged;
        }

        FailureTrace {
            downs,
            duration: SimTime::from_secs_f64(horizon),
        }
    }

    /// A trace in which no node ever fails (for overhead-only simulations,
    /// as in Section 10).
    pub fn none(n: usize, duration: SimTime) -> FailureTrace {
        FailureTrace {
            downs: vec![Vec::new(); n],
            duration,
        }
    }

    /// Number of nodes covered by the trace.
    pub fn len(&self) -> usize {
        self.downs.len()
    }

    /// Whether the trace covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.downs.is_empty()
    }

    /// Whether `node` is up at time `t`.
    pub fn is_up(&self, node: usize, t: SimTime) -> bool {
        self.downs[node].iter().all(|&(s, e)| !(s <= t && t < e))
    }

    /// All `(time, node, up?)` transitions in time order — the event feed
    /// for the availability simulator.
    pub fn transitions(&self) -> Vec<(SimTime, usize, bool)> {
        let mut out = Vec::new();
        for (node, intervals) in self.downs.iter().enumerate() {
            for &(s, e) in intervals {
                out.push((s, node, false));
                if e < self.duration {
                    out.push((e, node, true));
                }
            }
        }
        out.sort();
        out
    }

    /// Down intervals of `node`.
    pub fn downs_of(&self, node: usize) -> &[(SimTime, SimTime)] {
        &self.downs[node]
    }

    /// Fraction of node-time spent down (for reporting).
    pub fn mean_unavailability(&self) -> f64 {
        if self.downs.is_empty() || self.duration == SimTime::ZERO {
            return 0.0;
        }
        // `.max(0.0)`: summing zero intervals yields -0.0, which would
        // print as "-0.000%" in reports.
        let total: f64 = self
            .downs
            .iter()
            .flat_map(|iv| iv.iter())
            .map(|&(s, e)| e.as_secs_f64() - s.as_secs_f64())
            .sum::<f64>()
            .max(0.0);
        total / (self.downs.len() as f64 * self.duration.as_secs_f64())
    }

    /// Probability that a whole replica group of `r` ring-adjacent nodes
    /// (nodes `g..g+r`) is simultaneously down at some instant during the
    /// trace — the calibration statistic from Section 8.2.
    pub fn group_failure_probability(&self, r: usize) -> f64 {
        let n = self.len();
        if n < r {
            return 0.0;
        }
        let mut failed_groups = 0usize;
        for g in 0..n {
            let members: Vec<usize> = (0..r).map(|i| (g + i) % n).collect();
            // Scan transitions of the members for a moment all are down.
            let mut times: Vec<SimTime> = members
                .iter()
                .flat_map(|&m| self.downs[m].iter().map(|&(s, _)| s))
                .collect();
            times.sort();
            if times
                .iter()
                .any(|&t| members.iter().all(|&m| !self.is_up(m, t)))
            {
                failed_groups += 1;
            }
        }
        failed_groups as f64 / n as f64
    }
}

fn exp<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.random::<f64>().max(1e-12);
    -mean * u.ln()
}

fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> usize {
    // Knuth's method; lambda is small here.
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn intervals_sorted_and_disjoint() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let trace = FailureTrace::generate(50, &FailureModel::default(), &mut rng);
        for node in 0..trace.len() {
            let iv = trace.downs_of(node);
            for w in iv.windows(2) {
                assert!(w[0].1 < w[1].0, "intervals must be disjoint and sorted");
            }
            for &(s, e) in iv {
                assert!(s < e);
                assert!(e <= trace.duration);
            }
        }
    }

    #[test]
    fn is_up_matches_intervals() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let trace = FailureTrace::generate(10, &FailureModel::default(), &mut rng);
        for node in 0..10 {
            for &(s, e) in trace.downs_of(node) {
                assert!(!trace.is_up(node, s));
                let mid = SimTime::from_micros((s.as_micros() + e.as_micros()) / 2);
                assert!(!trace.is_up(node, mid));
                assert!(trace.is_up(node, e)); // half-open
            }
        }
    }

    #[test]
    fn transitions_are_time_ordered_and_paired() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let trace = FailureTrace::generate(20, &FailureModel::default(), &mut rng);
        let ts = trace.transitions();
        for w in ts.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // Each node alternates down/up in its own subsequence.
        for node in 0..20 {
            let mine: Vec<bool> = ts.iter().filter(|t| t.1 == node).map(|t| t.2).collect();
            for w in mine.windows(2) {
                assert_ne!(w[0], w[1], "transitions must alternate");
            }
            if let Some(first) = mine.first() {
                assert!(!first, "first transition is a failure");
            }
        }
    }

    #[test]
    fn group_failure_probability_calibrated() {
        // Averaged over seeds, P(3-replica group all down at once) should
        // sit near the paper's 0.02 (generously: 0.2% – 8%).
        let mut total = 0.0;
        for seed in 0..5 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let trace = FailureTrace::generate(247, &FailureModel::default(), &mut rng);
            total += trace.group_failure_probability(3);
        }
        let p = total / 5.0;
        assert!(
            (0.002..0.08).contains(&p),
            "group failure probability {p} off target 0.02"
        );
    }

    #[test]
    fn none_trace_is_always_up() {
        let trace = FailureTrace::none(5, SimTime::from_secs(100));
        for node in 0..5 {
            assert!(trace.is_up(node, SimTime::from_secs(50)));
        }
        assert!(trace.transitions().is_empty());
        assert_eq!(trace.mean_unavailability(), 0.0);
    }

    #[test]
    fn mean_unavailability_reasonable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let trace = FailureTrace::generate(100, &FailureModel::default(), &mut rng);
        let u = trace.mean_unavailability();
        // MTTR 2.5h / (MTTF 72h) ≈ 3.4% plus correlated events.
        assert!((0.005..0.15).contains(&u), "unavailability {u}");
    }

    #[test]
    fn deterministic_given_seed() {
        let t1 = FailureTrace::generate(
            30,
            &FailureModel::default(),
            &mut rand::rngs::StdRng::seed_from_u64(7),
        );
        let t2 = FailureTrace::generate(
            30,
            &FailureModel::default(),
            &mut rand::rngs::StdRng::seed_from_u64(7),
        );
        for n in 0..30 {
            assert_eq!(t1.downs_of(n), t2.downs_of(n));
        }
    }
}
