//! The schedule explorer: seeded sweeps and greedy fault-plan
//! shrinking.
//!
//! A sweep runs one deterministic world per seed (in parallel — each
//! world is fully self-contained, so threads do not perturb schedules)
//! and reports every failing seed. Shrinking then minimizes a failing
//! seed's fault plan by *neutralizing* one plan entry at a time —
//! forcing a faulted message to deliver cleanly, or un-scheduling a
//! crash/isolation — and re-running the world to check the failure
//! still reproduces. Because message fates are stateless hashes of
//! `(seed, seq)`, neutralizing one entry leaves all others intact, and
//! because every candidate removal is re-validated by a full run, the
//! final plan is sound even when removing an early fault shifts the
//! schedule downstream.

use crate::world::{NodeEvent, Overrides, PlanEntry, RunOutcome, Scenario, SimWorld};
use d2_ring::messages::Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Heal-window bisection stops once the window is pinned down to this
/// resolution — finer than this does not change what a human reads out
/// of the repro, and every probe costs a full world run.
const HEAL_TRIM_RESOLUTION_US: u64 = 250_000;

/// Runs one world to completion under `overrides`.
pub fn run_one(sc: &Scenario, overrides: &Overrides) -> RunOutcome {
    SimWorld::new(sc.clone(), overrides).run()
}

/// One seed's result in a sweep report (traces omitted to keep a
/// 1000-seed sweep's memory flat; replay the seed to regenerate them).
#[derive(Clone, Debug)]
pub struct SeedResult {
    /// The seed.
    pub seed: u64,
    /// Whether the world converged.
    pub ok: bool,
    /// The violation of a failing run.
    pub violation: Option<String>,
    /// Virtual end time.
    pub end_us: u64,
    /// Fully-acked client puts.
    pub acked_puts: u32,
    /// Client puts the scenario issued.
    pub puts: u32,
    /// Fault-plan length (node events + drawn message faults).
    pub plan_len: usize,
    /// Ring lookups completed across all surviving nodes.
    pub lookups: u64,
    /// Lookup hop-count percentiles from the merged cluster registry
    /// (`0` when no lookup completed).
    pub hops_p50: u64,
    /// See [`SeedResult::hops_p50`].
    pub hops_p99: u64,
    /// Wire spans collected from the survivors' flight recorders.
    pub spans: usize,
}

impl SeedResult {
    /// Fraction of issued puts that were fully acked (`r` replicas).
    pub fn put_success_rate(&self) -> f64 {
        if self.puts == 0 {
            1.0
        } else {
            self.acked_puts as f64 / self.puts as f64
        }
    }
}

/// Sweeps `count` seeds starting at `seed0`, running up to `jobs`
/// worlds concurrently. Results come back sorted by seed, so the
/// report is deterministic regardless of thread interleaving.
pub fn sweep(base: &Scenario, seed0: u64, count: u64, jobs: usize) -> Vec<SeedResult> {
    let next = AtomicU64::new(0);
    let results: Mutex<Vec<SeedResult>> = Mutex::new(Vec::with_capacity(count as usize));
    std::thread::scope(|scope| {
        for _ in 0..jobs.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return;
                }
                let mut sc = base.clone();
                sc.seed = seed0 + i;
                let out = run_one(&sc, &Overrides::default());
                let hops = out.metrics.histogram("node.lookup_hops");
                let (lookups, hops_p50, hops_p99) = match hops {
                    Some(h) => {
                        let s = h.snapshot();
                        (s.count, s.p50, s.p99)
                    }
                    None => (0, 0, 0),
                };
                let spans = out
                    .trace
                    .iter()
                    .filter(|e| matches!(e, d2_obs::trace::TraceEvent::WireSpan { .. }))
                    .count();
                let summary = SeedResult {
                    seed: out.seed,
                    ok: out.ok,
                    violation: out.violation,
                    end_us: out.end_us,
                    acked_puts: out.stats.acked_puts,
                    puts: sc.puts() as u32,
                    plan_len: out.plan.len(),
                    lookups,
                    hops_p50,
                    hops_p99,
                    spans,
                };
                results.lock().unwrap().push(summary);
            });
        }
    });
    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|r| r.seed);
    results
}

/// The minimized reproduction of one failing seed.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The neutralization set that, applied to the seed, still fails.
    pub overrides: Overrides,
    /// The minimized fault plan (everything still active in the final
    /// failing run).
    pub plan: Vec<PlanEntry>,
    /// The final failing run's violation.
    pub violation: Option<String>,
    /// Worlds executed while shrinking.
    pub runs: usize,
}

/// Minimizes the fault plan of a failing scenario. Returns `None` when
/// the scenario does not fail in the first place.
///
/// Node events (few, high-impact) are tried for removal one at a time.
/// Surviving netsplits then get their membership bisected (un-grouping
/// chunks of members) and every windowed event (isolation, partition,
/// cut, gray) gets its heal time binary-searched toward its start, so
/// the final repro names both *who* had to be split off and *how long*
/// the outage had to last. Drawn message faults can number in the
/// hundreds, so they are removed delta-debugging style: try
/// neutralizing a whole chunk (starting with *all* of them); if the
/// failure survives, adopt the removal, else split the chunk and
/// recurse. Every adoption is validated by a full re-run, so the final
/// plan is sound even though removing an early fault shifts every
/// later wire seq's meaning. Passes repeat until nothing more comes
/// out or `budget` runs are spent.
pub fn shrink(sc: &Scenario, budget: usize) -> Option<ShrinkResult> {
    let mut overrides = Overrides::default();
    let mut last = run_one(sc, &overrides);
    let mut runs = 1;
    if last.ok {
        return None;
    }
    loop {
        let mut removed = false;

        // Node events, one at a time.
        let node_idxs: Vec<usize> = last
            .plan
            .iter()
            .filter_map(|e| match e {
                PlanEntry::Node { idx, .. } => Some(*idx),
                PlanEntry::Fault { .. } => None,
            })
            .collect();
        for idx in node_idxs {
            if runs >= budget {
                break;
            }
            let mut trial = overrides.clone();
            trial.skip_events.insert(idx);
            let out = run_one(sc, &trial);
            runs += 1;
            if !out.ok {
                overrides = trial;
                last = out;
                removed = true;
            }
        }

        // Partition membership, delta-debugging within each surviving
        // netsplit: un-grouping a member returns it to the majority, so
        // a chunk of members that turns out not to be load-bearing
        // leaves a smaller split behind. (A partition whose groups all
        // empty out is a no-op — pass 1 usually removes it outright on
        // the next loop.)
        let part_members: Vec<(usize, Vec<Addr>)> = last
            .plan
            .iter()
            .filter_map(|e| match e {
                PlanEntry::Node {
                    idx,
                    event: NodeEvent::Partition { groups, .. },
                } => {
                    let members: Vec<Addr> = groups.iter().flatten().copied().collect();
                    (!members.is_empty()).then_some((*idx, members))
                }
                _ => None,
            })
            .collect();
        for (idx, members) in part_members {
            let mut stack: Vec<Vec<Addr>> = vec![members];
            while let Some(chunk) = stack.pop() {
                if runs >= budget {
                    break;
                }
                let mut trial = overrides.clone();
                trial.ungroup.extend(chunk.iter().map(|&a| (idx, a)));
                let out = run_one(sc, &trial);
                runs += 1;
                if !out.ok {
                    overrides = trial;
                    last = out;
                    removed = true;
                } else if chunk.len() > 1 {
                    let mid = chunk.len() / 2;
                    stack.push(chunk[mid..].to_vec());
                    stack.push(chunk[..mid].to_vec());
                }
            }
        }

        // Fault windows: binary-search each surviving windowed event's
        // heal time down toward its start, so the repro names the
        // shortest outage that still breaks the cluster. The plan
        // reports effective (already-trimmed) events, so each outer
        // pass resumes from the best window found so far.
        let windows: Vec<(usize, u64, u64)> = last
            .plan
            .iter()
            .filter_map(|e| match e {
                PlanEntry::Node { idx, event } => event.heal_us().map(|h| (*idx, event.at_us(), h)),
                PlanEntry::Fault { .. } => None,
            })
            .collect();
        for (idx, at, heal) in windows {
            let (mut lo, mut hi) = (at, heal);
            while hi.saturating_sub(lo) > HEAL_TRIM_RESOLUTION_US && runs < budget {
                let mid = lo + (hi - lo) / 2;
                let mut trial = overrides.clone();
                trial.trim_heal.insert(idx, mid);
                let out = run_one(sc, &trial);
                runs += 1;
                if !out.ok {
                    overrides = trial;
                    last = out;
                    hi = mid;
                    removed = true;
                } else {
                    lo = mid;
                }
            }
        }

        // Message faults, chunk-wise. A stale seq (no longer drawn
        // after earlier removals shifted the schedule) is a harmless
        // no-op override, so chunks need not be re-derived mid-pass.
        let fault_seqs: Vec<u64> = last
            .plan
            .iter()
            .filter_map(|e| match e {
                PlanEntry::Fault { seq, .. } => Some(*seq),
                PlanEntry::Node { .. } => None,
            })
            .collect();
        let mut stack: Vec<Vec<u64>> = if fault_seqs.is_empty() {
            Vec::new()
        } else {
            vec![fault_seqs]
        };
        while let Some(chunk) = stack.pop() {
            if runs >= budget {
                break;
            }
            let mut trial = overrides.clone();
            trial.force_deliver.extend(chunk.iter().copied());
            let out = run_one(sc, &trial);
            runs += 1;
            if !out.ok {
                overrides = trial;
                last = out;
                removed = true;
            } else if chunk.len() > 1 {
                // The chunk contains something load-bearing: bisect.
                let mid = chunk.len() / 2;
                stack.push(chunk[mid..].to_vec());
                stack.push(chunk[..mid].to_vec());
            }
        }

        if !removed || runs >= budget {
            break;
        }
    }
    Some(ShrinkResult {
        overrides,
        plan: last.plan,
        violation: last.violation,
        runs,
    })
}
