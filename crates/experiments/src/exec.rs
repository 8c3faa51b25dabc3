//! Deterministic parallel execution of independent experiment cells.
//!
//! Experiment suites sweep a grid of parameters where each cell (one
//! `(system, size, kbps, mode)` point, one figure, one workload) is an
//! independent simulation. This module fans those cells out over a
//! scoped worker pool while keeping every observable output —
//! `PerfReport`s, rendered text, trace JSONL — **byte-identical to the
//! sequential run at any worker count**. Two mechanisms make that hold:
//!
//! 1. **Per-cell seeds.** Each cell derives its RNG seed from the base
//!    seed and the cell's coordinates via [`derive_seed`], so a cell's
//!    random stream never depends on which cells ran before it (the
//!    sequential code reused one RNG across cells, which would make any
//!    reordering observable).
//! 2. **Canonical merge.** Workers buffer their trace events in private
//!    per-cell sinks; the caller merges them into the shared sink in
//!    canonical cell order after the fan-out completes. Completion order
//!    never leaks into the trace.
//!
//! The pool itself is plain `std::thread::scope` — no work-stealing
//! runtime, no channels, no extra dependencies. Workers claim cell
//! indices from an atomic counter and park each result in its own slot,
//! so results come back positionally, not in completion order.
//!
//! A result that several artifacts read (the Section 9 suite, a Section
//! 10 balance cell) is a [`Shared`]: it keeps its events until the
//! first reader takes them, so they are recorded once, with the first
//! artifact printed that reads it.

use d2_obs::{SharedSink, TraceEvent};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use when the caller does not say.
///
/// Mirrors `std::thread::available_parallelism`, falling back to 1 when
/// the platform cannot report it.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Derives an independent 64-bit seed for one experiment cell.
///
/// The derivation is a fixed-key FNV-1a style fold of the base seed and
/// the cell coordinates, finished with a splitmix64 mix so that nearby
/// coordinates produce uncorrelated seeds. It is a pure function of its
/// arguments: the same `(base_seed, coords)` always yields the same
/// seed regardless of thread count or execution order.
///
/// Callers deliberately leave the *system under test* out of `coords`
/// when comparing systems, so every system in a sweep sees the same
/// ring layout and workload draw — comparisons stay paired.
pub fn derive_seed(base_seed: u64, coords: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ base_seed;
    for &c in coords {
        h ^= c;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 spreads low-entropy coordinate differences across
    // all 64 bits.
    d2_types::splitmix::mix(h)
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning
/// results in item order.
///
/// `f` receives the item's index alongside the item so workers can
/// label their output without shared state. With `jobs <= 1` (or a
/// single item) this degenerates to a plain sequential loop on the
/// calling thread — no threads are spawned, which keeps the `jobs = 1`
/// path exactly as cheap as the pre-parallel code.
///
/// Panics in `f` propagate to the caller (the scope joins all workers
/// before returning).
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let out = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Runs `f` on a private trace sink, which records only when `trace` is
/// set, and returns its result with the events it recorded: a cell's
/// half of the canonical merge.
pub fn traced<T>(trace: bool, f: impl FnOnce(&SharedSink) -> T) -> (T, Vec<TraceEvent>) {
    let sink = if trace {
        SharedSink::memory(0)
    } else {
        SharedSink::null()
    };
    let value = f(&sink);
    (value, sink.drain())
}

/// A result several artifacts read, with the trace events computing it
/// recorded. The events go to the first caller of [`Shared::take_events`].
#[derive(Debug)]
pub struct Shared<T> {
    /// The result.
    pub value: T,
    events: Mutex<Vec<TraceEvent>>,
}

impl<T> Shared<T> {
    /// Computes the result with [`traced`].
    pub fn run(trace: bool, f: impl FnOnce(&SharedSink) -> T) -> Shared<T> {
        let (value, events) = traced(trace, f);
        Shared {
            value,
            events: Mutex::new(events),
        }
    }

    /// The recorded events, once: later calls return none.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        let mut events = self
            .events
            .lock()
            .expect("no thread panics holding the events");
        std::mem::take(&mut *events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_pure_and_sensitive_to_each_coord() {
        let s = derive_seed(11, &[16, 1500, 0]);
        assert_eq!(s, derive_seed(11, &[16, 1500, 0]));
        assert_ne!(s, derive_seed(12, &[16, 1500, 0]));
        assert_ne!(s, derive_seed(11, &[32, 1500, 0]));
        assert_ne!(s, derive_seed(11, &[16, 384, 0]));
        assert_ne!(s, derive_seed(11, &[16, 1500, 1]));
    }

    #[test]
    fn derive_seed_distinguishes_coord_boundaries() {
        // [1, 2] and [12] must not collide just because the digits line
        // up; the multiply between coordinates separates them.
        assert_ne!(derive_seed(0, &[1, 2]), derive_seed(0, &[12]));
        assert_ne!(derive_seed(0, &[0, 1]), derive_seed(0, &[1, 0]));
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<usize> = (0..64).collect();
        let seq = parallel_map(&items, 1, |i, &x| (i, x * 2));
        for jobs in [2, 3, 8, 64] {
            let par = parallel_map(&items, jobs, |i, &x| (i, x * 2));
            assert_eq!(par, seq, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_runs_every_item_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..50).collect();
        parallel_map(&items, 4, |_, &i| hits[i].fetch_add(1, Ordering::Relaxed));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn available_jobs_is_at_least_one() {
        assert!(available_jobs() >= 1);
    }
}
