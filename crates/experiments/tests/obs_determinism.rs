//! Same seed ⇒ byte-identical trace export.
//!
//! The `--obs-out` JSONL is meant to be committed and diffed, so the
//! whole pipeline — workload generation, simulation, event recording,
//! serialization — must be a pure function of the seed. This exercises
//! the Section 9 performance suite end to end, twice; the Section 10
//! balance sweep's trace is compared across two runs by
//! `exec_equivalence::balance_sweep_identical_at_any_worker_count`.

use d2_experiments::perf_suite::{self, SuiteConfig};
use d2_experiments::Scale;
use d2_obs::{to_jsonl, SharedSink};
use d2_workload::HarvardTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn perf_trace_jsonl(seed: u64) -> String {
    let trace = HarvardTrace::generate(&Scale::Quick.harvard(), &mut StdRng::seed_from_u64(seed));
    let sink = SharedSink::memory(0);
    let cfg = SuiteConfig {
        sizes: vec![16],
        measure_groups: 40,
        seed,
        sink: sink.clone(),
        ..SuiteConfig::default()
    };
    perf_suite::run(&trace, &cfg);
    to_jsonl(&sink.drain())
}

#[test]
fn perf_suite_trace_is_byte_identical_across_runs() {
    let a = perf_trace_jsonl(11);
    let b = perf_trace_jsonl(11);
    assert!(!a.is_empty(), "the traced suite must record events");
    assert_eq!(a, b, "same seed must export byte-identical JSONL");
    // Guards against the trivial failure mode where determinism holds
    // because nothing seed-dependent is recorded at all.
    assert_ne!(a, perf_trace_jsonl(12));
    for line in a.lines().take(50) {
        assert!(
            line.starts_with("{\"ev\":\"") && line.ends_with('}'),
            "bad JSONL line: {line}"
        );
    }
}
