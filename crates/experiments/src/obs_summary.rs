//! Aggregates a drained trace into a [`Registry`] and renders the
//! percentile summary table the `d2-exp` binary prints alongside an
//! `--obs-out` export.
//!
//! The summary is computed *from the events themselves* (not from the
//! simulator's internal counters), so it doubles as a consistency check:
//! if the trace says 3% stale hits, that is what actually got recorded.

use crate::report::{fmt, render_table};
use d2_obs::{CacheResult, Registry, TraceEvent};

/// Folds a trace into named metrics:
///
/// - histograms `lookup.hops`, `lookup.latency_us`, `fetch.transfer_us`,
///   `fetch.total_us`, `span.dur_us`, `churn.retries`, `churn.latency_us`;
/// - counters `cache.<tier>.<hit|miss|stale>`, `fetch.count`,
///   `fetch.bytes`, `migration.<kind>.count`, `migration.<kind>.bytes`,
///   `balance.moves`, `marks`, `churn.lookups`, `churn.failed`,
///   `churn.timeouts`;
/// - gauges `cache.<tier>.hit_rate`.
pub fn registry_from_events(events: &[TraceEvent]) -> Registry {
    let mut reg = Registry::new();
    for ev in events {
        match ev {
            TraceEvent::Mark { .. } => reg.inc("marks"),
            TraceEvent::Route { hops, .. } => {
                reg.observe("lookup.hops", *hops as u64);
            }
            TraceEvent::Fetch {
                result,
                lookup_us,
                transfer_us,
                total_us,
                len,
                ..
            } => {
                reg.inc("fetch.count");
                reg.add("fetch.bytes", *len as u64);
                if *result != CacheResult::Hit {
                    reg.observe("lookup.latency_us", *lookup_us);
                }
                reg.observe("fetch.transfer_us", *transfer_us);
                reg.observe("fetch.total_us", *total_us);
            }
            TraceEvent::CacheProbe { tier, result, .. } => {
                reg.inc(&format!("cache.{}.{}", tier.label(), result.label()));
            }
            TraceEvent::Migration { kind, bytes, .. } => {
                reg.inc(&format!("migration.{}.count", kind.label()));
                reg.add(&format!("migration.{}.bytes", kind.label()), *bytes);
            }
            TraceEvent::BalanceMove { .. } => reg.inc("balance.moves"),
            TraceEvent::ChurnLookup {
                ok,
                retries,
                latency_us,
                timeouts,
                ..
            } => {
                reg.inc("churn.lookups");
                if !*ok {
                    reg.inc("churn.failed");
                }
                reg.add("churn.timeouts", *timeouts as u64);
                reg.observe("churn.retries", *retries as u64);
                reg.observe("churn.latency_us", *latency_us);
            }
            TraceEvent::WireSpan { dur_us, ok, .. } => {
                reg.inc("wire.spans");
                if !*ok {
                    reg.inc("wire.spans_failed");
                }
                reg.observe("wire.span_dur_us", *dur_us);
            }
            TraceEvent::Span { dur_us, .. } => reg.observe("span.dur_us", *dur_us),
        }
    }
    for tier in ["lookup", "block"] {
        let hit = reg.counter(&format!("cache.{tier}.hit"));
        let miss = reg.counter(&format!("cache.{tier}.miss"));
        let stale = reg.counter(&format!("cache.{tier}.stale"));
        let total = hit + miss + stale;
        if total > 0 {
            reg.set_gauge(&format!("cache.{tier}.hit_rate"), hit as f64 / total as f64);
        }
    }
    reg
}

/// Renders the percentile summary: one distribution table (count, mean,
/// p50/p90/p99, max per histogram) followed by the counter/rate lines.
pub fn render_summary(events: &[TraceEvent]) -> String {
    let reg = registry_from_events(events);
    let mut rows = Vec::new();
    for (name, h) in reg.histograms() {
        let s = h.snapshot();
        rows.push(vec![
            name.to_string(),
            s.count.to_string(),
            fmt(h.mean()),
            s.p50.to_string(),
            s.p90.to_string(),
            s.p99.to_string(),
            s.max.to_string(),
        ]);
    }
    let mut out = render_table(
        "Trace summary: distributions",
        &["metric", "count", "mean", "p50", "p90", "p99", "max"],
        &rows,
    );
    out.push('\n');
    for tier in ["lookup", "block"] {
        if let Some(rate) = reg.gauge(&format!("cache.{tier}.hit_rate")) {
            out.push_str(&format!("{tier}-cache hit rate: {:.1}%\n", rate * 100.0));
        }
    }
    let migrated: u64 = ["balance", "repair", "pointer_resolve"]
        .iter()
        .map(|k| reg.counter(&format!("migration.{k}.bytes")))
        .sum();
    if migrated > 0 {
        out.push_str(&format!(
            "bytes migrated: {migrated} (balance {}, repair {}, pointer_resolve {})\n",
            reg.counter("migration.balance.bytes"),
            reg.counter("migration.repair.bytes"),
            reg.counter("migration.pointer_resolve.bytes"),
        ));
    }
    if reg.counter("balance.moves") > 0 {
        out.push_str(&format!(
            "balance moves: {}\n",
            reg.counter("balance.moves")
        ));
    }
    out.push_str(&format!("events: {}\n", events.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2_obs::{CacheTier, MigrationKind};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Mark {
                t_us: 0,
                label: "cell".into(),
            },
            TraceEvent::Route {
                t_us: 1,
                user: 0,
                key: 1,
                from: 0,
                owner: 2,
                hops: 3,
                messages: 4,
                path: vec![0, 1, 2],
            },
            TraceEvent::CacheProbe {
                t_us: 2,
                user: 0,
                tier: CacheTier::Lookup,
                result: CacheResult::Hit,
                key: 1,
            },
            TraceEvent::CacheProbe {
                t_us: 2,
                user: 0,
                tier: CacheTier::Lookup,
                result: CacheResult::Miss,
                key: 2,
            },
            TraceEvent::CacheProbe {
                t_us: 2,
                user: 0,
                tier: CacheTier::Lookup,
                result: CacheResult::Stale,
                key: 3,
            },
            TraceEvent::Fetch {
                t_us: 3,
                user: 0,
                key: 1,
                result: CacheResult::Miss,
                lookup_us: 500,
                hop_us: vec![250, 250],
                transfer_us: 1500,
                total_us: 2000,
                server: 2,
                len: 8192,
            },
            TraceEvent::Fetch {
                t_us: 4,
                user: 0,
                key: 2,
                result: CacheResult::Hit,
                lookup_us: 0,
                hop_us: vec![],
                transfer_us: 1000,
                total_us: 1000,
                server: 2,
                len: 8192,
            },
            TraceEvent::Migration {
                t_us: 5,
                kind: MigrationKind::Balance,
                src: 1,
                dst: 2,
                key: 9,
                bytes: 4096,
            },
            TraceEvent::BalanceMove {
                t_us: 6,
                mover: 3,
                heavy: 1,
            },
            TraceEvent::Span {
                t_us: 7,
                name: "group".into(),
                user: 0,
                dur_us: 2500,
                items: 2,
            },
            TraceEvent::ChurnLookup {
                t_us: 8,
                from: 0,
                key: 4,
                ok: true,
                hops: 5,
                retries: 2,
                timeouts: 2,
                latency_us: 1_200_000,
            },
            TraceEvent::ChurnLookup {
                t_us: 9,
                from: 1,
                key: 5,
                ok: false,
                hops: 0,
                retries: 8,
                timeouts: 9,
                latency_us: 4_000_000,
            },
        ]
    }

    #[test]
    fn registry_aggregates_all_event_kinds() {
        let reg = registry_from_events(&sample_events());
        assert_eq!(reg.counter("marks"), 1);
        assert_eq!(reg.histogram("lookup.hops").unwrap().max(), 3);
        assert_eq!(reg.counter("cache.lookup.hit"), 1);
        assert_eq!(reg.counter("cache.lookup.miss"), 1);
        assert_eq!(reg.counter("cache.lookup.stale"), 1);
        assert_eq!(reg.counter("fetch.count"), 2);
        assert_eq!(reg.counter("fetch.bytes"), 16_384);
        // Cached fetches don't pollute the lookup-latency distribution.
        assert_eq!(reg.histogram("lookup.latency_us").unwrap().count(), 1);
        assert_eq!(reg.histogram("fetch.total_us").unwrap().count(), 2);
        assert_eq!(reg.counter("migration.balance.bytes"), 4096);
        assert_eq!(reg.counter("balance.moves"), 1);
        let rate = reg.gauge("cache.lookup.hit_rate").unwrap();
        assert!((rate - 1.0 / 3.0).abs() < 1e-9);
        assert!(reg.gauge("cache.block.hit_rate").is_none());
        assert_eq!(reg.counter("churn.lookups"), 2);
        assert_eq!(reg.counter("churn.failed"), 1);
        assert_eq!(reg.counter("churn.timeouts"), 11);
        assert_eq!(reg.histogram("churn.retries").unwrap().max(), 8);
        assert_eq!(reg.histogram("churn.latency_us").unwrap().count(), 2);
    }

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let s = render_summary(&sample_events());
        assert!(s.contains("lookup.hops"));
        assert!(s.contains("fetch.total_us"));
        assert!(s.contains("lookup-cache hit rate: 33.3%"));
        assert!(s.contains("bytes migrated: 4096"));
        assert!(s.contains("balance moves: 1"));
        assert!(s.contains("events: 12"));
    }

    #[test]
    fn summary_of_empty_trace_is_still_renderable() {
        let s = render_summary(&[]);
        assert!(s.contains("events: 0"));
        assert!(!s.contains("hit rate"));
    }
}
