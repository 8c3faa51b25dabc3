//! The long-term load-balance / overhead simulation behind Table 4 and
//! Figures 16–17 (paper Section 10), plus the Webcache churn derivation
//! used by Table 3.
//!
//! Node failures are deliberately absent (the paper isolates balancing
//! traffic from regeneration traffic and notes failures did not change
//! the results).

use d2_core::{ClusterConfig, SimCluster, SystemKind};
use d2_obs::{SharedSink, TraceEvent};
use d2_sim::{max_over_mean, SimTime, TimeSeries};
use d2_types::Key;
use d2_workload::{block_len, FileOp, HarvardTrace, TraceKeys, WebTrace};
use serde::{Deserialize, Serialize};

/// The four systems compared in Figures 16–17.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BalanceSystem {
    /// D2: locality keys + Mercury balancing.
    D2,
    /// Traditional DHT: hashed keys, no balancing.
    Traditional,
    /// Traditional-file DHT: per-file hashed placement, no balancing.
    TraditionalFile,
    /// Traditional + Mercury: hashed keys *with* active balancing — the
    /// load-balance upper bound D2 is compared against.
    TraditionalMerc,
}

impl BalanceSystem {
    /// The key encoding in effect.
    pub fn system_kind(&self) -> SystemKind {
        match self {
            BalanceSystem::D2 => SystemKind::D2,
            BalanceSystem::Traditional | BalanceSystem::TraditionalMerc => SystemKind::Traditional,
            BalanceSystem::TraditionalFile => SystemKind::TraditionalFile,
        }
    }

    /// Whether the active balancer runs.
    pub fn balances(&self) -> bool {
        matches!(self, BalanceSystem::D2 | BalanceSystem::TraditionalMerc)
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            BalanceSystem::D2 => "d2",
            BalanceSystem::Traditional => "traditional",
            BalanceSystem::TraditionalFile => "traditional-file",
            BalanceSystem::TraditionalMerc => "traditional+merc",
        }
    }
}

/// One data-churn event.
#[derive(Clone, Debug)]
pub enum ChurnEvent {
    /// Write a block.
    Put(Key, u32),
    /// Remove a block.
    Remove(Key),
}

/// A time-ordered churn stream for one key encoding.
#[derive(Clone, Debug, Default)]
pub struct ChurnStream {
    /// Blocks present at time zero.
    pub initial: Vec<(Key, u32)>,
    /// Timestamped events.
    pub events: Vec<(SimTime, ChurnEvent)>,
    /// Stream length in whole days.
    pub days: usize,
}

/// Derives the churn stream of a Harvard trace under `system`'s encoding
/// (reads are ignored; only creates/overwrites/deletes move data).
pub fn harvard_churn(trace: &HarvardTrace, system: SystemKind) -> ChurnStream {
    let keys = TraceKeys::build(&trace.namespace, system);
    let mut events = Vec::new();
    for a in &trace.accesses {
        match a.op {
            FileOp::Create | FileOp::Write => {
                let blocks = keys.sized(&trace.namespace, a.file);
                events.extend(blocks.map(|(key, len)| (a.at, ChurnEvent::Put(key, len))));
            }
            FileOp::Delete => {
                let blocks = keys.file(a.file).iter();
                events.extend(blocks.map(|&key| (a.at, ChurnEvent::Remove(key))));
            }
            FileOp::Read => {}
        }
    }
    ChurnStream {
        initial: keys.initial(&trace.namespace),
        events,
        days: trace.config.days.ceil() as usize,
    }
}

/// Per-object cached intervals of the Webcache workload: an object is
/// inserted on first access and evicted one day after its *last* access
/// (refresh-on-access, Section 10 footnote 9).
pub fn webcache_intervals(trace: &WebTrace) -> Vec<(u32, Vec<(SimTime, SimTime)>)> {
    let ttl = SimTime::from_secs(trace.config.eviction_secs);
    let horizon = SimTime::from_secs_f64(trace.config.days * 86_400.0);
    let mut per_object: Vec<Vec<SimTime>> = vec![Vec::new(); trace.objects.len()];
    for a in &trace.accesses {
        per_object[a.object as usize].push(a.at);
    }
    let mut out = Vec::new();
    for (obj, times) in per_object.into_iter().enumerate() {
        if times.is_empty() {
            continue;
        }
        let mut intervals: Vec<(SimTime, SimTime)> = Vec::new();
        let mut start = times[0];
        let mut expiry = times[0] + ttl;
        for &t in &times[1..] {
            if t <= expiry {
                expiry = t + ttl;
            } else {
                intervals.push((start, expiry.min(horizon)));
                start = t;
                expiry = t + ttl;
            }
        }
        intervals.push((start, expiry.min(horizon)));
        out.push((obj as u32, intervals));
    }
    out
}

/// Derives the Webcache churn stream under `system`'s encoding.
pub fn webcache_churn(trace: &WebTrace, system: SystemKind) -> ChurnStream {
    let mut events = Vec::new();
    for (obj, intervals) in webcache_intervals(trace) {
        let blocks = trace.blocks_of(obj);
        let size = trace.objects[obj as usize].size;
        for (start, end) in intervals {
            for (i, name) in blocks.iter().enumerate() {
                let len = block_len(size, i as u64);
                events.push((start, ChurnEvent::Put(system.key_of(name), len)));
                events.push((end, ChurnEvent::Remove(system.key_of(name))));
            }
        }
    }
    events.sort_by_key(|e| e.0);
    // The cache starts empty (Section 10: "since the DHT is initially
    // empty, all data is written to a small number of nodes at first").
    ChurnStream {
        initial: Vec::new(),
        events,
        days: trace.config.days.ceil() as usize,
    }
}

/// Results of one balance run.
#[derive(Clone, Debug)]
pub struct BalanceRun {
    /// System measured.
    pub system: BalanceSystem,
    /// Load imbalance (normalized σ of per-node bytes), sampled hourly.
    pub imbalance: TimeSeries,
    /// Max-load / mean-load, sampled hourly.
    pub max_over_mean: TimeSeries,
    /// Bytes written by users, per day.
    pub write_bytes_per_day: Vec<u64>,
    /// Bytes migrated by balancing/pointer resolution, per day.
    pub migration_bytes_per_day: Vec<u64>,
    /// Bytes removed, per day.
    pub removed_bytes_per_day: Vec<u64>,
    /// Stored bytes at the start of each day.
    pub stored_at_day_start: Vec<u64>,
}

/// Replays a churn stream against a cluster, running the balancer (when
/// the system has one) every probe interval and sampling imbalance hourly.
///
/// `warmup` is the stabilization period run *before* the stream starts
/// and before any traffic accounting — the paper balances for 3 simulated
/// days "so that node positions stabilize with respect to the initial key
/// distribution" (Section 8.1).
pub fn run(
    system: BalanceSystem,
    cfg: &ClusterConfig,
    stream: &ChurnStream,
    warmup: SimTime,
) -> BalanceRun {
    run_traced(system, cfg, stream, warmup, &SharedSink::null())
}

/// [`run`] with a trace sink attached to the cluster: migration copies,
/// balance moves, and pointer resolutions appear as [`TraceEvent`]s
/// (including the uncounted warm-up, which the paper's traffic numbers
/// exclude but whose churn is often exactly what a trace is for).
pub fn run_traced(
    system: BalanceSystem,
    cfg: &ClusterConfig,
    stream: &ChurnStream,
    warmup: SimTime,
    sink: &SharedSink,
) -> BalanceRun {
    sink.record_with(|| TraceEvent::Mark {
        t_us: 0,
        label: format!("balance system={}", system.label()),
    });
    let mut cluster = SimCluster::new(system.system_kind(), cfg);
    cluster.set_trace_sink(sink.clone());
    cluster.preload(stream.initial.iter().copied());

    let probe = cfg.probe_interval;
    let hour = SimTime::from_secs(3600);

    // ---- stabilization warm-up (uncounted) --------------------------------
    let mut now = SimTime::ZERO;
    while now < warmup {
        now += probe;
        if system.balances() {
            cluster.run_balance_round(now, system == BalanceSystem::TraditionalMerc);
            cluster.resolve_stale_pointers(now);
        }
    }
    let epoch = now;
    let horizon = epoch + SimTime::from_secs(stream.days as u64 * 86_400);

    let mut imbalance = TimeSeries::new();
    let mut mom = TimeSeries::new();
    let mut write_days = vec![0u64; stream.days];
    let mut mig_days = vec![0u64; stream.days];
    let mut rem_days = vec![0u64; stream.days];
    let mut stored_days = vec![0u64; stream.days];

    let mut next_event = 0usize;
    let mut next_probe = epoch + probe;
    let mut next_sample = epoch;
    let mut last_write = cluster.stats.write_bytes;
    let mut last_mig = cluster.stats.migration_bytes;
    let mut last_rem = cluster.stats.removed_bytes;
    let mut day = 0usize;
    stored_days[0] = cluster.total_load_bytes().iter().sum::<u64>() / cfg.replicas.max(1) as u64;

    while now <= horizon {
        // Next occurrence among: event, probe, sample.
        let t_event = stream
            .events
            .get(next_event)
            .map(|(t, _)| epoch + *t)
            .unwrap_or(SimTime(u64::MAX));
        let t = t_event.min(next_probe).min(next_sample);
        if t > horizon {
            break;
        }
        now = t;
        cluster.now = now;
        if t == t_event {
            match &stream.events[next_event].1 {
                ChurnEvent::Put(key, len) => cluster.put_block(*key, *len, now),
                ChurnEvent::Remove(key) => cluster.remove_block(key, now),
            }
            next_event += 1;
        } else if t == next_probe {
            if system.balances() {
                cluster.run_balance_round(now, system == BalanceSystem::TraditionalMerc);
                cluster.resolve_stale_pointers(now);
            }
            next_probe += probe;
        } else {
            imbalance.push(now.saturating_sub(epoch), cluster.imbalance());
            mom.push(
                now.saturating_sub(epoch),
                max_over_mean(&cluster.total_load_bytes()),
            );
            next_sample += hour;
            // Roll day counters (day index in stream time).
            let d = (now.saturating_sub(epoch).as_secs() / 86_400) as usize;
            if d != day && day < stream.days {
                write_days[day] = cluster.stats.write_bytes - last_write;
                mig_days[day] = cluster.stats.migration_bytes - last_mig;
                rem_days[day] = cluster.stats.removed_bytes - last_rem;
                last_write = cluster.stats.write_bytes;
                last_mig = cluster.stats.migration_bytes;
                last_rem = cluster.stats.removed_bytes;
                day = d.min(stream.days);
                if day < stream.days {
                    stored_days[day] =
                        cluster.total_load_bytes().iter().sum::<u64>() / cfg.replicas.max(1) as u64;
                }
            }
        }
    }
    // Final partial day.
    if day < stream.days {
        write_days[day] = cluster.stats.write_bytes - last_write;
        mig_days[day] = cluster.stats.migration_bytes - last_mig;
        rem_days[day] = cluster.stats.removed_bytes - last_rem;
    }

    BalanceRun {
        system,
        imbalance,
        max_over_mean: mom,
        write_bytes_per_day: write_days,
        migration_bytes_per_day: mig_days,
        removed_bytes_per_day: rem_days,
        stored_at_day_start: stored_days,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use rand::SeedableRng;

    fn quick_stream(system: SystemKind) -> ChurnStream {
        let trace = HarvardTrace::generate(
            &Scale::Quick.harvard(),
            &mut rand::rngs::StdRng::seed_from_u64(5),
        );
        harvard_churn(&trace, system)
    }

    #[test]
    fn d2_balances_better_than_unbalanced_d2_keys_would() {
        // D2 keys without balancing would be catastrophically imbalanced;
        // with Mercury they stay near the traditional DHT's level.
        let cfg = Scale::Quick.cluster(3);
        let d2 = run(
            BalanceSystem::D2,
            &cfg,
            &quick_stream(SystemKind::D2),
            SimTime::from_secs(6 * 3600),
        );
        let trad = run(
            BalanceSystem::Traditional,
            &cfg,
            &quick_stream(SystemKind::Traditional),
            SimTime::from_secs(6 * 3600),
        );
        assert!(!d2.imbalance.is_empty());
        // Tail imbalance (after convergence) is comparable to traditional.
        let tail = |s: &TimeSeries| {
            let pts = s.points();
            let n = pts.len();
            pts[n.saturating_sub(6)..]
                .iter()
                .map(|(_, v)| v)
                .sum::<f64>()
                / 6f64.min(n as f64)
        };
        let d2_tail = tail(&d2.imbalance);
        let trad_tail = tail(&trad.imbalance);
        assert!(
            d2_tail < trad_tail * 2.5 + 0.5,
            "d2 tail imbalance {d2_tail} vs traditional {trad_tail}"
        );
    }

    #[test]
    fn migration_bounded_by_write_traffic_shape() {
        let cfg = Scale::Quick.cluster(3);
        let d2 = run(
            BalanceSystem::D2,
            &cfg,
            &quick_stream(SystemKind::D2),
            SimTime::from_secs(6 * 3600),
        );
        let writes: u64 = d2.write_bytes_per_day.iter().sum();
        let migs: u64 = d2.migration_bytes_per_day.iter().sum();
        assert!(writes > 0);
        // Table 4 band: migration is a moderate multiple of write traffic
        // (the paper reports ~0.5x for Harvard; allow generous slack at
        // quick scale, where warm-up migration dominates).
        assert!(
            migs < writes * 8,
            "migration {migs} should be within a small multiple of writes {writes}"
        );
    }

    #[test]
    fn traced_run_records_balance_activity() {
        let cfg = Scale::Quick.cluster(3);
        let sink = SharedSink::memory(0);
        let traced = run_traced(
            BalanceSystem::D2,
            &cfg,
            &quick_stream(SystemKind::D2),
            SimTime::from_secs(6 * 3600),
            &sink,
        );
        let events = sink.drain();
        assert!(matches!(&events[0], TraceEvent::Mark { label, .. } if label.contains("d2")));
        let migrations = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Migration { .. }))
            .count();
        assert!(migrations > 0, "a balanced D2 run must migrate data");
        // Tracing must not perturb the simulation.
        let plain = run(
            BalanceSystem::D2,
            &cfg,
            &quick_stream(SystemKind::D2),
            SimTime::from_secs(6 * 3600),
        );
        assert_eq!(
            traced.migration_bytes_per_day,
            plain.migration_bytes_per_day
        );
        assert_eq!(traced.write_bytes_per_day, plain.write_bytes_per_day);
    }

    #[test]
    fn webcache_intervals_cover_accesses() {
        let trace = WebTrace::generate(
            &Scale::Quick.web(),
            &mut rand::rngs::StdRng::seed_from_u64(6),
        );
        let intervals = webcache_intervals(&trace);
        assert!(!intervals.is_empty());
        // Every access time lies inside one of its object's intervals.
        for a in &trace.accesses {
            let ivs = intervals.iter().find(|(o, _)| *o == a.object);
            let Some((_, ivs)) = ivs else {
                panic!("object missing")
            };
            assert!(
                ivs.iter().any(|(s, e)| *s <= a.at && a.at <= *e),
                "access at {} outside cached intervals",
                a.at
            );
        }
        // Intervals are disjoint and ordered per object.
        for (_, ivs) in &intervals {
            for w in ivs.windows(2) {
                assert!(w[0].1 < w[1].0);
            }
        }
    }

    #[test]
    fn webcache_churn_is_balanced_put_remove() {
        let trace = WebTrace::generate(
            &Scale::Quick.web(),
            &mut rand::rngs::StdRng::seed_from_u64(6),
        );
        let stream = webcache_churn(&trace, SystemKind::D2);
        let puts = stream
            .events
            .iter()
            .filter(|(_, e)| matches!(e, ChurnEvent::Put(..)))
            .count();
        let removes = stream
            .events
            .iter()
            .filter(|(_, e)| matches!(e, ChurnEvent::Remove(..)))
            .count();
        assert_eq!(puts, removes, "every insert is eventually evicted");
        assert!(stream.initial.is_empty());
        for w in stream.events.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }
}
