//! The metric registry: named counters, gauges, and log-bucketed
//! histograms with deterministic snapshots.
//!
//! Everything here is plain data keyed by `BTreeMap`, so a snapshot of
//! the same measurements always serializes to the same bytes — the
//! property the CI trace-diffing workflow relies on. Histograms use
//! log-linear buckets (16 sub-buckets per power of two, ≤ 6.25% relative
//! error) like HdrHistogram, which keeps `record` allocation-free after
//! the bucket vector has grown to cover the observed range.

use std::collections::BTreeMap;

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;

/// A log-linear histogram over `u64` values (hop counts, microseconds,
/// bytes).
///
/// # Examples
///
/// ```
/// use d2_obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=100u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 100);
/// assert!(h.quantile(0.5) >= 45 && h.quantile(0.5) <= 55);
/// assert_eq!(h.max(), 100);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) as usize) - SUB;
    ((msb - SUB_BITS) as usize + 1) * SUB + sub
}

/// Largest value mapping to bucket `idx` (the bucket's representative).
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let shift = (idx / SUB - 1) as u32;
    let sub = (idx % SUB) as u128;
    let upper = ((SUB as u128 + sub + 1) << shift) - 1;
    upper.min(u64::MAX as u128) as u64
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of recorded values, up to bucket
    /// resolution. Always within `[self.min(), self.max()]`.
    ///
    /// # Empty-histogram contract
    ///
    /// On an empty histogram every summary accessor returns zero —
    /// `quantile` (any `q`), [`Histogram::min`], [`Histogram::max`],
    /// [`Histogram::mean`] — and [`Histogram::snapshot`] returns an
    /// all-zero [`HistogramSnapshot`]. Callers (the `d2-top`
    /// aggregator, JSON exports) may rely on this instead of guarding
    /// every read with a `count() == 0` check.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one (total count is the sum of
    /// both counts).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The raw bucket counts, lowest bucket first. The last bucket is
    /// always non-zero when the histogram is non-empty (no trailing
    /// zeros), which wire encodings rely on for canonical round trips.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Rebuilds a histogram from its raw parts (the inverse of reading
    /// [`Histogram::count`]/[`Histogram::sum`]/[`Histogram::min`]/
    /// [`Histogram::max`]/[`Histogram::buckets`]), validating the
    /// invariants a hostile or corrupted wire payload could violate:
    /// bucket counts must sum to `count`, the bucket vector must not
    /// exceed the indexable range, and `min`/`max` must be ordered.
    /// Returns `None` when the parts are inconsistent. An empty
    /// histogram (`count == 0`) must carry `sum == 0`, `min == 0`,
    /// `max == 0` and an all-zero bucket vector.
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        mut buckets: Vec<u64>,
    ) -> Option<Histogram> {
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        if buckets.len() > bucket_index(u64::MAX) + 1 {
            return None;
        }
        let mut total = 0u64;
        for &b in &buckets {
            total = total.checked_add(b)?;
        }
        if total != count {
            return None;
        }
        if count == 0 {
            if sum != 0 || min != 0 || max != 0 {
                return None;
            }
            return Some(Histogram::new());
        }
        if min > max {
            return None;
        }
        Some(Histogram {
            count,
            sum,
            min,
            max,
            buckets,
        })
    }

    /// Fixed-quantile summary of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// A point-in-time quantile summary of one histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of values.
    pub sum: u64,
    /// Minimum value.
    pub min: u64,
    /// Maximum value.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// A registry of named counters, gauges, and histograms.
///
/// Names are free-form dotted paths (`"lookup.hops"`); the registry is
/// ordered, so [`Registry::snapshot`] and its JSON form are deterministic
/// for the same set of recordings.
///
/// # Examples
///
/// ```
/// use d2_obs::Registry;
///
/// let mut reg = Registry::new();
/// reg.add("cache.lookup.hit", 9);
/// reg.inc("cache.lookup.miss");
/// reg.observe("lookup.hops", 3);
/// reg.set_gauge("imbalance", 0.25);
/// assert_eq!(reg.counter("cache.lookup.hit"), 9);
/// assert_eq!(reg.snapshot().histograms["lookup.hops"].count, 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `n` to counter `name` (creating it at 0).
    pub fn add(&mut self, name: &str, n: u64) {
        // The runtime bumps static names on every message: look up
        // first, and allocate the key only on its first insert.
        if let Some(c) = self.counters.get_mut(name) {
            *c += n;
        } else {
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = v;
        } else {
            self.gauges.insert(name.to_string(), v);
        }
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `v` into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, v: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(v);
        } else {
            let mut h = Histogram::default();
            h.record(v);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// The histogram `name`, if any value was ever observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merges a pre-built histogram into histogram `name` (creating it
    /// empty first). This is how a histogram decoded off the wire
    /// enters a local registry without replaying its samples.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another registry into this one: counters add, histograms
    /// merge, and gauges take the **maximum** of the two values.
    ///
    /// # Gauge merge semantics
    ///
    /// Gauges deliberately merge by `max`, not last-write-wins: a
    /// cluster scrape merges one registry per node in whatever order
    /// the nodes answered, and the aggregate must not depend on that
    /// order. `max` makes `merge` commutative and associative (up to
    /// snapshot equality) for every metric kind, which the `d2-top`
    /// aggregation relies on and a property test enforces. Per-node
    /// gauge values (block counts, ring positions) remain meaningful
    /// only in the per-node registries; the merged gauge is a "worst
    /// case across the cluster" number. (NaN inputs follow
    /// [`f64::max`]: the non-NaN operand wins.)
    pub fn merge(&mut self, other: &Registry) {
        for (k, &v) in &other.counters {
            self.add(k, v);
        }
        for (k, &v) in &other.gauges {
            self.gauges
                .entry(k.clone())
                .and_modify(|g| *g = g.max(v))
                .or_insert(v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Deterministic point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A serializable snapshot of a [`Registry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Renders the snapshot as one deterministic JSON object (maps are
    /// name-ordered; no whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_map(
            &mut out,
            self.counters.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\"gauges\":{");
        push_map(
            &mut out,
            self.gauges
                .iter()
                .map(|(k, v)| (k, crate::json::fmt_f64(*v))),
        );
        out.push_str("},\"histograms\":{");
        push_map(
            &mut out,
            self.histograms.iter().map(|(k, h)| {
                (
                    k,
                    format!(
                        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                        h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
                    ),
                )
            }),
        );
        out.push_str("}}");
        out
    }
}

fn push_map<'a, I: Iterator<Item = (&'a String, String)>>(out: &mut String, entries: I) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        out.push_str(&crate::json::escape(k));
        out.push_str("\":");
        out.push_str(&v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        // The documented empty-histogram contract: every summary
        // accessor returns 0, for every quantile, and the snapshot is
        // exactly the all-zero snapshot.
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "quantile({q}) on empty");
        }
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        // Merging an empty histogram is a no-op both ways.
        let mut a = Histogram::new();
        a.record(7);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
        let mut e = Histogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn from_parts_round_trips_and_rejects_garbage() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 17, 4096, 123_456_789] {
            h.record(v);
        }
        let rebuilt =
            Histogram::from_parts(h.count(), h.sum(), h.min(), h.max(), h.buckets().to_vec())
                .unwrap();
        assert_eq!(rebuilt, h);
        // Empty round trip.
        assert_eq!(
            Histogram::from_parts(0, 0, 0, 0, vec![]).unwrap(),
            Histogram::new()
        );
        assert_eq!(
            Histogram::from_parts(0, 0, 0, 0, vec![0, 0]).unwrap(),
            Histogram::new(),
            "trailing zeros are canonicalized away"
        );
        // Inconsistent parts are refused.
        assert!(
            Histogram::from_parts(2, 5, 1, 4, vec![1]).is_none(),
            "count mismatch"
        );
        assert!(
            Histogram::from_parts(1, 5, 9, 4, vec![0, 1]).is_none(),
            "min > max"
        );
        assert!(
            Histogram::from_parts(0, 5, 0, 0, vec![]).is_none(),
            "empty with sum"
        );
        assert!(
            Histogram::from_parts(2, 5, 1, 4, vec![1; 100_000]).is_none(),
            "bucket vector beyond indexable range"
        );
        assert!(
            Histogram::from_parts(u64::MAX, 0, 0, 1, vec![u64::MAX, u64::MAX]).is_none(),
            "bucket sum overflow"
        );
    }

    #[test]
    fn gauge_merge_takes_max_in_any_order() {
        let mut a = Registry::new();
        a.set_gauge("g", 1.0);
        let mut b = Registry::new();
        b.set_gauge("g", 3.0);
        b.set_gauge("only_b", -2.5);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.gauge("g"), Some(3.0));
        assert_eq!(ba.gauge("g"), Some(3.0));
        assert_eq!(ab.gauge("only_b"), Some(-2.5));
        assert_eq!(ab.snapshot(), ba.snapshot());
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0usize;
        for v in 0..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= last, "index must not decrease: v={v}");
            assert!(bucket_upper(idx) >= v, "upper bound must cover v={v}");
            last = idx;
        }
        // Extremes.
        assert!(bucket_upper(bucket_index(u64::MAX)) == u64::MAX);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 7, 15] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn quantiles_of_uniform_range() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!((450..=560).contains(&p50), "p50={p50}");
        assert!((850..=1000).contains(&p90), "p90={p90}");
        assert!(p50 <= p90 && p90 <= p99 && p99 <= h.max());
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..50u64 {
            a.record(v);
        }
        for v in 5000..5100u64 {
            b.record(v * 100);
        }
        let (ca, cb) = (a.count(), b.count());
        a.merge(&b);
        assert_eq!(a.count(), ca + cb);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 509_900);
    }

    #[test]
    fn registry_round_trip() {
        let mut reg = Registry::new();
        reg.inc("a");
        reg.add("a", 2);
        reg.set_gauge("g", 1.5);
        reg.observe("h", 10);
        reg.observe("h", 20);
        assert_eq!(reg.counter("a"), 3);
        assert_eq!(reg.gauge("g"), Some(1.5));
        assert_eq!(reg.histogram("h").unwrap().count(), 2);

        let mut other = Registry::new();
        other.add("a", 7);
        other.observe("h", 30);
        reg.merge(&other);
        assert_eq!(reg.counter("a"), 10);
        assert_eq!(reg.histogram("h").unwrap().count(), 3);
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let build = || {
            let mut reg = Registry::new();
            reg.add("z.last", 1);
            reg.add("a.first", 2);
            reg.observe("lat", 100);
            reg.set_gauge("imb", 0.5);
            reg.snapshot().to_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert!(a.find("a.first").unwrap() < a.find("z.last").unwrap());
        assert!(a.starts_with('{') && a.ends_with('}'));
    }
}
