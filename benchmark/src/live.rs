//! The three live workloads: real `d2-node` processes over loopback
//! TCP, driven by one closed-loop client.
//!
//! D2's callers are file-system clients that wait for a task's blocks
//! (§9.3: *Seq* = dependent accesses, *Para* = at most 15 parallel
//! transfers), so the load model is a closed loop with one client: one
//! load thread, one `TcpTransport`. Window 1 is Seq, window 15 is Para.
//! The box has two cores; more client threads would only measure the
//! scheduler.

use crate::gen::{self, OpStream, SplitMix, TreeShape};
use crate::probes;
use crate::procs::{self, Nodes};
use crate::spans::{SpanLog, NO_PARENT};
use crate::stats::{median, quantile, Report};
use d2_net::{check_ring, ClusterOps, Deployment, NodeStatus, PipelineConfig};
use d2_obs::{Histogram, Registry, TraceCtx};
use d2_ring::messages::Addr;
use d2_types::{BlockName, Key};
use d2_wire::client::WireClient;
use d2_wire::codec::{Request, Response};
use d2_wire::metrics::NetMetrics;
use d2_wire::tcp::{pack_addr, TcpConfig, TcpTransport};
use d2_wire::transport::Transport;
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cap on one set-up (spawn → ring clean → preload done).
const SETUP_CAP: Duration = Duration::from_secs(30);
/// Per-request timeout; a timed-out op counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(5);
/// One op in this many is also issued serially under a trace id.
const TRACE_EVERY: usize = 64;
/// §9.3's Para: at most 15 parallel transfers.
const PARA_WINDOW: usize = 15;

/// What distinguishes the three live workloads.
#[derive(Clone, Copy)]
enum Kind {
    /// `ring3_*`: a Zipf put/get stream over hashed keys.
    Stream { window: usize, put_share: f64 },
    /// `many64_tasks`: directory tasks under both key encodings.
    Tasks,
}

impl Kind {
    /// The quantile over a window's op-groups that its latency and
    /// throughput are read at, or `None` for the median over pooled ops.
    ///
    /// At window 15 an op is a chain of hand-offs between eight threads
    /// on two shared cores, so whenever the host takes a core away the
    /// op-groups in flight slow down together, for seconds at a time and
    /// always in the same direction: the pooled median then tracks how
    /// much of the run was disturbed (18 % between runs under bursty
    /// load, see README). The better quartile of the groups is what the
    /// program does when it has the cores, as long as a quarter of the
    /// run is left alone. At window 1 the op waits on 10 ms back-off
    /// timers, a busy core barely moves it, the luck of the timer phases
    /// goes both ways and a group is only eight ops: the pooled median is
    /// the steadier figure there.
    fn group_quartile(self) -> Option<f64> {
        match self {
            Kind::Stream { window: 1, .. } => None,
            _ => Some(0.25),
        }
    }
}

/// A key space with the value every key must hold.
pub struct Dataset {
    /// The keys, in generation order.
    pub keys: Vec<Key>,
    /// `values[i]` is what `keys[i]` stores.
    pub values: Vec<Vec<u8>>,
}

impl Dataset {
    fn from_keys(keys: Vec<Key>, len_of: impl Fn(usize) -> usize) -> Dataset {
        let values = keys
            .iter()
            .enumerate()
            .map(|(i, k)| gen::value_for(k, len_of(i)))
            .collect();
        Dataset { keys, values }
    }

    fn items(&self) -> Vec<(Key, Vec<u8>)> {
        self.keys
            .iter()
            .copied()
            .zip(self.values.iter().cloned())
            .collect()
    }
}

/// A booted, checked and preloaded cluster with its one client.
struct Cluster {
    // Field order is drop order: the client goes before the nodes.
    ops: ClusterOps<TcpTransport>,
    metrics: Arc<NetMetrics>,
    statuses: Vec<NodeStatus>,
    replicas: usize,
    nodes: Nodes,
}

fn open_client(entry: Addr) -> Result<(ClusterOps<TcpTransport>, Arc<NetMetrics>), String> {
    let metrics = Arc::new(NetMetrics::new());
    let transport = TcpTransport::bind(
        Ipv4Addr::LOCALHOST,
        0,
        TcpConfig::default(),
        Arc::clone(&metrics),
    )
    .map_err(|e| format!("bind client socket: {e}"))?;
    let client = WireClient::new(transport, Arc::clone(&metrics));
    Ok((ClusterOps::new(client, vec![entry]), metrics))
}

/// Spawns the workload's topology, waits until `check_ring` is clean
/// over all `expect` members, and preloads `datasets`.
fn set_up(kind: Kind, dir: &Path, datasets: &[&Dataset]) -> Result<Cluster, String> {
    let deadline = Instant::now() + SETUP_CAP;
    let (nodes, expect, replicas) = match kind {
        Kind::Stream { .. } => (Nodes::ring3(dir, deadline), 3, 2),
        Kind::Tasks => (Nodes::many(dir, 64, deadline), 64, 3),
    };
    let nodes = nodes.map_err(|e| format!("spawn nodes: {e}"))?;
    let (ops, metrics) = open_client(pack_addr(nodes.entry))?;
    let statuses = loop {
        let members = ops.discover();
        let statuses: Vec<NodeStatus> = members.iter().filter_map(|&a| ops.status_of(a)).collect();
        if statuses.len() == expect && check_ring(&statuses).ok() {
            ops.set_entries(members);
            break statuses;
        }
        if Instant::now() >= deadline {
            let report = check_ring(&statuses);
            return Err(format!(
                "ring never reached a check-clean state: {} of {expect} nodes, violations {:?}",
                statuses.len(),
                report.violations
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let cfg = PipelineConfig {
        window: 32,
        op_timeout: OP_TIMEOUT,
    };
    for data in datasets {
        let bad = ops
            .put_many(data.items(), replicas, cfg)
            .iter()
            .filter(|o| !matches!(o.result, Ok(n) if n >= replicas))
            .count();
        if bad > 0 {
            return Err(format!("{bad} of {} preload puts failed", data.keys.len()));
        }
    }
    if Instant::now() >= deadline {
        return Err("set-up exceeded its 30 s cap".to_string());
    }
    Ok(Cluster {
        ops,
        metrics,
        statuses,
        replicas,
        nodes,
    })
}

/// Raw samples of one measured window.
#[derive(Default)]
struct Samples {
    op_us: Vec<f64>,
    get_us: Vec<f64>,
    put_us: Vec<f64>,
    task_d2_us: Vec<f64>,
    task_hashed_us: Vec<f64>,
    serial_lookup_us: Vec<f64>,
    serial_data_us: Vec<f64>,
    traced_ids: Vec<u64>,
    /// `(duration_s, ops)` of every op-group.
    groups: Vec<(f64, u64)>,
    /// Median op latency within each op-group.
    group_p50_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    elapsed_s: f64,
}

impl Samples {
    /// Throughput of one op-group, its ops over its duration: of the
    /// median group, or of the group at the better quartile (see
    /// [`Kind::group_quartile`]). Never a mean: 1 % of ops take ten
    /// times the median and a group waits for its slowest op, so a mean
    /// follows the tail's luck; the tail is reported by `client.*`.
    fn ops_per_s(&self, kind: Kind) -> f64 {
        let mut rates: Vec<f64> = self
            .groups
            .iter()
            .map(|&(dur, n)| n as f64 / dur.max(1e-9))
            .collect();
        quantile(&mut rates, 1.0 - kind.group_quartile().unwrap_or(0.5))
    }

    /// Latency of one block op: the median over all ops, or the median
    /// op of the group at the better quartile.
    fn op_p50_us(&mut self, kind: Kind) -> f64 {
        match kind.group_quartile() {
            Some(q) => quantile(&mut self.group_p50_us, q),
            None => median(&mut self.op_us),
        }
    }

    /// Pools another window's samples into this one.
    fn absorb(&mut self, other: Samples) {
        self.groups.extend(other.groups);
        self.group_p50_us.extend(other.group_p50_us);
        self.op_us.extend(other.op_us);
        self.get_us.extend(other.get_us);
        self.put_us.extend(other.put_us);
        self.task_d2_us.extend(other.task_d2_us);
        self.task_hashed_us.extend(other.task_hashed_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed_s += other.elapsed_s;
    }

    /// Seconds spent in op-groups that took longer than one second: a
    /// dropped lookup waits out its 5 s timeout before the client
    /// retries, which no failure count shows.
    fn stall_s(&self) -> f64 {
        self.groups
            .iter()
            .map(|g| g.0)
            .filter(|d| *d > 1.0)
            .fold(0.0, |a, d| a + d)
    }
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1000.0
}

/// The load loop's state: client, data, generators, span log.
struct Driver<'a, T: Transport> {
    ops: &'a ClusterOps<T>,
    replicas: usize,
    kind: Kind,
    data: &'a [Dataset],
    stream: OpStream,
    rng: SplitMix,
    log: &'a mut SpanLog,
    /// Ops issued since the last serially traced one.
    since_traced: usize,
    group_no: u64,
}

impl<T: Transport> Driver<'_, T> {
    fn cfg(&self, window: usize) -> PipelineConfig {
        PipelineConfig {
            window,
            op_timeout: OP_TIMEOUT,
        }
    }

    /// Runs the closed loop for `dur`, recording into `rec`.
    fn run_for(&mut self, dur: Duration, rec: &mut Samples) {
        let t0 = Instant::now();
        while t0.elapsed() < dur {
            let (began, ops_before, samples_before) =
                (Instant::now(), rec.attempted, rec.op_us.len());
            match self.kind {
                Kind::Stream { window, .. } => self.stream_group(window, rec),
                Kind::Tasks => self.task_pair(rec),
            }
            let group = (began.elapsed().as_secs_f64(), rec.attempted - ops_before);
            rec.groups.push(group);
            let mut of_group = rec.op_us[samples_before..].to_vec();
            rec.group_p50_us.push(median(&mut of_group));
            self.group_no += 1;
        }
        rec.elapsed_s += t0.elapsed().as_secs_f64();
    }

    /// Runs the loop for `dur` and discards the samples.
    fn warm_up(&mut self, dur: Duration) {
        self.run_for(dur, &mut Samples::default());
    }

    /// One op-group of a `ring3_*` workload: `window × 8` sampled ops,
    /// split by type as `d2-load` does (the batch API is homogeneous),
    /// both batches back to back. Deeper than the window so the
    /// pipeline spends its time full, not draining at group boundaries.
    fn stream_group(&mut self, window: usize, rec: &mut Samples) {
        let data = &self.data[0];
        let (mut puts, mut gets, mut get_idx) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..window * 8 {
            let op = self.stream.next_op();
            if op.put {
                puts.push((data.keys[op.key], data.values[op.key].clone()));
            } else {
                gets.push(data.keys[op.key]);
                get_idx.push(op.key);
            }
        }
        let cfg = self.cfg(window);
        let (ops, replicas) = (self.ops, self.replicas);
        let root = self.log.begin("op_group", NO_PARENT, self.group_no);
        let n_puts = puts.len();
        let outs = self
            .log
            .within("client.batch.put", root, self.group_no, || {
                ops.put_many(puts, replicas, cfg)
            });
        for o in outs {
            let l = us(o.latency);
            rec.op_us.push(l);
            rec.put_us.push(l);
            if !matches!(o.result, Ok(n) if n >= replicas) {
                rec.failed += 1;
            }
        }
        let outs = self
            .log
            .within("client.batch.get", root, self.group_no, || {
                ops.get_many(&gets, cfg)
            });
        for (o, &idx) in outs.iter().zip(&get_idx) {
            let l = us(o.latency);
            rec.op_us.push(l);
            rec.get_us.push(l);
            if o.result.as_ref().ok() != Some(&data.values[idx]) {
                rec.failed += 1;
            }
        }
        self.log.end(root);
        rec.attempted += (n_puts + gets.len()) as u64;
        if let Some(&idx) = get_idx.first() {
            self.maybe_serial_traced(n_puts + gets.len(), idx, rec);
        }
    }

    /// One sampled directory task, once per key encoding, back to back,
    /// the order alternating so neither side always runs on a warm path.
    fn task_pair(&mut self, rec: &mut Samples) {
        let per_task = TASK_BLOCKS;
        let t = self.rng.below(self.data[0].keys.len() / per_task);
        let order = if self.group_no.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        let mut lat = [0.0f64; 2];
        for enc in order {
            let data = &self.data[enc];
            let range = t * per_task..(t + 1) * per_task;
            let keys = &data.keys[range.clone()];
            let cfg = self.cfg(PARA_WINDOW);
            let ops = self.ops;
            let task_id = self.group_no * 2 + enc as u64;
            let root = self.log.begin("task", NO_PARENT, task_id);
            let t0 = Instant::now();
            let outs = self.log.within("client.batch.get", root, task_id, || {
                ops.get_many(keys, cfg)
            });
            lat[enc] = us(t0.elapsed());
            self.log.end(root);
            for (o, want) in outs.iter().zip(&data.values[range]) {
                let l = us(o.latency);
                rec.op_us.push(l);
                rec.get_us.push(l);
                if o.result.as_ref().ok() != Some(want) {
                    rec.failed += 1;
                }
            }
            rec.attempted += per_task as u64;
        }
        rec.task_d2_us.push(lat[0]);
        rec.task_hashed_us.push(lat[1]);
        self.maybe_serial_traced(2 * per_task, t * per_task, rec);
    }

    /// In a traced window, after every [`TRACE_EVERY`] ops, issues one
    /// extra get (key `idx` of the first dataset) serially under a fresh
    /// trace id: `client.lookup` (`lookup_traced`) then `client.data`
    /// (`call_traced`). The nodes record flight-recorder spans under
    /// the same id.
    fn maybe_serial_traced(&mut self, issued: usize, idx: usize, rec: &mut Samples) {
        if !self.log.enabled() {
            return;
        }
        self.since_traced += issued;
        while self.since_traced >= TRACE_EVERY {
            self.since_traced -= TRACE_EVERY;
            let data = &self.data[0];
            let key = data.keys[idx];
            let ops = self.ops;
            let id = ops.fresh_trace_id();
            let ctx = TraceCtx::root(id);
            let root = self.log.begin("op", NO_PARENT, id);
            let t0 = Instant::now();
            let owner = self
                .log
                .within("client.lookup", root, id, || ops.lookup_traced(key, ctx));
            let t1 = Instant::now();
            let got = owner.ok().and_then(|o| {
                self.log.within("client.data", root, id, || {
                    ops.client()
                        .call_traced(o.addr, Request::Get { key }, OP_TIMEOUT, ctx)
                        .ok()
                })
            });
            let t2 = Instant::now();
            self.log.end(root);
            rec.attempted += 1;
            match got {
                Some(Response::Block { data: Some(bytes) }) if bytes == data.values[idx] => {
                    rec.serial_lookup_us.push(us(t1 - t0));
                    rec.serial_data_us.push(us(t2 - t1));
                    rec.traced_ids.push(id);
                }
                _ => rec.failed += 1,
            }
        }
    }
}

/// Blocks per directory task in `many64_tasks`: 4 files × (1 inode +
/// 3 data blocks).
const TASK_BLOCKS: usize = 16;

/// The workload's kind, its block names, and one [`Dataset`] per key
/// encoding it uses.
fn inputs_for(workload: &str, seed: u64, smoke: bool) -> (Kind, Vec<BlockName>, Vec<Dataset>) {
    if workload == "many64_tasks" {
        let shape = TreeShape {
            volumes: if smoke { 4 } else { 32 },
            dirs: 4,
            files: TASK_BLOCKS / 4,
            data_blocks: 3,
        };
        let names: Vec<BlockName> = gen::task_tree(seed, shape).into_iter().flatten().collect();
        let len_of = |i: usize| gen::block_len(names[i].block_no);
        let d2 = Dataset::from_keys(names.iter().map(|n| n.d2_key()).collect(), len_of);
        let hashed =
            Dataset::from_keys(names.iter().map(|n| n.traditional_key()).collect(), len_of);
        return (Kind::Tasks, names, vec![d2, hashed]);
    }
    // Every node re-puts all it owns to its successor each repair round
    // (1.28 s). With 4096 × 8 KiB stored that alone overflows the 8 MiB
    // per-peer send queue, frames are dropped and clients wait out 5 s
    // timeouts; 1024 blocks keep the ring in its stable regime.
    let (window, value_len, put_share, side) = if workload == "ring3_seq_small" {
        (1, 256, 0.1, 64)
    } else {
        (PARA_WINDOW, d2_types::BLOCK_SIZE, 0.5, 32)
    };
    let side = if smoke { 8 } else { side };
    let names = gen::flat_names(seed, side, side);
    let keys = names.iter().map(|n| n.traditional_key()).collect();
    let kind = Kind::Stream { window, put_share };
    (kind, names, vec![Dataset::from_keys(keys, |_| value_len)])
}

fn driver_for<'a, T: Transport>(
    ops: &'a ClusterOps<T>,
    replicas: usize,
    kind: Kind,
    data: &'a [Dataset],
    seed: u64,
    instance: u64,
    log: &'a mut SpanLog,
) -> Driver<'a, T> {
    let put_share = match kind {
        Kind::Stream { put_share, .. } => put_share,
        Kind::Tasks => 0.0,
    };
    Driver {
        ops,
        replicas,
        kind,
        data,
        // Each cluster instance of a run continues with ops of its own.
        stream: OpStream::new(seed, instance, data[0].keys.len(), 0.8, put_share),
        rng: SplitMix::new(seed, 2 + 2 * instance),
        log,
        since_traced: 0,
        group_no: 0,
    }
}

/// Counter and histogram state of client and nodes at one instant.
struct Snapshot {
    client: Registry,
    nodes: Registry,
    node_cpu_ms: f64,
    client_cpu_ms: f64,
    at: Instant,
}

fn snapshot(cluster: &Cluster) -> Snapshot {
    let mut nodes = cluster.ops.scrape_all().merged;
    // `serve-many` nodes share one transport sheet that no node folds
    // into its dump; the process writes it to `--obs-out`.
    if let Some(reg) = probes::fresh_obs_counters(&cluster.nodes.obs_path()) {
        nodes.merge(&reg);
    }
    Snapshot {
        client: cluster.metrics.snapshot(),
        nodes,
        node_cpu_ms: cluster.nodes.cpu_ms(),
        client_cpu_ms: procs::cpu_ms(std::process::id()),
        at: Instant::now(),
    }
}

/// `after − before` of a cumulative histogram.
fn hist_delta(after: Option<&Histogram>, before: Option<&Histogram>) -> Histogram {
    let Some(a) = after else {
        return Histogram::new();
    };
    let Some(b) = before else {
        return a.clone();
    };
    let buckets: Vec<u64> = a
        .buckets()
        .iter()
        .enumerate()
        .map(|(i, &n)| n.saturating_sub(b.buckets().get(i).copied().unwrap_or(0)))
        .collect();
    Histogram::from_parts(
        a.count().saturating_sub(b.count()),
        a.sum().saturating_sub(b.sum()),
        a.min(),
        a.max(),
        buckets,
    )
    .unwrap_or_default()
}

fn counter_delta(after: &Registry, before: &Registry, name: &str) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}

/// Sum of the deltas of every counter whose name starts with `prefix`.
fn prefix_delta(after: &Registry, before: &Registry, prefix: &str) -> f64 {
    after
        .counters()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(k, v)| v.saturating_sub(before.counter(k)) as f64)
        .sum()
}

/// Cluster instances an untraced run measures on. The pollers' timer
/// phases, port numbers and scheduler placement are fixed for the life
/// of a cluster and move its latencies by ±10 %, so a run spreads its
/// window evenly over several fresh clusters and pools their samples;
/// that takes the luck of one cluster out of the run-to-run spread and
/// gives `setup_s` its samples. As many instances as the set-up cost
/// allows: three `d2-node serve` processes boot in half a second,
/// `serve-many --nodes 64` takes seven.
fn instances_of(kind: Kind) -> usize {
    match kind {
        Kind::Stream { .. } => 8,
        Kind::Tasks => 3,
    }
}

/// Warm-up before a measured window of `window_s` seconds.
fn warm_up_s(window_s: f64, smoke: bool) -> f64 {
    if smoke {
        0.2
    } else {
        (window_s * 0.15).min(3.0)
    }
}

/// Latency summaries of one window's samples that every live run
/// reports: tails and per-type medians, and for the task workload the
/// paper's paired comparison.
fn client_metrics(kind: Kind, s: &mut Samples, report: &mut Report) {
    if let Kind::Tasks = kind {
        // §9.3's formula: geometric mean over paired tasks of the
        // hashed/locality latency ratio.
        let ratios: Vec<f64> = s
            .task_d2_us
            .iter()
            .zip(&s.task_hashed_us)
            .map(|(d2, h)| h / d2)
            .collect();
        let n = ratios.len();
        report.set_n("live_speedup", d2_sim::geometric_mean(&ratios), n);
        report.set_n("client.task_d2_p90_us", quantile(&mut s.task_d2_us, 0.9), n);
        report.set_n(
            "client.task_hashed_p90_us",
            quantile(&mut s.task_hashed_us, 0.9),
            n,
        );
        report.set_n("task_d2_p50_us", median(&mut s.task_d2_us), n);
        report.set_n("task_hashed_p50_us", median(&mut s.task_hashed_us), n);
    }
    let n = s.op_us.len();
    report.set_n("client.op_p90_us", quantile(&mut s.op_us, 0.9), n);
    report.set_n("client.op_p99_us", quantile(&mut s.op_us, 0.99), n);
    report.set_n("client.get_p50_us", median(&mut s.get_us), s.get_us.len());
    report.set_n("client.put_p50_us", median(&mut s.put_us), s.put_us.len());
    report.set("client.stall_s", s.stall_s());
    // Sustained throughput, tail and stalls included.
    report.set_n(
        "client.mean_ops_per_s",
        s.attempted as f64 / s.elapsed_s.max(1e-9),
        s.attempted as usize,
    );
}

/// Runs a live workload once. `trace` selects the traced run.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Report, String> {
    let dir = procs::run_dir(workload).map_err(|e| format!("run dir: {e}"))?;
    if trace {
        run_traced(workload, &dir, seed, seconds, smoke)
    } else {
        run_untraced(workload, &dir, seed, seconds, smoke)
    }
}

/// The untraced run: `seconds` of measured load, split evenly over
/// [`instances_of`] fresh clusters. Throughput and latency summarise
/// the pooled samples (see [`Kind::group_quartile`]); memory and set-up
/// time are medians over the instances.
fn run_untraced(
    workload: &str,
    dir: &Path,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<Report, String> {
    let (kind, _, data) = inputs_for(workload, seed, smoke);
    let refs: Vec<&Dataset> = data.iter().collect();
    let mut report = Report::default();
    let mut log = SpanLog::new(0);
    let instances = if smoke { 1 } else { instances_of(kind) };
    let window_s = seconds / instances as f64;
    let (mut setup_s, mut rss) = (Vec::new(), Vec::new());
    let mut pooled = Samples::default();
    for i in 0..instances {
        let t0 = Instant::now();
        let cluster = set_up(kind, dir, &refs)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let mut driver = driver_for(
            &cluster.ops,
            cluster.replicas,
            kind,
            &data,
            seed,
            i as u64,
            &mut log,
        );
        driver.warm_up(Duration::from_secs_f64(warm_up_s(window_s, smoke)));
        let mut s = Samples::default();
        driver.run_for(Duration::from_secs_f64(window_s), &mut s);
        rss.push(cluster.nodes.rss_peak_mb());
        pooled.absorb(s);
    }
    report.attempted = pooled.attempted;
    report.failed = pooled.failed;
    report.set_n("ops_per_s", pooled.ops_per_s(kind), pooled.groups.len());
    report.set_n("op_p50_us", pooled.op_p50_us(kind), pooled.op_us.len());
    report.set_n("rss_peak_mb", median(&mut rss), instances);
    report.set_n("setup_s", median(&mut setup_s), instances);
    // Reported by every run but gated by none: tails, and figures only
    // one workload has.
    client_metrics(kind, &mut pooled, &mut report);
    Ok(report)
}

/// The traced run, on one cluster: half the window untraced, half with
/// harness spans and serially traced ops, then the layer probes. The
/// difference between the halves is the tracing overhead.
fn run_traced(
    workload: &str,
    dir: &Path,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<Report, String> {
    let (kind, names, data) = inputs_for(workload, seed, smoke);
    let refs: Vec<&Dataset> = data.iter().collect();
    let mut report = Report::default();
    let mut log = SpanLog::new(1 << 18);

    // The transport floor is probed against a lone idle node, before
    // the cluster exists, so the two never compete for the cores.
    log.set_enabled(true);
    probes::ping(&dir.join("ping"), &mut log, &mut report)?;
    log.set_enabled(false);

    let cluster = set_up(kind, dir, &refs)?;
    let mut driver = driver_for(
        &cluster.ops,
        cluster.replicas,
        kind,
        &data,
        seed,
        0,
        &mut log,
    );
    driver.warm_up(Duration::from_secs_f64(warm_up_s(seconds / 2.0, smoke)));
    let before = snapshot(&cluster);
    let (mut untraced, mut traced) = (Samples::default(), Samples::default());
    driver.run_for(Duration::from_secs_f64(seconds / 2.0), &mut untraced);
    driver.log.set_enabled(true);
    driver.run_for(Duration::from_secs_f64(seconds / 2.0), &mut traced);
    let after = snapshot(&cluster);

    // Probes count their own calls; ratios below are per window op.
    report.attempted += untraced.attempted + traced.attempted;
    report.failed += untraced.failed + traced.failed;
    let total_ops = (untraced.attempted + traced.attempted) as f64;
    report.set_n("ops_per_s", untraced.ops_per_s(kind), untraced.groups.len());
    let n = untraced.op_us.len();
    report.set_n("op_p50_us", untraced.op_p50_us(kind), n);
    report.set("rss_peak_mb", cluster.nodes.rss_peak_mb());
    client_metrics(kind, &mut untraced, &mut report);
    report.set("client.stall_s", untraced.stall_s() + traced.stall_s());

    // Program spans of the serially traced ops: one scrape of every
    // node's flight recorder, filtered to the ids issued.
    let ids: HashSet<u64> = traced.traced_ids.iter().copied().collect();
    let mut spans = cluster.ops.scrape_all().all_spans();
    spans.retain(|s| ids.contains(&s.trace_id));
    log.attach_program_spans(spans);

    let (c0, c1, n0, n1) = (&before.client, &after.client, &before.nodes, &after.nodes);
    for (metric, hist) in [
        ("wire.rtt_lookup_p50_us", "net.rtt_us.lookup"),
        ("wire.rtt_get_p50_us", "net.rtt_us.get"),
        ("wire.rtt_put_p50_us", "net.rtt_us.put"),
    ] {
        let h = hist_delta(c1.histogram(hist), c0.histogram(hist));
        report.set_n(metric, h.quantile(0.5) as f64, h.count() as usize);
    }
    let both = |name: &str| counter_delta(c1, c0, name) + counter_delta(n1, n0, name);
    report.set("wire.frames_per_op", both("net.msgs") / total_ops);
    report.set("wire.bytes_per_op", both("net.bytes_out") / total_ops);
    report.set(
        "wire.coalesced_frames_per_op",
        both("net.coalesced_frames") / total_ops,
    );
    report.set("wire.reconnects", both("net.reconnects"));
    report.set("wire.orphan_responses", both("net.orphan_responses"));
    report.set(
        "net.loopback_msgs_per_op",
        both("net.loopback_msgs") / total_ops,
    );
    report.set(
        "net.msgs_in_per_op",
        prefix_delta(n1, n0, "node.msgs_in.") / total_ops,
    );
    let mut by_type: Vec<(f64, &str)> = n1
        .counters()
        .filter_map(|(k, v)| {
            Some((
                v.saturating_sub(n0.counter(k)) as f64,
                k.strip_prefix("node.msgs_in.")?,
            ))
        })
        .filter(|(n, _)| *n > 0.0)
        .collect();
    by_type.sort_by(|a, b| b.0.total_cmp(&a.0));
    let parts: Vec<String> = by_type
        .iter()
        .map(|(n, k)| format!("{k} {:.2}", n / total_ops))
        .collect();
    report.notes.push(format!(
        "node messages in per op, by type: {}",
        parts.join(", ")
    ));
    let lookups = hist_delta(
        n1.histogram("node.lookup_us"),
        n0.histogram("node.lookup_us"),
    );
    report.set_n(
        "net.node_lookup_p50_us",
        lookups.quantile(0.5) as f64,
        lookups.count() as usize,
    );
    let hops = hist_delta(
        n1.histogram("node.lookup_hops"),
        n0.histogram("node.lookup_hops"),
    );
    report.set_n("net.lookup_hops_mean", hops.mean(), hops.count() as usize);

    let node_cpu = after.node_cpu_ms - before.node_cpu_ms;
    let client_cpu = after.client_cpu_ms - before.client_cpu_ms;
    report.set("proc.node_cpu_ms_per_kop", node_cpu / total_ops * 1000.0);
    report.set(
        "proc.client_cpu_ms_per_kop",
        client_cpu / total_ops * 1000.0,
    );
    let wall_ms = (after.at - before.at).as_secs_f64() * 1000.0;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    report.set(
        "proc.cpu_busy_share",
        (node_cpu + client_cpu) / (wall_ms * cores),
    );

    report.set_n(
        "trace.untraced_ops_per_s",
        untraced.ops_per_s(kind),
        untraced.groups.len(),
    );
    report.set_n(
        "trace.traced_ops_per_s",
        traced.ops_per_s(kind),
        traced.groups.len(),
    );
    let overhead = (untraced.ops_per_s(kind) - traced.ops_per_s(kind)) / untraced.ops_per_s(kind);
    report.set("trace_overhead_pct", overhead * 100.0);
    report.set("trace.window_s", traced.elapsed_s);
    let n = traced.serial_lookup_us.len();
    report.set_n(
        "client.serial_lookup_p50_us",
        median(&mut traced.serial_lookup_us),
        n,
    );
    report.set_n(
        "client.serial_data_p50_us",
        median(&mut traced.serial_data_us),
        n,
    );

    if let Kind::Tasks = kind {
        probes::task_placement(
            &cluster.ops,
            &cluster.statuses,
            &data,
            TASK_BLOCKS,
            seed,
            &mut log,
            &mut report,
        );
    }

    // The cluster is stopped before the offline probes so they have
    // the cores to themselves.
    drop(cluster);
    probes::offline(&names, &mut log, &mut report);
    if workload == "ring3_seq_small" {
        channel_ring(kind, &data, seed, smoke, &mut log, &mut report);
        attribution_table(&mut report);
    }
    report.set("trace.spans", log.len() as f64);
    report.set("trace.program_spans", log.program_len() as f64);
    let path = dir.join("trace.jsonl");
    log.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.notes.push(format!("span log: {}", path.display()));
    Ok(report)
}

/// `net.channel_op_p50_us`: the `ring3_seq_small` stream against the
/// same three ring positions hosted by `Deployment` over
/// `ChannelTransport` — the same `NodeRuntime`, no sockets and no codec
/// — so `op_p50_us − channel_op_p50_us` is the wire layer's share.
fn channel_ring(
    kind: Kind,
    data: &[Dataset],
    seed: u64,
    smoke: bool,
    log: &mut SpanLog,
    report: &mut Report,
) {
    let ids: Vec<Key> = [0.01, 0.5, 0.8333]
        .iter()
        .map(|&f| Key::from_fraction(f))
        .collect();
    let probe = log.begin("probe.net.channel_ring", NO_PARENT, 0);
    let dep = Deployment::launch_at(&ids, 2);
    dep.wait_stable();
    let cfg = PipelineConfig {
        window: 32,
        op_timeout: OP_TIMEOUT,
    };
    let preload_failed = dep
        .ops()
        .put_many(data[0].items(), 2, cfg)
        .iter()
        .filter(|o| o.result.is_err())
        .count();
    let mut rec = Samples::default();
    {
        // Harness spans of this run would mix with the TCP run's.
        let mut quiet = SpanLog::new(0);
        let mut driver = driver_for(dep.ops(), 2, kind, data, seed, 0, &mut quiet);
        let secs = if smoke { 0.2 } else { 1.5 };
        driver.warm_up(Duration::from_secs_f64(secs / 5.0));
        driver.run_for(Duration::from_secs_f64(secs), &mut rec);
    }
    dep.shutdown();
    log.end(probe);
    report.failed += rec.failed + preload_failed as u64;
    report.attempted += rec.attempted;
    report.set_n(
        "net.channel_op_p50_us",
        median(&mut rec.op_us),
        rec.op_us.len(),
    );
}

/// Where a `ring3_seq_small` op's microseconds went, from the outside
/// in: the op is a lookup round trip then a data round trip; each round
/// trip is codec work, the node runtime's share (what the same op costs
/// over in-process channels, halved) and a remainder that belongs to
/// sockets and the reactor. What the two round trips do not cover is
/// the client's own gap, stated as `unattributed_us` rather than hidden.
fn attribution_table(report: &mut Report) {
    let op = report.get("op_p50_us");
    let (lookup, data) = (
        report.get("wire.rtt_lookup_p50_us"),
        report.get("wire.rtt_get_p50_us"),
    );
    let codec = 2.0 * report.get("wire.codec_ns_small") / 1000.0;
    let runtime = report.get("net.channel_op_p50_us") / 2.0;
    let unattributed = op - lookup - data;
    report.set("client.unattributed_us", unattributed);
    let mut t = String::from("attribution of op_p50_us (ring3_seq_small), microseconds:\n");
    t.push_str(&format!(
        "  op_p50_us         {op:>8.1} = rtt_lookup + rtt_data + unattributed_us\n"
    ));
    for (name, rtt) in [("rtt_lookup", lookup), ("rtt_data  ", data)] {
        t.push_str(&format!(
            "  {name}        {rtt:>8.1} = codec {codec:.1} + runtime (channel_op/2) {runtime:.1} + sockets/reactor {:.1}\n",
            rtt - codec - runtime
        ));
    }
    t.push_str(&format!(
        "  unattributed_us   {unattributed:>8.1} (client sweep and dispatch outside the two round trips)"
    ));
    report.notes.push(t);
}
