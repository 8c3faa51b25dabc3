//! The benchmark's vocabulary: workload names and metric names, units
//! and directions. `BENCHMARK.json` lists the same names; the schema
//! test in `tests/schema.rs` keeps the two in step.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// The four workloads, in the order `repeat --workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "ring3_seq_small",
    "ring3_para_block8k",
    "many64_tasks",
    "sim_harvard32",
];

/// Metrics a user of the system sees; every workload reports each one
/// from the untraced run and none of them can read 0.
pub const END_TO_END: [MetricSpec; 4] = [
    m("ops_per_s", "1/s", Higher),
    m("op_p50_us", "us", Lower),
    m("rss_peak_mb", "MB", Lower),
    m("setup_s", "s", Lower),
];

/// Metrics of single layers, from the traced run. A layer a workload
/// does not exercise reads 0 there (no samples, no work). The first
/// block holds the paper's yardsticks and the per-workload end-to-end
/// figures that cannot be gated because only one workload has them.
pub const PER_LAYER: [MetricSpec; 60] = [
    m("live_speedup", "x", Higher),
    m("paper_speedup_seq", "x", Higher),
    m("paper_speedup_para", "x", Higher),
    m("task_d2_p50_us", "us", Lower),
    m("task_hashed_p50_us", "us", Lower),
    m("fail_share", "share", Lower),
    m("trace_overhead_pct", "%", Lower),
    m("client.op_p90_us", "us", Lower),
    m("client.op_p99_us", "us", Lower),
    m("client.get_p50_us", "us", Lower),
    m("client.put_p50_us", "us", Lower),
    m("client.task_d2_p90_us", "us", Lower),
    m("client.task_hashed_p90_us", "us", Lower),
    m("client.serial_lookup_p50_us", "us", Lower),
    m("client.serial_data_p50_us", "us", Lower),
    m("client.unattributed_us", "us", Lower),
    m("client.stall_s", "s", Lower),
    m("client.mean_ops_per_s", "1/s", Higher),
    m("wire.ping_p50_us", "us", Lower),
    m("wire.rtt_lookup_p50_us", "us", Lower),
    m("wire.rtt_get_p50_us", "us", Lower),
    m("wire.rtt_put_p50_us", "us", Lower),
    m("wire.frames_per_op", "count", Lower),
    m("wire.bytes_per_op", "B", Lower),
    m("wire.coalesced_frames_per_op", "count", Higher),
    m("wire.codec_ns_small", "ns", Lower),
    m("wire.codec_ns_block8k", "ns", Lower),
    m("wire.reconnects", "count", Lower),
    m("wire.orphan_responses", "count", Lower),
    m("net.channel_op_p50_us", "us", Lower),
    m("net.node_lookup_p50_us", "us", Lower),
    m("net.lookup_hops_mean", "count", Lower),
    m("net.msgs_in_per_op", "count", Lower),
    m("net.loopback_msgs_per_op", "count", Lower),
    m("ring.router_lookup_ns", "ns", Lower),
    m("ring.router_hops_mean", "count", Lower),
    m("ring.nodes_per_task_d2", "count", Lower),
    m("ring.nodes_per_task_hashed", "count", Lower),
    m("store.node_store_put_ns_8k", "ns", Lower),
    m("store.node_store_get_ns", "ns", Lower),
    m("store.lookup_cache_probe_ns", "ns", Lower),
    m("store.lookup_cache_hit_rate_d2", "share", Higher),
    m("store.lookup_cache_hit_rate_hashed", "share", Higher),
    m("types.key_of_ns_d2", "ns", Lower),
    m("types.key_of_ns_hashed", "ns", Lower),
    m("core.perfsim_build_s", "s", Lower),
    m("core.perfsim_clone_ms", "ms", Lower),
    m("core.fetch_ns", "ns", Lower),
    m("core.lookup_msgs_per_node_d2", "count", Lower),
    m("core.lookup_msgs_per_node_trad", "count", Lower),
    m("core.cache_miss_rate_d2", "share", Lower),
    m("core.sim_hops_p50", "count", Lower),
    m("proc.node_cpu_ms_per_kop", "ms", Lower),
    m("proc.client_cpu_ms_per_kop", "ms", Lower),
    m("proc.cpu_busy_share", "share", Lower),
    m("trace.spans", "count", Higher),
    m("trace.program_spans", "count", Higher),
    m("trace.traced_ops_per_s", "1/s", Higher),
    m("trace.untraced_ops_per_s", "1/s", Higher),
    m("trace.window_s", "s", Higher),
];

/// Whether `name` is one of the four workloads.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.contains(&name)
}
