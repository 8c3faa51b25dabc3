//! Rendering for the cluster telemetry plane: the `d2-node top` table.
//!
//! A [`ClusterScrape`] (one [`Request::MetricsDump`] round trip per
//! node) carries everything shown here: per-node registries, the merged
//! cluster registry, and every node's flight-recorder spans. This
//! module only formats — merging happens in [`crate::ops`], so the
//! numbers printed for a live TCP cluster and the ones a simulation
//! run reports come from the same code path.
//!
//! [`Request::MetricsDump`]: d2_wire::codec::Request::MetricsDump

use crate::ops::ClusterScrape;
use d2_obs::SpanRecord;
use d2_ring::messages::Addr;

/// How many slow/failed spans the top view lists.
const NOTABLE_ROWS: usize = 8;

/// Pads each cell so columns line up, left-aligning the first column
/// and right-aligning the rest (numbers).
fn render_rows(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                out.push_str(&format!("{cell:<w$}", w = widths[i]));
            } else {
                out.push_str(&format!("{cell:>w$}", w = widths[i]));
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    fmt_row(&mut out, &header);
    for row in rows {
        fmt_row(&mut out, row);
    }
    out
}

/// Sum of every counter whose name starts with `prefix`.
fn prefixed_sum(reg: &d2_obs::Registry, prefix: &str) -> u64 {
    reg.counters()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

/// Renders the `d2-node top` view: one row per scraped node, the merged
/// cluster distributions, and the slowest / failed recent operations
/// with their trace ids. `fmt_addr` turns transport addresses into
/// something readable (`ip:port` for TCP, the raw index for channels).
///
/// `repair` is `repair.blocks_pushed + repair.blocks_pulled`, what
/// replica repair moved through the node since `prev` (the scrape a
/// watching caller rendered last; since boot without one): zero on an
/// undamaged ring.
///
/// The last two columns are the reactor's. `wakeups` is
/// `net.poller_wakeups`, returns of the poller's `ppoll(2)`: on a node
/// one per burst of requests read plus one per tick round, no flush
/// timer among them; on a client a flush tick's expiry counts too.
/// `flushwait` is the median `net.flush_wait_us`, first enqueue into a
/// peer's queue → the write that carried it: on a node the length of
/// the burst that produced the frame (tens of µs; its host writes when
/// it turns next), on a client the wait for the flush tick (up to
/// `FLUSH_TICK`). A node near a whole tick is ticking again.
pub fn render_top(
    scrape: &ClusterScrape,
    prev: Option<&ClusterScrape>,
    fmt_addr: &dyn Fn(Addr) -> String,
) -> String {
    let mut out = String::new();
    let repaired = |reg: &d2_obs::Registry| {
        reg.counter("repair.blocks_pushed") + reg.counter("repair.blocks_pulled")
    };

    // ---- per-node table -------------------------------------------
    let mut rows: Vec<Vec<String>> = Vec::new();
    for n in &scrape.nodes {
        let reg = &n.registry;
        let pos = reg.gauge("node.ring_position").unwrap_or(0.0);
        let blocks = reg.gauge("node.blocks").unwrap_or(0.0) as u64;
        let msgs_in = prefixed_sum(reg, "node.msgs_in.");
        let net_msgs = reg.counter("net.msgs");
        let reconnects = reg.counter("net.reconnects");
        let (l_p50, l_p99) = match reg.histogram("node.lookup_us") {
            Some(h) => {
                let s = h.snapshot();
                (s.p50, s.p99)
            }
            None => (0, 0),
        };
        let repaired_before = prev
            .and_then(|p| p.nodes.iter().find(|m| m.addr == n.addr))
            .map_or(0, |m| repaired(&m.registry));
        rows.push(vec![
            fmt_addr(n.addr),
            format!("{pos:.4}"),
            blocks.to_string(),
            msgs_in.to_string(),
            net_msgs.to_string(),
            reconnects.to_string(),
            reg.counter("node.lookups").to_string(),
            reg.counter("node.puts").to_string(),
            l_p50.to_string(),
            l_p99.to_string(),
            reg.counter("node.send_failures").to_string(),
            reg.counter("node.not_owner").to_string(),
            reg.counter("net.backlog_drops").to_string(),
            repaired(reg).saturating_sub(repaired_before).to_string(),
            reg.counter("net.poller_wakeups").to_string(),
            reg.histogram("net.flush_wait_us")
                .map_or(0, |h| h.quantile(0.5))
                .to_string(),
        ]);
    }
    out.push_str(&format!(
        "cluster: {} node(s) scraped\n",
        scrape.nodes.len()
    ));
    #[rustfmt::skip] // a row, as it prints
    let header = [
        "node", "pos", "blocks", "msgs_in", "net_msgs", "reconn", "lookups", "puts",
        "lk_p50us", "lk_p99us", "sendfail", "notowner", "backlog", "repair", "wakeups",
        "flushwait",
    ];
    out.push_str(&render_rows(&header, &rows));

    // ---- erasure-coding table (only when any node runs EC) ---------
    let ec_active = scrape.nodes.iter().any(|n| {
        n.registry.gauge("ec.fragments").is_some()
            || n.registry
                .counters()
                .any(|(name, _)| name.starts_with("ec."))
    });
    if ec_active {
        let mut ec_rows: Vec<Vec<String>> = Vec::new();
        for n in &scrape.nodes {
            let reg = &n.registry;
            ec_rows.push(vec![
                fmt_addr(n.addr),
                (reg.gauge("ec.fragments").unwrap_or(0.0) as u64).to_string(),
                (reg.gauge("ec.repair_queue").unwrap_or(0.0) as u64).to_string(),
                reg.counter("ec.decode_fallbacks").to_string(),
                reg.counter("ec.repaired_fragments").to_string(),
                reg.counter("ec.repair_bytes").to_string(),
                reg.counter("ec.repair_throttled_bytes").to_string(),
                reg.counter("ec.repairs_skipped_lazy").to_string(),
                reg.counter("ec.corrupt_fragments").to_string(),
            ]);
        }
        out.push_str("\nerasure coding\n");
        out.push_str(&render_rows(
            &[
                "node",
                "frags",
                "rq",
                "dec_fb",
                "repaired",
                "rep_B",
                "throttled_B",
                "lazy_skip",
                "corrupt",
            ],
            &ec_rows,
        ));
    }

    // ---- merged cluster distributions ------------------------------
    let mut dist_rows: Vec<Vec<String>> = Vec::new();
    for (name, h) in scrape.merged.histograms() {
        let s = h.snapshot();
        dist_rows.push(vec![
            name.to_string(),
            s.count.to_string(),
            format!("{:.1}", h.mean()),
            s.p50.to_string(),
            s.p90.to_string(),
            s.p99.to_string(),
            s.max.to_string(),
        ]);
    }
    if !dist_rows.is_empty() {
        out.push_str("\nmerged distributions\n");
        out.push_str(&render_rows(
            &["metric", "count", "mean", "p50", "p90", "p99", "max"],
            &dist_rows,
        ));
    }

    // ---- slowest / failed recent spans -----------------------------
    let mut spans = scrape.all_spans();
    spans.sort_by(|a, b| {
        (b.dur_us, a.ok, a.trace_id, a.span_id).cmp(&(a.dur_us, b.ok, b.trace_id, b.span_id))
    });
    spans.retain(|s| !s.ok || s.dur_us > 0);
    spans.truncate(NOTABLE_ROWS);
    if !spans.is_empty() {
        out.push_str("\nslowest recent ops\n");
        let rows: Vec<Vec<String>> = spans
            .iter()
            .map(|s| {
                vec![
                    format!("{:#018x}", s.trace_id),
                    fmt_addr(s.node as Addr),
                    s.op.clone(),
                    format!("{}us", s.dur_us),
                    if s.ok { "ok".into() } else { "FAIL".into() },
                ]
            })
            .collect();
        out.push_str(&render_rows(
            &["trace", "node", "op", "dur", "status"],
            &rows,
        ));
    }
    out
}

/// Renders the spans of one collected trace as a causal tree.
/// `fmt_addr` turns the span's node field (a packed transport address)
/// into something readable, exactly as in [`render_top`].
pub fn render_trace(spans: &[SpanRecord], fmt_addr: &dyn Fn(Addr) -> String) -> String {
    d2_obs::render_span_tree_with(spans, &|n| fmt_addr(n as Addr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::NodeScrape;
    use d2_obs::Registry;

    fn scrape_with_two_nodes() -> ClusterScrape {
        let mut a = Registry::new();
        a.inc("node.msgs_in.lookup");
        a.inc("node.lookups");
        a.set_gauge("node.ring_position", 0.25);
        a.set_gauge("node.blocks", 3.0);
        a.observe("node.lookup_us", 120);
        let mut b = Registry::new();
        b.add("node.msgs_in.put", 2);
        b.inc("node.puts");
        b.set_gauge("node.ring_position", 0.75);
        b.observe("node.lookup_us", 480);
        let mut merged = Registry::new();
        merged.merge(&a);
        merged.merge(&b);
        let span = SpanRecord {
            trace_id: 0xAB,
            span_id: 7,
            parent_span_id: 0,
            hop: 0,
            node: 1,
            start_us: 10,
            dur_us: 55_000,
            ok: false,
            op: "put".into(),
            detail: String::new(),
        };
        ClusterScrape {
            nodes: vec![
                NodeScrape {
                    addr: 0,
                    registry: a,
                    spans: vec![],
                },
                NodeScrape {
                    addr: 1,
                    registry: b,
                    spans: vec![span],
                },
            ],
            merged,
        }
    }

    #[test]
    fn top_view_shows_nodes_merged_histograms_and_slow_ops() {
        let scrape = scrape_with_two_nodes();
        let top = render_top(&scrape, None, &|a| format!("n{a}"));
        assert!(top.contains("2 node(s) scraped"));
        assert!(top.contains("n0"));
        assert!(top.contains("0.2500"));
        assert!(top.contains("node.lookup_us"));
        // Merged histogram sees both samples.
        assert!(top.contains("merged distributions"));
        assert_eq!(
            scrape.merged.histogram("node.lookup_us").unwrap().count(),
            2
        );
        // The failed slow put surfaces with its trace id.
        assert!(top.contains("slowest recent ops"));
        assert!(top.contains("0x00000000000000ab"));
        assert!(top.contains("FAIL"));
        assert!(top.lines().nth(1).unwrap().ends_with("flushwait"));
        assert!(top
            .lines()
            .nth(1)
            .unwrap()
            .contains("backlog  repair  wakeups"));
        // No node reports ec.* — the erasure-coding table is omitted.
        assert!(!top.contains("erasure coding"));
    }

    #[test]
    fn top_view_shows_ec_table_when_a_node_runs_ec() {
        let mut scrape = scrape_with_two_nodes();
        let reg = &mut scrape.nodes[0].registry;
        reg.set_gauge("ec.fragments", 12.0);
        reg.set_gauge("ec.repair_queue", 2.0);
        reg.add("ec.decode_fallbacks", 3);
        reg.add("ec.repair_bytes", 4096);
        reg.add("ec.repair_throttled_bytes", 512);
        let top = render_top(&scrape, None, &|a| format!("n{a}"));
        assert!(top.contains("erasure coding"));
        assert!(top.contains("throttled_B"));
        assert!(top.contains("12"));
        assert!(top.contains("4096"));
        // The node without ec.* still gets a (zeroed) row.
        assert!(top.lines().any(|l| l.starts_with("n1") && l.contains('0')));
    }

    #[test]
    fn top_view_of_empty_scrape_is_still_renderable() {
        let scrape = ClusterScrape {
            nodes: vec![],
            merged: Registry::new(),
        };
        let top = render_top(&scrape, None, &|a| a.to_string());
        assert!(top.contains("0 node(s) scraped"));
    }

    #[test]
    fn the_repair_column_counts_from_the_last_refresh() {
        let column = |top: &str, node: &str| -> String {
            let at = |line: &str| line.split_whitespace().position(|c| c == "repair");
            let col = top.lines().find_map(at).expect("a repair column");
            let row = top
                .lines()
                .find(|l| l.starts_with(node))
                .expect("the node's row");
            row.split_whitespace().nth(col).unwrap().to_string()
        };
        let before = {
            let mut s = scrape_with_two_nodes();
            s.nodes[1].registry.add("repair.blocks_pushed", 40);
            s
        };
        let mut now = scrape_with_two_nodes();
        now.nodes[1].registry.add("repair.blocks_pushed", 45);
        now.nodes[1].registry.add("repair.blocks_pulled", 2);
        let once = render_top(&now, None, &|a| format!("n{a}"));
        assert_eq!(
            (column(&once, "n0"), column(&once, "n1")),
            ("0".into(), "47".into())
        );
        let watched = render_top(&now, Some(&before), &|a| format!("n{a}"));
        assert_eq!(column(&watched, "n1"), "7");
    }
}
