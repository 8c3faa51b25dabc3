//! The traced run's span log.
//!
//! Spans are recorded from the harness only, around its calls into a
//! layer: `{name, start, end, parent, op_id}`, kept in a pre-sized
//! `Vec` (no allocation per span until the reserve is used up) and
//! written to `trace.jsonl` when the run ends. Spans the program itself
//! recorded for a traced op (its flight recorder) are attached as
//! `program` records under the same `op_id`.

use d2_obs::SpanRecord;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in the log; `NO_PARENT` marks a root.
pub type SpanId = u32;
/// Parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    op_id: u64,
}

/// An in-memory span log; disabled logs record nothing.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    program: Vec<SpanRecord>,
    enabled: bool,
}

impl SpanLog {
    /// A log with room for `reserve` spans. It starts switched off:
    /// the caller enables it around the part of the run to trace.
    pub fn new(reserve: usize) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(reserve),
            program: Vec::new(),
            enabled: false,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (the untraced half of a traced run
    /// records nothing).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Opens a span now; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op_id: u64) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: SpanId) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span.
    pub fn within<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op_id);
        let out = f();
        self.end(id);
        out
    }

    /// Attaches spans the program recorded (trace id = `op_id`).
    pub fn attach_program_spans(&mut self, spans: Vec<SpanRecord>) {
        self.program.extend(spans);
    }

    /// Harness spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no harness span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Program spans attached.
    pub fn program_len(&self) -> usize {
        self.program.len()
    }

    /// Writes one JSON object per line: harness spans, then program
    /// spans.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        for p in &self.program {
            writeln!(
                w,
                "{{\"program_span\": {}, \"op\": \"{}\", \"op_id\": {}, \"parent\": {}, \"hop\": {}, \"node\": {}, \"start_us\": {}, \"dur_us\": {}, \"ok\": {}}}",
                p.span_id,
                p.op.replace(['"', '\\'], "_"),
                p.trace_id,
                p.parent_span_id,
                p.hop,
                p.node,
                p.start_us,
                p.dur_us,
                p.ok
            )?;
        }
        w.flush()
    }
}
