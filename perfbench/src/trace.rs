//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public API (the library itself is not instrumented here). Each span
//! keeps its name, start, end, parent and request id; the whole list is
//! written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request_id: u64,
}

/// Handle of an open span.
#[must_use]
pub struct Open(usize);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request_id: u64) -> Open {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request_id,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close `span`; spans close innermost first.
    pub fn end(&mut self, span: Open) {
        let end = self.now_ns();
        self.spans[span.0].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(span.0), "spans close innermost first");
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, request_id: u64, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, request_id);
        let out = f();
        self.end(s);
        out
    }

    /// Durations in ms of every closed span named `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Sum of the durations of spans named `name` whose request id is `rid`.
    pub fn total_ms(&self, name: &str, rid: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.request_id == rid)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request_id
            )?;
        }
        w.flush()
    }
}
