//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only here, in the benchmark, around each call into a
//! layer's public functions. Each span holds its name, start, end, parent
//! and the iteration it belongs to; spans stay in memory until the run
//! ends and are then written out as JSON lines. A span is on the blocking
//! path when its root is the iteration itself; attribution probes (calls
//! made only to split a blocking span into layers) hang under a separate
//! `probes` root and are off the path.
//!
//! A disabled tracer ([`Tracer::off`]) records nothing, so the untraced
//! run executes the same code with one branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
struct Span {
    iter: u32,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    path: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span id returned by [`Tracer::begin`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    iter: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// A recorder that records nothing (the untraced run).
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            iter: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new iteration: later spans carry its id.
    pub fn next_iteration(&mut self) {
        self.iter += 1;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Option<Instant>,
        root_path: bool,
    ) -> usize {
        let parent = self.open.last().copied();
        let path = parent.map_or(root_path, |p| self.spans[p].path);
        let start_ns = self.ns(start);
        let end_ns = end.map_or(start_ns, |e| self.ns(e));
        self.spans.push(Span {
            iter: self.iter,
            parent,
            name,
            start_ns,
            end_ns,
            path,
        });
        self.spans.len() - 1
    }

    /// Opens a span under the innermost open one. A root span is on the
    /// blocking path unless it is named `probes`.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.push(name, Instant::now(), None, name != "probes");
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        self.spans[id].end_ns = self.ns(Instant::now());
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let value = f();
        self.end(id);
        value
    }

    /// Records an already-finished child of the innermost open span — for
    /// calls the program makes back into the benchmark (the recalibrator
    /// wrapper), timed there and attached once control returns.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            self.push(name, start, Some(end), true);
        }
    }

    /// Duration of a closed span, seconds (0 when tracing is off).
    pub fn dur_s(&self, id: SpanId) -> f64 {
        id.map_or(0.0, |id| self.spans[id].dur_ns() as f64 * 1e-9)
    }

    /// Self time per span name in the current iteration, seconds: each
    /// span's duration minus the part its direct children cover, summed
    /// over spans of the same name. Returns `(on_path, off_path)`.
    pub fn self_times(&self) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>) {
        let first = self.spans.partition_point(|s| s.iter < self.iter);
        let spans = &self.spans[first..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p - first] += s.dur_ns();
            }
        }
        let mut path = BTreeMap::new();
        let mut probes = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let own = s.dur_ns().saturating_sub(child) as f64 * 1e-9;
            let map = if s.path { &mut path } else { &mut probes };
            *map.entry(s.name).or_insert(0.0) += own;
        }
        (path, probes)
    }

    /// Every recorded span as JSON lines: iteration, id, parent, name,
    /// start and end (ns since the recorder was created), blocking-path
    /// flag.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"iter\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"path\":{}}}",
                s.iter, s.name, s.start_ns, s.end_ns, s.path
            );
        }
        out
    }
}
