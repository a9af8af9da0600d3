//! Spans recorded from the benchmark's own code around its calls into
//! each library layer.
//!
//! A root span covers one sample, query or epoch; child spans cover the
//! library calls made inside it and carry the root's request id. Spans
//! are kept in memory and written out when the run ends. A span's self
//! time is its duration minus the time its children cover. Spans wrap
//! only the calls the benchmark makes, so they show which entry point a
//! request went through, not where the library spends its time; the
//! per-layer probes measure that.

use std::fmt::Write as _;
use std::time::Instant;

/// The crate whose public entry point a span wraps, or the benchmark's
/// own code for root spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Benchmark glue inside a timed sample.
    Bench,
    /// `smash-matrix`.
    Matrix,
    /// `smash-kernels`.
    Kernels,
    /// `smash-graph`.
    Graph,
}

impl Layer {
    /// Short name used in span records.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Matrix => "matrix",
            Layer::Kernels => "kernels",
            Layer::Graph => "graph",
        }
    }
}

struct Span {
    id: u64,
    request: u64,
    parent: Option<u64>,
    layer: Layer,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    self_ns: u64,
}

struct Open {
    id: u64,
    layer: Layer,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// Span recorder. When disabled every method is a pass-through.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    request: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
}

/// Spans kept for the written trace; later ones are only counted.
const MAX_STORED_SPANS: usize = 200_000;

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: 1,
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Opens a root span: a new request id for everything inside it.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        debug_assert!(self.stack.is_empty(), "root spans do not nest");
        self.request = self.next_id;
        self.open(Layer::Bench, name);
    }

    /// Closes the open root span.
    pub fn end(&mut self) {
        if self.enabled {
            self.close();
        }
    }

    /// Runs one library call inside a child span of the open root.
    pub fn call<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.open(layer, name);
        let out = f();
        self.close();
        out
    }

    fn open(&mut self, layer: Layer, name: &'static str) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            layer,
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    fn close(&mut self) {
        let open = self.stack.pop().expect("close matches an open span");
        let dur_ns = open.start.elapsed().as_nanos() as u64;
        let self_ns = dur_ns.saturating_sub(open.child_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur_ns;
            p.id
        });
        if self.spans.len() < MAX_STORED_SPANS {
            self.spans.push(Span {
                id: open.id,
                request: self.request,
                parent,
                layer: open.layer,
                name: open.name,
                start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
                self_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// The stored spans as JSON lines, plus a last line counting spans
    /// that were not stored.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"request\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{}}}",
                s.id, s.request, parent, s.layer.name(), s.name, s.start_ns, s.dur_ns, s.self_ns
            );
        }
        let _ = writeln!(out, "{{\"dropped\":{}}}", self.dropped);
        out
    }
}
