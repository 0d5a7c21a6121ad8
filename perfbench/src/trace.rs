//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public entry points (the program itself is not instrumented). A span has
//! a name (the per-layer metric prefix), start and end on the run's shared
//! clock, its parent span and the request it belongs to. One [`Tracer`]
//! lives on each thread; spans are kept in memory and written out once the
//! run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer metric prefix, e.g. `core.form`.
    pub name: &'static str,
    /// Start, ns since the run's clock origin.
    pub start_ns: u64,
    /// End, ns since the run's clock origin.
    pub end_ns: u64,
    /// Index of the parent span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    /// Request id the span belongs to.
    pub req: u32,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct SpanId(u32);

/// A per-thread span recorder. When disabled, `enter`/`exit` do nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    req: u32,
    stack: Vec<u32>,
    /// Every span recorded so far, in entry order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer on the shared clock `origin`; records only when `on`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            req: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Tags subsequent spans with request id `req`.
    pub fn set_request(&mut self, req: u32) {
        self.req = req;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            req: self.req,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes span `id` (which must be the innermost open span).
    pub fn exit(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0 as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi)`.
/// Overlapping intervals are counted once.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Self time and call count summed per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += t;
        e.1 += 1;
    }
    out
}

/// Per root span named `root`: the share of its duration that its direct
/// children do not cover (0 = fully accounted for).
pub fn uncovered_shares(spans: &[Span], root: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.parent == NO_PARENT && s.name == root && s.dur() > 0)
        .map(|(s, own)| own as f64 / s.dur() as f64)
        .collect()
}

/// Writes spans as JSON lines, one per span, tagged with the recording
/// thread's index.
pub fn write_jsonl(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"thread\":{t},\"id\":{i},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
