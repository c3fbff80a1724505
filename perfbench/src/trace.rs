//! Spans recorded around calls into each layer, from the benchmark's own
//! code. A span has a name `<layer>.<call>`, a start, an end, a parent and
//! the request it belongs to. Each load thread owns one [`Tracer`]; spans
//! stay in memory and are written out once, after the run.
//!
//! A span's self time is its duration minus its children's; summing self
//! times by layer over a request kind attributes every traced millisecond
//! of that request to a named layer (`bench` is the harness glue between
//! calls).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Request ids, unique across threads (a statistic: `Relaxed` suffices).
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    req: u64,
    parent: Option<usize>,
    root: usize,
    /// Caller-chosen label of the request (the query class), inherited
    /// from the root span.
    tag: usize,
    start_ns: u64,
    end_ns: u64,
}

/// One thread's span recorder. When off, [`Tracer::root`] and
/// [`Tracer::span`] only run their closure.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, t0: Instant) -> Self {
        Self {
            on,
            t0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` as a new request whose root span is `name`.
    pub fn root<R>(&mut self, name: &'static str, tag: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let req = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
        self.enter(name, req, tag);
        let r = f(self);
        self.exit();
        r
    }

    /// Runs `f` as a child span of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let parent = *self.open.last().expect("a span needs an open root");
        let (req, tag) = (self.spans[parent].req, self.spans[parent].tag);
        self.enter(name, req, tag);
        let r = f(self);
        self.exit();
        r
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enter(&mut self, name: &'static str, req: u64, tag: usize) {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let root = parent.map_or(idx, |p| self.spans[p].root);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            root,
            tag,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
    }

    fn exit(&mut self) {
        let idx = self.open.pop().expect("exit matches enter");
        self.spans[idx].end_ns = self.now_ns();
    }
}

/// Per-name and per-layer aggregates over the spans of several tracers.
#[derive(Debug, Default)]
pub struct Summary {
    /// `name → (total ms, spans)`.
    by_name: BTreeMap<&'static str, (f64, u64)>,
    /// `(name, tag) → (total ms, spans)`.
    by_name_tag: BTreeMap<(&'static str, usize), (f64, u64)>,
    /// Layer → total self ms, over requests rooted at the primary root.
    self_ms: BTreeMap<String, f64>,
    /// Requests rooted at the primary root.
    roots: u64,
}

impl Summary {
    /// Aggregates `tracers`; self times cover only requests whose root
    /// span is named `primary`.
    pub fn of(tracers: &[Tracer], primary: &str) -> Self {
        let mut s = Self::default();
        for t in tracers {
            let mut child_ns = vec![0u64; t.spans.len()];
            for span in &t.spans {
                if let Some(p) = span.parent {
                    child_ns[p] += span.end_ns - span.start_ns;
                }
            }
            for (i, span) in t.spans.iter().enumerate() {
                let ms = (span.end_ns - span.start_ns) as f64 / 1e6;
                let e = s.by_name.entry(span.name).or_default();
                e.0 += ms;
                e.1 += 1;
                let e = s.by_name_tag.entry((span.name, span.tag)).or_default();
                e.0 += ms;
                e.1 += 1;
                if t.spans[span.root].name != primary {
                    continue;
                }
                if span.parent.is_none() {
                    s.roots += 1;
                }
                let layer = span.name.split('.').next().unwrap_or(span.name);
                *s.self_ms.entry(layer.to_owned()).or_default() += ms - child_ns[i] as f64 / 1e6;
            }
        }
        s
    }

    /// Mean duration of spans named `name`, if any were recorded.
    pub fn mean_ms(&self, name: &str) -> Option<f64> {
        self.by_name.get(name).map(|(ms, n)| ms / *n as f64)
    }

    /// Mean duration of spans named `name` in requests tagged `tag`.
    pub fn mean_ms_tagged(&self, name: &'static str, tag: usize) -> Option<f64> {
        self.by_name_tag
            .get(&(name, tag))
            .map(|(ms, n)| ms / *n as f64)
    }

    /// Mean self time per primary request of `layer`, in ms.
    pub fn self_ms(&self, layer: &str) -> f64 {
        self.self_ms.get(layer).copied().unwrap_or(0.0) / self.roots.max(1) as f64
    }

    /// Moves `ms` of mean self time per primary request from layer `from`
    /// to layer `to`: attribution of a call the benchmark cannot wrap in a
    /// span (time spent inside another layer's call, measured by that
    /// layer's own counters).
    pub fn reattribute(&mut self, from: &str, to: &str, ms: f64) {
        let total = ms * self.roots as f64;
        *self.self_ms.entry(from.to_owned()).or_default() -= total;
        *self.self_ms.entry(to.to_owned()).or_default() += total;
    }

    /// Every layer with its mean self time per primary request.
    pub fn layers(&self) -> impl Iterator<Item = (&str, f64)> {
        self.self_ms.keys().map(|l| (l.as_str(), self.self_ms(l)))
    }
}

/// Writes every span as one JSON line: `req` groups the spans of one
/// request; `id`/`parent` are unique within the file.
pub fn write_spans(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    let mut offset = 0;
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_owned(), |p| (p + offset).to_string());
            writeln!(
                out,
                "{{\"req\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"tag\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.req,
                i + offset,
                s.name,
                s.tag,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            )
            .expect("writing to a String cannot fail");
        }
        offset += t.spans.len();
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())?;
    f.flush()
}
