//! In-memory spans with self-time arithmetic, plus the sample summaries
//! every metric is reported through.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (the program itself carries no spans yet). They stay in memory
//! until the run ends and are only then reduced to per-name summaries.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span: a name, its interval in nanoseconds since the
/// tracer's origin, and the span open around it when it began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `alg1.sig`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start: u64,
    /// End, ns since the tracer origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost-first");
        self.spans[id].end = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span named `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(span_ms)
            .collect()
    }

    /// Total self time in ms per span name.
    pub fn self_time_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, ns) in self_times(&self.spans) {
            *out.entry(name).or_insert(0.0) += ns_to_ms(ns);
        }
        out
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Indices of each span's direct children, in start order.
pub fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    kids
}

/// Duration of a span in ms.
pub fn span_ms(span: &Span) -> f64 {
    ns_to_ms(span.end - span.start)
}

/// Self time of each span in ns: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    spans
        .iter()
        .zip(children(spans))
        .map(|(s, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start, spans[k].end))
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for (a, b) in intervals {
                let (a, b) = (a.clamp(s.start, s.end), b.clamp(s.start, s.end));
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.name, (s.end - s.start) - covered)
        })
        .collect()
}

/// The `q`-quantile (0..=1) of `samples` by nearest rank; `None` when
/// there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}
