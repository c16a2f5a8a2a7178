//! The traced run's span recorder.
//!
//! [`Tracer`] keeps every span in memory: name, start, end, parent, the id
//! of the batch, line or cell it belongs to, and a tag (the engine key for
//! session spans). The benchmark opens spans around each public call it
//! makes; as a [`Recorder`] handed to `StreamingSession::ingest_batch` and
//! `finish` it also timestamps the session's own `other` and `propagation`
//! phase spans, and derives the two gaps around them: `substrate` (from
//! `ingest_batch` entry to the `other` span) and `oracle` (from the
//! `propagation` exit to `ingest_batch` return).
//!
//! The tracer reports itself disabled, so engines skip their per-write
//! counter emissions (the hot path stays as in an untraced run); the
//! session's phase spans reach it regardless, because the session calls
//! them unconditionally.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use tdgraph::prelude::{keys, Recorder, TraceEvent};

/// Span name of one `ingest_batch` call.
pub const BATCH: &str = "batch";
/// Span name of the gap from `ingest_batch` entry to the `other` phase.
pub const SUBSTRATE: &str = "substrate";
/// Span name of the session's seeding phase.
pub const SEED: &str = keys::PHASE_OTHER;
/// Span name of the session's propagation phase.
pub const PROPAGATION: &str = keys::PHASE_PROPAGATION;
/// Span name of the gap from the `propagation` exit to `ingest_batch` return.
pub const ORACLE: &str = "oracle";

/// One recorded span. Times are seconds since the tracer's origin.
#[derive(Debug)]
pub struct Span {
    /// What the span covers.
    pub name: &'static str,
    /// Start time.
    pub start: f64,
    /// End time (equal to `start` while open).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The batch, line or cell the span belongs to.
    pub id: u64,
    /// Free-form tag (the engine key for session spans).
    pub tag: &'static str,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: u64,
    tag: &'static str,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), id: 0, tag: "" }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Sets the id and tag later spans (including recorder spans) carry.
    pub fn set_context(&mut self, id: u64, tag: &'static str) {
        self.id = id;
        self.tag = tag;
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let t = self.now();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent: self.open.last().copied(),
            id: self.id,
            tag: self.tag,
        });
        self.open.push(index);
        index
    }

    /// Closes span `index` and every span still open inside it.
    pub fn exit(&mut self, index: usize) {
        let t = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = t;
            if top == index {
                return;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.enter(name);
        let out = f(self);
        self.exit(index);
        out
    }

    fn top_is(&self, name: &str) -> Option<usize> {
        self.open.last().copied().filter(|&i| self.spans[i].name == name)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"id\":{},\"tag\":\"{}\"}}",
                s.name, s.start, s.end, s.id, s.tag
            );
        }
        out
    }
}

impl Recorder for Tracer {
    fn enabled(&self) -> bool {
        false
    }

    fn counter(&mut self, _key: &'static str, _delta: u64) {}

    fn gauge(&mut self, _key: &'static str, _value: f64) {}

    fn label(&mut self, _key: &'static str, _value: &str) {}

    fn span_enter(&mut self, phase: &'static str) {
        if phase == SEED {
            if let Some(i) = self.top_is(SUBSTRATE) {
                self.exit(i);
            }
        }
        self.enter(phase);
    }

    fn span_exit(&mut self, phase: &'static str, _cycles: u64) {
        if let Some(i) = self.top_is(phase) {
            self.exit(i);
            if phase == PROPAGATION {
                self.enter(ORACLE);
            }
        }
    }

    fn histogram(&mut self, _key: &'static str, _value: u64) {}

    fn event(&mut self, _event: &TraceEvent) {}
}

/// Runs `f` inside span `name` when tracing.
pub fn spanned<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer.as_deref_mut() {
        Some(t) => t.scope(name, |_| f()),
        None => f(),
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Total self time per span name, optionally only for spans whose tag is
/// `tag`.
pub fn self_time_by_name(spans: &[Span], tag: Option<&str>) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        if tag.is_none_or(|want| s.tag == want) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, id: 0, tag: "" }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("batch", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            // Overlaps `a` by one unit: covered once.
            span("b", 3.0, 6.0, Some(0)),
            // Nested under `b`: only `b` loses this time.
            span("c", 4.0, 5.0, Some(2)),
            // Spills past its parent's end: clipped to it.
            span("d", 9.0, 12.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![10.0 - 5.0 - 1.0, 3.0, 2.0, 1.0, 3.0]);
        let by_name = self_time_by_name(&spans, None);
        assert_eq!(by_name["batch"], 4.0);
        assert_eq!(by_name["b"], 2.0);
    }

    #[test]
    fn self_time_by_name_filters_on_tag() {
        let mut spans = vec![span("p", 0.0, 2.0, None), span("p", 2.0, 5.0, None)];
        spans[1].tag = "tdgraph-h";
        assert_eq!(self_time_by_name(&spans, Some("tdgraph-h"))["p"], 3.0);
        assert_eq!(self_time_by_name(&spans, None)["p"], 5.0);
    }

    #[test]
    fn recorder_phases_derive_substrate_and_oracle_gaps() {
        let mut tr = Tracer::new();
        tr.set_context(7, "ligra-o");
        let batch = tr.enter(BATCH);
        tr.enter(SUBSTRATE);
        tr.span_enter(SEED);
        tr.span_exit(SEED, 0);
        tr.span_enter(PROPAGATION);
        tr.span_exit(PROPAGATION, 0);
        tr.exit(batch);
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent, s.id)).collect();
        assert_eq!(
            names,
            vec![
                (BATCH, None, 7),
                (SUBSTRATE, Some(0), 7),
                (SEED, Some(0), 7),
                (PROPAGATION, Some(0), 7),
                (ORACLE, Some(0), 7),
            ]
        );
        assert!(tr.spans().iter().all(|s| s.end >= s.start));
        assert!(tr.to_jsonl().lines().count() == 5);
    }
}
