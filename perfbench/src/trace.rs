//! In-memory spans recorded around the calls the benchmark makes into the
//! engine's layers.
//!
//! Each span has a name, a start, an end, a parent and the id of the
//! request it belongs to. Spans live in per-thread [`Tracer`]s and are
//! written out once, when the run ends. Nothing inside the engine is
//! instrumented: a span covers one public call, and where a call reports
//! its own timing split (`keyword_mapping_time`, `scatter_time`, …) the
//! split is recorded as child spans laid end to end inside it.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Index of a span inside its tracer.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Milliseconds since the run's origin.
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// The spans of one thread. A disabled tracer records nothing and costs a
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    fn ms(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1000.0
    }

    /// Records a finished span between two instants; returns its id (or 0
    /// when disabled, which no caller may dereference).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let span = Span {
            name,
            start: self.ms(start),
            end: self.ms(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a span given in milliseconds relative to `start`, for
    /// splits a call reports as durations.
    pub fn record_split(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        offset_ms: f64,
        length_ms: f64,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let base = self.ms(start);
        self.spans.push(Span {
            name,
            start: base + offset_ms,
            end: base + offset_ms + length_ms,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Spans of all threads, merged with ids rebased into one list.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn absorb(&mut self, tracer: Tracer) {
        let offset = self.spans.len();
        self.spans
            .extend(tracer.into_spans().into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + offset);
                s
            }));
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover (overlapping children are counted once, and a
    /// child's time outside its parent is not subtracted).
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| span.duration() - covered(span.start, span.end, kids))
            .collect()
    }

    /// Per span name: count, total duration and total self time (ms).
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ms) in self.spans.iter().zip(self.self_times()) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ms += span.duration();
            entry.self_ms += self_ms;
        }
        totals
    }

    /// Share of the named root spans' time that their children cover.
    pub fn child_coverage(&self, root: &str) -> f64 {
        let selfs = self.self_times();
        let (mut total, mut own) = (0.0, 0.0);
        for (span, self_ms) in self.spans.iter().zip(selfs) {
            if span.name == root {
                total += span.duration();
                own += self_ms;
            }
        }
        if total > 0.0 {
            1.0 - own / total
        } else {
            0.0
        }
    }

    /// Writes one tab-separated line per span: id, parent (or -1),
    /// request, name, start and end in milliseconds.
    pub fn write_tsv<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(out, "id\tparent\trequest\tname\tstart_ms\tend_ms")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{:.6}\t{:.6}",
                s.request, s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered(start: f64, end: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Measured cost of recording one span, in milliseconds: the run reports
/// the tracer's overhead as this cost times the spans it recorded, over
/// the traced time.
pub fn span_cost_ms() -> f64 {
    const N: usize = 20_000;
    let origin = Instant::now();
    let mut tracer = Tracer::new(true, origin);
    let start = Instant::now();
    for i in 0..N {
        let t0 = Instant::now();
        let t1 = Instant::now();
        tracer.record("calibration", i as u64, None, t0, t1);
    }
    let elapsed = start.elapsed().as_secs_f64() * 1000.0;
    std::hint::black_box(tracer.into_spans().len());
    elapsed / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    fn trace(spans: Vec<Span>) -> Trace {
        Trace { spans }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let t = trace(vec![
            span("request", 0.0, 10.0, None),
            span("lookup", 1.0, 3.0, Some(0)),
            span("explore", 4.0, 9.0, Some(0)),
        ]);
        assert_eq!(t.self_times(), vec![3.0, 2.0, 5.0]);
        assert!((t.child_coverage("request") - 0.7).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let t = trace(vec![
            span("request", 0.0, 10.0, None),
            span("a", 2.0, 6.0, Some(0)),
            span("b", 4.0, 8.0, Some(0)),
            span("c", 5.0, 7.0, Some(0)),
        ]);
        assert_eq!(t.self_times()[0], 4.0);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let t = trace(vec![
            span("request", 2.0, 6.0, None),
            span("early", 0.0, 3.0, Some(0)),
            span("late", 5.0, 9.0, Some(0)),
        ]);
        assert_eq!(t.self_times()[0], 2.0);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let t = trace(vec![
            span("request", 0.0, 10.0, None),
            span("child", 0.0, 8.0, Some(0)),
            span("grandchild", 0.0, 8.0, Some(1)),
        ]);
        assert_eq!(t.self_times(), vec![2.0, 0.0, 8.0]);
        let by_name = t.by_name();
        assert_eq!(by_name["child"].self_ms, 0.0);
        assert_eq!(by_name["request"].total_ms, 10.0);
    }

    #[test]
    fn absorbing_tracers_rebases_parent_ids() {
        let origin = Instant::now();
        let mut merged = Trace::default();
        for _ in 0..2 {
            let mut tracer = Tracer::new(true, origin);
            let root = tracer.record("request", 7, None, origin, origin);
            tracer.record("child", 7, Some(root), origin, origin);
            merged.absorb(tracer);
        }
        let parents: Vec<_> = merged.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(false, origin);
        tracer.record("request", 1, None, origin, origin);
        tracer.record_split("child", 1, None, origin, 0.0, 1.0);
        assert!(tracer.into_spans().is_empty());
    }
}
