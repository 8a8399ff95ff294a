//! In-memory spans for the traced run.
//!
//! A span is a named interval with the span that caused it; spans live
//! in memory while the workload runs and are written out as JSON lines
//! when the benchmark ends. Spans are recorded only from the
//! benchmark's own code, around its calls into each layer's public
//! functions; nothing inside the program is instrumented.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifies a span within one [`Tracer`]; `0` means "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covers (a span may time a batch of calls).
    pub ops: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`; tracers that
    /// share an origin can be merged.
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new() }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span covering `ops` operations.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
        ops: u32,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, name, start_ns, end_ns, ops });
        id
    }

    /// Appends another tracer's spans (same origin) under `parent`.
    pub fn merge(&mut self, other: Tracer, parent: SpanId) {
        let base = self.spans.len() as SpanId;
        for mut s in other.spans {
            s.id += base;
            s.parent = if s.parent == 0 { parent } else { s.parent + base };
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Per-operation durations (ns) of the spans named `name`.
    pub fn per_op_ns(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns() as f64 / f64::from(s.ops.max(1))).collect()
    }

    /// Total operations and nanoseconds of the spans named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.named(name).fold((0, 0), |(ops, ns), s| (ops + u64::from(s.ops), ns + s.dur_ns()))
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"ops\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.ops
            )?;
        }
        w.flush()
    }
}

/// Measured cost of recording one span (two clock reads and a push),
/// in ns: the figure the tracing overhead is computed from.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let mut t = Tracer::new(Instant::now());
    let t0 = Instant::now();
    for _ in 0..N {
        let s = Instant::now();
        t.record("cost", 0, s, Instant::now(), 1);
    }
    let ns = t0.elapsed().as_nanos() as f64 / f64::from(N);
    std::hint::black_box(&t);
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_rebases_ids_and_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.record("root", 0, origin, Instant::now(), 1);
        let mut b = Tracer::new(origin);
        let p = b.record("poll", 0, origin, Instant::now(), 1);
        b.record("send", p, origin, Instant::now(), 1);
        a.merge(b, root);
        let spans = a.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].id, spans[1].parent), (2, root));
        assert_eq!((spans[2].id, spans[2].parent), (3, 2));
    }

    #[test]
    fn per_op_divides_batches() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let end = origin + std::time::Duration::from_nanos(1000);
        t.record("enc", 0, origin, end, 10);
        assert_eq!(t.per_op_ns("enc"), vec![100.0]);
        assert_eq!(t.totals("enc"), (10, 1000));
    }
}
