//! In-memory spans recorded around each call into a library layer, with
//! self-time accounting and a JSON dump.  Only the traced run records; an
//! untraced run carries a disabled tracer whose calls do nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list, if any.
    pub parent: Option<usize>,
    /// The request the span served: a batch index for ingest, an input or
    /// cycle index for fusion.
    pub request: u64,
}

/// Records spans on one thread; nesting follows call order.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to a span opened by [`Tracer::open`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span; spans must close innermost first.
    pub fn close(&mut self, span: Open) {
        if let Some(index) = span.0 {
            self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(index), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, request);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    /// Mean cost of recording one span, measured on a scratch tracer.
    pub fn record_cost_ns() -> f64 {
        const N: usize = 100_000;
        let mut t = Tracer::new(true);
        let start = Instant::now();
        for i in 0..N {
            let s = t.open("cost", i as u64);
            t.close(s);
        }
        std::hint::black_box(t.spans.len());
        start.elapsed().as_nanos() as f64 / N as f64
    }
}

/// Per span name: (total duration, total self time, count), in ns.  A
/// span's self time is its duration minus the durations of its direct
/// children, which nest inside it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let e = out.entry(s.name).or_default();
        e.0 += dur;
        e.1 += dur.saturating_sub(*child);
        e.2 += 1;
    }
    out
}

/// The spans as a JSON array, one object per line.
pub fn spans_json(spans: &[Span]) -> String {
    let mut s = String::with_capacity(spans.len() * 96 + 4);
    s.push('[');
    for (i, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            s,
            "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            if i == 0 { "" } else { "," },
            span.name,
            span.start_ns,
            span.end_ns,
            parent,
            span.request
        );
    }
    s.push_str("\n]");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("pump", 0, 100, None),
            span("send", 10, 30, Some(0)),
            span("send", 40, 50, Some(0)),
            span("restart", 60, 90, Some(0)),
            span("recover", 65, 85, Some(3)),
            span("pump", 200, 210, None),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pump"], (110, 100 - 20 - 10 - 30 + 10, 2));
        assert_eq!(t["send"], (30, 30, 2));
        assert_eq!(t["restart"], (30, 10, 1));
        assert_eq!(t["recover"], (20, 20, 1));
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", 7);
        t.scope("inner", 8, || ());
        t.close(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(spans_json(t.spans()).contains("\"name\":\"inner\""));

        let mut off = Tracer::new(false);
        let s = off.open("x", 0);
        off.close(s);
        assert!(off.spans().is_empty());
    }
}
