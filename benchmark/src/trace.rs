//! The benchmark's own span recorder.
//!
//! A span is recorded around each call from the benchmark into a
//! layer's public function: name, start, end, the span that caused it
//! and the id of the operation it belongs to. Spans stay in memory and
//! are written to `benchmark/out/trace-<workload>.json` when the run
//! ends. A layer's *self time* is its span minus the part its child
//! spans cover. Spans inside `crates/` are a later change (ROADMAP
//! items 2 and 4); this recorder only sees the outside of each layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<u32>,
    /// Operation the span belongs to (spans of one op share it).
    pub op: u64,
}

/// Per-thread span sink. A disabled recorder runs the closure and
/// records nothing, so the untraced run pays one branch per call.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Recorder {
    /// Recorder whose timestamps count from `origin` (shared by all
    /// threads of a run so their spans line up).
    pub fn new(enabled: bool, origin: Instant) -> Recorder {
        Recorder {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Switch recording on or off (a traced run alternates traced and
    /// untraced rounds to price the tracing itself).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Set the operation id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Record a top-level span the caller timed itself (an interval seen
    /// from an iterator, which no closure can wrap).
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
                parent: None,
                op: self.op,
            });
        }
    }

    /// The spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let d = s.end_ns - s.start_ns;
            own[p as usize] = own[p as usize].saturating_sub(d);
        }
    }
    own
}

/// Totals of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Row {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals over one thread's spans.
pub fn rows(spans: &[Span]) -> BTreeMap<&'static str, Row> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Row> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let r = out.entry(s.name).or_default();
        r.count += 1;
        r.total_ns += s.end_ns - s.start_ns;
        r.self_ns += own;
    }
    out
}

/// Share of the root spans' time that no child span explains.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut root_total, mut root_self) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(own) {
        if s.parent.is_none() {
            root_total += s.end_ns - s.start_ns;
            root_self += own;
        }
    }
    if root_total == 0 {
        0.0
    } else {
        root_self as f64 / root_total as f64
    }
}

/// Render a trace file: one span list per generator thread plus the
/// counters taken at the same boundaries.
pub fn to_json(workload: &str, threads: &[Vec<Span>], counters: &[(String, f64)]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"threads\":["
    );
    for (t, spans) in threads.iter().enumerate() {
        if t > 0 {
            s.push(',');
        }
        s.push('[');
        for (i, sp) in spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.op
            );
        }
        s.push(']');
    }
    s.push_str("],\"counters\":{");
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{name}\":{value}");
    }
    s.push_str("}}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) holds a [10,40) and b [50,90); a holds c [20,30).
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("c", 20, 30, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let r = rows(&spans);
        assert_eq!(r["op"].total_ns, 100);
        assert_eq!(r["op"].self_ns, 30);
        assert_eq!(r["a"].self_ns, 20);
        assert!((unattributed_share(&spans) - 0.30).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.set_op(7);
        rec.span("op", |r| {
            r.span("a", |r| r.span("c", |_| ()));
            r.span("b", |_| ());
        });
        let spans = rec.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            shape,
            vec![
                ("op", None, 7),
                ("a", Some(0), 7),
                ("c", Some(1), 7),
                ("b", Some(0), 7)
            ]
        );
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now());
        assert_eq!(rec.span("op", |r| r.span("a", |_| 5)), 5);
        assert!(rec.into_spans().is_empty());
    }
}
