//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from outside the program, around the calls into each
//! layer's public entry points, kept in memory, and flushed as JSON when the
//! traced pass ends. One recorder serves one thread; nesting follows the
//! call stack, so the children of a span never overlap.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `relalg.sort`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a replayed query's root.
    pub parent: Option<usize>,
    /// Which replayed query the span belongs to.
    pub query: usize,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Rows the call consumed (0 where rows are not the unit of work).
    pub rows: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans, or — switched off — only runs the closures, which is how
/// the untraced replay pass shares the traced pass's code.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    query: usize,
}

impl Recorder {
    /// A recorder that records (`on`) or only runs the closures.
    pub fn new(on: bool) -> Self {
        Recorder { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), query: 0 }
    }

    /// Spans recorded from here on belong to replayed query `query`.
    pub fn set_query(&mut self, query: usize) {
        self.query = query;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.span_rows(name, 0, f)
    }

    /// [`Recorder::span`], noting the rows the call consumes.
    pub fn span_rows<R>(
        &mut self,
        name: &'static str,
        rows: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, query: self.query, start_ns, end_ns: start_ns, rows });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of span `id`: its duration minus the part its child spans
/// cover. Children of one span are disjoint (one thread, one call stack),
/// so their durations add.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration_ns).sum();
    spans[id].duration_ns().saturating_sub(children)
}

/// Per replayed query (indexed by query id, `n_queries` entries), the summed
/// self time in nanoseconds of the spans called `name`; `None` for a query
/// that has no such span.
pub fn self_ns_by_query(spans: &[Span], name: &str, n_queries: usize) -> Vec<Option<u64>> {
    fold_by_query(spans, name, n_queries, |id| self_ns(spans, id))
}

/// Per replayed query, the summed `rows` of the spans called `name`.
pub fn rows_by_query(spans: &[Span], name: &str, n_queries: usize) -> Vec<Option<u64>> {
    fold_by_query(spans, name, n_queries, |id| spans[id].rows)
}

fn fold_by_query(
    spans: &[Span],
    name: &str,
    n_queries: usize,
    value: impl Fn(usize) -> u64,
) -> Vec<Option<u64>> {
    let mut out = vec![None; n_queries];
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        *out[s.query].get_or_insert(0) += value(id);
    }
    out
}

/// The spans as a JSON document (see README.md, "Reading spans.json").
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"parent\":{parent},\"query\":{},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"rows\":{}}}{}\n",
            s.query,
            s.name,
            s.start_ns,
            s.end_ns,
            s.rows,
            if id + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, query: usize, t: (u64, u64)) -> Span {
        Span { name, parent, query, start_ns: t.0, end_ns: t.1, rows: 7 }
    }

    #[test]
    fn self_time_subtracts_children_but_not_grandchildren() {
        let spans = [
            span("query", None, 0, (0, 100)),
            span("a", Some(0), 0, (10, 40)),       // nested child
            span("a.inner", Some(1), 0, (15, 25)), // grandchild of the root
            span("b", Some(0), 0, (50, 70)),       // sibling child
            span("query", None, 1, (100, 130)),    // another query, no children
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 30 - 20);
        assert_eq!(self_ns(&spans, 1), 30 - 10);
        assert_eq!(self_ns(&spans, 2), 10);
        assert_eq!(self_ns(&spans, 3), 20);
        assert_eq!(self_ns(&spans, 4), 30);
    }

    #[test]
    fn per_query_sums_group_by_query_id() {
        let spans = [
            span("op", None, 0, (0, 10)),
            span("op", None, 0, (10, 25)),
            span("other", None, 1, (25, 30)),
            span("op", None, 2, (30, 31)),
        ];
        assert_eq!(self_ns_by_query(&spans, "op", 3), vec![Some(25), None, Some(1)]);
        assert_eq!(rows_by_query(&spans, "op", 3), vec![Some(14), None, Some(7)]);
    }

    #[test]
    fn recorder_nests_by_call_stack_and_can_be_switched_off() {
        let mut rec = Recorder::new(true);
        rec.set_query(3);
        let got = rec.span("outer", |r| {
            r.span_rows("first", 5, |_| ());
            r.span("second", |r| r.span("leaf", |_| 42))
        });
        assert_eq!(got, 42);
        let s = rec.spans();
        let shape: Vec<_> = s.iter().map(|s| (s.name, s.parent, s.query, s.rows)).collect();
        assert_eq!(
            shape,
            [
                ("outer", None, 3, 0),
                ("first", Some(0), 3, 5),
                ("second", Some(0), 3, 0),
                ("leaf", Some(2), 3, 0)
            ]
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("outer", |r| r.span("inner", |_| 1)), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn json_lists_every_field() {
        let spans = [span("query", None, 0, (0, 9)), span("a", Some(0), 0, (1, 2))];
        let json = to_json("w", 5, &spans);
        let doc = kfusion::trace::json::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("workload").and_then(|v| v.as_str()), Some("w"));
        let listed = doc.get("spans").and_then(|v| v.as_arr()).expect("spans array");
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[1].get("parent").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(listed[1].get("end_ns").and_then(|v| v.as_f64()), Some(2.0));
    }
}
