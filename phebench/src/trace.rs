//! Spans the benchmark records around its own calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it, and the
//! id of the operation it belongs to. Spans stay in memory; aggregates
//! (calls, busy time, self time) are kept for every span, raw records for
//! the first [`RAW_SPANS_PER_NAME`] of each name, so the file written at
//! exit stays small and still shows every layer.
//! Self time is a span's duration minus the part its child spans cover.
//!
//! A disabled tracer runs the closure and records nothing, so untraced
//! runs pay no clock reads for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw span records kept per span name; aggregates cover all spans.
pub const RAW_SPANS_PER_NAME: u64 = 2_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Span name, `layer.operation`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the raw record list, if recorded.
    pub parent: Option<usize>,
    /// The operation (request, cycle, build) the span belongs to.
    pub op: u64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration, ns.
    pub busy_ns: u64,
    /// Summed duration minus time covered by child spans, ns.
    pub self_ns: u64,
}

impl Aggregate {
    /// Mean busy time per call, in `unit_ns` units (0 without calls).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.calls as f64 / unit_ns
        }
    }
}

struct Open {
    name: &'static str,
    start_ns: u64,
    raw: Option<usize>,
    child_ns: u64,
}

/// A single-threaded span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    raw: Vec<SpanRecord>,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, Aggregate>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every [`Tracer::span`] a plain
    /// call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            raw: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span `name` belonging to operation `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let start_ns = self.now_ns();
        let parent = self.stack.last().and_then(|o| o.raw);
        let raw = self.keep_raw(name).then(|| {
            self.raw.push(SpanRecord {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            self.raw.len() - 1
        });
        self.stack.push(Open {
            name,
            start_ns,
            raw,
            child_ns: 0,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        let open = self
            .stack
            .pop()
            .expect("span stack balanced by construction");
        let busy = end_ns - open.start_ns;
        if let Some(i) = open.raw {
            self.raw[i].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += busy;
        }
        let total = self.totals.entry(open.name).or_default();
        total.calls += 1;
        total.busy_ns += busy;
        total.self_ns += busy.saturating_sub(open.child_ns);
        out
    }

    /// Records a span measured elsewhere (a duration the benchmark timed
    /// itself, e.g. a request round trip on a load thread).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, busy_ns: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        if self.keep_raw(name) {
            self.raw.push(SpanRecord {
                name,
                start_ns,
                end_ns: start_ns + busy_ns,
                parent: None,
                op,
            });
        }
        let total = self.totals.entry(name).or_default();
        total.calls += 1;
        total.busy_ns += busy_ns;
        total.self_ns += busy_ns;
    }

    /// Totals for `name` (zero when never recorded).
    pub fn totals(&self, name: &str) -> Aggregate {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Folds another tracer's records (e.g. a load thread's) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        let base = self.raw.len();
        for mut span in other.raw {
            span.start_ns += shift;
            span.end_ns += shift;
            span.parent = span.parent.map(|p| p + base);
            self.raw.push(span);
        }
        for (name, agg) in other.totals {
            let total = self.totals.entry(name).or_default();
            total.calls += agg.calls;
            total.busy_ns += agg.busy_ns;
            total.self_ns += agg.self_ns;
        }
    }

    /// The raw records as JSON lines: `{"name", "start_ns", "end_ns",
    /// "parent", "op"}` (parent is an index into the same list, or null).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for span in &self.raw {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.op
            );
        }
        out
    }

    /// Whether the next span called `name` still gets a raw record.
    fn keep_raw(&self, name: &str) -> bool {
        self.totals.get(name).map_or(0, |t| t.calls) < RAW_SPANS_PER_NAME
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// One row of a per-layer table: a layer's time per operation.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Span name (`layer.operation`) or `unattributed`.
    pub name: String,
    /// Mean busy time per operation, in the table's unit.
    pub busy: f64,
    /// Mean self time per operation, in the table's unit.
    pub self_time: f64,
}

/// A per-layer breakdown of one end-to-end figure: the rows, plus an
/// `unattributed` row for the time no layer claims, add up to `total`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    /// What the total is (e.g. "request round trip").
    pub title: String,
    /// Display unit of every column.
    pub unit: &'static str,
    /// The end-to-end figure per operation.
    pub total: f64,
    /// Layer rows, then `unattributed` last.
    pub rows: Vec<LayerRow>,
}

impl LayerTable {
    /// Builds the table for `total` from per-operation layer times; the
    /// `unattributed` row is `total` minus the rows' busy times (the rows
    /// must not nest, or time would be counted twice).
    pub fn new(title: &str, unit: &'static str, total: f64, rows: Vec<LayerRow>) -> LayerTable {
        let claimed: f64 = rows.iter().map(|r| r.busy).sum();
        let mut rows = rows;
        rows.push(LayerRow {
            name: "unattributed".to_owned(),
            busy: total - claimed,
            self_time: total - claimed,
        });
        LayerTable {
            title: title.to_owned(),
            unit,
            total,
            rows,
        }
    }

    /// The `unattributed` row's time.
    pub fn unattributed(&self) -> f64 {
        self.rows.last().map_or(0.0, |r| r.busy)
    }

    /// Renders the table with busy, self, and share-of-total columns.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} = {:.4} {} per op\n{:<26} {:>12} {:>12} {:>8}\n",
            self.title, self.total, self.unit, "layer", "busy", "self", "share"
        );
        for row in &self.rows {
            let share = if self.total == 0.0 {
                0.0
            } else {
                100.0 * row.busy / self.total
            };
            let _ = writeln!(
                out,
                "{:<26} {:>12.4} {:>12.4} {:>7.1}%",
                row.name, row.busy, row.self_time, share
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", 1, |t| {
            spin(200_000);
            t.span("inner", 1, |_| spin(300_000));
        });
        let outer = t.totals("outer");
        let inner = t.totals("inner");
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.busy_ns >= outer.self_ns + inner.busy_ns);
        assert!(outer.self_ns >= 200_000 && inner.self_ns >= 300_000);
        assert_eq!(t.raw.len(), 2);
        assert_eq!(t.raw[1].parent, Some(0));
        assert!(t.to_json_lines().contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |_| 5), 5);
        t.record("y", 0, Instant::now(), 10);
        assert_eq!(t.totals("x").calls + t.totals("y").calls, 0);
    }

    #[test]
    fn unattributed_row_closes_the_sum() {
        let rows = vec![
            LayerRow {
                name: "a".into(),
                busy: 3.0,
                self_time: 3.0,
            },
            LayerRow {
                name: "b".into(),
                busy: 5.0,
                self_time: 5.0,
            },
        ];
        let table = LayerTable::new("op", "ms", 10.0, rows);
        assert_eq!(table.unattributed(), 2.0);
        let sum: f64 = table.rows.iter().map(|r| r.busy).sum();
        assert_eq!(sum, 10.0);
        assert!(table.render().contains("unattributed"));
    }

    #[test]
    fn absorb_merges_totals() {
        let mut a = Tracer::new(true);
        a.record("x", 0, Instant::now(), 100);
        let mut b = Tracer::new(true);
        b.record("x", 1, Instant::now(), 50);
        a.absorb(b);
        assert_eq!(a.totals("x").calls, 2);
        assert_eq!(a.totals("x").busy_ns, 150);
    }
}
