//! Lightweight span tracing.
//!
//! A [`Tracer`] records named spans with explicit, caller-supplied
//! timestamps — in ESCAPE-RS that is the netem virtual clock, so traces
//! of a simulation are bit-identical across runs with the same seed.
//! Spans nest: the span open at `enter` time becomes the parent. Every
//! finished span feeds two registry metrics,
//! `span.duration_ns{span="<name>"}` (histogram) and
//! `span.count{span="<name>"}` (counter), so snapshots and reports see
//! span activity without walking the trace.
//!
//! The trace itself is a bounded ring of the last [`SPAN_RING_CAP`]
//! records, so a long-lived daemon's trace (and its `metrics --json`
//! reply) stops growing. Spans are numbered by a monotonic sequence and
//! parents are referenced by that number, so a record may name a parent
//! that has already left the ring. Evictions are counted in
//! `telemetry.spans_evicted`; the two span metrics still see every span.

use std::collections::VecDeque;

use crate::{Counter, Registry, DURATION_BOUNDS_NS};
use escape_json::Value;

/// Span records a [`Tracer`] retains before evicting the oldest.
pub const SPAN_RING_CAP: usize = 4_096;

/// One span in a [`Tracer`]'s trace ring.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Monotonic span sequence number (0 = first span ever entered).
    pub seq: u64,
    pub name: String,
    /// Sequence number of the parent span, if nested. The parent may
    /// already have been evicted from the ring.
    pub parent: Option<u64>,
    pub start_ns: u64,
    /// `None` while the span is still open.
    pub end_ns: Option<u64>,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e.saturating_sub(self.start_ns))
    }
}

/// Handle returned by [`Tracer::enter`]; pass back to [`Tracer::exit`].
/// Deliberately not `Copy`/`Clone`: each span ends exactly once. It
/// carries what the span metrics need, so a span still closes correctly
/// after its record was evicted.
#[derive(Debug)]
#[must_use = "exit the span with Tracer::exit"]
pub struct SpanHandle {
    seq: u64,
    name: String,
    start_ns: u64,
}

/// Span recorder; one per simulation environment.
pub struct Tracer {
    registry: Registry,
    records: VecDeque<SpanRecord>,
    /// Records dropped off the front of the ring; also the sequence
    /// number of the oldest retained record.
    evicted: u64,
    evicted_ctr: Counter,
    /// Sequence numbers of the open spans, innermost last.
    stack: Vec<u64>,
}

impl Tracer {
    /// Builds a tracer and registers its eviction counter
    /// (`telemetry.spans_evicted`) on `registry`.
    pub fn new(registry: Registry) -> Tracer {
        Tracer {
            evicted_ctr: registry.counter("telemetry.spans_evicted"),
            registry,
            records: VecDeque::new(),
            evicted: 0,
            stack: Vec::new(),
        }
    }

    /// Opens a span at `now_ns`, nested under the currently open span.
    pub fn enter(&mut self, name: &str, now_ns: u64) -> SpanHandle {
        if self.records.len() == SPAN_RING_CAP {
            self.records.pop_front();
            self.evicted += 1;
            self.evicted_ctr.inc();
        }
        let seq = self.evicted + self.records.len() as u64;
        self.records.push_back(SpanRecord {
            seq,
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_ns: now_ns,
            end_ns: None,
        });
        self.stack.push(seq);
        SpanHandle {
            seq,
            name: name.to_string(),
            start_ns: now_ns,
        }
    }

    /// Closes a span at `now_ns` and records its duration metrics.
    /// Spans may be exited out of LIFO order (interleaved operations);
    /// parentage is decided at `enter` time.
    pub fn exit(&mut self, handle: SpanHandle, now_ns: u64) {
        if let Some(pos) = self.stack.iter().rposition(|&s| s == handle.seq) {
            self.stack.remove(pos);
        }
        let end_ns = now_ns.max(handle.start_ns);
        if let Some(idx) = handle.seq.checked_sub(self.evicted) {
            self.records[idx as usize].end_ns = Some(end_ns);
        }
        self.registry
            .histogram_with(
                "span.duration_ns",
                &[("span", &handle.name)],
                DURATION_BOUNDS_NS,
            )
            .observe(end_ns - handle.start_ns);
        self.registry
            .counter_with("span.count", &[("span", &handle.name)])
            .inc();
    }

    /// The retained spans (open and closed), in enter order: at most
    /// [`SPAN_RING_CAP`] of them.
    pub fn records(&self) -> &VecDeque<SpanRecord> {
        &self.records
    }

    /// How many span records have been dropped off the front of the ring.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Retained closed spans with the given name.
    pub fn finished<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.records
            .iter()
            .filter(move |r| r.name == name && r.end_ns.is_some())
    }

    /// Nesting depth of the currently open span chain.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// JSON dump of the retained trace: one object per span with
    /// sequence number, name, parent sequence number, timestamps and
    /// duration.
    pub fn json_value(&self) -> Value {
        let spans: Vec<Value> = self
            .records
            .iter()
            .map(|r| {
                Value::obj()
                    .set("seq", r.seq)
                    .set("name", r.name.as_str())
                    .set("parent", r.parent)
                    .set("start_ns", r.start_ns)
                    .set("end_ns", r.end_ns)
                    .set("duration_ns", r.duration_ns())
            })
            .collect();
        Value::obj().set("spans", Value::Arr(spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_durations() {
        let reg = Registry::new();
        let mut t = Tracer::new(reg.clone());

        let outer = t.enter("chain_setup", 1_000);
        assert_eq!(t.depth(), 1);
        let inner = t.enter("mapping", 2_000);
        assert_eq!(t.records()[1].parent, Some(0));
        t.exit(inner, 5_000);
        let inner2 = t.enter("netconf", 5_000);
        t.exit(inner2, 9_000);
        t.exit(outer, 10_000);
        assert_eq!(t.depth(), 0);

        assert_eq!(t.finished("chain_setup").count(), 1);
        assert_eq!(t.records()[0].duration_ns(), Some(9_000));
        assert_eq!(t.records()[2].parent, Some(0));

        let snap = reg.snapshot();
        assert_eq!(snap.counter("span.count", &[("span", "mapping")]), Some(1));
        let h = snap
            .histogram("span.duration_ns", &[("span", "chain_setup")])
            .unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 9_000);
    }

    #[test]
    fn out_of_order_exit_is_tolerated() {
        let reg = Registry::new();
        let mut t = Tracer::new(reg);
        let a = t.enter("a", 0);
        let b = t.enter("b", 10);
        t.exit(a, 20); // a closes before its child b
        t.exit(b, 30);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.records()[0].duration_ns(), Some(20));
        assert_eq!(t.records()[1].duration_ns(), Some(20));
        assert_eq!(t.records()[1].parent, Some(0));
    }

    #[test]
    fn trace_json_dump_has_parentage() {
        let reg = Registry::new();
        let mut t = Tracer::new(reg);
        let a = t.enter("deploy", 100);
        let b = t.enter("rpc", 200);
        t.exit(b, 300);
        t.exit(a, 400);
        let v = t.json_value();
        let spans = v.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].get("parent").unwrap().is_null());
        assert_eq!(spans[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(spans[1].get("duration_ns").unwrap().as_u64(), Some(100));
    }

    #[test]
    fn ring_keeps_the_newest_spans_and_counts_the_rest() {
        let reg = Registry::new();
        let mut t = Tracer::new(reg.clone());
        let overflow = 5;
        let total = SPAN_RING_CAP + overflow;
        // One long-lived outer span whose record is evicted while open.
        let outer = t.enter("outer", 0);
        for i in 1..total as u64 {
            let sp = t.enter("inner", i * 10);
            t.exit(sp, i * 10 + 3);
        }
        assert_eq!(t.records().len(), SPAN_RING_CAP);
        assert_eq!(t.evicted(), overflow as u64);
        assert_eq!(t.records()[0].seq, overflow as u64);
        // The retained inner spans still name their evicted parent.
        assert!(t.records().iter().all(|r| r.parent == Some(0)));
        // Closing a span whose record is gone neither panics nor skips
        // its metrics.
        t.exit(outer, 1_000_000);
        assert_eq!(t.depth(), 0);

        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("telemetry.spans_evicted", &[]),
            Some(overflow as u64)
        );
        let count = |name| snap.counter("span.count", &[("span", name)]).unwrap();
        let hist = |name| {
            snap.histogram("span.duration_ns", &[("span", name)])
                .unwrap()
                .count
        };
        assert_eq!(count("inner") + count("outer"), total as u64);
        assert_eq!(hist("inner") + hist("outer"), total as u64);
        assert_eq!(
            snap.histogram("span.duration_ns", &[("span", "outer")])
                .unwrap()
                .sum,
            1_000_000
        );
        let spans = t.json_value();
        let spans = spans.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), SPAN_RING_CAP);
        assert_eq!(spans[0].get("seq").unwrap().as_u64(), Some(overflow as u64));
        assert_eq!(spans[0].get("parent").unwrap().as_u64(), Some(0));
    }
}
