//! # escape-telemetry
//!
//! Metrics and span tracing for the whole ESCAPE-RS stack.
//!
//! * [`Registry`] — a named-metric registry handing out lock-free
//!   [`Counter`] / [`Gauge`] / [`Histogram`] handles. Registration takes
//!   a mutex once; the handles themselves are plain atomics, so the hot
//!   paths (the netem event loop, the POX packet-in path) pay one
//!   `fetch_add` per event. Metrics carry optional labels, e.g.
//!   `steering.flow_mods{dpid="3"}`.
//! * [`Tracer`] — lightweight spans ([`Tracer::enter`] / [`Tracer::exit`])
//!   with parent/child nesting. Timestamps are supplied by the caller
//!   (the netem virtual clock, in nanoseconds), so traces are fully
//!   deterministic for a fixed seed. Every finished span feeds
//!   `span.duration_ns{span="<name>"}` and `span.count{span="<name>"}`;
//!   the records themselves live in a ring of [`SPAN_RING_CAP`].
//! * Exposition — [`Snapshot`] renders as Prometheus text
//!   ([`Snapshot::prometheus`]) or JSON ([`Snapshot::to_json`]), and two
//!   snapshots diff into a [`TelemetryReport`] of what happened between
//!   them.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use escape_json::Value;

pub mod chrome;
pub mod sampler;
mod span;
pub use chrome::ChromeEvent;
pub use sampler::{Sample, Sampler, SamplerConfig};
pub use span::{SpanHandle, SpanRecord, Tracer, SPAN_RING_CAP};

/// Label set attached to a metric: sorted `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

fn normalize_labels(labels: &[(&str, &str)]) -> Labels {
    let mut l: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    l
}

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, utilization).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: i64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Records `v` and remembers the largest value ever set (exposed as
    /// a companion `<name>.max` sample in snapshots).
    pub fn set_max_tracking(&self, v: i64, max_cell: &Gauge) {
        self.set(v);
        if v > max_cell.get() {
            max_cell.set(v);
        }
    }
}

/// Fixed-bucket histogram over `u64` observations (typically
/// nanoseconds). Buckets are cumulative-upper-bound style like
/// Prometheus: `bounds[i]` is the inclusive upper edge of bucket `i`,
/// with an implicit `+Inf` bucket at the end.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

struct HistogramCore {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>, // len = bounds.len() + 1 (overflow)
    count: AtomicU64,
    sum: AtomicU64,
}

/// Default duration buckets: 1µs → 10s, one per decade plus midpoints.
pub const DURATION_BOUNDS_NS: &[u64] = &[
    1_000,
    5_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
    5_000_000_000,
    10_000_000_000,
];

impl Histogram {
    pub fn observe(&self, v: u64) {
        let idx = self.core.bounds.partition_point(|&b| b < v);
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    fn data(&self) -> HistogramData {
        HistogramData {
            bounds: self.core.bounds.clone(),
            counts: self
                .core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Immutable histogram contents as captured in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramData {
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) counts; one longer than `bounds`
    /// (the final entry is the overflow bucket).
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistogramData {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated quantile (`q` in 0.0..=1.0) by linear interpolation
    /// inside the containing bucket. Observations past the last bound
    /// report the last bound (the histogram cannot see further).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                if i >= self.bounds.len() {
                    return *self.bounds.last().unwrap_or(&0);
                }
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let into = (target - seen) as f64 / c as f64;
                return lower + ((upper - lower) as f64 * into) as u64;
            }
            seen += c;
        }
        *self.bounds.last().unwrap_or(&0)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Labels,
}

/// The process-wide metric registry. Cheap to clone (all clones share
/// state); each subsystem holds its own clone plus cached handles.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<HashMap<MetricKey, Metric>>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Counter without labels.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Counter with labels, e.g.
    /// `counter_with("steering.flow_mods", &[("dpid", "3")])`.
    /// Registering the same name+labels twice returns the same cell.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey {
            name: name.to_string(),
            labels: normalize_labels(labels),
        };
        let mut m = self.metrics.lock().unwrap();
        match m.entry(key).or_insert_with(|| {
            Metric::Counter(Counter {
                cell: Arc::new(AtomicU64::new(0)),
            })
        }) {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey {
            name: name.to_string(),
            labels: normalize_labels(labels),
        };
        let mut m = self.metrics.lock().unwrap();
        match m.entry(key).or_insert_with(|| {
            Metric::Gauge(Gauge {
                cell: Arc::new(AtomicI64::new(0)),
            })
        }) {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Histogram with the default duration buckets ([`DURATION_BOUNDS_NS`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[], DURATION_BOUNDS_NS)
    }

    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        assert!(
            !bounds.is_empty() && bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be sorted and non-empty"
        );
        let key = MetricKey {
            name: name.to_string(),
            labels: normalize_labels(labels),
        };
        let mut m = self.metrics.lock().unwrap();
        match m.entry(key).or_insert_with(|| {
            Metric::Histogram(Histogram {
                core: Arc::new(HistogramCore {
                    bounds: bounds.to_vec(),
                    buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                }),
            })
        }) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Point-in-time copy of every registered metric, sorted by name
    /// then labels.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock().unwrap();
        let mut entries: Vec<MetricSnapshot> = m
            .iter()
            .map(|(key, metric)| MetricSnapshot {
                name: key.name.clone(),
                labels: key.labels.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.data()),
                },
            })
            .collect();
        entries.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { entries }
    }
}

/// One metric as captured in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    pub name: String,
    pub labels: Labels,
    pub value: MetricValue,
}

#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramData),
}

/// Point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub entries: Vec<MetricSnapshot>,
}

fn label_suffix(labels: &Labels) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
        format!("{{{}}}", parts.join(","))
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; our dotted names map
/// dots to underscores.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl Snapshot {
    /// Counter value by name and labels (test/report convenience).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let labels = normalize_labels(labels);
        self.entries.iter().find_map(|e| match &e.value {
            MetricValue::Counter(v) if e.name == name && e.labels == labels => Some(*v),
            _ => None,
        })
    }

    /// Sum of a counter across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match &e.value {
                MetricValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let labels = normalize_labels(labels);
        self.entries.iter().find_map(|e| match &e.value {
            MetricValue::Gauge(v) if e.name == name && e.labels == labels => Some(*v),
            _ => None,
        })
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramData> {
        let labels = normalize_labels(labels);
        self.entries.iter().find_map(|e| match &e.value {
            MetricValue::Histogram(h) if e.name == name && e.labels == labels => Some(h),
            _ => None,
        })
    }

    /// Prometheus text exposition format.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_typed = String::new();
        for e in &self.entries {
            let pname = prom_name(&e.name);
            match &e.value {
                MetricValue::Counter(v) => {
                    if last_typed != pname {
                        out.push_str(&format!("# TYPE {pname} counter\n"));
                        last_typed = pname.clone();
                    }
                    out.push_str(&format!("{pname}{} {v}\n", label_suffix(&e.labels)));
                }
                MetricValue::Gauge(v) => {
                    if last_typed != pname {
                        out.push_str(&format!("# TYPE {pname} gauge\n"));
                        last_typed = pname.clone();
                    }
                    out.push_str(&format!("{pname}{} {v}\n", label_suffix(&e.labels)));
                }
                MetricValue::Histogram(h) => {
                    if last_typed != pname {
                        out.push_str(&format!("# TYPE {pname} histogram\n"));
                        last_typed = pname.clone();
                    }
                    let mut cum = 0u64;
                    for (i, &c) in h.counts.iter().enumerate() {
                        cum += c;
                        let le = if i < h.bounds.len() {
                            h.bounds[i].to_string()
                        } else {
                            "+Inf".to_string()
                        };
                        let mut labels = e.labels.clone();
                        labels.push(("le".to_string(), le));
                        out.push_str(&format!("{pname}_bucket{} {cum}\n", label_suffix(&labels)));
                    }
                    out.push_str(&format!(
                        "{pname}_sum{} {}\n",
                        label_suffix(&e.labels),
                        h.sum
                    ));
                    out.push_str(&format!(
                        "{pname}_count{} {}\n",
                        label_suffix(&e.labels),
                        h.count
                    ));
                }
            }
        }
        out
    }

    /// JSON exposition via `escape-json`.
    pub fn json_value(&self) -> Value {
        let mut arr = Vec::new();
        for e in &self.entries {
            let labels = Value::Obj(
                e.labels
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect(),
            );
            let v = match &e.value {
                MetricValue::Counter(c) => Value::obj()
                    .set("name", e.name.as_str())
                    .set("type", "counter")
                    .set("labels", labels)
                    .set("value", *c),
                MetricValue::Gauge(g) => Value::obj()
                    .set("name", e.name.as_str())
                    .set("type", "gauge")
                    .set("labels", labels)
                    .set("value", *g as f64),
                MetricValue::Histogram(h) => Value::obj()
                    .set("name", e.name.as_str())
                    .set("type", "histogram")
                    .set("labels", labels)
                    .set("count", h.count)
                    .set("sum", h.sum)
                    .set("mean", h.mean())
                    .set("p50", h.quantile(0.50))
                    .set("p99", h.quantile(0.99))
                    .set("bounds", h.bounds.clone())
                    .set("buckets", h.counts.clone()),
            };
            arr.push(v);
        }
        Value::obj().set("metrics", Value::Arr(arr))
    }

    pub fn to_json(&self) -> String {
        self.json_value().to_string_pretty()
    }

    /// What changed between `self` (earlier) and `later`: counter
    /// deltas, gauge before/after pairs, and histogram activity. A series
    /// only in `later` counts from zero; one only in `self` is ignored.
    /// Both snapshots must be sorted by (name, labels), as
    /// [`Registry::snapshot`] produces them: one merge pass walks them
    /// together.
    pub fn diff(&self, later: &Snapshot) -> TelemetryReport {
        let mut entries = Vec::new();
        let mut earlier = self.entries.iter().peekable();
        for e in &later.entries {
            let key = (&e.name, &e.labels);
            while earlier.next_if(|b| (&b.name, &b.labels) < key).is_some() {}
            let before = earlier
                .next_if(|b| (&b.name, &b.labels) == key)
                .map(|b| &b.value);
            match (&e.value, before) {
                (MetricValue::Counter(now), before) => {
                    let was = match before {
                        Some(MetricValue::Counter(w)) => *w,
                        _ => 0,
                    };
                    if *now != was {
                        entries.push(ReportEntry::CounterDelta {
                            name: e.name.clone(),
                            labels: e.labels.clone(),
                            delta: now.saturating_sub(was),
                        });
                    }
                }
                (MetricValue::Gauge(now), before) => {
                    let was = match before {
                        Some(MetricValue::Gauge(w)) => *w,
                        _ => 0,
                    };
                    if *now != was {
                        entries.push(ReportEntry::GaugeChange {
                            name: e.name.clone(),
                            labels: e.labels.clone(),
                            from: was,
                            to: *now,
                        });
                    }
                }
                (MetricValue::Histogram(now), before) => {
                    let (was_count, was_sum) = match before {
                        Some(MetricValue::Histogram(w)) => (w.count, w.sum),
                        _ => (0, 0),
                    };
                    if now.count != was_count {
                        let dc = now.count - was_count;
                        let ds = now.sum - was_sum;
                        entries.push(ReportEntry::HistogramActivity {
                            name: e.name.clone(),
                            labels: e.labels.clone(),
                            observations: dc,
                            mean: ds as f64 / dc as f64,
                        });
                    }
                }
            }
        }
        TelemetryReport { entries }
    }
}

/// The difference between two snapshots — "what happened during X".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    pub entries: Vec<ReportEntry>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum ReportEntry {
    CounterDelta {
        name: String,
        labels: Labels,
        delta: u64,
    },
    GaugeChange {
        name: String,
        labels: Labels,
        from: i64,
        to: i64,
    },
    HistogramActivity {
        name: String,
        labels: Labels,
        observations: u64,
        mean: f64,
    },
}

impl ReportEntry {
    pub fn name(&self) -> &str {
        match self {
            ReportEntry::CounterDelta { name, .. }
            | ReportEntry::GaugeChange { name, .. }
            | ReportEntry::HistogramActivity { name, .. } => name,
        }
    }
}

impl TelemetryReport {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter delta by name (summed over label sets), 0 if unchanged.
    pub fn counter_delta(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter_map(|e| match e {
                ReportEntry::CounterDelta { name: n, delta, .. } if n == name => Some(*delta),
                _ => None,
            })
            .sum()
    }
}

impl fmt::Display for TelemetryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return writeln!(f, "(no telemetry activity)");
        }
        for e in &self.entries {
            match e {
                ReportEntry::CounterDelta {
                    name,
                    labels,
                    delta,
                } => writeln!(f, "{name}{} +{delta}", label_suffix(labels))?,
                ReportEntry::GaugeChange {
                    name,
                    labels,
                    from,
                    to,
                } => writeln!(f, "{name}{} {from} -> {to}", label_suffix(labels))?,
                ReportEntry::HistogramActivity {
                    name,
                    labels,
                    observations,
                    mean,
                } => writeln!(
                    f,
                    "{name}{} {observations} observations, mean {mean:.0}",
                    label_suffix(labels)
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_cells_and_labels_separate_them() {
        let r = Registry::new();
        let a = r.counter("x.events");
        let b = r.counter("x.events");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);

        let l1 = r.counter_with("x.drops", &[("link", "a-b")]);
        let l2 = r.counter_with("x.drops", &[("link", "b-c")]);
        l1.inc();
        l1.inc();
        l2.inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("x.drops", &[("link", "a-b")]), Some(2));
        assert_eq!(snap.counter("x.drops", &[("link", "b-c")]), Some(1));
        assert_eq!(snap.counter_total("x.drops"), 3);
    }

    #[test]
    fn histogram_bucketing_is_inclusive_upper_bound() {
        let r = Registry::new();
        let h = r.histogram_with("h", &[], &[10, 20, 30]);
        for v in [5, 10, 11, 20, 25, 31, 1000] {
            h.observe(v);
        }
        let d = r.snapshot().histogram("h", &[]).unwrap().clone();
        // buckets: <=10 -> {5,10}, <=20 -> {11,20}, <=30 -> {25}, +Inf -> {31,1000}
        assert_eq!(d.counts, vec![2, 2, 1, 2]);
        assert_eq!(d.count, 7);
        assert_eq!(d.sum, 5 + 10 + 11 + 20 + 25 + 31 + 1000);
    }

    #[test]
    fn quantile_interpolates_and_clamps() {
        let r = Registry::new();
        let h = r.histogram_with("q", &[], &[100, 200, 300]);
        for _ in 0..50 {
            h.observe(50); // first bucket
        }
        for _ in 0..50 {
            h.observe(250); // third bucket
        }
        let d = r.snapshot().histogram("q", &[]).unwrap().clone();
        let p25 = d.quantile(0.25);
        assert!(p25 <= 100, "p25 {p25} should fall in the first bucket");
        let p75 = d.quantile(0.75);
        assert!(
            (200..=300).contains(&p75),
            "p75 {p75} should fall in the third bucket"
        );
        // Overflow observations clamp to the last bound.
        h.observe(10_000);
        let d = r.snapshot().histogram("q", &[]).unwrap().clone();
        assert_eq!(d.quantile(1.0), 300);
        // Empty histogram.
        let e = r.histogram_with("empty", &[], &[1]);
        let _ = e;
        assert_eq!(
            r.snapshot().histogram("empty", &[]).unwrap().quantile(0.5),
            0
        );
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram: every quantile is 0, including the extremes.
        let r = Registry::new();
        let _h = r.histogram_with("edge.empty", &[], &[10, 20]);
        let d = r.snapshot().histogram("edge.empty", &[]).unwrap().clone();
        assert_eq!(d.quantile(0.0), 0);
        assert_eq!(d.quantile(0.5), 0);
        assert_eq!(d.quantile(1.0), 0);

        // Single bucket holding every observation: all quantiles land
        // inside [0, bound], and q=1.0 reaches the bound.
        let h = r.histogram_with("edge.single", &[], &[100]);
        for _ in 0..10 {
            h.observe(50);
        }
        let d = r.snapshot().histogram("edge.single", &[]).unwrap().clone();
        assert!(d.quantile(0.0) <= 100);
        assert_eq!(d.quantile(1.0), 100);

        // q=0 and q=1 on a two-bucket spread: q=0 stays in the first
        // occupied bucket, q=1 in the last. Out-of-range q clamps.
        let h = r.histogram_with("edge.spread", &[], &[10, 20]);
        h.observe(5);
        h.observe(15);
        let d = r.snapshot().histogram("edge.spread", &[]).unwrap().clone();
        assert!(d.quantile(0.0) <= 10, "q=0 must stay in the first bucket");
        assert!(
            (10..=20).contains(&d.quantile(1.0)),
            "q=1 must land in the last occupied bucket"
        );
        assert_eq!(d.quantile(-3.0), d.quantile(0.0));
        assert_eq!(d.quantile(7.0), d.quantile(1.0));
    }

    #[test]
    fn prometheus_label_values_escape_specials() {
        let r = Registry::new();
        r.counter_with("esc.count", &[("msg", "say \"hi\" \\ line1\nline2")])
            .inc();
        let text = r.snapshot().prometheus();
        // Quotes, backslashes and newlines must come out escaped, or the
        // exposition line would be unparseable (a raw newline splits it).
        assert!(
            text.contains(r#"esc_count{msg="say \"hi\" \\ line1\nline2"} 1"#),
            "escaped label value missing from:\n{text}"
        );
        for line in text.lines() {
            assert!(
                !line.is_empty() || text.ends_with('\n'),
                "raw newline leaked into an exposition line"
            );
        }
    }

    #[test]
    fn replica_label_set_escapes_hostile_names() {
        // The per-replica scaling gauges carry operator-supplied chain
        // and VNF names in their {chain,replica,vnf} label set; quotes,
        // backslashes and newlines in those names must not break the
        // exposition.
        let r = Registry::new();
        r.gauge_with(
            "escape.replica_utilization_pm",
            &[
                ("chain", "de\"mo\\prod"),
                ("replica", "0"),
                ("vnf", "fw\nedge"),
            ],
        )
        .set(750);
        let text = r.snapshot().prometheus();
        assert!(
            text.contains(
                r#"escape_replica_utilization_pm{chain="de\"mo\\prod",replica="0",vnf="fw\nedge"} 750"#
            ),
            "escaped replica label set missing from:\n{text}"
        );
        assert_eq!(
            text.lines().filter(|l| !l.starts_with('#')).count(),
            1,
            "a raw newline split the exposition line:\n{text}"
        );
    }

    #[test]
    fn quantile_of_uniform_stream_is_roughly_linear() {
        let r = Registry::new();
        let bounds: Vec<u64> = (1..=100).map(|i| i * 10).collect();
        let h = r.histogram_with("u", &[], &bounds);
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let d = r.snapshot().histogram("u", &[]).unwrap().clone();
        for (q, expect) in [(0.1, 100), (0.5, 500), (0.9, 900)] {
            let got = d.quantile(q);
            let err = (got as i64 - expect).unsigned_abs();
            assert!(err <= 20, "q{q}: got {got}, want ~{expect}");
        }
        assert!((d.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn prometheus_text_format_shape() {
        let r = Registry::new();
        r.counter_with("net.drops", &[("link", "a-b")]).add(4);
        r.gauge("net.queue_depth").set(7);
        let h = r.histogram_with("rpc.latency_ns", &[], &[1000, 2000]);
        h.observe(500);
        h.observe(1500);
        h.observe(9999);
        let text = r.snapshot().prometheus();
        assert!(text.contains("# TYPE net_drops counter"));
        assert!(text.contains("net_drops{link=\"a-b\"} 4"));
        assert!(text.contains("# TYPE net_queue_depth gauge"));
        assert!(text.contains("net_queue_depth 7"));
        assert!(text.contains("rpc_latency_ns_bucket{le=\"1000\"} 1"));
        assert!(text.contains("rpc_latency_ns_bucket{le=\"2000\"} 2"));
        assert!(text.contains("rpc_latency_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("rpc_latency_ns_sum 11999"));
        assert!(text.contains("rpc_latency_ns_count 3"));
    }

    #[test]
    fn json_snapshot_parses_and_carries_values() {
        let r = Registry::new();
        r.counter("a.count").add(5);
        r.histogram_with("a.lat", &[], &[10, 20]).observe(15);
        let snap = r.snapshot();
        let parsed = escape_json::Value::parse(&snap.to_json()).unwrap();
        let metrics = parsed.get("metrics").unwrap().as_arr().unwrap();
        assert_eq!(metrics.len(), 2);
        let counter = metrics
            .iter()
            .find(|m| m.get("type").unwrap().as_str() == Some("counter"))
            .unwrap();
        assert_eq!(counter.get("value").unwrap().as_u64(), Some(5));
        let hist = metrics
            .iter()
            .find(|m| m.get("type").unwrap().as_str() == Some("histogram"))
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn snapshot_diff_reports_only_changes() {
        let r = Registry::new();
        let c = r.counter("work.done");
        let g = r.gauge("depth");
        let h = r.histogram_with("lat", &[], &[100]);
        c.add(2);
        g.set(1);
        let mut before = r.snapshot();
        // A series only the earlier snapshot holds (sorted into place):
        // it is ignored, and it must not knock the walk out of step.
        before.entries.insert(
            1,
            MetricSnapshot {
                name: "gone".into(),
                labels: Vec::new(),
                value: MetricValue::Counter(7),
            },
        );
        c.add(3);
        g.set(5);
        h.observe(50);
        h.observe(150);
        // A series only the later snapshot holds counts from zero.
        r.counter_with("fresh", &[("k", "v")]).add(4);
        let after = r.snapshot();
        let report = before.diff(&after);
        assert_eq!(report.entries.len(), 4, "{report}");
        assert_eq!(report.counter_delta("work.done"), 3);
        assert_eq!(report.counter_delta("fresh"), 4);
        assert_eq!(report.counter_delta("gone"), 0);
        assert!(report
            .entries
            .iter()
            .any(|e| matches!(e, ReportEntry::GaugeChange { from: 1, to: 5, .. })));
        assert!(report.entries.iter().any(|e| matches!(
            e,
            ReportEntry::HistogramActivity {
                observations: 2,
                ..
            }
        )));
        // Diffing identical snapshots is empty.
        assert!(after.diff(&after).is_empty());
        let text = format!("{report}");
        assert!(text.contains("work.done +3"));
    }
}
