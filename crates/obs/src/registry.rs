//! The metrics registry: named counters, gauges, and histograms with
//! consistent snapshot and Prometheus/JSON exposition.

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::metric::{Counter, Gauge};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<LatencyHistogram>>,
}

/// A registry of named metrics.
///
/// Registration (`counter` / `gauge` / `histogram`) takes a short mutex
/// and is expected to happen once at wiring time; the returned `Arc`
/// handles are then recorded into lock-free, so steady-state hot paths
/// never touch the registry lock. Existing atomic cells can be *adopted*
/// ([`adopt_counter`](Self::adopt_counter)), which is how legacy metrics
/// structs (`EngineMetrics`, `PipelineMetrics`) become thin views over
/// the registry: the cell a hot path already increments is the very cell
/// the registry renders.
///
/// Histogram values are nanoseconds by convention; names carry their unit
/// as a suffix (`_ns`, `_seconds`, plain counts).
#[derive(Debug, Default)]
pub struct ObsRegistry {
    inner: Mutex<Inner>,
}

impl ObsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.lock();
        Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Registers an existing counter cell under `name`, replacing any
    /// previous registration. The registry renders the live value of the
    /// adopted cell — no copying, no double counting.
    pub fn adopt_counter(&self, name: &str, cell: Arc<Counter>) {
        self.lock().counters.insert(name.to_string(), cell);
    }

    /// Returns the gauge registered under `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.lock();
        Arc::clone(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Registers an existing histogram cell under `name`, replacing any
    /// previous registration — the histogram analogue of
    /// [`adopt_counter`](Self::adopt_counter). The registry renders the
    /// live state of the adopted cell.
    pub fn adopt_histogram(&self, name: &str, cell: Arc<LatencyHistogram>) {
        self.lock().histograms.insert(name.to_string(), cell);
    }

    /// Returns the histogram registered under `name`, creating it if
    /// absent.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        let mut inner = self.lock();
        Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(LatencyHistogram::new())),
        )
    }

    /// A point-in-time snapshot of every registered metric, names sorted.
    pub fn snapshot(&self) -> ObsSnapshot {
        let inner = self.lock();
        ObsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Renders the current state in the Prometheus text exposition format:
    /// counters and gauges as single samples, histograms as summaries with
    /// `quantile` labels plus `_sum` and `_count` series.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// Renders the current state as a JSON object with `counters`,
    /// `gauges`, and `histograms` maps.
    pub fn render_json(&self) -> String {
        self.snapshot().render_json()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Recording paths never hold this lock, so poisoning can only come
        // from a panicking registration — recover the data either way.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// A consistent point-in-time copy of a registry's metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSnapshot {
    /// Counter values by name.
    pub(crate) counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub(crate) gauges: Vec<(String, f64)>,
    /// Histogram snapshots by name.
    pub(crate) histograms: Vec<(String, HistogramSnapshot)>,
}

impl ObsSnapshot {
    /// The value of the named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The value of the named gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// See [`ObsRegistry::render_prometheus`].
    pub(crate) fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.quantile(q));
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }

    /// See [`ObsRegistry::render_json`].
    pub(crate) fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_string(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(name), json_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                json_string(name),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                json_f64(h.mean()),
                h.p50(),
                h.p90(),
                h.p99(),
                h.p999(),
            );
        }
        out.push_str("}}");
        out
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; anything else becomes
/// `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no NaN/Infinity literals; clamp them to null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_same_cell() {
        let reg = ObsRegistry::new();
        let a = reg.counter("queries_total");
        let b = reg.counter("queries_total");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn adopted_counter_is_rendered_live() {
        let reg = ObsRegistry::new();
        let cell = Arc::new(Counter::new());
        cell.add(5);
        reg.adopt_counter("cache_hits", Arc::clone(&cell));
        assert_eq!(reg.snapshot().counter("cache_hits"), Some(5));
        cell.inc();
        assert_eq!(reg.snapshot().counter("cache_hits"), Some(6));
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = ObsRegistry::new();
        reg.counter("queries_total").add(3);
        reg.gauge("ingest_lag").set(1.5);
        let h = reg.histogram("query_ns");
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE queries_total counter"));
        assert!(text.contains("queries_total 3"));
        assert!(text.contains("# TYPE ingest_lag gauge"));
        assert!(text.contains("ingest_lag 1.5"));
        assert!(text.contains("# TYPE query_ns summary"));
        assert!(text.contains("query_ns{quantile=\"0.99\"}"));
        assert!(text.contains("query_ns_count 3"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let reg = ObsRegistry::new();
        reg.counter("a").inc();
        reg.gauge("g").set(2.0);
        reg.histogram("h").record(7);
        let json = reg.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a\":1"));
        assert!(json.contains("\"g\":2"));
        assert!(json.contains("\"count\":1"));
        // Balanced braces (cheap well-formedness check without a parser).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let reg = ObsRegistry::new();
        reg.counter("c").add(2);
        reg.gauge("g").set(0.5);
        reg.histogram("h").record(9);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(2));
        assert_eq!(snap.gauge("g"), Some(0.5));
        assert_eq!(snap.histogram("h").map(|h| h.count()), Some(1));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn sanitize_replaces_illegal_chars() {
        assert_eq!(sanitize("a.b-c d"), "a_b_c_d");
        assert_eq!(sanitize("ok_name:x9"), "ok_name:x9");
    }
}
