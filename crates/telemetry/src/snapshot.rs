//! Point-in-time reads of the metric registry, with JSON and text rendering.

use crate::histogram::Unit;
use crate::metrics;

/// One counter's value at snapshot time.
#[derive(Clone, Debug)]
pub struct CounterSnapshot {
    /// The counter's registered name, e.g. `"eval.queries"`.
    pub name: &'static str,
    /// The value at snapshot time.
    pub value: u64,
}

/// One histogram's state at snapshot time.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// The histogram's registered name, e.g. `"eval.visits_per_query"`.
    pub name: &'static str,
    /// What the recorded values measure.
    pub unit: Unit,
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation, if any.
    pub min: Option<u64>,
    /// Largest observation, if any.
    pub max: Option<u64>,
    /// Log2-resolution median (upper bound of the bucket holding p50,
    /// clamped to `[min, max]`).
    pub p50: Option<u64>,
    /// Log2-resolution p99 (upper bound of the bucket holding p99, clamped
    /// to `[min, max]`).
    pub p99: Option<u64>,
    /// Non-empty buckets as `(upper_bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// A point-in-time read of every registered metric.
///
/// Reads are per-metric atomic (relaxed loads), so a snapshot taken while
/// recorders are still running is consistent per value but not across
/// values; the harnesses all snapshot after disabling the recorder.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// All registered counters, in registry order.
    pub counters: Vec<CounterSnapshot>,
    /// All registered histograms, in registry order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Read the whole registry.
    pub fn collect() -> Self {
        let counters = metrics::counters()
            .iter()
            .map(|c| CounterSnapshot {
                name: c.name(),
                value: c.get(),
            })
            .collect();
        let histograms = metrics::histograms()
            .iter()
            .map(|h| HistogramSnapshot {
                name: h.name(),
                unit: h.unit(),
                count: h.count(),
                sum: h.sum(),
                min: h.min(),
                max: h.max(),
                p50: h.quantile_upper_bound(0.5),
                p99: h.quantile_upper_bound(0.99),
                buckets: h.nonzero_buckets(),
            })
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }

    /// Look up a counter's value by registered name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Look up a histogram by registered name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Render the snapshot as a JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": {"eval.queries": 12, ...},
    ///   "histograms": {
    ///     "eval.visits_per_query": {
    ///       "unit": "count", "count": 12, "sum": 340,
    ///       "min": 4, "max": 96, "p50": 31, "p99": 96,
    ///       "buckets": [{"le": 7, "n": 2}, ...]
    ///     }, ...
    ///   }
    /// }
    /// ```
    ///
    /// Metric names contain only `[a-z0-9._]`, so no string escaping is
    /// needed. Zero-count metrics are included so consumers see the full
    /// registry shape.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", c.name, c.value));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"unit\": \"{}\", \"count\": {}, \"sum\": {}, \
                 \"min\": {}, \"max\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": [",
                h.name,
                h.unit.as_str(),
                h.count,
                h.sum,
                json_opt(h.min),
                json_opt(h.max),
                json_opt(h.p50),
                json_opt(h.p99),
            ));
            for (j, (le, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{{\"le\": {le}, \"n\": {n}}}"));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Render a human-readable report for `dkindex stats`: nonzero counters
    /// first, then nonempty histograms with count / sum / min / p50 / p99 /
    /// max. Returns a note instead if nothing was recorded.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let live_counters: Vec<_> = self.counters.iter().filter(|c| c.value > 0).collect();
        let live_hists: Vec<_> = self.histograms.iter().filter(|h| h.count > 0).collect();
        if live_counters.is_empty() && live_hists.is_empty() {
            out.push_str("telemetry: no events recorded\n");
            return out;
        }
        if !live_counters.is_empty() {
            out.push_str("counters:\n");
            for c in &live_counters {
                out.push_str(&format!("  {:<32} {}\n", c.name, c.value));
            }
        }
        if !live_hists.is_empty() {
            out.push_str("histograms:\n");
            for h in &live_hists {
                out.push_str(&format!(
                    "  {:<32} n={} sum={}{u} min={} p50<={} p99<={} max={}\n",
                    h.name,
                    h.count,
                    h.sum,
                    h.min.unwrap_or(0),
                    h.p50.unwrap_or(0),
                    h.p99.unwrap_or(0),
                    h.max.unwrap_or(0),
                    u = match h.unit {
                        Unit::Nanos => "ns",
                        Unit::Count => "",
                    },
                ));
            }
        }
        out
    }
}

fn json_opt(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::recorder_lock;

    #[test]
    fn snapshot_reads_registry_and_renders_json_and_text() {
        let _guard = recorder_lock();
        crate::reset();
        crate::enable();
        metrics::EVAL_QUERIES.add(3);
        metrics::EVAL_VISITS_PER_QUERY.record(10);
        metrics::EVAL_VISITS_PER_QUERY.record(20);
        crate::disable();

        let snap = Snapshot::collect();
        assert_eq!(snap.counter("eval.queries"), Some(3));
        assert_eq!(snap.counter("no.such.metric"), None);
        let h = snap.histogram("eval.visits_per_query").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 30);
        assert_eq!(h.min, Some(10));
        assert_eq!(h.max, Some(20));
        assert_eq!(h.mean(), Some(15.0));

        let json = snap.to_json();
        assert!(json.contains("\"eval.queries\": 3"));
        assert!(json.contains("\"eval.visits_per_query\""));
        assert!(json.contains("\"unit\": \"count\""));
        // Every registered metric appears even when zero.
        assert!(json.contains("\"partition.rounds\": 0"));

        let text = snap.render_text();
        assert!(text.contains("eval.queries"));
        assert!(text.contains("n=2"));
        crate::reset();
    }

    #[test]
    fn empty_snapshot_text_says_so() {
        let _guard = recorder_lock();
        crate::reset();
        let snap = Snapshot::collect();
        assert_eq!(snap.render_text(), "telemetry: no events recorded\n");
    }
}
