//! Metric registry: named counters, gauges, and log2-bucketed
//! histograms.
//!
//! Components register metrics by name once (at construction time) and
//! receive copyable handles ([`CounterId`], [`GaugeId`],
//! [`HistogramId`]) that index directly into dense vectors, so the hot
//! path is a plain `u64` add with no hashing, locking, or branching on
//! configuration. Each component owns its own [`MetricRegistry`];
//! registries are [merged](MetricRegistry::merge) into one snapshot at
//! the end of a run (the same pattern used for sharded
//! `CacheStats`).
//!
//! Naming convention: `component.metric`, e.g. `wg.groups`,
//! `rmw.sequences`, `sram.row_writes`.

use std::fmt;
use std::io::{self, Write};

use serde::{Serialize, Value};

/// Handle to a counter registered in a [`MetricRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a gauge registered in a [`MetricRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a histogram registered in a [`MetricRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A monotone event count distribution over power-of-two buckets.
///
/// Bucket 0 counts observations of exactly `0`; bucket `k` (for
/// `k >= 1`) counts observations `v` with `2^(k-1) <= v < 2^k`, so the
/// 65 buckets cover the whole `u64` domain. The invariant tested by the
/// crate's property tests: the bucket counts always sum to
/// [`count`](Log2Histogram::count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the bucket holding `value`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(bucket_index, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Count held in bucket `index` (0..=64).
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".to_owned(), Value::U64(self.count)),
            ("sum".to_owned(), Value::U64(self.sum)),
            ("min".to_owned(), Value::U64(self.min().unwrap_or(0))),
            ("max".to_owned(), Value::U64(self.max().unwrap_or(0))),
            ("mean".to_owned(), Value::F64(self.mean())),
            (
                "buckets".to_owned(),
                Value::Array(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(i, c)| Value::Array(vec![Value::U64(i as u64), Value::U64(c)]))
                        .collect(),
                ),
            ),
        ])
    }
}

#[derive(Debug, Clone)]
struct Named<T> {
    name: String,
    value: T,
}

/// A component-local set of named metrics.
///
/// Registration is idempotent per name, so merging registries from
/// components that registered the same metric (e.g. two cache levels
/// both counting `cache.line_fills`) adds their values.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    counters: Vec<Named<u64>>,
    gauges: Vec<Named<i64>>,
    histograms: Vec<Named<Log2Histogram>>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or looks up) the counter called `name`.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|c| c.name == name) {
            return CounterId(i);
        }
        self.counters.push(Named {
            name: name.to_owned(),
            value: 0,
        });
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or looks up) the gauge called `name`.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|g| g.name == name) {
            return GaugeId(i);
        }
        self.gauges.push(Named {
            name: name.to_owned(),
            value: 0,
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or looks up) the histogram called `name`.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|h| h.name == name) {
            return HistogramId(i);
        }
        self.histograms.push(Named {
            name: name.to_owned(),
            value: Log2Histogram::new(),
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].value += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].value += n;
    }

    /// Sets a gauge to `value`.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: i64) {
        self.gauges[id.0].value = value;
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].value.observe(value);
    }

    /// Folds an externally-accumulated histogram (e.g. a scheduler's
    /// per-worker duration histogram) into the one behind `id`.
    pub fn merge_histogram(&mut self, id: HistogramId, other: &Log2Histogram) {
        self.histograms[id.0].value.merge(other);
    }

    /// Copies the values behind `counters` and `histograms` from
    /// `other`, which must have registered them under the same ids (as
    /// registries built by the same registration sequence do).
    pub fn copy_from(
        &mut self,
        other: &MetricRegistry,
        counters: &[CounterId],
        histograms: &[HistogramId],
    ) {
        for &id in counters {
            self.counters[id.0].value = other.counters[id.0].value;
        }
        for &id in histograms {
            self.histograms[id.0]
                .value
                .clone_from(&other.histograms[id.0].value);
        }
    }

    /// Current value of the counter behind `id`.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].value
    }

    /// All counters as `(name, value)` pairs, in registration order.
    /// Registration is append-only, so successive calls see a stable
    /// prefix — the property the series sampler's snapshot diffing
    /// relies on.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|c| (c.name.as_str(), c.value))
    }

    /// Current value of the counter called `name`, if registered.
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The histogram called `name`, if registered.
    pub fn histogram_by_name(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.value)
    }

    /// Registered metric names, in registration order
    /// (counters, then gauges, then histograms).
    pub fn names(&self) -> Vec<&str> {
        self.counters
            .iter()
            .map(|c| c.name.as_str())
            .chain(self.gauges.iter().map(|g| g.name.as_str()))
            .chain(self.histograms.iter().map(|h| h.name.as_str()))
            .collect()
    }

    /// True when no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters and histograms with the same
    /// name add; same-name gauges keep `other`'s (latest) value.
    pub fn merge(&mut self, other: &MetricRegistry) {
        for c in &other.counters {
            let id = self.counter(&c.name);
            self.add(id, c.value);
        }
        for g in &other.gauges {
            let id = self.gauge(&g.name);
            self.set(id, g.value);
        }
        for h in &other.histograms {
            let id = self.histogram(&h.name);
            self.histograms[id.0].value.merge(&h.value);
        }
    }

    /// Resets every counter, gauge, and histogram to its initial state
    /// while keeping registrations (and handles) valid.
    pub fn reset(&mut self) {
        for c in &mut self.counters {
            c.value = 0;
        }
        for g in &mut self.gauges {
            g.value = 0;
        }
        for h in &mut self.histograms {
            h.value = Log2Histogram::new();
        }
    }

    /// The registry as a JSON value:
    /// `{"counters": {name: n}, "gauges": {name: n},
    ///   "histograms": {name: {count, sum, min, max, mean, buckets}}}`.
    pub fn to_value(&self) -> Value {
        let mut counters: Vec<(String, Value)> = self
            .counters
            .iter()
            .map(|c| (c.name.clone(), Value::U64(c.value)))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<(String, Value)> = self
            .gauges
            .iter()
            .map(|g| (g.name.clone(), Value::I64(g.value)))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, Value)> = self
            .histograms
            .iter()
            .map(|h| (h.name.clone(), h.value.to_value()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(vec![
            ("counters".to_owned(), Value::Object(counters)),
            ("gauges".to_owned(), Value::Object(gauges)),
            ("histograms".to_owned(), Value::Object(histograms)),
        ])
    }

    /// Writes the registry as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_json<W: Write>(&self, mut writer: W) -> io::Result<()> {
        let json = serde_json::to_string_pretty(&self.to_value())
            .expect("serializing a metric snapshot cannot fail");
        writer.write_all(json.as_bytes())?;
        writer.write_all(b"\n")
    }

    /// Renders a plain-text table of all metrics, for terminal reports.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let mut counters: Vec<_> = self.counters.iter().collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        for c in counters {
            out.push_str(&format!("  {:<28} {:>14}\n", c.name, c.value));
        }
        let mut gauges: Vec<_> = self.gauges.iter().collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        for g in gauges {
            out.push_str(&format!("  {:<28} {:>14}\n", g.name, g.value));
        }
        let mut histograms: Vec<_> = self.histograms.iter().collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        for h in histograms {
            let hist = &h.value;
            out.push_str(&format!(
                "  {:<28} count={} mean={:.2} min={} max={}\n",
                h.name,
                hist.count(),
                hist.mean(),
                hist.min().unwrap_or(0),
                hist.max().unwrap_or(0),
            ));
        }
        out
    }
}

impl Serialize for MetricRegistry {
    fn to_json_value(&self) -> Value {
        self.to_value()
    }
}

/// Rewrites a dotted metric name as a Prometheus-legal one:
/// `serve.verb.status.latency_us` → `prefix_serve_verb_status_latency_us`.
fn prometheus_name(prefix: &str, name: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + name.len() + 1);
    out.push_str(prefix);
    out.push('_');
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a registry snapshot (the [`MetricRegistry::to_value`]
/// shape: `{"counters", "gauges", "histograms"}`) as Prometheus
/// text-exposition lines, each metric name prefixed with `prefix`.
///
/// Counters become `# TYPE <name> counter` + a sample; gauges become
/// gauges; each [`Log2Histogram`] becomes a Prometheus histogram with
/// cumulative `_bucket{le="2^k"}` samples (upper bound of each
/// occupied log2 bucket), a `+Inf` bucket, `_sum`, and `_count`.
/// Unknown or malformed sections render nothing rather than erroring:
/// this is a scrape path, and a scrape must not take the daemon down.
pub fn prometheus_text(prefix: &str, snapshot: &Value) -> String {
    let mut out = String::new();
    let section = |snapshot: &Value, key: &str| -> Vec<(String, Value)> {
        snapshot
            .get(key)
            .and_then(Value::as_object)
            .map(<[(String, Value)]>::to_vec)
            .unwrap_or_default()
    };
    for (kind, type_name) in [("counters", "counter"), ("gauges", "gauge")] {
        for (name, value) in section(snapshot, kind) {
            let rendered = match &value {
                Value::U64(n) => n.to_string(),
                Value::I64(n) => n.to_string(),
                Value::F64(n) => n.to_string(),
                _ => continue,
            };
            let name = prometheus_name(prefix, &name);
            out.push_str(&format!("# TYPE {name} {type_name}\n{name} {rendered}\n"));
        }
    }
    for (name, hist) in section(snapshot, "histograms") {
        let (Some(count), Some(sum)) = (
            hist.get("count").and_then(Value::as_u64),
            hist.get("sum").and_then(Value::as_u64),
        ) else {
            continue;
        };
        let name = prometheus_name(prefix, &name);
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for pair in hist.get("buckets").and_then(Value::as_array).unwrap_or(&[]) {
            let fields = pair.as_array().unwrap_or(&[]);
            let (Some(index), Some(bucket_count)) = (
                fields.first().and_then(Value::as_u64),
                fields.get(1).and_then(Value::as_u64),
            ) else {
                continue;
            };
            cumulative += bucket_count;
            // Bucket 0 holds exact zeros; bucket k covers
            // [2^(k-1), 2^k), so its inclusive upper bound is 2^k - 1.
            let le = if index == 0 {
                0u64
            } else {
                2u64.saturating_pow(index as u32).saturating_sub(1)
            };
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
        out.push_str(&format!("{name}_sum {sum}\n{name}_count {count}\n"));
    }
    out
}

impl fmt::Display for MetricRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_cover_powers_of_two() {
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(7), 3);
        assert_eq!(Log2Histogram::bucket_index(8), 4);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), 0.0);
        for v in [3, 1, 4, 1, 5] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 14);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(5));
        assert!((h.mean() - 2.8).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_snapshot_is_well_formed() {
        let mut r = MetricRegistry::new();
        r.histogram("never.observed");
        let v = r.to_value();
        let h = v
            .get("histograms")
            .and_then(|h| h.get("never.observed"))
            .expect("registered histogram appears in the snapshot");
        assert_eq!(h.get("count").and_then(Value::as_u64), Some(0));
        assert_eq!(h.get("sum").and_then(Value::as_u64), Some(0));
        // min is the u64::MAX sentinel internally but must snapshot as 0.
        assert_eq!(h.get("min").and_then(Value::as_u64), Some(0));
        assert_eq!(h.get("max").and_then(Value::as_u64), Some(0));
        assert_eq!(h.get("mean").and_then(Value::as_f64), Some(0.0));
        let buckets = h.get("buckets").and_then(Value::as_array).expect("buckets");
        assert!(buckets.is_empty());
    }

    #[test]
    fn single_sample_histogram() {
        let mut h = Log2Histogram::new();
        h.observe(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 42);
        assert_eq!((h.min(), h.max()), (Some(42), Some(42)));
        assert_eq!(h.mean(), 42.0);
        assert_eq!(
            h.nonzero_buckets(),
            vec![(Log2Histogram::bucket_index(42), 1)]
        );
    }

    #[test]
    fn u64_max_saturates_the_top_bucket_and_wraps_the_sum() {
        let mut h = Log2Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.bucket(64), 2);
        assert_eq!(h.count(), 2);
        assert_eq!((h.min(), h.max()), (Some(u64::MAX), Some(u64::MAX)));
        // The sum wraps (documented behaviour) instead of panicking.
        assert_eq!(h.sum(), u64::MAX.wrapping_add(u64::MAX));
        // The bucket invariant holds even at the saturated edge.
        let total: u64 = h.nonzero_buckets().iter().map(|(_, c)| c).sum();
        assert_eq!(total, h.count());
    }

    #[test]
    fn histogram_merge_is_commutative() {
        let mut a = Log2Histogram::new();
        for v in [0, 1, 7, 4096] {
            a.observe(v);
        }
        let mut b = Log2Histogram::new();
        for v in [3, 3, u64::MAX] {
            b.observe(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Merging an empty histogram is the identity.
        let mut with_empty = a.clone();
        with_empty.merge(&Log2Histogram::new());
        assert_eq!(with_empty, a);
    }

    #[test]
    fn registration_is_idempotent() {
        let mut r = MetricRegistry::new();
        let a = r.counter("wg.groups");
        let b = r.counter("wg.groups");
        assert_eq!(a, b);
        r.inc(a);
        r.add(b, 2);
        assert_eq!(r.counter_by_name("wg.groups"), Some(3));
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = MetricRegistry::new();
        let ca = a.counter("x");
        let ha = a.histogram("h");
        a.add(ca, 5);
        a.observe(ha, 8);

        let mut b = MetricRegistry::new();
        let hb = b.histogram("h");
        let cb = b.counter("x");
        let gb = b.gauge("depth");
        b.add(cb, 7);
        b.observe(hb, 8);
        b.observe(hb, 9);
        b.set(gb, -3);

        a.merge(&b);
        assert_eq!(a.counter_by_name("x"), Some(12));
        let h = a.histogram_by_name("h").expect("merged histogram");
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket(Log2Histogram::bucket_index(8)), 3);
        assert_eq!(
            a.to_value().get("gauges").unwrap().get("depth"),
            Some(&Value::I64(-3))
        );
    }

    #[test]
    fn reset_keeps_handles_valid() {
        let mut r = MetricRegistry::new();
        let c = r.counter("x");
        let h = r.histogram("h");
        r.add(c, 9);
        r.observe(h, 2);
        r.reset();
        assert_eq!(r.counter_value(c), 0);
        assert_eq!(r.histogram_by_name("h").unwrap().count(), 0);
        r.inc(c);
        assert_eq!(r.counter_value(c), 1);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut r = MetricRegistry::new();
        let c = r.counter("rmw.sequences");
        r.add(c, 4);
        let h = r.histogram("wg.group_len");
        r.observe(h, 3);
        let json = serde_json::to_string(&r.to_value()).expect("serialize");
        let back: Value = serde_json::from_str(&json).expect("own output parses");
        assert_eq!(
            back.get("counters").unwrap().get("rmw.sequences"),
            Some(&Value::U64(4))
        );
        let hist = back.get("histograms").unwrap().get("wg.group_len").unwrap();
        assert_eq!(hist.get("count"), Some(&Value::U64(1)));
    }

    #[test]
    fn prometheus_rendering_covers_all_metric_kinds() {
        let mut r = MetricRegistry::new();
        let c = r.counter("serve.requests");
        r.add(c, 42);
        let g = r.gauge("serve.journal.bytes");
        r.set(g, 1024);
        let h = r.histogram("serve.verb.status.latency_us");
        for v in [0, 3, 700] {
            r.observe(h, v);
        }
        let text = prometheus_text("cache8t", &r.to_value());

        assert!(text.contains("# TYPE cache8t_serve_requests counter\n"));
        assert!(text.contains("cache8t_serve_requests 42\n"));
        assert!(text.contains("# TYPE cache8t_serve_journal_bytes gauge\n"));
        assert!(text.contains("cache8t_serve_journal_bytes 1024\n"));
        assert!(text.contains("# TYPE cache8t_serve_verb_status_latency_us histogram\n"));
        // Cumulative buckets: the zero bucket, 3 in [2,4), 700 in
        // [512,1024).
        assert!(text.contains("cache8t_serve_verb_status_latency_us_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("cache8t_serve_verb_status_latency_us_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("cache8t_serve_verb_status_latency_us_bucket{le=\"1023\"} 3\n"));
        assert!(text.contains("cache8t_serve_verb_status_latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("cache8t_serve_verb_status_latency_us_sum 703\n"));
        assert!(text.contains("cache8t_serve_verb_status_latency_us_count 3\n"));
    }

    #[test]
    fn prometheus_rendering_tolerates_malformed_snapshots() {
        assert_eq!(prometheus_text("x", &Value::Null), "");
        let odd = serde_json::from_str(
            r#"{"counters":{"a":"not-a-number"},"histograms":{"h":{"buckets":[[1]]}}}"#,
        )
        .expect("parse");
        assert_eq!(prometheus_text("x", &odd), "");
    }
}
