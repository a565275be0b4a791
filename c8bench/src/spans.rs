//! In-memory span recording for the traced runs.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! the workspace crates. A span's name starts with the layer it times
//! (`trace.decode`, `core.replay.wg`, ...); spans named `bench.*` only
//! group their children (one sweep unit, one replay) and are not layer
//! time.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch;
/// `parent` indexes the recorder's span list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A per-thread buffer; its spans join the recorder on [`Local::commit`].
    pub fn local(&self) -> Local<'_> {
        Local {
            recorder: self,
            spans: Vec::new(),
        }
    }

    /// Every committed span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// A thread's span buffer. Parent indices are local until commit.
#[derive(Debug)]
pub struct Local<'a> {
    recorder: &'a Recorder,
    spans: Vec<Span>,
}

impl Local<'_> {
    /// Opens a span under `parent` (a handle returned by `open`).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.recorder.now();
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, handle: usize) {
        self.spans[handle].end = self.recorder.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let handle = self.open(name, parent);
        let value = f();
        self.close(handle);
        value
    }

    /// Records a span between two instants measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.recorder.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start: at(start),
            end: at(end),
        });
    }

    /// Total duration of the spans named `name` recorded so far.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Moves the buffer into the recorder, rebasing parent indices.
    pub fn commit(self) {
        let mut all = self.recorder.spans.lock().expect("span list poisoned");
        let base = all.len();
        all.extend(self.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that the union of its children covers. Children may overlap each
/// other (they can run on different threads) and may stick out of
/// their parent; only the covered part inside the parent counts.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration() - covered
        })
        .collect()
}

/// Self time in seconds, summed per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *totals.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
    }
    totals
}

/// Self time in seconds summed per layer, leaving out the grouping
/// `bench.*` spans.
pub fn layer_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        if span.layer() != "bench" {
            *totals.entry(span.layer()).or_insert(0.0) += own as f64 / 1e9;
        }
    }
    totals
}

/// Writes `spans` as JSON lines, one span per line with its self time.
pub fn write_jsonl(spans: &[Span], mut out: impl std::io::Write) -> std::io::Result<()> {
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
            span.name, span.start, span.end
        )?;
    }
    out.flush()
}

/// The share of `workers × wall_s` that neither layer self time nor
/// pool idle covers. Negative when the covered time exceeds it.
pub fn unattributed_frac(layer_s: f64, idle_s: f64, workers: usize, wall_s: f64) -> f64 {
    let capacity = workers as f64 * wall_s;
    1.0 - (layer_s + idle_s) / capacity
}

/// The largest |`bench.unattributed_frac`| a traced run may show.
pub const BUDGET_TOLERANCE: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span("bench.job", None, 0, 100),
            span("trace.decode", Some(0), 10, 40),
            // Overlaps the first child on [30, 40): counted once.
            span("core.replay.wg", Some(0), 30, 60),
            // Sticks out of the parent: only [90, 100) is covered.
            span("obs.snapshot", Some(0), 90, 130),
        ];
        // Covered: [10, 60) + [90, 100) = 60, so the parent keeps 40.
        assert_eq!(self_times(&spans), vec![40, 30, 30, 40]);
    }

    #[test]
    fn nested_children_only_count_against_their_own_parent() {
        let spans = [
            span("bench.job", None, 0, 100),
            span("core.replay.rmw", Some(0), 0, 80),
            span("trace.decode", Some(1), 10, 30),
            span("trace.decode", Some(1), 20, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 20, 30]);
        let layers = layer_seconds(&spans);
        assert_eq!(layers.get("bench"), None);
        assert!((layers["core"] - 40e-9).abs() < 1e-15);
        assert!((layers["trace"] - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn commit_rebases_parents() {
        let recorder = Recorder::default();
        for _ in 0..2 {
            let mut local = recorder.local();
            let root = local.open("bench.job", None);
            local.time("trace.decode", Some(root), || ());
            local.close(root);
            local.commit();
        }
        let spans = recorder.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
    }

    #[test]
    fn spans_write_as_json_lines() {
        let spans = [
            span("bench.job", None, 0, 100),
            span("trace.decode", Some(0), 10, 40),
        ];
        let mut bytes = Vec::new();
        write_jsonl(&spans, &mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let rows: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("self_ns").and_then(|v| v.as_u64()), Some(70));
        assert_eq!(rows[1].get("parent").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(
            rows[1].get("name").and_then(|v| v.as_str()),
            Some("trace.decode")
        );
    }

    #[test]
    fn budget_remainder() {
        assert!((unattributed_frac(1.5, 0.3, 2, 1.0) - 0.1).abs() < 1e-12);
        assert!(unattributed_frac(2.2, 0.0, 2, 1.0) < 0.0);
    }
}
