//! The metric tables and the result every workload fills in.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sim_mops", "Mops/s"),
    ("peak_rss_mib", "MiB"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_tail_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A
/// layer that does no work on a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("trace.generate_s", "s"),
    ("trace.generate_mops", "Mops/s"),
    ("trace.decode_s", "s"),
    ("trace.decode_mops", "Mops/s"),
    ("trace.stream_stats_s", "s"),
    ("sim.functional_s", "s"),
    ("sim.miss_rate", "ratio"),
    ("core.replay_s.rmw", "s"),
    ("core.replay_s.wg", "s"),
    ("core.replay_s.wgrb", "s"),
    ("core.accounting_s", "s"),
    ("core.array_accesses.6t", "count"),
    ("core.array_accesses.rmw", "count"),
    ("core.array_accesses.wg", "count"),
    ("core.array_accesses.wgrb", "count"),
    ("core.wg.silent_elided_frac", "ratio"),
    ("core.wgrb.bypass_frac", "ratio"),
    ("core.wgrb.premature_frac", "ratio"),
    ("obs.snapshot_s", "s"),
    ("obs.sampler_s", "s"),
    ("exec.pool.busy_frac", "ratio"),
    ("exec.pool.idle_s", "s"),
    ("exec.pool.steals", "count"),
    ("exec.pool.job_ms_p50", "ms"),
    ("exec.pool.job_ms_tail", "ms"),
    ("exec.store.hit_frac", "ratio"),
    ("exec.store.generated", "count"),
    ("exec.stream.wait_s", "s"),
    ("exec.stream.chunks", "count"),
    ("exec.sweep.document_s", "s"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("serve.restored_frac", "ratio"),
    ("serve.journal_bytes", "bytes"),
    ("bench.unattributed_frac", "ratio"),
    ("bench.tracing_overhead_frac", "ratio"),
    ("bench.workers", "count"),
    ("host.calib_mops", "Mops/s"),
    ("wg_reduction_pct", "%"),
    ("wgrb_reduction_pct", "%"),
    ("model_err_pp", "pp"),
    ("failed_frac", "ratio"),
    ("serve.jobs", "count"),
];

/// What one run measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work attempted (sweep units, replays, served jobs) plus
    /// correctness checks made.
    pub attempted: u64,
    /// Attempts that failed or whose outputs were wrong.
    pub failed: u64,
    /// Why each failed attempt failed.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Vec<crate::spans::Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one correctness check, failing the run when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records one failed attempt.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;
    use serde_json::Value;

    fn names(list: &Value) -> Vec<(String, String)> {
        list.as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let spec: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(
            names(spec.get("end_to_end").expect("end_to_end")),
            owned(&END_TO_END)
        );
        assert_eq!(
            names(spec.get("per_layer").expect("per_layer")),
            owned(&PER_LAYER)
        );
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        assert!(all.iter().all(|n| valid_metric_name(n)));
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "duplicate metric name");
    }
}
