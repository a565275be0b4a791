//! Engine behaviour, end to end: crash isolation (one poisoned job must
//! surface as a structured failure while the rest of the sweep
//! completes) and scheduler telemetry (worker stats, merged span
//! profiles).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use cache8t_exec::{
    document_with_benchmarks, run_jobs, run_sweep, to_document, BenchmarkHook, CancelToken,
    ExecOptions, GeometryPoint, JobOutcome, SweepOptions, SweepPlan, TraceStore,
};
use cache8t_trace::profiles;

#[test]
fn panicking_job_fails_alone_while_the_batch_completes() {
    let jobs: Vec<Box<dyn Fn() -> u32 + Send + Sync>> = (0..20)
        .map(|i| -> Box<dyn Fn() -> u32 + Send + Sync> {
            if i == 7 {
                Box::new(|| panic!("benchmark 7 hit a poisoned input"))
            } else {
                Box::new(move || i * 10)
            }
        })
        .collect();
    let report = run_jobs(
        jobs,
        &ExecOptions {
            workers: 4,
            retries: 0,
        },
        None,
    );

    assert_eq!(report.outcomes.len(), 20);
    assert_eq!(report.failed(), 1);
    for (i, outcome) in report.outcomes.iter().enumerate() {
        if i == 7 {
            let JobOutcome::Failed { message, attempts } = outcome else {
                panic!("job 7 should have failed, got {outcome:?}");
            };
            assert_eq!(message, "benchmark 7 hit a poisoned input");
            assert_eq!(*attempts, 1);
        } else {
            assert_eq!(*outcome, JobOutcome::Completed(i as u32 * 10));
        }
    }
}

#[test]
fn sweep_reports_a_poisoned_benchmark_and_keeps_the_rest() {
    // A profile with an impossible read share makes every unit of its
    // benchmark panic inside trace generation (`ProfiledGenerator::new`
    // rejects it) — the realistic "one experiment is poisoned" case.
    let mut poisoned = profiles::by_name("gcc").expect("suite profile");
    poisoned.name = "poisoned".to_string();
    poisoned.read_share = 2.0;
    let plan = SweepPlan {
        profiles: vec![
            profiles::by_name("gcc").expect("suite profile"),
            poisoned,
            profiles::by_name("mcf").expect("suite profile"),
        ],
        geometries: vec![GeometryPoint::named("baseline").expect("named geometry")],
        ops: 4_000,
        seed: 3,
    };
    let outcome = run_sweep(
        &plan,
        &SweepOptions {
            exec: ExecOptions {
                workers: 2,
                retries: 0,
            },
            shard: None,
            progress: false,
            store: Arc::new(TraceStore::in_memory()),
            series: None,
            ..SweepOptions::default()
        },
    );

    // All five units of the poisoned benchmark fail with the generator's
    // message; nothing else is affected.
    assert_eq!(outcome.failures.len(), 5);
    for failure in &outcome.failures {
        assert_eq!(failure.benchmark, "poisoned");
        assert_eq!(failure.geometry, "baseline");
        assert!(
            failure.message.contains("invalid workload profile"),
            "panic payload lost: {}",
            failure.message
        );
        assert_eq!(failure.attempts, 1);
    }
    let healthy = &outcome.geometries[0];
    assert!(healthy.results[0].is_some(), "gcc must complete");
    assert!(healthy.results[1].is_none(), "poisoned must be dropped");
    assert!(healthy.results[2].is_some(), "mcf must complete");
    assert_eq!(healthy.results[0].as_ref().unwrap().name, "gcc");
    assert_eq!(healthy.results[2].as_ref().unwrap().name, "mcf");

    // And into_complete refuses, naming the culprit.
    let err = outcome
        .into_complete()
        .expect_err("failures must propagate");
    assert!(err.contains("poisoned"), "unhelpful error: {err}");
}

fn sweep_options(workers: usize) -> SweepOptions {
    SweepOptions {
        exec: ExecOptions {
            workers,
            retries: 0,
        },
        shard: None,
        progress: false,
        store: Arc::new(TraceStore::in_memory()),
        series: None,
        ..SweepOptions::default()
    }
}

fn small_plan() -> SweepPlan {
    SweepPlan {
        profiles: vec![
            profiles::by_name("gcc").expect("suite profile"),
            profiles::by_name("mcf").expect("suite profile"),
        ],
        geometries: vec![GeometryPoint::named("baseline").expect("named geometry")],
        ops: 4_000,
        seed: 3,
    }
}

/// The span-profiler data-loss regression test: worker threads own
/// thread-local profilers that die with the pool, so a parallel sweep
/// used to report an empty span profile. The pool now hands every
/// worker's report to the outcome, and the merged result must not
/// depend on the worker count.
#[test]
fn parallel_sweep_reports_the_same_span_set_as_serial() {
    let summarize = |workers: usize| -> BTreeMap<&'static str, u64> {
        let outcome = run_sweep(&small_plan(), &sweep_options(workers));
        assert!(outcome.failures.is_empty());
        assert!(
            !outcome.spans.is_empty(),
            "{workers}-worker sweep lost its span profile"
        );
        outcome.spans.iter().map(|s| (s.name, s.calls)).collect()
    };
    let serial = summarize(1);
    let parallel = summarize(4);
    assert_eq!(
        serial, parallel,
        "span set must not depend on the worker count"
    );
}

/// Trace generation runs on the workers, inside the store, so it must
/// show in the merged span profile that `[worker spans]` prints.
#[test]
fn parallel_sweep_spans_include_trace_generation() {
    let outcome = run_sweep(&small_plan(), &sweep_options(2));
    assert!(outcome.failures.is_empty());
    let generate = outcome
        .spans
        .iter()
        .find(|s| s.name == "generate")
        .expect("a `generate` span row");
    assert_eq!(
        generate.calls, 2,
        "each of the two traces is generated once"
    );
}

/// Resume building block: an explicit slot set must run exactly those
/// benchmarks, and a document assembled from hook-captured benchmark
/// values via `document_with_benchmarks` must be byte-identical to the
/// full run's `to_document` output.
#[test]
fn slot_selection_and_hook_reassemble_the_full_document() {
    let plan = small_plan();
    let full = run_sweep(&plan, &sweep_options(2));
    assert!(full.failures.is_empty());
    let expected = serde_json::to_string_pretty(&to_document(&plan, &full));

    // Run each benchmark slot in its own sweep, capturing results
    // through the live hook (as the checkpoint journal does).
    let captured: Arc<Mutex<Vec<(usize, usize, serde_json::Value)>>> =
        Arc::new(Mutex::new(Vec::new()));
    for slot in 0..plan.benchmark_count() {
        let sink = Arc::clone(&captured);
        let options = SweepOptions {
            slots: Some(vec![slot]),
            on_benchmark: Some(BenchmarkHook::new(move |event| {
                sink.lock().unwrap().push((
                    event.geometry,
                    event.slot,
                    serde_json::to_value(event.result),
                ));
            })),
            ..sweep_options(2)
        };
        let outcome = run_sweep(&plan, &options);
        assert!(outcome.failures.is_empty());
        // Exactly one benchmark completed in this slice.
        let done: usize = outcome
            .geometries
            .iter()
            .map(|g| g.results.iter().flatten().count())
            .sum();
        assert_eq!(done, 1, "slot {slot} must run exactly one benchmark");
    }

    let mut captured = captured.lock().unwrap().clone();
    captured.sort_by_key(|&(_, slot, _)| slot);
    let mut benchmarks: Vec<Vec<serde_json::Value>> = vec![Vec::new(); plan.geometries.len()];
    for (g, _, value) in captured {
        benchmarks[g].push(value);
    }
    let rebuilt = serde_json::to_string_pretty(&document_with_benchmarks(&plan, &benchmarks));
    assert_eq!(rebuilt, expected, "journalled reassembly must match batch");
}

/// Cancelling mid-sweep drains the queued units and reports them; the
/// finished prefix stays usable.
#[test]
fn cancelled_sweep_returns_partial_results() {
    let plan = small_plan();
    let token = CancelToken::new();
    token.cancel(); // fire before the first job: everything drains
    let outcome = run_sweep(
        &plan,
        &SweepOptions {
            cancel: Some(token),
            ..sweep_options(2)
        },
    );
    assert!(outcome.failures.is_empty());
    assert_eq!(outcome.cancelled, 10, "2 benchmarks x 5 units drained");
    for g in &outcome.geometries {
        assert!(g.results.iter().all(Option::is_none));
    }
    let metrics = outcome.metrics.to_value();
    let cancelled = metrics
        .get("counters")
        .and_then(|c| c.get("sweep.jobs_cancelled"))
        .and_then(serde_json::Value::as_u64);
    assert_eq!(cancelled, Some(10));
}

#[test]
fn scheduler_telemetry_accounts_for_every_job() {
    let outcome = run_sweep(&small_plan(), &sweep_options(3));
    assert!(outcome.failures.is_empty());
    let metrics = outcome.metrics.to_value();
    let counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    let jobs = counter("sweep.jobs");
    assert_eq!(jobs, 10, "2 benchmarks x 5 units");
    // Per-worker job counts must add up to the batch total.
    let per_worker: u64 = (0..3)
        .map(|i| counter(&format!("sweep.worker.{i}.jobs")))
        .sum();
    assert_eq!(per_worker, jobs);
    let steals: u64 = (0..3)
        .map(|i| counter(&format!("sweep.worker.{i}.steals")))
        .sum();
    assert_eq!(steals, counter("sweep.steals"));
    // The per-job duration histogram saw exactly one sample per job.
    let job_us_count = metrics
        .get("histograms")
        .and_then(|h| h.get("sweep.job_us"))
        .and_then(|h| h.get("count"))
        .and_then(serde_json::Value::as_u64)
        .expect("sweep.job_us histogram");
    assert_eq!(job_us_count, jobs);
}

/// The streaming tentpole at the engine level: a streamed sweep — any
/// chunk size, any worker count, sampled or not — serializes to the
/// exact bytes of the materialized sweep. Streaming changes the memory
/// footprint, never the answer.
#[test]
fn streamed_sweeps_serialize_to_the_materialized_bytes() {
    let plan = small_plan();
    let document = |workers: usize, stream_chunk_ops: Option<usize>| {
        let options = SweepOptions {
            stream_chunk_ops,
            series: Some(cache8t_obs::SamplerConfig {
                cadence: 512,
                ring_capacity: 16,
            }),
            ..sweep_options(workers)
        };
        let outcome = run_sweep(&plan, &options);
        assert!(outcome.failures.is_empty());
        let series: Vec<_> = outcome.series().cloned().collect();
        (
            serde_json::to_string(&to_document(&plan, &outcome)).unwrap(),
            series,
        )
    };

    let (reference, reference_series) = document(1, None);
    for workers in [1usize, 4] {
        for chunk_ops in [700usize, 4_096] {
            let (streamed, series) = document(workers, Some(chunk_ops));
            assert_eq!(
                reference, streamed,
                "workers={workers} chunk_ops={chunk_ops}"
            );
            assert_eq!(
                reference_series, series,
                "series: workers={workers} chunk_ops={chunk_ops}"
            );
        }
    }
}

/// Streamed units deduplicate generation through the shared frontier:
/// a multi-unit benchmark over one stream generates each chunk far
/// fewer times than units-x-chunks.
#[test]
fn streamed_sweep_reports_stream_counters() {
    let options = SweepOptions {
        stream_chunk_ops: Some(1_000),
        ..sweep_options(2)
    };
    let outcome = run_sweep(&small_plan(), &options);
    assert!(outcome.failures.is_empty());
    let metrics = outcome.metrics.to_value();
    let counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0)
    };
    assert!(counter("sweep.trace.stream_chunks") > 0, "streaming ran");
    assert_eq!(counter("sweep.trace.generated"), 0, "nothing materialized");
    // 5 units consumed the same chunk sequence; most reads must have
    // been window hits or private-generator memoization, so generation
    // plus restarts stays well under 5x the chunk count.
    let chunks_per_trace = 4_400u64.div_ceil(1_000);
    assert!(
        counter("sweep.trace.stream_chunks") < 5 * 2 * chunks_per_trace,
        "dedup failed: {} chunks generated",
        counter("sweep.trace.stream_chunks")
    );
}
