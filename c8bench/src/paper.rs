//! `paper-suite`: the report card's plan, 25 profiles × 4 geometries ×
//! 4 schemes, through `run_sweep` with materialized traces and an
//! in-memory trace store. Each trace is generated once and replayed 16
//! times, so replay in `sim` and `core` does most of the work.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use cache8t_exec::experiment::measure_stream;
use cache8t_exec::{
    run_jobs, run_sweep, to_document, BenchmarkResult, ExecOptions, GeometryPoint, JobOutcome,
    ProgressHook, SchemeKind, SchemeResult, SweepOptions, SweepOutcome, SweepPlan, TraceStore,
};
use cache8t_trace::analyze::StreamStats;
use cache8t_trace::DecodedBatch;

use crate::replay::{check_sweep_units, replay_span, snapshot, traced_batches, Ledger};
use crate::report::Outcome;
use crate::spans::{self, Recorder};
use crate::stats::{self, SplitMix};
use crate::Args;

/// Measured ops per benchmark (plus the standard 10 % warm-up).
pub const OPS: usize = 100_000;

const GEOMETRIES: [&str; 4] = ["baseline", "blocks64", "small", "large"];

/// Scheme units replayed per run through the per-op reference.
const REFERENCE_UNITS: usize = 4;

/// Sweep-document digests recorded at the default seed.
const DEFAULT_SEED_DIGEST: u64 = 0x1df2_ef5f_4268_65d6;

/// The report card's Fig 9/10/11 value claims: (geometry, WG+RB?, paper %).
const CLAIMS: [(&str, bool, f64); 6] = [
    ("baseline", false, 27.0),
    ("baseline", true, 33.0),
    ("blocks64", false, 29.0),
    ("blocks64", true, 37.0),
    ("small", false, 26.9),
    ("large", true, 32.1),
];

pub fn plan(seed: u64) -> SweepPlan {
    let geometries = GEOMETRIES
        .iter()
        .map(|label| GeometryPoint::named(label).expect("paper geometry"))
        .collect();
    SweepPlan::suite(geometries, OPS, seed)
}

fn exec(workers: usize) -> ExecOptions {
    ExecOptions {
        workers,
        retries: 0,
    }
}

/// Scheme units of one sweep, warm-up included.
fn replayed_ops(plan: &SweepPlan) -> f64 {
    (plan.benchmark_count() * SchemeKind::ALL.len() * plan.config(0).total_ops()) as f64
}

fn units(plan: &SweepPlan) -> usize {
    plan.benchmark_count() * (1 + SchemeKind::ALL.len())
}

struct Sweep {
    wall_s: f64,
    document: String,
    outcome: SweepOutcome,
    /// Per-unit time on its worker, from the progress hook.
    unit_ms: Vec<f64>,
}

/// Set-up: the plan's traces generated into a fresh in-memory store, one
/// after another, with a `trace.generate` span around each when
/// `recorder` is given. Filling from one thread keeps every trace in one
/// allocator arena, which keeps `peak_rss_mib` steady from run to run.
fn build_store(plan: &SweepPlan, recorder: Option<&Recorder>) -> Arc<TraceStore> {
    let store = Arc::new(TraceStore::in_memory());
    let total_ops = plan.config(0).total_ops();
    let mut local = recorder.map(Recorder::local);
    for profile in &plan.profiles {
        match local.as_mut() {
            Some(local) => drop(local.time("trace.generate", None, || {
                store.get(profile, plan.seed, total_ops)
            })),
            None => drop(store.get(profile, plan.seed, total_ops)),
        }
    }
    if let Some(local) = local {
        local.commit();
    }
    store
}

/// Each worker's last completion time, and the per-unit times so far.
type Completions = (HashMap<ThreadId, Instant>, Vec<f64>);

/// One sweep as `cache8t sweep` runs it over a filled store: `run_sweep`,
/// then the document.
fn sweep(plan: &SweepPlan, workers: usize, store: Arc<TraceStore>) -> Sweep {
    let started = Instant::now();
    let completions: Arc<Mutex<Completions>> = Arc::default();
    let hook = {
        let completions = Arc::clone(&completions);
        ProgressHook::new(move |_| {
            let now = Instant::now();
            let mut guard = completions.lock().expect("completion log poisoned");
            let (last, unit_ms) = &mut *guard;
            let previous = last
                .insert(std::thread::current().id(), now)
                .unwrap_or(started);
            unit_ms.push((now - previous).as_secs_f64() * 1e3);
        })
    };
    let options = SweepOptions {
        exec: exec(workers),
        store,
        on_progress: Some(hook),
        ..SweepOptions::default()
    };
    let outcome = run_sweep(plan, &options);
    let document = document_string(plan, &outcome);
    let wall_s = started.elapsed().as_secs_f64();
    let unit_ms = std::mem::take(&mut completions.lock().expect("completion log poisoned").1);
    Sweep {
        wall_s,
        document,
        outcome,
        unit_ms,
    }
}

fn document_string(plan: &SweepPlan, outcome: &SweepOutcome) -> String {
    serde_json::to_string(&to_document(plan, outcome)).expect("sweep documents serialize")
}

pub fn run(args: &Args, out: &mut Outcome) {
    let plan = plan(args.seed);
    let reference = if args.trace {
        traced_run(args, &plan, out)
    } else {
        untraced_run(args, &plan, out)
    };
    check(args, &plan, &reference, out);
}

/// The end-to-end run: sweeps back to back until the time is up.
fn untraced_run(args: &Args, plan: &SweepPlan, out: &mut Outcome) -> Sweep {
    let deadline = Instant::now() + args.seconds;
    let (mut setups, mut walls, mut unit_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Sweep> = None;
    loop {
        let started = Instant::now();
        let plan = self::plan(args.seed);
        let store = build_store(&plan, None);
        setups.push(started.elapsed().as_secs_f64());
        let mut s = sweep(&plan, args.workers, store);
        out.attempted += units(&plan) as u64;
        record_failures(&s.outcome, out);
        walls.push(s.wall_s);
        unit_ms.append(&mut s.unit_ms);
        // Only the first sweep is kept, so memory does not grow with
        // the number of sweeps that fit in the run.
        match &first {
            None => first = Some(s),
            Some(first) => out.check(s.document == first.document, || {
                "a repeated sweep produced a different document".to_owned()
            }),
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    out.set("setup_s", stats::median(&setups));
    out.set("peak_rss_mib", stats::peak_rss_mib().unwrap_or(0.0));
    let mops: Vec<f64> = walls.iter().map(|w| replayed_ops(plan) / w / 1e6).collect();
    let rate: Vec<f64> = walls.iter().map(|w| units(plan) as f64 / w).collect();
    out.set("sim_mops", stats::median(&mops));
    out.set("jobs_per_s", stats::median(&rate));
    crate::set_latency(out, &unit_ms, "sweep unit");
    out.note(format!(
        "paper-suite: {} sweeps of {} units, {} ops per benchmark, {} workers",
        walls.len(),
        units(plan),
        plan.ops,
        args.workers
    ));
    let first = first.expect("at least one sweep");
    let (wg, wgrb, err) = model_figures(&first.outcome);
    for (name, value, unit) in [
        ("wg_reduction_pct", wg, "%"),
        ("wgrb_reduction_pct", wgrb, "%"),
        ("model_err_pp", err, "pp"),
    ] {
        out.note(format!("{name} = {value} {unit} (simulated)"));
    }
    first
}

fn record_failures(outcome: &SweepOutcome, out: &mut Outcome) {
    for f in &outcome.failures {
        out.fail(format!(
            "{}/{} [{}]: {}",
            f.geometry, f.benchmark, f.unit, f.message
        ));
    }
}

/// Suite-average WG and WG+RB reductions against RMW at `baseline`, in
/// percent, and the largest distance in points from the paper's
/// Fig 9/10/11 value claims.
fn model_figures(outcome: &SweepOutcome) -> (f64, f64, f64) {
    let average = |label: &str, wgrb: bool| {
        let results: Vec<&BenchmarkResult> = outcome
            .geometries
            .iter()
            .find(|g| g.point.label == label)
            .map(|g| g.results.iter().flatten().collect())
            .unwrap_or_default();
        let sum: f64 = results
            .iter()
            .map(|r| {
                if wgrb {
                    r.wgrb_reduction()
                } else {
                    r.wg_reduction()
                }
            })
            .sum();
        sum / results.len().max(1) as f64 * 100.0
    };
    let err = CLAIMS
        .iter()
        .map(|&(label, wgrb, paper)| (average(label, wgrb) - paper).abs())
        .fold(0.0, f64::max);
    (average("baseline", false), average("baseline", true), err)
}

/// Correctness checks every run makes, outside the timed region.
fn check(args: &Args, plan: &SweepPlan, reference: &Sweep, out: &mut Outcome) {
    let digest = stats::fnv1a(stats::FNV_BASIS, reference.document.as_bytes());
    out.note(format!("paper-suite document digest {digest:016x}"));
    if args.seed == crate::DEFAULT_SEED {
        out.check(digest == DEFAULT_SEED_DIGEST, || {
            format!("document digest {digest:016x} != recorded {DEFAULT_SEED_DIGEST:016x}")
        });
    }
    let mut rng = SplitMix::new(args.seed ^ 0x5eed);
    check_sweep_units(out, plan, &reference.outcome, &mut rng, REFERENCE_UNITS);
}

/// Output of one traced sweep unit.
enum UnitOut {
    Stream(StreamStats),
    Scheme(Box<SchemeResult>, u64),
}

/// The traced run: one untraced sweep, then the same plan driven unit by
/// unit through the layers' public calls with spans around each.
fn traced_run(args: &Args, plan: &SweepPlan, out: &mut Outcome) -> Sweep {
    let untraced = sweep(plan, args.workers, build_store(plan, None));
    out.attempted += units(plan) as u64;
    record_failures(&untraced.outcome, out);

    let recorder = Recorder::default();
    let store = build_store(plan, Some(&recorder));
    let started = Instant::now();
    let mut specs = Vec::new();
    for g in 0..plan.geometries.len() {
        for b in 0..plan.profiles.len() {
            specs.push((g, b, None));
            specs.extend(SchemeKind::ALL.iter().map(|&k| (g, b, Some(k))));
        }
    }
    let jobs: Vec<_> = specs
        .iter()
        .map(|&(g, b, unit)| {
            let (store, recorder) = (&store, &recorder);
            move || traced_unit(plan, g, b, unit, store, recorder)
        })
        .collect();
    let report = run_jobs(jobs, &exec(args.workers), None);
    let mut local = recorder.local();
    let document = local.time("exec.sweep.document", None, || {
        document_string(plan, &untraced.outcome)
    });
    local.commit();
    let wall_s = started.elapsed().as_secs_f64();
    out.attempted += units(plan) as u64;
    out.check(document == untraced.document, || {
        "re-rendered sweep document differs from the untraced one".to_owned()
    });

    let mut replay_ns: Vec<[u64; 4]> = vec![[0; 4]; plan.benchmark_count()];
    // Each traced unit must match the untraced sweep's result for it.
    for (&(g, b, unit), outcome) in specs.iter().zip(report.outcomes) {
        let expected = untraced.outcome.geometries[g].results[b].as_ref();
        let name = || {
            format!(
                "{}/{}/{}",
                plan.geometries[g].label,
                plan.profiles[b].name,
                unit.map_or("stream", SchemeKind::name)
            )
        };
        let same = match outcome {
            JobOutcome::Completed(UnitOut::Stream(s)) => expected.map(|r| r.stream) == Some(s),
            JobOutcome::Completed(UnitOut::Scheme(r, ns)) => {
                let k = SchemeKind::ALL
                    .iter()
                    .position(|&kind| Some(kind) == unit)
                    .expect("scheme units name their scheme");
                replay_ns[g * plan.profiles.len() + b][k] = ns;
                expected.map(|e| Ledger::of(e.schemes()[k])) == Some(Ledger::of(&r))
            }
            JobOutcome::Failed { message, .. } => {
                out.fail(format!("{} (traced): {message}", name()));
                continue;
            }
            JobOutcome::Cancelled => unreachable!("no cancel token"),
        };
        out.check(same, || {
            format!("{}: traced result differs from the untraced one", name())
        });
    }
    let spans = recorder.spans();
    let by_name = spans::self_seconds_by_name(&spans);
    let named = |n: &str| by_name.get(n).copied().unwrap_or(0.0);
    let total_ops = plan.config(0).total_ops() as f64;
    let store_stats = store.stats();
    out.set("trace.generate_s", named("trace.generate"));
    out.set(
        "trace.generate_mops",
        store_stats.generated as f64 * total_ops / named("trace.generate") / 1e6,
    );
    out.set("trace.decode_s", named("trace.decode"));
    out.set(
        "trace.decode_mops",
        replayed_ops(plan) / named("trace.decode") / 1e6,
    );
    out.set("trace.stream_stats_s", named("trace.stream_stats"));
    out.set("sim.functional_s", named("sim.replay.6t"));
    out.set("core.replay_s.rmw", named("core.replay.rmw"));
    out.set("core.replay_s.wg", named("core.replay.wg"));
    out.set("core.replay_s.wgrb", named("core.replay.wgrb"));
    let accounting: u64 = replay_ns
        .iter()
        .map(|ns| {
            ns[1..]
                .iter()
                .map(|&s| s.saturating_sub(ns[0]))
                .sum::<u64>()
        })
        .sum();
    out.set("core.accounting_s", accounting as f64 / 1e9);
    out.set("obs.snapshot_s", named("obs.snapshot"));
    out.set("exec.sweep.document_s", named("exec.sweep.document"));

    let workers = report.worker_stats.len();
    let busy: f64 = report
        .worker_stats
        .iter()
        .map(|w| w.busy.as_secs_f64())
        .sum();
    let idle: f64 = report
        .worker_stats
        .iter()
        .map(|w| w.idle.as_secs_f64())
        .sum();
    out.set("exec.pool.busy_frac", busy / (busy + idle));
    out.set("exec.pool.idle_s", idle);
    out.set("exec.pool.steals", report.steals as f64);
    let unit_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "bench.unit")
        .map(|s| s.duration() as f64 / 1e6)
        .collect();
    out.set("exec.pool.job_ms_p50", stats::median(&unit_ms));
    out.set(
        "exec.pool.job_ms_tail",
        stats::tail(&unit_ms).map_or(0.0, |t| t.value),
    );
    let lookups = store_stats.generated + store_stats.mem_hits;
    out.set(
        "exec.store.hit_frac",
        store_stats.mem_hits as f64 / lookups.max(1) as f64,
    );
    out.set("exec.store.generated", store_stats.generated as f64);

    set_simulated(&untraced.outcome, out);
    let layers: f64 = spans::layer_seconds(&spans).values().sum();
    out.spans = spans;
    crate::set_budget(out, layers - named("trace.generate"), idle, workers, wall_s);
    out.set(
        "bench.tracing_overhead_frac",
        wall_s / untraced.wall_s - 1.0,
    );
    untraced
}

/// One sweep unit, traced: the trace lookup, then stream statistics or
/// one scheme's decode-and-replay, then the registry snapshot.
fn traced_unit(
    plan: &SweepPlan,
    g: usize,
    b: usize,
    unit: Option<SchemeKind>,
    store: &TraceStore,
    recorder: &Recorder,
) -> UnitOut {
    let mut local = recorder.local();
    let unit_span = local.open("bench.unit", None);
    let job = Some(unit_span);
    let profile = &plan.profiles[b];
    let config = plan.config(g);
    let trace = local.time("trace.get", job, || {
        store.get(profile, plan.seed, config.total_ops())
    });
    let result = match unit {
        None => UnitOut::Stream(
            local.time("trace.stream_stats", job, || measure_stream(&trace, config)),
        ),
        Some(kind) => {
            let span = replay_span(kind);
            let (mut controller, mut batch) = local.time("core.build", job, || {
                (
                    kind.build(config.geometry),
                    DecodedBatch::new(config.geometry),
                )
            });
            traced_batches(
                &mut local,
                job,
                span,
                controller.as_mut(),
                &mut batch,
                trace.ops(),
                0,
                config.warmup_ops as u64,
            );
            local.time(span, job, || controller.flush());
            let replay_ns = local.total(span);
            UnitOut::Scheme(
                Box::new(snapshot(&mut local, job, controller.as_ref())),
                replay_ns,
            )
        }
    };
    local.close(unit_span);
    local.commit();
    result
}

/// The simulated per-layer figures of a sweep outcome.
fn set_simulated(outcome: &SweepOutcome, out: &mut Outcome) {
    let results: Vec<&BenchmarkResult> = outcome
        .geometries
        .iter()
        .flat_map(|g| g.results.iter().flatten())
        .collect();
    let sum =
        |f: &dyn Fn(&BenchmarkResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    out.set(
        "core.array_accesses.6t",
        sum(&|r| r.conventional.array_accesses),
    );
    out.set("core.array_accesses.rmw", sum(&|r| r.rmw.array_accesses));
    out.set("core.array_accesses.wg", sum(&|r| r.wg.array_accesses));
    out.set("core.array_accesses.wgrb", sum(&|r| r.wgrb.array_accesses));
    let misses = sum(&|r| r.conventional.stats.read_misses + r.conventional.stats.write_misses);
    let hits = sum(&|r| r.conventional.stats.read_hits + r.conventional.stats.write_hits);
    out.set("sim.miss_rate", misses / (hits + misses));
    crate::set_traffic_ratios(
        out,
        results.iter().map(|r| r.wg.traffic),
        results.iter().map(|r| r.wgrb.traffic),
    );
    let (wg, wgrb, err) = model_figures(outcome);
    out.set("wg_reduction_pct", wg);
    out.set("wgrb_reduction_pct", wgrb);
    out.set("model_err_pp", err);
}
