//! Scheme-family lockstep: one functional replay through a family
//! controller (6T+RMW, or WG+WG+RB) must give every member scheme
//! exactly the result a standalone replay of that scheme gives — request
//! stats, traffic, array accesses, metric snapshot and registry — and
//! the same sampled series bytes and traced events, however the ops are
//! fed: whole or in chunks, batched or one at a time.
//!
//! This is the lock on sharing one functional replay between schemes:
//! any place where a member's accounting leaks into the shared core (or
//! the core's state stops matching a standalone scheme's) lands here as
//! a diff naming the scheme, profile and geometry.

use std::sync::{Arc, Mutex};

use cache8t::core::{Controller, Ledger};
use cache8t::exec::experiment::generate_trace;
use cache8t::exec::{
    run_family, run_sweep, BenchmarkHook, ExecOptions, GeometryPoint, OpSource, PrefetchedChunks,
    Replay, RunConfig, SchemeFamily, SchemeKind, SchemeResult, SweepOptions, SweepPlan, TraceStore,
    UNITS_PER_BENCHMARK,
};
use cache8t::obs::sampler::{Sampler, SamplerConfig};
use cache8t::obs::TraceLevel;
use cache8t::sim::CacheGeometry;
use cache8t::trace::{profiles, ChunkedGenerator, ProfiledGenerator, Trace, WorkloadProfile};

/// Measured ops per run; with the warm-up the stream is 11 000 ops, so
/// an 8 192-op warm-up seam lands on `Replay`'s first sub-batch boundary.
const OPS: usize = 10_000;
const SEED: u64 = 5;

/// Warm-up seams: the standard 10 %, a sub-batch boundary, none, and one
/// past the end of the stream (the reset never fires).
const WARMUPS: [usize; 4] = [1_000, 8_192, 0, 20_000];

const GEOMETRIES: [&str; 4] = ["baseline", "blocks64", "small", "large"];

fn config(geometry: &str, warmup_ops: usize) -> RunConfig {
    let geometry = GeometryPoint::named(geometry)
        .expect("named geometry")
        .geometry;
    RunConfig {
        warmup_ops,
        ..RunConfig::new(geometry, OPS, SEED)
    }
}

/// Everything a result carries that a family must reproduce, rendered
/// comparable.
fn render(result: &SchemeResult) -> String {
    format!(
        "{} | {:?} | {:?} | accesses={} | {} | {}",
        result.scheme,
        result.stats,
        result.traffic,
        result.array_accesses,
        serde_json::to_string(&result.metrics).unwrap(),
        serde_json::to_string(&result.registry.to_value()).unwrap(),
    )
}

/// [`render`] for a live ledger.
fn render_ledger(ledger: &Ledger) -> String {
    let registry = ledger.obs().registry().to_value();
    let metrics = serde_json::to_string(&registry).unwrap();
    format!(
        "{} | {:?} | {:?} | accesses={} | {metrics} | {metrics}",
        ledger.name(),
        ledger.stats(),
        ledger.traffic(),
        ledger.array_accesses(),
    )
}

/// The standalone replay of `scheme`, batched and materialized.
fn standalone(scheme: SchemeKind, trace: &Trace, config: RunConfig) -> SchemeResult {
    let mut controller = scheme.build(config.geometry);
    let mut replay = Replay::new(controller.as_mut(), config.warmup_ops, &mut []);
    replay.feed(trace.ops());
    replay.finish().swap_remove(0)
}

fn family(family: SchemeFamily, trace: &Trace, config: RunConfig) -> Vec<SchemeResult> {
    run_family(
        family,
        OpSource::<PrefetchedChunks>::Trace(trace),
        config,
        None,
    )
}

fn assert_members_match(
    family: SchemeFamily,
    results: &[SchemeResult],
    expected: impl Fn(SchemeKind) -> SchemeResult,
    case: &str,
) {
    assert_eq!(results.len(), family.schemes().len(), "{case}");
    for (result, &scheme) in results.iter().zip(family.schemes()) {
        assert_eq!(
            render(result),
            render(&expected(scheme)),
            "{case}: {} diverged from its standalone replay",
            scheme.name()
        );
    }
}

#[test]
fn families_match_standalone_schemes_on_every_profile_and_geometry() {
    for (p, profile) in profiles::spec2006().iter().enumerate() {
        for (g, geometry) in GEOMETRIES.iter().enumerate() {
            let warmup = WARMUPS[(p + g) % WARMUPS.len()];
            let config = config(geometry, warmup);
            let trace = generate_trace(profile, config);
            for f in SchemeFamily::ALL {
                let case = format!("{}/{geometry}, warmup {warmup}", profile.name);
                assert_members_match(
                    f,
                    &family(f, &trace, config),
                    |scheme| standalone(scheme, &trace, config),
                    &case,
                );
            }
        }
    }
}

/// A series writer whose bytes stay readable after the sampler is done.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn sampler(scheme: SchemeKind, cadence: u64) -> (Sampler, SharedBuf) {
    let buf = SharedBuf::default();
    let config = SamplerConfig {
        cadence,
        ring_capacity: 16,
    };
    let sampler = Sampler::new("bench", scheme.name(), config).with_writer(Box::new(buf.clone()));
    (sampler, buf)
}

#[test]
fn sampled_families_emit_each_members_standalone_series() {
    for name in ["gcc", "bwaves", "mcf"] {
        let profile = profiles::by_name(name).expect("suite profile");
        for geometry in GEOMETRIES {
            for warmup in [1_000, 8_192] {
                let config = config(geometry, warmup);
                let trace = generate_trace(&profile, config);
                for cadence in [1_000u64, 8_192] {
                    for f in SchemeFamily::ALL {
                        let case = format!("{name}/{geometry}, warmup {warmup}, cadence {cadence}");
                        let (mut samplers, bufs): (Vec<_>, Vec<_>) =
                            f.schemes().iter().map(|&s| sampler(s, cadence)).unzip();
                        let mut controller = f.build(config.geometry);
                        let mut replay =
                            Replay::new(controller.as_mut(), config.warmup_ops, &mut samplers);
                        replay.feed(trace.ops());
                        let results = replay.finish();

                        for ((result, buf), &scheme) in results.iter().zip(&bufs).zip(f.schemes()) {
                            let (mut alone, alone_buf) = sampler(scheme, cadence);
                            let mut controller = scheme.build(config.geometry);
                            let mut replay = Replay::new(
                                controller.as_mut(),
                                config.warmup_ops,
                                std::slice::from_mut(&mut alone),
                            );
                            replay.feed(trace.ops());
                            let expected = replay.finish().swap_remove(0);
                            assert_eq!(render(result), render(&expected), "{case}");
                            assert_eq!(result.series, expected.series, "{case}: ring");
                            let bytes = buf.0.lock().unwrap().clone();
                            assert!(!bytes.is_empty(), "{case}: no windows");
                            assert!(
                                bytes == *alone_buf.0.lock().unwrap(),
                                "{case}: {} series bytes diverged",
                                scheme.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Replays with every ledger's tracer at `TraceLevel::Event`.
fn traced(controller: &mut dyn Controller, trace: &Trace, warmup: usize) -> Vec<SchemeResult> {
    for i in 0..controller.ledger_count() {
        controller
            .ledger_mut(i)
            .obs_mut()
            .tracer_mut()
            .set_level(TraceLevel::Event);
    }
    let mut replay = Replay::new(controller, warmup, &mut []);
    replay.feed(trace.ops());
    replay.finish()
}

#[test]
fn traced_families_record_each_members_standalone_events() {
    for name in ["gcc", "bwaves", "mcf"] {
        let profile = profiles::by_name(name).expect("suite profile");
        for geometry in GEOMETRIES {
            let config = config(geometry, 1_000);
            let trace = generate_trace(&profile, config);
            for f in SchemeFamily::ALL {
                let results = traced(f.build(config.geometry).as_mut(), &trace, 1_000);
                for (result, &scheme) in results.iter().zip(f.schemes()) {
                    let expected =
                        traced(scheme.build(config.geometry).as_mut(), &trace, 1_000).remove(0);
                    let case = format!("{name}/{geometry} {}", scheme.name());
                    assert!(!expected.events.is_empty(), "{case}: nothing traced");
                    assert_eq!(result.events, expected.events, "{case}: events");
                    assert_eq!(render(result), render(&expected), "{case}");
                }
            }
        }
    }
}

#[test]
fn per_op_families_match_batched_standalone_schemes() {
    for name in ["gcc", "bwaves", "mcf"] {
        let profile = profiles::by_name(name).expect("suite profile");
        for geometry in GEOMETRIES {
            for warmup in WARMUPS {
                let config = config(geometry, warmup);
                let trace = generate_trace(&profile, config);
                for f in SchemeFamily::ALL {
                    let mut controller = f.build(config.geometry);
                    for (i, op) in trace.iter().enumerate() {
                        if i == warmup {
                            controller.reset_counters();
                        }
                        controller.access(op);
                    }
                    controller.flush();
                    for (i, &scheme) in f.schemes().iter().enumerate() {
                        let expected = standalone(scheme, &trace, config);
                        assert_eq!(
                            render_ledger(controller.ledger(i)),
                            render(&expected),
                            "{name}/{geometry}, warmup {warmup}: per-op {} diverged",
                            scheme.name()
                        );
                    }
                }
            }
        }
    }
}

fn chunks(profile: &WorkloadProfile, config: RunConfig) -> ChunkedGenerator<ProfiledGenerator> {
    let generator = ProfiledGenerator::new(
        profile.clone(),
        CacheGeometry::paper_baseline(),
        config.seed,
    );
    ChunkedGenerator::new(generator, 4_096, config.total_ops() as u64)
}

#[test]
fn chunked_families_match_materialized_standalone_schemes() {
    for name in ["gcc", "bwaves", "mcf"] {
        let profile = profiles::by_name(name).expect("suite profile");
        for geometry in GEOMETRIES {
            for warmup in WARMUPS {
                let config = config(geometry, warmup);
                let trace = generate_trace(&profile, config);
                for f in SchemeFamily::ALL {
                    let results =
                        run_family(f, OpSource::Chunks(chunks(&profile, config)), config, None);
                    let case = format!("{name}/{geometry}, warmup {warmup}, 4096-op chunks");
                    assert_members_match(
                        f,
                        &results,
                        |scheme| standalone(scheme, &trace, config),
                        &case,
                    );
                }
            }
        }
    }
}

#[test]
fn sweeps_run_three_jobs_per_benchmark_and_fire_each_hook_once() {
    let plan = SweepPlan {
        profiles: ["gcc", "mcf", "bwaves"]
            .iter()
            .map(|name| profiles::by_name(name).expect("suite profile"))
            .collect(),
        geometries: ["baseline", "small"]
            .iter()
            .map(|label| GeometryPoint::named(label).expect("named geometry"))
            .collect(),
        ops: 3_000,
        seed: SEED,
    };
    let fired: Arc<Mutex<Vec<usize>>> = Arc::default();
    let sink = Arc::clone(&fired);
    let options = SweepOptions {
        exec: ExecOptions {
            workers: 2,
            retries: 0,
        },
        store: Arc::new(TraceStore::in_memory()),
        on_benchmark: Some(BenchmarkHook::new(move |event| {
            sink.lock().unwrap().push(event.slot);
        })),
        ..SweepOptions::default()
    };
    let outcome = run_sweep(&plan, &options);
    assert!(outcome.failures.is_empty());
    let jobs = outcome
        .metrics
        .to_value()
        .get("counters")
        .and_then(|c| c.get("sweep.jobs"))
        .and_then(serde_json::Value::as_u64);
    assert_eq!(UNITS_PER_BENCHMARK, 3);
    assert_eq!(jobs, Some(3 * plan.benchmark_count() as u64));
    let mut fired = fired.lock().unwrap().clone();
    fired.sort_unstable();
    assert_eq!(fired, (0..plan.benchmark_count()).collect::<Vec<_>>());
}
