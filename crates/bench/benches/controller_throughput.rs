//! Criterion benchmarks: simulation throughput of the four controllers.
//!
//! These are *simulator* benchmarks (how fast this reproduction runs), not
//! paper results — the paper's figures are regenerated by the `src/bin`
//! harnesses. Throughput here is reported as simulated memory operations
//! per second per controller, which is what bounds how long the figure
//! harnesses take.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cache8t_core::{Controller, RmwController, WgController};
use cache8t_obs::{Component, EventKind, MetricRegistry, TraceEvent, TraceLevel, Tracer};
use cache8t_sim::{CacheGeometry, ReplacementKind};
use cache8t_trace::{profiles, ProfiledGenerator, Trace, TraceGenerator};

const OPS: usize = 50_000;

fn trace() -> Trace {
    let profile = profiles::by_name("gcc").expect("gcc is in the suite");
    ProfiledGenerator::new(profile, CacheGeometry::paper_baseline(), 42).collect(OPS)
}

fn bench_controllers(c: &mut Criterion) {
    let trace = trace();
    let geometry = CacheGeometry::paper_baseline();
    let mut group = c.benchmark_group("controller_replay");
    group.throughput(Throughput::Elements(OPS as u64));

    type Build = fn(CacheGeometry) -> Box<dyn Controller>;
    let make: Vec<(&str, Build)> = vec![
        ("6t", |g| {
            Box::new(RmwController::conventional(g, ReplacementKind::Lru))
        }),
        ("rmw", |g| {
            Box::new(RmwController::new(g, ReplacementKind::Lru))
        }),
        ("wg", |g| {
            Box::new(WgController::new(g, ReplacementKind::Lru))
        }),
        ("wg_rb", |g| {
            Box::new(WgController::wg_rb(g, ReplacementKind::Lru))
        }),
    ];
    for (name, build) in make {
        group.bench_with_input(BenchmarkId::from_parameter(name), &trace, |b, trace| {
            b.iter(|| {
                let mut controller = build(geometry);
                for op in trace {
                    controller.access(op);
                }
                controller.flush();
                controller.array_accesses()
            });
        });
    }
    group.finish();
}

fn bench_replacement_policies(c: &mut Criterion) {
    let trace = trace();
    let geometry = CacheGeometry::paper_baseline();
    let mut group = c.benchmark_group("replacement_policy_replay");
    group.throughput(Throughput::Elements(OPS as u64));
    for (name, kind) in [
        ("lru", ReplacementKind::Lru),
        ("fifo", ReplacementKind::Fifo),
        ("random", ReplacementKind::Random { seed: 1 }),
        ("tree_plru", ReplacementKind::TreePlru),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &trace, |b, trace| {
            b.iter(|| {
                let mut controller = RmwController::new(geometry, kind);
                for op in trace {
                    controller.access(op);
                }
                controller.array_accesses()
            });
        });
    }
    group.finish();
}

/// Guards the zero-cost claim for observability with tracing Off: the
/// per-event hot-path primitives (a counter increment; an `emit` that the
/// level filter rejects) must stay nanosecond-scale, so the handful the
/// controllers execute per memory op cannot move replay throughput by 2%.
///
/// The bound is 10 ns/op — an order of magnitude above what either
/// primitive costs on any machine this runs on — so the assertion is
/// immune to CI noise while still catching a real regression (a lock, a
/// hash lookup, or an allocation sneaking onto the hot path).
fn bench_obs_hot_path(c: &mut Criterion) {
    const N: u64 = 1_000_000;
    const MAX_NANOS_PER_OP: f64 = 10.0;

    let mut registry = MetricRegistry::new();
    let id = registry.counter("bench.hot_path");
    let start = Instant::now();
    for _ in 0..N {
        registry.inc(black_box(id));
    }
    let inc_ns = start.elapsed().as_nanos() as f64 / N as f64;
    assert_eq!(registry.counter_value(id), N);

    let mut tracer = Tracer::new(TraceLevel::Off, 1024);
    let start = Instant::now();
    for i in 0..N {
        tracer.emit(black_box(TraceEvent::new(
            i,
            Component::Wg,
            EventKind::GroupFlush,
            i,
            1,
        )));
    }
    let emit_ns = start.elapsed().as_nanos() as f64 / N as f64;
    assert!(tracer.is_empty(), "level Off must record nothing");

    println!("obs hot path: counter inc {inc_ns:.2} ns/op, emit@Off {emit_ns:.2} ns/op");
    assert!(
        inc_ns < MAX_NANOS_PER_OP && emit_ns < MAX_NANOS_PER_OP,
        "observability hot path regressed: inc {inc_ns:.2} ns, emit@Off {emit_ns:.2} ns \
         (limit {MAX_NANOS_PER_OP} ns) — tracing-Off replay would no longer be within 2% of seed"
    );

    // Also surface the emit cost as a criterion series so trends are visible.
    let mut group = c.benchmark_group("obs_hot_path");
    group.throughput(Throughput::Elements(N));
    group.bench_function("emit_off", |b| {
        b.iter(|| {
            for i in 0..N {
                tracer.emit(black_box(TraceEvent::new(
                    i,
                    Component::Wg,
                    EventKind::GroupFlush,
                    i,
                    1,
                )));
            }
            tracer.len()
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_controllers, bench_replacement_policies, bench_obs_hot_path
}
criterion_main!(benches);
