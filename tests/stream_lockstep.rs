//! Streaming conformance lockstep: replaying a trace as a bounded-memory
//! chunk stream must be bit-identical to replaying the materialized trace
//! — for all five schemes of the workspace (the conform suite), at more
//! than one chunk size, including chunk seams inside the warm-up region
//! and mid-sampler-window.
//!
//! This is the lock on the streaming tentpole: any drift between the two
//! replay paths (op order, warm-up reset placement, sampler window
//! boundaries, instruction pro-rating) lands here as a field-level diff.

use std::sync::Arc;

use cache8t::conform::SchemeId;
use cache8t::core::{
    CacheBackend, CoalescingController, Controller, ConventionalController, RmwController,
    WgController, WgOptions, WgRbController,
};
use cache8t::exec::{OpSource, Replay, SchemeResult};
use cache8t::obs::sampler::{Sampler, SamplerConfig};
use cache8t::sim::{CacheGeometry, ReplacementKind};
use cache8t::trace::{ChunkedGenerator, ProfiledGenerator, Trace, TraceGenerator};

fn build(id: SchemeId) -> Box<dyn Controller> {
    let backend = CacheBackend::new(CacheGeometry::paper_baseline(), ReplacementKind::Lru);
    match id {
        SchemeId::SixT => Box::new(ConventionalController::from_backend(backend)),
        SchemeId::Rmw => Box::new(RmwController::from_backend(backend)),
        SchemeId::Wg => Box::new(WgController::from_backend(backend, WgOptions::wg())),
        SchemeId::WgRb => Box::new(WgRbController::from_backend(backend)),
        SchemeId::Coalesce(entries) => {
            Box::new(CoalescingController::from_backend(backend, entries))
        }
    }
}

fn generator(seed: u64) -> ProfiledGenerator {
    let profile = cache8t::trace::profiles::by_name("gcc").expect("gcc profile");
    ProfiledGenerator::new(profile, CacheGeometry::paper_baseline(), seed)
}

const TOTAL_OPS: u64 = 30_000;
const WARMUP_OPS: usize = 3_000;

fn materialized() -> Trace {
    generator(17).collect(TOTAL_OPS as usize)
}

fn chunks(chunk_ops: usize) -> ChunkedGenerator<ProfiledGenerator> {
    ChunkedGenerator::new(generator(17), chunk_ops, TOTAL_OPS)
}

/// The materialized replay: the whole trace fed to `Replay` at once.
fn replay_trace(
    controller: &mut dyn Controller,
    trace: &Trace,
    warmup_ops: usize,
    sampler: Option<&mut Sampler>,
) -> SchemeResult {
    let mut replay = Replay::new(controller, warmup_ops, sampler);
    replay.feed(trace.ops());
    replay.finish()
}

/// The streamed replay: the same ops fed to `Replay` chunk by chunk.
fn replay_chunks(
    controller: &mut dyn Controller,
    chunk_ops: usize,
    warmup_ops: usize,
    sampler: Option<&mut Sampler>,
) -> SchemeResult {
    OpSource::Chunks(chunks(chunk_ops)).replay(Replay::new(controller, warmup_ops, sampler))
}

/// Everything a controller exposes after a replay, comparable.
fn snapshot(controller: &dyn Controller) -> String {
    format!(
        "{} | {:?} | {:?} | accesses={}",
        controller.name(),
        controller.traffic(),
        controller.stats(),
        controller.array_accesses(),
    )
}

#[test]
fn all_five_schemes_stream_bit_identically() {
    let trace = materialized();
    // 1024 puts seams inside the warm-up region and mid-window; 7_000
    // puts the warm-up boundary mid-chunk; 64_000 is a single chunk.
    for chunk_ops in [1_024usize, 7_000, 64_000] {
        for id in SchemeId::default_suite() {
            let mut reference = build(id);
            replay_trace(reference.as_mut(), &trace, WARMUP_OPS, None);

            let mut streamed = build(id);
            replay_chunks(streamed.as_mut(), chunk_ops, WARMUP_OPS, None);

            assert_eq!(
                snapshot(reference.as_ref()),
                snapshot(streamed.as_ref()),
                "scheme {id} diverged at chunk_ops={chunk_ops}"
            );
        }
    }
}

#[test]
fn sampled_streams_emit_identical_series_for_all_schemes() {
    #[derive(Clone)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let trace = materialized();
    let config = SamplerConfig {
        cadence: 1_024,
        ring_capacity: 32,
    };
    for id in SchemeId::default_suite() {
        let label = id.label();
        let reference_buf = SharedBuf(Arc::new(std::sync::Mutex::new(Vec::new())));
        {
            let mut sampler =
                Sampler::new("gcc", &label, config).with_writer(Box::new(reference_buf.clone()));
            let mut controller = build(id);
            replay_trace(controller.as_mut(), &trace, WARMUP_OPS, Some(&mut sampler));
        }
        let reference = reference_buf.0.lock().unwrap().clone();
        assert!(!reference.is_empty(), "sampled replay must emit windows");
        for chunk_ops in [900usize, 4_096] {
            let buf = SharedBuf(Arc::new(std::sync::Mutex::new(Vec::new())));
            let mut sampler =
                Sampler::new("gcc", &label, config).with_writer(Box::new(buf.clone()));
            let mut controller = build(id);
            replay_chunks(
                controller.as_mut(),
                chunk_ops,
                WARMUP_OPS,
                Some(&mut sampler),
            );
            let streamed = buf.0.lock().unwrap().clone();
            assert_eq!(
                reference, streamed,
                "series bytes diverged: scheme {id}, chunk_ops={chunk_ops}"
            );
        }
    }
}
