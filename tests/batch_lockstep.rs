//! Batched-replay conformance lockstep: servicing pre-decoded op batches
//! through `Controller::access_batch` must be bit-identical to servicing
//! the same ops one at a time through `access` — for all five schemes,
//! at several batch sizes, with the warm-up counter reset landing on and
//! off batch seams, and with the telemetry sampler's windows splitting
//! the batches (series bytes included).
//!
//! This is the lock on the batched-kernel tentpole: any drift between
//! the decoded fast paths (branchless probe, pre-split set/tag/word
//! columns, block-granularity compares) and the per-op reference lands
//! here as a field-level diff.

use std::sync::{Arc, Mutex};

use cache8t::conform::SchemeId;
use cache8t::core::{
    CacheBackend, CoalescingController, Controller, RmwController, WgController, WgOptions,
};
use cache8t::exec::Replay;
use cache8t::obs::sampler::{Sampler, SamplerConfig};
use cache8t::sim::{CacheGeometry, ReplacementKind};
use cache8t::trace::{DecodedBatch, ProfiledGenerator, Trace, TraceGenerator};

fn build(id: SchemeId) -> Box<dyn Controller> {
    let backend = CacheBackend::new(CacheGeometry::paper_baseline(), ReplacementKind::Lru);
    match id {
        SchemeId::SixT => Box::new(RmwController::conventional_from_backend(backend)),
        SchemeId::Rmw => Box::new(RmwController::from_backend(backend)),
        SchemeId::Wg => Box::new(WgController::from_backend(backend, WgOptions::wg())),
        SchemeId::WgRb => Box::new(WgController::from_backend(backend, WgOptions::wg_rb())),
        SchemeId::Coalesce(entries) => {
            Box::new(CoalescingController::from_backend(backend, entries))
        }
    }
}

const TOTAL_OPS: usize = 30_000;
const WARMUP_OPS: usize = 3_000;

fn materialized() -> Trace {
    let profile = cache8t::trace::profiles::by_name("gcc").expect("gcc profile");
    ProfiledGenerator::new(profile, CacheGeometry::paper_baseline(), 17).collect(TOTAL_OPS)
}

/// Everything a controller exposes after a replay, comparable — plus the
/// architecturally-visible word image at a sample of trace addresses, so
/// a fast path that corrupted buffered data (not just counters) is
/// caught too.
fn snapshot(controller: &dyn Controller, trace: &Trace) -> String {
    let words: Vec<u64> = trace
        .ops()
        .iter()
        .step_by(997)
        .map(|op| controller.peek_word(op.addr))
        .collect();
    format!(
        "{} | {:?} | {:?} | accesses={} | words={words:?}",
        controller.name(),
        controller.traffic(),
        controller.stats(),
        controller.array_accesses(),
    )
}

/// Per-op reference replay: the exact loop the replay driver must match,
/// sampler included — counters reset before the op at `warmup_ops`, and
/// every op is noted to the sampler, which is sampled the moment a
/// window fills.
fn replay_per_op(
    controller: &mut dyn Controller,
    trace: &Trace,
    warmup_ops: usize,
    mut sampler: Option<&mut Sampler>,
) {
    if let (Some(sampler), Some(obs)) = (sampler.as_deref_mut(), controller.obs()) {
        sampler.rebaseline(obs.registry());
    }
    for (i, op) in trace.iter().enumerate() {
        if i == warmup_ops {
            controller.reset_counters();
            if let (Some(sampler), Some(obs)) = (sampler.as_deref_mut(), controller.obs()) {
                sampler.rebaseline(obs.registry());
            }
        }
        controller.access(op);
        if let Some(sampler) = sampler.as_deref_mut() {
            if sampler.note_ops(1) {
                controller.settle();
                let obs = controller.obs().expect("every scheme is instrumented");
                let occupancy = controller.occupancy(0).unwrap_or_default();
                sampler.sample(obs.registry(), occupancy).unwrap();
            }
        }
    }
    controller.flush();
    if let Some(sampler) = sampler {
        let obs = controller.obs().expect("every scheme is instrumented");
        let occupancy = controller.occupancy(0).unwrap_or_default();
        sampler.finish(obs.registry(), occupancy).unwrap();
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

/// A sampler at `cadence` streaming into a fresh buffer.
fn sampler(id: SchemeId, cadence: u64) -> (Sampler, SharedBuf) {
    let buf = SharedBuf::default();
    let config = SamplerConfig {
        cadence,
        ring_capacity: 8,
    };
    let sampler = Sampler::new("gcc", &id.label(), config).with_writer(Box::new(buf.clone()));
    (sampler, buf)
}

#[test]
fn access_batch_matches_per_op_for_all_schemes() {
    let trace = materialized();
    // 1_024 puts the warm-up reset exactly on a batch seam; 7_000 puts
    // it mid-batch; 64_000 is a single batch covering the whole trace.
    for batch_ops in [1_024usize, 7_000, 64_000] {
        for id in SchemeId::default_suite() {
            let mut reference = build(id);
            replay_per_op(reference.as_mut(), &trace, WARMUP_OPS, None);

            let mut batched = build(id);
            let mut batch = DecodedBatch::new(CacheGeometry::paper_baseline());
            let mut index = 0usize;
            for sub in trace.ops().chunks(batch_ops) {
                let end = index + sub.len();
                batch.decode(sub);
                if index <= WARMUP_OPS && WARMUP_OPS < end {
                    let split = WARMUP_OPS - index;
                    batched.access_batch(&batch, 0..split);
                    batched.reset_counters();
                    batched.access_batch(&batch, split..sub.len());
                } else {
                    batched.access_batch(&batch, 0..sub.len());
                }
                index = end;
            }
            batched.flush();

            assert_eq!(
                snapshot(reference.as_ref(), &trace),
                snapshot(batched.as_ref(), &trace),
                "scheme {id} diverged at batch_ops={batch_ops}"
            );
        }
    }
}

#[test]
fn replay_helper_matches_per_op_for_all_schemes() {
    let trace = materialized();
    for id in SchemeId::default_suite() {
        let mut reference = build(id);
        replay_per_op(reference.as_mut(), &trace, WARMUP_OPS, None);

        // The whole trace fed once, as a materialized replay does.
        let mut whole = build(id);
        let mut replay = Replay::new(whole.as_mut(), WARMUP_OPS, &mut []);
        replay.feed(trace.ops());
        replay.finish();
        assert_eq!(
            snapshot(reference.as_ref(), &trace),
            snapshot(whole.as_ref(), &trace),
            "scheme {id}: whole-trace batched replay diverged"
        );

        // Fed in slices, as a streamed replay does — 7_000 keeps the
        // warm-up boundary inside the first slice and off every
        // 8_192-op sub-batch seam.
        let mut chunked = build(id);
        let mut replay = Replay::new(chunked.as_mut(), WARMUP_OPS, &mut []);
        for sub in trace.ops().chunks(7_000) {
            replay.feed(sub);
        }
        replay.finish();
        assert_eq!(
            snapshot(reference.as_ref(), &trace),
            snapshot(chunked.as_ref(), &trace),
            "scheme {id}: chunked batched replay diverged"
        );
    }
}

#[test]
fn warmup_boundary_cases_match_per_op() {
    let trace = materialized();
    // 0 resets before the very first op; TOTAL_OPS is past the last op
    // and must never reset; 8_192 lands exactly on a sub-batch seam of
    // `Replay::feed`. Sampled, 3_000 is on a window boundary at cadences 1
    // and 1_000, and 8_192 at cadences 1 and 8_192; 65_536 is longer
    // than the trace, so only the final partial window is emitted.
    for warmup in [0usize, WARMUP_OPS, 8_192, TOTAL_OPS] {
        for cadence in [None, Some(1), Some(1_000), Some(8_192), Some(65_536)] {
            for id in SchemeId::default_suite() {
                let mut reference = build(id);
                let mut reference_sampler = cadence.map(|c| sampler(id, c));
                replay_per_op(
                    reference.as_mut(),
                    &trace,
                    warmup,
                    reference_sampler.as_mut().map(|(s, _)| s),
                );

                let mut batched = build(id);
                let mut batched_sampler = cadence.map(|c| sampler(id, c));
                let mut replay = Replay::new(
                    batched.as_mut(),
                    warmup,
                    batched_sampler
                        .as_mut()
                        .map_or(&mut [][..], |(s, _)| std::slice::from_mut(s)),
                );
                replay.feed(trace.ops());
                let result = replay.finish();

                let case = format!("scheme {id}, warmup={warmup}, cadence={cadence:?}");
                assert_eq!(
                    snapshot(reference.as_ref(), &trace),
                    snapshot(batched.as_ref(), &trace),
                    "{case}"
                );
                if let (Some((per_op, want)), Some((_, got))) = (reference_sampler, batched_sampler)
                {
                    let want = want.0.lock().unwrap().clone();
                    assert!(!want.is_empty(), "{case}: no windows emitted");
                    assert!(
                        want == *got.0.lock().unwrap(),
                        "{case}: series bytes diverged"
                    );
                    let last = result[0].series.last().expect("ring holds the tail");
                    assert_eq!(per_op.emitted(), last.window + 1, "{case}");
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "batch decoded against a different geometry")]
fn mismatched_geometry_is_rejected() {
    let trace = materialized();
    let mut batch = DecodedBatch::new(CacheGeometry::new(8 * 1024, 2, 32).unwrap());
    batch.decode(trace.ops());
    let mut controller = build(SchemeId::SixT);
    controller.access_batch(&batch, 0..batch.len());
}
