//! Replay steps shared by the workloads: the traced batched replay, the
//! result snapshot, and the per-op reference the batched results are
//! checked against.

use cache8t_core::{ArrayTraffic, Controller};
use cache8t_exec::experiment::generate_trace;
use cache8t_exec::{SchemeKind, SchemeResult, SweepOutcome, SweepPlan};
use cache8t_obs::MetricRegistry;
use cache8t_sim::CacheStats;
use cache8t_trace::{DecodedBatch, MemOp};

use crate::report::Outcome;
use crate::spans::Local;
use crate::stats::SplitMix;

/// Ops per decoded sub-batch, as in the library's batched replay loop.
pub const BATCH_OPS: usize = 8192;

/// The span name a scheme's replay is recorded under. The 6T replay is
/// the functional cache alone, so it counts as `sim`; the other schemes
/// add their traffic accounting on top, so they count as `core`.
pub fn replay_span(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::Conventional => "sim.replay.6t",
        SchemeKind::Rmw => "core.replay.rmw",
        SchemeKind::Wg => "core.replay.wg",
        SchemeKind::WgRb => "core.replay.wgrb",
    }
}

/// Replays `ops`, whose global indices start at `base`, in decoded
/// sub-batches: a `trace.decode` span around each decode and a `span`
/// span around each batch access. The warm-up counter reset fires
/// before the op with global index `warmup`, as in the library loop.
#[allow(clippy::too_many_arguments)]
pub fn traced_batches(
    local: &mut Local<'_>,
    parent: Option<usize>,
    span: &'static str,
    controller: &mut dyn Controller,
    batch: &mut DecodedBatch,
    ops: &[MemOp],
    base: u64,
    warmup: u64,
) {
    let mut index = base;
    for sub in ops.chunks(BATCH_OPS) {
        let end = index + sub.len() as u64;
        local.time("trace.decode", parent, || batch.decode(sub));
        local.time(span, parent, || {
            if index <= warmup && warmup < end {
                let split = (warmup - index) as usize;
                controller.access_batch(batch, 0..split);
                controller.reset_counters();
                controller.access_batch(batch, split..sub.len());
            } else {
                controller.access_batch(batch, 0..sub.len());
            }
        });
        index = end;
    }
}

/// Snapshots a replayed controller the way the library's runner does,
/// with an `obs.snapshot` span around the registry snapshot.
pub fn snapshot(
    local: &mut Local<'_>,
    parent: Option<usize>,
    controller: &dyn Controller,
) -> SchemeResult {
    let (metrics, registry) = local.time("obs.snapshot", parent, || match controller.obs() {
        Some(obs) => (obs.registry().to_value(), obs.registry().clone()),
        None => (serde_json::Value::Null, MetricRegistry::new()),
    });
    SchemeResult {
        scheme: controller.name(),
        array_accesses: controller.array_accesses(),
        traffic: *controller.traffic(),
        stats: *controller.stats(),
        metrics,
        events: Vec::new(),
        registry,
        series: Vec::new(),
    }
}

/// The simulated outcome of one replay, as compared between paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    pub stats: CacheStats,
    pub traffic: ArrayTraffic,
    pub array_accesses: u64,
}

impl Ledger {
    pub fn of(result: &SchemeResult) -> Ledger {
        Ledger {
            stats: result.stats,
            traffic: result.traffic,
            array_accesses: result.array_accesses,
        }
    }

    /// Folds the ledger into a digest.
    pub fn digest(&self, hash: u64) -> u64 {
        let text = format!(
            "{}{}{}",
            serde_json::to_string(&self.stats).expect("stats serialize"),
            serde_json::to_string(&self.traffic).expect("traffic serializes"),
            self.array_accesses
        );
        crate::stats::fnv1a(hash, text.as_bytes())
    }
}

/// Per-op reference replay: every op through `Controller::access`.
pub struct PerOp {
    controller: Box<dyn Controller>,
    index: u64,
    warmup: u64,
}

impl PerOp {
    pub fn new(kind: SchemeKind, geometry: cache8t_sim::CacheGeometry, warmup: usize) -> Self {
        PerOp {
            controller: kind.build(geometry),
            index: 0,
            warmup: warmup as u64,
        }
    }

    pub fn feed(&mut self, ops: &[MemOp]) {
        for op in ops {
            if self.index == self.warmup {
                self.controller.reset_counters();
            }
            self.controller.access(op);
            self.index += 1;
        }
    }

    pub fn finish(mut self) -> Ledger {
        self.controller.flush();
        Ledger {
            stats: *self.controller.stats(),
            traffic: *self.controller.traffic(),
            array_accesses: self.controller.array_accesses(),
        }
    }
}

/// Replays `count` seed-chosen scheme units of a sweep through the per-op
/// reference, on freshly generated traces. Each must match the sweep's
/// batched result exactly: stats, traffic and array accesses.
pub fn check_sweep_units(
    out: &mut Outcome,
    plan: &SweepPlan,
    outcome: &SweepOutcome,
    rng: &mut SplitMix,
    count: usize,
) {
    for _ in 0..count {
        let g = rng.below(plan.geometries.len());
        let b = rng.below(plan.profiles.len());
        let kind = SchemeKind::ALL[rng.below(SchemeKind::ALL.len())];
        let batched = outcome.geometries[g].results[b].as_ref().and_then(|r| {
            r.schemes()
                .into_iter()
                .find(|s| s.scheme == kind.name())
                .map(Ledger::of)
        });
        let config = plan.config(g);
        let trace = generate_trace(&plan.profiles[b], config);
        let mut per_op = PerOp::new(kind, config.geometry, config.warmup_ops);
        per_op.feed(trace.ops());
        out.check(batched == Some(per_op.finish()), || {
            format!(
                "{}/{}/{}: batched result differs from the per-op reference",
                plan.geometries[g].label,
                plan.profiles[b].name,
                kind.name()
            )
        });
    }
}
