//! The per-benchmark experiment runner shared by every harness binary
//! and the sweep engine.
//!
//! Lived in `cache8t-bench` until the execution engine arrived; it sits
//! here now so both the serial figure binaries (through the
//! `cache8t_bench::experiment` re-exports) and the parallel sweep
//! scheduler drive the exact same code — which is what makes "the sweep
//! output is byte-identical to the serial run" checkable rather than
//! aspirational.

use serde::Serialize;

use cache8t_core::{ArrayTraffic, Controller, CountingPolicy, RmwController, WgController};
use cache8t_obs::{
    span, MetricRegistry, Sampler, SamplerConfig, SeriesSample, SpanGuard, TraceEvent,
};
use cache8t_sim::{CacheGeometry, CacheStats, ReplacementKind};
use cache8t_trace::analyze::{StreamStats, StreamStatsAccumulator};
use cache8t_trace::{
    profiles, warmup_split, DecodedBatch, MemOp, ProfiledGenerator, Trace, TraceGenerator,
    WorkloadProfile,
};

use crate::stream::{ChunkSource, PrefetchedChunks};

/// How a run is set up: geometry, stream length and warm-up.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RunConfig {
    /// Cache geometry under test.
    #[serde(skip)]
    pub geometry: CacheGeometry,
    /// Measured operations per benchmark.
    pub ops: usize,
    /// Warm-up operations before counters reset (the paper fast-forwards
    /// 1 B of its 10 B instructions; we keep the same 10 % ratio).
    pub warmup_ops: usize,
    /// Seed for the trace generator.
    pub seed: u64,
}

impl RunConfig {
    /// A config over `geometry` with `ops` measured operations, 10 %
    /// warm-up, and the given seed.
    pub fn new(geometry: CacheGeometry, ops: usize, seed: u64) -> Self {
        RunConfig {
            geometry,
            ops,
            warmup_ops: ops / 10,
            seed,
        }
    }

    /// Total generated operations (warm-up + measured).
    pub fn total_ops(&self) -> usize {
        self.warmup_ops + self.ops
    }
}

/// One controller's outcome on one benchmark.
#[derive(Debug, Clone, Serialize)]
pub struct SchemeResult {
    /// Scheme name (`"6T"`, `"RMW"`, `"WG"`, `"WG+RB"`).
    pub scheme: &'static str,
    /// Array activations under demand-only counting.
    pub array_accesses: u64,
    /// The full traffic ledger.
    pub traffic: ArrayTraffic,
    /// Request-level hit/miss statistics.
    pub stats: CacheStats,
    /// Metric-registry snapshot (counters, gauges, histograms) taken
    /// after the measured region; `Null` when the controller has no
    /// observability bundle.
    pub metrics: serde_json::Value,
    /// Structural trace events recorded during the measured region.
    /// Empty unless `CACHE8T_TRACE` is `event` or `verbose`; excluded
    /// from the serialized result (use `--trace-out` for the JSONL).
    #[serde(skip)]
    pub events: Vec<TraceEvent>,
    /// The live registry behind `metrics`, kept for merging and
    /// terminal rendering (`report_card`); excluded from JSON.
    #[serde(skip)]
    pub registry: MetricRegistry,
    /// Windowed telemetry samples recorded during the replay. Empty
    /// unless the run was sampled (see [`Replay::new`]);
    /// excluded from the serialized result (use `--series-out` for the
    /// JSONL), which keeps sweep documents byte-identical whether or
    /// not a series was requested.
    #[serde(skip)]
    pub series: Vec<SeriesSample>,
}

/// All schemes' outcomes on one benchmark, plus the measured stream
/// statistics.
#[derive(Debug, Clone, Serialize)]
pub struct BenchmarkResult {
    /// Benchmark name.
    pub name: String,
    /// Measured Figure-3/4/5 statistics of the generated stream.
    pub stream: StreamStats,
    /// Conventional (6T) controller outcome.
    pub conventional: SchemeResult,
    /// RMW baseline outcome.
    pub rmw: SchemeResult,
    /// Write Grouping outcome.
    pub wg: SchemeResult,
    /// Write Grouping + Read Bypassing outcome.
    pub wgrb: SchemeResult,
}

impl BenchmarkResult {
    /// RMW's access increase over the conventional cache (the paper's ">32 %
    /// on average, max 47 %" motivation).
    pub fn rmw_increase(&self) -> f64 {
        if self.conventional.array_accesses == 0 {
            return 0.0;
        }
        self.rmw.array_accesses as f64 / self.conventional.array_accesses as f64 - 1.0
    }

    /// WG's access reduction vs RMW (the left bars of Figures 9–11).
    pub fn wg_reduction(&self) -> f64 {
        self.wg
            .traffic
            .reduction_vs(&self.rmw.traffic, CountingPolicy::DemandOnly)
    }

    /// WG+RB's access reduction vs RMW (the right bars of Figures 9–11).
    pub fn wgrb_reduction(&self) -> f64 {
        self.wgrb
            .traffic
            .reduction_vs(&self.rmw.traffic, CountingPolicy::DemandOnly)
    }

    /// The four scheme results in canonical order.
    pub fn schemes(&self) -> [&SchemeResult; 4] {
        [&self.conventional, &self.rmw, &self.wg, &self.wgrb]
    }

    /// Assembles a result from the four scheme results in canonical
    /// order.
    ///
    /// # Panics
    ///
    /// Panics unless `schemes` yields exactly the four schemes of
    /// [`SchemeKind::ALL`], in order.
    pub fn assemble(
        name: String,
        stream: StreamStats,
        schemes: impl IntoIterator<Item = SchemeResult>,
    ) -> BenchmarkResult {
        let mut schemes = schemes.into_iter();
        let mut next = |kind: SchemeKind| {
            let result = schemes.next().expect("four scheme results");
            assert_eq!(result.scheme, kind.name(), "schemes out of order");
            result
        };
        BenchmarkResult {
            name,
            stream,
            conventional: next(SchemeKind::Conventional),
            rmw: next(SchemeKind::Rmw),
            wg: next(SchemeKind::Wg),
            wgrb: next(SchemeKind::WgRb),
        }
    }
}

/// The four controller schemes every benchmark runs through, in the
/// canonical (6T, RMW, WG, WG+RB) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Conventional 6T-style cache (one array access per write).
    Conventional,
    /// 8T read-modify-write baseline.
    Rmw,
    /// Write Grouping.
    Wg,
    /// Write Grouping + Read Bypassing.
    WgRb,
}

impl SchemeKind {
    /// All four schemes in canonical order.
    pub const ALL: [SchemeKind; 4] = [
        SchemeKind::Conventional,
        SchemeKind::Rmw,
        SchemeKind::Wg,
        SchemeKind::WgRb,
    ];

    /// The display name the controller itself reports.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Conventional => "6T",
            SchemeKind::Rmw => "RMW",
            SchemeKind::Wg => "WG",
            SchemeKind::WgRb => "WG+RB",
        }
    }

    /// Builds the standalone (one-ledger) controller for this scheme over
    /// `geometry`.
    pub fn build(self, geometry: CacheGeometry) -> Box<dyn Controller> {
        let lru = ReplacementKind::Lru;
        match self {
            SchemeKind::Conventional => Box::new(RmwController::conventional(geometry, lru)),
            SchemeKind::Rmw => Box::new(RmwController::new(geometry, lru)),
            SchemeKind::Wg => Box::new(WgController::new(geometry, lru)),
            SchemeKind::WgRb => Box::new(WgController::wg_rb(geometry, lru)),
        }
    }
}

/// Schemes whose functional replay is identical — same hits, misses,
/// replacement decisions and values — so one replay through a family
/// controller yields all their results (one ledger each).
///
/// The two families split [`SchemeKind::ALL`] in canonical order, so
/// replaying them in order yields the four results in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeFamily {
    /// 6T and RMW: no write buffer; only the cost of a store differs.
    Array,
    /// WG and WG+RB: one Set-Buffer; only when it is written back differs.
    Grouping,
}

impl SchemeFamily {
    /// Both families, in canonical order.
    pub const ALL: [SchemeFamily; 2] = [SchemeFamily::Array, SchemeFamily::Grouping];

    /// The family's label: the family controller's
    /// [`Controller::name`], and the sweep's unit name.
    pub fn name(self) -> &'static str {
        match self {
            SchemeFamily::Array => "6T/RMW",
            SchemeFamily::Grouping => "WG/WG+RB",
        }
    }

    /// The member schemes, in ledger order.
    pub fn schemes(self) -> &'static [SchemeKind] {
        match self {
            SchemeFamily::Array => &SchemeKind::ALL[..2],
            SchemeFamily::Grouping => &SchemeKind::ALL[2..],
        }
    }

    /// Builds the family controller over `geometry`: one functional core,
    /// one ledger per member scheme. Its [`Controller::name`] is the
    /// family's label.
    pub fn build(self, geometry: CacheGeometry) -> Box<dyn Controller> {
        let lru = ReplacementKind::Lru;
        match self {
            SchemeFamily::Array => Box::new(RmwController::family(geometry, lru)),
            SchemeFamily::Grouping => Box::new(WgController::family(geometry, lru)),
        }
    }
}

/// Ops per pre-decoded sub-batch in [`Replay::feed`].
///
/// Large enough to amortize the decode pass and keep the per-batch loop
/// overhead negligible; small enough that the decoded columns (~41 B/op)
/// stay cache-resident and the streamed replay's memory stays bounded by
/// the chunk size, not the trace length.
const REPLAY_BATCH_OPS: usize = 8192;

/// Whether [`Replay`] uses the pre-decoded batch fast path.
///
/// On by default; `CACHE8T_NO_BATCH=1` forces the per-op path. CI uses
/// the switch to diff batched-vs-per-op sweep documents byte-for-byte.
fn batching_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("CACHE8T_NO_BATCH").map_or(true, |v| v != "1"))
}

/// The one replay driver: feeds an op stream through a controller with
/// the standard warm-up protocol and, optionally, continuous-telemetry
/// [`Sampler`]s, then snapshots the outcome of every ledger.
///
/// Call [`feed`](Replay::feed) with consecutive slices of the stream (a
/// materialized trace once, a chunk source chunk by chunk) and then
/// [`finish`](Replay::finish). Ops carry global indices across feeds,
/// so the result does not depend on where the slices are cut.
///
/// Each [`REPLAY_BATCH_OPS`] sub-batch is decoded once and split at the
/// warm-up seam and at every sampler window boundary; each piece runs
/// through [`Controller::access_batch`], or through per-op
/// [`Controller::access`] under `CACHE8T_NO_BATCH=1`. The counter reset
/// fires immediately before the op with global index `warmup_ops` (never
/// when the stream is shorter), and a window boundary at the same index
/// is sampled first — exactly where a per-op loop would put both.
///
/// A family controller (one functional core, several scheme ledgers)
/// takes one sampler per ledger. All of them share the cadence, so every
/// ledger's windows close at the same op indices.
///
/// # Panics
///
/// [`new`](Replay::new) panics unless `samplers` is empty or holds one
/// sampler per ledger. [`feed`](Replay::feed) and
/// [`finish`](Replay::finish) panic if a sampler's writer fails: series
/// I/O errors are environment errors at this layer; callers wanting
/// recoverable I/O should write the returned series themselves.
pub struct Replay<'a> {
    controller: &'a mut dyn Controller,
    /// Empty when unsampled; else one per ledger.
    samplers: &'a mut [Sampler],
    /// `None` on the per-op reference path.
    batch: Option<DecodedBatch>,
    /// Global index of the next op to replay.
    index: u64,
    warmup: u64,
    // The controller name is 'static, so it doubles as the span label:
    // the span report breaks replay time down per scheme (or family).
    _span: SpanGuard,
}

impl<'a> Replay<'a> {
    /// Starts a replay through `controller` whose counters reset before
    /// the op with global index `warmup_ops`, sampled by `samplers` (one
    /// per ledger, or none).
    pub fn new(
        controller: &'a mut dyn Controller,
        warmup_ops: usize,
        samplers: &'a mut [Sampler],
    ) -> Self {
        assert!(
            samplers.is_empty() || samplers.len() == controller.ledger_count(),
            "one sampler per ledger"
        );
        let span = SpanGuard::enter(controller.name());
        let mut replay = Replay {
            batch: batching_enabled().then(|| DecodedBatch::new(controller.cache().geometry())),
            controller,
            samplers,
            index: 0,
            warmup: warmup_ops as u64,
            _span: span,
        };
        replay.rebaseline();
        replay
    }

    fn rebaseline(&mut self) {
        self.controller.settle();
        for (i, sampler) in self.samplers.iter_mut().enumerate() {
            sampler.rebaseline(self.controller.ledger(i).obs().registry());
        }
    }

    /// Closes every sampler's current window — or, when `last`, its final
    /// partial one — against its ledger's live registry and buffer
    /// occupancy.
    fn close_windows(&mut self, last: bool) {
        self.controller.settle();
        for (i, sampler) in self.samplers.iter_mut().enumerate() {
            let registry = self.controller.ledger(i).obs().registry();
            let occupancy = self.controller.occupancy(i).unwrap_or_default();
            let written = if last {
                sampler.finish(registry, occupancy)
            } else {
                sampler.sample(registry, occupancy)
            };
            written.expect("series writer failed");
        }
    }

    /// Replays the next `ops` of the stream.
    pub fn feed(&mut self, ops: &[MemOp]) {
        for sub in ops.chunks(REPLAY_BATCH_OPS) {
            if let Some(batch) = self.batch.as_mut() {
                batch.decode(sub);
            }
            let mut at = 0;
            while at < sub.len() {
                if self.index == self.warmup {
                    self.controller.reset_counters();
                    self.rebaseline();
                }
                let mut len = (sub.len() - at) as u64;
                if self.warmup > self.index {
                    len = len.min(self.warmup - self.index);
                }
                if let Some(sampler) = self.samplers.first() {
                    len = len.min(sampler.ops_to_boundary());
                }
                let end = at + len as usize;
                match &self.batch {
                    Some(batch) => self.controller.access_batch(batch, at..end),
                    None => {
                        for op in &sub[at..end] {
                            self.controller.access(op);
                        }
                    }
                }
                at = end;
                self.index += len;
                let mut boundary = false;
                for sampler in self.samplers.iter_mut() {
                    boundary |= sampler.note_ops(len);
                }
                if boundary {
                    self.close_windows(false);
                }
            }
        }
        for sampler in self.samplers.iter_mut() {
            // Completed windows become visible to live consumers at every
            // feed; this changes when bytes are written, never which.
            sampler.flush_writer().expect("series writer failed");
        }
    }

    /// Flushes the controller, closes the samplers' final windows, and
    /// snapshots every ledger's outcome, in ledger order; each sampler's
    /// retained ring becomes its ledger's [`SchemeResult::series`].
    pub fn finish(mut self) -> Vec<SchemeResult> {
        self.controller.flush();
        if !self.samplers.is_empty() {
            self.close_windows(true);
        }
        (0..self.controller.ledger_count())
            .map(|i| {
                let ledger = self.controller.ledger(i);
                let registry = ledger.obs().registry();
                SchemeResult {
                    scheme: ledger.name(),
                    array_accesses: ledger.array_accesses(),
                    traffic: *ledger.traffic(),
                    stats: *ledger.stats(),
                    metrics: registry.to_value(),
                    events: ledger.obs().tracer().events().copied().collect(),
                    registry: registry.clone(),
                    series: self
                        .samplers
                        .get_mut(i)
                        .map(Sampler::take_ring)
                        .unwrap_or_default(),
                }
            })
            .collect()
    }
}

/// The op stream a replay or a stream measurement consumes.
pub enum OpSource<'t, S> {
    /// A materialized trace, fed once as a borrowed slice: nothing is
    /// copied.
    Trace(&'t Trace),
    /// A chunk stream, fed chunk by chunk, so memory stays bounded by
    /// the chunk size regardless of trace length.
    Chunks(S),
}

impl<S: ChunkSource> OpSource<'_, S> {
    /// Feeds every op through `replay` and returns one result per ledger.
    pub fn replay(self, mut replay: Replay<'_>) -> Vec<SchemeResult> {
        match self {
            OpSource::Trace(trace) => replay.feed(trace.ops()),
            OpSource::Chunks(mut chunks) => {
                while let Some(chunk) = chunks.next_chunk() {
                    replay.feed(chunk.ops());
                }
            }
        }
        replay.finish()
    }

    /// The Figure-3/4/5 statistics of the measured region; streamed and
    /// materialized results are bit-identical.
    pub fn measure(self, config: RunConfig) -> StreamStats {
        match self {
            OpSource::Trace(trace) => measure_stream(trace, config),
            OpSource::Chunks(chunks) => measure_stream_streamed(chunks, config),
        }
    }
}

/// Replays `source` through `controller`, whose ledgers account
/// `schemes` in order; with `series`, each ledger gets a ring-only sampler
/// labelled `bench`/scheme. Windows depend only on the trace and the
/// cadence, never on wall-clock or scheduling, so sweep series stay
/// byte-identical across `--jobs`.
fn replay_schemes<S: ChunkSource>(
    mut controller: Box<dyn Controller>,
    schemes: &[SchemeKind],
    source: OpSource<'_, S>,
    config: RunConfig,
    series: Option<(&str, SamplerConfig)>,
) -> Vec<SchemeResult> {
    let mut samplers: Vec<Sampler> = series.map_or_else(Vec::new, |(bench, sampler_config)| {
        let sampler = |scheme: &SchemeKind| Sampler::new(bench, scheme.name(), sampler_config);
        schemes.iter().map(sampler).collect()
    });
    let replay = Replay::new(controller.as_mut(), config.warmup_ops, &mut samplers);
    source.replay(replay)
}

/// One scheme's standalone (one-ledger) replay of `source`.
fn run_scheme<S: ChunkSource>(
    scheme: SchemeKind,
    source: OpSource<'_, S>,
    config: RunConfig,
    series: Option<(&str, SamplerConfig)>,
) -> SchemeResult {
    let controller = scheme.build(config.geometry);
    replay_schemes(controller, &[scheme], source, config, series).swap_remove(0)
}

/// Runs one scheme of one benchmark over an already-generated trace.
pub fn run_scheme_on_trace(scheme: SchemeKind, trace: &Trace, config: RunConfig) -> SchemeResult {
    run_scheme(
        scheme,
        OpSource::<PrefetchedChunks>::Trace(trace),
        config,
        None,
    )
}

/// [`run_scheme_on_trace`] with series sampling: the windows land in
/// [`SchemeResult::series`], labelled `bench`/scheme.
pub fn run_scheme_on_trace_sampled(
    scheme: SchemeKind,
    trace: &Trace,
    config: RunConfig,
    bench: &str,
    sampler_config: SamplerConfig,
) -> SchemeResult {
    let source = OpSource::<PrefetchedChunks>::Trace(trace);
    run_scheme(scheme, source, config, Some((bench, sampler_config)))
}

/// Runs one scheme over a chunk stream, mirroring
/// [`run_scheme_on_trace`].
pub fn run_scheme_on_stream<S: ChunkSource>(
    scheme: SchemeKind,
    chunks: S,
    config: RunConfig,
) -> SchemeResult {
    run_scheme(scheme, OpSource::Chunks(chunks), config, None)
}

/// Runs one scheme family over `source` — one functional replay, one
/// result per member scheme in [`SchemeFamily::schemes`] order — the
/// sweep engine's unit of parallel work. With `series`, each member gets
/// a ring-only sampler labelled `bench`/scheme.
pub fn run_family<S: ChunkSource>(
    family: SchemeFamily,
    source: OpSource<'_, S>,
    config: RunConfig,
    series: Option<(&str, SamplerConfig)>,
) -> Vec<SchemeResult> {
    let controller = family.build(config.geometry);
    replay_schemes(controller, family.schemes(), source, config, series)
}

/// Measures the Figure-3/4/5 stream statistics of the measured region —
/// the sweep engine's third per-benchmark unit of work.
pub fn measure_stream(trace: &Trace, config: RunConfig) -> StreamStats {
    let _span = span!("bench.stream_stats");
    let (ops, instructions) = trace.measured_region(config.warmup_ops);
    StreamStats::measure_ops(ops, instructions, config.geometry)
}

/// [`measure_stream`] over a [`ChunkSource`]: folds the measured region
/// chunk-by-chunk through the incremental accumulator, then normalizes
/// by the same `warmup_split` pro-rating the materialized path uses —
/// so the result is bit-identical to measuring the assembled trace.
pub fn measure_stream_streamed<S: ChunkSource>(mut chunks: S, config: RunConfig) -> StreamStats {
    let _span = span!("bench.stream_stats");
    let mut acc = StreamStatsAccumulator::new(config.geometry);
    let warmup = config.warmup_ops as u64;
    let mut total_ops = 0u64;
    let mut total_instructions = 0u64;
    while let Some(chunk) = chunks.next_chunk() {
        total_instructions += chunk.instructions();
        let start = total_ops;
        let ops = chunk.ops();
        total_ops += ops.len() as u64;
        if total_ops <= warmup {
            continue; // entirely inside the warm-up region
        }
        let skip = warmup.saturating_sub(start) as usize;
        acc.feed(&ops[skip..]);
    }
    let split = warmup_split(total_ops as usize, total_instructions, config.warmup_ops);
    acc.finish(split.measured_instructions)
}

/// Generates the benchmark's trace exactly as the experiment runner
/// does: shaped at the paper's *reference* geometry and replayed
/// unchanged against every cache configuration — the paper's own
/// methodology (one Pin trace, many cache models). This is what lets
/// the Figure 10/11 sensitivity effects emerge from spatial locality
/// rather than being re-generated away.
pub fn generate_trace(profile: &WorkloadProfile, config: RunConfig) -> Trace {
    let _span = span!("bench.generate");
    let mut generator = ProfiledGenerator::new(
        profile.clone(),
        CacheGeometry::paper_baseline(),
        config.seed,
    );
    generator.collect(config.total_ops())
}

/// Runs one benchmark profile through all four schemes over an
/// identical, pre-generated trace: one replay per [`SchemeFamily`].
pub fn run_benchmark_on_trace(
    profile: &WorkloadProfile,
    config: RunConfig,
    trace: &Trace,
) -> BenchmarkResult {
    let stream = measure_stream(trace, config);
    let schemes = SchemeFamily::ALL.iter().flat_map(|&family| {
        let source = OpSource::<PrefetchedChunks>::Trace(trace);
        run_family(family, source, config, None)
    });
    BenchmarkResult::assemble(profile.name.clone(), stream, schemes)
}

/// Runs one benchmark profile through all four controllers over an
/// identical trace.
pub fn run_benchmark(profile: &WorkloadProfile, config: RunConfig) -> BenchmarkResult {
    let trace = generate_trace(profile, config);
    run_benchmark_on_trace(profile, config, &trace)
}

/// Runs the full 25-benchmark suite serially. The sweep engine
/// (`crate::sweep`) produces identical results in parallel.
pub fn run_suite(config: RunConfig) -> Vec<BenchmarkResult> {
    profiles::spec2006()
        .iter()
        .map(|p| run_benchmark(p, config))
        .collect()
}

/// Arithmetic mean of a per-benchmark metric.
pub fn average<F: Fn(&BenchmarkResult) -> f64>(results: &[BenchmarkResult], f: F) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(f).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache8t_trace::ChunkedGenerator;

    fn small_config() -> RunConfig {
        RunConfig::new(CacheGeometry::paper_baseline(), 20_000, 7)
    }

    #[test]
    fn scheme_kinds_build_their_controllers() {
        for kind in SchemeKind::ALL {
            let controller = kind.build(CacheGeometry::paper_baseline());
            assert_eq!(controller.name(), kind.name());
        }
    }

    #[test]
    fn per_unit_runs_assemble_into_the_serial_result() {
        // The engine's unit jobs must reproduce run_benchmark exactly.
        let p = profiles::by_name("gcc").unwrap();
        let config = small_config();
        let serial = run_benchmark(&p, config);
        let trace = generate_trace(&p, config);
        let assembled = run_benchmark_on_trace(&p, config, &trace);
        assert_eq!(serial.rmw.array_accesses, assembled.rmw.array_accesses);
        assert_eq!(serial.wgrb.array_accesses, assembled.wgrb.array_accesses);
        assert_eq!(serial.conventional.stats, assembled.conventional.stats);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&assembled).unwrap()
        );
    }

    #[test]
    fn sampling_does_not_perturb_the_measurement() {
        // A sampled run must report byte-identical results to the plain
        // runner — telemetry observes the replay, it never changes it.
        let p = profiles::by_name("gcc").unwrap();
        let config = small_config();
        let trace = generate_trace(&p, config);
        let plain = run_scheme_on_trace(SchemeKind::Wg, &trace, config);
        let sampled = run_scheme_on_trace_sampled(
            SchemeKind::Wg,
            &trace,
            config,
            "gcc",
            SamplerConfig {
                cadence: 1_024,
                ring_capacity: 64,
            },
        );
        assert_eq!(plain.stats, sampled.stats);
        assert_eq!(plain.array_accesses, sampled.array_accesses);
        assert_eq!(
            serde_json::to_string(&plain.metrics).unwrap(),
            serde_json::to_string(&sampled.metrics).unwrap()
        );
        assert!(!sampled.series.is_empty());
        assert!(plain.series.is_empty());
        // Serialized scheme results are unchanged by sampling: the
        // series rides along outside the document schema.
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&sampled).unwrap()
        );
    }

    fn chunks_for(
        p: &WorkloadProfile,
        config: RunConfig,
        chunk_ops: usize,
    ) -> ChunkedGenerator<ProfiledGenerator> {
        let generator =
            ProfiledGenerator::new(p.clone(), CacheGeometry::paper_baseline(), config.seed);
        ChunkedGenerator::new(generator, chunk_ops, config.total_ops() as u64)
    }

    #[test]
    fn streamed_replay_is_bit_identical_to_materialized() {
        // The tentpole invariant: a chunked replay — at any chunk size,
        // including seams inside the warm-up region — serializes to the
        // exact bytes of the materialized replay, for every scheme.
        let p = profiles::by_name("gcc").unwrap();
        let config = small_config();
        let trace = generate_trace(&p, config);
        for chunk_ops in [999usize, 4_096, 22_000, 50_000] {
            for scheme in SchemeKind::ALL {
                let materialized = run_scheme_on_trace(scheme, &trace, config);
                let streamed =
                    run_scheme_on_stream(scheme, chunks_for(&p, config, chunk_ops), config);
                assert_eq!(
                    serde_json::to_string(&materialized).unwrap(),
                    serde_json::to_string(&streamed).unwrap(),
                    "scheme={} chunk_ops={chunk_ops}",
                    scheme.name()
                );
            }
            let materialized = measure_stream(&trace, config);
            let streamed = measure_stream_streamed(chunks_for(&p, config, chunk_ops), config);
            assert_eq!(
                serde_json::to_string(&materialized).unwrap(),
                serde_json::to_string(&streamed).unwrap(),
                "stream stats, chunk_ops={chunk_ops}"
            );
        }
    }

    #[test]
    fn streamed_sampled_series_is_byte_identical_to_materialized() {
        // Chunk seams fall mid-window (cadence 1024, chunk 1000): the
        // streamed sampler must emit the same windows and the same JSONL
        // bytes as the materialized sampled replay.
        use std::sync::{Arc as StdArc, Mutex};

        #[derive(Clone)]
        struct SharedBuf(StdArc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let p = profiles::by_name("mcf").unwrap();
        let config = small_config();
        let trace = generate_trace(&p, config);
        let sampler_config = SamplerConfig {
            cadence: 1_024,
            ring_capacity: 64,
        };

        let run = |replay: &dyn Fn(&mut dyn Controller, &mut Sampler) -> SchemeResult| {
            let buf = SharedBuf(StdArc::new(Mutex::new(Vec::new())));
            let mut sampler = Sampler::new("mcf", SchemeKind::WgRb.name(), sampler_config)
                .with_writer(Box::new(buf.clone()));
            let mut controller = SchemeKind::WgRb.build(config.geometry);
            let result = replay(controller.as_mut(), &mut sampler);
            let bytes = buf.0.lock().unwrap().clone();
            (result, bytes)
        };

        let (materialized, mat_bytes) = run(&|c, s| {
            let mut replay = Replay::new(c, config.warmup_ops, std::slice::from_mut(s));
            replay.feed(trace.ops());
            replay.finish().swap_remove(0)
        });
        for chunk_ops in [1_000usize, 4_096] {
            let (streamed, stream_bytes) = run(&|c, s| {
                OpSource::Chunks(chunks_for(&p, config, chunk_ops))
                    .replay(Replay::new(c, config.warmup_ops, std::slice::from_mut(s)))
                    .swap_remove(0)
            });
            assert_eq!(
                mat_bytes, stream_bytes,
                "JSONL bytes, chunk_ops={chunk_ops}"
            );
            assert_eq!(
                materialized.series, streamed.series,
                "ring series, chunk_ops={chunk_ops}"
            );
            assert_eq!(materialized.stats, streamed.stats);
        }
    }

    #[test]
    fn streamed_warmup_reset_handles_every_seam_case() {
        // The reset must fire exactly before the op at index warmup_ops:
        // at a chunk seam, mid-chunk, with no warm-up at all, and with a
        // warm-up longer than the stream (never fires).
        let p = profiles::by_name("gcc").unwrap();
        let base = small_config();
        let trace = generate_trace(&p, base);
        for warmup_ops in [0usize, 1_000, 1_001, 2_000, 21_999, 22_000, 50_000] {
            let config = RunConfig { warmup_ops, ..base };
            let materialized = run_scheme_on_trace(SchemeKind::Wg, &trace, config);
            let streamed =
                run_scheme_on_stream(SchemeKind::Wg, chunks_for(&p, base, 1_000), config);
            assert_eq!(
                serde_json::to_string(&materialized).unwrap(),
                serde_json::to_string(&streamed).unwrap(),
                "warmup_ops={warmup_ops}"
            );
        }
    }

    #[test]
    fn prefetched_streamed_replay_matches_direct_streaming() {
        // Double-buffered prefetch is pure plumbing: same chunks, same
        // result, even though generation happens on another thread.
        let p = profiles::by_name("gcc").unwrap();
        let config = small_config();
        let direct = run_scheme_on_stream(SchemeKind::Rmw, chunks_for(&p, config, 2_048), config);
        let prefetched = run_scheme_on_stream(
            SchemeKind::Rmw,
            crate::stream::PrefetchedChunks::spawn(chunks_for(&p, config, 2_048)),
            config,
        );
        assert_eq!(
            serde_json::to_string(&direct).unwrap(),
            serde_json::to_string(&prefetched).unwrap()
        );
    }

    #[test]
    fn long_sampled_replays_hold_a_bounded_ring() {
        // Memory for an arbitrarily long replay is O(ring), not O(ops):
        // far more windows are emitted than retained.
        let p = profiles::by_name("mcf").unwrap();
        let config = RunConfig::new(CacheGeometry::paper_baseline(), 200_000, 7);
        let trace = generate_trace(&p, config);
        let sampler_config = SamplerConfig {
            cadence: 64,
            ring_capacity: 32,
        };
        let mut sampler = Sampler::new("mcf", "WG", sampler_config);
        let mut controller = SchemeKind::Wg.build(config.geometry);
        let samplers = std::slice::from_mut(&mut sampler);
        let mut replay = Replay::new(controller.as_mut(), config.warmup_ops, samplers);
        replay.feed(trace.ops());
        let result = replay.finish().swap_remove(0);
        let windows = config.total_ops() as u64 / 64;
        assert!(sampler.emitted() >= windows, "{}", sampler.emitted());
        assert_eq!(result.series.len(), 32, "ring must stay at capacity");
        // The retained tail is the most recent windows, in order.
        let last = result.series.last().unwrap();
        assert_eq!(last.op_end, config.total_ops() as u64);
    }
}
