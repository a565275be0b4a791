//! `stream-long`: one long WG+RB replay per profile, streamed through
//! `TraceStore::stream` → `PrefetchedChunks` → `run_scheme_on_stream`.
//! `bwaves` is write-heavy, so WG grouping and deposit work most; `mcf`
//! has few writes, so WG is mostly bypassed and the read path dominates.
//! Each trace is replayed once, so generation is on the critical path.

use std::sync::Arc;
use std::time::Instant;

use cache8t_exec::{
    run_scheme_on_stream, ChunkSource, PrefetchedChunks, RunConfig, SchemeKind, TraceStore,
};
use cache8t_sim::CacheGeometry;
use cache8t_trace::{profiles, DecodedBatch, TraceChunk, WorkloadProfile};

use crate::replay::{snapshot, traced_batches, Ledger, PerOp};
use crate::report::Outcome;
use crate::spans::{self, Recorder};
use crate::stats::{self, SplitMix};
use crate::Args;

/// Measured ops per replay (plus the standard 10 % warm-up).
pub const OPS: usize = 5_000_000;

/// Ops per streamed chunk.
pub const CHUNK_OPS: usize = 262_144;

const PROFILES: [&str; 2] = ["bwaves", "mcf"];

/// Digest of the (bwaves, mcf) WG+RB ledgers at the default seed.
const DEFAULT_SEED_DIGEST: u64 = 0x582c_82a9_0555_2b47;

const SCHEME: SchemeKind = SchemeKind::WgRb;

fn profile(name: &str) -> WorkloadProfile {
    profiles::by_name(name).expect("built-in profile")
}

fn config(seed: u64) -> RunConfig {
    RunConfig::new(CacheGeometry::paper_baseline(), OPS, seed)
}

/// Hands out the chunk fetched during set-up, then the prefetcher's,
/// and times each chunk from its request to the next request: the
/// chunk's replay plus the wait for its successor.
struct Timed {
    first: Option<Arc<TraceChunk>>,
    rest: PrefetchedChunks,
    last: Instant,
    chunk_ms: Vec<f64>,
}

impl ChunkSource for &mut Timed {
    fn next_chunk(&mut self) -> Option<Arc<TraceChunk>> {
        let chunk = self.first.take().or_else(|| self.rest.next_chunk());
        let now = Instant::now();
        self.chunk_ms.push((now - self.last).as_secs_f64() * 1e3);
        self.last = now;
        chunk
    }
}

struct Replay {
    setup_s: f64,
    measured_s: f64,
    ledger: Ledger,
    metrics: String,
    chunk_ms: Vec<f64>,
}

/// One untraced streamed replay.
fn replay(name: &str, seed: u64) -> Replay {
    let started = Instant::now();
    let store = TraceStore::in_memory();
    let config = config(seed);
    let stream = store.stream(&profile(name), seed, config.total_ops(), CHUNK_OPS);
    let mut rest = PrefetchedChunks::spawn(stream.cursor());
    let first = rest.next_chunk();
    let setup_s = started.elapsed().as_secs_f64();
    let replay_started = Instant::now();
    let mut timed = Timed {
        first,
        rest,
        last: replay_started,
        chunk_ms: Vec::new(),
    };
    let result = run_scheme_on_stream(SCHEME, &mut timed, config);
    let measured_s = replay_started.elapsed().as_secs_f64();
    // The first interval is the hand-over of the set-up chunk, not a
    // chunk's replay.
    let chunk_ms = timed.chunk_ms.split_off(1);
    Replay {
        setup_s,
        measured_s,
        ledger: Ledger::of(&result),
        metrics: serde_json::to_string(&result.metrics).expect("metrics serialize"),
        chunk_ms,
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    let reference = if args.trace {
        traced_run(args, out)
    } else {
        untraced_run(args, out)
    };
    check(args, &reference, out);
}

/// The end-to-end run: (bwaves, mcf) pairs back to back until the time
/// is up. Per-pair figures keep the two profiles' different costs from
/// making the medians bimodal.
fn untraced_run(args: &Args, out: &mut Outcome) -> Vec<Replay> {
    let deadline = Instant::now() + args.seconds;
    let (mut setup, mut mops, mut rate, mut chunk_ms) = (vec![], vec![], vec![], vec![]);
    let mut first: Option<Vec<Replay>> = None;
    loop {
        let pair: Vec<Replay> = PROFILES.iter().map(|p| replay(p, args.seed)).collect();
        out.attempted += pair.len() as u64;
        let measured: f64 = pair.iter().map(|r| r.measured_s).sum();
        let chunks: usize = pair.iter().map(|r| r.chunk_ms.len()).sum();
        setup.push(pair.iter().map(|r| r.setup_s).sum::<f64>());
        mops.push(PROFILES.len() as f64 * config(args.seed).total_ops() as f64 / measured / 1e6);
        rate.push(chunks as f64 / measured);
        chunk_ms.extend(pair.iter().flat_map(|r| r.chunk_ms.iter().copied()));
        match &first {
            None => first = Some(pair),
            Some(first) => {
                for (a, b) in first.iter().zip(&pair) {
                    out.check(a.ledger == b.ledger && a.metrics == b.metrics, || {
                        "a repeated replay gave a different result".to_owned()
                    });
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    out.set("peak_rss_mib", stats::peak_rss_mib().unwrap_or(0.0));
    out.set("setup_s", stats::median(&setup));
    out.set("sim_mops", stats::median(&mops));
    out.set("jobs_per_s", stats::median(&rate));
    crate::set_latency(
        out,
        &chunk_ms,
        "streamed chunk (its replay plus the wait for the next)",
    );
    out.note(format!(
        "stream-long: {} (bwaves, mcf) pairs of {} ops in {}-op chunks",
        setup.len(),
        config(args.seed).total_ops(),
        CHUNK_OPS
    ));
    first.expect("at least one pair")
}

/// Wraps the stream cursor on the prefetch thread, recording a
/// `trace.generate` span around each chunk it produces.
struct Generating<S> {
    inner: S,
    recorder: Arc<Recorder>,
}

impl<S: ChunkSource> ChunkSource for Generating<S> {
    fn next_chunk(&mut self) -> Option<Arc<TraceChunk>> {
        let mut local = self.recorder.local();
        let inner = &mut self.inner;
        let chunk = local.time("trace.generate", None, || inner.next_chunk());
        local.commit();
        chunk
    }
}

/// One streamed replay driven chunk by chunk through the layers' public
/// calls, with spans.
fn traced_replay(name: &str, seed: u64, recorder: &Arc<Recorder>) -> (Ledger, String, usize) {
    let mut local = recorder.local();
    let replay_span = local.open("bench.replay", None);
    let root = Some(replay_span);
    let store = TraceStore::in_memory();
    let config = config(seed);
    let stream = store.stream(&profile(name), seed, config.total_ops(), CHUNK_OPS);
    let mut chunks = PrefetchedChunks::spawn(Generating {
        inner: stream.cursor(),
        recorder: Arc::clone(recorder),
    });
    let (mut controller, mut batch) = local.time("core.build", root, || {
        (
            SCHEME.build(config.geometry),
            DecodedBatch::new(config.geometry),
        )
    });
    let (mut index, mut count) = (0u64, 0);
    while let Some(chunk) = local.time("exec.stream.wait", root, || chunks.next_chunk()) {
        count += 1;
        traced_batches(
            &mut local,
            root,
            "core.replay.wgrb",
            controller.as_mut(),
            &mut batch,
            chunk.ops(),
            index,
            config.warmup_ops as u64,
        );
        index += chunk.len() as u64;
    }
    local.time("core.replay.wgrb", root, || controller.flush());
    let result = snapshot(&mut local, root, controller.as_ref());
    local.close(replay_span);
    drop(chunks);
    local.commit();
    (
        Ledger::of(&result),
        serde_json::to_string(&result.metrics).expect("metrics serialize"),
        count,
    )
}

/// The traced run: one untraced pair, then the same pair traced.
fn traced_run(args: &Args, out: &mut Outcome) -> Vec<Replay> {
    let untraced: Vec<Replay> = PROFILES.iter().map(|p| replay(p, args.seed)).collect();
    let untraced_s: f64 = untraced.iter().map(|r| r.setup_s + r.measured_s).sum();
    let recorder = Arc::new(Recorder::default());
    let mut chunks = 0;
    for (name, reference) in PROFILES.iter().zip(&untraced) {
        let (ledger, metrics, count) = traced_replay(name, args.seed, &recorder);
        chunks += count;
        out.check(
            ledger == reference.ledger && metrics == reference.metrics,
            || format!("{name}: traced replay differs from the untraced one"),
        );
    }
    out.attempted += 2 * PROFILES.len() as u64;

    let all = recorder.spans();
    let by_name = spans::self_seconds_by_name(&all);
    let named = |n: &str| by_name.get(n).copied().unwrap_or(0.0);
    let ops = PROFILES.len() as f64 * config(args.seed).total_ops() as f64;
    out.set("trace.generate_s", named("trace.generate"));
    out.set("trace.generate_mops", ops / named("trace.generate") / 1e6);
    out.set("trace.decode_s", named("trace.decode"));
    out.set("trace.decode_mops", ops / named("trace.decode") / 1e6);
    out.set("core.replay_s.wgrb", named("core.replay.wgrb"));
    out.set("obs.snapshot_s", named("obs.snapshot"));
    out.set("exec.stream.wait_s", named("exec.stream.wait"));
    out.set("exec.stream.chunks", chunks as f64);
    let ledgers: Vec<Ledger> = untraced.iter().map(|r| r.ledger).collect();
    let misses: u64 = ledgers
        .iter()
        .map(|l| l.stats.read_misses + l.stats.write_misses)
        .sum();
    let hits: u64 = ledgers
        .iter()
        .map(|l| l.stats.read_hits + l.stats.write_hits)
        .sum();
    out.set("sim.miss_rate", misses as f64 / (hits + misses) as f64);
    out.set(
        "core.array_accesses.wgrb",
        ledgers.iter().map(|l| l.array_accesses).sum::<u64>() as f64,
    );
    crate::set_traffic_ratios(out, std::iter::empty(), ledgers.iter().map(|l| l.traffic));

    // The budget covers the replay thread: generation runs ahead on the
    // prefetch thread and reaches the replay only as stream wait.
    let replay_thread: Vec<_> = all
        .iter()
        .copied()
        .filter(|s| s.name != "trace.generate")
        .collect();
    let wall_s: f64 = replay_thread
        .iter()
        .filter(|s| s.name == "bench.replay")
        .map(|s| s.duration() as f64 / 1e9)
        .sum();
    let layers: f64 = spans::layer_seconds(&replay_thread).values().sum();
    crate::set_budget(out, layers, 0.0, 1, wall_s);
    out.set("bench.tracing_overhead_frac", wall_s / untraced_s - 1.0);
    out.spans = all;
    untraced
}

/// Correctness checks every run makes, outside the timed region: the
/// digest at the default seed, and one seed-chosen replay repeated
/// through the per-op reference.
fn check(args: &Args, pair: &[Replay], out: &mut Outcome) {
    let digest = pair
        .iter()
        .fold(stats::FNV_BASIS, |h, r| r.ledger.digest(h));
    out.note(format!("stream-long result digest {digest:016x}"));
    if args.seed == crate::DEFAULT_SEED {
        out.check(digest == DEFAULT_SEED_DIGEST, || {
            format!("result digest {digest:016x} != recorded {DEFAULT_SEED_DIGEST:016x}")
        });
    }
    let pick = SplitMix::new(args.seed ^ 0x5eed).below(PROFILES.len());
    let name = PROFILES[pick];
    let config = config(args.seed);
    let store = TraceStore::in_memory();
    let mut cursor = store
        .stream(&profile(name), args.seed, config.total_ops(), CHUNK_OPS)
        .cursor();
    let mut per_op = PerOp::new(SCHEME, config.geometry, config.warmup_ops);
    while let Some(chunk) = cursor.next_chunk() {
        per_op.feed(chunk.ops());
    }
    let expected = per_op.finish();
    out.check(pair[pick].ledger == expected, || {
        format!("{name}: batched replay differs from the per-op reference")
    });
}
