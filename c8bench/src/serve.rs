//! `serve-mixed`: an in-process `Server` on a unix socket with a
//! checkpoint directory, driven by one closed-loop `Client` through a
//! fixed, seeded sequence of small plans: fresh unsampled plans, fresh
//! sampled plans (the only place the `obs` sampler works), and
//! resubmits of completed plans, which the journal restores without
//! replay. Fresh jobs replay and write journals; resubmits only read.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cache8t_exec::{
    run_scheme_on_trace, run_scheme_on_trace_sampled, run_sweep, to_document, ExecOptions,
    GeometrySweep, SchemeKind, SweepOptions, SweepOutcome, SweepPlan, TraceStore,
};
use cache8t_obs::{MetricRegistry, OpLog, SamplerConfig};
use cache8t_serve::{Client, PlanSpec, ServeConfig, Server};
use serde_json::Value;

use crate::replay::check_sweep_units;
use crate::report::Outcome;
use crate::spans::{self, Recorder};
use crate::stats::{self, SplitMix};
use crate::Args;

/// Profiles the plans draw from. Plans share their traces through the
/// daemon's warm store, so the store stays bounded by this pool.
const PROFILE_POOL: [&str; 8] = [
    "gcc",
    "mcf",
    "bwaves",
    "milc",
    "lbm",
    "hmmer",
    "libquantum",
    "omnetpp",
];
const GEOMETRIES: [&str; 4] = ["baseline", "blocks64", "small", "large"];
const PROFILES_PER_PLAN: usize = 3;
/// Measured ops per benchmark of every plan.
const OPS: usize = 100_000;
/// Sampler cadence of the sampled plans, in ops.
const CADENCE: usize = 16_384;

/// Job kinds in each block of five; the seed shuffles every block.
const BLOCK: [Kind; 5] = [
    Kind::Fresh,
    Kind::Fresh,
    Kind::Sampled,
    Kind::Resubmit,
    Kind::Resubmit,
];

/// Jobs every run serves, however slow the host. `peak_rss_mib` is read
/// right after the last of them: the daemon keeps every job it served,
/// so a reading at the end of the timed run would grow with throughput.
const MIN_JOBS: usize = 100;
/// Jobs of the traced run, served once untraced and once traced.
const TRACED_JOBS: usize = 60;
/// Served documents folded into the recorded digest.
const DIGEST_JOBS: usize = 20;
/// Daemon start-ups timed for `setup_s`, in batches whose shutdowns
/// overlap. A start-up takes a fraction of a millisecond, mostly thread
/// spawns and wake-ups, and the host's scheduling delay shifts for a
/// second or more at a time. So `setup_s` is the median over batches of
/// each batch's fastest start-up, and the batches span about two seconds.
const SETUP_BATCHES: usize = 100;
const SETUPS_PER_BATCH: usize = 10;
/// Served units replayed again through the per-op reference.
const REFERENCE_UNITS: usize = 2;
/// Served plans checked against a `run_sweep` of their own.
const DIRECT_PLANS: usize = 4;

/// Digest of the first [`DIGEST_JOBS`] served documents at the default seed.
const DEFAULT_SEED_DIGEST: u64 = 0x3ec1_a87d_a2ce_9abd;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fresh,
    Sampled,
    Resubmit,
}

/// The seeded job sequence. Fresh plans are dealt without replacement
/// from a shuffled deck of every ordered profile list × geometry, one
/// deck per kind. When a deck runs out it is dealt again under the next
/// plan seed (`seed + deals`), so a fresh plan never repeats a
/// fingerprint however many jobs a run serves. Resubmits pick a plan
/// that already completed.
struct Sequence {
    rng: SplitMix,
    seed: u64,
    block: Vec<Kind>,
    served: Vec<PlanSpec>,
    /// Undealt plans and decks dealt so far: unsampled, then sampled.
    decks: [(Vec<PlanSpec>, u64); 2],
}

impl Sequence {
    fn new(seed: u64) -> Self {
        Sequence {
            rng: SplitMix::new(seed),
            seed,
            block: Vec::new(),
            served: Vec::new(),
            decks: Default::default(),
        }
    }

    fn next(&mut self) -> (Kind, PlanSpec) {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            self.rng.shuffle(&mut self.block);
        }
        let kind = self.block.pop().expect("refilled");
        if kind == Kind::Resubmit && !self.served.is_empty() {
            let spec = self.served[self.rng.below(self.served.len())].clone();
            return (kind, spec);
        }
        let sampled = kind == Kind::Sampled;
        let (deck, deals) = &mut self.decks[usize::from(sampled)];
        if deck.is_empty() {
            *deck = every_plan(self.seed.wrapping_add(*deals), sampled);
            *deals += 1;
            self.rng.shuffle(deck);
        }
        let spec = deck.pop().expect("dealt");
        self.served.push(spec.clone());
        let kind = if sampled { Kind::Sampled } else { Kind::Fresh };
        (kind, spec)
    }
}

/// Every plan of [`PROFILES_PER_PLAN`] distinct pool profiles, in order,
/// at one geometry, under plan seed `seed`.
fn every_plan(seed: u64, sampled: bool) -> Vec<PlanSpec> {
    let mut lists: Vec<Vec<&str>> = vec![Vec::new()];
    for _ in 0..PROFILES_PER_PLAN {
        let mut longer = Vec::new();
        for list in &lists {
            for profile in PROFILE_POOL {
                if !list.contains(&profile) {
                    longer.push([list.as_slice(), &[profile]].concat());
                }
            }
        }
        lists = longer;
    }
    lists
        .iter()
        .flat_map(|list| {
            GEOMETRIES.iter().map(move |geometry| PlanSpec {
                profiles: list.iter().map(|p| (*p).to_owned()).collect(),
                geometries: vec![(*geometry).to_owned()],
                ops: OPS,
                seed,
                series_cadence: sampled.then_some(CADENCE),
            })
        })
        .collect()
}

fn key(spec: &PlanSpec) -> String {
    serde_json::to_string(&spec.to_value()).expect("plan specs serialize")
}

/// One served job as the client saw it.
struct Job {
    kind: Kind,
    spec: PlanSpec,
    latency_ms: f64,
    /// FNV-1a digest of the served document's bytes. Only digests are
    /// kept, so the client's memory does not grow with the job count.
    document: u64,
    /// Benchmarks restored from the journal, and in the plan.
    restored: u64,
    total: u64,
}

/// A running daemon and its client connection.
struct Daemon {
    client: Client,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds a daemon on `socket` journalling into `journal`, connects,
    /// and waits for an ok `health` reply.
    fn start(socket: &Path, journal: &Path, workers: usize) -> Result<Daemon, String> {
        let server = Server::bind(ServeConfig {
            listen: format!("unix:{}", socket.display()),
            checkpoint_dir: Some(journal.to_path_buf()),
            exec: ExecOptions {
                workers,
                retries: 0,
            },
            store: Arc::new(TraceStore::in_memory()),
            oplog: Arc::new(OpLog::disabled()),
            stream_chunk_ops: None,
        })
        .map_err(|e| format!("bind {}: {e}", socket.display()))?;
        let addr = server.local_addr().to_owned();
        let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        let thread = std::thread::spawn(move || server.run());
        client.health().map_err(|e| format!("health: {e}"))?;
        Ok(Daemon { client, thread })
    }

    fn stop(self) -> Result<(), String> {
        self.request_stop()?.join()
    }

    /// Asks the daemon to shut down; the returned handle waits for it.
    fn request_stop(mut self) -> Result<Stopping, String> {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        Ok(Stopping(self.thread))
    }
}

/// A daemon that was asked to shut down.
struct Stopping(JoinHandle<std::io::Result<()>>);

impl Stopping {
    fn join(self) -> Result<(), String> {
        match self.0.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

/// A per-process scratch directory inside the benchmark's own directory,
/// removed when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn new() -> std::io::Result<RunDir> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".run")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    /// A fresh socket path. Unix socket paths are short, so it is given
    /// relative to the working directory when that is shorter.
    fn socket(&self, n: usize) -> PathBuf {
        let path = self.0.join(format!("s{n}.sock"));
        std::env::current_dir()
            .ok()
            .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
            .unwrap_or(path)
    }

    fn journal(&self, n: usize) -> PathBuf {
        self.0.join(format!("journal{n}"))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only when empty
        }
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    fix_mmap_threshold();
    let dir = match RunDir::new() {
        Ok(dir) => dir,
        Err(e) => return out.fail(format!("scratch directory: {e}")),
    };
    if let Err(e) = run_in(args, &dir, out) {
        out.fail(e);
    }
}

/// Fixes glibc's mmap threshold at its 128 KiB default. Left dynamic,
/// the threshold rises after the first large free, and later trace and
/// result buffers land in whichever worker thread's arena allocated them,
/// so the daemon's peak RSS at a fixed job count varied by about 10 %
/// from run to run with thread timing alone. Fixed, large buffers are
/// always mapped and returned on free.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets an allocator parameter, and it is
    // called before the workload starts any thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

fn run_in(args: &Args, dir: &RunDir, out: &mut Outcome) -> Result<(), String> {
    let jobs = if args.trace {
        traced_run(args, dir, out)?
    } else {
        untraced_run(args, dir, out)?
    };
    check(args, &jobs, out);
    Ok(())
}

/// Serves jobs from `sequence` until `deadline` (and at least
/// `min_jobs` attempts), or exactly `min_jobs` when there is no deadline.
fn serve_jobs(
    client: &mut Client,
    sequence: &mut Sequence,
    min_jobs: usize,
    deadline: Option<Instant>,
    trace: Option<&Recorder>,
    out: &mut Outcome,
) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    let mut attempted = 0;
    while attempted < min_jobs || deadline.is_some_and(|d| Instant::now() < d) {
        let (kind, spec) = sequence.next();
        attempted += 1;
        out.attempted += 1;
        let started = Instant::now();
        let id = client.submit(&spec).map_err(|e| format!("submit: {e}"))?;
        let submitted = Instant::now();
        let (mut running, mut restored, mut total) = (None, 0, 0);
        let state = client
            .watch(&id, |row| match row.get("event").and_then(Value::as_str) {
                Some("state") if row.get("state").and_then(Value::as_str) == Some("running") => {
                    running.get_or_insert_with(Instant::now);
                }
                Some("resume") => {
                    restored = row.get("restored").and_then(Value::as_u64).unwrap_or(0);
                    total = row.get("total").and_then(Value::as_u64).unwrap_or(0);
                }
                _ => {}
            })
            .map_err(|e| format!("watch: {e}"))?;
        let finished = Instant::now();
        let document = if state == "completed" {
            let document = client.results(&id).map_err(|e| format!("results: {e}"))?;
            Some(document_digest(
                &serde_json::to_string(&document).expect("documents serialize"),
            ))
        } else {
            None
        };
        let fetched = Instant::now();
        if let Some(recorder) = trace {
            let mut local = recorder.local();
            let job_span = local.open("bench.job", None);
            let job = Some(job_span);
            let running = running.unwrap_or(submitted);
            local.record("serve.submit", job, started, submitted);
            local.record("serve.queue", job, submitted, running);
            local.record("serve.run", job, running, finished);
            local.record("serve.fetch", job, finished, fetched);
            local.close(job_span);
            local.commit();
        }
        let Some(document) = document else {
            out.fail(format!("job {id} ({kind:?}) ended `{state}`"));
            continue;
        };
        jobs.push(Job {
            kind,
            spec,
            latency_ms: (fetched - started).as_secs_f64() * 1e3,
            document,
            restored,
            total,
        });
    }
    Ok(jobs)
}

/// Replayed ops of a served job: the benchmarks it did not restore, each
/// replayed by four schemes, warm-up included.
fn replayed_ops(job: &Job) -> f64 {
    let total_ops = job
        .spec
        .resolve()
        .expect("served plans resolve")
        .config(0)
        .total_ops();
    ((job.total - job.restored) as usize * SchemeKind::ALL.len() * total_ops) as f64
}

/// Starts daemons in [`SETUP_BATCHES`] batches of [`SETUPS_PER_BATCH`],
/// timing each start, and keeps the last one.
fn start_timed(args: &Args, dir: &RunDir, out: &mut Outcome) -> Result<Daemon, String> {
    let mut fastest = Vec::new();
    let mut kept = None;
    for batch in 0..SETUP_BATCHES {
        let (mut daemons, mut setups) = (Vec::new(), Vec::new());
        for n in batch * SETUPS_PER_BATCH..(batch + 1) * SETUPS_PER_BATCH {
            let started = Instant::now();
            daemons.push(Daemon::start(
                &dir.socket(n),
                &dir.journal(n),
                args.workers,
            )?);
            setups.push(started.elapsed().as_secs_f64());
        }
        fastest.push(setups.iter().copied().fold(f64::INFINITY, f64::min));
        if batch + 1 == SETUP_BATCHES {
            kept = daemons.pop();
        }
        let stopping = daemons
            .into_iter()
            .map(Daemon::request_stop)
            .collect::<Result<Vec<_>, _>>()?;
        stopping.into_iter().try_for_each(Stopping::join)?;
    }
    out.set("setup_s", stats::median(&fastest));
    Ok(kept.expect("at least one daemon"))
}

fn untraced_run(args: &Args, dir: &RunDir, out: &mut Outcome) -> Result<Vec<Job>, String> {
    let mut daemon = start_timed(args, dir, out)?;
    let mut sequence = Sequence::new(args.seed);
    let started = Instant::now();
    let deadline = started + args.seconds;
    let client = &mut daemon.client;
    let mut jobs = serve_jobs(client, &mut sequence, MIN_JOBS, None, None, out)?;
    out.set("peak_rss_mib", stats::peak_rss_mib().unwrap_or(0.0));
    jobs.extend(serve_jobs(
        client,
        &mut sequence,
        0,
        Some(deadline),
        None,
        out,
    )?);
    let wall_s = started.elapsed().as_secs_f64();
    daemon.stop()?;
    let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_ms).collect();
    crate::set_latency(out, &latencies, "served plan (submit to document)");
    out.set("jobs_per_s", jobs.len() as f64 / wall_s);
    out.set(
        "sim_mops",
        jobs.iter().map(replayed_ops).sum::<f64>() / wall_s / 1e6,
    );
    let count = |k: Kind| jobs.iter().filter(|j| j.kind == k).count();
    out.note(format!(
        "serve-mixed: {} jobs ({} fresh, {} sampled, {} resubmitted) of {} profiles x 1 geometry x {} ops",
        jobs.len(),
        count(Kind::Fresh),
        count(Kind::Sampled),
        count(Kind::Resubmit),
        PROFILES_PER_PLAN,
        OPS
    ));
    Ok(jobs)
}

fn traced_run(args: &Args, dir: &RunDir, out: &mut Outcome) -> Result<Vec<Job>, String> {
    let (untraced, untraced_s) = {
        let mut daemon = Daemon::start(&dir.socket(0), &dir.journal(0), args.workers)?;
        let started = Instant::now();
        let jobs = serve_jobs(
            &mut daemon.client,
            &mut Sequence::new(args.seed),
            TRACED_JOBS,
            None,
            None,
            out,
        )?;
        let wall_s = started.elapsed().as_secs_f64();
        daemon.stop()?;
        (jobs, wall_s)
    };

    let recorder = Recorder::default();
    let mut daemon = Daemon::start(&dir.socket(1), &dir.journal(1), args.workers)?;
    let started = Instant::now();
    let jobs = serve_jobs(
        &mut daemon.client,
        &mut Sequence::new(args.seed),
        TRACED_JOBS,
        None,
        Some(&recorder),
        out,
    )?;
    let wall_s = started.elapsed().as_secs_f64();
    let metrics = daemon
        .client
        .metrics()
        .map_err(|e| format!("metrics: {e}"))?;
    daemon.stop()?;

    for (a, b) in untraced.iter().zip(&jobs) {
        out.check(a.document == b.document, || {
            format!(
                "traced job for {} differs from the untraced one",
                key(&a.spec)
            )
        });
    }
    out.check(untraced.len() == jobs.len(), || {
        "traced and untraced runs served different job counts".to_owned()
    });

    let all = recorder.spans();
    let span_ms = |name: &str| -> Vec<f64> {
        all.iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / 1e6)
            .collect()
    };
    out.set("serve.submit_ms", stats::median(&span_ms("serve.submit")));
    out.set("serve.queue_ms", stats::median(&span_ms("serve.queue")));
    out.set("serve.run_ms", stats::median(&span_ms("serve.run")));
    out.set("serve.fetch_ms", stats::median(&span_ms("serve.fetch")));
    let restored: u64 = jobs.iter().map(|j| j.restored).sum();
    let total: u64 = jobs.iter().map(|j| j.total).sum();
    out.set("serve.restored_frac", restored as f64 / total.max(1) as f64);
    out.set("serve.jobs", jobs.len() as f64);
    let server = metrics.get("server");
    let field = |path: [&str; 2]| {
        server
            .and_then(|s| s.get(path[0]))
            .and_then(|v| v.get(path[1]))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    out.set("serve.journal_bytes", field(["journal", "bytes"]) as f64);
    let generated = field(["trace_store", "generated"]);
    let hits = field(["trace_store", "mem_hits"]);
    out.set("exec.store.generated", generated as f64);
    out.set(
        "exec.store.hit_frac",
        hits as f64 / (hits + generated).max(1) as f64,
    );
    out.set("obs.sampler_s", sampler_seconds(&jobs));

    let layers: f64 = spans::layer_seconds(&all).values().sum();
    crate::set_budget(out, layers, 0.0, 1, wall_s);
    out.spans = all;
    out.set("bench.tracing_overhead_frac", wall_s / untraced_s - 1.0);
    Ok(jobs)
}

/// Sampler cost: every scheme unit of the traced sampled jobs replayed
/// sampled and unsampled, summing the difference.
fn sampler_seconds(jobs: &[Job]) -> f64 {
    let store = TraceStore::in_memory();
    let mut extra = 0.0;
    for job in jobs.iter().filter(|j| j.kind == Kind::Sampled) {
        let plan = job.spec.resolve().expect("served plans resolve");
        let config = plan.config(0);
        for profile in &plan.profiles {
            let trace = store.get(profile, plan.seed, config.total_ops());
            for kind in SchemeKind::ALL {
                let started = Instant::now();
                std::hint::black_box(run_scheme_on_trace(kind, &trace, config));
                let plain = started.elapsed().as_secs_f64();
                let started = Instant::now();
                std::hint::black_box(run_scheme_on_trace_sampled(
                    kind,
                    &trace,
                    config,
                    &profile.name,
                    SamplerConfig {
                        cadence: CADENCE as u64,
                        ..SamplerConfig::default()
                    },
                ));
                extra += started.elapsed().as_secs_f64() - plain;
            }
        }
    }
    extra
}

/// Correctness checks, outside the timed region: every served document
/// against `run_sweep` + `to_document` on the same plan, the digest at
/// the default seed, and a few served units against the per-op reference.
fn check(args: &Args, jobs: &[Job], out: &mut Outcome) {
    let digest = jobs
        .iter()
        .take(DIGEST_JOBS)
        .fold(stats::FNV_BASIS, |h, j| {
            stats::fnv1a(h, &j.document.to_le_bytes())
        });
    out.note(format!(
        "serve-mixed digest of the first {DIGEST_JOBS} documents {digest:016x}"
    ));
    if args.seed == crate::DEFAULT_SEED {
        out.check(
            jobs.len() >= DIGEST_JOBS && digest == DEFAULT_SEED_DIGEST,
            || format!("document digest {digest:016x} != recorded {DEFAULT_SEED_DIGEST:016x}"),
        );
    }
    // One `run_sweep` over every profile × geometry the plans draw from,
    // per plan seed served, gives each served benchmark's reference
    // result: a unit's result depends only on its profile, geometry, ops
    // and seed.
    let options = SweepOptions {
        exec: ExecOptions {
            workers: args.workers,
            retries: 0,
        },
        store: Arc::new(TraceStore::in_memory()),
        ..SweepOptions::default()
    };
    let union = |seed: u64| {
        PlanSpec {
            profiles: PROFILE_POOL.iter().map(|p| (*p).to_owned()).collect(),
            geometries: GEOMETRIES.iter().map(|g| (*g).to_owned()).collect(),
            ops: OPS,
            seed,
            series_cadence: None,
        }
        .resolve()
        .expect("the pool resolves")
    };
    let mut seeds: Vec<u64> = jobs.iter().map(|j| j.spec.seed).collect();
    seeds.push(args.seed);
    seeds.sort_unstable();
    seeds.dedup();
    let mut references = HashMap::new();
    for seed in seeds {
        let reference = run_sweep(&union(seed), &options);
        for f in &reference.failures {
            out.fail(format!(
                "reference {}/{} (seed {seed}): {}",
                f.geometry, f.benchmark, f.message
            ));
        }
        references.insert(seed, reference);
    }
    let result_of = |seed: u64, profile: &str, geometry: &str| {
        let g = GEOMETRIES.iter().position(|l| *l == geometry)?;
        let p = PROFILE_POOL.iter().position(|n| *n == profile)?;
        references[&seed].geometries[g].results[p].clone()
    };
    let mut expected: HashMap<String, u64> = HashMap::new();
    let mut distinct = Vec::new();
    for job in jobs {
        let document = expected.entry(key(&job.spec)).or_insert_with(|| {
            distinct.push(job.spec.clone());
            let plan = job.spec.resolve().expect("served plans resolve");
            let geometries = plan
                .geometries
                .iter()
                .map(|point| GeometrySweep {
                    point: point.clone(),
                    results: plan
                        .profiles
                        .iter()
                        .map(|p| result_of(plan.seed, &p.name, &point.label))
                        .collect(),
                })
                .collect();
            document_digest(&document_of(&plan, geometries))
        });
        out.check(job.document == *document, || {
            format!(
                "served document for {} differs from run_sweep",
                key(&job.spec)
            )
        });
    }
    // A few served plans also get a `run_sweep` of their own.
    let mut rng = SplitMix::new(args.seed ^ 0x5eed);
    for _ in 0..DIRECT_PLANS.min(distinct.len()) {
        let spec = &distinct[rng.below(distinct.len())];
        let plan = spec.resolve().expect("served plans resolve");
        let outcome = run_sweep(&plan, &options);
        let document =
            serde_json::to_string(&to_document(&plan, &outcome)).expect("documents serialize");
        out.check(document_digest(&document) == expected[&key(spec)], || {
            format!(
                "run_sweep of {} differs from its served document",
                key(spec)
            )
        });
    }
    let first = union(args.seed);
    check_sweep_units(
        out,
        &first,
        &references[&args.seed],
        &mut rng,
        REFERENCE_UNITS,
    );
}

fn document_digest(document: &str) -> u64 {
    stats::fnv1a(stats::FNV_BASIS, document.as_bytes())
}

/// The sweep document of `plan` over already computed results.
fn document_of(plan: &SweepPlan, geometries: Vec<GeometrySweep>) -> String {
    let outcome = SweepOutcome {
        geometries,
        failures: Vec::new(),
        cancelled: 0,
        metrics: MetricRegistry::new(),
        spans: Vec::new(),
        elapsed: Duration::ZERO,
    };
    serde_json::to_string(&to_document(plan, &outcome)).expect("documents serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_plans_never_repeat_past_a_whole_deck() {
        let deck = every_plan(0, false).len();
        assert_eq!(deck, 8 * 7 * 6 * GEOMETRIES.len());
        let mut sequence = Sequence::new(7);
        let mut seen = std::collections::HashSet::new();
        let (mut fresh, mut sampled) = (0, 0);
        while fresh <= 2 * deck {
            let (kind, spec) = sequence.next();
            match kind {
                Kind::Resubmit => assert!(seen.contains(&key(&spec))),
                Kind::Fresh | Kind::Sampled => {
                    assert!(seen.insert(key(&spec)), "fresh plan repeated");
                    assert_eq!(spec.series_cadence.is_some(), kind == Kind::Sampled);
                    if kind == Kind::Fresh {
                        fresh += 1;
                    } else {
                        sampled += 1;
                    }
                }
            }
        }
        assert!(sampled > deck / 2);
    }

    #[test]
    fn sequences_are_seeded() {
        let draw = |seed| {
            let mut sequence = Sequence::new(seed);
            (0..50).map(|_| key(&sequence.next().1)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }
}
