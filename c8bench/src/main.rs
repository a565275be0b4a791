//! End-to-end and per-layer benchmark of the cache8t workspace.
//!
//! ```text
//! c8bench --workload <paper-suite|stream-long|serve-mixed> --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) reports the per-layer metrics. See README.md.

mod paper;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;
mod stream;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use cache8t_core::ArrayTraffic;

use report::{Outcome, END_TO_END, PER_LAYER};

/// The seed whose result digests the benchmark records.
pub const DEFAULT_SEED: u64 = 42;

const WORKLOADS: [&str; 3] = ["paper-suite", "stream-long", "serve-mixed"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Worker threads: the host's available parallelism.
    pub workers: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload `{name}` (want one of {WORKLOADS:?})"
                    ));
                }
                workload = Some(name.clone());
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// A fixed integer loop, timed, so figures from different hosts can be
/// normalized. Median of three repetitions, in million iterations/s.
fn calibrate() -> f64 {
    const ITERATIONS: u64 = 20_000_000;
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
            let mut acc = 0u64;
            for i in 0..ITERATIONS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x.rotate_left((i & 63) as u32));
            }
            std::hint::black_box(acc);
            ITERATIONS as f64 / started.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    stats::median(&reps)
}

/// Sets the job-latency metrics from per-job samples in milliseconds.
pub fn set_latency(out: &mut Outcome, samples_ms: &[f64], job: &str) {
    match stats::tail(samples_ms) {
        Some(tail) => {
            out.set("job_latency_p50_ms", stats::median(samples_ms));
            out.set("job_latency_tail_ms", tail.value);
            out.note(format!(
                "job = one {job}: job_latency_tail_ms is p{} of {} samples",
                tail.pct, tail.count
            ));
        }
        None => out.fail(format!(
            "only {} {job} latencies: too few for a tail percentile",
            samples_ms.len()
        )),
    }
}

/// Sets the WG / WG+RB useful-work and waste ratios from their ledgers.
pub fn set_traffic_ratios(
    out: &mut Outcome,
    wg: impl Iterator<Item = ArrayTraffic>,
    wgrb: impl Iterator<Item = ArrayTraffic>,
) {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let wg = wg.fold(ArrayTraffic::default(), |a, t| add(&a, &t));
    let wgrb = wgrb.fold(ArrayTraffic::default(), |a, t| add(&a, &t));
    out.set(
        "core.wg.silent_elided_frac",
        ratio(
            wg.silent_writebacks_elided,
            wg.writebacks + wg.silent_writebacks_elided,
        ),
    );
    out.set(
        "core.wgrb.bypass_frac",
        ratio(wgrb.bypassed_reads, wgrb.bypassed_reads + wgrb.demand_reads),
    );
    out.set(
        "core.wgrb.premature_frac",
        ratio(wgrb.premature_writebacks, wgrb.writebacks),
    );
}

fn add(a: &ArrayTraffic, b: &ArrayTraffic) -> ArrayTraffic {
    ArrayTraffic {
        demand_reads: a.demand_reads + b.demand_reads,
        writebacks: a.writebacks + b.writebacks,
        premature_writebacks: a.premature_writebacks + b.premature_writebacks,
        bypassed_reads: a.bypassed_reads + b.bypassed_reads,
        silent_writebacks_elided: a.silent_writebacks_elided + b.silent_writebacks_elided,
        ..ArrayTraffic::default()
    }
}

/// Records the traced run's time budget and checks that it adds up.
pub fn set_budget(out: &mut Outcome, layer_s: f64, idle_s: f64, workers: usize, wall_s: f64) {
    let frac = spans::unattributed_frac(layer_s, idle_s, workers, wall_s);
    out.set("bench.unattributed_frac", frac);
    out.set("bench.workers", workers as f64);
    out.check(frac.abs() <= spans::BUDGET_TOLERANCE, || {
        format!(
            "time budget: {:.1}% of {workers} x {wall_s:.3} s unattributed (tolerance {:.0}%)",
            frac * 100.0,
            spans::BUDGET_TOLERANCE * 100.0
        )
    });
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("c8bench: {e}");
            return ExitCode::from(2);
        }
    };
    let calib = calibrate();
    println!(
        "c8bench workload={} seed={} seconds={} trace={} workers={}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        args.workers
    );
    if !args.trace {
        // Traced runs print it with the per-layer metrics.
        println!("host.calib_mops = {calib} Mops/s");
    }

    let mut out = Outcome::default();
    match args.workload.as_str() {
        "paper-suite" => paper::run(&args, &mut out),
        "stream-long" => stream::run(&args, &mut out),
        "serve-mixed" => serve::run(&args, &mut out),
        _ => unreachable!("workload names are validated"),
    }
    out.set("host.calib_mops", calib);
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.set("failed_frac", failed_frac);
    if !args.trace {
        println!("failed_frac = {failed_frac} ratio");
    }
    out.note(format!(
        "{} of {} attempted failed",
        out.failed, out.attempted
    ));

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        if !stats::valid_metric_name(name) {
            out.errors.push(format!("invalid metric name `{name}`"));
        }
        let value = match out.values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                out.errors
                    .push(format!("metric {name} is not finite ({v})"));
                0.0
            }
            // A layer that does no work on this workload reads 0; an
            // end-to-end metric must always be measured.
            None if args.trace => 0.0,
            None => {
                out.errors.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        println!("{name} = {value} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    if args.trace {
        match write_spans(&args.workload, &out.spans) {
            Ok(path) => out.note(format!(
                "{} spans written to {}",
                out.spans.len(),
                path.display()
            )),
            Err(e) => out.errors.push(format!("writing spans: {e}")),
        }
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for error in &out.errors {
        eprintln!("c8bench: FAILED: {error}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Writes a traced run's spans to `.run/spans-<workload>.jsonl` in the
/// benchmark's directory, replacing the previous run's.
fn write_spans(workload: &str, spans: &[spans::Span]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".run");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}.jsonl"));
    let file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    spans::write_jsonl(spans, file)?;
    Ok(path)
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&argv(
            "--workload stream-long --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.workload, "stream-long");
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, Duration::from_secs(12));
        assert!(args.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload paper-suite --trace 2",
            "--workload paper-suite --seconds 0",
            "--workload paper-suite --bogus 1",
            "--workload paper-suite --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1234567890123), "0.1234567890123");
        assert_eq!(json_number(1e-7), "0.0000001");
    }
}
