//! Golden documents: the bytes a sweep and a standalone replay publish,
//! pinned.
//!
//! Four outputs are digested with 64-bit FNV-1a:
//!
//! - the canonical sweep document (`to_document`, pretty-printed as
//!   `sweep --out` writes it) of 5 profiles × the 4 named geometries;
//! - the same sweep's telemetry series at cadence 1024, one JSON line
//!   per window as `--series-out` writes it;
//! - the `schemes` half of its metric document (`--metrics-out`);
//! - a standalone `coalesce:4` replay (coalescing is in no sweep): its
//!   metric registry as `simulate --metrics-out` writes it, followed by
//!   its series lines.
//!
//! The digests were recorded at the commit before the scheme ledgers
//! became the only place an access is counted (registry counters are
//! now published from them at settle). A change to any digest changes
//! an output byte that documents, baselines and benchmark digests pin.

use std::sync::Arc;

use cache8t::core::CoalescingController;
use cache8t::exec::{
    metrics_document, run_sweep, to_document, ExecOptions, GeometryPoint, Replay, SweepOptions,
    SweepPlan, TraceStore,
};
use cache8t::obs::{Sampler, SamplerConfig, SeriesSample};
use cache8t::sim::{CacheGeometry, ReplacementKind};
use cache8t::trace::{profiles, ProfiledGenerator, TraceGenerator};

const OPS: usize = 20_000;
const SEED: u64 = 42;
const CADENCE: u64 = 1024;

const DOCUMENT: u64 = 0x81fc_a858_4acf_78e1;
const SERIES: u64 = 0xc955_26c7_a85e_fb8e;
const SCHEME_METRICS: u64 = 0x8d14_2e2e_a0c1_fcdc;
const COALESCE: u64 = 0xf839_c134_d174_f0e0;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn series_bytes<'a>(samples: impl Iterator<Item = &'a SeriesSample>) -> String {
    samples.map(|s| s.to_json_line() + "\n").collect()
}

#[test]
fn sweep_document_series_and_metrics_are_pinned() {
    let plan = SweepPlan {
        profiles: ["gcc", "mcf", "bwaves", "lbm", "libquantum"]
            .iter()
            .map(|name| profiles::by_name(name).expect("suite profile"))
            .collect(),
        geometries: ["baseline", "blocks64", "small", "large"]
            .iter()
            .map(|label| GeometryPoint::named(label).expect("named geometry"))
            .collect(),
        ops: OPS,
        seed: SEED,
    };
    let options = SweepOptions {
        exec: ExecOptions {
            workers: 2,
            retries: 0,
        },
        store: Arc::new(TraceStore::in_memory()),
        series: Some(SamplerConfig::with_cadence(CADENCE)),
        ..SweepOptions::default()
    };
    let outcome = run_sweep(&plan, &options);
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);

    let document =
        serde_json::to_string_pretty(&to_document(&plan, &outcome)).expect("documents serialize");
    let series = series_bytes(outcome.series());
    let metrics = metrics_document(&outcome);
    let schemes = metrics
        .get("schemes")
        .expect("metric document has a schemes half");
    let schemes = serde_json::to_string_pretty(schemes).expect("metrics serialize");

    let digests = [
        fnv1a(document.as_bytes()),
        fnv1a(series.as_bytes()),
        fnv1a(schemes.as_bytes()),
    ];
    assert_eq!(
        digests,
        [DOCUMENT, SERIES, SCHEME_METRICS],
        "sweep digests moved: {digests:#018x?}"
    );
}

#[test]
fn standalone_coalescing_replay_is_pinned() {
    let geometry = CacheGeometry::paper_baseline();
    let profile = profiles::by_name("mcf").expect("suite profile");
    let trace = ProfiledGenerator::new(profile, geometry, SEED).collect(OPS);
    let mut controller = CoalescingController::new(geometry, ReplacementKind::Lru, 4);
    let mut samplers = [Sampler::new(
        "mcf",
        "CoalesceWB",
        SamplerConfig::with_cadence(CADENCE),
    )];
    let mut replay = Replay::new(&mut controller, OPS / 10, &mut samplers);
    replay.feed(trace.ops());
    let result = replay.finish().remove(0);

    let mut bytes = Vec::new();
    result
        .registry
        .write_json(&mut bytes)
        .expect("in-memory write");
    bytes.extend_from_slice(series_bytes(result.series.iter()).as_bytes());
    let digest = fnv1a(&bytes);
    assert_eq!(digest, COALESCE, "coalescing digest moved: {digest:#018x}");
}
