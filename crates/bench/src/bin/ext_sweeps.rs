//! **Extension E6** — parametric sweeps beyond the paper's two sensitivity
//! studies, showing *why* the figures look the way they do:
//!
//! - **write share**: WG's benefit scales with the fraction of stores
//!   (RMW's overhead is exactly the write share, so the headroom grows
//!   with it);
//! - **silent fraction**: the Dirty bit converts silent-store frequency
//!   directly into eliminated write-backs;
//! - **WW locality**: grouping lives on consecutive same-set writes;
//! - **associativity**: a wider set means a bigger Set-Buffer row and more
//!   tags per Tag-Buffer entry, raising hit opportunity at constant
//!   capacity.
//!
//! Each sweep varies one parameter of a mid-suite synthetic profile with
//! everything else held fixed. The points all run as independent jobs on
//! the execution engine; the associativity sweep's five geometries share
//! one generated trace through the trace store.

use std::sync::Arc;

use cache8t_bench::cli::CommonArgs;
use cache8t_bench::experiment::replay_whole;
use cache8t_bench::table::{pct, Table};
use cache8t_core::{CountingPolicy, RmwController, WgController, WgRbController};
use cache8t_exec::{run_jobs, ExecOptions, JobOutcome, TraceStore};
use cache8t_sim::{CacheGeometry, ReplacementKind};
use cache8t_trace::{PairLocality, Trace, WorkloadProfile};

/// The suite-average-like base point for all sweeps.
fn base_profile() -> WorkloadProfile {
    WorkloadProfile {
        name: "sweep-base".to_string(),
        mem_per_instr: 0.40,
        read_share: 0.65,
        locality: PairLocality {
            rr: 0.10,
            rw: 0.04,
            wr: 0.04,
            ww: 0.10,
        },
        silent_fraction: 0.45,
        working_set_blocks: 15_000,
        zipf_exponent: 1.0,
        write_revisit: 0.45,
        read_after_write: 0.10,
        silent_correlation: 0.7,
        spatial_adjacency: 0.35,
    }
}

/// Replays a shared trace at one geometry and returns (WG, WG+RB)
/// reductions.
fn point(trace: &Trace, geometry: CacheGeometry) -> (f64, f64) {
    let lru = ReplacementKind::Lru;
    let rmw = replay_whole(&mut RmwController::new(geometry, lru), trace).traffic;
    let wg = replay_whole(&mut WgController::new(geometry, lru), trace).traffic;
    let wgrb = replay_whole(&mut WgRbController::new(geometry, lru), trace).traffic;
    (
        wg.reduction_vs(&rmw, CountingPolicy::DemandOnly),
        wgrb.reduction_vs(&rmw, CountingPolicy::DemandOnly),
    )
}

/// One sweep point: which table it belongs to, the fixed row cells, and
/// the (profile, geometry) to run.
struct SweepPoint {
    section: usize,
    cells: Vec<String>,
    profile: WorkloadProfile,
    geometry: CacheGeometry,
}

fn main() {
    let args = CommonArgs::from_env();
    let ops = (args.ops / 10).max(20_000);
    let baseline = CacheGeometry::paper_baseline();

    println!("Extension E6: parameter sweeps around a suite-average workload\n");

    let mut points: Vec<SweepPoint> = Vec::new();

    // --- Section 0: write share. ---
    for write_share in [0.1, 0.2, 0.3, 0.4, 0.5] {
        let mut p = base_profile();
        p.read_share = 1.0 - write_share;
        // Scale the write-involving pair targets with the write share so
        // the *relative* write locality stays constant.
        let scale = write_share / 0.35;
        p.locality.ww = (0.10 * scale).min(0.5 * write_share);
        p.locality.rw = 0.04 * scale;
        p.locality.wr = 0.04 * scale;
        if p.validate().is_err() {
            continue;
        }
        points.push(SweepPoint {
            section: 0,
            cells: vec![format!("{:.0}%", write_share * 100.0)],
            profile: p,
            geometry: baseline,
        });
    }

    // --- Section 1: silent fraction. ---
    for silent in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let mut p = base_profile();
        p.silent_fraction = silent;
        points.push(SweepPoint {
            section: 1,
            cells: vec![format!("{:.0}%", silent * 100.0)],
            profile: p,
            geometry: baseline,
        });
    }

    // --- Section 2: WW pair locality. ---
    for ww in [0.02, 0.06, 0.10, 0.15, 0.20] {
        let mut p = base_profile();
        p.locality.ww = ww;
        if p.validate().is_err() {
            continue;
        }
        points.push(SweepPoint {
            section: 2,
            cells: vec![format!("{:.0}%", ww * 100.0)],
            profile: p,
            geometry: baseline,
        });
    }

    // --- Section 3: associativity at constant 64 KB capacity. ---
    for ways in [1u64, 2, 4, 8, 16] {
        let geometry = CacheGeometry::new(64 * 1024, ways, 32).expect("valid geometry");
        points.push(SweepPoint {
            section: 3,
            cells: vec![format!("{ways}-way"), format!("{}B", geometry.set_bytes())],
            profile: base_profile(),
            geometry,
        });
    }

    // All points in one batch: the five associativity geometries share a
    // single generated trace through the store (the profile fingerprint,
    // not the geometry, keys generation).
    let store = Arc::new(TraceStore::in_memory());
    let jobs: Vec<_> = points
        .iter()
        .map(|sp| {
            let store = Arc::clone(&store);
            move || {
                let trace = store.get(&sp.profile, args.seed, ops);
                point(&trace, sp.geometry)
            }
        })
        .collect();
    let exec = ExecOptions {
        workers: args.jobs.unwrap_or(0),
        retries: 0,
    };
    let report = run_jobs(jobs, &exec, None);

    let mut tables = [
        Table::new(&["write share of memops", "WG", "WG+RB"]),
        Table::new(&["silent fraction", "WG", "WG+RB"]),
        Table::new(&["WW same-set pairs", "WG", "WG+RB"]),
        Table::new(&[
            "associativity (64KB, 32B blocks)",
            "set size",
            "WG",
            "WG+RB",
        ]),
    ];
    let mut failed = false;
    for (sp, outcome) in points.iter().zip(report.outcomes) {
        match outcome {
            JobOutcome::Completed((wg, wgrb)) => {
                let mut row = sp.cells.clone();
                row.push(pct(wg));
                row.push(pct(wgrb));
                tables[sp.section].row(&row);
            }
            JobOutcome::Failed { message, .. } => {
                eprintln!("sweep point {:?} failed: {message}", sp.cells);
                failed = true;
            }
            JobOutcome::Cancelled => {
                eprintln!("sweep point {:?} cancelled", sp.cells);
                failed = true;
            }
        }
    }
    for (i, table) in tables.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        table.print();
    }

    println!("\nreading: benefits grow with write share, silent fraction and WW locality");
    println!("(each is one of the paper's three exploited behaviours); wider sets help");
    println!("up to the baseline 4-way (bigger rows per entry), then saturate — the\nextra ways cover blocks the workload rarely co-touches.");

    if failed {
        std::process::exit(1);
    }
}
