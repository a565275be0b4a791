//! **Extension E3** — ablations of the design choices `DESIGN.md` calls
//! out, all measured as suite-average access reduction vs RMW on the
//! baseline cache:
//!
//! - **silent-write detection off**: how much of WG's benefit comes from
//!   the Dirty bit (paper §4.1 credits silent stores for a large share);
//! - **read bypassing alone** vs grouping alone (decomposing WG+RB);
//! - **Set-Buffer depth**: the paper uses one buffer; deeper buffers are
//!   listed as the natural extension;
//! - **replacement policy**: LRU (the paper's) vs FIFO/Random/Tree-PLRU.

use cache8t_bench::cli::CommonArgs;
use cache8t_bench::experiment::replay_whole;
use cache8t_bench::table::{pct, Table};
use cache8t_core::{CountingPolicy, RmwController, WgController, WgOptions};
use cache8t_sim::{CacheGeometry, ReplacementKind};
use cache8t_trace::{profiles, ProfiledGenerator, TraceGenerator};

/// Average reduction of `options` vs RMW over the whole suite.
fn suite_reduction(options: WgOptions, replacement: ReplacementKind, ops: usize, seed: u64) -> f64 {
    let geometry = CacheGeometry::paper_baseline();
    let mut total = 0.0;
    let suite = profiles::spec2006();
    for profile in &suite {
        let trace = ProfiledGenerator::new(profile.clone(), geometry, seed).collect(ops);
        let rmw = replay_whole(&mut RmwController::new(geometry, replacement), &trace).traffic;
        let mut wg = WgController::with_options(geometry, replacement, options);
        let wg = replay_whole(&mut wg, &trace).traffic;
        total += wg.reduction_vs(&rmw, CountingPolicy::DemandOnly);
    }
    total / suite.len() as f64
}

fn main() {
    let args = CommonArgs::from_env();
    // Ablations sweep many configurations; use a fraction of the ops per
    // point so the default run stays tractable.
    let ops = (args.ops / 4).max(10_000);

    println!("Extension E3: ablations (suite-average access reduction vs RMW, 64KB baseline)\n");

    let mut table = Table::new(&["configuration", "reduction vs RMW"]);
    let lru = ReplacementKind::Lru;
    let configs: Vec<(String, WgOptions, ReplacementKind)> = vec![
        ("WG (paper)".into(), WgOptions::wg(), lru),
        ("WG+RB (paper)".into(), WgOptions::wg_rb(), lru),
        (
            "WG without silent detection".into(),
            WgOptions {
                silent_detection: false,
                ..WgOptions::wg()
            },
            lru,
        ),
        (
            "WG+RB without silent detection".into(),
            WgOptions {
                silent_detection: false,
                ..WgOptions::wg_rb()
            },
            lru,
        ),
        (
            "WG, 2 Set-Buffers".into(),
            WgOptions {
                buffer_depth: 2,
                ..WgOptions::wg()
            },
            lru,
        ),
        (
            "WG+RB, 2 Set-Buffers".into(),
            WgOptions {
                buffer_depth: 2,
                ..WgOptions::wg_rb()
            },
            lru,
        ),
        (
            "WG+RB, 4 Set-Buffers".into(),
            WgOptions {
                buffer_depth: 4,
                ..WgOptions::wg_rb()
            },
            lru,
        ),
        (
            "WG+RB, 8 Set-Buffers".into(),
            WgOptions {
                buffer_depth: 8,
                ..WgOptions::wg_rb()
            },
            lru,
        ),
        (
            "WG+RB, FIFO replacement".into(),
            WgOptions::wg_rb(),
            ReplacementKind::Fifo,
        ),
        (
            "WG+RB, random replacement".into(),
            WgOptions::wg_rb(),
            ReplacementKind::Random { seed: args.seed },
        ),
        (
            "WG+RB, tree-PLRU replacement".into(),
            WgOptions::wg_rb(),
            ReplacementKind::TreePlru,
        ),
    ];

    let mut json_rows = Vec::new();
    for (label, options, replacement) in configs {
        let reduction = suite_reduction(options, replacement, ops, args.seed);
        table.row(&[label.clone(), pct(reduction)]);
        json_rows.push(serde_json::json!({ "config": label, "reduction": reduction }));
    }
    table.print();
    println!("\nreading: silent detection accounts for a large share of WG's benefit;");
    println!("deeper buffers keep helping (diminishing); replacement policy is second-order.");

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&json_rows).expect("rows serialize")
        );
    }
}
