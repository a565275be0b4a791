//! Quickstart: simulate the paper's baseline L1 data cache under all four
//! write schemes and print the headline numbers.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cache8t::core::{Controller, RmwController, WgController};
use cache8t::sim::{CacheGeometry, ReplacementKind};
use cache8t::trace::{profiles, ProfiledGenerator, TraceGenerator};

fn main() {
    // The paper's baseline configuration: 64 KB, 4-way, 32 B blocks, LRU.
    let geometry = CacheGeometry::paper_baseline();
    println!(
        "cache: {} KB, {}-way, {} B blocks, {} sets (Set-Buffer = {} B)",
        geometry.capacity_bytes() / 1024,
        geometry.ways(),
        geometry.block_bytes(),
        geometry.num_sets(),
        geometry.set_bytes(),
    );

    // A calibrated SPEC CPU2006-like workload; bwaves is the paper's most
    // write-intensive benchmark.
    let profile = profiles::by_name("bwaves").expect("bwaves is in the suite");
    let trace = ProfiledGenerator::new(profile, geometry, 42).collect(500_000);
    println!(
        "workload: bwaves-like, {} ops over {} instructions ({} reads / {} writes)\n",
        trace.len(),
        trace.instructions(),
        trace.reads(),
        trace.writes(),
    );

    // Replay the same trace through every controller.
    let mut controllers: Vec<Box<dyn Controller>> = vec![
        Box::new(RmwController::conventional(geometry, ReplacementKind::Lru)),
        Box::new(RmwController::new(geometry, ReplacementKind::Lru)),
        Box::new(WgController::new(geometry, ReplacementKind::Lru)),
        Box::new(WgController::wg_rb(geometry, ReplacementKind::Lru)),
    ];
    let mut rmw_accesses = None;
    for controller in &mut controllers {
        for op in &trace {
            controller.access(op);
        }
        controller.flush();
        if controller.name() == "RMW" {
            rmw_accesses = Some(controller.array_accesses());
        }
    }

    println!(
        "{:<6}  {:>14}  {:>12}  {:>10}",
        "scheme", "array accesses", "vs RMW", "hit ratio"
    );
    let rmw_accesses = rmw_accesses.expect("RMW controller ran") as f64;
    for controller in &controllers {
        let accesses = controller.array_accesses();
        let delta = 1.0 - accesses as f64 / rmw_accesses;
        println!(
            "{:<6}  {:>14}  {:>11.1}%  {:>9.1}%",
            controller.name(),
            accesses,
            delta * 100.0,
            controller.stats().hit_ratio() * 100.0,
        );
    }
    println!("\n(positive 'vs RMW' = fewer SRAM array accesses than the RMW baseline;");
    println!(" the paper reports 27% for WG and 33% for WG+RB on average, 47% max for WG)");
}
