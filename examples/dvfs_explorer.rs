//! DVFS explorer: why 8T caches matter for voltage scaling (paper §1), and
//! what WG/WG+RB add on top.
//!
//! For each technology node this example prints the DVFS ladder a system
//! can actually use when its cache is 6T vs 8T, then prices a workload's
//! cache-access energy per scheme at the lowest reachable operating point.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example dvfs_explorer
//! ```

use cache8t::core::{Controller, RmwController, WgController};
use cache8t::energy::dvfs::DvfsLadder;
use cache8t::energy::power::SchemeEnergy;
use cache8t::energy::{ArrayModel, CellKind, TechnologyNode};
use cache8t::sim::{CacheGeometry, ReplacementKind};
use cache8t::trace::{profiles, ProfiledGenerator, TraceGenerator};

fn main() {
    let geometry = CacheGeometry::paper_baseline();

    // --- Part 1: the Vmin wall. ---
    println!("DVFS operating points (8 levels, relative frequency / energy per op):\n");
    for node in TechnologyNode::all() {
        println!("{}:", node.name());
        for cells in [CellKind::SixT, CellKind::EightT] {
            let ladder = DvfsLadder::for_cache(node, cells, 8);
            let points: Vec<String> = ladder
                .points()
                .iter()
                .map(|p| {
                    format!(
                        "{:.2}V(f{:.2}/e{:.2})",
                        p.voltage.value(),
                        p.relative_frequency,
                        p.relative_energy_per_op
                    )
                })
                .collect();
            println!("  {cells} cache: {}", points.join(" "));
        }
    }
    println!("\nthe 6T rows stop far above the 8T rows: that unreachable tail is the");
    println!("energy headroom an 8T cache unlocks — if its RMW write cost is tamed.\n");

    // --- Part 2: access energy per scheme at the 8T floor. ---
    let node = TechnologyNode::nm32();
    let ladder = DvfsLadder::for_cache(node, CellKind::EightT, 8);
    let v_low = ladder.lowest().voltage;
    let model = ArrayModel::for_cache(geometry, node, CellKind::EightT);

    let profile = profiles::by_name("lbm").expect("lbm is in the suite");
    let trace = ProfiledGenerator::new(profile, geometry, 3).collect(300_000);

    let mut rmw = RmwController::new(geometry, ReplacementKind::Lru);
    let mut wgrb = WgController::wg_rb(geometry, ReplacementKind::Lru);
    for op in &trace {
        rmw.access(op);
        wgrb.access(op);
    }
    rmw.flush();
    wgrb.flush();

    println!(
        "lbm-like workload at the 32nm 8T floor ({:.2} V):",
        v_low.value()
    );
    let e_rmw = SchemeEnergy::price(rmw.traffic(), &model, v_low);
    let e_wgrb = SchemeEnergy::price(wgrb.traffic(), &model, v_low);
    println!("  RMW   : {}", e_rmw);
    println!("  WG+RB : {}", e_wgrb);
    println!(
        "  WG+RB saves {:.1}% of cache access energy on top of the voltage win",
        e_wgrb.saving_vs(&e_rmw) * 100.0
    );
}
