//! Building a custom workload profile and evaluating it end to end:
//! validation, stream statistics, array traffic, and timing.
//!
//! This is the template for studying *your* workload's fit for Write
//! Grouping: set the statistics your application exhibits and see what the
//! techniques would buy.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use cache8t::core::{Controller, RmwController, WgController};
use cache8t::cpu::{PortTimingModel, TimingConfig};
use cache8t::sim::{CacheGeometry, ReplacementKind};
use cache8t::trace::analyze::StreamStats;
use cache8t::trace::{PairLocality, ProfiledGenerator, TraceGenerator, WorkloadProfile};

fn main() {
    // A write-heavy logging/checkpointing style workload: long store
    // bursts into one region, moderate silent fraction (overwrites of
    // unchanged state), small hot working set.
    let profile = WorkloadProfile {
        name: "checkpointd".to_string(),
        mem_per_instr: 0.45,
        read_share: 0.50,
        locality: PairLocality {
            rr: 0.06,
            rw: 0.05,
            wr: 0.05,
            ww: 0.20,
        },
        silent_fraction: 0.55,
        working_set_blocks: 6_000,
        zipf_exponent: 0.9,
        write_revisit: 0.5,
        read_after_write: 0.15,
        silent_correlation: 0.7,
        spatial_adjacency: 0.4,
    };
    profile
        .validate()
        .expect("statistics are mutually consistent");

    let geometry = CacheGeometry::paper_baseline();
    let trace = ProfiledGenerator::new(profile, geometry, 11).collect(300_000);
    let stats = StreamStats::measure(&trace, geometry);
    println!("generated stream: {stats}\n");

    let mut rmw = RmwController::new(geometry, ReplacementKind::Lru);
    let mut wg = WgController::new(geometry, ReplacementKind::Lru);
    let mut wgrb = WgController::wg_rb(geometry, ReplacementKind::Lru);
    let model = PortTimingModel::new(TimingConfig::default());
    let t_rmw = model.run(&mut rmw, &trace);
    let t_wg = model.run(&mut wg, &trace);
    let t_wgrb = model.run(&mut wgrb, &trace);
    rmw.flush();
    wg.flush();
    wgrb.flush();

    println!("traffic:");
    for c in [&rmw as &dyn Controller, &wg, &wgrb] {
        let reduction = 1.0 - c.array_accesses() as f64 / rmw.array_accesses() as f64;
        println!(
            "  {:<6} {:>8} array accesses ({:>5.1}% vs RMW)   {}",
            c.name(),
            c.array_accesses(),
            reduction * 100.0,
            c.traffic(),
        );
    }

    println!("\ntiming (in-order port model):");
    for (name, t) in [("RMW", t_rmw), ("WG", t_wg), ("WG+RB", t_wgrb)] {
        println!(
            "  {:<6} avg read latency {:>5.2} cyc, read-port availability {:>5.1}%",
            name,
            t.avg_read_latency(),
            t.read_port_availability() * 100.0
        );
    }

    println!("\nfor this profile the WW burst share and high silent fraction make");
    println!("grouping very effective; compare against your own measurements.");
}
