//! Cross-crate integration: timing model + energy model on real
//! controller traffic (the paper's §5.5 arguments end to end).

use cache8t::core::{Controller, RmwController, WgController};
use cache8t::cpu::{PortTimingModel, TimingConfig};
use cache8t::energy::dvfs::DvfsLadder;
use cache8t::energy::power::SchemeEnergy;
use cache8t::energy::{ArrayModel, CellKind, TechnologyNode};
use cache8t::sim::{CacheGeometry, ReplacementKind};
use cache8t::trace::{profiles, ProfiledGenerator, Trace, TraceGenerator};

fn trace() -> Trace {
    ProfiledGenerator::new(
        profiles::by_name("bwaves").expect("bwaves present"),
        CacheGeometry::paper_baseline(),
        5,
    )
    .collect(60_000)
}

#[test]
fn section55_performance_direction_holds() {
    let g = CacheGeometry::paper_baseline();
    let t = trace();
    let model = PortTimingModel::new(TimingConfig::default());
    let rmw = model.run(&mut RmwController::new(g, ReplacementKind::Lru), &t);
    let wg = model.run(&mut WgController::new(g, ReplacementKind::Lru), &t);
    let wgrb = model.run(&mut WgController::wg_rb(g, ReplacementKind::Lru), &t);

    // §5.5: WG's performance cost is negligible; WG+RB improves loads.
    assert!(wg.avg_read_latency() <= rmw.avg_read_latency() * 1.05);
    assert!(wgrb.avg_read_latency() < rmw.avg_read_latency());
    // §4.1: read-port availability increases monotonically.
    assert!(rmw.read_port_availability() < wg.read_port_availability());
    assert!(wg.read_port_availability() < wgrb.read_port_availability());
}

#[test]
fn section55_power_direction_holds() {
    let g = CacheGeometry::paper_baseline();
    let t = trace();
    let node = TechnologyNode::nm32();
    let model = ArrayModel::for_cache(g, node, CellKind::EightT);
    let v = node.vdd_nominal();

    let mut rmw = RmwController::new(g, ReplacementKind::Lru);
    let mut wg = WgController::new(g, ReplacementKind::Lru);
    let mut wgrb = WgController::wg_rb(g, ReplacementKind::Lru);
    for op in &t {
        rmw.access(op);
        wg.access(op);
        wgrb.access(op);
    }
    for c in [&mut rmw as &mut dyn Controller, &mut wg, &mut wgrb] {
        c.flush();
    }

    let e_rmw = SchemeEnergy::price(rmw.traffic(), &model, v);
    let e_wg = SchemeEnergy::price(wg.traffic(), &model, v);
    let e_wgrb = SchemeEnergy::price(wgrb.traffic(), &model, v);
    // §5.5: both techniques reduce overall power; WG+RB reduces more.
    assert!(e_wg.total() < e_rmw.total());
    assert!(e_wgrb.total() < e_wg.total());
    // The buffer's own energy stays a small fraction of the saving.
    let saving = e_rmw.total().value() - e_wgrb.total().value();
    assert!(e_wgrb.buffer.value() < 0.1 * saving);
}

#[test]
fn energy_savings_compose_with_dvfs() {
    let g = CacheGeometry::paper_baseline();
    let node = TechnologyNode::nm32();
    let model = ArrayModel::for_cache(g, node, CellKind::EightT);
    let ladder = DvfsLadder::for_cache(node, CellKind::EightT, 8);

    let mut wgrb = WgController::wg_rb(g, ReplacementKind::Lru);
    for op in &trace() {
        wgrb.access(op);
    }
    wgrb.flush();

    let at_nominal = SchemeEnergy::price(wgrb.traffic(), &model, node.vdd_nominal());
    let at_floor = SchemeEnergy::price(wgrb.traffic(), &model, ladder.lowest().voltage);
    let scale = at_floor.total() / at_nominal.total();
    let expected = ladder.lowest().relative_energy_per_op;
    assert!(
        (scale - expected).abs() < 1e-9,
        "V^2 scaling should compose exactly: {scale} vs {expected}"
    );
}
