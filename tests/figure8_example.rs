//! The paper's Figure 8 worked example, §4.3, replayed across all
//! controllers.
//!
//! Request stream (time order):
//! `R_a, W_b, W_b, R_b, R_b, W_b, W_a(silent), R_a`
//! where `a` and `b` are blocks in two different sets, both resident, and
//! the write to `a` stores the value already present.
//!
//! Paper-derived access totals: RMW pays `4 reads + 4 writes x 2 = 12`
//! activations; WG needs 8 (one RMW group for the `b` writes plus one
//! premature write-back, the silent `a` group never written back); WG+RB
//! needs 4 (three reads bypassed).

use cache8t::core::{Controller, RmwController, WgController};
use cache8t::sim::{Address, CacheGeometry, ReplacementKind};
use cache8t::trace::MemOp;

fn geometry() -> CacheGeometry {
    CacheGeometry::paper_baseline()
}

fn set_a() -> Address {
    Address::new(0x0000)
}

fn set_b() -> Address {
    Address::new(0x0020)
}

/// The Figure 8 stream. `W_a` writes 0 so it is silent against untouched
/// (zero) memory.
fn stream() -> Vec<MemOp> {
    let a = set_a();
    let b = set_b();
    vec![
        MemOp::read(a),
        MemOp::write(b, 1),
        MemOp::write(b.offset(8), 2),
        MemOp::read(b),
        MemOp::read(b),
        MemOp::write(b, 3),
        MemOp::write(a, 0),
        MemOp::read(a),
    ]
}

fn run(controller: &mut dyn Controller) -> u64 {
    // Warm both blocks so the walkthrough matches the paper's steady-state
    // narrative, then reset counters.
    controller.access(&MemOp::read(set_a()));
    controller.access(&MemOp::read(set_b()));
    controller.reset_counters();
    for op in stream() {
        controller.access(&op);
    }
    controller.array_accesses()
}

#[test]
fn addresses_map_to_distinct_sets() {
    let g = geometry();
    assert_ne!(g.set_index_of(set_a()), g.set_index_of(set_b()));
}

#[test]
fn rmw_pays_twelve_activations() {
    let mut c = RmwController::new(geometry(), ReplacementKind::Lru);
    assert_eq!(run(&mut c), 12);
    assert_eq!(c.traffic().rmw_ops, 4);
}

#[test]
fn wg_pays_eight_activations() {
    let mut c = WgController::new(geometry(), ReplacementKind::Lru);
    assert_eq!(run(&mut c), 8);
    let t = c.traffic();
    assert_eq!(t.demand_reads, 4);
    assert_eq!(t.buffer_fills, 2);
    assert_eq!(t.writebacks, 2);
    assert_eq!(t.premature_writebacks, 1);
    assert_eq!(t.grouped_writes, 2);
    assert_eq!(
        t.silent_writebacks_elided, 1,
        "the silent a-group is never deposited"
    );
}

#[test]
fn wgrb_pays_four_activations() {
    let mut c = WgController::wg_rb(geometry(), ReplacementKind::Lru);
    assert_eq!(run(&mut c), 4);
    let t = c.traffic();
    assert_eq!(
        t.bypassed_reads, 3,
        "both R_b and the final R_a are eliminated"
    );
    assert_eq!(t.demand_reads, 1);
}

#[test]
fn all_controllers_agree_on_values_and_final_state() {
    let g = geometry();
    let mut rmw = RmwController::new(g, ReplacementKind::Lru);
    let mut wg = WgController::new(g, ReplacementKind::Lru);
    let mut wgrb = WgController::wg_rb(g, ReplacementKind::Lru);
    for op in stream() {
        let v1 = rmw.access(&op).value;
        let v2 = wg.access(&op).value;
        let v3 = wgrb.access(&op).value;
        assert_eq!(v1, v2, "{op}");
        assert_eq!(v1, v3, "{op}");
    }
    wg.flush();
    wgrb.flush();
    for addr in [set_a(), set_b(), set_b().offset(8)] {
        assert_eq!(rmw.peek_word(addr), wg.peek_word(addr));
        assert_eq!(rmw.peek_word(addr), wgrb.peek_word(addr));
    }
    // Final architectural values per the stream.
    assert_eq!(rmw.peek_word(set_b()), 3);
    assert_eq!(rmw.peek_word(set_b().offset(8)), 2);
    assert_eq!(rmw.peek_word(set_a()), 0);
}
