//! Two-level-hierarchy tests: adding an L2 behind the controllers changes
//! where misses are served from, but must not change any of the paper's
//! L1-level results.

use std::collections::HashMap;

use cache8t::core::{
    CacheBackend, CoalescingController, Controller, RmwController, WgController, WgOptions,
};
use cache8t::sim::{Address, CacheGeometry, ReplacementKind};
use cache8t::trace::{profiles, MemOp, ProfiledGenerator, Trace, TraceGenerator};

fn l1() -> CacheGeometry {
    CacheGeometry::new(4 * 1024, 2, 32).expect("small L1")
}

fn l2() -> CacheGeometry {
    CacheGeometry::new(64 * 1024, 8, 32).expect("bigger L2")
}

fn trace() -> Trace {
    ProfiledGenerator::new(
        profiles::by_name("gcc").expect("gcc present"),
        CacheGeometry::paper_baseline(),
        21,
    )
    .collect(40_000)
}

fn flat_and_hierarchical(
    build: &dyn Fn(CacheBackend) -> Box<dyn Controller>,
) -> [Box<dyn Controller>; 2] {
    [
        build(CacheBackend::new(l1(), ReplacementKind::Lru)),
        build(CacheBackend::with_l2(l1(), l2(), ReplacementKind::Lru)),
    ]
}

type Builder = Box<dyn Fn(CacheBackend) -> Box<dyn Controller>>;

#[test]
fn l2_is_invisible_to_l1_traffic_and_stats() {
    let trace = trace();
    let builders: Vec<(&str, Builder)> = vec![
        (
            "6T",
            Box::new(|b| Box::new(RmwController::conventional_from_backend(b))),
        ),
        (
            "RMW",
            Box::new(|b| Box::new(RmwController::from_backend(b))),
        ),
        (
            "WG",
            Box::new(|b| Box::new(WgController::from_backend(b, WgOptions::wg()))),
        ),
        (
            "WG+RB",
            Box::new(|b| Box::new(WgController::from_backend(b, WgOptions::wg_rb()))),
        ),
        (
            "CoalesceWB",
            Box::new(|b| Box::new(CoalescingController::from_backend(b, 4))),
        ),
    ];
    for (name, build) in &builders {
        let [mut flat, mut layered] = flat_and_hierarchical(build.as_ref());
        for op in &trace {
            let a = flat.access(op);
            let b = layered.access(op);
            assert_eq!(a.value, b.value, "{name}: value diverges at {op}");
            assert_eq!(a.hit, b.hit, "{name}: hit diverges at {op}");
        }
        flat.flush();
        layered.flush();
        assert_eq!(
            flat.traffic(),
            layered.traffic(),
            "{name}: the L2 must not change L1 array traffic"
        );
        assert_eq!(
            flat.stats(),
            layered.stats(),
            "{name}: request stats diverge"
        );
    }
}

#[test]
fn hierarchy_preserves_architectural_state() {
    let mut shadow: HashMap<u64, u64> = HashMap::new();
    let mut c = WgController::from_backend(
        CacheBackend::with_l2(l1(), l2(), ReplacementKind::Lru),
        WgOptions::wg_rb(),
    );
    for op in &trace() {
        if op.is_write() {
            shadow.insert(op.addr.raw(), op.value);
        }
        let response = c.access(op);
        if op.is_read() {
            let expected = shadow.get(&op.addr.raw()).copied().unwrap_or(0);
            assert_eq!(response.value, expected, "{op}");
        }
    }
    c.flush();
    for (&raw, &value) in &shadow {
        assert_eq!(c.peek_word(Address::new(raw)), value, "{raw:#x}");
    }
}

#[test]
fn l2_absorbs_l1_victims() {
    // Write a block, thrash it out of the tiny L1, and check the L2 still
    // holds the dirty data while memory has not seen it.
    let backend = CacheBackend::with_l2(l1(), l2(), ReplacementKind::Lru);
    let mut c = RmwController::from_backend(backend);
    let a = Address::new(0x40);
    c.access(&MemOp::write(a, 77));
    // Two conflicting blocks evict `a` from the 2-way L1 (4 KB -> 64 sets,
    // conflict stride 64 sets x 32 B = 2 KB).
    c.access(&MemOp::read(a.offset(2048)));
    c.access(&MemOp::read(a.offset(4096)));
    assert!(c.cache().probe(a).is_none(), "a left the L1");
    assert_eq!(
        c.memory().read_word(a),
        0,
        "memory never saw the dirty block"
    );
    assert_eq!(c.peek_word(a), 77, "the L2 holds the victim");
    // A re-read comes back from the L2 with the written value.
    let r = c.access(&MemOp::read(a));
    assert_eq!(r.value, 77);
}

#[test]
#[should_panic(expected = "share a block size")]
fn mismatched_block_sizes_rejected() {
    let bad_l2 = CacheGeometry::new(64 * 1024, 8, 64).expect("valid geometry");
    let _ = CacheBackend::with_l2(l1(), bad_l2, ReplacementKind::Lru);
}

#[test]
#[should_panic(expected = "not be smaller")]
fn undersized_l2_rejected() {
    let tiny = CacheGeometry::new(1024, 2, 32).expect("valid geometry");
    let _ = CacheBackend::with_l2(l1(), tiny, ReplacementKind::Lru);
}

#[test]
fn l2_accessor_reports_presence() {
    let flat = CacheBackend::new(l1(), ReplacementKind::Lru);
    assert!(flat.l2().is_none());
    let layered = CacheBackend::with_l2(l1(), l2(), ReplacementKind::Lru);
    assert_eq!(layered.l2().expect("L2 present").geometry(), l2());
}
