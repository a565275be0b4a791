//! Property tests: every controller is a correct cache.
//!
//! The WG/WG+RB buffering must never lose or reorder a write. These tests
//! drive random request streams through all four controllers
//! simultaneously and check, op by op, that
//!
//! 1. every read returns exactly what a flat shadow memory would return;
//! 2. all controllers report identical hit/miss behaviour;
//! 3. after `flush`, the architectural state visible through `peek_word`
//!    equals the shadow for every address ever touched.

use std::collections::HashMap;

use proptest::prelude::*;

use cache8t::core::{CoalescingController, Controller, RmwController, WgController, WgOptions};
use cache8t::sim::{Address, CacheGeometry, ReplacementKind};
use cache8t::trace::MemOp;

/// A small cache (4 sets x 2 ways x 32 B) so evictions and set conflicts
/// happen constantly.
fn tiny_geometry() -> CacheGeometry {
    CacheGeometry::new(256, 2, 32).expect("valid test geometry")
}

/// Strategy: operations over a small, collision-heavy address space.
fn op_strategy() -> impl Strategy<Value = MemOp> {
    // 64 words across 16 blocks and 4 sets; values from a small domain so
    // silent writes occur organically.
    (any::<bool>(), 0u64..64, 0u64..4).prop_map(|(is_read, word, value)| {
        let addr = Address::new(word * 8);
        if is_read {
            MemOp::read(addr)
        } else {
            MemOp::write(addr, value)
        }
    })
}

fn controllers() -> Vec<Box<dyn Controller>> {
    let g = tiny_geometry();
    vec![
        Box::new(RmwController::conventional(g, ReplacementKind::Lru)),
        Box::new(RmwController::new(g, ReplacementKind::Lru)),
        Box::new(WgController::new(g, ReplacementKind::Lru)),
        Box::new(WgController::wg_rb(g, ReplacementKind::Lru)),
        // Ablation variants must be equally correct.
        Box::new(WgController::with_options(
            g,
            ReplacementKind::Lru,
            WgOptions {
                silent_detection: false,
                ..WgOptions::wg()
            },
        )),
        Box::new(WgController::with_options(
            g,
            ReplacementKind::Lru,
            WgOptions {
                buffer_depth: 3,
                ..WgOptions::wg_rb()
            },
        )),
        // The related-work alternative must be equally correct.
        Box::new(CoalescingController::new(g, ReplacementKind::Lru, 2)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reads_always_return_last_written_value(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut shadow: HashMap<u64, u64> = HashMap::new();
        let mut all = controllers();
        for op in &ops {
            let expected = if op.is_read() {
                shadow.get(&op.addr.raw()).copied().unwrap_or(0)
            } else {
                shadow.insert(op.addr.raw(), op.value);
                op.value
            };
            for c in &mut all {
                let response = c.access(op);
                prop_assert_eq!(
                    response.value,
                    expected,
                    "{} returned wrong value for {}",
                    c.name(),
                    op
                );
            }
        }
    }

    #[test]
    fn hit_miss_behaviour_is_scheme_independent(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut all = controllers();
        for op in &ops {
            let hits: Vec<bool> = all.iter_mut().map(|c| c.access(op).hit).collect();
            for (i, hit) in hits.iter().enumerate() {
                prop_assert_eq!(
                    *hit, hits[0],
                    "controller {} disagrees on hit/miss for {}",
                    all[i].name(), op
                );
            }
        }
        let reference = *all[0].stats();
        for c in &all {
            prop_assert_eq!(*c.stats(), reference, "{} stats diverge", c.name());
        }
    }

    #[test]
    fn flushed_state_matches_shadow(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut shadow: HashMap<u64, u64> = HashMap::new();
        let mut all = controllers();
        for op in &ops {
            if op.is_write() {
                shadow.insert(op.addr.raw(), op.value);
            }
            for c in &mut all {
                c.access(op);
            }
        }
        for c in &mut all {
            c.flush();
        }
        for (&raw, &value) in &shadow {
            for c in &all {
                prop_assert_eq!(
                    c.peek_word(Address::new(raw)),
                    value,
                    "{} lost the write to {:#x}",
                    c.name(),
                    raw
                );
            }
        }
    }

    #[test]
    fn traffic_ordering_holds_on_write_heavy_streams(
        seed_ops in prop::collection::vec(op_strategy(), 200..400)
    ) {
        let mut all = controllers();
        for op in &seed_ops {
            for c in &mut all {
                c.access(op);
            }
        }
        for c in &mut all {
            c.flush();
        }
        let accesses: HashMap<&str, u64> = [
            ("6T", all[0].array_accesses()),
            ("RMW", all[1].array_accesses()),
            ("WG", all[2].array_accesses()),
            ("WG+RB", all[3].array_accesses()),
        ]
        .into();
        // RMW never beats the conventional cache; grouping never exceeds RMW;
        // read bypassing never exceeds plain grouping.
        prop_assert!(accesses["RMW"] >= accesses["6T"]);
        prop_assert!(accesses["WG"] <= accesses["RMW"]);
        prop_assert!(accesses["WG+RB"] <= accesses["WG"]);
        // Line fills are a property of the functional cache (identical
        // residency), not of the write scheme.
        let fills: Vec<u64> = all.iter().map(|c| c.traffic().line_fills).collect();
        for (i, c) in all.iter().enumerate() {
            prop_assert_eq!(fills[i], fills[0], "{} fills diverge", c.name());
        }
        // Dirty evictions may only *shrink* under the buffering schemes:
        // silent-write elision leaves lines clean that RMW would have
        // dirtied with identical data (memory state stays equal either
        // way, which flushed_state_matches_shadow verifies).
        let rmw_evictions = all[1].traffic().eviction_writebacks;
        prop_assert_eq!(all[0].traffic().eviction_writebacks, rmw_evictions);
        for c in &all[2..] {
            prop_assert!(
                c.traffic().eviction_writebacks <= rmw_evictions,
                "{} wrote back more dirty victims than RMW",
                c.name()
            );
        }
    }
}
