//! The controller abstraction shared by all write schemes.

use std::fmt;

use serde::{Deserialize, Serialize};

use cache8t_sim::{Address, CacheGeometry, CacheStats, DataCache, MainMemory, ReplacementKind};
use cache8t_trace::{DecodedBatch, MemOp};

use crate::obs::StackObs;
use crate::{ArrayTraffic, Ledger};

/// The array cost of one serviced request, for timing models.
///
/// `cache8t-cpu` schedules these against the 8T array's 1R+1W ports: row
/// reads occupy the read port, row writes the write port, and a request
/// served entirely from the Set-Buffer occupies neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessCost {
    /// Row reads the request triggered (demand read, RMW read phase,
    /// Set-Buffer fill).
    pub row_reads: u32,
    /// Row writes the request triggered (RMW write phase, write-backs).
    pub row_writes: u32,
    /// `true` if the request was served from the Set-Buffer.
    pub buffer_hit: bool,
}

impl AccessCost {
    /// Total array activations for this request.
    pub fn total(&self) -> u32 {
        self.row_reads + self.row_writes
    }
}

/// The outcome of one serviced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessResponse {
    /// For reads: the value returned to the processor. For writes: the
    /// value stored.
    pub value: u64,
    /// `true` if the block was resident when the request arrived (a
    /// functional cache hit).
    pub hit: bool,
    /// Array operations performed to service this request.
    pub cost: AccessCost,
}

/// A cache front-end servicing a memory request stream while accounting
/// SRAM-array traffic.
///
/// Implementations share functional behaviour — same hits and misses, same
/// replacement decisions, same returned values — and differ only in *how
/// many array operations* each request costs. That invariant is what makes
/// the traffic comparison of Figures 9–11 meaningful, and it is enforced by
/// the cross-controller equivalence tests in this crate.
///
/// It also lets one functional replay serve several schemes: a controller
/// keeps an ordered list of [`Ledger`]s, one per scheme it accounts. A
/// standalone scheme has one ledger; a *family* (see
/// [`RmwController::family`](crate::RmwController::family) and
/// [`WgController::family`](crate::WgController::family)) has one per
/// member. The single-scheme accessors (`name` aside) report ledger 0.
pub trait Controller {
    /// Services one request. For a family, the returned cost is ledger
    /// 0's.
    fn access(&mut self, op: &MemOp) -> AccessResponse;

    /// Writes back any buffered state so the cache/memory image is
    /// architecturally current. Idempotent.
    fn flush(&mut self);

    /// Resets every ledger (traffic, request statistics, observability
    /// bundle), keeping cache and buffer contents (used after warm-up,
    /// mirroring the paper's 1 B warm-up instructions).
    fn reset_counters(&mut self);

    /// The underlying functional cache.
    fn cache(&self) -> &DataCache;

    /// The backing memory image.
    fn memory(&self) -> &MainMemory;

    /// The architecturally current value of the aligned word at `addr`,
    /// looking through any buffers, the cache, and memory.
    fn peek_word(&self, addr: Address) -> u64;

    /// Number of scheme ledgers this controller keeps.
    fn ledger_count(&self) -> usize {
        1
    }

    /// Brings every ledger's counts up to date. A family counts what its
    /// members share (request statistics, the common metrics, line fills,
    /// …) once, in ledger 0; the other ledgers copy those counts here.
    /// [`flush`](Controller::flush) settles too, so a family's ledgers
    /// other than the first are current after either. A no-op for a
    /// single ledger.
    fn settle(&mut self) {}

    /// Ledger `i`, in family order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= ledger_count()`.
    fn ledger(&self, i: usize) -> &Ledger;

    /// Mutable access to ledger `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= ledger_count()`.
    fn ledger_mut(&mut self, i: usize) -> &mut Ledger;

    /// Short name for reports and spans: the scheme name (e.g. `"RMW"`,
    /// `"WG+RB"`), or a family's label (e.g. `"6T/RMW"`).
    fn name(&self) -> &'static str {
        self.ledger(0).name()
    }

    /// Ledger 0's traffic.
    fn traffic(&self) -> &ArrayTraffic {
        self.ledger(0).traffic()
    }

    /// Ledger 0's request-level hit/miss statistics, maintained
    /// identically by every controller (unlike [`DataCache::stats`],
    /// which only sees the requests that reach the array).
    fn stats(&self) -> &CacheStats {
        self.ledger(0).stats()
    }

    /// Ledger 0's array activations so far under the paper's counting.
    fn array_accesses(&self) -> u64 {
        self.ledger(0).array_accesses()
    }

    /// Ledger 0's observability bundle (metric registry + event tracer).
    fn obs(&self) -> Option<&StackObs> {
        Some(self.ledger(0).obs())
    }

    /// Mutable access to ledger 0's observability bundle.
    fn obs_mut(&mut self) -> Option<&mut StackObs> {
        Some(self.ledger_mut(0).obs_mut())
    }

    /// Instantaneous write-buffer occupancy as a ledger sees it,
    /// for the telemetry sampler: index = occupancy level of a live
    /// buffer (modified ways of a WG Set-Buffer, valid words of a
    /// coalescing entry), value = buffers at that level. `None` for
    /// schemes without write buffers (the sampler records an empty
    /// histogram).
    fn occupancy(&self, _ledger: usize) -> Option<Vec<u64>> {
        None
    }

    /// Services ops `range` of a pre-decoded batch, in order.
    ///
    /// Equivalent to calling [`access`](Controller::access) on each
    /// reconstructed op (the default does exactly that); the concrete
    /// controllers override it with fast paths that consume the batch's
    /// decoded set/tag/word columns instead of re-deriving them per op.
    /// The batch must have been decoded against this controller's cache
    /// geometry.
    fn access_batch(&mut self, batch: &DecodedBatch, range: std::ops::Range<usize>) {
        for i in range {
            self.access(&batch.op(i));
        }
    }
}

/// The functional machinery every controller embeds: a value-carrying
/// cache, an optional L2 behind it, the backing memory, and write-allocate
/// miss handling.
///
/// The paper's Pin tool models an isolated L1 over "memory"; that remains
/// the default. [`CacheBackend::with_l2`] inserts a non-inclusive
/// (victim-style NINE) second level: L1 misses probe the L2 before memory,
/// dirty L1 victims are deposited into the L2, and dirty L2 victims go to
/// memory. Because every controller shares this path, the L1's functional
/// behaviour — and therefore the paper's demand-traffic figures — is
/// bit-identical with or without an L2 (`tests/hierarchy.rs` asserts
/// this).
///
/// `CacheBackend` deliberately performs *no* accounting — the
/// controllers' [`Ledger`]s decide what each functional step costs, so
/// one backend can serve several schemes' ledgers at once.
pub struct CacheBackend {
    cache: DataCache,
    l2: Option<DataCache>,
    memory: MainMemory,
    /// Reusable one-block staging buffer for fills and merges.
    scratch: Box<[u64]>,
    /// Reusable buffer receiving L1 victims from `fill_into`.
    victim: Vec<u64>,
    /// Reusable buffer receiving L2 victims from `fill_into`.
    l2_victim: Vec<u64>,
}

impl CacheBackend {
    /// Creates an empty cache over zeroed memory.
    pub fn new(geometry: CacheGeometry, replacement: ReplacementKind) -> Self {
        CacheBackend {
            cache: DataCache::new(geometry, replacement),
            l2: None,
            memory: MainMemory::new(geometry.block_bytes()),
            scratch: vec![0; geometry.block_words()].into_boxed_slice(),
            victim: Vec::new(),
            l2_victim: Vec::new(),
        }
    }

    /// Creates a two-level hierarchy: `geometry` over an `l2_geometry`
    /// second level over zeroed memory.
    ///
    /// # Panics
    ///
    /// Panics if the two levels disagree on block size (no sub-blocking)
    /// or the L2 is smaller than the L1.
    pub fn with_l2(
        geometry: CacheGeometry,
        l2_geometry: CacheGeometry,
        replacement: ReplacementKind,
    ) -> Self {
        assert_eq!(
            geometry.block_bytes(),
            l2_geometry.block_bytes(),
            "L1 and L2 must share a block size"
        );
        assert!(
            l2_geometry.capacity_bytes() >= geometry.capacity_bytes(),
            "the L2 should not be smaller than the L1"
        );
        CacheBackend {
            cache: DataCache::new(geometry, replacement),
            l2: Some(DataCache::new(l2_geometry, replacement)),
            memory: MainMemory::new(geometry.block_bytes()),
            scratch: vec![0; geometry.block_words()].into_boxed_slice(),
            victim: Vec::new(),
            l2_victim: Vec::new(),
        }
    }

    /// The second-level cache, if the hierarchy has one.
    pub fn l2(&self) -> Option<&DataCache> {
        self.l2.as_ref()
    }

    /// Reads the block at `base` from below the L1 into `dst` (L2 if
    /// present — allocating there on an L2 miss — else memory).
    ///
    /// A free-standing helper over disjoint backend fields so callers
    /// can keep `self.scratch`/`self.victim` borrowed at the call site.
    fn load_below(
        l2: &mut Option<DataCache>,
        memory: &mut MainMemory,
        l2_victim: &mut Vec<u64>,
        dst: &mut [u64],
        base: Address,
    ) {
        let Some(l2) = l2 else {
            memory.read_block_into(base, dst);
            return;
        };
        let g = l2.geometry();
        if let Some(way) = l2.probe(base) {
            l2.touch(base);
            dst.copy_from_slice(l2.set(g.set_index_of(base)).line(way).data());
            return;
        }
        memory.read_block_into(base, dst);
        let slot = l2.fill_into(base, dst, l2_victim);
        if let Some(victim) = slot.evicted {
            if victim.dirty {
                memory.write_block_from(victim.base, l2_victim);
            }
        }
    }

    /// Deposits a whole (dirty) block below the L1: into the L2 if
    /// present (allocating on miss), else straight to memory.
    fn deposit_below(
        l2: &mut Option<DataCache>,
        memory: &mut MainMemory,
        l2_victim: &mut Vec<u64>,
        base: Address,
        data: &[u64],
    ) {
        let Some(l2) = l2 else {
            memory.write_block_from(base, data);
            return;
        };
        let g = l2.geometry();
        let set = g.set_index_of(base);
        if let Some(way) = l2.probe(base) {
            l2.touch(base);
            l2.update_block(set, way, data, true);
            return;
        }
        let slot = l2.fill_into(base, data, l2_victim);
        // `fill_into` installs clean; re-mark the block dirty so it
        // eventually reaches memory.
        l2.update_block(set, slot.way, data, true);
        if let Some(victim) = slot.evicted {
            if victim.dirty {
                memory.write_block_from(victim.base, l2_victim);
            }
        }
    }

    /// Merges `words` (where `valid`) into the block below the L1 — the
    /// write-around path used when a buffered block's line has left the
    /// L1 (see `CoalescingController`).
    pub fn merge_words_below(&mut self, base: Address, words: &[u64], valid: &[bool]) {
        Self::load_below(
            &mut self.l2,
            &mut self.memory,
            &mut self.l2_victim,
            &mut self.scratch,
            base,
        );
        for (i, &is_valid) in valid.iter().enumerate() {
            if is_valid {
                self.scratch[i] = words[i];
            }
        }
        Self::deposit_below(
            &mut self.l2,
            &mut self.memory,
            &mut self.l2_victim,
            base,
            &self.scratch,
        );
    }

    /// Zeroes the cache's internal statistics.
    pub fn reset_stats(&mut self) {
        self.cache.reset_stats();
    }

    /// The functional cache.
    pub fn cache(&self) -> &DataCache {
        &self.cache
    }

    /// Mutable access to the functional cache.
    pub fn cache_mut(&mut self) -> &mut DataCache {
        &mut self.cache
    }

    /// The backing memory.
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// The cache's hit/miss statistics.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Ensures the block containing `addr` is resident, allocating on miss
    /// (write-allocate for both reads and writes, as in the paper's L1
    /// model).
    ///
    /// The outcome reports whether a line fill happened and whether it
    /// evicted a dirty victim — the ledgers translate those into traffic
    /// and telemetry.
    pub fn ensure_resident(&mut self, addr: Address) -> ResidencyOutcome {
        let probed = self.cache.probe(addr);
        self.ensure_resident_probed(addr, probed)
    }

    /// [`ensure_resident`](Self::ensure_resident) for callers that
    /// already probed the cache: `probed` is the result of
    /// [`DataCache::probe`]/[`DataCache::find_in_set`] for `addr`, so no
    /// second tag search happens on the hit path. The returned
    /// [`ResidencyOutcome::way`] lets the caller address the line
    /// directly for the subsequent data access.
    #[inline]
    pub fn ensure_resident_probed(
        &mut self,
        addr: Address,
        probed: Option<usize>,
    ) -> ResidencyOutcome {
        if let Some(way) = probed {
            return ResidencyOutcome {
                hit: true,
                filled: false,
                dirty_eviction: false,
                way,
                fill: None,
            };
        }
        self.fill_on_miss(addr)
    }

    /// The miss half of [`ensure_resident_probed`](Self::ensure_resident_probed):
    /// load the block from below, install it, write back any dirty
    /// victim. Split out and marked cold so the hit path — a branch and
    /// a struct return — inlines into the controllers' access loops.
    #[cold]
    fn fill_on_miss(&mut self, addr: Address) -> ResidencyOutcome {
        let base = self.cache.geometry().block_base(addr);
        let words = self.scratch.len() as u64;
        let heat_bucket = self
            .cache
            .geometry()
            .heat_bucket_of(addr, crate::obs::SET_HEAT_BUCKETS);
        let slot = if self.l2.is_none() {
            // No L2: fill straight from the memory image's block (or its
            // shared zero block), skipping the scratch staging copy.
            let block = self.memory.read_block_ref(base);
            self.cache.fill_into(base, block, &mut self.victim)
        } else {
            Self::load_below(
                &mut self.l2,
                &mut self.memory,
                &mut self.l2_victim,
                &mut self.scratch,
                base,
            );
            self.cache.fill_into(base, &self.scratch, &mut self.victim)
        };
        let mut dirty_eviction = false;
        let victim = slot.evicted.map(|victim| {
            if victim.dirty {
                Self::deposit_below(
                    &mut self.l2,
                    &mut self.memory,
                    &mut self.l2_victim,
                    victim.base,
                    &self.victim,
                );
                dirty_eviction = true;
            }
            victim.base
        });
        ResidencyOutcome {
            hit: false,
            filled: true,
            dirty_eviction,
            way: slot.way,
            fill: Some(FillRecord {
                base,
                words,
                heat_bucket,
                victim,
            }),
        }
    }

    /// The architecturally current word at `addr` as seen by cache +
    /// memory (no controller buffers).
    pub fn peek_word(&self, addr: Address) -> u64 {
        if let Some(way) = self.cache.probe(addr) {
            let g = self.cache.geometry();
            let set = g.set_index_of(addr);
            return self.cache.set(set).line(way).data()[g.word_offset_of(addr)];
        }
        if let Some(l2) = &self.l2 {
            if let Some(way) = l2.probe(addr) {
                let g = l2.geometry();
                let set = g.set_index_of(addr);
                return l2.set(set).line(way).data()[g.word_offset_of(addr)];
            }
        }
        self.memory.read_word(addr)
    }
}

impl fmt::Debug for CacheBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheBackend")
            .field("cache", &self.cache)
            .field("l2", &self.l2.as_ref().map(|c| c.geometry()))
            .field("memory_blocks", &self.memory.resident_blocks())
            .finish()
    }
}

/// Result of [`CacheBackend::ensure_resident`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidencyOutcome {
    /// The block was already resident.
    pub hit: bool,
    /// A line fill was performed.
    pub filled: bool,
    /// The fill evicted a dirty victim that was written back to memory.
    pub dirty_eviction: bool,
    /// The way the block occupies after the call (the hit way, or the
    /// way the fill installed into). Callers use it to address the line
    /// directly instead of re-searching the set's tags.
    pub way: usize,
    /// What the fill did, for the ledgers' telemetry; `None` on a hit.
    pub fill: Option<FillRecord>,
}

/// The telemetry-relevant facts of one line fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillRecord {
    /// Base address of the filled block.
    pub base: Address,
    /// Words the fill moved (one block).
    pub words: u64,
    /// The block's set-heat bucket (see
    /// [`CacheGeometry::heat_bucket_of`]).
    pub heat_bucket: usize,
    /// Base address of the evicted victim, if the fill evicted a line.
    pub victim: Option<Address>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> CacheBackend {
        CacheBackend::new(
            CacheGeometry::new(128, 2, 32).unwrap(),
            ReplacementKind::Lru,
        )
    }

    #[test]
    fn ensure_resident_fills_on_miss_and_hits_after() {
        let mut b = backend();
        let a = Address::new(0x40);
        let first = b.ensure_resident(a);
        assert!(!first.hit);
        assert!(first.filled);
        assert!(!first.dirty_eviction);
        let second = b.ensure_resident(a);
        assert!(second.hit);
        assert!(!second.filled);
    }

    #[test]
    fn dirty_victims_reach_memory() {
        let mut b = backend();
        let a = Address::new(0x40);
        b.ensure_resident(a);
        b.cache_mut().write_word(a, 99).unwrap();
        // Conflict-fill the set until a is evicted (2 ways).
        let o1 = b.ensure_resident(Address::new(0xC0));
        let o2 = b.ensure_resident(Address::new(0x140));
        assert!(o1.filled && o2.filled);
        assert!(o2.dirty_eviction, "a was dirty and LRU");
        assert_eq!(b.memory().read_word(a), 99);
        assert_eq!(b.peek_word(a), 99, "peek falls through to memory");
    }

    #[test]
    fn peek_word_prefers_cache_content() {
        let mut b = backend();
        let a = Address::new(0x40);
        b.ensure_resident(a);
        b.cache_mut().write_word(a, 7).unwrap();
        assert_eq!(b.peek_word(a), 7);
        assert_eq!(b.memory().read_word(a), 0, "memory still stale");
    }

    #[test]
    fn access_cost_totals() {
        let c = AccessCost {
            row_reads: 2,
            row_writes: 1,
            buffer_hit: false,
        };
        assert_eq!(c.total(), 3);
        assert_eq!(AccessCost::default().total(), 0);
    }
}
