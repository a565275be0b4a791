//! A block-granularity coalescing write buffer — the classic alternative
//! the paper's Set-Buffer should be judged against.
//!
//! Store buffers that coalesce writes per cache *block* predate the paper;
//! the Set-Buffer's novelty is buffering a whole *set* (exactly one array
//! row, so one RMW deposits everything) and carrying the Dirty bit for
//! silent groups. This controller implements the conventional design so
//! the `ext_alternatives` harness can quantify the difference on equal
//! terms: same functional behaviour, same traffic accounting.

use std::fmt;

use cache8t_obs::{Component, CounterId, EventKind, HistogramId};
use cache8t_sim::{kernels, Address, CacheGeometry, DataCache, MainMemory, ReplacementKind};
use cache8t_trace::{DecodedBatch, DecodedOp, MemOp};

use crate::controller::{AccessCost, AccessResponse, CacheBackend, Controller};
use crate::obs::StackObs;
use crate::Ledger;

/// One write-buffer entry: a block base, the coalesced words, and their
/// validity.
#[derive(Debug, Clone)]
struct Entry {
    base: Address,
    words: Vec<u64>,
    valid: Vec<bool>,
}

impl Entry {
    fn new(base: Address, block_words: usize) -> Self {
        Entry {
            base,
            words: vec![0; block_words],
            valid: vec![false; block_words],
        }
    }
}

/// A coalescing write buffer with `entries` block-granularity slots in
/// front of an RMW 8T cache.
///
/// - Writes allocate/merge into their block's entry without touching the
///   array; a full buffer evicts the oldest entry (FIFO), depositing it
///   with **one RMW** (row read + row write), or with just the row read if
///   the deposit turns out to be silent.
/// - Reads are forwarded from the buffer when they hit a coalesced word;
///   otherwise they read the array as usual.
///
/// Functional behaviour (hits/misses/replacement/values) is identical to
/// the other controllers; see the crate's equivalence tests.
///
/// # Example
///
/// ```
/// use cache8t_core::{CoalescingController, Controller};
/// use cache8t_sim::{Address, CacheGeometry, ReplacementKind};
/// use cache8t_trace::MemOp;
///
/// let mut c = CoalescingController::new(CacheGeometry::paper_baseline(), ReplacementKind::Lru, 4);
/// let a = Address::new(0x40);
/// c.access(&MemOp::write(a, 1));
/// c.access(&MemOp::write(a.offset(8), 2)); // coalesced: still no array access
/// assert_eq!(c.array_accesses(), 0);
/// c.flush(); // one RMW deposits both words
/// assert_eq!(c.array_accesses(), 2);
/// ```
pub struct CoalescingController {
    backend: CacheBackend,
    ledger: Ledger,
    capacity: usize,
    metrics: CoalesceMetrics,
    /// FIFO order: oldest first.
    entries: Vec<Entry>,
    /// Retired entries kept for reuse, so the steady-state
    /// allocate/deposit churn never allocates.
    free: Vec<Entry>,
}

/// Handles of the write-buffer-specific metrics.
#[derive(Debug, Clone, Copy)]
struct CoalesceMetrics {
    /// `coalesce.deposits` — entries deposited into the array.
    deposits: CounterId,
    /// `coalesce.silent_suppressed` — deposits whose write phase was
    /// skipped because every coalesced word matched the stored data.
    silent_suppressed: CounterId,
    /// `coalesce.forwarded_reads` — reads served from the buffer.
    forwarded_reads: CounterId,
    /// `coalesce.group_len` — coalesced valid words per deposited entry.
    group_len: HistogramId,
}

impl CoalesceMetrics {
    fn register(obs: &mut StackObs) -> Self {
        let r = obs.registry_mut();
        CoalesceMetrics {
            deposits: r.counter("coalesce.deposits"),
            silent_suppressed: r.counter("coalesce.silent_suppressed"),
            forwarded_reads: r.counter("coalesce.forwarded_reads"),
            group_len: r.histogram("coalesce.group_len"),
        }
    }
}

impl CoalescingController {
    /// Creates a controller with `entries` write-buffer slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    pub fn new(geometry: CacheGeometry, replacement: ReplacementKind, entries: usize) -> Self {
        CoalescingController::from_backend(CacheBackend::new(geometry, replacement), entries)
    }

    /// Creates a controller over an existing backend (e.g. one built with
    /// [`CacheBackend::with_l2`]).
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    pub fn from_backend(backend: CacheBackend, entries: usize) -> Self {
        assert!(entries >= 1, "the write buffer needs at least one entry");
        let mut ledger = Ledger::new("CoalesceWB");
        let metrics = CoalesceMetrics::register(&mut ledger.obs);
        CoalescingController {
            backend,
            ledger,
            capacity: entries,
            metrics,
            entries: Vec::with_capacity(entries),
            free: Vec::new(),
        }
    }

    /// Number of write-buffer slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn geometry(&self) -> CacheGeometry {
        self.backend.cache().geometry()
    }

    /// Branchless fixed-trip scan over the (small) entry list; bases are
    /// unique, so at most one slot can hit and first-match semantics are
    /// preserved. Runs on every request, so no early exit.
    #[inline]
    fn entry_pos(&self, base: Address) -> Option<usize> {
        if self.entries.len() > 64 {
            return self.entries.iter().position(|e| e.base == base);
        }
        let mut hits = 0u64;
        for (i, e) in self.entries.iter().enumerate() {
            hits |= u64::from(e.base == base) << i;
        }
        if hits == 0 {
            None
        } else {
            Some(hits.trailing_zeros() as usize)
        }
    }

    /// Deposits entry `pos` into the cache with one RMW (or only the row
    /// read when every coalesced word is silent). Returns the array cost.
    fn deposit(&mut self, pos: usize) -> AccessCost {
        let mut entry = self.entries.remove(pos);
        let g = self.geometry();
        let m = self.metrics;
        let coalesced = entry.valid.iter().filter(|v| **v).count() as u64;
        self.ledger.obs.inc(m.deposits);
        self.ledger.obs.observe(m.group_len, coalesced);
        let cost = if let Some(way) = self.backend.cache().probe(entry.base) {
            // RMW read phase: latch the row.
            self.ledger.traffic.rmw_read_phases += 1;
            let mut cost = AccessCost {
                row_reads: 1,
                row_writes: 0,
                buffer_hit: false,
            };
            // Merge and decide silence against the latched line — the
            // branchless masked-merge kernel selects stored words into the
            // invalid lanes and reports whether any valid lane differed.
            // The merge lands in the retiring entry's own word buffer.
            let set = g.set_index_of(entry.base);
            let line = self.backend.cache().set(set).line(way);
            let changed = kernels::merge_masked(&mut entry.words, line.data(), &entry.valid);
            if changed {
                let dirty = true;
                self.backend
                    .cache_mut()
                    .update_block(set, way, &entry.words, dirty);
                self.ledger.traffic.demand_writes += 1;
                self.ledger.traffic.rmw_ops += 1;
                cost.row_writes = 1;
                self.ledger.obs.emit(
                    Component::Coalesce,
                    EventKind::GroupFlush,
                    entry.base.raw(),
                    coalesced,
                );
            } else {
                // Every coalesced word matched the stored data: skip the write
                // phase (the buffer's own silent-store elision).
                self.ledger.traffic.silent_writebacks_elided += 1;
                self.ledger.obs.inc(m.silent_suppressed);
                self.ledger.obs.emit(
                    Component::Coalesce,
                    EventKind::SilentElide,
                    entry.base.raw(),
                    coalesced,
                );
            }
            cost
        } else {
            // The line was evicted while its words sat in the buffer (its
            // pre-buffer contents went to memory with the eviction). The
            // deposit writes around the cache — no L1 array activation,
            // and crucially no re-fill that would perturb the functional
            // state relative to the other schemes.
            self.backend
                .merge_words_below(entry.base, &entry.words, &entry.valid);
            self.ledger.traffic.eviction_writebacks += 1;
            AccessCost::default()
        };
        // Recycle the spent entry: reset it to the freshly-allocated
        // state so the next slot allocation skips the two Vec allocs.
        entry.words.fill(0);
        entry.valid.fill(false);
        self.free.push(entry);
        cost
    }

    /// Services one request with its address decomposition precomputed —
    /// shared by the per-op and batched paths.
    #[inline]
    fn access_decoded(&mut self, d: DecodedOp) -> AccessResponse {
        let DecodedOp { set, tag, word, .. } = d;
        let g = self.geometry();
        let base = g.block_base(d.addr);

        if d.is_read() {
            // Forward from the buffer when the word was coalesced. The
            // functional cache state must advance exactly as in the other
            // schemes (fill on miss, touch on hit), even though the data
            // itself comes from the buffer.
            if let Some(pos) = self.entry_pos(base) {
                if self.entries[pos].valid[word] {
                    let probed = self.backend.cache().find_in_set(set, tag);
                    let residency = self.backend.ensure_resident_probed(d.addr, probed);
                    self.ledger.record_residency(&residency, true);
                    let value = self.entries[pos].words[word];
                    self.backend.cache_mut().touch_at(set, residency.way);
                    self.ledger.record_read(residency.hit, true);
                    self.ledger.traffic.bypassed_reads += 1;
                    let m = self.metrics;
                    self.ledger.obs.inc(m.forwarded_reads);
                    return AccessResponse {
                        value,
                        hit: residency.hit,
                        cost: AccessCost {
                            row_reads: 0,
                            row_writes: 0,
                            buffer_hit: true,
                        },
                    };
                }
            }
            let probed = self.backend.cache().find_in_set(set, tag);
            let residency = self.backend.ensure_resident_probed(d.addr, probed);
            self.ledger.record_residency(&residency, true);
            let value = self
                .backend
                .cache_mut()
                .read_word_at(set, residency.way, word);
            self.ledger.record_read(residency.hit, true);
            self.ledger.traffic.demand_reads += 1;
            return AccessResponse {
                value,
                hit: residency.hit,
                cost: AccessCost {
                    row_reads: 1,
                    row_writes: 0,
                    buffer_hit: false,
                },
            };
        }

        // Write path: keep residency identical to the other controllers
        // (write-allocate), then coalesce.
        let probed = self.backend.cache().find_in_set(set, tag);
        let residency = self.backend.ensure_resident_probed(d.addr, probed);
        self.ledger.record_residency(&residency, true);
        // Silence for the request statistics: against the architecturally
        // visible value (buffered word if coalesced, else the line — the
        // block is resident after `ensure_resident`, so the line's word
        // is exactly what `peek_word` would see). Nothing below touches
        // the entry list before the merge, so the slot scan is shared
        // with the merge decision.
        let entry_pos = self.entry_pos(base);
        let current = match entry_pos {
            Some(pos) if self.entries[pos].valid[word] => self.entries[pos].words[word],
            _ => self.backend.cache().peek_word_at(set, residency.way, word),
        };
        self.ledger
            .record_write(residency.hit, current == d.value, true);
        self.backend.cache_mut().touch_at(set, residency.way);

        let mut cost = AccessCost {
            row_reads: 0,
            row_writes: 0,
            buffer_hit: true,
        };
        match entry_pos {
            Some(pos) => {
                self.entries[pos].words[word] = d.value;
                self.entries[pos].valid[word] = true;
                self.ledger.traffic.grouped_writes += 1;
            }
            None => {
                if self.entries.len() >= self.capacity {
                    let deposit_cost = self.deposit(0);
                    cost.row_reads += deposit_cost.row_reads;
                    cost.row_writes += deposit_cost.row_writes;
                    cost.buffer_hit = false;
                }
                let mut entry = self
                    .free
                    .pop()
                    .unwrap_or_else(|| Entry::new(base, g.block_words()));
                entry.base = base;
                entry.words[word] = d.value;
                entry.valid[word] = true;
                self.entries.push(entry);
            }
        }
        AccessResponse {
            value: d.value,
            hit: residency.hit,
            cost,
        }
    }
}

impl Controller for CoalescingController {
    fn access(&mut self, op: &MemOp) -> AccessResponse {
        let g = self.geometry();
        self.access_decoded(DecodedOp::from_op(op, &g))
    }

    fn access_batch(&mut self, batch: &DecodedBatch, range: std::ops::Range<usize>) {
        assert_eq!(
            batch.geometry(),
            self.geometry(),
            "batch decoded against a different geometry"
        );
        for d in batch.run(range) {
            self.access_decoded(d);
        }
    }

    fn flush(&mut self) {
        while !self.entries.is_empty() {
            self.deposit(0);
        }
    }

    fn reset_counters(&mut self) {
        self.ledger.reset();
        self.backend.reset_stats();
    }

    fn cache(&self) -> &DataCache {
        self.backend.cache()
    }

    fn memory(&self) -> &MainMemory {
        self.backend.memory()
    }

    fn peek_word(&self, addr: Address) -> u64 {
        let g = self.geometry();
        let base = g.block_base(addr);
        let word = g.word_offset_of(addr);
        if let Some(pos) = self.entry_pos(base) {
            if self.entries[pos].valid[word] {
                return self.entries[pos].words[word];
            }
        }
        self.backend.peek_word(addr)
    }

    fn ledger(&self, i: usize) -> &Ledger {
        assert_eq!(i, 0, "one ledger");
        &self.ledger
    }

    fn ledger_mut(&mut self, i: usize) -> &mut Ledger {
        assert_eq!(i, 0, "one ledger");
        &mut self.ledger
    }

    fn occupancy(&self, _ledger: usize) -> Option<Vec<u64>> {
        let words = self.geometry().block_words();
        let mut histogram = vec![0u64; words + 1];
        for entry in &self.entries {
            let valid = entry.valid.iter().filter(|&&v| v).count();
            histogram[valid] += 1;
        }
        Some(histogram)
    }
}

impl fmt::Debug for CoalescingController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoalescingController")
            .field("capacity", &self.capacity)
            .field("occupied", &self.entries.len())
            .field("ledger", &self.ledger)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RmwController;

    fn geometry() -> CacheGeometry {
        CacheGeometry::new(256, 2, 32).unwrap()
    }

    fn controller(entries: usize) -> CoalescingController {
        CoalescingController::new(geometry(), ReplacementKind::Lru, entries)
    }

    #[test]
    fn writes_to_one_block_coalesce_into_one_rmw() {
        let mut c = controller(4);
        let a = Address::new(0x40);
        for i in 0..4u64 {
            c.access(&MemOp::write(a.offset(i * 8), i + 1));
        }
        assert_eq!(c.array_accesses(), 0, "all four writes buffered");
        c.flush();
        assert_eq!(c.array_accesses(), 2, "one RMW deposits the block");
        assert_eq!(c.traffic().rmw_ops, 1);
        for i in 0..4u64 {
            assert_eq!(c.peek_word(a.offset(i * 8)), i + 1);
        }
    }

    #[test]
    fn capacity_eviction_is_fifo() {
        let mut c = controller(2);
        c.access(&MemOp::write(Address::new(0x00), 1));
        c.access(&MemOp::write(Address::new(0x40), 2));
        assert_eq!(c.array_accesses(), 0);
        // Third block evicts the oldest (0x00).
        c.access(&MemOp::write(Address::new(0x80), 3));
        assert_eq!(c.traffic().rmw_ops, 1);
        assert_eq!(
            c.peek_word(Address::new(0x00)),
            1,
            "deposited, still visible"
        );
    }

    #[test]
    fn reads_forward_from_the_buffer() {
        let mut c = controller(4);
        let a = Address::new(0x40);
        c.access(&MemOp::write(a, 7));
        let r = c.access(&MemOp::read(a));
        assert_eq!(r.value, 7);
        assert!(r.cost.buffer_hit);
        assert_eq!(c.traffic().bypassed_reads, 1);
        // A read to an uncoalesced word of the same block goes to the array.
        let r = c.access(&MemOp::read(a.offset(8)));
        assert_eq!(r.value, 0);
        assert!(!r.cost.buffer_hit);
        assert_eq!(c.traffic().demand_reads, 1);
    }

    #[test]
    fn silent_deposits_skip_the_write_phase() {
        let mut c = controller(2);
        let a = Address::new(0x40);
        c.access(&MemOp::write(a, 0)); // memory is zero: silent
        c.flush();
        assert_eq!(c.traffic().rmw_read_phases, 1, "row read happens");
        assert_eq!(c.traffic().demand_writes, 0, "write phase skipped");
        assert_eq!(c.traffic().silent_writebacks_elided, 1);
    }

    #[test]
    fn functionally_equivalent_to_rmw() {
        let g = geometry();
        let mut rmw = RmwController::new(g, ReplacementKind::Lru);
        let mut wb = controller(4);
        let mut ops = Vec::new();
        for i in 0..600u64 {
            let addr = Address::new((i * 24) % 2048);
            ops.push(if i % 3 == 0 {
                MemOp::write(addr, i)
            } else {
                MemOp::read(addr)
            });
        }
        for op in &ops {
            let a = rmw.access(op);
            let b = wb.access(op);
            assert_eq!(a.value, b.value, "{op}");
            assert_eq!(a.hit, b.hit, "{op}");
        }
        wb.flush();
        assert_eq!(rmw.stats(), wb.stats());
        for op in &ops {
            assert_eq!(rmw.peek_word(op.addr), wb.peek_word(op.addr));
        }
        assert!(wb.array_accesses() <= rmw.array_accesses());
    }

    #[test]
    fn occupancy_histogram_counts_valid_words_per_entry() {
        let mut c = controller(4);
        assert_eq!(
            c.occupancy(0),
            Some(vec![0; 5]),
            "4-word blocks: levels 0..=4"
        );
        let a = Address::new(0x40);
        c.access(&MemOp::write(a, 1));
        c.access(&MemOp::write(a.offset(8), 2));
        c.access(&MemOp::write(Address::new(0x80), 3));
        // One entry holds 2 coalesced words, another holds 1.
        assert_eq!(c.occupancy(0), Some(vec![0, 1, 1, 0, 0]));
        c.flush();
        assert_eq!(c.occupancy(0), Some(vec![0; 5]));
    }

    #[test]
    fn flush_is_idempotent() {
        let mut c = controller(2);
        c.access(&MemOp::write(Address::new(0x40), 5));
        c.flush();
        let t = *c.traffic();
        c.flush();
        assert_eq!(*c.traffic(), t);
        assert_eq!(c.name(), "CoalesceWB");
        assert_eq!(c.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = controller(0);
    }
}
