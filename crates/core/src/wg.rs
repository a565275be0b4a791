//! Write Grouping (WG) and Write Grouping + Read Bypassing (WG+RB).

use std::fmt;

use serde::{Deserialize, Serialize};

use cache8t_obs::{Component, CounterId, EventKind, HistogramId};
use cache8t_sim::{Address, CacheGeometry, DataCache, MainMemory, ReplacementKind};
use cache8t_trace::{DecodedBatch, DecodedOp, MemOp};

use crate::controller::{AccessCost, AccessResponse, CacheBackend, Controller};
use crate::obs::StackObs;
use crate::Ledger;

/// Configuration of the grouping controller.
///
/// The defaults are the paper's WG (§4.1): one Set-Buffer, silent-write
/// detection on, no read bypassing. [`WgOptions::wg_rb`] enables
/// `read_bypass` (§4.2); the remaining knobs exist for the ablation studies
/// in `cache8t-bench` (`ext_ablations`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WgOptions {
    /// Serve reads that hit the Tag-Buffer from the Set-Buffer (WG+RB).
    pub read_bypass: bool,
    /// Detect silent writes and suppress clean write-backs via the Dirty
    /// bit.
    pub silent_detection: bool,
    /// Number of Set-Buffers (the paper uses 1; more is an extension).
    pub buffer_depth: usize,
}

impl WgOptions {
    /// The paper's WG configuration.
    pub const fn wg() -> Self {
        WgOptions {
            read_bypass: false,
            silent_detection: true,
            buffer_depth: 1,
        }
    }

    /// The paper's WG+RB configuration.
    pub const fn wg_rb() -> Self {
        WgOptions {
            read_bypass: true,
            silent_detection: true,
            buffer_depth: 1,
        }
    }
}

impl Default for WgOptions {
    /// Same as [`WgOptions::wg`].
    fn default() -> Self {
        WgOptions::wg()
    }
}

/// A deliberately broken behaviour for conformance-harness self-tests.
///
/// The differential harness (`cache8t-conform`) must demonstrate that it
/// *catches* equivalence bugs, not just that the healthy controllers
/// agree — so the controller can be armed with one of these faults and
/// replayed until the harness flags the divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WgFault {
    /// Never set the Dirty bit on a grouped write: a dirty group is then
    /// mistaken for a silent one and its write-back is elided, dropping
    /// the written data (the exact failure mode §4.1's Dirty bit
    /// exists to prevent).
    SkipDirtyBit,
}

/// Borrowed read-only view of one resident Set-Buffer and its Tag-Buffer
/// entry, for external invariant checking (see `cache8t-conform`). The
/// grouping state (Dirty bit, modified ways, writes since sync) is ledger
/// 0's.
///
/// Views borrow the controller directly, so draining them every replay
/// step (as the conformance harness does) copies nothing.
#[derive(Debug, Clone, Copy)]
pub struct WgBufferView<'a> {
    set_index: u64,
    tags: &'a [Option<u64>],
    data: &'a [u64],
    modified: &'a [bool],
    group: GroupState,
    block_words: usize,
}

impl<'a> WgBufferView<'a> {
    /// The buffered set's index.
    #[inline]
    pub fn set_index(&self) -> u64 {
        self.set_index
    }

    /// Number of ways in the buffered set.
    #[inline]
    pub fn ways(&self) -> usize {
        self.tags.len()
    }

    /// Per-way tags (`None` for ways invalid at fill time).
    #[inline]
    pub fn tags(&self) -> &'a [Option<u64>] {
        self.tags
    }

    /// Block data of `way` as currently buffered.
    #[inline]
    pub fn way_data(&self, way: usize) -> &'a [u64] {
        &self.data[way * self.block_words..(way + 1) * self.block_words]
    }

    /// Whether `way` was modified through the buffer since its fill.
    #[inline]
    pub fn is_modified(&self, way: usize) -> bool {
        self.modified[way]
    }

    /// The paper's Dirty bit.
    #[inline]
    pub fn dirty(&self) -> bool {
        self.group.dirty
    }

    /// Writes absorbed since the last synchronization.
    #[inline]
    pub fn writes_since_sync(&self) -> u64 {
        self.group.writes_since_sync
    }
}

/// One buffered cache set: the Set-Buffer contents plus the Tag-Buffer
/// entry describing them (paper Figure 6), and each ledger's grouping
/// state over them.
#[derive(Debug, Clone)]
struct SetBuffer<const N: usize> {
    /// The buffered set's index (the "Set" field of the Tag-Buffer).
    set_index: u64,
    /// Per-way tags (`None` for ways that were invalid at fill time).
    tags: Vec<Option<u64>>,
    /// All ways' block data in one flat arena (`way * block_words + word`),
    /// updated in place by grouped writes.
    data: Vec<u64>,
    /// Per-way dirty state of the underlying cache line: its state at
    /// fill time, plus every modification a ledger's write-back has
    /// folded in since.
    line_dirty: Vec<bool>,
    /// Request tick at which this buffer was filled (for the
    /// `wg.buffer_residency` histogram).
    filled_at_tick: u64,
    /// Per-ledger, per-way "modified through the buffer" flags, ledger
    /// `i`'s at `i * ways + way`: set by non-silent grouped writes, folded
    /// into the line dirty bits at that ledger's write-back.
    modified: Vec<bool>,
    /// Per-ledger grouping state. The buffered data is the same for every
    /// ledger; only when each one writes it back differs.
    groups: [GroupState; N],
}

/// One ledger's grouping state over a Set-Buffer (with its modified-way
/// flags in [`SetBuffer::modified`]).
///
/// WG's premature write-backs and WG+RB's bypassed reads differ only
/// here: a WG+RB ledger keeps its Dirty bit through a read that makes the
/// WG ledger write back, so each ledger keeps its own copy.
#[derive(Debug, Clone, Copy, Default)]
struct GroupState {
    /// The paper's single Dirty bit: the buffer diverges from the array.
    dirty: bool,
    /// Writes absorbed since the last synchronization (used to count
    /// write-backs elided by the Dirty bit).
    writes_since_sync: u64,
}

/// One WG or WG+RB ledger and the options that make it one or the other.
#[derive(Debug)]
struct WgLedger {
    ledger: Ledger,
    read_bypass: bool,
    silent_detection: bool,
    metrics: WgMetrics,
}

/// Handles of the grouping-specific metrics.
#[derive(Debug, Clone, Copy)]
struct WgMetrics {
    /// `wg.groups` — closed write groups (dirty or silent).
    groups: CounterId,
    /// `wg.writebacks` — Set-Buffer deposits into the array.
    writebacks: CounterId,
    /// `wg.premature_writebacks` — deposits forced by reads (plain WG).
    premature_writebacks: CounterId,
    /// `wg.silent_suppressed` — write-backs elided by the Dirty bit.
    silent_suppressed: CounterId,
    /// `wg.buffer_fills` — Set-Buffer fill row-reads.
    buffer_fills: CounterId,
    /// `wg.grouped_writes` — writes absorbed without an array access.
    grouped_writes: CounterId,
    /// `wg.bypassed_reads` — reads served from the Set-Buffer (WG+RB).
    bypassed_reads: CounterId,
    /// `wg.group_len` — writes per closed group.
    group_len: HistogramId,
    /// `wg.buffer_residency` — request ticks a buffer stayed resident.
    buffer_residency: HistogramId,
}

impl WgMetrics {
    fn register(obs: &mut StackObs) -> Self {
        let r = obs.registry_mut();
        WgMetrics {
            groups: r.counter("wg.groups"),
            writebacks: r.counter("wg.writebacks"),
            premature_writebacks: r.counter("wg.premature_writebacks"),
            silent_suppressed: r.counter("wg.silent_suppressed"),
            buffer_fills: r.counter("wg.buffer_fills"),
            grouped_writes: r.counter("wg.grouped_writes"),
            bypassed_reads: r.counter("wg.bypassed_reads"),
            group_len: r.histogram("wg.group_len"),
            buffer_residency: r.histogram("wg.buffer_residency"),
        }
    }
}

impl WgLedger {
    fn new(options: WgOptions) -> Self {
        let mut ledger = Ledger::new(if options.read_bypass { "WG+RB" } else { "WG" });
        let metrics = WgMetrics::register(&mut ledger.obs);
        WgLedger {
            ledger,
            read_bypass: options.read_bypass,
            silent_detection: options.silent_detection,
            metrics,
        }
    }
}

/// **Write Grouping** — the paper's §4.1 technique, generalized by
/// [`WgOptions`].
///
/// A Set-Buffer between the column multiplexers and the write drivers holds
/// the most recently *written* cache set; the cache controller keeps the
/// set's index and all block tags in a Tag-Buffer. Writes that hit the
/// Tag-Buffer update the Set-Buffer without touching the SRAM array — the
/// whole group is deposited with a single row write when the buffer is
/// evicted (a write to a different set) or synchronized early (a read that
/// needs buffered data). A Dirty bit, cleared when every absorbed write was
/// silent, suppresses write-backs that would deposit unchanged data.
///
/// Functional behaviour (hits, misses, replacement, read values) is
/// identical to [`RmwController`](crate::RmwController); only the array
/// traffic differs. The equivalence tests in this crate enforce that.
///
/// The Set-Buffer's data is also identical with and without read
/// bypassing, so this is the grouping *family* controller too: one
/// functional core (cache, Set-Buffers) under `N` ledgers, each with its
/// own options and grouping state. [`WgController::family`] keeps a WG and
/// a WG+RB ledger, so a single replay yields both results.
///
/// See the [crate docs](crate) for an example.
pub struct WgController<const N: usize = 1> {
    backend: CacheBackend,
    ledgers: [WgLedger; N],
    buffer_depth: usize,
    /// Some ledger reads the array on a Tag-Buffer hit (plain WG). The
    /// value is the buffer's either way; this only decides whether the
    /// functional cache counts an array read hit or just a touch.
    array_reads: bool,
    /// Buffered sets, most recently used first. Length ≤ buffer_depth.
    buffers: Vec<SetBuffer<N>>,
    /// Retired Set-Buffers kept for reuse: refilling one recycles its
    /// allocations, so the steady-state fill/evict cycle allocates nothing.
    free: Vec<SetBuffer<N>>,
    /// Armed self-test fault, if any (see [`WgFault`]).
    fault: Option<WgFault>,
}

impl WgController {
    /// Creates a WG controller with the paper's default options.
    pub fn new(geometry: CacheGeometry, replacement: ReplacementKind) -> Self {
        WgController::with_options(geometry, replacement, WgOptions::wg())
    }

    /// Creates a grouping controller with explicit options.
    ///
    /// # Panics
    ///
    /// Panics if `options.buffer_depth == 0`.
    pub fn with_options(
        geometry: CacheGeometry,
        replacement: ReplacementKind,
        options: WgOptions,
    ) -> Self {
        WgController::from_backend(CacheBackend::new(geometry, replacement), options)
    }

    /// Creates a grouping controller over an existing backend (e.g. one
    /// built with [`CacheBackend::with_l2`]).
    ///
    /// # Panics
    ///
    /// Panics if `options.buffer_depth == 0`.
    pub fn from_backend(backend: CacheBackend, options: WgOptions) -> Self {
        WgController::with_ledgers(backend, [options])
    }

    /// **Write Grouping + Read Bypassing** — the paper's §4.2 technique,
    /// with the paper's options ([`WgOptions::wg_rb`]).
    ///
    /// Identical to WG except that reads hitting the Tag-Buffer are
    /// served directly from the Set-Buffer through an extra output
    /// multiplexer (paper Figure 7): no premature write-back, no array
    /// read, and the read port stays free.
    ///
    /// # Example
    ///
    /// ```
    /// use cache8t_core::{Controller, WgController};
    /// use cache8t_sim::{Address, CacheGeometry, ReplacementKind};
    /// use cache8t_trace::MemOp;
    ///
    /// let mut c = WgController::wg_rb(CacheGeometry::paper_baseline(), ReplacementKind::Lru);
    /// let a = Address::new(0x2000);
    /// c.access(&MemOp::write(a, 7));          // fills the Set-Buffer (1 read)
    /// let r = c.access(&MemOp::read(a));      // bypassed: served from the buffer
    /// assert_eq!(r.value, 7);
    /// assert!(r.cost.buffer_hit);
    /// assert_eq!(c.traffic().bypassed_reads, 1);
    /// ```
    pub fn wg_rb(geometry: CacheGeometry, replacement: ReplacementKind) -> Self {
        WgController::with_options(geometry, replacement, WgOptions::wg_rb())
    }
}

impl WgController<2> {
    /// The grouping family: a WG and a WG+RB ledger, with the paper's
    /// options, over one Set-Buffer.
    pub fn family(geometry: CacheGeometry, replacement: ReplacementKind) -> Self {
        WgController::with_ledgers(
            CacheBackend::new(geometry, replacement),
            [WgOptions::wg(), WgOptions::wg_rb()],
        )
    }
}

impl<const N: usize> WgController<N> {
    /// One ledger per entry of `options`, which must agree on the
    /// (functional) buffer depth.
    fn with_ledgers(backend: CacheBackend, options: [WgOptions; N]) -> Self {
        let buffer_depth = options[0].buffer_depth;
        assert!(buffer_depth >= 1, "at least one Set-Buffer is required");
        assert!(
            options.iter().all(|o| o.buffer_depth == buffer_depth),
            "ledgers of one family share the Set-Buffers"
        );
        let ledgers = options.map(WgLedger::new);
        WgController {
            backend,
            array_reads: ledgers.iter().any(|l| !l.read_bypass),
            ledgers,
            buffer_depth,
            buffers: Vec::with_capacity(buffer_depth),
            free: Vec::with_capacity(buffer_depth),
            fault: None,
        }
    }

    /// Ledger 0's options.
    pub fn options(&self) -> WgOptions {
        WgOptions {
            read_bypass: self.ledgers[0].read_bypass,
            silent_detection: self.ledgers[0].silent_detection,
            buffer_depth: self.buffer_depth,
        }
    }

    /// Arms a deliberate equivalence bug for conformance-harness
    /// self-tests. Never use outside tests: the controller stops being
    /// functionally transparent.
    #[doc(hidden)]
    pub fn inject_fault(&mut self, fault: Option<WgFault>) {
        self.fault = fault;
    }

    /// Borrowed views of the resident Set-Buffers (MRU first) for
    /// external invariant checking. Nothing is cloned.
    pub fn buffer_views(&self) -> impl Iterator<Item = WgBufferView<'_>> {
        let block_words = self.geometry().block_words();
        self.buffers.iter().map(move |buf| WgBufferView {
            set_index: buf.set_index,
            tags: &buf.tags,
            data: &buf.data,
            modified: &buf.modified[..buf.tags.len()],
            group: buf.groups[0],
            block_words,
        })
    }

    fn geometry(&self) -> CacheGeometry {
        self.backend.cache().geometry()
    }

    fn buffer_pos_for_set(&self, set_index: u64) -> Option<usize> {
        self.buffers.iter().position(|b| b.set_index == set_index)
    }

    /// Tag-Buffer lookup: buffered set with a matching valid tag.
    fn tag_hit(&self, addr: Address) -> Option<(usize, usize)> {
        let g = self.geometry();
        self.tag_hit_parts(g.set_index_of(addr), g.tag_of(addr))
    }

    /// [`tag_hit`](Self::tag_hit) with the address decomposition already
    /// done (per-op path decodes inline; batched path reads the columns).
    ///
    /// The way scan is branchless in the style of
    /// [`kernels::find_way`](cache8t_sim::kernels::find_way): every way
    /// is compared with no early exit and the hit bitmask resolved with
    /// one `trailing_zeros`. Valid tags are unique within a set, so
    /// first-match semantics are preserved. This probe runs on *every*
    /// request, hit or miss.
    #[inline]
    fn tag_hit_parts(&self, set: u64, tag: u64) -> Option<(usize, usize)> {
        let pos = self.buffer_pos_for_set(set)?;
        let tags = &self.buffers[pos].tags;
        if tags.len() > 64 {
            let way = tags.iter().position(|t| *t == Some(tag))?;
            return Some((pos, way));
        }
        let mut hits = 0u64;
        for (way, t) in tags.iter().enumerate() {
            hits |= u64::from(*t == Some(tag)) << way;
        }
        if hits == 0 {
            None
        } else {
            Some((pos, hits.trailing_zeros() as usize))
        }
    }

    /// Synchronizes the buffer at `pos` for every ledger that needs it:
    /// all of them, or for a premature (read-forced) write-back only the
    /// ledgers without read bypassing. The buffer is written back to the
    /// array once if any of their Dirty bits is set; each ledger then
    /// accounts its own write-back, or its elided silent group. Returns
    /// `true` if ledger 0 performed a row write.
    fn sync_buffer(&mut self, pos: usize, premature: bool) -> bool {
        let buf = &mut self.buffers[pos];
        let set_index = buf.set_index;
        let syncs = |l: &WgLedger| !premature || !l.read_bypass;
        let deposit = self
            .ledgers
            .iter()
            .zip(&buf.groups)
            .any(|(l, group)| syncs(l) && group.dirty);
        if deposit {
            // The buffer mirrors one whole SRAM row, and the row's ways
            // are contiguous in the cache's word arena — so the deposit
            // is a single set-wide branchless compare + copy instead of
            // a compare/copy per way. Ways that were invalid at fill
            // time still hold their snapshot (fills into a buffered set
            // drop the buffer first), so including them cannot move
            // stored data.
            self.backend
                .cache_mut()
                .replace_set_words(set_index, &buf.data);
            let ways = buf.tags.len();
            for way in 0..ways {
                if buf.tags[way].is_none() {
                    continue;
                }
                let mut line_dirty = buf.line_dirty[way];
                for (i, (l, group)) in self.ledgers.iter().zip(&buf.groups).enumerate() {
                    if syncs(l) && group.dirty {
                        line_dirty |= buf.modified[i * ways + way];
                        buf.modified[i * ways + way] = false;
                    }
                }
                self.backend
                    .cache_mut()
                    .set_line_dirty(set_index, way, line_dirty);
                buf.line_dirty[way] = line_dirty;
            }
        }
        let mut wrote = false;
        for (i, (l, group)) in self.ledgers.iter_mut().zip(&mut buf.groups).enumerate() {
            if !syncs(l) {
                continue;
            }
            let (ledger, m) = (&mut l.ledger, l.metrics);
            let group_len = group.writes_since_sync;
            if group.dirty {
                group.dirty = false;
                wrote |= i == 0;
                ledger.traffic.writebacks += 1;
                let obs = &mut ledger.obs;
                obs.inc(m.writebacks);
                if premature {
                    ledger.traffic.premature_writebacks += 1;
                    obs.inc(m.premature_writebacks);
                }
                // A dirty deposit always closes a write group.
                obs.inc(m.groups);
                obs.observe(m.group_len, group_len);
                obs.emit(Component::Wg, EventKind::GroupFlush, set_index, group_len);
            } else if group_len > 0 {
                // The Dirty bit is clear although writes were absorbed:
                // the whole group was silent and the write-back is elided.
                ledger.traffic.silent_writebacks_elided += 1;
                let obs = &mut ledger.obs;
                obs.inc(m.silent_suppressed);
                obs.inc(m.groups);
                obs.observe(m.group_len, group_len);
                obs.emit(Component::Wg, EventKind::SilentElide, set_index, group_len);
            }
            group.writes_since_sync = 0;
        }
        wrote
    }

    /// Synchronizes every ledger's view of the buffer at `pos`, then
    /// discards it. Returns `true` if ledger 0 performed a row write.
    fn evict_buffer(&mut self, pos: usize) -> bool {
        let wrote = self.sync_buffer(pos, false);
        let buf = self.buffers.remove(pos);
        let WgLedger {
            ledger, metrics, ..
        } = &mut self.ledgers[0];
        let residency = ledger.obs.tick().saturating_sub(buf.filled_at_tick);
        ledger.obs.observe(metrics.buffer_residency, residency);
        self.free.push(buf);
        wrote
    }

    /// Snapshots `set_index` from the cache into an MRU Set-Buffer (the
    /// "fill the Set-Buffer by read row" step of Algorithm 1), recycling a
    /// retired buffer's allocations when one is available.
    fn fill_buffer(&mut self, set_index: u64) {
        let g = self.geometry();
        let ways = g.ways() as usize;
        let mut buf = self.free.pop().unwrap_or_else(|| SetBuffer {
            set_index: 0,
            tags: vec![None; ways],
            data: vec![0; ways * g.block_words()],
            line_dirty: vec![false; ways],
            filled_at_tick: 0,
            modified: vec![false; N * ways],
            groups: [GroupState::default(); N],
        });
        buf.set_index = set_index;
        buf.modified.fill(false);
        buf.groups = [GroupState::default(); N];
        buf.filled_at_tick = self.ledgers[0].ledger.obs.tick();
        // Snapshot the whole row's words in one copy — the set's ways
        // are contiguous in the cache's word arena — and walk only the
        // per-way metadata.
        buf.data
            .copy_from_slice(self.backend.cache().set_words(set_index));
        let mut valid_ways = 0u64;
        for way in 0..ways {
            let (tag, valid, dirty) = self.backend.cache().line_meta(set_index, way);
            valid_ways += u64::from(valid);
            buf.tags[way] = valid.then_some(tag);
            buf.line_dirty[way] = valid && dirty;
        }
        let WgLedger {
            ledger, metrics, ..
        } = &mut self.ledgers[0];
        ledger.traffic.buffer_fills += 1;
        ledger.obs.inc(metrics.buffer_fills);
        for l in &mut self.ledgers {
            l.ledger
                .obs
                .emit(Component::Wg, EventKind::BufferFill, set_index, valid_ways);
        }
        self.buffers.insert(0, buf);
    }

    fn promote_buffer(&mut self, pos: usize) {
        if pos > 0 {
            let buf = self.buffers.remove(pos);
            self.buffers.insert(0, buf);
        }
    }

    #[inline]
    fn serve_read(&mut self, d: DecodedOp) -> AccessResponse {
        let DecodedOp { set, tag, word, .. } = d;
        if let Some((pos, way)) = self.tag_hit_parts(set, tag) {
            // A Set-Buffer mirrors its cache set in way order and fills
            // into a buffered set always drop the buffer first, so the
            // buffer way *is* the cache way — the line can be addressed
            // directly with no second tag search.
            debug_assert_eq!(self.backend.cache().find_in_set(set, tag), Some(way));
            // Plain WG: the array must be current before reading it, so a
            // premature write-back is forced when the buffer is dirty.
            // WG+RB routes the Set-Buffer to the output instead (Figure
            // 7), so its Dirty bit survives the read. The array and the
            // buffer then agree on this word, so the value is the same
            // either way.
            let (value, wrote) = if self.array_reads {
                let wrote = self.sync_buffer(pos, true);
                (self.backend.cache_mut().read_word_at(set, way, word), wrote)
            } else {
                self.backend.cache_mut().touch_at(set, way);
                let words = self.geometry().block_words();
                (self.buffers[pos].data[way * words + word], false)
            };
            self.promote_buffer(pos);
            for (
                i,
                WgLedger {
                    ledger,
                    read_bypass,
                    metrics,
                    ..
                },
            ) in self.ledgers.iter_mut().enumerate()
            {
                ledger.record_read(true, i == 0);
                if *read_bypass {
                    ledger.traffic.bypassed_reads += 1;
                    ledger.obs.inc(metrics.bypassed_reads);
                    ledger
                        .obs
                        .emit_verbose(Component::Wg, EventKind::Bypass, d.addr.raw(), value);
                } else {
                    ledger.traffic.demand_reads += 1;
                }
            }
            let bypassed = self.ledgers[0].read_bypass;
            return AccessResponse {
                value,
                hit: true,
                cost: AccessCost {
                    row_reads: u32::from(!bypassed),
                    row_writes: u32::from(wrote),
                    buffer_hit: bypassed,
                },
            };
        }

        // Tag-Buffer miss: a normal array read. If the read misses in the
        // cache and its fill lands in a buffered set, the set's composition
        // changes — synchronize and drop that buffer first.
        let mut cost = AccessCost::default();
        let probed = self.backend.cache().find_in_set(set, tag);
        if probed.is_none() {
            if let Some(pos) = self.buffer_pos_for_set(set) {
                cost.row_writes += u32::from(self.evict_buffer(pos));
            }
        }
        let residency = self.backend.ensure_resident_probed(d.addr, probed);
        let value = self
            .backend
            .cache_mut()
            .read_word_at(set, residency.way, word);
        for (i, l) in self.ledgers.iter_mut().enumerate() {
            l.ledger.record_residency(&residency, i == 0);
            l.ledger.record_read(residency.hit, i == 0);
            l.ledger.traffic.demand_reads += 1;
        }
        cost.row_reads += 1;
        AccessResponse {
            value,
            hit: residency.hit,
            cost,
        }
    }

    /// Applies a write to the buffer at `pos` (the "Update the Set-Buffer,
    /// set the Dirty bit if it is non-silent" step) in every ledger's
    /// grouping state. Returns `true` if the write was silent.
    #[inline]
    fn write_into_buffer(&mut self, pos: usize, way: usize, word: usize, value: u64) -> bool {
        let idx = way * self.geometry().block_words() + word;
        let skip_dirty = self.fault == Some(WgFault::SkipDirtyBit);
        let buf = &mut self.buffers[pos];
        let ways = buf.tags.len();
        let old = buf.data[idx];
        buf.data[idx] = value;
        let silent = old == value;
        for (i, (group, l)) in buf.groups.iter_mut().zip(&self.ledgers).enumerate() {
            if !silent {
                buf.modified[i * ways + way] = true;
            }
            if (!silent || !l.silent_detection) && !skip_dirty {
                group.dirty = true;
            }
            group.writes_since_sync += 1;
        }
        silent
    }

    #[inline]
    fn serve_write(&mut self, d: DecodedOp) -> AccessResponse {
        let DecodedOp { set, tag, word, .. } = d;
        if let Some((pos, way)) = self.tag_hit_parts(set, tag) {
            // Grouped: the Set-Buffer absorbs the write; no array access.
            // The buffer way is the cache way (see `serve_read`), so the
            // replacement touch needs no tag search either.
            debug_assert_eq!(self.backend.cache().find_in_set(set, tag), Some(way));
            let silent = self.write_into_buffer(pos, way, word, d.value);
            self.promote_buffer(pos);
            self.backend.cache_mut().touch_at(set, way);
            for (i, l) in self.ledgers.iter_mut().enumerate() {
                l.ledger.record_write(true, silent, i == 0);
            }
            let WgLedger {
                ledger, metrics, ..
            } = &mut self.ledgers[0];
            ledger.traffic.grouped_writes += 1;
            ledger.obs.inc(metrics.grouped_writes);
            return AccessResponse {
                value: d.value,
                hit: true,
                cost: AccessCost {
                    row_reads: 0,
                    row_writes: 0,
                    buffer_hit: true,
                },
            };
        }

        let mut cost = AccessCost::default();

        // A cache miss whose fill lands in a buffered set invalidates that
        // buffer's snapshot — synchronize and drop it before allocating.
        let probed = self.backend.cache().find_in_set(set, tag);
        if probed.is_none() {
            if let Some(pos) = self.buffer_pos_for_set(set) {
                cost.row_writes += u32::from(self.evict_buffer(pos));
            }
        }
        let residency = self.backend.ensure_resident_probed(d.addr, probed);
        for (i, l) in self.ledgers.iter_mut().enumerate() {
            l.ledger.record_residency(&residency, i == 0);
        }

        // Evict the least recently used buffer if all Set-Buffers are
        // occupied (with depth 1 this is Algorithm 1's "write-back the
        // Set-Buffer if the Dirty bit is set").
        while self.buffers.len() >= self.buffer_depth {
            let last = self.buffers.len() - 1;
            cost.row_writes += u32::from(self.evict_buffer(last));
        }

        // Fill the Set-Buffer by reading the row, then merge the write.
        // The fresh buffer snapshots the set in way order, so the block's
        // buffer way is the way `ensure_resident` just reported.
        self.fill_buffer(set);
        cost.row_reads += 1;
        let way = residency.way;
        debug_assert_eq!(self.buffers[0].tags[way], Some(tag));
        let silent = self.write_into_buffer(0, way, word, d.value);
        for (i, l) in self.ledgers.iter_mut().enumerate() {
            l.ledger.record_write(residency.hit, silent, i == 0);
        }
        self.backend.cache_mut().touch_at(set, way);

        AccessResponse {
            value: d.value,
            hit: residency.hit,
            cost,
        }
    }

    /// Services one request with its address decomposition precomputed —
    /// shared by the per-op and batched paths.
    #[inline]
    fn access_decoded(&mut self, d: DecodedOp) -> AccessResponse {
        if d.is_read() {
            self.serve_read(d)
        } else {
            self.serve_write(d)
        }
    }
}

impl<const N: usize> Controller for WgController<N> {
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
        for pos in 0..self.buffers.len() {
            self.sync_buffer(pos, false);
        }
        self.settle();
    }

    fn settle(&mut self) {
        // Buffer fills, grouped writes and buffer residencies are the
        // same for every member; write-backs, groups and reads are not.
        let (primary, members) = self.ledgers.split_at_mut(1);
        let WgLedger {
            ledger: primary,
            metrics: m,
            ..
        } = &primary[0];
        for l in members {
            let shared = [m.buffer_fills, m.grouped_writes];
            l.ledger.mirror(primary, &shared, &[m.buffer_residency]);
            l.ledger.traffic.buffer_fills = primary.traffic.buffer_fills;
            l.ledger.traffic.grouped_writes = primary.traffic.grouped_writes;
        }
    }

    fn reset_counters(&mut self) {
        for l in &mut self.ledgers {
            l.ledger.reset();
        }
        self.backend.reset_stats();
        // The tick restarted at zero: re-stamp surviving buffers so
        // residency observations stay non-negative.
        for buf in &mut self.buffers {
            buf.filled_at_tick = 0;
        }
    }

    fn cache(&self) -> &DataCache {
        self.backend.cache()
    }

    fn memory(&self) -> &MainMemory {
        self.backend.memory()
    }

    fn peek_word(&self, addr: Address) -> u64 {
        if let Some((pos, way)) = self.tag_hit(addr) {
            let g = self.geometry();
            return self.buffers[pos].data[way * g.block_words() + g.word_offset_of(addr)];
        }
        self.backend.peek_word(addr)
    }

    fn ledger_count(&self) -> usize {
        N
    }

    fn ledger(&self, i: usize) -> &Ledger {
        &self.ledgers[i].ledger
    }

    fn ledger_mut(&mut self, i: usize) -> &mut Ledger {
        &mut self.ledgers[i].ledger
    }

    fn name(&self) -> &'static str {
        match N {
            1 => self.ledgers[0].ledger.name(),
            _ => "WG/WG+RB",
        }
    }

    fn occupancy(&self, ledger: usize) -> Option<Vec<u64>> {
        let ways = self.geometry().ways() as usize;
        let mut histogram = vec![0u64; ways + 1];
        for buf in &self.buffers {
            let flags = &buf.modified[ledger * ways..(ledger + 1) * ways];
            let modified = flags.iter().filter(|&&m| m).count();
            histogram[modified] += 1;
        }
        Some(histogram)
    }
}

impl<const N: usize> fmt::Debug for WgController<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WgController")
            .field("ledgers", &self.ledgers)
            .field("buffer_depth", &self.buffer_depth)
            .field("buffered_sets", &self.buffers.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> CacheGeometry {
        // 4 sets, 2 ways, 32 B blocks.
        CacheGeometry::new(256, 2, 32).unwrap()
    }

    fn wg() -> WgController {
        WgController::new(geometry(), ReplacementKind::Lru)
    }

    fn wgrb() -> WgController {
        WgController::wg_rb(geometry(), ReplacementKind::Lru)
    }

    /// Two addresses in different sets of the test geometry.
    fn set_a_addr() -> Address {
        Address::new(0x00)
    }

    fn set_b_addr() -> Address {
        Address::new(0x20)
    }

    #[test]
    fn consecutive_writes_to_same_set_are_grouped() {
        let mut c = wg();
        let b = set_b_addr();
        c.access(&MemOp::write(b, 1)); // fill (1 read)
        c.access(&MemOp::write(b.offset(8), 2)); // grouped
        c.access(&MemOp::write(b, 3)); // grouped
        assert_eq!(c.traffic().buffer_fills, 1);
        assert_eq!(c.traffic().grouped_writes, 2);
        assert_eq!(c.array_accesses(), 1, "only the fill so far");
        c.flush();
        assert_eq!(c.traffic().writebacks, 1);
        assert_eq!(c.array_accesses(), 2);
    }

    #[test]
    fn write_to_other_set_evicts_buffer() {
        let mut c = wg();
        c.access(&MemOp::write(set_b_addr(), 1));
        c.access(&MemOp::write(set_a_addr(), 2));
        // Eviction wrote back set b, then filled set a.
        assert_eq!(c.traffic().writebacks, 1);
        assert_eq!(c.traffic().buffer_fills, 2);
    }

    #[test]
    fn silent_group_elides_the_writeback() {
        let mut c = wg();
        let b = set_b_addr();
        // Memory is zero-initialized, so writing 0 is silent.
        c.access(&MemOp::write(b, 0));
        c.access(&MemOp::write(b.offset(8), 0));
        c.access(&MemOp::write(set_a_addr(), 7)); // evicts the buffer
        assert_eq!(c.traffic().writebacks, 0, "silent group never written back");
        assert_eq!(c.traffic().silent_writebacks_elided, 1);
    }

    #[test]
    fn silent_detection_off_always_writes_back() {
        let mut c = WgController::with_options(
            geometry(),
            ReplacementKind::Lru,
            WgOptions {
                silent_detection: false,
                ..WgOptions::wg()
            },
        );
        let b = set_b_addr();
        c.access(&MemOp::write(b, 0)); // silent, but detection is off
        c.access(&MemOp::write(set_a_addr(), 7));
        assert_eq!(c.traffic().writebacks, 1);
        assert_eq!(c.traffic().silent_writebacks_elided, 0);
    }

    #[test]
    fn read_hitting_tag_buffer_forces_premature_writeback() {
        let mut c = wg();
        let b = set_b_addr();
        c.access(&MemOp::write(b, 5));
        let r = c.access(&MemOp::read(b));
        assert_eq!(r.value, 5);
        assert_eq!(c.traffic().premature_writebacks, 1);
        assert_eq!(c.traffic().demand_reads, 1);
        // The buffer survives the premature write-back: a further write to
        // set b still groups.
        c.access(&MemOp::write(b, 6));
        assert_eq!(c.traffic().grouped_writes, 1);
        assert_eq!(c.traffic().buffer_fills, 1, "no refill needed");
    }

    #[test]
    fn clean_buffer_read_needs_no_writeback() {
        let mut c = wg();
        let b = set_b_addr();
        c.access(&MemOp::write(b, 0)); // silent -> dirty stays clear
        let r = c.access(&MemOp::read(b));
        assert_eq!(r.value, 0);
        assert_eq!(c.traffic().writebacks, 0);
        assert_eq!(c.traffic().premature_writebacks, 0);
    }

    #[test]
    fn read_bypass_serves_from_buffer() {
        let mut c = wgrb();
        let b = set_b_addr();
        c.access(&MemOp::write(b, 5));
        let r = c.access(&MemOp::read(b));
        assert_eq!(r.value, 5);
        assert!(r.cost.buffer_hit);
        assert_eq!(r.cost.total(), 0);
        assert_eq!(c.traffic().bypassed_reads, 1);
        assert_eq!(c.traffic().premature_writebacks, 0);
        assert_eq!(c.traffic().demand_reads, 0);
    }

    #[test]
    fn bypassed_read_sees_unwritten_words_of_the_set() {
        // The Set-Buffer holds the whole set, so a bypassed read of a word
        // never written through the buffer must still be correct.
        let mut c = wgrb();
        let b = set_b_addr();
        // Put a value in the array first (via a different-set eviction).
        c.access(&MemOp::write(b.offset(16), 9));
        c.access(&MemOp::write(set_a_addr(), 1)); // evict set-b buffer
        c.access(&MemOp::write(b, 2)); // re-buffer set b
        let r = c.access(&MemOp::read(b.offset(16)));
        assert_eq!(r.value, 9);
        assert!(r.cost.buffer_hit);
    }

    #[test]
    fn paper_figure8_wg_walkthrough() {
        // Request stream (paper Figure 8, left-to-right in time):
        //   R_a, W_b, W_b, R_b, R_b, W_b, W_a(silent), R_a
        // Blocks are pre-warmed so no fills/evictions interfere; the
        // expected array-access counts follow §4.3's narrative.
        let a = set_a_addr();
        let b = set_b_addr();
        let mut c = wg();
        c.access(&MemOp::read(a));
        c.access(&MemOp::read(b));
        c.reset_counters();

        c.access(&MemOp::read(a)); // TB miss -> 1 array read
        c.access(&MemOp::write(b, 1)); // TB miss -> buffer fill (1 read)
        c.access(&MemOp::write(b.offset(8), 2)); // grouped, dirty set
        c.access(&MemOp::read(b)); // TB hit -> premature WB (1) + read (1)
        c.access(&MemOp::read(b)); // TB hit, clean -> read (1)
        c.access(&MemOp::write(b, 3)); // grouped, dirty set
        c.access(&MemOp::write(a, 0)); // TB miss -> WB b (1) + fill a (1); silent
        c.access(&MemOp::read(a)); // TB hit, clean -> read (1)

        let t = c.traffic();
        assert_eq!(t.demand_reads, 4);
        assert_eq!(t.buffer_fills, 2);
        assert_eq!(t.writebacks, 2);
        assert_eq!(t.premature_writebacks, 1);
        assert_eq!(t.grouped_writes, 2);
        assert_eq!(c.array_accesses(), 8);

        // RMW would have cost 4 reads + 4 writes x 2 = 12.
        // (checked in the cross-controller integration tests)
    }

    #[test]
    fn paper_figure8_wgrb_walkthrough() {
        let a = set_a_addr();
        let b = set_b_addr();
        let mut c = wgrb();
        c.access(&MemOp::read(a));
        c.access(&MemOp::read(b));
        c.reset_counters();

        c.access(&MemOp::read(a)); // 1 read
        c.access(&MemOp::write(b, 1)); // fill (1 read)
        c.access(&MemOp::write(b.offset(8), 2)); // grouped
        c.access(&MemOp::read(b)); // bypassed
        c.access(&MemOp::read(b)); // bypassed
        c.access(&MemOp::write(b, 3)); // grouped
        c.access(&MemOp::write(a, 0)); // WB b (1) + fill a (1)
        c.access(&MemOp::read(a)); // bypassed (paper: "eliminated")

        let t = c.traffic();
        assert_eq!(t.bypassed_reads, 3);
        assert_eq!(t.demand_reads, 1);
        assert_eq!(c.array_accesses(), 4);
    }

    #[test]
    fn miss_fill_into_buffered_set_drops_the_buffer() {
        // 2-way sets: buffer set 0 via writes to two blocks, then miss a
        // third block of set 0 -> the fill evicts a way, so the buffer must
        // be synchronized and dropped first.
        let g = geometry();
        let mut c = wg();
        let blk0 = Address::new(0x000); // set 0
        let blk1 = Address::new(0x080); // set 0
        let blk2 = Address::new(0x100); // set 0
        assert_eq!(g.set_index_of(blk0), g.set_index_of(blk2));
        c.access(&MemOp::write(blk0, 1));
        c.access(&MemOp::write(blk1, 2));
        assert_eq!(
            c.traffic().buffer_fills,
            2,
            "blk1 missed -> set changed -> refill"
        );
        c.access(&MemOp::read(blk2)); // miss, evicts LRU way
                                      // blk0's value must have reached the cache before the eviction.
        assert_eq!(c.peek_word(blk0), 1);
        assert_eq!(c.peek_word(blk1), 2);
        assert_eq!(c.peek_word(blk2), 0);
    }

    #[test]
    fn deeper_buffers_group_across_two_sets() {
        let mut c = WgController::with_options(
            geometry(),
            ReplacementKind::Lru,
            WgOptions {
                buffer_depth: 2,
                ..WgOptions::wg()
            },
        );
        let a = set_a_addr();
        let b = set_b_addr();
        c.access(&MemOp::write(a, 1));
        c.access(&MemOp::write(b, 2));
        // With depth 2 the write to b did not evict a's buffer.
        assert_eq!(c.traffic().writebacks, 0);
        c.access(&MemOp::write(a, 3)); // still buffered -> grouped
        c.access(&MemOp::write(b, 4)); // still buffered -> grouped
        assert_eq!(c.traffic().grouped_writes, 2);
    }

    #[test]
    fn flush_is_idempotent_and_completes_state() {
        let mut c = wg();
        let b = set_b_addr();
        c.access(&MemOp::write(b, 42));
        c.flush();
        let after_first = *c.traffic();
        c.flush();
        assert_eq!(*c.traffic(), after_first, "second flush is a no-op");
        assert_eq!(c.stats().write_misses, 1);
        assert_eq!(c.peek_word(b), 42);
    }

    #[test]
    fn wg_metrics_mirror_traffic_and_trace_groups() {
        use cache8t_obs::TraceLevel;
        let mut c = wg();
        c.obs_mut()
            .unwrap()
            .tracer_mut()
            .set_level(TraceLevel::Event);
        let a = set_a_addr();
        let b = set_b_addr();
        c.access(&MemOp::write(b, 1)); // fill b
        c.access(&MemOp::write(b.offset(8), 2)); // grouped
        c.access(&MemOp::write(a, 0)); // evicts b: dirty group of 2; fills a
        c.access(&MemOp::write(b, 1)); // evicts a: silent group of 1; rewrite of 1 is silent
        c.flush(); // closes b's silent group of 1

        let reg = c.obs().unwrap().registry();
        assert_eq!(reg.counter_by_name("wg.buffer_fills"), Some(3));
        assert_eq!(reg.counter_by_name("wg.grouped_writes"), Some(1));
        assert_eq!(reg.counter_by_name("wg.writebacks"), Some(1));
        assert_eq!(reg.counter_by_name("wg.silent_suppressed"), Some(2));
        assert_eq!(reg.counter_by_name("wg.groups"), Some(3));
        let len = reg.histogram_by_name("wg.group_len").unwrap();
        assert_eq!(len.count(), 3);
        assert_eq!(len.sum(), 4);
        // Two buffer evictions -> two residency observations.
        let res = reg.histogram_by_name("wg.buffer_residency").unwrap();
        assert_eq!(res.count(), 2);

        let events: Vec<_> = c.obs().unwrap().tracer().events().collect();
        let flushes = events
            .iter()
            .filter(|e| e.kind == EventKind::GroupFlush)
            .count();
        let elides = events
            .iter()
            .filter(|e| e.kind == EventKind::SilentElide)
            .count();
        let fills = events
            .iter()
            .filter(|e| e.kind == EventKind::BufferFill)
            .count();
        assert_eq!((flushes, elides, fills), (1, 2, 3));
    }

    #[test]
    fn buffer_views_expose_resident_state() {
        let mut c = wg();
        let b = set_b_addr();
        c.access(&MemOp::write(b, 5));
        c.access(&MemOp::write(b.offset(8), 6));
        {
            let views: Vec<_> = c.buffer_views().collect();
            assert_eq!(views.len(), 1);
            let s = &views[0];
            assert_eq!(s.set_index(), geometry().set_index_of(b));
            assert_eq!(s.ways(), 2);
            assert!(s.dirty(), "non-silent writes set the Dirty bit");
            assert_eq!(s.writes_since_sync(), 2, "merge after fill + grouped write");
            let way = s
                .tags()
                .iter()
                .position(|t| *t == Some(geometry().tag_of(b)))
                .expect("written tag buffered");
            assert!(s.is_modified(way));
            assert_eq!(s.way_data(way)[0], 5);
            assert_eq!(s.way_data(way)[1], 6);
        }
        c.flush();
        let s = c.buffer_views().next().expect("buffer still resident");
        assert!(!s.dirty(), "flush cleans the buffer");
    }

    #[test]
    fn occupancy_histogram_tracks_modified_ways() {
        let mut c = wg();
        assert_eq!(
            c.occupancy(0),
            Some(vec![0, 0, 0]),
            "2-way geometry: levels 0..=2, no buffer live yet"
        );
        let b = set_b_addr();
        c.access(&MemOp::write(b, 5)); // one modified way in the buffer
        assert_eq!(c.occupancy(0), Some(vec![0, 1, 0]));
        c.access(&MemOp::write(b.offset(0x80), 6)); // fills set b's other way
        c.access(&MemOp::write(b, 7)); // grouped: modifies the first way too
        assert_eq!(c.occupancy(0), Some(vec![0, 0, 1]), "both ways modified");
        c.flush(); // write-back folds modified into line dirty bits
        assert_eq!(c.occupancy(0), Some(vec![1, 0, 0]));
        let mut rb = wgrb();
        rb.access(&MemOp::write(b, 5));
        assert_eq!(rb.occupancy(0), Some(vec![0, 1, 0]));
    }

    #[test]
    fn evicted_buffers_are_recycled_without_reallocating() {
        let mut c = wg();
        c.access(&MemOp::write(set_b_addr(), 1));
        c.access(&MemOp::write(set_a_addr(), 2)); // evicts b's buffer
        let data_ptr = c.buffers[0].data.as_ptr();
        let cap = c.buffers[0].data.capacity();
        // Bounce between the two sets: each fill must reuse the retired
        // buffer's arena rather than allocating a fresh one.
        c.access(&MemOp::write(set_b_addr(), 3));
        c.access(&MemOp::write(set_a_addr(), 4));
        assert_eq!(c.buffers[0].data.capacity(), cap);
        assert!(
            std::ptr::eq(c.buffers[0].data.as_ptr(), data_ptr)
                || std::ptr::eq(c.free[0].data.as_ptr(), data_ptr),
            "the original arena is still in circulation"
        );
        assert_eq!(c.peek_word(set_b_addr()), 3);
        assert_eq!(c.peek_word(set_a_addr()), 4);
    }

    #[test]
    fn skip_dirty_fault_drops_written_data() {
        // The self-test fault must actually break transparency: a dirty
        // group is treated as silent, its write-back elided, and the
        // value lost when the buffer is evicted.
        let mut c = wg();
        c.inject_fault(Some(WgFault::SkipDirtyBit));
        let b = set_b_addr();
        c.access(&MemOp::write(b, 42));
        c.access(&MemOp::write(set_a_addr(), 7)); // evicts b's buffer
        assert_eq!(c.traffic().writebacks, 0, "write-back wrongly elided");
        assert_eq!(c.peek_word(b), 0, "the written value was dropped");
        // A healthy controller keeps it.
        let mut ok = wg();
        ok.access(&MemOp::write(b, 42));
        ok.access(&MemOp::write(set_a_addr(), 7));
        assert_eq!(ok.peek_word(b), 42);
    }

    #[test]
    fn names_reflect_options() {
        assert_eq!(wg().name(), "WG");
        assert_eq!(wgrb().name(), "WG+RB");
        let custom =
            WgController::with_options(geometry(), ReplacementKind::Lru, WgOptions::wg_rb());
        assert_eq!(custom.name(), "WG+RB");
    }

    #[test]
    #[should_panic(expected = "at least one Set-Buffer")]
    fn zero_depth_rejected() {
        let _ = WgController::with_options(
            geometry(),
            ReplacementKind::Lru,
            WgOptions {
                buffer_depth: 0,
                ..WgOptions::wg()
            },
        );
    }

    #[test]
    fn options_accessors() {
        assert!(WgOptions::wg_rb().read_bypass);
        assert!(!WgOptions::default().read_bypass);
        assert_eq!(wg().options(), WgOptions::wg());
        assert_eq!(wgrb().options(), WgOptions::wg_rb());
    }
}
