//! The 6T/RMW family controller.

use std::fmt;

use cache8t_obs::{Component, CounterId, EventKind, HistogramId};
use cache8t_sim::{Address, CacheGeometry, DataCache, MainMemory, ReplacementKind};
use cache8t_trace::{DecodedBatch, DecodedOp, MemOp};

use crate::controller::{AccessCost, AccessResponse, CacheBackend, Controller, ResidencyOutcome};
use crate::obs::StackObs;
use crate::Ledger;

/// The 8T baseline: every write is a read-modify-write (paper §2).
///
/// Bit interleaving makes a partial-row write unsafe on 8T cells, so Morita
/// et al.'s RMW reads the addressed row into latches, merges the stored
/// word, and writes the whole row back. Functionally this controller is
/// identical to the 6T [`conventional`](RmwController::conventional)
/// controller; it differs only in cost: each
/// store performs **two** row activations (one read + one write) and
/// occupies the read port, which is exactly the inefficiency the paper's
/// WG/WG+RB techniques attack.
///
/// Because the two schemes differ only in cost, this is also the 6T/RMW
/// *family* controller: one functional cache under `N` ledgers, each
/// accounting either scheme. [`RmwController::new`] keeps one RMW ledger,
/// [`RmwController::conventional`] one 6T ledger, and
/// [`RmwController::family`] both, so a single replay yields the 6T and
/// RMW results together.
///
/// # Example
///
/// ```
/// use cache8t_core::{Controller, RmwController};
/// use cache8t_sim::{Address, CacheGeometry, ReplacementKind};
/// use cache8t_trace::MemOp;
///
/// let mut c = RmwController::new(CacheGeometry::paper_baseline(), ReplacementKind::Lru);
/// c.access(&MemOp::write(Address::new(0x40), 7));
/// assert_eq!(c.array_accesses(), 2); // row read + row write
/// assert_eq!(c.traffic().rmw_ops, 1);
/// ```
pub struct RmwController<const N: usize = 1> {
    backend: CacheBackend,
    ledgers: [ArrayLedger; N],
}

/// One 6T or RMW ledger of the family.
#[derive(Debug)]
pub(crate) struct ArrayLedger {
    ledger: Ledger,
    /// RMW write-burst tracking; `None` on the 6T ledger, whose store is
    /// a single partial-row write.
    rmw: Option<RmwBurst>,
}

/// The in-flight run of consecutive same-row RMW writes, and the
/// RMW-specific metric handles.
#[derive(Debug)]
struct RmwBurst {
    metrics: RmwMetrics,
    /// Row (set index) of the in-flight write burst, if any.
    row: Option<u64>,
    /// Consecutive same-row RMW writes in the in-flight burst.
    len: u64,
    /// Address of the burst's first write (stamped on the burst event).
    addr: u64,
}

/// Handles of the RMW-specific metrics.
#[derive(Debug, Clone, Copy)]
struct RmwMetrics {
    /// `rmw.sequences` — bursts of consecutive same-row RMW writes.
    sequences: CounterId,
    /// `rmw.ops` — individual RMW operations (one per write).
    ops: CounterId,
    /// `rmw.read_phases` — overhead row reads (the paper's complaint).
    read_phases: CounterId,
    /// `rmw.burst` — burst-size distribution: how many consecutive
    /// writes hit the same row (exactly the runs WG would group).
    burst: HistogramId,
}

impl RmwMetrics {
    fn register(obs: &mut StackObs) -> Self {
        let r = obs.registry_mut();
        RmwMetrics {
            sequences: r.counter("rmw.sequences"),
            ops: r.counter("rmw.ops"),
            read_phases: r.counter("rmw.read_phases"),
            burst: r.histogram("rmw.burst"),
        }
    }
}

impl RmwBurst {
    /// Closes the in-flight write burst: one `rmw.sequences` count, one
    /// `rmw.burst` observation, one `RmwSequence` event.
    fn close(&mut self, obs: &mut StackObs) {
        if self.len == 0 {
            return;
        }
        obs.inc(self.metrics.sequences);
        obs.observe(self.metrics.burst, self.len);
        obs.emit(Component::Rmw, EventKind::RmwSequence, self.addr, self.len);
        self.row = None;
        self.len = 0;
    }

    /// Accounts one RMW write to `row`, closing the burst it breaks.
    fn write(&mut self, row: u64, addr: u64, obs: &mut StackObs) {
        if self.row != Some(row) {
            self.close(obs);
            self.row = Some(row);
            self.addr = addr;
        }
        self.len += 1;
        obs.inc(self.metrics.ops);
        obs.inc(self.metrics.read_phases);
    }
}

impl ArrayLedger {
    /// A 6T ledger: one array access per request.
    pub(crate) fn six_t() -> Self {
        ArrayLedger {
            ledger: Ledger::new("6T"),
            rmw: None,
        }
    }

    /// An RMW ledger: a row read plus a row write per store.
    fn rmw() -> Self {
        let mut ledger = Ledger::new("RMW");
        let metrics = RmwMetrics::register(&mut ledger.obs);
        ArrayLedger {
            ledger,
            rmw: Some(RmwBurst {
                metrics,
                row: None,
                len: 0,
                addr: 0,
            }),
        }
    }

    /// Accounts one serviced request. `silent` is meaningful for writes
    /// only; the `primary` ledger also counts what the family shares.
    /// Returns the request's array cost under this scheme.
    #[inline]
    fn account(
        &mut self,
        d: &DecodedOp,
        residency: &ResidencyOutcome,
        silent: bool,
        primary: bool,
    ) -> AccessCost {
        let ledger = &mut self.ledger;
        ledger.record_residency(residency, primary);
        if d.is_read() {
            // A read breaks the run of consecutive same-row writes.
            if let Some(burst) = &mut self.rmw {
                burst.close(&mut ledger.obs);
            }
            ledger.record_read(residency.hit, primary);
            if primary {
                ledger.traffic.demand_reads += 1;
            }
            return AccessCost {
                row_reads: 1,
                row_writes: 0,
                buffer_hit: false,
            };
        }
        if let Some(burst) = &mut self.rmw {
            burst.write(d.set, d.addr.raw(), &mut ledger.obs);
        }
        ledger.record_write(residency.hit, silent, primary);
        if primary {
            ledger.traffic.demand_writes += 1;
        }
        let rmw = self.rmw.is_some();
        if rmw {
            // RMW: read row into the write-back latches (extra read),
            // then write the merged row.
            ledger.traffic.rmw_read_phases += 1;
            ledger.traffic.rmw_ops += 1;
        }
        AccessCost {
            row_reads: u32::from(rmw),
            row_writes: 1,
            buffer_hit: false,
        }
    }
}

impl RmwController {
    /// Creates an empty RMW controller.
    pub fn new(geometry: CacheGeometry, replacement: ReplacementKind) -> Self {
        RmwController::from_backend(CacheBackend::new(geometry, replacement))
    }

    /// Creates a controller over an existing backend (e.g. one built with
    /// [`CacheBackend::with_l2`]).
    pub fn from_backend(backend: CacheBackend) -> Self {
        RmwController::with_ledgers(backend, [ArrayLedger::rmw()])
    }
}

impl RmwController<2> {
    /// The 6T/RMW family: ledgers `[6T, RMW]` over one functional cache.
    pub fn family(geometry: CacheGeometry, replacement: ReplacementKind) -> Self {
        RmwController::with_ledgers(
            CacheBackend::new(geometry, replacement),
            [ArrayLedger::six_t(), ArrayLedger::rmw()],
        )
    }
}

impl<const N: usize> RmwController<N> {
    pub(crate) fn with_ledgers(backend: CacheBackend, ledgers: [ArrayLedger; N]) -> Self {
        RmwController { backend, ledgers }
    }

    /// Services one request with its address decomposition precomputed —
    /// shared by the per-op and batched paths: the functional step once,
    /// then every ledger's accounting.
    #[inline]
    fn access_decoded(&mut self, d: DecodedOp) -> AccessResponse {
        let probed = self.backend.cache().find_in_set(d.set, d.tag);
        let residency = self.backend.ensure_resident_probed(d.addr, probed);
        let cache = self.backend.cache_mut();
        let (value, silent) = if d.is_read() {
            (cache.read_word_at(d.set, residency.way, d.word), false)
        } else {
            let effect = cache.write_word_at(d.set, residency.way, d.word, d.value);
            (d.value, effect.was_silent)
        };
        let mut cost = AccessCost::default();
        for (i, ledger) in self.ledgers.iter_mut().enumerate() {
            let c = ledger.account(&d, &residency, silent, i == 0);
            if i == 0 {
                cost = c;
            }
        }
        AccessResponse {
            value,
            hit: residency.hit,
            cost,
        }
    }
}

impl<const N: usize> Controller for RmwController<N> {
    fn access(&mut self, op: &MemOp) -> AccessResponse {
        let g = self.backend.cache().geometry();
        self.access_decoded(DecodedOp::from_op(op, &g))
    }

    fn access_batch(&mut self, batch: &DecodedBatch, range: std::ops::Range<usize>) {
        assert_eq!(
            batch.geometry(),
            self.backend.cache().geometry(),
            "batch decoded against a different geometry"
        );
        for d in batch.run(range) {
            self.access_decoded(d);
        }
    }

    fn flush(&mut self) {
        // No buffered data, but an in-flight burst observation to settle.
        for l in &mut self.ledgers {
            if let Some(burst) = &mut l.rmw {
                burst.close(&mut l.ledger.obs);
            }
        }
        self.settle();
    }

    fn settle(&mut self) {
        // 6T and RMW count demand reads and writes alike; only RMW's
        // read phases and bursts are its own.
        let (primary, members) = self.ledgers.split_at_mut(1);
        let primary = &primary[0].ledger;
        for l in members {
            l.ledger.mirror(primary, &[], &[]);
            l.ledger.traffic.demand_reads = primary.traffic.demand_reads;
            l.ledger.traffic.demand_writes = primary.traffic.demand_writes;
        }
    }

    fn reset_counters(&mut self) {
        for l in &mut self.ledgers {
            l.ledger.reset();
            if let Some(burst) = &mut l.rmw {
                burst.row = None;
                burst.len = 0;
            }
        }
        self.backend.reset_stats();
    }

    fn cache(&self) -> &DataCache {
        self.backend.cache()
    }

    fn memory(&self) -> &MainMemory {
        self.backend.memory()
    }

    fn peek_word(&self, addr: Address) -> u64 {
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
            _ => "6T/RMW",
        }
    }
}

impl<const N: usize> fmt::Debug for RmwController<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RmwController")
            .field("ledgers", &self.ledgers)
            .field("backend", &self.backend)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> CacheGeometry {
        CacheGeometry::new(1024, 2, 32).unwrap()
    }

    #[test]
    fn writes_cost_two_activations() {
        let mut c = RmwController::new(geometry(), ReplacementKind::Lru);
        let r = c.access(&MemOp::write(Address::new(0x40), 1));
        assert_eq!(r.cost.total(), 2);
        assert_eq!(c.array_accesses(), 2);
        assert_eq!(c.traffic().rmw_read_phases, 1);
        assert_eq!(c.traffic().rmw_ops, 1);
    }

    #[test]
    fn reads_cost_one_activation() {
        let mut c = RmwController::new(geometry(), ReplacementKind::Lru);
        let r = c.access(&MemOp::read(Address::new(0x40)));
        assert_eq!(r.cost.total(), 1);
        assert_eq!(c.array_accesses(), 1);
    }

    #[test]
    fn traffic_increase_over_conventional_matches_write_share() {
        // A stream of 65% reads / 35% writes should cost RMW ~35% more
        // activations than the conventional controller (paper motivation).
        let mut rmw = RmwController::new(geometry(), ReplacementKind::Lru);
        let mut conv = RmwController::conventional(geometry(), ReplacementKind::Lru);
        let mut value = 0u64;
        for i in 0..1000u64 {
            let addr = Address::new((i % 32) * 8);
            let op = if i % 20 < 13 {
                MemOp::read(addr)
            } else {
                value += 1;
                MemOp::write(addr, value)
            };
            rmw.access(&op);
            conv.access(&op);
        }
        let increase = rmw.array_accesses() as f64 / conv.array_accesses() as f64 - 1.0;
        assert!((increase - 0.35).abs() < 0.01, "increase {increase}");
    }

    #[test]
    fn functionally_identical_to_conventional() {
        let mut rmw = RmwController::new(geometry(), ReplacementKind::Lru);
        let mut conv = RmwController::conventional(geometry(), ReplacementKind::Lru);
        for i in 0..500u64 {
            let addr = Address::new((i * 40) % 4096);
            let op = if i % 3 == 0 {
                MemOp::write(addr, i)
            } else {
                MemOp::read(addr)
            };
            let a = rmw.access(&op);
            let b = conv.access(&op);
            assert_eq!(a.value, b.value, "op {i}");
            assert_eq!(a.hit, b.hit, "op {i}");
        }
        assert_eq!(rmw.cache().stats(), conv.cache().stats());
    }

    #[test]
    fn burst_metrics_track_same_row_write_runs() {
        let mut c = RmwController::new(geometry(), ReplacementKind::Lru);
        let a = Address::new(0x40);
        // Three writes to one row, a read, then one write to another row.
        c.access(&MemOp::write(a, 1));
        c.access(&MemOp::write(a.offset(8), 2));
        c.access(&MemOp::write(a.offset(16), 3));
        c.access(&MemOp::read(a)); // closes the 3-write burst
        c.access(&MemOp::write(Address::new(0x4000), 4));
        c.flush(); // closes the 1-write burst
        let reg = c.obs().unwrap().registry();
        assert_eq!(reg.counter_by_name("rmw.ops"), Some(4));
        assert_eq!(reg.counter_by_name("rmw.read_phases"), Some(4));
        assert_eq!(reg.counter_by_name("rmw.sequences"), Some(2));
        let hist = reg.histogram_by_name("rmw.burst").unwrap();
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.sum(), 4);
        assert_eq!(hist.max(), Some(3));
    }

    #[test]
    fn name_and_flush() {
        let mut c = RmwController::new(geometry(), ReplacementKind::Lru);
        assert_eq!(c.name(), "RMW");
        c.flush();
        assert_eq!(c.array_accesses(), 0);
    }
}
