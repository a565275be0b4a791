//! Per-scheme accounting, kept apart from the functional core it observes.

use cache8t_obs::{Component, CounterId, EventKind, HistogramId};
use cache8t_sim::CacheStats;

use crate::controller::{FillRecord, ResidencyOutcome};
use crate::obs::StackObs;
use crate::{ArrayTraffic, CountingPolicy};

/// A registry counter's source: the ledger field it publishes.
type Field = fn(&Ledger) -> u64;

/// One scheme's accounting over a functional replay: its array-traffic
/// ledger, its request-level statistics, and its metric registry and
/// event tracer.
///
/// A controller is one functional core (cache, memory, write buffers)
/// plus an ordered list of ledgers. A standalone scheme keeps one. A
/// *family* keeps one per member scheme whose hits, misses, replacement
/// decisions and values are identical to the others' — 6T and RMW, or WG
/// and WG+RB — so one replay yields every member's result.
///
/// The ledger is the only place an access is counted: a registry
/// counter that repeats one of its fields (`ctrl.reads`, `rmw.ops`, …)
/// is *published* from that field when the controller settles, so the
/// per-access path does no registry work.
///
/// What the members of a family count identically is counted once, by
/// the *primary* ledger 0. The other members record only their own
/// counts, their tick and their events, and copy the shared counts from
/// the primary when the controller settles (see
/// [`Controller::settle`](crate::Controller::settle)).
#[derive(Debug)]
pub struct Ledger {
    name: &'static str,
    pub(crate) traffic: ArrayTraffic,
    pub(crate) requests: CacheStats,
    pub(crate) obs: StackObs,
    /// The registry counters published from the fields above.
    published: Vec<(CounterId, Field)>,
}

impl Ledger {
    /// An empty ledger for the scheme called `name`, tracing at the
    /// `CACHE8T_TRACE` level.
    pub(crate) fn new(name: &'static str) -> Self {
        let mut ledger = Ledger {
            name,
            traffic: ArrayTraffic::new(),
            requests: CacheStats::new(),
            obs: StackObs::from_env(),
            published: Vec::new(),
        };
        ledger.publish_as("ctrl.reads", |l| l.requests.reads());
        ledger.publish_as("ctrl.writes", |l| l.requests.writes());
        ledger.publish_as("cache.line_fills", |l| l.traffic.line_fills);
        ledger
    }

    /// Registers the counter called `name` as the published value of
    /// `field`.
    pub(crate) fn publish_as(&mut self, name: &str, field: Field) {
        let id = self.obs.registry_mut().counter(name);
        self.published.push((id, field));
    }

    /// Copies every published field into its registry counter.
    pub(crate) fn publish(&mut self) {
        for &(id, field) in &self.published {
            let value = field(self);
            self.obs.registry_mut().set_counter(id, value);
        }
    }

    /// Short scheme name for reports (e.g. `"RMW"`, `"WG+RB"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The traffic ledger.
    pub fn traffic(&self) -> &ArrayTraffic {
        &self.traffic
    }

    /// Request-level hit/miss statistics (one entry per CPU request,
    /// however the scheme serviced it).
    pub fn stats(&self) -> &CacheStats {
        &self.requests
    }

    /// Array activations so far under the paper's counting.
    pub fn array_accesses(&self) -> u64 {
        self.traffic.total(CountingPolicy::DemandOnly)
    }

    /// The metric registry and event tracer. Published counters are
    /// current once the controller has settled.
    pub fn obs(&self) -> &StackObs {
        &self.obs
    }

    /// Mutable access to the metric registry and event tracer.
    pub fn obs_mut(&mut self) -> &mut StackObs {
        &mut self.obs
    }

    /// Accounts what [`CacheBackend::ensure_resident_probed`] did: a line
    /// fill and its victim, if any. A hit costs nothing here. Only the
    /// `primary` ledger counts; every ledger records the events.
    ///
    /// [`CacheBackend::ensure_resident_probed`]:
    /// crate::CacheBackend::ensure_resident_probed
    #[inline]
    pub(crate) fn record_residency(&mut self, residency: &ResidencyOutcome, primary: bool) {
        if let Some(fill) = residency.fill {
            self.record_fill(fill, residency.dirty_eviction, primary);
        }
    }

    #[cold]
    fn record_fill(&mut self, fill: FillRecord, dirty_eviction: bool, primary: bool) {
        let obs = &mut self.obs;
        if primary {
            self.traffic.line_fills += 1;
            obs.record_set_heat(fill.heat_bucket);
            if dirty_eviction {
                self.traffic.eviction_writebacks += 1;
                obs.inc(obs.m_dirty_evictions);
            }
            if fill.victim.is_some() {
                obs.inc(obs.m_evictions);
            }
        }
        obs.emit(
            Component::Cache,
            EventKind::LineFill,
            fill.base.raw(),
            fill.words,
        );
        if let Some(victim) = fill.victim {
            obs.emit(
                Component::Cache,
                EventKind::Eviction,
                victim.raw(),
                u64::from(dirty_eviction),
            );
        }
    }

    /// Records a serviced read request (counted by the `primary` ledger
    /// only).
    #[inline]
    pub(crate) fn record_read(&mut self, hit: bool, primary: bool) {
        if primary {
            if hit {
                self.requests.read_hits += 1;
            } else {
                self.requests.read_misses += 1;
            }
        }
        self.obs
            .emit_verbose(Component::Cache, EventKind::Access, 0, 0);
        self.obs.advance_tick();
    }

    /// Records a serviced write request (counted by the `primary` ledger
    /// only).
    #[inline]
    pub(crate) fn record_write(&mut self, hit: bool, silent: bool, primary: bool) {
        if primary {
            if hit {
                self.requests.write_hits += 1;
            } else {
                self.requests.write_misses += 1;
            }
            if silent {
                self.requests.silent_word_writes += 1;
            }
        }
        self.obs
            .emit_verbose(Component::Cache, EventKind::Access, 0, 1);
        self.obs.advance_tick();
    }

    /// Copies the counts this ledger shares with `primary`: the request
    /// statistics, line fills and dirty evictions, the eviction and
    /// set-heat counters, plus the family-specific `histograms`.
    pub(crate) fn mirror(&mut self, primary: &Ledger, histograms: &[HistogramId]) {
        self.requests = primary.requests;
        self.traffic.line_fills = primary.traffic.line_fills;
        self.traffic.eviction_writebacks = primary.traffic.eviction_writebacks;
        self.obs.mirror(&primary.obs, histograms);
    }

    /// Zeroes the traffic, the request statistics and the observability
    /// bundle (metric values, events, tick), keeping registrations.
    pub(crate) fn reset(&mut self) {
        self.traffic = ArrayTraffic::new();
        self.requests = CacheStats::new();
        self.obs.reset();
    }
}
