//! The per-scheme observability bundle.
//!
//! Every [`Ledger`](crate::Ledger) owns one [`StackObs`]: a metric
//! registry, an event tracer, and the request tick that stamps events.
//! Controllers register their scheme-specific metrics against it at
//! construction time and emit events through it on structural
//! transitions (buffer fills, group flushes, RMW sequences, …); the
//! ledger itself accounts line fills and evictions.
//!
//! Counts the ledger keeps as plain fields are published into the
//! registry at settle; only counts with no ledger field are incremented
//! here, on cold paths. Event recording is gated by [`TraceLevel`] (the
//! `CACHE8T_TRACE`
//! environment variable), so a disabled tracer costs one enum compare
//! per emission site.

use cache8t_obs::{
    Component, CounterId, EventKind, HistogramId, MetricRegistry, TraceEvent, TraceLevel, Tracer,
};

/// Number of coarse set-index buckets the conflict-heat counters
/// (`series.set_heat.NN`) partition the set space into.
pub const SET_HEAT_BUCKETS: usize = 16;

/// Metric registry + tracer + tick for one controller stack.
#[derive(Debug)]
pub struct StackObs {
    registry: MetricRegistry,
    tracer: Tracer,
    tick: u64,
    pub(crate) m_evictions: CounterId,
    pub(crate) m_dirty_evictions: CounterId,
    pub(crate) m_set_heat: [CounterId; SET_HEAT_BUCKETS],
}

impl StackObs {
    /// Creates a bundle with the tracer at an explicit level.
    pub fn with_level(level: TraceLevel) -> Self {
        let mut registry = MetricRegistry::new();
        let m_evictions = registry.counter("cache.evictions");
        let m_dirty_evictions = registry.counter("cache.dirty_evictions");
        let m_set_heat =
            std::array::from_fn(|bucket| registry.counter(&format!("series.set_heat.{bucket:02}")));
        StackObs {
            registry,
            tracer: Tracer::new(level, cache8t_obs::trace::DEFAULT_RING_CAPACITY),
            tick: 0,
            m_evictions,
            m_dirty_evictions,
            m_set_heat,
        }
    }

    /// Creates a bundle at the `CACHE8T_TRACE` level.
    pub fn from_env() -> Self {
        StackObs::with_level(TraceLevel::from_env())
    }

    /// The current request tick (number of serviced requests).
    #[inline]
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advances the request tick; called once per serviced request.
    #[inline]
    pub(crate) fn advance_tick(&mut self) {
        self.tick += 1;
    }

    /// The metric registry.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// Mutable access to the registry (for controllers registering
    /// scheme-specific metrics).
    pub fn registry_mut(&mut self) -> &mut MetricRegistry {
        &mut self.registry
    }

    /// The event tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the tracer.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.registry.inc(id);
    }

    /// Records one line fill landing in set-heat `bucket` (a
    /// [`CacheGeometry::heat_bucket_of`] result) — the windowed
    /// set-conflict-heat counters the series sampler diffs.
    ///
    /// [`CacheGeometry::heat_bucket_of`]:
    /// cache8t_sim::CacheGeometry::heat_bucket_of
    #[inline]
    pub(crate) fn record_set_heat(&mut self, bucket: usize) {
        let id = self.m_set_heat[bucket];
        self.registry.inc(id);
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        self.registry.observe(id, value);
    }

    /// Emits a structural event stamped with the current tick.
    #[inline]
    pub fn emit(&mut self, component: Component, kind: EventKind, addr: u64, detail: u64) {
        self.tracer
            .emit(TraceEvent::new(self.tick, component, kind, addr, detail));
    }

    /// Emits a verbose (per-access) event stamped with the current tick.
    #[inline]
    pub fn emit_verbose(&mut self, component: Component, kind: EventKind, addr: u64, detail: u64) {
        self.tracer
            .emit_verbose(TraceEvent::new(self.tick, component, kind, addr, detail));
    }

    /// Copies the common counters (evictions and set heat) plus
    /// `histograms` from `primary`, a bundle with the same registrations.
    pub(crate) fn mirror(&mut self, primary: &StackObs, histograms: &[HistogramId]) {
        let common = [self.m_evictions, self.m_dirty_evictions];
        let registry = &mut self.registry;
        registry.copy_from(&primary.registry, &common, histograms);
        registry.copy_from(&primary.registry, &self.m_set_heat, &[]);
    }

    /// Resets metric values, recorded events, and the tick, keeping
    /// registrations (and handles) valid. Called by
    /// [`Controller::reset_counters`](crate::Controller::reset_counters)
    /// so the snapshot covers only the measured phase.
    pub fn reset(&mut self) {
        self.registry.reset();
        self.tracer.clear();
        self.tick = 0;
    }
}

impl Default for StackObs {
    fn default() -> Self {
        StackObs::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_metrics_are_preregistered() {
        let ledger = crate::Ledger::new("test");
        let obs = ledger.obs();
        for name in [
            "ctrl.reads",
            "ctrl.writes",
            "cache.line_fills",
            "cache.evictions",
            "cache.dirty_evictions",
        ] {
            assert_eq!(obs.registry().counter_by_name(name), Some(0), "{name}");
        }
    }

    #[test]
    fn reset_clears_values_and_tick() {
        let mut obs = StackObs::with_level(TraceLevel::Event);
        let id = obs.m_evictions;
        obs.inc(id);
        obs.advance_tick();
        obs.emit(Component::Cache, EventKind::LineFill, 0x40, 4);
        assert_eq!(obs.tracer().len(), 1);
        obs.reset();
        assert_eq!(obs.registry().counter_by_name("cache.evictions"), Some(0));
        assert_eq!(obs.tick(), 0);
        assert!(obs.tracer().is_empty());
        obs.inc(id); // handle still valid after reset
        assert_eq!(obs.registry().counter_by_name("cache.evictions"), Some(1));
    }

    #[test]
    fn set_heat_buckets_are_preregistered_and_count() {
        let mut obs = StackObs::with_level(TraceLevel::Off);
        assert_eq!(
            obs.registry().counter_by_name("series.set_heat.00"),
            Some(0)
        );
        assert_eq!(
            obs.registry().counter_by_name("series.set_heat.15"),
            Some(0)
        );
        obs.record_set_heat(0);
        obs.record_set_heat(0);
        obs.record_set_heat(15);
        assert_eq!(
            obs.registry().counter_by_name("series.set_heat.00"),
            Some(2)
        );
        assert_eq!(
            obs.registry().counter_by_name("series.set_heat.15"),
            Some(1)
        );
    }

    #[test]
    fn off_level_suppresses_events_but_not_metrics() {
        let mut obs = StackObs::with_level(TraceLevel::Off);
        let id = obs.m_dirty_evictions;
        obs.inc(id);
        obs.emit(Component::Wg, EventKind::GroupFlush, 3, 2);
        assert!(obs.tracer().is_empty());
        assert_eq!(
            obs.registry().counter_by_name("cache.dirty_evictions"),
            Some(1)
        );
    }
}
