//! # cache8t-cpu — port-contention timing model
//!
//! The paper's §5.5 *argues* the performance effects of its techniques
//! without measuring them: RMW occupies the read port so writes block
//! concurrent reads; WG raises read-port availability by eliminating RMW
//! row reads; WG+RB additionally serves reads from the small Set-Buffer,
//! which is faster than an array access and is on the processor's critical
//! path. This crate quantifies those arguments with a deliberately simple
//! in-order timing model (an extension over the paper, reported as E1 in
//! `EXPERIMENTS.md`).
//!
//! ## Model
//!
//! The core retires one instruction per cycle, so memory requests arrive
//! paced by the trace's instruction density (a stream with 0.4 memory
//! operations per instruction presents one request every 2.5 cycles on
//! average). Gaps are geometrically distributed — memory operations
//! cluster, which is what exposes port contention: a load arriving one
//! cycle after an RMW store finds the read port held. Arrival times are
//! deterministic per trace (a fixed-seed internal generator), so runs are
//! reproducible. Each request's array cost (as reported by the controller's
//! [`AccessCost`]) is scheduled onto the 8T array's one read + one write
//! port ([`PortSet`]): row reads serialize on the
//! read port, row writes on the write port, and the writes of a request
//! start only after its reads (RMW ordering). A request served from the
//! Set-Buffer touches neither port and completes in
//! [`TimingConfig::buffer_cycles`].
//!
//! [`AccessCost`]: cache8t_core::AccessCost
//!
//! ## Example
//!
//! ```
//! use cache8t_core::{RmwController, WgController};
//! use cache8t_cpu::{PortTimingModel, TimingConfig};
//! use cache8t_sim::{CacheGeometry, ReplacementKind};
//! use cache8t_trace::{profiles, ProfiledGenerator, TraceGenerator};
//!
//! let g = CacheGeometry::paper_baseline();
//! let trace = ProfiledGenerator::new(
//!     profiles::by_name("bwaves").unwrap(), g, 7).collect(20_000);
//! let model = PortTimingModel::new(TimingConfig::default());
//!
//! let rmw = model.run(&mut RmwController::new(g, ReplacementKind::Lru), &trace);
//! let wgrb = model.run(&mut WgController::wg_rb(g, ReplacementKind::Lru), &trace);
//! assert!(wgrb.cycles < rmw.cycles, "WG+RB finishes the stream sooner");
//! assert!(wgrb.avg_read_latency() < rmw.avg_read_latency());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::fmt;

use serde::{Deserialize, Serialize};

use cache8t_core::Controller;
use cache8t_sram::{OpLatency, PortSet};
use cache8t_trace::Trace;

/// Cycle parameters of the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingConfig {
    /// Cycles one array row read holds the read port.
    pub array_read_cycles: u64,
    /// Cycles one array row write holds the write port.
    pub array_write_cycles: u64,
    /// Latency of a request served entirely from the Set-Buffer.
    pub buffer_cycles: u64,
    /// Number of independently ported sub-arrays (banks), selected by set
    /// index. `1` models the paper's baseline (a write-back occupies *the*
    /// read port); larger values model Park et al.'s hierarchical-RBL
    /// local RMW, where only the sub-array performing the write-back is
    /// unavailable (paper §2 related work).
    pub banks: usize,
}

impl TimingConfig {
    /// The default clocking: 2-cycle array operations (precharge + sense /
    /// drive + write), 1-cycle buffer access, a single monolithic array.
    pub const fn default_config() -> Self {
        TimingConfig {
            array_read_cycles: 2,
            array_write_cycles: 2,
            buffer_cycles: 1,
            banks: 1,
        }
    }

    /// The default clocking over `banks` independently ported sub-arrays.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`.
    pub fn banked(banks: usize) -> Self {
        assert!(banks >= 1, "at least one bank is required");
        TimingConfig {
            banks,
            ..TimingConfig::default_config()
        }
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig::default_config()
    }
}

/// What one run of the timing model observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Requests serviced.
    pub requests: u64,
    /// Reads among them.
    pub reads: u64,
    /// Completion cycle of the last request.
    pub cycles: u64,
    /// Cycles requests spent waiting for a busy read port.
    pub read_port_stalls: u64,
    /// Cycles requests spent waiting for a busy write port.
    pub write_port_stalls: u64,
    /// Requests served from the Set-Buffer (no port usage).
    pub buffer_served: u64,
    /// Sum of read latencies (completion − arrival), for averaging.
    pub total_read_latency: u64,
    /// Cycles the read port was held.
    pub read_port_busy: u64,
}

impl TimingReport {
    /// Mean latency of read requests in cycles (0.0 if there were none).
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.total_read_latency as f64 / self.reads as f64
        }
    }

    /// Fraction of cycles the read port was free — the paper's read-port
    /// availability (§4.1): higher is better for servicing loads.
    pub fn read_port_availability(&self) -> f64 {
        if self.cycles == 0 {
            1.0
        } else {
            1.0 - self.read_port_busy as f64 / self.cycles as f64
        }
    }

    /// Requests per cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.requests as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} requests in {} cycles (throughput {:.3}/cyc), avg read latency {:.2}, \
             read-port availability {:.3}, stalls r {} / w {}",
            self.requests,
            self.cycles,
            self.throughput(),
            self.avg_read_latency(),
            self.read_port_availability(),
            self.read_port_stalls,
            self.write_port_stalls,
        )
    }
}

/// The in-order, one-request-per-cycle port timing model.
///
/// See the [crate docs](crate) for the model description and an example.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortTimingModel {
    config: TimingConfig,
}

impl PortTimingModel {
    /// Creates a model with the given cycle parameters.
    pub fn new(config: TimingConfig) -> Self {
        PortTimingModel { config }
    }

    /// The cycle parameters.
    pub fn config(&self) -> TimingConfig {
        self.config
    }

    /// Drives `controller` through `trace`, scheduling every array
    /// operation onto the 1R+1W ports, and reports the timing outcome.
    ///
    /// The controller's functional and traffic state advance exactly as if
    /// it had been driven directly.
    pub fn run(&self, controller: &mut dyn Controller, trace: &Trace) -> TimingReport {
        let latency = OpLatency {
            read_cycles: self.config.array_read_cycles,
            write_cycles: self.config.array_write_cycles,
        };
        let banks = self.config.banks.max(1);
        let mut ports: Vec<PortSet> = (0..banks).map(|_| PortSet::new(latency)).collect();
        let geometry = controller.cache().geometry();
        let mut report = TimingReport::default();
        // One instruction retires per cycle; requests arrive at their
        // instruction's cycle. Gaps between consecutive memory operations
        // are geometric with the trace's mean instruction distance, from a
        // deterministic xorshift stream (bursty arrivals expose port
        // contention; fixed seed keeps runs reproducible).
        let instr_per_op = if trace.is_empty() {
            1.0
        } else {
            (trace.instructions() as f64 / trace.len() as f64).max(1.0)
        };
        let memop_prob = (1.0 / instr_per_op).min(1.0);
        let mut rng_state = 0x9E37_79B9_7F4A_7C15u64 ^ (trace.len() as u64);
        let mut next_u01 = move || {
            // xorshift64* — adequate for arrival jitter.
            rng_state ^= rng_state >> 12;
            rng_state ^= rng_state << 25;
            rng_state ^= rng_state >> 27;
            let bits = rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
            (bits as f64 / (1u64 << 53) as f64).clamp(f64::MIN_POSITIVE, 1.0 - 1e-16)
        };
        let mut arrival = 0u64;

        for op in trace {
            let response = controller.access(op);
            report.requests += 1;
            if op.is_read() {
                report.reads += 1;
            }

            let bank = (geometry.set_index_of(op.addr) % banks as u64) as usize;
            let completion = if response.cost.buffer_hit {
                report.buffer_served += 1;
                arrival + self.config.buffer_cycles
            } else {
                let ports = &mut ports[bank];
                // Reads serialize on the bank's read port...
                let mut read_done = arrival;
                for _ in 0..response.cost.row_reads {
                    let start = read_done.max(ports.read_free_at());
                    report.read_port_stalls += start - read_done;
                    read_done = ports.issue_read(start).expect("issued at free time");
                }
                // ...then writes on the bank's write port (RMW ordering:
                // the row write follows the row read).
                let mut write_done = read_done;
                for _ in 0..response.cost.row_writes {
                    let start = write_done.max(ports.write_free_at());
                    report.write_port_stalls += start - write_done;
                    write_done = ports.issue_write(start).expect("issued at free time");
                }
                write_done.max(arrival + 1)
            };

            if op.is_read() {
                report.total_read_latency += completion - arrival;
            }
            report.cycles = report.cycles.max(completion);

            // Geometric gap (>= 1 instruction) to the next memory op.
            let gap = if memop_prob >= 1.0 {
                1
            } else {
                1 + (next_u01().ln() / (1.0 - memop_prob).ln()).floor() as u64
            };
            arrival += gap;
        }
        // Availability is reported over the most-loaded bank (the paper's
        // single-array case has exactly one).
        report.read_port_busy = ports
            .iter()
            .map(PortSet::read_busy_cycles)
            .max()
            .unwrap_or(0);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache8t_core::{RmwController, WgController};
    use cache8t_sim::{Address, CacheGeometry, ReplacementKind};
    use cache8t_trace::{MemOp, ProfiledGenerator, TraceGenerator};

    fn geometry() -> CacheGeometry {
        CacheGeometry::new(4096, 4, 32).unwrap()
    }

    fn mixed_trace(n: u64) -> Trace {
        let mut gen = ProfiledGenerator::new(
            cache8t_trace::profiles::by_name("bwaves").unwrap(),
            CacheGeometry::paper_baseline(),
            13,
        );
        gen.collect(n as usize)
    }

    #[test]
    fn single_read_takes_array_latency() {
        let model = PortTimingModel::new(TimingConfig::default());
        let mut c = RmwController::new(geometry(), ReplacementKind::Lru);
        let trace = Trace::new(vec![MemOp::read(Address::new(0x40))], 1);
        let report = model.run(&mut c, &trace);
        assert_eq!(report.cycles, 2);
        assert_eq!(report.reads, 1);
        assert!((report.avg_read_latency() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rmw_write_blocks_following_read() {
        let model = PortTimingModel::new(TimingConfig::default());
        let mut c = RmwController::new(geometry(), ReplacementKind::Lru);
        let a = Address::new(0x40);
        // Write at cycle 0 holds the read port until cycle 2; the read
        // arriving at cycle 1 must stall one cycle.
        let trace = Trace::new(vec![MemOp::write(a, 1), MemOp::read(a.offset(64))], 2);
        let report = model.run(&mut c, &trace);
        assert_eq!(report.read_port_stalls, 1);
        assert!(report.avg_read_latency() > 2.0);
    }

    #[test]
    fn conventional_write_does_not_block_read_port() {
        let model = PortTimingModel::new(TimingConfig::default());
        let mut c = RmwController::conventional(geometry(), ReplacementKind::Lru);
        let a = Address::new(0x40);
        let trace = Trace::new(vec![MemOp::write(a, 1), MemOp::read(a.offset(64))], 2);
        let report = model.run(&mut c, &trace);
        assert_eq!(report.read_port_stalls, 0);
    }

    #[test]
    fn buffer_hits_take_one_cycle() {
        let model = PortTimingModel::new(TimingConfig::default());
        let mut c = WgController::wg_rb(geometry(), ReplacementKind::Lru);
        let a = Address::new(0x40);
        let trace = Trace::new(
            vec![MemOp::write(a, 1), MemOp::read(a), MemOp::write(a, 2)],
            3,
        );
        let report = model.run(&mut c, &trace);
        assert_eq!(report.buffer_served, 2, "bypassed read + grouped write");
    }

    #[test]
    fn scheme_ordering_on_a_write_heavy_stream() {
        let model = PortTimingModel::new(TimingConfig::default());
        let trace = mixed_trace(20_000);
        let g = CacheGeometry::paper_baseline();
        let rmw = model.run(&mut RmwController::new(g, ReplacementKind::Lru), &trace);
        let wg = model.run(&mut WgController::new(g, ReplacementKind::Lru), &trace);
        let wgrb = model.run(&mut WgController::wg_rb(g, ReplacementKind::Lru), &trace);
        // Arrivals pace the run identically, so total cycles barely move;
        // the paper's §5.5 effects show up in latency and port pressure.
        assert!(wgrb.avg_read_latency() < rmw.avg_read_latency());
        assert!(wgrb.read_port_stalls < rmw.read_port_stalls);
        // Paper §4.1: WG and WG+RB increase read-port availability.
        assert!(wg.read_port_availability() > rmw.read_port_availability());
        assert!(wgrb.read_port_availability() > wg.read_port_availability());
        // Paper §5.5: WG's performance cost is negligible (within 5 % of
        // RMW's total runtime), WG+RB does not run longer than RMW.
        assert!((wg.cycles as f64) < rmw.cycles as f64 * 1.05);
        assert!(wgrb.cycles <= rmw.cycles);
    }

    #[test]
    fn report_helpers_on_empty_run() {
        let r = TimingReport::default();
        assert_eq!(r.avg_read_latency(), 0.0);
        assert_eq!(r.read_port_availability(), 1.0);
        assert_eq!(r.throughput(), 0.0);
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn config_accessors() {
        let m = PortTimingModel::new(TimingConfig {
            array_read_cycles: 3,
            array_write_cycles: 4,
            buffer_cycles: 1,
            banks: 1,
        });
        assert_eq!(m.config().array_read_cycles, 3);
        assert_eq!(TimingConfig::default(), TimingConfig::default_config());
        assert_eq!(TimingConfig::banked(8).banks, 8);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = TimingConfig::banked(0);
    }

    #[test]
    fn banking_relieves_rmw_port_pressure() {
        // Park et al. (paper §2): performing the RMW locally in a sub-array
        // leaves the other sub-arrays available. With banked ports the same
        // RMW stream stalls loads less.
        let trace = mixed_trace(20_000);
        let g = CacheGeometry::paper_baseline();
        let mono = PortTimingModel::new(TimingConfig::default())
            .run(&mut RmwController::new(g, ReplacementKind::Lru), &trace);
        let banked = PortTimingModel::new(TimingConfig::banked(8))
            .run(&mut RmwController::new(g, ReplacementKind::Lru), &trace);
        assert!(banked.read_port_stalls < mono.read_port_stalls);
        assert!(banked.avg_read_latency() <= mono.avg_read_latency());
    }
}
