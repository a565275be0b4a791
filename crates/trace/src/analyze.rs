//! Trace analysis: measures the paper's motivation statistics (Figures
//! 3–5) from any request stream.

use std::fmt;

use serde::{Deserialize, Serialize};

use cache8t_sim::{CacheGeometry, FastMap, FastSet};

use crate::{MemOp, Trace};

/// The measured breakdown of consecutive same-set accesses (paper Figure
/// 4), as fractions of all adjacent request pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ConsecutiveBreakdown {
    /// Read → read to the same set.
    pub rr: f64,
    /// Read → write to the same set.
    pub rw: f64,
    /// Write → read to the same set.
    pub wr: f64,
    /// Write → write to the same set.
    pub ww: f64,
}

impl ConsecutiveBreakdown {
    /// Total same-set fraction.
    pub fn total(&self) -> f64 {
        self.rr + self.rw + self.wr + self.ww
    }
}

/// Stream statistics corresponding to the paper's Figures 3, 4 and 5.
///
/// [`StreamStats::measure`] computes them from a [`Trace`]:
///
/// - Figure 3: [`read_per_instr`](Self::read_per_instr) and
///   [`write_per_instr`](Self::write_per_instr);
/// - Figure 4: [`consecutive`](Self::consecutive);
/// - Figure 5: [`silent_write_fraction`](Self::silent_write_fraction),
///   determined by replaying writes against a zero-initialized shadow
///   memory (the definition of a silent store from Lepak & Lipasti).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Memory reads per executed instruction.
    pub read_per_instr: f64,
    /// Memory writes per executed instruction.
    pub write_per_instr: f64,
    /// Reads as a fraction of memory operations.
    pub read_share: f64,
    /// Same-set consecutive-pair breakdown.
    pub consecutive: ConsecutiveBreakdown,
    /// Fraction of writes that stored the already-present value.
    pub silent_write_fraction: f64,
    /// Number of distinct cache sets touched.
    pub distinct_sets: u64,
    /// Number of distinct blocks touched.
    pub distinct_blocks: u64,
}

impl StreamStats {
    /// Measures a trace against a cache geometry (the geometry defines
    /// which addresses share a set).
    ///
    /// Returns all-zero statistics for an empty trace.
    pub fn measure(trace: &Trace, geometry: CacheGeometry) -> Self {
        StreamStats::measure_ops(trace.ops(), trace.instructions(), geometry)
    }

    /// Measures a borrowed slice of operations representing
    /// `instructions` executed instructions — the allocation-free entry
    /// point the sweep engine uses on the measured region of a trace
    /// (see [`Trace::measured_region`]).
    pub fn measure_ops(ops: &[MemOp], instructions: u64, geometry: CacheGeometry) -> Self {
        let mut acc = StreamStatsAccumulator::new(geometry);
        acc.feed(ops);
        acc.finish(instructions)
    }
}

/// Incremental form of [`StreamStats::measure_ops`]: feed operation slices
/// in stream order, then finish with the total instruction count.
///
/// `measure_ops` itself delegates here, so a chunked measurement over the
/// same op sequence produces bit-identical statistics — the accumulator is
/// the only fold implementation. The shadow memory, pair classification,
/// and set/block tracking all carry across `feed` calls exactly as they
/// would across loop iterations of a single pass.
#[derive(Debug, Clone)]
pub struct StreamStatsAccumulator {
    geometry: CacheGeometry,
    ops: u64,
    reads: u64,
    writes: u64,
    silent: u64,
    shadow: FastMap<u64, u64>,
    /// One bit per cache set: set indices are always `< num_sets`.
    sets: Vec<u64>,
    distinct_sets: u64,
    blocks: FastSet<u64>,
    pair_counts: [[u64; 2]; 2],
    prev_set: u64,
    prev_write: bool,
}

impl StreamStatsAccumulator {
    /// Creates an empty accumulator measuring against `geometry`.
    pub fn new(geometry: CacheGeometry) -> Self {
        StreamStatsAccumulator {
            geometry,
            ops: 0,
            reads: 0,
            writes: 0,
            silent: 0,
            shadow: FastMap::default(),
            sets: vec![0; geometry.num_sets().div_ceil(64) as usize],
            distinct_sets: 0,
            blocks: FastSet::default(),
            pair_counts: [[0u64; 2]; 2],
            prev_set: u64::MAX,
            prev_write: false,
        }
    }

    /// Operations folded in so far.
    #[inline]
    pub fn ops_seen(&self) -> u64 {
        self.ops
    }

    /// Folds the next operations of the stream into the statistics.
    pub fn feed(&mut self, ops: &[MemOp]) {
        for op in ops {
            if op.is_read() {
                self.reads += 1;
            } else {
                self.writes += 1;
                let old = self.shadow.insert(op.addr.raw(), op.value).unwrap_or(0);
                if old == op.value {
                    self.silent += 1;
                }
            }
            let set = self.geometry.set_index_of(op.addr);
            let (word, bit) = ((set / 64) as usize, 1u64 << (set % 64));
            self.distinct_sets += u64::from(self.sets[word] & bit == 0);
            self.sets[word] |= bit;
            self.blocks.insert(self.geometry.block_base(op.addr).raw());
            if self.ops > 0 && set == self.prev_set {
                self.pair_counts[usize::from(self.prev_write)][usize::from(op.is_write())] += 1;
            }
            self.prev_set = set;
            self.prev_write = op.is_write();
            self.ops += 1;
        }
    }

    /// Finishes the measurement, normalizing by `instructions`.
    ///
    /// Returns all-zero statistics if no operations were fed.
    pub fn finish(self, instructions: u64) -> StreamStats {
        if self.ops == 0 {
            return StreamStats::default();
        }
        let pairs = (self.ops - 1).max(1) as f64;
        let instr = instructions.max(1) as f64;
        StreamStats {
            read_per_instr: self.reads as f64 / instr,
            write_per_instr: self.writes as f64 / instr,
            read_share: self.reads as f64 / self.ops as f64,
            consecutive: ConsecutiveBreakdown {
                rr: self.pair_counts[0][0] as f64 / pairs,
                rw: self.pair_counts[0][1] as f64 / pairs,
                wr: self.pair_counts[1][0] as f64 / pairs,
                ww: self.pair_counts[1][1] as f64 / pairs,
            },
            silent_write_fraction: if self.writes == 0 {
                0.0
            } else {
                self.silent as f64 / self.writes as f64
            },
            distinct_sets: self.distinct_sets,
            distinct_blocks: self.blocks.len() as u64,
        }
    }
}

impl fmt::Display for StreamStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads/instr {:.3}, writes/instr {:.3}, same-set pairs {:.3} (rr {:.3}, rw {:.3}, wr {:.3}, ww {:.3}), silent writes {:.3}",
            self.read_per_instr,
            self.write_per_instr,
            self.consecutive.total(),
            self.consecutive.rr,
            self.consecutive.rw,
            self.consecutive.wr,
            self.consecutive.ww,
            self.silent_write_fraction,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemOp;
    use cache8t_sim::Address;

    fn geometry() -> CacheGeometry {
        CacheGeometry::paper_baseline()
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let stats = StreamStats::measure(&Trace::default(), geometry());
        assert_eq!(stats, StreamStats::default());
    }

    #[test]
    fn counts_reads_and_writes_per_instruction() {
        // 2 reads + 2 writes over 10 instructions.
        let t = Trace::new(
            vec![
                MemOp::read(Address::new(0x00)),
                MemOp::write(Address::new(0x40), 1),
                MemOp::read(Address::new(0x80)),
                MemOp::write(Address::new(0xC0), 2),
            ],
            10,
        );
        let s = StreamStats::measure(&t, geometry());
        assert!((s.read_per_instr - 0.2).abs() < 1e-12);
        assert!((s.write_per_instr - 0.2).abs() < 1e-12);
        assert!((s.read_share - 0.5).abs() < 1e-12);
    }

    #[test]
    fn classifies_consecutive_same_set_pairs() {
        let g = geometry();
        // Same set: same address. Different set: +block_bytes (next set).
        let a = Address::new(0x1000);
        let far = Address::new(0x1000 + g.block_bytes());
        assert_ne!(g.set_index_of(a), g.set_index_of(far));
        let t = Trace::new(
            vec![
                MemOp::read(a),     // -
                MemOp::read(a),     // RR same
                MemOp::write(a, 1), // RW same
                MemOp::write(a, 2), // WW same
                MemOp::read(a),     // WR same
                MemOp::read(far),   // different set
            ],
            6,
        );
        let s = StreamStats::measure(&t, g);
        let pairs = 5.0;
        assert!((s.consecutive.rr - 1.0 / pairs).abs() < 1e-12);
        assert!((s.consecutive.rw - 1.0 / pairs).abs() < 1e-12);
        assert!((s.consecutive.ww - 1.0 / pairs).abs() < 1e-12);
        assert!((s.consecutive.wr - 1.0 / pairs).abs() < 1e-12);
        assert!((s.consecutive.total() - 4.0 / pairs).abs() < 1e-12);
    }

    #[test]
    fn silent_writes_replay_against_zero_memory() {
        let a = Address::new(0x100);
        let t = Trace::new(
            vec![
                MemOp::write(a, 0), // silent: memory starts at 0
                MemOp::write(a, 5), // not silent
                MemOp::write(a, 5), // silent
                MemOp::write(a, 0), // not silent
            ],
            4,
        );
        let s = StreamStats::measure(&t, geometry());
        assert!((s.silent_write_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counts_distinct_sets_and_blocks() {
        let g = geometry();
        let t = Trace::new(
            vec![
                MemOp::read(Address::new(0x00)),
                MemOp::read(Address::new(0x08)), // same block
                MemOp::read(Address::new(0x20)), // new block, new set
                MemOp::read(Address::new(0x00)), // repeat
            ],
            4,
        );
        let s = StreamStats::measure(&t, g);
        assert_eq!(s.distinct_blocks, 2);
        assert_eq!(s.distinct_sets, 2);
    }

    #[test]
    fn display_is_informative() {
        let t = Trace::new(vec![MemOp::read(Address::new(0))], 1);
        let s = StreamStats::measure(&t, geometry());
        assert!(s.to_string().contains("reads/instr"));
    }

    #[test]
    fn chunked_accumulation_is_bit_identical_to_one_shot() {
        use crate::{profiles, ProfiledGenerator, TraceGenerator};
        let g = geometry();
        let profile = profiles::by_name("gcc").expect("suite profile");
        let trace = ProfiledGenerator::new(profile, g, 17).collect(20_000);
        let expected = StreamStats::measure(&trace, g);
        for chunk in [1usize, 37, 1024, 4096, 20_000] {
            let mut acc = StreamStatsAccumulator::new(g);
            for slice in trace.ops().chunks(chunk) {
                acc.feed(slice);
            }
            assert_eq!(acc.ops_seen(), 20_000);
            let chunked = acc.finish(trace.instructions());
            // Bit-identical, not merely close: the accumulator is the
            // same fold, so every f64 must match exactly.
            assert_eq!(chunked, expected, "chunk={chunk}");
        }
    }

    #[test]
    fn empty_accumulator_finishes_to_default() {
        let acc = StreamStatsAccumulator::new(geometry());
        assert_eq!(acc.finish(100), StreamStats::default());
    }

    #[test]
    fn read_only_trace_has_zero_silent_fraction() {
        let t = Trace::new(vec![MemOp::read(Address::new(0)); 10], 10);
        let s = StreamStats::measure(&t, geometry());
        assert_eq!(s.silent_write_fraction, 0.0);
        assert_eq!(s.write_per_instr, 0.0);
    }
}
