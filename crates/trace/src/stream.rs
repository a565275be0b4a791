//! Bounded-memory chunked trace production.
//!
//! The materialized path builds a whole [`Trace`] in memory before replay,
//! so memory — not compute — bounds replay length. This module slices the
//! same deterministic op stream into [`TraceChunk`]s of a fixed size:
//! replaying chunks in order visits exactly the byte sequence the
//! materialized trace would hold, while only one or two chunks are resident
//! at a time.
//!
//! Two invariants make streamed replay bit-identical to materialized
//! replay:
//!
//! 1. **Op identity.** Generators are deterministic sequential streams, so
//!    collecting `n` ops in chunks of any size yields the same ops in the
//!    same order as one `collect(n)` call.
//! 2. **Instruction telescoping.** Each chunk carries the
//!    `instructions_retired()` delta across its generation, so the sum of
//!    per-chunk instruction counts equals the materialized trace's total
//!    exactly — no pro-rating drift at chunk seams.

use crate::{MemOp, Trace, TraceGenerator};

/// A contiguous slice of a trace: the ops, where they sit in the stream,
/// and the instructions they represent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceChunk {
    ops: Vec<MemOp>,
    start_op: u64,
    instructions: u64,
}

impl TraceChunk {
    /// Creates a chunk from its parts. `start_op` is the global index of
    /// the chunk's first op within the full stream.
    pub fn new(ops: Vec<MemOp>, start_op: u64, instructions: u64) -> Self {
        TraceChunk {
            ops,
            start_op,
            instructions,
        }
    }

    /// The operations, in program order.
    #[inline]
    pub fn ops(&self) -> &[MemOp] {
        &self.ops
    }

    /// Number of operations in this chunk.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the chunk holds no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Global index of the first op in this chunk.
    #[inline]
    pub fn start_op(&self) -> u64 {
        self.start_op
    }

    /// Global index one past the last op in this chunk.
    #[inline]
    pub fn end_op(&self) -> u64 {
        self.start_op + self.ops.len() as u64
    }

    /// Instructions (memory + interleaved non-memory) this chunk
    /// represents.
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }
}

/// Adapts a [`TraceGenerator`] into a bounded sequence of [`TraceChunk`]s.
///
/// Yields `ceil(total_ops / chunk_ops)` chunks; all but possibly the last
/// hold exactly `chunk_ops` ops. Concatenating the chunks reproduces
/// `generator.collect(total_ops)` byte-for-byte, and their instruction
/// counts sum to the same total (see the module docs).
///
/// A consumer done with a chunk can hand it back with
/// [`recycle`](ChunkedGenerator::recycle); the next chunk is then
/// produced into its buffer instead of a fresh allocation.
#[derive(Debug)]
pub struct ChunkedGenerator<G> {
    generator: G,
    chunk_ops: usize,
    total_ops: u64,
    produced: u64,
    /// An emptied buffer from a recycled chunk, for the next chunk.
    spare: Option<Vec<MemOp>>,
}

impl<G: TraceGenerator> ChunkedGenerator<G> {
    /// Wraps `generator`, slicing the next `total_ops` ops into chunks of
    /// `chunk_ops`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_ops == 0`.
    pub fn new(generator: G, chunk_ops: usize, total_ops: u64) -> Self {
        assert!(chunk_ops > 0, "chunk size must be at least one op");
        ChunkedGenerator {
            generator,
            chunk_ops,
            total_ops,
            produced: 0,
            spare: None,
        }
    }

    /// Wraps a generator that has already produced `produced` ops of the
    /// stream (the caller fast-forwarded or checkpointed it there), so
    /// chunks resume at the right global indices. `produced` must be a
    /// chunk boundary.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_ops == 0`, `produced > total_ops`, or `produced`
    /// is not a multiple of `chunk_ops`.
    pub fn resume(generator: G, chunk_ops: usize, total_ops: u64, produced: u64) -> Self {
        assert!(chunk_ops > 0, "chunk size must be at least one op");
        assert!(produced <= total_ops, "resume point past the stream end");
        assert!(
            produced.is_multiple_of(chunk_ops as u64),
            "resume point {produced} is not a chunk boundary (chunk_ops {chunk_ops})"
        );
        ChunkedGenerator {
            generator,
            chunk_ops,
            total_ops,
            produced,
            spare: None,
        }
    }

    /// Global index of the next op to be produced.
    #[inline]
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Produces the next chunk, or `None` when `total_ops` have been
    /// produced.
    pub fn next_chunk(&mut self) -> Option<TraceChunk> {
        let remaining = self.total_ops - self.produced;
        if remaining == 0 {
            return None;
        }
        let n = (self.chunk_ops as u64).min(remaining) as usize;
        let start = self.produced;
        let instr_before = self.generator.instructions_retired();
        let mut ops = self.spare.take().unwrap_or_default();
        ops.reserve_exact(n);
        for _ in 0..n {
            ops.push(self.generator.next_op());
        }
        let instructions = self.generator.instructions_retired() - instr_before;
        self.produced += n as u64;
        Some(TraceChunk::new(ops, start, instructions))
    }

    /// Hands back a chunk the caller no longer needs, so the next
    /// [`next_chunk`](ChunkedGenerator::next_chunk) reuses its buffer.
    /// At most one buffer is kept; the chunk's contents do not matter.
    pub fn recycle(&mut self, chunk: TraceChunk) {
        let mut ops = chunk.ops;
        ops.clear();
        self.spare = Some(ops);
    }

    /// Consumes the adapter, returning the inner generator (positioned
    /// after the last produced op).
    pub fn into_inner(self) -> G {
        self.generator
    }
}

impl<G: TraceGenerator> Iterator for ChunkedGenerator<G> {
    type Item = TraceChunk;

    fn next(&mut self) -> Option<TraceChunk> {
        self.next_chunk()
    }
}

/// Collects a full chunk sequence back into a materialized [`Trace`].
///
/// Mostly useful in tests asserting chunked/materialized equivalence.
pub fn assemble_chunks<I: IntoIterator<Item = TraceChunk>>(chunks: I) -> Trace {
    let mut ops = Vec::new();
    let mut instructions = 0;
    for chunk in chunks {
        debug_assert_eq!(chunk.start_op() as usize, ops.len(), "chunk out of order");
        ops.extend_from_slice(chunk.ops());
        instructions += chunk.instructions();
    }
    Trace::new(ops, instructions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{profiles, ProfiledGenerator};
    use cache8t_sim::CacheGeometry;

    fn generator(seed: u64) -> ProfiledGenerator {
        let profile = profiles::by_name("gcc").expect("gcc profile exists");
        ProfiledGenerator::new(profile.clone(), CacheGeometry::paper_baseline(), seed)
    }

    #[test]
    fn chunked_generation_matches_materialized() {
        let total = 10_000u64;
        let expected = generator(7).collect(total as usize);
        for chunk_ops in [1usize, 64, 1000, 4096, 10_000, 20_000] {
            let chunks: Vec<TraceChunk> =
                ChunkedGenerator::new(generator(7), chunk_ops, total).collect();
            let assembled = assemble_chunks(chunks);
            assert_eq!(assembled, expected, "chunk_ops={chunk_ops}");
        }
    }

    #[test]
    fn chunk_instructions_telescope_to_the_total() {
        let total = 5_000u64;
        let expected = generator(11).collect(total as usize);
        let chunks: Vec<TraceChunk> = ChunkedGenerator::new(generator(11), 777, total).collect();
        let summed: u64 = chunks.iter().map(|c| c.instructions()).sum();
        assert_eq!(summed, expected.instructions());
        // Chunk boundaries tile the stream with no gaps or overlaps.
        let mut next = 0;
        for chunk in &chunks {
            assert_eq!(chunk.start_op(), next);
            next = chunk.end_op();
        }
        assert_eq!(next, total);
    }

    #[test]
    fn chunk_sizes_cover_the_tail() {
        let chunks: Vec<TraceChunk> = ChunkedGenerator::new(generator(3), 1024, 2500).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].len(), 1024);
        assert_eq!(chunks[1].len(), 1024);
        assert_eq!(chunks[2].len(), 452);
        assert!(!chunks[2].is_empty());
    }

    #[test]
    fn zero_total_yields_no_chunks() {
        let mut g = ChunkedGenerator::new(generator(1), 128, 0);
        assert!(g.next_chunk().is_none());
        assert_eq!(g.produced(), 0);
    }

    #[test]
    fn recycled_buffers_are_reused_without_changing_chunks() {
        let expected: Vec<TraceChunk> = ChunkedGenerator::new(generator(13), 500, 2_200).collect();
        let mut chunked = ChunkedGenerator::new(generator(13), 500, 2_200);
        let mut got = Vec::new();
        while let Some(chunk) = chunked.next_chunk() {
            got.push(chunk.clone());
            let buffer = chunk.ops().as_ptr();
            chunked.recycle(chunk);
            if let Some(next) = chunked.next_chunk() {
                assert_eq!(next.ops().as_ptr(), buffer, "the recycled buffer is reused");
                got.push(next);
            }
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn cloned_generator_continues_identically() {
        let mut a = generator(9);
        for _ in 0..1000 {
            a.next_op();
        }
        let mut b = a.clone();
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
        assert_eq!(a.instructions_retired(), b.instructions_retired());
    }
}
