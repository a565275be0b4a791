//! Streamed replay plumbing: chunk sources and double-buffered prefetch.
//!
//! The materialized path hands the replay loop a whole `&Trace`; the
//! streaming path hands it a [`ChunkSource`] — anything that yields the
//! trace's [`TraceChunk`]s in order. [`PrefetchedChunks`] wraps a source
//! with a producer thread and a capacity-1 channel, so at any moment at
//! most three chunks pass through it: the one the replay loop is
//! consuming, the one in the channel, and the one the producer holds
//! while it waits to hand it over. For a generator source that is the
//! whole memory story of a streamed replay — RSS is bounded by
//! `3 × chunk_ops × sizeof(MemOp)` plus the controller, for any trace
//! length. A [`TraceStore`] cursor source adds its stream's shared
//! window: `SHARED_WINDOW_CHUNKS` chunks plus the in-flight ones above
//! that have already left it, with the window's buffers reused.
//!
//! [`TraceStore`]: crate::TraceStore

use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

use cache8t_trace::{ChunkedGenerator, TraceChunk, TraceGenerator};

/// A source of trace chunks in stream order.
///
/// `next_chunk` returns `None` at end of stream. Chunks arrive as
/// `Arc<TraceChunk>` so a shared cache (the streaming [`TraceStore`]
/// mode) can hand the same generated chunk to several replay jobs
/// without copying it.
///
/// [`TraceStore`]: crate::TraceStore
pub trait ChunkSource {
    /// Produces the next chunk, or `None` when the stream is exhausted.
    fn next_chunk(&mut self) -> Option<Arc<TraceChunk>>;
}

/// A [`ChunkedGenerator`] is a chunk source: it generates on demand.
impl<G: TraceGenerator> ChunkSource for ChunkedGenerator<G> {
    fn next_chunk(&mut self) -> Option<Arc<TraceChunk>> {
        ChunkedGenerator::next_chunk(self).map(Arc::new)
    }
}

/// An in-memory chunk list is a chunk source (used by tests and by the
/// lockstep conformance harness).
impl ChunkSource for std::vec::IntoIter<Arc<TraceChunk>> {
    fn next_chunk(&mut self) -> Option<Arc<TraceChunk>> {
        self.next()
    }
}

/// Double-buffered prefetch over a [`ChunkSource`].
///
/// A producer thread drains the source into a capacity-1
/// [`sync_channel`]: while the consumer replays chunk *k*, chunk *k + 1*
/// waits in the channel and the producer generates chunk *k + 2*, then
/// blocks handing it over. Generation and replay overlap, and at most
/// three chunks are in flight here. Resident chunk memory is those plus
/// whatever the source retains: nothing for a [`ChunkedGenerator`], and
/// for a store cursor the stream's shared window of
/// [`SHARED_WINDOW_CHUNKS`](crate::SHARED_WINDOW_CHUNKS) chunks, whose
/// buffers are reused once they leave it.
///
/// Dropping the prefetcher mid-stream shuts the producer down cleanly:
/// the receiver closes, the producer's blocked send fails, and the
/// thread is joined.
#[derive(Debug)]
pub struct PrefetchedChunks {
    receiver: Option<Receiver<Arc<TraceChunk>>>,
    producer: Option<JoinHandle<()>>,
}

impl PrefetchedChunks {
    /// Spawns the producer thread over `source`.
    pub fn spawn<S: ChunkSource + Send + 'static>(mut source: S) -> Self {
        let (sender, receiver) = sync_channel::<Arc<TraceChunk>>(1);
        let producer = std::thread::Builder::new()
            .name("chunk-prefetch".to_owned())
            .spawn(move || {
                while let Some(chunk) = source.next_chunk() {
                    // Err means the consumer dropped the receiver —
                    // replay is over (or abandoned), stop producing.
                    if sender.send(chunk).is_err() {
                        break;
                    }
                }
            })
            .expect("spawning the chunk-prefetch thread");
        PrefetchedChunks {
            receiver: Some(receiver),
            producer: Some(producer),
        }
    }
}

impl ChunkSource for PrefetchedChunks {
    fn next_chunk(&mut self) -> Option<Arc<TraceChunk>> {
        self.receiver.as_ref()?.recv().ok()
    }
}

impl Drop for PrefetchedChunks {
    fn drop(&mut self) {
        // Close the channel first so a producer blocked in send() wakes
        // up and exits, then join it. A producer that panicked already
        // poisoned nothing — the channel just closes early.
        drop(self.receiver.take());
        if let Some(handle) = self.producer.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache8t_sim::CacheGeometry;
    use cache8t_trace::{profiles, ProfiledGenerator};

    fn chunked(seed: u64, chunk_ops: usize, total: u64) -> ChunkedGenerator<ProfiledGenerator> {
        let profile = profiles::by_name("gcc").expect("gcc profile exists");
        let generator =
            ProfiledGenerator::new(profile.clone(), CacheGeometry::paper_baseline(), seed);
        ChunkedGenerator::new(generator, chunk_ops, total)
    }

    fn drain(mut source: impl ChunkSource) -> Vec<Arc<TraceChunk>> {
        let mut chunks = Vec::new();
        while let Some(chunk) = source.next_chunk() {
            chunks.push(chunk);
        }
        chunks
    }

    #[test]
    fn prefetch_preserves_the_chunk_sequence() {
        let direct = drain(chunked(5, 1000, 4_321));
        let prefetched = drain(PrefetchedChunks::spawn(chunked(5, 1000, 4_321)));
        assert_eq!(direct.len(), prefetched.len());
        for (a, b) in direct.iter().zip(prefetched.iter()) {
            assert_eq!(a.as_ref(), b.as_ref());
        }
    }

    #[test]
    fn dropping_midstream_stops_the_producer() {
        let mut p = PrefetchedChunks::spawn(chunked(5, 64, 1_000_000));
        let first = p.next_chunk().expect("stream has chunks");
        assert_eq!(first.start_op(), 0);
        // Dropping with the producer blocked on a full channel must not
        // hang or leak the thread.
        drop(p);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let mut p = PrefetchedChunks::spawn(chunked(5, 64, 0));
        assert!(p.next_chunk().is_none());
    }
}
