//! Golden streams: the profiled generator's exact output, pinned.
//!
//! Every suite profile at two seeds is digested (64-bit FNV-1a over each
//! op's kind, address and value, then the instruction count) through
//! the three ways a trace is produced: one materialized `collect`, a
//! `ChunkedGenerator` at an odd chunk size, and a shared
//! `TraceStore::stream` read by two cursors in lockstep. The last one
//! runs past the store's recent-chunk window, so it covers window hits
//! and chunk buffers reused by the frontier.
//!
//! The digests were recorded from the generator before its hot path was
//! rewritten. A change to any of them changes every trace, every sweep
//! document and every benchmark digest downstream.

use cache8t::exec::{ChunkSource, TraceStore, SHARED_WINDOW_CHUNKS};
use cache8t::sim::CacheGeometry;
use cache8t::trace::{
    profiles, ChunkedGenerator, MemOp, ProfiledGenerator, TraceGenerator, WorkloadProfile,
};

/// Ops per stream: 13 chunks of [`CHUNK_OPS`], the last one partial.
const OPS: usize = 50_000;

/// An odd chunk size, so chunk seams fall at no power-of-two boundary.
const CHUNK_OPS: usize = 4_099;

const SEEDS: [u64; 2] = [42, 1337];

/// `(profile, digest at seed 42, digest at seed 1337)`.
const GOLDEN: [(&str, u64, u64); 25] = [
    ("perlbench", 0x65e175c2486dff3a, 0xc15695d55c37e72e),
    ("bzip2", 0xe961cded2079db80, 0x23b09f2727ce7150),
    ("gcc", 0xfb562bb87c88b805, 0xf01159b3db501901),
    ("bwaves", 0x30edda631c4af0ab, 0x8e8d0424f9ed719c),
    ("gamess", 0x58ccb8e420f3dada, 0x9b22d4dacf4550af),
    ("mcf", 0xd1418281dfbe071c, 0x330fddeda316adbf),
    ("milc", 0xdd7711dec796b61b, 0x052f520294adcc12),
    ("zeusmp", 0x4280b37666f8588e, 0x5e6174d78c1ef4f7),
    ("gromacs", 0x5200c1c48c3418ff, 0x40de5e2ea1c11253),
    ("cactusADM", 0xa7f1e21f34537ea1, 0xed99b1fcfda06aa8),
    ("leslie3d", 0xaad82fbd0bf778bf, 0x0ffd8e875fea609c),
    ("namd", 0xb169d9aca9f94147, 0x453d9a55053a8fec),
    ("gobmk", 0xb66187c91d95a6e8, 0xff38529deec093c9),
    ("povray", 0xb06c47682c069d01, 0x5df9dcaf00bf3187),
    ("calculix", 0x57dd613c58322ee6, 0x67bfd4fc25a64bf0),
    ("hmmer", 0xc22eaa8e030061ac, 0x6df972dc5b953733),
    ("sjeng", 0xde16495ae50b3ac2, 0x9bf369b2270a9b82),
    ("GemsFDTD", 0x7665f41357fa3d46, 0xfcf7acdd4fd5bff9),
    ("libquantum", 0x5c882f94680b0017, 0x48ff913310c2e281),
    ("h264ref", 0x19ede5b985321898, 0xab3f0178ffe3cea0),
    ("lbm", 0xf9e31d677dbcdbd1, 0x2db7486c6f482b5f),
    ("omnetpp", 0x48e88afecbe77f98, 0x10a70fb5aa9181b7),
    ("astar", 0x8d8fab6495743d36, 0xdbff49b6a12896ca),
    ("wrf", 0xa92e4833ff9e3ea7, 0xf5ed52728d2116a4),
    ("sphinx3", 0x2cf97bc492efcede, 0x11c31456f39056e9),
];

/// 64-bit FNV-1a.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn ops(&mut self, ops: &[MemOp]) {
        for op in ops {
            self.bytes(&[u8::from(op.is_write())]);
            self.bytes(&op.addr.raw().to_le_bytes());
            self.bytes(&op.value.to_le_bytes());
        }
    }

    fn finish(mut self, instructions: u64) -> u64 {
        self.bytes(&instructions.to_le_bytes());
        self.0
    }
}

fn generator(profile: &WorkloadProfile, seed: u64) -> ProfiledGenerator {
    ProfiledGenerator::new(profile.clone(), CacheGeometry::paper_baseline(), seed)
}

fn materialized(profile: &WorkloadProfile, seed: u64) -> u64 {
    let trace = generator(profile, seed).collect(OPS);
    let mut digest = Digest::new();
    digest.ops(trace.ops());
    digest.finish(trace.instructions())
}

fn chunked(profile: &WorkloadProfile, seed: u64) -> u64 {
    let mut digest = Digest::new();
    let mut instructions = 0;
    for chunk in ChunkedGenerator::new(generator(profile, seed), CHUNK_OPS, OPS as u64) {
        digest.ops(chunk.ops());
        instructions += chunk.instructions();
    }
    digest.finish(instructions)
}

fn streamed(profile: &WorkloadProfile, seed: u64) -> u64 {
    let store = TraceStore::in_memory();
    let stream = store.stream(profile, seed, OPS, CHUNK_OPS);
    let (mut a, mut b) = (stream.cursor(), stream.cursor());
    let mut digest = Digest::new();
    let mut instructions = 0;
    loop {
        match (a.next_chunk(), b.next_chunk()) {
            (Some(ca), Some(cb)) => {
                assert_eq!(ca, cb, "{} seed {seed}: cursors diverge", profile.name);
                digest.ops(ca.ops());
                instructions += ca.instructions();
            }
            (None, None) => break,
            other => panic!("{} seed {seed}: cursors desynced: {other:?}", profile.name),
        }
    }
    let stats = store.stats();
    let chunks = OPS.div_ceil(CHUNK_OPS) as u64;
    assert!(
        chunks >= SHARED_WINDOW_CHUNKS as u64 + 4,
        "too short to retire chunks"
    );
    assert_eq!(stats.stream_chunks_generated, chunks, "{}", profile.name);
    assert_eq!(stats.stream_mem_hits, chunks, "{}", profile.name);
    digest.finish(instructions)
}

fn check(path: &str, digest_of: fn(&WorkloadProfile, u64) -> u64) {
    let suite = profiles::spec2006();
    assert_eq!(suite.len(), GOLDEN.len());
    let mut mismatches = Vec::new();
    for (profile, &(name, at_42, at_1337)) in suite.iter().zip(&GOLDEN) {
        assert_eq!(profile.name, name, "suite order changed");
        for (seed, want) in SEEDS.into_iter().zip([at_42, at_1337]) {
            let got = digest_of(profile, seed);
            if got != want {
                mismatches.push(format!("{name} seed {seed}: {got:#018x} != {want:#018x}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{path} streams differ from the golden digests:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn materialized_streams_match_golden_digests() {
    check("materialized", materialized);
}

#[test]
fn chunked_streams_match_golden_digests() {
    check("chunked", chunked);
}

#[test]
fn store_streams_match_golden_digests() {
    check("store", streamed);
}
