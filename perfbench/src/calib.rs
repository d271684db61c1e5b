//! Machine-speed calibration for the CPU-bound fusion timings.
//!
//! On a shared 2-core container the same fusion code runs up to 1.9×
//! slower from one few-second stretch to the next, with no steal time
//! reported; the slowdowns hit throughput-bound code (the bitset kernels)
//! hardest, as when a neighbour shares the core.  A fixed chunk of the same
//! kind of work — four independent lanes of and/xor/popcount over an
//! L1-resident array — timed right before and after each operation measures
//! the speed the operation ran at, and scaling to a nominal chunk time
//! removes most of that drift (measured: the spread of 3-second medians
//! fell from 28% raw to 14%; against a dependent-multiply chunk, 18%).
//!
//! Set-up is allocation-bound instead (building machines: small strings,
//! vectors and hash maps), and drifts with the allocator and cache rather
//! than the core, so set-ups are scaled by a chunk of the same kind (the
//! spread of set-up medians: 40% raw, 18% against the bitset chunk, 7%
//! against the allocation chunk).

use std::time::Instant;

/// Words per array of the chunk (2 × 16 KiB: L1-resident).
const WORDS: usize = 2048;

/// Passes over the arrays per chunk (tens of microseconds).
const PASSES: usize = 16;

/// Chunks sampled on each side of a timed set-up.
const SETUP_CHUNKS: usize = 3;

/// Entries the allocation chunk builds (tens of microseconds).
const ALLOC_ENTRIES: u64 = 400;

/// The allocation chunk's time at the reference speed.
const NOMINAL_ALLOC_NS: f64 = 60_000.0;

/// The chunk's time at the reference speed normalised figures are given
/// in: its time in the fast phases of a 2-core x86-64 container.
pub const NOMINAL_CHUNK_NS: f64 = 50_000.0;

/// The calibration chunk's input, built once before any timing.
pub struct Calibrator {
    a: Vec<u64>,
    b: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Self {
        let word = |i: u64, k: u64| i.wrapping_add(1).wrapping_mul(k).rotate_left(17);
        Calibrator {
            a: (0..WORDS as u64)
                .map(|i| word(i, 0x9E37_79B9_7F4A_7C15))
                .collect(),
            b: (0..WORDS as u64)
                .map(|i| word(i, 0xBF58_476D_1CE4_E5B9))
                .collect(),
        }
    }

    /// Times one chunk.
    pub fn chunk_ns(&self) -> u64 {
        let start = Instant::now();
        let mut acc = [0u64; 4];
        for _ in 0..PASSES {
            for (x, y) in self.a.chunks_exact(4).zip(self.b.chunks_exact(4)) {
                for k in 0..4 {
                    let bits = ((x[k] & y[k]) ^ (x[k] >> 3)).count_ones() as u64;
                    acc[k] = acc[k].wrapping_add(bits + (x[k] | y[k]));
                }
            }
        }
        std::hint::black_box(acc);
        start.elapsed().as_nanos().max(1) as u64
    }

    /// Runs `f` between calibration samples and returns its result with
    /// its time in seconds at the reference speed.
    pub fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let alloc_sample = || median_of(SETUP_CHUNKS, alloc_chunk_ns);
        let before = alloc_sample();
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        let after = alloc_sample();
        (out, secs * NOMINAL_ALLOC_NS * 2.0 / (before + after) as f64)
    }

    /// The median of `n` chunks.
    pub fn sample(&self, n: usize) -> u64 {
        median_of(n, || self.chunk_ns())
    }
}

fn median_of(n: usize, chunk: impl Fn() -> u64) -> u64 {
    let mut times: Vec<u64> = (0..n.max(1)).map(|_| chunk()).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Times one chunk of set-up-like work: small strings and vectors into a
/// hash map (dropped after the timing, as a set-up's are).
fn alloc_chunk_ns() -> u64 {
    let start = Instant::now();
    let map: std::collections::HashMap<String, Vec<u64>> = (0..ALLOC_ENTRIES)
        .map(|i| (format!("state{i}"), vec![i; 8]))
        .collect();
    std::hint::black_box(map.values().map(Vec::len).sum::<usize>());
    start.elapsed().as_nanos().max(1) as u64
}

/// Scales `raw` (any time unit), measured between calibration chunks that
/// took `before_ns` and `after_ns`, to the reference speed.
pub fn normalise(raw: f64, before_ns: u64, after_ns: u64) -> f64 {
    raw * NOMINAL_CHUNK_NS * 2.0 / (before_ns + after_ns) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalising_scales_by_the_chunk_speed() {
        let nominal = NOMINAL_CHUNK_NS as u64;
        assert_eq!(normalise(10.0, nominal, nominal), 10.0);
        // The machine ran at half speed: the operation took twice as long.
        assert_eq!(normalise(20.0, 2 * nominal, 2 * nominal), 10.0);
        let cal = Calibrator::new();
        assert!(cal.chunk_ns() > 0);
        let (out, secs) = cal.timed(|| 7);
        assert_eq!(out, 7);
        assert!(secs > 0.0);
    }
}
