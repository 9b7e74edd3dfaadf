//! Host-speed calibration for the CPU-bound timings.
//!
//! A shared host's cores run the same instructions at a speed that drifts
//! by tens of percent over minutes (clock frequency, caches shared with
//! other tenants), and a CPU clock counts that drift as work. A fixed
//! kernel owned by the benchmark, timed between the measured operations
//! on the same CPU, tracks it; CPU-bound timings are scaled by
//! `REFERENCE_MS / median(kernel)`, so they read as milliseconds on a host
//! where the kernel takes `REFERENCE_MS`. A pass is short enough that the
//! median pass ran unpreempted. The kernel calls no code of the
//! repository, so a change to the system cannot move it.

use crate::stats::Samples;
use std::sync::OnceLock;

/// The kernel time the scaled timings are expressed at.
pub const REFERENCE_MS: f64 = 1.0;
/// 4 MiB of pseudo-random words. The walk from word 0 enters a cycle
/// after 123 steps and visits 1 009 distinct words (8 KiB), so a pass is
/// bound by the core's load-to-use and square-root latency. (A walk that
/// misses to memory on every step tracked the serve op's drift less
/// closely.)
const TABLE_WORDS: usize = 1 << 19;
/// Dependent loads per kernel pass (about a millisecond on a 2 GHz core).
const STEPS: usize = 100_000;

/// `REFERENCE_MS` over the median of kernel samples.
pub fn scale(kernel: &Samples) -> f64 {
    REFERENCE_MS / kernel.median()
}

/// Times one pass of the kernel on the calling thread's CPU clock, in
/// milliseconds.
pub fn pass_ms() -> f64 {
    let table = table();
    let start = crate::cpu::thread_ms();
    walk(table);
    crate::cpu::thread_ms() - start
}

/// The kernel's table, built once per process.
fn table() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut x = 1u64;
        (0..TABLE_WORDS)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x
            })
            .collect()
    })
}

/// The kernel: a chain of dependent loads, each index taken from the word
/// loaded before, plus a square root.
fn walk(table: &[u64]) {
    let (mut i, mut acc) = (0usize, 0.0f64);
    for _ in 0..STEPS {
        let word = table[i];
        i = (word >> 45) as usize;
        acc += (word as f64).sqrt();
    }
    std::hint::black_box(acc);
}
