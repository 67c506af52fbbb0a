//! Host-speed probe that normalises reported times for host drift.
//!
//! On a shared virtual machine the simulator's host time drifts by up to
//! about 2x over minutes while the code stays the same: neighbours load the
//! memory system, and the simulator is memory-bound. The probe is fixed
//! work of the same kind that does not depend on the simulator's code: it
//! maps fresh memory and writes one byte per page, so it pays page faults,
//! kernel page zeroing and memory bandwidth. Runs interleave it with the
//! measured passes and set-up rounds and scale each one's host times by
//! `PROBE_REFERENCE_S / probe`, with `probe` the mean of the probes just
//! before and just after it. That expresses the time on a host where the
//! probe takes `PROBE_REFERENCE_S`; reported figures are medians of the
//! scaled samples. A change to the simulator moves the scaled times by the
//! same factor as the raw ones.

use std::hint::black_box;
use std::time::Instant;

/// Probe time that defines the reference host speed.
pub const PROBE_REFERENCE_S: f64 = 0.05;

/// Bytes mapped per repeat: above glibc's largest dynamic mmap threshold
/// (32 MiB), so every repeat gets fresh pages from the kernel.
const PROBE_BYTES: usize = 40 << 20;
const PAGE: usize = 4096;
const REPEATS: usize = 2;

/// Factor that takes a host time measured next to a probe of `probe_s`
/// seconds to the reference host speed.
pub fn scale(probe_s: f64) -> f64 {
    PROBE_REFERENCE_S / probe_s
}

/// Probes once more after a measured sample and returns the factor for
/// that sample, from the mean of the probes just before and just after it.
/// `probes` holds every probe of the run so far, the one before the sample
/// last.
pub fn bracketed(probes: &mut Vec<f64>) -> f64 {
    let before = *probes.last().expect("a probe precedes every sample");
    let after = probe();
    probes.push(after);
    scale((before + after) / 2.0)
}

/// Runs the probe once and returns its host seconds.
pub fn probe() -> f64 {
    let start = Instant::now();
    for _ in 0..REPEATS {
        let mut buf = vec![0u8; PROBE_BYTES];
        for i in (0..PROBE_BYTES).step_by(PAGE) {
            buf[i] = 1;
        }
        black_box(&buf);
    }
    start.elapsed().as_secs_f64()
}
