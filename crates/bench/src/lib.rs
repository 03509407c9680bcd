//! # rr-bench — benchmark support for the RelaxReplay reproduction
//!
//! The Criterion benches live in `benches/`:
//!
//! * `components` — microbenchmarks of every RelaxReplay hardware
//!   structure (H3 hashing, Bloom signatures, Snoop Table, TRAQ, log
//!   codec, patching, replay and simulation throughput);
//! * `figures` — one bench per paper table/figure, timing a scaled-down
//!   version of the experiment that regenerates it (the full-scale tables
//!   come from the `rr-experiments` binaries);
//! * `ablation` — recording throughput under swept hardware parameters
//!   (Base vs Opt, snoopy vs directory, interval sizes).
//!
//! This library crate hosts shared setup helpers plus the
//! bench-trajectory comparison logic ([`compare`]) behind the `rr-bench`
//! binary's `compare` subcommand.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;

use std::time::Instant;

use rr_isa::MemImage;
use rr_sim::{MachineConfig, RecordSession, RecorderSpec, RunResult};
use rr_workloads::{by_name, Workload};

/// A small, deterministic workload used by the benches (2 threads, size 1
/// — a few tens of thousands of instructions).
#[must_use]
pub fn bench_workload(name: &str) -> Workload {
    by_name(name, 2, 1).expect("known workload name")
}

/// Records `workload` on a small machine with the paper's four recorder
/// variants attached; panics on any simulation error.
#[must_use]
pub fn bench_record(workload: &Workload) -> RunResult {
    let cfg = MachineConfig::splash_default(workload.programs.len());
    RecordSession::new(&workload.programs, &workload.initial_mem)
        .config(&cfg)
        .specs(&RecorderSpec::paper_matrix())
        .run()
        .expect("bench recording")
}

/// Times `f` and returns the median per-iteration nanoseconds: a warm-up
/// run sizes 7 samples of about 0.2 s each. In smoke mode `f` runs twice
/// and the second run's time is returned — enough to prove the path
/// works, not to measure it.
pub fn median_ns(smoke: bool, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-9);
    if smoke {
        let t = Instant::now();
        f();
        return t.elapsed().as_nanos() as f64;
    }
    let iters = ((0.2 / one).ceil() as u64).clamp(1, 1_000_000);
    let mut samples = Vec::with_capacity(7);
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// An empty initial memory (helper so benches avoid the import).
#[must_use]
pub fn empty_mem() -> MemImage {
    MemImage::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_setup_works() {
        let w = bench_workload("fft");
        let r = bench_record(&w);
        assert!(r.total_instrs() > 0);
        assert_eq!(r.variants.len(), 4);
    }
}
