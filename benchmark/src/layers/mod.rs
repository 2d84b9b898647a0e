//! Isolated per-layer timings: each probe calls one layer's public functions
//! on seeded inputs and nothing else, so a layer's own number is known
//! before and after a change to it.
//!
//! The same probes run on every traced run, whatever the workload: they
//! measure layers, not workloads. `benchmark/README.md` says which
//! end-to-end metric each should move, on which workload.

mod cube;
mod encoding;
mod engine;
mod overhead;
mod server;

use crate::metrics::Report;
use crate::stats::median;
use std::time::Instant;

type Probe = fn(u64, &mut Report);

pub fn run_all(seed: u64, report: &mut Report) {
    let probes: [(&str, Probe); 5] = [
        ("cube", cube::run),
        ("engine", engine::run),
        ("encoding", encoding::run),
        ("server", server::run),
        ("overhead", overhead::run),
    ];
    for (name, probe) in probes {
        let t = Instant::now();
        probe(seed, report);
        println!(
            "layer probes: {name} took {:.2} s",
            t.elapsed().as_secs_f64()
        );
    }
}

/// Median over `passes` calls of `f` of the time it took, in nanoseconds.
/// `f` returns what it computed so the optimiser cannot drop the work.
fn median_ns<T>(passes: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..passes)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// `count` things per second, given the nanoseconds they took.
fn per_second(count: usize, ns: f64) -> f64 {
    count as f64 * 1e9 / ns
}

/// Megabytes per second, given the nanoseconds `bytes` took.
fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 * 1e9 / ns
}
