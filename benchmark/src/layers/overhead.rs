//! What observing costs: the same small ingest-and-read loop with `sc_obs`
//! statistics on and off, and with request tracing armed and disarmed.

use crate::gen::{select_cql, shuffled_ids, ObsRow};
use crate::metrics::Report;
use crate::workloads::{engine_policy, open_table};
use sc_encoding::Rng;
use std::time::Instant;

const ROWS: usize = 15_000;
const READS: usize = 3_000;
const PAIRS: usize = 3;

pub fn run(seed: u64, report: &mut Report) {
    let mut rng = Rng::new(seed);
    let ids = shuffled_ids(&mut rng, ROWS);
    let inserts: Vec<String> = ids
        .iter()
        .map(|&id| ObsRow::new(seed, id, 0).insert_cql())
        .collect();
    let selects: Vec<String> = (0..READS)
        .map(|_| select_cql(rng.gen_range(ROWS as u64) as i64))
        .collect();
    // Inserts flush and merge inline; the reads then go to SSTables.
    let pass = || -> f64 {
        let (_db, mut session) = open_table(engine_policy());
        let t = Instant::now();
        for cql in &inserts {
            session.execute_cql(cql).expect("insert");
        }
        for cql in &selects {
            assert_eq!(session.execute_cql(cql).expect("select").len(), 1);
        }
        t.elapsed().as_nanos() as f64
    };
    // Alternating pairs, so each side meets the same machine state, and the
    // fastest pass of each side: a difference of a few percent is smaller
    // than what one burst of interference adds to a pass.
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let overhead_pct = |set: fn(bool), baseline: bool| -> f64 {
        let mut off = Vec::new();
        let mut on = Vec::new();
        for _ in 0..PAIRS {
            set(false);
            off.push(pass());
            set(true);
            on.push(pass());
        }
        set(baseline);
        100.0 * (fastest(&on) - fastest(&off)) / fastest(&off)
    };
    let stats_were_on = sc_obs::enabled();
    report.set(
        "obs.stats_overhead_pct",
        overhead_pct(sc_obs::set_enabled, stats_were_on),
        2 * PAIRS as u64,
    );
    let tracing_was_armed = sc_obs::trace_enabled();
    report.set(
        "obs.trace_armed_overhead_pct",
        overhead_pct(sc_obs::set_trace_enabled, tracing_was_armed),
        2 * PAIRS as u64,
    );
}
