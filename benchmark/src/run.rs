//! One run: set-up, a discarded warm-up repetition, timed repetitions, and
//! the summary line the contract asks for.

use crate::cpu::thread_cpu_ns;
use crate::layers;
use crate::metrics::{Report, Tier};
use crate::obsx::{engine_busy, ratio, EngineBusy, ObsDelta, ObsSnapshot};
use crate::stats::{favourable_decile, median, percentile, relative_spread};
use crate::trace::{Tracer, SPAN_NAMES};
use crate::workloads::{self, Rep};
use std::path::PathBuf;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// The whole process — set-up, warm-up and checks included — is sized to
    /// end within this many seconds.
    pub seconds: u64,
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// A write slower than this counts as a stall.
const STALL_NS: u64 = 1_000_000;

/// The benchmark's contract ends a run at 180 s; past this many the run
/// gives up rather than be cut off without a word.
const HARD_LIMIT_S: f64 = 150.0;

/// Untraced + traced pairs of repetitions in a traced run.
const TRACE_PAIRS: usize = 3;

/// Runs the workload and prints the result. `Err` is a harness failure
/// (unknown workload, hard limit passed, a flush where none may land); an
/// oracle mismatch prints the summary with `"correct": false` and is
/// `Ok(false)`.
pub fn run(args: &Args, started: Instant) -> Result<bool, String> {
    println!("{}", workloads::policy_header());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if let Some(info) = workloads::WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
    {
        println!("why: {}", info.why);
    }
    let mut tracer = Tracer::new(false);
    let (mut workload, reps_wanted, warm_up) = set_up(args, &mut tracer)?;
    // The set-up the run uses is timed from process start, on the main
    // thread's CPU clock like every time longer than an operation (`cpu.rs`).
    let mut setups_s = vec![thread_cpu_ns() as f64 / 1e9];
    let setup_wall_s = started.elapsed().as_secs_f64();
    let mut attempted = warm_up.attempted;
    let mut failed = warm_up.failed;

    // Untraced and traced repetitions of a traced run alternate, so the pair
    // prices the tracing on the same data in the same state.
    let plan: Vec<bool> = if args.trace {
        [false, true].repeat(TRACE_PAIRS)
    } else {
        vec![false; reps_wanted]
    };
    let mut observed = ObsDelta::default();
    let mut engine = EngineBusy::default();
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut timed_cpu_ns = 0;
    for traced in plan {
        workload.prepare();
        tracer.set_on(traced);
        let (before, busy) = (ObsSnapshot::take(), engine_busy());
        let cpu = thread_cpu_ns();
        let rep = workload.repetition(&mut tracer);
        timed_cpu_ns += thread_cpu_ns() - cpu;
        observed.add(ObsSnapshot::take().since(before));
        if traced {
            engine += engine_busy().since(busy);
        }
        reps.push((traced, rep));
        // One second of set-up, timed once, moves with whatever the machine
        // does in that second: between two sets of ten runs of one build the
        // median moved by 15 %. So an untraced run sets up four times more,
        // on instances it drops at once, after each quarter of its
        // repetitions, and reduces the five as it reduces repetitions: the
        // favourable decile of five is the fastest.
        if !args.trace && reps.len().is_multiple_of(reps_wanted / 4) {
            let again = thread_cpu_ns();
            let (fresh, _, warm_up) = set_up(args, &mut tracer)?;
            setups_s.push((thread_cpu_ns() - again) as f64 / 1e9);
            drop(fresh);
            attempted += warm_up.attempted;
            failed += warm_up.failed;
        }
        // The repetition count is fixed: a slow run reports on all of them.
        check_hard_limit(started)?;
    }
    tracer.set_on(false);
    for (_, rep) in &reps {
        attempted += rep.attempted;
        failed += rep.failed;
    }
    let flushes = observed.histogram("nosql.flush.duration_ns").0;
    if !workload.flushes_allowed() && flushes != 0 {
        return Err(format!(
            "{flushes} flushes landed in the timed region of {}, which must have none",
            args.workload
        ));
    }

    let report = if args.trace {
        let mut report = Report::new(Tier::PerLayer);
        observed_layer_metrics(&mut report, &observed, &reps);
        span_metrics(&mut report, &tracer, &reps, workload.host_span(), engine);
        drop(workload);
        layers::run_all(args.seed, &mut report);
        write_trace(args, &tracer)?;
        report
    } else {
        let mut report = Report::new(Tier::EndToEnd);
        end_to_end_metrics(&mut report, &mut reps);
        let (bytes, items) = workload.footprint();
        report.set("bytes_per_item", bytes as f64 / items as f64, 1);
        println!(
            "set-ups: {setups_s:.3?} s on the CPU, the first {setup_wall_s:.3} s by the wall clock"
        );
        report.set(
            "setup_s",
            favourable_decile(&setups_s, false),
            setups_s.len() as u64,
        );
        report
    };
    let missing = report.missing();
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {missing:?}"));
    }

    let elapsed = started.elapsed().as_secs_f64();
    print!("{}", report.table());
    let timed_s = reps.iter().map(|(_, r)| r.wall_ns).sum::<u64>() as f64 / 1e9;
    println!(
        "repetitions={} attempted={attempted} failed={failed} timed_s={timed_s:.3} \
         on_cpu={:.1}% elapsed_s={elapsed:.3}",
        reps.len(),
        timed_cpu_ns as f64 / 1e7 / timed_s
    );
    if elapsed > args.seconds as f64 {
        // The work is a fixed count sized for two thirds of `--seconds` on a
        // calm machine. On a slow day the numbers are as good as on any
        // other, so the run says so and reports them.
        eprintln!(
            "sc-benchmark: the run took {elapsed:.1} s, past the {} s it is sized for",
            args.seconds
        );
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        report.metrics_json()
    );
    Ok(correct)
}

/// Everything before the first timed repetition: input generation, load,
/// flush, oracle, and the discarded warm-up repetition (returned for its
/// checks).
fn set_up(
    args: &Args,
    tracer: &mut Tracer,
) -> Result<(Box<dyn workloads::Workload>, usize, Rep), String> {
    let (mut workload, reps) = workloads::build(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    workload.prepare();
    let warm_up = workload.repetition(tracer);
    Ok((workload, reps, warm_up))
}

/// `Err` once the process has outlived [`HARD_LIMIT_S`].
fn check_hard_limit(started: Instant) -> Result<(), String> {
    let elapsed = started.elapsed().as_secs_f64();
    if elapsed > HARD_LIMIT_S {
        return Err(format!(
            "{elapsed:.1} s into the run, past the {HARD_LIMIT_S} s any run may take"
        ));
    }
    Ok(())
}

/// Every timing is computed per repetition: a latency is the p50 of the
/// repetition's samples by the wall clock, a rate is over the repetition's
/// busy time (`Rep::close`). The run reports the repetitions' first decile
/// from the favourable end (see [`favourable_decile`]).
fn end_to_end_metrics(report: &mut Report, reps: &mut [(bool, Rep)]) {
    let mut write_rate = Vec::new();
    let mut write_p50 = Vec::new();
    let mut read_rate = Vec::new();
    let mut read_p50 = Vec::new();
    let mut write_samples = 0;
    let mut read_samples = 0;
    for (_, rep) in reps.iter_mut() {
        write_rate.push(rep.items_written as f64 * 1e9 / rep.write_busy_ns);
        read_rate.push(rep.read_ns.len() as f64 * 1e9 / rep.read_busy_ns);
        write_samples += rep.write_ns.len() as u64;
        read_samples += rep.read_ns.len() as u64;
        write_p50.push(percentile(&mut rep.write_ns, 0.5) as f64 / 1e3);
        read_p50.push(percentile(&mut rep.read_ns, 0.5) as f64 / 1e3);
    }
    println!("per-repetition write_items_per_s: {write_rate:.0?}");
    println!("per-repetition write_p50_us: {write_p50:.2?}");
    println!("per-repetition read_ops_per_s: {read_rate:.1?}");
    println!("per-repetition read_p50_us: {read_p50:.2?}");
    let n = reps.len() as u64;
    report.set("write_items_per_s", favourable_decile(&write_rate, true), n);
    report.set(
        "write_p50_us",
        favourable_decile(&write_p50, false),
        write_samples,
    );
    report.set("read_ops_per_s", favourable_decile(&read_rate, true), n);
    report.set(
        "read_p50_us",
        favourable_decile(&read_p50, false),
        read_samples,
    );
    println!(
        "spread across repetitions (IQR/median): write_items_per_s {:.2}%, write_p50_us {:.2}%, \
         read_ops_per_s {:.2}%, read_p50_us {:.2}%",
        100.0 * relative_spread(&write_rate),
        100.0 * relative_spread(&write_p50),
        100.0 * relative_spread(&read_rate),
        100.0 * relative_spread(&read_p50),
    );
}

/// Layer metrics read off the workload itself: the program's counters over
/// the timed region, per repetition, and the tails of the latency samples.
fn observed_layer_metrics(report: &mut Report, observed: &ObsDelta, reps: &[(bool, Rep)]) {
    let n = reps.len() as u64;
    let per_rep = |v: u64| v as f64 / n as f64;
    let rows = observed.counter("nosql.memtable.puts");
    let gets = observed.counter("nosql.read.point_queries");

    report.set(
        "nosql.commitlog.bytes_per_row",
        ratio(observed.counter("nosql.commitlog.append_bytes"), rows),
        rows,
    );
    let (flushes, flush_ns) = observed.histogram("nosql.flush.duration_ns");
    report.set("nosql.flush.count", per_rep(flushes), n);
    report.set("nosql.flush.busy_s", per_rep(flush_ns) / 1e9, flushes);
    let (merges, merge_ns) = observed.histogram("nosql.compaction.duration_ns");
    report.set("nosql.compaction.count", per_rep(merges), n);
    report.set("nosql.compaction.busy_s", per_rep(merge_ns) / 1e9, merges);
    report.set(
        "nosql.compaction.bytes_rewritten",
        per_rep(observed.counter("nosql.compaction.bytes_out")),
        merges,
    );
    report.set(
        "storage.write_amp",
        ratio(
            observed.counter("storage.vfs.append_bytes"),
            observed.counter("nosql.commitlog.append_bytes"),
        ),
        rows,
    );
    report.set(
        "storage.vfs.append_ops_per_row",
        ratio(observed.counter("storage.vfs.append_ops"), rows),
        rows,
    );

    let mut writes: Vec<u64> = reps
        .iter()
        .flat_map(|(_, r)| r.write_ns.iter().copied())
        .collect();
    let mut reads: Vec<u64> = reps
        .iter()
        .flat_map(|(_, r)| r.read_ns.iter().copied())
        .collect();
    let (w, r) = (writes.len() as u64, reads.len() as u64);
    report.set(
        "nosql.write.p99_us",
        percentile(&mut writes, 0.99) as f64 / 1e3,
        w,
    );
    report.set(
        "nosql.write.stall_max_us",
        writes.last().copied().unwrap_or(0) as f64 / 1e3,
        w,
    );
    report.set(
        "nosql.write.stalls_over_1ms",
        per_rep(writes.iter().filter(|&&ns| ns > STALL_NS).count() as u64),
        w,
    );
    report.set(
        "nosql.read.p99_us",
        percentile(&mut reads, 0.99) as f64 / 1e3,
        r,
    );

    let false_positives = observed.counter("nosql.bloom.false_positive");
    let ruled_out = observed.counter("nosql.bloom.miss");
    report.set(
        "nosql.bloom.false_positive_rate",
        ratio(false_positives, false_positives + ruled_out),
        false_positives + ruled_out,
    );
    let (probed_gets, sstables) = observed.histogram("nosql.read.sstables_per_get");
    report.set(
        "nosql.read.sstables_per_get",
        ratio(sstables, probed_gets),
        probed_gets,
    );
    let (block_gets, blocks) = observed.histogram("nosql.read.blocks_per_get");
    report.set(
        "nosql.read.blocks_per_get",
        ratio(blocks, block_gets),
        block_gets,
    );
    let hits = observed.counter("nosql.block_cache.hit");
    let misses = observed.counter("nosql.block_cache.miss");
    report.set(
        "nosql.block_cache.hit_rate",
        ratio(hits, hits + misses),
        hits + misses,
    );
    report.set(
        "nosql.block_cache.evictions",
        per_rep(observed.counter("nosql.block_cache.evict")),
        n,
    );
    report.set(
        "storage.vfs.read_ops_per_get",
        ratio(observed.counter("storage.vfs.read_ops"), gets),
        gets,
    );
    report.set(
        "storage.vfs.read_bytes_per_get",
        ratio(observed.counter("storage.vfs.read_bytes"), gets),
        gets,
    );
    let cols_read = observed.counter("nosql.read.cols_read");
    let cols = cols_read + observed.counter("nosql.read.cols_skipped");
    report.set("nosql.read.cols_read_share", ratio(cols_read, cols), cols);
}

/// Where the traced repetitions' time went, and what tracing them cost.
fn span_metrics(
    report: &mut Report,
    tracer: &Tracer,
    reps: &[(bool, Rep)],
    host: &'static str,
    engine: EngineBusy,
) {
    let op_ns = |traced: bool| -> Vec<f64> {
        reps.iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, r)| r.write_busy_ns + r.read_busy_ns)
            .collect()
    };
    let (untraced, traced) = (median(&op_ns(false)), median(&op_ns(true)));
    report.set(
        "trace.overhead_pct",
        100.0 * (traced - untraced) / untraced,
        reps.len() as u64,
    );
    let region_ns: u64 = reps
        .iter()
        .filter(|(t, _)| *t)
        .map(|(_, r)| r.wall_ns)
        .sum();
    let shares = tracer.shares(region_ns, host, engine);
    let spans = tracer.spans_closed();
    report.set("span.coverage_pct", 100.0 - shares["other"], spans);
    for name in SPAN_NAMES {
        report.set(&format!("span.share.{name}"), shares[name], spans);
    }
}

fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let path = args
        .out_dir
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, tracer.to_chrome_json(&args.workload, args.seed))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("trace: {}", path.display());
    Ok(())
}
