//! `sc-benchmark` — the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! sc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! sc-benchmark compare <dir-a> <dir-b>  # A/A (or A/B) table of two run sets
//! ```

mod compare;
mod cpu;
mod gen;
mod layers;
mod metrics;
mod obsx;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: sc-benchmark --workload <cube_window|row_ingest|point_read|scan_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n       \
                     sc-benchmark compare <dir-a> <dir-b>";

fn parse_run_args(args: &[String]) -> Result<run::Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--out" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("{name} is required\n{USAGE}");
    Ok(run::Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        out_dir,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.to_string()),
        },
        _ => parse_run_args(&args).and_then(|a| run::run(&a, started)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
