//! Command line of the repository benchmark:
//!
//! ```text
//! cv-benchmark --workload <protect_pages|repair_red_team|fleet_churn>
//!              --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints one line per metric (value, unit, sample count) and, last, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. A traced run also
//! writes its Chrome trace and layer table under `--out` (default
//! `.bench_out`).

use cv_benchmark::{run_traced, run_untraced, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cv-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        run_traced(&args.workload, args.seed, args.seconds, &args.out)
    } else {
        run_untraced(&args.workload, args.seed, args.seconds)
    };
    println!(
        "\n{} seed {} trace {}:",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for m in &report.metrics {
        println!("  {}", m.line());
    }
    println!(
        "  checks: {} attempted, {} failed",
        report.attempted, report.failed
    );
    println!("{}", report.json());
    ExitCode::SUCCESS
}
