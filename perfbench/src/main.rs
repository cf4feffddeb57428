//! The repository benchmark: runs one workload of the CoReDA metro
//! serving engine from outside the program, through its public entry
//! points, checks the outputs, and prints every metric by name with its
//! unit and sample count. The last line of standard output is the JSON
//! result: end-to-end metrics for an untraced run (`--trace 0`), the
//! per-layer ledger for a traced one (`--trace 1`).
//!
//! ```text
//! perfbench --workload <batch_100k|served_wall|durable_resume>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload runs in this one process with `jobs = 1`; the served
//! workload uses the in-process transport, so there are no sockets and
//! no more threads than the host's cores. See `perfbench/README.md`.

mod batch;
mod client;
mod durable;
mod ledger;
mod measure;
mod report;
mod served;

use std::path::PathBuf;
use std::process::ExitCode;

use ledger::Tracer;

const WORKLOADS: [&str; 3] = ["batch_100k", "served_wall", "durable_resume"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2007,
        seconds: 20,
        trace: false,
    };
    let mut seen = Vec::new();
    while let Some(flag) = argv.next() {
        if seen.contains(&flag) {
            return Err(format!("duplicate option {flag}"));
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value,
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?}; expected one of {WORKLOADS:?}"
                ))
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err(format!("--seconds must be 1..=60, got {}", args.seconds));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
        seen.push(flag);
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Writes a traced run's span store under `perfbench/out/`.
pub fn write_spans(tr: &Tracer, workload: &str, seed: u64) {
    let path = PathBuf::from("perfbench/out").join(format!("{workload}-seed{seed}.spans.jsonl"));
    let header = format!("\"workload\":\"{workload}\",\"seed\":{seed}");
    match tr.write_jsonl(&path, &header) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "batch_100k" => batch::run(args.seed, args.seconds, args.trace),
        "served_wall" => served::run(args.seed, args.seconds, args.trace),
        "durable_resume" => durable::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("parse validated the workload"),
    };
    report.print(args.trace);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
