//! Bench-regression gate: re-measures the 10k-home and 100k-home
//! serving cells and fails (exit 1) when fresh throughput drops more
//! than 10 % below the `events_per_sec` committed in `BENCH_scale.json`
//! — the `make ci` hook that keeps the scale numbers honest without
//! re-running the full criterion suite. The 100k cell is the epoch-
//! tiling guarantee: that row only holds its committed rate while wakes
//! serve in arena order, so a regression here means the locality
//! scheduling broke even if every equivalence test still passes.
//! Further gates ride along:
//!
//! - the committed `telemetry_overhead.overhead_pct` must stay under
//!   12 % — the recorder's true cost is ~0-3 % and the contract says
//!   < 5 %, but the committed number is wall clock on a drifting host,
//!   so the gate leaves room for measurement noise while still catching
//!   a real hot-path regression;
//! - the committed `care_overhead.overhead_pct` must stay under 5 % —
//!   the caregiver escalation overlay is a pure fold over the event
//!   stream plus an in-order analytics merge, and its paired-ratio
//!   protocol cancels host clock drift, so the contract bar applies
//!   directly;
//! - a fresh, fully deterministic durability probe: the steady-state
//!   delta checkpoint at 1k homes must encode to <= 15 % of the full
//!   snapshot's bytes. Byte counts don't drift with host load, so this
//!   gate has no tolerance knob.
//!
//! Usage: `bench_check [--tolerance-pct N] [--measure-only]`
//!
//! `--measure-only` prints the fresh measurement and exits 0 — the
//! iteration loop while optimising. A debug build skips the timing
//! gates (unoptimised timings would fail every time, meaninglessly)
//! but still runs the byte-size gate: codec bloat is visible at any
//! optimisation level.

use std::time::Instant;

use coreda_core::checkpoint::{save_checkpoint, save_delta};
use coreda_core::metro::{run_scale, run_scale_durable, MetroConfig};
use coreda_des::time::{SimDuration, SimTime};

const JOBS: usize = 1;

/// The gated grid cells: (homes, sim_secs). The 10k cell is the
/// original throughput gate; the 100k cell sits past the cache cliff
/// and holds the epoch-tiling speedup in place.
const GATED_CELLS: [(usize, u64); 2] = [(10_000, 360), (100_000, 120)];

fn cfg(homes: usize, sim_secs: u64) -> MetroConfig {
    MetroConfig {
        homes,
        horizon: SimDuration::from_secs(sim_secs),
        seed: 2007,
        jobs: JOBS,
        ..MetroConfig::default()
    }
}

/// Best of two timed runs after one warm-up — the same protocol
/// `scale_micro`'s `measure()` uses, so the comparison is apples to
/// apples with the committed file.
fn measure(homes: usize, sim_secs: u64) -> (f64, u64) {
    let config = cfg(homes, sim_secs);
    let ticks = run_scale(&config).pipeline_ticks();
    let secs = (0..2)
        .map(|_| {
            let t = Instant::now();
            let _ = run_scale(&config);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (secs, ticks)
}

/// Pulls `events_per_sec` out of the committed grid row for
/// (`homes`, `sim_secs`, `JOBS`) with a hand-rolled scan — the
/// committed file is written by our own bench, so its shape is stable
/// and a JSON crate would be a dependency for one line.
fn committed_events_per_sec(json: &str, homes: usize, sim_secs: u64) -> Option<f64> {
    let row_key = format!("\"homes\": {homes}, \"sim_secs\": {sim_secs}, \"jobs\": {JOBS},");
    scan_field(&json[json.find(&row_key)?..], "events_per_sec")
}

/// Scans `\"name\": <number>` out of `json`, tolerating a leading minus.
fn scan_field(json: &str, name: &str) -> Option<f64> {
    let field = format!("\"{name}\": ");
    let val_at = json.find(&field)? + field.len();
    let val = &json[val_at..];
    let end = val.find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())?;
    val[..end].parse().ok()
}

/// The deterministic durability gate: at 1k homes with a 600 s cadence,
/// the steady-state delta must encode to <= 15 % of the full snapshot.
/// Pure byte counts — no timing, no host sensitivity, no tolerance.
fn durability_ratio_gate() -> Result<(), String> {
    let config = MetroConfig {
        homes: 1000,
        horizon: SimDuration::from_secs(1800),
        seed: 2007,
        jobs: 8,
        ..MetroConfig::default()
    };
    let stops: Vec<SimTime> =
        [600u64, 1200, 1800].iter().map(|&s| SimTime::from_secs(s)).collect();
    let (_, run) = run_scale_durable(&config, &stops);
    let full = save_checkpoint(&run.base, 8).len();
    let delta = save_delta(run.deltas.last().expect("two deltas"), 8).len();
    #[allow(clippy::cast_precision_loss)]
    let pct = 100.0 * delta as f64 / full as f64;
    println!(
        "bench_check: durability — 1k homes, 600 s cadence: full {full} B, \
         steady-state delta {delta} B ({pct:.2} % of full, bar 15 %)"
    );
    if pct > 15.0 {
        return Err(format!(
            "steady-state delta is {pct:.2} % of a full snapshot (bar: 15 %) — \
             the delta codec has lost its incrementality"
        ));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let measure_only = args.iter().any(|a| a == "--measure-only");
    let tolerance_pct: f64 = args
        .iter()
        .position(|a| a == "--tolerance-pct")
        .and_then(|i| args.get(i + 1))
        .map_or(10.0, |v| v.parse().expect("--tolerance-pct takes a number"));

    if !measure_only {
        if let Err(msg) = durability_ratio_gate() {
            eprintln!("bench_check: REGRESSION — {msg}");
            std::process::exit(1);
        }
    }

    if cfg!(debug_assertions) {
        println!("bench_check: debug build — skipping timing gates (run under --release)");
        return;
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    let json = if measure_only {
        String::new()
    } else {
        match std::fs::read_to_string(path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("bench_check: cannot read {path}: {e}");
                std::process::exit(1);
            }
        }
    };
    for &(homes, sim_secs) in &GATED_CELLS {
        let (secs, ticks) = measure(homes, sim_secs);
        #[allow(clippy::cast_precision_loss)]
        let fresh = ticks as f64 / secs;
        println!(
            "bench_check: {homes} homes x {sim_secs} s, jobs={JOBS}: \
             {fresh:.0} events/s ({secs:.3} s)"
        );
        if measure_only {
            continue;
        }
        let Some(committed) = committed_events_per_sec(&json, homes, sim_secs) else {
            eprintln!("bench_check: no grid row for homes={homes} jobs={JOBS} in {path}");
            std::process::exit(1);
        };
        let floor = committed * (1.0 - tolerance_pct / 100.0);
        println!(
            "bench_check: committed {committed:.0} events/s, floor {floor:.0} (-{tolerance_pct}%)"
        );
        if fresh < floor {
            eprintln!(
                "bench_check: REGRESSION — {homes} homes fresh {fresh:.0} events/s is \
                 more than {tolerance_pct}% below the committed {committed:.0}"
            );
            std::process::exit(1);
        }
    }
    if measure_only {
        return;
    }

    // The committed recorder overhead: wall clock on a drifting host, so
    // the bar is 12 % rather than the recorder's < 5 % contract — wide
    // enough for measurement noise, tight enough that a real hot-path
    // regression (the recorder is ~0-3 % measured by CPU time) trips it.
    match scan_field(&json, "overhead_pct") {
        Some(overhead) => {
            println!("bench_check: committed telemetry overhead {overhead:.2} % (bar 12 %)");
            if overhead > 12.0 {
                eprintln!(
                    "bench_check: REGRESSION — committed telemetry overhead \
                     {overhead:.2} % exceeds the 12 % bar; re-run scale_micro on a \
                     quiet host or fix the recorder hot path"
                );
                std::process::exit(1);
            }
        }
        None => {
            eprintln!("bench_check: no telemetry_overhead.overhead_pct in {path}");
            std::process::exit(1);
        }
    }

    // The committed care-overlay overhead: the paired-ratio protocol
    // cancels clock drift, so the contract's 5 % bar applies as-is.
    let care = json
        .find("\"care_overhead\"")
        .and_then(|at| scan_field(&json[at..], "overhead_pct"));
    match care {
        Some(overhead) => {
            println!("bench_check: committed care overhead {overhead:.2} % (bar 5 %)");
            if overhead > 5.0 {
                eprintln!(
                    "bench_check: REGRESSION — committed care overhead {overhead:.2} % \
                     exceeds the 5 % bar; the escalation fold or the analytics merge \
                     has left the noise floor"
                );
                std::process::exit(1);
            }
        }
        None => {
            eprintln!("bench_check: no care_overhead.overhead_pct in {path}");
            std::process::exit(1);
        }
    }
    println!("bench_check: ok");
}
