//! Golden coverage for the flight-recorder summary render.
//!
//! The golden file (`tests/golden/trace_summary.txt`) pins the exact
//! telemetry summary the `trace` CLI command prints below its header:
//! the summary is part of the CLI contract and must not drift silently.
//! It is also jobs-invariant and survives a snapshot boundary, so one
//! golden file covers every way of producing it.

use coreda::core::metro::{run, MetroConfig, RunSpec};
use coreda::des::time::{SimDuration, SimTime};

fn golden_cfg() -> MetroConfig {
    MetroConfig {
        homes: 4,
        horizon: SimDuration::from_secs(600),
        seed: 2007,
        jobs: 1,
        ..MetroConfig::default()
    }
}

fn golden() -> String {
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_summary.txt");
    std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()))
}

#[test]
fn trace_summary_matches_the_golden_file() {
    let out = run(&golden_cfg(), &RunSpec { trace: true, ..RunSpec::default() })
        .expect("a fresh run cannot mismatch");
    assert_eq!(
        out.telemetry.render_summary(),
        golden(),
        "Telemetry::render_summary drifted from the golden file; if the \
         change is intentional, update tests/golden/trace_summary.txt"
    );
}

/// A run snapshotted mid-way and resumed must render the *same* golden
/// summary: telemetry counters, latency histograms and trace rings merge
/// across the snapshot boundary instead of resetting. (A reset would
/// roughly halve every counter and be caught byte-for-byte here.)
#[test]
fn resumed_trace_summary_matches_the_same_golden_file() {
    let cfg = golden_cfg();
    let trace = RunSpec { trace: true, ..RunSpec::default() };
    let stops = [SimTime::from_secs(300)];
    let snaps = run(&cfg, &RunSpec { stops: &stops, ..trace })
        .expect("a fresh run cannot mismatch")
        .checkpoints;
    let resumed = run(&cfg, &RunSpec { resume: Some(&snaps[0]), ..trace })
        .expect("snapshot matches its own config");
    assert_eq!(
        resumed.telemetry.render_summary(),
        golden(),
        "a resumed run's telemetry summary must describe the whole run, \
         not just the tail after the snapshot"
    );
}
