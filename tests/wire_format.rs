//! Wire-format stability: a checkpoint taken by the *pre-SoA* layout
//! (boxed per-home `Home` structs, per-home planner clones) replays into
//! the current struct-of-arrays fleet bit-for-bit. The fixture blob and
//! golden report were generated by the old code via the CLI:
//!
//! ```text
//! coreda checkpoint --homes 4 --hours 0.25 --seed 2007 --at 450 --jobs 2
//! coreda scale      --homes 4 --hours 0.25 --seed 2007
//! ```
//!
//! The CRCD delta fixture was written by the per-field delta types that
//! preceded the one-walk delta codec, via the same fleet's durable run
//! (its base snapshot is byte-identical to the checkpoint fixture):
//!
//! ```text
//! coreda scale --homes 4 --hours 0.25 --seed 2007 --jobs 2 \
//!     --checkpoint-every 450 --checkpoint-out P --wal-out W   # P-900s.delta
//! ```
//!
//! If either test fails after an intentional format change, bump
//! [`coreda_core::checkpoint::VERSION`] and regenerate the fixture —
//! never silently re-bless it under the same version byte.

use coreda_core::checkpoint::{
    apply_delta, compact, delta_checkpoint, load_checkpoint, load_delta, save_checkpoint,
    save_delta, MetroCheckpoint,
};
use coreda_core::metro::{run, run_scale, MetroConfig, RunSpec};
use coreda_des::time::{SimDuration, SimTime};

const BLOB: &[u8] = include_bytes!("fixtures/metro_v1.ckpt");
const GOLDEN: &str = include_str!("fixtures/metro_v1.golden.txt");
const DELTA: &[u8] = include_bytes!("fixtures/metro_v1_900s.delta");

/// The exact config the fixture was captured under (CLI knobs above;
/// everything else is `MetroConfig::default`). `jobs` and `horizon` are
/// resume-time free choices outside the config digest.
fn fixture_cfg(jobs: usize) -> MetroConfig {
    MetroConfig {
        homes: 4,
        horizon: SimDuration::from_millis(900_000),
        seed: 2007,
        jobs,
        ..MetroConfig::default()
    }
}

#[test]
fn old_layout_snapshot_resumes_bit_identically() {
    let snap = load_checkpoint(BLOB, 1).expect("v1 fixture must keep decoding");
    let full = run_scale(&fixture_cfg(1));
    for jobs in [1usize, 8] {
        let spec = RunSpec { resume: Some(&snap), ..RunSpec::default() };
        let resumed = run(&fixture_cfg(jobs), &spec)
            .expect("config digest over unchanged knobs must still match");
        assert_eq!(
            resumed.report, full,
            "a pre-refactor snapshot must replay exactly (jobs {jobs})"
        );
    }
}

#[test]
fn old_layout_snapshot_re_encodes_byte_identically() {
    // decode → encode reproduces the old bytes exactly: the codec wrote
    // nothing differently after the layout refactor.
    let snap = load_checkpoint(BLOB, 1).expect("v1 fixture must keep decoding");
    assert_eq!(save_checkpoint(&snap, 1).to_vec(), BLOB, "wire format drifted");
}

#[test]
fn report_matches_the_golden_summary() {
    // The golden file is CLI output: a header line, then the rendered
    // report. The header is the CLI's, not the library's — skip it.
    let report = run_scale(&fixture_cfg(1));
    let golden_body: String =
        GOLDEN.lines().skip(1).map(|l| format!("{l}\n")).collect();
    assert_eq!(report.render(), golden_body, "per-home results drifted from the old layout");
}

/// The fixture fleet's snapshots at its two checkpoint stops: the base
/// (450 s) and the delta's instant (900 s, the horizon).
fn fixture_snapshots() -> Vec<MetroCheckpoint> {
    let stops = [SimTime::from_secs(450), SimTime::from_secs(900)];
    run(&fixture_cfg(1), &RunSpec { stops: &stops, ..RunSpec::default() })
        .expect("a fresh run cannot mismatch")
        .checkpoints
}

#[test]
fn v1_delta_re_encodes_byte_identically() {
    let base = load_checkpoint(BLOB, 1).expect("v1 fixture must keep decoding");
    let snaps = fixture_snapshots();
    assert_eq!(snaps[0], base, "the checkpoint fixture is the durable run's base");
    let delta = delta_checkpoint(&base, &snaps[1]);
    assert_eq!(save_delta(&delta, 1).to_vec(), DELTA, "delta wire format drifted");
}

#[test]
fn v1_delta_rebuilds_its_snapshot() {
    let base = load_checkpoint(BLOB, 1).expect("v1 fixture must keep decoding");
    let delta = load_delta(DELTA, 1).expect("v1 delta fixture must keep decoding");
    let rebuilt = apply_delta(&base, &delta).expect("the delta fits its base");
    assert_eq!(rebuilt, fixture_snapshots()[1]);
}

#[test]
fn v1_delta_chain_resumes_bit_identically() {
    let base = load_checkpoint(BLOB, 1).expect("v1 fixture must keep decoding");
    let delta = load_delta(DELTA, 1).expect("v1 delta fixture must keep decoding");
    let snap = compact(&base, &[delta]).expect("the chain folds");
    let longer = |jobs| MetroConfig { horizon: SimDuration::from_secs(1800), ..fixture_cfg(jobs) };
    let full = run_scale(&longer(1));
    for jobs in [1usize, 8] {
        let spec = RunSpec { resume: Some(&snap), ..RunSpec::default() };
        let resumed = run(&longer(jobs), &spec).expect("the chain resumes its own fleet");
        assert_eq!(resumed.report, full, "a v1 delta chain must replay exactly (jobs {jobs})");
    }
}
