//! Unit coverage for [`ScaleReport`] aggregation and rendering.
//!
//! The render golden file (`tests/golden/scale_report.txt`) pins the
//! exact caregiver-facing summary format: the report is part of the CLI
//! contract and must not drift silently.

use coreda::core::metro::{HomeStats, ScaleReport};
use coreda::des::time::SimDuration;

fn stats(
    episodes_started: u64,
    episodes_completed: u64,
    reminders: u64,
    praises: u64,
    pipeline_ticks: u64,
    energy_uj: f64,
) -> HomeStats {
    HomeStats {
        episodes_started,
        episodes_completed,
        reminders,
        praises,
        sessions_started: episodes_started,
        sessions_completed: episodes_completed,
        sessions_abandoned: episodes_started - episodes_completed,
        cross_activity_flags: 1,
        pipeline_ticks,
        energy_uj,
    }
}

fn report(per_home: Vec<HomeStats>) -> ScaleReport {
    ScaleReport {
        homes: per_home.len(),
        horizon: SimDuration::from_secs(600),
        per_home,
        des_events: 12_345,
        events: None,
    }
}

#[test]
fn totals_of_an_empty_fleet_are_zero() {
    let r = report(vec![]);
    let t = r.totals();
    assert_eq!(t, HomeStats::default());
    assert_eq!(r.pipeline_ticks(), 0);
}

#[test]
fn totals_of_a_single_home_are_that_home() {
    let home = stats(4, 3, 7, 3, 6_000, 1_500.0);
    let r = report(vec![home]);
    assert_eq!(r.totals(), home);
    assert_eq!(r.pipeline_ticks(), 6_000);
}

#[test]
fn totals_sum_across_homes() {
    let r = report(vec![stats(4, 3, 7, 3, 6_000, 1_500.0), stats(2, 2, 1, 2, 4_000, 500.0)]);
    let t = r.totals();
    assert_eq!(t.episodes_started, 6);
    assert_eq!(t.episodes_completed, 5);
    assert_eq!(t.reminders, 8);
    assert_eq!(t.praises, 5);
    assert_eq!(t.cross_activity_flags, 2);
    assert_eq!(r.pipeline_ticks(), 10_000);
    assert!((t.energy_uj - 2_000.0).abs() < 1e-9);
}

#[test]
fn totals_saturate_instead_of_wrapping() {
    // A pathological (fuzzed or hand-built) report must not panic in
    // debug builds or wrap in release ones.
    let mut big = stats(1, 1, 1, 1, u64::MAX, 0.0);
    big.episodes_started = u64::MAX;
    let r = report(vec![big, stats(4, 3, 7, 3, 6_000, 0.0)]);
    let t = r.totals();
    assert_eq!(t.episodes_started, u64::MAX);
    assert_eq!(t.pipeline_ticks, u64::MAX);
    assert_eq!(r.pipeline_ticks(), u64::MAX);
    assert_eq!(t.episodes_completed, 4);
}

#[test]
fn render_matches_the_golden_file() {
    let r = report(vec![stats(4, 3, 7, 3, 6_000, 1_500.0), stats(2, 2, 1, 2, 4_000, 500.0)]);
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/scale_report.txt");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
    assert_eq!(
        r.render(),
        golden,
        "ScaleReport::render drifted from the golden file; if the change \
         is intentional, update tests/golden/scale_report.txt"
    );
}
