//! Metro-scale serving is bit-deterministic: the worker count is a pure
//! wall-clock knob, and how the engine tiles its wakes into serving
//! windows leaves no trace in the telemetry.

use coreda_testkit::served::InstantClock;
use coreda_core::metro::{run, run_scale, MetroConfig, RunOutput, RunSpec, ServeCtx};
use coreda_des::time::SimDuration;
use coreda_serve::{serve_fleet, MoteClient, ServeOptions};

fn metro_cfg(jobs: usize) -> MetroConfig {
    MetroConfig {
        homes: 64,
        horizon: SimDuration::from_secs(900),
        seed: 2007,
        jobs,
        gap_min: SimDuration::from_secs(60),
        gap_max: SimDuration::from_secs(180),
        idle_close: SimDuration::from_secs(120),
        train_episodes: 120,
        ..MetroConfig::default()
    }
}

/// A batch run with the flight recorder on.
fn traced(config: &MetroConfig) -> RunOutput {
    let spec = RunSpec { trace: true, ..RunSpec::default() };
    run(config, &spec).expect("a fresh run cannot mismatch")
}

#[test]
fn sixty_four_homes_are_byte_identical_at_jobs_1_and_8() {
    let serial = run_scale(&metro_cfg(1));
    let parallel = run_scale(&metro_cfg(8));
    // Full structural equality: every per-home counter, every energy
    // figure, and the DES event count.
    assert_eq!(serial, parallel);
    // And the rendered report is byte-identical.
    assert_eq!(serial.render(), parallel.render());
}

#[test]
fn telemetry_is_byte_identical_at_jobs_1_and_8() {
    let serial = traced(&metro_cfg(1));
    let parallel = traced(&metro_cfg(8));
    // Full structural equality of every recorder: counters, latency
    // histograms, and trace-event rings, home for home.
    assert_eq!(serial.telemetry, parallel.telemetry);
    // And both exports are byte-identical.
    assert_eq!(serial.telemetry.render_summary(), parallel.telemetry.render_summary());
    assert_eq!(serial.telemetry.to_jsonl(), parallel.telemetry.to_jsonl());
    // The traced report equals the untraced one: recording never
    // perturbs the simulation.
    assert_eq!(serial.report, run_scale(&metro_cfg(1)));
}

/// The engine's window tiling is invisible to the flight recorder: the
/// batch run's full epoch windows and a served fleet paced on
/// single-instant windows ([`InstantClock`], the strict `(due, seq)`
/// sweep) record the same telemetry, home for home and byte for byte.
#[test]
fn telemetry_is_engine_invariant() {
    let batch = traced(&metro_cfg(1));
    let ctx = ServeCtx::new(metro_cfg(8)).expect("64 homes fit in u32");
    let opts = ServeOptions { trace: true, ..ServeOptions::default() };
    let strict = serve_fleet(&ctx, &opts, &MoteClient::new, &InstantClock);
    assert_eq!(strict.output.report, batch.report);
    assert_eq!(strict.output.telemetry, batch.telemetry);
    assert_eq!(strict.output.telemetry.to_jsonl(), batch.telemetry.to_jsonl());
}

#[test]
fn the_fleet_actually_did_something() {
    let report = run_scale(&metro_cfg(4));
    let totals = report.totals();
    assert_eq!(report.per_home.len(), 64);
    assert!(totals.episodes_started >= 64, "{totals:?}");
    assert!(totals.episodes_completed > 0, "{totals:?}");
    assert!(totals.sessions_started > 0, "{totals:?}");
    assert!(totals.pipeline_ticks > 10_000, "{totals:?}");
    assert!(totals.energy_uj > 0.0, "{totals:?}");
}
