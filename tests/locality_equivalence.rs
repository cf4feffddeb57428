//! The epoch-tiling headline guarantee, as a differential suite: how
//! wide a serving window is never shows. Every deterministic artifact of
//! a run on full epoch windows — the per-home grid and rendered report
//! with its DES event count, the flight-recorder telemetry down to its
//! JSONL bytes, the write-ahead event log down to its encoded bytes, the
//! care escalation log, and the served wire outcome — is bit-identical
//! to the strict `(due, seq)` sweep at any `--jobs`, batch or served.
//!
//! The strict sweep is a served fleet paced by testkit's
//! [`InstantClock`]: its windows are single instants, so the chain walk
//! serves wakes one instant at a time in `(due, seq)` order. No
//! production path selects it.
//!
//! The commutativity argument the suite enforces: an epoch window only
//! reorders wakes *across distinct homes*, and homes never interact, so
//! per-home sequences (the only state-bearing order) are untouched.

use coreda::core::escalation::CarePolicy;
use coreda::core::metro::{run, run_scale_care_walled, MetroConfig, RunSpec, ServeCtx};
use coreda::core::{config_digest, encode_wal};
use coreda::des::time::{SimDuration, SimTime};
use coreda::des::SimClock;
use coreda::serve::{serve_fleet, MoteClient, ServeOptions, ServeOutcome};
use coreda::testkit::served::InstantClock;

fn cfg(jobs: usize) -> MetroConfig {
    MetroConfig {
        homes: 24,
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

/// Serves `cfg(jobs)` with the flight recorder and the default care
/// policy on, every wake over the wire, paced by `clock`.
fn serve<K: coreda::des::Clock + Clone + Sync>(jobs: usize, clock: &K) -> ServeOutcome {
    let policy = CarePolicy::default();
    let ctx = ServeCtx::new(cfg(jobs)).expect("small fleets fit in u32").with_care(policy.clone());
    let opts = ServeOptions { record: false, trace: true, care: Some(policy) };
    serve_fleet(&ctx, &opts, &MoteClient::new, clock)
}

/// Report, WAL bytes, and care log: full windows ≡ strict at jobs 1 and
/// 8, against the strict jobs=1 reference (which is itself jobs
/// invariant).
#[test]
fn epoch_tiling_matches_strict_order_everywhere() {
    let policy = CarePolicy::default();
    let strict = serve(1, &InstantClock);
    let strict_care = strict.care.as_ref().expect("care was requested");
    for jobs in [1usize, 8] {
        let (report, wal, care) = run_scale_care_walled(&cfg(jobs), &policy);
        assert_eq!(report, strict.output.report, "jobs={jobs}: report diverged");
        assert_eq!(report.render(), strict.output.report.render());
        assert_eq!(wal, strict.log, "jobs={jobs}: WAL diverged");
        // Byte-level: the durable encoding of the log is identical too.
        let digest = config_digest(&cfg(jobs));
        assert_eq!(
            encode_wal(digest, &wal),
            encode_wal(digest, &strict.log),
            "jobs={jobs}: encoded WAL bytes diverged"
        );
        assert_eq!(&care, strict_care, "jobs={jobs}: care log diverged");
        let parallel = serve(jobs, &InstantClock);
        assert_eq!(parallel.output.report, strict.output.report, "strict jobs={jobs}");
        assert_eq!(parallel.log, strict.log, "strict jobs={jobs}: WAL diverged");
        assert_eq!(parallel.care.as_ref(), Some(strict_care), "strict jobs={jobs}: care");
    }
}

/// Telemetry equivalence at the serialization boundary: the JSONL the
/// trace CLI writes is byte-identical between full and single-instant
/// windows.
#[test]
fn epoch_telemetry_jsonl_is_byte_identical_to_strict() {
    let policy = CarePolicy::default();
    let strict = serve(1, &InstantClock);
    for jobs in [1usize, 8] {
        let spec = RunSpec { trace: true, care: Some(&policy), ..RunSpec::default() };
        let epoch = run(&cfg(jobs), &spec).expect("a fresh run cannot mismatch");
        assert_eq!(epoch.report, strict.output.report, "jobs={jobs}");
        assert_eq!(
            epoch.telemetry.to_jsonl(),
            strict.output.telemetry.to_jsonl(),
            "jobs={jobs}: telemetry JSONL diverged"
        );
    }
}

/// Served ≡ batch across the window boundary: an epoch-tiled served
/// fleet (every wake a `Poll` frame over the wire) reproduces the batch
/// run and the strict run — report, delivery log, telemetry — and the
/// wire accounting is itself window-invariant.
#[test]
fn epoch_served_fleet_matches_the_strict_batch_run() {
    let (batch, batch_wal, _) = run_scale_care_walled(&cfg(1), &CarePolicy::default());
    let strict = serve(1, &InstantClock);
    for jobs in [1usize, 8] {
        let served = serve(jobs, &SimClock);
        assert_eq!(served.output.report, batch, "jobs={jobs}");
        assert_eq!(served.log, batch_wal, "jobs={jobs}: served log diverged");
        assert_eq!(served.output.report, strict.output.report, "jobs={jobs}");
        assert_eq!(
            served.output.telemetry.to_jsonl(),
            strict.output.telemetry.to_jsonl(),
            "jobs={jobs}: telemetry diverged across window widths"
        );
        assert_eq!(
            served.wire, strict.wire,
            "jobs={jobs}: wire accounting diverged across window widths"
        );
    }
}

/// Checkpoints do not depend on where window boundaries fall: a stop
/// clips the window it lands in, so a run with an extra earlier stop
/// tiles every later window differently — yet it takes the same
/// snapshot, and the snapshot resumes to the strict reference exactly.
#[test]
fn checkpoints_are_sched_agnostic() {
    let config = cfg(1);
    // Off every home's 100 ms tick grid: no wake lands exactly on either stop.
    let early = SimTime::from_millis(97_411);
    let stop = SimTime::from_millis(300_037);
    let snap = |stops: &[SimTime]| {
        run(&config, &RunSpec { stops, ..RunSpec::default() })
            .expect("a fresh run cannot mismatch")
            .checkpoints
    };
    let direct = snap(&[stop]);
    let retiled = snap(&[early, stop]);
    assert_eq!(retiled[1], direct[0], "window tiling leaked into the snapshot");
    let resumed = run(&config, &RunSpec { resume: Some(&direct[0]), ..RunSpec::default() })
        .expect("a snapshot of this config resumes");
    let strict = serve(1, &InstantClock);
    assert_eq!(resumed.report, strict.output.report, "resume diverged from strict order");
}
