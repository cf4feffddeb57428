//! The caregiver escalation overlay inherits the fleet's determinism
//! contract wholesale: the escalation log — every raise, ack, and
//! resolution, with its severity and trigger — is bit-identical at any
//! worker count, whatever serving windows the engine tiles its wakes
//! into, and whether the fleet runs in batch or behind the online
//! serving front end. The monitor is a pure fold over the write-ahead
//! event log, so any divergence here means the underlying event stream
//! itself diverged.

use coreda::core::escalation::{CareOutput, CarePolicy};
use coreda::core::metro::{run, run_scale, MetroConfig, RunSpec, ScaleReport, ServeCtx};
use coreda::des::time::SimDuration;
use coreda::serve::{serve_fleet, serve_scale, MoteClient, ServeOptions};
use coreda::testkit::served::InstantClock;

fn metro_cfg(jobs: usize) -> MetroConfig {
    MetroConfig {
        homes: 16,
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

/// A batch run with the escalation overlay on.
fn batch_care(config: &MetroConfig, policy: &CarePolicy) -> (ScaleReport, CareOutput) {
    let out = run(config, &RunSpec { care: Some(policy), ..RunSpec::default() })
        .expect("a fresh run cannot mismatch");
    (out.report, out.care.expect("care was requested"))
}

/// A policy eager enough that a 900 s horizon raises real escalations —
/// an empty log would make every equality below vacuous.
fn eager_policy() -> CarePolicy {
    CarePolicy {
        prompt_failure_streak: 1,
        missed_adl_streak: 1,
        drift_window: 4,
        drift_min_reminders: 2,
        ack_delay_ms: [30_000, 15_000, 5_000],
        resolve_after_ms: 20_000,
        ..CarePolicy::default()
    }
}

#[test]
fn escalation_log_is_byte_identical_at_jobs_1_and_8() {
    let policy = eager_policy();
    let (serial_report, serial) = batch_care(&metro_cfg(1), &policy);
    let (parallel_report, parallel) = batch_care(&metro_cfg(8), &policy);
    assert!(!serial.events.is_empty(), "the eager policy must actually fire");
    // Full structural equality of every event, then the rendered bytes.
    assert_eq!(serial.events, parallel.events);
    assert_eq!(serial.render_log(), parallel.render_log());
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(serial.analytics, parallel.analytics);
    assert_eq!(serial_report, parallel_report);
}

/// The engine's window tiling is invisible to the overlay: the batch
/// run's full epoch windows and a served fleet paced on single-instant
/// windows ([`InstantClock`], the strict `(due, seq)` sweep) log the
/// same escalations.
#[test]
fn escalation_log_is_engine_invariant() {
    let policy = eager_policy();
    let (_, batch) = batch_care(&metro_cfg(1), &policy);
    let ctx =
        ServeCtx::new(metro_cfg(1)).expect("sixteen homes fit in u32").with_care(policy.clone());
    let opts = ServeOptions { care: Some(policy), ..ServeOptions::default() };
    let strict = serve_fleet(&ctx, &opts, &MoteClient::new, &InstantClock);
    let care = strict.care.expect("care was requested");
    assert!(!batch.events.is_empty(), "the eager policy must actually fire");
    assert_eq!(care.events, batch.events);
    assert_eq!(care.render_log(), batch.render_log());
    assert_eq!(care.analytics, batch.analytics);
}

#[test]
fn served_escalations_equal_the_batch_overlay() {
    let policy = eager_policy();
    let (_, batch) = batch_care(&metro_cfg(1), &policy);
    for jobs in [1usize, 8] {
        let opts =
            ServeOptions { record: false, trace: false, care: Some(policy.clone()) };
        let served = serve_scale(metro_cfg(jobs), &opts)
            .expect("sixteen homes fit in u32");
        let care = served.care.as_ref().expect("care was requested");
        // The served overlay — every event having ridden the wire as an
        // `Escalate` frame — is the batch overlay, byte for byte.
        assert_eq!(care.events, batch.events, "jobs {jobs}");
        assert_eq!(care.render_log(), batch.render_log(), "jobs {jobs}");
        assert_eq!(care.analytics, batch.analytics, "jobs {jobs}");
        assert_eq!(
            served.wire.escalations,
            batch.events.len() as u64,
            "every escalation event must reach a client as one frame (jobs {jobs})"
        );
    }
}

#[test]
fn the_overlay_never_perturbs_the_fleet() {
    // Care is observation only: the report with the monitor attached is
    // the report without it, bit for bit.
    let plain = run_scale(&metro_cfg(2));
    let (report, _) = batch_care(&metro_cfg(2), &eager_policy());
    assert_eq!(plain, report);
    assert_eq!(plain.render(), report.render());
}
