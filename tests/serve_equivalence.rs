//! The serving headline guarantee, as a differential suite: under the
//! sim clock a served fleet — every home behind a byte-level wire
//! connection, every wake offered as a `Poll` frame and answered with a
//! `Report` — is bit-identical to the batch `run_scale` sweep. Grid,
//! rendered report, merged flight-recorder telemetry, care log and the
//! delivery log all match at any `--jobs` count and wherever a paced
//! clock cuts the serving windows — down to single-instant windows.

use coreda::core::escalation::CarePolicy;
use coreda::core::metro::{run, run_scale, MetroConfig, RunOutput, RunSpec, ServeCtx};
use coreda::des::rng::SimRng;
use coreda::des::time::{SimDuration, SimTime};
use coreda::des::{Clock, SimClock};
use coreda::serve::{serve_fleet, serve_scale, MoteClient, ServeOptions, ServeOutcome};
use coreda::testkit::served::InstantClock;

fn cfg(jobs: usize) -> MetroConfig {
    MetroConfig {
        homes: 6,
        horizon: SimDuration::from_secs(600),
        seed: 2007,
        jobs,
        gap_min: SimDuration::from_secs(60),
        gap_max: SimDuration::from_secs(180),
        train_episodes: 120,
        ..MetroConfig::default()
    }
}

/// A fresh batch run observing what `spec` asks for.
fn observe(config: &MetroConfig, spec: RunSpec<'_>) -> RunOutput {
    run(config, &spec).expect("a fresh run cannot mismatch")
}

/// A policy eager enough that six homes escalate within the horizon.
fn eager_policy() -> CarePolicy {
    CarePolicy {
        prompt_failure_streak: 1,
        missed_adl_streak: 1,
        ack_delay_ms: [20_000, 10_000, 5_000],
        resolve_after_ms: 30_000,
        ..CarePolicy::default()
    }
}

/// A clock that never sleeps but cuts the serving windows at seeded
/// points, standing in for a wall clock whose lead over the due instants
/// jitters: each wait moves the servable instant to the awaited one
/// plus a seeded stride in `[-20, 300)` ms, so a window may end at its
/// first instant, anywhere inside, or at the full width.
#[derive(Debug, Clone)]
struct SteppingClock {
    rng: SimRng,
    servable: SimTime,
}

impl SteppingClock {
    fn new(seed: u64) -> SteppingClock {
        SteppingClock { rng: SimRng::seed_from(seed), servable: SimTime::ZERO }
    }
}

impl Clock for SteppingClock {
    fn wait_until(&mut self, due: SimTime) {
        let stride = self.rng.uniform_usize(0, 320) as u64;
        self.servable = SimTime::from_millis((due.as_millis() + stride).saturating_sub(20));
    }

    fn servable(&self) -> SimTime {
        self.servable
    }
}

/// The served loop's two wake engines — full epoch windows on the sim
/// clock and single-instant windows on [`InstantClock`], the strict
/// `(due, seq)` sweep — plus seeded window cuts in between all serve the
/// batch run.
#[test]
fn served_equals_batch_on_both_engines_at_any_jobs() {
    let policy = eager_policy();
    let opts = ServeOptions { record: false, trace: true, care: Some(policy.clone()) };
    let batch = run_scale(&cfg(1));
    let walled = observe(&cfg(1), RunSpec { log: true, ..RunSpec::default() });
    assert_eq!(walled.report, batch, "event logging must not perturb the batch run");
    let wal = walled.wal;
    let spec = RunSpec { trace: true, care: Some(&policy), ..RunSpec::default() };
    let traced = observe(&cfg(1), spec);
    assert_eq!(traced.report, batch, "tracing and care must not perturb the batch run");
    let care = traced.care.expect("care was requested");
    assert!(!care.events.is_empty(), "the eager policy must escalate");
    let mut sim_wire = None;
    for jobs in [1usize, 8] {
        let ctx = ServeCtx::new(cfg(jobs))
            .expect("six homes fit in u32")
            .with_care(policy.clone());
        let cut = |seed| serve_fleet(&ctx, &opts, &MoteClient::new, &SteppingClock::new(seed));
        let runs: [(&str, ServeOutcome); 4] = [
            ("sim clock", serve_fleet(&ctx, &opts, &MoteClient::new, &SimClock)),
            ("instant windows", serve_fleet(&ctx, &opts, &MoteClient::new, &InstantClock)),
            ("cut windows 1", cut(1)),
            ("cut windows 2", cut(2)),
        ];
        for (clock, served) in runs {
            let case = format!("jobs {jobs} {clock}");
            // Full structural equality plus the rendered bytes: the
            // wire round-trip of every wake must change nothing.
            assert_eq!(served.output.report, batch, "{case}");
            assert_eq!(served.output.report.render(), batch.render(), "{case}");
            assert_eq!(
                served.output.telemetry.to_jsonl(),
                traced.telemetry.to_jsonl(),
                "{case}: telemetry"
            );
            // Every prompt the clients saw as a `Deliver` frame, in
            // fleet order — the batch write-ahead log exactly.
            assert_eq!(served.log, wal, "{case}");
            assert_eq!(served.care.as_ref(), Some(&care), "{case}: care");
            // Wire accounting is itself jobs- and clock-invariant:
            // sharding moves connections between workers and window
            // cuts move wakes between windows, never frames between
            // homes.
            match &sim_wire {
                None => sim_wire = Some(served.wire),
                Some(w) => assert_eq!(&served.wire, w, "{case}"),
            }
        }
    }
}

#[test]
fn served_telemetry_is_bit_identical_to_the_traced_batch() {
    let traced = observe(&cfg(1), RunSpec { trace: true, ..RunSpec::default() });
    for jobs in [1usize, 8] {
        let opts = ServeOptions { record: false, trace: true, care: None };
        let served = serve_scale(cfg(jobs), &opts).expect("six homes fit in u32");
        assert_eq!(served.output.report, traced.report, "jobs {jobs}");
        assert_eq!(
            served.output.telemetry.to_jsonl(),
            traced.telemetry.to_jsonl(),
            "served flight-recorder telemetry drifted from batch (jobs {jobs})"
        );
    }
}

#[test]
fn served_engines_agree_home_for_home() {
    // Full epoch windows and single-instant windows group a home's wakes
    // differently, but every home's outcome, every delivery, the DES
    // event count and the wire accounting must agree, served, across
    // window widths *and* worker counts.
    let epoch = serve_scale(cfg(1), &ServeOptions::default()).expect("six homes fit in u32");
    let ctx = ServeCtx::new(cfg(8)).expect("six homes fit in u32");
    let strict = serve_fleet(&ctx, &ServeOptions::default(), &MoteClient::new, &InstantClock);
    assert_eq!(epoch.output.report, strict.output.report);
    assert_eq!(epoch.log, strict.log);
    assert_eq!(epoch.wire, strict.wire);
}

/// An empty fleet keeps the taps it was asked for, served and batch
/// alike: empty events, fleet telemetry, an empty log and care output.
#[test]
fn an_empty_fleet_serves_the_batch_taps() {
    let policy = eager_policy();
    let opts = ServeOptions { record: true, trace: true, care: Some(policy.clone()) };
    for jobs in [1usize, 8] {
        let empty = MetroConfig { homes: 0, ..cfg(jobs) };
        let care = Some(&policy);
        let spec = RunSpec { record: true, trace: true, log: true, care, ..RunSpec::default() };
        let batch = observe(&empty, spec);
        assert_eq!(batch.report.events, Some(Vec::new()), "jobs {jobs}");
        let served = serve_scale(empty, &opts).expect("an empty fleet fits in u32");
        assert_eq!(served.output.report, batch.report, "jobs {jobs}");
        assert_eq!(served.output.telemetry.to_jsonl(), batch.telemetry.to_jsonl(), "jobs {jobs}");
        assert_eq!(served.log, batch.wal, "jobs {jobs}");
        assert_eq!(served.care, batch.care, "jobs {jobs}: care");
    }
}
