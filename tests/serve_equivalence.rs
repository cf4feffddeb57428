//! The serving headline guarantee, as a differential suite: under the
//! sim clock a served fleet — every home behind a byte-level wire
//! connection, every wake offered as a `Poll` frame and answered with a
//! `Report` — is bit-identical to the batch `run_scale` sweep. Grid,
//! rendered report, merged flight-recorder telemetry, care log and the
//! delivery log all match at any `--jobs` count, on either queue engine,
//! and wherever a paced clock cuts the serving windows.

use coreda::core::escalation::CarePolicy;
use coreda::core::metro::{
    run_scale, run_scale_care_traced, run_scale_recorded, run_scale_traced, run_scale_walled,
    EngineKind, MetroConfig, ServeCtx,
};
use coreda::des::rng::SimRng;
use coreda::des::time::{SimDuration, SimTime};
use coreda::des::{Clock, SimClock};
use coreda::serve::{serve_fleet, serve_scale, MoteClient, ServeOptions, ServeOutcome};

fn cfg(jobs: usize, engine: EngineKind) -> MetroConfig {
    MetroConfig {
        homes: 6,
        horizon: SimDuration::from_secs(600),
        seed: 2007,
        jobs,
        engine,
        gap_min: SimDuration::from_secs(60),
        gap_max: SimDuration::from_secs(180),
        train_episodes: 120,
        ..MetroConfig::default()
    }
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

#[test]
fn served_equals_batch_on_both_engines_at_any_jobs() {
    let policy = eager_policy();
    let opts = ServeOptions { record: false, trace: true, care: Some(policy.clone()) };
    for engine in [EngineKind::Wheel, EngineKind::Heap] {
        let batch = run_scale(&cfg(1, engine));
        let (walled, wal) = run_scale_walled(&cfg(1, engine));
        assert_eq!(walled, batch, "event logging must not perturb the batch run");
        let (traced, care) = run_scale_care_traced(&cfg(1, engine), &policy);
        assert_eq!(traced.report, batch, "tracing and care must not perturb the batch run");
        assert!(!care.events.is_empty(), "the eager policy must escalate");
        let mut sim_wire = None;
        for jobs in [1usize, 8] {
            let ctx = ServeCtx::new(cfg(jobs, engine))
                .expect("six homes fit in u32")
                .with_care(policy.clone());
            let cut = |seed| serve_fleet(&ctx, &opts, &MoteClient::new, &SteppingClock::new(seed));
            let runs: [(&str, ServeOutcome); 3] = [
                ("sim clock", serve_fleet(&ctx, &opts, &MoteClient::new, &SimClock)),
                ("cut windows 1", cut(1)),
                ("cut windows 2", cut(2)),
            ];
            for (clock, served) in runs {
                let case = format!("{engine} jobs {jobs} {clock}");
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
}

#[test]
fn served_telemetry_is_bit_identical_to_the_traced_batch() {
    let traced = run_scale_traced(&cfg(1, EngineKind::Wheel));
    for jobs in [1usize, 8] {
        let opts = ServeOptions { record: false, trace: true, care: None };
        let served =
            serve_scale(cfg(jobs, EngineKind::Wheel), &opts).expect("six homes fit in u32");
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
    // The wheel and the heap schedule wakes differently (sparse wakes vs
    // a dense tick poll), so whole-report equality is out (`des_events`
    // counts raw queue traffic) — but every home's outcome and every
    // delivery must agree, served, across engines *and* worker counts.
    let wheel = serve_scale(cfg(1, EngineKind::Wheel), &ServeOptions::default())
        .expect("six homes fit in u32");
    let heap = serve_scale(cfg(8, EngineKind::Heap), &ServeOptions::default())
        .expect("six homes fit in u32");
    assert_eq!(wheel.output.report.per_home, heap.output.report.per_home);
    assert_eq!(wheel.log, heap.log);
}

/// An empty fleet keeps the taps it was asked for, served and batch
/// alike: empty events, fleet telemetry, an empty log and care output.
#[test]
fn an_empty_fleet_serves_the_batch_taps() {
    let policy = eager_policy();
    let opts = ServeOptions { record: true, trace: true, care: Some(policy.clone()) };
    for jobs in [1usize, 8] {
        let empty = MetroConfig { homes: 0, ..cfg(jobs, EngineKind::Wheel) };
        let recorded = run_scale_recorded(&empty);
        assert_eq!(recorded.events, Some(Vec::new()), "jobs {jobs}");
        let (traced, care) = run_scale_care_traced(&empty, &policy);
        let (_, wal) = run_scale_walled(&empty);
        let served = serve_scale(empty, &opts).expect("an empty fleet fits in u32");
        assert_eq!(served.output.report, recorded, "jobs {jobs}");
        assert_eq!(served.output.telemetry.to_jsonl(), traced.telemetry.to_jsonl(), "jobs {jobs}");
        assert_eq!(served.log, wal, "jobs {jobs}");
        assert_eq!(served.care.as_ref(), Some(&care), "jobs {jobs}: care");
    }
}
