//! Goldens for everything a wake reports: the flight recorder's JSONL
//! (counters, stage histograms and each home's trace ring in order), the
//! serving taps, the write-ahead log and the caregiver escalation log.
//!
//! Three runs cover the pipeline's event kinds: the trace-summary fleet
//! (4 homes × 600 s, seed 2007) and two DST corpus plans served through
//! testkit's fleet — `bad-day` (re-prompts, wrong tools, a
//! non-compliant patient) and `radio-burst-ge` (lost uplink frames and
//! LED commands). Each runs once with every observer on and its outputs
//! are byte-compared with `tests/golden/observers_<run>.*`. Every
//! observer turned on alone must then write the all-on run's bytes for
//! its own output: an observer only reads the wake, so what else is
//! switched on cannot move it. The telemetry is compared with a run of
//! the recorder plus care, since the escalation counters need care.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use coreda::core::escalation::CarePolicy;
use coreda::core::metro::{run, FaultSchedule, MetroConfig, RunOutput, RunSpec, ScaleReport};
use coreda::core::wal::WalRecord;
use coreda::des::time::SimDuration;
use coreda::testkit::harness::{dst_config, observe};
use coreda::testkit::json;
use coreda::testkit::plan::FaultPlan;

/// A policy eager enough that every run escalates within its horizon.
fn eager_policy() -> CarePolicy {
    CarePolicy {
        prompt_failure_streak: 1,
        missed_adl_streak: 1,
        ack_delay_ms: [20_000, 10_000, 5_000],
        resolve_after_ms: 30_000,
        ..CarePolicy::default()
    }
}

fn fleet_cfg() -> MetroConfig {
    MetroConfig {
        homes: 4,
        horizon: SimDuration::from_secs(600),
        seed: 2007,
        jobs: 1,
        ..MetroConfig::default()
    }
}

fn corpus_plan(name: &str) -> FaultPlan {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus").join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// One run's four outputs, rendered to the bytes the goldens hold.
struct Rendered {
    telemetry: String,
    taps: String,
    wal: String,
    care: String,
}

impl Rendered {
    fn of(out: &RunOutput) -> Rendered {
        Rendered {
            telemetry: out.telemetry.to_jsonl(),
            taps: taps_text(&out.report),
            wal: wal_text(&out.wal),
            care: out.care.as_ref().map(|c| c.render_log()).unwrap_or_default(),
        }
    }
}

/// Every home's taps, one per line, in home order.
fn taps_text(report: &ScaleReport) -> String {
    let mut text = String::new();
    for (home, events) in report.events.iter().flatten().enumerate() {
        for tap in events {
            let _ = writeln!(text, "{home} {tap:?}");
        }
    }
    text
}

fn wal_text(records: &[WalRecord]) -> String {
    records.iter().map(|r| format!("{r:?}\n")).collect()
}

fn golden_path(run: &str, output: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/observers_{run}.{output}"))
}

fn assert_golden(run: &str, output: &str, actual: &str, how: &str) {
    let path = golden_path(run, output);
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(!golden.is_empty(), "{}: an empty golden pins nothing", path.display());
    if actual != golden {
        let line = actual.lines().zip(golden.lines()).position(|(a, g)| a != g);
        panic!(
            "{how}: {output} of the {run} run drifted from {} (first differing line: {line:?}, \
             {} vs {} lines)",
            path.display(),
            actual.lines().count(),
            golden.lines().count(),
        );
    }
}

fn serve(cfg: &MetroConfig, faults: Option<&dyn FaultSchedule>, spec: RunSpec<'_>) -> Rendered {
    let out = run(cfg, &RunSpec { faults, ..spec }).expect("a fresh run cannot mismatch");
    Rendered::of(&out)
}

/// Holds one run's all-on outputs to its goldens, then each observer
/// alone to the same bytes.
fn check_run(name: &str, cfg: &MetroConfig, faults: Option<&dyn FaultSchedule>) {
    let policy = eager_policy();
    let care = Some(&policy);
    let all = RunSpec { record: true, trace: true, log: true, care, ..RunSpec::default() };
    let all_on = serve(cfg, faults, all);
    assert_golden(name, "telemetry.jsonl", &all_on.telemetry, "every observer on");
    assert_golden(name, "taps.txt", &all_on.taps, "every observer on");
    assert_golden(name, "wal.txt", &all_on.wal, "every observer on");
    assert_golden(name, "care.txt", &all_on.care, "every observer on");

    let alone = |spec: RunSpec<'_>| serve(cfg, faults, spec);
    let taps = alone(RunSpec { record: true, ..RunSpec::default() }).taps;
    assert_golden(name, "taps.txt", &taps, "taps alone");
    let wal = alone(RunSpec { log: true, ..RunSpec::default() }).wal;
    assert_golden(name, "wal.txt", &wal, "write-ahead log alone");
    let care_log = alone(RunSpec { care, ..RunSpec::default() }).care;
    assert_golden(name, "care.txt", &care_log, "care alone");
    let telemetry = alone(RunSpec { trace: true, care, ..RunSpec::default() }).telemetry;
    assert_golden(name, "telemetry.jsonl", &telemetry, "recorder with care");
}

/// A corpus plan served the way the DST harness serves it: the all-on
/// goldens, and testkit's `observe` (taps, recorder and log, no care)
/// writes the same taps and log, and the recorder's bytes without care.
fn check_plan(name: &str, file: &str) {
    let plan = corpus_plan(file);
    let cfg = dst_config(&plan, 1);
    check_run(name, &cfg, Some(&plan));
    let observed = observe(&cfg, Some(&plan), &[]).expect("a plan without kills observes");
    assert_golden(name, "taps.txt", &taps_text(&observed.report), "testkit observe");
    assert_golden(name, "wal.txt", &wal_text(&observed.wal), "testkit observe");
    let traced = serve(&cfg, Some(&plan), RunSpec { trace: true, ..RunSpec::default() });
    assert_eq!(observed.telemetry.to_jsonl(), traced.telemetry, "observe's recorder drifted");
}

#[test]
fn fleet_observers_match_their_goldens() {
    check_run("fleet", &fleet_cfg(), None);
}

#[test]
fn bad_day_observers_match_their_goldens() {
    check_plan("bad_day", "bad-day.seed.json");
}

#[test]
fn radio_burst_observers_match_their_goldens() {
    check_plan("radio_burst", "radio-burst-ge.seed.json");
}
