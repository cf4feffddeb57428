//! The fuzz driver: expand seeds into plans, check them under a
//! wall-clock budget, shrink what fires, and write `.seed.json` repros.
//!
//! Plan `i` of a campaign is always `derive_seed(campaign_seed, "plan",
//! i)` — the stream of plans is fixed by the campaign seed; the wall
//! clock only decides how far down the stream the run gets. Every plan
//! runs under both wake policies with all oracles attached
//! ([`Harness::check`]),
//! and passing plans accumulate into batches that re-run through the
//! fleet engine at `jobs > 1` for the jobs-equivalence differential.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use coreda_core::fleet::{derive_seed, FleetEngine};
use coreda_core::telemetry::Telemetry;

use crate::harness::{Harness, RunResult, WakePolicy};
use crate::json;
use crate::plan::FaultPlan;
use crate::shrink;

/// Passing plans per jobs-differential batch: big enough that the
/// parallel re-run amortises thread startup, small enough that a
/// divergence is localised to a handful of seeds.
pub const JOBS_BATCH: usize = 16;

/// A fuzz campaign's knobs.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Wall-clock budget in seconds.
    pub seconds: u64,
    /// Campaign seed; every plan seed derives from it.
    pub seed: u64,
    /// Worker count for the jobs-equivalence differential.
    pub jobs: usize,
    /// Where to write shrunken `.seed.json` repros (`None` = don't).
    pub out_dir: Option<PathBuf>,
    /// Where to write flight-record `.trace.jsonl` dumps for violations
    /// (`None` = next to the repros in `out_dir`).
    pub trace_dir: Option<PathBuf>,
    /// Hard cap on plans regardless of remaining budget.
    pub max_plans: usize,
    /// Layer a [`FaultPlan::with_kill_resume`] process death onto every
    /// generated plan, so each run also exercises the durability codecs
    /// — the full checkpoint on the first death, the incremental delta
    /// codec on later deaths, and a write-ahead log torn mid-chunk every
    /// time — plus the `resume_equivalence` oracle against its ghost.
    pub kill_resume: bool,
    /// Fuzz the served ingestion path instead of the in-process
    /// pipeline: plans come from [`FaultPlan::generate_served`] (wire
    /// transport faults only) and run through
    /// [`crate::served::check_served`], whose differential already spans
    /// full and single-instant serving windows and two worker counts — so
    /// served campaigns skip the separate jobs batch.
    pub served: bool,
    /// Fuzz the caregiver escalation overlay: plans come from
    /// [`FaultPlan::generate_care`] (caregiver no-ack outage windows)
    /// and run through [`crate::care::check_care`], whose
    /// `escalation_consistency` differential spans two worker counts and
    /// the served path — so care campaigns also skip the separate jobs
    /// batch.
    pub care: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seconds: 60,
            seed: 2007,
            jobs: 3,
            out_dir: None,
            trace_dir: None,
            max_plans: usize::MAX,
            kill_resume: false,
            served: false,
            care: false,
        }
    }
}

/// One violation the campaign found, already shrunk.
#[derive(Debug, Clone)]
pub struct FoundViolation {
    /// Seed of the originally generated plan.
    pub plan_seed: u64,
    /// Name of the oracle that fired.
    pub oracle: String,
    /// The oracle's account of the failure.
    pub detail: String,
    /// Minimal reproducing plan (`expect_violation` filled in).
    pub shrunk: FaultPlan,
    /// Deterministic re-runs the shrink spent.
    pub shrink_runs: usize,
    /// Where the repro was written, when `out_dir` was set.
    pub file: Option<PathBuf>,
    /// Where the flight record was written, when `out_dir` was set: a
    /// JSONL dump of the shrunk plan re-run with the recorder on, whose
    /// last trace events lead straight up to the violation.
    pub trace_file: Option<PathBuf>,
}

/// Campaign summary.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Campaign seed.
    pub seed: u64,
    /// Distinct fault plans checked.
    pub plans_run: usize,
    /// Plans re-run through the parallel jobs differential.
    pub jobs_checked: usize,
    /// Violations found (shrunk, in discovery order).
    pub violations: Vec<FoundViolation>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl FuzzReport {
    /// Whether the campaign is clean.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable summary for the CLI.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fuzz: seed {seed}, {n} plans in {secs:.1}s ({rate:.1}/s), \
             {jobs} jobs-differential re-runs\n",
            seed = self.seed,
            n = self.plans_run,
            secs = self.elapsed.as_secs_f64(),
            rate = self.plans_run as f64 / self.elapsed.as_secs_f64().max(1e-9),
            jobs = self.jobs_checked,
        ));
        if self.passed() {
            out.push_str("fuzz: no oracle violations\n");
        } else {
            out.push_str(&format!("fuzz: {} VIOLATION(S)\n", self.violations.len()));
            for v in &self.violations {
                out.push_str(&format!(
                    "  [{oracle}] plan seed {seed}: {detail}\n    shrunk to {n} fault(s) over \
                     {horizon} ms in {runs} runs{file}\n",
                    oracle = v.oracle,
                    seed = v.plan_seed,
                    detail = v.detail,
                    n = v.shrunk.faults.len(),
                    horizon = v.shrunk.horizon_ms,
                    runs = v.shrink_runs,
                    file = v
                        .file
                        .as_ref()
                        .map(|p| format!(" -> {}", p.display()))
                        .unwrap_or_default(),
                ));
                if let Some(trace) = &v.trace_file {
                    out.push_str(&format!("    flight record -> {}\n", trace.display()));
                }
            }
        }
        out
    }
}

/// Runs a campaign on a freshly built [`Harness`].
///
/// # Errors
///
/// Only I/O errors from writing repro files; simulation itself cannot
/// fail.
pub fn fuzz(cfg: &FuzzConfig) -> std::io::Result<FuzzReport> {
    fuzz_with(&Harness::new(), cfg)
}

/// Runs a campaign on an existing harness (reuses the trained planners).
///
/// # Errors
///
/// Only I/O errors from writing repro files.
pub fn fuzz_with(harness: &Harness, cfg: &FuzzConfig) -> std::io::Result<FuzzReport> {
    let start = Instant::now();
    let budget = Duration::from_secs(cfg.seconds);
    let engine = FleetEngine::new(cfg.jobs);
    let mut report = FuzzReport { seed: cfg.seed, ..FuzzReport::default() };
    let mut batch: Vec<(FaultPlan, RunResult)> = Vec::new();

    let mut index = 0u64;
    while start.elapsed() < budget && report.plans_run < cfg.max_plans {
        let plan_seed = derive_seed(cfg.seed, "plan", index);
        index += 1;
        if cfg.served {
            let plan = FaultPlan::generate_served(plan_seed);
            let violations = crate::served::check_served(&plan);
            report.plans_run += 1;
            for violation in violations {
                record_violation(harness, cfg, &mut report, plan_seed, &plan, &violation)?;
            }
            continue;
        }
        if cfg.care {
            let plan = FaultPlan::generate_care(plan_seed);
            let violations = crate::care::check_care(&plan);
            report.plans_run += 1;
            for violation in violations {
                record_violation(harness, cfg, &mut report, plan_seed, &plan, &violation)?;
            }
            continue;
        }
        let mut plan = FaultPlan::generate(plan_seed, harness.tool_ids());
        if cfg.kill_resume {
            plan = plan.with_kill_resume();
        }
        let outcome = harness.check(&plan);
        report.plans_run += 1;
        if outcome.violations.is_empty() {
            batch.push((plan, outcome.canonical));
            if batch.len() >= JOBS_BATCH {
                flush_jobs_batch(harness, &engine, &mut batch, cfg, &mut report)?;
            }
        } else {
            for violation in outcome.violations {
                record_violation(harness, cfg, &mut report, plan_seed, &plan, &violation)?;
            }
        }
    }
    flush_jobs_batch(harness, &engine, &mut batch, cfg, &mut report)?;
    report.elapsed = start.elapsed();
    Ok(report)
}

/// Re-runs the batched plans at `jobs > 1` and checks the differential.
fn flush_jobs_batch(
    harness: &Harness,
    engine: &FleetEngine,
    batch: &mut Vec<(FaultPlan, RunResult)>,
    cfg: &FuzzConfig,
    report: &mut FuzzReport,
) -> std::io::Result<()> {
    if batch.is_empty() {
        return Ok(());
    }
    let drained: Vec<(FaultPlan, RunResult)> = std::mem::take(batch);
    let (plans, serial): (Vec<FaultPlan>, Vec<RunResult>) = drained.into_iter().unzip();
    let parallel = engine.map(plans.clone(), |plan| harness.run(&plan, WakePolicy::EventDriven));
    report.jobs_checked += plans.len();
    if let Some(violation) = crate::oracles::check_jobs(&serial, &parallel) {
        // Attribute the divergence to the first differing plan so the
        // repro is a single seed, not the whole batch.
        let culprit = serial
            .iter()
            .zip(&parallel)
            .position(|(s, p)| s != p)
            .unwrap_or(0);
        let plan = &plans[culprit];
        record_violation(harness, cfg, report, plan.seed, plan, &violation)?;
    }
    Ok(())
}

fn record_violation(
    harness: &Harness,
    cfg: &FuzzConfig,
    report: &mut FuzzReport,
    plan_seed: u64,
    plan: &FaultPlan,
    violation: &crate::oracles::Violation,
) -> std::io::Result<()> {
    // Served plans shrink through the served differential and care
    // plans through the escalation one; the in-process harness cannot
    // reproduce a wire-level or caregiver-channel fault.
    let shrunk = if plan.has_care_faults() {
        shrink::shrink_with(crate::care::check_care, plan, violation.oracle)
    } else if plan.has_frame_faults() {
        shrink::shrink_with(crate::served::check_served, plan, violation.oracle)
    } else {
        shrink::shrink(harness, plan, violation.oracle)
    };
    let file = match &cfg.out_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("{}-{plan_seed:016x}.seed.json", violation.oracle));
            let mut f = std::fs::File::create(&path)?;
            f.write_all(json::to_json(&shrunk.plan).as_bytes())?;
            Some(path)
        }
        None => None,
    };
    // Flight record: re-run the shrunk plan with the recorder on
    // (bit-identical to the violating run — recording draws no
    // randomness) and dump it next to the repro. The ring's last events
    // are the pipeline activity leading up to the violation.
    // No flight record for served or care plans: the recorder rides the
    // in-process drive loop, which neither repro path touches.
    let trace_file = match cfg.trace_dir.as_ref().or(cfg.out_dir.as_ref()) {
        Some(_) if plan.has_frame_faults() || plan.has_care_faults() => None,
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            let (_, rec) = harness.run_recorded(&shrunk.plan, WakePolicy::EventDriven);
            let telemetry = Telemetry { homes: vec![rec], ..Telemetry::default() };
            let trace_path =
                dir.join(format!("{}-{plan_seed:016x}.trace.jsonl", violation.oracle));
            let mut tf = std::fs::File::create(&trace_path)?;
            tf.write_all(telemetry.to_jsonl().as_bytes())?;
            Some(trace_path)
        }
        None => None,
    };
    report.violations.push(FoundViolation {
        plan_seed,
        oracle: violation.oracle.to_owned(),
        detail: violation.detail.clone(),
        shrunk: shrunk.plan,
        shrink_runs: shrunk.runs,
        file,
        trace_file,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_runs_and_counts_plans() {
        let harness = Harness::new();
        let cfg = FuzzConfig { seconds: 600, max_plans: 3, jobs: 2, ..FuzzConfig::default() };
        let report = fuzz_with(&harness, &cfg).unwrap();
        assert_eq!(report.plans_run, 3);
        // Every passing plan must have gone through the jobs differential.
        assert!(report.jobs_checked <= report.plans_run);
        if report.passed() {
            assert_eq!(report.jobs_checked, report.plans_run, "{report:?}");
        }
        assert!(report.render().contains("3 plans"));
    }

    #[test]
    fn violations_dump_an_explanatory_flight_record() {
        let harness = Harness::new();
        let dir = std::env::temp_dir()
            .join(format!("coreda-fuzz-trace-test-{}", std::process::id()));
        let cfg = FuzzConfig { out_dir: Some(dir.clone()), ..FuzzConfig::default() };
        let plan = FaultPlan::generate(derive_seed(cfg.seed, "plan", 0), harness.tool_ids());
        let violation = crate::oracles::Violation {
            oracle: "synthetic",
            detail: "forced for the dump test".to_owned(),
        };
        let mut report = FuzzReport::default();
        record_violation(&harness, &cfg, &mut report, plan.seed, &plan, &violation).unwrap();
        let found = &report.violations[0];
        let trace_path = found.trace_file.as_ref().expect("flight record written");
        let jsonl = std::fs::read_to_string(trace_path).unwrap();
        assert!(jsonl.lines().count() >= 2, "summary line + home line: {jsonl}");
        assert!(jsonl.contains("\"kind\":\"summary\""), "{jsonl}");
        assert!(jsonl.contains("\"events\""), "per-home trace events: {jsonl}");
        assert!(
            jsonl.contains("episode_started"),
            "ring should hold pipeline events leading to the violation: {jsonl}"
        );
        assert!(report.render().contains("flight record"), "{}", report.render());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn plan_stream_is_seed_deterministic() {
        let harness = Harness::new();
        let first = FaultPlan::generate(derive_seed(99, "plan", 0), harness.tool_ids());
        let again = FaultPlan::generate(derive_seed(99, "plan", 0), harness.tool_ids());
        assert_eq!(first, again);
    }
}
