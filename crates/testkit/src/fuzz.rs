//! The fuzz driver: expand seeds into plans, check them under a
//! wall-clock budget, shrink what fires, and write `.seed.json` repros.
//!
//! Plan `i` of a campaign is always `derive_seed(campaign_seed, "plan",
//! i)` — the stream of plans is fixed by the campaign seed; the wall
//! clock only decides how far down the stream the run gets. Every plan
//! runs through [`check_plan`] with all oracles attached: an in-process
//! plan serves the production fleet behind the fault overlay, at jobs 1
//! and at `jobs` workers ([`harness::check`]).

use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use coreda_core::fleet::derive_seed;

use crate::harness::{self, check_plan, dst_config, observe};
use crate::json;
use crate::plan::FaultPlan;
use crate::shrink;

/// A fuzz campaign's knobs.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Wall-clock budget in seconds.
    pub seconds: u64,
    /// Campaign seed; every plan seed derives from it.
    pub seed: u64,
    /// Worker count the in-process jobs-equivalence differential holds
    /// against jobs 1.
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
    /// [`crate::served::check_served`], whose differential spans full and
    /// single-instant serving windows and two worker counts.
    pub served: bool,
    /// Fuzz the caregiver escalation overlay: plans come from
    /// [`FaultPlan::generate_care`] (caregiver no-ack outage windows)
    /// and run through [`crate::care::check_care`], whose
    /// `escalation_consistency` differential spans two worker counts and
    /// the served path.
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
    /// JSONL dump of the shrunk plan's fleet run with the recorder on,
    /// whose last trace events lead straight up to the violation.
    pub trace_file: Option<PathBuf>,
}

/// Campaign summary.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Campaign seed.
    pub seed: u64,
    /// Distinct fault plans checked.
    pub plans_run: usize,
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
            "fuzz: seed {seed}, {n} plans in {secs:.1}s ({rate:.1}/s)\n",
            seed = self.seed,
            n = self.plans_run,
            secs = self.elapsed.as_secs_f64(),
            rate = self.plans_run as f64 / self.elapsed.as_secs_f64().max(1e-9),
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

/// Runs a campaign.
///
/// # Errors
///
/// Only I/O errors from writing repro files; simulation itself cannot
/// fail.
pub fn fuzz(cfg: &FuzzConfig) -> std::io::Result<FuzzReport> {
    let start = Instant::now();
    let budget = Duration::from_secs(cfg.seconds);
    let tools = harness::tool_ids();
    let mut report = FuzzReport { seed: cfg.seed, ..FuzzReport::default() };
    let mut index = 0u64;
    while start.elapsed() < budget && report.plans_run < cfg.max_plans {
        let plan_seed = derive_seed(cfg.seed, "plan", index);
        index += 1;
        let plan = if cfg.served {
            FaultPlan::generate_served(plan_seed)
        } else if cfg.care {
            FaultPlan::generate_care(plan_seed)
        } else if cfg.kill_resume {
            FaultPlan::generate(plan_seed, &tools).with_kill_resume()
        } else {
            FaultPlan::generate(plan_seed, &tools)
        };
        let mut violations = check_plan(&plan, cfg.jobs);
        report.plans_run += 1;
        // One repro per oracle: the same oracle firing in several homes
        // of one plan shrinks to the same file.
        let mut seen = Vec::new();
        violations.retain(|v| {
            let fresh = !seen.contains(&v.oracle);
            seen.push(v.oracle);
            fresh
        });
        for violation in violations {
            record_violation(cfg, &mut report, plan_seed, &plan, &violation)?;
        }
    }
    report.elapsed = start.elapsed();
    Ok(report)
}

fn record_violation(
    cfg: &FuzzConfig,
    report: &mut FuzzReport,
    plan_seed: u64,
    plan: &FaultPlan,
    violation: &crate::oracles::Violation,
) -> std::io::Result<()> {
    let shrunk = shrink::shrink_with(|p| check_plan(p, cfg.jobs), plan, violation.oracle);
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
    // Flight record: serve the shrunk plan's fleet with the recorder on
    // (recording draws no randomness) and dump it next to the repro. The
    // rings' last events are the pipeline activity leading up to the
    // violation. Served and care plans get none: their faults act on the
    // wire and the caregiver channel, which the recorder does not see.
    let trace_file = match cfg.trace_dir.as_ref().or(cfg.out_dir.as_ref()) {
        Some(_) if plan.has_frame_faults() || plan.has_care_faults() => None,
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            let plan = &shrunk.plan;
            let run = observe(&dst_config(plan, 1), Some(plan), &[])
                .expect("a run that never dies cannot fail");
            let trace_path =
                dir.join(format!("{}-{plan_seed:016x}.trace.jsonl", violation.oracle));
            let mut tf = std::fs::File::create(&trace_path)?;
            tf.write_all(run.telemetry.to_jsonl().as_bytes())?;
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
        let cfg = FuzzConfig { seconds: 600, max_plans: 3, jobs: 2, ..FuzzConfig::default() };
        let report = fuzz(&cfg).unwrap();
        assert_eq!(report.plans_run, 3);
        assert!(report.passed(), "{report:?}");
        assert!(report.render().contains("3 plans"));
    }

    #[test]
    fn violations_dump_an_explanatory_flight_record() {
        let dir = std::env::temp_dir()
            .join(format!("coreda-fuzz-trace-test-{}", std::process::id()));
        let cfg = FuzzConfig { out_dir: Some(dir.clone()), ..FuzzConfig::default() };
        let plan = FaultPlan::generate(derive_seed(cfg.seed, "plan", 0), &harness::tool_ids());
        let violation = crate::oracles::Violation {
            oracle: "synthetic",
            detail: "forced for the dump test".to_owned(),
        };
        let mut report = FuzzReport::default();
        record_violation(&cfg, &mut report, plan.seed, &plan, &violation).unwrap();
        let found = &report.violations[0];
        let trace_path = found.trace_file.as_ref().expect("flight record written");
        let jsonl = std::fs::read_to_string(trace_path).unwrap();
        assert!(jsonl.lines().count() > harness::HOMES, "summary line + home lines: {jsonl}");
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
        let first = FaultPlan::generate(derive_seed(99, "plan", 0), &harness::tool_ids());
        let again = FaultPlan::generate(derive_seed(99, "plan", 0), &harness::tool_ids());
        assert_eq!(first, again);
    }
}
