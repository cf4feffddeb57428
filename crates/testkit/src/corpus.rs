//! Regression-corpus replay: deterministically re-run checked-in
//! `.seed.json` plans and compare against their recorded expectations.
//!
//! A corpus entry either expects a named oracle violation (a shrunken
//! repro of a once-real bug — the named oracle must still fire) or
//! expects a clean pass (every oracle must stay silent). Replays are
//! bit-identical to the original fuzz run because a plan carries its own
//! seed and the fleet draws every stream from it.

use std::path::{Path, PathBuf};

use crate::harness::{check_plan, JOBS};
use crate::json;
use crate::oracles::Violation;

/// The result of replaying one corpus entry.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Source file, when replayed from disk.
    pub file: Option<PathBuf>,
    /// The plan's own seed.
    pub plan_seed: u64,
    /// The oracle the entry expects to fire (`None` = expects clean).
    pub expected: Option<String>,
    /// What actually fired.
    pub violations: Vec<Violation>,
    /// Whether reality matched the expectation.
    pub pass: bool,
}

impl ReplayOutcome {
    /// One-line summary for the CLI.
    #[must_use]
    pub fn render(&self) -> String {
        let name = self
            .file
            .as_ref()
            .and_then(|p| p.file_name())
            .map_or_else(|| format!("seed {:#x}", self.plan_seed), |n| n.to_string_lossy().into_owned());
        let verdict = if self.pass { "ok" } else { "FAIL" };
        let expectation = match &self.expected {
            Some(oracle) => format!("expects {oracle}"),
            None => "expects clean".to_owned(),
        };
        let got = if self.violations.is_empty() {
            "clean".to_owned()
        } else {
            self.violations
                .iter()
                .map(|v| v.oracle)
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!("{verdict:4} {name} ({expectation}; got {got})")
    }
}

/// Replays a plan from `.seed.json` text.
///
/// # Errors
///
/// Returns the parse error for malformed text.
pub fn replay_str(text: &str) -> Result<ReplayOutcome, String> {
    let plan = json::from_json(text)?;
    let violations = check_plan(&plan, JOBS);
    let pass = match &plan.expect_violation {
        Some(oracle) => violations.iter().any(|v| v.oracle == *oracle),
        None => violations.is_empty(),
    };
    Ok(ReplayOutcome {
        file: None,
        plan_seed: plan.seed,
        expected: plan.expect_violation,
        violations,
        pass,
    })
}

/// Replays one `.seed.json` file.
///
/// # Errors
///
/// Returns I/O failures and parse errors as a message naming the file.
pub fn replay_file(path: &Path) -> Result<ReplayOutcome, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut outcome = replay_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    outcome.file = Some(path.to_path_buf());
    Ok(outcome)
}

/// Replays every `*.seed.json` under `dir`, in file-name order.
///
/// # Errors
///
/// Fails on an unreadable directory, an unreadable or malformed entry,
/// or an empty corpus (an empty directory usually means a wrong path —
/// silently passing would be worse).
pub fn replay_dir(dir: &Path) -> Result<Vec<ReplayOutcome>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().ends_with(".seed.json")))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no .seed.json entries", dir.display()));
    }
    paths.iter().map(|p| replay_file(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    #[test]
    fn clean_plan_replays_as_pass() {
        let plan = FaultPlan {
            seed: 7,
            horizon_ms: 120_000,
            faults: vec![],
            expect_violation: None,
        };
        let outcome = replay_str(&json::to_json(&plan)).unwrap();
        assert!(outcome.pass, "{outcome:?}");
        assert!(outcome.render().starts_with("ok"));
    }

    #[test]
    fn wrong_expectation_fails_the_replay() {
        let plan = FaultPlan {
            seed: 7,
            horizon_ms: 120_000,
            faults: vec![],
            expect_violation: Some("q_bound".into()),
        };
        let outcome = replay_str(&json::to_json(&plan)).unwrap();
        assert!(!outcome.pass, "a clean run cannot satisfy an expected violation");
        assert!(outcome.render().starts_with("FAIL"));
    }

    #[test]
    fn malformed_text_is_an_error() {
        assert!(replay_str("not json").is_err());
    }
}
