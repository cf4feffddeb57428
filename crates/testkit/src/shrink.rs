//! Greedy fault-plan shrinking: reduce a violating plan to a minimal
//! repro while the same oracle keeps firing.
//!
//! Classic delta-debugging-lite. Each pass proposes strictly smaller
//! candidates — drop one fault, halve the horizon, halve one window from
//! the tail or the head — re-runs the full deterministic check, and keeps
//! the first candidate that still trips the *same* oracle. Passes repeat
//! from the smaller plan until a fixpoint or the run budget is spent.

use crate::oracles::Violation;
use crate::plan::{FaultPlan, TICK_MS};

/// Hard cap on deterministic re-runs per shrink; each re-run is a whole
/// plan check (several fleet runs), so this bounds shrink latency.
pub const MAX_SHRINK_RUNS: usize = 200;

/// Horizons are never shrunk below this — a run needs room for at least
/// one full episode plus the idle-close window.
pub const MIN_HORIZON_MS: u64 = 60_000;

/// A shrink result: the minimal plan plus how many re-runs it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Shrunk {
    /// Minimal reproducing plan, with `expect_violation` filled in so it
    /// can be written straight into the regression corpus.
    pub plan: FaultPlan,
    /// Deterministic re-runs spent.
    pub runs: usize,
}

/// Shrinks `plan` while `oracle` (a [`Violation::oracle`] name) keeps
/// firing under `check` — usually [`crate::harness::check_plan`], which
/// routes each plan to the pipeline its faults target.
#[must_use]
pub fn shrink_with<F>(check: F, plan: &FaultPlan, oracle: &str) -> Shrunk
where
    F: Fn(&FaultPlan) -> Vec<Violation>,
{
    let mut best = plan.clone();
    let mut runs = 0usize;
    'passes: loop {
        for candidate in candidates(&best) {
            if runs >= MAX_SHRINK_RUNS {
                break 'passes;
            }
            runs += 1;
            let still_fires = check(&candidate).iter().any(|v| v.oracle == oracle);
            if still_fires {
                best = candidate;
                // Restart from the smaller plan: earlier candidates that
                // failed may succeed now that something else shrank.
                continue 'passes;
            }
        }
        break;
    }
    best.expect_violation = Some(oracle.to_owned());
    Shrunk { plan: best, runs }
}

/// Strictly smaller variants of `plan`, cheapest reductions first.
pub(crate) fn candidates(plan: &FaultPlan) -> Vec<FaultPlan> {
    let mut out = Vec::new();

    // Drop one fault at a time (keep at least one: an all-clear plan
    // cannot reproduce anything the fault model caused).
    if plan.faults.len() > 1 {
        for i in 0..plan.faults.len() {
            let mut p = plan.clone();
            p.faults.remove(i);
            out.push(p);
        }
    }

    // Halve the horizon, clamping windows into the new range.
    let half_horizon = round_to_tick((plan.horizon_ms / 2).max(MIN_HORIZON_MS));
    if half_horizon < plan.horizon_ms {
        let mut p = plan.clone();
        p.horizon_ms = half_horizon;
        for f in &mut p.faults {
            f.from_ms = f.from_ms.min(half_horizon);
            f.to_ms = f.to_ms.min(half_horizon);
        }
        out.push(p);
    }

    // Halve each window from the tail, then from the head.
    for i in 0..plan.faults.len() {
        let f = plan.faults[i];
        let len = f.window_ms();
        if len > TICK_MS {
            let half = round_to_tick(len / 2);
            let mut tail = plan.clone();
            tail.faults[i].to_ms = f.from_ms + half;
            out.push(tail);
            let mut head = plan.clone();
            head.faults[i].from_ms = f.to_ms - half;
            out.push(head);
        }
    }

    out
}

fn round_to_tick(ms: u64) -> u64 {
    (ms / TICK_MS).max(1) * TICK_MS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Fault, FaultKind};

    fn plan() -> FaultPlan {
        FaultPlan {
            seed: 9,
            horizon_ms: 240_000,
            faults: vec![
                Fault { kind: FaultKind::NonCompliance, from_ms: 0, to_ms: 100_000 },
                Fault { kind: FaultKind::SevereLapses, from_ms: 50_000, to_ms: 200_000 },
            ],
            expect_violation: None,
        }
    }

    #[test]
    fn candidates_are_strictly_smaller() {
        let base = plan();
        let base_mass: u64 = base.faults.iter().map(Fault::window_ms).sum();
        for c in candidates(&base) {
            let mass: u64 = c.faults.iter().map(Fault::window_ms).sum();
            let smaller = c.faults.len() < base.faults.len()
                || c.horizon_ms < base.horizon_ms
                || mass < base_mass;
            assert!(smaller, "candidate is not smaller: {c:?}");
            assert_eq!(c.seed, base.seed, "shrinking must never change the seed");
            for f in &c.faults {
                assert!(f.from_ms <= f.to_ms);
                assert!(f.to_ms <= c.horizon_ms);
                assert_eq!(f.from_ms % TICK_MS, 0);
                assert_eq!(f.to_ms % TICK_MS, 0);
            }
        }
    }

    #[test]
    fn never_drops_the_last_fault() {
        let mut single = plan();
        single.faults.truncate(1);
        assert!(candidates(&single).iter().all(|c| !c.faults.is_empty()));
    }

    #[test]
    fn horizon_respects_the_floor() {
        let mut short = plan();
        short.horizon_ms = MIN_HORIZON_MS;
        assert!(candidates(&short).iter().all(|c| c.horizon_ms >= MIN_HORIZON_MS));
    }
}
