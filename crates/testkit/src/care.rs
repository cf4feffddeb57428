//! Caregiver-escalation harness: run fault plans against the care
//! overlay and check the `escalation_consistency` contract as oracles.
//!
//! A care plan carries only [`FaultKind::is_care_fault`] kinds —
//! caregiver outage windows applied as [`CarePolicy::no_ack_windows`]
//! policy input. The contract under test:
//!
//! - **Fires exactly when policy says**: the escalation log must equal
//!   an independent re-derivation of the policy table from the run's
//!   WAL — streak thresholds, drift windows, and the closed-form
//!   caregiver ack/resolve due times, outage windows included.
//! - **Never flaps**: per `(home, trigger)` the lifecycle strictly
//!   alternates raise → ack → resolve; an open escalation absorbs
//!   further threshold crossings.
//! - **Caregiver outages are honored**: no acknowledgment lands inside
//!   a no-ack window.
//! - **Determinism**: the care output is bit-identical across worker
//!   counts, and the served path (escalations as `Escalate` frames)
//!   equals the batch overlay.

use coreda_core::escalation::{CareEvent, CareEventKind, CarePolicy, CareTrigger};
use coreda_core::metro::{run, run_scale_care_walled, MetroConfig, RunSpec};
use coreda_core::wal::{WalRecord, EPISODE_COMPLETED, EPISODE_ENDED};
use coreda_des::time::SimDuration;
use coreda_serve::{serve_scale, ServeOptions};

use crate::harness::{check_resume, observe};
use crate::oracles::Violation;
use crate::plan::{FaultKind, FaultPlan};

/// The oracle name every care violation reports under.
pub const ORACLE: &str = "escalation_consistency";

/// Homes per care check: small enough that every plan runs one walled
/// batch, one parallel re-run, and one served fleet quickly; big enough
/// that the home-order merge of escalation logs is exercised.
pub const CARE_HOMES: usize = 3;

/// The fleet configuration a care plan expands to.
#[must_use]
pub fn care_config(plan: &FaultPlan, jobs: usize) -> MetroConfig {
    MetroConfig {
        homes: CARE_HOMES,
        horizon: SimDuration::from_millis(plan.horizon_ms),
        seed: plan.seed,
        jobs,
        train_episodes: 60,
        // Care horizons are short; compress the between-episode gaps so
        // streaks and trend windows actually accumulate (see served.rs).
        gap_min: SimDuration::from_secs(10),
        gap_max: SimDuration::from_secs(40),
        idle_close: SimDuration::from_secs(30),
        ..MetroConfig::default()
    }
}

/// The escalation policy a care plan runs under: thresholds eager
/// enough to trip within the short horizons, plus the plan's caregiver
/// outage windows.
#[must_use]
pub fn care_policy(plan: &FaultPlan) -> CarePolicy {
    let mut policy = CarePolicy {
        prompt_failure_streak: 1,
        missed_adl_streak: 1,
        drift_window: 4,
        drift_min_reminders: 2,
        ack_delay_ms: [30_000, 15_000, 5_000],
        resolve_after_ms: 20_000,
        ..CarePolicy::default()
    };
    for f in &plan.faults {
        if f.kind == FaultKind::CaregiverNoAck {
            policy.no_ack_windows.push((f.from_ms, f.to_ms));
        }
    }
    policy
}

/// One expected lifecycle event: `(at_ms, kind, trigger)`. Severity is
/// always `trigger.severity()` and checked separately.
type Expected = (u64, CareEventKind, CareTrigger);

/// Re-derives the full expected escalation log for one home from its
/// WAL records and the policy — independently of [`CareMonitor`]: no
/// due-event queue, just the closed-form caregiver timing (an
/// escalation raised at `t` is acked at `ack_due_ms(t)` and resolved
/// `resolve_after_ms` later, horizon permitting, with the trigger
/// re-armed from the resolve instant on).
///
/// [`CareMonitor`]: coreda_core::escalation::CareMonitor
fn expected_home_events(
    policy: &CarePolicy,
    wal: &[WalRecord],
    home: u32,
    horizon_ms: u64,
) -> Vec<Expected> {
    let mut out: Vec<Expected> = Vec::new();
    // `Some(resolve_due)` while the trigger's escalation is open; the
    // slot re-arms at records from `resolve_due` on.
    let mut open: [Option<u64>; 3] = [None; 3];
    let mut fail_streak = 0u64;
    let mut missed_streak = 0u64;
    let mut window_episodes = 0u64;
    let mut window_reminders = 0u64;
    let mut baseline: Option<u64> = None;

    fn try_raise(
        out: &mut Vec<Expected>,
        open: &mut [Option<u64>; 3],
        policy: &CarePolicy,
        horizon_ms: u64,
        trigger: CareTrigger,
        now: u64,
    ) -> bool {
        let slot = trigger as usize;
        if open[slot].is_some_and(|resolve_due| now < resolve_due) {
            return false; // absorbed by the open escalation: never-flap
        }
        out.push((now, CareEventKind::Raised, trigger));
        let ack_due = policy.ack_due_ms(now, trigger.severity());
        if ack_due <= horizon_ms {
            out.push((ack_due, CareEventKind::Acked, trigger));
        }
        let resolve_due = ack_due.saturating_add(policy.resolve_after_ms);
        if resolve_due <= horizon_ms {
            out.push((resolve_due, CareEventKind::Resolved, trigger));
        }
        open[slot] = Some(resolve_due);
        true
    }

    for rec in wal.iter().filter(|r| r.home == home) {
        let now = rec.at.as_millis();
        let reminders = u64::from(rec.reminders);
        window_reminders += reminders;
        if rec.praises > 0 {
            fail_streak = 0;
        } else if reminders > 0 {
            fail_streak += reminders;
            if fail_streak >= policy.prompt_failure_streak
                && try_raise(
                    &mut out,
                    &mut open,
                    policy,
                    horizon_ms,
                    CareTrigger::RepeatedPromptFailures,
                    now,
                )
            {
                fail_streak = 0;
            }
        }
        if rec.flags & EPISODE_ENDED != 0 {
            if rec.flags & EPISODE_COMPLETED != 0 {
                missed_streak = 0;
            } else {
                missed_streak += 1;
                if missed_streak >= policy.missed_adl_streak
                    && try_raise(
                        &mut out,
                        &mut open,
                        policy,
                        horizon_ms,
                        CareTrigger::MissedCriticalAdl,
                        now,
                    )
                {
                    missed_streak = 0;
                }
            }
            window_episodes += 1;
            if window_episodes >= policy.drift_window {
                let w = window_reminders;
                match baseline {
                    None => baseline = Some(w),
                    Some(base) => {
                        if w >= policy.drift_min_reminders
                            && w.saturating_mul(policy.drift_den)
                                > base.saturating_mul(policy.drift_num)
                        {
                            try_raise(
                                &mut out,
                                &mut open,
                                policy,
                                horizon_ms,
                                CareTrigger::ComplianceDrift,
                                now,
                            );
                        }
                    }
                }
                window_episodes = 0;
                window_reminders = 0;
            }
        }
    }
    // Tie order between a drained caregiver action and a same-instant
    // raise is a seq detail; compare as sorted multisets instead.
    out.sort_unstable_by_key(|&(at, kind, trigger)| (at, trigger as u8, kind as u8));
    out
}

fn actual_home_events(events: &[CareEvent], home: u32) -> Vec<Expected> {
    let mut out: Vec<Expected> = events
        .iter()
        .filter(|e| e.home == home)
        .map(|e| (e.at.as_millis(), e.kind, e.trigger))
        .collect();
    out.sort_unstable_by_key(|&(at, kind, trigger)| (at, trigger as u8, kind as u8));
    out
}

fn in_windows(windows: &[(u64, u64)], at_ms: u64) -> bool {
    windows.iter().any(|&(from, to)| from <= at_ms && at_ms < to)
}

/// Structural checks on the actual log alone: global `(at, home, seq)`
/// order, per-home contiguous sequence numbers, per-trigger lifecycle
/// alternation (never-flap), fixed trigger→severity mapping, no event
/// past the horizon, and no ack inside a caregiver outage.
fn check_log_shape(
    policy: &CarePolicy,
    events: &[CareEvent],
    horizon_ms: u64,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if !events.is_sorted_by_key(|e| (e.at, e.home, e.seq)) {
        violations.push(Violation {
            oracle: ORACLE,
            detail: "escalation log is not sorted by (at, home, seq)".to_owned(),
        });
    }
    for home in 0..CARE_HOMES as u32 {
        let mut next_seq = 0u32;
        // Lifecycle state per trigger: 0 = closed, 1 = raised, 2 = acked.
        let mut state = [0u8; 3];
        let mut ordered: Vec<&CareEvent> = events.iter().filter(|e| e.home == home).collect();
        ordered.sort_unstable_by_key(|e| e.seq);
        for e in ordered {
            if e.seq != next_seq {
                violations.push(Violation {
                    oracle: ORACLE,
                    detail: format!(
                        "home {home}: seq {} where {next_seq} was expected — per-home \
                         sequence numbers must be contiguous from 0",
                        e.seq
                    ),
                });
            }
            next_seq = e.seq + 1;
            if e.at.as_millis() > horizon_ms {
                violations.push(Violation {
                    oracle: ORACLE,
                    detail: format!("home {home}: event #{} past the horizon", e.seq),
                });
            }
            if e.severity != e.trigger.severity() {
                violations.push(Violation {
                    oracle: ORACLE,
                    detail: format!(
                        "home {home}: {} event carries severity {} instead of the \
                         trigger's fixed {}",
                        e.trigger.name(),
                        e.severity.name(),
                        e.trigger.severity().name()
                    ),
                });
            }
            let slot = e.trigger as usize;
            let (want, next) = match e.kind {
                CareEventKind::Raised => (0, 1),
                CareEventKind::Acked => (1, 2),
                CareEventKind::Resolved => (2, 0),
            };
            if state[slot] != want {
                violations.push(Violation {
                    oracle: ORACLE,
                    detail: format!(
                        "home {home}: {} {:?} out of lifecycle order (flap or skipped \
                         caregiver action)",
                        e.trigger.name(),
                        e.kind
                    ),
                });
            }
            state[slot] = next;
            if e.kind == CareEventKind::Acked
                && in_windows(&policy.no_ack_windows, e.at.as_millis())
            {
                violations.push(Violation {
                    oracle: ORACLE,
                    detail: format!(
                        "home {home}: ack at {} ms lands inside a caregiver no-ack window",
                        e.at.as_millis()
                    ),
                });
            }
        }
    }
    violations
}

/// Runs a care plan through the full differential: walled batch
/// reference (`jobs = 1`), batch re-run at `jobs = 2`, served fleet at
/// `jobs = 2`, the kill-resume drive when the plan carries kills, plus
/// the WAL re-derivation and log-shape oracles.
/// Returns the violations (empty = contract holds).
#[must_use]
pub fn check_care(plan: &FaultPlan) -> Vec<Violation> {
    let policy = care_policy(plan);
    let (_, wal, care) = run_scale_care_walled(&care_config(plan, 1), &policy);
    let mut violations = Vec::new();

    let spec = RunSpec { care: Some(&policy), ..RunSpec::default() };
    let parallel = run(&care_config(plan, 2), &spec).expect("a fresh run cannot mismatch");
    if parallel.care.as_ref() != Some(&care) {
        violations.push(Violation {
            oracle: ORACLE,
            detail: "care output diverged between jobs 1 and jobs 2".to_owned(),
        });
    }

    let opts = ServeOptions { care: Some(policy.clone()), ..ServeOptions::default() };
    let served = serve_scale(care_config(plan, 2), &opts)
        .expect("care DST fleets are far below the u32 ceiling");
    if served.care.as_ref() != Some(&care) {
        violations.push(Violation {
            oracle: ORACLE,
            detail: "served care output diverged from the batch overlay".to_owned(),
        });
    }
    if served.wire.escalations != care.events.len() as u64 {
        violations.push(Violation {
            oracle: ORACLE,
            detail: format!(
                "{} Escalate frames on the wire for {} escalation events",
                served.wire.escalations,
                care.events.len()
            ),
        });
    }

    // Fleet-level process death: the care fleet dies at each kill tick
    // and resumes through the codecs, the same drive the in-process
    // check uses. Kill ticks may land inside an epoch window — the sweep
    // must clip the window exactly at the stop, or the snapshot would
    // carry wakes past it.
    let kills = plan.kills();
    if !kills.is_empty() {
        let cfg = care_config(plan, 1);
        let ghost = observe(&cfg, None, &[]).expect("a run that never dies cannot fail");
        violations.extend(check_resume(&ghost, &cfg, None, &kills));
    }

    violations.extend(check_log_shape(&policy, &care.events, plan.horizon_ms));

    for home in 0..CARE_HOMES as u32 {
        let expected = expected_home_events(&policy, &wal, home, plan.horizon_ms);
        let actual = actual_home_events(&care.events, home);
        if expected != actual {
            violations.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "home {home}: escalation log disagrees with the policy re-derivation \
                     from the WAL ({} events expected, {} emitted)",
                    expected.len(),
                    actual.len()
                ),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Fault;

    #[test]
    fn generated_care_plans_hold_the_contract() {
        let mut fired = false;
        for seed in 0..3 {
            let plan = FaultPlan::generate_care(seed);
            assert_eq!(check_care(&plan), vec![], "seed {seed}: {plan:?}");
            let policy = care_policy(&plan);
            let (_, _, care) =
                run_scale_care_walled(&care_config(&plan, 1), &policy);
            fired |= !care.events.is_empty();
        }
        assert!(fired, "care checks are vacuous: no plan ever escalated");
    }

    #[test]
    fn outage_windows_reach_the_policy_and_shift_acks() {
        let plan = FaultPlan {
            seed: 5,
            horizon_ms: 240_000,
            faults: vec![Fault {
                kind: FaultKind::CaregiverNoAck,
                from_ms: 0,
                to_ms: 120_000,
            }],
            expect_violation: None,
        };
        let policy = care_policy(&plan);
        assert_eq!(policy.no_ack_windows, vec![(0, 120_000)]);
        assert_eq!(check_care(&plan), vec![]);
        let (_, _, care) =
            run_scale_care_walled(&care_config(&plan, 1), &policy);
        assert!(
            care.events
                .iter()
                .filter(|e| e.kind == CareEventKind::Acked)
                .all(|e| e.at.as_millis() >= 120_000),
            "an ack landed inside the outage: {care:?}"
        );
    }

    #[test]
    fn a_sabotaged_log_trips_the_oracle() {
        // The structural checker must reject a duplicated raise (flap).
        let plan = FaultPlan::generate_care(0);
        let policy = care_policy(&plan);
        let (_, _, care) =
            run_scale_care_walled(&care_config(&plan, 1), &policy);
        let Some(raised) = care
            .events
            .iter()
            .find(|e| e.kind == CareEventKind::Raised)
            .copied()
        else {
            return; // nothing escalated under this seed; covered above
        };
        let mut sabotaged = care.events.clone();
        let mut dup = raised;
        dup.seq = u32::try_from(sabotaged.iter().filter(|e| e.home == dup.home).count())
            .expect("tiny log");
        sabotaged.push(dup);
        let shape = check_log_shape(&policy, &sabotaged, plan.horizon_ms);
        assert!(
            shape.iter().any(|v| v.detail.contains("flap")),
            "duplicate raise went unnoticed: {shape:?}"
        );
    }
}
