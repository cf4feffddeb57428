//! Invariant oracles: properties every run must satisfy under *any*
//! fault plan.
//!
//! Event-stream oracles implement [`Oracle`] and watch the trace one
//! event at a time; [`check_trace`] runs the standard set. Whole-run
//! oracles ([`check_q`], [`check_engines`], [`check_jobs`]) compare
//! final state and cross-run fingerprints.

use crate::harness::{RunResult, TraceEvent};

/// One oracle violation: which invariant broke and how.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stable oracle name (used in `.seed.json` expectations and shrink
    /// equivalence).
    pub oracle: &'static str,
    /// Human-readable account of the failure.
    pub detail: String,
}

/// An invariant watching the event stream.
pub trait Oracle {
    /// Stable name.
    fn name(&self) -> &'static str;
    /// Observes one event; returns the failure detail on violation.
    fn observe(&mut self, ev: &TraceEvent) -> Result<(), String>;
    /// Called once after the last event, with the run horizon.
    fn finish(&mut self, _horizon_ms: u64) -> Result<(), String> {
        Ok(())
    }
}

/// The standard event-stream oracle set.
#[must_use]
pub fn standard_oracles() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(SessionLegality::default()),
        Box::new(NoRedBlinkOnPromptedTool),
        Box::new(EscalationMonotonicity::default()),
        Box::new(IdleTimeoutLiveness::default()),
    ]
}

/// Streams `trace` through the standard oracles; returns every violation.
#[must_use]
pub fn check_trace(trace: &[TraceEvent], horizon_ms: u64) -> Vec<Violation> {
    let mut oracles = standard_oracles();
    let mut violations = Vec::new();
    let mut dead: Vec<bool> = vec![false; oracles.len()];
    for ev in trace {
        for (oracle, dead) in oracles.iter_mut().zip(dead.iter_mut()) {
            if *dead {
                continue;
            }
            if let Err(detail) = oracle.observe(ev) {
                violations.push(Violation { oracle: oracle.name(), detail });
                // One report per oracle per run: later anomalies are
                // usually echoes of the first broken state.
                *dead = true;
            }
        }
    }
    for (oracle, dead) in oracles.iter_mut().zip(dead.iter_mut()) {
        if !*dead {
            if let Err(detail) = oracle.finish(horizon_ms) {
                violations.push(Violation { oracle: oracle.name(), detail });
            }
        }
    }
    violations
}

/// Q-table soundness: every value finite and inside the analytic bound
/// (`terminal / (1 - γ)`, with margin for eligibility-trace transients).
#[must_use]
pub fn check_q(q_values: &[f64], bound: f64) -> Option<Violation> {
    for (i, &v) in q_values.iter().enumerate() {
        if !v.is_finite() {
            return Some(Violation {
                oracle: "q_bound",
                detail: format!("q value #{i} is not finite: {v}"),
            });
        }
        if v.abs() > bound {
            return Some(Violation {
                oracle: "q_bound",
                detail: format!("q value #{i} = {v} exceeds bound {bound}"),
            });
        }
    }
    None
}

/// Differential oracle: event-driven wakes and dense 100 ms polling
/// must produce bit-identical runs for the same plan.
#[must_use]
pub fn check_engines(events: &RunResult, dense: &RunResult) -> Option<Violation> {
    differential("engine_equivalence", "event-driven", events, "dense", dense)
}

/// Differential oracle: a run that died at a checkpoint and resumed from
/// the decoded snapshot — a full one for the first death, an incremental
/// delta against the previous death's base after that, with the
/// write-ahead log torn mid-chunk each time — must be bit-identical to
/// the ghost run that was never interrupted, logged records included.
#[must_use]
pub fn check_resume(resumed: &RunResult, ghost: &RunResult) -> Option<Violation> {
    differential("resume_equivalence", "resumed", resumed, "ghost", ghost)
}

///// Differential oracle: a batch re-run at `jobs > 1` must reproduce the
/// serial results element for element.
#[must_use]
pub fn check_jobs(serial: &[RunResult], parallel: &[RunResult]) -> Option<Violation> {
    if serial.len() != parallel.len() {
        return Some(Violation {
            oracle: "jobs_equivalence",
            detail: format!(
                "batch size diverged: serial {s} vs parallel {p}",
                s = serial.len(),
                p = parallel.len()
            ),
        });
    }
    for (i, (s, p)) in serial.iter().zip(parallel).enumerate() {
        if let Some(mut v) = differential("jobs_equivalence", "jobs=1", s, "jobs=N", p) {
            v.detail = format!("plan #{i} in batch: {}", v.detail);
            return Some(v);
        }
    }
    None
}

fn differential(
    oracle: &'static str,
    left_name: &str,
    left: &RunResult,
    right_name: &str,
    right: &RunResult,
) -> Option<Violation> {
    if left == right {
        return None;
    }
    let detail = if left.stats != right.stats {
        format!(
            "{left_name} stats {ls:?} != {right_name} stats {rs:?}",
            ls = left.stats,
            rs = right.stats
        )
    } else if left.trace != right.trace {
        let at = left
            .trace
            .iter()
            .zip(&right.trace)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| left.trace.len().min(right.trace.len()));
        format!(
            "traces diverge at event #{at}: {l:?} vs {r:?} (lengths {ll}/{rl})",
            l = left.trace.get(at),
            r = right.trace.get(at),
            ll = left.trace.len(),
            rl = right.trace.len()
        )
    } else if left.wal != right.wal {
        let at = left
            .wal
            .iter()
            .zip(&right.wal)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| left.wal.len().min(right.wal.len()));
        format!(
            "write-ahead logs diverge at record #{at}: {l:?} vs {r:?} (lengths {ll}/{rl})",
            l = left.wal.get(at),
            r = right.wal.get(at),
            ll = left.wal.len(),
            rl = right.wal.len()
        )
    } else {
        "q tables diverged".to_string()
    };
    Some(Violation { oracle, detail })
}

/// Session state-machine legality: `Started` only on a closed tracker,
/// `Ended`/`CrossActivityUse` only on the open session's activity.
#[derive(Debug, Default)]
pub struct SessionLegality {
    open: Option<u32>,
}

impl Oracle for SessionLegality {
    fn name(&self) -> &'static str {
        "session_legality"
    }

    fn observe(&mut self, ev: &TraceEvent) -> Result<(), String> {
        match *ev {
            TraceEvent::SessionStarted { at_ms, activity } => {
                if let Some(open) = self.open {
                    return Err(format!(
                        "session for activity {activity} started at {at_ms} ms while activity {open} is still open"
                    ));
                }
                self.open = Some(activity);
            }
            TraceEvent::SessionEnded { at_ms, activity, .. } => match self.open {
                Some(open) if open == activity => self.open = None,
                Some(open) => {
                    return Err(format!(
                        "session for activity {activity} ended at {at_ms} ms but activity {open} is the one open"
                    ))
                }
                None => {
                    return Err(format!(
                        "session for activity {activity} ended at {at_ms} ms with no session open"
                    ))
                }
            },
            TraceEvent::CrossActivityUse { at_ms, active, .. } => match self.open {
                Some(open) if open == active => {}
                _ => {
                    return Err(format!(
                        "cross-activity flag at {at_ms} ms names activity {active} but that session is not open"
                    ))
                }
            },
            _ => {}
        }
        Ok(())
    }
}

/// The reminding layer must never red-blink the tool its own prompt is
/// simultaneously green-blinking: "stop using the kettle — use the
/// kettle" is an incoherent instruction for a confused user.
#[derive(Debug)]
pub struct NoRedBlinkOnPromptedTool;

impl Oracle for NoRedBlinkOnPromptedTool {
    fn name(&self) -> &'static str {
        "no_red_blink_on_prompted_tool"
    }

    fn observe(&mut self, ev: &TraceEvent) -> Result<(), String> {
        if let TraceEvent::Reminder { at_ms, prompt_tool, red_led_tool: Some(red), .. } = *ev {
            if red == prompt_tool {
                return Err(format!(
                    "reminder at {at_ms} ms red-blinks tool {red} while prompting that same tool"
                ));
            }
        }
        Ok(())
    }
}

/// Escalation monotonicity (minimal → specific): once a prompt in the
/// current streak went unanswered, every follow-up reminder before the
/// next advance must be at the specific level.
///
/// Any non-idle sense resets the tracked streak: it may be an advance or
/// a lookahead resync, both of which legitimately restart escalation,
/// and the trace alone cannot tell those apart from a wrong-tool use
/// (which does not reset). The oracle therefore under-approximates — a
/// stuck escalation counter is still caught by the next reminder of the
/// streak, which has no sense at its instant — but it never flags the
/// ambiguous coincidence.
#[derive(Debug, Default)]
pub struct EscalationMonotonicity {
    streak: u32,
}

impl Oracle for EscalationMonotonicity {
    fn name(&self) -> &'static str {
        "escalation_monotonicity"
    }

    fn observe(&mut self, ev: &TraceEvent) -> Result<(), String> {
        match *ev {
            TraceEvent::Reminder { at_ms, specific, .. } => {
                if self.streak > 0 && !specific {
                    return Err(format!(
                        "reminder #{n} of the streak at {at_ms} ms regressed to the minimal level",
                        n = self.streak + 1
                    ));
                }
                self.streak += 1;
            }
            TraceEvent::Praise { .. }
            | TraceEvent::EpisodeStarted { .. }
            | TraceEvent::EpisodeEnded { .. } => {
                self.streak = 0;
            }
            TraceEvent::StepSensed { step, .. } if step != 0 => {
                self.streak = 0;
            }
            _ => {}
        }
        Ok(())
    }
}

/// StepID 0 liveness: an idle detection while a session is open must,
/// within [`IdleTimeoutLiveness::BOUND_MS`], lead to a prompt, a session
/// close, a fresh step, or the episode's end — the system may never
/// shrug at a stalled user and do nothing.
#[derive(Debug, Default)]
pub struct IdleTimeoutLiveness {
    session_open: bool,
    pending_idle: Option<u64>,
}

impl IdleTimeoutLiveness {
    /// The response bound: the 120 s session idle-close plus margin for
    /// detection latency.
    pub const BOUND_MS: u64 = 150_000;

    fn check_deadline(&self, now_ms: u64) -> Result<(), String> {
        if let Some(t0) = self.pending_idle {
            if now_ms > t0 + Self::BOUND_MS {
                return Err(format!(
                    "idle sensed at {t0} ms with a session open drew no prompt, close, or progress within {} ms",
                    Self::BOUND_MS
                ));
            }
        }
        Ok(())
    }
}

impl Oracle for IdleTimeoutLiveness {
    fn name(&self) -> &'static str {
        "idle_timeout_liveness"
    }

    fn observe(&mut self, ev: &TraceEvent) -> Result<(), String> {
        self.check_deadline(ev.at_ms())?;
        match *ev {
            TraceEvent::SessionStarted { .. } => self.session_open = true,
            TraceEvent::SessionEnded { .. } => {
                self.session_open = false;
                self.pending_idle = None;
            }
            TraceEvent::StepSensed { at_ms, step } => {
                if step == 0 {
                    if self.session_open && self.pending_idle.is_none() {
                        self.pending_idle = Some(at_ms);
                    }
                } else {
                    self.pending_idle = None;
                }
            }
            TraceEvent::Reminder { .. } | TraceEvent::EpisodeEnded { .. } => {
                self.pending_idle = None;
            }
            _ => {}
        }
        Ok(())
    }

    fn finish(&mut self, horizon_ms: u64) -> Result<(), String> {
        self.check_deadline(horizon_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reminder(at_ms: u64, specific: bool) -> TraceEvent {
        TraceEvent::Reminder { at_ms, prompt_tool: 3, specific, wrong_tool: None, red_led_tool: None }
    }

    #[test]
    fn legal_session_stream_passes() {
        let trace = [
            TraceEvent::SessionStarted { at_ms: 100, activity: 0 },
            TraceEvent::CrossActivityUse { at_ms: 200, active: 0, foreign: 1, tool: 9 },
            TraceEvent::SessionEnded { at_ms: 300, activity: 0, completed: true },
            TraceEvent::SessionStarted { at_ms: 400, activity: 1 },
            TraceEvent::SessionEnded { at_ms: 500, activity: 1, completed: false },
        ];
        assert_eq!(check_trace(&trace, 1_000), vec![]);
    }

    #[test]
    fn double_start_is_flagged() {
        let trace = [
            TraceEvent::SessionStarted { at_ms: 100, activity: 0 },
            TraceEvent::SessionStarted { at_ms: 200, activity: 1 },
        ];
        let violations = check_trace(&trace, 1_000);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].oracle, "session_legality");
    }

    #[test]
    fn red_blink_on_prompted_tool_is_flagged() {
        let trace = [TraceEvent::Reminder {
            at_ms: 100,
            prompt_tool: 4,
            specific: false,
            wrong_tool: Some(4),
            red_led_tool: Some(4),
        }];
        let violations = check_trace(&trace, 1_000);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].oracle, "no_red_blink_on_prompted_tool");
    }

    #[test]
    fn red_blink_on_a_different_tool_is_fine() {
        let trace = [TraceEvent::Reminder {
            at_ms: 100,
            prompt_tool: 4,
            specific: false,
            wrong_tool: Some(5),
            red_led_tool: Some(5),
        }];
        assert_eq!(check_trace(&trace, 1_000), vec![]);
    }

    #[test]
    fn escalation_regression_is_flagged() {
        let trace = [reminder(100, false), reminder(15_100, false)];
        let violations = check_trace(&trace, 20_000);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].oracle, "escalation_monotonicity");
    }

    #[test]
    fn escalated_streak_passes() {
        let trace = [reminder(100, false), reminder(15_100, true), reminder(30_100, true)];
        assert_eq!(check_trace(&trace, 40_000), vec![]);
    }

    #[test]
    fn advance_resets_the_streak() {
        let trace = [
            reminder(100, false),
            TraceEvent::StepSensed { at_ms: 5_000, step: 4 },
            TraceEvent::Praise { at_ms: 5_000 },
            reminder(40_000, false),
        ];
        assert_eq!(check_trace(&trace, 50_000), vec![]);
    }

    #[test]
    fn stuck_escalation_is_caught_on_the_next_plain_reminder() {
        // A reminder sharing its instant with a non-idle sense is
        // ambiguous (wrong-tool use vs resync) and excused — but a stuck
        // escalation counter shows again 15 s later with no sense to
        // hide behind, and that one is flagged.
        let trace = [
            reminder(100, false),
            TraceEvent::StepSensed { at_ms: 15_100, step: 9 },
            reminder(15_100, false),
            reminder(30_100, false),
        ];
        let violations = check_trace(&trace, 40_000);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].oracle, "escalation_monotonicity");
    }

    #[test]
    fn resync_with_same_instant_reminder_restarts_the_streak() {
        // A lookahead resync resets the product's escalation counter; a
        // re-prompt landing at the same instant may legitimately drop
        // back to minimal.
        let trace = [
            reminder(100, false),
            TraceEvent::StepSensed { at_ms: 15_100, step: 9 },
            reminder(15_100, false),
        ];
        assert_eq!(check_trace(&trace, 20_000), vec![]);
    }

    #[test]
    fn unanswered_idle_with_open_session_is_flagged() {
        let trace = [
            TraceEvent::SessionStarted { at_ms: 1_000, activity: 0 },
            TraceEvent::StepSensed { at_ms: 2_000, step: 0 },
        ];
        let violations = check_trace(&trace, 500_000);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].oracle, "idle_timeout_liveness");
    }

    #[test]
    fn idle_answered_by_session_close_passes() {
        let trace = [
            TraceEvent::SessionStarted { at_ms: 1_000, activity: 0 },
            TraceEvent::StepSensed { at_ms: 2_000, step: 0 },
            TraceEvent::SessionEnded { at_ms: 122_000, activity: 0, completed: false },
        ];
        assert_eq!(check_trace(&trace, 500_000), vec![]);
    }

    #[test]
    fn idle_without_a_session_is_exempt() {
        // Total radio blackout: nothing sensed ever opened a session, so
        // there is nothing the server could close or prompt about.
        let trace = [TraceEvent::StepSensed { at_ms: 2_000, step: 0 }];
        assert_eq!(check_trace(&trace, 500_000), vec![]);
    }

    #[test]
    fn q_bound_flags_nan_and_overflow() {
        assert!(check_q(&[0.0, 1.0], 10.0).is_none());
        assert_eq!(check_q(&[f64::NAN], 10.0).unwrap().oracle, "q_bound");
        assert_eq!(check_q(&[11.0], 10.0).unwrap().oracle, "q_bound");
        assert_eq!(check_q(&[f64::INFINITY], 10.0).unwrap().oracle, "q_bound");
    }
}
