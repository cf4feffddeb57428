//! Invariant oracles: properties every run must satisfy under *any*
//! fault plan.
//!
//! Event-stream oracles implement [`Oracle`] and watch one home's
//! serving tap ([`TapEvent`]) one event at a time; [`check_taps`] runs
//! the standard set. [`check_q`] checks the learned values a run ends
//! with; the cross-run differentials (`jobs_equivalence`,
//! `resume_equivalence`) live with the runs they compare, in
//! [`crate::harness`].

use coreda_core::metro::TapEvent;
use coreda_core::reminding::ReminderLevel;
use coreda_core::sessions::SessionEvent;

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
    fn observe(&mut self, ev: &TapEvent) -> Result<(), String>;
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

/// Streams one home's `taps` through the standard oracles; returns every
/// violation.
#[must_use]
pub fn check_taps(taps: &[TapEvent], horizon_ms: u64) -> Vec<Violation> {
    let mut oracles = standard_oracles();
    let mut violations = Vec::new();
    let mut dead: Vec<bool> = vec![false; oracles.len()];
    for ev in taps {
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

/// Session state-machine legality: `Started` only on a closed tracker,
/// `Ended`/`CrossActivityUse` only on the open session's activity.
#[derive(Debug, Default)]
pub struct SessionLegality {
    open: Option<usize>,
}

impl Oracle for SessionLegality {
    fn name(&self) -> &'static str {
        "session_legality"
    }

    fn observe(&mut self, ev: &TapEvent) -> Result<(), String> {
        let TapEvent::Session(ev) = *ev else { return Ok(()) };
        match ev {
            SessionEvent::Started { at, activity } => {
                let activity = activity.index();
                if let Some(open) = self.open {
                    return Err(format!(
                        "session for activity {activity} started at {at} while activity {open} is still open"
                    ));
                }
                self.open = Some(activity);
            }
            SessionEvent::Ended { at, activity, .. } => match self.open {
                Some(open) if open == activity.index() => self.open = None,
                Some(open) => {
                    return Err(format!(
                        "session for activity {} ended at {at} but activity {open} is the one open",
                        activity.index()
                    ))
                }
                None => {
                    return Err(format!(
                        "session for activity {} ended at {at} with no session open",
                        activity.index()
                    ))
                }
            },
            SessionEvent::CrossActivityUse { at, active, .. } => {
                if self.open != Some(active.index()) {
                    return Err(format!(
                        "cross-activity flag at {at} names activity {} but that session is not open",
                        active.index()
                    ));
                }
            }
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

    fn observe(&mut self, ev: &TapEvent) -> Result<(), String> {
        if let TapEvent::Reminder { at, prompt, red_led: Some(red), .. } = *ev {
            if red == prompt.tool {
                return Err(format!(
                    "reminder at {at} red-blinks tool {red} while prompting that same tool"
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
/// and the tap alone cannot tell those apart from a wrong-tool use
/// (which does not reset). A praise or an episode's end or start resets
/// it too; a tick's praise is tapped after the tick's reminders. The
/// oracle therefore under-approximates — a stuck escalation counter is
/// still caught by the next reminder of the streak, which has no sense at
/// its instant — but it never flags the ambiguous coincidence.
#[derive(Debug, Default)]
pub struct EscalationMonotonicity {
    streak: u32,
}

impl Oracle for EscalationMonotonicity {
    fn name(&self) -> &'static str {
        "escalation_monotonicity"
    }

    fn observe(&mut self, ev: &TapEvent) -> Result<(), String> {
        match *ev {
            TapEvent::Reminder { at, prompt, .. } => {
                if self.streak > 0 && prompt.level == ReminderLevel::Minimal {
                    return Err(format!(
                        "reminder #{n} of the streak at {at} regressed to the minimal level",
                        n = self.streak + 1
                    ));
                }
                self.streak += 1;
            }
            TapEvent::Tick { out, .. } if out.praises > 0 || out.finished => self.streak = 0,
            TapEvent::EpisodeStarted { .. } => self.streak = 0,
            TapEvent::StepSensed { step, .. } if !step.is_idle() => self.streak = 0,
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

    fn observe(&mut self, ev: &TapEvent) -> Result<(), String> {
        self.check_deadline(ev.at().as_millis())?;
        match *ev {
            TapEvent::Session(SessionEvent::Started { .. }) => self.session_open = true,
            TapEvent::Session(SessionEvent::Ended { .. }) => {
                self.session_open = false;
                self.pending_idle = None;
            }
            TapEvent::StepSensed { at, step } => {
                if !step.is_idle() {
                    self.pending_idle = None;
                } else if self.session_open && self.pending_idle.is_none() {
                    self.pending_idle = Some(at.as_millis());
                }
            }
            TapEvent::Reminder { .. } => self.pending_idle = None,
            TapEvent::Tick { out, .. } if out.finished => self.pending_idle = None,
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
    use coreda_adl::intern::NameId;
    use coreda_adl::step::StepId;
    use coreda_adl::tool::ToolId;
    use coreda_core::reminding::{Prompt, Trigger};
    use coreda_core::system::TickOutcome;
    use coreda_des::time::SimTime;

    fn ms(at_ms: u64) -> SimTime {
        SimTime::from_millis(at_ms)
    }

    fn reminder(at_ms: u64, specific: bool) -> TapEvent {
        let level = if specific { ReminderLevel::Specific } else { ReminderLevel::Minimal };
        TapEvent::Reminder {
            at: ms(at_ms),
            prompt: Prompt { tool: ToolId::new(3), level },
            trigger: Trigger::IdleTimeout,
            red_led: None,
        }
    }

    fn wrong_tool(prompted: u16, used: u16) -> TapEvent {
        TapEvent::Reminder {
            at: ms(100),
            prompt: Prompt { tool: ToolId::new(prompted), level: ReminderLevel::Minimal },
            trigger: Trigger::WrongTool { used: ToolId::new(used) },
            red_led: Some(ToolId::new(used)),
        }
    }

    fn sensed(at_ms: u64, step: u16) -> TapEvent {
        TapEvent::StepSensed { at: ms(at_ms), step: StepId::from_raw(step) }
    }

    fn started(at_ms: u64, activity: usize) -> TapEvent {
        let activity = NameId::from_index(activity);
        TapEvent::Session(SessionEvent::Started { activity, at: ms(at_ms) })
    }

    fn ended(at_ms: u64, activity: usize, completed: bool) -> TapEvent {
        TapEvent::Session(SessionEvent::Ended {
            activity: NameId::from_index(activity),
            at: ms(at_ms),
            completed,
        })
    }

    fn praise(at_ms: u64) -> TapEvent {
        TapEvent::Tick { at: ms(at_ms), out: TickOutcome { praises: 1, ..TickOutcome::default() } }
    }

    #[test]
    fn legal_session_stream_passes() {
        let cross = TapEvent::Session(SessionEvent::CrossActivityUse {
            active: NameId::from_index(0),
            foreign: NameId::from_index(1),
            tool: ToolId::new(9),
            at: ms(200),
        });
        let taps =
            [started(100, 0), cross, ended(300, 0, true), started(400, 1), ended(500, 1, false)];
        assert_eq!(check_taps(&taps, 1_000), vec![]);
    }

    #[test]
    fn double_start_is_flagged() {
        let violations = check_taps(&[started(100, 0), started(200, 1)], 1_000);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].oracle, "session_legality");
    }

    #[test]
    fn red_blink_on_prompted_tool_is_flagged() {
        let violations = check_taps(&[wrong_tool(4, 4)], 1_000);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].oracle, "no_red_blink_on_prompted_tool");
    }

    #[test]
    fn red_blink_on_a_different_tool_is_fine() {
        assert_eq!(check_taps(&[wrong_tool(4, 5)], 1_000), vec![]);
    }

    #[test]
    fn escalation_regression_is_flagged() {
        let violations = check_taps(&[reminder(100, false), reminder(15_100, false)], 20_000);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].oracle, "escalation_monotonicity");
    }

    #[test]
    fn escalated_streak_passes() {
        let taps = [reminder(100, false), reminder(15_100, true), reminder(30_100, true)];
        assert_eq!(check_taps(&taps, 40_000), vec![]);
    }

    #[test]
    fn advance_resets_the_streak() {
        let taps = [reminder(100, false), sensed(5_000, 4), praise(5_000), reminder(40_000, false)];
        assert_eq!(check_taps(&taps, 50_000), vec![]);
    }

    #[test]
    fn stuck_escalation_is_caught_on_the_next_plain_reminder() {
        // A reminder sharing its instant with a non-idle sense is
        // ambiguous (wrong-tool use vs resync) and excused — but a stuck
        // escalation counter shows again 15 s later with no sense to
        // hide behind, and that one is flagged.
        let taps = [
            reminder(100, false),
            sensed(15_100, 9),
            reminder(15_100, false),
            reminder(30_100, false),
        ];
        let violations = check_taps(&taps, 40_000);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].oracle, "escalation_monotonicity");
    }

    #[test]
    fn resync_with_same_instant_reminder_restarts_the_streak() {
        // A lookahead resync resets the product's escalation counter; a
        // re-prompt landing at the same instant may legitimately drop
        // back to minimal.
        let taps = [reminder(100, false), sensed(15_100, 9), reminder(15_100, false)];
        assert_eq!(check_taps(&taps, 20_000), vec![]);
    }

    #[test]
    fn unanswered_idle_with_open_session_is_flagged() {
        let violations = check_taps(&[started(1_000, 0), sensed(2_000, 0)], 500_000);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].oracle, "idle_timeout_liveness");
    }

    #[test]
    fn idle_answered_by_session_close_passes() {
        let taps = [started(1_000, 0), sensed(2_000, 0), ended(122_000, 0, false)];
        assert_eq!(check_taps(&taps, 500_000), vec![]);
    }

    #[test]
    fn idle_without_a_session_is_exempt() {
        // Total radio blackout: nothing sensed ever opened a session, so
        // there is nothing the server could close or prompt about.
        assert_eq!(check_taps(&[sensed(2_000, 0)], 500_000), vec![]);
    }

    #[test]
    fn q_bound_flags_nan_and_overflow() {
        assert!(check_q(&[0.0, 1.0], 10.0).is_none());
        assert_eq!(check_q(&[f64::NAN], 10.0).unwrap().oracle, "q_bound");
        assert_eq!(check_q(&[11.0], 10.0).unwrap().oracle, "q_bound");
        assert_eq!(check_q(&[f64::INFINITY], 10.0).unwrap().oracle, "q_bound");
    }
}
