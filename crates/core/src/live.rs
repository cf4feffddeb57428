//! Patient behaviours and the live episode log.
//!
//! The live system (see [`crate::system`]) drives a patient model through
//! an ADL over the full sensor → radio → sensing → planning → reminding
//! pipeline. The patient is abstracted behind [`PatientBehavior`] so the
//! same runner serves both the stochastic evaluation patients and the
//! scripted Figure 1 scenario.

use std::collections::HashMap;
use std::fmt;

use coreda_adl::activity::AdlSpec;
use coreda_adl::patient::{PatientAction, PatientProfile};
use coreda_adl::routine::Routine;
use coreda_adl::step::{Step, StepId};
use coreda_adl::tool::ToolId;
use coreda_des::rng::SimRng;
use coreda_des::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::reminding::{Prompt, Reminder};

/// A patient model the live runner can drive.
pub trait PatientBehavior: fmt::Debug {
    /// Decides what the patient does when about to start the routine step
    /// at position `idx` (never called for position 0 — people start
    /// their ADL on their own).
    fn at_boundary(
        &mut self,
        idx: usize,
        routine: &Routine,
        spec: &AdlSpec,
        rng: &mut SimRng,
    ) -> PatientAction;

    /// How long the patient spends on `step`.
    fn step_duration(&mut self, step: &Step, rng: &mut SimRng) -> SimDuration;

    /// Whether the patient follows `prompt` (only consulted while frozen
    /// or misusing a tool).
    fn complies(&mut self, prompt: &Prompt, rng: &mut SimRng) -> bool;
}

/// The default behaviour: a [`PatientProfile`] drawn stochastically.
#[derive(Debug, Clone)]
pub struct StochasticBehavior {
    profile: PatientProfile,
    /// Reused candidate-tool buffer so step boundaries allocate nothing
    /// in steady state. Pure scratch: contents never survive a call, so
    /// one behaviour instance can serve a whole fleet of homes.
    scratch_others: Vec<ToolId>,
}

impl StochasticBehavior {
    /// Wraps a profile.
    #[must_use]
    pub fn new(profile: PatientProfile) -> Self {
        StochasticBehavior { profile, scratch_others: Vec::new() }
    }

    /// The underlying profile.
    #[must_use]
    pub const fn profile(&self) -> &PatientProfile {
        &self.profile
    }
}

impl PatientBehavior for StochasticBehavior {
    fn at_boundary(
        &mut self,
        idx: usize,
        routine: &Routine,
        spec: &AdlSpec,
        rng: &mut SimRng,
    ) -> PatientAction {
        let correct = routine.steps()[idx];
        self.scratch_others.clear();
        self.scratch_others.extend(
            spec.tools()
                .iter()
                .map(coreda_adl::tool::Tool::id)
                .filter(|&t| StepId::from_tool(t) != correct),
        );
        self.profile.decide_next(routine, idx.saturating_sub(1), &self.scratch_others, rng)
    }

    fn step_duration(&mut self, step: &Step, rng: &mut SimRng) -> SimDuration {
        self.profile.step_duration(step, rng)
    }

    fn complies(&mut self, prompt: &Prompt, rng: &mut SimRng) -> bool {
        self.profile.respond_to_prompt(prompt.tool, rng) == PatientAction::Proceed
    }
}

/// A deterministic script: fixed step durations and errors injected at
/// chosen boundaries. Used to replay the paper's Figure 1 scenario
/// exactly.
#[derive(Debug, Clone, Default)]
pub struct ScriptedBehavior {
    /// Error to perform when reaching each boundary (consumed once).
    errors: HashMap<usize, PatientAction>,
    /// Fixed duration per step id; falls back to the step's mean.
    durations: HashMap<StepId, SimDuration>,
}

impl ScriptedBehavior {
    /// A script with no errors.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Injects `action` the first time boundary `idx` is reached.
    #[must_use]
    pub fn with_error(mut self, idx: usize, action: PatientAction) -> Self {
        self.errors.insert(idx, action);
        self
    }

    /// Fixes the duration of `step`.
    #[must_use]
    pub fn with_duration(mut self, step: StepId, d: SimDuration) -> Self {
        self.durations.insert(step, d);
        self
    }
}

impl PatientBehavior for ScriptedBehavior {
    fn at_boundary(
        &mut self,
        idx: usize,
        _routine: &Routine,
        _spec: &AdlSpec,
        _rng: &mut SimRng,
    ) -> PatientAction {
        self.errors.remove(&idx).unwrap_or(PatientAction::Proceed)
    }

    fn step_duration(&mut self, step: &Step, _rng: &mut SimRng) -> SimDuration {
        self.durations
            .get(&step.id())
            .copied()
            .unwrap_or_else(|| SimDuration::from_secs_f64(step.mean_duration_s()))
    }

    fn complies(&mut self, _prompt: &Prompt, _rng: &mut SimRng) -> bool {
        true
    }
}

/// Wraps any behaviour with the fault overlay's patient faults: while
/// `non_compliant` is set every prompt is ignored; while `lapsing` is set
/// step boundaries freeze or grab a wrong tool at elevated rates.
///
/// A metro shard's behaviour is always one of these. With no fault
/// schedule both flags stay off and it defers to `inner`; with one, the
/// overlay sets both flags from the desired state before every wake, so
/// the extra random draws happen at the same instants however the home
/// is woken.
#[derive(Debug)]
pub struct FaultyBehavior<B> {
    inner: B,
    /// Active non-compliance window: ignore every prompt.
    pub non_compliant: bool,
    /// Active severe-lapse window: error-prone step boundaries.
    pub lapsing: bool,
}

impl<B: PatientBehavior> FaultyBehavior<B> {
    /// Wraps `inner` with both fault flags off.
    pub fn new(inner: B) -> Self {
        FaultyBehavior { inner, non_compliant: false, lapsing: false }
    }
}

impl<B: PatientBehavior> PatientBehavior for FaultyBehavior<B> {
    fn at_boundary(
        &mut self,
        idx: usize,
        routine: &Routine,
        spec: &AdlSpec,
        rng: &mut SimRng,
    ) -> PatientAction {
        if self.lapsing {
            let roll = rng.uniform_range(0.0, 1.0);
            if roll < 0.25 {
                return PatientAction::Freeze;
            }
            if roll < 0.5 && !spec.tools().is_empty() {
                let tool = rng.choose(spec.tools());
                return PatientAction::WrongTool(coreda_adl::tool::Tool::id(tool));
            }
        }
        self.inner.at_boundary(idx, routine, spec, rng)
    }

    fn step_duration(&mut self, step: &Step, rng: &mut SimRng) -> SimDuration {
        self.inner.step_duration(step, rng)
    }

    fn complies(&mut self, prompt: &Prompt, rng: &mut SimRng) -> bool {
        if self.non_compliant {
            // Deliberately no inner draw: the window overrides the
            // patient, it does not consult them.
            return false;
        }
        self.inner.complies(prompt, rng)
    }
}

/// One entry of a live episode's log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogKind {
    /// The sensing subsystem recognised a new step.
    StepSensed(StepId),
    /// A reminder was delivered.
    ReminderIssued(Reminder),
    /// The user followed a prompt correctly and was praised (Figure 1's
    /// fixed "Excellent!", so the entry carries no per-event string).
    Praised,
    /// The ADL completed.
    AdlCompleted,
    /// Ground truth: the patient froze.
    PatientFroze,
    /// Ground truth: the patient grabbed the wrong tool.
    PatientMisused(ToolId),
    /// Ground truth: the patient (re)started a routine step.
    PatientStarted(StepId),
}

/// A timestamped live episode record — the machine-readable version of
/// the paper's Figure 1 timeline.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EpisodeLog {
    entries: Vec<(SimTime, LogKind)>,
}

impl EpisodeLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry.
    pub fn push(&mut self, at: SimTime, kind: LogKind) {
        self.entries.push((at, kind));
    }

    /// All entries, oldest first.
    #[must_use]
    pub fn entries(&self) -> &[(SimTime, LogKind)] {
        &self.entries
    }

    /// Drops every entry, keeping the buffer for the next episode.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The reminders issued, with timestamps.
    #[must_use]
    pub fn reminders(&self) -> Vec<(SimTime, &Reminder)> {
        self.entries
            .iter()
            .filter_map(|(t, k)| match k {
                LogKind::ReminderIssued(r) => Some((*t, r)),
                _ => None,
            })
            .collect()
    }

    /// Number of praise events.
    #[must_use]
    pub fn praise_count(&self) -> usize {
        self.entries.iter().filter(|(_, k)| matches!(k, LogKind::Praised)).count()
    }

    /// When the ADL completed, if it did.
    #[must_use]
    pub fn completed_at(&self) -> Option<SimTime> {
        self.entries.iter().find_map(|(t, k)| matches!(k, LogKind::AdlCompleted).then_some(*t))
    }

    /// The sensed step sequence.
    #[must_use]
    pub fn sensed_steps(&self) -> Vec<StepId> {
        self.entries
            .iter()
            .filter_map(|(_, k)| match k {
                LogKind::StepSensed(s) => Some(*s),
                _ => None,
            })
            .collect()
    }

    /// Renders the log as a human-readable timeline (one line per entry).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (t, kind) in &self.entries {
            let line = match kind {
                LogKind::StepSensed(s) => format!("sensed {s}"),
                LogKind::ReminderIssued(r) => {
                    let text = r.methods.iter().find_map(|m| match m {
                        crate::reminding::ReminderMethod::TextMessage(t) => Some(t.as_str()),
                        _ => None,
                    });
                    format!(
                        "reminder ({} methods, {} level): {}",
                        r.method_count(),
                        r.prompt.level,
                        text.unwrap_or("<no text>")
                    )
                }
                LogKind::Praised => "praise: Excellent!".to_owned(),
                LogKind::AdlCompleted => "ADL completed".to_owned(),
                LogKind::PatientFroze => "patient froze".to_owned(),
                LogKind::PatientMisused(tool) => format!("patient misuses {tool}"),
                LogKind::PatientStarted(s) => format!("patient starts {s}"),
            };
            let _ = writeln!(out, "[{t:>9}] {line}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reminding::{ReminderLevel, RemindingSubsystem, Trigger};
    use coreda_adl::activity::catalog;

    #[test]
    fn scripted_behavior_consumes_errors_once() {
        let tea = catalog::tea_making();
        let routine = Routine::canonical(&tea);
        let mut rng = SimRng::seed_from(0);
        let mut b = ScriptedBehavior::new().with_error(1, PatientAction::Freeze);
        assert_eq!(b.at_boundary(1, &routine, &tea, &mut rng), PatientAction::Freeze);
        assert_eq!(b.at_boundary(1, &routine, &tea, &mut rng), PatientAction::Proceed);
        assert_eq!(b.at_boundary(2, &routine, &tea, &mut rng), PatientAction::Proceed);
    }

    #[test]
    fn scripted_durations_override_means() {
        let tea = catalog::tea_making();
        let step = &tea.steps()[0];
        let mut rng = SimRng::seed_from(0);
        let mut b = ScriptedBehavior::new().with_duration(step.id(), SimDuration::from_secs(13));
        assert_eq!(b.step_duration(step, &mut rng), SimDuration::from_secs(13));
        let other = &tea.steps()[1];
        assert_eq!(
            b.step_duration(other, &mut rng),
            SimDuration::from_secs_f64(other.mean_duration_s())
        );
    }

    #[test]
    fn stochastic_behavior_unimpaired_always_proceeds() {
        let tea = catalog::tea_making();
        let routine = Routine::canonical(&tea);
        let mut rng = SimRng::seed_from(1);
        let mut b = StochasticBehavior::new(PatientProfile::unimpaired("x"));
        for idx in 1..4 {
            assert_eq!(b.at_boundary(idx, &routine, &tea, &mut rng), PatientAction::Proceed);
        }
    }

    #[test]
    fn non_compliance_window_overrides_inner() {
        let prompt = Prompt { tool: ToolId::new(3), level: ReminderLevel::Minimal };
        let mut b = FaultyBehavior::new(ScriptedBehavior::new());
        let mut rng = SimRng::seed_from(1);
        assert!(b.complies(&prompt, &mut rng), "scripted behavior always complies");
        b.non_compliant = true;
        assert!(!b.complies(&prompt, &mut rng));
        b.non_compliant = false;
        assert!(b.complies(&prompt, &mut rng));
    }

    #[test]
    fn log_queries_work() {
        let tea = catalog::tea_making();
        let mut log = EpisodeLog::new();
        let reminder = RemindingSubsystem::new("X").compose(
            Prompt { tool: ToolId::new(catalog::POT), level: ReminderLevel::Minimal },
            Trigger::IdleTimeout,
            &tea,
        );
        log.push(SimTime::from_secs(1), LogKind::StepSensed(StepId::from_raw(catalog::TEA_BOX)));
        log.push(SimTime::from_secs(13), LogKind::ReminderIssued(reminder));
        log.push(SimTime::from_secs(23), LogKind::Praised);
        log.push(SimTime::from_secs(80), LogKind::AdlCompleted);
        assert_eq!(log.reminders().len(), 1);
        assert_eq!(log.praise_count(), 1);
        assert_eq!(log.completed_at(), Some(SimTime::from_secs(80)));
        assert_eq!(log.sensed_steps(), vec![StepId::from_raw(catalog::TEA_BOX)]);
        let rendered = log.render();
        assert!(rendered.contains("Excellent!"));
        assert!(rendered.contains("ADL completed"));
    }
}
