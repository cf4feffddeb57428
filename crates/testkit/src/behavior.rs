//! Patient-behavior wrappers the fault windows drive.

use coreda_adl::activity::AdlSpec;
use coreda_adl::patient::PatientAction;
use coreda_adl::routine::Routine;
use coreda_adl::step::Step;
use coreda_adl::tool::Tool;
use coreda_core::live::PatientBehavior;
use coreda_core::reminding::Prompt;
use coreda_des::rng::SimRng;
use coreda_des::time::SimDuration;

/// Wraps any behavior with the plan-driven patient faults: during a
/// non-compliance window every prompt is ignored; during a severe-lapse
/// window step boundaries freeze or grab a wrong tool at elevated rates.
///
/// The harness flips the two flags from the fault windows before each
/// pipeline tick, so the extra random draws happen at exactly the same
/// instants whichever wake policy drives the run.
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
                return PatientAction::WrongTool(Tool::id(tool));
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

/// Ignores the first `ignore_first` prompts of the run, then behaves as
/// `inner` — the "stubborn patient" of the failure-injection tests, who
/// forces escalation from minimal to specific reminders.
#[derive(Debug)]
pub struct StubbornBehavior<B> {
    inner: B,
    ignore_first: usize,
    ignored: usize,
}

impl<B: PatientBehavior> StubbornBehavior<B> {
    /// Wraps `inner`, ignoring the first `ignore_first` prompts.
    pub fn new(inner: B, ignore_first: usize) -> Self {
        StubbornBehavior { inner, ignore_first, ignored: 0 }
    }

    /// Prompts ignored so far.
    #[must_use]
    pub const fn ignored(&self) -> usize {
        self.ignored
    }
}

impl<B: PatientBehavior> PatientBehavior for StubbornBehavior<B> {
    fn at_boundary(
        &mut self,
        idx: usize,
        routine: &Routine,
        spec: &AdlSpec,
        rng: &mut SimRng,
    ) -> PatientAction {
        self.inner.at_boundary(idx, routine, spec, rng)
    }

    fn step_duration(&mut self, step: &Step, rng: &mut SimRng) -> SimDuration {
        self.inner.step_duration(step, rng)
    }

    fn complies(&mut self, prompt: &Prompt, rng: &mut SimRng) -> bool {
        if self.ignored < self.ignore_first {
            self.ignored += 1;
            return false;
        }
        self.inner.complies(prompt, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coreda_core::live::ScriptedBehavior;
    use coreda_core::reminding::ReminderLevel;
    use coreda_adl::tool::ToolId;

    fn prompt() -> Prompt {
        Prompt { tool: ToolId::new(3), level: ReminderLevel::Minimal }
    }

    #[test]
    fn stubborn_ignores_then_complies() {
        let mut b = StubbornBehavior::new(ScriptedBehavior::new(), 2);
        let mut rng = SimRng::seed_from(1);
        assert!(!b.complies(&prompt(), &mut rng));
        assert!(!b.complies(&prompt(), &mut rng));
        assert!(b.complies(&prompt(), &mut rng));
        assert_eq!(b.ignored(), 2);
    }

    #[test]
    fn non_compliance_window_overrides_inner() {
        let mut b = FaultyBehavior::new(ScriptedBehavior::new());
        let mut rng = SimRng::seed_from(1);
        assert!(b.complies(&prompt(), &mut rng), "scripted behavior always complies");
        b.non_compliant = true;
        assert!(!b.complies(&prompt(), &mut rng));
        b.non_compliant = false;
        assert!(b.complies(&prompt(), &mut rng));
    }
}
