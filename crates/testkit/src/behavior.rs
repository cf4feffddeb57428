//! Patient-behaviour wrappers for failure-injection tests. The fault
//! windows' own wrapper, [`FaultyBehavior`], lives in core beside the
//! fault overlay that drives it.
//!
//! [`FaultyBehavior`]: coreda_core::live::FaultyBehavior

use coreda_adl::activity::AdlSpec;
use coreda_adl::patient::PatientAction;
use coreda_adl::routine::Routine;
use coreda_adl::step::Step;
use coreda_core::live::PatientBehavior;
use coreda_core::reminding::Prompt;
use coreda_des::rng::SimRng;
use coreda_des::time::SimDuration;

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
}
