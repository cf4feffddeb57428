//! The sensing subsystem (paper §2.1).
//!
//! Server-side: consumes the `ToolUse` reports the base station accepted
//! and turns them into a *StepID sequence*. Two responsibilities beyond
//! the raw mapping:
//!
//! - **Step-boundary detection** — consecutive windows of the same tool
//!   belong to one step; a report from a different tool opens a new step.
//! - **Idle detection** — "a StepID 0 to indicate nothing is done for a
//!   long time". How long is derived per-tool from the step-duration
//!   statistics, as the paper's footnote prescribes ("This time should be
//!   determined from the statistical data of how long a user will use
//!   this tool").

use std::sync::Arc;

use coreda_adl::activity::AdlSpec;
use coreda_adl::step::StepId;
use coreda_des::time::{SimDuration, SimTime};
use coreda_sensornet::node::NodeId;
use serde::{Deserialize, Serialize};

/// A step-level event produced by the sensing subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepEvent {
    /// When the event was recognised.
    pub at: SimTime,
    /// The step entered ([`StepId::IDLE`] for an idle timeout).
    pub step: StepId,
}

/// Converts tool-use reports into a step sequence with idle detection.
///
/// # Examples
///
/// ```
/// use coreda_adl::activity::catalog;
/// use coreda_core::sensing::SensingSubsystem;
/// use coreda_des::time::SimTime;
/// use coreda_sensornet::node::NodeId;
///
/// let tea = catalog::tea_making();
/// let mut sensing = SensingSubsystem::new(&tea);
/// let ev = sensing
///     .on_report(NodeId::new(catalog::TEA_BOX), SimTime::from_secs(1))
///     .expect("first report opens a step");
/// assert_eq!(ev.step.raw(), catalog::TEA_BOX);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensingSubsystem {
    /// `(step, idle timeout)` per known tool. Derived from the spec alone,
    /// so clones share it: a fleet's homes hold one table per activity.
    timeouts: Arc<[(StepId, SimDuration)]>,
    current: Option<StepId>,
    last_report_at: Option<SimTime>,
    history: Vec<StepEvent>,
}

impl SensingSubsystem {
    /// Multiplier over a step's mean duration used for its idle timeout
    /// (mean + 3σ would also do; the paper's example is a flat 30 s).
    const TIMEOUT_SD_FACTOR: f64 = 3.0;
    /// Idle timeout floor, so very short steps don't cause alarm storms.
    const MIN_TIMEOUT: SimDuration = SimDuration::from_secs(8);
    /// Idle timeout used before the first step (no tool statistics yet).
    pub const DEFAULT_TIMEOUT: SimDuration = SimDuration::from_secs(30);

    /// Creates the subsystem for one ADL, deriving per-tool idle timeouts
    /// from the spec's duration statistics.
    #[must_use]
    pub fn new(spec: &AdlSpec) -> Self {
        let timeouts = spec
            .steps()
            .iter()
            .map(|s| {
                let secs = s.mean_duration_s() + Self::TIMEOUT_SD_FACTOR * s.sd_duration_s();
                let t = SimDuration::from_secs_f64(secs).max(Self::MIN_TIMEOUT);
                (s.id(), t)
            })
            .collect();
        SensingSubsystem { timeouts, current: None, last_report_at: None, history: Vec::new() }
    }

    /// The idle timeout that applies while the user is in `step`.
    #[must_use]
    pub fn idle_timeout(&self, step: StepId) -> SimDuration {
        self.timeouts
            .iter()
            .find(|(s, _)| *s == step)
            .map_or(Self::DEFAULT_TIMEOUT, |&(_, t)| t)
    }

    /// The step the user is currently believed to be in.
    #[must_use]
    pub const fn current_step(&self) -> Option<StepId> {
        self.current
    }

    /// The recognised step history, oldest first.
    #[must_use]
    pub fn history(&self) -> &[StepEvent] {
        &self.history
    }

    /// The bare StepID sequence (what the planning subsystem consumes).
    #[must_use]
    pub fn step_sequence(&self) -> Vec<StepId> {
        self.history.iter().map(|e| e.step).collect()
    }

    /// Feeds one accepted tool-use report. Returns a [`StepEvent`] if the
    /// report opens a new step (i.e. it is not a repeat window of the
    /// current one).
    pub fn on_report(&mut self, node: NodeId, at: SimTime) -> Option<StepEvent> {
        let step = StepId::from_raw(node.raw());
        self.last_report_at = Some(at);
        if self.current == Some(step) {
            return None;
        }
        self.current = Some(step);
        let ev = StepEvent { at, step };
        self.history.push(ev);
        Some(ev)
    }

    /// Checks whether the user has been inactive past the current step's
    /// idle timeout. If so, emits an idle event (once — repeated checks
    /// while still idle return `None` until activity resumes).
    pub fn check_idle(&mut self, now: SimTime) -> Option<StepEvent> {
        let last = self.last_report_at?;
        let timeout = match self.current {
            Some(step) if !step.is_idle() => self.idle_timeout(step),
            _ => return None, // already idle, or nothing seen yet
        };
        if now.saturating_duration_since(last) >= timeout {
            self.current = Some(StepId::IDLE);
            let ev = StepEvent { at: now, step: StepId::IDLE };
            self.history.push(ev);
            Some(ev)
        } else {
            None
        }
    }

    /// Time since the last report, if any report has been seen.
    #[must_use]
    pub fn inactivity(&self, now: SimTime) -> Option<SimDuration> {
        self.last_report_at.map(|t| now.saturating_duration_since(t))
    }

    /// Forgets everything (start of a new trial).
    pub fn reset(&mut self) {
        self.current = None;
        self.last_report_at = None;
        self.history.clear();
    }

    /// Captures the subsystem's mutable state (checkpointing): the
    /// believed current step, the last-report instant, and the recognised
    /// history. Timeouts are derived from the spec and need no capture.
    #[must_use]
    pub fn export_state(&self) -> (Option<StepId>, Option<SimTime>, Vec<StepEvent>) {
        (self.current, self.last_report_at, self.history.clone())
    }

    /// Restores state captured by [`SensingSubsystem::export_state`] onto
    /// a subsystem freshly built from the same spec.
    pub fn restore_state(
        &mut self,
        current: Option<StepId>,
        last_report_at: Option<SimTime>,
        history: Vec<StepEvent>,
    ) {
        self.current = current;
        self.last_report_at = last_report_at;
        self.history = history;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coreda_adl::activity::catalog;

    fn sensing() -> SensingSubsystem {
        SensingSubsystem::new(&catalog::tea_making())
    }

    #[test]
    fn first_report_opens_step() {
        let mut s = sensing();
        let ev = s.on_report(NodeId::new(catalog::TEA_BOX), SimTime::from_secs(1)).unwrap();
        assert_eq!(ev.step, StepId::from_raw(catalog::TEA_BOX));
        assert_eq!(s.current_step(), Some(ev.step));
    }

    #[test]
    fn repeat_windows_do_not_duplicate_steps() {
        let mut s = sensing();
        s.on_report(NodeId::new(catalog::TEA_BOX), SimTime::from_secs(1));
        for t in 2..6 {
            assert!(s.on_report(NodeId::new(catalog::TEA_BOX), SimTime::from_secs(t)).is_none());
        }
        assert_eq!(s.step_sequence().len(), 1);
    }

    #[test]
    fn tool_change_opens_new_step() {
        let mut s = sensing();
        s.on_report(NodeId::new(catalog::TEA_BOX), SimTime::from_secs(1));
        let ev = s.on_report(NodeId::new(catalog::POT), SimTime::from_secs(8)).unwrap();
        assert_eq!(ev.step, StepId::from_raw(catalog::POT));
        assert_eq!(
            s.step_sequence(),
            vec![StepId::from_raw(catalog::TEA_BOX), StepId::from_raw(catalog::POT)]
        );
    }

    #[test]
    fn returning_to_a_tool_reopens_it() {
        let mut s = sensing();
        s.on_report(NodeId::new(catalog::TEA_BOX), SimTime::from_secs(1));
        s.on_report(NodeId::new(catalog::POT), SimTime::from_secs(5));
        assert!(s.on_report(NodeId::new(catalog::TEA_BOX), SimTime::from_secs(9)).is_some());
        assert_eq!(s.step_sequence().len(), 3);
    }

    #[test]
    fn idle_fires_after_timeout() {
        let mut s = sensing();
        let kettle = NodeId::new(catalog::KETTLE);
        s.on_report(kettle, SimTime::from_secs(10));
        let timeout = s.idle_timeout(StepId::from_raw(catalog::KETTLE));
        // Just before the timeout: nothing.
        assert!(s.check_idle(SimTime::from_secs(10) + timeout - SimDuration::from_millis(1)).is_none());
        // At the timeout: idle event.
        let ev = s.check_idle(SimTime::from_secs(10) + timeout).unwrap();
        assert!(ev.step.is_idle());
        assert_eq!(s.current_step(), Some(StepId::IDLE));
    }

    #[test]
    fn idle_fires_only_once_per_gap() {
        let mut s = sensing();
        s.on_report(NodeId::new(catalog::KETTLE), SimTime::ZERO);
        let t = SimTime::from_secs(100);
        assert!(s.check_idle(t).is_some());
        assert!(s.check_idle(t + SimDuration::from_secs(10)).is_none());
        // Activity resumes, then another long gap re-arms idle detection.
        s.on_report(NodeId::new(catalog::TEA_CUP), SimTime::from_secs(120));
        assert!(s.check_idle(SimTime::from_secs(300)).is_some());
    }

    #[test]
    fn no_idle_before_any_activity() {
        let mut s = sensing();
        assert!(s.check_idle(SimTime::from_secs(1_000)).is_none());
    }

    #[test]
    fn timeouts_derive_from_duration_statistics() {
        let s = sensing();
        let tea = catalog::tea_making();
        for step in tea.steps() {
            let t = s.idle_timeout(step.id());
            let expected_secs =
                (step.mean_duration_s() + 3.0 * step.sd_duration_s()).max(8.0);
            assert!(
                (t.as_secs_f64() - expected_secs).abs() < 0.01,
                "timeout for {} should be {expected_secs}s, got {t}",
                step.name()
            );
        }
        // Unknown steps fall back to the paper's 30 s example.
        assert_eq!(s.idle_timeout(StepId::from_raw(99)), SensingSubsystem::DEFAULT_TIMEOUT);
    }

    #[test]
    fn inactivity_reports_gap() {
        let mut s = sensing();
        assert_eq!(s.inactivity(SimTime::from_secs(5)), None);
        s.on_report(NodeId::new(catalog::TEA_BOX), SimTime::from_secs(5));
        assert_eq!(s.inactivity(SimTime::from_secs(9)), Some(SimDuration::from_secs(4)));
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = sensing();
        s.on_report(NodeId::new(catalog::TEA_BOX), SimTime::from_secs(1));
        s.reset();
        assert_eq!(s.current_step(), None);
        assert!(s.history().is_empty());
        assert!(s.check_idle(SimTime::from_secs(500)).is_none());
    }
}
