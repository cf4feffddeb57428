//! The planning subsystem (paper §2.2): TD(λ) Q-learning over step pairs.
//!
//! - A state is `<StepID_{i-1}, StepID_i>` — the previous and current step.
//! - An action is `<ToolID_{i+1}, Level_{i+1}>` — the prompt that would be
//!   sent to the reminding subsystem.
//! - Rewards follow the paper: **1000** when the transition completes the
//!   ADL, **100** for an intermediate step prompted at the minimal level,
//!   **50** at the specific level. The paper leaves the wrong-prediction
//!   case implicit; we complete it with **0** so that a prompt that does
//!   not match what the user actually did earns nothing — this is what
//!   makes the greedy policy converge to the user's personal routine.

use coreda_adl::activity::AdlSpec;
use coreda_adl::routine::Routine;
use coreda_adl::step::StepId;
use coreda_adl::tool::ToolId;
use coreda_des::rng::SimRng;
use coreda_rl::algo::{
    DoubleQLearning, DynaQ, ExpectedSarsa, Outcome, QLearning, Sarsa, TdConfig, TdControl,
    WatkinsQLambda,
};
use coreda_rl::policy::{EpsilonGreedy, Policy};
use coreda_rl::schedule::Schedule;
use coreda_rl::space::{ActionId, ProblemShape, StateId};
use coreda_rl::traces::TraceKind;
use serde::{Deserialize, Serialize};

use crate::reminding::{Prompt, ReminderLevel};

/// Bijective mapping between the planner's domain objects and dense RL
/// indices.
///
/// States enumerate every ordered pair over `{idle} ∪ steps`; actions
/// enumerate `tools × levels`.
///
/// # Examples
///
/// ```
/// use coreda_adl::activity::catalog;
/// use coreda_adl::step::StepId;
/// use coreda_core::planning::StateEncoder;
///
/// let tea = catalog::tea_making();
/// let enc = StateEncoder::new(&tea);
/// assert_eq!(enc.shape().states(), 25); // (4 steps + idle)²
/// assert_eq!(enc.shape().actions(), 8); // 4 tools × 2 levels
/// let s = enc.state_of(StepId::IDLE, tea.steps()[0].id()).unwrap();
/// assert_eq!(enc.decode_state(s), (StepId::IDLE, tea.steps()[0].id()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateEncoder {
    /// Idle first, then the spec's steps in canonical order.
    step_ids: Vec<StepId>,
    tools: Vec<ToolId>,
}

impl StateEncoder {
    /// Builds the encoder for one ADL.
    #[must_use]
    pub fn new(spec: &AdlSpec) -> Self {
        let mut step_ids = vec![StepId::IDLE];
        step_ids.extend(spec.step_ids());
        let tools = spec.tools().iter().map(coreda_adl::tool::Tool::id).collect();
        StateEncoder { step_ids, tools }
    }

    /// The RL problem dimensions.
    #[must_use]
    pub fn shape(&self) -> ProblemShape {
        let n = self.step_ids.len();
        ProblemShape::new(n * n, self.tools.len() * ReminderLevel::ALL.len())
    }

    fn step_index(&self, id: StepId) -> Option<usize> {
        self.step_ids.iter().position(|&s| s == id)
    }

    /// Encodes a `(previous, current)` step pair, or `None` if either step
    /// does not belong to this ADL.
    #[must_use]
    pub fn state_of(&self, prev: StepId, cur: StepId) -> Option<StateId> {
        let p = self.step_index(prev)?;
        let c = self.step_index(cur)?;
        Some(StateId::new(p * self.step_ids.len() + c))
    }

    /// Decodes a state back to its step pair.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range for this encoder.
    #[must_use]
    pub fn decode_state(&self, s: StateId) -> (StepId, StepId) {
        let n = self.step_ids.len();
        assert!(s.index() < n * n, "state {s} out of range");
        (self.step_ids[s.index() / n], self.step_ids[s.index() % n])
    }

    /// Encodes a prompt, or `None` if the tool is not part of this ADL.
    #[must_use]
    pub fn action_of(&self, prompt: Prompt) -> Option<ActionId> {
        let t = self.tools.iter().position(|&tool| tool == prompt.tool)?;
        let l = match prompt.level {
            ReminderLevel::Minimal => 0,
            ReminderLevel::Specific => 1,
        };
        Some(ActionId::new(t * 2 + l))
    }

    /// Decodes an action back to a prompt.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range for this encoder.
    #[must_use]
    pub fn decode_action(&self, a: ActionId) -> Prompt {
        assert!(a.index() < self.tools.len() * 2, "action {a} out of range");
        Prompt {
            tool: self.tools[a.index() / 2],
            level: if a.index().is_multiple_of(2) {
                ReminderLevel::Minimal
            } else {
                ReminderLevel::Specific
            },
        }
    }

    /// The tools this encoder prompts over.
    #[must_use]
    pub fn tools(&self) -> &[ToolId] {
        &self.tools
    }

    /// The step-id universe (idle first, then the spec's steps).
    #[must_use]
    pub fn step_ids(&self) -> &[StepId] {
        &self.step_ids
    }
}

/// The paper's reward constants, overridable for the reward-shape
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardConfig {
    /// Reward for a prompt matching the transition that completes the ADL.
    pub terminal: f64,
    /// Reward for a matching intermediate prompt at the minimal level.
    pub minimal: f64,
    /// Reward for a matching intermediate prompt at the specific level.
    pub specific: f64,
    /// Reward when the prompt does not match what the user did.
    pub mismatch: f64,
}

impl Default for RewardConfig {
    /// The values from §2.2 of the paper.
    fn default() -> Self {
        RewardConfig { terminal: 1000.0, minimal: 100.0, specific: 50.0, mismatch: 0.0 }
    }
}

impl RewardConfig {
    /// The reward for taking `prompt` when the user actually moved to
    /// `actual_next`, with `is_terminal` saying whether that completed the
    /// ADL.
    #[must_use]
    pub fn reward(&self, prompt: Prompt, actual_next: StepId, is_terminal: bool) -> f64 {
        let matched = actual_next.tool() == Some(prompt.tool);
        if !matched {
            return self.mismatch;
        }
        if is_terminal {
            self.terminal
        } else {
            match prompt.level {
                ReminderLevel::Minimal => self.minimal,
                ReminderLevel::Specific => self.specific,
            }
        }
    }
}

/// Which TD-control algorithm the planner runs (the paper uses
/// [`LearnerKind::WatkinsQLambda`]; the others exist for the ablation
/// studies and for deployments that prefer their trade-offs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LearnerKind {
    /// The paper's TD(λ) Q-learning (uses `lambda` and `trace_kind`).
    WatkinsQLambda,
    /// One-step Q-learning.
    QLearning,
    /// One-step SARSA (on-policy).
    Sarsa,
    /// Expected SARSA, its expectation taken under the planner's own
    /// exploration rate at episode 0 (`epsilon.value(0)`).
    ExpectedSarsa,
    /// Double Q-learning (bias-corrected; seeded from the planner seed).
    DoubleQ {
        /// Seed for the internal coin.
        seed: u64,
    },
    /// Dyna-Q model replay — the "fast learning" future-work item.
    DynaQ {
        /// Planning updates per real transition.
        planning_steps: usize,
        /// Seed for model sampling.
        seed: u64,
    },
}

/// The planner's learner, dispatching over the configured algorithm.
#[derive(Debug, Clone)]
enum Learner {
    WatkinsQLambda(WatkinsQLambda),
    QLearning(QLearning),
    Sarsa(Sarsa),
    ExpectedSarsa(ExpectedSarsa),
    DoubleQ(DoubleQLearning),
    DynaQ(DynaQ),
}

impl Learner {
    fn as_dyn(&self) -> &dyn TdControl {
        match self {
            Learner::WatkinsQLambda(l) => l,
            Learner::QLearning(l) => l,
            Learner::Sarsa(l) => l,
            Learner::ExpectedSarsa(l) => l,
            Learner::DoubleQ(l) => l,
            Learner::DynaQ(l) => l,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn TdControl {
        match self {
            Learner::WatkinsQLambda(l) => l,
            Learner::QLearning(l) => l,
            Learner::Sarsa(l) => l,
            Learner::ExpectedSarsa(l) => l,
            Learner::DoubleQ(l) => l,
            Learner::DynaQ(l) => l,
        }
    }
}

/// Hyper-parameters of the planning subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanningConfig {
    /// The TD-control algorithm to run.
    pub learner: LearnerKind,
    /// Learning-rate schedule (per observed transition).
    pub alpha: Schedule,
    /// Discount factor (the paper's "converge factor" β).
    pub gamma: f64,
    /// Eligibility-trace decay λ.
    pub lambda: f64,
    /// Trace refresh rule.
    pub trace_kind: TraceKind,
    /// Exploration schedule (per training episode).
    pub epsilon: Schedule,
    /// Reward constants.
    pub reward: RewardConfig,
}

impl Default for PlanningConfig {
    /// Defaults calibrated so that learning converges on the paper's
    /// Figure 4 time-scale (≥95 % within ~50 episodes, ≥98 % within
    /// ~90–100 on clean data). A moderate γ keeps the mismatch action's
    /// bootstrapped value (`γ·V(s')`) well below a matching prompt's
    /// (`100 + γ·V(s')`), so one lucky early exploration cannot lock in a
    /// wrong greedy action for long.
    fn default() -> Self {
        PlanningConfig {
            learner: LearnerKind::WatkinsQLambda,
            // Decaying per-update learning rate: high early for fast
            // acquisition, low late so noisy bootstraps stop flipping the
            // greedy action.
            alpha: Schedule::exponential(0.4, 0.997, 0.15),
            gamma: 0.05,
            lambda: 0.8,
            trace_kind: TraceKind::Replacing,
            epsilon: Schedule::constant(0.35),
            reward: RewardConfig::default(),
        }
    }
}

/// The planning subsystem: learns a user's routine and predicts the next
/// step as a [`Prompt`].
///
/// # Examples
///
/// ```
/// use coreda_adl::activity::catalog;
/// use coreda_adl::routine::Routine;
/// use coreda_core::planning::{PlanningConfig, PlanningSubsystem};
/// use coreda_des::rng::SimRng;
///
/// let tea = catalog::tea_making();
/// let routine = Routine::canonical(&tea);
/// let mut planner = PlanningSubsystem::new(&tea, PlanningConfig::default());
/// let mut rng = SimRng::seed_from(1);
/// for _ in 0..200 {
///     planner.train_episode(routine.steps(), &mut rng);
/// }
/// assert_eq!(planner.accuracy_vs_routine(&routine), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct PlanningSubsystem {
    encoder: StateEncoder,
    learner: Learner,
    policy: EpsilonGreedy,
    reward: RewardConfig,
    terminal_step: StepId,
    episodes_trained: u64,
    /// Reusable filtered-sequence buffer so per-episode training does not
    /// allocate (the fleet engine trains hundreds of episodes per job).
    scratch: Vec<StepId>,
}

impl PlanningSubsystem {
    /// Creates a planner for one ADL.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (λ or γ out of range).
    #[must_use]
    pub fn new(spec: &AdlSpec, cfg: PlanningConfig) -> Self {
        let encoder = StateEncoder::new(spec);
        let td = TdConfig::new(cfg.alpha, cfg.gamma);
        let shape = encoder.shape();
        let learner = match cfg.learner {
            LearnerKind::WatkinsQLambda => Learner::WatkinsQLambda(WatkinsQLambda::new(
                shape,
                td,
                cfg.lambda,
                cfg.trace_kind,
            )),
            LearnerKind::QLearning => Learner::QLearning(QLearning::new(shape, td)),
            LearnerKind::Sarsa => Learner::Sarsa(Sarsa::new(shape, td)),
            LearnerKind::ExpectedSarsa => {
                Learner::ExpectedSarsa(ExpectedSarsa::new(shape, td, cfg.epsilon.value(0)))
            }
            LearnerKind::DoubleQ { seed } => {
                Learner::DoubleQ(DoubleQLearning::new(shape, td, seed))
            }
            LearnerKind::DynaQ { planning_steps, seed } => {
                Learner::DynaQ(DynaQ::new(shape, td, planning_steps, seed))
            }
        };
        PlanningSubsystem {
            encoder,
            learner,
            policy: EpsilonGreedy::new(cfg.epsilon),
            reward: cfg.reward,
            terminal_step: spec.terminal_step(),
            episodes_trained: 0,
            scratch: Vec::new(),
        }
    }

    /// The encoder in use.
    #[must_use]
    pub const fn encoder(&self) -> &StateEncoder {
        &self.encoder
    }

    /// Number of training episodes consumed so far.
    #[must_use]
    pub const fn episodes_trained(&self) -> u64 {
        self.episodes_trained
    }

    /// Trains on one complete StepID sequence ("one training sample is a
    /// complete process of an ADL"). Idle events are skipped — they carry
    /// no routine information — and steps foreign to this ADL are ignored.
    ///
    /// Returns the number of transitions learned from.
    pub fn train_episode(&mut self, steps: &[StepId], rng: &mut SimRng) -> usize {
        let ep = self.episodes_trained;
        self.episodes_trained += 1;
        let mut seq = std::mem::take(&mut self.scratch);
        seq.clear();
        seq.extend(
            steps
                .iter()
                .copied()
                .filter(|s| !s.is_idle() && self.encoder.step_index(*s).is_some()),
        );
        if seq.len() < 2 {
            self.scratch = seq;
            return 0;
        }
        self.learner.as_dyn_mut().begin_episode();
        let mut prev = StepId::IDLE;
        let mut learned = 0;
        for i in 0..seq.len() - 1 {
            let cur = seq[i];
            let next = seq[i + 1];
            let s = self.encoder.state_of(prev, cur).expect("filtered to known steps");
            let a = self.policy.select(self.learner.as_dyn().q(), s, ep, rng);
            let prompt = self.encoder.decode_action(a);
            // The MDP terminates only when the terminal step is reached
            // *and it ends the recording*. A sequence that merely stops
            // earlier (a missed detection truncated it) still bootstraps
            // from its successor state; and a mid-episode visit to the
            // terminal tool (a wrong grab the user then corrected) is an
            // ordinary transition, not a completion — crediting it with
            // the 1000 terminal reward would teach the planner to prompt
            // the terminal tool early.
            let is_terminal = next == self.terminal_step && i + 2 == seq.len();
            let r = self.reward.reward(prompt, next, is_terminal);
            if is_terminal {
                self.learner.as_dyn_mut().observe(s, a, r, Outcome::Terminal);
            } else {
                let s2 = self.encoder.state_of(cur, next).expect("filtered to known steps");
                let a2 = if i + 2 == seq.len() {
                    // Last observed transition of a truncated recording:
                    // no further action will be taken this episode, so
                    // bootstrap as if continuing greedily.
                    self.learner.as_dyn().q().greedy_action(s2)
                } else {
                    self.policy.select(self.learner.as_dyn().q(), s2, ep, rng)
                };
                self.learner.as_dyn_mut().observe(
                    s,
                    a,
                    r,
                    Outcome::Continue { next_state: s2, next_action: a2 },
                );
            }
            prev = cur;
            learned += 1;
        }
        self.scratch = seq;
        learned
    }

    /// The greedy prompt for the state `(prev, cur)`, or `None` if either
    /// step is foreign to this ADL.
    #[must_use]
    pub fn predict(&self, prev: StepId, cur: StepId) -> Option<Prompt> {
        let s = self.encoder.state_of(prev, cur)?;
        Some(self.encoder.decode_action(self.learner.as_dyn().q().greedy_action(s)))
    }

    /// Convenience: just the predicted next tool.
    #[must_use]
    pub fn predict_tool(&self, prev: StepId, cur: StepId) -> Option<ToolId> {
        self.predict(prev, cur).map(|p| p.tool)
    }

    /// How confident the planner is in its prediction at `(prev, cur)`:
    /// the normalised value gap between the best tool and the best
    /// *other* tool, in `[0, 1]`.
    ///
    /// 0 means the state is untrained or ambiguous (several tools look
    /// equally good); values near 1 mean the routine is unambiguous
    /// there. The live system can gate reminders on this, so an
    /// unconverged planner does not nag the user with guesses.
    #[must_use]
    pub fn prediction_confidence(&self, prev: StepId, cur: StepId) -> Option<f64> {
        let s = self.encoder.state_of(prev, cur)?;
        let row = self.learner.as_dyn().q().row(s);
        // Collapse the two levels: a tool's strength is its better level.
        let mut per_tool: Vec<f64> = Vec::with_capacity(row.len() / 2);
        for pair in row.chunks(2) {
            per_tool.push(pair.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        }
        let mut best = f64::NEG_INFINITY;
        let mut second = f64::NEG_INFINITY;
        for &v in &per_tool {
            if v > best {
                second = best;
                best = v;
            } else if v > second {
                second = v;
            }
        }
        if !best.is_finite() || best <= 0.0 {
            return Some(0.0);
        }
        Some(((best - second.max(0.0)) / best).clamp(0.0, 1.0))
    }

    /// Fraction of `routine`'s transitions on which the greedy policy
    /// prompts the correct next tool (the paper's "converging condition"
    /// metric behind Figure 4).
    #[must_use]
    pub fn accuracy_vs_routine(&self, routine: &Routine) -> f64 {
        // Compares tools, so either level of the correct tool is a hit.
        crate::baseline::routine_accuracy(self, routine)
    }

    /// Read access to the learned Q-values (diagnostics and tests).
    #[must_use]
    pub fn q_table(&self) -> &coreda_rl::qtable::QTable {
        self.learner.as_dyn().q()
    }

    /// Overwrites the learned values and episode counter from a
    /// persistence snapshot. Used by [`crate::persistence`]; `values`
    /// must be in row-major `(state, action)` order.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the encoder's table size.
    pub fn restore_values(&mut self, values: &[f64], episodes_trained: u64) {
        let shape = self.encoder.shape();
        assert_eq!(values.len(), shape.table_len(), "value blob has the wrong size");
        let q = self.learner.as_dyn_mut().q_mut();
        let mut it = values.iter();
        for s in shape.state_ids() {
            for a in shape.action_ids() {
                q.set(s, a, *it.next().expect("length checked above"));
            }
        }
        self.episodes_trained = episodes_trained;
    }

    /// Captures the planner's complete resumable learned state, or `None`
    /// for learner kinds other than [`LearnerKind::WatkinsQLambda`].
    ///
    /// Only the paper's default learner supports checkpointing: the
    /// ablation learners with internal RNGs (`DoubleQ`, `DynaQ`) would
    /// need their private stream positions serialized too, and nothing in
    /// the metro/fuzzing paths instantiates them.
    #[must_use]
    pub fn capture_learned(&self) -> Option<LearnedState> {
        let Learner::WatkinsQLambda(l) = &self.learner else {
            return None;
        };
        Some(LearnedState {
            values: l.q().values().collect(),
            visits: l.q().visit_counts().collect(),
            traces: l.trace_entries().to_vec(),
            updates: l.updates(),
            episodes_trained: self.episodes_trained,
        })
    }

    /// Whether `state` is exactly what [`capture_learned`] would return
    /// right now, compared without allocating. Fleet restores use this to
    /// keep homes on a shared trained planner instead of splitting off a
    /// per-home copy whose contents would be identical anyway.
    ///
    /// `false` for learner kinds that cannot capture at all (they could
    /// never have produced `state`).
    ///
    /// [`capture_learned`]: PlanningSubsystem::capture_learned
    #[must_use]
    pub fn learned_matches(&self, state: &LearnedState) -> bool {
        let Learner::WatkinsQLambda(l) = &self.learner else {
            return false;
        };
        self.episodes_trained == state.episodes_trained
            && l.updates() == state.updates
            && l.trace_entries() == state.traces.as_slice()
            && l.q().values().eq(state.values.iter().copied())
            && l.q().visit_counts().eq(state.visits.iter().copied())
    }

    /// Restores state captured by [`PlanningSubsystem::capture_learned`]
    /// onto a planner freshly built from the same spec and config.
    ///
    /// Unlike [`PlanningSubsystem::restore_values`] (the persistence
    /// path, which deliberately drops visit counts and traces), this is a
    /// full-fidelity restore: the resumed planner's subsequent updates
    /// are bit-identical to an uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Returns an error if the planner's learner is not
    /// [`LearnerKind::WatkinsQLambda`].
    ///
    /// # Panics
    ///
    /// Panics if the state's table dimensions do not match this planner's
    /// encoder.
    pub fn apply_learned(&mut self, state: &LearnedState) -> Result<(), &'static str> {
        let Learner::WatkinsQLambda(l) = &mut self.learner else {
            return Err("checkpoint restore is only supported for the WatkinsQLambda learner");
        };
        l.restore_state(&state.values, &state.visits, &state.traces, state.updates);
        self.episodes_trained = state.episodes_trained;
        Ok(())
    }

    /// Observe a single live transition (online learning while the system
    /// is deployed). `prev → cur` is the state the user was in, `next` the
    /// step they moved to, `prompt` what the system displayed (or would
    /// have).
    pub fn observe_transition(
        &mut self,
        prev: StepId,
        cur: StepId,
        next: StepId,
        prompt: Prompt,
        completed: bool,
    ) {
        let (Some(s), Some(a)) = (self.encoder.state_of(prev, cur), self.encoder.action_of(prompt))
        else {
            return;
        };
        let r = self.reward.reward(prompt, next, completed && next == self.terminal_step);
        match self.encoder.state_of(cur, next) {
            Some(s2) if !completed => {
                let a2 = self.learner.as_dyn().q().greedy_action(s2);
                self.learner
                    .as_dyn_mut()
                    .observe(s, a, r, Outcome::Continue { next_state: s2, next_action: a2 });
            }
            _ => self.learner.as_dyn_mut().observe(s, a, r, Outcome::Terminal),
        }
    }
}

/// The planner's complete resumable learned state, as captured by
/// [`PlanningSubsystem::capture_learned`]: Q-values with visit counts,
/// live eligibility traces, the TD update counter (which positions the
/// learning-rate schedule) and the episode counter (which positions the
/// exploration schedule).
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedState {
    /// Q-values in state-major order.
    pub values: Vec<f64>,
    /// Visit counts in state-major order.
    pub visits: Vec<u64>,
    /// Live eligibility-trace entries in insertion order.
    pub traces: Vec<(StateId, ActionId, f64)>,
    /// TD updates consumed so far.
    pub updates: u64,
    /// Training episodes consumed so far.
    pub episodes_trained: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use coreda_adl::activity::catalog;

    fn tea_planner() -> (AdlSpec, Routine, PlanningSubsystem) {
        let tea = catalog::tea_making();
        let routine = Routine::canonical(&tea);
        let planner = PlanningSubsystem::new(&tea, PlanningConfig::default());
        (tea, routine, planner)
    }

    #[test]
    fn encoder_roundtrips_states_and_actions() {
        let tea = catalog::tea_making();
        let enc = StateEncoder::new(&tea);
        let ids = tea.step_ids();
        for &prev in std::iter::once(&StepId::IDLE).chain(ids.iter()) {
            for &cur in std::iter::once(&StepId::IDLE).chain(ids.iter()) {
                let s = enc.state_of(prev, cur).unwrap();
                assert_eq!(enc.decode_state(s), (prev, cur));
            }
        }
        for a in enc.shape().action_ids() {
            let prompt = enc.decode_action(a);
            assert_eq!(enc.action_of(prompt), Some(a));
        }
    }

    #[test]
    fn encoder_rejects_foreign_steps() {
        let tea = catalog::tea_making();
        let enc = StateEncoder::new(&tea);
        assert_eq!(enc.state_of(StepId::from_raw(77), StepId::IDLE), None);
        assert_eq!(
            enc.action_of(Prompt { tool: ToolId::new(77), level: ReminderLevel::Minimal }),
            None
        );
    }

    #[test]
    fn reward_matches_paper_constants() {
        let r = RewardConfig::default();
        let tea = catalog::tea_making();
        let cup = tea.terminal_step();
        let prompt_min = Prompt { tool: cup.tool().unwrap(), level: ReminderLevel::Minimal };
        let prompt_spec = Prompt { tool: cup.tool().unwrap(), level: ReminderLevel::Specific };
        assert_eq!(r.reward(prompt_min, cup, true), 1000.0);
        assert_eq!(r.reward(prompt_min, cup, false), 100.0);
        assert_eq!(r.reward(prompt_spec, cup, false), 50.0);
        // Mismatched prompt earns nothing.
        let wrong = Prompt { tool: ToolId::new(catalog::POT), level: ReminderLevel::Minimal };
        assert_eq!(r.reward(wrong, cup, true), 0.0);
        // A prompt can never match idleness.
        assert_eq!(r.reward(prompt_min, StepId::IDLE, false), 0.0);
    }

    #[test]
    fn planner_learns_the_canonical_routine() {
        let (_, routine, mut planner) = tea_planner();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..300 {
            planner.train_episode(routine.steps(), &mut rng);
        }
        assert_eq!(planner.accuracy_vs_routine(&routine), 1.0);
        assert_eq!(planner.episodes_trained(), 300);
    }

    #[test]
    fn planner_learns_a_personalised_routine() {
        // Mr. Tanaka pours water *before* fetching tea leaves.
        let tea = catalog::tea_making();
        let ids = tea.step_ids();
        let personal = Routine::new(&tea, vec![ids[1], ids[0], ids[2], ids[3]]);
        let mut planner = PlanningSubsystem::new(&tea, PlanningConfig::default());
        let mut rng = SimRng::seed_from(2);
        for _ in 0..300 {
            planner.train_episode(personal.steps(), &mut rng);
        }
        assert_eq!(planner.accuracy_vs_routine(&personal), 1.0);
        // And it is his routine, not the canonical one, that is predicted.
        let canonical = Routine::canonical(&tea);
        assert!(planner.accuracy_vs_routine(&canonical) < 1.0);
    }

    #[test]
    fn converged_policy_prefers_minimal_prompts() {
        // The 100-vs-50 reward asymmetry should drive the greedy action to
        // the minimal level ("exercise his/her brain") at every
        // *intermediate* transition. At the transition into the terminal
        // step the paper's reward is 1000 for either level, so the levels
        // are indistinguishable there and only the tool is determined.
        let (_, routine, mut planner) = tea_planner();
        let mut rng = SimRng::seed_from(3);
        for _ in 0..600 {
            planner.train_episode(routine.steps(), &mut rng);
        }
        let terminal = routine.last();
        for &(prev, cur, next) in &routine.transitions() {
            if next == terminal {
                continue;
            }
            let prompt = planner.predict(prev, cur).unwrap();
            assert_eq!(
                prompt.level,
                ReminderLevel::Minimal,
                "state ({prev}, {cur}) should prompt minimally"
            );
        }
    }

    #[test]
    fn idle_events_are_skipped_in_training() {
        let (_, routine, mut planner) = tea_planner();
        let mut rng = SimRng::seed_from(4);
        let mut noisy: Vec<StepId> = Vec::new();
        for &s in routine.steps() {
            noisy.push(StepId::IDLE);
            noisy.push(s);
        }
        let learned = planner.train_episode(&noisy, &mut rng);
        assert_eq!(learned, 3, "idles must be filtered: 4 steps → 3 transitions");
    }

    #[test]
    fn too_short_sequences_are_ignored() {
        let (tea, _, mut planner) = tea_planner();
        let mut rng = SimRng::seed_from(5);
        assert_eq!(planner.train_episode(&[], &mut rng), 0);
        assert_eq!(planner.train_episode(&[tea.steps()[0].id()], &mut rng), 0);
        assert_eq!(planner.episodes_trained(), 2, "episodes still counted for schedules");
    }

    #[test]
    fn predict_returns_none_for_foreign_state() {
        let (_, _, planner) = tea_planner();
        assert_eq!(planner.predict(StepId::from_raw(77), StepId::IDLE), None);
    }

    #[test]
    fn online_observation_moves_q_values() {
        let (tea, routine, mut planner) = tea_planner();
        let ids = tea.step_ids();
        let prompt = Prompt { tool: ids[1].tool().unwrap(), level: ReminderLevel::Minimal };
        let before = planner.q_table().clone();
        planner.observe_transition(StepId::IDLE, ids[0], ids[1], prompt, false);
        assert_ne!(&before, planner.q_table());
        let _ = routine;
    }

    #[test]
    fn capture_apply_resumes_training_identically() {
        let (_, routine, mut live) = tea_planner();
        let (_, _, mut ghost) = tea_planner();
        let mut live_rng = SimRng::seed_from(7);
        let mut ghost_rng = SimRng::seed_from(7);
        for _ in 0..40 {
            live.train_episode(routine.steps(), &mut live_rng);
            ghost.train_episode(routine.steps(), &mut ghost_rng);
        }
        let state = live.capture_learned().expect("default learner is Watkins");
        let (tea, _, _) = tea_planner();
        let mut resumed = PlanningSubsystem::new(&tea, PlanningConfig::default());
        resumed.apply_learned(&state).unwrap();
        let (s, b) = live_rng.state_parts();
        let mut resumed_rng = SimRng::from_state_parts(s, b);
        for _ in 0..40 {
            resumed.train_episode(routine.steps(), &mut resumed_rng);
            ghost.train_episode(routine.steps(), &mut ghost_rng);
        }
        let a: Vec<f64> = resumed.q_table().values().collect();
        let e: Vec<f64> = ghost.q_table().values().collect();
        assert_eq!(a, e, "resumed planner diverged from uninterrupted ghost");
        assert_eq!(resumed.episodes_trained(), ghost.episodes_trained());
    }

    #[test]
    fn apply_learned_rejects_non_watkins() {
        let tea = catalog::tea_making();
        let cfg = PlanningConfig { learner: LearnerKind::QLearning, ..PlanningConfig::default() };
        let mut planner = PlanningSubsystem::new(&tea, cfg);
        assert_eq!(planner.capture_learned(), None);
        let (_, _, watkins) = tea_planner();
        let state = watkins.capture_learned().unwrap();
        assert!(planner.apply_learned(&state).is_err());
    }

    #[test]
    fn every_learner_kind_learns_the_routine() {
        let tea = catalog::tea_making();
        let routine = Routine::canonical(&tea);
        for kind in [
            LearnerKind::WatkinsQLambda,
            LearnerKind::QLearning,
            LearnerKind::Sarsa,
            LearnerKind::ExpectedSarsa,
            LearnerKind::DoubleQ { seed: 7 },
            LearnerKind::DynaQ { planning_steps: 10, seed: 7 },
        ] {
            let cfg = PlanningConfig { learner: kind, ..PlanningConfig::default() };
            let mut planner = PlanningSubsystem::new(&tea, cfg);
            let mut rng = SimRng::seed_from(44);
            for _ in 0..400 {
                planner.train_episode(routine.steps(), &mut rng);
            }
            assert_eq!(
                planner.accuracy_vs_routine(&routine),
                1.0,
                "{kind:?} should learn the routine"
            );
        }
    }
}
