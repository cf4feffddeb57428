//! # coreda-rl — a tabular reinforcement-learning toolbox
//!
//! The CoReDA paper implements its planning subsystem with "the TD(λ)
//! Q-Learning algorithm in Reinforcement Learning Toolbox 2.0", a C++
//! library that is no longer practical to build. This crate is a
//! from-scratch replacement covering the slice of that toolbox CoReDA
//! needs — and the neighbours its planner offers for the ablation
//! studies:
//!
//! - [`algo::WatkinsQLambda`] — TD(λ) Q-learning, the paper's algorithm;
//! - [`algo::QLearning`], [`algo::Sarsa`], [`algo::ExpectedSarsa`],
//!   [`algo::DoubleQLearning`] — one-step alternatives (λ-sweep and
//!   algorithm-family ablations);
//! - [`algo::DynaQ`] — model-based acceleration for the paper's
//!   "fast learning" future-work item;
//! - [`policy`] — ε-greedy / softmax / greedy action selection with decay
//!   [`schedule`]s;
//! - [`model`] — an empirical MDP estimated from observed transitions
//!   (the certainty-equivalence baseline);
//! - [`solve`] — exact value/policy iteration over explicit models.
//!
//! The training loop itself lives with its user: the planner
//! (`coreda_core::planning::PlanningSubsystem`) feeds transitions to a
//! [`TdControl`] learner one at a time.
//!
//! # Examples
//!
//! Learn a two-state task with the paper's algorithm: in state 0,
//! action 1 moves on to state 1, where action 0 earns +10 and ends the
//! episode; every other action ends it with nothing.
//!
//! ```
//! use coreda_des::rng::SimRng;
//! use coreda_rl::algo::{Outcome, TdConfig, TdControl, WatkinsQLambda};
//! use coreda_rl::policy::{EpsilonGreedy, Policy};
//! use coreda_rl::schedule::Schedule;
//! use coreda_rl::space::{ActionId, ProblemShape, StateId};
//! use coreda_rl::traces::TraceKind;
//!
//! let cfg = TdConfig::new(Schedule::constant(0.2), 0.9);
//! let mut learner = WatkinsQLambda::new(ProblemShape::new(2, 2), cfg, 0.8, TraceKind::Replacing);
//! let policy = EpsilonGreedy::constant(0.3);
//! let mut rng = SimRng::seed_from(7);
//! let (start, goal) = (StateId::new(0), StateId::new(1));
//! for episode in 0..300 {
//!     learner.begin_episode();
//!     let a = policy.select(learner.q(), start, episode, &mut rng);
//!     if a == ActionId::new(1) {
//!         let a2 = policy.select(learner.q(), goal, episode, &mut rng);
//!         learner.observe(start, a, 0.0, Outcome::Continue { next_state: goal, next_action: a2 });
//!         let reward = if a2 == ActionId::new(0) { 10.0 } else { 0.0 };
//!         learner.observe(goal, a2, reward, Outcome::Terminal);
//!     } else {
//!         learner.observe(start, a, 0.0, Outcome::Terminal);
//!     }
//! }
//! assert_eq!(learner.q().greedy_action(start), ActionId::new(1));
//! assert_eq!(learner.q().greedy_action(goal), ActionId::new(0));
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links, rustdoc::private_intra_doc_links)]
#![warn(missing_debug_implementations)]

pub mod algo;
pub mod model;
pub mod policy;
pub mod qtable;
pub mod schedule;
pub mod solve;
pub mod space;
pub mod traces;

pub use algo::{DoubleQLearning, DynaQ, ExpectedSarsa, Outcome, QLearning, Sarsa, TdConfig, TdControl, WatkinsQLambda};
pub use model::EmpiricalMdp;
pub use policy::{EpsilonGreedy, Greedy, Policy, Softmax};
pub use qtable::QTable;
pub use schedule::Schedule;
pub use solve::{policy_iteration, value_iteration, TabularMdp, TransitionOutcome};
pub use space::{ActionId, ProblemShape, StateId};
pub use traces::{EligibilityTraces, TraceKind};
