//! # coreda-rl — a tabular reinforcement-learning toolbox
//!
//! The CoReDA paper implements its planning subsystem with "the TD(λ)
//! Q-Learning algorithm in Reinforcement Learning Toolbox 2.0", a C++
//! library that is no longer practical to build. This crate is a
//! from-scratch replacement covering the slice of that toolbox CoReDA
//! needs — and the neighbours required for the ablation studies:
//!
//! - [`algo::WatkinsQLambda`] — TD(λ) Q-learning, the paper's algorithm;
//! - [`algo::QLearning`], [`algo::Sarsa`], [`algo::ExpectedSarsa`] —
//!   one-step baselines (λ-sweep and algorithm ablations);
//! - [`algo::DynaQ`] — model-based acceleration for the paper's
//!   "fast learning" future-work item;
//! - [`policy`] — ε-greedy / softmax / greedy action selection with decay
//!   [`schedule`]s;
//! - [`convergence`] — the "converging condition" read-outs behind the
//!   paper's Figure 4 learning curves;
//! - [`env`](mod@env) / [`envs`] — an episodic environment interface, an episode
//!   runner, and reference MDPs (chain, grid world, cliff walk) used by
//!   tests and benchmarks;
//! - [`solve`] — exact value/policy iteration over explicit models;
//! - [`replay`] — an experience replay buffer.
//!
//! # Examples
//!
//! Solve a small grid world with the paper's algorithm:
//!
//! ```
//! use coreda_des::rng::SimRng;
//! use coreda_rl::algo::{TdConfig, TdControl, WatkinsQLambda};
//! use coreda_rl::env::{Environment, EpisodeRunner};
//! use coreda_rl::envs::GridWorld;
//! use coreda_rl::policy::EpsilonGreedy;
//! use coreda_rl::schedule::Schedule;
//! use coreda_rl::traces::TraceKind;
//!
//! let mut env = GridWorld::new(4, 4);
//! let cfg = TdConfig::new(Schedule::constant(0.2), 0.95);
//! let mut learner = WatkinsQLambda::new(env.shape(), cfg, 0.8, TraceKind::Replacing);
//! let policy = EpsilonGreedy::new(Schedule::exponential(0.4, 0.99, 0.05));
//! let mut runner = EpisodeRunner::new(500);
//! let mut rng = SimRng::seed_from(7);
//! for _ in 0..300 {
//!     runner.run_episode(&mut env, &mut learner, &policy, &mut rng);
//! }
//! let eval = runner.evaluate_episode(&mut env, &learner, &mut rng);
//! assert!(eval.terminated);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links, rustdoc::private_intra_doc_links)]
#![warn(missing_debug_implementations)]

pub mod algo;
pub mod convergence;
pub mod env;
pub mod envs;
pub mod model;
pub mod policy;
pub mod qtable;
pub mod replay;
pub mod schedule;
pub mod solve;
pub mod space;
pub mod traces;

pub use algo::{DoubleQLearning, DynaQ, ExpectedSarsa, Outcome, QLearning, Sarsa, TdConfig, TdControl, WatkinsQLambda};
pub use env::{EnvStep, Environment, EpisodeRunner, EpisodeStats};
pub use model::EmpiricalMdp;
pub use policy::{EpsilonGreedy, Greedy, Policy, Softmax};
pub use qtable::QTable;
pub use replay::{ReplayBuffer, Transition};
pub use schedule::Schedule;
pub use solve::{policy_iteration, value_iteration, TabularMdp, TransitionOutcome};
pub use space::{ActionId, ProblemShape, StateId};
pub use traces::{EligibilityTraces, TraceKind};
