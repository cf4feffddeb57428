//! # CoReDA — a Context-aware Reminding system for Daily Activities
//!
//! A from-scratch Rust reproduction of *"A Context-aware Reminding System
//! for Daily Activities of Dementia Patients"* (Si, Kim, Kawanishi,
//! Morikawa — ICDCS 2007 workshops), including every substrate the paper
//! relied on: the PAVENET wireless sensor motes, a synthetic replacement
//! for the physical sensors and the human subject, and the slice of "RL
//! Toolbox 2.0" the planner needs.
//!
//! This facade crate re-exports the workspace members:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`des`] | deterministic discrete-event simulation kernel |
//! | [`sensornet`] | PAVENET node model, signals, detection, radio, network |
//! | [`rl`] | tabular RL toolbox (Q-learning, SARSA, TD(λ), Dyna-Q) |
//! | [`adl`] | activities, tools, routines, patient behaviour |
//! | [`core`] | the CoReDA system: sensing + planning + reminding |
//! | [`serve`] | online serving: wire protocol, ingestion loop, load generator |
//! | [`testkit`] | deterministic simulation testing: fault plans, oracles, shrinking |
//!
//! # Quick start
//!
//! ```
//! use coreda::prelude::*;
//!
//! // 1. Pick an activity and the user's personal routine.
//! let tea = catalog::tea_making();
//! let routine = Routine::canonical(&tea);
//!
//! // 2. Let CoReDA learn the routine from recorded episodes.
//! let mut system = Coreda::new(tea, "Mr. Tanaka", CoredaConfig::default(), 2007);
//! let mut rng = SimRng::seed_from(1);
//! for _ in 0..150 {
//!     system.planner_mut().train_episode(routine.steps(), &mut rng);
//! }
//!
//! // 3. Run a live episode: a patient who freezes mid-activity gets
//! //    prompted and finishes.
//! let mut behavior = StochasticBehavior::new(PatientProfile::moderate("Mr. Tanaka"));
//! let log = system.run_live(&routine, &mut behavior, &mut rng);
//! assert!(log.completed_at().is_some());
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links, rustdoc::private_intra_doc_links)]

pub use coreda_adl as adl;
pub use coreda_core as core;
pub use coreda_des as des;
pub use coreda_rl as rl;
pub use coreda_sensornet as sensornet;
pub use coreda_serve as serve;
pub use coreda_testkit as testkit;

/// One-stop imports for applications built on CoReDA.
pub mod prelude {
    pub use coreda_adl::activity::{catalog, AdlSpec};
    pub use coreda_adl::episode::{Episode, EpisodeGenerator};
    pub use coreda_adl::patient::{PatientAction, PatientProfile};
    pub use coreda_adl::routine::{Routine, RoutineSet};
    pub use coreda_adl::step::{Step, StepId};
    pub use coreda_adl::tool::{Tool, ToolId};
    pub use coreda_core::baseline::{CanonicalReminder, MdpPlanner, NextStepPredictor};
    pub use coreda_core::home::{CoredaHome, HomeError};
    pub use coreda_core::live::{
        EpisodeLog, LogKind, PatientBehavior, ScriptedBehavior, StochasticBehavior,
    };
    pub use coreda_core::planning::{LearnerKind, PlanningConfig, PlanningSubsystem, RewardConfig};
    pub use coreda_core::reminding::{
        Prompt, Reminder, ReminderLevel, ReminderMethod, RemindingSubsystem, Trigger,
    };
    pub use coreda_core::persistence;
    pub use coreda_core::scenario;
    pub use coreda_core::sensing::SensingSubsystem;
    pub use coreda_core::system::{Coreda, CoredaConfig};
    pub use coreda_des::rng::SimRng;
    pub use coreda_des::time::{SimDuration, SimTime};
    pub use coreda_sensornet::detect::{Detector, Thresholds};
    pub use coreda_sensornet::network::{LinkConfig, StarNetwork};
    pub use coreda_sensornet::node::{NodeId, PavenetNode};
    pub use coreda_sensornet::radio::LossModel;
    pub use coreda_sensornet::signal::SignalModel;
}
