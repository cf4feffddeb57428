//! # coreda-core — CoReDA, the Context-aware Reminding system for Daily Activities
//!
//! A reproduction of the system from *"A Context-aware Reminding System
//! for Daily Activities of Dementia Patients"* (ICDCS 2007 workshops).
//! CoReDA watches which household tools a person uses through wireless
//! sensor nodes, learns their personal routine for each activity of daily
//! living with TD(λ) Q-learning, and reminds them — minimally — what to do
//! next when they stall or grab the wrong tool.
//!
//! The three subsystems of the paper's Figure 2:
//!
//! - [`sensing`] — tool-use reports → StepID sequences, with idle
//!   detection derived from per-step duration statistics;
//! - [`planning`] — the MDP over `<StepID_{i-1}, StepID_i>` pairs with
//!   prompt actions `<ToolID, Level>` and the 1000/100/50 reward function,
//!   learned with Watkins Q(λ);
//! - [`reminding`] — prompts rendered as text, tool pictures and green/red
//!   LED blinks at two insistence levels.
//!
//! Plus what a deployable system needs around them: the [`system`]
//! orchestrator running the full sensor → radio → prediction → reminder
//! loop on a virtual clock, [`baseline`] planners for comparison,
//! [`live`] patient behaviours, the [`scenario`] replay of Figure 1, and
//! [`metrics`] helpers behind the paper's tables.
//!
//! # Examples
//!
//! Learn a personal routine and predict the next step:
//!
//! ```
//! use coreda_adl::activity::catalog;
//! use coreda_adl::routine::Routine;
//! use coreda_adl::step::StepId;
//! use coreda_core::planning::{PlanningConfig, PlanningSubsystem};
//! use coreda_des::rng::SimRng;
//!
//! let tea = catalog::tea_making();
//! let routine = Routine::canonical(&tea);
//! let mut planner = PlanningSubsystem::new(&tea, PlanningConfig::default());
//! let mut rng = SimRng::seed_from(7);
//! for _ in 0..200 {
//!     planner.train_episode(routine.steps(), &mut rng);
//! }
//! // After step 1 (tea-box), CoReDA knows the pot comes next.
//! let prompt = planner
//!     .predict(StepId::IDLE, StepId::from_raw(catalog::TEA_BOX))
//!     .unwrap();
//! assert_eq!(prompt.tool.raw(), catalog::POT);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links, rustdoc::private_intra_doc_links)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod checkpoint;
pub mod escalation;
pub mod fleet;
pub mod home;
pub mod live;
pub mod metrics;
pub mod metro;
pub mod persistence;
pub mod planning;
pub mod reminding;
pub mod report;
pub mod scenario;
pub mod sensing;
pub mod sessions;
pub mod system;
pub mod telemetry;
pub mod wal;

pub use baseline::{CanonicalReminder, MdpPlanner, NextStepPredictor};
pub use checkpoint::{
    apply_delta, checkpoint_fingerprint, compact, config_digest, delta_checkpoint, load_checkpoint,
    load_delta, save_checkpoint, save_delta, CheckpointError, DeltaCheckpoint, HomeCheckpoint,
    MetroCheckpoint,
};
pub use escalation::{
    CareEvent, CareEventKind, CareMonitor, CareOutput, CarePolicy, CareTrigger, FleetAnalytics,
    Severity,
};
pub use home::{CoredaHome, HomeError};
pub use live::{EpisodeLog, LogKind, PatientBehavior, ScriptedBehavior, StochasticBehavior};
pub use planning::{LearnerKind, PlanningConfig, PlanningSubsystem, RewardConfig, StateEncoder};
pub use reminding::{Prompt, Reminder, ReminderLevel, ReminderMethod, RemindingSubsystem, Trigger};
pub use metro::{
    collect_served, resume_scale_durable, run, run_scale, run_scale_care_walled,
    run_scale_durable, DurableRun, FleetTooLarge, HomeStats, MetroConfig, RunOutput, RunSpec,
    ScaleReport, ServeCtx, ServeSession, ServedShard,
};
pub use report::DailyReport;
pub use sensing::{SensingSubsystem, StepEvent};
pub use sessions::{SessionEvent, SessionEvents, SessionTracker};
pub use system::{Coreda, CoredaConfig, LiveEpisode, TickOutcome};
pub use telemetry::{Ctr, HomeRecorder, Stage, Telemetry, TraceKind, TraceRecord};
pub use wal::{decode_wal, decode_wal_tolerant, encode_wal, render_home_timeline, WalRecord, WalTail};
