//! # coreda-adl — the activity-of-daily-living domain model
//!
//! Everything CoReDA knows about the *world*: tools with sensors strapped
//! to them, activities made of steps, the personal routines users perform
//! them in, and a stochastic patient whose slips and freezes replace the
//! human subject of the original study.
//!
//! - [`tool`] / [`step`] — [`ToolId`]s double as PAVENET uids; a
//!   [`StepId`] is "the ID of the tool mainly used in this step", with 0
//!   reserved for idleness, exactly as §2.1 defines;
//! - [`activity`] — validated [`AdlSpec`]s plus the paper's Table 2
//!   catalog (Tooth-brushing, Tea-making) with signal calibration chosen
//!   to reproduce Table 3's precision shape;
//! - [`routine`] — per-user step orders and weighted multi-routine sets
//!   (future work §4.1);
//! - [`patient`] — severity-parameterised behaviour: wrong-tool grabs,
//!   freezes, prompt compliance, pace;
//! - [`episode`] — generation of the "complete process of an ADL"
//!   training samples the planner learns from.
//!
//! # Examples
//!
//! ```
//! use coreda_adl::activity::catalog;
//! use coreda_adl::episode::EpisodeGenerator;
//! use coreda_adl::patient::PatientProfile;
//! use coreda_adl::routine::{Routine, RoutineSet};
//! use coreda_des::rng::SimRng;
//!
//! let tea = catalog::tea_making();
//! let gen = EpisodeGenerator::new(
//!     tea.clone(),
//!     RoutineSet::single(Routine::canonical(&tea)),
//!     PatientProfile::moderate("Mr. Tanaka"),
//! );
//! let mut rng = SimRng::seed_from(2007);
//! let training_set = gen.generate_batch(120, &mut rng);
//! assert_eq!(training_set.len(), 120);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links, rustdoc::private_intra_doc_links)]
#![warn(missing_debug_implementations)]

pub mod activity;
pub mod dataset;
pub mod drift;
pub mod episode;
pub mod intern;
pub mod patient;
pub mod routine;
pub mod step;
pub mod tool;

pub use activity::AdlSpec;
pub use intern::{NameId, NameTable};
pub use drift::SeverityTrajectory;
pub use episode::{Episode, EpisodeEvent, EpisodeGenerator};
pub use patient::{PatientAction, PatientProfile};
pub use routine::{Routine, RoutineSet};
pub use step::{Step, StepId};
pub use tool::{Tool, ToolId};
