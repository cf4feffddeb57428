//! # coreda-des — deterministic discrete-event simulation kernel
//!
//! The substrate every other CoReDA crate runs on. The original CoReDA
//! prototype ran in real time on physical PAVENET sensor motes; this
//! reproduction replaces wall-clock time with a virtual clock so that every
//! experiment — the Figure 1 scenario replay, the Table 3/4 precision
//! studies, the Figure 4 learning curves — is a deterministic function of
//! its configuration and seed.
//!
//! Three pieces:
//!
//! - [`time`]: [`SimTime`]/[`SimDuration`] millisecond-resolution newtypes.
//! - [`event`] and [`sim`]: a min-priority [`EventQueue`] with FIFO
//!   tie-breaking — a hierarchical timing wheel — driven
//!   schedule-and-drain by [`Simulator`]: schedule typed events, then
//!   drain every event due by an instant in one window. The original
//!   binary heap stays as [`HeapEventQueue`], the reference the wheel's
//!   order-equivalence tests compare against.
//! - [`rng`]: [`SimRng`], a seedable random source with stable independent
//!   sub-streams per component.
//!
//! [`clock`] adds the online-serving bridge: a [`Clock`] pacing trait
//! with a deterministic [`SimClock`] (never waits) and a [`WallClock`]
//! (sleeps until each instant's wall-clock image), so the same serving
//! loop runs both deterministic tests and real traffic.
//!
//! # Examples
//!
//! ```
//! use coreda_des::prelude::*;
//!
//! #[derive(Debug)]
//! enum Ev { SensorSample(u8) }
//!
//! let mut sim = Simulator::new();
//! let mut rng = SimRng::seed_from(2007);
//! // Sample a sensor at 10 Hz for one second, like a PAVENET node.
//! for i in 0..10 {
//!     sim.schedule_at(SimTime::from_millis(i * 100), Ev::SensorSample(0));
//! }
//! let mut window = Vec::new();
//! sim.drain_until(SimTime::from_secs(1), &mut window);
//! let mut samples = 0;
//! for (_, Ev::SensorSample(_)) in window {
//!     if rng.chance(0.5) { samples += 1; }
//! }
//! assert!(samples <= 10);
//! assert_eq!(sim.processed(), 10);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links, rustdoc::private_intra_doc_links)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod event;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;

pub use clock::{Clock, SimClock, WallClock};
pub use event::{EventQueue, HeapEventQueue};
pub use rng::SimRng;
pub use sim::Simulator;
pub use stats::{Histogram, RunningStats};
pub use time::{SimDuration, SimTime};

/// Convenient glob import for simulation code.
pub mod prelude {
    pub use crate::clock::{Clock, SimClock, WallClock};
    pub use crate::event::EventQueue;
    pub use crate::rng::SimRng;
    pub use crate::sim::Simulator;
    pub use crate::time::{SimDuration, SimTime};
}
