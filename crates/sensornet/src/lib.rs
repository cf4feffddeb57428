//! # coreda-sensornet — the PAVENET substrate, in software
//!
//! CoReDA's sensing subsystem ran on PAVENET wireless sensor motes
//! attached to household tools. This crate models that hardware layer so
//! the rest of the system exercises the same code paths the prototype did:
//!
//! - [`hw`] — Table 1 hardware constants (CPU, RAM, radio, sensors) and
//!   the paper's 10 Hz / 3-of-10 detection parameters;
//! - [`sensors`] + [`signal`] — sensor readings and a calibrated synthetic
//!   signal generator replacing the physical accelerometers;
//! - [`detect`] — the 3-of-10 threshold vote from §2.1;
//! - [`node`] — the mote itself: sensor, detector, LEDs, EEPROM, sequence
//!   numbers;
//! - [`packet`] — the wire format with CRC-16 framing, and the CRC-32C
//!   the durability formats close with;
//! - [`radio`] + [`network`] — a CC1000 link model (Bernoulli and
//!   Gilbert–Elliott losses), stop-and-wait ARQ, and base-station
//!   duplicate suppression;
//! - [`led`] — green/red blink patterns for the reminding subsystem.
//!
//! # Examples
//!
//! A tool node detecting use and reporting it over a lossy link:
//!
//! ```
//! use coreda_des::rng::SimRng;
//! use coreda_sensornet::detect::Thresholds;
//! use coreda_sensornet::network::{LinkConfig, StarNetwork};
//! use coreda_sensornet::node::{NodeId, PavenetNode};
//! use coreda_sensornet::radio::LossModel;
//! use coreda_sensornet::signal::SignalModel;
//!
//! let mut node = PavenetNode::new(
//!     NodeId::new(1),
//!     SignalModel::accelerometer(0.03, 0.5, 0.9),
//!     Thresholds::default(),
//! );
//! let mut net = StarNetwork::new(LinkConfig {
//!     loss: LossModel::Bernoulli { p: 0.1 },
//!     ..LinkConfig::default()
//! });
//! net.register(node.uid());
//! let mut rng = SimRng::seed_from(7);
//! let mut delivered = 0;
//! for tick in 0..100u64 {
//!     if let Some(report) = node.sample_tick(true, tick * 100, &mut rng) {
//!         if net.send_uplink(&report, &mut rng).is_delivered() {
//!             delivered += 1;
//!         }
//!     }
//! }
//! assert!(delivered > 0);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links, rustdoc::private_intra_doc_links)]
#![warn(missing_debug_implementations)]

pub mod detect;
pub mod eeprom;
pub mod energy;
pub mod hw;
pub mod led;
pub mod medium;
pub mod network;
pub mod node;
pub mod packet;
pub mod radio;
pub mod sensors;
pub mod signal;
pub mod trace;

pub use detect::{Detector, Thresholds};
pub use energy::{EnergyMeter, EnergyModel};
pub use led::{BlinkPattern, LedColor};
pub use medium::SharedMedium;
pub use network::{BaseStation, LinkConfig, LinkCounters, SendOutcome, StarNetwork};
pub use node::{NodeId, PavenetNode};
pub use packet::{Packet, PacketError, Payload};
pub use radio::{LossModel, RadioLink};
pub use sensors::{Reading, SensorKind, Vec3};
pub use signal::SignalModel;
pub use trace::{SignalTrace, TraceError};
