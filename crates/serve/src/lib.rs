//! # coreda-serve — online serving front end for CoReDA
//!
//! Puts a wire on the metro fleet: a compact, CRC-guarded binary
//! protocol for mote reports and prompt deliveries ([`wire`]), a
//! multi-tenant ingestion loop that drives the simulation clock-paced
//! and shard-parallel ([`server`]), byte-level clients and a
//! deterministic transport-fault pipe ([`client`]), and a load-generator
//! mode with throughput/latency reporting ([`loadgen`]).
//!
//! ## The determinism contract
//!
//! The server owns the simulation; clients never advance state. A
//! client's `Report` frames only move an advisory per-connection
//! watermark used for flow-control accounting, so duplicated, delayed,
//! or reordered frames change *counters*, never *outcomes*. The one
//! state-bearing client act is hanging up (`Bye`), which freezes that
//! home — and only that home — from its next wake on.
//!
//! Consequently, under the sim clock ([`coreda_des::SimClock`]) a
//! served fleet is **bit-identical** to the batch [`coreda_core::run`]
//! — grid, telemetry, and event log — at any `jobs` count. Swapping in
//! [`coreda_des::WallClock`] paces the same wakes against real time
//! without touching what they compute.
//!
//! # Examples
//!
//! Serve a small fleet deterministically and check it against batch:
//!
//! ```
//! use coreda_core::metro::MetroConfig;
//! use coreda_core::run_scale;
//! use coreda_des::time::SimDuration;
//! use coreda_serve::{serve_scale, ServeOptions};
//!
//! let cfg = MetroConfig {
//!     homes: 2,
//!     horizon: SimDuration::from_secs(600),
//!     ..MetroConfig::default()
//! };
//! let outcome = serve_scale(cfg.clone(), &ServeOptions::default()).unwrap();
//! assert_eq!(outcome.output.report, run_scale(&cfg));
//! ```
//!
//! ## Caregiver escalations on the wire
//!
//! With [`ServeOptions::care`] set, the caregiver escalation overlay
//! runs inside each session and its lifecycle events ride the served
//! path as `Escalate` frames, flushed alongside the prompts of the wake
//! that tripped them. The escalation log and fleet analytics in
//! [`ServeOutcome::care`] are bit-identical to the batch overlay
//! ([`coreda_core::RunSpec::care`]) under the sim clock.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links, rustdoc::private_intra_doc_links)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod loadgen;
pub mod server;
pub mod wire;

pub use client::{Client, FaultyPipe, MoteClient, PipeFaults};
pub use loadgen::{run_loadgen, LoadgenReport};
pub use server::{
    classify_report, serve_fleet, serve_scale, ReportClass, ServeOptions, ServeOutcome, WireStats,
};
pub use wire::{decode_frame, encode_frame, frame_bytes, try_decode, Frame, WireError};
