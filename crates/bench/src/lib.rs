//! # coreda-bench — experiment harnesses for every table and figure
//!
//! Each module reproduces one piece of the paper's evaluation; the
//! `repro_*` binaries print the corresponding table or series (their
//! bodies live in [`repro`]). See
//! `EXPERIMENTS.md` at the repository root for paper-vs-measured records.

pub mod ablation;
pub mod adaptation;
pub mod baseline_cmp;
pub mod burden;
pub mod common;
pub mod contention;
pub mod energy_study;
pub mod fig4;
pub mod radio_loss;
pub mod repro;
pub mod table3;
pub mod table4;
