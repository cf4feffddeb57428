//! Deterministic simulation testing (DST) for CoReDA.
//!
//! FoundationDB-style harness: a seed deterministically expands into a
//! [`plan::FaultPlan`] — timed windows of radio loss bursts, node
//! crashes, sensing flips, clock skew, patient non-compliance / severe
//! lapses, and routine drift — which the real [`Coreda`] pipeline then
//! serves under, while every session event and reminder streams through
//! the invariant [`oracles`]. Each plan runs under *both* wake policies
//! (event-driven wakes and dense 100 ms polling), and batches re-run
//! through the fleet engine at `jobs > 1`; any divergence is itself an
//! oracle violation. When an oracle fires, [`shrink`] reduces the plan — drop
//! faults, halve windows, halve the horizon — to a minimal repro that
//! [`json`] serializes as a `.seed.json` replay file for the regression
//! corpus.
//!
//! Entry points: `coreda fuzz --seconds N --seed S` ([`fuzz::fuzz`]) and
//! `coreda replay <file>` ([`corpus`]).
//!
//! [`Coreda`]: coreda_core::system::Coreda

pub mod behavior;
pub mod care;
pub mod corpus;
pub mod fuzz;
pub mod harness;
pub mod json;
pub mod oracles;
pub mod plan;
pub mod served;
pub mod shrink;

pub use harness::{Harness, RunResult};
pub use oracles::Violation;
pub use plan::{Fault, FaultKind, FaultPlan};
