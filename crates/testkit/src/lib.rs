//! Deterministic simulation testing (DST) for CoReDA.
//!
//! FoundationDB-style harness: a seed deterministically expands into a
//! [`plan::FaultPlan`] — timed windows of radio loss bursts, node
//! crashes, sensing flips, clock skew, patient non-compliance / severe
//! lapses, and routine drift — which a small fleet then serves under
//! through the production `coreda_core::metro::run`, the plan being the
//! fleet's fault schedule ([`harness`]). Every home's serving tap streams
//! through the invariant [`oracles`]; each plan also runs at `jobs > 1`
//! and, when it carries kills, dies and resumes through the real
//! checkpoint codecs; any divergence is itself an oracle violation.
//! Transport-fault plans run through the served front end ([`served`])
//! and caregiver-outage plans through the escalation overlay ([`care`]).
//! When an oracle fires, [`shrink`] reduces the plan — drop faults,
//! halve windows, halve the horizon — to a minimal repro that [`json`]
//! serializes as a `.seed.json` replay file for the regression corpus.
//!
//! Entry points: `coreda fuzz --seconds N --seed S` ([`fuzz::fuzz`]) and
//! `coreda replay <file>` ([`corpus`]).

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

pub use harness::{check, check_plan};
pub use oracles::Violation;
pub use plan::{Fault, FaultKind, FaultPlan};
