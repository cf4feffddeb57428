//! Table 4 — "Predict Precision of ADL Step".
//!
//! After learning a user's routine, the paper verifies the correctness of
//! reminding on 30 test samples per ADL, covering the two trigger
//! situations equally: (1) the user idles past the timeout, (2) the user
//! uses a wrong tool. Every non-initial step scores 100 %; the first step
//! has no entry because "we need them to trigger the start of
//! prediction".

use coreda_adl::activity::{catalog, AdlSpec};
use coreda_adl::routine::Routine;
use coreda_adl::step::StepId;
use coreda_core::fleet::FleetEngine;
use coreda_core::metrics::PrecisionCounter;
use coreda_core::planning::{PlanningConfig, PlanningSubsystem};
use coreda_des::rng::SimRng;

use crate::common::{corrupt_sequence, measure_extraction};

/// One row of the reproduced table.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRow {
    /// ADL name.
    pub adl: String,
    /// Step name.
    pub step: String,
    /// `None` for the first step (it triggers prediction; Table 4 leaves
    /// it blank).
    pub precision: Option<PrecisionCounter>,
}

/// Trains a planner the way the paper did: 120 recorded episodes run
/// through the sensing pipeline's extraction noise.
#[must_use]
pub fn train_planner(spec: &AdlSpec, episodes: usize, seed: u64) -> PlanningSubsystem {
    let routine = Routine::canonical(spec);
    let mut rng = SimRng::seed_from(seed);
    let extraction = measure_extraction(spec, 300, &mut rng);
    let mut planner = PlanningSubsystem::new(spec, PlanningConfig::default());
    let mut observed = Vec::with_capacity(routine.steps().len());
    for _ in 0..episodes {
        corrupt_sequence(routine.steps(), spec, &extraction, &mut rng, &mut observed);
        planner.train_episode(&observed, &mut rng);
    }
    planner
}

/// Runs the Table 4 protocol for one ADL with `samples` test trials split
/// evenly between the two trigger situations and across non-initial steps.
fn run_adl(spec: &AdlSpec, samples: usize, seed: u64) -> Vec<PredictRow> {
    let planner = train_planner(spec, 120, seed);
    let routine = Routine::canonical(spec);
    let steps = routine.steps();

    let mut counters: Vec<PrecisionCounter> = vec![PrecisionCounter::new(); steps.len()];
    for trial in 0..samples {
        // Cycle through non-initial steps and alternate the situation, so
        // the two situations are "equally examined".
        let j = 1 + trial % (steps.len() - 1);
        let idle_situation = (trial / (steps.len() - 1)).is_multiple_of(2);
        let prev = if j >= 2 { steps[j - 2] } else { StepId::IDLE };
        let cur = steps[j - 1];
        let predicted = planner.predict_tool(prev, cur);

        let correct = if idle_situation {
            // Situation 1: the user idles in (prev, cur); the reminder
            // must point at the routine's next tool.
            predicted == steps[j].tool()
        } else {
            // Situation 2: the user grabs a wrong tool. The reminder is
            // issued from the same pre-error state; it must point at the
            // correct next tool AND flag the misused tool (which the
            // reminding subsystem does whenever the prompt differs from
            // the tool in use).
            let wrong = spec
                .tools()
                .iter()
                .map(coreda_adl::tool::Tool::id)
                .find(|&t| Some(t) != steps[j].tool() && StepId::from_tool(t) != cur)
                .expect("ADLs have more than two tools");
            predicted == steps[j].tool() && predicted != Some(wrong)
        };
        counters[j].record(correct);
    }

    steps
        .iter()
        .enumerate()
        .map(|(i, &id)| PredictRow {
            adl: spec.name().to_owned(),
            step: spec.step(id).expect("routine step in spec").name().to_owned(),
            precision: (i > 0).then(|| counters[i]),
        })
        .collect()
}

/// Runs the full Table 4 experiment (30 samples per ADL, like the
/// paper): one training job per ADL.
#[must_use]
pub fn run(engine: FleetEngine, samples: usize, seed: u64) -> Vec<PredictRow> {
    let adls: Vec<AdlSpec> = catalog::paper_adls().into_iter().collect();
    engine
        .map(adls, |adl| run_adl(&adl, samples, seed))
        .into_iter()
        .flatten()
        .collect()
}

/// Renders the table like the paper's.
#[must_use]
pub fn render(rows: &[PredictRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n== Table 4: Predict Precision of ADL Step ==");
    let _ = writeln!(out, "  {:<14} {:<30} {:>9} {:>7}", "ADL", "ADL Step", "Measured", "Paper");
    for r in rows {
        let (measured, paper) = match &r.precision {
            Some(p) => (format!("{:.0}%", p.precision() * 100.0), "100%"),
            None => ("-".to_owned(), "-"),
        };
        let _ = writeln!(out, "  {:<14} {:<30} {:>9} {:>7}", r.adl, r.step, measured, paper);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reproduction criterion: after convergence every non-initial
    /// step predicts at 100 %, and the first step has no entry.
    #[test]
    fn shape_matches_paper() {
        let rows = run(FleetEngine::default(), 30, 2007);
        assert_eq!(rows.len(), 8);
        for (i, r) in rows.iter().enumerate() {
            let first_of_adl = i % 4 == 0;
            match (&r.precision, first_of_adl) {
                (None, true) => {}
                (Some(p), false) => {
                    assert_eq!(
                        p.precision(),
                        1.0,
                        "{}/{} should predict perfectly, got {p}",
                        r.adl,
                        r.step
                    );
                    assert!(p.total() >= 5, "each step gets several trials");
                }
                other => panic!("row {i} has unexpected shape {other:?}"),
            }
        }
    }

    #[test]
    fn undertrained_planner_is_imperfect() {
        // Sanity check that the experiment can fail: with 3 training
        // episodes the planner cannot predict everything.
        let tea = catalog::tea_making();
        let planner = train_planner(&tea, 3, 1);
        let routine = Routine::canonical(&tea);
        let acc = planner.accuracy_vs_routine(&routine);
        assert!(acc < 1.0, "3 episodes should not be enough, got {acc}");
    }

    #[test]
    fn deterministic_under_seed() {
        assert_eq!(run(FleetEngine::default(), 30, 5), run(FleetEngine::new(2), 30, 5));
    }

    #[test]
    fn trials_split_across_situations() {
        let tea = catalog::tea_making();
        let rows = run_adl(&tea, 30, 2007);
        let total: u64 = rows.iter().filter_map(|r| r.precision.map(|p| p.total())).sum();
        assert_eq!(total, 30, "all 30 samples are scored");
    }
}
