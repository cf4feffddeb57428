//! CoReDA vs the prior-work baselines.
//!
//! The paper's motivating criticism of earlier guidance systems is that
//! they "are based solely on pre-planned routines of ADLs, without
//! considering different users' preferences". This experiment quantifies
//! that: on users whose personal routine deviates from the canonical
//! order, the pre-planned baseline mispredicts, while CoReDA (which
//! learned the user) matches the oracle value-iteration planner.
//! A second study compares live outcomes: completion time and reminder
//! counts for a moderately impaired patient under each planner.

use coreda_adl::activity::{catalog, AdlSpec};
use coreda_adl::patient::PatientProfile;
use coreda_adl::routine::Routine;
use coreda_core::baseline::{routine_accuracy, CanonicalReminder, MdpPlanner};
use coreda_core::fleet::FleetEngine;
use coreda_core::live::StochasticBehavior;
use coreda_core::planning::{PlanningConfig, PlanningSubsystem, RewardConfig};
use coreda_core::system::{Coreda, CoredaConfig};
use coreda_des::rng::SimRng;

/// Accuracy of the three predictors on one personalised routine.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyRow {
    /// Short description of the user's routine.
    pub routine: String,
    /// CoReDA after 120 training episodes.
    pub coreda: f64,
    /// The pre-planned canonical baseline.
    pub canonical: f64,
    /// Value iteration with oracle knowledge of the routine.
    pub oracle: f64,
}

/// Runs the prediction-accuracy comparison over `users` random
/// personalised routines of `spec` (plus the canonical one). The
/// personalised routines are drawn from one sequential stream up front
/// (their shuffles depend on draw order); the per-routine training jobs
/// then fan out, each with its own fixed-seed stream.
#[must_use]
pub fn accuracy_study(
    engine: FleetEngine,
    spec: &AdlSpec,
    users: usize,
    seed: u64,
) -> Vec<AccuracyRow> {
    let mut rng = SimRng::seed_from(seed);
    let mut routines = vec![("canonical".to_owned(), Routine::canonical(spec))];
    for u in 0..users {
        let mut ids = spec.step_ids();
        // Personalised users keep the terminal step (you drink the tea
        // last either way) but reorder the preparation steps.
        let last = ids.pop().expect("ADLs are non-empty");
        rng.shuffle(&mut ids);
        ids.push(last);
        routines.push((format!("user {}", u + 1), Routine::new(spec, ids)));
    }

    engine.map(routines, |(label, routine)| {
        let mut planner = PlanningSubsystem::new(spec, PlanningConfig::default());
        let mut train_rng = SimRng::seed_from(seed ^ 0x5555);
        for _ in 0..120 {
            planner.train_episode(routine.steps(), &mut train_rng);
        }
        let canonical = CanonicalReminder::new(spec);
        let oracle = MdpPlanner::solve(spec, &routine, RewardConfig::default(), 0.05, 20);
        AccuracyRow {
            routine: label,
            coreda: routine_accuracy(&planner, &routine),
            canonical: routine_accuracy(&canonical, &routine),
            oracle: routine_accuracy(&oracle, &routine),
        }
    })
}

/// Live outcomes under one planner state.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveRow {
    /// Planner description.
    pub planner: String,
    /// Mean completion time in seconds (only completed episodes).
    pub mean_completion_s: f64,
    /// Fraction of episodes completed within the cap.
    pub completion_rate: f64,
    /// Mean reminders per episode.
    pub mean_reminders: f64,
    /// Mean praises per episode.
    pub mean_praises: f64,
}

/// Live comparison: a moderately impaired patient runs `episodes`
/// tea-making episodes under (a) a trained CoReDA and (b) an untrained
/// one (whose prompts are useless, leaving the patient to self-recover).
/// One fleet job per planner condition (each condition already has its
/// own derived RNG streams).
#[must_use]
pub fn live_study(engine: FleetEngine, episodes: usize, seed: u64) -> Vec<LiveRow> {
    let tea = catalog::tea_making();
    let routine = Routine::canonical(&tea);

    let conditions =
        vec![("CoReDA (trained, 120 episodes)", true), ("untrained prompts", false)];
    engine.map(conditions, |(label, train)| {
        let mut system = Coreda::new(tea.clone(), "Mr. Tanaka", CoredaConfig::default(), seed);
        if train {
            let mut rng = SimRng::seed_from(seed ^ 0x1111);
            for _ in 0..120 {
                system.planner_mut().train_episode(routine.steps(), &mut rng);
            }
        }
        let mut rng = SimRng::seed_from(seed ^ 0x2222);
        let mut completions = Vec::new();
        let mut reminders = 0usize;
        let mut praises = 0usize;
        let mut completed = 0usize;
        for _ in 0..episodes {
            let mut behavior = StochasticBehavior::new(PatientProfile::moderate("Mr. Tanaka"));
            let log = system.run_live(&routine, &mut behavior, &mut rng);
            if let Some(t) = log.completed_at() {
                completed += 1;
                completions.push(t.as_secs_f64());
            }
            reminders += log.reminders().len();
            praises += log.praise_count();
        }
        LiveRow {
            planner: label.to_owned(),
            mean_completion_s: coreda_core::metrics::mean(&completions),
            completion_rate: completed as f64 / episodes as f64,
            mean_reminders: reminders as f64 / episodes as f64,
            mean_praises: praises as f64 / episodes as f64,
        }
    })
}

/// Renders the accuracy study.
#[must_use]
pub fn render_accuracy(rows: &[AccuracyRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n== Baseline comparison: next-step prediction accuracy ==");
    let _ = writeln!(out, "  {:<12} {:>8} {:>11} {:>8}", "routine", "CoReDA", "pre-planned", "oracle");
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<12} {:>7.0}% {:>10.0}% {:>7.0}%",
            r.routine,
            r.coreda * 100.0,
            r.canonical * 100.0,
            r.oracle * 100.0
        );
    }
    out
}

/// Renders the live study.
#[must_use]
pub fn render_live(rows: &[LiveRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n== Baseline comparison: live episodes (moderate dementia) ==");
    let _ = writeln!(
        out,
        "  {:<32} {:>12} {:>10} {:>10} {:>8}",
        "planner", "completion", "rate", "reminders", "praises"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<32} {:>10.1}s {:>9.0}% {:>10.2} {:>8.2}",
            r.planner,
            r.mean_completion_s,
            r.completion_rate * 100.0,
            r.mean_reminders,
            r.mean_praises
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coreda_matches_oracle_and_beats_preplanned() {
        let tea = catalog::tea_making();
        let rows = accuracy_study(FleetEngine::default(), &tea, 4, 2007);
        assert_eq!(rows.len(), 5);
        // On the canonical user everyone is perfect.
        assert_eq!(rows[0].coreda, 1.0);
        assert_eq!(rows[0].canonical, 1.0);
        assert_eq!(rows[0].oracle, 1.0);
        // On personalised users CoReDA stays with the oracle; the
        // pre-planned baseline loses accuracy whenever the order differs.
        let mut baseline_ever_wrong = false;
        for r in &rows[1..] {
            assert_eq!(r.oracle, 1.0, "{r:?}");
            assert!(r.coreda >= 0.99, "CoReDA should learn every user: {r:?}");
            if r.canonical < 1.0 {
                baseline_ever_wrong = true;
            }
        }
        assert!(
            baseline_ever_wrong,
            "at least one shuffled user should defeat the pre-planned baseline: {rows:#?}"
        );
    }

    #[test]
    fn trained_system_outperforms_untrained_live() {
        let rows = live_study(FleetEngine::default(), 12, 2007);
        let trained = &rows[0];
        let untrained = &rows[1];
        assert!(trained.completion_rate >= untrained.completion_rate);
        assert!(
            trained.mean_completion_s < untrained.mean_completion_s,
            "useful prompts should shorten episodes: {rows:#?}"
        );
    }
}
