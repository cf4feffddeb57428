//! Ablations over the design choices DESIGN.md calls out:
//!
//! - **λ sweep** — how much do eligibility traces buy on CoReDA's MDP?
//! - **Reward shape** — what breaks when the 1000/100/50/0 structure is
//!   flattened or the mismatch penalty is removed?
//! - **Fast learning** (future work §4.2) — Dyna-Q model replay vs the
//!   paper's TD(λ), measured in real episodes to convergence.
//! - **Algorithm family** — Q-learning / SARSA / Expected SARSA / Q(λ).
//!
//! Every configuration trains the production [`PlanningSubsystem`] through
//! [`learning_runs`], so the "Watkins Q(0.8) \[paper\]" rows are the
//! paper's planner by construction.

use coreda_adl::activity::catalog;
use coreda_adl::routine::Routine;
use coreda_core::baseline::{routine_accuracy, CertaintyEquivalence};
use coreda_core::fleet::FleetEngine;
use coreda_core::planning::{LearnerKind, PlanningConfig, PlanningSubsystem, RewardConfig};
use coreda_core::reminding::ReminderLevel;
use coreda_des::rng::SimRng;

use crate::common::{learning_runs, measure_extraction, LearningRuns};
use crate::fig4::sustained_crossing;

/// Result of one ablation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// Configuration label.
    pub label: String,
    /// Episodes to sustain ≥95 % accuracy (mean curve), if reached.
    pub converge_95: Option<usize>,
    /// Final accuracy after all episodes.
    pub final_accuracy: f64,
    /// Fraction of intermediate greedy prompts at the minimal level.
    pub minimal_fraction: f64,
}

fn minimal_fraction_of(planner: &PlanningSubsystem, routine: &Routine) -> f64 {
    let terminal = routine.last();
    let intermediate: Vec<_> =
        routine.transitions().into_iter().filter(|&(_, _, n)| n != terminal).collect();
    if intermediate.is_empty() {
        return 1.0;
    }
    let hits = intermediate
        .iter()
        .filter(|&&(p, c, _)| {
            planner.predict(p, c).is_some_and(|pr| pr.level == ReminderLevel::Minimal)
        })
        .count();
    hits as f64 / intermediate.len() as f64
}

/// Reads one point off a configuration's runs; the minimal-level share
/// only where `minimal` asks for it (`NaN` renders as "-").
fn point(label: &str, runs: &LearningRuns, routine: &Routine, minimal: bool) -> AblationPoint {
    AblationPoint {
        label: label.to_owned(),
        converge_95: sustained_crossing(&runs.mean_curve(), 0.95, 3),
        final_accuracy: runs.mean_of(|p| p.accuracy_vs_routine(routine)),
        minimal_fraction: if minimal {
            runs.mean_of(|p| minimal_fraction_of(p, routine))
        } else {
            f64::NAN
        },
    }
}

/// Trains each configuration on Tea-making recordings passed through the
/// sensing pipeline's measured extraction noise.
fn noisy_points(
    engine: FleetEngine,
    configs: &[(String, PlanningConfig)],
    episodes: usize,
    seeds: usize,
    base_seed: u64,
) -> Vec<AblationPoint> {
    let tea = catalog::tea_making();
    let routine = Routine::canonical(&tea);
    let extraction = measure_extraction(&tea, 200, &mut SimRng::seed_from(base_seed));
    configs
        .iter()
        .map(|(label, cfg)| {
            let runs = learning_runs(
                engine,
                &tea,
                Some(&extraction),
                episodes,
                seeds,
                |s| base_seed ^ (0xABCD_EF01 * (s + 1)),
                |_| *cfg,
            );
            point(label, &runs, &routine, true)
        })
        .collect()
}

/// A labelled learner, built from its run's seed.
type Learner = (&'static str, fn(u64) -> LearnerKind);

/// Trains each learner on clean Tea-making recordings with the planner's
/// other defaults.
fn clean_points(
    engine: FleetEngine,
    learners: &[Learner],
    stream: u64,
    episodes: usize,
    seeds: usize,
    base_seed: u64,
) -> Vec<AblationPoint> {
    let tea = catalog::tea_making();
    let routine = Routine::canonical(&tea);
    learners
        .iter()
        .map(|(label, learner)| {
            let runs = learning_runs(
                engine,
                &tea,
                None,
                episodes,
                seeds,
                |s| base_seed ^ (stream * (s + 1)),
                |seed| PlanningConfig { learner: learner(seed), ..PlanningConfig::default() },
            );
            point(label, &runs, &routine, false)
        })
        .collect()
}

/// λ sweep on Tea-making with the paper's protocol.
#[must_use]
pub fn lambda_sweep(
    engine: FleetEngine,
    lambdas: &[f64],
    episodes: usize,
    seeds: usize,
    base_seed: u64,
) -> Vec<AblationPoint> {
    let configs: Vec<_> = lambdas
        .iter()
        .map(|&lambda| (format!("lambda = {lambda}"), PlanningConfig { lambda, ..PlanningConfig::default() }))
        .collect();
    noisy_points(engine, &configs, episodes, seeds, base_seed)
}

/// Reward-shape ablation: the paper's values, a flat variant with no
/// level asymmetry, and a broken variant where mismatching prompts score
/// as well as matching ones.
#[must_use]
pub fn reward_shapes(
    engine: FleetEngine,
    episodes: usize,
    seeds: usize,
    base_seed: u64,
) -> Vec<AblationPoint> {
    let shapes = [
        ("paper (1000/100/50, 0 mismatch)", RewardConfig::default()),
        (
            "flat levels (1000/100/100, 0 mismatch)",
            RewardConfig { specific: 100.0, ..RewardConfig::default() },
        ),
        (
            "no mismatch penalty (all 100)",
            RewardConfig { terminal: 100.0, specific: 100.0, mismatch: 100.0, ..RewardConfig::default() },
        ),
    ];
    let configs: Vec<_> = shapes
        .into_iter()
        .map(|(label, reward)| (label.to_owned(), PlanningConfig { reward, ..PlanningConfig::default() }))
        .collect();
    noisy_points(engine, &configs, episodes, seeds, base_seed)
}

/// The "fast learning" study: Dyna-Q with increasing planning budgets vs
/// one-step Q-learning and the paper's Watkins Q(λ), all on Tea-making
/// clean recordings, measured in episodes to perfect routine accuracy.
#[must_use]
pub fn fast_learning(
    engine: FleetEngine,
    episodes: usize,
    seeds: usize,
    base_seed: u64,
) -> Vec<AblationPoint> {
    let learners: [Learner; 4] = [
        ("Q-learning (one-step)", |_| LearnerKind::QLearning),
        ("Watkins Q(0.8) [paper]", |_| LearnerKind::WatkinsQLambda),
        ("Dyna-Q, 5 planning steps", |seed| LearnerKind::DynaQ { planning_steps: 5, seed }),
        ("Dyna-Q, 30 planning steps", |seed| LearnerKind::DynaQ { planning_steps: 30, seed }),
    ];
    let mut points = clean_points(engine, &learners, 0x1357_9BDF, episodes, seeds, base_seed);

    // Certainty equivalence: deterministic given the episodes (no
    // exploration), so one run suffices.
    let tea = catalog::tea_making();
    let routine = Routine::canonical(&tea);
    let mut ce = CertaintyEquivalence::new(&tea, RewardConfig::default(), 0.05);
    let mut ce_curve = Vec::with_capacity(episodes);
    for _ in 0..episodes {
        ce.observe_episode(routine.steps());
        ce_curve.push(routine_accuracy(&ce, &routine));
    }
    points.push(AblationPoint {
        label: "Certainty equivalence (counts + VI)".into(),
        converge_95: sustained_crossing(&ce_curve, 0.95, 3),
        final_accuracy: *ce_curve.last().expect("episodes > 0"),
        minimal_fraction: f64::NAN,
    });
    points
}

/// Algorithm-family comparison on the same protocol as
/// [`fast_learning`], with SARSA variants included.
#[must_use]
pub fn algorithm_family(
    engine: FleetEngine,
    episodes: usize,
    seeds: usize,
    base_seed: u64,
) -> Vec<AblationPoint> {
    let learners: [Learner; 5] = [
        ("Q-learning", |_| LearnerKind::QLearning),
        ("SARSA", |_| LearnerKind::Sarsa),
        ("Expected SARSA", |_| LearnerKind::ExpectedSarsa),
        ("Double Q-learning", |_| LearnerKind::DoubleQ { seed: 99 }),
        ("Watkins Q(0.8) [paper]", |_| LearnerKind::WatkinsQLambda),
    ];
    clean_points(engine, &learners, 0x2468_ACE0, episodes, seeds, base_seed)
}

/// Renders ablation points as a table.
#[must_use]
pub fn render(title: &str, points: &[AblationPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n== Ablation: {title} ==");
    let _ = writeln!(
        out,
        "  {:<42} {:>12} {:>10} {:>9}",
        "configuration", "conv@95%", "final acc", "min-level"
    );
    for p in points {
        let conv = p.converge_95.map_or("n/a".to_owned(), |v| v.to_string());
        let minf = if p.minimal_fraction.is_nan() {
            "-".to_owned()
        } else {
            format!("{:.0}%", p.minimal_fraction * 100.0)
        };
        let _ = writeln!(
            out,
            "  {:<42} {:>12} {:>9.1}% {:>9}",
            p.label,
            conv,
            p.final_accuracy * 100.0,
            minf
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reward_shape_ablation_shows_structure_matters() {
        // The 100-vs-50 level gap is a quarter of the match-vs-mismatch
        // gap, so the level preference emerges noticeably later than the
        // routine itself — hence the longer horizon here.
        let points = reward_shapes(FleetEngine::default(), 250, 8, 2007);
        assert_eq!(points.len(), 3);
        let paper = &points[0];
        let flat = &points[1];
        let broken = &points[2];
        // The paper's shape learns the routine and prefers minimal prompts.
        assert!(paper.final_accuracy > 0.9, "paper shape: {paper:?}");
        assert!(paper.minimal_fraction > 0.8, "paper shape should prefer minimal: {paper:?}");
        // Flat levels still learn the routine but have no level preference
        // (ties break toward minimal, so the fraction stays high-ish; the
        // distinguishing signal is gone though — accept anything).
        assert!(flat.final_accuracy > 0.9, "flat shape: {flat:?}");
        // Removing the mismatch penalty destroys routine learning: every
        // prompt looks equally good.
        assert!(
            broken.final_accuracy < 0.7,
            "no-penalty shape should not learn the routine: {broken:?}"
        );
    }

    #[test]
    fn dyna_q_accelerates_learning() {
        let points = fast_learning(FleetEngine::default(), 60, 8, 2007);
        let one_step = points[0].converge_95.unwrap_or(usize::MAX);
        let dyna30 = points[3].converge_95.unwrap_or(usize::MAX);
        assert!(
            dyna30 < one_step,
            "Dyna-Q(30) should converge in fewer episodes: {points:#?}"
        );
        for p in &points {
            assert!(p.final_accuracy > 0.9, "all learners eventually solve it: {p:?}");
        }
        // Certainty equivalence needs the fewest episodes of all.
        let ce = points.last().unwrap();
        let ce_conv = ce.converge_95.unwrap_or(usize::MAX);
        assert!(
            ce_conv <= points.iter().filter_map(|p| p.converge_95).min().unwrap_or(usize::MAX),
            "CE should be the most sample-efficient: {points:#?}"
        );
        assert!(ce_conv <= 5, "clean episodes determine the routine immediately: {ce:?}");
    }

    #[test]
    fn lambda_sweep_runs_and_converges() {
        let points = lambda_sweep(FleetEngine::default(), &[0.0, 0.8], 80, 6, 2007);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.final_accuracy > 0.85, "{p:?}");
        }
    }

    #[test]
    fn algorithm_family_all_solve_the_task() {
        let points = algorithm_family(FleetEngine::default(), 100, 6, 2007);
        assert_eq!(points.len(), 5);
        for p in &points {
            assert!(p.final_accuracy > 0.85, "{p:?}");
        }
    }
}
