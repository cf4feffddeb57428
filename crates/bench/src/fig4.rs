//! Figure 4 — the TD(λ) Q-learning learning curve.
//!
//! The paper trains on 120 complete episodes per ADL and reads off when
//! the "converging condition" is met: 95 % after 49 iterations
//! (Tooth-brushing) / 56 (Tea-making), and 98 % after 91 / 98.
//!
//! We reproduce the curve as mean prediction accuracy (greedy prompt vs
//! the user's routine) over independently seeded runs. Training episodes
//! pass through the measured extraction noise of the sensing pipeline, so
//! Tea-making — whose "pour hot water" step extracts at only ~80 % —
//! learns more slowly than Tooth-brushing, exactly as in the paper.

use coreda_adl::activity::{catalog, AdlSpec};
use coreda_core::fleet::FleetEngine;
use coreda_core::planning::PlanningConfig;
use coreda_des::rng::SimRng;

use crate::common::{learning_runs, measure_extraction};

/// The learning curve of one ADL.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// ADL name.
    pub adl: String,
    /// Mean accuracy after each training episode.
    pub accuracy: Vec<f64>,
    /// First episode (1-based) whose mean accuracy sustains ≥ 95 %.
    pub converge_95: Option<usize>,
    /// First episode (1-based) whose mean accuracy sustains ≥ 98 %.
    pub converge_98: Option<usize>,
}

/// The paper's reported convergence iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperPoint {
    /// Episodes to reach 95 %.
    pub at_95: usize,
    /// Episodes to reach 98 %.
    pub at_98: usize,
}

/// Figure 4's reported values.
#[must_use]
pub fn paper_values() -> [(&'static str, PaperPoint); 2] {
    [
        ("Tooth-brushing", PaperPoint { at_95: 49, at_98: 91 }),
        ("Tea-making", PaperPoint { at_95: 56, at_98: 98 }),
    ]
}

/// First index (1-based) from which `curve` stays at or above `threshold`
/// for at least `window` points.
#[must_use]
pub fn sustained_crossing(curve: &[f64], threshold: f64, window: usize) -> Option<usize> {
    if curve.len() < window {
        return None;
    }
    (0..=curve.len() - window)
        .find(|&i| curve[i..i + window].iter().all(|&a| a >= threshold))
        .map(|i| i + 1)
}

/// Runs the Figure 4 protocol for one ADL.
fn run_adl(
    engine: FleetEngine,
    spec: &AdlSpec,
    episodes: usize,
    seeds: usize,
    base_seed: u64,
) -> Curve {
    let extraction = measure_extraction(spec, 300, &mut SimRng::seed_from(base_seed));
    let runs = learning_runs(
        engine,
        spec,
        Some(&extraction),
        episodes,
        seeds,
        |s| base_seed ^ (0x9E37_79B9 * (s + 1)),
        |_| PlanningConfig::default(),
    );
    let accuracy = runs.mean_curve();
    Curve {
        adl: spec.name().to_owned(),
        converge_95: sustained_crossing(&accuracy, 0.95, 3),
        converge_98: sustained_crossing(&accuracy, 0.98, 3),
        accuracy,
    }
}

/// Runs the full Figure 4 experiment over both catalog ADLs: one fleet
/// job per seed, each with its own derived stream, so the curves are
/// identical at any worker count.
#[must_use]
pub fn run(engine: FleetEngine, episodes: usize, seeds: usize, base_seed: u64) -> Vec<Curve> {
    catalog::paper_adls()
        .iter()
        .map(|adl| run_adl(engine, adl, episodes, seeds, base_seed))
        .collect()
}

/// Renders the curves as fixed-interval series plus convergence summary.
#[must_use]
pub fn render(curves: &[Curve]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n== Figure 4: Learning curve ==");
    let paper = paper_values();
    for c in curves {
        let _ = writeln!(out, "  {} (episodes 1..{}):", c.adl, c.accuracy.len());
        for line in crate::common::ascii_chart(&c.accuracy, 8, 60).lines() {
            let _ = writeln!(out, "    {line}");
        }
        for (i, acc) in c.accuracy.iter().enumerate() {
            if (i + 1) % 20 == 0 || i == 0 {
                let _ = writeln!(out, "    episode {:>3}: {:>5.1}%", i + 1, acc * 100.0);
            }
        }
        let point = paper.iter().find(|(n, _)| *n == c.adl).map(|(_, p)| *p);
        let fmt_opt = |o: Option<usize>| o.map_or("n/a".to_owned(), |v| v.to_string());
        let _ = writeln!(
            out,
            "    converge@95%: measured {:>4}  (paper {})",
            fmt_opt(c.converge_95),
            point.map_or("?".into(), |p| p.at_95.to_string()),
        );
        let _ = writeln!(
            out,
            "    converge@98%: measured {:>4}  (paper {})",
            fmt_opt(c.converge_98),
            point.map_or("?".into(), |p| p.at_98.to_string()),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_crossing_semantics() {
        let c = [0.9, 0.96, 0.7, 0.96, 0.97, 0.99];
        assert_eq!(sustained_crossing(&c, 0.95, 1), Some(2));
        assert_eq!(sustained_crossing(&c, 0.95, 3), Some(4));
        assert_eq!(sustained_crossing(&c, 0.999, 2), None);
        assert_eq!(sustained_crossing(&[0.9], 0.5, 3), None);
    }

    #[test]
    fn deterministic_under_seed() {
        let tooth = catalog::tooth_brushing();
        let a = run_adl(FleetEngine::default(), &tooth, 30, 3, 7);
        let b = run_adl(FleetEngine::default(), &tooth, 30, 3, 7);
        assert_eq!(a, b);
    }
}
