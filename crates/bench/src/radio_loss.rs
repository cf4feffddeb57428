//! Failure injection: what packet loss does to CoReDA.
//!
//! The paper ran on a clean bench-top link; a deployed home has
//! microwaves, bodies and concrete. This experiment sweeps frame-loss
//! probability (memoryless and bursty Gilbert–Elliott) and reports the
//! end-to-end effect on extraction precision and on learning convergence.

use coreda_adl::activity::catalog;
use coreda_adl::routine::Routine;
use coreda_core::fleet::FleetEngine;
use coreda_core::planning::PlanningConfig;
use coreda_sensornet::network::LinkConfig;
use coreda_sensornet::radio::LossModel;

use crate::common::learning_runs;
use crate::fig4::sustained_crossing;
use crate::table3;

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct LossPoint {
    /// Link description.
    pub link: String,
    /// Mean extraction precision across every step of both ADLs.
    pub mean_extraction: f64,
    /// Episodes to sustain 95 % routine accuracy on Tea-making (mean
    /// curve over seeds), if reached within the horizon.
    pub converge_95: Option<usize>,
    /// Final Tea-making accuracy.
    pub final_accuracy: f64,
}

fn link_with(loss: LossModel) -> LinkConfig {
    LinkConfig { loss, ..LinkConfig::default() }
}

/// The standard sweep: perfect, Bernoulli {10, 30, 50, 70 %}, and a
/// bursty channel with a similar average rate to the 30 % point.
#[must_use]
pub fn standard_links() -> Vec<(String, LinkConfig)> {
    let mut links = vec![("perfect".to_owned(), link_with(LossModel::Perfect))];
    for p in [0.1, 0.3, 0.5, 0.7] {
        links.push((format!("bernoulli {:.0}%", p * 100.0), link_with(LossModel::Bernoulli { p })));
    }
    links.push((
        "gilbert-elliott (bursty ~30%)".to_owned(),
        link_with(LossModel::GilbertElliott {
            p_good_to_bad: 0.1,
            p_bad_to_good: 0.2,
            loss_good: 0.05,
            loss_bad: 0.8,
        }),
    ));
    links
}

/// Runs the sweep: per link, Table 3's extraction rows under the link's
/// label, then Tea-making learning under the tea rows' extraction.
#[must_use]
pub fn run(
    engine: FleetEngine,
    extract_trials: usize,
    episodes: usize,
    seeds: usize,
    base_seed: u64,
) -> Vec<LossPoint> {
    let tea = catalog::tea_making();
    let routine = Routine::canonical(&tea);
    standard_links()
        .into_iter()
        .map(|(label, link)| {
            let rows = table3::sweep(engine, extract_trials, base_seed, &label, link);
            let hits: u64 = rows.iter().map(|r| r.precision.hits()).sum();
            let total: u64 = rows.iter().map(|r| r.precision.total()).sum();
            let tea_extraction: Vec<f64> = rows
                .iter()
                .filter(|r| r.adl == tea.name())
                .map(|r| r.precision.hits() as f64 / extract_trials as f64)
                .collect();
            let runs = learning_runs(
                engine,
                &tea,
                Some(&tea_extraction),
                episodes,
                seeds,
                |s| base_seed ^ (0x1111_2222 * (s + 1)),
                |_| PlanningConfig::default(),
            );
            LossPoint {
                link: label,
                mean_extraction: hits as f64 / total as f64,
                converge_95: sustained_crossing(&runs.mean_curve(), 0.95, 3),
                final_accuracy: runs.mean_of(|p| p.accuracy_vs_routine(&routine)),
            }
        })
        .collect()
}

/// Renders the sweep.
#[must_use]
pub fn render(points: &[LossPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n== Failure injection: radio loss sweep ==");
    let _ = writeln!(
        out,
        "  {:<30} {:>11} {:>9} {:>10}",
        "link", "extraction", "conv@95%", "final acc"
    );
    for p in points {
        let conv = p.converge_95.map_or("n/a".to_owned(), |v| v.to_string());
        let _ = writeln!(
            out,
            "  {:<30} {:>10.1}% {:>9} {:>9.1}%",
            p.link,
            p.mean_extraction * 100.0,
            conv,
            p.final_accuracy * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arq_absorbs_moderate_loss() {
        // Stop-and-wait with 3 retries keeps extraction essentially flat
        // up to 30 % loss; heavy loss finally bites.
        let points = run(FleetEngine::default(), 60, 60, 4, 2007);
        let by_name = |n: &str| points.iter().find(|p| p.link.starts_with(n)).unwrap();
        let perfect = by_name("perfect").mean_extraction;
        let b30 = by_name("bernoulli 30%").mean_extraction;
        let b70 = by_name("bernoulli 70%").mean_extraction;
        assert!((perfect - b30).abs() < 0.05, "ARQ should mask 30% loss: {perfect} vs {b30}");
        assert!(b70 < perfect - 0.05, "70% loss should hurt: {b70} vs {perfect}");
    }

    #[test]
    fn learning_survives_loss() {
        // Enough extraction trials and seeds that the band below measures
        // the learner, not Monte-Carlo noise in the extraction estimate.
        let points = run(FleetEngine::default(), 80, 100, 6, 11);
        for p in &points {
            assert!(
                p.final_accuracy > 0.8,
                "learning should stay functional under {}: {p:?}",
                p.link
            );
        }
    }
}
