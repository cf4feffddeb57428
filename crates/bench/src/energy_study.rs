//! Deployment study: node energy and battery life.
//!
//! Not in the paper — but the first question a caregiver organisation
//! asks about tool-mounted motes is "how often do we change batteries?".
//! This study runs a realistic day (several ADL episodes plus long idle
//! stretches of pure 10 Hz sampling) and extrapolates battery life per
//! tool from the measured energy mix.

use coreda_adl::activity::catalog;
use coreda_adl::patient::PatientProfile;
use coreda_adl::routine::Routine;
use coreda_core::live::StochasticBehavior;
use coreda_core::system::{Coreda, CoredaConfig};
use coreda_des::rng::SimRng;
use coreda_sensornet::energy::TWO_AA_JOULES;

/// Energy summary for one tool node.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyRow {
    /// Tool name.
    pub tool: String,
    /// Microjoules consumed during the simulated day's active part.
    pub active_uj: f64,
    /// Samples taken.
    pub samples: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// LED-on milliseconds.
    pub led_ms: u64,
    /// Estimated battery life in days on two AA cells, assuming the
    /// measured episodes repeat `episodes_per_day` times daily and the
    /// node sleeps (while still sampling) the rest of the time.
    pub battery_days: f64,
}

/// Runs `episodes` tea-making episodes with a moderately impaired patient
/// and extrapolates per-tool battery life at `episodes_per_day`.
#[must_use]
pub fn run(episodes: usize, episodes_per_day: f64, seed: u64) -> Vec<EnergyRow> {
    let tea = catalog::tea_making();
    let routine = Routine::canonical(&tea);
    let mut system = Coreda::new(tea.clone(), "x", CoredaConfig::default(), seed);
    let mut rng = SimRng::seed_from(seed ^ 0x77);
    for _ in 0..150 {
        system.planner_mut().train_episode(routine.steps(), &mut rng);
    }

    let mut active_ms = 0u64;
    for _ in 0..episodes {
        let mut behavior = StochasticBehavior::new(PatientProfile::moderate("x"));
        let log = system.run_live(&routine, &mut behavior, &mut rng);
        if let Some((t, _)) = log.entries().last() {
            active_ms += t.as_millis();
        }
    }

    let model = coreda_sensornet::energy::EnergyModel::PAVENET;
    tea.tools()
        .iter()
        .map(|tool| {
            let node = system.node(tool.id()).expect("node exists per tool");
            let meter = node.energy();
            let (samples, tx, _rx, led, _sleep) = meter.breakdown();
            // Extrapolate one day: the active episodes repeat
            // `episodes_per_day / episodes` times, and the rest of the day
            // the node samples at 10 Hz without transmitting.
            let day_ms = 86_400_000.0;
            let scale = episodes_per_day / episodes as f64;
            let active_day_uj = meter.consumed_uj() * scale;
            let active_day_ms = active_ms as f64 * scale;
            let idle_ms = (day_ms - active_day_ms).max(0.0);
            let idle_samples = idle_ms / 100.0;
            let idle_uj = idle_samples * model.sample_uj + idle_ms * model.sleep_ms_uj;
            let day_uj = active_day_uj + idle_uj;
            let battery_days = TWO_AA_JOULES / (day_uj * 1e-6);
            EnergyRow {
                tool: tool.name().to_owned(),
                active_uj: meter.consumed_uj(),
                samples,
                tx_bytes: tx,
                led_ms: led,
                battery_days,
            }
        })
        .collect()
}

/// Renders the study.
#[must_use]
pub fn render(rows: &[EnergyRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n== Deployment study: node energy & battery life ==");
    let _ = writeln!(
        out,
        "  {:<16} {:>12} {:>9} {:>9} {:>8} {:>13}",
        "tool", "active µJ", "samples", "tx bytes", "LED ms", "battery days"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<16} {:>12.0} {:>9} {:>9} {:>8} {:>13.0}",
            r.tool, r.active_uj, r.samples, r.tx_bytes, r.led_ms, r.battery_days
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_life_is_plausible() {
        let rows = run(5, 3.0, 2007);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            // Dominated by 10 Hz idle sampling: weeks-to-months, not hours
            // and not centuries.
            assert!(
                (10.0..10_000.0).contains(&r.battery_days),
                "{}: implausible battery estimate {:.1} days",
                r.tool,
                r.battery_days
            );
            assert!(r.samples > 0);
        }
    }

    #[test]
    fn used_tools_transmit_unused_sampling_still_costs() {
        let rows = run(5, 3.0, 7);
        // Every tea tool is used in the routine, so all transmit.
        for r in &rows {
            assert!(r.tx_bytes > 0, "{} should have reported use", r.tool);
            assert!(r.active_uj > 0.0);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        assert_eq!(run(3, 3.0, 9), run(3, 3.0, 9));
    }
}
