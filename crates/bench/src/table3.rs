//! Table 3 — "Extract Precision of ADL Step".
//!
//! The paper collected 320 samples (40 per tool) across the two ADLs and
//! reports per-step extraction precision between 80 % and 100 %, with the
//! two short steps lowest ("Dry with a towel" 85 %, "Pour hot water into
//! kettle" 80 %).

use coreda_adl::activity::catalog;
use coreda_core::fleet::{derive_seed, FleetEngine};
use coreda_core::metrics::PrecisionCounter;
use coreda_des::rng::SimRng;
use coreda_sensornet::network::{LinkConfig, StarNetwork};

use crate::common::extract_trial;

/// One row of the reproduced table.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractRow {
    /// ADL name.
    pub adl: String,
    /// Step name.
    pub step: String,
    /// Measured precision.
    pub precision: PrecisionCounter,
    /// The paper's reported value for this row.
    pub paper: f64,
}

/// The paper's Table 3 values, in catalog order.
#[must_use]
pub fn paper_values() -> Vec<f64> {
    vec![
        0.90, 1.00, 1.00, 0.85, // Tooth-brushing
        1.00, 0.80, 1.00, 0.90, // Tea-making
    ]
}

/// Runs the Table 3 protocol: `trials` performances of every step of both
/// catalog ADLs over a perfect radio link.
#[must_use]
pub fn run(engine: FleetEngine, trials: usize, seed: u64) -> Vec<ExtractRow> {
    sweep(engine, trials, seed, "table3", LinkConfig::default())
}

/// Table 3's row sweep over `link`: one fleet job per row, drawing from
/// `derive_seed(seed, label, row)`, so the table is identical at any
/// worker count. The radio-loss sweep runs it once per link, under the
/// link's own label.
#[must_use]
pub fn sweep(
    engine: FleetEngine,
    trials: usize,
    seed: u64,
    label: &str,
    link: LinkConfig,
) -> Vec<ExtractRow> {
    let paper = paper_values();
    let adls = catalog::paper_adls();
    let mut cells = Vec::new();
    for (ai, adl) in adls.iter().enumerate() {
        for idx in 0..adl.steps().len() {
            cells.push((cells.len(), ai, idx));
        }
    }
    engine.map(cells, |(row, ai, idx)| {
        let adl = &adls[ai];
        let mut rng = SimRng::seed_from(derive_seed(seed, label, row as u64));
        let mut net = StarNetwork::new(link);
        let mut counter = PrecisionCounter::new();
        for _ in 0..trials {
            counter.record(extract_trial(adl, idx, &mut net, &mut rng));
        }
        ExtractRow {
            adl: adl.name().to_owned(),
            step: adl.steps()[idx].name().to_owned(),
            precision: counter,
            paper: paper[row],
        }
    })
}

/// Renders the table like the paper's.
#[must_use]
pub fn render(rows: &[ExtractRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n== Table 3: Extract Precision of ADL Step ==");
    let _ = writeln!(out, "  {:<14} {:<30} {:>9} {:>7}", "ADL", "ADL Step", "Measured", "Paper");
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<14} {:<30} {:>8.0}% {:>6.0}%",
            r.adl,
            r.step,
            r.precision.precision() * 100.0,
            r.paper * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_count_matches_table() {
        let rows = run(FleetEngine::default(), 5, 1);
        assert_eq!(rows.len(), 8, "two ADLs × four steps");
        assert_eq!(paper_values().len(), 8);
    }

    #[test]
    fn deterministic_under_seed() {
        assert_eq!(run(FleetEngine::default(), 20, 9), run(FleetEngine::new(3), 20, 9));
    }

    #[test]
    fn render_contains_all_steps() {
        let rows = run(FleetEngine::default(), 5, 1);
        let s = render(&rows);
        for r in &rows {
            assert!(s.contains(&r.step));
        }
    }
}
