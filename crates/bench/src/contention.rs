//! Scaling study: many simultaneously active tools on one channel.
//!
//! The paper's prototype had one user and at most one tool in motion at a
//! time, so the CC1000's tiny contention window never mattered. A care
//! *facility* is different: a dozen residents' tools key up in the same
//! 100 ms slots. This study measures how window-delivery probability and
//! step-extraction precision degrade with the number of concurrently
//! active tools, and how much a wider contention window buys back.

use coreda_core::fleet::FleetEngine;
use coreda_des::rng::SimRng;
use coreda_sensornet::detect::Thresholds;
use coreda_sensornet::medium::SharedMedium;
use coreda_sensornet::network::{LinkConfig, StarNetwork};
use coreda_sensornet::node::{NodeId, PavenetNode};
use coreda_sensornet::signal::SignalModel;

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionPoint {
    /// Concurrently active tools.
    pub active_tools: usize,
    /// Contention-window size.
    pub window: u8,
    /// Fraction of positive detection windows whose report reached the
    /// base station.
    pub delivery: f64,
    /// Fraction of 6-second "steps" extracted (≥1 delivered report).
    pub extraction: f64,
}

/// Simulates `trials` six-second steps with `active_tools` tools all in
/// use at once, contending on a medium with the given `window`.
fn run_point(active_tools: usize, window: u8, trials: usize, seed: u64) -> ContentionPoint {
    let medium = SharedMedium::new(window);
    let mut rng = SimRng::seed_from(seed);
    let model = SignalModel::accelerometer(0.03, 0.45, 0.6);

    let mut nodes: Vec<PavenetNode> = (0..active_tools)
        .map(|i| {
            PavenetNode::new(
                NodeId::new(u16::try_from(i + 1).expect("few tools")),
                model,
                Thresholds::default(),
            )
        })
        .collect();
    let mut net = StarNetwork::new(LinkConfig::default());
    for n in &nodes {
        net.register(n.uid());
    }

    let mut reports_raised = 0u64;
    let mut reports_delivered = 0u64;
    let mut steps_extracted = 0u64;
    for _ in 0..trials {
        // Each trial: one 6 s step, all tools active; track whether the
        // *first* tool got at least one report through (the step under
        // measurement — the others are interference).
        let mut tool0_delivered = false;
        for tick in 0..60u64 {
            let mut outbox = Vec::new();
            for (i, node) in nodes.iter_mut().enumerate() {
                if let Some(p) = node.sample_tick(true, tick * 100, &mut rng) {
                    outbox.push((i, p));
                }
            }
            let slots = medium.resolve_slot(outbox.len(), &mut rng);
            for ((i, packet), won) in outbox.into_iter().zip(slots) {
                if i == 0 {
                    reports_raised += 1;
                }
                if !won {
                    continue;
                }
                // Every medium winner transmits (interference traffic
                // exercises the ARQ path too); only tool 0 is measured.
                let delivered = net.send_uplink(&packet, &mut rng).is_delivered();
                if delivered && i == 0 {
                    reports_delivered += 1;
                    tool0_delivered = true;
                }
            }
        }
        if tool0_delivered {
            steps_extracted += 1;
        }
        for n in &mut nodes {
            n.reset_detector();
        }
    }
    ContentionPoint {
        active_tools,
        window,
        delivery: if reports_raised == 0 {
            0.0
        } else {
            reports_delivered as f64 / reports_raised as f64
        },
        extraction: steps_extracted as f64 / trials as f64,
    }
}

/// The standard sweep: 1–12 concurrent tools at windows 8 and 32, one
/// fleet job per sweep point, each already seeded independently, so the
/// sweep is identical at any worker count.
#[must_use]
pub fn run(engine: FleetEngine, trials: usize, seed: u64) -> Vec<ContentionPoint> {
    let mut cells = Vec::new();
    for &window in &[8u8, 32] {
        for &k in &[1usize, 2, 4, 8, 12] {
            cells.push((k, window));
        }
    }
    engine.map(cells, |(k, window)| run_point(k, window, trials, seed ^ u64::from(window)))
}

/// Renders the sweep.
#[must_use]
pub fn render(points: &[ContentionPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n== Scaling: concurrent tools on one channel ==");
    let _ = writeln!(
        out,
        "  {:>6} {:>8} {:>10} {:>11}",
        "tools", "window", "delivery", "extraction"
    );
    for p in points {
        let _ = writeln!(
            out,
            "  {:>6} {:>8} {:>9.0}% {:>10.0}%",
            p.active_tools,
            p.window,
            p.delivery * 100.0,
            p.extraction * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_degrades_with_contenders() {
        let solo = run_point(1, 8, 40, 1);
        let crowd = run_point(8, 8, 40, 1);
        assert!(solo.delivery > 0.99, "lone tool delivers everything: {solo:?}");
        assert!(
            crowd.delivery < solo.delivery - 0.1,
            "eight contenders in eight slots must collide: {crowd:?} vs {solo:?}"
        );
        // Extraction survives because a 6 s step only needs one success.
        assert!(crowd.extraction > 0.9, "{crowd:?}");
    }

    #[test]
    fn wider_window_restores_delivery() {
        let narrow = run_point(8, 8, 40, 2);
        let wide = run_point(8, 32, 40, 2);
        assert!(
            wide.delivery > narrow.delivery,
            "a wider contention window must help: {wide:?} vs {narrow:?}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        assert_eq!(run_point(4, 8, 10, 7), run_point(4, 8, 10, 7));
    }
}
