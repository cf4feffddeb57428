//! Fault plans: the single vocabulary of everything the harness can
//! break, with timed activation windows.
//!
//! A plan is pure data derived from a seed — running the same plan twice
//! is bit-identical, which is what makes shrinking and `.seed.json`
//! replay possible.

use coreda_adl::tool::ToolId;
use coreda_core::metro::{FaultSchedule, FaultState};
use coreda_des::rng::SimRng;
use coreda_des::time::SimTime;
use coreda_sensornet::network::LinkConfig;
use coreda_sensornet::radio::LossModel;

/// The serving pipeline's tick, mirrored here so plan windows can be
/// reasoned about on the same 100 ms grid.
pub const TICK_MS: u64 = 100;

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Every radio link switches to `model` for the window (burst noise,
    /// microwave interference, a metal pot on the antenna...).
    RadioLoss {
        /// Loss process during the window.
        model: LossModel,
        /// ARQ retransmission budget during the window.
        max_retries: u8,
    },
    /// The node strapped to `tool` crashes at the window start and
    /// reboots at its end.
    NodeCrash {
        /// Raw tool id (= PAVENET uid).
        tool: u16,
    },
    /// The sensor on `tool` mis-detects: spurious use while idle
    /// (`false_positive`) and missed use while active (`false_negative`).
    SensorFlip {
        /// Raw tool id.
        tool: u16,
        /// P(report "in use" per sample while the tool is idle).
        false_positive: f64,
        /// P(report "idle" per sample while the tool is in use).
        false_negative: f64,
    },
    /// The node on `tool` stamps its reports with a skewed clock.
    ClockSkew {
        /// Raw tool id.
        tool: u16,
        /// Offset added to the node's report timestamps.
        skew_ms: i64,
    },
    /// The patient ignores every prompt during the window.
    NonCompliance,
    /// The patient's lapses spike: elevated freeze and wrong-tool rates
    /// at step boundaries (a bad day, paper §2.2's severe profile).
    SevereLapses,
    /// During the window the patient's routine permutes: steps `swap_a`
    /// and `swap_b` (mod routine length) trade places — even in the
    /// middle of a running episode.
    RoutineDrift {
        /// First swapped position.
        swap_a: u8,
        /// Second swapped position.
        swap_b: u8,
    },
    /// The serving process dies at the window start (`from_ms`): the
    /// fleet's complete state round-trips through the binary checkpoint
    /// codecs, the event queues are lost, and a freshly built fleet
    /// resumes from the decoded snapshot. The window end is ignored — a
    /// kill is an instant, not an interval. Not drawn by
    /// [`FaultPlan::generate`]; injected via
    /// [`FaultPlan::with_kill_resume`] or written by hand.
    CheckpointKillResume,
    /// Served-path transport fault: every client's `Report` frames whose
    /// watermark falls in the window are sent twice. Like
    /// [`FaultKind::CheckpointKillResume`], never drawn by
    /// [`FaultPlan::generate`]; served plans come from
    /// [`FaultPlan::generate_served`] or are written by hand.
    FrameDup,
    /// Served-path transport fault: adjacent `Report` frames in the
    /// window arrive in inverted order.
    FrameReorder,
    /// Served-path transport fault: `Report` frames in the window are
    /// held one flush and arrive after the wake they were for.
    FrameDelay,
    /// Served-path transport fault: one seed-derived home's client hangs
    /// up at the window start (the window end is ignored — a hangup is
    /// an instant). The home freezes; every other home must be
    /// untouched.
    FrameDisconnect,
    /// Caregiver-channel fault: the caregiver answers no escalation
    /// whose acknowledgment falls due inside the window — the ack slips
    /// to the window end plus the severity's delay. Pure policy input
    /// (`CarePolicy::no_ack_windows`), so faulted runs stay
    /// deterministic. Never drawn by [`FaultPlan::generate`]; care
    /// plans come from [`FaultPlan::generate_care`].
    CaregiverNoAck,
}

impl FaultKind {
    /// Short stable name (file names, shrink logs).
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            FaultKind::RadioLoss { .. } => "radio_loss",
            FaultKind::NodeCrash { .. } => "node_crash",
            FaultKind::SensorFlip { .. } => "sensor_flip",
            FaultKind::ClockSkew { .. } => "clock_skew",
            FaultKind::NonCompliance => "non_compliance",
            FaultKind::SevereLapses => "severe_lapses",
            FaultKind::RoutineDrift { .. } => "routine_drift",
            FaultKind::CheckpointKillResume => "checkpoint_kill_resume",
            FaultKind::FrameDup => "frame_dup",
            FaultKind::FrameReorder => "frame_reorder",
            FaultKind::FrameDelay => "frame_delay",
            FaultKind::FrameDisconnect => "frame_disconnect",
            FaultKind::CaregiverNoAck => "caregiver_no_ack",
        }
    }

    /// Whether this is a served-path transport fault — the kinds the
    /// wire-level [`FaultPlan::generate_served`] plans are made of and
    /// the in-process pipeline never sees.
    #[must_use]
    pub const fn is_frame_fault(&self) -> bool {
        matches!(
            self,
            FaultKind::FrameDup
                | FaultKind::FrameReorder
                | FaultKind::FrameDelay
                | FaultKind::FrameDisconnect
        )
    }

    /// Whether this is a caregiver-channel fault — the kinds the
    /// escalation campaign's [`FaultPlan::generate_care`] plans are made
    /// of, applied as policy input rather than injected into the
    /// pipeline or the wire.
    #[must_use]
    pub const fn is_care_fault(&self) -> bool {
        matches!(self, FaultKind::CaregiverNoAck)
    }

    /// The link-layer configuration a radio fault corresponds to; `None`
    /// for non-radio faults. Integration tests build their networks from
    /// this so the two fault vocabularies cannot drift apart.
    #[must_use]
    pub fn link_config(&self) -> Option<LinkConfig> {
        match *self {
            FaultKind::RadioLoss { model, max_retries } => {
                Some(LinkConfig { loss: model, max_retries, ..LinkConfig::default() })
            }
            _ => None,
        }
    }
}

/// A fault active over `[from_ms, to_ms)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// What breaks.
    pub kind: FaultKind,
    /// Window start (inclusive), ms of simulated time.
    pub from_ms: u64,
    /// Window end (exclusive), ms of simulated time.
    pub to_ms: u64,
}

impl Fault {
    /// Whether the window covers `now_ms`.
    #[must_use]
    pub const fn active_at(&self, now_ms: u64) -> bool {
        self.from_ms <= now_ms && now_ms < self.to_ms
    }

    /// Window length in ms.
    #[must_use]
    pub const fn window_ms(&self) -> u64 {
        self.to_ms.saturating_sub(self.from_ms)
    }
}

/// A complete deterministic test case: seed, horizon, fault windows, and
/// (for corpus entries) the oracle the plan is expected to trip.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every random stream of the run (behavior, radios,
    /// episode scheduling). Independent of the faults.
    pub seed: u64,
    /// Simulated horizon in ms.
    pub horizon_ms: u64,
    /// Fault windows, applied in order.
    pub faults: Vec<Fault>,
    /// `Some(oracle_name)` for corpus entries that must reproduce a
    /// violation; `None` for plans expected to pass every oracle.
    pub expect_violation: Option<String>,
}

impl FaultPlan {
    /// Expands `seed` into a randomized plan over the given tool ids
    /// (raw PAVENET uids across every activity in the home).
    ///
    /// # Panics
    ///
    /// Panics if `tools` is empty.
    #[must_use]
    pub fn generate(seed: u64, tools: &[u16]) -> FaultPlan {
        assert!(!tools.is_empty(), "a fault plan needs at least one tool to target");
        let mut rng = SimRng::seed_from(seed).substream("fault-plan", 0);
        let horizon_ms = round_to_tick(rng.uniform_range(120_000.0, 480_000.0) as u64);
        let n_faults = 1 + (rng.uniform_range(0.0, 4.0) as usize).min(3);
        let faults = (0..n_faults).map(|_| generate_fault(&mut rng, tools, horizon_ms)).collect();
        FaultPlan { seed, horizon_ms, faults, expect_violation: None }
    }

    /// Adds a [`FaultKind::CheckpointKillResume`] at a seed-derived tick
    /// strictly inside the horizon, so a fuzz campaign exercises
    /// kill-and-resume on top of whatever else the plan breaks. The tick
    /// comes from its own substream — plans with and without the kill
    /// are otherwise identical, which is exactly what the
    /// `resume_equivalence` oracle compares.
    #[must_use]
    pub fn with_kill_resume(mut self) -> FaultPlan {
        let mut rng = SimRng::seed_from(self.seed).substream("kill-tick", 0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
        let at_ms =
            round_to_tick(rng.uniform_range(TICK_MS as f64, self.horizon_ms as f64 * 0.9) as u64);
        self.faults.push(Fault { kind: FaultKind::CheckpointKillResume, from_ms: at_ms, to_ms: at_ms });
        self
    }

    /// Expands `seed` into a served-path transport-fault plan: shorter
    /// horizons (three fleets' worth of simulation per check) and only
    /// the wire-level [`FaultKind::is_frame_fault`] kinds. Disjoint from
    /// [`FaultPlan::generate`] — the in-process campaign never draws
    /// frame faults, and the served campaign never draws pipeline ones.
    #[must_use]
    pub fn generate_served(seed: u64) -> FaultPlan {
        let mut rng = SimRng::seed_from(seed).substream("served-plan", 0);
        let horizon_ms = round_to_tick(rng.uniform_range(60_000.0, 180_000.0) as u64);
        let n_faults = 1 + (rng.uniform_range(0.0, 3.0) as usize).min(2);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let faults = (0..n_faults)
            .map(|_| {
                let from_ms = round_to_tick(rng.uniform_range(0.0, horizon_ms as f64 * 0.8) as u64);
                let len_ms = round_to_tick(rng.uniform_range(5_000.0, horizon_ms as f64 * 0.5) as u64);
                let to_ms = (from_ms + len_ms).min(horizon_ms);
                let kind = match (rng.uniform_range(0.0, 4.0) as usize).min(3) {
                    0 => FaultKind::FrameDup,
                    1 => FaultKind::FrameReorder,
                    2 => FaultKind::FrameDelay,
                    _ => FaultKind::FrameDisconnect,
                };
                Fault { kind, from_ms, to_ms }
            })
            .collect();
        FaultPlan { seed, horizon_ms, faults, expect_violation: None }
    }

    /// Expands `seed` into a caregiver-channel fault plan for the
    /// escalation campaign: outage windows during which no escalation is
    /// acknowledged, over horizons long enough for full raise → ack →
    /// resolve lifecycles. Disjoint from the other generators — pipeline
    /// and served campaigns never draw caregiver faults.
    #[must_use]
    pub fn generate_care(seed: u64) -> FaultPlan {
        let mut rng = SimRng::seed_from(seed).substream("care-plan", 0);
        let horizon_ms = round_to_tick(rng.uniform_range(120_000.0, 300_000.0) as u64);
        let n_faults = 1 + usize::from(rng.chance(0.5));
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let faults = (0..n_faults)
            .map(|_| {
                let from_ms = round_to_tick(rng.uniform_range(0.0, horizon_ms as f64 * 0.8) as u64);
                let len_ms =
                    round_to_tick(rng.uniform_range(5_000.0, horizon_ms as f64 * 0.4) as u64);
                Fault {
                    kind: FaultKind::CaregiverNoAck,
                    from_ms,
                    // Outage windows may outlive the horizon: an ack due
                    // near the end can slip past it and never happen.
                    to_ms: from_ms + len_ms,
                }
            })
            .collect();
        FaultPlan { seed, horizon_ms, faults, expect_violation: None }
    }

    /// Whether the plan targets the served ingestion path (routes
    /// replay and shrinking through the served harness).
    #[must_use]
    pub fn has_frame_faults(&self) -> bool {
        self.faults.iter().any(|f| f.kind.is_frame_fault())
    }

    /// Whether the plan carries caregiver-channel faults (routes replay
    /// and shrinking through the escalation differential).
    #[must_use]
    pub fn has_care_faults(&self) -> bool {
        self.faults.iter().any(|f| f.kind.is_care_fault())
    }

    /// The plan's process-death instants, sorted and clamped to the
    /// horizon.
    #[must_use]
    pub fn kills(&self) -> Vec<SimTime> {
        let mut kills: Vec<SimTime> = self
            .faults
            .iter()
            .filter(|f| f.kind == FaultKind::CheckpointKillResume)
            .map(|f| SimTime::from_millis(f.from_ms.min(self.horizon_ms)))
            .collect();
        kills.sort_unstable();
        kills
    }

    /// All tool ids the plan's targeted faults touch.
    pub fn targeted_tools(&self) -> impl Iterator<Item = u16> + '_ {
        self.faults.iter().filter_map(|f| match f.kind {
            FaultKind::NodeCrash { tool }
            | FaultKind::SensorFlip { tool, .. }
            | FaultKind::ClockSkew { tool, .. } => Some(tool),
            _ => None,
        })
    }
}

/// The plan's in-process windows as the fault overlay applies them.
/// Where windows of one kind overlap, the last one in plan order wins:
/// each `RoutineDrift` window swaps its own steps. Kills, frame and
/// caregiver faults act outside the pipeline and map to nothing.
impl FaultSchedule for FaultPlan {
    fn at(&self, at: SimTime) -> FaultState {
        let mut want = FaultState::default();
        for fault in self.faults.iter().filter(|f| f.active_at(at.as_millis())) {
            match fault.kind {
                FaultKind::RadioLoss { .. } => want.link = fault.kind.link_config(),
                FaultKind::NodeCrash { tool } => want.node_mut(ToolId::new(tool)).failed = true,
                FaultKind::SensorFlip { tool, false_positive, false_negative } => {
                    let node = want.node_mut(ToolId::new(tool));
                    node.false_positive = false_positive;
                    node.false_negative = false_negative;
                }
                FaultKind::ClockSkew { tool, skew_ms } => {
                    want.node_mut(ToolId::new(tool)).skew_ms = skew_ms;
                }
                FaultKind::NonCompliance => want.non_compliant = true,
                FaultKind::SevereLapses => want.lapsing = true,
                FaultKind::RoutineDrift { swap_a, swap_b } => want.drift = Some((swap_a, swap_b)),
                FaultKind::CheckpointKillResume
                | FaultKind::FrameDup
                | FaultKind::FrameReorder
                | FaultKind::FrameDelay
                | FaultKind::FrameDisconnect
                | FaultKind::CaregiverNoAck => {}
            }
        }
        want
    }
}

fn round_to_tick(ms: u64) -> u64 {
    (ms / TICK_MS).max(1) * TICK_MS
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn generate_fault(rng: &mut SimRng, tools: &[u16], horizon_ms: u64) -> Fault {
    let from_ms = round_to_tick(rng.uniform_range(0.0, horizon_ms as f64 * 0.8) as u64);
    let len_ms = round_to_tick(rng.uniform_range(5_000.0, horizon_ms as f64 * 0.5) as u64);
    let to_ms = (from_ms + len_ms).min(horizon_ms);
    let tool = *rng.choose(tools);
    let kind = match (rng.uniform_range(0.0, 7.0) as usize).min(6) {
        0 => {
            let model = if rng.chance(0.5) {
                LossModel::Bernoulli { p: rng.uniform_range(0.1, 1.0) }
            } else {
                LossModel::GilbertElliott {
                    p_good_to_bad: rng.uniform_range(0.01, 0.2),
                    p_bad_to_good: rng.uniform_range(0.05, 0.5),
                    loss_good: rng.uniform_range(0.0, 0.1),
                    loss_bad: rng.uniform_range(0.5, 1.0),
                }
            };
            let max_retries = if rng.chance(0.2) { 1 } else { 3 };
            FaultKind::RadioLoss { model, max_retries }
        }
        1 => FaultKind::NodeCrash { tool },
        2 => FaultKind::SensorFlip {
            tool,
            false_positive: rng.uniform_range(0.0, 0.05),
            false_negative: rng.uniform_range(0.0, 0.6),
        },
        3 => FaultKind::ClockSkew {
            tool,
            skew_ms: rng.uniform_range(-30_000.0, 30_000.0) as i64,
        },
        4 => FaultKind::NonCompliance,
        5 => FaultKind::SevereLapses,
        _ => FaultKind::RoutineDrift {
            swap_a: rng.uniform_range(0.0, 8.0) as u8,
            swap_b: rng.uniform_range(0.0, 8.0) as u8,
        },
    };
    Fault { kind, from_ms, to_ms }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOOLS: &[u16] = &[3, 4, 5, 6];

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(FaultPlan::generate(42, TOOLS), FaultPlan::generate(42, TOOLS));
    }

    #[test]
    fn distinct_seeds_give_distinct_plans() {
        let plans: Vec<FaultPlan> = (0..50).map(|s| FaultPlan::generate(s, TOOLS)).collect();
        let first = &plans[0];
        assert!(plans.iter().any(|p| p.faults != first.faults));
    }

    #[test]
    fn windows_fit_the_horizon_and_grid() {
        for seed in 0..200 {
            let plan = FaultPlan::generate(seed, TOOLS);
            assert_eq!(plan.horizon_ms % TICK_MS, 0);
            assert!(!plan.faults.is_empty());
            for f in &plan.faults {
                assert!(f.from_ms <= f.to_ms, "{f:?}");
                assert!(f.to_ms <= plan.horizon_ms, "{f:?}");
            }
        }
    }

    #[test]
    fn every_kind_is_eventually_generated() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..500 {
            for f in FaultPlan::generate(seed, TOOLS).faults {
                seen.insert(f.kind.name());
            }
        }
        for kind in [
            "radio_loss",
            "node_crash",
            "sensor_flip",
            "clock_skew",
            "non_compliance",
            "severe_lapses",
            "routine_drift",
        ] {
            assert!(seen.contains(kind), "fault kind {kind} never generated");
        }
    }

    #[test]
    fn kill_resume_is_opt_in_and_lands_on_the_grid() {
        // generate() never draws the kind: it is injected, not random.
        for seed in 0..500 {
            assert!(FaultPlan::generate(seed, TOOLS)
                .faults
                .iter()
                .all(|f| f.kind != FaultKind::CheckpointKillResume));
        }
        for seed in 0..50 {
            let plan = FaultPlan::generate(seed, TOOLS).with_kill_resume();
            let kill = plan.faults.last().unwrap();
            assert_eq!(kill.kind, FaultKind::CheckpointKillResume);
            assert_eq!(kill.from_ms, kill.to_ms, "a kill is an instant");
            assert_eq!(kill.from_ms % TICK_MS, 0);
            assert!(kill.from_ms >= TICK_MS && kill.from_ms < plan.horizon_ms, "{kill:?}");
            assert_eq!(plan, FaultPlan::generate(seed, TOOLS).with_kill_resume());
        }
    }

    #[test]
    fn frame_faults_are_never_drawn_by_the_pipeline_generator() {
        for seed in 0..500 {
            assert!(FaultPlan::generate(seed, TOOLS).faults.iter().all(|f| !f.kind.is_frame_fault()));
        }
    }

    #[test]
    fn served_plans_are_deterministic_and_frame_only() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..200 {
            let plan = FaultPlan::generate_served(seed);
            assert_eq!(plan, FaultPlan::generate_served(seed));
            assert_eq!(plan.horizon_ms % TICK_MS, 0);
            assert!(plan.has_frame_faults());
            for f in &plan.faults {
                assert!(f.kind.is_frame_fault(), "{f:?}");
                assert!(f.from_ms <= f.to_ms && f.to_ms <= plan.horizon_ms, "{f:?}");
                seen.insert(f.kind.name());
            }
        }
        for kind in ["frame_dup", "frame_reorder", "frame_delay", "frame_disconnect"] {
            assert!(seen.contains(kind), "served fault kind {kind} never generated");
        }
    }

    #[test]
    fn care_plans_are_deterministic_and_caregiver_only() {
        for seed in 0..200 {
            let plan = FaultPlan::generate_care(seed);
            assert_eq!(plan, FaultPlan::generate_care(seed));
            assert_eq!(plan.horizon_ms % TICK_MS, 0);
            assert!(plan.has_care_faults());
            assert!(!plan.has_frame_faults());
            for f in &plan.faults {
                assert_eq!(f.kind, FaultKind::CaregiverNoAck);
                assert!(f.from_ms <= f.to_ms, "{f:?}");
            }
            // The other generators never draw caregiver faults.
            assert!(!FaultPlan::generate(seed, TOOLS).has_care_faults());
            assert!(!FaultPlan::generate_served(seed).has_care_faults());
        }
    }

    #[test]
    fn each_drift_window_swaps_its_own_steps() {
        let drift = |from_ms, to_ms, swap_a, swap_b| Fault {
            kind: FaultKind::RoutineDrift { swap_a, swap_b },
            from_ms,
            to_ms,
        };
        let plan = FaultPlan {
            seed: 1,
            horizon_ms: 300_000,
            faults: vec![
                drift(0, 100_000, 1, 3),
                drift(150_000, 300_000, 0, 2),
                drift(200_000, 250_000, 2, 3),
            ],
            expect_violation: None,
        };
        let at = |ms| plan.at(SimTime::from_millis(ms)).drift;
        assert_eq!(at(50_000), Some((1, 3)));
        assert_eq!(at(120_000), None);
        assert_eq!(at(160_000), Some((0, 2)));
        assert_eq!(at(220_000), Some((2, 3)), "the last active window wins");
        assert_eq!(at(260_000), Some((0, 2)));
    }

    #[test]
    fn radio_faults_convert_to_link_configs() {
        let kind = FaultKind::RadioLoss { model: LossModel::Bernoulli { p: 0.3 }, max_retries: 1 };
        let cfg = kind.link_config().unwrap();
        assert_eq!(cfg.loss, LossModel::Bernoulli { p: 0.3 });
        assert_eq!(cfg.max_retries, 1);
        assert!(FaultKind::NonCompliance.link_config().is_none());
        // The overlay applies a window's whole link config, retry budget
        // included, and only while the window is open.
        let plan = FaultPlan {
            seed: 1,
            horizon_ms: 10_000,
            faults: vec![Fault { kind, from_ms: 1_000, to_ms: 5_000 }],
            expect_violation: None,
        };
        assert_eq!(plan.at(SimTime::from_millis(999)), FaultState::default());
        assert_eq!(plan.at(SimTime::from_millis(1_000)).link, Some(cfg));
        assert_eq!(plan.at(SimTime::from_millis(5_000)), FaultState::default());
    }
}
