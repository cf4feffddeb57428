//! The CoReDA system: sensing + planning + reminding wired together.
//!
//! [`Coreda`] owns one PAVENET node per tool, the star network to the
//! base station, and the three subsystems of Figure 2. It supports the
//! paper's two usages:
//!
//! - **offline training** on recorded episodes
//!   ([`Coreda::train_offline`]), as in the 120-sample experiments; and
//! - **live operation** ([`Coreda::run_live`]): a patient behaviour model
//!   performs the ADL in simulated real time while sensor sampling,
//!   radio transmission, step extraction, prediction, reminding, praise
//!   and (optionally) online learning all run against the virtual clock.

use std::sync::Arc;

use coreda_adl::activity::AdlSpec;
use coreda_adl::episode::Episode;
use coreda_adl::patient::PatientAction;
use coreda_adl::routine::Routine;
use coreda_adl::step::StepId;
use coreda_adl::tool::ToolId;
use coreda_des::rng::SimRng;
use coreda_des::time::{SimDuration, SimTime};
use coreda_sensornet::detect::Thresholds;
use coreda_sensornet::medium::SharedMedium;
use coreda_sensornet::network::{BaseStation, LinkConfig, LinkCounters, StarNetwork};
use coreda_sensornet::node::{NodeId, NodeState, PavenetNode};

use crate::live::{EpisodeLog, LogKind, PatientBehavior};
use crate::planning::{LearnedState, PlannerTemplate, PlanningConfig, PlanningSubsystem};
use crate::reminding::{Prompt, ReminderLevel, RemindingSubsystem, Trigger};
use crate::sensing::{SensingSubsystem, StepEvent};
use crate::telemetry::{Ctr, HomeRecorder, MaybeRec, Stage, TraceKind};

/// System-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct CoredaConfig {
    /// Planner hyper-parameters.
    pub planning: PlanningConfig,
    /// Radio link behaviour.
    pub link: LinkConfig,
    /// Detection thresholds.
    pub thresholds: Thresholds,
    /// CSMA/CA contention model for simultaneous transmissions.
    pub medium: SharedMedium,
    /// Minimum planner confidence required before a reminder is issued
    /// (0.0 = always remind; see
    /// [`PlanningSubsystem::prediction_confidence`]). Gating prevents an
    /// unconverged planner from nagging the user with guesses.
    pub min_prompt_confidence: f64,
    /// Whether live transitions also update the planner.
    pub online_learning: bool,
    /// How long the patient takes to react to a prompt.
    pub response_delay: SimDuration,
    /// How long the system waits before repeating an unanswered reminder
    /// (escalated to the specific level).
    pub reprompt_interval: SimDuration,
    /// After this long frozen, the patient recovers by themselves.
    pub freeze_recovery: SimDuration,
    /// After this long misusing a tool, the patient self-corrects.
    pub misuse_recovery: SimDuration,
    /// Hard cap on a live episode.
    pub max_episode: SimDuration,
}

impl Default for CoredaConfig {
    fn default() -> Self {
        CoredaConfig {
            planning: PlanningConfig::default(),
            link: LinkConfig::default(),
            thresholds: Thresholds::default(),
            medium: SharedMedium::default(),
            min_prompt_confidence: 0.0,
            online_learning: false,
            response_delay: SimDuration::from_secs(2),
            reprompt_interval: SimDuration::from_secs(15),
            freeze_recovery: SimDuration::from_secs(120),
            misuse_recovery: SimDuration::from_secs(25),
            max_episode: SimDuration::from_secs(15 * 60),
        }
    }
}

/// What the patient is doing right now: the live-episode state machine's
/// phase, held by a [`LiveEpisode`] and by its checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// Performing routine step `idx` until the given instant.
    Performing {
        /// Routine step index.
        idx: usize,
        /// When the step completes.
        until: SimTime,
    },
    /// Using the wrong tool since `since`; would resume at `resume_idx`.
    Misusing {
        /// The wrongly used tool.
        tool: ToolId,
        /// When the misuse began.
        since: SimTime,
        /// Routine index to resume at.
        resume_idx: usize,
    },
    /// Doing nothing since `since`; would resume at `resume_idx`.
    Frozen {
        /// When the freeze began.
        since: SimTime,
        /// Routine index to resume at.
        resume_idx: usize,
    },
    /// Finished every step.
    Done,
}

/// The assembled CoReDA system for one ADL and one user.
///
/// # Examples
///
/// ```
/// use coreda_adl::activity::catalog;
/// use coreda_adl::routine::Routine;
/// use coreda_core::system::{Coreda, CoredaConfig};
/// use coreda_des::rng::SimRng;
///
/// let tea = catalog::tea_making();
/// let mut system = Coreda::new(tea.clone(), "Mr. Tanaka", CoredaConfig::default(), 2007);
/// let routine = Routine::canonical(&tea);
/// let mut rng = SimRng::seed_from(1);
/// for _ in 0..150 {
///     system.planner_mut().train_episode(routine.steps(), &mut rng);
/// }
/// assert_eq!(system.planner().accuracy_vs_routine(&routine), 1.0);
/// ```
#[derive(Debug)]
pub struct Coreda {
    /// Immutable after construction; metro fleets share one copy across
    /// every home serving the same activity instead of cloning it.
    spec: Arc<AdlSpec>,
    /// Immutable after construction; metro fleets share one copy across
    /// every home.
    config: Arc<CoredaConfig>,
    nodes: Vec<(PavenetNode, SimRng)>,
    network: StarNetwork,
    base: BaseStation,
    sensing: SensingSubsystem,
    /// Clone-on-write: read-only serving (the metro default,
    /// `online_learning: false`) shares one trained planner — Q-table,
    /// eligibility traces and all — across every home; the first mutable
    /// access ([`Coreda::planner_mut`]) splits off a private copy.
    planner: Arc<PlanningSubsystem>,
    /// Clone-on-write like `planner`: mutated only by
    /// [`Coreda::describe_tool`] at setup time.
    reminding: Arc<RemindingSubsystem>,
    net_rng: SimRng,
    downlink_seq: u16,
}

/// The buffers one pipeline tick works in. Nothing in them outlives the
/// tick, so one set serves every system a caller drives — a metro shard
/// keeps one for all its homes — and steady-state ticks allocate nothing
/// once they reach capacity.
#[derive(Debug, Default)]
pub struct TickScratch {
    /// Reports raised this tick: `(node index, packet)`.
    outbox: Vec<(usize, coreda_sensornet::packet::Packet)>,
    /// Which of them won the shared medium.
    slots: Vec<bool>,
    /// Step events recognised this tick.
    events: Vec<StepEvent>,
}

/// An episode log that may be absent: metro-scale serving runs thousands
/// of episodes and only wants counters, not timelines.
struct MaybeLog<'a>(Option<&'a mut EpisodeLog>);

impl MaybeLog<'_> {
    fn push(&mut self, at: SimTime, kind: LogKind) {
        if let Some(log) = self.0.as_deref_mut() {
            log.push(at, kind);
        }
    }
}

/// Resumable state of one live episode, advanced one 100 ms tick at a
/// time by [`Coreda::live_tick`]. [`Coreda::run_live`] drives it over a
/// dense tick loop; the metro engine drives many of them event-driven,
/// interleaved across homes.
///
/// A plain record: a checkpoint holds it as is, and driving a restored
/// copy from [`LiveEpisode::next_tick_at`] continues the interrupted
/// episode exactly (given the owning [`Coreda`] was restored too).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveEpisode {
    /// Patient state-machine phase.
    pub phase: Phase,
    /// Prediction state: the last two *accepted* steps, if prediction
    /// has started.
    pub tracked: Option<(StepId, StepId)>,
    /// Outstanding prompt awaiting the patient's reaction, and its
    /// reaction instant.
    pub pending: Option<(SimTime, Prompt)>,
    /// When the last reminder was issued.
    pub last_reminder: Option<SimTime>,
    /// Reminders issued since the patient last advanced.
    pub reminders_since_advance: u32,
    /// Whether the patient finished the ADL.
    pub completed: bool,
    /// Ticks run so far.
    pub ticks_done: u64,
    /// Hard tick cap.
    pub max_ticks: u64,
    /// When the episode started.
    pub start: SimTime,
    /// Whether the episode is over (completed, or out of ticks).
    pub finished: bool,
}

impl LiveEpisode {
    /// The instant the next tick should run at.
    #[must_use]
    pub fn next_tick_at(&self) -> SimTime {
        self.start + Coreda::TICK * self.ticks_done
    }
}

/// What one live tick produced — the counters a serving engine keeps
/// when it isn't recording a full [`EpisodeLog`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickOutcome {
    /// Reminders issued this tick.
    pub reminders: u32,
    /// Praises issued this tick.
    pub praises: u32,
    /// Whether the ADL completed this tick.
    pub completed_now: bool,
    /// Whether the episode is now finished.
    pub finished: bool,
}

impl Coreda {
    /// Sensor sampling period (10 Hz, Table 1 / §2.1).
    pub const TICK: SimDuration = SimDuration::from_millis(100);

    /// Builds the system: one PAVENET node per tool, a star network, and
    /// the three subsystems. `seed` drives every internal random stream.
    /// The spec and config may come in owned or already shared (`Arc`) —
    /// fleet builders pass the same `Arc`s to every home.
    #[must_use]
    pub fn new(
        spec: impl Into<Arc<AdlSpec>>,
        user_name: &str,
        config: impl Into<Arc<CoredaConfig>>,
        seed: u64,
    ) -> Self {
        let spec = spec.into();
        let config = config.into();
        let planner = Arc::new(PlanningSubsystem::new(&spec, config.planning));
        let reminding = Arc::new(RemindingSubsystem::new(user_name));
        let sensing = SensingSubsystem::new(&spec);
        Self::with_shared(spec, planner, reminding, sensing, config, seed)
    }

    /// Builds a system wired to already-shared parts — the fleet path.
    /// Building N homes this way costs N `Arc` bumps instead of N planner
    /// constructions (Q-table, traces, encoder), N renderer allocations
    /// that would be overwritten right after, N idle-timeout tables and
    /// N config copies. `sensing` is a fresh subsystem for `spec`, cloned
    /// from one the fleet built (its timeout table is shared).
    #[must_use]
    pub fn with_shared(
        spec: Arc<AdlSpec>,
        planner: Arc<PlanningSubsystem>,
        reminding: Arc<RemindingSubsystem>,
        sensing: SensingSubsystem,
        config: Arc<CoredaConfig>,
        seed: u64,
    ) -> Self {
        let root = SimRng::seed_from(seed);
        let mut network = StarNetwork::new(config.link);
        let mut nodes = Vec::with_capacity(spec.tools().len());
        for tool in spec.tools() {
            let node = PavenetNode::new(tool.id().into(), tool.signal(), config.thresholds);
            network.register(node.uid());
            let stream = root.substream("node", u64::from(tool.id().raw()));
            nodes.push((node, stream));
        }
        Coreda {
            spec,
            config,
            nodes,
            network,
            base: BaseStation::new(),
            sensing,
            planner,
            reminding,
            net_rng: root.substream("network", 0),
            downlink_seq: 0,
        }
    }

    /// The ADL this system guides.
    #[must_use]
    pub fn spec(&self) -> &AdlSpec {
        &self.spec
    }

    /// The planning subsystem.
    #[must_use]
    pub fn planner(&self) -> &PlanningSubsystem {
        &self.planner
    }

    /// Mutable access to the planner (offline training, warm starts).
    /// When the planner is shared across a fleet this splits off a
    /// private copy first (clone-on-write), so training one home never
    /// leaks into its neighbours.
    pub fn planner_mut(&mut self) -> &mut PlanningSubsystem {
        Arc::make_mut(&mut self.planner)
    }

    /// The sensing subsystem.
    #[must_use]
    pub const fn sensing(&self) -> &SensingSubsystem {
        &self.sensing
    }

    /// The reminding subsystem.
    #[must_use]
    pub fn reminding(&self) -> &RemindingSubsystem {
        &self.reminding
    }

    /// The node attached to `tool`, if any.
    #[must_use]
    pub fn node(&self, tool: ToolId) -> Option<&PavenetNode> {
        let uid: coreda_sensornet::node::NodeId = tool.into();
        self.nodes.iter().map(|(n, _)| n).find(|n| n.uid() == uid)
    }

    /// Iterates over every tool node.
    pub fn nodes(&self) -> impl Iterator<Item = &PavenetNode> {
        self.nodes.iter().map(|(n, _)| n)
    }

    /// Total energy consumed across all nodes, in microjoules.
    #[must_use]
    pub fn total_energy_uj(&self) -> f64 {
        self.nodes.iter().map(|(n, _)| n.energy().consumed_uj()).sum()
    }

    /// Fault injection: swaps the link configuration — loss process and
    /// ARQ retry budget — on every radio link.
    ///
    /// # Panics
    ///
    /// Panics if the loss model holds an invalid probability.
    pub fn set_link(&mut self, link: coreda_sensornet::network::LinkConfig) {
        self.network.set_link(link);
    }

    /// Fault injection: crashes or reboots the node attached to `tool`.
    /// Returns whether such a node exists.
    pub fn set_node_failed(&mut self, tool: ToolId, failed: bool) -> bool {
        let uid: coreda_sensornet::node::NodeId = tool.into();
        match self.nodes.iter_mut().find(|(n, _)| n.uid() == uid) {
            Some((node, _)) => {
                node.set_failed(failed);
                true
            }
            None => false,
        }
    }

    /// Fault injection: sets sensing flip rates on the node attached to
    /// `tool`. Returns whether such a node exists.
    ///
    /// # Panics
    ///
    /// Panics if either rate is outside `[0, 1]`.
    pub fn set_sensor_flip(&mut self, tool: ToolId, false_positive: f64, false_negative: f64) -> bool {
        let uid: coreda_sensornet::node::NodeId = tool.into();
        match self.nodes.iter_mut().find(|(n, _)| n.uid() == uid) {
            Some((node, _)) => {
                node.set_sensor_flip(false_positive, false_negative);
                true
            }
            None => false,
        }
    }

    /// Fault injection: skews the report clock of the node attached to
    /// `tool`. Returns whether such a node exists.
    pub fn set_clock_skew(&mut self, tool: ToolId, skew_ms: i64) -> bool {
        let uid: coreda_sensornet::node::NodeId = tool.into();
        match self.nodes.iter_mut().find(|(n, _)| n.uid() == uid) {
            Some((node, _)) => {
                node.set_clock_skew_ms(skew_ms);
                true
            }
            None => false,
        }
    }

    /// Adds a caregiver-supplied rich description for `tool`, used in
    /// specific-level reminder texts ("the black tea-box").
    pub fn describe_tool(&mut self, tool: ToolId, description: impl Into<String>) {
        // Clone-on-write if shared, then swap through a temporary because
        // the builder method consumes self.
        let reminding = Arc::make_mut(&mut self.reminding);
        let taken = std::mem::replace(reminding, RemindingSubsystem::new(""));
        *reminding = taken.with_description(tool, description);
    }

    /// Trains the planner on recorded episodes (the paper's offline
    /// protocol).
    pub fn train_offline(&mut self, episodes: &[Episode], rng: &mut SimRng) {
        let planner = Arc::make_mut(&mut self.planner);
        for ep in episodes {
            planner.train_episode(&ep.step_ids(), rng);
        }
    }

    /// Runs one live episode: `behavior` performs `routine` while the
    /// full pipeline senses, predicts and reminds. Returns the timeline.
    pub fn run_live(
        &mut self,
        routine: &Routine,
        behavior: &mut dyn PatientBehavior,
        rng: &mut SimRng,
    ) -> EpisodeLog {
        let mut log = EpisodeLog::new();
        let mut scratch = TickScratch::default();
        let mut ep = self.begin_live(routine, behavior, SimTime::ZERO, rng, Some(&mut log));
        while !ep.finished {
            let now = ep.next_tick_at();
            self.live_tick(
                &mut ep,
                routine,
                behavior,
                now,
                rng,
                &mut scratch,
                Some(&mut log),
                None,
                &mut |_, _| {},
            );
        }
        log
    }

    /// Starts a live episode at `start` without running any ticks: the
    /// sensing pipeline is reset, the first step's duration drawn, and
    /// the patient logged as starting. Drive it with [`Coreda::live_tick`]
    /// at [`LiveEpisode::next_tick_at`] instants.
    pub fn begin_live(
        &mut self,
        routine: &Routine,
        behavior: &mut dyn PatientBehavior,
        start: SimTime,
        rng: &mut SimRng,
        log: Option<&mut EpisodeLog>,
    ) -> LiveEpisode {
        let mut log = MaybeLog(log);
        self.sensing.reset();
        for (node, _) in &mut self.nodes {
            node.reset_detector();
        }
        let first_step = self.spec.step(routine.first()).expect("routine step in spec");
        let first_duration = behavior.step_duration(first_step, rng);
        log.push(start, LogKind::PatientStarted(routine.first()));
        let max_ticks = self.config.max_episode.as_millis() / Self::TICK.as_millis();
        LiveEpisode {
            phase: Phase::Performing { idx: 0, until: start + first_duration },
            tracked: None,
            pending: None,
            last_reminder: None,
            reminders_since_advance: 0,
            completed: false,
            ticks_done: 0,
            max_ticks,
            start,
            finished: max_ticks == 0,
        }
    }

    /// Runs one 100 ms pipeline tick of `ep` at `now`: patient state
    /// machine, sensor sampling, CSMA/CA medium contention, uplink,
    /// sensing, prediction, reminding. Every report the base station
    /// accepts is also handed to `report_sink` (home-wide session
    /// tracking). Operation and RNG-draw order are exactly those of the
    /// dense [`Coreda::run_live`] loop — the behavioural test suite holds
    /// the two paths to identical timelines.
    ///
    /// `scratch` lends the tick its buffers (see [`TickScratch`]).
    ///
    /// `rec`, when present, captures flight-recorder telemetry
    /// (counters, stage latencies, trace events). Recording reads state
    /// but never mutates it and draws no randomness, so a recorded tick
    /// is bit-identical to an unrecorded one.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    pub fn live_tick(
        &mut self,
        ep: &mut LiveEpisode,
        routine: &Routine,
        behavior: &mut dyn PatientBehavior,
        now: SimTime,
        rng: &mut SimRng,
        scratch: &mut TickScratch,
        log: Option<&mut EpisodeLog>,
        rec: Option<&mut HomeRecorder>,
        report_sink: &mut dyn FnMut(coreda_sensornet::node::NodeId, SimTime),
    ) -> TickOutcome {
        let mut log = MaybeLog(log);
        let mut rec = MaybeRec(rec);
        let mut out = TickOutcome::default();

        // 1. Patient state-machine transitions. Completion is logged
        //    from ground truth — the patient actually finishing — so
        //    the log stays meaningful even when the planner is wrong.
        ep.phase = self.advance_patient(ep.phase, routine, behavior, now, &mut log, rng);
        if matches!(ep.phase, Phase::Done) && !ep.completed {
            ep.completed = true;
            out.completed_now = true;
            log.push(now, LogKind::AdlCompleted);
        }

        // 2. Outstanding prompt reaction.
        if let Some((due, prompt)) = ep.pending {
            if now >= due {
                ep.pending = None;
                ep.phase =
                    self.react_to_prompt(ep.phase, prompt, routine, behavior, now, &mut log, rng);
            }
        }

        // 3. Sensor sampling and uplink.
        let active_tool = match ep.phase {
            Phase::Performing { idx, .. } => routine.steps()[idx].tool(),
            Phase::Misusing { tool, .. } => Some(tool),
            Phase::Frozen { .. } | Phase::Done => None,
        };
        let TickScratch { outbox, slots, events } = scratch;
        // Sample every node first: transmissions raised in the same
        // 100 ms tick contend for the shared medium (CSMA/CA).
        for (idx, (node, node_rng)) in self.nodes.iter_mut().enumerate() {
            let in_use = active_tool == Some(ToolId::new(node.uid().raw()));
            if let Some(packet) = node.sample_tick(in_use, now.as_millis(), node_rng) {
                outbox.push((idx, packet));
            }
        }
        rec.add(Ctr::SampleWindows, self.nodes.len() as u64);
        rec.add(Ctr::ToolInUseWindows, outbox.len() as u64);
        self.config.medium.resolve_slot_into(outbox.len(), &mut self.net_rng, slots);
        for ((idx, packet), won_medium) in outbox.drain(..).zip(slots.iter().copied()) {
            let node = &mut self.nodes[idx].0;
            rec.inc(Ctr::RadioFramesTx);
            if !won_medium {
                // Collision: the frame is lost before the link layer;
                // the energy was still spent.
                node.energy_mut().charge_tx(packet.encoded_len());
                rec.inc(Ctr::RadioLost);
                rec.event(now, TraceKind::RadioLost { node: packet.src.raw(), attempts: 0 });
                continue;
            }
            let outcome = self.network.send_uplink(&packet, &mut self.net_rng);
            let (attempts, delivered) = match outcome {
                coreda_sensornet::network::SendOutcome::Delivered {
                    attempts, duplicates, ..
                } => {
                    rec.inc(Ctr::RadioDelivered);
                    rec.add(Ctr::RadioDuplicates, u64::from(duplicates));
                    (attempts, true)
                }
                coreda_sensornet::network::SendOutcome::Lost { attempts } => {
                    rec.inc(Ctr::RadioLost);
                    rec.event(now, TraceKind::RadioLost { node: packet.src.raw(), attempts });
                    (attempts, false)
                }
            };
            rec.add(Ctr::RadioAttempts, u64::from(attempts));
            // Radio energy: every attempt transmits the frame;
            // a delivery also receives one acknowledgement.
            node.energy_mut().charge_tx(packet.encoded_len() * usize::from(attempts));
            if delivered {
                node.energy_mut().charge_rx(8);
                if let Some(p) = self.base.receive(packet) {
                    rec.inc(Ctr::ReportsAccepted);
                    report_sink(p.src, now);
                    if let Some(ev) = self.sensing.on_report(p.src, now) {
                        events.push(ev);
                    }
                }
            }
        }

        // 4. Idle detection (situation 1).
        if !ep.completed {
            if let Some(ev) = self.sensing.check_idle(now) {
                events.push(ev);
            }
        }

        // 5. Interpret step events.
        for ev in events.drain(..) {
            if ep.completed {
                break;
            }
            log.push(ev.at, LogKind::StepSensed(ev.step));
            if ev.step.is_idle() {
                rec.inc(Ctr::IdleEvents);
                // Idle-detection delay: how long after the patient
                // actually froze did sensing notice. Only measurable
                // when the freeze instant is known.
                let idle_ms = match ep.phase {
                    Phase::Frozen { since, .. } => {
                        let ms = now.saturating_duration_since(since).as_millis();
                        rec.latency_ms(Stage::IdleDetect, ms as f64);
                        ms.min(u64::from(u32::MAX)) as u32
                    }
                    _ => 0,
                };
                rec.event(ev.at, TraceKind::IdleDetected { idle_ms });
            } else {
                rec.inc(Ctr::StepsExtracted);
                rec.event(ev.at, TraceKind::StepExtracted { step: ev.step });
            }
            match ep.tracked {
                None => {
                    if !ev.step.is_idle() {
                        // First step triggers the start of prediction
                        // (Table 4's note).
                        ep.tracked = Some((StepId::IDLE, ev.step));
                        ep.reminders_since_advance = 0;
                    }
                }
                Some((prev, cur)) => {
                    let predicted = self.planner.predict_tool(prev, cur);
                    rec.inc(Ctr::PlannerDecisions);
                    if ev.step.is_idle() {
                        // Situation 1: idle past the timeout.
                        if let Some((reminder_prompt, reminder)) = self.issue_reminder(
                            prev,
                            cur,
                            Trigger::IdleTimeout,
                            ep.reminders_since_advance,
                        ) {
                            self.record_reminder(&mut rec, now, &reminder_prompt, false);
                            self.deliver_led_commands(&reminder, now, &mut rec);
                            log.push(now, LogKind::ReminderIssued(reminder));
                            out.reminders += 1;
                            ep.pending = Some((now + self.config.response_delay, reminder_prompt));
                            ep.last_reminder = Some(now);
                            ep.reminders_since_advance += 1;
                        }
                    } else if ev.step.tool() == predicted {
                        // The expected step: advance, praise if we had
                        // been prompting, learn online.
                        if ep.reminders_since_advance > 0 {
                            log.push(now, LogKind::Praised);
                            out.praises += 1;
                            rec.inc(Ctr::Praises);
                            let latency_ms = ep
                                .last_reminder
                                .map(|at| now.saturating_duration_since(at).as_millis())
                                .unwrap_or(0);
                            rec.latency_ms(Stage::PromptToCompliance, latency_ms as f64);
                            rec.event(
                                now,
                                TraceKind::Praised {
                                    latency_ms: latency_ms.min(u64::from(u32::MAX)) as u32,
                                },
                            );
                        }
                        let is_last = ev.step == routine.last();
                        if self.config.online_learning {
                            if let Some(tool) = predicted {
                                let prompt = Prompt { tool, level: ReminderLevel::Minimal };
                                Arc::make_mut(&mut self.planner)
                                    .observe_transition(prev, cur, ev.step, prompt, is_last);
                            }
                        }
                        ep.tracked = Some((cur, ev.step));
                        ep.reminders_since_advance = 0;
                        ep.pending = None;
                        self.clear_all_leds();
                    } else if ev.step == cur {
                        // Sensing re-opened the current step; ignore.
                    } else if self.resync_lookahead(prev, cur, ev.step) {
                        // A missed detection: the sensed step is the one
                        // *after* the expected one. Jump forward.
                        let expected = predicted.map(StepId::from_tool).unwrap_or(StepId::IDLE);
                        ep.tracked = Some((expected, ev.step));
                        ep.reminders_since_advance = 0;
                        ep.pending = None;
                    } else {
                        // Situation 2: the wrong tool is in use.
                        if let Some((reminder_prompt, reminder)) = self.issue_reminder(
                            prev,
                            cur,
                            Trigger::WrongTool {
                                used: ev.step.tool().expect("non-idle step has a tool"),
                            },
                            ep.reminders_since_advance,
                        ) {
                            // Wrong-tool reaction time: misuse began →
                            // red blink goes out.
                            if let Phase::Misusing { since, .. } = ep.phase {
                                let ms = now.saturating_duration_since(since).as_millis();
                                rec.latency_ms(Stage::WrongToolRedBlink, ms as f64);
                            }
                            self.record_reminder(&mut rec, now, &reminder_prompt, true);
                            self.deliver_led_commands(&reminder, now, &mut rec);
                            log.push(now, LogKind::ReminderIssued(reminder));
                            out.reminders += 1;
                            ep.pending = Some((now + self.config.response_delay, reminder_prompt));
                            ep.last_reminder = Some(now);
                            ep.reminders_since_advance += 1;
                        }
                    }
                }
            }
        }

        // 6. Re-prompt an unanswered reminder, escalated.
        if !ep.completed
            && ep.pending.is_none()
            && matches!(ep.phase, Phase::Frozen { .. } | Phase::Misusing { .. })
        {
            if let (Some((prev, cur)), Some(last)) = (ep.tracked, ep.last_reminder) {
                if now.saturating_duration_since(last) >= self.config.reprompt_interval {
                    let trigger = match ep.phase {
                        Phase::Misusing { tool, .. } => Trigger::WrongTool { used: tool },
                        _ => Trigger::IdleTimeout,
                    };
                    if let Some((reminder_prompt, reminder)) =
                        self.issue_reminder(prev, cur, trigger, ep.reminders_since_advance)
                    {
                        let wrong_tool = matches!(trigger, Trigger::WrongTool { .. });
                        self.record_reminder(&mut rec, now, &reminder_prompt, wrong_tool);
                        rec.inc(Ctr::RepromptEscalations);
                        rec.event(
                            now,
                            TraceKind::Reprompt {
                                escalations: ep.reminders_since_advance.min(255) as u8,
                            },
                        );
                        self.deliver_led_commands(&reminder, now, &mut rec);
                        log.push(now, LogKind::ReminderIssued(reminder));
                        out.reminders += 1;
                        ep.pending = Some((now + self.config.response_delay, reminder_prompt));
                        ep.last_reminder = Some(now);
                        ep.reminders_since_advance += 1;
                    }
                }
            }
        }

        ep.ticks_done += 1;
        if (ep.completed && matches!(ep.phase, Phase::Done)) || ep.ticks_done >= ep.max_ticks {
            ep.finished = true;
        }
        out.finished = ep.finished;
        out
    }

    /// Whether `sensed` matches the prediction *two* steps ahead of the
    /// tracked state — the signature of one missed detection.
    fn resync_lookahead(&self, prev: StepId, cur: StepId, sensed: StepId) -> bool {
        let _ = prev;
        let Some(expected_tool) = self.planner.predict_tool(prev, cur) else {
            return false;
        };
        let expected = StepId::from_tool(expected_tool);
        self.planner.predict_tool(cur, expected).map(StepId::from_tool) == Some(sensed)
    }

    /// Records the counters and trace event common to every reminder
    /// issue site (first prompt, wrong tool, re-prompt).
    fn record_reminder(
        &self,
        rec: &mut MaybeRec<'_>,
        now: SimTime,
        prompt: &Prompt,
        wrong_tool: bool,
    ) {
        rec.inc(Ctr::PromptsRendered);
        rec.inc(Ctr::RemindersIssued);
        rec.event(
            now,
            TraceKind::ReminderIssued {
                tool: prompt.tool,
                specific: matches!(prompt.level, ReminderLevel::Specific),
                wrong_tool,
            },
        );
    }

    /// Radios the reminder's LED blink commands down to the tool nodes.
    /// Lost frames simply leave that LED dark — the display methods (text
    /// and picture) are wired and always shown.
    fn deliver_led_commands(
        &mut self,
        reminder: &crate::reminding::Reminder,
        now: SimTime,
        rec: &mut MaybeRec<'_>,
    ) {
        use crate::reminding::ReminderMethod;
        use coreda_sensornet::led::LedColor;
        use coreda_sensornet::packet::{Packet, Payload};
        for method in &reminder.methods {
            let (tool, pattern, color) = match method {
                ReminderMethod::GreenLed { tool, pattern } => (*tool, *pattern, LedColor::Green),
                ReminderMethod::RedLed { tool, pattern } => (*tool, *pattern, LedColor::Red),
                ReminderMethod::TextMessage(_) | ReminderMethod::ToolPicture(_) => continue,
            };
            let dest: coreda_sensornet::node::NodeId = tool.into();
            let seq = self.downlink_seq;
            self.downlink_seq = self.downlink_seq.wrapping_add(1);
            let packet = Packet::new(dest, seq, 0, Payload::Led { pattern });
            let delivered =
                self.network.send_downlink(dest, &packet, &mut self.net_rng).is_delivered();
            rec.inc(Ctr::LedFramesTx);
            rec.inc(if delivered { Ctr::LedDelivered } else { Ctr::LedLost });
            rec.event(
                now,
                TraceKind::LedCommand { tool, red: color == LedColor::Red, delivered },
            );
            if delivered {
                if let Some((node, _)) = self.nodes.iter_mut().find(|(n, _)| n.uid() == dest) {
                    // A crashed mote leaves the frame on the air unheard.
                    if node.is_failed() {
                        continue;
                    }
                    node.energy_mut().charge_rx(packet.encoded_len());
                    node.energy_mut().charge_led(pattern.duration().as_millis());
                    node.set_led(color, true);
                }
            }
        }
    }

    /// Turns every node's LEDs off (the user advanced; the reminder is
    /// over).
    fn clear_all_leds(&mut self) {
        for (node, _) in &mut self.nodes {
            node.clear_leds();
        }
    }

    fn issue_reminder(
        &self,
        prev: StepId,
        cur: StepId,
        trigger: Trigger,
        escalations: u32,
    ) -> Option<(Prompt, crate::reminding::Reminder)> {
        if self.config.min_prompt_confidence > 0.0 {
            let confidence = self.planner.prediction_confidence(prev, cur)?;
            if confidence < self.config.min_prompt_confidence {
                return None;
            }
        }
        let mut prompt = self.planner.predict(prev, cur)?;
        if escalations > 0 {
            // Unanswered reminders escalate to the specific level.
            prompt.level = ReminderLevel::Specific;
        }
        // A prompt for a tool outside the ADL cannot be rendered.
        self.spec.tool(prompt.tool)?;
        let reminder = self.reminding.compose(prompt, trigger, &self.spec);
        Some((prompt, reminder))
    }

    #[allow(clippy::too_many_arguments)]
    fn advance_patient(
        &mut self,
        phase: Phase,
        routine: &Routine,
        behavior: &mut dyn PatientBehavior,
        now: SimTime,
        log: &mut MaybeLog<'_>,
        rng: &mut SimRng,
    ) -> Phase {
        match phase {
            Phase::Performing { idx, until } if now >= until => {
                let next_idx = idx + 1;
                if next_idx >= routine.len() {
                    return Phase::Done;
                }
                match behavior.at_boundary(next_idx, routine, &self.spec, rng) {
                    PatientAction::Proceed => {
                        self.start_step(next_idx, routine, behavior, now, log, rng)
                    }
                    PatientAction::WrongTool(tool) => {
                        log.push(now, LogKind::PatientMisused(tool));
                        Phase::Misusing { tool, since: now, resume_idx: next_idx }
                    }
                    PatientAction::Freeze => {
                        log.push(now, LogKind::PatientFroze);
                        Phase::Frozen { since: now, resume_idx: next_idx }
                    }
                }
            }
            Phase::Misusing { since, resume_idx, .. }
                if now.saturating_duration_since(since) >= self.config.misuse_recovery =>
            {
                self.start_step(resume_idx, routine, behavior, now, log, rng)
            }
            Phase::Frozen { since, resume_idx }
                if now.saturating_duration_since(since) >= self.config.freeze_recovery =>
            {
                self.start_step(resume_idx, routine, behavior, now, log, rng)
            }
            other => other,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn react_to_prompt(
        &mut self,
        phase: Phase,
        prompt: Prompt,
        routine: &Routine,
        behavior: &mut dyn PatientBehavior,
        now: SimTime,
        log: &mut MaybeLog<'_>,
        rng: &mut SimRng,
    ) -> Phase {
        let resume_idx = match phase {
            Phase::Misusing { resume_idx, .. } | Phase::Frozen { resume_idx, .. } => resume_idx,
            // Performing / Done patients ignore prompts.
            other => return other,
        };
        let correct = routine.steps()[resume_idx];
        // A prompt only helps if it points at the user's actual next step
        // and the user complies with it.
        if correct.tool() == Some(prompt.tool) && behavior.complies(&prompt, rng) {
            self.start_step(resume_idx, routine, behavior, now, log, rng)
        } else {
            phase
        }
    }

    fn start_step(
        &mut self,
        idx: usize,
        routine: &Routine,
        behavior: &mut dyn PatientBehavior,
        now: SimTime,
        log: &mut MaybeLog<'_>,
        rng: &mut SimRng,
    ) -> Phase {
        let step_id = routine.steps()[idx];
        let step = self.spec.step(step_id).expect("routine step in spec");
        let duration = behavior.step_duration(step, rng);
        log.push(now, LogKind::PatientStarted(step_id));
        Phase::Performing { idx, until: now + duration }
    }

    /// Captures the system's complete mutable state (checkpointing):
    /// the learned planner state, the sensing pipeline, every node with
    /// its RNG stream, the radio channels and counters, the base
    /// station's dedup table, and the network RNG / downlink sequence.
    ///
    /// Everything else — the spec, config, subsystem wiring — is
    /// construction-time and rebuilt from the same inputs.
    ///
    /// A system still serving on `template`'s planner (the same `Arc`)
    /// shares the template's one capture instead of copying the table.
    #[must_use]
    pub fn export_state(&self, template: Option<&PlannerTemplate>) -> SystemState {
        let (sensing_current, sensing_last_report, sensing_history) = self.sensing.export_state();
        let learned = match template {
            Some(t) if Arc::ptr_eq(&self.planner, t.planner()) => t.learned().cloned(),
            _ => self.planner.capture_learned().map(Arc::new),
        };
        SystemState {
            learned,
            sensing_current,
            sensing_last_report,
            sensing_history,
            nodes: self
                .nodes
                .iter()
                .map(|(n, rng)| {
                    let (state, base) = rng.state_parts();
                    (n.export_state(), state, base)
                })
                .collect(),
            net_rng: self.net_rng.state_parts(),
            downlink_seq: self.downlink_seq,
            channels: self.network.channel_states(),
            uplink: self.network.uplink_counters(),
            downlink: self.network.downlink_counters(),
            base_last_seqs: self.base.last_seqs(),
            base_accepted: self.base.accepted(),
            base_duplicates: self.base.duplicates(),
        }
    }

    /// Restores state captured by [`Coreda::export_state`] onto a system
    /// freshly built from the *same* spec, config and seed. Apply any
    /// fault-injected link configuration (via [`Coreda::set_link`])
    /// *before* calling — restoring channel states must come after the
    /// link is in place, because swapping it resets per-link channel
    /// state.
    ///
    /// # Errors
    ///
    /// Returns an error if the captured planner state cannot be applied
    /// to this system's learner kind.
    ///
    /// # Panics
    ///
    /// Panics if the node set differs from the capture (a checkpoint
    /// from a different ADL spec).
    pub fn restore_state(&mut self, state: &SystemState) -> Result<(), &'static str> {
        if let Some(learned) = &state.learned {
            // A fleet restore would otherwise split every home off the
            // shared trained planner: when the captured state is exactly
            // what this planner already holds (read-only serving never
            // moves it), keep the share and skip the copy.
            if !self.planner.learned_matches(learned) {
                Arc::make_mut(&mut self.planner).apply_learned(learned)?;
            }
        }
        self.sensing.restore_state(
            state.sensing_current,
            state.sensing_last_report,
            state.sensing_history.clone(),
        );
        assert_eq!(self.nodes.len(), state.nodes.len(), "checkpoint node count mismatch");
        for ((node, rng), (node_state, rng_state, rng_base)) in
            self.nodes.iter_mut().zip(&state.nodes)
        {
            node.restore_state(node_state);
            *rng = SimRng::from_state_parts(*rng_state, *rng_base);
        }
        let (net_state, net_base) = state.net_rng;
        self.net_rng = SimRng::from_state_parts(net_state, net_base);
        self.downlink_seq = state.downlink_seq;
        self.network.restore_channel_states(&state.channels);
        self.network.restore_counters(state.uplink, state.downlink);
        self.base.restore_state(
            &state.base_last_seqs,
            state.base_accepted,
            state.base_duplicates,
        );
        Ok(())
    }
}

/// A [`Coreda`] system's captured state — the checkpoint-codec view of
/// one assembled reminding pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemState {
    /// Learned planner state, when the learner supports capture. Shared:
    /// every system serving on one template holds the same table, and a
    /// write goes through `Arc::make_mut`.
    pub learned: Option<Arc<LearnedState>>,
    /// Sensing: the believed current step.
    pub sensing_current: Option<StepId>,
    /// Sensing: when the last report arrived.
    pub sensing_last_report: Option<SimTime>,
    /// Sensing: the recognised step history.
    pub sensing_history: Vec<StepEvent>,
    /// Per-node `(state, rng state, rng base seed)` in spec tool order.
    pub nodes: Vec<(NodeState, [u64; 4], u64)>,
    /// Network RNG `(state, base seed)`.
    pub net_rng: ([u64; 4], u64),
    /// Next downlink sequence number.
    pub downlink_seq: u16,
    /// Per-link channel states, sorted by node id.
    pub channels: Vec<(NodeId, bool, u64, u64)>,
    /// Uplink aggregate counters.
    pub uplink: LinkCounters,
    /// Downlink aggregate counters.
    pub downlink: LinkCounters,
    /// Base-station dedup table, sorted by node id.
    pub base_last_seqs: Vec<(NodeId, u16)>,
    /// Reports the base station accepted.
    pub base_accepted: u64,
    /// Duplicate frames the base station suppressed.
    pub base_duplicates: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::{ScriptedBehavior, StochasticBehavior};
    use coreda_adl::activity::catalog;
    use coreda_adl::patient::PatientProfile;

    fn trained_system(seed: u64) -> (Coreda, Routine) {
        let tea = catalog::tea_making();
        let routine = Routine::canonical(&tea);
        let mut system = Coreda::new(tea, "Mr. Tanaka", CoredaConfig::default(), seed);
        let mut rng = SimRng::seed_from(seed ^ 0xABCD);
        for _ in 0..250 {
            system.planner_mut().train_episode(routine.steps(), &mut rng);
        }
        (system, routine)
    }

    #[test]
    fn clean_live_episode_completes_without_reminders() {
        let (mut system, routine) = trained_system(1);
        let mut behavior = StochasticBehavior::new(PatientProfile::unimpaired("x"));
        let mut rng = SimRng::seed_from(2);
        let log = system.run_live(&routine, &mut behavior, &mut rng);
        assert!(log.completed_at().is_some(), "episode should complete:\n{}", log.render());
        assert_eq!(log.reminders().len(), 0, "no errors → no reminders:\n{}", log.render());
        assert_eq!(log.praise_count(), 0);
    }

    #[test]
    fn frozen_patient_gets_idle_reminder_and_completes() {
        let (mut system, routine) = trained_system(3);
        let mut behavior = ScriptedBehavior::new().with_error(2, PatientAction::Freeze);
        let mut rng = SimRng::seed_from(4);
        let log = system.run_live(&routine, &mut behavior, &mut rng);
        let reminders = log.reminders();
        assert!(!reminders.is_empty(), "freeze should trigger a reminder:\n{}", log.render());
        assert!(
            matches!(reminders[0].1.trigger, Trigger::IdleTimeout),
            "trigger should be the idle timeout"
        );
        assert!(log.completed_at().is_some(), "prompt should unblock:\n{}", log.render());
        assert!(log.praise_count() >= 1, "correct resumption is praised");
    }

    #[test]
    fn wrong_tool_gets_red_led_reminder() {
        let (mut system, routine) = trained_system(5);
        let wrong = ToolId::new(catalog::TEA_CUP);
        let mut behavior =
            ScriptedBehavior::new().with_error(1, PatientAction::WrongTool(wrong));
        let mut rng = SimRng::seed_from(6);
        let log = system.run_live(&routine, &mut behavior, &mut rng);
        let reminders = log.reminders();
        assert!(!reminders.is_empty(), "wrong tool should trigger:\n{}", log.render());
        let (_, first) = reminders[0];
        assert_eq!(first.trigger, Trigger::WrongTool { used: wrong });
        assert_eq!(first.method_count(), 4, "wrong-tool reminders carry 4 methods");
        assert!(log.completed_at().is_some(), "episode should recover:\n{}", log.render());
    }

    #[test]
    fn untrained_planner_fails_to_help() {
        // With a fresh (untrained) planner, the prompt after a freeze is
        // wrong, so the patient stays frozen until self-recovery — the
        // episode takes much longer.
        let tea = catalog::tea_making();
        let routine = Routine::canonical(&tea);
        let mut fresh = Coreda::new(tea, "x", CoredaConfig::default(), 7);
        let mut behavior = ScriptedBehavior::new().with_error(2, PatientAction::Freeze);
        let mut rng = SimRng::seed_from(8);
        let log_fresh = fresh.run_live(&routine, &mut behavior, &mut rng);

        let (mut trained, _) = trained_system(7);
        let mut behavior2 = ScriptedBehavior::new().with_error(2, PatientAction::Freeze);
        let mut rng2 = SimRng::seed_from(8);
        let log_trained = trained.run_live(&routine, &mut behavior2, &mut rng2);

        let t_fresh = log_fresh.completed_at().expect("self-recovery still completes");
        let t_trained = log_trained.completed_at().expect("prompt completes");
        assert!(
            t_fresh > t_trained,
            "trained system should finish sooner: fresh {t_fresh} vs trained {t_trained}"
        );
    }

    #[test]
    fn live_runs_are_deterministic_under_seed() {
        let run = || {
            let (mut system, routine) = trained_system(11);
            let mut behavior = StochasticBehavior::new(PatientProfile::moderate("x"));
            let mut rng = SimRng::seed_from(12);
            system.run_live(&routine, &mut behavior, &mut rng)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn online_learning_updates_planner_during_live_run() {
        let tea = catalog::tea_making();
        let routine = Routine::canonical(&tea);
        let config = CoredaConfig { online_learning: true, ..CoredaConfig::default() };
        let mut system = Coreda::new(tea, "x", config, 13);
        // Warm-start so predictions are right and transitions are accepted.
        let mut rng = SimRng::seed_from(14);
        for _ in 0..250 {
            system.planner_mut().train_episode(routine.steps(), &mut rng);
        }
        let before = system.planner().q_table().clone();
        let mut behavior = StochasticBehavior::new(PatientProfile::unimpaired("x"));
        let log = system.run_live(&routine, &mut behavior, &mut rng);
        assert!(log.completed_at().is_some());
        assert_ne!(&before, system.planner().q_table(), "online learning should move Q");
    }

    #[test]
    fn reminder_lights_the_target_led_and_advance_clears_it() {
        let (mut system, routine) = trained_system(17);
        let mut behavior = ScriptedBehavior::new().with_error(2, PatientAction::Freeze);
        let mut rng = SimRng::seed_from(18);
        let log = system.run_live(&routine, &mut behavior, &mut rng);
        assert!(!log.reminders().is_empty(), "{}", log.render());
        // After the episode ends the user had advanced, so every LED is
        // dark again.
        use coreda_sensornet::led::LedColor;
        for node in system.nodes() {
            assert!(!node.leds().is_on(LedColor::Green));
            assert!(!node.leds().is_on(LedColor::Red));
        }
    }

    #[test]
    fn live_episode_consumes_node_energy() {
        let (mut system, routine) = trained_system(19);
        assert_eq!(system.total_energy_uj(), 0.0);
        let mut behavior = StochasticBehavior::new(PatientProfile::unimpaired("x"));
        let mut rng = SimRng::seed_from(20);
        let log = system.run_live(&routine, &mut behavior, &mut rng);
        assert!(log.completed_at().is_some());
        let total = system.total_energy_uj();
        assert!(total > 0.0, "sampling and radio must cost energy");
        // The active tools (which transmitted) consumed more than a tool
        // that was never used would from sampling alone — compare the
        // tea-box (used) against the sampling-only floor.
        let teabox = system
            .node(ToolId::new(coreda_adl::activity::catalog::TEA_BOX))
            .unwrap()
            .energy();
        let (samples, tx, _, _, _) = teabox.breakdown();
        assert!(samples > 0);
        assert!(tx > 0, "the used tool should have transmitted reports");
    }

    #[test]
    fn tool_descriptions_reach_live_reminders() {
        let (mut system, routine) = trained_system(27);
        system.describe_tool(
            ToolId::new(catalog::TEA_CUP),
            "blue tea-cup on the left shelf",
        );
        // Force an escalated (specific) reminder by having the patient
        // ignore the first prompt: freeze with low compliance.
        let profile = coreda_adl::patient::PatientProfile::builder("Mr. Tanaka")
            .forget_prob(0.0)
            .compliance(0.0)
            .build();
        let _ = profile; // scripted behavior drives the freeze below
        #[derive(Debug)]
        struct IgnoresOnce {
            ignored: bool,
            inner: ScriptedBehavior,
        }
        impl crate::live::PatientBehavior for IgnoresOnce {
            fn at_boundary(
                &mut self,
                idx: usize,
                routine: &Routine,
                spec: &coreda_adl::activity::AdlSpec,
                rng: &mut SimRng,
            ) -> PatientAction {
                self.inner.at_boundary(idx, routine, spec, rng)
            }
            fn step_duration(
                &mut self,
                step: &coreda_adl::step::Step,
                rng: &mut SimRng,
            ) -> coreda_des::time::SimDuration {
                self.inner.step_duration(step, rng)
            }
            fn complies(&mut self, _p: &crate::reminding::Prompt, _rng: &mut SimRng) -> bool {
                if self.ignored {
                    true
                } else {
                    self.ignored = true;
                    false
                }
            }
        }
        let mut behavior = IgnoresOnce {
            ignored: false,
            inner: ScriptedBehavior::new().with_error(3, PatientAction::Freeze),
        };
        let mut rng = SimRng::seed_from(28);
        let log = system.run_live(&routine, &mut behavior, &mut rng);
        let texts: Vec<String> = log
            .reminders()
            .iter()
            .flat_map(|(_, r)| r.methods.iter())
            .filter_map(|m| match m {
                crate::reminding::ReminderMethod::TextMessage(t) => Some(t.clone()),
                _ => None,
            })
            .collect();
        assert!(
            texts.iter().any(|t| t.contains("blue tea-cup on the left shelf")),
            "the escalated reminder should use the description: {texts:?}\n{}",
            log.render()
        );
    }

    #[test]
    fn confidence_gating_silences_an_untrained_planner() {
        let tea = catalog::tea_making();
        let routine = Routine::canonical(&tea);
        let gated = CoredaConfig { min_prompt_confidence: 0.5, ..CoredaConfig::default() };

        // Untrained + gated: the system holds its tongue.
        let mut fresh = Coreda::new(tea.clone(), "x", gated, 23);
        let mut behavior = ScriptedBehavior::new().with_error(2, PatientAction::Freeze);
        let mut rng = SimRng::seed_from(24);
        let log = fresh.run_live(&routine, &mut behavior, &mut rng);
        assert_eq!(log.reminders().len(), 0, "no confident prediction → no reminder:\n{}", log.render());

        // Untrained + ungated: it guesses (and is usually wrong).
        let mut noisy = Coreda::new(tea.clone(), "x", CoredaConfig::default(), 23);
        let mut behavior = ScriptedBehavior::new().with_error(2, PatientAction::Freeze);
        let mut rng = SimRng::seed_from(24);
        let log = noisy.run_live(&routine, &mut behavior, &mut rng);
        assert!(!log.reminders().is_empty(), "ungated untrained planner guesses:\n{}", log.render());

        // Trained + gated: confidence is high, reminders flow again.
        let mut trained = Coreda::new(tea, "x", gated, 37);
        let mut train_rng = SimRng::seed_from(25);
        for _ in 0..250 {
            trained.planner_mut().train_episode(routine.steps(), &mut train_rng);
        }
        let mut behavior = ScriptedBehavior::new().with_error(2, PatientAction::Freeze);
        let mut rng = SimRng::seed_from(24);
        let log = trained.run_live(&routine, &mut behavior, &mut rng);
        assert!(!log.reminders().is_empty(), "trained planner is confident:\n{}", log.render());
        assert!(log.praise_count() >= 1);
    }

    #[test]
    fn confidence_rises_with_training() {
        let tea = catalog::tea_making();
        let routine = Routine::canonical(&tea);
        let mut planner = crate::planning::PlanningSubsystem::new(&tea, crate::planning::PlanningConfig::default());
        let (prev, cur, _) = routine.transitions()[1];
        let before = planner.prediction_confidence(prev, cur).unwrap();
        let mut rng = SimRng::seed_from(26);
        for _ in 0..250 {
            planner.train_episode(routine.steps(), &mut rng);
        }
        let after = planner.prediction_confidence(prev, cur).unwrap();
        assert_eq!(before, 0.0, "untrained states have zero confidence");
        assert!(after > 0.5, "trained states are confident, got {after}");
    }

    #[test]
    fn export_restore_resumes_live_episode_identically() {
        // Ghost: an uninterrupted live episode.
        let (mut ghost, routine) = trained_system(31);
        let mut gb = StochasticBehavior::new(PatientProfile::moderate("x"));
        let mut grng = SimRng::seed_from(32);
        let glog = ghost.run_live(&routine, &mut gb, &mut grng);

        // Interrupted: same construction, killed after 40 ticks.
        let (mut sys, routine) = trained_system(31);
        let mut b = StochasticBehavior::new(PatientProfile::moderate("x"));
        let mut rng = SimRng::seed_from(32);
        let mut log = EpisodeLog::new();
        let mut scratch = TickScratch::default();
        let mut ep = sys.begin_live(&routine, &mut b, SimTime::ZERO, &mut rng, Some(&mut log));
        for _ in 0..40 {
            assert!(!ep.finished, "episode should outlive the kill point");
            let now = ep.next_tick_at();
            sys.live_tick(&mut ep, &routine, &mut b, now, &mut rng, &mut scratch, Some(&mut log), None, &mut |_, _| {});
        }
        let sys_state = sys.export_state(None);
        let saved = ep;
        let (rng_state, rng_base) = rng.state_parts();
        drop(sys);

        // Resume onto a freshly built twin.
        let (mut resumed, routine) = trained_system(31);
        resumed.restore_state(&sys_state).expect("watkins restore");
        let mut ep = saved;
        let mut rng = SimRng::from_state_parts(rng_state, rng_base);
        let mut b = StochasticBehavior::new(PatientProfile::moderate("x"));
        while !ep.finished {
            let now = ep.next_tick_at();
            resumed.live_tick(&mut ep, &routine, &mut b, now, &mut rng, &mut scratch, Some(&mut log), None, &mut |_, _| {});
        }
        assert_eq!(log, glog, "resumed timeline must match the uninterrupted one");
        assert_eq!(
            resumed.total_energy_uj(),
            ghost.total_energy_uj(),
            "energy accumulators must carry across the snapshot bit-exactly"
        );
        assert_eq!(resumed.export_state(None), ghost.export_state(None));
    }

    #[test]
    fn offline_training_via_episodes() {
        use coreda_adl::episode::EpisodeGenerator;
        use coreda_adl::routine::RoutineSet;
        let tea = catalog::tea_making();
        let routine = Routine::canonical(&tea);
        let gen = EpisodeGenerator::new(
            tea.clone(),
            RoutineSet::single(routine.clone()),
            PatientProfile::unimpaired("x"),
        );
        let mut rng = SimRng::seed_from(15);
        let episodes = gen.generate_batch(200, &mut rng);
        let mut system = Coreda::new(tea, "x", CoredaConfig::default(), 16);
        system.train_offline(&episodes, &mut rng);
        assert_eq!(system.planner().accuracy_vs_routine(&routine), 1.0);
    }
}
