//! The deterministic run harness: one simulated home served under a
//! [`FaultPlan`], under either [`WakePolicy`], with every observable
//! event tapped.
//!
//! The home mirrors `coreda_core::metro`'s per-instant pipeline — one
//! [`Coreda`] system per activity, a home-wide [`SessionTracker`], and
//! counter-derived random streams — so what the fuzzer exercises is the
//! real serving logic, not a test double. Fault windows are applied
//! lazily at poll instants by comparing *desired* against *applied*
//! state; because quiet stretches neither draw randomness nor transmit,
//! lazy application is observationally identical whether the home wakes
//! event-driven or polls every 100 ms grid instant.

use coreda_adl::activity::{catalog, AdlSpec};
use coreda_adl::patient::PatientProfile;
use coreda_adl::routine::Routine;
use coreda_adl::tool::ToolId;
use coreda_core::checkpoint::{
    apply_delta, delta_checkpoint, load_checkpoint, load_delta, save_checkpoint, save_delta,
    HomeCheckpoint, MetroCheckpoint,
};
use coreda_core::fleet::derive_seed;
use coreda_core::metro::HomeStats;
use coreda_core::live::{EpisodeLog, LogKind, StochasticBehavior};
use coreda_core::planning::PlanningSubsystem;
use coreda_core::reminding::{ReminderLevel, ReminderMethod, Trigger};
use coreda_core::sessions::{SessionEvent, SessionTracker};
use coreda_core::system::{Coreda, CoredaConfig, LiveEpisode};
use coreda_core::telemetry::{Ctr, HomeRecorder, TraceKind};
use coreda_core::wal::{self, decode_wal_tolerant, encode_wal, WalRecord};
use coreda_des::rng::SimRng;
use coreda_des::sim::Simulator;
use coreda_des::time::{SimDuration, SimTime};
use coreda_sensornet::radio::LossModel;

use crate::behavior::FaultyBehavior;
use crate::oracles::{self, Violation};
use crate::plan::{FaultKind, FaultPlan};

/// How the harness wakes its home. Both policies drive the timing-wheel
/// [`Simulator`]; the `engine_equivalence` oracle holds them to
/// bit-identical runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakePolicy {
    /// Wake only where something can change — the next episode start,
    /// the running episode's next pipeline tick, or the session
    /// tracker's idle-close deadline — as the metro engine does.
    EventDriven,
    /// Poll every 100 ms grid instant: the dense reference.
    Dense,
}

/// One event on the run's observable tap, in stream order. `Copy` and
/// fully comparable: differential oracles check whole traces for exact
/// equality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A live episode began for activity `act`.
    EpisodeStarted {
        /// Instant, ms.
        at_ms: u64,
        /// Activity index within the home.
        act: usize,
    },
    /// The running episode finished.
    EpisodeEnded {
        /// Instant, ms.
        at_ms: u64,
        /// Activity index within the home.
        act: usize,
        /// Whether the patient completed the ADL.
        completed: bool,
    },
    /// The sensing subsystem recognised a step (raw [`StepId`], 0 = idle).
    ///
    /// [`StepId`]: coreda_adl::step::StepId
    StepSensed {
        /// Instant, ms.
        at_ms: u64,
        /// Raw step id (0 = idle).
        step: u16,
    },
    /// A reminder was delivered.
    Reminder {
        /// Instant, ms.
        at_ms: u64,
        /// The prompted tool.
        prompt_tool: u16,
        /// Whether the reminder was at the specific level.
        specific: bool,
        /// The wrongly used tool, for wrong-tool triggers.
        wrong_tool: Option<u16>,
        /// The tool whose red LED the reminder blinks, if any.
        red_led_tool: Option<u16>,
    },
    /// The user followed a prompt and was praised.
    Praise {
        /// Instant, ms.
        at_ms: u64,
    },
    /// The session tracker opened a session.
    SessionStarted {
        /// Instant, ms.
        at_ms: u64,
        /// Interned activity name index.
        activity: u32,
    },
    /// The session tracker closed a session.
    SessionEnded {
        /// Instant, ms.
        at_ms: u64,
        /// Interned activity name index.
        activity: u32,
        /// Whether the terminal tool was seen.
        completed: bool,
    },
    /// A foreign tool was used during an open session.
    CrossActivityUse {
        /// Instant, ms.
        at_ms: u64,
        /// Interned name index of the open session's activity.
        active: u32,
        /// Interned name index of the foreign tool's activity.
        foreign: u32,
        /// The foreign tool.
        tool: u16,
    },
}

impl TraceEvent {
    /// The instant the event happened, ms.
    #[must_use]
    pub const fn at_ms(&self) -> u64 {
        match *self {
            TraceEvent::EpisodeStarted { at_ms, .. }
            | TraceEvent::EpisodeEnded { at_ms, .. }
            | TraceEvent::StepSensed { at_ms, .. }
            | TraceEvent::Reminder { at_ms, .. }
            | TraceEvent::Praise { at_ms }
            | TraceEvent::SessionStarted { at_ms, .. }
            | TraceEvent::SessionEnded { at_ms, .. }
            | TraceEvent::CrossActivityUse { at_ms, .. } => at_ms,
        }
    }
}

/// Counter summary of one run; part of the differential fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Episodes begun.
    pub episodes_started: u64,
    /// Episodes the patient completed.
    pub episodes_completed: u64,
    /// Reminders issued.
    pub reminders: u64,
    /// Praises issued.
    pub praises: u64,
    /// 100 ms pipeline ticks executed.
    pub pipeline_ticks: u64,
    /// Total node energy, µJ.
    pub energy_uj: f64,
}

/// Everything one run produced. Two runs of the same plan must compare
/// equal whatever wake policy or worker count produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The observable event stream, in order.
    pub trace: Vec<TraceEvent>,
    /// Counter summary.
    pub stats: RunStats,
    /// Every Q value of every planner after the run (online learning is
    /// on, so live serving moves these).
    pub q_values: Vec<f64>,
    /// The write-ahead event log: one compact record per state-mutating
    /// poll instant, derived from the same observable tap the oracles
    /// watch. Part of the differential fingerprint — killed, resumed,
    /// and densely polled runs must log identically.
    pub wal: Vec<WalRecord>,
}

/// The outcome of checking one plan: both wake policies run, all
/// oracles applied, traces compared.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Oracle violations, in detection order (empty = plan passed).
    pub violations: Vec<Violation>,
    /// The event-driven run (the canonical result).
    pub canonical: RunResult,
}

impl CheckOutcome {
    /// Whether any oracle fired.
    #[must_use]
    pub fn violated(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// The reusable fixture: trained planner templates plus the system
/// configuration every plan run clones from. Building one is the
/// expensive part (offline training); running a plan is cheap.
#[derive(Debug)]
pub struct Harness {
    specs: Vec<AdlSpec>,
    templates: Vec<PlanningSubsystem>,
    config: CoredaConfig,
    tool_ids: Vec<u16>,
}

/// Seed domain for template training — fixed so every harness instance
/// (and every fuzz process) starts from identical planners.
const TRAIN_SEED: u64 = 2007;
const TRAIN_EPISODES: usize = 150;
/// Quiet-gap bounds between a home's episodes (shorter than metro's so a
/// plan packs several episodes into a few simulated minutes).
const GAP_MIN_MS: f64 = 20_000.0;
const GAP_MAX_MS: f64 = 60_000.0;
const IDLE_CLOSE: SimDuration = SimDuration::from_secs(120);

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// Builds the fixture: tea-making + tooth-brushing systems with
    /// online learning enabled (so the Q-bound oracle watches live
    /// updates) and planners trained on the canonical routines.
    #[must_use]
    pub fn new() -> Self {
        let specs = vec![catalog::tea_making(), catalog::tooth_brushing()];
        let config = CoredaConfig { online_learning: true, ..CoredaConfig::default() };
        let templates: Vec<PlanningSubsystem> = specs
            .iter()
            .enumerate()
            .map(|(act, spec)| {
                let routine = Routine::canonical(spec);
                let mut planner = PlanningSubsystem::new(spec, config.planning);
                let mut rng =
                    SimRng::seed_from(derive_seed(TRAIN_SEED, "dst-train", act as u64));
                for _ in 0..TRAIN_EPISODES {
                    planner.train_episode(routine.steps(), &mut rng);
                }
                planner
            })
            .collect();
        let tool_ids = specs
            .iter()
            .flat_map(|s| s.tools().iter().map(|t| t.id().raw()))
            .collect();
        Harness { specs, templates, config, tool_ids }
    }

    /// Raw tool ids across every activity — the target space for plan
    /// generation.
    #[must_use]
    pub fn tool_ids(&self) -> &[u16] {
        &self.tool_ids
    }

    /// The Q-bound the oracle enforces: `terminal / (1 - γ)` with a 25 %
    /// margin for eligibility-trace transients.
    #[must_use]
    pub fn q_bound(&self) -> f64 {
        let planning = self.config.planning;
        planning.reward.terminal.abs().max(planning.reward.minimal.abs()) / (1.0 - planning.gamma)
            * 1.25
    }

    /// Runs `plan` once under the given wake policy.
    #[must_use]
    pub fn run(&self, plan: &FaultPlan, wakes: WakePolicy) -> RunResult {
        HomeRun::new(self, plan).drive(wakes).0
    }

    /// [`Harness::run`] with the flight recorder on: returns the run
    /// result (bit-identical to an unrecorded run — recording draws no
    /// randomness) plus the home's recorder, whose trace ring holds the
    /// last events leading up to whatever happened.
    #[must_use]
    pub fn run_recorded(&self, plan: &FaultPlan, wakes: WakePolicy) -> (RunResult, HomeRecorder) {
        let mut home = HomeRun::new(self, plan);
        home.rec = Some(HomeRecorder::new());
        let (result, rec) = home.drive(wakes);
        (result, rec.unwrap_or_default())
    }

    /// The full check: run under both wake policies, stream the
    /// event-driven trace through every invariant oracle, verify the Q
    /// bound, and require the two runs to be bit-identical. Plans containing
    /// [`FaultKind::CheckpointKillResume`] additionally run a *ghost* —
    /// the same plan with the kills stripped — and require the
    /// killed-and-resumed run to match it exactly.
    #[must_use]
    pub fn check(&self, plan: &FaultPlan) -> CheckOutcome {
        let canonical = self.run(plan, WakePolicy::EventDriven);
        let dense = self.run(plan, WakePolicy::Dense);
        let mut violations = oracles::check_trace(&canonical.trace, plan.horizon_ms);
        if let Some(v) = oracles::check_q(&canonical.q_values, self.q_bound()) {
            violations.push(v);
        }
        if let Some(v) = oracles::check_engines(&canonical, &dense) {
            violations.push(v);
        }
        if plan.faults.iter().any(|f| f.kind == FaultKind::CheckpointKillResume) {
            let ghost_plan = FaultPlan {
                faults: plan
                    .faults
                    .iter()
                    .filter(|f| f.kind != FaultKind::CheckpointKillResume)
                    .cloned()
                    .collect(),
                ..plan.clone()
            };
            let ghost = self.run(&ghost_plan, WakePolicy::EventDriven);
            if let Some(v) = oracles::check_resume(&canonical, &ghost) {
                violations.push(v);
            }
        }
        CheckOutcome { violations, canonical }
    }
}

/// Aggregate fault state actually applied to the systems, compared by
/// value against the desired state each poll.
#[derive(Debug, Clone, PartialEq)]
struct AppliedFaults {
    link: LossModel,
    /// Per targeted tool: (tool, failed, false_positive, false_negative,
    /// skew_ms).
    tools: Vec<(u16, bool, f64, f64, i64)>,
    non_compliant: bool,
    lapsing: bool,
    drifting: bool,
}

/// One home being driven under a plan.
struct HomeRun<'a> {
    harness: &'a Harness,
    plan: &'a FaultPlan,
    systems: Vec<(Coreda, Routine, Routine)>,
    behavior: FaultyBehavior<StochasticBehavior>,
    tracker: SessionTracker,
    root: SimRng,
    sched_rng: SimRng,
    episode: Option<(usize, LiveEpisode, SimRng, EpisodeLog, usize)>,
    ep_index: u64,
    next_start: SimTime,
    last_handled: Option<SimTime>,
    applied: AppliedFaults,
    base_link: LossModel,
    trace: Vec<TraceEvent>,
    stats: RunStats,
    /// Flight recorder: `Some` for [`Harness::run_recorded`] runs.
    rec: Option<HomeRecorder>,
    /// Session events buffered while `live_tick` holds the recorder.
    scratch_sessions: Vec<SessionEvent>,
    /// Write-ahead event log, one record per state-mutating poll.
    wal: Vec<WalRecord>,
    /// The previous kill's decoded snapshot: later kills round-trip an
    /// incremental delta against it instead of a full checkpoint.
    base: Option<MetroCheckpoint>,
}

impl<'a> HomeRun<'a> {
    fn new(harness: &'a Harness, plan: &'a FaultPlan) -> Self {
        let name = "dst-home";
        let systems: Vec<(Coreda, Routine, Routine)> = harness
            .specs
            .iter()
            .enumerate()
            .map(|(act, spec)| {
                let seed = derive_seed(plan.seed, "dst-system", act as u64);
                let mut system = Coreda::new(spec.clone(), name, harness.config, seed);
                *system.planner_mut() = harness.templates[act].clone();
                let canonical = Routine::canonical(spec);
                let drifted = drifted_routine(spec, &canonical, plan);
                (system, canonical, drifted)
            })
            .collect();
        let root = SimRng::seed_from(derive_seed(plan.seed, "dst-home", 0));
        let sched_rng = root.substream("sched", 0);
        let base_link = harness.config.link.loss;
        let mut run = HomeRun {
            harness,
            plan,
            systems,
            behavior: FaultyBehavior::new(StochasticBehavior::new(PatientProfile::moderate(
                name,
            ))),
            tracker: SessionTracker::new(&harness.specs, IDLE_CLOSE),
            root,
            sched_rng,
            episode: None,
            ep_index: 0,
            next_start: SimTime::ZERO,
            last_handled: None,
            applied: AppliedFaults {
                link: base_link,
                tools: harness.tool_ids.iter().map(|&t| (t, false, 0.0, 0.0, 0)).collect(),
                non_compliant: false,
                lapsing: false,
                drifting: false,
            },
            base_link,
            trace: Vec::new(),
            stats: RunStats::default(),
            rec: None,
            scratch_sessions: Vec::new(),
            wal: Vec::new(),
            base: None,
        };
        let first = run.draw_gap();
        run.next_start = align_up(SimTime::ZERO + first);
        run
    }

    fn draw_gap(&mut self) -> SimDuration {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let ms = self.sched_rng.uniform_range(GAP_MIN_MS, GAP_MAX_MS) as u64;
        SimDuration::from_millis(ms)
    }

    /// Desired fault aggregates at `now`, derived purely from the plan.
    fn desired(&self, now_ms: u64) -> AppliedFaults {
        let mut want = AppliedFaults {
            link: self.base_link,
            tools: self.applied.tools.iter().map(|&(t, ..)| (t, false, 0.0, 0.0, 0)).collect(),
            non_compliant: false,
            lapsing: false,
            drifting: false,
        };
        for fault in &self.plan.faults {
            if !fault.active_at(now_ms) {
                continue;
            }
            match fault.kind {
                FaultKind::RadioLoss { model, .. } => want.link = model,
                FaultKind::NodeCrash { tool } => {
                    if let Some(slot) = want.tools.iter_mut().find(|s| s.0 == tool) {
                        slot.1 = true;
                    }
                }
                FaultKind::SensorFlip { tool, false_positive, false_negative } => {
                    if let Some(slot) = want.tools.iter_mut().find(|s| s.0 == tool) {
                        slot.2 = false_positive;
                        slot.3 = false_negative;
                    }
                }
                FaultKind::ClockSkew { tool, skew_ms } => {
                    if let Some(slot) = want.tools.iter_mut().find(|s| s.0 == tool) {
                        slot.4 = skew_ms;
                    }
                }
                FaultKind::NonCompliance => want.non_compliant = true,
                FaultKind::SevereLapses => want.lapsing = true,
                FaultKind::RoutineDrift { .. } => want.drifting = true,
                // A kill is not a fault *window*: it interrupts the
                // drive loop itself and leaves the aggregates alone.
                FaultKind::CheckpointKillResume => {}
                // Frame faults live on the served wire, outside the
                // in-process pipeline; the served harness applies them.
                FaultKind::FrameDup
                | FaultKind::FrameReorder
                | FaultKind::FrameDelay
                | FaultKind::FrameDisconnect
                | FaultKind::CaregiverNoAck => {}
            }
        }
        want
    }

    /// Applies any delta between desired and applied fault state. Never
    /// draws randomness, so applying this lazily is wake-policy-invariant.
    fn apply_faults(&mut self, now: SimTime) {
        let want = self.desired(now.as_millis());
        self.apply_aggregate(want);
    }

    /// Applies `want` as the fault aggregate regardless of the plan's
    /// windows. Resume uses this directly: faults are applied lazily at
    /// poll instants and a kill tick need not be one, so the rebuilt
    /// home must mirror the *dying* run's applied state — the state the
    /// snapshot's node flags were captured under — not the plan's
    /// desired state at the kill instant. Marking a window as applied
    /// without its node-level effect would stop the delta machine from
    /// ever applying it.
    fn apply_aggregate(&mut self, want: AppliedFaults) {
        if want == self.applied {
            return;
        }
        if want.link != self.applied.link {
            for (system, _, _) in &mut self.systems {
                system.set_link_loss(want.link);
            }
        }
        for (want_slot, have_slot) in want.tools.iter().zip(&self.applied.tools) {
            let &(tool, failed, fp, fne, skew) = want_slot;
            let id = ToolId::new(tool);
            if failed != have_slot.1 {
                for (system, _, _) in &mut self.systems {
                    system.set_node_failed(id, failed);
                }
            }
            if (fp, fne) != (have_slot.2, have_slot.3) {
                for (system, _, _) in &mut self.systems {
                    system.set_sensor_flip(id, fp, fne);
                }
            }
            if skew != have_slot.4 {
                for (system, _, _) in &mut self.systems {
                    system.set_clock_skew(id, skew);
                }
            }
        }
        self.behavior.non_compliant = want.non_compliant;
        self.behavior.lapsing = want.lapsing;
        self.applied = want;
    }

    /// Drains fresh episode-log entries into the trace.
    fn drain_log(trace: &mut Vec<TraceEvent>, log: &EpisodeLog, cursor: &mut usize) {
        for (at, kind) in &log.entries()[*cursor..] {
            let at_ms = at.as_millis();
            match kind {
                LogKind::StepSensed(step) => {
                    trace.push(TraceEvent::StepSensed { at_ms, step: step.raw() });
                }
                LogKind::ReminderIssued(rem) => {
                    let wrong_tool = match rem.trigger {
                        Trigger::WrongTool { used } => Some(used.raw()),
                        Trigger::IdleTimeout => None,
                    };
                    let red_led_tool = rem.methods.iter().find_map(|m| match m {
                        ReminderMethod::RedLed { tool, .. } => Some(tool.raw()),
                        _ => None,
                    });
                    trace.push(TraceEvent::Reminder {
                        at_ms,
                        prompt_tool: rem.prompt.tool.raw(),
                        specific: rem.prompt.level == ReminderLevel::Specific,
                        wrong_tool,
                        red_led_tool,
                    });
                }
                LogKind::Praised => trace.push(TraceEvent::Praise { at_ms }),
                // Ground-truth entries (patient froze/misused/started) are
                // not system observations; oracles only see what the
                // pipeline itself could know.
                _ => {}
            }
        }
        *cursor = log.entries().len();
    }

    /// Mirrors a session event into the flight recorder (same mapping as
    /// metro's recorder, so fuzz flight dumps read like scale traces).
    fn record_session_event(rec: &mut HomeRecorder, ev: SessionEvent) {
        match ev {
            SessionEvent::Started { activity, at } => {
                rec.inc(Ctr::SessionsStarted);
                rec.event(at, TraceKind::SessionStarted { name: activity });
            }
            SessionEvent::Ended { activity, at, completed } => {
                rec.inc(if completed { Ctr::SessionsCompleted } else { Ctr::SessionsAbandoned });
                rec.event(at, TraceKind::SessionEnded { name: activity, completed });
            }
            SessionEvent::CrossActivityUse { active, at, .. } => {
                rec.inc(Ctr::CrossActivityFlags);
                rec.event(at, TraceKind::CrossActivity { name: active });
            }
        }
    }

    fn trace_session_event(trace: &mut Vec<TraceEvent>, ev: SessionEvent) {
        trace.push(match ev {
            SessionEvent::Started { activity, at } => TraceEvent::SessionStarted {
                at_ms: at.as_millis(),
                activity: activity.index() as u32,
            },
            SessionEvent::Ended { activity, at, completed } => TraceEvent::SessionEnded {
                at_ms: at.as_millis(),
                activity: activity.index() as u32,
                completed,
            },
            SessionEvent::CrossActivityUse { active, foreign, tool, at } => {
                TraceEvent::CrossActivityUse {
                    at_ms: at.as_millis(),
                    active: active.index() as u32,
                    foreign: foreign.index() as u32,
                    tool: tool.raw(),
                }
            }
        });
    }

    /// The canonical per-instant sequence, mirroring metro's
    /// `poll_instant` with fault application in front.
    fn poll_instant(&mut self, now: SimTime) {
        self.apply_faults(now);
        let wal_mark = self.trace.len();

        // 1. Begin the next episode when its start arrives.
        if self.episode.is_none() && now >= self.next_start {
            let act = usize::try_from(self.ep_index).unwrap_or(usize::MAX) % self.systems.len();
            let mut rng = self.root.substream("episode", self.ep_index);
            let mut log = EpisodeLog::new();
            let drifting = self.applied.drifting;
            let (system, canonical, drifted) = &mut self.systems[act];
            let routine: &Routine = if drifting { drifted } else { canonical };
            let ep =
                system.begin_live(routine, &mut self.behavior, now, &mut rng, Some(&mut log));
            let mut cursor = 0usize;
            self.trace.push(TraceEvent::EpisodeStarted { at_ms: now.as_millis(), act });
            Self::drain_log(&mut self.trace, &log, &mut cursor);
            self.episode = Some((act, ep, rng, log, cursor));
            self.stats.episodes_started += 1;
            if let Some(rec) = self.rec.as_mut() {
                rec.inc(Ctr::EpisodesStarted);
                #[allow(clippy::cast_possible_truncation)]
                rec.event(
                    now,
                    TraceKind::EpisodeStarted {
                        episode: self.ep_index.min(u64::from(u32::MAX)) as u32,
                    },
                );
            }
        }

        // 2. Run the running episode's 100 ms pipeline tick.
        let mut finished = None;
        if let Some((act, ep, rng, log, cursor)) = self.episode.as_mut() {
            if now >= ep.next_tick_at() {
                let drifting = self.applied.drifting;
                let (system, canonical, drifted) = &mut self.systems[*act];
                let routine: &Routine = if drifting { drifted } else { canonical };
                let tracker = &mut self.tracker;
                let trace = &mut self.trace;
                let scratch = &mut self.scratch_sessions;
                let out = system.live_tick(
                    ep,
                    routine,
                    &mut self.behavior,
                    now,
                    rng,
                    Some(log),
                    self.rec.as_mut(),
                    &mut |src, at| {
                        for ev in tracker.on_report(src, at) {
                            Self::trace_session_event(trace, ev);
                            scratch.push(ev);
                        }
                    },
                );
                Self::drain_log(&mut self.trace, log, cursor);
                self.stats.pipeline_ticks += 1;
                self.stats.reminders += u64::from(out.reminders);
                self.stats.praises += u64::from(out.praises);
                if out.completed_now {
                    self.stats.episodes_completed += 1;
                }
                if let Some(rec) = self.rec.as_mut() {
                    for ev in self.scratch_sessions.drain(..) {
                        Self::record_session_event(rec, ev);
                    }
                    if out.completed_now {
                        rec.inc(Ctr::EpisodesCompleted);
                    }
                    if out.finished {
                        rec.event(now, TraceKind::EpisodeEnded { completed: out.completed_now });
                    }
                } else {
                    self.scratch_sessions.clear();
                }
                if out.finished {
                    finished = Some((*act, ep.completed()));
                }
            }
        }

        // 3. Home-wide idle close (the tracker's clock tick).
        if let Some(ev) = self.tracker.on_tick(now) {
            Self::trace_session_event(&mut self.trace, ev);
            if let Some(rec) = self.rec.as_mut() {
                Self::record_session_event(rec, ev);
            }
        }

        // 4. Episode cleanup: draw the quiet gap and schedule the next.
        if let Some((act, completed)) = finished {
            self.trace.push(TraceEvent::EpisodeEnded { at_ms: now.as_millis(), act, completed });
            self.episode = None;
            self.ep_index += 1;
            let gap = self.draw_gap();
            self.next_start = align_up(now + gap);
        }

        // 5. Write-ahead log: fold this instant's fresh trace entries
        // into one compact record (metro's `poll_wake` shape). Derived
        // from the observable tap alone, so the run cannot feel it.
        let mut rec = WalRecord {
            at: now,
            home: 0,
            act: wal::NO_ACT,
            flags: 0,
            reminders: 0,
            praises: 0,
            sessions_started: 0,
            sessions_completed: 0,
            sessions_abandoned: 0,
            cross_activity: 0,
        };
        let bump = |c: &mut u8| *c = c.saturating_add(1);
        for ev in &self.trace[wal_mark..] {
            match *ev {
                TraceEvent::EpisodeStarted { act, .. } => {
                    rec.flags |= wal::EPISODE_STARTED;
                    rec.act = u8::try_from(act).unwrap_or(wal::NO_ACT - 1);
                }
                TraceEvent::EpisodeEnded { completed, .. } => {
                    rec.flags |= wal::EPISODE_ENDED;
                    if completed {
                        rec.flags |= wal::EPISODE_COMPLETED;
                    }
                }
                TraceEvent::Reminder { .. } => bump(&mut rec.reminders),
                TraceEvent::Praise { .. } => bump(&mut rec.praises),
                TraceEvent::SessionStarted { .. } => bump(&mut rec.sessions_started),
                TraceEvent::SessionEnded { completed: true, .. } => {
                    bump(&mut rec.sessions_completed);
                }
                TraceEvent::SessionEnded { completed: false, .. } => {
                    bump(&mut rec.sessions_abandoned);
                }
                TraceEvent::CrossActivityUse { .. } => bump(&mut rec.cross_activity),
                TraceEvent::StepSensed { .. } => {}
            }
        }
        if !rec.is_trivial() {
            self.wal.push(rec);
        }
    }

    /// Runs the event-driven loop until `until`, scheduling follow-up
    /// events against the full-run horizon `end` (so events past a kill
    /// point land in the queue and get captured as pending).
    fn event_segment(&mut self, sim: &mut Simulator<()>, until: SimTime, end: SimTime) {
        while sim.step_until(until).is_some() {
            let now = sim.now();
            if self.last_handled == Some(now) {
                continue;
            }
            self.last_handled = Some(now);
            self.poll_instant(now);
            if let Some((_, ep, ..)) = &self.episode {
                let due = ep.next_tick_at();
                if due <= end {
                    sim.schedule_at(due, ());
                }
            } else {
                if self.next_start <= end {
                    sim.schedule_at(self.next_start, ());
                }
                if let Some(deadline) = self.tracker.idle_deadline() {
                    let due = align_up(deadline);
                    if due <= end {
                        sim.schedule_at(due, ());
                    }
                }
            }
        }
    }

    /// Dense-polling counterpart of [`HomeRun::event_segment`].
    fn dense_segment(&mut self, sim: &mut Simulator<()>, until: SimTime, end: SimTime) {
        while sim.step_until(until).is_some() {
            let now = sim.now();
            self.last_handled = Some(now);
            self.poll_instant(now);
            let next = now + Coreda::TICK;
            if next <= end {
                sim.schedule_at(next, ());
            }
        }
    }

    /// The plan's process-death instants, sorted and clamped to the
    /// horizon.
    fn kill_ticks(&self) -> Vec<SimTime> {
        let mut kills: Vec<SimTime> = self
            .plan
            .faults
            .iter()
            .filter(|f| f.kind == FaultKind::CheckpointKillResume)
            .map(|f| SimTime::from_millis(f.from_ms.min(self.plan.horizon_ms)))
            .collect();
        kills.sort();
        kills
    }

    /// Simulates a process death at `kill`: the home's complete state
    /// round-trips through the real binary checkpoint codec, the event
    /// queue dies, and a freshly rebuilt home restores from the decoded
    /// bytes and re-arms the queue. Harness bookkeeping that is not
    /// system state — the observable trace, the episode log and its
    /// drain cursor — survives in memory, exactly as a log shipped off
    /// the box would.
    fn kill_and_resume(mut self, sim: &mut Simulator<()>, kill: SimTime) -> HomeRun<'a> {
        let pending: Vec<SimTime> =
            sim.drain_pending().into_iter().map(|(due, ())| due).collect();
        let snapshot = HomeCheckpoint {
            systems: self.systems.iter().map(|(s, ..)| s.export_state()).collect(),
            tracker: self.tracker.export_active(),
            root: self.root.state_parts(),
            sched: self.sched_rng.state_parts(),
            episode: self
                .episode
                .as_ref()
                .map(|(act, ep, rng, _, _)| (*act, ep.export_state(), rng.state_parts())),
            ep_index: self.ep_index,
            next_start: self.next_start,
            last_handled: self.last_handled,
            stats: HomeStats {
                episodes_started: self.stats.episodes_started,
                episodes_completed: self.stats.episodes_completed,
                reminders: self.stats.reminders,
                praises: self.stats.praises,
                pipeline_ticks: self.stats.pipeline_ticks,
                ..HomeStats::default()
            },
            pending,
            rec: self.rec.as_ref().map(HomeRecorder::export_state),
        };
        let manifest = MetroCheckpoint {
            at: kill,
            digest: 0,
            des_events: sim.processed(),
            homes: vec![snapshot],
        };
        // The durability artifacts die with the process and are read
        // back the way a restart would read them. First death: the full
        // snapshot round-trips the checkpoint codec. Later deaths: only
        // an incremental delta against the previous death's snapshot
        // round-trips, and base + delta must rebuild the dying state
        // exactly — the compaction path under kill-resume fuzzing.
        let decoded = match self.base.take() {
            Some(base) => {
                let delta = delta_checkpoint(&base, &manifest);
                let blob = save_delta(&delta, 1);
                let delta = load_delta(&blob, 1).expect("a self-made delta must decode");
                let rebuilt = apply_delta(&base, &delta).expect("the delta fits its own base");
                assert_eq!(rebuilt, manifest, "base + delta must rebuild the dying state");
                rebuilt
            }
            None => {
                let blob = save_checkpoint(&manifest, 1);
                load_checkpoint(&blob, 1).expect("a self-made checkpoint must decode")
            }
        };
        // The write-ahead log is torn mid-chunk by the death; the
        // tolerant decoder must salvage exactly an intact record prefix
        // from the torn bytes. The in-memory log then survives like the
        // trace does — as a log shipped off the box would.
        let wal_blob = encode_wal(0, &self.wal);
        let cut = wal_blob.len().saturating_sub(7).max(wal::HEADER_BYTES);
        let torn =
            decode_wal_tolerant(&wal_blob[..cut]).expect("the header survives a torn tail");
        assert!(
            torn.records.len() <= self.wal.len()
                && torn.records[..] == self.wal[..torn.records.len()],
            "salvaged records must be an intact prefix of the dying run's log"
        );
        let ck = &decoded.homes[0];

        let mut fresh = HomeRun::new(self.harness, self.plan);
        // Fault *configuration* (loss model, behavior flags) is not in
        // the snapshot and must be applied before state restore:
        // installing a loss model resets channel state, which the
        // snapshot then overwrites with the exact values. Crucially the
        // dying run's lazily-*applied* aggregate is replayed, not the
        // plan's desired state at the kill instant — a fault window that
        // opened between two poll instants has not touched the systems
        // yet, and pretending it had would leave its node-level effect
        // unapplied forever (caught by the kill-resume fuzzer:
        // tests/corpus/kill-resume-lazy-crash.seed.json).
        fresh.apply_aggregate(self.applied.clone());
        for ((system, ..), state) in fresh.systems.iter_mut().zip(&ck.systems) {
            system.restore_state(state).expect("checkpoint matches the rebuilt home");
        }
        fresh.tracker.restore_active(ck.tracker);
        fresh.root = SimRng::from_state_parts(ck.root.0, ck.root.1);
        fresh.sched_rng = SimRng::from_state_parts(ck.sched.0, ck.sched.1);
        fresh.episode = ck.episode.as_ref().map(|&(act, ref eps, rng)| {
            let (_, _, _, log, cursor) = self
                .episode
                .take()
                .expect("the snapshot has a live episode, so the killed run had one");
            (act, LiveEpisode::from_state(eps), SimRng::from_state_parts(rng.0, rng.1), log, cursor)
        });
        fresh.ep_index = ck.ep_index;
        fresh.next_start = ck.next_start;
        fresh.last_handled = ck.last_handled;
        fresh.stats = RunStats {
            episodes_started: ck.stats.episodes_started,
            episodes_completed: ck.stats.episodes_completed,
            reminders: ck.stats.reminders,
            praises: ck.stats.praises,
            pipeline_ticks: ck.stats.pipeline_ticks,
            energy_uj: 0.0,
        };
        fresh.trace = std::mem::take(&mut self.trace);
        if self.rec.is_some() {
            let mut rec = HomeRecorder::new();
            if let Some(state) = &ck.rec {
                rec.restore_state(state);
            }
            fresh.rec = Some(rec);
        }
        for &due in &ck.pending {
            sim.schedule_at(due, ());
        }
        fresh.wal = std::mem::take(&mut self.wal);
        fresh.base = Some(decoded);
        fresh
    }

    fn drive(mut self, wakes: WakePolicy) -> (RunResult, Option<HomeRecorder>) {
        let end = SimTime::ZERO + SimDuration::from_millis(self.plan.horizon_ms);
        let kills = self.kill_ticks();
        let mut sim: Simulator<()> = Simulator::new();
        let segment = match wakes {
            WakePolicy::EventDriven => {
                if self.next_start <= end {
                    sim.schedule_at(self.next_start, ());
                }
                HomeRun::event_segment
            }
            WakePolicy::Dense => {
                sim.schedule_at(SimTime::ZERO, ());
                HomeRun::dense_segment
            }
        };
        for &kill in &kills {
            segment(&mut self, &mut sim, kill, end);
            self = self.kill_and_resume(&mut sim, kill);
        }
        segment(&mut self, &mut sim, end, end);
        self.stats.energy_uj = self.systems.iter().map(|(s, ..)| s.total_energy_uj()).sum();
        let q_values = self
            .systems
            .iter()
            .flat_map(|(s, ..)| s.planner().q_table().values())
            .collect();
        (RunResult { trace: self.trace, stats: self.stats, q_values, wal: self.wal }, self.rec)
    }
}

/// The smallest instant on the 100 ms serving grid at or after `t`.
fn align_up(t: SimTime) -> SimTime {
    let tick = Coreda::TICK.as_millis();
    SimTime::from_millis(t.as_millis().div_ceil(tick) * tick)
}

/// The routine the activity drifts to: the last `RoutineDrift` fault's
/// swap applied to the canonical order (identical indices leave the
/// routine unchanged — a vacuous drift).
fn drifted_routine(spec: &AdlSpec, canonical: &Routine, plan: &FaultPlan) -> Routine {
    let swap = plan.faults.iter().rev().find_map(|f| match f.kind {
        FaultKind::RoutineDrift { swap_a, swap_b } => Some((swap_a, swap_b)),
        _ => None,
    });
    let Some((a, b)) = swap else {
        return canonical.clone();
    };
    let mut steps = canonical.steps().to_vec();
    let len = steps.len();
    let (a, b) = (a as usize % len, b as usize % len);
    steps.swap(a, b);
    Routine::new(spec, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness() -> Harness {
        Harness::new()
    }

    #[test]
    fn clean_plan_runs_and_serves() {
        let h = harness();
        let plan = FaultPlan {
            seed: 7,
            horizon_ms: 240_000,
            faults: vec![],
            expect_violation: None,
        };
        let result = h.run(&plan, WakePolicy::EventDriven);
        assert!(result.stats.episodes_started >= 2, "{:?}", result.stats);
        assert!(result.stats.pipeline_ticks > 100);
        assert!(result.trace.iter().any(|e| matches!(e, TraceEvent::SessionStarted { .. })));
        assert!(result.q_values.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn runs_are_deterministic() {
        let h = harness();
        let plan = FaultPlan::generate(11, h.tool_ids());
        assert_eq!(h.run(&plan, WakePolicy::EventDriven), h.run(&plan, WakePolicy::EventDriven));
    }

    #[test]
    fn event_driven_and_dense_traces_agree_under_faults() {
        let h = harness();
        for seed in [1u64, 2, 3] {
            let plan = FaultPlan::generate(seed, h.tool_ids());
            let events = h.run(&plan, WakePolicy::EventDriven);
            let dense = h.run(&plan, WakePolicy::Dense);
            assert_eq!(events, dense, "wake policies diverged on seed {seed}: {plan:?}");
        }
    }

    #[test]
    fn recorded_run_matches_unrecorded_run() {
        let h = harness();
        let plan = FaultPlan::generate(5, h.tool_ids());
        let plain = h.run(&plan, WakePolicy::EventDriven);
        let (recorded, rec) = h.run_recorded(&plan, WakePolicy::EventDriven);
        assert_eq!(plain, recorded, "recording must not perturb the run");
        assert_eq!(rec.counter(Ctr::EpisodesStarted), plain.stats.episodes_started);
        assert_eq!(rec.counter(Ctr::Praises), plain.stats.praises);
        assert!(!rec.ring().is_empty(), "the trace ring should hold events");
        let (dense, dense_rec) = h.run_recorded(&plan, WakePolicy::Dense);
        assert_eq!(recorded, dense);
        assert_eq!(rec, dense_rec, "recorders must agree across wake policies");
    }


    #[test]
    fn kill_and_resume_matches_the_ghost_run() {
        let h = harness();
        for seed in [4u64, 9, 21] {
            let killed = FaultPlan::generate(seed, h.tool_ids()).with_kill_resume();
            let ghost = FaultPlan {
                faults: killed
                    .faults
                    .iter()
                    .filter(|f| f.kind != FaultKind::CheckpointKillResume)
                    .cloned()
                    .collect(),
                ..killed.clone()
            };
            for wakes in [WakePolicy::EventDriven, WakePolicy::Dense] {
                assert_eq!(
                    h.run(&killed, wakes),
                    h.run(&ghost, wakes),
                    "resume diverged from the uninterrupted run: seed {seed}, {wakes:?}"
                );
            }
        }
    }

    #[test]
    fn double_kill_still_matches_the_ghost() {
        let h = harness();
        let base = FaultPlan::generate(13, h.tool_ids());
        let mut killed = base.clone();
        for at in [30_000, 90_000] {
            killed.faults.push(crate::plan::Fault {
                kind: FaultKind::CheckpointKillResume,
                from_ms: at,
                to_ms: at,
            });
        }
        assert_eq!(h.run(&killed, WakePolicy::EventDriven), h.run(&base, WakePolicy::EventDriven));
    }

    #[test]
    fn recorder_survives_the_kill() {
        let h = harness();
        let killed = FaultPlan::generate(6, h.tool_ids()).with_kill_resume();
        let ghost = FaultPlan {
            faults: killed
                .faults
                .iter()
                .filter(|f| f.kind != FaultKind::CheckpointKillResume)
                .cloned()
                .collect(),
            ..killed.clone()
        };
        let (killed_run, killed_rec) = h.run_recorded(&killed, WakePolicy::EventDriven);
        let (ghost_run, ghost_rec) = h.run_recorded(&ghost, WakePolicy::EventDriven);
        assert_eq!(killed_run, ghost_run);
        assert_eq!(
            killed_rec, ghost_rec,
            "telemetry must merge across the snapshot boundary, not reset"
        );
    }

    #[test]
    fn check_flags_nothing_on_a_killed_clean_plan() {
        let h = harness();
        let plan = FaultPlan {
            seed: 7,
            horizon_ms: 240_000,
            faults: vec![crate::plan::Fault {
                kind: FaultKind::CheckpointKillResume,
                from_ms: 60_000,
                to_ms: 60_000,
            }],
            expect_violation: None,
        };
        let outcome = h.check(&plan);
        assert!(!outcome.violated(), "{:?}", outcome.violations);
    }

    #[test]
    fn crash_window_silences_the_node() {
        let h = harness();
        // Crash the tea activity's first tool for the whole run.
        let tool = h.tool_ids()[0];
        let plan = FaultPlan {
            seed: 3,
            horizon_ms: 240_000,
            faults: vec![crate::plan::Fault {
                kind: FaultKind::NodeCrash { tool },
                from_ms: 0,
                to_ms: 240_000,
            }],
            expect_violation: None,
        };
        let faulted = h.run(&plan, WakePolicy::EventDriven);
        let clean = h.run(
            &FaultPlan { faults: vec![], ..plan.clone() },
            WakePolicy::EventDriven,
        );
        assert!(
            faulted.stats.energy_uj < clean.stats.energy_uj,
            "a crashed node must not burn sampling energy: {} vs {}",
            faulted.stats.energy_uj,
            clean.stats.energy_uj
        );
    }
}
