//! Metro-scale serving: many homes, one engine.
//!
//! The ROADMAP north star is a base-station fleet serving millions of
//! users; this module is the serving-side counterpart of the PR-1
//! training fleet. [`run`] simulates N independent households — each a
//! full CoReDA deployment: per-activity [`Coreda`] systems with their
//! own sensornets and planners, plus a home-wide [`SessionTracker`] —
//! for a wall of simulated hours, sharded across [`FleetEngine`]
//! workers.
//!
//! Each shard multiplexes its homes over one timing-wheel [`Simulator`].
//! Homes sleep through quiet stretches and wake event-driven: at the
//! next episode start, the next 100 ms pipeline tick of a running
//! episode, or the session tracker's idle-close deadline. Quiet instants
//! draw no randomness, so this equals polling every home on its 100 ms
//! grid (the unit tests hold it to that dense-polling oracle), and
//! results are bit-identical at any `jobs` count because every random
//! stream is counter-derived per home ([`derive_seed`]) and homes never
//! interact.
//!
//! There is one wake loop, [`ServeSession`]: every run opens one per
//! [`ServeCtx::chunks`] shard and merges them through [`collect_served`].
//! A serving front end drives its sessions from outside; a batch [`run`]
//! drives the same sessions with no transport, so serve ≡ batch holds by
//! construction. A session serves epoch windows — every wake its clock
//! already allows, up to the next stop — as per-home chains in ascending
//! home order, so on the sim clock each home's whole segment is served
//! in one visit. How wide a window is never shows in
//! any artifact: a clock that allows only the window's first instant
//! reproduces the classic instant-by-instant `(due, seq)` sweep, which
//! the equivalence suites hold epoch tiling against.
//!
//! [`RunSpec`] says what a batch run observes (taps, flight recorder,
//! write-ahead log, care overlay), where it snapshots, and whether it
//! resumes; [`run`] returns everything as one [`RunOutput`]. A wake
//! reports through one event stream: the live pipeline and the wake's
//! own episode starts, episode ends and idle closes go into the home's
//! sink, which drives its session tracker from every accepted report
//! and folds each event into the wake's [`WalRecord`] and, when the run
//! keeps them, the home's taps and flight recorder. The home's
//! [`HomeStats`] and the care monitor fold the wake records. So every
//! observer reads the same events, and none can change what the wake
//! does.
//!
//! Home state is laid out struct-of-arrays: each worker owns a `Shard`
//! of parallel vectors indexed by shard-local home id (the per-activity
//! [`Coreda`] systems live in one home-major arena), and everything
//! immutable — ADL specs, trained planner templates, the reminding
//! renderer, the session-tracker name tables — is built once per run in
//! a `FleetCtx` and shared by reference or `Arc`. The chain walk visits
//! the arenas in memory order. See DESIGN.md "Memory layout & cache
//! locality" for the ownership map and the bytes-per-home budget.

use std::sync::Arc;

use coreda_adl::activity::catalog;
use coreda_adl::activity::AdlSpec;
use coreda_adl::patient::PatientProfile;
use coreda_adl::routine::Routine;
use coreda_adl::step::StepId;
use coreda_adl::tool::ToolId;
use coreda_des::rng::SimRng;
use coreda_des::sim::Simulator;
use coreda_des::time::{SimDuration, SimTime};
use coreda_des::{Clock, SimClock};
use coreda_rl::space::ProblemShape;
use coreda_sensornet::hw::SAMPLES_PER_WINDOW;
use coreda_sensornet::network::LinkConfig;
use coreda_sensornet::node::NodeId;

use crate::checkpoint::{
    compact, config_digest, delta_checkpoint, fits, shape_mismatch, CheckpointError,
    DeltaCheckpoint, HomeCheckpoint, MetroCheckpoint,
};
use crate::escalation::{CareEvent, CareMonitor, CareOutput, CarePolicy, FleetAnalytics};
use crate::fleet::{default_jobs, derive_seed, FleetEngine};
use crate::live::{FaultyBehavior, StochasticBehavior};
use crate::planning::{LearnedState, PlannerTemplate, PlanningSubsystem};
use crate::reminding::{Prompt, ReminderMethod, RemindingSubsystem, Trigger};
use crate::sensing::SensingSubsystem;
use crate::sessions::{SessionEvent, SessionTracker};
use crate::system::{
    Coreda, CoredaConfig, LiveEpisode, Phase, SystemState, TickOutcome, TickScratch, WakeEvent,
    WakeSink,
};
use crate::telemetry::{Ctr, HomeRecorder, RecorderState, Stage, Telemetry, DEFAULT_RING_CAP};
use crate::wal::{self, WalRecord};

/// Configuration of a metro-scale serving run.
#[derive(Debug, Clone)]
pub struct MetroConfig {
    /// Number of independent households.
    pub homes: usize,
    /// Simulated wall of time to serve.
    pub horizon: SimDuration,
    /// Base seed; every home derives its own counter-based streams.
    pub seed: u64,
    /// Worker threads to shard homes across (results are identical at
    /// any count).
    pub jobs: usize,
    /// Shortest quiet gap between a home's episodes.
    pub gap_min: SimDuration,
    /// Longest quiet gap between a home's episodes.
    pub gap_max: SimDuration,
    /// Per-system configuration (radio, thresholds, planner...).
    pub system: CoredaConfig,
    /// Offline training episodes for the per-activity planner templates.
    pub train_episodes: usize,
    /// Session-tracker idle-close window. Gaps shorter than this leave
    /// the previous session open into the next episode, producing
    /// cross-activity flags and abandoned closes — deliberate overlap.
    pub idle_close: SimDuration,
}

impl Default for MetroConfig {
    fn default() -> Self {
        MetroConfig {
            homes: 16,
            horizon: SimDuration::from_secs(1800),
            seed: 2007,
            jobs: default_jobs(),
            gap_min: SimDuration::from_secs(60),
            gap_max: SimDuration::from_secs(240),
            system: CoredaConfig::default(),
            train_episodes: 150,
            idle_close: SimDuration::from_secs(120),
        }
    }
}

/// What one home did over the horizon. Identical at any worker count,
/// batch or served.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HomeStats {
    /// Live episodes begun.
    pub episodes_started: u64,
    /// Episodes the patient finished.
    pub episodes_completed: u64,
    /// Reminders issued.
    pub reminders: u64,
    /// Praises issued.
    pub praises: u64,
    /// Activity sessions the tracker opened.
    pub sessions_started: u64,
    /// Sessions closed with the terminal tool seen.
    pub sessions_completed: u64,
    /// Sessions closed without it.
    pub sessions_abandoned: u64,
    /// Foreign-tool-use flags raised.
    pub cross_activity_flags: u64,
    /// 100 ms pipeline ticks executed (the logical serving work).
    pub pipeline_ticks: u64,
    /// Total sensor-node energy consumed, in microjoules.
    pub energy_uj: f64,
}

impl HomeStats {
    /// Fleet-wide totals must survive pathological inputs (a fuzzed or
    /// hand-built report), so aggregation saturates instead of wrapping —
    /// but never *silently*: the return value counts how many fields hit
    /// the clamp, so callers can surface that the totals are lower
    /// bounds rather than exact counts.
    fn absorb(&mut self, other: &HomeStats) -> u64 {
        let mut clamped = 0u64;
        let mut sat = |a: u64, b: u64| {
            let (v, overflowed) = a.overflowing_add(b);
            if overflowed {
                clamped += 1;
                u64::MAX
            } else {
                v
            }
        };
        self.episodes_started = sat(self.episodes_started, other.episodes_started);
        self.episodes_completed = sat(self.episodes_completed, other.episodes_completed);
        self.reminders = sat(self.reminders, other.reminders);
        self.praises = sat(self.praises, other.praises);
        self.sessions_started = sat(self.sessions_started, other.sessions_started);
        self.sessions_completed = sat(self.sessions_completed, other.sessions_completed);
        self.sessions_abandoned = sat(self.sessions_abandoned, other.sessions_abandoned);
        self.cross_activity_flags = sat(self.cross_activity_flags, other.cross_activity_flags);
        self.pipeline_ticks = sat(self.pipeline_ticks, other.pipeline_ticks);
        self.energy_uj += other.energy_uj;
        clamped
    }

    /// Adds one wake's write-ahead record. A wake's counts fit the
    /// record's bytes: a tick raises at most one reminder per sensed step
    /// plus a re-prompt, and three session events per accepted report.
    fn add_wake(&mut self, record: &WalRecord) {
        let flag = |bit: u8| u64::from(record.flags & bit != 0);
        self.episodes_started += flag(wal::EPISODE_STARTED);
        self.episodes_completed += flag(wal::EPISODE_COMPLETED);
        self.reminders += u64::from(record.reminders);
        self.praises += u64::from(record.praises);
        self.sessions_started += u64::from(record.sessions_started);
        self.sessions_completed += u64::from(record.sessions_completed);
        self.sessions_abandoned += u64::from(record.sessions_abandoned);
        self.cross_activity_flags += u64::from(record.cross_activity);
    }
}

/// One event on a home's serving tap — the ordered stream a differential
/// harness compares across worker counts and wake schedules (exact
/// per-home equality is a much stronger check than equal counters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TapEvent {
    /// A live episode began for the home's activity `act`.
    EpisodeStarted {
        /// Instant the episode began.
        at: SimTime,
        /// Index into the home's activities.
        act: usize,
    },
    /// A pipeline tick produced something user-visible.
    Tick {
        /// Instant of the tick.
        at: SimTime,
        /// What the tick produced.
        out: TickOutcome,
    },
    /// The session tracker recognised an event.
    Session(SessionEvent),
    /// The sensing subsystem recognised a step ([`StepId::IDLE`] for an
    /// idle timeout).
    StepSensed {
        /// Instant of the step event.
        at: SimTime,
        /// The recognised step.
        step: StepId,
    },
    /// A reminder went out: what it prompted, why, and which tool's red
    /// LED it blinks.
    Reminder {
        /// Instant of the reminder.
        at: SimTime,
        /// The prompted tool and reminding level.
        prompt: Prompt,
        /// What triggered it.
        trigger: Trigger,
        /// The tool whose red LED the reminder blinks, if any.
        red_led: Option<ToolId>,
    },
}

impl TapEvent {
    /// The instant the event happened. A session event carries its own
    /// instant: an idle close fires at the deadline, not at the wake that
    /// noticed it.
    #[must_use]
    pub const fn at(&self) -> SimTime {
        match *self {
            TapEvent::EpisodeStarted { at, .. }
            | TapEvent::Tick { at, .. }
            | TapEvent::StepSensed { at, .. }
            | TapEvent::Reminder { at, .. }
            | TapEvent::Session(
                SessionEvent::Started { at, .. }
                | SessionEvent::Ended { at, .. }
                | SessionEvent::CrossActivityUse { at, .. },
            ) => at,
        }
    }

    /// The tap a wake event leaves, if any: the system's own observations
    /// — sensed steps and reminders — plus episode starts, session events
    /// and the ticks that produced something user-visible. Ground-truth
    /// patient moves stay off the tap, since the pipeline could not know
    /// them; praise and completion ride the tick's [`TapEvent::Tick`].
    fn of(at: SimTime, ev: &WakeEvent) -> Option<TapEvent> {
        Some(match *ev {
            WakeEvent::EpisodeStarted { act, .. } => TapEvent::EpisodeStarted { at, act },
            WakeEvent::Session(session) => TapEvent::Session(session),
            WakeEvent::StepSensed { step, .. } => TapEvent::StepSensed { at, step },
            WakeEvent::Reminder { ref reminder, .. } => TapEvent::Reminder {
                at,
                prompt: reminder.prompt,
                trigger: reminder.trigger,
                red_led: reminder.methods.iter().find_map(|m| match m {
                    ReminderMethod::RedLed { tool, .. } => Some(*tool),
                    _ => None,
                }),
            },
            WakeEvent::Tick(out) if out != TickOutcome::default() => TapEvent::Tick { at, out },
            _ => return None,
        })
    }
}

/// One node's injected faults. The default is a healthy node.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeFaults {
    /// The mote is crashed.
    pub failed: bool,
    /// P(report "in use" per sample while the tool is idle).
    pub false_positive: f64,
    /// P(report "idle" per sample while the tool is in use).
    pub false_negative: f64,
    /// Offset added to the mote's report timestamps, ms.
    pub skew_ms: i64,
}

/// Everything the fault overlay applies to a home at one instant. The
/// default is a fault-free home.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultState {
    /// The link configuration every radio transmits under; `None` keeps
    /// the configured [`CoredaConfig::link`].
    pub link: Option<LinkConfig>,
    /// Faulted nodes by tool, one entry per tool; a tool not listed is
    /// healthy.
    pub nodes: Vec<(ToolId, NodeFaults)>,
    /// The patient ignores every prompt.
    pub non_compliant: bool,
    /// The patient's step boundaries are error-prone.
    pub lapsing: bool,
    /// The patient's routine swaps these two step positions (mod the
    /// routine's length), mid-episode included.
    pub drift: Option<(u8, u8)>,
}

impl FaultState {
    /// `tool`'s faults (healthy when not listed).
    #[must_use]
    pub fn node(&self, tool: ToolId) -> NodeFaults {
        self.nodes.iter().find(|&&(t, _)| t == tool).map_or_else(NodeFaults::default, |n| n.1)
    }

    /// `tool`'s faults for editing, listing the tool (healthy) if needed.
    pub fn node_mut(&mut self, tool: ToolId) -> &mut NodeFaults {
        let at = match self.nodes.iter().position(|&(t, _)| t == tool) {
            Some(at) => at,
            None => {
                self.nodes.push((tool, NodeFaults::default()));
                self.nodes.len() - 1
            }
        };
        &mut self.nodes[at].1
    }
}

/// A fleet's fault windows as the overlay reads them: the desired
/// [`FaultState`] at any instant. Every home sees the same schedule.
pub trait FaultSchedule: std::fmt::Debug + Sync {
    /// The faults in force at `at`.
    fn at(&self, at: SimTime) -> FaultState;
}

/// A run's fault overlay ([`RunSpec::faults`]). Before each served wake
/// it moves the home from the desired state at its previous wake to the
/// desired state now, through the setters [`Coreda`] already has; so
/// after a wake the applied state is the desired state at that wake, and
/// a snapshot's node flags are those at its `last_handled`. The patient
/// flags are set outright on every wake (one behaviour serves the whole
/// shard), and a drifting routine is chosen per wake.
struct Overlay<'a> {
    schedule: &'a dyn FaultSchedule,
    /// The drifted routine sets asked for so far: per swap, one routine
    /// per activity.
    drifted: Vec<((u8, u8), Vec<Routine>)>,
}

impl<'a> Overlay<'a> {
    /// Applies the schedule to home `i` of `shard` for its wake at `at`
    /// (its previous wake was `prev`) and returns the routines the wake
    /// runs.
    fn apply(
        &mut self,
        shard: &mut Shard<'a>,
        i: usize,
        prev: Option<SimTime>,
        at: SimTime,
    ) -> &[Routine] {
        let ctx = shard.ctx;
        let was = prev.map_or_else(FaultState::default, |t| self.schedule.at(t));
        let want = self.schedule.at(at);
        shard.apply_faults(i, &was, &want);
        let Some(swap) = want.drift else { return &ctx.routines };
        let k = match self.drifted.iter().position(|d| d.0 == swap) {
            Some(k) => k,
            None => {
                let drifted = ctx.specs.iter().zip(&ctx.routines).map(|(spec, canonical)| {
                    let mut steps = canonical.steps().to_vec();
                    let len = steps.len();
                    steps.swap(usize::from(swap.0) % len, usize::from(swap.1) % len);
                    Routine::new(spec, steps)
                });
                self.drifted.push((swap, drifted.collect()));
                self.drifted.len() - 1
            }
        };
        &self.drifted[k].1
    }
}

/// The serving report of a [`run`] (or a served fleet).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// Homes served.
    pub homes: usize,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Per-home statistics, in home order.
    pub per_home: Vec<HomeStats>,
    /// Raw DES events processed across all shards: one per wake
    /// scheduled and served, whatever the window width. Jobs-invariant.
    pub des_events: u64,
    /// Per-home serving taps, in home order. `None` unless the run set
    /// [`RunSpec::record`]; when present, the streams are bit-identical
    /// at any worker count, batch or served.
    pub events: Option<Vec<Vec<TapEvent>>>,
}

impl ScaleReport {
    /// Fleet-wide totals.
    #[must_use]
    pub fn totals(&self) -> HomeStats {
        self.totals_checked().0
    }

    /// Fleet-wide totals plus the number of fields that saturated while
    /// summing. A non-zero count means some totals are `u64::MAX` lower
    /// bounds, not exact values.
    #[must_use]
    pub fn totals_checked(&self) -> (HomeStats, u64) {
        let mut t = HomeStats::default();
        let mut clamped = 0u64;
        for h in &self.per_home {
            clamped += t.absorb(h);
        }
        (t, clamped)
    }

    /// Total 100 ms pipeline ticks executed.
    #[must_use]
    pub fn pipeline_ticks(&self) -> u64 {
        self.per_home.iter().fold(0u64, |t, h| t.saturating_add(h.pipeline_ticks))
    }

    /// Deterministic summary: no wall-clock, no worker count — byte-
    /// identical for equal configurations at any `jobs`.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let (t, clamped) = self.totals_checked();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "metro-scale serve: {homes} homes x {secs} s (wheel engine)",
            homes = self.homes,
            secs = self.horizon.as_millis() / 1000,
        );
        let _ = writeln!(
            out,
            "  episodes: {started} started, {completed} completed",
            started = t.episodes_started,
            completed = t.episodes_completed,
        );
        let _ = writeln!(
            out,
            "  reminders: {rem} issued, {praise} praises",
            rem = t.reminders,
            praise = t.praises,
        );
        let _ = writeln!(
            out,
            "  sessions: {s} started, {c} completed, {a} abandoned, {x} cross-activity flags",
            s = t.sessions_started,
            c = t.sessions_completed,
            a = t.sessions_abandoned,
            x = t.cross_activity_flags,
        );
        let _ = writeln!(
            out,
            "  pipeline ticks: {ticks} ({des} des events)",
            ticks = t.pipeline_ticks,
            des = self.des_events,
        );
        let _ = writeln!(out, "  node energy: {:.3} mJ", t.energy_uj / 1000.0);
        if clamped > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {clamped} total(s) saturated at u64::MAX; counts above are lower bounds",
            );
        }
        out
    }
}

/// An episode in flight in one home.
#[derive(Debug)]
struct RunningEpisode {
    /// Index into the home's systems (which activity).
    act: usize,
    ep: LiveEpisode,
    /// The episode's own counter-derived random stream.
    rng: SimRng,
}

/// The resident label shared by every home. Every profile is
/// statistically identical and the name is display-only (it reaches
/// reminder texts, which scale serving never renders — only per-episode
/// logs do, and metro runs collect none), so one interned label replaces
/// the per-home `format!("home-{id}")` the boxed layout allocated.
const RESIDENT: &str = "resident";

/// Everything immutable a fleet shares, built once per run: the system
/// config, ADL specs, canonical routines, trained planner templates
/// (each with its learned state captured once, which every snapshot of
/// a home still on the template shares), the reminding renderer, and the
/// sensing and session-tracker prototypes (whose tables are
/// `Arc`-shared, so cloning them per home is reference bumps). Worker
/// shards borrow it read-only.
struct FleetCtx {
    system: Arc<CoredaConfig>,
    specs: Vec<Arc<AdlSpec>>,
    routines: Vec<Routine>,
    templates: Vec<PlannerTemplate>,
    reminding: Arc<RemindingSubsystem>,
    sensing: Vec<SensingSubsystem>,
    tracker_proto: SessionTracker,
}

impl FleetCtx {
    /// Builds the shared context: specs from the catalog, one trained
    /// planner template per activity (building 10k homes must not cost
    /// 10k trainings — nor, now, 10k Q-table clones).
    fn build(cfg: &MetroConfig) -> Self {
        let specs = vec![catalog::tea_making(), catalog::tooth_brushing()];
        let tracker_proto = SessionTracker::new(&specs, cfg.idle_close);
        let routines: Vec<Routine> = specs.iter().map(Routine::canonical).collect();
        let templates = specs
            .iter()
            .enumerate()
            .map(|(act, spec)| {
                let mut planner = PlanningSubsystem::new(spec, cfg.system.planning);
                let mut rng = SimRng::seed_from(derive_seed(cfg.seed, "metro-train", act as u64));
                for _ in 0..cfg.train_episodes {
                    planner.train_episode(routines[act].steps(), &mut rng);
                }
                PlannerTemplate::new(planner)
            })
            .collect();
        FleetCtx {
            system: Arc::new(cfg.system),
            sensing: specs.iter().map(SensingSubsystem::new).collect(),
            specs: specs.into_iter().map(Arc::new).collect(),
            routines,
            templates,
            reminding: Arc::new(RemindingSubsystem::new(RESIDENT)),
            tracker_proto,
        }
    }

    /// Checks that a snapshot fits a fleet of `homes` homes before any
    /// home is restored: one system per activity, each with the spec's
    /// node count, node state the restore accepts (see [`check_nodes`])
    /// and a learned table the planner template can take (see
    /// [`check_traces`]), every activity index in range, an in-flight
    /// episode's step inside its routine and its misused tool among the
    /// activity's tools, and recorder state a traced
    /// resume can take (see [`check_recorder`]). The codec checks bytes,
    /// not shape; a CRC-valid crafted snapshot fails here instead of
    /// mid-restore or on the home's first tick.
    fn check_shape(&self, homes: usize, ckpt: &MetroCheckpoint) -> Result<(), CheckpointError> {
        fits(ckpt.homes.len(), homes)?;
        let acts = self.specs.len();
        // Per activity: the node count, the learned-table size the
        // template restores (`None` for a learner that cannot restore),
        // and the planner's problem shape.
        let shapes: Vec<_> = (self.specs.iter().zip(&self.templates))
            .map(|(spec, t)| {
                let cells = t.learned().map(|l| l.values.len());
                (spec.tools().len(), cells, t.planner().encoder().shape())
            })
            .collect();
        for home in &ckpt.homes {
            fits(home.systems.len(), acts)?;
            let systems = home.systems.iter().zip(&self.specs);
            for ((state, spec), &(nodes, cells, shape)) in systems.zip(&shapes) {
                fits(state.nodes.len(), nodes)?;
                check_nodes(state, spec)?;
                if let Some(learned) = &state.learned {
                    let cells = cells.ok_or_else(|| shape_mismatch(learned.values.len(), 0))?;
                    fits(learned.values.len(), cells)?;
                    fits(learned.visits.len(), cells)?;
                    check_traces(learned, shape)?;
                }
            }
            let running = home.episode.as_ref().map(|&(act, ..)| act);
            let session = home.tracker.iter().flat_map(|t| {
                std::iter::once(t.activity_idx).chain(t.foreign_run.map(|(who, _)| who))
            });
            if let Some(act) = running.into_iter().chain(session).find(|&act| act >= acts) {
                return Err(shape_mismatch(act, acts));
            }
            // The episode's step: the one being performed, or the one a
            // misusing or frozen patient resumes at.
            let step = home.episode.as_ref().and_then(|(act, ep, _)| match ep.phase {
                Phase::Performing { idx, .. }
                | Phase::Misusing { resume_idx: idx, .. }
                | Phase::Frozen { resume_idx: idx, .. } => Some((idx, self.routines[*act].len())),
                Phase::Done => None,
            });
            if let Some((idx, steps)) = step.filter(|&(idx, steps)| idx >= steps) {
                return Err(shape_mismatch(idx, steps));
            }
            if let Some(&(act, LiveEpisode { phase: Phase::Misusing { tool, .. }, .. }, _)) =
                home.episode.as_ref()
            {
                if !self.specs[act].tools().iter().any(|t| t.id() == tool) {
                    let activity = u32::try_from(act).expect("checked against the catalog");
                    return Err(CheckpointError::ForeignTool { tool, activity });
                }
            }
            if let Some(rec) = &home.rec {
                check_recorder(rec)?;
            }
        }
        Ok(())
    }
}

/// Checks the flight-recorder state a traced restore asserts on: at most
/// [`Ctr::COUNT`] counters (a shorter list restores zero-filled), one
/// histogram per [`Stage`] with [`Stage::bins`] bins each, and no more
/// ring records than the ring every fleet recorder is built with holds
/// ([`DEFAULT_RING_CAP`]). Each is reported as the stored length against
/// its bound.
fn check_recorder(rec: &RecorderState) -> Result<(), CheckpointError> {
    if rec.counters.len() > Ctr::COUNT {
        return Err(shape_mismatch(rec.counters.len(), Ctr::COUNT));
    }
    fits(rec.stages.len(), Stage::COUNT)?;
    for ((bins, ..), stage) in rec.stages.iter().zip(Stage::ALL) {
        fits(bins.len(), stage.bins().2)?;
    }
    if rec.ring.len() > DEFAULT_RING_CAP {
        return Err(shape_mismatch(rec.ring.len(), DEFAULT_RING_CAP));
    }
    Ok(())
}

/// Checks the eligibility traces a restore hands to the learner: each
/// trace's state and action must index the planner's table (the id
/// against the state or action count), and its weight must be finite and
/// non-negative (the trace's position against the trace count).
fn check_traces(learned: &LearnedState, shape: ProblemShape) -> Result<(), CheckpointError> {
    for (at, &(s, a, e)) in learned.traces.iter().enumerate() {
        if !shape.contains_state(s) {
            return Err(shape_mismatch(s.index(), shape.states()));
        }
        if !shape.contains_action(a) {
            return Err(shape_mismatch(a.index(), shape.actions()));
        }
        if !(0.0..f64::INFINITY).contains(&e) {
            return Err(shape_mismatch(at, learned.traces.len()));
        }
    }
    Ok(())
}

/// Checks the node state a restore asserts on. A buffered detector window
/// of `n` votes must be shorter than a full window (`n` against
/// [`SAMPLES_PER_WINDOW`]). Flip rates must be probabilities and the
/// energy total non-negative (the node's position against the node
/// count). Every radio channel must belong to one of `spec`'s tools (its
/// node id against the node count).
fn check_nodes(state: &SystemState, spec: &AdlSpec) -> Result<(), CheckpointError> {
    let nodes = state.nodes.len();
    for (at, (node, ..)) in state.nodes.iter().enumerate() {
        let window = node.detector_window.len();
        if window >= SAMPLES_PER_WINDOW {
            return Err(shape_mismatch(window, SAMPLES_PER_WINDOW));
        }
        let rates = [node.flip_false_positive, node.flip_false_negative];
        let in_range = rates.iter().all(|r| (0.0..=1.0).contains(r))
            && (0.0..f64::INFINITY).contains(&node.energy_uj);
        if !in_range {
            return Err(shape_mismatch(at, nodes));
        }
    }
    let known = |id: NodeId| spec.tools().iter().any(|t| t.id().raw() == id.raw());
    match state.channels.iter().find(|&&(id, ..)| !known(id)) {
        Some(&(id, ..)) => Err(shape_mismatch(usize::from(id.raw()), nodes)),
        None => Ok(()),
    }
}

/// Hot per-home scheduling state — one `Copy` record per home, packed
/// contiguously so the wake loop touches a single cache line per idle
/// home instead of chasing a `Home` box.
#[derive(Debug, Clone, Copy)]
struct SchedState {
    ep_index: u64,
    next_start: SimTime,
    /// Coalesces duplicate same-instant wakes.
    last_handled: Option<SimTime>,
    /// Per-home 100 ms grid offset, spreading homes across wheel slots.
    offset_ms: u64,
}

/// Hot per-home lanes: everything the wake loop reads or writes on
/// *every* wake — the scheduling record and the statistics counters —
/// packed into one `Copy` row so a wake touches one contiguous record
/// (and one TLB page stream) instead of two parallel arrays. Cold state
/// stays out of line: sensor EEPROMs allocate on first write inside the
/// `Coreda` arena, session history lives in the trackers, and the
/// planner/renderer tables are `Arc`-shared — none of it is touched
/// unless the wake actually does work.
#[derive(Debug, Clone, Copy)]
struct HomeLanes {
    sched: SchedState,
    stats: HomeStats,
}

/// Best-effort prefetch of the cache line holding `*p` into L1. The
/// epoch sweep serves homes in ascending arena order and knows the next
/// due home before finishing the current one, so issuing these a chain
/// ahead hides the DRAM latency of a 100k-home working set that no
/// cache level covers. A no-op on architectures without a hint.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a pure performance hint; any address is safe.
    unsafe {
        std::arch::x86_64::_mm_prefetch(p.cast::<i8>(), std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: prfm is a pure performance hint; any address is safe.
    unsafe {
        std::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// The smallest instant on a home's 100 ms grid at or after `t`.
fn align_up(offset_ms: u64, t: SimTime) -> SimTime {
    let ms = t.as_millis();
    let rel = ms.saturating_sub(offset_ms);
    let steps = rel.div_ceil(Coreda::TICK.as_millis());
    SimTime::from_millis(offset_ms + steps * Coreda::TICK.as_millis())
}

/// One wake of one home (index local to the shard).
#[derive(Debug, Clone, Copy)]
struct Wake(usize);

fn draw_gap(rng: &mut SimRng, gap_min_ms: u64, gap_max_ms: u64) -> SimDuration {
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let ms = rng.uniform_range(gap_min_ms as f64, gap_max_ms as f64) as u64;
    SimDuration::from_millis(ms)
}

/// The flight-recorder fold: one recorder per home, and the session
/// events the serving wake raised so far. The ring records those when
/// the tick (or, outside a tick, the wake) ends, after the records of
/// what the tick itself did.
struct Recorders {
    homes: Vec<HomeRecorder>,
    held: Vec<SessionEvent>,
}

/// What a home's sink folds beyond its counts: nothing (`()`), or its
/// taps and flight recorder ([`Observed`]). A run that keeps neither
/// serves every wake with `()`, so its pipeline carries no observer code.
trait Observer {
    /// Folds one of the wake's events.
    fn observe(&mut self, at: SimTime, ev: &WakeEvent);
    /// Hands on what the observer holds back: at each tick's end, and
    /// at the wake's.
    fn flush(&mut self, at: SimTime);
}

impl Observer for () {
    fn observe(&mut self, _: SimTime, _: &WakeEvent) {}
    fn flush(&mut self, _: SimTime) {}
}

/// A home's taps and flight recorder, when the run keeps either.
struct Observed<'s> {
    taps: Option<&'s mut Vec<TapEvent>>,
    rec: Option<(&'s mut HomeRecorder, &'s mut Vec<SessionEvent>)>,
}

impl Observer for Observed<'_> {
    fn observe(&mut self, at: SimTime, ev: &WakeEvent) {
        if let Some(taps) = self.taps.as_deref_mut() {
            taps.extend(TapEvent::of(at, ev));
        }
        match (&mut self.rec, ev) {
            (Some((_, held)), WakeEvent::Session(session)) => held.push(*session),
            (Some((rec, _)), _) => rec.fold(at, ev),
            (None, _) => {}
        }
        if let WakeEvent::Tick(_) = ev {
            self.flush(at);
        }
    }

    /// Hands the held session events to the ring.
    fn flush(&mut self, at: SimTime) {
        if let Some((rec, held)) = self.rec.as_mut() {
            for session in held.drain(..) {
                rec.fold(at, &WakeEvent::Session(session));
            }
        }
    }
}

/// Home `i`'s folds over one wake's event stream: the wake's write-ahead
/// record, its session tracker (which every accepted report drives) and
/// its observer.
struct HomeSink<'s, O> {
    tracker: &'s mut SessionTracker,
    record: WalRecord,
    observer: O,
}

impl<O: Observer> WakeSink for HomeSink<'_, O> {
    // Inlined where the event is built, so the counts fold to the few
    // adds its kind needs.
    #[inline(always)]
    fn emit(&mut self, at: SimTime, ev: WakeEvent) {
        self.record.fold(&ev);
        self.observer.observe(at, &ev);
        if let WakeEvent::ReportAccepted(node) = ev {
            for session in self.tracker.on_report(node, at) {
                let ev = WakeEvent::Session(session);
                self.record.fold(&ev);
                self.observer.observe(at, &ev);
            }
        }
    }
}

/// Per-shard escalation overlay: one [`CareMonitor`] per home folding
/// the derived WAL records, plus the shard's share of the fleet
/// analytics reduction. Lives beside — never inside — the home arenas,
/// because care is an observation-only layer: it reads the derived
/// records and writes nothing back into the simulation.
struct CareState {
    policy: CarePolicy,
    /// Monitors indexed by shard-local home id.
    monitors: Vec<CareMonitor>,
    analytics: FleetAnalytics,
    /// Per-home events already drained into `Escalate` frames
    /// ([`ServeSession::drain_care`]).
    cursors: Vec<usize>,
    /// Guards [`Shard::finish_care`]: the served path finishes care
    /// explicitly (to deliver trailing events) before the shard fold
    /// runs it again.
    finished: bool,
}

/// One worker's contiguous slice of the fleet, struct-of-arrays: parallel
/// vectors indexed by shard-local home index, the per-activity [`Coreda`]
/// systems in one home-major arena (`systems[home * acts + act]`).
/// Same-phase work sweeps these arrays in index order, and the borrow
/// checker splits mutable access field-by-field — no per-home box ever
/// holds unrelated state hostage.
///
/// State that is identical across homes is hoisted to one instance per
/// shard: the stochastic behaviour (profile + pure scratch) and the
/// session-event buffer serve every home in turn.
struct Shard<'a> {
    ctx: &'a FleetCtx,
    /// Fleet-global id of the shard's first home (write-ahead log
    /// records carry global ids).
    first_home: usize,
    /// Activities per home — the arena row width.
    acts: usize,
    systems: Vec<Coreda>,
    trackers: Vec<SessionTracker>,
    /// Root of each home's episode substreams.
    roots: Vec<SimRng>,
    /// Gap/start draws.
    sched_rngs: Vec<SimRng>,
    episodes: Vec<Option<RunningEpisode>>,
    /// Hot lanes: per-home scheduling + statistics, one row per home.
    hot: Vec<HomeLanes>,
    /// Serving taps: outer `Some` when the run records event streams.
    taps: Option<Vec<Vec<TapEvent>>>,
    /// Flight recorders: `Some` when the run collects telemetry.
    recs: Option<Recorders>,
    /// Write-ahead event log: `Some` when the run appends one record per
    /// observable-transition wake (quiet wakes append nothing).
    wal: Option<Vec<WalRecord>>,
    /// Caregiver escalation overlay: `Some` when the run watches the
    /// derived records for escalation triggers.
    care: Option<CareState>,
    /// One behaviour serves the whole shard: it holds only the shared
    /// profile, call-local scratch and the fault overlay's patient flags
    /// (set before every wake of a faulted run), never per-home state.
    behavior: FaultyBehavior<StochasticBehavior>,
    /// The pipeline tick's buffers, lent to whichever home ticks.
    scratch_tick: TickScratch,
    gap_min_ms: u64,
    gap_max_ms: u64,
}

impl<'a> Shard<'a> {
    #[allow(clippy::too_many_arguments)]
    fn build(
        cfg: &MetroConfig,
        ctx: &'a FleetCtx,
        first_home: usize,
        count: usize,
        record: bool,
        trace: bool,
        log: bool,
        care: Option<&CarePolicy>,
    ) -> Self {
        let acts = ctx.specs.len();
        let mut systems = Vec::with_capacity(count * acts);
        let mut roots = Vec::with_capacity(count);
        let mut sched_rngs = Vec::with_capacity(count);
        let mut hot = Vec::with_capacity(count);
        for id in first_home..first_home + count {
            let shared = ctx.specs.iter().zip(&ctx.templates).zip(&ctx.sensing);
            for (act, ((spec, template), sensing)) in shared.enumerate() {
                let seed = derive_seed(cfg.seed, "metro-system", (id as u64) * 16 + act as u64);
                systems.push(Coreda::with_shared(
                    Arc::clone(spec),
                    Arc::clone(template.planner()),
                    Arc::clone(&ctx.reminding),
                    sensing.clone(),
                    Arc::clone(&ctx.system),
                    seed,
                ));
            }
            let root = SimRng::seed_from(derive_seed(cfg.seed, "metro-home", id as u64));
            let mut sched_rng = root.substream("sched", 0);
            let offset_ms = (id as u64 * 7 + 3) % 100;
            let first = draw_gap(&mut sched_rng, cfg.gap_min.as_millis(), cfg.gap_max.as_millis());
            hot.push(HomeLanes {
                sched: SchedState {
                    ep_index: 0,
                    next_start: align_up(offset_ms, SimTime::ZERO + first),
                    last_handled: None,
                    offset_ms,
                },
                stats: HomeStats::default(),
            });
            roots.push(root);
            sched_rngs.push(sched_rng);
        }
        Shard {
            ctx,
            first_home,
            acts,
            systems,
            trackers: (0..count).map(|_| ctx.tracker_proto.clone()).collect(),
            roots,
            sched_rngs,
            episodes: (0..count).map(|_| None).collect(),
            hot,
            taps: record.then(|| (0..count).map(|_| Vec::new()).collect()),
            recs: trace.then(|| Recorders {
                homes: (0..count).map(|_| HomeRecorder::new()).collect(),
                held: Vec::new(),
            }),
            wal: log.then(Vec::new),
            care: care.map(|policy| CareState {
                policy: policy.clone(),
                monitors: (first_home..first_home + count)
                    .map(|id| CareMonitor::new(u32::try_from(id).expect("fleets fit in u32")))
                    .collect(),
                analytics: FleetAnalytics::new(),
                cursors: vec![0; count],
                finished: false,
            }),
            behavior: FaultyBehavior::new(StochasticBehavior::new(PatientProfile::moderate(
                RESIDENT,
            ))),
            scratch_tick: TickScratch::default(),
            gap_min_ms: cfg.gap_min.as_millis(),
            gap_max_ms: cfg.gap_max.as_millis(),
        }
    }

    fn len(&self) -> usize {
        self.hot.len()
    }

    /// Serves home `i`'s wake at `now`, performing `routines` (one per
    /// activity) — see [`Shard::wake`] — with the taps and recorder the
    /// run keeps, if any. A wake that did something observable then hands
    /// its write-ahead record to the care monitor and the log, and quiet
    /// wakes append nothing, which keeps the log O(activity) and
    /// independent of how often a home is polled.
    fn poll_wake(&mut self, i: usize, now: SimTime, routines: &[Routine]) {
        let (mut taps, mut recs) = (self.taps.take(), self.recs.take());
        let record = if taps.is_none() && recs.is_none() {
            self.wake(i, now, routines, ())
        } else {
            let observed = Observed {
                taps: taps.as_mut().map(|taps| &mut taps[i]),
                rec: recs.as_mut().map(|recs| (&mut recs.homes[i], &mut recs.held)),
            };
            self.wake(i, now, routines, observed)
        };
        (self.taps, self.recs) = (taps, recs);
        if record.is_trivial() {
            return;
        }
        self.hot[i].stats.add_wake(&record);
        if let Some(care) = self.care.as_mut() {
            // The monitor is a pure fold over the wake records — the
            // same stream the log stores — so the escalation log
            // inherits the WAL's jobs/served invariances.
            let monitor = &mut care.monitors[i];
            let seen = monitor.events().len();
            monitor.observe(&care.policy, &record, &mut care.analytics);
            if let Some(recs) = self.recs.as_mut() {
                for ev in &monitor.events()[seen..] {
                    recs.homes[i].fold(now, &WakeEvent::Escalation(ev.kind));
                }
            }
        }
        if let Some(wal) = self.wal.as_mut() {
            wal.push(record);
        }
    }

    /// Home `i`'s wake at `now`: the next episode begins when its start
    /// arrives, the running episode runs its 100 ms pipeline tick, and
    /// the session tracker closes a silent session. Each step emits into
    /// the home's [`HomeSink`]; returns the wake's write-ahead record. A
    /// quiet instant changes nothing and draws no randomness, so waking
    /// a home only where something can change (the event-driven wakes)
    /// equals waking it at every instant of its 100 ms grid.
    fn wake<O: Observer>(
        &mut self,
        i: usize,
        now: SimTime,
        routines: &[Routine],
        observer: O,
    ) -> WalRecord {
        let HomeLanes { sched, stats } = &mut self.hot[i];
        let home = u32::try_from(self.first_home + i).expect("fleets fit in u32");
        let record = WalRecord::quiet(now, home);
        let mut sink = HomeSink { tracker: &mut self.trackers[i], record, observer };

        // 1. Begin the next episode when its start arrives.
        if self.episodes[i].is_none() && now >= sched.next_start {
            let episode = sched.ep_index;
            let act = usize::try_from(episode).unwrap_or(usize::MAX) % self.acts;
            sink.emit(now, WakeEvent::EpisodeStarted { act, episode });
            let mut rng = self.roots[i].substream("episode", episode);
            let system = &mut self.systems[i * self.acts + act];
            let ep =
                system.begin_live(&routines[act], &mut self.behavior, now, &mut rng, &mut sink);
            self.episodes[i] = Some(RunningEpisode { act, ep, rng });
        }

        // 2. Run the running episode's 100 ms pipeline tick; once it
        //    finishes, draw the quiet gap and schedule the next.
        if let Some(run) = self.episodes[i].as_mut().filter(|run| now >= run.ep.next_tick_at()) {
            let system = &mut self.systems[i * self.acts + run.act];
            let out = system.live_tick(
                &mut run.ep,
                &routines[run.act],
                &mut self.behavior,
                now,
                &mut run.rng,
                &mut self.scratch_tick,
                &mut sink,
            );
            stats.pipeline_ticks += 1;
            if out.finished {
                sink.emit(now, WakeEvent::EpisodeEnded { completed: out.completed_now });
                self.episodes[i] = None;
                let gap = draw_gap(&mut self.sched_rngs[i], self.gap_min_ms, self.gap_max_ms);
                sched.ep_index += 1;
                sched.next_start = align_up(sched.offset_ms, now + gap);
            }
        }

        // 3. Home-wide idle close (the tracker's clock tick).
        if let Some(ev) = sink.tracker.on_tick(now) {
            sink.emit(now, WakeEvent::Session(ev));
        }
        sink.observer.flush(now);
        sink.record
    }

    /// Moves home `i` from fault state `was` to `want`: link, node and
    /// patient faults, each through its setter and only where it changed
    /// (swapping the link restarts the radio channels, and a crash wipes
    /// the detector window). The patient flags are shard-wide, so they
    /// are set outright.
    fn apply_faults(&mut self, i: usize, was: &FaultState, want: &FaultState) {
        let systems = &mut self.systems[i * self.acts..(i + 1) * self.acts];
        if want.link != was.link {
            let link = want.link.unwrap_or(self.ctx.system.link);
            for system in systems.iter_mut() {
                system.set_link(link);
            }
        }
        let healed = was.nodes.iter().filter(|&&(tool, _)| !want.nodes.iter().any(|n| n.0 == tool));
        for &(tool, _) in want.nodes.iter().chain(healed) {
            let (old, new) = (was.node(tool), want.node(tool));
            for system in systems.iter_mut() {
                if new.failed != old.failed {
                    system.set_node_failed(tool, new.failed);
                }
                let flips = |n: NodeFaults| (n.false_positive, n.false_negative);
                if flips(new) != flips(old) {
                    system.set_sensor_flip(tool, new.false_positive, new.false_negative);
                }
                if new.skew_ms != old.skew_ms {
                    system.set_clock_skew(tool, new.skew_ms);
                }
            }
        }
        self.behavior.non_compliant = want.non_compliant;
        self.behavior.lapsing = want.lapsing;
    }

    /// Snapshots everything home `i` cannot rebuild from its config:
    /// system states, live session, RNG positions, the in-flight episode,
    /// scheduling state, statistics, and (when traced) the recorder.
    /// `pending` is the home's share of the shard queue at the snapshot.
    ///
    /// A system still serving on its activity's planner template shares
    /// the template's one learned-state capture; only a home that split
    /// off its own planner (online learning) copies its table.
    ///
    /// Energy is *not* carried in the stats (it stays zero until
    /// [`ServeSession::finish`] recomputes it from the restored node meters),
    /// and taps are not checkpointed — a resumed recorded run taps only
    /// the resumed segment.
    fn capture_home(&self, i: usize, pending: Vec<SimTime>) -> HomeCheckpoint {
        let s = self.hot[i].sched;
        HomeCheckpoint {
            systems: self.systems[i * self.acts..(i + 1) * self.acts]
                .iter()
                .zip(&self.ctx.templates)
                .map(|(system, template)| system.export_state(Some(template)))
                .collect(),
            tracker: self.trackers[i].export_active(),
            root: self.roots[i].state_parts(),
            sched: self.sched_rngs[i].state_parts(),
            episode: self.episodes[i].as_ref().map(|run| (run.act, run.ep, run.rng.state_parts())),
            ep_index: s.ep_index,
            next_start: s.next_start,
            last_handled: s.last_handled,
            stats: HomeStats { energy_uj: 0.0, ..self.hot[i].stats },
            pending,
            rec: self.recs.as_ref().map(|r| r.homes[i].export_state()),
        }
    }

    /// Overwrites freshly built home `i` with checkpointed state, whose
    /// shape [`FleetCtx::check_shape`] has already vetted. The
    /// build-time gap draw is discarded wholesale: the restored
    /// `sched_rng` position already accounts for every draw the original
    /// run made. The caller re-schedules `ckpt.pending` itself.
    ///
    /// `restore_state` on a system whose captured learned weights match
    /// the shared template (always, for a read-only serve) keeps the home
    /// on the template `Arc` — a resumed fleet stays as deduplicated as a
    /// fresh one.
    ///
    /// Under a fault schedule the snapshot already holds the node faults
    /// in force at its `last_handled`, but not the link configuration:
    /// that one is re-applied first, because swapping it restarts the
    /// channels the snapshot then restores.
    fn restore_home(
        &mut self,
        i: usize,
        ckpt: &HomeCheckpoint,
        faults: Option<&dyn FaultSchedule>,
    ) {
        assert_eq!(
            self.acts,
            ckpt.systems.len(),
            "checkpoint was taken with a different activity set"
        );
        let link = faults.zip(ckpt.last_handled).and_then(|(f, at)| f.at(at).link);
        for (system, state) in
            self.systems[i * self.acts..(i + 1) * self.acts].iter_mut().zip(&ckpt.systems)
        {
            if let Some(link) = link {
                system.set_link(link);
            }
            system
                .restore_state(state)
                .expect("check_shape vetted the state, so the rebuilt system accepts it");
        }
        self.trackers[i].restore_active(ckpt.tracker);
        self.roots[i] = SimRng::from_state_parts(ckpt.root.0, ckpt.root.1);
        self.sched_rngs[i] = SimRng::from_state_parts(ckpt.sched.0, ckpt.sched.1);
        self.episodes[i] = ckpt.episode.map(|(act, ep, rng)| RunningEpisode {
            act,
            ep,
            rng: SimRng::from_state_parts(rng.0, rng.1),
        });
        let offset_ms = self.hot[i].sched.offset_ms;
        self.hot[i].sched = SchedState {
            ep_index: ckpt.ep_index,
            next_start: ckpt.next_start,
            last_handled: ckpt.last_handled,
            offset_ms,
        };
        self.hot[i].stats = HomeStats { energy_uj: 0.0, ..ckpt.stats };
        // Counters merge across the snapshot boundary: a resumed traced
        // run's summary covers the whole run, not just the tail. An
        // untraced checkpoint resumed with tracing on simply starts a
        // fresh recorder covering the resumed segment.
        if let (Some(recs), Some(state)) = (self.recs.as_mut(), ckpt.rec.as_ref()) {
            recs.homes[i].restore_state(state);
        }
    }

    /// Snapshots the shard at the current instant without perturbing it:
    /// walks the queue's pending wakes in dispatch order through
    /// [`Simulator::iter_pending`] — a read-only view, so frequent delta
    /// checkpoints never pay the old drain-and-reschedule round trip —
    /// and captures each home with its share of the queue.
    fn capture(&self, sim: &Simulator<Wake>) -> (u64, Vec<HomeCheckpoint>) {
        let mut per_home: Vec<Vec<SimTime>> = vec![Vec::new(); self.len()];
        for (due, &Wake(i)) in sim.iter_pending() {
            per_home[i].push(due);
        }
        let snaps = (0..self.len())
            .map(|i| self.capture_home(i, std::mem::take(&mut per_home[i])))
            .collect();
        (sim.processed(), snaps)
    }

    /// Ends each home's care fold at `horizon` (caregiver actions due by
    /// then happen; the home samples its compliance into the analytics),
    /// and each recorder folds whatever the drain emitted. Idempotent.
    fn finish_care(&mut self, horizon: SimTime) {
        let Some(care) = self.care.as_mut() else { return };
        if care.finished {
            return;
        }
        care.finished = true;
        for (i, monitor) in care.monitors.iter_mut().enumerate() {
            let seen = monitor.events().len();
            monitor.finish(&care.policy, horizon, &mut care.analytics);
            if let Some(recs) = self.recs.as_mut() {
                let rec = &mut recs.homes[i];
                for ev in &monitor.events()[seen..] {
                    rec.fold(horizon, &WakeEvent::Escalation(ev.kind));
                }
                rec.add(Ctr::CareTrendWindows, monitor.trend_windows());
            }
        }
    }
}

/// What a batch [`run`] observes, where it snapshots, and where it
/// starts. The default is a plain fresh run to the horizon that
/// observes nothing beyond its [`ScaleReport`]. Every tap is
/// observation-only: the report is bit-identical whatever is switched
/// on.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSpec<'a> {
    /// Record per-home serving taps into [`ScaleReport::events`].
    pub record: bool,
    /// Run the flight recorder: every home collects pipeline counters,
    /// stage-latency histograms and a bounded ring of trace events,
    /// merged into [`RunOutput::telemetry`] in home order.
    pub trace: bool,
    /// Derive the write-ahead event log into [`RunOutput::wal`]: one
    /// [`WalRecord`] per observable-transition wake, fleet-ordered by
    /// `(at, home)`.
    pub log: bool,
    /// Run the caregiver escalation overlay under this policy: every
    /// home's derived transition stream feeds a [`CareMonitor`], and
    /// [`RunOutput::care`] carries the fleet-ordered escalation log plus
    /// the fleet analytics rollup.
    pub care: Option<&'a CarePolicy>,
    /// Snapshot the whole fleet at each of these instants (sorted
    /// ascending, within the horizon) into [`RunOutput::checkpoints`].
    /// Capture reads the queue without draining it, so the run itself
    /// is unperturbed.
    pub stops: &'a [SimTime],
    /// Continue from this fleet snapshot instead of starting fresh. The
    /// resumed result — statistics, energy, DES event count, telemetry
    /// when the snapshot was traced — is bit-identical to a run that
    /// never stopped, at any checkpoint instant and any `cfg.jobs`.
    pub resume: Option<&'a MetroCheckpoint>,
    /// Serve every home under these fault windows (the fault overlay).
    /// Unlike the taps this changes what the fleet does. A run resumed
    /// from a snapshot of a faulted run must pass the same schedule.
    pub faults: Option<&'a dyn FaultSchedule>,
}

/// Everything one [`run`] produced.
#[derive(Debug)]
pub struct RunOutput {
    /// The serving report, identical whatever [`RunSpec`] observed.
    pub report: ScaleReport,
    /// Per-home flight recorders, merged in home order; empty unless
    /// [`RunSpec::trace`]. After a resume from a traced snapshot the
    /// counters and trace rings cover the whole run, not just the tail.
    pub telemetry: Telemetry,
    /// Deepest any shard's event queue ever got. Jobs-*dependent*
    /// (sharding changes how many homes share a queue), so it lives
    /// outside [`Telemetry`] and is never part of determinism
    /// comparisons.
    pub peak_pending: usize,
    /// One fleet snapshot per [`RunSpec::stops`] instant, in order.
    pub checkpoints: Vec<MetroCheckpoint>,
    /// The write-ahead event log; empty unless [`RunSpec::log`].
    pub wal: Vec<WalRecord>,
    /// The escalation log and fleet analytics, when [`RunSpec::care`]
    /// ran the overlay.
    pub care: Option<CareOutput>,
}

impl RunOutput {
    /// Splits a run with the log on into its report and its durable
    /// artifacts: the first checkpoint becomes the base, every later one
    /// a delta diffed against its predecessor.
    ///
    /// # Panics
    ///
    /// Panics if the run took no checkpoint (a durable run needs a base).
    #[must_use]
    pub fn into_durable(self) -> (ScaleReport, DurableRun) {
        let deltas = self.checkpoints.windows(2).map(|w| delta_checkpoint(&w[0], &w[1])).collect();
        let base = self.checkpoints.into_iter().next();
        let base = base.expect("a durable run needs at least one checkpoint stop");
        (self.report, DurableRun { base, deltas, wal: self.wal })
    }
}

/// The merged output of a fleet's finished sessions ([`collect_served`]):
/// the report plus the flight-recorder telemetry collected alongside it.
#[derive(Debug)]
pub struct TraceOutput {
    /// The serving report.
    pub report: ScaleReport,
    /// Per-home flight recorders, merged deterministically in home order.
    pub telemetry: Telemetry,
    /// Deepest any shard's event queue ever got (jobs-dependent).
    pub peak_pending: usize,
}

/// Serves `cfg.homes` households for `cfg.horizon`, sharded across
/// `cfg.jobs` workers, observing what `spec` asks for: one
/// [`ServeSession`] per [`ServeCtx::chunks`] shard, driven to each stop
/// (snapshotting there) and to the horizon, then merged through
/// [`collect_served`]. Results are bit-identical at any worker count.
///
/// # Errors
///
/// Only a resume can fail: [`CheckpointError::ConfigMismatch`] when the
/// snapshot's [`config_digest`] does not match `cfg` (a resume may
/// change only `jobs` and `horizon`), and
/// [`CheckpointError::ShapeMismatch`] for a snapshot that does not fit
/// the fleet.
///
/// # Panics
///
/// Panics if `spec.stops` is not sorted ascending or reaches past the
/// horizon. The CLI validates user input before calling; hitting this
/// from code is a bug.
pub fn run(cfg: &MetroConfig, spec: &RunSpec<'_>) -> Result<RunOutput, CheckpointError> {
    let RunSpec { record, trace, log, care, stops, resume, faults } = *spec;
    let horizon_end = SimTime::ZERO + cfg.horizon;
    assert!(
        stops.windows(2).all(|w| w[0] <= w[1]),
        "checkpoint stops must be sorted ascending"
    );
    assert!(
        stops.iter().all(|&s| s <= horizon_end),
        "checkpoint stops must lie within the horizon"
    );
    let ctx = ServeCtx::build(cfg.clone(), care.cloned());
    let mut base_des = 0u64;
    if let Some(ckpt) = resume {
        if ckpt.digest != ctx.digest {
            return Err(CheckpointError::ConfigMismatch {
                expected: ckpt.digest,
                actual: ctx.digest,
            });
        }
        ctx.ctx.check_shape(cfg.homes, ckpt)?;
        base_des = ckpt.des_events;
    }

    let engine = FleetEngine::new(cfg.jobs);
    let runs = engine.map(ctx.chunks(), |(first, count)| {
        let slice = resume.map(|ckpt| &ckpt.homes[first..first + count]);
        let mut session = ctx.open(first, count, record, trace, log, slice, faults);
        let captures: Vec<_> = stops
            .iter()
            .map(|&stop| {
                session.serve_until(stop);
                session.shard.capture(&session.sim)
            })
            .collect();
        session.serve_until(horizon_end);
        (session.finish(), captures)
    });

    let mut checkpoints: Vec<MetroCheckpoint> = stops
        .iter()
        .map(|&at| MetroCheckpoint {
            at,
            digest: ctx.digest,
            des_events: base_des,
            homes: Vec::with_capacity(cfg.homes),
        })
        .collect();
    let mut shards = Vec::with_capacity(runs.len());
    for (shard, captures) in runs {
        shards.push(shard);
        for (ckpt, (processed, homes)) in checkpoints.iter_mut().zip(captures) {
            // Shard queues count their own events; fleet-level totals sum
            // them (plus whatever the resume source had already served).
            ckpt.des_events = ckpt.des_events.saturating_add(processed);
            ckpt.homes.extend(homes);
        }
    }
    let (TraceOutput { mut report, telemetry, peak_pending }, wal, care) =
        collect_served(cfg, shards);
    report.des_events = report.des_events.saturating_add(base_des);
    Ok(RunOutput { report, telemetry, peak_pending, checkpoints, wal, care })
}

/// [`run`] with nothing observed: the plain fleet report.
#[must_use]
pub fn run_scale(cfg: &MetroConfig) -> ScaleReport {
    run(cfg, &RunSpec::default()).expect("a run without a resume source cannot mismatch").report
}

/// [`run`] with the caregiver escalation overlay and the write-ahead
/// log on — the input the escalation-consistency oracle cross-checks the
/// care log against.
#[must_use]
pub fn run_scale_care_walled(
    cfg: &MetroConfig,
    policy: &CarePolicy,
) -> (ScaleReport, Vec<WalRecord>, CareOutput) {
    let spec = RunSpec { log: true, care: Some(policy), ..RunSpec::default() };
    let out = run(cfg, &spec).expect("a run without a resume source cannot mismatch");
    (out.report, out.wal, out.care.expect("care was requested"))
}

/// A durable run's on-disk artifacts: one full base snapshot, a chain of
/// incremental deltas (each diffed against the snapshot the previous
/// ones rebuild), and the write-ahead event log of every observable
/// transition. Steady-state durability cost is the deltas + log tail —
/// O(activity) — instead of a full snapshot per interval.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableRun {
    /// The full snapshot the chain starts from.
    pub base: MetroCheckpoint,
    /// Incremental checkpoints, oldest first.
    pub deltas: Vec<DeltaCheckpoint>,
    /// The whole run's event log, `(at, home)`-ordered.
    pub wal: Vec<WalRecord>,
}

impl DurableRun {
    /// The instant the newest checkpoint (base or delta) covers.
    #[must_use]
    pub fn last_checkpoint_at(&self) -> SimTime {
        self.deltas.last().map_or(self.base.at, |d| d.at)
    }

    /// Folds the delta chain into the base: the full snapshot a
    /// compaction would persist as the next base.
    ///
    /// # Errors
    ///
    /// Propagates [`compact`]'s failures (a delta diffed against a
    /// different base, or out-of-order chaining).
    pub fn compacted(&self) -> Result<MetroCheckpoint, CheckpointError> {
        compact(&self.base, &self.deltas)
    }
}

/// Runs a serve with incremental durability: a full snapshot at
/// `stops[0]` becomes the base, every later stop becomes a delta diffed
/// against its predecessor ([`RunOutput::into_durable`]), and the
/// write-ahead log covers the whole horizon. The run itself is
/// unperturbed — the report is bit-identical to a plain [`run_scale`].
///
/// # Panics
///
/// Panics if `stops` is empty (a durable run needs at least a base) or
/// invalid as in [`run`].
#[must_use]
pub fn run_scale_durable(cfg: &MetroConfig, stops: &[SimTime]) -> (ScaleReport, DurableRun) {
    assert!(!stops.is_empty(), "a durable run needs at least one checkpoint stop");
    let spec = RunSpec { log: true, stops, ..RunSpec::default() };
    run(cfg, &spec).expect("a run without a resume source cannot mismatch").into_durable()
}

/// Resumes from a durable chain: folds base → deltas into the newest
/// snapshot, replays the simulation from there to `cfg.horizon`, and
/// cross-checks the replay against the stored log. The stored records in
/// `(checkpoint, horizon]` must be a prefix of the regenerated log: a log
/// torn by a crash is a prefix, while a longer or different one belongs
/// to another history. The returned report is bit-identical to an
/// uninterrupted run at any checkpoint cadence and worker count.
///
/// # Errors
///
/// [`CheckpointError::ConfigMismatch`] / [`CheckpointError::BaseMismatch`]
/// for a chain that does not belong to `cfg`, and
/// [`CheckpointError::WalDivergence`] at the first stored record the
/// deterministic replay does not regenerate.
pub fn resume_scale_durable(
    cfg: &MetroConfig,
    run: &DurableRun,
) -> Result<ScaleReport, CheckpointError> {
    let ckpt = run.compacted()?;
    let spec = RunSpec { log: true, resume: Some(&ckpt), ..RunSpec::default() };
    let out = self::run(cfg, &spec)?;
    // Records past this resume's horizon are out of its reach: a resume
    // is free to run shorter than the run that wrote the log.
    let horizon_end = SimTime::ZERO + cfg.horizon;
    let mut regen = out.wal.iter();
    for stored in run.wal.iter().filter(|r| r.at > ckpt.at && r.at <= horizon_end) {
        if regen.next() != Some(stored) {
            return Err(CheckpointError::WalDivergence { at: stored.at, home: stored.home });
        }
    }
    Ok(out.report)
}

// ---------------------------------------------------------------------------
// Online serving sessions
// ---------------------------------------------------------------------------

/// A serve configuration names more homes than the wire protocol can
/// address: CRSV frames carry home ids as `u32`, so the largest legal
/// fleet is `u32::MAX + 1` homes. Returned by [`ServeCtx::new`] at
/// setup — the one place fleet size is decided — instead of panicking
/// mid-shard when the first oversized id is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetTooLarge {
    /// The configured fleet size that does not fit.
    pub homes: usize,
}

impl std::fmt::Display for FleetTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fleet of {} homes exceeds the wire protocol's u32 home-id space",
            self.homes
        )
    }
}

impl std::error::Error for FleetTooLarge {}

/// Run-wide shared state: the configuration plus the immutable fleet
/// context (specs, trained planner templates, renderer) every shard
/// borrows, built once per run. [`ServeCtx::session`] hands out
/// per-shard sessions; a batch [`run`] opens the same sessions, so
/// the serving front end owns *when* wakes are served (its clock) but
/// never *what* they do.
pub struct ServeCtx {
    cfg: MetroConfig,
    ctx: FleetCtx,
    digest: u64,
    care: Option<CarePolicy>,
}

impl std::fmt::Debug for ServeCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeCtx")
            .field("cfg", &self.cfg)
            .field("digest", &self.digest)
            .field("care", &self.care.is_some())
            .finish()
    }
}

impl ServeCtx {
    /// Builds the shared context (trains the planner templates once),
    /// validating that every home id fits the wire protocol's `u32`
    /// address space up front.
    ///
    /// # Errors
    ///
    /// [`FleetTooLarge`] when `cfg.homes` cannot be addressed — the
    /// config-validation form of what used to be a mid-shard panic.
    pub fn new(cfg: MetroConfig) -> Result<ServeCtx, FleetTooLarge> {
        if cfg.homes.saturating_sub(1) > u32::MAX as usize {
            return Err(FleetTooLarge { homes: cfg.homes });
        }
        Ok(ServeCtx::build(cfg, None))
    }

    /// [`ServeCtx::new`] without the wire's fleet-size check: a batch run
    /// never puts a home id on the wire, so it serves any fleet.
    fn build(cfg: MetroConfig, care: Option<CarePolicy>) -> ServeCtx {
        let ctx = FleetCtx::build(&cfg);
        let digest = config_digest(&cfg);
        ServeCtx { cfg, ctx, digest, care }
    }

    /// Turns the caregiver escalation overlay on for every session this
    /// context opens.
    #[must_use]
    pub fn with_care(mut self, policy: CarePolicy) -> ServeCtx {
        self.care = Some(policy);
        self
    }

    /// The serve's configuration.
    #[must_use]
    pub fn config(&self) -> &MetroConfig {
        &self.cfg
    }

    /// The configuration digest clients echo in their handshake; a
    /// mismatch means the client was built against a different fleet.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The `(first_home, count)` shard layout for `cfg.jobs`, batch and
    /// served alike: contiguous chunks, so flattening results in chunk
    /// order reproduces home order at any worker count. An empty fleet is
    /// one empty chunk, so its merge still carries the run's taps.
    #[must_use]
    pub fn chunks(&self) -> Vec<(usize, usize)> {
        let shards = self.cfg.jobs.max(1).min(self.cfg.homes.max(1));
        let base = self.cfg.homes / shards;
        let extra = self.cfg.homes % shards;
        let mut start = 0usize;
        (0..shards)
            .map(|s| {
                let count = base + usize::from(s < extra);
                start += count;
                (start - count, count)
            })
            .collect()
    }

    /// Opens a serving session over homes `[first_home, first_home +
    /// count)`. The session always derives delivery records (the log is
    /// on), and optionally taps event streams (`record`) or runs the
    /// flight recorder (`trace`) — both observation-only. Batch runs open
    /// the same session with their own log flag.
    #[must_use]
    pub fn session(&self, first_home: usize, count: usize, record: bool, trace: bool) -> ServeSession<'_> {
        self.open(first_home, count, record, trace, true, None, None)
    }

    /// The one session opener: wakes each fresh home at its first instant
    /// of interest or, given the homes' checkpoint slice, restores them
    /// and rehydrates their pending wakes in dispatch order. `faults`
    /// puts the session behind the fault overlay.
    #[allow(clippy::too_many_arguments)]
    fn open<'s>(
        &'s self,
        first_home: usize,
        count: usize,
        record: bool,
        trace: bool,
        log: bool,
        resume: Option<&[HomeCheckpoint]>,
        faults: Option<&'s dyn FaultSchedule>,
    ) -> ServeSession<'s> {
        let care = self.care.as_ref();
        let mut shard =
            Shard::build(&self.cfg, &self.ctx, first_home, count, record, trace, log, care);
        let mut sim: Simulator<Wake> = Simulator::new();
        match resume {
            None => {
                for (i, lanes) in shard.hot.iter().enumerate() {
                    sim.schedule_at(lanes.sched.next_start, Wake(i));
                }
            }
            Some(homes) => {
                for (i, ckpt) in homes.iter().enumerate() {
                    shard.restore_home(i, ckpt, faults);
                    for &due in &ckpt.pending {
                        sim.schedule_at(due, Wake(i));
                    }
                }
            }
        }
        ServeSession {
            shard,
            sim,
            horizon_end: SimTime::ZERO + self.cfg.horizon,
            wal_cursor: 0,
            epoch_end: SimTime::ZERO,
            epoch: Vec::new(),
            chains: Vec::new(),
            active: None,
            chain_cursor: 0,
            chain_end: 0,
            inline: Vec::new(),
            pending_wake: None,
            overlay: faults.map(|schedule| Overlay { schedule, drifted: Vec::new() }),
        }
    }
}

/// One shard of a fleet, driven wake by wake: the only wake loop. A
/// serving front end drives it through the chain API
/// ([`ServeSession::next_epoch_on`], [`ServeSession::next_wake`],
/// [`ServeSession::serve_wake`]); a batch [`run`] drives the same
/// private steps (window drain, chain activation, chain walk, serve
/// step) to each checkpoint stop and the horizon with no transport. So
/// serving every window's chains reproduces the batch run byte for byte,
/// DES event count included.
pub struct ServeSession<'a> {
    shard: Shard<'a>,
    sim: Simulator<Wake>,
    horizon_end: SimTime,
    /// Records already drained into per-wake deliveries.
    wal_cursor: usize,
    /// End of the window drained last.
    epoch_end: SimTime,
    /// The drained window, sorted by `(home, due)` — each home's wakes
    /// form one contiguous, due-ordered chain.
    epoch: Vec<(SimTime, Wake)>,
    /// `(local home, chain start, chain end)` per due home, home-ascending.
    chains: Vec<(usize, usize, usize)>,
    /// The home whose chain is being walked.
    active: Option<usize>,
    chain_cursor: usize,
    chain_end: usize,
    /// In-window follow-ups the active chain spawned; never queued.
    inline: Vec<SimTime>,
    /// An instant the chain walk returned but no serve step consumed yet
    /// — replayed on re-ask, so a caller probing the same home twice
    /// cannot lose a wake.
    pending_wake: Option<SimTime>,
    /// The fault overlay, when the run serves under a fault schedule.
    overlay: Option<Overlay<'a>>,
}

impl std::fmt::Debug for ServeSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeSession")
            .field("first_home", &self.shard.first_home)
            .field("homes", &self.shard.len())
            .field("now", &self.sim.now())
            .finish()
    }
}

impl<'a> ServeSession<'a> {
    /// Waits on `clock` for the next due instant `t0` (if it is by
    /// `until` and the horizon), drains the window `[t0, end]` with
    /// `end = min(until, horizon, max(t0, clock.servable()))` — every
    /// wake the clock already allows, so a checkpoint stop sees exactly
    /// the wakes due by then served — and groups it into per-home
    /// chains. Returns `t0`.
    fn drain_window<K: Clock + ?Sized>(
        &mut self,
        until: SimTime,
        clock: &mut K,
    ) -> Option<SimTime> {
        debug_assert!(self.inline.is_empty() && self.pending_wake.is_none());
        let until = until.min(self.horizon_end);
        let t0 = self.sim.next_due().filter(|&t| t <= until)?;
        clock.wait_until(t0);
        let end = until.min(clock.servable().max(t0));
        self.epoch.clear();
        self.chains.clear();
        self.active = None;
        self.sim.drain_until(end, &mut self.epoch);
        // Group each home's wakes into one contiguous, due-ordered chain.
        // Duplicate keys are identical tuples, so the unstable sort
        // cannot reorder anything observable.
        self.epoch.sort_unstable_by_key(|&(due, Wake(i))| (i, due));
        self.epoch_end = end;
        let mut start = 0;
        for chain in self.epoch.chunk_by(|a, b| a.1 .0 == b.1 .0) {
            self.chains.push((chain[0].1 .0, start, start + chain.len()));
            start += chain.len();
        }
        Some(t0)
    }

    /// Starts walking chain `k`, prefetching the next chain's home: one
    /// chain of pipeline work is ample distance to hide a DRAM load.
    fn activate(&mut self, k: usize) {
        let (i, start, end) = self.chains[k];
        self.active = Some(i);
        self.chain_cursor = start;
        self.chain_end = end;
        if let Some(&(j, _, _)) = self.chains.get(k + 1) {
            let shard = &self.shard;
            prefetch(&shard.hot[j]);
            prefetch(&shard.systems[j * shard.acts]);
            prefetch(&shard.trackers[j]);
            prefetch(&shard.roots[j]);
        }
    }

    /// Advances the active chain to its next distinct wake instant, over
    /// drained entries and in-window follow-ups. Every entry at that
    /// instant is consumed and counted, so duplicates serve once and
    /// `des_events` counts every wake whatever the window width; a wake
    /// for an instant already served (a resume rehydrates the one behind
    /// the snapshot's `last_handled`) is consumed unserved. `None` once
    /// the chain is dry.
    fn chain_next(&mut self) -> Option<SimTime> {
        if self.pending_wake.is_some() {
            return self.pending_wake;
        }
        let i = self.active?;
        loop {
            let queued =
                (self.chain_cursor < self.chain_end).then(|| self.epoch[self.chain_cursor].0);
            let Some(now) = queued.into_iter().chain(self.inline.iter().copied()).min() else {
                self.active = None;
                return None;
            };
            while self.chain_cursor < self.chain_end && self.epoch[self.chain_cursor].0 == now {
                self.chain_cursor += 1;
            }
            let before = self.inline.len();
            self.inline.retain(|&due| due != now);
            self.sim.note_processed((before - self.inline.len()) as u64);
            if self.shard.hot[i].sched.last_handled == Some(now) {
                continue;
            }
            self.pending_wake = Some(now);
            return Some(now);
        }
    }

    /// Serves local home `i`'s pending wake at `at` and routes its
    /// follow-ups; with `skip` the wake is consumed untouched.
    ///
    /// Follow-ups are scheduled *unconditionally*, even past the horizon:
    /// the drain never pops them, so they cost a queue slot and nothing
    /// else — and it keeps a snapshot's pending set independent of the
    /// horizon the capturing run happened to use. A checkpoint taken at
    /// the very end of a short run must still carry each home's natural
    /// next wake, or a resume with a longer horizon would find a dead
    /// fleet.
    fn serve_step(&mut self, i: usize, at: SimTime, skip: bool) {
        self.pending_wake = None;
        let prev = self.shard.hot[i].sched.last_handled.replace(at);
        if skip {
            return;
        }
        self.poll(i, prev, at);
        // Follow-ups due inside the window stay inline (the chain serves
        // them next, in due order); later ones go to the queue. Legal
        // because the simulator clock already sits at the window end.
        let (sim, inline, end) = (&mut self.sim, &mut self.inline, self.epoch_end);
        let mut follow = |due| {
            if due <= end {
                inline.push(due);
            } else {
                sim.schedule_at(due, Wake(i));
            }
        };
        if let Some(run) = &self.shard.episodes[i] {
            follow(run.ep.next_tick_at());
        } else {
            let s = self.shard.hot[i].sched;
            follow(s.next_start);
            if let Some(deadline) = self.shard.trackers[i].idle_deadline() {
                follow(align_up(s.offset_ms, deadline));
            }
        }
    }

    /// Serves home `i`'s wake at `at` (its previous wake was `prev`),
    /// behind the fault overlay when the run has one.
    fn poll(&mut self, i: usize, prev: Option<SimTime>, at: SimTime) {
        let ctx = self.shard.ctx;
        let routines = match self.overlay.as_mut() {
            None => &ctx.routines[..],
            Some(overlay) => overlay.apply(&mut self.shard, i, prev, at),
        };
        self.shard.poll_wake(i, at, routines);
    }

    /// The batch drive: serves every wake due by `until` through the
    /// chain steps on the sim clock, then leaves the simulator clock at
    /// `until`.
    fn serve_until(&mut self, until: SimTime) {
        while self.drain_window(until, &mut SimClock).is_some() {
            for k in 0..self.chains.len() {
                self.activate(k);
                let i = self.chains[k].0;
                while let Some(now) = self.chain_next() {
                    self.serve_step(i, now, false);
                }
            }
        }
        if until > self.sim.now() {
            self.sim.advance_to(until);
        }
    }

    /// The session-local index of fleet-global `home`.
    fn local(&self, home: u32) -> usize {
        (home as usize)
            .checked_sub(self.shard.first_home)
            .filter(|&i| i < self.shard.len())
            .expect("home outside this session")
    }

    /// Fleet-global id of the session's first home.
    #[must_use]
    pub fn first_home(&self) -> usize {
        self.shard.first_home
    }

    /// Homes in the session.
    #[must_use]
    pub fn homes(&self) -> usize {
        self.shard.len()
    }

    /// Drains the next epoch window (up to the horizon) and fills `due`
    /// with the fleet-global home ids owning wakes in it, ascending and
    /// deduplicated. On the sim clock the window runs to the horizon, so
    /// the first call returns every home with a wake left and the next
    /// one `None`: each home's whole chain is served in one visit.
    /// Returns the window's first instant, or `None` when the horizon is
    /// served.
    ///
    /// Serve the returned homes in order: for each, loop
    /// [`ServeSession::next_wake`] / [`ServeSession::serve_wake`] until
    /// the chain is dry, then move on. Per-home wake sequences — and
    /// with them every deliverable — are the same at any window cut
    /// ([`ServeSession::next_epoch_on`]).
    pub fn next_epoch(&mut self, due: &mut Vec<u32>) -> Option<SimTime> {
        self.next_epoch_on(due, &mut SimClock)
    }

    /// [`ServeSession::next_epoch`] paced by `clock`: waits once for the
    /// window's first instant `t0`, then drains only the wakes the clock
    /// already lets through — up to `min(horizon, max(t0,
    /// clock.servable()))` — so every wake in the window is served
    /// without another wait, and none waits behind a later-due wake
    /// while the server keeps up. A late server's clock has run ahead,
    /// which widens the window over its whole backlog (and the per-home
    /// locality with it). Under [`SimClock`] the window runs to the
    /// horizon; a clock whose servable instant never runs ahead makes
    /// every window the single instant `t0`, which reproduces the
    /// classic instant-by-instant `(due, seq)` sweep.
    ///
    /// The cut never shows in any artifact: a home's chain is served in
    /// due order whichever window its wakes fall in, and follow-ups past
    /// the cut go to the queue exactly as those past a full window do.
    pub fn next_epoch_on<K: Clock + ?Sized>(
        &mut self,
        due: &mut Vec<u32>,
        clock: &mut K,
    ) -> Option<SimTime> {
        due.clear();
        let t0 = self.drain_window(self.horizon_end, clock)?;
        let first = self.shard.first_home;
        let id = |c: &(usize, _, _)| u32::try_from(first + c.0).expect("fleets fit in u32");
        due.extend(self.chains.iter().map(id));
        Some(t0)
    }

    /// Advances `home`'s chain in the current epoch to its next distinct
    /// wake instant and returns it, or `None` when the chain is dry (or
    /// `home` owns no wakes in this window). Duplicate entries are
    /// consumed and counted exactly as the batch run dedups them.
    /// Calling again before [`ServeSession::serve_wake`] returns the
    /// same instant.
    ///
    /// # Panics
    ///
    /// Panics if `home` is outside the session's range.
    pub fn next_wake(&mut self, home: u32) -> Option<SimTime> {
        let i = self.local(home);
        if self.active != Some(i) {
            debug_assert!(
                self.inline.is_empty() && self.pending_wake.is_none(),
                "switched homes with an unserved chain"
            );
            let k = self.chains.binary_search_by_key(&i, |&(h, _, _)| h).ok()?;
            self.activate(k);
        }
        self.chain_next()
    }

    /// Serves the wake [`ServeSession::next_wake`] returned for `home`:
    /// runs the canonical per-instant pipeline and routes the home's
    /// follow-ups — in-window ones inline to this chain, later ones to
    /// the queue. Observable transitions append to `deliveries` as
    /// derived [`WalRecord`]s: the prompt payloads an online server sends
    /// to the home's client.
    ///
    /// With `skip` (a disconnected client) the wake is consumed without
    /// touching home state or spawning follow-ups — the home freezes
    /// and its chain drains. Skipping one home cannot perturb any other:
    /// homes never interact.
    ///
    /// # Panics
    ///
    /// Panics if `home` is outside the session's range.
    pub fn serve_wake(&mut self, home: u32, at: SimTime, skip: bool, deliveries: &mut Vec<WalRecord>) {
        let i = self.local(home);
        debug_assert_eq!(self.active, Some(i), "serve_wake without a next_wake");
        debug_assert_eq!(self.pending_wake, Some(at), "serve_wake instant mismatch");
        self.serve_step(i, at, skip);
        let wal = self.shard.wal.as_ref().expect("sessions always log");
        deliveries.extend_from_slice(&wal[self.wal_cursor..]);
        self.wal_cursor = wal.len();
    }

    /// Appends `home`'s escalation events emitted since the last drain —
    /// what the serving front end wraps into `Escalate` frames after
    /// [`ServeSession::serve_wake`]. No-op unless the context enabled
    /// care ([`ServeCtx::with_care`]).
    ///
    /// # Panics
    ///
    /// Panics if `home` is outside the session's range.
    pub fn drain_care(&mut self, home: u32, out: &mut Vec<CareEvent>) {
        let i = self.local(home);
        let Some(care) = self.shard.care.as_mut() else { return };
        let events = care.monitors[i].events();
        out.extend_from_slice(&events[care.cursors[i]..]);
        care.cursors[i] = events.len();
    }

    /// Ends every home's care fold at the horizon and appends the
    /// trailing events (acks/resolves due by then) in home order — the
    /// final `Escalate` frames a server delivers before `Bye`. No-op
    /// without care.
    pub fn finish_care(&mut self, out: &mut Vec<CareEvent>) {
        self.shard.finish_care(self.horizon_end);
        let Some(care) = self.shard.care.as_mut() else { return };
        for (monitor, cursor) in care.monitors.iter().zip(&mut care.cursors) {
            let events = monitor.events();
            out.extend_from_slice(&events[*cursor..]);
            *cursor = events.len();
        }
    }

    /// Folds the session into its shard result: ends the care fold at
    /// the horizon and recomputes each home's energy from its (possibly
    /// restored) node meters.
    #[must_use]
    pub fn finish(self) -> ServedShard {
        let mut shard = self.shard;
        shard.finish_care(self.horizon_end);
        let acts = shard.acts;
        for (i, lanes) in shard.hot.iter_mut().enumerate() {
            lanes.stats.energy_uj =
                shard.systems[i * acts..(i + 1) * acts].iter().map(Coreda::total_energy_uj).sum();
        }
        let care = shard.care.map(|care| {
            let mut out = CareOutput { events: Vec::new(), analytics: care.analytics };
            for monitor in &care.monitors {
                out.events.extend_from_slice(monitor.events());
            }
            out
        });
        ServedShard {
            stats: shard.hot.into_iter().map(|lanes| lanes.stats).collect(),
            taps: shard.taps,
            recs: shard.recs.map(|recs| recs.homes),
            wal: shard.wal,
            des_events: self.sim.processed(),
            max_pending: self.sim.max_pending(),
            care,
        }
    }
}

/// One finished [`ServeSession`]'s output, opaque until merged through
/// [`collect_served`].
pub struct ServedShard {
    stats: Vec<HomeStats>,
    taps: Option<Vec<Vec<TapEvent>>>,
    recs: Option<Vec<HomeRecorder>>,
    /// Shard-local write-ahead records, in wake order: home-major within
    /// each window. The global sort in [`collect_served`] lands on the
    /// unique `(at, home)` order whatever the window cuts.
    wal: Option<Vec<WalRecord>>,
    des_events: u64,
    /// Shard-local queue high-water mark — jobs-dependent.
    max_pending: usize,
    /// Shard-local escalation log (home-major, per-home time order) and
    /// analytics, when the care overlay ran.
    care: Option<CareOutput>,
}

impl std::fmt::Debug for ServedShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedShard")
            .field("homes", &self.stats.len())
            .field("des_events", &self.des_events)
            .finish()
    }
}

/// Merges finished shards — in [`ServeCtx::chunks`] order — into the
/// run's [`TraceOutput`] plus the fleet-ordered event log (and the care
/// output when the context enabled the escalation overlay). This is the
/// only shard merge: a batch [`run`] folds its own sessions through it
/// too. Under the sim clock a served result is therefore bit-identical
/// to the batch run of the same configuration (grid, telemetry, log,
/// and care) at any worker count.
#[must_use]
pub fn collect_served(
    cfg: &MetroConfig,
    shards: Vec<ServedShard>,
) -> (TraceOutput, Vec<WalRecord>, Option<CareOutput>) {
    let record = shards.first().is_some_and(|s| s.taps.is_some());
    let trace = shards.first().is_some_and(|s| s.recs.is_some());
    let care = shards.first().is_some_and(|s| s.care.is_some());
    let mut per_home = Vec::with_capacity(cfg.homes);
    let mut events = record.then(|| Vec::with_capacity(cfg.homes));
    let mut wal_records = Vec::new();
    let mut care_out = care.then(CareOutput::default);
    let mut telemetry = Telemetry::default();
    let mut des_events = 0u64;
    let mut peak_pending = 0usize;
    for chunk in shards {
        per_home.extend(chunk.stats);
        if let (Some(events), Some(taps)) = (events.as_mut(), chunk.taps) {
            events.extend(taps);
        }
        if let Some(recs) = chunk.recs {
            telemetry.homes.extend(recs);
        }
        if let Some(records) = chunk.wal {
            wal_records.extend(records);
        }
        if let (Some(out), Some(chunk_care)) = (care_out.as_mut(), chunk.care) {
            out.events.extend(chunk_care.events);
            out.analytics.merge(&chunk_care.analytics);
        }
        des_events = des_events.saturating_add(chunk.des_events);
        peak_pending = peak_pending.max(chunk.max_pending);
    }
    let report = ScaleReport {
        homes: cfg.homes,
        horizon: cfg.horizon,
        per_home,
        des_events,
        events,
    };
    if trace {
        let (_, clamped) = report.totals_checked();
        telemetry.fleet.add(Ctr::TotalsSaturated, clamped);
    }
    // `(at, home)` is unique per record, and the per-home monotone `seq`
    // breaks same-instant care ties, so each sort lands on one fleet-wide
    // order whatever the worker count or window cuts.
    wal_records.sort_unstable_by_key(|r| (r.at, r.home));
    if let Some(out) = care_out.as_mut() {
        out.events.sort_unstable_by_key(|e| (e.at, e.home, e.seq));
    }
    ((TraceOutput { report, telemetry, peak_pending }), wal_records, care_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::escalation::CareEventKind;
    use coreda_sensornet::radio::LossModel;

    /// The arena build must point every home's planner and renderer at
    /// the `FleetCtx`'s shared allocations — per-home copies would put
    /// the Q-tables back on the per-home budget — and a snapshot of a
    /// home still on its template must hold the template's one capture.
    /// Address equality of the `Deref` targets proves the `Arc`s share
    /// storage.
    #[test]
    fn fleet_homes_share_planner_and_renderer_allocations() {
        let cfg = small_cfg();
        let ctx = FleetCtx::build(&cfg);
        let shard = Shard::build(&cfg, &ctx, 0, cfg.homes, false, false, false, None);
        let acts = ctx.specs.len();
        assert!(acts >= 2, "catalog should exercise >1 activity");
        for act in 0..acts {
            let template: &PlanningSubsystem = ctx.templates[act].planner();
            let learned = ctx.templates[act].learned().expect("Watkins captures");
            for home in 0..cfg.homes {
                let sys = &shard.systems[home * acts + act];
                assert!(
                    std::ptr::eq(sys.planner(), template),
                    "home {home} act {act} carries a private planner copy"
                );
                assert!(
                    std::ptr::eq(sys.reminding(), &*ctx.reminding),
                    "home {home} act {act} carries a private renderer copy"
                );
                let snap = shard.capture_home(home, Vec::new());
                let captured = snap.systems[act].learned.as_ref().expect("Watkins captures");
                assert!(
                    Arc::ptr_eq(captured, learned),
                    "home {home} act {act} snapshots a private table copy"
                );
            }
        }
    }

    fn small_cfg() -> MetroConfig {
        MetroConfig {
            homes: 4,
            horizon: SimDuration::from_secs(600),
            jobs: 1,
            gap_min: SimDuration::from_secs(60),
            gap_max: SimDuration::from_secs(180),
            train_episodes: 120,
            ..MetroConfig::default()
        }
    }

    /// A plain fresh [`run`] with the given taps switched on.
    fn observe(cfg: &MetroConfig, spec: RunSpec<'_>) -> RunOutput {
        run(cfg, &spec).expect("a run without a resume source cannot mismatch")
    }

    /// Resumes `ckpt` and returns the report.
    fn resume(cfg: &MetroConfig, ckpt: &MetroCheckpoint) -> Result<ScaleReport, CheckpointError> {
        run(cfg, &RunSpec { resume: Some(ckpt), ..RunSpec::default() }).map(|out| out.report)
    }

    /// Snapshots a plain run at `stops`.
    fn snapshots(cfg: &MetroConfig, stops: &[SimTime]) -> (ScaleReport, Vec<MetroCheckpoint>) {
        let out = observe(cfg, RunSpec { stops, ..RunSpec::default() });
        (out.report, out.checkpoints)
    }

    #[test]
    fn homes_actually_serve() {
        let report = run_scale(&small_cfg());
        let t = report.totals();
        assert_eq!(report.per_home.len(), 4);
        assert!(t.episodes_started >= 4, "every home should start an episode: {t:?}");
        assert!(t.sessions_started > 0, "tool reports should open sessions: {t:?}");
        assert!(t.pipeline_ticks > 0);
        assert!(t.energy_uj > 0.0, "radio traffic costs energy");
    }

    /// Dense 10 Hz polling, the reference event-driven wakes are held
    /// against: every home is served at every instant of its 100 ms grid
    /// up to the horizon, behind the fault overlay when `faults` is
    /// given. Homes never interact, so polling home by home is as good
    /// as instant by instant. Returns the merged output and the number
    /// of polls.
    fn run_dense(
        cfg: &MetroConfig,
        policy: &CarePolicy,
        faults: Option<&dyn FaultSchedule>,
    ) -> ((TraceOutput, Vec<WalRecord>, Option<CareOutput>), u64) {
        let ctx = ServeCtx::build(cfg.clone(), Some(policy.clone()));
        let end = cfg.horizon.as_millis();
        let mut polls = 0;
        let mut shards = Vec::new();
        for (first, count) in ctx.chunks() {
            let mut session = ctx.open(first, count, true, true, true, None, faults);
            for i in 0..count {
                let offset = session.shard.hot[i].sched.offset_ms;
                let mut prev = None;
                for ms in (offset..=end).step_by(Coreda::TICK.as_millis() as usize) {
                    let now = SimTime::from_millis(ms);
                    session.poll(i, prev, now);
                    prev = Some(now);
                    polls += 1;
                }
            }
            shards.push(session.finish());
        }
        (collect_served(cfg, shards), polls)
    }

    /// One window of a hand-built schedule: `[from, to)` ms and the edit
    /// it makes to the desired state while open.
    type Window = (u64, u64, fn(&mut FaultState));

    /// A hand-built fault schedule: each window edits the desired state
    /// while it is open, later windows last.
    #[derive(Debug)]
    struct Windows(Vec<Window>);

    impl FaultSchedule for Windows {
        fn at(&self, at: SimTime) -> FaultState {
            let mut state = FaultState::default();
            for &(from, to, edit) in &self.0 {
                if (from..to).contains(&at.as_millis()) {
                    edit(&mut state);
                }
            }
            state
        }
    }

    fn window(from_s: u64, to_s: u64, edit: fn(&mut FaultState)) -> Window {
        (from_s * 1000, to_s * 1000, edit)
    }

    /// Windows of every in-process fault kind — radio loss, node crash,
    /// sensor flips, clock skew, non-compliance, severe lapses and two
    /// routine drifts with their own swaps — overlapping across
    /// `small_cfg`'s horizon.
    fn every_kind() -> Windows {
        Windows(vec![
            window(30, 200, |s| {
                s.link = Some(LinkConfig {
                    loss: LossModel::Bernoulli { p: 0.5 },
                    max_retries: 1,
                    ..LinkConfig::default()
                });
            }),
            window(100, 300, |s| s.node_mut(ToolId::new(catalog::TEA_BOX)).failed = true),
            window(50, 400, |s| {
                let node = s.node_mut(ToolId::new(catalog::BRUSH));
                node.false_positive = 0.03;
                node.false_negative = 0.4;
            }),
            window(150, 450, |s| s.node_mut(ToolId::new(catalog::KETTLE)).skew_ms = -20_000),
            window(200, 320, |s| s.non_compliant = true),
            window(250, 550, |s| s.lapsing = true),
            window(60, 250, |s| s.drift = Some((1, 3))),
            window(300, 600, |s| s.drift = Some((0, 2))),
        ])
    }

    /// Event-driven wakes are exact: a home woken only where something
    /// can change ends exactly where one polled on every 100 ms grid
    /// instant does — stats, taps, telemetry JSONL, WAL and the care log
    /// under an escalating policy — at any worker count, with and
    /// without fault windows of every kind (the overlay applies a window
    /// that opened between two wakes at the later one).
    #[test]
    fn event_driven_wakes_match_dense_polling() {
        let policy = eager_policy();
        let faulted = every_kind();
        let clean = observe(&small_cfg(), RunSpec::default()).report;
        for faults in [None, Some(&faulted as &dyn FaultSchedule)] {
            for jobs in [1, 3] {
                let cfg = MetroConfig { jobs, ..small_cfg() };
                let care = Some(&policy);
                let spec = RunSpec {
                    record: true,
                    trace: true,
                    log: true,
                    care,
                    faults,
                    ..RunSpec::default()
                };
                let wakes = observe(&cfg, spec);
                let ((dense, wal, care), polls) = run_dense(&cfg, &policy, faults);
                let case = format!("jobs={jobs} faults={}", faults.is_some());
                assert_eq!(wakes.report.per_home, dense.report.per_home, "{case}: stats");
                assert_eq!(wakes.report.events, dense.report.events, "{case}: taps");
                assert_eq!(
                    wakes.telemetry.to_jsonl(),
                    dense.telemetry.to_jsonl(),
                    "{case}: telemetry"
                );
                assert_eq!(wakes.wal, wal, "{case}: WAL");
                assert!(care.as_ref().is_some_and(|c| !c.events.is_empty()), "must escalate");
                assert_eq!(wakes.care, care, "{case}: care log");
                assert!(
                    wakes.report.des_events < polls,
                    "event-driven wakes ({}) should be far fewer than dense polls ({polls})",
                    wakes.report.des_events
                );
                assert_eq!(
                    wakes.report.per_home != clean.per_home,
                    faults.is_some(),
                    "{case}: the faults must change the fleet, and only they"
                );
            }
        }
    }

    /// Crashes `tool` from `from_ms` to the end of the run.
    #[derive(Debug)]
    struct CrashFrom(ToolId, u64);

    impl FaultSchedule for CrashFrom {
        fn at(&self, at: SimTime) -> FaultState {
            let mut state = FaultState::default();
            if at.as_millis() >= self.1 {
                state.node_mut(self.0).failed = true;
            }
            state
        }
    }

    /// A stop between two wakes of an idle home, just after a crash
    /// window opened: the snapshot holds the node still up (the overlay
    /// crashes it at the home's next wake), and the run resumed through
    /// the codec must equal the uninterrupted one.
    #[test]
    fn a_window_opening_between_wakes_survives_a_resume() {
        let cfg = small_cfg();
        let plain = observe(&cfg, RunSpec { record: true, ..RunSpec::default() });
        // Home 0's first (tea) episode ends at `end`; its next wake is at
        // least the minimum gap later, and its next episode brushes teeth.
        let end = plain.report.events.as_ref().unwrap()[0]
            .iter()
            .find_map(|ev| match *ev {
                TapEvent::Tick { at, out } if out.finished => Some(at),
                _ => None,
            })
            .expect("home 0 finishes its first episode");
        let brush = ToolId::new(catalog::BRUSH);
        let faults = CrashFrom(brush, end.as_millis() + 1_000);
        let stop = [end + SimDuration::from_secs(2)];
        let spec = RunSpec { trace: true, log: true, faults: Some(&faults), ..RunSpec::default() };
        let full = observe(&cfg, RunSpec { stops: &stop, ..spec });
        let ckpt = &full.checkpoints[0];
        let home = &ckpt.homes[0];
        assert_eq!(home.last_handled, Some(end), "the stop must fall between two wakes");
        let at = catalog::tooth_brushing().tools().iter().position(|t| t.id() == brush).unwrap();
        assert!(!home.systems[1].nodes[at].0.failed, "the crash is not applied before a wake");
        assert_ne!(full.report.per_home[0], plain.report.per_home[0], "the crash must matter");

        let bytes = crate::checkpoint::save_checkpoint(ckpt, 1);
        let back = crate::checkpoint::load_checkpoint(&bytes, 1).unwrap();
        let resumed = run(&cfg, &RunSpec { resume: Some(&back), ..spec }).unwrap();
        assert_eq!(resumed.report, full.report);
        assert_eq!(resumed.telemetry, full.telemetry);
        let tail: Vec<_> = full.wal.iter().filter(|r| r.at > stop[0]).copied().collect();
        assert_eq!(resumed.wal, tail);
    }

    /// Every home's radio under one link configuration for the whole run.
    #[derive(Debug)]
    struct Radio(LinkConfig);

    impl FaultSchedule for Radio {
        fn at(&self, _: SimTime) -> FaultState {
            FaultState { link: Some(self.0), ..FaultState::default() }
        }
    }

    /// A radio window applies its whole link configuration, retry budget
    /// included: under `p = 1.0` loss a lost frame costs 2 attempts at
    /// `max_retries` 1 and 4 at 3.
    #[test]
    fn a_radio_window_applies_its_retry_budget() {
        let cfg = small_cfg();
        let horizon = [SimTime::ZERO + cfg.horizon];
        for (max_retries, attempts) in [(1u8, 2u64), (3, 4)] {
            let loss = LossModel::Bernoulli { p: 1.0 };
            let faults = Radio(LinkConfig { loss, max_retries, ..LinkConfig::default() });
            let spec = RunSpec { stops: &horizon, faults: Some(&faults), ..RunSpec::default() };
            let out = observe(&cfg, spec);
            let links = out.checkpoints[0].homes.iter().flat_map(|h| &h.systems).map(|s| s.uplink);
            let (mut frames, mut lost, mut tries) = (0, 0, 0);
            for link in links {
                frames += link.frames;
                lost += link.lost;
                tries += link.attempts;
            }
            assert!(frames > 0, "nodes still report into a dead radio");
            assert_eq!(lost, frames, "max_retries {max_retries}: every frame is lost");
            assert_eq!(tries, attempts * frames, "max_retries {max_retries}");
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let serial = run_scale(&small_cfg());
        let parallel = run_scale(&MetroConfig { jobs: 3, ..small_cfg() });
        assert_eq!(serial, parallel);
        assert_eq!(serial.render(), parallel.render());
    }

    /// Serves only the window's first instant: every window is one
    /// instant, the classic `(due, seq)` sweep.
    struct InstantWindows;

    impl Clock for InstantWindows {
        fn wait_until(&mut self, _due: SimTime) {}

        fn servable(&self) -> SimTime {
            SimTime::ZERO
        }
    }

    /// The epoch chain API (`next_epoch_on`/`next_wake`/`serve_wake`)
    /// must reproduce the batch run exactly, DES event count included,
    /// whether its windows span the whole horizon or a single instant, and
    /// in either order of a window's homes: homes never interact, so
    /// serving a window's chains last-to-first changes nothing.
    #[test]
    fn chain_api_reproduces_the_batch_run() {
        let cfg = small_cfg();
        let batch = observe(&cfg, RunSpec { log: true, ..RunSpec::default() });
        let ctx = ServeCtx::new(cfg.clone()).expect("small fleets fit");
        for instant in [false, true] {
            for descending in [false, true] {
                let mut shards = Vec::new();
                let mut deliveries = Vec::new();
                for (first, count) in ctx.chunks() {
                    let mut session = ctx.session(first, count, false, false);
                    let mut due = Vec::new();
                    loop {
                        let window = if instant {
                            session.next_epoch_on(&mut due, &mut InstantWindows)
                        } else {
                            session.next_epoch(&mut due)
                        };
                        if window.is_none() {
                            break;
                        }
                        if descending {
                            due.reverse();
                        }
                        for &home in &due {
                            while let Some(now) = session.next_wake(home) {
                                session.serve_wake(home, now, false, &mut deliveries);
                            }
                        }
                    }
                    shards.push(session.finish());
                }
                let (out, merged, care) = collect_served(&cfg, shards);
                let case = format!("instant={instant} descending={descending}");
                assert!(care.is_none(), "care off ⇒ no care output");
                assert_eq!(out.report, batch.report, "{case}: chain serve diverged");
                assert_eq!(merged, batch.wal, "{case}: served log diverged");
                deliveries.sort_unstable_by_key(|r| (r.at, r.home));
                assert_eq!(deliveries, batch.wal, "{case}: deliveries diverged");
            }
        }
    }

    /// On the sim clock nothing but the horizon ends a window: a fresh
    /// session's first window holds every home with a wake by the
    /// horizon, each home's whole chain is served in that one visit, and
    /// the next call finds the horizon served.
    #[test]
    fn a_sim_clock_window_runs_to_the_horizon() {
        // A horizon inside the first-episode gap draw: some homes never
        // wake, and those that do run episodes for ~a minute of ticks.
        let cfg = MetroConfig { homes: 12, horizon: SimDuration::from_secs(150), ..small_cfg() };
        let batch = observe(&cfg, RunSpec { log: true, ..RunSpec::default() });
        let woken: Vec<u32> = (0..)
            .zip(&batch.report.per_home)
            .filter(|(_, stats)| stats.episodes_started > 0)
            .map(|(home, _)| home)
            .collect();
        assert!(!woken.is_empty() && woken.len() < cfg.homes, "woken {woken:?}");
        let ctx = ServeCtx::new(cfg.clone()).expect("small fleets fit");
        let mut session = ctx.session(0, cfg.homes, false, false);
        let mut due = Vec::new();
        let mut deliveries = Vec::new();
        assert!(session.next_epoch(&mut due).is_some());
        assert_eq!(due, woken, "the first window holds every home due by the horizon");
        for &home in &due {
            while let Some(now) = session.next_wake(home) {
                session.serve_wake(home, now, false, &mut deliveries);
            }
        }
        assert_eq!(session.next_epoch(&mut due), None, "one window serves the horizon");
        assert!(due.is_empty());
        let (out, log, _) = collect_served(&cfg, vec![session.finish()]);
        assert_eq!(out.report, batch.report);
        assert_eq!(log, batch.wal);
    }

    /// [`ServeSession::serve_until`]'s loop, counting the windows it
    /// drains.
    fn serve_counting(session: &mut ServeSession<'_>, until: SimTime) -> usize {
        let mut windows = 0;
        while session.drain_window(until, &mut SimClock).is_some() {
            windows += 1;
            for k in 0..session.chains.len() {
                session.activate(k);
                let i = session.chains[k].0;
                while let Some(now) = session.chain_next() {
                    session.serve_step(i, now, false);
                }
            }
        }
        windows
    }

    /// A batch run drains one window per segment: two checkpoint stops
    /// and the horizon make three windows, and the run they serve is
    /// [`run`]'s, snapshots included.
    #[test]
    fn a_batch_run_drains_one_window_per_segment() {
        let cfg = small_cfg();
        let stops = [SimTime::from_secs(200), SimTime::from_secs(400)];
        let batch = observe(&cfg, RunSpec { stops: &stops, ..RunSpec::default() });
        let ctx = ServeCtx::build(cfg.clone(), None);
        let mut session = ctx.open(0, cfg.homes, false, false, false, None, None);
        let mut windows = 0;
        for (stop, ckpt) in stops.iter().zip(&batch.checkpoints) {
            windows += serve_counting(&mut session, *stop);
            let (processed, homes) = session.shard.capture(&session.sim);
            assert_eq!((processed, &homes), (ckpt.des_events, &ckpt.homes), "at {stop}");
        }
        let horizon_end = session.horizon_end;
        windows += serve_counting(&mut session, horizon_end);
        assert_eq!(windows, 3, "one window per segment");
        let (out, ..) = collect_served(&cfg, vec![session.finish()]);
        assert_eq!(out.report, batch.report);
    }

    /// A skipped (disconnected) home freezes — no further deliveries —
    /// without perturbing any other home.
    #[test]
    fn skipping_a_home_freezes_only_that_home() {
        let cfg = small_cfg();
        let batch = run_scale(&cfg);
        let cut = SimTime::from_millis(cfg.horizon.as_millis() / 2);
        let ctx = ServeCtx::new(cfg.clone()).expect("small fleets fit");
        let mut session = ctx.session(0, cfg.homes, false, false);
        let mut due = Vec::new();
        let mut deliveries = Vec::new();
        while session.next_epoch(&mut due).is_some() {
            for &home in &due {
                while let Some(now) = session.next_wake(home) {
                    let skip = home == 0 && now >= cut;
                    session.serve_wake(home, now, skip, &mut deliveries);
                }
            }
        }
        let (out, merged, _) = collect_served(&cfg, vec![session.finish()]);
        assert_ne!(out.report.per_home[0], batch.per_home[0], "home 0 should freeze");
        assert_eq!(out.report.per_home[1..], batch.per_home[1..], "other homes must not drift");
        assert!(
            merged.iter().all(|r| r.home != 0 || r.at < cut),
            "a frozen home must deliver nothing past its disconnect"
        );
    }

    #[test]
    fn render_is_complete_and_deterministic() {
        let report = run_scale(&small_cfg());
        let text = report.render();
        assert!(text.contains("4 homes"));
        assert!(text.contains("wheel engine"));
        assert!(text.contains("episodes:"));
        assert!(text.contains("sessions:"));
        assert!(text.contains("pipeline ticks:"));
        assert_eq!(text, run_scale(&small_cfg()).render());
    }

    #[test]
    fn recorded_taps_are_jobs_invariant() {
        let record = RunSpec { record: true, ..RunSpec::default() };
        let serial = observe(&small_cfg(), record).report;
        let parallel = observe(&MetroConfig { jobs: 3, ..small_cfg() }, record).report;
        assert_eq!(serial.events, parallel.events);
        let taps = serial.events.as_ref().unwrap();
        assert_eq!(taps.len(), 4);
        let all = || taps.iter().flatten();
        assert!(all().any(|ev| matches!(ev, TapEvent::StepSensed { .. })), "sensed steps tapped");
        assert!(all().any(|ev| matches!(ev, TapEvent::Reminder { .. })), "reminders tapped");
        // Recording observes the episode log but never feeds it back, and
        // the unrecorded path stays tap-free, so full-report equality
        // tests keep comparing `None == None`.
        let plain = run_scale(&small_cfg());
        assert_eq!(serial.per_home, plain.per_home, "recording must not perturb the run");
        assert_eq!(plain.events, None);
    }

    #[test]
    fn traced_run_matches_untraced_report() {
        let plain = run_scale(&small_cfg());
        let traced = observe(&small_cfg(), RunSpec { trace: true, ..RunSpec::default() });
        assert_eq!(plain, traced.report, "recording must not perturb the simulation");
        assert_eq!(traced.telemetry.homes.len(), 4);
        let agg = traced.telemetry.aggregate();
        let t = plain.totals();
        assert_eq!(agg.counter(Ctr::EpisodesStarted), t.episodes_started);
        assert_eq!(agg.counter(Ctr::EpisodesCompleted), t.episodes_completed);
        assert_eq!(agg.counter(Ctr::RemindersIssued), t.reminders);
        assert_eq!(agg.counter(Ctr::Praises), t.praises);
        assert_eq!(agg.counter(Ctr::SessionsStarted), t.sessions_started);
        assert_eq!(agg.counter(Ctr::SessionsCompleted), t.sessions_completed);
        assert_eq!(agg.counter(Ctr::SessionsAbandoned), t.sessions_abandoned);
        assert_eq!(agg.counter(Ctr::CrossActivityFlags), t.cross_activity_flags);
        assert_eq!(agg.counter(Ctr::TotalsSaturated), 0);
        assert!(agg.counter(Ctr::SampleWindows) > 0, "sensing stage should be hot");
        assert!(traced.telemetry.events_recorded() > 0, "trace rings should hold events");
        assert!(traced.peak_pending > 0, "the serving queue is never empty mid-run");
        // Untraced runs carry no recorders.
        assert!(observe(&small_cfg(), RunSpec::default()).telemetry.homes.is_empty());
    }

    #[test]
    fn traced_run_is_jobs_invariant() {
        let trace = RunSpec { trace: true, ..RunSpec::default() };
        let serial = observe(&small_cfg(), trace);
        let parallel = observe(&MetroConfig { jobs: 3, ..small_cfg() }, trace);
        assert_eq!(serial.telemetry, parallel.telemetry);
        assert_eq!(serial.telemetry.to_jsonl(), parallel.telemetry.to_jsonl());
    }

    #[test]
    fn saturated_totals_warn_in_render() {
        let mut report = run_scale(&small_cfg());
        report.per_home[0].reminders = u64::MAX;
        report.per_home[1].reminders = u64::MAX;
        let (t, clamped) = report.totals_checked();
        assert_eq!(t.reminders, u64::MAX);
        assert!(clamped > 0);
        let text = report.render();
        assert!(text.contains("WARNING"), "saturation must be loud: {text}");
        assert!(text.contains("lower bounds"), "{text}");
    }

    #[test]
    fn checkpointing_does_not_perturb_the_run() {
        let plain = run_scale(&small_cfg());
        let stops = [SimTime::from_secs(200), SimTime::from_secs(400)];
        let (report, ckpts) = snapshots(&small_cfg(), &stops);
        assert_eq!(plain, report, "capture must be non-destructive");
        assert_eq!(ckpts.len(), 2);
        assert_eq!(ckpts[0].at, stops[0]);
        assert_eq!(ckpts[0].homes.len(), 4);
        assert!(ckpts[0].des_events < ckpts[1].des_events);
    }

    #[test]
    fn resume_matches_uninterrupted_run() {
        let cfg = small_cfg();
        let full = run_scale(&cfg);
        let (_, ckpts) = snapshots(&cfg, &[SimTime::from_secs(300)]);
        let resumed = resume(&cfg, &ckpts[0]).unwrap();
        assert_eq!(full, resumed, "snapshot-then-resume must be invisible");
    }

    #[test]
    fn snapshot_survives_the_codec_and_resumes() {
        let cfg = small_cfg();
        let (_, ckpts) = snapshots(&cfg, &[SimTime::from_secs(300)]);
        let blob = crate::checkpoint::save_checkpoint(&ckpts[0], 2);
        let back = crate::checkpoint::load_checkpoint(&blob, 2).unwrap();
        assert_eq!(back, ckpts[0]);
        assert_eq!(resume(&cfg, &back).unwrap(), run_scale(&cfg));
    }

    #[test]
    fn resume_rejects_a_different_config_but_not_resume_knobs() {
        let cfg = small_cfg();
        let (_, ckpts) = snapshots(&cfg, &[SimTime::from_secs(300)]);
        let reseeded = MetroConfig { seed: 9, ..small_cfg() };
        assert!(matches!(
            resume(&reseeded, &ckpts[0]),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        // Worker count is a resume-time free choice.
        let parallel = MetroConfig { jobs: 3, ..small_cfg() };
        assert_eq!(resume(&parallel, &ckpts[0]).unwrap(), run_scale(&cfg));
    }

    #[test]
    fn traced_resume_merges_counters_across_the_boundary() {
        let cfg = small_cfg();
        let full = observe(&cfg, RunSpec { trace: true, ..RunSpec::default() });
        let stops = [SimTime::from_secs(300)];
        let ckpts = observe(&cfg, RunSpec { trace: true, stops: &stops, ..RunSpec::default() })
            .checkpoints;
        let resumed =
            run(&cfg, &RunSpec { trace: true, resume: Some(&ckpts[0]), ..RunSpec::default() })
                .unwrap();
        assert_eq!(resumed.report, full.report);
        assert_eq!(
            resumed.telemetry, full.telemetry,
            "telemetry must cover the whole run, not just the resumed tail"
        );
    }

    #[test]
    fn resume_can_keep_checkpointing() {
        let cfg = small_cfg();
        let (_, first) = snapshots(&cfg, &[SimTime::from_secs(200)]);
        let stops = [SimTime::from_secs(400)];
        let again =
            run(&cfg, &RunSpec { stops: &stops, resume: Some(&first[0]), ..RunSpec::default() })
                .unwrap();
        assert_eq!(again.report, run_scale(&cfg));
        // A re-checkpointed snapshot is as good as one from the original
        // run: resuming it still lands on the uninterrupted result.
        let second = &again.checkpoints[0];
        assert_eq!(resume(&cfg, second).unwrap(), run_scale(&cfg));
        let (_, direct) = snapshots(&cfg, &stops);
        assert_eq!(*second, direct[0], "chained and direct snapshots agree");
    }

    #[test]
    fn snapshot_at_the_horizon_resumes_into_a_longer_run() {
        // The degenerate-but-natural CLI flow: serve to T, snapshot the
        // *end* state, later resume to 2T. The snapshot must carry each
        // home's natural next wake even though the capturing run's
        // horizon ended — a pending set truncated at the old horizon
        // would resume into a dead fleet.
        let short = MetroConfig { horizon: SimDuration::from_secs(300), ..small_cfg() };
        let long = MetroConfig { horizon: SimDuration::from_secs(600), ..small_cfg() };
        let (_, ckpts) = snapshots(&short, &[SimTime::from_secs(300)]);
        assert!(
            ckpts[0].homes.iter().all(|h| !h.pending.is_empty()),
            "an end-of-run snapshot must still hold every home's next wake"
        );
        let resumed = resume(&long, &ckpts[0]).unwrap();
        assert_eq!(resumed, run_scale(&long));
    }

    #[test]
    fn logging_does_not_perturb_the_run_and_captures_every_transition() {
        let cfg = small_cfg();
        let out = observe(&cfg, RunSpec { log: true, ..RunSpec::default() });
        let (report, wal) = (out.report, out.wal);
        assert_eq!(report, run_scale(&cfg), "the log is derived, never fed back");
        assert!(!wal.is_empty(), "a serving fleet must log transitions");
        assert!(
            wal.windows(2).all(|w| (w[0].at, w[0].home) <= (w[1].at, w[1].home)),
            "records arrive fleet-ordered by (at, home)"
        );
        // Every counter the report accumulates is the sum of its log
        // increments: the WAL is a complete account of the run.
        let t = report.totals();
        let sum = |f: fn(&WalRecord) -> u8| wal.iter().map(|r| u64::from(f(r))).sum::<u64>();
        assert_eq!(sum(|r| r.reminders), t.reminders);
        assert_eq!(sum(|r| r.praises), t.praises);
        assert_eq!(sum(|r| r.sessions_completed), t.sessions_completed);
        let starts =
            wal.iter().filter(|r| r.flags & wal::EPISODE_STARTED != 0).count() as u64;
        assert_eq!(starts, t.episodes_started);
        // Unlogged runs carry no records.
        assert!(observe(&cfg, RunSpec::default()).wal.is_empty());
    }

    #[test]
    fn wal_is_jobs_invariant() {
        let log = RunSpec { log: true, ..RunSpec::default() };
        let serial = observe(&small_cfg(), log).wal;
        let parallel = observe(&MetroConfig { jobs: 3, ..small_cfg() }, log).wal;
        assert_eq!(serial, parallel, "worker count must not reorder or change the log");
    }

    #[test]
    fn durable_resume_is_bit_identical_to_an_uninterrupted_run() {
        let cfg = small_cfg();
        let stops: Vec<_> = [150, 300, 450].map(SimTime::from_secs).to_vec();
        let (report, run) = run_scale_durable(&cfg, &stops);
        assert_eq!(report, run_scale(&cfg));
        assert_eq!(run.deltas.len(), 2);
        assert_eq!(run.last_checkpoint_at(), SimTime::from_secs(450));
        // The folded chain is byte-for-byte the snapshot a full-capture
        // run would have taken at the last stop.
        let (_, direct) = snapshots(&cfg, &[SimTime::from_secs(450)]);
        assert_eq!(run.compacted().unwrap(), direct[0]);
        // base → deltas → log tail replays into the uninterrupted result,
        // at another worker count too.
        assert_eq!(resume_scale_durable(&cfg, &run).unwrap(), report);
        let parallel = MetroConfig { jobs: 3, ..small_cfg() };
        assert_eq!(resume_scale_durable(&parallel, &run).unwrap(), report);
    }

    #[test]
    fn a_tampered_log_tail_is_caught_as_divergence() {
        let cfg = small_cfg();
        let (_, mut run) = run_scale_durable(&cfg, &[SimTime::from_secs(150)]);
        let ckpt_at = run.last_checkpoint_at();
        let victim = run
            .wal
            .iter()
            .position(|r| r.at > ckpt_at)
            .expect("a 600s run logs past the 150s checkpoint");
        run.wal[victim].reminders = run.wal[victim].reminders.wrapping_add(1);
        let (at, home) = (run.wal[victim].at, run.wal[victim].home);
        match resume_scale_durable(&cfg, &run) {
            Err(CheckpointError::WalDivergence { at: got_at, home: got_home }) => {
                assert_eq!((got_at, got_home), (at, home));
            }
            other => panic!("tampered log must diverge, got {other:?}"),
        }
        // Records already covered by the snapshot chain are not replayed;
        // only the tail is cross-checked.
        run.wal[victim].reminders = run.wal[victim].reminders.wrapping_sub(1);
        if let Some(head) = run.wal.iter().position(|r| r.at <= ckpt_at) {
            run.wal[head].praises = run.wal[head].praises.wrapping_add(1);
            assert!(resume_scale_durable(&cfg, &run).is_ok());
        }
    }

    /// The stored tail must be a *prefix* of the replay: a torn log (a
    /// shorter tail) resumes, but a record past the replay's end belongs
    /// to another history and diverges right there.
    #[test]
    fn a_log_longer_than_the_replay_is_caught_as_divergence() {
        let cfg = small_cfg();
        let (_, mut run) = run_scale_durable(&cfg, &[SimTime::from_secs(150)]);
        let horizon_end = SimTime::ZERO + cfg.horizon;
        let mut torn = run.clone();
        torn.wal.truncate(torn.wal.len() - 3);
        assert!(resume_scale_durable(&cfg, &torn).is_ok(), "a torn log is a prefix");
        let extra = WalRecord {
            at: horizon_end,
            home: 0,
            act: wal::NO_ACT,
            flags: 0,
            reminders: 0,
            praises: 1,
            sessions_started: 0,
            sessions_completed: 0,
            sessions_abandoned: 0,
            cross_activity: 0,
        };
        run.wal.push(extra);
        match resume_scale_durable(&cfg, &run) {
            Err(CheckpointError::WalDivergence { at, home }) => {
                assert_eq!((at, home), (horizon_end, 0));
            }
            other => panic!("a record past the replay must diverge, got {other:?}"),
        }
        // A shorter resume never reaches the extra record, so it passes.
        let shorter = MetroConfig { horizon: SimDuration::from_secs(500), ..small_cfg() };
        assert!(resume_scale_durable(&shorter, &run).is_ok());
    }

    #[test]
    fn durable_chain_refuses_a_foreign_config() {
        let cfg = small_cfg();
        let (_, run) = run_scale_durable(&cfg, &[SimTime::from_secs(150)]);
        let reseeded = MetroConfig { seed: cfg.seed + 1, ..small_cfg() };
        assert!(matches!(
            resume_scale_durable(&reseeded, &run),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
    }

    /// A policy aggressive enough that the small test fleet escalates.
    fn eager_policy() -> CarePolicy {
        CarePolicy {
            prompt_failure_streak: 1,
            missed_adl_streak: 1,
            ack_delay_ms: [20_000, 10_000, 5_000],
            resolve_after_ms: 30_000,
            ..CarePolicy::default()
        }
    }

    #[test]
    fn care_overlay_is_observation_only_and_invariant() {
        let policy = eager_policy();
        let care = RunSpec { care: Some(&policy), ..RunSpec::default() };
        let cfg = small_cfg();
        let out = observe(&cfg, care);
        assert_eq!(out.report, run_scale(&cfg), "care is derived, never fed back");
        let log = out.care.expect("care was requested");
        assert!(!log.events.is_empty(), "an eager policy must escalate somewhere");
        assert!(
            log.events.windows(2).all(|w| {
                (w[0].at, w[0].home, w[0].seq) < (w[1].at, w[1].home, w[1].seq)
            }),
            "the care log is strictly (at, home, seq)-ordered"
        );
        let parallel = MetroConfig { jobs: 3, ..small_cfg() };
        assert_eq!(Some(&log), observe(&parallel, care).care.as_ref(), "jobs must not change care");
        assert!(log.analytics.compliance_pct.total() > 0, "homes sample compliance");
        assert!(observe(&cfg, RunSpec::default()).care.is_none(), "care off ⇒ no care output");
    }

    #[test]
    fn traced_care_counts_the_escalation_lifecycle() {
        let policy = eager_policy();
        let cfg = small_cfg();
        let spec = RunSpec { trace: true, care: Some(&policy), ..RunSpec::default() };
        let traced = observe(&cfg, spec);
        let care = traced.care.expect("care was requested");
        let agg = traced.telemetry.aggregate();
        let count = |kind| care.events.iter().filter(|e| e.kind == kind).count() as u64;
        assert_eq!(agg.counter(Ctr::EscalationsRaised), count(CareEventKind::Raised));
        assert_eq!(agg.counter(Ctr::EscalationsAcked), count(CareEventKind::Acked));
        assert_eq!(agg.counter(Ctr::EscalationsResolved), count(CareEventKind::Resolved));
        assert_eq!(traced.report, run_scale(&cfg), "tracing + care stays observation-only");
    }

    /// The served path must stream the exact batch care log: per-wake
    /// drains plus the finish drain cover every event, and the merged
    /// output is bit-identical to the batch overlay.
    #[test]
    fn served_care_matches_the_batch_overlay() {
        let policy = eager_policy();
        let cfg = small_cfg();
        let (_, _, batch_care) = run_scale_care_walled(&cfg, &policy);
        let ctx = ServeCtx::new(cfg.clone()).expect("small fleets fit").with_care(policy.clone());
        let mut shards = Vec::new();
        let mut streamed = Vec::new();
        let mut deliveries = Vec::new();
        for (first, count) in ctx.chunks() {
            let mut session = ctx.session(first, count, false, false);
            let mut due = Vec::new();
            while session.next_epoch(&mut due).is_some() {
                for &home in &due {
                    while let Some(now) = session.next_wake(home) {
                        session.serve_wake(home, now, false, &mut deliveries);
                        session.drain_care(home, &mut streamed);
                    }
                }
            }
            session.finish_care(&mut streamed);
            shards.push(session.finish());
        }
        let (_, _, care) = collect_served(&cfg, shards);
        let care = care.expect("care was enabled on the context");
        assert_eq!(care, batch_care, "served care diverged from batch");
        streamed.sort_unstable_by_key(|e| (e.at, e.home, e.seq));
        assert_eq!(streamed, care.events, "streamed frames miss events");
    }

    #[test]
    fn oversized_fleets_are_rejected_at_session_setup() {
        let cfg = MetroConfig { homes: u32::MAX as usize + 2, ..small_cfg() };
        let err = match ServeCtx::new(cfg) {
            Err(err) => err,
            Ok(_) => panic!("a fleet past the u32 id space must be rejected"),
        };
        assert_eq!(err.homes, u32::MAX as usize + 2);
        assert!(err.to_string().contains("u32"), "{err}");
        // The largest addressable fleet is fine (ids 0..=u32::MAX) —
        // only the context build, never FleetCtx training, runs here.
        assert!(ServeCtx::new(MetroConfig { homes: 4, ..small_cfg() }).is_ok());
    }

    #[test]
    fn seeds_differentiate_homes() {
        let report = run_scale(&small_cfg());
        // Independent RNG streams: not every home behaves identically.
        let first = report.per_home[0];
        assert!(
            report.per_home.iter().any(|h| h != &first),
            "homes should diverge: {:?}",
            report.per_home
        );
    }
}
