//! Metro-scale serving: many homes, one engine.
//!
//! The ROADMAP north star is a base-station fleet serving millions of
//! users; this module is the serving-side counterpart of the PR-1
//! training fleet. [`run_scale`] simulates N independent households —
//! each a full CoReDA deployment: per-activity [`Coreda`] systems with
//! their own sensornets and planners, plus a home-wide
//! [`SessionTracker`] — for a wall of simulated hours, sharded across
//! [`FleetEngine`] workers.
//!
//! Two engine modes run the *same* per-instant pipeline logic:
//!
//! - [`EngineKind::Wheel`] (the metro engine): each shard multiplexes its
//!   homes over one timing-wheel [`Simulator`]; homes sleep through quiet
//!   stretches and wake event-driven — at the next episode start, the
//!   next 100 ms pipeline tick of a running episode, or the session
//!   tracker's idle-close deadline.
//! - [`EngineKind::Heap`] (the seed baseline): dense 10 Hz polling of
//!   every home across the whole horizon on the original binary-heap
//!   queue — what the pre-metro code would have done.
//!
//! Both produce bit-identical [`HomeStats`] because quiet instants draw
//! no randomness, and results are bit-identical at any `jobs` count
//! because every random stream is counter-derived per home
//! ([`derive_seed`]) and homes never interact.
//!
//! Home state is laid out struct-of-arrays: each worker owns a [`Shard`]
//! of parallel vectors indexed by shard-local home id (the per-activity
//! [`Coreda`] systems live in one home-major arena), and everything
//! immutable — ADL specs, trained planner templates, the reminding
//! renderer, the session-tracker name tables — is built once per run in
//! a [`FleetCtx`] and shared by reference or `Arc`. The wake loop also
//! batches every wake sharing an instant and sweeps the due homes in
//! ascending index order, so same-instant work walks the arenas in
//! memory order. See DESIGN.md "Memory layout & cache locality" for the
//! ownership map and the bytes-per-home budget.

use std::sync::Arc;

use coreda_adl::activity::catalog;
use coreda_adl::activity::AdlSpec;
use coreda_adl::patient::PatientProfile;
use coreda_adl::routine::Routine;
use coreda_des::rng::SimRng;
use coreda_des::sim::Simulator;
use coreda_des::time::{SimDuration, SimTime};
use coreda_des::{Clock, SimClock};

use crate::checkpoint::{
    compact, config_digest, delta_checkpoint, CheckpointError, DeltaCheckpoint, HomeCheckpoint,
    MetroCheckpoint,
};
use crate::escalation::{CareEvent, CareEventKind, CareMonitor, CareOutput, CarePolicy, FleetAnalytics};
use crate::fleet::{default_jobs, derive_seed, FleetEngine};
use crate::live::StochasticBehavior;
use crate::planning::PlanningSubsystem;
use crate::reminding::RemindingSubsystem;
use crate::sessions::{SessionEvent, SessionTracker};
use crate::system::{Coreda, CoredaConfig, LiveEpisode};
use crate::telemetry::{Ctr, HomeRecorder, Telemetry, TraceKind};
use crate::wal::{self, WalRecord};

/// Which event queue drives the serving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Timing-wheel queue, event-driven wakes (the metro engine).
    Wheel,
    /// Binary-heap queue, dense 10 Hz polling (the seed baseline).
    Heap,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineKind::Wheel => "wheel",
            EngineKind::Heap => "heap",
        })
    }
}

/// How the wake loop orders same-window work. Both modes produce
/// bit-identical output — reports, telemetry, WAL, checkpoints, care
/// logs, served streams — because the reorder is applied only across
/// *distinct homes*, which never interact; the mode is excluded from
/// [`config_digest`] like `jobs` and `engine`, so checkpoints move
/// freely between modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Epoch-tiled locality scheduling (the default): all wakes inside a
    /// bounded near-instant window ([`EPOCH_MS`]) drain in one pass and
    /// are served grouped by home in ascending arena order, so a 100k-home
    /// sweep touches each due home's state once per window instead of
    /// once per instant.
    Epoch,
    /// Strict global `(due, seq)` order, batching only wakes that share
    /// one exact instant — the reference sweep the differential suite
    /// holds epoch tiling against.
    Strict,
}

impl std::fmt::Display for SchedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SchedMode::Epoch => "epoch",
            SchedMode::Strict => "strict",
        })
    }
}

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
    /// Queue/scheduling mode.
    pub engine: EngineKind,
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
    /// Wake-ordering mode. Like `jobs` and `engine`, a pure performance
    /// knob: results are bit-identical either way.
    pub sched: SchedMode,
}

impl Default for MetroConfig {
    fn default() -> Self {
        MetroConfig {
            homes: 16,
            horizon: SimDuration::from_secs(1800),
            seed: 2007,
            jobs: default_jobs(),
            engine: EngineKind::Wheel,
            gap_min: SimDuration::from_secs(60),
            gap_max: SimDuration::from_secs(240),
            system: CoredaConfig::default(),
            train_episodes: 150,
            idle_close: SimDuration::from_secs(120),
            sched: SchedMode::Epoch,
        }
    }
}

/// What one home did over the horizon. Identical across engines and at
/// any worker count.
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
    /// 100 ms pipeline ticks executed (the logical serving work — the
    /// same count whichever engine ran them).
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
}

/// One event on a home's serving tap — the ordered stream a differential
/// harness compares across engines and worker counts (exact per-home
/// equality is a much stronger check than equal counters).
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
        out: crate::system::TickOutcome,
    },
    /// The session tracker recognised an event.
    Session(SessionEvent),
}

/// The result of a [`run_scale`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// Homes served.
    pub homes: usize,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Engine that ran the serve.
    pub engine: EngineKind,
    /// Per-home statistics, in home order.
    pub per_home: Vec<HomeStats>,
    /// Raw DES events processed across all shards. Jobs-invariant, but
    /// engine-*dependent* (dense polling pops far more events than
    /// event-driven wakes) — excluded from cross-engine comparisons.
    pub des_events: u64,
    /// Per-home serving taps, in home order. `None` unless the run was
    /// made through [`run_scale_recorded`]; when present, the streams are
    /// bit-identical across engines and worker counts.
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
            "metro-scale serve: {homes} homes x {secs} s ({engine} engine)",
            homes = self.homes,
            secs = self.horizon.as_millis() / 1000,
            engine = self.engine,
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

/// Everything immutable a fleet shares, built once per run: ADL specs,
/// canonical routines, trained planner templates, the reminding renderer
/// and the session-tracker prototype (whose activity/name tables are
/// `Arc`-shared, so cloning it per home is two reference bumps). Worker
/// shards borrow it read-only.
struct FleetCtx {
    specs: Vec<Arc<AdlSpec>>,
    routines: Vec<Routine>,
    templates: Vec<Arc<PlanningSubsystem>>,
    reminding: Arc<RemindingSubsystem>,
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
                Arc::new(planner)
            })
            .collect();
        FleetCtx {
            specs: specs.into_iter().map(Arc::new).collect(),
            routines,
            templates,
            reminding: Arc::new(RemindingSubsystem::new(RESIDENT)),
            tracker_proto,
        }
    }
}

/// Hot per-home scheduling state — one `Copy` record per home, packed
/// contiguously so the wake loop touches a single cache line per idle
/// home instead of chasing a `Home` box.
#[derive(Debug, Clone, Copy)]
struct SchedState {
    ep_index: u64,
    next_start: SimTime,
    /// Coalesces duplicate same-instant wakes in the wheel engine.
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

/// Width of the epoch-tiling window, in milliseconds: one level-0
/// rotation of the timing wheel. Wakes within one window pop
/// bucket-by-bucket without a cascade anyway, so draining the whole
/// window in one pass is pure batching — and the bound keeps a home's
/// in-window follow-up chain short (a handful of 100 ms pipeline
/// ticks), so the inline merge stays a linear scan over a tiny vec.
const EPOCH_MS: u64 = 256;

/// Routes a follow-up wake spawned while serving an epoch chain: dues
/// inside the window stay inline (the chain serves them immediately, in
/// due order), dues past it go to the queue like any other wake. Legal
/// because the simulator clock already sits at the window end.
fn push_follow(
    sim: &mut Simulator<Wake>,
    inline: &mut Vec<SimTime>,
    end: SimTime,
    due: SimTime,
    i: usize,
) {
    if due <= end {
        inline.push(due);
    } else {
        sim.schedule_at(due, Wake(i));
    }
}

fn draw_gap(rng: &mut SimRng, gap_min_ms: u64, gap_max_ms: u64) -> SimDuration {
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let ms = rng.uniform_range(gap_min_ms as f64, gap_max_ms as f64) as u64;
    SimDuration::from_millis(ms)
}

fn count_session_event(stats: &mut HomeStats, ev: SessionEvent) {
    match ev {
        SessionEvent::Started { .. } => stats.sessions_started += 1,
        SessionEvent::Ended { completed: true, .. } => stats.sessions_completed += 1,
        SessionEvent::Ended { completed: false, .. } => stats.sessions_abandoned += 1,
        SessionEvent::CrossActivityUse { .. } => stats.cross_activity_flags += 1,
    }
}

/// Mirrors a session event into the flight recorder, stamped with the
/// event's *own* instant (idle closes fire at the deadline, not at the
/// tick that noticed them).
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

/// Bumps the home's escalation counters for freshly emitted care
/// events — per-home recorders, so the counts merge in home order like
/// every other telemetry stream.
fn count_care_events(rec: &mut HomeRecorder, fresh: &[CareEvent]) {
    for ev in fresh {
        rec.inc(match ev.kind {
            CareEventKind::Raised => Ctr::EscalationsRaised,
            CareEventKind::Acked => Ctr::EscalationsAcked,
            CareEventKind::Resolved => Ctr::EscalationsResolved,
        });
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
    /// Gap/start draws — drawn at the same points by both engines.
    sched_rngs: Vec<SimRng>,
    episodes: Vec<Option<RunningEpisode>>,
    /// Hot lanes: per-home scheduling + statistics, one row per home.
    hot: Vec<HomeLanes>,
    /// Serving taps: outer `Some` when the run records event streams.
    taps: Option<Vec<Vec<TapEvent>>>,
    /// Flight recorders: outer `Some` when the run collects telemetry.
    recs: Option<Vec<HomeRecorder>>,
    /// Write-ahead event log: `Some` when the run appends one record per
    /// observable-transition wake (quiet wakes append nothing).
    wal: Option<Vec<WalRecord>>,
    /// Caregiver escalation overlay: `Some` when the run watches the
    /// derived records for escalation triggers.
    care: Option<CareState>,
    /// One behaviour serves the whole shard: it holds only the shared
    /// profile and call-local scratch, never per-home state.
    behavior: StochasticBehavior,
    /// Session events buffered during a tick (the report sink cannot
    /// borrow the recorder while `live_tick` holds it).
    scratch_sessions: Vec<SessionEvent>,
    /// Same-instant wake batch — strict wake-loop scratch.
    batch: Vec<usize>,
    /// Drained epoch window — epoch wake-loop scratch.
    epoch: Vec<(SimTime, Wake)>,
    /// In-window follow-ups of the chain being served — epoch scratch.
    inline: Vec<SimTime>,
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
            for (act, (spec, template)) in ctx.specs.iter().zip(&ctx.templates).enumerate() {
                let seed = derive_seed(cfg.seed, "metro-system", (id as u64) * 16 + act as u64);
                systems.push(Coreda::with_shared(
                    Arc::clone(spec),
                    Arc::clone(template),
                    Arc::clone(&ctx.reminding),
                    cfg.system,
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
            recs: trace.then(|| (0..count).map(|_| HomeRecorder::new()).collect()),
            wal: log.then(Vec::new),
            care: care.map(|policy| CareState {
                policy: policy.clone(),
                monitors: (first_home..first_home + count)
                    .map(|id| CareMonitor::new(u32::try_from(id).expect("fleets fit in u32")))
                    .collect(),
                analytics: FleetAnalytics::new(),
                finished: false,
            }),
            behavior: StochasticBehavior::new(PatientProfile::moderate(RESIDENT)),
            scratch_sessions: Vec::new(),
            batch: Vec::new(),
            epoch: Vec::new(),
            inline: Vec::new(),
            gap_min_ms: cfg.gap_min.as_millis(),
            gap_max_ms: cfg.gap_max.as_millis(),
        }
    }

    fn len(&self) -> usize {
        self.hot.len()
    }

    /// The canonical per-instant sequence for home `i` — identical code
    /// for both engines, so cross-engine equality reduces to both engines
    /// calling it at every instant where anything can change.
    fn poll_instant(&mut self, i: usize, now: SimTime) {
        // 1. Begin the next episode when its start arrives.
        if self.episodes[i].is_none() && now >= self.hot[i].sched.next_start {
            let ep_index = self.hot[i].sched.ep_index;
            let act = usize::try_from(ep_index).unwrap_or(usize::MAX) % self.acts;
            let mut rng = self.roots[i].substream("episode", ep_index);
            let system = &mut self.systems[i * self.acts + act];
            let ep =
                system.begin_live(&self.ctx.routines[act], &mut self.behavior, now, &mut rng, None);
            self.episodes[i] = Some(RunningEpisode { act, ep, rng });
            self.hot[i].stats.episodes_started += 1;
            if let Some(taps) = self.taps.as_mut() {
                taps[i].push(TapEvent::EpisodeStarted { at: now, act });
            }
            if let Some(recs) = self.recs.as_mut() {
                let rec = &mut recs[i];
                rec.inc(Ctr::EpisodesStarted);
                #[allow(clippy::cast_possible_truncation)]
                rec.event(
                    now,
                    TraceKind::EpisodeStarted { episode: ep_index.min(u64::from(u32::MAX)) as u32 },
                );
            }
        }

        // 2. Run the running episode's 100 ms pipeline tick.
        let mut finished = false;
        if let Some(run) = self.episodes[i].as_mut() {
            if now >= run.ep.next_tick_at() {
                let system = &mut self.systems[i * self.acts + run.act];
                let tracker = &mut self.trackers[i];
                let stats = &mut self.hot[i].stats;
                let taps = &mut self.taps;
                let scratch = &mut self.scratch_sessions;
                let out = system.live_tick(
                    &mut run.ep,
                    &self.ctx.routines[run.act],
                    &mut self.behavior,
                    now,
                    &mut run.rng,
                    None,
                    self.recs.as_mut().map(|r| &mut r[i]),
                    &mut |src, at| {
                        for ev in tracker.on_report(src, at) {
                            count_session_event(stats, ev);
                            if let Some(taps) = taps.as_mut() {
                                taps[i].push(TapEvent::Session(ev));
                            }
                            scratch.push(ev);
                        }
                    },
                );
                let stats = &mut self.hot[i].stats;
                stats.pipeline_ticks += 1;
                stats.reminders += u64::from(out.reminders);
                stats.praises += u64::from(out.praises);
                if out.completed_now {
                    stats.episodes_completed += 1;
                }
                if out != crate::system::TickOutcome::default() {
                    if let Some(taps) = self.taps.as_mut() {
                        taps[i].push(TapEvent::Tick { at: now, out });
                    }
                }
                if let Some(recs) = self.recs.as_mut() {
                    // The report sink above could not borrow the recorder
                    // while `live_tick` held it; drain the buffered
                    // session events now, in arrival order.
                    let rec = &mut recs[i];
                    for ev in self.scratch_sessions.drain(..) {
                        record_session_event(rec, ev);
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
                finished = out.finished;
            }
        }

        // 3. Home-wide idle close (the tracker's clock tick).
        if let Some(ev) = self.trackers[i].on_tick(now) {
            count_session_event(&mut self.hot[i].stats, ev);
            if let Some(taps) = self.taps.as_mut() {
                taps[i].push(TapEvent::Session(ev));
            }
            if let Some(recs) = self.recs.as_mut() {
                record_session_event(&mut recs[i], ev);
            }
        }

        // 4. Episode cleanup: draw the quiet gap and schedule the next.
        if finished {
            self.episodes[i] = None;
            let gap = draw_gap(&mut self.sched_rngs[i], self.gap_min_ms, self.gap_max_ms);
            let s = &mut self.hot[i].sched;
            s.ep_index += 1;
            s.next_start = align_up(s.offset_ms, now + gap);
        }
    }

    /// Serves home `i`'s wake and, when the write-ahead log is on,
    /// appends one record if the wake produced any observable
    /// assistance-state transition (episode start/end, reminder, praise,
    /// session event). The record is *derived* — a diff of the home's
    /// counters around the canonical [`Shard::poll_instant`] — so
    /// logging cannot perturb the simulation, and quiet wakes (the
    /// overwhelming majority under dense polling) append nothing, which
    /// is what makes the log identical across engines and O(activity)
    /// in cost.
    fn poll_wake(&mut self, i: usize, now: SimTime) {
        if self.wal.is_none() && self.care.is_none() {
            self.poll_instant(i, now);
            return;
        }
        let before = self.hot[i].stats;
        let ep_before = self.episodes[i].is_some();
        self.poll_instant(i, now);
        // Quiet wake — the overwhelming majority under dense polling:
        // every counter a record could carry is unchanged and the
        // episode slot did not flip, so the derived record would be
        // trivial. Bail before building it; this keeps the overlay and
        // the log at O(activity) rather than O(ticks).
        {
            let after = &self.hot[i].stats;
            if ep_before == self.episodes[i].is_some()
                && after.episodes_started == before.episodes_started
                && after.episodes_completed == before.episodes_completed
                && after.reminders == before.reminders
                && after.praises == before.praises
                && after.sessions_started == before.sessions_started
                && after.sessions_completed == before.sessions_completed
                && after.sessions_abandoned == before.sessions_abandoned
                && after.cross_activity_flags == before.cross_activity_flags
            {
                return;
            }
        }
        let after = self.hot[i].stats;
        let started = after.episodes_started > before.episodes_started;
        let ep_after = self.episodes[i].is_some();
        let mut flags = 0u8;
        if started {
            flags |= wal::EPISODE_STARTED;
        }
        if (ep_before || started) && !ep_after {
            flags |= wal::EPISODE_ENDED;
        }
        if after.episodes_completed > before.episodes_completed {
            flags |= wal::EPISODE_COMPLETED;
        }
        let act = if started {
            let act = match &self.episodes[i] {
                Some(run) => run.act,
                // Started and finished within this wake: the finish
                // already advanced `ep_index` past the started episode.
                None => {
                    usize::try_from(self.hot[i].sched.ep_index.wrapping_sub(1)).unwrap_or(usize::MAX)
                        % self.acts
                }
            };
            u8::try_from(act).unwrap_or(wal::NO_ACT - 1)
        } else {
            wal::NO_ACT
        };
        let d8 = |a: u64, b: u64| u8::try_from(a.saturating_sub(b)).unwrap_or(u8::MAX);
        let record = WalRecord {
            at: now,
            home: u32::try_from(self.first_home + i).expect("fleets fit in u32"),
            act,
            flags,
            reminders: d8(after.reminders, before.reminders),
            praises: d8(after.praises, before.praises),
            sessions_started: d8(after.sessions_started, before.sessions_started),
            sessions_completed: d8(after.sessions_completed, before.sessions_completed),
            sessions_abandoned: d8(after.sessions_abandoned, before.sessions_abandoned),
            cross_activity: d8(after.cross_activity_flags, before.cross_activity_flags),
        };
        if !record.is_trivial() {
            if let Some(care) = self.care.as_mut() {
                // The monitor is a pure fold over the derived records —
                // the same stream the log stores — so the escalation log
                // inherits the WAL's jobs/engine/served invariances.
                let seen = care.monitors[i].events().len();
                care.monitors[i].observe(&care.policy, &record, &mut care.analytics);
                if let Some(recs) = self.recs.as_mut() {
                    count_care_events(&mut recs[i], &care.monitors[i].events()[seen..]);
                }
            }
            if let Some(wal) = self.wal.as_mut() {
                wal.push(record);
            }
        }
    }

    /// Snapshots everything home `i` cannot rebuild from its config:
    /// system states, live session, RNG positions, the in-flight episode,
    /// scheduling state, statistics, and (when traced) the recorder.
    /// `pending` is the home's share of the shard queue at the snapshot.
    ///
    /// Energy is *not* carried in the stats (it stays zero until
    /// [`Shard::finish`] recomputes it from the restored node meters),
    /// and taps are not checkpointed — a resumed recorded run taps only
    /// the resumed segment.
    fn capture_home(&self, i: usize, pending: Vec<SimTime>) -> HomeCheckpoint {
        let s = self.hot[i].sched;
        HomeCheckpoint {
            systems: self.systems[i * self.acts..(i + 1) * self.acts]
                .iter()
                .map(Coreda::export_state)
                .collect(),
            tracker: self.trackers[i].export_active(),
            root: self.roots[i].state_parts(),
            sched: self.sched_rngs[i].state_parts(),
            episode: self.episodes[i]
                .as_ref()
                .map(|run| (run.act, run.ep.export_state(), run.rng.state_parts())),
            ep_index: s.ep_index,
            next_start: s.next_start,
            last_handled: s.last_handled,
            stats: HomeStats { energy_uj: 0.0, ..self.hot[i].stats },
            pending,
            rec: self.recs.as_ref().map(|r| r[i].export_state()),
        }
    }

    /// Overwrites freshly built home `i` with checkpointed state. The
    /// build-time gap draw is discarded wholesale: the restored
    /// `sched_rng` position already accounts for every draw the original
    /// run made. The caller re-schedules `ckpt.pending` itself.
    ///
    /// `restore_state` on a system whose captured learned weights match
    /// the shared template (always, for a read-only serve) keeps the home
    /// on the template `Arc` — a resumed fleet stays as deduplicated as a
    /// fresh one.
    fn restore_home(&mut self, i: usize, ckpt: &HomeCheckpoint) {
        assert_eq!(
            self.acts,
            ckpt.systems.len(),
            "checkpoint was taken with a different activity set"
        );
        for (system, state) in
            self.systems[i * self.acts..(i + 1) * self.acts].iter_mut().zip(&ckpt.systems)
        {
            system
                .restore_state(state)
                .expect("config digest matched, so the rebuilt system accepts its state");
        }
        self.trackers[i].restore_active(ckpt.tracker);
        self.roots[i] = SimRng::from_state_parts(ckpt.root.0, ckpt.root.1);
        self.sched_rngs[i] = SimRng::from_state_parts(ckpt.sched.0, ckpt.sched.1);
        self.episodes[i] = ckpt.episode.as_ref().map(|&(act, ref ep, rng)| RunningEpisode {
            act,
            ep: LiveEpisode::from_state(ep),
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
            recs[i].restore_state(state);
        }
    }
}

/// One wake of one home (index local to the shard).
#[derive(Debug, Clone, Copy)]
struct Wake(usize);

struct ChunkOut {
    stats: Vec<HomeStats>,
    taps: Option<Vec<Vec<TapEvent>>>,
    recs: Option<Vec<HomeRecorder>>,
    /// Shard-local write-ahead records, in wake order: `(at, home)`
    /// under the strict sweep, home-major within each epoch window
    /// under epoch tiling. Either way the global sort in
    /// `run_scale_inner` lands on the same unique `(at, home)` order.
    wal: Option<Vec<WalRecord>>,
    des_events: u64,
    /// Shard-local queue high-water mark — engine- and jobs-dependent.
    max_pending: usize,
    /// One entry per requested stop: `(processed events at the stop,
    /// per-home snapshots)`, shard-local.
    checkpoints: Vec<(u64, Vec<HomeCheckpoint>)>,
    /// Shard-local escalation log (home-major, per-home time order) and
    /// analytics, when the care overlay ran.
    care: Option<CareOutput>,
}

impl Shard<'_> {
    /// Pops every wake sharing the current instant into `self.batch` and
    /// returns the instant. The due homes are then swept in ascending
    /// index order — homes are independent, so cross-home order within
    /// one instant cannot change any per-home result, and the ascending
    /// sweep walks the shard's arenas in memory order instead of queue
    /// order. Each home's own follow-ups keep their relative dispatch
    /// order (they are always strictly future, so none joins the batch
    /// being swept).
    fn collect_batch(&mut self, sim: &mut Simulator<Wake>, first: usize) -> SimTime {
        let now = sim.now();
        self.batch.clear();
        self.batch.push(first);
        // Dense polling pops whole-fleet instants whose wakes were
        // scheduled home-by-home in ascending order, so batches usually
        // arrive already sorted and duplicate-free: detect that while
        // collecting and skip the re-sort/dedup on the hot path.
        let mut sorted_unique = true;
        let mut last = first;
        while sim.next_due() == Some(now) {
            if let Some(Wake(i)) = sim.step() {
                sorted_unique &= i > last;
                last = i;
                self.batch.push(i);
            }
        }
        if !sorted_unique {
            self.batch.sort_unstable();
            self.batch.dedup();
        }
        now
    }

    /// Serves every wake up to and including `until` with the wheel
    /// engine's scheduling policy. Shared between the inter-checkpoint
    /// segments and the final run to the horizon, so stopping mid-run
    /// reuses the exact loop body an uninterrupted run executes.
    ///
    /// Follow-up wakes are scheduled *unconditionally*, even past the
    /// horizon: `step_until` never pops them, so they cost a queue slot
    /// and nothing else — and it keeps a snapshot's pending set
    /// independent of the horizon the capturing run happened to use. A
    /// checkpoint taken at the very end of a short run must still carry
    /// each home's natural next wake, or a resume with a longer
    /// `--hours` would find a dead fleet.
    fn wheel_segment(&mut self, sim: &mut Simulator<Wake>, until: SimTime) {
        while let Some(Wake(first)) = sim.step_until(until) {
            let now = self.collect_batch(sim, first);
            let mut batch = std::mem::take(&mut self.batch);
            for &i in &batch {
                if self.hot[i].sched.last_handled == Some(now) {
                    // A duplicate wake for an instant already served
                    // (dedup above catches these; kept for parity with
                    // the pre-batching loop).
                    continue;
                }
                self.hot[i].sched.last_handled = Some(now);
                self.poll_wake(i, now);
                if let Some(run) = &self.episodes[i] {
                    sim.schedule_at(run.ep.next_tick_at(), Wake(i));
                } else {
                    sim.schedule_at(self.hot[i].sched.next_start, Wake(i));
                    if let Some(deadline) = self.trackers[i].idle_deadline() {
                        sim.schedule_at(align_up(self.hot[i].sched.offset_ms, deadline), Wake(i));
                    }
                }
            }
            batch.clear();
            self.batch = batch;
        }
    }

    /// The heap engine's dense 10 Hz loop body, segment-shaped like
    /// [`Shard::wheel_segment`] (and scheduling unconditionally for the
    /// same reason). Dense polling makes whole-fleet instants the common
    /// case, so the same-instant batch sweep pays off most here.
    fn heap_segment(&mut self, sim: &mut Simulator<Wake>, until: SimTime) {
        while let Some(Wake(first)) = sim.step_until(until) {
            let now = self.collect_batch(sim, first);
            let mut batch = std::mem::take(&mut self.batch);
            for &i in &batch {
                self.hot[i].sched.last_handled = Some(now);
                self.poll_wake(i, now);
                sim.schedule_at(now + Coreda::TICK, Wake(i));
            }
            batch.clear();
            self.batch = batch;
        }
    }

    /// Serves every wake up to `until` in epoch-tiled order: drain a
    /// bounded near-instant window ([`EPOCH_MS`]) from the queue in one
    /// pass, regroup its wakes by home, and serve each home's chain
    /// contiguously with the next chain's lanes prefetched. Distinct
    /// homes never interact, so reordering *across* homes within the
    /// window is unobservable; *within* a home the chain is served in
    /// strict due order (including follow-ups the chain spawns inside
    /// the window), so every per-home output — and therefore every
    /// deterministic artifact — is bit-identical to the strict sweep.
    fn epoch_segment(&mut self, sim: &mut Simulator<Wake>, engine: EngineKind, until: SimTime) {
        let mut epoch = std::mem::take(&mut self.epoch);
        let mut inline = std::mem::take(&mut self.inline);
        while let Some(t0) = sim.next_due() {
            if t0 > until {
                break;
            }
            // Clip to the segment stop: a checkpoint instant must see
            // exactly the wakes due by then served, no more.
            let end = SimTime::from_millis((t0.as_millis() + EPOCH_MS - 1).min(until.as_millis()));
            epoch.clear();
            sim.drain_until(end, &mut epoch);
            // Group each home's wakes into one contiguous, due-ordered
            // chain. Duplicate keys are identical tuples, so the
            // unstable sort cannot reorder anything observable.
            epoch.sort_unstable_by_key(|&(due, Wake(i))| (i, due));
            let mut k = 0;
            while k < epoch.len() {
                let Wake(i) = epoch[k].1;
                let mut k_end = k + 1;
                while k_end < epoch.len() && epoch[k_end].1 .0 == i {
                    k_end += 1;
                }
                // Pull the next chain's home into cache while this one
                // is being served: one chain of pipeline work is ample
                // distance to hide a main-memory load.
                if k_end < epoch.len() {
                    let Wake(j) = epoch[k_end].1;
                    prefetch(&self.hot[j]);
                    prefetch(&self.systems[j * self.acts]);
                    prefetch(&self.trackers[j]);
                    prefetch(&self.roots[j]);
                }
                self.serve_chain(sim, engine, i, &epoch[k..k_end], end, &mut inline);
                k = k_end;
            }
        }
        if until > sim.now() {
            sim.advance_to(until);
        }
        self.epoch = epoch;
        self.inline = inline;
    }

    /// Serves one home's chain of wakes within an epoch window: the
    /// drained queue entries in `chain` merged with the follow-up wakes
    /// the chain itself spawns inside the window (`inline`, consumed
    /// empty by the time this returns). Equal-instant duplicates
    /// collapse to a single served wake exactly as the strict sweep's
    /// batch dedup does, and every consumed entry is counted so the DES
    /// event totals match the strict engine's pop-per-event accounting.
    fn serve_chain(
        &mut self,
        sim: &mut Simulator<Wake>,
        engine: EngineKind,
        i: usize,
        chain: &[(SimTime, Wake)],
        end: SimTime,
        inline: &mut Vec<SimTime>,
    ) {
        debug_assert!(inline.is_empty());
        let mut cursor = 0;
        loop {
            // Next instant: min over the remaining drained entries
            // (due-sorted) and the inline follow-ups (unsorted, tiny).
            let queued = chain.get(cursor).map(|&(due, _)| due);
            let inlined = inline.iter().copied().min();
            let now = match (queued, inlined) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            // Consume every entry at `now` — duplicates serve once.
            while chain.get(cursor).is_some_and(|&(due, _)| due == now) {
                cursor += 1;
            }
            let before = inline.len();
            inline.retain(|&due| due != now);
            sim.note_processed((before - inline.len()) as u64);
            if engine == EngineKind::Wheel && self.hot[i].sched.last_handled == Some(now) {
                // A duplicate wake for an instant already served (a
                // resume rehydrates the wake that produced the
                // checkpoint's `last_handled`) — consumed and counted,
                // never re-served, matching the strict wheel sweep.
                continue;
            }
            self.hot[i].sched.last_handled = Some(now);
            self.poll_wake(i, now);
            match engine {
                EngineKind::Wheel => {
                    if let Some(run) = &self.episodes[i] {
                        push_follow(sim, inline, end, run.ep.next_tick_at(), i);
                    } else {
                        push_follow(sim, inline, end, self.hot[i].sched.next_start, i);
                        if let Some(deadline) = self.trackers[i].idle_deadline() {
                            push_follow(
                                sim,
                                inline,
                                end,
                                align_up(self.hot[i].sched.offset_ms, deadline),
                                i,
                            );
                        }
                    }
                }
                EngineKind::Heap => push_follow(sim, inline, end, now + Coreda::TICK, i),
            }
        }
    }

    fn segment(
        &mut self,
        sim: &mut Simulator<Wake>,
        engine: EngineKind,
        sched: SchedMode,
        until: SimTime,
    ) {
        match sched {
            SchedMode::Epoch => self.epoch_segment(sim, engine, until),
            SchedMode::Strict => match engine {
                EngineKind::Wheel => self.wheel_segment(sim, until),
                EngineKind::Heap => self.heap_segment(sim, until),
            },
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
    /// then happen; the home samples its compliance into the analytics)
    /// and bumps the per-home escalation counters for whatever the
    /// drain emitted. Idempotent — the monitors guard their own finish.
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
                count_care_events(&mut recs[i], &monitor.events()[seen..]);
                recs[i].add(Ctr::CareTrendWindows, monitor.trend_windows());
            }
        }
    }

    /// Folds the shard's arenas into a [`ChunkOut`], recomputing each
    /// home's energy from its (possibly restored) node meters.
    fn finish(mut self, horizon: SimTime, des_events: u64, max_pending: usize, checkpoints: Vec<(u64, Vec<HomeCheckpoint>)>) -> ChunkOut {
        self.finish_care(horizon);
        let acts = self.acts;
        for (i, lanes) in self.hot.iter_mut().enumerate() {
            lanes.stats.energy_uj =
                self.systems[i * acts..(i + 1) * acts].iter().map(Coreda::total_energy_uj).sum();
        }
        let care = self.care.map(|care| {
            let mut out = CareOutput::default();
            for monitor in care.monitors {
                out.events.extend_from_slice(monitor.events());
            }
            out.analytics = care.analytics;
            out
        });
        ChunkOut {
            stats: self.hot.into_iter().map(|lanes| lanes.stats).collect(),
            taps: self.taps,
            recs: self.recs,
            wal: self.wal,
            des_events,
            max_pending,
            checkpoints,
            care,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_chunk(
    cfg: &MetroConfig,
    ctx: &FleetCtx,
    first_home: usize,
    count: usize,
    record: bool,
    trace: bool,
    log: bool,
    care: Option<&CarePolicy>,
    stops: &[SimTime],
    resume: Option<&[HomeCheckpoint]>,
) -> ChunkOut {
    let mut shard = Shard::build(cfg, ctx, first_home, count, record, trace, log, care);
    let horizon_end = SimTime::ZERO + cfg.horizon;

    let mut sim: Simulator<Wake> = match cfg.engine {
        EngineKind::Wheel => Simulator::new(),
        EngineKind::Heap => Simulator::with_heap_queue(),
    };

    // Initial scheduling: a fresh run wakes each home at its first
    // instant of interest; a resumed run rehydrates the exact pending
    // wakes the checkpoint drained, in their drained (dispatch) order.
    match resume {
        None => match cfg.engine {
            EngineKind::Wheel => {
                for (i, s) in shard.hot.iter().enumerate() {
                    sim.schedule_at(s.sched.next_start, Wake(i));
                }
            }
            EngineKind::Heap => {
                for (i, s) in shard.hot.iter().enumerate() {
                    sim.schedule_at(SimTime::from_millis(s.sched.offset_ms), Wake(i));
                }
            }
        },
        Some(ckpts) => {
            assert_eq!(ckpts.len(), count, "resume shard size mismatch");
            for (i, ckpt) in ckpts.iter().enumerate() {
                shard.restore_home(i, ckpt);
                for &due in &ckpt.pending {
                    sim.schedule_at(due, Wake(i));
                }
            }
        }
    }

    let mut checkpoints = Vec::with_capacity(stops.len());
    for &stop in stops {
        shard.segment(&mut sim, cfg.engine, cfg.sched, stop);
        checkpoints.push(shard.capture(&sim));
    }
    shard.segment(&mut sim, cfg.engine, cfg.sched, horizon_end);
    shard.finish(horizon_end, sim.processed(), sim.max_pending(), checkpoints)
}

/// Serves `cfg.homes` households for `cfg.horizon`, sharded across
/// `cfg.jobs` workers. Results are bit-identical at any worker count and
/// across both [`EngineKind`]s (modulo [`ScaleReport::des_events`]).
#[must_use]
pub fn run_scale(cfg: &MetroConfig) -> ScaleReport {
    run_scale_with(cfg, false)
}

/// [`run_scale`] with per-home serving taps recorded into
/// [`ScaleReport::events`] — the input to differential oracles that
/// compare whole event streams, not just counters.
#[must_use]
pub fn run_scale_recorded(cfg: &MetroConfig) -> ScaleReport {
    run_scale_with(cfg, true)
}

/// The result of a [`run_scale_traced`] call: the report plus the
/// flight-recorder telemetry collected alongside it.
#[derive(Debug)]
pub struct TraceOutput {
    /// The serving report — identical to what [`run_scale`] returns for
    /// the same config (recording draws no randomness and mutates no
    /// simulation state).
    pub report: ScaleReport,
    /// Per-home flight recorders, merged deterministically in home order.
    pub telemetry: Telemetry,
    /// Deepest any shard's event queue ever got. Engine- and
    /// jobs-*dependent* (sharding changes how many homes share a queue),
    /// so it lives outside [`Telemetry`] and is never part of
    /// determinism comparisons.
    pub peak_pending: usize,
}

/// [`run_scale`] with the flight recorder on: every home collects
/// pipeline counters, stage-latency histograms, and a bounded ring of
/// trace events. The report itself is bit-identical to an untraced run,
/// and the telemetry is bit-identical at any worker count and across
/// engines (recorders are merged in home order).
#[must_use]
pub fn run_scale_traced(cfg: &MetroConfig) -> TraceOutput {
    run_scale_inner(cfg, false, true, false, None, &[], None)
        .expect("a run without a resume source cannot mismatch")
        .0
}

/// [`run_scale`] that additionally snapshots the whole fleet at each
/// instant in `stops` — the run itself is unperturbed (capture drains
/// and re-schedules the queue non-destructively), so the returned report
/// is bit-identical to a plain [`run_scale`] of the same config.
///
/// # Panics
///
/// Panics if `stops` is not sorted ascending or reaches past the
/// horizon. The CLI validates user input before calling; hitting this
/// from code is a bug.
#[must_use]
pub fn run_scale_checkpointed(
    cfg: &MetroConfig,
    stops: &[SimTime],
) -> (ScaleReport, Vec<MetroCheckpoint>) {
    let (out, ckpts, _, _) = run_scale_inner(cfg, false, false, false, None, stops, None)
        .expect("a run without a resume source cannot mismatch");
    (out.report, ckpts)
}

/// [`run_scale_traced`] with fleet snapshots at each instant in `stops`;
/// the snapshots carry the flight-recorder state, so a traced resume
/// continues the same counters and trace rings.
///
/// # Panics
///
/// Panics on invalid `stops`, as [`run_scale_checkpointed`].
#[must_use]
pub fn run_scale_checkpointed_traced(
    cfg: &MetroConfig,
    stops: &[SimTime],
) -> (TraceOutput, Vec<MetroCheckpoint>) {
    let (out, ckpts, _, _) = run_scale_inner(cfg, false, true, false, None, stops, None)
        .expect("a run without a resume source cannot mismatch");
    (out, ckpts)
}

/// Continues a serve from a fleet snapshot to `cfg.horizon`. The
/// resumed report — statistics, energy, DES event count — is
/// bit-identical to an uninterrupted [`run_scale`] of the same config,
/// for any checkpoint instant, any `cfg.jobs`, and either engine.
///
/// # Errors
///
/// [`CheckpointError::ConfigMismatch`] when the snapshot's
/// [`config_digest`] does not match `cfg` (a resume may change only
/// `jobs`, `horizon` and `engine`).
pub fn resume_scale(
    cfg: &MetroConfig,
    ckpt: &MetroCheckpoint,
) -> Result<ScaleReport, CheckpointError> {
    run_scale_inner(cfg, false, false, false, None, &[], Some(ckpt)).map(|(out, ..)| out.report)
}

/// [`resume_scale`] with the flight recorder on. When the snapshot was
/// itself traced, counters and trace rings merge across the boundary:
/// the resumed telemetry describes the whole run, not just the tail.
///
/// # Errors
///
/// [`CheckpointError::ConfigMismatch`], as [`resume_scale`].
pub fn resume_scale_traced(
    cfg: &MetroConfig,
    ckpt: &MetroCheckpoint,
) -> Result<TraceOutput, CheckpointError> {
    run_scale_inner(cfg, false, true, false, None, &[], Some(ckpt)).map(|(out, ..)| out)
}

/// Resume *and* keep checkpointing: continues from `ckpt` and snapshots
/// again at each instant in `stops` (which must lie past the snapshot).
/// This is what a periodically checkpointing server restarts into.
///
/// # Errors
///
/// [`CheckpointError::ConfigMismatch`], as [`resume_scale`].
///
/// # Panics
///
/// Panics on invalid `stops`, as [`run_scale_checkpointed`].
pub fn resume_scale_checkpointed(
    cfg: &MetroConfig,
    ckpt: &MetroCheckpoint,
    stops: &[SimTime],
) -> Result<(ScaleReport, Vec<MetroCheckpoint>), CheckpointError> {
    run_scale_inner(cfg, false, false, false, None, stops, Some(ckpt))
        .map(|(out, ckpts, _, _)| (out.report, ckpts))
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

/// [`run_scale`] with the write-ahead event log on: returns the report
/// plus one [`WalRecord`] per observable-transition wake, fleet-ordered
/// by `(at, home)`. The log is bit-identical across engines and at any
/// worker count, and the report matches an unlogged run exactly
/// (records are derived from counter diffs, never fed back).
#[must_use]
pub fn run_scale_walled(cfg: &MetroConfig) -> (ScaleReport, Vec<WalRecord>) {
    let (out, _, wal, _) = run_scale_inner(cfg, false, false, true, None, &[], None)
        .expect("a run without a resume source cannot mismatch");
    (out.report, wal.expect("wal was requested"))
}

/// [`run_scale`] with the caregiver escalation overlay on: every home's
/// derived transition stream feeds a [`CareMonitor`], and the run
/// returns the fleet-ordered escalation log plus the fleet analytics
/// quantile rollup. The overlay is observation-only — the report is
/// bit-identical to a plain [`run_scale`] — and the care output is
/// bit-identical at any worker count, on either engine, and served ≡
/// batch.
#[must_use]
pub fn run_scale_care(cfg: &MetroConfig, policy: &CarePolicy) -> (ScaleReport, CareOutput) {
    let (out, _, _, care) = run_scale_inner(cfg, false, false, false, Some(policy), &[], None)
        .expect("a run without a resume source cannot mismatch");
    (out.report, care.expect("care was requested"))
}

/// [`run_scale_care`] with the flight recorder on: the telemetry gains
/// the `escalations_raised/acked/resolved` and `care_trend_windows`
/// counters alongside the care output.
#[must_use]
pub fn run_scale_care_traced(cfg: &MetroConfig, policy: &CarePolicy) -> (TraceOutput, CareOutput) {
    let (out, _, _, care) = run_scale_inner(cfg, false, true, false, Some(policy), &[], None)
        .expect("a run without a resume source cannot mismatch");
    (out, care.expect("care was requested"))
}

/// [`run_scale_care`] with the write-ahead log on too — the input the
/// escalation-consistency oracle cross-checks the care log against.
#[must_use]
pub fn run_scale_care_walled(
    cfg: &MetroConfig,
    policy: &CarePolicy,
) -> (ScaleReport, Vec<WalRecord>, CareOutput) {
    let (out, _, wal, care) = run_scale_inner(cfg, false, false, true, Some(policy), &[], None)
        .expect("a run without a resume source cannot mismatch");
    (out.report, wal.expect("wal was requested"), care.expect("care was requested"))
}

/// Runs a serve with incremental durability: a full snapshot at
/// `stops[0]` becomes the base, every later stop becomes a delta diffed
/// against its predecessor, and the write-ahead log covers the whole
/// horizon. The run itself is unperturbed — the report is bit-identical
/// to a plain [`run_scale`].
///
/// # Panics
///
/// Panics if `stops` is empty (a durable run needs at least a base) or
/// invalid as in [`run_scale_checkpointed`].
#[must_use]
pub fn run_scale_durable(cfg: &MetroConfig, stops: &[SimTime]) -> (ScaleReport, DurableRun) {
    assert!(!stops.is_empty(), "a durable run needs at least one checkpoint stop");
    let (out, ckpts, wal, _) = run_scale_inner(cfg, false, false, true, None, stops, None)
        .expect("a run without a resume source cannot mismatch");
    let mut iter = ckpts.into_iter();
    let base = iter.next().expect("stops is non-empty");
    let mut prev = base.clone();
    let mut deltas = Vec::new();
    for cur in iter {
        deltas.push(delta_checkpoint(&prev, &cur));
        prev = cur;
    }
    (out.report, DurableRun { base, deltas, wal: wal.expect("wal was requested") })
}

/// Resumes from a durable chain: folds base → deltas into the newest
/// snapshot, replays the simulation from there to `cfg.horizon`, and
/// cross-checks the replay against the stored log tail — every record
/// the resumed run regenerates past the checkpoint instant must match
/// the stored one, or the log and the snapshot chain belong to
/// different histories. The returned report is bit-identical to an
/// uninterrupted run at any checkpoint cadence, worker count, and
/// engine.
///
/// # Errors
///
/// [`CheckpointError::ConfigMismatch`] / [`CheckpointError::BaseMismatch`]
/// for a chain that does not belong to `cfg`, and
/// [`CheckpointError::WalDivergence`] when the stored log disagrees with
/// the deterministic replay.
pub fn resume_scale_durable(
    cfg: &MetroConfig,
    run: &DurableRun,
) -> Result<ScaleReport, CheckpointError> {
    let ckpt = run.compacted()?;
    let (out, _, regen, _) = run_scale_inner(cfg, false, false, true, None, &[], Some(&ckpt))?;
    let regen = regen.expect("wal was requested");
    // The stored tail past the checkpoint and the regenerated stream
    // must agree record-for-record over their common extent (horizons
    // may differ: a resume is free to run longer or shorter than the
    // run that wrote the log).
    let tail = run.wal.iter().filter(|r| r.at > ckpt.at);
    for (stored, fresh) in tail.zip(&regen) {
        if stored != fresh {
            return Err(CheckpointError::WalDivergence { at: stored.at, home: stored.home });
        }
    }
    Ok(out.report)
}

fn run_scale_with(cfg: &MetroConfig, record: bool) -> ScaleReport {
    run_scale_inner(cfg, record, false, false, None, &[], None)
        .expect("a run without a resume source cannot mismatch")
        .0
        .report
}

/// What one serve produces: trace output, checkpoints at each stop, the
/// event log when one was requested, and the care output when the
/// escalation overlay ran.
type InnerRun =
    (TraceOutput, Vec<MetroCheckpoint>, Option<Vec<WalRecord>>, Option<CareOutput>);

#[allow(clippy::too_many_arguments)]
fn run_scale_inner(
    cfg: &MetroConfig,
    record: bool,
    trace: bool,
    log: bool,
    care: Option<&CarePolicy>,
    stops: &[SimTime],
    resume: Option<&MetroCheckpoint>,
) -> Result<InnerRun, CheckpointError> {
    let horizon_end = SimTime::ZERO + cfg.horizon;
    assert!(
        stops.windows(2).all(|w| w[0] <= w[1]),
        "checkpoint stops must be sorted ascending"
    );
    assert!(
        stops.iter().all(|&s| s <= horizon_end),
        "checkpoint stops must lie within the horizon"
    );
    let digest = config_digest(cfg);
    let mut base_des = 0u64;
    if let Some(ckpt) = resume {
        if ckpt.digest != digest {
            return Err(CheckpointError::ConfigMismatch {
                expected: ckpt.digest,
                actual: digest,
            });
        }
        if ckpt.homes.len() != cfg.homes {
            return Err(CheckpointError::ConfigMismatch {
                expected: ckpt.digest,
                actual: digest,
            });
        }
        base_des = ckpt.des_events;
    }
    let ctx = FleetCtx::build(cfg);

    // Contiguous chunks, one per worker: flattening shard results in
    // chunk order reproduces home order whatever the worker count.
    let shards = cfg.jobs.max(1).min(cfg.homes.max(1));
    let base = cfg.homes / shards;
    let extra = cfg.homes % shards;
    let mut chunks = Vec::with_capacity(shards);
    let mut start = 0usize;
    for s in 0..shards {
        let count = base + usize::from(s < extra);
        if count > 0 {
            chunks.push((start, count));
        }
        start += count;
    }

    let engine = FleetEngine::new(cfg.jobs);
    let results = engine.map(chunks, |(first, count)| {
        let shard_resume = resume.map(|ckpt| &ckpt.homes[first..first + count]);
        run_chunk(cfg, &ctx, first, count, record, trace, log, care, stops, shard_resume)
    });

    let mut per_home = Vec::with_capacity(cfg.homes);
    let mut events = record.then(|| Vec::with_capacity(cfg.homes));
    let mut wal_records = log.then(Vec::new);
    let mut care_out = care.map(|_| CareOutput::default());
    let mut telemetry = Telemetry::default();
    let mut des_events = base_des;
    let mut peak_pending = 0usize;
    let mut checkpoints: Vec<MetroCheckpoint> = stops
        .iter()
        .map(|&at| MetroCheckpoint {
            at,
            digest,
            des_events: base_des,
            homes: Vec::with_capacity(cfg.homes),
        })
        .collect();
    for chunk in results {
        per_home.extend(chunk.stats);
        if let (Some(events), Some(taps)) = (events.as_mut(), chunk.taps) {
            events.extend(taps);
        }
        if let Some(recs) = chunk.recs {
            // Chunks are contiguous and flattened in chunk order, so this
            // reproduces home order at any worker count.
            telemetry.homes.extend(recs);
        }
        if let (Some(all), Some(records)) = (wal_records.as_mut(), chunk.wal) {
            all.extend(records);
        }
        if let (Some(out), Some(chunk_care)) = (care_out.as_mut(), chunk.care) {
            // Chunk order is home order, so events arrive home-major and
            // the analytics merge is deterministic whatever the worker
            // count (histogram merge is also order-insensitive).
            out.events.extend(chunk_care.events);
            out.analytics.merge(&chunk_care.analytics);
        }
        des_events = des_events.saturating_add(chunk.des_events);
        peak_pending = peak_pending.max(chunk.max_pending);
        for (ckpt, (processed, homes)) in checkpoints.iter_mut().zip(chunk.checkpoints) {
            // Shard queues count their own events; fleet-level totals sum
            // them (plus whatever the resume source had already served).
            ckpt.des_events = ckpt.des_events.saturating_add(processed);
            ckpt.homes.extend(homes);
        }
    }
    let report = ScaleReport {
        homes: cfg.homes,
        horizon: cfg.horizon,
        engine: cfg.engine,
        per_home,
        des_events,
        events,
    };
    if trace {
        let (_, clamped) = report.totals_checked();
        telemetry.fleet.add(Ctr::TotalsSaturated, clamped);
    }
    if let Some(all) = wal_records.as_mut() {
        // One global sort merges the shard streams — `(at, home)`-ordered
        // under strict sweeps, home-major per epoch window under tiling —
        // into the unique fleet-wide order (at most one record per
        // `(at, home)`), making the log jobs- and sched-invariant.
        all.sort_unstable_by_key(|r| (r.at, r.home));
    }
    if let Some(out) = care_out.as_mut() {
        // Home-major shard streams → the unique global time order; the
        // per-home monotone seq breaks same-instant ties so the sorted
        // log is identical at any worker count.
        out.events.sort_unstable_by_key(|e| (e.at, e.home, e.seq));
    }
    Ok((TraceOutput { report, telemetry, peak_pending }, checkpoints, wal_records, care_out))
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

/// Run-wide shared state for an externally driven (served) fleet: the
/// configuration plus the immutable [`FleetCtx`] every shard borrows.
/// Built once per serve; [`ServeCtx::session`] hands out per-shard
/// sessions whose wake stream is bit-identical to the batch
/// [`run_scale`] sweep — the serving front end owns *when* wakes are
/// served (its clock) but never *what* they do.
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
        let ctx = FleetCtx::build(&cfg);
        let digest = config_digest(&cfg);
        Ok(ServeCtx { cfg, ctx, digest, care: None })
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

    /// The `(first_home, count)` shard layout for `cfg.jobs` — the exact
    /// contiguous chunking [`run_scale`] uses, so flattening session
    /// results in chunk order reproduces home order at any worker count.
    #[must_use]
    pub fn chunks(&self) -> Vec<(usize, usize)> {
        let shards = self.cfg.jobs.max(1).min(self.cfg.homes.max(1));
        let base = self.cfg.homes / shards;
        let extra = self.cfg.homes % shards;
        let mut chunks = Vec::with_capacity(shards);
        let mut start = 0usize;
        for s in 0..shards {
            let count = base + usize::from(s < extra);
            if count > 0 {
                chunks.push((start, count));
            }
            start += count;
        }
        chunks
    }

    /// Opens a serving session over homes `[first_home, first_home +
    /// count)`. The session always derives delivery records (the log is
    /// on), and optionally taps event streams (`record`) or runs the
    /// flight recorder (`trace`) — both observation-only, exactly as in
    /// the batch path.
    #[must_use]
    pub fn session(&self, first_home: usize, count: usize, record: bool, trace: bool) -> ServeSession<'_> {
        let shard =
            Shard::build(&self.cfg, &self.ctx, first_home, count, record, trace, true, self.care.as_ref());
        let mut sim: Simulator<Wake> = match self.cfg.engine {
            EngineKind::Wheel => Simulator::new(),
            EngineKind::Heap => Simulator::with_heap_queue(),
        };
        // Initial wakes, exactly as `run_chunk` schedules a fresh run.
        match self.cfg.engine {
            EngineKind::Wheel => {
                for (i, s) in shard.hot.iter().enumerate() {
                    sim.schedule_at(s.sched.next_start, Wake(i));
                }
            }
            EngineKind::Heap => {
                for (i, s) in shard.hot.iter().enumerate() {
                    sim.schedule_at(SimTime::from_millis(s.sched.offset_ms), Wake(i));
                }
            }
        }
        ServeSession {
            care_cursors: vec![0; shard.len()],
            shard,
            sim,
            engine: self.cfg.engine,
            sched: self.cfg.sched,
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
        }
    }
}

/// One shard of a served fleet, driven wake-by-wake from outside. The
/// window/chain structure mirrors [`Shard::epoch_segment`] /
/// [`Shard::serve_chain`] exactly — same drains, same dedup, same
/// follow-up routing — so a caller that serves every window's chains in
/// order reproduces the batch run byte-for-byte, including the DES
/// event count.
pub struct ServeSession<'a> {
    shard: Shard<'a>,
    sim: Simulator<Wake>,
    engine: EngineKind,
    sched: SchedMode,
    horizon_end: SimTime,
    /// Records already drained into per-wake deliveries.
    wal_cursor: usize,
    /// Per-home care events already drained into `Escalate` frames.
    care_cursors: Vec<usize>,
    /// End of the window [`ServeSession::next_epoch`] drained last.
    epoch_end: SimTime,
    /// The drained window, sorted by `(home, due)` — each home's wakes
    /// form one contiguous, due-ordered chain.
    epoch: Vec<(SimTime, Wake)>,
    /// `(local home, chain start, chain end)` per due home, home-ascending.
    chains: Vec<(usize, usize, usize)>,
    /// The home whose chain [`ServeSession::next_wake`] is walking.
    active: Option<usize>,
    chain_cursor: usize,
    chain_end: usize,
    /// In-window follow-ups the active chain spawned; never queued.
    inline: Vec<SimTime>,
    /// An instant returned by [`ServeSession::next_wake`] but not yet
    /// consumed by [`ServeSession::serve_wake`] — replayed on re-ask, so
    /// a caller probing the same home twice cannot lose a wake.
    pending_wake: Option<SimTime>,
}

impl std::fmt::Debug for ServeSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeSession")
            .field("first_home", &self.shard.first_home)
            .field("homes", &self.shard.len())
            .field("engine", &self.engine)
            .field("now", &self.sim.now())
            .finish()
    }
}

impl ServeSession<'_> {
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
    /// deduplicated. Under [`SchedMode::Epoch`] the window is
    /// [`EPOCH_MS`] wide; under [`SchedMode::Strict`] it is the single
    /// next instant, which makes the chain API reproduce the classic
    /// instant-by-instant sweep exactly. Returns the window's first
    /// instant, or `None` when the horizon is served.
    ///
    /// Serve the returned homes in order: for each, loop
    /// [`ServeSession::next_wake`] / [`ServeSession::serve_wake`] until
    /// the chain is dry, then move on. Per-home wake sequences — and
    /// with them every deliverable — are the same in either mode and at
    /// any window cut ([`ServeSession::next_epoch_on`]).
    pub fn next_epoch(&mut self, due: &mut Vec<u32>) -> Option<SimTime> {
        self.next_epoch_on(due, &mut SimClock)
    }

    /// [`ServeSession::next_epoch`] paced by `clock`: waits once for the
    /// window's first instant `t0`, then drains only the wakes the clock
    /// already lets through — up to `min(t0 + EPOCH_MS - 1, horizon,
    /// max(t0, clock.servable()))` — so every wake in the window is
    /// served without another wait, and none waits behind a later-due
    /// wake while the server keeps up. A late server's clock has run
    /// ahead, which widens the window back to the full `EPOCH_MS` (and the
    /// tiled locality with it). Under [`SimClock`] the window is always
    /// the full one. [`SchedMode::Strict`] keeps its single instant.
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
        debug_assert!(self.inline.is_empty() && self.pending_wake.is_none());
        let t0 = self.sim.next_due().filter(|&t| t <= self.horizon_end)?;
        clock.wait_until(t0);
        let end = match self.sched {
            SchedMode::Strict => t0,
            SchedMode::Epoch => SimTime::from_millis(
                (t0.as_millis() + EPOCH_MS - 1)
                    .min(self.horizon_end.as_millis())
                    .min(clock.servable().max(t0).as_millis()),
            ),
        };
        self.epoch.clear();
        self.chains.clear();
        self.active = None;
        self.sim.drain_until(end, &mut self.epoch);
        self.epoch.sort_unstable_by_key(|&(due, Wake(i))| (i, due));
        self.epoch_end = end;
        let mut k = 0;
        while k < self.epoch.len() {
            let i = self.epoch[k].1 .0;
            let mut k_end = k + 1;
            while k_end < self.epoch.len() && self.epoch[k_end].1 .0 == i {
                k_end += 1;
            }
            self.chains.push((i, k, k_end));
            due.push(u32::try_from(self.shard.first_home + i).expect("fleets fit in u32"));
            k = k_end;
        }
        Some(t0)
    }

    /// Advances `home`'s chain in the current epoch to its next distinct
    /// wake instant and returns it, or `None` when the chain is dry (or
    /// `home` owns no wakes in this window). Duplicate entries are
    /// consumed and counted exactly as the batch engines dedup them.
    /// Calling again before [`ServeSession::serve_wake`] returns the
    /// same instant.
    ///
    /// # Panics
    ///
    /// Panics if `home` is outside the session's range.
    pub fn next_wake(&mut self, home: u32) -> Option<SimTime> {
        let i = (home as usize)
            .checked_sub(self.shard.first_home)
            .filter(|&i| i < self.shard.len())
            .expect("home outside this session");
        if self.active != Some(i) {
            debug_assert!(
                self.inline.is_empty() && self.pending_wake.is_none(),
                "switched homes with an unserved chain"
            );
            let k = self.chains.binary_search_by_key(&i, |&(h, _, _)| h).ok()?;
            let (_, start, end) = self.chains[k];
            self.active = Some(i);
            self.chain_cursor = start;
            self.chain_end = end;
        }
        if let Some(now) = self.pending_wake {
            return Some(now);
        }
        loop {
            let queued =
                (self.chain_cursor < self.chain_end).then(|| self.epoch[self.chain_cursor].0);
            let inlined = self.inline.iter().copied().min();
            let now = match (queued, inlined) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => {
                    self.active = None;
                    return None;
                }
            };
            while self.chain_cursor < self.chain_end && self.epoch[self.chain_cursor].0 == now {
                self.chain_cursor += 1;
            }
            let before = self.inline.len();
            self.inline.retain(|&due| due != now);
            self.sim.note_processed((before - self.inline.len()) as u64);
            if self.engine == EngineKind::Wheel && self.shard.hot[i].sched.last_handled == Some(now)
            {
                // Parity with the batch sweeps: a duplicate wake for an
                // already-served instant is consumed silently.
                continue;
            }
            self.pending_wake = Some(now);
            return Some(now);
        }
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
        let i = (home as usize)
            .checked_sub(self.shard.first_home)
            .filter(|&i| i < self.shard.len())
            .expect("home outside this session");
        debug_assert_eq!(self.active, Some(i), "serve_wake without a next_wake");
        debug_assert_eq!(self.pending_wake, Some(at), "serve_wake instant mismatch");
        self.pending_wake = None;
        self.shard.hot[i].sched.last_handled = Some(at);
        if skip {
            return;
        }
        self.shard.poll_wake(i, at);
        match self.engine {
            EngineKind::Wheel => {
                if let Some(run) = &self.shard.episodes[i] {
                    push_follow(
                        &mut self.sim,
                        &mut self.inline,
                        self.epoch_end,
                        run.ep.next_tick_at(),
                        i,
                    );
                } else {
                    push_follow(
                        &mut self.sim,
                        &mut self.inline,
                        self.epoch_end,
                        self.shard.hot[i].sched.next_start,
                        i,
                    );
                    if let Some(deadline) = self.shard.trackers[i].idle_deadline() {
                        push_follow(
                            &mut self.sim,
                            &mut self.inline,
                            self.epoch_end,
                            align_up(self.shard.hot[i].sched.offset_ms, deadline),
                            i,
                        );
                    }
                }
            }
            EngineKind::Heap => push_follow(
                &mut self.sim,
                &mut self.inline,
                self.epoch_end,
                at + Coreda::TICK,
                i,
            ),
        }
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
        let i = (home as usize)
            .checked_sub(self.shard.first_home)
            .filter(|&i| i < self.shard.len())
            .expect("home outside this session");
        let Some(care) = self.shard.care.as_ref() else { return };
        let events = care.monitors[i].events();
        out.extend_from_slice(&events[self.care_cursors[i]..]);
        self.care_cursors[i] = events.len();
    }

    /// Ends every home's care fold at the horizon and appends the
    /// trailing events (acks/resolves due by then) in home order — the
    /// final `Escalate` frames a server delivers before `Bye`. No-op
    /// without care.
    pub fn finish_care(&mut self, out: &mut Vec<CareEvent>) {
        self.shard.finish_care(self.horizon_end);
        let Some(care) = self.shard.care.as_ref() else { return };
        for (i, monitor) in care.monitors.iter().enumerate() {
            let events = monitor.events();
            out.extend_from_slice(&events[self.care_cursors[i]..]);
            self.care_cursors[i] = events.len();
        }
    }

    /// Folds the session into its shard result (recomputing per-home
    /// energy, as the batch path does at the end of a run).
    #[must_use]
    pub fn finish(self) -> ServedShard {
        let des_events = self.sim.processed();
        let max_pending = self.sim.max_pending();
        let horizon = self.horizon_end;
        ServedShard { out: self.shard.finish(horizon, des_events, max_pending, Vec::new()) }
    }
}

/// One finished [`ServeSession`]'s output, opaque until merged through
/// [`collect_served`].
pub struct ServedShard {
    out: ChunkOut,
}

impl std::fmt::Debug for ServedShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedShard")
            .field("homes", &self.out.stats.len())
            .field("des_events", &self.out.des_events)
            .finish()
    }
}

/// Merges finished served shards — in [`ServeCtx::chunks`] order — into
/// the run's [`TraceOutput`] plus the fleet-ordered event log (and the
/// care output when the context enabled the escalation overlay), with
/// the exact merge the batch [`run_scale`] path performs. Under the sim
/// clock the result is bit-identical to the batch run of the same
/// configuration (grid, telemetry, log, and care) at any worker count
/// and either engine.
#[must_use]
pub fn collect_served(
    cfg: &MetroConfig,
    shards: Vec<ServedShard>,
) -> (TraceOutput, Vec<WalRecord>, Option<CareOutput>) {
    let record = shards.first().is_some_and(|s| s.out.taps.is_some());
    let trace = shards.first().is_some_and(|s| s.out.recs.is_some());
    let care = shards.first().is_some_and(|s| s.out.care.is_some());
    let mut per_home = Vec::with_capacity(cfg.homes);
    let mut events = record.then(|| Vec::with_capacity(cfg.homes));
    let mut wal_records = Vec::new();
    let mut care_out = care.then(CareOutput::default);
    let mut telemetry = Telemetry::default();
    let mut des_events = 0u64;
    let mut peak_pending = 0usize;
    for shard in shards {
        let chunk = shard.out;
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
        engine: cfg.engine,
        per_home,
        des_events,
        events,
    };
    if trace {
        let (_, clamped) = report.totals_checked();
        telemetry.fleet.add(Ctr::TotalsSaturated, clamped);
    }
    wal_records.sort_unstable_by_key(|r| (r.at, r.home));
    if let Some(out) = care_out.as_mut() {
        out.events.sort_unstable_by_key(|e| (e.at, e.home, e.seq));
    }
    ((TraceOutput { report, telemetry, peak_pending }), wal_records, care_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The arena build must point every home's planner and renderer at
    /// the `FleetCtx`'s shared allocations — per-home copies would put
    /// the Q-tables back on the per-home budget. Address equality of
    /// the `Deref` targets proves the `Arc`s share storage.
    #[test]
    fn fleet_homes_share_planner_and_renderer_allocations() {
        let cfg = small_cfg();
        let ctx = FleetCtx::build(&cfg);
        let shard = Shard::build(&cfg, &ctx, 0, cfg.homes, false, false, false, None);
        let acts = ctx.specs.len();
        assert!(acts >= 2, "catalog should exercise >1 activity");
        for act in 0..acts {
            let template: &PlanningSubsystem = &ctx.templates[act];
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

    #[test]
    fn wheel_and_heap_engines_agree_per_home() {
        let wheel = run_scale(&small_cfg());
        let heap = run_scale(&MetroConfig { engine: EngineKind::Heap, ..small_cfg() });
        assert_eq!(wheel.per_home, heap.per_home);
        // Dense polling pops far more raw DES events for the same work.
        assert!(
            heap.des_events > wheel.des_events,
            "heap {h} should exceed wheel {w}",
            h = heap.des_events,
            w = wheel.des_events
        );
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let serial = run_scale(&small_cfg());
        let parallel = run_scale(&MetroConfig { jobs: 3, ..small_cfg() });
        assert_eq!(serial, parallel);
        assert_eq!(serial.render(), parallel.render());
    }

    /// The tentpole determinism rule: epoch tiling is a pure
    /// performance knob. Report, WAL, care log, and telemetry JSONL are
    /// bit-identical to the strict-order sweep on either engine at any
    /// worker count.
    #[test]
    fn epoch_and_strict_scheduling_are_bit_identical() {
        let policy = CarePolicy::default();
        for engine in [EngineKind::Wheel, EngineKind::Heap] {
            for jobs in [1, 3] {
                let epoch = MetroConfig { engine, jobs, sched: SchedMode::Epoch, ..small_cfg() };
                let strict = MetroConfig { sched: SchedMode::Strict, ..epoch.clone() };
                let (er, ewal, ecare) = run_scale_care_walled(&epoch, &policy);
                let (sr, swal, scare) = run_scale_care_walled(&strict, &policy);
                assert_eq!(er, sr, "{engine} jobs={jobs}: report diverged");
                assert_eq!(ewal, swal, "{engine} jobs={jobs}: WAL diverged");
                assert_eq!(ecare, scare, "{engine} jobs={jobs}: care log diverged");
                let et = run_scale_traced(&epoch);
                let st = run_scale_traced(&strict);
                assert_eq!(
                    et.telemetry.to_jsonl(),
                    st.telemetry.to_jsonl(),
                    "{engine} jobs={jobs}: telemetry diverged"
                );
            }
        }
    }

    /// A checkpoint is sched-agnostic like it is jobs- and
    /// engine-agnostic: captured under one mode, it resumes under the
    /// other to the exact uninterrupted result.
    #[test]
    fn checkpoints_move_between_sched_modes() {
        let strict = MetroConfig { sched: SchedMode::Strict, ..small_cfg() };
        let epoch = MetroConfig { sched: SchedMode::Epoch, ..small_cfg() };
        let full = run_scale(&strict);
        let stop = SimTime::from_millis(strict.horizon.as_millis() / 2);
        // Strict capture → epoch resume.
        let (_, ckpts) = run_scale_checkpointed(&strict, &[stop]);
        let resumed = resume_scale(&epoch, &ckpts[0]).expect("same config, new sched");
        assert_eq!(resumed.per_home, full.per_home, "strict→epoch resume diverged");
        // Epoch capture → strict resume.
        let (_, ckpts) = run_scale_checkpointed(&epoch, &[stop]);
        let resumed = resume_scale(&strict, &ckpts[0]).expect("same config, new sched");
        assert_eq!(resumed.per_home, full.per_home, "epoch→strict resume diverged");
    }

    /// The epoch chain API (`next_epoch`/`next_wake`/`serve_wake`) must
    /// reproduce the batch run exactly in *both* scheduling modes — under
    /// `Strict` the window degenerates to a single instant and the chain
    /// walk becomes the classic batch sweep — and in either order of a
    /// window's homes: homes never interact, so serving a window's chains
    /// last-to-first changes nothing.
    #[test]
    fn chain_api_reproduces_the_batch_run() {
        for engine in [EngineKind::Wheel, EngineKind::Heap] {
            for sched in [SchedMode::Epoch, SchedMode::Strict] {
                let cfg = MetroConfig { engine, sched, ..small_cfg() };
                let batch = run_scale(&cfg);
                let (_, wal) = run_scale_walled(&cfg);
                let ctx = ServeCtx::new(cfg.clone()).expect("small fleets fit");
                for descending in [false, true] {
                    let mut shards = Vec::new();
                    let mut deliveries = Vec::new();
                    for (first, count) in ctx.chunks() {
                        let mut session = ctx.session(first, count, false, false);
                        let mut due = Vec::new();
                        while session.next_epoch(&mut due).is_some() {
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
                    let case = format!("{engine}/{sched} descending={descending}");
                    assert!(care.is_none(), "care off ⇒ no care output");
                    assert_eq!(out.report, batch, "{case}: chain serve diverged");
                    assert_eq!(merged, wal, "{case}: served log diverged");
                    deliveries.sort_unstable_by_key(|r| (r.at, r.home));
                    assert_eq!(deliveries, wal, "{case}: deliveries diverged");
                }
            }
        }
    }

    /// The sorted-unique fast path and the re-sort slow path of
    /// [`Shard::collect_batch`] must land on the same batch.
    #[test]
    fn collect_batch_handles_sorted_and_unsorted_pops() {
        let cfg = small_cfg();
        let ctx = FleetCtx::build(&cfg);
        let mut shard = Shard::build(&cfg, &ctx, 0, cfg.homes, false, false, false, None);
        let at = SimTime::from_millis(1_000);

        // Ascending, duplicate-free pops: the fast path must keep them.
        let mut sim: Simulator<Wake> = Simulator::new();
        for i in 0..4 {
            sim.schedule_at(at, Wake(i));
        }
        let Some(Wake(first)) = sim.step() else { panic!("scheduled wakes exist") };
        assert_eq!(shard.collect_batch(&mut sim, first), at);
        assert_eq!(shard.batch, vec![0, 1, 2, 3]);

        // Out-of-order pops with duplicates: the slow path must restore
        // the ascending deduplicated sweep order.
        let mut sim: Simulator<Wake> = Simulator::new();
        for i in [3usize, 1, 2, 1] {
            sim.schedule_at(at, Wake(i));
        }
        let Some(Wake(first)) = sim.step() else { panic!("scheduled wakes exist") };
        assert_eq!(shard.collect_batch(&mut sim, first), at);
        assert_eq!(shard.batch, vec![1, 2, 3]);
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
    fn recorded_taps_are_engine_and_jobs_invariant() {
        let wheel = run_scale_recorded(&small_cfg());
        let heap = run_scale_recorded(&MetroConfig { engine: EngineKind::Heap, ..small_cfg() });
        let parallel = run_scale_recorded(&MetroConfig { jobs: 3, ..small_cfg() });
        assert_eq!(wheel.events, heap.events);
        assert_eq!(wheel.events, parallel.events);
        let taps = wheel.events.as_ref().unwrap();
        assert_eq!(taps.len(), 4);
        assert!(taps.iter().any(|t| !t.is_empty()), "taps should carry events");
        // The unrecorded path stays tap-free, so full-report equality
        // tests keep comparing `None == None`.
        assert_eq!(run_scale(&small_cfg()).events, None);
    }

    #[test]
    fn traced_run_matches_untraced_report() {
        let plain = run_scale(&small_cfg());
        let traced = run_scale_traced(&small_cfg());
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
    }

    #[test]
    fn traced_run_is_jobs_and_engine_invariant() {
        let wheel = run_scale_traced(&small_cfg());
        let heap = run_scale_traced(&MetroConfig { engine: EngineKind::Heap, ..small_cfg() });
        let parallel = run_scale_traced(&MetroConfig { jobs: 3, ..small_cfg() });
        assert_eq!(wheel.telemetry, heap.telemetry);
        assert_eq!(wheel.telemetry, parallel.telemetry);
        assert_eq!(wheel.telemetry.to_jsonl(), parallel.telemetry.to_jsonl());
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
        let (report, ckpts) = run_scale_checkpointed(&small_cfg(), &stops);
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
        let (_, ckpts) = run_scale_checkpointed(&cfg, &[SimTime::from_secs(300)]);
        let resumed = resume_scale(&cfg, &ckpts[0]).unwrap();
        assert_eq!(full, resumed, "snapshot-then-resume must be invisible");
    }

    #[test]
    fn snapshot_survives_the_codec_and_resumes() {
        let cfg = small_cfg();
        let (_, ckpts) = run_scale_checkpointed(&cfg, &[SimTime::from_secs(300)]);
        let blob = crate::checkpoint::save_checkpoint(&ckpts[0], 2);
        let back = crate::checkpoint::load_checkpoint(&blob, 2).unwrap();
        assert_eq!(back, ckpts[0]);
        assert_eq!(resume_scale(&cfg, &back).unwrap(), run_scale(&cfg));
    }

    #[test]
    fn resume_rejects_a_different_config_but_not_resume_knobs() {
        let cfg = small_cfg();
        let (_, ckpts) = run_scale_checkpointed(&cfg, &[SimTime::from_secs(300)]);
        let reseeded = MetroConfig { seed: 9, ..small_cfg() };
        assert!(matches!(
            resume_scale(&reseeded, &ckpts[0]),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        // Worker count is a resume-time free choice.
        let parallel = MetroConfig { jobs: 3, ..small_cfg() };
        assert_eq!(resume_scale(&parallel, &ckpts[0]).unwrap(), run_scale(&cfg));
    }

    #[test]
    fn traced_resume_merges_counters_across_the_boundary() {
        let cfg = small_cfg();
        let full = run_scale_traced(&cfg);
        let (_, ckpts) = run_scale_checkpointed_traced(&cfg, &[SimTime::from_secs(300)]);
        let resumed = resume_scale_traced(&cfg, &ckpts[0]).unwrap();
        assert_eq!(resumed.report, full.report);
        assert_eq!(
            resumed.telemetry, full.telemetry,
            "telemetry must cover the whole run, not just the resumed tail"
        );
    }

    #[test]
    fn resume_can_keep_checkpointing() {
        let cfg = small_cfg();
        let (_, first) = run_scale_checkpointed(&cfg, &[SimTime::from_secs(200)]);
        let (report, second) =
            resume_scale_checkpointed(&cfg, &first[0], &[SimTime::from_secs(400)]).unwrap();
        assert_eq!(report, run_scale(&cfg));
        // A re-checkpointed snapshot is as good as one from the original
        // run: resuming it still lands on the uninterrupted result.
        assert_eq!(resume_scale(&cfg, &second[0]).unwrap(), run_scale(&cfg));
        let (_, direct) = run_scale_checkpointed(&cfg, &[SimTime::from_secs(400)]);
        assert_eq!(second[0], direct[0], "chained and direct snapshots agree");
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
        let (_, ckpts) = run_scale_checkpointed(&short, &[SimTime::from_secs(300)]);
        assert!(
            ckpts[0].homes.iter().all(|h| !h.pending.is_empty()),
            "an end-of-run snapshot must still hold every home's next wake"
        );
        let resumed = resume_scale(&long, &ckpts[0]).unwrap();
        assert_eq!(resumed, run_scale(&long));
        // Same through the heap engine.
        let short_heap = MetroConfig { engine: EngineKind::Heap, ..short };
        let long_heap = MetroConfig { engine: EngineKind::Heap, ..long };
        let (_, heap_ckpts) = run_scale_checkpointed(&short_heap, &[SimTime::from_secs(300)]);
        assert_eq!(
            resume_scale(&long_heap, &heap_ckpts[0]).unwrap(),
            run_scale(&long_heap)
        );
    }

    #[test]
    fn logging_does_not_perturb_the_run_and_captures_every_transition() {
        let cfg = small_cfg();
        let (report, wal) = run_scale_walled(&cfg);
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
    }

    #[test]
    fn wal_is_engine_and_jobs_invariant() {
        let cfg = small_cfg();
        let (_, serial) = run_scale_walled(&cfg);
        let (_, parallel) = run_scale_walled(&MetroConfig { jobs: 3, ..small_cfg() });
        assert_eq!(serial, parallel, "worker count must not reorder or change the log");
        let (_, heap) = run_scale_walled(&MetroConfig { engine: EngineKind::Heap, ..cfg });
        assert_eq!(serial, heap, "dense heap polling observes the same transitions");
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
        let (_, direct) = run_scale_checkpointed(&cfg, &[SimTime::from_secs(450)]);
        assert_eq!(run.compacted().unwrap(), direct[0]);
        // base → deltas → log tail replays into the uninterrupted result,
        // at another worker count and on the other engine too.
        assert_eq!(resume_scale_durable(&cfg, &run).unwrap(), report);
        let parallel = MetroConfig { jobs: 3, ..small_cfg() };
        assert_eq!(resume_scale_durable(&parallel, &run).unwrap(), report);
        let heap = MetroConfig { engine: EngineKind::Heap, ..small_cfg() };
        let (heap_report, heap_run) = run_scale_durable(&heap, &stops);
        assert_eq!(resume_scale_durable(&heap, &heap_run).unwrap(), heap_report);
        assert_eq!(heap_report.per_home, report.per_home);
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
        let cfg = small_cfg();
        let (report, care) = run_scale_care(&cfg, &policy);
        assert_eq!(report, run_scale(&cfg), "care is derived, never fed back");
        assert!(!care.events.is_empty(), "an eager policy must escalate somewhere");
        assert!(
            care.events.windows(2).all(|w| {
                (w[0].at, w[0].home, w[0].seq) < (w[1].at, w[1].home, w[1].seq)
            }),
            "the care log is strictly (at, home, seq)-ordered"
        );
        let heap = MetroConfig { engine: EngineKind::Heap, ..small_cfg() };
        let parallel = MetroConfig { jobs: 3, ..small_cfg() };
        assert_eq!(care, run_scale_care(&heap, &policy).1, "engine must not change care");
        assert_eq!(care, run_scale_care(&parallel, &policy).1, "jobs must not change care");
        assert!(care.analytics.compliance_pct.total() > 0, "homes sample compliance");
    }

    #[test]
    fn traced_care_counts_the_escalation_lifecycle() {
        let policy = eager_policy();
        let cfg = small_cfg();
        let (traced, care) = run_scale_care_traced(&cfg, &policy);
        let agg = traced.telemetry.aggregate();
        let count = |kind| care.events.iter().filter(|e| e.kind == kind).count() as u64;
        assert_eq!(agg.counter(Ctr::EscalationsRaised), count(CareEventKind::Raised));
        assert_eq!(agg.counter(Ctr::EscalationsAcked), count(CareEventKind::Acked));
        assert_eq!(agg.counter(Ctr::EscalationsResolved), count(CareEventKind::Resolved));
        assert_eq!(traced.report, run_scale(&cfg), "tracing + care stays observation-only");
    }

    /// The served path must stream the exact batch care log: per-wake
    /// drains plus the finish drain cover every event, and the merged
    /// output is bit-identical to the batch overlay on either engine.
    #[test]
    fn served_care_matches_the_batch_overlay() {
        let policy = eager_policy();
        for engine in [EngineKind::Wheel, EngineKind::Heap] {
            let cfg = MetroConfig { engine, ..small_cfg() };
            let (_, _, batch_care) = run_scale_care_walled(&cfg, &policy);
            let ctx =
                ServeCtx::new(cfg.clone()).expect("small fleets fit").with_care(policy.clone());
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
            assert_eq!(care, batch_care, "{engine} served care diverged from batch");
            streamed.sort_unstable_by_key(|e| (e.at, e.home, e.seq));
            assert_eq!(streamed, care.events, "{engine} streamed frames miss events");
        }
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
