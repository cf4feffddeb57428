//! Flight-recorder observability: counters, latency histograms, and a
//! bounded per-home trace ring covering the whole reminding pipeline.
//!
//! The paper's headline claims — prompt precision and reminder
//! *timeliness* (§3) — are latency/precision quantities, but until this
//! module the system was a black box at runtime: a fuzzer violation or
//! a stalled 10k-home `scale` run left no record of what the pipeline
//! was doing. The flight recorder closes that gap:
//!
//! * a **metrics registry** — fixed-size counter array ([`Ctr`]),
//!   per-stage latency [`Histogram`]s ([`Stage`]) with p50/p95/p99 —
//!   covering sample window → tool-in-use detection → radio delivery →
//!   StepID extraction → planner decision → prompt render → patient
//!   response;
//! * a **bounded trace ring** ([`TraceRing`]) of structured
//!   [`TraceRecord`]s (interned [`NameId`] labels, [`SimTime`] stamps,
//!   drop-oldest) whose last K events reconstruct the story behind any
//!   prompt;
//! * a deterministic **merge** ([`Telemetry`]): per-home recorders are
//!   combined in home-id order, so `--jobs 1` and `--jobs N` produce
//!   bit-identical telemetry, and a JSONL exporter / text summary for
//!   the CLI `trace` command and fuzzer post-mortems.
//!
//! # Hot-path discipline
//!
//! Recording allocates **nothing** after construction: counters are a
//! fixed array, histograms pre-allocate their bins, and the ring is a
//! pre-filled circular buffer. A recorder is one fold over a wake's
//! event stream (`HomeRecorder::fold`): it reads the events a serving
//! home hands it, draws no randomness and never feeds back into
//! simulation state, so a recorded run is bit-identical to an unrecorded
//! one — recorders can be bolted onto any run, or left off, without
//! re-deriving seeds.

use coreda_adl::intern::NameId;
use coreda_adl::{StepId, ToolId};
use coreda_des::stats::Histogram;
use coreda_des::time::SimTime;

use crate::escalation::CareEventKind;
use crate::reminding::{ReminderLevel, Trigger};
use crate::sessions::SessionEvent;
use crate::system::WakeEvent;

/// Every pipeline counter the recorder tracks.
///
/// The discriminant doubles as the index into [`HomeRecorder`]'s
/// counter array; [`Ctr::ALL`] iterates in export order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Ctr {
    /// Sensor sample windows closed (one per node per tick).
    SampleWindows,
    /// Sample windows whose detector said "tool in use".
    ToolInUseWindows,
    /// Uplink report frames handed to the radio.
    RadioFramesTx,
    /// Individual transmission attempts (ARQ retries included).
    RadioAttempts,
    /// Uplink frames that reached the base station.
    RadioDelivered,
    /// Uplink frames dropped after exhausting retries.
    RadioLost,
    /// Duplicate deliveries the ARQ produced (lost ACK → resend).
    RadioDuplicates,
    /// Downlink LED command frames sent.
    LedFramesTx,
    /// Downlink LED command frames delivered.
    LedDelivered,
    /// Downlink LED command frames lost.
    LedLost,
    /// Reports the base station accepted (after dedup).
    ReportsAccepted,
    /// StepIDs the sensing subsystem extracted from reports.
    StepsExtracted,
    /// Idle-timeout events the sensing subsystem synthesised.
    IdleEvents,
    /// Next-step queries answered by the planner.
    PlannerDecisions,
    /// Prompts rendered into reminder methods.
    PromptsRendered,
    /// Reminders issued (first prompt of an intervention).
    RemindersIssued,
    /// Escalations of an unanswered reminder to a louder prompt.
    RepromptEscalations,
    /// Praise events (patient complied with the prompted step).
    Praises,
    /// Live episodes started.
    EpisodesStarted,
    /// Live episodes that reached the routine's end.
    EpisodesCompleted,
    /// Activity sessions opened by the session tracker.
    SessionsStarted,
    /// Activity sessions closed as completed.
    SessionsCompleted,
    /// Activity sessions closed as abandoned.
    SessionsAbandoned,
    /// Cross-activity tool-use flags raised.
    CrossActivityFlags,
    /// Report totals that hit saturating-add clamping (see
    /// [`crate::metro::ScaleReport::totals`]); non-zero means some
    /// aggregate number is a lower bound, not an exact count.
    TotalsSaturated,
    /// Caregiver escalations raised by the policy engine.
    EscalationsRaised,
    /// Escalations the simulated caregiver acknowledged.
    EscalationsAcked,
    /// Escalations the caregiver resolved.
    EscalationsResolved,
    /// Compliance-trend windows the care monitor completed.
    CareTrendWindows,
}

impl Ctr {
    /// Number of counters (size of the registry array).
    pub const COUNT: usize = 29;

    /// All counters in export order.
    pub const ALL: [Ctr; Ctr::COUNT] = [
        Ctr::SampleWindows,
        Ctr::ToolInUseWindows,
        Ctr::RadioFramesTx,
        Ctr::RadioAttempts,
        Ctr::RadioDelivered,
        Ctr::RadioLost,
        Ctr::RadioDuplicates,
        Ctr::LedFramesTx,
        Ctr::LedDelivered,
        Ctr::LedLost,
        Ctr::ReportsAccepted,
        Ctr::StepsExtracted,
        Ctr::IdleEvents,
        Ctr::PlannerDecisions,
        Ctr::PromptsRendered,
        Ctr::RemindersIssued,
        Ctr::RepromptEscalations,
        Ctr::Praises,
        Ctr::EpisodesStarted,
        Ctr::EpisodesCompleted,
        Ctr::SessionsStarted,
        Ctr::SessionsCompleted,
        Ctr::SessionsAbandoned,
        Ctr::CrossActivityFlags,
        Ctr::TotalsSaturated,
        Ctr::EscalationsRaised,
        Ctr::EscalationsAcked,
        Ctr::EscalationsResolved,
        Ctr::CareTrendWindows,
    ];

    /// Stable snake_case name used in JSONL export.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Ctr::SampleWindows => "sample_windows",
            Ctr::ToolInUseWindows => "tool_in_use_windows",
            Ctr::RadioFramesTx => "radio_frames_tx",
            Ctr::RadioAttempts => "radio_attempts",
            Ctr::RadioDelivered => "radio_delivered",
            Ctr::RadioLost => "radio_lost",
            Ctr::RadioDuplicates => "radio_duplicates",
            Ctr::LedFramesTx => "led_frames_tx",
            Ctr::LedDelivered => "led_delivered",
            Ctr::LedLost => "led_lost",
            Ctr::ReportsAccepted => "reports_accepted",
            Ctr::StepsExtracted => "steps_extracted",
            Ctr::IdleEvents => "idle_events",
            Ctr::PlannerDecisions => "planner_decisions",
            Ctr::PromptsRendered => "prompts_rendered",
            Ctr::RemindersIssued => "reminders_issued",
            Ctr::RepromptEscalations => "reprompt_escalations",
            Ctr::Praises => "praises",
            Ctr::EpisodesStarted => "episodes_started",
            Ctr::EpisodesCompleted => "episodes_completed",
            Ctr::SessionsStarted => "sessions_started",
            Ctr::SessionsCompleted => "sessions_completed",
            Ctr::SessionsAbandoned => "sessions_abandoned",
            Ctr::CrossActivityFlags => "cross_activity_flags",
            Ctr::TotalsSaturated => "totals_saturated",
            Ctr::EscalationsRaised => "escalations_raised",
            Ctr::EscalationsAcked => "escalations_acked",
            Ctr::EscalationsResolved => "escalations_resolved",
            Ctr::CareTrendWindows => "care_trend_windows",
        }
    }
}

/// Pipeline stages with a dedicated latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Patient froze → sensing raised the idle-timeout event.
    IdleDetect,
    /// Patient picked the wrong tool → red LED blink command sent.
    WrongToolRedBlink,
    /// Prompt delivered → patient performed the prompted step.
    PromptToCompliance,
}

impl Stage {
    /// Number of stages (size of the histogram array).
    pub const COUNT: usize = 3;

    /// All stages in export order.
    pub const ALL: [Stage; Stage::COUNT] =
        [Stage::IdleDetect, Stage::WrongToolRedBlink, Stage::PromptToCompliance];

    /// Stable snake_case name used in JSONL export.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Stage::IdleDetect => "idle_detect_ms",
            Stage::WrongToolRedBlink => "wrong_tool_red_blink_ms",
            Stage::PromptToCompliance => "prompt_to_compliance_ms",
        }
    }

    /// Human label for the text summary.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Stage::IdleDetect => "idle-detect delay",
            Stage::WrongToolRedBlink => "wrong-tool->red-blink",
            Stage::PromptToCompliance => "prompt->compliance",
        }
    }

    /// Histogram range and bin count, in milliseconds.
    ///
    /// Idle detection and compliance run on human time scales (the
    /// idle timeout alone is minutes), wrong-tool reaction on sampling
    /// time scales — so the red-blink stage gets 100 ms bins and the
    /// other two 1 s bins.
    #[must_use]
    pub const fn bins(self) -> (f64, f64, usize) {
        match self {
            Stage::IdleDetect | Stage::PromptToCompliance => (0.0, 300_000.0, 300),
            Stage::WrongToolRedBlink => (0.0, 30_000.0, 300),
        }
    }
}

/// One structured trace event. `Copy` and allocation-free by design:
/// labels are interned ids ([`NameId`], [`StepId`], [`ToolId`]), never
/// strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A live episode began (`episode` = per-home ordinal).
    EpisodeStarted {
        /// Per-home episode ordinal.
        episode: u32,
    },
    /// A live episode ended.
    EpisodeEnded {
        /// Whether the routine ran to completion.
        completed: bool,
    },
    /// An uplink report died on the radio.
    RadioLost {
        /// Reporting node id.
        node: u16,
        /// Transmission attempts the ARQ spent.
        attempts: u8,
    },
    /// Sensing extracted a StepID from an accepted report.
    StepExtracted {
        /// The extracted step.
        step: StepId,
    },
    /// Sensing synthesised an idle-timeout event.
    IdleDetected {
        /// How long the patient had been idle, in ms.
        idle_ms: u32,
    },
    /// A reminder was issued.
    ReminderIssued {
        /// Tool the prompt points at.
        tool: ToolId,
        /// Whether the prompt was specific (vs minimal).
        specific: bool,
        /// Whether a wrong tool (vs idling) triggered it.
        wrong_tool: bool,
    },
    /// A red/green LED command went over the downlink.
    LedCommand {
        /// Target tool's node.
        tool: ToolId,
        /// Red (wrong tool) vs green (guidance) blink.
        red: bool,
        /// Whether the downlink delivered it.
        delivered: bool,
    },
    /// The patient complied with the prompted step.
    Praised {
        /// Prompt-to-compliance latency in ms.
        latency_ms: u32,
    },
    /// An unanswered reminder escalated to a louder prompt.
    Reprompt {
        /// Escalations so far within this intervention.
        escalations: u8,
    },
    /// The session tracker opened an activity session.
    SessionStarted {
        /// Interned activity name.
        name: NameId,
    },
    /// The session tracker closed an activity session.
    SessionEnded {
        /// Interned activity name.
        name: NameId,
        /// Completed (vs abandoned).
        completed: bool,
    },
    /// Cross-activity tool use flagged.
    CrossActivity {
        /// Interned name of the *other* activity.
        name: NameId,
    },
}

/// A timestamped trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

/// Default trace-ring capacity: enough to hold several episodes'
/// worth of narrative around a violation.
pub const DEFAULT_RING_CAP: usize = 256;

/// Bounded drop-oldest ring of [`TraceRecord`]s.
///
/// Pushing into a full ring overwrites the oldest record and bumps
/// [`dropped`](Self::dropped); nothing allocates after construction.
///
/// Equality is *logical*: two rings compare equal when they hold the
/// same records in the same oldest→newest order with the same capacity
/// and drop count, regardless of where the write head physically sits.
/// A ring restored from a checkpoint stores its records linearly from
/// slot 0, so physical layout is not resume-invariant but the story the
/// ring tells is.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<TraceRecord>,
    cap: usize,
    head: usize,
    dropped: u64,
}

impl PartialEq for TraceRing {
    fn eq(&self, other: &Self) -> bool {
        self.cap == other.cap
            && self.dropped == other.dropped
            && self.buf.len() == other.buf.len()
            && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for TraceRing {}

impl TraceRing {
    /// An empty ring holding at most `cap` records.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "trace ring needs capacity");
        TraceRing { buf: Vec::with_capacity(cap), cap, head: 0, dropped: 0 }
    }

    /// Appends a record, overwriting the oldest when full.
    pub fn push(&mut self, at: SimTime, kind: TraceKind) {
        let rec = TraceRecord { at, kind };
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted to make room.
    #[must_use]
    pub const fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let (wrapped, linear) = self.buf.split_at(self.head);
        linear.iter().chain(wrapped.iter())
    }

    /// The ring's capacity.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.cap
    }

    /// Snapshots the held records, oldest → newest (checkpointing).
    #[must_use]
    pub fn export_records(&self) -> Vec<TraceRecord> {
        self.iter().copied().collect()
    }

    /// Restores records captured by [`TraceRing::export_records`] plus
    /// the drop count. The records are laid out linearly from slot 0
    /// with the head on the oldest record, which reproduces the exact
    /// drop-oldest behaviour of the original ring on subsequent pushes.
    ///
    /// # Panics
    ///
    /// Panics if more records are supplied than the ring can hold.
    pub fn restore_state(&mut self, records: &[TraceRecord], dropped: u64) {
        assert!(records.len() <= self.cap, "ring restore exceeds capacity");
        self.buf.clear();
        self.buf.extend_from_slice(records);
        self.head = 0;
        self.dropped = dropped;
    }
}

/// One home's flight recorder: the counter registry, the per-stage
/// latency histograms, and the trace ring.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeRecorder {
    counters: [u64; Ctr::COUNT],
    stages: Vec<Histogram>,
    ring: TraceRing,
}

impl Default for HomeRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl HomeRecorder {
    /// A fresh recorder holding at most [`DEFAULT_RING_CAP`] trace
    /// records.
    #[must_use]
    pub fn new() -> Self {
        let stages = Stage::ALL
            .iter()
            .map(|s| {
                let (lo, hi, bins) = s.bins();
                Histogram::new(lo, hi, bins)
            })
            .collect();
        HomeRecorder { counters: [0; Ctr::COUNT], stages, ring: TraceRing::new(DEFAULT_RING_CAP) }
    }

    /// Bumps a counter by one.
    #[inline]
    pub fn inc(&mut self, c: Ctr) {
        self.counters[c as usize] = self.counters[c as usize].saturating_add(1);
    }

    /// Bumps a counter by `n`. Saturates at `u64::MAX` — a pinned
    /// counter is a visible lower bound, a wrapped one is a silent lie.
    #[inline]
    pub fn add(&mut self, c: Ctr, n: u64) {
        self.counters[c as usize] = self.counters[c as usize].saturating_add(n);
    }

    /// Current value of a counter.
    #[must_use]
    pub fn counter(&self, c: Ctr) -> u64 {
        self.counters[c as usize]
    }

    /// Records a stage latency in milliseconds.
    #[inline]
    pub fn latency_ms(&mut self, stage: Stage, ms: f64) {
        self.stages[stage as usize].record(ms);
    }

    /// The latency histogram of one stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }

    /// Appends a trace event.
    #[inline]
    pub fn event(&mut self, at: SimTime, kind: TraceKind) {
        self.ring.push(at, kind);
    }

    /// The trace ring.
    #[must_use]
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Folds one wake event into the registry, the stage histograms and
    /// the ring. A session event is stamped with its own instant.
    pub(crate) fn fold(&mut self, at: SimTime, ev: &WakeEvent) {
        let clamp = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
        match *ev {
            WakeEvent::SampleWindows { windows, in_use } => {
                self.add(Ctr::SampleWindows, windows);
                self.add(Ctr::ToolInUseWindows, in_use);
            }
            WakeEvent::RadioFrame { node, attempts, duplicates } => {
                self.inc(Ctr::RadioFramesTx);
                self.add(Ctr::RadioAttempts, u64::from(attempts));
                if let Some(duplicates) = duplicates {
                    self.inc(Ctr::RadioDelivered);
                    self.add(Ctr::RadioDuplicates, u64::from(duplicates));
                } else {
                    self.inc(Ctr::RadioLost);
                    self.event(at, TraceKind::RadioLost { node, attempts });
                }
            }
            WakeEvent::ReportAccepted(_) => self.inc(Ctr::ReportsAccepted),
            WakeEvent::StepSensed { step, frozen_ms } if step.is_idle() => {
                self.inc(Ctr::IdleEvents);
                if let Some(ms) = frozen_ms {
                    self.latency_ms(Stage::IdleDetect, ms as f64);
                }
                self.event(at, TraceKind::IdleDetected { idle_ms: frozen_ms.map_or(0, clamp) });
            }
            WakeEvent::StepSensed { step, .. } => {
                self.inc(Ctr::StepsExtracted);
                self.event(at, TraceKind::StepExtracted { step });
            }
            WakeEvent::PlannerDecision => self.inc(Ctr::PlannerDecisions),
            WakeEvent::Reminder { ref reminder, reprompt, red_blink_ms } => {
                if let Some(ms) = red_blink_ms {
                    self.latency_ms(Stage::WrongToolRedBlink, ms as f64);
                }
                self.inc(Ctr::PromptsRendered);
                self.inc(Ctr::RemindersIssued);
                self.event(
                    at,
                    TraceKind::ReminderIssued {
                        tool: reminder.prompt.tool,
                        specific: reminder.prompt.level == ReminderLevel::Specific,
                        wrong_tool: matches!(reminder.trigger, Trigger::WrongTool { .. }),
                    },
                );
                if let Some(escalations) = reprompt {
                    self.inc(Ctr::RepromptEscalations);
                    let escalations = u8::try_from(escalations).unwrap_or(u8::MAX);
                    self.event(at, TraceKind::Reprompt { escalations });
                }
            }
            WakeEvent::LedCommand { tool, red, delivered } => {
                self.inc(Ctr::LedFramesTx);
                self.inc(if delivered { Ctr::LedDelivered } else { Ctr::LedLost });
                self.event(at, TraceKind::LedCommand { tool, red, delivered });
            }
            WakeEvent::Praised { latency_ms } => {
                self.inc(Ctr::Praises);
                self.latency_ms(Stage::PromptToCompliance, latency_ms as f64);
                self.event(at, TraceKind::Praised { latency_ms: clamp(latency_ms) });
            }
            WakeEvent::Completed => self.inc(Ctr::EpisodesCompleted),
            WakeEvent::EpisodeStarted { episode, .. } => {
                self.inc(Ctr::EpisodesStarted);
                self.event(at, TraceKind::EpisodeStarted { episode: clamp(episode) });
            }
            WakeEvent::EpisodeEnded { completed } => {
                self.event(at, TraceKind::EpisodeEnded { completed });
            }
            WakeEvent::Session(SessionEvent::Started { activity, at }) => {
                self.inc(Ctr::SessionsStarted);
                self.event(at, TraceKind::SessionStarted { name: activity });
            }
            WakeEvent::Session(SessionEvent::Ended { activity, at, completed }) => {
                self.inc(if completed { Ctr::SessionsCompleted } else { Ctr::SessionsAbandoned });
                self.event(at, TraceKind::SessionEnded { name: activity, completed });
            }
            WakeEvent::Session(SessionEvent::CrossActivityUse { active, at, .. }) => {
                self.inc(Ctr::CrossActivityFlags);
                self.event(at, TraceKind::CrossActivity { name: active });
            }
            WakeEvent::Escalation(kind) => self.inc(match kind {
                CareEventKind::Raised => Ctr::EscalationsRaised,
                CareEventKind::Acked => Ctr::EscalationsAcked,
                CareEventKind::Resolved => Ctr::EscalationsResolved,
            }),
            WakeEvent::PatientStarted(_)
            | WakeEvent::PatientFroze
            | WakeEvent::PatientMisused(_)
            | WakeEvent::Tick(_) => {}
        }
    }

    /// Folds another recorder's counters and histograms into this one.
    ///
    /// Trace rings are *not* merged: a ring is a per-home narrative and
    /// interleaving two of them would produce a story nobody lived.
    /// The absorbed recorder's ring (and drops) are simply discarded;
    /// keep per-home recorders around when the rings matter.
    ///
    /// Counter sums saturate rather than wrap: absorbing a whole metro
    /// fleet (100k–1M homes) into one recorder multiplies every counter
    /// by the fleet size, and a wrapped total would lie silently. Each
    /// clamp bumps [`Ctr::TotalsSaturated`], the same flag the report
    /// totals use, so a saturated aggregate is visible in the summary.
    pub fn absorb(&mut self, other: &HomeRecorder) {
        let mut clamped = 0u64;
        for i in 0..Ctr::COUNT {
            let (sum, overflowed) = self.counters[i].overflowing_add(other.counters[i]);
            self.counters[i] = if overflowed {
                clamped += 1;
                u64::MAX
            } else {
                sum
            };
        }
        if clamped > 0 {
            self.add(Ctr::TotalsSaturated, clamped);
        }
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.merge(theirs);
        }
    }

    /// Captures the recorder's complete state (checkpointing): counters,
    /// per-stage histogram counts, and the trace ring's records and drop
    /// count. Histogram *shapes* are fixed by [`Stage::bins`] and are not
    /// captured.
    #[must_use]
    pub fn export_state(&self) -> RecorderState {
        RecorderState {
            counters: self.counters.to_vec(),
            stages: self
                .stages
                .iter()
                .map(|h| {
                    let bins = (0..h.bins()).map(|i| h.bin_count(i)).collect();
                    (bins, h.underflow(), h.overflow())
                })
                .collect(),
            ring: self.ring.export_records(),
            ring_dropped: self.ring.dropped(),
        }
    }

    /// Restores state captured by [`HomeRecorder::export_state`],
    /// replacing this recorder's counters, histograms and ring records.
    /// The ring keeps this recorder's capacity: the state does not carry
    /// one, since every fleet recorder is built with
    /// [`DEFAULT_RING_CAP`].
    ///
    /// # Panics
    ///
    /// Panics if the state holds *more* counters than this build's
    /// registry, if the stage count does not match, if a stage's bin
    /// count differs from [`Stage::bins`] — a checkpoint from an
    /// incompatible layout — or if it holds more ring records than this
    /// recorder's ring capacity. A *shorter* counter vector is accepted and
    /// zero-filled: the registry only ever grows by appending, so a
    /// snapshot from an older build restores with its missing counters
    /// at zero (exactly what the older build would have recorded).
    pub fn restore_state(&mut self, state: &RecorderState) {
        assert!(state.counters.len() <= Ctr::COUNT, "counter registry size mismatch");
        assert_eq!(state.stages.len(), Stage::COUNT, "stage registry size mismatch");
        self.counters = [0; Ctr::COUNT];
        self.counters[..state.counters.len()].copy_from_slice(&state.counters);
        self.stages = Stage::ALL
            .iter()
            .zip(&state.stages)
            .map(|(s, (bins, under, over))| {
                let (lo, hi, n) = s.bins();
                assert_eq!(bins.len(), n, "stage histogram bin count mismatch");
                Histogram::from_parts(lo, hi, bins.clone(), *under, *over)
            })
            .collect();
        self.ring.restore_state(&state.ring, state.ring_dropped);
    }
}

/// A [`HomeRecorder`]'s captured state — the checkpoint-codec view of
/// the flight recorder. Counters merge *across* a snapshot boundary on
/// resume (they are restored, not reset), which is what keeps a resumed
/// run's [`Telemetry::render_summary`] identical to an uninterrupted
/// one's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderState {
    /// Counter values in [`Ctr::ALL`] order.
    pub counters: Vec<u64>,
    /// Per-stage `(bin counts, underflow, overflow)` in [`Stage::ALL`]
    /// order.
    pub stages: Vec<(Vec<u64>, u64, u64)>,
    /// Held trace records, oldest → newest.
    pub ring: Vec<TraceRecord>,
    /// Trace records evicted before the snapshot.
    pub ring_dropped: u64,
}

/// A whole run's telemetry: one recorder per home, in home-id order.
///
/// Built by [`crate::metro::collect_served`] by concatenating shard
/// outputs in input order, which is what makes the merge deterministic:
/// the same homes always land at the same indices regardless of worker
/// count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Telemetry {
    /// Per-home recorders, indexed by home id.
    pub homes: Vec<HomeRecorder>,
    /// Fleet-level recorder for quantities that belong to the merged
    /// run rather than any one home (e.g. [`Ctr::TotalsSaturated`]).
    /// Derived deterministically from per-home data, so it is as
    /// jobs-invariant as the homes themselves.
    pub fleet: HomeRecorder,
}

impl Telemetry {
    /// Aggregates the fleet recorder and every home into one recorder
    /// (rings discarded; see [`HomeRecorder::absorb`]).
    #[must_use]
    pub fn aggregate(&self) -> HomeRecorder {
        let mut total = HomeRecorder::new();
        total.absorb(&self.fleet);
        for h in &self.homes {
            total.absorb(h);
        }
        total
    }

    /// Total trace records currently held across homes.
    #[must_use]
    pub fn events_recorded(&self) -> u64 {
        self.homes.iter().map(|h| h.ring().len() as u64).sum()
    }

    /// Total trace records evicted across homes.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.homes.iter().map(|h| h.ring().dropped()).sum()
    }

    /// Deterministic human-readable summary (golden-pinned).
    #[must_use]
    pub fn render_summary(&self) -> String {
        let t = self.aggregate();
        let c = |ctr: Ctr| t.counter(ctr);
        let mut out = String::new();
        out.push_str(&format!("telemetry: {} home(s)\n", self.homes.len()));
        out.push_str(&format!(
            "  sensing: {} sample windows, {} tool-in-use\n",
            c(Ctr::SampleWindows),
            c(Ctr::ToolInUseWindows),
        ));
        out.push_str(&format!(
            "  radio: {} frames, {} attempts, {} delivered, {} lost, {} duplicate(s)\n",
            c(Ctr::RadioFramesTx),
            c(Ctr::RadioAttempts),
            c(Ctr::RadioDelivered),
            c(Ctr::RadioLost),
            c(Ctr::RadioDuplicates),
        ));
        out.push_str(&format!(
            "  led downlink: {} sent, {} delivered, {} lost\n",
            c(Ctr::LedFramesTx),
            c(Ctr::LedDelivered),
            c(Ctr::LedLost),
        ));
        out.push_str(&format!(
            "  extraction: {} reports accepted, {} steps, {} idle events\n",
            c(Ctr::ReportsAccepted),
            c(Ctr::StepsExtracted),
            c(Ctr::IdleEvents),
        ));
        out.push_str(&format!(
            "  planning: {} decisions, {} reminders ({} escalations), {} praises\n",
            c(Ctr::PlannerDecisions),
            c(Ctr::RemindersIssued),
            c(Ctr::RepromptEscalations),
            c(Ctr::Praises),
        ));
        out.push_str(&format!(
            "  episodes: {} started, {} completed\n",
            c(Ctr::EpisodesStarted),
            c(Ctr::EpisodesCompleted),
        ));
        out.push_str(&format!(
            "  sessions: {} started, {} completed, {} abandoned, {} cross-activity\n",
            c(Ctr::SessionsStarted),
            c(Ctr::SessionsCompleted),
            c(Ctr::SessionsAbandoned),
            c(Ctr::CrossActivityFlags),
        ));
        // Care counters only render when a care policy ran, so the
        // golden-pinned summary of careless runs is byte-unchanged.
        let care_total = c(Ctr::EscalationsRaised)
            + c(Ctr::EscalationsAcked)
            + c(Ctr::EscalationsResolved)
            + c(Ctr::CareTrendWindows);
        if care_total > 0 {
            out.push_str(&format!(
                "  care: {} raised, {} acked, {} resolved, {} trend window(s)\n",
                c(Ctr::EscalationsRaised),
                c(Ctr::EscalationsAcked),
                c(Ctr::EscalationsResolved),
                c(Ctr::CareTrendWindows),
            ));
        }
        for s in Stage::ALL {
            let h = t.stage(s);
            out.push_str(&format!("  {}: {}\n", s.label(), render_quantiles(h)));
        }
        out.push_str(&format!(
            "  trace: {} event(s) held, {} dropped\n",
            self.events_recorded(),
            self.events_dropped(),
        ));
        if c(Ctr::TotalsSaturated) > 0 {
            out.push_str(&format!(
                "  WARNING: {} total(s) saturated; aggregate counts are lower bounds\n",
                c(Ctr::TotalsSaturated),
            ));
        }
        out
    }

    /// Serialises the whole run as JSON Lines: one `summary` line, then
    /// one `home` line per home (counters, stage quantiles, and the
    /// trace ring oldest → newest).
    ///
    /// Hand-rolled std-only writer in the spirit of the testkit's
    /// `FaultPlan` codec; every float goes through [`json_f64`], so a
    /// non-finite value can never leak into the output.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let t = self.aggregate();
        out.push_str("{\"kind\":\"summary\",\"homes\":");
        out.push_str(&self.homes.len().to_string());
        push_counters(&mut out, &t);
        push_stages(&mut out, &t);
        out.push_str(",\"events_held\":");
        out.push_str(&self.events_recorded().to_string());
        out.push_str(",\"events_dropped\":");
        out.push_str(&self.events_dropped().to_string());
        out.push_str("}\n");
        for (i, h) in self.homes.iter().enumerate() {
            out.push_str("{\"kind\":\"home\",\"home\":");
            out.push_str(&i.to_string());
            push_counters(&mut out, h);
            push_stages(&mut out, h);
            out.push_str(",\"events\":[");
            for (j, rec) in h.ring().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_trace_record(&mut out, rec);
            }
            out.push_str("],\"events_dropped\":");
            out.push_str(&h.ring().dropped().to_string());
            out.push_str("}\n");
        }
        out
    }
}

/// Formats an f64 for JSON, mapping non-finite values to `null` so the
/// output always parses. (Nothing in the recorder should produce one —
/// this is the last line of defence the `RunningStats` ∞-leak bug
/// showed we need.)
#[must_use]
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn push_counters(out: &mut String, r: &HomeRecorder) {
    out.push_str(",\"counters\":{");
    for (i, c) in Ctr::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(c.name());
        out.push_str("\":");
        out.push_str(&r.counter(*c).to_string());
    }
    out.push('}');
}

fn push_stages(out: &mut String, r: &HomeRecorder) {
    out.push_str(",\"stages\":{");
    for (i, s) in Stage::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let h = r.stage(*s);
        out.push('"');
        out.push_str(s.name());
        out.push_str("\":{\"count\":");
        out.push_str(&h.total().to_string());
        for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            out.push_str(",\"");
            out.push_str(label);
            out.push_str("\":");
            match h.quantile(q) {
                Some(v) => out.push_str(&json_f64(v)),
                None => out.push_str("null"),
            }
        }
        out.push('}');
    }
    out.push('}');
}

fn push_trace_record(out: &mut String, rec: &TraceRecord) {
    out.push_str("{\"at_ms\":");
    out.push_str(&rec.at.as_millis().to_string());
    out.push_str(",\"event\":");
    match rec.kind {
        TraceKind::EpisodeStarted { episode } => {
            out.push_str(&format!("\"episode_started\",\"episode\":{episode}"));
        }
        TraceKind::EpisodeEnded { completed } => {
            out.push_str(&format!("\"episode_ended\",\"completed\":{completed}"));
        }
        TraceKind::RadioLost { node, attempts } => {
            out.push_str(&format!("\"radio_lost\",\"node\":{node},\"attempts\":{attempts}"));
        }
        TraceKind::StepExtracted { step } => {
            out.push_str(&format!("\"step_extracted\",\"step\":{}", step.raw()));
        }
        TraceKind::IdleDetected { idle_ms } => {
            out.push_str(&format!("\"idle_detected\",\"idle_ms\":{idle_ms}"));
        }
        TraceKind::ReminderIssued { tool, specific, wrong_tool } => {
            out.push_str(&format!(
                "\"reminder_issued\",\"tool\":{},\"specific\":{specific},\"wrong_tool\":{wrong_tool}",
                tool.raw(),
            ));
        }
        TraceKind::LedCommand { tool, red, delivered } => {
            out.push_str(&format!(
                "\"led_command\",\"tool\":{},\"red\":{red},\"delivered\":{delivered}",
                tool.raw(),
            ));
        }
        TraceKind::Praised { latency_ms } => {
            out.push_str(&format!("\"praised\",\"latency_ms\":{latency_ms}"));
        }
        TraceKind::Reprompt { escalations } => {
            out.push_str(&format!("\"reprompt\",\"escalations\":{escalations}"));
        }
        TraceKind::SessionStarted { name } => {
            out.push_str(&format!("\"session_started\",\"name\":{}", name.index()));
        }
        TraceKind::SessionEnded { name, completed } => {
            out.push_str(&format!(
                "\"session_ended\",\"name\":{},\"completed\":{completed}",
                name.index(),
            ));
        }
        TraceKind::CrossActivity { name } => {
            out.push_str(&format!("\"cross_activity\",\"name\":{}", name.index()));
        }
    }
    out.push('}');
}

fn render_quantiles(h: &Histogram) -> String {
    match (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99)) {
        (Some(p50), Some(p95), Some(p99)) => format!(
            "n={} p50={p50:.0}ms p95={p95:.0}ms p99={p99:.0}ms",
            h.total(),
        ),
        _ => format!("n={} (no samples)", h.total()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctr_all_matches_discriminants() {
        for (i, c) in Ctr::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?} out of place in Ctr::ALL");
        }
        for s in Stage::ALL {
            let (lo, hi, bins) = s.bins();
            assert!(lo < hi && bins > 0);
        }
    }

    #[test]
    fn ring_drops_oldest() {
        let mut ring = TraceRing::new(3);
        for i in 0..5u32 {
            ring.push(SimTime::from_millis(u64::from(i)), TraceKind::EpisodeStarted { episode: i });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let ats: Vec<u64> = ring.iter().map(|r| r.at.as_millis()).collect();
        assert_eq!(ats, vec![2, 3, 4], "oldest two evicted, order preserved");
    }

    #[test]
    fn absorb_sums_counters_and_histograms() {
        let mut a = HomeRecorder::new();
        let mut b = HomeRecorder::new();
        a.inc(Ctr::RemindersIssued);
        b.add(Ctr::RemindersIssued, 2);
        a.latency_ms(Stage::IdleDetect, 1_000.0);
        b.latency_ms(Stage::IdleDetect, 2_000.0);
        b.event(SimTime::ZERO, TraceKind::IdleDetected { idle_ms: 5 });
        a.absorb(&b);
        assert_eq!(a.counter(Ctr::RemindersIssued), 3);
        assert_eq!(a.stage(Stage::IdleDetect).total(), 2);
        assert!(a.ring().is_empty(), "rings are per-home, not merged");
    }

    #[test]
    fn absorb_saturates_and_flags_instead_of_wrapping() {
        let mut a = HomeRecorder::new();
        let mut b = HomeRecorder::new();
        a.add(Ctr::RemindersIssued, u64::MAX - 1);
        b.add(Ctr::RemindersIssued, 5);
        b.inc(Ctr::Praises);
        a.absorb(&b);
        assert_eq!(
            a.counter(Ctr::RemindersIssued),
            u64::MAX,
            "an overflowing counter sum must clamp, not wrap"
        );
        assert_eq!(a.counter(Ctr::Praises), 1, "non-overflowing sums stay exact");
        assert_eq!(
            a.counter(Ctr::TotalsSaturated),
            1,
            "each clamped counter surfaces in TotalsSaturated"
        );

        // `add` itself pins at the ceiling rather than wrapping past it.
        let mut c = HomeRecorder::new();
        c.add(Ctr::RepromptEscalations, u64::MAX);
        c.inc(Ctr::RepromptEscalations);
        assert_eq!(c.counter(Ctr::RepromptEscalations), u64::MAX);
    }

    #[test]
    fn jsonl_has_no_non_finite_and_one_line_per_home() {
        let mut t = Telemetry::default();
        t.homes.push(HomeRecorder::new());
        let mut h = HomeRecorder::new();
        h.inc(Ctr::Praises);
        h.latency_ms(Stage::PromptToCompliance, 1_500.0);
        h.event(SimTime::from_secs(1), TraceKind::Praised { latency_ms: 1_500 });
        t.homes.push(h);
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3, "summary + 2 homes");
        assert!(!jsonl.contains("inf") && !jsonl.contains("NaN"), "{jsonl}");
        assert!(jsonl.lines().next().unwrap().contains("\"kind\":\"summary\""));
        assert!(jsonl.contains("\"praised\""));
    }

    #[test]
    fn json_f64_guards_non_finite() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn recorder_state_round_trips_through_a_wrapped_ring() {
        let mut r = HomeRecorder::new();
        r.add(Ctr::RadioFramesTx, 7);
        r.latency_ms(Stage::IdleDetect, 12_000.0);
        r.latency_ms(Stage::IdleDetect, 999_999.0); // overflow bin
        let pushed = DEFAULT_RING_CAP as u32 + 2;
        for i in 0..pushed {
            r.event(SimTime::from_millis(u64::from(i)), TraceKind::EpisodeStarted { episode: i });
        }
        let state = r.export_state();
        let mut restored = HomeRecorder::new();
        restored.restore_state(&state);
        assert_eq!(restored, r, "restore must be exact (logical ring equality)");
        // Continued pushes behave identically on both sides.
        r.event(SimTime::from_secs(9), TraceKind::Praised { latency_ms: 1 });
        restored.event(SimTime::from_secs(9), TraceKind::Praised { latency_ms: 1 });
        assert_eq!(restored, r);
        assert_eq!(restored.ring().dropped(), 3);
        assert_eq!(restored.ring().iter().next().unwrap().at, SimTime::from_millis(3));
    }

    #[test]
    fn restore_zero_fills_counters_missing_from_older_snapshots() {
        let mut r = HomeRecorder::new();
        r.inc(Ctr::Praises);
        let mut state = r.export_state();
        state.counters.truncate(25); // the pre-care registry size
        let mut restored = HomeRecorder::new();
        restored.inc(Ctr::EscalationsRaised);
        restored.restore_state(&state);
        assert_eq!(restored.counter(Ctr::Praises), 1);
        assert_eq!(restored.counter(Ctr::EscalationsRaised), 0, "missing counters restore to zero");
    }

    #[test]
    fn summary_mentions_care_only_when_escalations_ran() {
        let mut t = Telemetry::default();
        t.homes.push(HomeRecorder::new());
        assert!(!t.render_summary().contains("care:"));
        t.homes[0].inc(Ctr::EscalationsRaised);
        assert!(t.render_summary().contains("care: 1 raised, 0 acked, 0 resolved, 0 trend window(s)"));
    }

    #[test]
    fn summary_mentions_saturation_only_when_it_happened() {
        let mut t = Telemetry::default();
        t.homes.push(HomeRecorder::new());
        assert!(!t.render_summary().contains("WARNING"));
        t.homes[0].inc(Ctr::TotalsSaturated);
        assert!(t.render_summary().contains("WARNING"));
    }
}
