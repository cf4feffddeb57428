//! Durable snapshots of a metro-scale serve.
//!
//! A metro run serving thousands of homes for simulated days is exactly
//! the kind of job that dies to a reboot at hour 19. This module
//! serialises the *complete resumable state* of every home — learned
//! Q-tables with eligibility traces, live-episode state machines,
//! counter-based RNG stream positions, sensornet node/link/base-station
//! state, session tracking, pending DES wakes, and flight-recorder
//! telemetry — into a versioned, CRC-protected binary manifest, and
//! restores it such that *run-to-T, snapshot, resume-to-2T* is
//! bit-identical to an uninterrupted run to 2T, for any checkpoint tick
//! and any worker count.
//!
//! The format follows [`crate::persistence`]'s house style — magic +
//! version + big-endian body + CRC-16 trailer, hand-rolled on [`bytes`]
//! — scaled up with one structural addition: each home's snapshot is a
//! self-contained length-prefixed blob inside the manifest, so the
//! [`FleetEngine`] can encode and decode homes in parallel.
//!
//! What is *not* serialised is anything rebuilt deterministically from
//! the [`MetroConfig`]: ADL specs, planner templates, routine tables,
//! subsystem wiring, scratch buffers. A [`config_digest`] stored in the
//! manifest rejects resumes against a different configuration — but
//! deliberately excludes `jobs` and `horizon`, which a resume is free to
//! change (`jobs` by the determinism guarantee, `horizon` because the
//! resume's horizon *is* the new target).

use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use coreda_adl::intern::NameId;
use coreda_adl::step::StepId;
use coreda_adl::tool::ToolId;
use coreda_des::time::SimTime;
use coreda_rl::space::{ActionId, StateId};
use coreda_sensornet::network::LinkCounters;
use coreda_sensornet::node::{NodeId, NodeState};
use coreda_sensornet::packet::crc16;

use crate::fleet::FleetEngine;
use crate::metro::{HomeStats, MetroConfig};
use crate::planning::LearnedState;
use crate::reminding::{Prompt, ReminderLevel};
use crate::sensing::StepEvent;
use crate::sessions::ActiveSessionState;
use crate::system::{EpisodeState, PhaseState, SystemState};
use crate::telemetry::{RecorderState, TraceKind, TraceRecord};

/// Magic prefix of a checkpoint manifest.
pub const MAGIC: &[u8; 4] = b"CRCK";
/// Current format version.
pub const VERSION: u8 = 1;

/// One home's complete resumable state at a checkpoint instant.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeCheckpoint {
    /// Per-activity system states, in spec order.
    pub systems: Vec<SystemState>,
    /// Session-tracker live session, if one is open.
    pub tracker: Option<ActiveSessionState>,
    /// Home root RNG `(state, base seed)`.
    pub root: ([u64; 4], u64),
    /// Scheduling RNG `(state, base seed)`.
    pub sched: ([u64; 4], u64),
    /// In-flight episode: `(activity index, episode state, episode RNG)`.
    pub episode: Option<(usize, EpisodeState, ([u64; 4], u64))>,
    /// Episodes begun so far (also the next episode-substream index).
    pub ep_index: u64,
    /// When the next episode starts.
    pub next_start: SimTime,
    /// Last instant the home's wake handler served (duplicate-wake dedup).
    pub last_handled: Option<SimTime>,
    /// Statistics so far. `energy_uj` is always zero here: energy lives
    /// in the node meters (inside [`HomeCheckpoint::systems`]) and is
    /// recomputed from them when the resumed run finishes.
    pub stats: HomeStats,
    /// The home's pending DES wakes at the snapshot, in dispatch order.
    /// A home can hold more than one (an episode-start wake plus a
    /// session idle-close wake).
    pub pending: Vec<SimTime>,
    /// Flight-recorder state, when the run was traced.
    pub rec: Option<RecorderState>,
}

/// A whole fleet's snapshot: the manifest [`save_checkpoint`] encodes.
#[derive(Debug, Clone, PartialEq)]
pub struct MetroCheckpoint {
    /// The checkpoint instant (every pending wake is strictly later).
    pub at: SimTime,
    /// [`config_digest`] of the run's configuration.
    pub digest: u64,
    /// Raw DES events processed up to the snapshot (like
    /// [`crate::metro::ScaleReport::des_events`]).
    pub des_events: u64,
    /// Per-home snapshots, in home-id order.
    pub homes: Vec<HomeCheckpoint>,
}

/// Checkpoint codec failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointError {
    /// The manifest is shorter than its declared contents.
    Truncated {
        /// Bytes remaining when the shortage was noticed.
        len: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The manifest is from an unknown format version.
    UnsupportedVersion(u8),
    /// CRC mismatch (torn or corrupted write).
    BadCrc {
        /// CRC stored in the manifest.
        expected: u16,
        /// CRC computed over the body.
        actual: u16,
    },
    /// The manifest belongs to a different run configuration.
    ConfigMismatch {
        /// Digest stored in the manifest.
        expected: u64,
        /// Digest of the configuration offered for resume.
        actual: u64,
    },
    /// A stored float is not finite.
    CorruptValue(f64),
    /// An enum tag has no meaning in this version.
    CorruptTag(u8),
    /// Extra bytes after the declared contents.
    TrailingBytes {
        /// Number of unread bytes.
        extra: usize,
    },
    /// A delta refers to a base snapshot other than the one offered.
    BaseMismatch {
        /// [`checkpoint_fingerprint`] the delta was diffed against.
        expected: u64,
        /// Fingerprint of the base offered for application.
        actual: u64,
    },
    /// A delta's sparse update does not fit the base it was applied to
    /// (a Q-cell index past the table, or a per-system delta list whose
    /// length disagrees with the base's system count), or a snapshot
    /// does not fit the fleet it is resumed into (home count, systems
    /// per home, nodes per system, learned-table size, an activity
    /// index past the catalog, a full detector window, a flip rate or
    /// energy total out of range — reported as the node's position
    /// against the node count — or a channel for an unknown node).
    ShapeMismatch {
        /// Index or length stored in the delta or snapshot.
        index: u32,
        /// The corresponding bound in the base snapshot or fleet.
        bound: u32,
    },
    /// The event log regenerated during resume replay disagrees with the
    /// stored write-ahead log: the run that wrote the log cannot be the
    /// run being resumed.
    WalDivergence {
        /// Instant of the first diverging record.
        at: SimTime,
        /// Home the diverging record belongs to.
        home: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { len } => {
                write!(f, "checkpoint truncated with {len} bytes remaining")
            }
            CheckpointError::BadMagic(m) => write!(f, "bad magic {m:?}"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::BadCrc { expected, actual } => {
                write!(f, "crc mismatch: stored {expected:#06x}, computed {actual:#06x}")
            }
            CheckpointError::ConfigMismatch { expected, actual } => write!(
                f,
                "checkpoint belongs to a different run configuration \
                 (stored digest {expected:#018x}, offered {actual:#018x})"
            ),
            CheckpointError::CorruptValue(v) => write!(f, "non-finite stored value {v}"),
            CheckpointError::CorruptTag(t) => write!(f, "unknown tag {t}"),
            CheckpointError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes"),
            CheckpointError::BaseMismatch { expected, actual } => write!(
                f,
                "delta was diffed against a different base snapshot \
                 (stored fingerprint {expected:#018x}, offered {actual:#018x})"
            ),
            CheckpointError::ShapeMismatch { index, bound } => {
                write!(f, "shape mismatch: index {index} does not fit bound {bound}")
            }
            CheckpointError::WalDivergence { at, home } => write!(
                f,
                "write-ahead log diverges from the resumed run at {}ms (home {home})",
                at.as_millis()
            ),
        }
    }
}

impl Error for CheckpointError {}

/// Digest of everything in a [`MetroConfig`] that shapes the simulated
/// trajectory: homes, seed, gaps, training, idle-close, and the whole
/// per-system configuration. Excludes `jobs` and `horizon` — the two
/// knobs a resume may legitimately change (see the module docs).
#[must_use]
pub fn config_digest(cfg: &MetroConfig) -> u64 {
    // CoredaConfig is a plain tree of numbers/enums; its Debug rendering
    // is a deterministic, std-only serialisation of every field.
    let key = format!(
        "homes={} seed={} gap_min={} gap_max={} train={} idle_close={} system={:?}",
        cfg.homes,
        cfg.seed,
        cfg.gap_min.as_millis(),
        cfg.gap_max.as_millis(),
        cfg.train_episodes,
        cfg.idle_close.as_millis(),
        cfg.system,
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Serialises a fleet snapshot. Per-home blobs are encoded in parallel
/// across `jobs` workers; the output is identical at any worker count.
#[must_use]
pub fn save_checkpoint(ckpt: &MetroCheckpoint, jobs: usize) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64(ckpt.digest);
    buf.put_u64(ckpt.at.as_millis());
    buf.put_u64(ckpt.des_events);
    buf.put_u32(u32::try_from(ckpt.homes.len()).expect("fleets fit in u32"));
    let engine = FleetEngine::new(jobs);
    let blobs = engine.map(ckpt.homes.iter().collect(), encode_home);
    for blob in blobs {
        buf.put_u32(u32::try_from(blob.len()).expect("home blobs fit in u32"));
        buf.put_slice(&blob);
    }
    let crc = crc16(&buf);
    buf.put_u16(crc);
    buf.freeze()
}

/// Restores a fleet snapshot from a manifest produced by
/// [`save_checkpoint`]. Per-home blobs are decoded in parallel across
/// `jobs` workers.
///
/// # Errors
///
/// Returns a [`CheckpointError`] if the manifest is malformed,
/// CRC-damaged, or from a different format version. Configuration
/// compatibility is *not* checked here — compare
/// [`MetroCheckpoint::digest`] against [`config_digest`] (the metro
/// resume APIs do) before resuming.
pub fn load_checkpoint(blob: &[u8], jobs: usize) -> Result<MetroCheckpoint, CheckpointError> {
    const HEADER: usize = 4 + 1;
    if blob.len() < HEADER + 2 {
        return Err(CheckpointError::Truncated { len: blob.len() });
    }
    let (body, trailer) = blob.split_at(blob.len() - 2);
    let expected = u16::from_be_bytes([trailer[0], trailer[1]]);
    let actual = crc16(body);
    if expected != actual {
        return Err(CheckpointError::BadCrc { expected, actual });
    }
    let mut r = Reader { buf: body };
    let mut magic = [0u8; 4];
    r.need(4)?;
    r.buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let digest = r.u64()?;
    let at = r.time()?;
    let des_events = r.u64()?;
    let n_homes = r.len()?;
    let mut slices = Vec::with_capacity(n_homes);
    for _ in 0..n_homes {
        let len = r.len()?;
        r.need(len)?;
        let (head, rest) = r.buf.split_at(len);
        slices.push(head);
        r.buf = rest;
    }
    if r.buf.has_remaining() {
        return Err(CheckpointError::TrailingBytes { extra: r.buf.remaining() });
    }
    let engine = FleetEngine::new(jobs);
    let homes = engine
        .map(slices, decode_home)
        .into_iter()
        .collect::<Result<Vec<HomeCheckpoint>, CheckpointError>>()?;
    Ok(MetroCheckpoint { at, digest, des_events, homes })
}

// ---------------------------------------------------------------------
// Writer side
// ---------------------------------------------------------------------

fn put_len(buf: &mut Vec<u8>, len: usize) {
    buf.put_u32(u32::try_from(len).expect("collection fits in u32"));
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.put_u8(u8::from(v));
}

fn put_time(buf: &mut Vec<u8>, t: SimTime) {
    buf.put_u64(t.as_millis());
}

fn put_opt_time(buf: &mut Vec<u8>, t: Option<SimTime>) {
    match t {
        None => buf.put_u8(0),
        Some(t) => {
            buf.put_u8(1);
            put_time(buf, t);
        }
    }
}

fn put_rng(buf: &mut Vec<u8>, (state, base): ([u64; 4], u64)) {
    for w in state {
        buf.put_u64(w);
    }
    buf.put_u64(base);
}

/// LEB128-encodes `v`. Delta-manifest paths only: the full-snapshot
/// codec stays fixed-width so its format (and the committed checkpoint
/// bench numbers) are untouched, while deltas — which live or die by
/// their byte count — spend one byte on a small counter instead of
/// eight.
fn put_var(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        #[allow(clippy::cast_possible_truncation)]
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn put_var_len(buf: &mut Vec<u8>, len: usize) {
    put_var(buf, u64::try_from(len).expect("collection fits in u64"));
}

fn put_var_time(buf: &mut Vec<u8>, t: SimTime) {
    put_var(buf, t.as_millis());
}

/// Zigzag-encodes a signed value so small magnitudes of either sign
/// stay short.
fn put_var_i64(buf: &mut Vec<u8>, v: i64) {
    #[allow(clippy::cast_sign_loss)]
    put_var(buf, (v.wrapping_shl(1) ^ (v >> 63)) as u64);
}

fn encode_home(h: &HomeCheckpoint) -> Vec<u8> {
    let mut buf = Vec::new();
    put_len(&mut buf, h.systems.len());
    for sys in &h.systems {
        encode_system(&mut buf, sys);
    }
    encode_tracker_slot(&mut buf, h.tracker.as_ref());
    put_rng(&mut buf, h.root);
    put_rng(&mut buf, h.sched);
    encode_episode_slot(&mut buf, h.episode.as_ref());
    buf.put_u64(h.ep_index);
    put_time(&mut buf, h.next_start);
    put_opt_time(&mut buf, h.last_handled);
    encode_stats(&mut buf, &h.stats);
    encode_pending(&mut buf, &h.pending);
    encode_rec_slot(&mut buf, h.rec.as_ref());
    buf
}

fn encode_tracker_slot(buf: &mut Vec<u8>, tracker: Option<&ActiveSessionState>) {
    match tracker {
        None => buf.put_u8(0),
        Some(a) => {
            buf.put_u8(1);
            put_len(buf, a.activity_idx);
            put_time(buf, a.last_report);
            put_bool(buf, a.saw_terminal);
            match a.foreign_run {
                None => buf.put_u8(0),
                Some((idx, run)) => {
                    buf.put_u8(1);
                    put_len(buf, idx);
                    buf.put_u32(run);
                }
            }
        }
    }
}

/// An in-flight episode: activity index, episode state, episode RNG.
type EpisodeSlot = (usize, EpisodeState, ([u64; 4], u64));

fn encode_episode_slot(buf: &mut Vec<u8>, episode: Option<&EpisodeSlot>) {
    match episode {
        None => buf.put_u8(0),
        Some((act, ep, rng)) => {
            buf.put_u8(1);
            put_len(buf, *act);
            encode_episode(buf, ep);
            put_rng(buf, *rng);
        }
    }
}

fn encode_stats(buf: &mut Vec<u8>, stats: &HomeStats) {
    for v in [
        stats.episodes_started,
        stats.episodes_completed,
        stats.reminders,
        stats.praises,
        stats.sessions_started,
        stats.sessions_completed,
        stats.sessions_abandoned,
        stats.cross_activity_flags,
        stats.pipeline_ticks,
    ] {
        buf.put_u64(v);
    }
}

/// Varint mirror of [`encode_stats`], used only on the delta path so the
/// full-snapshot format stays fixed-width and stable.
fn encode_stats_var(buf: &mut Vec<u8>, stats: &HomeStats) {
    for v in [
        stats.episodes_started,
        stats.episodes_completed,
        stats.reminders,
        stats.praises,
        stats.sessions_started,
        stats.sessions_completed,
        stats.sessions_abandoned,
        stats.cross_activity_flags,
        stats.pipeline_ticks,
    ] {
        put_var(buf, v);
    }
}

fn encode_pending(buf: &mut Vec<u8>, pending: &[SimTime]) {
    put_len(buf, pending.len());
    for &due in pending {
        put_time(buf, due);
    }
}

fn encode_rec_slot(buf: &mut Vec<u8>, rec: Option<&RecorderState>) {
    match rec {
        None => buf.put_u8(0),
        Some(rec) => {
            buf.put_u8(1);
            encode_recorder(buf, rec);
        }
    }
}

fn encode_system(buf: &mut Vec<u8>, s: &SystemState) {
    encode_learned(buf, s.learned.as_ref());
    encode_system_rest(buf, s);
}

fn encode_learned(buf: &mut Vec<u8>, learned: Option<&LearnedState>) {
    match learned {
        None => buf.put_u8(0),
        Some(l) => {
            buf.put_u8(1);
            put_len(buf, l.values.len());
            for &v in &l.values {
                buf.put_f64(v);
            }
            put_len(buf, l.visits.len());
            for &v in &l.visits {
                buf.put_u64(v);
            }
            put_len(buf, l.traces.len());
            for &(st, a, e) in &l.traces {
                put_len(buf, st.index());
                put_len(buf, a.index());
                buf.put_f64(e);
            }
            buf.put_u64(l.updates);
            buf.put_u64(l.episodes_trained);
        }
    }
}

/// Everything in a [`SystemState`] except `learned`, in the same order
/// [`encode_system`] writes it.
fn encode_system_rest(buf: &mut Vec<u8>, s: &SystemState) {
    match s.sensing_current {
        None => buf.put_u8(0),
        Some(step) => {
            buf.put_u8(1);
            buf.put_u16(step.raw());
        }
    }
    put_opt_time(buf, s.sensing_last_report);
    put_len(buf, s.sensing_history.len());
    for ev in &s.sensing_history {
        put_time(buf, ev.at);
        buf.put_u16(ev.step.raw());
    }
    put_len(buf, s.nodes.len());
    for (node, state, base) in &s.nodes {
        encode_node(buf, node);
        put_rng(buf, (*state, *base));
    }
    put_rng(buf, s.net_rng);
    buf.put_u16(s.downlink_seq);
    put_len(buf, s.channels.len());
    for &(id, bad, sent, lost) in &s.channels {
        buf.put_u16(id.raw());
        put_bool(buf, bad);
        buf.put_u64(sent);
        buf.put_u64(lost);
    }
    for c in [&s.uplink, &s.downlink] {
        buf.put_u64(c.frames);
        buf.put_u64(c.attempts);
        buf.put_u64(c.delivered);
        buf.put_u64(c.lost);
        buf.put_u64(c.duplicates);
    }
    put_len(buf, s.base_last_seqs.len());
    for &(id, seq) in &s.base_last_seqs {
        buf.put_u16(id.raw());
        buf.put_u16(seq);
    }
    buf.put_u64(s.base_accepted);
    buf.put_u64(s.base_duplicates);
}

fn encode_node(buf: &mut Vec<u8>, n: &NodeState) {
    put_len(buf, n.detector_window.len());
    for &vote in &n.detector_window {
        put_bool(buf, vote);
    }
    put_bool(buf, n.led_green);
    put_bool(buf, n.led_red);
    buf.put_f64(n.energy_uj);
    let (samples, tx, rx, led, sleep) = n.energy_breakdown;
    for v in [samples, tx, rx, led, sleep] {
        buf.put_u64(v);
    }
    buf.put_u16(n.next_seq);
    buf.put_f64(n.window_peak_activation);
    buf.put_u64(n.windows_closed);
    buf.put_u64(n.reports_sent);
    put_bool(buf, n.failed);
    buf.put_f64(n.flip_false_positive);
    buf.put_f64(n.flip_false_negative);
    #[allow(clippy::cast_sign_loss)]
    buf.put_u64(n.clock_skew_ms as u64);
}

fn encode_episode(buf: &mut Vec<u8>, ep: &EpisodeState) {
    match ep.phase {
        PhaseState::Performing { idx, until } => {
            buf.put_u8(0);
            put_len(buf, idx);
            put_time(buf, until);
        }
        PhaseState::Misusing { tool, since, resume_idx } => {
            buf.put_u8(1);
            buf.put_u16(tool.raw());
            put_time(buf, since);
            put_len(buf, resume_idx);
        }
        PhaseState::Frozen { since, resume_idx } => {
            buf.put_u8(2);
            put_time(buf, since);
            put_len(buf, resume_idx);
        }
        PhaseState::Done => buf.put_u8(3),
    }
    match ep.tracked {
        None => buf.put_u8(0),
        Some((prev, cur)) => {
            buf.put_u8(1);
            buf.put_u16(prev.raw());
            buf.put_u16(cur.raw());
        }
    }
    match ep.pending {
        None => buf.put_u8(0),
        Some((due, prompt)) => {
            buf.put_u8(1);
            put_time(buf, due);
            buf.put_u16(prompt.tool.raw());
            buf.put_u8(match prompt.level {
                ReminderLevel::Minimal => 0,
                ReminderLevel::Specific => 1,
            });
        }
    }
    put_opt_time(buf, ep.last_reminder);
    buf.put_u32(ep.reminders_since_advance);
    put_bool(buf, ep.completed);
    buf.put_u64(ep.ticks_done);
    buf.put_u64(ep.max_ticks);
    put_time(buf, ep.start);
    put_bool(buf, ep.finished);
}

fn encode_recorder(buf: &mut Vec<u8>, rec: &RecorderState) {
    put_len(buf, rec.counters.len());
    for &c in &rec.counters {
        buf.put_u64(c);
    }
    put_len(buf, rec.stages.len());
    for (bins, under, over) in &rec.stages {
        put_len(buf, bins.len());
        for &b in bins {
            buf.put_u64(b);
        }
        buf.put_u64(*under);
        buf.put_u64(*over);
    }
    put_len(buf, rec.ring_cap);
    put_len(buf, rec.ring.len());
    for r in &rec.ring {
        encode_trace(buf, r);
    }
    buf.put_u64(rec.ring_dropped);
}

fn encode_trace(buf: &mut Vec<u8>, r: &TraceRecord) {
    put_time(buf, r.at);
    match r.kind {
        TraceKind::EpisodeStarted { episode } => {
            buf.put_u8(0);
            buf.put_u32(episode);
        }
        TraceKind::EpisodeEnded { completed } => {
            buf.put_u8(1);
            put_bool(buf, completed);
        }
        TraceKind::ToolInUse { node } => {
            buf.put_u8(2);
            buf.put_u16(node);
        }
        TraceKind::RadioDelivered { node, attempts } => {
            buf.put_u8(3);
            buf.put_u16(node);
            buf.put_u8(attempts);
        }
        TraceKind::RadioLost { node, attempts } => {
            buf.put_u8(4);
            buf.put_u16(node);
            buf.put_u8(attempts);
        }
        TraceKind::StepExtracted { step } => {
            buf.put_u8(5);
            buf.put_u16(step.raw());
        }
        TraceKind::IdleDetected { idle_ms } => {
            buf.put_u8(6);
            buf.put_u32(idle_ms);
        }
        TraceKind::ReminderIssued { tool, specific, wrong_tool } => {
            buf.put_u8(7);
            buf.put_u16(tool.raw());
            put_bool(buf, specific);
            put_bool(buf, wrong_tool);
        }
        TraceKind::LedCommand { tool, red, delivered } => {
            buf.put_u8(8);
            buf.put_u16(tool.raw());
            put_bool(buf, red);
            put_bool(buf, delivered);
        }
        TraceKind::Praised { latency_ms } => {
            buf.put_u8(9);
            buf.put_u32(latency_ms);
        }
        TraceKind::Reprompt { escalations } => {
            buf.put_u8(10);
            buf.put_u8(escalations);
        }
        TraceKind::SessionStarted { name } => {
            buf.put_u8(11);
            buf.put_u32(u32::try_from(name.index()).expect("name ids are u32"));
        }
        TraceKind::SessionEnded { name, completed } => {
            buf.put_u8(12);
            buf.put_u32(u32::try_from(name.index()).expect("name ids are u32"));
            put_bool(buf, completed);
        }
        TraceKind::CrossActivity { name } => {
            buf.put_u8(13);
            buf.put_u32(u32::try_from(name.index()).expect("name ids are u32"));
        }
    }
}

// ---------------------------------------------------------------------
// Reader side
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
}

impl Reader<'_> {
    fn need(&self, n: usize) -> Result<(), CheckpointError> {
        if self.buf.remaining() < n {
            Err(CheckpointError::Truncated { len: self.buf.remaining() })
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        self.need(2)?;
        Ok(self.buf.get_u16())
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        self.need(4)?;
        Ok(self.buf.get_u32())
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        self.need(8)?;
        Ok(self.buf.get_u64())
    }

    fn i64(&mut self) -> Result<i64, CheckpointError> {
        #[allow(clippy::cast_possible_wrap)]
        Ok(self.u64()? as i64)
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        let v = f64::from_bits(self.u64()?);
        if v.is_finite() {
            Ok(v)
        } else {
            Err(CheckpointError::CorruptValue(v))
        }
    }

    fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CheckpointError::CorruptTag(t)),
        }
    }

    fn opt(&mut self) -> Result<bool, CheckpointError> {
        self.bool()
    }

    fn len(&mut self) -> Result<usize, CheckpointError> {
        Ok(self.u32()? as usize)
    }

    fn time(&mut self) -> Result<SimTime, CheckpointError> {
        Ok(SimTime::from_millis(self.u64()?))
    }

    fn opt_time(&mut self) -> Result<Option<SimTime>, CheckpointError> {
        if self.opt()? {
            Ok(Some(self.time()?))
        } else {
            Ok(None)
        }
    }

    fn rng(&mut self) -> Result<([u64; 4], u64), CheckpointError> {
        let state = [self.u64()?, self.u64()?, self.u64()?, self.u64()?];
        let base = self.u64()?;
        Ok((state, base))
    }

    /// LEB128 counterpart of [`put_var`]. Non-canonical (overlong)
    /// encodings are accepted — integrity comes from the manifest CRC,
    /// not from canonical form — but a continuation run past the u64
    /// range is rejected rather than shifted out of bounds.
    fn var(&mut self) -> Result<u64, CheckpointError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 {
                return Err(CheckpointError::CorruptTag(byte));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn var_len(&mut self) -> Result<usize, CheckpointError> {
        let v = self.var()?;
        usize::try_from(v).map_err(|_| CheckpointError::Truncated { len: self.buf.remaining() })
    }

    fn var_time(&mut self) -> Result<SimTime, CheckpointError> {
        Ok(SimTime::from_millis(self.var()?))
    }

    fn var_i64(&mut self) -> Result<i64, CheckpointError> {
        let z = self.var()?;
        #[allow(clippy::cast_possible_wrap)]
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }
}

fn decode_home(blob: &[u8]) -> Result<HomeCheckpoint, CheckpointError> {
    let mut r = Reader { buf: blob };
    let n_systems = r.len()?;
    let mut systems = Vec::with_capacity(n_systems.min(64));
    for _ in 0..n_systems {
        systems.push(decode_system(&mut r)?);
    }
    let tracker = decode_tracker_slot(&mut r)?;
    let root = r.rng()?;
    let sched = r.rng()?;
    let episode = decode_episode_slot(&mut r)?;
    let ep_index = r.u64()?;
    let next_start = r.time()?;
    let last_handled = r.opt_time()?;
    let stats = decode_stats(&mut r)?;
    let pending = decode_pending(&mut r)?;
    let rec = decode_rec_slot(&mut r)?;
    if r.buf.has_remaining() {
        return Err(CheckpointError::TrailingBytes { extra: r.buf.remaining() });
    }
    Ok(HomeCheckpoint {
        systems,
        tracker,
        root,
        sched,
        episode,
        ep_index,
        next_start,
        last_handled,
        stats,
        pending,
        rec,
    })
}

fn decode_tracker_slot(r: &mut Reader<'_>) -> Result<Option<ActiveSessionState>, CheckpointError> {
    if !r.opt()? {
        return Ok(None);
    }
    let activity_idx = r.len()?;
    let last_report = r.time()?;
    let saw_terminal = r.bool()?;
    let foreign_run = if r.opt()? { Some((r.len()?, r.u32()?)) } else { None };
    Ok(Some(ActiveSessionState { activity_idx, last_report, saw_terminal, foreign_run }))
}

#[allow(clippy::type_complexity)]
fn decode_episode_slot(
    r: &mut Reader<'_>,
) -> Result<Option<(usize, EpisodeState, ([u64; 4], u64))>, CheckpointError> {
    if !r.opt()? {
        return Ok(None);
    }
    let act = r.len()?;
    let ep = decode_episode(r)?;
    let rng = r.rng()?;
    Ok(Some((act, ep, rng)))
}

fn decode_stats(r: &mut Reader<'_>) -> Result<HomeStats, CheckpointError> {
    Ok(HomeStats {
        episodes_started: r.u64()?,
        episodes_completed: r.u64()?,
        reminders: r.u64()?,
        praises: r.u64()?,
        sessions_started: r.u64()?,
        sessions_completed: r.u64()?,
        sessions_abandoned: r.u64()?,
        cross_activity_flags: r.u64()?,
        pipeline_ticks: r.u64()?,
        energy_uj: 0.0,
    })
}

/// Varint mirror of [`decode_stats`]; delta-path counters are small in
/// steady state, so LEB128 shrinks the 72-byte block to ~9-20 bytes.
fn decode_stats_var(r: &mut Reader<'_>) -> Result<HomeStats, CheckpointError> {
    Ok(HomeStats {
        episodes_started: r.var()?,
        episodes_completed: r.var()?,
        reminders: r.var()?,
        praises: r.var()?,
        sessions_started: r.var()?,
        sessions_completed: r.var()?,
        sessions_abandoned: r.var()?,
        cross_activity_flags: r.var()?,
        pipeline_ticks: r.var()?,
        energy_uj: 0.0,
    })
}

fn decode_pending(r: &mut Reader<'_>) -> Result<Vec<SimTime>, CheckpointError> {
    let n_pending = r.len()?;
    let mut pending = Vec::with_capacity(n_pending.min(1024));
    for _ in 0..n_pending {
        pending.push(r.time()?);
    }
    Ok(pending)
}

fn decode_rec_slot(r: &mut Reader<'_>) -> Result<Option<RecorderState>, CheckpointError> {
    if r.opt()? {
        Ok(Some(decode_recorder(r)?))
    } else {
        Ok(None)
    }
}

fn decode_system(r: &mut Reader<'_>) -> Result<SystemState, CheckpointError> {
    let learned = decode_learned(r)?;
    let mut system = decode_system_rest(r)?;
    system.learned = learned;
    Ok(system)
}

fn decode_learned(r: &mut Reader<'_>) -> Result<Option<LearnedState>, CheckpointError> {
    if !r.opt()? {
        return Ok(None);
    }
    let n = r.len()?;
    let mut values = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        values.push(r.f64()?);
    }
    let n = r.len()?;
    let mut visits = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        visits.push(r.u64()?);
    }
    let n = r.len()?;
    let mut traces = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        let s = StateId::new(r.len()?);
        let a = ActionId::new(r.len()?);
        let e = r.f64()?;
        traces.push((s, a, e));
    }
    let updates = r.u64()?;
    let episodes_trained = r.u64()?;
    Ok(Some(LearnedState { values, visits, traces, updates, episodes_trained }))
}

#[allow(clippy::too_many_lines)]
fn decode_system_rest(r: &mut Reader<'_>) -> Result<SystemState, CheckpointError> {
    let sensing_current = if r.opt()? { Some(StepId::from_raw(r.u16()?)) } else { None };
    let sensing_last_report = r.opt_time()?;
    let n = r.len()?;
    let mut sensing_history = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        let at = r.time()?;
        let step = StepId::from_raw(r.u16()?);
        sensing_history.push(StepEvent { at, step });
    }
    let n = r.len()?;
    let mut nodes = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        let node = decode_node(r)?;
        let (state, base) = r.rng()?;
        nodes.push((node, state, base));
    }
    let net_rng = r.rng()?;
    let downlink_seq = r.u16()?;
    let n = r.len()?;
    let mut channels = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        let id = NodeId::new(r.u16()?);
        let bad = r.bool()?;
        let sent = r.u64()?;
        let lost = r.u64()?;
        channels.push((id, bad, sent, lost));
    }
    let mut counters = [LinkCounters::default(); 2];
    for c in &mut counters {
        c.frames = r.u64()?;
        c.attempts = r.u64()?;
        c.delivered = r.u64()?;
        c.lost = r.u64()?;
        c.duplicates = r.u64()?;
    }
    let n = r.len()?;
    let mut base_last_seqs = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        let id = NodeId::new(r.u16()?);
        let seq = r.u16()?;
        base_last_seqs.push((id, seq));
    }
    let base_accepted = r.u64()?;
    let base_duplicates = r.u64()?;
    Ok(SystemState {
        learned: None,
        sensing_current,
        sensing_last_report,
        sensing_history,
        nodes,
        net_rng,
        downlink_seq,
        channels,
        uplink: counters[0],
        downlink: counters[1],
        base_last_seqs,
        base_accepted,
        base_duplicates,
    })
}

fn decode_node(r: &mut Reader<'_>) -> Result<NodeState, CheckpointError> {
    let n = r.len()?;
    let mut detector_window = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        detector_window.push(r.bool()?);
    }
    let led_green = r.bool()?;
    let led_red = r.bool()?;
    let energy_uj = r.f64()?;
    let energy_breakdown = (r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?);
    let next_seq = r.u16()?;
    let window_peak_activation = r.f64()?;
    let windows_closed = r.u64()?;
    let reports_sent = r.u64()?;
    let failed = r.bool()?;
    let flip_false_positive = r.f64()?;
    let flip_false_negative = r.f64()?;
    let clock_skew_ms = r.i64()?;
    Ok(NodeState {
        detector_window,
        led_green,
        led_red,
        energy_uj,
        energy_breakdown,
        next_seq,
        window_peak_activation,
        windows_closed,
        reports_sent,
        failed,
        flip_false_positive,
        flip_false_negative,
        clock_skew_ms,
    })
}

fn decode_episode(r: &mut Reader<'_>) -> Result<EpisodeState, CheckpointError> {
    let phase = match r.u8()? {
        0 => {
            let idx = r.len()?;
            let until = r.time()?;
            PhaseState::Performing { idx, until }
        }
        1 => {
            let tool = ToolId::new(r.u16()?);
            let since = r.time()?;
            let resume_idx = r.len()?;
            PhaseState::Misusing { tool, since, resume_idx }
        }
        2 => {
            let since = r.time()?;
            let resume_idx = r.len()?;
            PhaseState::Frozen { since, resume_idx }
        }
        3 => PhaseState::Done,
        t => return Err(CheckpointError::CorruptTag(t)),
    };
    let tracked = if r.opt()? {
        let prev = StepId::from_raw(r.u16()?);
        let cur = StepId::from_raw(r.u16()?);
        Some((prev, cur))
    } else {
        None
    };
    let pending = if r.opt()? {
        let due = r.time()?;
        let tool = ToolId::new(r.u16()?);
        let level = match r.u8()? {
            0 => ReminderLevel::Minimal,
            1 => ReminderLevel::Specific,
            t => return Err(CheckpointError::CorruptTag(t)),
        };
        Some((due, Prompt { tool, level }))
    } else {
        None
    };
    let last_reminder = r.opt_time()?;
    let reminders_since_advance = r.u32()?;
    let completed = r.bool()?;
    let ticks_done = r.u64()?;
    let max_ticks = r.u64()?;
    let start = r.time()?;
    let finished = r.bool()?;
    Ok(EpisodeState {
        phase,
        tracked,
        pending,
        last_reminder,
        reminders_since_advance,
        completed,
        ticks_done,
        max_ticks,
        start,
        finished,
    })
}

fn decode_recorder(r: &mut Reader<'_>) -> Result<RecorderState, CheckpointError> {
    let n = r.len()?;
    let mut counters = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        counters.push(r.u64()?);
    }
    let n = r.len()?;
    let mut stages = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let n_bins = r.len()?;
        let mut bins = Vec::with_capacity(n_bins.min(65_536));
        for _ in 0..n_bins {
            bins.push(r.u64()?);
        }
        let under = r.u64()?;
        let over = r.u64()?;
        stages.push((bins, under, over));
    }
    let ring_cap = r.len()?;
    let n = r.len()?;
    let mut ring = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        ring.push(decode_trace(r)?);
    }
    let ring_dropped = r.u64()?;
    Ok(RecorderState { counters, stages, ring_cap, ring, ring_dropped })
}

fn decode_trace(r: &mut Reader<'_>) -> Result<TraceRecord, CheckpointError> {
    let at = r.time()?;
    let kind = match r.u8()? {
        0 => TraceKind::EpisodeStarted { episode: r.u32()? },
        1 => TraceKind::EpisodeEnded { completed: r.bool()? },
        2 => TraceKind::ToolInUse { node: r.u16()? },
        3 => TraceKind::RadioDelivered { node: r.u16()?, attempts: r.u8()? },
        4 => TraceKind::RadioLost { node: r.u16()?, attempts: r.u8()? },
        5 => TraceKind::StepExtracted { step: StepId::from_raw(r.u16()?) },
        6 => TraceKind::IdleDetected { idle_ms: r.u32()? },
        7 => TraceKind::ReminderIssued {
            tool: ToolId::new(r.u16()?),
            specific: r.bool()?,
            wrong_tool: r.bool()?,
        },
        8 => TraceKind::LedCommand {
            tool: ToolId::new(r.u16()?),
            red: r.bool()?,
            delivered: r.bool()?,
        },
        9 => TraceKind::Praised { latency_ms: r.u32()? },
        10 => TraceKind::Reprompt { escalations: r.u8()? },
        11 => TraceKind::SessionStarted { name: NameId::from_index(r.u32()? as usize) },
        12 => TraceKind::SessionEnded {
            name: NameId::from_index(r.u32()? as usize),
            completed: r.bool()?,
        },
        13 => TraceKind::CrossActivity { name: NameId::from_index(r.u32()? as usize) },
        t => return Err(CheckpointError::CorruptTag(t)),
    };
    Ok(TraceRecord { at, kind })
}

// ---------------------------------------------------------------------
// Incremental deltas
// ---------------------------------------------------------------------

/// Magic prefix of a delta manifest ([`save_delta`]).
pub const DELTA_MAGIC: &[u8; 4] = b"CRCD";

const DIRTY_SYSTEMS: u16 = 1 << 0;
const DIRTY_TRACKER: u16 = 1 << 1;
const DIRTY_ROOT: u16 = 1 << 2;
const DIRTY_SCHED: u16 = 1 << 3;
const DIRTY_EPISODE: u16 = 1 << 4;
const DIRTY_SCHEDULE: u16 = 1 << 5;
const DIRTY_STATS: u16 = 1 << 6;
const DIRTY_PENDING: u16 = 1 << 7;
const DIRTY_REC: u16 = 1 << 8;
const DIRTY_ALL: u16 = (1 << 9) - 1;

const REST_SENSING: u16 = 1 << 0;
const REST_HISTORY: u16 = 1 << 1;
const REST_NODES: u16 = 1 << 2;
const REST_NET_RNG: u16 = 1 << 3;
const REST_DOWNLINK_SEQ: u16 = 1 << 4;
const REST_CHANNELS: u16 = 1 << 5;
const REST_UPLINK: u16 = 1 << 6;
const REST_DOWNLINK: u16 = 1 << 7;
const REST_BASE_SEQS: u16 = 1 << 8;
const REST_BASE_COUNTS: u16 = 1 << 9;
const REST_ALL: u16 = (1 << 10) - 1;

const NODE_WINDOW: u16 = 1 << 0;
const NODE_LEDS: u16 = 1 << 1;
const NODE_ENERGY: u16 = 1 << 2;
const NODE_BREAKDOWN: u16 = 1 << 3;
const NODE_SEQ: u16 = 1 << 4;
const NODE_PEAK: u16 = 1 << 5;
const NODE_COUNTS: u16 = 1 << 6;
const NODE_FAILED: u16 = 1 << 7;
const NODE_FLIPS: u16 = 1 << 8;
const NODE_SKEW: u16 = 1 << 9;
const NODE_RNG: u16 = 1 << 10;
const NODE_ALL: u16 = (1 << 11) - 1;

/// How one activity's learned Q-state moved relative to the base.
///
/// Serve-only metro runs never touch learned state, so the overwhelmingly
/// common case is [`LearnedDelta::Unchanged`] — zero bytes of Q-table in
/// the delta. Online-learning runs usually touch a handful of cells per
/// interval, captured sparsely by [`LearnedDelta::Cells`].
#[derive(Debug, Clone, PartialEq)]
pub enum LearnedDelta {
    /// Bit-identical to the base (including both being absent).
    Unchanged,
    /// Sparse cell updates against a base whose table shapes match.
    Cells {
        /// `(cell index, new Q-value)` for every changed value cell.
        values: Vec<(u32, f64)>,
        /// `(cell index, new count)` for every changed visit counter.
        visits: Vec<(u32, u64)>,
        /// Eligibility traces, replaced wholesale (they are tiny and
        /// churn completely within an episode).
        traces: Vec<(StateId, ActionId, f64)>,
        /// New total update count.
        updates: u64,
        /// New trained-episode count.
        episodes_trained: u64,
    },
    /// Wholesale replacement: presence flipped or the table was resized.
    Full(Option<LearnedState>),
}

/// Delta of one activity system against the base.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemDelta {
    /// Learned-state movement (the bulk of a full system snapshot).
    pub learned: LearnedDelta,
    /// Dirty non-learned fields, diffed field by field: a measured 1k-home
    /// steady-state interval spends ~60 % of its delta bytes on wholesale
    /// node re-encodes, almost all of which is unchanged fault knobs,
    /// fixed-width counters that moved by a handful, and RNG base seeds
    /// that never move at all.
    pub rest: RestDelta,
}

/// How one system's recognised step history moved relative to the base.
///
/// The history is append-only in normal operation, so the common case
/// stores only the new tail events.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum HistoryDelta {
    /// Bit-identical to the base.
    #[default]
    Unchanged,
    /// The base's history is a strict prefix; these events follow it.
    Append(Vec<StepEvent>),
    /// Wholesale replacement (the history shrank or was rewritten —
    /// never in normal operation, but the codec stays total).
    Replace(Vec<StepEvent>),
}

/// Sparse update of a slot vector whose shape rarely changes (per-link
/// channel state, the base station's dedup table).
#[derive(Debug, Clone, Default, PartialEq)]
pub enum SlotsDelta<T> {
    /// Bit-identical to the base.
    #[default]
    Unchanged,
    /// Same length as the base; only the listed `(index, new value)`
    /// slots changed.
    Sparse(Vec<(u32, T)>),
    /// The length itself moved: replaced wholesale.
    Replace(Vec<T>),
}

/// Dirty fields of one sensor node relative to the base snapshot;
/// `None` means identical to the base. The node RNG's *base seed* is
/// construction-time and never re-stored — only the stream position
/// travels ([`NodeDelta::rng_state`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeDelta {
    /// New partially-filled detector window.
    pub detector_window: Option<Vec<bool>>,
    /// New `(green, red)` LED pair.
    pub leds: Option<(bool, bool)>,
    /// New energy accumulator.
    pub energy_uj: Option<f64>,
    /// New energy breakdown quintet.
    pub energy_breakdown: Option<(u64, u64, u64, u64, u64)>,
    /// New radio sequence number.
    pub next_seq: Option<u16>,
    /// New window peak activation.
    pub window_peak_activation: Option<f64>,
    /// New `(windows_closed, reports_sent)` pair.
    pub counts: Option<(u64, u64)>,
    /// New crash flag.
    pub failed: Option<bool>,
    /// New `(false positive, false negative)` flip probabilities.
    pub flips: Option<(f64, f64)>,
    /// New clock skew.
    pub clock_skew_ms: Option<i64>,
    /// New RNG stream position.
    pub rng_state: Option<[u64; 4]>,
}

/// Dirty non-learned fields of one [`SystemState`] relative to the
/// base; `None`/`Unchanged`/empty means identical to the base.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RestDelta {
    /// New `(believed current step, last report instant)` pair (they
    /// move together, so they share a dirty bit).
    pub sensing: Option<(Option<StepId>, Option<SimTime>)>,
    /// Recognised-step-history movement.
    pub history: HistoryDelta,
    /// Per-node deltas in spec tool order, `None` for untouched nodes.
    /// Empty means no node changed at all.
    pub nodes: Vec<Option<NodeDelta>>,
    /// New network RNG stream position (base seed is construction-time).
    pub net_rng: Option<[u64; 4]>,
    /// New downlink sequence number.
    pub downlink_seq: Option<u16>,
    /// Per-link channel-state movement.
    pub channels: SlotsDelta<(NodeId, bool, u64, u64)>,
    /// New uplink counters.
    pub uplink: Option<LinkCounters>,
    /// New downlink counters.
    pub downlink: Option<LinkCounters>,
    /// Base-station dedup-table movement.
    pub base_last_seqs: SlotsDelta<(NodeId, u16)>,
    /// New `(accepted, duplicates)` base-station totals.
    pub base_counts: Option<(u64, u64)>,
}

/// Dirty fields of one home relative to a base snapshot. Every field is
/// optional; `None`/empty means "identical to the base". A home that did
/// nothing over the interval costs one byte in the manifest.
#[derive(Debug, Clone, Default, PartialEq)]
#[allow(clippy::type_complexity)]
pub struct HomeDelta {
    /// Per-system deltas in spec order, `None` for untouched systems.
    /// Empty means no system changed at all.
    pub systems: Vec<Option<SystemDelta>>,
    /// New session-tracker slot, if it changed.
    pub tracker: Option<Option<ActiveSessionState>>,
    /// New root RNG position, if advanced.
    pub root: Option<([u64; 4], u64)>,
    /// New scheduling RNG position, if advanced.
    pub sched: Option<([u64; 4], u64)>,
    /// New in-flight-episode slot, if it changed.
    pub episode: Option<Option<(usize, EpisodeState, ([u64; 4], u64))>>,
    /// New `(ep_index, next_start, last_handled)` trio, if any moved
    /// (they move together, so they share a dirty bit).
    pub schedule: Option<(u64, SimTime, Option<SimTime>)>,
    /// New statistics, if any counter moved.
    pub stats: Option<HomeStats>,
    /// New pending-wake set, if it changed.
    pub pending: Option<Vec<SimTime>>,
    /// New flight-recorder state, if it changed.
    pub rec: Option<Option<RecorderState>>,
}

/// A fleet-wide incremental checkpoint: what moved since a specific base
/// snapshot. Applying it to that base ([`apply_delta`]) reproduces the
/// full [`MetroCheckpoint`] at [`DeltaCheckpoint::at`] exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaCheckpoint {
    /// The delta's instant (the "to" side of the diff).
    pub at: SimTime,
    /// [`config_digest`] of the run's configuration.
    pub digest: u64,
    /// [`checkpoint_fingerprint`] of the base this delta was diffed
    /// against. [`apply_delta`] refuses any other base.
    pub base_fingerprint: u64,
    /// Raw DES events processed up to the delta's instant.
    pub des_events: u64,
    /// Per-home deltas in home-id order; `None` for homes whose entire
    /// state is identical to the base.
    pub homes: Vec<Option<HomeDelta>>,
}

impl DeltaCheckpoint {
    /// Number of homes with any dirty state in this delta.
    #[must_use]
    pub fn dirty_homes(&self) -> usize {
        self.homes.iter().filter(|h| h.is_some()).count()
    }
}

/// Cheap identity fingerprint of a snapshot, stored in every delta to
/// bind it to its exact base. For a deterministic run, `(config digest,
/// instant, DES event count)` pins the fleet state uniquely; the home
/// and traced-home counts additionally distinguish structurally
/// different captures. O(homes), no per-field hashing — the full-state
/// guarantee comes from the codec round-trip tests, not from this hash.
#[must_use]
pub fn checkpoint_fingerprint(ckpt: &MetroCheckpoint) -> u64 {
    let traced = ckpt.homes.iter().filter(|h| h.rec.is_some()).count();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [
        ckpt.digest,
        ckpt.at.as_millis(),
        ckpt.des_events,
        ckpt.homes.len() as u64,
        traced as u64,
    ] {
        for byte in v.to_be_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Diffs `cur` against `base`, producing a delta that [`apply_delta`]
/// turns back into `cur` exactly.
///
/// # Panics
///
/// Panics if the two snapshots come from different configurations or
/// fleets — deltas only make sense along one run's timeline.
#[must_use]
pub fn delta_checkpoint(base: &MetroCheckpoint, cur: &MetroCheckpoint) -> DeltaCheckpoint {
    assert_eq!(base.digest, cur.digest, "deltas require snapshots of the same run");
    assert_eq!(base.homes.len(), cur.homes.len(), "deltas require equal fleet sizes");
    let homes = base
        .homes
        .iter()
        .zip(&cur.homes)
        .map(|(b, c)| if b == c { None } else { Some(home_delta(b, c)) })
        .collect();
    DeltaCheckpoint {
        at: cur.at,
        digest: cur.digest,
        base_fingerprint: checkpoint_fingerprint(base),
        des_events: cur.des_events,
        homes,
    }
}

/// Reconstructs the full snapshot a delta describes by applying it to
/// its base.
///
/// # Errors
///
/// [`CheckpointError::ConfigMismatch`] if the delta belongs to a
/// different run, [`CheckpointError::BaseMismatch`] if it was diffed
/// against a different base snapshot, and
/// [`CheckpointError::ShapeMismatch`] if a (CRC-valid but crafted) delta
/// addresses state the base does not have.
pub fn apply_delta(
    base: &MetroCheckpoint,
    delta: &DeltaCheckpoint,
) -> Result<MetroCheckpoint, CheckpointError> {
    if delta.digest != base.digest {
        return Err(CheckpointError::ConfigMismatch {
            expected: delta.digest,
            actual: base.digest,
        });
    }
    let actual = checkpoint_fingerprint(base);
    if delta.base_fingerprint != actual {
        return Err(CheckpointError::BaseMismatch { expected: delta.base_fingerprint, actual });
    }
    if delta.homes.len() != base.homes.len() {
        return Err(shape_mismatch(delta.homes.len(), base.homes.len()));
    }
    let homes = base
        .homes
        .iter()
        .zip(&delta.homes)
        .map(|(b, d)| match d {
            None => Ok(b.clone()),
            Some(d) => apply_home_delta(b, d),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(MetroCheckpoint { at: delta.at, digest: delta.digest, des_events: delta.des_events, homes })
}

/// Folds a chain of deltas into their base, producing the fresh full
/// snapshot a compaction would write. Each delta must have been diffed
/// against the result of applying all earlier ones.
///
/// # Errors
///
/// Propagates the first [`apply_delta`] failure.
pub fn compact(
    base: &MetroCheckpoint,
    deltas: &[DeltaCheckpoint],
) -> Result<MetroCheckpoint, CheckpointError> {
    let mut cur = base.clone();
    for d in deltas {
        cur = apply_delta(&cur, d)?;
    }
    Ok(cur)
}

pub(crate) fn shape_mismatch(index: usize, bound: usize) -> CheckpointError {
    CheckpointError::ShapeMismatch {
        index: u32::try_from(index).unwrap_or(u32::MAX),
        bound: u32::try_from(bound).unwrap_or(u32::MAX),
    }
}

fn home_delta(base: &HomeCheckpoint, cur: &HomeCheckpoint) -> HomeDelta {
    let mut d = HomeDelta::default();
    if base.systems != cur.systems {
        assert_eq!(
            base.systems.len(),
            cur.systems.len(),
            "system count is pinned by the config digest"
        );
        d.systems = base
            .systems
            .iter()
            .zip(&cur.systems)
            .map(|(b, c)| if b == c { None } else { Some(system_delta(b, c)) })
            .collect();
    }
    if base.tracker != cur.tracker {
        d.tracker = Some(cur.tracker);
    }
    if base.root != cur.root {
        d.root = Some(cur.root);
    }
    if base.sched != cur.sched {
        d.sched = Some(cur.sched);
    }
    if base.episode != cur.episode {
        d.episode = Some(cur.episode);
    }
    if (base.ep_index, base.next_start, base.last_handled)
        != (cur.ep_index, cur.next_start, cur.last_handled)
    {
        d.schedule = Some((cur.ep_index, cur.next_start, cur.last_handled));
    }
    if base.stats != cur.stats {
        d.stats = Some(cur.stats);
    }
    if base.pending != cur.pending {
        d.pending = Some(cur.pending.clone());
    }
    if base.rec != cur.rec {
        d.rec = Some(cur.rec.clone());
    }
    d
}

fn system_delta(base: &SystemState, cur: &SystemState) -> SystemDelta {
    SystemDelta {
        learned: learned_delta(base.learned.as_ref(), cur.learned.as_ref()),
        rest: rest_delta(base, cur),
    }
}

fn rest_delta(base: &SystemState, cur: &SystemState) -> RestDelta {
    let mut d = RestDelta::default();
    if (base.sensing_current, base.sensing_last_report)
        != (cur.sensing_current, cur.sensing_last_report)
    {
        d.sensing = Some((cur.sensing_current, cur.sensing_last_report));
    }
    if base.sensing_history != cur.sensing_history {
        let blen = base.sensing_history.len();
        d.history = if cur.sensing_history.len() >= blen
            && cur.sensing_history[..blen] == base.sensing_history[..]
        {
            HistoryDelta::Append(cur.sensing_history[blen..].to_vec())
        } else {
            HistoryDelta::Replace(cur.sensing_history.clone())
        };
    }
    if base.nodes != cur.nodes {
        assert_eq!(base.nodes.len(), cur.nodes.len(), "node count is pinned by the spec");
        d.nodes = base
            .nodes
            .iter()
            .zip(&cur.nodes)
            .map(|(b, c)| if b == c { None } else { Some(node_delta(b, c)) })
            .collect();
    }
    if base.net_rng != cur.net_rng {
        assert_eq!(base.net_rng.1, cur.net_rng.1, "rng base seed is construction-time");
        d.net_rng = Some(cur.net_rng.0);
    }
    if base.downlink_seq != cur.downlink_seq {
        d.downlink_seq = Some(cur.downlink_seq);
    }
    d.channels = slots_delta(&base.channels, &cur.channels);
    if base.uplink != cur.uplink {
        d.uplink = Some(cur.uplink);
    }
    if base.downlink != cur.downlink {
        d.downlink = Some(cur.downlink);
    }
    d.base_last_seqs = slots_delta(&base.base_last_seqs, &cur.base_last_seqs);
    if (base.base_accepted, base.base_duplicates) != (cur.base_accepted, cur.base_duplicates) {
        d.base_counts = Some((cur.base_accepted, cur.base_duplicates));
    }
    d
}

fn slots_delta<T: Clone + PartialEq>(base: &[T], cur: &[T]) -> SlotsDelta<T> {
    if base == cur {
        SlotsDelta::Unchanged
    } else if base.len() == cur.len() {
        SlotsDelta::Sparse(
            base.iter()
                .zip(cur)
                .enumerate()
                .filter(|(_, (b, c))| b != c)
                .map(|(i, (_, c))| (u32::try_from(i).expect("slots fit in u32"), c.clone()))
                .collect(),
        )
    } else {
        SlotsDelta::Replace(cur.to_vec())
    }
}

fn node_delta(
    base: &(NodeState, [u64; 4], u64),
    cur: &(NodeState, [u64; 4], u64),
) -> NodeDelta {
    assert_eq!(base.2, cur.2, "rng base seed is construction-time");
    let (b, c) = (&base.0, &cur.0);
    let mut d = NodeDelta::default();
    if b.detector_window != c.detector_window {
        d.detector_window = Some(c.detector_window.clone());
    }
    if (b.led_green, b.led_red) != (c.led_green, c.led_red) {
        d.leds = Some((c.led_green, c.led_red));
    }
    if b.energy_uj != c.energy_uj {
        d.energy_uj = Some(c.energy_uj);
    }
    if b.energy_breakdown != c.energy_breakdown {
        d.energy_breakdown = Some(c.energy_breakdown);
    }
    if b.next_seq != c.next_seq {
        d.next_seq = Some(c.next_seq);
    }
    if b.window_peak_activation != c.window_peak_activation {
        d.window_peak_activation = Some(c.window_peak_activation);
    }
    if (b.windows_closed, b.reports_sent) != (c.windows_closed, c.reports_sent) {
        d.counts = Some((c.windows_closed, c.reports_sent));
    }
    if b.failed != c.failed {
        d.failed = Some(c.failed);
    }
    if (b.flip_false_positive, b.flip_false_negative)
        != (c.flip_false_positive, c.flip_false_negative)
    {
        d.flips = Some((c.flip_false_positive, c.flip_false_negative));
    }
    if b.clock_skew_ms != c.clock_skew_ms {
        d.clock_skew_ms = Some(c.clock_skew_ms);
    }
    if base.1 != cur.1 {
        d.rng_state = Some(cur.1);
    }
    d
}

fn learned_delta(base: Option<&LearnedState>, cur: Option<&LearnedState>) -> LearnedDelta {
    match (base, cur) {
        (b, c) if b == c => LearnedDelta::Unchanged,
        (Some(b), Some(c))
            if b.values.len() == c.values.len() && b.visits.len() == c.visits.len() =>
        {
            let values = b
                .values
                .iter()
                .zip(&c.values)
                .enumerate()
                .filter(|(_, (bv, cv))| bv != cv)
                .map(|(i, (_, &cv))| (u32::try_from(i).expect("tables fit in u32"), cv))
                .collect();
            let visits = b
                .visits
                .iter()
                .zip(&c.visits)
                .enumerate()
                .filter(|(_, (bv, cv))| bv != cv)
                .map(|(i, (_, &cv))| (u32::try_from(i).expect("tables fit in u32"), cv))
                .collect();
            LearnedDelta::Cells {
                values,
                visits,
                traces: c.traces.clone(),
                updates: c.updates,
                episodes_trained: c.episodes_trained,
            }
        }
        (_, c) => LearnedDelta::Full(c.cloned()),
    }
}

fn apply_home_delta(
    base: &HomeCheckpoint,
    d: &HomeDelta,
) -> Result<HomeCheckpoint, CheckpointError> {
    let mut out = base.clone();
    if !d.systems.is_empty() {
        if d.systems.len() != out.systems.len() {
            return Err(shape_mismatch(d.systems.len(), out.systems.len()));
        }
        for (slot, delta) in out.systems.iter_mut().zip(&d.systems) {
            if let Some(sd) = delta {
                slot.learned = apply_learned_delta(slot.learned.take(), &sd.learned)?;
                apply_rest_delta(slot, &sd.rest)?;
            }
        }
    }
    if let Some(t) = &d.tracker {
        out.tracker = *t;
    }
    if let Some(r) = d.root {
        out.root = r;
    }
    if let Some(r) = d.sched {
        out.sched = r;
    }
    if let Some(ep) = &d.episode {
        out.episode = *ep;
    }
    if let Some((ep_index, next_start, last_handled)) = d.schedule {
        out.ep_index = ep_index;
        out.next_start = next_start;
        out.last_handled = last_handled;
    }
    if let Some(s) = &d.stats {
        out.stats = *s;
    }
    if let Some(p) = &d.pending {
        out.pending = p.clone();
    }
    if let Some(rec) = &d.rec {
        out.rec = rec.clone();
    }
    Ok(out)
}

fn apply_rest_delta(out: &mut SystemState, d: &RestDelta) -> Result<(), CheckpointError> {
    if let Some((current, last_report)) = d.sensing {
        out.sensing_current = current;
        out.sensing_last_report = last_report;
    }
    match &d.history {
        HistoryDelta::Unchanged => {}
        HistoryDelta::Append(tail) => out.sensing_history.extend_from_slice(tail),
        HistoryDelta::Replace(h) => out.sensing_history.clone_from(h),
    }
    if !d.nodes.is_empty() {
        if d.nodes.len() != out.nodes.len() {
            return Err(shape_mismatch(d.nodes.len(), out.nodes.len()));
        }
        for (slot, nd) in out.nodes.iter_mut().zip(&d.nodes) {
            if let Some(nd) = nd {
                apply_node_delta(slot, nd);
            }
        }
    }
    if let Some(state) = d.net_rng {
        out.net_rng.0 = state;
    }
    if let Some(seq) = d.downlink_seq {
        out.downlink_seq = seq;
    }
    apply_slots(&mut out.channels, &d.channels)?;
    if let Some(c) = d.uplink {
        out.uplink = c;
    }
    if let Some(c) = d.downlink {
        out.downlink = c;
    }
    apply_slots(&mut out.base_last_seqs, &d.base_last_seqs)?;
    if let Some((accepted, duplicates)) = d.base_counts {
        out.base_accepted = accepted;
        out.base_duplicates = duplicates;
    }
    Ok(())
}

fn apply_slots<T: Clone>(out: &mut Vec<T>, d: &SlotsDelta<T>) -> Result<(), CheckpointError> {
    match d {
        SlotsDelta::Unchanged => {}
        SlotsDelta::Sparse(updates) => {
            let bound = out.len();
            for (i, v) in updates {
                let slot = out
                    .get_mut(*i as usize)
                    .ok_or_else(|| shape_mismatch(*i as usize, bound))?;
                slot.clone_from(v);
            }
        }
        SlotsDelta::Replace(v) => out.clone_from(v),
    }
    Ok(())
}

fn apply_node_delta(slot: &mut (NodeState, [u64; 4], u64), d: &NodeDelta) {
    let n = &mut slot.0;
    if let Some(w) = &d.detector_window {
        n.detector_window.clone_from(w);
    }
    if let Some((green, red)) = d.leds {
        n.led_green = green;
        n.led_red = red;
    }
    if let Some(e) = d.energy_uj {
        n.energy_uj = e;
    }
    if let Some(b) = d.energy_breakdown {
        n.energy_breakdown = b;
    }
    if let Some(s) = d.next_seq {
        n.next_seq = s;
    }
    if let Some(p) = d.window_peak_activation {
        n.window_peak_activation = p;
    }
    if let Some((windows, reports)) = d.counts {
        n.windows_closed = windows;
        n.reports_sent = reports;
    }
    if let Some(f) = d.failed {
        n.failed = f;
    }
    if let Some((fp, fnp)) = d.flips {
        n.flip_false_positive = fp;
        n.flip_false_negative = fnp;
    }
    if let Some(skew) = d.clock_skew_ms {
        n.clock_skew_ms = skew;
    }
    if let Some(state) = d.rng_state {
        slot.1 = state;
    }
}

fn apply_learned_delta(
    base: Option<LearnedState>,
    d: &LearnedDelta,
) -> Result<Option<LearnedState>, CheckpointError> {
    match d {
        LearnedDelta::Unchanged => Ok(base),
        LearnedDelta::Full(l) => Ok(l.clone()),
        LearnedDelta::Cells { values, visits, traces, updates, episodes_trained } => {
            let mut l = base.ok_or_else(|| shape_mismatch(0, 0))?;
            for &(i, v) in values {
                let slot = l
                    .values
                    .get_mut(i as usize)
                    .ok_or_else(|| shape_mismatch(i as usize, usize::MAX))?;
                *slot = v;
            }
            let bound = l.visits.len();
            for &(i, v) in visits {
                let slot =
                    l.visits.get_mut(i as usize).ok_or_else(|| shape_mismatch(i as usize, bound))?;
                *slot = v;
            }
            l.traces = traces.clone();
            l.updates = *updates;
            l.episodes_trained = *episodes_trained;
            Ok(Some(l))
        }
    }
}

/// Serialises a delta manifest: same framing discipline as
/// [`save_checkpoint`] (magic + version + big-endian body + CRC-16
/// trailer, length-prefixed per-home blobs encoded in parallel), under
/// [`DELTA_MAGIC`]. Output is identical at any worker count.
#[must_use]
pub fn save_delta(delta: &DeltaCheckpoint, jobs: usize) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(DELTA_MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64(delta.digest);
    buf.put_u64(delta.base_fingerprint);
    buf.put_u64(delta.at.as_millis());
    buf.put_u64(delta.des_events);
    buf.put_u32(u32::try_from(delta.homes.len()).expect("fleets fit in u32"));
    let engine = FleetEngine::new(jobs);
    let blobs = engine.map(delta.homes.iter().collect(), encode_home_delta);
    for blob in blobs {
        buf.put_u32(u32::try_from(blob.len()).expect("home blobs fit in u32"));
        buf.put_slice(&blob);
    }
    let crc = crc16(&buf);
    buf.put_u16(crc);
    buf.freeze()
}

/// Restores a delta manifest produced by [`save_delta`].
///
/// # Errors
///
/// Returns a [`CheckpointError`] if the manifest is malformed,
/// CRC-damaged, or from a different format version. Base compatibility
/// is checked later, by [`apply_delta`].
pub fn load_delta(blob: &[u8], jobs: usize) -> Result<DeltaCheckpoint, CheckpointError> {
    const HEADER: usize = 4 + 1;
    if blob.len() < HEADER + 2 {
        return Err(CheckpointError::Truncated { len: blob.len() });
    }
    let (body, trailer) = blob.split_at(blob.len() - 2);
    let expected = u16::from_be_bytes([trailer[0], trailer[1]]);
    let actual = crc16(body);
    if expected != actual {
        return Err(CheckpointError::BadCrc { expected, actual });
    }
    let mut r = Reader { buf: body };
    let mut magic = [0u8; 4];
    r.need(4)?;
    r.buf.copy_to_slice(&mut magic);
    if &magic != DELTA_MAGIC {
        return Err(CheckpointError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let digest = r.u64()?;
    let base_fingerprint = r.u64()?;
    let at = r.time()?;
    let des_events = r.u64()?;
    let n_homes = r.len()?;
    let mut slices = Vec::with_capacity(n_homes);
    for _ in 0..n_homes {
        let len = r.len()?;
        r.need(len)?;
        let (head, rest) = r.buf.split_at(len);
        slices.push(head);
        r.buf = rest;
    }
    if r.buf.has_remaining() {
        return Err(CheckpointError::TrailingBytes { extra: r.buf.remaining() });
    }
    let engine = FleetEngine::new(jobs);
    let homes = engine
        .map(slices, decode_home_delta)
        .into_iter()
        .collect::<Result<Vec<Option<HomeDelta>>, CheckpointError>>()?;
    Ok(DeltaCheckpoint { at, digest, base_fingerprint, des_events, homes })
}

fn delta_mask(d: &HomeDelta) -> u16 {
    let mut m = 0;
    if !d.systems.is_empty() {
        m |= DIRTY_SYSTEMS;
    }
    if d.tracker.is_some() {
        m |= DIRTY_TRACKER;
    }
    if d.root.is_some() {
        m |= DIRTY_ROOT;
    }
    if d.sched.is_some() {
        m |= DIRTY_SCHED;
    }
    if d.episode.is_some() {
        m |= DIRTY_EPISODE;
    }
    if d.schedule.is_some() {
        m |= DIRTY_SCHEDULE;
    }
    if d.stats.is_some() {
        m |= DIRTY_STATS;
    }
    if d.pending.is_some() {
        m |= DIRTY_PENDING;
    }
    if d.rec.is_some() {
        m |= DIRTY_REC;
    }
    m
}

fn encode_home_delta(d: &Option<HomeDelta>) -> Vec<u8> {
    let mut buf = Vec::new();
    let Some(d) = d else {
        buf.put_u8(0);
        return buf;
    };
    buf.put_u8(1);
    buf.put_u16(delta_mask(d));
    if !d.systems.is_empty() {
        put_len(&mut buf, d.systems.len());
        for sd in &d.systems {
            match sd {
                None => buf.put_u8(0),
                Some(sd) => {
                    buf.put_u8(1);
                    encode_system_delta(&mut buf, sd);
                }
            }
        }
    }
    if let Some(t) = &d.tracker {
        encode_tracker_slot(&mut buf, t.as_ref());
    }
    if let Some(r) = d.root {
        put_rng(&mut buf, r);
    }
    if let Some(r) = d.sched {
        put_rng(&mut buf, r);
    }
    if let Some(ep) = &d.episode {
        encode_episode_slot(&mut buf, ep.as_ref());
    }
    if let Some((ep_index, next_start, last_handled)) = d.schedule {
        put_var(&mut buf, ep_index);
        put_var_time(&mut buf, next_start);
        match last_handled {
            None => buf.put_u8(0),
            Some(t) => {
                buf.put_u8(1);
                put_var_time(&mut buf, t);
            }
        }
    }
    if let Some(s) = &d.stats {
        encode_stats_var(&mut buf, s);
    }
    if let Some(p) = &d.pending {
        put_var_len(&mut buf, p.len());
        for &due in p {
            put_var_time(&mut buf, due);
        }
    }
    if let Some(rec) = &d.rec {
        encode_rec_slot(&mut buf, rec.as_ref());
    }
    buf
}

fn encode_system_delta(buf: &mut Vec<u8>, sd: &SystemDelta) {
    match &sd.learned {
        LearnedDelta::Unchanged => buf.put_u8(0),
        LearnedDelta::Cells { values, visits, traces, updates, episodes_trained } => {
            buf.put_u8(1);
            put_len(buf, values.len());
            for &(i, v) in values {
                buf.put_u32(i);
                buf.put_f64(v);
            }
            put_len(buf, visits.len());
            for &(i, v) in visits {
                buf.put_u32(i);
                buf.put_u64(v);
            }
            put_len(buf, traces.len());
            for &(st, a, e) in traces {
                put_len(buf, st.index());
                put_len(buf, a.index());
                buf.put_f64(e);
            }
            buf.put_u64(*updates);
            buf.put_u64(*episodes_trained);
        }
        LearnedDelta::Full(l) => {
            buf.put_u8(2);
            encode_learned(buf, l.as_ref());
        }
    }
    encode_rest_delta(buf, &sd.rest);
}

fn rest_mask(d: &RestDelta) -> u16 {
    let mut m = 0;
    if d.sensing.is_some() {
        m |= REST_SENSING;
    }
    if d.history != HistoryDelta::Unchanged {
        m |= REST_HISTORY;
    }
    if !d.nodes.is_empty() {
        m |= REST_NODES;
    }
    if d.net_rng.is_some() {
        m |= REST_NET_RNG;
    }
    if d.downlink_seq.is_some() {
        m |= REST_DOWNLINK_SEQ;
    }
    if d.channels != SlotsDelta::Unchanged {
        m |= REST_CHANNELS;
    }
    if d.uplink.is_some() {
        m |= REST_UPLINK;
    }
    if d.downlink.is_some() {
        m |= REST_DOWNLINK;
    }
    if d.base_last_seqs != SlotsDelta::Unchanged {
        m |= REST_BASE_SEQS;
    }
    if d.base_counts.is_some() {
        m |= REST_BASE_COUNTS;
    }
    m
}

#[allow(clippy::too_many_lines)]
fn encode_rest_delta(buf: &mut Vec<u8>, d: &RestDelta) {
    buf.put_u16(rest_mask(d));
    if let Some((current, last_report)) = d.sensing {
        match current {
            None => buf.put_u8(0),
            Some(step) => {
                buf.put_u8(1);
                buf.put_u16(step.raw());
            }
        }
        match last_report {
            None => buf.put_u8(0),
            Some(t) => {
                buf.put_u8(1);
                put_var_time(buf, t);
            }
        }
    }
    match &d.history {
        HistoryDelta::Unchanged => {}
        HistoryDelta::Append(events) | HistoryDelta::Replace(events) => {
            buf.put_u8(if matches!(d.history, HistoryDelta::Append(_)) { 1 } else { 2 });
            put_var_len(buf, events.len());
            for ev in events {
                put_var_time(buf, ev.at);
                buf.put_u16(ev.step.raw());
            }
        }
    }
    if !d.nodes.is_empty() {
        put_var_len(buf, d.nodes.len());
        for nd in &d.nodes {
            match nd {
                None => buf.put_u8(0),
                Some(nd) => {
                    buf.put_u8(1);
                    encode_node_delta(buf, nd);
                }
            }
        }
    }
    if let Some(state) = d.net_rng {
        for w in state {
            buf.put_u64(w);
        }
    }
    if let Some(seq) = d.downlink_seq {
        buf.put_u16(seq);
    }
    encode_slots(buf, &d.channels, |buf, &(id, bad, sent, lost)| {
        buf.put_u16(id.raw());
        put_bool(buf, bad);
        put_var(buf, sent);
        put_var(buf, lost);
    });
    for c in [d.uplink, d.downlink].into_iter().flatten() {
        for v in [c.frames, c.attempts, c.delivered, c.lost, c.duplicates] {
            put_var(buf, v);
        }
    }
    encode_slots(buf, &d.base_last_seqs, |buf, &(id, seq)| {
        buf.put_u16(id.raw());
        buf.put_u16(seq);
    });
    if let Some((accepted, duplicates)) = d.base_counts {
        put_var(buf, accepted);
        put_var(buf, duplicates);
    }
}

fn encode_slots<T>(buf: &mut Vec<u8>, d: &SlotsDelta<T>, put: impl Fn(&mut Vec<u8>, &T)) {
    match d {
        SlotsDelta::Unchanged => {}
        SlotsDelta::Sparse(updates) => {
            buf.put_u8(1);
            put_var_len(buf, updates.len());
            for (i, v) in updates {
                put_var(buf, u64::from(*i));
                put(buf, v);
            }
        }
        SlotsDelta::Replace(slots) => {
            buf.put_u8(2);
            put_var_len(buf, slots.len());
            for v in slots {
                put(buf, v);
            }
        }
    }
}

fn node_mask(d: &NodeDelta) -> u16 {
    let mut m = 0;
    if d.detector_window.is_some() {
        m |= NODE_WINDOW;
    }
    if d.leds.is_some() {
        m |= NODE_LEDS;
    }
    if d.energy_uj.is_some() {
        m |= NODE_ENERGY;
    }
    if d.energy_breakdown.is_some() {
        m |= NODE_BREAKDOWN;
    }
    if d.next_seq.is_some() {
        m |= NODE_SEQ;
    }
    if d.window_peak_activation.is_some() {
        m |= NODE_PEAK;
    }
    if d.counts.is_some() {
        m |= NODE_COUNTS;
    }
    if d.failed.is_some() {
        m |= NODE_FAILED;
    }
    if d.flips.is_some() {
        m |= NODE_FLIPS;
    }
    if d.clock_skew_ms.is_some() {
        m |= NODE_SKEW;
    }
    if d.rng_state.is_some() {
        m |= NODE_RNG;
    }
    m
}

fn encode_node_delta(buf: &mut Vec<u8>, d: &NodeDelta) {
    buf.put_u16(node_mask(d));
    if let Some(w) = &d.detector_window {
        put_var_len(buf, w.len());
        for &vote in w {
            put_bool(buf, vote);
        }
    }
    if let Some((green, red)) = d.leds {
        buf.put_u8(u8::from(green) | (u8::from(red) << 1));
    }
    if let Some(e) = d.energy_uj {
        buf.put_f64(e);
    }
    if let Some((samples, tx, rx, led, sleep)) = d.energy_breakdown {
        for v in [samples, tx, rx, led, sleep] {
            put_var(buf, v);
        }
    }
    if let Some(seq) = d.next_seq {
        buf.put_u16(seq);
    }
    if let Some(p) = d.window_peak_activation {
        buf.put_f64(p);
    }
    if let Some((windows, reports)) = d.counts {
        put_var(buf, windows);
        put_var(buf, reports);
    }
    if let Some(f) = d.failed {
        put_bool(buf, f);
    }
    if let Some((fp, fnp)) = d.flips {
        buf.put_f64(fp);
        buf.put_f64(fnp);
    }
    if let Some(skew) = d.clock_skew_ms {
        put_var_i64(buf, skew);
    }
    if let Some(state) = d.rng_state {
        for w in state {
            buf.put_u64(w);
        }
    }
}

fn decode_home_delta(blob: &[u8]) -> Result<Option<HomeDelta>, CheckpointError> {
    let mut r = Reader { buf: blob };
    let out = match r.u8()? {
        0 => None,
        1 => {
            let mask = r.u16()?;
            if mask & !DIRTY_ALL != 0 {
                #[allow(clippy::cast_possible_truncation)]
                return Err(CheckpointError::CorruptTag((mask >> 8) as u8));
            }
            let mut d = HomeDelta::default();
            if mask & DIRTY_SYSTEMS != 0 {
                let n = r.len()?;
                let mut systems = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    systems.push(if r.opt()? {
                        Some(decode_system_delta(&mut r)?)
                    } else {
                        None
                    });
                }
                d.systems = systems;
            }
            if mask & DIRTY_TRACKER != 0 {
                d.tracker = Some(decode_tracker_slot(&mut r)?);
            }
            if mask & DIRTY_ROOT != 0 {
                d.root = Some(r.rng()?);
            }
            if mask & DIRTY_SCHED != 0 {
                d.sched = Some(r.rng()?);
            }
            if mask & DIRTY_EPISODE != 0 {
                d.episode = Some(decode_episode_slot(&mut r)?);
            }
            if mask & DIRTY_SCHEDULE != 0 {
                let ep_index = r.var()?;
                let next_start = r.var_time()?;
                let last_handled = if r.opt()? { Some(r.var_time()?) } else { None };
                d.schedule = Some((ep_index, next_start, last_handled));
            }
            if mask & DIRTY_STATS != 0 {
                d.stats = Some(decode_stats_var(&mut r)?);
            }
            if mask & DIRTY_PENDING != 0 {
                let n = r.var_len()?;
                let mut pending = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    pending.push(r.var_time()?);
                }
                d.pending = Some(pending);
            }
            if mask & DIRTY_REC != 0 {
                d.rec = Some(decode_rec_slot(&mut r)?);
            }
            Some(d)
        }
        t => return Err(CheckpointError::CorruptTag(t)),
    };
    if r.buf.has_remaining() {
        return Err(CheckpointError::TrailingBytes { extra: r.buf.remaining() });
    }
    Ok(out)
}

fn decode_system_delta(r: &mut Reader<'_>) -> Result<SystemDelta, CheckpointError> {
    let learned = match r.u8()? {
        0 => LearnedDelta::Unchanged,
        1 => {
            let n = r.len()?;
            let mut values = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                let i = r.u32()?;
                let v = r.f64()?;
                values.push((i, v));
            }
            let n = r.len()?;
            let mut visits = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                let i = r.u32()?;
                let v = r.u64()?;
                visits.push((i, v));
            }
            let n = r.len()?;
            let mut traces = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                let s = StateId::new(r.len()?);
                let a = ActionId::new(r.len()?);
                let e = r.f64()?;
                traces.push((s, a, e));
            }
            let updates = r.u64()?;
            let episodes_trained = r.u64()?;
            LearnedDelta::Cells { values, visits, traces, updates, episodes_trained }
        }
        2 => LearnedDelta::Full(decode_learned(r)?),
        t => return Err(CheckpointError::CorruptTag(t)),
    };
    let rest = decode_rest_delta(r)?;
    Ok(SystemDelta { learned, rest })
}

#[allow(clippy::too_many_lines)]
fn decode_rest_delta(r: &mut Reader<'_>) -> Result<RestDelta, CheckpointError> {
    let mask = r.u16()?;
    if mask & !REST_ALL != 0 {
        #[allow(clippy::cast_possible_truncation)]
        return Err(CheckpointError::CorruptTag((mask >> 8) as u8));
    }
    let mut d = RestDelta::default();
    if mask & REST_SENSING != 0 {
        let current = if r.opt()? { Some(StepId::from_raw(r.u16()?)) } else { None };
        let last_report = if r.opt()? { Some(r.var_time()?) } else { None };
        d.sensing = Some((current, last_report));
    }
    if mask & REST_HISTORY != 0 {
        let tag = r.u8()?;
        let n = r.var_len()?;
        let mut events = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            let at = r.var_time()?;
            let step = StepId::from_raw(r.u16()?);
            events.push(StepEvent { at, step });
        }
        d.history = match tag {
            1 => HistoryDelta::Append(events),
            2 => HistoryDelta::Replace(events),
            t => return Err(CheckpointError::CorruptTag(t)),
        };
    }
    if mask & REST_NODES != 0 {
        let n = r.var_len()?;
        let mut nodes = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            nodes.push(if r.opt()? { Some(decode_node_delta(r)?) } else { None });
        }
        d.nodes = nodes;
    }
    if mask & REST_NET_RNG != 0 {
        d.net_rng = Some([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
    }
    if mask & REST_DOWNLINK_SEQ != 0 {
        d.downlink_seq = Some(r.u16()?);
    }
    if mask & REST_CHANNELS != 0 {
        d.channels = decode_slots(r, |r| {
            let id = NodeId::new(r.u16()?);
            let bad = r.bool()?;
            let sent = r.var()?;
            let lost = r.var()?;
            Ok((id, bad, sent, lost))
        })?;
    }
    if mask & REST_UPLINK != 0 {
        d.uplink = Some(decode_link_counters_var(r)?);
    }
    if mask & REST_DOWNLINK != 0 {
        d.downlink = Some(decode_link_counters_var(r)?);
    }
    if mask & REST_BASE_SEQS != 0 {
        d.base_last_seqs = decode_slots(r, |r| {
            let id = NodeId::new(r.u16()?);
            let seq = r.u16()?;
            Ok((id, seq))
        })?;
    }
    if mask & REST_BASE_COUNTS != 0 {
        d.base_counts = Some((r.var()?, r.var()?));
    }
    Ok(d)
}

fn decode_slots<T>(
    r: &mut Reader<'_>,
    get: impl Fn(&mut Reader<'_>) -> Result<T, CheckpointError>,
) -> Result<SlotsDelta<T>, CheckpointError> {
    match r.u8()? {
        1 => {
            let n = r.var_len()?;
            let mut updates = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                let i = u32::try_from(r.var()?)
                    .map_err(|_| CheckpointError::Truncated { len: r.buf.remaining() })?;
                updates.push((i, get(r)?));
            }
            Ok(SlotsDelta::Sparse(updates))
        }
        2 => {
            let n = r.var_len()?;
            let mut slots = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                slots.push(get(r)?);
            }
            Ok(SlotsDelta::Replace(slots))
        }
        t => Err(CheckpointError::CorruptTag(t)),
    }
}

fn decode_link_counters_var(r: &mut Reader<'_>) -> Result<LinkCounters, CheckpointError> {
    Ok(LinkCounters {
        frames: r.var()?,
        attempts: r.var()?,
        delivered: r.var()?,
        lost: r.var()?,
        duplicates: r.var()?,
    })
}

fn decode_node_delta(r: &mut Reader<'_>) -> Result<NodeDelta, CheckpointError> {
    let mask = r.u16()?;
    if mask & !NODE_ALL != 0 {
        #[allow(clippy::cast_possible_truncation)]
        return Err(CheckpointError::CorruptTag((mask >> 8) as u8));
    }
    let mut d = NodeDelta::default();
    if mask & NODE_WINDOW != 0 {
        let n = r.var_len()?;
        let mut window = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            window.push(r.bool()?);
        }
        d.detector_window = Some(window);
    }
    if mask & NODE_LEDS != 0 {
        let packed = r.u8()?;
        if packed > 3 {
            return Err(CheckpointError::CorruptTag(packed));
        }
        d.leds = Some((packed & 1 != 0, packed & 2 != 0));
    }
    if mask & NODE_ENERGY != 0 {
        d.energy_uj = Some(r.f64()?);
    }
    if mask & NODE_BREAKDOWN != 0 {
        d.energy_breakdown = Some((r.var()?, r.var()?, r.var()?, r.var()?, r.var()?));
    }
    if mask & NODE_SEQ != 0 {
        d.next_seq = Some(r.u16()?);
    }
    if mask & NODE_PEAK != 0 {
        d.window_peak_activation = Some(r.f64()?);
    }
    if mask & NODE_COUNTS != 0 {
        d.counts = Some((r.var()?, r.var()?));
    }
    if mask & NODE_FAILED != 0 {
        d.failed = Some(r.bool()?);
    }
    if mask & NODE_FLIPS != 0 {
        d.flips = Some((r.f64()?, r.f64()?));
    }
    if mask & NODE_SKEW != 0 {
        d.clock_skew_ms = Some(r.var_i64()?);
    }
    if mask & NODE_RNG != 0 {
        d.rng_state = Some([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coreda_sensornet::network::LinkCounters;

    /// A synthetic checkpoint exercising every optional branch and enum
    /// variant the codec knows: live episode in each phase, open session
    /// with a foreign run, traced recorder with a wrapped ring.
    fn sample() -> MetroCheckpoint {
        let node = NodeState {
            detector_window: vec![true, false, true],
            led_green: true,
            led_red: false,
            energy_uj: 1234.5,
            energy_breakdown: (10, 20, 30, 40, 50),
            next_seq: 7,
            window_peak_activation: 0.75,
            windows_closed: 11,
            reports_sent: 3,
            failed: false,
            flip_false_positive: 0.01,
            flip_false_negative: 0.02,
            clock_skew_ms: -250,
        };
        let system = SystemState {
            learned: Some(LearnedState {
                values: vec![0.5, -1.25, 3.0],
                visits: vec![1, 0, 9],
                traces: vec![(StateId::new(2), ActionId::new(1), 0.125)],
                updates: 42,
                episodes_trained: 150,
            }),
            sensing_current: Some(StepId::from_raw(3)),
            sensing_last_report: Some(SimTime::from_secs(12)),
            sensing_history: vec![StepEvent { at: SimTime::from_secs(1), step: StepId::IDLE }],
            nodes: vec![(node, [1, 2, 3, 4], 99)],
            net_rng: ([5, 6, 7, 8], 100),
            downlink_seq: 513,
            channels: vec![(NodeId::new(1), true, 12, 2)],
            uplink: LinkCounters { frames: 1, attempts: 2, delivered: 3, lost: 4, duplicates: 5 },
            downlink: LinkCounters::default(),
            base_last_seqs: vec![(NodeId::new(1), 6)],
            base_accepted: 12,
            base_duplicates: 1,
        };
        let episode = EpisodeState {
            phase: PhaseState::Misusing {
                tool: ToolId::new(4),
                since: SimTime::from_secs(30),
                resume_idx: 2,
            },
            tracked: Some((StepId::IDLE, StepId::from_raw(1))),
            pending: Some((
                SimTime::from_secs(31),
                Prompt { tool: ToolId::new(2), level: ReminderLevel::Specific },
            )),
            last_reminder: Some(SimTime::from_secs(29)),
            reminders_since_advance: 2,
            completed: false,
            ticks_done: 310,
            max_ticks: 9000,
            start: SimTime::ZERO,
            finished: false,
        };
        let rec = RecorderState {
            counters: vec![7; crate::telemetry::Ctr::COUNT],
            stages: vec![
                (vec![0; 300], 0, 1),
                (vec![2; 300], 0, 0),
                (vec![0; 300], 3, 0),
            ],
            ring_cap: 4,
            ring: vec![
                TraceRecord {
                    at: SimTime::from_secs(1),
                    kind: TraceKind::ReminderIssued {
                        tool: ToolId::new(2),
                        specific: true,
                        wrong_tool: false,
                    },
                },
                TraceRecord {
                    at: SimTime::from_secs(2),
                    kind: TraceKind::SessionEnded {
                        name: NameId::from_index(1),
                        completed: true,
                    },
                },
            ],
            ring_dropped: 6,
        };
        let busy = HomeCheckpoint {
            systems: vec![system],
            tracker: Some(ActiveSessionState {
                activity_idx: 1,
                last_report: SimTime::from_secs(40),
                saw_terminal: false,
                foreign_run: Some((0, 2)),
            }),
            root: ([11, 12, 13, 14], 200),
            sched: ([15, 16, 17, 18], 201),
            episode: Some((0, episode, ([19, 20, 21, 22], 202))),
            ep_index: 5,
            next_start: SimTime::from_secs(100),
            last_handled: Some(SimTime::from_secs(45)),
            stats: HomeStats { episodes_started: 5, reminders: 3, ..HomeStats::default() },
            pending: vec![SimTime::from_secs(46), SimTime::from_secs(50)],
            rec: Some(rec),
        };
        let idle = HomeCheckpoint {
            systems: vec![SystemState {
                learned: None,
                sensing_current: None,
                sensing_last_report: None,
                sensing_history: Vec::new(),
                nodes: Vec::new(),
                net_rng: ([1, 1, 1, 1], 0),
                downlink_seq: 0,
                channels: Vec::new(),
                uplink: LinkCounters::default(),
                downlink: LinkCounters::default(),
                base_last_seqs: Vec::new(),
                base_accepted: 0,
                base_duplicates: 0,
            }],
            tracker: None,
            root: ([0, 0, 0, 1], 1),
            sched: ([0, 0, 0, 2], 1),
            episode: None,
            ep_index: 0,
            next_start: SimTime::from_secs(999),
            last_handled: None,
            stats: HomeStats::default(),
            pending: Vec::new(),
            rec: None,
        };
        MetroCheckpoint {
            at: SimTime::from_secs(45),
            digest: 0xDEAD_BEEF_F00D_CAFE,
            des_events: 123_456,
            homes: vec![busy, idle],
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let ckpt = sample();
        let blob = save_checkpoint(&ckpt, 1);
        let back = load_checkpoint(&blob, 1).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn encoding_is_jobs_invariant() {
        let ckpt = sample();
        let serial = save_checkpoint(&ckpt, 1);
        for jobs in [2, 4, 8] {
            assert_eq!(save_checkpoint(&ckpt, jobs), serial, "jobs={jobs}");
            assert_eq!(load_checkpoint(&serial, jobs).unwrap(), ckpt, "jobs={jobs}");
        }
    }

    #[test]
    fn corruption_is_detected() {
        let blob = save_checkpoint(&sample(), 1).to_vec();
        for i in (0..blob.len()).step_by(97) {
            let mut bad = blob.clone();
            bad[i] ^= 0x08;
            assert!(load_checkpoint(&bad, 1).is_err(), "flipping byte {i} went undetected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let blob = save_checkpoint(&sample(), 1);
        for n in [0, 4, 10, blob.len() / 2, blob.len() - 1] {
            assert!(load_checkpoint(&blob[..n], 1).is_err(), "truncated at {n}");
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut blob = save_checkpoint(&sample(), 1).to_vec();
        blob[4] = 99;
        // Re-stamp the CRC so only the version differs.
        let body = blob.len() - 2;
        let crc = crc16(&blob[..body]);
        blob[body..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(
            load_checkpoint(&blob, 1),
            Err(CheckpointError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn digest_ignores_resume_knobs_but_pins_the_run() {
        let base = MetroConfig::default();
        let d = config_digest(&base);
        // Knobs a resume may change leave the digest alone...
        assert_eq!(d, config_digest(&MetroConfig { jobs: 99, ..base.clone() }));
        assert_eq!(
            d,
            config_digest(&MetroConfig {
                horizon: coreda_des::time::SimDuration::from_secs(1),
                ..base.clone()
            })
        );
        // ...while anything trajectory-shaping changes it.
        assert_ne!(d, config_digest(&MetroConfig { homes: 17, ..base.clone() }));
        assert_ne!(d, config_digest(&MetroConfig { seed: 3, ..base.clone() }));
        assert_ne!(d, config_digest(&MetroConfig { train_episodes: 1, ..base }));
    }

    #[test]
    fn error_messages_read_well() {
        assert!(CheckpointError::ConfigMismatch { expected: 1, actual: 2 }
            .to_string()
            .contains("different run configuration"));
        assert!(CheckpointError::Truncated { len: 3 }.to_string().contains("3 bytes"));
        assert!(CheckpointError::CorruptTag(9).to_string().contains("tag 9"));
        assert!(CheckpointError::BaseMismatch { expected: 1, actual: 2 }
            .to_string()
            .contains("different base snapshot"));
        assert!(CheckpointError::ShapeMismatch { index: 7, bound: 3 }
            .to_string()
            .contains("index 7"));
        assert!(CheckpointError::WalDivergence { at: SimTime::from_secs(2), home: 5 }
            .to_string()
            .contains("2000ms"));
    }

    /// An evolved `sample()`: home 0 learned a Q-cell, issued a reminder,
    /// advanced its RNGs and pending wakes; home 1 did nothing.
    fn evolved() -> MetroCheckpoint {
        let mut cur = sample();
        cur.at = SimTime::from_secs(75);
        cur.des_events = 234_567;
        let busy = &mut cur.homes[0];
        let learned = busy.systems[0].learned.as_mut().unwrap();
        learned.values[1] = -0.75;
        learned.visits[2] = 10;
        learned.updates = 43;
        busy.systems[0].base_accepted = 14;
        busy.root.0[0] ^= 0x55;
        busy.sched.0[3] ^= 0x21;
        busy.stats.reminders = 4;
        busy.ep_index = 6;
        busy.next_start = SimTime::from_secs(140);
        busy.pending = vec![SimTime::from_secs(80)];
        busy.tracker = None;
        cur
    }

    #[test]
    fn delta_round_trip_is_exact_and_rebuilds_the_full_snapshot() {
        let base = sample();
        let cur = evolved();
        let delta = delta_checkpoint(&base, &cur);
        assert_eq!(delta.dirty_homes(), 1, "only home 0 moved");
        let blob = save_delta(&delta, 1);
        let back = load_delta(&blob, 1).unwrap();
        assert_eq!(back, delta);
        assert_eq!(apply_delta(&base, &back).unwrap(), cur);
    }

    #[test]
    fn unchanged_learned_state_costs_no_table_bytes() {
        let base = sample();
        let mut cur = evolved();
        // Undo the learned-state movement: only the rest of system 0 moved.
        cur.homes[0].systems[0].learned = base.homes[0].systems[0].learned.clone();
        let delta = delta_checkpoint(&base, &cur);
        let Some(d) = &delta.homes[0] else { panic!("home 0 moved") };
        let Some(sd) = &d.systems[0] else { panic!("system 0 moved") };
        assert_eq!(sd.learned, LearnedDelta::Unchanged);
        // And sparse cell updates beat re-encoding the whole table.
        let sparse = delta_checkpoint(&base, &evolved());
        let Some(d) = &sparse.homes[0] else { panic!("home 0 moved") };
        let Some(sd) = &d.systems[0] else { panic!("system 0 moved") };
        let LearnedDelta::Cells { values, visits, .. } = &sd.learned else {
            panic!("expected sparse cells, got {:?}", sd.learned)
        };
        assert_eq!(values.as_slice(), &[(1, -0.75)]);
        assert_eq!(visits.as_slice(), &[(2, 10)]);
    }

    #[test]
    fn learned_shape_changes_fall_back_to_full_replacement() {
        let base = sample();
        let mut cur = evolved();
        cur.homes[0].systems[0].learned.as_mut().unwrap().values.push(9.0);
        let delta = delta_checkpoint(&base, &cur);
        let sd = delta.homes[0].as_ref().unwrap().systems[0].as_ref().unwrap();
        assert!(matches!(sd.learned, LearnedDelta::Full(Some(_))));
        assert_eq!(apply_delta(&base, &delta).unwrap(), cur);
    }

    #[test]
    fn identical_snapshots_produce_an_empty_delta() {
        let base = sample();
        let delta = delta_checkpoint(&base, &base);
        assert_eq!(delta.dirty_homes(), 0);
        let blob = save_delta(&delta, 1);
        // Header + per-home one-byte "unchanged" markers + CRC: far below
        // the full manifest.
        assert!(blob.len() < 64, "empty delta took {} bytes", blob.len());
        assert_eq!(apply_delta(&base, &delta).unwrap(), base);
    }

    #[test]
    fn deltas_refuse_the_wrong_base() {
        let base = sample();
        let cur = evolved();
        let delta = delta_checkpoint(&base, &cur);
        // A base from a different instant: fingerprint mismatch.
        let err = apply_delta(&cur, &delta).unwrap_err();
        assert!(matches!(err, CheckpointError::BaseMismatch { .. }), "{err}");
        // A base from a different run: digest mismatch wins.
        let mut foreign = base.clone();
        foreign.digest ^= 1;
        let err = apply_delta(&foreign, &delta).unwrap_err();
        assert!(matches!(err, CheckpointError::ConfigMismatch { .. }), "{err}");
    }

    #[test]
    fn crafted_cell_indices_are_rejected_not_panicking() {
        let base = sample();
        let mut delta = delta_checkpoint(&base, &evolved());
        let sd = delta.homes[0].as_mut().unwrap().systems[0].as_mut().unwrap();
        let LearnedDelta::Cells { values, .. } = &mut sd.learned else {
            panic!("expected cells")
        };
        values.push((999, 1.0));
        let err = apply_delta(&base, &delta).unwrap_err();
        assert!(matches!(err, CheckpointError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn compaction_folds_a_delta_chain_into_the_final_snapshot() {
        let base = sample();
        let mid = evolved();
        let mut end = mid.clone();
        end.at = SimTime::from_secs(90);
        end.des_events = 345_678;
        end.homes[1].stats.pipeline_ticks = 17;
        end.homes[1].sched.0[1] ^= 9;
        let d1 = delta_checkpoint(&base, &mid);
        let d2 = delta_checkpoint(&mid, &end);
        assert_eq!(compact(&base, &[d1.clone(), d2.clone()]).unwrap(), end);
        // Out of order, the chain refuses to fold.
        assert!(compact(&base, &[d2, d1]).is_err());
    }

    #[test]
    fn delta_encoding_is_jobs_invariant() {
        let delta = delta_checkpoint(&sample(), &evolved());
        let serial = save_delta(&delta, 1);
        for jobs in [2, 4, 8] {
            assert_eq!(save_delta(&delta, jobs), serial, "jobs={jobs}");
            assert_eq!(load_delta(&serial, jobs).unwrap(), delta, "jobs={jobs}");
        }
    }

    #[test]
    fn delta_corruption_and_truncation_are_detected() {
        let blob = save_delta(&delta_checkpoint(&sample(), &evolved()), 1).to_vec();
        for i in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[i] ^= 1 << bit;
                assert!(load_delta(&bad, 1).is_err(), "flipping byte {i} bit {bit} undetected");
            }
        }
        for n in [0, 4, 10, blob.len() / 2, blob.len() - 1] {
            assert!(load_delta(&blob[..n], 1).is_err(), "truncated at {n}");
        }
        // A checkpoint manifest is not a delta manifest.
        let full = save_checkpoint(&sample(), 1);
        assert_eq!(load_delta(&full, 1), Err(CheckpointError::BadMagic(*MAGIC)));
    }
}
