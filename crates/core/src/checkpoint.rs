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
//! Incremental checkpoints share that manifest framing under
//! [`DELTA_MAGIC`]. A [`DeltaCheckpoint`] holds each dirty home as its
//! encoded CRCD body: [`delta_checkpoint`] writes it in one walk that
//! compares each field with the base, sets the field's dirty bit and
//! writes the new value, and [`apply_delta`] reads it straight onto a
//! clone of the base in one walk. [`load_delta`] checks the framing (CRC,
//! magic, version, lengths and each home's clean/dirty tag); a body's
//! masks, tags and shape are checked by [`apply_delta`], which every
//! resume runs right after loading.
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
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes};
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
use crate::system::{LiveEpisode, Phase, SystemState};
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
    /// In-flight episode: `(activity index, the live episode, episode RNG)`.
    pub episode: Option<(usize, LiveEpisode, ([u64; 4], u64))>,
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
    /// An enum tag has no meaning in this version (nor has tool id 0,
    /// reported as tag 0).
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
    /// (a Q-cell or slot index past its table, or a per-system or
    /// per-node delta list whose length disagrees with the base's), or a
    /// snapshot does not fit the fleet it is resumed into (home count,
    /// systems per home, nodes per system, learned-table size, an
    /// activity index past the catalog, an episode step past its
    /// routine, a full detector window, a flip rate or energy total out
    /// of range — reported as the node's position against the node
    /// count — a channel for an unknown node, an eligibility trace
    /// whose state or action id lies outside the table or whose weight
    /// is negative — the trace's position against the trace count — or
    /// recorder state of another layout: too many counters, a stage or
    /// bin count off, a ring capacity not the fleet's, or more ring
    /// records than the capacity).
    ShapeMismatch {
        /// Index or length stored in the delta or snapshot.
        index: u32,
        /// The corresponding bound in the base snapshot or fleet.
        bound: u32,
    },
    /// A snapshot's in-flight episode misuses a tool that is not one of
    /// its activity's (every run draws a wrong tool from the activity's
    /// own, and the wrong-tool reminder lights that tool's LED).
    ForeignTool {
        /// The misused tool.
        tool: ToolId,
        /// The episode's activity index.
        activity: u32,
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
            CheckpointError::ForeignTool { tool, activity } => {
                write!(f, "misused {tool} is not one of activity {activity}'s tools")
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

/// Serialises a fleet snapshot. Each of up to `jobs` workers encodes a
/// contiguous chunk of homes into one buffer. Chunk 0's buffer starts
/// with the manifest header and the other chunks are appended to it, so
/// with one worker every home is encoded straight into the manifest. The
/// output is identical at any worker count.
#[must_use]
pub fn save_checkpoint(ckpt: &MetroCheckpoint, jobs: usize) -> Bytes {
    let words = [ckpt.digest, ckpt.at.as_millis(), ckpt.des_events];
    let header = manifest_header(MAGIC, &words, ckpt.homes.len());
    let starts = std::iter::once(header).chain(std::iter::repeat_with(Vec::new));
    let work = starts.zip(chunks(&ckpt.homes, jobs)).collect();
    let mut parts = FleetEngine::new(jobs).map(work, |(mut buf, part)| {
        for home in part {
            put_entry(&mut buf, |buf| encode_home(buf, home));
        }
        buf
    });
    // `chunks` returns one chunk at least, so there is a chunk 0.
    let mut buf = std::mem::take(&mut parts[0]);
    buf.reserve_exact(parts.iter().map(Vec::len).sum::<usize>() + 2);
    for part in &parts[1..] {
        buf.put_slice(part);
    }
    seal_manifest(buf)
}

/// `items` split into at most `jobs` contiguous chunks, in order: one
/// empty chunk when there are no items.
fn chunks<T>(items: &[T], jobs: usize) -> Vec<&[T]> {
    let size = items.len().div_ceil(jobs.max(1)).max(1);
    let n = items.len().div_ceil(size).max(1);
    (0..n).map(|c| &items[c * size..((c + 1) * size).min(items.len())]).collect()
}

/// Restores a fleet snapshot from a manifest produced by
/// [`save_checkpoint`]. Contiguous chunks of homes are decoded in
/// parallel across `jobs` workers; within a chunk, consecutive homes
/// with equal learned tables share one.
///
/// # Errors
///
/// Returns a [`CheckpointError`] if the manifest is malformed,
/// CRC-damaged, or from a different format version. Configuration
/// compatibility is *not* checked here — compare
/// [`MetroCheckpoint::digest`] against [`config_digest`] (the metro
/// resume APIs do) before resuming.
pub fn load_checkpoint(blob: &[u8], jobs: usize) -> Result<MetroCheckpoint, CheckpointError> {
    let ([digest, at, des_events], slices) = load_manifest::<3>(blob, MAGIC)?;
    let parts = FleetEngine::new(jobs).map(chunks(&slices, jobs), |part| {
        let mut tables = SharedTables::default();
        part.iter().map(|&home| decode_home(home, &mut tables)).collect::<Result<Vec<_>, _>>()
    });
    let mut homes = Vec::with_capacity(slices.len());
    for part in parts {
        homes.append(&mut part?);
    }
    Ok(MetroCheckpoint { at: SimTime::from_millis(at), digest, des_events, homes })
}

/// Starts a manifest, the layout snapshots ([`MAGIC`]) and deltas
/// ([`DELTA_MAGIC`]) share: magic, [`VERSION`], big-endian header words
/// and the home count. Each home's blob follows behind its u32 length
/// ([`put_entry`]), then [`seal_manifest`]'s CRC-16 trailer.
fn manifest_header(magic: &[u8; 4], words: &[u64], homes: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_slice(magic);
    buf.put_u8(VERSION);
    for &w in words {
        buf.put_u64(w);
    }
    buf.put_u32(u32::try_from(homes).expect("fleets fit in u32"));
    buf
}

/// Ends a manifest with a CRC-16 trailer over everything before it. The
/// returned bytes take the buffer without a copy.
fn seal_manifest(mut buf: Vec<u8>) -> Bytes {
    let crc = crc16(&buf);
    buf.put_u16(crc);
    Bytes::from(buf)
}

/// Writes one home's manifest entry: what `encode` writes, behind its
/// u32 length.
fn put_entry(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    buf.put_u32(0);
    encode(buf);
    let len = u32::try_from(buf.len() - at - 4).expect("home blobs fit in u32");
    buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

/// Unframes a [`manifest_header`] blob: verifies the CRC before parsing
/// anything, then the magic and version, and returns the `N` header
/// words and every home's blob. The home count is untrusted, so it
/// reserves no more slots than the bytes left hold 4-byte length
/// prefixes for.
fn load_manifest<'a, const N: usize>(
    blob: &'a [u8],
    magic: &[u8; 4],
) -> Result<([u64; N], Vec<&'a [u8]>), CheckpointError> {
    if blob.len() < magic.len() + 1 + 2 {
        return Err(CheckpointError::Truncated { len: blob.len() });
    }
    let (body, trailer) = blob.split_at(blob.len() - 2);
    let expected = u16::from_be_bytes([trailer[0], trailer[1]]);
    let actual = crc16(body);
    if expected != actual {
        return Err(CheckpointError::BadCrc { expected, actual });
    }
    let mut r = Reader { buf: body };
    let mut found = [0u8; 4];
    r.need(4)?;
    r.buf.copy_to_slice(&mut found);
    if &found != magic {
        return Err(CheckpointError::BadMagic(found));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let mut words = [0; N];
    for w in &mut words {
        *w = r.u64()?;
    }
    let n_homes = r.len()?;
    let mut homes = Vec::with_capacity(n_homes.min(r.buf.remaining() / 4));
    for _ in 0..n_homes {
        let len = r.len()?;
        r.need(len)?;
        let (head, rest) = r.buf.split_at(len);
        homes.push(head);
        r.buf = rest;
    }
    r.finish()?;
    Ok((words, homes))
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

fn put_words(buf: &mut Vec<u8>, words: [u64; 4]) {
    for w in words {
        buf.put_u64(w);
    }
}

fn put_rng(buf: &mut Vec<u8>, (state, base): ([u64; 4], u64)) {
    put_words(buf, state);
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

fn encode_home(buf: &mut Vec<u8>, h: &HomeCheckpoint) {
    put_len(buf, h.systems.len());
    for sys in &h.systems {
        encode_system(buf, sys);
    }
    encode_tracker_slot(buf, h.tracker.as_ref());
    put_rng(buf, h.root);
    put_rng(buf, h.sched);
    encode_episode_slot(buf, h.episode.as_ref());
    buf.put_u64(h.ep_index);
    put_time(buf, h.next_start);
    put_opt_time(buf, h.last_handled);
    encode_stats(buf, &h.stats);
    encode_pending(buf, &h.pending);
    encode_rec_slot(buf, h.rec.as_ref());
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
type EpisodeSlot = (usize, LiveEpisode, ([u64; 4], u64));

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
    encode_learned(buf, s.learned.as_deref());
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
            put_traces(buf, &l.traces);
            buf.put_u64(l.updates);
            buf.put_u64(l.episodes_trained);
        }
    }
}

fn put_traces(buf: &mut Vec<u8>, traces: &[(StateId, ActionId, f64)]) {
    put_len(buf, traces.len());
    for &(st, a, e) in traces {
        put_len(buf, st.index());
        put_len(buf, a.index());
        buf.put_f64(e);
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

fn encode_episode(buf: &mut Vec<u8>, ep: &LiveEpisode) {
    match ep.phase {
        Phase::Performing { idx, until } => {
            buf.put_u8(0);
            put_len(buf, idx);
            put_time(buf, until);
        }
        Phase::Misusing { tool, since, resume_idx } => {
            buf.put_u8(1);
            buf.put_u16(tool.raw());
            put_time(buf, since);
            put_len(buf, resume_idx);
        }
        Phase::Frozen { since, resume_idx } => {
            buf.put_u8(2);
            put_time(buf, since);
            put_len(buf, resume_idx);
        }
        Phase::Done => buf.put_u8(3),
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

    /// A tool id. Zero is the idle step's id and names no tool, so it is
    /// refused like an unknown tag rather than panicking [`ToolId::new`].
    fn tool(&mut self) -> Result<ToolId, CheckpointError> {
        match self.u16()? {
            0 => Err(CheckpointError::CorruptTag(0)),
            raw => Ok(ToolId::new(raw)),
        }
    }

    fn words(&mut self) -> Result<[u64; 4], CheckpointError> {
        Ok([self.u64()?, self.u64()?, self.u64()?, self.u64()?])
    }

    fn rng(&mut self) -> Result<([u64; 4], u64), CheckpointError> {
        let state = self.words()?;
        let base = self.u64()?;
        Ok((state, base))
    }

    /// A delta's dirty mask, refusing bits outside `all`.
    fn mask(&mut self, all: u16) -> Result<u16, CheckpointError> {
        let mask = self.u16()?;
        if mask & !all != 0 {
            #[allow(clippy::cast_possible_truncation)]
            return Err(CheckpointError::CorruptTag((mask >> 8) as u8));
        }
        Ok(mask)
    }

    /// Refuses bytes left over once a blob's contents are read.
    fn finish(&self) -> Result<(), CheckpointError> {
        if self.buf.has_remaining() {
            return Err(CheckpointError::TrailingBytes { extra: self.buf.remaining() });
        }
        Ok(())
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

fn decode_home<'a>(
    blob: &'a [u8],
    tables: &mut SharedTables<'a>,
) -> Result<HomeCheckpoint, CheckpointError> {
    let mut r = Reader { buf: blob };
    let n_systems = r.len()?;
    let mut systems = Vec::with_capacity(n_systems.min(64));
    for at in 0..n_systems {
        let learned = tables.decode(at, &mut r)?;
        let mut system = decode_system_rest(&mut r)?;
        system.learned = learned;
        systems.push(system);
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
    r.finish()?;
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

fn decode_episode_slot(r: &mut Reader<'_>) -> Result<Option<EpisodeSlot>, CheckpointError> {
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

/// The learned table a snapshot decode built last at each position in a
/// home's systems (one position per activity), with the bytes it was
/// decoded from. A home whose table at that position starts with the
/// same bytes shares that table instead of decoding a copy: decoding
/// reads nothing past the bytes it consumes, so equal bytes decode to the
/// same table, bit for bit. A fleet that does not learn decodes to one
/// table per activity per worker chunk.
#[derive(Default)]
struct SharedTables<'a> {
    last: Vec<Option<(&'a [u8], Arc<LearnedState>)>>,
}

impl<'a> SharedTables<'a> {
    /// Decodes the learned table of a home's system `at` from `r`,
    /// sharing the last table decoded there when its bytes come next.
    fn decode(
        &mut self,
        at: usize,
        r: &mut Reader<'a>,
    ) -> Result<Option<Arc<LearnedState>>, CheckpointError> {
        if self.last.len() <= at {
            self.last.resize(at + 1, None);
        }
        if let Some((bytes, table)) = &self.last[at] {
            if let Some(rest) = r.buf.strip_prefix(*bytes) {
                r.buf = rest;
                return Ok(Some(Arc::clone(table)));
            }
        }
        let start = r.buf;
        let table = decode_learned(r)?.map(Arc::new);
        if let Some(table) = &table {
            self.last[at] = Some((&start[..start.len() - r.buf.len()], Arc::clone(table)));
        }
        Ok(table)
    }
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
    let traces = decode_traces(r)?;
    let updates = r.u64()?;
    let episodes_trained = r.u64()?;
    Ok(Some(LearnedState { values, visits, traces, updates, episodes_trained }))
}

fn decode_traces(r: &mut Reader<'_>) -> Result<Vec<(StateId, ActionId, f64)>, CheckpointError> {
    let n = r.len()?;
    let mut traces = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        let s = StateId::new(r.len()?);
        let a = ActionId::new(r.len()?);
        let e = r.f64()?;
        traces.push((s, a, e));
    }
    Ok(traces)
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

fn decode_episode(r: &mut Reader<'_>) -> Result<LiveEpisode, CheckpointError> {
    let phase = match r.u8()? {
        0 => {
            let idx = r.len()?;
            let until = r.time()?;
            Phase::Performing { idx, until }
        }
        1 => {
            let tool = r.tool()?;
            let since = r.time()?;
            let resume_idx = r.len()?;
            Phase::Misusing { tool, since, resume_idx }
        }
        2 => {
            let since = r.time()?;
            let resume_idx = r.len()?;
            Phase::Frozen { since, resume_idx }
        }
        3 => Phase::Done,
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
        let tool = r.tool()?;
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
    Ok(LiveEpisode {
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
            tool: r.tool()?,
            specific: r.bool()?,
            wrong_tool: r.bool()?,
        },
        8 => TraceKind::LedCommand {
            tool: r.tool()?,
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

// A dirty home's body is tag `1`, then its `DIRTY_*` mask and each dirty
// field's new value in bit order. A dirty system nests the same way: its
// learned-state tag, then its `REST_*` mask and fields, where a dirty
// node carries a `NODE_*` mask. Counters, instants and lengths are
// LEB128 on this path only (zigzag for the signed clock skew), so a
// small move costs a byte or two; RNG base seeds are construction-time
// and only stream positions travel.

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

/// The manifest entry of a home identical to the base.
const CLEAN: &[u8] = &[0];
/// Learned-state tag: bit-identical to the base (including both absent).
const SAME: u8 = 0;
/// Tag of an update in place: the learned table's changed cells (online
/// learning touches a handful per interval), the history's new tail
/// events, or a slot vector's changed slots.
const UPDATE: u8 = 1;
/// Tag of a wholesale replacement: learned state whose presence flipped
/// or whose table was resized, a history that is no longer a prefix, a
/// slot vector whose length moved.
const REPLACE: u8 = 2;

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
    /// Per-home manifest entries in home-id order: `None` for a home
    /// whose entire state is identical to the base, else its CRCD body,
    /// whose first byte is the dirty tag `1`.
    homes: Vec<Option<Vec<u8>>>,
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
/// turns back into `cur` exactly. Each dirty home is encoded here, in
/// one walk over its fields, serially.
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
        .map(|(b, c)| (b != c).then(|| write_home_delta(b, c)))
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
/// a clone of its base (which shares the base's learned tables until a
/// delta writes one).
///
/// # Errors
///
/// [`CheckpointError::ConfigMismatch`] if the delta belongs to a
/// different run, [`CheckpointError::BaseMismatch`] if it was diffed
/// against a different base snapshot, and, for a (CRC-valid but
/// crafted) body, [`CheckpointError::ShapeMismatch`] where it addresses
/// state the base does not have, or the codec's byte-level errors
/// (unknown mask bit or tag, non-finite value, truncation, trailing
/// bytes).
pub fn apply_delta(
    base: &MetroCheckpoint,
    delta: &DeltaCheckpoint,
) -> Result<MetroCheckpoint, CheckpointError> {
    let mut out = base.clone();
    read_delta(&mut out, delta)?;
    Ok(out)
}

/// Folds a chain of deltas into their base, producing the fresh full
/// snapshot a compaction would write: one clone of the base, then each
/// delta applied in place. Each delta must have been diffed against the
/// result of applying all earlier ones.
///
/// # Errors
///
/// The first delta's failure, as in [`apply_delta`].
pub fn compact(
    base: &MetroCheckpoint,
    deltas: &[DeltaCheckpoint],
) -> Result<MetroCheckpoint, CheckpointError> {
    let mut cur = base.clone();
    for d in deltas {
        read_delta(&mut cur, d)?;
    }
    Ok(cur)
}

/// The delta read walk: checks that `delta` was diffed against `snap`,
/// then reads each dirty home's body onto it in place. On an error
/// `snap` may be part-way applied; callers drop it.
fn read_delta(snap: &mut MetroCheckpoint, delta: &DeltaCheckpoint) -> Result<(), CheckpointError> {
    if delta.digest != snap.digest {
        return Err(CheckpointError::ConfigMismatch {
            expected: delta.digest,
            actual: snap.digest,
        });
    }
    let actual = checkpoint_fingerprint(snap);
    if delta.base_fingerprint != actual {
        return Err(CheckpointError::BaseMismatch { expected: delta.base_fingerprint, actual });
    }
    fits(delta.homes.len(), snap.homes.len())?;
    for (home, body) in snap.homes.iter_mut().zip(&delta.homes) {
        if let Some(body) = body {
            // Past the dirty tag `load_delta` already checked.
            let mut r = Reader { buf: &body[1..] };
            read_home_delta(&mut r, home)?;
            r.finish()?;
        }
    }
    snap.at = delta.at;
    snap.des_events = delta.des_events;
    Ok(())
}

pub(crate) fn shape_mismatch(index: usize, bound: usize) -> CheckpointError {
    CheckpointError::ShapeMismatch {
        index: u32::try_from(index).unwrap_or(u32::MAX),
        bound: u32::try_from(bound).unwrap_or(u32::MAX),
    }
}

/// A [`CheckpointError::ShapeMismatch`] unless `len` is `bound`.
pub(crate) fn fits(len: usize, bound: usize) -> Result<(), CheckpointError> {
    if len == bound {
        Ok(())
    } else {
        Err(shape_mismatch(len, bound))
    }
}

/// Serialises a delta manifest: the framing of [`save_checkpoint`] under
/// [`DELTA_MAGIC`], with a one-byte entry for each clean home. Output is
/// identical at any worker count.
///
/// `_jobs` is unused: [`delta_checkpoint`] already encoded every body,
/// so framing them is a copy. The parameter stays so the benchmark in
/// `perfbench/` builds unchanged, until its next change drops it.
#[must_use]
pub fn save_delta(delta: &DeltaCheckpoint, _jobs: usize) -> Bytes {
    let words = [delta.digest, delta.base_fingerprint, delta.at.as_millis(), delta.des_events];
    let bodies = || delta.homes.iter().map(|h| h.as_deref().unwrap_or(CLEAN));
    let mut buf = manifest_header(DELTA_MAGIC, &words, delta.homes.len());
    buf.reserve_exact(bodies().map(|body| 4 + body.len()).sum::<usize>() + 2);
    for body in bodies() {
        put_entry(&mut buf, |buf| buf.put_slice(body));
    }
    seal_manifest(buf)
}

/// Restores a delta manifest produced by [`save_delta`]. `_jobs` is
/// unused, as in [`save_delta`].
///
/// # Errors
///
/// Returns a [`CheckpointError`] if the manifest is malformed,
/// CRC-damaged, from a different format version, or holds a home entry
/// that is neither a lone clean tag `0` nor a dirty tag `1` and its
/// body. The bodies themselves, and base compatibility, are checked by
/// [`apply_delta`].
pub fn load_delta(blob: &[u8], _jobs: usize) -> Result<DeltaCheckpoint, CheckpointError> {
    let ([digest, base_fingerprint, at, des_events], slices) =
        load_manifest::<4>(blob, DELTA_MAGIC)?;
    let homes = slices
        .into_iter()
        .map(|home| match home.split_first() {
            None => Err(CheckpointError::Truncated { len: 0 }),
            Some((0, [])) => Ok(None),
            Some((0, rest)) => Err(CheckpointError::TrailingBytes { extra: rest.len() }),
            Some((1, _)) => Ok(Some(home.to_vec())),
            Some((&t, _)) => Err(CheckpointError::CorruptTag(t)),
        })
        .collect::<Result<_, _>>()?;
    Ok(DeltaCheckpoint {
        at: SimTime::from_millis(at),
        digest,
        base_fingerprint,
        des_events,
        homes,
    })
}

/// A dirty mask being filled in: [`Masked::open`] reserves its slot,
/// [`Masked::field`] sets a moved field's bit and writes its new value,
/// and [`Masked::close`] stores the mask in the slot.
struct Masked<'a> {
    buf: &'a mut Vec<u8>,
    at: usize,
    mask: u16,
}

impl<'a> Masked<'a> {
    fn open(buf: &'a mut Vec<u8>) -> Self {
        let at = buf.len();
        buf.put_u16(0);
        Masked { buf, at, mask: 0 }
    }

    fn field(&mut self, bit: u16, moved: bool, put: impl FnOnce(&mut Vec<u8>)) {
        if moved {
            self.mask |= bit;
            put(self.buf);
        }
    }

    fn close(self) {
        self.buf[self.at..self.at + 2].copy_from_slice(&self.mask.to_be_bytes());
    }
}

/// Writes `None` as tag `0`, and `Some(v)` as tag `1` and `v`.
fn put_opt<T>(buf: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        None => buf.put_u8(0),
        Some(v) => {
            buf.put_u8(1);
            put(buf, v);
        }
    }
}

/// A dirty home's CRCD body: the dirty tag, then the `DIRTY_*` mask and
/// every moved field's new value.
fn write_home_delta(b: &HomeCheckpoint, c: &HomeCheckpoint) -> Vec<u8> {
    let mut buf = vec![1];
    let mut w = Masked::open(&mut buf);
    w.field(DIRTY_SYSTEMS, b.systems != c.systems, |buf| {
        assert_eq!(b.systems.len(), c.systems.len(), "system count is pinned by the config digest");
        put_len(buf, c.systems.len());
        put_moved(buf, &b.systems, &c.systems, |buf, b, c| {
            write_learned_delta(buf, b.learned.as_ref(), c.learned.as_ref());
            write_rest_delta(buf, b, c);
        });
    });
    w.field(DIRTY_TRACKER, b.tracker != c.tracker, |buf| {
        encode_tracker_slot(buf, c.tracker.as_ref());
    });
    w.field(DIRTY_ROOT, b.root != c.root, |buf| put_rng(buf, c.root));
    w.field(DIRTY_SCHED, b.sched != c.sched, |buf| put_rng(buf, c.sched));
    w.field(DIRTY_EPISODE, b.episode != c.episode, |buf| {
        encode_episode_slot(buf, c.episode.as_ref());
    });
    let schedule = |h: &HomeCheckpoint| (h.ep_index, h.next_start, h.last_handled);
    w.field(DIRTY_SCHEDULE, schedule(b) != schedule(c), |buf| {
        put_var(buf, c.ep_index);
        put_var_time(buf, c.next_start);
        put_opt(buf, c.last_handled, put_var_time);
    });
    w.field(DIRTY_STATS, b.stats != c.stats, |buf| encode_stats_var(buf, &c.stats));
    w.field(DIRTY_PENDING, b.pending != c.pending, |buf| {
        put_var_len(buf, c.pending.len());
        for &due in &c.pending {
            put_var_time(buf, due);
        }
    });
    w.field(DIRTY_REC, b.rec != c.rec, |buf| encode_rec_slot(buf, c.rec.as_ref()));
    w.close();
    buf
}

/// Writes `0` for each pair of entries that is equal, and `1` and the
/// entry's delta for each that moved.
fn put_moved<T: PartialEq>(
    buf: &mut Vec<u8>,
    base: &[T],
    cur: &[T],
    write: impl Fn(&mut Vec<u8>, &T, &T),
) {
    for (b, c) in base.iter().zip(cur) {
        if b == c {
            buf.put_u8(0);
        } else {
            buf.put_u8(1);
            write(buf, b, c);
        }
    }
}

/// A system's learned-state tag and what it needs: a table shared with
/// the base (one `Arc`) is [`SAME`] without comparing a cell.
fn write_learned_delta(
    buf: &mut Vec<u8>,
    base: Option<&Arc<LearnedState>>,
    cur: Option<&Arc<LearnedState>>,
) {
    match (base, cur) {
        (Some(b), Some(c)) if Arc::ptr_eq(b, c) => buf.put_u8(SAME),
        (b, c) if b == c => buf.put_u8(SAME),
        (Some(b), Some(c))
            if b.values.len() == c.values.len() && b.visits.len() == c.visits.len() =>
        {
            buf.put_u8(UPDATE);
            put_cells(buf, &b.values, &c.values, |buf, &v| buf.put_f64(v));
            put_cells(buf, &b.visits, &c.visits, |buf, &v| buf.put_u64(v));
            // Traces churn completely within an episode: always whole.
            put_traces(buf, &c.traces);
            buf.put_u64(c.updates);
            buf.put_u64(c.episodes_trained);
        }
        (_, c) => {
            buf.put_u8(REPLACE);
            encode_learned(buf, c.map(|c| &**c));
        }
    }
}

/// Writes the cells of `cur` that differ from `base`: their count, then
/// each one's u32 index and new value.
fn put_cells<T: PartialEq>(
    buf: &mut Vec<u8>,
    base: &[T],
    cur: &[T],
    put: impl Fn(&mut Vec<u8>, &T),
) {
    let moved = || base.iter().zip(cur).enumerate().filter(|(_, (b, c))| b != c);
    put_len(buf, moved().count());
    for (i, (_, c)) in moved() {
        buf.put_u32(u32::try_from(i).expect("tables fit in u32"));
        put(buf, c);
    }
}

/// Everything in a [`SystemState`] except `learned`, diffed field by
/// field: a steady-state interval mostly moves a few counters and RNG
/// positions per node, not its fault knobs.
fn write_rest_delta(buf: &mut Vec<u8>, b: &SystemState, c: &SystemState) {
    let mut w = Masked::open(buf);
    let sensing = |s: &SystemState| (s.sensing_current, s.sensing_last_report);
    w.field(REST_SENSING, sensing(b) != sensing(c), |buf| {
        put_opt(buf, c.sensing_current, |buf, step| buf.put_u16(step.raw()));
        put_opt(buf, c.sensing_last_report, put_var_time);
    });
    w.field(REST_HISTORY, b.sensing_history != c.sensing_history, |buf| {
        // The history is append-only in normal operation.
        let (old, new) = (&b.sensing_history, &c.sensing_history);
        let events = if new.starts_with(old) {
            buf.put_u8(UPDATE);
            &new[old.len()..]
        } else {
            buf.put_u8(REPLACE);
            &new[..]
        };
        put_var_len(buf, events.len());
        for ev in events {
            put_var_time(buf, ev.at);
            buf.put_u16(ev.step.raw());
        }
    });
    w.field(REST_NODES, b.nodes != c.nodes, |buf| {
        assert_eq!(b.nodes.len(), c.nodes.len(), "node count is pinned by the spec");
        put_var_len(buf, c.nodes.len());
        put_moved(buf, &b.nodes, &c.nodes, write_node_delta);
    });
    w.field(REST_NET_RNG, b.net_rng != c.net_rng, |buf| {
        assert_eq!(b.net_rng.1, c.net_rng.1, "rng base seed is construction-time");
        put_words(buf, c.net_rng.0);
    });
    w.field(REST_DOWNLINK_SEQ, b.downlink_seq != c.downlink_seq, |buf| {
        buf.put_u16(c.downlink_seq);
    });
    w.field(REST_CHANNELS, b.channels != c.channels, |buf| {
        put_slots(buf, &b.channels, &c.channels, |buf, &(id, bad, sent, lost)| {
            buf.put_u16(id.raw());
            put_bool(buf, bad);
            put_var(buf, sent);
            put_var(buf, lost);
        });
    });
    w.field(REST_UPLINK, b.uplink != c.uplink, |buf| put_link_counters_var(buf, &c.uplink));
    w.field(REST_DOWNLINK, b.downlink != c.downlink, |buf| {
        put_link_counters_var(buf, &c.downlink);
    });
    w.field(REST_BASE_SEQS, b.base_last_seqs != c.base_last_seqs, |buf| {
        put_slots(buf, &b.base_last_seqs, &c.base_last_seqs, |buf, &(id, seq)| {
            buf.put_u16(id.raw());
            buf.put_u16(seq);
        });
    });
    let counts = |s: &SystemState| (s.base_accepted, s.base_duplicates);
    w.field(REST_BASE_COUNTS, counts(b) != counts(c), |buf| {
        put_var(buf, c.base_accepted);
        put_var(buf, c.base_duplicates);
    });
    w.close();
}

/// Writes a slot vector (per-link channel state, the base station's
/// dedup table) whose shape rarely changes: `UPDATE` and the changed
/// `(index, value)` slots when the length held, else `REPLACE` and every
/// slot.
fn put_slots<T: PartialEq>(
    buf: &mut Vec<u8>,
    base: &[T],
    cur: &[T],
    put: impl Fn(&mut Vec<u8>, &T),
) {
    if base.len() == cur.len() {
        buf.put_u8(UPDATE);
        let moved = || base.iter().zip(cur).enumerate().filter(|(_, (b, c))| b != c);
        put_var_len(buf, moved().count());
        for (i, (_, c)) in moved() {
            put_var_len(buf, i);
            put(buf, c);
        }
    } else {
        buf.put_u8(REPLACE);
        put_var_len(buf, cur.len());
        for c in cur {
            put(buf, c);
        }
    }
}

fn put_link_counters_var(buf: &mut Vec<u8>, c: &LinkCounters) {
    for v in [c.frames, c.attempts, c.delivered, c.lost, c.duplicates] {
        put_var(buf, v);
    }
}

fn write_node_delta(
    buf: &mut Vec<u8>,
    base: &(NodeState, [u64; 4], u64),
    cur: &(NodeState, [u64; 4], u64),
) {
    assert_eq!(base.2, cur.2, "rng base seed is construction-time");
    let (b, c) = (&base.0, &cur.0);
    let mut w = Masked::open(buf);
    w.field(NODE_WINDOW, b.detector_window != c.detector_window, |buf| {
        put_var_len(buf, c.detector_window.len());
        for &vote in &c.detector_window {
            put_bool(buf, vote);
        }
    });
    let leds = |n: &NodeState| (n.led_green, n.led_red);
    w.field(NODE_LEDS, leds(b) != leds(c), |buf| {
        buf.put_u8(u8::from(c.led_green) | (u8::from(c.led_red) << 1));
    });
    w.field(NODE_ENERGY, b.energy_uj != c.energy_uj, |buf| buf.put_f64(c.energy_uj));
    w.field(NODE_BREAKDOWN, b.energy_breakdown != c.energy_breakdown, |buf| {
        let (samples, tx, rx, led, sleep) = c.energy_breakdown;
        for v in [samples, tx, rx, led, sleep] {
            put_var(buf, v);
        }
    });
    w.field(NODE_SEQ, b.next_seq != c.next_seq, |buf| buf.put_u16(c.next_seq));
    w.field(NODE_PEAK, b.window_peak_activation != c.window_peak_activation, |buf| {
        buf.put_f64(c.window_peak_activation);
    });
    let counts = |n: &NodeState| (n.windows_closed, n.reports_sent);
    w.field(NODE_COUNTS, counts(b) != counts(c), |buf| {
        put_var(buf, c.windows_closed);
        put_var(buf, c.reports_sent);
    });
    w.field(NODE_FAILED, b.failed != c.failed, |buf| put_bool(buf, c.failed));
    let flips = |n: &NodeState| (n.flip_false_positive, n.flip_false_negative);
    w.field(NODE_FLIPS, flips(b) != flips(c), |buf| {
        buf.put_f64(c.flip_false_positive);
        buf.put_f64(c.flip_false_negative);
    });
    w.field(NODE_SKEW, b.clock_skew_ms != c.clock_skew_ms, |buf| {
        put_var_i64(buf, c.clock_skew_ms);
    });
    w.field(NODE_RNG, base.1 != cur.1, |buf| put_words(buf, cur.1));
    w.close();
}

fn read_home_delta(r: &mut Reader<'_>, out: &mut HomeCheckpoint) -> Result<(), CheckpointError> {
    let mask = r.mask(DIRTY_ALL)?;
    let dirty = |bit| mask & bit != 0;
    if dirty(DIRTY_SYSTEMS) {
        fits(r.len()?, out.systems.len())?;
        for system in &mut out.systems {
            if r.opt()? {
                read_system_delta(r, system)?;
            }
        }
    }
    if dirty(DIRTY_TRACKER) {
        out.tracker = decode_tracker_slot(r)?;
    }
    if dirty(DIRTY_ROOT) {
        out.root = r.rng()?;
    }
    if dirty(DIRTY_SCHED) {
        out.sched = r.rng()?;
    }
    if dirty(DIRTY_EPISODE) {
        out.episode = decode_episode_slot(r)?;
    }
    if dirty(DIRTY_SCHEDULE) {
        out.ep_index = r.var()?;
        out.next_start = r.var_time()?;
        out.last_handled = if r.opt()? { Some(r.var_time()?) } else { None };
    }
    if dirty(DIRTY_STATS) {
        out.stats = decode_stats_var(r)?;
    }
    if dirty(DIRTY_PENDING) {
        out.pending.clear();
        for _ in 0..r.var_len()? {
            out.pending.push(r.var_time()?);
        }
    }
    if dirty(DIRTY_REC) {
        out.rec = decode_rec_slot(r)?;
    }
    Ok(())
}

fn read_system_delta(r: &mut Reader<'_>, out: &mut SystemState) -> Result<(), CheckpointError> {
    match r.u8()? {
        SAME => {}
        UPDATE => {
            // Copy-on-write: a table the base shares with other homes
            // (or other snapshots) splits off here, and only here.
            let l = Arc::make_mut(out.learned.as_mut().ok_or_else(|| shape_mismatch(0, 0))?);
            let n = r.len()?;
            read_updates(r, &mut l.values, n, Reader::len, Reader::f64)?;
            let n = r.len()?;
            read_updates(r, &mut l.visits, n, Reader::len, Reader::u64)?;
            l.traces = decode_traces(r)?;
            l.updates = r.u64()?;
            l.episodes_trained = r.u64()?;
        }
        REPLACE => out.learned = decode_learned(r)?.map(Arc::new),
        t => return Err(CheckpointError::CorruptTag(t)),
    }
    read_rest_delta(r, out)
}

fn read_rest_delta(r: &mut Reader<'_>, out: &mut SystemState) -> Result<(), CheckpointError> {
    let mask = r.mask(REST_ALL)?;
    let dirty = |bit| mask & bit != 0;
    if dirty(REST_SENSING) {
        out.sensing_current = if r.opt()? { Some(StepId::from_raw(r.u16()?)) } else { None };
        out.sensing_last_report = if r.opt()? { Some(r.var_time()?) } else { None };
    }
    if dirty(REST_HISTORY) {
        match r.u8()? {
            UPDATE => {}
            REPLACE => out.sensing_history.clear(),
            t => return Err(CheckpointError::CorruptTag(t)),
        }
        for _ in 0..r.var_len()? {
            let at = r.var_time()?;
            let step = StepId::from_raw(r.u16()?);
            out.sensing_history.push(StepEvent { at, step });
        }
    }
    if dirty(REST_NODES) {
        fits(r.var_len()?, out.nodes.len())?;
        for node in &mut out.nodes {
            if r.opt()? {
                read_node_delta(r, node)?;
            }
        }
    }
    if dirty(REST_NET_RNG) {
        out.net_rng.0 = r.words()?;
    }
    if dirty(REST_DOWNLINK_SEQ) {
        out.downlink_seq = r.u16()?;
    }
    if dirty(REST_CHANNELS) {
        read_slots(r, &mut out.channels, |r| {
            Ok((NodeId::new(r.u16()?), r.bool()?, r.var()?, r.var()?))
        })?;
    }
    if dirty(REST_UPLINK) {
        out.uplink = decode_link_counters_var(r)?;
    }
    if dirty(REST_DOWNLINK) {
        out.downlink = decode_link_counters_var(r)?;
    }
    if dirty(REST_BASE_SEQS) {
        read_slots(r, &mut out.base_last_seqs, |r| Ok((NodeId::new(r.u16()?), r.u16()?)))?;
    }
    if dirty(REST_BASE_COUNTS) {
        out.base_accepted = r.var()?;
        out.base_duplicates = r.var()?;
    }
    Ok(())
}

/// Reads a [`put_slots`] vector onto `out`.
fn read_slots<'a, T>(
    r: &mut Reader<'a>,
    out: &mut Vec<T>,
    get: impl Fn(&mut Reader<'a>) -> Result<T, CheckpointError>,
) -> Result<(), CheckpointError> {
    match r.u8()? {
        UPDATE => {
            let n = r.var_len()?;
            read_updates(r, out, n, Reader::var_len, get)
        }
        REPLACE => {
            out.clear();
            for _ in 0..r.var_len()? {
                out.push(get(r)?);
            }
            Ok(())
        }
        t => Err(CheckpointError::CorruptTag(t)),
    }
}

/// Overwrites `n` slots of `table`, each read as its index then its new
/// value; an index past the table is a shape error.
fn read_updates<'a, T>(
    r: &mut Reader<'a>,
    table: &mut [T],
    n: usize,
    index: impl Fn(&mut Reader<'a>) -> Result<usize, CheckpointError>,
    value: impl Fn(&mut Reader<'a>) -> Result<T, CheckpointError>,
) -> Result<(), CheckpointError> {
    let bound = table.len();
    for _ in 0..n {
        let i = index(r)?;
        let v = value(r)?;
        *table.get_mut(i).ok_or_else(|| shape_mismatch(i, bound))? = v;
    }
    Ok(())
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

fn read_node_delta(
    r: &mut Reader<'_>,
    out: &mut (NodeState, [u64; 4], u64),
) -> Result<(), CheckpointError> {
    let mask = r.mask(NODE_ALL)?;
    let dirty = |bit| mask & bit != 0;
    let n = &mut out.0;
    if dirty(NODE_WINDOW) {
        n.detector_window.clear();
        for _ in 0..r.var_len()? {
            n.detector_window.push(r.bool()?);
        }
    }
    if dirty(NODE_LEDS) {
        let packed = r.u8()?;
        if packed > 3 {
            return Err(CheckpointError::CorruptTag(packed));
        }
        (n.led_green, n.led_red) = (packed & 1 != 0, packed & 2 != 0);
    }
    if dirty(NODE_ENERGY) {
        n.energy_uj = r.f64()?;
    }
    if dirty(NODE_BREAKDOWN) {
        n.energy_breakdown = (r.var()?, r.var()?, r.var()?, r.var()?, r.var()?);
    }
    if dirty(NODE_SEQ) {
        n.next_seq = r.u16()?;
    }
    if dirty(NODE_PEAK) {
        n.window_peak_activation = r.f64()?;
    }
    if dirty(NODE_COUNTS) {
        n.windows_closed = r.var()?;
        n.reports_sent = r.var()?;
    }
    if dirty(NODE_FAILED) {
        n.failed = r.bool()?;
    }
    if dirty(NODE_FLIPS) {
        n.flip_false_positive = r.f64()?;
        n.flip_false_negative = r.f64()?;
    }
    if dirty(NODE_SKEW) {
        n.clock_skew_ms = r.var_i64()?;
    }
    if dirty(NODE_RNG) {
        out.1 = r.words()?;
    }
    Ok(())
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
            learned: Some(Arc::new(LearnedState {
                values: vec![0.5, -1.25, 3.0],
                visits: vec![1, 0, 9],
                traces: vec![(StateId::new(2), ActionId::new(1), 0.125)],
                updates: 42,
                episodes_trained: 150,
            })),
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
        let episode = LiveEpisode {
            phase: Phase::Misusing {
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
        let learned = Arc::make_mut(busy.systems[0].learned.as_mut().unwrap());
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

    /// Offset of system 0's learned-state tag in a home body: the dirty
    /// tag, the home mask, the system count and the system's tag precede
    /// it.
    const LEARNED_AT: usize = 1 + 2 + 4 + 1;

    #[test]
    fn unchanged_learned_state_costs_no_table_bytes() {
        let base = sample();
        let mut cur = evolved();
        // Undo the learned-state movement: only the rest of system 0 moved.
        cur.homes[0].systems[0].learned = base.homes[0].systems[0].learned.clone();
        let delta = delta_checkpoint(&base, &cur);
        let body = delta.homes[0].as_deref().expect("home 0 moved");
        assert_eq!(body[LEARNED_AT], SAME);
        // And sparse cell updates beat re-encoding the whole table: one
        // value cell and one visit cell, each behind a count of one.
        let sparse = delta_checkpoint(&base, &evolved());
        let body = sparse.homes[0].as_deref().expect("home 0 moved");
        let mut cells = vec![UPDATE];
        cells.put_u32(1);
        cells.put_u32(1);
        cells.put_f64(-0.75);
        cells.put_u32(1);
        cells.put_u32(2);
        cells.put_u64(10);
        assert!(body[LEARNED_AT..].starts_with(&cells), "expected sparse cells: {body:02x?}");
    }

    #[test]
    fn learned_shape_changes_fall_back_to_full_replacement() {
        let base = sample();
        let mut cur = evolved();
        Arc::make_mut(cur.homes[0].systems[0].learned.as_mut().unwrap()).values.push(9.0);
        let delta = delta_checkpoint(&base, &cur);
        let body = delta.homes[0].as_deref().expect("home 0 moved");
        assert_eq!(body[LEARNED_AT..LEARNED_AT + 2], [REPLACE, 1], "a present table, whole");
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
        // Diffing two larger-table copies yields a cell past the real
        // base's table; the fingerprint ignores table size.
        let grown = |mut s: MetroCheckpoint| {
            let learned = Arc::make_mut(s.homes[0].systems[0].learned.as_mut().unwrap());
            learned.values.resize(1000, 0.0);
            learned.visits.resize(1000, 0);
            s
        };
        let mut cur = grown(evolved());
        Arc::make_mut(cur.homes[0].systems[0].learned.as_mut().unwrap()).values[999] = 1.0;
        let delta = delta_checkpoint(&grown(sample()), &cur);
        let err = apply_delta(&sample(), &delta).unwrap_err();
        assert_eq!(err, CheckpointError::ShapeMismatch { index: 999, bound: 3 });
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

    /// `evolved()` with every other kind of delta field moved too: each
    /// node field, the sensing pair, a rewritten history, a channel slot,
    /// a longer dedup table, both link counters, the tracker and episode
    /// slots, the recorder (dropped in home 0, a small one added in home
    /// 1), trace entries, and a learned table that appears in home 1.
    fn churned() -> MetroCheckpoint {
        let mut cur = evolved();
        let busy = &mut cur.homes[0];
        let sys = &mut busy.systems[0];
        let learned = Arc::make_mut(sys.learned.as_mut().unwrap());
        learned.traces.push((StateId::new(0), ActionId::new(2), -0.5));
        sys.sensing_current = None;
        sys.sensing_last_report = Some(SimTime::from_secs(70));
        sys.sensing_history[0].step = StepId::from_raw(2);
        sys.sensing_history
            .push(StepEvent { at: SimTime::from_secs(71), step: StepId::from_raw(1) });
        sys.nodes[0].0 = NodeState {
            detector_window: vec![false],
            led_green: false,
            led_red: true,
            energy_uj: 2000.25,
            energy_breakdown: (11, 21, 31, 41, 51),
            next_seq: 8,
            window_peak_activation: 0.5,
            windows_closed: 12,
            reports_sent: 4,
            failed: true,
            flip_false_positive: 0.5,
            flip_false_negative: 0.25,
            clock_skew_ms: 125,
        };
        sys.nodes[0].1[2] ^= 0x77;
        sys.net_rng.0[1] ^= 3;
        sys.downlink_seq = 514;
        sys.channels[0].2 = 13;
        sys.uplink.frames = 2;
        sys.downlink.lost = 1;
        sys.base_last_seqs.push((NodeId::new(2), 1));
        busy.tracker = Some(ActiveSessionState {
            activity_idx: 0,
            last_report: SimTime::from_secs(72),
            saw_terminal: true,
            foreign_run: None,
        });
        busy.episode.as_mut().unwrap().1.phase =
            Phase::Frozen { since: SimTime::from_secs(60), resume_idx: 1 };
        busy.last_handled = None;
        busy.rec = None;
        let idle = &mut cur.homes[1];
        idle.systems[0].learned = Some(Arc::new(LearnedState {
            values: vec![1.0],
            visits: vec![2],
            traces: Vec::new(),
            updates: 3,
            episodes_trained: 4,
        }));
        idle.stats.pipeline_ticks = 17;
        idle.rec = Some(RecorderState {
            counters: vec![1, 2],
            stages: vec![(vec![3], 0, 1)],
            ring_cap: 2,
            ring: vec![TraceRecord {
                at: SimTime::from_secs(73),
                kind: TraceKind::Praised { latency_ms: 900 },
            }],
            ring_dropped: 0,
        });
        cur
    }

    /// The CRCD v1 bytes of two deltas as the per-field delta types wrote
    /// them, before diffing and encoding became one walk. Together with
    /// `tests/fixtures/metro_v1_900s.delta` they pin every delta path.
    #[test]
    fn delta_bytes_match_the_v1_encoding() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let evolved_v1 = concat!(
            "4352434401deadbeeff00dcafe57b3a80297c94ddf00000000000124f80000000000039447000000",
            "02000000b70100ef0000000101010000000100000001bfe800000000000000000001000000020000",
            "00000000000a0000000100000002000000013fc0000000000000000000000000002b000000000000",
            "009602000e0100000000000000005e000000000000000c000000000000000d000000000000000e00",
            "000000000000c8000000000000000f00000000000000100000000000000011000000000000003300",
            "000000000000c906e0c50801c8df020500040000000000000180f10400000001006345",
        );
        let churned_v1 = concat!(
            "4352434401deadbeeff00dcafe57b3a80297c94ddf00000000000124f80000000000039447000000",
            "02000001e60101ff0000000101010000000100000001bfe800000000000000000001000000020000",
            "00000000000a0000000200000002000000013fc00000000000000000000000000002bfe000000000",
            "0000000000000000002b000000000000009603ff0001f0a2040202e8070002d8aa040001010107ff",
            "010002409f4100000000000b151f293300083fe00000000000000c04013fe00000000000003fd000",
            "0000000000fa01000000000000000100000000000000020000000000000074000000000000000400",
            "0000000000000500000000000000050000000000000007000000000000000802020101000001010d",
            "0202020304050000000100020200010006000200010e010100000000000000000001194001000000",
            "00000000005e000000000000000c000000000000000d000000000000000e00000000000000c80000",
            "00000000000f00000000000000100000000000000011000000000000003300000000000000c90100",
            "00000002000000000000ea6000000001010000000101000000000000791800020101000000000000",
            "71480000000200000000000000013600000000000023280000000000000000000000000000000013",
            "00000000000000140000000000000015000000000000001600000000000000ca06e0c50800050004",
            "0000000000000180f104000000009301014100000001010201000000013ff0000000000000000000",
            "01000000000000000200000000000000000000000300000000000000040000000000000000000011",
            "01000000020000000000000001000000000000000200000001000000010000000000000003000000",
            "0000000000000000000000000100000002000000010000000000011d280900000384000000000000",
            "0000e228",
        );
        let delta = delta_checkpoint(&sample(), &evolved());
        assert_eq!(hex(&save_delta(&delta, 1)), evolved_v1);
        let delta = delta_checkpoint(&sample(), &churned());
        assert_eq!(hex(&save_delta(&delta, 1)), churned_v1);
        let back = load_delta(&save_delta(&delta, 1), 1).unwrap();
        assert_eq!(apply_delta(&sample(), &back).unwrap(), churned());
    }

    /// A manifest header claiming `homes` homes and holding none of them.
    fn claiming(magic: &[u8; 4], words: usize, homes: u32) -> Vec<u8> {
        let mut blob = magic.to_vec();
        blob.put_u8(VERSION);
        blob.resize(blob.len() + 8 * words, 0);
        blob.put_u32(homes);
        let crc = crc16(&blob);
        blob.put_u16(crc);
        blob
    }

    #[test]
    fn a_huge_snapshot_home_count_is_truncation_not_an_allocation() {
        let snapshot = claiming(MAGIC, 3, u32::MAX);
        assert_eq!(snapshot.len(), 35);
        assert_eq!(load_checkpoint(&snapshot, 1), Err(CheckpointError::Truncated { len: 0 }));
    }

    #[test]
    fn a_huge_delta_home_count_is_truncation_not_an_allocation() {
        let delta = claiming(DELTA_MAGIC, 4, u32::MAX);
        assert_eq!(delta.len(), 43);
        assert_eq!(load_delta(&delta, 1), Err(CheckpointError::Truncated { len: 0 }));
    }

    /// Zeroes the tool id at `at..at + 2` of the first run of `blob`
    /// matching `pattern`, and re-stamps the CRC.
    fn zero_tool(blob: &[u8], pattern: &[u8], at: usize) -> Vec<u8> {
        let mut bad = blob.to_vec();
        let start = bad.windows(pattern.len()).position(|w| w == pattern).expect("pattern");
        bad[start + at..start + at + 2].fill(0);
        let body = bad.len() - 2;
        let crc = crc16(&bad[..body]);
        bad[body..].copy_from_slice(&crc.to_be_bytes());
        bad
    }

    #[test]
    fn a_zero_tool_id_is_refused_not_panicking() {
        // `sample()`'s misusing phase: tag 1, tool 4, since 30 s, resume at 2.
        let misusing = [1, 0, 4, 0, 0, 0, 0, 0, 0, 0x75, 0x30, 0, 0, 0, 2];
        let snapshot = zero_tool(&save_checkpoint(&sample(), 1), &misusing, 1);
        assert_eq!(load_checkpoint(&snapshot, 1), Err(CheckpointError::CorruptTag(0)));
        // `churned()`'s pending prompt: tag 1, due 31 s, tool 2, specific.
        let prompt = [1, 0, 0, 0, 0, 0, 0, 0x79, 0x18, 0, 2, 1];
        let delta = save_delta(&delta_checkpoint(&sample(), &churned()), 1);
        let delta = load_delta(&zero_tool(&delta, &prompt, 9), 1).expect("framing is intact");
        assert_eq!(apply_delta(&sample(), &delta), Err(CheckpointError::CorruptTag(0)));
    }
}
