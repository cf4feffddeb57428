//! Write-ahead event log for metro-scale serving.
//!
//! A full fleet snapshot costs O(fleet) bytes no matter how little
//! happened; the write-ahead log is the other half of the durability
//! story — an append-only record of every *observable assistance-state
//! transition* (episode starts/ends, reminders, praises, session
//! events), costing O(activity) bytes. Quiet 100 ms pipeline ticks
//! append nothing: a home's quiet stretch is deterministically
//! re-derivable from the last snapshot, so logging it would record
//! entropy-free bytes. That definition also makes the record stream
//! independent of how often a home is woken (polling every 100 ms grid
//! instant observes the same transitions as event-driven wakes) and of
//! the worker count.
//!
//! The log is *not* replayed to reconstruct state — resume replays the
//! simulation itself from base + deltas, which is bit-exact by the
//! determinism guarantee. Instead the log serves two jobs:
//!
//! 1. **Verification**: a resumed run regenerates its log and
//!    cross-checks it against the stored tail
//!    ([`crate::metro::resume_scale_durable`]); any disagreement means
//!    the log and the snapshot chain belong to different histories.
//! 2. **Observability**: the per-home record stream is a caregiver-
//!    inspectable timeline of what the system did and when
//!    ([`render_home_timeline`], `trace --replay-home`).
//!
//! Framing follows the checkpoint house style (magic + version +
//! big-endian body + CRC-32C), adapted for append-friendly streams: the
//! body is a sequence of length-prefixed, individually CRC'd chunks of
//! up to [`CHUNK_RECORDS`] fixed-size records, and a whole-stream CRC-32C
//! trailer closes the file. Strict decoding ([`decode_wal`]) checks the
//! header, then verifies the trailer before reading a chunk, which
//! deterministically rejects every single-bit flip; tolerant decoding
//! ([`decode_wal_tolerant`]) walks intact chunks and stops at the first
//! torn one — what a resume does with the log a killed run left behind.

use bytes::{BufMut, Bytes, BytesMut};
use coreda_des::time::SimTime;
use coreda_sensornet::packet::crc32c;

use crate::checkpoint::CheckpointError;
use crate::sessions::SessionEvent;
use crate::system::WakeEvent;

/// Magic prefix of a write-ahead log stream.
pub const MAGIC: &[u8; 4] = b"CRWL";
/// Current format version (shared discipline with the checkpoint codec,
/// versioned independently). A log of any other version, 1 included, is
/// refused as [`CheckpointError::UnsupportedVersion`].
pub const VERSION: u8 = 2;
/// Fixed encoded size of one [`WalRecord`].
pub const RECORD_BYTES: usize = 20;
/// Records per CRC'd chunk: small enough that a torn tail loses at most
/// a few KB, large enough that framing overhead stays negligible.
pub const CHUNK_RECORDS: usize = 256;

/// Flag bit: a live episode began at this wake.
pub const EPISODE_STARTED: u8 = 1;
/// Flag bit: the running episode ended at this wake.
pub const EPISODE_ENDED: u8 = 1 << 1;
/// Flag bit: the episode that ended was completed by the patient.
pub const EPISODE_COMPLETED: u8 = 1 << 2;
/// [`WalRecord::act`] value meaning "no episode started here".
pub const NO_ACT: u8 = 0xFF;

/// One observable assistance-state transition: what one home's wake at
/// one instant did that a caregiver (or a resume verifier) can see.
/// Fixed [`RECORD_BYTES`] bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord {
    /// Instant of the wake.
    pub at: SimTime,
    /// Fleet-global home id.
    pub home: u32,
    /// Activity index of a started episode, [`NO_ACT`] otherwise.
    pub act: u8,
    /// [`EPISODE_STARTED`] / [`EPISODE_ENDED`] / [`EPISODE_COMPLETED`].
    pub flags: u8,
    /// Reminders issued at this wake.
    pub reminders: u8,
    /// Praises issued at this wake.
    pub praises: u8,
    /// Sessions the tracker opened at this wake.
    pub sessions_started: u8,
    /// Sessions closed with the terminal tool seen.
    pub sessions_completed: u8,
    /// Sessions closed without it.
    pub sessions_abandoned: u8,
    /// Foreign-tool-use flags raised.
    pub cross_activity: u8,
}

impl WalRecord {
    /// The record of `home`'s wake at `at` before any of its events
    /// folded in: trivial.
    pub(crate) fn quiet(at: SimTime, home: u32) -> WalRecord {
        WalRecord { at, home, act: NO_ACT, ..WalRecord::from_bytes(&[0; RECORD_BYTES]) }
    }

    /// Folds one of the wake's events into its record: an episode's
    /// start, end and completion set flags; reminders, praise and
    /// session events count, saturating at 255.
    pub(crate) fn fold(&mut self, ev: &WakeEvent) {
        let bump = |count: &mut u8| *count = count.saturating_add(1);
        match *ev {
            WakeEvent::EpisodeStarted { act, .. } => {
                self.flags |= EPISODE_STARTED;
                self.act = u8::try_from(act).unwrap_or(NO_ACT - 1);
            }
            WakeEvent::EpisodeEnded { .. } => self.flags |= EPISODE_ENDED,
            WakeEvent::Completed => self.flags |= EPISODE_COMPLETED,
            WakeEvent::Reminder { .. } => bump(&mut self.reminders),
            WakeEvent::Praised { .. } => bump(&mut self.praises),
            WakeEvent::Session(SessionEvent::Started { .. }) => bump(&mut self.sessions_started),
            WakeEvent::Session(SessionEvent::Ended { completed: true, .. }) => {
                bump(&mut self.sessions_completed);
            }
            WakeEvent::Session(SessionEvent::Ended { completed: false, .. }) => {
                bump(&mut self.sessions_abandoned);
            }
            WakeEvent::Session(SessionEvent::CrossActivityUse { .. }) => {
                bump(&mut self.cross_activity);
            }
            _ => {}
        }
    }

    /// A record carrying no transition at all — the serve loop never
    /// appends these.
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.flags == 0
            && self.reminders == 0
            && self.praises == 0
            && self.sessions_started == 0
            && self.sessions_completed == 0
            && self.sessions_abandoned == 0
            && self.cross_activity == 0
    }

    /// The record's fixed big-endian wire image — the same
    /// [`RECORD_BYTES`] layout the log stores, shared with the serve
    /// front end's delivery frames so the two codecs cannot drift.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; RECORD_BYTES] {
        let mut b = [0u8; RECORD_BYTES];
        b[0..8].copy_from_slice(&self.at.as_millis().to_be_bytes());
        b[8..12].copy_from_slice(&self.home.to_be_bytes());
        b[12] = self.act;
        b[13] = self.flags;
        b[14] = self.reminders;
        b[15] = self.praises;
        b[16] = self.sessions_started;
        b[17] = self.sessions_completed;
        b[18] = self.sessions_abandoned;
        b[19] = self.cross_activity;
        b
    }

    /// Inverse of [`WalRecord::to_bytes`]. Every byte pattern is a valid
    /// record — integrity is the enclosing codec's job (CRC'd chunks
    /// here, CRC'd frames on the wire).
    #[must_use]
    pub fn from_bytes(b: &[u8; RECORD_BYTES]) -> WalRecord {
        WalRecord {
            at: SimTime::from_millis(u64::from_be_bytes(b[0..8].try_into().expect("8 bytes"))),
            home: u32::from_be_bytes(b[8..12].try_into().expect("4 bytes")),
            act: b[12],
            flags: b[13],
            reminders: b[14],
            praises: b[15],
            sessions_started: b[16],
            sessions_completed: b[17],
            sessions_abandoned: b[18],
            cross_activity: b[19],
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.to_bytes());
    }

    fn decode(b: &[u8]) -> WalRecord {
        debug_assert_eq!(b.len(), RECORD_BYTES);
        WalRecord::from_bytes(b.try_into().expect("RECORD_BYTES slice"))
    }
}

/// What [`decode_wal_tolerant`] salvages from a (possibly torn) log.
#[derive(Debug, Clone, PartialEq)]
pub struct WalTail {
    /// Config digest stored in the header.
    pub digest: u64,
    /// Records from every intact chunk, in stored order.
    pub records: Vec<WalRecord>,
    /// Bytes of the blob covered by the header and intact chunks — where
    /// an appending writer would resume.
    pub valid_bytes: usize,
}

/// Fixed stream header: magic + version + config digest.
pub const HEADER_BYTES: usize = 4 + 1 + 8;

/// Bytes of a CRC-32C, after each chunk and at the end of the stream.
const CRC_BYTES: usize = 4;

/// Serialises a record stream: header, [`CHUNK_RECORDS`]-record CRC'd
/// chunks, whole-stream CRC trailer.
#[must_use]
pub fn encode_wal(digest: u64, records: &[WalRecord]) -> Bytes {
    let mut buf =
        BytesMut::with_capacity(HEADER_BYTES + records.len() * (RECORD_BYTES + 1) + CRC_BYTES);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64(digest);
    for chunk in records.chunks(CHUNK_RECORDS) {
        let mut payload = BytesMut::with_capacity(chunk.len() * RECORD_BYTES);
        for r in chunk {
            r.encode(&mut payload);
        }
        buf.put_u32(u32::try_from(payload.len()).expect("chunks are bounded"));
        let crc = crc32c(&payload);
        buf.put_slice(&payload);
        buf.put_u32(crc);
    }
    let crc = crc32c(&buf);
    buf.put_u32(crc);
    buf.freeze()
}

fn decode_header(blob: &[u8]) -> Result<u64, CheckpointError> {
    if blob.len() < HEADER_BYTES {
        return Err(CheckpointError::Truncated { len: blob.len() });
    }
    let magic: [u8; 4] = blob[0..4].try_into().expect("4 bytes");
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic(magic));
    }
    if blob[4] != VERSION {
        return Err(CheckpointError::UnsupportedVersion(blob[4]));
    }
    Ok(u64::from_be_bytes(blob[5..13].try_into().expect("8 bytes")))
}

/// Walks one chunk at `blob[offset..]`. Returns the offset past the
/// chunk, or `None` if the chunk is torn, mis-sized, or CRC-damaged.
fn walk_chunk(blob: &[u8], offset: usize, records: &mut Vec<WalRecord>) -> Option<usize> {
    let rest = &blob[offset..];
    if rest.len() < 4 {
        return None;
    }
    let len = u32::from_be_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
    if !len.is_multiple_of(RECORD_BYTES) || len > CHUNK_RECORDS * RECORD_BYTES {
        return None;
    }
    let end = 4 + len + CRC_BYTES;
    if rest.len() < end {
        return None;
    }
    let payload = &rest[4..4 + len];
    let stored = u32::from_be_bytes(rest[4 + len..end].try_into().expect("4 bytes"));
    if crc32c(payload) != stored {
        return None;
    }
    records.extend(payload.chunks_exact(RECORD_BYTES).map(WalRecord::decode));
    Some(offset + end)
}

/// Strict decode of a complete log: after the header's magic and
/// version, the whole-stream CRC trailer is verified before any chunk is
/// read, so every single-bit flip anywhere in the blob is rejected
/// deterministically (per-chunk CRCs alone would miss flips in the
/// length prefixes only probabilistically). Returns the stored config
/// digest and every record.
///
/// # Errors
///
/// [`CheckpointError::Truncated`] / [`CheckpointError::BadMagic`] /
/// [`CheckpointError::UnsupportedVersion`] (a version 1 log included) /
/// [`CheckpointError::BadCrc`] on a malformed or damaged stream.
pub fn decode_wal(blob: &[u8]) -> Result<(u64, Vec<WalRecord>), CheckpointError> {
    let digest = decode_header(blob)?;
    if blob.len() < HEADER_BYTES + CRC_BYTES {
        return Err(CheckpointError::Truncated { len: blob.len() });
    }
    let (body, trailer) = blob.split_at(blob.len() - CRC_BYTES);
    let expected = u32::from_be_bytes(trailer.try_into().expect("4 bytes"));
    let actual = crc32c(body);
    if expected != actual {
        return Err(CheckpointError::BadCrc { expected, actual });
    }
    let mut records = Vec::new();
    let mut offset = HEADER_BYTES;
    while offset < body.len() {
        offset = walk_chunk(body, offset, &mut records)
            .ok_or(CheckpointError::Truncated { len: body.len() - offset })?;
    }
    Ok((digest, records))
}

/// Tolerant decode of a possibly torn log — what a resume does with the
/// file a killed run left mid-append. The header must be intact; after
/// it, every chunk that is complete and CRC-clean contributes its
/// records, and the walk stops at the first torn or damaged chunk
/// (discarding it and everything after). The whole-stream trailer is
/// ignored: a torn file usually has none.
///
/// # Errors
///
/// Only header damage errors ([`CheckpointError::Truncated`],
/// [`CheckpointError::BadMagic`],
/// [`CheckpointError::UnsupportedVersion`], a version 1 log included) —
/// body damage shortens the result instead of failing it.
pub fn decode_wal_tolerant(blob: &[u8]) -> Result<WalTail, CheckpointError> {
    let digest = decode_header(blob)?;
    let mut records = Vec::new();
    let mut offset = HEADER_BYTES;
    while let Some(next) = walk_chunk(blob, offset, &mut records) {
        offset = next;
    }
    Ok(WalTail { digest, records, valid_bytes: offset })
}

/// Renders one home's logged transitions as a human-readable timeline —
/// the time-travel replay behind `trace --replay-home`. Deterministic:
/// depends only on the record stream.
#[must_use]
pub fn render_home_timeline(records: &[WalRecord], home: u32) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut logged = 0usize;
    for r in records.iter().filter(|r| r.home == home) {
        logged += 1;
        let mut parts: Vec<String> = Vec::new();
        if r.flags & EPISODE_STARTED != 0 {
            parts.push(format!("episode started (activity {})", r.act));
        }
        for (count, label) in [
            (r.reminders, "reminder"),
            (r.praises, "praise"),
            (r.sessions_started, "session opened"),
            (r.sessions_completed, "session completed"),
            (r.sessions_abandoned, "session abandoned"),
            (r.cross_activity, "cross-activity flag"),
        ] {
            match count {
                0 => {}
                1 => parts.push(label.to_string()),
                n => parts.push(format!("{label} x{n}")),
            }
        }
        if r.flags & EPISODE_ENDED != 0 {
            parts.push(if r.flags & EPISODE_COMPLETED != 0 {
                "episode completed".to_string()
            } else {
                "episode ended incomplete".to_string()
            });
        }
        let secs = r.at.as_millis() as f64 / 1000.0;
        let _ = writeln!(out, "  {secs:>10.1}s  {}", parts.join(", "));
    }
    let _ = writeln!(out, "home {home}: {logged} logged transitions");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records(n: usize) -> Vec<WalRecord> {
        (0..n)
            .map(|i| WalRecord {
                at: SimTime::from_millis(100 * (i as u64 + 1)),
                home: (i % 7) as u32,
                act: if i % 3 == 0 { 0 } else { NO_ACT },
                flags: match i % 4 {
                    0 => EPISODE_STARTED,
                    1 => 0,
                    2 => EPISODE_ENDED | EPISODE_COMPLETED,
                    _ => EPISODE_ENDED,
                },
                reminders: (i % 2) as u8,
                praises: (i % 5 == 0) as u8,
                sessions_started: (i % 4 == 1) as u8,
                sessions_completed: 0,
                sessions_abandoned: (i % 6 == 5) as u8,
                cross_activity: 0,
            })
            .collect()
    }

    #[test]
    fn round_trip_is_exact_across_chunk_boundaries() {
        for n in [0, 1, CHUNK_RECORDS - 1, CHUNK_RECORDS, CHUNK_RECORDS + 1, 1000] {
            let records = sample_records(n);
            let blob = encode_wal(0xABCD, &records);
            let (digest, back) = decode_wal(&blob).unwrap();
            assert_eq!(digest, 0xABCD, "n={n}");
            assert_eq!(back, records, "n={n}");
            // Tolerant decode of an intact stream salvages everything.
            let tail = decode_wal_tolerant(&blob).unwrap();
            assert_eq!(tail.records, records, "n={n}");
            assert_eq!(tail.valid_bytes, blob.len() - CRC_BYTES, "n={n}");
        }
    }

    #[test]
    fn strict_decode_rejects_every_single_bit_flip() {
        let blob = encode_wal(7, &sample_records(40)).to_vec();
        for i in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[i] ^= 1 << bit;
                assert!(decode_wal(&bad).is_err(), "flipping byte {i} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn truncation_is_rejected_strictly_and_salvaged_tolerantly() {
        let records = sample_records(3 * CHUNK_RECORDS);
        let blob = encode_wal(7, &records);
        // Cut mid-way through the second chunk.
        let chunk_bytes = 4 + CHUNK_RECORDS * RECORD_BYTES + CRC_BYTES;
        let cut = 13 + chunk_bytes + chunk_bytes / 2;
        let torn = &blob[..cut];
        assert!(decode_wal(torn).is_err(), "strict decode must reject a torn stream");
        let tail = decode_wal_tolerant(torn).unwrap();
        assert_eq!(tail.records, records[..CHUNK_RECORDS], "only the intact chunk survives");
        assert_eq!(tail.valid_bytes, 13 + chunk_bytes);
        // A corrupt mid-chunk also stops the tolerant walk there.
        let mut bad = blob.to_vec();
        bad[13 + chunk_bytes + 10] ^= 1;
        let tail = decode_wal_tolerant(&bad).unwrap();
        assert_eq!(tail.records, records[..CHUNK_RECORDS]);
    }

    #[test]
    fn header_damage_fails_even_tolerant_decode() {
        let blob = encode_wal(7, &sample_records(5)).to_vec();
        assert!(matches!(
            decode_wal_tolerant(&blob[..10]),
            Err(CheckpointError::Truncated { .. })
        ));
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(matches!(decode_wal_tolerant(&bad), Err(CheckpointError::BadMagic(_))));
        let mut bad = blob;
        bad[4] = 99;
        assert!(matches!(
            decode_wal_tolerant(&bad),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn a_version_1_log_is_refused_before_its_checksum() {
        // Version 1 closed chunks and stream with a CRC-16; the version
        // byte refuses it before either check reads a checksum.
        let mut v1 = encode_wal(7, &sample_records(3)).to_vec();
        v1[4] = 1;
        v1.truncate(v1.len() - 2);
        assert_eq!(decode_wal(&v1), Err(CheckpointError::UnsupportedVersion(1)));
        assert_eq!(decode_wal_tolerant(&v1), Err(CheckpointError::UnsupportedVersion(1)));
    }

    #[test]
    fn empty_log_is_valid_and_tiny() {
        let blob = encode_wal(1, &[]);
        assert_eq!(blob.len(), HEADER_BYTES + CRC_BYTES);
        assert_eq!(decode_wal(&blob).unwrap(), (1, Vec::new()));
    }

    #[test]
    fn timeline_reads_well() {
        let records = vec![
            WalRecord {
                at: SimTime::from_millis(61_500),
                home: 3,
                act: 1,
                flags: EPISODE_STARTED,
                reminders: 0,
                praises: 0,
                sessions_started: 1,
                sessions_completed: 0,
                sessions_abandoned: 0,
                cross_activity: 0,
            },
            WalRecord {
                at: SimTime::from_millis(65_200),
                home: 3,
                act: NO_ACT,
                flags: 0,
                reminders: 2,
                praises: 0,
                sessions_started: 0,
                sessions_completed: 0,
                sessions_abandoned: 0,
                cross_activity: 0,
            },
            WalRecord {
                at: SimTime::from_millis(90_000),
                home: 4, // other home: filtered out
                act: NO_ACT,
                flags: EPISODE_ENDED,
                reminders: 0,
                praises: 0,
                sessions_started: 0,
                sessions_completed: 0,
                sessions_abandoned: 0,
                cross_activity: 0,
            },
            WalRecord {
                at: SimTime::from_millis(99_900),
                home: 3,
                act: NO_ACT,
                flags: EPISODE_ENDED | EPISODE_COMPLETED,
                reminders: 0,
                praises: 1,
                sessions_started: 0,
                sessions_completed: 1,
                sessions_abandoned: 0,
                cross_activity: 0,
            },
        ];
        let text = render_home_timeline(&records, 3);
        assert!(text.contains("episode started (activity 1)"), "{text}");
        assert!(text.contains("reminder x2"), "{text}");
        assert!(text.contains("praise, session completed, episode completed"), "{text}");
        assert!(text.contains("home 3: 3 logged transitions"), "{text}");
        assert!(!text.contains("90.0s"), "other homes' records must be filtered: {text}");
    }
}
