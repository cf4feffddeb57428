//! The serving loop: one [`coreda_core::metro::ServeSession`] per shard,
//! each home fronted by a byte-level [`Client`] connection.
//!
//! A [`Clock`] paces the wakes: each epoch window waits once for its
//! first due instant and holds only the wakes already servable, and a
//! wake's `Deliver`/`Escalate` frames are flushed as soon as the wake is
//! served, not with the home's next `Poll`.
//!
//! The server owns the simulation. Clients never advance state — their
//! `Report` frames only move a per-connection *watermark* the server
//! uses as flow-control metadata (late/stale/duplicate accounting).
//! That inversion is what makes the served path deterministic: under
//! the sim clock a served fleet is bit-identical to the batch
//! [`coreda_core::run`] at any worker count, no matter what the
//! transport does short of a hangup.

use std::time::Instant;

use coreda_core::escalation::{CareOutput, CarePolicy};
use coreda_core::fleet::FleetEngine;
use coreda_core::metro::{collect_served, FleetTooLarge, MetroConfig, ServeCtx, TraceOutput};
use coreda_core::wal::WalRecord;
use coreda_des::stats::Histogram;
use coreda_des::time::SimTime;
use coreda_des::{Clock, SimClock};

use crate::client::{Client, MoteClient};
use crate::wire::{encode_frame, try_decode, Frame};

/// Latency histogram shape shared by every shard so the fleet merge is
/// well-defined: `[0, 10 ms)` in 1 µs bins, measured in µs. Slower
/// deliveries land in the overflow count, which the load generator
/// prints next to the quantiles.
const LATENCY_LO_US: f64 = 0.0;
const LATENCY_HI_US: f64 = 10_000.0;
const LATENCY_BINS: usize = 10_000;

/// What the served pipeline observes beyond the simulation itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeOptions {
    /// Tap per-home event streams into the report (as
    /// [`coreda_core::RunSpec::record`]).
    pub record: bool,
    /// Run the per-home flight recorder (as
    /// [`coreda_core::RunSpec::trace`]).
    pub trace: bool,
    /// Run the caregiver escalation overlay: escalation lifecycle
    /// events ride the served path as `Escalate` frames, and the
    /// outcome carries the fleet care output.
    pub care: Option<CarePolicy>,
}

/// Wire-level accounting for a served run. Every counter is a pure
/// function of the frame streams, so under the sim clock the whole
/// struct is deterministic — which is what lets the load-generator
/// golden pin it byte-for-byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Client→server frames decoded.
    pub frames_in: u64,
    /// Server→client frames encoded.
    pub frames_out: u64,
    /// Client→server bytes received.
    pub bytes_in: u64,
    /// Server→client bytes sent.
    pub bytes_out: u64,
    /// `Hello` handshakes received.
    pub hellos: u64,
    /// `Welcome` acceptances sent.
    pub welcomes: u64,
    /// Handshakes rejected (wrong home or config digest).
    pub handshake_rejects: u64,
    /// `Poll` wake offers sent.
    pub polls: u64,
    /// `Report` frames received (including duplicates and stale ones).
    pub reports: u64,
    /// `Deliver` prompt frames sent.
    pub delivers: u64,
    /// `Escalate` caregiver frames sent.
    pub escalations: u64,
    /// `Bye` frames sent.
    pub byes_out: u64,
    /// Reports repeating the connection's last sequence number.
    pub dup_frames: u64,
    /// Reports older than one already accepted (reordering).
    pub stale_reports: u64,
    /// Wakes served before the home's watermark had caught up
    /// (delayed or missing reports — served anyway; reports are
    /// advisory).
    pub late_reports: u64,
    /// Client hangups (`Bye` received).
    pub disconnects: u64,
    /// Wakes consumed for disconnected homes without touching state.
    pub skipped_wakes: u64,
    /// Client→server buffers abandoned on a framing error.
    pub decode_errors: u64,
}

impl WireStats {
    /// Folds another shard's counters into this one.
    pub fn absorb(&mut self, other: &WireStats) {
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.hellos += other.hellos;
        self.welcomes += other.welcomes;
        self.handshake_rejects += other.handshake_rejects;
        self.polls += other.polls;
        self.reports += other.reports;
        self.delivers += other.delivers;
        self.escalations += other.escalations;
        self.byes_out += other.byes_out;
        self.dup_frames += other.dup_frames;
        self.stale_reports += other.stale_reports;
        self.late_reports += other.late_reports;
        self.disconnects += other.disconnects;
        self.skipped_wakes += other.skipped_wakes;
        self.decode_errors += other.decode_errors;
    }
}

/// A served fleet's merged result: the batch-identical simulation
/// output, the fleet-ordered delivery log, the wire accounting, and the
/// wall-clock delivery-latency histogram.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Report + telemetry, bit-identical to the batch run under the sim
    /// clock.
    pub output: TraceOutput,
    /// Every delivery, sorted `(at, home)` — the served counterpart of
    /// the batch run's event log ([`coreda_core::RunOutput::wal`]).
    pub log: Vec<WalRecord>,
    /// Wire-level counters across all shards.
    pub wire: WireStats,
    /// Delivery latency in µs, one sample per `Deliver`: from its wake's
    /// pop to the flush that hands it to the client.
    pub latency_us: Histogram,
    /// Escalation log + fleet analytics when [`ServeOptions::care`] was
    /// set — bit-identical to the batch overlay under the sim clock.
    pub care: Option<CareOutput>,
}

/// How a report's sequence number relates to the connection's advisory
/// watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportClass {
    /// A new report: the watermark may advance.
    Fresh,
    /// Repeats the last accepted sequence number.
    Dup,
    /// Older than one already accepted, or the `u32::MAX` sentinel.
    Stale,
}

/// Classifies a report against the connection's last accepted sequence
/// number. `u32::MAX` is reserved as a sentinel: a client whose counter
/// saturated there can emit it forever, and letting it advance the
/// watermark would make every later (wrapped or recovered) report look
/// stale — so a max-seq report is deterministically counted stale and
/// never moves the watermark, whatever `last_seq` holds.
#[must_use]
pub fn classify_report(last_seq: Option<u32>, seq: u32) -> ReportClass {
    if seq == u32::MAX {
        return ReportClass::Stale;
    }
    match last_seq {
        Some(last) if seq == last => ReportClass::Dup,
        Some(last) if seq < last => ReportClass::Stale,
        _ => ReportClass::Fresh,
    }
}

/// One home's connection state.
struct Conn<C> {
    client: C,
    /// Client→server bytes not yet decoded (whole or partial frames).
    inbound: Vec<u8>,
    /// Server→client bytes queued for the next flush.
    outbox: Vec<u8>,
    /// Highest report instant accepted; advisory flow-control metadata,
    /// never a state source.
    watermark: Option<SimTime>,
    last_seq: Option<u32>,
    disconnected: bool,
}

impl<C: Client> Conn<C> {
    /// Decodes everything decodable in `inbound`, updating counters and
    /// the watermark. A framing error abandons the rest of the buffer.
    fn drain(&mut self, home: u32, stats: &mut WireStats) {
        let mut offset = 0;
        loop {
            match try_decode(&self.inbound[offset..]) {
                Ok(Some((frame, used))) => {
                    offset += used;
                    stats.frames_in += 1;
                    stats.bytes_in += used as u64;
                    match frame {
                        Frame::Report { home: h, at, seq } => {
                            stats.reports += 1;
                            // A report under another home's id is stale
                            // here: it moves neither `last_seq` nor the
                            // watermark.
                            let class = (h == home).then(|| classify_report(self.last_seq, seq));
                            match class.unwrap_or(ReportClass::Stale) {
                                ReportClass::Dup => stats.dup_frames += 1,
                                ReportClass::Stale => stats.stale_reports += 1,
                                ReportClass::Fresh => {
                                    self.last_seq = Some(seq);
                                    if self.watermark.is_none_or(|w| at > w) {
                                        self.watermark = Some(at);
                                    }
                                }
                            }
                        }
                        Frame::Bye { .. } => {
                            if !self.disconnected {
                                self.disconnected = true;
                                stats.disconnects += 1;
                            }
                        }
                        Frame::Hello { .. } => stats.hellos += 1,
                        // Server-bound streams never carry these; count
                        // and ignore rather than crash the fleet.
                        Frame::Welcome { .. }
                        | Frame::Poll { .. }
                        | Frame::Deliver(_)
                        | Frame::Escalate(_) => {}
                    }
                }
                Ok(None) => {
                    self.inbound.drain(..offset);
                    return;
                }
                Err(_) => {
                    stats.decode_errors += 1;
                    self.inbound.clear();
                    return;
                }
            }
        }
    }

    /// Queues a server→client frame for the next flush.
    fn push(&mut self, frame: &Frame, stats: &mut WireStats) {
        let before = self.outbox.len();
        encode_frame(frame, &mut self.outbox);
        stats.frames_out += 1;
        stats.bytes_out += (self.outbox.len() - before) as u64;
    }

    /// Sends the outbox to the client and collects its response bytes.
    fn flush(&mut self) {
        let outbox = std::mem::take(&mut self.outbox);
        self.client.on_bytes(&outbox, &mut self.inbound);
        self.outbox = outbox;
        self.outbox.clear();
    }
}

/// Serves one shard of the fleet to completion.
fn serve_shard<C, F, K>(
    ctx: &ServeCtx,
    opts: &ServeOptions,
    make_client: &F,
    clock: &K,
    first_home: usize,
    count: usize,
) -> (coreda_core::metro::ServedShard, WireStats, Histogram)
where
    C: Client,
    F: Fn(u32, u64) -> C,
    K: Clock + Clone,
{
    let mut session = ctx.session(first_home, count, opts.record, opts.trace);
    let mut clock = clock.clone();
    let mut stats = WireStats::default();
    let mut latency = Histogram::new(LATENCY_LO_US, LATENCY_HI_US, LATENCY_BINS);
    let horizon_end = SimTime::ZERO + ctx.config().horizon;

    // Handshake every home: an empty flush elicits `Hello`, which must
    // echo the fleet's config digest — a client built against another
    // configuration is turned away before it sees a single wake.
    let mut conns: Vec<Conn<C>> = (0..count)
        .map(|i| {
            // Infallible: `ServeCtx::new` rejected any fleet whose ids
            // overflow u32 before a single session opened.
            let home = u32::try_from(first_home + i).expect("ServeCtx::new validated fleet size");
            let mut conn = Conn {
                client: make_client(home, ctx.digest()),
                inbound: Vec::new(),
                outbox: Vec::new(),
                watermark: None,
                last_seq: None,
                disconnected: false,
            };
            conn.flush();
            let mut probe = Vec::new();
            std::mem::swap(&mut probe, &mut conn.inbound);
            let accepted = match try_decode(&probe) {
                Ok(Some((Frame::Hello { home: h, digest }, used))) => {
                    stats.frames_in += 1;
                    stats.bytes_in += used as u64;
                    stats.hellos += 1;
                    used == probe.len() && h == home && digest == ctx.digest()
                }
                _ => false,
            };
            if accepted {
                stats.welcomes += 1;
                conn.push(&Frame::Welcome { home, at: SimTime::ZERO }, &mut stats);
            } else {
                stats.handshake_rejects += 1;
                conn.disconnected = true;
                conn.push(&Frame::Bye { home, at: SimTime::ZERO }, &mut stats);
                stats.byes_out += 1;
                conn.flush();
                conn.inbound.clear();
            }
            conn
        })
        .collect();

    // Epoch-tiled serving: wait for the next due instant, drain the
    // wakes the clock already lets through (a bounded near-instant
    // window), then walk each due home's wake chain contiguously.
    // Per-connection byte streams are per-home, so the cross-home
    // reorder inside a window never changes what any client sees — the
    // wire outcome is bit-identical to the instant-by-instant sweep (a
    // clock that never lets time run ahead makes every window a single
    // instant, and this loop degenerates to exactly that sweep).
    let mut due = Vec::new();
    let mut fresh = Vec::new();
    let mut escalations = Vec::new();
    while session.next_epoch_on(&mut due, &mut clock).is_some() {
        for &home in &due {
            let conn = &mut conns[home as usize - first_home];
            while let Some(now) = session.next_wake(home) {
                let popped = Instant::now();
                if conn.disconnected {
                    session.serve_wake(home, now, true, &mut fresh);
                    stats.skipped_wakes += 1;
                    continue;
                }
                // Offer the wake; the first flush also carries the
                // `Welcome`.
                stats.polls += 1;
                conn.push(&Frame::Poll { home, at: now }, &mut stats);
                conn.flush();
                conn.drain(home, &mut stats);
                if conn.disconnected {
                    // The hangup replaced this wake's report: consume
                    // the wake without touching state, freezing only
                    // this home.
                    session.serve_wake(home, now, true, &mut fresh);
                    stats.skipped_wakes += 1;
                    continue;
                }
                if conn.watermark.is_none_or(|w| w < now) {
                    // The report for this wake is missing or behind —
                    // delayed, reordered, or lost in transit. Reports
                    // are advisory, so the wake is served on time
                    // regardless.
                    stats.late_reports += 1;
                }
                session.serve_wake(home, now, false, &mut fresh);
                let delivers = fresh.len();
                for rec in fresh.drain(..) {
                    stats.delivers += 1;
                    conn.push(&Frame::Deliver(rec), &mut stats);
                }
                // Escalations the wake's records tripped ride the same
                // flush as their prompts, as `Escalate` frames.
                session.drain_care(home, &mut escalations);
                for ev in escalations.drain(..) {
                    stats.escalations += 1;
                    conn.push(&Frame::Escalate(ev), &mut stats);
                }
                // Hand them over now, not with the home's next `Poll`.
                // Any bytes the client answers with wait in `inbound`
                // for that `Poll`'s drain.
                if !conn.outbox.is_empty() {
                    let us = popped.elapsed().as_secs_f64() * 1e6;
                    for _ in 0..delivers {
                        latency.record(us);
                    }
                    conn.flush();
                }
            }
        }
    }

    // End the care fold at the horizon: caregiver acks/resolves still
    // due are delivered (home order) before the goodbyes go out.
    session.finish_care(&mut escalations);
    for ev in escalations.drain(..) {
        let conn = &mut conns[ev.home as usize - first_home];
        if conn.disconnected {
            continue;
        }
        stats.escalations += 1;
        conn.push(&Frame::Escalate(ev), &mut stats);
    }

    // Close every surviving connection and absorb any frames the
    // transport was still holding (a delayed report arriving with the
    // goodbye is late, not an error).
    for (i, conn) in conns.iter_mut().enumerate() {
        if conn.disconnected {
            continue;
        }
        let home = u32::try_from(first_home + i).expect("ServeCtx::new validated fleet size");
        conn.push(&Frame::Bye { home, at: horizon_end }, &mut stats);
        stats.byes_out += 1;
        conn.flush();
        conn.drain(home, &mut stats);
    }

    (session.finish(), stats, latency)
}

/// Serves the whole fleet: one session per [`ServeCtx::chunks`] shard,
/// spread over `cfg.jobs` workers, every home fronted by a fresh
/// `make_client(home, digest)` connection, wakes paced by `clock`.
///
/// Under [`SimClock`] the outcome's `output` and `log` are bit-identical
/// to the batch [`coreda_core::run`] of the same configuration with the
/// same taps and the log on — the equivalence `make ci` enforces.
#[must_use]
pub fn serve_fleet<C, F, K>(
    ctx: &ServeCtx,
    opts: &ServeOptions,
    make_client: &F,
    clock: &K,
) -> ServeOutcome
where
    C: Client,
    F: Fn(u32, u64) -> C + Sync,
    K: Clock + Clone + Sync,
{
    let engine = FleetEngine::new(ctx.config().jobs);
    let shards = engine.map(ctx.chunks(), |(first, count)| {
        serve_shard(ctx, opts, make_client, clock, first, count)
    });
    let mut wire = WireStats::default();
    let mut latency_us = Histogram::new(LATENCY_LO_US, LATENCY_HI_US, LATENCY_BINS);
    let mut served = Vec::with_capacity(shards.len());
    for (shard, stats, lat) in shards {
        served.push(shard);
        wire.absorb(&stats);
        latency_us.merge(&lat);
    }
    let (output, log, care) = collect_served(ctx.config(), served);
    ServeOutcome { output, log, wire, latency_us, care }
}

/// Serves `cfg` with faithful [`MoteClient`]s under the sim clock — the
/// deterministic served counterpart of [`coreda_core::run_scale`].
///
/// # Errors
///
/// [`FleetTooLarge`] when the fleet's home ids would overflow the wire
/// protocol's `u32` space — rejected here, at session setup, instead of
/// panicking mid-serve.
pub fn serve_scale(cfg: MetroConfig, opts: &ServeOptions) -> Result<ServeOutcome, FleetTooLarge> {
    let mut ctx = ServeCtx::new(cfg)?;
    if let Some(policy) = &opts.care {
        ctx = ctx.with_care(policy.clone());
    }
    Ok(serve_fleet(&ctx, opts, &MoteClient::new, &SimClock))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coreda_core::metro::{run, run_scale_care_walled, RunSpec, ScaleReport};
    use coreda_des::time::SimDuration;

    /// The batch run with the write-ahead log on.
    fn batch_walled(cfg: &MetroConfig) -> (ScaleReport, Vec<WalRecord>) {
        let out = run(cfg, &RunSpec { log: true, ..RunSpec::default() }).expect("fresh run");
        (out.report, out.wal)
    }

    fn cfg(homes: usize, jobs: usize) -> MetroConfig {
        MetroConfig {
            homes,
            jobs,
            horizon: SimDuration::from_secs(1_800),
            ..MetroConfig::default()
        }
    }

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
    fn served_fleet_matches_the_batch_run() {
        let (batch, wal) = batch_walled(&cfg(4, 2));
        let outcome = serve_scale(cfg(4, 2), &ServeOptions::default()).expect("fleet fits");
        assert_eq!(outcome.output.report, batch);
        assert_eq!(outcome.log, wal);
        assert_eq!(outcome.wire.delivers, wal.len() as u64);
        assert_eq!(outcome.wire.hellos, 4);
        assert_eq!(outcome.wire.welcomes, 4);
        assert_eq!(outcome.wire.byes_out, 4);
        assert_eq!(outcome.wire.handshake_rejects, 0);
        assert_eq!(outcome.wire.disconnects, 0);
        assert_eq!(outcome.wire.polls, outcome.wire.reports);
        assert_eq!(outcome.wire.late_reports, 0);
        assert_eq!(outcome.latency_us.total(), outcome.wire.delivers);
    }

    #[test]
    fn wire_accounting_is_deterministic() {
        let a = serve_scale(cfg(3, 2), &ServeOptions::default()).expect("fleet fits");
        let b = serve_scale(cfg(3, 2), &ServeOptions::default()).expect("fleet fits");
        assert_eq!(a.wire, b.wire);
    }

    #[test]
    fn served_care_overlay_matches_the_batch_overlay() {
        let config = cfg(4, 2);
        let (batch, wal, care) = run_scale_care_walled(&config, &eager_policy());
        let opts = ServeOptions { care: Some(eager_policy()), ..ServeOptions::default() };
        let outcome = serve_scale(config, &opts).expect("fleet fits");
        // The overlay is observation-only: the simulation itself is
        // untouched, and the care output is bit-identical to batch.
        assert_eq!(outcome.output.report, batch);
        assert_eq!(outcome.log, wal);
        let served_care = outcome.care.expect("care was requested");
        assert_eq!(served_care, care);
        assert!(!served_care.events.is_empty(), "eager policy must trip");
        // Every escalation event went out exactly once as a wire frame.
        assert_eq!(outcome.wire.escalations, served_care.events.len() as u64);
    }

    #[test]
    fn care_free_runs_send_no_escalate_frames() {
        let outcome = serve_scale(cfg(2, 1), &ServeOptions::default()).expect("fleet fits");
        assert_eq!(outcome.wire.escalations, 0);
        assert!(outcome.care.is_none());
    }

    #[test]
    fn oversized_fleets_error_instead_of_panicking_mid_serve() {
        let config = MetroConfig { homes: u32::MAX as usize + 2, ..cfg(2, 1) };
        let err = serve_scale(config, &ServeOptions::default()).expect_err("must reject");
        assert_eq!(err.homes, u32::MAX as usize + 2);
        let msg = err.to_string();
        assert!(msg.contains("u32"), "unexpected message: {msg}");
    }

    #[test]
    fn report_classification_pins_the_seq_extremes() {
        use ReportClass::*;
        assert_eq!(classify_report(None, 0), Fresh);
        assert_eq!(classify_report(Some(4), 5), Fresh);
        assert_eq!(classify_report(Some(5), 5), Dup);
        assert_eq!(classify_report(Some(5), 4), Stale);
        // The saturation sentinel never advances the watermark, from
        // any prior state — including a fresh connection.
        assert_eq!(classify_report(None, u32::MAX), Stale);
        assert_eq!(classify_report(Some(0), u32::MAX), Stale);
        assert_eq!(classify_report(Some(u32::MAX - 1), u32::MAX), Stale);
        // The largest admissible seq is still fresh.
        assert_eq!(classify_report(Some(7), u32::MAX - 1), Fresh);
    }

    /// Wraps the faithful client and logs every flush it receives,
    /// decoded, as `(home, frames)`.
    struct Recording<'a> {
        inner: MoteClient,
        home: u32,
        flushes: &'a std::sync::Mutex<Vec<(u32, Vec<Frame>)>>,
    }

    impl Client for Recording<'_> {
        fn on_bytes(&mut self, inbound: &[u8], out: &mut Vec<u8>) {
            let mut frames = Vec::new();
            let mut offset = 0;
            while let Some((frame, used)) = try_decode(&inbound[offset..]).expect("well-formed") {
                frames.push(frame);
                offset += used;
            }
            self.flushes.lock().expect("unpoisoned").push((self.home, frames));
            self.inner.on_bytes(inbound, out);
        }
    }

    /// A wake's prompts and escalations leave with the wake: each flush
    /// carrying a `Deliver`/`Escalate` comes right after the flush with
    /// its own wake's `Poll`, never riding along with a later `Poll`.
    /// Only the horizon's trailing escalations wait, for the `Bye`.
    #[test]
    fn deliveries_flush_right_after_their_own_wakes_poll() {
        let flushes = std::sync::Mutex::new(Vec::new());
        let make = |home, digest| Recording {
            inner: MoteClient::new(home, digest),
            home,
            flushes: &flushes,
        };
        let ctx = ServeCtx::new(cfg(4, 2)).expect("fleet fits").with_care(eager_policy());
        let opts = ServeOptions { care: Some(eager_policy()), ..ServeOptions::default() };
        let outcome = serve_fleet(&ctx, &opts, &make, &SimClock);
        let flushes = flushes.into_inner().expect("unpoisoned");
        let (mut delivers, mut escalates) = (0u64, 0u64);
        for home in 0..4 {
            // The `Poll` instant of the home's previous flush, if that
            // flush offered a wake.
            let mut polled: Option<SimTime> = None;
            for (_, frames) in flushes.iter().filter(|(h, _)| *h == home) {
                let poll = frames.iter().find_map(|f| match f {
                    Frame::Poll { at, .. } => Some(*at),
                    _ => None,
                });
                let closing = frames.iter().any(|f| matches!(f, Frame::Bye { .. }));
                for frame in frames {
                    match frame {
                        Frame::Deliver(rec) => {
                            delivers += 1;
                            assert_eq!(poll, None, "home {home}: {rec:?} rode a later Poll");
                            assert_eq!(polled, Some(rec.at), "home {home}: {rec:?} left late");
                        }
                        Frame::Escalate(ev) if !closing => {
                            escalates += 1;
                            assert_eq!(poll, None, "home {home}: {ev:?} rode a later Poll");
                            let wake = polled.expect("an Escalate follows its wake's Poll");
                            assert!(ev.at <= wake, "home {home}: {ev:?} after wake {wake:?}");
                        }
                        Frame::Escalate(_) => escalates += 1,
                        _ => {}
                    }
                }
                polled = poll;
            }
        }
        assert!(delivers > 0, "the run must deliver prompts");
        assert_eq!(delivers, outcome.wire.delivers);
        assert_eq!(escalates, outcome.wire.escalations);
        assert!(escalates > 0, "the eager policy must escalate");
    }

    /// The faithful client, sending every `Report` under its neighbour's
    /// home id.
    struct Impostor(MoteClient);

    impl Client for Impostor {
        fn on_bytes(&mut self, inbound: &[u8], out: &mut Vec<u8>) {
            let mut sent = Vec::new();
            self.0.on_bytes(inbound, &mut sent);
            let mut rest = &sent[..];
            while let Some((frame, used)) = try_decode(rest).expect("well-formed") {
                let frame = match frame {
                    Frame::Report { home, at, seq } => Frame::Report { home: home ^ 1, at, seq },
                    other => other,
                };
                encode_frame(&frame, out);
                rest = &rest[used..];
            }
        }
    }

    /// A foreign-id report neither crashes the server nor moves the
    /// watermark: it is stale, every wake is late, and the served output
    /// is still the batch run's.
    #[test]
    fn reports_under_a_foreign_home_id_are_stale() {
        let (batch, wal) = batch_walled(&cfg(4, 2));
        let ctx = ServeCtx::new(cfg(4, 2)).expect("fleet fits");
        let make = |home, digest| Impostor(MoteClient::new(home, digest));
        let outcome = serve_fleet(&ctx, &ServeOptions::default(), &make, &SimClock);
        assert_eq!((outcome.output.report, outcome.log), (batch, wal));
        assert!(outcome.wire.reports > 0, "the clients must report");
        assert_eq!(outcome.wire.stale_reports, outcome.wire.reports);
        assert_eq!(outcome.wire.late_reports, outcome.wire.polls);
    }

    #[test]
    fn digest_mismatch_is_turned_away_at_the_door() {
        let ctx = ServeCtx::new(cfg(2, 1)).expect("fleet fits");
        let outcome = serve_fleet(
            &ctx,
            &ServeOptions::default(),
            &|home, digest| MoteClient::new(home, digest ^ 1),
            &SimClock,
        );
        assert_eq!(outcome.wire.handshake_rejects, 2);
        assert_eq!(outcome.wire.welcomes, 0);
        assert_eq!(outcome.wire.polls, 0);
        // Every wake drains as skipped; nothing is ever delivered.
        assert_eq!(outcome.wire.delivers, 0);
        assert!(outcome.log.is_empty());
    }
}
