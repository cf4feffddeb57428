//! `served_wall`: `serve_fleet` with timed `MoteClient`s over the
//! in-process transport, paced open-loop on a `WallClock` at a fixed
//! speed-up, flight recorder and default `CarePolicy` on. The fleet fits
//! in L3 and the offered load is about 40 % of the unpaced served
//! capacity, so lateness stays well clear of the saturation knee.
//!
//! The traced run uses [`mirror_serve`], which repeats `serve_shard`
//! call for call with a span around each call, and must reproduce
//! `serve_fleet`'s outputs and `WireStats`.

use coreda_core::escalation::{CareEvent, CareOutput, CarePolicy};
use coreda_core::metro::{
    collect_served, run_scale_care_walled, MetroConfig, ServeCtx, TraceOutput,
};
use coreda_core::telemetry::Ctr;
use coreda_core::wal::{encode_wal, WalRecord};
use coreda_des::time::{SimDuration, SimTime};
use coreda_des::{Clock, WallClock};
use coreda_serve::wire::{encode_frame, try_decode, Frame};
use coreda_serve::{
    classify_report, serve_fleet, Client, MoteClient, ReportClass, ServeOptions, WireStats,
};

use crate::batch::{trace_cost, wake_ledger};
use crate::client::{Received, Sink, TimedClient};
use crate::ledger::{Kind, Tracer};
use crate::measure::{peak_rss_mb, quantile, spread_samples, timed};
use crate::report::Report;

pub const HOMES: usize = 2_000;
/// Simulated time runs this many times faster than the wall clock.
pub const SPEEDUP: f64 = 36.0;

pub fn config(seed: u64, seconds: u64) -> MetroConfig {
    let sim_secs = (SPEEDUP as u64) * seconds;
    MetroConfig {
        homes: HOMES,
        horizon: SimDuration::from_secs(sim_secs),
        seed,
        jobs: 1,
        ..MetroConfig::default()
    }
}

fn options() -> ServeOptions {
    ServeOptions {
        record: false,
        trace: true,
        care: Some(CarePolicy::default()),
    }
}

fn context(cfg: &MetroConfig) -> ServeCtx {
    ServeCtx::new(cfg.clone())
        .expect("benchmark fleets fit the wire id space")
        .with_care(CarePolicy::default())
}

/// One home's connection, as `serve_shard` keeps it.
struct Conn<C> {
    client: C,
    inbound: Vec<u8>,
    outbox: Vec<u8>,
    watermark: Option<SimTime>,
    last_seq: Option<u32>,
    disconnected: bool,
}

impl<C: Client> Conn<C> {
    fn drain(&mut self, stats: &mut WireStats, tr: &mut Tracer) {
        tr.enter(Kind::Decode);
        let mut offset = 0;
        loop {
            match try_decode(&self.inbound[offset..]) {
                Ok(Some((frame, used))) => {
                    offset += used;
                    stats.frames_in += 1;
                    stats.bytes_in += used as u64;
                    match frame {
                        Frame::Report { at, seq, .. } => {
                            stats.reports += 1;
                            match classify_report(self.last_seq, seq) {
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
                        Frame::Welcome { .. }
                        | Frame::Poll { .. }
                        | Frame::Deliver(_)
                        | Frame::Escalate(_) => {}
                    }
                }
                Ok(None) => {
                    self.inbound.drain(..offset);
                    break;
                }
                Err(_) => {
                    stats.decode_errors += 1;
                    self.inbound.clear();
                    break;
                }
            }
        }
        tr.bytes[Kind::Decode as usize] += offset as u64;
        tr.exit();
    }

    fn push(&mut self, frame: &Frame, stats: &mut WireStats, tr: &mut Tracer) {
        let before = self.outbox.len();
        tr.span(Kind::Encode, || encode_frame(frame, &mut self.outbox));
        stats.frames_out += 1;
        stats.bytes_out += (self.outbox.len() - before) as u64;
        tr.bytes[Kind::Encode as usize] += (self.outbox.len() - before) as u64;
    }

    fn flush(&mut self, tr: &mut Tracer) {
        let outbox = std::mem::take(&mut self.outbox);
        tr.span(Kind::Flush, || {
            self.client.on_bytes(&outbox, &mut self.inbound)
        });
        self.outbox = outbox;
        self.outbox.clear();
    }
}

/// `serve_shard`'s handshake: an empty flush elicits `Hello`, which must
/// echo the fleet's digest; the home is welcomed or turned away.
fn handshake<C: Client>(
    ctx: &ServeCtx,
    make_client: &impl Fn(u32, u64) -> C,
    stats: &mut WireStats,
    tr: &mut Tracer,
) -> Vec<Conn<C>> {
    tr.enter(Kind::Handshake);
    let conns = (0..ctx.config().homes)
        .map(|i| {
            let home = u32::try_from(i).expect("ServeCtx::new validated fleet size");
            let mut conn = Conn {
                client: make_client(home, ctx.digest()),
                inbound: Vec::new(),
                outbox: Vec::new(),
                watermark: None,
                last_seq: None,
                disconnected: false,
            };
            conn.flush(tr);
            let probe = std::mem::take(&mut conn.inbound);
            let accepted = match tr.span(Kind::Decode, || try_decode(&probe)) {
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
                conn.push(
                    &Frame::Welcome {
                        home,
                        at: SimTime::ZERO,
                    },
                    stats,
                    tr,
                );
            } else {
                stats.handshake_rejects += 1;
                conn.disconnected = true;
                conn.push(
                    &Frame::Bye {
                        home,
                        at: SimTime::ZERO,
                    },
                    stats,
                    tr,
                );
                stats.byes_out += 1;
                conn.flush(tr);
                conn.inbound.clear();
            }
            conn
        })
        .collect();
    tr.exit();
    conns
}

/// What the mirrored serve produced.
pub struct Mirrored {
    pub out: TraceOutput,
    pub log: Vec<WalRecord>,
    pub care: Option<CareOutput>,
    pub wire: WireStats,
}

/// `serve_fleet` for one shard (`jobs = 1`), call for call as
/// `serve_shard` makes them, with a span around each call.
pub fn mirror_serve<C: Client>(
    ctx: &ServeCtx,
    opts: &ServeOptions,
    make_client: &impl Fn(u32, u64) -> C,
    clock: &mut impl Clock,
    tr: &mut Tracer,
) -> Mirrored {
    let homes = ctx.config().homes;
    let mut session = tr.span(Kind::SetupArena, || {
        ctx.session(0, homes, opts.record, opts.trace)
    });
    let mut stats = WireStats::default();
    let horizon_end = SimTime::ZERO + ctx.config().horizon;
    let mut conns = handshake(ctx, make_client, &mut stats, tr);

    let mut due = Vec::new();
    let mut fresh = Vec::new();
    let mut escalations: Vec<CareEvent> = Vec::new();
    loop {
        tr.enter(Kind::Epoch);
        if tr
            .span(Kind::Drain, || session.next_epoch(&mut due))
            .is_none()
        {
            tr.exit();
            break;
        }
        for &home in &due {
            let conn = &mut conns[home as usize];
            loop {
                tr.enter(Kind::Chain);
                let next = session.next_wake(home);
                tr.set_wake(next.map(|now| (home, now.as_millis())));
                tr.exit();
                let Some(now) = next else { break };
                tr.span(Kind::Wait, || clock.wait_until(now));
                if conn.disconnected {
                    tr.span(Kind::Wake, || {
                        session.serve_wake(home, now, true, &mut fresh)
                    });
                    stats.skipped_wakes += 1;
                    continue;
                }
                stats.polls += 1;
                conn.push(&Frame::Poll { home, at: now }, &mut stats, tr);
                conn.flush(tr);
                conn.drain(&mut stats, tr);
                if conn.disconnected {
                    tr.span(Kind::Wake, || {
                        session.serve_wake(home, now, true, &mut fresh)
                    });
                    stats.skipped_wakes += 1;
                    continue;
                }
                if conn.watermark.is_none_or(|w| w < now) {
                    stats.late_reports += 1;
                }
                tr.span(Kind::Wake, || {
                    session.serve_wake(home, now, false, &mut fresh)
                });
                for rec in fresh.drain(..) {
                    stats.delivers += 1;
                    conn.push(&Frame::Deliver(rec), &mut stats, tr);
                }
                tr.span(Kind::Care, || session.drain_care(home, &mut escalations));
                for ev in escalations.drain(..) {
                    stats.escalations += 1;
                    conn.push(&Frame::Escalate(ev), &mut stats, tr);
                }
            }
        }
        fresh.clear();
        tr.exit();
    }

    tr.span(Kind::Care, || session.finish_care(&mut escalations));
    for ev in escalations.drain(..) {
        let conn = &mut conns[ev.home as usize];
        if conn.disconnected {
            continue;
        }
        stats.escalations += 1;
        conn.push(&Frame::Escalate(ev), &mut stats, tr);
    }
    for (i, conn) in conns.iter_mut().enumerate() {
        if conn.disconnected {
            continue;
        }
        let home = u32::try_from(i).expect("ServeCtx::new validated fleet size");
        conn.push(
            &Frame::Bye {
                home,
                at: horizon_end,
            },
            &mut stats,
            tr,
        );
        stats.byes_out += 1;
        conn.flush(tr);
        conn.drain(&mut stats, tr);
    }
    drop(conns);
    let (out, log, care) = tr.span(Kind::Merge, || {
        collect_served(ctx.config(), vec![session.finish()])
    });
    Mirrored {
        out,
        log,
        care,
        wire: stats,
    }
}

/// Set-up of a served fleet: context, session and every handshake.
fn setup_once(cfg: &MetroConfig) -> f64 {
    let mut untraced = Tracer::off();
    let t0 = std::time::Instant::now();
    let ctx = context(cfg);
    let session = ctx.session(0, cfg.homes, false, true);
    let mut stats = WireStats::default();
    let conns = handshake(&ctx, &MoteClient::new, &mut stats, &mut untraced);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        stats.welcomes, cfg.homes as u64,
        "set-up handshakes must all succeed"
    );
    drop((conns, session));
    secs
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Sorted latencies with undelivered frames appended as infinitely late.
fn with_missing(mut ns: Vec<f64>, missing: u64) -> Vec<f64> {
    ns.extend(std::iter::repeat_n(
        f64::INFINITY,
        usize::try_from(missing).expect("fits"),
    ));
    ns.sort_by(f64::total_cmp);
    ns
}

/// Checks the clients' view against the server's accounting and logs.
fn check_wire(
    r: &mut Report,
    what: &str,
    rx: &mut Received,
    wire: &WireStats,
    log: &[WalRecord],
    care: &[CareEvent],
) {
    let pairs = [
        ("welcomes", rx.welcomes, wire.welcomes),
        ("polls", rx.polls, wire.polls),
        ("delivers", rx.delivers, wire.delivers),
        ("escalates", rx.escalates, wire.escalations),
        ("byes", rx.byes, wire.byes_out),
        ("frames", rx.frames_in, wire.frames_out),
        ("bytes server->client", rx.bytes_in, wire.bytes_out),
        ("bytes client->server", rx.bytes_out, wire.bytes_in),
    ];
    let bad: Vec<String> = pairs
        .iter()
        .filter(|(_, a, b)| a != b)
        .map(|(n, a, b)| format!("{n}: client {a} vs server {b}"))
        .collect();
    r.check(
        &format!("{what}: client-received counts equal WireStats"),
        bad.is_empty(),
        bad.join("; "),
    );
    r.check(
        &format!("{what}: polls == reports"),
        wire.polls == wire.reports,
        format!("{} vs {}", wire.polls, wire.reports),
    );
    rx.delivered.sort_unstable_by_key(|d| (d.at, d.home));
    r.check(
        &format!("{what}: every Deliver arrives exactly once"),
        rx.delivered == log,
        format!("{} received, {} logged", rx.delivered.len(), log.len()),
    );
    rx.escalated.sort_unstable_by_key(|e| (e.at, e.home, e.seq));
    r.check(
        &format!("{what}: every Escalate arrives exactly once"),
        rx.escalated == care,
        format!("{} received, {} logged", rx.escalated.len(), care.len()),
    );
    let faults = wire.handshake_rejects
        + wire.decode_errors
        + wire.skipped_wakes
        + wire.late_reports
        + wire.disconnects;
    r.check(
        &format!("{what}: no rejects, decode errors, skips or late reports"),
        faults == 0 && rx.decode_errors == 0 && rx.unmatched == 0,
        format!(
            "{faults} server faults, {} client decode errors, {} unmatched",
            rx.decode_errors, rx.unmatched
        ),
    );
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let cfg = config(seed, seconds);
    let mut r = Report::new(format!(
        "perfbench served_wall: serve_fleet, {} homes x {} s simulated, jobs=1, in-process transport, \
         open loop on a WallClock at {SPEEDUP}x, recorder + default CarePolicy on, seed {seed}",
        cfg.homes,
        cfg.horizon.as_millis() / 1000
    ));
    // Set-ups (~12 ms each) run first, in the fresh process.
    let setups = spread_samples(|| setup_once(&cfg));
    let opts = options();
    let ctx = context(&cfg);
    let sink = Sink::new(Received::new());
    let clock = WallClock::with_speedup(SPEEDUP);
    let make = |home, digest| TimedClient::new(home, digest, clock, SPEEDUP, &sink);
    let (outcome, phase) = timed(|| serve_fleet(&ctx, &opts, &make, &clock));
    let peak = peak_rss_mb();
    let mut rx = sink.into_inner().expect("client sink poisoned");
    let wire = &outcome.wire;
    let report = &outcome.output.report;
    let care = outcome.care.as_ref().expect("care was requested");
    if rx.delivered.is_empty() {
        r.check(
            "the clients received Deliver frames to time",
            false,
            format!(
                "{} sent; no episode starts in the first simulated minute",
                wire.delivers
            ),
        );
        return r;
    }

    let missing = wire.delivers.saturating_sub(rx.delivers);
    let deliver = with_missing(rx.deliver_ns.clone(), missing);
    let mut outbox = rx.outbox_ns.clone();
    outbox.sort_by(f64::total_cmp);
    let mut escalate = rx.escalate_ns.clone();
    escalate.sort_by(f64::total_cmp);
    let n = deliver.len() as u64;
    r.metric(
        "ticks_per_s",
        report.pipeline_ticks() as f64 / phase.wall_s,
        "1/s",
        1,
    );
    r.metric(
        "wakes_per_cpu_s",
        report.des_events as f64 / phase.cpu_s,
        "1/s",
        1,
    );
    r.metric("latency_p50_ms", ms(quantile(&deliver, 0.5)), "ms", n);
    r.metric("deliver_p50_ms", ms(quantile(&deliver, 0.5)), "ms", n);
    r.metric("deliver_p99_ms", ms(quantile(&deliver, 0.99)), "ms", n);
    r.metric(
        "poll_late_p50_ms",
        ms(rx.poll_late_ns.quantile(0.5)),
        "ms",
        rx.poll_late_ns.total(),
    );
    r.metric(
        "poll_late_p99_ms",
        ms(rx.poll_late_ns.quantile(0.99)),
        "ms",
        rx.poll_late_ns.total(),
    );
    r.metric(
        "outbox_wait_p50_ms",
        ms(quantile(&outbox, 0.5)),
        "ms",
        outbox.len() as u64,
    );
    r.metric(
        "outbox_wait_p99_ms",
        ms(quantile(&outbox, 0.99)),
        "ms",
        outbox.len() as u64,
    );
    r.metric(
        "outbox_wait_min_ms",
        ms(outbox[0]),
        "ms",
        outbox.len() as u64,
    );
    let mut sim_wait = rx.outbox_sim_ms.clone();
    sim_wait.sort_unstable();
    r.metric(
        "outbox_wait_sim_min_ms",
        sim_wait[0] as f64,
        "ms",
        sim_wait.len() as u64,
    );
    r.metric(
        "outbox_wait_sim_p50_ms",
        sim_wait[sim_wait.len() / 2] as f64,
        "ms",
        sim_wait.len() as u64,
    );
    if !escalate.is_empty() {
        r.metric(
            "escalate_p50_ms",
            ms(quantile(&escalate, 0.5)),
            "ms",
            escalate.len() as u64,
        );
        r.metric(
            "escalate_p99_ms",
            ms(quantile(&escalate, 0.99)),
            "ms",
            escalate.len() as u64,
        );
    }
    r.metric("busy_pct", phase.cpu_s / phase.wall_s * 100.0, "%", 1);
    r.metric("peak_rss_mb", peak, "MB", 1);
    r.notes.push(format!(
        "Deliver frames wait in the outbox for the flush of their home's next wake: {} ms of simulated \
         time at the least (a pipeline tick is 100 ms), and {:.3} ms of wall time at the least, since a \
         late server serves that next wake at once (one tick / {SPEEDUP}x = {:.3} ms)",
        sim_wait[0],
        ms(outbox[0]),
        100.0 / SPEEDUP
    ));

    let wakes = wire.polls + wire.skipped_wakes;
    r.attempted = cfg.homes as u64 + wakes + wire.frames_out;
    r.failed = wire.handshake_rejects
        + wire.decode_errors
        + wire.skipped_wakes
        + wire.frames_out.saturating_sub(rx.frames_in);
    r.metric(
        "failed_pct",
        r.failed as f64 / r.attempted as f64 * 100.0,
        "%",
        r.attempted,
    );
    check_wire(&mut r, "served", &mut rx, wire, &outcome.log, &care.events);

    let (batch, batch_wal, batch_care) = run_scale_care_walled(&cfg, &CarePolicy::default());
    r.check(
        "served report equals run_scale_care_walled",
        *report == batch,
        "",
    );
    r.check(
        "served WAL equals run_scale_care_walled",
        outcome.log == batch_wal,
        format!("{} vs {} records", outcome.log.len(), batch_wal.len()),
    );
    r.check(
        "served care log equals run_scale_care_walled",
        *care == batch_care,
        format!(
            "{} vs {} events",
            care.events.len(),
            batch_care.events.len()
        ),
    );

    let agg = outcome.output.telemetry.aggregate();
    for (name, v) in [
        ("polls", wire.polls),
        ("reports", wire.reports),
        ("delivers", wire.delivers),
        ("escalations", wire.escalations),
        ("frames_out", wire.frames_out),
        ("bytes_in", wire.bytes_in),
        ("bytes_out", wire.bytes_out),
        ("pipeline_ticks", report.pipeline_ticks()),
        ("des_events", report.des_events),
    ] {
        r.exact(name, v);
    }
    r.exact(
        "wire.bytes_per_wake",
        format!("{}/{wakes}", wire.bytes_in + wire.bytes_out),
    );
    for c in [
        Ctr::SampleWindows,
        Ctr::RadioAttempts,
        Ctr::RadioFramesTx,
        Ctr::ReportsAccepted,
        Ctr::StepsExtracted,
        Ctr::PlannerDecisions,
        Ctr::PromptsRendered,
    ] {
        r.exact(&format!("ctr.{c:?}"), agg.counter(c));
    }
    r.digest_bytes(report.render().as_bytes());
    r.digest_bytes(&encode_wal(ctx.digest(), &outcome.log));
    r.digest_bytes(care.render_log().as_bytes());
    r.digest_bytes(outcome.output.telemetry.render_summary().as_bytes());

    r.setup(&setups);

    if traced {
        let mut tr = Tracer::new();
        let sink = Sink::new(Received::new());
        let mut clock = WallClock::with_speedup(SPEEDUP);
        let shared = clock;
        let make = |home, digest| TimedClient::new(home, digest, shared, SPEEDUP, &sink);
        tr.enter(Kind::Drive);
        let ctx2 = tr.span(Kind::SetupCtx, || context(&cfg));
        let (m, traced_phase) = timed(|| mirror_serve(&ctx2, &opts, &make, &mut clock, &mut tr));
        tr.exit();
        let mut rx2 = sink.into_inner().expect("client sink poisoned");
        r.check(
            "traced: report equals the untraced run's",
            m.out.report == *report,
            "",
        );
        r.check(
            "traced: telemetry equals the untraced run's",
            m.out.telemetry == outcome.output.telemetry,
            "",
        );
        r.check(
            "traced: WAL and care log equal the untraced run's",
            m.log == outcome.log && m.care.as_ref() == Some(care),
            "",
        );
        r.check(
            "traced: WireStats equal serve_fleet's",
            m.wire == *wire,
            format!("{:?} vs {:?}", m.wire, wire),
        );
        check_wire(
            &mut r,
            "traced",
            &mut rx2,
            &m.wire,
            &m.log,
            m.care.as_ref().map_or(&[][..], |c| &c.events),
        );

        let mwakes = m.wire.polls + m.wire.skipped_wakes;
        let w = mwakes.max(1) as f64;
        wake_ledger(&mut r, &tr, mwakes, m.out.report.des_events);
        r.layer(
            "wire.encode_ns",
            tr.agg(Kind::Encode).per_call_ns(),
            "ns",
            tr.agg(Kind::Encode).calls,
        );
        r.layer(
            "wire.decode_ns",
            tr.agg(Kind::Decode).self_ns as f64 / m.wire.frames_in.max(1) as f64,
            "ns",
            m.wire.frames_in,
        );
        r.layer(
            "wire.bytes_per_wake",
            (m.wire.bytes_in + m.wire.bytes_out) as f64 / w,
            "B",
            mwakes,
        );
        r.layer(
            "client.flush_ns",
            tr.agg(Kind::Flush).per_call_ns(),
            "ns",
            tr.agg(Kind::Flush).calls,
        );
        let mut ob = rx2.outbox_ns.clone();
        ob.sort_by(f64::total_cmp);
        r.layer(
            "server.outbox_wait_p50_ms",
            ms(quantile(&ob, 0.5)),
            "ms",
            ob.len() as u64,
        );
        r.layer(
            "server.outbox_wait_p99_ms",
            ms(quantile(&ob, 0.99)),
            "ms",
            ob.len() as u64,
        );
        let magg = m.out.telemetry.aggregate();
        let per = |c: Ctr, d: f64| magg.counter(c) as f64 / d;
        let frames = magg.counter(Ctr::RadioFramesTx).max(1) as f64;
        r.layer(
            "ctr.sample_windows_per_wake",
            per(Ctr::SampleWindows, w),
            "count",
            mwakes,
        );
        r.layer(
            "ctr.radio_attempts_per_frame",
            per(Ctr::RadioAttempts, frames),
            "count",
            magg.counter(Ctr::RadioFramesTx),
        );
        r.layer(
            "ctr.reports_accepted_per_wake",
            per(Ctr::ReportsAccepted, w),
            "count",
            mwakes,
        );
        r.layer(
            "ctr.steps_extracted_per_wake",
            per(Ctr::StepsExtracted, w),
            "count",
            mwakes,
        );
        r.layer(
            "ctr.planner_decisions_per_wake",
            per(Ctr::PlannerDecisions, w),
            "count",
            mwakes,
        );
        r.layer(
            "ctr.prompts_rendered_per_wake",
            per(Ctr::PromptsRendered, w),
            "count",
            mwakes,
        );
        // Paced: compare busy time, not wall time (most of a run is the
        // clock's idle wait).
        let busy = |t: &Tracer| {
            (t.self_total_ns() - t.agg(Kind::Wait).self_ns - t.agg(Kind::SetupCtx).self_ns) as f64
                / 1e9
        };
        trace_cost(&mut r, &tr, phase.cpu_s, busy(&tr));
        r.notes.push(format!(
            "traced serve: {:.3} s wall, {:.3} s CPU",
            traced_phase.wall_s, traced_phase.cpu_s
        ));
        r.span_ledger(&tr);
        crate::write_spans(&tr, "served_wall", seed);
    }
    r
}
