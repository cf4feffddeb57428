//! `batch_100k`: `run_scale` over 100k homes on the sim clock, unpaced.
//! Recorder, care and WAL are off. The ~630 MB working set dwarfs the
//! L3, so the DES drain and the arena wake pipeline do nearly all the
//! work; the wire and the codecs do none.
//!
//! `run_scale` has no public per-wake boundary, so the traced run drives
//! the same fleet through the public `ServeSession` chain with no
//! transport ([`drive_chain`]) and must reproduce `run_scale`'s report.

use std::time::Instant;

use coreda_core::metro::{collect_served, run_scale, MetroConfig, ServeCtx, TraceOutput};
use coreda_core::wal::WalRecord;
use coreda_des::time::SimDuration;

use crate::ledger::{Kind, Tracer};
use crate::measure::{peak_rss_mb, timed};
use crate::report::Report;

pub const HOMES: usize = 100_000;
/// No episode starts before `gap_min` (60 s); after it the fleet serves
/// this many simulated seconds per second of `--seconds`, which takes
/// about `--seconds` of wall time on the reference host.
pub const SIM_PER_WALL: u64 = 4;
/// Set-ups timed per run (each allocates the whole fleet, ~0.3 s). They
/// run first, in the fresh process, like every workload's.
const SETUP_REPS: usize = 10;

pub fn config(seed: u64, seconds: u64) -> MetroConfig {
    let lead_in = MetroConfig::default().gap_min;
    MetroConfig {
        homes: HOMES,
        horizon: lead_in + SimDuration::from_secs(SIM_PER_WALL * seconds),
        seed,
        jobs: 1,
        ..MetroConfig::default()
    }
}

/// Wall seconds from nothing to a session whose first wake can be
/// served: `ServeCtx::new` (planner-template training) plus
/// `ServeCtx::session` (arena allocation, initial wakes).
pub fn setup_once(cfg: &MetroConfig) -> f64 {
    let t0 = Instant::now();
    let ctx = ServeCtx::new(cfg.clone()).expect("benchmark fleets fit the wire id space");
    let session = ctx.session(0, cfg.homes, false, false);
    let secs = t0.elapsed().as_secs_f64();
    drop(session);
    secs
}

/// A transport-free served run: the same wakes `run_scale` serves,
/// through `next_epoch` / `next_wake` / `serve_wake`, each call a span.
pub struct Chain {
    pub out: TraceOutput,
    pub log: Vec<WalRecord>,
    /// `serve_wake` calls.
    pub wakes: u64,
}

pub fn drive_chain(cfg: &MetroConfig, tr: &mut Tracer) -> Chain {
    let ctx = tr.span(Kind::SetupCtx, || {
        ServeCtx::new(cfg.clone()).expect("benchmark fleets fit the wire id space")
    });
    let mut session = tr.span(Kind::SetupArena, || ctx.session(0, cfg.homes, false, false));
    let mut due = Vec::new();
    let mut fresh = Vec::new();
    let mut wakes = 0u64;
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
            loop {
                tr.enter(Kind::Chain);
                let next = session.next_wake(home);
                tr.set_wake(next.map(|now| (home, now.as_millis())));
                tr.exit();
                let Some(now) = next else { break };
                tr.span(Kind::Wake, || {
                    session.serve_wake(home, now, false, &mut fresh)
                });
                wakes += 1;
            }
        }
        fresh.clear();
        tr.exit();
    }
    let (out, log, _) = tr.span(Kind::Merge, || collect_served(cfg, vec![session.finish()]));
    Chain { out, log, wakes }
}

/// Ledger entries of every drive through the `ServeSession` chain:
/// set-up, and the DES drain, chain walk and wake pipeline per
/// `serve_wake` call.
pub fn wake_ledger(r: &mut Report, tr: &Tracer, wakes: u64, des_events: u64) {
    let per_wake = |k: Kind| tr.agg(k).self_ns as f64 / wakes.max(1) as f64;
    let secs = |k: Kind| tr.agg(k).self_ns as f64 / 1e9;
    r.layer("setup.ctx_s", secs(Kind::SetupCtx), "s", 1);
    r.layer("setup.arena_s", secs(Kind::SetupArena), "s", 1);
    r.layer("des.drain_ns", per_wake(Kind::Drain), "ns", wakes);
    r.layer(
        "des.events_per_wake",
        des_events as f64 / wakes.max(1) as f64,
        "count",
        wakes,
    );
    r.layer("metro.chain_ns", per_wake(Kind::Chain), "ns", wakes);
    r.layer("metro.wake_ns", per_wake(Kind::Wake), "ns", wakes);
    r.layer("metro.merge_s", secs(Kind::Merge), "s", 1);
    r.traced_exact("des.events_per_wake", format!("{des_events}/{wakes}"));
}

/// Residual and tracing overhead of a traced drive against the untraced
/// total it decomposes.
pub fn trace_cost(r: &mut Report, tr: &Tracer, untraced_s: f64, traced_s: f64) {
    let span_ns = Tracer::calibrate_span_ns();
    let overhead_s = tr.spans() as f64 * span_ns / 1e9;
    r.layer(
        "trace.residual_pct",
        (untraced_s - traced_s) / untraced_s * 100.0,
        "%",
        1,
    );
    r.layer(
        "trace.overhead_pct",
        overhead_s / traced_s * 100.0,
        "%",
        tr.spans(),
    );
    r.notes.push(format!(
        "residual: untraced {untraced_s:.3} s - traced span total {traced_s:.3} s = {:.3} s; \
         tracing overhead ~{overhead_s:.3} s ({} spans x {span_ns:.1} ns)",
        untraced_s - traced_s,
        tr.spans()
    ));
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let cfg = config(seed, seconds);
    let mut r = Report::new(format!(
        "perfbench batch_100k: run_scale, {} homes x {} s simulated, jobs=1, sim clock (unpaced), \
         recorder/care/WAL off, seed {seed}",
        cfg.homes,
        cfg.horizon.as_millis() / 1000
    ));

    let setup: Vec<f64> = (0..SETUP_REPS).map(|_| setup_once(&cfg)).collect();
    let (report, phase) = timed(|| run_scale(&cfg));
    let peak = peak_rss_mb();
    let ticks = report.pipeline_ticks();
    r.metric("ticks_per_s", ticks as f64 / phase.wall_s, "1/s", 1);
    r.metric(
        "wakes_per_cpu_s",
        report.des_events as f64 / phase.cpu_s,
        "1/s",
        1,
    );
    // A batch consumer holds every result when the call returns.
    r.metric("latency_p50_ms", phase.wall_s * 1e3, "ms", 1);
    r.metric("peak_rss_mb", peak, "MB", 1);
    r.setup(&setup);

    let (totals, clamped) = report.totals_checked();
    r.attempted = report.des_events;
    r.failed = clamped;
    r.metric(
        "failed_pct",
        clamped as f64 / report.des_events.max(1) as f64 * 100.0,
        "%",
        report.des_events,
    );
    r.check(
        "report covers every home",
        report.per_home.len() == cfg.homes,
        format!("{} homes", report.per_home.len()),
    );
    r.check(
        "no saturated totals",
        clamped == 0,
        format!("{clamped} clamped"),
    );
    r.check(
        "homes did work",
        ticks > 0 && totals.episodes_started > 0,
        format!("{ticks} ticks"),
    );
    r.exact("pipeline_ticks", ticks);
    r.exact("des_events", report.des_events);
    r.exact("episodes_started", totals.episodes_started);
    r.exact("reminders", totals.reminders);
    r.digest_bytes(report.render().as_bytes());

    if traced {
        let mut tr = Tracer::new();
        tr.enter(Kind::Drive);
        let chain = drive_chain(&cfg, &mut tr);
        tr.exit();
        r.check(
            "traced chain drive reproduces run_scale's report",
            chain.out.report == report,
            "",
        );
        wake_ledger(&mut r, &tr, chain.wakes, chain.out.report.des_events);
        let traced_s = tr.self_total_ns() as f64 / 1e9;
        trace_cost(&mut r, &tr, phase.wall_s, traced_s);
        r.span_ledger(&tr);
        crate::write_spans(&tr, "batch_100k", seed);
    }
    r
}
