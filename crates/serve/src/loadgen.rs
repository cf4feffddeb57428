//! Load-generator mode: replay a metro fleet as concurrent wire-level
//! clients against the serving loop and report throughput and delivery
//! latency.
//!
//! The report splits into a deterministic body ([`LoadgenReport::render`]
//! — frame/delivery counts and byte totals, pinned by a golden file) and
//! wall-clock timing ([`LoadgenReport::render_timing`] — elapsed,
//! throughput, latency quantiles) which varies run to run and is kept
//! out of the golden.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use coreda_core::metro::{EngineKind, FleetTooLarge, MetroConfig, ServeCtx};
use coreda_des::stats::Histogram;
use coreda_des::time::SimDuration;
use coreda_des::{SimClock, WallClock};

use crate::client::MoteClient;
use crate::server::{serve_fleet, ServeOptions, ServeOutcome, WireStats};

/// The load generator's result: wire accounting plus timing.
#[derive(Debug)]
pub struct LoadgenReport {
    /// Fleet size.
    pub homes: usize,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Queue engine the serve ran on.
    pub engine: EngineKind,
    /// Worker threads.
    pub jobs: usize,
    /// `None` = sim clock (as fast as possible); `Some(s)` = wall clock
    /// at `s`× real time.
    pub speedup: Option<f64>,
    /// Wire-level counters (deterministic under the sim clock).
    pub wire: WireStats,
    /// Delivery latency in µs ([`ServeOutcome::latency_us`]).
    pub latency_us: Histogram,
    /// Wall-clock time the serve took.
    pub elapsed: Duration,
}

/// Replays `cfg` as a served fleet of faithful [`MoteClient`]s.
/// `speedup: None` paces on the sim clock (deterministic, as fast as
/// possible); `Some(s)` paces on the wall clock at `s`× real time.
///
/// # Errors
///
/// [`FleetTooLarge`] when the fleet's home ids would overflow the wire
/// protocol's `u32` space.
pub fn run_loadgen(
    cfg: MetroConfig,
    speedup: Option<f64>,
) -> Result<LoadgenReport, FleetTooLarge> {
    let homes = cfg.homes;
    let horizon = cfg.horizon;
    let engine = cfg.engine;
    let jobs = cfg.jobs;
    let ctx = ServeCtx::new(cfg)?;
    let opts = ServeOptions::default();
    let start = Instant::now();
    let outcome: ServeOutcome = match speedup {
        None => serve_fleet(&ctx, &opts, &MoteClient::new, &SimClock),
        Some(s) => serve_fleet(&ctx, &opts, &MoteClient::new, &WallClock::with_speedup(s)),
    };
    let elapsed = start.elapsed();
    Ok(LoadgenReport {
        homes,
        horizon,
        engine,
        jobs,
        speedup,
        wire: outcome.wire,
        latency_us: outcome.latency_us,
        elapsed,
    })
}

impl LoadgenReport {
    /// The deterministic report body: every line is a pure function of
    /// the configuration and the frame streams, so the same config
    /// renders identically on every run — the golden-file contract.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let clock = match self.speedup {
            None => "sim clock".to_string(),
            Some(s) => format!("wall clock x{s}"),
        };
        let w = &self.wire;
        let _ = writeln!(
            out,
            "coreda-serve loadgen: {} homes x {} s ({} engine, {} jobs, {clock})",
            self.homes,
            self.horizon.as_millis() / 1_000,
            self.engine,
            self.jobs,
        );
        let _ = writeln!(
            out,
            "  handshake: {} hellos, {} welcomes, {} rejects",
            w.hellos, w.welcomes, w.handshake_rejects
        );
        let _ = writeln!(
            out,
            "  frames: {} in / {} out ({} B in / {} B out)",
            w.frames_in, w.frames_out, w.bytes_in, w.bytes_out
        );
        let _ = writeln!(
            out,
            "  reports: {} received ({} dup, {} stale, {} late)",
            w.reports, w.dup_frames, w.stale_reports, w.late_reports
        );
        let _ = writeln!(out, "  deliveries: {} prompts/escalations", w.delivers);
        if w.delivers == 0 {
            // Make the empty case explicit: a run with no deliveries
            // says so in the deterministic body instead of silently
            // dropping the latency line from the timing block.
            let _ = writeln!(out, "  delivery latency: (no deliveries)");
        }
        let _ = writeln!(
            out,
            "  closes: {} byes sent, {} client hangups, {} skipped wakes",
            w.byes_out, w.disconnects, w.skipped_wakes
        );
        out
    }

    /// Wall-clock timing: elapsed, throughput, and delivery-latency
    /// quantiles (wake pop to the flush handing the `Deliver` over, 1 µs
    /// bins) with the count of deliveries past the histogram's range,
    /// which the quantiles leave out. Never part of the golden — it
    /// varies run to run.
    #[must_use]
    pub fn render_timing(&self) -> String {
        let mut out = String::new();
        let secs = self.elapsed.as_secs_f64().max(1e-9);
        let _ = writeln!(
            out,
            "  wall: {:.3} s ({:.0} wakes/s, {:.0} deliveries/s)",
            self.elapsed.as_secs_f64(),
            self.wire.polls as f64 / secs,
            self.wire.delivers as f64 / secs,
        );
        let lat = &self.latency_us;
        let beyond = lat.overflow();
        match (lat.quantile(0.50), lat.quantile(0.95), lat.quantile(0.99)) {
            (Some(p50), Some(p95), Some(p99)) => {
                let _ = writeln!(
                    out,
                    "  delivery latency: p50 {p50:.1} us, p95 {p95:.1} us, p99 {p99:.1} us \
                     ({beyond} of {} beyond {:.0} us)",
                    lat.total(),
                    lat.hi(),
                );
            }
            _ if beyond > 0 => {
                let _ = writeln!(
                    out,
                    "  delivery latency: all {beyond} beyond {:.0} us",
                    lat.hi()
                );
            }
            _ => {
                let _ = writeln!(out, "  delivery latency: (no deliveries)");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MetroConfig {
        MetroConfig {
            homes: 3,
            jobs: 2,
            horizon: SimDuration::from_secs(1_200),
            ..MetroConfig::default()
        }
    }

    #[test]
    fn render_is_deterministic_across_runs() {
        let a = run_loadgen(cfg(), None).expect("fleet fits");
        let b = run_loadgen(cfg(), None).expect("fleet fits");
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn timing_lines_stay_out_of_the_deterministic_body() {
        let r = run_loadgen(cfg(), None).expect("fleet fits");
        let body = r.render();
        assert!(!body.contains("wall:"), "timing leaked into the golden body:\n{body}");
        let timing = r.render_timing();
        assert!(timing.contains("wall:"));
        assert!(timing.contains("delivery latency:"));
    }

    #[test]
    fn empty_runs_state_the_missing_latency_explicitly() {
        // A horizon too short for any reminder to fire: zero deliveries.
        let quiet = MetroConfig { horizon: SimDuration::from_secs(1), ..cfg() };
        let r = run_loadgen(quiet, None).expect("fleet fits");
        assert_eq!(r.wire.delivers, 0);
        assert!(
            r.render().contains("delivery latency: (no deliveries)"),
            "body must state the empty case:\n{}",
            r.render()
        );
        assert!(r.render_timing().contains("delivery latency: (no deliveries)"));
    }

    #[test]
    fn timing_counts_latencies_past_the_histogram_range() {
        let mut r = run_loadgen(cfg(), None).expect("fleet fits");
        assert_eq!(r.latency_us.total(), r.wire.delivers, "one sample per Deliver");
        let (lo, hi, bins) = (r.latency_us.lo(), r.latency_us.hi(), r.latency_us.bins());
        let mut lat = Histogram::new(lo, hi, bins);
        for us in [3.2, 3.7, 4.1, 25_000.0] {
            lat.record(us);
        }
        r.latency_us = lat;
        let timing = r.render_timing();
        assert!(
            timing.contains("p50 3.5 us, p95 4.5 us, p99 4.5 us (1 of 4 beyond 10000 us)"),
            "{timing}"
        );
        let mut slow = Histogram::new(lo, hi, bins);
        slow.record(25_000.0);
        r.latency_us = slow;
        assert!(r.render_timing().contains("delivery latency: all 1 beyond 10000 us"));
    }

    #[test]
    fn oversized_fleets_are_rejected_before_serving() {
        let huge = MetroConfig { homes: u32::MAX as usize + 2, ..cfg() };
        assert!(run_loadgen(huge, None).is_err());
    }
}
