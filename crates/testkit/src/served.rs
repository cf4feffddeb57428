//! Served-path harness: run fault plans against the online serving
//! front end (`coreda-serve`) instead of the in-process pipeline, and
//! check the serving determinism contract as oracles.
//!
//! A served plan carries only [`FaultKind::is_frame_fault`] kinds —
//! transport faults on the client→server wire: duplicated, reordered,
//! and delayed `Report` frames, plus a mid-session hangup. The contract
//! under test:
//!
//! - **Transport invisibility** (`served_batch_equivalence`): reports
//!   are advisory, so short of a hangup the served fleet must equal the
//!   batch [`run`] with the log on byte-for-byte — report and delivery
//!   log — no matter how the wire mangles frames.
//! - **Disconnect freeze** (`served_disconnect_freeze`): a hangup
//!   freezes exactly the hung-up home — its deliveries are a strict
//!   prefix of the batch run's, all before the cut — and every other
//!   home stays bit-identical to batch.
//! - **Engine equivalence** (`served_engine_equivalence`): the served
//!   fleet on full epoch windows at `jobs = 1` and on single-instant
//!   windows ([`InstantClock`]) at `jobs = 2` agree on every home —
//!   report, delivery log and wire accounting — so the contract holds
//!   across window widths and worker counts at once.

use coreda_core::metro::{run, MetroConfig, RunSpec, ScaleReport, ServeCtx};
use coreda_core::wal::WalRecord;
use coreda_des::time::{SimDuration, SimTime};
use coreda_des::{Clock, SimClock};
use coreda_serve::{serve_fleet, FaultyPipe, MoteClient, PipeFaults, ServeOptions, ServeOutcome};

use crate::oracles::Violation;
use crate::plan::{FaultKind, FaultPlan};

/// Homes per served check: small enough that every plan runs one batch
/// reference plus two served fleets quickly, big enough that a frozen
/// home has connected neighbours to diverge.
pub const SERVED_HOMES: usize = 3;

/// A pacing clock that never waits and never lets simulated time run
/// ahead of a window's first instant, so every serving window it paces
/// is that single instant: a session served on it walks its wakes in
/// the strict `(due, seq)` order, one instant at a time. It is the
/// reference the equivalence suites hold epoch tiling against; no
/// production path selects it.
#[derive(Debug, Clone, Copy, Default)]
pub struct InstantClock;

impl Clock for InstantClock {
    fn wait_until(&mut self, _due: SimTime) {}

    fn servable(&self) -> SimTime {
        SimTime::ZERO
    }
}

/// The fleet configuration a served plan expands to.
#[must_use]
pub fn served_config(plan: &FaultPlan, jobs: usize) -> MetroConfig {
    MetroConfig {
        homes: SERVED_HOMES,
        horizon: SimDuration::from_millis(plan.horizon_ms),
        seed: plan.seed,
        jobs,
        train_episodes: 60,
        // Served horizons are short (three simulations per check), so
        // compress the between-episode gaps or most plans would end
        // before the first wake — vacuously green oracles test nothing.
        gap_min: SimDuration::from_secs(10),
        gap_max: SimDuration::from_secs(40),
        idle_close: SimDuration::from_secs(30),
        ..MetroConfig::default()
    }
}

/// Expands the plan's frame faults into the pipe fault windows every
/// client gets, plus the seed-derived `(home, cut_ms)` hangup if any
/// `FrameDisconnect` is present (the earliest window start wins).
#[must_use]
pub fn pipe_faults(plan: &FaultPlan) -> (PipeFaults, Option<(u32, u64)>) {
    let mut faults = PipeFaults::default();
    let mut disconnect: Option<(u32, u64)> = None;
    for f in &plan.faults {
        match f.kind {
            FaultKind::FrameDup => faults.dup.push((f.from_ms, f.to_ms)),
            FaultKind::FrameReorder => faults.reorder.push((f.from_ms, f.to_ms)),
            FaultKind::FrameDelay => faults.delay.push((f.from_ms, f.to_ms)),
            FaultKind::FrameDisconnect => {
                #[allow(clippy::cast_possible_truncation)]
                let home = (plan.seed % SERVED_HOMES as u64) as u32;
                let cut = disconnect.map_or(f.from_ms, |(_, c)| c.min(f.from_ms));
                disconnect = Some((home, cut));
            }
            _ => {}
        }
    }
    (faults, disconnect)
}

/// Serves `cfg` paced by `clock`, with every client behind a
/// [`FaultyPipe`] carrying the plan's transport faults.
#[must_use]
pub fn serve_with_faults<K: Clock + Clone + Sync>(
    cfg: MetroConfig,
    base: &PipeFaults,
    disconnect: Option<(u32, u64)>,
    clock: &K,
) -> ServeOutcome {
    let ctx = ServeCtx::new(cfg).expect("served DST fleets are far below the u32 ceiling");
    let make = |home: u32, digest: u64| {
        let mut faults = base.clone();
        if let Some((h, cut)) = disconnect {
            if h == home {
                faults.disconnect_at_ms = Some(cut);
            }
        }
        FaultyPipe::new(MoteClient::new(home, digest), faults)
    };
    serve_fleet(&ctx, &ServeOptions::default(), &make, clock)
}

fn per_home_log(log: &[WalRecord], home: u32) -> Vec<WalRecord> {
    log.iter().filter(|r| r.home == home).copied().collect()
}

/// Checks one served outcome (`leg` names it) against the batch
/// reference.
fn check_against_batch(
    leg: &str,
    served: &ServeOutcome,
    batch: &ScaleReport,
    batch_log: &[WalRecord],
    disconnect: Option<(u32, u64)>,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let report = &served.output.report;
    match disconnect {
        None => {
            // Byte-for-byte: the full report, DES event count included,
            // and the full log (deliveries are state-derived).
            let stats = *report != *batch;
            let log = served.log != batch_log;
            if stats || log {
                violations.push(Violation {
                    oracle: "served_batch_equivalence",
                    detail: format!(
                        "served {leg} diverged from batch with no disconnect \
                         (report differs: {stats}, log differs: {log})",
                    ),
                });
            }
        }
        Some((down, cut)) => {
            for (h, (s, b)) in report.per_home.iter().zip(&batch.per_home).enumerate() {
                if h as u32 != down && s != b {
                    violations.push(Violation {
                        oracle: "served_batch_equivalence",
                        detail: format!(
                            "served {leg}: home {h} diverged from batch but only \
                             home {down} disconnected",
                        ),
                    });
                }
                if h as u32 != down {
                    let (sl, bl) = (per_home_log(&served.log, h as u32), per_home_log(batch_log, h as u32));
                    if sl != bl {
                        violations.push(Violation {
                            oracle: "served_batch_equivalence",
                            detail: format!(
                                "served {leg}: home {h} delivery log diverged from \
                                 batch but only home {down} disconnected",
                            ),
                        });
                    }
                }
            }
            let served_down = per_home_log(&served.log, down);
            let batch_down = per_home_log(batch_log, down);
            let prefix = batch_down.starts_with(&served_down);
            let frozen = served_down.iter().all(|r| r.at.as_millis() < cut);
            if !prefix || !frozen {
                violations.push(Violation {
                    oracle: "served_disconnect_freeze",
                    detail: format!(
                        "served {leg}: home {down} hung up at {cut} ms but its \
                         deliveries are not a pre-cut prefix of batch \
                         (prefix: {prefix}, all pre-cut: {frozen})",
                    ),
                });
            }
        }
    }
    violations
}

/// Runs a served plan through the full differential: batch reference,
/// served on full windows (`jobs = 1`), served on single-instant windows
/// (`jobs = 2`), with every oracle attached. Returns the violations
/// (empty = contract holds).
#[must_use]
pub fn check_served(plan: &FaultPlan) -> Vec<Violation> {
    let (faults, disconnect) = pipe_faults(plan);
    let batch = run(&served_config(plan, 1), &RunSpec { log: true, ..RunSpec::default() })
        .expect("a fresh run cannot mismatch");
    let full = serve_with_faults(served_config(plan, 1), &faults, disconnect, &SimClock);
    let instant = serve_with_faults(served_config(plan, 2), &faults, disconnect, &InstantClock);

    let mut violations = Vec::new();
    for (leg, served) in [("full windows", &full), ("instant windows", &instant)] {
        violations.extend(check_against_batch(leg, served, &batch.report, &batch.wal, disconnect));
    }

    // Window/jobs differential on every home, the hung-up one included:
    // faults and hangups key on each connection's own wake instants,
    // which no window cut moves.
    let agree = full.output.report == instant.output.report
        && full.log == instant.log
        && full.wire == instant.wire;
    if !agree {
        violations.push(Violation {
            oracle: "served_engine_equivalence",
            detail: "served on full windows (jobs 1) and on instant windows (jobs 2) \
                     diverged"
                .to_owned(),
        });
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Fault;

    fn transport_plan() -> FaultPlan {
        FaultPlan {
            seed: 11,
            horizon_ms: 90_000,
            faults: vec![
                // Disjoint windows: delay wins over reorder wins over
                // dup where they overlap, so stacking them would shadow
                // the earlier kinds entirely.
                Fault { kind: FaultKind::FrameDup, from_ms: 0, to_ms: 30_000 },
                Fault { kind: FaultKind::FrameReorder, from_ms: 30_000, to_ms: 60_000 },
                Fault { kind: FaultKind::FrameDelay, from_ms: 60_000, to_ms: 90_000 },
            ],
            expect_violation: None,
        }
    }

    #[test]
    fn transport_faults_are_invisible() {
        let plan = transport_plan();
        assert_eq!(check_served(&plan), vec![], "dup/reorder/delay must not perturb the fleet");
        // The faults really were on the wire, not optimised away.
        let (faults, disconnect) = pipe_faults(&plan);
        assert!(disconnect.is_none());
        let outcome =
            serve_with_faults(served_config(&plan, 1), &faults, disconnect, &SimClock);
        assert!(outcome.wire.dup_frames > 0, "{:?}", outcome.wire);
        assert!(outcome.wire.late_reports > 0, "{:?}", outcome.wire);
    }

    #[test]
    fn disconnect_freezes_only_the_hung_up_home() {
        let mut plan = transport_plan();
        plan.faults.push(Fault { kind: FaultKind::FrameDisconnect, from_ms: 40_000, to_ms: 40_000 });
        assert_eq!(check_served(&plan), vec![]);
        let (faults, disconnect) = pipe_faults(&plan);
        let (down, _) = disconnect.expect("plan has a disconnect");
        let outcome =
            serve_with_faults(served_config(&plan, 1), &faults, disconnect, &SimClock);
        assert_eq!(outcome.wire.disconnects, 1);
        assert!(outcome.wire.skipped_wakes > 0, "{:?}", outcome.wire);
        assert!(u64::from(down) < SERVED_HOMES as u64);
    }

    #[test]
    fn generated_served_plans_hold_the_contract() {
        for seed in 0..3 {
            let plan = FaultPlan::generate_served(seed);
            assert_eq!(check_served(&plan), vec![], "seed {seed}: {plan:?}");
        }
    }
}
