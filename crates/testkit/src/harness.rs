//! The in-process fault-plan check: a plan serves a small fleet through
//! the production [`run`] behind the fault overlay ([`RunSpec::faults`]),
//! and every oracle reads what that run produced.
//!
//! [`check`] maps a plan to [`dst_config`] — three homes, online learning
//! on, short gaps — with the plan itself as the fleet's fault schedule,
//! and checks:
//!
//! - **jobs 1 ≡ jobs N** (`jobs_equivalence`): report, taps, WAL,
//!   telemetry and the horizon snapshot agree across a real shard split;
//! - the stream [`oracles`] on each home's taps, the home named in every
//!   violation;
//! - **`q_bound`** on the learned values of a snapshot taken at the
//!   horizon;
//! - for plans with kills, **`resume_equivalence`**: the run dies at each
//!   kill ([`observe`]) and must equal its ghost, the same plan served
//!   without dying.
//!
//! Event-driven wakes ≡ dense 100 ms polling under faults is held by
//! metro's own `event_driven_wakes_match_dense_polling`, not here.

use coreda_adl::activity::catalog;
use coreda_core::checkpoint::{
    apply_delta, delta_checkpoint, load_checkpoint, load_delta, save_checkpoint, save_delta,
    MetroCheckpoint,
};
use coreda_core::metro::{run, FaultSchedule, MetroConfig, RunSpec, ScaleReport};
use coreda_core::system::CoredaConfig;
use coreda_core::telemetry::Telemetry;
use coreda_core::wal::{self, decode_wal_tolerant, encode_wal, WalRecord};
use coreda_des::time::{SimDuration, SimTime};

use crate::oracles::{self, Violation};
use crate::plan::FaultPlan;

/// Homes per in-process check: enough for every worker count up to
/// three to split the fleet into real shards.
pub const HOMES: usize = 3;

/// The worker count the jobs differential holds against jobs 1 when the
/// caller names none (corpus replay).
pub const JOBS: usize = 3;

/// The fleet an in-process plan serves: [`HOMES`] homes over the plan's
/// horizon and seed, online learning on (so `q_bound` watches live
/// updates), 20–60 s gaps so a few simulated minutes hold several
/// episodes, the 120 s idle close `IdleTimeoutLiveness::BOUND_MS`
/// assumes, and planners trained for 150 episodes.
///
/// [`IdleTimeoutLiveness::BOUND_MS`]: oracles::IdleTimeoutLiveness::BOUND_MS
#[must_use]
pub fn dst_config(plan: &FaultPlan, jobs: usize) -> MetroConfig {
    MetroConfig {
        homes: HOMES,
        horizon: SimDuration::from_millis(plan.horizon_ms),
        seed: plan.seed,
        jobs,
        gap_min: SimDuration::from_secs(20),
        gap_max: SimDuration::from_secs(60),
        system: CoredaConfig { online_learning: true, ..CoredaConfig::default() },
        train_episodes: 150,
        idle_close: SimDuration::from_secs(120),
    }
}

/// Raw tool ids across every activity a home serves — the target space
/// for plan generation.
#[must_use]
pub fn tool_ids() -> Vec<u16> {
    [catalog::tea_making(), catalog::tooth_brushing()]
        .iter()
        .flat_map(|spec| spec.tools().iter().map(|t| t.id().raw()).collect::<Vec<_>>())
        .collect()
}

/// The Q-bound the oracle enforces: `terminal / (1 - γ)` with a 25 %
/// margin for eligibility-trace transients.
#[must_use]
pub fn q_bound(config: &CoredaConfig) -> f64 {
    let planning = config.planning;
    planning.reward.terminal.abs().max(planning.reward.minimal.abs()) / (1.0 - planning.gamma)
        * 1.25
}

/// Everything one run produced, killed and resumed or not. Two runs of
/// the same plan must compare equal at any worker count and across any
/// kills.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// The serving report; its taps are each home's whole stream, every
    /// segment's concatenated.
    pub report: ScaleReport,
    /// The write-ahead log, every segment's concatenated.
    pub wal: Vec<WalRecord>,
    /// The flight recorders, which a resume carries across its snapshot.
    pub telemetry: Telemetry,
    /// The fleet snapshot at the horizon (learned values included).
    pub horizon: MetroCheckpoint,
}

impl Observed {
    /// Every learned Q value of every home's planners at the horizon.
    #[must_use]
    pub fn q_values(&self) -> Vec<f64> {
        let systems = self.horizon.homes.iter().flat_map(|h| &h.systems);
        systems.filter_map(|s| s.learned.as_ref()).flat_map(|l| l.values.iter().copied()).collect()
    }
}

/// Serves `cfg` under `faults` with taps, recorder and log on, dying at
/// each of `kills` (sorted, within the horizon): one [`run`] segment per
/// kill, each ending at a stop. The first stop's snapshot round-trips
/// through the CRCK codec and every later one as a CRCD delta against
/// the previous snapshot; the log written so far is torn mid-chunk and
/// the tolerant decoder must salvage an intact prefix of it; and the next
/// segment resumes from the decoded snapshot through [`RunSpec::resume`].
///
/// # Errors
///
/// A codec round trip that does not rebuild the snapshot, a torn log
/// whose salvage is not a prefix, or a refused resume — each described.
pub fn observe(
    cfg: &MetroConfig,
    faults: Option<&dyn FaultSchedule>,
    kills: &[SimTime],
) -> Result<Observed, String> {
    let horizon = SimTime::ZERO + cfg.horizon;
    let mut resume: Option<MetroCheckpoint> = None;
    let mut taps = vec![Vec::new(); cfg.homes];
    let mut wal = Vec::new();
    for (segment, end) in kills.iter().copied().chain([horizon]).enumerate() {
        let stop = [end];
        let spec = RunSpec {
            record: true,
            trace: true,
            log: true,
            stops: &stop,
            resume: resume.as_ref(),
            faults,
            ..RunSpec::default()
        };
        let until = MetroConfig { horizon: end - SimTime::ZERO, ..cfg.clone() };
        let mut out = run(&until, &spec).map_err(|e| format!("resume refused at {end}: {e:?}"))?;
        let events = out.report.events.take().expect("the run records taps");
        for (home, segment_taps) in taps.iter_mut().zip(events) {
            home.extend(segment_taps);
        }
        wal.extend(out.wal);
        let snapshot = out.checkpoints.pop().expect("one stop, one snapshot");
        if segment == kills.len() {
            out.report.events = Some(taps);
            return Ok(Observed {
                report: out.report,
                wal,
                telemetry: out.telemetry,
                horizon: snapshot,
            });
        }
        tear_wal(&wal)?;
        resume = Some(round_trip(resume.as_ref(), snapshot)?);
    }
    unreachable!("the horizon segment returns")
}

/// The snapshot a restart reads back: the first through the CRCK codec,
/// later ones as a CRCD delta against the previous decoded snapshot.
fn round_trip(
    base: Option<&MetroCheckpoint>,
    snapshot: MetroCheckpoint,
) -> Result<MetroCheckpoint, String> {
    let at = snapshot.at;
    let decoded = match base {
        None => load_checkpoint(&save_checkpoint(&snapshot, 1), 1)
            .map_err(|e| format!("snapshot at {at} does not decode: {e:?}"))?,
        Some(base) => {
            let blob = save_delta(&delta_checkpoint(base, &snapshot), 1);
            let delta = load_delta(&blob, 1)
                .map_err(|e| format!("delta at {at} does not decode: {e:?}"))?;
            apply_delta(base, &delta)
                .map_err(|e| format!("delta at {at} does not fit its base: {e:?}"))?
        }
    };
    if decoded == snapshot {
        Ok(decoded)
    } else {
        Err(format!("the snapshot at {at} does not survive its codec"))
    }
}

/// Tears the encoded log mid-chunk, as a death mid-write would, and
/// requires the tolerant decoder to salvage an intact prefix.
fn tear_wal(records: &[WalRecord]) -> Result<(), String> {
    let blob = encode_wal(0, records);
    let cut = blob.len().saturating_sub(7).max(wal::HEADER_BYTES);
    let torn = decode_wal_tolerant(&blob[..cut])
        .map_err(|e| format!("torn log lost its header: {e:?}"))?;
    if records.starts_with(&torn.records) {
        Ok(())
    } else {
        Err("the salvaged log is not a prefix of the written one".to_owned())
    }
}

/// The first difference between two runs, or `None` when they agree.
#[must_use]
pub fn first_difference(left: &Observed, right: &Observed) -> Option<String> {
    let (l, r) = (&left.report, &right.report);
    if let Some(home) = (0..l.per_home.len().max(r.per_home.len()))
        .find(|&h| l.per_home.get(h) != r.per_home.get(h))
    {
        return Some(format!(
            "home {home} stats {:?} vs {:?}",
            l.per_home.get(home),
            r.per_home.get(home)
        ));
    }
    if l.des_events != r.des_events {
        return Some(format!("DES events {} vs {}", l.des_events, r.des_events));
    }
    let taps = l.events.iter().flatten().zip(r.events.iter().flatten()).enumerate();
    for (home, (lt, rt)) in taps {
        if let Some(at) = (0..lt.len().max(rt.len())).find(|&k| lt.get(k) != rt.get(k)) {
            return Some(format!(
                "home {home} taps diverge at event #{at}: {:?} vs {:?}",
                lt.get(at),
                rt.get(at)
            ));
        }
    }
    if let Some(at) =
        (0..left.wal.len().max(right.wal.len())).find(|&k| left.wal.get(k) != right.wal.get(k))
    {
        return Some(format!(
            "write-ahead logs diverge at record #{at}: {:?} vs {:?}",
            left.wal.get(at),
            right.wal.get(at)
        ));
    }
    if left.telemetry != right.telemetry {
        return Some("telemetry diverged".to_owned());
    }
    (left.horizon != right.horizon)
        .then(|| "horizon snapshots (Q values included) diverged".to_owned())
}

/// The full in-process check of `plan`, with the jobs differential at
/// `jobs` workers (see the module doc). Returns every violation, empty
/// when the plan passes.
#[must_use]
pub fn check(plan: &FaultPlan, jobs: usize) -> Vec<Violation> {
    let cfg = dst_config(plan, 1);
    let ghost = observe(&cfg, Some(plan), &[]).expect("a run that never dies cannot fail");
    let mut violations = Vec::new();
    let parallel = observe(&dst_config(plan, jobs), Some(plan), &[])
        .expect("a run that never dies cannot fail");
    if let Some(detail) = first_difference(&ghost, &parallel) {
        violations.push(Violation {
            oracle: "jobs_equivalence",
            detail: format!("jobs 1 vs jobs {jobs}: {detail}"),
        });
    }
    for (home, taps) in ghost.report.events.iter().flatten().enumerate() {
        for mut v in oracles::check_taps(taps, plan.horizon_ms) {
            v.detail = format!("home {home}: {}", v.detail);
            violations.push(v);
        }
    }
    violations.extend(oracles::check_q(&ghost.q_values(), q_bound(&cfg.system)));
    violations.extend(check_resume(&ghost, &cfg, Some(plan), &plan.kills()));
    violations
}

/// `resume_equivalence`: `cfg` served under `faults` and killed at each
/// of `kills` must equal `ghost`, the same run that never died. No kills,
/// nothing to check.
#[must_use]
pub fn check_resume(
    ghost: &Observed,
    cfg: &MetroConfig,
    faults: Option<&dyn FaultSchedule>,
    kills: &[SimTime],
) -> Option<Violation> {
    if kills.is_empty() {
        return None;
    }
    let detail = match observe(cfg, faults, kills) {
        Ok(resumed) => first_difference(&resumed, ghost)?,
        Err(detail) => detail,
    };
    Some(Violation {
        oracle: "resume_equivalence",
        detail: format!("killed at {kills:?}: {detail}"),
    })
}

/// Checks any plan on the path its faults target: caregiver plans
/// through [`crate::care::check_care`], frame plans through
/// [`crate::served::check_served`], the rest through [`check`].
#[must_use]
pub fn check_plan(plan: &FaultPlan, jobs: usize) -> Vec<Violation> {
    if plan.has_care_faults() {
        crate::care::check_care(plan)
    } else if plan.has_frame_faults() {
        crate::served::check_served(plan)
    } else {
        check(plan, jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Fault, FaultKind};
    use coreda_core::metro::TapEvent;

    fn plan(faults: Vec<Fault>) -> FaultPlan {
        FaultPlan { seed: 7, horizon_ms: 240_000, faults, expect_violation: None }
    }

    fn kill(at_ms: u64) -> Fault {
        Fault { kind: FaultKind::CheckpointKillResume, from_ms: at_ms, to_ms: at_ms }
    }

    #[test]
    fn clean_plan_serves_and_passes() {
        let plan = plan(vec![]);
        let run = observe(&dst_config(&plan, 1), Some(&plan), &[]).unwrap();
        let t = run.report.totals();
        assert!(t.episodes_started >= 2 * HOMES as u64, "{t:?}");
        assert!(t.pipeline_ticks > 100);
        let taps = || run.report.events.iter().flatten().flatten();
        assert!(taps().any(|e| matches!(e, TapEvent::Session(_))));
        assert!(taps().any(|e| matches!(e, TapEvent::StepSensed { .. })));
        assert!(!run.q_values().is_empty() && run.q_values().iter().all(|v| v.is_finite()));
        assert_eq!(check(&plan, JOBS), vec![]);
    }

    #[test]
    fn generated_plans_pass_with_and_without_kills() {
        for seed in [4u64, 9, 21] {
            let plan = FaultPlan::generate(seed, &tool_ids()).with_kill_resume();
            assert_eq!(check(&plan, 2), vec![], "seed {seed}: {plan:?}");
        }
    }

    #[test]
    fn a_double_kill_round_trips_a_delta_and_matches_the_ghost() {
        let mut plan = FaultPlan::generate(13, &tool_ids());
        plan.faults.extend([kill(30_000), kill(90_000)]);
        let cfg = dst_config(&plan, 1);
        let ghost = observe(&cfg, Some(&plan), &[]).unwrap();
        let killed = observe(&cfg, Some(&plan), &plan.kills()).unwrap();
        assert_eq!(first_difference(&killed, &ghost), None);
        assert!(killed.telemetry.events_recorded() > 0, "recorders survive the kills");
    }

    #[test]
    fn a_kill_at_the_horizon_still_resumes() {
        let plan = plan(vec![kill(240_000)]);
        assert_eq!(check(&plan, JOBS), vec![]);
    }

    #[test]
    fn crash_window_silences_the_node() {
        // Crash the tea activity's first tool for the whole run.
        let faulted = plan(vec![Fault {
            kind: FaultKind::NodeCrash { tool: tool_ids()[0] },
            from_ms: 0,
            to_ms: 240_000,
        }]);
        let energy = |plan: &FaultPlan| {
            observe(&dst_config(plan, 1), Some(plan), &[]).unwrap().report.totals().energy_uj
        };
        let (crashed, clean) = (energy(&faulted), energy(&plan(vec![])));
        assert!(
            crashed < clean,
            "a crashed node must not burn sampling energy: {crashed} vs {clean}"
        );
    }
}
