//! The durability headline guarantee, as a differential suite:
//! run-to-T-then-snapshot-then-resume is bit-identical to an
//! uninterrupted run — for any checkpoint tick and any `jobs` count —
//! plus codec-robustness proptests (round-trip exactness; corruption,
//! truncation, and unknown-version rejection).

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use coreda_adl::activity::catalog;
use coreda_adl::step::StepId;
use coreda_adl::tool::ToolId;
use coreda_core::checkpoint::{
    apply_delta, compact, delta_checkpoint, load_checkpoint, load_delta, save_checkpoint,
    save_delta, CheckpointError, MetroCheckpoint,
};
use coreda_core::metro::{
    resume_scale_durable, run, run_scale, run_scale_durable, MetroConfig, RunSpec, ScaleReport,
};
use coreda_core::planning::{LearnedState, LearnerKind, StateEncoder};
use coreda_core::reminding::{Prompt, ReminderLevel};
use coreda_core::sensing::StepEvent;
use coreda_core::system::Phase;
use coreda_core::telemetry::{RecorderState, TraceKind, TraceRecord};
use coreda_core::wal::{decode_wal, decode_wal_tolerant, encode_wal};
use coreda_des::time::{SimDuration, SimTime};
use coreda_rl::space::{ActionId, StateId};
use coreda_sensornet::node::NodeId;
use coreda_sensornet::packet::crc32c;
use proptest::prelude::*;

fn cfg(jobs: usize) -> MetroConfig {
    MetroConfig {
        homes: 6,
        horizon: SimDuration::from_secs(600),
        seed: 2007,
        jobs,
        gap_min: SimDuration::from_secs(60),
        gap_max: SimDuration::from_secs(180),
        train_episodes: 120,
        ..MetroConfig::default()
    }
}

/// Snapshots a fresh run at each of `stops`.
fn snapshots(config: &MetroConfig, stops: &[SimTime]) -> Vec<MetroCheckpoint> {
    run(config, &RunSpec { stops, ..RunSpec::default() })
        .expect("a fresh run cannot mismatch")
        .checkpoints
}

/// Resumes `snap` to `config`'s horizon.
fn resume(config: &MetroConfig, snap: &MetroCheckpoint) -> Result<ScaleReport, CheckpointError> {
    run(config, &RunSpec { resume: Some(snap), ..RunSpec::default() }).map(|out| out.report)
}

#[test]
fn resume_equals_uninterrupted_across_the_grid() {
    // Checkpoint ticks spanning the run: the first serving instant, an
    // off-gap mid-run tick, a late tick, and the horizon itself.
    let ticks = [
        SimTime::from_millis(100),
        SimTime::from_secs(59),
        SimTime::from_secs(300),
        SimTime::from_secs(600),
    ];
    let full = run_scale(&cfg(1));
    let snaps = snapshots(&cfg(1), &ticks);
    for (tick, snap) in ticks.iter().zip(&snaps) {
        for jobs in [1usize, 8] {
            let resumed =
                resume(&cfg(jobs), snap).unwrap_or_else(|e| panic!("resume at {tick:?}: {e}"));
            assert_eq!(resumed, full, "resume diverged: tick {tick:?}, jobs {jobs}");
        }
    }
}

#[test]
fn snapshots_are_jobs_invariant_down_to_the_bytes() {
    let ticks = [SimTime::from_secs(120), SimTime::from_secs(480)];
    let serial = snapshots(&cfg(1), &ticks);
    let parallel = snapshots(&cfg(8), &ticks);
    assert_eq!(serial, parallel, "snapshot structs must not depend on sharding");
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            save_checkpoint(a, 1).to_vec(),
            save_checkpoint(b, 8).to_vec(),
            "snapshot bytes must not depend on encode parallelism either"
        );
    }
}

#[test]
fn resumed_telemetry_merges_and_matches_at_any_jobs() {
    let trace = RunSpec { trace: true, ..RunSpec::default() };
    let full = run(&cfg(1), &trace).unwrap();
    let stops = [SimTime::from_secs(240)];
    let snaps = run(&cfg(1), &RunSpec { stops: &stops, ..trace }).unwrap().checkpoints;
    for jobs in [1usize, 8] {
        let resumed = run(&cfg(jobs), &RunSpec { resume: Some(&snaps[0]), ..trace }).unwrap();
        assert_eq!(resumed.report, full.report, "jobs {jobs}");
        assert_eq!(
            resumed.telemetry, full.telemetry,
            "counters and trace rings must merge across the boundary, not reset (jobs {jobs})"
        );
    }
}

#[test]
fn durable_resume_equals_uninterrupted_across_the_grid() {
    // The incremental flavour of the headline guarantee: base at the
    // first stop, deltas for the rest, write-ahead log throughout —
    // base → deltas → log-tail replay lands on the uninterrupted
    // result at any worker count.
    let stops = [
        SimTime::from_millis(100),
        SimTime::from_secs(59),
        SimTime::from_secs(300),
        SimTime::from_secs(600),
    ];
    let full = run_scale(&cfg(1));
    let (report, chain) = run_scale_durable(&cfg(1), &stops);
    assert_eq!(report, full, "durable instrumentation must not perturb the run");
    for jobs in [1usize, 8] {
        let resumed = resume_scale_durable(&cfg(jobs), &chain)
            .unwrap_or_else(|e| panic!("durable resume, jobs {jobs}: {e}"));
        assert_eq!(resumed, full, "durable resume diverged: jobs {jobs}");
    }
}

#[test]
fn delta_chains_refuse_a_foreign_base() {
    // Each delta is fingerprint-bound to the exact snapshot it was
    // diffed against: the same run's earlier snapshot is not close
    // enough, and a different seed's snapshot fails on the digest.
    let stops = [SimTime::from_secs(120), SimTime::from_secs(240), SimTime::from_secs(360)];
    let snaps = snapshots(&cfg(1), &stops);
    let late_delta = delta_checkpoint(&snaps[1], &snaps[2]);
    assert!(matches!(
        apply_delta(&snaps[0], &late_delta),
        Err(CheckpointError::BaseMismatch { .. })
    ));
    let foreign = MetroConfig { seed: 9, ..cfg(1) };
    let foreign_snaps = snapshots(&foreign, &[SimTime::from_secs(240)]);
    assert!(matches!(
        apply_delta(&foreign_snaps[0], &late_delta),
        Err(CheckpointError::ConfigMismatch { .. })
    ));
}

/// One mid-run snapshot, encoded once and shared by the robustness
/// proptests below (capturing it is the expensive part).
/// A mid-run snapshot of the 6-home fleet with an episode and a session
/// in flight.
fn mid_run_snapshot() -> MetroCheckpoint {
    let stops: Vec<SimTime> = (1..=20).map(|k| SimTime::from_secs(k * 30)).collect();
    let snaps = snapshots(&cfg(1), &stops);
    let in_flight = |s: &MetroCheckpoint| {
        s.homes.iter().any(|h| h.episode.is_some()) && s.homes.iter().any(|h| h.tracker.is_some())
    };
    snaps.into_iter().find(in_flight).expect("some stop catches an episode and a session")
}

/// Resumes a crafted copy of `snap` after a trip through the codec, which
/// checks bytes, not shape.
fn resume_crafted_copy(
    config: &MetroConfig,
    mut snap: MetroCheckpoint,
    craft: impl FnOnce(&mut MetroCheckpoint),
) -> Result<ScaleReport, CheckpointError> {
    craft(&mut snap);
    let back = load_checkpoint(&save_checkpoint(&snap, 2), 2).expect("CRC-valid snapshots decode");
    resume(config, &back)
}

/// [`resume_crafted_copy`] for a mis-shaped snapshot: the resume must
/// return a typed error, not panic.
fn resume_crafted(
    config: &MetroConfig,
    snap: MetroCheckpoint,
    craft: impl FnOnce(&mut MetroCheckpoint),
) -> CheckpointError {
    resume_crafted_copy(config, snap, craft).expect_err("a mis-shaped snapshot must not resume")
}

fn shape_of(craft: impl FnOnce(&mut MetroCheckpoint)) -> CheckpointError {
    resume_crafted(&cfg(1), mid_run_snapshot(), craft)
}

fn mismatch(index: usize, bound: usize) -> CheckpointError {
    CheckpointError::ShapeMismatch { index: index as u32, bound: bound as u32 }
}

#[test]
fn a_home_missing_an_activity_system_is_refused() {
    assert_eq!(shape_of(|s| s.homes[0].systems.truncate(1)), mismatch(1, 2));
}

#[test]
fn an_episode_past_the_activity_catalog_is_refused() {
    let err = shape_of(|s| {
        let home = s.homes.iter_mut().find(|h| h.episode.is_some()).expect("an episode");
        home.episode.as_mut().expect("found above").0 = 2;
    });
    assert_eq!(err, mismatch(2, 2));
}

#[test]
fn a_session_past_the_activity_catalog_is_refused() {
    let err = shape_of(|s| {
        let home = s.homes.iter_mut().find(|h| h.tracker.is_some()).expect("a session");
        home.tracker.as_mut().expect("found above").activity_idx = 7;
    });
    assert_eq!(err, mismatch(7, 2));
}

#[test]
fn a_system_missing_a_node_is_refused() {
    let nodes = mid_run_snapshot().homes[0].systems[0].nodes.len();
    let err = shape_of(|s| s.homes[0].systems[0].nodes.truncate(nodes - 1));
    assert_eq!(err, mismatch(nodes - 1, nodes));
}

#[test]
fn a_learned_table_of_the_wrong_size_is_refused() {
    let snap = mid_run_snapshot();
    let cells = snap.homes[0].systems[1].learned.as_ref().expect("Watkins captures").values.len();
    let err = resume_crafted(&cfg(1), snap, |s| {
        let learned = Arc::make_mut(s.homes[0].systems[1].learned.as_mut().expect("checked above"));
        learned.values.pop();
        learned.visits.pop();
    });
    assert_eq!(err, mismatch(cells - 1, cells));
}

/// `Coreda::restore_state` refuses a learned table for a learner that
/// cannot restore one; the resume must report it, not panic on it.
#[test]
fn a_learned_table_for_a_learner_without_one_is_refused() {
    let mut config = cfg(1);
    config.system.planning.learner = LearnerKind::QLearning;
    let snaps = snapshots(&config, &[SimTime::from_secs(300)]);
    let donor = mid_run_snapshot().homes[0].systems[0].learned.clone().expect("Watkins captures");
    let cells = donor.values.len();
    let err = resume_crafted(&config, snaps[0].clone(), |s| {
        s.homes[0].systems[0].learned = Some(donor);
    });
    assert_eq!(err, mismatch(cells, 0));
}

#[test]
fn a_full_detector_window_is_refused() {
    let err = shape_of(|s| s.homes[0].systems[0].nodes[0].0.detector_window = vec![true; 12]);
    assert_eq!(err, mismatch(12, 10));
}

#[test]
fn a_flip_rate_outside_zero_to_one_is_refused() {
    let nodes = mid_run_snapshot().homes[0].systems[0].nodes.len();
    let err = shape_of(|s| s.homes[0].systems[0].nodes[1].0.flip_false_positive = 2.0);
    assert_eq!(err, mismatch(1, nodes));
    let err = shape_of(|s| s.homes[0].systems[0].nodes[2].0.flip_false_negative = -0.5);
    assert_eq!(err, mismatch(2, nodes));
}

#[test]
fn a_negative_energy_total_is_refused() {
    let nodes = mid_run_snapshot().homes[0].systems[1].nodes.len();
    let err = shape_of(|s| s.homes[0].systems[1].nodes[0].0.energy_uj = -1.0);
    assert_eq!(err, mismatch(0, nodes));
}

#[test]
fn a_channel_for_an_unknown_node_is_refused() {
    let nodes = mid_run_snapshot().homes[0].systems[0].nodes.len();
    let err = shape_of(|s| s.homes[0].systems[0].channels[0].0 = NodeId::new(99));
    assert_eq!(err, mismatch(99, nodes));
}

#[test]
fn a_snapshot_missing_a_home_is_a_shape_error() {
    assert_eq!(shape_of(|s| s.homes.truncate(5)), mismatch(5, 6));
}

/// An in-flight episode's step index — performed, or resumed at after a
/// misuse or a freeze — must lie inside its activity's routine; the
/// first tick would index past it.
#[test]
fn an_episode_step_past_the_routine_is_refused() {
    // The metro fleet serves these activities, in this order.
    let specs = [catalog::tea_making(), catalog::tooth_brushing()];
    // Performing until past the horizon; misusing or frozen long enough
    // to resume at once.
    let (later, long_ago) = (SimTime::from_secs(3600), SimTime::ZERO);
    for phase in [
        Phase::Performing { idx: 999, until: later },
        Phase::Misusing { tool: ToolId::new(1), since: long_ago, resume_idx: 999 },
        Phase::Frozen { since: long_ago, resume_idx: 999 },
    ] {
        let mut steps = 0;
        let err = shape_of(|s| {
            let home = s.homes.iter_mut().find(|h| h.episode.is_some()).expect("an episode");
            let (act, ep, _) = home.episode.as_mut().expect("found above");
            steps = specs[*act].steps().len();
            ep.phase = phase;
        });
        assert_eq!(err, mismatch(999, steps), "{phase:?}");
    }
}

/// With online learning on, every TD update walks the eligibility
/// traces: a trace outside the planner's table, or with a negative
/// weight, must be refused before it reaches the learner.
#[test]
fn an_eligibility_trace_outside_the_table_is_refused() {
    let mut config = cfg(1);
    config.system.online_learning = true;
    let stops: Vec<SimTime> = (1..=20).map(|k| SimTime::from_secs(k * 30)).collect();
    let snap = snapshots(&config, &stops)
        .into_iter()
        .find(|s| s.homes.iter().any(|h| h.episode.is_some()))
        .expect("some stop catches an episode");
    // Home 0's first system, tea making, is checked first.
    let shape = StateEncoder::new(&catalog::tea_making()).shape();
    for (trace, want) in [
        ((StateId::new(999), ActionId::new(0), 0.5), mismatch(999, shape.states())),
        ((StateId::new(0), ActionId::new(999), 0.5), mismatch(999, shape.actions())),
        ((StateId::new(0), ActionId::new(0), -0.5), mismatch(0, 1)),
    ] {
        let err = resume_crafted(&config, snap.clone(), |s| {
            for system in s.homes.iter_mut().flat_map(|h| &mut h.systems) {
                Arc::make_mut(system.learned.as_mut().expect("Watkins captures")).traces =
                    vec![trace];
            }
        });
        assert_eq!(err, want, "{trace:?}");
    }
}

/// Resumes a crafted copy of the mid-run snapshot whose content no run
/// produces but whose shape fits: the resume must serve every home to
/// the horizon or refuse the snapshot with a typed error, never panic.
fn serves_or_refuses(craft: impl FnOnce(&mut MetroCheckpoint)) {
    let config = cfg(1);
    match resume_crafted_copy(&config, mid_run_snapshot(), craft) {
        Ok(report) => assert_eq!(report.per_home.len(), config.homes),
        Err(err) => assert!(matches!(err, CheckpointError::ShapeMismatch { .. }), "{err}"),
    }
}

/// A step id neither activity has (both number their steps after their
/// tools, all below 77).
const FOREIGN_STEP: StepId = StepId::from_raw(77);

/// The in-flight episode of the first home that has one.
fn some_episode(s: &mut MetroCheckpoint) -> &mut coreda_core::system::LiveEpisode {
    let home = s.homes.iter_mut().find(|h| h.episode.is_some()).expect("an episode");
    &mut home.episode.as_mut().expect("found above").1
}

#[test]
fn a_foreign_current_step_serves_or_is_refused() {
    serves_or_refuses(|s| s.homes[0].systems[0].sensing_current = Some(FOREIGN_STEP));
}

#[test]
fn a_foreign_step_in_the_sensing_history_serves_or_is_refused() {
    serves_or_refuses(|s| {
        let at = s.at;
        s.homes[0].systems[0].sensing_history.push(StepEvent { at, step: FOREIGN_STEP });
    });
}

#[test]
fn a_foreign_previous_tracked_step_serves_or_is_refused() {
    serves_or_refuses(|s| {
        let ep = some_episode(s);
        let cur = ep.tracked.map_or(StepId::IDLE, |(_, cur)| cur);
        ep.tracked = Some((FOREIGN_STEP, cur));
    });
}

#[test]
fn a_foreign_current_tracked_step_serves_or_is_refused() {
    serves_or_refuses(|s| {
        let ep = some_episode(s);
        let prev = ep.tracked.map_or(StepId::IDLE, |(prev, _)| prev);
        ep.tracked = Some((prev, FOREIGN_STEP));
    });
}

/// The wrong-tool reminder lights the misused tool's LED, and a system's
/// radio links only its own activity's tools: the resume used to panic
/// on the downlink. A misused tool outside the activity, one no activity
/// has (77) or the other activity's, is refused (every run draws wrong
/// tools from the activity's own).
#[test]
fn a_foreign_misused_tool_is_refused() {
    let specs = [catalog::tea_making(), catalog::tooth_brushing()];
    let unknown = |_: usize| ToolId::new(77);
    let the_other_activitys = |act: usize| specs[1 - act].tools()[0].id();
    for foreign in [&unknown as &dyn Fn(usize) -> ToolId, &the_other_activitys] {
        let mut want = None;
        let err = shape_of(|s| {
            let since = s.at;
            let home = s.homes.iter_mut().find(|h| h.episode.is_some()).expect("an episode");
            let (act, ep, _) = home.episode.as_mut().expect("found above");
            let tool = foreign(*act);
            want = Some(CheckpointError::ForeignTool { tool, activity: *act as u32 });
            ep.phase = Phase::Misusing { tool, since, resume_idx: 0 };
        });
        assert_eq!(Some(err), want);
    }
}

#[test]
fn an_unknown_tool_in_a_pending_prompt_serves_or_is_refused() {
    serves_or_refuses(|s| {
        let at = s.at;
        let prompt = Prompt { tool: ToolId::new(77), level: ReminderLevel::Minimal };
        some_episode(s).pending = Some((at, prompt));
    });
}

/// A fleet that learns online: enough homes that, by 150 s, some have
/// split off their own planner while others still serve on the
/// template.
fn learning_cfg() -> MetroConfig {
    let mut config = MetroConfig { homes: 24, ..cfg(1) };
    config.system.online_learning = true;
    config
}

/// Each home's learned table for `act`.
fn tables(snap: &MetroCheckpoint, act: usize) -> Vec<&Arc<LearnedState>> {
    let systems = snap.homes.iter().map(|h| &h.systems[act]);
    systems.map(|s| s.learned.as_ref().expect("Watkins captures")).collect()
}

/// A delta that writes one home's cells copies that home's table and no
/// other: every home that shared a table with it still holds the base's
/// table, unchanged, after `apply_delta` and after `compact` alike.
#[test]
fn a_delta_writing_one_shared_table_leaves_the_others_alone() {
    let base = snapshots(&learning_cfg(), &[SimTime::from_secs(150)]).remove(0);
    let act = 0;
    let shared = tables(&base, act);
    let home = (0..shared.len())
        .find(|&h| (0..shared.len()).any(|g| g != h && Arc::ptr_eq(shared[g], shared[h])))
        .expect("some homes still share the template");
    let before: Vec<LearnedState> = shared.iter().map(|l| LearnedState::clone(l)).collect();
    let mut cur = base.clone();
    let written = Arc::make_mut(cur.homes[home].systems[act].learned.as_mut().expect("above"));
    written.values[0] += 1.0;
    written.visits[0] += 1;
    let delta = delta_checkpoint(&base, &cur);
    assert_eq!(delta.dirty_homes(), 1, "only the written home moved");
    let applied = apply_delta(&base, &delta).expect("the delta applies");
    let compacted = compact(&base, std::slice::from_ref(&delta)).expect("the chain folds");
    for (out, how) in [(&applied, "apply_delta"), (&compacted, "compact")] {
        assert_eq!(*out, cur, "{how}");
        for (h, table) in tables(out, act).into_iter().enumerate() {
            if h == home {
                assert_ne!(**table, before[h], "{how}: home {h} took the write");
            } else {
                assert!(Arc::ptr_eq(table, shared[h]), "{how}: home {h} still shares its table");
                assert_eq!(**table, before[h], "{how}: home {h}'s table is unchanged");
            }
        }
    }
    for (h, table) in tables(&base, act).into_iter().enumerate() {
        assert_eq!(**table, before[h], "the base's home {h} is unchanged");
    }
}

/// `compact` applies each delta in place on one clone of the base; it
/// must equal folding `apply_delta`, one clone per delta, over a traced
/// learning chain whose learned tables move by cell updates (a table of
/// one size moved, which the writer tags `UPDATE`) and, at a crafted last
/// stop, by whole replacements (a table dropped and a table resized,
/// tagged `REPLACE`), each delta through its codec.
#[test]
fn in_place_compaction_equals_folding_apply_delta() {
    let trace = RunSpec { trace: true, ..RunSpec::default() };
    let stops = [60, 180, 300, 420].map(SimTime::from_secs);
    let mut snaps = run(&learning_cfg(), &RunSpec { stops: &stops, ..trace })
        .expect("a fresh run cannot mismatch")
        .checkpoints;
    let cells_moved = snaps.windows(2).any(|w| {
        (0..2).any(|act| {
            let pairs = tables(&w[0], act).into_iter().zip(tables(&w[1], act));
            pairs.into_iter().any(|(b, c)| b.values.len() == c.values.len() && b != c)
        })
    });
    assert!(cells_moved, "online learning moves cells between stops");
    let mut last = snaps.last().expect("four stops").clone();
    last.at += SimDuration::from_secs(1);
    last.homes[0].systems[0].learned = None;
    let grown = Arc::make_mut(last.homes[1].systems[1].learned.as_mut().expect("Watkins captures"));
    grown.values.push(0.5);
    grown.visits.push(1);
    snaps.push(last);
    let deltas: Vec<_> = snaps
        .windows(2)
        .map(|w| load_delta(&save_delta(&delta_checkpoint(&w[0], &w[1]), 1), 1))
        .collect::<Result<_, _>>()
        .expect("deltas survive their codec");
    let folded = deltas
        .iter()
        .try_fold(snaps[0].clone(), |snap, d| apply_delta(&snap, d))
        .expect("the chain applies");
    assert_eq!(compact(&snaps[0], &deltas).expect("the chain folds"), folded);
    assert_eq!(folded, *snaps.last().expect("five stops"));
}

/// A decoded snapshot shares the tables of consecutive homes still on
/// their template, per worker chunk: a fleet that does not learn, whose
/// capture holds one table per activity, decodes to one per activity at
/// one worker and at most one per activity and chunk at eight. Sharing
/// moves no value: a learning fleet decodes to the same snapshot at any
/// worker count.
#[test]
fn decoded_templates_share_one_table_per_activity_and_chunk() {
    let at = [SimTime::from_secs(150)];
    let distinct = |snap: &MetroCheckpoint, act: usize| {
        tables(snap, act).into_iter().map(Arc::as_ptr).collect::<HashSet<_>>().len()
    };
    let snap = snapshots(&MetroConfig { homes: 24, ..cfg(1) }, &at).remove(0);
    let blob = save_checkpoint(&snap, 1);
    for jobs in [1, 8] {
        let back = load_checkpoint(&blob, jobs).expect("the bytes just written");
        assert_eq!(back, snap);
        for act in 0..2 {
            assert_eq!(distinct(&snap, act), 1, "the capture shares the template");
            let decoded = distinct(&back, act);
            assert!(decoded <= jobs, "jobs {jobs}, activity {act}: {decoded} tables");
        }
    }

    let learning = snapshots(&learning_cfg(), &at).remove(0);
    let blob = save_checkpoint(&learning, 1);
    for jobs in [1, 8] {
        assert_eq!(load_checkpoint(&blob, jobs).expect("the bytes just written"), learning);
    }
}

/// A traced snapshot at 300 s with home 0's flight-recorder state
/// crafted, after a trip through the codec, resumed with tracing on: the
/// resume must refuse it before any home is restored, not panic or abort
/// in the recorder's restore.
fn recorder_shape_of(craft: impl FnOnce(&mut RecorderState)) -> CheckpointError {
    static SNAP: OnceLock<MetroCheckpoint> = OnceLock::new();
    let trace = RunSpec { trace: true, ..RunSpec::default() };
    let mut snap = SNAP
        .get_or_init(|| {
            let stops = [SimTime::from_secs(300)];
            run(&cfg(1), &RunSpec { stops: &stops, ..trace }).unwrap().checkpoints.remove(0)
        })
        .clone();
    craft(snap.homes[0].rec.as_mut().expect("a traced run captures every recorder"));
    let back = load_checkpoint(&save_checkpoint(&snap, 2), 2).expect("CRC-valid snapshots decode");
    run(&cfg(1), &RunSpec { resume: Some(&back), ..trace })
        .map(|_| ())
        .expect_err("a mis-shaped recorder must not resume")
}

fn some_record() -> TraceRecord {
    TraceRecord { at: SimTime::ZERO, kind: TraceKind::EpisodeStarted { episode: 0 } }
}

#[test]
fn a_recorder_with_more_counters_than_the_registry_is_refused() {
    let err = recorder_shape_of(|rec| rec.counters.resize(30, 0));
    assert_eq!(err, mismatch(30, 29));
}

#[test]
fn a_recorder_missing_a_stage_is_refused() {
    assert_eq!(recorder_shape_of(|rec| rec.stages.truncate(2)), mismatch(2, 3));
}

#[test]
fn a_recorder_stage_one_bin_short_is_refused() {
    let err = recorder_shape_of(|rec| {
        rec.stages[1].0.pop();
    });
    assert_eq!(err, mismatch(299, 300));
}

#[test]
fn a_recorder_ring_holding_more_than_its_capacity_is_refused() {
    assert_eq!(recorder_shape_of(|rec| rec.ring = vec![some_record(); 257]), mismatch(257, 256));
}

fn blob() -> &'static [u8] {
    static BLOB: OnceLock<Vec<u8>> = OnceLock::new();
    BLOB.get_or_init(|| {
        let snaps = snapshots(&cfg(1), &[SimTime::from_secs(120)]);
        save_checkpoint(&snaps[0], 1).to_vec()
    })
}

/// Overwrites 1–4 bytes of `blob` past its first `header` bytes (each
/// edit a position as a fraction of the editable span, and a byte), cuts
/// it at a fraction of that span when `cut` says so, and re-stamps its
/// CRC-32C trailer, so the body walk — not the checksum — must cope.
fn hostile(blob: &[u8], header: usize, edits: &[(f64, u8)], cut: Option<f64>) -> Vec<u8> {
    let mut bad = blob[..blob.len() - 4].to_vec();
    let span = |bad: &Vec<u8>, frac: f64| {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let at = (frac * (bad.len() - header) as f64) as usize;
        header + at.min(bad.len() - header - 1)
    };
    for &(frac, byte) in edits {
        let at = span(&bad, frac);
        bad[at] = byte;
    }
    if let Some(frac) = cut {
        let keep = span(&bad, frac);
        bad.truncate(keep);
    }
    let crc = crc32c(&bad);
    bad.extend_from_slice(&crc.to_be_bytes());
    bad
}

/// A mid-run delta, the base it was diffed against, and the whole run's
/// write-ahead log, encoded once and shared by the incremental
/// robustness proptests.
fn durable() -> &'static (MetroCheckpoint, Vec<u8>, Vec<u8>) {
    static BLOBS: OnceLock<(MetroCheckpoint, Vec<u8>, Vec<u8>)> = OnceLock::new();
    BLOBS.get_or_init(|| {
        let config = cfg(1);
        let stops = [SimTime::from_secs(120), SimTime::from_secs(480)];
        let (_, run) = run_scale_durable(&config, &stops);
        let delta = save_delta(&run.deltas[0], 1).to_vec();
        let wal = encode_wal(run.base.digest, &run.wal).to_vec();
        (run.base, delta, wal)
    })
}

/// The encoded delta and log of [`durable`].
fn durable_blobs() -> (&'static Vec<u8>, &'static Vec<u8>) {
    let (_, delta, wal) = durable();
    (delta, wal)
}

proptest! {
    /// load(save(d)) == d and base + d rebuilds the later snapshot, for
    /// deltas spanning arbitrary intervals at any encode parallelism.
    #[test]
    fn delta_codec_round_trip_is_exact(base_ms in 100u64..150_000, span_ms in 100u64..150_000, jobs in 1usize..9) {
        let stops = [SimTime::from_millis(base_ms), SimTime::from_millis(base_ms + span_ms)];
        let short = MetroConfig {
            horizon: SimDuration::from_secs(300),
            ..cfg(jobs)
        };
        let snaps = snapshots(&short, &stops);
        let delta = delta_checkpoint(&snaps[0], &snaps[1]);
        let decoded = load_delta(&save_delta(&delta, jobs), jobs).expect("fresh delta decodes");
        prop_assert_eq!(&decoded, &delta);
        prop_assert_eq!(apply_delta(&snaps[0], &decoded).unwrap(), snaps[1].clone());
    }

    /// Flipping any single bit anywhere in an encoded delta is detected.
    #[test]
    fn corrupted_deltas_are_rejected(frac in 0.0f64..1.0, bit in 0u32..8) {
        let (delta, _) = durable_blobs();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = ((frac * delta.len() as f64) as usize).min(delta.len() - 1);
        let mut bad = delta.clone();
        bad[idx] ^= 1 << bit;
        prop_assert!(
            load_delta(&bad, 1).is_err(),
            "a flipped bit at delta byte {} slipped through", idx
        );
    }

    /// Hostile bytes through the one decoder a delta's body meets: 1–4
    /// bytes past the header words overwritten, sometimes a truncation,
    /// and the CRC re-stamped so the framing and the body walk — not the
    /// checksum — must cope. Loading and applying returns a snapshot or a
    /// typed error; it never panics or aborts.
    #[test]
    fn hostile_delta_bodies_are_applied_or_refused(
        edits in proptest::collection::vec((0.0f64..1.0, any::<u8>()), 1..=4),
        cut in proptest::option::of(0.0f64..1.0),
    ) {
        // Magic, version and the four header words stay intact.
        const HEADER: usize = 4 + 1 + 4 * 8;
        let (base, delta, _) = durable();
        let bad = hostile(delta, HEADER, &edits, cut);
        if let Ok(d) = load_delta(&bad, 1) {
            // A typed error is a refusal; a panic fails the test.
            let _ = apply_delta(base, &d);
        }
    }

    /// The same through a snapshot's decoder, the delta read walk run
    /// onto empty homes: `load_checkpoint` of the mutated, re-stamped
    /// bytes returns a snapshot or a typed error; it never panics or
    /// aborts on an allocation a count in the bytes asked for.
    #[test]
    fn hostile_snapshot_bodies_are_loaded_or_refused(
        edits in proptest::collection::vec((0.0f64..1.0, any::<u8>()), 1..=4),
        cut in proptest::option::of(0.0f64..1.0),
    ) {
        // Magic, version and the three header words stay intact.
        const HEADER: usize = 4 + 1 + 3 * 8;
        let bad = hostile(blob(), HEADER, &edits, cut);
        // A typed error is a refusal; a panic fails the test.
        let _ = load_checkpoint(&bad, 1);
    }

    /// Flipping any single bit anywhere in an encoded log is detected by
    /// the strict decoder (the whole-stream trailer, not just the chunk
    /// CRCs, makes this deterministic).
    #[test]
    fn corrupted_wal_streams_are_rejected(frac in 0.0f64..1.0, bit in 0u32..8) {
        let (_, wal) = durable_blobs();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = ((frac * wal.len() as f64) as usize).min(wal.len() - 1);
        let mut bad = wal.clone();
        bad[idx] ^= 1 << bit;
        prop_assert!(
            decode_wal(&bad).is_err(),
            "a flipped bit at log byte {} slipped through", idx
        );
    }

    /// A log cut anywhere — mid-chunk, mid-record, mid-length-prefix —
    /// fails the strict decoder, while the tolerant decoder salvages
    /// exactly the intact chunk prefix (what a kill-resume reads back).
    #[test]
    fn truncated_wal_chunks_fail_strict_and_salvage_tolerant(frac in 0.0f64..1.0) {
        let (_, wal) = durable_blobs();
        let full = decode_wal(wal).expect("pristine log decodes").1;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let keep = ((frac * wal.len() as f64) as usize).min(wal.len() - 1);
        prop_assert!(decode_wal(&wal[..keep]).is_err());
        if let Ok(tail) = decode_wal_tolerant(&wal[..keep]) {
            prop_assert!(tail.valid_bytes <= keep, "salvage cannot claim torn bytes");
            prop_assert!(tail.records.len() <= full.len());
            prop_assert_eq!(
                &full[..tail.records.len()], &tail.records[..],
                "salvaged records must be a prefix of the pristine stream"
            );
        }
    }

    /// decode(encode(s)) == s for snapshots captured at arbitrary ticks.
    #[test]
    fn codec_round_trip_is_exact(tick_ms in 100u64..300_000, jobs in 1usize..9) {
        let tick = SimTime::from_millis(tick_ms);
        let short = MetroConfig {
            horizon: SimDuration::from_secs(300),
            ..cfg(jobs)
        };
        let snaps = snapshots(&short, &[tick]);
        let encoded = save_checkpoint(&snaps[0], jobs);
        let decoded = load_checkpoint(&encoded, jobs).expect("fresh snapshot decodes");
        prop_assert_eq!(decoded, snaps[0].clone());
    }

    /// Flipping any single bit anywhere in a snapshot is detected.
    #[test]
    fn corrupted_snapshots_are_rejected(frac in 0.0f64..1.0, bit in 0u32..8) {
        let blob = blob();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = ((frac * blob.len() as f64) as usize).min(blob.len() - 1);
        let mut bad = blob.to_vec();
        bad[idx] ^= 1 << bit;
        prop_assert!(
            load_checkpoint(&bad, 1).is_err(),
            "a flipped bit at byte {} slipped through", idx
        );
    }

    /// Every strict prefix of a snapshot is rejected, not misparsed.
    #[test]
    fn truncated_snapshots_are_rejected(frac in 0.0f64..1.0) {
        let blob = blob();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let keep = ((frac * blob.len() as f64) as usize).min(blob.len() - 1);
        prop_assert!(load_checkpoint(&blob[..keep], 1).is_err());
    }

    /// Any version byte other than the supported one is rejected by the
    /// version field itself (the checksum is re-stamped, so this is not
    /// the CRC catching it).
    #[test]
    fn unknown_versions_are_rejected(v in 0u8..=255) {
        let version = if v == coreda_core::checkpoint::VERSION { v.wrapping_add(1) } else { v };
        let blob = blob();
        let mut bad = blob.to_vec();
        bad[4] = version;
        let body = bad.len() - 4;
        let crc = crc32c(&bad[..body]);
        bad[body..].copy_from_slice(&crc.to_be_bytes());
        prop_assert_eq!(
            load_checkpoint(&bad, 1).unwrap_err(),
            CheckpointError::UnsupportedVersion(version)
        );
    }
}
