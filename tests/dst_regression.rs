//! Replays the checked-in DST regression corpus (`tests/corpus/`).
//!
//! Each `.seed.json` entry is a deterministic fault plan. Entries with no
//! `expect_violation` are regression guards: they once reproduced a real
//! bug (or stress a fault kind) and must now pass every oracle; entries
//! naming an oracle must still trip exactly it. The same corpus gates
//! `make ci` via `coreda-cli replay --dir tests/corpus`.

use std::path::{Path, PathBuf};

use coreda::testkit::corpus;
use coreda::testkit::harness::{Harness, WakePolicy};
use coreda::testkit::json;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn corpus_replays_match_expectations() {
    let harness = Harness::new();
    let outcomes = corpus::replay_dir(&harness, &corpus_dir()).expect("corpus replays");
    assert!(outcomes.len() >= 8, "corpus shrank to {} entries", outcomes.len());
    let failed: Vec<String> =
        outcomes.iter().filter(|o| !o.pass).map(|o| o.render()).collect();
    assert!(failed.is_empty(), "corpus regressions:\n{}", failed.join("\n"));
}

/// The harness's `engine_equivalence` differential over the whole
/// corpus: every plan runs identically with event-driven wakes and with
/// dense 100 ms polling.
#[test]
fn corpus_plans_are_engine_invariant() {
    let harness = Harness::new();
    let mut checked = 0;
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus dir") {
        let path = entry.expect("dir entry").path();
        if !path.to_string_lossy().ends_with(".seed.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("corpus entry");
        let plan = json::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let events = harness.run(&plan, WakePolicy::EventDriven);
        let dense = harness.run(&plan, WakePolicy::Dense);
        assert_eq!(events, dense, "event-driven and dense wakes diverged on {path:?}");
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} corpus entries checked");
}

/// The kill-resume corpus entry dies mid-run (radio loss and severe
/// lapses both active), round-trips through the binary checkpoint codec,
/// and must replay clean — including the `resume_equivalence` oracle,
/// which [`Harness::check`] runs against the uninterrupted ghost
/// whenever the plan contains a kill.
#[test]
fn kill_resume_corpus_entry_matches_its_ghost() {
    let harness = Harness::new();
    let path = corpus_dir().join("kill-resume-mid-lapse.seed.json");
    let text = std::fs::read_to_string(&path).expect("kill-resume corpus entry");
    let plan = json::from_json(&text).expect("parse kill-resume entry");
    assert!(
        plan.faults.iter().any(|f| f.kind == coreda::testkit::plan::FaultKind::CheckpointKillResume),
        "entry lost its kill fault: {plan:?}"
    );
    let outcome = harness.check(&plan);
    assert!(
        outcome.violations.is_empty(),
        "kill-resume replay regressed: {:?}",
        outcome.violations
    );
}

/// The frame-fault corpus entries target the served ingestion path:
/// transport storms (duplicated / reordered / delayed `Report` frames)
/// and a mid-session hangup. `replay_dir` routes them through the
/// served differential automatically; this pins the routing itself.
#[test]
fn frame_fault_corpus_entries_route_through_the_served_pipeline() {
    let mut seen = 0;
    for name in ["frame-transport-storm.seed.json", "frame-hangup-mid-session.seed.json"] {
        let text = std::fs::read_to_string(corpus_dir().join(name)).expect("served corpus entry");
        let plan = json::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(plan.has_frame_faults(), "{name} lost its frame faults: {plan:?}");
        let violations = coreda::testkit::served::check_served(&plan);
        assert!(violations.is_empty(), "{name} regressed: {violations:?}");
        seen += 1;
    }
    assert_eq!(seen, 2);
}

#[test]
fn corpus_round_trips_through_the_serializer() {
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus dir") {
        let path = entry.expect("dir entry").path();
        if !path.to_string_lossy().ends_with(".seed.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("corpus entry");
        let plan = json::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let reparsed = json::from_json(&json::to_json(&plan)).expect("round trip");
        assert_eq!(plan, reparsed, "{path:?} does not round-trip");
    }
}
