//! Replays the checked-in DST regression corpus (`tests/corpus/`).
//!
//! Each `.seed.json` entry is a deterministic fault plan. Entries with no
//! `expect_violation` are regression guards: they once reproduced a real
//! bug (or stress a fault kind) and must now pass every oracle; entries
//! naming an oracle must still trip exactly it. The same corpus gates
//! `make ci` via `coreda-cli replay --dir tests/corpus`.

use std::path::{Path, PathBuf};

use coreda::testkit::harness::{self, dst_config, first_difference, observe};
use coreda::testkit::json;
use coreda::testkit::plan::{FaultKind, FaultPlan};
use coreda::testkit::{corpus, served};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Every corpus entry, by file name, in file-name order.
fn entries() -> Vec<(String, FaultPlan)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.to_string_lossy().ends_with(".seed.json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("corpus entry");
            let plan = json::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            (path.file_name().unwrap().to_string_lossy().into_owned(), plan)
        })
        .collect()
}

#[test]
fn corpus_replays_match_expectations() {
    let outcomes = corpus::replay_dir(&corpus_dir()).expect("corpus replays");
    assert!(outcomes.len() >= 8, "corpus shrank to {} entries", outcomes.len());
    let failed: Vec<String> =
        outcomes.iter().filter(|o| !o.pass).map(|o| o.render()).collect();
    assert!(failed.is_empty(), "corpus regressions:\n{}", failed.join("\n"));
}

/// The in-process entries that pin a product defect rather than stress
/// a fault kind: each replays clean only while its fix holds.
const DEFECT_PINS: &[&str] =
    &["kill-resume-lazy-crash.seed.json", "red-blink-prompted-tool.seed.json"];

/// A stress entry tests nothing if its windows fall in quiet stretches:
/// every in-process entry that pins no defect must serve differently
/// from the same plan with its faults removed.
#[test]
fn in_process_stress_entries_are_not_vacuous() {
    let mut checked = 0;
    for (name, plan) in entries() {
        let pinned = DEFECT_PINS.contains(&name.as_str());
        if pinned || plan.has_frame_faults() || plan.has_care_faults() {
            continue;
        }
        let clean = FaultPlan { faults: vec![], ..plan.clone() };
        let run = |p: &FaultPlan| observe(&dst_config(p, 1), Some(p), &p.kills()).unwrap();
        assert!(
            first_difference(&run(&plan), &run(&clean)).is_some(),
            "{name}: its faults change nothing the fleet does"
        );
        checked += 1;
    }
    assert_eq!(checked, 7, "the corpus's stress entries changed");
}

/// The kill-resume corpus entry dies mid-run (radio loss and severe
/// lapses both active), round-trips through the binary checkpoint codec,
/// and must replay clean — including the `resume_equivalence` oracle,
/// which [`harness::check`] runs against the uninterrupted ghost
/// whenever the plan contains a kill.
#[test]
fn kill_resume_corpus_entry_matches_its_ghost() {
    let path = corpus_dir().join("kill-resume-mid-lapse.seed.json");
    let text = std::fs::read_to_string(&path).expect("kill-resume corpus entry");
    let plan = json::from_json(&text).expect("parse kill-resume entry");
    assert!(
        plan.faults.iter().any(|f| f.kind == FaultKind::CheckpointKillResume),
        "entry lost its kill fault: {plan:?}"
    );
    let violations = harness::check(&plan, harness::JOBS);
    assert!(violations.is_empty(), "kill-resume replay regressed: {violations:?}");
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
        let violations = served::check_served(&plan);
        assert!(violations.is_empty(), "{name} regressed: {violations:?}");
        seen += 1;
    }
    assert_eq!(seen, 2);
}

#[test]
fn corpus_round_trips_through_the_serializer() {
    for (name, plan) in entries() {
        let reparsed = json::from_json(&json::to_json(&plan)).expect("round trip");
        assert_eq!(plan, reparsed, "{name} does not round-trip");
    }
}
